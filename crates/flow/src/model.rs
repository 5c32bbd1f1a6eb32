//! Router-level demand matrices and routing lowerings.
//!
//! The flow backend reduces every supported [`RoutingSpec`] to
//! per-channel loads at unit injection rate (λ = 1):
//!
//! * [`min_loads`] — minimal ECMP: flow splits equally over all minimal
//!   next hops at every router;
//! * [`valiant_loads`] — Valiant two-phase: the intermediate router is
//!   uniform over all routers except source and destination, so each
//!   phase is a rank-1 perturbation of the demand matrix routed
//!   minimally (no per-intermediate enumeration needed);
//! * [`ugal_mix`] — the fluid limit of UGAL: every flow sends a fraction
//!   α minimally and 1−α via Valiant, with one global α chosen to
//!   minimize the maximum channel load (see the note on
//!   [`ugal_mix`] for why UGAL-L and UGAL-G coincide here);
//! * [`fatpaths_loads`] — FatPaths layers: minimal ECMP within each
//!   layer subgraph, averaged over layers.
//!
//! All of them run on one minimal-ECMP kernel, [`min_loads_dense`].
//! Each destination takes one of three paths: a dense common-neighbour
//! count when all its demand lies within two hops, a sparse
//! source-driven count over a sparse [`Demand`]'s source list under the
//! same condition, or a general BFS that records every router's minimal
//! next hops and propagates demand from far to near over them. The kernel's rustdoc states the
//! summation-order contract under which a sparse and a dense column of
//! the same demand give the same loads, bit for bit.
//!
//! Loads use the CSR channel ids of [`EdgeIndex`]. On networks small
//! enough for the exact tier (≤ [`EXACT_MAX_ROUTERS`](crate::EXACT_MAX_ROUTERS)
//! routers) the lowerings also materialize a per-flow [`FlowSet`] for
//! the progressive-filling solver; above that the fluid clamp in
//! [`evaluate`](crate::evaluate) applies.
//!
//! [`RoutingSpec`]: sf_routing::RoutingSpec
//! [`FlowSet`]: crate::FlowSet

use crate::index::EdgeIndex;
use crate::solve;
use rayon::prelude::*;
use sf_graph::Graph;
use sf_routing::router::FATPATHS_SEED;
use sf_routing::{FatPathsRouter, RoutingTables};
use sf_topo::Network;
use sf_traffic::{DestMix, TrafficPattern};
use std::fmt;

/// Errors from the flow-level model.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The routing spec has no flow-level lowering (e.g. per-flit
    /// adaptive ANCA, whose decisions depend on live queue state that a
    /// fluid model does not have).
    UnsupportedRouting {
        /// The routing's display label.
        label: String,
        /// Why it cannot be lowered.
        reason: String,
    },
    /// A demand entry has no path to its destination (disconnected
    /// graph or layer).
    UnroutableDemand {
        /// Source router.
        src: u32,
        /// Destination router.
        dst: u32,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnsupportedRouting { label, reason } => {
                write!(f, "routing {label} has no flow-level lowering: {reason}")
            }
            FlowError::UnroutableDemand { src, dst } => {
                write!(f, "demand from router {src} to router {dst} is unroutable")
            }
        }
    }
}

impl std::error::Error for FlowError {}

enum DemandKind {
    /// Every endpoint sends mass 1 spread uniformly over the other
    /// `n − 1` endpoints; `w[r]` is the router's endpoint count.
    Uniform { w: Vec<f64>, n: f64 },
    /// Explicit router-level entries, destination-major; each inner list
    /// is sorted by source router.
    Sparse {
        by_dest: Vec<Vec<(u32, f64)>>,
        row_sum: Vec<f64>,
        col_sum: Vec<f64>,
    },
}

/// A router-level traffic matrix at unit per-endpoint injection rate,
/// lowered from a [`TrafficPattern`]. Same-router endpoint pairs are
/// tracked separately as `local_mass` (0 network hops, always
/// delivered); `net_mass` is the total inter-router rate.
pub struct Demand {
    kind: DemandKind,
    nr: usize,
    active: f64,
    net_mass: f64,
    local_mass: f64,
}

impl Demand {
    /// Uniform traffic: endpoint-weighted all-to-all.
    pub fn uniform(net: &Network) -> Demand {
        let nr = net.num_routers();
        let n = net.num_endpoints() as f64;
        let w: Vec<f64> = net.concentration.iter().map(|&c| c as f64).collect();
        if n < 2.0 {
            return Demand {
                kind: DemandKind::Uniform { w, n },
                nr,
                active: n,
                net_mass: 0.0,
                local_mass: 0.0,
            };
        }
        let sq: f64 = w.iter().map(|&x| x * x).sum();
        let local_mass = (sq - n) / (n - 1.0);
        let net_mass = n - local_mass;
        Demand {
            kind: DemandKind::Uniform { w, n },
            nr,
            active: n,
            net_mass,
            local_mass,
        }
    }

    /// Lowers an arbitrary [`TrafficPattern`] via
    /// [`TrafficPattern::dest_mix`]: each active endpoint's destination
    /// distribution is scattered onto router pairs.
    pub fn from_pattern(net: &Network, pattern: &TrafficPattern) -> Demand {
        let nr = net.num_routers();
        let n = net.num_endpoints() as u32;
        let mut by_dest: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nr];
        let mut active = 0.0f64;
        let mut local_mass = 0.0f64;
        let mut net_mass = 0.0f64;
        for e in 0..n {
            match pattern.dest_mix(e) {
                DestMix::Inactive => {}
                // Uniform applies to every endpoint at once.
                DestMix::Uniform => return Demand::uniform(net),
                DestMix::Pairs(pairs) => {
                    active += 1.0;
                    let sr = net.endpoint_router(e);
                    for (dep, wgt) in pairs {
                        let dr = net.endpoint_router(dep);
                        if dr == sr {
                            local_mass += wgt;
                        } else {
                            net_mass += wgt;
                            by_dest[dr as usize].push((sr, wgt));
                        }
                    }
                }
            }
        }
        // Endpoints are visited in ascending order and endpoint→router is
        // monotone, so each per-dest list is already sorted by source;
        // merge duplicate sources.
        for list in by_dest.iter_mut() {
            let mut out: Vec<(u32, f64)> = Vec::with_capacity(list.len());
            for &(s, r) in list.iter() {
                match out.last_mut() {
                    Some(last) if last.0 == s => last.1 += r,
                    _ => out.push((s, r)),
                }
            }
            *list = out;
        }
        let mut row_sum = vec![0.0f64; nr];
        let mut col_sum = vec![0.0f64; nr];
        for (d, list) in by_dest.iter().enumerate() {
            for &(s, r) in list {
                row_sum[s as usize] += r;
                col_sum[d] += r;
            }
        }
        Demand {
            kind: DemandKind::Sparse {
                by_dest,
                row_sum,
                col_sum,
            },
            nr,
            active,
            net_mass,
            local_mass,
        }
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.nr
    }

    /// Number of active (injecting) endpoints.
    pub fn active(&self) -> f64 {
        self.active
    }

    /// Total inter-router rate.
    pub fn net_mass(&self) -> f64 {
        self.net_mass
    }

    /// Total same-router rate (0 network hops).
    pub fn local_mass(&self) -> f64 {
        self.local_mass
    }

    /// Total injected rate, network plus local.
    pub fn total_mass(&self) -> f64 {
        self.net_mass + self.local_mass
    }

    /// Inter-router rate from `s` to `d` (0 when `s == d`).
    pub fn rate(&self, s: u32, d: u32) -> f64 {
        if s == d {
            return 0.0;
        }
        match &self.kind {
            DemandKind::Uniform { w, n } => w[s as usize] * w[d as usize] / (n - 1.0),
            DemandKind::Sparse { by_dest, .. } => {
                let list = &by_dest[d as usize];
                match list.binary_search_by_key(&s, |&(src, _)| src) {
                    Ok(i) => list[i].1,
                    Err(_) => 0.0,
                }
            }
        }
    }

    /// Total inter-router rate out of `s`.
    pub fn row_sum(&self, s: u32) -> f64 {
        match &self.kind {
            DemandKind::Uniform { w, n } => {
                let ws = w[s as usize];
                ws * (*n - ws) / (*n - 1.0)
            }
            DemandKind::Sparse { row_sum, .. } => row_sum[s as usize],
        }
    }

    /// Total inter-router rate into `d`.
    pub fn col_sum(&self, d: u32) -> f64 {
        match &self.kind {
            DemandKind::Uniform { w, n } => {
                let wd = w[d as usize];
                wd * (*n - wd) / (*n - 1.0)
            }
            DemandKind::Sparse { col_sum, .. } => col_sum[d as usize],
        }
    }

    /// Writes the full demand column toward `d` into `buf` (overwriting
    /// every entry; `buf[d] = 0`) and returns its sum.
    pub fn fill_dest(&self, d: u32, buf: &mut [f64]) -> f64 {
        match &self.kind {
            DemandKind::Uniform { w, n } => {
                if *n < 2.0 {
                    buf.fill(0.0);
                    return 0.0;
                }
                let factor = w[d as usize] / (*n - 1.0);
                for (s, slot) in buf.iter_mut().enumerate() {
                    *slot = w[s] * factor;
                }
                buf[d as usize] = 0.0;
                self.col_sum(d)
            }
            DemandKind::Sparse {
                by_dest, col_sum, ..
            } => {
                buf.fill(0.0);
                for &(s, r) in &by_dest[d as usize] {
                    buf[s as usize] = r;
                }
                buf[d as usize] = 0.0;
                col_sum[d as usize]
            }
        }
    }

    /// Visits every nonzero inter-router demand pair in canonical order
    /// (destination-major, then ascending source). All flow-set
    /// materializations use this order, so sets built from the same
    /// demand are position-aligned.
    pub fn for_each_pair(&self, mut f: impl FnMut(u32, u32, f64)) {
        match &self.kind {
            DemandKind::Uniform { w, n } => {
                if *n < 2.0 {
                    return;
                }
                for d in 0..self.nr as u32 {
                    let wd = w[d as usize];
                    if wd <= 0.0 {
                        continue;
                    }
                    for s in 0..self.nr as u32 {
                        let ws = w[s as usize];
                        if s != d && ws > 0.0 {
                            f(s, d, ws * wd / (*n - 1.0));
                        }
                    }
                }
            }
            DemandKind::Sparse { by_dest, .. } => {
                for (d, list) in by_dest.iter().enumerate() {
                    for &(s, r) in list {
                        if r > 0.0 {
                            f(s, d as u32, r);
                        }
                    }
                }
            }
        }
    }
}

/// Per-channel loads of one routing lowering at unit injection rate,
/// plus the demand-mass bookkeeping needed to turn them into
/// throughput/latency points (see [`evaluate`](crate::evaluate)).
pub struct RoutingLoads {
    /// Load per directed channel (CSR ids of the [`EdgeIndex`] the
    /// lowering was computed against), at λ = 1.
    pub load: Vec<f64>,
    /// Maximum entry of `load`.
    pub max_load: f64,
    /// Demand-weighted mean hop count: Σ load / total demand mass
    /// (local 0-hop mass included in the denominator).
    pub avg_hops: f64,
    /// Inter-router demand mass at λ = 1.
    pub net_mass: f64,
    /// Same-router demand mass at λ = 1.
    pub local_mass: f64,
    /// Number of active endpoints (throughput normalizer).
    pub active: f64,
    /// Per-flow path sets for the exact solver; `None` above
    /// [`EXACT_MAX_ROUTERS`](crate::EXACT_MAX_ROUTERS).
    pub flows: Option<solve::FlowSet>,
}

impl RoutingLoads {
    fn finalize(load: Vec<f64>, demand: &Demand) -> RoutingLoads {
        let max_load = load.iter().copied().fold(0.0, f64::max);
        let sum: f64 = load.iter().sum();
        let total = demand.total_mass();
        let avg_hops = if total > 0.0 { sum / total } else { 0.0 };
        RoutingLoads {
            load,
            max_load,
            avg_hops,
            net_mass: demand.net_mass(),
            local_mass: demand.local_mass(),
            active: demand.active(),
            flows: None,
        }
    }

    /// Saturation throughput: the smallest injection rate λ* at which
    /// some channel reaches unit utilization (∞ when nothing crosses
    /// the network).
    pub fn saturation(&self) -> f64 {
        if self.max_load <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.max_load
        }
    }

    /// Mean channel load at λ = 1.
    pub fn mean_load(&self) -> f64 {
        if self.load.is_empty() {
            0.0
        } else {
            self.load.iter().sum::<f64>() / self.load.len() as f64
        }
    }
}

fn exact_tier(nr: usize, demand: &Demand) -> bool {
    nr <= solve::EXACT_MAX_ROUTERS && demand.total_mass() > 0.0
}

/// Minimal-ECMP channel loads for `demand` at unit injection.
pub fn min_loads(
    net: &Network,
    idx: &EdgeIndex,
    demand: &Demand,
) -> Result<RoutingLoads, FlowError> {
    let g = &net.graph;
    let load = demand_loads(g, idx, demand)?;
    let mut rl = RoutingLoads::finalize(load, demand);
    if exact_tier(g.num_vertices(), demand) {
        rl.flows = Some(solve::min_flowset(g, idx, demand));
    }
    Ok(rl)
}

/// Valiant two-phase channel loads: each flow routes minimally to a
/// random intermediate router (uniform over all routers except source
/// and destination), then minimally on. Both phases reduce to minimal
/// routing of a rank-1-perturbed demand matrix, so the cost is two
/// kernel passes — no per-intermediate enumeration. With ≤ 2 routers
/// there is no intermediate and VAL degenerates to MIN.
pub fn valiant_loads(
    net: &Network,
    idx: &EdgeIndex,
    demand: &Demand,
) -> Result<RoutingLoads, FlowError> {
    let g = &net.graph;
    let nr = g.num_vertices();
    if nr <= 2 {
        return min_loads(net, idx, demand);
    }
    let inv = 1.0 / (nr as f64 - 2.0);
    // Phase 1: traffic into intermediate m from every source s ≠ m is
    // (row_sum(s) − rate(s, m)) / (nr − 2) — s's whole outflow except
    // what targets m itself (m is excluded as its own intermediate).
    let p1 = min_loads_dense(g, idx, |m, buf| {
        let mut total = 0.0;
        for (s, slot) in buf.iter_mut().enumerate() {
            let s = s as u32;
            let v = if s == m {
                0.0
            } else {
                ((demand.row_sum(s) - demand.rate(s, m)) * inv).max(0.0)
            };
            *slot = v;
            total += v;
        }
        total
    })?;
    // Phase 2: traffic from intermediate m toward destination d.
    let p2 = min_loads_dense(g, idx, |d, buf| {
        let mut total = 0.0;
        for (m, slot) in buf.iter_mut().enumerate() {
            let m = m as u32;
            let v = if m == d {
                0.0
            } else {
                ((demand.col_sum(d) - demand.rate(m, d)) * inv).max(0.0)
            };
            *slot = v;
            total += v;
        }
        total
    })?;
    let load: Vec<f64> = p1.iter().zip(&p2).map(|(a, b)| a + b).collect();
    let mut rl = RoutingLoads::finalize(load, demand);
    if exact_tier(nr, demand) {
        rl.flows = Some(solve::valiant_flowset(g, idx, demand));
    }
    Ok(rl)
}

/// The fluid limit of UGAL: every flow splits α minimal / (1 − α)
/// Valiant with one global α ∈ [0, 1] minimizing the maximum channel
/// load (the objective is convex — a max of linear functions of α — so
/// ternary search converges). In this limit the local and global
/// variants coincide: with stationary fluid queues, queue depth is a
/// deterministic function of channel load, so the per-packet UGAL-L
/// comparison and the global UGAL-G comparison see the same state and
/// make the same choice; the candidate count only affects sampling
/// noise, which the fluid model has none of.
pub fn ugal_mix(min: &RoutingLoads, val: &RoutingLoads) -> RoutingLoads {
    debug_assert_eq!(min.load.len(), val.load.len());
    let max_mix = |a: f64| -> f64 {
        min.load
            .iter()
            .zip(&val.load)
            .map(|(&m, &v)| a * m + (1.0 - a) * v)
            .fold(0.0, f64::max)
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..80 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if max_mix(m1) <= max_mix(m2) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let alpha = 0.5 * (lo + hi);
    let load: Vec<f64> = min
        .load
        .iter()
        .zip(&val.load)
        .map(|(&m, &v)| alpha * m + (1.0 - alpha) * v)
        .collect();
    let max_load = load.iter().copied().fold(0.0, f64::max);
    let avg_hops = alpha * min.avg_hops + (1.0 - alpha) * val.avg_hops;
    let flows = match (&min.flows, &val.flows) {
        (Some(a), Some(b)) => Some(solve::combine_flowsets(&[(a, alpha), (b, 1.0 - alpha)])),
        _ => None,
    };
    RoutingLoads {
        load,
        max_load,
        avg_hops,
        net_mass: min.net_mass,
        local_mass: min.local_mass,
        active: min.active,
        flows,
    }
}

/// FatPaths channel loads: the layer set is built exactly as the cycle
/// engine builds it ([`FatPathsRouter::build`] with the same
/// [`FATPATHS_SEED`]), each flow spreads 1/L of its rate over each of
/// the L layers, and routes minimal-ECMP within the layer subgraph.
pub fn fatpaths_loads(
    net: &Network,
    idx: &EdgeIndex,
    demand: &Demand,
    tables: &RoutingTables,
    num_layers: usize,
) -> Result<RoutingLoads, FlowError> {
    let g = &net.graph;
    let nr = g.num_vertices();
    let fp = FatPathsRouter::build(g, tables, num_layers, FATPATHS_SEED).map_err(|e| {
        FlowError::UnsupportedRouting {
            label: format!("fatpaths:layers={num_layers}"),
            reason: e.to_string(),
        }
    })?;
    let nl = fp.num_layers();
    let lw = 1.0 / nl as f64;
    let mut load = vec![0.0f64; idx.num_channels()];
    let exact = exact_tier(nr, demand);
    let mut layer_sets = Vec::new();
    for l in 0..nl {
        let lg = fp.layer_graph(l);
        let lidx = EdgeIndex::new(lg);
        let ll = demand_loads(lg, &lidx, demand)?;
        // Translate layer channel ids to full-graph ids.
        for u in 0..nr as u32 {
            let lb = lidx.base(u);
            for (j, &v) in lg.neighbors(u).iter().enumerate() {
                let x = ll[(lb + j as u32) as usize];
                if x != 0.0 {
                    load[idx.id(u, v) as usize] += x * lw;
                }
            }
        }
        if exact {
            let mut set = solve::min_flowset(lg, &lidx, demand);
            for flow in set.flows.iter_mut() {
                for entry in flow.support.iter_mut() {
                    entry.0 = idx.id(lidx.tail(entry.0), lidx.head(entry.0));
                }
            }
            set.num_channels = idx.num_channels();
            layer_sets.push(set);
        }
    }
    let mut rl = RoutingLoads::finalize(load, demand);
    if exact {
        let layers: Vec<_> = layer_sets.iter().map(|set| (set, lw)).collect();
        rl.flows = Some(solve::combine_flowsets(&layers));
    }
    Ok(rl)
}

/// The minimal-ECMP load kernel: for every destination `d`, splits the
/// demand column `fill(d, buf)` (which writes the column toward `d` and
/// returns its sum) equally over minimal next hops at every router and
/// accumulates per-channel loads (CSR ids of `idx`).
///
/// Each destination takes one of three paths:
///
/// * **dense common-neighbour** — when every router with demand toward
///   `d` lies within distance 2 (the Slim Fly common case), two-hop
///   paths are counted through `d`'s neighbours in O(nr + deg²), with
///   no BFS;
/// * **sparse source-driven** — [`min_loads`] and [`fatpaths_loads`]
///   hand the kernel a sparse [`Demand`]'s source lists instead of
///   dense columns. A diameter-2 destination then costs
///   O(sources × deg): mark `N(d)`; a source's marked-neighbour count
///   is its ECMP split; add `rate / count` on each `s → m` and
///   accumulate it per middle `m`; flush each middle's sum onto
///   `m → d`;
/// * **general recorded-next-hop** — a destination with demand beyond
///   distance 2 runs a BFS from `d` that records each router's minimal
///   next hops as (channel, head) pairs when it dequeues the router
///   (every router one level closer is discovered by then), with
///   branch-free discovery and record loops; demand then propagates
///   from far to near over those lists in reverse BFS order.
///
/// Summation-order contract, which keeps the three paths bit-identical
/// to the single dense kernel they grew from:
///
/// * in both diameter-2 paths each channel receives at most one
///   addition per destination, and the sum for `m → d` adds `m`'s own
///   demand first, then sources in ascending id — adjacency lists and
///   [`Demand`]'s source lists are both sorted;
/// * the sparse path screens sources with the dense path's `rate > 0`
///   test, so no destination switches between a two-hop path and the
///   general path, whose summation order (and so rounding) differs;
/// * the general path keeps BFS order, adjacency order and the
///   next-hop count `n_min` of a full adjacency scan;
/// * destinations are split into 16 fixed chunks whose partial sums are
///   combined in chunk order, so results are independent of worker
///   count and scheduling.
///
/// The first destination (in chunk order) with demand from a router it
/// cannot reach fails with [`FlowError::UnroutableDemand`].
pub fn min_loads_dense<F>(g: &Graph, idx: &EdgeIndex, fill: F) -> Result<Vec<f64>, FlowError>
where
    F: Fn(u32, &mut [f64]) -> f64 + Sync,
{
    min_loads_kernel(g, idx, fill, None)
}

/// [`min_loads_dense`] over a [`Demand`]: a sparse demand hands the
/// kernel its source lists and column sums.
fn demand_loads(g: &Graph, idx: &EdgeIndex, demand: &Demand) -> Result<Vec<f64>, FlowError> {
    let sparse = match &demand.kind {
        DemandKind::Sparse {
            by_dest, col_sum, ..
        } => Some((by_dest.as_slice(), col_sum.as_slice())),
        DemandKind::Uniform { .. } => None,
    };
    min_loads_kernel(g, idx, |d, buf| demand.fill_dest(d, buf), sparse)
}

/// A sparse demand's destination-major `(src, rate)` lists, sorted by
/// source, and their column sums.
type SparseColumns<'a> = (&'a [Vec<(u32, f64)>], &'a [f64]);

fn min_loads_kernel<F>(
    g: &Graph,
    idx: &EdgeIndex,
    fill: F,
    sparse: Option<SparseColumns<'_>>,
) -> Result<Vec<f64>, FlowError>
where
    F: Fn(u32, &mut [f64]) -> f64 + Sync,
{
    let nr = g.num_vertices();
    let nc = idx.num_channels();
    if nr == 0 {
        return Ok(Vec::new());
    }
    let rev = idx.reverse_map();
    let nchunks = 16usize.min(nr);
    let per = nr.div_ceil(nchunks);
    let partial: Vec<Result<Vec<f64>, FlowError>> = (0..nchunks)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|ci| {
            let mut k = Kernel::new(g, idx, &rev);
            for d in (ci * per) as u32..((ci + 1) * per).min(nr) as u32 {
                k.dest(d, &fill, sparse)?;
            }
            Ok(k.load)
        })
        .collect();
    let mut load = vec![0.0f64; nc];
    for part in partial {
        for (a, b) in load.iter_mut().zip(part?) {
            *a += b;
        }
    }
    Ok(load)
}

/// One destination chunk's loads and scratch. Between destinations
/// `mark` is all `false`, `aux` all `0.0` and `dist` all `u32::MAX`.
struct Kernel<'a> {
    g: &'a Graph,
    idx: &'a EdgeIndex,
    /// Opposite-channel map of `idx`.
    rev: &'a [u32],
    load: Vec<f64>,
    /// Dense demand column of the current destination.
    dem: Vec<f64>,
    /// Marks the destination's neighbours.
    mark: Vec<bool>,
    /// Two-hop path counts (dense path), per-middle sums (sparse path)
    /// or transit inflow (general path).
    aux: Vec<f64>,
    /// Routers whose `aux` the dense path set.
    touched: Vec<u32>,
    /// ECMP split of each source in a sparse column.
    split: Vec<f64>,
    /// BFS distance from the destination.
    dist: Vec<u32>,
    /// BFS order; one spare slot for the unconditional store.
    order: Vec<u32>,
    /// `hops[start[i]..start[i + 1]]` are the minimal next hops of
    /// `order[i]`.
    start: Vec<u32>,
    /// Recorded (channel, head) next hops; sized on first use, with one
    /// spare slot for the unconditional store.
    hops: Vec<(u32, u32)>,
}

impl<'a> Kernel<'a> {
    fn new(g: &'a Graph, idx: &'a EdgeIndex, rev: &'a [u32]) -> Self {
        let nr = g.num_vertices();
        Kernel {
            g,
            idx,
            rev,
            load: vec![0.0; idx.num_channels()],
            dem: vec![0.0; nr],
            mark: vec![false; nr],
            aux: vec![0.0; nr],
            touched: Vec::new(),
            split: Vec::new(),
            dist: vec![u32::MAX; nr],
            order: vec![0; nr + 1],
            start: vec![0; nr + 1],
            hops: Vec::new(),
        }
    }

    /// Adds destination `d`'s loads.
    fn dest<F>(
        &mut self,
        d: u32,
        fill: &F,
        sparse: Option<SparseColumns<'_>>,
    ) -> Result<(), FlowError>
    where
        F: Fn(u32, &mut [f64]) -> f64,
    {
        if let Some((by_dest, col_sum)) = sparse {
            if col_sum[d as usize] <= 0.0 || self.sparse_two_hop(d, &by_dest[d as usize]) {
                return Ok(());
            }
            fill(d, &mut self.dem);
            self.dem[d as usize] = 0.0;
        } else {
            let total = fill(d, &mut self.dem);
            self.dem[d as usize] = 0.0;
            if total <= 0.0 || self.dense_two_hop(d) {
                return Ok(());
            }
        }
        self.general(d)
    }

    /// The dense common-neighbour path over `dem`. Returns `false`,
    /// adding nothing, when some source lies beyond distance 2.
    fn dense_two_hop(&mut self, d: u32) -> bool {
        let (g, idx, rev) = (self.g, self.idx, self.rev);
        let Kernel {
            load,
            dem,
            mark,
            aux,
            touched,
            ..
        } = self;
        for &v in g.neighbors(d) {
            mark[v as usize] = true;
        }
        // Count two-hop minimal paths s → m → d through common neighbors.
        for &m in g.neighbors(d) {
            for &s in g.neighbors(m) {
                if s != d && !mark[s as usize] {
                    if aux[s as usize] == 0.0 {
                        touched.push(s);
                    }
                    aux[s as usize] += 1.0;
                }
            }
        }
        // The fast path is valid iff every demand source is d itself, a
        // neighbor, or a two-hop source.
        let mut fast = true;
        for (s, &ds) in dem.iter().enumerate() {
            if ds > 0.0 && s != d as usize && !mark[s] && aux[s] == 0.0 {
                fast = false;
                break;
            }
        }
        if fast {
            let dbase = idx.base(d);
            for (jm, &m) in g.neighbors(d).iter().enumerate() {
                // Traffic relayed through (or originated at) m all exits on
                // the m → d channel.
                let mut acc = dem[m as usize];
                let mbase = idx.base(m);
                for (j, &s) in g.neighbors(m).iter().enumerate() {
                    if s != d && !mark[s as usize] {
                        let ds = dem[s as usize];
                        if ds > 0.0 {
                            let c = ds / aux[s as usize];
                            load[rev[(mbase + j as u32) as usize] as usize] += c;
                            acc += c;
                        }
                    }
                }
                if acc > 0.0 {
                    load[rev[(dbase + jm as u32) as usize] as usize] += acc;
                }
            }
        }
        for &v in g.neighbors(d) {
            mark[v as usize] = false;
        }
        for &s in touched.iter() {
            aux[s as usize] = 0.0;
        }
        touched.clear();
        fast
    }

    /// The sparse source-driven path over `col`, the source-sorted
    /// column toward `d`. Returns `false`, adding nothing, when some
    /// source lies beyond distance 2.
    fn sparse_two_hop(&mut self, d: u32, col: &[(u32, f64)]) -> bool {
        let (g, idx, rev) = (self.g, self.idx, self.rev);
        let Kernel {
            load,
            mark,
            aux,
            split,
            ..
        } = self;
        let nd = g.neighbors(d);
        for &m in nd {
            mark[m as usize] = true;
        }
        // A source beyond d's neighbours splits over its neighbours that
        // are d's neighbours; none means it is farther than 2 hops. The
        // `r > 0` screen mirrors the dense path's exactly.
        split.clear();
        let mut fast = true;
        for &(s, r) in col {
            let mut n = 0u32;
            if s != d && !mark[s as usize] {
                for &m in g.neighbors(s) {
                    n += mark[m as usize] as u32;
                }
                if r > 0.0 && n == 0 {
                    fast = false;
                    break;
                }
            }
            split.push(n as f64);
        }
        if fast {
            // Each middle's sum starts at its own demand; sources then
            // add in ascending id, the order the dense path adds them.
            for &(s, r) in col {
                if mark[s as usize] {
                    aux[s as usize] = r;
                }
            }
            for (&(s, r), &n) in col.iter().zip(split.iter()) {
                if s != d && !mark[s as usize] && r > 0.0 {
                    let c = r / n;
                    let sbase = idx.base(s);
                    for (j, &m) in g.neighbors(s).iter().enumerate() {
                        if mark[m as usize] {
                            load[(sbase + j as u32) as usize] += c;
                            aux[m as usize] += c;
                        }
                    }
                }
            }
            let dbase = idx.base(d);
            for (jm, &m) in nd.iter().enumerate() {
                let acc = aux[m as usize];
                if acc > 0.0 {
                    load[rev[(dbase + jm as u32) as usize] as usize] += acc;
                }
                aux[m as usize] = 0.0;
            }
        }
        for &m in nd {
            mark[m as usize] = false;
        }
        fast
    }

    /// The general recorded-next-hop path over `dem`.
    fn general(&mut self, d: u32) -> Result<(), FlowError> {
        let (g, idx) = (self.g, self.idx);
        let nc = idx.num_channels();
        if self.hops.len() <= nc {
            self.hops.resize(nc + 1, (0, 0));
        }
        let Kernel {
            load,
            dem,
            aux,
            dist,
            order,
            start,
            hops,
            ..
        } = self;
        // BFS from d. When u is dequeued every router one level closer
        // is already discovered, so its minimal next hops are exactly
        // the neighbours with a smaller distance. Both loops store
        // unconditionally and advance their cursor by the predicate.
        dist[d as usize] = 0;
        order[0] = d;
        let (mut head, mut tail, mut k) = (0usize, 1usize, 0usize);
        while head < tail {
            let u = order[head];
            start[head] = k as u32;
            head += 1;
            let du = dist[u as usize];
            let ubase = idx.base(u);
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                let dv = dist[v as usize];
                hops[k] = (ubase + j as u32, v);
                k += (dv < du) as usize;
                let new = dv == u32::MAX;
                dist[v as usize] = if new { du + 1 } else { dv };
                order[tail] = v;
                tail += new as usize;
            }
        }
        start[tail] = k as u32;
        for (s, &ds) in dem.iter().enumerate() {
            if ds > 0.0 && dist[s] == u32::MAX {
                return Err(FlowError::UnroutableDemand {
                    src: s as u32,
                    dst: d,
                });
            }
        }
        // Propagate from far to near; order[0] is d itself.
        for i in (1..tail).rev() {
            let u = order[i] as usize;
            let f = aux[u] + dem[u];
            if f <= 0.0 {
                continue;
            }
            let next = &hops[start[i] as usize..start[i + 1] as usize];
            let share = f / next.len() as f64;
            for &(c, v) in next {
                load[c as usize] += share;
                aux[v as usize] += share;
            }
        }
        for &u in &order[..tail] {
            dist[u as usize] = u32::MAX;
            aux[u as usize] = 0.0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_topo::SlimFly;

    fn sf5() -> Network {
        SlimFly::new(5).unwrap().network()
    }

    #[test]
    fn uniform_demand_masses() {
        let net = sf5();
        let dem = Demand::uniform(&net);
        let n = net.num_endpoints() as f64;
        assert_eq!(dem.active(), n);
        assert!((dem.total_mass() - n).abs() < 1e-9);
        // Row/col sums agree with explicit rate sums.
        let nr = net.num_routers() as u32;
        for s in [0u32, 7, nr - 1] {
            let explicit: f64 = (0..nr).map(|d| dem.rate(s, d)).sum();
            assert!((explicit - dem.row_sum(s)).abs() < 1e-9);
            let explicit: f64 = (0..nr).map(|x| dem.rate(x, s)).sum();
            assert!((explicit - dem.col_sum(s)).abs() < 1e-9);
        }
    }

    #[test]
    fn min_loads_avg_hops_match_endpoint_average() {
        let net = sf5();
        let dem = Demand::uniform(&net);
        let idx = EdgeIndex::new(&net.graph);
        let rl = min_loads(&net, &idx, &dem).unwrap();
        // Demand-weighted hops equals the endpoint-pair average.
        let h = crate::average_hops_uniform(&net);
        assert!((rl.avg_hops - h).abs() < 1e-9, "{} vs {h}", rl.avg_hops);
    }

    #[test]
    fn sparse_screen_ignores_zero_rates_like_the_dense_path() {
        // d = 0 ← m = 1 ← {s1 = 2, s2 = 3}, and router 4 two hops past
        // s1 with a zero rate. Both kernels must stay on a two-hop path
        // for d: there m's sum is (1 + t) + t = 1, while the general
        // path's transit-first order gives (t + t) + 1 > 1.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (2, 4)]);
        let net = Network::with_uniform_concentration(
            g,
            1,
            "zero-rate".into(),
            sf_topo::TopologyKind::Other,
        );
        let t = f64::EPSILON / 2.0;
        let col = vec![(1, 1.0), (2, t), (3, t), (4, 0.0)];
        let col_sum = col.iter().map(|&(_, r)| r).sum::<f64>();
        let mut row_sum = vec![0.0; 5];
        for &(s, r) in &col {
            row_sum[s as usize] = r;
        }
        let dem = Demand {
            kind: DemandKind::Sparse {
                by_dest: vec![col, vec![], vec![], vec![], vec![]],
                row_sum,
                col_sum: vec![col_sum, 0.0, 0.0, 0.0, 0.0],
            },
            nr: 5,
            active: 4.0,
            net_mass: col_sum,
            local_mass: 0.0,
        };
        let idx = EdgeIndex::new(&net.graph);
        let sparse = min_loads(&net, &idx, &dem).unwrap().load;
        let dense = min_loads_dense(&net.graph, &idx, |d, buf| dem.fill_dest(d, buf)).unwrap();
        assert_eq!(sparse[idx.id(1, 0) as usize], 1.0);
        for (c, (a, b)) in sparse.iter().zip(&dense).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "channel {c}: {a:e} vs {b:e}");
        }
    }

    #[test]
    fn valiant_spreads_and_lengthens() {
        let net = sf5();
        let dem = Demand::uniform(&net);
        let idx = EdgeIndex::new(&net.graph);
        let min = min_loads(&net, &idx, &dem).unwrap();
        let val = valiant_loads(&net, &idx, &dem).unwrap();
        // VAL roughly doubles path length on a diameter-2 graph...
        assert!(val.avg_hops > 1.5 * min.avg_hops);
        // ...and total load (Σ load = hops × mass) reflects that.
        let sum_min: f64 = min.load.iter().sum();
        let sum_val: f64 = val.load.iter().sum();
        assert!(sum_val > 1.5 * sum_min);
    }

    #[test]
    fn ugal_no_worse_than_either_policy() {
        let net = sf5();
        let idx = EdgeIndex::new(&net.graph);
        // Adversarial: all traffic from one router's endpoints to one
        // distance-2 destination router.
        let tables = RoutingTables::new(&net.graph);
        let (mut src, mut dst) = (0, 0);
        'outer: for u in 0..net.num_routers() as u32 {
            for v in 0..net.num_routers() as u32 {
                if tables.distance(u, v) == 2 {
                    (src, dst) = (u, v);
                    break 'outer;
                }
            }
        }
        let mut perm = vec![u32::MAX; net.num_endpoints()];
        for (i, e) in net.endpoints_of_router(src).enumerate() {
            perm[e as usize] = net.endpoints_of_router(dst).start + i as u32;
        }
        let pat = TrafficPattern::permutation(perm, "funnel");
        let dem = Demand::from_pattern(&net, &pat);
        let min = min_loads(&net, &idx, &dem).unwrap();
        let val = valiant_loads(&net, &idx, &dem).unwrap();
        let ugal = ugal_mix(&min, &val);
        assert!(ugal.max_load <= min.max_load * (1.0 + 1e-9));
        assert!(ugal.max_load <= val.max_load * (1.0 + 1e-9));
        // Under adversarial traffic VAL must beat MIN, and UGAL ties VAL.
        assert!(val.max_load < min.max_load);
    }

    #[test]
    fn fatpaths_layer_average_conserves_mass() {
        let net = sf5();
        let idx = EdgeIndex::new(&net.graph);
        let dem = Demand::uniform(&net);
        let tables = RoutingTables::new(&net.graph);
        let fp = fatpaths_loads(&net, &idx, &dem, &tables, 3).unwrap();
        let min = min_loads(&net, &idx, &dem).unwrap();
        // Same demand mass; restricted layers can only lengthen paths.
        let sum_fp: f64 = fp.load.iter().sum();
        let sum_min: f64 = min.load.iter().sum();
        assert!(sum_fp >= sum_min - 1e-9);
        assert!(fp.avg_hops >= min.avg_hops - 1e-9);
    }
}
