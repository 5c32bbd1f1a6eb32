//! Exact max-min fair-share solving over materialized per-flow path
//! sets, and the throughput evaluation shared with the fluid tier.
//!
//! A [`FlowSet`] holds one [`Flow`] per nonzero demand pair, with a
//! *support*: the fraction of the flow's rate crossing each directed
//! channel (Σ over a flow's out-cut of any intermediate router = 1).
//! [`max_min_rates`] runs progressive filling over the set; [`evaluate`]
//! turns either tier — exact flow sets or fluid channel loads — into an
//! accepted-throughput / utilization point.
//!
//! The lowerings in [`crate::model`] build their sets here on one
//! minimal-ECMP walk per destination (MIN, each FatPaths layer, and
//! both Valiant legs) and one sparse weighted sum, `combine_flowsets`,
//! which mixes UGAL's MIN and VAL sets with weights `(α, 1 − α)` and
//! averages FatPaths layers with weight `1/L`.

use crate::index::EdgeIndex;
use crate::model::{Demand, RoutingLoads};
use sf_graph::{metrics, Graph};

/// Largest router count for which the lowerings materialize per-flow
/// supports and [`evaluate`] runs the exact progressive-filling solver.
/// Above this, the fluid clamp applies: every flow is scaled by
/// `min(1, λ*/λ)`, which is exact for load-homogeneous demand (e.g.
/// uniform traffic on a vertex-transitive Slim Fly — the at-scale case)
/// and a bandwidth upper bound otherwise. The cap keeps the all-pairs
/// support tables (O(routers² × channels) worst case) bounded.
pub const EXACT_MAX_ROUTERS: usize = 64;

/// One source→destination flow and its path DAG.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Source router.
    pub src: u32,
    /// Destination router.
    pub dst: u32,
    /// Demand weight: the flow's rate at injection rate λ is `λ·w`
    /// (unless throttled).
    pub w: f64,
    /// `(channel, fraction)` pairs: the share of the flow's rate
    /// crossing each directed channel. Each channel appears at most
    /// once.
    pub support: Vec<(u32, f64)>,
}

/// A set of flows over a common channel id space.
#[derive(Clone, Debug)]
pub struct FlowSet {
    /// Flows in canonical demand order (destination-major).
    pub flows: Vec<Flow>,
    /// Size of the channel id space the supports index into.
    pub num_channels: usize,
}

/// Result of [`max_min_rates`].
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Achieved rate per flow, aligned with `FlowSet::flows`.
    pub rates: Vec<f64>,
    /// Final utilization per channel (≤ 1).
    pub util: Vec<f64>,
    /// Total delivered inter-router rate (Σ rates).
    pub delivered: f64,
}

/// One throughput/utilization point of a routing under a demand, from
/// [`evaluate`].
#[derive(Clone, Copy, Debug)]
pub struct FlowPoint {
    /// Offered per-endpoint injection rate λ.
    pub offered: f64,
    /// Accepted rate per active endpoint (local 0-hop traffic counts as
    /// delivered).
    pub accepted: f64,
    /// Delivered-traffic-weighted mean hop count.
    pub avg_hops: f64,
    /// Maximum channel utilization (≤ 1).
    pub max_util: f64,
    /// Mean channel utilization.
    pub mean_util: f64,
    /// Whether some demand was throttled below its offered rate.
    pub saturated: bool,
}

/// Equal-split minimal-ECMP supports toward one destination at a time.
/// [`MinWalk::root`] runs the BFS from the destination; each
/// [`MinWalk::support`] call then walks routers from far to near,
/// splitting a unit flow equally over every router's minimal next hops.
struct MinWalk<'a> {
    g: &'a Graph,
    idx: &'a EdgeIndex,
    dst: u32,
    dist: Vec<u32>,
    /// Routers by decreasing distance from `dst`.
    order: Vec<u32>,
    /// Fraction of the walked flow reaching each router; all zero
    /// between walks.
    frac: Vec<f64>,
    /// Routers whose `frac` the current walk set.
    touched: Vec<u32>,
}

impl<'a> MinWalk<'a> {
    fn new(g: &'a Graph, idx: &'a EdgeIndex) -> Self {
        MinWalk {
            g,
            idx,
            dst: 0,
            dist: Vec::new(),
            order: Vec::new(),
            frac: vec![0.0; g.num_vertices()],
            touched: Vec::new(),
        }
    }

    /// Re-roots the walk at destination `d`.
    fn root(&mut self, d: u32) {
        self.dst = d;
        self.dist = metrics::bfs_distances(self.g, d);
        self.order = (0..self.g.num_vertices() as u32).collect();
        let dist = &self.dist;
        self.order
            .sort_unstable_by_key(|&u| std::cmp::Reverse(dist[u as usize]));
    }

    /// Whether `s` reaches the current destination.
    fn reaches(&self, s: u32) -> bool {
        self.dist[s as usize] != metrics::UNREACHABLE
    }

    /// The support of a unit flow from `s`, a router that
    /// [reaches](MinWalk::reaches) the destination, in walk order.
    fn support(&mut self, s: u32) -> Vec<(u32, f64)> {
        let MinWalk {
            g,
            idx,
            dst: d,
            dist,
            order,
            frac,
            touched,
        } = self;
        let d = *d;
        let mut support = Vec::new();
        frac[s as usize] = 1.0;
        touched.push(s);
        for &u in order.iter() {
            let f = frac[u as usize];
            if u == d || f <= 0.0 {
                continue;
            }
            let du = dist[u as usize];
            let nbrs = g.neighbors(u);
            let n_min = nbrs.iter().filter(|&&v| dist[v as usize] == du - 1).count();
            let share = f / n_min as f64;
            let ubase = idx.base(u);
            for (j, &v) in nbrs.iter().enumerate() {
                if dist[v as usize] == du - 1 {
                    support.push((ubase + j as u32, share));
                    if frac[v as usize] == 0.0 && v != d {
                        touched.push(v);
                    }
                    frac[v as usize] += share;
                }
            }
        }
        for &u in touched.iter() {
            frac[u as usize] = 0.0;
        }
        frac[d as usize] = 0.0;
        touched.clear();
        support
    }
}

/// Materializes the minimal-ECMP flow set: for each demand pair the
/// support is the equal-split DAG over all minimal paths.
pub(crate) fn min_flowset(g: &Graph, idx: &EdgeIndex, demand: &Demand) -> FlowSet {
    let nr = g.num_vertices();
    let mut walk = MinWalk::new(g, idx);
    let mut dem = vec![0.0f64; nr];
    let mut flows = Vec::new();
    for d in 0..nr as u32 {
        if demand.fill_dest(d, &mut dem) <= 0.0 {
            continue;
        }
        walk.root(d);
        for s in 0..nr as u32 {
            let w = dem[s as usize];
            if w > 0.0 && walk.reaches(s) {
                let support = walk.support(s);
                flows.push(Flow {
                    src: s,
                    dst: d,
                    w,
                    support,
                });
            }
        }
    }
    FlowSet {
        flows,
        num_channels: idx.num_channels(),
    }
}

/// Materializes the Valiant flow set: each flow's support averages the
/// two-phase paths `s → m → d` over every intermediate `m ∉ {s, d}`.
pub(crate) fn valiant_flowset(g: &Graph, idx: &EdgeIndex, demand: &Demand) -> FlowSet {
    let nr = g.num_vertices();
    if nr <= 2 {
        return min_flowset(g, idx, demand);
    }
    // All ordered-pair minimal supports (intermediates need every pair,
    // not just pairs with demand).
    let mut walk = MinWalk::new(g, idx);
    let mut sup: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nr * nr];
    for d in 0..nr as u32 {
        walk.root(d);
        for s in 0..nr as u32 {
            if s != d && walk.reaches(s) {
                sup[s as usize * nr + d as usize] = walk.support(s);
            }
        }
    }
    let inv = 1.0 / (nr as f64 - 2.0);
    let mut acc = vec![0.0f64; idx.num_channels()];
    let mut flows = Vec::new();
    let leg = |a: u32, b: u32| sup[a as usize * nr + b as usize].as_slice();
    demand.for_each_pair(|s, d, w| {
        let legs = (0..nr as u32)
            .filter(|&m| m != s && m != d)
            .flat_map(|m| [(leg(s, m), 1.0), (leg(m, d), 1.0)]);
        let mut support = weighted_sum(&mut acc, legs);
        for entry in &mut support {
            entry.1 *= inv;
        }
        flows.push(Flow {
            src: s,
            dst: d,
            w,
            support,
        });
    });
    FlowSet {
        flows,
        num_channels: idx.num_channels(),
    }
}

/// Combines position-aligned flow sets (same demand, same canonical
/// pair order) into one whose supports are `Σ weight · support` over
/// `parts`. UGAL mixes MIN and VAL with weights `(α, 1 − α)`; FatPaths
/// averages its layers with weight `1/L` each.
pub(crate) fn combine_flowsets(parts: &[(&FlowSet, f64)]) -> FlowSet {
    let (first, _) = parts[0];
    debug_assert!(parts.iter().all(|(set, _)| {
        set.num_channels == first.num_channels && set.flows.len() == first.flows.len()
    }));
    let mut acc = vec![0.0f64; first.num_channels];
    let flows = first
        .flows
        .iter()
        .enumerate()
        .map(|(fi, proto)| {
            let terms = parts.iter().map(|&(set, weight)| {
                let flow = &set.flows[fi];
                debug_assert_eq!((flow.src, flow.dst), (proto.src, proto.dst));
                (flow.support.as_slice(), weight)
            });
            Flow {
                src: proto.src,
                dst: proto.dst,
                w: proto.w,
                support: weighted_sum(&mut acc, terms),
            }
        })
        .collect();
    FlowSet {
        flows,
        num_channels: first.num_channels,
    }
}

/// The sparse sum `Σ weight · support` over `terms`, sorted by channel.
/// Each weight multiplies before it accumulates. `acc` is all-zero
/// scratch over the channel space and is left all-zero.
fn weighted_sum<'s>(
    acc: &mut [f64],
    terms: impl IntoIterator<Item = (&'s [(u32, f64)], f64)>,
) -> Vec<(u32, f64)> {
    let mut channels: Vec<u32> = Vec::new();
    for (support, weight) in terms {
        for &(c, f) in support {
            if acc[c as usize] == 0.0 {
                channels.push(c);
            }
            acc[c as usize] += weight * f;
        }
    }
    // A zero-weight term can leave a channel at zero and push it again.
    channels.sort_unstable();
    channels.dedup();
    channels
        .iter()
        .map(|&c| (c, std::mem::take(&mut acc[c as usize])))
        .collect()
}

/// Max-min fair-share rate allocation by progressive filling.
///
/// Every unfrozen flow grows at rate `t·w` with a common scale `t`.
/// Each round advances `t` to the next event: either `t` reaches the
/// offered rate `λ` (all remaining flows meet their demand — terminal)
/// or some channel reaches unit utilization, freezing every flow
/// crossing it at its current rate and removing its slope contribution.
///
/// # Convergence contract
///
/// Each non-terminal round saturates at least one previously unsaturated
/// channel (the arg-min channel of the step size is saturated
/// explicitly, so floating-point rounding cannot stall progress), and a
/// saturated channel never unsaturates. The loop therefore runs at most
/// `num_channels + 1` rounds; each round costs O(channels) for the event
/// scan plus O(support size) per newly frozen flow. Rates are
/// nondecreasing in λ and never exceed `λ·w`; utilizations never exceed
/// 1 (up to ≤1e-9 rounding, clamped).
pub fn max_min_rates(set: &FlowSet, lambda: f64) -> SolveResult {
    let nf = set.flows.len();
    let nc = set.num_channels;
    const EPS: f64 = 1e-12;
    let mut slope = vec![0.0f64; nc];
    let mut incidence: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nc];
    let mut frozen = vec![false; nf];
    let mut rates = vec![0.0f64; nf];
    let mut unfrozen = 0usize;
    for (fi, fl) in set.flows.iter().enumerate() {
        if fl.w <= 0.0 {
            frozen[fi] = true;
            continue;
        }
        unfrozen += 1;
        for &(c, f) in &fl.support {
            let contrib = fl.w * f;
            if contrib > 0.0 {
                slope[c as usize] += contrib;
                incidence[c as usize].push((fi as u32, contrib));
            }
        }
    }
    let mut util = vec![0.0f64; nc];
    let mut saturated = vec![false; nc];
    let mut t = 0.0f64;
    while unfrozen > 0 {
        // Next event: demand met, or the tightest channel saturates.
        let mut dt_ch = f64::INFINITY;
        let mut arg = usize::MAX;
        for c in 0..nc {
            if !saturated[c] && slope[c] > EPS {
                let d = ((1.0 - util[c]) / slope[c]).max(0.0);
                if d < dt_ch {
                    dt_ch = d;
                    arg = c;
                }
            }
        }
        let dt_dem = lambda - t;
        if dt_dem <= dt_ch {
            for c in 0..nc {
                if !saturated[c] {
                    util[c] = (util[c] + dt_dem * slope[c]).min(1.0);
                }
            }
            for (fi, fl) in set.flows.iter().enumerate() {
                if !frozen[fi] {
                    frozen[fi] = true;
                    rates[fi] = lambda * fl.w;
                }
            }
            break;
        }
        t += dt_ch;
        for c in 0..nc {
            if !saturated[c] {
                util[c] = (util[c] + dt_ch * slope[c]).min(1.0);
            }
        }
        // Saturate the arg-min channel plus any others that crossed.
        for c in 0..nc {
            let crossed = c == arg || (slope[c] > EPS && util[c] >= 1.0 - 1e-9);
            if saturated[c] || !crossed {
                continue;
            }
            saturated[c] = true;
            util[c] = util[c].min(1.0);
            for &(fi, _) in &incidence[c] {
                let fi = fi as usize;
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                unfrozen -= 1;
                let fl = &set.flows[fi];
                rates[fi] = t * fl.w;
                for &(c2, f) in &fl.support {
                    slope[c2 as usize] -= fl.w * f;
                }
            }
        }
    }
    let delivered = rates.iter().sum();
    SolveResult {
        rates,
        util,
        delivered,
    }
}

/// Evaluates one offered-load point of a routing lowering.
///
/// With per-flow supports available (≤ [`EXACT_MAX_ROUTERS`]), runs the
/// exact [`max_min_rates`] solver; otherwise applies the fluid clamp:
/// every flow scales by `min(1, λ*/λ)` where λ* is the saturation
/// throughput, exact for load-homogeneous demand and an upper bound
/// otherwise. Local (same-router) traffic never crosses the network and
/// is always delivered.
pub fn evaluate(rl: &RoutingLoads, lambda: f64) -> FlowPoint {
    let nc = rl.load.len();
    if rl.active <= 0.0 || lambda <= 0.0 {
        return FlowPoint {
            offered: lambda,
            accepted: 0.0,
            avg_hops: rl.avg_hops,
            max_util: 0.0,
            mean_util: 0.0,
            saturated: false,
        };
    }
    match &rl.flows {
        Some(set) => {
            let sol = max_min_rates(set, lambda);
            let local = lambda * rl.local_mass;
            let delivered = sol.delivered + local;
            let hop_mass: f64 = sol.util.iter().sum();
            FlowPoint {
                offered: lambda,
                accepted: delivered / rl.active,
                avg_hops: if delivered > 0.0 {
                    hop_mass / delivered
                } else {
                    rl.avg_hops
                },
                max_util: sol.util.iter().copied().fold(0.0, f64::max),
                mean_util: if nc > 0 { hop_mass / nc as f64 } else { 0.0 },
                saturated: sol.delivered < lambda * rl.net_mass * (1.0 - 1e-9),
            }
        }
        None => {
            let sat = rl.saturation();
            let factor = (sat / lambda).min(1.0);
            FlowPoint {
                offered: lambda,
                accepted: lambda * (rl.net_mass * factor + rl.local_mass) / rl.active,
                avg_hops: rl.avg_hops,
                max_util: (lambda * factor * rl.max_load).min(1.0),
                mean_util: lambda * factor * rl.mean_load(),
                saturated: lambda > sat * (1.0 + 1e-9),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{min_loads, valiant_loads};
    use sf_topo::SlimFly;

    fn sf5_min() -> (sf_topo::Network, RoutingLoads) {
        let net = SlimFly::new(5).unwrap().network();
        let idx = EdgeIndex::new(&net.graph);
        let dem = Demand::uniform(&net);
        let rl = min_loads(&net, &idx, &dem).unwrap();
        (net, rl)
    }

    #[test]
    fn supports_conserve_flow() {
        let (net, rl) = sf5_min();
        let set = rl.flows.as_ref().unwrap();
        let idx = EdgeIndex::new(&net.graph);
        // Every flow's fractions into its destination sum to 1.
        for fl in &set.flows {
            let into_dst: f64 = fl
                .support
                .iter()
                .filter(|&&(c, _)| idx.head(c) == fl.dst)
                .map(|&(_, f)| f)
                .sum();
            assert!((into_dst - 1.0).abs() < 1e-9, "flow {}→{}", fl.src, fl.dst);
        }
        // Support-weighted loads reproduce the dense kernel loads.
        let mut load = vec![0.0f64; set.num_channels];
        for fl in &set.flows {
            for &(c, f) in &fl.support {
                load[c as usize] += fl.w * f;
            }
        }
        for (c, (&a, &b)) in load.iter().zip(&rl.load).enumerate() {
            assert!((a - b).abs() < 1e-9, "channel {c}: {a} vs {b}");
        }
    }

    #[test]
    fn low_load_delivers_everything() {
        let (_, rl) = sf5_min();
        let set = rl.flows.as_ref().unwrap();
        let sol = max_min_rates(set, 0.2);
        let offered: f64 = set.flows.iter().map(|f| 0.2 * f.w).sum();
        assert!((sol.delivered - offered).abs() < 1e-9);
        assert!(sol.util.iter().all(|&u| u <= 1.0));
        let p = evaluate(&rl, 0.2);
        assert!(!p.saturated);
        assert!((p.accepted - 0.2).abs() < 1e-9);
    }

    #[test]
    fn exact_knee_matches_fluid_bound_on_homogeneous_demand() {
        // Uniform traffic on a vertex-transitive SF: the exact solver's
        // knee must sit at the fluid saturation bound.
        let (_, rl) = sf5_min();
        let sat = rl.saturation();
        let below = evaluate(&rl, sat * 0.98);
        let above = evaluate(&rl, sat * 1.10);
        assert!(!below.saturated);
        assert!(above.saturated);
        // Past saturation, accepted throughput plateaus near λ*.
        assert!((above.accepted - sat).abs() / sat < 0.05);
        assert!(above.max_util > 0.999);
    }

    #[test]
    fn max_min_is_fair_under_asymmetric_contention() {
        // Two flows share a channel, one has a private second channel:
        // the shared channel splits fairly.
        let set = FlowSet {
            flows: vec![
                Flow {
                    src: 0,
                    dst: 2,
                    w: 1.0,
                    support: vec![(0, 1.0)],
                },
                Flow {
                    src: 1,
                    dst: 2,
                    w: 1.0,
                    support: vec![(0, 0.5), (1, 0.5)],
                },
            ],
            num_channels: 2,
        };
        let sol = max_min_rates(&set, 10.0);
        // Channel 0 carries r0 + r1/2 = 1 with r0 = r1 (equal weights
        // freeze together): r = 2/3 each.
        assert!((sol.rates[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((sol.rates[1] - 2.0 / 3.0).abs() < 1e-9);
        assert!((sol.util[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn valiant_exact_solver_agrees_with_fluid_saturation() {
        let net = SlimFly::new(5).unwrap().network();
        let idx = EdgeIndex::new(&net.graph);
        let dem = Demand::uniform(&net);
        let rl = valiant_loads(&net, &idx, &dem).unwrap();
        let sat = rl.saturation();
        let above = evaluate(&rl, sat * 1.5);
        assert!(above.saturated);
        assert!((above.accepted - sat).abs() / sat < 0.05);
    }
}
