//! The pluggable routing engine: the [`Router`] trait and the built-in
//! policies (MIN, Valiant, UGAL-L/G, adaptive ECMP, FatPaths).
//!
//! The cycle-level simulator in `sf-sim` owns router queues and flit
//! movement but **no routing policy**: every path decision is delegated
//! to a [`Router`] implementation through two hooks —
//! [`Router::route`] at injection time (source routing) and
//! [`Router::next_hop`] at every hop (per-hop adaptive routing). Queue
//! state crosses the boundary only through the narrow [`QueueView`]
//! abstraction, so a policy sees exactly as much congestion information
//! as its real-world counterpart would:
//!
//! * **UGAL-L** (§IV-C2) queries [`QueueView::occupancy`] only for the
//!   *source* router's output ports — local information;
//! * **UGAL-G** (§IV-C1) sums occupancies along whole candidate paths —
//!   the idealized global-knowledge variant;
//! * **MIN**/**Valiant** never consult the view at all.
//!
//! Adding a routing scheme is a leaf change: implement [`Router`],
//! register a name in [`crate::spec::RoutingSpec`], and every consumer
//! of the experiment API (CLI flags, config files, the fluent builder)
//! can select it by string.

use crate::paths::PathGen;
use crate::spec::RoutingError;
use crate::tables::RoutingTables;
use rand::rngs::StdRng;
use rand::Rng;
use sf_graph::Graph;

/// Read-only view of the simulator's output-queue state.
///
/// # Contract
///
/// `occupancy(r, to)` returns the congestion metric of the output link
/// from router `r` toward its neighbor `to`: staged flits plus
/// downstream buffer slots in use (credits outstanding) — the "output
/// queue length" the UGAL papers inspect. `to` **must** be a neighbor
/// of `r` in the router graph; implementations may panic otherwise.
///
/// **Occupancy counts flits, not packets.** Under multi-flit wormhole
/// simulation (`packet_size > 1`) every body and tail flit occupies a
/// staged slot or a downstream credit exactly like a head flit does,
/// so a policy comparing occupancies automatically sees serialization
/// pressure: a link carrying one 16-flit packet reads as 16× busier
/// than a link carrying one single-flit packet. No per-packet
/// normalization is applied — that matches what real UGAL hardware
/// measures (buffer slots in use).
///
/// The view is a snapshot of the current cycle: occupancy does not
/// change while a routing decision is being made. Implementations are
/// **O(1) per query** — the engine maintains an incremental per-link
/// occupancy counter (updated at grant, transmission and credit
/// arrival), so a query is a single array read and policies may probe
/// every hop of every candidate path without a cost cliff (UGAL-G and
/// per-hop adaptive schemes rely on this). Policies that model *local*
/// knowledge (UGAL-L) must only query `r == ctx.src`; the engine does
/// not enforce this, the trait impl is the policy.
///
/// **Allocation-phase restriction.** Injection-time decisions
/// ([`Router::route`]) may probe any router's links — no occupancy
/// changes during the injection phase, so every probe sees the state
/// the previous cycle left. Per-hop decisions ([`Router::next_hop`]),
/// however, run inside the VC-allocation phase, where routers grant in
/// ascending id order and every grant moves its own output link's
/// counter: earlier grants in the same phase are visible, so a foreign
/// link reads differently depending on whether its router has already
/// allocated this cycle. Only the decider's own links are stable while
/// it decides. A `next_hop` implementation may therefore only query
/// the occupancy of the *deciding* router's own output links
/// (`r == cur`), never a foreign router's; the engine enforces this
/// with an assertion on its allocation-phase view.
pub trait QueueView {
    /// Queue occupancy of the link `r → to` (flits; 0 = idle link).
    fn occupancy(&self, r: u32, to: u32) -> u32;
}

/// A [`QueueView`] reporting zero occupancy everywhere — for contexts
/// with no live simulator state (unit tests, offline path dumps).
pub struct NoQueues;

impl QueueView for NoQueues {
    fn occupancy(&self, _r: u32, _to: u32) -> u32 {
        0
    }
}

/// Everything a [`Router`] may consult when making a decision.
pub struct RouteCtx<'a> {
    /// The router-to-router graph.
    pub graph: &'a Graph,
    /// All-pairs distance tables over `graph`.
    pub tables: &'a RoutingTables,
    /// Live queue occupancies (see the [`QueueView`] contract).
    pub queues: &'a dyn QueueView,
    /// Source router (where the packet was injected).
    pub src: u32,
    /// Destination router.
    pub dst: u32,
    /// Stable flow identifier (e.g. source/destination endpoint pair);
    /// flowlet-based schemes hash it to keep a flow's packets together.
    pub flow: u64,
    /// Current simulation cycle.
    pub now: u32,
}

impl<'a> RouteCtx<'a> {
    /// A context with no live queue state (tests, offline evaluation).
    pub fn offline(graph: &'a Graph, tables: &'a RoutingTables, src: u32, dst: u32) -> Self {
        RouteCtx {
            graph,
            tables,
            queues: &NoQueues,
            src,
            dst,
            flow: 0,
            now: 0,
        }
    }

    /// A uniformly random minimal-path generator over this context.
    pub fn path_gen(&self) -> PathGen<'a> {
        PathGen::new(self.graph, self.tables)
    }
}

/// Outcome of the injection-time routing decision.
pub enum RouteDecision {
    /// Source routing: the full router path (source first, destination
    /// last; `[r]` when source and destination share a router).
    Path(Vec<u32>),
    /// Per-hop routing: the packet carries only its destination and the
    /// engine calls [`Router::next_hop`] at every router.
    PerHop,
}

/// A routing policy, pluggable into the `sf-sim` engine.
///
/// Implementations must be `Send + Sync`: one router instance is shared
/// by all parallel load points of a sweep, so all mutable decision
/// state must live in the per-packet inputs (`ctx`, `rng`) — policies
/// are pure functions of the context plus their precomputed structure
/// (e.g. FatPaths layers).
pub trait Router: Send + Sync {
    /// Display label, figure-legend style (`"MIN"`, `"UGAL-L"`, …).
    fn label(&self) -> String;

    /// Injection-time decision: a full source route or [`RouteDecision::PerHop`].
    ///
    /// Called exactly once per **packet**, when its *head flit* is
    /// injected; under multi-flit wormhole simulation the body and
    /// tail flits reuse the head's decision.
    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut StdRng) -> RouteDecision;

    /// Per-hop decision for [`RouteDecision::PerHop`] packets sitting at
    /// router `cur`: the next-hop router (must be a neighbor of `cur`).
    /// Source-routing policies never receive this call.
    ///
    /// **Head-flit-only contract**: the engine reaches this hook only
    /// for a packet's *head* flit (possibly several times, if the head
    /// is blocked and re-arbitrated on later cycles). Once the head is
    /// granted an output, the engine routes the packet's remaining
    /// flits over the reserved (link, VC) without consulting the
    /// policy — a policy can therefore never split one packet across
    /// links, and any RNG it draws is drawn per head-flit arbitration,
    /// never per body flit.
    fn next_hop(&self, ctx: &RouteCtx<'_>, cur: u32, rng: &mut StdRng) -> u32 {
        let _ = (ctx, cur, rng);
        unreachable!("next_hop called on a source-routing router")
    }
}

/// Minimal static routing (SF-MIN, §IV-A): a uniformly random shortest
/// path, ECMP tie-break at every hop.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinRouter;

impl Router for MinRouter {
    fn label(&self) -> String {
        "MIN".into()
    }

    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut StdRng) -> RouteDecision {
        RouteDecision::Path(ctx.path_gen().min_path(ctx.src, ctx.dst, rng))
    }
}

/// Valiant random routing (SF-VAL, §IV-B): minimal to a random
/// intermediate router, then minimal to the destination.
#[derive(Clone, Copy, Debug, Default)]
pub struct ValiantRouter {
    /// Restrict random paths to ≤ 3 hops (the §IV-B ablation the paper
    /// found to *increase* latency).
    pub cap3: bool,
}

impl Router for ValiantRouter {
    fn label(&self) -> String {
        if self.cap3 { "VAL-cap3" } else { "VAL" }.into()
    }

    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut StdRng) -> RouteDecision {
        RouteDecision::Path(
            ctx.path_gen()
                .valiant_path(ctx.src, ctx.dst, self.cap3, rng),
        )
    }
}

/// UGAL (§IV-C): compare the MIN path against random Valiant candidates
/// by queue-weighted path length and take the cheapest.
///
/// `global = false` is **UGAL-L**: only the *source router's* output
/// queue toward each candidate's first hop is inspected (the score is
/// `(hops) × (occupancy + 1)`), matching what deployed hardware can
/// know locally. `global = true` is **UGAL-G**: occupancies are summed
/// along the entire candidate path — the idealized upper bound.
#[derive(Clone, Copy, Debug)]
pub struct UgalRouter {
    candidates: usize,
    global: bool,
}

impl UgalRouter {
    /// Builds a UGAL router with `candidates` random Valiant paths
    /// (paper: 4 is best). Zero candidates is a typed error — UGAL
    /// degenerating to MIN silently was a long-standing foot-gun.
    pub fn new(candidates: usize, global: bool) -> Result<Self, RoutingError> {
        if candidates == 0 {
            return Err(RoutingError::InvalidParam {
                spec: if global { "ugal-g:c=0" } else { "ugal-l:c=0" }.into(),
                reason: "UGAL needs at least one Valiant candidate (c ≥ 1)".into(),
            });
        }
        Ok(UgalRouter { candidates, global })
    }

    /// Candidate count.
    pub fn candidates(&self) -> usize {
        self.candidates
    }
}

impl Router for UgalRouter {
    fn label(&self) -> String {
        if self.global { "UGAL-G" } else { "UGAL-L" }.into()
    }

    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut StdRng) -> RouteDecision {
        // Candidates are generated and scored one at a time into two
        // reused buffers (scoring draws no RNG, so the draw sequence is
        // identical to materializing the whole candidate set first).
        let gen = ctx.path_gen();
        let mut best = Vec::with_capacity(8);
        gen.extend_min_path(ctx.src, ctx.dst, rng, &mut best);
        let mut cand = Vec::with_capacity(8);
        if self.global {
            // Global: total queue occupancy along the whole path.
            let score = |p: &[u32]| -> u64 {
                p.windows(2)
                    .map(|w| ctx.queues.occupancy(w[0], w[1]) as u64)
                    .sum()
            };
            let mut best_score = score(&best);
            for _ in 0..self.candidates {
                cand.clear();
                gen.extend_valiant_path(ctx.src, ctx.dst, false, rng, &mut cand);
                let s = score(&cand);
                if s < best_score || (s == best_score && cand.len() < best.len()) {
                    best_score = s;
                    std::mem::swap(&mut best, &mut cand);
                }
            }
        } else {
            // Local: queue length at the source × path length (the
            // classic UGAL-L product score).
            let score = |p: &[u32]| -> u64 {
                if p.len() < 2 {
                    return 0;
                }
                (p.len() as u64 - 1) * (ctx.queues.occupancy(ctx.src, p[1]) as u64 + 1)
            };
            let mut best_score = score(&best);
            for _ in 0..self.candidates {
                cand.clear();
                gen.extend_valiant_path(ctx.src, ctx.dst, false, rng, &mut cand);
                let s = score(&cand);
                if s < best_score {
                    best_score = s;
                    std::mem::swap(&mut best, &mut cand);
                }
            }
        }
        RouteDecision::Path(best)
    }
}

/// Per-hop adaptive ECMP over minimal paths — the stand-in for the fat
/// tree's Adaptive Nearest Common Ancestor protocol (ANCA): at every
/// hop the least-occupied minimal next hop is taken.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveEcmpRouter;

impl Router for AdaptiveEcmpRouter {
    fn label(&self) -> String {
        "ANCA".into()
    }

    fn route(&self, _ctx: &RouteCtx<'_>, _rng: &mut StdRng) -> RouteDecision {
        RouteDecision::PerHop
    }

    fn next_hop(&self, ctx: &RouteCtx<'_>, cur: u32, _rng: &mut StdRng) -> u32 {
        let mut best: Option<(u32, u32)> = None; // (occupancy, router)
        for v in ctx.tables.min_next_hops(ctx.graph, cur, ctx.dst) {
            let occ = ctx.queues.occupancy(cur, v);
            if best.is_none_or(|(bo, _)| occ < bo) {
                best = Some((occ, v));
            }
        }
        best.expect("connected network").1
    }
}

// ---------------------------------------------------------------------
// FatPaths-style layered multipath routing.
// ---------------------------------------------------------------------

/// Maximum router-path hops any FatPaths layer may require. Keeps layer
/// paths within the simulator's per-packet path budget and bounds the
/// VC pressure of the hop-index deadlock-avoidance scheme.
pub const FATPATHS_MAX_LAYER_HOPS: usize = 9;

/// Maximum FatPaths layer count — the single bound shared by spec
/// validation and [`FatPathsRouter::build`].
pub const FATPATHS_MAX_LAYERS: usize = 16;

/// Default seed for the deterministic layer construction.
pub const FATPATHS_SEED: u64 = 0xFA7_9A75;

/// Default flowlet window (cycles): packets of one flow switch layers
/// at most once per window.
pub const FATPATHS_FLOWLET_CYCLES: u32 = 64;

struct Layer {
    graph: Graph,
    tables: RoutingTables,
}

/// The degraded-operation connectivity criterion for FatPaths layers:
/// every **live** router of the base graph (degree > 0 — a degraded
/// [`sf_topo::Network`] zeroes dead routers' cables and endpoints
/// together, so degree-0 routers host no traffic) must reach every
/// other live router in the candidate layer `t`. On an intact base
/// every router is live and this is the classic all-pairs check.
fn live_connected(base: &Graph, t: &RoutingTables) -> bool {
    let mut live = (0..base.num_vertices() as u32).filter(|&v| base.degree(v) > 0);
    match live.next() {
        None => true,
        Some(first) => live.all(|v| t.distance(first, v) != crate::tables::UNREACHABLE),
    }
}

/// FatPaths-style layered multipath routing (Besta et al. 2020, "High-
/// Performance Routing with Multipathing and Path Diversity").
///
/// The network's links are organized into `k` **layers**: layer 0 is
/// the full graph (pure minimal routing); each further layer is a
/// connected spanning subgraph built by deleting a *distinct* slice of
/// the (deterministically shuffled) edge list, so minimal paths in
/// different layers are steered over near-disjoint link sets — the
/// path-diversity mechanism of the FatPaths design. Every packet is
/// routed minimally *within one layer*, selected per **flowlet**: the
/// flow id and the current cycle window are hashed, so a flow's packets
/// stick to one layer for [`FATPATHS_FLOWLET_CYCLES`] cycles (limiting
/// reordering) while the flow population spreads across all layers.
///
/// Layer construction enforces connectivity and a per-layer diameter of
/// at most `base diameter + 2` (never more than
/// [`FATPATHS_MAX_LAYER_HOPS`]) by re-adding deleted edges when a
/// candidate subgraph degrades too far. Deadlock freedom rides on the
/// strictly increasing hop-index VC scheme exactly as Valiant detours
/// do — the CDG of hop-indexed channels over all layers' paths is
/// acyclic (validated by the `sf-verify` crate's
/// `ChannelDependencyGraph`). That argument needs
/// one VC per hop: like Valiant on deep topologies, simulating with
/// `num_vcs <` [`FatPathsRouter::max_path_hops`] clamps trailing hops
/// to the last VC and weakens the guarantee — on diameter-2 Slim Fly
/// graphs the `+2` cap keeps layer paths within the default 4-VC
/// budget; raise `num_vcs` on deeper base topologies.
pub struct FatPathsRouter {
    layers: Vec<Layer>,
    flowlet_cycles: u32,
}

impl std::fmt::Debug for FatPathsRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FatPathsRouter")
            .field("layers", &self.layers.len())
            .field(
                "layer_edges",
                &self
                    .layers
                    .iter()
                    .map(|l| l.graph.num_edges())
                    .collect::<Vec<_>>(),
            )
            .field("flowlet_cycles", &self.flowlet_cycles)
            .finish()
    }
}

impl FatPathsRouter {
    /// Builds `num_layers` routing layers over `graph`. `tables` must be
    /// the distance tables of `graph` (reused as layer 0).
    pub fn build(
        graph: &Graph,
        tables: &RoutingTables,
        num_layers: usize,
        seed: u64,
    ) -> Result<Self, RoutingError> {
        let invalid = |reason: String| RoutingError::InvalidParam {
            spec: format!("fatpaths:layers={num_layers}"),
            reason,
        };
        if num_layers == 0 {
            return Err(invalid("need at least one layer".into()));
        }
        if num_layers > FATPATHS_MAX_LAYERS {
            return Err(invalid(format!(
                "more than {FATPATHS_MAX_LAYERS} layers is never useful"
            )));
        }
        if tables.max_distance() as usize > FATPATHS_MAX_LAYER_HOPS {
            return Err(invalid(format!(
                "base graph diameter {} exceeds the {}-hop layer budget",
                tables.max_distance(),
                FATPATHS_MAX_LAYER_HOPS
            )));
        }
        if !live_connected(graph, tables) {
            return Err(invalid(
                "base graph's live routers are not connected (degraded \
                 networks must pass the partition check before routing)"
                    .into(),
            ));
        }
        // Degraded layers may detour at most 2 hops past the base
        // diameter: keeps VC pressure near the simulator's default
        // budget (see the deadlock note on the type).
        let hop_budget = (tables.max_distance() as usize + 2).min(FATPATHS_MAX_LAYER_HOPS);
        let mut layers = Vec::with_capacity(num_layers);
        layers.push(Layer {
            graph: graph.clone(),
            tables: tables.clone(),
        });

        // Deterministic shuffle of the edge list; each extra layer
        // deletes a distinct rotating slice (~1/3 of all edges), so the
        // layers' surviving link sets differ as much as possible.
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = graph.edge_list();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..i + 1));
        }
        let ne = edges.len();
        let slice = ne / 3;
        for l in 1..num_layers {
            // The loop only runs for num_layers >= 2.
            let start = (l - 1) * ne / (num_layers - 1);
            let mut removed: Vec<(u32, u32)> =
                (0..slice).map(|i| edges[(start + i) % ne]).collect();
            // Layer-repair fallback: halve the deletion set until the
            // layer connects every live router within the hop budget
            // (empty set = layer 0 topology, which is known good). On a
            // fault-degraded base this is the documented "layer died"
            // path — a layer whose slice would cut off live routers
            // sheds deletions until it survives, in the worst case
            // collapsing onto the degraded base graph itself, so every
            // layer remains a valid (if less diverse) routing function.
            let layer = loop {
                let g = graph.without_edges(&removed);
                let t = RoutingTables::new(&g);
                let connected = live_connected(graph, &t);
                if connected && (t.max_distance() as usize) <= hop_budget {
                    break Layer {
                        graph: g,
                        tables: t,
                    };
                }
                if removed.is_empty() {
                    unreachable!("empty deletion set equals the admissible base graph");
                }
                removed.truncate(removed.len() / 2);
            };
            layers.push(layer);
        }
        Ok(FatPathsRouter {
            layers,
            flowlet_cycles: FATPATHS_FLOWLET_CYCLES,
        })
    }

    /// Number of layers (including the full-graph layer 0).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Router graph of layer `l`.
    pub fn layer_graph(&self, l: usize) -> &Graph {
        &self.layers[l].graph
    }

    /// Distance tables of layer `l`.
    pub fn layer_tables(&self, l: usize) -> &RoutingTables {
        &self.layers[l].tables
    }

    /// Longest path (hops) any layer can produce.
    pub fn max_path_hops(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.tables.max_distance() as usize)
            .max()
            .unwrap_or(0)
    }

    /// The layer a `(flow, cycle)` pair is pinned to.
    pub fn layer_for(&self, flow: u64, now: u32) -> usize {
        // splitmix64 over (flow, flowlet window) — stable within a
        // window, uniform across layers between windows.
        let mut z = flow ^ ((now / self.flowlet_cycles) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.layers.len() as u64) as usize
    }
}

impl Router for FatPathsRouter {
    fn label(&self) -> String {
        format!("FatPaths-{}", self.layers.len())
    }

    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut StdRng) -> RouteDecision {
        let layer = &self.layers[self.layer_for(ctx.flow, ctx.now)];
        let gen = PathGen::new(&layer.graph, &layer.tables);
        RouteDecision::Path(gen.min_path(ctx.src, ctx.dst, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Graph::from_edges(n, &edges)
    }

    fn sf5() -> (Graph, RoutingTables) {
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        (g, t)
    }

    fn validate_path(g: &Graph, path: &[u32], s: u32, d: u32) {
        assert_eq!(*path.first().unwrap(), s);
        assert_eq!(*path.last().unwrap(), d);
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {}-{}", w[0], w[1]);
        }
    }

    #[test]
    fn min_router_routes_minimally() {
        let (g, t) = sf5();
        let mut rng = StdRng::seed_from_u64(1);
        for (s, d) in [(0u32, 1u32), (3, 40), (10, 49)] {
            let ctx = RouteCtx::offline(&g, &t, s, d);
            match MinRouter.route(&ctx, &mut rng) {
                RouteDecision::Path(p) => {
                    validate_path(&g, &p, s, d);
                    assert_eq!(p.len() as u8 - 1, t.distance(s, d));
                }
                RouteDecision::PerHop => panic!("MIN is source-routed"),
            }
        }
    }

    #[test]
    fn ugal_zero_candidates_is_typed_error() {
        let err = UgalRouter::new(0, false).unwrap_err();
        assert!(matches!(err, RoutingError::InvalidParam { .. }), "{err}");
        assert!(err.to_string().contains("c ≥ 1"));
        assert!(UgalRouter::new(4, true).is_ok());
    }

    /// A queue view that makes one specific link look congested.
    struct HotLink {
        r: u32,
        to: u32,
    }
    impl QueueView for HotLink {
        fn occupancy(&self, r: u32, to: u32) -> u32 {
            if r == self.r && to == self.to {
                1_000
            } else {
                0
            }
        }
    }

    #[test]
    fn ugal_local_avoids_hot_first_hop() {
        // Ring of 8: MIN from 0 to 2 goes 0→1→2; make 0→1 hot and
        // UGAL-L must find a detour whose first hop is not 1.
        let g = cycle(8);
        let t = RoutingTables::new(&g);
        let hot = HotLink { r: 0, to: 1 };
        let ctx = RouteCtx {
            graph: &g,
            tables: &t,
            queues: &hot,
            src: 0,
            dst: 2,
            flow: 0,
            now: 0,
        };
        let router = UgalRouter::new(8, false).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut avoided = 0;
        for _ in 0..20 {
            if let RouteDecision::Path(p) = router.route(&ctx, &mut rng) {
                validate_path(&g, &p, 0, 2);
                if p[1] != 1 {
                    avoided += 1;
                }
            }
        }
        assert!(avoided > 10, "UGAL-L avoided the hot link {avoided}/20");
    }

    #[test]
    fn adaptive_ecmp_takes_least_occupied_minimal_hop() {
        // Ring of 6, 0 → 3: both directions minimal; congest 0→1.
        let g = cycle(6);
        let t = RoutingTables::new(&g);
        let hot = HotLink { r: 0, to: 1 };
        let ctx = RouteCtx {
            graph: &g,
            tables: &t,
            queues: &hot,
            src: 0,
            dst: 3,
            flow: 0,
            now: 0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            AdaptiveEcmpRouter.route(&ctx, &mut rng),
            RouteDecision::PerHop
        ));
        assert_eq!(AdaptiveEcmpRouter.next_hop(&ctx, 0, &mut rng), 5);
    }

    #[test]
    fn fatpaths_layers_connected_and_bounded() {
        let (g, t) = sf5();
        let fp = FatPathsRouter::build(&g, &t, 3, FATPATHS_SEED).unwrap();
        assert_eq!(fp.num_layers(), 3);
        assert!(fp.max_path_hops() <= FATPATHS_MAX_LAYER_HOPS);
        for l in 0..fp.num_layers() {
            let lt = fp.layer_tables(l);
            for v in 0..g.num_vertices() as u32 {
                assert_ne!(lt.distance(0, v), crate::tables::UNREACHABLE, "layer {l}");
            }
        }
        // Layer 0 is the untouched base graph.
        assert_eq!(fp.layer_graph(0).num_edges(), g.num_edges());
        // Extra layers actually shed edges (path diversity exists).
        assert!(fp.layer_graph(1).num_edges() < g.num_edges());
        assert!(fp.layer_graph(2).num_edges() < g.num_edges());
    }

    #[test]
    fn fatpaths_layers_are_distinct_and_deterministic() {
        let (g, t) = sf5();
        let a = FatPathsRouter::build(&g, &t, 4, FATPATHS_SEED).unwrap();
        let b = FatPathsRouter::build(&g, &t, 4, FATPATHS_SEED).unwrap();
        for l in 0..4 {
            assert_eq!(
                a.layer_graph(l).edge_list(),
                b.layer_graph(l).edge_list(),
                "construction must be deterministic"
            );
        }
        // Different layers delete different slices.
        assert_ne!(a.layer_graph(1).edge_list(), a.layer_graph(2).edge_list());
    }

    #[test]
    fn fatpaths_routes_are_valid_and_spread_over_layers() {
        let (g, t) = sf5();
        let fp = FatPathsRouter::build(&g, &t, 3, FATPATHS_SEED).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut layers_seen = std::collections::BTreeSet::new();
        for flow in 0..40u64 {
            layers_seen.insert(fp.layer_for(flow, 0));
            let ctx = RouteCtx {
                graph: &g,
                tables: &t,
                queues: &NoQueues,
                src: (flow % 50) as u32,
                dst: ((flow * 7 + 13) % 50) as u32,
                flow,
                now: 0,
            };
            if ctx.src == ctx.dst {
                continue;
            }
            match fp.route(&ctx, &mut rng) {
                RouteDecision::Path(p) => {
                    validate_path(&g, &p, ctx.src, ctx.dst);
                    assert!(p.len() - 1 <= FATPATHS_MAX_LAYER_HOPS);
                }
                RouteDecision::PerHop => panic!("FatPaths is source-routed"),
            }
        }
        assert_eq!(layers_seen.len(), 3, "flows must spread over all layers");
    }

    #[test]
    fn fatpaths_flowlets_are_sticky_within_a_window() {
        let (g, t) = sf5();
        let fp = FatPathsRouter::build(&g, &t, 3, FATPATHS_SEED).unwrap();
        for flow in 0..10u64 {
            let l0 = fp.layer_for(flow, 0);
            for now in 0..FATPATHS_FLOWLET_CYCLES {
                assert_eq!(fp.layer_for(flow, now), l0, "stable within a window");
            }
        }
        // Across many windows a flow visits more than one layer.
        let visited: std::collections::BTreeSet<usize> = (0..32u32)
            .map(|w| fp.layer_for(42, w * FATPATHS_FLOWLET_CYCLES))
            .collect();
        assert!(visited.len() > 1, "flows re-balance between windows");
    }

    #[test]
    fn fatpaths_invalid_shapes_are_typed_errors() {
        let (g, t) = sf5();
        assert!(matches!(
            FatPathsRouter::build(&g, &t, 0, 1).unwrap_err(),
            RoutingError::InvalidParam { .. }
        ));
        assert!(matches!(
            FatPathsRouter::build(&g, &t, 17, 1).unwrap_err(),
            RoutingError::InvalidParam { .. }
        ));
        // A path graph longer than the hop budget cannot host layers.
        let long = Graph::from_edges(16, &(0..15u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let lt = RoutingTables::new(&long);
        assert!(FatPathsRouter::build(&long, &lt, 2, 1).is_err());
    }

    #[test]
    fn fatpaths_builds_on_router_killed_degraded_graph() {
        // Kill router 0 of SF(q=5): all its incident edges go away and it
        // becomes an isolated (dead) vertex. FatPaths must still build,
        // connecting every *live* router in every layer — the classic
        // vertex-0-anchored check would reject this graph outright.
        let (g, _) = sf5();
        let dead: Vec<(u32, u32)> = g.neighbors(0).iter().map(|&v| (0, v)).collect();
        let dg = g.without_edges(&dead);
        assert_eq!(dg.degree(0), 0);
        let dt = RoutingTables::new(&dg);
        let fp = FatPathsRouter::build(&dg, &dt, 3, FATPATHS_SEED).unwrap();
        for l in 0..fp.num_layers() {
            let lt = fp.layer_tables(l);
            for v in 2..dg.num_vertices() as u32 {
                assert_ne!(lt.distance(1, v), crate::tables::UNREACHABLE, "layer {l}");
            }
        }
        // Routes between live routers stay valid on the degraded graph.
        let mut rng = StdRng::seed_from_u64(5);
        let ctx = RouteCtx::offline(&dg, &dt, 1, 40);
        match fp.route(&ctx, &mut rng) {
            RouteDecision::Path(p) => validate_path(&dg, &p, 1, 40),
            RouteDecision::PerHop => panic!("FatPaths is source-routed"),
        }
        // A base whose *live* routers are partitioned is a typed error:
        // two disjoint live edges plus isolated vertices.
        let split = Graph::from_edges(6, &[(0, 1), (2, 3)]);
        let st = RoutingTables::new(&split);
        let err = FatPathsRouter::build(&split, &st, 2, 1).unwrap_err();
        assert!(err.to_string().contains("live routers"), "{err}");
    }
}
