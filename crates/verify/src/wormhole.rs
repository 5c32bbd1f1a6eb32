//! Wormhole-aware channel-dependency construction matching the engine.
//!
//! The PR 5 engine moves packets under wormhole switching: at a switch
//! the *head* flit claims its outgoing `(link, VC)` (the engine's
//! `in_route` slot routing and `out_owner` ownership map), body flits
//! inherit it, and the tail releases it — so a packet simultaneously
//! holds a *chain* of `(link, VC)` channels spanning several hops. A
//! head blocked waiting for channel `c_{i+1}` therefore keeps every
//! held `c_{i-k} … c_i` occupied: the real dependency relation
//! contains span edges `c_{i-k} → c_{i+1}` for every held prefix.
//!
//! Those span edges are *transitive* edges of the consecutive chain
//! `c_{i-k} → c_{i-k+1} → … → c_{i+1}`, and a directed graph has a
//! cycle iff its transitive closure does — so building only the
//! consecutive-channel edges (Dally & Seitz) decides wormhole deadlock
//! freedom exactly, for every `packet_size ≥ 1`. What *does* change
//! the edge set is the engine's VC allocation, mirrored here through
//! the engine's own exported helpers ([`sf_sim::vc_base_slack`],
//! [`sf_sim::hop_vc`], [`sf_sim::ADAPTIVE_HOP_BUDGET`]):
//!
//! * an `h`-hop packet draws `vc_base` uniformly from
//!   `0..=vc_base_slack(num_vcs, h)` at injection (adaptive per-hop
//!   packets declare `h = min(distance, ADAPTIVE_HOP_BUDGET)`);
//! * hop `i` travels on `hop_vc(num_vcs, vc_base, i)` =
//!   `min(vc_base + i, num_vcs − 1)` — the **clamp** at the top VC is
//!   what can break the monotone hop-index argument when realizable
//!   paths are longer than the VC budget.
//!
//! The builder enumerates, per scheme, every channel-and-VC pair the
//! engine can realize: the full minimal-path DAG per ordered pair for
//! MIN/ECMP, both Valiant legs plus the junction turn for VAL/UGAL
//! (over-approximated per intermediate router — a superset of the
//! realizable dependencies, so acyclicity verdicts stay sound), and
//! per-layer minimal DAGs for FatPaths. Valiant junction turns are the
//! interesting case: a detour `s → … → x → m → x → … → d` legally
//! reverses a link at its intermediate, which is exactly what makes an
//! under-budgeted VC config cyclic.
//!
//! The enumeration does no work twice. Channels resolve through a flat
//! table indexed by (CSR link id, VC) rather than the
//! [`ChannelDependencyGraph`]'s `BTreeMap`, and ids stay first-seen, so
//! the graph is the same id for id. `vc_base_slack` falls as hops
//! grow, so the shortest partner leg gives a Valiant leg 1 or junction
//! turn the widest VC-base range; both sit at hop offsets that do not
//! depend on the partner, so each is enumerated once, at that range,
//! which contains every longer partner's edges. Leg 2 starts at the
//! partner's length and is enumerated per partner. A distance-2 pair's
//! DAG interior is looked up among the source's neighbours instead of
//! every router.

use crate::cdg::ChannelDependencyGraph;
use sf_graph::Graph;
use sf_routing::tables::UNREACHABLE;
use sf_routing::{FatPathsRouter, RoutingError, RoutingSpec, RoutingTables};
use sf_sim::{hop_vc, vc_base_slack, ADAPTIVE_HOP_BUDGET};

// FatPaths layer sets are rebuilt deterministically from the same
// seed the simulator uses.
use sf_routing::router::FATPATHS_SEED;

/// A wormhole-aware CDG plus the facts needed for certification.
pub struct WormholeCdg {
    /// The dependency graph over `(from, to, vc)` channels.
    pub cdg: ChannelDependencyGraph,
    /// Scheme hop bound: no realizable path exceeds this many hops.
    pub max_hops: usize,
    /// Whether some realizable (base, hop) pair clamps at the top VC —
    /// i.e. whether the monotone strictly-increasing-VC argument was
    /// unavailable and acyclicity had to be checked explicitly.
    pub clamped: bool,
}

/// Builds the wormhole-aware CDG of one (topology, routing, VC budget)
/// combination, enumerating every `(link, VC)` dependency the engine's
/// allocation can realize. `num_vcs` must be ≥ 1 (the plan layer
/// validates this before expansion).
pub fn wormhole_cdg(
    g: &Graph,
    tables: &RoutingTables,
    spec: &RoutingSpec,
    num_vcs: usize,
) -> Result<WormholeCdg, RoutingError> {
    assert!(num_vcs >= 1, "the engine needs at least one VC");
    let diam = tables.max_distance() as usize;
    let mut b = Builder::new(g, num_vcs);
    let (max_hops, clamped) = match spec {
        RoutingSpec::Min => {
            let c = add_min_family(&mut b, g, tables, None);
            (diam, c)
        }
        RoutingSpec::Ecmp => {
            // Per-hop adaptive ECMP always walks a minimal path, but
            // declares at most ADAPTIVE_HOP_BUDGET hops for VC-base
            // slack purposes (engine injection).
            let cap = ADAPTIVE_HOP_BUDGET as usize;
            let c = add_min_family(&mut b, g, tables, Some(cap));
            (diam, c)
        }
        RoutingSpec::Valiant { cap3 } => {
            let cap = if *cap3 { Some(3) } else { None };
            let mut c = add_valiant_family(&mut b, g, tables, cap);
            let bound = if *cap3 {
                // cap3 redraws intermediates until the detour fits in 3
                // hops and falls back to a plain minimal path after 64
                // attempts — minimal paths are realizable too.
                c |= add_min_family(&mut b, g, tables, None);
                3.max(diam)
            } else {
                2 * diam
            };
            (bound, c)
        }
        RoutingSpec::UgalL { .. } | RoutingSpec::UgalG { .. } => {
            // UGAL picks per packet between the minimal path and a
            // Valiant candidate: both families are realizable.
            let mut c = add_min_family(&mut b, g, tables, None);
            c |= add_valiant_family(&mut b, g, tables, None);
            (2 * diam, c)
        }
        RoutingSpec::FatPaths { layers } => {
            let fp = FatPathsRouter::build(g, tables, *layers, FATPATHS_SEED)?;
            let mut c = false;
            for l in 0..fp.num_layers() {
                c |= add_min_family(&mut b, fp.layer_graph(l), fp.layer_tables(l), None);
            }
            (fp.max_path_hops(), c)
        }
    };
    Ok(WormholeCdg {
        cdg: b.cdg,
        max_hops,
        clamped,
    })
}

/// The scheme's static hop bound without building anything: the
/// longest path the engine can realize for `spec` on a network of the
/// given diameter. Used for totality certificates and the monotone
/// (no-clamp ⇒ strictly increasing VCs ⇒ acyclic) fast path.
pub fn scheme_hop_bound(spec: &RoutingSpec, diameter: usize) -> Option<usize> {
    match spec {
        RoutingSpec::Min | RoutingSpec::Ecmp => Some(diameter),
        RoutingSpec::Valiant { cap3: true } => Some(3.max(diameter)),
        RoutingSpec::Valiant { cap3: false } => Some(2 * diameter),
        RoutingSpec::UgalL { .. } | RoutingSpec::UgalG { .. } => Some(2 * diameter),
        // FatPaths layer subgraphs stretch paths beyond the base
        // diameter; the bound needs the built layer set.
        RoutingSpec::FatPaths { .. } => None,
    }
}

/// A CDG under construction. Channel `(u → v, vc)` resolves through
/// slot `link · num_vcs + vc` of a flat table, where `link` is the CSR
/// id of `u → v` in the base router graph: `u`'s row offset plus `v`'s
/// rank among `u`'s sorted neighbours. FatPaths layers are subgraphs
/// of the base graph, so their links index the same table. Ids are
/// handed out in first-seen order, as the public map-keyed builders
/// of [`ChannelDependencyGraph`] hand them out.
struct Builder<'g> {
    cdg: ChannelDependencyGraph,
    base: &'g Graph,
    /// CSR row offsets of `base`.
    row: Vec<usize>,
    num_vcs: usize,
    /// Channel id per `(link, vc)` slot; `u32::MAX` until first seen.
    slot: Vec<u32>,
}

impl<'g> Builder<'g> {
    fn new(base: &'g Graph, num_vcs: usize) -> Self {
        let mut row = Vec::with_capacity(base.num_vertices());
        let mut links = 0;
        for v in 0..base.num_vertices() as u32 {
            row.push(links);
            links += base.degree(v);
        }
        Builder {
            cdg: ChannelDependencyGraph::new(),
            base,
            row,
            num_vcs,
            slot: vec![u32::MAX; links * num_vcs],
        }
    }

    /// CSR id of the directed link `u → v` of the base graph.
    fn link(&self, u: u32, v: u32) -> usize {
        let rank = self.base.neighbors(u).binary_search(&v);
        self.row[u as usize] + rank.expect("routes only use links of the base graph")
    }

    /// Id of channel `(u → v, vc)`, where `link` is the id of `u → v`;
    /// allocated on first use.
    fn channel(&mut self, link: usize, (u, v): (u32, u32), vc: usize) -> u32 {
        let slot = &mut self.slot[link * self.num_vcs + vc];
        if *slot == u32::MAX {
            *slot = self.cdg.push_channel((u, v, vc as u8));
        }
        *slot
    }

    /// Adds the turn `u → v → w` at hop `hop` of a path (channel `u → v`
    /// at hop `hop − 1`, `v → w` at hop `hop`) for every VC base in
    /// `0..=max_base`. `links` are the ids of `u → v` and `v → w`.
    fn add_turn(
        &mut self,
        (u, v, w): (u32, u32, u32),
        links: (usize, usize),
        hop: usize,
        max_base: usize,
    ) {
        for b in 0..=max_base {
            let b = b as u8;
            let p = self.channel(links.0, (u, v), hop_vc(self.num_vcs, b, hop - 1));
            let c = self.channel(links.1, (v, w), hop_vc(self.num_vcs, b, hop));
            self.cdg.insert_succ(p, c);
        }
    }
}

/// The largest VC base the engine draws for a packet declaring
/// `declared` hops, and whether a `hops`-hop path from that base clamps
/// at the top VC (`num_vcs − 1`).
fn vc_bases(num_vcs: usize, declared: usize, hops: usize) -> (usize, bool) {
    let max_base = vc_base_slack(num_vcs, declared);
    (max_base, max_base + hops - 1 > num_vcs - 1)
}

/// The VC-base range a Valiant leg of `leg` hops needs over every
/// partner leg length in `partners` (ascending) that keeps the detour
/// within `cap`, and whether any of those detours clamps; `None` when
/// no partner fits. The range is the shortest partner's:
/// `vc_base_slack` falls as hops grow, so every longer partner's bases,
/// and with them its dependencies, are a subset of it.
fn widest_bases(
    num_vcs: usize,
    leg: usize,
    partners: &[usize],
    cap: usize,
) -> Option<(usize, bool)> {
    let mut hops = partners.iter().map(|&p| leg + p).filter(|&h| h <= cap);
    let shortest = hops.next()?;
    let (max_base, clamped) = vc_bases(num_vcs, shortest, shortest);
    Some((max_base, clamped || hops.any(|h| vc_bases(num_vcs, h, h).1)))
}

/// Adds the consecutive-channel dependencies of **every** minimal path
/// of every ordered pair, for every VC base the engine may draw.
/// `declared_cap` models adaptive injection (`Ecmp`): the VC-base
/// slack is computed from `min(distance, cap)` even though the walk
/// itself runs the full distance. Returns whether any realizable
/// (base, hop) pair clamps at `num_vcs − 1`.
fn add_min_family(
    b: &mut Builder,
    g: &Graph,
    t: &RoutingTables,
    declared_cap: Option<usize>,
) -> bool {
    let n = t.num_routers() as u32;
    let mut clamped = false;
    for s in 0..n {
        for d in 0..n {
            let dist = t.distance(s, d);
            if d == s || dist == UNREACHABLE || dist < 2 {
                // Unreachable pairs are reported by the totality check;
                // single-hop paths have no consecutive channels.
                continue;
            }
            let dd = dist as usize;
            let declared = declared_cap.map_or(dd, |c| dd.min(c));
            let (max_base, c) = vc_bases(b.num_vcs, declared, dd);
            clamped |= c;
            add_min_dag_pairs(b, g, t, s, d, max_base, 0);
        }
    }
    clamped
}

/// Adds the dependencies of every Valiant detour `s → m → d`
/// (`m ∉ {s, d}`): both minimal legs at their hop offsets plus the
/// junction turn at `m`. Enumerated per intermediate router with the
/// leg lengths factored into distinct distance values, which
/// over-approximates slightly (a superset of realizable dependencies —
/// sound for acyclicity certification). `leg_cap` restricts detours to
/// `d1 + d2 ≤ cap` (the `val:cap3` ablation). Leg 1 and the junction
/// are enumerated once, at [`widest_bases`]; leg 2 starts at the
/// partner's length, so it is enumerated per partner.
fn add_valiant_family(
    b: &mut Builder,
    g: &Graph,
    t: &RoutingTables,
    leg_cap: Option<usize>,
) -> bool {
    let n = t.num_routers() as u32;
    if n <= 2 {
        // The path generator falls back to minimal paths when there is
        // no eligible intermediate.
        return add_min_family(b, g, t, None);
    }
    let num_vcs = b.num_vcs;
    let mut clamped = false;
    let cap = leg_cap.unwrap_or(usize::MAX);
    for m in 0..n {
        let rm = t.row(m);
        // Distinct leg lengths into/out of m (the graph is undirected,
        // so the incoming and outgoing length sets coincide).
        let mut lens: Vec<usize> = Vec::new();
        for x in 0..n {
            let d = rm[x as usize];
            if x != m && d != UNREACHABLE && !lens.contains(&(d as usize)) {
                lens.push(d as usize);
            }
        }
        lens.sort_unstable();
        // Leg 1: minimal DAG of (s, m) at offset 0.
        for s in 0..n {
            let d1 = rm[s as usize] as usize;
            if s == m || rm[s as usize] == UNREACHABLE || d1 < 2 {
                continue;
            }
            if let Some((max_base, c)) = widest_bases(num_vcs, d1, &lens, cap) {
                clamped |= c;
                add_min_dag_pairs(b, g, t, s, m, max_base, 0);
            }
        }
        // Leg 2: minimal DAG of (m, d) at offset d1.
        for d in 0..n {
            let d2 = rm[d as usize] as usize;
            if d == m || rm[d as usize] == UNREACHABLE || d2 < 2 {
                continue;
            }
            for &d1 in lens.iter().filter(|&&d1| d1 + d2 <= cap) {
                let (max_base, c) = vc_bases(num_vcs, d1 + d2, d1 + d2);
                clamped |= c;
                add_min_dag_pairs(b, g, t, m, d, max_base, d1);
            }
        }
        // Junction turn at m: the last channel of any leg 1 (x → m at
        // hop d1 − 1) feeds the first channel of any leg 2 (m → y at
        // hop d1). Includes the link-reversal x → m → x, which is a
        // legal Valiant detour and the canonical deadlock seed.
        for &d1 in &lens {
            let Some((max_base, c)) = widest_bases(num_vcs, d1, &lens, cap) else {
                continue;
            };
            clamped |= c;
            for &x in g.neighbors(m) {
                let into = b.link(x, m);
                for &y in g.neighbors(m) {
                    let out = b.link(m, y);
                    b.add_turn((x, m, y), (into, out), d1, max_base);
                }
            }
        }
    }
    clamped
}

/// Adds the consecutive-channel pairs of the minimal DAG of one
/// ordered pair `(s, d)` at distance ≥ 2, placed at hop `offset` of a
/// path whose VC base ranges over `0..=max_base`. Each interior vertex
/// `v` at hop layer `i` pairs every DAG predecessor `u` with every DAG
/// successor `w` (channels `u→v` at hop `offset + i − 1` and `v→w` at
/// hop `offset + i`), scanning `v`'s neighbours in place.
fn add_min_dag_pairs(
    b: &mut Builder,
    g: &Graph,
    t: &RoutingTables,
    s: u32,
    d: u32,
    max_base: usize,
    offset: usize,
) {
    let rs = t.row(s);
    let rd = t.row(d);
    let dist = rs[d as usize] as u16;
    debug_assert!(rs[d as usize] != UNREACHABLE && dist >= 2);
    // Whether x lies on a minimal s → d path at hop layer `layer`.
    let on_dag = |x: u32, layer: u16| {
        rs[x as usize] as u16 == layer
            && rd[x as usize] != UNREACHABLE
            && layer + rd[x as usize] as u16 == dist
    };
    // The interior of a distance-2 DAG lies among the neighbours of
    // `s`; both candidate lists are ascending, so the visiting order is
    // the same.
    let (scan, nbrs) = if dist == 2 {
        (0..0, g.neighbors(s))
    } else {
        (0..t.num_routers() as u32, &[][..])
    };
    for v in scan.chain(nbrs.iter().copied()) {
        let i = rs[v as usize] as u16;
        if i == 0 || i >= dist || !on_dag(v, i) {
            continue;
        }
        let hop = offset + i as usize;
        for &u in g.neighbors(v).iter().filter(|&&u| on_dag(u, i - 1)) {
            let into = b.link(u, v);
            for &w in g.neighbors(v).iter().filter(|&&w| on_dag(w, i + 1)) {
                let out = b.link(v, w);
                b.add_turn((u, v, w), (into, out), hop, max_base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::render_witness;

    fn ring(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n as usize, &edges)
    }

    #[test]
    fn min_on_ring_needs_more_than_one_vc() {
        let g = ring(8);
        let t = RoutingTables::new(&g);
        let one = wormhole_cdg(&g, &t, &RoutingSpec::Min, 1).unwrap();
        assert!(one.clamped, "4-hop paths on 1 VC must clamp");
        let w = one.cdg.find_cycle().expect("ring minimal routing on 1 VC");
        assert_eq!(w.first(), w.last());
        // With one VC per hop (diameter 4) the clamp disappears and the
        // CDG is acyclic — the monotone certificate made explicit.
        let four = wormhole_cdg(&g, &t, &RoutingSpec::Min, 4).unwrap();
        assert!(!four.clamped);
        assert!(four.cdg.is_acyclic());
        assert_eq!(four.max_hops, 4);
    }

    #[test]
    fn valiant_junction_reversal_is_modeled() {
        // P3: 0 – 1 – 2. Valiant detours reverse links at the
        // intermediate; with one VC that is a two-channel cycle.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = RoutingTables::new(&g);
        let one = wormhole_cdg(&g, &t, &RoutingSpec::Valiant { cap3: false }, 1).unwrap();
        assert!(!one.cdg.is_acyclic(), "valiant on 1 VC deadlocks");
        // 4 VCs cover the 2·diameter = 4 hop bound: acyclic.
        let four = wormhole_cdg(&g, &t, &RoutingSpec::Valiant { cap3: false }, 4).unwrap();
        assert!(four.cdg.is_acyclic());
    }

    #[test]
    fn slimfly_default_budget_is_acyclic_for_all_schemes() {
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        for spec in [
            RoutingSpec::Min,
            RoutingSpec::Ecmp,
            RoutingSpec::Valiant { cap3: false },
            RoutingSpec::Valiant { cap3: true },
            RoutingSpec::UgalL { candidates: 4 },
            RoutingSpec::UgalG { candidates: 4 },
            RoutingSpec::FatPaths { layers: 3 },
        ] {
            let w = wormhole_cdg(&g, &t, &spec, 4).unwrap();
            assert!(
                w.cdg.is_acyclic(),
                "{spec:?} on SF(q=5) with 4 VCs must be deadlock-free"
            );
            assert!(w.cdg.num_channels() > 0);
        }
    }

    #[test]
    fn hop_bounds_match_families() {
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        let diam = t.max_distance() as usize;
        assert_eq!(scheme_hop_bound(&RoutingSpec::Min, diam), Some(2));
        assert_eq!(
            scheme_hop_bound(&RoutingSpec::Valiant { cap3: false }, diam),
            Some(4)
        );
        assert_eq!(
            scheme_hop_bound(&RoutingSpec::Valiant { cap3: true }, diam),
            Some(3)
        );
        assert_eq!(
            scheme_hop_bound(&RoutingSpec::FatPaths { layers: 3 }, diam),
            None
        );
        let fp = wormhole_cdg(&g, &t, &RoutingSpec::FatPaths { layers: 3 }, 4).unwrap();
        assert!(fp.max_hops >= 2);
    }

    /// `(channels, edges)` of the wormhole CDG for every family: the
    /// minimal DAG enumerator they share must keep the edge set.
    #[test]
    fn cdg_sizes_are_pinned() {
        let size = |g: &Graph, spec: RoutingSpec, vcs: usize| {
            let w = wormhole_cdg(g, &RoutingTables::new(g), &spec, vcs).unwrap();
            (w.cdg.num_channels(), w.cdg.num_edges())
        };
        let sf = sf_topo::SlimFly::new(5).unwrap().router_graph();
        for (spec, edges) in [
            (RoutingSpec::Min, 6300),
            (RoutingSpec::Valiant { cap3: false }, 7350),
            (RoutingSpec::UgalL { candidates: 4 }, 7350),
            (RoutingSpec::Ecmp, 6300),
            (RoutingSpec::FatPaths { layers: 2 }, 6300),
        ] {
            assert_eq!(size(&sf, spec, 4), (1400, edges), "{spec:?}");
        }
        let df = sf_topo::dragonfly::Dragonfly::balanced(2).router_graph();
        assert_eq!(size(&df, RoutingSpec::Min, 3), (540, 1008));
        let hc = sf_topo::hypercube::Hypercube::new(6).router_graph();
        assert_eq!(size(&hc, RoutingSpec::Min, 7), (2688, 11520));
    }

    /// FNV-1a over every channel triple in id order, then every
    /// successor list: equal hashes mean the same first-seen ids and
    /// the same sorted edges.
    fn cdg_hash(cdg: &ChannelDependencyGraph) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u32| {
            for byte in x.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let n = cdg.num_channels() as u32;
        for id in 0..n {
            let (from, to, vc) = cdg.channel(id);
            eat(from);
            eat(to);
            eat(vc as u32);
        }
        for id in 0..n {
            let succ = cdg.successors(id);
            eat(succ.len() as u32);
            succ.iter().for_each(|&c| eat(c));
        }
        h
    }

    /// The CDG bit for bit — sizes, `clamped`, `max_hops`, a hash of
    /// the channel list and successor lists, and the rendered cycle
    /// witness — over six graphs × six routings × 1–4 VCs. The pins
    /// live in `tests/golden/cdg_pins.txt`, one line per cell; a
    /// mismatch prints the whole rendered table.
    #[test]
    fn cdg_bits_are_pinned() {
        let graphs: [(&str, Graph); 6] = [
            ("sf:q=5", sf_topo::SlimFly::new(5).unwrap().router_graph()),
            (
                "df:p=2",
                sf_topo::dragonfly::Dragonfly::balanced(2).router_graph(),
            ),
            (
                "ft3:p=4",
                sf_topo::fattree::FatTree3 { p: 4, full: false }.router_graph(),
            ),
            (
                "torus2:k=4",
                sf_topo::torus::Torus::new(vec![4, 4]).router_graph(),
            ),
            (
                "hc:d=4",
                sf_topo::hypercube::Hypercube::new(4).router_graph(),
            ),
            (
                "dln:nr=32,y=3",
                sf_topo::random_dln::RandomDln::new(32, 3, 0x5F1A_2014).router_graph(),
            ),
        ];
        let routings = [
            RoutingSpec::Min,
            RoutingSpec::Valiant { cap3: false },
            RoutingSpec::Valiant { cap3: true },
            RoutingSpec::UgalL { candidates: 4 },
            RoutingSpec::Ecmp,
            RoutingSpec::FatPaths { layers: 2 },
        ];
        let mut rendered = String::new();
        for (name, g) in &graphs {
            let t = RoutingTables::new(g);
            for spec in &routings {
                for vcs in 1..=4 {
                    let cell = match wormhole_cdg(g, &t, spec, vcs) {
                        Ok(w) => format!(
                            "{} ch, {} edges, clamped={}, hops={}, fnv={:016x}, {}",
                            w.cdg.num_channels(),
                            w.cdg.num_edges(),
                            w.clamped,
                            w.max_hops,
                            cdg_hash(&w.cdg),
                            w.cdg
                                .find_cycle()
                                .map_or("acyclic".into(), |c| render_witness(&c))
                        ),
                        Err(e) => format!("error: {e}"),
                    };
                    rendered += &format!("{name} {} vcs={vcs}: {cell}\n", spec.label());
                }
            }
        }
        let pinned = include_str!("../tests/golden/cdg_pins.txt");
        assert!(
            rendered == pinned,
            "CDG pins moved; the rendered table is:\n{rendered}"
        );
    }
}
