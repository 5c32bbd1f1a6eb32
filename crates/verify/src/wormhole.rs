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
    let mut cdg = ChannelDependencyGraph::new();
    let (max_hops, clamped) = match spec {
        RoutingSpec::Min => {
            let c = add_min_family(&mut cdg, g, tables, num_vcs, None);
            (diam, c)
        }
        RoutingSpec::Ecmp => {
            // Per-hop adaptive ECMP always walks a minimal path, but
            // declares at most ADAPTIVE_HOP_BUDGET hops for VC-base
            // slack purposes (engine injection).
            let cap = ADAPTIVE_HOP_BUDGET as usize;
            let c = add_min_family(&mut cdg, g, tables, num_vcs, Some(cap));
            (diam, c)
        }
        RoutingSpec::Valiant { cap3 } => {
            let cap = if *cap3 { Some(3) } else { None };
            let mut c = add_valiant_family(&mut cdg, g, tables, num_vcs, cap);
            let bound = if *cap3 {
                // cap3 redraws intermediates until the detour fits in 3
                // hops and falls back to a plain minimal path after 64
                // attempts — minimal paths are realizable too.
                c |= add_min_family(&mut cdg, g, tables, num_vcs, None);
                3.max(diam)
            } else {
                2 * diam
            };
            (bound, c)
        }
        RoutingSpec::UgalL { .. } | RoutingSpec::UgalG { .. } => {
            // UGAL picks per packet between the minimal path and a
            // Valiant candidate: both families are realizable.
            let mut c = add_min_family(&mut cdg, g, tables, num_vcs, None);
            c |= add_valiant_family(&mut cdg, g, tables, num_vcs, None);
            (2 * diam, c)
        }
        RoutingSpec::FatPaths { layers } => {
            let fp = FatPathsRouter::build(g, tables, *layers, FATPATHS_SEED)?;
            let mut c = false;
            for l in 0..fp.num_layers() {
                c |= add_min_family(
                    &mut cdg,
                    fp.layer_graph(l),
                    fp.layer_tables(l),
                    num_vcs,
                    None,
                );
            }
            (fp.max_path_hops(), c)
        }
    };
    Ok(WormholeCdg {
        cdg,
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

/// The largest VC base the engine draws for a packet declaring
/// `declared` hops, and whether a `hops`-hop path from that base clamps
/// at the top VC (`num_vcs − 1`).
fn vc_bases(num_vcs: usize, declared: usize, hops: usize) -> (usize, bool) {
    let max_base = vc_base_slack(num_vcs, declared);
    (max_base, max_base + hops - 1 > num_vcs - 1)
}

/// Adds the consecutive-channel dependencies of **every** minimal path
/// of every ordered pair, for every VC base the engine may draw.
/// `declared_cap` models adaptive injection (`Ecmp`): the VC-base
/// slack is computed from `min(distance, cap)` even though the walk
/// itself runs the full distance. Returns whether any realizable
/// (base, hop) pair clamps at `num_vcs − 1`.
fn add_min_family(
    cdg: &mut ChannelDependencyGraph,
    g: &Graph,
    t: &RoutingTables,
    num_vcs: usize,
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
            let (max_base, c) = vc_bases(num_vcs, declared, dd);
            clamped |= c;
            add_min_dag_pairs(cdg, g, t, s, d, num_vcs, max_base, 0);
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
/// `d1 + d2 ≤ cap` (the `val:cap3` ablation).
fn add_valiant_family(
    cdg: &mut ChannelDependencyGraph,
    g: &Graph,
    t: &RoutingTables,
    num_vcs: usize,
    leg_cap: Option<usize>,
) -> bool {
    let n = t.num_routers() as u32;
    if n <= 2 {
        // The path generator falls back to minimal paths when there is
        // no eligible intermediate.
        return add_min_family(cdg, g, t, num_vcs, None);
    }
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
        // Leg 1: minimal DAG of (s, m) at offset 0, for every
        // realizable total length d1 + d2.
        for s in 0..n {
            let d1 = rm[s as usize] as usize;
            if s == m || rm[s as usize] == UNREACHABLE || d1 < 2 {
                continue;
            }
            for &d2 in lens.iter().filter(|&&d2| d1 + d2 <= cap) {
                let (max_base, c) = vc_bases(num_vcs, d1 + d2, d1 + d2);
                clamped |= c;
                add_min_dag_pairs(cdg, g, t, s, m, num_vcs, max_base, 0);
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
                add_min_dag_pairs(cdg, g, t, m, d, num_vcs, max_base, d1);
            }
        }
        // Junction turn at m: the last channel of any leg 1 (x → m at
        // hop d1 − 1) feeds the first channel of any leg 2 (m → y at
        // hop d1). Includes the link-reversal x → m → x, which is a
        // legal Valiant detour and the canonical deadlock seed.
        for &d1 in &lens {
            for &d2 in lens.iter().filter(|&&d2| d1 + d2 <= cap) {
                let (max_base, c) = vc_bases(num_vcs, d1 + d2, d1 + d2);
                clamped |= c;
                for &x in g.neighbors(m) {
                    for &y in g.neighbors(m) {
                        for b in 0..=max_base {
                            let b = b as u8;
                            cdg.add_edge(
                                (x, m, hop_vc(num_vcs, b, d1 - 1) as u8),
                                (m, y, hop_vc(num_vcs, b, d1) as u8),
                            );
                        }
                    }
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
#[expect(
    clippy::too_many_arguments,
    reason = "the pair and its hop placement vary per call; the rest is shared CDG state"
)]
fn add_min_dag_pairs(
    cdg: &mut ChannelDependencyGraph,
    g: &Graph,
    t: &RoutingTables,
    s: u32,
    d: u32,
    num_vcs: usize,
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
    for v in 0..t.num_routers() as u32 {
        let i = rs[v as usize] as u16;
        if i == 0 || i >= dist || !on_dag(v, i) {
            continue;
        }
        let hop = offset + i as usize;
        for &u in g.neighbors(v).iter().filter(|&&u| on_dag(u, i - 1)) {
            for &w in g.neighbors(v).iter().filter(|&&w| on_dag(w, i + 1)) {
                for b in 0..=max_base {
                    let b = b as u8;
                    cdg.add_edge(
                        (u, v, hop_vc(num_vcs, b, hop - 1) as u8),
                        (v, w, hop_vc(num_vcs, b, hop) as u8),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
