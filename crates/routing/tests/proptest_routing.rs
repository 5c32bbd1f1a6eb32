//! Property-based tests for routing: path validity, minimality, and
//! distance-table invariants over random topologies and endpoints.
//! (Deadlock-freedom properties live in `crates/verify/tests/`.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sf_graph::{fault, metrics, Graph};
use sf_routing::{PathGen, RoutingTables};
use sf_topo::SlimFly;

fn slimfly_graph(q: u32) -> Graph {
    SlimFly::new(q).unwrap().router_graph()
}

/// Strategy: a random simple graph with n in [0, 200], so table builds
/// cross several 64-row blocks and end in a partial one. Sparse draws
/// leave isolated vertices; `isolated` more are appended.
fn wide_graph() -> impl Strategy<Value = Graph> {
    (0usize..=200, 0usize..4).prop_flat_map(|(n, isolated)| {
        let ids = n.max(1) as u32;
        prop::collection::vec((0..ids, 0..ids), 0..(n * 3 + 1)).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n + isolated, &edges)
        })
    })
}

/// Strategy: `sf:q=5` and `sf:q=7` minus a random fraction of their
/// cables, from intact through partitioned.
fn degraded_slimfly() -> impl Strategy<Value = Graph> {
    (
        prop::sample::select(&[5u32, 7][..]),
        0.0f64..0.6,
        0u64..1000,
    )
        .prop_map(|(q, fraction, seed)| {
            let g = slimfly_graph(q);
            g.without_edges(&fault::sample_links(&g, fraction, seed))
        })
}

/// Every table row equals a single-source BFS saturated at 254 hops
/// (255 = unreachable), and `max_distance` is the largest finite entry.
fn assert_tables_match_bfs(g: &Graph) {
    let n = g.num_vertices();
    let t = RoutingTables::new(g);
    assert_eq!(t.num_routers(), n);
    let mut max = 0;
    for s in 0..n as u32 {
        let expected: Vec<u8> = metrics::bfs_distances(g, s)
            .into_iter()
            .map(|d| {
                if d == metrics::UNREACHABLE {
                    sf_routing::tables::UNREACHABLE
                } else {
                    d.min(254) as u8
                }
            })
            .collect();
        assert_eq!(t.row(s), &expected[..], "row {s} of {n}");
        max = expected
            .iter()
            .copied()
            .filter(|&d| d != sf_routing::tables::UNREACHABLE)
            .fold(max, u8::max);
    }
    assert_eq!(t.max_distance(), max, "max distance, n = {n}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn min_paths_are_valid_and_minimal(
        q in prop::sample::select(&[5u32, 7, 8, 9][..]),
        s_raw in 0u32..1000,
        d_raw in 0u32..1000,
        seed in 0u64..1000,
    ) {
        let g = slimfly_graph(q);
        let n = g.num_vertices() as u32;
        let (s, d) = (s_raw % n, d_raw % n);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = gen.min_path(s, d, &mut rng);
        prop_assert_eq!(p[0], s);
        prop_assert_eq!(*p.last().unwrap(), d);
        prop_assert_eq!(p.len() as u8 - 1, t.distance(s, d));
        for w in p.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn valiant_paths_are_valid_walks(
        q in prop::sample::select(&[5u32, 7][..]),
        s_raw in 0u32..1000,
        d_raw in 0u32..1000,
        cap3 in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = slimfly_graph(q);
        let n = g.num_vertices() as u32;
        let (s, d) = (s_raw % n, d_raw % n);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = gen.valiant_path(s, d, cap3, &mut rng);
        prop_assert_eq!(p[0], s);
        prop_assert_eq!(*p.last().unwrap(), d);
        for w in p.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
        // Valiant on a diameter-2 network is at most 4 hops.
        prop_assert!(p.len() <= 5, "path {:?}", p);
        // Never shorter than the minimal distance.
        prop_assert!(p.len() as u8 > t.distance(s, d));
    }

    #[test]
    fn ugal_candidates_contain_min(
        q in prop::sample::select(&[5u32, 7][..]),
        s_raw in 0u32..1000,
        d_raw in 0u32..1000,
        n_cands in 1usize..8,
        seed in 0u64..1000,
    ) {
        let g = slimfly_graph(q);
        let n = g.num_vertices() as u32;
        let (s, d) = (s_raw % n, d_raw % n);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(seed);
        let (min, cands) = gen.ugal_candidates(s, d, n_cands, &mut rng);
        prop_assert_eq!(cands.len(), n_cands);
        prop_assert_eq!(min.len() as u8 - 1, t.distance(s, d));
        for c in &cands {
            prop_assert!(c.len() >= min.len());
        }
    }

    #[test]
    fn distance_matrix_triangle_inequality(
        q in prop::sample::select(&[5u32, 7][..]),
        a_raw in 0u32..1000,
        b_raw in 0u32..1000,
        c_raw in 0u32..1000,
    ) {
        let g = slimfly_graph(q);
        let n = g.num_vertices() as u32;
        let (a, b, c) = (a_raw % n, b_raw % n, c_raw % n);
        let t = RoutingTables::new(&g);
        prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
        prop_assert_eq!(t.distance(a, b), t.distance(b, a));
        prop_assert_eq!(t.distance(a, a), 0);
    }

    #[test]
    fn tables_match_single_source_bfs(g in wide_graph()) {
        assert_tables_match_bfs(&g);
    }

    #[test]
    fn tables_match_on_degraded_slimfly(g in degraded_slimfly()) {
        assert_tables_match_bfs(&g);
    }
}

#[test]
fn tables_saturate_long_paths_at_254() {
    // 300 routers in a line: five 64-row blocks, the last one partial,
    // and distances up to 299 that the tables store as 254.
    let path = Graph::from_edges(300, &(1..300u32).map(|v| (v - 1, v)).collect::<Vec<_>>());
    assert_tables_match_bfs(&path);
    let t = RoutingTables::new(&path);
    assert_eq!(t.distance(0, 299), 254);
    assert_eq!(t.distance(0, 254), 254);
    assert_eq!(t.distance(0, 253), 253);
    assert_eq!(t.max_distance(), 254);
    for n in [0, 1, 2, 63, 64, 65, 128] {
        assert_tables_match_bfs(&Graph::empty(n));
    }
}
