//! The random-ECMP minimal walk (`PathGen::min_path` and everything
//! built on it: MIN source routes, both Valiant legs, UGAL candidates,
//! FatPaths layers) must draw exactly like the reference definition:
//! at every hop, collect the minimal next hops in adjacency order and
//! pick one with `gen_range(0..count)`. Pinned curves and cache keys
//! depend on that draw sequence bit for bit, so any fast path is
//! checked here against the naive walk — same path, and the RNG left in
//! the same state (the next draw agrees).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sf_graph::Graph;
use sf_routing::tables::UNREACHABLE;
use sf_routing::{PathGen, RoutingTables};
use sf_topo::SlimFly;

/// The reference walk: collect the qualifying neighbors, then draw.
fn reference_min_path(g: &Graph, t: &RoutingTables, s: u32, d: u32, rng: &mut StdRng) -> Vec<u32> {
    let mut path = vec![s];
    let mut cur = s;
    while cur != d {
        let need = t.distance(cur, d);
        let next: Vec<u32> = g
            .neighbors(cur)
            .iter()
            .copied()
            .filter(|&v| t.distance(v, d) as u16 + 1 == need as u16)
            .collect();
        cur = next[rng.gen_range(0..next.len())];
        path.push(cur);
    }
    path
}

/// Walks every reachable (s, d) pair of `g` (or a seeded sample of at
/// most `max_pairs` of them) with both implementations from the same
/// seed and compares paths and the RNG state afterwards.
fn check_graph(g: &Graph, seed: u64, max_pairs: usize) {
    let t = RoutingTables::new(g);
    let gen = PathGen::new(g, &t);
    let n = g.num_vertices() as u32;
    let mut pick = StdRng::seed_from_u64(seed ^ 0xA5A5);
    for i in 0..max_pairs {
        let (s, d) = if (n as usize * n as usize) <= max_pairs {
            (i as u32 / n % n, i as u32 % n)
        } else {
            (pick.gen_range(0..n), pick.gen_range(0..n))
        };
        if t.distance(s, d) == UNREACHABLE {
            continue;
        }
        let mut fast = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let mut slow = fast.clone();
        let got = gen.min_path(s, d, &mut fast);
        let want = reference_min_path(g, &t, s, d, &mut slow);
        prop_assert_eq!(&got, &want, "path {} -> {}", s, d);
        prop_assert_eq!(
            fast.next_u64(),
            slow.next_u64(),
            "RNG state after {} -> {}",
            s,
            d
        );
    }
}

/// A connected random graph: a random spanning tree plus `extra`
/// random chords.
fn random_connected(n: u32, extra: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::empty(n as usize);
    for v in 1..n {
        g.add_edge(v, rng.gen_range(0..v));
    }
    for _ in 0..extra {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ecmp_walk_matches_reference_on_random_connected_graphs(
        n in 2u32..60,
        extra in 0usize..200,
        seed in 0u64..10_000,
    ) {
        check_graph(&random_connected(n, extra, seed), seed, 400);
    }

    #[test]
    fn ecmp_walk_matches_reference_on_degraded_slim_flies(
        q in prop::sample::select(&[5u32, 7][..]),
        frac in prop::sample::select(&[0.05f64, 0.2, 0.5][..]),
        kill_seed in 0u64..1000,
        seed in 0u64..10_000,
    ) {
        // Heavy kills may disconnect the graph: unreachable pairs are
        // skipped, every reachable pair must still walk identically.
        use sf_graph::fault::{kill_set, FaultMode};
        let g = SlimFly::new(q).unwrap().router_graph();
        let kill = kill_set(&g, frac, 0.0, kill_seed, FaultMode::Random);
        check_graph(&g.without_edges(&kill.links), seed, 400);
    }

    #[test]
    fn ecmp_walk_matches_reference_past_128_neighbors(
        m in 129u32..170,
        drop_pct in 0u64..30,
        seed in 0u64..10_000,
    ) {
        // Dense bipartite graph: routers 0 and m are adjacent to the
        // whole opposite side (degree m > 128), every other cross edge
        // survives with probability 1 − drop_pct%. Same-side pairs
        // draw among up to m two-hop candidates.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::empty(2 * m as usize);
        for a in 0..m {
            for b in m..2 * m {
                if a == 0 || b == m || rng.gen_range(0..100u64) >= drop_pct {
                    g.add_edge(a, b);
                }
            }
        }
        prop_assert!(g.degree(0) > 128);
        check_graph(&g, seed, 300);
        // And explicitly from the high-degree routers.
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        for d in [1, m - 1, m + 1, 2 * m - 1] {
            for s in [0, m] {
                let mut fast = StdRng::seed_from_u64(seed ^ d as u64);
                let mut slow = fast.clone();
                let got = gen.min_path(s, d, &mut fast);
                prop_assert_eq!(&got, &reference_min_path(&g, &t, s, d, &mut slow));
                prop_assert_eq!(fast.next_u64(), slow.next_u64());
            }
        }
    }
}
