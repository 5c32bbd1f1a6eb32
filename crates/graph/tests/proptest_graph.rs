//! Property-based tests for the graph substrate: structural invariants
//! over random graphs — BFS distance properties, partition balance,
//! failure-injection consistency — and parity of the all-pairs distance
//! metrics with a fold over single-source BFS.

use proptest::prelude::*;
use sf_graph::{failure, fault, metrics, partition, Graph};

/// Strategy: a random simple graph with n in [0, 200] — wide enough that
/// all-pairs sweeps cross several 64-source batches and end in a partial
/// one. Sparse draws leave isolated vertices and several components.
fn wide_graph() -> impl Strategy<Value = Graph> {
    (0usize..=200).prop_flat_map(|n| {
        let ids = n.max(1) as u32;
        prop::collection::vec((0..ids, 0..ids), 0..(n * 3 + 1)).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges)
        })
    })
}

/// Strategy: a random connected graph (2 to 39 vertices) with 1 to 59
/// isolated vertices inserted at random positions.
fn graph_with_isolated_vertices() -> impl Strategy<Value = Graph> {
    (random_connected_graph(), 1usize..60, 0u64..1000).prop_map(|(g, isolated, seed)| {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = g.num_vertices() + isolated;
        // Spread the connected part over `n` slots in seeded order.
        let mut slots: Vec<u32> = (0..n as u32).collect();
        slots.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let edges: Vec<(u32, u32)> = g
            .edge_list()
            .into_iter()
            .map(|(u, v)| (slots[u as usize], slots[v as usize]))
            .collect();
        Graph::from_edges(n, &edges)
    })
}

/// Strategy: Slim Fly MMS graphs (q = 5, 7) minus a random fraction of
/// their cables, from intact through partitioned.
fn degraded_slimfly() -> impl Strategy<Value = Graph> {
    (
        prop::sample::select(&[5u32, 7][..]),
        0.0f64..0.6,
        0u64..1000,
    )
        .prop_map(|(q, fraction, seed)| {
            let g = sf_topo::SlimFly::new(q).unwrap().router_graph();
            g.without_edges(&fault::sample_links(&g, fraction, seed))
        })
}

/// Reference: the histogram of BFS distances from `sources`, one
/// single-source BFS at a time. `None` if a source misses a vertex.
fn reference_histogram(g: &Graph, sources: &[u32]) -> Option<Vec<u64>> {
    let mut hist = Vec::new();
    for &s in sources {
        for d in metrics::bfs_distances(g, s) {
            if d == metrics::UNREACHABLE {
                return None;
            }
            let d = d as usize;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
    }
    Some(hist)
}

fn distance_sum(hist: &[u64]) -> u64 {
    hist.iter().enumerate().map(|(d, &c)| d as u64 * c).sum()
}

/// Every all-pairs metric equals the fold of [`reference_histogram`],
/// exactly (averages bit for bit).
fn assert_metrics_match_reference(g: &Graph) {
    let n = g.num_vertices();
    let all: Vec<u32> = (0..n as u32).collect();
    let reference = reference_histogram(g, &all);
    assert_eq!(
        metrics::distance_histogram(g),
        reference,
        "histogram, n = {n}"
    );
    let exact = reference.filter(|_| n >= 2);
    assert_eq!(
        metrics::diameter(g),
        exact.as_ref().map(|h| h.len() as u32 - 1),
        "diameter, n = {n}"
    );
    assert_eq!(
        metrics::average_distance(g).map(f64::to_bits),
        exact
            .as_ref()
            .map(|h| (distance_sum(h) as f64 / (n as f64 * (n as f64 - 1.0))).to_bits()),
        "average distance, n = {n}"
    );
    for samples in [1, 3, 64, 65, 200] {
        let stats = metrics::sampled_distance_stats(g, samples);
        let expected = (n >= 2)
            .then(|| {
                let stride = (n / samples.clamp(1, n)).max(1);
                let sources: Vec<u32> = (0..n as u32).step_by(stride).collect();
                reference_histogram(g, &sources).map(|h| {
                    let avg = distance_sum(&h) as f64 / (sources.len() as f64 * (n as f64 - 1.0));
                    (h.len() as u32 - 1, avg.to_bits())
                })
            })
            .flatten();
        assert_eq!(
            stats.map(|(ecc, avg)| (ecc, avg.to_bits())),
            expected,
            "sampled stats, n = {n}, samples = {samples}"
        );
    }
}

/// Strategy: a random simple graph with n in [2, 40] and random edges.
fn random_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..(n * 3)).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges)
        })
    })
}

/// Strategy: a random *connected* graph (random tree + extra edges).
fn random_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(0u32..u32::MAX, n - 1),
            prop::collection::vec((0..n as u32, 0..n as u32), 0..n),
        )
            .prop_map(move |(parents, extra)| {
                let mut g = Graph::empty(n);
                for (i, &r) in parents.iter().enumerate() {
                    let v = (i + 1) as u32;
                    let p = r % v; // parent among earlier vertices
                    g.add_edge(v, p);
                }
                for (u, v) in extra {
                    if u != v {
                        g.add_edge(u, v);
                    }
                }
                g
            })
    })
}

proptest! {
    #[test]
    fn degree_sum_is_twice_edges(g in random_graph()) {
        prop_assert_eq!(g.degree_sum(), 2 * g.num_edges());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(g in random_connected_graph()) {
        // For every edge (u,v): |d(s,u) − d(s,v)| ≤ 1.
        let d = metrics::bfs_distances(&g, 0);
        for (u, v) in g.edge_list() {
            let du = d[u as usize];
            let dv = d[v as usize];
            prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
        }
    }

    #[test]
    fn bfs_symmetric_distance(g in random_connected_graph()) {
        // d(0, v) computed from 0 equals d(v, 0) computed from v.
        let from0 = metrics::bfs_distances(&g, 0);
        for v in 0..g.num_vertices().min(5) as u32 {
            let fromv = metrics::bfs_distances(&g, v);
            prop_assert_eq!(from0[v as usize], fromv[0]);
        }
    }

    #[test]
    fn diameter_bounds_average(g in random_connected_graph()) {
        let diam = metrics::diameter(&g);
        let avg = metrics::average_distance(&g);
        if let (Some(d), Some(a)) = (diam, avg) {
            prop_assert!(a <= d as f64 + 1e-12);
            prop_assert!(a >= 1.0 - 1e-12, "every distinct pair is ≥ 1 apart");
        }
    }

    #[test]
    fn connected_components_partition_vertices(g in random_graph()) {
        let c = metrics::connected_components(&g);
        prop_assert!(c >= 1 || g.num_vertices() == 0);
        prop_assert!(c <= g.num_vertices());
        // Connected graph iff 1 component.
        prop_assert_eq!(metrics::is_connected(&g), c <= 1);
    }

    #[test]
    fn histogram_total_is_n_squared(g in random_connected_graph()) {
        if let Some(h) = metrics::distance_histogram(&g) {
            let total: u64 = h.iter().sum();
            let n = g.num_vertices() as u64;
            prop_assert_eq!(total, n * n);
            prop_assert_eq!(h[0], n, "exactly the self-pairs at distance 0");
            // 2·|E| ordered pairs at distance 1.
            if h.len() > 1 {
                prop_assert_eq!(h[1], 2 * g.num_edges() as u64);
            }
        }
    }

    #[test]
    fn bisection_side_consistent_and_balanced(g in random_connected_graph()) {
        let b = partition::bisect(&g, 4, 7);
        prop_assert_eq!(b.cut, partition::cut_size(&g, &b.side));
        let a = b.side.iter().filter(|&&s| !s).count();
        let n = g.num_vertices();
        // Unit weights, default tolerance = 1.
        prop_assert!(a.abs_diff(n - a) <= 1, "sides {a} vs {}", n - a);
    }

    #[test]
    fn bisection_cut_at_most_all_edges(g in random_connected_graph()) {
        let b = partition::bisect(&g, 2, 3);
        prop_assert!(b.cut <= g.num_edges());
    }

    #[test]
    fn without_edges_monotone(g in random_connected_graph(), frac in 0.0f64..1.0) {
        let edges = g.edge_list();
        let k = (frac * edges.len() as f64) as usize;
        let h = g.without_edges(&edges[..k]);
        prop_assert_eq!(h.num_edges(), g.num_edges() - k);
        // Removing edges can only grow component count.
        prop_assert!(metrics::connected_components(&h) >= metrics::connected_components(&g));
    }

    #[test]
    fn survival_monotone_extremes(g in random_connected_graph()) {
        // Removing 0 edges always survives; removing all edges of a
        // graph with ≥ 2 vertices always disconnects.
        prop_assert!(failure::survives_removal(&g, 0, failure::Property::Connected, 1));
        prop_assert!(!failure::survives_removal(
            &g,
            g.num_edges(),
            failure::Property::Connected,
            1
        ));
    }

    #[test]
    fn sampled_stats_bounded_by_exact(g in random_connected_graph()) {
        if let (Some((ecc, avg)), Some(d), Some(a)) = (
            metrics::sampled_distance_stats(&g, 4),
            metrics::diameter(&g),
            metrics::average_distance(&g),
        ) {
            prop_assert!(ecc <= d, "sampled eccentricity cannot exceed diameter");
            // Sampled average is over a subset of sources; allow slack.
            prop_assert!(avg <= d as f64 + 1e-12);
            prop_assert!(avg > 0.0 && a > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_pairs_metrics_match_single_source_bfs(g in wide_graph()) {
        assert_metrics_match_reference(&g);
    }

    #[test]
    fn all_pairs_metrics_see_isolated_vertices(g in graph_with_isolated_vertices()) {
        prop_assert_eq!(metrics::diameter(&g), None);
        assert_metrics_match_reference(&g);
    }

    #[test]
    fn all_pairs_metrics_match_on_degraded_slimfly(g in degraded_slimfly()) {
        assert_metrics_match_reference(&g);
    }
}

#[test]
fn all_pairs_metrics_match_on_a_long_path_and_tiny_graphs() {
    // 300 vertices: five 64-source batches (the last one partial) and
    // distances up to 299.
    let path = Graph::from_edges(300, &(1..300u32).map(|v| (v - 1, v)).collect::<Vec<_>>());
    assert_eq!(metrics::diameter(&path), Some(299));
    assert_metrics_match_reference(&path);
    for n in [0, 1, 2, 63, 64, 65, 128] {
        assert_metrics_match_reference(&Graph::empty(n));
        let star: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        assert_metrics_match_reference(&Graph::from_edges(n, &star));
    }
}
