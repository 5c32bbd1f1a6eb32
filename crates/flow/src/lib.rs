//! # sf-flow — flow-level simulation backend
//!
//! A full simulation tier that complements the cycle-level engine for
//! large networks:
//!
//! * endpoint-weighted **average hop counts** under uniform traffic with
//!   minimal routing (Fig 1);
//! * **routing lowerings** ([`min_loads`], [`valiant_loads`],
//!   [`ugal_mix`], [`fatpaths_loads`]) that reduce the same
//!   `RoutingSpec` grammar the cycle engine uses to per-channel loads
//!   for any [`Demand`] matrix, with the implied saturation throughput
//!   ([`RoutingLoads::saturation`], 1 / max channel load), and — on
//!   small networks — per-flow path sets;
//! * an exact **max-min fair-share solver** ([`max_min_rates`],
//!   progressive filling) and a fluid clamp for at-scale runs, both
//!   reached through [`evaluate`];
//! * the paper's **balanced-concentration** algebra of §II-B2
//!   (`l = (2Nr − k' − 2)p²/k'`, `p ≈ ⌈k'/2⌉`).
//!
//! The `slimfly` facade exposes all of this as `backend = "flow"` in
//! experiment plans; see the README's "Backends" section for when to
//! trust which tier.

pub mod index;
pub mod model;
pub mod solve;

pub use index::EdgeIndex;
pub use model::{
    fatpaths_loads, min_loads, min_loads_dense, ugal_mix, valiant_loads, Demand, FlowError,
    RoutingLoads,
};
pub use solve::{
    average_flowsets, evaluate, max_min_rates, min_flowset, mix_flowsets, valiant_flowset, Flow,
    FlowPoint, FlowSet, SolveResult, EXACT_MAX_ROUTERS,
};

use rayon::prelude::*;
use sf_graph::metrics;
use sf_topo::Network;

/// Endpoint-weighted average hop count under uniform traffic with
/// minimal routing: the expected router-to-router distance between two
/// distinct endpoints chosen uniformly at random (Fig 1's y-axis).
///
/// Endpoints on the same router contribute distance 0; unreachable
/// pairs contribute nothing. The weighted distance sum is an exact
/// integer, folded over `sf_graph`'s bit-parallel multi-source BFS.
pub fn average_hops_uniform(net: &Network) -> f64 {
    let n = net.num_endpoints() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let conc = &net.concentration;
    let sources: Vec<u32> = (0..net.num_routers() as u32)
        .filter(|&s| conc[s as usize] > 0)
        .collect();
    let total: u64 = sources
        .chunks(metrics::BFS_BATCH)
        .into_par_iter()
        .map(|batch| {
            let mut acc = 0u64;
            metrics::multi_source_bfs(&net.graph, batch, |d, v, mut bits| {
                let mut weight = 0u64;
                while bits != 0 {
                    weight += conc[batch[bits.trailing_zeros() as usize] as usize] as u64;
                    bits &= bits - 1;
                }
                acc += weight * conc[v as usize] as u64 * d as u64;
            });
            acc
        })
        .sum();
    total as f64 / (n * (n - 1.0))
}

/// The paper's §II-B2 channel-load formula for a Slim Fly:
/// `l = (2Nr − k' − 2)·p² / k'` — the average number of *routes* through
/// each of the `k'·Nr` directed channels under all-to-all minimal
/// routing. The balanced condition is `p·Nr = l`; the rate-normalized
/// per-channel load at unit injection is `l / (N − 1)`.
pub fn slimfly_channel_load(nr: f64, k_prime: f64, p: f64) -> f64 {
    (2.0 * nr - k_prime - 2.0) * p * p / k_prime
}

/// The balanced concentration solving `p·Nr = l·...` (§II-B2):
/// `p ≈ k' / (2 − k'/Nr − 2/Nr)`, which the paper rounds to `⌈k'/2⌉`.
pub fn balanced_concentration(nr: f64, k_prime: f64) -> f64 {
    k_prime / (2.0 - k_prime / nr - 2.0 / nr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_topo::SlimFly;

    /// Minimal-ECMP loads of uniform traffic at unit injection.
    fn uniform_loads(net: &Network) -> Result<RoutingLoads, FlowError> {
        min_loads(net, &EdgeIndex::new(&net.graph), &Demand::uniform(net))
    }

    #[test]
    fn avg_hops_bounded_by_diameter() {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let h = average_hops_uniform(&net);
        assert!(h > 1.0 && h < 2.0, "SF avg hops must be in (1,2): {h}");
    }

    #[test]
    fn avg_hops_complete_graph_topology() {
        // FBF-2 with c=4 and p=1: every router pair ≤ 2 hops.
        let f = sf_topo::flatbutterfly::FlattenedButterfly {
            c: 4,
            dims: 2,
            p: 1,
        };
        let net = f.network();
        let h = average_hops_uniform(&net);
        let exact = sf_graph::metrics::average_distance(&net.graph).unwrap();
        // p = 1: endpoint-weighted equals router average.
        assert!((h - exact).abs() < 1e-9);
    }

    #[test]
    fn avg_hops_matches_a_single_source_fold() {
        // Uneven concentration with empty routers, on a degraded SF(q=7)
        // and a 150-router path: the fold must equal, bit for bit, the
        // per-source f64 accumulation it replaced.
        let sf = SlimFly::new(7).unwrap().router_graph();
        let degraded = sf.without_edges(&sf_graph::fault::sample_links(&sf, 0.3, 11));
        let path =
            sf_graph::Graph::from_edges(150, &(1..150u32).map(|v| (v - 1, v)).collect::<Vec<_>>());
        for g in [degraded, path] {
            let conc: Vec<u32> = (0..g.num_vertices() as u32).map(|r| r % 4).collect();
            let net = Network::new(g, conc, "uneven".into(), sf_topo::TopologyKind::Other);
            let mut total = 0.0;
            for s in 0..net.num_routers() as u32 {
                let cs = net.concentration[s as usize] as f64;
                if cs == 0.0 {
                    continue;
                }
                let mut acc = 0.0;
                for (v, &d) in metrics::bfs_distances(&net.graph, s).iter().enumerate() {
                    if d != metrics::UNREACHABLE {
                        acc += net.concentration[v] as f64 * d as f64;
                    }
                }
                total += acc * cs;
            }
            let n = net.num_endpoints() as f64;
            assert_eq!(
                average_hops_uniform(&net).to_bits(),
                (total / (n * (n - 1.0))).to_bits()
            );
        }
    }

    #[test]
    fn uniform_loads_symmetric_on_vertex_transitive() {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let loads = uniform_loads(&net).unwrap();
        // Hoffman–Singleton SF: all channels within a tight band.
        let max = loads.max_load;
        let mean = loads.mean_load();
        assert!(max > 0.0);
        assert!(
            max / mean < 1.6,
            "vertex-transitive SF must have near-uniform loads: max/mean = {}",
            max / mean
        );
    }

    #[test]
    fn saturation_bound_near_one_for_balanced_sf() {
        // Balanced SF is designed for full global bandwidth: the uniform
        // saturation bound should be close to 1 flit/endpoint/cycle.
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let sat = uniform_loads(&net).unwrap().saturation();
        assert!(
            sat > 0.7,
            "balanced SF should sustain ≥ 70% uniform load analytically, got {sat}"
        );
    }

    #[test]
    fn oversubscription_lowers_saturation() {
        let sf = SlimFly::new(5).unwrap();
        let balanced = sf.network();
        let over = sf.network_with_concentration(sf.balanced_concentration() + 2);
        let sat_b = uniform_loads(&balanced).unwrap().saturation();
        let sat_o = uniform_loads(&over).unwrap().saturation();
        assert!(sat_o < sat_b, "oversubscribed {sat_o} < balanced {sat_b}");
    }

    #[test]
    fn channel_load_formula_matches_flow_model() {
        // §II-B2 formula (routes/channel) vs the explicit ECMP flow
        // model: rate-normalized they must agree closely on SF(q=5).
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let loads = uniform_loads(&net).unwrap();
        let routes = slimfly_channel_load(
            net.num_routers() as f64,
            sf.network_radix() as f64,
            sf.balanced_concentration() as f64,
        );
        let n = net.num_endpoints() as f64;
        let formula_rate = routes / (n - 1.0);
        let mean = loads.mean_load();
        assert!(
            (mean - formula_rate).abs() / formula_rate < 0.05,
            "formula {formula_rate} vs model mean {mean}"
        );
        // Balanced condition p·Nr ≈ l (within rounding of p).
        let p_nr = sf.balanced_concentration() as f64 * net.num_routers() as f64;
        assert!(
            (p_nr - routes).abs() / routes < 0.10,
            "p·Nr={p_nr} l={routes}"
        );
    }

    #[test]
    fn balanced_concentration_rounds_to_half_radix() {
        for q in [5u32, 17, 19, 25] {
            let sf = SlimFly::new(q).unwrap();
            let exact = balanced_concentration(sf.num_routers() as f64, sf.network_radix() as f64);
            let rounded = sf.balanced_concentration() as f64;
            assert!(
                (exact - rounded).abs() <= 1.0,
                "q={q}: exact {exact} vs ⌈k'/2⌉ = {rounded}"
            );
        }
    }

    #[test]
    fn adversarial_demand_bound_matches_worst_case() {
        // Funnel all traffic of two distance-2 routers through their
        // middle: saturation bound reflects the bottleneck.
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = sf_routing::RoutingTables::new(&net.graph);
        // find a distance-2 pair
        let mut pair = None;
        'outer: for u in 0..net.num_routers() as u32 {
            for v in 0..net.num_routers() as u32 {
                if tables.distance(u, v) == 2 {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = pair.unwrap();
        let p = net.concentration[u as usize] as f64;
        let idx = EdgeIndex::new(&net.graph);
        let load = min_loads_dense(&net.graph, &idx, |d, buf| {
            buf.fill(0.0);
            if d == v {
                buf[u as usize] = p; // all p endpoint flows
                p
            } else {
                0.0
            }
        })
        .unwrap();
        // Unique middle (girth 5) ⇒ the middle link carries all p flows.
        let max = load.iter().copied().fold(0.0, f64::max);
        assert!((max - p).abs() < 1e-9);
        assert!((1.0 / max - 1.0 / p).abs() < 1e-9);
    }

    #[test]
    fn unreachable_demand_is_a_typed_error() {
        let g = sf_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let net = Network::with_uniform_concentration(
            g,
            1,
            "two islands".into(),
            sf_topo::TopologyKind::Other,
        );
        assert_eq!(
            uniform_loads(&net).err(),
            Some(FlowError::UnroutableDemand { src: 2, dst: 0 })
        );
    }
}
