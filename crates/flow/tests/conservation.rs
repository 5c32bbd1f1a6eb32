//! Property tests: every routing lowering conserves flow.
//!
//! Across random topologies (ring-plus-random-matching graphs of
//! varying size, degree and concentration, plus the Hoffman–Singleton
//! Slim Fly), random demand matrices (uniform and random partial
//! permutations) and all four lowerings (MIN / VAL / UGAL / FatPaths):
//!
//! * **aggregate conservation** — at every router, channel outflow
//!   minus inflow equals the router's injected minus absorbed demand;
//! * **per-destination conservation** — running the MIN kernel on a
//!   single destination column, every router forwards exactly its own
//!   demand plus transit, and the destination absorbs the whole column;
//! * **per-flow conservation** — each exact-tier flow support is a unit
//!   DAG: net divergence +1 at the source, −1 at the destination, 0
//!   elsewhere;
//! * **solver invariants** — progressive filling never exceeds a flow's
//!   offered rate `λ·w` or unit channel utilization, reports delivered
//!   = Σ rates, and below the fluid saturation bound delivers the full
//!   offered mass.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sf_flow::{
    fatpaths_loads, max_min_rates, min_loads, min_loads_dense, ugal_mix, valiant_loads, Demand,
    EdgeIndex, FlowSet, RoutingLoads,
};
use sf_routing::RoutingTables;
use sf_topo::random_dln::RandomDln;
use sf_topo::{Network, SlimFly, TopologyKind};
use sf_traffic::TrafficPattern;

/// `kind == 0` picks the Hoffman–Singleton Slim Fly (50 routers, the
/// exact-tier ceiling case); anything else a seeded random
/// ring-plus-matchings graph with uniform concentration `p`.
fn build_topo(kind: u32, half: usize, y: u32, seed: u64, p: u32) -> Network {
    if kind == 0 {
        SlimFly::new(5).unwrap().network()
    } else {
        let g = RandomDln::new(half * 2, y, seed).router_graph();
        Network::with_uniform_concentration(
            g,
            p,
            format!("rand(nr={}, y={y})", half * 2),
            TopologyKind::Other,
        )
    }
}

/// Uniform traffic, or a seeded random partial permutation keeping
/// roughly `keep`% of the endpoints active.
fn build_demand(net: &Network, uniform: bool, seed: u64, keep: u32) -> Demand {
    if uniform {
        return Demand::uniform(net);
    }
    let n = net.num_endpoints();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut targets: Vec<u32> = (0..n as u32).collect();
    targets.shuffle(&mut rng);
    let mut perm = vec![u32::MAX; n];
    for (s, slot) in perm.iter_mut().enumerate() {
        if rng.gen_range(0u32..100) < keep && targets[s] != s as u32 {
            *slot = targets[s];
        }
    }
    Demand::from_pattern(net, &TrafficPattern::permutation(perm, "randperm"))
}

/// Net divergence (outflow − inflow) per router of a channel-load vector.
fn divergence(nr: usize, idx: &EdgeIndex, load: &[f64]) -> Vec<f64> {
    let mut div = vec![0.0f64; nr];
    for u in 0..nr as u32 {
        for c in idx.base(u)..idx.base(u + 1) {
            div[u as usize] += load[c as usize];
            div[idx.head(c) as usize] -= load[c as usize];
        }
    }
    div
}

/// Aggregate conservation: divergence at every router equals its
/// injected minus absorbed demand.
fn assert_aggregate_conservation(
    label: &str,
    net: &Network,
    idx: &EdgeIndex,
    dem: &Demand,
    rl: &RoutingLoads,
) {
    let nr = net.num_routers();
    let div = divergence(nr, idx, &rl.load);
    let tol = 1e-7 * (1.0 + dem.net_mass());
    for u in 0..nr as u32 {
        let expect = dem.row_sum(u) - dem.col_sum(u);
        assert!(
            (div[u as usize] - expect).abs() <= tol,
            "{label} on {}: router {u} divergence {} vs injected-minus-absorbed {expect}",
            net.name,
            div[u as usize],
        );
    }
}

/// Per-flow conservation: every support is a unit DAG from src to dst.
fn assert_flowset_conservation(label: &str, nr: usize, idx: &EdgeIndex, set: &FlowSet) {
    for fl in &set.flows {
        let mut div = vec![0.0f64; nr];
        for &(c, f) in &fl.support {
            div[idx.tail(c) as usize] += f;
            div[idx.head(c) as usize] -= f;
        }
        for u in 0..nr as u32 {
            let expect = if u == fl.src {
                1.0
            } else if u == fl.dst {
                -1.0
            } else {
                0.0
            };
            assert!(
                (div[u as usize] - expect).abs() < 1e-9,
                "{label}: flow {}→{} has divergence {} at router {u}",
                fl.src,
                fl.dst,
                div[u as usize],
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lowerings_conserve_flow(
        (kind, half, y, tseed) in (0u32..5, 4usize..=10, 1u32..=3, 0u64..1_000_000),
        p in 1u32..=4,
        uniform in any::<bool>(),
        dseed in 0u64..1_000_000,
        keep in 30u32..=100,
        lambda in 0.05f64..2.0,
    ) {
        let net = build_topo(kind, half, y, tseed, p);
        let nr = net.num_routers();
        let idx = EdgeIndex::new(&net.graph);
        let dem = build_demand(&net, uniform, dseed, keep);
        if dem.total_mass() > 0.0 {
            let min = min_loads(&net, &idx, &dem).unwrap();
            let val = valiant_loads(&net, &idx, &dem).unwrap();
            let ugal = ugal_mix(&min, &val);
            assert_aggregate_conservation("min", &net, &idx, &dem, &min);
            assert_aggregate_conservation("val", &net, &idx, &dem, &val);
            assert_aggregate_conservation("ugal", &net, &idx, &dem, &ugal);
            // FatPaths layer sets may be unbuildable or disconnected on
            // sparse random graphs; conservation applies when they exist.
            let tables = RoutingTables::new(&net.graph);
            if let Ok(fp) = fatpaths_loads(&net, &idx, &dem, &tables, 2) {
                assert_aggregate_conservation("fatpaths", &net, &idx, &dem, &fp);
                let set = fp.flows.as_ref().expect("exact tier");
                assert_flowset_conservation("fatpaths", nr, &idx, set);
            }

            // All generated topologies sit at or below EXACT_MAX_ROUTERS,
            // so the lowerings must have materialized per-flow supports.
            for (label, rl) in [("min", &min), ("val", &val), ("ugal", &ugal)] {
                let set = rl.flows.as_ref().expect("exact tier");
                assert_flowset_conservation(label, nr, &idx, set);
            }

            // Progressive-filling invariants at an arbitrary offered rate.
            let set = min.flows.as_ref().unwrap();
            let sol = max_min_rates(set, lambda);
            let mut total = 0.0;
            for (fl, &r) in set.flows.iter().zip(&sol.rates) {
                prop_assert!(
                    r <= lambda * fl.w * (1.0 + 1e-9) + 1e-12,
                    "flow {}→{} rate {r} exceeds offered {}", fl.src, fl.dst, lambda * fl.w
                );
                total += r;
            }
            prop_assert!((total - sol.delivered).abs() <= 1e-9 * (1.0 + total));
            prop_assert!(sol.util.iter().all(|&u| u <= 1.0 + 1e-9));
            if lambda * min.max_load <= 1.0 - 1e-9 {
                // Below the fluid bound no channel fills: total injected
                // equals total delivered.
                prop_assert!(
                    (sol.delivered - lambda * dem.net_mass()).abs()
                        <= 1e-7 * (1.0 + dem.net_mass()),
                    "below saturation: delivered {} vs injected {}",
                    sol.delivered, lambda * dem.net_mass()
                );
            }
        }
    }

    #[test]
    fn min_kernel_conserves_per_destination(
        (kind, half, y, tseed) in (0u32..5, 4usize..=10, 1u32..=3, 0u64..1_000_000),
        p in 1u32..=4,
        uniform in any::<bool>(),
        dseed in 0u64..1_000_000,
        keep in 30u32..=100,
    ) {
        let net = build_topo(kind, half, y, tseed, p);
        let nr = net.num_routers();
        let idx = EdgeIndex::new(&net.graph);
        let dem = build_demand(&net, uniform, dseed, keep);
        // Single-destination kernel run: isolate one demand column so the
        // per-destination balance (inflow + own demand = outflow at every
        // router) is visible in the aggregated loads.
        let dpick = (0..nr as u32).find(|&d| dem.col_sum(d) > 0.0);
        if let Some(d) = dpick {
            let load = min_loads_dense(&net.graph, &idx, |dd, buf| {
                if dd == d {
                    dem.fill_dest(dd, buf)
                } else {
                    buf.fill(0.0);
                    0.0
                }
            })
            .unwrap();
            let div = divergence(nr, &idx, &load);
            let col = dem.col_sum(d);
            let tol = 1e-9 * (1.0 + col);
            for u in 0..nr as u32 {
                let expect = if u == d { -col } else { dem.rate(u, d) };
                prop_assert!(
                    (div[u as usize] - expect).abs() <= tol,
                    "dest {d} on {}: router {u} divergence {} vs demand {expect}",
                    net.name, div[u as usize]
                );
            }
        }
    }
}
