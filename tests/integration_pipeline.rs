//! End-to-end integration tests spanning every crate: build a topology,
//! route on it, simulate it, break it, and price it — the full pipeline
//! a user of the library runs.

use slimfly::graph::failure::{max_tolerable_fraction, FailureConfig, Property};
use slimfly::prelude::*;

/// The complete §V pipeline on a small Slim Fly: construct → analyze →
/// route → simulate, checking the paper's qualitative claims end to end.
#[test]
fn full_pipeline_slimfly_q5() {
    let sf = SlimFly::new(5).unwrap();
    let net = sf.network();

    // §II-B: structure.
    assert_eq!(net.num_routers(), 50);
    assert_eq!(net.num_endpoints(), 200);
    assert_eq!(metrics::diameter(&net.graph), Some(2));

    // §IV: routing tables and deadlock-free minimal routing.
    let tables = RoutingTables::new(&net.graph);
    assert_eq!(tables.max_distance(), 2);
    let paths = slimfly::verify::all_pairs_min_paths(&net.graph, 9);
    assert!(slimfly::verify::hop_index_is_deadlock_free(&paths));

    // §V: simulate uniform traffic at moderate load.
    let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
    let cfg = SimConfig {
        warmup: 400,
        measure: 800,
        drain: 2_000,
        ..Default::default()
    };
    let res = Simulator::new(&net, &tables, &MinRouter, &pattern, 0.4, cfg).run();
    assert!(!res.saturated, "balanced SF at 40% must not saturate");
    assert!(res.avg_hops <= 2.0 + 1e-9);

    // §VI: the network has a finite, positive price.
    let bom = CostBreakdown::compute(&net, &CostModel::fdr10());
    assert!(bom.total_cost() > 0.0);
    assert!(bom.power_per_endpoint() > 0.0);
}

/// §V head-to-head: Slim Fly must beat Dragonfly on zero-load latency
/// (diameter 2 vs 3) under uniform traffic with each network's paper
/// routing.
#[test]
fn slimfly_latency_beats_dragonfly() {
    let sf_net = SlimFly::new(7).unwrap().network();
    let df_net = slimfly::topo::dragonfly::Dragonfly::balanced(3).network();
    let cfg = SimConfig {
        warmup: 500,
        measure: 1_000,
        drain: 3_000,
        ..Default::default()
    };
    let sf_tables = RoutingTables::new(&sf_net.graph);
    let df_tables = RoutingTables::new(&df_net.graph);
    let sf_pat = TrafficPattern::uniform(sf_net.num_endpoints() as u32);
    let df_pat = TrafficPattern::uniform(df_net.num_endpoints() as u32);
    let sf_res = Simulator::new(&sf_net, &sf_tables, &MinRouter, &sf_pat, 0.2, cfg).run();
    let df_ugal = UgalRouter::new(4, false).unwrap();
    let df_res = Simulator::new(&df_net, &df_tables, &df_ugal, &df_pat, 0.2, cfg).run();
    assert!(
        sf_res.avg_latency < df_res.avg_latency,
        "SF-MIN {:.1} must beat DF-UGAL-L {:.1} at low load",
        sf_res.avg_latency,
        df_res.avg_latency
    );
    assert!(sf_res.avg_hops < df_res.avg_hops);
}

/// §III-D: Slim Fly tolerates at least as many random link failures as
/// a comparable Dragonfly before disconnecting.
#[test]
fn slimfly_resiliency_at_least_dragonfly() {
    let sf = SlimFly::new(7).unwrap().network();
    let df = slimfly::topo::dragonfly::Dragonfly::balanced(3).network();
    let cfg = FailureConfig {
        min_samples: 12,
        max_samples: 24,
        ..Default::default()
    };
    let f_sf = max_tolerable_fraction(&sf.graph, Property::Connected, &cfg);
    let f_df = max_tolerable_fraction(&df.graph, Property::Connected, &cfg);
    assert!(
        f_sf + 1e-9 >= f_df,
        "SF {f_sf} must be at least as resilient as DF {f_df}"
    );
    assert!(f_sf >= 0.40, "SF should tolerate ≥40% removal, got {f_sf}");
}

/// §VI: the cost ordering of Table IV holds end to end — SF cheapest
/// per endpoint among the high-radix group, low-radix networks far
/// more expensive.
#[test]
fn cost_ordering_matches_table_iv() {
    let model = CostModel::fdr10();
    let sf = CostBreakdown::compute(&SlimFly::new(11).unwrap().network(), &model);
    let df = CostBreakdown::compute(
        &slimfly::topo::dragonfly::Dragonfly::balanced(6).network(),
        &model,
    );
    let hc = CostBreakdown::compute(
        &slimfly::topo::hypercube::Hypercube::new(11).network(),
        &model,
    );
    assert!(sf.cost_per_endpoint() < df.cost_per_endpoint());
    assert!(df.cost_per_endpoint() < hc.cost_per_endpoint());
    assert!(sf.power_per_endpoint() < df.power_per_endpoint());
}

/// The worst-case traffic generator must actually hurt MIN routing on
/// SF while UGAL-L recovers — the central claim of §V-C.
#[test]
fn worst_case_traffic_end_to_end() {
    let sf = SlimFly::new(5).unwrap();
    let net = sf.network();
    let tables = RoutingTables::new(&net.graph);
    let pattern = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
    let cfg = SimConfig {
        warmup: 500,
        measure: 1_000,
        drain: 3_000,
        ..Default::default()
    };
    let offered = 0.35;
    let min = Simulator::new(&net, &tables, &MinRouter, &pattern, offered, cfg).run();
    let ugal_router = UgalRouter::new(4, false).unwrap();
    let ugal = Simulator::new(&net, &tables, &ugal_router, &pattern, offered, cfg).run();
    assert!(
        min.accepted < offered * 0.8,
        "MIN must not sustain adversarial load: accepted {}",
        min.accepted
    );
    assert!(
        ugal.accepted > min.accepted,
        "UGAL-L {} must beat MIN {} under adversarial traffic",
        ugal.accepted,
        min.accepted
    );
}

/// Oversubscription (§V-E): accepted uniform bandwidth degrades
/// gracefully as p grows past the balanced point.
#[test]
fn oversubscription_degrades_gracefully() {
    let sf = SlimFly::new(5).unwrap();
    let p0 = sf.balanced_concentration();
    let cfg = SimConfig {
        warmup: 500,
        measure: 1_000,
        drain: 2_500,
        ..Default::default()
    };
    let mut accepted = Vec::new();
    for p in [p0, p0 + 1, p0 + 3] {
        let net = sf.network_with_concentration(p);
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let res = Simulator::new(&net, &tables, &MinRouter, &pattern, 0.95, cfg).run();
        accepted.push(res.accepted);
    }
    assert!(
        accepted[0] > accepted[2],
        "balanced must outperform heavy oversubscription: {accepted:?}"
    );
}

/// Zoo + flow model consistency: every practical configuration has a
/// near-1 analytic saturation bound (the meaning of "balanced").
#[test]
fn zoo_configs_are_balanced_by_flow_model() {
    for c in zoo::balanced_slimflies_up_to(1_500) {
        if c.q < 5 {
            continue; // toy sizes
        }
        let net = c.build().network();
        let sat = min_loads(&net, &EdgeIndex::new(&net.graph), &Demand::uniform(&net))
            .unwrap()
            .saturation();
        assert!(
            sat > 0.65,
            "q={} saturation bound {sat} too low for a balanced config",
            c.q
        );
    }
}
