//! End-to-end coverage of the unified experiment API: a tiny but
//! complete experiment (spec string → builder → simulator → records →
//! serialization) plus the typed-error paths a config-file driver would
//! exercise.

use slimfly::prelude::*;

/// The acceptance scenario: `sf:q=5`, MIN routing, uniform traffic,
/// through `ExperimentBuilder`, yielding non-empty records.
#[test]
fn tiny_end_to_end_experiment() {
    let records = Experiment::on("sf:q=5")
        .routing(RoutingSpec::Min)
        .traffic(TrafficSpec::Uniform)
        .loads(&[0.1, 0.3])
        .sim(SimConfig {
            warmup: 200,
            measure: 500,
            drain: 1_500,
            ..Default::default()
        })
        .run()
        .expect("tiny experiment must run");

    assert!(!records.is_empty());
    assert_eq!(records.len(), 2);
    for r in &records {
        assert_eq!(r.spec, "sf:q=5");
        assert_eq!(r.routing, "MIN");
        assert_eq!(r.traffic, "uniform");
        assert!(r.accepted > 0.0, "packets must flow at {}", r.offered);
        assert!(r.latency.is_finite());
        assert!(r.avg_hops <= 2.0 + 1e-9, "MIN on diameter-2 SF");
        assert!(!r.saturated, "10–30% load cannot saturate a balanced SF");
    }
    // Low load is never slower than three times its own baseline — and
    // records come back in load order.
    assert!(records[0].offered < records[1].offered);
}

/// Records stream to both CSV (with header) and JSON lines through the
/// record sinks.
#[test]
fn records_serialize_to_csv_and_json() {
    let mut set = Experiment::on("sf:q=5")
        .loads(&[0.2])
        .sim(SimConfig {
            warmup: 150,
            measure: 300,
            drain: 1_000,
            ..Default::default()
        })
        .to_plan()
        .unwrap()
        .expand()
        .unwrap();
    let (mut csv, mut json) = (Vec::new(), Vec::new());
    let mut sinks = TeeSink::new(vec![
        Box::new(CsvSink::new(&mut csv)),
        Box::new(JsonLinesSink::new(&mut json)),
    ]);
    Scheduler::new(1).run(&mut set, &mut sinks).unwrap();
    drop(sinks);

    let csv = String::from_utf8(csv).unwrap();
    assert!(csv.starts_with("topology,spec,routing,traffic,backend,packet_size,offered"));
    assert!(csv.contains("SF(q=5,p=4)"));

    let line = String::from_utf8(json).unwrap();
    assert!(line.contains("\"routing\":\"MIN\""));
    assert!(line.contains("\"offered\":0.2"));
}

/// The same experiment value drives the analytic flow and cost models.
#[test]
fn one_spec_three_backends() {
    let exp = Experiment::on("sf:q=5").loads(&[0.2]).sim(SimConfig {
        warmup: 150,
        measure: 300,
        drain: 1_000,
        ..Default::default()
    });
    let sim = exp.run().unwrap();
    let flow = exp.flow().unwrap();
    let cost = exp.cost(&CostModel::fdr10()).unwrap();

    assert_eq!(flow.endpoints, 200);
    // Simulated hop count tracks the analytic expectation.
    assert!((sim[0].avg_hops - flow.avg_hops).abs() < 0.1);
    assert!(cost.total_cost() > 0.0);
}

/// Typed errors, not panics, on every user-facing failure path.
#[test]
fn error_paths_are_typed() {
    // Unknown family.
    assert!(matches!(
        "warp:q=9".parse::<TopologySpec>(),
        Err(SfError::ParseSpec { .. })
    ));
    // Admissibility failure surfaces from the builder.
    assert!(matches!(
        Experiment::on(TopologySpec::SlimFly { q: 6, p: None })
            .loads(&[0.1])
            .run(),
        Err(SfError::Topology(_))
    ));
    // Unknown traffic pattern name.
    assert!(matches!(
        "turbulence".parse::<TrafficSpec>(),
        Err(slimfly::TrafficError::UnknownPattern(_))
    ));
    // Worst-case traffic on a degenerate instance (DLN and BDF gained
    // adversaries, so only instances with no structure to exploit —
    // here a fully-connected 4-router DLN — still error).
    assert!(matches!(
        Experiment::on("dln:nr=4,y=2")
            .traffic(TrafficSpec::WorstCase)
            .loads(&[0.1])
            .run(),
        Err(SfError::Traffic(_))
    ));
    // Out-of-range load.
    assert!(matches!(
        Experiment::on("sf:q=5").loads(&[2.0]).run(),
        Err(SfError::Experiment(_))
    ));
}

/// Specs work as hash keys / config identifiers and build consistently
/// with direct constructor calls.
#[test]
fn spec_registry_matches_direct_constructors() {
    let via_spec = "sf:q=7".parse::<TopologySpec>().unwrap().build().unwrap();
    let direct = SlimFly::new(7).unwrap().network();
    assert_eq!(via_spec.num_routers(), direct.num_routers());
    assert_eq!(via_spec.num_endpoints(), direct.num_endpoints());
    assert_eq!(via_spec.graph.num_edges(), direct.graph.num_edges());

    let via_spec = "df:p=3".parse::<TopologySpec>().unwrap().build().unwrap();
    let direct = slimfly::topo::dragonfly::Dragonfly::balanced(3).network();
    assert_eq!(via_spec.num_endpoints(), direct.num_endpoints());
}
