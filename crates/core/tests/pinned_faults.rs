//! Pinned fault-injection determinism: the seeded kill-set and a
//! degraded resilience curve are fixed bit-for-bit across releases.
//! These are golden values — if a legitimate change to the fault
//! sampler or the engine moves them, re-pin deliberately and say why
//! in the commit; an *accidental* drift here means the determinism
//! contract (identical kill-sets and curves for a given seed) broke.

use slimfly::sink::MemorySink;
use slimfly::Scheduler;
use slimfly::{graph::fault, plan::ExperimentPlan, TopologySpec};

/// The exact kill-set `[sweep.faults]` with `links = 0.05, routers =
/// 0.04, seed = 7, mode = "random"` lowers to on SF(q=5): 5% of 175
/// cables rounds to 9, 4% of 50 routers rounds to 2, and the seeded
/// Fisher–Yates pass picks these and no others.
#[test]
fn seeded_kill_set_is_pinned() {
    let net = "sf:q=5".parse::<TopologySpec>().unwrap().build().unwrap();
    let kill = fault::kill_set(&net.graph, 0.05, 0.04, 7, fault::FaultMode::Random);
    assert_eq!(
        kill.links,
        vec![
            (6, 39),
            (15, 39),
            (0, 25),
            (11, 37),
            (5, 46),
            (0, 35),
            (17, 34),
            (15, 19),
            (6, 30),
        ]
    );
    assert_eq!(kill.routers, vec![20, 40]);
}

/// One degraded curve, pinned to 6 decimals: MIN on SF(q=5) with the
/// seeded 5% link kill, three load points per backend. The cycle rows
/// pin the flit engine's RNG + arbitration determinism on a degraded
/// graph; the flow rows pin the fair-share solver over the degraded
/// edge index. The cycle rows are single-stream captures: engine
/// epoch 2 re-captured them from per-shard RNG streams, and epoch 3,
/// back on one stream, restored the original values (see
/// `tests/engine_parity.rs` module docs). The flow rows draw no engine
/// RNG and never moved.
#[test]
fn degraded_curve_is_pinned_to_six_decimals() {
    let doc = r#"
        [figure]
        name = "pin"
        [[sweep]]
        topo = "sf:q=5"
        routing = ["min"]
        traffic = "uniform"
        loads = [0.1, 0.3, 0.5]
        faults = { links = 0.05, seed = 7, mode = "random" }
        [sweep.sim]
        warmup = 150
        measure = 300
        drain = 1000
        [[sweep]]
        topo = "sf:q=5"
        backend = "flow"
        routing = ["min"]
        traffic = "uniform"
        loads = [0.1, 0.3, 0.5]
        faults = { links = 0.05, seed = 7, mode = "random" }
    "#;
    let plan = ExperimentPlan::from_toml_str(doc).unwrap();
    let mut set = plan.expand().unwrap();
    let mut sink = MemorySink::new();
    Scheduler::new(1).run(&mut set, &mut sink).unwrap();
    let got: Vec<String> = sink
        .records()
        .iter()
        .map(|r| {
            format!(
                "{} {} {:.3} lat={:.6} acc={:.6}",
                r.backend, r.routing, r.offered, r.latency, r.accepted
            )
        })
        .collect();
    let want = vec![
        "cycle MIN 0.100 lat=7.865833 acc=0.100383",
        "cycle MIN 0.300 lat=8.430697 acc=0.302350",
        "cycle MIN 0.500 lat=9.644379 acc=0.496500",
        "flow MIN 0.100 lat=8.865474 acc=0.100000",
        "flow MIN 0.300 lat=9.257802 acc=0.300000",
        "flow MIN 0.500 lat=10.088344 acc=0.500000",
    ];
    assert_eq!(got, want, "degraded curve drifted — see module docs");
}
