//! Plan-level integration tests for the static verification tier:
//! `ExperimentPlan` → `JobSet::verify()` certificates, expansion-time
//! deadlock screening, and proven-deadlock rejection with a rendered
//! cycle witness — the same pass `sf-bench verify figures/*.toml` and
//! `sf-bench run` execute before any cycle is simulated.

use slimfly::plan::{Backend, ExperimentPlan};
use slimfly::verify::{verify_combo, DeadlockStatus, VerifyError};
use slimfly::SfError;

#[test]
fn good_plan_certifies_every_combo() {
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-good\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"min\", \"val\", \"ugal-l:c=4\"]\n\
         loads = [0.1]\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let certs = set.verify().unwrap();
    assert_eq!(certs.len(), 3, "one certificate per routing");
    for c in &certs {
        assert!(c.certified(), "{c}");
        assert_eq!(c.diameter, 2);
        assert!(
            matches!(c.status, DeadlockStatus::CdgAcyclic { clamped: false, .. }),
            "diameter-2 SF at 4 VCs never clamps: {c}"
        );
    }
    // The rendered certificate names the combo and the proof.
    let line = certs[0].to_string();
    assert!(
        line.contains("sf:q=5") && line.contains("deadlock-free"),
        "{line}"
    );
}

#[test]
fn single_vc_detour_plans_are_rejected_at_expansion() {
    // Valiant on one VC deadlocks on every topology with ≥ 3 routers
    // (the detour reverses a link at the intermediate) — the screen
    // rejects the plan before any network is even built.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-1vc\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"val\"]\nloads = [0.1]\n\
         [sweep.sim]\nnum_vcs = 1\n",
    )
    .unwrap();
    let err = plan
        .expand()
        .expect_err("1-VC Valiant must be screened out");
    match err {
        SfError::Verify(VerifyError::SpecDeadlock { num_vcs, .. }) => assert_eq!(num_vcs, 1),
        other => panic!("expected SfError::Verify(SpecDeadlock), got {other}"),
    }
}

#[test]
fn under_budgeted_ring_plan_fails_verify_with_witness() {
    // MIN on a large ring with one VC passes the topology-independent
    // screen but is a proven wormhole deadlock once the CDG is built:
    // verify() must fail with the offending channel cycle rendered.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-ring\"\n\
         [[sweep]]\ntopo = \"torus:dims=16\"\nrouting = [\"min\"]\nloads = [0.1]\n\
         [sweep.sim]\nnum_vcs = 1\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let err = set
        .verify()
        .expect_err("a 1-VC ring must fail verification");
    let SfError::Verify(VerifyError::Deadlock {
        ref witness,
        num_vcs,
        ..
    }) = err
    else {
        panic!("expected SfError::Verify(Deadlock), got {err}");
    };
    assert_eq!(num_vcs, 1);
    assert!(witness.len() >= 2);
    assert_eq!(witness.first(), witness.last(), "witness is a closed chain");
    let msg = err.to_string();
    assert!(
        msg.contains("vc0") && msg.contains("→"),
        "rendered error carries the channel cycle: {msg}"
    );
}

#[test]
fn flow_only_plans_verify_vacuously() {
    // Flow jobs have no VC/wormhole semantics; verify() must skip them
    // (and, per the pinned plan-layer behavior, never build tables).
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-flow\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nbackend = \"flow\"\nrouting = [\"min\"]\n\
         loads = [0.5]\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let certs = set.verify().unwrap();
    assert!(certs.is_empty(), "flow jobs yield no certificates");
}

#[test]
fn verified_plans_still_run() {
    // End to end: a verified plan simulates normally afterwards.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-run\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"min\"]\nloads = [0.1]\n\
         [sweep.sim]\nwarmup = 100\nmeasure = 200\ndrain = 400\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    assert_eq!(set.verify().unwrap().len(), 1);
    let mut sink = slimfly::sink::MemorySink::new();
    slimfly::Scheduler::new(1).run(&mut set, &mut sink).unwrap();
    assert_eq!(sink.records().len(), 1);
}

/// Plans whose source routes can be longer than the cycle engine
/// carries (`sf_sim::MAX_PATH_HOPS`): MIN on a diameter-12 torus and
/// Valiant on a diameter-9 torus (detours of up to 18 hops). Twenty
/// VCs pass every deadlock check, so only the path capacity fails.
const LONG_ROUTE_PLANS: [(&str, &str, usize); 2] =
    [("torus3:k=8", "min", 12), ("torus3:k=6", "val", 18)];

fn long_route_plan(topo: &str, routing: &str) -> ExperimentPlan {
    ExperimentPlan::from_toml_str(&format!(
        "[figure]\nname = \"verify-long\"\n\
         [[sweep]]\ntopo = \"{topo}\"\nrouting = [\"{routing}\"]\nloads = [0.1]\n\
         [sweep.sim]\nnum_vcs = 20\nwarmup = 20\nmeasure = 20\ndrain = 20\n"
    ))
    .unwrap()
}

fn assert_path_too_long(err: SfError, topo: &str, hops: usize) {
    match &err {
        SfError::Verify(VerifyError::PathTooLong {
            topo: t, hops: h, ..
        }) => {
            assert_eq!(t, topo);
            assert_eq!(*h, hops);
            assert!(err.to_string().contains("at most 9"), "{err}");
        }
        other => panic!("expected SfError::Verify(PathTooLong) for {topo}, got {other}"),
    }
}

#[test]
fn routes_longer_than_the_engine_carries_are_typed_errors() {
    for (topo, routing, hops) in LONG_ROUTE_PLANS {
        // `sf-bench verify`.
        let mut set = long_route_plan(topo, routing).expand().unwrap();
        assert_path_too_long(set.verify().unwrap_err(), topo, hops);
        // `sf-bench run` schedules without verifying.
        let mut set = long_route_plan(topo, routing).expand().unwrap();
        let mut sink = slimfly::sink::MemorySink::new();
        let err = slimfly::Scheduler::new(1)
            .run(&mut set, &mut sink)
            .unwrap_err();
        assert_path_too_long(err, topo, hops);
        assert!(sink.records().is_empty());
        // The builder lowers to a plan and schedules it.
        let err = slimfly::Experiment::on(topo)
            .routing_str(routing)
            .num_vcs(20)
            .loads(&[0.1])
            .run()
            .unwrap_err();
        assert_path_too_long(err, topo, hops);
    }
    // A per-hop scheme carries no route: ECMP on the same torus fits.
    let ecmp: slimfly::RoutingSpec = "ecmp".parse().unwrap();
    assert_eq!(
        slimfly::verify::check_path_capacity("torus3:k=8", &ecmp, 12),
        Ok(())
    );
}

/// Concentration variants and packet sizes share a router graph; a
/// fault-degraded instance does not. However `JobSet::verify` gets its
/// certificates, each must equal what `verify_combo` proves for its own
/// combination, in job order, label and packet size included.
#[test]
fn every_certificate_equals_its_own_combination_proof() {
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-share\"\n\
         [[sweep]]\ntopos = [\"sf:q=5\", \"sf:q=5,p=2\"]\n\
         routing = [\"min\", \"ugal-l:c=4\"]\npacket_sizes = [1, 4]\nloads = [0.1]\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"min\"]\nloads = [0.1]\n\
         fault_fractions = [0.0, 0.05]\n\
         [sweep.faults]\nseed = 7\nmode = \"random\"\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let certs = set.verify().unwrap();
    assert_eq!(set.topos().len(), 3);

    let mut seen = Vec::new();
    let mut direct = Vec::new();
    for job in set.jobs() {
        let key = (job.topo, job.routing, job.sim.num_vcs, job.sim.packet_size);
        if job.backend != Backend::Cycle || seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let label = match &set.topo_faults()[job.topo] {
            None => set.topos()[job.topo].to_string(),
            Some(f) => format!("{}{}", set.topos()[job.topo], f.suffix()),
        };
        let ctx = set.ctx(job);
        direct.push(
            verify_combo(
                &label,
                &ctx.net.graph,
                ctx.tables(),
                &job.routing,
                job.sim.num_vcs,
                job.sim.packet_size,
            )
            .unwrap(),
        );
    }
    assert_eq!(certs.len(), 9);
    assert_eq!(certs, direct);

    let degraded = "sf:q=5 [faults l=0.05 r=0 s=7 random]";
    for c in &certs {
        assert!(
            ["sf:q=5", "sf:q=5,p=2", degraded].contains(&c.topo.as_str()),
            "{c}"
        );
        if c.routing == "MIN" {
            let (channels, edges) = if c.topo == degraded {
                (1328, 5676)
            } else {
                (1400, 6300)
            };
            assert!(
                matches!(
                    c.status,
                    DeadlockStatus::CdgAcyclic { channels: ch, edges: e, .. }
                        if (ch, e) == (channels, edges)
                ),
                "{c}"
            );
        }
    }
}
