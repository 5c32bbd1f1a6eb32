//! Property tests for the experiment-plan layer: a generated
//! [`ExperimentPlan`], written out as TOML by the test-local
//! [`write_plan`], must parse back to exactly the same plan and expand
//! to the identical [`JobSet`] (same jobs, same ids, same deduplicated
//! topology list). This is the config-file contract: a plan spelled
//! out in `figures/*.toml` is the experiment the parser reads.

use proptest::prelude::*;
use slimfly::plan::ExperimentPlan;
use slimfly::prelude::*;
use slimfly::SweepPlan;

/// Topology specs across several families (kept to small, always-valid
/// parameters — plan round-trips never build the networks).
fn any_topo() -> impl Strategy<Value = TopologySpec> {
    prop::sample::select(vec![
        "sf:q=5",
        "sf:q=7,p=4",
        "df:p=3",
        "ft3:p=8",
        "torus3:k=6",
        "hc:d=6",
        "lh:d=6,l=3",
        "fbf:c=4,dims=3",
    ])
    .prop_map(|s| s.parse().unwrap())
}

fn any_routing() -> impl Strategy<Value = RoutingSpec> {
    (0usize..6, 1usize..9).prop_map(|(kind, n)| match kind {
        0 => RoutingSpec::Min,
        1 => RoutingSpec::Valiant { cap3: n % 2 == 0 },
        2 => RoutingSpec::UgalL { candidates: n },
        3 => RoutingSpec::UgalG { candidates: n },
        4 => RoutingSpec::Ecmp,
        _ => RoutingSpec::FatPaths { layers: 1 + n % 4 },
    })
}

fn any_traffic() -> impl Strategy<Value = TrafficSpec> {
    prop::sample::select(TrafficSpec::ALL.to_vec())
}

fn any_sim() -> impl Strategy<Value = SimConfig> {
    (
        1usize..7,
        8usize..129,
        1u32..2_001,
        0u32..5,
        1u64..1_000_000,
        1usize..33,
    )
        .prop_map(
            |(num_vcs, buf, warmup, delays, seed, packet_size)| SimConfig {
                num_vcs,
                buf_per_port: buf,
                channel_latency: 1 + delays,
                router_delay: 1 + delays * 2,
                credit_delay: 1 + delays,
                warmup,
                measure: warmup * 2,
                drain: warmup * 3,
                packet_size,
                seed,
                ..Default::default()
            },
        )
}

/// Optional fault plans on a 0.025 fraction grid (exactly
/// representable, so plan ⇄ TOML round trips stay bit-exact).
fn any_faults() -> impl Strategy<Value = Option<FaultPlan>> {
    (any::<bool>(), 0u32..5, 0u32..3, 1u64..1_000, any::<bool>()).prop_map(
        |(present, links, routers, seed, adversarial)| {
            present.then_some(FaultPlan {
                links: links as f64 * 0.025,
                routers: routers as f64 * 0.025,
                seed,
                mode: if adversarial {
                    sf_graph::fault::FaultMode::Adversarial
                } else {
                    sf_graph::fault::FaultMode::Random
                },
            })
        },
    )
}

fn any_sweep() -> impl Strategy<Value = SweepPlan> {
    (
        prop::collection::vec(any_topo(), 1..4),
        prop::collection::vec(any_routing(), 1..4),
        any_traffic(),
        prop::collection::vec(0u32..41, 1..6),
        any_sim(),
        any::<bool>(),
        any_faults(),
    )
        .prop_map(
            |(topos, mut routings, mut traffic, loads, sim, flow, faults)| {
                // Worst-case traffic composed with (non-noop) fault
                // injection is rejected at expand() by design — a
                // dedicated test pins that; keep generated plans
                // expandable by substituting uniform.
                if faults.is_some_and(|f| !f.is_noop()) && traffic == TrafficSpec::WorstCase {
                    traffic = TrafficSpec::Uniform;
                }
                // Loads on a 0.025 grid: exactly representable, in [0, 1].
                let loads: Vec<f64> = loads.into_iter().map(|l| l as f64 * 0.025).collect();
                let backend = if flow { Backend::Flow } else { Backend::Cycle };
                if backend == Backend::Flow {
                    // Keep generated flow sweeps expressible: expand()
                    // rejects per-flit adaptive ECMP and the val3
                    // ablation under the flow backend (by design — a
                    // separate test pins that), so substitute their
                    // nearest expressible kin here.
                    for r in &mut routings {
                        match r {
                            RoutingSpec::Ecmp => *r = RoutingSpec::Min,
                            RoutingSpec::Valiant { cap3: true } => {
                                *r = RoutingSpec::Valiant { cap3: false }
                            }
                            _ => {}
                        }
                    }
                } else if sim.num_vcs == 1 {
                    // Keep generated cycle sweeps certifiable: the
                    // static deadlock screen rejects detour routings on
                    // a single VC on every topology (by design — the
                    // verify tests pin that), so substitute minimal
                    // routing here.
                    for r in &mut routings {
                        if matches!(
                            r,
                            RoutingSpec::Valiant { .. }
                                | RoutingSpec::UgalL { .. }
                                | RoutingSpec::UgalG { .. }
                        ) {
                            *r = RoutingSpec::Min;
                        }
                    }
                }
                SweepPlan {
                    topos,
                    routings,
                    traffic,
                    loads,
                    sim,
                    backend,
                    faults,
                }
            },
        )
}

fn any_plan() -> impl Strategy<Value = ExperimentPlan> {
    (
        prop::sample::select(vec!["fig6", "fig8", "a-b", "x_1"]),
        any::<bool>(),
        prop::collection::vec(any_sweep(), 1..4),
    )
        .prop_map(|(name, with_title, sweeps)| ExperimentPlan {
            name: name.to_string(),
            title: with_title.then(|| "Round-trip: \"quoted\", commas".to_string()),
            sweeps,
        })
}

/// Writes `plan` as a TOML experiment file with every sweep spelled
/// out (no `[defaults]`, no matrix sugar). Strings are quoted with
/// `{:?}`: the generators above produce printable ASCII only, whose
/// Debug escapes (`\"`, `\\`) are TOML's. Floats print in Rust's
/// shortest round-trip form, and seeds as decimal strings, the form
/// that holds any `u64`. The `FaultPlan` and `SimConfig` patterns are
/// exhaustive, so a new field cannot be left unwritten.
fn write_plan(plan: &ExperimentPlan) -> String {
    let quoted = |items: Vec<String>| {
        let items: Vec<String> = items.iter().map(|x| format!("{x:?}")).collect();
        format!("[{}]", items.join(", "))
    };
    let mut out = format!("[figure]\nname = {:?}\n", plan.name);
    if let Some(title) = &plan.title {
        out += &format!("title = {title:?}\n");
    }
    for s in &plan.sweeps {
        let topos = quoted(s.topos.iter().map(|t| t.to_string()).collect());
        let routings = quoted(s.routings.iter().map(|r| r.to_string()).collect());
        let loads: Vec<String> = s.loads.iter().map(|l| format!("{l:?}")).collect();
        let (traffic, backend) = (s.traffic, s.backend);
        out += &format!(
            "\n[[sweep]]\ntopos = {topos}\nrouting = {routings}\ntraffic = \"{traffic}\"\n\
             backend = \"{backend}\"\nloads = [{}]\n",
            loads.join(", ")
        );
        if let Some(FaultPlan {
            links,
            routers,
            seed,
            mode,
        }) = s.faults
        {
            out += &format!(
                "[sweep.faults]\nlinks = {links:?}\nrouters = {routers:?}\nseed = \"{seed}\"\n\
                 mode = \"{mode}\"\n"
            );
        }
        let SimConfig {
            num_vcs,
            packet_size,
            buf_per_port,
            channel_latency,
            router_delay,
            credit_delay,
            output_speedup,
            output_queue_cap,
            warmup,
            measure,
            drain,
            seed,
        } = s.sim;
        out += &format!(
            "[sweep.sim]\nnum_vcs = {num_vcs}\npacket_size = {packet_size}\n\
             buf_per_port = {buf_per_port}\nchannel_latency = {channel_latency}\n\
             router_delay = {router_delay}\ncredit_delay = {credit_delay}\n\
             output_speedup = {output_speedup}\noutput_queue_cap = {output_queue_cap}\n\
             warmup = {warmup}\nmeasure = {measure}\ndrain = {drain}\nseed = \"{seed}\"\n"
        );
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn written_plans_parse_back_exactly(plan in any_plan()) {
        let written = write_plan(&plan);
        let reparsed = ExperimentPlan::from_toml_str(&written)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{written}"));
        prop_assert_eq!(&plan, &reparsed, "written:\n{}", written);

        // Expansion commutes with serialization: identical job lists.
        let a = plan.expand().unwrap();
        let b = reparsed.expand().unwrap();
        prop_assert_eq!(a.jobs(), b.jobs());
        prop_assert_eq!(a.topos(), b.topos());
        prop_assert_eq!(a.topo_faults(), b.topo_faults());
        prop_assert_eq!(a.num_records(), b.num_records());
    }

    #[test]
    fn matrix_sugar_round_trips_and_expands_deterministically(
        sizes in prop::collection::vec(1i64..64, 1..4),
        loads in prop::collection::vec(0u32..41, 1..4),
    ) {
        // A sweep template with `packet_sizes = [...]` must expand into
        // one sweep per size in declaration order, and the expanded
        // sweeps written out in full must parse back to the identical
        // plan with the identical JobSet.
        let loads: Vec<f64> = loads.into_iter().map(|l| l as f64 * 0.025).collect();
        let loads_str = loads
            .iter()
            .map(|l| format!("{l:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        let sizes_str = sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let doc = format!(
            "[figure]\nname = \"matrix\"\n[[sweep]]\ntopo = \"sf:q=5\"\n\
             loads = [{loads_str}]\npacket_sizes = [{sizes_str}]\n"
        );
        let plan = ExperimentPlan::from_toml_str(&doc).unwrap();
        prop_assert_eq!(plan.sweeps.len(), sizes.len());
        for (sweep, &size) in plan.sweeps.iter().zip(&sizes) {
            prop_assert_eq!(sweep.sim.packet_size, size as usize);
            prop_assert_eq!(&sweep.loads, &loads);
            prop_assert_eq!(&sweep.topos, &vec![TopologySpec::slimfly(5)]);
        }
        // The expanded form, written out, is the same plan.
        let written = write_plan(&plan);
        let reparsed = ExperimentPlan::from_toml_str(&written)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{written}"));
        prop_assert_eq!(&plan, &reparsed, "written:\n{}", written);
        let a = plan.expand().unwrap();
        let b = reparsed.expand().unwrap();
        prop_assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn expansion_is_deterministic_and_well_formed(plan in any_plan()) {
        let a = plan.expand().unwrap();
        let b = plan.expand().unwrap();
        prop_assert_eq!(a.jobs(), b.jobs());
        // Ids are the positions; every job runs exactly one load, cold;
        // every topo index is in range.
        let mut records = 0;
        for (i, job) in a.jobs().iter().enumerate() {
            prop_assert_eq!(job.id, i);
            prop_assert!(job.topo < a.topos().len());
            prop_assert_eq!(job.loads.len(), 1);
            prop_assert!(!job.warm_start);
            records += job.loads.len();
        }
        prop_assert_eq!(records, a.num_records());
        // The deduplicated topology-instance list — (spec, fault plan)
        // pairs — has no duplicates, and noop fault plans never
        // survive normalization.
        let instances: Vec<_> = a.topos().iter().zip(a.topo_faults()).collect();
        for (i, inst) in instances.iter().enumerate() {
            prop_assert!(!instances[..i].contains(inst));
        }
        for f in a.topo_faults().iter().flatten() {
            prop_assert!(!f.is_noop());
        }
    }
}
