//! Experiment-file ⇄ fluent-builder parity: the checked-in
//! `figures/*.toml` plans must reproduce, byte for byte, the record
//! streams of the equivalent hand-written [`Experiment`] builder
//! chains — the acceptance contract that whole paper figures really
//! are data, not binaries. Sweep sizes are shrunk (fewer loads, short
//! windows) so the suite stays seconds-fast; the shrink is applied
//! identically on both sides.

use slimfly::plan::ExperimentPlan;
use slimfly::prelude::*;
use std::path::Path;

fn repo_file(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn csv_stream(records: &[Record]) -> String {
    records
        .iter()
        .map(|r| r.to_csv())
        .collect::<Vec<_>>()
        .join("\n")
}

fn quick_sim() -> SimConfig {
    SimConfig {
        warmup: 150,
        measure: 300,
        drain: 1_000,
        ..Default::default()
    }
}

/// Runs a plan through the scheduler with several workers, records
/// in deterministic job order.
fn run_plan(plan: &ExperimentPlan, workers: usize) -> Vec<Record> {
    let mut set = plan.expand().unwrap();
    let mut sink = MemorySink::new();
    Scheduler::new(workers).run(&mut set, &mut sink).unwrap();
    sink.into_records()
}

#[test]
fn fig8_toml_is_byte_identical_to_the_builder_path() {
    // The Fig 8 experiment file, shrunk for test runtime: first
    // (uniform, worst) sweep pair on the balanced concentration,
    // three loads each, short windows.
    let mut plan = ExperimentPlan::from_path(&repo_file("figures/fig8.toml")).unwrap();
    assert_eq!(plan.name, "fig8");
    plan.sweeps.truncate(2);
    for sweep in &mut plan.sweeps {
        sweep.loads.truncate(3);
        sweep.sim = quick_sim();
    }
    let from_file = run_plan(&plan, 4);

    // The same sweeps as fluent-builder chains, hand-written to mirror
    // figures/fig8.toml (not derived from the parsed plan).
    let routings = [
        RoutingSpec::Min,
        RoutingSpec::Valiant { cap3: false },
        RoutingSpec::UgalL { candidates: 4 },
        RoutingSpec::UgalG { candidates: 4 },
    ];
    let mut from_builder = Vec::new();
    for (traffic, loads) in [
        (TrafficSpec::Uniform, vec![0.1, 0.25, 0.5]),
        (TrafficSpec::WorstCase, vec![0.05, 0.1, 0.2]),
    ] {
        from_builder.extend(
            Experiment::on("sf:q=7,p=6")
                .routings(&routings)
                .traffic(traffic)
                .loads(&loads)
                .sim(quick_sim())
                .run()
                .unwrap(),
        );
    }
    assert_eq!(from_file.len(), from_builder.len());
    assert_eq!(csv_stream(&from_file), csv_stream(&from_builder));
}

#[test]
fn smoke_toml_runs_end_to_end_and_workers_do_not_change_records() {
    let plan = ExperimentPlan::from_path(&repo_file("figures/smoke.toml")).unwrap();
    let seq = run_plan(&plan, 1);
    let par = run_plan(&plan, 4);
    assert_eq!(seq.len(), plan.expand().unwrap().num_records());
    assert_eq!(csv_stream(&seq), csv_stream(&par));
}

#[test]
fn fig_packets_toml_expands_the_matrix_and_is_worker_invariant() {
    // The multi-flit figure: one sweep template with `packet_sizes =
    // [1, 4, 16]` must expand into three sweeps, run end to end on the
    // scheduler, stream byte-identically for any worker count, and
    // show the serialization ordering (latency strictly increasing in
    // packet size at the same low offered flit load).
    let mut plan = ExperimentPlan::from_path(&repo_file("figures/fig_packets.toml")).unwrap();
    assert_eq!(plan.name, "fig_packets");
    assert_eq!(plan.sweeps.len(), 3, "packet_sizes = [1, 4, 16]");
    assert_eq!(
        plan.sweeps
            .iter()
            .map(|s| s.sim.packet_size)
            .collect::<Vec<_>>(),
        vec![1, 4, 16]
    );
    // Shrink for test runtime: one load, short windows, MIN only.
    for sweep in &mut plan.sweeps {
        sweep.loads = vec![0.2];
        sweep.routings.truncate(1);
        sweep.sim = SimConfig {
            packet_size: sweep.sim.packet_size,
            ..quick_sim()
        };
    }
    let seq = run_plan(&plan, 1);
    let par = run_plan(&plan, 4);
    assert_eq!(csv_stream(&seq), csv_stream(&par));
    assert_eq!(seq.len(), 3);
    assert_eq!(
        seq.iter().map(|r| r.packet_size).collect::<Vec<_>>(),
        vec![1, 4, 16]
    );
    assert!(
        seq[0].latency < seq[1].latency && seq[1].latency < seq[2].latency,
        "serialization latency must grow with packet size: {} / {} / {}",
        seq[0].latency,
        seq[1].latency,
        seq[2].latency
    );
}

#[test]
fn every_checked_in_figure_file_parses_and_expands() {
    let dir = repo_file("figures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let plan =
            ExperimentPlan::from_path(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let set = plan
            .expand()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!set.jobs().is_empty(), "{}", path.display());
        seen += 1;
    }
    assert!(seen >= 4, "expected the four checked-in figure files");
}

/// The body of the first ```` ```toml ```` fence after the line that
/// contains `marker`.
fn toml_fence(lines: &[&str], marker: &str) -> String {
    let from = lines
        .iter()
        .position(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("no line contains {marker:?}"));
    let open = from + lines[from..].iter().position(|l| *l == "```toml").unwrap() + 1;
    let len = lines[open..].iter().position(|l| *l == "```").unwrap();
    lines[open..open + len].join("\n")
}

#[test]
fn documented_plan_schemas_parse_and_expand() {
    // A reader copies these two blocks to start a plan, so both must
    // be plans that run, not just a list of keys.
    let readme: Vec<&str> = include_str!("../README.md").lines().collect();
    let module_docs: Vec<&str> = include_str!("../crates/core/src/plan.rs")
        .lines()
        .map_while(|l| l.strip_prefix("//!"))
        .map(|l| l.strip_prefix(' ').unwrap_or(l))
        .collect();
    for (doc, text) in [
        ("README.md", toml_fence(&readme, "The schema:")),
        (
            "crates/core/src/plan.rs",
            toml_fence(&module_docs, "# Experiment-file schema"),
        ),
    ] {
        let plan = ExperimentPlan::from_toml_str(&text).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let set = plan.expand().unwrap_or_else(|e| panic!("{doc}: {e}"));
        assert!(!set.jobs().is_empty(), "{doc}");
    }
}

/// The paper-size (§V, N ≈ 10K) class of each quick-size topology in a
/// simulation figure: SF q=19 (k=44, balanced p=15), DF p=7 (k=27),
/// FT p=22 (k=44). Fig 8's concentrations stay balanced, +1 and +3.
const UPSIZE: &[(&str, &[(&str, &str)])] = &[
    (
        "fig6",
        &[
            ("sf:q=7", "sf:q=19"),
            ("df:p=3", "df:p=7"),
            ("ft3:p=8", "ft3:p=22"),
        ],
    ),
    (
        "fig8",
        &[
            ("sf:q=7,p=6", "sf:q=19,p=15"),
            ("sf:q=7,p=7", "sf:q=19,p=16"),
            ("sf:q=7,p=9", "sf:q=19,p=18"),
        ],
    ),
    ("fig8a", &[("sf:q=7", "sf:q=19")]),
];

#[test]
fn paper_size_figure_files_are_the_quick_files_upsized() {
    // Each `figures/<x>_large.toml` must be `figures/<x>.toml` with
    // every topology swapped for its paper-size class (and, for Fig 6,
    // the §V measurement windows): same sweeps in the same order, same
    // routings, traffic, loads and simulator settings.
    for &(name, table) in UPSIZE {
        let quick = ExperimentPlan::from_path(&repo_file(&format!("figures/{name}.toml"))).unwrap();
        let large =
            ExperimentPlan::from_path(&repo_file(&format!("figures/{name}_large.toml"))).unwrap();
        let mut want = quick.sweeps.clone();
        for sweep in &mut want {
            for topo in &mut sweep.topos {
                let small = topo.to_string();
                let (_, big) = table.iter().find(|(s, _)| *s == small).unwrap_or_else(|| {
                    panic!("figures/{name}.toml: no paper-size class for {small}")
                });
                *topo = big.parse().unwrap();
            }
            if name == "fig6" {
                sweep.sim.warmup = 2_000;
                sweep.sim.measure = 4_000;
                sweep.sim.drain = 8_000;
            }
        }
        assert_eq!(
            large.sweeps, want,
            "figures/{name}_large.toml is not figures/{name}.toml upsized"
        );
    }
}
