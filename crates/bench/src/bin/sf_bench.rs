//! `sf-bench` — the experiment-file runner and the paper's static
//! tables: whole paper figures as data, not binaries.
//!
//! Usage:
//!   `sf-bench run <file.toml> [--workers N]
//!                 [--out PATH] [--format csv|jsonl] [--report PATH]
//!                 [--cache DIR | --no-cache]
//!                 [--check-builder] [--quiet]`
//!   `sf-bench validate <file>...`
//!   `sf-bench verify <file>... [--quiet]`
//!   `sf-bench survive <file>...`
//!   `sf-bench cache <stats|gc|clear> [--cache DIR]`
//!   `sf-bench table <name> [flags]`
//!
//! `table` prints one static table or figure of the paper (Tables
//! II–IV, Figs 1, 5 and 11, and the §III-D, §IV-D and §VII-A tables)
//! as CSV; [`sf_bench::tables`] documents each name and its flags.
//!
//! `run` parses an [`ExperimentPlan`], expands it to a deterministic
//! job set and executes it on the scheduler, whose `--workers N`
//! threads claim jobs from one cursor, streaming records in job-id
//! order as jobs finish: CSV to stdout (unless `--quiet`), plus
//! `--out` (CSV, or JSON lines with `--format jsonl`) and a markdown
//! report per `--report` (the EXPERIMENTS.md generator). A run summary
//! goes to stderr, keeping stdout pure CSV. `--check-builder` re-runs
//! the whole plan on one worker and fails unless both record streams
//! are byte-identical — the scheduler-determinism guard CI exercises
//! on every push.
//!
//! `run` consults a persistent content-addressed **result cache** when
//! one is configured: `--cache DIR` names the directory explicitly,
//! the `SF_CACHE_DIR` environment variable supplies a default, and
//! `--no-cache` disables caching even when the variable is set. Each
//! job is keyed by a stable hash of everything its records depend on —
//! the cache's own canonical key material for the job (topology + fault
//! plan, routing, traffic, backend, load, sim config)
//! plus the seed and the engine epoch — so hits replay stored records
//! byte-identically to a cold run, while misses simulate and write
//! through. Re-submitting a figure with one new load point simulates
//! only the delta. The summary line reports `cache: hits=H misses=M`.
//!
//! `cache` inspects and maintains a cache directory: `stats` counts
//! valid/stale/corrupt entries, `gc` removes entries stranded by an
//! engine-epoch bump (and anything corrupt), `clear` removes all. The
//! directory must exist: only `run` creates one.
//!
//! Every subcommand rejects a flag it does not know before it reads a
//! plan or a cache, so a misspelt flag costs no work.
//!
//! `validate` parses and expands each file without running anything
//! (CI does this for every checked-in `figures/*.toml`).
//!
//! `verify` goes one tier further: for every distinct (topology,
//! routing, VC budget, packet size) combination a cycle-backend job
//! would exercise, it builds the wormhole-aware channel dependency
//! graph under the engine's exact VC-allocation arithmetic and
//! certifies deadlock freedom and routing totality, printing one
//! certificate line per combination. A proven deadlock fails the run
//! with the offending channel cycle rendered in the error. `run`
//! performs the same pass automatically before simulating. CI verifies
//! every checked-in `figures/*.toml`.
//!
//! `survive` audits the fault plans of experiment files: for every
//! topology instance with a `[sweep.faults]` table it lowers the plan
//! to its concrete seeded kill-set, reports whether that exact
//! kill-set boots (the degradation connectivity check), and estimates
//! the Monte-Carlo survival probability at the same cable-loss
//! fraction (`sf_graph::failure`, the paper's §III-D resiliency
//! analysis) — the two views agree on the sampler by construction, so
//! a plan's seeded outcome can be read against the population
//! statistics it was drawn from.

use sf_bench::tables::TABLES;
use sf_bench::{print_raw_line, StdoutCsvSink, SweepArgs};
use slimfly::cache::ResultCache;
use slimfly::plan::ExperimentPlan;
use slimfly::report::render_plan_report;
use slimfly::sink::{CsvSink, JsonLinesSink, MemorySink, RecordSink, TeeSink};
use slimfly::{Scheduler, SfError};
use std::path::Path;

fn main() {
    let args = SweepArgs::parse();
    let result = match args.positional(0) {
        Some("run") => cmd_run(&args),
        Some("validate") => cmd_validate(&args),
        Some("verify") => cmd_verify(&args),
        Some("survive") => cmd_survive(&args),
        Some("cache") => cmd_cache(&args),
        Some("table") => cmd_table(&args),
        _ => Err(SfError::Cli(
            "usage: sf-bench <run|validate|verify|survive|cache|table> <file.toml|name> ...".into(),
        )),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Runs one static table by name and prints its CSV. The table checks
/// its flags before it computes and returns its text whole, so an
/// error leaves stdout empty.
fn cmd_table(args: &SweepArgs) -> Result<(), SfError> {
    let name = args.positional(1);
    let Some((_, table)) = TABLES.iter().find(|(n, _)| Some(*n) == name) else {
        let names: Vec<&str> = TABLES.iter().map(|(n, _)| *n).collect();
        return Err(SfError::Cli(format!(
            "usage: sf-bench table <name> [flags], where <name> is one of: {}",
            names.join(", ")
        )));
    };
    for line in table(args)?.lines() {
        print_raw_line(line);
    }
    Ok(())
}

/// Resolves the cache directory for a command: `--cache DIR` wins,
/// then the `SF_CACHE_DIR` environment variable; `--no-cache` beats
/// both. `None` means caching is off.
fn resolve_cache_dir(args: &SweepArgs) -> Result<Option<String>, SfError> {
    let explicit = args.get("cache")?.map(str::to_string);
    if args.flag("no-cache") {
        return Ok(None);
    }
    Ok(explicit.or_else(|| std::env::var("SF_CACHE_DIR").ok().filter(|d| !d.is_empty())))
}

fn cmd_run(args: &SweepArgs) -> Result<(), SfError> {
    let file = args
        .positional(1)
        .ok_or_else(|| SfError::Cli("run: missing experiment file".into()))?
        .to_string();
    let workers: usize = args.value("workers", 0)?;
    let quiet = args.flag("quiet");
    let out: Option<String> = args.get("out")?.map(str::to_string);
    let format: String = args.value("format", "csv".to_string())?;
    if !matches!(format.as_str(), "csv" | "jsonl") {
        return Err(SfError::Cli(format!(
            "--format {format:?} (expected csv or jsonl)"
        )));
    }
    let report_path: Option<String> = args.get("report")?.map(str::to_string);
    let check_builder = args.flag("check-builder");
    let cache_dir = resolve_cache_dir(args)?;
    args.check_unknown_flags()?;
    let cache = cache_dir.map(ResultCache::open).transpose()?;

    let plan = ExperimentPlan::from_path(Path::new(&file))?;
    let mut set = plan.expand()?;

    // Static verification gate: certify every cycle-backend combo
    // deadlock-free and total before burning cycles on it.
    let certs = set.verify()?;
    if !quiet && !certs.is_empty() {
        let warn = certs.iter().filter(|c| !c.certified()).count();
        eprintln!(
            "sf-bench: verified {} routing/VC combination(s) deadlock-free{}",
            certs.len() - warn,
            if warn > 0 {
                format!(" ({warn} unchecked — see `sf-bench verify {file}`)")
            } else {
                String::new()
            }
        );
    }

    // The tee borrows `memory`, which keeps the records for --report
    // and --check-builder after the run.
    let mut memory = MemorySink::new();
    let report = {
        let mut sinks: Vec<Box<dyn RecordSink + '_>> = Vec::new();
        if !quiet {
            sinks.push(Box::new(StdoutCsvSink));
        }
        if let Some(path) = &out {
            let path = Path::new(path);
            sinks.push(match format.as_str() {
                "jsonl" => Box::new(JsonLinesSink::create(path)?),
                _ => Box::new(CsvSink::create(path)?),
            });
        }
        if report_path.is_some() || check_builder {
            sinks.push(Box::new(&mut memory));
        }
        let mut tee = TeeSink::new(sinks);
        Scheduler::new(workers)
            .with_cache(cache.clone())
            .run(&mut set, &mut tee)?
    };
    let records = memory.into_records();
    eprintln!(
        "sf-bench run {file}: {} jobs, {} records, workers={}, wall={:.1}s",
        report.jobs,
        report.records,
        report.workers,
        report.wall.as_secs_f64()
    );
    if let Some(c) = &cache {
        eprintln!(
            "sf-bench run {file}: cache: hits={} misses={} ({}{})",
            report.cache_hits,
            report.cache_misses,
            c.root().display(),
            if report.cache_store_errors > 0 {
                format!(", {} store error(s)", report.cache_store_errors)
            } else {
                String::new()
            }
        );
    }

    if let Some(path) = &report_path {
        let body = render_plan_report(&plan, &records);
        std::fs::write(
            path,
            format!("{body}\n_Generated by `sf-bench run {file} --report {path}`._\n"),
        )?;
        eprintln!("sf-bench: wrote report to {path}");
    }

    if check_builder {
        // Re-run the same prepared set on one worker: run_job is
        // read-only, so networks/tables/routers/patterns are reused
        // and only the simulations repeat. Deliberately cache-free —
        // the reference stream must come from real simulation, so
        // this also cross-checks cache replay on warm runs.
        let mut ref_sink = MemorySink::new();
        Scheduler::new(1).run(&mut set, &mut ref_sink)?;
        let got: Vec<String> = records.iter().map(|r| r.to_csv()).collect();
        let want: Vec<String> = ref_sink.records().iter().map(|r| r.to_csv()).collect();
        if got != want {
            return Err(SfError::Experiment(format!(
                "scheduler record stream diverges from the one-worker run \
                 ({} vs {} records, first difference at row {})",
                got.len(),
                want.len(),
                got.iter()
                    .zip(&want)
                    .position(|(a, b)| a != b)
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "end".into()),
            )));
        }
        eprintln!(
            "sf-bench: --check-builder OK ({} records byte-identical to the one-worker run)",
            got.len()
        );
    }
    Ok(())
}

fn cmd_cache(args: &SweepArgs) -> Result<(), SfError> {
    let action = args
        .positional(1)
        .ok_or_else(|| SfError::Cli("usage: sf-bench cache <stats|gc|clear> [--cache DIR]".into()))?
        .to_string();
    let dir = resolve_cache_dir(args)?.ok_or_else(|| {
        SfError::Cli("cache: no directory (pass --cache DIR or set SF_CACHE_DIR)".into())
    })?;
    args.check_unknown_flags()?;
    // Only `run` creates a cache directory: a misspelt one must not
    // read as an empty cache.
    if !Path::new(&dir).is_dir() {
        return Err(SfError::Cli(format!("cache: no cache directory at {dir}")));
    }
    let cache = ResultCache::open(&dir)?;
    match action.as_str() {
        "stats" => {
            let st = cache.stats()?;
            print_raw_line(&format!(
                "{dir}: {} entr{} ({} bytes) — {} valid (epoch {}), {} stale, {} corrupt",
                st.entries(),
                if st.entries() == 1 { "y" } else { "ies" },
                st.bytes,
                st.valid,
                slimfly::sim::ENGINE_EPOCH,
                st.stale,
                st.corrupt
            ));
        }
        "gc" => {
            let rep = cache.gc()?;
            print_raw_line(&format!(
                "{dir}: removed {} stale + {} corrupt entr{}, kept {} valid",
                rep.removed_stale,
                rep.removed_corrupt,
                if rep.removed_stale + rep.removed_corrupt == 1 {
                    "y"
                } else {
                    "ies"
                },
                rep.kept
            ));
        }
        "clear" => {
            let n = cache.clear()?;
            print_raw_line(&format!(
                "{dir}: removed {n} entr{}",
                if n == 1 { "y" } else { "ies" }
            ));
        }
        other => {
            return Err(SfError::Cli(format!(
                "cache: unknown action {other:?} (expected stats, gc, or clear)"
            )))
        }
    }
    Ok(())
}

fn cmd_validate(args: &SweepArgs) -> Result<(), SfError> {
    args.check_unknown_flags()?;
    let mut idx = 1;
    let mut seen = 0;
    while let Some(file) = args.positional(idx) {
        let plan = ExperimentPlan::from_path(Path::new(file))?;
        let set = plan.expand()?;
        print_raw_line(&format!(
            "{file}: OK — {} sweeps, {} jobs, {} records over {} topologies",
            plan.sweeps.len(),
            set.jobs().len(),
            set.num_records(),
            set.topos().len()
        ));
        idx += 1;
        seen += 1;
    }
    if seen == 0 {
        return Err(SfError::Cli("validate: no experiment files given".into()));
    }
    Ok(())
}

fn cmd_survive(args: &SweepArgs) -> Result<(), SfError> {
    use slimfly::graph::failure::{survival_probability, FailureConfig, Property};
    use slimfly::graph::fault::kill_set;
    args.check_unknown_flags()?;
    let mut idx = 1;
    let mut seen = 0;
    let mut audited = 0;
    while let Some(file) = args.positional(idx) {
        let plan = ExperimentPlan::from_path(Path::new(file))?;
        let set = plan.expand()?;
        for (spec, fp) in set.topos().iter().zip(set.topo_faults()) {
            let Some(f) = fp else { continue };
            let net = spec.build()?;
            let kill = kill_set(&net.graph, f.links, f.routers, f.seed, f.mode);
            // The concrete seeded outcome this plan will boot with.
            let boot = match net.degrade(&kill, &f.suffix()) {
                Ok(d) => format!(
                    "boots ({} of {} cables live, {} of {} routers)",
                    d.graph.num_edges(),
                    net.graph.num_edges(),
                    (0..d.graph.num_vertices() as u32)
                        .filter(|&v| d.graph.degree(v) > 0)
                        .count(),
                    net.num_routers(),
                ),
                Err(e) => format!("REFUSED at boot: {e}"),
            };
            // The population view: Monte-Carlo survival at the same
            // cable-loss fraction, over the identical sampler.
            let (p, samples) = survival_probability(
                &net.graph,
                f.links,
                Property::Connected,
                &FailureConfig::default(),
            );
            print_raw_line(&format!(
                "{file}: {spec}{} — kill-set: {} cables, {} routers; {boot}; \
                 P[connected | {:.1}% random cable loss] ≈ {p:.3} ({samples} samples)",
                f.suffix(),
                kill.links.len(),
                kill.routers.len(),
                f.links * 100.0,
            ));
            audited += 1;
        }
        idx += 1;
        seen += 1;
    }
    if seen == 0 {
        return Err(SfError::Cli("survive: no experiment files given".into()));
    }
    eprintln!("sf-bench survive: {seen} file(s), {audited} fault plan(s) audited");
    if audited == 0 {
        eprintln!("sf-bench survive: no [sweep.faults] tables found — nothing to audit");
    }
    Ok(())
}

fn cmd_verify(args: &SweepArgs) -> Result<(), SfError> {
    let quiet = args.flag("quiet");
    args.check_unknown_flags()?;
    let mut idx = 1;
    let mut seen = 0;
    let mut certified = 0;
    let mut unchecked = 0;
    while let Some(file) = args.positional(idx) {
        let plan = ExperimentPlan::from_path(Path::new(file))?;
        let mut set = plan.expand()?;
        let certs = set.verify()?;
        for c in &certs {
            if c.certified() {
                certified += 1;
            } else {
                unchecked += 1;
            }
            if !quiet {
                print_raw_line(&format!("{file}: {c}"));
            }
        }
        print_raw_line(&format!(
            "{file}: VERIFIED — {} combination(s) over {} topologies ({} jobs)",
            certs.len(),
            set.topos().len(),
            set.jobs().len()
        ));
        idx += 1;
        seen += 1;
    }
    if seen == 0 {
        return Err(SfError::Cli("verify: no experiment files given".into()));
    }
    eprintln!(
        "sf-bench verify: {seen} file(s), {certified} combination(s) certified{}",
        if unchecked > 0 {
            format!(", {unchecked} unchecked (too large for CDG construction)")
        } else {
            String::new()
        }
    );
    Ok(())
}
