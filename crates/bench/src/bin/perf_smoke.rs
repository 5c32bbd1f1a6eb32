//! Engine performance smoke test: wall-clock timing of a pinned
//! simulator configuration set, tracked across PRs in `BENCH_sim.json`.
//!
//! Usage:
//!   `perf_smoke [--quick] [--repeat N] [--tag LABEL] [--out PATH] [--no-write]`
//!
//! The pinned set is `sf:q=19` (N = 10 830 endpoints, the paper-size
//! network) × routings {`min`, `ugal-g:c=4`} × offered loads
//! {0.1, 0.3, 0.5} with a short warm-up/measure/drain window — enough
//! cycles to exercise every hot phase (injection, allocation, ejection,
//! credits, UGAL-G's global occupancy scans) while finishing in
//! seconds. `--quick` substitutes `sf:q=7` (~500 endpoints) for CI.
//!
//! Every run appends one entry to `BENCH_sim.json` (repo root by
//! default; `--out` overrides, `--no-write` skips persistence). Entries
//! accumulate across PRs, so the file is the engine's performance
//! trajectory; each entry also records its speedup versus the *first*
//! entry in the file (the pre-CSR-engine baseline).
//!
//! The headline cells are strictly sequential and single-threaded so
//! cycles/sec is an engine metric, not a parallelism metric. `--repeat
//! N` (default 3) runs every cell N times and reports the fastest wall
//! time — the standard guard against scheduler noise on shared
//! machines; the simulated results are identical across repeats (same
//! seed), only timing varies.
//!
//! A **wormhole section** re-times the same pinned cells at
//! `packet_size = 4` and appends a `{tag}-pkt4` entry (topo key
//! `…,pkt=4`, so it never mixes with the single-flit baseline): the
//! multi-flit path's cost is tracked alongside the classic engine on
//! every run, including `--quick` in CI.
//!
//! A **fault section** re-times the same cells on a boot-degraded
//! network (2% of cables killed by the seeded kill-set sampler) and
//! appends a `{tag}-faults` entry (topo key `…,faults=0.02`), so the
//! degraded-routing path's cost is tracked on every run too.
//!
//! A second section then times the **work-stealing scheduler** on the
//! same pinned sweep — a heterogeneous job mix (low loads drain almost
//! instantly, the 0.5 UGAL-G point dominates) — once with a single
//! worker and once with `--workers N` (default 4, or the machine's
//! parallelism if larger), asserting both record streams are
//! byte-identical and appending a `workers=N` speedup entry to
//! `BENCH_sim.json`. `--seq-only` skips this section.
//!
//! A **cache section** times the pinned sweep through the scheduler
//! with a persistent content-addressed result cache
//! (`slimfly::cache`): once cold (all-miss — simulate and write
//! through) and once warm (all-hit — replay stored records). The
//! record streams are asserted byte-identical, and the `{tag}-cache`
//! entry records the hit counts of both runs honestly alongside the
//! replay speedup. On a full (non-`--quick`) run the same cold/warm
//! comparison additionally covers the whole `figures/fig8.toml` plan
//! (`{tag}-cache-fig8`) — the figure-regeneration loop the cache
//! exists for.

use sf_bench::{print_raw_line, run_cli};
use slimfly::prelude::*;
use slimfly::SfError;
use std::time::Instant;

/// One timed (routing, load) cell.
struct Cell {
    routing: String,
    load: f64,
    wall_ms: f64,
    cycles: u64,
    packets: u64,
}

fn pinned_cfg() -> SimConfig {
    SimConfig {
        warmup: 150,
        measure: 300,
        drain: 450,
        ..Default::default()
    }
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// JSON string escaping for interpolated fields (tags are user input;
/// an unescaped quote would corrupt BENCH_sim.json permanently).
fn json_s(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn entry_json(tag: &str, topo: &str, cells: &[Cell], speedup_vs_first: Option<f64>) -> String {
    let total_ms: f64 = cells.iter().map(|c| c.wall_ms).sum();
    let total_cycles: u64 = cells.iter().map(|c| c.cycles).sum();
    let total_packets: u64 = cells.iter().map(|c| c.packets).sum();
    let secs = (total_ms / 1e3).max(1e-12);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        let cs = (c.wall_ms / 1e3).max(1e-12);
        rows.push_str(&format!(
            "        {{\"routing\": {}, \"load\": {}, \"wall_ms\": {}, \
             \"cycles\": {}, \"cycles_per_sec\": {}, \"packets\": {}, \
             \"packets_per_sec\": {}}}",
            json_s(&c.routing),
            c.load,
            json_f(c.wall_ms),
            c.cycles,
            json_f(c.cycles as f64 / cs),
            c.packets,
            json_f(c.packets as f64 / cs),
        ));
    }
    // `None` = no comparable baseline (e.g. a --quick run against a
    // full-size history): record null, never a fabricated ratio.
    let speedup = speedup_vs_first
        .map(json_f)
        .unwrap_or_else(|| "null".into());
    format!(
        "    {{\n      \"tag\": {},\n      \"topo\": {},\n      \
         \"unix_time\": {unix_time},\n      \"total_wall_ms\": {},\n      \
         \"total_cycles\": {total_cycles},\n      \"cycles_per_sec\": {},\n      \
         \"packets_per_sec\": {},\n      \"speedup_vs_first\": {speedup},\n      \
         \"configs\": [\n{rows}\n      ]\n    }}",
        json_s(tag),
        json_s(topo),
        json_f(total_ms),
        json_f(total_cycles as f64 / secs),
        json_f(total_packets as f64 / secs),
    )
}

/// One flow-backend timing entry: the pinned sweep through the max-min
/// fair-share tier, end to end (demand lowering + solve + records).
/// Its own topo key (`…,backend=flow`) keeps it out of the cycle-engine
/// baseline comparisons.
fn flow_entry_json(tag: &str, topo: &str, wall_ms: f64, records: usize) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!(
        "    {{\n      \"tag\": {},\n      \"topo\": {},\n      \
         \"unix_time\": {unix_time},\n      \"total_wall_ms\": {},\n      \
         \"records\": {records},\n      \"configs\": []\n    }}",
        json_s(tag),
        json_s(topo),
        json_f(wall_ms),
    )
}

/// One scheduler-timing entry: the pinned sweep through the
/// work-stealing scheduler with one worker vs `workers` workers.
fn sched_entry_json(tag: &str, topo: &str, workers: usize, wall1_ms: f64, walln_ms: f64) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "    {{\n      \"tag\": {},\n      \"topo\": {},\n      \
         \"unix_time\": {unix_time},\n      \"workers\": {workers},\n      \
         \"available_parallelism\": {hw},\n      \
         \"sched_wall_ms_workers1\": {},\n      \
         \"sched_wall_ms_workersN\": {},\n      \
         \"sched_speedup\": {},\n      \"configs\": []\n    }}",
        json_s(tag),
        json_s(topo),
        json_f(wall1_ms),
        json_f(walln_ms),
        json_f(wall1_ms / walln_ms.max(1e-12)),
    )
}

/// One result-cache timing entry: a sweep run cold (all-miss —
/// simulate + write through) vs warm (all-hit — replay) through the
/// scheduler with a fresh cache directory. `warm_hits`/`warm_misses`
/// are the warm run's actual counters, recorded honestly: a warm run
/// that failed to all-hit would show it here.
fn cache_entry_json(
    tag: &str,
    topo: &str,
    jobs: usize,
    warm_hits: usize,
    warm_misses: usize,
    cold_ms: f64,
    warm_ms: f64,
) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!(
        "    {{\n      \"tag\": {},\n      \"topo\": {},\n      \
         \"unix_time\": {unix_time},\n      \"jobs\": {jobs},\n      \
         \"warm_hits\": {warm_hits},\n      \"warm_misses\": {warm_misses},\n      \
         \"cache_wall_ms_cold\": {},\n      \
         \"cache_wall_ms_warm\": {},\n      \
         \"cache_replay_speedup\": {},\n      \"configs\": []\n    }}",
        json_s(tag),
        json_s(topo),
        json_f(cold_ms),
        json_f(warm_ms),
        json_f(cold_ms / warm_ms.max(1e-12)),
    )
}

/// First entry's `total_wall_ms` in an existing BENCH_sim.json — the
/// baseline every later entry is compared against — provided that
/// entry ran the same pinned topology (a `--quick` run must not be
/// compared against, or poison, the full-size baseline). The file is
/// only ever written by this binary, so a plain scan of the known
/// layout is sufficient (no JSON parser in the workspace).
fn first_total_ms(existing: &str, topo: &str) -> Option<f64> {
    let topo_key = "\"topo\": \"";
    let at = existing.find(topo_key)? + topo_key.len();
    let first_topo = &existing[at..at + existing[at..].find('"')?];
    if first_topo != topo {
        return None;
    }
    let key = "\"total_wall_ms\": ";
    let at = existing.find(key)? + key.len();
    let rest = &existing[at..];
    let end = rest.find([',', '\n'])?;
    rest[..end].trim().parse().ok()
}

fn append_entry(path: &str, entry: &str) -> Result<(), SfError> {
    let updated = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let suffix = "\n  ]\n}\n";
            match existing.strip_suffix(suffix) {
                Some(head) => format!("{head},\n{entry}{suffix}"),
                None => {
                    return Err(SfError::Experiment(format!(
                        "{path} exists but does not end with the perf_smoke \
                         entry-list suffix; refusing to rewrite it"
                    )))
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            format!("{{\n  \"benchmark\": \"perf_smoke\",\n  \"entries\": [\n{entry}\n  ]\n}}\n")
        }
        Err(e) => return Err(e.into()),
    };
    std::fs::write(path, updated)?;
    Ok(())
}

fn main() {
    run_cli(|args| {
        let quick = args.flag("quick");
        let repeat: usize = args.value("repeat", 3)?;
        let repeat = repeat.max(1);
        let tag: String = args.value("tag", "dev".to_string())?;
        let out: String = args.value("out", "BENCH_sim.json".to_string())?;
        let no_write = args.flag("no-write");
        let topo = if quick { "sf:q=7" } else { "sf:q=19" };
        let routings = ["min", "ugal-g:c=4"];
        let loads = [0.1, 0.3, 0.5];
        let cfg = pinned_cfg();

        let spec: TopologySpec = topo.parse()?;
        let net = spec.build()?;
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficSpec::Uniform.build(&net, &tables)?;

        print_raw_line(&format!(
            "perf_smoke: {} ({} endpoints, {} routers)",
            net.name,
            net.num_endpoints(),
            net.num_routers()
        ));
        // One timing harness for both the single-flit baseline and the
        // wormhole section: min-of-`repeat` wall time per (routing,
        // load) cell, identical seed derivation, one throughput column
        // (packets for size 1, flits otherwise — same unit as the
        // offered load only in the flit case by coincidence; the
        // column header says which).
        let time_cells = |net: &Network,
                          tables: &RoutingTables,
                          pattern: &TrafficPattern,
                          cfg: SimConfig|
         -> Result<Vec<Cell>, SfError> {
            let unit = if cfg.packet_size == 1 {
                "packets"
            } else {
                "flits"
            };
            print_raw_line(&format!(
                "routing,load,wall_ms,cycles,cycles_per_sec,{unit},{unit}_per_sec"
            ));
            let mut cells = Vec::new();
            for rspec in routings {
                let parsed: RoutingSpec = rspec.parse()?;
                let router = parsed.build(&net.graph, tables)?;
                for &load in &loads {
                    let mut c = cfg;
                    c.seed = LoadSweep::seed_for_load(&cfg, load);
                    let mut wall_ms = f64::INFINITY;
                    let mut res = None;
                    for _ in 0..repeat {
                        let t0 = Instant::now();
                        let r =
                            sf_sim::Simulator::new(net, tables, router.as_ref(), pattern, load, c)
                                .run();
                        wall_ms = wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                        res = Some(r);
                    }
                    let res = res.unwrap();
                    let moved = if cfg.packet_size == 1 {
                        res.ejected
                    } else {
                        res.ejected_flits
                    };
                    let secs = (wall_ms / 1e3).max(1e-12);
                    print_raw_line(&format!(
                        "{},{load},{:.1},{},{:.0},{moved},{:.0}",
                        router.label(),
                        wall_ms,
                        res.cycles,
                        res.cycles as f64 / secs,
                        moved as f64 / secs,
                    ));
                    cells.push(Cell {
                        routing: router.label(),
                        load,
                        wall_ms,
                        cycles: res.cycles as u64,
                        packets: res.ejected,
                    });
                }
            }
            Ok(cells)
        };

        let cells = time_cells(&net, &tables, &pattern, cfg)?;
        let total_ms: f64 = cells.iter().map(|c| c.wall_ms).sum();
        print_raw_line(&format!("total wall: {total_ms:.1} ms"));

        // Wormhole section: the same pinned cells at packet_size = 4,
        // so the multi-flit path's cost is tracked alongside the
        // single-flit baseline on every run (including --quick in CI).
        // The entry records its own topo key ("…,pkt=4"), so it never
        // poisons, or is compared against, the single-flit baseline.
        let pkt_size = 4usize;
        let mut pcfg = cfg;
        pcfg.packet_size = pkt_size;
        print_raw_line(&format!("packet_size={pkt_size} (wormhole path):"));
        let pkt_cells = time_cells(&net, &tables, &pattern, pcfg)?;
        let pkt_total: f64 = pkt_cells.iter().map(|c| c.wall_ms).sum();
        print_raw_line(&format!(
            "packet_size={pkt_size} total wall: {pkt_total:.1} ms \
             ({:.2}x the single-flit cells)",
            pkt_total / total_ms.max(1e-12)
        ));

        // Fault-mode section: the same pinned cells on a boot-degraded
        // network (2% of cables killed, seed 7, random — the FaultPlan
        // defaults), tracking the degraded-routing path's cost on
        // every run. Its own topo key ("…,faults=0.02") keeps it out
        // of the intact baseline comparisons.
        let fault_frac = 0.02;
        let kill = slimfly::graph::fault::kill_set(
            &net.graph,
            fault_frac,
            0.0,
            7,
            slimfly::graph::fault::FaultMode::Random,
        );
        let fnet = net
            .degrade(&kill, &format!(" [faults l={fault_frac} r=0 s=7 random]"))
            .map_err(|e| SfError::Experiment(e.to_string()))?;
        let ftables = RoutingTables::new(&fnet.graph);
        let fpattern = TrafficSpec::Uniform.build(&fnet, &ftables)?;
        print_raw_line(&format!(
            "faults={fault_frac} ({} cables dead, degraded routing):",
            kill.links.len()
        ));
        let fault_cells = time_cells(&fnet, &ftables, &fpattern, cfg)?;
        let fault_total: f64 = fault_cells.iter().map(|c| c.wall_ms).sum();
        print_raw_line(&format!(
            "faults={fault_frac} total wall: {fault_total:.1} ms \
             ({:.2}x the intact cells)",
            fault_total / total_ms.max(1e-12)
        ));

        // Flow-backend section: the same routings × loads through the
        // max-min fair-share tier. A fresh JobSet per repeat so the
        // OnceLock lowering caches don't turn later repeats into
        // no-ops; network construction is excluded (prepare runs
        // before the clock starts).
        let flow_plan = slimfly::ExperimentPlan {
            name: "perf_smoke_flow".into(),
            title: None,
            sweeps: vec![slimfly::SweepPlan {
                topos: vec![spec.clone()],
                routings: routings
                    .iter()
                    .map(|r| r.parse::<RoutingSpec>())
                    .collect::<Result<_, _>>()?,
                traffic: TrafficSpec::Uniform,
                loads: loads.to_vec(),
                sim: cfg,
                backend: Backend::Flow,
                warm_start: false,
                faults: None,
            }],
        };
        let mut flow_wall = f64::INFINITY;
        let mut flow_records = 0usize;
        for _ in 0..repeat {
            let mut fset = flow_plan.expand()?;
            fset.prepare()?;
            let mut sink = MemorySink::new();
            let t0 = Instant::now();
            Scheduler::new(1).run(&mut fset, &mut sink)?;
            flow_wall = flow_wall.min(t0.elapsed().as_secs_f64() * 1e3);
            flow_records = sink.records().len();
        }
        print_raw_line(&format!(
            "flow backend: {flow_records} records in {flow_wall:.1} ms \
             ({:.0}x the cycle cells)",
            total_ms / flow_wall.max(1e-12)
        ));

        // Scheduler section: the same heterogeneous sweep as one
        // work-stealing JobSet, workers=1 vs workers=N (prepare —
        // topology + tables — excluded from both timings).
        let seq_only = args.flag("seq-only");
        let workers: usize = args.value(
            "workers",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(4),
        )?;
        let mut sched_walls: Option<(f64, f64)> = None;
        if !seq_only {
            let plan = slimfly::ExperimentPlan {
                name: "perf_smoke".into(),
                title: None,
                sweeps: vec![slimfly::SweepPlan {
                    topos: vec![spec.clone()],
                    routings: routings
                        .iter()
                        .map(|r| r.parse::<RoutingSpec>())
                        .collect::<Result<_, _>>()?,
                    traffic: TrafficSpec::Uniform,
                    loads: loads.to_vec(),
                    sim: cfg,
                    backend: Backend::Cycle,
                    warm_start: false,
                    faults: None,
                }],
            };
            let mut set = plan.expand()?;
            set.prepare()?;
            let mut time_run = |n: usize| -> Result<(f64, Vec<String>), SfError> {
                let mut best = f64::INFINITY;
                let mut rows = Vec::new();
                for _ in 0..repeat {
                    let mut sink = MemorySink::new();
                    let t0 = Instant::now();
                    Scheduler::new(n).run(&mut set, &mut sink)?;
                    best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                    rows = sink.records().iter().map(|r| r.to_csv()).collect();
                }
                Ok((best, rows))
            };
            let (wall1, rows1) = time_run(1)?;
            let (walln, rowsn) = time_run(workers)?;
            if rows1 != rowsn {
                return Err(SfError::Experiment(
                    "scheduler record stream changed with the worker count".into(),
                ));
            }
            print_raw_line(&format!(
                "scheduler: workers=1 {wall1:.1} ms, workers={workers} {walln:.1} ms \
                 ({:.2}x, {} jobs)",
                wall1 / walln.max(1e-12),
                set.jobs().len(),
            ));
            sched_walls = Some((wall1, walln));
        }

        // Result-cache section: the pinned sweep through the scheduler
        // with a persistent content-addressed cache, cold (all-miss)
        // vs warm (all-hit replay). Prepare (topology + tables) is
        // excluded from both timings; the cache is cleared between
        // cold repeats so every cold measurement really simulates.
        let cache_dir = std::env::temp_dir().join(format!("sf-perf-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let time_cached = |plan: &ExperimentPlan,
                           reps: usize|
         -> Result<(f64, f64, usize, usize, usize), SfError> {
            let cache = ResultCache::open(&cache_dir)?;
            let mut set = plan.expand()?;
            set.prepare()?;
            let (mut cold, mut warm) = (f64::INFINITY, f64::INFINITY);
            let (mut jobs, mut warm_hits, mut warm_misses) = (0usize, 0usize, 0usize);
            let (mut cold_rows, mut warm_rows) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                cache.clear()?;
                let mut sink = MemorySink::new();
                let t0 = Instant::now();
                let rep = Scheduler::new(1)
                    .with_cache(Some(cache.clone()))
                    .run(&mut set, &mut sink)?;
                cold = cold.min(t0.elapsed().as_secs_f64() * 1e3);
                jobs = rep.jobs;
                if rep.cache_hits != 0 || rep.cache_store_errors != 0 {
                    return Err(SfError::Experiment(format!(
                        "cold cache run: expected 0 hits / 0 store errors, got {} / {}",
                        rep.cache_hits, rep.cache_store_errors
                    )));
                }
                cold_rows = sink
                    .records()
                    .iter()
                    .map(|r| r.to_csv())
                    .collect::<Vec<_>>();
                let mut sink = MemorySink::new();
                let t0 = Instant::now();
                let rep = Scheduler::new(1)
                    .with_cache(Some(cache.clone()))
                    .run(&mut set, &mut sink)?;
                warm = warm.min(t0.elapsed().as_secs_f64() * 1e3);
                warm_hits = rep.cache_hits;
                warm_misses = rep.cache_misses;
                warm_rows = sink
                    .records()
                    .iter()
                    .map(|r| r.to_csv())
                    .collect::<Vec<_>>();
            }
            if cold_rows != warm_rows {
                return Err(SfError::Experiment(
                    "cache replay diverged from the cold record stream".into(),
                ));
            }
            Ok((cold, warm, jobs, warm_hits, warm_misses))
        };
        let cache_plan = slimfly::ExperimentPlan {
            name: "perf_smoke_cache".into(),
            title: None,
            sweeps: vec![slimfly::SweepPlan {
                topos: vec![spec.clone()],
                routings: routings
                    .iter()
                    .map(|r| r.parse::<RoutingSpec>())
                    .collect::<Result<_, _>>()?,
                traffic: TrafficSpec::Uniform,
                loads: loads.to_vec(),
                sim: cfg,
                backend: Backend::Cycle,
                warm_start: false,
                faults: None,
            }],
        };
        let (cache_cold, cache_warm, cache_jobs, cache_hits, cache_misses) =
            time_cached(&cache_plan, repeat)?;
        print_raw_line(&format!(
            "cache: cold {cache_cold:.1} ms, warm {cache_warm:.1} ms \
             ({:.0}x replay speedup, {cache_hits}/{cache_jobs} warm hits)",
            cache_cold / cache_warm.max(1e-12),
        ));
        // Full runs only: the acceptance-scale demonstration — the
        // whole fig8 figure cold vs warm through the cache.
        let mut fig8_cache: Option<(f64, f64, usize, usize, usize)> = None;
        if !quick {
            let fig8 = std::path::Path::new("figures/fig8.toml");
            if fig8.exists() {
                let plan8 = ExperimentPlan::from_path(fig8)?;
                let stats = time_cached(&plan8, 1)?;
                print_raw_line(&format!(
                    "cache fig8: cold {:.1} ms, warm {:.1} ms \
                     ({:.0}x replay speedup, {}/{} warm hits)",
                    stats.0,
                    stats.1,
                    stats.0 / stats.1.max(1e-12),
                    stats.3,
                    stats.2,
                ));
                fig8_cache = Some(stats);
            } else {
                print_raw_line("cache fig8: figures/fig8.toml not found — skipped");
            }
        }
        let _ = std::fs::remove_dir_all(&cache_dir);

        if no_write {
            return Ok(());
        }
        let existing = std::fs::read_to_string(&out).ok();
        let speedup = match existing.as_deref() {
            // No history yet: this entry becomes the baseline (1.0 by
            // definition). Otherwise compare only against a same-topo
            // first entry; a mismatch records null.
            None => Some(1.0),
            Some(text) => first_total_ms(text, topo).map(|b| b / total_ms),
        };
        if let Some(s) = speedup.filter(|_| existing.is_some()) {
            print_raw_line(&format!("speedup vs first recorded entry: {s:.2}x"));
        }
        let entry = entry_json(&tag, topo, &cells, speedup);
        append_entry(&out, &entry)?;
        print_raw_line(&format!("appended entry '{tag}' to {out}"));
        // Wormhole-path entry: its own topo key, compared only against
        // earlier pkt entries by eye (speedup_vs_first stays null).
        let entry = entry_json(
            &format!("{tag}-pkt{pkt_size}"),
            &format!("{topo},pkt={pkt_size}"),
            &pkt_cells,
            None,
        );
        append_entry(&out, &entry)?;
        print_raw_line(&format!("appended entry '{tag}-pkt{pkt_size}' to {out}"));
        // Fault-mode entry: its own topo key, never compared against
        // the intact baseline (speedup_vs_first stays null).
        let entry = entry_json(
            &format!("{tag}-faults"),
            &format!("{topo},faults={fault_frac}"),
            &fault_cells,
            None,
        );
        append_entry(&out, &entry)?;
        print_raw_line(&format!("appended entry '{tag}-faults' to {out}"));
        let entry = flow_entry_json(
            &format!("{tag}-flow"),
            &format!("{topo},backend=flow"),
            flow_wall,
            flow_records,
        );
        append_entry(&out, &entry)?;
        print_raw_line(&format!("appended entry '{tag}-flow' to {out}"));
        if let Some((wall1, walln)) = sched_walls {
            let entry = sched_entry_json(&format!("{tag}-sched"), topo, workers, wall1, walln);
            append_entry(&out, &entry)?;
            print_raw_line(&format!("appended entry '{tag}-sched' to {out}"));
        }
        // Result-cache entries: cold vs warm with honest hit counts
        // (their own topo keys keep them out of baseline comparisons).
        let entry = cache_entry_json(
            &format!("{tag}-cache"),
            &format!("{topo},cache"),
            cache_jobs,
            cache_hits,
            cache_misses,
            cache_cold,
            cache_warm,
        );
        append_entry(&out, &entry)?;
        print_raw_line(&format!("appended entry '{tag}-cache' to {out}"));
        if let Some((c8, w8, j8, h8, m8)) = fig8_cache {
            let entry = cache_entry_json(
                &format!("{tag}-cache-fig8"),
                "fig8.toml,cache",
                j8,
                h8,
                m8,
                c8,
                w8,
            );
            append_entry(&out, &entry)?;
            print_raw_line(&format!("appended entry '{tag}-cache-fig8' to {out}"));
        }
        Ok(())
    })
}
