//! End-to-end contract of the content-addressed result cache
//! (`slimfly::cache`) through the scheduler: warm (all-hit) runs of
//! the checked-in figure files must reproduce the cold run's CSV and
//! rendered report **byte for byte**, corrupted entries must degrade
//! to re-simulation (never wrong output), worker counts must share
//! one entry per job, and an incremental resubmission must
//! simulate exactly the delta.

use slimfly::cache::ResultCache;
use slimfly::plan::ExperimentPlan;
use slimfly::report::render_plan_report;
use slimfly::schedule::{ScheduleReport, Scheduler};
use slimfly::sink::MemorySink;
use slimfly::Record;
use std::path::{Path, PathBuf};

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn fresh_cache(tag: &str) -> ResultCache {
    let dir = std::env::temp_dir().join(format!("sf-cachetest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultCache::open(dir).unwrap()
}

/// Runs `plan` through the scheduler, returning the report and the
/// record stream; `cache`/`workers` parameterize the run.
fn run_plan(
    plan: &ExperimentPlan,
    cache: Option<&ResultCache>,
    workers: usize,
) -> (ScheduleReport, Vec<Record>) {
    let mut set = plan.expand().unwrap();
    let mut sink = MemorySink::new();
    let report = Scheduler::new(workers)
        .with_cache(cache.cloned())
        .run(&mut set, &mut sink)
        .unwrap();
    (report, sink.into_records())
}

fn csv_of(records: &[Record]) -> String {
    let mut out = String::from(Record::CSV_HEADER);
    for r in records {
        out.push('\n');
        out.push_str(&r.to_csv());
    }
    out
}

#[test]
fn warm_runs_of_checked_in_figures_are_all_hit_and_byte_identical() {
    for (file, tag) in [
        ("figures/smoke.toml", "smoke"),
        ("figures/fig_faults_quick.toml", "faults"),
    ] {
        let plan = ExperimentPlan::from_path(&repo_file(file)).unwrap();
        let cache = fresh_cache(tag);
        let (cold_rep, cold) = run_plan(&plan, Some(&cache), 1);
        assert_eq!(cold_rep.cache_hits, 0, "{file}: fresh cache cannot hit");
        assert_eq!(cold_rep.cache_misses, cold_rep.jobs);
        assert_eq!(cold_rep.cache_store_errors, 0);

        let (warm_rep, warm) = run_plan(&plan, Some(&cache), 1);
        assert_eq!(
            warm_rep.cache_hits, warm_rep.jobs,
            "{file}: warm run must all-hit"
        );
        assert_eq!(warm_rep.cache_misses, 0);

        // CSV and rendered report, byte for byte.
        assert_eq!(csv_of(&cold), csv_of(&warm), "{file}: CSV must match");
        assert_eq!(
            render_plan_report(&plan, &cold),
            render_plan_report(&plan, &warm),
            "{file}: rendered report must match"
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }
}

#[test]
fn worker_counts_share_one_entry_per_job() {
    // Results are independent of scheduler workers, so the cache key
    // excludes them — a sweep run at workers=1 must serve (all-hit)
    // the same sweep at workers ∈ {2, 4}.
    let plan = ExperimentPlan::from_path(&repo_file("figures/smoke.toml")).unwrap();
    let cache = fresh_cache("tw");
    let (_, baseline) = run_plan(&plan, Some(&cache), 1);
    for workers in [2, 4] {
        let (rep, records) = run_plan(&plan, Some(&cache), workers);
        assert_eq!(
            (rep.cache_hits, rep.cache_misses),
            (rep.jobs, 0),
            "workers={workers} must be all-hit"
        );
        assert_eq!(csv_of(&baseline), csv_of(&records), "workers={workers}");
    }
    let _ = std::fs::remove_dir_all(cache.root());
}

#[test]
fn corrupted_entry_is_detected_and_resimulated() {
    let plan = ExperimentPlan::from_path(&repo_file("figures/smoke.toml")).unwrap();
    let cache = fresh_cache("corrupt");
    let (cold_rep, cold) = run_plan(&plan, Some(&cache), 1);
    assert_eq!(cold_rep.cache_misses, cold_rep.jobs);

    // Bit-flip one stored entry and truncate another: both must fail
    // the per-entry checksum and degrade to misses.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(cache.root())
        .unwrap()
        .map(|d| d.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "sfrec"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), cold_rep.jobs);
    let mut flipped = std::fs::read(&entries[0]).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&entries[0], &flipped).unwrap();
    let truncated = std::fs::read(&entries[1]).unwrap();
    std::fs::write(&entries[1], &truncated[..truncated.len() / 3]).unwrap();

    let (rerun_rep, rerun) = run_plan(&plan, Some(&cache), 1);
    assert_eq!(
        (rerun_rep.cache_hits, rerun_rep.cache_misses),
        (rerun_rep.jobs - 2, 2),
        "exactly the two damaged entries must re-simulate"
    );
    assert_eq!(
        csv_of(&cold),
        csv_of(&rerun),
        "re-simulation must repair output"
    );

    // The write-through overwrote the damaged entries: third run is
    // clean.
    let (healed_rep, _) = run_plan(&plan, Some(&cache), 1);
    assert_eq!(healed_rep.cache_misses, 0);
    let _ = std::fs::remove_dir_all(cache.root());
}

#[test]
fn delta_resubmission_simulates_only_the_new_jobs() {
    let base = ExperimentPlan::from_path(&repo_file("figures/smoke.toml")).unwrap();
    let cache = fresh_cache("delta");
    let (base_rep, _) = run_plan(&base, Some(&cache), 1);
    assert_eq!(base_rep.cache_misses, base_rep.jobs);

    // The iteration loop the cache exists for: one new load point on
    // the first sweep. Every pre-existing (topo, routing, load) cell
    // keeps its key — only the new cells (one per routing of that
    // sweep) may simulate.
    let mut extended = base.clone();
    extended.sweeps[0].loads.push(0.45);
    let new_jobs = extended.sweeps[0].routings.len() * extended.sweeps[0].topos.len();
    let (delta_rep, merged) = run_plan(&extended, Some(&cache), 1);
    assert_eq!(delta_rep.jobs, base_rep.jobs + new_jobs);
    assert_eq!(
        (delta_rep.cache_hits, delta_rep.cache_misses),
        (base_rep.jobs, new_jobs),
        "exactly the delta must simulate"
    );

    // And the merged (hit + fresh) stream equals a cache-free cold run
    // of the extended plan, byte for byte.
    let (_, cold) = run_plan(&extended, None, 1);
    assert_eq!(csv_of(&cold), csv_of(&merged));
    let _ = std::fs::remove_dir_all(cache.root());
}
