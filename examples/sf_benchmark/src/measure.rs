//! The untraced measurement: repeated rounds of set-up, one cold pass
//! and warm passes through the same public calls `sf-bench run` makes,
//! with every job's output checked.

use crate::check::{finite, job_digest, per_job, same_records, Pins};
use crate::config::{Workload, WORKERS};
use crate::stats::median;
use slimfly::plan::ExperimentPlan;
use slimfly::schedule::ScheduleReport;
use slimfly::sink::MemorySink;
use slimfly::{JobSet, Record, ResultCache, Scheduler};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Warm passes per round: each replays the cold pass from the cache.
const WARM_PASSES: usize = 5;
/// Rounds measured even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 3;

/// Parses the plan and applies the benchmark seed to every sweep.
/// `None` keeps the plan's pinned seed.
pub fn parse_plan(text: &str, seed: Option<u64>) -> Result<ExperimentPlan, String> {
    let mut plan = ExperimentPlan::from_toml_str(text).map_err(|e| e.to_string())?;
    if let Some(s) = seed {
        for sweep in &mut plan.sweeps {
            sweep.sim.seed = s;
        }
    }
    Ok(plan)
}

/// The seed a plan runs at: its sweeps' `sim.seed`, which the embedded
/// plans leave at one common default.
pub fn plan_seed(plan: &ExperimentPlan) -> Result<u64, String> {
    let seed = plan.sweeps[0].sim.seed;
    if plan.sweeps.iter().any(|s| s.sim.seed != seed) {
        return Err(format!("plan {} mixes sweep seeds", plan.name));
    }
    Ok(seed)
}

/// The workload's pins when they apply to this run: captured at the
/// current engine epoch and at the seed the run uses.
pub fn active_pins(w: &Workload, seed: Option<u64>) -> Result<Option<Pins>, String> {
    let pins = Pins::parse(w.pins).map_err(|e| format!("{}.digests: {e}", w.name))?;
    let seed = plan_seed(&parse_plan(w.plan, seed)?)?;
    Ok((pins.epoch == slimfly::sim::ENGINE_EPOCH && pins.seed == seed).then_some(pins))
}

/// Parse → expand → verify (which prepares): the set-up every pass
/// repeats. Returns the ready job set and its wall time in seconds.
pub fn setup(text: &str, seed: Option<u64>) -> Result<(JobSet, f64), String> {
    let t = Instant::now();
    let plan = parse_plan(text, seed)?;
    let mut set = plan.expand().map_err(|e| e.to_string())?;
    set.verify().map_err(|e| e.to_string())?;
    Ok((set, t.elapsed().as_secs_f64()))
}

/// One pass through the scheduler with `cache` attached. On a job
/// error, `records` holds the completed prefix.
pub struct Pass {
    pub records: Vec<Record>,
    pub report: Result<ScheduleReport, String>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn pass(set: &mut JobSet, cache: &ResultCache) -> Result<Pass, String> {
    let mut sink = MemorySink::new();
    let cpu0 = proc_cpu_s()?;
    let t = Instant::now();
    let report = Scheduler::new(WORKERS)
        .with_cache(Some(cache.clone()))
        .run(set, &mut sink)
        .map_err(|e| e.to_string());
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = proc_cpu_s()? - cpu0;
    Ok(Pass {
        records: sink.into_records(),
        report,
        wall_s,
        cpu_s,
    })
}

/// Per-job outcome of [`check_cold`], indexed by job id.
pub struct ColdCheck {
    /// Digest of the job's records (`None`: no records).
    pub digests: Vec<Option<u64>>,
    /// Why the job failed (`None`: it passed).
    pub failures: Vec<Option<String>>,
}

/// Checks a cold pass job by job against the pins (when they apply) and
/// against an earlier round's digests at the same seed.
pub fn check_cold(
    set: &JobSet,
    cold: &Pass,
    pins: Option<&Pins>,
    earlier: Option<&[Option<u64>]>,
) -> Result<ColdCheck, String> {
    let jobs = per_job(set, &cold.records);
    if let Some(p) = pins.filter(|p| p.digests.len() != jobs.len()) {
        return Err(format!(
            "the pins hold {} digests but the plan has {} jobs; re-run bless",
            p.digests.len(),
            jobs.len()
        ));
    }
    let digests: Vec<Option<u64>> = jobs.iter().map(|j| j.map(job_digest)).collect();
    let failures = jobs
        .iter()
        .enumerate()
        .map(|(id, job)| match job {
            None => Some(format!(
                "no records ({})",
                cold.report
                    .as_ref()
                    .err()
                    .map_or("run stopped early", |e| e)
            )),
            Some(recs) if !recs.iter().all(finite) => {
                Some("non-finite accepted/avg_hops/max_link_util".into())
            }
            Some(_) => match (pins, earlier) {
                (Some(p), _) if digests[id] != Some(p.digests[id]) => Some(format!(
                    "digest {:016x} differs from the pinned {:016x}",
                    digests[id].unwrap_or(0),
                    p.digests[id]
                )),
                (_, Some(e)) if e[id] != digests[id] => {
                    Some("records differ from the first round at the same seed".into())
                }
                _ => None,
            },
        })
        .collect();
    Ok(ColdCheck { digests, failures })
}

/// What one run of a workload measured and checked.
pub struct Outcome {
    /// Job executions checked (jobs × rounds).
    pub attempted: usize,
    pub failed: usize,
    /// Whether the digests were compared with the pins.
    pub pinned: bool,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed with the metrics.
    pub notes: Vec<String>,
}

/// Runs rounds of set-up, a cold pass into a fresh cache and
/// [`WARM_PASSES`] warm passes until another round would overrun
/// `seconds` (at least [`MIN_ROUNDS`]), checking every job of every
/// round. A job fails in a round when its cold records fail
/// [`check_cold`], a warm pass misses the cache, or a warm replay
/// differs from the cold records. Times are medians over all rounds.
pub fn run_workload(
    w: &Workload,
    seed: Option<u64>,
    seconds: f64,
    scratch: &Scratch,
) -> Result<Outcome, String> {
    let pins = active_pins(w, seed)?;
    let t0 = Instant::now();
    let mut round_s = Vec::new();
    let (mut setups, mut runs, mut cpus, mut warms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<Option<u64>>> = None;
    let (mut attempted, mut failures, mut peak_rss) = (0, Vec::new(), 0.0);
    loop {
        let tr = Instant::now();
        let dir = scratch.dir("cache")?;
        let cache = ResultCache::open(dir.path()).map_err(|e| e.to_string())?;
        let (mut set, setup_s) = setup(w.plan, seed)?;
        setups.push(setup_s);
        let cold = pass(&mut set, &cache)?;
        runs.push(cold.wall_s);
        cpus.push(cold.cpu_s);
        let check = check_cold(&set, &cold, pins.as_ref(), first.as_deref())?;
        let mut bad = check.failures;
        first.get_or_insert(check.digests);

        let cold_jobs = per_job(&set, &cold.records);
        let jobs = cold_jobs.len();
        for _ in 0..WARM_PASSES {
            let t = Instant::now();
            let (mut wset, wsetup) = setup(w.plan, seed)?;
            let warm = pass(&mut wset, &cache)?;
            warms.push(t.elapsed().as_secs_f64());
            setups.push(wsetup);
            let hits = warm.report.as_ref().map_or(0, |r| r.cache_hits);
            for (id, w) in per_job(&wset, &warm.records).into_iter().enumerate() {
                let why = if hits != jobs {
                    format!("warm pass served {hits} of {jobs} jobs from the cache")
                } else if !matches!((cold_jobs[id], w), (Some(c), Some(w)) if same_records(c, w)) {
                    "warm replay differs from the cold records".into()
                } else {
                    continue;
                };
                bad[id].get_or_insert(why);
            }
        }
        drop(dir);

        let round = round_s.len();
        attempted += jobs;
        for (id, why) in bad.into_iter().enumerate() {
            if let Some(why) = why {
                failures.push(format!("round {round} job {id}: {why}"));
            }
        }
        if round == 0 {
            // One set-up, cold pass and warm passes in a fresh process;
            // later rounds only add allocator retention that grows with
            // the number of rounds that fit in the run.
            peak_rss = peak_rss_mb()?;
        }
        round_s.push(tr.elapsed().as_secs_f64());
        if round_s.len() >= MIN_ROUNDS && t0.elapsed().as_secs_f64() + median(&round_s) > seconds {
            break;
        }
    }
    Ok(Outcome {
        attempted,
        failed: failures.len(),
        pinned: pins.is_some(),
        failures,
        metrics: [
            ("setup_s", median(&setups)),
            ("run_s", median(&runs)),
            ("run_cpu_s", median(&cpus)),
            ("warm_s", median(&warms)),
            ("peak_rss_mb", peak_rss),
        ]
        .into_iter()
        .collect(),
        notes: vec![format!("{} rounds", round_s.len())],
    })
}

/// CPU seconds this process has used so far, user and system, over all
/// threads including exited ones: the POSIX process CPU-time clock,
/// read with nanosecond resolution (`/proc/self/stat` counts 10 ms
/// ticks, too coarse for a per-pass figure).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn proc_cpu_s() -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers,
    // matching the repr(C) `Timespec`; the pointer refers to a live,
    // aligned local that clock_gettime only writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The benchmark's scratch area under the working directory. Temporary
/// directories in it are removed when dropped; the area itself is
/// removed on drop unless result or span files were left in it.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub const ROOT: &'static str = ".sf_benchmark";

    pub fn new() -> Scratch {
        Scratch {
            root: PathBuf::from(Self::ROOT),
        }
    }

    /// A fresh, empty directory unique to this process.
    pub fn dir(&self, tag: &str) -> Result<TempDir, String> {
        let path = self.root.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Fails, harmlessly, while other files remain in the area.
        let _ = std::fs::remove_dir(&self.root);
    }
}

/// A directory removed with everything in it when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
