//! The sweep scheduler.
//!
//! A [`Scheduler`] executes a [`JobSet`] on scoped worker threads that
//! claim jobs from **one shared cursor**, in ascending job-id order: a
//! worker that finishes a job claims the next unclaimed one, so a
//! heterogeneous sweep (a saturated load next to one that drains
//! instantly) keeps every worker busy until the last job is claimed,
//! and no job waits behind a pre-assigned straggler. One worker or
//! sixteen, every run takes the same path.
//!
//! # Deterministic streaming
//!
//! Jobs finish in arbitrary order, but records reach the
//! [`RecordSink`] strictly in **job-id order**: completed jobs park in
//! a reorder buffer until every lower id has been emitted, then stream
//! out immediately. The observable record stream is therefore
//! byte-identical for any worker count — `workers = 1` and
//! `workers = 16` produce the same file — while each record is still
//! written as soon as its turn arrives (no whole-sweep buffering).
//!
//! # Thread budget
//!
//! `workers` bounds the jobs in flight, not the threads of a run. Every
//! simulation runs on the one worker thread that claimed its job, but
//! lazily built shared state fans out on the offline `rayon` stand-in's
//! threads (`RAYON_NUM_THREADS`, else the host's parallelism) inside
//! whichever worker builds it first: routing tables, FatPaths layers
//! and flow lowerings. [`JobSet::prepare`] builds the networks the same
//! way before any worker starts.
//!
//! ```no_run
//! use slimfly::prelude::*;
//! use slimfly::plan::ExperimentPlan;
//! use slimfly::schedule::Scheduler;
//! use slimfly::sink::MemorySink;
//!
//! let plan = ExperimentPlan::from_path("figures/fig8.toml".as_ref())?;
//! let mut set = plan.expand()?;
//! let mut sink = MemorySink::new();
//! let report = Scheduler::new(4).run(&mut set, &mut sink)?;
//! assert_eq!(report.records, sink.records().len());
//! # Ok::<(), slimfly::SfError>(())
//! ```

use crate::cache::ResultCache;
use crate::error::SfError;
use crate::experiment::Record;
use crate::plan::JobSet;
use crate::sink::RecordSink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Executes [`JobSet`]s on worker threads that claim jobs from one
/// cursor; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct Scheduler {
    workers: usize,
    /// Optional persistent result cache, consulted per job before any
    /// worker claims it; see [`Scheduler::with_cache`].
    cache: Option<ResultCache>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(0)
    }
}

impl Scheduler {
    /// A scheduler with the given worker count; `0` selects
    /// [`Scheduler::default_workers`].
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: if workers > 0 {
                workers
            } else {
                Self::default_workers()
            },
            cache: None,
        }
    }

    /// Attaches (or detaches, with `None`) a persistent
    /// [`ResultCache`]. Before any worker claims a job, the scheduler
    /// looks its [content address](JobSet::job_key) up: hits stream
    /// their stored records through the same job-id-ordered reorder
    /// frontier as simulated results — the sink cannot tell the
    /// difference, so a warm run's output is byte-identical to a cold
    /// one — and only the misses are left for the workers to claim.
    /// Completed misses write through on the calling thread; a store
    /// failure is counted ([`ScheduleReport::cache_store_errors`]),
    /// never fatal. The cache key is independent of the worker count,
    /// so runs at any worker count share one entry per job.
    pub fn with_cache(mut self, cache: Option<ResultCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The default worker count: the machine's available parallelism.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The configured worker count (before the per-run job-count cap).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job of `set`, streaming records to `sink` in job-id
    /// order (see the [module docs](self)). Prepares the set if the
    /// caller has not. On a job failure, workers claim nothing more;
    /// claims ascend, so every job below the lowest failing id is
    /// already claimed and still runs. That job's error is returned
    /// once in-flight jobs drain, and the records of every job
    /// *preceding* its id stream — the completed prefix survives in
    /// every sink, whatever the timing. A sink error ends the stream
    /// and is returned once in-flight jobs drain. On either error the
    /// sink is still finished (best effort), so the prefix reaches disk.
    pub fn run(
        &self,
        set: &mut JobSet,
        sink: &mut dyn RecordSink,
    ) -> Result<ScheduleReport, SfError> {
        set.prepare()?;
        let set: &JobSet = set;
        #[expect(
            clippy::disallowed_methods,
            reason = "operator-facing elapsed-time meter; never feeds records"
        )]
        let t0 = Instant::now();
        let jobs = set.jobs();
        // Cache prepass: resolve every job's content address before
        // any worker claims anything. Hits park in the reorder
        // frontier up front (they stream in job-id order exactly like
        // simulated results); only misses are claimed by workers — so
        // the worker count and the wall-clock scale with the *delta*,
        // not the plan size.
        let mut pending: BTreeMap<usize, Vec<Record>> = BTreeMap::new();
        if let Some(cache) = &self.cache {
            for job in jobs {
                if let Some(records) = cache.lookup(&set.job_key(job)) {
                    // Belt and braces: an entry that does not carry
                    // one record per load cannot be this job's.
                    if records.len() == job.loads.len() {
                        pending.insert(job.id, records);
                    }
                }
            }
        }
        let cache_hits = pending.len();
        let cache_misses = if self.cache.is_some() {
            jobs.len() - cache_hits
        } else {
            0
        };
        let misses: Vec<usize> = jobs
            .iter()
            .map(|j| j.id)
            .filter(|id| !pending.contains_key(id))
            .collect();
        let workers = self.workers.min(misses.len());
        sink.begin()?;
        // The next miss to claim; storing `misses.len()` stops claims.
        // `Relaxed` suffices: results travel over the channel, and each
        // `fetch_add` reads the latest value, so no miss is claimed twice.
        let cursor = AtomicUsize::new(0);
        let mut emitted = 0usize;
        let mut cache_store_errors = 0usize;
        // The run's error, and the job id the stream stops at: the
        // lowest failing job, or the job whose record the sink refused.
        let mut run_err: Option<SfError> = None;
        let mut stop = jobs.len();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (cursor, misses) = (&cursor, &misses);
                scope.spawn(move || {
                    while let Some(&id) = misses.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let result = set.run_job(&jobs[id]);
                        if result.is_err() {
                            // Every miss below `id` is already claimed.
                            cursor.store(misses.len(), Ordering::Relaxed);
                        }
                        if tx.send((id, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            // Reorder frontier: stream every job whose turn has come,
            // then wait for the next result; the loop ends once every
            // worker has finished.
            let mut results = rx.iter();
            let mut next = 0usize;
            loop {
                'emit: while next < stop {
                    let Some(records) = pending.remove(&next) else {
                        break;
                    };
                    for r in &records {
                        if let Err(e) = sink.record(r) {
                            run_err = Some(e);
                            stop = next;
                            cursor.store(misses.len(), Ordering::Relaxed);
                            break 'emit;
                        }
                        emitted += 1;
                    }
                    next += 1;
                }
                let Some((id, result)) = results.next() else {
                    break;
                };
                match result {
                    Ok(records) => {
                        // Write-through on the calling thread (the
                        // workers stay pure simulation); a store failure
                        // downgrades to a counter.
                        if let Some(cache) = &self.cache {
                            if cache.store(&set.job_key(&jobs[id]), &records).is_err() {
                                cache_store_errors += 1;
                            }
                        }
                        pending.insert(id, records);
                    }
                    // Only the lowest failing id counts.
                    Err(e) if id < stop => {
                        run_err = Some(e);
                        stop = id;
                    }
                    Err(_) => {}
                }
            }
        });
        if let Some(e) = run_err {
            // Best-effort flush so the completed prefix reaches disk
            // before the error surfaces (a finish failure here cannot
            // outrank the original error).
            let _ = sink.finish();
            return Err(e);
        }
        sink.finish()?;
        Ok(ScheduleReport {
            jobs: jobs.len(),
            records: emitted,
            workers: workers.max(1),
            steals: 0,
            cache_hits,
            cache_misses,
            cache_store_errors,
            wall: t0.elapsed(),
        })
    }
}

/// Summary of one [`Scheduler::run`].
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// Jobs executed.
    pub jobs: usize,
    /// Records streamed to the sink.
    pub records: usize,
    /// Worker threads actually used: capped at the jobs left to
    /// simulate after cache hits (at least 1).
    pub workers: usize,
    /// Always 0: workers claim jobs from one cursor and never steal.
    /// Kept while the benchmark's traced replica
    /// (`examples/sf_benchmark`) still reads it.
    pub steals: usize,
    /// Jobs served from the attached [`ResultCache`] (0 when no cache
    /// is attached). `cache_hits + cache_misses = jobs` exactly when a
    /// cache is in play.
    pub cache_hits: usize,
    /// Jobs that simulated because the cache had no valid entry — the
    /// *delta* of an incremental resubmission (0 when no cache is
    /// attached).
    pub cache_misses: usize,
    /// Completed jobs whose write-through to the cache failed (disk
    /// full, permissions); the run itself is unaffected.
    pub cache_store_errors: usize,
    /// Wall-clock execution time (excluding [`JobSet::prepare`] when
    /// the caller prepared the set beforehand).
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExperimentPlan;
    use crate::sink::MemorySink;
    use proptest::prelude::*;

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "sched-test"
            [[sweep]]
            topo = "sf:q=5"
            routing = ["min", "val"]
            loads = [0.1, 0.2, 0.3]
            [sweep.sim]
            warmup = 120
            measure = 240
            drain = 800
            "#,
        )
        .unwrap()
    }

    fn csv_of(plan: &ExperimentPlan, workers: usize) -> String {
        let mut set = plan.expand().unwrap();
        let mut sink = MemorySink::new();
        let report = Scheduler::new(workers).run(&mut set, &mut sink).unwrap();
        assert_eq!(report.records, set.num_records());
        sink.records()
            .iter()
            .map(|r| r.to_csv())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parallel_stream_is_byte_identical_to_sequential() {
        let plan = tiny_plan();
        assert_eq!(csv_of(&plan, 1), csv_of(&plan, 4));
    }

    #[test]
    fn report_counts_jobs_and_workers() {
        let plan = tiny_plan();
        let mut set = plan.expand().unwrap();
        let mut sink = MemorySink::new();
        let report = Scheduler::new(3).run(&mut set, &mut sink).unwrap();
        assert_eq!(report.jobs, 6);
        assert_eq!(report.records, 6);
        assert_eq!(report.workers, 3);
        // Worker cap: more workers than jobs clamps.
        let report = Scheduler::new(64).run(&mut set, &mut sink).unwrap();
        assert_eq!(report.workers, 6);
    }

    #[test]
    fn job_errors_surface_after_drain() {
        // A worst-case pattern on a topology without one fails inside
        // the job, not at expansion.
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "err"
            [[sweep]]
            topo = "dln:nr=4,y=2"
            traffic = "worst"
            loads = [0.1]
            "#,
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        let mut sink = MemorySink::new();
        let err = Scheduler::new(2).run(&mut set, &mut sink).unwrap_err();
        assert!(matches!(err, SfError::Traffic(_)), "{err}");
    }

    #[test]
    fn completed_prefix_streams_despite_a_later_job_error() {
        // Job 0 (uniform sf:q=5) succeeds, job 1 (worst-case on a DLN)
        // fails fast — often *before* job 0 completes on the second
        // worker. The error must surface, but job 0's record precedes
        // the failing id and must still reach the sink.
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "prefix"
            [defaults.sim]
            warmup = 150
            measure = 300
            drain = 1000
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.3]
            [[sweep]]
            topo = "dln:nr=4,y=2"
            traffic = "worst"
            loads = [0.1]
            "#,
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        let mut sink = MemorySink::new();
        let err = Scheduler::new(2).run(&mut set, &mut sink).unwrap_err();
        assert!(matches!(err, SfError::Traffic(_)), "{err}");
        assert_eq!(sink.records().len(), 1, "job 0's record must survive");
        assert_eq!(sink.records()[0].spec, "sf:q=5");
    }

    #[test]
    fn a_failing_run_still_runs_every_job_below_the_failing_id() {
        // One worker claims the slow job 0; the other claims jobs 1, 2
        // and the failing job 3 while job 0 is still running. Every
        // job below 3 is claimed by then, and all of them must still
        // finish and stream, job 0 included.
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "prefix"
            [defaults.sim]
            warmup = 150
            measure = 300
            drain = 1000
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.5]
            sim = { warmup = 1000, measure = 3000 }
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.0]
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.1]
            [[sweep]]
            topo = "dln:nr=4,y=2"
            traffic = "worst"
            loads = [0.1]
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.1]
            "#,
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        assert_eq!(set.jobs().len(), 5);
        let mut sink = MemorySink::new();
        let err = Scheduler::new(2).run(&mut set, &mut sink).unwrap_err();
        assert!(matches!(err, SfError::Traffic(_)), "{err}");
        let loads: Vec<f64> = sink.records().iter().map(|r| r.offered).collect();
        assert_eq!(loads, [0.5, 0.0, 0.1], "jobs 0, 1 and 2, in order");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(Scheduler::default_workers() >= 1);
        assert!(Scheduler::default().workers() >= 1);
    }

    /// A sink that rejects its `fail_at`-th `record` call (counting
    /// from 1), accepts every other, and counts the records it accepted
    /// and its `finish` calls.
    struct FailingSink {
        fail_at: usize,
        calls: usize,
        accepted: usize,
        finished: usize,
    }

    impl RecordSink for FailingSink {
        fn record(&mut self, _: &Record) -> Result<(), SfError> {
            self.calls += 1;
            if self.calls == self.fail_at {
                return Err(SfError::Experiment("sink full".into()));
            }
            self.accepted += 1;
            Ok(())
        }

        fn finish(&mut self) -> Result<(), SfError> {
            self.finished += 1;
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_ends_the_run_with_its_error_and_still_flushes() {
        let plan = tiny_plan();
        for workers in [1, 2] {
            for fail_at in [1, 4, 6] {
                let mut set = plan.expand().unwrap();
                let mut sink = FailingSink {
                    fail_at,
                    calls: 0,
                    accepted: 0,
                    finished: 0,
                };
                let err = Scheduler::new(workers)
                    .run(&mut set, &mut sink)
                    .unwrap_err();
                let case = format!("workers={workers} fail_at={fail_at}");
                assert!(
                    matches!(&err, SfError::Experiment(m) if m == "sink full"),
                    "{case}: {err}"
                );
                assert_eq!(sink.accepted, fail_at - 1, "{case}");
                assert_eq!(sink.finished, 1, "{case}: finish must still run");
            }
        }
    }

    /// `n` one-record jobs: `sf:q=5` at distinct loads, except job
    /// `fail`, worst-case traffic on a DLN (which has no worst-case
    /// pattern, so the job itself fails).
    fn plan_failing_at(n: usize, fail: usize) -> ExperimentPlan {
        let mut toml = String::from(
            "[figure]\nname = \"fail-at\"\n\
             [defaults.sim]\nwarmup = 20\nmeasure = 40\ndrain = 60\n",
        );
        for j in 0..n {
            if j == fail {
                toml.push_str(
                    "[[sweep]]\ntopo = \"dln:nr=4,y=2\"\ntraffic = \"worst\"\nloads = [0.1]\n",
                );
            } else {
                let load = 0.05 * (j + 1) as f64;
                toml.push_str(&format!(
                    "[[sweep]]\ntopo = \"sf:q=5\"\nloads = [{load:.2}]\n"
                ));
            }
        }
        ExperimentPlan::from_toml_str(&toml).unwrap()
    }

    fn fresh_cache() -> ResultCache {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sf-schedtest-{}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The completed-prefix contract with cache hits mixed in: a
        /// failing job streams exactly the records of every job below
        /// it, in id order, whether they simulated or came from the
        /// cache, and its own error is the one returned.
        #[test]
        fn a_job_error_streams_exactly_the_jobs_below_it(
            (n, fail) in (2usize..=6).prop_flat_map(|n| (Just(n), 0..n)),
            workers in 1usize..=3,
            stored in 0u32..64,
        ) {
            let mut set = plan_failing_at(n, fail).expand().unwrap();
            set.prepare().unwrap();
            let cache = fresh_cache();
            let mut want = Vec::new();
            for job in &set.jobs()[..fail] {
                let records = set.run_job(job).unwrap();
                if stored >> job.id & 1 == 1 {
                    cache.store(&set.job_key(job), &records).unwrap();
                }
                want.extend(records.iter().map(Record::to_csv));
            }
            let mut sink = MemorySink::new();
            let err = Scheduler::new(workers)
                .with_cache(Some(cache.clone()))
                .run(&mut set, &mut sink)
                .unwrap_err();
            let _ = std::fs::remove_dir_all(cache.root());
            let case = format!("n={n} fail={fail} workers={workers} stored={stored:#b}");
            prop_assert!(matches!(err, SfError::Traffic(_)), "{case}: {err}");
            let got: Vec<String> = sink.records().iter().map(Record::to_csv).collect();
            prop_assert_eq!(got, want, "{}", case);
        }
    }
}
