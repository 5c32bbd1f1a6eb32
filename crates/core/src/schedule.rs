//! The work-stealing sweep scheduler.
//!
//! A [`Scheduler`] executes a [`JobSet`] on persistent worker threads:
//! every worker owns a deque seeded round-robin with job ids, pops its
//! own work from the front, and **steals from the back of a sibling's
//! deque** when it runs dry — so a heterogeneous sweep (a saturated
//! load next to one that drains instantly) keeps every core busy
//! instead of leaving stragglers with a pre-assigned chunk, replacing
//! the fixed-chunk scoped-thread loop the offline `rayon` stand-in
//! used for sweeps.
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
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Executes [`JobSet`]s on persistent work-stealing workers; see the
/// [module docs](self).
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
    /// one — and only the misses are dealt to the worker deques.
    /// Completed misses write through on the emitter thread; a store
    /// failure is counted ([`ScheduleReport::cache_store_errors`]),
    /// never fatal. The cache key is independent of the worker count,
    /// so runs at any worker count share one entry per job.
    pub fn with_cache(mut self, cache: Option<ResultCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The environment override, if any: `SF_WORKERS` if set, else
    /// `RAYON_NUM_THREADS` (the knob the sweep loops honoured before
    /// the scheduler existed).
    fn env_workers() -> Option<usize> {
        for var in ["SF_WORKERS", "RAYON_NUM_THREADS"] {
            if let Some(n) = std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
            {
                return Some(n);
            }
        }
        None
    }

    /// The environment-driven default worker count: `SF_WORKERS` if
    /// set, else `RAYON_NUM_THREADS`, else the machine's available
    /// parallelism.
    pub fn default_workers() -> usize {
        Self::env_workers().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The configured worker count (before the per-run job-count cap).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job of `set`, streaming records to `sink` in job-id
    /// order (see the [module docs](self)). Prepares the set if the
    /// caller has not. On a job failure, workers skip every job at or
    /// above the lowest failing id but still run the jobs below it, the
    /// lowest failing job's error is returned once in-flight jobs
    /// drain, and the records of every job *preceding* that id stream —
    /// the completed prefix survives in every sink, whatever the timing.
    pub fn run(
        &self,
        set: &mut JobSet,
        sink: &mut dyn RecordSink,
    ) -> Result<ScheduleReport, SfError> {
        set.prepare()?;
        // sf-lint: allow(wall-clock): operator-facing elapsed-time meter; never feeds records
        let t0 = Instant::now();
        let jobs = set.jobs();
        // Cache prepass: resolve every job's content address before
        // any worker claims anything. Hits park in the reorder
        // frontier up front (they stream in job-id order exactly like
        // simulated results); only misses are dealt to workers — so
        // the worker count, the steal pattern, and the wall-clock all
        // scale with the *delta*, not the plan size.
        let mut hits: BTreeMap<usize, Vec<Record>> = BTreeMap::new();
        if let Some(cache) = &self.cache {
            for job in jobs {
                if let Some(records) = cache.lookup(&set.job_key(job)) {
                    // Belt and braces: an entry that does not carry
                    // one record per load cannot be this job's.
                    if records.len() == job.loads.len() {
                        hits.insert(job.id, records);
                    }
                }
            }
        }
        let cache_hits = hits.len();
        let cache_misses = if self.cache.is_some() {
            jobs.len() - cache_hits
        } else {
            0
        };
        let miss_ids: Vec<usize> = jobs
            .iter()
            .map(|j| j.id)
            .filter(|id| !hits.contains_key(id))
            .collect();
        let workers = self.workers.min(miss_ids.len()).max(1);
        sink.begin()?;
        let mut emitted = 0usize;
        let mut steals = 0usize;
        let mut cache_store_errors = 0usize;
        // First error of the run; the completed record prefix reaches
        // the sink (and gets flushed) even on the error path.
        let mut run_err: Option<SfError> = None;
        if workers == 1 || miss_ids.is_empty() {
            'seq: for job in jobs {
                let records = match hits.remove(&job.id) {
                    Some(cached) => cached,
                    None => match set.run_job(job) {
                        Ok(records) => {
                            if let Some(cache) = &self.cache {
                                if cache.store(&set.job_key(job), &records).is_err() {
                                    cache_store_errors += 1;
                                }
                            }
                            records
                        }
                        Err(e) => {
                            run_err = Some(e);
                            break;
                        }
                    },
                };
                for r in &records {
                    if let Err(e) = sink.record(r) {
                        run_err = Some(e);
                        break 'seq;
                    }
                    emitted += 1;
                }
            }
        } else {
            // Seed the worker deques round-robin over the *misses* so
            // consecutive (often similarly heavy) jobs land on
            // different workers.
            let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
                .map(|w| {
                    Mutex::new(
                        miss_ids
                            .iter()
                            .copied()
                            .skip(w)
                            .step_by(workers)
                            .collect::<VecDeque<usize>>(),
                    )
                })
                .collect();
            let steal_count = AtomicUsize::new(0);
            // The lowest failing job id (0 after a sink failure):
            // workers skip every job at or above it, so a failing sweep
            // does not burn hours on doomed work, but still run every
            // job below it, whose records the completed prefix needs.
            let skip_from = AtomicUsize::new(usize::MAX);
            let (tx, rx) = mpsc::channel();
            // Lowest failing job id and its error; records of complete
            // jobs *below* that id still stream (the completed prefix
            // survives in every sink). A sink failure stops emission
            // outright.
            let mut job_err: Option<(usize, SfError)> = None;
            let mut sink_err: Option<SfError> = None;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let queues = &queues;
                    let steal_count = &steal_count;
                    let skip_from = &skip_from;
                    let set: &JobSet = set;
                    scope.spawn(move || loop {
                        // Own deque first (front), then steal from the
                        // back of the first non-empty sibling.
                        let mut claimed = queues[w].lock().expect("queue poisoned").pop_front();
                        if claimed.is_none() {
                            for v in 1..workers {
                                let victim = (w + v) % workers;
                                claimed = queues[victim].lock().expect("queue poisoned").pop_back();
                                if claimed.is_some() {
                                    steal_count.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        let Some(id) = claimed else { break };
                        if id >= skip_from.load(Ordering::Relaxed) {
                            continue;
                        }
                        let result = set.run_job(&set.jobs()[id]);
                        if tx.send((id, result)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                /// Streams every frontier job whose turn has come:
                /// records reach the sink strictly in job-id order, up
                /// to (never past) the lowest failing id.
                fn drain(
                    pending: &mut BTreeMap<usize, Vec<Record>>,
                    next: &mut usize,
                    sink: &mut dyn RecordSink,
                    emitted: &mut usize,
                    job_err: &Option<(usize, SfError)>,
                    sink_err: &mut Option<SfError>,
                    skip_from: &AtomicUsize,
                ) {
                    'emit: while sink_err.is_none()
                        && job_err.as_ref().is_none_or(|(eid, _)| *next < *eid)
                    {
                        let Some(records) = pending.remove(next) else {
                            break;
                        };
                        for r in &records {
                            if let Err(e) = sink.record(r) {
                                *sink_err = Some(e);
                                skip_from.store(0, Ordering::Relaxed);
                                break 'emit;
                            }
                            *emitted += 1;
                        }
                        *next += 1;
                    }
                }
                // Reorder frontier: stream each completed job the
                // moment every lower job id has been emitted. Cache
                // hits are parked here up front; drain once before
                // listening so an all-hit prefix streams immediately.
                let mut pending = hits;
                let mut next = 0usize;
                drain(
                    &mut pending,
                    &mut next,
                    &mut *sink,
                    &mut emitted,
                    &job_err,
                    &mut sink_err,
                    &skip_from,
                );
                for (id, result) in rx {
                    match result {
                        Ok(records) => {
                            // Write-through on the emitter thread (the
                            // workers stay pure simulation); a store
                            // failure downgrades to a counter.
                            if let Some(cache) = &self.cache {
                                if cache.store(&set.job_key(&jobs[id]), &records).is_err() {
                                    cache_store_errors += 1;
                                }
                            }
                            pending.insert(id, records);
                            drain(
                                &mut pending,
                                &mut next,
                                &mut *sink,
                                &mut emitted,
                                &job_err,
                                &mut sink_err,
                                &skip_from,
                            );
                        }
                        Err(e) => {
                            skip_from.fetch_min(id, Ordering::Relaxed);
                            if job_err.as_ref().is_none_or(|(eid, _)| id < *eid) {
                                job_err = Some((id, e));
                            }
                        }
                    }
                }
                // Workers are done; a failing run may still have
                // cache hits parked below the failing id — the
                // completed-prefix contract covers them too.
                drain(
                    &mut pending,
                    &mut next,
                    &mut *sink,
                    &mut emitted,
                    &job_err,
                    &mut sink_err,
                    &skip_from,
                );
            });
            steals = steal_count.load(Ordering::Relaxed);
            run_err = sink_err.or(job_err.map(|(_, e)| e));
        }
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
            workers,
            steals,
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
    /// Successful steals between worker deques (0 on sequential runs).
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

    fn tiny_plan(warm: bool) -> ExperimentPlan {
        ExperimentPlan::from_toml_str(&format!(
            r#"
            [figure]
            name = "sched-test"
            [[sweep]]
            topo = "sf:q=5"
            routing = ["min", "val"]
            loads = [0.1, 0.2, 0.3]
            warm_start = {warm}
            [sweep.sim]
            warmup = 120
            measure = 240
            drain = 800
            "#
        ))
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
        for warm in [false, true] {
            let plan = tiny_plan(warm);
            let seq = csv_of(&plan, 1);
            let par = csv_of(&plan, 4);
            assert_eq!(seq, par, "warm={warm}");
        }
    }

    #[test]
    fn report_counts_jobs_and_workers() {
        let plan = tiny_plan(false);
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
        // Worker 0 is dealt jobs 0, 2 and 4, worker 1 jobs 1 and 3.
        // Worker 1 reaches the failing job 3 while worker 0 is still
        // in the slow job 0; job 2 has not been claimed yet but
        // precedes the failure, so it must still run and stream.
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
}
