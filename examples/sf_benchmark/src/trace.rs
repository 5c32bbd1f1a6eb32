//! The traced run: one untraced reference pass through the scheduler,
//! then a single-threaded replica of the same jobs, in job-id order,
//! through each layer's public functions with a span around every call.
//! The replica must reproduce the reference records; per-layer numbers
//! are self-time sums by span name plus the counters below.

use crate::check::{per_job, Row};
use crate::config::{Workload, WORKERS};
use crate::measure::{
    active_pins, check_cold, parse_plan, pass, proc_cpu_s, setup, Outcome, Scratch,
};
use crate::stats::{median, tail};
use rand::rngs::StdRng;
use slimfly::flow::{self, Demand, EdgeIndex, FlowError, RoutingLoads};
use slimfly::routing::{QueueView, RouteCtx, RouteDecision, Router, RoutingSpec};
use slimfly::sim::{LoadSweep, Simulator};
use slimfly::sink::{CsvSink, RecordSink};
use slimfly::traffic::{TrafficPattern, TrafficSpec};
use slimfly::{Backend, Job, JobSet, ResultCache};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One timed interval. `parent` is the span open when it started; `job`
/// the job being replayed, if any.
struct Span {
    parent: Option<usize>,
    job: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder with a stack of open spans.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            job: self.job,
            name,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in reverse order of opening");
        self.spans[id].end_ns = end;
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// Records `dur_ns` of work done inside the open span in many short
    /// calls (the routing hooks) as one child span from `start_ns`, so
    /// self times subtract it like any other child.
    fn packed(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            parent: self.open.last().copied(),
            job: self.job,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Self time in ns summed by span name: each span's duration minus
    /// the durations of its direct children.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.parent),
                opt(s.job),
                s.name,
                s.start_ns,
                s.end_ns
            )
            .map_err(err)?;
        }
        w.flush().map_err(err)
    }
}

/// Wraps a router: forwards every hook unchanged (the RNG passes
/// through untouched, so decisions are identical), counts calls and
/// queue probes, and times each call.
struct Probe<'r> {
    inner: &'r dyn Router,
    route_calls: AtomicU64,
    queue_probes: AtomicU64,
    decide_ns: AtomicU64,
}

/// Counts `QueueView::occupancy` calls made during one decision.
struct CountingQueues<'q> {
    inner: &'q dyn QueueView,
    probes: Cell<u64>,
}

impl QueueView for CountingQueues<'_> {
    fn occupancy(&self, r: u32, to: u32) -> u32 {
        self.probes.set(self.probes.get() + 1);
        self.inner.occupancy(r, to)
    }
}

impl<'r> Probe<'r> {
    fn new(inner: &'r dyn Router) -> Self {
        Probe {
            inner,
            route_calls: AtomicU64::new(0),
            queue_probes: AtomicU64::new(0),
            decide_ns: AtomicU64::new(0),
        }
    }

    fn call<T>(&self, ctx: &RouteCtx<'_>, f: impl FnOnce(&RouteCtx<'_>) -> T) -> T {
        let queues = CountingQueues {
            inner: ctx.queues,
            probes: Cell::new(0),
        };
        let counted = RouteCtx {
            graph: ctx.graph,
            tables: ctx.tables,
            queues: &queues,
            src: ctx.src,
            dst: ctx.dst,
            flow: ctx.flow,
            now: ctx.now,
        };
        let t = Instant::now();
        let out = f(&counted);
        self.decide_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.queue_probes.fetch_add(queues.probes.get(), Relaxed);
        out
    }
}

impl Router for Probe<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn route(&self, ctx: &RouteCtx<'_>, rng: &mut StdRng) -> RouteDecision {
        self.route_calls.fetch_add(1, Relaxed);
        self.call(ctx, |c| self.inner.route(c, rng))
    }

    fn next_hop(&self, ctx: &RouteCtx<'_>, cur: u32, rng: &mut StdRng) -> u32 {
        self.route_calls.fetch_add(1, Relaxed);
        self.call(ctx, |c| self.inner.next_hop(c, cur, rng))
    }
}

/// Work counters of the replica.
#[derive(Default)]
struct Counters {
    cycles: u64,
    router_cycles: u64,
    flits: u64,
    saturated: u64,
    route_calls: u64,
    queue_probes: u64,
    lowerings: u64,
}

/// Which flow lowering a cache slot holds: the MIN and VAL loads are
/// shared per (topology, traffic); UGAL mixes and FatPaths loads are
/// per routing, as in `JobSet`.
#[derive(Clone, Copy, PartialEq)]
enum Lower {
    Min,
    Val,
    Routing(RoutingSpec),
}

/// A cached lowering, keyed by (instance, lowering, traffic). Errors
/// are cached too: they depend only on the key.
type LowerSlot = ((usize, Lower, TrafficSpec), Result<RoutingLoads, FlowError>);

/// The replica's build caches, keyed the way `JobSet` keys its own.
#[derive(Default)]
struct Caches {
    routers: Vec<((usize, RoutingSpec), Box<dyn Router>)>,
    patterns: Vec<((usize, TrafficSpec), TrafficPattern)>,
    index: Vec<(usize, EdgeIndex)>,
    demands: Vec<((usize, TrafficSpec), Demand)>,
    lowerings: Vec<LowerSlot>,
}

fn slot<K: PartialEq, V>(v: &[(K, V)], k: &K) -> Option<usize> {
    v.iter().position(|(key, _)| key == k)
}

fn pattern(set: &JobSet, job: &Job, tr: &mut Tracer, c: &mut Caches) -> Result<usize, String> {
    let key = (job.topo, job.traffic);
    if let Some(i) = slot(&c.patterns, &key) {
        return Ok(i);
    }
    let ctx = set.ctx(job);
    let built = tr.timed("traffic.build", || {
        job.traffic.build_with(&ctx.net, || ctx.tables())
    });
    c.patterns.push((key, built.map_err(|e| e.to_string())?));
    Ok(c.patterns.len() - 1)
}

fn cycle_job(
    set: &JobSet,
    job: &Job,
    tr: &mut Tracer,
    c: &mut Caches,
    n: &mut Counters,
) -> Result<Vec<Row>, String> {
    let ctx = set.ctx(job);
    let key = (job.topo, job.routing);
    let ri = match slot(&c.routers, &key) {
        Some(i) => i,
        None => {
            let built = tr.timed("routing.build", || {
                job.routing.build(&ctx.net.graph, ctx.tables())
            });
            c.routers.push((key, built.map_err(|e| e.to_string())?));
            c.routers.len() - 1
        }
    };
    let pi = pattern(set, job, tr, c)?;
    let (router, pat) = (&*c.routers[ri].1, &c.patterns[pi].1);
    let mut rows = Vec::new();
    for &load in &job.loads {
        let mut cfg = job.sim;
        cfg.seed = LoadSweep::seed_for_load(&job.sim, load);
        let probe = Probe::new(router);
        let sim = tr.timed("sim.new", || {
            Simulator::new(&ctx.net, ctx.tables(), &probe, pat, load, cfg)
        });
        let s = tr.open("sim.run");
        let start = tr.now();
        let r = sim.run();
        tr.packed("routing.decide", start, probe.decide_ns.load(Relaxed));
        tr.close(s);
        n.cycles += r.cycles as u64;
        n.router_cycles += r.cycles as u64 * ctx.net.num_routers() as u64;
        n.flits += r.ejected_flits;
        n.saturated += r.saturated as u64;
        n.route_calls += probe.route_calls.load(Relaxed);
        n.queue_probes += probe.queue_probes.load(Relaxed);
        rows.push(Row {
            topology: ctx.net.name.clone(),
            spec: set.topos()[job.topo].to_string(),
            routing: router.label(),
            traffic: pat.name().to_string(),
            backend: Backend::Cycle.as_str().to_string(),
            packet_size: r.packet_size,
            offered: r.offered_load,
            latency: r.avg_latency,
            p99: r.p99_latency,
            accepted: r.accepted,
            avg_hops: r.avg_hops,
            saturated: r.saturated,
            max_link_util: r.max_link_util,
        });
    }
    Ok(rows)
}

/// Returns the cache slot of a lowering, computing it (and, for UGAL,
/// the MIN and VAL loads it mixes) on first use.
fn lower(
    set: &JobSet,
    job: &Job,
    what: Lower,
    (idx, demand): (&EdgeIndex, &Demand),
    tr: &mut Tracer,
    c: &mut Vec<LowerSlot>,
    n: &mut Counters,
) -> usize {
    let key = (job.topo, what, job.traffic);
    if let Some(i) = slot(c, &key) {
        return i;
    }
    let net = &set.ctx(job).net;
    let s = tr.open("flow.lower");
    let result = match what {
        Lower::Min => flow::min_loads(net, idx, demand),
        Lower::Val => flow::valiant_loads(net, idx, demand),
        Lower::Routing(RoutingSpec::FatPaths { layers }) => {
            flow::fatpaths_loads(net, idx, demand, set.ctx(job).tables(), layers)
        }
        Lower::Routing(_) => {
            let m = lower(set, job, Lower::Min, (idx, demand), tr, c, n);
            let v = lower(set, job, Lower::Val, (idx, demand), tr, c, n);
            match (&c[m].1, &c[v].1) {
                (Ok(a), Ok(b)) => Ok(flow::ugal_mix(a, b)),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            }
        }
    };
    tr.close(s);
    n.lowerings += 1;
    c.push((key, result));
    c.len() - 1
}

fn flow_job(
    set: &JobSet,
    job: &Job,
    tr: &mut Tracer,
    c: &mut Caches,
    n: &mut Counters,
) -> Result<Vec<Row>, String> {
    let ctx = set.ctx(job);
    let pi = pattern(set, job, tr, c)?;
    let pat = &c.patterns[pi].1;
    let ii = match slot(&c.index, &job.topo) {
        Some(i) => i,
        None => {
            let idx = tr.timed("flow.index", || EdgeIndex::new(&ctx.net.graph));
            c.index.push((job.topo, idx));
            c.index.len() - 1
        }
    };
    let dkey = (job.topo, job.traffic);
    let di = match slot(&c.demands, &dkey) {
        Some(i) => i,
        None => {
            let d = tr.timed("flow.demand", || Demand::from_pattern(&ctx.net, pat));
            c.demands.push((dkey, d));
            c.demands.len() - 1
        }
    };
    let what = match job.routing {
        RoutingSpec::Min => Lower::Min,
        RoutingSpec::Valiant { cap3: false } => Lower::Val,
        r @ (RoutingSpec::UgalL { .. }
        | RoutingSpec::UgalG { .. }
        | RoutingSpec::FatPaths { .. }) => Lower::Routing(r),
        other => return Err(format!("{other} has no flow lowering")),
    };
    let inputs = (&c.index[ii].1, &c.demands[di].1);
    let li = lower(set, job, what, inputs, tr, &mut c.lowerings, n);
    let rl = c.lowerings[li].1.as_ref().map_err(|e| e.to_string())?;
    Ok(job
        .loads
        .iter()
        .map(|&load| {
            let p = tr.timed("flow.evaluate", || flow::evaluate(rl, load));
            // The latency columns are JobSet's private M/D/1 estimate;
            // the comparison skips them for flow rows.
            Row {
                topology: ctx.net.name.clone(),
                spec: set.topos()[job.topo].to_string(),
                routing: job.routing.label(),
                traffic: pat.name().to_string(),
                backend: Backend::Flow.as_str().to_string(),
                packet_size: job.sim.packet_size,
                offered: load,
                latency: f64::NAN,
                p99: f64::NAN,
                accepted: p.accepted,
                avg_hops: p.avg_hops,
                saturated: p.saturated,
                max_link_util: p.max_util,
            }
        })
        .collect())
}

/// Runs the reference pass and the traced replica of workload `w`, and
/// fails if the replica disagrees with the reference records.
pub fn trace_workload(
    w: &Workload,
    seed: Option<u64>,
    scratch: &Scratch,
    spans: Option<&Path>,
) -> Result<Outcome, String> {
    // Untraced reference: the scheduler numbers and the records the
    // replica must reproduce.
    let pins = active_pins(w, seed)?;
    let (mut rset, _) = setup(w.plan, seed)?;
    let dir = scratch.dir("trace-ref")?;
    let rcache = ResultCache::open(dir.path()).map_err(|e| e.to_string())?;
    let reference = pass(&mut rset, &rcache)?;
    drop(dir);
    let verdicts = check_cold(&rset, &reference, pins.as_ref(), None)?.failures;

    let mut tr = Tracer::new();
    let plan = tr.timed("plan.parse", || parse_plan(w.plan, seed))?;
    let mut set = tr
        .timed("plan.expand", || plan.expand())
        .map_err(|e| e.to_string())?;
    if set.jobs().iter().any(|j| j.warm_start) {
        return Err("the replica does not model warm-start chains".into());
    }
    tr.timed("topo.prepare", || set.prepare())
        .map_err(|e| e.to_string())?;
    // Tables for exactly the instances JobSet builds them for.
    for ti in 0..set.topos().len() {
        let needs = set.jobs().iter().find(|j| {
            j.topo == ti
                && (j.backend == Backend::Cycle
                    || matches!(j.routing, RoutingSpec::FatPaths { .. })
                    || j.traffic == TrafficSpec::WorstCase)
        });
        if let Some(job) = needs {
            let ctx = set.ctx(job);
            tr.timed("routing.tables", || {
                ctx.tables();
            });
        }
    }
    let certs = tr
        .timed("verify", || set.verify())
        .map_err(|e| e.to_string())?;

    let mut caches = Caches::default();
    let mut n = Counters::default();
    let mut job_rows = Vec::new();
    let cpu0 = proc_cpu_s()?;
    for job in set.jobs() {
        tr.job = Some(job.id);
        let s = tr.open("job");
        let rows = match job.backend {
            Backend::Cycle => cycle_job(&set, job, &mut tr, &mut caches, &mut n),
            Backend::Flow => flow_job(&set, job, &mut tr, &mut caches, &mut n),
        };
        tr.close(s);
        job_rows.push(rows);
    }
    tr.job = None;
    let traced_cpu = proc_cpu_s()? - cpu0;

    // The replica must agree with the reference on every column both
    // produce.
    for ((job, want), got) in set
        .jobs()
        .iter()
        .zip(per_job(&rset, &reference.records))
        .zip(&job_rows)
    {
        let agree = match (want, got) {
            (Some(want), Ok(got)) => {
                want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(r, g)| Row::of(r).same(g, job.backend == Backend::Cycle))
            }
            (None, Err(_)) => true,
            _ => false,
        };
        if !agree {
            return Err(format!(
                "traced replica disagrees with the scheduler on job {}: {:?} vs {:?}",
                job.id,
                want.map(|w| w.iter().map(Row::of).collect::<Vec<_>>()),
                got
            ));
        }
    }

    // Cache and sink layers, over the reference records.
    let dir = scratch.dir("trace-cache")?;
    let cache = ResultCache::open(dir.path()).map_err(|e| e.to_string())?;
    let done: Vec<_> = set
        .jobs()
        .iter()
        .zip(per_job(&rset, &reference.records))
        .filter_map(|(j, r)| r.map(|r| (j, r)))
        .collect();
    for &(job, recs) in &done {
        tr.job = Some(job.id);
        tr.timed("cache.store", || cache.store(&set.job_key(job), recs))
            .map_err(|e| e.to_string())?;
    }
    for &(job, recs) in &done {
        tr.job = Some(job.id);
        let hit = tr.timed("cache.lookup", || cache.lookup(&set.job_key(job)));
        if !hit.is_some_and(|h| crate::check::same_records(&h, recs)) {
            return Err(format!("cache lookup of job {} lost its records", job.id));
        }
    }
    tr.job = None;
    let stats = cache.stats().map_err(|e| e.to_string())?;
    drop(dir);
    tr.timed("sink.csv", || -> Result<(), String> {
        let mut sink = CsvSink::new(std::io::sink());
        sink.begin().map_err(|e| e.to_string())?;
        for r in &reference.records {
            sink.record(r).map_err(|e| e.to_string())?;
        }
        sink.finish().map_err(|e| e.to_string())
    })?;

    if let Some(path) = spans {
        tr.write_jsonl(path)?;
    }

    let self_ns = tr.self_ns();
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let job_ms: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let (tail_ms, tail_q) = tail(&job_ms);
    let sim_run_ns = ms("sim.run") * 1e6;
    let cdg_edges: usize = certs
        .iter()
        .map(|c| match c.status {
            slimfly::verify::DeadlockStatus::CdgAcyclic { edges, .. } => edges,
            _ => 0,
        })
        .sum();
    let routers: usize = (0..set.topos().len())
        .filter_map(|ti| set.jobs().iter().find(|j| j.topo == ti))
        .map(|j| set.ctx(j).net.num_routers())
        .sum();
    let metrics: BTreeMap<&'static str, f64> = [
        ("plan.parse_ms", ms("plan.parse")),
        ("plan.expand_ms", ms("plan.expand")),
        ("plan.jobs", set.jobs().len() as f64),
        ("topo.prepare_ms", ms("topo.prepare")),
        ("topo.instances", set.topos().len() as f64),
        ("topo.routers", routers as f64),
        ("routing.tables_ms", ms("routing.tables")),
        ("routing.build_ms", ms("routing.build")),
        ("verify.ms", ms("verify")),
        ("verify.combos", certs.len() as f64),
        ("verify.cdg_edges", cdg_edges as f64),
        ("traffic.build_ms", ms("traffic.build")),
        ("sim.new_ms", ms("sim.new")),
        ("sim.run_ms", ms("sim.run")),
        ("sim.cycles", n.cycles as f64),
        ("sim.router_cycles", n.router_cycles as f64),
        ("sim.flits", n.flits as f64),
        (
            "sim.ns_per_router_cycle",
            ratio(sim_run_ns, n.router_cycles as f64),
        ),
        ("sim.ns_per_flit", ratio(sim_run_ns, n.flits as f64)),
        ("sim.saturated", n.saturated as f64),
        ("routing.route_calls", n.route_calls as f64),
        ("routing.queue_probes", n.queue_probes as f64),
        ("routing.decide_ms", ms("routing.decide")),
        (
            "routing.decide_share",
            ratio(ms("routing.decide"), ms("routing.decide") + ms("sim.run")),
        ),
        ("flow.index_ms", ms("flow.index")),
        ("flow.demand_ms", ms("flow.demand")),
        ("flow.lower_ms", ms("flow.lower")),
        ("flow.evaluate_ms", ms("flow.evaluate")),
        ("flow.lowerings", n.lowerings as f64),
        ("cache.store_ms", ms("cache.store")),
        ("cache.lookup_ms", ms("cache.lookup")),
        ("cache.entries", stats.entries() as f64),
        ("cache.bytes", stats.bytes as f64),
        ("sink.csv_ms", ms("sink.csv")),
        (
            "schedule.steals",
            reference.report.as_ref().map_or(0, |r| r.steals) as f64,
        ),
        (
            "schedule.busy_frac",
            ratio(reference.cpu_s, reference.wall_s * WORKERS as f64),
        ),
        ("job.count", job_ms.len() as f64),
        ("job.ms_p50", median(&job_ms)),
        ("job.ms_tail", tail_ms),
        ("trace.overhead", ratio(traced_cpu, reference.cpu_s)),
    ]
    .into_iter()
    .collect();

    let failures: Vec<String> = verdicts
        .iter()
        .enumerate()
        .filter_map(|(id, v)| v.as_ref().map(|v| format!("job {id}: {v}")))
        .collect();
    Ok(Outcome {
        attempted: set.jobs().len(),
        failed: failures.len(),
        pinned: pins.is_some(),
        failures,
        metrics,
        notes: vec![format!(
            "job.ms_tail is the p{:.1} of {} job spans",
            tail_q * 100.0,
            job_ms.len()
        )],
    })
}
