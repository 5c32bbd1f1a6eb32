//! Experiments as data: the declarative [`ExperimentPlan`].
//!
//! A plan is the checked-in, runnable description of a whole paper
//! figure — a list of sweeps, each a cross-product of topologies ×
//! routings × one traffic pattern × offered loads under one simulator
//! configuration. Plans parse from TOML experiment files
//! ([`ExperimentPlan::from_path`]) and expand to a flat,
//! deterministic [`JobSet`] ([`ExperimentPlan::expand`]) that the
//! [`Scheduler`](crate::schedule::Scheduler) executes on parallel
//! workers. The fluent [`Experiment`](crate::Experiment) builder is a
//! front-end that lowers to a single-sweep plan
//! ([`Experiment::to_plan`](crate::Experiment::to_plan)).
//!
//! # Experiment-file schema (TOML)
//!
//! ```toml
//! [figure]
//! name = "fig8"                     # required
//! title = "Oversubscribed Slim Fly" # optional
//!
//! [defaults]                        # optional; a sweep's own keys replace these
//! loads = [0.1, 0.5, 0.9]
//! routing = ["min", "ugal-l:c=4"]
//! traffic = "uniform"
//! backend = "cycle"                 # or "flow"
//!
//! [defaults.sim]                    # any SimConfig field
//! warmup = 1000
//! measure = 2000
//! drain = 6000
//!
//! [[sweep]]                         # one or more sweeps
//! topo = "sf:q=7"                   # or: topos = ["sf:q=7", "df:p=3"]
//! traffic = "shuffle"               # overrides the default
//! loads = [0.05, 0.1, 0.2]
//! backend = "flow"                  # simulation tier for this sweep
//! # backends = ["cycle", "flow"]    # or matrix sugar: one sweep per tier
//! packet_sizes = [1, 4, 16]         # matrix sugar: one sweep per size
//! fault_fractions = [0.0, 0.02]     # matrix sugar: one sweep per kill fraction
//!
//! [sweep.faults]                    # boot-time fault injection
//! links = 0.02                      # fraction of cables killed
//! routers = 0.0                     # fraction of routers killed
//! seed = 7                          # kill-set sampler seed
//! mode = "random"                   # or "adversarial"
//!
//! [sweep.sim]                       # per-sweep SimConfig overrides
//! num_vcs = 6
//! packet_size = 4                   # flits per packet (wormhole)
//! ```
//!
//! **Defaults**: `[defaults]` takes the keys it shares with a sweep
//! (`routing`, `traffic`, `loads`, `sim`, `backend`) and is applied
//! once, onto the built-in defaults of [`SweepPlan::default`] (MIN,
//! uniform, loads 0.1–0.9, [`SimConfig::default`], the cycle backend).
//! A sweep's own key replaces the default, except `sim`, whose keys
//! merge one by one over `[defaults.sim]`. Every `[defaults]` value
//! must parse even when every sweep overrides it, and the engine
//! bounds apply to each sweep's merged `sim`.
//!
//! **Matrix sugar**: `backends = [...]`, `fault_fractions = [...]`
//! and/or `packet_sizes = [...]` expand one `[[sweep]]` template into
//! the cross product of sweeps (backends outermost, then fault
//! fractions, packet sizes innermost, each in file order) at parse
//! time — `packet_sizes = [1, 4, 16]` is exactly three copies of the
//! sweep differing only in `sim.packet_size`. `fault_fractions` copies
//! the sweep per fraction, overriding `faults.links` (other
//! [`FaultPlan`] fields — `routers`, `seed`, `mode` — come from the
//! sweep's `faults` table, or its defaults). A parsed plan holds only
//! the expanded sweeps.
//!
//! # Fault injection
//!
//! A sweep's `faults` table lowers to an explicit seeded kill-set
//! ([`sf_graph::fault::kill_set`]) that [`JobSet::prepare`] applies to
//! the freshly built network via [`Network::degrade`]: dead routers
//! lose their endpoints, dead cables vanish from the router graph, and
//! routing tables, routers, traffic patterns, flow lowerings and the
//! static deadlock certificates are all derived from the **degraded**
//! topology. A kill-set that partitions the live routers is a typed
//! boot-time error, not a silent skew. Zero-fraction fault plans are
//! normalized away at expansion, so they share the intact topology
//! context with fault-free sweeps — bit-identical records, proven by
//! test. Worst-case traffic composed with fault injection is rejected
//! at expansion: the adversarial permutations are derived from intact
//! structure and would silently target dead routers.
//!
//! # Backends
//!
//! `backend` selects the simulation tier per sweep: `"cycle"` (default)
//! runs the flit-level engine; `"flow"` runs the analytic flow-level
//! backend in `sf-flow` — max-min fair-share rates over the same
//! topology/routing/traffic grammars, which scales to networks the flit
//! engine cannot touch (an `sf:q=79` Slim Fly has ~50k endpoints).
//! Flow jobs run through the same scheduler, workers and sinks, and
//! emit the same [`Record`] rows tagged `backend = "flow"`. Routings
//! whose decisions depend on live queue state per flit (`ecmp`/ANCA)
//! and the `val:cap3` ablation have no flow lowering and are rejected
//! at [`ExperimentPlan::expand`] with a typed [`SfError::Flow`].
//!
//! Leaf values reuse the workspace string grammars: topologies are
//! [`TopologySpec`] strings, routings [`RoutingSpec`] strings, traffic
//! a [`TrafficSpec`] name.
//!
//! # Expansion and determinism
//!
//! [`ExperimentPlan::expand`] flattens sweeps in file order, each sweep
//! over its topologies, then routings, then loads — exactly the
//! nesting the fluent builder executes — assigning consecutive job
//! ids. Record order is **defined by job id**, never by completion
//! order, so a parallel run's output is byte-identical to a sequential
//! one. Every load is its own [`Job`] and runs cold on a fresh
//! simulator, bit-identical to the builder path.

use crate::error::SfError;
use crate::experiment::Record;
use crate::spec::TopologySpec;
use rayon::prelude::*;
use sf_flow::{Demand, EdgeIndex, FlowError, RoutingLoads};
use sf_graph::fault::{self, FaultMode};
use sf_routing::{Router, RoutingError, RoutingSpec, RoutingTables};
use sf_sim::{LoadSweep, SimConfig, Simulator};
use sf_topo::Network;
use sf_traffic::{TrafficError, TrafficPattern, TrafficSpec};
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::sync::OnceLock;
use toml::Value;

/// The simulation tier a sweep runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The cycle-based flit-level engine (`sf-sim`).
    #[default]
    Cycle,
    /// The analytic flow-level backend (`sf-flow`): max-min fair-share
    /// rates over lowered path sets.
    Flow,
}

impl Backend {
    /// Canonical name, as used in plan files and the `backend` record
    /// column.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Cycle => "cycle",
            Backend::Flow => "flow",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Backend {
    type Err = SfError;

    fn from_str(s: &str) -> Result<Self, SfError> {
        match s {
            "cycle" => Ok(Backend::Cycle),
            "flow" => Ok(Backend::Flow),
            other => Err(SfError::Plan(format!(
                "unknown backend {other:?} (expected \"cycle\" or \"flow\")"
            ))),
        }
    }
}

/// A sweep's declarative fault injection: the fractions, seed and
/// sampling mode that lower to an explicit kill-set
/// ([`sf_graph::fault::kill_set`]) on the sweep's topologies at
/// [`JobSet::prepare`] time. Deterministic: one `(links, routers,
/// seed, mode)` tuple names one kill-set per topology, forever.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Fraction of cables killed, in \[0, 1\].
    pub links: f64,
    /// Fraction of routers killed, in \[0, 1\] (their endpoints and
    /// incident cables die with them).
    pub routers: f64,
    /// Seed of the kill-set sampler.
    pub seed: u64,
    /// Sampling mode: uniformly random or adversarially concentrated.
    pub mode: FaultMode,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            links: 0.0,
            routers: 0.0,
            seed: 7,
            mode: FaultMode::Random,
        }
    }
}

impl FaultPlan {
    /// True when the plan kills nothing; expansion normalizes such
    /// plans away so they share topology contexts (and therefore
    /// records, bit for bit) with fault-free sweeps.
    pub fn is_noop(&self) -> bool {
        self.links == 0.0 && self.routers == 0.0
    }

    /// The name suffix a degraded network instance carries (appended
    /// to the intact name by [`Network::degrade`]).
    pub fn suffix(&self) -> String {
        format!(
            " [faults l={} r={} s={} {}]",
            self.links, self.routers, self.seed, self.mode
        )
    }

    /// Interprets a `faults` table.
    fn from_value(v: &Value) -> Result<Self, SfError> {
        let t = v.as_table().ok_or_else(|| {
            plan_err("faults must be a table like { links = 0.02, seed = 7, mode = \"random\" }")
        })?;
        let mut fp = FaultPlan::default();
        for (key, val) in t {
            match key.as_str() {
                "links" => fp.links = parse_fraction(val, "faults.links")?,
                "routers" => fp.routers = parse_fraction(val, "faults.routers")?,
                "seed" => {
                    // Same u64 handling as sim.seed: values above
                    // i64::MAX travel as strings.
                    fp.seed = match val {
                        Value::String(s) => s.parse::<u64>().ok(),
                        _ => val.as_int().filter(|&i| i >= 0).map(|i| i as u64),
                    }
                    .ok_or_else(|| plan_err("faults.seed must be a non-negative integer"))?
                }
                "mode" => {
                    fp.mode = val
                        .as_str()
                        .ok_or_else(|| {
                            plan_err("faults.mode must be \"random\" or \"adversarial\"")
                        })?
                        .parse()
                        .map_err(|e: String| plan_err(&e))?
                }
                other => return Err(plan_err(&format!("unknown faults key {other:?}"))),
            }
        }
        Ok(fp)
    }
}

/// Parses a fault fraction: a number in \[0, 1\].
fn parse_fraction(v: &Value, key: &str) -> Result<f64, SfError> {
    v.as_float()
        .filter(|f| (0.0..=1.0).contains(f) && !f.is_nan())
        .ok_or_else(|| plan_err(&format!("{key} must be a number in [0, 1]")))
}

/// A declarative experiment: what a `figures/*.toml` file describes
/// and the fluent builder lowers to.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentPlan {
    /// Short identifier (`fig8`); used in reports and logs.
    pub name: String,
    /// Optional human title for report headings.
    pub title: Option<String>,
    /// The sweeps, executed in order.
    pub sweeps: Vec<SweepPlan>,
}

/// One sweep of a plan: topologies × routings × loads under one
/// traffic pattern and simulator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPlan {
    /// Topologies, by declarative spec.
    pub topos: Vec<TopologySpec>,
    /// Routing schemes, in sweep order.
    pub routings: Vec<RoutingSpec>,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// Offered loads, in sweep order.
    pub loads: Vec<f64>,
    /// Fully-resolved simulator configuration.
    pub sim: SimConfig,
    /// Simulation tier (cycle engine or flow-level model).
    pub backend: Backend,
    /// Boot-time fault injection applied to every topology of this
    /// sweep (`None`: intact network).
    pub faults: Option<FaultPlan>,
}

impl Default for SweepPlan {
    fn default() -> Self {
        SweepPlan {
            topos: Vec::new(),
            routings: vec![RoutingSpec::Min],
            traffic: TrafficSpec::Uniform,
            loads: (1..10).map(|i| i as f64 / 10.0).collect(),
            sim: SimConfig::default(),
            backend: Backend::Cycle,
            faults: None,
        }
    }
}

impl ExperimentPlan {
    /// Parses a TOML experiment file.
    pub fn from_toml_str(text: &str) -> Result<Self, SfError> {
        let value = toml::from_str(text).map_err(|e| SfError::Plan(e.to_string()))?;
        Self::from_value(&value)
    }

    /// Loads a plan from a `.toml` file. Any other extension is a
    /// typed error before the file is read.
    pub fn from_path(path: &Path) -> Result<Self, SfError> {
        let at = |msg: String| SfError::Plan(format!("{}: {msg}", path.display()));
        match path.extension() {
            Some(ext) if ext == "toml" => {}
            Some(ext) => {
                return Err(at(format!(
                    "unsupported experiment-file extension .{} (expected .toml)",
                    ext.to_string_lossy()
                )))
            }
            None => {
                return Err(at(
                    "experiment file has no extension (expected .toml)".into()
                ))
            }
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| SfError::Plan(format!("cannot read {}: {e}", path.display())))?;
        Self::from_toml_str(&text).map_err(|e| match e {
            SfError::Plan(msg) => at(msg),
            e => e,
        })
    }

    /// Interprets a parsed value tree against the plan schema.
    pub fn from_value(value: &Value) -> Result<Self, SfError> {
        let root = value
            .as_table()
            .ok_or_else(|| plan_err("the experiment file must be a table at top level"))?;
        for key in root.keys() {
            if !matches!(key.as_str(), "figure" | "defaults" | "sweep") {
                return Err(plan_err(&format!(
                    "unknown top-level key {key:?} (expected figure, defaults, sweep)"
                )));
            }
        }
        let figure = value
            .get("figure")
            .ok_or_else(|| plan_err("missing [figure] table"))?;
        let name = figure
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| plan_err("[figure] needs a string `name`"))?
            .to_string();
        let title = match figure.get("title") {
            None => None,
            Some(t) => Some(
                t.as_str()
                    .ok_or_else(|| plan_err("figure.title must be a string"))?
                    .to_string(),
            ),
        };
        for key in figure.as_table().into_iter().flat_map(|t| t.keys()) {
            if !matches!(key.as_str(), "name" | "title") {
                return Err(plan_err(&format!("unknown [figure] key {key:?}")));
            }
        }

        let mut defaults = SweepPlan::default();
        if let Some(d) = value.get("defaults") {
            let t = d
                .as_table()
                .ok_or_else(|| plan_err("[defaults] must be a table"))?;
            if let Some(key) = unknown_key(t, &[]) {
                return Err(plan_err(&format!("unknown [defaults] key {key:?}")));
            }
            defaults.apply(d)?;
        }
        let sweeps_v = value
            .get("sweep")
            .and_then(Value::as_array)
            .ok_or_else(|| plan_err("missing [[sweep]] entries"))?;
        if sweeps_v.is_empty() {
            return Err(plan_err("an experiment file needs at least one [[sweep]]"));
        }
        let mut sweeps = Vec::new();
        for (i, sv) in sweeps_v.iter().enumerate() {
            let expanded = SweepPlan::from_value(sv, &defaults).map_err(|e| match e {
                // Keep leaf grammar errors typed; add sweep context
                // only to schema-shape failures.
                SfError::Plan(msg) => plan_err(&format!("sweep #{}: {msg}", i + 1)),
                other => other,
            })?;
            sweeps.extend(expanded);
        }
        Ok(ExperimentPlan {
            name,
            title,
            sweeps,
        })
    }

    /// Expands the plan to its flat, deterministic [`JobSet`]: sweeps
    /// in order, each over topologies → routings → loads, with
    /// consecutive job ids. Validates loads, VC counts and routing
    /// parameters; topology *construction* is deferred to
    /// [`JobSet::prepare`].
    pub fn expand(&self) -> Result<JobSet, SfError> {
        let mut topos: Vec<TopologySpec> = Vec::new();
        let mut topo_faults: Vec<Option<FaultPlan>> = Vec::new();
        let mut jobs = Vec::new();
        for (si, sweep) in self.sweeps.iter().enumerate() {
            if sweep.loads.is_empty() {
                return Err(SfError::Experiment("no offered loads configured".into()));
            }
            if let Some(&bad) = sweep
                .loads
                .iter()
                .find(|l| !(0.0..=1.0).contains(*l) || l.is_nan())
            {
                return Err(SfError::Experiment(format!(
                    "offered load {bad} outside [0, 1]"
                )));
            }
            if sweep.sim.num_vcs == 0 {
                return Err(SfError::Experiment(
                    "num_vcs must be ≥ 1 (the simulator needs at least one virtual channel)".into(),
                ));
            }
            if !(1..=sf_sim::MAX_PACKET_SIZE).contains(&sweep.sim.packet_size) {
                return Err(SfError::Experiment(format!(
                    "packet_size must be in 1..={} flits, got {}",
                    sf_sim::MAX_PACKET_SIZE,
                    sweep.sim.packet_size
                )));
            }
            // Parse already bounds the engine's sizes, delays and run
            // window; re-check here so hand-built plans and the builder
            // get the same typed error.
            check_sim_bounds(&sweep.sim)?;
            // Matrix sugar multiplies [[sweep]] blocks at parse time,
            // so this index may not match a file ordinal — say so.
            if sweep.topos.is_empty() {
                return Err(SfError::Experiment(format!(
                    "expanded sweep #{} names no topologies",
                    si + 1
                )));
            }
            if sweep.routings.is_empty() {
                return Err(SfError::Experiment(format!(
                    "expanded sweep #{} names no routings",
                    si + 1
                )));
            }
            // Normalize no-op fault plans away: a zero-fraction plan
            // names the intact topology instance, so it deduplicates
            // with fault-free sweeps and is bit-identical end to end.
            let fp = sweep.faults.filter(|f| !f.is_noop());
            if let Some(f) = &fp {
                // Parse already bounds the fractions; re-check here so
                // hand-built plans get the same typed error.
                for (field, x) in [("links", f.links), ("routers", f.routers)] {
                    if !(0.0..=1.0).contains(&x) || x.is_nan() {
                        return Err(SfError::Experiment(format!(
                            "faults.{field} = {x} outside [0, 1]"
                        )));
                    }
                }
                if sweep.traffic == TrafficSpec::WorstCase {
                    return Err(SfError::Experiment(format!(
                        "sweep #{}: worst-case traffic cannot be combined with fault \
                         injection — the adversarial permutation is derived from the \
                         intact structure and would silently target dead routers \
                         (sweep uniform or a bit permutation instead)",
                        si + 1
                    )));
                }
            }
            for topo in &sweep.topos {
                let ti = match topos
                    .iter()
                    .zip(&topo_faults)
                    .position(|(t, f)| t == topo && *f == fp)
                {
                    Some(i) => i,
                    None => {
                        topos.push(topo.clone());
                        topo_faults.push(fp);
                        topos.len() - 1
                    }
                };
                for routing in &sweep.routings {
                    routing.validate()?;
                    if sweep.backend == Backend::Flow {
                        flow_lowering_exists(routing)?;
                    } else {
                        // Topology-independent deadlock screen: some
                        // (routing, VC budget) combinations are proven
                        // deadlocks on *every* topology (e.g. Valiant
                        // detours on one VC reverse a link at the
                        // intermediate). Reject them before any cycle
                        // is simulated; the full per-topology CDG pass
                        // runs in [`JobSet::verify`].
                        sf_verify::spec_screen(routing, sweep.sim.num_vcs)?;
                    }
                    for &load in &sweep.loads {
                        jobs.push(Job {
                            id: jobs.len(),
                            sweep: si,
                            topo: ti,
                            routing: *routing,
                            traffic: sweep.traffic,
                            loads: vec![load],
                            sim: sweep.sim,
                            backend: sweep.backend,
                            warm_start: false,
                        });
                    }
                }
            }
        }
        Ok(JobSet {
            routers: Memo::new(jobs.iter().map(|j| (j.topo, j.routing))),
            patterns: Memo::new(jobs.iter().map(|j| (j.topo, j.traffic))),
            demands: Memo::new(jobs.iter().map(|j| (j.topo, j.traffic))),
            lowerings: Memo::new(
                jobs.iter().flat_map(|j| {
                    [RoutingSpec::Min, VAL, j.routing].map(|r| (j.topo, r, j.traffic))
                }),
            ),
            jobs,
            topos,
            faults: topo_faults,
            ctxs: Vec::new(),
        })
    }
}

/// Checks that a routing has a flow-level lowering; typed error
/// otherwise (satellite of the backend unification: one dispatch path,
/// inexpressible combinations rejected up front at expansion).
fn flow_lowering_exists(routing: &RoutingSpec) -> Result<(), SfError> {
    let reason = match routing {
        RoutingSpec::Ecmp => {
            "per-flit adaptive ECMP (ANCA) decides from live queue state, \
             which a fluid model does not have"
        }
        RoutingSpec::Valiant { cap3: true } => {
            "the ≤3-hop Valiant ablation rejects paths per sampled \
             intermediate, which has no closed fluid form"
        }
        _ => return Ok(()),
    };
    Err(SfError::Flow(FlowError::UnsupportedRouting {
        label: routing.label(),
        reason: reason.into(),
    }))
}

fn plan_err(msg: &str) -> SfError {
    SfError::Plan(msg.to_string())
}

/// The keys [`SweepPlan::apply`] reads: all `[defaults]` takes, and
/// what a sweep shares with it.
const TEMPLATE_KEYS: [&str; 5] = ["routing", "traffic", "loads", "sim", "backend"];

/// The first key of `t` that is neither a template key nor in `extra`.
fn unknown_key<'a>(t: &'a toml::Map, extra: &[&str]) -> Option<&'a String> {
    t.keys()
        .find(|k| !TEMPLATE_KEYS.contains(&k.as_str()) && !extra.contains(&k.as_str()))
}

impl SweepPlan {
    /// Sets the fields a `[defaults]` or `[[sweep]]` table names, in
    /// this order: routing, traffic, loads, sim (key by key onto the
    /// current configuration), backend.
    fn apply(&mut self, v: &Value) -> Result<(), SfError> {
        if let Some(r) = v.get("routing") {
            self.routings = parse_routings(r)?;
        }
        if let Some(t) = v.get("traffic") {
            self.traffic = parse_traffic(t)?;
        }
        if let Some(l) = v.get("loads") {
            self.loads = parse_loads(l)?;
        }
        if let Some(s) = v.get("sim") {
            apply_sim(&mut self.sim, s)?;
        }
        if let Some(b) = v.get("backend") {
            self.backend = parse_backend(b)?;
        }
        Ok(())
    }

    /// Interprets one `[[sweep]]` table over the `[defaults]` template.
    /// Matrix sugar — `backends`, `fault_fractions` and `packet_sizes` —
    /// expands the single template into one sweep per combination (in
    /// that order, outermost first, each axis in file order).
    fn from_value(v: &Value, defaults: &SweepPlan) -> Result<Vec<Self>, SfError> {
        let t = v
            .as_table()
            .ok_or_else(|| plan_err("each [[sweep]] must be a table"))?;
        let extra = [
            "topo",
            "topos",
            "backends",
            "packet_sizes",
            "faults",
            "fault_fractions",
        ];
        if let Some(key) = unknown_key(t, &extra) {
            return Err(plan_err(&format!("unknown sweep key {key:?}")));
        }
        let topos = match (v.get("topo"), v.get("topos")) {
            (Some(_), Some(_)) => return Err(plan_err("give either `topo` or `topos`, not both")),
            (Some(Value::Array(_)), None) => {
                return Err(plan_err(
                    "`topo` takes one spec string; put a list under `topos = [...]`",
                ))
            }
            (Some(one), None) => vec![parse_topo(one)?],
            (None, Some(many)) => many
                .as_array()
                .ok_or_else(|| plan_err("topos must be an array of spec strings"))?
                .iter()
                .map(parse_topo)
                .collect::<Result<Vec<_>, _>>()?,
            (None, None) => return Err(plan_err("missing `topo` (or `topos`)")),
        };
        if topos.is_empty() {
            return Err(plan_err("`topos` must not be empty"));
        }
        let mut template = SweepPlan {
            topos,
            ..defaults.clone()
        };
        template.apply(v)?;
        check_sim_bounds(&template.sim)?;
        if v.get("backend").is_some() && v.get("backends").is_some() {
            return Err(plan_err("give either `backend` or `backends`, not both"));
        }
        template.faults = v.get("faults").map(FaultPlan::from_value).transpose()?;

        // Matrix sugar: expand the template over the requested axes
        // (backends outermost, then fault fractions, packet sizes
        // innermost).
        let backends_axis = match v.get("backends") {
            None => None,
            Some(a) => {
                let items = a
                    .as_array()
                    .ok_or_else(|| plan_err("backends must be an array of backend names"))?;
                if items.is_empty() {
                    return Err(plan_err("backends must not be empty"));
                }
                Some(
                    items
                        .iter()
                        .map(parse_backend)
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
        };
        let sizes_axis = match v.get("packet_sizes") {
            None => None,
            Some(a) => Some(parse_positive_ints(a, "packet_sizes")?),
        };
        if backends_axis.is_none() && sizes_axis.is_none() && v.get("fault_fractions").is_none() {
            return Ok(vec![template]);
        }
        // `None` entries mean "axis absent: keep the template value".
        let frac_axis: Vec<Option<f64>> = match v.get("fault_fractions") {
            None => vec![None],
            Some(a) => parse_fault_fractions(a)?.into_iter().map(Some).collect(),
        };
        let mut out = Vec::new();
        for &be in backends_axis.as_deref().unwrap_or(&[template.backend]) {
            for &frac in &frac_axis {
                let mut with_fault = template.clone();
                with_fault.backend = be;
                if let Some(f) = frac {
                    // The fraction overrides `faults.links`; routers,
                    // seed and mode come from the sweep's `faults`
                    // table (or its defaults).
                    let base = template.faults.unwrap_or_default();
                    with_fault.faults = Some(FaultPlan { links: f, ..base });
                }
                for &ps in sizes_axis.as_deref().unwrap_or(&[0]) {
                    let mut sweep = with_fault.clone();
                    if ps != 0 {
                        sweep.sim.packet_size = ps as usize;
                    }
                    out.push(sweep);
                }
            }
        }
        Ok(out)
    }
}

/// Parses a non-empty array of positive integers (the `packet_sizes`
/// axis; 0 is rejected so the `0 = axis absent` sentinel above can
/// never collide with a real value, and entries are capped at
/// `u32::MAX` so the `usize` cast is exact on every target —
/// out-of-range packet sizes are then caught by the expand-time
/// `MAX_PACKET_SIZE` check with a precise message).
fn parse_positive_ints(v: &Value, key: &str) -> Result<Vec<i64>, SfError> {
    let items = v
        .as_array()
        .ok_or_else(|| plan_err(&format!("{key} must be an array of positive integers")))?;
    if items.is_empty() {
        return Err(plan_err(&format!("{key} must not be empty")));
    }
    items
        .iter()
        .map(|x| {
            x.as_int()
                .filter(|&i| (1..=u32::MAX as i64).contains(&i))
                .ok_or_else(|| plan_err(&format!("{key} entries must be positive integers")))
        })
        .collect()
}

/// Parses the `fault_fractions` matrix axis: a non-empty array of
/// numbers in \[0, 1\].
fn parse_fault_fractions(v: &Value) -> Result<Vec<f64>, SfError> {
    let items = v
        .as_array()
        .ok_or_else(|| plan_err("fault_fractions must be an array of numbers in [0, 1]"))?;
    if items.is_empty() {
        return Err(plan_err("fault_fractions must not be empty"));
    }
    items
        .iter()
        .map(|x| parse_fraction(x, "fault_fractions entries"))
        .collect()
}

fn parse_topo(v: &Value) -> Result<TopologySpec, SfError> {
    v.as_str()
        .ok_or_else(|| plan_err("topology entries must be spec strings like \"sf:q=19\""))?
        .parse()
}

fn parse_routings(v: &Value) -> Result<Vec<RoutingSpec>, SfError> {
    let one = |s: &Value| -> Result<RoutingSpec, SfError> {
        Ok(s.as_str()
            .ok_or_else(|| plan_err("routing entries must be spec strings like \"ugal-l:c=4\""))?
            .parse::<RoutingSpec>()?)
    };
    match v {
        Value::String(_) => Ok(vec![one(v)?]),
        Value::Array(items) => items.iter().map(one).collect(),
        _ => Err(plan_err(
            "routing must be a spec string or an array of spec strings",
        )),
    }
}

fn parse_backend(v: &Value) -> Result<Backend, SfError> {
    v.as_str()
        .ok_or_else(|| plan_err("backend must be \"cycle\" or \"flow\""))?
        .parse()
}

fn parse_traffic(v: &Value) -> Result<TrafficSpec, SfError> {
    Ok(v.as_str()
        .ok_or_else(|| plan_err("traffic must be a pattern name like \"uniform\""))?
        .parse::<TrafficSpec>()?)
}

fn parse_loads(v: &Value) -> Result<Vec<f64>, SfError> {
    let items = v
        .as_array()
        .ok_or_else(|| plan_err("loads must be an array of numbers"))?;
    items
        .iter()
        .map(|l| {
            l.as_float()
                .ok_or_else(|| plan_err("loads must be numbers"))
        })
        .collect()
}

/// Applies the keys of a `sim` table onto a [`SimConfig`].
fn apply_sim(cfg: &mut SimConfig, v: &Value) -> Result<(), SfError> {
    let t = v
        .as_table()
        .ok_or_else(|| plan_err("sim must be a table of SimConfig fields"))?;
    for (key, val) in t {
        let as_usize = || -> Result<usize, SfError> {
            val.as_int()
                .filter(|&i| i >= 0)
                .map(|i| i as usize)
                .ok_or_else(|| plan_err(&format!("sim.{key} must be a non-negative integer")))
        };
        let as_u32 = || -> Result<u32, SfError> {
            val.as_int()
                .filter(|&i| (0..=u32::MAX as i64).contains(&i))
                .map(|i| i as u32)
                .ok_or_else(|| plan_err(&format!("sim.{key} must be a u32 integer")))
        };
        match key.as_str() {
            "num_vcs" => cfg.num_vcs = as_usize()?,
            "packet_size" => cfg.packet_size = as_usize()?,
            "buf_per_port" => cfg.buf_per_port = as_usize()?,
            "channel_latency" => cfg.channel_latency = as_u32()?,
            "router_delay" => cfg.router_delay = as_u32()?,
            "credit_delay" => cfg.credit_delay = as_u32()?,
            "output_speedup" => cfg.output_speedup = as_usize()?,
            "output_queue_cap" => cfg.output_queue_cap = as_usize()?,
            "warmup" => cfg.warmup = as_u32()?,
            "measure" => cfg.measure = as_u32()?,
            "drain" => cfg.drain = as_u32()?,
            "seed" => {
                // Seeds are u64; values above i64::MAX don't fit a TOML
                // integer and travel as strings.
                cfg.seed = match val {
                    Value::String(s) => s.parse::<u64>().ok(),
                    _ => val.as_int().filter(|&i| i >= 0).map(|i| i as u64),
                }
                .ok_or_else(|| plan_err("sim.seed must be a non-negative integer"))?
            }
            other => return Err(plan_err(&format!("unknown sim key {other:?}"))),
        }
    }
    Ok(())
}

/// The cycle engine allocates its input-buffer and staging rings and
/// its delay buckets up front, stores VC ids in a byte and counts
/// cycles and allocation iterations in a `u32`, so queue sizes, the VC
/// count, the speedup, the delays and the run window are bounded before
/// any job is prepared.
fn check_sim_bounds(cfg: &SimConfig) -> Result<(), SfError> {
    let window = [cfg.warmup, cfg.measure, cfg.drain];
    if window
        .iter()
        .try_fold(0u32, |acc, &c| acc.checked_add(c))
        .is_none()
    {
        return Err(plan_err(&format!(
            "sim.warmup + sim.measure + sim.drain = {} exceeds the cycle engine's clock \
             bound of {} cycles",
            window.iter().map(|&c| c as u64).sum::<u64>(),
            u32::MAX
        )));
    }
    if cfg.measure == 0 {
        return Err(plan_err(
            "sim.measure must be at least 1 cycle (throughput and link utilization are \
             rates over the measurement window)",
        ));
    }
    let max_delay = sf_sim::MAX_DELAY as u64;
    for (key, value, max, unit) in [
        (
            "sim.num_vcs",
            cfg.num_vcs as u64,
            sf_sim::MAX_NUM_VCS as u64,
            "virtual channels",
        ),
        (
            "sim.buf_per_port",
            cfg.buf_per_port as u64,
            sf_sim::MAX_BUF_PER_PORT as u64,
            "flits",
        ),
        (
            "sim.output_queue_cap",
            cfg.output_queue_cap as u64,
            sf_sim::MAX_OUTPUT_QUEUE_CAP as u64,
            "flits",
        ),
        (
            "sim.output_speedup",
            cfg.output_speedup as u64,
            sf_sim::MAX_OUTPUT_SPEEDUP as u64,
            "allocation iterations",
        ),
        (
            "sim.router_delay + sim.channel_latency",
            cfg.router_delay as u64 + cfg.channel_latency as u64,
            max_delay,
            "cycles",
        ),
        (
            "sim.credit_delay",
            cfg.credit_delay as u64,
            max_delay,
            "cycles",
        ),
    ] {
        if value > max {
            return Err(plan_err(&format!(
                "{key} = {value} exceeds the cycle engine's bound of {max} {unit}"
            )));
        }
    }
    Ok(())
}

/// One schedulable unit: one offered load on a fixed (topology,
/// routing, traffic, simulator) configuration, run cold.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Position in the deterministic output order.
    pub id: usize,
    /// Index of the sweep (in [`ExperimentPlan::sweeps`]) this job
    /// came from.
    pub sweep: usize,
    /// Index into [`JobSet::topos`].
    pub topo: usize,
    /// Routing scheme.
    pub routing: RoutingSpec,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// The job's offered load: always exactly one.
    pub loads: Vec<f64>,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Which evaluation tier runs this job.
    pub backend: Backend,
    /// Always `false`: every load runs cold. Kept while the benchmark's
    /// traced replica (`examples/sf_benchmark`) still reads it.
    pub warm_start: bool,
}

/// A built network plus lazily built routing tables, shared by every
/// job on one topology. Tables are deferred because the flow backend
/// often never needs them (all-pairs tables on `sf:q=79` would cost
/// hundreds of MB); the first cycle-backend or table-hungry job on the
/// topology builds them once.
pub struct JobCtx {
    /// The concrete network.
    pub net: Network,
    tables: OnceLock<RoutingTables>,
    edge_index: OnceLock<EdgeIndex>,
}

impl JobCtx {
    /// All-pairs routing tables over `net.graph`, built on first use;
    /// concurrent callers wait for the one build.
    pub fn tables(&self) -> &RoutingTables {
        self.tables
            .get_or_init(|| RoutingTables::new(&self.net.graph))
    }

    /// The directed-channel index every flow lowering on this topology
    /// shares, built on first use.
    fn edge_index(&self) -> &EdgeIndex {
        self.edge_index
            .get_or_init(|| EdgeIndex::new(&self.net.graph))
    }
}

/// Values shared by the jobs of one key: a router per (topology,
/// routing), a pattern per (topology, traffic), and so on. Every cold
/// load point is its own job, so without sharing a FatPaths layer set
/// would be rebuilt once per load. The distinct keys are fixed when the
/// set expands, each with one slot. A value is built inside its slot on
/// first use, so a worker that needs a value another worker is building
/// waits for it instead of building a second copy. Fallible builds
/// store their `Result`: builds are deterministic, so a kept error is
/// the one every job of the key would meet.
struct Memo<K, V> {
    slots: Vec<(K, OnceLock<V>)>,
}

impl<K: PartialEq, V> Memo<K, V> {
    /// One empty slot per distinct key.
    fn new(keys: impl IntoIterator<Item = K>) -> Self {
        let mut slots: Vec<(K, OnceLock<V>)> = Vec::new();
        for key in keys {
            if !slots.iter().any(|(k, _)| *k == key) {
                slots.push((key, OnceLock::new()));
            }
        }
        Memo { slots }
    }

    /// The value of `key`, built by `build` on first use.
    fn get(&self, key: &K, build: impl FnOnce() -> V) -> &V {
        let (_, slot) = self
            .slots
            .iter()
            .find(|(k, _)| k == key)
            .expect("memo keys are taken from the set's own jobs");
        slot.get_or_init(build)
    }
}

/// The Valiant routing whose flow lowering UGAL mixes with MIN's.
const VAL: RoutingSpec = RoutingSpec::Valiant { cap3: false };

/// The flat, deterministic expansion of an [`ExperimentPlan`]: jobs in
/// output order plus the deduplicated topology list they reference. A
/// topology *instance* is a (spec, fault plan) pair — the same spec
/// under two different kill-sets is two entries, each with its own
/// network, tables, routers and flow caches, all derived from the
/// degraded graph.
pub struct JobSet {
    jobs: Vec<Job>,
    topos: Vec<TopologySpec>,
    /// Fault plan per topology instance, aligned with `topos` (`None`:
    /// intact; no-op plans are normalized to `None` at expansion).
    faults: Vec<Option<FaultPlan>>,
    ctxs: Vec<JobCtx>,
    routers: Memo<(usize, RoutingSpec), Result<Box<dyn Router>, RoutingError>>,
    patterns: Memo<(usize, TrafficSpec), Result<TrafficPattern, TrafficError>>,
    /// The router-level demand of a pattern, for flow jobs.
    demands: Memo<(usize, TrafficSpec), Demand>,
    /// Flow lowerings per (topology, routing, traffic); every job also
    /// keys MIN and VAL, which its UGAL mix may need.
    lowerings: Memo<(usize, RoutingSpec, TrafficSpec), Result<RoutingLoads, FlowError>>,
}

impl std::fmt::Debug for JobSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Built contexts hold whole networks — summarize instead.
        f.debug_struct("JobSet")
            .field("jobs", &self.jobs)
            .field("topos", &self.topos)
            .field("prepared", &self.is_prepared())
            .finish()
    }
}

impl JobSet {
    /// The jobs, in deterministic output (= id) order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The deduplicated topology specs jobs reference by index.
    pub fn topos(&self) -> &[TopologySpec] {
        &self.topos
    }

    /// The fault plan of each topology instance, aligned with
    /// [`topos`](Self::topos) (`None`: intact network).
    pub fn topo_faults(&self) -> &[Option<FaultPlan>] {
        &self.faults
    }

    /// Total records a full run will emit.
    pub fn num_records(&self) -> usize {
        self.jobs.iter().map(|j| j.loads.len()).sum()
    }

    /// The content-address of `job`'s records in a [`ResultCache`]
    /// (see [`crate::cache::job_key`]): a stable hash over the job's
    /// topology instance (spec + fault plan), routing, traffic,
    /// backend, load, and every `sim` field — plus
    /// the engine epoch. Identical across worker counts, and across
    /// plans that merely reposition the job.
    ///
    /// [`ResultCache`]: crate::cache::ResultCache
    pub fn job_key(&self, job: &Job) -> crate::cache::CacheKey {
        crate::cache::job_key(&self.topos[job.topo], &self.faults[job.topo], job)
    }

    /// Whether [`JobSet::prepare`] has run.
    pub fn is_prepared(&self) -> bool {
        self.ctxs.len() == self.topos.len()
    }

    /// Builds every referenced network (in parallel across
    /// topologies), applying each instance's fault plan: the plan
    /// lowers to a seeded kill-set on the freshly built graph and
    /// [`Network::degrade`] produces the degraded view every later
    /// stage (tables, routers, patterns, flow lowerings, verification)
    /// derives from. A kill-set that partitions the live routers is a
    /// typed error here, before anything runs. Routing tables are
    /// built lazily on first use per topology. Idempotent; must run
    /// before [`JobSet::run_job`].
    pub fn prepare(&mut self) -> Result<(), SfError> {
        if self.is_prepared() {
            return Ok(());
        }
        let inputs: Vec<(&TopologySpec, &Option<FaultPlan>)> =
            self.topos.iter().zip(&self.faults).collect();
        let built: Vec<Result<JobCtx, SfError>> = inputs
            .par_iter()
            .map(|&(spec, fp)| {
                let mut net = spec.build()?;
                if let Some(f) = fp {
                    let kill = fault::kill_set(&net.graph, f.links, f.routers, f.seed, f.mode);
                    net = net
                        .degrade(&kill, &f.suffix())
                        .map_err(|e| SfError::Experiment(format!("fault plan on {spec}: {e}")))?;
                }
                Ok(JobCtx {
                    net,
                    tables: OnceLock::new(),
                    edge_index: OnceLock::new(),
                })
            })
            .collect();
        let mut ctxs = Vec::with_capacity(built.len());
        for b in built {
            ctxs.push(b?);
        }
        self.ctxs = ctxs;
        Ok(())
    }

    /// The built context of a job (panics if not [`prepare`](Self::prepare)d).
    pub fn ctx(&self, job: &Job) -> &JobCtx {
        &self.ctxs[job.topo]
    }

    /// Statically verifies every distinct (topology, routing, VC
    /// budget, packet size) combination a cycle-backend job will
    /// exercise: routing totality (every router pair reachable within
    /// the scheme's hop bound) and wormhole deadlock freedom under the
    /// engine's exact VC-allocation arithmetic. Returns one
    /// [`sf_verify::ComboCertificate`] per combination, in job order;
    /// fails with a typed [`SfError::Verify`] — including a rendered
    /// cycle witness for proven deadlocks — before any cycle is
    /// simulated. Flow-backend jobs are skipped: they have no VC or
    /// wormhole semantics (and flow-only plans never build tables).
    pub fn verify(&mut self) -> Result<Vec<sf_verify::ComboCertificate>, SfError> {
        self.prepare()?;
        let mut seen: Vec<(usize, RoutingSpec, usize, usize)> = Vec::new();
        let mut certs = Vec::new();
        for job in &self.jobs {
            if job.backend != Backend::Cycle {
                continue;
            }
            let key = (job.topo, job.routing, job.sim.num_vcs, job.sim.packet_size);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let ctx = &self.ctxs[job.topo];
            let cert = sf_verify::verify_combo(
                &self.instance_label(job.topo),
                &ctx.net.graph,
                ctx.tables(),
                &job.routing,
                job.sim.num_vcs,
                job.sim.packet_size,
            )?;
            certs.push(cert);
        }
        Ok(certs)
    }

    /// The name certificates and verification errors give topology
    /// instance `topo`: the spec plus its fault suffix when degraded,
    /// so a degraded CDG proof is never mistaken for the intact one.
    fn instance_label(&self, topo: usize) -> String {
        match &self.faults[topo] {
            None => self.topos[topo].to_string(),
            Some(f) => format!("{}{}", self.topos[topo], f.suffix()),
        }
    }

    /// Executes one job, returning its records in load order. The set
    /// must be prepared. Deterministic: depends only on the job and
    /// the topology, never on other jobs or thread timing. Routers,
    /// traffic patterns, demands and flow lowerings are built once per
    /// key and shared by the jobs that need them; a worker waits for a
    /// build another worker has started. A failed build is kept and
    /// returned, typed, to every job of its key.
    pub fn run_job(&self, job: &Job) -> Result<Vec<Record>, SfError> {
        assert!(self.is_prepared(), "JobSet::prepare must run before jobs");
        match job.backend {
            Backend::Cycle => self.run_cycle_job(job),
            Backend::Flow => self.run_flow_job(job),
        }
    }

    fn run_cycle_job(&self, job: &Job) -> Result<Vec<Record>, SfError> {
        let ctx = self.ctx(job);
        // Running a plan does not verify it, so the one verification
        // the engine cannot survive failing is repeated here.
        sf_verify::check_path_capacity(
            &self.instance_label(job.topo),
            &job.routing,
            ctx.tables().max_distance() as usize,
        )?;
        let spec_str = self.topos[job.topo].to_string();
        let router: &dyn Router = self
            .routers
            .get(&(job.topo, job.routing), || {
                job.routing.build(&ctx.net.graph, ctx.tables())
            })
            .as_ref()
            .map_err(Clone::clone)?
            .as_ref();
        let pattern = self.pattern(job)?;
        // A cold run per load, bit-identical to the sequential builder
        // path (same per-load seed derivation).
        Ok(job
            .loads
            .iter()
            .map(|&load| {
                let mut c = job.sim;
                c.seed = LoadSweep::seed_for_load(&job.sim, load);
                Simulator::new(&ctx.net, ctx.tables(), router, pattern, load, c).run()
            })
            .map(|r| Record {
                topology: ctx.net.name.clone(),
                spec: spec_str.clone(),
                routing: router.label(),
                traffic: pattern.name().to_string(),
                backend: Backend::Cycle.as_str().to_string(),
                packet_size: r.packet_size,
                offered: r.offered_load,
                latency: r.avg_latency,
                p99: r.p99_latency,
                accepted: r.accepted,
                avg_hops: r.avg_hops,
                saturated: r.saturated,
                max_link_util: r.max_link_util,
            })
            .collect())
    }

    /// The shared traffic pattern of a job. Routing tables are only
    /// built if the pattern itself needs them (distance-based worst
    /// cases), so flow jobs on other patterns never pay for all-pairs
    /// tables.
    fn pattern(&self, job: &Job) -> Result<&TrafficPattern, TrafficError> {
        let ctx = self.ctx(job);
        self.patterns
            .get(&(job.topo, job.traffic), || {
                job.traffic.build_with(&ctx.net, || ctx.tables())
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn run_flow_job(&self, job: &Job) -> Result<Vec<Record>, SfError> {
        let ctx = self.ctx(job);
        let spec_str = self.topos[job.topo].to_string();
        let pattern = self.pattern(job)?;
        // expand() rejects routings without a lowering; keep the typed
        // error for hand-built Jobs.
        flow_lowering_exists(&job.routing)?;
        let demand = self.demands.get(&(job.topo, job.traffic), || {
            Demand::from_pattern(&ctx.net, pattern)
        });
        let rl = self.lowering(job, job.routing, demand)?;

        Ok(job
            .loads
            .iter()
            .map(|&load| {
                let p = sf_flow::evaluate(rl, load);
                let (latency, p99) = flow_latency(&p, &job.sim);
                Record {
                    topology: ctx.net.name.clone(),
                    spec: spec_str.clone(),
                    routing: job.routing.label(),
                    traffic: pattern.name().to_string(),
                    backend: Backend::Flow.as_str().to_string(),
                    packet_size: job.sim.packet_size,
                    offered: load,
                    latency,
                    p99,
                    accepted: p.accepted,
                    avg_hops: p.avg_hops,
                    saturated: p.saturated,
                    max_link_util: p.max_util,
                }
            })
            .collect())
    }

    /// The flow lowering of `routing` on `job`'s topology and traffic.
    fn lowering(
        &self,
        job: &Job,
        routing: RoutingSpec,
        demand: &Demand,
    ) -> Result<&RoutingLoads, FlowError> {
        let ctx = self.ctx(job);
        self.lowerings
            .get(&(job.topo, routing, job.traffic), || {
                let idx = ctx.edge_index();
                match routing {
                    RoutingSpec::Min => sf_flow::min_loads(&ctx.net, idx, demand),
                    VAL => sf_flow::valiant_loads(&ctx.net, idx, demand),
                    // Fluid UGAL ignores the candidate count: with exact
                    // load knowledge every candidate set converges to
                    // the same min/Valiant mixture, so UGAL-L ≡ UGAL-G
                    // here.
                    RoutingSpec::UgalL { .. } | RoutingSpec::UgalG { .. } => Ok(sf_flow::ugal_mix(
                        self.lowering(job, RoutingSpec::Min, demand)?,
                        self.lowering(job, VAL, demand)?,
                    )),
                    RoutingSpec::FatPaths { layers } => {
                        sf_flow::fatpaths_loads(&ctx.net, idx, demand, ctx.tables(), layers)
                    }
                    RoutingSpec::Ecmp | RoutingSpec::Valiant { cap3: true } => {
                        unreachable!("flow_lowering_exists rejects {routing}")
                    }
                }
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// M/D/1-style latency estimate for a flow-level operating point, in
/// the cycle engine's units (cycles). The deterministic service time
/// is one packet (`packet_size` flits per channel); the zero-load
/// base is injection + per-hop pipeline + serialization, matching the
/// cycle engine's zero-load anatomy. Past saturation queues grow
/// without bound and the estimate is `NaN`.
fn flow_latency(p: &sf_flow::FlowPoint, sim: &SimConfig) -> (f64, f64) {
    let ps = sim.packet_size as f64;
    let per_hop = sim.channel_latency as f64 + sim.router_delay as f64;
    let base = 1.0 + p.avg_hops * per_hop + (ps - 1.0);
    let wq = |rho: f64| -> f64 {
        if rho >= 1.0 - 1e-12 {
            f64::NAN
        } else {
            ps * rho / (2.0 * (1.0 - rho))
        }
    };
    if p.saturated {
        (f64::NAN, f64::NAN)
    } else {
        // p99 ≈ mean + tail factor on the *hottest* channel's wait:
        // exponential waiting-tail approximation, ln(100) ≈ 4.6.
        let latency = base + p.avg_hops * wq(p.mean_util);
        let p99 = base + p.avg_hops * wq(p.max_util) * 100f64.ln();
        (latency, p99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: &str = r#"
        [figure]
        name = "smoke"
        title = "Smoke test"

        [defaults]
        loads = [0.1, 0.2]
        routing = ["min", "val"]

        [defaults.sim]
        warmup = 150
        measure = 300
        drain = 1000

        [[sweep]]
        topo = "sf:q=5"

        [[sweep]]
        topos = ["sf:q=5", "df:p=3"]
        routing = "ecmp"
        traffic = "shift"
        loads = [0.3]

        [sweep.sim]
        num_vcs = 6
    "#;

    #[test]
    fn parse_applies_defaults_and_overrides() {
        let plan = ExperimentPlan::from_toml_str(FIG).unwrap();
        assert_eq!(plan.name, "smoke");
        assert_eq!(plan.title.as_deref(), Some("Smoke test"));
        assert_eq!(plan.sweeps.len(), 2);
        let s0 = &plan.sweeps[0];
        assert_eq!(s0.topos, vec![TopologySpec::slimfly(5)]);
        assert_eq!(
            s0.routings,
            vec![RoutingSpec::Min, RoutingSpec::Valiant { cap3: false }]
        );
        assert_eq!(s0.traffic, TrafficSpec::Uniform);
        assert_eq!(s0.loads, vec![0.1, 0.2]);
        assert_eq!(s0.sim.warmup, 150);
        assert_eq!(s0.sim.num_vcs, SimConfig::default().num_vcs);
        assert_eq!(s0.backend, Backend::Cycle);
        let s1 = &plan.sweeps[1];
        assert_eq!(s1.topos.len(), 2);
        assert_eq!(s1.routings, vec![RoutingSpec::Ecmp]);
        assert_eq!(s1.traffic, TrafficSpec::Shift);
        assert_eq!(s1.loads, vec![0.3]);
        assert_eq!(s1.sim.num_vcs, 6);
        assert_eq!(
            s1.sim.warmup, 150,
            "defaults.sim survives a sweep.sim override"
        );
        // A sweep's own key replaces the default, even when it restores
        // the built-in value.
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[defaults]\nbackend = \"flow\"\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nbackend = \"cycle\"\n\
             [[sweep]]\ntopo = \"sf:q=5\"",
        )
        .unwrap();
        assert_eq!(plan.sweeps[0].backend, Backend::Cycle);
        assert_eq!(plan.sweeps[1].backend, Backend::Flow);
    }

    #[test]
    fn expansion_is_flat_and_deterministic() {
        let plan = ExperimentPlan::from_toml_str(FIG).unwrap();
        let set = plan.expand().unwrap();
        // Sweep 0: 1 topo × 2 routings × 2 loads = 4 jobs.
        // Sweep 1: 2 topos × 1 routing × 1 load = 2 jobs.
        assert_eq!(set.jobs().len(), 6);
        assert_eq!(set.num_records(), 6);
        assert_eq!(set.topos().len(), 2, "sf:q=5 deduplicated across sweeps");
        for (i, j) in set.jobs().iter().enumerate() {
            assert_eq!(j.id, i);
        }
        assert_eq!(set.jobs()[0].loads, vec![0.1]);
        assert_eq!(set.jobs()[1].loads, vec![0.2]);
        assert_eq!(set.jobs()[4].loads, vec![0.3]);
        assert!(set
            .jobs()
            .iter()
            .all(|j| j.loads.len() == 1 && !j.warm_start));
        assert_eq!(set.jobs()[5].topo, 1);
    }

    #[test]
    fn seeds_above_i64_max_round_trip() {
        // A TOML integer stops at i64::MAX, so larger u64 seeds are
        // written as decimal strings and parse back to the same value.
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n\
             [sweep.sim]\nseed = \"18446744073709551615\"\n\
             [sweep.faults]\nlinks = 0.02\nseed = \"18446744073709551615\"",
        )
        .unwrap();
        assert_eq!(plan.sweeps[0].sim.seed, u64::MAX);
        assert_eq!(plan.sweeps[0].faults.unwrap().seed, u64::MAX);
        // Negative, non-numeric and out-of-range seeds are typed schema
        // errors in both tables.
        for table in ["sim", "faults"] {
            for seed in ["-1", "\"-1\"", "\"seven\"", "\"18446744073709551616\""] {
                let err = ExperimentPlan::from_toml_str(&format!(
                    "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n\
                     [sweep.{table}]\nseed = {seed}"
                ))
                .unwrap_err();
                assert!(matches!(err, SfError::Plan(_)), "{table} {seed}: {err}");
                assert!(err.to_string().contains("seed"), "{table} {seed}: {err}");
            }
        }
    }

    #[test]
    fn schema_errors_are_typed_and_specific() {
        let cases: &[(&str, &str)] = &[
            ("[figure]\nname = 3\n[[sweep]]\ntopo = \"sf:q=5\"", "name"),
            ("[[sweep]]\ntopo = \"sf:q=5\"", "figure"),
            ("[figure]\nname = \"x\"", "sweep"),
            ("[figure]\nname = \"x\"\n[[sweep]]\nloads = [0.1]", "topo"),
            // A list of topologies goes under `topos`, and the message
            // says so.
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = [\"sf:q=7\", \"df:p=2\"]",
                "topos",
            ),
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nwat = 1",
                "wat",
            ),
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\nwarmup = -4",
                "warmup",
            ),
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\nwat = 1",
                "wat",
            ),
            // Every simulation runs on one thread: the retired engine
            // thread count is an unknown key, not a silent no-op.
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\nthreads = 2",
                "unknown sim key \"threads\"",
            ),
            (
                "[figure]\nname = \"x\"\n[defaults.sim]\nthreads = 2\n[[sweep]]\ntopo = \"sf:q=5\"",
                "unknown sim key \"threads\"",
            ),
            // Every [defaults] value is parsed, even one that every
            // sweep overrides.
            (
                "[figure]\nname = \"x\"\n[defaults]\nloads = \"x\"\n\
                 [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]",
                "loads must be an array of numbers",
            ),
            // Queue rings are allocated up front, so their sizes are
            // bounded before anything is built.
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\nbuf_per_port = 4097",
                "sim.buf_per_port = 4097 exceeds",
            ),
            (
                "[figure]\nname = \"x\"\n[defaults.sim]\noutput_queue_cap = 1000000000\n\
                 [[sweep]]\ntopo = \"sf:q=5\"",
                "sim.output_queue_cap = 1000000000 exceeds",
            ),
            // VC ids are bytes in the engine: a 257th VC would alias VC 0.
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\n\
                 num_vcs = 300\nbuf_per_port = 1200",
                "sim.num_vcs = 300 exceeds the cycle engine's bound of 256 virtual channels",
            ),
            // Delays size delay buckets allocated up front, and a u32
            // sum of them would wrap to a one-cycle hop.
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\n\
                 channel_latency = 4294967295\nrouter_delay = 1",
                "sim.router_delay + sim.channel_latency = 4294967296 exceeds the cycle \
                 engine's bound of 4096 cycles",
            ),
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\n\
                 credit_delay = 2000000000",
                "sim.credit_delay = 2000000000 exceeds",
            ),
            // A u32 cast would turn 2^32 allocation iterations into none.
            (
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\n\
                 output_speedup = 4294967296",
                "sim.output_speedup = 4294967296 exceeds the cycle engine's bound of 4096",
            ),
        ];
        for (doc, needle) in cases {
            let err = ExperimentPlan::from_toml_str(doc).unwrap_err();
            assert!(matches!(err, SfError::Plan(_)), "{doc} → {err}");
            assert!(
                err.to_string().contains(needle),
                "{doc} → {err} (wanted {needle:?})"
            );
        }
        // Leaf grammars keep their own typed errors.
        let err =
            ExperimentPlan::from_toml_str("[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"warp:q=9\"")
                .unwrap_err();
        assert!(matches!(err, SfError::ParseSpec { .. }), "{err}");
        let err = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nrouting = \"warp\"",
        )
        .unwrap_err();
        assert!(matches!(err, SfError::Routing(_)), "{err}");
        let err = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\ntraffic = \"wurst\"",
        )
        .unwrap_err();
        assert!(matches!(err, SfError::Traffic(_)), "{err}");
        // Hand-built plans skip the parser; expansion applies the same
        // queue bounds with the same typed error, and the bounds
        // themselves still expand.
        let mut plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]",
        )
        .unwrap();
        plan.sweeps[0].sim.num_vcs = sf_sim::MAX_NUM_VCS;
        plan.sweeps[0].sim.buf_per_port = sf_sim::MAX_BUF_PER_PORT;
        plan.sweeps[0].sim.output_queue_cap = sf_sim::MAX_OUTPUT_QUEUE_CAP;
        plan.sweeps[0].sim.output_speedup = sf_sim::MAX_OUTPUT_SPEEDUP;
        plan.sweeps[0].sim.router_delay = sf_sim::MAX_DELAY;
        plan.sweeps[0].sim.channel_latency = 0;
        plan.sweeps[0].sim.credit_delay = sf_sim::MAX_DELAY;
        plan.expand().unwrap();
        for over in [
            |c: &mut SimConfig| c.num_vcs = sf_sim::MAX_NUM_VCS + 1,
            |c: &mut SimConfig| c.buf_per_port = sf_sim::MAX_BUF_PER_PORT + 1,
            |c: &mut SimConfig| c.output_queue_cap = usize::MAX,
            |c: &mut SimConfig| c.output_speedup += 1,
            |c: &mut SimConfig| c.channel_latency = u32::MAX,
            |c: &mut SimConfig| c.credit_delay += 1,
        ] {
            let mut bad = plan.clone();
            over(&mut bad.sweeps[0].sim);
            let err = bad.expand().unwrap_err();
            assert!(matches!(err, SfError::Plan(_)), "{err}");
            assert!(err.to_string().contains("exceeds"), "{err}");
        }
    }

    #[test]
    fn run_windows_past_the_cycle_clock_are_typed_errors() {
        // The engine adds the three phases in u32 cycles.
        let doc = |defaults: &str, sweep: &str| {
            format!(
                "[figure]\nname = \"x\"\n[defaults.sim]\n{defaults}\n\
                 [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n[sweep.sim]\n{sweep}"
            )
        };
        for (defaults, sweep) in [
            ("", "warmup = 4294967295\nmeasure = 2\ndrain = 10"),
            ("warmup = 4294967295", "measure = 2\ndrain = 10"),
            ("", "drain = 4294967295"),
        ] {
            let err = ExperimentPlan::from_toml_str(&doc(defaults, sweep)).unwrap_err();
            assert!(matches!(err, SfError::Plan(_)), "{err}");
            assert!(err.to_string().contains("clock bound"), "{err}");
        }
        // A sweep may override the defaults back under the bound.
        ExperimentPlan::from_toml_str(&doc(
            "warmup = 4294967295",
            "warmup = 4294967284\nmeasure = 1\ndrain = 10",
        ))
        .unwrap()
        .expand()
        .unwrap();
        // Hand-built plans get the same error at expansion.
        let mut plan = ExperimentPlan::from_toml_str(&doc("", "measure = 2\ndrain = 10")).unwrap();
        plan.sweeps[0].sim.warmup = u32::MAX - 12;
        plan.expand().unwrap();
        plan.sweeps[0].sim.warmup += 1;
        let err = plan.expand().unwrap_err();
        assert!(matches!(err, SfError::Plan(_)), "{err}");
        assert!(err.to_string().contains("clock bound"), "{err}");
        // An empty measurement window is refused at parse and at
        // expansion: throughput and link utilization are rates over it.
        let err = ExperimentPlan::from_toml_str(&doc("", "measure = 0")).unwrap_err();
        assert!(matches!(err, SfError::Plan(_)), "{err}");
        assert!(
            err.to_string()
                .contains("sim.measure must be at least 1 cycle"),
            "{err}"
        );
        plan.sweeps[0].sim.warmup = 0;
        plan.sweeps[0].sim.measure = 0;
        let err = plan.expand().unwrap_err();
        assert!(matches!(err, SfError::Plan(_)), "{err}");
        assert!(err.to_string().contains("sim.measure"), "{err}");
    }

    #[test]
    fn the_engine_runs_at_the_plan_delay_and_speedup_bounds() {
        // Parse and `Simulator::new` share the bounds: a sweep at them
        // runs instead of tripping an engine assertion.
        let plan = ExperimentPlan::from_toml_str(&format!(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [sweep.sim]\nwarmup = 50\nmeasure = 1\ndrain = 200\nrouter_delay = {}\n\
             channel_latency = 0\ncredit_delay = {}\noutput_speedup = {}",
            sf_sim::MAX_DELAY,
            sf_sim::MAX_DELAY,
            sf_sim::MAX_OUTPUT_SPEEDUP
        ))
        .unwrap();
        let mut set = plan.expand().unwrap();
        set.prepare().unwrap();
        assert_eq!(set.run_job(&set.jobs()[0]).unwrap().len(), 1);
    }

    #[test]
    fn unsupported_extensions_are_named() {
        for (path, needle) in [
            (
                "plan.yaml",
                "plan.yaml: unsupported experiment-file extension .yaml",
            ),
            (
                "plan.json",
                "plan.json: unsupported experiment-file extension .json",
            ),
            ("plan", "plan: experiment file has no extension"),
        ] {
            let err = ExperimentPlan::from_path(Path::new(path)).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, SfError::Plan(_)), "{msg}");
            assert!(msg.contains(needle), "{msg}");
            assert!(msg.contains("(expected .toml)"), "{msg}");
            assert!(!msg.contains("Some(") && !msg.contains("None"), "{msg}");
        }
    }

    #[test]
    fn the_largest_vc_count_verifies_and_runs() {
        // VC bases are drawn up to num_vcs − hops, so packets occupy VC
        // ids up to 255, the largest a byte holds.
        let plan = ExperimentPlan::from_toml_str(&format!(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [sweep.sim]\nnum_vcs = {}\nbuf_per_port = 1024\n\
             warmup = 150\nmeasure = 300\ndrain = 1000",
            sf_sim::MAX_NUM_VCS
        ))
        .unwrap();
        let mut set = plan.expand().unwrap();
        set.verify().unwrap();
        let records = set.run_job(&set.jobs()[0]).unwrap();
        assert!(records[0].accepted > 0.0, "{records:?}");
    }

    #[test]
    fn expansion_validates_loads_and_vcs() {
        let plan = |extra: &str| {
            ExperimentPlan::from_toml_str(&format!(
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n{extra}"
            ))
            .unwrap()
        };
        let err = plan("loads = []").expand().unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
        let err = plan("loads = [1.5]").expand().unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
        let err = plan("[sweep.sim]\nnum_vcs = 0").expand().unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
        // Degenerate routing parameters are parse-time typed errors.
        let err = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"ugal-l:c=0\"]",
        )
        .unwrap_err();
        assert!(matches!(err, SfError::Routing(_)), "{err}");
    }

    #[test]
    fn packet_size_parses_and_validates() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\npacket_size = 4",
        )
        .unwrap();
        assert_eq!(plan.sweeps[0].sim.packet_size, 4);
        // Zero is a typed expansion error (matching the builder path).
        let bad = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n[sweep.sim]\npacket_size = 0",
        )
        .unwrap();
        let err = bad.expand().unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
        assert!(err.to_string().contains("packet_size"));
    }

    #[test]
    fn packet_sizes_matrix_expands_one_template_into_sweeps() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             packet_sizes = [1, 4, 16]",
        )
        .unwrap();
        assert_eq!(plan.sweeps.len(), 3);
        assert_eq!(
            plan.sweeps
                .iter()
                .map(|s| s.sim.packet_size)
                .collect::<Vec<_>>(),
            vec![1, 4, 16]
        );
        // Everything else is the shared template: the sugar is exactly
        // the three sweeps written out.
        let explicit: String = [1, 4, 16]
            .iter()
            .map(|ps| {
                format!(
                    "[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n[sweep.sim]\npacket_size = {ps}\n"
                )
            })
            .collect();
        assert_eq!(
            ExperimentPlan::from_toml_str(&format!("[figure]\nname = \"x\"\n{explicit}")).unwrap(),
            plan
        );
    }

    #[test]
    fn matrix_sugar_rejects_bad_axes() {
        let base = "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n";
        for extra in [
            "packet_sizes = []",
            "packet_sizes = [0]",
            "packet_sizes = \"4\"",
            // Beyond u32: rejected at parse, never truncated.
            "packet_sizes = [4294967300]",
        ] {
            let err = ExperimentPlan::from_toml_str(&format!("{base}{extra}")).unwrap_err();
            assert!(matches!(err, SfError::Plan(_)), "{extra} → {err}");
        }
        // There is no concentration axis: a concentration is part of
        // the topology spec (`sf:q=5,p=4`).
        let err =
            ExperimentPlan::from_toml_str(&format!("{base}concentrations = [2]")).unwrap_err();
        assert!(matches!(err, SfError::Plan(_)), "{err}");
        assert!(
            err.to_string()
                .contains("unknown sweep key \"concentrations\""),
            "{err}"
        );
        // Nor a warm-start key: every load runs cold.
        for (plan, want) in [
            (
                format!("{base}warm_start = true"),
                "unknown sweep key \"warm_start\"",
            ),
            (
                "[figure]\nname = \"x\"\n[defaults]\nwarm_start = true\n\
                 [[sweep]]\ntopo = \"sf:q=5\""
                    .to_string(),
                "unknown [defaults] key \"warm_start\"",
            ),
        ] {
            let err = ExperimentPlan::from_toml_str(&plan).unwrap_err();
            assert!(matches!(err, SfError::Plan(_)), "{err}");
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn fault_plan_parses_round_trips_and_rejects_bad_input() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [sweep.faults]\nlinks = 0.02\nmode = \"adversarial\"",
        )
        .unwrap();
        let fp = plan.sweeps[0].faults.unwrap();
        assert_eq!(fp.links, 0.02);
        assert_eq!(fp.routers, 0.0);
        assert_eq!(fp.seed, 7, "seed defaults to 7");
        assert_eq!(fp.mode, FaultMode::Adversarial);
        // The defaults are the values a full table spells out.
        let explicit = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [sweep.faults]\nlinks = 0.02\nrouters = 0.0\nseed = 7\nmode = \"adversarial\"",
        )
        .unwrap();
        assert_eq!(explicit, plan);
        // Bad keys and values are typed plan errors.
        for bad in [
            "[sweep.faults]\nwat = 1",
            "[sweep.faults]\nlinks = 1.5",
            "[sweep.faults]\nlinks = -0.1",
            "[sweep.faults]\nseed = -1",
            "[sweep.faults]\nmode = \"warp\"",
            "faults = 3",
        ] {
            let doc = format!("[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n{bad}");
            let err = ExperimentPlan::from_toml_str(&doc).unwrap_err();
            assert!(matches!(err, SfError::Plan(_)), "{bad} → {err}");
        }
        // faults is a per-sweep key, not a [defaults] key: a kill-set
        // silently inherited by every sweep of a figure is exactly the
        // kind of spooky action the schema rejects.
        let err = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[defaults.faults]\nlinks = 0.1\n\
             [[sweep]]\ntopo = \"sf:q=5\"",
        )
        .unwrap_err();
        assert!(matches!(err, SfError::Plan(_)), "{err}");
        assert!(err.to_string().contains("faults"), "{err}");
    }

    #[test]
    fn fault_fractions_matrix_expands_between_backends_and_sizes() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             backends = [\"cycle\", \"flow\"]\nfault_fractions = [0.0, 0.05]\n\
             packet_sizes = [1, 4]\n[sweep.faults]\nseed = 9\nmode = \"adversarial\"",
        )
        .unwrap();
        // backends outermost, then fractions, packet sizes innermost.
        let got: Vec<(Backend, f64, usize)> = plan
            .sweeps
            .iter()
            .map(|s| (s.backend, s.faults.unwrap().links, s.sim.packet_size))
            .collect();
        assert_eq!(
            got,
            vec![
                (Backend::Cycle, 0.0, 1),
                (Backend::Cycle, 0.0, 4),
                (Backend::Cycle, 0.05, 1),
                (Backend::Cycle, 0.05, 4),
                (Backend::Flow, 0.0, 1),
                (Backend::Flow, 0.0, 4),
                (Backend::Flow, 0.05, 1),
                (Backend::Flow, 0.05, 4),
            ]
        );
        // routers/seed/mode inherit from the sweep's faults table.
        for s in &plan.sweeps {
            let f = s.faults.unwrap();
            assert_eq!(f.seed, 9);
            assert_eq!(f.mode, FaultMode::Adversarial);
        }
        // Bad axes are typed errors.
        for bad in [
            "fault_fractions = []",
            "fault_fractions = [1.5]",
            "fault_fractions = \"x\"",
        ] {
            let doc = format!("[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n{bad}");
            let err = ExperimentPlan::from_toml_str(&doc).unwrap_err();
            assert!(matches!(err, SfError::Plan(_)), "{bad} → {err}");
        }
    }

    #[test]
    fn zero_fraction_faults_share_the_intact_topology_instance() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.2]\n[sweep.faults]\nlinks = 0.0\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.3]\n[sweep.faults]\nlinks = 0.02",
        )
        .unwrap();
        let set = plan.expand().unwrap();
        // Sweeps 1 and 2 share the intact instance (no-op normalized
        // away); sweep 3's kill-set is a distinct instance of the same
        // spec.
        assert_eq!(set.topos().len(), 2);
        assert_eq!(set.topo_faults()[0], None);
        let f = set.topo_faults()[1].unwrap();
        assert_eq!(f.links, 0.02);
        assert_eq!(set.jobs()[0].topo, set.jobs()[1].topo);
        assert_eq!(set.jobs()[2].topo, 1);
    }

    #[test]
    fn zero_fraction_fault_records_are_identical_to_fault_free() {
        // The parity guard: the fault machinery must be free when
        // unused — a links = 0.0 plan emits byte-identical records.
        let body = "[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.2]\n\
                    [sweep.sim]\nwarmup = 150\nmeasure = 300\ndrain = 1000";
        let intact =
            ExperimentPlan::from_toml_str(&format!("[figure]\nname = \"x\"\n{body}")).unwrap();
        let noop = ExperimentPlan::from_toml_str(&format!(
            "[figure]\nname = \"x\"\n{body}\n[sweep.faults]\nlinks = 0.0\nrouters = 0.0"
        ))
        .unwrap();
        let run = |plan: &ExperimentPlan| -> Vec<String> {
            let mut set = plan.expand().unwrap();
            set.prepare().unwrap();
            set.run_job(&set.jobs()[0])
                .unwrap()
                .iter()
                .map(|r| r.to_csv())
                .collect()
        };
        assert_eq!(run(&intact), run(&noop));
    }

    #[test]
    fn degraded_jobs_run_on_the_degraded_network() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.2]\n\
             routing = [\"min\", \"ugal-l:c=4\"]\nbackends = [\"cycle\", \"flow\"]\n\
             [sweep.faults]\nlinks = 0.05\n\
             [sweep.sim]\nwarmup = 150\nmeasure = 300\ndrain = 1000",
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        set.prepare().unwrap();
        let ctx = set.ctx(&set.jobs()[0]);
        assert!(ctx.net.degraded);
        assert!(ctx.net.name.contains("faults"), "{}", ctx.net.name);
        // sf:q=5 has 175 cables; 5% kills 9 of them.
        assert_eq!(ctx.net.graph.num_edges(), 175 - 9);
        for job in set.jobs() {
            let records = set.run_job(job).unwrap();
            assert_eq!(records.len(), 1);
            assert!(records[0].accepted > 0.0, "{records:?}");
            assert!(records[0].topology.contains("faults"));
            assert_eq!(records[0].spec, "sf:q=5");
        }
    }

    #[test]
    fn worst_case_traffic_with_faults_is_rejected_at_expand() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\ntraffic = \"worst\"\n\
             loads = [0.1]\n[sweep.faults]\nlinks = 0.02",
        )
        .unwrap();
        let err = plan.expand().unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
        assert!(err.to_string().contains("worst-case"), "{err}");
        // A zero-fraction plan is normalized away and composes fine.
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\ntraffic = \"worst\"\n\
             loads = [0.1]\n[sweep.faults]\nlinks = 0.0",
        )
        .unwrap();
        assert!(plan.expand().is_ok());
    }

    #[test]
    fn partitioning_kill_set_is_a_typed_prepare_error() {
        // links = 1.0 kills every cable: the live routers are all
        // isolated, which the boot-time connectivity contract rejects.
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [sweep.faults]\nlinks = 1.0",
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        let err = set.prepare().unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
        assert!(err.to_string().contains("partitions"), "{err}");
        assert!(err.to_string().contains("sf:q=5"), "{err}");
    }

    #[test]
    fn verify_certifies_the_degraded_cdg() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [sweep.faults]\nlinks = 0.05\nrouters = 0.04",
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        let certs = set.verify().unwrap();
        assert_eq!(certs.len(), 1);
        // The certificate names the degraded instance and was computed
        // on the degraded graph (dead routers host no endpoint pairs:
        // 49 live routers → 49 · 48 ordered pairs).
        assert!(certs[0].topo.contains("faults"), "{}", certs[0].topo);
    }

    #[test]
    fn run_job_executes_and_labels_records() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [sweep.sim]\nwarmup = 150\nmeasure = 300\ndrain = 1000",
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        set.prepare().unwrap();
        let records = set.run_job(&set.jobs()[0]).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].spec, "sf:q=5");
        assert_eq!(records[0].routing, "MIN");
        assert_eq!(records[0].backend, "cycle");
        assert!(records[0].accepted > 0.0);
    }

    #[test]
    fn backend_key_parses_defaults_and_round_trips() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[defaults]\nbackend = \"flow\"\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.2]\nbackend = \"cycle\"",
        )
        .unwrap();
        assert_eq!(plan.sweeps[0].backend, Backend::Flow);
        assert_eq!(plan.sweeps[1].backend, Backend::Cycle);
        // A default backend is the same plan as one spelled per sweep.
        let explicit = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\nbackend = \"flow\"\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.2]\nbackend = \"cycle\"",
        )
        .unwrap();
        assert_eq!(explicit, plan);

        let err = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nbackend = \"quantum\"",
        )
        .unwrap_err();
        assert!(matches!(err, SfError::Plan(_)), "{err}");
    }

    #[test]
    fn backends_matrix_sugar_is_outermost_axis() {
        // backends × packet_sizes: backends vary slowest, sizes fastest.
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\n\
             backends = [\"cycle\", \"flow\"]\npacket_sizes = [1, 4]",
        )
        .unwrap();
        let got: Vec<(Backend, usize)> = plan
            .sweeps
            .iter()
            .map(|s| (s.backend, s.sim.packet_size))
            .collect();
        assert_eq!(
            got,
            vec![
                (Backend::Cycle, 1),
                (Backend::Cycle, 4),
                (Backend::Flow, 1),
                (Backend::Flow, 4),
            ]
        );

        // A default backend does not contradict a sweep's backends
        // axis: the axis replaces it.
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[defaults]\nbackend = \"flow\"\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.1]\nbackends = [\"cycle\"]",
        )
        .unwrap();
        assert_eq!(plan.sweeps.len(), 1);
        assert_eq!(plan.sweeps[0].backend, Backend::Cycle);

        // backend and backends on one sweep contradict each other.
        let err = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n\
             backend = \"flow\"\nbackends = [\"cycle\"]",
        )
        .unwrap_err();
        assert!(matches!(err, SfError::Plan(_)), "{err}");
    }

    #[test]
    fn flow_backend_runs_jobs_through_the_same_set() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[defaults]\nbackend = \"flow\"\n\
             routing = [\"min\", \"val\", \"ugal-l:c=4\", \"fatpaths:layers=2\"]\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nloads = [0.2, 1.0]",
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        set.prepare().unwrap();
        let mut records = Vec::new();
        for job in set.jobs() {
            records.extend(set.run_job(job).unwrap());
        }
        assert_eq!(records.len(), 8);
        assert!(records.iter().all(|r| r.backend == "flow"));
        assert!(records.iter().all(|r| r.accepted > 0.0));
        // Below saturation the flow tier delivers the offered load
        // exactly and reports a finite latency above the zero-load base.
        let low = &records[0];
        assert!((low.accepted - 0.2).abs() < 1e-9, "{low:?}");
        assert!(!low.saturated);
        assert!(low.latency.is_finite() && low.latency > 1.0);
        assert!(low.p99 >= low.latency);
        // MIN on uniform sf:q=5 saturates below full injection (max
        // channel load > 1 at λ = 1); the record says so and clamps
        // accepted to the max-min fair share.
        let high = &records[1];
        assert!(high.saturated, "{high:?}");
        assert!(high.accepted < 1.0);
        assert!(high.latency.is_nan());
        // UGAL's knee is no worse than MIN's on any shared load.
        let ugal_high = &records[5];
        assert!(ugal_high.accepted >= high.accepted - 1e-9);
    }

    #[test]
    fn flow_backend_rejects_inexpressible_routings_at_expand() {
        for routing in ["ecmp", "val:cap3"] {
            let plan = ExperimentPlan::from_toml_str(&format!(
                "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n\
                 backend = \"flow\"\nrouting = \"{routing}\"\nloads = [0.1]"
            ))
            .unwrap();
            let err = plan.expand().unwrap_err();
            assert!(matches!(err, SfError::Flow(_)), "{routing} → {err}");
        }
    }

    #[test]
    fn memo_builds_each_key_once_and_keeps_errors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let memo: Memo<u8, Result<Vec<u8>, String>> = Memo::new([1, 2, 1]);
        assert_eq!(memo.slots.len(), 2, "keys are deduplicated");
        let barrier = Barrier::new(4);
        for (key, want) in [(1, Ok(vec![7])), (2, Err("no layers".to_string()))] {
            let builds = AtomicUsize::new(0);
            // Four workers ask for one key at once: one builds, the
            // others wait for its value (or its error).
            let seen: Vec<&Result<Vec<u8>, String>> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            memo.get(&key, || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                want.clone()
                            })
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("workers do not panic"))
                    .collect()
            });
            assert_eq!(builds.load(Ordering::SeqCst), 1, "key {key}");
            for v in &seen {
                assert!(std::ptr::eq(*v, seen[0]), "key {key}");
                assert_eq!(**v, want);
            }
        }
    }

    #[test]
    fn flow_jobs_skip_routing_table_construction() {
        // The lazy-tables contract: a pure flow sweep on a table-free
        // traffic pattern must never build all-pairs tables (at q=79
        // they would dwarf the solve itself).
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"x\"\n[[sweep]]\ntopo = \"sf:q=5\"\n\
             backend = \"flow\"\nloads = [0.5]",
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        set.prepare().unwrap();
        set.run_job(&set.jobs()[0]).unwrap();
        assert!(set.ctxs[0].tables.get().is_none());
    }
}
