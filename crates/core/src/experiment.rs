//! The fluent experiment builder.
//!
//! One [`Experiment`] describes a full topology × routing × traffic ×
//! load study declaratively and executes it through the cycle-level
//! simulator ([`Experiment::run`]), the analytic flow model
//! ([`Experiment::flow`]), or the cost model ([`Experiment::cost`]).
//! Topologies and routings can be given as typed values or as their
//! spec strings — both of these are the same experiment:
//!
//! ```
//! use slimfly::prelude::*;
//!
//! let records = Experiment::on("sf:q=5")
//!     .routing_str("min")
//!     .traffic(TrafficSpec::Uniform)
//!     .loads(&[0.1, 0.3])
//!     .sim(SimConfig { warmup: 200, measure: 400, drain: 1_000, ..Default::default() })
//!     .run()?;
//! assert_eq!(records.len(), 2);
//!
//! let typed = Experiment::on(TopologySpec::slimfly(5))
//!     .routing(RoutingSpec::Min)
//!     .loads(&[0.1, 0.3]);
//! # let _ = typed;
//! println!("{}", Record::CSV_HEADER);
//! for r in &records {
//!     println!("{}", r.to_csv());
//! }
//! # Ok::<(), slimfly::SfError>(())
//! ```
//!
//! String inputs (`Experiment::on("sf:q=5")`, `.routing_str("ugal-l:c=4")`)
//! keep the builder chain infallible: parse errors are deferred and
//! surface as typed [`SfError`]s when the experiment executes.

use crate::error::SfError;
use crate::plan::{Backend, ExperimentPlan, SweepPlan};
use crate::schedule::Scheduler;
use crate::sink::MemorySink;
use crate::spec::TopologySpec;
use sf_cost::{CostBreakdown, CostModel};
use sf_routing::RoutingSpec;
use sf_sim::SimConfig;
use sf_topo::Network;
use sf_traffic::TrafficSpec;

/// Formats a float for CSV cells: `nan` for NaN, no decimals at ≥ 100,
/// three decimals otherwise (the workspace-wide table convention).
pub fn fmt_float(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Quotes a CSV field when needed (RFC 4180): topology names and specs
/// contain commas (`SF(q=19,p=15)`, `dln:nr=64,y=4`), which would
/// otherwise shift every downstream column.
pub fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_str(s: &str) -> String {
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

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Shortest representation that round-trips.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One structured result row of a simulated experiment.
#[derive(Clone, Debug)]
pub struct Record {
    /// Network instance name (e.g. `SF(q=19,p=15)`).
    pub topology: String,
    /// Canonical spec string that produced the network.
    pub spec: String,
    /// Routing-algorithm label (figure-legend style).
    pub routing: String,
    /// Traffic-pattern name.
    pub traffic: String,
    /// Which backend produced the row: `"cycle"` (flit simulator) or
    /// `"flow"` (max-min fair-share solver).
    pub backend: String,
    /// Flits per packet the run simulated (1 = classic single-flit).
    pub packet_size: usize,
    /// Offered load (flits/endpoint/cycle).
    pub offered: f64,
    /// Mean packet latency in cycles — generation to *tail*-flit
    /// ejection, serialization included (NaN if nothing ejected).
    pub latency: f64,
    /// 99th-percentile packet latency in cycles. The cycle backend
    /// takes it exactly, as the nearest-rank order statistic over the
    /// ejected sample packets the mean is taken over; the flow backend
    /// estimates it from its queueing model.
    pub p99: f64,
    /// Accepted throughput (flits/active endpoint/cycle).
    pub accepted: f64,
    /// Mean hop count of measured packets.
    pub avg_hops: f64,
    /// Whether the run operated past saturation.
    pub saturated: bool,
    /// Maximum channel utilization over the measurement window.
    pub max_link_util: f64,
}

impl Record {
    /// Header row matching [`Record::to_csv`].
    pub const CSV_HEADER: &'static str =
        "topology,spec,routing,traffic,backend,packet_size,offered,latency,p99,accepted,avg_hops,saturated,max_link_util";

    /// One CSV row (fields in [`Record::CSV_HEADER`] order; fields
    /// containing commas are RFC 4180-quoted).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(&self.topology),
            csv_field(&self.spec),
            csv_field(&self.routing),
            csv_field(&self.traffic),
            csv_field(&self.backend),
            self.packet_size,
            fmt_float(self.offered),
            fmt_float(self.latency),
            fmt_float(self.p99),
            fmt_float(self.accepted),
            fmt_float(self.avg_hops),
            self.saturated,
            fmt_float(self.max_link_util),
        )
    }

    /// One JSON object (a JSON-lines row; non-finite floats are `null`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"topology\":{},\"spec\":{},\"routing\":{},\"traffic\":{},\"backend\":{},\
             \"packet_size\":{},\"offered\":{},\
             \"latency\":{},\"p99\":{},\"accepted\":{},\"avg_hops\":{},\"saturated\":{},\
             \"max_link_util\":{}}}",
            json_str(&self.topology),
            json_str(&self.spec),
            json_str(&self.routing),
            json_str(&self.traffic),
            json_str(&self.backend),
            self.packet_size,
            json_num(self.offered),
            json_num(self.latency),
            json_num(self.p99),
            json_num(self.accepted),
            json_num(self.avg_hops),
            self.saturated,
            json_num(self.max_link_util),
        )
    }
}

/// Analytic (flow-model) summary of a topology, from
/// [`Experiment::flow`].
#[derive(Clone, Debug)]
pub struct FlowSummary {
    /// Network instance name.
    pub topology: String,
    /// Canonical spec string.
    pub spec: String,
    /// Endpoint count `N`.
    pub endpoints: usize,
    /// Router count `Nr`.
    pub routers: usize,
    /// Endpoint-weighted average hop count under uniform minimal
    /// routing (Fig 1).
    pub avg_hops: f64,
    /// Analytic uniform saturation bound (1 / max channel load).
    pub saturation_bound: f64,
    /// Maximum channel load at unit injection.
    pub max_channel_load: f64,
    /// Mean channel load at unit injection.
    pub mean_channel_load: f64,
}

/// The topology half of [`Experiment::on`]: a parsed [`TopologySpec`]
/// or a spec string that is parsed (with a typed error) at run time.
#[derive(Clone, Debug)]
pub struct SpecArg(SpecSource);

#[derive(Clone, Debug)]
enum SpecSource {
    Parsed(TopologySpec),
    Raw(String),
}

impl From<TopologySpec> for SpecArg {
    fn from(spec: TopologySpec) -> Self {
        SpecArg(SpecSource::Parsed(spec))
    }
}

impl From<&TopologySpec> for SpecArg {
    fn from(spec: &TopologySpec) -> Self {
        SpecArg(SpecSource::Parsed(spec.clone()))
    }
}

impl From<&str> for SpecArg {
    fn from(spec: &str) -> Self {
        SpecArg(SpecSource::Raw(spec.to_string()))
    }
}

impl From<String> for SpecArg {
    fn from(spec: String) -> Self {
        SpecArg(SpecSource::Raw(spec))
    }
}

/// A routing selection: a parsed [`RoutingSpec`] or a spec string
/// resolved (with a typed error) at run time.
#[derive(Clone, Debug)]
enum RoutingChoice {
    Spec(RoutingSpec),
    Raw(String),
}

/// A declarative experiment: topology × routing × traffic × loads.
///
/// Build with [`Experiment::on`], chain configuration fluently, then
/// execute with [`Experiment::run`] (simulation), [`Experiment::flow`]
/// (analytic model) or [`Experiment::cost`] (cost model).
#[derive(Clone, Debug)]
pub struct Experiment {
    spec: SpecSource,
    routings: Vec<RoutingChoice>,
    /// Traffic, loads, simulator and backend; its topologies and
    /// routings are filled in by [`Experiment::to_plan`].
    sweep: SweepPlan,
}

impl Experiment {
    /// Starts an experiment on the given topology — a parsed
    /// [`TopologySpec`] or a spec string (`Experiment::on("sf:q=19")`).
    /// Defaults are a plan's ([`SweepPlan::default`]): MIN routing,
    /// uniform traffic, loads 0.1–0.9 in steps of 0.1, the paper's §V
    /// simulator configuration. String parse errors surface as typed
    /// errors when the experiment executes.
    pub fn on(spec: impl Into<SpecArg>) -> Self {
        Experiment {
            spec: spec.into().0,
            routings: Vec::new(),
            sweep: SweepPlan::default(),
        }
    }

    /// Selects the evaluation tier (default [`Backend::Cycle`]).
    /// [`Backend::Flow`] runs the same sweep through the max-min
    /// fair-share solver instead of the flit simulator — same jobs,
    /// workers, and record stream, minutes-to-milliseconds faster and
    /// usable at scales the flit engine can never touch. Combinations
    /// the flow model cannot express (per-flit adaptive ECMP/ANCA, the
    /// `val3` ablation) are rejected with a typed [`SfError::Flow`]
    /// when the experiment executes.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.sweep.backend = backend;
        self
    }

    /// Adds one routing scheme to the sweep (replaces the MIN default
    /// on first call; call repeatedly to compare schemes).
    pub fn routing(mut self, spec: RoutingSpec) -> Self {
        self.routings.push(RoutingChoice::Spec(spec));
        self
    }

    /// Adds one routing scheme by spec string (`"min"`, `"ugal-l:c=4"`,
    /// `"fatpaths:layers=3"`, …). Parse errors surface as typed errors
    /// when the experiment executes.
    pub fn routing_str(mut self, spec: &str) -> Self {
        self.routings.push(RoutingChoice::Raw(spec.to_string()));
        self
    }

    /// Adds several routing schemes to the sweep.
    pub fn routings<T: Into<RoutingSpec> + Copy>(mut self, specs: &[T]) -> Self {
        self.routings
            .extend(specs.iter().map(|&s| RoutingChoice::Spec(s.into())));
        self
    }

    /// Adds several routing schemes by spec string.
    pub fn routing_strs(mut self, specs: &[&str]) -> Self {
        self.routings
            .extend(specs.iter().map(|s| RoutingChoice::Raw(s.to_string())));
        self
    }

    /// Sets the traffic pattern (default: uniform).
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.sweep.traffic = traffic;
        self
    }

    /// Sets the offered-load sweep points.
    pub fn loads(mut self, loads: &[f64]) -> Self {
        self.sweep.loads = loads.to_vec();
        self
    }

    /// Sets the simulator configuration.
    pub fn sim(mut self, cfg: SimConfig) -> Self {
        self.sweep.sim = cfg;
        self
    }

    /// Overrides the virtual-channel count (e.g. 6 for Valiant detours
    /// on diameter-3 topologies) without rebuilding the whole
    /// [`SimConfig`].
    pub fn num_vcs(mut self, vcs: usize) -> Self {
        self.sweep.sim.num_vcs = vcs;
        self
    }

    /// Sets the flits-per-packet size (default 1). Sizes > 1 simulate
    /// wormhole flow control: the head flit routes and allocates a VC
    /// per hop, body/tail flits follow the reservation, and the tail
    /// releases it. `0` is rejected as a typed error at
    /// [`Experiment::run`].
    pub fn packet_size(mut self, flits: usize) -> Self {
        self.sweep.sim.packet_size = flits;
        self
    }

    /// The topology spec this experiment runs on (parsing a string
    /// target if needed).
    pub fn spec(&self) -> Result<TopologySpec, SfError> {
        match &self.spec {
            SpecSource::Parsed(spec) => Ok(spec.clone()),
            SpecSource::Raw(s) => s.parse(),
        }
    }

    /// The routing schemes this experiment sweeps, in insertion order
    /// (the MIN default when none were added), with all string inputs
    /// parsed and all parameters validated.
    pub fn routing_specs(&self) -> Result<Vec<RoutingSpec>, SfError> {
        if self.routings.is_empty() {
            return Ok(self.sweep.routings.clone());
        }
        self.routings
            .iter()
            .map(|choice| {
                let spec = match choice {
                    RoutingChoice::Spec(spec) => *spec,
                    RoutingChoice::Raw(s) => s.parse::<RoutingSpec>()?,
                };
                spec.validate()?;
                Ok(spec)
            })
            .collect()
    }

    /// Builds the concrete network (without running anything).
    pub fn build_network(&self) -> Result<Network, SfError> {
        self.spec()?.build()
    }

    /// Lowers the builder to a single-sweep [`ExperimentPlan`] — the
    /// declarative form config files use ([`crate::plan`]). String
    /// topology/routing inputs are parsed here (typed errors), loads
    /// and VC counts validated by the plan's
    /// [`expand`](ExperimentPlan::expand).
    pub fn to_plan(&self) -> Result<ExperimentPlan, SfError> {
        let spec = self.spec()?;
        Ok(ExperimentPlan {
            name: spec.to_string(),
            title: None,
            sweeps: vec![SweepPlan {
                topos: vec![spec],
                routings: self.routing_specs()?,
                ..self.sweep.clone()
            }],
        })
    }

    /// Runs the load sweep through the cycle-level simulator: one
    /// [`Record`] per (routing, load), routings in insertion order and
    /// loads in the given order.
    ///
    /// The builder lowers to an [`ExperimentPlan`] and executes through
    /// the [`Scheduler`] (worker count from
    /// [`Scheduler::default_workers`]); records are ordered by job id,
    /// so the result is bit-identical to a one-worker run.
    pub fn run(&self) -> Result<Vec<Record>, SfError> {
        let mut set = self.to_plan()?.expand()?;
        let mut sink = MemorySink::new();
        Scheduler::default().run(&mut set, &mut sink)?;
        Ok(sink.into_records())
    }

    /// Summarizes the topology under the flow backend's uniform MIN
    /// lowering (no load sweep): average hops, channel-load extremes,
    /// and the saturation bound `1 / max load`.
    ///
    /// This is a convenience view over the same model the
    /// [`Backend::Flow`] tier dispatches through — for full sweeps
    /// (per-load records, VAL/UGAL/FatPaths lowerings, the exact
    /// max-min solver) use `.backend(Backend::Flow).run()` instead.
    pub fn flow(&self) -> Result<FlowSummary, SfError> {
        let spec = self.spec()?;
        let net = spec.build()?;
        let idx = sf_flow::EdgeIndex::new(&net.graph);
        let demand = sf_flow::Demand::uniform(&net);
        let rl = sf_flow::min_loads(&net, &idx, &demand)?;
        Ok(FlowSummary {
            topology: net.name.clone(),
            spec: spec.to_string(),
            endpoints: net.num_endpoints(),
            routers: net.num_routers(),
            avg_hops: rl.avg_hops,
            saturation_bound: rl.saturation(),
            max_channel_load: rl.max_load,
            mean_channel_load: rl.mean_load(),
        })
    }

    /// Prices the topology under a cost model (§VI). Like
    /// [`Experiment::flow`], a load-independent convenience view: it
    /// shares the builder's topology resolution but produces a
    /// [`CostBreakdown`] instead of records.
    pub fn cost(&self, model: &CostModel) -> Result<CostBreakdown, SfError> {
        Ok(CostBreakdown::compute(&self.spec()?.build()?, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sim() -> SimConfig {
        SimConfig {
            warmup: 150,
            measure: 300,
            drain: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn run_produces_one_record_per_algo_and_load() {
        let records = Experiment::on(TopologySpec::slimfly(5))
            .routing(RoutingSpec::Min)
            .routing(RoutingSpec::Valiant { cap3: false })
            .loads(&[0.1, 0.2])
            .sim(quick_sim())
            .run()
            .unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].routing, "MIN");
        assert_eq!(records[3].routing, "VAL");
        assert!(records.iter().all(|r| r.spec == "sf:q=5"));
        assert!(records.iter().all(|r| r.traffic == "uniform"));
        assert!(records.iter().all(|r| r.accepted > 0.0));
    }

    #[test]
    fn string_topology_and_routing_run_end_to_end() {
        // The all-strings form a config-file driver would use.
        let records = Experiment::on("sf:q=5")
            .routing_str("ugal-l:c=4")
            .routing_str("fatpaths:layers=3")
            .loads(&[0.15])
            .sim(quick_sim())
            .run()
            .unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].routing, "UGAL-L");
        assert_eq!(records[1].routing, "FatPaths-3");
        assert!(records.iter().all(|r| r.accepted > 0.0));
    }

    #[test]
    fn string_parse_errors_surface_at_run_as_typed_errors() {
        let err = Experiment::on("warp:q=9").loads(&[0.1]).run().unwrap_err();
        assert!(matches!(err, SfError::ParseSpec { .. }), "{err}");
        let err = Experiment::on("sf:q=5")
            .routing_str("warp-speed")
            .loads(&[0.1])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Routing(_)), "{err}");
        // UGAL with zero candidates: typed at resolution, no silent
        // fallback to a default candidate count.
        let err = Experiment::on("sf:q=5")
            .routing(sf_routing::RoutingSpec::UgalL { candidates: 0 })
            .loads(&[0.1])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Routing(_)), "{err}");
    }

    #[test]
    fn routing_specs_resolve_with_min_default() {
        let exp = Experiment::on("sf:q=5");
        assert_eq!(
            exp.routing_specs().unwrap(),
            vec![sf_routing::RoutingSpec::Min]
        );
        let exp = Experiment::on("sf:q=5").routing_strs(&["min", "ugal-g:c=2"]);
        assert_eq!(
            exp.routing_specs().unwrap(),
            vec![
                sf_routing::RoutingSpec::Min,
                sf_routing::RoutingSpec::UgalG { candidates: 2 }
            ]
        );
    }

    #[test]
    fn default_routing_is_min() {
        let records = Experiment::on(TopologySpec::slimfly(5))
            .loads(&[0.1])
            .sim(quick_sim())
            .run()
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].routing, "MIN");
    }

    #[test]
    fn bad_loads_are_rejected() {
        let err = Experiment::on(TopologySpec::slimfly(5))
            .loads(&[1.5])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
        let err = Experiment::on(TopologySpec::slimfly(5))
            .loads(&[])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
    }

    #[test]
    fn spec_errors_propagate() {
        let err = Experiment::on(TopologySpec::SlimFly { q: 6, p: None })
            .loads(&[0.1])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Topology(_)), "{err}");
    }

    #[test]
    fn worst_case_on_degenerate_topology_is_traffic_error() {
        // Every spec-buildable family now has an adversary (DLN and
        // BDF were the last two), but degenerate instances still error
        // typed: a 4-router DLN with 2 shortcut rounds is the complete
        // graph — no distance for the farthest-pair matching to
        // exploit.
        let err = Experiment::on("dln:nr=4,y=2")
            .traffic(TrafficSpec::WorstCase)
            .loads(&[0.1])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Traffic(_)), "{err}");
        // And the non-degenerate DLN worst case runs end to end.
        let records = Experiment::on("dln:nr=32,y=4")
            .traffic(TrafficSpec::WorstCase)
            .loads(&[0.1])
            .sim(quick_sim())
            .run()
            .unwrap();
        assert_eq!(records[0].traffic, "worst-dln");
    }

    #[test]
    fn csv_and_json_serialization() {
        use crate::sink::{CsvSink, JsonLinesSink, TeeSink};
        let mut set = Experiment::on(TopologySpec::slimfly(5))
            .loads(&[0.1])
            .sim(quick_sim())
            .to_plan()
            .unwrap()
            .expand()
            .unwrap();
        let (mut csv, mut json) = (Vec::new(), Vec::new());
        let mut sinks = TeeSink::new(vec![
            Box::new(CsvSink::new(&mut csv)),
            Box::new(JsonLinesSink::new(&mut json)),
        ]);
        Scheduler::new(1).run(&mut set, &mut sinks).unwrap();
        drop(sinks);
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with(Record::CSV_HEADER));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("sf:q=5"));

        let json = String::from_utf8(json).unwrap();
        assert!(json.trim().starts_with('{') && json.trim().ends_with('}'));
        assert!(json.contains("\"spec\":\"sf:q=5\""));
    }

    #[test]
    fn flow_and_cost_views() {
        let exp = Experiment::on(TopologySpec::slimfly(5));
        let flow = exp.flow().unwrap();
        assert_eq!(flow.endpoints, 200);
        assert!(flow.avg_hops > 1.0 && flow.avg_hops < 2.0);
        assert!(flow.saturation_bound > 0.7);
        let cost = exp.cost(&CostModel::fdr10()).unwrap();
        assert!(cost.total_cost() > 0.0);
    }

    #[test]
    fn float_formatting_convention() {
        assert_eq!(fmt_float(f64::NAN), "nan");
        assert_eq!(fmt_float(123.456), "123");
        assert_eq!(fmt_float(1.23456), "1.235");
    }

    #[test]
    fn csv_fields_with_commas_are_quoted() {
        assert_eq!(csv_field("SF(q=19,p=15)"), "\"SF(q=19,p=15)\"");
        assert_eq!(csv_field("uniform"), "uniform");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        // A full record row has exactly as many top-level fields as the
        // header, despite commas inside the topology/spec names.
        let r = Record {
            topology: "SF(q=5,p=4)".into(),
            spec: "dln:nr=64,y=4".into(),
            routing: "MIN".into(),
            traffic: "uniform".into(),
            backend: "cycle".into(),
            packet_size: 1,
            offered: 0.1,
            latency: 1.0,
            p99: 2.0,
            accepted: 0.1,
            avg_hops: 1.5,
            saturated: false,
            max_link_util: 0.2,
        };
        let row = r.to_csv();
        let mut fields = 0;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, Record::CSV_HEADER.split(',').count());
    }

    #[test]
    fn packet_size_flows_from_builder_to_records() {
        let records = Experiment::on(TopologySpec::slimfly(5))
            .loads(&[0.1])
            .sim(quick_sim())
            .packet_size(4)
            .run()
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].packet_size, 4);
        assert!(records[0].to_csv().contains(",4,"));
        assert!(records[0].to_json().contains("\"packet_size\":4"));
        // Size 0 is a typed error, same family as the load checks.
        let err = Experiment::on(TopologySpec::slimfly(5))
            .packet_size(0)
            .loads(&[0.1])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
    }

    #[test]
    fn zero_vcs_is_rejected_not_a_panic() {
        let err = Experiment::on(TopologySpec::slimfly(5))
            .num_vcs(0)
            .loads(&[0.1])
            .run()
            .unwrap_err();
        assert!(matches!(err, SfError::Experiment(_)), "{err}");
    }
}
