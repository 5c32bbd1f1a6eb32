//! # slimfly — Slim Fly: a cost-effective low-diameter network topology
//!
//! A from-scratch Rust reproduction of **Besta & Hoefler, "Slim Fly: A
//! Cost Effective Low-Diameter Network Topology", ACM/IEEE
//! Supercomputing 2014**: the MMS-graph topology construction, all
//! comparison topologies, structural analysis, deadlock-free minimal and
//! adaptive routing, a cycle-level flit simulator, and the paper's cost
//! and power models — fronted by a declarative experiment API.
//!
//! ## Quickstart
//!
//! Every experiment starts from a [`TopologySpec`] — a parseable,
//! printable description of a concrete network — and runs through the
//! fluent [`Experiment`] builder:
//!
//! ```
//! use slimfly::prelude::*;
//!
//! // Parse a declarative spec (CLI flags and config files use the
//! // same strings): a Slim Fly with q = 5, the Hoffman–Singleton
//! // example of §II-B — 50 routers, 200 endpoints, diameter 2.
//! let spec: TopologySpec = "sf:q=5".parse()?;
//! let net = spec.build()?;
//! assert_eq!(net.num_routers(), 50);
//! assert_eq!(net.num_endpoints(), 200);
//! assert_eq!(sf_graph::metrics::diameter(&net.graph), Some(2));
//!
//! // Sweep offered loads through the cycle-level simulator (§V).
//! // Routing schemes are declarative too: `"min"`, `"val:cap3"`,
//! // `"ugal-l:c=4"`, `"fatpaths:layers=3"`, … (`RoutingSpec`).
//! let records = Experiment::on(spec)
//!     .routing_str("min")
//!     .traffic(TrafficSpec::Uniform)
//!     .loads(&[0.1, 0.3])
//!     .sim(SimConfig { warmup: 200, measure: 400, drain: 1_000, ..Default::default() })
//!     .run()?;
//! assert_eq!(records.len(), 2);
//! assert!(records.iter().all(|r| r.accepted > 0.0));
//!
//! // Records serialize to CSV rows or JSON lines:
//! println!("{}", Record::CSV_HEADER);
//! println!("{}", records[0].to_csv());
//!
//! // The same experiment evaluates analytically (flow model, §II-B2)
//! // and economically (cost model, §VI):
//! let flow = Experiment::on("sf:q=5").flow()?;
//! assert!(flow.saturation_bound > 0.7);
//! let cost = Experiment::on("sf:q=5").cost(&CostModel::fdr10())?;
//! assert!(cost.total_cost() > 0.0);
//! # Ok::<(), slimfly::SfError>(())
//! ```
//!
//! Failures are typed ([`SfError`]) — an unknown spec family, an
//! inadmissible `q`, an unknown traffic-pattern name, or an offered
//! load outside \[0, 1\] all surface as values, not panics.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`arith`] | `sf-arith` | finite fields GF(p^n) |
//! | [`graph`] | `sf-graph` | graph substrate, metrics, partitioning, failures |
//! | [`topo`] | `sf-topo` | SF MMS + all comparison topologies |
//! | [`routing`] | `sf-routing` | MIN/VAL/UGAL path generation and routers |
//! | [`sim`] | `sf-sim` | cycle-based flit-level simulator |
//! | [`verify`] | `sf-verify` | static deadlock certificates, VC counts, totality |
//! | [`traffic`] | `sf-traffic` | uniform/permutation/worst-case patterns |
//! | [`flow`] | `sf-flow` | flow-level backend: max-min solver, saturation bounds |
//! | [`cost`] | `sf-cost` | physical layout, cost & power models |
//!
//! On top of those this crate provides the experiment layer:
//!
//! * [`spec`] — [`TopologySpec`], the declarative constructor registry;
//! * [`experiment`] — the fluent [`Experiment`] builder and [`Record`]s;
//! * [`plan`] — [`ExperimentPlan`]: whole figures as TOML data,
//!   expanded to a deterministic [`JobSet`];
//! * [`schedule`] — the work-stealing [`Scheduler`] executing job sets
//!   on persistent workers;
//! * [`cache`] — the persistent content-addressed result cache the
//!   scheduler consults before simulating ([`ResultCache`]);
//! * [`sink`] — streaming [`RecordSink`]s (CSV/JSON-lines/memory/tee);
//! * [`report`] — markdown report generation for EXPERIMENTS.md;
//! * [`error`] — the workspace-wide [`SfError`];
//! * [`zoo`] — the paper's "library of practical topologies" (§VII-A);
//! * [`expansion`] — incremental endpoint growth (§VII-C).

#![deny(clippy::unwrap_used, clippy::allow_attributes_without_reason)]

pub use sf_arith as arith;
pub use sf_cost as cost;
pub use sf_flow as flow;
pub use sf_graph as graph;
pub use sf_routing as routing;
pub use sf_sim as sim;
pub use sf_topo as topo;
pub use sf_traffic as traffic;
pub use sf_verify as verify;

pub mod cache;
pub mod error;
pub mod expansion;
pub mod experiment;
pub mod plan;
pub mod report;
pub mod schedule;
pub mod sink;
pub mod spec;
pub mod zoo;

pub use cache::{CacheKey, ResultCache};
pub use error::SfError;
pub use experiment::{Experiment, FlowSummary, Record};
pub use plan::{Backend, ExperimentPlan, FaultPlan, Job, JobSet, SweepPlan};
pub use schedule::Scheduler;
pub use sf_routing::{Router, RoutingError, RoutingSpec};
pub use sf_topo::{Network, SlimFly, TopologyKind};
pub use sf_traffic::{TrafficError, TrafficSpec};
pub use sink::{CsvSink, JsonLinesSink, MemorySink, RecordSink, TeeSink};
pub use spec::TopologySpec;

/// Commonly used items for quick experiments.
pub mod prelude {
    pub use crate::cache::{CacheKey, ResultCache};
    pub use crate::error::SfError;
    pub use crate::experiment::{Experiment, FlowSummary, Record};
    pub use crate::plan::{Backend, ExperimentPlan, FaultPlan, Job, JobSet, SweepPlan};
    pub use crate::schedule::Scheduler;
    pub use crate::sink::{CsvSink, JsonLinesSink, MemorySink, RecordSink, TeeSink};
    pub use crate::spec::{self, TopologySpec};
    pub use crate::zoo::{self, SlimFlyConfig};
    pub use sf_cost::{CostBreakdown, CostModel};
    pub use sf_flow::{
        average_hops_uniform, evaluate, max_min_rates, min_loads, Demand, EdgeIndex, FlowError,
        FlowPoint, FlowSet, RoutingLoads,
    };
    pub use sf_graph::{metrics, partition, Graph};
    pub use sf_routing::{
        AdaptiveEcmpRouter, FatPathsRouter, MinRouter, QueueView, Router, RoutingError,
        RoutingSpec, RoutingTables, UgalRouter, ValiantRouter,
    };
    pub use sf_sim::{LoadSweep, SimConfig, Simulator};
    pub use sf_topo::{Network, SlimFly, TopologyKind};
    pub use sf_traffic::{TrafficPattern, TrafficSpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let cfg = SimConfig {
            warmup: 100,
            measure: 200,
            drain: 500,
            ..Default::default()
        };
        let res = Simulator::new(&net, &tables, &MinRouter, &pattern, 0.1, cfg).run();
        assert!(res.ejected > 0);
        let cost = CostBreakdown::compute(&net, &CostModel::fdr10());
        assert!(cost.total_cost() > 0.0);
    }

    #[test]
    fn spec_and_experiment_are_in_prelude() {
        let spec: TopologySpec = "sf:q=5".parse().unwrap();
        let summary = Experiment::on(spec).flow().unwrap();
        assert_eq!(summary.routers, 50);
    }
}
