//! [`SfError`] — the workspace-wide typed error.
//!
//! Every fallible operation in the experiment layer (spec parsing,
//! topology construction, traffic-pattern instantiation, experiment
//! execution, record serialization) returns `Result<_, SfError>` so that
//! callers — `sf-bench`, examples, future config-file drivers — can
//! report failures uniformly instead of panicking.

use sf_flow::FlowError;
use sf_routing::RoutingError;
use sf_topo::slimfly::SlimFlyError;
use sf_traffic::TrafficError;
use sf_verify::VerifyError;
use std::fmt;

/// Any error produced by the `slimfly` experiment layer.
#[derive(Debug)]
pub enum SfError {
    /// A topology spec string could not be parsed.
    ParseSpec {
        /// The offending input.
        input: String,
        /// What went wrong.
        reason: String,
    },
    /// A parsed spec carries parameters no construction accepts.
    InvalidParam {
        /// Canonical rendering of the offending spec.
        spec: String,
        /// Which constraint was violated.
        reason: String,
    },
    /// Slim Fly construction rejected its parameters (q not a prime
    /// power, or q ≡ 2 mod 4).
    Topology(SlimFlyError),
    /// Routing-spec parsing or router construction failed.
    Routing(RoutingError),
    /// Traffic-pattern parsing or instantiation failed.
    Traffic(TrafficError),
    /// The flow-level backend cannot express the requested combination
    /// (e.g. per-flit adaptive ANCA routing) or found demand unroutable.
    Flow(FlowError),
    /// Static verification rejected a configuration: a proven wormhole
    /// deadlock (with cycle witness), an unroutable pair, or a
    /// spec-level screen (e.g. Valiant detours on a single VC).
    Verify(VerifyError),
    /// The experiment itself is ill-formed (e.g. an offered load outside
    /// [0, 1]).
    Experiment(String),
    /// A command-line flag could not be interpreted (`sf-bench`'s shared
    /// `SweepArgs` parser).
    Cli(String),
    /// An experiment file (a TOML plan) could not be parsed or
    /// interpreted against the plan schema.
    Plan(String),
    /// Writing records to a sink failed.
    Io(std::io::Error),
}

impl fmt::Display for SfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SfError::ParseSpec { input, reason } => {
                write!(f, "cannot parse topology spec {input:?}: {reason}")
            }
            SfError::InvalidParam { spec, reason } => {
                write!(f, "invalid parameters in {spec}: {reason}")
            }
            SfError::Topology(e) => write!(f, "topology construction failed: {e}"),
            SfError::Routing(e) => write!(f, "routing error: {e}"),
            SfError::Traffic(e) => write!(f, "traffic pattern error: {e}"),
            SfError::Flow(e) => write!(f, "flow backend error: {e}"),
            SfError::Verify(e) => write!(f, "static verification failed: {e}"),
            SfError::Experiment(msg) => write!(f, "ill-formed experiment: {msg}"),
            SfError::Cli(msg) => write!(f, "bad command line: {msg}"),
            SfError::Plan(msg) => write!(f, "bad experiment file: {msg}"),
            SfError::Io(e) => write!(f, "record output failed: {e}"),
        }
    }
}

impl std::error::Error for SfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SfError::Topology(e) => Some(e),
            SfError::Routing(e) => Some(e),
            SfError::Traffic(e) => Some(e),
            SfError::Flow(e) => Some(e),
            SfError::Verify(e) => Some(e),
            SfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SlimFlyError> for SfError {
    fn from(e: SlimFlyError) -> Self {
        SfError::Topology(e)
    }
}

impl From<RoutingError> for SfError {
    fn from(e: RoutingError) -> Self {
        SfError::Routing(e)
    }
}

impl From<TrafficError> for SfError {
    fn from(e: TrafficError) -> Self {
        SfError::Traffic(e)
    }
}

impl From<FlowError> for SfError {
    fn from(e: FlowError) -> Self {
        SfError::Flow(e)
    }
}

impl From<VerifyError> for SfError {
    fn from(e: VerifyError) -> Self {
        SfError::Verify(e)
    }
}

impl From<std::io::Error> for SfError {
    fn from(e: std::io::Error) -> Self {
        SfError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = SfError::ParseSpec {
            input: "sf:q=banana".into(),
            reason: "q must be an integer".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("sf:q=banana") && msg.contains("integer"));

        let e: SfError = SlimFlyError::NotPrimePower(15).into();
        assert!(e.to_string().contains("15"));

        let e: SfError = TrafficError::UnknownPattern("x".into()).into();
        assert!(e.to_string().contains("traffic"));
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e: SfError = SlimFlyError::BadResidue(6).into();
        assert!(e.source().is_some());
        let e = SfError::Experiment("no loads".into());
        assert!(e.source().is_none());
    }
}
