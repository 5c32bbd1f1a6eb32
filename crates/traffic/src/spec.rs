//! Declarative traffic-pattern selection: [`TrafficSpec`] names a
//! pattern family; [`TrafficSpec::build`] instantiates it for a concrete
//! network, the worst case through [`TrafficPattern::worst_case`].
//!
//! Unknown pattern names are a typed [`TrafficError`], not a panic — the
//! experiment layer in the `slimfly` facade folds this into its
//! workspace-wide `SfError`.

use crate::TrafficPattern;
use sf_routing::RoutingTables;
use sf_topo::Network;
use std::fmt;
use std::str::FromStr;

/// Errors from traffic-pattern parsing and construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrafficError {
    /// The pattern name is not one of [`TrafficSpec::ALL`].
    UnknownPattern(String),
    /// A worst-case pattern was requested for a topology without one
    /// (adversarial permutations exist for every spec-buildable family
    /// — SF, DF, FT-3, symmetric tori, flattened butterflies,
    /// hypercubes, Long-Hop, DLN and BDF networks — but degenerate
    /// instances, e.g. fully-connected DLNs or asymmetric tori, have
    /// no adversarial structure to exploit).
    UnsupportedWorstCase {
        /// Name of the offending network.
        topology: String,
    },
    /// A worst-case pattern was requested for a fault-degraded network.
    /// The adversarial permutations are derived from the *intact*
    /// structure (MMS subgroup cosets, Dragonfly group order, torus
    /// axes, …); on a degraded instance they would silently address
    /// dead routers' endpoints or exploit cables that no longer exist,
    /// so the combination is a typed error rather than a skewed curve.
    WorstCaseOnDegraded {
        /// Name of the degraded network instance.
        topology: String,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::UnknownPattern(name) => {
                write!(f, "unknown traffic pattern {name:?} (expected one of: ")?;
                for (i, s) in TrafficSpec::ALL.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            TrafficError::UnsupportedWorstCase { topology } => write!(
                f,
                "no worst-case traffic pattern is defined for {topology} \
                 (Slim Fly, Dragonfly, fat-tree, symmetric-torus, \
                 flattened-butterfly, hypercube, Long-Hop, DLN and BDF \
                 networks have one; degenerate instances — fully \
                 connected or asymmetric — do not)"
            ),
            TrafficError::WorstCaseOnDegraded { topology } => write!(
                f,
                "worst-case traffic is undefined on the fault-degraded \
                 network {topology}: the adversarial permutation is \
                 derived from the intact structure and would silently \
                 target dead routers (use uniform or a bit permutation \
                 for resilience sweeps)"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

/// A traffic-pattern family, independent of any concrete network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficSpec {
    /// Uniform random destinations (§V-A).
    Uniform,
    /// Bit shuffle `d_i = s_(i−1)` (§V-B).
    Shuffle,
    /// Bit reversal `d_i = s_(b−i−1)` (§V-B).
    BitReversal,
    /// Bit complement `d_i = ¬s_i` (§V-B).
    BitComplement,
    /// Shift to the ±N/2 counterpart (§V-B).
    Shift,
    /// The topology-specific adversarial permutation (§V-C).
    WorstCase,
}

impl TrafficSpec {
    /// Every selectable pattern family.
    pub const ALL: &'static [TrafficSpec] = &[
        TrafficSpec::Uniform,
        TrafficSpec::Shuffle,
        TrafficSpec::BitReversal,
        TrafficSpec::BitComplement,
        TrafficSpec::Shift,
        TrafficSpec::WorstCase,
    ];

    /// Canonical name (figure-legend style; round-trips via [`FromStr`]).
    pub fn name(&self) -> &'static str {
        match self {
            TrafficSpec::Uniform => "uniform",
            TrafficSpec::Shuffle => "shuffle",
            TrafficSpec::BitReversal => "bitrev",
            TrafficSpec::BitComplement => "bitcomp",
            TrafficSpec::Shift => "shift",
            TrafficSpec::WorstCase => "worst",
        }
    }

    /// Instantiates the pattern for a concrete network. `tables` must be
    /// built over `net.graph`; only worst-case patterns consult them.
    pub fn build(
        &self,
        net: &Network,
        tables: &RoutingTables,
    ) -> Result<TrafficPattern, TrafficError> {
        self.build_with(net, || tables)
    }

    /// Like [`TrafficSpec::build`], but takes the routing tables lazily:
    /// only the distance-based worst cases (Slim Fly, BDF, DLN and Long
    /// Hop) force the closure. Large flow-model runs use this to
    /// instantiate every other pattern without ever paying for an
    /// all-pairs distance matrix.
    pub fn build_with<'a>(
        &self,
        net: &Network,
        tables: impl FnOnce() -> &'a RoutingTables,
    ) -> Result<TrafficPattern, TrafficError> {
        let n = net.num_endpoints() as u32;
        match self {
            TrafficSpec::Uniform => Ok(TrafficPattern::uniform(n)),
            TrafficSpec::Shuffle => Ok(TrafficPattern::shuffle(n)),
            TrafficSpec::BitReversal => Ok(TrafficPattern::bit_reversal(n)),
            TrafficSpec::BitComplement => Ok(TrafficPattern::bit_complement(n)),
            TrafficSpec::Shift => Ok(TrafficPattern::shift(n)),
            TrafficSpec::WorstCase => TrafficPattern::worst_case(net, tables),
        }
    }
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TrafficSpec {
    type Err = TrafficError;

    fn from_str(s: &str) -> Result<Self, TrafficError> {
        match s {
            "uniform" => Ok(TrafficSpec::Uniform),
            "shuffle" => Ok(TrafficSpec::Shuffle),
            "bitrev" => Ok(TrafficSpec::BitReversal),
            "bitcomp" => Ok(TrafficSpec::BitComplement),
            "shift" => Ok(TrafficSpec::Shift),
            "worst" => Ok(TrafficSpec::WorstCase),
            other => Err(TrafficError::UnknownPattern(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_topo::SlimFly;

    #[test]
    fn names_round_trip() {
        for &spec in TrafficSpec::ALL {
            let parsed: TrafficSpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn unknown_name_is_typed_error() {
        let err = "wurst".parse::<TrafficSpec>().unwrap_err();
        assert_eq!(err, TrafficError::UnknownPattern("wurst".into()));
        assert!(err.to_string().contains("wurst"));
        assert!(err.to_string().contains("uniform"));
    }

    #[test]
    fn build_dispatches_by_kind() {
        let net = SlimFly::new(5).unwrap().network();
        let tables = RoutingTables::new(&net.graph);
        for &spec in TrafficSpec::ALL {
            let pat = spec.build(&net, &tables).unwrap();
            assert_eq!(pat.num_endpoints() as usize, net.num_endpoints());
        }
    }

    #[test]
    fn worst_case_unsupported_topologies_error() {
        // Every spec-buildable family now has an adversary; only
        // generic (`Other`) networks and degenerate instances error.
        let g = sf_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let net = sf_topo::Network::with_uniform_concentration(
            g,
            2,
            "ring4".into(),
            sf_topo::TopologyKind::Other,
        );
        let tables = RoutingTables::new(&net.graph);
        let err = TrafficSpec::WorstCase.build(&net, &tables).unwrap_err();
        assert!(matches!(err, TrafficError::UnsupportedWorstCase { .. }));
    }

    #[test]
    fn worst_case_on_degraded_network_is_typed_error() {
        use sf_graph::fault::{kill_set, FaultMode};
        let net = SlimFly::new(5).unwrap().network();
        let kill = kill_set(&net.graph, 0.02, 0.0, 7, FaultMode::Random);
        let degraded = net.degrade(&kill, " [faults l=0.02]").unwrap();
        let tables = RoutingTables::new(&degraded.graph);
        let err = TrafficSpec::WorstCase
            .build(&degraded, &tables)
            .unwrap_err();
        assert!(matches!(err, TrafficError::WorstCaseOnDegraded { .. }));
        assert!(err.to_string().contains("degraded"), "{err}");
        // Every non-worst pattern still builds on the degraded view.
        for &spec in TrafficSpec::ALL {
            if spec != TrafficSpec::WorstCase {
                assert!(spec.build(&degraded, &tables).is_ok(), "{spec}");
            }
        }
    }

    #[test]
    fn worst_case_dln_and_bdf_dispatch() {
        let net = sf_topo::random_dln::RandomDln::new(32, 2, 7).network();
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        assert_eq!(pat.name(), "worst-dln");

        let net = sf_topo::bdf::ProjectivePlaneGraph::new(5)
            .unwrap()
            .network(3);
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        assert_eq!(pat.name(), "worst-bdf");
    }

    #[test]
    fn worst_case_longhop_dispatches() {
        let net = sf_topo::longhop::LongHop::new(5, 2).network();
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        assert_eq!(pat.name(), "worst-lh");
    }

    #[test]
    fn worst_case_hypercube_dispatches() {
        let net = sf_topo::hypercube::Hypercube::new(4).network();
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        assert_eq!(pat.name(), "worst-hc");
    }
}
