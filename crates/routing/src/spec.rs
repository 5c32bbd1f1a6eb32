//! Declarative routing specs: [`RoutingSpec`] names a routing scheme in
//! a compact string grammar, mirroring what `slimfly::spec::TopologySpec`
//! does for topologies — the same value can come from a CLI flag, a
//! config file, or code, and [`RoutingSpec::build`] is the single
//! registry turning a spec into a live [`Router`].
//!
//! | Scheme | Spec | Router |
//! |--------|------|--------|
//! | Minimal (SF-MIN) | `min` | [`MinRouter`] |
//! | Valiant (SF-VAL) | `val`, `val:cap3` | [`ValiantRouter`] |
//! | UGAL local | `ugal-l`, `ugal-l:c=4` | [`UgalRouter`] |
//! | UGAL global | `ugal-g`, `ugal-g:c=4` | [`UgalRouter`] |
//! | Adaptive ECMP (ANCA) | `ecmp` | [`AdaptiveEcmpRouter`] |
//! | FatPaths layered | `fatpaths`, `fatpaths:layers=3` | [`FatPathsRouter`] |
//!
//! The grammar is `name` or `name:param` — one parameter per scheme,
//! so comma-separated spec *lists* (`--routing min,ugal-l:c=4`) stay
//! unambiguous; specs round-trip through [`std::fmt::Display`] /
//! [`std::str::FromStr`]. Ill-formed
//! parameters — `ugal-l:c=0`, `fatpaths:layers=0` — are typed
//! [`RoutingError`]s at parse (or, for programmatically built values,
//! at [`RoutingSpec::build`]) time, never silent runtime fallbacks.

use crate::router::{
    AdaptiveEcmpRouter, FatPathsRouter, MinRouter, Router, UgalRouter, ValiantRouter,
    FATPATHS_MAX_LAYERS, FATPATHS_SEED,
};
use crate::tables::RoutingTables;
use sf_graph::Graph;
use std::fmt;
use std::str::FromStr;

/// Default UGAL candidate count (the paper's best value, §IV-C).
pub const DEFAULT_UGAL_CANDIDATES: usize = 4;

/// Default FatPaths layer count.
pub const DEFAULT_FATPATHS_LAYERS: usize = 3;

/// Errors from routing-spec parsing and router construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingError {
    /// A routing spec string could not be parsed.
    ParseSpec {
        /// The offending input.
        input: String,
        /// What went wrong.
        reason: String,
    },
    /// A spec carries parameters no router accepts (e.g. zero UGAL
    /// candidates), or the topology cannot host the scheme.
    InvalidParam {
        /// Canonical rendering of the offending spec.
        spec: String,
        /// Which constraint was violated.
        reason: String,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::ParseSpec { input, reason } => {
                write!(f, "cannot parse routing spec {input:?}: {reason}")
            }
            RoutingError::InvalidParam { spec, reason } => {
                write!(f, "invalid routing parameters in {spec}: {reason}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// A declarative description of one routing scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoutingSpec {
    /// Minimal static routing, random ECMP tie-break (§IV-A).
    Min,
    /// Valiant random routing (§IV-B); `cap3` is the ≤3-hop ablation.
    Valiant {
        /// Restrict random paths to at most 3 hops.
        cap3: bool,
    },
    /// UGAL with local (source-queue) information (§IV-C2).
    UgalL {
        /// Random Valiant candidates compared against MIN (must be ≥ 1).
        candidates: usize,
    },
    /// UGAL with global (whole-path) queue information (§IV-C1).
    UgalG {
        /// Random Valiant candidates compared against MIN (must be ≥ 1).
        candidates: usize,
    },
    /// Per-hop adaptive ECMP over minimal paths (the fat tree's ANCA).
    Ecmp,
    /// FatPaths-style layered multipath (Besta et al. 2020).
    FatPaths {
        /// Path layers, including the full-graph layer 0
        /// (1..=[`FATPATHS_MAX_LAYERS`]).
        layers: usize,
    },
}

impl RoutingSpec {
    /// Every scheme the registry accepts, with an example spec string.
    pub const SCHEMES: &'static [(&'static str, &'static str)] = &[
        ("min", "min"),
        ("val", "val:cap3"),
        ("ugal-l", "ugal-l:c=4"),
        ("ugal-g", "ugal-g:c=4"),
        ("ecmp", "ecmp"),
        ("fatpaths", "fatpaths:layers=3"),
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            RoutingSpec::Min => "MIN".into(),
            RoutingSpec::Valiant { cap3: false } => "VAL".into(),
            RoutingSpec::Valiant { cap3: true } => "VAL-cap3".into(),
            RoutingSpec::UgalL { .. } => "UGAL-L".into(),
            RoutingSpec::UgalG { .. } => "UGAL-G".into(),
            RoutingSpec::Ecmp => "ANCA".into(),
            RoutingSpec::FatPaths { layers } => format!("FatPaths-{layers}"),
        }
    }

    /// Validates the spec's parameters without building anything.
    pub fn validate(&self) -> Result<(), RoutingError> {
        let invalid = |reason: &str| RoutingError::InvalidParam {
            spec: self.to_string(),
            reason: reason.into(),
        };
        match self {
            RoutingSpec::UgalL { candidates: 0 } | RoutingSpec::UgalG { candidates: 0 } => {
                Err(invalid("UGAL needs at least one Valiant candidate (c ≥ 1)"))
            }
            RoutingSpec::FatPaths { layers: 0 } => {
                Err(invalid("FatPaths needs at least one layer"))
            }
            RoutingSpec::FatPaths { layers } if *layers > FATPATHS_MAX_LAYERS => Err(invalid(
                &format!("more than {FATPATHS_MAX_LAYERS} layers is never useful"),
            )),
            _ => Ok(()),
        }
    }

    /// Builds the live [`Router`] — the single constructor registry for
    /// every routing scheme. `tables` must be built over `graph`.
    /// Schemes with precomputed structure (FatPaths layers) do their
    /// topology-dependent work here; invalid parameters surface as
    /// typed errors, never as silent fallbacks.
    pub fn build(
        &self,
        graph: &Graph,
        tables: &RoutingTables,
    ) -> Result<Box<dyn Router>, RoutingError> {
        self.validate()?;
        Ok(match *self {
            RoutingSpec::Min => Box::new(MinRouter),
            RoutingSpec::Valiant { cap3 } => Box::new(ValiantRouter { cap3 }),
            RoutingSpec::UgalL { candidates } => Box::new(UgalRouter::new(candidates, false)?),
            RoutingSpec::UgalG { candidates } => Box::new(UgalRouter::new(candidates, true)?),
            RoutingSpec::Ecmp => Box::new(AdaptiveEcmpRouter),
            RoutingSpec::FatPaths { layers } => {
                Box::new(FatPathsRouter::build(graph, tables, layers, FATPATHS_SEED)?)
            }
        })
    }
}

impl fmt::Display for RoutingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingSpec::Min => write!(f, "min"),
            RoutingSpec::Valiant { cap3: false } => write!(f, "val"),
            RoutingSpec::Valiant { cap3: true } => write!(f, "val:cap3"),
            RoutingSpec::UgalL { candidates } => write!(f, "ugal-l:c={candidates}"),
            RoutingSpec::UgalG { candidates } => write!(f, "ugal-g:c={candidates}"),
            RoutingSpec::Ecmp => write!(f, "ecmp"),
            RoutingSpec::FatPaths { layers } => write!(f, "fatpaths:layers={layers}"),
        }
    }
}

fn parse_err(input: &str, reason: impl Into<String>) -> RoutingError {
    RoutingError::ParseSpec {
        input: input.to_string(),
        reason: reason.into(),
    }
}

/// Parses `key=value` out of a single-parameter body.
fn parse_param(input: &str, body: &str, key: &str) -> Result<usize, RoutingError> {
    let (k, v) = body
        .split_once('=')
        .ok_or_else(|| parse_err(input, format!("expected {key}=<n>")))?;
    if k != key {
        return Err(parse_err(
            input,
            format!("unknown parameter {k} (expected {key})"),
        ));
    }
    v.parse::<usize>()
        .map_err(|_| parse_err(input, format!("cannot parse {key}={v}")))
}

impl FromStr for RoutingSpec {
    type Err = RoutingError;

    fn from_str(s: &str) -> Result<Self, RoutingError> {
        let (name, body) = match s.split_once(':') {
            Some((n, b)) => (n, Some(b)),
            None => (s, None),
        };
        let spec = match (name, body) {
            ("min", None) => RoutingSpec::Min,
            ("val", None) => RoutingSpec::Valiant { cap3: false },
            ("val", Some("cap3")) => RoutingSpec::Valiant { cap3: true },
            ("val", Some(other)) => {
                return Err(parse_err(s, format!("unknown val parameter {other:?}")))
            }
            ("ugal-l", None) => RoutingSpec::UgalL {
                candidates: DEFAULT_UGAL_CANDIDATES,
            },
            ("ugal-l", Some(b)) => RoutingSpec::UgalL {
                candidates: parse_param(s, b, "c")?,
            },
            ("ugal-g", None) => RoutingSpec::UgalG {
                candidates: DEFAULT_UGAL_CANDIDATES,
            },
            ("ugal-g", Some(b)) => RoutingSpec::UgalG {
                candidates: parse_param(s, b, "c")?,
            },
            ("ecmp", None) => RoutingSpec::Ecmp,
            ("fatpaths", None) => RoutingSpec::FatPaths {
                layers: DEFAULT_FATPATHS_LAYERS,
            },
            ("fatpaths", Some(b)) => RoutingSpec::FatPaths {
                layers: parse_param(s, b, "layers")?,
            },
            ("min" | "ecmp", Some(_)) => {
                return Err(parse_err(s, format!("{name} takes no parameters")))
            }
            (other, _) => {
                let names: Vec<&str> = RoutingSpec::SCHEMES.iter().map(|&(n, _)| n).collect();
                return Err(parse_err(
                    s,
                    format!(
                        "unknown routing scheme {other:?} (expected one of {})",
                        names.join(", ")
                    ),
                ));
            }
        };
        // Parameter-range errors surface at parse time too, so a CLI
        // typo like `ugal-l:c=0` fails before any network is built.
        spec.validate().map_err(|e| match e {
            RoutingError::InvalidParam { reason, .. } => parse_err(s, reason),
            other => other,
        })?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(s: &str) -> RoutingSpec {
        s.parse::<RoutingSpec>().unwrap()
    }

    #[test]
    fn parse_grammar_examples() {
        assert_eq!(rt("min"), RoutingSpec::Min);
        assert_eq!(rt("val"), RoutingSpec::Valiant { cap3: false });
        assert_eq!(rt("val:cap3"), RoutingSpec::Valiant { cap3: true });
        assert_eq!(rt("ugal-l:c=4"), RoutingSpec::UgalL { candidates: 4 });
        assert_eq!(rt("ugal-g:c=7"), RoutingSpec::UgalG { candidates: 7 });
        assert_eq!(rt("ecmp"), RoutingSpec::Ecmp);
        assert_eq!(rt("fatpaths:layers=3"), RoutingSpec::FatPaths { layers: 3 });
        // Defaults.
        assert_eq!(rt("ugal-l"), RoutingSpec::UgalL { candidates: 4 });
        assert_eq!(rt("fatpaths"), RoutingSpec::FatPaths { layers: 3 });
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "min",
            "val",
            "val:cap3",
            "ugal-l:c=4",
            "ugal-g:c=2",
            "ecmp",
            "fatpaths:layers=3",
        ] {
            let spec = rt(s);
            assert_eq!(spec.to_string(), s, "canonical form of {s}");
            assert_eq!(rt(&spec.to_string()), spec, "round trip of {s}");
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        for bad in [
            "warp",
            "min:now",
            "val:cap2",
            "ugal-l:c=",
            "ugal-l:k=4",
            "ugal-l:c=banana",
            "ecmp:x=1",
            "fatpaths:layers=",
            "fatpaths:c=3",
            "",
        ] {
            let err = bad.parse::<RoutingSpec>().unwrap_err();
            assert!(
                matches!(err, RoutingError::ParseSpec { .. }),
                "{bad}: {err:?}"
            );
        }
        let err = "warp".parse::<RoutingSpec>().unwrap_err();
        assert!(
            err.to_string().contains("fatpaths"),
            "suggests schemes: {err}"
        );
    }

    #[test]
    fn zero_candidates_rejected_at_parse_and_build() {
        // The old engine silently fell back to a default when UGAL got
        // zero candidates; both entry points now produce typed errors.
        assert!(matches!(
            "ugal-l:c=0".parse::<RoutingSpec>().unwrap_err(),
            RoutingError::ParseSpec { .. }
        ));
        assert!(matches!(
            "fatpaths:layers=0".parse::<RoutingSpec>().unwrap_err(),
            RoutingError::ParseSpec { .. }
        ));
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        let err = RoutingSpec::UgalG { candidates: 0 }
            .build(&g, &t)
            .err()
            .expect("zero candidates must not build");
        assert!(matches!(err, RoutingError::InvalidParam { .. }), "{err}");
        let err = RoutingSpec::FatPaths { layers: 0 }
            .build(&g, &t)
            .err()
            .expect("zero layers must not build");
        assert!(matches!(err, RoutingError::InvalidParam { .. }), "{err}");
    }

    #[test]
    fn registry_builds_all_schemes() {
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        for &(_, example) in RoutingSpec::SCHEMES {
            let spec = rt(example);
            let router = spec
                .build(&g, &t)
                .unwrap_or_else(|e| panic!("{example}: {e}"));
            assert_eq!(router.label(), spec.label());
        }
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(rt("min").label(), "MIN");
        assert_eq!(rt("val").label(), "VAL");
        assert_eq!(rt("val:cap3").label(), "VAL-cap3");
        assert_eq!(rt("ugal-l").label(), "UGAL-L");
        assert_eq!(rt("ugal-g").label(), "UGAL-G");
        assert_eq!(rt("ecmp").label(), "ANCA");
        assert_eq!(rt("fatpaths:layers=3").label(), "FatPaths-3");
    }
}
