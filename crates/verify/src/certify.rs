//! Deadlock and totality certificates per (topology, routing, VC
//! budget, packet_size) combination — the static checks `sf-bench
//! verify` and plan expansion run before any cycle is simulated.

use crate::cdg::render_witness;
use crate::wormhole::{scheme_hop_bound, wormhole_cdg};
use sf_graph::Graph;
use sf_routing::router::FATPATHS_MAX_LAYER_HOPS;
use sf_routing::tables::UNREACHABLE;
use sf_routing::{RoutingSpec, RoutingTables};
use std::fmt;

/// Above this router count the full wormhole CDG is not built; the
/// monotone hop-bound certificate must apply, otherwise the combo is
/// reported [`DeadlockStatus::Unchecked`] (a warning, not an error —
/// nothing is *proven* wrong).
pub const CDG_MAX_ROUTERS: usize = 512;

/// A statically *proven* problem in a (topology, routing, VC budget,
/// packet_size) combination.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The wormhole-aware CDG contains a cycle: the engine can
    /// deadlock. Carries the extracted channel witness.
    Deadlock {
        /// Network name.
        topo: String,
        /// Routing label.
        routing: String,
        /// VC budget of the combination.
        num_vcs: usize,
        /// Flits per packet (the edge set is size-invariant; recorded
        /// for the diagnostic).
        packet_size: usize,
        /// The dependency cycle: a closed `(from, to, vc)` chain.
        witness: Vec<(u32, u32, u8)>,
    },
    /// Some ordered router pair has no route: the scheme is not total.
    Unroutable {
        /// Network name.
        topo: String,
        /// Routing label.
        routing: String,
        /// Source router of the first unreachable pair.
        src: u32,
        /// Destination router of the first unreachable pair.
        dst: u32,
    },
    /// The combination is deadlockable on *every* admissible topology —
    /// rejectable at plan expansion, before any network is built.
    SpecDeadlock {
        /// Routing label.
        routing: String,
        /// VC budget of the combination.
        num_vcs: usize,
        /// Why this is statically deadlockable.
        reason: String,
    },
    /// The routing scheme itself could not be instantiated (e.g. a
    /// FatPaths layer budget the topology cannot host).
    Scheme {
        /// Routing label.
        routing: String,
        /// The underlying routing error.
        reason: String,
    },
    /// The scheme's source routes can be longer than the engine's
    /// packet descriptor holds ([`sf_sim::MAX_PATH_HOPS`]).
    PathTooLong {
        /// Network name.
        topo: String,
        /// Routing label.
        routing: String,
        /// The scheme's hop bound on this network.
        hops: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Deadlock {
                topo,
                routing,
                num_vcs,
                packet_size,
                witness,
            } => write!(
                f,
                "{topo} × {routing} with {num_vcs} VC(s), {packet_size}-flit packets can \
                 deadlock — channel dependency cycle: {}",
                render_witness(witness)
            ),
            VerifyError::Unroutable {
                topo,
                routing,
                src,
                dst,
            } => write!(
                f,
                "{topo} × {routing} is not total: no route from router {src} to {dst}"
            ),
            VerifyError::SpecDeadlock {
                routing,
                num_vcs,
                reason,
            } => write!(
                f,
                "{routing} with {num_vcs} VC(s) is statically deadlockable: {reason}"
            ),
            VerifyError::Scheme { routing, reason } => {
                write!(f, "cannot instantiate {routing} for verification: {reason}")
            }
            VerifyError::PathTooLong {
                topo,
                routing,
                hops,
            } => write!(
                f,
                "{topo} × {routing} source-routes paths of up to {hops} hops, but the \
                 cycle engine carries at most {} (use a per-hop scheme such as ecmp, \
                 or a lower-diameter topology)",
                sf_sim::MAX_PATH_HOPS
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// How a combination's deadlock freedom was certified.
#[derive(Debug, Clone, PartialEq)]
pub enum DeadlockStatus {
    /// `max_hops ≤ num_vcs`: every realizable packet's VC strictly
    /// increases hop over hop (no clamp is reachable), so every CDG
    /// edge increases VC and no cycle can exist. Proven without
    /// building the graph.
    MonotoneVcs {
        /// The scheme hop bound the budget covers.
        max_hops: usize,
    },
    /// The full wormhole-aware CDG was built and checked acyclic.
    CdgAcyclic {
        /// Distinct `(link, VC)` channels enumerated.
        channels: usize,
        /// Distinct dependency edges enumerated.
        edges: usize,
        /// Whether VC clamping was reachable (the interesting case the
        /// monotone argument cannot cover).
        clamped: bool,
    },
    /// Neither proof applies (clamping reachable, or the hop bound
    /// unknown, on a network above [`CDG_MAX_ROUTERS`]): nothing proven
    /// either way.
    Unchecked {
        /// Why the combination stayed unverified.
        reason: String,
    },
}

/// The static certificate of one verified combination.
#[derive(Debug, Clone, PartialEq)]
pub struct ComboCertificate {
    /// Network name.
    pub topo: String,
    /// Routing label.
    pub routing: String,
    /// VC budget.
    pub num_vcs: usize,
    /// Flits per packet.
    pub packet_size: usize,
    /// Router count.
    pub routers: usize,
    /// Ordered router pairs proven routable (totality certificate).
    pub pairs: usize,
    /// Network diameter.
    pub diameter: usize,
    /// Per-family path-length certificate: no realizable path exceeds
    /// this many hops. `None` when the bound is not known: FatPaths
    /// above [`CDG_MAX_ROUTERS`], whose bound needs the built layers.
    pub max_hops: Option<usize>,
    /// How deadlock freedom was certified.
    pub status: DeadlockStatus,
}

impl ComboCertificate {
    /// Whether the combination was positively certified (monotone or
    /// explicit CDG proof, as opposed to [`DeadlockStatus::Unchecked`]).
    pub fn certified(&self) -> bool {
        !matches!(self.status, DeadlockStatus::Unchecked { .. })
    }
}

impl fmt::Display for ComboCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} (vcs={}, pkt={}): ",
            self.topo, self.routing, self.num_vcs, self.packet_size
        )?;
        match &self.status {
            DeadlockStatus::MonotoneVcs { max_hops } => {
                write!(f, "deadlock-free (monotone VCs over ≤{max_hops}-hop paths)")?
            }
            DeadlockStatus::CdgAcyclic {
                channels,
                edges,
                clamped,
            } => write!(
                f,
                "deadlock-free (wormhole CDG acyclic: {channels} channels, {edges} edges{})",
                if *clamped { ", clamped VCs" } else { "" }
            )?,
            DeadlockStatus::Unchecked { reason } => write!(f, "UNVERIFIED ({reason})")?,
        }
        write!(f, "; total over {} pairs", self.pairs)?;
        if let Some(hops) = self.max_hops {
            write!(f, ", ≤{hops} hops")?;
        }
        write!(f, " (diameter {})", self.diameter)
    }
}

/// Checks that every source route `spec` can produce on a network of
/// the given diameter fits the cycle engine's packet descriptor
/// ([`sf_sim::MAX_PATH_HOPS`]). Per-hop ECMP carries no route and
/// always fits; FatPaths layers are capped at
/// [`FATPATHS_MAX_LAYER_HOPS`] when built, which fits by the assertion
/// below. Plan verification runs this, and so does every cycle job
/// before its first simulation, since running a plan does not verify
/// it.
pub fn check_path_capacity(
    topo: &str,
    spec: &RoutingSpec,
    diameter: usize,
) -> Result<(), VerifyError> {
    match scheme_hop_bound(spec, diameter) {
        Some(hops) if hops > sf_sim::MAX_PATH_HOPS && *spec != RoutingSpec::Ecmp => {
            Err(VerifyError::PathTooLong {
                topo: topo.into(),
                routing: spec.label(),
                hops,
            })
        }
        _ => Ok(()),
    }
}

const _: () = assert!(FATPATHS_MAX_LAYER_HOPS <= sf_sim::MAX_PATH_HOPS);

/// Statically checks one combination: totality over every ordered
/// router pair, that the scheme's routes fit the engine
/// ([`check_path_capacity`]), then deadlock freedom via the monotone
/// hop-bound argument or the explicit wormhole-aware CDG. Errors only on
/// *proven* problems; combinations too large to check exhaustively
/// come back [`DeadlockStatus::Unchecked`].
pub fn verify_combo(
    topo: &str,
    g: &Graph,
    tables: &RoutingTables,
    spec: &RoutingSpec,
    num_vcs: usize,
    packet_size: usize,
) -> Result<ComboCertificate, VerifyError> {
    let routing = spec.label();
    let n = tables.num_routers();
    // Totality: every ordered pair must have a finite route. All
    // schemes here route over minimal-path segments, so table
    // reachability is exactly path coverage. Degree-0 routers are
    // dead (a degraded `Network` strips a killed router's cables and
    // endpoints together), so pairs touching them host no traffic
    // and are exempt from totality.
    let mut pairs = 0usize;
    for s in 0..n as u32 {
        if g.degree(s) == 0 {
            continue;
        }
        let row = tables.row(s);
        for d in 0..n as u32 {
            if s == d || g.degree(d) == 0 {
                continue;
            }
            if row[d as usize] == UNREACHABLE {
                return Err(VerifyError::Unroutable {
                    topo: topo.into(),
                    routing,
                    src: s,
                    dst: d,
                });
            }
            pairs += 1;
        }
    }
    let diameter = tables.max_distance() as usize;
    check_path_capacity(topo, spec, diameter)?;
    let bound = scheme_hop_bound(spec, diameter);

    let (max_hops, status) = if n > CDG_MAX_ROUTERS {
        // Fast path for large networks: if the scheme hop bound fits the
        // VC budget, no packet ever clamps and VCs strictly increase hop
        // over hop — acyclic with no graph construction. FatPaths has
        // no bound until its layers are built, which verification does
        // not do at this size.
        let limit = format!("{n} routers exceed the {CDG_MAX_ROUTERS}-router CDG limit");
        let status = match bound {
            Some(b) if b <= num_vcs => DeadlockStatus::MonotoneVcs { max_hops: b },
            Some(b) => DeadlockStatus::Unchecked {
                reason: format!("{limit} and the hop bound {b} exceeds the {num_vcs}-VC budget"),
            },
            None => DeadlockStatus::Unchecked {
                reason: format!("{limit}, above which the layer hop bound is not computed"),
            },
        };
        (bound, status)
    } else {
        // Small enough: always build and check the explicit wormhole CDG
        // (richer certificate, and the only proof when clamping is
        // reachable).
        let w = wormhole_cdg(g, tables, spec, num_vcs).map_err(|e| VerifyError::Scheme {
            routing: spec.label(),
            reason: e.to_string(),
        })?;
        if let Some(witness) = w.cdg.find_cycle() {
            return Err(VerifyError::Deadlock {
                topo: topo.into(),
                routing,
                num_vcs,
                packet_size,
                witness,
            });
        }
        let status = DeadlockStatus::CdgAcyclic {
            channels: w.cdg.num_channels(),
            edges: w.cdg.num_edges(),
            clamped: w.clamped,
        };
        (Some(w.max_hops), status)
    };
    Ok(ComboCertificate {
        topo: topo.into(),
        routing,
        num_vcs,
        packet_size,
        routers: n,
        pairs,
        diameter,
        max_hops,
        status,
    })
}

/// Topology-independent screen run at plan expansion, before any
/// network is built: Valiant-style detours on a single VC deadlock on
/// *every* admissible topology — the detour `s → … → x → m → x → … → d`
/// reverses a link at its intermediate, and with one VC the channels
/// `(x→m, vc0)` and `(m→x, vc0)` form a dependency cycle on any
/// connected graph with ≥ 3 routers (every buildable family).
pub fn spec_screen(spec: &RoutingSpec, num_vcs: usize) -> Result<(), VerifyError> {
    match spec {
        RoutingSpec::Valiant { .. } | RoutingSpec::UgalL { .. } | RoutingSpec::UgalG { .. }
            if num_vcs == 1 =>
        {
            Err(VerifyError::SpecDeadlock {
                routing: spec.label(),
                num_vcs,
                reason: "Valiant detours reverse a link at the intermediate router; on one \
                         virtual channel that closes a channel dependency cycle on every \
                         topology with ≥ 3 routers (≥ 2 VCs required)"
                    .into(),
            })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_graph::Graph;

    fn ring(n: u32) -> (Graph, RoutingTables) {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n as usize, &edges);
        let t = RoutingTables::new(&g);
        (g, t)
    }

    #[test]
    fn under_budgeted_ring_yields_deadlock_with_witness() {
        let (g, t) = ring(8);
        let err = verify_combo("ring8", &g, &t, &RoutingSpec::Min, 1, 1).unwrap_err();
        match &err {
            VerifyError::Deadlock { witness, .. } => {
                assert!(witness.len() >= 3);
                assert_eq!(witness.first(), witness.last());
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("dependency cycle") && msg.contains("vc0"),
            "{msg}"
        );
    }

    #[test]
    fn budgeted_ring_is_certified() {
        let (g, t) = ring(8);
        let cert = verify_combo("ring8", &g, &t, &RoutingSpec::Min, 4, 4).unwrap();
        assert!(cert.certified());
        assert_eq!(cert.pairs, 8 * 7);
        assert_eq!(cert.diameter, 4);
        assert!(matches!(
            cert.status,
            DeadlockStatus::CdgAcyclic { clamped: false, .. }
        ));
        assert!(cert.to_string().contains("deadlock-free"));
    }

    #[test]
    fn disconnected_graph_fails_totality() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let t = RoutingTables::new(&g);
        let err = verify_combo("split", &g, &t, &RoutingSpec::Min, 4, 1).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::Unroutable { src: 0, dst: 2, .. }
        ));
    }

    #[test]
    fn dead_routers_are_exempt_from_totality() {
        // Ring of 6 with router 0 killed (all incident edges removed):
        // the 5 live routers form a path and must still certify; pairs
        // touching the dead router are not counted.
        let edges: Vec<(u32, u32)> = (0..6u32).map(|i| (i, (i + 1) % 6)).collect();
        let g = Graph::from_edges(6, &edges).without_edges(&[(0, 1), (0, 5)]);
        assert_eq!(g.degree(0), 0);
        let t = RoutingTables::new(&g);
        let cert = verify_combo("ring6-deg", &g, &t, &RoutingSpec::Min, 5, 2).unwrap();
        assert!(cert.certified());
        assert_eq!(cert.pairs, 5 * 4, "dead-router pairs host no traffic");
        // A *live* unreachable pair is still a typed totality error.
        let split = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let st = RoutingTables::new(&split);
        let err = verify_combo("split-deg", &split, &st, &RoutingSpec::Min, 4, 1).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::Unroutable { src: 0, dst: 2, .. }
        ));
    }

    #[test]
    fn spec_screen_rejects_single_vc_detours() {
        assert!(spec_screen(&RoutingSpec::Valiant { cap3: false }, 1).is_err());
        assert!(spec_screen(&RoutingSpec::Valiant { cap3: true }, 1).is_err());
        assert!(spec_screen(&RoutingSpec::UgalL { candidates: 4 }, 1).is_err());
        assert!(spec_screen(&RoutingSpec::Min, 1).is_ok());
        assert!(spec_screen(&RoutingSpec::Valiant { cap3: false }, 2).is_ok());
    }

    #[test]
    fn slimfly_valiant_witness_is_pinned() {
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        let spec = RoutingSpec::Valiant { cap3: false };
        match verify_combo("sf-q5", &g, &t, &spec, 2, 1).unwrap_err() {
            VerifyError::Deadlock { witness, .. } => assert_eq!(
                render_witness(&witness),
                "(1→0 vc1) → (0→1 vc1) → (1→0 vc1)"
            ),
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn slimfly_min_is_certified_monotone_or_cdg() {
        let g = sf_topo::SlimFly::new(5).unwrap().router_graph();
        let t = RoutingTables::new(&g);
        let cert = verify_combo("sf-q5", &g, &t, &RoutingSpec::Min, 4, 1).unwrap();
        assert!(cert.certified());
        assert_eq!(cert.max_hops, Some(2));
    }

    /// Above the CDG limit FatPaths has no hop bound until its layers
    /// are built, and verification does not build them: the bound is
    /// unknown, not zero.
    #[test]
    fn large_fatpaths_has_no_hop_bound() {
        let g = sf_topo::SlimFly::new(17).unwrap().router_graph();
        assert!(g.num_vertices() > CDG_MAX_ROUTERS);
        let t = RoutingTables::new(&g);
        let spec = RoutingSpec::FatPaths { layers: 2 };
        let cert = verify_combo("sf:q=17", &g, &t, &spec, 4, 1).unwrap();
        assert_eq!(cert.max_hops, None);
        assert!(!cert.certified());
        let DeadlockStatus::Unchecked { reason } = &cert.status else {
            panic!("expected Unchecked, got {cert}");
        };
        assert_eq!(
            reason,
            "578 routers exceed the 512-router CDG limit, above which the layer hop bound \
             is not computed"
        );
        assert_eq!(
            cert.to_string(),
            format!(
                "sf:q=17 × FatPaths-2 (vcs=4, pkt=1): UNVERIFIED ({reason}); \
                 total over 333506 pairs (diameter 2)"
            )
        );
    }
}
