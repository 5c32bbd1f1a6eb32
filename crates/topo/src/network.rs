//! The [`Network`] type: a router graph with attached endpoints and
//! structural annotations.
//!
//! Terminology follows Table I of the paper:
//!
//! * `N`  — number of endpoints,
//! * `p`  — endpoints per router (concentration),
//! * `k'` — network radix (channels to other routers),
//! * `k`  — router radix, `k = k' + p`,
//! * `Nr` — number of routers,
//! * `D`  — network diameter.

use sf_graph::fault::KillSet;
use sf_graph::{metrics, Graph};

/// Which topology family a [`Network`] instance belongs to.
///
/// Routing protocols and the cost model use this to select
/// topology-specific behaviour (e.g. Dragonfly group-aware Valiant
/// routing, fat-tree up/down paths, per-topology rack layouts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Slim Fly on an MMS graph: `q`, `delta` with `q = 4w + delta`.
    SlimFly { q: u32, delta: i32 },
    /// Dragonfly: `a` routers/group, `h` global links/router, `g` groups.
    Dragonfly { a: u32, h: u32, g: u32 },
    /// Three-level folded Clos; `pods` pods, router port counts in
    /// [`Network::concentration`]. `full` distinguishes the 2p-pod
    /// (§VI cost model) from the p-pod (§V performance) variant.
    FatTree3 { pods: u32, full: bool },
    /// k-ary n-flat flattened butterfly: `dims` dimensions of extent `c`.
    FlattenedButterfly { c: u32, dims: u32 },
    /// k-ary n-cube torus; per-dimension extents.
    Torus { dims: Vec<u32> },
    /// Binary hypercube of dimension `d`.
    Hypercube { d: u32 },
    /// Long Hop augmented hypercube: `d` base dimensions + `l` long-hop
    /// mask links per router.
    LongHop { d: u32, l: u32 },
    /// Random shortcut network (DLN-2-y): ring + `y` random shortcut
    /// rounds.
    RandomDln { y: u32 },
    /// Bermond–Delorme–Fahri diameter-3 construction (or its P_u factor).
    Bdf { u: u32 },
    /// Generic / test topology.
    Other,
}

/// A complete interconnection network: router graph + endpoints.
#[derive(Clone, Debug)]
pub struct Network {
    /// Router-to-router graph (each full-duplex cable is one edge).
    pub graph: Graph,
    /// Endpoints attached to each router (`concentration[r]`).
    pub concentration: Vec<u32>,
    /// Cumulative endpoint offsets: router `r` hosts endpoint ids
    /// `offsets[r] .. offsets[r+1]`.
    offsets: Vec<u32>,
    /// Human-readable instance name, e.g. `"SF(q=19)"`.
    pub name: String,
    /// Structural annotation.
    pub kind: TopologyKind,
    /// Whether this instance is a fault-degraded view of another
    /// network (see [`Network::degrade`]). Structure-derived consumers
    /// — worst-case traffic adversaries, closed-form cost/diameter
    /// formulas — must not assume the intact instance when this is set.
    pub degraded: bool,
}

impl Network {
    /// Assembles a network from a router graph and per-router endpoint
    /// counts.
    pub fn new(graph: Graph, concentration: Vec<u32>, name: String, kind: TopologyKind) -> Self {
        assert_eq!(graph.num_vertices(), concentration.len());
        let mut offsets = Vec::with_capacity(concentration.len() + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &concentration {
            acc += c;
            offsets.push(acc);
        }
        Network {
            graph,
            concentration,
            offsets,
            name,
            kind,
            degraded: false,
        }
    }

    /// Uniform-concentration convenience constructor.
    pub fn with_uniform_concentration(
        graph: Graph,
        p: u32,
        name: String,
        kind: TopologyKind,
    ) -> Self {
        let n = graph.num_vertices();
        Network::new(graph, vec![p; n], name, kind)
    }

    /// Number of routers `Nr`.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of endpoints `N`.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        *self.offsets.last().unwrap_or(&0) as usize
    }

    /// Network radix `k'` of router `r` (channels to other routers).
    #[inline]
    pub fn network_radix(&self, r: u32) -> usize {
        self.graph.degree(r)
    }

    /// Router radix `k = k' + p` of router `r`.
    #[inline]
    pub fn router_radix(&self, r: u32) -> usize {
        self.graph.degree(r) + self.concentration[r as usize] as usize
    }

    /// Maximum router radix over the network (the port count one would
    /// have to buy).
    pub fn max_router_radix(&self) -> usize {
        (0..self.num_routers() as u32)
            .map(|r| self.router_radix(r))
            .max()
            .unwrap_or(0)
    }

    /// The router hosting endpoint `e`.
    pub fn endpoint_router(&self, e: u32) -> u32 {
        debug_assert!((e as usize) < self.num_endpoints());
        // offsets is sorted; find r with offsets[r] <= e < offsets[r+1].
        match self.offsets.binary_search(&e) {
            Ok(mut idx) => {
                // e == offsets[idx]: first endpoint of router idx, but skip
                // zero-concentration routers that share the same offset.
                while self.concentration[idx] == 0 {
                    idx += 1;
                }
                idx as u32
            }
            Err(idx) => (idx - 1) as u32,
        }
    }

    /// Endpoint id range hosted by router `r`.
    pub fn endpoints_of_router(&self, r: u32) -> std::ops::Range<u32> {
        self.offsets[r as usize]..self.offsets[r as usize + 1]
    }

    /// Average concentration `p` (endpoints per router).
    pub fn avg_concentration(&self) -> f64 {
        if self.num_routers() == 0 {
            0.0
        } else {
            self.num_endpoints() as f64 / self.num_routers() as f64
        }
    }

    /// The paper's closed-form diameter for this family (Table II), as
    /// a display string: exact for most families, a band for the
    /// randomized ones, `~log2(Nr)` for unannotated graphs.
    pub fn diameter_formula(&self) -> String {
        match &self.kind {
            TopologyKind::SlimFly { .. } => "2".into(),
            TopologyKind::Dragonfly { .. } => "3".into(),
            TopologyKind::FatTree3 { .. } => "4".into(),
            TopologyKind::FlattenedButterfly { dims, .. } => dims.to_string(),
            TopologyKind::Torus { dims } => {
                // ⌈(n/2)·Nr^(1/n)⌉ in the paper; exact = Σ ⌊extent/2⌋.
                let exact: u32 = dims.iter().map(|&d| d / 2).sum();
                exact.to_string()
            }
            TopologyKind::Hypercube { d } => d.to_string(),
            TopologyKind::LongHop { .. } => "4-6".into(),
            TopologyKind::RandomDln { .. } => "3-10".into(),
            _ => format!("~{:.0}", (self.num_routers() as f64).log2()),
        }
    }

    /// The analytic bisection size in cables where the paper uses one
    /// (Fig 5c): `N/2` for hypercubes and fat trees, `N/4` for
    /// Dragonfly and flattened butterflies, the wrap-around cut for
    /// tori. `None` for the families the paper partitions numerically
    /// (SF, DLN, Long Hop).
    pub fn analytic_bisection_cables(&self) -> Option<u64> {
        match &self.kind {
            TopologyKind::Hypercube { .. } | TopologyKind::FatTree3 { .. } => {
                Some((self.num_endpoints() / 2) as u64)
            }
            TopologyKind::Dragonfly { .. } | TopologyKind::FlattenedButterfly { .. } => {
                Some((self.num_endpoints() / 4) as u64)
            }
            TopologyKind::Torus { dims } => {
                let max = *dims.iter().max()? as u64;
                let nr = self.num_routers() as u64;
                Some(if max == 2 { nr / max } else { 2 * nr / max })
            }
            _ => None,
        }
    }

    /// The degraded view of this network under an explicit
    /// [`KillSet`]: dead cables are removed, dead routers additionally
    /// lose every incident cable *and* their endpoints (concentration
    /// zeroed — a dead router hosts no traffic). `suffix` is appended
    /// to the instance name so degraded records group separately in
    /// reports.
    ///
    /// **Parity contract**: an empty kill-set returns a clone of the
    /// intact instance — same name, `degraded` unset — so zero-fraction
    /// fault plans are bit-identical to fault-free ones end to end.
    ///
    /// **Connectivity contract**: every *live* router (not explicitly
    /// killed) must remain in one connected component, otherwise some
    /// endpoint pair is permanently unreachable at boot and the typed
    /// [`DegradeError::Partitioned`] is returned: unreachable pairs
    /// would silently skew curves, and the simulator routes every
    /// packet it generates.
    pub fn degrade(&self, kill: &KillSet, suffix: &str) -> Result<Network, DegradeError> {
        if kill.is_empty() {
            return Ok(self.clone());
        }
        let nr = self.num_routers();
        let mut dead_router = vec![false; nr];
        for &r in &kill.routers {
            dead_router[r as usize] = true;
        }
        let mut dead_edges = kill.links.clone();
        for &r in &kill.routers {
            for &u in self.graph.neighbors(r) {
                dead_edges.push(if r < u { (r, u) } else { (u, r) });
            }
        }
        let g = self.graph.without_edges(&dead_edges);
        let live: Vec<u32> = (0..nr as u32)
            .filter(|&r| !dead_router[r as usize])
            .collect();
        let first = *live.first().ok_or(DegradeError::AllRoutersDead)?;
        let dist = metrics::bfs_distances(&g, first);
        let reached = live
            .iter()
            .filter(|&&r| dist[r as usize] != metrics::UNREACHABLE)
            .count();
        if reached != live.len() {
            return Err(DegradeError::Partitioned {
                topo: self.name.clone(),
                live: live.len(),
                reached,
                dead_links: kill.links.len(),
                dead_routers: kill.routers.len(),
            });
        }
        let mut concentration = self.concentration.clone();
        for &r in &kill.routers {
            concentration[r as usize] = 0;
        }
        let mut net = Network::new(
            g,
            concentration,
            format!("{}{}", self.name, suffix),
            self.kind.clone(),
        );
        net.degraded = true;
        Ok(net)
    }

    /// One-line summary used by example binaries and benches.
    pub fn summary(&self) -> String {
        format!(
            "{}: Nr={} N={} k'={}..{} k={} |E|={}",
            self.name,
            self.num_routers(),
            self.num_endpoints(),
            self.graph.min_degree(),
            self.graph.max_degree(),
            self.max_router_radix(),
            self.graph.num_edges(),
        )
    }
}

/// Why a [`KillSet`] cannot be applied as a boot-time degradation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeError {
    /// The kill-set disconnects the live routers: some endpoint pair
    /// would be permanently unreachable.
    Partitioned {
        /// Name of the intact instance.
        topo: String,
        /// Live (not explicitly killed) routers.
        live: usize,
        /// Live routers reachable from the first live router.
        reached: usize,
        /// Dead cables in the kill-set (excluding router-incident ones).
        dead_links: usize,
        /// Dead routers in the kill-set.
        dead_routers: usize,
    },
    /// The kill-set leaves no live router at all.
    AllRoutersDead,
}

impl std::fmt::Display for DegradeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeError::Partitioned {
                topo,
                live,
                reached,
                dead_links,
                dead_routers,
            } => write!(
                f,
                "fault kill-set ({dead_links} links, {dead_routers} routers) partitions \
                 {topo}: only {reached} of {live} live routers remain connected"
            ),
            DegradeError::AllRoutersDead => write!(f, "fault kill-set leaves no live router"),
        }
    }
}

impl std::error::Error for DegradeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        Network::new(g, vec![2, 0, 3], "tiny".into(), TopologyKind::Other)
    }

    #[test]
    fn counts() {
        let n = tiny();
        assert_eq!(n.num_routers(), 3);
        assert_eq!(n.num_endpoints(), 5);
        assert_eq!(n.network_radix(1), 2);
        assert_eq!(n.router_radix(0), 1 + 2);
        assert_eq!(n.router_radix(2), 1 + 3);
        assert_eq!(n.max_router_radix(), 4);
        assert!((n.avg_concentration() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_router_mapping() {
        let n = tiny();
        // endpoints 0,1 on router 0; 2,3,4 on router 2 (router 1 hosts none)
        assert_eq!(n.endpoint_router(0), 0);
        assert_eq!(n.endpoint_router(1), 0);
        assert_eq!(n.endpoint_router(2), 2);
        assert_eq!(n.endpoint_router(4), 2);
        assert_eq!(n.endpoints_of_router(0), 0..2);
        assert_eq!(n.endpoints_of_router(1), 2..2);
        assert_eq!(n.endpoints_of_router(2), 2..5);
    }

    #[test]
    fn endpoint_router_is_inverse_of_ranges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let n = Network::new(g, vec![0, 3, 0, 2], "zeros".into(), TopologyKind::Other);
        for r in 0..n.num_routers() as u32 {
            for e in n.endpoints_of_router(r) {
                assert_eq!(n.endpoint_router(e), r, "endpoint {e}");
            }
        }
    }

    #[test]
    fn uniform_constructor() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let n = Network::with_uniform_concentration(g, 5, "u".into(), TopologyKind::Other);
        assert_eq!(n.num_endpoints(), 20);
        assert_eq!(n.endpoint_router(19), 3);
        assert_eq!(n.endpoint_router(0), 0);
    }

    fn ring4() -> Network {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        Network::with_uniform_concentration(g, 2, "ring4".into(), TopologyKind::Other)
    }

    #[test]
    fn degrade_empty_kill_set_is_identity() {
        let n = ring4();
        let d = n.degrade(&KillSet::default(), " [f]").unwrap();
        assert_eq!(d.name, "ring4", "no annotation without faults");
        assert!(!d.degraded);
        assert_eq!(d.graph, n.graph);
        assert_eq!(d.concentration, n.concentration);
    }

    #[test]
    fn degrade_removes_links_and_annotates() {
        let n = ring4();
        let kill = KillSet {
            links: vec![(0, 1)],
            routers: vec![],
        };
        let d = n.degrade(&kill, " [l=1]").unwrap();
        assert_eq!(d.name, "ring4 [l=1]");
        assert!(d.degraded);
        assert_eq!(d.graph.num_edges(), 3);
        assert!(!d.graph.has_edge(0, 1));
        assert_eq!(d.num_endpoints(), 8, "link kills keep endpoints");
    }

    #[test]
    fn degrade_kills_router_with_incident_links_and_endpoints() {
        let n = ring4();
        let kill = KillSet {
            links: vec![],
            routers: vec![2],
        };
        let d = n.degrade(&kill, " [r=1]").unwrap();
        assert!(d.degraded);
        assert_eq!(d.graph.degree(2), 0);
        assert_eq!(d.concentration[2], 0);
        assert_eq!(d.num_endpoints(), 6);
        // Live routers 0,1,3 stay connected through the surviving arc.
        assert_eq!(d.graph.num_edges(), 2);
    }

    #[test]
    fn degrade_partition_is_typed_error() {
        let n = ring4();
        // Cutting both arcs between {0,1} and {2,3} partitions the ring.
        let kill = KillSet {
            links: vec![(1, 2), (0, 3)],
            routers: vec![],
        };
        let err = n.degrade(&kill, " [cut]").unwrap_err();
        match &err {
            DegradeError::Partitioned { live, reached, .. } => {
                assert_eq!(*live, 4);
                assert_eq!(*reached, 2);
            }
            other => panic!("expected Partitioned, got {other:?}"),
        }
        assert!(err.to_string().contains("partitions"));
        // Isolating a *live* router is also a partition: it still
        // hosts endpoints but can reach nobody.
        let iso = KillSet {
            links: vec![(0, 1), (0, 3)],
            routers: vec![],
        };
        assert!(matches!(
            n.degrade(&iso, " [iso]").unwrap_err(),
            DegradeError::Partitioned { .. }
        ));
        // Killing that router instead (endpoints gone too) is fine.
        let dead = KillSet {
            links: vec![],
            routers: vec![0],
        };
        assert!(n.degrade(&dead, " [r0]").is_ok());
    }

    #[test]
    fn degrade_all_routers_dead_is_typed_error() {
        let n = ring4();
        let kill = KillSet {
            links: vec![],
            routers: vec![0, 1, 2, 3],
        };
        assert!(matches!(
            n.degrade(&kill, " [all]").unwrap_err(),
            DegradeError::AllRoutersDead
        ));
    }
}
