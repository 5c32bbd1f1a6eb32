//! # sf-graph — graph substrate for topology analysis
//!
//! Compact undirected graphs plus the analysis machinery the Slim Fly paper
//! (Besta & Hoefler, SC'14) applies to every topology in §III:
//!
//! * [`Graph`] — undirected simple graph, u32 vertex ids, sorted adjacency;
//! * [`metrics`] — BFS distances, diameter, average path length, and
//!   connectivity; all-pairs sweeps run a bit-parallel multi-source BFS
//!   that advances 64 sources per pass;
//! * [`partition`] — balanced 2-way partitioning (greedy BFS growth +
//!   multi-start Fiduccia–Mattheyses refinement), the stand-in for the
//!   METIS run the paper uses to estimate bisection bandwidth (§III-C);
//! * [`failure`] — Monte-Carlo random link-failure experiments backing the
//!   three resiliency metrics of §III-D;
//! * [`fault`] — deterministic seeded kill-sets (dead cables + routers),
//!   the one sampler shared by the failure analysis, the `sf-topo`
//!   degradation layer, and the experiment plan's `FaultPlan`.
//!
//! ```
//! use sf_graph::Graph;
//!
//! // A 4-cycle: diameter 2, average distance 4/3.
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(sf_graph::metrics::diameter(&g), Some(2));
//! ```

pub mod failure;
pub mod fault;
pub mod graph;
pub mod metrics;
pub mod partition;
pub mod spectral;

pub use graph::Graph;
