//! # sf-routing — the pluggable routing engine and deadlock freedom
//!
//! Implements the routing layer of the Slim Fly paper (§IV) as an
//! *open* engine: policies are [`router::Router`] trait objects selected
//! by declarative [`spec::RoutingSpec`] strings, not a closed enum.
//!
//! * [`router`] — the [`Router`] trait (source-routing
//!   and per-hop hooks over a narrow [`QueueView`])
//!   plus all built-in policies: **MIN** (§IV-A), **Valiant** (§IV-B),
//!   **UGAL-L/G** (§IV-C), adaptive **ECMP**, and FatPaths-style
//!   layered multipath (Besta et al. 2020);
//! * [`spec`] — the `min` / `val:cap3` / `ugal-l:c=4` /
//!   `fatpaths:layers=3` string grammar and the single
//!   [`RoutingSpec::build`](spec::RoutingSpec::build) registry;
//! * [`tables::RoutingTables`] — all-pairs distance tables with
//!   ECMP-aware minimal next-hop queries;
//! * [`paths`] — the path generators the policies draw from (random
//!   minimal paths, Valiant detours, UGAL candidate sets).
//!
//! Deadlock analysis — VC assignment schemes, wormhole-aware channel
//! dependency graphs, cycle witnesses, and routing-totality
//! certificates — lives in the `sf-verify` crate, which rebuilds the
//! dependency relation from the exact allocation arithmetic `sf-sim`
//! exports.

#![deny(clippy::unwrap_used, clippy::allow_attributes_without_reason)]

pub mod diversity;
pub mod paths;
pub mod router;
pub mod spec;
pub mod tables;

pub use paths::PathGen;
pub use router::{
    AdaptiveEcmpRouter, FatPathsRouter, MinRouter, NoQueues, QueueView, RouteCtx, RouteDecision,
    Router, UgalRouter, ValiantRouter,
};
pub use spec::{RoutingError, RoutingSpec};
pub use tables::RoutingTables;
