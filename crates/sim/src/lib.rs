//! # sf-sim — cycle-based flit-level network simulator
//!
//! An independent implementation of the router model the Slim Fly paper
//! simulates with (§V):
//!
//! * input-queued routers with per-(port, VC) FIFO buffers and
//!   credit-based flow control;
//! * packets of [`SimConfig::packet_size`] ≥ 1 flits injected by a
//!   Bernoulli process, moved under **wormhole switching**: the head
//!   flit routes and allocates a VC per hop, body/tail flits inherit
//!   the reserved (link, VC) path, the tail releases it (size 1
//!   reproduces the paper's single-flit model bit for bit);
//! * router timing: channel latency, switch/VC allocation and crossbar
//!   delays of 1 cycle each, credit-processing delay of 2 cycles,
//!   internal speedup 2 over the channel rate;
//! * warm-up to steady state before measurement.
//!
//! Routing is **pluggable**: the engine owns queues and flit movement
//! but delegates every path decision to an [`sf_routing::Router`] trait
//! object (source-routed MIN / VAL / UGAL-L / UGAL-G / FatPaths, or
//! per-hop adaptive ECMP), handing policies live queue state only
//! through the narrow [`sf_routing::QueueView`] window. Build routers
//! directly or from [`sf_routing::RoutingSpec`] strings
//! (`"ugal-l:c=4"`, `"fatpaths:layers=3"`).
//!
//! Deviation from the paper: it states 3 VCs for every simulation while
//! its own §IV-D scheme needs 4 VCs for ≤4-hop adaptive paths; we
//! default to 4 (configurable) and assign VC = min(hop, VCs−1), which
//! keeps the escape order monotone.

pub mod engine;
pub mod stats;

pub use engine::{
    hop_vc, vc_base_slack, LoadSweep, SimConfig, SimResult, Simulator, ADAPTIVE_HOP_BUDGET,
    ENGINE_EPOCH, MAX_BUF_PER_PORT, MAX_DELAY, MAX_NUM_VCS, MAX_OUTPUT_QUEUE_CAP,
    MAX_OUTPUT_SPEEDUP, MAX_PACKET_SIZE, MAX_PATH_HOPS,
};
pub use stats::LatencyStats;
