//! # sf-verify — the static verification tier (paper §IV-D)
//!
//! Promotes deadlock freedom from a test helper to a *certifying
//! analysis*: for any (topology, routing, VC budget, packet_size)
//! combination this crate
//!
//! * builds the **wormhole-aware channel dependency graph** — the
//!   dependency relation of the engine's actual `(link, VC)`
//!   allocation (`vc_base` slack, per-hop clamping, `in_route` /
//!   `out_owner` span holding), mirrored through the helpers the
//!   engine itself exports ([`sf_sim::vc_base_slack`],
//!   [`sf_sim::hop_vc`]) — see [`wormhole`];
//! * runs cycle detection with extracted **cycle witnesses** (the
//!   offending channel chain, rendered into the error) — see [`cdg`];
//! * certifies **routing totality**: every ordered router pair covered
//!   within the scheme's hop bound — see [`certify`];
//! * computes **minimal VC counts** per assignment scheme, reproducing
//!   the paper's "SF ≈ 3 VCs vs random DLN ≈ 8–15 VLs" table — see
//!   [`assign`] and [`report`].
//!
//! The experiment layer wires [`verify_combo`] behind
//! `sf-bench verify figures/*.toml` and runs [`spec_screen`] at plan
//! expansion, so statically-deadlockable configurations are rejected
//! with a typed diagnostic before any cycle is simulated.
//!
//! Everything here is deterministic by construction (first-seen
//! channel ids, sorted successor lists); clippy enforces the same
//! contract — no unordered hash containers, no wall-clock reads
//! (`clippy.toml`), no bare `unwrap()` (this crate's `deny` line) —
//! across the simulation crates.

#![deny(clippy::unwrap_used, clippy::allow_attributes_without_reason)]

pub mod assign;
pub mod cdg;
pub mod certify;
pub mod report;
pub mod wormhole;

pub use assign::{
    all_pairs_min_paths, hop_index_is_deadlock_free, hop_index_vcs, layered_vc_count, vcs_required,
};
pub use cdg::{render_witness, ChannelDependencyGraph};
pub use certify::{
    check_path_capacity, spec_screen, verify_combo, ComboCertificate, DeadlockStatus, VerifyError,
    CDG_MAX_ROUTERS,
};
pub use report::{render_vc_markdown, vc_requirements, VcRequirements, VcRow};
pub use wormhole::{scheme_hop_bound, wormhole_cdg, WormholeCdg};
