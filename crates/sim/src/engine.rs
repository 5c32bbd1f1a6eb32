//! The cycle-driven simulation engine.
//!
//! One [`Simulator`] instance owns the full router state for a network ×
//! routing-algorithm × traffic-pattern configuration at one offered load
//! and steps it on the calling thread. Latency-vs-load curves (Fig 6 /
//! Fig 8) are many such runs, one per load point ([`LoadSweep`] holds
//! the per-load seeding and the warm-start chain); running them in
//! parallel is the job scheduler's business (`slimfly::schedule`).
//!
//! # Engine internals: state layout and the hot path
//!
//! The engine is built for >10K-endpoint cycle-accurate sweeps, so the
//! per-cycle loop is flat and skips idle state, and no flit ever
//! allocates. The one per-packet heap allocation left is the
//! `RouteDecision::Path` vector a source-routing policy returns at
//! injection, which is copied into the packet's descriptor and dropped.
//!
//! * **Packet slab and 8-byte flit handles** — a packet's descriptor
//!   (endpoints, generation time, source route, VC base, size) is
//!   written once into a slab at head injection and freed when its
//!   tail ejects; freed ids are reused. A flit is an 8-byte handle
//!   `{packet id, seq, hop, vc}`, so buffering, staging and the wire
//!   move 8 bytes instead of a copy of the descriptor.
//!   [`Simulator::verify_credit_round_trip`] checks that every live
//!   descriptor is referenced by a flit and that every flit names a
//!   live descriptor.
//!
//! * **Fixed-capacity rings** — the (port, VC) input buffers and the
//!   per-link output staging queues are FIFO rings in one flat array
//!   each, of capacity `vc_cap` and `output_queue_cap`. Credits bound
//!   every input buffer and the allocator bounds every staging queue,
//!   so no ring ever grows; plan expansion bounds both sizes
//!   ([`MAX_BUF_PER_PORT`], [`MAX_OUTPUT_QUEUE_CAP`]) and the delays
//!   that size the delay buckets ([`MAX_DELAY`]) before anything is
//!   allocated. Measured against one growable queue of 60-byte
//!   flits per buffer on the benchmark's `q19_uniform` workload
//!   (`sf:q=19`, 2-vCPU host), slab and rings cut median peak RSS from
//!   84 to 51 MB and median engine time per flit from 3.7 to 3.2 µs
//!   (`sim.ns_per_flit`, six traced pairs, five won).
//!
//! * **CSR link layout** — every directed link `r → to` has a flat
//!   *link id* assigned in CSR order (`LinkIndex`): the links of
//!   router `r` are the contiguous range `link_base[r]..link_base[r+1]`,
//!   ordered like `Graph::neighbors(r)`. All per-link state (credits,
//!   staging, in-flight flits, occupancy, flit counters) lives in flat
//!   arrays indexed by link id. Prebuilt reverse maps — `to_port`
//!   (input-port index at the receiving router) and `rev` (the flat id
//!   of the opposite-direction link) — replace every
//!   `neighbors().binary_search()` the old engine did in occupancy
//!   queries, ejection credit returns and switch allocation. Arbitrary
//!   `(r, to) → link id` queries (routing policies probing queues)
//!   resolve through a per-router perfect-hash slot table in O(1).
//!
//! * **Incremental occupancy** — the queue-occupancy metric exposed to
//!   [`Router`] policies (`staged flits + downstream slots in use`) is
//!   maintained as a counter per link, updated at exactly the three
//!   events that change it: a switch-allocation grant (+2: one staged
//!   flit, one credit consumed), a channel transmission (−1: the flit
//!   left staging) and a credit arrival (−1: a downstream slot freed).
//!   [`QueueView::occupancy`] is then a single array read — this turns
//!   UGAL-G injection from O(path × VCs) credit sums into O(path)
//!   reads. The invariant `occ[l] == staged flits of l + Σ_vc (vc_cap −
//!   credits[l][vc])` is checked by
//!   [`Simulator::verify_occupancy_counters`] (property-tested).
//!
//! * **Persistent scratch** — all per-cycle scratch (switch
//!   allocator grant counters, the candidate-slot list, the per-cycle
//!   ejected-endpoint set) is persistent storage owned by the
//!   `Simulator`, reset in O(work) per cycle; the ejected-endpoint set
//!   is a generation-stamped array (`stamp == now + 1` means "ejected
//!   this cycle"), so membership is O(1) with no clearing pass.
//!
//! * **Active-set tracking** — a per-router buffered-packet counter
//!   lets ejection and switch allocation skip routers with nothing
//!   queued; bitmasks over the (port, VC) input queues and over the
//!   per-link staging queues narrow those scans (and channel
//!   transmission) to non-empty queues in the exact order the full
//!   scan would visit them; a bitmask over endpoint source queues does
//!   the same for the injection pass.
//!
//! * **Time-bucketed wires** — flit and credit delays are run
//!   constants, so in-flight events live in rotating per-cycle buckets
//!   and the arrivals phase drains exactly the due events instead of
//!   polling a timestamped queue on every link every cycle.
//!
//! # Packets, flits and wormhole flow control
//!
//! A **packet** is [`SimConfig::packet_size`] ≥ 1 flits; the engine
//! moves *flits*, and a packet exists as state stretched across the
//! network (wormhole switching). Every flit names its packet's
//! descriptor and carries a sequence number: flit 0 is the **head**,
//! flit `size − 1` the **tail** (a single-flit packet is both at once).
//! The flit lifecycle:
//!
//! * **Generation** — a Bernoulli draw per endpoint per cycle with
//!   probability `load / packet_size` creates one whole packet, so
//!   `load` stays the offered load in *flits*/endpoint/cycle across
//!   packet sizes.
//! * **Injection** — an endpoint injects at most one flit per cycle
//!   (serialization latency starts at the source). The head flit
//!   triggers the routing decision ([`Router::route`]) and the VC-base
//!   draw; the remaining flits of the same packet follow on subsequent
//!   cycles before the next packet may start.
//! * **Switch allocation** — only a **head** flit computes a route
//!   ([`Router::next_hop`] for per-hop schemes) and performs VC
//!   allocation: claiming output `(link, vc)` records the reservation
//!   in two tables — `in_route[input slot] = (link, vc)` and
//!   `out_owner[(link, vc)] = input slot` — and a head is *not*
//!   granted while another packet owns the output VC. Body and tail
//!   flits inherit the reserved `(link, vc)` from `in_route` without
//!   consulting the routing policy. Every flit consumes one credit on
//!   its output VC. The **tail** grant releases both reservations.
//! * **Transmission / arrival / ejection** — per flit, exactly as for
//!   single-flit packets: one flit per link per cycle leaves staging,
//!   one flit per endpoint per cycle ejects, and every flit leaving an
//!   input buffer returns one credit upstream.
//!
//! **Wormhole invariants** (checked by
//! [`Simulator::verify_credit_round_trip`], property-tested):
//!
//! * *Credit conservation* — for every `(link, vc)`:
//!   `vc_cap = credits + staged flits + flits on the wire + flits in
//!   the downstream input buffer + credits in flight upstream`. Every
//!   consumed credit returns exactly once.
//! * *Allocation bijection* — `in_route[s] = (l, v)` iff
//!   `out_owner[(l, v)] = s`; allocations exist only between a head
//!   grant and the matching tail grant, and only for multi-flit
//!   packets (at `packet_size = 1` both tables stay empty, which is
//!   how the wormhole path degenerates to the classic engine).
//! * *No interleaving* — because an output VC is owned from head to
//!   tail and per-link staging is FIFO, a downstream input VC queue
//!   always holds the flits of at most one unfinished packet, in
//!   order; `in_route` therefore always describes the packet at the
//!   queue front.
//!
//! Measurement is packet- and flit-aware: latency statistics are
//! recorded at **tail** ejection (full-packet latency, including
//! serialization), head-flit latency is tracked separately
//! ([`SimResult::avg_head_latency`]), and throughput / link-utilization
//! counters tick per flit.
//!
//! # Randomness
//!
//! Every random draw of a simulation comes from one stream,
//! `StdRng::seed_from_u64(SimConfig::seed)`, in phase order each
//! cycle: generation, injection, then switch allocation (per-hop
//! policies). The pinned curves are its captures ([`ENGINE_EPOCH`] 3).
//!
//! # Determinism contract
//!
//! Results are **bit-for-bit reproducible** given `SimConfig::seed`:
//! the output is a pure function of (plan, seed). Every RNG-bearing
//! phase visits endpoints/routers in ascending order, so
//! `Router::route` and `Router::next_hop` are reached for exactly the
//! same packets, in the same order, drawing the same values, on every
//! host. Events in flight (flits on a wire, credits returning
//! upstream) sit in per-cycle buckets whose delivery order is not
//! observable: each link carries at most one flit per cycle, so a
//! bucket's flits land in distinct queues, and credit effects are
//! counter increments. The `engine_parity` suite pins the absolute
//! curves, and the benchmark's record digests pin every job of its
//! workloads at the current epoch. Any fast path must preserve both
//! the RNG draw sequence and the occupancy values policies observe.
//! The wormhole path is additionally pinned to **degenerate
//! exactly** at `packet_size = 1`: with single-flit packets every head
//! is its own tail, no VC reservation outlives its grant, and the
//! engine's curves match the pre-wormhole engine to the last bit.
//!
//! Debug builds check conservation at the end of every
//! [`Simulator::run_phase`] ([`Simulator::verify_credit_round_trip`]
//! and [`Simulator::verify_occupancy_counters`]), so every debug-build
//! test that simulates also checks that no credit or counter leaked.
//!
//! # Fault injection and degraded operation
//!
//! The engine has one failure mode: **boot-time degradation**.
//! Construct the [`Simulator`] over an already-degraded `Network`
//! (`sf_topo::Network::degrade`, with kill-sets from `sf_graph::fault`):
//! dead routers have zero concentration and no cables, and the network
//! stays that way for the whole run. Nothing engine-side changes: the
//! degraded graph is just a smaller graph, and `Network::degrade`
//! refuses kill-sets that partition the live routers, so every packet
//! the engine generates has a route. Degrading by an empty kill-set
//! returns the intact network, so a fault-free run is bit-identical to
//! one that never heard of faults (pinned by the zero-fault parity
//! tests), and the credit and quiescence verifiers hold on degraded
//! networks exactly as on intact ones (property-tested).
//!
//! The contract is also *statically linted* by clippy: the workspace's
//! `clippy.toml` rejects unordered hash containers
//! (`HashMap`/`HashSet` iteration order would leak into record
//! streams) and wall-clock reads (`Instant::now`/`SystemTime` inside
//! simulation state) in every crate, and this crate — like
//! `sf-routing`, `sf-flow`, `sf-core`, `sf-verify` and the plan parser
//! (`crates/compat/toml`) — denies bare `unwrap()` outside its tests.
//! The VC-allocation semantics themselves are exported
//! ([`vc_base_slack`], [`hop_vc`], [`ADAPTIVE_HOP_BUDGET`]) so the
//! `sf-verify` crate builds its wormhole-aware channel dependency
//! graphs from the *same* arithmetic the engine executes.

use crate::stats::LatencyStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sf_routing::{QueueView, RouteCtx, RouteDecision, Router, RoutingTables};
use sf_topo::Network;
use sf_traffic::TrafficPattern;
use std::collections::VecDeque;

/// Router micro-architecture and measurement parameters (§V defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Virtual channels per port. The paper quotes 3; its §IV-D scheme
    /// needs 4 for 4-hop adaptive paths, so we default to 4. Paths
    /// longer than `num_vcs` hops clamp to the last VC, weakening the
    /// deadlock guarantee — raise this (e.g. to 6 for Valiant on
    /// diameter-3 topologies) when routing non-minimally on deeper
    /// networks. At most [`MAX_NUM_VCS`].
    pub num_vcs: usize,
    /// Total flit buffering per port, split evenly across VCs (paper: 64;
    /// swept in Fig 8a). At most [`MAX_BUF_PER_PORT`].
    pub buf_per_port: usize,
    /// Channel traversal latency in cycles (paper: 1).
    /// `router_delay + channel_latency` is at most [`MAX_DELAY`].
    pub channel_latency: u32,
    /// Lumped per-hop router pipeline delay: switch allocation + VC
    /// allocation + crossbar, 1 cycle each (paper: 3 × 1).
    pub router_delay: u32,
    /// Credit processing delay (paper: 2). At most [`MAX_DELAY`].
    pub credit_delay: u32,
    /// Internal speedup: flits a single output may accept from the
    /// crossbar per cycle (paper: 2). At most [`MAX_OUTPUT_SPEEDUP`];
    /// `0` runs no allocation iteration, so no flit is ever granted.
    pub output_speedup: usize,
    /// Output staging queue depth (absorbs the speedup burst). At most
    /// [`MAX_OUTPUT_QUEUE_CAP`]; `0` stages nothing, so no flit is ever
    /// granted.
    pub output_queue_cap: usize,
    /// Warm-up cycles before measurement.
    pub warmup: u32,
    /// Measurement window in cycles (≥ 1: accepted throughput and link
    /// utilization are rates over it).
    pub measure: u32,
    /// Extra drain cycles allowed after the window.
    pub drain: u32,
    /// Flits per packet (≥ 1, ≤ [`MAX_PACKET_SIZE`]). Multi-flit
    /// packets use wormhole flow control: the head flit routes and
    /// allocates a VC per hop, body/tail flits inherit the reserved
    /// (link, VC) path, the tail releases it. `1` (the default)
    /// reproduces the classic single-flit engine bit for bit.
    pub packet_size: usize,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
}

/// Upper bound on [`SimConfig::packet_size`] — flit sequence numbers
/// are 16-bit and message sizes beyond this are unrealistic for the
/// router buffers modeled here.
pub const MAX_PACKET_SIZE: usize = 4096;

/// Hop budget assumed for adaptively-routed packets (no precomputed
/// path): UGAL / ECMP detours are at most `2 × diameter`, and every
/// topology in the suite has diameter ≤ 2, so 4 hops bound the VC
/// ladder. `sf-verify` mirrors this constant when it reconstructs the
/// engine's VC assignment statically.
pub const ADAPTIVE_HOP_BUDGET: u8 = 4;

/// Longest source route the engine carries: a packet descriptor stores
/// at most `MAX_PATH_HOPS + 1` routers. Per-hop (adaptive) packets
/// store only their destination and are not bounded by it. `sf-verify`
/// checks every source-routed scheme's hop bound against this constant
/// (`sf_verify::check_path_capacity`), so a plan whose routes cannot
/// fit gets a typed error instead of reaching the engine.
pub const MAX_PATH_HOPS: usize = 9;

/// Upper bound on [`SimConfig::num_vcs`]: flit handles and packet VC
/// bases store VC ids in a `u8`, so VC `256` and above would alias a
/// lower VC's queue and credits.
pub const MAX_NUM_VCS: usize = 256;

/// Upper bound on [`SimConfig::buf_per_port`]. Every input buffer is a
/// ring allocated up front (`buf_per_port` flit handles per port, 8
/// bytes each), so plans are bounded before anything is allocated:
/// 4096 flits is 64× the paper's 64-flit buffers and 16× the largest
/// size Fig 8a sweeps.
pub const MAX_BUF_PER_PORT: usize = 4096;

/// Upper bound on [`SimConfig::output_queue_cap`]: every staging
/// queue is a ring of this capacity allocated up front, as for
/// [`MAX_BUF_PER_PORT`]. The bound costs nothing in practice: a staging
/// queue never holds more flits than its link has downstream credits
/// (`num_vcs` × the per-VC buffer).
pub const MAX_OUTPUT_QUEUE_CAP: usize = 4096;

/// Upper bound on [`SimConfig::output_speedup`]: the allocator counts
/// its iterations and each output's grants in `u32`, so the bound keeps
/// those counts exact (and is 2048× the paper's speedup of 2).
pub const MAX_OUTPUT_SPEEDUP: usize = 4096;

/// Upper bound, in cycles, on the per-hop flit delay
/// `router_delay + channel_latency` and on `credit_delay`. The engine
/// allocates one delay bucket per cycle of each delay up front, so the
/// delays are bounded before anything is allocated: 4096 cycles is
/// 1024× the paper's per-hop delay of 4.
pub const MAX_DELAY: u32 = 4096;

/// The engine's **output epoch**: a monotone counter bumped every time
/// the engine's output for a fixed (plan, seed) changes — i.e. at
/// every pinned-curve re-pin. Within one epoch, a simulation's records
/// are a pure function of plan + seed (independent of scheduler
/// worker count and machine), so persisted results keyed on
/// (plan, seed, epoch) stay valid exactly as long as they are
/// reproducible. Content-addressed result caches (`slimfly::cache`)
/// salt their keys with this constant: bumping it invalidates every
/// stored entry at once, without touching cache directories.
///
/// History: epoch 1 drew from one RNG stream; epoch 2 from one
/// splitmix64-derived stream per router range, a layout left over from
/// a multi-threaded engine. Epoch 3 is one stream again ("Randomness"
/// in the module docs), which restores the epoch-1 curves bit for bit,
/// and takes exact latency quantiles, which moves every `p99_latency`.
pub const ENGINE_EPOCH: u32 = 3;

/// Slack available when choosing a packet's base VC: with `hops`
/// remaining and `num_vcs` virtual channels, bases `0..=slack` all
/// keep the per-hop ladder `vc_base + hop` within budget. Zero slack
/// means the ladder may clamp at `num_vcs - 1` (see [`hop_vc`]).
///
/// This is the exact arithmetic of the engine's injection path;
/// `sf-verify` builds its wormhole-aware channel dependency graphs
/// from it rather than re-deriving the semantics.
#[inline]
pub fn vc_base_slack(num_vcs: usize, hops: usize) -> usize {
    num_vcs.saturating_sub(hops.max(1))
}

/// The VC a packet with base `vc_base` uses on its `hop`-th hop
/// (0-based): the ladder `vc_base + hop`, clamped to the top VC. The
/// clamp is what makes under-budgeted configs statically dangerous —
/// once two different hops share `num_vcs - 1`, the VC ordering
/// argument for deadlock freedom no longer applies, and `sf-verify`
/// falls back to explicit cycle detection.
#[inline]
pub fn hop_vc(num_vcs: usize, vc_base: u8, hop: usize) -> usize {
    (vc_base as usize + hop).min(num_vcs - 1)
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_vcs: 4,
            buf_per_port: 64,
            channel_latency: 1,
            router_delay: 3,
            credit_delay: 2,
            output_speedup: 2,
            output_queue_cap: 4,
            warmup: 2_000,
            measure: 4_000,
            drain: 4_000,
            packet_size: 1,
            seed: 0x5EED,
        }
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Offered load (flits/endpoint/cycle).
    pub offered_load: f64,
    /// Flits per packet this run simulated.
    pub packet_size: usize,
    /// Mean end-to-end **packet** latency (cycles): generation to
    /// *tail*-flit ejection, over sample packets (generated inside the
    /// measurement window) — includes serialization latency. NaN if
    /// none ejected.
    pub avg_latency: f64,
    /// Exact 99th-percentile packet latency (cycles): the nearest-rank
    /// order statistic over the sample packets of `avg_latency`; NaN if
    /// none ejected.
    pub p99_latency: f64,
    /// Mean **head-flit** latency (cycles): generation to head-flit
    /// ejection. Equals [`SimResult::avg_latency`] at `packet_size = 1`;
    /// the gap between the two is the serialization tail (≈
    /// `packet_size − 1` cycles at zero load). NaN if none ejected.
    pub avg_head_latency: f64,
    /// Accepted throughput: flits ejected per active endpoint per cycle
    /// during the measurement window.
    pub accepted: f64,
    /// Total packets ejected (tail flits delivered) over the whole run.
    pub ejected: u64,
    /// Total flits ejected over the whole run
    /// (`= ejected × packet_size` once fully drained).
    pub ejected_flits: u64,
    /// True when the network could not drain the sample packets —
    /// operating past saturation.
    pub saturated: bool,
    /// Mean hop count of ejected sample packets.
    pub avg_hops: f64,
    /// Maximum channel utilization over the measurement window
    /// (flits sent / cycles; 1.0 = a fully busy channel).
    pub max_link_util: f64,
    /// Mean channel utilization over the measurement window.
    pub mean_link_util: f64,
    /// Simulated cycles actually executed (the drain phase exits early
    /// once all sample packets are delivered).
    pub cycles: u32,
}

/// CSR layout of the directed router-to-router links, with the reverse
/// maps the hot loops need (see the module docs).
///
/// Flat link ids follow the graph's sorted adjacency: link
/// `link_base[r] + j` is `r → neighbors(r)[j]`. The `(r, to) → id`
/// lookup uses one perfect-hash slot table per router: the smallest
/// modulus `m ≥ degree(r)` under which all neighbor ids are distinct
/// (for the near-regular graphs simulated here `m` stays within a
/// small factor of the degree).
struct LinkIndex {
    /// CSR row offsets; `link_base[nr]` is the directed-link count.
    link_base: Vec<u32>,
    /// Destination router per link.
    to: Vec<u32>,
    /// Input-port index at the destination router per link.
    to_port: Vec<u32>,
    /// Flat id of the opposite-direction link (`to → r`).
    rev: Vec<u32>,
    /// Per-router offset into `slots`.
    slot_base: Vec<u32>,
    /// Per-router Lemire multiply-shift magic for reducing modulo the
    /// perfect-hash modulus without a hardware divide:
    /// `a % m == (((magic · a) as u128 · m) >> 64)` with
    /// `magic = ⌊2^64 / m⌋ + 1` (wrapping to 0 for m = 1).
    slot_magic: Vec<u64>,
    /// Per-router perfect-hash modulus.
    slot_mod: Vec<u32>,
    /// `slots[slot_base[r] + to % slot_mod[r]]` is the link id of
    /// `r → to`, or `u32::MAX` on an empty slot.
    slots: Vec<u32>,
}

/// `a % m` via the precomputed Lemire magic (see [`LinkIndex::slot_magic`]).
#[inline]
fn fast_mod(a: u32, magic: u64, m: u32) -> u32 {
    ((magic.wrapping_mul(a as u64) as u128 * m as u128) >> 64) as u32
}

/// `a / d` via a precomputed magic `⌊2^64 / d⌋ + 1`; exact for every
/// `a < 2^32` and `d ≥ 2`. For `d = 1` the magic wraps to 0 and this
/// returns 0 — callers must special-case the identity (see
/// `slot_port_of`).
#[inline]
fn fast_div(a: u32, magic: u64) -> u32 {
    ((magic as u128 * a as u128) >> 64) as u32
}

impl LinkIndex {
    fn new(net: &Network) -> Self {
        let g = &net.graph;
        let nr = g.num_vertices();
        let mut link_base = Vec::with_capacity(nr + 1);
        let mut acc = 0u32;
        for r in 0..nr as u32 {
            link_base.push(acc);
            acc += g.degree(r) as u32;
        }
        link_base.push(acc);

        let mut to = Vec::with_capacity(acc as usize);
        let mut to_port = Vec::with_capacity(acc as usize);
        let mut rev = Vec::with_capacity(acc as usize);
        for r in 0..nr as u32 {
            for &v in g.neighbors(r) {
                let back = g
                    .neighbors(v)
                    .binary_search(&r)
                    .expect("graph edges are symmetric: reverse edge exists")
                    as u32;
                to.push(v);
                to_port.push(back);
                rev.push(link_base[v as usize] + back);
            }
        }

        // Perfect-hash slot tables: per router, the smallest modulus
        // that separates all neighbor ids.
        let mut slot_base = Vec::with_capacity(nr);
        let mut slot_magic = Vec::with_capacity(nr);
        let mut slot_mod = Vec::with_capacity(nr);
        let mut slots = Vec::new();
        let mut stamp: Vec<u32> = Vec::new();
        let mut gen = 0u32;
        for r in 0..nr as u32 {
            let nbrs = g.neighbors(r);
            let mut m = nbrs.len().max(1) as u32;
            loop {
                if stamp.len() < m as usize {
                    stamp.resize(m as usize, 0);
                }
                gen += 1;
                if nbrs.iter().all(|&v| {
                    let s = (v % m) as usize;
                    let fresh = stamp[s] != gen;
                    stamp[s] = gen;
                    fresh
                }) {
                    break;
                }
                m += 1;
            }
            slot_base.push(slots.len() as u32);
            slot_mod.push(m);
            slot_magic.push((u64::MAX / m as u64).wrapping_add(1));
            let base = slots.len();
            slots.resize(base + m as usize, u32::MAX);
            for (j, &v) in nbrs.iter().enumerate() {
                slots[base + (v % m) as usize] = link_base[r as usize] + j as u32;
            }
        }

        LinkIndex {
            link_base,
            to,
            to_port,
            rev,
            slot_base,
            slot_magic,
            slot_mod,
            slots,
        }
    }

    /// Flat link id of `r → to`. Panics if `to` is not a neighbor of
    /// `r` (the [`QueueView`] contract).
    #[inline]
    fn link(&self, r: u32, to: u32) -> u32 {
        let ri = r as usize;
        let slot = self.slot_base[ri] + fast_mod(to, self.slot_magic[ri], self.slot_mod[ri]);
        let l = self.slots[slot as usize];
        assert!(
            l != u32::MAX && self.to[l as usize] == to,
            "link query for a non-neighbor: {r} -> {to}"
        );
        l
    }

    /// Links owned by router `r`, as a flat-id range.
    #[inline]
    fn links_of(&self, r: u32) -> std::ops::Range<usize> {
        self.link_base[r as usize] as usize..self.link_base[r as usize + 1] as usize
    }
}

/// The queue-state window the engine exposes to [`Router`] policies at
/// **injection time**: occupancy of any output link in the network,
/// exactly as the engine's own allocator sees it (staged flits +
/// downstream slots in use). With the incremental counters this is one
/// perfect-hash lookup plus one array read — O(1) per query. Injection
/// never writes occupancy, so every query within the phase sees the
/// state the previous cycle left behind.
struct EngineQueues<'b> {
    links: &'b LinkIndex,
    occ: &'b [u32],
}

impl QueueView for EngineQueues<'_> {
    #[inline]
    fn occupancy(&self, r: u32, to: u32) -> u32 {
        self.occ[self.links.link(r, to) as usize]
    }
}

/// The queue-state window handed to [`Router::next_hop`] during
/// **switch allocation**: same data as [`EngineQueues`], but queries
/// are asserted to stay on the deciding router's own output links.
/// Routers allocate one after another in ascending id order, and each
/// grant moves its own link's counter, so a foreign link's occupancy
/// mid-phase depends on where that router sits in the scan order —
/// routers before the decider have granted this cycle, routers after
/// it have not. Only the decider's own links read the same whatever
/// the scan order: during the phase only its own grants move them.
/// This is the allocation-phase clause of the `QueueView` contract in
/// `sf-routing`; every in-tree per-hop policy already satisfies it.
struct AllocQueues<'b> {
    links: &'b LinkIndex,
    occ: &'b [u32],
    decider: u32,
}

impl QueueView for AllocQueues<'_> {
    #[inline]
    fn occupancy(&self, r: u32, to: u32) -> u32 {
        assert_eq!(
            r, self.decider,
            "allocation-phase occupancy query for a foreign router \
             (QueueView contract: next_hop may only probe the deciding \
             router's own output links)"
        );
        self.occ[self.links.link(r, to) as usize]
    }
}

/// The stable flow identifier handed to routing policies: the
/// (source, destination) endpoint pair. Identical at injection and at
/// every per-hop decision of the same packet, so flowlet-based schemes
/// can key on it consistently.
#[inline]
fn flow_id(src_ep: u32, dst_ep: u32) -> u64 {
    ((src_ep as u64) << 32) | dst_ep as u64
}

/// A packet's descriptor, kept once in the [`Slab`] from head injection
/// until its tail ejects. Routing state is only *used* by the head;
/// body/tail flits inherit the engine's per-VC reservations and read
/// the descriptor for termination checks and statistics.
#[derive(Clone, Copy)]
struct Packet {
    src_ep: u32,
    dst_ep: u32,
    gen_time: u32,
    path_len: u8,
    /// Base virtual channel: hop `i` travels on VC `vc_base + i`.
    /// Strictly increasing VCs along a path keep the channel dependency
    /// graph acyclic (the generalized Gopal scheme of §IV-D); bases are
    /// spread at injection to avoid VC-level head-of-line blocking.
    vc_base: u8,
    /// Total flits of the packet (`SimConfig::packet_size`).
    size: u16,
    /// Router path for source-routed algorithms; for per-hop adaptive
    /// routing `path_len == 0` and `path[0]` holds the destination
    /// router.
    path: [u32; MAX_PATH_HOPS + 1],
}

impl Packet {
    /// Destination router of the packet.
    #[inline]
    fn dst_router(&self) -> u32 {
        if self.path_len == 0 {
            self.path[0]
        } else {
            self.path[self.path_len as usize - 1]
        }
    }

    /// Whether `f` is this packet's tail, the flit that releases the
    /// per-VC wormhole reservations and the descriptor.
    #[inline]
    fn is_tail(&self, f: Flit) -> bool {
        f.seq + 1 == self.size
    }
}

/// One flit on the move: an 8-byte handle naming its packet's
/// descriptor in the [`Slab`] plus the state that differs from flit to
/// flit of one packet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Flit {
    /// Slab id of the packet descriptor.
    pkt: u32,
    /// Flit index within the packet: 0 is the head (it routes and
    /// allocates; everyone else inherits), `size − 1` the tail.
    seq: u16,
    /// Index of the router the flit currently occupies (or is flying
    /// toward) within the packet's path; doubles as the hop counter for
    /// adaptive packets.
    hop: u8,
    /// The VC the flit travels on once granted (staging and wire); in
    /// an input buffer the slot names the VC.
    vc: u8,
}

/// Packet descriptors indexed by the id flits carry. Freed ids are
/// reused last-in first-out; no scan order or RNG draw depends on an
/// id, so the reuse order is not observable.
#[derive(Default)]
struct Slab {
    pkts: Vec<Packet>,
    /// Ids of free descriptors.
    free: Vec<u32>,
}

impl Slab {
    /// Stores `p` and returns its id.
    #[inline]
    fn alloc(&mut self, p: Packet) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.pkts[id as usize] = p;
                id
            }
            None => {
                self.pkts.push(p);
                (self.pkts.len() - 1) as u32
            }
        }
    }

    /// Frees descriptor `id` (its tail ejected).
    #[inline]
    fn release(&mut self, id: u32) {
        self.free.push(id);
    }

    #[inline]
    fn get(&self, id: u32) -> &Packet {
        &self.pkts[id as usize]
    }
}

/// Fixed-capacity FIFO rings of flits, one flat array for all of them:
/// ring `q` owns `data[q × cap .. (q + 1) × cap]`. The engine's credit
/// loop bounds every input buffer by `vc_cap` and the allocator bounds
/// every staging queue by `output_queue_cap`, so a ring never needs to
/// grow; [`Rings::push`] asserts it, because an overflow would write
/// into the neighbouring ring.
struct Rings {
    cap: usize,
    data: Vec<Flit>,
    /// Per ring: physical index of the front flit and the flit count,
    /// side by side so one cache line serves both.
    cursor: Vec<Cursor>,
}

#[derive(Clone, Copy, Default)]
struct Cursor {
    head: u32,
    len: u32,
}

impl Rings {
    fn new(rings: usize, cap: usize) -> Self {
        Rings {
            cap,
            data: vec![Flit::default(); rings * cap],
            cursor: vec![Cursor::default(); rings],
        }
    }

    /// Number of rings.
    fn count(&self) -> usize {
        self.cursor.len()
    }

    #[inline]
    fn len(&self, q: usize) -> usize {
        self.cursor[q].len as usize
    }

    #[inline]
    fn is_empty(&self, q: usize) -> bool {
        self.cursor[q].len == 0
    }

    /// Physical index of the `k`-th flit of ring `q` (`k < cap`).
    #[inline]
    fn at(&self, q: usize, k: usize) -> usize {
        let i = self.cursor[q].head as usize + k;
        q * self.cap + if i >= self.cap { i - self.cap } else { i }
    }

    #[inline]
    fn front(&self, q: usize) -> Option<Flit> {
        let c = self.cursor[q];
        (c.len != 0).then(|| self.data[q * self.cap + c.head as usize])
    }

    #[inline]
    fn push(&mut self, q: usize, f: Flit) {
        let len = self.len(q);
        assert!(len < self.cap, "ring {q} is full ({} flits)", self.cap);
        let i = self.at(q, len);
        self.data[i] = f;
        self.cursor[q].len += 1;
    }

    #[inline]
    fn pop(&mut self, q: usize) -> Option<Flit> {
        let f = self.front(q)?;
        let c = &mut self.cursor[q];
        c.head = if c.head as usize + 1 == self.cap {
            0
        } else {
            c.head + 1
        };
        c.len -= 1;
        Some(f)
    }

    /// The flits of ring `q`, front to back.
    fn iter(&self, q: usize) -> impl Iterator<Item = Flit> + '_ {
        (0..self.len(q)).map(move |k| self.data[self.at(q, k)])
    }
}

/// Appends the set bits of `mask` within the absolute bit range
/// `[from, to)` to `out`, in ascending order.
fn gather_segment(mask: &[u64], from: usize, to: usize, out: &mut Vec<u32>) {
    if from >= to {
        return;
    }
    let last = (to - 1) / 64;
    let mut w = from / 64;
    let mut word = mask[w] & (!0u64 << (from % 64));
    loop {
        let mut m = word;
        if w == last {
            let rem = to - w * 64;
            if rem < 64 {
                m &= (1u64 << rem) - 1;
            }
        }
        while m != 0 {
            out.push((w * 64 + m.trailing_zeros() as usize) as u32);
            m &= m - 1;
        }
        if w == last {
            break;
        }
        w += 1;
        word = mask[w];
    }
}

/// Sets bit `i` of a bitmask.
#[inline]
fn mask_set(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a bitmask.
#[inline]
fn mask_clear(mask: &mut [u64], i: usize) {
    mask[i / 64] &= !(1 << (i % 64));
}

/// Reads bit `i` of a bitmask.
#[inline]
fn mask_get(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

/// Measurement accumulators of the current phase.
struct Meters {
    stats: LatencyStats,
    hops_sum: u64,
    /// Sum of head-flit latencies of sample packets (mean head latency
    /// = `head_lat_sum / head_ejected`).
    head_lat_sum: u64,
    /// Head flits of sample packets ejected.
    head_ejected: u64,
    sample_generated: u64,
    sample_ejected: u64,
    window_ejected: u64,
    total_ejected: u64,
    total_ejected_flits: u64,
}

impl Meters {
    fn new() -> Self {
        Meters {
            stats: LatencyStats::new(),
            hops_sum: 0,
            head_lat_sum: 0,
            head_ejected: 0,
            sample_generated: 0,
            sample_ejected: 0,
            window_ejected: 0,
            total_ejected: 0,
            total_ejected_flits: 0,
        }
    }
}

/// Per-cycle scratch (hoisted allocations).
struct Scratch {
    /// Switch-allocator grants per output link of the current router.
    out_grants: Vec<u32>,
    /// Switch-allocator grants per input port of the current router.
    in_grants: Vec<u32>,
    /// Non-empty input slots of the current router (or staged links),
    /// in scan order.
    slots: Vec<u32>,
    /// Endpoints with queued packets, gathered per injection pass.
    eps: Vec<u32>,
}

/// Rotating delay buckets: flits on the wire and credits returning
/// upstream, indexed by due-cycle modulo one more than the (constant)
/// effective delay. Delivery order within a bucket is not observable:
/// each link carries at most one flit per cycle, so a bucket's flits
/// land in distinct input queues, and credit effects are counter
/// increments.
struct Wires {
    /// Flits on the wire: bucket `(send + flit_eff) % (flit_eff + 1)`
    /// holds (link, flit) pairs due that cycle.
    flit: Vec<Vec<(u32, Flit)>>,
    /// Credits returning upstream: (link, VC) pairs per due cycle.
    credit: Vec<Vec<(u32, u8)>>,
}

/// Flat input port of input-buffer slot `slot` (`slot / num_vcs`,
/// strength-reduced; `num_vcs == 1` makes it the identity).
#[inline]
fn slot_port_of(nvc: usize, magic: u64, slot: usize) -> usize {
    if nvc == 1 {
        slot
    } else {
        fast_div(slot as u32, magic) as usize
    }
}

/// A single simulation instance.
///
/// The engine owns router micro-architecture (buffers, credits,
/// allocation, VCs) but **no routing policy**: every path decision is
/// delegated to the [`Router`] trait object, which sees live queue
/// state only through the narrow [`QueueView`] window.
///
/// All mutable state is laid out flat (see the module docs): per-link
/// arrays in CSR order, per-(port, VC) input queues in one flat vector,
/// and persistent scratch for the per-cycle allocator working set.
pub struct Simulator<'a> {
    net: &'a Network,
    tables: &'a RoutingTables,
    router: &'a dyn Router,
    pattern: &'a TrafficPattern,
    cfg: SimConfig,
    load: f64,

    vc_cap: usize,
    links: LinkIndex,

    // ---- per-link state, indexed by flat link id (× VC where noted) ----
    /// Credits per (link, VC): available downstream buffer slots.
    credits: Vec<u32>,
    /// Output staging ring per link (absorbs crossbar speedup), of
    /// capacity `output_queue_cap`.
    staging: Rings,
    /// Bitmask over links: bit set ⇔ staging queue non-empty, so
    /// transmission visits exactly the staged links in link-id order.
    staged_mask: Vec<u64>,
    /// Incremental occupancy counter per link (see the module docs).
    occ: Vec<u32>,
    /// Flits sent per link during the measurement window.
    link_flits: Vec<u64>,

    // ---- time-bucketed in-flight events ----
    /// Effective flit delay (`router_delay + channel_latency`, min 1 —
    /// a zero-delay flit still arrives the next cycle because
    /// transmission runs after arrivals).
    flit_eff: u32,
    /// Effective credit delay (`credit_delay`, min 1).
    credit_eff: u32,
    /// Rotating delay buckets (see [`Wires`]).
    wires: Wires,

    // ---- per-port state ----
    /// First flat input-port index per router; network ports first,
    /// then injection ports.
    port_base: Vec<u32>,
    /// Input buffer rings of capacity `vc_cap`, indexed
    /// `flat_port * num_vcs + vc`.
    in_buf: Rings,
    /// Bitmask over `in_buf` slots: bit set ⇔ queue non-empty. Lets
    /// ejection/allocation visit only occupied queues, in scan order.
    buf_mask: Vec<u64>,

    // ---- wormhole per-VC allocation tables ----
    /// Per input-buffer slot: the output `(link × num_vcs + vc)` the
    /// slot's in-flight packet reserved at its head grant, or
    /// `u32::MAX` when free. Body/tail flits are granted to this
    /// reservation without consulting the routing policy; the tail
    /// grant clears it. Only multi-flit packets ever populate it.
    in_route: Vec<u32>,
    /// Per output `(link × num_vcs + vc)`: the input slot owning the
    /// VC from head grant to tail grant, or `u32::MAX` when free. A
    /// head flit is not granted to an owned output VC (prevents flit
    /// interleaving in the downstream input queue).
    out_owner: Vec<u32>,

    // ---- endpoint state ----
    src_q: Vec<VecDeque<(u32, u32)>>, // per endpoint: (gen_time, dst)
    /// Bitmask over endpoints: bit set ⇔ the endpoint has injection
    /// work — a queued packet or a partially injected one — so
    /// injection visits exactly those endpoints in ascending order.
    src_mask: Vec<u64>,
    /// Per endpoint: the next body/tail flit of a partially injected
    /// packet (endpoints inject one flit per cycle; the head's routing
    /// decision is reused by the followers).
    inj_progress: Vec<Option<Flit>>,
    ep_router: Vec<u32>,
    /// Flat `in_buf` slot (VC 0) of each endpoint's injection port.
    ep_inj_slot: Vec<u32>,
    /// Descriptors of the packets in the network.
    slab: Slab,

    // ---- active-set counters ----
    /// Packets buffered in the router's input queues (ejection and
    /// switch allocation skip routers at zero).
    r_buffered: Vec<u32>,

    // ---- persistent per-cycle scratch (hoisted allocations) ----
    scratch: Scratch,
    /// Lemire magic for dividing flat input-slot ids by `num_vcs`.
    nvc_magic: u64,
    /// Generation-stamped "endpoint ejected this cycle" set: the
    /// endpoint received a flit in cycle `now` iff stamp == now + 1.
    ejected_seen: Vec<u32>,

    /// The one RNG stream (see "Randomness" in the module docs).
    rng: StdRng,
    /// Measurement accumulators of the current phase.
    m: Meters,
    now: u32,

    /// First cycle of the current measurement window (warm-up ends
    /// here). Instance state, not derived from `cfg`, so a warm-start
    /// chain can re-arm a fresh window mid-run ([`Simulator::rearm`]).
    win_start: u32,
    /// One past the last cycle of the current measurement window.
    win_end: u32,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator. `tables` must be built over `net.graph`;
    /// `router` is the pluggable routing policy (build one directly or
    /// through `sf_routing::RoutingSpec::build`).
    pub fn new(
        net: &'a Network,
        tables: &'a RoutingTables,
        router: &'a dyn Router,
        pattern: &'a TrafficPattern,
        load: f64,
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(tables.num_routers(), net.num_routers());
        assert_eq!(pattern.num_endpoints() as usize, net.num_endpoints());
        assert!((0.0..=1.0).contains(&load));
        assert!(
            (1..=MAX_PACKET_SIZE).contains(&cfg.packet_size),
            "packet_size must be in 1..={MAX_PACKET_SIZE}, got {}",
            cfg.packet_size
        );
        assert!(
            (1..=MAX_NUM_VCS).contains(&cfg.num_vcs),
            "num_vcs must be in 1..={MAX_NUM_VCS}, got {}",
            cfg.num_vcs
        );
        assert!(
            cfg.buf_per_port <= MAX_BUF_PER_PORT,
            "buf_per_port must be at most {MAX_BUF_PER_PORT}, got {}",
            cfg.buf_per_port
        );
        assert!(
            cfg.output_queue_cap <= MAX_OUTPUT_QUEUE_CAP,
            "output_queue_cap must be at most {MAX_OUTPUT_QUEUE_CAP}, got {}",
            cfg.output_queue_cap
        );
        assert!(
            cfg.output_speedup <= MAX_OUTPUT_SPEEDUP,
            "output_speedup must be at most {MAX_OUTPUT_SPEEDUP}, got {}",
            cfg.output_speedup
        );
        assert!(
            cfg.router_delay
                .checked_add(cfg.channel_latency)
                .is_some_and(|d| d <= MAX_DELAY),
            "router_delay + channel_latency must be at most {MAX_DELAY} cycles, got {} + {}",
            cfg.router_delay,
            cfg.channel_latency
        );
        assert!(
            cfg.credit_delay <= MAX_DELAY,
            "credit_delay must be at most {MAX_DELAY} cycles, got {}",
            cfg.credit_delay
        );
        assert!(cfg.measure >= 1, "measure must be at least 1 cycle");
        let window = [cfg.warmup, cfg.measure, cfg.drain];
        assert!(
            window
                .iter()
                .try_fold(0u32, |t, &c| t.checked_add(c))
                .is_some(),
            "warmup + measure + drain {window:?} overflows the u32 cycle clock"
        );
        let nr = net.num_routers();
        let nvc = cfg.num_vcs;
        let vc_cap = (cfg.buf_per_port / nvc).max(1);
        let links = LinkIndex::new(net);
        let nlinks = *links
            .link_base
            .last()
            .expect("link_base has nr + 1 entries") as usize;

        let mut port_base = Vec::with_capacity(nr + 1);
        let mut acc = 0u32;
        for r in 0..nr as u32 {
            port_base.push(acc);
            acc += (net.graph.degree(r) + net.concentration[r as usize] as usize) as u32;
        }
        port_base.push(acc);
        let nslots = acc as usize * nvc;

        let mut ep_router = Vec::with_capacity(net.num_endpoints());
        let mut ep_inj_slot = Vec::with_capacity(net.num_endpoints());
        for e in 0..net.num_endpoints() as u32 {
            let r = net.endpoint_router(e);
            let inj_port = net.graph.degree(r) as u32 + (e - net.endpoints_of_router(r).start);
            ep_router.push(r);
            ep_inj_slot.push((port_base[r as usize] + inj_port) * nvc as u32);
        }

        let max_deg = (0..nr as u32)
            .map(|r| net.graph.degree(r))
            .max()
            .unwrap_or(0);
        let max_ports = (0..nr)
            .map(|r| (port_base[r + 1] - port_base[r]) as usize)
            .max()
            .unwrap_or(0);

        let flit_eff = (cfg.router_delay + cfg.channel_latency).max(1);
        let credit_eff = cfg.credit_delay.max(1);
        Simulator {
            net,
            tables,
            router,
            pattern,
            cfg,
            load,
            vc_cap,
            links,
            credits: vec![vc_cap as u32; nlinks * nvc],
            staging: Rings::new(nlinks, cfg.output_queue_cap),
            staged_mask: vec![0; nlinks.div_ceil(64)],
            occ: vec![0; nlinks],
            link_flits: vec![0; nlinks],
            flit_eff,
            credit_eff,
            wires: Wires {
                flit: (0..=flit_eff).map(|_| Vec::new()).collect(),
                credit: (0..=credit_eff).map(|_| Vec::new()).collect(),
            },
            port_base,
            in_buf: Rings::new(nslots, vc_cap),
            buf_mask: vec![0; nslots.div_ceil(64)],
            in_route: vec![u32::MAX; nslots],
            out_owner: vec![u32::MAX; nlinks * nvc],
            src_q: vec![VecDeque::new(); net.num_endpoints()],
            src_mask: vec![0; net.num_endpoints().div_ceil(64)],
            inj_progress: vec![None; net.num_endpoints()],
            ep_router,
            ep_inj_slot,
            slab: Slab::default(),
            r_buffered: vec![0; nr],
            scratch: Scratch {
                out_grants: vec![0; max_deg],
                in_grants: vec![0; max_ports],
                slots: Vec::with_capacity(max_ports * nvc),
                eps: Vec::new(),
            },
            nvc_magic: (u64::MAX / nvc as u64).wrapping_add(1),
            ejected_seen: vec![0; net.num_endpoints()],
            rng: StdRng::seed_from_u64(cfg.seed),
            m: Meters::new(),
            now: 0,
            win_start: cfg.warmup,
            win_end: cfg.warmup + cfg.measure,
        }
    }
}

impl Simulator<'_> {
    #[inline]
    fn slot_port(&self, slot: usize) -> usize {
        slot_port_of(self.cfg.num_vcs, self.nvc_magic, slot)
    }

    #[inline]
    fn in_window(&self, t: u32) -> bool {
        t >= self.win_start && t < self.win_end
    }

    /// Asks the routing policy for an injection-time decision.
    fn choose_path(
        &mut self,
        src_r: u32,
        dst_r: u32,
        flow: u64,
        now: u32,
    ) -> ([u32; MAX_PATH_HOPS + 1], u8) {
        let queues = EngineQueues {
            links: &self.links,
            occ: &self.occ,
        };
        let ctx = RouteCtx {
            graph: &self.net.graph,
            tables: self.tables,
            queues: &queues,
            src: src_r,
            dst: dst_r,
            flow,
            now,
        };
        match self.router.route(&ctx, &mut self.rng) {
            RouteDecision::Path(v) => {
                // Plan runs reject schemes whose routes could be longer
                // first (`sf_verify::check_path_capacity`).
                assert!(
                    v.len() <= MAX_PATH_HOPS + 1,
                    "path longer than MAX_PATH_HOPS = {MAX_PATH_HOPS} hops: {v:?}"
                );
                let mut a = [0u32; MAX_PATH_HOPS + 1];
                a[..v.len()].copy_from_slice(&v);
                (a, v.len() as u8)
            }
            RouteDecision::PerHop => {
                // Per-hop routing: packet only carries the destination.
                let mut a = [0u32; MAX_PATH_HOPS + 1];
                a[0] = dst_r;
                (a, 0)
            }
        }
    }

    /// Next-hop router for a packet sitting at `r`: the recorded source
    /// route, or the policy's per-hop hook for adaptive packets. The
    /// per-hop hook sees queues through [`AllocQueues`], which enforces
    /// the allocation-phase QueueView contract (own links only).
    fn next_hop(&mut self, f: Flit, r: u32, now: u32) -> u32 {
        let p = self.slab.get(f.pkt);
        if p.path_len > 0 {
            p.path[f.hop as usize + 1]
        } else {
            let queues = AllocQueues {
                links: &self.links,
                occ: &self.occ,
                decider: r,
            };
            let ctx = RouteCtx {
                graph: &self.net.graph,
                tables: self.tables,
                queues: &queues,
                src: r,
                dst: p.path[0],
                flow: flow_id(p.src_ep, p.dst_ep),
                now,
            };
            self.router.next_hop(&ctx, r, &mut self.rng)
        }
    }

    /// Pushes a flit into input-buffer slot `slot` of router `r`,
    /// maintaining the non-empty bitmask and the active-set counter.
    #[inline]
    fn buf_push(&mut self, r: u32, slot: usize, f: Flit) {
        self.in_buf.push(slot, f);
        mask_set(&mut self.buf_mask, slot);
        self.r_buffered[r as usize] += 1;
    }

    /// Pops the head of input-buffer slot `slot` of router `r`.
    #[inline]
    fn buf_pop(&mut self, r: u32, slot: usize) -> Flit {
        let f = self
            .in_buf
            .pop(slot)
            .expect("buf_pop is only called on slots the mask marks occupied");
        if self.in_buf.is_empty(slot) {
            mask_clear(&mut self.buf_mask, slot);
        }
        self.r_buffered[r as usize] -= 1;
        f
    }

    /// Returns the credit of a flit leaving input slot `slot` (port
    /// `fp`) of router `r` to the upstream router, if the slot is a
    /// network port (injection ports have no upstream link).
    #[inline]
    fn credit_upstream(&mut self, r: u32, slot: usize, fp: usize, credit_due: usize) {
        let port = fp - self.port_base[r as usize] as usize;
        if port < self.net.graph.degree(r) {
            let down = self.links.link_base[r as usize] as usize + port;
            let up_link = self.links.rev[down];
            let vc = (slot - fp * self.cfg.num_vcs) as u8;
            self.wires.credit[credit_due].push((up_link, vc));
        }
    }

    /// Phase 1 — arrivals: flying flits reach downstream input buffers;
    /// credits mature. Events live in per-cycle buckets, so the drain
    /// touches exactly the due events (no RNG; delivery order within a
    /// bucket is not observable — see [`Wires`]).
    fn arrivals(&mut self, now: u32) {
        let nvc = self.cfg.num_vcs;
        let fb = (now % (self.flit_eff + 1)) as usize;
        let mut bucket = std::mem::take(&mut self.wires.flit[fb]);
        for &(l, f) in &bucket {
            let to = self.links.to[l as usize];
            let fp = self.port_base[to as usize] + self.links.to_port[l as usize];
            self.buf_push(to, fp as usize * nvc + f.vc as usize, f);
        }
        bucket.clear();
        self.wires.flit[fb] = bucket;
        let cb = (now % (self.credit_eff + 1)) as usize;
        let mut bucket = std::mem::take(&mut self.wires.credit[cb]);
        for &(l, vc) in &bucket {
            self.credits[l as usize * nvc + vc as usize] += 1;
            self.occ[l as usize] -= 1;
        }
        bucket.clear();
        self.wires.credit[cb] = bucket;
    }

    /// Phase 2 — traffic generation (Bernoulli per active endpoint).
    /// RNG phase: iterates endpoints in ascending order,
    /// unconditionally. One draw generates a whole packet; the
    /// probability is scaled by the packet size so `load` stays the
    /// offered load in flits/endpoint/cycle.
    fn generation(&mut self, now: u32) {
        if self.load <= 0.0 {
            return;
        }
        let p_gen = self.load / self.cfg.packet_size as f64;
        let sample = self.in_window(now);
        for e in 0..self.net.num_endpoints() as u32 {
            if !self.pattern.is_active(e) {
                continue;
            }
            if !self.rng.gen_bool(p_gen) {
                continue;
            }
            let Some(d) = self.pattern.dest(e, &mut self.rng) else {
                continue;
            };
            if sample {
                self.m.sample_generated += 1;
            }
            self.src_q[e as usize].push_back((now, d));
            mask_set(&mut self.src_mask, e as usize);
        }
    }

    /// Phase 3 — injection: one flit per endpoint per cycle enters the
    /// router's injection port. A *new* packet's head flit picks its
    /// path now (seeing current queues); body/tail flits of a partially
    /// injected packet follow on later cycles, before the next packet
    /// may start. RNG phase: endpoints with injection work are visited
    /// in ascending order — exactly the endpoints a full scan would visit
    /// (no RNG is drawn for idle endpoints or for body/tail flits).
    fn injection(&mut self, now: u32) {
        let mut eps = std::mem::take(&mut self.scratch.eps);
        eps.clear();
        gather_segment(&self.src_mask, 0, self.net.num_endpoints(), &mut eps);
        for &e in &eps {
            self.inject(e, now);
        }
        self.scratch.eps = eps;
    }

    /// Injects at most one flit of endpoint `e`.
    fn inject(&mut self, e: u32, now: u32) {
        let el = e as usize;
        let slot = self.ep_inj_slot[el] as usize;
        if self.in_buf.len(slot) >= self.vc_cap {
            return;
        }
        let r = self.ep_router[el];
        if let Some(f) = self.inj_progress[el] {
            // Body/tail flit of the packet in progress: no routing, no
            // RNG — serialization only.
            self.inj_progress[el] = if self.slab.get(f.pkt).is_tail(f) {
                None
            } else {
                Some(Flit {
                    seq: f.seq + 1,
                    ..f
                })
            };
            self.buf_push(r, slot, f);
            if self.inj_progress[el].is_none() && self.src_q[el].is_empty() {
                mask_clear(&mut self.src_mask, el);
            }
            return;
        }
        let (gen_time, dst_ep) = self.src_q[el]
            .pop_front()
            .expect("src_mask marks this endpoint's queue non-empty");
        let dst_r = self.ep_router[dst_ep as usize];
        if self.src_q[el].is_empty() && self.cfg.packet_size == 1 {
            mask_clear(&mut self.src_mask, el);
        }
        let (path, path_len) = self.choose_path(r, dst_r, flow_id(e, dst_ep), now);
        // Spread packets over VC classes: an h-hop path may start at
        // any base with base + h ≤ num_vcs (adaptive paths reserve the
        // full diameter-bound budget).
        let nvc = self.cfg.num_vcs;
        let hops = if path_len == 0 {
            self.tables.distance(r, dst_r).min(ADAPTIVE_HOP_BUDGET) as usize
        } else {
            path_len as usize - 1
        };
        let slack = vc_base_slack(nvc, hops);
        let vc_base = if slack == 0 {
            0
        } else {
            self.rng.gen_range(0..=slack.min(nvc - 1)) as u8
        };
        let size = self.cfg.packet_size as u16;
        let head = Flit {
            pkt: self.slab.alloc(Packet {
                src_ep: e,
                dst_ep,
                gen_time,
                path_len,
                vc_base,
                size,
                path,
            }),
            ..Flit::default()
        };
        if size > 1 {
            self.inj_progress[el] = Some(Flit { seq: 1, ..head });
        }
        self.buf_push(r, slot, head);
    }

    /// Phase 4 — ejection: one flit per endpoint per cycle. (No RNG.)
    fn ejection(&mut self, now: u32) {
        let nvc = self.cfg.num_vcs;
        let eject_stamp = now + 1;
        let credit_due = ((now + self.credit_eff) % (self.credit_eff + 1)) as usize;
        let window = self.in_window(now);
        let mut scratch = std::mem::take(&mut self.scratch.slots);
        for r in 0..self.net.num_routers() as u32 {
            if self.r_buffered[r as usize] == 0 {
                continue;
            }
            let lo = self.port_base[r as usize] as usize * nvc;
            let hi = self.port_base[r as usize + 1] as usize * nvc;
            scratch.clear();
            gather_segment(&self.buf_mask, lo, hi, &mut scratch);
            for &slot in &scratch {
                let slot = slot as usize;
                let Some(f) = self.in_buf.front(slot) else {
                    continue;
                };
                let p = self.slab.get(f.pkt);
                if p.dst_router() != r || self.ejected_seen[p.dst_ep as usize] == eject_stamp {
                    continue;
                }
                let (dst_ep, gen_time, tail) = (p.dst_ep, p.gen_time, p.is_tail(f));
                self.buf_pop(r, slot);
                self.ejected_seen[dst_ep as usize] = eject_stamp;
                self.credit_upstream(r, slot, self.slot_port(slot), credit_due);
                if tail {
                    self.slab.release(f.pkt);
                }
                // Throughput ticks per flit; packet completion (and
                // latency, measured to the *tail* — serialization
                // included) ticks at the tail flit.
                let sample = self.in_window(gen_time);
                let m = &mut self.m;
                m.total_ejected_flits += 1;
                if window {
                    m.window_ejected += 1;
                }
                if tail {
                    m.total_ejected += 1;
                }
                if sample {
                    if f.seq == 0 {
                        m.head_lat_sum += now.saturating_sub(gen_time) as u64;
                        m.head_ejected += 1;
                    }
                    if tail {
                        m.sample_ejected += 1;
                        m.stats.record(now.saturating_sub(gen_time));
                        m.hops_sum += f.hop as u64;
                    }
                }
            }
        }
        self.scratch.slots = scratch;
    }

    /// Phase 5 — switch allocation: round-robin over input VCs; each
    /// input grants ≤ 1 flit, each output accepts ≤ `output_speedup`.
    /// Only *head* flits route and allocate: a head consults
    /// `Router::next_hop` (which may draw from the RNG stream), then
    /// claims the output VC (`in_route`/`out_owner`) if no other packet
    /// owns it; body/tail flits are granted straight to the recorded
    /// reservation, and the tail releases it.
    /// `Router::next_hop` is reached for exactly the packets a full
    /// scan would reach, in the same order: routers ascending, and
    /// within a router only non-empty queues, in round-robin order from
    /// the same per-cycle offset.
    fn allocation(&mut self, now: u32) {
        for r in 0..self.net.num_routers() as u32 {
            if self.r_buffered[r as usize] != 0 {
                self.allocate_router(r, now);
            }
        }
    }

    /// Switch allocation at router `r`.
    fn allocate_router(&mut self, r: u32, now: u32) {
        let nvc = self.cfg.num_vcs;
        let speedup = self.cfg.output_speedup;
        let credit_due = ((now + self.credit_eff) % (self.credit_eff + 1)) as usize;
        let base = self.port_base[r as usize] as usize;
        let nports = self.port_base[r as usize + 1] as usize - base;
        let total = nports * nvc;
        // The pre-CSR engine kept a per-router round-robin cursor
        // incremented once per cycle; it always equals `now`.
        let start = now as usize % total.max(1);
        let link_base = self.links.link_base[r as usize] as usize;
        let nlinks_r = self.links.links_of(r).len();
        self.scratch.out_grants[..nlinks_r].fill(0);
        self.scratch.in_grants[..nports].fill(0);

        // Candidate queues, gathered once in round-robin order
        // (allocation only ever empties queues, so the set cannot grow
        // mid-phase; emptied queues are re-checked cheaply).
        let lo = base * nvc;
        let hi = lo + total;
        let mut scratch = std::mem::take(&mut self.scratch.slots);
        scratch.clear();
        gather_segment(&self.buf_mask, lo + start, hi, &mut scratch);
        gather_segment(&self.buf_mask, lo, lo + start, &mut scratch);

        // Internal speedup: the crossbar runs `output_speedup`
        // allocation iterations per cycle; an input may win once per
        // iteration (and sees its new queue head in the next one).
        for iter in 0..speedup as u32 {
            for &slot in &scratch {
                let slot = slot as usize;
                let fp = self.slot_port(slot);
                let port = fp - base;
                if self.scratch.in_grants[port] > iter {
                    continue;
                }
                let Some(head) = self.in_buf.front(slot) else {
                    continue;
                };
                let p = self.slab.get(head.pkt);
                let (dst_r, vc_base, size, tail) =
                    (p.dst_router(), p.vc_base, p.size, p.is_tail(head));
                if dst_r == r {
                    continue; // handled by ejection
                }
                let alloc = self.in_route[slot];
                let (l, next_vc) = if alloc != u32::MAX {
                    // Body/tail flit: inherit the head's reserved
                    // (link, VC) — the routing policy is never
                    // consulted past the head flit.
                    debug_assert!(head.seq != 0);
                    ((alloc as usize) / nvc, (alloc as usize) % nvc)
                } else {
                    debug_assert!(head.seq == 0);
                    let nxt = self.next_hop(head, r, now);
                    let l = self.links.link(r, nxt) as usize;
                    (l, hop_vc(nvc, vc_base, head.hop as usize))
                };
                let j = l - link_base;
                if self.scratch.out_grants[j] >= speedup as u32 {
                    continue;
                }
                let lv = l * nvc + next_vc;
                if self.staging.len(l) >= self.cfg.output_queue_cap || self.credits[lv] == 0 {
                    continue;
                }
                if alloc == u32::MAX && size > 1 && self.out_owner[lv] != u32::MAX {
                    // Wormhole VC allocation: another packet owns the
                    // output VC until its tail passes.
                    continue;
                }
                // Grant. Source routes are at most MAX_PATH_HOPS long;
                // adaptive packets count hops and saturate.
                let mut f = self.buf_pop(r, slot);
                f.hop = f.hop.saturating_add(1);
                f.vc = next_vc as u8;
                if size > 1 {
                    if f.seq == 0 {
                        self.in_route[slot] = lv as u32;
                        self.out_owner[lv] = slot as u32;
                    }
                    if tail {
                        self.in_route[slot] = u32::MAX;
                        self.out_owner[lv] = u32::MAX;
                    }
                }
                self.credits[lv] -= 1;
                self.staging.push(l, f);
                mask_set(&mut self.staged_mask, l);
                // One staged flit + one downstream slot consumed.
                self.occ[l] += 2;
                self.scratch.out_grants[j] += 1;
                self.scratch.in_grants[port] = iter + 1;
                // Credit to upstream for the freed input slot.
                self.credit_upstream(r, slot, fp, credit_due);
            }
        }
        self.scratch.slots = scratch;
    }

    /// Phase 6 — channel transmission: one flit per link per cycle
    /// leaves staging; arrival after router pipeline + wire delay. The
    /// staged-link bitmask yields exactly the non-empty staging queues
    /// in ascending link order — the order a full scan over routers ×
    /// links would visit them. (No RNG.)
    fn transmission(&mut self, now: u32) {
        let flit_due = ((now + self.flit_eff) % (self.flit_eff + 1)) as usize;
        let window = self.in_window(now);
        let mut scratch = std::mem::take(&mut self.scratch.slots);
        scratch.clear();
        gather_segment(&self.staged_mask, 0, self.occ.len(), &mut scratch);
        for &l in &scratch {
            let l = l as usize;
            let f = self
                .staging
                .pop(l)
                .expect("staged_mask marks this staging queue non-empty");
            if self.staging.is_empty(l) {
                mask_clear(&mut self.staged_mask, l);
            }
            self.wires.flit[flit_due].push((l as u32, f));
            self.occ[l] -= 1;
            if window {
                self.link_flits[l] += 1;
            }
        }
        self.scratch.slots = scratch;
    }

    /// Advances the simulation to `horizon` (at most). With `early`,
    /// stops at the first cycle ≥ the measurement-window end where
    /// every sample packet has ejected — the drain early-exit of
    /// [`Simulator::run_phase`].
    fn advance(&mut self, horizon: u32, early: bool) {
        while self.now < horizon {
            let t = self.now;
            self.arrivals(t);
            self.generation(t);
            self.injection(t);
            self.ejection(t);
            self.allocation(t);
            self.transmission(t);
            self.now += 1;
            if early && self.now >= self.win_end && self.m.sample_ejected >= self.m.sample_generated
            {
                break;
            }
        }
    }

    /// Advances the simulation by one cycle.
    ///
    /// Public for embedding and invariant testing (see
    /// [`Simulator::verify_occupancy_counters`]); [`Simulator::run`]
    /// drives the full warm-up / measure / drain schedule.
    pub fn step(&mut self) {
        self.advance(self.now + 1, false);
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u32 {
        self.now
    }
}

impl<'a> Simulator<'a> {
    /// Checks every incremental counter against a from-scratch
    /// recomputation: per-link occupancy (staging + credits in use),
    /// the per-router active-set counters, and the input-queue,
    /// staged-link and source-queue bitmasks. Returns the first mismatch as
    /// an error. O(state); intended for tests (property-tested after
    /// random step sequences), not for the hot loop.
    pub fn verify_occupancy_counters(&self) -> Result<(), String> {
        let nvc = self.cfg.num_vcs;
        let nlinks = self.occ.len();
        for l in 0..nlinks {
            let used: u32 = (0..nvc)
                .map(|vc| self.vc_cap as u32 - self.credits[l * nvc + vc])
                .sum();
            let expect = self.staging.len(l) as u32 + used;
            if self.occ[l] != expect {
                return Err(format!(
                    "link {l}: occ counter {} != recomputed {expect} \
                     (staging {}, credits in use {used})",
                    self.occ[l],
                    self.staging.len(l)
                ));
            }
        }
        for r in 0..self.net.num_routers() {
            let lo = self.port_base[r] as usize * nvc;
            let hi = self.port_base[r + 1] as usize * nvc;
            let buffered: u32 = (lo..hi).map(|s| self.in_buf.len(s) as u32).sum();
            if self.r_buffered[r] != buffered {
                return Err(format!(
                    "router {r}: r_buffered {} != recomputed {buffered}",
                    self.r_buffered[r]
                ));
            }
            for slot in lo..hi {
                let bit = mask_get(&self.buf_mask, slot);
                if bit == self.in_buf.is_empty(slot) {
                    return Err(format!(
                        "slot {slot}: mask bit {bit} but queue len {}",
                        self.in_buf.len(slot)
                    ));
                }
            }
        }
        for l in 0..nlinks {
            let bit = mask_get(&self.staged_mask, l);
            if bit == self.staging.is_empty(l) {
                return Err(format!(
                    "link {l}: staged-mask bit {bit} but staging len {}",
                    self.staging.len(l)
                ));
            }
        }
        for (e, q) in self.src_q.iter().enumerate() {
            let bit = mask_get(&self.src_mask, e);
            let has_work = !q.is_empty() || self.inj_progress[e].is_some();
            if bit != has_work {
                return Err(format!(
                    "endpoint {e}: source-mask bit {bit} but queue len {} \
                     and injection in progress {}",
                    q.len(),
                    self.inj_progress[e].is_some()
                ));
            }
        }
        Ok(())
    }

    /// Validates the wormhole credit loop and per-VC allocation state
    /// against a from-scratch recomputation:
    ///
    /// * **credit conservation** per `(link, VC)` — every consumed
    ///   credit is accounted for exactly once, as a staged flit, a flit
    ///   on the wire, a flit in the downstream input buffer, or a
    ///   credit in flight back upstream (`vc_cap = credits + all of
    ///   those`), so every credit returns exactly once;
    /// * **allocation bijection** — `in_route[slot] = (l, v)` iff
    ///   `out_owner[(l, v)] = slot`, every reservation names an output
    ///   link of the slot's own router, and with `packet_size = 1`
    ///   both tables are empty (tails released everything);
    /// * **packet slab** — every live descriptor is referenced by at
    ///   least one flit (buffered, staged, on the wire, or waiting in an
    ///   endpoint's in-progress injection), and every flit references a
    ///   live descriptor: tails free exactly what heads allocated.
    ///
    /// Returns the first violation as an error. O(state); intended for
    /// tests (property-tested after random step batches across routings
    /// × packet sizes), not for the hot loop.
    pub fn verify_credit_round_trip(&self) -> Result<(), String> {
        let nvc = self.cfg.num_vcs;
        let nlinks = self.occ.len();
        // Flits on the wire / credits in flight, tallied per (link, VC)
        // across the delay buckets.
        let mut wire = vec![0u32; nlinks * nvc];
        let mut credit_flight = vec![0u32; nlinks * nvc];
        for &(l, f) in self.wires.flit.iter().flatten() {
            wire[l as usize * nvc + f.vc as usize] += 1;
        }
        for &(l, vc) in self.wires.credit.iter().flatten() {
            credit_flight[l as usize * nvc + vc as usize] += 1;
        }
        for l in 0..nlinks {
            let to = self.links.to[l] as usize;
            let fp = (self.port_base[to] + self.links.to_port[l]) as usize;
            for vc in 0..nvc {
                let lv = l * nvc + vc;
                let staged = self.staging.iter(l).filter(|f| f.vc as usize == vc).count() as u32;
                let downstream = self.in_buf.len(fp * nvc + vc) as u32;
                let accounted =
                    self.credits[lv] + staged + wire[lv] + downstream + credit_flight[lv];
                if accounted != self.vc_cap as u32 {
                    return Err(format!(
                        "link {l} vc {vc}: credit loop leaks — credits {} + staged \
                         {staged} + wire {} + downstream {downstream} + in-flight \
                         credits {} = {accounted}, expected vc_cap {}",
                        self.credits[lv], wire[lv], credit_flight[lv], self.vc_cap
                    ));
                }
            }
        }
        // Allocation bijection.
        for (slot, &alloc) in self.in_route.iter().enumerate() {
            if alloc == u32::MAX {
                continue;
            }
            if self.cfg.packet_size == 1 {
                return Err(format!(
                    "slot {slot}: allocation {alloc} held at packet_size = 1"
                ));
            }
            let owner = self.out_owner.get(alloc as usize).copied();
            if owner != Some(slot as u32) {
                return Err(format!(
                    "slot {slot}: in_route {alloc} but out_owner {owner:?}"
                ));
            }
            // The reservation must point at an output link of the
            // router owning the input slot.
            let fp = slot_port_of(nvc, self.nvc_magic, slot) as u32;
            let r = self.port_base.partition_point(|&b| b <= fp) - 1;
            let link = alloc as usize / nvc;
            if !self.links.links_of(r as u32).contains(&link) {
                return Err(format!(
                    "slot {slot} (router {r}): reservation names foreign link {link}"
                ));
            }
        }
        for (lv, &owner) in self.out_owner.iter().enumerate() {
            if owner != u32::MAX && self.in_route[owner as usize] != lv as u32 {
                return Err(format!(
                    "output vc-slot {lv}: owner {owner} whose in_route is {}",
                    self.in_route[owner as usize]
                ));
            }
        }
        self.verify_slab()
    }

    /// The packet-slab clause of [`Simulator::verify_credit_round_trip`].
    fn verify_slab(&self) -> Result<(), String> {
        let n = self.slab.pkts.len();
        let mut free = vec![false; n];
        for &id in &self.slab.free {
            match free.get_mut(id as usize) {
                None => return Err(format!("free id {id} beyond the {n}-descriptor slab")),
                Some(true) => return Err(format!("packet {id} freed twice")),
                Some(slot) => *slot = true,
            }
        }
        let mut referenced = vec![false; n];
        let flits = (0..self.in_buf.count())
            .flat_map(|q| self.in_buf.iter(q))
            .chain((0..self.staging.count()).flat_map(|l| self.staging.iter(l)))
            .chain(self.wires.flit.iter().flatten().map(|&(_, f)| f))
            .chain(self.inj_progress.iter().flatten().copied());
        for f in flits {
            match free.get(f.pkt as usize) {
                None => return Err(format!("{f:?} names no descriptor ({n} in the slab)")),
                Some(true) => return Err(format!("{f:?} names a freed descriptor")),
                Some(false) => referenced[f.pkt as usize] = true,
            }
        }
        match (0..n).find(|&id| !free[id] && !referenced[id]) {
            Some(id) => Err(format!(
                "packet {id} is live but no flit references it (leaked descriptor)"
            )),
            None => Ok(()),
        }
    }

    /// Asserts the network is fully drained: no flits buffered, staged
    /// or on the wire, every credit home, every wormhole reservation
    /// released, no packet mid-injection and every packet descriptor
    /// free. The strongest form of the credit-round-trip contract —
    /// after the sources go quiet, the state must return to exactly the
    /// reset state.
    pub fn verify_quiescent(&self) -> Result<(), String> {
        self.verify_credit_round_trip()?;
        self.verify_occupancy_counters()?;
        if let Some(slot) = (0..self.in_buf.count()).find(|&s| !self.in_buf.is_empty(s)) {
            return Err(format!("input slot {slot} still buffers flits"));
        }
        if let Some(l) = (0..self.staging.count()).find(|&l| !self.staging.is_empty(l)) {
            return Err(format!("link {l} still stages flits"));
        }
        if self.wires.flit.iter().any(|b| !b.is_empty()) {
            return Err("flits still on the wire".into());
        }
        if self.wires.credit.iter().any(|b| !b.is_empty()) {
            return Err("credits still in flight".into());
        }
        if let Some(lv) = (0..self.credits.len()).find(|&lv| self.credits[lv] != self.vc_cap as u32)
        {
            return Err(format!(
                "credit {lv} not home: {} of {}",
                self.credits[lv], self.vc_cap
            ));
        }
        if let Some(s) = (0..self.in_route.len()).find(|&s| self.in_route[s] != u32::MAX) {
            return Err(format!("slot {s} still holds a VC reservation"));
        }
        if let Some(e) = (0..self.inj_progress.len()).find(|&e| self.inj_progress[e].is_some()) {
            return Err(format!("endpoint {e} still mid-injection"));
        }
        let live = self.slab.pkts.len() - self.slab.free.len();
        if live != 0 {
            return Err(format!("{live} packet descriptor(s) still live"));
        }
        Ok(())
    }

    /// Runs the configured warm-up + measurement (+ drain) phases and
    /// returns aggregate results.
    pub fn run(mut self) -> SimResult {
        self.run_phase()
    }

    /// Re-arms the simulator for another offered load **without
    /// clearing the warmed queue state**: buffers, credits, staged and
    /// in-flight flits all carry over from the previous phase, while
    /// every measurement counter resets and a fresh
    /// warm-up + measurement window is scheduled starting at the
    /// current cycle. The RNG stream reseeds from `seed`, mirroring
    /// construction.
    ///
    /// This is the warm-start fast path for load sweeps
    /// ([`LoadSweep::run_warm`]): consecutive loads on the same
    /// (network, routing, traffic) configuration skip the cold ramp
    /// from empty queues. Results are *not* bit-identical to cold
    /// per-load runs (the queue history differs by construction), which
    /// is why sweep drivers only take this path behind an explicit
    /// opt-in flag.
    pub fn rearm(&mut self, load: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&load));
        self.load = load;
        self.rng = StdRng::seed_from_u64(seed);
        self.win_start = self.now + self.cfg.warmup;
        self.win_end = self.win_start + self.cfg.measure;
        self.m = Meters::new();
        for c in &mut self.link_flits {
            *c = 0;
        }
    }

    /// Drives the current warm-up + measurement (+ drain) phase to
    /// completion and returns its aggregate results. Equivalent to
    /// [`Simulator::run`] on a fresh simulator; after
    /// [`Simulator::rearm`] it measures the re-armed window instead.
    pub fn run_phase(&mut self) -> SimResult {
        let phase_start = self.win_start - self.cfg.warmup;
        let horizon = self.win_end + self.cfg.drain;
        self.advance(horizon, true);
        // Every debug-build simulation checks conservation once per
        // phase: the credit loop and the incremental counters against
        // from-scratch recomputations (O(state), so release builds skip
        // it).
        #[cfg(debug_assertions)]
        if let Err(e) = self
            .verify_credit_round_trip()
            .and_then(|()| self.verify_occupancy_counters())
        {
            panic!("engine invariant violated at cycle {}: {e}", self.now);
        }
        let m = &self.m;
        let active = self.pattern.num_active().max(1) as f64;
        let drained = m.sample_ejected >= m.sample_generated;
        let mcycles = self.cfg.measure as f64;
        let mut max_util = 0.0f64;
        let mut sum_util = 0.0f64;
        for &c in &self.link_flits {
            let u = c as f64 / mcycles;
            max_util = max_util.max(u);
            sum_util += u;
        }
        let nlinks = self.link_flits.len();
        SimResult {
            offered_load: self.load,
            packet_size: self.cfg.packet_size,
            avg_latency: m.stats.mean(),
            p99_latency: m.stats.quantile(0.99).map(|v| v as f64).unwrap_or(f64::NAN),
            avg_head_latency: if m.head_ejected == 0 {
                f64::NAN
            } else {
                m.head_lat_sum as f64 / m.head_ejected as f64
            },
            accepted: m.window_ejected as f64 / (active * mcycles),
            ejected: m.total_ejected,
            ejected_flits: m.total_ejected_flits,
            saturated: !drained,
            avg_hops: if m.sample_ejected == 0 {
                f64::NAN
            } else {
                m.hops_sum as f64 / m.sample_ejected as f64
            },
            max_link_util: max_util,
            mean_link_util: if nlinks == 0 {
                0.0
            } else {
                sum_util / nlinks as f64
            },
            cycles: self.now - phase_start,
        }
    }
}

/// Load-sweep helpers: per-load seeding and the warm-start chain.
/// Parallelism across load points belongs to the job scheduler
/// (`slimfly::schedule`), not to this crate.
pub struct LoadSweep;

impl LoadSweep {
    /// Per-load seed used by every sweep driver (cold and warm): the
    /// base seed perturbed by the offered load, so each load point
    /// draws an independent, reproducible stream.
    pub fn seed_for_load(cfg: &SimConfig, load: f64) -> u64 {
        cfg.seed.wrapping_add((load * 1e4) as u64)
    }

    /// Runs `loads` **sequentially on one warm simulator**: the first
    /// load starts cold (bit-identical to a fresh [`Simulator`] seeded
    /// with [`LoadSweep::seed_for_load`]), every later load re-arms the same simulator
    /// ([`Simulator::rearm`]), reusing the warmed queue state instead
    /// of re-warming from empty. Results for the later loads are close
    /// to, but not bit-identical with, their cold equivalents — sweep
    /// drivers expose this behind an explicit `warm_start` opt-in.
    pub fn run_warm(
        net: &Network,
        tables: &RoutingTables,
        router: &dyn Router,
        pattern: &TrafficPattern,
        loads: &[f64],
        cfg: SimConfig,
    ) -> Vec<SimResult> {
        let mut out = Vec::with_capacity(loads.len());
        let mut sim: Option<Simulator> = None;
        for &load in loads {
            let seed = Self::seed_for_load(&cfg, load);
            match sim.as_mut() {
                None => {
                    let mut c = cfg;
                    c.seed = seed;
                    sim = Some(Simulator::new(net, tables, router, pattern, load, c));
                }
                Some(s) => s.rearm(load, seed),
            }
            out.push(
                sim.as_mut()
                    .expect("sim is constructed on the first iteration")
                    .run_phase(),
            );
        }
        out
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sf_routing::{
        AdaptiveEcmpRouter, FatPathsRouter, MinRouter, RoutingSpec, UgalRouter, ValiantRouter,
    };
    use sf_topo::SlimFly;
    use sf_traffic::TrafficSpec;

    fn small_sf() -> (Network, RoutingTables) {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network(); // 50 routers, p=4, N=200
        let tables = RoutingTables::new(&net.graph);
        (net, tables)
    }

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 300,
            measure: 600,
            drain: 2_000,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn zero_load_no_packets() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &MinRouter, &pat, 0.0, quick_cfg(1)).run();
        assert_eq!(r.ejected, 0);
        assert!(!r.saturated);
    }

    #[test]
    fn low_load_low_latency_all_drained() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, quick_cfg(2)).run();
        assert!(!r.saturated, "10% load must not saturate a balanced SF");
        assert!(r.ejected > 0);
        // Zero-load-ish latency: ≤ 2 hops × (router 3 + wire 1) + inject
        // + eject ≈ ≤ 20 cycles at 10% load.
        assert!(
            r.avg_latency < 20.0,
            "latency {} too high for 10% load",
            r.avg_latency
        );
        // Average hops ≤ diameter 2 (+ tiny adaptive noise).
        assert!(r.avg_hops <= 2.01, "hops = {}", r.avg_hops);
        assert!(r.avg_hops >= 1.0);
    }

    #[test]
    fn min_beats_valiant_latency_uniform() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let rmin = Simulator::new(&net, &tables, &MinRouter, &pat, 0.2, quick_cfg(3)).run();
        let rval = Simulator::new(
            &net,
            &tables,
            &ValiantRouter { cap3: false },
            &pat,
            0.2,
            quick_cfg(3),
        )
        .run();
        assert!(
            rmin.avg_latency < rval.avg_latency,
            "MIN {} must beat VAL {} at low uniform load",
            rmin.avg_latency,
            rval.avg_latency
        );
        assert!(rval.avg_hops > rmin.avg_hops);
    }

    #[test]
    fn valiant_saturates_below_half() {
        // §V-A: VAL doubles link pressure — saturates < 50% load.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(
            &net,
            &tables,
            &ValiantRouter { cap3: false },
            &pat,
            0.85,
            quick_cfg(4),
        )
        .run();
        assert!(
            r.saturated || r.accepted < 0.7,
            "VAL at 85% offered must saturate (accepted {})",
            r.accepted
        );
    }

    #[test]
    fn min_sustains_high_uniform_load() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &MinRouter, &pat, 0.6, quick_cfg(5)).run();
        assert!(
            r.accepted > 0.5,
            "MIN at 60% offered should accept most traffic, got {}",
            r.accepted
        );
    }

    #[test]
    fn ugal_variants_run_and_adapt() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        for global in [false, true] {
            let router = UgalRouter::new(4, global).unwrap();
            let r = Simulator::new(&net, &tables, &router, &pat, 0.3, quick_cfg(6)).run();
            assert!(!r.saturated, "{} must not saturate at 30%", router.label());
            // UGAL should mostly choose minimal paths under uniform load.
            assert!(r.avg_hops < 2.5, "{} hops = {}", router.label(), r.avg_hops);
        }
    }

    #[test]
    fn worst_case_crushes_min_but_not_ugal() {
        let (net, tables) = small_sf();
        let pat = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        let cfg = quick_cfg(7);
        let rmin = Simulator::new(&net, &tables, &MinRouter, &pat, 0.4, cfg).run();
        assert!(
            rmin.saturated || rmin.accepted < 0.35,
            "MIN must collapse under worst-case traffic, accepted {}",
            rmin.accepted
        );
        let ugal = UgalRouter::new(4, false).unwrap();
        let rugal = Simulator::new(&net, &tables, &ugal, &pat, 0.25, cfg).run();
        assert!(
            rugal.accepted > rmin.accepted * 0.9,
            "UGAL-L {} should sustain ≥ MIN {} under adversarial load",
            rugal.accepted,
            rmin.accepted
        );
    }

    #[test]
    fn fattree_adaptive_ecmp_works() {
        let ft = sf_topo::fattree::FatTree3 { p: 4, full: false };
        let net = ft.network();
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let r = Simulator::new(&net, &tables, &AdaptiveEcmpRouter, &pat, 0.3, quick_cfg(8)).run();
        assert!(!r.saturated);
        assert!(r.ejected > 0);
        // FT-3 paths are up to 4 router hops.
        assert!(r.avg_hops <= 4.0);
    }

    #[test]
    fn hypercube_bit_reversal_concentrates_min_but_not_adaptive() {
        // The dimension-reversal adversary: at equal accepted load, MIN
        // funnels the half-swap pairs through the middle subcube (hot
        // links near saturation) while per-hop adaptive ECMP spreads
        // the same demand over the minimal DAG.
        let hc = sf_topo::hypercube::Hypercube::new(8);
        let net = hc.network();
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        let uniform = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(14);
        cfg.num_vcs = 10; // diameter-8 paths need one VC per hop
        let m_worst = Simulator::new(&net, &tables, &MinRouter, &worst, 0.7, cfg).run();
        let m_unif = Simulator::new(&net, &tables, &MinRouter, &uniform, 0.7, cfg).run();
        assert!(
            m_worst.max_link_util > m_unif.max_link_util * 1.5,
            "bit reversal must concentrate MIN traffic: worst {} vs uniform {}",
            m_worst.max_link_util,
            m_unif.max_link_util
        );
        let a_worst = Simulator::new(&net, &tables, &AdaptiveEcmpRouter, &worst, 0.7, cfg).run();
        assert!(
            a_worst.max_link_util < m_worst.max_link_util * 0.85,
            "per-hop adaptive must spread the adversary: ANCA {} vs MIN {}",
            a_worst.max_link_util,
            m_worst.max_link_util
        );
    }

    #[test]
    fn longhop_farthest_translate_stresses_min() {
        // The farthest-translate adversary pairs every router with its
        // maximal-distance XOR offset — by construction the translate
        // the long-hop masks do *not* shortcut — so at equal offered
        // load MIN carries strictly more flits per channel (more hops
        // per packet, concentrated on the few generator classes the
        // minimal routes use) than under uniform traffic.
        let lh = sf_topo::longhop::LongHop::new(6, 3);
        let net = lh.network();
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        let uniform = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(15);
        cfg.num_vcs = 6;
        let m_worst = Simulator::new(&net, &tables, &MinRouter, &worst, 0.5, cfg).run();
        let m_unif = Simulator::new(&net, &tables, &MinRouter, &uniform, 0.5, cfg).run();
        assert!(
            m_worst.avg_hops > m_unif.avg_hops,
            "every adversarial pair sits at the eccentricity: worst {} vs uniform {} hops",
            m_worst.avg_hops,
            m_unif.avg_hops
        );
        assert!(
            m_worst.max_link_util > m_unif.max_link_util * 1.3,
            "the translate must concentrate MIN traffic: worst {} vs uniform {}",
            m_worst.max_link_util,
            m_unif.max_link_util
        );
    }

    #[test]
    fn dln_farthest_pairs_crush_min_but_not_ugal() {
        // The farthest-pair matching concentrates MIN's long routes on
        // the few shared shortcut links (near-saturated hot channels at
        // 30% load, collapse by 50%), while UGAL detours keep carrying
        // the offered load.
        let dln = sf_topo::random_dln::RandomDln::new(64, 4, 7);
        let net = dln.network();
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        let uniform = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(31);
        cfg.num_vcs = 6; // Valiant detours on a diameter-4 instance
        let m_worst = Simulator::new(&net, &tables, &MinRouter, &worst, 0.3, cfg).run();
        let m_unif = Simulator::new(&net, &tables, &MinRouter, &uniform, 0.3, cfg).run();
        assert!(
            m_worst.max_link_util > m_unif.max_link_util * 1.5,
            "the matching must concentrate MIN traffic: worst {} vs uniform {}",
            m_worst.max_link_util,
            m_unif.max_link_util
        );
        let m_hi = Simulator::new(&net, &tables, &MinRouter, &worst, 0.5, cfg).run();
        assert!(
            m_hi.saturated || m_hi.accepted < 0.45,
            "MIN must collapse under the DLN adversary, accepted {}",
            m_hi.accepted
        );
        let ugal = UgalRouter::new(4, false).unwrap();
        let a_hi = Simulator::new(&net, &tables, &ugal, &worst, 0.5, cfg).run();
        assert!(
            !a_hi.saturated && a_hi.accepted > m_hi.accepted,
            "UGAL-L must sustain the adversarial load: {} vs MIN {}",
            a_hi.accepted,
            m_hi.accepted
        );
    }

    #[test]
    fn bdf_distance2_pairs_crush_min_but_not_ugal() {
        // The polarity-graph adversary: every pair's minimal paths
        // funnel through a single middle router (two polars meet in one
        // point), so MIN saturates near 1/(p+1) while UGAL detours
        // around the shared middles.
        let plane = sf_topo::bdf::ProjectivePlaneGraph::new(5).unwrap();
        let net = plane.network(3);
        let tables = RoutingTables::new(&net.graph);
        let worst = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        let cfg = quick_cfg(32);
        let rmin = Simulator::new(&net, &tables, &MinRouter, &worst, 0.3, cfg).run();
        assert!(
            rmin.saturated || rmin.accepted < 0.28,
            "MIN must collapse under the BDF adversary, accepted {}",
            rmin.accepted
        );
        let ugal = UgalRouter::new(4, false).unwrap();
        let rugal = Simulator::new(&net, &tables, &ugal, &worst, 0.3, cfg).run();
        assert!(
            !rugal.saturated && rugal.accepted > 0.28,
            "UGAL-L must sustain the adversarial load: accepted {}",
            rugal.accepted
        );
    }

    #[test]
    fn multi_flit_serialization_raises_zero_load_latency() {
        // At near-zero load a size-S packet's tail trails the head by
        // exactly S − 1 cycles (1 flit/cycle at the ejection port), so
        // packet latency rises by S − 1 versus the single-flit engine
        // while head latency stays put.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg1 = quick_cfg(21);
        cfg1.packet_size = 1;
        let r1 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.02, cfg1).run();
        let mut cfg4 = cfg1;
        cfg4.packet_size = 4;
        let r4 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.02, cfg4).run();
        assert!(!r1.saturated && !r4.saturated);
        assert!(
            r4.avg_latency > r1.avg_latency + 2.0,
            "serialization must show: size 4 {} vs size 1 {}",
            r4.avg_latency,
            r1.avg_latency
        );
        // Head flits see the same contention-free pipeline.
        assert!(
            (r4.avg_head_latency - r1.avg_head_latency).abs() < 1.5,
            "head latency {} vs {}",
            r4.avg_head_latency,
            r1.avg_head_latency
        );
        // The tail trails the head by at least S − 1 cycles.
        assert!(r4.avg_latency - r4.avg_head_latency >= 3.0 - 1e-9);
        assert_eq!(r4.packet_size, 4);
        // Packets cut off by the horizon may have ejected a head
        // without a tail, never the reverse.
        assert!(r4.ejected_flits >= r4.ejected * 4);
    }

    #[test]
    fn multi_flit_saturates_earlier_under_hol_blocking() {
        // Same offered *flit* load, bigger packets: wormhole VC
        // ownership and head-of-line blocking cost throughput, so the
        // size-8 run accepts less at high load than the size-1 run.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(22);
        cfg.packet_size = 1;
        let r1 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.85, cfg).run();
        cfg.packet_size = 8;
        let r8 = Simulator::new(&net, &tables, &MinRouter, &pat, 0.85, cfg).run();
        assert!(
            r8.accepted < r1.accepted,
            "size 8 accepted {} must trail size 1 {} at 85% offered",
            r8.accepted,
            r1.accepted
        );
    }

    #[test]
    fn wormhole_credit_loop_validates_mid_run() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let router = UgalRouter::new(4, false).unwrap();
        let mut cfg = quick_cfg(23);
        cfg.packet_size = 4;
        let mut sim = Simulator::new(&net, &tables, &router, &pat, 0.4, cfg);
        for _ in 0..300 {
            sim.step();
        }
        sim.verify_credit_round_trip().unwrap();
        sim.verify_occupancy_counters().unwrap();
        // Quiet the sources: the wormhole state must fully unwind.
        sim.rearm(0.0, 99);
        for _ in 0..5_000 {
            sim.step();
            if sim.verify_quiescent().is_ok() {
                break;
            }
        }
        sim.verify_quiescent().unwrap();
    }

    #[test]
    #[should_panic(expected = "packet_size")]
    fn zero_packet_size_is_rejected() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        cfg.packet_size = 0;
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    #[should_panic(expected = "u32 cycle clock")]
    fn run_window_past_the_cycle_clock_is_rejected() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        cfg.warmup = u32::MAX;
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    #[should_panic(expected = "router_delay + channel_latency must be at most 4096 cycles")]
    fn per_hop_delay_past_the_bound_is_rejected() {
        // The u32 sum would wrap to a one-cycle hop.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        (cfg.channel_latency, cfg.router_delay) = (u32::MAX, 1);
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    #[should_panic(expected = "credit_delay must be at most 4096 cycles")]
    fn credit_delay_past_the_bound_is_rejected() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        cfg.credit_delay = MAX_DELAY + 1;
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    #[should_panic(expected = "output_speedup must be at most 4096")]
    fn speedup_past_the_bound_is_rejected() {
        // 2^32 iterations would cast to zero and grant nothing.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        cfg.output_speedup = u32::MAX as usize + 1;
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    #[should_panic(expected = "measure must be at least 1 cycle")]
    fn empty_measurement_window_is_rejected() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut cfg = quick_cfg(24);
        cfg.measure = 0;
        let _ = Simulator::new(&net, &tables, &MinRouter, &pat, 0.1, cfg);
    }

    #[test]
    fn deterministic_given_seed() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let a = Simulator::new(&net, &tables, &MinRouter, &pat, 0.25, quick_cfg(9)).run();
        let b = Simulator::new(&net, &tables, &MinRouter, &pat, 0.25, quick_cfg(9)).run();
        assert_eq!(a.ejected, b.ejected);
        assert_eq!(a.avg_latency, b.avg_latency);
    }

    #[test]
    fn fatpaths_runs_end_to_end_and_spreads_load() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let fp = FatPathsRouter::build(&net.graph, &tables, 3, sf_routing::router::FATPATHS_SEED)
            .unwrap();
        let r = Simulator::new(&net, &tables, &fp, &pat, 0.2, quick_cfg(11)).run();
        assert!(!r.saturated, "FatPaths at 20% uniform must drain");
        assert!(r.ejected > 0);
        // Degraded layers detour: average hops above pure MIN but
        // bounded by the layer budget.
        let rmin = Simulator::new(&net, &tables, &MinRouter, &pat, 0.2, quick_cfg(11)).run();
        assert!(r.avg_hops >= rmin.avg_hops);
        assert!(r.avg_hops <= sf_routing::router::FATPATHS_MAX_LAYER_HOPS as f64);
    }

    #[test]
    fn spec_built_router_matches_direct_construction() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let spec: RoutingSpec = "ugal-l:c=4".parse().unwrap();
        let built = spec.build(&net.graph, &tables).unwrap();
        let direct = UgalRouter::new(4, false).unwrap();
        let a = Simulator::new(&net, &tables, built.as_ref(), &pat, 0.3, quick_cfg(12)).run();
        let b = Simulator::new(&net, &tables, &direct, &pat, 0.3, quick_cfg(12)).run();
        assert_eq!(a.ejected, b.ejected);
        assert_eq!(a.avg_latency, b.avg_latency);
    }

    #[test]
    fn link_index_matches_graph_adjacency() {
        let (net, _) = small_sf();
        let links = LinkIndex::new(&net);
        for r in 0..net.num_routers() as u32 {
            for (j, &v) in net.graph.neighbors(r).iter().enumerate() {
                let l = links.link(r, v) as usize;
                assert_eq!(l, links.link_base[r as usize] as usize + j);
                assert_eq!(links.to[l], v);
                // The reverse link points back at r from v's row.
                let rl = links.rev[l] as usize;
                assert_eq!(links.to[rl], r);
                assert_eq!(links.rev[rl] as usize, l);
                // to_port is v's input-port (= neighbor) index for r.
                assert_eq!(net.graph.neighbors(v)[links.to_port[l] as usize], r);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn link_index_panics_on_non_neighbor() {
        let (net, _) = small_sf();
        let links = LinkIndex::new(&net);
        let r = 0u32;
        let non = (0..net.num_routers() as u32)
            .find(|&v| v != r && !net.graph.has_edge(r, v))
            .unwrap();
        links.link(r, non);
    }

    #[test]
    fn occupancy_counters_hold_during_a_run() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let router = UgalRouter::new(4, true).unwrap();
        let mut sim = Simulator::new(&net, &tables, &router, &pat, 0.3, quick_cfg(13));
        for _ in 0..200 {
            sim.step();
        }
        sim.verify_occupancy_counters().unwrap();
    }

    #[test]
    fn warm_chain_first_load_matches_cold_run() {
        // The first load of a warm chain starts cold, so it must be
        // bit-identical to the plain per-load path; later loads reuse
        // warmed queues and must still produce sane, drained results.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let loads = [0.1, 0.2, 0.3];
        let cfg = quick_cfg(7);
        let cold: Vec<SimResult> = loads
            .iter()
            .map(|&load| {
                let c = SimConfig {
                    seed: LoadSweep::seed_for_load(&cfg, load),
                    ..cfg
                };
                Simulator::new(&net, &tables, &MinRouter, &pat, load, c).run()
            })
            .collect();
        let warm = LoadSweep::run_warm(&net, &tables, &MinRouter, &pat, &loads, cfg);
        assert_eq!(warm.len(), 3);
        assert_eq!(cold[0].avg_latency, warm[0].avg_latency);
        assert_eq!(cold[0].ejected, warm[0].ejected);
        assert_eq!(cold[0].cycles, warm[0].cycles);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.offered_load, w.offered_load);
            assert!(!w.saturated, "warm chain must drain at low loads");
            assert!(w.ejected > 0);
            // Warm steady-state latency stays in the same regime as the
            // cold measurement (loose envelope: it skips the cold ramp,
            // not the physics).
            assert!(
                (w.avg_latency - c.avg_latency).abs() < 0.2 * c.avg_latency,
                "load {}: warm {} vs cold {}",
                c.offered_load,
                w.avg_latency,
                c.avg_latency
            );
        }
    }

    #[test]
    fn rearm_resets_measurement_but_keeps_queues() {
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let mut sim = Simulator::new(&net, &tables, &MinRouter, &pat, 0.4, quick_cfg(8));
        let first = sim.run_phase();
        assert!(first.ejected > 0);
        let cycles_so_far = sim.now();
        sim.rearm(0.1, 42);
        assert_eq!(sim.now(), cycles_so_far, "rearm must not advance time");
        sim.verify_occupancy_counters().unwrap();
        let second = sim.run_phase();
        assert_eq!(second.offered_load, 0.1);
        assert!(second.ejected > 0);
        assert!(!second.saturated);
    }

    #[test]
    fn boot_degraded_network_runs_fault_free() {
        // A boot-time degraded Network (dead router: no cables, no
        // endpoints) is just a smaller network to the engine: a normal
        // drain.
        let (net, _) = small_sf();
        let kill = sf_graph::fault::kill_set(
            &net.graph,
            0.01,
            0.03,
            7,
            sf_graph::fault::FaultMode::Random,
        );
        assert!(!kill.routers.is_empty());
        let dnet = net.degrade(&kill, " [test]").unwrap();
        assert!(dnet.degraded);
        assert!(dnet.num_endpoints() < net.num_endpoints());
        let dt = RoutingTables::new(&dnet.graph);
        let pat = TrafficPattern::uniform(dnet.num_endpoints() as u32);
        let r = Simulator::new(&dnet, &dt, &MinRouter, &pat, 0.2, quick_cfg(48)).run();
        assert!(!r.saturated);
        assert!(r.ejected > 0);
    }

    #[test]
    fn one_flit_vcs_and_zero_staging_match_the_growable_queues() {
        // Ring capacities come from the plan. One-flit VCs
        // (buf_per_port below num_vcs) and zero-depth staging must run
        // exactly as the growable queues did: at engine epoch 2 the
        // pinned values matched the engine before input buffers and
        // staging became rings; these are their epoch-3 captures.
        let (net, tables) = small_sf();
        let pat = TrafficPattern::uniform(net.num_endpoints() as u32);
        let tiny = SimConfig {
            buf_per_port: 3,
            packet_size: 2,
            ..quick_cfg(51)
        };
        let r = Simulator::new(&net, &tables, &MinRouter, &pat, 0.3, tiny).run();
        assert_eq!(
            (
                r.ejected,
                r.ejected_flits,
                r.cycles,
                r.avg_latency.to_bits()
            ),
            (38_504, 77_089, 2_406, 0x4081_63ad_d9ed_1e6b)
        );
        assert!(!r.saturated);
        // Nothing stages, so no flit ever crosses a link: only packets
        // between endpoints of one router, at the front of their
        // injection queue, eject.
        let nostage = SimConfig {
            output_queue_cap: 0,
            ..quick_cfg(52)
        };
        let mut sim = Simulator::new(&net, &tables, &MinRouter, &pat, 0.2, nostage);
        let r = sim.run_phase();
        assert_eq!((r.ejected, r.ejected_flits, r.cycles), (2, 2, 2_900));
        assert!(r.saturated && r.avg_latency.is_nan());
        assert_eq!(r.max_link_util, 0.0);
        sim.verify_credit_round_trip().unwrap();
    }

    fn flit(n: u32) -> Flit {
        Flit {
            pkt: n,
            seq: n as u16,
            hop: (n % 7) as u8,
            vc: (n % 3) as u8,
        }
    }

    /// Asserts every ring of `rings` holds exactly what its `VecDeque`
    /// reference holds, front to back.
    fn assert_rings_match(rings: &Rings, reference: &[VecDeque<Flit>]) {
        for (q, want) in reference.iter().enumerate() {
            assert_eq!(rings.len(q), want.len(), "ring {q}");
            assert_eq!(rings.is_empty(q), want.is_empty(), "ring {q}");
            assert_eq!(rings.front(q), want.front().copied(), "ring {q}");
            assert!(rings.iter(q).eq(want.iter().copied()), "ring {q}");
        }
    }

    #[test]
    fn rings_match_a_vecdeque_reference() {
        // Wrap-around and a full ring, step by step: three pushes and
        // two pops move the front of ring 1 to index 2, four more pushes
        // wrap past the end and fill it, and draining empties it in
        // order. Its neighbours stay untouched throughout.
        let mut rings = Rings::new(3, 4);
        let mut reference = vec![VecDeque::new(); 3];
        rings.push(0, flit(100));
        reference[0].push_back(flit(100));
        for n in 0..3 {
            rings.push(1, flit(n));
            reference[1].push_back(flit(n));
        }
        for _ in 0..2 {
            assert_eq!(rings.pop(1), reference[1].pop_front());
        }
        for n in 3..6 {
            rings.push(1, flit(n));
            reference[1].push_back(flit(n));
            assert_rings_match(&rings, &reference);
        }
        assert_eq!(rings.len(1), 4, "ring 1 is full");
        assert_rings_match(&rings, &reference);
        while let Some(f) = reference[1].pop_front() {
            assert_eq!(rings.pop(1), Some(f));
            assert_rings_match(&rings, &reference);
        }
        assert_eq!(rings.pop(1), None);
        assert_eq!(rings.pop(2), None);

        // A long pseudo-random mix of pushes and pops over every ring,
        // each push only where the reference is below capacity.
        let mut x = 0x5EED_u64;
        for n in 0..5_000u32 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let q = (x >> 33) as usize % 3;
            if (x >> 20) & 3 != 0 && reference[q].len() < 4 {
                rings.push(q, flit(n));
                reference[q].push_back(flit(n));
            } else {
                assert_eq!(rings.pop(q), reference[q].pop_front());
            }
            assert_rings_match(&rings, &reference);
        }

        // Zero capacity (`output_queue_cap = 0`): always empty.
        let empty = Rings::new(2, 0);
        assert_eq!((empty.count(), empty.len(1), empty.front(1)), (2, 0, None));
    }

    #[test]
    #[should_panic(expected = "ring 1 is full")]
    fn ring_overflow_asserts() {
        let mut rings = Rings::new(2, 2);
        for n in 0..3 {
            rings.push(1, flit(n));
        }
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn zero_capacity_ring_rejects_a_push() {
        Rings::new(1, 0).push(0, flit(0));
    }

    #[test]
    fn gather_segment_handles_word_boundaries() {
        let mask = [0b1010u64, !0u64, 1u64];
        let mut out = Vec::new();
        gather_segment(&mask, 0, 192, &mut out);
        let expect: Vec<u32> = [1u32, 3].into_iter().chain(64..128).chain([128]).collect();
        assert_eq!(out, expect);
        out.clear();
        gather_segment(&mask, 3, 65, &mut out);
        assert_eq!(out, vec![3, 64]);
        out.clear();
        gather_segment(&mask, 4, 4, &mut out);
        assert!(out.is_empty());
        out.clear();
        gather_segment(&mask, 120, 130, &mut out);
        assert_eq!(out, vec![120, 121, 122, 123, 124, 125, 126, 127, 128]);
    }
}
