//! Property-based tests for the simulator: conservation laws and
//! determinism that must hold for every configuration.

use proptest::prelude::*;
use sf_routing::{RoutingSpec, RoutingTables};
use sf_sim::{SimConfig, Simulator};
use sf_topo::SlimFly;
use sf_traffic::TrafficPattern;

fn quick_cfg(seed: u64, vcs: usize, buf: usize) -> SimConfig {
    SimConfig {
        num_vcs: vcs,
        buf_per_port: buf,
        warmup: 100,
        measure: 300,
        drain: 1_500,
        ..Default::default()
    }
    .with_seed(seed)
}

fn packet_cfg(seed: u64, vcs: usize, packet_size: usize) -> SimConfig {
    SimConfig {
        packet_size,
        ..quick_cfg(seed, vcs, 64)
    }
}

trait WithSeed {
    fn with_seed(self, seed: u64) -> Self;
}
impl WithSeed for SimConfig {
    fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conservation_and_sanity(
        load in 0.05f64..0.5,
        seed in 0u64..500,
        vcs in 3usize..6,
        algo_idx in 0usize..5,
    ) {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let spec: RoutingSpec = ["min", "val", "ugal-l:c=4", "ugal-g:c=4", "fatpaths:layers=3"][algo_idx]
            .parse()
            .unwrap();
        let router = spec.build(&net.graph, &tables).unwrap();
        let res = Simulator::new(&net, &tables, router.as_ref(), &pattern, load, quick_cfg(seed, vcs, 64)).run();
        // Accepted throughput can never exceed offered (up to Bernoulli noise).
        prop_assert!(res.accepted <= load * 1.25 + 0.05, "accepted {} offered {load}", res.accepted);
        // Latency (when measured) is at least the minimum pipeline time.
        if !res.avg_latency.is_nan() {
            prop_assert!(res.avg_latency >= 1.0);
        }
        // Hop counts bounded by the Valiant worst case on diameter 2
        // (FatPaths detours stay within the layer hop budget).
        if !res.avg_hops.is_nan() {
            let bound = if router.label().starts_with("FatPaths") { 9.0 } else { 4.0 };
            prop_assert!(res.avg_hops <= bound + 1e-9, "{} hops {}", router.label(), res.avg_hops);
        }
        // Utilization is a fraction of cycles.
        prop_assert!(res.max_link_util <= 1.0 + 1e-9);
        prop_assert!(res.mean_link_util <= res.max_link_util + 1e-9);
    }

    #[test]
    fn incremental_occupancy_matches_recomputation(
        load in 0.05f64..0.6,
        seed in 0u64..500,
        vcs in 3usize..6,
        algo_idx in 0usize..6,
        batches in proptest::collection::vec(1usize..40, 1..6),
    ) {
        // After any random step sequence, every link's incremental
        // occupancy counter must equal the from-scratch recomputation
        // (staged flits + credits in use), and the active-set
        // bookkeeping (bitmasks, buffered counters) must match the
        // queues — for every routing scheme, including the per-hop
        // adaptive one.
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let spec: RoutingSpec =
            ["min", "val", "ugal-l:c=4", "ugal-g:c=4", "fatpaths:layers=3", "ecmp"][algo_idx]
                .parse()
                .unwrap();
        let router = spec.build(&net.graph, &tables).unwrap();
        let mut sim = Simulator::new(
            &net,
            &tables,
            router.as_ref(),
            &pattern,
            load,
            quick_cfg(seed, vcs, 64),
        );
        for steps in batches {
            for _ in 0..steps {
                sim.step();
            }
            if let Err(e) = sim.verify_occupancy_counters() {
                prop_assert!(false, "{} after {} cycles: {e}", router.label(), sim.now());
            }
        }
    }

    #[test]
    fn credit_round_trip_holds_across_routings_and_packet_sizes(
        load in 0.05f64..0.6,
        seed in 0u64..500,
        vcs in 3usize..6,
        algo_idx in 0usize..6,
        size_idx in 0usize..4,
        batches in proptest::collection::vec(1usize..40, 1..6),
    ) {
        // The wormhole credit loop: after any random step sequence,
        // every consumed credit must be accounted for exactly once
        // (staged, on the wire, buffered downstream, or returning
        // upstream) and the per-VC head/tail allocation tables must
        // stay a bijection — for every routing scheme × packet size.
        // Then, once the sources go quiet, the network must drain to
        // the exact reset state: all credits home, all reservations
        // released by tails (a leaked credit or allocation would strand
        // flits or pin a VC forever).
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let spec: RoutingSpec =
            ["min", "val", "ugal-l:c=4", "ugal-g:c=4", "fatpaths:layers=3", "ecmp"][algo_idx]
                .parse()
                .unwrap();
        let packet_size = [1usize, 2, 4, 7][size_idx];
        let router = spec.build(&net.graph, &tables).unwrap();
        let mut sim = Simulator::new(
            &net,
            &tables,
            router.as_ref(),
            &pattern,
            load,
            packet_cfg(seed, vcs, packet_size),
        );
        for steps in batches {
            for _ in 0..steps {
                sim.step();
            }
            if let Err(e) = sim.verify_credit_round_trip() {
                prop_assert!(false, "{} size {packet_size} after {} cycles: {e}",
                    router.label(), sim.now());
            }
            if let Err(e) = sim.verify_occupancy_counters() {
                prop_assert!(false, "{} size {packet_size} after {} cycles: {e}",
                    router.label(), sim.now());
            }
        }
        // Quiet the sources and drain: every credit must come home and
        // every tail must have released its reservation.
        sim.rearm(0.0, seed);
        for _ in 0..20_000 {
            sim.step();
            if sim.verify_quiescent().is_ok() {
                break;
            }
        }
        if let Err(e) = sim.verify_quiescent() {
            prop_assert!(false, "{} size {packet_size}: failed to drain: {e}",
                router.label());
        }
    }

    #[test]
    fn multi_flit_conservation_and_sanity(
        load in 0.05f64..0.4,
        seed in 0u64..500,
        size_idx in 0usize..3,
    ) {
        // Multi-flit runs obey the same conservation laws: accepted
        // flit throughput never exceeds offered, packet latency is at
        // least the head pipeline time plus the serialization tail,
        // and the head-vs-packet latency gap is at least packet_size−1
        // cycles (the tail cannot overtake the head).
        let packet_size = [2usize, 4, 8][size_idx];
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let res = Simulator::new(
            &net,
            &tables,
            &sf_routing::MinRouter,
            &pattern,
            load,
            packet_cfg(seed, 4, packet_size),
        )
        .run();
        prop_assert!(res.accepted <= load * 1.25 + 0.05,
            "accepted {} offered {load}", res.accepted);
        prop_assert_eq!(res.packet_size, packet_size);
        // Every counted packet (tail) ejected all its flits first;
        // packets still in flight at the horizon may have ejected a
        // head without a tail.
        prop_assert!(res.ejected_flits >= res.ejected * packet_size as u64,
            "flits {} vs {} packets of {packet_size}", res.ejected_flits, res.ejected);
        if !res.avg_latency.is_nan() {
            prop_assert!(res.avg_latency >= res.avg_head_latency + packet_size as f64 - 1.0 - 1e-9,
                "packet latency {} vs head {} at size {packet_size}",
                res.avg_latency, res.avg_head_latency);
        }
        prop_assert!(res.max_link_util <= 1.0 + 1e-9);
    }

    #[test]
    fn boot_degraded_networks_conserve_credits_and_quiesce(
        load in 0.05f64..0.25,
        seed in 0u64..200,
        kill_seed in 0u64..50,
        frac_idx in 0usize..3,
        algo_idx in 0usize..5,
        size_idx in 0usize..3,
    ) {
        // Random kill-sets × routings × packet sizes on a network
        // degraded at boot: the phase must drain, the credit loop and
        // the occupancy counters must balance, and quieting the sources
        // must return the engine to its exact reset state.
        use sf_graph::fault::{kill_set, FaultMode};
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let frac = [0.01, 0.03, 0.05][frac_idx];
        let kill = kill_set(&net.graph, frac, 0.0, kill_seed, FaultMode::Random);
        prop_assert!(!kill.links.is_empty());
        // A kill-set that partitions the live routers is a boot refusal,
        // not a network to simulate.
        let Ok(dnet) = net.degrade(&kill, " [kill]") else {
            continue;
        };
        let tables = RoutingTables::new(&dnet.graph);
        let pattern = TrafficPattern::uniform(dnet.num_endpoints() as u32);
        let spec: RoutingSpec =
            ["min", "val", "ugal-l:c=4", "ugal-g:c=4", "fatpaths:layers=3"][algo_idx]
                .parse()
                .unwrap();
        let packet_size = [1usize, 3, 5][size_idx];
        // A policy that cannot be built on the degraded graph (FatPaths
        // on an unlucky cut) falls back to MIN, as plan runs do.
        let router = spec
            .build(&dnet.graph, &tables)
            .unwrap_or(Box::new(sf_routing::MinRouter));
        let mut sim = Simulator::new(
            &dnet,
            &tables,
            router.as_ref(),
            &pattern,
            load,
            packet_cfg(seed, 5, packet_size),
        );
        let phase = sim.run_phase();
        prop_assert!(!phase.saturated, "{} frac {frac} must drain", router.label());
        if let Err(e) = sim.verify_credit_round_trip() {
            prop_assert!(false, "{} frac {frac}: {e}", router.label());
        }
        if let Err(e) = sim.verify_occupancy_counters() {
            prop_assert!(false, "{} frac {frac}: {e}", router.label());
        }
        sim.rearm(0.0, seed ^ 0xDEAD);
        for _ in 0..20_000 {
            sim.step();
            if sim.verify_quiescent().is_ok() {
                break;
            }
        }
        if let Err(e) = sim.verify_quiescent() {
            prop_assert!(
                false,
                "{} size {packet_size} frac {frac}: failed to quiesce: {e}",
                router.label()
            );
        }
    }

    #[test]
    fn step_batches_rearm_and_phase_conserve_credits(
        load in 0.05f64..0.4,
        seed in 0u64..200,
        algo_idx in 0usize..6,
        size_idx in 0usize..2,
        batches in proptest::collection::vec(1usize..40, 1..5),
    ) {
        // Random step batches, then a rearm and a full measurement
        // phase: the occupancy counters and the credit round trip must
        // hold at every batch boundary and after the phase, for every
        // routing scheme (including the per-hop adaptive one) and for
        // wormhole packets.
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let spec: RoutingSpec =
            ["min", "val", "ugal-l:c=4", "ugal-g:c=4", "fatpaths:layers=3", "ecmp"][algo_idx]
                .parse()
                .unwrap();
        let packet_size = [1usize, 4][size_idx];
        let router = spec.build(&net.graph, &tables).unwrap();
        let mut sim = Simulator::new(
            &net,
            &tables,
            router.as_ref(),
            &pattern,
            load,
            packet_cfg(seed, 4, packet_size),
        );
        for steps in batches {
            for _ in 0..steps {
                sim.step();
            }
            if let Err(e) = sim.verify_occupancy_counters() {
                prop_assert!(false, "{} after {} cycles: {e}", router.label(), sim.now());
            }
            if let Err(e) = sim.verify_credit_round_trip() {
                prop_assert!(false, "{} after {} cycles: {e}", router.label(), sim.now());
            }
        }
        sim.rearm(load, seed ^ 0x5EED);
        sim.run_phase();
        if let Err(e) = sim.verify_credit_round_trip() {
            prop_assert!(false, "{} after phase: {e}", router.label());
        }
        if let Err(e) = sim.verify_occupancy_counters() {
            prop_assert!(false, "{} after phase: {e}", router.label());
        }
    }

    #[test]
    fn empty_kill_set_is_bit_identical_to_fault_free(
        load in 0.05f64..0.4,
        seed in 0u64..200,
    ) {
        // The zero-fault parity guard at the engine level: degrading by
        // an empty kill-set must leave the engine on its fault-free
        // path — results are bit-identical to a run that never heard of
        // faults.
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let kill = sf_graph::fault::KillSet::default();
        let dnet = net.degrade(&kill, " [noop]").unwrap();
        prop_assert!(!dnet.degraded);
        let tables = RoutingTables::new(&net.graph);
        let a = Simulator::new(&net, &tables, &sf_routing::MinRouter, &TrafficPattern::uniform(net.num_endpoints() as u32), load, quick_cfg(seed, 4, 64)).run();
        let dt = RoutingTables::new(&dnet.graph);
        let pat = TrafficPattern::uniform(dnet.num_endpoints() as u32);
        let b = Simulator::new(&dnet, &dt, &sf_routing::MinRouter, &pat, load, quick_cfg(seed, 4, 64)).run();
        prop_assert_eq!(a.ejected, b.ejected);
        prop_assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        prop_assert_eq!(a.accepted.to_bits(), b.accepted.to_bits());
    }

    #[test]
    fn determinism(load in 0.05f64..0.4, seed in 0u64..200) {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let a = Simulator::new(&net, &tables, &sf_routing::MinRouter, &pattern, load, quick_cfg(seed, 4, 64)).run();
        let b = Simulator::new(&net, &tables, &sf_routing::MinRouter, &pattern, load, quick_cfg(seed, 4, 64)).run();
        prop_assert_eq!(a.ejected, b.ejected);
        prop_assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        prop_assert_eq!(a.accepted.to_bits(), b.accepted.to_bits());
    }

    #[test]
    fn min_latency_non_decreasing_in_load(seed in 0u64..100) {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let lo = Simulator::new(&net, &tables, &sf_routing::MinRouter, &pattern, 0.1, quick_cfg(seed, 4, 64)).run();
        let hi = Simulator::new(&net, &tables, &sf_routing::MinRouter, &pattern, 0.55, quick_cfg(seed, 4, 64)).run();
        // Allow small noise at these short measurement windows.
        prop_assert!(hi.avg_latency + 3.0 >= lo.avg_latency,
            "lo {} hi {}", lo.avg_latency, hi.avg_latency);
    }

    #[test]
    fn min_routed_packets_take_min_hops(seed in 0u64..100) {
        let sf = SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let pattern = TrafficPattern::uniform(net.num_endpoints() as u32);
        let res = Simulator::new(&net, &tables, &sf_routing::MinRouter, &pattern, 0.15, quick_cfg(seed, 4, 64)).run();
        // Average hops equals the endpoint-weighted average distance
        // (≤ diameter 2) — MIN never detours.
        if !res.avg_hops.is_nan() {
            prop_assert!(res.avg_hops <= 2.0 + 1e-9);
            prop_assert!(res.avg_hops >= 1.5, "SF(q=5) average distance ≈ 1.83");
        }
    }
}
