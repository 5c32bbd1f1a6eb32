//! Engine-parity regression suite for the pluggable-routing refactor,
//! the multi-flit wormhole refactor and the sharded-engine refactor.
//!
//! The routing policies used to live as `match` arms inside the
//! simulator core; they are now `sf_routing::Router` trait impls behind
//! the engine's `QueueView` window. MIN / VAL / UGAL latency-vs-load
//! curves on `sf:q=5` must reproduce the values captured below (the
//! tolerances absorb only future benign engine changes, not behavioral
//! drift), and the paper's Fig 6 qualitative result — worst-case
//! traffic crushes MIN but not UGAL — must keep holding end to end.
//!
//! **Shard-RNG re-pin.** The sharded-engine refactor replaced the
//! single global RNG stream with one splitmix64-derived stream per
//! shard, keyed on `(seed, shard_id)`, so results are a pure function
//! of `(plan, seed)` independent of the thread count. The draw
//! *sequence* necessarily differs from the single-stream engine, so
//! every table below was re-captured from the sharded engine at
//! `threads = 1` in the same commit that introduced the sharding; the
//! statistical identity of old and new curves was checked against the
//! pre-shard captures (every cell within the stated tolerances except
//! the deep-saturation VAL@0.5 point, which moved 200.0 → 226.9 —
//! saturated-region latency is seed-sensitive by nature). These pins
//! now freeze the per-shard draw order: any engine change that
//! perturbs it fails these tests.
//!
//! The wormhole refactor is held to a stricter bar: at
//! `packet_size = 1` every flit is its own head and tail, no VC
//! reservation outlives its grant, and the engine must be **bit
//! identical** to the pre-wormhole single-flit engine — the
//! [`PRE_WORMHOLE_6DP`] table pins every (routing, load) cell to six
//! decimals (the capture precision), including the per-hop adaptive
//! curve whose `next_hop`/occupancy sequence is the most fragile. A
//! `packet_size = 4` curve ([`WORMHOLE_PKT4_6DP`]) is pinned alongside:
//! it demonstrates (and freezes) the serialization physics — higher
//! zero-load latency by the S − 1 tail, earlier saturation, MIN/UGAL
//! separation widening under wormhole head-of-line blocking.

use slimfly::prelude::*;

fn parity_cfg() -> SimConfig {
    SimConfig {
        warmup: 400,
        measure: 800,
        drain: 2_500,
        ..Default::default()
    }
}

/// (routing label, offered load, avg latency, accepted throughput)
/// with `parity_cfg()` on `sf:q=5`, uniform traffic. Originally
/// captured from the engine before routing became pluggable specs;
/// re-captured at the shard-RNG transition (see the module docs).
const PRE_REFACTOR_UNIFORM: &[(&str, f64, f64, f64)] = &[
    ("MIN", 0.1, 7.449740, 0.099900),
    ("MIN", 0.3, 7.901346, 0.300856),
    ("MIN", 0.5, 8.850728, 0.502019),
    ("VAL", 0.1, 14.952432, 0.100013),
    ("VAL", 0.3, 17.492678, 0.298506),
    ("VAL", 0.5, 226.904661, 0.405137),
    ("UGAL-L", 0.1, 8.485680, 0.100081),
    ("UGAL-L", 0.3, 9.554195, 0.300787),
    ("UGAL-L", 0.5, 10.408192, 0.499213),
    ("UGAL-G", 0.1, 9.711958, 0.101069),
    ("UGAL-G", 0.3, 9.471102, 0.301794),
    ("UGAL-G", 0.5, 10.083277, 0.500437),
];

/// The per-hop adaptive curve, captured from the pre-CSR-refactor
/// engine with `parity_cfg()` on `sf:q=5`, uniform traffic. ANCA draws
/// no injection-path RNG of its own but consults live queue occupancy
/// at *every hop*, so this curve pins two things the flat-engine
/// refactor must not perturb: the exact `next_hop` call sequence under
/// active-set skipping, and the exact occupancy values the incremental
/// counters report.
const PRE_REFACTOR_ECMP: &[(&str, f64, f64, f64)] = &[
    ("ANCA", 0.1, 7.443795, 0.099488),
    ("ANCA", 0.3, 7.896367, 0.300406),
    ("ANCA", 0.5, 8.883771, 0.500100),
];

/// (routing label, offered load, avg latency, accepted, avg hops)
/// with `parity_cfg()` on `sf:q=5`, uniform traffic, to six decimals.
/// Originally captured from the single-flit engine immediately
/// **before** the wormhole refactor (the wormhole code path must
/// degenerate *exactly* at `packet_size = 1`); re-captured from the
/// sharded engine at `threads = 1` at the shard-RNG transition (see
/// the module docs). The six-decimal bar is unchanged: same per-shard
/// RNG call sequence, same occupancy values, bit-identical results.
const PRE_WORMHOLE_6DP: &[(&str, f64, f64, f64, f64)] = &[
    ("MIN", 0.1, 7.449740, 0.099900, 1.825766),
    ("MIN", 0.3, 7.901346, 0.300856, 1.826623),
    ("MIN", 0.5, 8.850728, 0.502019, 1.825945),
    ("VAL", 0.1, 14.952432, 0.100013, 3.619202),
    ("VAL", 0.3, 17.492678, 0.298506, 3.626862),
    ("VAL", 0.5, 226.904661, 0.405137, 3.623079),
    ("UGAL-L", 0.1, 8.485680, 0.100081, 2.078867),
    ("UGAL-L", 0.3, 9.554195, 0.300787, 2.198216),
    ("UGAL-L", 0.5, 10.408192, 0.499213, 2.156267),
    ("UGAL-G", 0.1, 9.711958, 0.101069, 2.372430),
    ("UGAL-G", 0.3, 9.471102, 0.301794, 2.175996),
    ("UGAL-G", 0.5, 10.083277, 0.500437, 2.070972),
    ("ANCA", 0.1, 7.443795, 0.099488, 1.825475),
    ("ANCA", 0.3, 7.896367, 0.300406, 1.828526),
    ("ANCA", 0.5, 8.883771, 0.500100, 1.830318),
];

/// Six-decimal equality: the capture precision of the pinned tables.
/// Any drift here means the wormhole path did NOT degenerate exactly.
fn assert_6dp(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() < 1e-6,
        "{what}: {got} drifted from the pinned {want} (must match to 6 decimals)"
    );
}

#[test]
fn packet_size_1_is_bit_identical_to_the_pre_wormhole_engine() {
    let records = Experiment::on("sf:q=5")
        .routing_strs(&["min", "val", "ugal-l:c=4", "ugal-g:c=4", "ecmp"])
        .loads(&[0.1, 0.3, 0.5])
        .sim(parity_cfg())
        .run()
        .unwrap();
    assert_eq!(records.len(), PRE_WORMHOLE_6DP.len());
    for (r, &(label, offered, latency, accepted, hops)) in records.iter().zip(PRE_WORMHOLE_6DP) {
        assert_eq!(r.routing, label);
        assert_eq!(r.offered, offered);
        assert_eq!(r.packet_size, 1);
        assert_6dp(r.latency, latency, &format!("{label}@{offered} latency"));
        assert_6dp(r.accepted, accepted, &format!("{label}@{offered} accepted"));
        assert_6dp(r.avg_hops, hops, &format!("{label}@{offered} hops"));
    }
}

/// (routing label, offered flit load, avg latency, accepted) from the
/// wormhole engine at `packet_size = 4`, `parity_cfg()` on `sf:q=5`,
/// uniform traffic, to six decimals; re-captured at the shard-RNG
/// transition (see the module docs). Pinned so future engine work
/// cannot silently change the multi-flit physics.
const WORMHOLE_PKT4_6DP: &[(&str, f64, f64, f64)] = &[
    ("MIN", 0.1, 11.234356, 0.100544),
    ("MIN", 0.3, 14.372947, 0.302719),
    ("MIN", 0.5, 21.349385, 0.500719),
    ("MIN", 0.7, 105.177386, 0.643275),
    ("UGAL-L", 0.1, 12.504274, 0.099300),
    ("UGAL-L", 0.3, 18.391374, 0.298131),
    ("UGAL-L", 0.5, 33.741044, 0.500375),
    ("UGAL-L", 0.7, 266.778239, 0.539813),
];

#[test]
fn packet_size_4_curve_shows_serialization_and_is_pinned() {
    let records = Experiment::on("sf:q=5")
        .routing_strs(&["min", "ugal-l:c=4"])
        .loads(&[0.1, 0.3, 0.5, 0.7])
        .sim(parity_cfg())
        .packet_size(4)
        .run()
        .unwrap();
    assert_eq!(records.len(), WORMHOLE_PKT4_6DP.len());
    for (r, &(label, offered, latency, accepted)) in records.iter().zip(WORMHOLE_PKT4_6DP) {
        assert_eq!(r.routing, label);
        assert_eq!(r.offered, offered);
        assert_eq!(r.packet_size, 4);
        assert_6dp(
            r.latency,
            latency,
            &format!("{label}@{offered} pkt4 latency"),
        );
        assert_6dp(
            r.accepted,
            accepted,
            &format!("{label}@{offered} pkt4 accepted"),
        );
    }
    // Serialization physics versus the pinned single-flit curves:
    // higher zero-load latency (the 3-flit tail), and earlier
    // saturation at the same offered *flit* load.
    let pkt4 = |label: &str, load: f64| {
        WORMHOLE_PKT4_6DP
            .iter()
            .find(|&&(l, o, ..)| l == label && o == load)
            .unwrap()
    };
    let flit1 = |label: &str, load: f64| {
        PRE_WORMHOLE_6DP
            .iter()
            .find(|&&(l, o, ..)| l == label && o == load)
            .unwrap()
    };
    for label in ["MIN", "UGAL-L"] {
        let (_, _, lat4, _) = pkt4(label, 0.1);
        let (_, _, lat1, _, _) = flit1(label, 0.1);
        assert!(
            *lat4 > lat1 + 3.0,
            "{label}: size-4 zero-load latency {lat4} must exceed size-1 {lat1} by ≥ 3 cycles"
        );
    }
    // At 70% offered the single-flit engine still accepts ~0.70 (see
    // the capture runs); the wormhole run tops out well below — MIN at
    // ~0.65 and UGAL-L, whose detours occupy VCs for whole packets, at
    // ~0.54: the MIN/UGAL separation under serialization.
    let (_, _, _, acc_min) = pkt4("MIN", 0.7);
    let (_, _, _, acc_ugal) = pkt4("UGAL-L", 0.7);
    assert!(*acc_min < 0.68, "MIN pkt4 saturates earlier: {acc_min}");
    assert!(
        *acc_ugal < *acc_min,
        "UGAL-L pays more for wormhole detours: {acc_ugal} vs MIN {acc_min}"
    );
}

#[test]
fn min_val_ugal_curves_match_pre_refactor_values() {
    let records = Experiment::on("sf:q=5")
        .routing_strs(&["min", "val", "ugal-l:c=4", "ugal-g:c=4"])
        .loads(&[0.1, 0.3, 0.5])
        .sim(parity_cfg())
        .run()
        .unwrap();
    assert_eq!(records.len(), PRE_REFACTOR_UNIFORM.len());
    for (r, &(label, offered, latency, accepted)) in records.iter().zip(PRE_REFACTOR_UNIFORM) {
        assert_eq!(r.routing, label);
        assert_eq!(r.offered, offered);
        let lat_tol = latency * 0.10;
        assert!(
            (r.latency - latency).abs() <= lat_tol,
            "{label}@{offered}: latency {} drifted from pre-refactor {latency}",
            r.latency
        );
        let acc_tol = (accepted * 0.05).max(0.01);
        assert!(
            (r.accepted - accepted).abs() <= acc_tol,
            "{label}@{offered}: accepted {} drifted from pre-refactor {accepted}",
            r.accepted
        );
    }
}

#[test]
fn ecmp_per_hop_curve_matches_pre_refactor_values() {
    let records = Experiment::on("sf:q=5")
        .routing_str("ecmp")
        .loads(&[0.1, 0.3, 0.5])
        .sim(parity_cfg())
        .run()
        .unwrap();
    assert_eq!(records.len(), PRE_REFACTOR_ECMP.len());
    for (r, &(label, offered, latency, accepted)) in records.iter().zip(PRE_REFACTOR_ECMP) {
        assert_eq!(r.routing, label);
        assert_eq!(r.offered, offered);
        assert!(
            (r.latency - latency).abs() <= latency * 0.10,
            "{label}@{offered}: latency {} drifted from pre-refactor {latency}",
            r.latency
        );
        assert!(
            (r.accepted - accepted).abs() <= (accepted * 0.05).max(0.01),
            "{label}@{offered}: accepted {} drifted from pre-refactor {accepted}",
            r.accepted
        );
    }
}

#[test]
fn fig6_worst_case_crushes_min_but_not_ugal() {
    // Pre-refactor capture at offered 0.3, worst-case traffic:
    //   MIN    latency ≈ 830.6, accepted ≈ 0.150, saturated
    //   UGAL-L latency ≈  14.1, accepted ≈ 0.301, not saturated
    let records = Experiment::on("sf:q=5")
        .routing_strs(&["min", "ugal-l:c=4"])
        .traffic(TrafficSpec::WorstCase)
        .loads(&[0.3])
        .sim(parity_cfg())
        .run()
        .unwrap();
    let (min, ugal) = (&records[0], &records[1]);
    assert_eq!(min.routing, "MIN");
    assert_eq!(ugal.routing, "UGAL-L");
    assert!(
        min.saturated && min.accepted < 0.2,
        "MIN must collapse under the Fig 9 adversary: accepted {}",
        min.accepted
    );
    assert!(
        !ugal.saturated && ugal.accepted > 0.28,
        "UGAL-L must sustain adversarial load: accepted {}",
        ugal.accepted
    );
    assert!(
        (min.accepted - 0.150438).abs() < 0.02,
        "MIN accepted {} drifted from pre-refactor capture",
        min.accepted
    );
    assert!(
        (ugal.accepted - 0.300712).abs() < 0.02,
        "UGAL-L accepted {} drifted from pre-refactor capture",
        ugal.accepted
    );
}

/// The acceptance scenario for the pluggable engine: routing selected
/// purely by spec string — including the genuinely new FatPaths scheme
/// — runs end to end through the fluent builder.
#[test]
fn routing_str_and_fatpaths_run_end_to_end() {
    let quick = SimConfig {
        warmup: 200,
        measure: 400,
        drain: 1_200,
        ..Default::default()
    };
    let records = Experiment::on("sf:q=5")
        .routing_str("ugal-l:c=4")
        .routing_str("fatpaths:layers=3")
        .loads(&[0.2])
        .sim(quick)
        .run()
        .unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].routing, "UGAL-L");
    assert_eq!(records[1].routing, "FatPaths-3");
    for r in &records {
        assert!(!r.saturated, "{} at 20% must drain", r.routing);
        assert!(r.accepted > 0.15, "{} accepted {}", r.routing, r.accepted);
    }
    // FatPaths spreads over degraded layers: some detours, bounded hops.
    assert!(records[1].avg_hops > records[0].avg_hops * 0.9);
    assert!(records[1].avg_hops <= 9.0);
}

/// The literal acceptance expressions on the paper-size network resolve
/// to valid routers and a buildable topology (the full q=19 sweep is
/// exercised by the bench binaries; here we verify resolution cheaply).
#[test]
fn acceptance_expressions_resolve_on_q19() {
    let exp = Experiment::on("sf:q=19").routing_str("ugal-l:c=4");
    assert_eq!(
        exp.routing_specs().unwrap(),
        vec![RoutingSpec::UgalL { candidates: 4 }]
    );
    assert_eq!(exp.build_network().unwrap().num_endpoints(), 10_830);
    let exp = Experiment::on("sf:q=19").routing_str("fatpaths:layers=3");
    assert_eq!(
        exp.routing_specs().unwrap(),
        vec![RoutingSpec::FatPaths { layers: 3 }]
    );
}

/// FatPaths layered multipath holds up under the Slim Fly worst-case
/// adversary far better than MIN: path layers steer flows off the
/// colliding minimal links (the FatPaths design claim).
#[test]
fn fatpaths_beats_min_under_worst_case() {
    let records = Experiment::on("sf:q=5")
        .routing_strs(&["min", "fatpaths:layers=4"])
        .traffic(TrafficSpec::WorstCase)
        .loads(&[0.25])
        .sim(parity_cfg())
        .run()
        .unwrap();
    let (min, fp) = (&records[0], &records[1]);
    assert!(
        fp.accepted > min.accepted,
        "FatPaths {} must beat MIN {} under adversarial traffic",
        fp.accepted,
        min.accepted
    );
}
