//! Property-based tests for traffic patterns: destination validity,
//! permutation bijectivity, and endpoint-safety invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sf_routing::RoutingTables;
use sf_traffic::{active_power_of_two, TrafficPattern, TrafficSpec};

proptest! {
    #[test]
    fn destinations_always_in_range_and_not_self(
        n in 2u32..300,
        srcs in prop::collection::vec(0u32..300, 1..20),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for pat in [
            TrafficPattern::uniform(n),
            TrafficPattern::shuffle(n),
            TrafficPattern::bit_reversal(n),
            TrafficPattern::bit_complement(n),
            TrafficPattern::shift(n),
        ] {
            for &s_raw in &srcs {
                let s = s_raw % n;
                if let Some(d) = pat.dest(s, &mut rng) {
                    prop_assert!(d < n, "{}: dest {d} out of range {n}", pat.name());
                    prop_assert_ne!(d, s, "{}: self-send", pat.name());
                }
            }
        }
    }

    #[test]
    fn bit_patterns_are_deterministic_partial_permutations(n in 4u32..2048) {
        let mut rng = StdRng::seed_from_u64(1);
        for pat in [TrafficPattern::bit_reversal(n), TrafficPattern::bit_complement(n)] {
            let mut seen = std::collections::BTreeSet::new();
            for s in 0..pat.num_active() {
                if let Some(d) = pat.dest(s, &mut rng) {
                    prop_assert!(seen.insert(d), "{}: duplicate destination {d}", pat.name());
                }
            }
        }
    }

    #[test]
    fn shuffle_is_bijective_over_active(n in 4u32..2048) {
        let pat = TrafficPattern::shuffle(n);
        let mut rng = StdRng::seed_from_u64(2);
        let act = pat.num_active();
        let mut images = std::collections::BTreeSet::new();
        let mut self_maps = 0;
        for s in 0..act {
            match pat.dest(s, &mut rng) {
                Some(d) => {
                    prop_assert!(images.insert(d));
                }
                None => self_maps += 1, // fixed points of the rotation
            }
        }
        prop_assert_eq!(images.len() + self_maps, act as usize);
    }

    #[test]
    fn active_power_of_two_properties(n in 1u32..1_000_000) {
        let a = active_power_of_two(n);
        prop_assert!(a.is_power_of_two());
        prop_assert!(a <= n);
        prop_assert!(2 * a > n, "largest power of two ≤ n");
    }

    #[test]
    fn worst_case_slimfly_endpoint_safe(q in prop::sample::select(&[5u32, 7][..])) {
        // The adversarial pattern must remain a partial permutation: no
        // endpoint receives more than one flow (the §V-C constraint).
        let net = sf_topo::SlimFly::new(q).unwrap().network();
        let tables = RoutingTables::new(&net.graph);
        let pat = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut inbound = std::collections::BTreeMap::new();
        for s in 0..net.num_endpoints() as u32 {
            if let Some(d) = pat.dest(s, &mut rng) {
                *inbound.entry(d).or_insert(0u32) += 1;
            }
        }
        for (d, c) in inbound {
            prop_assert_eq!(c, 1, "endpoint {} receives {} flows", d, c);
        }
    }

    #[test]
    fn uniform_eventually_reaches_every_destination(n in 3u32..24, seed in 0u64..50) {
        let pat = TrafficPattern::uniform(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..(n as usize * 60) {
            if let Some(d) = pat.dest(0, &mut rng) {
                seen.insert(d);
            }
        }
        prop_assert_eq!(seen.len(), n as usize - 1);
    }

    #[test]
    fn permutation_pattern_respects_table(perm_raw in prop::collection::vec(0u32..64, 2..64)) {
        let n = perm_raw.len() as u32;
        let perm: Vec<u32> = perm_raw.iter().map(|&d| d % n).collect();
        let pat = TrafficPattern::permutation(perm.clone(), "prop");
        let mut rng = StdRng::seed_from_u64(4);
        for s in 0..n {
            let expect = if perm[s as usize] == s { None } else { Some(perm[s as usize]) };
            prop_assert_eq!(pat.dest(s, &mut rng), expect);
        }
    }
}
