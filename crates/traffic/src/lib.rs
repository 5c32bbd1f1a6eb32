//! # sf-traffic — traffic patterns (paper §V)
//!
//! Destination generators for all workloads the paper evaluates:
//!
//! * **uniform random** (§V-A) — irregular workloads (graph computing,
//!   sparse solvers, AMR);
//! * **bit permutations** (§V-B) — shuffle, bit reversal, bit complement
//!   (stencils and collectives); only the nearest power-of-two endpoint
//!   population is active, as in the paper. Like the worst cases, they
//!   are destination tables built at construction, so sampling and the
//!   flow model's distribution read the same entry;
//! * **shift** (§V-B) — each source talks to its ±N/2 counterpart;
//! * **worst case** (§V-C) — one adversarial permutation per topology
//!   family, all built by [`TrafficPattern::worst_case`]: Slim Fly and
//!   BDF (colliding 2-hop paths through a shared middle router, Fig 9),
//!   DLN (farthest-pair matching), Long Hop (farthest XOR translate),
//!   Dragonfly (group g → group g+1, Kim et al. §4.2), fat tree (all
//!   packets forced through core switches), torus (dimension reversal
//!   across the coordinate diagonal), hypercube (address bit reversal
//!   through the middle subcube) and flattened butterfly (row
//!   collision on single dimension-0 links). Only the first four read
//!   routing distances, so only they force the routing tables.
//!
//! All patterns are *endpoint-safe*: no endpoint is required to absorb
//! more than one full-rate flow (the paper's stated constraint for
//! adversarial patterns).

pub mod spec;

pub use spec::{TrafficError, TrafficSpec};

use rand::Rng;
use sf_routing::RoutingTables;
use sf_topo::{Network, TopologyKind};

/// A traffic pattern over `n_total` endpoints (some possibly inactive).
#[derive(Clone, Debug)]
pub struct TrafficPattern {
    kind: Kind,
    /// Total endpoints in the network.
    n_total: u32,
    /// Active endpoints: all of them for uniform, the even part for
    /// shift, the table's active sources for permutations.
    n_active: u32,
    /// Display name.
    name: String,
}

#[derive(Clone, Debug)]
enum Kind {
    Uniform,
    Shift,
    /// `table[s]` is `s`'s destination; `u32::MAX` marks an inactive
    /// source, and a source mapped to itself is active but silent.
    Permutation(Vec<u32>),
}

/// The largest power of two ≤ n, as used for the active-endpoint subset.
pub fn active_power_of_two(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        1 << (31 - n.leading_zeros())
    }
}

impl TrafficPattern {
    /// A bit permutation of the `b`-bit addresses of the
    /// [power-of-two subset](active_power_of_two): endpoint `s` of the
    /// subset sends to `f(s, b)`, and the endpoints above it are silent.
    fn bit_permutation(name: &str, n_total: u32, f: impl Fn(u32, u32) -> u32) -> Self {
        let n_active = active_power_of_two(n_total);
        let b = n_active.trailing_zeros();
        let mut table = vec![u32::MAX; n_total as usize];
        for (s, slot) in table.iter_mut().take(n_active as usize).enumerate() {
            *slot = f(s as u32, b);
        }
        Self::permutation(table, name)
    }

    /// Uniform random traffic: every active endpoint picks destinations
    /// uniformly among the other endpoints.
    pub fn uniform(n_total: u32) -> Self {
        TrafficPattern {
            kind: Kind::Uniform,
            n_total,
            n_active: n_total,
            name: "uniform".into(),
        }
    }

    /// Shuffle: `d_i = s_(i−1 mod b)` (rotate address bits left). With
    /// one endpoint there are no address bits and it maps to itself.
    pub fn shuffle(n_total: u32) -> Self {
        Self::bit_permutation("shuffle", n_total, |s, b| {
            ((s << 1) | (s >> b.saturating_sub(1))) & ((1 << b) - 1)
        })
    }

    /// Bit reversal: `d_i = s_(b−i−1)`.
    pub fn bit_reversal(n_total: u32) -> Self {
        Self::bit_permutation("bitrev", n_total, |s, b| {
            s.reverse_bits().checked_shr(32 - b).unwrap_or(0)
        })
    }

    /// Bit complement: `d_i = ¬s_i`.
    pub fn bit_complement(n_total: u32) -> Self {
        Self::bit_permutation("bitcomp", n_total, |s, b| !s & ((1 << b) - 1))
    }

    /// Shift: destination is the source's counterpart in the other half
    /// (or the same index in the lower half), each with probability 1/2
    /// (§V-B).
    pub fn shift(n_total: u32) -> Self {
        TrafficPattern {
            kind: Kind::Shift,
            n_total,
            n_active: n_total & !1, // need an even count
            name: "shift".into(),
        }
    }

    /// Explicit (partial) permutation pattern; `perm[s] == u32::MAX`
    /// marks an inactive source.
    pub fn permutation(perm: Vec<u32>, name: &str) -> Self {
        let n = perm.len() as u32;
        TrafficPattern {
            n_total: n,
            n_active: perm.iter().filter(|&&d| d != u32::MAX).count() as u32,
            kind: Kind::Permutation(perm),
            name: name.to_string(),
        }
    }

    /// The topology-specific adversarial permutation (§V-C), the one
    /// worst-case constructor. Each endpoint sends to its positional
    /// counterpart on a partner router (or in the next block), so no
    /// endpoint absorbs more than one full-rate flow:
    ///
    /// - **Slim Fly** (Fig 9) and **BDF**: routers pair at distance 2,
    ///   where minimal paths funnel through a single middle router
    ///   (girth-5 MMS graphs; two polars of a projective plane meet in
    ///   one point). The `p` flows of a router collide on one link, so
    ///   MIN throughput caps near `1/(p+1)` while adaptive schemes
    ///   detour around the middle.
    /// - **DLN**: farthest-pair matching against the seeded shortcut
    ///   instance. It maximizes `load × hops` and concentrates MIN
    ///   traffic on the few shortcuts the long routes share.
    /// - **Long Hop**: router `v` sends to `v ⊕ δ`, for the translate `δ`
    ///   at maximal distance from the origin (ties toward higher Hamming
    ///   weight, then lower id). XOR translation is an automorphism of
    ///   the Cayley graph over (Z₂)^d, so every pair sits at that
    ///   distance, and a mask-aligned translate (one hop) is never
    ///   picked. `δ ⊕ δ = 0` makes the pattern an involution.
    /// - **Dragonfly** (Kim et al. §4.2) and **fat tree**: endpoints send
    ///   to their counterpart in the next group or pod, forcing minimal
    ///   traffic over one global link or through the core switches.
    /// - **Torus**: dimension reversal, `(x_0, …, x_{n−1})` to
    ///   `(x_{n−1}, …, x_0)`, through the coordinate diagonal.
    /// - **Hypercube**: address bit reversal. Pairs that swap their
    ///   address halves all cross the middle subcube, congestion
    ///   Θ(√Nr ⁄ d) even under randomized minimal routing. Palindromic
    ///   addresses stay silent.
    /// - **Flattened butterfly**: row collision, `x_0 → x_0 + 1 mod c`.
    ///   The unique minimal path is the one direct row link, so MIN caps
    ///   near `1/p`.
    ///
    /// `tables` gives routing tables over `net.graph`. Only the
    /// distance-based adversaries (Slim Fly, BDF, DLN, Long Hop) call it.
    /// Degraded and generic networks are typed errors, and so are
    /// instances with nothing to exploit: asymmetric or 1-D tori,
    /// hypercubes with `d < 2`, flattened butterflies with `c < 2`,
    /// planes without distance-2 pairs, and DLN or Long Hop instances
    /// where every pair is adjacent.
    pub fn worst_case<'a>(
        net: &Network,
        tables: impl FnOnce() -> &'a RoutingTables,
    ) -> Result<Self, TrafficError> {
        if net.degraded {
            return Err(TrafficError::WorstCaseOnDegraded {
                topology: net.name.clone(),
            });
        }
        let unsupported = || TrafficError::UnsupportedWorstCase {
            topology: net.name.clone(),
        };
        // An all-silent pattern would run with zero traffic.
        let active = |p: Self| {
            if p.num_active() == 0 {
                Err(unsupported())
            } else {
                Ok(p)
            }
        };
        let nr = net.num_routers() as u32;
        match net.kind {
            TopologyKind::SlimFly { .. } => {
                let partner = Self::pair_distance2(net, tables());
                Ok(Self::router_permutation(net, "worst-sf", |r| {
                    partner[r as usize]
                }))
            }
            TopologyKind::Bdf { .. } => {
                let partner = Self::pair_distance2(net, tables());
                active(Self::router_permutation(net, "worst-bdf", |r| {
                    partner[r as usize]
                }))
            }
            TopologyKind::RandomDln { .. } => {
                let tables = tables();
                // Scan in id order; each unpaired router takes the
                // lowest-id unpaired router at its largest distance.
                let mut partner: Vec<u32> = (0..nr).collect();
                let mut max_dist = 0u8;
                for r in 0..nr {
                    if partner[r as usize] != r {
                        continue;
                    }
                    let mut best: Option<(u8, u32)> = None;
                    for s in 0..nr {
                        if s == r || partner[s as usize] != s {
                            continue;
                        }
                        let d = tables.distance(r, s);
                        if best.is_none_or(|(bd, _)| d > bd) {
                            best = Some((d, s));
                        }
                    }
                    if let Some((d, s)) = best {
                        partner[r as usize] = s;
                        partner[s as usize] = r;
                        max_dist = max_dist.max(d);
                    }
                }
                if max_dist <= 1 {
                    return Err(unsupported());
                }
                Ok(Self::router_permutation(net, "worst-dln", |r| {
                    partner[r as usize]
                }))
            }
            TopologyKind::LongHop { .. } => {
                let tables = tables();
                let mut delta = 0u32;
                let mut best = (0u8, 0u32);
                for v in 1..nr {
                    let key = (tables.distance(0, v), v.count_ones());
                    if key > best {
                        best = key;
                        delta = v;
                    }
                }
                if best.0 <= 1 {
                    return Err(unsupported());
                }
                Ok(Self::router_permutation(net, "worst-lh", |r| r ^ delta))
            }
            TopologyKind::Dragonfly { g, .. } => Ok(Self::block_shift(net, g, "worst-df")),
            TopologyKind::FatTree3 { pods, .. } => Ok(Self::block_shift(net, pods, "worst-ft")),
            // Reversed coordinates fall out of range unless the extent
            // vector is a palindrome.
            TopologyKind::Torus { ref dims } if dims.iter().eq(dims.iter().rev()) => {
                active(Self::router_permutation(net, "worst-torus", |r| {
                    // sf_topo::torus's mixed radix puts dims[0] least
                    // significant; reading the digits back most
                    // significant first reverses the coordinates.
                    let (mut rest, mut reversed) = (r, 0);
                    for &d in dims {
                        reversed = reversed * d + rest % d;
                        rest /= d;
                    }
                    reversed
                }))
            }
            TopologyKind::Hypercube { d } if d >= 2 => {
                Ok(Self::router_permutation(net, "worst-hc", |r| {
                    r.reverse_bits() >> (32 - d)
                }))
            }
            // Radix-c addressing: dimension 0 is the low digit.
            TopologyKind::FlattenedButterfly { c, .. } if c >= 2 => {
                Ok(Self::router_permutation(net, "worst-fbf", |r| {
                    r - r % c + (r % c + 1) % c
                }))
            }
            _ => Err(unsupported()),
        }
    }

    /// Greedy distance-2 router matching (the Slim Fly and BDF
    /// adversaries): scan routers in id order; pair each unpaired router
    /// with an unpaired distance-2 partner, preferring partners with the
    /// fewest shared minimal middles (1 in girth-5 MMS graphs and in
    /// projective-plane polarity graphs). Unmatched routers are their
    /// own partners.
    fn pair_distance2(net: &Network, tables: &RoutingTables) -> Vec<u32> {
        let nr = net.num_routers() as u32;
        let mut partner: Vec<u32> = (0..nr).collect();
        for r in 0..nr {
            if partner[r as usize] != r {
                continue;
            }
            // Candidate partners at distance 2, fewest common middles.
            let mut best: Option<(usize, u32)> = None;
            for s in 0..nr {
                if s == r || partner[s as usize] != s || tables.distance(r, s) != 2 {
                    continue;
                }
                let middles = net
                    .graph
                    .neighbors(r)
                    .iter()
                    .filter(|&&m| net.graph.has_edge(m, s))
                    .count();
                if best.is_none_or(|(bm, _)| middles < bm) {
                    best = Some((middles, s));
                    if middles == 1 {
                        break;
                    }
                }
            }
            if let Some((_, s)) = best {
                partner[r as usize] = s;
                partner[s as usize] = r;
            }
        }
        partner
    }

    /// Every endpoint sends to its counterpart in the next of `blocks`
    /// equal blocks of consecutive endpoints (Dragonfly groups, fat-tree
    /// pods).
    fn block_shift(net: &Network, blocks: u32, name: &str) -> Self {
        let n = net.num_endpoints() as u32;
        let size = n / blocks;
        let perm = (0..n)
            .map(|e| (e / size + 1) % blocks * size + e % size)
            .collect();
        TrafficPattern::permutation(perm, name)
    }

    /// Builds a router-permutation traffic pattern: every endpoint of
    /// router `r` sends to its positional counterpart on `router_perm(r)`
    /// (index-to-index, so no endpoint absorbs more than one full-rate
    /// flow). Self-mapped routers stay silent.
    fn router_permutation(net: &Network, name: &str, router_perm: impl Fn(u32) -> u32) -> Self {
        let mut perm = vec![u32::MAX; net.num_endpoints()];
        for r in 0..net.num_routers() as u32 {
            let s = router_perm(r);
            if s == r {
                continue;
            }
            for (a, b) in net.endpoints_of_router(r).zip(net.endpoints_of_router(s)) {
                perm[a as usize] = b;
            }
        }
        TrafficPattern::permutation(perm, name)
    }

    /// Pattern name (figure-legend style).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total endpoints.
    pub fn num_endpoints(&self) -> u32 {
        self.n_total
    }

    /// Active endpoints.
    pub fn num_active(&self) -> u32 {
        self.n_active
    }

    /// Whether `src` participates in the pattern.
    pub fn is_active(&self, src: u32) -> bool {
        match &self.kind {
            Kind::Uniform => true,
            Kind::Shift => src < self.n_active,
            Kind::Permutation(table) => table.get(src as usize).is_some_and(|&d| d != u32::MAX),
        }
    }

    /// Shift's two equally likely destinations for an active `src`: its
    /// counterpart in the other half, then its index in the lower half.
    fn shift_targets(&self, src: u32) -> [u32; 2] {
        let half = self.n_active / 2;
        let low = src % half;
        [low + half, low]
    }

    /// Draws a destination for `src`; `None` if the source is inactive
    /// or the pattern maps it to itself.
    pub fn dest<R: Rng>(&self, src: u32, rng: &mut R) -> Option<u32> {
        if !self.is_active(src) {
            return None;
        }
        let d = match &self.kind {
            Kind::Uniform => {
                if self.n_total < 2 {
                    return None;
                }
                let mut d = rng.gen_range(0..self.n_total - 1);
                if d >= src {
                    d += 1;
                }
                d
            }
            Kind::Shift => {
                let [partner, low] = self.shift_targets(src);
                if rng.gen_bool(0.5) {
                    partner
                } else {
                    low
                }
            }
            Kind::Permutation(table) => table[src as usize],
        };
        (d != src && d < self.n_total).then_some(d)
    }

    /// The exact destination distribution [`TrafficPattern::dest`]
    /// samples from, as data — the input the fluid/flow-level model
    /// needs. Weights sum to at most 1; mass lost to self-mapped or
    /// out-of-range destinations (the cases where `dest` returns
    /// `None`) is simply absent, mirroring the injection process.
    pub fn dest_mix(&self, src: u32) -> DestMix {
        if !self.is_active(src) {
            return DestMix::Inactive;
        }
        let pairs = match &self.kind {
            Kind::Uniform if self.n_total < 2 => return DestMix::Inactive,
            Kind::Uniform => return DestMix::Uniform,
            Kind::Shift => self.shift_targets(src).map(|d| (d, 0.5)).to_vec(),
            Kind::Permutation(table) => vec![(table[src as usize], 1.0)],
        };
        DestMix::Pairs(
            pairs
                .into_iter()
                .filter(|&(d, _)| d != src && d < self.n_total)
                .collect(),
        )
    }
}

/// The destination distribution of one source endpoint, from
/// [`TrafficPattern::dest_mix`].
#[derive(Clone, Debug, PartialEq)]
pub enum DestMix {
    /// The source never injects.
    Inactive,
    /// Uniform over all other endpoints (weight `1/(N−1)` each).
    Uniform,
    /// Explicit `(destination, weight)` pairs; weights sum to ≤ 1.
    Pairs(Vec<(u32, f64)>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The worst case of a family whose adversary needs no distances:
    /// building it must never force the routing tables.
    fn worst_without_tables(net: &Network) -> Result<TrafficPattern, TrafficError> {
        TrafficPattern::worst_case(net, || -> &'static RoutingTables {
            panic!("{} forced the routing tables", net.name)
        })
    }

    #[test]
    fn active_subset_power_of_two() {
        assert_eq!(active_power_of_two(10830), 8192);
        assert_eq!(active_power_of_two(8192), 8192);
        assert_eq!(active_power_of_two(1), 1);
        assert_eq!(active_power_of_two(0), 0);
    }

    #[test]
    fn uniform_never_self() {
        let p = TrafficPattern::uniform(16);
        let mut rng = StdRng::seed_from_u64(1);
        for s in 0..16 {
            for _ in 0..50 {
                let d = p.dest(s, &mut rng).unwrap();
                assert_ne!(d, s);
                assert!(d < 16);
            }
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let p = TrafficPattern::uniform(8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            seen.insert(p.dest(0, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn shuffle_rotates_bits() {
        let p = TrafficPattern::shuffle(16); // b = 4
        let mut rng = StdRng::seed_from_u64(3);
        // 0b0011 -> 0b0110
        assert_eq!(p.dest(0b0011, &mut rng), Some(0b0110));
        // 0b1000 -> 0b0001
        assert_eq!(p.dest(0b1000, &mut rng), Some(0b0001));
        // 0 -> 0 (self) => None
        assert_eq!(p.dest(0, &mut rng), None);
    }

    #[test]
    fn bit_reversal_involution() {
        let p = TrafficPattern::bit_reversal(64);
        let mut rng = StdRng::seed_from_u64(4);
        for s in 0..64u32 {
            if let Some(d) = p.dest(s, &mut rng) {
                // reversing twice returns to s
                let dd = p.dest(d, &mut rng).unwrap_or(d);
                assert_eq!(dd, s, "s={s} d={d}");
            }
        }
    }

    #[test]
    fn bit_complement_pairs() {
        let p = TrafficPattern::bit_complement(32);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(p.dest(0, &mut rng), Some(31));
        assert_eq!(p.dest(31, &mut rng), Some(0));
        assert_eq!(p.dest(0b01010, &mut rng), Some(0b10101));
    }

    #[test]
    fn inactive_endpoints_silent() {
        // N = 20 → active 16; endpoints 16..20 never send.
        let p = TrafficPattern::bit_reversal(20);
        assert_eq!(p.num_active(), 16);
        let mut rng = StdRng::seed_from_u64(6);
        for s in 16..20 {
            assert!(!p.is_active(s));
            assert_eq!(p.dest(s, &mut rng), None);
        }
    }

    #[test]
    fn shift_targets_lower_index_or_partner() {
        let p = TrafficPattern::shift(16);
        let mut rng = StdRng::seed_from_u64(7);
        let mut partner_seen = false;
        let mut low_seen = false;
        for _ in 0..100 {
            match p.dest(11, &mut rng) {
                Some(3) => low_seen = true, // 11 mod 8 = 3
                Some(11) => panic!("self"), // filtered
                Some(d) => {
                    assert_eq!(d, 3 + 8); // == 11 → None; so only 3 or 11
                    partner_seen = true;
                }
                None => partner_seen = true, // 3 + 8 == 11 → self → None
            }
        }
        assert!(low_seen || partner_seen);
        // Source in the lower half gets its upper partner.
        let mut upper = false;
        for _ in 0..100 {
            if p.dest(3, &mut rng) == Some(11) {
                upper = true;
            }
        }
        assert!(upper);
    }

    #[test]
    fn worst_case_slimfly_is_symmetric_distance2() {
        let sf = sf_topo::SlimFly::new(5).unwrap();
        let net = sf.network();
        let tables = RoutingTables::new(&net.graph);
        let p = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut checked = 0;
        for s in 0..net.num_endpoints() as u32 {
            if let Some(d) = p.dest(s, &mut rng) {
                // symmetric permutation
                assert_eq!(p.dest(d, &mut rng), Some(s));
                // routers at distance exactly 2
                let rs = net.endpoint_router(s);
                let rd = net.endpoint_router(d);
                assert_eq!(tables.distance(rs, rd), 2, "s={s} d={d}");
                checked += 1;
            }
        }
        assert!(
            checked >= net.num_endpoints() as u32 - 2 * 7,
            "most endpoints paired"
        );
    }

    #[test]
    fn worst_case_dragonfly_next_group() {
        let df = sf_topo::dragonfly::Dragonfly::balanced(2);
        let net = df.network();
        let p = worst_without_tables(&net).unwrap();
        let g = df.num_groups();
        let per_group = net.num_endpoints() as u32 / g;
        let mut rng = StdRng::seed_from_u64(9);
        for s in 0..net.num_endpoints() as u32 {
            let d = p.dest(s, &mut rng).unwrap();
            assert_eq!(d / per_group, (s / per_group + 1) % g);
        }
    }

    #[test]
    fn worst_case_fattree_crosses_pods() {
        let ft = sf_topo::fattree::FatTree3 { p: 3, full: false };
        let net = ft.network();
        let p = worst_without_tables(&net).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let per_pod = net.num_endpoints() as u32 / ft.pods();
        for s in 0..net.num_endpoints() as u32 {
            let d = p.dest(s, &mut rng).unwrap();
            assert_ne!(s / per_pod, d / per_pod, "must cross pods");
        }
    }

    #[test]
    fn worst_case_torus_reverses_dimensions() {
        let t = sf_topo::torus::Torus::new(vec![4, 3, 4]);
        let net = t.network();
        let p = worst_without_tables(&net).unwrap();
        assert_eq!(p.name(), "worst-torus");
        let mut rng = StdRng::seed_from_u64(11);
        let mut active = 0;
        for s in 0..net.num_endpoints() as u32 {
            if let Some(d) = p.dest(s, &mut rng) {
                let mut rc = t.router_coords(net.endpoint_router(s));
                rc.reverse();
                assert_eq!(net.endpoint_router(d), t.router_id(&rc), "s={s}");
                // Deterministic permutation, involutive on routers.
                assert_eq!(p.dest(d, &mut rng), Some(s));
                active += 1;
            }
        }
        assert!(active > 0, "most routers move under reversal");
    }

    #[test]
    fn worst_case_torus_asymmetric_is_error() {
        let net = sf_topo::torus::Torus::new(vec![4, 6, 8]).network();
        let err = worst_without_tables(&net).unwrap_err();
        assert!(matches!(err, TrafficError::UnsupportedWorstCase { .. }));
        // Degenerate reversal (1-D torus: identity permutation) is a
        // typed error, not a silent all-inactive pattern.
        let line = sf_topo::torus::Torus::new(vec![8]).network();
        let err = worst_without_tables(&line).unwrap_err();
        assert!(matches!(err, TrafficError::UnsupportedWorstCase { .. }));
    }

    #[test]
    fn worst_case_fbf_collides_rows() {
        let f = sf_topo::flatbutterfly::FlattenedButterfly {
            c: 4,
            dims: 2,
            p: 4,
        };
        let net = f.network();
        let p = worst_without_tables(&net).unwrap();
        assert_eq!(p.name(), "worst-fbf");
        let mut rng = StdRng::seed_from_u64(12);
        for s in 0..net.num_endpoints() as u32 {
            let d = p.dest(s, &mut rng).unwrap();
            let rs = f.router_coords(net.endpoint_router(s));
            let rd = f.router_coords(net.endpoint_router(d));
            // Same row: only the dimension-0 coordinate moves, by +1.
            assert_eq!(rd[0], (rs[0] + 1) % 4, "s={s}");
            assert_eq!(rs[1..], rd[1..], "s={s}");
            // Endpoint-safe: the permutation is injective per position.
            assert_eq!(s % 4, d % 4);
        }
    }

    #[test]
    fn worst_case_hypercube_reverses_address_bits() {
        let hc = sf_topo::hypercube::Hypercube::new(6);
        let net = hc.network();
        let p = worst_without_tables(&net).unwrap();
        assert_eq!(p.name(), "worst-hc");
        let mut rng = StdRng::seed_from_u64(13);
        let reverse = |r: u32| r.reverse_bits() >> (32 - 6);
        let mut active = 0u32;
        for s in 0..net.num_endpoints() as u32 {
            let rs = net.endpoint_router(s);
            if reverse(rs) == rs {
                // Palindromic addresses are self-mapped and silent.
                assert!(!p.is_active(s), "s={s}");
                continue;
            }
            let d = p.dest(s, &mut rng).unwrap();
            assert_eq!(net.endpoint_router(d), reverse(rs), "s={s}");
            // Bit reversal is an involution — endpoint-safe by symmetry.
            assert_eq!(p.dest(d, &mut rng), Some(s));
            active += 1;
        }
        // 2^6 routers, 2^3 palindromes: 56 of 64 routers participate.
        assert_eq!(active, 56);
    }

    #[test]
    fn worst_case_longhop_is_a_maximal_distance_translate() {
        let lh = sf_topo::longhop::LongHop::new(6, 3);
        let net = lh.network();
        let tables = RoutingTables::new(&net.graph);
        let p = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        assert_eq!(p.name(), "worst-lh");

        // Recover δ from endpoint 0's destination (p = 1: endpoint id
        // == router id) and check the defining properties.
        let mut rng = StdRng::seed_from_u64(17);
        let delta = net.endpoint_router(p.dest(0, &mut rng).unwrap());
        assert_ne!(delta, 0);
        let ecc = (1..net.num_routers() as u32)
            .map(|v| tables.distance(0, v))
            .max()
            .unwrap();
        assert_eq!(
            tables.distance(0, delta),
            ecc,
            "the translate must sit at the eccentricity of the origin"
        );
        assert!(ecc >= 2, "long-hop masks must not make δ a direct link");

        // XOR translation is an automorphism: *every* pair is at that
        // same maximal distance, and the permutation is a fixed-point
        // free involution (endpoint-safe by symmetry).
        for s in 0..net.num_endpoints() as u32 {
            let rs = net.endpoint_router(s);
            let d = p.dest(s, &mut rng).unwrap();
            assert_eq!(net.endpoint_router(d), rs ^ delta, "s={s}");
            assert_eq!(tables.distance(rs, rs ^ delta), ecc, "s={s}");
            assert_eq!(p.dest(d, &mut rng), Some(s));
        }
        assert_eq!(p.num_active(), net.num_endpoints() as u32);
    }

    #[test]
    fn worst_case_bdf_pairs_at_distance_2_through_unique_middles() {
        let plane = sf_topo::bdf::ProjectivePlaneGraph::new(5).unwrap();
        let net = plane.network(3);
        let tables = RoutingTables::new(&net.graph);
        let p = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        assert_eq!(p.name(), "worst-bdf");
        let mut rng = StdRng::seed_from_u64(20);
        let mut checked = 0;
        for s in 0..net.num_endpoints() as u32 {
            if let Some(d) = p.dest(s, &mut rng) {
                // Symmetric permutation over distance-2 router pairs.
                assert_eq!(p.dest(d, &mut rng), Some(s));
                let rs = net.endpoint_router(s);
                let rd = net.endpoint_router(d);
                assert_eq!(tables.distance(rs, rd), 2, "s={s}");
                // The polarity graph funnels each pair through exactly
                // one middle (two polars meet in one point).
                let middles = net
                    .graph
                    .neighbors(rs)
                    .iter()
                    .filter(|&&m| net.graph.has_edge(m, rd))
                    .count();
                assert_eq!(middles, 1, "pair {rs}-{rd}");
                checked += 1;
            }
        }
        // P_5 has 31 routers: at least 30 pair up (odd remainder silent).
        assert!(checked >= (net.num_endpoints() - 3) as u32, "{checked}");
    }

    #[test]
    fn worst_case_dln_is_a_farthest_pair_matching() {
        let dln = sf_topo::random_dln::RandomDln::new(64, 2, 7);
        let net = dln.network();
        let tables = RoutingTables::new(&net.graph);
        let p = TrafficSpec::WorstCase.build(&net, &tables).unwrap();
        assert_eq!(p.name(), "worst-dln");
        let mut rng = StdRng::seed_from_u64(21);
        // Router 0's partner sits at 0's eccentricity (the greedy takes
        // the farthest router first).
        let d0 = p.dest(0, &mut rng).unwrap();
        let r0_partner = net.endpoint_router(d0);
        let ecc0 = (1..net.num_routers() as u32)
            .map(|v| tables.distance(0, v))
            .max()
            .unwrap();
        assert_eq!(tables.distance(0, r0_partner), ecc0);
        assert!(ecc0 >= 2, "a 64-router DLN-2-2 is not fully connected");
        // Symmetric, endpoint-safe, and strictly longer than uniform on
        // average: the matched pairs' mean distance beats the all-pairs
        // average.
        let mut pair_dist_sum = 0u64;
        let mut pairs = 0u64;
        for s in 0..net.num_endpoints() as u32 {
            if let Some(d) = p.dest(s, &mut rng) {
                assert_eq!(p.dest(d, &mut rng), Some(s));
                pair_dist_sum +=
                    tables.distance(net.endpoint_router(s), net.endpoint_router(d)) as u64;
                pairs += 1;
            }
        }
        let nr = net.num_routers() as u32;
        let mut all_sum = 0u64;
        let mut all = 0u64;
        for a in 0..nr {
            for b in 0..nr {
                if a != b {
                    all_sum += tables.distance(a, b) as u64;
                    all += 1;
                }
            }
        }
        let pair_avg = pair_dist_sum as f64 / pairs as f64;
        let all_avg = all_sum as f64 / all as f64;
        assert!(
            pair_avg > all_avg,
            "farthest-pair matching must beat the uniform average: {pair_avg} vs {all_avg}"
        );
    }

    /// Instances with no adversarial structure to exploit are typed
    /// errors, never an all-silent pattern.
    #[test]
    fn worst_case_degenerate_instances_error() {
        use sf_topo::{flatbutterfly::FlattenedButterfly, hypercube::Hypercube};
        use sf_topo::{longhop::LongHop, random_dln::RandomDln};
        for net in [
            // A 4-router DLN with 2 shortcut rounds is the complete
            // graph: every pair is a direct link.
            RandomDln::new(4, 2, 1).network(),
            // So is a 2-cube with the one long-hop mask 0b11.
            LongHop {
                d: 2,
                masks: vec![0b11],
                p: 1,
            }
            .network(),
            // Address reversal is the identity below d = 2.
            Hypercube::new(1).network(),
            // A one-router row has no successor to collide on.
            FlattenedButterfly {
                c: 1,
                dims: 2,
                p: 1,
            }
            .network(),
        ] {
            let tables = RoutingTables::new(&net.graph);
            let err = TrafficSpec::WorstCase.build(&net, &tables).unwrap_err();
            assert!(
                matches!(err, TrafficError::UnsupportedWorstCase { .. }),
                "{}: {err}",
                net.name
            );
        }
    }

    /// `dest` samples exactly the distribution `dest_mix` reports: a
    /// fixed pattern's draw is its single pair (or `None` when the list
    /// is empty), and every random draw lies in the support.
    #[test]
    fn dest_agrees_with_dest_mix() {
        let mut rng = StdRng::seed_from_u64(22);
        for n in [0u32, 1, 2, 3, 7, 8, 200] {
            for (p, random) in [
                (TrafficPattern::uniform(n), true),
                (TrafficPattern::shuffle(n), false),
                (TrafficPattern::bit_reversal(n), false),
                (TrafficPattern::bit_complement(n), false),
                (TrafficPattern::shift(n), true),
            ] {
                let what = format!("{} over {n}", p.name());
                for s in 0..n {
                    let draws: Vec<Option<u32>> = (0..16).map(|_| p.dest(s, &mut rng)).collect();
                    match p.dest_mix(s) {
                        DestMix::Inactive => assert!(draws.iter().all(Option::is_none), "{what}"),
                        DestMix::Uniform => {
                            assert!(random, "{what}");
                            for d in draws {
                                let d = d.expect("uniform draws always land");
                                assert!(d < n && d != s, "{what}: {s} → {d}");
                            }
                        }
                        DestMix::Pairs(pairs) if !random => {
                            let expect = match pairs[..] {
                                [] => None,
                                [(d, 1.0)] => Some(d),
                                _ => panic!("{what}: {s} has pairs {pairs:?}"),
                            };
                            assert!(draws.iter().all(|&d| d == expect), "{what}: {s}");
                        }
                        DestMix::Pairs(pairs) => {
                            let mass: f64 = pairs.iter().map(|&(_, w)| w).sum();
                            for d in draws {
                                match d {
                                    Some(d) => assert!(
                                        pairs.iter().any(|&(pd, _)| pd == d),
                                        "{what}: {s} → {d} outside {pairs:?}"
                                    ),
                                    None => assert!(mass < 1.0, "{what}: {s} lost mass"),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn permutation_activity_counts() {
        let p = TrafficPattern::permutation(vec![1, 0, u32::MAX], "t");
        assert_eq!(p.num_active(), 2);
        assert!(p.is_active(0));
        assert!(!p.is_active(2));
    }
}
