//! Path generation: MIN, Valiant, and UGAL candidate sets (paper §IV).
//!
//! Paths are sequences of router ids, source router first, destination
//! router last (a direct-neighbor path has length 2; `[r]` means source
//! and destination share the router). The queue-sensitive UGAL *choice*
//! is made in `sf-sim`, which owns router state; this module generates
//! the candidate paths the choice is made over.

use crate::tables::RoutingTables;
use rand::Rng;
use sf_graph::Graph;

/// `rng.gen_range(0..n)` without the 64-bit modulo when `n == 1`: the
/// draw is still consumed, so the RNG advances identically.
#[inline]
fn draw<R: Rng>(rng: &mut R, n: usize) -> usize {
    if n == 1 {
        rng.next_u64();
        0
    } else {
        rng.gen_range(0..n)
    }
}

/// Path generator bound to a topology's routing tables.
pub struct PathGen<'a> {
    graph: &'a Graph,
    tables: &'a RoutingTables,
}

impl<'a> PathGen<'a> {
    /// Creates a generator over a router graph and its tables.
    pub fn new(graph: &'a Graph, tables: &'a RoutingTables) -> Self {
        PathGen { graph, tables }
    }

    /// The distance tables in use.
    pub fn tables(&self) -> &RoutingTables {
        self.tables
    }

    /// A uniformly random minimal path from `s` to `d` (router ids,
    /// inclusive). Random ECMP: each next hop drawn uniformly from the
    /// minimal next-hop set.
    pub fn min_path<R: Rng>(&self, s: u32, d: u32, rng: &mut R) -> Vec<u32> {
        let mut path = Vec::with_capacity(8);
        self.extend_min_path(s, d, rng, &mut path);
        path
    }

    /// Appends a uniformly random minimal path from `s` to `d`
    /// (inclusive of both) to `out` — the allocation-free form of
    /// [`PathGen::min_path`] for hot loops that reuse a buffer. The
    /// RNG draw sequence is identical to [`PathGen::min_path`].
    pub fn extend_min_path<R: Rng>(&self, s: u32, d: u32, rng: &mut R, out: &mut Vec<u32>) {
        out.push(s);
        self.extend_min_hops(s, d, rng, out);
    }

    /// Appends the hops *after* `s` of a uniformly random minimal path
    /// `s → d`. Each hop advances `rng` exactly as the reference walk
    /// does — collect the minimal next hops in adjacency order, then
    /// `gen_range(0..count)` — so the draw sequence (one `next_u64`
    /// per hop) matches it bit for bit (pinned by the
    /// `proptest_ecmp_draw` suite).
    fn extend_min_hops<R: Rng>(&self, s: u32, d: u32, rng: &mut R, out: &mut Vec<u32>) {
        // Symmetric distance matrix: all per-neighbor lookups read row
        // `d`, which stays cache-resident for the whole path walk. The
        // qualifying next hops are staged in a stack buffer so the
        // row is read once per hop (a second selection pass for the
        // rare router with more than 128 neighbors).
        let row = self.tables.row(d);
        let mut cand = [0u32; 128];
        let mut cur = s;
        while cur != d {
            let need = row[cur as usize];
            if need == 1 {
                // `d` is the only neighbor at distance 0: no scan, and
                // a one-member draw is `next_u64() % 1`.
                rng.next_u64();
                out.push(d);
                return;
            }
            // `need` is ≥ 2 here, or UNREACHABLE (whose neighbors are
            // unreachable too, so nothing qualifies and the draw panics
            // on the empty range, as the reference walk does).
            let target = need.wrapping_sub(1);
            let nbrs = self.graph.neighbors(cur);
            let mut n = 0usize;
            if nbrs.len() <= cand.len() {
                // Branch-free: always store, advance on a match. At
                // every store n ≤ the neighbor's index < 128, so the
                // mask is the identity; it only drops the bounds check.
                for &v in nbrs {
                    cand[n & 127] = v;
                    n += (row[v as usize] == target) as usize;
                }
                debug_assert!(n > 0, "no minimal next hop {cur}->{d}");
                cur = cand[draw(rng, n)];
            } else {
                for &v in nbrs {
                    n += (row[v as usize] == target) as usize;
                }
                debug_assert!(n > 0, "no minimal next hop {cur}->{d}");
                let mut k = draw(rng, n);
                for &v in nbrs {
                    if row[v as usize] == target {
                        if k == 0 {
                            cur = v;
                            break;
                        }
                        k -= 1;
                    }
                }
            }
            out.push(cur);
        }
    }

    /// A Valiant random path (§IV-B): minimal to a random intermediate
    /// router `Rr ∉ {Rs, Rd}`, then minimal to `d`. With `cap3`, the
    /// intermediate is redrawn until the total length is ≤ 3 hops
    /// (paper's constrained variant).
    pub fn valiant_path<R: Rng>(&self, s: u32, d: u32, cap3: bool, rng: &mut R) -> Vec<u32> {
        let mut path = Vec::with_capacity(8);
        self.extend_valiant_path(s, d, cap3, rng, &mut path);
        path
    }

    /// Appends a Valiant random path from `s` to `d` (inclusive of
    /// both) to `out` — the allocation-free form of
    /// [`PathGen::valiant_path`], with the identical RNG draw sequence
    /// (intermediate draws, then the two minimal segments).
    pub fn extend_valiant_path<R: Rng>(
        &self,
        s: u32,
        d: u32,
        cap3: bool,
        rng: &mut R,
        out: &mut Vec<u32>,
    ) {
        let nr = self.tables.num_routers() as u32;
        if s == d || nr <= 2 {
            return self.extend_min_path(s, d, rng, out);
        }
        let (row_s, row_d) = (self.tables.row(s), self.tables.row(d));
        for _attempt in 0..64 {
            let mut r = rng.gen_range(0..nr);
            while r == s || r == d {
                r = rng.gen_range(0..nr);
            }
            let (leg_s, leg_d) = (row_s[r as usize], row_d[r as usize]);
            if leg_s == crate::tables::UNREACHABLE || leg_d == crate::tables::UNREACHABLE {
                // Degraded graphs only: an intermediate in another
                // component (or an isolated dead router) cannot host a
                // detour — redraw. On connected graphs this branch is
                // unreachable, so the RNG draw sequence is unchanged.
                continue;
            }
            let hops = leg_s as u32 + leg_d as u32;
            if cap3 && hops > 3 {
                continue;
            }
            self.extend_min_path(s, r, rng, out);
            self.extend_min_hops(r, d, rng, out);
            return;
        }
        // cap3 may be infeasible for far pairs; fall back to minimal.
        self.extend_min_path(s, d, rng, out)
    }

    /// UGAL candidate set: the MIN path plus `n` Valiant candidates
    /// (§IV-C: the simulator picks by queue occupancy). Hot paths
    /// (`UgalRouter::route`) generate and score candidates one at a
    /// time through [`PathGen::extend_valiant_path`] instead — same
    /// paths, same RNG sequence, no per-candidate allocation.
    pub fn ugal_candidates<R: Rng>(
        &self,
        s: u32,
        d: u32,
        n: usize,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<Vec<u32>>) {
        let min = self.min_path(s, d, rng);
        let cands = (0..n)
            .map(|_| self.valiant_path(s, d, false, rng))
            .collect();
        (min, cands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Graph::from_edges(n, &edges)
    }

    fn validate_path(g: &Graph, path: &[u32], s: u32, d: u32) {
        assert_eq!(*path.first().unwrap(), s);
        assert_eq!(*path.last().unwrap(), d);
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {}-{}", w[0], w[1]);
        }
    }

    #[test]
    fn min_path_is_shortest() {
        let g = cycle(8);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(1);
        for s in 0..8u32 {
            for d in 0..8u32 {
                let p = gen.min_path(s, d, &mut rng);
                validate_path(&g, &p, s, d);
                assert_eq!(p.len() as u8 - 1, t.distance(s, d));
            }
        }
    }

    #[test]
    fn min_path_uses_both_ecmp_branches() {
        let g = cycle(6);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen_cw = false;
        let mut seen_ccw = false;
        for _ in 0..64 {
            let p = gen.min_path(0, 3, &mut rng);
            if p[1] == 1 {
                seen_cw = true;
            }
            if p[1] == 5 {
                seen_ccw = true;
            }
        }
        assert!(
            seen_cw && seen_ccw,
            "ECMP must randomize over both branches"
        );
    }

    #[test]
    fn valiant_path_valid_and_longer() {
        let g = cycle(8);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(3);
        let mut total_val = 0usize;
        let mut total_min = 0usize;
        for _ in 0..100 {
            let p = gen.valiant_path(0, 2, false, &mut rng);
            validate_path(&g, &p, 0, 2);
            total_val += p.len() - 1;
            total_min += t.distance(0, 2) as usize;
        }
        assert!(
            total_val > total_min,
            "Valiant takes detours on average: {total_val} vs {total_min}"
        );
    }

    #[test]
    fn valiant_cap3_respects_cap_when_feasible() {
        // Complete graph: every Valiant path is exactly 2 hops — cap 3
        // always feasible.
        let mut g = Graph::empty(6);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                g.add_edge(u, v);
            }
        }
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let p = gen.valiant_path(0, 1, true, &mut rng);
            assert!(p.len() - 1 <= 3);
            validate_path(&g, &p, 0, 1);
        }
    }

    #[test]
    fn valiant_same_router_is_trivial() {
        let g = cycle(5);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(gen.valiant_path(2, 2, false, &mut rng), vec![2]);
    }

    #[test]
    fn ugal_candidate_counts() {
        let g = cycle(8);
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut rng = StdRng::seed_from_u64(11);
        let (min, cands) = gen.ugal_candidates(0, 4, 4, &mut rng);
        assert_eq!(min.len() as u8 - 1, t.distance(0, 4));
        assert_eq!(cands.len(), 4);
        for c in &cands {
            validate_path(&g, c, 0, 4);
        }
    }
}
