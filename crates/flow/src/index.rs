//! [`EdgeIndex`] — a prebuilt CSR directed-edge index.
//!
//! The same shape as `sf-sim`'s internal `LinkIndex`: one contiguous
//! id per *directed* channel, grouped by tail router, so a hot loop
//! that walks `graph.neighbors(u)` addresses channel `base(u) + j`
//! with **no lookup at all**. Point queries ([`EdgeIndex::id`]) fall
//! back to a binary search over the (sorted) neighbor slice and are
//! only used off the hot path (layer translation).

use sf_graph::Graph;

/// CSR index over the directed channels of an undirected router graph:
/// channel ids `base(u) .. base(u+1)` are the channels leaving `u`, in
/// neighbor order (ascending head id).
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// Offsets, length `nr + 1`; `base[nr]` is the directed-channel count.
    base: Vec<u32>,
    /// Head router of each directed channel.
    to: Vec<u32>,
}

impl EdgeIndex {
    /// Builds the index in one pass over the adjacency lists.
    pub fn new(g: &Graph) -> Self {
        let nr = g.num_vertices();
        let mut base = Vec::with_capacity(nr + 1);
        let mut to = Vec::with_capacity(2 * g.num_edges());
        let mut acc = 0u32;
        base.push(0);
        for u in 0..nr as u32 {
            let nbrs = g.neighbors(u);
            acc += nbrs.len() as u32;
            base.push(acc);
            to.extend_from_slice(nbrs);
        }
        EdgeIndex { base, to }
    }

    /// Number of directed channels (`2 × edges`).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.to.len()
    }

    /// First channel id leaving router `u`.
    #[inline]
    pub fn base(&self, u: u32) -> u32 {
        self.base[u as usize]
    }

    /// Head router of channel `c`.
    #[inline]
    pub fn head(&self, c: u32) -> u32 {
        self.to[c as usize]
    }

    /// Tail router of channel `c` (binary search over the offsets).
    pub fn tail(&self, c: u32) -> u32 {
        (self.base.partition_point(|&b| b <= c) - 1) as u32
    }

    /// Directed channel id of `u → v`; panics if `v` is not a neighbor
    /// of `u`. O(log degree) — off-hot-path queries only.
    #[inline]
    pub fn id(&self, u: u32, v: u32) -> u32 {
        let lo = self.base[u as usize] as usize;
        let hi = self.base[u as usize + 1] as usize;
        lo as u32
            + self.to[lo..hi]
                .binary_search(&v)
                .expect("edge exists in graph") as u32
    }

    /// For every channel `u → v`, the id of the opposite channel
    /// `v → u`. Precomputing this map once lets hot loops that walk a
    /// router's neighbor list address *incoming* channels without a
    /// per-hop binary search.
    ///
    /// One O(channels) pass: tails are walked in ascending order, so by
    /// the time `u` visits `v`, exactly the neighbors of `v` below `u`
    /// have visited it, and `u`'s slot in `v`'s sorted list is `v`'s
    /// next cursor.
    pub fn reverse_map(&self) -> Vec<u32> {
        let nr = self.base.len() - 1;
        let mut cursor = self.base[..nr].to_vec();
        let mut rev = vec![0u32; self.to.len()];
        for u in 0..nr {
            let (lo, hi) = (self.base[u] as usize, self.base[u + 1] as usize);
            for (slot, &v) in rev[lo..hi].iter_mut().zip(&self.to[lo..hi]) {
                *slot = cursor[v as usize];
                cursor[v as usize] += 1;
            }
        }
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_neighbor_order() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let idx = EdgeIndex::new(&g);
        assert_eq!(idx.num_channels(), 8);
        assert_eq!(idx.base(0), 0);
        assert_eq!(idx.id(0, 1), 0);
        assert_eq!(idx.id(0, 2), 1);
        assert_eq!(idx.head(idx.id(2, 3)), 3);
        assert_eq!(idx.tail(idx.id(2, 3)), 2);
        for u in 0..4u32 {
            for &v in g.neighbors(u) {
                let c = idx.id(u, v);
                assert_eq!(idx.tail(c), u);
                assert_eq!(idx.head(c), v);
            }
        }
    }

    #[test]
    fn reverse_map_matches_point_queries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..64 {
            let n = rng.gen_range(2u32..48);
            let density = rng.gen_range(1u32..10);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_range(0u32..10) < density {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n as usize, &edges);
            let idx = EdgeIndex::new(&g);
            let rev = idx.reverse_map();
            assert_eq!(rev.len(), idx.num_channels());
            for u in 0..n {
                for &v in g.neighbors(u) {
                    assert_eq!(rev[idx.id(u, v) as usize], idx.id(v, u), "{u}→{v}");
                }
            }
        }
    }
}
