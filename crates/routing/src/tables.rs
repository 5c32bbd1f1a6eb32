//! All-pairs distance tables and minimal next-hop queries.
//!
//! A [`RoutingTables`] instance stores the full router-to-router distance
//! matrix as `u8` (network diameters here are ≤ ~30; 255 = unreachable).
//! For the network sizes the paper simulates (Nr ≤ ~2500) this is a few
//! megabytes and gives O(1) distance lookups and O(degree) next-hop
//! queries — the substrate for MIN routing and for the worst-case
//! traffic-pattern generator.
//!
//! Construction runs `sf_graph`'s bit-parallel multi-source BFS
//! ([`metrics::multi_source_bfs`]): 64 sources advance together as the
//! bits of one `u64` word per router, and each pass writes its 64 rows of
//! the flat matrix in place. It records the largest finite distance on
//! the way, so [`RoutingTables::max_distance`] is a field read.

use sf_graph::{metrics, Graph};

/// Unreachable marker in the distance matrix.
pub const UNREACHABLE: u8 = u8::MAX;

/// Dense all-pairs distance matrix over routers.
#[derive(Clone, Debug)]
pub struct RoutingTables {
    nr: usize,
    dist: Vec<u8>,
    /// Largest finite entry of `dist` (0 if there is none).
    max_dist: u8,
}

impl RoutingTables {
    /// Builds tables with the bit-parallel BFS
    /// ([`metrics::multi_source_bfs`]): each pass fills one block of
    /// [`metrics::BFS_BATCH`] rows in place, and blocks run in parallel.
    /// Distances saturate at 254 hops; unreachable pairs read
    /// [`UNREACHABLE`].
    pub fn new(g: &Graph) -> Self {
        use rayon::prelude::*;
        let nr = g.num_vertices();
        let mut dist = vec![UNREACHABLE; nr * nr];
        let sources: Vec<u32> = (0..nr as u32).collect();
        let block_max: Vec<u32> = dist
            .chunks_mut((metrics::BFS_BATCH * nr).max(1))
            .zip(sources.chunks(metrics::BFS_BATCH))
            .into_par_iter()
            .map(|(rows, batch)| {
                let mut max = 0;
                metrics::multi_source_bfs(g, batch, |d, v, mut bits| {
                    max = d;
                    let d = d.min(254) as u8;
                    while bits != 0 {
                        rows[bits.trailing_zeros() as usize * nr + v as usize] = d;
                        bits &= bits - 1;
                    }
                });
                max
            })
            .collect();
        let max_dist = block_max.into_iter().max().unwrap_or(0).min(254) as u8;
        RoutingTables { nr, dist, max_dist }
    }

    /// Number of routers covered.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.nr
    }

    /// Hop distance from `u` to `v` ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn distance(&self, u: u32, v: u32) -> u8 {
        self.dist[u as usize * self.nr + v as usize]
    }

    /// The contiguous distance row of `u`: `row(u)[v] == distance(u, v)`.
    ///
    /// Since router graphs are undirected the matrix is symmetric, so
    /// `row(d)[v]` is also the distance *from* `v` *to* `d` — hot loops
    /// that probe many sources against one destination (ECMP next-hop
    /// counting, Valiant candidate screening) use this row to stay
    /// within one cache-resident slice instead of striding the matrix
    /// column-wise.
    #[inline]
    pub fn row(&self, u: u32) -> &[u8] {
        &self.dist[u as usize * self.nr..(u as usize + 1) * self.nr]
    }

    /// All neighbors of `u` lying on some shortest path to `d`
    /// (the ECMP next-hop set for MIN routing).
    pub fn min_next_hops<'a>(
        &'a self,
        g: &'a Graph,
        u: u32,
        d: u32,
    ) -> impl Iterator<Item = u32> + 'a {
        // Symmetric matrix: distance(v, d) read from row d (cache-hot
        // across the whole query instead of striding a column).
        let row = self.row(d);
        let need = row[u as usize];
        g.neighbors(u)
            .iter()
            .copied()
            .filter(move |&v| need != UNREACHABLE && row[v as usize] + 1 == need)
    }

    /// Maximum finite distance (the diameter if connected), recorded at
    /// construction.
    #[inline]
    pub fn max_distance(&self) -> u8 {
        self.max_dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn distances_on_cycle() {
        let g = cycle(6);
        let t = RoutingTables::new(&g);
        assert_eq!(t.distance(0, 0), 0);
        assert_eq!(t.distance(0, 1), 1);
        assert_eq!(t.distance(0, 3), 3);
        assert_eq!(t.distance(0, 5), 1);
        assert_eq!(t.max_distance(), 3);
    }

    #[test]
    fn next_hops_ecmp() {
        let g = cycle(6);
        let t = RoutingTables::new(&g);
        // From 0 to the antipode 3: both directions are minimal.
        let hops: Vec<u32> = t.min_next_hops(&g, 0, 3).collect();
        assert_eq!(hops.len(), 2);
        assert!(hops.contains(&1) && hops.contains(&5));
        // From 0 to 1: single next hop.
        let hops: Vec<u32> = t.min_next_hops(&g, 0, 1).collect();
        assert_eq!(hops, vec![1]);
    }

    #[test]
    fn disconnected_marked_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let t = RoutingTables::new(&g);
        assert_eq!(t.distance(0, 2), UNREACHABLE);
        assert_eq!(t.min_next_hops(&g, 0, 2).count(), 0);
    }
}
