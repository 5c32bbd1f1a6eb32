//! Compact undirected simple graph.
//!
//! Vertices are `0..n` as `u32`; adjacency lists are kept sorted so that
//! `has_edge` is a binary search and neighbor iteration is cache-friendly.
//! Router-level network topologies in this workspace are all simple
//! undirected graphs (each full-duplex cable is one edge; the two directed
//! channels it carries are modelled at the routing/simulation layer).

/// An undirected simple graph with `u32` vertex identifiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list. Self-loops are rejected (panic);
    /// duplicate edges are deduplicated.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Graph::empty(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds the undirected edge {u, v} if not already present.
    /// Returns `true` if the edge was inserted.
    ///
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert_ne!(u, v, "self-loops are not allowed (u = v = {u})");
        let n = self.adj.len() as u32;
        assert!(u < n && v < n, "edge ({u},{v}) out of range (n = {n})");
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(pos_u) => {
                self.adj[u as usize].insert(pos_u, v);
                let pos_v = self.adj[v as usize].binary_search(&u).unwrap_err();
                self.adj[v as usize].insert(pos_v, u);
                self.num_edges += 1;
                true
            }
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// True iff the undirected edge {u, v} exists.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Maximum vertex degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum vertex degree (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// True iff every vertex has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// Average vertex degree.
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.adj.len() as f64
        }
    }

    /// Canonical edge list: each edge once as `(u, v)` with `u < v`,
    /// sorted lexicographically.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, nbrs) in self.adj.iter().enumerate() {
            let u = u as u32;
            for &v in nbrs {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Returns a copy of this graph with the given edges removed.
    /// Edges not present are ignored; orientation does not matter.
    pub fn without_edges(&self, removed: &[(u32, u32)]) -> Graph {
        let mut kill: Vec<(u32, u32)> = removed
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        kill.sort_unstable();
        // `edge_list` is sorted the same way, so one merge pass finds
        // every kill (duplicates and non-edges are skipped over).
        let mut kill = kill.into_iter().peekable();
        let mut g = Graph::empty(self.num_vertices());
        for e in self.edge_list() {
            while kill.next_if(|k| *k < e).is_some() {}
            if kill.peek() != Some(&e) {
                g.add_edge(e.0, e.1);
            }
        }
        g
    }

    /// Sum of all degrees (= 2·|E|); sanity-check helper.
    pub fn degree_sum(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_regular());
    }

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 2);
        assert!(g.is_regular());
        assert_eq!(g.avg_degree(), 2.0);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Graph::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Graph::from_edges(3, &[(0, 3)]);
    }

    #[test]
    fn edge_list_canonical() {
        let g = Graph::from_edges(4, &[(3, 1), (2, 0), (1, 0)]);
        assert_eq!(g.edge_list(), vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn without_edges_removes() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let h = g.without_edges(&[(1, 0), (2, 3)]);
        assert_eq!(h.num_edges(), 2);
        assert!(!h.has_edge(0, 1));
        assert!(!h.has_edge(2, 3));
        assert!(h.has_edge(1, 2));
        // removing a non-existent edge is a no-op
        let h2 = g.without_edges(&[(0, 2)]);
        assert_eq!(h2.num_edges(), 4);
        // unsorted, repeated and interleaved with a non-edge
        assert_eq!(g.without_edges(&[(3, 2), (0, 2), (1, 0), (3, 2)]), h);
    }

    #[test]
    fn degree_sum_is_twice_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        assert_eq!(g.degree_sum(), 2 * g.num_edges());
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
        assert!(!g.is_regular());
    }
}
