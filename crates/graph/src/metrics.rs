//! Distance metrics: BFS, eccentricity, diameter, average path length.
//!
//! These back the paper's §III-A (network diameter), §III-B (average
//! distance, Fig 1), and the resiliency analyses of §III-D.
//!
//! [`bfs_distances`] is the single-source primitive. Everything that
//! needs distances from many sources — the all-pairs metrics here,
//! `sf_routing`'s distance tables and `sf_flow`'s endpoint-weighted hop
//! average — runs on one bit-parallel kernel, [`multi_source_bfs`],
//! which advances [`BFS_BATCH`] sources per pass. The metrics fold its
//! output into a distance histogram, with batches spread over the rayon
//! workers. Every result is an exact integer fold, so it does not depend
//! on the batch or worker order.

use crate::Graph;
use rayon::prelude::*;

/// Marker for "unreachable" in distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances. Unreachable vertices get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, source: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of `source` (max finite BFS distance); `None` if the graph
/// is disconnected as seen from `source` (some vertex unreachable).
pub fn eccentricity(g: &Graph, source: u32) -> Option<u32> {
    let dist = bfs_distances(g, source);
    let mut max = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        max = max.max(d);
    }
    Some(max)
}

/// True iff the graph is connected (vacuously true for n ≤ 1).
pub fn is_connected(g: &Graph) -> bool {
    let n = g.num_vertices();
    if n <= 1 {
        return true;
    }
    let dist = bfs_distances(g, 0);
    dist.iter().all(|&d| d != UNREACHABLE)
}

/// Number of connected components.
pub fn connected_components(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut comp = vec![UNREACHABLE; n];
    let mut count = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as u32 {
        if comp[s as usize] != UNREACHABLE {
            continue;
        }
        comp[s as usize] = count as u32;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == UNREACHABLE {
                    comp[v as usize] = count as u32;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    count
}

/// Sources one [`multi_source_bfs`] pass advances together: one bit of
/// a `u64` word per source.
pub const BFS_BATCH: usize = 64;

/// Multi-source BFS (MS-BFS, Then et al., VLDB 2014): up to
/// [`BFS_BATCH`] sources advance together as the bits of
/// per-vertex `u64` words, so one scan of a frontier vertex's adjacency
/// serves every source whose frontier holds it.
///
/// Calls `visit(d, v, bits)` once per vertex `v` and distance `d` at
/// which some sources first reach `v`: bit `i` of `bits` is set iff
/// `sources[i]` is exactly `d` hops from `v`. Distances arrive in
/// increasing order, starting with the sources themselves at `d = 0`;
/// a (source, vertex) pair that is never visited is unreachable.
///
/// Each level pushes only from the vertices on the current frontier, and
/// a vertex is on it at most once per source, so a pass never scans more
/// adjacency entries than `sources.len()` single-source BFSs do.
pub fn multi_source_bfs(g: &Graph, sources: &[u32], mut visit: impl FnMut(u32, u32, u64)) {
    assert!(
        sources.len() <= BFS_BATCH,
        "at most {BFS_BATCH} sources per pass, got {}",
        sources.len()
    );
    let n = g.num_vertices();
    // `seen[v]`: sources that reached `v` so far. `frontier[v]`/`next[v]`:
    // sources with `v` on the current/next level, nonzero exactly at the
    // vertices listed in `active`/`reached`.
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut active = Vec::with_capacity(sources.len());
    let mut reached = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        if frontier[s as usize] == 0 {
            active.push(s);
        }
        frontier[s as usize] |= 1 << i;
        seen[s as usize] |= 1 << i;
    }
    for &s in &active {
        visit(0, s, frontier[s as usize]);
    }
    let mut level = 0;
    while !active.is_empty() {
        level += 1;
        for &u in &active {
            let bits = std::mem::take(&mut frontier[u as usize]);
            for &v in g.neighbors(u) {
                let new = bits & !seen[v as usize];
                if new != 0 {
                    if next[v as usize] == 0 {
                        reached.push(v);
                    }
                    next[v as usize] |= new;
                    seen[v as usize] |= new;
                }
            }
        }
        for &v in &reached {
            visit(level, v, next[v as usize]);
        }
        // Every `frontier` word is zero again: the next level becomes the
        // frontier, and the cleared array collects the level after it.
        std::mem::swap(&mut frontier, &mut next);
        std::mem::swap(&mut active, &mut reached);
        reached.clear();
    }
}

/// Histogram of the BFS distances from `sources` to every vertex:
/// `hist[d]` counts the (source, vertex) pairs `d` hops apart. `None` if
/// some source does not reach every vertex. Batches of [`BFS_BATCH`]
/// sources run in parallel.
fn distance_histogram_from(g: &Graph, sources: &[u32]) -> Option<Vec<u64>> {
    let n = g.num_vertices();
    let partials: Option<Vec<Vec<u64>>> = sources
        .chunks(BFS_BATCH)
        .into_par_iter()
        .map(|batch| {
            let mut hist: Vec<u64> = Vec::new();
            multi_source_bfs(g, batch, |d, _, bits| {
                let d = d as usize;
                if hist.len() <= d {
                    hist.resize(d + 1, 0);
                }
                hist[d] += bits.count_ones() as u64;
            });
            let pairs: u64 = hist.iter().sum();
            (pairs == (batch.len() * n) as u64).then_some(hist)
        })
        .collect();
    let mut out: Vec<u64> = Vec::new();
    for hist in partials? {
        if out.len() < hist.len() {
            out.resize(hist.len(), 0);
        }
        for (d, c) in hist.into_iter().enumerate() {
            out[d] += c;
        }
    }
    Some(out)
}

/// Sum of the distances a histogram counts.
fn distance_sum(hist: &[u64]) -> u64 {
    hist.iter().enumerate().map(|(d, &c)| d as u64 * c).sum()
}

/// Exact diameter by all-pairs BFS (parallel). `None` if disconnected or
/// the graph has < 2 vertices.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.num_vertices() < 2 {
        return None;
    }
    distance_histogram(g).map(|hist| hist.len() as u32 - 1)
}

/// Exact average shortest-path distance over all ordered vertex pairs
/// (parallel all-pairs BFS). `None` if disconnected or n < 2.
pub fn average_distance(g: &Graph) -> Option<f64> {
    let n = g.num_vertices();
    if n < 2 {
        return None;
    }
    let sum = distance_sum(&distance_histogram(g)?);
    Some(sum as f64 / (n as f64 * (n as f64 - 1.0)))
}

/// Approximate diameter and average distance from a sample of BFS sources
/// (deterministic stride sampling). For very large graphs where exact
/// all-pairs BFS is wasteful. Returns `(max_ecc_seen, avg_distance)`,
/// or `None` if a sampled source cannot reach the full graph.
pub fn sampled_distance_stats(g: &Graph, samples: usize) -> Option<(u32, f64)> {
    let n = g.num_vertices();
    if n < 2 {
        return None;
    }
    let samples = samples.clamp(1, n);
    let stride = (n / samples).max(1);
    let sources: Vec<u32> = (0..n).step_by(stride).map(|v| v as u32).collect();
    let hist = distance_histogram_from(g, &sources)?;
    let avg = distance_sum(&hist) as f64 / (sources.len() as f64 * (n as f64 - 1.0));
    Some((hist.len() as u32 - 1, avg))
}

/// Histogram of pairwise distances: `hist[d]` = number of ordered pairs at
/// distance `d` (index 0 counts the n self-pairs). `None` if disconnected.
pub fn distance_histogram(g: &Graph) -> Option<Vec<u64>> {
    let sources: Vec<u32> = (0..g.num_vertices() as u32).collect();
    distance_histogram_from(g, &sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    fn complete_graph(n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert!(!is_connected(&g));
        assert_eq!(connected_components(&g), 2);
        assert_eq!(diameter(&g), None);
        assert_eq!(average_distance(&g), None);
    }

    #[test]
    fn diameter_known_graphs() {
        assert_eq!(diameter(&path_graph(5)), Some(4));
        assert_eq!(diameter(&complete_graph(6)), Some(1));
        let cycle = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(diameter(&cycle), Some(3));
    }

    #[test]
    fn average_distance_known() {
        // K4: all pairs at distance 1.
        assert_eq!(average_distance(&complete_graph(4)), Some(1.0));
        // Path 0-1-2: distances (ordered): 1,1,1,1,2,2 → avg = 8/6
        let p3 = path_graph(3);
        let avg = average_distance(&p3).unwrap();
        assert!((avg - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn eccentricity_center_vs_leaf() {
        let g = path_graph(5);
        assert_eq!(eccentricity(&g, 0), Some(4));
        assert_eq!(eccentricity(&g, 2), Some(2));
    }

    #[test]
    fn singleton_and_empty() {
        assert!(is_connected(&Graph::empty(1)));
        assert!(is_connected(&Graph::empty(0)));
        assert_eq!(diameter(&Graph::empty(1)), None);
        assert_eq!(connected_components(&Graph::empty(3)), 3);
    }

    #[test]
    fn histogram_consistency() {
        let g = complete_graph(5);
        let h = distance_histogram(&g).unwrap();
        assert_eq!(h, vec![5, 20]); // 5 self-pairs, 20 ordered pairs at d=1
        let total: u64 = h.iter().sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn sampled_matches_exact_on_small() {
        let g = path_graph(9);
        let (max_ecc, avg) = sampled_distance_stats(&g, 9).unwrap();
        assert_eq!(max_ecc, diameter(&g).unwrap());
        assert!((avg - average_distance(&g).unwrap()).abs() < 1e-12);
    }
}
