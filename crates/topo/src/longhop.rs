//! Long Hop networks (Tomic \[56\], §E-S-3) — hypercubes augmented with
//! "long hop" links to raise bisection bandwidth (to ~3N/2) at the cost
//! of extra router ports.
//!
//! **Substitution note:** Tomic derives the augmenting links from
//! optimal error-correcting codes; the published generator tables are
//! not available offline. We substitute a deterministic family of
//! XOR-mask links that preserves the construction's *shape*: each
//! router `v` gains `L` extra links `v ~ v ⊕ mask_i` where the masks are
//! chosen with large pairwise Hamming distance (complement mask,
//! alternating masks, and block-rotated half-weight masks). This keeps
//! the defining properties the paper relies on: vertex-transitive
//! Cayley-graph structure over (Z_2)^d, diameter in the 4–6 band for
//! 2^8–2^13 endpoints, and a bisection uplift toward 3N/2.

use crate::network::{Network, TopologyKind};
use sf_graph::Graph;

/// A Long Hop augmented hypercube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LongHop {
    /// Base hypercube dimension.
    pub d: u32,
    /// Augmenting XOR masks (each adds one port per router).
    pub masks: Vec<u32>,
    /// Endpoints per router.
    pub p: u32,
}

impl LongHop {
    /// The default LH-HC family used for the paper comparisons: base
    /// hypercube of dimension `d` plus `l` long-hop masks.
    pub fn new(d: u32, l: u32) -> Self {
        assert!((3..31).contains(&d));
        let masks = default_masks(d, l);
        LongHop { d, masks, p: 1 }
    }

    /// Smallest LH-HC with at least `n` routers (default l = 3 masks,
    /// enough to lift the bisection above N).
    pub fn at_least(n: usize) -> Self {
        let mut d = 3;
        while (1usize << d) < n {
            d += 1;
        }
        LongHop::new(d, 3)
    }

    /// Number of routers `2^d`.
    pub fn num_routers(&self) -> usize {
        1usize << self.d
    }

    /// Network radix `k' = d + |masks|`.
    pub fn network_radix(&self) -> u32 {
        self.d + self.masks.len() as u32
    }

    /// Builds the router graph: hypercube links plus mask links.
    pub fn router_graph(&self) -> Graph {
        let n = self.num_routers();
        let mut g = Graph::empty(n);
        let full = (n - 1) as u32;
        for v in 0..n as u32 {
            for bit in 0..self.d {
                let u = v ^ (1 << bit);
                if v < u {
                    g.add_edge(v, u);
                }
            }
            for &m in &self.masks {
                let u = v ^ (m & full);
                if v < u {
                    g.add_edge(v, u);
                }
            }
        }
        g
    }

    /// Builds the network.
    pub fn network(&self) -> Network {
        Network::with_uniform_concentration(
            self.router_graph(),
            self.p,
            format!("LH-HC(d={},l={})", self.d, self.masks.len()),
            TopologyKind::LongHop {
                d: self.d,
                l: self.masks.len() as u32,
            },
        )
    }
}

/// Deterministic long-hop masks: complement, alternating 0101…, its
/// complement, then block-rotated half-weight masks. All masks are
/// non-zero, distinct, and of Hamming weight ≥ d/2 (they are "long"
/// hops). Single-bit masks (hypercube links) are never produced.
fn default_masks(d: u32, l: u32) -> Vec<u32> {
    let full: u32 = if d == 31 { u32::MAX } else { (1 << d) - 1 };
    let mut masks: Vec<u32> = Vec::new();
    let push = |m: u32, masks: &mut Vec<u32>| {
        let m = m & full;
        if m != 0 && m.count_ones() >= d / 2 && !masks.contains(&m) {
            masks.push(m);
        }
    };
    push(full, &mut masks); // complement hop
    let alt = 0x5555_5555u32;
    push(alt, &mut masks);
    push(!alt, &mut masks);
    // Rotated half-blocks: low half set, rotated by i.
    let half = (1u32 << (d / 2)) - 1;
    let mut i = 1;
    while (masks.len() as u32) < l && i < d {
        let m = ((half << i) | (half >> (d - i))) & full;
        push(m, &mut masks);
        i += 1;
    }
    masks.truncate(l as usize);
    masks
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_graph::{metrics, partition};

    #[test]
    fn structure() {
        let lh = LongHop::new(6, 3);
        let g = lh.router_graph();
        assert_eq!(g.num_vertices(), 64);
        assert!(g.is_regular());
        assert_eq!(g.max_degree() as u32, lh.network_radix());
    }

    #[test]
    fn masks_are_long_hops() {
        for d in 4..=13u32 {
            let lh = LongHop::new(d, 3);
            assert_eq!(lh.masks.len(), 3, "d={d}");
            for &m in &lh.masks {
                assert!(m.count_ones() >= d / 2, "mask {m:#b} too short for d={d}");
                assert!(m < (1 << d));
            }
        }
    }

    #[test]
    fn diameter_reduced_vs_hypercube() {
        // Complement + alternating hops roughly halve the diameter:
        // paper band for LH-HC is 4–6 over 2^8..2^13 endpoints.
        for d in 8..=10u32 {
            let lh = LongHop::new(d, 3);
            let g = lh.router_graph();
            let diam = metrics::diameter(&g).unwrap();
            assert!(
                diam < d && (3..=6).contains(&diam),
                "d={d}: LH diameter {diam} outside expected band"
            );
        }
    }

    #[test]
    fn bisection_exceeds_hypercube() {
        let d = 8;
        let lh = LongHop::new(d, 3);
        let hc = crate::hypercube::Hypercube::new(d);
        let bl = partition::bisect(&lh.router_graph(), 8, 1).cut;
        let bh = partition::bisect(&hc.router_graph(), 8, 1).cut;
        assert!(
            bl > bh,
            "long hops must raise the bisection: LH {bl} vs HC {bh}"
        );
        // Target band: LH-HC is designed for ~3N/2; accept ≥ N
        // (our partitioner reports an upper bound on the min cut).
        assert!(bl as usize >= lh.num_routers(), "bl={bl}");
    }

    #[test]
    fn connected_and_vertex_transitive_degrees() {
        let lh = LongHop::at_least(256);
        assert_eq!(lh.d, 8);
        let g = lh.router_graph();
        assert!(metrics::is_connected(&g));
        assert!(g.is_regular());
    }
}
