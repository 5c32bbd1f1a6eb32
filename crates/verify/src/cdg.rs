//! The channel dependency graph (Dally & Seitz): nodes are directed
//! channels `(from, to, vc)`, edges connect consecutive channels some
//! packet may hold simultaneously. Routing is deadlock-free iff the
//! CDG is acyclic.
//!
//! The representation is fully deterministic: channels get dense ids in
//! first-seen order (no unordered hash iteration anywhere —
//! `clippy.toml` bans `HashMap`/`HashSet`), the reverse map
//! [`ChannelDependencyGraph::channel`] renders ids back to
//! `(from, to, vc)` triples for cycle witnesses, and successor lists
//! are kept sorted so edges deduplicate in `O(log deg)` and every
//! traversal — including [`ChannelDependencyGraph::find_cycle`] — visits
//! them in one canonical order regardless of insertion history.
//!
//! Two builders resolve a channel to its id. The wormhole builder
//! ([`crate::wormhole`]) indexes a flat table by (CSR link id, VC) and
//! hands each unseen channel to the crate-private `push_channel`.
//! The public [`add_edge`](ChannelDependencyGraph::add_edge),
//! [`add_path`](ChannelDependencyGraph::add_path) and
//! [`try_add_path_acyclic`](ChannelDependencyGraph::try_add_path_acyclic)
//! take arbitrary router ids, so they go through a `BTreeMap` key
//! index; on a graph the wormhole builder made, the first of them
//! fills that index once from the channel list.

use std::collections::BTreeMap;

/// A channel dependency graph over directed channels tagged with VCs.
#[derive(Default)]
pub struct ChannelDependencyGraph {
    /// Key index of the public builders: (from, to, vc) → dense id.
    /// Empty on a graph [`Self::push_channel`] built until one of them
    /// runs (see [`Self::channel_id`]).
    ids: BTreeMap<(u32, u32, u8), u32>,
    /// Reverse map: dense id → (from, to, vc), for witness rendering.
    chans: Vec<(u32, u32, u8)>,
    /// Adjacency: sorted, deduplicated dependency edges between ids.
    succ: Vec<Vec<u32>>,
}

impl ChannelDependencyGraph {
    /// Creates an empty CDG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dense id of channel `(from, to, vc)`, allocating on first use.
    fn channel_id(&mut self, from: u32, to: u32, vc: u8) -> u32 {
        if self.ids.len() < self.chans.len() {
            // Channels pushed without the key index: index them once.
            self.ids = (0..).zip(&self.chans).map(|(id, &ch)| (ch, id)).collect();
        }
        let next = self.chans.len() as u32;
        let id = *self.ids.entry((from, to, vc)).or_insert(next);
        if id == next {
            self.chans.push((from, to, vc));
            self.succ.push(Vec::new());
        }
        id
    }

    /// Appends a channel the caller's own index has not seen and
    /// returns its id, the next in first-seen order. The caller must
    /// never push one channel twice.
    pub(crate) fn push_channel(&mut self, ch: (u32, u32, u8)) -> u32 {
        self.chans.push(ch);
        self.succ.push(Vec::new());
        self.chans.len() as u32 - 1
    }

    /// Inserts edge `p → c` into the sorted successor list; returns the
    /// insertion position, or `None` if the edge already existed.
    pub(crate) fn insert_succ(&mut self, p: u32, c: u32) -> Option<usize> {
        match self.succ[p as usize].binary_search(&c) {
            Ok(_) => None,
            Err(pos) => {
                self.succ[p as usize].insert(pos, c);
                Some(pos)
            }
        }
    }

    /// Adds one dependency edge between explicit channels. Returns
    /// `true` if the edge was new.
    pub fn add_edge(&mut self, from: (u32, u32, u8), to: (u32, u32, u8)) -> bool {
        let p = self.channel_id(from.0, from.1, from.2);
        let c = self.channel_id(to.0, to.1, to.2);
        self.insert_succ(p, c).is_some()
    }

    /// Adds the dependencies induced by routing `path` with per-hop VCs
    /// `vcs` (`vcs.len() == path.len() − 1`).
    pub fn add_path(&mut self, path: &[u32], vcs: &[u8]) {
        assert_eq!(vcs.len(), path.len().saturating_sub(1));
        let mut prev: Option<u32> = None;
        for (i, w) in path.windows(2).enumerate() {
            let c = self.channel_id(w[0], w[1], vcs[i]);
            if let Some(p) = prev {
                self.insert_succ(p, c);
            }
            prev = Some(c);
        }
    }

    /// Number of distinct channels seen.
    pub fn num_channels(&self) -> usize {
        self.chans.len()
    }

    /// Number of distinct dependency edges.
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// The `(from, to, vc)` triple behind a dense channel id.
    pub fn channel(&self, id: u32) -> (u32, u32, u8) {
        self.chans[id as usize]
    }

    /// The sorted successor ids of channel `id`.
    #[cfg(test)]
    pub(crate) fn successors(&self, id: u32) -> &[u32] {
        &self.succ[id as usize]
    }

    /// Attempts to add `path` (all hops on VC `vc`); if the addition
    /// would create a cycle the graph is rolled back and `false` is
    /// returned. Used by the incremental layered assignment.
    pub fn try_add_path_acyclic(&mut self, path: &[u32], vc: u8) -> bool {
        let ids_before = self.chans.len();
        // (node, position) of each inserted edge, in insertion order:
        // LIFO removal by recorded position exactly undoes them.
        let mut inserted: Vec<(u32, usize)> = Vec::new();
        let mut new_edges: Vec<(u32, u32)> = Vec::new();
        let mut prev: Option<u32> = None;
        for w in path.windows(2) {
            let c = self.channel_id(w[0], w[1], vc);
            if let Some(p) = prev {
                if let Some(pos) = self.insert_succ(p, c) {
                    inserted.push((p, pos));
                    new_edges.push((p, c));
                }
            }
            prev = Some(c);
        }
        // Cycle exists iff some new edge (p → c) closes a path c ⇝ p.
        let ok = new_edges.iter().all(|&(p, c)| !self.reaches(c, p));
        if !ok {
            for &(node, pos) in inserted.iter().rev() {
                self.succ[node as usize].remove(pos);
            }
            for &key in &self.chans[ids_before..] {
                self.ids.remove(&key);
            }
            self.chans.truncate(ids_before);
            self.succ.truncate(ids_before);
        }
        ok
    }

    /// DFS reachability from `from` to `to`.
    fn reaches(&self, from: u32, to: u32) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.succ.len()];
        let mut stack = vec![from];
        seen[from as usize] = true;
        while let Some(v) = stack.pop() {
            for &u in &self.succ[v as usize] {
                if u == to {
                    return true;
                }
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        false
    }

    /// True iff the dependency graph is acyclic (⇒ deadlock-free).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Extracts one dependency cycle as a channel witness, or `None`
    /// if the graph is acyclic. The witness is a closed chain: the
    /// last channel equals the first, and each consecutive pair is a
    /// dependency edge. Deterministic: the iterative three-color DFS
    /// scans ids in ascending order and successor lists are sorted, so
    /// the same graph always yields the same witness.
    pub fn find_cycle(&self) -> Option<Vec<(u32, u32, u8)>> {
        let n = self.succ.len();
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..n as u32 {
            if color[start as usize] != 0 {
                continue;
            }
            color[start as usize] = 1;
            stack.push((start, 0));
            while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
                if *idx < self.succ[v as usize].len() {
                    let u = self.succ[v as usize][*idx];
                    *idx += 1;
                    match color[u as usize] {
                        0 => {
                            color[u as usize] = 1;
                            stack.push((u, 0));
                        }
                        1 => {
                            // Back edge v → u: the gray stack segment
                            // from u's frame to the top is the cycle.
                            let pos = stack
                                .iter()
                                .position(|&(w, _)| w == u)
                                .expect("gray node is on the DFS stack");
                            let mut cyc: Vec<(u32, u32, u8)> = stack[pos..]
                                .iter()
                                .map(|&(w, _)| self.chans[w as usize])
                                .collect();
                            cyc.push(self.chans[u as usize]); // close the loop
                            return Some(cyc);
                        }
                        _ => {}
                    }
                } else {
                    color[v as usize] = 2;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Renders a cycle witness as a readable channel chain, eliding the
/// middle of very long cycles.
pub fn render_witness(witness: &[(u32, u32, u8)]) -> String {
    const HEAD: usize = 6;
    const TAIL: usize = 2;
    let fmt = |c: &(u32, u32, u8)| format!("({}→{} vc{})", c.0, c.1, c.2);
    if witness.len() <= HEAD + TAIL + 1 {
        witness.iter().map(fmt).collect::<Vec<_>>().join(" → ")
    } else {
        let head: Vec<String> = witness[..HEAD].iter().map(fmt).collect();
        let tail: Vec<String> = witness[witness.len() - TAIL..].iter().map(fmt).collect();
        format!(
            "{} → … ({} channels elided) … → {}",
            head.join(" → "),
            witness.len() - HEAD - TAIL,
            tail.join(" → ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_deduplicate() {
        let mut cdg = ChannelDependencyGraph::new();
        assert!(cdg.add_edge((0, 1, 0), (1, 2, 0)));
        assert!(!cdg.add_edge((0, 1, 0), (1, 2, 0)), "duplicate rejected");
        cdg.add_path(&[0, 1, 2], &[0, 0]);
        assert_eq!(cdg.num_channels(), 2);
        assert_eq!(cdg.num_edges(), 1);
    }

    #[test]
    fn pushed_channels_keep_their_ids_in_the_public_builders() {
        let mut cdg = ChannelDependencyGraph::new();
        let a = cdg.push_channel((0, 1, 0));
        let b = cdg.push_channel((1, 2, 0));
        cdg.insert_succ(a, b);
        assert!(!cdg.add_edge((0, 1, 0), (1, 2, 0)), "known edge");
        cdg.add_path(&[1, 2, 0], &[0, 0]);
        assert_eq!((cdg.num_channels(), cdg.num_edges()), (3, 2));
        assert_eq!(cdg.successors(b), [2]);
    }

    #[test]
    fn witness_is_a_closed_dependency_chain() {
        // 4 paths chasing each other around a ring on one VC.
        let mut cdg = ChannelDependencyGraph::new();
        for i in 0u32..4 {
            cdg.add_path(&[i, (i + 1) % 4, (i + 2) % 4], &[0, 0]);
        }
        let w = cdg.find_cycle().expect("ring on one VC must cycle");
        assert!(w.len() >= 3);
        assert_eq!(w.first(), w.last(), "witness closes on itself");
        // Every consecutive pair must be a real dependency edge.
        for pair in w.windows(2) {
            let p = cdg.ids[&pair[0]];
            let c = cdg.ids[&pair[1]];
            assert!(cdg.succ[p as usize].binary_search(&c).is_ok());
        }
        // Deterministic: a second extraction is identical.
        assert_eq!(cdg.find_cycle().unwrap(), w);
    }

    #[test]
    fn witness_order_is_insertion_independent() {
        let mut a = ChannelDependencyGraph::new();
        let mut b = ChannelDependencyGraph::new();
        let paths: Vec<Vec<u32>> = (0u32..4)
            .map(|i| vec![i, (i + 1) % 4, (i + 2) % 4])
            .collect();
        for p in &paths {
            a.add_path(p, &[0, 0]);
        }
        for p in paths.iter().rev() {
            b.add_path(p, &[0, 0]);
        }
        // Ids differ (first-seen order), but both find a real cycle and
        // each graph's own extraction is stable.
        assert!(a.find_cycle().is_some() && b.find_cycle().is_some());
    }

    #[test]
    fn rollback_restores_exact_state() {
        let mut cdg = ChannelDependencyGraph::new();
        assert!(cdg.try_add_path_acyclic(&[0, 1, 2], 0));
        let (nc, ne) = (cdg.num_channels(), cdg.num_edges());
        // 1→2→0→1 closes the ring against the existing (0→1)→(1→2)
        // dependency; the insertion must be rejected and rolled back.
        assert!(!cdg.try_add_path_acyclic(&[1, 2, 0, 1], 0));
        assert_eq!((cdg.num_channels(), cdg.num_edges()), (nc, ne));
        assert!(cdg.is_acyclic());
        // Non-conflicting insertions still work afterwards.
        assert!(cdg.try_add_path_acyclic(&[10, 11, 12], 0));
    }

    #[test]
    fn render_elides_long_witnesses() {
        let long: Vec<(u32, u32, u8)> = (0..30).map(|i| (i, i + 1, 0)).collect();
        let s = render_witness(&long);
        assert!(s.contains("elided"));
        let short = vec![(0, 1, 0), (1, 0, 0), (0, 1, 0)];
        assert_eq!(render_witness(&short), "(0→1 vc0) → (1→0 vc0) → (0→1 vc0)");
    }
}
