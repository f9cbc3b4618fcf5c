//! Classic Weisfeiler-Lehman color refinement.
//!
//! Every vertex starts with color 0. Each round, a vertex's new color is the
//! canonical id of the pair *(own color, sorted multiset of neighbor
//! colors)*; canonical ids are assigned in a deterministic order shared by
//! every graph refined against the same [`RefinementHistory`]-producing call,
//! so colors are comparable across graphs within one [`refine_pair`] run.

use mega_graph::Graph;
use std::collections::BTreeMap;

/// The per-round colors of one graph under WL refinement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementHistory {
    /// `rounds[k][v]` is the color of vertex `v` after `k` rounds
    /// (`rounds[0]` is the uniform initial coloring).
    pub rounds: Vec<Vec<u64>>,
}

impl RefinementHistory {
    /// Colors after the final round.
    pub fn final_colors(&self) -> &[u64] {
        self.rounds
            .last()
            .expect("at least the initial round exists")
    }

    /// Sorted multiset of colors after round `k`.
    ///
    /// # Panics
    ///
    /// Panics if round `k` was not performed.
    pub fn color_multiset(&self, k: usize) -> Vec<u64> {
        let mut m = self.rounds[k].clone();
        m.sort_unstable();
        m
    }
}

fn refine_rounds(graphs: &[&Graph], iterations: usize) -> Vec<RefinementHistory> {
    let mut histories: Vec<RefinementHistory> = graphs
        .iter()
        .map(|g| RefinementHistory {
            rounds: vec![vec![0u64; g.node_count()]],
        })
        .collect();
    for _ in 0..iterations {
        // One shared canonical dictionary per round keeps colors comparable
        // across all graphs in the batch.
        let mut dict: BTreeMap<(u64, Vec<u64>), u64> = BTreeMap::new();
        // First pass: collect signatures deterministically (graph order, then
        // vertex order) so dictionary ids do not depend on hashing.
        let mut signatures: Vec<Vec<(u64, Vec<u64>)>> = Vec::with_capacity(graphs.len());
        for (gi, g) in graphs.iter().enumerate() {
            let prev = histories[gi].final_colors().to_vec();
            let mut sigs = Vec::with_capacity(g.node_count());
            for v in 0..g.node_count() {
                let mut nb: Vec<u64> = g.neighbors(v).iter().map(|&u| prev[u]).collect();
                nb.sort_unstable();
                sigs.push((prev[v], nb));
            }
            signatures.push(sigs);
        }
        let mut next_id = 0u64;
        for sigs in &signatures {
            for sig in sigs {
                dict.entry(sig.clone()).or_insert_with(|| {
                    let id = next_id;
                    next_id += 1;
                    id
                });
            }
        }
        for (gi, sigs) in signatures.into_iter().enumerate() {
            let colors: Vec<u64> = sigs.into_iter().map(|s| dict[&s]).collect();
            histories[gi].rounds.push(colors);
        }
    }
    histories
}

/// Refines a single graph for `iterations` rounds.
///
/// # Example
///
/// ```
/// use mega_graph::generate;
/// use mega_wl::refine;
///
/// let g = generate::star(5).unwrap();
/// let h = refine(&g, 2);
/// // Hub and leaves get distinct colors after one round.
/// assert_ne!(h.rounds[1][0], h.rounds[1][1]);
/// ```
pub fn refine(g: &Graph, iterations: usize) -> RefinementHistory {
    refine_rounds(&[g], iterations)
        .pop()
        .expect("one history per input graph")
}

/// Refines two graphs against a shared color dictionary.
pub fn refine_pair(
    a: &Graph,
    b: &Graph,
    iterations: usize,
) -> (RefinementHistory, RefinementHistory) {
    let mut hs = refine_rounds(&[a, b], iterations);
    let hb = hs.pop().expect("two histories");
    let ha = hs.pop().expect("two histories");
    (ha, hb)
}

/// Whether `a` and `b` are WL-indistinguishable after `iterations` rounds
/// (same color multiset every round). WL-indistinguishable graphs may still
/// be non-isomorphic, but distinguishable graphs are certainly
/// non-isomorphic.
pub fn wl_indistinguishable(a: &Graph, b: &Graph, iterations: usize) -> bool {
    if a.node_count() != b.node_count() {
        return false;
    }
    let (ha, hb) = refine_pair(a, b, iterations);
    (0..=iterations).all(|k| ha.color_multiset(k) == hb.color_multiset(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_graph::{generate, GraphBuilder};

    #[test]
    fn regular_graphs_stay_monochrome() {
        let g = generate::cycle(8).unwrap();
        let h = refine(&g, 3);
        for round in &h.rounds {
            let first = round[0];
            assert!(round.iter().all(|&c| c == first));
        }
    }

    #[test]
    fn distinguishes_cycle_lengths_by_count() {
        // C6 vs two C3s: same degrees, WL-indistinguishable on colors alone
        // within rounds (both 2-regular) — a known WL blind spot. Node counts
        // equal, multisets equal: expect indistinguishable.
        let c6 = generate::cycle(6).unwrap();
        let two_c3 = GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap()
            .build()
            .unwrap();
        assert!(wl_indistinguishable(&c6, &two_c3, 4));
    }

    #[test]
    fn distinguishes_star_from_path() {
        let star = generate::star(5).unwrap();
        let path = generate::path(5).unwrap();
        assert!(!wl_indistinguishable(&star, &path, 2));
    }

    #[test]
    fn isomorphic_relabelings_are_indistinguishable() {
        // The same 4-cycle under two labelings.
        let a = GraphBuilder::undirected(4)
            .edges([(0, 1), (1, 2), (2, 3), (3, 0)])
            .unwrap()
            .build()
            .unwrap();
        let b = GraphBuilder::undirected(4)
            .edges([(0, 2), (2, 1), (1, 3), (3, 0)])
            .unwrap()
            .build()
            .unwrap();
        assert!(wl_indistinguishable(&a, &b, 4));
    }

    #[test]
    fn node_count_mismatch_short_circuits() {
        let a = generate::cycle(4).unwrap();
        let b = generate::cycle(5).unwrap();
        assert!(!wl_indistinguishable(&a, &b, 1));
    }

    #[test]
    fn refinement_stabilizes() {
        let g = generate::path(6).unwrap();
        let h = refine(&g, 10);
        // Once the partition stabilizes, the number of distinct colors stops
        // growing.
        let distinct = |round: &Vec<u64>| {
            let mut r = round.clone();
            r.sort_unstable();
            r.dedup();
            r.len()
        };
        let last = distinct(&h.rounds[10]);
        let prev = distinct(&h.rounds[9]);
        assert_eq!(last, prev);
    }
}
