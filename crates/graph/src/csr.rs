//! Compressed sparse row (CSR) adjacency index.
//!
//! CSR is the layout graph libraries (and the paper's DGL baseline) use for
//! neighbor lookup: `offsets[v]..offsets[v + 1]` indexes into `targets` giving
//! the neighbors of `v`. For undirected graphs both orientations of every edge
//! are materialized.

use crate::coo::EdgeList;
use serde::{Deserialize, Serialize};

/// Compressed sparse row adjacency structure.
///
/// # Example
///
/// ```
/// use mega_graph::{Csr, EdgeList};
///
/// # fn main() -> Result<(), mega_graph::GraphError> {
/// let coo = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)])?;
/// let csr = Csr::from_edge_list(&coo, true);
/// assert_eq!(csr.neighbors(1), &[0, 2]);
/// assert_eq!(csr.degree(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
    /// For each adjacency slot, the index of the originating edge in the
    /// source [`EdgeList`]. Lets callers map neighbor slots back to edge
    /// feature rows.
    edge_ids: Vec<usize>,
}

impl Csr {
    /// Builds a CSR index from an edge list.
    ///
    /// When `undirected` is true each pair `(s, d)` contributes two adjacency
    /// slots, `s -> d` and `d -> s`, that share the same edge id. Neighbor
    /// lists are sorted by target node id for deterministic iteration.
    pub fn from_edge_list(coo: &EdgeList, undirected: bool) -> Self {
        let n = coo.node_count();
        let mut degree = vec![0usize; n];
        for &(s, d) in coo.pairs() {
            degree[s] += 1;
            if undirected && s != d {
                degree[d] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![0usize; acc];
        let mut edge_ids = vec![0usize; acc];
        let mut cursor = offsets[..n].to_vec();
        for (eid, &(s, d)) in coo.pairs().iter().enumerate() {
            targets[cursor[s]] = d;
            edge_ids[cursor[s]] = eid;
            cursor[s] += 1;
            if undirected && s != d {
                targets[cursor[d]] = s;
                edge_ids[cursor[d]] = eid;
                cursor[d] += 1;
            }
        }
        // Sort each row by (target, edge id) for determinism, through one
        // buffer reused across rows; rows already in order are left alone
        // (a row is filled in edge-id order).
        let mut row: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            if targets[lo..hi].windows(2).all(|w| w[0] <= w[1]) {
                continue;
            }
            row.clear();
            row.extend(
                targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(edge_ids[lo..hi].iter().copied()),
            );
            row.sort_unstable();
            for (i, &(t, e)) in row.iter().enumerate() {
                targets[lo + i] = t;
                edge_ids[lo + i] = e;
            }
        }
        Csr {
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of adjacency slots (directed edge count, i.e. `2m` for an
    /// undirected graph with `m` edges).
    pub fn slot_count(&self) -> usize {
        self.targets.len()
    }

    /// The neighbors of `v`, sorted by node id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The edge ids parallel to [`Csr::neighbors`]: `edge_ids(v)[i]` is the
    /// index in the original edge list of the edge connecting `v` with
    /// `neighbors(v)[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn edge_ids(&self, v: usize) -> &[usize] {
        &self.edge_ids[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree (number of adjacency slots) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The raw offsets array (`node_count + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw targets array.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// Whether `a` and `b` are adjacent (binary search over `a`'s sorted row).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn contains_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The id of the edge stored as `a → b` (either way round for an
    /// undirected graph): a binary search over `a`'s sorted row.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn edge_id(&self, a: usize, b: usize) -> Option<usize> {
        let at = self.neighbors(a).binary_search(&b).ok()?;
        Some(self.edge_ids(a)[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::EdgeList;

    fn triangle() -> EdgeList {
        EdgeList::from_pairs(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn undirected_mirrors_edges() {
        let csr = Csr::from_edge_list(&triangle(), true);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(csr.neighbors(2), &[0, 1]);
        assert_eq!(csr.slot_count(), 6);
    }

    #[test]
    fn directed_keeps_orientation() {
        let csr = Csr::from_edge_list(&triangle(), false);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.slot_count(), 3);
    }

    #[test]
    fn edge_ids_map_back_to_coo() {
        let coo = triangle();
        let csr = Csr::from_edge_list(&coo, true);
        for v in 0..3 {
            for (i, &nbr) in csr.neighbors(v).iter().enumerate() {
                let eid = csr.edge_ids(v)[i];
                let (s, d) = coo.pairs()[eid];
                assert!((s, d) == (v, nbr) || (s, d) == (nbr, v));
            }
        }
    }

    #[test]
    fn contains_edge_queries() {
        let csr = Csr::from_edge_list(&triangle(), true);
        assert!(csr.contains_edge(0, 1));
        assert!(csr.contains_edge(1, 0));
        let path = EdgeList::from_pairs(3, vec![(0, 1)]).unwrap();
        let csr = Csr::from_edge_list(&path, true);
        assert!(!csr.contains_edge(0, 2));
    }

    #[test]
    fn self_loop_single_slot_when_undirected() {
        let coo = EdgeList::from_pairs(2, vec![(0, 0), (0, 1)]).unwrap();
        let csr = Csr::from_edge_list(&coo, true);
        assert_eq!(csr.neighbors(0), &[0, 1]);
        assert_eq!(csr.degree(0), 2);
    }

    #[test]
    fn isolated_nodes_have_empty_rows() {
        let coo = EdgeList::from_pairs(4, vec![(0, 1)]).unwrap();
        let csr = Csr::from_edge_list(&coo, true);
        assert!(csr.neighbors(2).is_empty());
        assert!(csr.neighbors(3).is_empty());
    }
}
