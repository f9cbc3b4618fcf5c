//! The path representation of a graph (paper Fig. 7).
//!
//! A [`PathRepresentation`] is the reordered sequence of node appearances
//! produced by the traversal, together with virtual-edge marks and per-node
//! position lists. Embeddings laid out in this order are accessed strictly
//! sequentially during banded attention.

use crate::traversal::Traversal;
use serde::{Deserialize, Serialize};

/// A graph reorganized as a path of node appearances.
///
/// # Example
///
/// ```
/// use mega_core::{traverse, MegaConfig, PathRepresentation};
/// use mega_graph::generate;
///
/// # fn main() -> Result<(), mega_core::MegaError> {
/// let g = generate::cycle(6).unwrap();
/// let t = traverse(&g, &MegaConfig::default())?;
/// let p = PathRepresentation::from_traversal(&t);
/// assert_eq!(p.node_count(), 6);
/// assert!(p.len() >= 6);
/// // Every node appears at least once.
/// assert!(p.node_positions().iter().all(|ps| !ps.is_empty()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathRepresentation {
    path: Vec<usize>,
    virtual_step: Vec<bool>,
    node_positions: Vec<Vec<usize>>,
    window: usize,
}

impl PathRepresentation {
    /// Builds the representation from a finished traversal.
    pub fn from_traversal(t: &Traversal) -> Self {
        Self::new(
            t.path.clone(),
            t.virtual_step.clone(),
            t.working_graph.node_count(),
            t.window,
        )
    }

    /// Takes ownership of a walk's path over `n` nodes and indexes it.
    pub(crate) fn new(path: Vec<usize>, virtual_step: Vec<bool>, n: usize, window: usize) -> Self {
        let mut count = vec![0usize; n];
        for &v in &path {
            count[v] += 1;
        }
        let mut node_positions: Vec<Vec<usize>> =
            count.into_iter().map(Vec::with_capacity).collect();
        for (i, &v) in path.iter().enumerate() {
            node_positions[v].push(i);
        }
        PathRepresentation {
            path,
            virtual_step,
            node_positions,
            window,
        }
    }

    /// Number of path positions (node appearances), `L`.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// Number of distinct nodes, `n`.
    pub fn node_count(&self) -> usize {
        self.node_positions.len()
    }

    /// The window ω the path was built for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The node id at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn node_at(&self, i: usize) -> usize {
        self.path[i]
    }

    /// The full position→node sequence.
    pub fn nodes(&self) -> &[usize] {
        &self.path
    }

    /// Per-node sorted position lists: `node_positions()[v]` are the path
    /// positions where node `v` appears.
    pub fn node_positions(&self) -> &[Vec<usize>] {
        &self.node_positions
    }

    /// Positions of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count()`.
    pub fn positions_of(&self, v: usize) -> &[usize] {
        &self.node_positions[v]
    }

    /// Number of appearances of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count()`.
    pub fn appearance_count(&self, v: usize) -> usize {
        self.node_positions[v].len()
    }

    /// Whether the step into position `i` rides a virtual edge.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn is_virtual_step(&self, i: usize) -> bool {
        self.virtual_step[i]
    }

    /// Total revisits: `len() - node_count()` (every appearance past a node's
    /// first), saturating at 0 for paths that omit isolated nodes.
    pub fn revisit_count(&self) -> usize {
        self.path
            .len()
            .saturating_sub(self.node_positions.iter().filter(|p| !p.is_empty()).count())
    }

    /// Number of virtual steps in the path.
    pub fn virtual_edge_count(&self) -> usize {
        self.virtual_step.iter().filter(|&&b| b).count()
    }

    /// `L / n`: the memory-expansion factor of the representation.
    pub fn expansion_factor(&self) -> f64 {
        if self.node_count() == 0 {
            return 1.0;
        }
        self.len() as f64 / self.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MegaConfig, WindowPolicy};
    use crate::traversal::traverse;
    use mega_graph::generate;

    fn rep(g: &mega_graph::Graph, w: usize) -> PathRepresentation {
        let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(w));
        PathRepresentation::from_traversal(&traverse(g, &cfg).unwrap())
    }

    #[test]
    fn positions_are_consistent() {
        let g = generate::complete(6).unwrap();
        let p = rep(&g, 2);
        for v in 0..6 {
            for &i in p.positions_of(v) {
                assert_eq!(p.node_at(i), v);
            }
        }
        let total: usize = (0..6).map(|v| p.appearance_count(v)).sum();
        assert_eq!(total, p.len());
    }

    #[test]
    fn revisit_count_matches_traversal() {
        let g = generate::complete(8).unwrap();
        let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(1));
        let t = traverse(&g, &cfg).unwrap();
        let p = PathRepresentation::from_traversal(&t);
        assert_eq!(p.revisit_count(), t.revisits);
        assert_eq!(p.virtual_edge_count(), t.virtual_edge_count);
    }

    #[test]
    fn expansion_factor_at_least_one() {
        for n in [3usize, 7, 12] {
            let g = generate::cycle(n).unwrap();
            let p = rep(&g, 1);
            assert!(p.expansion_factor() >= 1.0);
        }
    }

    #[test]
    fn first_step_never_virtual() {
        let g = generate::path(5).unwrap();
        let p = rep(&g, 1);
        assert!(!p.is_virtual_step(0));
    }
}
