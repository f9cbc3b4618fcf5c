//! The central [`Graph`] type.

use crate::coo::EdgeList;
use crate::csr::Csr;
use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Node identifier. Nodes of a graph with `n` nodes are `0..n`.
pub type NodeId = usize;

/// Whether a graph's edges are undirected or directed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Each stored edge `(a, b)` connects both `a -> b` and `b -> a`.
    Undirected,
    /// Each stored edge `(a, b)` connects only `a -> b`.
    Directed,
}

/// A finite graph backed by an edge list and a CSR adjacency index.
///
/// `Graph` is the input type consumed by the MEGA traversal, the WL test, the
/// GNN engines and the GPU simulator workloads. It is immutable after
/// construction; use [`crate::GraphBuilder`] to assemble one.
///
/// # Example
///
/// ```
/// use mega_graph::{Graph, GraphBuilder};
///
/// # fn main() -> Result<(), mega_graph::GraphError> {
/// let g = GraphBuilder::undirected(5)
///     .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])?
///     .build()?;
/// assert_eq!(g.degree(2), 2);
/// assert!(g.contains_edge(4, 0));
/// assert!((g.sparsity() - 0.5).abs() < 1e-9); // 5 edges / C(5,2)=10
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    direction: Direction,
    edges: EdgeList,
    csr: Csr,
}

impl Graph {
    /// Builds a graph directly from an edge list.
    ///
    /// Duplicate edges and self-loops are rejected: MEGA's traversal semantics
    /// (unvisited-neighbor bookkeeping) assume a simple graph, matching the
    /// paper's molecular benchmarks.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if `edges.node_count() == 0`.
    /// * [`GraphError::SelfLoop`] on any `(v, v)` pair.
    /// * [`GraphError::DuplicateEdge`] on repeated pairs (orientation-blind
    ///   for undirected graphs).
    /// * [`GraphError::InvalidParameter`] for a node count whose CSR offset
    ///   table could not be allocated at all (a count read from untrusted
    ///   input, say).
    pub fn from_edge_list(edges: EdgeList, direction: Direction) -> Result<Self, GraphError> {
        if edges.node_count() == 0 {
            return Err(GraphError::Empty);
        }
        if edges.node_count() >= isize::MAX as usize / std::mem::size_of::<usize>() {
            return Err(GraphError::InvalidParameter {
                name: "node_count",
                reason: format!("{} nodes exceed any addressable CSR", edges.node_count()),
            });
        }
        let csr = Csr::from_edge_list(&edges, direction == Direction::Undirected);
        // The first bad pair in input order wins: a self-loop, or the second
        // copy of a repeated pair. Copies sit side by side in a sorted CSR
        // row, in edge-id order, so the earliest second copy is the least
        // edge id that follows an equal target.
        let self_loop = edges.pairs().iter().position(|&(s, d)| s == d);
        let repeat = (0..edges.node_count())
            .filter_map(|v| {
                let (targets, ids) = (csr.neighbors(v), csr.edge_ids(v));
                (1..targets.len())
                    .filter(|&i| targets[i] == targets[i - 1])
                    .map(|i| ids[i])
                    .min()
            })
            .min();
        if let Some(at) = self_loop.filter(|&at| repeat.is_none_or(|r| at < r)) {
            return Err(GraphError::SelfLoop {
                node: edges.pairs()[at].0,
            });
        }
        if let Some(at) = repeat {
            let (src, dst) = edges.pairs()[at];
            return Err(GraphError::DuplicateEdge { src, dst });
        }
        Ok(Graph {
            direction,
            edges,
            csr,
        })
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.edges.node_count()
    }

    /// Number of stored edges `m` (each undirected edge counted once).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The graph's edge direction mode.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Whether this graph is undirected.
    pub fn is_undirected(&self) -> bool {
        self.direction == Direction::Undirected
    }

    /// The underlying coordinate-format edge list.
    pub fn edge_list(&self) -> &EdgeList {
        &self.edges
    }

    /// The CSR adjacency index.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Neighbors of `v`, sorted by id. For directed graphs these are the
    /// out-neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count()`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.csr.neighbors(v)
    }

    /// Degree of `v` (out-degree for directed graphs).
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count()`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr.degree(v)
    }

    /// Whether an edge `a -> b` exists (in either direction for undirected
    /// graphs).
    ///
    /// # Panics
    ///
    /// Panics if `a >= node_count()`.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.csr.contains_edge(a, b)
    }

    /// Degree sequence, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.node_count()).map(|v| self.degree(v)).collect()
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        self.csr.slot_count() as f64 / self.node_count() as f64
    }

    /// Maximum degree, or 0 for an edgeless graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Sparsity as defined by the paper (§IV-B1): the ratio of actual edges to
    /// the edges of the fully connected graph on the same nodes.
    ///
    /// For an undirected graph that denominator is `n(n-1)/2`; for a directed
    /// graph `n(n-1)`. Returns 0 for graphs with fewer than 2 nodes.
    pub fn sparsity(&self) -> f64 {
        let n = self.node_count() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let full = match self.direction {
            Direction::Undirected => n * (n - 1.0) / 2.0,
            Direction::Directed => n * (n - 1.0),
        };
        self.edge_count() as f64 / full
    }

    /// Iterates over stored edges as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        let e = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        Graph::from_edge_list(e, Direction::Undirected).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_undirected());
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let e = EdgeList::from_pairs(2, vec![(0, 0)]).unwrap();
        assert_eq!(
            Graph::from_edge_list(e, Direction::Undirected),
            Err(GraphError::SelfLoop { node: 0 })
        );
        let e = EdgeList::from_pairs(2, vec![(0, 1), (1, 0)]).unwrap();
        assert_eq!(
            Graph::from_edge_list(e, Direction::Undirected),
            Err(GraphError::DuplicateEdge { src: 1, dst: 0 })
        );
        // Directed graphs allow the reverse orientation as a distinct edge.
        let e = EdgeList::from_pairs(2, vec![(0, 1), (1, 0)]).unwrap();
        assert!(Graph::from_edge_list(e, Direction::Directed).is_ok());
    }

    #[test]
    fn reports_the_first_bad_pair_in_input_order() {
        let check = |pairs: Vec<(usize, usize)>, direction, expected| {
            let e = EdgeList::from_pairs(6, pairs).unwrap();
            assert_eq!(Graph::from_edge_list(e, direction), Err(expected));
        };
        // Two repeated groups: the one whose second copy comes first is
        // reported, in that copy's orientation, not the one that starts first.
        check(
            vec![(0, 1), (2, 3), (4, 5), (3, 2), (1, 0), (0, 1)],
            Direction::Undirected,
            GraphError::DuplicateEdge { src: 3, dst: 2 },
        );
        check(
            vec![(0, 1), (2, 3), (1, 0), (3, 2), (2, 3), (0, 1)],
            Direction::Directed,
            GraphError::DuplicateEdge { src: 2, dst: 3 },
        );
        // A self-loop before the first repeat wins; one after it does not.
        check(
            vec![(0, 1), (5, 5), (1, 0)],
            Direction::Undirected,
            GraphError::SelfLoop { node: 5 },
        );
        check(
            vec![(0, 1), (1, 0), (5, 5)],
            Direction::Undirected,
            GraphError::DuplicateEdge { src: 1, dst: 0 },
        );
        // A repeated self-loop is a self-loop.
        check(
            vec![(4, 4), (4, 4)],
            Direction::Directed,
            GraphError::SelfLoop { node: 4 },
        );
    }

    #[test]
    fn rejects_an_unaddressable_node_count() {
        let e = EdgeList::from_pairs(usize::MAX, vec![(0, 1)]).unwrap();
        assert!(matches!(
            Graph::from_edge_list(e, Direction::Undirected),
            Err(GraphError::InvalidParameter {
                name: "node_count",
                ..
            })
        ));
    }

    #[test]
    fn rejects_empty() {
        let e = EdgeList::new(0);
        assert_eq!(
            Graph::from_edge_list(e, Direction::Undirected),
            Err(GraphError::Empty)
        );
    }

    #[test]
    fn sparsity_of_complete_graph_is_one() {
        let mut pairs = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                pairs.push((a, b));
            }
        }
        let e = EdgeList::from_pairs(5, pairs).unwrap();
        let g = Graph::from_edge_list(e, Direction::Undirected).unwrap();
        assert!((g.sparsity() - 1.0).abs() < 1e-12);
    }
}
