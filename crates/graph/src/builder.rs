//! Incremental, validating construction of [`Graph`]s.

use crate::coo::EdgeList;
use crate::error::GraphError;
use crate::graph::{Direction, Graph};

/// Builder for [`Graph`], validating each edge as it is added.
///
/// Follows the non-consuming builder pattern: configuration methods take
/// `&mut self` and the terminal [`GraphBuilder::build`] takes `&self`, so both
/// one-liners and incremental construction read naturally.
///
/// # Example
///
/// ```
/// use mega_graph::GraphBuilder;
///
/// # fn main() -> Result<(), mega_graph::GraphError> {
/// // One-liner.
/// let g = GraphBuilder::undirected(3).edges([(0, 1), (1, 2)])?.build()?;
/// assert_eq!(g.edge_count(), 2);
///
/// // Incremental.
/// let mut b = GraphBuilder::directed(2);
/// b.edge(0, 1)?;
/// b.edge(1, 0)?; // distinct orientation, allowed in a directed graph
/// let d = b.build()?;
/// assert_eq!(d.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    direction: Direction,
    pairs: Vec<(usize, usize)>,
    dedup: bool,
}

impl GraphBuilder {
    /// Starts building an undirected graph over `node_count` nodes.
    pub fn undirected(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            direction: Direction::Undirected,
            pairs: Vec::new(),
            dedup: false,
        }
    }

    /// Starts building a directed graph over `node_count` nodes.
    pub fn directed(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            direction: Direction::Directed,
            pairs: Vec::new(),
            dedup: false,
        }
    }

    /// When enabled, duplicate edges and self-loops are silently dropped at
    /// [`GraphBuilder::build`] time instead of producing errors. Useful for
    /// random generators that may propose collisions.
    pub fn dedup(&mut self, yes: bool) -> &mut Self {
        self.dedup = yes;
        self
    }

    /// Adds a single edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn edge(&mut self, src: usize, dst: usize) -> Result<&mut Self, GraphError> {
        if src >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: src,
                node_count: self.node_count,
            });
        }
        if dst >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: dst,
                node_count: self.node_count,
            });
        }
        self.pairs.push((src, dst));
        Ok(self)
    }

    /// Adds many edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] on the first invalid endpoint;
    /// edges before it are retained in the builder.
    pub fn edges<I>(&mut self, iter: I) -> Result<&mut Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        for (s, d) in iter {
            self.edge(s, d)?;
        }
        Ok(self)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Propagates [`Graph::from_edge_list`] validation errors (empty graph,
    /// self-loops, duplicates) unless [`GraphBuilder::dedup`] was enabled.
    pub fn build(&self) -> Result<Graph, GraphError> {
        let coo = EdgeList::from_pairs(self.node_count, self.pairs.clone())?;
        let coo = if self.dedup {
            coo.deduplicated(self.direction == Direction::Undirected)
        } else {
            coo
        };
        Graph::from_edge_list(coo, self.direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_undirected() {
        let g = GraphBuilder::undirected(3)
            .edges([(0, 1), (1, 2)])
            .unwrap()
            .build()
            .unwrap();
        assert!(g.is_undirected());
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn rejects_out_of_range_eagerly() {
        let mut b = GraphBuilder::undirected(2);
        assert!(b.edge(0, 5).is_err());
        // The rejected edge was not staged.
        assert_eq!(b.edge(0, 1).unwrap().build().unwrap().edge_count(), 1);
    }

    #[test]
    fn dedup_mode_tolerates_collisions() {
        let g = GraphBuilder::undirected(3)
            .dedup(true)
            .edges([(0, 1), (1, 0), (1, 1), (1, 2)])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn strict_mode_propagates_duplicates() {
        let mut b = GraphBuilder::undirected(3);
        b.edges([(0, 1), (1, 0)]).unwrap();
        assert_eq!(b.build(), Err(GraphError::DuplicateEdge { src: 1, dst: 0 }));
    }
}
