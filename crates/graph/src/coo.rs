//! Coordinate-format (COO) edge list.
//!
//! The paper's input format: "The input graph is represented in the coordinate
//! format as a list of vertex pairs, where `(v_src, v_dst)` denotes an edge"
//! (§III-B). [`EdgeList`] is that representation, with validation helpers and
//! conversion into [`crate::Csr`].

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// An edge list in coordinate (COO) format.
///
/// Stores `(src, dst)` pairs together with the number of nodes. For undirected
/// graphs each edge is stored once; the CSR conversion mirrors it.
///
/// # Example
///
/// ```
/// use mega_graph::EdgeList;
///
/// # fn main() -> Result<(), mega_graph::GraphError> {
/// let coo = EdgeList::from_pairs(3, vec![(0, 1), (1, 2)])?;
/// assert_eq!(coo.len(), 2);
/// assert_eq!(coo.pairs()[0], (0, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeList {
    node_count: usize,
    pairs: Vec<(usize, usize)>,
}

impl EdgeList {
    /// Creates an empty edge list over `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        EdgeList {
            node_count,
            pairs: Vec::new(),
        }
    }

    /// Creates an edge list from explicit pairs, validating every endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= node_count`.
    pub fn from_pairs(node_count: usize, pairs: Vec<(usize, usize)>) -> Result<Self, GraphError> {
        for &(s, d) in &pairs {
            if s >= node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: s,
                    node_count,
                });
            }
            if d >= node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: d,
                    node_count,
                });
            }
        }
        Ok(EdgeList { node_count, pairs })
    }

    /// Appends an edge without validation against duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn push(&mut self, src: usize, dst: usize) -> Result<(), GraphError> {
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
        Ok(())
    }

    /// Number of nodes this edge list is defined over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of stored edge pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Borrow the raw `(src, dst)` pairs.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Returns a copy with all duplicate pairs and self-loops removed.
    ///
    /// For undirected use, `(a, b)` and `(b, a)` are considered duplicates and
    /// only the first-seen orientation is kept when `undirected` is true.
    pub fn deduplicated(&self, undirected: bool) -> EdgeList {
        // mega-lint: allow(unordered-collection, reason = "membership test only; output follows self.pairs order")
        let mut seen = std::collections::HashSet::with_capacity(self.pairs.len());
        let mut out = Vec::with_capacity(self.pairs.len());
        for &(s, d) in &self.pairs {
            if s == d {
                continue;
            }
            let key = if undirected {
                (s.min(d), s.max(d))
            } else {
                (s, d)
            };
            if seen.insert(key) {
                out.push((s, d));
            }
        }
        EdgeList {
            node_count: self.node_count,
            pairs: out,
        }
    }

    /// Iterates over the `(src, dst)` pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, (usize, usize)> {
        self.pairs.iter()
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a (usize, usize);
    type IntoIter = std::slice::Iter<'a, (usize, usize)>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

impl Extend<(usize, usize)> for EdgeList {
    fn extend<T: IntoIterator<Item = (usize, usize)>>(&mut self, iter: T) {
        // Endpoints are validated lazily by Graph construction; extend keeps
        // the collection contract infallible as required by the trait.
        self.pairs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_validates_endpoints() {
        assert!(EdgeList::from_pairs(2, vec![(0, 1)]).is_ok());
        assert_eq!(
            EdgeList::from_pairs(2, vec![(0, 2)]),
            Err(GraphError::NodeOutOfRange {
                node: 2,
                node_count: 2
            })
        );
    }

    #[test]
    fn push_validates() {
        let mut e = EdgeList::new(3);
        e.push(0, 2).unwrap();
        assert!(e.push(3, 0).is_err());
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn deduplicated_removes_loops_and_mirrors() {
        let e = EdgeList::from_pairs(3, vec![(0, 1), (1, 0), (1, 1), (1, 2)]).unwrap();
        let und = e.deduplicated(true);
        assert_eq!(und.pairs(), &[(0, 1), (1, 2)]);
        let dir = e.deduplicated(false);
        assert_eq!(dir.pairs(), &[(0, 1), (1, 0), (1, 2)]);
    }

    #[test]
    fn iteration_and_extend() {
        let mut e = EdgeList::new(4);
        e.extend([(0, 1), (2, 3)]);
        let got: Vec<_> = e.iter().copied().collect();
        assert_eq!(got, vec![(0, 1), (2, 3)]);
    }
}
