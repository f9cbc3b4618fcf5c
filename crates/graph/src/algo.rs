//! Basic graph algorithms used by the traversal, statistics and test suites.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Result of a breadth-first search from a source node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or `usize::MAX` if `v`
    /// is unreachable.
    pub dist: Vec<usize>,
    /// Nodes in the order they were first visited.
    pub order: Vec<NodeId>,
}

/// Breadth-first search over `g` from `source`.
///
/// # Panics
///
/// Panics if `source >= g.node_count()`.
///
/// # Example
///
/// ```
/// use mega_graph::{algo, GraphBuilder};
///
/// # fn main() -> Result<(), mega_graph::GraphError> {
/// let g = GraphBuilder::undirected(4).edges([(0, 1), (1, 2)])?.build()?;
/// let bfs = algo::bfs(&g, 0);
/// assert_eq!(bfs.dist[2], 2);
/// assert_eq!(bfs.dist[3], usize::MAX); // isolated
/// # Ok(())
/// # }
/// ```
pub fn bfs(g: &Graph, source: NodeId) -> BfsResult {
    assert!(source < g.node_count(), "bfs source {source} out of range");
    let n = g.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &u in g.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    BfsResult { dist, order }
}

/// Connected components of an undirected graph (weakly connected for directed
/// graphs, since traversal follows stored out-neighbors only).
///
/// Returns `(component_of, component_count)` where `component_of[v]` labels the
/// component of `v` with an id in `0..component_count`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[start] = count;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if comp[u] == usize::MAX {
                    comp[u] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Whether the graph is connected (a single component covering all nodes).
pub fn is_connected(g: &Graph) -> bool {
    connected_components(g).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn two_triangles() -> Graph {
        GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn bfs_distances() {
        let g = GraphBuilder::undirected(5)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4)])
            .unwrap()
            .build()
            .unwrap();
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn components_found() {
        let g = two_triangles();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[5]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
    }
}
