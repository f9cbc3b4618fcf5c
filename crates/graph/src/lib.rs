//! Graph substrate for the MEGA reproduction.
//!
//! This crate provides the graph data structures and utilities that every other
//! crate in the workspace builds on:
//!
//! * [`Graph`] — the central graph type (undirected or directed), backed by a
//!   compressed sparse row ([`Csr`]) index built from a coordinate-format edge
//!   list ([`EdgeList`]).
//! * [`GraphBuilder`] — incremental, validating construction of [`Graph`]s.
//! * [`stats`] — degree and sparsity statistics used to reproduce Tables II and
//!   III of the paper.
//! * [`ks`] — the two-sample Kolmogorov–Smirnov test used by the paper to show
//!   that degree distributions are consistent within a dataset.
//! * [`algo`] — breadth-first search and connected components, used by the
//!   traversal and the test suites.
//! * [`generate`] — generic random-graph generators (Erdős–Rényi,
//!   Barabási–Albert, cycles with skip links, …). Dataset-specific generators
//!   matched to the paper's benchmark statistics live in `mega-datasets`.
//!
//! # Example
//!
//! ```
//! use mega_graph::{Graph, GraphBuilder};
//!
//! # fn main() -> Result<(), mega_graph::GraphError> {
//! let mut b = GraphBuilder::undirected(4);
//! b.edge(0, 1)?.edge(1, 2)?.edge(2, 3)?.edge(3, 0)?;
//! let g: Graph = b.build()?;
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.degree(0), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod builder;
pub mod coo;
pub mod csr;
pub mod error;
pub mod generate;
pub mod graph;
pub mod io;
pub mod ks;
pub mod stats;

pub use builder::GraphBuilder;
pub use coo::EdgeList;
pub use csr::Csr;
pub use error::GraphError;
pub use graph::{Direction, Graph, NodeId};
pub use stats::{DatasetStats, DegreeStats};
