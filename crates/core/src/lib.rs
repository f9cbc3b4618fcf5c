//! MEGA core: the paper's primary contribution.
//!
//! MEGA ("More Efficient Graph Attention") reorganizes a graph into a **path
//! representation** during CPU-side preprocessing, so that graph attention on
//! the accelerator becomes a *banded, diagonal* computation with sequential,
//! coalesced memory access instead of an index-driven scatter/gather.
//!
//! The pipeline implemented here:
//!
//! 1. [`traversal`] — the objective graph traversal of Algorithm 1. An agent
//!    walks the graph, choosing at each step the unvisited-neighbor candidate
//!    that maximizes overlap with the last ω path entries (Eq. 2). Dead ends
//!    pop a stack of visited nodes with unvisited neighbors (a *revisit*);
//!    exhausted regions are escaped by a jump over a *virtual edge*.
//! 2. [`path`] — [`path::PathRepresentation`], the reordered sequence of node
//!    appearances together with virtual-edge marks and per-node position
//!    lists.
//! 3. [`band`] — [`band::BandMask`], the width-ω diagonal mask that records
//!    which in-band position pairs carry a real original edge (each original
//!    edge claims exactly one band slot, preserving exact 1-hop aggregation).
//! 4. [`window`] — adaptive window sizing from the mean degree, and the
//!    paper's revisit lower bound `Σ⌈d_i/ω⌉ − n`.
//! 5. [`edge_drop`] — DropEdge-style random edge removal (§IV-B5).
//! 6. [`schedule`] — [`schedule::AttentionSchedule`], the preprocessed
//!    artifact consumed by the GNN engines and the GPU simulator.
//!
//! # Quickstart
//!
//! ```
//! use mega_core::{MegaConfig, preprocess};
//! use mega_graph::GraphBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The example graph of Fig. 3a (7 nodes).
//! let g = GraphBuilder::undirected(7)
//!     .edges([(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 6), (3, 6), (3, 4), (4, 6), (5, 6)])?
//!     .build()?;
//! let schedule = preprocess(&g, &MegaConfig::default())?;
//! // Every node appears at least once...
//! assert!(schedule.path().node_positions().iter().all(|p| !p.is_empty()));
//! // ...and with the default full coverage, every edge owns a band slot.
//! assert_eq!(schedule.band().covered_edge_count(), g.edge_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod config;
pub mod edge_drop;
pub mod error;
pub mod parallel;
pub mod path;
pub mod persist;
pub mod schedule;
pub mod traversal;
pub mod window;

pub use band::BandMask;
pub use config::{CandidatePolicy, MegaConfig, WindowPolicy};
pub use error::MegaError;
pub use parallel::{Chunk, ChunkPlan, Parallelism};
pub use path::PathRepresentation;
pub use schedule::AttentionSchedule;
pub use traversal::{traverse, traverse_parallel, Traversal};
pub use window::{adaptive_window, revisit_lower_bound};

use mega_graph::Graph;

/// One-call preprocessing: traverse `g` under `config` and assemble the
/// [`AttentionSchedule`] used by training.
///
/// # Errors
///
/// Propagates [`MegaError`] from configuration validation or traversal (e.g.
/// an unsatisfiable coverage target after edge dropping).
pub fn preprocess(g: &Graph, config: &MegaConfig) -> Result<AttentionSchedule, MegaError> {
    let traversal = traverse(g, config)?;
    Ok(AttentionSchedule::from_traversal(g, traversal))
}
