//! The preprocessed attention schedule consumed by training.
//!
//! [`AttentionSchedule`] bundles everything the downstream engines need:
//! the path layout (for gathering node embeddings into path order and
//! scattering results back), the band mask (which in-band pairs participate
//! in attention and which edge-feature row each uses), and the working graph.
//! It is the concrete artifact of the paper's CPU-side preprocessing stage,
//! decoupled from the GPU-side training loop.

use crate::band::BandMask;
use crate::path::PathRepresentation;
use crate::traversal::Traversal;
use mega_graph::Graph;
use serde::{Deserialize, Serialize};

/// Summary statistics of a preprocessing run, for reports and benches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Node count of the working graph.
    pub nodes: usize,
    /// Edge count of the working graph (post edge-drop).
    pub edges: usize,
    /// Path length `L`.
    pub path_len: usize,
    /// Window ω.
    pub window: usize,
    /// Revisit count (`L` minus distinct nodes appearing).
    pub revisits: usize,
    /// Virtual-edge (jump) count.
    pub virtual_edges: usize,
    /// Fraction of working edges owning a band slot.
    pub coverage: f64,
    /// Memory-expansion factor `L / n`.
    pub expansion: f64,
    /// Active-slot density of the band.
    pub band_density: f64,
}

/// The full preprocessing artifact: path + band + working graph.
///
/// # Example
///
/// ```
/// use mega_core::{preprocess, MegaConfig};
/// use mega_graph::generate;
///
/// # fn main() -> Result<(), mega_core::MegaError> {
/// let g = generate::complete(6).unwrap();
/// let s = preprocess(&g, &MegaConfig::default())?;
/// let stats = s.stats();
/// assert_eq!(stats.nodes, 6);
/// assert!((stats.coverage - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttentionSchedule {
    path: PathRepresentation,
    band: BandMask,
    working_graph: Graph,
    revisits: usize,
    virtual_edges: usize,
}

impl AttentionSchedule {
    /// Assembles the schedule from a finished traversal. The `original`
    /// graph is accepted for interface symmetry with [`crate::preprocess`];
    /// the schedule itself references the traversal's working graph (which
    /// differs from `original` only under edge dropping).
    ///
    /// The traversal's path, marks and band slots move into the schedule
    /// uncopied.
    pub fn from_traversal(_original: &Graph, t: Traversal) -> Self {
        let band = BandMask::from_slots(t.path.len(), t.window, t.working_edges, t.slots);
        let path = PathRepresentation::new(
            t.path,
            t.virtual_step,
            t.working_graph.node_count(),
            t.window,
        );
        AttentionSchedule {
            path,
            band,
            revisits: t.revisits,
            virtual_edges: t.virtual_edge_count,
            working_graph: t.working_graph,
        }
    }

    /// The path layout.
    pub fn path(&self) -> &PathRepresentation {
        &self.path
    }

    /// The band mask.
    pub fn band(&self) -> &BandMask {
        &self.band
    }

    /// The working graph the schedule was built over (post edge-drop).
    pub fn working_graph(&self) -> &Graph {
        &self.working_graph
    }

    /// Gather index: for each path position, the node whose embedding is
    /// loaded there. Identical to `path().nodes()`, exposed under the name
    /// the engines use.
    pub fn gather_index(&self) -> &[usize] {
        self.path.nodes()
    }

    /// Scatter index: for each node, the path positions whose aggregated
    /// messages are summed back into it.
    pub fn scatter_index(&self) -> &[Vec<usize>] {
        self.path.node_positions()
    }

    /// Summary statistics.
    pub fn stats(&self) -> ScheduleStats {
        ScheduleStats {
            nodes: self.working_graph.node_count(),
            edges: self.working_graph.edge_count(),
            path_len: self.path.len(),
            window: self.path.window(),
            revisits: self.revisits,
            virtual_edges: self.virtual_edges,
            coverage: self.band.coverage(),
            expansion: self.path.expansion_factor(),
            band_density: self.band.density(),
        }
    }
}

#[cfg(test)]
mod tests {

    use crate::config::{MegaConfig, WindowPolicy};
    use crate::preprocess;
    use mega_graph::generate;

    #[test]
    fn schedule_indices_are_consistent() {
        let g = generate::complete(7).unwrap();
        let s = preprocess(&g, &MegaConfig::default()).unwrap();
        let gather = s.gather_index();
        for (v, positions) in s.scatter_index().iter().enumerate() {
            for &p in positions {
                assert_eq!(gather[p], v);
            }
        }
    }

    #[test]
    fn stats_reflect_traversal() {
        let g = generate::complete(7).unwrap();
        let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(2));
        let s = preprocess(&g, &cfg).unwrap();
        let st = s.stats();
        assert_eq!(st.nodes, 7);
        assert_eq!(st.edges, 21);
        assert_eq!(st.window, 2);
        assert_eq!(st.path_len, s.path().len());
        assert!(st.expansion >= 1.0);
        assert!((st.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_drop_schedule_references_working_graph() {
        let g = generate::complete(10).unwrap(); // 45 edges
        let cfg = MegaConfig::default().with_edge_drop(0.2);
        let s = preprocess(&g, &cfg).unwrap();
        assert_eq!(s.working_graph().edge_count(), 36);
        assert_eq!(s.band().covered_edge_count(), 36);
    }
}
