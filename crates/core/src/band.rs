//! The diagonal band mask (paper §III-C, Fig. 7).
//!
//! After reordering, attention runs along a width-ω band around the diagonal
//! of the `L × L` path adjacency matrix. The [`BandMask`] records, for every
//! in-band position pair `(i, i+k)` with `1 ≤ k ≤ ω`, whether that pair
//! carries a *real original edge* — and if so which one. Each original edge
//! claims exactly one slot (its first in-band occurrence), so masked banded
//! aggregation reproduces exact 1-hop neighbor sums while touching only
//! sequential memory. Virtual edges and repeated occurrences are masked out,
//! and, mirroring the paper's symmetry argument, the slot at `(i, j)` serves
//! both directions of the edge.

use crate::traversal::Traversal;
use mega_graph::{DenseAdjacency, Graph};
use serde::{Deserialize, Serialize};

/// One active band slot: positions `(lo, hi)` carry original edge `edge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandSlot {
    /// Lower path position.
    pub lo: usize,
    /// Higher path position (`lo < hi ≤ lo + ω`).
    pub hi: usize,
    /// Edge id in the working graph's edge list.
    pub edge: usize,
}

/// The width-ω diagonal mask over a path of length `L`.
///
/// # Example
///
/// ```
/// use mega_core::{traverse, BandMask, MegaConfig};
/// use mega_graph::generate;
///
/// # fn main() -> Result<(), mega_core::MegaError> {
/// let g = generate::cycle(8).unwrap();
/// let t = traverse(&g, &MegaConfig::default())?;
/// let band = BandMask::from_traversal(&t);
/// assert_eq!(band.covered_edge_count(), 8); // full coverage by default
/// assert!((band.coverage() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandMask {
    len: usize,
    window: usize,
    working_edges: usize,
    /// The active slots, sorted by `(lo, hi)`: the band's only storage.
    active: Vec<BandSlot>,
}

impl BandMask {
    /// Builds the mask by greedily claiming, for each original edge, its
    /// first in-band occurrence along the path (scanning positions in
    /// ascending order, offsets 1..=ω).
    pub fn from_traversal(t: &Traversal) -> Self {
        Self::build(&t.working_graph, &t.path, t.window)
    }

    /// Builds a mask for an arbitrary `(graph, path, window)` triple. The
    /// path entries must be valid node ids of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or a path entry is out of range.
    pub fn build(g: &Graph, path: &[usize], window: usize) -> Self {
        assert!(window >= 1, "window must be >= 1");
        let len = path.len();
        // mega-lint: allow(unordered-collection, reason = "(src,dst)->eid lookup only; slot order follows the path")
        let mut edge_of = std::collections::HashMap::with_capacity(g.edge_count());
        for (eid, (s, d)) in g.edges().enumerate() {
            edge_of.insert((s.min(d), s.max(d)), eid);
        }
        let mut claimed = vec![false; g.edge_count()];
        let mut active = Vec::new();
        for i in 0..len {
            let u = path[i];
            assert!(u < g.node_count(), "path node {u} out of range");
            for k in 1..=window {
                let j = i + k;
                if j >= len {
                    break;
                }
                let v = path[j];
                if u == v {
                    continue;
                }
                if let Some(&eid) = edge_of.get(&(u.min(v), u.max(v))) {
                    if !claimed[eid] {
                        claimed[eid] = true;
                        active.push(BandSlot {
                            lo: i,
                            hi: j,
                            edge: eid,
                        });
                    }
                }
            }
        }
        BandMask {
            len,
            window,
            working_edges: g.edge_count(),
            active,
        }
    }

    /// Path length `L`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Band half-width ω.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The edge id carried by pair `(i, i + k)`, if that slot is active — a
    /// binary search of [`BandMask::active_slots`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than the window.
    pub fn slot(&self, i: usize, k: usize) -> Option<usize> {
        assert!(
            k >= 1 && k <= self.window,
            "offset {k} outside 1..={}",
            self.window
        );
        let key = (i, i.checked_add(k)?);
        self.active
            .binary_search_by(|s| (s.lo, s.hi).cmp(&key))
            .ok()
            .map(|at| self.active[at].edge)
    }

    /// All active slots in claim order (ascending `lo`, then offset).
    pub fn active_slots(&self) -> &[BandSlot] {
        &self.active
    }

    /// Number of original edges owning a band slot.
    pub fn covered_edge_count(&self) -> usize {
        self.active.len()
    }

    /// Fraction of working-graph edges covered.
    pub fn coverage(&self) -> f64 {
        if self.working_edges == 0 {
            1.0
        } else {
            self.active.len() as f64 / self.working_edges as f64
        }
    }

    /// Density of the band: active slots over total in-band slots. High
    /// density means little wasted compute in the dense banded kernel.
    pub fn density(&self) -> f64 {
        let total: usize = (0..self.len)
            .map(|i| self.window.min(self.len - 1 - i))
            .sum();
        if total == 0 {
            return 0.0;
        }
        self.active.len() as f64 / total as f64
    }

    /// Materializes the `L × L` path adjacency matrix restricted to active
    /// band slots (symmetric). Bandwidth is ≤ ω by construction — this is the
    /// diagonal picture of Fig. 7.
    pub fn to_dense(&self) -> DenseAdjacency {
        let mut adj = DenseAdjacency::zeros(self.len);
        for s in &self.active {
            adj.set(s.lo, s.hi, true);
            adj.set(s.hi, s.lo, true);
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MegaConfig, WindowPolicy};
    use crate::traversal::traverse;
    use mega_graph::generate;

    fn band_for(g: &Graph, w: usize) -> (Traversal, BandMask) {
        let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(w));
        let t = traverse(g, &cfg).unwrap();
        let b = BandMask::from_traversal(&t);
        (t, b)
    }

    #[test]
    fn each_edge_claims_exactly_one_slot() {
        let g = generate::complete(7).unwrap();
        let (_, b) = band_for(&g, 3);
        // mega-lint: allow(unordered-collection, reason = "test-only duplicate detector; never iterated")
        let mut seen = std::collections::HashSet::new();
        for s in b.active_slots() {
            assert!(seen.insert(s.edge), "edge {} claimed twice", s.edge);
        }
        assert_eq!(seen.len(), g.edge_count());
    }

    #[test]
    fn band_count_matches_traversal_count() {
        for n in [6usize, 10, 15] {
            let g = generate::erdos_renyi(
                n,
                0.3,
                &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(n as u64),
            )
            .unwrap();
            for w in [1usize, 2, 4] {
                let (t, b) = band_for(&g, w);
                assert_eq!(t.covered_edges, b.covered_edge_count());
            }
        }
    }

    #[test]
    fn slots_stay_inside_band() {
        let g = generate::complete(8).unwrap();
        let (_, b) = band_for(&g, 2);
        for s in b.active_slots() {
            assert!(s.hi > s.lo && s.hi - s.lo <= 2);
        }
        assert!(b.to_dense().bandwidth() <= 2);
    }

    #[test]
    fn slot_lookup_agrees_with_active_list() {
        let g = generate::cycle(9).unwrap();
        let (_, b) = band_for(&g, 2);
        for s in b.active_slots() {
            assert_eq!(b.slot(s.lo, s.hi - s.lo), Some(s.edge));
        }
        // Every other in-band pair, and an out-of-path one, is inactive.
        let active =
            |i: usize, k: usize| b.active_slots().iter().any(|s| (s.lo, s.hi) == (i, i + k));
        for i in 0..b.len() + 2 {
            for k in 1..=b.window() {
                assert_eq!(b.slot(i, k).is_some(), active(i, k), "slot ({i}, {k})");
            }
        }
        assert_eq!(b.slot(b.len() - 1, 1), None);
        assert_eq!(b.slot(usize::MAX, 1), None);
    }

    #[test]
    fn dense_band_is_symmetric() {
        let g = generate::complete(6).unwrap();
        let (_, b) = band_for(&g, 2);
        assert!(b.to_dense().is_symmetric());
    }

    #[test]
    fn density_in_unit_interval() {
        let g = generate::complete(10).unwrap();
        let (_, b) = band_for(&g, 3);
        let d = b.density();
        assert!(d > 0.0 && d <= 1.0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn slot_offset_zero_panics() {
        let g = generate::cycle(5).unwrap();
        let (_, b) = band_for(&g, 1);
        let _ = b.slot(0, 0);
    }
}
