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
use mega_graph::Graph;
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
    /// The mask of a finished traversal: the slots its walk claimed as it
    /// covered edges, the same ones [`BandMask::build`] finds for its path.
    pub fn from_traversal(t: &Traversal) -> Self {
        Self::from_slots(t.path.len(), t.window, t.working_edges, t.slots.clone())
    }

    /// Wraps slots already sorted by `(lo, hi)`.
    pub(crate) fn from_slots(
        len: usize,
        window: usize,
        working_edges: usize,
        active: Vec<BandSlot>,
    ) -> Self {
        BandMask {
            len,
            window,
            working_edges,
            active,
        }
    }

    /// Builds a mask for an arbitrary `(graph, path, window)` triple by
    /// replaying the path through the walk's claim rule. The path entries
    /// must be valid node ids of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or a path entry is out of range.
    pub fn build(g: &Graph, path: &[usize], window: usize) -> Self {
        assert!(window >= 1, "window must be >= 1");
        let mut claimed = vec![false; g.edge_count()];
        let mut active = Vec::new();
        for (hi, &u) in path.iter().enumerate() {
            assert!(u < g.node_count(), "path node {u} out of range");
            claim_position(g, path, hi, window, &mut claimed, &mut active, |_, _| {});
        }
        sort_slots(&mut active);
        Self::from_slots(path.len(), window, g.edge_count(), active)
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

    /// All active slots, sorted by `(lo, hi)`.
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
}

/// The id of the edge joining `u` and `v`, read off the CSR: a binary
/// search of one sorted row for an undirected graph (the shorter), of both
/// for a directed one, whose arc lives in its source's row only. Where both
/// arcs exist the pair carries the later one in the edge list, so the earlier
/// never owns a slot.
pub(crate) fn edge_between(g: &Graph, u: usize, v: usize) -> Option<usize> {
    let csr = g.csr();
    if g.is_undirected() {
        if csr.degree(u) <= csr.degree(v) {
            csr.edge_id(u, v)
        } else {
            csr.edge_id(v, u)
        }
    } else {
        match (csr.edge_id(u, v), csr.edge_id(v, u)) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The band's claim rule, applied as the path grows: position `hi` pairs
/// with each of the ω positions before it, in ascending order, and claims
/// the edge joining the two nodes if no earlier pair has. `on_claim(u, v)`
/// sees the endpoints of every new claim.
///
/// Claiming by ascending `hi` and then `lo` picks the same pair per edge as
/// a scan by ascending `lo` and then `hi`: if an edge's first pair by
/// `(hi, lo)` were not its first by `(lo, hi)`, the second would enclose
/// the first, and the outer `lo` would pair with one of the inner positions
/// earlier still by `(hi, lo)`. Sorted by `(lo, hi)` ([`sort_slots`]) the
/// claims are therefore the band.
pub(crate) fn claim_position(
    g: &Graph,
    path: &[usize],
    hi: usize,
    window: usize,
    claimed: &mut [bool],
    slots: &mut Vec<BandSlot>,
    mut on_claim: impl FnMut(usize, usize),
) {
    let v = path[hi];
    for (lo, &u) in path
        .iter()
        .enumerate()
        .take(hi)
        .skip(hi.saturating_sub(window))
    {
        if u == v {
            continue;
        }
        if let Some(edge) = edge_between(g, u, v) {
            if !claimed[edge] {
                claimed[edge] = true;
                slots.push(BandSlot { lo, hi, edge });
                on_claim(u, v);
            }
        }
    }
}

/// Puts claims made in `(hi, lo)` order into `(lo, hi)` order. Slots of one
/// `lo` were claimed in ascending `hi`, so a stable sort on `lo` suffices.
pub(crate) fn sort_slots(slots: &mut [BandSlot]) {
    slots.sort_by_key(|s| s.lo);
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
        let mut seen = vec![false; g.edge_count()];
        for s in b.active_slots() {
            assert!(!seen[s.edge], "edge {} claimed twice", s.edge);
            seen[s.edge] = true;
        }
        assert!(seen.iter().all(|&s| s));
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
