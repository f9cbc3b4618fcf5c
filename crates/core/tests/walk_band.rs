//! The walk's band against a full rescan of its path, and the pinned bits of
//! one preprocessing run.

use mega_core::band::BandSlot;
use mega_core::{
    preprocess, traverse, BandMask, CandidatePolicy, MegaConfig, MegaError, WindowPolicy,
};
use mega_graph::{generate, Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The band as it was built before the walk claimed it: a rescan of the
/// path by ascending `lo`, then `hi`, with edge ids from a map keyed by the
/// unordered endpoint pair (so of two reciprocal arcs the later one wins).
fn rescan(g: &Graph, path: &[usize], window: usize) -> Vec<BandSlot> {
    let mut edge_of = HashMap::new();
    for (eid, (s, d)) in g.edges().enumerate() {
        edge_of.insert((s.min(d), s.max(d)), eid);
    }
    let mut claimed = vec![false; g.edge_count()];
    let mut active = Vec::new();
    for lo in 0..path.len() {
        for hi in lo + 1..path.len().min(lo + window + 1) {
            let (u, v) = (path[lo], path[hi]);
            if let Some(&edge) = edge_of.get(&(u.min(v), u.max(v))) {
                if u != v && !claimed[edge] {
                    claimed[edge] = true;
                    active.push(BandSlot { lo, hi, edge });
                }
            }
        }
    }
    active
}

/// An Erdős–Rényi, Barabási–Albert or random directed graph (which may
/// hold arcs both ways between two nodes).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 2usize..40, 0u64..1_000).prop_map(|(kind, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            0 => generate::erdos_renyi(n, 0.2, &mut rng).unwrap(),
            1 => generate::barabasi_albert(n.max(4), 3, &mut rng).unwrap(),
            _ => {
                let mut b = GraphBuilder::directed(n);
                b.dedup(true);
                for _ in 0..3 * n {
                    b.edge(rng.gen_range(0..n), rng.gen_range(0..n)).unwrap();
                }
                b.build().unwrap()
            }
        }
    })
}

fn arb_config() -> impl Strategy<Value = MegaConfig> {
    (1usize..=6, 0usize..3, 0usize..2, 0usize..2, 0u64..100).prop_map(
        |(w, policy, theta, drop, seed)| {
            let policy = [
                CandidatePolicy::CorrelateArgmax,
                CandidatePolicy::FirstCandidate,
                CandidatePolicy::Random,
            ][policy];
            MegaConfig::default()
                .with_window(WindowPolicy::Fixed(w))
                .with_policy(policy)
                .with_coverage([0.5, 1.0][theta])
                .with_edge_drop([0.0, 0.3][drop])
                .with_seed(seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slots the walk claims are the rescan's, and a walk that cannot
    /// reach θ says so instead of returning a short band.
    #[test]
    fn walk_band_equals_the_rescan((g, cfg) in (arb_graph(), arb_config())) {
        match traverse(&g, &cfg) {
            Ok(t) => {
                let band = BandMask::from_traversal(&t);
                let expected = rescan(&t.working_graph, &t.path, t.window);
                prop_assert_eq!(band.active_slots(), &expected[..]);
                prop_assert_eq!(t.covered_edges, expected.len());
                prop_assert!(t.coverage() + 1e-12 >= cfg.coverage);
                let replayed = BandMask::build(&t.working_graph, &t.path, t.window);
                prop_assert_eq!(replayed, band);
            }
            Err(MegaError::CoverageUnreachable { requested, achieved }) => {
                prop_assert!(!g.is_undirected());
                prop_assert!(achieved < requested);
                prop_assert!(g.edges().any(|(s, d)| g.contains_edge(d, s)));
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}

/// FNV-1a over a stream of words, each fed as its 8 little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The path, its virtual-step marks, the band slots and the scatter index
/// of `preprocess` on BA(2 000, 3) at seed 7, hashed in that order.
#[test]
fn ba2000_preprocessing_bits_are_pinned() {
    let g = generate::barabasi_albert(2_000, 3, &mut StdRng::seed_from_u64(7)).unwrap();
    let s = preprocess(&g, &MegaConfig::default().with_seed(7)).unwrap();
    let path = s.path();
    let words =
        path.nodes()
            .iter()
            .map(|&v| v as u64)
            .chain((0..path.len()).map(|i| u64::from(path.is_virtual_step(i))))
            .chain(
                s.band()
                    .active_slots()
                    .iter()
                    .flat_map(|b| [b.lo as u64, b.hi as u64, b.edge as u64]),
            )
            .chain(s.scatter_index().iter().flat_map(|ps| {
                std::iter::once(ps.len() as u64).chain(ps.iter().map(|&p| p as u64))
            }));
    assert_eq!(fnv1a(words), 0x3366_0cda_aed2_efcb);
}
