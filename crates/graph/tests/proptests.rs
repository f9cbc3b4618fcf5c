//! Property-based tests for the graph substrate.

use mega_graph::io::{from_json, read_edge_list, to_json, write_edge_list};
use mega_graph::{
    algo, generate, ks, Csr, DenseAdjacency, Direction, EdgeList, Graph, GraphBuilder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing an arbitrary simple undirected graph as (n, edges).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(80)).prop_map(move |pairs| {
            let mut b = GraphBuilder::undirected(n);
            b.dedup(true);
            for (a, c) in pairs {
                b.edge(a, c).unwrap();
            }
            b.build().unwrap()
        })
    })
}

/// `doc` with each `(at, byte)` edit overwriting the byte at `at` (modulo
/// the length) and, when `cut` falls inside it, the tail cut off there.
/// Overwrites keep the document's length, so no number in it grows by more
/// than a few digits.
fn mutated(mut doc: Vec<u8>, edits: &[(usize, u8)], cut: usize) -> Vec<u8> {
    if doc.is_empty() {
        return doc;
    }
    for &(at, byte) in edits {
        let at = at % doc.len();
        doc[at] = byte;
    }
    doc.truncate(cut % (2 * doc.len()));
    doc
}

/// What an edit writes: mostly the bytes the two formats are made of, so
/// that edits often leave a document that still parses, and one byte that is
/// never valid UTF-8.
const EDIT_BYTES: &[u8] = b"0123456789012345,[]{}:\" -\n#ax\xff";

/// Panics unless `g` answers every neighbor query consistently with its
/// edge list — what a graph built through `Graph::from_edge_list` does.
fn assert_consistent(g: &Graph) {
    let slots: usize = (0..g.node_count()).map(|v| g.neighbors(v).len()).sum();
    let per_edge = if g.is_undirected() { 2 } else { 1 };
    assert_eq!(slots, per_edge * g.edge_count());
    assert!(g.edges().all(|(s, d)| g.contains_edge(s, d)));
}

fn edits() -> impl Strategy<Value = Vec<(usize, u8)>> {
    let edit = (0usize..1 << 16, 0..EDIT_BYTES.len()).prop_map(|(at, b)| (at, EDIT_BYTES[b]));
    proptest::collection::vec(edit, 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated bytes of a valid JSON document never panic the parser, and
    /// whatever it accepts is a consistent graph.
    #[test]
    fn from_json_never_panics_on_mutated_bytes(
        g in arb_graph(),
        edits in edits(),
        cut in 0usize..1 << 16,
    ) {
        let doc = mutated(to_json(&g).into_bytes(), &edits, cut);
        if let Ok(h) = from_json(&String::from_utf8_lossy(&doc)) {
            assert_consistent(&h);
        }
    }

    /// The same for the text edge list, both directions.
    #[test]
    fn read_edge_list_never_panics_on_mutated_bytes(
        g in arb_graph(),
        edits in edits(),
        cut in 0usize..1 << 16,
        directed in 0usize..2,
    ) {
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let doc = mutated(text, &edits, cut);
        let direction = [Direction::Undirected, Direction::Directed][directed];
        if let Ok(h) = read_edge_list(&doc[..], direction) {
            assert_consistent(&h);
        }
    }
}

proptest! {
    #[test]
    fn csr_degree_sum_equals_two_m(g in arb_graph()) {
        let total: usize = (0..g.node_count()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.edge_count());
    }

    #[test]
    fn csr_round_trips_edges(g in arb_graph()) {
        // Every stored edge must be visible from both endpoints.
        for (s, d) in g.edges() {
            prop_assert!(g.contains_edge(s, d));
            prop_assert!(g.contains_edge(d, s));
        }
    }

    #[test]
    fn csr_neighbors_sorted_and_deduplicated(g in arb_graph()) {
        for v in 0..g.node_count() {
            let nbrs = g.neighbors(v);
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn dense_adjacency_matches_csr(g in arb_graph()) {
        let adj = DenseAdjacency::from_graph(&g);
        prop_assert!(adj.is_symmetric());
        for a in 0..g.node_count() {
            for b in 0..g.node_count() {
                prop_assert_eq!(adj.get(a, b), g.contains_edge(a, b));
            }
        }
    }

    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let (comp, count) = algo::connected_components(&g);
        prop_assert_eq!(comp.len(), g.node_count());
        prop_assert!(comp.iter().all(|&c| c < count));
        // Edges never cross components.
        for (s, d) in g.edges() {
            prop_assert_eq!(comp[s], comp[d]);
        }
    }

    #[test]
    fn bfs_distances_respect_edges(g in arb_graph()) {
        let r = algo::bfs(&g, 0);
        for (s, d) in g.edges() {
            if r.dist[s] != usize::MAX {
                prop_assert!(r.dist[d] != usize::MAX);
                prop_assert!(r.dist[s].abs_diff(r.dist[d]) <= 1);
            }
        }
    }

    #[test]
    fn ks_statistic_bounds_and_symmetry(
        a in proptest::collection::vec(0.0f64..100.0, 1..50),
        b in proptest::collection::vec(0.0f64..100.0, 1..50),
    ) {
        let d = ks::statistic(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - ks::statistic(&b, &a)).abs() < 1e-12);
        prop_assert!(ks::statistic(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn sparsity_in_unit_interval(g in arb_graph()) {
        let s = g.sparsity();
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn erdos_renyi_edge_count_within_bounds(n in 2usize..50, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::erdos_renyi(n, 0.3, &mut rng).unwrap();
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
    }

    #[test]
    fn edge_list_dedup_idempotent(
        n in 2usize..20,
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let pairs: Vec<(usize, usize)> =
            pairs.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let e = EdgeList::from_pairs(n, pairs).unwrap();
        let once = e.deduplicated(true);
        let twice = once.deduplicated(true);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn csr_from_dedup_has_no_self_loop_slots(
        n in 2usize..20,
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let pairs: Vec<(usize, usize)> =
            pairs.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let e = EdgeList::from_pairs(n, pairs).unwrap().deduplicated(true);
        let csr = Csr::from_edge_list(&e, true);
        for v in 0..n {
            prop_assert!(!csr.neighbors(v).contains(&v));
        }
    }
}
