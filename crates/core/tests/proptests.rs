//! Property-based tests for MEGA preprocessing invariants.

use mega_core::{
    preprocess, revisit_lower_bound, traverse, window::revisit_floor_two_sided, BandMask,
    CandidatePolicy, ChunkPlan, MegaConfig, WindowPolicy,
};
use mega_graph::{Graph, GraphBuilder};
use proptest::prelude::*;

/// Arbitrary simple undirected graph.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..60).prop_map(move |pairs| {
            let mut b = GraphBuilder::undirected(n);
            b.dedup(true);
            for (a, c) in pairs {
                b.edge(a, c).unwrap();
            }
            b.build().unwrap()
        })
    })
}

fn arb_config() -> impl Strategy<Value = MegaConfig> {
    (
        1usize..5,
        prop_oneof![
            Just(CandidatePolicy::CorrelateArgmax),
            Just(CandidatePolicy::FirstCandidate),
            Just(CandidatePolicy::Random)
        ],
        0u64..100,
    )
        .prop_map(|(w, policy, seed)| {
            MegaConfig::default()
                .with_window(WindowPolicy::Fixed(w))
                .with_policy(policy)
                .with_seed(seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_node_appears_at_least_once((g, cfg) in (arb_graph(), arb_config())) {
        let t = traverse(&g, &cfg).unwrap();
        let mut seen = vec![false; g.node_count()];
        for &v in &t.path {
            seen[v] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_coverage_reached((g, cfg) in (arb_graph(), arb_config())) {
        let t = traverse(&g, &cfg).unwrap();
        prop_assert_eq!(t.covered_edges, g.edge_count());
    }

    #[test]
    fn real_steps_ride_original_edges((g, cfg) in (arb_graph(), arb_config())) {
        let t = traverse(&g, &cfg).unwrap();
        for i in 1..t.path.len() {
            if !t.virtual_step[i] {
                prop_assert!(g.contains_edge(t.path[i - 1], t.path[i]));
            }
        }
    }

    #[test]
    fn revisits_at_least_two_sided_floor((g, cfg) in (arb_graph(), arb_config())) {
        let t = traverse(&g, &cfg).unwrap();
        let floor = revisit_floor_two_sided(&g.degrees(), t.window);
        prop_assert!(t.revisits >= floor);
        // The paper's one-sided bound is an upper estimate of the floor.
        prop_assert!(revisit_lower_bound(&g.degrees(), t.window) >= floor);
    }

    #[test]
    fn band_mask_claims_each_edge_once((g, cfg) in (arb_graph(), arb_config())) {
        let t = traverse(&g, &cfg).unwrap();
        let band = BandMask::from_traversal(&t);
        let mut claimed = std::collections::HashSet::new();
        for s in band.active_slots() {
            prop_assert!(s.hi - s.lo >= 1 && s.hi - s.lo <= band.window());
            prop_assert!(claimed.insert(s.edge));
        }
        prop_assert_eq!(claimed.len(), g.edge_count());
    }

    #[test]
    fn band_slots_connect_true_endpoints((g, cfg) in (arb_graph(), arb_config())) {
        let t = traverse(&g, &cfg).unwrap();
        let band = BandMask::from_traversal(&t);
        let pairs: Vec<(usize, usize)> = g.edges().collect();
        for s in band.active_slots() {
            let (a, b) = pairs[s.edge];
            let (u, v) = (t.path[s.lo], t.path[s.hi]);
            prop_assert!((u, v) == (a, b) || (u, v) == (b, a));
        }
    }

    #[test]
    fn partial_coverage_meets_theta(g in arb_graph(), theta in 0.2f64..1.0) {
        let cfg = MegaConfig::default()
            .with_window(WindowPolicy::Fixed(2))
            .with_coverage(theta);
        let t = traverse(&g, &cfg).unwrap();
        if g.edge_count() > 0 {
            prop_assert!(t.coverage() + 1e-12 >= theta);
        }
    }

    #[test]
    fn schedule_round_trips_scatter_gather((g, cfg) in (arb_graph(), arb_config())) {
        let s = preprocess(&g, &cfg).unwrap();
        for (v, positions) in s.scatter_index().iter().enumerate() {
            prop_assert!(!positions.is_empty());
            for &p in positions {
                prop_assert_eq!(s.gather_index()[p], v);
            }
        }
    }

    #[test]
    fn edge_drop_keeps_subset(g in arb_graph(), drop in 0.0f64..0.9, seed in 0u64..50) {
        prop_assume!(g.edge_count() > 0);
        let d = mega_core::edge_drop::drop_edges(&g, drop, seed).unwrap();
        for (s, t) in d.edges() {
            prop_assert!(g.contains_edge(s, t));
        }
        prop_assert!(d.edge_count() >= 1);
    }

    #[test]
    fn path_length_bounded(g in arb_graph()) {
        // Full coverage paths never exceed n + 2m appearances in practice;
        // assert the generous safety bound of the config is far from binding.
        let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(1));
        let t = traverse(&g, &cfg).unwrap();
        prop_assert!(t.path.len() <= g.node_count() + 2 * g.edge_count() + 1);
    }

    // --- Chunk-splitter invariants of the parallel band engine ---

    #[test]
    fn chunks_partition_the_full_path(len in 0usize..400, window in 1usize..8, chunk in 1usize..64) {
        let plan = ChunkPlan::build(len, window, chunk);
        // Owned ranges are contiguous, ordered, and cover [0, len) exactly.
        let mut expected_start = 0usize;
        for c in plan.chunks() {
            prop_assert_eq!(c.start, expected_start);
            prop_assert!(c.end >= c.start);
            expected_start = c.end;
        }
        prop_assert_eq!(expected_start, len);
        let covered: usize = plan.chunks().iter().map(|c| c.owned_len()).sum();
        prop_assert_eq!(covered, len);
    }

    #[test]
    fn chunk_overlap_is_exactly_omega(len in 1usize..400, window in 1usize..8, chunk in 1usize..64) {
        let plan = ChunkPlan::build(len, window, chunk);
        for c in plan.chunks() {
            // Read extent extends the owned range by exactly ω on each side,
            // clamped at the path boundary — so no in-band pair (distance
            // ≤ ω) straddles a cut unseen.
            prop_assert_eq!(c.read_lo, c.start.saturating_sub(window));
            prop_assert_eq!(c.read_hi, (c.end + window).min(len));
        }
    }

    #[test]
    fn every_active_slot_owned_by_exactly_one_chunk((g, cfg) in (arb_graph(), arb_config()), chunk in 1usize..32) {
        let s = preprocess(&g, &cfg).unwrap();
        let band = s.band();
        let plan = ChunkPlan::build(band.len(), band.window(), chunk);
        for slot in band.active_slots() {
            // Ownership = the chunk whose owned rows contain slot.lo; both
            // endpoints must sit inside that chunk's read extent.
            let owners: Vec<_> = plan
                .chunks()
                .iter()
                .filter(|k| k.start <= slot.lo && slot.lo < k.end)
                .collect();
            prop_assert_eq!(owners.len(), 1);
            let c = owners[0];
            prop_assert!(c.read_lo <= slot.lo && slot.hi < c.read_hi);
        }
    }

    // --- Static plan validation (ChunkPlan::validate) ---

    #[test]
    fn random_built_plans_validate(len in 0usize..400, window in 1usize..8, chunk in 1usize..64) {
        // validate() re-derives the partition + read-window proof from the
        // plan alone.
        prop_assert!(ChunkPlan::build(len, window, chunk).validate().is_ok());
    }

    #[test]
    fn band_plans_validate_over_thread_chunk_grid((g, cfg) in (arb_graph(), arb_config())) {
        let s = preprocess(&g, &cfg).unwrap();
        let band = s.band();
        let (len, w) = (band.len(), band.window());
        // The plan each worker count resolves to (one chunk per worker at
        // most), then explicit geometries.
        let mut plans = Vec::new();
        for t in [1usize, 2, 4, 8] {
            let plan = ChunkPlan::for_band(band, &mega_core::Parallelism::pinned(t));
            plans.push((format!("threads={t}"), plan, t));
        }
        for chunk in [1usize, w, 4 * w, len.max(1)] {
            plans.push((format!("chunk={chunk}"), ChunkPlan::build(len, w, chunk), usize::MAX));
        }
        for (what, plan, max_chunks) in &plans {
            prop_assert!(plan.validate_for(band).is_ok(), "{}", what);
            prop_assert!(plan.chunks().len() <= *max_chunks, "{}", what);
            // Owned ranges partition [0, len) and reads stay within ±ω.
            let mut expected_start = 0usize;
            for c in plan.chunks() {
                prop_assert_eq!(c.start, expected_start);
                prop_assert_eq!(c.read_lo, c.start.saturating_sub(w));
                prop_assert_eq!(c.read_hi, (c.end + w).min(len));
                expected_start = c.end;
            }
            prop_assert_eq!(expected_start, len);
        }
    }

    #[test]
    fn corrupted_plans_fail_validation(
        len in 8usize..200,
        window in 1usize..6,
        chunk in 2usize..32,
        which in 0usize..5,
        victim in 0usize..100,
    ) {
        let plan = ChunkPlan::build(len, window, chunk);
        prop_assume!(plan.chunks().len() >= 2);
        let mut chunks = plan.chunks().to_vec();
        let v = victim % chunks.len();
        match which {
            // Ownership overlap with the next chunk (or end past the path).
            0 => chunks[v].end += 1,
            // Coverage gap before the next chunk (or an empty chunk).
            1 => chunks[v].end -= 1,
            // Read window narrower than ω on the left.
            2 => {
                prop_assume!(chunks[v].start > 0);
                chunks[v].read_lo = chunks[v].start;
            }
            // Read window wider than ω on the right.
            3 => chunks[v].read_hi += 1,
            // Truncated plan: the tail of the path is owned by nobody.
            _ => { chunks.pop(); }
        }
        let corrupt = ChunkPlan::from_raw_parts(len, window, chunks);
        prop_assert!(corrupt.validate().is_err(), "mutation {} on chunk {}", which, v);
    }
}
