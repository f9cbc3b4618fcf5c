//! Property-based tests for partitioning, communication accounting, and the
//! distributed executor's segment/halo geometry.

use mega_core::{preprocess, ChunkPlan, MegaConfig};
use mega_dist::{
    bfs_partition, edge_cut_volume, epoch_scaling, hash_partition, path_partition_volume,
    path_segments, run_serial, BandJob, ClusterConfig, DistExecutor, ThreadExecutor,
};
use mega_graph::{Graph, GraphBuilder};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..80).prop_map(move |pairs| {
            let mut b = GraphBuilder::undirected(n);
            b.dedup(true);
            for v in 1..n {
                b.edge(v - 1, v).unwrap();
            }
            for (a, c) in pairs {
                b.edge(a, c).unwrap();
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitioners produce valid, total assignments.
    #[test]
    fn partitions_are_total(g in arb_graph(), k in 1usize..8) {
        for parts in [hash_partition(&g, k), bfs_partition(&g, k)] {
            prop_assert_eq!(parts.len(), g.node_count());
            prop_assert!(parts.iter().all(|&p| p < k));
        }
    }

    /// Edge-cut volume counts exactly two rows per cut edge and pairs are
    /// bounded by k(k-1)/2.
    #[test]
    fn edge_cut_accounting(g in arb_graph(), k in 1usize..8) {
        let parts = hash_partition(&g, k);
        let c = edge_cut_volume(&g, &parts, k);
        let cut_edges = g.edges().filter(|&(a, b)| parts[a] != parts[b]).count();
        prop_assert_eq!(c.volume_rows, 2 * cut_edges);
        prop_assert!(c.comm_pairs <= k * k.saturating_sub(1) / 2);
        prop_assert_eq!(c.replica_rows, 0);
    }

    /// Path segments are contiguous, total, and yield exactly
    /// min(k, path_len) - 1 ... communicating pairs <= k - 1.
    #[test]
    fn path_partition_chain(g in arb_graph(), k in 1usize..8) {
        let s = preprocess(&g, &MegaConfig::default()).unwrap();
        let segs = path_segments(&s, k);
        prop_assert_eq!(segs.len(), s.path().len());
        for w in segs.windows(2) {
            prop_assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
        let p = path_partition_volume(&s, k);
        prop_assert!(p.comm_pairs <= k.saturating_sub(1));
        prop_assert!(p.volume_rows >= p.replica_rows);
    }

    /// Scaling predictions are physical: a positive speedup of at most k.
    #[test]
    fn scaling_is_physical(g in arb_graph(), k in 1usize..8) {
        let s = preprocess(&g, &MegaConfig::default()).unwrap();
        let stats = path_partition_volume(&s, k);
        let speedup = epoch_scaling(1.0, &stats, 10, 32, &ClusterConfig::ten_gbe());
        prop_assert!(speedup > 0.0);
        prop_assert!(speedup <= k as f64 + 1e-9);
    }

    /// The one-chunk-per-worker plan is a segment partition the halo protocol
    /// can run on: for random (len, window, workers) triples the segments
    /// partition the path in order, every halo window is the ±ω read extent,
    /// no segment but the last is thinner than ω, and so every read extent
    /// stays inside the segment's immediate neighbors.
    #[test]
    fn segment_plan_reconstructs_chunk_plan_windows(
        len in 0usize..400,
        window in 1usize..16,
        workers in 1usize..12,
    ) {
        let plan = ChunkPlan::for_workers(len, window, workers);
        prop_assert!(plan.validate().is_ok());
        let segs = plan.chunks();
        prop_assert!(segs.len() <= workers);
        // Segments partition the path in order.
        let mut cursor = 0usize;
        for seg in segs {
            prop_assert_eq!(seg.start, cursor);
            cursor = seg.end;
            // The halo geometry is exactly the chunked engine's read extent.
            prop_assert_eq!(seg.read_lo, seg.start.saturating_sub(window));
            prop_assert_eq!(seg.read_hi, (seg.end + window).min(len));
        }
        prop_assert_eq!(cursor, len);
        for seg in &segs[..segs.len() - 1] {
            prop_assert!(seg.owned_len() >= window, "segment thinner than ω: {:?}", seg);
        }
        // Adjacent-only halos: every read extent is covered by the segment
        // plus its immediate neighbors, so the chain exchange suffices.
        for (w, seg) in segs.iter().enumerate() {
            if w > 0 {
                prop_assert!(seg.read_lo >= segs[w - 1].start);
            }
            if w + 1 < segs.len() {
                prop_assert!(seg.read_hi <= segs[w + 1].end);
            }
        }
    }

    /// On a real schedule, the plan's assignment is exactly `path_segments`'
    /// quotient assignment (when no worker clamping is needed — the clamp
    /// only engages when a segment would be thinner than the band).
    #[test]
    fn segment_assignment_matches_path_segments(g in arb_graph(), k in 1usize..8) {
        let s = preprocess(&g, &MegaConfig::default()).unwrap();
        let band = s.band();
        prop_assume!(k == 1 || band.len().div_ceil(k) >= band.window().max(1));
        let plan = ChunkPlan::for_workers(band.len(), band.window(), k);
        let assignment: Vec<usize> = (0..band.len())
            .map(|i| plan.chunks().iter().position(|c| c.start <= i && i < c.end).unwrap())
            .collect();
        prop_assert_eq!(assignment, path_segments(&s, k));
    }

    /// Distributed execution through the halo protocol is bit-identical to
    /// the serial oracle on random graphs, for every worker count.
    #[test]
    fn halo_exchange_matches_serial_bits(g in arb_graph(), workers in 1usize..6, seed in 0u64..1000) {
        let s = preprocess(&g, &MegaConfig::default()).unwrap();
        let band = s.band();
        let edges = s.working_graph().edge_count();
        let dim = 3usize;
        // Cheap deterministic pseudo-inputs; the kernels do not care about
        // the distribution, only the bits.
        let mix = |i: usize| {
            let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed);
            ((h >> 32) as f32 / u32::MAX as f32) - 0.5
        };
        let x0: Vec<f32> = (0..band.len() * dim).map(mix).collect();
        let weights: Vec<f32> = (0..edges).map(|e| mix(e + band.len() * dim)).collect();
        let job = BandJob {
            band,
            x0: &x0,
            dim,
            weights: &weights,
            edge_count: edges,
            steps: 3,
            damping: 0.75,
        };
        let oracle = run_serial(&job);
        let run = ThreadExecutor::new(workers).run(&job);
        let ob: Vec<u32> = oracle.x.iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u32> = run.x.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(ob, rb);
        let odw: Vec<u32> = oracle.dw.iter().map(|v| v.to_bits()).collect();
        let rdw: Vec<u32> = run.dw.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(odw, rdw);
    }
}
