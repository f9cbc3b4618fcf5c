//! Race-check harness for the distributed executor: corrupt segment plans
//! must panic in the shared writer map instead of silently racing on halo
//! rows, and the valid plan must pass the same checks the timed runs use.
//!
//! Compiled only under `--features race-check`, mirroring the mega-exec
//! corrupt-plan harness.

#![cfg(feature = "race-check")]

use mega_core::{preprocess, Chunk, ChunkPlan, MegaConfig};
use mega_dist::{run_with_plan, BandJob};
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> (mega_core::AttentionSchedule, Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generate::barabasi_albert(60, 3, &mut rng).unwrap();
    let s = preprocess(&g, &MegaConfig::default()).unwrap();
    let len = s.band().len();
    let edges = s.working_graph().edge_count();
    let x0: Vec<f32> = (0..len * 4).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
    let weights: Vec<f32> = (0..edges).map(|e| (e % 5) as f32 * 0.1 - 0.2).collect();
    (s, x0, weights)
}

fn run_with(plan: ChunkPlan) -> std::thread::Result<()> {
    let (s, x0, weights) = fixture();
    std::thread::spawn(move || {
        let band = s.band();
        let job = BandJob {
            band,
            x0: &x0,
            dim: 4,
            weights: &weights,
            edge_count: s.working_graph().edge_count(),
            steps: 2,
            damping: 0.5,
        };
        run_with_plan(&job, &plan);
    })
    .join()
}

fn chunk(start: usize, end: usize, window: usize, len: usize) -> Chunk {
    Chunk {
        start,
        end,
        read_lo: start.saturating_sub(window),
        read_hi: (end + window).min(len),
    }
}

#[test]
fn overlapping_segment_ownership_panics() {
    let (s, _, _) = fixture();
    let (len, w) = (s.band().len(), s.band().window());
    let mid = len / 2;
    // Two segments both claim the rows around the midpoint.
    let corrupt = ChunkPlan::from_raw_parts(
        len,
        w,
        vec![chunk(0, mid + w, w, len), chunk(mid, len, w, len)],
    );
    let err = run_with(corrupt).expect_err("overlapping ownership must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("writer map panics with a formatted message");
    assert!(msg.contains("owned ranges overlap"), "got: {msg}");
}

#[test]
fn gappy_segment_coverage_panics() {
    let (s, _, _) = fixture();
    let (len, w) = (s.band().len(), s.band().window());
    let mid = len / 2;
    // Nobody owns the rows just after the midpoint.
    let corrupt = ChunkPlan::from_raw_parts(
        len,
        w,
        vec![
            chunk(0, mid, w, len),
            chunk((mid + w + 1).min(len), len, w, len),
        ],
    );
    let err = run_with(corrupt).expect_err("coverage gap must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("writer map panics with a formatted message");
    assert!(msg.contains("never claimed"), "got: {msg}");
}

#[test]
fn valid_plan_passes_the_checked_run() {
    let (s, _, _) = fixture();
    let plan = ChunkPlan::for_workers(s.band().len(), s.band().window(), 4);
    run_with(plan).expect("valid plan must pass under race-check");
}
