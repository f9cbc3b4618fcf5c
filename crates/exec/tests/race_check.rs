//! The `race-check` harness: proves the shadow writer map actually fires.
//!
//! A race detector that has never been seen to detect anything proves
//! nothing, so these tests drive the `_with_plan` kernel entry points with
//! deliberately corrupt [`ChunkPlan`]s — overlapping owned ranges, coverage
//! gaps, read windows narrower than ω — built through the
//! validation-bypassing `ChunkPlan::from_raw_parts`, and assert the panic
//! each corruption must produce. That the instrumented kernels still produce
//! bit-identical results on valid plans is `tests/banded.rs`' grid, which
//! CI's race-check leg runs with the feature on.
//!
//! The ownership claims are made before any job is spawned, and
//! `join_workers` runs the last chunk's job on the calling thread, so those
//! panic payloads (with their diagnostic messages) reach `catch_unwind`
//! intact instead of being replaced by `std::thread::scope`'s generic "a
//! scoped thread panicked".

#![cfg(feature = "race-check")]

use mega_core::band::BandMask;
use mega_core::config::{MegaConfig, WindowPolicy};
use mega_core::parallel::{Chunk, ChunkPlan, Parallelism};
use mega_core::traversal::traverse;
use mega_exec::kernels::race::WriterMap;
use mega_exec::kernels::{banded_aggregate_with_plan, banded_weight_grad_with_plan, BandLanes};
use mega_exec::Operand;
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn band_fixture(n: usize, w: usize) -> BandMask {
    let g = generate::erdos_renyi(n, 0.2, &mut StdRng::seed_from_u64(n as u64)).unwrap();
    let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(w));
    BandMask::from_traversal(&traverse(&g, &cfg).unwrap())
}

fn random_rows(len: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len * dim)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect()
}

fn edge_count(band: &BandMask) -> usize {
    band.active_slots()
        .iter()
        .map(|s| s.edge)
        .max()
        .map_or(0, |m| m + 1)
}

fn random_weights(edges: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..edges).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Runs `f`, requires it to panic, and returns the panic message.
fn panic_message<R>(f: impl FnOnce() -> R) -> String {
    let payload = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => panic!("expected a panic"),
        Err(payload) => payload,
    };
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The message `banded_aggregate_with_plan` panics with on `corrupt` (dim 4).
fn aggregate_panic(band: &BandMask, x: &[f32], weights: &[f32], corrupt: &ChunkPlan) -> String {
    let mut out = vec![0.0f32; x.len()];
    panic_message(|| {
        banded_aggregate_with_plan(BandLanes::SCALAR, band, x, 4, weights, corrupt, &mut out)
    })
}

/// A chunk whose read extent is exactly the legal ω-window.
fn chunk(start: usize, end: usize, window: usize, len: usize) -> Chunk {
    Chunk {
        start,
        end,
        read_lo: start.saturating_sub(window),
        read_hi: (end + window).min(len),
    }
}

#[test]
fn writer_map_allows_reclaims_and_detects_overlap() {
    let map = WriterMap::new("output row", 8);
    map.claim_range(0, 4, 0);
    map.claim(2, 0); // same writer accumulating again: fine
    assert_eq!(map.claimed(), 4);
    let msg = panic_message(|| map.claim(2, 1));
    assert!(msg.contains("race-check"), "got: {msg}");
    assert!(msg.contains("owned ranges overlap"), "got: {msg}");
}

#[test]
fn writer_map_completeness_detects_gaps() {
    let map = WriterMap::new("output row", 6);
    map.claim_range(0, 3, 0);
    map.claim_range(4, 6, 1); // row 3 never claimed
    let msg = panic_message(|| map.assert_complete());
    assert!(msg.contains("never claimed"), "got: {msg}");
}

#[test]
fn overlapping_ownership_panics_in_aggregate() {
    let band = band_fixture(40, 3);
    let (len, w) = (band.len(), band.window());
    let x = random_rows(len, 4, 1);
    let weights = random_weights(edge_count(&band), 2);
    let half = len / 2;
    // Second chunk re-owns the last ω rows of the first.
    let corrupt = ChunkPlan::from_raw_parts(
        len,
        w,
        vec![chunk(0, half, w, len), chunk(half - w, len, w, len)],
    );
    let msg = aggregate_panic(&band, &x, &weights, &corrupt);
    assert!(msg.contains("race-check"), "got: {msg}");
    assert!(msg.contains("owned ranges overlap"), "got: {msg}");
}

#[test]
fn coverage_gap_panics_on_completeness() {
    let band = band_fixture(40, 3);
    let (len, w) = (band.len(), band.window());
    let x = random_rows(len, 4, 3);
    let weights = random_weights(edge_count(&band), 4);
    let half = len / 2;
    // Rows [half, half + 1) belong to no chunk.
    let corrupt = ChunkPlan::from_raw_parts(
        len,
        w,
        vec![chunk(0, half, w, len), chunk(half + 1, len, w, len)],
    );
    let msg = aggregate_panic(&band, &x, &weights, &corrupt);
    assert!(msg.contains("never claimed"), "got: {msg}");
}

#[test]
fn narrow_read_window_panics_on_cross_boundary_read() {
    let band = band_fixture(40, 3);
    let (len, w) = (band.len(), band.window());
    let x = random_rows(len, 4, 5);
    let weights = random_weights(edge_count(&band), 6);
    let half = len / 2;
    // Owned ranges are a valid partition, but the read extents claim ω = 0:
    // the first cross-boundary in-band pair read must trip the check.
    let corrupt = ChunkPlan::from_raw_parts(
        len,
        w,
        vec![
            Chunk {
                start: 0,
                end: half,
                read_lo: 0,
                read_hi: half,
            },
            Chunk {
                start: half,
                end: len,
                read_lo: half,
                read_hi: len,
            },
        ],
    );
    let msg = aggregate_panic(&band, &x, &weights, &corrupt);
    assert!(msg.contains("outside its"), "got: {msg}");
}

#[test]
fn overlap_panics_through_the_threaded_path_too() {
    let band = band_fixture(40, 3);
    let (len, w) = (band.len(), band.window());
    let x = random_rows(len, 4, 7);
    let weights = random_weights(edge_count(&band), 8);
    let half = len / 2;
    let corrupt = ChunkPlan::from_raw_parts(
        len,
        w,
        vec![chunk(0, half, w, len), chunk(half - w, len, w, len)],
    );
    // Whatever thread would have raised it, the panic must propagate out of
    // the harness rather than corrupt results silently.
    let mut out = vec![0.0f32; x.len()];
    let result = catch_unwind(AssertUnwindSafe(|| {
        banded_aggregate_with_plan(
            BandLanes::SCALAR,
            &band,
            &x,
            4,
            &weights,
            &corrupt,
            &mut out,
        )
    }));
    assert!(
        result.is_err(),
        "threaded run over overlapping plan must panic"
    );
}

#[test]
fn gemm_overlapping_row_partition_panics() {
    // Two ranges both claim rows [4, 8): the GEMM shadow writer map must
    // fire with the same overlap diagnostic as the banded engine — before
    // any slice of the output is handed to a worker.
    let (n, k, m) = (16usize, 8usize, 8usize);
    let a = random_rows(n, k, 51);
    let b = random_rows(k, m, 52);
    let mut out = vec![0.0f32; n * m];
    let msg = panic_message(|| {
        let (a, b) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        mega_exec::kernels::matmul_par_with_ranges(a, b, n, k, m, &[(0, 8), (4, 16)], &mut out);
    });
    assert!(msg.contains("race-check"), "got: {msg}");
    assert!(msg.contains("owned ranges overlap"), "got: {msg}");
    assert!(msg.contains("gemm output row"), "got: {msg}");
}

#[test]
fn gemm_row_coverage_gap_panics() {
    let (n, k, m) = (16usize, 8usize, 8usize);
    let a = random_rows(n, k, 53);
    let b = random_rows(k, m, 54);
    let mut out = vec![0.0f32; n * m];
    // Rows [8, 10) belong to no range.
    let msg = panic_message(|| {
        let (a, b) = (Operand::RowMajor(&a), Operand::RowMajor(&b));
        mega_exec::kernels::matmul_par_with_ranges(a, b, n, k, m, &[(0, 8), (10, 16)], &mut out);
    });
    assert!(msg.contains("never claimed"), "got: {msg}");
}

#[test]
fn gemm_equivalence_passes_under_race_check() {
    // The happy path through the instrumented GEMM partitioner: valid
    // partitions from every backend stay bit-identical to serial with the
    // writer map armed — the checked row-ownership proof for the dense
    // kernels, matching the banded grid in `tests/banded.rs`.
    use mega_exec::{Backend, Epilogue, ReferenceBackend, SimdBackend};
    use Operand::RowMajor;
    let (n, k, m) = (96usize, 48usize, 40usize);
    let a = random_rows(n, k, 55);
    let b = random_rows(k, m, 56);
    let mut serial = vec![0.0f32; n * m];
    mega_exec::kernels::matmul(RowMajor(&a), RowMajor(&b), n, k, m, &mut serial);
    let backends: [(&str, Box<dyn Backend>); 2] = [
        ("reference", Box::new(ReferenceBackend)),
        ("simd", Box::new(SimdBackend::new())),
    ];
    for (name, backend) in backends {
        for threads in [2usize, 4] {
            let par = Parallelism::pinned(threads);
            let mut got = vec![0.0f32; n * m];
            backend.gemm(
                RowMajor(&a),
                RowMajor(&b),
                n,
                k,
                m,
                Epilogue::None,
                &par,
                &mut got,
            );
            for (g, s) in got.iter().zip(&serial) {
                assert_eq!(g.to_bits(), s.to_bits(), "{name} threads={threads}");
            }
        }
    }
}

#[test]
fn weight_grad_duplicate_slot_claims_panic() {
    let band = band_fixture(30, 2);
    let (len, w) = (band.len(), band.window());
    let x = random_rows(len, 4, 9);
    let d_out = random_rows(len, 4, 10);
    // Two chunks that both own every row: every active slot is claimed
    // twice, by different writers.
    let corrupt = ChunkPlan::from_raw_parts(len, w, vec![chunk(0, len, w, len); 2]);
    let mut dw = vec![0.0f32; edge_count(&band)];
    let msg = panic_message(|| {
        banded_weight_grad_with_plan(BandLanes::SCALAR, &band, &x, &d_out, 4, &corrupt, &mut dw)
    });
    assert!(msg.contains("race-check"), "got: {msg}");
    assert!(msg.contains("edge slot"), "got: {msg}");
}
