//! Row ownership for the intra-op threaded GEMM drivers.
//!
//! Both matmul drivers (reference and SIMD) parallelize the same
//! way: output rows are split into one contiguous range per worker, each
//! worker computes its rows with the exact serial per-row kernel, and no two
//! workers ever touch the same output element — so threading cannot
//! reassociate a single floating-point fold and the threaded result is
//! bit-identical to serial by construction.
//!
//! [`par_rows`] is the shared fan-out: it slices the output buffer into the
//! disjoint `&mut` row ranges with [`split_at_mut`](slice::split_at_mut) and
//! hands each slice to a worker via
//! [`join_workers`](mega_core::parallel::join_workers). Workers write their
//! rows **in place** — the previous drivers routed every range through a
//! freshly allocated partial buffer plus a copy-back concatenation, which
//! cost an allocation and a full extra sweep of the output per call.
//!
//! Under the `race-check` feature the ranges are additionally claimed in a
//! shadow [`WriterMap`](crate::kernels::race::WriterMap) before any slicing
//! happens, so an overlapping or gappy partition panics with the same
//! diagnostics as the banded engine's chunk checker rather than tripping the
//! borrow-splitting asserts.

use mega_core::parallel::join_workers;

/// Splits `n` output rows into at most `workers` contiguous ranges with
/// boundaries rounded up to a multiple of `align` (the drivers pass the
/// `MC` row-tile height so no tile straddles two workers; `align = 1`
/// disables rounding). Empty ranges are dropped; the returned ranges
/// partition `[0, n)` in order.
pub(crate) fn row_ranges(n: usize, workers: usize, align: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1);
    let align = align.max(1);
    let mut ranges = Vec::with_capacity(workers);
    let mut lo = 0usize;
    for t in 0..workers {
        let ideal = (t + 1) * n / workers;
        let hi = if t + 1 == workers {
            n
        } else {
            ideal.div_ceil(align).saturating_mul(align).min(n)
        };
        if hi > lo {
            ranges.push((lo, hi));
            lo = hi;
        }
    }
    ranges
}

/// Runs `body(lo, hi, rows)` for every range, where `rows` is the disjoint
/// `&mut out[lo * m..hi * m]` slice of the `n × m` output — one worker per
/// range, the first range on the calling thread.
///
/// # Panics
///
/// Panics when the ranges do not partition `[0, n)` in ascending order
/// (under `race-check`, with the shadow writer map's overlap/gap
/// diagnostics; otherwise with a plain partition assert) or when
/// `out.len() != n * m`.
pub(crate) fn par_rows<F>(out: &mut [f32], n: usize, m: usize, ranges: &[(usize, usize)], body: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), n * m, "out must be {n}x{m}");
    #[cfg(feature = "race-check")]
    {
        let writers = crate::kernels::race::WriterMap::new("gemm output row", n);
        for (id, &(lo, hi)) in ranges.iter().enumerate() {
            writers.claim_range(lo, hi, id as u32);
        }
        writers.assert_complete();
    }
    let body = &body;
    let mut jobs = Vec::with_capacity(ranges.len());
    let mut rest = out;
    let mut cursor = 0usize;
    for &(lo, hi) in ranges {
        assert!(
            lo == cursor && hi >= lo,
            "row ranges must partition [0, {n}) in order: got [{lo}, {hi}) at row {cursor}"
        );
        let (rows, tail) = rest.split_at_mut((hi - lo) * m);
        rest = tail;
        cursor = hi;
        jobs.push(move || body(lo, hi, rows));
    }
    assert!(
        cursor == n && rest.is_empty(),
        "row ranges cover only [0, {cursor}) of [0, {n})"
    );
    join_workers(jobs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_ranges_partition_in_order() {
        for n in [0usize, 1, 7, 31, 32, 33, 100, 513] {
            for workers in [1usize, 2, 4, 7] {
                for align in [1usize, 32] {
                    let ranges = row_ranges(n, workers, align);
                    let mut cursor = 0;
                    for &(lo, hi) in &ranges {
                        assert_eq!(lo, cursor, "n={n} workers={workers} align={align}");
                        assert!(hi > lo, "empty range survived");
                        if hi != n {
                            assert_eq!(hi % align, 0, "unaligned interior boundary");
                        }
                        cursor = hi;
                    }
                    assert_eq!(cursor, n, "n={n} workers={workers} align={align}");
                    assert!(ranges.len() <= workers.max(1));
                }
            }
        }
    }

    #[test]
    fn par_rows_hands_out_disjoint_slices() {
        let n = 10;
        let m = 3;
        let mut out = vec![0.0f32; n * m];
        let ranges = row_ranges(n, 4, 1);
        par_rows(&mut out, n, m, &ranges, |lo, hi, rows| {
            assert_eq!(rows.len(), (hi - lo) * m);
            for (i, v) in rows.iter_mut().enumerate() {
                *v = (lo * m + i) as f32;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    #[cfg(not(feature = "race-check"))]
    #[should_panic(expected = "cover only")]
    fn par_rows_rejects_short_partitions() {
        let mut out = vec![0.0f32; 8];
        par_rows(&mut out, 4, 2, &[(0, 3)], |_, _, _| {});
    }

    #[test]
    #[cfg(feature = "race-check")]
    #[should_panic(expected = "never claimed")]
    fn par_rows_rejects_short_partitions() {
        // Same corruption as the non-race-check twin; the shadow writer map
        // gets there first with its gap diagnostic.
        let mut out = vec![0.0f32; 8];
        par_rows(&mut out, 4, 2, &[(0, 3)], |_, _, _| {});
    }
}
