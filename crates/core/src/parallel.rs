//! Parallel band execution: chunk plans, and the one scoped-thread
//! primitive every parallel path runs on.
//!
//! The width-ω band makes attention *local in path position*: every pair
//! `(i, j)` with an active slot satisfies `|i - j| ≤ ω`. A [`ChunkPlan`]
//! exploits that locality to split the path into contiguous chunks whose read
//! extents overlap by exactly ω positions, so **no in-band pair straddles a
//! cut**: every active [`BandSlot`](crate::band::BandSlot) relevant to a chunk's owned rows is fully
//! visible inside that chunk's extent. The rule for how many chunks is one
//! place, [`ChunkPlan::for_workers`]: one chunk per worker, fewer when a
//! chunk would be thinner than ω. The intra-op kernels
//! (`mega_exec::kernels::banded_*`) and the segment executor
//! (`mega_dist::ThreadExecutor`) both take their plan from it.
//!
//! # Determinism guarantee
//!
//! Each chunk *owns* a disjoint range of output rows and computes them by
//! folding slot contributions in the same ascending `(lo, offset)` order the
//! serial kernel uses. Because row accumulators are per-row and never shared
//! across chunks, the parallel result is **bit-identical** to the serial
//! result for every worker count and every chunk size — there is no
//! cross-chunk floating-point re-association at all, and every chunk writes
//! its rows straight into its own slice of the caller's output
//! ([`join_workers`]).
//!
//! [`join_workers`] is the only thread-spawning primitive: the last job runs
//! on the calling thread, the rest on scoped threads. [`ordered_map`] is a
//! static contiguous split of its items over it, so which items run on the
//! calling thread (and nest their spans under its open ones) is fixed by
//! the item and thread counts alone. There is no second primitive and no
//! shared work queue.

use crate::band::BandMask;
use std::fmt;
use std::sync::OnceLock;

/// The host's available parallelism, resolved once per process.
///
/// Cached because [`Parallelism::effective_threads`] sits on kernel hot
/// paths (every matmul dispatch consults it) and
/// [`std::thread::available_parallelism`] can hit the filesystem on Linux
/// (cgroup quota files).
pub fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    // mega-lint: allow(determinism-taint, reason = "thread count only partitions work; ordered_map concatenates its contiguous chunks in index order, so numeric results are bit-identical for any worker count (proven by dist equivalence tests)")
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The worker-count request every parallel path resolves.
///
/// `threads == 0` means "auto": [`std::thread::available_parallelism`].
///
/// Unless [`pin_threads`](Parallelism::pin_threads) is set, the resolved
/// count is **clamped to the host's available parallelism**: running more
/// compute workers than cores is pure overhead (the `f32` kernels never
/// block), and on a small host the oversubscribed threads time-slice one
/// core while paying all the coordination cost — the measured band-engine
/// regression that motivated the clamp. Results are bit-identical for every
/// worker count, so the clamp is purely a performance decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Parallelism {
    /// Worker thread count; 0 = auto (the hardware).
    pub threads: usize,
    /// Honor `threads` exactly, even beyond the host's cores. Test harnesses
    /// set this to force the parallel code paths (and their bit-identity
    /// proofs) to execute on any machine; production configs leave it off.
    pub pin_threads: bool,
}

impl Parallelism {
    /// A config requesting `threads` workers (0 = auto), clamped to the
    /// host's cores at resolution time.
    pub fn with_threads(threads: usize) -> Self {
        Parallelism {
            threads,
            pin_threads: false,
        }
    }

    /// A config running **exactly** `threads` workers, bypassing the
    /// host-core clamp. Oversubscription makes nothing faster, but the
    /// parallel paths stay bit-identical to serial, so equivalence and
    /// race-check harnesses use this to exercise them on any host.
    pub fn pinned(threads: usize) -> Self {
        Parallelism {
            threads,
            pin_threads: true,
        }
    }

    /// Resolves the worker count actually used: explicit `threads`, else
    /// the hardware — clamped to the host's cores unless
    /// [`pin_threads`](Parallelism::pin_threads) is set.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            host_threads()
        } else if self.pin_threads {
            self.threads
        } else {
            self.threads.min(host_threads())
        }
    }
}

/// One segment of the path: owns rows `[start, end)` exclusively and reads
/// rows/slots from the extended range `[read_lo, read_hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First owned row.
    pub start: usize,
    /// One past the last owned row.
    pub end: usize,
    /// First readable row (`start` minus ω, clamped to 0).
    pub read_lo: usize,
    /// One past the last readable row (`end` plus ω, clamped to the length).
    pub read_hi: usize,
}

impl Chunk {
    /// Number of owned rows.
    pub fn owned_len(&self) -> usize {
        self.end - self.start
    }
}

/// One violated [`ChunkPlan`] invariant, as reported by
/// [`ChunkPlan::validate`].
///
/// The message names the offending chunk and the invariant it breaks —
/// ownership partition (cover / no gaps / no overlap) or read-window
/// geometry (extends the owned range by exactly ω, clamped at the path
/// boundaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanViolation {
    /// Index of the offending chunk (0 when the plan as a whole is broken).
    pub chunk: usize,
    /// Which invariant is violated, and how.
    pub message: String,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk {}: {}", self.chunk, self.message)
    }
}

impl std::error::Error for PlanViolation {}

/// The chunk decomposition of a path of length `len` under window ω.
///
/// Invariants (property-tested in `crates/core/tests/proptests.rs`):
///
/// * owned ranges partition `[0, len)` in order (cover, no gaps, no overlap);
/// * each read extent extends the owned range by exactly ω on both sides,
///   clamped at the path boundaries;
/// * every active [`BandSlot`] is *owned* by exactly one chunk — the one
///   whose owned range contains `slot.lo` — and both its endpoints lie
///   inside that chunk's read extent (`hi ≤ lo + ω < end + ω`).
///
/// [`BandSlot`]: crate::band::BandSlot
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    len: usize,
    window: usize,
    chunks: Vec<Chunk>,
}

impl ChunkPlan {
    /// Splits `[0, len)` into `ceil(len / chunk_size)` chunks with ω-overlap
    /// read extents.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn build(len: usize, window: usize, chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk_size must be >= 1");
        let mut chunks = Vec::with_capacity(len / chunk_size + 1);
        let mut start = 0;
        while start < len {
            let end = (start + chunk_size).min(len);
            chunks.push(Chunk {
                start,
                end,
                read_lo: start.saturating_sub(window),
                read_hi: (end + window).min(len),
            });
            start = end;
        }
        if len == 0 {
            // A single empty chunk keeps downstream map/reduce uniform.
            chunks.push(Chunk {
                start: 0,
                end: 0,
                read_lo: 0,
                read_hi: 0,
            });
        }
        ChunkPlan {
            len,
            window,
            chunks,
        }
    }

    /// Builds a plan from explicit parts, *without* validating them.
    ///
    /// This exists so the invariant checker's own tests (and the
    /// `race-check` harness in `mega-exec`) can construct deliberately
    /// corrupt plans and prove that [`ChunkPlan::validate`] and the shadow
    /// writer map reject them. Production code must use
    /// [`ChunkPlan::build`] / [`ChunkPlan::for_workers`], which only
    /// produce valid plans.
    #[doc(hidden)]
    pub fn from_raw_parts(len: usize, window: usize, chunks: Vec<Chunk>) -> Self {
        ChunkPlan {
            len,
            window,
            chunks,
        }
    }

    /// Statically checks the two load-bearing invariants of the parallel
    /// band engine:
    ///
    /// 1. **Write-set partition** — the chunks' owned ranges `[start, end)`
    ///    exactly partition `[0, len)`: in order, gap-free, overlap-free
    ///    (the empty path is covered by exactly one empty chunk). This is
    ///    what makes cross-chunk write races impossible and the in-order
    ///    concatenation reduction correct.
    /// 2. **Read-window geometry** — every read extent is the owned range
    ///    extended by exactly ω on each side, clamped to the path
    ///    boundaries, so every in-band pair relevant to an owned row is
    ///    visible inside the chunk and nothing further is ever read.
    ///
    /// [`ChunkPlan::for_band`] validates every plan it hands out; the
    /// `race-check` feature of `mega-exec` additionally verifies the
    /// *dynamic* accesses of the banded kernels against these bounds.
    pub fn validate(&self) -> Result<(), PlanViolation> {
        let fail = |chunk: usize, message: String| Err(PlanViolation { chunk, message });
        if self.chunks.is_empty() {
            return fail(0, "plan has no chunks; even an empty path owns one".into());
        }
        if self.len == 0 {
            let c = self.chunks[0];
            if self.chunks.len() != 1
                || c != (Chunk {
                    start: 0,
                    end: 0,
                    read_lo: 0,
                    read_hi: 0,
                })
            {
                return fail(
                    0,
                    format!(
                        "an empty path must be exactly one empty chunk, got {:?}",
                        self.chunks
                    ),
                );
            }
            return Ok(());
        }
        let mut expected_start = 0usize;
        for (i, c) in self.chunks.iter().enumerate() {
            if c.start != expected_start {
                return fail(
                    i,
                    format!(
                        "owned ranges must partition [0, {}) in order: \
                         expected start {expected_start}, got {}",
                        self.len, c.start
                    ),
                );
            }
            if c.end <= c.start {
                return fail(i, format!("owned range [{}, {}) is empty", c.start, c.end));
            }
            if c.end > self.len {
                return fail(
                    i,
                    format!(
                        "owned range ends at {} beyond path length {}",
                        c.end, self.len
                    ),
                );
            }
            let want_lo = c.start.saturating_sub(self.window);
            if c.read_lo != want_lo {
                return fail(
                    i,
                    format!(
                        "read_lo {} is not start - ω clamped at 0 (want {want_lo})",
                        c.read_lo
                    ),
                );
            }
            let want_hi = (c.end + self.window).min(self.len);
            if c.read_hi != want_hi {
                return fail(
                    i,
                    format!(
                        "read_hi {} is not end + ω clamped at len (want {want_hi})",
                        c.read_hi
                    ),
                );
            }
            expected_start = c.end;
        }
        if expected_start != self.len {
            return fail(
                self.chunks.len() - 1,
                format!(
                    "owned ranges cover only [0, {expected_start}) of [0, {})",
                    self.len
                ),
            );
        }
        Ok(())
    }

    /// The one plan rule: one chunk per worker. `[0, len)` is cut into at
    /// most `workers` chunks of `ceil(len / k)` rows — the quotient
    /// `mega_dist::path_segments` uses, so position `i` lands in chunk
    /// `i / ceil(len / k)`.
    ///
    /// `k` starts at `workers` and is clamped down until every chunk but the
    /// last spans at least ω rows: a chunk's ±ω read extent then reaches
    /// into its immediate neighbors only, which is what the segment
    /// executor's adjacent-only halo exchange needs (a path shorter than
    /// `workers · ω` simply runs on fewer workers).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn for_workers(len: usize, window: usize, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let mut k = workers;
        while k > 1 && len.div_ceil(k) < window.max(1) {
            k -= 1;
        }
        Self::build(len, window, len.div_ceil(k).max(1))
    }

    /// [`ChunkPlan::for_workers`] for this band at the worker count `par`
    /// resolves to.
    ///
    /// Every plan handed out is [validated](ChunkPlan::validate); a failure
    /// here would mean [`ChunkPlan::build`] itself is broken, so it panics.
    pub fn for_band(band: &BandMask, par: &Parallelism) -> Self {
        let plan = Self::for_workers(band.len(), band.window(), par.effective_threads());
        if let Err(v) = plan.validate() {
            panic!("ChunkPlan::for_workers produced an invalid plan: {v}");
        }
        plan
    }

    /// Path length covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the covered path is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window ω the plan was built with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The chunks in path order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Index of the chunk owning row (or slot `lo`) `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    pub fn owner_of(&self, pos: usize) -> usize {
        assert!(
            pos < self.len,
            "position {pos} outside path of length {}",
            self.len
        );
        self.chunks.partition_point(|c| c.end <= pos)
    }
}

/// Maps `f` over `items` on up to `threads` workers, preserving input order.
///
/// The items are cut into contiguous chunks of near-equal length, one per
/// worker, each run as a [`join_workers`] job that maps its chunk in order;
/// the last chunk runs on the calling thread. The chunks are concatenated in
/// order, so the output is index-ordered and the assignment of items to
/// threads depends only on `items.len()` and `threads`. With `threads <= 1`
/// (or one item) the map runs inline.
pub fn ordered_map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    let workers = threads.min(n).max(1);
    let mut parts: Vec<Vec<O>> = (0..workers).map(|_| Vec::new()).collect();
    let f = &f;
    let jobs: Vec<_> = parts
        .iter_mut()
        .enumerate()
        .map(|(w, part)| {
            let range = w * n / workers..(w + 1) * n / workers;
            move || *part = range.map(|i| f(i, &items[i])).collect()
        })
        .collect();
    join_workers(jobs);
    parts.into_iter().flatten().collect()
}

/// Runs one closure per worker to completion, using the calling thread for
/// the last.
///
/// The one place a thread starts. The caller splits its output into
/// disjoint `&mut` parts, moves one part into each job, and every job writes
/// its part in place — no per-item `Mutex`, no result collection, no
/// copy-back. With zero or one job nothing is spawned; the single job runs
/// inline on the caller. Otherwise the last job runs on the calling thread.
///
/// A panicking spawned job propagates out of the enclosing
/// [`std::thread::scope`] (its payload replaced by the scope's generic
/// message); a panic in the last job propagates directly.
pub fn join_workers<J>(jobs: Vec<J>)
where
    J: FnOnce() + Send,
{
    let mut jobs = jobs;
    let Some(first) = jobs.pop() else { return };
    if jobs.is_empty() {
        if mega_obs::enabled() {
            mega_obs::counter_add("core.parallel.inline_runs", 1);
        }
        first();
        return;
    }
    std::thread::scope(|scope| {
        for job in jobs {
            scope.spawn(job);
        }
        first();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_plan_partitions_and_overlaps() {
        let plan = ChunkPlan::build(103, 4, 10);
        let chunks = plan.chunks();
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, 103);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            // Read extents overlap by exactly 2ω across a cut (ω each side).
            assert_eq!(w[0].read_hi, (w[0].end + 4).min(103));
            assert_eq!(w[1].read_lo, w[1].start - 4);
        }
    }

    #[test]
    fn owner_of_matches_owned_ranges() {
        let plan = ChunkPlan::build(57, 3, 8);
        for (ci, c) in plan.chunks().iter().enumerate() {
            for r in c.start..c.end {
                assert_eq!(plan.owner_of(r), ci);
            }
        }
    }

    #[test]
    fn empty_plan_has_one_empty_chunk() {
        let plan = ChunkPlan::build(0, 2, 8);
        assert!(plan.is_empty());
        assert_eq!(plan.chunks().len(), 1);
        assert_eq!(plan.chunks()[0].owned_len(), 0);
    }

    #[test]
    fn built_plans_always_validate() {
        for len in [0usize, 1, 7, 103, 400] {
            for window in [1usize, 3, 8] {
                for chunk in [1usize, 5, 64] {
                    let plan = ChunkPlan::build(len, window, chunk);
                    assert_eq!(
                        plan.validate(),
                        Ok(()),
                        "len={len} ω={window} chunk={chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn validate_rejects_overlapping_ownership() {
        let mut chunks = ChunkPlan::build(40, 2, 10).chunks().to_vec();
        chunks[1].start = 5; // overlaps chunk 0's owned rows [0, 10)
        let bad = ChunkPlan::from_raw_parts(40, 2, chunks);
        let v = bad.validate().unwrap_err();
        assert_eq!(v.chunk, 1);
        assert!(v.message.contains("partition"), "{v}");
    }

    #[test]
    fn validate_rejects_coverage_gaps() {
        let mut chunks = ChunkPlan::build(40, 2, 10).chunks().to_vec();
        chunks.remove(2); // rows [20, 30) now unowned
        let bad = ChunkPlan::from_raw_parts(40, 2, chunks);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_wrong_read_windows() {
        let mut chunks = ChunkPlan::build(40, 2, 10).chunks().to_vec();
        chunks[1].read_lo = 0; // wider than start - ω
        let bad = ChunkPlan::from_raw_parts(40, 2, chunks.clone());
        assert!(bad.validate().unwrap_err().message.contains("read_lo"));
        let mut chunks = ChunkPlan::build(40, 2, 10).chunks().to_vec();
        chunks[2].read_hi = 40; // wider than end + ω
        let bad = ChunkPlan::from_raw_parts(40, 2, chunks);
        assert!(bad.validate().unwrap_err().message.contains("read_hi"));
    }

    #[test]
    fn validate_rejects_truncated_plans() {
        let mut chunks = ChunkPlan::build(40, 2, 10).chunks().to_vec();
        chunks.pop();
        let bad = ChunkPlan::from_raw_parts(40, 2, chunks);
        assert!(bad.validate().unwrap_err().message.contains("cover only"));
        assert!(ChunkPlan::from_raw_parts(3, 1, Vec::new())
            .validate()
            .is_err());
    }

    #[test]
    fn ordered_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = ordered_map(&items, 8, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(doubled, (0..100).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn effective_threads_prefers_explicit() {
        // Unpinned requests are capped at the host's cores…
        assert_eq!(
            Parallelism::with_threads(3).effective_threads(),
            3.min(host_threads())
        );
        // …while pinned requests are honored exactly, on any host.
        assert_eq!(Parallelism::pinned(3).effective_threads(), 3);
        assert!(Parallelism::default().effective_threads() >= 1);
    }

    #[test]
    fn pinned_bypasses_host_clamp() {
        let many = host_threads() + 7;
        assert_eq!(Parallelism::pinned(many).effective_threads(), many);
        assert!(Parallelism::with_threads(many).effective_threads() <= host_threads());
        // Pinning "auto" still resolves to the hardware.
        assert_eq!(Parallelism::pinned(0).effective_threads(), host_threads());
    }

    #[test]
    fn join_workers_runs_every_job() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = AtomicU64::new(0);
        join_workers(Vec::<fn()>::new()); // no jobs: nothing to do
        join_workers(vec![|| {
            hits.fetch_add(1, Ordering::Relaxed);
        }]);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        let jobs: Vec<_> = (0..5u64)
            .map(|i| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1 << i, Ordering::Relaxed);
                }
            })
            .collect();
        join_workers(jobs);
        assert_eq!(hits.load(Ordering::Relaxed), 1 + 0b11111);
    }
}
