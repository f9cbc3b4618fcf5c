//! Multi-worker band-engine execution over path segments.
//!
//! The paper's §IV-B6 claim is that the path representation makes
//! distribution cheap: cutting the path into `k` contiguous segments leaves
//! only `k − 1` neighbor pairs, and each pair exchanges exactly the ±ω halo
//! rows per step. [`crate::comm`] *accounts* that volume; this module
//! *executes* it. [`ThreadExecutor`] runs one worker per segment
//! (threads with typed message channels — the in-tree harness behind the
//! [`DistExecutor`] trait, so a process-per-segment transport can slot in
//! later), double-buffers the halo exchange so interior compute overlaps
//! communication, and merges per-segment results in a fixed ascending
//! order, making every run bit-identical to the serial oracle
//! [`run_serial`] for any worker count.
//!
//! ## Halo protocol
//!
//! The path is cut by [`ChunkPlan::for_workers`] — the rule the intra-op
//! kernels use, one chunk per worker, no chunk but the last thinner than ω —
//! so a read extent never reaches past an immediate neighbor. Each worker
//! owns the rows of one chunk and holds two slabs (`x`, `y`) covering its ±ω
//! read extent, plus two slot-ordered weight-gradient runs (accumulator and
//! step), all allocated once per run. Per step:
//!
//! 1. zero `y`; compute the owned *boundary* rows (first ω, last ω) into
//!    `y` and scale by the damping factor;
//! 2. send those boundary rows to the chain neighbors (non-blocking);
//! 3. compute the owned *interior* rows — this overlaps the exchange;
//! 4. receive the neighbors' boundary rows into `y`'s halo regions;
//! 5. fold the owned slots' weight-gradient contributions (reads `x` and
//!    the just-completed `y`, including the received halo);
//! 6. swap `x ↔ y` — the received halo doubles as the next step's input
//!    halo, so each row crosses the wire exactly once per step.
//!
//! Each worker's clipped walk gives every row it owns the serial kernel's
//! updates in its slot order (`mega_exec::kernels::banded_aggregate_segment`),
//! so no float is ever re-associated; determinism does not depend on
//! scheduling. [`run_serial`] is the same evolution on the slot walk itself —
//! the one-worker engine, and an oracle that shares no loop with the
//! workers' clipped walk.

use mega_core::parallel::join_workers;
use mega_core::{BandMask, Chunk, ChunkPlan};
use mega_exec::kernels::{self, BandLanes};
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};

/// The band kernels' inner loops on every path here: the scalar ones, so
/// the workers and their `run_serial` oracle compute the reference bits.
const LANES: BandLanes = BandLanes::SCALAR;

/// One multi-step band-engine job: evolve `x_{t+1} = damping · A·x_t`
/// (`A` the banded slot-weight matrix) for `steps` steps, accumulating
/// each step's per-edge weight-gradient contribution
/// `dw[e] += ⟨x_{t+1}[lo], x_t[hi]⟩ + ⟨x_{t+1}[hi], x_t[lo]⟩` — the band
/// engine's forward + weight-grad pair, iterated so the halo protocol is
/// exercised across optimizer-step-like boundaries.
#[derive(Debug, Clone)]
pub struct BandJob<'a> {
    /// The band mask.
    pub band: &'a BandMask,
    /// Initial state, row-major `L × dim`.
    pub x0: &'a [f32],
    /// Feature width.
    pub dim: usize,
    /// Per-edge slot weights.
    pub weights: &'a [f32],
    /// Working-graph edge count (sizes the weight-grad output).
    pub edge_count: usize,
    /// Steps to run.
    pub steps: usize,
    /// Per-step damping factor applied elementwise after aggregation.
    pub damping: f32,
}

/// The result of a [`BandJob`]: final state and accumulated weight-grad.
#[derive(Debug, Clone, PartialEq)]
pub struct BandRun {
    /// Final state, row-major `L × dim`.
    pub x: Vec<f32>,
    /// Accumulated per-edge weight gradient over all steps.
    pub dw: Vec<f32>,
}

/// A distributed band-engine transport. [`ThreadExecutor`] is the in-tree
/// thread-per-segment implementation; a process-per-segment transport only
/// needs to move [`BandJob`] slabs and halo rows across its boundary and
/// can slot in behind this trait unchanged.
pub trait DistExecutor {
    /// The worker count this executor was configured for (before any
    /// per-job clamping).
    fn workers(&self) -> usize;

    /// Runs the job to completion and returns the merged result —
    /// bit-identical to [`run_serial`] on the same job.
    fn run(&self, job: &BandJob<'_>) -> BandRun;
}

/// One halo message: the sender's boundary rows for one step. The typed
/// envelope (step index + global row range) lets the receiver assert the
/// protocol instead of trusting channel ordering.
#[derive(Debug)]
struct HaloMsg {
    step: usize,
    rows: Range<usize>,
    data: Vec<f32>,
}

/// Per-worker channel endpoints: chain neighbors only — O(k) pairs, the
/// §IV-B6 topology.
struct Mailbox {
    to_left: Option<Sender<HaloMsg>>,
    to_right: Option<Sender<HaloMsg>>,
    from_left: Option<Receiver<HaloMsg>>,
    from_right: Option<Receiver<HaloMsg>>,
}

/// Thread-per-segment executor with typed message channels.
#[derive(Debug, Clone)]
pub struct ThreadExecutor {
    workers: usize,
}

impl ThreadExecutor {
    /// An executor that will cut each job's path into (at most) `workers`
    /// segments.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    // mega-lint: allow(span-coverage, reason = "executor constructor; spans open in run_with_plan")
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ThreadExecutor { workers }
    }
}

impl DistExecutor for ThreadExecutor {
    // mega-lint: allow(span-coverage, reason = "O(1) accessor on the executor trait; nothing to attribute")
    fn workers(&self) -> usize {
        self.workers
    }

    fn run(&self, job: &BandJob<'_>) -> BandRun {
        let band = job.band;
        let plan = ChunkPlan::for_workers(band.len(), band.window(), self.workers);
        run_with_plan(job, &plan)
    }
}

/// The one-worker engine and the serial oracle: the same evolution on the
/// calling thread through the slot-walk kernels, two state buffers swapped
/// per step and nothing allocated inside the loop. Every [`DistExecutor`]
/// run must match this bit-for-bit.
pub fn run_serial(job: &BandJob<'_>) -> BandRun {
    assert_eq!(job.x0.len(), job.band.len() * job.dim, "x0 must be L x dim");
    let _span = mega_obs::span("dist_serial");
    let mut x = job.x0.to_vec();
    let mut y = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; job.edge_count];
    // Never re-zeroed: the weight-grad walk assigns the same entries (one
    // per active slot) every step and leaves the rest at their initial zero.
    let mut step_dw = vec![0.0f32; job.edge_count];
    for _ in 0..job.steps {
        y.fill(0.0);
        kernels::banded_aggregate_serial(LANES, job.band, &x, job.dim, job.weights, &mut y);
        for v in &mut y {
            *v *= job.damping;
        }
        kernels::banded_weight_grad_serial(LANES, job.band, &x, &y, job.dim, &mut step_dw);
        for (acc, v) in dw.iter_mut().zip(&step_dw) {
            *acc += *v;
        }
        std::mem::swap(&mut x, &mut y);
    }
    BandRun { x, dw }
}

/// Runs `job` over an explicit plan: one worker per chunk ("segment"), the
/// last on the calling thread, boundary-first compute, double-buffered halo
/// exchange, fixed-order merge.
/// [`ThreadExecutor`] passes [`ChunkPlan::for_workers`]; the race-check
/// harness passes corrupt plans, which must panic here instead of racing.
pub fn run_with_plan(job: &BandJob<'_>, plan: &ChunkPlan) -> BandRun {
    assert_eq!(job.x0.len(), job.band.len() * job.dim, "x0 must be L x dim");
    let _span = mega_obs::span("dist_run");
    let segs = plan.chunks();
    let k = segs.len();
    mega_obs::counter_add("dist.runs", 1);
    mega_obs::counter_add("dist.workers", k as u64);
    mega_obs::counter_add("dist.steps", job.steps as u64);

    // Under race-check: every worker claims its owned rows in a shared
    // writer map before any compute — overlapping or gappy segment
    // ownership panics up front instead of racing on halo rows.
    #[cfg(feature = "race-check")]
    let writers = kernels::race::WriterMap::new("segment row", plan.len());
    #[cfg(feature = "race-check")]
    {
        for (seg_id, seg) in segs.iter().enumerate() {
            writers.claim_range(seg.start, seg.end, seg_id as u32);
        }
        writers.assert_complete();
    }
    // The halo exchange is adjacent-only: a segment thinner than ω would
    // need rows from beyond its neighbor ([`ChunkPlan::for_workers`] never
    // builds one; an arbitrary plan can).
    assert!(
        segs.iter()
            .rev()
            .skip(1)
            .all(|s| s.owned_len() >= plan.window()),
        "every segment but the last must span at least ω = {} rows",
        plan.window()
    );

    // Chain topology: one channel per directed neighbor edge — 2(k−1)
    // endpoints, the O(k) halo-pair structure the accounting model prices.
    let mut mailboxes: Vec<Mailbox> = (0..k)
        .map(|_| Mailbox {
            to_left: None,
            to_right: None,
            from_left: None,
            from_right: None,
        })
        .collect();
    for w in 0..k.saturating_sub(1) {
        let (tx_r, rx_r) = channel(); // w → w+1
        let (tx_l, rx_l) = channel(); // w+1 → w
        mailboxes[w].to_right = Some(tx_r);
        mailboxes[w + 1].from_left = Some(rx_r);
        mailboxes[w + 1].to_left = Some(tx_l);
        mailboxes[w].from_right = Some(rx_l);
    }

    // Each worker writes its owned rows of the final state straight into
    // `x` and hands back its owned slots' weight-grad in slot order
    // (`kernels::owned_slots`); the last segment runs on the calling thread.
    // Owned ranges partition the path in order, so consecutive splits of `x`
    // are the segments' rows.
    let mut x = vec![0.0f32; job.x0.len()];
    let mut seg_dw: Vec<Vec<f32>> = (0..k).map(|_| Vec::new()).collect();
    let mut rest = x.as_mut_slice();
    let mut jobs = Vec::with_capacity(k);
    for ((seg, mailbox), dw_out) in segs.iter().zip(mailboxes).zip(&mut seg_dw) {
        let (x_out, tail) = std::mem::take(&mut rest).split_at_mut(seg.owned_len() * job.dim);
        rest = tail;
        jobs.push(move || *dw_out = worker(job, seg, mailbox, x_out));
    }
    join_workers(jobs);

    let mut dw = vec![0.0f32; job.edge_count];
    let slots = job.band.active_slots();
    for (seg, seg_dw) in segs.iter().zip(&seg_dw) {
        // Each edge claims exactly one slot and each slot has exactly one
        // owning segment, so this "all-reduce" is a disjoint fixed-order
        // scatter — no float is ever summed across workers.
        let owned = &slots[kernels::owned_slots(job.band, seg)];
        for (s, &v) in owned.iter().zip(seg_dw) {
            dw[s.edge] = v;
        }
    }
    BandRun { x, dw }
}

/// One segment worker: owns `seg`'s rows, holds slabs over the ±ω read
/// extent, and speaks the halo protocol with its chain neighbors. Writes
/// the final state of its owned rows into `x_out` and returns its owned
/// slots' accumulated weight-grad.
fn worker(job: &BandJob<'_>, seg: &Chunk, mailbox: Mailbox, x_out: &mut [f32]) -> Vec<f32> {
    let dim = job.dim;
    let omega = job.band.window();
    let base = seg.read_lo;
    let slab_rows = seg.read_hi - seg.read_lo;
    let mut x = vec![0.0f32; slab_rows * dim];
    x.copy_from_slice(&job.x0[base * dim..seg.read_hi * dim]);
    let mut y = vec![0.0f32; slab_rows * dim];

    // Boundary geometry: the first/last ω owned rows are what neighbors
    // need. When the segment is narrower than 2ω the two regions meet.
    let b1_hi = (seg.start + omega).min(seg.end);
    let b2_lo = seg.end.saturating_sub(omega).max(b1_hi);
    // One value per slot owned by this segment (lo ∈ [start, end)), fixed
    // across steps; the accumulator starts at zero so per-edge sums fold in
    // step order exactly like the serial oracle's `dw[e] += step_dw[e]`.
    let n_owned = kernels::owned_slots(job.band, seg).len();
    let mut dw_acc = vec![0.0f32; n_owned];
    let mut dw_step = vec![0.0f32; n_owned];

    for step in 0..job.steps {
        let t_step = mega_obs::timer();
        y.fill(0.0);
        // 1. Boundary rows first, then scale: y = damping · A·x.
        kernels::banded_aggregate_segment(
            LANES,
            job.band,
            seg,
            seg.start,
            b1_hi,
            &x,
            base,
            dim,
            job.weights,
            &mut y,
            base,
        );
        kernels::banded_aggregate_segment(
            LANES,
            job.band,
            seg,
            b2_lo,
            seg.end,
            &x,
            base,
            dim,
            job.weights,
            &mut y,
            base,
        );
        for r in (seg.start..b1_hi).chain(b2_lo..seg.end) {
            for v in &mut y[(r - base) * dim..(r - base + 1) * dim] {
                *v *= job.damping;
            }
        }
        // 2. Send boundary rows — non-blocking, overlaps step 3. The left
        // neighbor's right halo is exactly [start, min(start+ω, len)) =
        // [start, b1_hi); the right neighbor's left halo is [end−ω, end).
        if let Some(tx) = &mailbox.to_left {
            send_halo(tx, step, seg.start..b1_hi, &y, base, dim);
        }
        if let Some(tx) = &mailbox.to_right {
            send_halo(tx, step, seg.end - omega..seg.end, &y, base, dim);
        }
        // 3. Interior rows while the halos are in flight.
        kernels::banded_aggregate_segment(
            LANES,
            job.band,
            seg,
            b1_hi,
            b2_lo,
            &x,
            base,
            dim,
            job.weights,
            &mut y,
            base,
        );
        for v in &mut y[(b1_hi - base) * dim..(b2_lo - base) * dim] {
            *v *= job.damping;
        }
        // 4. Receive the neighbors' boundary rows into y's halo regions.
        let t_wait = mega_obs::timer();
        if let Some(rx) = &mailbox.from_left {
            recv_halo(rx, step, seg.read_lo..seg.start, &mut y, base, dim);
        }
        if let Some(rx) = &mailbox.from_right {
            recv_halo(rx, step, seg.end..seg.read_hi, &mut y, base, dim);
        }
        t_wait.observe("dist.halo.wait_ns");
        // 5. Weight-grad for owned slots: reads x (pre-step) and y
        // (post-step, halo included — a slot reaches up to ω rows right of
        // the owned range, which is exactly the halo just received).
        kernels::banded_weight_grad_segment(LANES, job.band, seg, &x, &y, base, dim, &mut dw_step);
        for (acc, v) in dw_acc.iter_mut().zip(&dw_step) {
            *acc += *v;
        }
        // 6. Double-buffer swap: the received halo is next step's input.
        std::mem::swap(&mut x, &mut y);
        t_step.observe("dist.step_ns");
    }

    x_out.copy_from_slice(&x[(seg.start - base) * dim..(seg.end - base) * dim]);
    dw_acc
}

/// Copies `rows` out of the sender's slab and ships them. A disconnected
/// receiver means a peer worker panicked; propagate by panicking too.
fn send_halo(
    tx: &Sender<HaloMsg>,
    step: usize,
    rows: Range<usize>,
    slab: &[f32],
    base: usize,
    dim: usize,
) {
    if rows.is_empty() {
        // Mirrors recv_halo: a zero-width band has no halo to exchange.
        return;
    }
    let data = slab[(rows.start - base) * dim..(rows.end - base) * dim].to_vec();
    mega_obs::counter_add("dist.halo.msgs", 1);
    mega_obs::counter_add("dist.halo.bytes", (data.len() * 4) as u64);
    tx.send(HaloMsg { step, rows, data })
        .expect("halo peer disconnected");
}

/// Receives one halo message and writes it into the slab, asserting the
/// typed envelope matches the protocol's expected step and row range.
fn recv_halo(
    rx: &Receiver<HaloMsg>,
    step: usize,
    expect: Range<usize>,
    slab: &mut [f32],
    base: usize,
    dim: usize,
) {
    if expect.is_empty() {
        return;
    }
    let msg = rx.recv().expect("halo peer disconnected");
    assert_eq!(msg.step, step, "halo message from the wrong step");
    assert_eq!(
        msg.rows, expect,
        "halo rows [{}, {}) do not match the expected window [{}, {})",
        msg.rows.start, msg.rows.end, expect.start, expect.end
    );
    slab[(expect.start - base) * dim..(expect.end - base) * dim].copy_from_slice(&msg.data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_core::{preprocess, AttentionSchedule, MegaConfig};
    use mega_graph::generate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schedule_for(n: usize, seed: u64) -> AttentionSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::barabasi_albert(n, 3, &mut rng).unwrap();
        preprocess(&g, &MegaConfig::default()).unwrap()
    }

    fn job_inputs(band: &BandMask, edges: usize, dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0: Vec<f32> = (0..band.len() * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let weights: Vec<f32> = (0..edges).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        (x0, weights)
    }

    #[test]
    fn segment_plan_clamps_to_window() {
        // 10 rows, ω = 4: 8 workers would leave segments thinner than the
        // halo; the plan must fall back to fewer.
        let plan = ChunkPlan::for_workers(10, 4, 8);
        let segs = plan.chunks();
        assert!(segs.len() <= 8);
        for seg in &segs[..segs.len() - 1] {
            assert!(seg.owned_len() >= 4, "segment thinner than ω: {seg:?}");
        }
    }

    #[test]
    fn assignment_matches_path_segments_quotient() {
        let plan = ChunkPlan::for_workers(11, 1, 3);
        let chunk = 11usize.div_ceil(3);
        let expect: Vec<usize> = (0..11).map(|i| (i / chunk).min(2)).collect();
        let got: Vec<usize> = (0..11).map(|i| plan.owner_of(i)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "must span at least ω")]
    fn plans_thinner_than_the_halo_are_refused() {
        let sched = schedule_for(40, 2);
        let band = sched.band();
        assert!(band.window() > 1);
        let edges = sched.working_graph().edge_count();
        let (x0, weights) = job_inputs(band, edges, 2, 4);
        let job = BandJob {
            band,
            x0: &x0,
            dim: 2,
            weights: &weights,
            edge_count: edges,
            steps: 1,
            damping: 1.0,
        };
        // A valid partition, but a one-row segment's halo reaches past its
        // neighbor.
        run_with_plan(&job, &ChunkPlan::build(band.len(), band.window(), 1));
    }

    #[test]
    fn distributed_run_is_bit_identical_to_serial() {
        let sched = schedule_for(120, 5);
        let band = sched.band();
        let edges = sched.working_graph().edge_count();
        let (x0, weights) = job_inputs(band, edges, 8, 17);
        let job = BandJob {
            band,
            x0: &x0,
            dim: 8,
            weights: &weights,
            edge_count: edges,
            steps: 4,
            damping: 0.7,
        };
        let oracle = run_serial(&job);
        assert!(oracle.x.iter().all(|v| v.is_finite()));
        for workers in [1, 2, 3, 4, 7] {
            let run = ThreadExecutor::new(workers).run(&job);
            assert_eq!(
                run.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                oracle.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "state diverged at {workers} workers"
            );
            assert_eq!(
                run.dw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                oracle.dw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "weight-grad diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn more_workers_than_rows_still_matches() {
        let sched = schedule_for(24, 9);
        let band = sched.band();
        let edges = sched.working_graph().edge_count();
        let (x0, weights) = job_inputs(band, edges, 4, 3);
        let job = BandJob {
            band,
            x0: &x0,
            dim: 4,
            weights: &weights,
            edge_count: edges,
            steps: 3,
            damping: 0.9,
        };
        let oracle = run_serial(&job);
        let run = ThreadExecutor::new(64).run(&job);
        assert_eq!(
            run.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            oracle.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_steps_returns_initial_state() {
        let sched = schedule_for(40, 2);
        let band = sched.band();
        let edges = sched.working_graph().edge_count();
        let (x0, weights) = job_inputs(band, edges, 4, 8);
        let job = BandJob {
            band,
            x0: &x0,
            dim: 4,
            weights: &weights,
            edge_count: edges,
            steps: 0,
            damping: 1.0,
        };
        let run = ThreadExecutor::new(3).run(&job);
        assert_eq!(run.x, x0);
        assert!(run.dw.iter().all(|&v| v == 0.0));
    }
}
