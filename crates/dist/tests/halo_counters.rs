//! The halo exchange's `dist.halo.msgs` counter against the chain topology
//! it should count.
//!
//! The obs registry is process-global and every executor run adds to it, so
//! this is the only test of its binary: inside the crate's unit-test
//! process, the sibling tests that run executors concurrently would be
//! counted too.

use mega_core::{preprocess, ChunkPlan, MegaConfig};
use mega_dist::{run_with_plan, BandJob};
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn halo_counters_account_the_chain_topology() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = generate::barabasi_albert(120, 3, &mut rng).unwrap();
    let sched = preprocess(&g, &MegaConfig::default()).unwrap();
    let band = sched.band();
    let edges = sched.working_graph().edge_count();
    let x0: Vec<f32> = (0..band.len() * 4)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let weights: Vec<f32> = (0..edges).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let job = BandJob {
        band,
        x0: &x0,
        dim: 4,
        weights: &weights,
        edge_count: edges,
        steps: 2,
        damping: 0.5,
    };
    mega_obs::set_enabled(true);
    let plan = ChunkPlan::for_workers(band.len(), band.window(), 4);
    let k = plan.chunks().len();
    run_with_plan(&job, &plan);
    mega_obs::set_enabled(false);
    let snap = mega_obs::snapshot();
    let msgs = snap
        .counters
        .iter()
        .find(|(name, _)| name == "dist.halo.msgs")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    // 2(k−1) directed neighbor pairs, one message each per step.
    assert_eq!(msgs, (2 * (k - 1) * job.steps) as u64);
}
