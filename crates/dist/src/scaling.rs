//! Distributed training-time scaling model.
//!
//! Combines per-partition compute (the single-device epoch cost divided
//! across workers) with the communication costs of §IV-B6: per aggregation
//! round, every communicating partition pair exchanges one message (paying
//! network latency) and the boundary embedding rows transit the network
//! (paying bandwidth). Edge-cut partitions approach all-to-all message
//! counts, so their scaling saturates; MEGA's path partition keeps a chain
//! of `k − 1` exchanges and continues to scale.

use crate::comm::CommStats;

/// Interconnect parameters of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Per-link network bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

impl ClusterConfig {
    /// A 10 GbE-class cluster: 1.25 GB/s links, 50 µs messages.
    pub fn ten_gbe() -> Self {
        ClusterConfig {
            bandwidth: 1.25e9,
            latency: 50e-6,
        }
    }
}

/// Predicted per-epoch wall clock of one distributed configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Worker count.
    pub partitions: usize,
    /// Compute share of the epoch (perfectly divided across workers).
    pub compute_seconds: f64,
    /// Communication share of the epoch.
    pub comm_seconds: f64,
    /// Total epoch seconds.
    pub total_seconds: f64,
    /// Speedup over the single-worker epoch.
    pub speedup: f64,
}

/// Predicts the distributed epoch time.
///
/// `single_epoch_seconds` is the one-device epoch cost (e.g. from the GPU
/// simulator); `comm` the per-round communication stats of the chosen
/// partitioning; `rounds` the aggregation rounds per epoch (layers × passes ×
/// steps); `feat_dim` the embedding width.
///
/// # Panics
///
/// Panics if `comm.partitions == 0`.
pub fn epoch_scaling(
    single_epoch_seconds: f64,
    comm: &CommStats,
    rounds: usize,
    feat_dim: usize,
    cluster: &ClusterConfig,
) -> ScalingPoint {
    let k = comm.partitions;
    assert!(k > 0, "need at least one partition");
    let compute = single_epoch_seconds / k as f64;
    // Per round: every communicating pair exchanges one message (latency,
    // pairs serialized per worker pair but overlapped across pairs up to the
    // worker count), plus the boundary rows transit at link bandwidth.
    let bytes = (comm.volume_rows * feat_dim * 4) as f64;
    let per_round = bytes / (cluster.bandwidth * k as f64)
        + cluster.latency * (comm.comm_pairs as f64 / k as f64).ceil();
    let comm_seconds = per_round * rounds as f64;
    let total = compute + comm_seconds;
    ScalingPoint {
        partitions: k,
        compute_seconds: compute,
        comm_seconds,
        total_seconds: total,
        speedup: single_epoch_seconds / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{edge_cut_volume, path_partition_volume};
    use crate::partition::hash_partition;
    use mega_core::{preprocess, MegaConfig};
    use mega_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An NVLink-class fabric: 50 GB/s links, 5 µs messages.
    const NVLINK: ClusterConfig = ClusterConfig {
        bandwidth: 50e9,
        latency: 5e-6,
    };

    fn stats(k: usize) -> (CommStats, CommStats) {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generate::barabasi_albert(800, 3, &mut rng).unwrap();
        let s = preprocess(&g, &MegaConfig::default()).unwrap();
        let cut = edge_cut_volume(&g, &hash_partition(&g, k), k);
        let path = path_partition_volume(&s, k);
        (cut, path)
    }

    #[test]
    fn single_worker_is_identity() {
        let (cut, _) = stats(1);
        let p = epoch_scaling(2.0, &cut, 10, 64, &ClusterConfig::ten_gbe());
        assert!((p.total_seconds - 2.0).abs() < 1e-9);
        assert!((p.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn path_partition_scales_better_at_high_k() {
        let cluster = ClusterConfig::ten_gbe();
        let (cut, path) = stats(32);
        let cut_point = epoch_scaling(2.0, &cut, 200, 64, &cluster);
        let path_point = epoch_scaling(2.0, &path, 200, 64, &cluster);
        assert!(
            path_point.speedup > cut_point.speedup,
            "path {} vs cut {}",
            path_point.speedup,
            cut_point.speedup
        );
    }

    #[test]
    fn speedup_is_bounded_by_k() {
        for k in [2usize, 8, 32] {
            let (_, path) = stats(k);
            let p = epoch_scaling(5.0, &path, 50, 64, &NVLINK);
            assert!(p.speedup <= k as f64 + 1e-9);
            assert!(p.speedup > 1.0, "k={k} gained nothing: {}", p.speedup);
        }
    }

    #[test]
    fn faster_network_helps() {
        let (cut, _) = stats(16);
        let slow = epoch_scaling(1.0, &cut, 100, 64, &ClusterConfig::ten_gbe());
        let fast = epoch_scaling(1.0, &cut, 100, 64, &NVLINK);
        assert!(fast.total_seconds < slow.total_seconds);
    }
}
