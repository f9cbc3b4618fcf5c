//! Distributed execution and communication analysis over path segments
//! (§IV-B6).
//!
//! The paper argues that conventional distributed GNN training partitions the
//! *graph*, paying edge-cut communication that requires expensive all-to-all
//! exchanges, while partitioning MEGA's *path* into contiguous segments needs
//! only a halo exchange between adjacent segments — `O(k)` communications for
//! `k` partitions, at the cost of replicating revisited nodes.
//!
//! * [`partition`] — node partitioners (hash and BFS-locality) and the path
//!   segment partitioner.
//! * [`comm`] — communication accounting: cut edges, communicating partition
//!   pairs, replica synchronization volume.
//! * [`exec`] — the claim, *executed*: a thread-per-segment band engine with
//!   double-buffered ±ω halo exchange, bit-identical to the serial oracle
//!   for every worker count.
//! * [`train`] — a distributed trainer: `mega-gnn`'s epoch loop with
//!   per-sample gradient shards fanned out over workers; the loop
//!   all-reduces in a fixed ascending-shard order, so the loss trajectory
//!   is bit-identical for any worker count.
//! * [`scaling`] — the modeled cluster scaling curves, a prediction: the
//!   `dist_comm_analysis` figure's `modeled_*_speedup` columns. The
//!   executor's wall clock is measured by the benchmark alone.
//!
//! # Example
//!
//! ```
//! use mega_core::{preprocess, MegaConfig};
//! use mega_dist::{comm, partition};
//! use mega_graph::generate;
//!
//! # fn main() -> Result<(), mega_core::MegaError> {
//! let g = generate::complete(24).unwrap();
//! let s = preprocess(&g, &MegaConfig::default())?;
//! let k = 4;
//! let node_parts = partition::hash_partition(&g, k);
//! let cut = comm::edge_cut_volume(&g, &node_parts, k);
//! let path = comm::path_partition_volume(&s, k);
//! // MEGA's communicating pairs form a chain: k - 1.
//! assert_eq!(path.comm_pairs, k - 1);
//! assert!(path.comm_pairs <= cut.comm_pairs);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod exec;
pub mod partition;
pub mod scaling;
pub mod train;

pub use comm::{edge_cut_volume, path_partition_volume, CommStats};
pub use exec::{run_serial, run_with_plan, BandJob, BandRun, DistExecutor, ThreadExecutor};
pub use partition::{bfs_partition, hash_partition, path_segments};
pub use scaling::{epoch_scaling, ClusterConfig};
pub use train::DistTrainer;
