//! GNN models and execution engines for the MEGA reproduction.
//!
//! Two models from the paper's evaluation (§III):
//!
//! * **GatedGCN** (Bresson & Laurent) — gated edge aggregation with batch
//!   norm and residual connections; 5·d² parameters per layer.
//! * **Graph Transformer** (Dwivedi & Bresson) — multi-head attention with
//!   edge features, layer norm and FFNs; 14·d² parameters per layer.
//!
//! Each model runs under either execution engine:
//!
//! * [`batch::EngineIndices`] built **baseline-style** routes messages along
//!   the directed adjacency slots (the DGL pattern: index-driven
//!   gather/scatter).
//! * Built **MEGA-style** from an [`mega_core::AttentionSchedule`], messages
//!   ride the band slots of the path representation. Attention softmax and
//!   aggregation remain keyed by *node*, so with full edge coverage the MEGA
//!   engine computes *numerically identical* layer outputs — the property
//!   behind the paper's "comparable accuracy" claim (verified by this
//!   crate's tests).
//!
//! [`train::Trainer`] owns the workspace's one epoch loop — whole-batch
//! here, sharded over worker threads in `mega-dist`, through the
//! [`train::ShardExecutor`] seam — tracks loss and task metric, and (via
//! [`cost`]) stamps every epoch with the simulated GPU
//! wall-clock from `mega-gpu-sim`, which is how the convergence-vs-time
//! figures (Figs. 11–15) are regenerated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod cost;
pub mod layers;
pub mod metrics;
pub mod model;
pub mod nn;
pub mod parallel;
pub mod train;

pub use batch::{Batch, EngineIndices};
pub use config::{EngineChoice, GnnConfig, ModelKind};
pub use model::Gnn;
pub use parallel::preprocess_samples;
pub use train::{EpochRecord, PhaseSeconds, Trainer, TrainingHistory};
