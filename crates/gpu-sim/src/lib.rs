//! GPU memory-system simulator and nvprof-style profiler.
//!
//! The paper's evaluation is a *memory-access-pattern* argument measured with
//! `nvprof` on a GeForce GTX 1080: DGL's index-driven gather/scatter kernels
//! issue scattered global-memory transactions, miss the (2 MiB) L2 cache,
//! stall the SMs, and end up dominating GNN training time, while dense
//! `sgemm` hides its memory traffic behind arithmetic. MEGA's banded kernels
//! restore sequential access. Lacking the GPU, this crate reproduces that
//! mechanism from first principles:
//!
//! * [`device`] — device configurations ([`DeviceConfig::gtx_1080`]).
//! * [`cache`] — a sectored, set-associative, LRU L2 cache model.
//! * [`coalesce`] — the warp-level coalescer: 32 lane addresses per warp are
//!   merged into distinct 32-byte sectors; each sector is one transaction.
//! * [`kernel`] — kernel taxonomy (`sgemm`, `dgl` gather/scatter, `cub`
//!   sort, `memcpy`, MEGA banded variants) and per-kernel counters.
//! * [`profiler`] — a device with a bump allocator and `launch_*` methods;
//!   every launch replays its true address stream through the coalescer and
//!   cache and charges cycles to a roofline-style timing model.
//! * [`report`] — nvprof-like tables: per-kernel SM efficiency, memory-stall
//!   percentage, global-load transactions, invocations, time share, and the
//!   paper's invocation-weighted aggregate metric.
//! * [`model`] — the GNN epoch cost model: expands a model configuration
//!   (Table I operator counts) over a batch of graphs into the kernel-launch
//!   sequence of one training epoch, for both the DGL-style baseline and the
//!   MEGA engine.
//!
//! # Example
//!
//! ```
//! use mega_gpu_sim::{DeviceConfig, Profiler};
//!
//! let mut p = Profiler::new(DeviceConfig::gtx_1080());
//! let a = p.alloc(1024 * 4);
//! // A coalesced read of 1024 f32 elements...
//! p.launch_memcpy(a, 1024 * 4);
//! // ...versus a scattered gather of the same volume.
//! let idx: Vec<usize> = (0..1024).map(|i| (i * 7919) % 1024).collect();
//! let b = p.alloc(1024 * 4);
//! p.launch_gather(b, &idx, 1, 1024);
//! let report = p.report();
//! assert!(report.kernels().len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod device;
pub mod kernel;
pub mod model;
pub mod profiler;
pub mod report;

pub use cache::SectoredCache;
pub use device::DeviceConfig;
pub use kernel::{KernelKind, KernelStats};
pub use model::{BatchTopology, EngineKind, EpochCost, GnnCostModel, ModelSpec};
pub use profiler::{DevicePtr, Profiler};
pub use report::{KernelRow, ProfileReport};
