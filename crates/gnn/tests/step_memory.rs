//! What one training step holds at once: the pool's peak of outstanding
//! bytes over a Graph Transformer step on a tiny MEGA batch.
//!
//! The tape keeps a value only while a backward arm still reads it, and a
//! residual's linear output carries the sum its layer norm reads. So the
//! step peaks just after the forward pass, at its live values plus the
//! first gradients, rather than holding every value while the backward
//! pass makes every gradient. A tape that kept its values to the end and
//! gave each residual sum a buffer of its own peaked at 936 728 bytes after
//! the forward pass and 1 094 516 over the step on this batch.

use mega_core::{preprocess, MegaConfig};
use mega_datasets::{zinc, DatasetSpec, Task};
use mega_exec::{BufferPool, ReferenceBackend, SimdBackend};
use mega_gnn::nn::Binder;
use mega_gnn::{Batch, Gnn, GnnConfig, ModelKind};
use mega_tensor::{ParamStore, Tape};
use std::sync::Arc;

#[test]
fn gt_step_peak_outstanding_bytes_are_pinned() {
    let ds = zinc(&DatasetSpec::tiny(5));
    let samples = &ds.train[..8];
    let schedules: Vec<_> = samples
        .iter()
        .map(|s| preprocess(&s.graph, &MegaConfig::default()).expect("schedulable"))
        .collect();
    let batch = Batch::mega(samples, &schedules);
    let cfg = GnnConfig::new(ModelKind::GraphTransformer, ds.node_vocab, ds.edge_vocab, 1)
        .with_hidden(16)
        .with_layers(2)
        .with_heads(2);
    let mut store = ParamStore::new();
    let model = Gnn::new(&mut store, cfg);
    // The pool serves the tape, never the kernels: every backend demands
    // the same bytes.
    for backend in [
        Arc::new(ReferenceBackend) as Arc<dyn mega_exec::Backend>,
        Arc::new(SimdBackend::new()),
    ] {
        let pool = Arc::new(BufferPool::new());
        let mut tape = Tape::with_exec(backend, pool.clone());
        let mut binder = Binder::new();
        let pred = model.forward(&mut tape, &mut binder, &store, &batch);
        let loss = model.loss(&mut tape, pred, &batch, Task::Regression);
        let forward_peak = pool.peak_outstanding_bytes();
        let grads = tape.backward(loss);
        binder.apply(&mut store, &grads);
        drop(grads);
        drop(tape);
        let peak = pool.peak_outstanding_bytes();
        assert_eq!((forward_peak, peak), (776_984, 790_664));
    }
}
