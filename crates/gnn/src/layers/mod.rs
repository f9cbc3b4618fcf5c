//! Graph attention layers.

pub mod gat;
pub mod gated_gcn;
pub mod transformer;

pub use gat::GatLayer;
pub use gated_gcn::GatedGcnLayer;
pub use transformer::GraphTransformerLayer;

use crate::batch::EngineIndices;
use crate::nn::Binder;
use mega_tensor::{ParamStore, Tape, Var};

/// One attention layer of either architecture.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Gated Graph ConvNet layer.
    Gcn(GatedGcnLayer),
    /// Graph Transformer layer.
    Gt(GraphTransformerLayer),
    /// Graph Attention Network layer (extension).
    Gat(GatLayer),
}

impl Layer {
    /// Applies the layer: `(node_states, edge_states) → (node_states,
    /// edge_states)`. Node states have one row per node; edge states one row
    /// per directed message.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        indices: &EngineIndices,
        h: Var,
        e: Var,
    ) -> (Var, Var) {
        match self {
            Layer::Gcn(l) => l.forward(tape, binder, store, indices, h, e),
            Layer::Gt(l) => l.forward(tape, binder, store, indices, h, e),
            Layer::Gat(l) => l.forward(tape, binder, store, indices, h, e),
        }
    }
}

/// The oracle of the layer reference tests: a layer's forward against the
/// composition it replaced, held to the rule of DESIGN.md §7 for a
/// reordering of linear maps — forward values bit for bit, every parameter
/// and input gradient within `1e-4 · max|g_ref|` — on a baseline and a MEGA
/// batch, under both backends.
#[cfg(test)]
pub(crate) mod testing {
    use crate::batch::{Batch, EngineIndices};
    use crate::nn::Binder;
    use mega_core::{preprocess, MegaConfig};
    use mega_datasets::{zinc, DatasetSpec};
    use mega_exec::{backend_by_name, BufferPool};
    use mega_tensor::{ParamId, ParamStore, Tape, Tensor, Var};
    use std::sync::Arc;

    /// Parameters a composition put on the tape itself, one leaf per column
    /// block, instead of binding them whole.
    pub(crate) type BlockLeaves = Vec<(ParamId, Vec<Var>)>;

    /// A layer forward as the oracle drives it.
    pub(crate) type Forward<'a> = &'a dyn Fn(
        &mut Tape,
        &mut Binder,
        &ParamStore,
        &EngineIndices,
        Var,
        Var,
    ) -> (Var, Var, BlockLeaves);

    /// Values in `(-0.5, 0.5)` that differ from element to element.
    pub(crate) fn varied(rows: usize, cols: usize, seed: u32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 8) % 1000) as f32 / 1000.0 - 0.5
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// Moves every parameter off its initial value, so that zero biases and
    /// unit gammas cannot hide a misplaced one.
    pub(crate) fn perturb(store: &mut ParamStore) {
        for (seed, p) in store.ids().enumerate() {
            let (r, c) = store.get(p).shape();
            let nudged = store.get(p).add(&varied(r, c, 10 + seed as u32).scale(0.2));
            store.set(p, nudged);
        }
    }

    /// Column block `block` of `blocks` of `t`.
    pub(crate) fn col_block(t: &Tensor, block: usize, blocks: usize) -> Tensor {
        let w = t.cols() / blocks;
        let data = t
            .as_slice()
            .chunks_exact(t.cols())
            .flat_map(|row| row[block * w..(block + 1) * w].iter().copied())
            .collect();
        Tensor::from_vec(t.rows(), w, data)
    }

    /// The inverse of [`col_block`] over all blocks.
    fn concat_col_blocks(blocks: &[&Tensor]) -> Tensor {
        let rows = blocks[0].rows();
        let data: Vec<f32> = (0..rows)
            .flat_map(|r| blocks.iter().flat_map(move |b| b.row(r).iter().copied()))
            .collect();
        Tensor::from_vec(rows, data.len() / rows, data)
    }

    /// Outputs and named gradients (every parameter, then the inputs) of one
    /// forward + backward of `f`.
    fn run(
        store: &mut ParamStore,
        batch: &Batch,
        backend: &str,
        d: usize,
        f: Forward<'_>,
    ) -> ([Tensor; 2], Vec<(String, Tensor)>) {
        let backend = backend_by_name(backend).expect("known backend");
        let mut tape = Tape::with_exec(backend, Arc::new(BufferPool::new()));
        let mut binder = Binder::new();
        let (n, m) = (batch.indices.n_nodes, batch.indices.msg_count());
        let h = tape.leaf(varied(n, d, 1));
        let e = tape.leaf(varied(m, d, 2));
        let (h2, e2, blocks) = f(&mut tape, &mut binder, store, &batch.indices, h, e);
        // Weigh every output element differently: behind a norm, a plain
        // mean has a vanishing gradient.
        let (wh, we) = (tape.leaf(varied(n, d, 3)), tape.leaf(varied(m, d, 4)));
        let (lh, le) = (tape.mul(h2, wh), tape.mul(e2, we));
        let (sh, se) = (tape.mean(lh), tape.mean(le));
        let loss = tape.add(sh, se);
        let grads = tape.backward(loss);
        store.zero_grads();
        binder.apply(store, &grads);
        for (p, leaves) in &blocks {
            let parts: Vec<&Tensor> = leaves.iter().map(|&v| grads.wrt(v)).collect();
            store.accumulate(*p, &concat_col_blocks(&parts));
        }
        let mut named: Vec<(String, Tensor)> = store
            .ids()
            .map(|p| (store.name_of(p).to_string(), store.grad(p).clone()))
            .collect();
        named.push(("input h".into(), grads.wrt(h).clone()));
        named.push(("input e".into(), grads.wrt(e).clone()));
        ([tape.value(h2).clone(), tape.value(e2).clone()], named)
    }

    /// Holds `forward` to `reference` on {baseline, MEGA} × {reference,
    /// simd}.
    ///
    /// `analytic_zeros` names the parameters whose gradient is zero on
    /// paper — a bias that reaches the loss only through a batch norm, which
    /// subtracts the column mean the bias shifts. What a composition
    /// computes for one is the round-off residue of a cancelling sum, so it
    /// has no scale of its own to be relative to: both residues are held
    /// under the bound at the scale of the layer's largest gradient instead.
    pub(crate) fn check_against_reference(
        store: &mut ParamStore,
        d: usize,
        analytic_zeros: &[&str],
        forward: Forward<'_>,
        reference: Forward<'_>,
    ) {
        let samples: Vec<_> = zinc(&DatasetSpec::tiny(7))
            .train
            .into_iter()
            .take(3)
            .collect();
        let schedules: Vec<_> = samples
            .iter()
            .map(|s| preprocess(&s.graph, &MegaConfig::default()).expect("schedulable"))
            .collect();
        let batches = [
            ("baseline", Batch::baseline(&samples)),
            ("mega", Batch::mega(&samples, &schedules)),
        ];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let max_abs = |t: &Tensor| t.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (engine, batch) in &batches {
            for backend in ["reference", "simd"] {
                let at = format!("{engine}/{backend}");
                let (out, grads) = run(store, batch, backend, d, forward);
                let (out_ref, grads_ref) = run(store, batch, backend, d, reference);
                for (o, o_ref) in out.iter().zip(&out_ref) {
                    assert!(!o.has_non_finite());
                    assert_eq!(bits(o), bits(o_ref), "{at}: forward bits");
                }
                let largest = grads_ref
                    .iter()
                    .map(|(_, g)| max_abs(g))
                    .fold(0.0, f32::max);
                for ((name, g), (_, g_ref)) in grads.iter().zip(&grads_ref) {
                    if analytic_zeros.contains(&name.as_str()) {
                        let residue = max_abs(g).max(max_abs(g_ref));
                        assert!(
                            residue <= 1e-4 * largest,
                            "{at}: {name} is {residue:e}, not a residue of {largest:e}"
                        );
                        continue;
                    }
                    let scale = max_abs(g_ref);
                    assert!(scale > 0.0, "{at}: {name} is a dead leaf");
                    let err = max_abs(&g.sub(g_ref));
                    assert!(
                        err <= 1e-4 * scale,
                        "{at}: {name} off by {err:e} of {scale:e}"
                    );
                }
            }
        }
    }
}
