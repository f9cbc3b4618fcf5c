//! Neural building blocks: parameter binding, linear layers, norms, MLPs.

use mega_tensor::init;
use mega_tensor::{ParamId, ParamStore, Tape, Tensor, Var};
use rand::Rng;

/// Tracks which tape leaf corresponds to which stored parameter during one
/// forward pass, and routes gradients back after `backward`.
#[derive(Debug, Default)]
pub struct Binder {
    bound: Vec<(ParamId, Var)>,
}

impl Binder {
    /// A fresh binder for one tape.
    pub fn new() -> Self {
        Binder::default()
    }

    /// Places parameter `p` on the tape and remembers the binding.
    pub fn bind(&mut self, tape: &mut Tape, store: &ParamStore, p: ParamId) -> Var {
        let v = store.leaf(tape, p);
        self.bound.push((p, v));
        v
    }

    /// Accumulates the gradients of every bound parameter into the store.
    pub fn apply(&self, store: &mut ParamStore, grads: &mega_tensor::Gradients) {
        for &(p, v) in &self.bound {
            store.accumulate(p, grads.wrt(v));
        }
    }

    /// Extracts the gradients of every bound parameter as owned
    /// `(param, grad)` pairs, in exactly [`Binder::apply`]'s binding order.
    /// This is the shippable form of a gradient shard: a distributed
    /// coordinator that replays shards' pair lists through
    /// `ParamStore::accumulate` in a fixed shard order reproduces the
    /// single-process accumulation bit-for-bit.
    pub fn shard_grads(&self, grads: &mega_tensor::Gradients) -> Vec<(ParamId, Tensor)> {
        self.bound
            .iter()
            .map(|&(p, v)| (p, grads.wrt(v).clone()))
            .collect()
    }

    /// Number of bindings recorded.
    pub fn len(&self) -> usize {
        self.bound.len()
    }

    /// Whether no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }
}

/// A dense layer `x·W + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
}

impl Linear {
    /// Registers a `d_in × d_out` layer under `name`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut R,
    ) -> Self {
        let weight = store.register(&format!("{name}.w"), init::xavier_uniform(d_in, d_out, rng));
        let bias = store.register(&format!("{name}.b"), Tensor::zeros(1, d_out));
        Linear { weight, bias }
    }

    /// Registers a `d_in × d_out` layer under `name` whose `heads`
    /// equal-width column blocks are the per-head projections of a
    /// multi-head layer: block `h` holds the numbers of head `h`'s own
    /// `xavier_uniform(d_in, d_out / heads)`, drawn head by head, so the
    /// parameters (and the `rng` afterwards) are those of `heads` separate
    /// [`Linear::new`] calls — one GEMM wide.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `d_out`.
    pub fn with_head_blocks<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        heads: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            heads > 0 && d_out.is_multiple_of(heads),
            "heads {heads} must divide width {d_out}"
        );
        let hd = d_out / heads;
        let mut w = Tensor::zeros(d_in, d_out);
        for h in 0..heads {
            let block = init::xavier_uniform(d_in, hd, rng);
            for (row, src) in w
                .as_mut_slice()
                .chunks_exact_mut(d_out)
                .zip(block.as_slice().chunks_exact(hd))
            {
                row[h * hd..(h + 1) * hd].copy_from_slice(src);
            }
        }
        let weight = store.register(&format!("{name}.w"), w);
        let bias = store.register(&format!("{name}.b"), Tensor::zeros(1, d_out));
        Linear { weight, bias }
    }

    /// The `(weight, bias)` parameters, for the reference compositions of
    /// the layer tests.
    #[cfg(test)]
    pub(crate) fn params(&self) -> (ParamId, ParamId) {
        (self.weight, self.bias)
    }

    /// Applies the layer on the tape as one node (`x·W + b`, the bias in
    /// the GEMM's epilogue). Matches `add_row(matmul(..))` bit for bit.
    pub fn forward(&self, tape: &mut Tape, binder: &mut Binder, store: &ParamStore, x: Var) -> Var {
        let w = binder.bind(tape, store, self.weight);
        let b = binder.bind(tape, store, self.bias);
        tape.linear(x, w, b)
    }

    /// Applies the layer followed by a ReLU as one fused tape node
    /// (`relu(x·W + b)`), letting backends run the fused kernel. Matches
    /// `relu(forward(..))` value-for-value.
    pub fn forward_relu(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let w = binder.bind(tape, store, self.weight);
        let b = binder.bind(tape, store, self.bias);
        tape.linear_relu(x, w, b)
    }
}

/// Learnable affine normalization parameters (shared by layer/batch norm).
#[derive(Debug, Clone, Copy)]
pub struct NormParams {
    gamma: ParamId,
    beta: ParamId,
}

impl NormParams {
    /// Registers `gamma = 1`, `beta = 0` of width `d` under `name`.
    pub fn new(store: &mut ParamStore, name: &str, d: usize) -> Self {
        let gamma = store.register(&format!("{name}.gamma"), Tensor::full(1, d, 1.0));
        let beta = store.register(&format!("{name}.beta"), Tensor::zeros(1, d));
        NormParams { gamma, beta }
    }

    /// Row-wise layer norm.
    pub fn layer_norm(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let g = binder.bind(tape, store, self.gamma);
        let b = binder.bind(tape, store, self.beta);
        tape.layer_norm(x, g, b, 1e-5)
    }

    /// Column-wise batch norm (training statistics) followed by a ReLU,
    /// as one fused tape node.
    pub fn batch_norm_relu(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let g = binder.bind(tape, store, self.gamma);
        let b = binder.bind(tape, store, self.beta);
        tape.batch_norm_relu(x, g, b, 1e-5)
    }
}

/// An embedding table: categorical ids → learnable rows.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    table: ParamId,
}

impl Embedding {
    /// Registers a `vocab × d` table under `name`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        d: usize,
        rng: &mut R,
    ) -> Self {
        let table = store.register(name, init::xavier_uniform(vocab, d, rng));
        Embedding { table }
    }

    /// Looks up rows for `ids`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        ids: std::sync::Arc<Vec<usize>>,
    ) -> Var {
        let t = binder.bind(tape, store, self.table);
        tape.gather_rows(t, ids)
    }
}

/// A two-layer MLP with ReLU (`d_in → d_hidden → d_out`).
#[derive(Debug, Clone, Copy)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// Registers the MLP under `name`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_hidden: usize,
        d_out: usize,
        rng: &mut R,
    ) -> Self {
        Mlp {
            fc1: Linear::new(store, &format!("{name}.fc1"), d_in, d_hidden, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), d_hidden, d_out, rng),
        }
    }

    /// Applies `fc2(relu(fc1(x)))`, with the first layer and its ReLU fused
    /// into one node.
    pub fn forward(&self, tape: &mut Tape, binder: &mut Binder, store: &ParamStore, x: Var) -> Var {
        let h = self.fc1.forward_relu(tape, binder, store, x);
        self.fc2.forward(tape, binder, store, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn linear_shapes_and_grads_flow() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.leaf(Tensor::full(4, 3, 1.0));
        let y = lin.forward(&mut tape, &mut binder, &store, x);
        assert_eq!(tape.value(y).shape(), (4, 2));
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        binder.apply(&mut store, &grads);
        let wid = store.id_of("l.w").unwrap();
        assert!(store.grad(wid).norm() > 0.0);
        assert_eq!(binder.len(), 2);
    }

    #[test]
    fn head_blocks_are_the_per_head_draws() {
        let (d, heads) = (8, 4);
        let hd = d / heads;
        let mut per_head = ParamStore::new();
        let mut rng_a = StdRng::seed_from_u64(9);
        for h in 0..heads {
            Linear::new(&mut per_head, &format!("Q{h}"), d, hd, &mut rng_a);
        }
        let mut blocked = ParamStore::new();
        let mut rng_b = StdRng::seed_from_u64(9);
        Linear::with_head_blocks(&mut blocked, "Q", d, d, heads, &mut rng_b);

        let w = blocked.get(blocked.id_of("Q.w").unwrap());
        assert_eq!(w.shape(), (d, d));
        for h in 0..heads {
            let block = per_head.get(per_head.id_of(&format!("Q{h}.w")).unwrap());
            for r in 0..d {
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&w.row(r)[h * hd..(h + 1) * hd]),
                    bits(block.row(r)),
                    "head {h}, row {r}"
                );
            }
        }
        let b = blocked.get(blocked.id_of("Q.b").unwrap());
        assert_eq!(b.shape(), (1, d));
        assert!(b.as_slice().iter().all(|v| v.to_bits() == 0));
        assert_eq!(blocked.scalar_count(), per_head.scalar_count());
        // The next layer draws what it would have drawn after the per-head
        // layers.
        let next_a = init::xavier_uniform(d, d, &mut rng_a);
        let next_b = init::xavier_uniform(d, d, &mut rng_b);
        assert_eq!(next_a, next_b);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let emb = Embedding::new(&mut store, "e", 5, 4, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let out = emb.forward(&mut tape, &mut binder, &store, Arc::new(vec![0, 4, 0]));
        assert_eq!(tape.value(out).shape(), (3, 4));
        // Row 0 repeated.
        assert_eq!(tape.value(out).row(0), tape.value(out).row(2));
    }

    #[test]
    fn mlp_forward_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&mut store, "m", 4, 8, 2, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.leaf(Tensor::full(5, 4, 0.5));
        let y = mlp.forward(&mut tape, &mut binder, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 2));
        assert_eq!(store.len(), 4); // two weights + two biases
    }

    #[test]
    fn norm_params_normalize() {
        let mut store = ParamStore::new();
        let np = NormParams::new(&mut store, "n", 3);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 8.0, 12.0]]));
        let y = np.layer_norm(&mut tape, &mut binder, &store, x);
        // Each row has ~zero mean under gamma=1, beta=0.
        for r in 0..2 {
            let row = tape.value(y).row(r);
            let mean: f32 = row.iter().sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5);
        }
    }
}
