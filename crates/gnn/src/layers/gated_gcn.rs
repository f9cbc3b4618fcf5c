//! Gated Graph ConvNet layer (Bresson & Laurent; the paper's "GCN").
//!
//! Per directed message `(j → i)` with edge state `e_ji`:
//!
//! ```text
//! ê_ji = A·h_j + B·h_i + C·e_ji                  (edge pre-activation)
//! e'_ji = e_ji + relu(BN(ê_ji))                  (edge residual update)
//! η_ji = σ(ê_ji)                                 (gate)
//! ĥ_i  = U·h_i + Σ_j η_ji ⊙ (V·h_j) / (Σ_j η_ji + ε)
//! h'_i = h_i + relu(BN(ĥ_i))                     (node residual update)
//! ```
//!
//! Five d×d projections (A, B, C, U, V): the paper's 5·d² parameter volume
//! (Table I).
//!
//! A, B and V read only node states, so they run on the `n_nodes` rows of `h`
//! and their outputs are gathered to messages (node → work row → message);
//! C runs on message rows and U on node rows, where their inputs live. A row
//! gather commutes with `x·W + b` — every output element is the same
//! ascending-k fold whichever row it sits in — so the forward values are
//! those of projecting each message's gathered `h_j`, `h_i` bit for bit, for
//! half the rows. Backward, `dW` folds over node rows after the gathers'
//! scatter-adds have summed each node's messages, which is a different
//! order: gradients agree to the bound of DESIGN.md §7, not to the bit.

use crate::batch::EngineIndices;
use crate::nn::{Binder, Linear, NormParams};
use mega_tensor::{ParamStore, Tape, Var};
use rand::Rng;

/// Parameters of one GatedGCN layer.
#[derive(Debug, Clone)]
pub struct GatedGcnLayer {
    a: Linear,
    b: Linear,
    c: Linear,
    u: Linear,
    v: Linear,
    bn_e: NormParams,
    bn_h: NormParams,
}

impl GatedGcnLayer {
    /// Registers layer parameters of width `d` under `name`.
    pub fn new<R: Rng>(store: &mut ParamStore, name: &str, d: usize, rng: &mut R) -> Self {
        GatedGcnLayer {
            a: Linear::new(store, &format!("{name}.A"), d, d, rng),
            b: Linear::new(store, &format!("{name}.B"), d, d, rng),
            c: Linear::new(store, &format!("{name}.C"), d, d, rng),
            u: Linear::new(store, &format!("{name}.U"), d, d, rng),
            v: Linear::new(store, &format!("{name}.V"), d, d, rng),
            bn_e: NormParams::new(store, &format!("{name}.bn_e"), d),
            bn_h: NormParams::new(store, &format!("{name}.bn_h"), d),
        }
    }

    /// Applies the layer.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        idx: &EngineIndices,
        h: Var,
        e: Var,
    ) -> (Var, Var) {
        let n = idx.n_nodes;
        // A, B and V run once per node; their outputs are routed to messages.
        let ah = self.a.forward(tape, binder, store, h);
        let bh = self.b.forward(tape, binder, store, h);
        let vh = self.v.forward(tape, binder, store, h);
        let ah_src = idx.gather_src(tape, ah);
        let bh_dst = idx.gather_dst(tape, bh);
        let vh_src = idx.gather_src(tape, vh);

        // Edge pre-activation and residual update.
        let ce = self.c.forward(tape, binder, store, e);
        let sum = tape.add(ah_src, bh_dst);
        let e_hat = tape.add(sum, ce);
        let e_act = self.bn_e.batch_norm_relu(tape, binder, store, e_hat);
        let e_out = tape.add(e, e_act);

        // Gated aggregation keyed by destination node.
        let sigma = tape.sigmoid(e_hat);
        let gated = tape.mul(sigma, vh_src);
        let num = tape.scatter_add_rows(gated, idx.msg_dst_node.clone(), n);
        let den = tape.scatter_add_rows(sigma, idx.msg_dst_node.clone(), n);
        let agg = tape.div_eps(num, den, 1e-6);

        // Node update with residual.
        let uh = self.u.forward(tape, binder, store, h);
        let h_hat = tape.add(uh, agg);
        let h_act = self.bn_h.batch_norm_relu(tape, binder, store, h_hat);
        let h_out = tape.add(h, h_act);
        (h_out, e_out)
    }
}

#[cfg(test)]
impl GatedGcnLayer {
    /// The composition [`GatedGcnLayer::forward`] replaced, kept as its
    /// oracle: `h` gathered to messages first, A, B and V applied per
    /// message.
    fn forward_per_message(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        idx: &EngineIndices,
        h: Var,
        e: Var,
    ) -> (Var, Var) {
        let n = idx.n_nodes;
        let h_work = idx.to_work(tape, h);
        let h_src = tape.gather_rows(h_work, idx.msg_src_work.clone());
        let h_dst = tape.gather_rows(h_work, idx.msg_dst_work.clone());

        let ah = self.a.forward(tape, binder, store, h_src);
        let bh = self.b.forward(tape, binder, store, h_dst);
        let ce = self.c.forward(tape, binder, store, e);
        let sum = tape.add(ah, bh);
        let e_hat = tape.add(sum, ce);
        let e_act = self.bn_e.batch_norm_relu(tape, binder, store, e_hat);
        let e_out = tape.add(e, e_act);

        let sigma = tape.sigmoid(e_hat);
        let vh = self.v.forward(tape, binder, store, h_src);
        let gated = tape.mul(sigma, vh);
        let num = tape.scatter_add_rows(gated, idx.msg_dst_node.clone(), n);
        let den = tape.scatter_add_rows(sigma, idx.msg_dst_node.clone(), n);
        let agg = tape.div_eps(num, den, 1e-6);

        let uh = self.u.forward(tape, binder, store, h);
        let h_hat = tape.add(uh, agg);
        let h_act = self.bn_h.batch_norm_relu(tape, binder, store, h_hat);
        let h_out = tape.add(h, h_act);
        (h_out, e_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::layers::testing;
    use mega_datasets::{zinc, DatasetSpec};
    use mega_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_and_gradients() {
        let samples: Vec<_> = zinc(&DatasetSpec::tiny(1))
            .train
            .into_iter()
            .take(2)
            .collect();
        let batch = Batch::baseline(&samples);
        let d = 8;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GatedGcnLayer::new(&mut store, "l0", d, &mut rng);
        // 5 projections (w+b) + 2 norms (gamma+beta) = 14 tensors.
        assert_eq!(store.len(), 14);

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let h = tape.leaf(Tensor::full(batch.indices.n_nodes, d, 0.1));
        let e = tape.leaf(Tensor::full(batch.indices.msg_count(), d, 0.1));
        let (h2, e2) = layer.forward(&mut tape, &mut binder, &store, &batch.indices, h, e);
        assert_eq!(tape.value(h2).shape(), (batch.indices.n_nodes, d));
        assert_eq!(tape.value(e2).shape(), (batch.indices.msg_count(), d));
        assert!(!tape.value(h2).has_non_finite());

        let loss = tape.mean(h2);
        let grads = tape.backward(loss);
        binder.apply(&mut store, &grads);
        let a_w = store.id_of("l0.A.w").unwrap();
        assert!(
            store.grad(a_w).norm() > 0.0,
            "gradient must reach projection A"
        );
    }

    #[test]
    fn node_row_projections_match_per_message_projections() {
        let d = 8;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GatedGcnLayer::new(&mut store, "l0", d, &mut rng);
        testing::perturb(&mut store);
        testing::check_against_reference(
            &mut store,
            d,
            &["l0.U.b", "l0.V.b"],
            &|tape, binder, store, idx, h, e| {
                let (h2, e2) = layer.forward(tape, binder, store, idx, h, e);
                (h2, e2, Vec::new())
            },
            &|tape, binder, store, idx, h, e| {
                let (h2, e2) = layer.forward_per_message(tape, binder, store, idx, h, e);
                (h2, e2, Vec::new())
            },
        );
    }

    #[test]
    fn parameter_volume_is_5_d_squared() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let d = 16;
        let _ = GatedGcnLayer::new(&mut store, "l", d, &mut rng);
        // Weights dominate: 5·d² plus bias/norm vectors.
        let weights = 5 * d * d;
        let extras = 5 * d + 4 * d; // biases + gammas/betas
        assert_eq!(store.scalar_count(), weights + extras);
    }
}
