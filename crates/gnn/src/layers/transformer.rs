//! Graph Transformer layer (Dwivedi & Bresson; the paper's "GT").
//!
//! Multi-head attention with edge features. Per head `k` and message
//! `(j → i)` with edge state `e_ji`:
//!
//! ```text
//! ŵ_ji = (Q_k·h_i) ⊙ (K_k·h_j) ⊙ (E_k·e_ji) / √d_h     (implicit attention)
//! α_ji = softmax_i( Σ_dims ŵ_ji )                       (per destination node)
//! agg_i = Σ_j α_ji · (V_k·h_j)
//! h' = LN(h + O_h(concat_k agg));   h'' = LN(h' + FFN_h(h'))
//! e' = LN(e + O_e(concat_k ŵ));     e'' = LN(e' + FFN_e(e'))
//! ```
//!
//! Parameter volume: W_Q, W_K, W_V, W_E (4·d²) + O_h, O_e (2·d²) + two-layer
//! FFNs on nodes and edges (4·d² each) = the paper's 14·d² (Table I).
//!
//! The heads are the column blocks of one `d × d` layer per projection
//! ([`Linear::with_head_blocks`]: block `k` is head `k`'s own Xavier draw), so
//! all heads of Q, K, V, E take one GEMM each and `concat_k` is the layout
//! the data already has. Q, K and V read only node states: they run on the
//! `n_nodes` rows of `h`; E runs on message rows. A row gather commutes with
//! `x·W + b` and a column block of a product is the product with that column
//! block — every output element is the same ascending-k fold either way — so
//! the forward values are those of per-head projections of gathered rows,
//! bit for bit.
//!
//! How the node rows reach the messages is the batch's route:
//! [`EngineIndices::edge_scores`] makes ŵ and [`EngineIndices::attend`]
//! turns it into the per-node aggregate. On MEGA they are two band walks that
//! read `q`, `k`, `v` at node rows and keep only the `m × heads` weights; on
//! the baseline, ten tape nodes over six `m × d` message tensors. The
//! forward values are the same bit for bit.
//!
//! Backward, `dW` folds over node rows and `dX` over all `d` columns at
//! once, and on MEGA the gradients of `q`, `k`, `v` sum a node's messages
//! in one group instead of per path position: gradients agree with the
//! per-head composition to the bound of DESIGN.md §7, not to the bit.

use crate::batch::EngineIndices;
#[cfg(test)]
use crate::layers::testing;
use crate::nn::{Binder, Linear, Mlp, NormParams};
use mega_tensor::{ParamStore, Tape, Var};
use rand::Rng;

/// Parameters of one Graph Transformer layer.
#[derive(Debug, Clone)]
pub struct GraphTransformerLayer {
    heads: usize,
    head_dim: usize,
    q: Linear,
    k: Linear,
    v: Linear,
    e: Linear,
    o_h: Linear,
    o_e: Linear,
    ffn_h: Mlp,
    ffn_e: Mlp,
    ln_h1: NormParams,
    ln_h2: NormParams,
    ln_e1: NormParams,
    ln_e2: NormParams,
}

impl GraphTransformerLayer {
    /// Registers layer parameters of width `d` with `heads` attention heads.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `d`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        d: usize,
        heads: usize,
        rng: &mut R,
    ) -> Self {
        let mut mk = |what: &str| {
            Linear::with_head_blocks(store, &format!("{name}.{what}"), d, d, heads, rng)
        };
        let (q, k, v, e) = (mk("Q"), mk("K"), mk("V"), mk("E"));
        GraphTransformerLayer {
            heads,
            head_dim: d / heads,
            q,
            k,
            v,
            e,
            o_h: Linear::new(store, &format!("{name}.Oh"), d, d, rng),
            o_e: Linear::new(store, &format!("{name}.Oe"), d, d, rng),
            ffn_h: Mlp::new(store, &format!("{name}.ffn_h"), d, 2 * d, d, rng),
            ffn_e: Mlp::new(store, &format!("{name}.ffn_e"), d, 2 * d, d, rng),
            ln_h1: NormParams::new(store, &format!("{name}.ln_h1"), d),
            ln_h2: NormParams::new(store, &format!("{name}.ln_h2"), d),
            ln_e1: NormParams::new(store, &format!("{name}.ln_e1"), d),
            ln_e2: NormParams::new(store, &format!("{name}.ln_e2"), d),
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
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Q, K and V run once per node, all heads in one product each; their
        // outputs are routed to messages at full width. Column block `k` of
        // every tensor is head `k`.
        let q = self.q.forward(tape, binder, store, h);
        let k = self.k.forward(tape, binder, store, h);
        let v = self.v.forward(tape, binder, store, h);
        let ee = self.e.forward(tape, binder, store, e);
        let e_what = idx.edge_scores(tape, q, k, ee, scale);
        let h_agg = idx.attend(tape, e_what, v, self.heads);

        // Node stream: attention output, residual + LN, FFN, residual + LN.
        // Each residual + LN is one node that writes the sum into the
        // linear output's buffer.
        let h_attn = self.o_h.forward(tape, binder, store, h_agg);
        let h1 = self.ln_h1.add_layer_norm(tape, binder, store, h, h_attn);
        let h_ffn = self.ffn_h.forward(tape, binder, store, h1);
        let h2 = self.ln_h2.add_layer_norm(tape, binder, store, h1, h_ffn);

        // Edge stream: implicit-attention features, residual + LN, FFN.
        let e_attn = self.o_e.forward(tape, binder, store, e_what);
        let e1 = self.ln_e1.add_layer_norm(tape, binder, store, e, e_attn);
        let e_ffn = self.ffn_e.forward(tape, binder, store, e1);
        let e2 = self.ln_e2.add_layer_norm(tape, binder, store, e1, e_ffn);
        (h2, e2)
    }
}

#[cfg(test)]
impl GraphTransformerLayer {
    /// The composition [`GraphTransformerLayer::forward`] replaced, kept as
    /// its oracle: one `d × d/heads` projection per head for each of Q, K,
    /// V, E, their outputs gathered per message — reading
    /// column block `k` of today's weights as head `k`'s own leaves — a
    /// per-head score, softmax and aggregation, and two `concat_cols`.
    fn forward_per_head(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        idx: &EngineIndices,
        h: Var,
        e: Var,
    ) -> (Var, Var, testing::BlockLeaves) {
        let n = idx.n_nodes;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let src = testing::message_sources(idx);

        let mut leaves = testing::block_leaves(&[&self.q, &self.k, &self.v, &self.e]);
        let mut aggs = Vec::with_capacity(self.heads);
        let mut whats = Vec::with_capacity(self.heads);
        for hd in 0..self.heads {
            // Projection `which` (Q, K, V, E in `leaves` order) of head `hd`.
            let mut project = |tape: &mut Tape, which: usize, x: Var| {
                testing::project_block(tape, store, &mut leaves, which, hd, self.heads, x)
            };
            let qk = project(tape, 0, h);
            let kk = project(tape, 1, h);
            let vk = project(tape, 2, h);
            let ek = project(tape, 3, e);

            let q_dst = tape.gather_rows(qk, idx.msg_dst_node.clone());
            let k_src = tape.gather_rows(kk, src.clone());
            let v_src = tape.gather_rows(vk, src.clone());

            let qk_prod = tape.mul(q_dst, k_src);
            let qke = tape.mul(qk_prod, ek);
            let what = tape.scale(qke, scale);
            let score = tape.row_block_sums(what, 1);
            let attn = tape.segment_softmax(score, idx.msg_dst_node.clone(), n);
            let weighted = tape.mul_col_broadcast(v_src, attn);
            let agg = tape.scatter_add_rows(weighted, idx.msg_dst_node.clone(), n);
            aggs.push(agg);
            whats.push(what);
        }

        let h_agg = tape.concat_cols(&aggs);
        let h_attn = self.o_h.forward(tape, binder, store, h_agg);
        let h_res = tape.add(h, h_attn);
        let h1 = self.ln_h1.layer_norm(tape, binder, store, h_res);
        let h_ffn = self.ffn_h.forward(tape, binder, store, h1);
        let h_res2 = tape.add(h1, h_ffn);
        let h2 = self.ln_h2.layer_norm(tape, binder, store, h_res2);

        let e_what = tape.concat_cols(&whats);
        let e_attn = self.o_e.forward(tape, binder, store, e_what);
        let e_res = tape.add(e, e_attn);
        let e1 = self.ln_e1.layer_norm(tape, binder, store, e_res);
        let e_ffn = self.ffn_e.forward(tape, binder, store, e1);
        let e_res2 = tape.add(e1, e_ffn);
        let e2 = self.ln_e2.layer_norm(tape, binder, store, e_res2);
        (h2, e2, leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::layers::Layer;
    use mega_datasets::{zinc, DatasetSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_and_gradients() {
        let samples: Vec<_> = zinc(&DatasetSpec::tiny(3))
            .train
            .into_iter()
            .take(2)
            .collect();
        let batch = Batch::baseline(&samples);
        let d = 8;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GraphTransformerLayer::new(&mut store, "t0", d, 2, &mut rng);

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        // Varied inputs: with constant rows the attention softmax gradient is
        // exactly zero by symmetry.
        let h = tape.leaf(testing::varied(batch.indices.n_nodes, d, 1));
        let e = tape.leaf(testing::varied(batch.indices.msg_count(), d, 2));
        let (h2, e2) = layer.forward(&mut tape, &mut binder, &store, &batch.indices, h, e);
        assert_eq!(tape.value(h2).shape(), (batch.indices.n_nodes, d));
        assert_eq!(tape.value(e2).shape(), (batch.indices.msg_count(), d));
        assert!(!tape.value(h2).has_non_finite());

        let loss = tape.mean(h2);
        let grads = tape.backward(loss);
        binder.apply(&mut store, &grads);
        let q = store.id_of("t0.Q.w").unwrap();
        assert!(
            store.grad(q).norm() > 0.0,
            "gradient must reach Q projection"
        );
    }

    #[test]
    fn head_blocks_match_per_head_projections() {
        let d = 8;
        for heads in [1, 2, 4] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(6);
            let layer = GraphTransformerLayer::new(&mut store, "t0", d, heads, &mut rng);
            testing::perturb(&mut store);
            testing::check_against_reference(
                &mut store,
                d,
                &[],
                &|tape, binder, store, idx, h, e| {
                    let (h2, e2) = layer.forward(tape, binder, store, idx, h, e);
                    (h2, e2, Vec::new())
                },
                &|tape, binder, store, idx, h, e| {
                    layer.forward_per_head(tape, binder, store, idx, h, e)
                },
            );
        }
    }

    #[test]
    fn gt_tape_nodes_are_pinned() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Layer::Gt(GraphTransformerLayer::new(&mut store, "t0", 8, 2, &mut rng));
        // Leaves included: Q, K, V, E, edge_scores, attend, Oh, Oe, two
        // two-linear FFNs and four add_layer_norms (gamma, beta, node) —
        // the baseline gathers and chains what the two band ops fuse.
        assert_eq!(
            testing::tape_nodes(&layer, &store, 8),
            [44, 52],
            "mega, baseline"
        );
    }

    #[test]
    fn parameter_volume_is_14_d_squared() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let d = 16;
        let _ = GraphTransformerLayer::new(&mut store, "t", d, 4, &mut rng);
        // Weight matrices: Q,K,V,E (4·d²) + Oh,Oe (2·d²) + FFNs (8·d²).
        let weights = 14 * d * d;
        let biases = 4 * d // per-head groups sum to d each for Q,K,V,E
            + 2 * d // Oh, Oe
            + 2 * (2 * d + d) // FFN hidden + out biases, ×2 streams
            + 8 * d; // four LayerNorm gamma/beta pairs
        assert_eq!(store.scalar_count(), weights + biases);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn heads_must_divide_width() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = GraphTransformerLayer::new(&mut store, "t", 10, 3, &mut rng);
    }
}
