//! Graph Attention Network layer (Veličković et al. — the paper's reference
//! \[14\] for state-of-the-art graph attention). An extension beyond the
//! paper's two evaluated models, included because MEGA's banded engine
//! applies to any attention-style aggregation.
//!
//! Per head `k` and message `(j → i)`:
//!
//! ```text
//! z = W_k·h
//! s_ji = LeakyReLU(a_src·z_j + a_dst·z_i + a_edge·(E_k·e_ji))
//! α_ji = softmax_i(s_ji)                  (per destination node)
//! agg_i = Σ_j α_ji · z_j
//! h' = LN(h + O(concat_k agg))            (residual)
//! ```
//!
//! Edge states pass through unchanged (classic GAT does not update them).
//!
//! The heads are column blocks, as in the Graph Transformer: `W` and `E` are
//! one `d × d` [`Linear::with_head_blocks`] each, and `a_src`, `a_dst`,
//! `a_edge` one `hd × heads` layer each, column `k` being head `k`'s vector.
//! A score is one GEMM over its weight's block-diagonal `d × heads`
//! expansion (a row gather by `r mod hd`, then a 0/1 block mask), whose
//! masked terms add exact zeros. The scores run on node rows, before any
//! message reads them, which a row gather commutes with;
//! [`EngineIndices::edge_sum`] adds them at each message's ends, all heads
//! at once, and [`EngineIndices::attend`] softmaxes and aggregates `z` — a
//! band walk on MEGA, a gather → scatter chain on the baseline. The tape
//! records as many nodes at any head count, and the forward values are the
//! per-head composition's bit for bit.
//!
//! Backward, `dh` folds over all `d` columns of `W` at once and the
//! gradients of `z` and the node scores sum a node's messages in one group:
//! gradients agree with the per-head composition to the bound of DESIGN.md
//! §7, not to the bit.

use crate::batch::EngineIndices;
#[cfg(test)]
use crate::layers::testing;
use crate::nn::{Binder, Linear, NormParams};
use mega_tensor::{ParamStore, Tape, Tensor, Var};
use rand::Rng;
use std::sync::Arc;

/// Negative slope of the attention LeakyReLU (the GAT paper's 0.2).
const LEAKY_SLOPE: f32 = 0.2;

/// Parameters of one GAT layer.
#[derive(Debug, Clone)]
pub struct GatLayer {
    heads: usize,
    head_dim: usize,
    w: Linear,
    e: Linear,
    a_src: Linear,
    a_dst: Linear,
    a_edge: Linear,
    o: Linear,
    ln: NormParams,
}

impl GatLayer {
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
        let mut mk = |what: &str, d_in: usize, d_out: usize| {
            Linear::with_head_blocks(store, &format!("{name}.{what}"), d_in, d_out, heads, rng)
        };
        let (w, e) = (mk("W", d, d), mk("E", d, d));
        let hd = d / heads;
        let (a_src, a_dst, a_edge) = (
            mk("a_src", hd, heads),
            mk("a_dst", hd, heads),
            mk("a_edge", hd, heads),
        );
        GatLayer {
            heads,
            head_dim: hd,
            w,
            e,
            a_src,
            a_dst,
            a_edge,
            o: Linear::new(store, &format!("{name}.O"), d, d, rng),
            ln: NormParams::new(store, &format!("{name}.ln"), d),
        }
    }

    /// Applies the layer; edge states are returned untouched.
    pub fn forward(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        idx: &EngineIndices,
        h: Var,
        e: Var,
    ) -> (Var, Var) {
        let (heads, hd) = (self.heads, self.head_dim);
        let d = heads * hd;
        let z = self.w.forward(tape, binder, store, h);
        let ez = self.e.forward(tape, binder, store, e);
        // Each score weight (`hd × heads`) expanded to the block-diagonal
        // `d × heads` matrix: row `r` tiled from row `r mod hd`, masked to
        // column `r / hd`, so head `k` reads only block `k` of its input.
        let tile = Arc::new((0..d).map(|r| r % hd).collect());
        let block_diag = (0..d * heads).map(|i| f32::from(i / heads / hd == i % heads));
        let mask = tape.leaf(Tensor::from_vec(d, heads, block_diag.collect()));
        let mut scores = |tape: &mut Tape, a: &Linear, x: Var| {
            let (w, b) = a.params();
            let (w, b) = (binder.bind(tape, store, w), binder.bind(tape, store, b));
            let tiled = tape.gather_rows(w, Arc::clone(&tile));
            let expanded = tape.mul(tiled, mask);
            tape.linear(x, expanded, b)
        };
        let s_src = scores(tape, &self.a_src, z);
        let s_dst = scores(tape, &self.a_dst, z);
        let s_edge = scores(tape, &self.a_edge, ez);
        let s = idx.edge_sum(tape, s_src, s_dst, s_edge);
        let score = tape.leaky_relu(s, LEAKY_SLOPE);
        let agg = idx.attend(tape, score, z, heads);
        let proj = self.o.forward(tape, binder, store, agg);
        let out = self.ln.add_layer_norm(tape, binder, store, h, proj);
        (out, e)
    }
}

#[cfg(test)]
impl GatLayer {
    /// The composition [`GatLayer::forward`] runs on baseline batches, kept
    /// as its oracle on MEGA ones: node scores gathered per message through
    /// the endpoints the band lists, softmaxed and aggregated on message rows.
    fn forward_per_message(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        idx: &EngineIndices,
        h: Var,
        e: Var,
    ) -> (Var, Var) {
        self.forward(tape, binder, store, &testing::gathered(idx), h, e)
    }

    /// The per-head composition [`GatLayer::forward`] replaced, kept as its
    /// oracle: per head `k`, column block `k` of `W` and `E` and column `k`
    /// of each score weight as head `k`'s own leaves, `z` gathered per
    /// message, scored, softmaxed and aggregated on message rows, and the
    /// heads joined by `concat_cols`.
    fn forward_per_head(
        &self,
        tape: &mut Tape,
        binder: &mut Binder,
        store: &ParamStore,
        idx: &EngineIndices,
        h: Var,
        e: Var,
    ) -> (Var, Var, testing::BlockLeaves) {
        let (n, dst) = (idx.n_nodes, idx.msg_dst_node.clone());
        let src = testing::message_sources(idx);
        let mut leaves =
            testing::block_leaves(&[&self.w, &self.e, &self.a_src, &self.a_dst, &self.a_edge]);
        let mut aggs = Vec::with_capacity(self.heads);
        for k in 0..self.heads {
            let mut project = |tape: &mut Tape, which: usize, x: Var| {
                testing::project_block(tape, store, &mut leaves, which, k, self.heads, x)
            };
            let z = project(tape, 0, h);
            let ek = project(tape, 1, e);
            let z_src = tape.gather_rows(z, src.clone());
            let z_dst = tape.gather_rows(z, dst.clone());
            let s_src = project(tape, 2, z_src);
            let s_dst = project(tape, 3, z_dst);
            let s_edge = project(tape, 4, ek);
            let s1 = tape.add(s_src, s_dst);
            let s2 = tape.add(s1, s_edge);
            let score = tape.leaky_relu(s2, LEAKY_SLOPE);
            let attn = tape.segment_softmax(score, dst.clone(), n);
            let weighted = tape.mul_col_broadcast(z_src, attn);
            aggs.push(tape.scatter_add_rows(weighted, dst.clone(), n));
        }
        let cat = tape.concat_cols(&aggs);
        let proj = self.o.forward(tape, binder, store, cat);
        let out = self.ln.add_layer_norm(tape, binder, store, h, proj);
        (out, e, leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::layers::Layer;
    use mega_core::{preprocess, MegaConfig};
    use mega_datasets::{zinc, DatasetSpec};
    use mega_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_and_gradients() {
        let samples: Vec<_> = zinc(&DatasetSpec::tiny(31))
            .train
            .into_iter()
            .take(2)
            .collect();
        let schedules: Vec<_> = samples
            .iter()
            .map(|s| preprocess(&s.graph, &MegaConfig::default()).unwrap())
            .collect();
        let d = 8;
        for batch in [Batch::baseline(&samples), Batch::mega(&samples, &schedules)] {
            let engine = batch.indices.engine();
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(1);
            let layer = GatLayer::new(&mut store, "g0", d, 2, &mut rng);

            let mut tape = Tape::new();
            let mut binder = Binder::new();
            // Varied inputs — constant rows make the softmax gradient vanish.
            let h = tape.leaf(testing::varied(batch.indices.n_nodes, d, 3));
            let e = tape.leaf(testing::varied(batch.indices.msg_count(), d, 4));
            let (h2, e2) = layer.forward(&mut tape, &mut binder, &store, &batch.indices, h, e);
            assert_eq!(tape.value(h2).shape(), (batch.indices.n_nodes, d));
            assert_eq!(e2, e, "GAT passes edge states through");
            assert!(!tape.value(h2).has_non_finite());

            let loss = tape.mean(h2);
            let grads = tape.backward(loss);
            binder.apply(&mut store, &grads);
            let w0 = store.id_of("g0.W.w").unwrap();
            assert!(
                store.grad(w0).norm() > 0.0,
                "{engine:?}: gradient must reach W"
            );
            let a0 = store.id_of("g0.a_src.w").unwrap();
            assert!(
                store.grad(a0).norm() > 0.0,
                "{engine:?}: gradient must reach attention vector"
            );
        }
    }

    #[test]
    fn node_scores_match_per_message_scores() {
        let d = 8;
        for heads in [1, 2] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(7);
            let layer = GatLayer::new(&mut store, "g0", d, heads, &mut rng);
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
                    let (h2, e2) = layer.forward_per_message(tape, binder, store, idx, h, e);
                    (h2, e2, Vec::new())
                },
            );
        }
    }

    #[test]
    fn head_blocks_match_per_head_layers() {
        let d = 8;
        for heads in [1, 2, 4] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(8);
            let layer = GatLayer::new(&mut store, "g0", d, heads, &mut rng);
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
    fn gat_tape_nodes_do_not_grow_with_heads() {
        // Leaves included: W, E, three scores (weight, bias, tile, mask,
        // linear), their shared mask, edge_sum, leaky_relu, attend, O and
        // the norm — plus the baseline's gathers, adds and attention chain.
        for heads in [1, 2, 4, 8] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(1);
            let layer = Layer::Gat(GatLayer::new(&mut store, "g0", 8, heads, &mut rng));
            let nodes = testing::tape_nodes(&layer, &store, 8);
            assert_eq!(nodes, [31, 38], "mega, baseline at {heads} heads");
        }
    }

    #[test]
    fn new_holds_the_per_head_draws() {
        let (d, heads) = (8, 4);
        let hd = d / heads;
        // The per-head layers' draws, in the order they were registered.
        let mut per_head = ParamStore::new();
        let mut rng_a = StdRng::seed_from_u64(9);
        let shapes = [
            ("W", d, hd),
            ("E", d, hd),
            ("a_src", hd, 1),
            ("a_dst", hd, 1),
            ("a_edge", hd, 1),
        ];
        for (what, d_in, d_out) in shapes {
            for k in 0..heads {
                let name = format!("g.{what}{k}");
                Linear::new(&mut per_head, &name, d_in, d_out, &mut rng_a);
            }
        }
        Linear::new(&mut per_head, "g.O", d, d, &mut rng_a);
        NormParams::new(&mut per_head, "g.ln", d);

        let mut blocked = ParamStore::new();
        let mut rng_b = StdRng::seed_from_u64(9);
        let _ = GatLayer::new(&mut blocked, "g", d, heads, &mut rng_b);

        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let get = |s: &ParamStore, name: &str| s.get(s.id_of(name).unwrap()).clone();
        for (what, _, _) in shapes {
            let (w, b) = (
                get(&blocked, &format!("g.{what}.w")),
                get(&blocked, &format!("g.{what}.b")),
            );
            for k in 0..heads {
                let at = format!("{what}, head {k}");
                let head_w = get(&per_head, &format!("g.{what}{k}.w"));
                let head_b = get(&per_head, &format!("g.{what}{k}.b"));
                assert_eq!(
                    bits(&testing::col_block(&w, k, heads)),
                    bits(&head_w),
                    "{at}"
                );
                assert_eq!(
                    bits(&testing::col_block(&b, k, heads)),
                    bits(&head_b),
                    "{at}"
                );
            }
        }
        assert_eq!(
            bits(&get(&blocked, "g.O.w")),
            bits(&get(&per_head, "g.O.w"))
        );
        assert_eq!(blocked.scalar_count(), per_head.scalar_count());
        // The next layer draws what it would have drawn after the per-head
        // layers.
        let next_a = mega_tensor::init::xavier_uniform(d, d, &mut rng_a);
        let next_b = mega_tensor::init::xavier_uniform(d, d, &mut rng_b);
        assert_eq!(next_a, next_b);
    }

    #[test]
    fn attention_weights_normalize_per_node() {
        // Indirect check: with one head and identity-ish setup the aggregated
        // output is a convex combination of neighbor z rows, so its per-row
        // magnitude is bounded by the max neighbor magnitude.
        let samples: Vec<_> = zinc(&DatasetSpec::tiny(32))
            .train
            .into_iter()
            .take(1)
            .collect();
        let batch = Batch::baseline(&samples);
        let d = 4;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GatLayer::new(&mut store, "g", d, 1, &mut rng);
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let h = tape.leaf(Tensor::full(batch.indices.n_nodes, d, 1.0));
        let e = tape.leaf(Tensor::zeros(batch.indices.msg_count(), d));
        let (h2, _) = layer.forward(&mut tape, &mut binder, &store, &batch.indices, h, e);
        assert!(!tape.value(h2).has_non_finite());
    }
}
