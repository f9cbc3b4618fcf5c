//! Reverse-mode autograd tape.
//!
//! A [`Tape`] records a computation as a sequence of nodes; every op method
//! returns a [`Var`] handle. [`Tape::backward`] walks the nodes in reverse
//! and returns the gradients of the *leaves*. The op set is tailored to GNN
//! training: dense linear algebra, activations, normalizations, losses, and
//! the index-driven graph ops (row gather, scatter-add, segment softmax)
//! that express both the DGL-style baseline and MEGA's banded attention.
//!
//! Tape ops are thin autograd wrappers: the numeric work — forward kernels
//! and the matrix products of the backward pass — dispatches through a
//! [`Backend`] (default [`SimdBackend`], bit-identical to the
//! [`ReferenceBackend`](mega_exec::ReferenceBackend) oracle), and output
//! buffers come from a shared [`BufferPool`] so steady-state training
//! recycles allocations instead of making fresh ones per node. Dropped
//! tapes return their node buffers to the pool.
//!
//! The backward pass draws from the same pool and owns every gradient it
//! makes. A node's gradient does not exist until a consumer's arm
//! contributes to it; the first contribution is adopted as the gradient,
//! later ones are added into it. When the walk reaches the node, its arm
//! takes the gradient, passes the buffer on to an operand or releases it,
//! and nothing is kept for it. Only leaf gradients survive, in
//! [`Gradients`], which releases them when dropped (DESIGN.md §6).
//!
//! Values are kept only while an arm may still read them. An arm reads its
//! own value and its operands', and every consumer of a node is recorded
//! after it, so once the walk has passed a node — its arm run, or skipped
//! for want of a gradient — nothing reads its value again: the value and
//! the buffers its op keeps (attention weights, a gate's numerator and
//! denominator, a residual sum) go back to the pool there. Leaves and the
//! loss keep theirs. Each node's shape is kept apart from its value, so
//! shape checks and arms that read only a shape work on released nodes;
//! reading a released value panics with the node's index and op.
//!
//! Every op method runs its kernel before returning: the recorder is the
//! op's one forward site, as its arm in the backward pass is its one
//! backward site, and a [`Var`] has a value until the backward pass passes
//! it. Ops that differ only by a flag — a GEMM epilogue, a [`Unary`]
//! activation, a norm's fused activation, a sum's division into a mean —
//! are one node kind with that flag, as the backend takes them. The fused
//! ops ([`Tape::linear`], [`Tape::linear_relu`], [`Tape::batch_norm_relu`],
//! [`Tape::add_layer_norm`]) are called by the layers that want them and
//! are bit-identical, forward and backward, to the unfused chains they
//! replace. [`Tape::add_layer_norm`] also takes over the buffer of its
//! residual operand, an output nothing else reads, to hold the sum: the
//! sum costs no buffer, and the operand's value is gone. An op whose kernel
//! writes every element of its output takes a buffer that may hold stale
//! values ([`BufferPool::acquire_for_overwrite`]); only accumulators are
//! zeroed.

use crate::tensor::Tensor;
use mega_core::band::BandSlot;
use mega_exec::{
    kernels, Backend, BandRoute, BufferPool, EdgeScore, Epilogue, NormKind, NormPass, Operand,
    SimdBackend, Unary,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The band of a MEGA batch, as the band ops ([`Tape::band_edge_scores`],
/// [`Tape::band_edge_sum`], [`Tape::band_attend`], [`Tape::band_gate`]) read
/// it: the batch's active slots over its stitched path positions, and the
/// node behind each position.
///
/// Slot `j` carries message `2j` (`lo → hi`) and message `2j + 1`
/// (`hi → lo`), so a message tensor has `2 · slots.len()` rows in slot
/// order and a node tensor `n_nodes` rows.
#[derive(Debug, Clone)]
pub struct Band {
    /// The active slots, ascending; no slot crosses a sample.
    pub slots: Arc<Vec<BandSlot>>,
    /// The node row of each path position.
    pub node_of: Arc<Vec<usize>>,
    /// The destination node of each message: the softmax segments.
    pub msg_dst: Arc<Vec<usize>>,
    /// Node rows.
    pub n_nodes: usize,
}

impl Band {
    /// Number of messages: two per slot.
    pub fn message_count(&self) -> usize {
        2 * self.slots.len()
    }

    /// The band as the backend kernels read it; its
    /// [`BandRoute::messages`] lists every message's source and destination
    /// node.
    pub fn route(&self) -> BandRoute<'_> {
        BandRoute {
            slots: &self.slots,
            rows: &self.node_of,
        }
    }
}

/// What produced a node. A fused shape is one variant with the flag or
/// descriptor the backend takes for it: a [`Backend::gemm`] epilogue, a
/// [`Unary`], a norm's activation.
#[derive(Debug)]
enum Op {
    Leaf,
    /// `x · w`, plus `bias` as the GEMM's epilogue when there is one, then a
    /// ReLU when `relu` (only with a bias).
    Gemm {
        x: Var,
        w: Var,
        bias: Option<Var>,
        relu: bool,
    },
    Add(Var, Var),
    Mul(Var, Var),
    AddRow(Var, Var),
    Scale(Var, f32),
    Unary(Var, Unary),
    /// The sum of all elements, over their count when `mean`.
    Sum {
        a: Var,
        mean: bool,
    },
    DivEps(Var, Var, f32),
    RowBlockSums(Var),
    MulColBroadcast(Var, Var),
    ConcatCols(Arc<Vec<Var>>),
    GatherRows(Var, Arc<Vec<usize>>),
    ScatterAddRows(Var, Arc<Vec<usize>>),
    SegmentSoftmax(Var, Arc<Vec<usize>>, usize),
    /// `form` of `q[dst]`, `k[src]` and `ee` per message of the band.
    BandEdgeScores {
        q: Var,
        k: Var,
        ee: Var,
        band: Arc<Band>,
        form: EdgeScore,
    },
    /// Softmax of per-head score sums, then the weighted aggregation; keeps
    /// the `m × heads` weights for the backward pass.
    BandAttend {
        e_what: Var,
        v: Var,
        band: Arc<Band>,
        attn: Tensor,
    },
    /// The gated sum `num / (den + eps)` per destination node; keeps the
    /// `n × d` numerator and denominator for the backward pass.
    BandGate {
        e_hat: Var,
        v: Var,
        band: Arc<Band>,
        eps: f32,
        num: Tensor,
        den: Tensor,
    },
    LayerNorm(Var, Var, Var, f32),
    /// `layer_norm(h + r)`: `r`'s buffer, taken when the node was recorded,
    /// holds the sum the backward pass reads.
    AddLayerNorm {
        h: Var,
        r: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
        sum: Tensor,
    },
    /// `(a, gamma, beta, eps, relu)`: batch normalization, then a ReLU when
    /// `relu`.
    BatchNorm(Var, Var, Var, f32, bool),
    L1Loss(Var, Arc<Tensor>),
    CrossEntropy(Var, Arc<Vec<usize>>),
}

impl Op {
    /// Stable name of the op kind, for diagnostics.
    fn kind_name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Gemm { bias: None, .. } => "matmul",
            Op::Gemm { relu: false, .. } => "linear",
            Op::Gemm { relu: true, .. } => "linear_relu",
            Op::Add(..) => "add",
            Op::Mul(..) => "mul",
            Op::AddRow(..) => "add_row",
            Op::Scale(..) => "scale",
            Op::Unary(_, Unary::Relu) => "relu",
            Op::Unary(_, Unary::LeakyRelu(_)) => "leaky_relu",
            Op::Unary(_, Unary::Sigmoid) => "sigmoid",
            Op::Sum { mean: false, .. } => "sum",
            Op::Sum { mean: true, .. } => "mean",
            Op::DivEps(..) => "div_eps",
            Op::RowBlockSums(..) => "row_block_sums",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::ConcatCols(..) => "concat_cols",
            Op::GatherRows(..) => "gather_rows",
            Op::ScatterAddRows(..) => "scatter_add_rows",
            Op::SegmentSoftmax(..) => "segment_softmax",
            Op::BandEdgeScores { form, .. } => match form {
                EdgeScore::Product(_) => "band_edge_scores",
                EdgeScore::Sum => "band_edge_sum",
            },
            Op::BandAttend { .. } => "band_attend",
            Op::BandGate { .. } => "band_gate",
            Op::LayerNorm(..) => "layer_norm",
            Op::AddLayerNorm { .. } => "add_layer_norm",
            Op::BatchNorm(.., false) => "batch_norm",
            // Named after the backend's fused-norm profile row.
            Op::BatchNorm(.., true) => "batch_norm_act",
            Op::L1Loss(..) => "l1_loss",
            Op::CrossEntropy(..) => "cross_entropy",
        }
    }

    /// Whether `v` is one of the op's operands.
    fn reads(&self, v: Var) -> bool {
        match self {
            Op::Leaf => false,
            Op::Unary(a, _)
            | Op::Sum { a, .. }
            | Op::Scale(a, _)
            | Op::RowBlockSums(a)
            | Op::GatherRows(a, _)
            | Op::ScatterAddRows(a, _)
            | Op::SegmentSoftmax(a, ..)
            | Op::L1Loss(a, _)
            | Op::CrossEntropy(a, _) => *a == v,
            Op::Add(a, b)
            | Op::Mul(a, b)
            | Op::AddRow(a, b)
            | Op::DivEps(a, b, _)
            | Op::MulColBroadcast(a, b)
            | Op::BandAttend {
                e_what: a, v: b, ..
            }
            | Op::BandGate { e_hat: a, v: b, .. } => [*a, *b].contains(&v),
            Op::Gemm { x, w, bias, .. } => [*x, *w].contains(&v) || *bias == Some(v),
            Op::BandEdgeScores { q, k, ee, .. } => [*q, *k, *ee].contains(&v),
            Op::LayerNorm(a, g, b, _) | Op::BatchNorm(a, g, b, ..) => [*a, *g, *b].contains(&v),
            Op::AddLayerNorm {
                h, r, gamma, beta, ..
            } => [*h, *r, *gamma, *beta].contains(&v),
            Op::ConcatCols(parts) => parts.contains(&v),
        }
    }

    /// Whether the op's backward arm reads its own value, not only its
    /// shape. Such a value cannot be given away (see [`Tape::add_layer_norm`]).
    fn arm_reads_value(&self) -> bool {
        matches!(
            self,
            Op::Leaf
                | Op::Gemm { relu: true, .. }
                | Op::Unary(_, Unary::Sigmoid)
                | Op::SegmentSoftmax(..)
                | Op::BatchNorm(.., true)
        )
    }

    /// The buffers the op keeps for its backward arm.
    fn kept_mut(&mut self) -> [Option<&mut Tensor>; 2] {
        match self {
            Op::BandAttend { attn, .. } => [Some(attn), None],
            Op::BandGate { num, den, .. } => [Some(num), Some(den)],
            Op::AddLayerNorm { sum, .. } => [Some(sum), None],
            _ => [None, None],
        }
    }
}

/// One tape node: the op that produced it, its output shape and its value.
struct Node {
    /// Output shape, kept after the value is gone.
    shape: (usize, usize),
    /// `None` once the backward pass has released it, or once
    /// [`Tape::add_layer_norm`] has taken its buffer.
    value: Option<Tensor>,
    op: Op,
}

/// The leaf gradients of one backward pass, indexed by [`Var`].
///
/// Only leaves have a gradient here: every other node's gradient was taken
/// by that node's backward arm and released once consumed. The buffers come
/// from the tape's [`BufferPool`] and return to it on drop.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    pool: Arc<BufferPool>,
}

impl Gradients {
    /// The gradient with respect to the leaf `v` (zeros when `v` has no
    /// influence on the loss).
    ///
    /// # Panics
    ///
    /// Panics if `v` came from a different tape (index out of range) or is
    /// not a leaf: the backward pass keeps no gradient for an op's output.
    pub fn wrt(&self, v: Var) -> &Tensor {
        self.grads[v.0]
            .as_ref()
            .expect("only leaf gradients survive a backward pass")
    }
}

impl Drop for Gradients {
    fn drop(&mut self) {
        for g in self.grads.drain(..).flatten() {
            self.pool.release(g.into_data());
        }
    }
}

/// The rows of a row-major buffer `cols` wide (none for a zero-width one).
fn rows_of(buf: &[f32], cols: usize) -> std::slice::ChunksExact<'_, f32> {
    buf.chunks_exact(cols.max(1))
}

/// [`rows_of`], mutably.
fn rows_of_mut(buf: &mut [f32], cols: usize) -> std::slice::ChunksExactMut<'_, f32> {
    buf.chunks_exact_mut(cols.max(1))
}

/// The relu backward, in place: keeps `g` where `gate` is positive and
/// zeroes it elsewhere. `gate` is the relu's input or, equally, its output.
fn keep_where_positive(g: &mut [f32], gate: &[f32]) {
    for (gv, &x) in g.iter_mut().zip(gate) {
        *gv = if x > 0.0 { *gv } else { 0.0 };
    }
}

/// Reverse-mode autograd tape. Build values with the op methods, then call
/// [`Tape::backward`] on a scalar node.
pub struct Tape {
    nodes: Vec<Node>,
    par: mega_core::Parallelism,
    backend: Arc<dyn Backend>,
    pool: Arc<BufferPool>,
}

impl Default for Tape {
    fn default() -> Self {
        Tape::new()
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        // Recycle every node's buffer; with a shared pool the next tape's
        // forward pass allocates (almost) nothing.
        for idx in 0..self.nodes.len() {
            self.release_node(idx);
        }
    }
}

impl Tape {
    /// A fresh, empty tape on the default [`SimdBackend`] with a private
    /// buffer pool.
    pub fn new() -> Self {
        Tape::with_exec(Arc::new(SimdBackend::new()), Arc::new(BufferPool::new()))
    }

    /// A fresh tape dispatching kernels to `backend` and drawing output
    /// buffers from `pool` (share one pool across tapes to recycle
    /// allocations between batches).
    pub fn with_exec(backend: Arc<dyn Backend>, pool: Arc<BufferPool>) -> Self {
        Tape {
            nodes: Vec::new(),
            par: mega_core::Parallelism::default(),
            backend,
            pool,
        }
    }

    /// Sets the thread budget used by the tape's heavy kernels: every GEMM,
    /// forward ([`Tape::matmul`], [`Tape::linear`], [`Tape::linear_relu`])
    /// and both backward products (`g · wᵀ` and `xᵀ · g`).
    ///
    /// The parallel kernels partition output rows, so results — forward
    /// values and gradients alike — are bit-identical for every setting.
    pub fn set_parallelism(&mut self, par: mega_core::Parallelism) {
        self.par = par;
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value held at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is an op's output that [`Tape::backward`] has released,
    /// or a residual [`Tape::add_layer_norm`] took the buffer of.
    pub fn value(&self, v: Var) -> &Tensor {
        let node = &self.nodes[v.0];
        match &node.value {
            Some(value) => value,
            None => panic!(
                "node #{} ({}) has no value: the backward pass released it, \
                 or add_layer_norm took its buffer",
                v.0,
                node.op.kind_name()
            ),
        }
    }

    /// Output shape of `v`.
    fn dims(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].shape
    }

    /// Returns the value of node `idx` and the buffers its op keeps to the
    /// pool; a leaf's value goes too. A node without a value (released, or
    /// given away) returns only what its op keeps.
    fn release_node(&mut self, idx: usize) {
        let (node, pool) = (&mut self.nodes[idx], &self.pool);
        for kept in node.op.kept_mut().into_iter().flatten() {
            pool.release(std::mem::replace(kept, Tensor::zeros(0, 0)).into_data());
        }
        if let Some(value) = node.value.take() {
            pool.release(value.into_data());
        }
    }

    /// The first node (in recording order) whose value holds a NaN or an
    /// infinity, as `(node index, op kind name)` — `None` when every value
    /// on the tape is finite.
    ///
    /// Recording order is evaluation order, so the returned node is where
    /// non-finiteness *entered* the forward pass: everything downstream is
    /// contaminated by it, everything upstream was still healthy. The
    /// trainer's NaN/Inf sentinel uses this to name the offending op in its
    /// diagnostic dump. Nodes without a value are skipped: a residual
    /// operand's non-finite value shows in the `add_layer_norm` after it.
    pub fn first_nonfinite(&self) -> Option<(usize, &'static str)> {
        self.nodes.iter().enumerate().find_map(|(i, n)| {
            let value = n.value.as_ref()?;
            value
                .as_slice()
                .iter()
                .any(|v| !v.is_finite())
                .then(|| (i, n.op.kind_name()))
        })
    }

    /// Records an already-computed value.
    fn push_value(&mut self, value: Tensor, op: Op) -> Var {
        if mega_obs::enabled() {
            mega_obs::counter_add("tensor.tape.ops", 1);
        }
        let shape = value.shape();
        self.nodes.push(Node {
            shape,
            value: Some(value),
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records an input tensor (parameter or constant); gradients are
    /// computed for every leaf reachable from the loss.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push_value(t, Op::Leaf)
    }

    /// Records a copy of `t` as a leaf, in a pooled buffer: how parameters
    /// enter each step's tape without a fresh allocation, and come back to
    /// the pool as the buffers the next step's copies reuse.
    pub fn leaf_copy(&mut self, t: &Tensor) -> Var {
        let (rows, cols) = t.shape();
        let mut buf = self.out_buf(rows, cols);
        buf.copy_from_slice(t.as_slice());
        self.leaf(Tensor::from_vec(rows, cols, buf))
    }

    /// Acquires a pooled buffer sized for an `rows × cols` output that the
    /// caller writes in full before reading: its contents are stale.
    fn out_buf(&self, rows: usize, cols: usize) -> Vec<f32> {
        self.pool.acquire_for_overwrite(rows * cols)
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.gemm_op(a, b, None, false)
    }

    /// Dense layer `x · w + bias` in one node: the bias is the GEMM's
    /// epilogue.
    ///
    /// Forward and backward match the unfused `matmul` → `add_row` chain bit
    /// for bit while saving the intermediate tensor and a memory sweep each
    /// way.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `bias` is not `1 × w.cols()`.
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        self.gemm_op(x, w, Some(bias), false)
    }

    /// Fused dense layer: `relu(x · w + bias)` in one node, matching the
    /// unfused `matmul` → `add_row` → `relu` chain bit for bit.
    ///
    /// # Panics
    ///
    /// As [`Tape::linear`].
    pub fn linear_relu(&mut self, x: Var, w: Var, bias: Var) -> Var {
        self.gemm_op(x, w, Some(bias), true)
    }

    /// Shape-checked recorder of [`Op::Gemm`]: one backend GEMM whose
    /// epilogue adds `bias`, if any, and then applies the ReLU when `relu`.
    fn gemm_op(&mut self, x: Var, w: Var, bias: Option<Var>, relu: bool) -> Var {
        let ((n, k), (wr, m)) = (self.dims(x), self.dims(w));
        let name = if bias.is_some() { "linear" } else { "matmul" };
        assert_eq!(k, wr, "{name}: inner dims {n}x{k} · {wr}x{m}");
        if let Some((br, bc)) = bias.map(|b| self.dims(b)) {
            assert_eq!(br, 1, "bias must be a single row");
            assert_eq!(bc, m, "bias width mismatch");
        }
        let epilogue = match (bias, relu) {
            (None, _) => Epilogue::None,
            (Some(b), false) => Epilogue::Bias(self.value(b).as_slice()),
            (Some(b), true) => Epilogue::BiasRelu(self.value(b).as_slice()),
        };
        let mut out = self.out_buf(n, m);
        self.backend.gemm(
            Operand::RowMajor(self.value(x).as_slice()),
            Operand::RowMajor(self.value(w).as_slice()),
            n,
            k,
            m,
            epilogue,
            &self.par,
            &mut out,
        );
        let op = Op::Gemm { x, w, bias, relu };
        self.push_value(Tensor::from_vec(n, m, out), op)
    }

    /// Elementwise sum of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.dims(a);
        assert_eq!((r, c), self.dims(b), "add: shape mismatch");
        let mut out = self.out_buf(r, c);
        self.backend
            .add(self.value(a).as_slice(), self.value(b).as_slice(), &mut out);
        self.push_value(Tensor::from_vec(r, c, out), Op::Add(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.dims(a);
        assert_eq!((r, c), self.dims(b), "mul: shape mismatch");
        let mut out = self.out_buf(r, c);
        self.backend
            .mul(self.value(a).as_slice(), self.value(b).as_slice(), &mut out);
        self.push_value(Tensor::from_vec(r, c, out), Op::Mul(a, b))
    }

    /// Adds a `1 × c` bias row to every row of `a`, one [`Backend::add`]
    /// per row: the unfused oracle of [`Tape::linear`]'s bias epilogue.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × a.cols()`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let ((r, c), (br, bc)) = (self.dims(a), self.dims(bias));
        assert_eq!(br, 1, "bias must be a single row");
        assert_eq!(bc, c, "bias width mismatch");
        let mut out = self.out_buf(r, c);
        let bias_row = self.value(bias).as_slice();
        for (o, x) in rows_of_mut(&mut out, c).zip(rows_of(self.value(a).as_slice(), c)) {
            self.backend.add(x, bias_row, o);
        }
        self.push_value(Tensor::from_vec(r, c, out), Op::AddRow(a, bias))
    }

    /// Multiplies every element by `k`.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let (r, c) = self.dims(a);
        let mut out = self.out_buf(r, c);
        self.backend.scale(self.value(a).as_slice(), k, &mut out);
        self.push_value(Tensor::from_vec(r, c, out), Op::Scale(a, k))
    }

    /// Same-shape activation recorder: one [`Backend::unary`].
    fn unary_op(&mut self, a: Var, unary: Unary) -> Var {
        let (r, c) = self.dims(a);
        let mut out = self.out_buf(r, c);
        self.backend
            .unary(unary, self.value(a).as_slice(), &mut out);
        self.push_value(Tensor::from_vec(r, c, out), Op::Unary(a, unary))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary_op(a, Unary::Relu)
    }

    /// Leaky rectified linear unit: `x` if positive, else `slope * x`.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.unary_op(a, Unary::LeakyRelu(slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary_op(a, Unary::Sigmoid)
    }

    /// Sum of all elements (scalar `1 × 1`).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push_value(v, Op::Sum { a, mean: false })
    }

    /// Mean of all elements (scalar `1 × 1`).
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Tensor::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push_value(v, Op::Sum { a, mean: true })
    }

    /// Elementwise `a / (b + eps)` for same-shape tensors (the paper's gated
    /// aggregation normalizer).
    pub fn div_eps(&mut self, a: Var, b: Var, eps: f32) -> Var {
        assert_eq!(self.dims(a), self.dims(b), "div_eps shape mismatch");
        let (r, c) = self.dims(a);
        let mut out = self.out_buf(r, c);
        let (x, y) = (self.value(a).as_slice(), self.value(b).as_slice());
        for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
            *o = x / (y + eps);
        }
        self.push_value(Tensor::from_vec(r, c, out), Op::DivEps(a, b, eps))
    }

    /// Sums each of the `blocks` equal-width column blocks of every row of
    /// `a` (`r × c`): output is `r × blocks`, each entry the ascending sum of
    /// its block — per-head attention scores when the blocks are the heads.
    ///
    /// # Panics
    ///
    /// Panics unless `blocks` is positive and divides `a.cols()`.
    pub fn row_block_sums(&mut self, a: Var, blocks: usize) -> Var {
        let (r, c) = self.dims(a);
        assert!(
            blocks > 0 && c.is_multiple_of(blocks),
            "row_block_sums: {blocks} blocks must divide {c} columns"
        );
        // Zeroed: a zero-width `a` has no blocks to sum.
        let mut out = self.pool.acquire(r * blocks);
        // Row-major, the blocks of all rows are consecutive runs.
        let runs = rows_of(self.value(a).as_slice(), c / blocks);
        for (o, block) in out.iter_mut().zip(runs) {
            *o = block.iter().sum();
        }
        self.push_value(Tensor::from_vec(r, blocks, out), Op::RowBlockSums(a))
    }

    /// Broadcast-multiplies each row of `a` (`r × c`) by the matching row of
    /// `w` (`r × k`, `k` dividing `c`): weight `j` scales the `j`-th of the
    /// row's `k` equal-width column blocks — applying per-head attention
    /// weights to values (`k = 1`: one scalar per row).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or `w.cols()` does not divide
    /// `a.cols()`.
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let ((r, c), (wr, k)) = (self.dims(a), self.dims(w));
        assert_eq!(r, wr, "row count mismatch");
        assert!(
            k > 0 && c.is_multiple_of(k),
            "mul_col_broadcast: w.cols() = {k} must divide a.cols() = {c}"
        );
        let mut out = self.out_buf(r, c);
        // Row-major, the blocks of all rows are consecutive runs, one per
        // weight.
        let runs = rows_of_mut(&mut out, c / k).zip(rows_of(self.value(a).as_slice(), c / k));
        for ((o_run, x_run), &wv) in runs.zip(self.value(w).as_slice()) {
            for (o, &x) in o_run.iter_mut().zip(x_run) {
                *o = x * wv;
            }
        }
        self.push_value(Tensor::from_vec(r, c, out), Op::MulColBroadcast(a, w))
    }

    /// Horizontally concatenates tensors with equal row counts (multi-head
    /// attention heads → model width).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut out = self.out_buf(rows, total);
        let mut offset = 0usize;
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
            let w = t.cols();
            for (o_row, src) in rows_of_mut(&mut out, total).zip(rows_of(t.as_slice(), w)) {
                o_row[offset..offset + w].copy_from_slice(src);
            }
            offset += w;
        }
        self.push_value(
            Tensor::from_vec(rows, total, out),
            Op::ConcatCols(Arc::new(parts.to_vec())),
        )
    }

    /// Gathers rows of `a` by `index` (e.g. node features → per-edge source
    /// features, or node features → path positions).
    pub fn gather_rows(&mut self, a: Var, index: Arc<Vec<usize>>) -> Var {
        let (x, rows) = (self.value(a), index.len());
        let (n, c) = x.shape();
        let mut out = self.out_buf(rows, c);
        self.backend
            .gather_rows(x.as_slice(), n, c, &index, &mut out);
        self.push_value(Tensor::from_vec(rows, c, out), Op::GatherRows(a, index))
    }

    /// Scatter-adds rows of `a` into `out_rows` buckets by `index` (e.g.
    /// per-edge messages → destination nodes, or path positions → nodes).
    pub fn scatter_add_rows(&mut self, a: Var, index: Arc<Vec<usize>>, out_rows: usize) -> Var {
        let (x, c) = (self.value(a), self.dims(a).1);
        let mut out = self.pool.acquire(out_rows * c);
        self.backend
            .scatter_add_rows(x.as_slice(), &index, c, out_rows, &mut out);
        let op = Op::ScatterAddRows(a, index);
        self.push_value(Tensor::from_vec(out_rows, c, out), op)
    }

    /// Column-wise softmax within row segments: rows sharing `segments[i]`
    /// form one softmax group per column (attention over a node's incident
    /// edges). `n_segments` bounds the segment ids.
    ///
    /// # Panics
    ///
    /// Panics if `segments.len() != a.rows()` or an id is out of range.
    pub fn segment_softmax(&mut self, a: Var, segments: Arc<Vec<usize>>, n_segments: usize) -> Var {
        let (r, c) = self.dims(a);
        assert_eq!(segments.len(), r, "one segment id per row required");
        let mut out = self.out_buf(r, c);
        let x = self.value(a).as_slice();
        self.backend
            .segment_softmax(x, r, c, &segments, n_segments, &mut out);
        let op = Op::SegmentSoftmax(a, segments, n_segments);
        self.push_value(Tensor::from_vec(r, c, out), op)
    }

    /// Graph Transformer edge scores over a MEGA batch's band, in one node:
    /// `((q[dst] ⊙ k[src]) ⊙ ee) · scale` for every message, `q` and `k`
    /// being node rows (`n × d`) and `ee` message rows (`m × d`).
    ///
    /// The values are those of gathering `q` to destinations and `k` to
    /// sources and chaining `mul`, `mul`, `scale`, bit for bit; the
    /// per-message copies of `q` and `k` and the two products never exist.
    /// Backward, `ee` gets that chain's gradient bits and `q`, `k` sum each
    /// node's messages straight into its row (DESIGN.md §7 bounds the
    /// regrouping).
    ///
    /// # Panics
    ///
    /// Panics unless `q` and `k` are `band.n_nodes × d` and `ee` is
    /// `band.message_count() × d`.
    pub fn band_edge_scores(
        &mut self,
        q: Var,
        k: Var,
        ee: Var,
        band: &Arc<Band>,
        scale: f32,
    ) -> Var {
        self.record_edge_scores(q, k, ee, band, EdgeScore::Product(scale))
    }

    /// The additive edge score over a MEGA batch's band, in one node:
    /// `(src_rows[src] + dst_rows[dst]) + ee` for every message, the first
    /// two being node rows (`n × d`) and `ee` message rows (`m × d`) —
    /// GatedGCN's edge pre-activation `A·h_j + B·h_i + C·e_ji`, and GAT's
    /// scores at width `heads`.
    ///
    /// The values are those of gathering `src_rows` to sources and
    /// `dst_rows` to destinations and chaining `add`, `add`, bit for bit;
    /// no per-message copy exists. Backward, `ee` gets that chain's gradient
    /// bits and `src_rows`, `dst_rows` sum each node's messages straight
    /// into its row (DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// Panics unless `src_rows` and `dst_rows` are `band.n_nodes × d` and
    /// `ee` is `band.message_count() × d`.
    pub fn band_edge_sum(
        &mut self,
        src_rows: Var,
        dst_rows: Var,
        ee: Var,
        band: &Arc<Band>,
    ) -> Var {
        self.record_edge_scores(dst_rows, src_rows, ee, band, EdgeScore::Sum)
    }

    /// Validates and records a band edge-score node: `q` is read at each
    /// message's destination, `k` at its source.
    fn record_edge_scores(
        &mut self,
        q: Var,
        k: Var,
        ee: Var,
        band: &Arc<Band>,
        form: EdgeScore,
    ) -> Var {
        let (m, d) = self.dims(ee);
        assert_eq!(
            m,
            band.message_count(),
            "band edge scores: one ee row per message"
        );
        for (what, v) in [("destination", q), ("source", k)] {
            assert_eq!(
                self.dims(v),
                (band.n_nodes, d),
                "band edge scores: {what} rows must be nodes x d"
            );
        }
        let mut out = self.out_buf(m, d);
        let (vq, vk, vee) = (self.value(q), self.value(k), self.value(ee));
        self.backend.band_edge_scores(
            band.route(),
            vq.as_slice(),
            vk.as_slice(),
            vee.as_slice(),
            d,
            form,
            &mut out,
        );
        let band = band.clone();
        let op = Op::BandEdgeScores {
            q,
            k,
            ee,
            band,
            form,
        };
        self.push_value(Tensor::from_vec(m, d, out), op)
    }

    /// Attention over a MEGA batch's band, in one node: the per-head sums of
    /// the message rows `e_what` (`m × w`, `heads` column blocks) are the
    /// scores, a softmax over each destination node's messages turns them
    /// into weights, and each head's block of the source's `v` row (`n × d`,
    /// `heads` column blocks), times its weight, is added into the
    /// destination's row of the `n × d` output.
    ///
    /// The values are those of `row_block_sums` → `segment_softmax` →
    /// gathering `v` to sources → `mul_col_broadcast` → `scatter_add_rows`,
    /// bit for bit; no per-message copy of `v` or of the weighted rows
    /// exists. The `m × heads` weights are kept for the backward pass, which
    /// gives `e_what` that chain's gradient bits and sums `v`'s per node
    /// (DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides both widths, `e_what` has one row per
    /// message and `v` one row per node.
    pub fn band_attend(&mut self, e_what: Var, v: Var, band: &Arc<Band>, heads: usize) -> Var {
        let ((m, w), (n, d)) = (self.dims(e_what), self.dims(v));
        assert!(
            heads > 0 && w.is_multiple_of(heads) && d.is_multiple_of(heads),
            "band_attend: {heads} heads must divide {w} score and {d} value columns"
        );
        assert_eq!(
            m,
            band.message_count(),
            "band_attend: one e_what row per message"
        );
        assert_eq!(n, band.n_nodes, "band_attend: v must be node rows");
        // Zeroed: a zero-width `e_what` has no blocks to sum.
        let mut score = self.pool.acquire(m * heads);
        let runs = rows_of(self.value(e_what).as_slice(), w / heads);
        for (o, block) in score.iter_mut().zip(runs) {
            *o = block.iter().sum();
        }
        let mut attn = self.out_buf(m, heads);
        self.backend
            .segment_softmax(&score, m, heads, &band.msg_dst, n, &mut attn);
        self.pool.release(score);
        let mut out = self.pool.acquire(n * d);
        let v_rows = self.value(v).as_slice();
        self.backend
            .band_attend(band.route(), v_rows, &attn, heads, d, false, &mut out);
        let op = Op::BandAttend {
            e_what,
            v,
            band: band.clone(),
            attn: Tensor::from_vec(m, heads, attn),
        };
        self.push_value(Tensor::from_vec(n, d, out), op)
    }

    /// GatedGCN's gated aggregate over a MEGA batch's band, in one node:
    /// with the gates `η = σ(e_hat)` (`m × d`), each destination node's
    /// `Σ η ⊙ v[src] / (Σ η + eps)` over its messages, `v` being node rows
    /// (`n × d`).
    ///
    /// The values are those of `sigmoid` → gathering `v` to sources →
    /// `mul` → two `scatter_add_rows` → `div_eps`, bit for bit. The gates
    /// live only while the op runs: it keeps the `n × d` numerator and
    /// denominator, and the backward pass recomputes the gates from
    /// `e_hat`, gives `e_hat` that chain's gradient bits and sums `v`'s per
    /// node (DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// Panics unless `e_hat` is `band.message_count() × d` and `v` is
    /// `band.n_nodes × d`, `d > 0`.
    pub fn band_gate(&mut self, e_hat: Var, v: Var, band: &Arc<Band>, eps: f32) -> Var {
        let ((m, d), n) = (self.dims(e_hat), band.n_nodes);
        assert!(d > 0, "band_gate: no features to gate");
        assert_eq!(
            m,
            band.message_count(),
            "band_gate: one e_hat row per message"
        );
        assert_eq!(self.dims(v), (n, d), "band_gate: v must be nodes x d");
        let mut gates = self.out_buf(m, d);
        self.backend
            .unary(Unary::Sigmoid, self.value(e_hat).as_slice(), &mut gates);
        let mut den = self.pool.acquire(n * d);
        self.backend
            .scatter_add_rows(&gates, &band.msg_dst, d, n, &mut den);
        let mut num = self.pool.acquire(n * d);
        let v_rows = self.value(v).as_slice();
        self.backend
            .band_attend(band.route(), v_rows, &gates, d, d, false, &mut num);
        self.pool.release(gates);
        let mut out = self.out_buf(n, d);
        for ((o, &x), &y) in out.iter_mut().zip(&num).zip(&den) {
            *o = x / (y + eps);
        }
        let op = Op::BandGate {
            e_hat,
            v,
            band: band.clone(),
            eps,
            num: Tensor::from_vec(n, d, num),
            den: Tensor::from_vec(n, d, den),
        };
        self.push_value(Tensor::from_vec(n, d, out), op)
    }

    /// Shared shape validation of the norm-op family.
    fn norm_dims(&self, kind: &str, a: Var, gamma: Var, beta: Var) -> (usize, usize) {
        let (r, c) = self.dims(a);
        assert_eq!(self.dims(gamma), (1, c), "{kind} gamma shape");
        assert_eq!(self.dims(beta), (1, c), "{kind} beta shape");
        (r, c)
    }

    /// Row-wise layer normalization with learnable `gamma`, `beta` (each
    /// `1 × c`).
    pub fn layer_norm(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        self.norm_dims("layer_norm", a, gamma, beta);
        let value = self.norm_forward(NormKind::Layer, a, gamma, beta, eps, None);
        self.push_value(value, Op::LayerNorm(a, gamma, beta, eps))
    }

    /// The forward pass of a norm through [`Backend::norm`], shared by the
    /// norm recorders: `x` normalized by `kind`, then `act` if any.
    fn norm_forward(
        &self,
        kind: NormKind,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
        act: Option<Unary>,
    ) -> Tensor {
        let (rows, cols) = self.dims(x);
        let mut out = self.out_buf(rows, cols);
        let pass = NormPass::Forward {
            x: self.value(x).as_slice(),
            act,
            out: &mut out,
        };
        let (g, b) = (self.value(gamma).as_slice(), self.value(beta).as_slice());
        self.backend.norm(kind, pass, g, b, rows, cols, eps);
        Tensor::from_vec(rows, cols, out)
    }

    /// `layer_norm(h + r, gamma, beta, eps)` in one node: a residual add and
    /// the layer norm it feeds.
    ///
    /// Forward and backward match the unfused `add(h, r)` → `layer_norm`
    /// pair bit for bit. The sum is written into `r`'s buffer, which the node
    /// takes over as the value its backward pass reads: `r` keeps no value
    /// of its own (reading it panics), and the sum needs no buffer of its
    /// own. Backward is the layer norm's arm, then the add's: `h` and then
    /// `r` receive the gradient of the sum, adopted first as a gradient is
    /// (`0.0 + x`, DESIGN.md §6).
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch, if `r` is a leaf, an operand of an op
    /// already recorded, one of the other operands, or an op whose backward
    /// reads its own value (a `linear_relu`, `sigmoid`, `segment_softmax`
    /// or `batch_norm_relu` output), or if `r` has no value left.
    pub fn add_layer_norm(&mut self, h: Var, r: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (rows, cols) = self.norm_dims("add_layer_norm", r, gamma, beta);
        assert_eq!(
            self.dims(h),
            (rows, cols),
            "add_layer_norm: h and r shapes differ"
        );
        let mut sum = self.donate(r, &[h, gamma, beta]);
        let mut out = self.out_buf(rows, cols);
        let pass = NormPass::Residual {
            h: self.value(h).as_slice(),
            x: sum.as_mut_slice(),
            out: &mut out,
        };
        let (g, b) = (self.value(gamma).as_slice(), self.value(beta).as_slice());
        self.backend
            .norm(NormKind::Layer, pass, g, b, rows, cols, eps);
        let op = Op::AddLayerNorm {
            h,
            r,
            gamma,
            beta,
            eps,
            sum,
        };
        self.push_value(Tensor::from_vec(rows, cols, out), op)
    }

    /// Takes the value of `r` for a consumer that overwrites it (the
    /// residual sum of [`Tape::add_layer_norm`]), after checking that
    /// nothing else reads it: `r` is none of the consumer's `others`, no
    /// recorded op reads it, and its own backward arm reads only its shape.
    fn donate(&mut self, r: Var, others: &[Var]) -> Tensor {
        let node = &self.nodes[r.0];
        let kind = node.op.kind_name();
        assert!(
            !others.contains(&r),
            "node #{} ({kind}) cannot be donated to a node that also reads it",
            r.0
        );
        assert!(
            !node.op.arm_reads_value(),
            "node #{} ({kind}) cannot be donated: its value is a leaf's or its backward reads it",
            r.0
        );
        if let Some(i) = (r.0 + 1..self.nodes.len()).find(|&i| self.nodes[i].op.reads(r)) {
            panic!(
                "node #{} ({kind}) cannot be donated: node #{i} ({}) already reads it",
                r.0,
                self.nodes[i].op.kind_name()
            );
        }
        let _ = self.value(r);
        self.nodes[r.0].value.take().expect("checked above")
    }

    /// Column-wise batch normalization (statistics over rows) with learnable
    /// `gamma`, `beta` (each `1 × c`). Training-mode statistics only.
    pub fn batch_norm(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        self.batch_norm_op(a, gamma, beta, eps, false)
    }

    /// Fused `relu(batch_norm(a, gamma, beta, eps))` in one node.
    ///
    /// Forward and backward match the unfused `batch_norm` → `relu` chain
    /// bit for bit while saving the intermediate tensor and one memory
    /// sweep.
    pub fn batch_norm_relu(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        self.batch_norm_op(a, gamma, beta, eps, true)
    }

    /// Shape-checked recorder of [`Op::BatchNorm`].
    fn batch_norm_op(&mut self, a: Var, gamma: Var, beta: Var, eps: f32, relu: bool) -> Var {
        let name = if relu {
            "batch_norm_relu"
        } else {
            "batch_norm"
        };
        self.norm_dims(name, a, gamma, beta);
        let act = relu.then_some(Unary::Relu);
        let value = self.norm_forward(NormKind::Batch, a, gamma, beta, eps, act);
        self.push_value(value, Op::BatchNorm(a, gamma, beta, eps, relu))
    }

    /// Mean absolute error against a constant target (scalar output).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn l1_loss(&mut self, pred: Var, target: Tensor) -> Var {
        assert_eq!(self.dims(pred), target.shape(), "l1 target shape mismatch");
        let p = self.value(pred);
        let n = (p.rows() * p.cols()).max(1) as f32;
        let loss = p
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f32>()
            / n;
        self.push_value(
            Tensor::from_vec(1, 1, vec![loss]),
            Op::L1Loss(pred, Arc::new(target)),
        )
    }

    /// Softmax cross-entropy over rows of `logits` against integer class
    /// labels (scalar mean output).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or a label is out of range.
    pub fn cross_entropy(&mut self, logits: Var, labels: Arc<Vec<usize>>) -> Var {
        assert_eq!(
            labels.len(),
            self.dims(logits).0,
            "one label per row required"
        );
        let x = self.value(logits);
        let mut loss = 0.0f32;
        for i in 0..x.rows() {
            let row = x.row(i);
            assert!(labels[i] < x.cols(), "label {} out of range", labels[i]);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let logsum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
            loss += logsum - row[labels[i]];
        }
        loss /= x.rows().max(1) as f32;
        self.push_value(
            Tensor::from_vec(1, 1, vec![loss]),
            Op::CrossEntropy(logits, labels),
        )
    }

    /// Folds one contribution into the gradient of `v` — with
    /// [`Tape::accumulate_product`], the only way a gradient comes to exist
    /// or changes during [`Tape::backward`].
    ///
    /// The first contribution to reach `v` becomes its gradient: an owned
    /// buffer is adopted in place, a borrowed one is copied into a pooled
    /// buffer. Every later one is added into it elementwise and, if owned,
    /// released. Adoption stores `0.0 + x`, not `x`: a gradient used to start
    /// as zeros that the first contribution was added to, which turns a
    /// `-0.0` into `+0.0`, and the contract is bit-identity (DESIGN.md §6).
    fn accumulate(&self, grads: &mut [Option<Tensor>], v: Var, contribution: Cow<'_, [f32]>) {
        let (rows, cols) = self.dims(v);
        assert_eq!(
            contribution.len(),
            rows * cols,
            "gradient shape mismatch for a {rows}x{cols} node"
        );
        match &mut grads[v.0] {
            Some(acc) => {
                for (o, &x) in acc.as_mut_slice().iter_mut().zip(contribution.iter()) {
                    *o += x;
                }
                if let Cow::Owned(buf) = contribution {
                    self.pool.release(buf);
                }
            }
            slot => {
                let buf = match contribution {
                    Cow::Owned(mut buf) => {
                        for x in buf.iter_mut() {
                            *x += 0.0;
                        }
                        buf
                    }
                    Cow::Borrowed(src) => {
                        let mut buf = self.pool.acquire_for_overwrite(src.len());
                        for (o, &x) in buf.iter_mut().zip(src) {
                            *o = x + 0.0;
                        }
                        buf
                    }
                };
                *slot = Some(Tensor::from_vec(rows, cols, buf));
            }
        }
    }

    /// [`Tape::accumulate`] for a product a backend GEMM wrote: adopted as
    /// it is, since a GEMM's fold starts at `+0.0` and so never yields the
    /// `-0.0` the `0.0 + x` pass exists to turn into `+0.0`.
    fn accumulate_product(&self, grads: &mut [Option<Tensor>], v: Var, product: Vec<f32>) {
        match &mut grads[v.0] {
            slot @ None => {
                let (rows, cols) = self.dims(v);
                *slot = Some(Tensor::from_vec(rows, cols, product));
            }
            Some(_) => self.accumulate(grads, v, Cow::Owned(product)),
        }
    }

    /// Column sums of the row-major `g` (`cols` wide) into a pooled `1 ×
    /// cols` buffer, folding rows in ascending order — the bias gradient of
    /// `AddRow` and of a `Gemm` with a bias.
    fn col_sums(&self, g: &[f32], cols: usize) -> Vec<f32> {
        let mut sums = self.pool.acquire(cols);
        for row in rows_of(g, cols) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// The backward pass of a norm at its input value `x` through
    /// [`Backend::norm`]: rewrites the upstream gradient `g` into `x`'s and
    /// returns the pooled `[dgamma, dbeta]`.
    fn norm_backward(
        &self,
        kind: NormKind,
        g: &mut [f32],
        x: &Tensor,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> [Vec<f32>; 2] {
        let (rows, cols) = x.shape();
        let mut dgamma = self.pool.acquire(cols);
        let mut dbeta = self.pool.acquire(cols);
        let pass = NormPass::Backward {
            x: x.as_slice(),
            g,
            dgamma: &mut dgamma,
            dbeta: &mut dbeta,
        };
        let (gm, bt) = (self.value(gamma).as_slice(), self.value(beta).as_slice());
        self.backend.norm(kind, pass, gm, bt, rows, cols, eps);
        [dgamma, dbeta]
    }

    /// Backward of the column-wise segment softmax `p`, in place: rewrites
    /// the upstream gradient `g` into `p ⊙ (g − Σ_seg (g ⊙ p))` per column,
    /// the per-segment sums folded in row order.
    fn segment_softmax_backward(
        &self,
        g: &mut [f32],
        p: &Tensor,
        segments: &[usize],
        n_segments: usize,
    ) {
        let c = p.cols();
        let p = p.as_slice();
        let mut dots = self.pool.acquire(n_segments * c);
        for ((g_row, p_row), &s) in rows_of(g, c).zip(rows_of(p, c)).zip(segments) {
            let dot_row = &mut dots[s * c..(s + 1) * c];
            for ((d, &gv), &pv) in dot_row.iter_mut().zip(g_row).zip(p_row) {
                *d += gv * pv;
            }
        }
        for ((g_row, p_row), &s) in rows_of_mut(g, c).zip(rows_of(p, c)).zip(segments) {
            let dot_row = &dots[s * c..(s + 1) * c];
            for ((gv, &pv), &d) in g_row.iter_mut().zip(p_row).zip(dot_row) {
                *gv = pv * (*gv - d);
            }
        }
        self.pool.release(dots);
    }

    /// Backward of `x / (y + eps)` for the upstream gradient `g`: rewrites
    /// `g` in place into the gradient with respect to `x` and returns the
    /// one with respect to `y` in a pooled buffer.
    fn div_eps_backward(&self, g: &mut [f32], x: &[f32], y: &[f32], eps: f32) -> Vec<f32> {
        let mut dy = self.pool.acquire_for_overwrite(g.len());
        for (((o, &gv), &x), &y) in dy.iter_mut().zip(g.iter()).zip(x).zip(y) {
            let y = y + eps;
            *o = -gv * x / (y * y);
        }
        for (gv, &y) in g.iter_mut().zip(y) {
            *gv /= y + eps;
        }
        dy
    }

    /// Backward of `y = x · w` for the upstream gradient `g` (`n × m`):
    /// `dx = g · wᵀ` and `dw = xᵀ · g`, each written by the backend's GEMM
    /// straight into a pooled buffer that [`Tape::accumulate_product`] then
    /// adopts or folds — so an accelerated GEMM speeds the backward pass
    /// too. Both products read `w` and `x` where they lie, as transposed
    /// operands: nothing is copied.
    fn gemm_backward(&self, g: &[f32], x: Var, w: Var, grads: &mut [Option<Tensor>]) {
        let (vx, vw) = (self.value(x), self.value(w));
        let (n, k, m) = (vx.rows(), vx.cols(), vw.cols());
        let (g_op, w_t, x_t) = (
            Operand::RowMajor(g),
            Operand::Transposed(vw.as_slice()),
            Operand::Transposed(vx.as_slice()),
        );
        let mut dx = self.pool.acquire_for_overwrite(n * k);
        self.backend
            .gemm(g_op, w_t, n, m, k, Epilogue::None, &self.par, &mut dx);
        self.accumulate_product(grads, x, dx);
        let mut dw = self.pool.acquire_for_overwrite(k * m);
        self.backend
            .gemm(x_t, g_op, k, n, m, Epilogue::None, &self.par, &mut dw);
        self.accumulate_product(grads, w, dw);
    }

    /// Runs the backward pass from the scalar node `loss`.
    ///
    /// A gradient exists only once something has flowed into it (see
    /// `Tape::accumulate`). Walking the nodes in reverse, each non-leaf
    /// node *takes* its finished gradient out of the table, skips its arm if
    /// nothing or only zeros arrived (so a zero gradient never meets an
    /// `inf` value), and otherwise hands the buffer on — rewritten in place
    /// where an operand's gradient has its shape — or releases it to the
    /// pool. What is left at the end are the leaf gradients.
    ///
    /// Values go as the walk passes them: once a node's arm has run or been
    /// skipped, its value and the buffers its op keeps return to the pool.
    /// An arm reads only its own value and its operands', and every consumer
    /// of a node was recorded after it, so its arm has already run. Leaves
    /// keep their values, and so do `loss` (one scalar, which callers log)
    /// and the nodes recorded after it; reading any other node's value
    /// afterwards panics, and so does a second backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`, or if a value an arm reads is gone
    /// (a second backward pass through the same nodes).
    pub fn backward(&mut self, loss: Var) -> Gradients {
        let _span = mega_obs::span("tape_backward");
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = self.nodes.iter().map(|_| None).collect();
        self.accumulate(&mut grads, loss, Cow::Borrowed(&[1.0]));

        for idx in (0..=loss.0).rev() {
            if matches!(self.nodes[idx].op, Op::Leaf) {
                continue;
            }
            if let Some(g) = grads[idx].take() {
                let g = g.into_data();
                if g.iter().all(|&v| v == 0.0) {
                    self.pool.release(g);
                } else {
                    self.arm(idx, g, &mut grads);
                }
            }
            if idx != loss.0 {
                self.release_node(idx);
            }
        }
        // A leaf the loss does not reach reads as zeros.
        for (slot, node) in grads.iter_mut().zip(&self.nodes) {
            if slot.is_none() && matches!(node.op, Op::Leaf) {
                let (r, c) = node.shape;
                *slot = Some(Tensor::from_vec(r, c, self.pool.acquire(r * c)));
            }
        }
        Gradients {
            grads,
            pool: self.pool.clone(),
        }
    }

    /// The backward arm of the non-leaf node `idx` for its nonzero gradient
    /// `g`: folds the operands' contributions into `grads` and passes `g`
    /// on or releases it.
    fn arm(&self, idx: usize, mut g: Vec<f32>, grads: &mut [Option<Tensor>]) {
        let (node, own) = (&self.nodes[idx], Var(idx));
        match &node.op {
            Op::Leaf => unreachable!("leaves keep their gradient"),
            Op::Gemm { x, w, bias, relu } => {
                // Mask the upstream gradient by the activation: the kept
                // pre-activations are exactly the positive outputs.
                if *relu {
                    keep_where_positive(&mut g, self.value(own).as_slice());
                }
                // dbias = column sums of the gradient, as the unfused
                // AddRow backward folds them; dx = g · wᵀ, dw = xᵀ · g —
                // the plain product's backward on the same `g`, which the
                // unfused chain's intermediate would have adopted
                // unchanged (an adopted gradient holds no `-0.0`).
                if let Some(bias) = bias {
                    let db = self.col_sums(&g, node.shape.1);
                    self.accumulate(grads, *bias, Cow::Owned(db));
                }
                self.gemm_backward(&g, *x, *w, grads);
                self.pool.release(g);
            }
            Op::Add(a, b) => {
                self.accumulate(grads, *a, Cow::Borrowed(&g));
                self.accumulate(grads, *b, Cow::Owned(g));
            }
            Op::Mul(a, b) => {
                let mut db = self.pool.acquire_for_overwrite(g.len());
                for ((o, &gv), &x) in db.iter_mut().zip(&g).zip(self.value(*a).as_slice()) {
                    *o = gv * x;
                }
                for (gv, &y) in g.iter_mut().zip(self.value(*b).as_slice()) {
                    *gv *= y;
                }
                self.accumulate(grads, *a, Cow::Owned(g));
                self.accumulate(grads, *b, Cow::Owned(db));
            }
            Op::AddRow(a, bias) => {
                let db = self.col_sums(&g, node.shape.1);
                self.accumulate(grads, *a, Cow::Owned(g));
                self.accumulate(grads, *bias, Cow::Owned(db));
            }
            Op::Scale(a, k) => {
                for v in g.iter_mut() {
                    *v *= *k;
                }
                self.accumulate(grads, *a, Cow::Owned(g));
            }
            Op::Unary(a, unary) => {
                match unary {
                    Unary::Relu => keep_where_positive(&mut g, self.value(*a).as_slice()),
                    Unary::LeakyRelu(slope) => {
                        for (gv, &x) in g.iter_mut().zip(self.value(*a).as_slice()) {
                            *gv = if x > 0.0 { *gv } else { *gv * slope };
                        }
                    }
                    Unary::Sigmoid => {
                        for (gv, &s) in g.iter_mut().zip(self.value(own).as_slice()) {
                            *gv = *gv * s * (1.0 - s);
                        }
                    }
                }
                self.accumulate(grads, *a, Cow::Owned(g));
            }
            Op::Sum { a, mean } => {
                let (r, c) = self.dims(*a);
                let each = match mean {
                    true => g[0] / (r * c).max(1) as f32,
                    false => g[0],
                };
                let mut da = self.pool.acquire_for_overwrite(r * c);
                da.fill(each);
                self.accumulate(grads, *a, Cow::Owned(da));
                self.pool.release(g);
            }
            Op::DivEps(a, b, eps) => {
                let (va, vb) = (self.value(*a).as_slice(), self.value(*b).as_slice());
                let db = self.div_eps_backward(&mut g, va, vb, *eps);
                self.accumulate(grads, *a, Cow::Owned(g));
                self.accumulate(grads, *b, Cow::Owned(db));
            }
            Op::RowBlockSums(a) => {
                let (r, c) = self.dims(*a);
                let blocks = node.shape.1;
                let mut da = self.pool.acquire_for_overwrite(r * c);
                for (run, &gv) in rows_of_mut(&mut da, c / blocks).zip(&g) {
                    run.fill(gv);
                }
                self.accumulate(grads, *a, Cow::Owned(da));
                self.pool.release(g);
            }
            Op::MulColBroadcast(a, w) => {
                let (va, vw) = (self.value(*a), self.value(*w));
                let (c, k) = (va.cols(), vw.cols());
                // Zeroed: a zero-width `a` has no runs to fold.
                let mut dw = self.pool.acquire(vw.as_slice().len());
                let runs = rows_of_mut(&mut g, c / k).zip(rows_of(va.as_slice(), c / k));
                for ((g_run, a_run), (o, &wv)) in runs.zip(dw.iter_mut().zip(vw.as_slice())) {
                    let mut acc = 0.0f32;
                    for (gv, &x) in g_run.iter_mut().zip(a_run) {
                        acc += *gv * x;
                        *gv *= wv;
                    }
                    *o = acc;
                }
                self.accumulate(grads, *a, Cow::Owned(g));
                self.accumulate(grads, *w, Cow::Owned(dw));
            }
            Op::ConcatCols(parts) => {
                let total = node.shape.1;
                let mut offset = 0usize;
                for &p in parts.iter() {
                    let (r, w) = self.dims(p);
                    let mut dp = self.pool.acquire_for_overwrite(r * w);
                    for (o, g_row) in rows_of_mut(&mut dp, w).zip(rows_of(&g, total)) {
                        o.copy_from_slice(&g_row[offset..offset + w]);
                    }
                    self.accumulate(grads, p, Cow::Owned(dp));
                    offset += w;
                }
                self.pool.release(g);
            }
            Op::GatherRows(a, index) => {
                let (r, c) = self.dims(*a);
                let mut da = self.pool.acquire(r * c);
                kernels::scatter_add_rows(&g, index, c, r, &mut da);
                self.accumulate(grads, *a, Cow::Owned(da));
                self.pool.release(g);
            }
            Op::ScatterAddRows(a, index) => {
                let (r, c) = node.shape;
                let mut da = self.pool.acquire_for_overwrite(index.len() * c);
                kernels::gather_rows(&g, r, c, index, &mut da);
                self.accumulate(grads, *a, Cow::Owned(da));
                self.pool.release(g);
            }
            Op::SegmentSoftmax(a, segments, n_segments) => {
                self.segment_softmax_backward(&mut g, self.value(own), segments, *n_segments);
                self.accumulate(grads, *a, Cow::Owned(g));
            }
            Op::BandEdgeScores {
                q,
                k,
                ee,
                band,
                form,
            } => {
                let (vq, vk) = (self.value(*q), self.value(*k));
                let mut dq = self.pool.acquire(vq.as_slice().len());
                let mut dk = self.pool.acquire(vk.as_slice().len());
                // `g` becomes the gradient with respect to `ee`.
                self.backend.band_edge_scores_grad(
                    band.route(),
                    vq.as_slice(),
                    vk.as_slice(),
                    self.value(*ee).as_slice(),
                    node.shape.1,
                    *form,
                    &mut g,
                    &mut dq,
                    &mut dk,
                );
                self.accumulate(grads, *q, Cow::Owned(dq));
                self.accumulate(grads, *k, Cow::Owned(dk));
                self.accumulate(grads, *ee, Cow::Owned(g));
            }
            Op::BandAttend {
                e_what,
                v,
                band,
                attn,
            } => {
                let ((m, heads), w) = (attn.shape(), self.dims(*e_what).1);
                let d = node.shape.1;
                let v_rows = self.value(*v).as_slice();
                // The weights' gradient, then the softmax's backward on
                // it in place: the scores' gradient.
                let mut d_score = self.pool.acquire_for_overwrite(m * heads);
                self.backend.band_attend_weight_grad(
                    band.route(),
                    &g,
                    v_rows,
                    heads,
                    d,
                    &mut d_score,
                );
                self.segment_softmax_backward(&mut d_score, attn, &band.msg_dst, band.n_nodes);
                let mut dv = self.pool.acquire(v_rows.len());
                self.backend.band_attend(
                    band.route(),
                    &g,
                    attn.as_slice(),
                    heads,
                    d,
                    true,
                    &mut dv,
                );
                self.pool.release(g);
                // A score is the sum of its head's block: its gradient
                // reaches every element of the block.
                let mut de = self.pool.acquire_for_overwrite(m * w);
                for (run, &gv) in rows_of_mut(&mut de, w / heads).zip(&d_score) {
                    run.fill(gv);
                }
                self.pool.release(d_score);
                self.accumulate(grads, *e_what, Cow::Owned(de));
                self.accumulate(grads, *v, Cow::Owned(dv));
            }
            Op::BandGate {
                e_hat,
                v,
                band,
                eps,
                num,
                den,
            } => {
                let (n, d) = node.shape;
                let m = band.message_count();
                let route = band.route();
                let d_den = self.div_eps_backward(&mut g, num.as_slice(), den.as_slice(), *eps);
                let d_num = g;
                // Per message: the gate's gradient `d_den[dst] +
                // d_num[dst] ⊙ v[src]` (`d_den` with the `+ 0.0` of its
                // adoption in the chain), through the recomputed
                // sigmoid.
                let v_rows = self.value(*v).as_slice();
                let mut de = self.pool.acquire_for_overwrite(m * d);
                self.backend
                    .band_attend_weight_grad(route, &d_num, v_rows, d, d, &mut de);
                let mut gates = self.pool.acquire_for_overwrite(m * d);
                let e_rows = self.value(*e_hat).as_slice();
                self.backend.unary(Unary::Sigmoid, e_rows, &mut gates);
                let msg_rows = rows_of_mut(&mut de, d).zip(rows_of(&gates, d));
                for ((de_row, s_row), &dst) in msg_rows.zip(band.msg_dst.iter()) {
                    let dd_row = &d_den[dst * d..(dst + 1) * d];
                    for ((o, &s), &dd) in de_row.iter_mut().zip(s_row).zip(dd_row) {
                        *o = ((dd + 0.0) + *o) * s * (1.0 - s);
                    }
                }
                let mut dv = self.pool.acquire(n * d);
                self.backend
                    .band_attend(route, &d_num, &gates, d, d, true, &mut dv);
                for buf in [d_den, d_num, gates] {
                    self.pool.release(buf);
                }
                self.accumulate(grads, *e_hat, Cow::Owned(de));
                self.accumulate(grads, *v, Cow::Owned(dv));
            }
            Op::LayerNorm(a, gamma, beta, eps) => {
                let x = self.value(*a);
                let [dgamma, dbeta] =
                    self.norm_backward(NormKind::Layer, &mut g, x, *gamma, *beta, *eps);
                self.accumulate(grads, *a, Cow::Owned(g));
                self.accumulate(grads, *gamma, Cow::Owned(dgamma));
                self.accumulate(grads, *beta, Cow::Owned(dbeta));
            }
            Op::AddLayerNorm {
                h,
                r,
                gamma,
                beta,
                eps,
                sum,
            } => {
                // The layer norm's arm, whose input's gradient the sum adopts
                // (`0.0 + x`, as `accumulate` adopts an owned buffer), then the
                // add's arm on it: `h` first, then `r`.
                let [dgamma, dbeta] =
                    self.norm_backward(NormKind::Layer, &mut g, sum, *gamma, *beta, *eps);
                for x in g.iter_mut() {
                    *x += 0.0;
                }
                self.accumulate(grads, *gamma, Cow::Owned(dgamma));
                self.accumulate(grads, *beta, Cow::Owned(dbeta));
                if g.iter().all(|&v| v == 0.0) {
                    self.pool.release(g);
                } else {
                    self.accumulate(grads, *h, Cow::Borrowed(&g));
                    self.accumulate(grads, *r, Cow::Owned(g));
                }
            }
            Op::BatchNorm(a, gamma, beta, eps, relu) => {
                // For the fused variant, first mask the upstream gradient
                // exactly as the unfused relu backward would (output sign ==
                // norm-output sign: relu preserves it).
                if *relu {
                    keep_where_positive(&mut g, self.value(own).as_slice());
                }
                let x = self.value(*a);
                let [dgamma, dbeta] =
                    self.norm_backward(NormKind::Batch, &mut g, x, *gamma, *beta, *eps);
                self.accumulate(grads, *a, Cow::Owned(g));
                self.accumulate(grads, *gamma, Cow::Owned(dgamma));
                self.accumulate(grads, *beta, Cow::Owned(dbeta));
            }
            Op::L1Loss(pred, target) => {
                let p = self.value(*pred).as_slice();
                let scale = g[0] / p.len().max(1) as f32;
                let mut dp = self.pool.acquire_for_overwrite(p.len());
                for ((o, &a), &b) in dp.iter_mut().zip(p).zip(target.as_slice()) {
                    *o = if a > b {
                        scale
                    } else if a < b {
                        -scale
                    } else {
                        0.0
                    };
                }
                self.accumulate(grads, *pred, Cow::Owned(dp));
                self.pool.release(g);
            }
            Op::CrossEntropy(logits, labels) => {
                let x = self.value(*logits);
                let (r, c) = x.shape();
                let scale = g[0] / r.max(1) as f32;
                let mut dx = self.pool.acquire_for_overwrite(r * c);
                let rows = rows_of_mut(&mut dx, c).zip(rows_of(x.as_slice(), c));
                for ((dx_row, row), &label) in rows.zip(labels.iter()) {
                    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
                    for (j, (o, &logit)) in dx_row.iter_mut().zip(row).enumerate() {
                        let p = (logit - max).exp() / sum;
                        let y = if label == j { 1.0 } else { 0.0 };
                        *o = scale * (p - y);
                    }
                }
                self.accumulate(grads, *logits, Cow::Owned(dx));
                self.pool.release(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_exec::ReferenceBackend;

    /// Central finite-difference gradient check of a scalar function of one
    /// leaf tensor.
    fn check_grad<F>(input: Tensor, f: F, tol: f32)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = f(&mut tape, x);
        let analytic = tape.backward(loss).wrt(x).clone();

        let h = 1e-3f32;
        for i in 0..input.as_slice().len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += h;
            let mut tp = Tape::new();
            let xp = tp.leaf(plus);
            let lp = f(&mut tp, xp);
            let fp = tp.value(lp).at(0, 0);

            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= h;
            let mut tm = Tape::new();
            let xm = tm.leaf(minus);
            let lm = f(&mut tm, xm);
            let fm = tm.value(lm).at(0, 0);

            let numeric = (fp - fm) / (2.0 * h);
            let got = analytic.as_slice()[i];
            assert!(
                (numeric - got).abs() < tol,
                "element {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    fn sample(rows: usize, cols: usize, seed: u32) -> Tensor {
        // Deterministic pseudo-random values in (-1, 1), away from relu kinks.
        let mut v = Vec::with_capacity(rows * cols);
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        for _ in 0..rows * cols {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let x = ((state >> 8) as f32 / (1u32 << 24) as f32) * 1.6 - 0.8;
            v.push(if x.abs() < 0.05 { x + 0.1 } else { x });
        }
        Tensor::from_vec(rows, cols, v)
    }

    #[test]
    fn grad_matmul() {
        check_grad(
            sample(3, 4, 1),
            |t, x| {
                let w = t.leaf(sample(4, 2, 2));
                let y = t.matmul(x, w);
                t.sum(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_linear_relu() {
        check_grad(
            sample(3, 4, 28),
            |t, x| {
                let w = t.leaf(sample(4, 2, 29));
                let b = t.leaf(sample(1, 2, 31));
                let y = t.linear_relu(x, w, b);
                t.sum(y)
            },
            2e-2,
        );
        // Weight and bias gradients via the weight as the probed leaf.
        check_grad(
            sample(4, 2, 32),
            |t, w| {
                let x = t.leaf(sample(3, 4, 33));
                let b = t.leaf(sample(1, 2, 34));
                let y = t.linear_relu(x, w, b);
                t.sum(y)
            },
            2e-2,
        );
    }

    #[test]
    fn linear_matches_unfused_chain() {
        let x = sample(5, 7, 40);
        let w = sample(7, 3, 41);
        let b = sample(1, 3, 42);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (backend, relu) in [
            ("reference", false),
            ("reference", true),
            ("simd", false),
            ("simd", true),
        ] {
            let tape = || {
                Tape::with_exec(
                    mega_exec::backend_by_name(backend).expect("known backend"),
                    Arc::new(BufferPool::new()),
                )
            };
            let mut fused = tape();
            let (fx, fw, fb) = (
                fused.leaf(x.clone()),
                fused.leaf(w.clone()),
                fused.leaf(b.clone()),
            );
            let fy = match relu {
                false => fused.linear(fx, fw, fb),
                true => fused.linear_relu(fx, fw, fb),
            };
            let fsq = fused.mul(fy, fy);
            let floss = fused.sum(fsq);
            // Values go as the backward pass walks: read them first.
            let fy_bits = bits(fused.value(fy));
            let fg = fused.backward(floss);

            let mut unfused = tape();
            let (ux, uw, ub) = (
                unfused.leaf(x.clone()),
                unfused.leaf(w.clone()),
                unfused.leaf(b.clone()),
            );
            let um = unfused.matmul(ux, uw);
            let ua = unfused.add_row(um, ub);
            let uy = if relu { unfused.relu(ua) } else { ua };
            let usq = unfused.mul(uy, uy);
            let uloss = unfused.sum(usq);
            let uy_bits = bits(unfused.value(uy));
            let ug = unfused.backward(uloss);

            let case = format!("{backend} relu={relu}");
            assert_eq!(fy_bits, uy_bits, "{case}");
            for (v_f, v_u) in [(fx, ux), (fw, uw), (fb, ub)] {
                assert_eq!(bits(fg.wrt(v_f)), bits(ug.wrt(v_u)), "{case}");
            }
        }
    }

    #[test]
    fn batch_norm_relu_matches_unfused_chain() {
        let x = sample(6, 5, 43);
        let gamma = sample(1, 5, 44);
        let beta = sample(1, 5, 45);
        for backend in ["reference", "simd"] {
            let tape = || {
                Tape::with_exec(
                    mega_exec::backend_by_name(backend).expect("known backend"),
                    Arc::new(BufferPool::new()),
                )
            };
            let mut fused = tape();
            let (fx, fg, fb) = (
                fused.leaf(x.clone()),
                fused.leaf(gamma.clone()),
                fused.leaf(beta.clone()),
            );
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let fy = fused.batch_norm_relu(fx, fg, fb, 1e-5);
            let floss = fused.sum(fy);
            // Values go as the backward pass walks: read them first.
            let fy_bits = bits(fused.value(fy));
            let fgrads = fused.backward(floss);

            let mut unfused = tape();
            let (ux, ug, ub) = (
                unfused.leaf(x.clone()),
                unfused.leaf(gamma.clone()),
                unfused.leaf(beta.clone()),
            );
            let un = unfused.batch_norm(ux, ug, ub, 1e-5);
            let uy = unfused.relu(un);
            let uloss = unfused.sum(uy);
            let uy_bits = bits(unfused.value(uy));
            let ugrads = unfused.backward(uloss);

            assert_eq!(fy_bits, uy_bits, "{backend}");
            for (v_f, v_u) in [(fx, ux), (fg, ug), (fb, ub)] {
                assert_eq!(bits(fgrads.wrt(v_f)), bits(ugrads.wrt(v_u)), "{backend}");
            }
        }
    }

    /// FNV-1a over the little-endian bit patterns of `tensors`, in order.
    fn fingerprint(tensors: &[&Tensor]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in tensors {
            for v in t.as_slice() {
                for b in v.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn backward_bits_are_pinned() {
        let cases = ["reference", "simd"].map(|b| [(b, false), (b, true)]);
        for (backend, fused) in cases.into_iter().flatten() {
            let mut t = Tape::with_exec(
                mega_exec::backend_by_name(backend).expect("known backend"),
                Arc::new(BufferPool::new()),
            );
            let x = t.leaf(sample(6, 4, 60));
            let w1 = t.leaf(sample(4, 4, 61));
            let b1 = t.leaf(sample(1, 4, 62));
            let w2 = t.leaf(sample(4, 4, 63));
            let b2 = t.leaf(sample(1, 4, 64));
            let gamma = t.leaf(sample(1, 4, 65));
            let beta = t.leaf(sample(1, 4, 66));
            let bn_gamma = t.leaf(sample(1, 8, 67));
            let bn_beta = t.leaf(sample(1, 8, 68));
            let wo = t.leaf(sample(8, 1, 69));
            // `h` feeds four consumers, so its gradient is touched repeatedly.
            // One `linear` node or the chain it replaced: the same bits.
            let h = if fused {
                t.linear(x, w1, b1)
            } else {
                let xw = t.matmul(x, w1);
                t.add_row(xw, b1)
            };
            let r = t.linear_relu(h, w2, b2);
            let m = t.mul(h, r);
            let s = t.scale(m, -0.5);
            let src = t.gather_rows(s, Arc::new(vec![0, 2, 2, 5, 1, 3, 4, 0]));
            let dst = t.gather_rows(h, Arc::new(vec![1, 1, 3, 0, 5, 4, 2, 2]));
            let prod = t.mul(src, dst);
            let score = t.row_block_sums(prod, 1);
            let weighted = t.mul_col_broadcast(src, score);
            let agg = t.scatter_add_rows(weighted, Arc::new(vec![1, 1, 3, 0, 5, 4, 2, 2]), 6);
            let ln = t.layer_norm(agg, gamma, beta, 1e-5);
            let cat = t.concat_cols(&[ln, h]);
            let bn = t.batch_norm_relu(cat, bn_gamma, bn_beta, 1e-5);
            let pred = t.matmul(bn, wo);
            let loss = t.l1_loss(pred, sample(6, 1, 70));
            let g = t.backward(loss);
            let leaves = [x, w1, b1, w2, b2, gamma, beta, bn_gamma, bn_beta, wo];
            let grads: Vec<&Tensor> = leaves.iter().map(|&v| g.wrt(v)).collect();
            assert!(grads.iter().all(|t| t.norm() > 0.0), "{backend}: dead leaf");
            assert_eq!(
                fingerprint(&grads),
                0x71c3_0e1d_4bf8_1182,
                "{backend} fused={fused}: {:#018x}",
                fingerprint(&grads)
            );
        }
    }

    #[test]
    fn first_touch_adopts_with_plus_zero_bits() {
        // The Scale arm hands `x` the contribution [0.0, 2.0] * -1.0 =
        // [-0.0, -2.0]; added to the zeros a gradient used to start as, the
        // first entry is +0.0, and adoption must keep that.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, 1.0]));
        let m = tape.leaf(Tensor::from_vec(1, 2, vec![0.0, 2.0]));
        let neg = tape.scale(x, -1.0);
        let y = tape.mul(neg, m);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        let bits: Vec<u32> = grads
            .wrt(x)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, [0.0f32.to_bits(), (-2.0f32).to_bits()]);

        // Helper level: adopt-then-add is zeros-then-add, bit for bit, with
        // signed zeros and subnormals among the operands, whether the first
        // contribution is owned or borrowed.
        let special = [0.0f32, -0.0, 1e-41, -1e-41, f32::MIN_POSITIVE, 1.0, -1.0];
        let mut state = 0x2545_f491u32;
        let mut draw = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            match (state >> 8) % 10 {
                k @ 0..=6 => special[k as usize],
                _ => (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0,
            }
        };
        for round in 0..200 {
            let first: Vec<f32> = (0..16).map(|_| draw()).collect();
            let second: Vec<f32> = (0..16).map(|_| draw()).collect();
            let mut tape = Tape::new();
            let v = tape.leaf(Tensor::zeros(2, 8));
            let mut grads = vec![None];
            if round % 2 == 0 {
                tape.accumulate(&mut grads, v, Cow::Owned(first.clone()));
            } else {
                tape.accumulate(&mut grads, v, Cow::Borrowed(&first));
            }
            tape.accumulate(&mut grads, v, Cow::Borrowed(&second));
            let got = grads[0].take().expect("adopted");
            for ((&g, &a), &b) in got.as_slice().iter().zip(&first).zip(&second) {
                let mut want = 0.0f32;
                want += a;
                want += b;
                assert_eq!(g.to_bits(), want.to_bits(), "0.0 + {a:e} + {b:e}");
            }
        }
    }

    /// The batch norm backward as it was before it swept row-major: one
    /// column at a time down the rows, stride `c`, `xhat` and `dxhat` staged
    /// per column. The oracle of
    /// `batch_norm_backward_bit_identical_to_column_walk`.
    fn batch_norm_backward_by_column(
        g: &mut [f32],
        x: &Tensor,
        gm: &[f32],
        eps: f32,
    ) -> [Vec<f32>; 2] {
        let (r, c) = x.shape();
        let x = x.as_slice();
        let rn = r.max(1) as f32;
        let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
        let (mut xhat, mut dxhat) = (vec![0.0f32; r], vec![0.0f32; r]);
        // Without rows there is nothing to fold and `x[j..]` has no start.
        for j in 0..if r == 0 { 0 } else { c } {
            let col = || x[j..].iter().step_by(c);
            let mut mean = 0.0f32;
            for &v in col() {
                mean += v;
            }
            mean /= rn;
            let mut var = 0.0f32;
            for &v in col() {
                var += (v - mean).powi(2);
            }
            var /= rn;
            let inv = 1.0 / (var + eps).sqrt();
            for (h, &v) in xhat.iter_mut().zip(col()) {
                *h = (v - mean) * inv;
            }
            for (d, &gv) in dxhat.iter_mut().zip(g[j..].iter().step_by(c)) {
                *d = gv * gm[j];
            }
            let mean_dxhat = dxhat.iter().sum::<f32>() / rn;
            let mean_dxhat_xhat = dxhat.iter().zip(&xhat).map(|(&d, &h)| d * h).sum::<f32>() / rn;
            let (mut dg, mut db) = (0.0f32, 0.0f32);
            let hats = xhat.iter().zip(&dxhat);
            for (gv, (&h, &d)) in g[j..].iter_mut().step_by(c).zip(hats) {
                dg += *gv * h;
                db += *gv;
                *gv = inv * (d - mean_dxhat - h * mean_dxhat_xhat);
            }
            dgamma[j] = dg;
            dbeta[j] = db;
        }
        [dgamma, dbeta]
    }

    #[test]
    fn batch_norm_backward_bit_identical_to_column_walk() {
        // Signed zeros, subnormals and magnitudes far enough apart to round,
        // so a fold that started from another value or ran in another order
        // shows; shapes down to no rows, one row, no columns, one column.
        let special = [0.0f32, -0.0, 1e-41, -1e-41, f32::MIN_POSITIVE, 1e4, -1e4];
        let mut state = 0x9e37_79b9u32;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state >> 8
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for round in 0..300 {
            let (r, c) = match round % 5 {
                0 => (0, 1 + next() as usize % 4),
                1 => (1, 1 + next() as usize % 9),
                2 => (1 + next() as usize % 9, 1),
                3 => (next() as usize % 4, 0),
                _ => (2 + next() as usize % 10, 2 + next() as usize % 18),
            };
            let mut draw = |n: usize| -> Vec<f32> {
                (0..n)
                    .map(|_| match next() % 10 {
                        k @ 0..=6 if round % 2 == 0 => special[k as usize],
                        _ => next() as f32 / (1u32 << 23) as f32 - 1.0,
                    })
                    .collect()
            };
            let x = Tensor::from_vec(r, c, draw(r * c));
            let gamma = draw(c);
            let g = draw(r * c);
            let (mut want_dx, mut got_dx) = (g.clone(), g);
            let want = batch_norm_backward_by_column(&mut want_dx, &x, &gamma, 1e-5);
            let mut got = [vec![0.0f32; c], vec![0.0f32; c]];
            let [dgamma, dbeta] = &mut got;
            kernels::batch_norm_backward(
                x.as_slice(),
                &mut got_dx,
                &gamma,
                r,
                c,
                1e-5,
                dgamma,
                dbeta,
            );
            assert_eq!(bits(&got_dx), bits(&want_dx), "dx of a {r}x{c}");
            assert_eq!(bits(&got[0]), bits(&want[0]), "dgamma of a {r}x{c}");
            assert_eq!(bits(&got[1]), bits(&want[1]), "dbeta of a {r}x{c}");
        }
    }

    #[test]
    fn unreached_leaf_gradient_is_zeros() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 2, 1.0));
        let before = tape.leaf(Tensor::full(3, 2, 5.0));
        // Recorded and consumed, but by a branch the loss never sees.
        let _dead_end = tape.scale(before, 2.0);
        let unused = tape.leaf(Tensor::full(3, 1, 5.0));
        let loss = tape.sum(x);
        let after = tape.leaf(Tensor::full(1, 4, -7.0));
        let grads = tape.backward(loss);
        for (leaf, shape) in [(before, (3, 2)), (unused, (3, 1)), (after, (1, 4))] {
            let g = grads.wrt(leaf);
            assert_eq!(g.shape(), shape);
            assert!(g.as_slice().iter().all(|v| v.to_bits() == 0));
        }
        assert_eq!(grads.wrt(x).as_slice(), &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "only leaf gradients survive")]
    fn gradient_of_an_op_output_is_not_kept() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(1, 2, 1.0));
        let y = tape.scale(x, 2.0);
        let loss = tape.sum(y);
        let _ = tape.backward(loss).wrt(y);
    }

    #[test]
    #[should_panic(expected = "node #2 (scale) has no value")]
    fn backward_releases_values_as_it_walks() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 2, 1.0));
        let unused = tape.leaf(Tensor::full(1, 2, 3.0));
        let y = tape.scale(x, 2.0);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.wrt(x).as_slice(), &[2.0; 4]);
        // Leaves and the loss keep their values.
        assert_eq!(tape.value(x).as_slice(), &[1.0; 4]);
        assert_eq!(tape.value(unused).as_slice(), &[3.0; 2]);
        assert_eq!(tape.value(loss).at(0, 0), 8.0);
        let _ = tape.value(y);
    }

    /// A residual, its layer norm's parameters, and `r = 2 · x`: an op
    /// output whose backward reads only its shape.
    fn residual_operands(tape: &mut Tape) -> [Var; 4] {
        let h = tape.leaf(sample(3, 4, 71));
        let x = tape.leaf(sample(3, 4, 72));
        let gamma = tape.leaf(sample(1, 4, 73));
        let beta = tape.leaf(sample(1, 4, 74));
        [h, tape.scale(x, 2.0), gamma, beta]
    }

    #[test]
    #[should_panic(expected = "node #4 (scale) has no value")]
    fn a_donated_operand_takes_no_second_consumer() {
        let mut tape = Tape::new();
        let [h, r, gamma, beta] = residual_operands(&mut tape);
        tape.add_layer_norm(h, r, gamma, beta, 1e-5);
        tape.relu(r);
    }

    #[test]
    #[should_panic(expected = "node #4 (scale) cannot be donated: node #5 (relu) already reads it")]
    fn an_operand_with_a_consumer_is_not_donated() {
        let mut tape = Tape::new();
        let [h, r, gamma, beta] = residual_operands(&mut tape);
        tape.relu(r);
        tape.add_layer_norm(h, r, gamma, beta, 1e-5);
    }

    #[test]
    #[should_panic(expected = "(linear_relu) cannot be donated")]
    fn an_output_its_backward_reads_is_not_donated() {
        let mut tape = Tape::new();
        let [h, _, gamma, beta] = residual_operands(&mut tape);
        let w = tape.leaf(sample(4, 4, 75));
        let b = tape.leaf(sample(1, 4, 76));
        let r = tape.linear_relu(h, w, b);
        tape.add_layer_norm(h, r, gamma, beta, 1e-5);
    }

    #[test]
    fn zero_upstream_gradient_is_skipped() {
        // m = x * inf sits behind relu(-m) = 0, whose backward sends m's
        // consumer an all-zero gradient. Running the arms below it anyway
        // would fold 0 * inf = NaN into x.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let w = tape.leaf(Tensor::full(1, 2, f32::INFINITY));
        let m = tape.mul(x, w);
        let neg = tape.scale(m, -1.0);
        let r = tape.relu(neg);
        let y = tape.add(r, x);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.wrt(x).as_slice(), &[1.0, 1.0]);
        assert_eq!(grads.wrt(w).as_slice(), &[0.0, 0.0]);
    }

    /// A band over six path positions carrying five nodes — node 1 at two
    /// positions, node 4 at none, so it receives no message — with six
    /// slots, twelve messages.
    fn tiny_band() -> Arc<Band> {
        let node_of = vec![0, 1, 2, 1, 3, 0];
        let pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)];
        let slots: Vec<BandSlot> = (pairs.iter().enumerate())
            .map(|(edge, &(lo, hi))| BandSlot { lo, hi, edge })
            .collect();
        let msg_dst = slots
            .iter()
            .flat_map(|s| [node_of[s.hi], node_of[s.lo]])
            .collect();
        Arc::new(Band {
            slots: Arc::new(slots),
            node_of: Arc::new(node_of),
            msg_dst: Arc::new(msg_dst),
            n_nodes: 5,
        })
    }

    #[test]
    fn backward_returns_every_buffer_to_the_pool() {
        // Leaf values are not the pool's; oversized, the dropped tape files
        // them where no request here looks, so they cannot stand in for a
        // gradient buffer that went missing. The pool parks up to twice the
        // bytes it once had checked out at the same time: buffers taken and
        // never returned raise that budget past everything the steps
        // release, so a miss in the second step can only be a buffer the
        // first one kept.
        let pool = Arc::new(BufferPool::new());
        let budget: Vec<Vec<f32>> = (0..64).map(|_| pool.acquire(1 << 12)).collect();
        drop(budget);
        let leaf = |t: &mut Tape, rows: usize, cols: usize, seed: u32| {
            let mut data = Vec::with_capacity(1 << 12);
            data.extend_from_slice(sample(rows, cols, seed).as_slice());
            t.leaf(Tensor::from_vec(rows, cols, data))
        };
        let step = || {
            let mut t = Tape::with_exec(Arc::new(ReferenceBackend), pool.clone());
            let x = leaf(&mut t, 8, 8, 80);
            let w = leaf(&mut t, 8, 8, 81);
            let b = leaf(&mut t, 1, 8, 82);
            let gamma = leaf(&mut t, 1, 8, 83);
            let beta = leaf(&mut t, 1, 8, 84);
            let unreached = leaf(&mut t, 4, 4, 85);
            let xw = t.matmul(x, w);
            let h = t.add_row(xw, b);
            let r = t.linear_relu(h, w, b);
            let m = t.mul(h, r);
            let dh = t.mul(m, h);
            let score = t.row_block_sums(dh, 1);
            let att = t.segment_softmax(score, Arc::new(vec![0, 0, 1, 1, 1, 2, 3, 3]), 4);
            let weighted = t.mul_col_broadcast(m, att);
            let idx = Arc::new(vec![7usize, 0, 3, 3, 1, 6, 2, 5]);
            let moved = t.gather_rows(weighted, idx.clone());
            let agg = t.scatter_add_rows(moved, idx, 8);
            let ln = t.layer_norm(agg, gamma, beta, 1e-5);
            let bn = t.batch_norm_relu(ln, gamma, beta, 1e-5);
            let cat = t.concat_cols(&[bn, h]);
            let act = t.sigmoid(cat);
            // The band ops, with the tensors they keep for backward: the
            // attention weights and the gate's numerator and denominator.
            let band = tiny_band();
            let (n, m) = (band.n_nodes, band.message_count());
            let (nodes, msgs) = (leaf(&mut t, n, 8, 86), leaf(&mut t, m, 8, 87));
            let sum = t.band_edge_sum(nodes, nodes, msgs, &band);
            let gated = t.band_gate(sum, nodes, &band, 1e-6);
            let what = t.band_edge_scores(gated, nodes, sum, &band, 0.5);
            let attended = t.band_attend(what, gated, &band, 2);
            let band_out = t.mean(attended);
            let mean = t.mean(act);
            let loss = t.add(mean, band_out);
            let grads = t.backward(loss);
            assert!(grads.wrt(w).norm() > 0.0);
            assert!(grads.wrt(nodes).norm() > 0.0 && grads.wrt(msgs).norm() > 0.0);
            assert_eq!(grads.wrt(unreached).norm(), 0.0);
        };
        step();
        let warm = pool.misses();
        step();
        assert_eq!(
            pool.misses(),
            warm,
            "a buffer acquired by the first step never came back"
        );
    }

    #[test]
    fn shared_pool_recycles_node_buffers() {
        let pool = Arc::new(BufferPool::new());
        for _ in 0..3 {
            let mut tape = Tape::with_exec(Arc::new(ReferenceBackend), pool.clone());
            let a = tape.leaf(sample(8, 8, 50));
            let b = tape.leaf(sample(8, 8, 51));
            let c = tape.matmul(a, b);
            let loss = tape.sum(c);
            let _ = tape.backward(loss);
        }
        // Later tapes must have drawn buffers recycled from earlier drops.
        assert!(pool.hits() > 0, "pool never recycled a buffer");
    }

    #[test]
    fn grad_elementwise_chain() {
        check_grad(
            sample(2, 3, 3),
            |t, x| {
                let y = t.mul(x, x);
                let z = t.scale(y, 0.5);
                t.mean(z)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_activations() {
        type Act = fn(&mut Tape, Var) -> Var;
        let acts: [(u32, Act); 3] = [
            (4, |t, x| t.sigmoid(x)),
            (6, |t, x| t.relu(x)),
            (27, |t, x| t.leaky_relu(x, 0.2)),
        ];
        for (seed, act) in acts {
            check_grad(
                sample(2, 3, seed),
                |t, x| {
                    let y = act(t, x);
                    t.sum(y)
                },
                1e-2,
            );
        }
    }

    #[test]
    fn grad_add_row_bias() {
        check_grad(
            sample(1, 3, 7),
            |t, bias| {
                let a = t.leaf(sample(4, 3, 8));
                let y = t.add_row(a, bias);
                let z = t.mul(y, y);
                t.sum(z)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_div_eps() {
        check_grad(
            sample(2, 2, 9),
            |t, x| {
                let d = t.leaf(Tensor::full(2, 2, 2.0));
                let y = t.div_eps(x, d, 1e-3);
                t.sum(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_row_dot_and_broadcast() {
        check_grad(
            sample(3, 4, 10),
            |t, x| {
                let other = t.leaf(sample(3, 4, 11));
                let xo = t.mul(x, other);
                let w = t.row_block_sums(xo, 1);
                let y = t.mul_col_broadcast(other, w);
                t.sum(y)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_row_block_sums_and_block_broadcast() {
        check_grad(
            sample(3, 6, 90),
            |t, x| {
                let s = t.row_block_sums(x, 3);
                let w = t.leaf(sample(3, 3, 91));
                let y = t.mul(s, w);
                t.sum(y)
            },
            2e-2,
        );
        // `mul_col_broadcast` with one weight per block of two columns:
        // through the values, then through the weights.
        check_grad(
            sample(3, 6, 92),
            |t, x| {
                let w = t.leaf(sample(3, 3, 93));
                let y = t.mul_col_broadcast(x, w);
                let sq = t.mul(y, y);
                t.sum(sq)
            },
            2e-2,
        );
        check_grad(
            sample(3, 3, 94),
            |t, w| {
                let x = t.leaf(sample(3, 6, 95));
                let y = t.mul_col_broadcast(x, w);
                let sq = t.mul(y, y);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    #[should_panic(expected = "w.cols() = 4 must divide a.cols() = 6")]
    fn mul_col_broadcast_weights_must_divide_the_width() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(2, 6));
        let w = tape.leaf(Tensor::zeros(2, 4));
        tape.mul_col_broadcast(a, w);
    }

    #[test]
    fn grad_gather_scatter() {
        let idx = Arc::new(vec![0usize, 2, 2, 1]);
        check_grad(
            sample(3, 2, 12),
            move |t, x| {
                let g = t.gather_rows(x, idx.clone());
                let sq = t.mul(g, g);
                let s = t.scatter_add_rows(sq, Arc::new(vec![0, 0, 1, 1]), 2);
                t.sum(s)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_segment_softmax() {
        let segs = Arc::new(vec![0usize, 0, 1, 1, 1]);
        check_grad(
            sample(5, 2, 13),
            move |t, x| {
                let p = t.segment_softmax(x, segs.clone(), 2);
                let w = t.leaf(sample(5, 2, 14));
                let y = t.mul(p, w);
                t.sum(y)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_band_edge_sum_and_gate() {
        // One node-row input feeds both ends of the sum and the gated
        // values, so every gradient path of both ops meets in `x`.
        let band = tiny_band();
        let m = band.message_count();
        check_grad(
            sample(band.n_nodes, 3, 15),
            move |t, x| {
                let ee = t.leaf(sample(m, 3, 16));
                let e_hat = t.band_edge_sum(x, x, ee, &band);
                let agg = t.band_gate(e_hat, x, &band, 1e-6);
                let (we, wa) = (
                    t.leaf(sample(m, 3, 17)),
                    t.leaf(sample(band.n_nodes, 3, 18)),
                );
                let (le, la) = (t.mul(e_hat, we), t.mul(agg, wa));
                let (se, sa) = (t.sum(le), t.sum(la));
                t.add(se, sa)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        check_grad(
            sample(3, 4, 15),
            |t, x| {
                let gamma = t.leaf(Tensor::full(1, 4, 1.2));
                let beta = t.leaf(Tensor::full(1, 4, 0.1));
                let y = t.layer_norm(x, gamma, beta, 1e-5);
                let w = t.leaf(sample(3, 4, 16));
                let z = t.mul(y, w);
                t.sum(z)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_batch_norm() {
        check_grad(
            sample(4, 3, 17),
            |t, x| {
                let gamma = t.leaf(Tensor::full(1, 3, 0.9));
                let beta = t.leaf(Tensor::full(1, 3, -0.2));
                let y = t.batch_norm(x, gamma, beta, 1e-5);
                let w = t.leaf(sample(4, 3, 18));
                let z = t.mul(y, w);
                t.sum(z)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_batch_norm_relu() {
        check_grad(
            sample(4, 3, 35),
            |t, x| {
                let gamma = t.leaf(Tensor::full(1, 3, 0.9));
                let beta = t.leaf(Tensor::full(1, 3, 0.3));
                let y = t.batch_norm_relu(x, gamma, beta, 1e-5);
                let w = t.leaf(sample(4, 3, 36));
                let z = t.mul(y, w);
                t.sum(z)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_losses() {
        let target = sample(3, 1, 19);
        check_grad(
            sample(3, 1, 20),
            move |t, x| t.l1_loss(x, target.clone()),
            1e-2,
        );
        let labels = Arc::new(vec![0usize, 2, 1]);
        check_grad(
            sample(3, 3, 21),
            move |t, x| t.cross_entropy(x, labels.clone()),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_cols() {
        check_grad(
            sample(2, 2, 22),
            |t, x| {
                let other = t.leaf(sample(2, 3, 23));
                let y = t.concat_cols(&[x, other]);
                let w = t.leaf(sample(2, 5, 24));
                let z = t.mul(y, w);
                t.sum(z)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_accumulates_over_shared_use() {
        // loss = sum(x + x) -> dx = 2.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 2, 1.0));
        let y = tape.add(x, x);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        assert!(grads
            .wrt(x)
            .as_slice()
            .iter()
            .all(|&g| (g - 2.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(2, 2));
        tape.backward(x);
    }

    #[test]
    fn first_nonfinite_names_the_entry_point() {
        let mut tape = Tape::new();
        let healthy = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        assert_eq!(tape.first_nonfinite(), None);
        // Inf enters through a scale; everything downstream is contaminated
        // but the scan must name the first offender in recording order.
        let blown = tape.scale(healthy, f32::INFINITY);
        let _downstream = tape.relu(blown);
        let (idx, kind) = tape.first_nonfinite().expect("inf on tape");
        assert_eq!(idx, 1);
        assert_eq!(kind, "scale");
        // NaN is caught too (inf - inf inside an add of opposing infs).
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 1, vec![f32::NAN]));
        let (idx, kind) = tape.first_nonfinite().expect("nan on tape");
        assert_eq!((idx, kind), (0, "leaf"));
        let _ = x;
        // Every kind a merged op variant records, each where non-finiteness
        // enters behind finite leaves: a kernel that writes NaN, or a sum
        // over `x` that overflows. Operands: `x`, `w` (2 x 2), a `1 x 2` row.
        type Record = fn(&mut Tape, Var, Var, Var) -> Var;
        let table: [(&str, Record); 10] = [
            ("matmul", |t, x, w, _| t.matmul(x, w)),
            ("linear", |t, x, w, row| t.linear(x, w, row)),
            ("linear_relu", |t, x, w, row| t.linear_relu(x, w, row)),
            ("relu", |t, x, _, _| t.relu(x)),
            ("leaky_relu", |t, x, _, _| t.leaky_relu(x, 0.2)),
            ("sigmoid", |t, x, _, _| t.sigmoid(x)),
            ("sum", |t, x, _, _| t.sum(x)),
            ("mean", |t, x, _, _| t.mean(x)),
            ("batch_norm", |t, x, _, row| t.batch_norm(x, row, row, 1e-5)),
            ("batch_norm_act", |t, x, _, row| {
                t.batch_norm_relu(x, row, row, 1e-5)
            }),
        ];
        for (name, record) in table {
            let mut tape = Tape::with_exec(Arc::new(NanKernels), Arc::new(BufferPool::new()));
            let x = tape.leaf(Tensor::from_vec(2, 2, vec![f32::MAX; 4]));
            let w = tape.leaf(Tensor::from_vec(2, 2, vec![1.0; 4]));
            let row = tape.leaf(Tensor::from_vec(1, 2, vec![1.0; 2]));
            record(&mut tape, x, w, row);
            assert_eq!(tape.first_nonfinite(), Some((3, name)));
        }
    }

    /// A backend whose activation and forward-norm kernels write NaN whatever
    /// their inputs: the op that calls one is where non-finiteness enters
    /// the tape.
    #[derive(Debug)]
    struct NanKernels;

    impl Backend for NanKernels {
        fn name(&self) -> &'static str {
            "nan"
        }

        fn unary(&self, _: Unary, _: &[f32], out: &mut [f32]) {
            out.fill(f32::NAN);
        }

        fn norm(
            &self,
            _: NormKind,
            pass: NormPass<'_>,
            _: &[f32],
            _: &[f32],
            _: usize,
            _: usize,
            _: f32,
        ) {
            if let NormPass::Forward { out, .. } = pass {
                out.fill(f32::NAN);
            }
        }
    }

    #[test]
    fn segment_softmax_rows_sum_to_one_per_segment() {
        let mut tape = Tape::new();
        let x = tape.leaf(sample(6, 2, 30));
        let segs = Arc::new(vec![0usize, 1, 0, 1, 2, 2]);
        let p = tape.segment_softmax(x, segs.clone(), 3);
        let v = tape.value(p);
        for seg in 0..3 {
            for col in 0..2 {
                let s: f32 = (0..6)
                    .filter(|&i| segs[i] == seg)
                    .map(|i| v.at(i, col))
                    .sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }
}
