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
//! [`Backend`] (default [`ReferenceBackend`], bit-identical to the
//! pre-backend tape), and output buffers come from a shared [`BufferPool`]
//! so steady-state training recycles allocations instead of making fresh
//! ones per node. Dropped tapes return their node buffers to the pool.
//!
//! The backward pass draws from the same pool and owns every gradient it
//! makes. A node's gradient does not exist until a consumer's arm
//! contributes to it; the first contribution is adopted as the gradient,
//! later ones are added into it. When the walk reaches the node, its arm
//! takes the gradient, passes the buffer on to an operand or releases it,
//! and nothing is kept for it. Only leaf gradients survive, in
//! [`Gradients`], which releases them when dropped (DESIGN.md §6).
//!
//! Every op method runs its kernel before returning, so a [`Var`] always
//! has a value. The fused ops ([`Tape::linear`], [`Tape::linear_relu`],
//! [`Tape::batch_norm_relu`]) are called by the layers that want them and
//! are bit-identical, forward and backward, to the unfused chains they
//! replace. An op whose kernel writes every element of its output takes a
//! buffer that may hold stale values ([`BufferPool::acquire_for_overwrite`]);
//! only accumulators are zeroed.

use crate::tensor::Tensor;
use mega_exec::{
    kernels, Backend, BufferPool, Epilogue, NormKind, Operand, ReferenceBackend, Unary,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    /// `x · w + bias`, then a ReLU when `relu`.
    Linear {
        x: Var,
        w: Var,
        bias: Var,
        relu: bool,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddRow(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    LeakyRelu(Var, f32),
    Dropout(Var, Arc<Vec<bool>>, f32),
    Sigmoid(Var),
    Tanh(Var),
    Sum(Var),
    Mean(Var),
    DivEps(Var, Var, f32),
    RowDot(Var, Var),
    RowBlockSums(Var),
    MulColBroadcast(Var, Var),
    ConcatCols(Arc<Vec<Var>>),
    GatherRows(Var, Arc<Vec<usize>>),
    ScatterAddRows(Var, Arc<Vec<usize>>),
    ScaleRows(Var, Arc<Vec<f32>>),
    SegmentSoftmax(Var, Arc<Vec<usize>>, usize),
    LayerNorm(Var, Var, Var, f32),
    BatchNorm(Var, Var, Var, f32),
    BatchNormRelu(Var, Var, Var, f32),
    L1Loss(Var, Arc<Tensor>),
    CrossEntropy(Var, Arc<Vec<usize>>),
}

impl Op {
    /// Stable metric-name suffix of the op kind, for the
    /// `tensor.tape.op.<kind>` counters.
    fn kind_name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::MatMul(..) => "matmul",
            Op::Linear { relu: false, .. } => "linear",
            Op::Linear { relu: true, .. } => "linear_relu",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::AddRow(..) => "add_row",
            Op::Scale(..) => "scale",
            Op::Relu(..) => "relu",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Dropout(..) => "dropout",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Sum(..) => "sum",
            Op::Mean(..) => "mean",
            Op::DivEps(..) => "div_eps",
            Op::RowDot(..) => "row_dot",
            Op::RowBlockSums(..) => "row_block_sums",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::ConcatCols(..) => "concat_cols",
            Op::GatherRows(..) => "gather_rows",
            Op::ScatterAddRows(..) => "scatter_add_rows",
            Op::ScaleRows(..) => "scale_rows",
            Op::SegmentSoftmax(..) => "segment_softmax",
            Op::LayerNorm(..) => "layer_norm",
            Op::BatchNorm(..) => "batch_norm",
            // Named after the backend's fused-norm profile row.
            Op::BatchNormRelu(..) => "batch_norm_act",
            Op::L1Loss(..) => "l1_loss",
            Op::CrossEntropy(..) => "cross_entropy",
        }
    }
}

/// One tape node: the op that produced it and its value.
struct Node {
    value: Tensor,
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
        for node in self.nodes.drain(..) {
            self.pool.release(node.value.into_data());
        }
    }
}

impl Tape {
    /// A fresh, empty tape on the default [`ReferenceBackend`] with a
    /// private buffer pool.
    pub fn new() -> Self {
        Tape::with_exec(Arc::new(ReferenceBackend), Arc::new(BufferPool::new()))
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

    /// Sets the thread budget used by the tape's heavy kernels (currently the
    /// matrix products of [`Tape::matmul`] and its backward pass).
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
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Output shape of `v`.
    fn dims(&self, v: Var) -> (usize, usize) {
        self.value(v).shape()
    }

    /// The first node (in recording order) whose value holds a NaN or an
    /// infinity, as `(node index, op kind name)` — `None` when every value
    /// on the tape is finite.
    ///
    /// Recording order is evaluation order, so the returned node is where
    /// non-finiteness *entered* the forward pass: everything downstream is
    /// contaminated by it, everything upstream was still healthy. The
    /// trainer's NaN/Inf sentinel uses this to name the offending op in its
    /// diagnostic dump.
    pub fn first_nonfinite(&self) -> Option<(usize, &'static str)> {
        self.nodes.iter().enumerate().find_map(|(i, n)| {
            n.value
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
            let mut name = String::with_capacity(32);
            name.push_str("tensor.tape.op.");
            name.push_str(op.kind_name());
            mega_obs::counter_add(&name, 1);
        }
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Executes a backend-dispatched op into an `rows × cols` value and
    /// records it.
    fn record(&mut self, rows: usize, cols: usize, op: Op) -> Var {
        let value = self.execute(&op, rows, cols);
        self.push_value(value, op)
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
        let ((n, k), (br, m)) = (self.dims(a), self.dims(b));
        assert_eq!(k, br, "matmul: inner dims {n}x{k} · {br}x{m}");
        self.record(n, m, Op::MatMul(a, b))
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
        self.linear_op(x, w, bias, false)
    }

    /// Fused dense layer: `relu(x · w + bias)` in one node, matching the
    /// unfused `matmul` → `add_row` → `relu` chain bit for bit.
    ///
    /// # Panics
    ///
    /// As [`Tape::linear`].
    pub fn linear_relu(&mut self, x: Var, w: Var, bias: Var) -> Var {
        self.linear_op(x, w, bias, true)
    }

    /// Shape-checked recorder of [`Op::Linear`].
    fn linear_op(&mut self, x: Var, w: Var, bias: Var, relu: bool) -> Var {
        let ((n, k), (wr, m), (br, bc)) = (self.dims(x), self.dims(w), self.dims(bias));
        assert_eq!(k, wr, "linear: inner dims {n}x{k} · {wr}x{m}");
        assert_eq!(br, 1, "bias must be a single row");
        assert_eq!(bc, m, "bias width mismatch");
        self.record(n, m, Op::Linear { x, w, bias, relu })
    }

    /// Shape-checked recorder for same-shape elementwise binary ops.
    fn elementwise_op(&mut self, a: Var, b: Var, op: Op) -> Var {
        let (x, y) = (self.dims(a), self.dims(b));
        assert_eq!(
            x,
            y,
            "{}: shape mismatch {:?} vs {:?}",
            op.kind_name(),
            x,
            y
        );
        self.record(x.0, x.1, op)
    }

    /// Elementwise sum of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.elementwise_op(a, b, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.elementwise_op(a, b, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.elementwise_op(a, b, Op::Mul(a, b))
    }

    /// Adds a `1 × c` bias row to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × a.cols()`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let ((r, c), (br, bc)) = (self.dims(a), self.dims(bias));
        assert_eq!(br, 1, "bias must be a single row");
        assert_eq!(bc, c, "bias width mismatch");
        self.record(r, c, Op::AddRow(a, bias))
    }

    /// Multiplies every element by `k`.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let (r, c) = self.dims(a);
        self.record(r, c, Op::Scale(a, k))
    }

    /// Same-shape unary op recorder.
    fn unary_op(&mut self, a: Var, op: Op) -> Var {
        let (r, c) = self.dims(a);
        self.record(r, c, op)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary_op(a, Op::Relu(a))
    }

    /// Leaky rectified linear unit: `x` if positive, else `slope * x`.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.unary_op(a, Op::LeakyRelu(a, slope))
    }

    /// Inverted dropout with a precomputed keep-mask: kept elements are
    /// scaled by `1 / keep_prob`, dropped elements become zero. The caller
    /// supplies the mask so training loops control the randomness.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the element count or
    /// `keep_prob` is not in `(0, 1]`.
    pub fn dropout(&mut self, a: Var, mask: Arc<Vec<bool>>, keep_prob: f32) -> Var {
        let (r, c) = self.dims(a);
        assert_eq!(mask.len(), r * c, "one mask bit per element");
        assert!(
            keep_prob > 0.0 && keep_prob <= 1.0,
            "keep_prob must be in (0, 1]"
        );
        let inv = 1.0 / keep_prob;
        let mut out = self.out_buf(r, c);
        for ((o, &x), &keep) in out
            .iter_mut()
            .zip(self.value(a).as_slice())
            .zip(mask.iter())
        {
            *o = if keep { x * inv } else { 0.0 };
        }
        self.push_value(Tensor::from_vec(r, c, out), Op::Dropout(a, mask, keep_prob))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary_op(a, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary_op(a, Op::Tanh(a))
    }

    /// Sum of all elements (scalar `1 × 1`).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push_value(v, Op::Sum(a))
    }

    /// Mean of all elements (scalar `1 × 1`).
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Tensor::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push_value(v, Op::Mean(a))
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

    /// Row-wise dot product of same-shape tensors: output is `r × 1` with
    /// `out[i] = Σ_c a[i,c]·b[i,c]` (attention scores).
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.dims(a), self.dims(b), "row_dot shape mismatch");
        let (r, c) = self.dims(a);
        // Zeroed: a zero-width `a` has no rows to write.
        let mut out = self.pool.acquire(r);
        let (x, y) = (self.value(a).as_slice(), self.value(b).as_slice());
        for (o, (x_row, y_row)) in out.iter_mut().zip(rows_of(x, c).zip(rows_of(y, c))) {
            *o = x_row.iter().zip(y_row).map(|(&p, &q)| p * q).sum();
        }
        self.push_value(Tensor::from_vec(r, 1, out), Op::RowDot(a, b))
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
        let (_, c) = self.dims(a);
        let rows = index.len();
        self.record(rows, c, Op::GatherRows(a, index))
    }

    /// Scatter-adds rows of `a` into `out_rows` buckets by `index` (e.g.
    /// per-edge messages → destination nodes, or path positions → nodes).
    pub fn scatter_add_rows(&mut self, a: Var, index: Arc<Vec<usize>>, out_rows: usize) -> Var {
        let (_, c) = self.dims(a);
        self.record(out_rows, c, Op::ScatterAddRows(a, index))
    }

    /// Scales row `i` by `factors[i]` (segment means, appearance averaging).
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != a.rows()`.
    pub fn scale_rows(&mut self, a: Var, factors: Arc<Vec<f32>>) -> Var {
        let (r, c) = self.dims(a);
        assert_eq!(factors.len(), r, "one factor per row required");
        self.record(r, c, Op::ScaleRows(a, factors))
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
        self.record(r, c, Op::SegmentSoftmax(a, segments, n_segments))
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
        let (r, c) = self.norm_dims("layer_norm", a, gamma, beta);
        self.record(r, c, Op::LayerNorm(a, gamma, beta, eps))
    }

    /// Column-wise batch normalization (statistics over rows) with learnable
    /// `gamma`, `beta` (each `1 × c`). Training-mode statistics only.
    pub fn batch_norm(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (r, c) = self.norm_dims("batch_norm", a, gamma, beta);
        self.record(r, c, Op::BatchNorm(a, gamma, beta, eps))
    }

    /// Fused `relu(batch_norm(a, gamma, beta, eps))` in one node.
    ///
    /// Forward and backward match the unfused `batch_norm` → `relu` chain
    /// bit for bit while saving the intermediate tensor and one memory
    /// sweep.
    pub fn batch_norm_relu(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (r, c) = self.norm_dims("batch_norm_relu", a, gamma, beta);
        self.record(r, c, Op::BatchNormRelu(a, gamma, beta, eps))
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

    /// Runs the backend kernel of `op`, whose output is `rows × cols`.
    /// Ops computed inline by their op method (losses, reductions, dropout,
    /// concat) never come through here.
    fn execute(&self, op: &Op, rows: usize, cols: usize) -> Tensor {
        match op {
            Op::MatMul(a, b) => self.execute_gemm(*a, *b, Epilogue::None),
            Op::Linear { x, w, bias, relu } => {
                let bias = self.value(*bias).as_slice();
                let epilogue = match relu {
                    false => Epilogue::Bias(bias),
                    true => Epilogue::BiasRelu(bias),
                };
                self.execute_gemm(*x, *w, epilogue)
            }
            Op::Add(a, b) => {
                let mut out = self.out_buf(rows, cols);
                self.backend.add(
                    self.value(*a).as_slice(),
                    self.value(*b).as_slice(),
                    &mut out,
                );
                Tensor::from_vec(rows, cols, out)
            }
            Op::Sub(a, b) => {
                let mut out = self.out_buf(rows, cols);
                self.backend.sub(
                    self.value(*a).as_slice(),
                    self.value(*b).as_slice(),
                    &mut out,
                );
                Tensor::from_vec(rows, cols, out)
            }
            Op::Mul(a, b) => {
                let mut out = self.out_buf(rows, cols);
                self.backend.mul(
                    self.value(*a).as_slice(),
                    self.value(*b).as_slice(),
                    &mut out,
                );
                Tensor::from_vec(rows, cols, out)
            }
            Op::AddRow(a, bias) => {
                let mut out = self.out_buf(rows, cols);
                self.backend.add_bias_rows(
                    self.value(*a).as_slice(),
                    self.value(*bias).as_slice(),
                    rows,
                    cols,
                    &mut out,
                );
                Tensor::from_vec(rows, cols, out)
            }
            Op::Scale(a, k) => {
                let mut out = self.out_buf(rows, cols);
                self.backend.scale(self.value(*a).as_slice(), *k, &mut out);
                Tensor::from_vec(rows, cols, out)
            }
            Op::Relu(a) => self.execute_unary(*a, Unary::Relu, rows, cols),
            Op::LeakyRelu(a, slope) => self.execute_unary(*a, Unary::LeakyRelu(*slope), rows, cols),
            Op::Sigmoid(a) => self.execute_unary(*a, Unary::Sigmoid, rows, cols),
            Op::Tanh(a) => self.execute_unary(*a, Unary::Tanh, rows, cols),
            Op::GatherRows(a, index) => {
                let x = self.value(*a);
                let mut out = self.out_buf(rows, cols);
                self.backend
                    .gather_rows(x.as_slice(), x.rows(), cols, index, &mut out);
                Tensor::from_vec(rows, cols, out)
            }
            Op::ScatterAddRows(a, index) => {
                let x = self.value(*a);
                let mut out = self.pool.acquire(rows * cols);
                self.backend
                    .scatter_add_rows(x.as_slice(), index, cols, rows, &mut out);
                Tensor::from_vec(rows, cols, out)
            }
            Op::ScaleRows(a, factors) => {
                let mut out = self.out_buf(rows, cols);
                self.backend
                    .scale_rows(self.value(*a).as_slice(), factors, cols, &mut out);
                Tensor::from_vec(rows, cols, out)
            }
            Op::SegmentSoftmax(a, segments, n_segments) => {
                let mut out = self.out_buf(rows, cols);
                self.backend.segment_softmax(
                    self.value(*a).as_slice(),
                    rows,
                    cols,
                    segments,
                    *n_segments,
                    &mut out,
                );
                Tensor::from_vec(rows, cols, out)
            }
            Op::LayerNorm(a, gamma, beta, eps) => {
                self.execute_norm(NormKind::Layer, *a, *gamma, *beta, *eps, None)
            }
            Op::BatchNorm(a, gamma, beta, eps) => {
                self.execute_norm(NormKind::Batch, *a, *gamma, *beta, *eps, None)
            }
            Op::BatchNormRelu(a, gamma, beta, eps) => {
                self.execute_norm(NormKind::Batch, *a, *gamma, *beta, *eps, Some(Unary::Relu))
            }
            Op::Leaf
            | Op::Dropout(..)
            | Op::Sum(..)
            | Op::Mean(..)
            | Op::DivEps(..)
            | Op::RowDot(..)
            | Op::RowBlockSums(..)
            | Op::MulColBroadcast(..)
            | Op::ConcatCols(..)
            | Op::L1Loss(..)
            | Op::CrossEntropy(..) => {
                unreachable!("op `{}` is computed by its op method", op.kind_name())
            }
        }
    }

    /// GEMM executor shared by the plain and fused-epilogue matmul ops:
    /// `x · w` (an `n × k` by `k × m` product) followed by `epilogue`.
    fn execute_gemm(&self, x: Var, w: Var, epilogue: Epilogue<'_>) -> Tensor {
        let t = mega_obs::timer();
        let ((n, k), (_, m)) = (self.dims(x), self.dims(w));
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
        t.observe("tensor.matmul_ns");
        Tensor::from_vec(n, m, out)
    }

    /// Normalization executor shared by the plain and fused-activation
    /// norm ops.
    fn execute_norm(
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
        self.backend.norm(
            kind,
            self.value(x).as_slice(),
            self.value(gamma).as_slice(),
            self.value(beta).as_slice(),
            rows,
            cols,
            eps,
            act,
            &mut out,
        );
        Tensor::from_vec(rows, cols, out)
    }

    /// Elementwise activation executor shared by the unary ops.
    fn execute_unary(&self, a: Var, unary: Unary, rows: usize, cols: usize) -> Tensor {
        let mut out = self.out_buf(rows, cols);
        self.backend
            .unary(unary, self.value(a).as_slice(), &mut out);
        Tensor::from_vec(rows, cols, out)
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
    /// `AddRow` and `Linear`.
    fn col_sums(&self, g: &[f32], cols: usize) -> Vec<f32> {
        let mut sums = self.pool.acquire(cols);
        for row in rows_of(g, cols) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Backward of column-wise batch norm: rewrites the upstream gradient `g`
    /// into `dx` in place and returns the pooled `[dgamma, dbeta]`.
    ///
    /// Row-major sweeps over per-column accumulators — the forward's
    /// [`kernels::batch_stats`], then the two `dxhat` means, then `dgamma`,
    /// `dbeta` and `dx` — with `xhat` and `dxhat` recomputed per element
    /// rather than staged per column. Every column's sums fold down the rows
    /// in ascending order from the value a column-by-column walk starts them
    /// at — `0.0` for its explicit accumulators, the `Sum` identity for its
    /// two iterator sums — so the bits are that walk's.
    fn batch_norm_backward(
        &self,
        g: &mut [f32],
        x: &Tensor,
        gamma: &[f32],
        eps: f32,
    ) -> [Vec<f32>; 2] {
        let (r, c) = x.shape();
        let x = x.as_slice();
        let rn = r.max(1) as f32;
        let mut mean = self.pool.acquire(c);
        let mut inv = self.pool.acquire(c);
        kernels::batch_stats(x, r, c, eps, &mut mean, &mut inv);
        let mut mean_dxhat = self.pool.acquire_for_overwrite(c);
        let mut mean_dxhat_xhat = self.pool.acquire_for_overwrite(c);
        let sum_identity: f32 = std::iter::empty::<f32>().sum();
        mean_dxhat.fill(sum_identity);
        mean_dxhat_xhat.fill(sum_identity);
        for (g_row, row) in rows_of(g, c).zip(rows_of(x, c)) {
            let stats = mean.iter().zip(&inv).zip(gamma);
            let sums = mean_dxhat.iter_mut().zip(mean_dxhat_xhat.iter_mut());
            for (((&gv, &v), ((&m, &k), &gm)), (sd, sdh)) in
                g_row.iter().zip(row).zip(stats).zip(sums)
            {
                let d = gv * gm;
                *sd += d;
                *sdh += d * ((v - m) * k);
            }
        }
        for s in mean_dxhat.iter_mut().chain(mean_dxhat_xhat.iter_mut()) {
            *s /= rn;
        }
        let mut dgamma = self.pool.acquire(c);
        let mut dbeta = self.pool.acquire(c);
        for (g_row, row) in rows_of_mut(g, c).zip(rows_of(x, c)) {
            let stats = mean.iter().zip(&inv).zip(gamma);
            let means = mean_dxhat.iter().zip(&mean_dxhat_xhat);
            let sums = dgamma.iter_mut().zip(dbeta.iter_mut());
            for ((((gv, &v), ((&m, &k), &gm)), (&md, &mdh)), (dg, db)) in
                g_row.iter_mut().zip(row).zip(stats).zip(means).zip(sums)
            {
                let h = (v - m) * k;
                let d = *gv * gm;
                *dg += *gv * h;
                *db += *gv;
                *gv = k * (d - md - h * mdh);
            }
        }
        for buf in [mean, inv, mean_dxhat, mean_dxhat_xhat] {
            self.pool.release(buf);
        }
        [dgamma, dbeta]
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
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&self, loss: Var) -> Gradients {
        let _span = mega_obs::span("tape_backward");
        mega_obs::counter_add("tensor.tape.backward_passes", 1);
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = self.nodes.iter().map(|_| None).collect();
        self.accumulate(&mut grads, loss, Cow::Borrowed(&[1.0]));

        for idx in (0..=loss.0).rev() {
            let node = &self.nodes[idx];
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(g) = grads[idx].take() else {
                continue;
            };
            let mut g = g.into_data();
            if g.iter().all(|&v| v == 0.0) {
                self.pool.release(g);
                continue;
            }
            let grads = &mut grads[..];
            match &node.op {
                Op::Leaf => unreachable!("leaves keep their gradient"),
                Op::MatMul(a, b) => {
                    self.gemm_backward(&g, *a, *b, grads);
                    self.pool.release(g);
                }
                Op::Linear { x, w, bias, relu } => {
                    // Mask the upstream gradient by the activation: the kept
                    // pre-activations are exactly the positive outputs.
                    if *relu {
                        keep_where_positive(&mut g, node.value.as_slice());
                    }
                    // dbias = column sums of the gradient, as the unfused
                    // AddRow backward folds them; dx = g · wᵀ, dw = xᵀ · g —
                    // the MatMul backward on the same `g`, which the
                    // unfused chain's intermediate would have adopted
                    // unchanged (an adopted gradient holds no `-0.0`).
                    let db = self.col_sums(&g, node.value.cols());
                    self.accumulate(grads, *bias, Cow::Owned(db));
                    self.gemm_backward(&g, *x, *w, grads);
                    self.pool.release(g);
                }
                Op::Add(a, b) => {
                    self.accumulate(grads, *a, Cow::Borrowed(&g));
                    self.accumulate(grads, *b, Cow::Owned(g));
                }
                Op::Sub(a, b) => {
                    self.accumulate(grads, *a, Cow::Borrowed(&g));
                    for v in g.iter_mut() {
                        *v *= -1.0;
                    }
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
                    let db = self.col_sums(&g, node.value.cols());
                    self.accumulate(grads, *a, Cow::Owned(g));
                    self.accumulate(grads, *bias, Cow::Owned(db));
                }
                Op::Scale(a, k) => {
                    for v in g.iter_mut() {
                        *v *= *k;
                    }
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::Relu(a) => {
                    keep_where_positive(&mut g, self.value(*a).as_slice());
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::LeakyRelu(a, slope) => {
                    for (gv, &x) in g.iter_mut().zip(self.value(*a).as_slice()) {
                        *gv = if x > 0.0 { *gv } else { *gv * slope };
                    }
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::Dropout(a, mask, keep_prob) => {
                    let inv = 1.0 / keep_prob;
                    for (gv, &keep) in g.iter_mut().zip(mask.iter()) {
                        *gv = if keep { *gv * inv } else { 0.0 };
                    }
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::Sigmoid(a) => {
                    for (gv, &s) in g.iter_mut().zip(node.value.as_slice()) {
                        *gv = *gv * s * (1.0 - s);
                    }
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::Tanh(a) => {
                    for (gv, &t) in g.iter_mut().zip(node.value.as_slice()) {
                        *gv *= 1.0 - t * t;
                    }
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::Sum(a) | Op::Mean(a) => {
                    let (r, c) = self.dims(*a);
                    let each = match node.op {
                        Op::Mean(_) => g[0] / (r * c).max(1) as f32,
                        _ => g[0],
                    };
                    let mut da = self.pool.acquire_for_overwrite(r * c);
                    da.fill(each);
                    self.accumulate(grads, *a, Cow::Owned(da));
                    self.pool.release(g);
                }
                Op::DivEps(a, b, eps) => {
                    let (va, vb) = (self.value(*a).as_slice(), self.value(*b).as_slice());
                    let mut db = self.pool.acquire_for_overwrite(g.len());
                    for (((o, &gv), &x), &y) in db.iter_mut().zip(&g).zip(va).zip(vb) {
                        let y = y + eps;
                        *o = -gv * x / (y * y);
                    }
                    for (gv, &y) in g.iter_mut().zip(vb) {
                        *gv /= y + eps;
                    }
                    self.accumulate(grads, *a, Cow::Owned(g));
                    self.accumulate(grads, *b, Cow::Owned(db));
                }
                Op::RowDot(a, b) => {
                    let (va, vb) = (self.value(*a), self.value(*b));
                    let c = va.cols();
                    let mut da = self.pool.acquire_for_overwrite(g.len() * c);
                    let mut db = self.pool.acquire_for_overwrite(g.len() * c);
                    let outs = rows_of_mut(&mut da, c).zip(rows_of_mut(&mut db, c));
                    let ins = rows_of(va.as_slice(), c).zip(rows_of(vb.as_slice(), c));
                    for (((da_row, db_row), (a_row, b_row)), &gr) in outs.zip(ins).zip(&g) {
                        for (o, &y) in da_row.iter_mut().zip(b_row) {
                            *o = gr * y;
                        }
                        for (o, &x) in db_row.iter_mut().zip(a_row) {
                            *o = gr * x;
                        }
                    }
                    self.accumulate(grads, *a, Cow::Owned(da));
                    self.accumulate(grads, *b, Cow::Owned(db));
                    self.pool.release(g);
                }
                Op::RowBlockSums(a) => {
                    let (r, c) = self.dims(*a);
                    let blocks = node.value.cols();
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
                    let total = node.value.cols();
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
                    let (r, c) = node.value.shape();
                    let mut da = self.pool.acquire_for_overwrite(index.len() * c);
                    kernels::gather_rows(&g, r, c, index, &mut da);
                    self.accumulate(grads, *a, Cow::Owned(da));
                    self.pool.release(g);
                }
                Op::ScaleRows(a, factors) => {
                    let c = node.value.cols();
                    for (g_row, &k) in rows_of_mut(&mut g, c).zip(factors.iter()) {
                        for v in g_row {
                            *v *= k;
                        }
                    }
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::SegmentSoftmax(a, segments, n_segments) => {
                    let p = node.value.as_slice();
                    let c = node.value.cols();
                    // dx = p ⊙ (g - Σ_seg (g ⊙ p)) per column.
                    let mut dots = self.pool.acquire(n_segments * c);
                    for ((g_row, p_row), &s) in
                        rows_of(&g, c).zip(rows_of(p, c)).zip(segments.iter())
                    {
                        let dot_row = &mut dots[s * c..(s + 1) * c];
                        for ((d, &gv), &pv) in dot_row.iter_mut().zip(g_row).zip(p_row) {
                            *d += gv * pv;
                        }
                    }
                    for ((g_row, p_row), &s) in rows_of_mut(&mut g, c)
                        .zip(rows_of(p, c))
                        .zip(segments.iter())
                    {
                        let dot_row = &dots[s * c..(s + 1) * c];
                        for ((gv, &pv), &d) in g_row.iter_mut().zip(p_row).zip(dot_row) {
                            *gv = pv * (*gv - d);
                        }
                    }
                    self.pool.release(dots);
                    self.accumulate(grads, *a, Cow::Owned(g));
                }
                Op::LayerNorm(a, gamma, beta, eps) => {
                    let x = self.value(*a);
                    let gm = self.value(*gamma).as_slice();
                    let c = x.cols();
                    let cn = c as f32;
                    let mut dgamma = self.pool.acquire(c);
                    let mut dbeta = self.pool.acquire(c);
                    let mut xhat = self.pool.acquire_for_overwrite(c);
                    let mut dxhat = self.pool.acquire_for_overwrite(c);
                    for (g_row, row) in rows_of_mut(&mut g, c).zip(rows_of(x.as_slice(), c)) {
                        let mean = row.iter().sum::<f32>() / cn;
                        let var = row.iter().map(|&v| (v - mean).powi(2)).sum::<f32>() / cn;
                        let inv = 1.0 / (var + eps).sqrt();
                        for (h, &v) in xhat.iter_mut().zip(row) {
                            *h = (v - mean) * inv;
                        }
                        for ((d, &gv), &k) in dxhat.iter_mut().zip(g_row.iter()).zip(gm) {
                            *d = gv * k;
                        }
                        let mean_dxhat = dxhat.iter().sum::<f32>() / cn;
                        let mean_dxhat_xhat =
                            dxhat.iter().zip(&xhat).map(|(&d, &h)| d * h).sum::<f32>() / cn;
                        let sums = dgamma.iter_mut().zip(dbeta.iter_mut());
                        let hats = xhat.iter().zip(&dxhat);
                        for ((gv, (dg, db)), (&h, &d)) in g_row.iter_mut().zip(sums).zip(hats) {
                            *dg += *gv * h;
                            *db += *gv;
                            *gv = inv * (d - mean_dxhat - h * mean_dxhat_xhat);
                        }
                    }
                    self.pool.release(xhat);
                    self.pool.release(dxhat);
                    self.accumulate(grads, *a, Cow::Owned(g));
                    self.accumulate(grads, *gamma, Cow::Owned(dgamma));
                    self.accumulate(grads, *beta, Cow::Owned(dbeta));
                }
                Op::BatchNorm(a, gamma, beta, eps) | Op::BatchNormRelu(a, gamma, beta, eps) => {
                    // For the fused variant, first mask the upstream
                    // gradient exactly as the unfused relu backward would
                    // (output sign == norm-output sign: relu preserves it).
                    if let Op::BatchNormRelu(..) = node.op {
                        keep_where_positive(&mut g, node.value.as_slice());
                    }
                    let gm = self.value(*gamma).as_slice();
                    let [dgamma, dbeta] =
                        self.batch_norm_backward(&mut g, self.value(*a), gm, *eps);
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
        // A leaf the loss does not reach reads as zeros.
        for (slot, node) in grads.iter_mut().zip(&self.nodes) {
            if slot.is_none() && matches!(node.op, Op::Leaf) {
                let (r, c) = node.value.shape();
                *slot = Some(Tensor::from_vec(r, c, self.pool.acquire(r * c)));
            }
        }
        Gradients {
            grads,
            pool: self.pool.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let ug = unfused.backward(uloss);

            let case = format!("{backend} relu={relu}");
            assert_eq!(bits(fused.value(fy)), bits(unfused.value(uy)), "{case}");
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
            let fy = fused.batch_norm_relu(fx, fg, fb, 1e-5);
            let floss = fused.sum(fy);
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
            let ugrads = unfused.backward(uloss);

            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fused.value(fy)), bits(unfused.value(uy)), "{backend}");
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
            // One `Linear` node or the chain it replaced: the same bits.
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
            let score = t.row_dot(src, dst);
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
                0x1e77_5631_58d4_2627,
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
        let tape = Tape::new();
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
            let got = tape.batch_norm_backward(&mut got_dx, &x, &gamma, 1e-5);
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
        let loss = tape.sum(x);
        let after = tape.leaf(Tensor::full(1, 4, -7.0));
        let grads = tape.backward(loss);
        for (leaf, shape) in [(before, (3, 2)), (after, (1, 4))] {
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
            let d = t.sub(m, x);
            let score = t.row_dot(d, h);
            let att = t.segment_softmax(score, Arc::new(vec![0, 0, 1, 1, 1, 2, 3, 3]), 4);
            let weighted = t.mul_col_broadcast(d, att);
            let idx = Arc::new(vec![7usize, 0, 3, 3, 1, 6, 2, 5]);
            let moved = t.gather_rows(weighted, idx.clone());
            let agg = t.scatter_add_rows(moved, idx, 8);
            let ln = t.layer_norm(agg, gamma, beta, 1e-5);
            let bn = t.batch_norm_relu(ln, gamma, beta, 1e-5);
            let cat = t.concat_cols(&[bn, h]);
            let act = t.tanh(cat);
            let loss = t.mean(act);
            let grads = t.backward(loss);
            assert!(grads.wrt(w).norm() > 0.0);
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
        use mega_exec::{BufferPool, ReferenceBackend};
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
        check_grad(
            sample(2, 3, 4),
            |t, x| {
                let y = t.sigmoid(x);
                t.sum(y)
            },
            1e-2,
        );
        check_grad(
            sample(2, 3, 5),
            |t, x| {
                let y = t.tanh(x);
                t.sum(y)
            },
            1e-2,
        );
        check_grad(
            sample(2, 3, 6),
            |t, x| {
                let y = t.relu(x);
                t.sum(y)
            },
            1e-2,
        );
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
                let w = t.row_dot(x, other);
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
    fn row_block_sums_of_one_block_is_row_dot_with_ones() {
        let a = sample(5, 7, 96);
        let weights = sample(5, 1, 97);
        let run = |block_sums: bool| {
            let mut t = Tape::new();
            let x = t.leaf(a.clone());
            let s = if block_sums {
                t.row_block_sums(x, 1)
            } else {
                let ones = t.leaf(Tensor::full(5, 7, 1.0));
                t.row_dot(x, ones)
            };
            let w = t.leaf(weights.clone());
            let y = t.mul(s, w);
            let loss = t.sum(y);
            let grads = t.backward(loss);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (bits(t.value(s)), bits(grads.wrt(x)))
        };
        assert_eq!(run(true), run(false));
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
    fn grad_leaky_relu() {
        check_grad(
            sample(2, 3, 27),
            |t, x| {
                let y = t.leaky_relu(x, 0.2);
                t.sum(y)
            },
            1e-2,
        );
    }

    #[test]
    fn dropout_forward_and_grad() {
        let mask = Arc::new(vec![true, false, true, true]);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_rows(&[&[2.0, 2.0], &[2.0, 2.0]]));
        let y = tape.dropout(x, mask.clone(), 0.5);
        assert_eq!(tape.value(y).as_slice(), &[4.0, 0.0, 4.0, 4.0]);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.wrt(x).as_slice(), &[2.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "one mask bit per element")]
    fn dropout_mask_length_checked() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(2, 2));
        tape.dropout(x, Arc::new(vec![true]), 0.5);
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
    fn grad_scale_rows_and_sub() {
        let f = Arc::new(vec![0.5f32, 2.0, -1.0]);
        check_grad(
            sample(3, 2, 25),
            move |t, x| {
                let y = t.scale_rows(x, f.clone());
                let o = t.leaf(sample(3, 2, 26));
                let d = t.sub(y, o);
                let sq = t.mul(d, d);
                t.mean(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn unused_leaf_gets_zero_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 2, 1.0));
        let unused = tape.leaf(Tensor::full(3, 1, 5.0));
        let loss = tape.sum(x);
        let grads = tape.backward(loss);
        assert!(grads.wrt(unused).as_slice().iter().all(|&g| g == 0.0));
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
