//! Reverse-mode autograd tape.
//!
//! A [`Tape`] records a computation as a sequence of nodes; every op method
//! returns a [`Var`] handle. [`Tape::backward`] walks the nodes in reverse,
//! producing a gradient tensor per node. The op set is tailored to GNN
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
//! Every op method runs its kernel before returning, so a [`Var`] always
//! has a value. The fused ops ([`Tape::linear_relu`],
//! [`Tape::batch_norm_relu`]) are called by the layers that want them and
//! are bit-identical, forward and backward, to the unfused chains they
//! replace.

use crate::tensor::Tensor;
use mega_exec::{kernels, Backend, BufferPool, Epilogue, NormKind, ReferenceBackend, Unary};
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    LinearRelu(Var, Var, Var),
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
            Op::LinearRelu(..) => "linear_relu",
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

/// Gradients of one backward pass, indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Tensor>,
}

impl Gradients {
    /// The gradient with respect to `v` (zeros when `v` has no influence on
    /// the loss).
    ///
    /// # Panics
    ///
    /// Panics if `v` came from a different tape (index out of range).
    pub fn wrt(&self, v: Var) -> &Tensor {
        &self.grads[v.0]
    }
}

/// `t += s` elementwise — the slice-level twin of [`Tensor::add_assign`],
/// used by the backward pass to fold pooled kernel outputs into gradient
/// accumulators without wrapping them in a temporary tensor.
fn add_slice(t: &mut Tensor, s: &[f32]) {
    debug_assert_eq!(t.as_slice().len(), s.len());
    for (o, &v) in t.as_mut_slice().iter_mut().zip(s) {
        *o += v;
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

    /// Acquires a pooled buffer sized for an `rows × cols` output.
    fn out_buf(&self, rows: usize, cols: usize) -> Vec<f32> {
        self.pool.acquire(rows * cols)
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

    /// Fused dense layer: `relu(x · w + bias)` in one node.
    ///
    /// Forward and backward match the unfused `matmul` → `add_row` → `relu`
    /// chain value-for-value while saving two intermediate tensors and two
    /// memory sweeps; backends may fuse further (see `SimdBackend`).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `bias` is not `1 × w.cols()`.
    pub fn linear_relu(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let ((n, k), (wr, m), (br, bc)) = (self.dims(x), self.dims(w), self.dims(bias));
        assert_eq!(k, wr, "linear_relu: inner dims {n}x{k} · {wr}x{m}");
        assert_eq!(br, 1, "bias must be a single row");
        assert_eq!(bc, m, "bias width mismatch");
        self.record(n, m, Op::LinearRelu(x, w, bias))
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
        let mut out = self.value(a).clone();
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o = if mask[i] { *o * inv } else { 0.0 };
        }
        self.push_value(out, Op::Dropout(a, mask, keep_prob))
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
        let v = self.value(a).zip_map(self.value(b), |x, y| x / (y + eps));
        self.push_value(v, Op::DivEps(a, b, eps))
    }

    /// Row-wise dot product of same-shape tensors: output is `r × 1` with
    /// `out[i] = Σ_c a[i,c]·b[i,c]` (attention scores).
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.dims(a), self.dims(b), "row_dot shape mismatch");
        let (x, y) = (self.value(a), self.value(b));
        let mut out = Tensor::zeros(x.rows(), 1);
        for r in 0..x.rows() {
            let s: f32 = x.row(r).iter().zip(y.row(r)).map(|(&p, &q)| p * q).sum();
            out.set(r, 0, s);
        }
        self.push_value(out, Op::RowDot(a, b))
    }

    /// Broadcast-multiplies each row of `a` (`r × c`) by the matching scalar
    /// in `w` (`r × 1`) — applying attention weights to values.
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let ((r, _), (wr, wc)) = (self.dims(a), self.dims(w));
        assert_eq!(wc, 1, "weights must be a column");
        assert_eq!(r, wr, "row count mismatch");
        let (x, y) = (self.value(a), self.value(w));
        let mut out = x.clone();
        for r in 0..out.rows() {
            let k = y.at(r, 0);
            for o in out.row_mut(r) {
                *o *= k;
            }
        }
        self.push_value(out, Op::MulColBroadcast(a, w))
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
        let mut out = Tensor::zeros(rows, total);
        let mut offset = 0usize;
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
            for r in 0..rows {
                let src = t.row(r).to_vec();
                out.row_mut(r)[offset..offset + src.len()].copy_from_slice(&src);
            }
            offset += t.cols();
        }
        self.push_value(out, Op::ConcatCols(Arc::new(parts.to_vec())))
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
            Op::LinearRelu(x, w, bias) => {
                let bias = self.value(*bias).as_slice();
                self.execute_gemm(*x, *w, Epilogue::BiasRelu(bias))
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
                let mut out = self.out_buf(rows, cols);
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
            self.value(x).as_slice(),
            self.value(w).as_slice(),
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

    /// Backward of `y = x · w` for the upstream gradient `g` (`n × m`):
    /// accumulates `dx = g · wᵀ` and `dw = xᵀ · g` into `grads` — both
    /// through the backend, so an accelerated GEMM speeds the backward
    /// pass too.
    fn gemm_backward(&self, g: &[f32], x: Var, w: Var, grads: &mut [Tensor]) {
        let (vx, vw) = (self.value(x), self.value(w));
        let (n, k, m) = (vx.rows(), vx.cols(), vw.cols());
        let mut dx = self.pool.acquire(n * k);
        let mut wt = self.pool.acquire(k * m);
        kernels::transpose(vw.as_slice(), k, m, &mut wt);
        self.backend
            .gemm(g, &wt, n, m, k, Epilogue::None, &self.par, &mut dx);
        self.pool.release(wt);
        add_slice(&mut grads[x.0], &dx);
        self.pool.release(dx);
        let mut xt = self.pool.acquire(n * k);
        kernels::transpose(vx.as_slice(), n, k, &mut xt);
        let mut dw = self.pool.acquire(k * m);
        self.backend
            .gemm(&xt, g, k, n, m, Epilogue::None, &self.par, &mut dw);
        add_slice(&mut grads[w.0], &dw);
        self.pool.release(xt);
        self.pool.release(dw);
    }

    /// Runs the backward pass from the scalar node `loss`.
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
        let mut grads: Vec<Tensor> = self
            .nodes
            .iter()
            .map(|n| Tensor::zeros(n.value.rows(), n.value.cols()))
            .collect();
        grads[loss.0].set(0, 0, 1.0);

        for idx in (0..=loss.0).rev() {
            if grads[idx].as_slice().iter().all(|&g| g == 0.0) {
                continue;
            }
            let g = grads[idx].clone();
            match &self.nodes[idx].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => self.gemm_backward(g.as_slice(), *a, *b, &mut grads),
                Op::LinearRelu(x, w, bias) => {
                    let out = &self.nodes[idx].value;
                    let (n, m) = out.shape();
                    // Mask the upstream gradient by the activation: the kept
                    // pre-activations are exactly the positive outputs.
                    let mut gm = self.pool.acquire(n * m);
                    for ((o, &gv), &ov) in gm.iter_mut().zip(g.as_slice()).zip(out.as_slice()) {
                        *o = if ov > 0.0 { gv } else { 0.0 };
                    }
                    // dbias = column sums of gm, folded row-major as the
                    // unfused AddRow backward does.
                    let mut db = self.pool.acquire(m);
                    for r in 0..n {
                        for c in 0..m {
                            db[c] += gm[r * m + c];
                        }
                    }
                    add_slice(&mut grads[bias.0], &db);
                    self.pool.release(db);
                    // dx = gm · wᵀ, dw = xᵀ · gm — the MatMul backward on the
                    // masked gradient.
                    self.gemm_backward(&gm, *x, *w, &mut grads);
                    self.pool.release(gm);
                }
                Op::Add(a, b) => {
                    grads[a.0].add_assign(&g);
                    grads[b.0].add_assign(&g);
                }
                Op::Sub(a, b) => {
                    grads[a.0].add_assign(&g);
                    let neg = g.scale(-1.0);
                    grads[b.0].add_assign(&neg);
                }
                Op::Mul(a, b) => {
                    let da = g.mul(self.value(*b));
                    let db = g.mul(self.value(*a));
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::AddRow(a, bias) => {
                    grads[a.0].add_assign(&g);
                    let mut db = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            db.set(0, c, db.at(0, c) + g.at(r, c));
                        }
                    }
                    grads[bias.0].add_assign(&db);
                }
                Op::Scale(a, k) => {
                    let da = g.scale(*k);
                    grads[a.0].add_assign(&da);
                }
                Op::Relu(a) => {
                    let da = g.zip_map(self.value(*a), |gg, x| if x > 0.0 { gg } else { 0.0 });
                    grads[a.0].add_assign(&da);
                }
                Op::LeakyRelu(a, slope) => {
                    let da = g.zip_map(
                        self.value(*a),
                        |gg, x| {
                            if x > 0.0 {
                                gg
                            } else {
                                gg * slope
                            }
                        },
                    );
                    grads[a.0].add_assign(&da);
                }
                Op::Dropout(a, mask, keep_prob) => {
                    let inv = 1.0 / keep_prob;
                    let mut da = g.clone();
                    for (i, o) in da.as_mut_slice().iter_mut().enumerate() {
                        *o = if mask[i] { *o * inv } else { 0.0 };
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[idx].value;
                    let da = g.zip_map(y, |gg, s| gg * s * (1.0 - s));
                    grads[a.0].add_assign(&da);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[idx].value;
                    let da = g.zip_map(y, |gg, t| gg * (1.0 - t * t));
                    grads[a.0].add_assign(&da);
                }
                Op::Sum(a) => {
                    let (r, c) = self.dims(*a);
                    let da = Tensor::full(r, c, g.at(0, 0));
                    grads[a.0].add_assign(&da);
                }
                Op::Mean(a) => {
                    let (r, c) = self.dims(*a);
                    let n = (r * c).max(1) as f32;
                    let da = Tensor::full(r, c, g.at(0, 0) / n);
                    grads[a.0].add_assign(&da);
                }
                Op::DivEps(a, b, eps) => {
                    let (va, vb) = (self.value(*a), self.value(*b));
                    let da = g.zip_map(vb, |gg, y| gg / (y + eps));
                    let mut db = Tensor::zeros(vb.rows(), vb.cols());
                    for i in 0..db.as_slice().len() {
                        let y = vb.as_slice()[i] + eps;
                        db.as_mut_slice()[i] = -g.as_slice()[i] * va.as_slice()[i] / (y * y);
                    }
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::RowDot(a, b) => {
                    let (va, vb) = (self.value(*a), self.value(*b));
                    let mut da = Tensor::zeros(va.rows(), va.cols());
                    let mut db = Tensor::zeros(vb.rows(), vb.cols());
                    for r in 0..va.rows() {
                        let gr = g.at(r, 0);
                        for c in 0..va.cols() {
                            da.set(r, c, gr * vb.at(r, c));
                            db.set(r, c, gr * va.at(r, c));
                        }
                    }
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::MulColBroadcast(a, w) => {
                    let (va, vw) = (self.value(*a), self.value(*w));
                    let mut da = Tensor::zeros(va.rows(), va.cols());
                    let mut dw = Tensor::zeros(vw.rows(), 1);
                    for r in 0..va.rows() {
                        let k = vw.at(r, 0);
                        let mut acc = 0.0f32;
                        for c in 0..va.cols() {
                            da.set(r, c, g.at(r, c) * k);
                            acc += g.at(r, c) * va.at(r, c);
                        }
                        dw.set(r, 0, acc);
                    }
                    grads[a.0].add_assign(&da);
                    grads[w.0].add_assign(&dw);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0usize;
                    for &p in parts.iter() {
                        let w = self.dims(p).1;
                        let mut dp = Tensor::zeros(g.rows(), w);
                        for r in 0..g.rows() {
                            for c in 0..w {
                                dp.set(r, c, g.at(r, offset + c));
                            }
                        }
                        grads[p.0].add_assign(&dp);
                        offset += w;
                    }
                }
                Op::GatherRows(a, index) => {
                    let da = g.scatter_add_rows(index, self.dims(*a).0);
                    grads[a.0].add_assign(&da);
                }
                Op::ScatterAddRows(a, index) => {
                    let da = g.gather_rows(index);
                    grads[a.0].add_assign(&da);
                }
                Op::ScaleRows(a, factors) => {
                    let mut da = g.clone();
                    for r in 0..da.rows() {
                        let k = factors[r];
                        for v in da.row_mut(r) {
                            *v *= k;
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::SegmentSoftmax(a, segments, n_segments) => {
                    let p = &self.nodes[idx].value;
                    let (r, c) = p.shape();
                    // dx = p ⊙ (g - Σ_seg (g ⊙ p)) per column.
                    let mut dots = vec![0.0f32; n_segments * c];
                    for i in 0..r {
                        let s = segments[i];
                        for j in 0..c {
                            dots[s * c + j] += g.at(i, j) * p.at(i, j);
                        }
                    }
                    let mut da = Tensor::zeros(r, c);
                    for i in 0..r {
                        let s = segments[i];
                        for j in 0..c {
                            da.set(i, j, p.at(i, j) * (g.at(i, j) - dots[s * c + j]));
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::LayerNorm(a, gamma, beta, eps) => {
                    let x = self.value(*a);
                    let gm = self.value(*gamma);
                    let (r, c) = x.shape();
                    let cn = c as f32;
                    let mut da = Tensor::zeros(r, c);
                    let mut dgamma = Tensor::zeros(1, c);
                    let mut dbeta = Tensor::zeros(1, c);
                    for i in 0..r {
                        let row = x.row(i);
                        let mean = row.iter().sum::<f32>() / cn;
                        let var = row.iter().map(|&v| (v - mean).powi(2)).sum::<f32>() / cn;
                        let inv = 1.0 / (var + eps).sqrt();
                        let xhat: Vec<f32> = row.iter().map(|&v| (v - mean) * inv).collect();
                        let dxhat: Vec<f32> = (0..c).map(|j| g.at(i, j) * gm.at(0, j)).collect();
                        let mean_dxhat = dxhat.iter().sum::<f32>() / cn;
                        let mean_dxhat_xhat =
                            dxhat.iter().zip(&xhat).map(|(&d, &h)| d * h).sum::<f32>() / cn;
                        for j in 0..c {
                            da.set(
                                i,
                                j,
                                inv * (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat),
                            );
                            dgamma.set(0, j, dgamma.at(0, j) + g.at(i, j) * xhat[j]);
                            dbeta.set(0, j, dbeta.at(0, j) + g.at(i, j));
                        }
                    }
                    grads[a.0].add_assign(&da);
                    grads[gamma.0].add_assign(&dgamma);
                    grads[beta.0].add_assign(&dbeta);
                }
                Op::BatchNorm(a, gamma, beta, eps) | Op::BatchNormRelu(a, gamma, beta, eps) => {
                    // For the fused variant, first mask the upstream
                    // gradient exactly as the unfused relu backward would
                    // (output sign == norm-output sign: relu preserves it).
                    let node = &self.nodes[idx];
                    let ge = match node.op {
                        Op::BatchNormRelu(..) => {
                            g.zip_map(&node.value, |gg, y| if y > 0.0 { gg } else { 0.0 })
                        }
                        _ => g.clone(),
                    };
                    let x = self.value(*a);
                    let gm = self.value(*gamma);
                    let (r, c) = x.shape();
                    let rn = r.max(1) as f32;
                    let mut da = Tensor::zeros(r, c);
                    let mut dgamma = Tensor::zeros(1, c);
                    let mut dbeta = Tensor::zeros(1, c);
                    for j in 0..c {
                        let mut mean = 0.0f32;
                        for i in 0..r {
                            mean += x.at(i, j);
                        }
                        mean /= rn;
                        let mut var = 0.0f32;
                        for i in 0..r {
                            var += (x.at(i, j) - mean).powi(2);
                        }
                        var /= rn;
                        let inv = 1.0 / (var + eps).sqrt();
                        let xhat: Vec<f32> = (0..r).map(|i| (x.at(i, j) - mean) * inv).collect();
                        let dxhat: Vec<f32> = (0..r).map(|i| ge.at(i, j) * gm.at(0, j)).collect();
                        let mean_dxhat = dxhat.iter().sum::<f32>() / rn;
                        let mean_dxhat_xhat =
                            dxhat.iter().zip(&xhat).map(|(&d, &h)| d * h).sum::<f32>() / rn;
                        for i in 0..r {
                            da.set(
                                i,
                                j,
                                inv * (dxhat[i] - mean_dxhat - xhat[i] * mean_dxhat_xhat),
                            );
                            dgamma.set(0, j, dgamma.at(0, j) + ge.at(i, j) * xhat[i]);
                            dbeta.set(0, j, dbeta.at(0, j) + ge.at(i, j));
                        }
                    }
                    grads[a.0].add_assign(&da);
                    grads[gamma.0].add_assign(&dgamma);
                    grads[beta.0].add_assign(&dbeta);
                }
                Op::L1Loss(pred, target) => {
                    let p = self.value(*pred);
                    let n = (p.rows() * p.cols()).max(1) as f32;
                    let scale = g.at(0, 0) / n;
                    let dp = p.zip_map(target, |a, b| {
                        if a > b {
                            scale
                        } else if a < b {
                            -scale
                        } else {
                            0.0
                        }
                    });
                    grads[pred.0].add_assign(&dp);
                }
                Op::CrossEntropy(logits, labels) => {
                    let x = self.value(*logits);
                    let (r, c) = x.shape();
                    let scale = g.at(0, 0) / r.max(1) as f32;
                    let mut dx = Tensor::zeros(r, c);
                    for i in 0..r {
                        let row = x.row(i);
                        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
                        for (j, &logit) in row.iter().enumerate() {
                            let p = (logit - max).exp() / sum;
                            let y = if labels[i] == j { 1.0 } else { 0.0 };
                            dx.set(i, j, scale * (p - y));
                        }
                    }
                    grads[logits.0].add_assign(&dx);
                }
            }
        }
        Gradients { grads }
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
    fn linear_relu_matches_unfused_chain() {
        let x = sample(5, 7, 40);
        let w = sample(7, 3, 41);
        let b = sample(1, 3, 42);

        let mut fused = Tape::new();
        let (fx, fw, fb) = (
            fused.leaf(x.clone()),
            fused.leaf(w.clone()),
            fused.leaf(b.clone()),
        );
        let fy = fused.linear_relu(fx, fw, fb);
        let floss = fused.sum(fy);
        let fg = fused.backward(floss);

        let mut unfused = Tape::new();
        let (ux, uw, ub) = (unfused.leaf(x), unfused.leaf(w), unfused.leaf(b));
        let um = unfused.matmul(ux, uw);
        let ua = unfused.add_row(um, ub);
        let uy = unfused.relu(ua);
        let uloss = unfused.sum(uy);
        let ug = unfused.backward(uloss);

        for (a, c) in fused
            .value(fy)
            .as_slice()
            .iter()
            .zip(unfused.value(uy).as_slice())
        {
            assert_eq!(a.to_bits(), c.to_bits());
        }
        for (v_f, v_u) in [(fx, ux), (fw, uw), (fb, ub)] {
            for (a, c) in fg.wrt(v_f).as_slice().iter().zip(ug.wrt(v_u).as_slice()) {
                assert_eq!(a.to_bits(), c.to_bits());
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
