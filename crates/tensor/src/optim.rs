//! Parameter store and optimizers (SGD, Adam).
//!
//! Training loops in this workspace rebuild the autograd tape every step; the
//! long-lived state — parameter tensors and optimizer moments — lives in a
//! [`ParamStore`]. A step looks like:
//!
//! ```
//! use mega_tensor::{Adam, Optimizer, ParamStore, Tape, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Tensor::full(2, 2, 1.0));
//! let mut opt = Adam::new(0.1);
//!
//! for _ in 0..3 {
//!     let mut tape = Tape::new();
//!     let wv = store.leaf(&mut tape, w);
//!     let loss = {
//!         let sq = tape.mul(wv, wv);
//!         tape.mean(sq)
//!     };
//!     let grads = tape.backward(loss);
//!     store.accumulate(w, grads.wrt(wv));
//!     opt.step(&mut store);
//! }
//! assert!(store.get(w).norm() < 2.0); // weights shrank toward 0
//! ```

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
// mega-lint: allow(unordered-collection, reason = "name->id lookup only; iteration uses the ordered Vec fields")
use std::collections::HashMap;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Owns parameter tensors, their accumulated gradients, and names.
#[derive(Debug, Default)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
    // mega-lint: allow(unordered-collection, reason = "name->id lookup only; never iterated")
    by_name: HashMap<String, ParamId>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        assert!(
            !self.by_name.contains_key(name),
            "parameter `{name}` registered twice"
        );
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters (the paper's "parameter
    /// volume", Table I).
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(|t| t.rows() * t.cols()).sum()
    }

    /// The current value of `p`.
    pub fn get(&self, p: ParamId) -> &Tensor {
        &self.values[p.0]
    }

    /// Overwrites the value of `p`.
    ///
    /// # Panics
    ///
    /// Panics if the shape changes.
    pub fn set(&mut self, p: ParamId, value: Tensor) {
        assert_eq!(
            self.values[p.0].shape(),
            value.shape(),
            "parameter shape is fixed"
        );
        self.values[p.0] = value;
    }

    /// Looks a parameter up by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// The name of `p`.
    pub fn name_of(&self, p: ParamId) -> &str {
        &self.names[p.0]
    }

    /// Places a copy of the parameter's current value on a tape as a leaf.
    pub fn leaf(&self, tape: &mut Tape, p: ParamId) -> Var {
        tape.leaf_copy(&self.values[p.0])
    }

    /// Adds `grad` into the accumulated gradient of `p`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, p: ParamId, grad: &Tensor) {
        self.grads[p.0].add_assign(grad);
    }

    /// The accumulated gradient of `p`.
    pub fn grad(&self, p: ParamId) -> &Tensor {
        &self.grads[p.0]
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.as_mut_slice().fill(0.0);
        }
    }

    /// Global gradient-norm clipping: if the L2 norm over all grads exceeds
    /// `max_norm`, scales every grad down proportionally. Returns the norm
    /// before clipping.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let total: f32 = self
            .grads
            .iter()
            .map(|g| g.norm().powi(2))
            .sum::<f32>()
            .sqrt();
        if total > max_norm && total > 0.0 {
            let k = max_norm / total;
            for g in &mut self.grads {
                *g = g.scale(k);
            }
        }
        total
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }
}

/// An optimizer updates all parameters of a store from their accumulated
/// gradients and zeroes the gradients.
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, store: &mut ParamStore);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (schedulers).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        if self.velocity.len() != store.len() {
            self.velocity = store
                .ids()
                .map(|p| {
                    let t = store.get(p);
                    Tensor::zeros(t.rows(), t.cols())
                })
                .collect();
        }
        for (i, p) in store.ids().enumerate() {
            let g = store.grad(p).clone();
            let v = if self.momentum > 0.0 {
                let v = self.velocity[i].scale(self.momentum).add(&g);
                self.velocity[i] = v.clone();
                v
            } else {
                g
            };
            let updated = store.get(p).sub(&v.scale(self.lr));
            store.set(p, updated);
        }
        store.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with explicit hyperparameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        if self.m.len() != store.len() {
            let zeros: Vec<Tensor> = store
                .ids()
                .map(|p| {
                    let t = store.get(p);
                    Tensor::zeros(t.rows(), t.cols())
                })
                .collect();
            self.m = zeros.clone();
            self.v = zeros;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in store.ids().enumerate() {
            let g = store.grad(p);
            self.m[i] = self.m[i].scale(self.beta1).add(&g.scale(1.0 - self.beta1));
            self.v[i] = self.v[i]
                .scale(self.beta2)
                .add(&g.mul(g).scale(1.0 - self.beta2));
            let mhat = self.m[i].scale(1.0 / bc1);
            let vhat = self.v[i].scale(1.0 / bc2);
            let update = mhat.zip_map(&vhat, |mm, vv| mm / (vv.sqrt() + self.eps));
            let updated = store.get(p).sub(&update.scale(self.lr));
            store.set(p, updated);
        }
        store.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step(store: &mut ParamStore, p: ParamId) -> f32 {
        // loss = mean((w - 3)^2); minimum at w = 3.
        let mut tape = Tape::new();
        let w = store.leaf(&mut tape, p);
        let target = tape.leaf(Tensor::full(2, 2, 3.0));
        let d = tape.sub(w, target);
        let sq = tape.mul(d, d);
        let loss = tape.mean(sq);
        let lv = tape.value(loss).at(0, 0);
        let grads = tape.backward(loss);
        store.accumulate(p, grads.wrt(w));
        lv
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::zeros(2, 2));
        let mut opt = Sgd::new(0.5);
        let mut last = f32::MAX;
        for _ in 0..50 {
            last = quadratic_step(&mut store, p);
            opt.step(&mut store);
        }
        assert!(last < 1e-4, "loss {last}");
        assert!((store.get(p).at(0, 0) - 3.0).abs() < 0.01);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::zeros(2, 2));
        let mut opt = Adam::new(0.2);
        let mut last = f32::MAX;
        for _ in 0..200 {
            last = quadratic_step(&mut store, p);
            opt.step(&mut store);
        }
        assert!(last < 1e-3, "loss {last}");
    }

    #[test]
    fn momentum_accelerates_sgd() {
        let run = |mut opt: Sgd| {
            let mut store = ParamStore::new();
            let p = store.register("w", Tensor::zeros(2, 2));
            let mut last = 0.0;
            for _ in 0..10 {
                last = quadratic_step(&mut store, p);
                opt.step(&mut store);
            }
            last
        };
        let plain = run(Sgd::new(0.05));
        let momo = run(Sgd::with_momentum(0.05, 0.9));
        assert!(momo < plain);
    }

    #[test]
    fn register_rejects_duplicates() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(1, 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.register("w", Tensor::zeros(1, 1));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn name_lookup_and_counts() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::zeros(2, 3));
        let b = store.register("b", Tensor::zeros(4, 1));
        assert_eq!(store.id_of("a"), Some(a));
        assert_eq!(store.id_of("missing"), None);
        assert_eq!(store.name_of(b), "b");
        assert_eq!(store.scalar_count(), 10);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn grad_clipping_scales_down() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::zeros(1, 2));
        store.accumulate(p, &Tensor::from_rows(&[&[3.0, 4.0]])); // norm 5
        let before = store.clip_grad_norm(1.0);
        assert!((before - 5.0).abs() < 1e-5);
        assert!((store.grad(p).norm() - 1.0).abs() < 1e-5);
        // Below the cap nothing changes.
        let before = store.clip_grad_norm(10.0);
        assert!((before - 1.0).abs() < 1e-5);
        assert!((store.grad(p).norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_grads_resets() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::zeros(1, 1));
        store.accumulate(p, &Tensor::full(1, 1, 2.0));
        store.zero_grads();
        assert_eq!(store.grad(p).at(0, 0), 0.0);
    }
}
