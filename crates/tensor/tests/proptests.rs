//! Property-based tests for the tensor library and autograd.

use mega_tensor::{Tape, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matmul distributes over addition: (A + B)·C = A·C + B·C.
    #[test]
    fn matmul_distributes(a in arb_tensor(3, 4), b in arb_tensor(3, 4), c in arb_tensor(4, 2)) {
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Transpose reverses matmul: (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product(a in arb_tensor(3, 5), b in arb_tensor(5, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// gather then scatter-add with the same index preserves column sums
    /// when every source row is hit exactly once (a permutation).
    #[test]
    fn gather_scatter_permutation_preserves_sums(x in arb_tensor(6, 3), seed in 0u64..1000) {
        let mut perm: Vec<usize> = (0..6).collect();
        // Deterministic Fisher-Yates from the seed.
        let mut state = seed;
        for i in (1..6).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let gathered = x.gather_rows(&perm);
        let back = gathered.scatter_add_rows(&perm, 6);
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// Sum of scatter-add equals sum of input regardless of index pattern.
    #[test]
    fn scatter_add_conserves_mass(
        x in arb_tensor(8, 2),
        idx in proptest::collection::vec(0usize..5, 8),
    ) {
        let out = x.scatter_add_rows(&idx, 5);
        prop_assert!((out.sum() - x.sum()).abs() < 1e-4);
    }

    /// Autograd linearity: grad of sum(k·x) is k everywhere.
    #[test]
    fn grad_of_scaled_sum_is_constant(x in arb_tensor(4, 3), k in -3.0f32..3.0) {
        let mut tape = Tape::new();
        let v = tape.leaf(x);
        let s = tape.scale(v, k);
        let loss = tape.sum(s);
        let grads = tape.backward(loss);
        for &g in grads.wrt(v).as_slice() {
            prop_assert!((g - k).abs() < 1e-5);
        }
    }

    /// Softmax within segments is a probability distribution per column.
    #[test]
    fn segment_softmax_normalizes(
        x in arb_tensor(10, 2),
        segs in proptest::collection::vec(0usize..3, 10),
    ) {
        let mut tape = Tape::new();
        let v = tape.leaf(x);
        let p = tape.segment_softmax(v, Arc::new(segs.clone()), 3);
        let out = tape.value(p);
        for col in 0..2 {
            for seg in 0..3 {
                let members: Vec<usize> = (0..10).filter(|&i| segs[i] == seg).collect();
                if members.is_empty() {
                    continue;
                }
                let total: f32 = members.iter().map(|&i| out.at(i, col)).sum();
                prop_assert!((total - 1.0).abs() < 1e-4, "segment {seg} col {col}: {total}");
                for &i in &members {
                    prop_assert!(out.at(i, col) >= 0.0);
                }
            }
        }
    }

    /// The L1 loss is non-negative and zero iff prediction equals target.
    #[test]
    fn l1_loss_properties(x in arb_tensor(5, 1)) {
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let zero = tape.l1_loss(v, x.clone());
        prop_assert!(tape.value(zero).at(0, 0).abs() < 1e-6);
        let mut shifted = x.clone();
        shifted.as_mut_slice()[0] += 1.0;
        let v2 = tape.leaf(x);
        let nonzero = tape.l1_loss(v2, shifted);
        prop_assert!(tape.value(nonzero).at(0, 0) > 0.0);
    }

    /// Layer norm output rows have (near) zero mean and unit variance under
    /// identity affine parameters.
    #[test]
    fn layer_norm_standardizes(x in arb_tensor(4, 6)) {
        // Skip degenerate constant rows (variance ~ 0 makes the test vacuous).
        for r in 0..4 {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / 6.0;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 6.0;
            prop_assume!(var > 1e-3);
        }
        let mut tape = Tape::new();
        let v = tape.leaf(x);
        let gamma = tape.leaf(Tensor::full(1, 6, 1.0));
        let beta = tape.leaf(Tensor::zeros(1, 6));
        let y = tape.layer_norm(v, gamma, beta, 1e-6);
        let out = tape.value(y);
        for r in 0..4 {
            let row = out.row(r);
            let mean = row.iter().sum::<f32>() / 6.0;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 6.0;
            prop_assert!(mean.abs() < 1e-3);
            prop_assert!((var - 1.0).abs() < 1e-2);
        }
    }
}
