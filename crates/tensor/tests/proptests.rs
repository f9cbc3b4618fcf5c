//! Property-based tests for the tensor library and autograd.

use mega_exec::{Backend, BufferPool, ReferenceBackend, SimdBackend};
use mega_tensor::{Tape, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

/// `rows × cols` values from `seed`: uniform in (−2, 2) with both zeros and
/// magnitudes far enough apart to round mixed in.
fn drawn(rows: usize, cols: usize, seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(99);
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = ((state >> 8) as f32 / (1u32 << 24) as f32) * 4.0 - 2.0;
            match (state >> 4) % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => v * 1e4,
                _ => v,
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// The bits of `t`.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One forward and backward of `layer_norm(h + r)` weighted by `w`, fused
/// or as the `add` → `layer_norm` pair: the output, then the gradients of
/// `h`, `r`, `gamma` and `beta`. `r` is a `scale` by 1, an op output whose
/// backward reads only its shape, as a residual's linear output is.
fn residual_norm(backend: Arc<dyn Backend>, inputs: &[Tensor; 5], fused: bool) -> Vec<Vec<u32>> {
    let mut tape = Tape::with_exec(backend, Arc::new(BufferPool::new()));
    let [h, r, gamma, beta, w] = inputs.clone().map(|t| tape.leaf(t));
    let r_out = tape.scale(r, 1.0);
    let y = if fused {
        tape.add_layer_norm(h, r_out, gamma, beta, 1e-5)
    } else {
        let sum = tape.add(h, r_out);
        tape.layer_norm(sum, gamma, beta, 1e-5)
    };
    let weighted = tape.mul(y, w);
    let loss = tape.sum(weighted);
    let mut out = vec![bits(tape.value(y))];
    let grads = tape.backward(loss);
    out.extend([h, r, gamma, beta].map(|v| bits(grads.wrt(v))));
    out
}

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

    /// `add_layer_norm(h, r)` ≡ `layer_norm(add(h, r))` bit for bit — the
    /// output and the gradients of `h`, `r`, `gamma` and `beta` — on the
    /// reference backend and every SIMD tier the host runs, each fused run
    /// held to the reference's unfused pair. Rows are `16q + t` with `t` not
    /// 0 or 8, so every case has rows past the last 8- and 16-row group;
    /// widths are `8p + u`, `u > 0`, so every row has columns past the last
    /// 8-lane block.
    #[test]
    fn add_layer_norm_matches_add_then_layer_norm(
        q in 0usize..3,
        t in (1usize..15).prop_map(|t| if t >= 8 { t + 1 } else { t }),
        p in 0usize..4,
        u in 1usize..8,
        seed in 0u32..u32::MAX,
    ) {
        let (rows, cols) = (16 * q + t, 8 * p + u);
        let inputs = [
            drawn(rows, cols, seed),
            drawn(rows, cols, seed ^ 1),
            drawn(1, cols, seed ^ 2),
            drawn(1, cols, seed ^ 3),
            drawn(rows, cols, seed ^ 4),
        ];
        let want = residual_norm(Arc::new(ReferenceBackend), &inputs, false);
        let mut backends: Vec<(String, Arc<dyn Backend>)> =
            vec![("reference".into(), Arc::new(ReferenceBackend))];
        for simd in SimdBackend::all_on_host() {
            backends.push((format!("simd-{}", simd.tier()), Arc::new(simd)));
        }
        for (name, backend) in backends {
            for fused in [false, true] {
                let got = residual_norm(backend.clone(), &inputs, fused);
                for (what, (g, w)) in ["y", "dh", "dr", "dgamma", "dbeta"].iter().zip(got.iter().zip(&want)) {
                    prop_assert_eq!(g, w, "{} {}x{} fused={} {}", name, rows, cols, fused, what);
                }
            }
        }
    }
}
