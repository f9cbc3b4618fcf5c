//! Task metrics.

use mega_tensor::Tensor;

/// Mean absolute error between a prediction column and targets.
///
/// Empty inputs yield `0.0` (never `NaN`): an empty evaluation split
/// contributes a neutral value to the graph-weighted averages in
/// [`crate::Trainer::run_with`]'s evaluation, which weight it by zero graphs
/// anyway.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mae(pred: &Tensor, target: &Tensor) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "mae shape mismatch");
    let n = pred.as_slice().len().max(1) as f64;
    pred.as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(&a, &b)| (a - b).abs() as f64)
        .sum::<f64>()
        / n
}

/// Classification accuracy of row-wise argmax against labels.
///
/// Empty labels yield `0.0` by contract (never `NaN` from `0/0`) — the
/// deliberate neutral value for the zero-graph case, mirroring [`mae`];
/// callers that must distinguish "no data" from "all wrong" should check
/// emptiness first.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(j, _)| j)
            .unwrap_or(0);
        if argmax == label {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_known_value() {
        let p = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let t = Tensor::from_rows(&[&[0.0], &[4.0]]);
        assert!((mae(&p, &t) - 1.5).abs() < 1e-9);
        assert_eq!(mae(&p, &p), 0.0);
    }

    #[test]
    fn accuracy_known_value() {
        let logits = Tensor::from_rows(&[&[0.1, 0.9], &[0.8, 0.2], &[0.3, 0.7]]);
        assert!((accuracy(&logits, &[1, 0, 0]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&logits, &[1, 0, 1]), 1.0);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        let logits = Tensor::zeros(0, 2);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }
}
