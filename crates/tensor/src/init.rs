//! Weight initializers.

use crate::tensor::Tensor;
use rand::Rng;

/// Xavier/Glorot uniform initialization: samples from
/// `U(-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
///
/// # Example
///
/// ```
/// use mega_tensor::init;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let w = init::xavier_uniform(64, 32, &mut rng);
/// assert_eq!(w.shape(), (64, 32));
/// ```
pub fn xavier_uniform<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Tensor {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..bound))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_values_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(100, 50, &mut rng);
        let bound = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= bound));
        // Non-degenerate.
        assert!(w.norm() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
