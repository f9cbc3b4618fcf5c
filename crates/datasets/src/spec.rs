//! Dataset generation parameters.

/// Split sizes and seed for a dataset generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Training sample count.
    pub train: usize,
    /// Validation sample count.
    pub val: usize,
    /// Test sample count.
    pub test: usize,
    /// Random seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// The paper's CSL split sizes (90/30/30).
    pub fn paper_csl(seed: u64) -> Self {
        DatasetSpec {
            train: 90,
            val: 30,
            test: 30,
            seed,
        }
    }

    /// A small split for CPU-scale experiments (400/80/80).
    pub fn small(seed: u64) -> Self {
        DatasetSpec {
            train: 400,
            val: 80,
            test: 80,
            seed,
        }
    }

    /// A tiny split for unit tests (24/8/8).
    pub fn tiny(seed: u64) -> Self {
        DatasetSpec {
            train: 24,
            val: 8,
            test: 8,
            seed,
        }
    }
}

impl Default for DatasetSpec {
    fn default() -> Self {
        DatasetSpec::small(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_csl_split_sizes_match_table_ii() {
        let s = DatasetSpec::paper_csl(0);
        assert_eq!((s.train, s.val, s.test), (90, 30, 30));
    }

    #[test]
    fn default_is_small() {
        assert_eq!(DatasetSpec::default(), DatasetSpec::small(0));
    }
}
