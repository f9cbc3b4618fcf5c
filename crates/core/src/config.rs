//! MEGA preprocessing configuration.

use crate::error::MegaError;
use serde::{Deserialize, Serialize};

/// How the traversal window ω is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WindowPolicy {
    /// Use a fixed window size.
    Fixed(usize),
    /// Derive the window from the graph's mean degree (the paper's adaptive
    /// diagonal attention, §III-C), clamped to `[min, max]`.
    Adaptive {
        /// Smallest window allowed.
        min: usize,
        /// Largest window allowed.
        max: usize,
    },
}

impl Default for WindowPolicy {
    fn default() -> Self {
        WindowPolicy::Adaptive { min: 1, max: 16 }
    }
}

/// How the next node is picked among the filtered candidate pool.
///
/// The paper's policy is [`CandidatePolicy::CorrelateArgmax`] (Eq. 2); the
/// others exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CandidatePolicy {
    /// Pick the candidate maximizing overlap with the last ω path entries
    /// (ties broken toward the smallest node id). The paper's Eq. 2.
    #[default]
    CorrelateArgmax,
    /// Pick the smallest-id candidate (no correlation objective).
    FirstCandidate,
    /// Pick a pseudo-random candidate (seeded from the config seed and step).
    Random,
}

/// Configuration for MEGA preprocessing.
///
/// # Example
///
/// ```
/// use mega_core::{MegaConfig, WindowPolicy};
///
/// # fn main() -> Result<(), mega_core::MegaError> {
/// let cfg = MegaConfig::default()
///     .with_window(WindowPolicy::Fixed(2))
///     .with_coverage(0.9)
///     .with_edge_drop(0.2);
/// cfg.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MegaConfig {
    /// Window policy (ω selection).
    pub window: WindowPolicy,
    /// Edge coverage target θ ∈ (0, 1]: traversal continues until this
    /// fraction of (post-drop) edges is covered by the band.
    pub coverage: f64,
    /// Fraction of edges dropped before traversal (0 disables; §IV-B5 uses
    /// 0.2).
    pub edge_drop: f64,
    /// Candidate-selection policy (Eq. 2 by default).
    pub policy: CandidatePolicy,
    /// Seed for stochastic choices (edge dropping, `CandidatePolicy::Random`,
    /// start-node ties).
    pub seed: u64,
}

impl Default for MegaConfig {
    fn default() -> Self {
        MegaConfig {
            window: WindowPolicy::default(),
            coverage: 1.0,
            edge_drop: 0.0,
            policy: CandidatePolicy::default(),
            seed: 0x4d454741, // "MEGA"
        }
    }
}

impl MegaConfig {
    /// Sets the window policy.
    pub fn with_window(mut self, window: WindowPolicy) -> Self {
        self.window = window;
        self
    }

    /// Sets the edge coverage target θ.
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        self.coverage = coverage;
        self
    }

    /// Sets the edge-drop fraction.
    pub fn with_edge_drop(mut self, edge_drop: f64) -> Self {
        self.edge_drop = edge_drop;
        self
    }

    /// Sets the candidate policy.
    pub fn with_policy(mut self, policy: CandidatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// [`MegaError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), MegaError> {
        match self.window {
            WindowPolicy::Fixed(0) => {
                return Err(MegaError::InvalidConfig {
                    field: "window",
                    reason: "fixed window must be >= 1".into(),
                });
            }
            WindowPolicy::Adaptive { min, max } if min == 0 || min > max => {
                return Err(MegaError::InvalidConfig {
                    field: "window",
                    reason: format!(
                        "adaptive bounds must satisfy 1 <= min <= max, got [{min}, {max}]"
                    ),
                });
            }
            _ => {}
        }
        if !(self.coverage > 0.0 && self.coverage <= 1.0) {
            return Err(MegaError::InvalidConfig {
                field: "coverage",
                reason: format!("coverage {} not in (0, 1]", self.coverage),
            });
        }
        if !(0.0..1.0).contains(&self.edge_drop) {
            return Err(MegaError::InvalidConfig {
                field: "edge_drop",
                reason: format!("edge_drop {} not in [0, 1)", self.edge_drop),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MegaConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_window() {
        let cfg = MegaConfig::default().with_window(WindowPolicy::Fixed(0));
        assert!(matches!(
            cfg.validate(),
            Err(MegaError::InvalidConfig {
                field: "window",
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_adaptive_bounds() {
        let cfg = MegaConfig::default().with_window(WindowPolicy::Adaptive { min: 8, max: 2 });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_coverage_and_drop() {
        assert!(MegaConfig::default().with_coverage(0.0).validate().is_err());
        assert!(MegaConfig::default().with_coverage(1.2).validate().is_err());
        assert!(MegaConfig::default()
            .with_edge_drop(1.0)
            .validate()
            .is_err());
        assert!(MegaConfig::default()
            .with_edge_drop(-0.1)
            .validate()
            .is_err());
        assert!(MegaConfig::default()
            .with_edge_drop(0.999)
            .validate()
            .is_ok());
    }

    #[test]
    fn builder_chains() {
        let cfg = MegaConfig::default()
            .with_window(WindowPolicy::Fixed(3))
            .with_coverage(0.5)
            .with_policy(CandidatePolicy::Random)
            .with_seed(42);
        assert_eq!(cfg.window, WindowPolicy::Fixed(3));
        assert_eq!(cfg.coverage, 0.5);
        assert_eq!(cfg.policy, CandidatePolicy::Random);
        assert_eq!(cfg.seed, 42);
    }
}
