//! Deterministic (point-mass) distribution.
//!
//! Deterministic processing times recover the classical deterministic
//! scheduling results (Smith's rule) as a special case of the stochastic
//! model, and are used as the zero-variance anchor in SCV sweeps.

use crate::traits::{DistKind, ServiceDistribution};
use rand::RngCore;

/// Point mass at `value >= 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Create a point mass at `value`.
    pub fn new(value: f64) -> Self {
        assert!(
            value >= 0.0 && value.is_finite(),
            "value must be nonnegative and finite"
        );
        Self { value }
    }
}

impl ServiceDistribution for Deterministic {
    fn kind(&self) -> DistKind {
        DistKind::Deterministic
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.value
    }

    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }

    fn pdf(&self, _x: f64) -> f64 {
        0.0
    }

    fn describe(&self) -> String {
        format!("Det({:.4})", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn basics() {
        let d = Deterministic::new(3.0);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.scv(), 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 3.0);
        assert_eq!(d.cdf(2.999), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
    }
}
