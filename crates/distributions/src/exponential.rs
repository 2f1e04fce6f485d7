//! Exponential distribution — the memoryless workhorse of stochastic
//! scheduling (SEPT/LEPT optimality, M/M/· queues, bandit transition clocks).

use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create from the rate parameter `lambda > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive and finite"
        );
        Self { rate }
    }

    /// Create from the mean `1/lambda`.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "mean must be positive and finite"
        );
        Self { rate: 1.0 / mean }
    }

    /// The rate parameter `lambda`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ServiceDistribution for Exponential {
    fn kind(&self) -> DistKind {
        DistKind::Exponential
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Inverse transform; 1 - U avoids ln(0).
        let u: f64 = rng.gen::<f64>();
        -(1.0 - u).ln() / self.rate
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn hazard(&self, _x: f64) -> f64 {
        self.rate
    }

    fn exponential_rate(&self) -> Option<f64> {
        Some(self.rate)
    }

    fn mean_residual(&self, _a: f64) -> f64 {
        // Memorylessness: the residual life is again Exp(rate).
        1.0 / self.rate
    }

    fn completion_rate(&self, _a: f64, delta: f64) -> f64 {
        1.0 - (-self.rate * delta).exp()
    }

    fn describe(&self) -> String {
        format!("Exp(rate={:.4})", self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::sample_stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn moments() {
        let d = Exponential::new(4.0);
        assert!((d.mean() - 0.25).abs() < 1e-12);
        assert!((d.variance() - 0.0625).abs() < 1e-12);
        assert!((d.second_moment() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn cdf_pdf_consistency() {
        let d = Exponential::with_mean(2.0);
        assert!(d.cdf(-1.0).abs() < 1e-12);
        assert!((d.cdf(f64::INFINITY) - 1.0).abs() < 1e-12);
        // Numeric derivative of CDF matches pdf.
        let x = 1.3;
        let h = 1e-6;
        let num = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
        assert!((num - d.pdf(x)).abs() < 1e-6);
    }

    #[test]
    fn sampling_matches_moments() {
        let d = Exponential::new(0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = sample_stats(&xs);
        assert!((m - 2.0).abs() < 0.03, "sample mean {m}");
        assert!((v - 4.0).abs() < 0.15, "sample var {v}");
    }

    #[test]
    fn memoryless_hazard_constant() {
        let d = Exponential::new(3.0);
        for a in [0.0, 0.1, 1.0, 10.0] {
            assert!((d.hazard(a) - 3.0).abs() < 1e-12);
            assert!((d.mean_residual(a) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_rate() {
        let _ = Exponential::new(0.0);
    }
}
