//! Continuous uniform distribution on `[a, b]`.

use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// Uniform distribution on the interval `[low, high]`, `0 <= low < high`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[low, high]`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low >= 0.0 && high > low && high.is_finite(),
            "need 0 <= low < high < inf"
        );
        Self { low, high }
    }
}

impl ServiceDistribution for Uniform {
    fn kind(&self) -> DistKind {
        DistKind::Uniform
    }

    fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }

    fn variance(&self) -> f64 {
        let w = self.high - self.low;
        w * w / 12.0
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        rng.gen_range(self.low..self.high)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.low {
            0.0
        } else if x >= self.high {
            1.0
        } else {
            (x - self.low) / (self.high - self.low)
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < self.low || x > self.high {
            0.0
        } else {
            1.0 / (self.high - self.low)
        }
    }

    fn describe(&self) -> String {
        format!("U[{:.4},{:.4}]", self.low, self.high)
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
        let d = Uniform::new(1.0, 3.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.variance() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_within_support_and_moments() {
        let d = Uniform::new(0.5, 2.5);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| (0.5..2.5).contains(&x)));
        let (m, v) = sample_stats(&xs);
        assert!((m - 1.5).abs() < 0.01);
        assert!((v - 4.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn uniform_is_ihr() {
        // The uniform hazard 1/(high - x) is increasing on the support.
        let d = Uniform::new(0.0, 1.0);
        let h1 = d.hazard(0.1);
        let h2 = d.hazard(0.5);
        let h3 = d.hazard(0.9);
        assert!(h1 < h2 && h2 < h3);
    }
}
