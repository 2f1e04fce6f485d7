//! Weibull distribution.
//!
//! The Weibull family interpolates between DHR (`shape < 1`), exponential
//! (`shape = 1`) and IHR (`shape > 1`) processing times with a single
//! parameter, which makes it convenient for hazard-monotonicity sweeps in
//! the parallel-machine experiments.

use crate::special::gamma;
use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// Weibull distribution with `shape` k and `scale` λ:
/// `F(x) = 1 - exp(-(x/λ)^k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Create from shape `k > 0` and scale `λ > 0`.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self { shape, scale }
    }

    /// Create with the given shape and mean.
    pub fn with_mean(shape: f64, mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        let scale = mean / gamma(1.0 + 1.0 / shape);
        Self::new(shape, scale)
    }
}

impl ServiceDistribution for Weibull {
    fn kind(&self) -> DistKind {
        DistKind::Weibull
    }

    fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    fn variance(&self) -> f64 {
        let g2 = gamma(1.0 + 2.0 / self.shape);
        let g1 = gamma(1.0 + 1.0 / self.shape);
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>();
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = x / self.scale;
        (self.shape / self.scale) * z.powf(self.shape - 1.0) * (-z.powf(self.shape)).exp()
    }

    fn hazard(&self, x: f64) -> f64 {
        if x <= 0.0 {
            if self.shape < 1.0 {
                f64::INFINITY
            } else if self.shape == 1.0 {
                1.0 / self.scale
            } else {
                0.0
            }
        } else {
            (self.shape / self.scale) * (x / self.scale).powf(self.shape - 1.0)
        }
    }

    fn describe(&self) -> String {
        format!("Weibull(k={:.3}, scale={:.3})", self.shape, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::sample_stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0);
        let e = crate::Exponential::new(0.5);
        assert!((w.mean() - 2.0).abs() < 1e-9);
        for &x in &[0.1, 1.0, 3.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn with_mean_hits_target() {
        for &k in &[0.5, 1.5, 3.0] {
            let w = Weibull::with_mean(k, 2.5);
            assert!((w.mean() - 2.5).abs() < 1e-9, "shape {k} mean {}", w.mean());
        }
    }

    #[test]
    fn hazard_monotonicity_by_shape() {
        let ihr = Weibull::new(2.0, 1.0);
        let dhr = Weibull::new(0.5, 1.0);
        assert!(ihr.hazard(0.5) < ihr.hazard(1.0));
        assert!(dhr.hazard(0.5) > dhr.hazard(1.0));
    }

    #[test]
    fn sampling_matches_mean() {
        let w = Weibull::new(1.7, 2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let xs: Vec<f64> = (0..200_000).map(|_| w.sample(&mut rng)).collect();
        let (m, _v) = sample_stats(&xs);
        assert!((m - w.mean()).abs() < 0.02, "mean {m} vs {}", w.mean());
    }
}
