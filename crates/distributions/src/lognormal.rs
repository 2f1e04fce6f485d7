//! Log-normal distribution (heavy-ish tails, non-monotone hazard).
//!
//! Log-normal processing times violate both IHR and DHR assumptions, which
//! makes them useful for stress-testing heuristics outside the regimes where
//! index policies are provably optimal.

use crate::special::std_normal_cdf;
use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// Log-normal distribution: `ln X ~ N(mu, sigma^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        assert!(mu.is_finite(), "mu must be finite");
        Self { mu, sigma }
    }

    /// Create with the given mean and squared coefficient of variation.
    pub fn with_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0 && scv > 0.0, "mean and scv must be positive");
        let sigma2 = (1.0 + scv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// Draw a standard normal via Box–Muller using the supplied RNG.
    fn standard_normal(rng: &mut dyn RngCore) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-300);
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl ServiceDistribution for LogNormal {
    fn kind(&self) -> DistKind {
        DistKind::LogNormal
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn describe(&self) -> String {
        format!("LogNormal(mu={:.3}, sigma={:.3})", self.mu, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::sample_stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn with_mean_scv_hits_targets() {
        let d = LogNormal::with_mean_scv(2.0, 1.5);
        assert!((d.mean() - 2.0).abs() < 1e-9);
        assert!((d.scv() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_median() {
        let d = LogNormal::new(0.7, 0.4);
        // The median of a lognormal is exp(mu).
        assert!((d.cdf(0.7f64.exp()) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sampling_matches_mean() {
        let d = LogNormal::with_mean_scv(1.0, 0.8);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let xs: Vec<f64> = (0..300_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = sample_stats(&xs);
        assert!((m - 1.0).abs() < 0.01, "mean {m}");
        assert!((v - 0.8).abs() < 0.05, "var {v}");
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let d = LogNormal::new(0.0, 0.5);
        // Trapezoid integral of pdf over (0, 4] should approximate cdf(4).
        let n = 4000;
        let h = 4.0 / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let a = i as f64 * h;
            let b = a + h;
            acc += 0.5 * (d.pdf(a) + d.pdf(b)) * h;
        }
        assert!((acc - d.cdf(4.0)).abs() < 1e-3);
    }
}
