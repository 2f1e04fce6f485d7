//! Hyperexponential distribution (probabilistic mixture of exponentials).
//!
//! Hyperexponentials have decreasing hazard rate (DHR) and squared
//! coefficient of variation greater than one; they are the canonical "high
//! variability" family.  Under DHR processing times the preemptive
//! Sevcik/Gittins index strictly beats nonpreemptive WSEPT (experiment E2)
//! and LEPT becomes the right makespan rule on parallel machines.

use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// Mixture `sum_i p_i * Exp(rate_i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperExponential {
    probs: Vec<f64>,
    rates: Vec<f64>,
}

impl HyperExponential {
    /// Create from branch probabilities (must sum to 1) and branch rates.
    pub fn new(probs: Vec<f64>, rates: Vec<f64>) -> Self {
        assert_eq!(probs.len(), rates.len(), "probs/rates length mismatch");
        assert!(!probs.is_empty(), "need at least one branch");
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probabilities must sum to 1, got {total}"
        );
        assert!(
            probs.iter().all(|&p| p >= 0.0),
            "probabilities must be nonnegative"
        );
        assert!(
            rates.iter().all(|&r| r > 0.0 && r.is_finite()),
            "rates must be positive"
        );
        Self { probs, rates }
    }

    /// Two-branch hyperexponential with the given mean and squared
    /// coefficient of variation `scv > 1`, using balanced means
    /// (`p1/rate1 = p2/rate2`), the standard parameterisation in queueing
    /// studies.
    pub fn with_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        assert!(scv > 1.0, "hyperexponential requires scv > 1");
        let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
        let r1 = 2.0 * p / mean;
        let r2 = 2.0 * (1.0 - p) / mean;
        Self::new(vec![p, 1.0 - p], vec![r1, r2])
    }
}

impl ServiceDistribution for HyperExponential {
    fn kind(&self) -> DistKind {
        DistKind::HyperExponential
    }

    fn mean(&self) -> f64 {
        self.probs.iter().zip(&self.rates).map(|(p, r)| p / r).sum()
    }

    fn variance(&self) -> f64 {
        self.second_moment() - self.mean().powi(2)
    }

    fn second_moment(&self) -> f64 {
        self.probs
            .iter()
            .zip(&self.rates)
            .map(|(p, r)| 2.0 * p / (r * r))
            .sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>();
        let mut acc = 0.0;
        let mut idx = self.probs.len() - 1;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u <= acc {
                idx = i;
                break;
            }
        }
        let v: f64 = rng.gen::<f64>();
        -(1.0 - v).ln() / self.rates[idx]
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        1.0 - self
            .probs
            .iter()
            .zip(&self.rates)
            .map(|(p, r)| p * (-r * x).exp())
            .sum::<f64>()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        self.probs
            .iter()
            .zip(&self.rates)
            .map(|(p, r)| p * r * (-r * x).exp())
            .sum()
    }

    fn describe(&self) -> String {
        format!(
            "H{}(mean={:.4}, scv={:.3})",
            self.probs.len(),
            self.mean(),
            self.scv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::sample_stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mean_scv_constructor_hits_targets() {
        for &(mean, scv) in &[(1.0, 2.0), (0.5, 4.0), (3.0, 10.0)] {
            let d = HyperExponential::with_mean_scv(mean, scv);
            assert!(
                (d.mean() - mean).abs() < 1e-9,
                "mean {} vs {}",
                d.mean(),
                mean
            );
            assert!((d.scv() - scv).abs() < 1e-6, "scv {} vs {}", d.scv(), scv);
        }
    }

    #[test]
    fn hazard_is_decreasing() {
        let d = HyperExponential::with_mean_scv(1.0, 5.0);
        let hs: Vec<f64> = (0..40).map(|i| d.hazard(i as f64 * 0.2)).collect();
        for w in hs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "hazard must be nonincreasing: {:?}", w);
        }
    }

    #[test]
    fn sampling_matches_moments() {
        let d = HyperExponential::with_mean_scv(2.0, 3.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let xs: Vec<f64> = (0..300_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = sample_stats(&xs);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((v - 12.0).abs() < 0.6, "var {v} expected 12");
    }

    #[test]
    fn cdf_limits() {
        let d = HyperExponential::new(vec![0.3, 0.7], vec![1.0, 5.0]);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(1e6) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probabilities() {
        let _ = HyperExponential::new(vec![0.3, 0.3], vec![1.0, 1.0]);
    }
}
