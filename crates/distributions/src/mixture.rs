//! Finite mixtures of arbitrary service distributions.

use crate::traits::{DistKind, ServiceDistribution};
use crate::DynDist;
use rand::{Rng, RngCore};

/// Probabilistic mixture of component distributions.
#[derive(Debug, Clone)]
pub struct Mixture {
    weights: Vec<f64>,
    components: Vec<DynDist>,
}

impl Mixture {
    /// Create from weights (must sum to 1) and components.
    pub fn new(weights: Vec<f64>, components: Vec<DynDist>) -> Self {
        assert_eq!(
            weights.len(),
            components.len(),
            "weights/components length mismatch"
        );
        assert!(!weights.is_empty(), "need at least one component");
        let total: f64 = weights.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "weights must sum to 1, got {total}"
        );
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be nonnegative"
        );
        Self {
            weights,
            components,
        }
    }

    /// Mixture weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl ServiceDistribution for Mixture {
    fn kind(&self) -> DistKind {
        DistKind::Mixture
    }

    fn mean(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.mean())
            .sum()
    }

    fn variance(&self) -> f64 {
        self.second_moment() - self.mean().powi(2)
    }

    fn second_moment(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.second_moment())
            .sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>();
        let mut acc = 0.0;
        for (w, c) in self.weights.iter().zip(&self.components) {
            acc += w;
            if u <= acc {
                return c.sample(rng);
            }
        }
        self.components.last().unwrap().sample(rng)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.cdf(x))
            .sum()
    }

    fn pdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.pdf(x))
            .sum()
    }

    fn support_upper(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.support_upper())
            .fold(0.0, f64::max)
    }

    fn describe(&self) -> String {
        format!(
            "Mixture({} components, mean={:.4})",
            self.components.len(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dyn_dist, Deterministic, Exponential};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mixture_moments() {
        let m = Mixture::new(
            vec![0.5, 0.5],
            vec![
                dyn_dist(Deterministic::new(1.0)),
                dyn_dist(Deterministic::new(3.0)),
            ],
        );
        assert!((m.mean() - 2.0).abs() < 1e-12);
        assert!((m.variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_of_exponentials_matches_hyperexp() {
        let m = Mixture::new(
            vec![0.3, 0.7],
            vec![
                dyn_dist(Exponential::new(1.0)),
                dyn_dist(Exponential::new(4.0)),
            ],
        );
        let h = crate::HyperExponential::new(vec![0.3, 0.7], vec![1.0, 4.0]);
        for &x in &[0.2, 0.8, 2.0] {
            assert!((m.cdf(x) - h.cdf(x)).abs() < 1e-12);
        }
        assert!((m.mean() - h.mean()).abs() < 1e-12);
        assert!((m.second_moment() - h.second_moment()).abs() < 1e-12);
    }

    #[test]
    fn sampling_stays_reasonable() {
        let m = Mixture::new(
            vec![0.5, 0.5],
            vec![
                dyn_dist(Deterministic::new(2.0)),
                dyn_dist(Exponential::new(1.0)),
            ],
        );
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mean: f64 = (0..100_000).map(|_| m.sample(&mut rng)).sum::<f64>() / 100_000.0;
        assert!((mean - 1.5).abs() < 0.03);
    }
}
