//! General finite discrete distribution on nonnegative support points.
//!
//! Discrete-state processing times are what the bandit and MDP formulations
//! in §2 of the survey work with; they also let the exact dynamic programs
//! in `ss-batch` enumerate completions exactly.

use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// `P(X = values[i]) = probs[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    values: Vec<f64>,
    probs: Vec<f64>,
    cum: Vec<f64>,
}

impl DiscreteDist {
    /// Create from support points and probabilities (must sum to 1).
    /// Support points are sorted internally; duplicates are merged.
    pub fn new(values: Vec<f64>, probs: Vec<f64>) -> Self {
        assert_eq!(values.len(), probs.len(), "values/probs length mismatch");
        assert!(!values.is_empty(), "need at least one support point");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "support must be nonnegative"
        );
        assert!(
            probs.iter().all(|p| *p >= -1e-12),
            "probabilities must be nonnegative"
        );
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probabilities must sum to 1, got {total}"
        );

        let mut pairs: Vec<(f64, f64)> = values.into_iter().zip(probs).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(pairs.len());
        for (v, p) in pairs {
            if let Some(last) = merged.last_mut() {
                if (last.0 - v).abs() < 1e-12 {
                    last.1 += p;
                    continue;
                }
            }
            merged.push((v, p));
        }
        let values: Vec<f64> = merged.iter().map(|x| x.0).collect();
        let probs: Vec<f64> = merged.iter().map(|x| x.1.max(0.0)).collect();
        let mut cum = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cum.push(acc);
        }
        Self { values, probs, cum }
    }

    /// Support points (sorted).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Probabilities aligned with [`DiscreteDist::values`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

impl ServiceDistribution for DiscreteDist {
    fn kind(&self) -> DistKind {
        DistKind::Discrete
    }

    fn mean(&self) -> f64 {
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| v * p)
            .sum()
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| p * (v - m) * (v - m))
            .sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>();
        match self.cum.iter().position(|&c| u <= c) {
            Some(i) => self.values[i],
            None => *self.values.last().unwrap(),
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for (v, p) in self.values.iter().zip(&self.probs) {
            if *v <= x {
                acc += p;
            } else {
                break;
            }
        }
        acc
    }

    fn pdf(&self, _x: f64) -> f64 {
        0.0
    }

    fn mean_residual(&self, a: f64) -> f64 {
        let sa = self.sf(a);
        if sa <= 0.0 {
            return 0.0;
        }
        let num: f64 = self
            .values
            .iter()
            .zip(&self.probs)
            .filter(|(v, _)| **v > a)
            .map(|(v, p)| p * (v - a))
            .sum();
        num / sa
    }

    fn support_upper(&self) -> f64 {
        *self.values.last().unwrap()
    }

    fn describe(&self) -> String {
        format!(
            "Discrete({} points, mean={:.4})",
            self.values.len(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn moments() {
        let d = DiscreteDist::new(vec![1.0, 2.0, 4.0], vec![0.25, 0.5, 0.25]);
        assert!((d.mean() - 2.25).abs() < 1e-12);
        let var = 0.25 * (1.0f64 - 2.25).powi(2)
            + 0.5 * (2.0f64 - 2.25).powi(2)
            + 0.25 * (4.0f64 - 2.25).powi(2);
        assert!((d.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merges_duplicates_and_sorts() {
        let d = DiscreteDist::new(vec![3.0, 1.0, 3.0], vec![0.25, 0.5, 0.25]);
        assert_eq!(d.values(), &[1.0, 3.0]);
        assert_eq!(d.probs(), &[0.5, 0.5]);
    }

    #[test]
    fn cdf_is_right_continuous_step() {
        let d = DiscreteDist::new(vec![1.0, 2.0], vec![0.4, 0.6]);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.4);
        assert_eq!(d.cdf(1.5), 0.4);
        assert_eq!(d.cdf(2.0), 1.0);
    }

    #[test]
    fn sampling_frequencies() {
        let d = DiscreteDist::new(vec![1.0, 2.0, 3.0], vec![0.2, 0.3, 0.5]);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let x = d.sample(&mut rng);
            counts[(x as usize) - 1] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.5).abs() < 0.01);
    }
}
