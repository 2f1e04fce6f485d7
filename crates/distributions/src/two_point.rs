//! Two-point distributions.
//!
//! The survey highlights (citing Coffman–Hofri–Weiss 1989) that on two
//! parallel machines with two-point processing times the simple index rules
//! (SEPT/LEPT) are *not* optimal in general; experiment E5 reproduces that
//! counterexample regime, so this family gets first-class support.

use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// `P(X = low) = p`, `P(X = high) = 1 - p`, with `0 <= low < high`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPoint {
    p_low: f64,
    low: f64,
    high: f64,
}

impl TwoPoint {
    /// Create a two-point distribution.
    pub fn new(p_low: f64, low: f64, high: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_low), "p_low must be a probability");
        assert!(
            low >= 0.0 && high > low && high.is_finite(),
            "need 0 <= low < high"
        );
        Self { p_low, low, high }
    }

    /// Probability of the low value.
    pub fn p_low(&self) -> f64 {
        self.p_low
    }

    /// The low support point.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// The high support point.
    pub fn high(&self) -> f64 {
        self.high
    }
}

impl ServiceDistribution for TwoPoint {
    fn kind(&self) -> DistKind {
        DistKind::TwoPoint
    }

    fn mean(&self) -> f64 {
        self.p_low * self.low + (1.0 - self.p_low) * self.high
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.p_low * (self.low - m).powi(2) + (1.0 - self.p_low) * (self.high - m).powi(2)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        if rng.gen::<f64>() < self.p_low {
            self.low
        } else {
            self.high
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.low {
            0.0
        } else if x < self.high {
            self.p_low
        } else {
            1.0
        }
    }

    fn pdf(&self, _x: f64) -> f64 {
        0.0
    }

    fn describe(&self) -> String {
        format!(
            "TwoPoint(p={:.3}: {:.3}|{:.3})",
            self.p_low, self.low, self.high
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
        let d = TwoPoint::new(0.75, 1.0, 5.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        // var = 0.75*(1-2)^2 + 0.25*(5-2)^2 = 0.75 + 2.25 = 3
        assert!((d.variance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequencies() {
        let d = TwoPoint::new(0.3, 1.0, 2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 100_000;
        let lows = (0..n).filter(|_| d.sample(&mut rng) == 1.0).count();
        let frac = lows as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn cdf_steps() {
        let d = TwoPoint::new(0.2, 2.0, 3.0);
        assert_eq!(d.cdf(1.9), 0.0);
        assert_eq!(d.cdf(2.0), 0.2);
        assert_eq!(d.cdf(2.9), 0.2);
        assert_eq!(d.cdf(3.0), 1.0);
    }
}
