//! Erlang-k distribution (sum of `k` i.i.d. exponentials).
//!
//! Erlang distributions have increasing hazard rate (IHR) and squared
//! coefficient of variation `1/k < 1`; they are the canonical "low
//! variability" processing-time family used when the SEPT flowtime
//! optimality conditions (common IHR distribution) must hold.

use crate::special::{ln_gamma, reg_lower_gamma, reg_lower_gamma_lanes};
use crate::traits::{DistKind, ServiceDistribution};
use rand::{Rng, RngCore};

/// Erlang distribution with integer shape `k >= 1` and rate `lambda` per
/// stage (mean `k / lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    shape: u32,
    rate: f64,
}

impl Erlang {
    /// Create from the stage count `shape >= 1` and per-stage rate.
    pub fn new(shape: u32, rate: f64) -> Self {
        assert!(shape >= 1, "shape must be >= 1");
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self { shape, rate }
    }

    /// Create an Erlang-`shape` with the given overall mean.
    pub fn with_mean(shape: u32, mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Self::new(shape, shape as f64 / mean)
    }
}

impl ServiceDistribution for Erlang {
    fn kind(&self) -> DistKind {
        DistKind::Erlang
    }

    fn mean(&self) -> f64 {
        self.shape as f64 / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape as f64 / (self.rate * self.rate)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Sum of k exponentials as minus the log of a product of k
        // uniforms. Each factor is at least 2^-53, so a product of more
        // than 16 could underflow to 0 (and the draw to +inf): whenever it
        // falls below 2^-900 it is scaled up by 2^900, exactly, and each
        // scaling adds 900 ln 2 back. A draw that never scales, as no draw
        // of shape <= 16 can, keeps the plain formula's bits.
        const TWO_POW_MINUS_900: f64 = f64::from_bits((1023 - 900) << 52);
        const TWO_POW_900: f64 = f64::from_bits((1023 + 900) << 52);
        let mut prod = 1.0f64;
        let mut scalings = 0u32;
        for _ in 0..self.shape {
            let u: f64 = rng.gen::<f64>();
            prod *= 1.0 - u;
            if prod < TWO_POW_MINUS_900 {
                prod *= TWO_POW_900;
                scalings += 1;
            }
        }
        let e = -prod.ln();
        if scalings == 0 {
            e / self.rate
        } else {
            (e + f64::from(scalings) * 900.0 * std::f64::consts::LN_2) / self.rate
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.shape as f64, self.rate * x)
        }
    }

    /// Four abscissae at a time through the lane kernel, with `ln Γ(k)`
    /// computed once per call; the remainder goes through `sf`. Every value
    /// has the bits of `sf`: `cdf` returns 0 for `x <= 0`, and so does the
    /// kernel for `rate·x <= 0`, which that implies for a positive finite
    /// rate.
    fn sf_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "sf_batch needs one output per abscissa"
        );
        let a = self.shape as f64;
        let ln_gamma_a = ln_gamma(a);
        let mut xs = xs.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (x, o) in (&mut xs).zip(&mut outs) {
            let x = [x[0], x[1], x[2], x[3]].map(|x| self.rate * x);
            let p = reg_lower_gamma_lanes(a, ln_gamma_a, x);
            for (o, p) in o.iter_mut().zip(p) {
                *o = (1.0 - p).max(0.0);
            }
        }
        for (o, &x) in outs.into_remainder().iter_mut().zip(xs.remainder()) {
            *o = self.sf(x);
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let k = self.shape as f64;
        let lx = self.rate * x;
        if x == 0.0 {
            return if self.shape == 1 { self.rate } else { 0.0 };
        }
        // rate^k x^(k-1) e^{-rate x} / (k-1)!
        let ln_fact: f64 = (1..self.shape).map(|i| (i as f64).ln()).sum();
        (k * self.rate.ln() + (k - 1.0) * x.ln() - lx - ln_fact).exp()
    }

    fn describe(&self) -> String {
        format!("Erlang(k={}, rate={:.4})", self.shape, self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::sample_stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn moments_and_scv() {
        let d = Erlang::new(4, 2.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.variance() - 1.0).abs() < 1e-12);
        assert!((d.scv() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn with_mean_constructor() {
        let d = Erlang::with_mean(3, 6.0);
        assert!((d.mean() - 6.0).abs() < 1e-12);
        assert_eq!(d.shape, 3);
    }

    #[test]
    fn erlang1_is_exponential() {
        let e = Erlang::new(1, 0.7);
        let x = crate::Exponential::new(0.7);
        for &t in &[0.1, 0.5, 1.0, 3.0] {
            assert!((e.cdf(t) - x.cdf(t)).abs() < 1e-10);
            assert!((e.pdf(t) - x.pdf(t)).abs() < 1e-10);
        }
    }

    #[test]
    fn cdf_at_infinity_is_one() {
        let d = Erlang::new(3, 1.5);
        assert_eq!(d.cdf(f64::INFINITY), 1.0);
        assert_eq!(d.sf(f64::INFINITY), 0.0);
    }

    #[test]
    fn cdf_pdf_consistency() {
        let d = Erlang::new(3, 1.5);
        let x = 2.0;
        let h = 1e-5;
        let num = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
        assert!((num - d.pdf(x)).abs() < 1e-5);
    }

    #[test]
    fn sampling_matches_moments() {
        let d = Erlang::new(5, 2.5);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = sample_stats(&xs);
        assert!((m - 2.0).abs() < 0.02, "mean {m}");
        assert!((v - 0.8).abs() < 0.03, "var {v}");
    }

    /// A product of 1,000 uniforms underflows to 0: before the rescaling,
    /// every draw of shape 1,000 was `+inf`.
    #[test]
    fn large_shapes_draw_finite_samples_with_the_right_mean() {
        let d = Erlang::new(1000, 1000.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1000);
        let xs: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|x| x.is_finite()));
        let (m, _) = sample_stats(&xs);
        assert!((m - 1.0).abs() < 0.01, "mean {m}");
    }

    /// Small shapes never rescale, so their draws keep the bits of the
    /// plain product formula.
    #[test]
    fn small_shapes_keep_the_plain_formula_bits() {
        let d = Erlang::new(4, 2.5);
        for seed in [3, 4, 5] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut twin = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..10_000 {
                let prod = (0..4).fold(1.0f64, |p, _| p * (1.0 - twin.gen::<f64>()));
                let want = -prod.ln() / 2.5;
                assert_eq!(d.sample(&mut rng).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn hazard_is_increasing() {
        let d = Erlang::new(4, 1.0);
        let hs: Vec<f64> = (1..40).map(|i| d.hazard(i as f64 * 0.25)).collect();
        for w in hs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "hazard must be nondecreasing: {:?}", w);
        }
    }
}
