//! The [`ServiceDistribution`] trait: the common interface every
//! processing-time / inter-arrival distribution in the workspace implements.

use rand::RngCore;
use std::fmt;

/// Coarse family tag, used by instance generators and pretty printers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistKind {
    /// Point mass at a single value.
    Deterministic,
    /// Exponential (memoryless).
    Exponential,
    /// Erlang-k (sum of k i.i.d. exponentials); increasing hazard rate.
    Erlang,
    /// Hyperexponential mixture of exponentials; decreasing hazard rate.
    HyperExponential,
    /// Continuous uniform on an interval.
    Uniform,
    /// Two-point discrete distribution.
    TwoPoint,
    /// General finite discrete distribution.
    Discrete,
    /// Weibull.
    Weibull,
    /// Log-normal.
    LogNormal,
    /// Empirical (resampling from observed values).
    Empirical,
    /// Finite mixture of other distributions.
    Mixture,
}

impl fmt::Display for DistKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DistKind::Deterministic => "Deterministic",
            DistKind::Exponential => "Exponential",
            DistKind::Erlang => "Erlang",
            DistKind::HyperExponential => "HyperExponential",
            DistKind::Uniform => "Uniform",
            DistKind::TwoPoint => "TwoPoint",
            DistKind::Discrete => "Discrete",
            DistKind::Weibull => "Weibull",
            DistKind::LogNormal => "LogNormal",
            DistKind::Empirical => "Empirical",
            DistKind::Mixture => "Mixture",
        };
        f.write_str(s)
    }
}

/// A nonnegative random variable modelling a service requirement, processing
/// time, inter-arrival time or switchover time.
///
/// The trait is object-safe so that heterogeneous job sets can be stored as
/// `Arc<dyn ServiceDistribution>`.  Implementations must be cheap to query:
/// the simulators call [`ServiceDistribution::sample`] in their inner loops
/// and the preemptive schedulers call [`ServiceDistribution::hazard`] at
/// every decision epoch.
pub trait ServiceDistribution: Send + Sync + fmt::Debug {
    /// Family tag.
    fn kind(&self) -> DistKind;

    /// First moment `E[X]`.  Must be finite and strictly positive for all
    /// distributions used as processing times.
    fn mean(&self) -> f64;

    /// Variance `Var[X]`.
    fn variance(&self) -> f64;

    /// Draw one sample using the supplied RNG.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Probability density (or, for discrete distributions, an impulse-free
    /// surrogate used only by numeric hazard computations).  Implementations
    /// for discrete distributions may return `0.0`; callers that need
    /// hazards of discrete distributions should use
    /// [`ServiceDistribution::completion_rate`] instead.
    fn pdf(&self, x: f64) -> f64;

    /// Survival function `P(X > x)`.
    fn sf(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).max(0.0)
    }

    /// The survival function at every abscissa of `xs`, written to `out`:
    /// `out[i]` has the bits of `self.sf(xs[i])`.
    ///
    /// The default loops over [`ServiceDistribution::sf`] inside the law's
    /// own code, so a batch through a `dyn` handle makes one dynamic call,
    /// not one per point. A law may override it with a faster evaluation
    /// of the same bits.
    ///
    /// # Panics
    ///
    /// If `xs` and `out` differ in length.
    fn sf_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "sf_batch needs one output per abscissa"
        );
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.sf(x);
        }
    }

    /// Second raw moment `E[X^2]`.
    fn second_moment(&self) -> f64 {
        let m = self.mean();
        self.variance() + m * m
    }

    /// Squared coefficient of variation `Var[X] / E[X]^2`.
    fn scv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }

    /// Hazard (failure/completion) rate `h(x) = f(x) / (1 - F(x))`.
    ///
    /// For processing-time distributions this is the instantaneous
    /// completion rate of a job that has received `x` units of service —
    /// the quantity the Sevcik/Gittins preemptive index is built from.
    fn hazard(&self, x: f64) -> f64 {
        let s = self.sf(x);
        if s <= 1e-300 {
            f64::INFINITY
        } else {
            self.pdf(x) / s
        }
    }

    /// Probability that a job with attained service `a` completes within the
    /// next `delta` units of service: `P(X <= a + delta | X > a)`.
    ///
    /// Used by discrete-review preemptive schedulers and by the numeric
    /// Gittins-index construction for general distributions (including
    /// discrete ones where the hazard is not defined).
    fn completion_rate(&self, a: f64, delta: f64) -> f64 {
        let sa = self.sf(a);
        if sa <= 1e-300 {
            return 1.0;
        }
        ((self.cdf(a + delta) - self.cdf(a)) / sa).clamp(0.0, 1.0)
    }

    /// Mean residual processing time `E[X - a | X > a]`, computed by
    /// trapezoidal integration of the conditional survival function unless a
    /// closed form is available.
    fn mean_residual(&self, a: f64) -> f64 {
        let sa = self.sf(a);
        if sa <= 1e-300 {
            return 0.0;
        }
        // Integrate S(x) for x in [a, a + horizon] where horizon is chosen
        // large enough that the tail contribution is negligible for the
        // bounded-moment distributions used in this workspace.
        let horizon = (self.mean() + 8.0 * self.variance().sqrt()).max(self.mean() * 12.0);
        let n = 2048usize;
        let h = horizon / n as f64;
        let mut acc = 0.0;
        let mut prev = self.sf(a);
        for i in 1..=n {
            let x = a + i as f64 * h;
            let cur = self.sf(x);
            acc += 0.5 * (prev + cur) * h;
            prev = cur;
        }
        acc / sa
    }

    /// The stored rate when this is an exponential law, sampled as
    /// `-(1.0 - u).ln() / rate` from one uniform `u`; `None` for every
    /// other law, including those that happen to equal an exponential
    /// (an Erlang-1, a one-branch hyperexponential).
    ///
    /// A simulator that draws unit exponentials ahead (see
    /// `ss_sim::rng::ExpStream`) divides them by this rate and gets the
    /// bits of [`ServiceDistribution::sample`]. `1 / mean()` would not do:
    /// its bits can differ from the stored rate's.
    fn exponential_rate(&self) -> Option<f64> {
        None
    }

    /// An upper bound on the support (`f64::INFINITY` when unbounded).
    fn support_upper(&self) -> f64 {
        f64::INFINITY
    }

    /// A human-readable one-line description (family + parameters).
    fn describe(&self) -> String {
        format!("{}(mean={:.4})", self.kind(), self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exponential;

    #[test]
    fn default_second_moment_and_scv() {
        let d = Exponential::new(2.0); // mean 0.5, var 0.25
        assert!((d.second_moment() - 0.5).abs() < 1e-12);
        assert!((d.scv() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_mean_residual_memoryless() {
        // For the exponential the mean residual life is the mean at every a.
        let d = Exponential::new(1.0);
        for a in [0.0, 0.5, 2.0, 5.0] {
            let mr = d.mean_residual(a);
            assert!(
                (mr - 1.0).abs() < 2e-2,
                "mean residual at {a} was {mr}, expected ~1"
            );
        }
    }

    #[test]
    fn completion_rate_is_a_probability() {
        let d = Exponential::new(1.0);
        for a in [0.0, 1.0, 3.0] {
            for delta in [0.01, 0.1, 1.0] {
                let p = d.completion_rate(a, delta);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    /// The exponential reports its stored rate, which `1 / mean()` does not
    /// always reproduce; every other law reports `None`, even one equal in
    /// law to an exponential.
    #[test]
    fn only_the_exponential_reports_a_rate() {
        use crate::{
            Deterministic, DiscreteDist, Empirical, Erlang, HyperExponential, LogNormal, Mixture,
            TwoPoint, Uniform, Weibull,
        };
        let d = Exponential::new(0.9);
        assert_eq!(
            d.exponential_rate().map(f64::to_bits),
            Some(0.9f64.to_bits())
        );
        assert_ne!((1.0 / d.mean()).to_bits(), 0.9f64.to_bits());
        let d = Exponential::with_mean(3.0);
        assert_eq!(
            d.exponential_rate().map(f64::to_bits),
            Some(d.rate().to_bits())
        );
        let others: Vec<crate::DynDist> = vec![
            crate::dyn_dist(Erlang::new(1, 0.9)),
            crate::dyn_dist(HyperExponential::new(vec![1.0], vec![0.9])),
            crate::dyn_dist(Mixture::new(
                vec![1.0],
                vec![crate::dyn_dist(Exponential::new(0.9))],
            )),
            crate::dyn_dist(Deterministic::new(1.0)),
            crate::dyn_dist(DiscreteDist::new(vec![1.0, 2.0], vec![0.5, 0.5])),
            crate::dyn_dist(Empirical::new(vec![1.0, 2.0, 3.0])),
            crate::dyn_dist(LogNormal::new(0.0, 1.0)),
            crate::dyn_dist(TwoPoint::new(0.5, 1.0, 2.0)),
            crate::dyn_dist(Uniform::new(0.0, 2.0)),
            crate::dyn_dist(Weibull::new(2.0, 1.0)),
        ];
        for d in &others {
            assert_eq!(d.exponential_rate(), None, "{}", d.describe());
        }
    }

    /// `sf_batch` returns `sf`'s bits for every law, at lengths on both
    /// sides of Erlang's four-lane chunks, with the edges mixed in. Every
    /// NaN compares as `f64::NAN`: NaN payloads are not part of the
    /// arithmetic.
    #[test]
    fn sf_batch_equals_sf_bit_for_bit() {
        use crate::{
            Deterministic, DiscreteDist, Empirical, Erlang, HyperExponential, LogNormal, Mixture,
            TwoPoint, Uniform, Weibull,
        };
        let mut laws: Vec<crate::DynDist> = vec![
            crate::dyn_dist(Exponential::new(0.9)),
            crate::dyn_dist(HyperExponential::with_mean_scv(1.0, 8.0)),
            crate::dyn_dist(Mixture::new(
                vec![0.3, 0.7],
                vec![
                    crate::dyn_dist(Exponential::new(0.9)),
                    crate::dyn_dist(Erlang::new(3, 2.0)),
                ],
            )),
            crate::dyn_dist(Deterministic::new(1.0)),
            crate::dyn_dist(DiscreteDist::new(vec![1.0, 2.0], vec![0.5, 0.5])),
            crate::dyn_dist(Empirical::new(vec![1.0, 2.0, 3.0])),
            crate::dyn_dist(LogNormal::new(0.0, 1.0)),
            crate::dyn_dist(TwoPoint::new(0.5, 1.0, 2.0)),
            crate::dyn_dist(Uniform::new(0.0, 2.0)),
            crate::dyn_dist(Weibull::new(2.0, 1.0)),
        ];
        for shape in [1, 2, 4, 9, 16, 40] {
            laws.push(crate::dyn_dist(Erlang::new(shape, 0.7 * f64::from(shape))));
        }
        let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
        let edges = [f64::NAN, 0.0, -0.0, -1.0, f64::INFINITY, f64::from_bits(1)];
        for d in &laws {
            for len in [0, 1, 3, 4, 5, 32, 33] {
                let xs: Vec<f64> = (0..len)
                    .map(|i| match i % 3 {
                        1 => edges[i / 3 % edges.len()],
                        _ => 0.173 * i as f64 * d.mean(),
                    })
                    .collect();
                let mut out = vec![-1.0; len];
                d.sf_batch(&xs, &mut out);
                for (&x, &got) in xs.iter().zip(&out) {
                    assert_eq!(
                        canonical(got),
                        canonical(d.sf(x)),
                        "{} at {x} (batch of {len})",
                        d.describe()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output per abscissa")]
    fn sf_batch_rejects_a_short_output() {
        Exponential::new(1.0).sf_batch(&[1.0, 2.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "one output per abscissa")]
    fn erlang_sf_batch_rejects_a_short_output() {
        crate::Erlang::new(4, 1.0).sf_batch(&[1.0; 8], &mut [0.0; 7]);
    }

    #[test]
    fn kind_display() {
        assert_eq!(DistKind::Erlang.to_string(), "Erlang");
        assert_eq!(DistKind::HyperExponential.to_string(), "HyperExponential");
    }
}
