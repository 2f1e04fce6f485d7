//! Processing-time and inter-arrival distributions for stochastic scheduling.
//!
//! Every model in the stochastic-scheduling survey is parameterised by the
//! probability distributions of job processing times (and, for queueing
//! models, inter-arrival times).  The optimality conditions of the classical
//! index policies are stated in terms of distributional structure:
//!
//! * WSEPT only needs the **means** (Rothkopf 1966);
//! * the preemptive Sevcik/Gittins index needs the **hazard rate** as a
//!   function of attained service (Sevcik 1974);
//! * SEPT / LEPT optimality on parallel machines needs **exponentiality**,
//!   **monotone hazard rates** (IHR/DHR) or **stochastic ordering**
//!   (Weber 1982, Weber–Varaiya–Walrand 1986);
//! * queueing formulas (Pollaczek–Khinchine, Cobham) need the first two
//!   **moments**.
//!
//! This crate therefore exposes a single [`ServiceDistribution`] trait that
//! provides moments, sampling, distribution functions and hazard rates,
//! together with a collection of concrete families (exponential,
//! deterministic, uniform, Erlang, hyperexponential, two-point, Weibull,
//! log-normal) and utilities for classifying hazard-rate monotonicity and
//! checking stochastic orderings numerically.
//!
//! # Example
//!
//! ```
//! use ss_distributions::{Exponential, ServiceDistribution, hazard::HazardClass};
//!
//! let d = Exponential::with_mean(2.0);
//! assert!((d.mean() - 2.0).abs() < 1e-12);
//! assert!((d.scv() - 1.0).abs() < 1e-12);
//! // The exponential hazard rate is constant.
//! assert_eq!(ss_distributions::hazard::classify(&d, 10.0, 200), HazardClass::Constant);
//! ```

pub mod deterministic;
pub mod erlang;
pub mod exponential;
pub mod hazard;
pub mod hyperexponential;
pub mod lognormal;
pub mod moments;
pub mod ordering;
pub mod special;
pub mod traits;
pub mod two_point;
pub mod uniform;
pub mod weibull;

pub use deterministic::Deterministic;
pub use erlang::Erlang;
pub use exponential::Exponential;
pub use hyperexponential::HyperExponential;
pub use lognormal::LogNormal;
pub use traits::{DistKind, ServiceDistribution};
pub use two_point::TwoPoint;
pub use uniform::Uniform;
pub use weibull::Weibull;

/// A boxed, dynamically typed service distribution.
///
/// Scheduling instances routinely mix distribution families (e.g. the
/// Coffman–Hofri–Weiss counterexample mixes two-point jobs of different
/// supports), so most of the workspace stores jobs with `Arc<dyn
/// ServiceDistribution>` handles.
pub type DynDist = std::sync::Arc<dyn ServiceDistribution>;

/// Convenience constructor for a [`DynDist`].
pub fn dyn_dist<D: ServiceDistribution + 'static>(d: D) -> DynDist {
    std::sync::Arc::new(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dyn_dist_round_trip() {
        let d = dyn_dist(Exponential::new(0.5));
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let x = d.sample(&mut rng);
        assert!(x >= 0.0);
    }
}
