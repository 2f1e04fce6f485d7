//! Gittins-index adapter onto the common fabric
//! [`Discipline`](ss_core::discipline::Discipline) trait.
//!
//! For a nonpreemptive server the relevant Gittins quantity is the service
//! index *at zero attained service*: once a request starts it runs to
//! completion, so the only decision is which class to start, and the index
//! of a fresh class-`j` request is `G_j(0)` from
//! [`crate::preemptive::gittins_service_index`].  That makes the adapter a
//! static per-class table — for exponential service it collapses to cµ
//! (memorylessness), while DHR/IHR service produces genuinely different
//! priorities than the mean-based cµ rule.

use ss_core::discipline::StaticIndex;
use ss_core::job::JobClass;

use crate::preemptive::gittins_service_index;

/// Smallest stopping quantum considered in the sup over stopping times.
const MIN_QUANTUM: f64 = 1e-3;
/// Truncation horizon for the service distributions.
const HORIZON: f64 = 60.0;
/// Number of candidate stopping points on `[MIN_QUANTUM, HORIZON]`.
const GRID_POINTS: usize = 400;

/// The Gittins rule as a nonpreemptive fabric discipline: classes ranked by
/// their weighted Gittins service index at zero attained service, on the
/// quantile grid the preemptive simulator's oracle tests use.
pub fn gittins_discipline(classes: &[JobClass]) -> StaticIndex {
    let indices = classes
        .iter()
        .map(|c| {
            gittins_service_index(
                c.service.as_ref(),
                c.holding_cost,
                0.0,
                MIN_QUANTUM,
                HORIZON,
                GRID_POINTS,
            )
        })
        .collect();
    StaticIndex::new("gittins", indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use ss_core::discipline::Discipline;
    use ss_distributions::{
        dyn_dist, DistKind, Erlang, Exponential, HyperExponential, ServiceDistribution,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn exponential_service_recovers_the_cmu_order() {
        // Memoryless service: Gittins-at-zero is proportional to cµ, so the
        // priority ORDER must match exactly.
        let classes = vec![
            JobClass::new(0, 0.1, dyn_dist(Exponential::with_mean(1.0)), 1.0), // cµ = 1
            JobClass::new(1, 0.1, dyn_dist(Exponential::with_mean(0.25)), 1.0), // cµ = 4
            JobClass::new(2, 0.1, dyn_dist(Exponential::with_mean(1.0)), 2.5), // cµ = 2.5
        ];
        let d = gittins_discipline(&classes);
        assert_eq!(d.name(), "gittins");
        assert!(d.class_index(1, 1) > d.class_index(2, 1));
        assert!(d.class_index(2, 1) > d.class_index(0, 1));
    }

    #[test]
    fn index_is_static_in_queue_length() {
        let classes = vec![JobClass::new(
            0,
            0.2,
            dyn_dist(HyperExponential::new(vec![0.5, 0.5], vec![2.0, 0.25])),
            1.0,
        )];
        let d = gittins_discipline(&classes);
        assert_eq!(
            d.class_index(0, 1).to_bits(),
            d.class_index(0, 77).to_bits()
        );
        assert!(d.class_index(0, 1).is_finite());
    }

    /// A law that counts the abscissae passed through its `sf` and
    /// `sf_batch`, those of the default `completion_rate` included.
    #[derive(Debug)]
    struct Counted<D> {
        law: D,
        abscissae: AtomicUsize,
    }

    impl<D> Counted<D> {
        fn new(law: D) -> Arc<Self> {
            Arc::new(Self {
                law,
                abscissae: AtomicUsize::new(0),
            })
        }

        fn abscissae(&self) -> usize {
            self.abscissae.load(Ordering::Relaxed)
        }
    }

    impl<D: ServiceDistribution> ServiceDistribution for Counted<D> {
        fn kind(&self) -> DistKind {
            self.law.kind()
        }

        fn mean(&self) -> f64 {
            self.law.mean()
        }

        fn variance(&self) -> f64 {
            self.law.variance()
        }

        fn sample(&self, rng: &mut dyn RngCore) -> f64 {
            self.law.sample(rng)
        }

        fn cdf(&self, x: f64) -> f64 {
            self.law.cdf(x)
        }

        fn pdf(&self, x: f64) -> f64 {
            self.law.pdf(x)
        }

        fn sf(&self, x: f64) -> f64 {
            self.abscissae.fetch_add(1, Ordering::Relaxed);
            self.law.sf(x)
        }

        fn sf_batch(&self, xs: &[f64], out: &mut [f64]) {
            self.abscissae.fetch_add(xs.len(), Ordering::Relaxed);
            self.law.sf_batch(xs, out);
        }
    }

    /// The work of `gittins-mixed-scv`'s table, counted in abscissae: the
    /// early exit stops most grid points' trapezoids. Summing every point
    /// in full took 13,201 per law: 32 abscissae at each of 400 points,
    /// one per point in `completion_rate` and one at the attained service.
    /// The hyperexponential's ratio is within a hair of the maximum at
    /// every small quantum, so most of its points run in full.
    #[test]
    fn gittins_mixed_scv_table_evaluates_the_recorded_abscissae() {
        let h2 = Counted::new(HyperExponential::with_mean_scv(1.0, 4.0));
        let erlang = Counted::new(Erlang::with_mean(4, 1.0));
        let classes = vec![
            JobClass::new(0, 0.7, h2.clone(), 1.0),
            JobClass::new(1, 0.7, erlang.clone(), 1.0),
        ];
        let counted = gittins_discipline(&classes);
        assert_eq!([h2.abscissae(), erlang.abscissae()], [10_093, 4_205]);
        assert!(2 * erlang.abscissae() <= 13_201);
        let plain = gittins_discipline(&[
            JobClass::new(0, 0.7, dyn_dist(h2.law.clone()), 1.0),
            JobClass::new(1, 0.7, dyn_dist(erlang.law), 1.0),
        ]);
        for class in 0..2 {
            assert_eq!(
                counted.class_index(class, 1).to_bits(),
                plain.class_index(class, 1).to_bits()
            );
        }
    }
}
