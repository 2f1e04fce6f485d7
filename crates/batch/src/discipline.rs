//! Gittins-index adapter onto the common fabric
//! [`Discipline`](ss_core::discipline::Discipline) trait.
//!
//! The adapter ranks each class by its weighted service index at zero
//! attained service, `G_j(0)` from
//! [`crate::preemptive::gittins_service_index`], as a static per-class
//! table.  That is a heuristic.  `G_j(0)` is the index of a job that may be
//! stopped after any quantum, but a fabric server cannot stop a request:
//! once one starts, it runs to completion.  For linear holding costs the
//! optimal static order of such a server is cµ (Cox and Smith 1961;
//! experiment E11 reproduces it).  In one-server M/G/1 cases with an H2
//! class (mean 1, scv 4) against an exponential class, Cobham's formulas
//! put the cost of the `G_j(0)` order 4.4–8.6% above cµ's.
//!
//! For an increasing-hazard class the supremum is at run to completion, so
//! `G_j(0)` is `c_j / E[S_j]`, the class's cµ index, and so is an
//! exponential class's.  The two rules can differ only on decreasing-hazard
//! or non-monotone classes, whose `G_j(0)` may exceed `c_j / E[S_j]`.

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
/// their weighted Gittins service index at zero attained service.  A
/// heuristic for a server that cannot stop a request (see the module doc).
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
    /// `sf_batch`.
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

    /// The work of `gittins-mixed-scv`'s table, counted in abscissae: one
    /// `sf` at the attained service and one running trapezoid of
    /// `32 + 399·k` abscissae, with `k = 1` step per grid interval on the
    /// fabric's grid.  A trapezoid per grid point took 13,201 per law, and
    /// 10,093 (H2) and 4,205 (Erlang-4) once it stopped the points that
    /// could not reach the maximum.
    #[test]
    fn gittins_mixed_scv_table_evaluates_the_recorded_abscissae() {
        let h2 = Counted::new(HyperExponential::with_mean_scv(1.0, 4.0));
        let erlang = Counted::new(Erlang::with_mean(4, 1.0));
        let classes = vec![
            JobClass::new(0, 0.7, h2.clone(), 1.0),
            JobClass::new(1, 0.7, erlang.clone(), 1.0),
        ];
        let counted = gittins_discipline(&classes);
        assert_eq!([h2.abscissae(), erlang.abscissae()], [432, 432]);
        // At most k = 4 steps per grid interval.
        assert!(h2.abscissae().max(erlang.abscissae()) <= 1 + 32 + 399 * 4);
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
