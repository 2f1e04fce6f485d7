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
    use ss_core::discipline::Discipline;
    use ss_distributions::{dyn_dist, Exponential, HyperExponential};

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
}
