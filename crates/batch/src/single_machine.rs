//! Single machine, nonpreemptive, expected weighted flowtime.
//!
//! This is the simplest model of §1.  For a *static list* (the survey's
//! admissible nonpreemptive nonanticipative policies reduce to static lists
//! when all jobs are present at time zero and no information accrues before
//! a job completes), linearity of expectation gives the closed form
//!
//! ```text
//! E[ Σ_i w_i C_i ]  =  Σ_j w_(j) Σ_{k <= j} E[ P_(k) ]
//! ```
//!
//! where `(j)` is the j-th job in the list.  Rothkopf (1966) showed the
//! minimiser is the WSEPT list.  The module provides the closed form, the
//! exhaustive optimum over all `n!` lists, and the adjacent-interchange test
//! used by the property-based tests.  A realisation of a list is
//! [`crate::parallel::simulate_list_schedule`] on one machine.

use ss_core::exhaustive::best_order;
use ss_core::instance::BatchInstance;

/// Exact expected weighted flowtime of a static list on one machine.
pub fn expected_weighted_flowtime(instance: &BatchInstance, order: &[usize]) -> f64 {
    assert_eq!(order.len(), instance.len(), "order must cover all jobs");
    let jobs = instance.jobs();
    let mut completion = 0.0;
    let mut total = 0.0;
    for &idx in order {
        completion += jobs[idx].mean_processing();
        total += jobs[idx].weight * completion;
    }
    total
}

/// Exhaustive search over all `n!` static lists; returns `(best_order,
/// best_value)`.  Limited to `n <= 11`.
pub fn exhaustive_optimal_order(instance: &BatchInstance) -> (Vec<usize>, f64) {
    let n = instance.len();
    assert!(n <= 11, "exhaustive search is limited to n <= 11 (got {n})");
    best_order(n, |order| expected_weighted_flowtime(instance, order))
}

/// The change in expected weighted flowtime from swapping the jobs at
/// positions `pos` and `pos + 1` of `order` (positive means the swap makes
/// the schedule worse).  The classical adjacent-interchange argument behind
/// Smith's rule states this is nonnegative for the WSEPT order.
pub fn adjacent_interchange_delta(instance: &BatchInstance, order: &[usize], pos: usize) -> f64 {
    assert!(pos + 1 < order.len());
    let mut swapped = order.to_vec();
    swapped.swap(pos, pos + 1);
    expected_weighted_flowtime(instance, &swapped) - expected_weighted_flowtime(instance, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::simulate_list_schedule;
    use crate::policies::{weight_only_order, wsept_order};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_core::instance::{InstanceFamily, InstanceGenerator};
    use ss_distributions::{dyn_dist, Deterministic, Exponential};

    #[test]
    fn closed_form_matches_hand_computation() {
        // Jobs: (w=2, p=1), (w=1, p=3) in that order:
        // C1 = 1, C2 = 4 -> 2*1 + 1*4 = 6.
        let inst = BatchInstance::builder()
            .job(2.0, dyn_dist(Deterministic::new(1.0)))
            .job(1.0, dyn_dist(Deterministic::new(3.0)))
            .build();
        assert!((expected_weighted_flowtime(&inst, &[0, 1]) - 6.0).abs() < 1e-12);
        assert!((expected_weighted_flowtime(&inst, &[1, 0]) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn wsept_is_exhaustively_optimal_random_instances() {
        // E1 in miniature: on random instances the WSEPT value equals the
        // exhaustive optimum (ties possible, so compare values not orders).
        let gen = InstanceGenerator::default();
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        for _ in 0..20 {
            let inst = gen.generate(7, &mut rng);
            let (_, best) = exhaustive_optimal_order(&inst);
            let wsept = expected_weighted_flowtime(&inst, &wsept_order(&inst));
            assert!(
                (wsept - best).abs() < 1e-9,
                "WSEPT {wsept} should equal optimum {best}"
            );
        }
    }

    #[test]
    fn naive_policies_are_weakly_worse() {
        let gen = InstanceGenerator::with_family(InstanceFamily::HyperExponential);
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        for _ in 0..10 {
            let inst = gen.generate(6, &mut rng);
            let wsept = expected_weighted_flowtime(&inst, &wsept_order(&inst));
            let naive = expected_weighted_flowtime(&inst, &weight_only_order(&inst));
            assert!(naive >= wsept - 1e-9);
        }
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::with_mean(2.0)))
            .job(2.0, dyn_dist(Exponential::with_mean(1.0)))
            .job(0.5, dyn_dist(Exponential::with_mean(3.0)))
            .build();
        let order = wsept_order(&inst);
        let exact = expected_weighted_flowtime(&inst, &order);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 200_000;
        let mc: f64 = (0..n)
            .map(|_| simulate_list_schedule(&inst, &order, 1, &mut rng).weighted_flowtime)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mc - exact).abs() / exact < 0.01,
            "MC {mc} vs exact {exact}"
        );
    }

    #[test]
    fn adjacent_interchange_never_improves_wsept() {
        let gen = InstanceGenerator::default();
        let mut rng = ChaCha8Rng::seed_from_u64(303);
        for _ in 0..20 {
            let inst = gen.generate(8, &mut rng);
            let order = wsept_order(&inst);
            for pos in 0..inst.len() - 1 {
                assert!(adjacent_interchange_delta(&inst, &order, pos) >= -1e-9);
            }
        }
    }

    #[test]
    fn exhaustive_search_small_case() {
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Deterministic::new(2.0)))
            .job(10.0, dyn_dist(Deterministic::new(1.0)))
            .build();
        let (order, value) = exhaustive_optimal_order(&inst);
        assert_eq!(order, vec![1, 0]);
        assert!((value - (10.0 + 3.0)).abs() < 1e-12);
    }
}
