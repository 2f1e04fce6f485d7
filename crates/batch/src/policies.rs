//! The classical static priority-index rules for batch scheduling.
//!
//! * **WSEPT** (weighted shortest expected processing time, Smith's rule on
//!   means): serve in nonincreasing order of `w_i / E[P_i]`.  Optimal for
//!   `E[Σ w_i C_i]` on a single machine among nonpreemptive nonanticipative
//!   policies (Rothkopf 1966).
//! * **SEPT**: shortest expected processing time first — the unweighted
//!   special case, optimal for `E[Σ C_i]` on identical parallel machines
//!   under the assumptions discussed in the survey.
//! * **LEPT**: longest expected processing time first — optimal for the
//!   expected makespan on identical parallel machines under exponential or
//!   common-DHR processing times.

use rand::seq::SliceRandom;
use rand::Rng;
use ss_core::index::argsort_decreasing;
use ss_core::instance::BatchInstance;

/// The WSEPT order: job indices sorted by nonincreasing `w_i / E[P_i]`.
pub fn wsept_order(instance: &BatchInstance) -> Vec<usize> {
    let values: Vec<f64> = instance.jobs().iter().map(|j| j.wsept_index()).collect();
    argsort_decreasing(&values)
}

/// The SEPT order: nondecreasing expected processing time (index
/// `1 / E[P]`, weights ignored).
pub fn sept_order(instance: &BatchInstance) -> Vec<usize> {
    let values: Vec<f64> = instance
        .jobs()
        .iter()
        .map(|j| 1.0 / j.mean_processing())
        .collect();
    argsort_decreasing(&values)
}

/// The LEPT order: nonincreasing expected processing time (index `E[P]`,
/// weights ignored).
pub fn lept_order(instance: &BatchInstance) -> Vec<usize> {
    let values: Vec<f64> = instance
        .jobs()
        .iter()
        .map(|j| j.mean_processing())
        .collect();
    argsort_decreasing(&values)
}

/// A uniformly random order (the natural "no information" baseline).
pub fn random_order<R: Rng + ?Sized>(instance: &BatchInstance, rng: &mut R) -> Vec<usize> {
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.shuffle(rng);
    order
}

/// Order by nonincreasing weight only (ignores processing times); a
/// deliberately naive baseline used in the experiment tables.
pub fn weight_only_order(instance: &BatchInstance) -> Vec<usize> {
    let values: Vec<f64> = instance.jobs().iter().map(|j| j.weight).collect();
    argsort_decreasing(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_distributions::{dyn_dist, Exponential};

    fn instance() -> BatchInstance {
        BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::with_mean(4.0))) // wsept 0.25, mean 4
            .job(3.0, dyn_dist(Exponential::with_mean(1.0))) // wsept 3.0, mean 1
            .job(1.0, dyn_dist(Exponential::with_mean(2.0))) // wsept 0.5, mean 2
            .build()
    }

    #[test]
    fn wsept_sorts_by_weight_over_mean() {
        assert_eq!(wsept_order(&instance()), vec![1, 2, 0]);
        // Equal indices (0.5 and 0.5) keep job-id order.
        let tied = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::with_mean(2.0))) // wsept 0.5
            .job(4.0, dyn_dist(Exponential::with_mean(1.0))) // wsept 4.0
            .job(2.0, dyn_dist(Exponential::with_mean(4.0))) // wsept 0.5
            .build();
        assert_eq!(wsept_order(&tied), vec![1, 0, 2]);
    }

    #[test]
    fn sept_and_lept_are_reverses_for_distinct_means() {
        let inst = instance();
        let sept = sept_order(&inst);
        let mut lept = lept_order(&inst);
        lept.reverse();
        assert_eq!(sept, lept);
        assert_eq!(sept, vec![1, 2, 0]);
    }

    #[test]
    fn sept_and_lept_keep_job_order_on_equal_means() {
        let tied = BatchInstance::builder()
            .unweighted_job(dyn_dist(Exponential::with_mean(2.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(1.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(2.0)))
            .build();
        assert_eq!(sept_order(&tied), vec![1, 0, 2]);
        assert_eq!(lept_order(&tied), vec![0, 2, 1]);
    }

    #[test]
    fn random_order_is_permutation() {
        let inst = instance();
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        let mut order = random_order(&inst, &mut rng);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn weight_only_order_ignores_means() {
        assert_eq!(weight_only_order(&instance()), vec![1, 0, 2]);
    }
}
