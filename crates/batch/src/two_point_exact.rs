//! The Coffman–Hofri–Weiss regime: two-point processing times on two
//! machines, where the simple index rules stop being optimal.
//!
//! Because each job takes one of two values, an instance with `n` jobs has
//! only `2^n` equally structured realisations.  For **static list policies**
//! the performance of every list can therefore be evaluated *exactly* by
//! enumerating realisations, and the best static list found by exhaustive
//! search over permutations.  Experiment E5 uses this to exhibit parameter
//! regions where the SEPT and LEPT lists ([`crate::policies`], on
//! [`TwoPointInstance::to_batch`]) are strictly worse than the best list —
//! the survey's point that the optimality of simple policies "fails to
//! extend to models that violate the required assumptions".

use crate::parallel::{schedule_list, ParallelMetric, ScheduleOutcome};
use ss_core::exhaustive::best_order;
use ss_core::instance::BatchInstance;
use ss_distributions::{dyn_dist, TwoPoint};

/// A batch of two-point jobs.
#[derive(Debug, Clone)]
pub struct TwoPointInstance {
    /// Per-job `(p_low, low, high)` parameters.
    pub jobs: Vec<TwoPoint>,
    /// Per-job weights (1.0 for unweighted objectives).
    pub weights: Vec<f64>,
}

impl TwoPointInstance {
    /// Create an unweighted instance.
    pub fn unweighted(jobs: Vec<TwoPoint>) -> Self {
        assert!(!jobs.is_empty(), "instance needs at least one job");
        let n = jobs.len();
        Self {
            jobs,
            weights: vec![1.0; n],
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if empty (never after construction).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The same jobs as a [`BatchInstance`], for the list rules of
    /// [`crate::policies`] and the simulator of [`crate::parallel`].
    pub fn to_batch(&self) -> BatchInstance {
        let mut builder = BatchInstance::builder();
        for (tp, &weight) in self.jobs.iter().zip(&self.weights) {
            builder = builder.job(weight, dyn_dist(*tp));
        }
        builder.build()
    }
}

/// Exact expected total flowtime, weighted flowtime and makespan of a
/// static list on `machines` machines, by enumerating all `2^n`
/// realisations (at most 16 jobs).
pub fn exact_list_performance(
    instance: &TwoPointInstance,
    order: &[usize],
    machines: usize,
) -> ScheduleOutcome {
    let n = instance.len();
    assert!(n <= 16, "exact enumeration limited to 16 jobs");
    assert_eq!(instance.weights.len(), n, "need one weight per job");
    assert_eq!(order.len(), n);
    let mut expected = ScheduleOutcome {
        total_flowtime: 0.0,
        weighted_flowtime: 0.0,
        makespan: 0.0,
    };
    let mut durations = vec![0.0f64; n];
    for mask in 0..(1u32 << n) {
        let mut prob = 1.0;
        for (j, tp) in instance.jobs.iter().enumerate() {
            if mask & (1 << j) != 0 {
                durations[j] = tp.low();
                prob *= tp.p_low();
            } else {
                durations[j] = tp.high();
                prob *= 1.0 - tp.p_low();
            }
        }
        if prob == 0.0 {
            continue;
        }
        let out = schedule_list(order, machines, |j| instance.weights[j], |j| durations[j]);
        expected.total_flowtime += prob * out.total_flowtime;
        expected.weighted_flowtime += prob * out.weighted_flowtime;
        expected.makespan += prob * out.makespan;
    }
    expected
}

/// Search all `n!` static lists for the one minimising `objective`;
/// returns `(best_order, best_value)`.  Limited to `n <= 9`.
pub fn best_static_list(
    instance: &TwoPointInstance,
    machines: usize,
    objective: ParallelMetric,
) -> (Vec<usize>, f64) {
    let n = instance.len();
    assert!(n <= 9, "exhaustive list search limited to 9 jobs");
    best_order(n, |order| {
        exact_list_performance(instance, order, machines).get(objective)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{lept_order, sept_order};

    #[test]
    fn exact_enumeration_matches_hand_case() {
        // One job taking 1 w.p. 0.5 or 3 w.p. 0.5 on one machine.
        let inst = TwoPointInstance::unweighted(vec![TwoPoint::new(0.5, 1.0, 3.0)]);
        let out = exact_list_performance(&inst, &[0], 1);
        assert!((out.total_flowtime - 2.0).abs() < 1e-12);
        assert!((out.weighted_flowtime - 2.0).abs() < 1e-12);
        assert!((out.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_two_point_collapses() {
        // p_low = 1 makes the jobs deterministic; the schedule is the
        // classic deterministic list schedule.
        let inst = TwoPointInstance::unweighted(vec![
            TwoPoint::new(1.0, 2.0, 5.0),
            TwoPoint::new(1.0, 1.0, 9.0),
        ]);
        let makespan = exact_list_performance(&inst, &[0, 1], 2).makespan;
        assert!((makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn enumeration_matches_monte_carlo() {
        use rand::SeedableRng;
        let inst = TwoPointInstance::unweighted(vec![
            TwoPoint::new(0.7, 0.5, 4.0),
            TwoPoint::new(0.4, 1.0, 2.0),
            TwoPoint::new(0.9, 0.2, 8.0),
        ]);
        let order = [0usize, 1, 2];
        let exact = exact_list_performance(&inst, &order, 2);
        let batch = inst.to_batch();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let reps = 60_000;
        let mut total = 0.0;
        let mut mk = 0.0;
        for _ in 0..reps {
            let out = crate::parallel::simulate_list_schedule(&batch, &order, 2, &mut rng);
            total += out.total_flowtime;
            mk += out.makespan;
        }
        total /= reps as f64;
        mk /= reps as f64;
        assert!((total - exact.total_flowtime).abs() / exact.total_flowtime < 0.02);
        assert!((mk - exact.makespan).abs() / exact.makespan < 0.02);
    }

    #[test]
    fn best_list_weakly_beats_index_lists() {
        // A heterogeneous two-point instance; the exhaustive best static
        // list is by definition at least as good as SEPT/LEPT.
        let inst = TwoPointInstance::unweighted(vec![
            TwoPoint::new(0.9, 0.1, 6.0),
            TwoPoint::new(0.5, 1.0, 2.0),
            TwoPoint::new(0.2, 0.5, 1.4),
            TwoPoint::new(0.8, 0.3, 7.0),
            TwoPoint::new(0.6, 0.8, 2.2),
        ]);
        let (_, best_mk) = best_static_list(&inst, 2, ParallelMetric::Makespan);
        let batch = inst.to_batch();
        let sept_mk = exact_list_performance(&inst, &sept_order(&batch), 2).makespan;
        let lept_mk = exact_list_performance(&inst, &lept_order(&batch), 2).makespan;
        assert!(best_mk <= sept_mk + 1e-12);
        assert!(best_mk <= lept_mk + 1e-12);
    }

    fn literal(jobs: usize, weights: usize) -> TwoPointInstance {
        TwoPointInstance {
            jobs: vec![TwoPoint::new(0.5, 1.0, 2.0); jobs],
            weights: vec![1.0; weights],
        }
    }

    #[test]
    #[should_panic(expected = "limited to 16 jobs")]
    fn enumeration_rejects_more_than_16_jobs() {
        let order: Vec<usize> = (0..32).collect();
        exact_list_performance(&literal(32, 32), &order, 2);
    }

    #[test]
    #[should_panic(expected = "one weight per job")]
    fn enumeration_rejects_a_missing_weight() {
        exact_list_performance(&literal(3, 2), &[0, 1, 2], 2);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn enumeration_rejects_zero_machines() {
        exact_list_performance(&literal(3, 3), &[0, 1, 2], 0);
    }
}
