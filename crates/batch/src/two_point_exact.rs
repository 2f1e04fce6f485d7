//! The Coffman–Hofri–Weiss regime: two-point processing times on two
//! machines, where the simple index rules stop being optimal.
//!
//! Because each job takes one of two values, an instance with `n` jobs has
//! only `2^n` equally structured realisations.  For **static list policies**
//! the performance of every list can therefore be evaluated *exactly* by
//! enumerating realisations, and the best static list found by exhaustive
//! search over permutations.  Experiment E5 uses this to exhibit parameter
//! regions where the SEPT and LEPT lists are strictly worse than the best
//! list — the survey's point that the optimality of simple policies "fails
//! to extend to models that violate the required assumptions".

use ss_core::exhaustive::best_order;
use ss_distributions::TwoPoint;

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
        let n = jobs.len();
        assert!(n > 0 && n <= 16, "exact enumeration limited to 16 jobs");
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
}

/// Deterministic list schedule of realised durations on `machines`
/// machines; returns `(total_flowtime, weighted_flowtime, makespan)`.
fn schedule_realisation(
    durations: &[f64],
    weights: &[f64],
    order: &[usize],
    machines: usize,
) -> (f64, f64, f64) {
    let mut free_at = vec![0.0f64; machines];
    let mut total = 0.0;
    let mut weighted = 0.0;
    let mut makespan: f64 = 0.0;
    for &idx in order {
        let m = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let completion = free_at[m] + durations[idx];
        free_at[m] = completion;
        total += completion;
        weighted += weights[idx] * completion;
        makespan = makespan.max(completion);
    }
    (total, weighted, makespan)
}

/// Exact expected `(total flowtime, weighted flowtime, makespan)` of a
/// static list on `machines` machines, by enumerating all `2^n`
/// realisations.
pub fn exact_list_performance(
    instance: &TwoPointInstance,
    order: &[usize],
    machines: usize,
) -> (f64, f64, f64) {
    let n = instance.len();
    assert_eq!(order.len(), n);
    let mut e_total = 0.0;
    let mut e_weighted = 0.0;
    let mut e_makespan = 0.0;
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
        let (t, w, m) = schedule_realisation(&durations, &instance.weights, order, machines);
        e_total += prob * t;
        e_weighted += prob * w;
        e_makespan += prob * m;
    }
    (e_total, e_weighted, e_makespan)
}

/// Search all `n!` static lists for the one minimising the chosen objective
/// (0 = total flowtime, 1 = weighted flowtime, 2 = makespan); returns
/// `(best_order, best_value)`.  Limited to `n <= 9`.
pub fn best_static_list(
    instance: &TwoPointInstance,
    machines: usize,
    objective: usize,
) -> (Vec<usize>, f64) {
    let n = instance.len();
    assert!(n <= 9, "exhaustive list search limited to 9 jobs");
    assert!(objective <= 2);
    best_order(n, |order| {
        let (total, weighted, makespan) = exact_list_performance(instance, order, machines);
        match objective {
            0 => total,
            1 => weighted,
            _ => makespan,
        }
    })
}

/// SEPT list (nondecreasing mean) for a two-point instance.
pub fn sept_list(instance: &TwoPointInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.sort_by(|&a, &b| {
        use ss_distributions::ServiceDistribution;
        instance.jobs[a]
            .mean()
            .partial_cmp(&instance.jobs[b].mean())
            .unwrap()
    });
    order
}

/// LEPT list (nonincreasing mean) for a two-point instance.
pub fn lept_list(instance: &TwoPointInstance) -> Vec<usize> {
    let mut order = sept_list(instance);
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::instance::BatchInstance;
    use ss_distributions::{dyn_dist, ServiceDistribution};

    #[test]
    fn exact_enumeration_matches_hand_case() {
        // One job taking 1 w.p. 0.5 or 3 w.p. 0.5 on one machine.
        let inst = TwoPointInstance::unweighted(vec![TwoPoint::new(0.5, 1.0, 3.0)]);
        let (total, weighted, makespan) = exact_list_performance(&inst, &[0], 1);
        assert!((total - 2.0).abs() < 1e-12);
        assert!((weighted - 2.0).abs() < 1e-12);
        assert!((makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_two_point_collapses() {
        // p_low = 1 makes the jobs deterministic; the schedule is the
        // classic deterministic list schedule.
        let inst = TwoPointInstance::unweighted(vec![
            TwoPoint::new(1.0, 2.0, 5.0),
            TwoPoint::new(1.0, 1.0, 9.0),
        ]);
        let (_, _, makespan) = exact_list_performance(&inst, &[0, 1], 2);
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
        let (exact_total, _, exact_mk) = exact_list_performance(&inst, &order, 2);
        let mut b = BatchInstance::builder();
        for (tp, w) in inst.jobs.iter().zip(&inst.weights) {
            b = b.job(*w, dyn_dist(*tp));
        }
        let batch = b.build();
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
        assert!((total - exact_total).abs() / exact_total < 0.02);
        assert!((mk - exact_mk).abs() / exact_mk < 0.02);
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
        let (_, best_mk) = best_static_list(&inst, 2, 2);
        let (_, _, sept_mk) = exact_list_performance(&inst, &sept_list(&inst), 2);
        let (_, _, lept_mk) = exact_list_performance(&inst, &lept_list(&inst), 2);
        assert!(best_mk <= sept_mk + 1e-12);
        assert!(best_mk <= lept_mk + 1e-12);
    }

    #[test]
    fn sept_and_lept_lists_are_mean_ordered() {
        let inst = TwoPointInstance::unweighted(vec![
            TwoPoint::new(0.5, 1.0, 3.0), // mean 2.0
            TwoPoint::new(0.5, 0.2, 1.0), // mean 0.6
            TwoPoint::new(0.5, 2.0, 6.0), // mean 4.0
        ]);
        assert_eq!(sept_list(&inst), vec![1, 0, 2]);
        assert_eq!(lept_list(&inst), vec![2, 0, 1]);
        assert!(inst.jobs[1].mean() < inst.jobs[0].mean());
    }
}
