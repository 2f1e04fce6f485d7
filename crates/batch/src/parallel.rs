//! Identical parallel machines: list scheduling, its objectives, and
//! Monte-Carlo evaluation.
//!
//! A static list policy on `m` identical machines starts the next unstarted
//! job of the list whenever a machine becomes free (non-idling,
//! nonpreemptive).  SEPT and LEPT are list policies; the exact dynamic
//! programs in [`crate::exact_exp`] verify their optimality for exponential
//! jobs, and [`crate::two_point_exact`] evaluates lists of two-point jobs
//! by enumerating realisations, while this module evaluates arbitrary lists
//! on arbitrary distributions by simulation.  All three schedule a list
//! through one routine and name the objective with [`ParallelMetric`].

use rand::RngCore;
use ss_core::instance::BatchInstance;
use ss_sim::replication::{run_replications_parallel, ReplicationSummary};

/// Performance of one schedule: realised, or expected over realisations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleOutcome {
    /// `Σ_i C_i`.
    pub total_flowtime: f64,
    /// `Σ_i w_i C_i`.
    pub weighted_flowtime: f64,
    /// `max_i C_i`.
    pub makespan: f64,
}

impl ScheduleOutcome {
    /// The statistic `metric` names.
    pub fn get(&self, metric: ParallelMetric) -> f64 {
        match metric {
            ParallelMetric::TotalFlowtime => self.total_flowtime,
            ParallelMetric::WeightedFlowtime => self.weighted_flowtime,
            ParallelMetric::Makespan => self.makespan,
        }
    }
}

/// Simulate one realisation of list scheduling `order` on `machines`
/// identical machines, drawing each job's processing time as it starts.
pub fn simulate_list_schedule(
    instance: &BatchInstance,
    order: &[usize],
    machines: usize,
    rng: &mut dyn RngCore,
) -> ScheduleOutcome {
    assert_eq!(order.len(), instance.len(), "order must cover all jobs");
    let jobs = instance.jobs();
    schedule_list(
        order,
        machines,
        |j| jobs[j].weight,
        |j| jobs[j].dist.sample(rng),
    )
}

/// List-schedule `order` on `machines` identical machines: each job in
/// turn starts on the machine that frees earliest (the first such machine
/// on a tie) and runs for `duration(job)`, which is asked once per job, in
/// list order.
pub(crate) fn schedule_list(
    order: &[usize],
    machines: usize,
    weight: impl Fn(usize) -> f64,
    mut duration: impl FnMut(usize) -> f64,
) -> ScheduleOutcome {
    assert!(machines >= 1, "list scheduling needs at least one machine");
    let mut free_at = vec![0.0f64; machines];
    let mut total_flowtime = 0.0;
    let mut weighted_flowtime = 0.0;
    let mut makespan: f64 = 0.0;
    for &idx in order {
        let (m_idx, &start) = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let completion = start + duration(idx);
        free_at[m_idx] = completion;
        total_flowtime += completion;
        weighted_flowtime += weight(idx) * completion;
        makespan = makespan.max(completion);
    }
    ScheduleOutcome {
        total_flowtime,
        weighted_flowtime,
        makespan,
    }
}

/// The objective of a batch on identical machines: the statistic of a
/// schedule that a simulation aggregates, an exact method computes or a
/// search minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelMetric {
    /// Expected total flowtime `E[Σ C]`.
    TotalFlowtime,
    /// Expected weighted flowtime `E[Σ w C]`.
    WeightedFlowtime,
    /// Expected makespan `E[max C]`.
    Makespan,
}

/// Estimate the chosen metric of a static list by independent replications
/// (parallelised over the workspace thread pool; reproducible from `seed`
/// for any thread count).
pub fn evaluate_list_policy(
    instance: &BatchInstance,
    order: &[usize],
    machines: usize,
    metric: ParallelMetric,
    replications: usize,
    seed: u64,
) -> ReplicationSummary {
    run_replications_parallel(replications, seed, |_rep, rng| {
        simulate_list_schedule(instance, order, machines, rng).get(metric)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{lept_order, sept_order};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Deterministic, Exponential};

    fn det_instance() -> BatchInstance {
        BatchInstance::builder()
            .unweighted_job(dyn_dist(Deterministic::new(3.0)))
            .unweighted_job(dyn_dist(Deterministic::new(2.0)))
            .unweighted_job(dyn_dist(Deterministic::new(1.0)))
            .build()
    }

    #[test]
    fn deterministic_two_machine_schedule() {
        // List [2, 1, 0] (SEPT): machine A gets job2 (1), machine B job1 (2);
        // job0 starts at 1 on A, completes at 4.
        let inst = det_instance();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = simulate_list_schedule(&inst, &[2, 1, 0], 2, &mut rng);
        assert!((out.makespan - 4.0).abs() < 1e-12);
        assert!((out.total_flowtime - (1.0 + 2.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn single_machine_reduces_to_sum_of_prefixes() {
        let inst = det_instance();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = simulate_list_schedule(&inst, &[0, 1, 2], 1, &mut rng);
        assert!((out.total_flowtime - (3.0 + 5.0 + 6.0)).abs() < 1e-12);
        assert!((out.makespan - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sept_beats_lept_for_flowtime_exponential() {
        // E3 in miniature: SEPT should give smaller E[sum C] than LEPT on
        // two machines with exponential jobs of distinct means.
        let inst = BatchInstance::builder()
            .unweighted_job(dyn_dist(Exponential::with_mean(0.5)))
            .unweighted_job(dyn_dist(Exponential::with_mean(1.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(2.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(4.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(3.0)))
            .build();
        let sept = evaluate_list_policy(
            &inst,
            &sept_order(&inst),
            2,
            ParallelMetric::TotalFlowtime,
            6000,
            9,
        );
        let lept = evaluate_list_policy(
            &inst,
            &lept_order(&inst),
            2,
            ParallelMetric::TotalFlowtime,
            6000,
            9,
        );
        assert!(
            sept.mean + sept.ci95 < lept.mean - lept.ci95,
            "SEPT {} ± {} should beat LEPT {} ± {}",
            sept.mean,
            sept.ci95,
            lept.mean,
            lept.ci95
        );
    }

    #[test]
    fn lept_beats_sept_for_makespan_exponential() {
        // E4 in miniature.
        let inst = BatchInstance::builder()
            .unweighted_job(dyn_dist(Exponential::with_mean(0.5)))
            .unweighted_job(dyn_dist(Exponential::with_mean(1.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(2.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(4.0)))
            .unweighted_job(dyn_dist(Exponential::with_mean(3.0)))
            .build();
        let sept = evaluate_list_policy(
            &inst,
            &sept_order(&inst),
            2,
            ParallelMetric::Makespan,
            8000,
            10,
        );
        let lept = evaluate_list_policy(
            &inst,
            &lept_order(&inst),
            2,
            ParallelMetric::Makespan,
            8000,
            10,
        );
        assert!(
            lept.mean < sept.mean,
            "LEPT makespan {} should be below SEPT {}",
            lept.mean,
            sept.mean
        );
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_are_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        simulate_list_schedule(&det_instance(), &[0, 1, 2], 0, &mut rng);
    }

    #[test]
    fn replication_summary_is_reproducible() {
        let inst = det_instance();
        let a = evaluate_list_policy(&inst, &[0, 1, 2], 2, ParallelMetric::Makespan, 100, 42);
        let b = evaluate_list_policy(&inst, &[0, 1, 2], 2, ParallelMetric::Makespan, 100, 42);
        assert_eq!(a.values, b.values);
    }
}
