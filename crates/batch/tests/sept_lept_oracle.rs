//! SEPT/LEPT simulator-vs-DP oracle suite: the Monte-Carlo list-schedule
//! simulator (`ss_batch::parallel`) must reproduce the exact subset-DP
//! values (`ss_batch::exact_exp`) for exponential jobs, with seeded
//! replications that are bit-identical for any thread count — the same
//! contract the `ss-verify` pair `sept-lept-vs-dp` gates in CI.

use ss_batch::exact_exp::list_policy_value;
use ss_batch::parallel::{evaluate_list_policy, ParallelMetric};
use ss_batch::policies::{lept_order, sept_order, wsept_order};
use ss_core::instance::BatchInstance;
use ss_distributions::{dyn_dist, Exponential};
use ss_sim::pool;

/// Exponential jobs with these rates and weights.
fn exponential(rates: &[f64], weights: &[f64]) -> BatchInstance {
    let mut builder = BatchInstance::builder();
    for (&rate, &weight) in rates.iter().zip(weights) {
        builder = builder.job(weight, dyn_dist(Exponential::new(rate)));
    }
    builder.build()
}

fn instance() -> BatchInstance {
    exponential(&[0.5, 1.0, 2.0, 1.5, 0.8, 2.5], &[1.0; 6])
}

#[test]
fn sept_flowtime_simulation_matches_the_exact_dp() {
    let inst = instance();
    let order = sept_order(&inst);
    for machines in [1usize, 2, 3] {
        let exact = list_policy_value(&inst, &order, machines, ParallelMetric::TotalFlowtime);
        let summary = evaluate_list_policy(
            &inst,
            &order,
            machines,
            ParallelMetric::TotalFlowtime,
            30_000,
            41,
        );
        assert!(
            (summary.mean - exact).abs() < 3.0 * summary.ci95.max(0.01 * exact),
            "m={machines}: simulated {} ± {} vs exact {exact}",
            summary.mean,
            summary.ci95
        );
    }
}

#[test]
fn lept_makespan_simulation_matches_the_exact_dp() {
    let inst = instance();
    let order = lept_order(&inst);
    for machines in [2usize, 3] {
        let exact = list_policy_value(&inst, &order, machines, ParallelMetric::Makespan);
        let summary = evaluate_list_policy(
            &inst,
            &order,
            machines,
            ParallelMetric::Makespan,
            30_000,
            42,
        );
        assert!(
            (summary.mean - exact).abs() < 3.0 * summary.ci95.max(0.01 * exact),
            "m={machines}: simulated {} ± {} vs exact {exact}",
            summary.mean,
            summary.ci95
        );
    }
}

#[test]
fn weighted_flowtime_simulation_matches_the_exact_dp() {
    let inst = exponential(&[1.0, 0.5, 2.0, 1.2], &[1.0, 3.0, 2.0, 0.5]);
    let order = wsept_order(&inst);
    let exact = list_policy_value(&inst, &order, 2, ParallelMetric::WeightedFlowtime);
    let summary = evaluate_list_policy(
        &inst,
        &order,
        2,
        ParallelMetric::WeightedFlowtime,
        30_000,
        43,
    );
    assert!(
        (summary.mean - exact).abs() < 3.0 * summary.ci95.max(0.01 * exact),
        "simulated {} ± {} vs exact {exact}",
        summary.mean,
        summary.ci95
    );
}

#[test]
fn list_schedule_replications_are_thread_count_invariant_and_seed_pure() {
    let inst = instance();
    let order = sept_order(&inst);
    let run = |threads: usize, seed: u64| {
        pool::with_threads(threads, || {
            evaluate_list_policy(&inst, &order, 2, ParallelMetric::TotalFlowtime, 500, seed)
        })
    };
    let serial = run(1, 9);
    let parallel = run(4, 9);
    assert_eq!(serial.values.len(), parallel.values.len());
    for (a, b) in serial.values.iter().zip(&parallel.values) {
        assert_eq!(a.to_bits(), b.to_bits(), "thread count changed a draw");
    }
    // Seed purity.
    assert_eq!(run(2, 9).values, serial.values);
    assert_ne!(run(1, 10).values, serial.values);
}
