//! Integration tests spanning several workspace crates: indices computed in
//! one crate drive simulators or exact evaluations in another.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stochastic_scheduling::bandits::exact::MultiArmedBandit;
use stochastic_scheduling::bandits::gittins::gittins_indices_vwb;
use stochastic_scheduling::bandits::instances::maintenance_project;
use stochastic_scheduling::bandits::instances::random_project;
use stochastic_scheduling::bandits::restless::{relaxation_bound_identical, whittle_indices};
use stochastic_scheduling::batch::exact_exp::list_policy_value;
use stochastic_scheduling::batch::parallel::{evaluate_list_policy, ParallelMetric};
use stochastic_scheduling::batch::policies::{sept_order, wsept_order};
use stochastic_scheduling::batch::single_machine::expected_weighted_flowtime;
use stochastic_scheduling::core::instance::{BatchInstance, InstanceFamily, InstanceGenerator};
use stochastic_scheduling::core::job::JobClass;
use stochastic_scheduling::distributions::{dyn_dist, Exponential};
use stochastic_scheduling::queueing::cmu::cmu_order;
use stochastic_scheduling::queueing::cobham::mg1_nonpreemptive_priority;
use stochastic_scheduling::queueing::mg1::{simulate_mg1, Discipline, Mg1Config};

/// The WSEPT value of an exponential instance computed by the closed form
/// in `ss-batch` must equal the single-machine exact DP of `exact_exp` and
/// be reproduced by the Monte-Carlo list scheduler within its CI.
#[test]
fn single_machine_values_agree_across_methods() {
    let rates = [1.0, 0.4, 2.5, 1.7];
    let mut builder = BatchInstance::builder();
    for &r in &rates {
        builder = builder.unweighted_job(dyn_dist(Exponential::new(r)));
    }
    let inst = builder.build();
    let order = wsept_order(&inst);
    let closed_form = expected_weighted_flowtime(&inst, &order);

    let dp = list_policy_value(&inst, &sept_order(&inst), 1, ParallelMetric::TotalFlowtime);
    assert!(
        (closed_form - dp).abs() < 1e-9,
        "closed form {closed_form} vs DP {dp}"
    );

    let sim = evaluate_list_policy(
        &inst,
        &order,
        1,
        ParallelMetric::WeightedFlowtime,
        20_000,
        3,
    );
    assert!(
        (sim.mean - closed_form).abs() < 3.0 * sim.ci95 + 1e-6,
        "simulated {} ± {} vs exact {closed_form}",
        sim.mean,
        sim.ci95
    );
}

/// Gittins indices computed by `ss-bandits` produce a policy whose exact
/// value (evaluated through the `ss-mdp` joint DP) matches the optimum.
#[test]
fn gittins_indices_drive_an_optimal_policy() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let projects = vec![random_project(4, &mut rng), random_project(3, &mut rng)];
    // Index sanity: within reward bounds.
    for p in &projects {
        let idx = gittins_indices_vwb(p, 0.9);
        assert_eq!(idx.len(), p.num_states());
    }
    let mab = MultiArmedBandit::new(projects, 0.9);
    let init = vec![0usize, 0];
    let opt = mab.optimal_value(&init);
    let git = mab.gittins_policy_value(&init);
    assert!((opt - git).abs() < 1e-6);
}

/// The cµ priority order computed in `ss-core`/`ss-queueing` must give the
/// same holding cost whether evaluated by the exact Cobham formulas or the
/// event-driven simulator built on `ss-sim` primitives.
#[test]
fn cobham_formulas_and_simulator_agree_on_cmu() {
    let classes = vec![
        JobClass::new(0, 0.3, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(1, 0.25, dyn_dist(Exponential::with_mean(0.6)), 4.0),
    ];
    let order = cmu_order(&classes);
    let exact = mg1_nonpreemptive_priority(&classes, &order);
    let config = Mg1Config {
        classes: classes.clone(),
        discipline: Discipline::NonpreemptivePriority(order),
        horizon: 150_000.0,
        warmup: 5_000.0,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let sim = simulate_mg1(&config, &mut rng);
    assert!(
        (sim.holding_cost_rate - exact.holding_cost_rate).abs() / exact.holding_cost_rate < 0.08,
        "simulated {} vs exact {}",
        sim.holding_cost_rate,
        exact.holding_cost_rate
    );
}

/// Whittle indices (computed through `ss-mdp` subsidy problems) and the LP
/// relaxation bound (computed through `ss-lp`) are mutually consistent: the
/// states the relaxation activates are those with the largest indices, and
/// the bound is attainable only from above.
#[test]
fn whittle_indices_and_lp_relaxation_are_consistent() {
    let project = maintenance_project(5, 0.35, 0.4, 0.95);
    let indices = whittle_indices(&project);
    // With no repair activity allowed the fleet decays to the unproductive
    // worst state; a moderate activity fraction must do strictly better.
    let bound_none = relaxation_bound_identical(&project, 0.0);
    let bound_some = relaxation_bound_identical(&project, 0.3);
    assert!(
        bound_some > bound_none + 1e-6,
        "{bound_some} vs {bound_none}"
    );
    // Indices increase with wear (exploited by the experiments).
    assert!(indices[4] > indices[1]);
}

/// Instance generators from `ss-core` feed every other crate: sanity-check
/// the WSEPT-optimality property on generated instances end to end.
#[test]
fn generated_instances_respect_wsept_optimality() {
    let gen = InstanceGenerator::with_family(InstanceFamily::Mixed);
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    for _ in 0..5 {
        let inst = gen.generate(7, &mut rng);
        let wsept = expected_weighted_flowtime(&inst, &wsept_order(&inst));
        let (_, best) =
            stochastic_scheduling::batch::single_machine::exhaustive_optimal_order(&inst);
        assert!((wsept - best).abs() < 1e-9);
    }
}
