//! Cross-crate tests of the conservation-law / achievable-region framework
//! added on top of the three model families: the generic adaptive-greedy
//! algorithm (`ss-core`), the achievable-region LP and Klimov work measure
//! (`ss-queueing`), branching bandits and marginal productivity indices
//! (`ss-bandits`), and the setup-threshold policies (`ss-queueing`).
//!
//! The survey's unifying claim is that one index mechanism underlies the
//! cµ-rule, Klimov's algorithm, the Gittins index and the branching-bandit
//! index; these tests check the corresponding identities numerically across
//! crate boundaries.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stochastic_scheduling::bandits::branching::offspring::OffspringDist;
use stochastic_scheduling::bandits::branching::BranchingBandit;
use stochastic_scheduling::bandits::instances::maintenance_project;
use stochastic_scheduling::bandits::mpi::marginal_productivity_indices;
use stochastic_scheduling::bandits::restless::{
    simulate_restless, whittle_indices, RestlessPolicy,
};
use stochastic_scheduling::core::adaptive_greedy::{adaptive_greedy, TransferWorkMeasure};
use stochastic_scheduling::core::job::JobClass;
use stochastic_scheduling::distributions::Deterministic;
use stochastic_scheduling::distributions::{dyn_dist, Erlang, Exponential};
use stochastic_scheduling::queueing::achievable_region::{
    klimov_via_adaptive_greedy, region_lp, vertex_performance,
};
use stochastic_scheduling::queueing::cmu::cmu_order;
use stochastic_scheduling::queueing::cobham::{
    best_nonpreemptive_order, mg1_nonpreemptive_priority,
};
use stochastic_scheduling::queueing::klimov::{klimov_indices, KlimovNetwork};
use stochastic_scheduling::queueing::setups::{
    simulate_setup_policy, sqrt_rule_thresholds, SetupPolicy,
};

/// Build a stable multiclass M/G/1 instance from raw parameters, scaling the
/// arrival rates so the total load is `target_load`.
fn stable_classes(costs: &[f64], means: &[f64], target_load: f64) -> Vec<JobClass> {
    assert_eq!(costs.len(), means.len());
    let raw_load: f64 = means.iter().sum::<f64>();
    let rate = target_load / raw_load;
    costs
        .iter()
        .zip(means)
        .enumerate()
        .map(|(j, (&c, &m))| {
            let dist = if j % 2 == 0 {
                dyn_dist(Exponential::with_mean(m))
            } else {
                dyn_dist(Erlang::with_mean(2, m))
            };
            JobClass::new(j, rate, dist, c)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generic adaptive-greedy algorithm with the trivial work measure
    /// is exactly the cµ-rule, for arbitrary costs and means.
    #[test]
    fn adaptive_greedy_is_cmu_for_isolated_jobs(
        costs in prop::collection::vec(0.1f64..8.0, 2..6),
        means in prop::collection::vec(0.2f64..4.0, 2..6),
    ) {
        let n = costs.len().min(means.len());
        let costs = &costs[..n];
        let means = &means[..n];
        let oracle = TransferWorkMeasure::isolated(means.to_vec());
        let result = adaptive_greedy(costs, &oracle);
        for j in 0..n {
            prop_assert!((result.indices[j] - costs[j] / means[j]).abs() < 1e-12);
        }
        prop_assert!(result.rates_non_increasing(1e-9));
    }

    /// Polymatroid vertices computed from nested set-function differences
    /// equal Cobham's exact per-class `rho_j W_j` for every priority order.
    #[test]
    fn vertices_equal_cobham(
        costs in prop::collection::vec(0.2f64..5.0, 3..5),
        means in prop::collection::vec(0.3f64..2.0, 3..5),
        load in 0.3f64..0.9,
        perm_seed in 0usize..6,
    ) {
        let n = costs.len().min(means.len()).min(3);
        let classes = stable_classes(&costs[..n], &means[..n], load);
        let mut order: Vec<usize> = (0..n).collect();
        // A deterministic permutation chosen by the seed.
        order.rotate_left(perm_seed % n);
        if perm_seed % 2 == 1 {
            order.reverse();
        }
        let vertex = vertex_performance(&classes, &order);
        let exact = mg1_nonpreemptive_priority(&classes, &order);
        for j in 0..n {
            prop_assert!(
                (vertex[j] - classes[j].load() * exact.wait[j]).abs() < 1e-8,
                "class {}: {} vs {}", j, vertex[j], classes[j].load() * exact.wait[j]
            );
        }
    }

    /// The achievable-region LP optimum equals the exhaustive best static
    /// priority cost (and therefore the cµ cost) on random stable instances.
    #[test]
    fn region_lp_equals_exhaustive_best(
        costs in prop::collection::vec(0.2f64..5.0, 3..5),
        means in prop::collection::vec(0.3f64..2.0, 3..5),
        load in 0.3f64..0.85,
    ) {
        let n = costs.len().min(means.len());
        let classes = stable_classes(&costs[..n], &means[..n], load);
        let lp = region_lp(&classes);
        let (_, best) = best_nonpreemptive_order(&classes);
        let cmu = cmu_order(&classes);
        let cmu_cost = mg1_nonpreemptive_priority(&classes, &cmu).holding_cost_rate;
        prop_assert!((lp.holding_cost_rate - best).abs() < 1e-5 * best.max(1.0));
        prop_assert!((lp.holding_cost_rate - cmu_cost).abs() < 1e-5 * cmu_cost.max(1.0));
    }

    /// A branching bandit with no offspring is the static batch problem: its
    /// indices are the WSEPT indices `c_i / E[S_i]`.
    #[test]
    fn branching_without_offspring_is_wsept(
        costs in prop::collection::vec(0.1f64..5.0, 2..6),
        means in prop::collection::vec(0.2f64..4.0, 2..6),
    ) {
        let n = costs.len().min(means.len());
        let services = means[..n].iter().map(|&m| dyn_dist(Exponential::with_mean(m))).collect();
        let bandit = BranchingBandit::new(
            services,
            costs[..n].to_vec(),
            vec![OffspringDist::none(n); n],
        );
        let result = bandit.indices();
        for j in 0..n {
            prop_assert!((result.indices[j] - costs[j] / means[j]).abs() < 1e-10);
        }
    }

    /// The generic adaptive greedy with the Klimov work measure reproduces
    /// the dedicated Klimov algorithm on random chain-feedback networks.
    #[test]
    fn adaptive_greedy_matches_klimov(
        costs in prop::collection::vec(0.2f64..5.0, 3..5),
        means in prop::collection::vec(0.2f64..1.5, 3..5),
        feedback in prop::collection::vec(0.0f64..0.7, 3..5),
    ) {
        let n = costs.len().min(means.len()).min(feedback.len());
        let services: Vec<_> = means[..n].iter().map(|&m| dyn_dist(Exponential::with_mean(m))).collect();
        // Chain routing i -> i+1 with probability feedback[i]; last class leaves.
        let mut routing = vec![vec![0.0; n]; n];
        for i in 0..n - 1 {
            routing[i][i + 1] = feedback[i];
        }
        let network = KlimovNetwork::new(vec![0.05; n], services, costs[..n].to_vec(), routing);
        let generic = klimov_via_adaptive_greedy(&network);
        let dedicated = klimov_indices(&network);
        for j in 0..n {
            prop_assert!(
                (generic.indices[j] - dedicated[j]).abs() < 1e-8,
                "class {}: {} vs {}", j, generic.indices[j], dedicated[j]
            );
        }
    }

    /// Square-root thresholds are nonnegative, zero exactly when the setup is
    /// zero, and monotone in the setup time.
    #[test]
    fn sqrt_thresholds_are_monotone_in_the_setup(
        setup in 0.01f64..1.5,
        load in 0.3f64..0.85,
    ) {
        let classes = stable_classes(&[1.0, 2.0], &[1.0, 0.8], load);
        let zero = sqrt_rule_thresholds(&classes, &[0.0, 0.0]);
        prop_assert!(zero.iter().all(|&t| t == 0.0));
        let small = sqrt_rule_thresholds(&classes, &[setup, setup]);
        let large = sqrt_rule_thresholds(&classes, &[2.0 * setup, 2.0 * setup]);
        for j in 0..2 {
            prop_assert!(small[j] > 0.0);
            prop_assert!(large[j] >= small[j] - 1e-9);
        }
    }
}

/// A branching bandit whose offspring are Bernoulli single-child "routings"
/// is Klimov's network without external arrivals: the two crates must assign
/// identical indices.
#[test]
fn branching_bandit_and_klimov_network_assign_identical_indices() {
    let means = [0.8, 0.6, 1.2, 0.9];
    let costs = [1.0, 2.0, 4.0, 1.5];
    let route = [(0usize, 1usize, 0.6), (1, 2, 0.3), (2, 3, 0.5)];

    let services_q: Vec<_> = means
        .iter()
        .map(|&m| dyn_dist(Exponential::with_mean(m)))
        .collect();
    let mut routing = vec![vec![0.0; 4]; 4];
    for &(from, to, p) in &route {
        routing[from][to] = p;
    }
    let network = KlimovNetwork::new(vec![0.05; 4], services_q, costs.to_vec(), routing);

    let services_b: Vec<_> = means
        .iter()
        .map(|&m| dyn_dist(Exponential::with_mean(m)))
        .collect();
    let offspring: Vec<OffspringDist> = (0..4)
        .map(|i| {
            route
                .iter()
                .find(|&&(from, _, _)| from == i)
                .map(|&(_, to, p)| OffspringDist::feedback(4, to, p))
                .unwrap_or_else(|| OffspringDist::none(4))
        })
        .collect();
    let bandit = BranchingBandit::new(services_b, costs.to_vec(), offspring);

    let klimov = klimov_indices(&network);
    let branching = bandit.indices();
    for j in 0..4 {
        assert!(
            (klimov[j] - branching.indices[j]).abs() < 1e-9,
            "class {j}: Klimov {} vs branching {}",
            klimov[j],
            branching.indices[j]
        );
    }
    assert_eq!(
        bandit.index_order(),
        stochastic_scheduling::queueing::klimov::klimov_order(&network)
    );
}

/// The marginal productivity indices drive the restless-bandit simulator to
/// the same long-run reward as the Whittle indices they replicate.
#[test]
fn mpi_policy_matches_whittle_policy_in_simulation() {
    let project = maintenance_project(5, 0.35, 0.4, 0.95);
    let whittle = whittle_indices(&project);
    let mpi = marginal_productivity_indices(&project, 1e-9);
    assert!(mpi.pcl_indexable);

    let n = 12;
    let m = 4;
    let projects: Vec<_> = (0..n).map(|_| project.clone()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let reward_whittle = simulate_restless(
        &projects,
        m,
        &RestlessPolicy::WhittleIndex(vec![whittle.clone(); n]),
        30_000,
        &mut rng,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let reward_mpi = simulate_restless(
        &projects,
        m,
        &RestlessPolicy::WhittleIndex(vec![mpi.indices.clone(); n]),
        30_000,
        &mut rng,
    );
    // Identical index *ordering* means identical decisions and rewards under
    // the same random stream.
    assert!(
        (reward_whittle - reward_mpi).abs() < 1e-9,
        "Whittle policy {reward_whittle} vs MPI policy {reward_mpi}"
    );
}

/// With asymmetric holding costs and a substantial setup, the square-root
/// interrupt-threshold policy beats both never interrupting (exhaustive
/// polling, which lets expensive work pile up) and switching on every job
/// (which wastes capacity on changeovers).
#[test]
fn threshold_policy_beats_exhaustive_and_myopic_with_asymmetric_costs() {
    let classes = vec![
        JobClass::new(0, 0.50, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(1, 0.15, dyn_dist(Exponential::with_mean(0.8)), 6.0),
    ];
    let setup_time = 1.0;
    let setup: Vec<_> = (0..2)
        .map(|_| dyn_dist(Deterministic::new(setup_time)))
        .collect();
    let thresholds = sqrt_rule_thresholds(&classes, &[setup_time, setup_time]);

    let run = |policy: &SetupPolicy, seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        simulate_setup_policy(&classes, &setup, policy, 150_000.0, 5_000.0, &mut rng)
    };
    let threshold = run(&SetupPolicy::Threshold { thresholds }, 17);
    let exhaustive = run(&SetupPolicy::Exhaustive, 17);
    let myopic = run(&SetupPolicy::CmuEveryJob, 17);

    assert!(
        threshold.holding_cost_rate < exhaustive.holding_cost_rate,
        "threshold {} should beat exhaustive {}",
        threshold.holding_cost_rate,
        exhaustive.holding_cost_rate
    );
    assert!(
        threshold.holding_cost_rate < myopic.holding_cost_rate,
        "threshold {} should beat cmu-every-job {}",
        threshold.holding_cost_rate,
        myopic.holding_cost_rate
    );
}
