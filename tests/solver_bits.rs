//! Golden pin on the exact output bits of the exact solvers.
//!
//! The gates that read these solvers print rounded values: EXPERIMENTS.md
//! tables show 4 decimals and `verify-check.txt` shows 6, so a last-bit
//! drift (a reassociated sum, a reordered elimination, a changed
//! tie-break) would pass them.  Each test evaluates one solver family on
//! small fixed instances, some with exact ties, and folds every returned
//! `f64`'s bits and every returned order or policy into one FNV-1a digest,
//! compared with the recorded value.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stochastic_scheduling::bandits::branching::offspring::OffspringDist;
use stochastic_scheduling::bandits::branching::BranchingBandit;
use stochastic_scheduling::bandits::instances::random_restless_project;
use stochastic_scheduling::bandits::restless_exact::restless_optimal_gain;
use stochastic_scheduling::batch::exact_exp::{list_policy_value, optimal_value};
use stochastic_scheduling::batch::parallel::ParallelMetric::{
    Makespan, TotalFlowtime, WeightedFlowtime,
};
use stochastic_scheduling::batch::policies::{lept_order, sept_order};
use stochastic_scheduling::batch::single_machine::exhaustive_optimal_order;
use stochastic_scheduling::batch::two_point_exact::{best_static_list, TwoPointInstance};
use stochastic_scheduling::core::adaptive_greedy::AdaptiveGreedyResult;
use stochastic_scheduling::core::instance::BatchInstance;
use stochastic_scheduling::core::job::JobClass;
use stochastic_scheduling::distributions::{
    dyn_dist, Deterministic, Erlang, Exponential, HyperExponential, TwoPoint,
};
use stochastic_scheduling::mdp::{
    relative_value_iteration, value_iteration, MarkovChain, Mdp, MdpBuilder, ValueIterationOptions,
};
use stochastic_scheduling::queueing::achievable_region::{
    cmu_via_adaptive_greedy, klimov_via_adaptive_greedy,
};
use stochastic_scheduling::queueing::cobham::best_nonpreemptive_order;
use stochastic_scheduling::queueing::klimov::{klimov_indices, KlimovNetwork};

/// Asserts that the FNV-1a digest of `words`' little-endian bytes, and
/// their number, are the recorded ones.
fn assert_digest(solver: &str, words: &[u64], recorded: (u64, usize)) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    assert_eq!(
        (hash, words.len()),
        recorded,
        "{solver} bits drifted: digest {hash:#018x} over {} words",
        words.len()
    );
}

fn bits(xs: &[f64]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|x| x.to_bits())
}

fn ids(xs: &[usize]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|&x| x as u64)
}

/// Pushes an order search's `(order, value)`.
fn push_search(words: &mut Vec<u64>, (order, value): (Vec<usize>, f64)) {
    words.extend(ids(&order));
    words.push(value.to_bits());
}

/// Pushes an adaptive-greedy run's indices, assignment rates and order.
fn push_greedy(words: &mut Vec<u64>, result: &AdaptiveGreedyResult) {
    words.extend(bits(&result.indices));
    words.extend(bits(&result.assignment_rates));
    words.extend(ids(&result.order));
}

/// Four classes; classes 1 and 3 are identical, so two orders tie.
fn four_classes() -> Vec<JobClass> {
    vec![
        JobClass::new(0, 0.12, dyn_dist(Exponential::with_mean(1.1)), 1.0),
        JobClass::new(1, 0.10, dyn_dist(Erlang::with_mean(3, 0.7)), 2.5),
        JobClass::new(
            2,
            0.08,
            dyn_dist(HyperExponential::with_mean_scv(1.6, 3.0)),
            2.0,
        ),
        JobClass::new(3, 0.10, dyn_dist(Erlang::with_mean(3, 0.7)), 2.5),
    ]
}

fn feedback_network() -> KlimovNetwork {
    KlimovNetwork::new(
        vec![0.2, 0.1, 0.05, 0.04],
        vec![
            dyn_dist(Exponential::with_mean(0.8)),
            dyn_dist(Erlang::with_mean(2, 0.6)),
            dyn_dist(Exponential::with_mean(1.2)),
            dyn_dist(Deterministic::new(0.9)),
        ],
        vec![1.0, 2.0, 4.0, 3.0],
        vec![
            vec![0.0, 0.5, 0.1, 0.0],
            vec![0.2, 0.0, 0.3, 0.1],
            vec![0.0, 0.0, 0.0, 0.4],
            vec![0.1, 0.0, 0.0, 0.0],
        ],
    )
}

#[test]
fn order_search_bits_match_the_recorded_digest() {
    let mut words = Vec::new();
    push_search(&mut words, best_nonpreemptive_order(&four_classes()));

    // Jobs 1 and 4 are identical, and jobs 0 and 2 have equal ratios.
    let batch = BatchInstance::builder()
        .job(1.0, dyn_dist(Exponential::with_mean(2.0)))
        .job(3.0, dyn_dist(Erlang::with_mean(2, 0.5)))
        .job(2.0, dyn_dist(Exponential::with_mean(4.0)))
        .job(2.5, dyn_dist(Deterministic::new(1.5)))
        .job(3.0, dyn_dist(Erlang::with_mean(2, 0.5)))
        .job(0.5, dyn_dist(Exponential::with_mean(0.7)))
        .build();
    push_search(&mut words, exhaustive_optimal_order(&batch));

    let two_point = TwoPointInstance {
        jobs: vec![
            TwoPoint::new(0.9, 0.5, 6.0),
            TwoPoint::new(0.5, 1.0, 2.0),
            TwoPoint::new(0.2, 0.8, 3.5),
            TwoPoint::new(0.5, 1.0, 2.0),
            TwoPoint::new(0.7, 0.3, 4.0),
        ],
        weights: vec![1.0, 2.0, 0.5, 2.0, 1.5],
    };
    for objective in [TotalFlowtime, WeightedFlowtime, Makespan] {
        push_search(&mut words, best_static_list(&two_point, 2, objective));
    }
    assert_digest("order search", &words, (0x8c2e_3635_7961_f277, 30));
}

#[test]
fn subset_dp_bits_match_the_recorded_digest() {
    let mut words = Vec::new();
    // Exponential jobs; the rates of jobs 2 and 6 tie.
    let rates = [0.4, 2.5, 1.0, 3.0, 0.7, 1.8, 1.0];
    let weights = [1.0, 0.5, 2.0, 1.5, 3.0, 1.0, 2.0];
    let mut builder = BatchInstance::builder();
    for (rate, weight) in rates.into_iter().zip(weights) {
        builder = builder.job(weight, dyn_dist(Exponential::new(rate)));
    }
    let instance = builder.build();
    let lists = [
        sept_order(&instance),
        lept_order(&instance),
        vec![6, 0, 5, 1, 4, 2, 3],
    ];
    for machines in 1..=3 {
        for list in &lists {
            for objective in [WeightedFlowtime, Makespan] {
                words.push(list_policy_value(&instance, list, machines, objective).to_bits());
            }
        }
        for objective in [WeightedFlowtime, Makespan] {
            words.push(optimal_value(&instance, machines, objective).to_bits());
        }
    }
    assert_digest("subset DP", &words, (0xee80_0cf5_ba4d_9302, 24));
}

#[test]
fn restless_optimal_gain_bits_match_the_recorded_digest() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let projects: Vec<_> = (0..3)
        .map(|_| random_restless_project(3, &mut rng))
        .collect();
    let words: Vec<u64> = (1..=2)
        .map(|m| restless_optimal_gain(&projects, m).to_bits())
        .collect();
    assert_digest("restless optimal gain", &words, (0x17eb_f706_b17f_3c21, 2));
}

#[test]
fn adaptive_greedy_bits_match_the_recorded_digest() {
    let mut words = Vec::new();
    push_greedy(&mut words, &cmu_via_adaptive_greedy(&four_classes()));
    let network = feedback_network();
    push_greedy(&mut words, &klimov_via_adaptive_greedy(&network));
    words.extend(bits(&klimov_indices(&network)));

    let feedback = BranchingBandit::new(
        vec![
            dyn_dist(Exponential::with_mean(0.8)),
            dyn_dist(Exponential::with_mean(0.6)),
            dyn_dist(Exponential::with_mean(1.2)),
        ],
        vec![1.0, 2.0, 4.0],
        vec![
            OffspringDist::feedback(3, 1, 0.6),
            OffspringDist::feedback(3, 2, 0.3),
            OffspringDist::none(3),
        ],
    );
    let branching = BranchingBandit::new(
        vec![
            dyn_dist(Exponential::with_mean(1.0)),
            dyn_dist(Erlang::with_mean(2, 0.5)),
            dyn_dist(Exponential::with_mean(1.5)),
            dyn_dist(Deterministic::new(0.5)),
        ],
        vec![2.0, 1.0, 3.0, 1.0],
        vec![
            OffspringDist::new(vec![
                (vec![0, 1, 1, 0], 0.3),
                (vec![0, 1, 0, 1], 0.3),
                (vec![0, 0, 0, 0], 0.4),
            ]),
            OffspringDist::feedback(4, 2, 0.4),
            OffspringDist::new(vec![(vec![1, 0, 0, 2], 0.2), (vec![0, 0, 0, 0], 0.8)]),
            OffspringDist::none(4),
        ],
    );
    // Two identical childless classes tie.
    let tied = BranchingBandit::new(
        vec![
            dyn_dist(Exponential::with_mean(1.0)),
            dyn_dist(Exponential::with_mean(2.0)),
            dyn_dist(Exponential::with_mean(1.0)),
        ],
        vec![1.0, 1.0, 1.0],
        vec![
            OffspringDist::feedback(3, 1, 0.5),
            OffspringDist::none(3),
            OffspringDist::none(3),
        ],
    );
    for bandit in [feedback, branching, tied] {
        push_greedy(&mut words, &bandit.indices());
    }
    assert_digest("adaptive greedy", &words, (0x886a_ca28_b469_a491, 58));
}

/// Five states, two or three actions each; in state 4 actions 0 and 2 are
/// identical, so the greedy step must break the tie.
fn five_state_mdp() -> Mdp {
    let mut b = MdpBuilder::new(5);
    for s in 0..5 {
        b.add_action(
            s,
            0.3 * s as f64,
            vec![((s + 1) % 5, 0.6), (s, 0.3), ((s + 3) % 5, 0.1)],
        );
        b.add_action(s, 1.0 - 0.15 * s as f64, vec![((s + 2) % 5, 0.8), (0, 0.2)]);
    }
    b.add_action(4, 0.3 * 4.0, vec![(0, 0.6), (4, 0.3), (2, 0.1)]);
    b.build()
}

#[test]
fn mdp_and_chain_bits_match_the_recorded_digest() {
    let mut words = Vec::new();
    let chain = MarkovChain::new(vec![
        vec![0.5, 0.2, 0.0, 0.3],
        vec![0.1, 0.6, 0.3, 0.0],
        vec![0.0, 0.25, 0.25, 0.5],
        vec![0.4, 0.0, 0.1, 0.5],
    ]);
    words.extend(bits(&chain.stationary_distribution()));

    let mdp = five_state_mdp();
    for discount in [0.5, 0.9] {
        let opts = ValueIterationOptions {
            discount,
            ..Default::default()
        };
        let sol = value_iteration(&mdp, &opts);
        words.extend(bits(&sol.values));
        words.extend(ids(&sol.policy));
        words.push(sol.iterations as u64);
        words.push(sol.residual.to_bits());
        words.extend(bits(&mdp.evaluate_policy_discounted(&sol.policy, discount)));
    }
    let average = relative_value_iteration(&mdp, 1e-10, 100_000);
    words.push(average.gain.to_bits());
    words.extend(bits(&average.bias));
    words.extend(ids(&average.policy));
    words.push(average.iterations as u64);
    words.extend(bits(&mdp.evaluate_policy_discounted(&[1, 0, 1, 0, 2], 0.8)));
    assert_digest("mdp", &words, (0x4051_2e6c_f030_fa6f, 55));
}
