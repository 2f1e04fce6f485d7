//! First dedicated test suite for `ss_queueing::klimov`: the index
//! computation pinned against a fully hand-worked 2-class feedback example,
//! plus the oracle-grade simulator (`ss_queueing::klimov_sim`) checked
//! against the exact indices and the workload conservation constant.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ss_distributions::{dyn_dist, Exponential};
use ss_queueing::klimov::{klimov_indices, klimov_order, KlimovNetwork};
use ss_queueing::klimov_sim::{exact_mean_workload, simulate_klimov_policy, KlimovPolicyResult};
use ss_queueing::network::simulate_network;
use ss_sim::replication::run_replications_parallel;

/// Mean of `stat` over four oracle-simulator replications from `seed`.
fn replicated_mean(
    net: &KlimovNetwork,
    order: &[usize],
    horizon: f64,
    seed: u64,
    stat: fn(&KlimovPolicyResult) -> f64,
) -> f64 {
    run_replications_parallel(4, seed, |_, rng| {
        stat(&simulate_klimov_policy(net, order, horizon, 2_000.0, rng))
    })
    .mean
}

/// The hand-worked network: class 0 (β₀ = 2, c₀ = 3) feeds back into
/// class 1 (β₁ = 1, c₁ = 5) with probability 1/2; class 1 always leaves.
///
/// Klimov's largest-index-first recursion by hand:
///
/// * round 1, candidate {1}: `T₁ = β₁ = 1`, `E₁ = 0` (leaves only), index
///   `c₁/T₁ = 5`;
/// * round 1, candidate {0}: `T₀ = β₀ = 2`, `E₀ = p₀₁ c₁ = 2.5`, index
///   `(c₀ − E₀)/T₀ = (3 − 2.5)/2 = 0.25` — so class 1 is assigned first
///   with index 5;
/// * round 2, candidate {0, 1}: `T₀ = β₀ + p₀₁ T₁ = 2.5`, `E₀ = 0`, index
///   `c₀/T₀ = 3/2.5 = 1.2`.
///
/// Hence `klimov_indices = [1.2, 5.0]` and the order is `[1, 0]`.
fn hand_worked_network() -> KlimovNetwork {
    KlimovNetwork::new(
        vec![0.15, 0.1],
        vec![
            dyn_dist(Exponential::with_mean(2.0)),
            dyn_dist(Exponential::with_mean(1.0)),
        ],
        vec![3.0, 5.0],
        vec![vec![0.0, 0.5], vec![0.0, 0.0]],
    )
}

#[test]
fn indices_match_the_hand_worked_two_class_example() {
    let net = hand_worked_network();
    let idx = klimov_indices(&net);
    assert!(
        (idx[0] - 1.2).abs() < 1e-9,
        "class 0 index {} != 1.2",
        idx[0]
    );
    assert!(
        (idx[1] - 5.0).abs() < 1e-9,
        "class 1 index {} != 5.0",
        idx[1]
    );
    assert_eq!(klimov_order(&net), vec![1, 0]);
}

#[test]
fn hand_worked_network_traffic_equations() {
    let net = hand_worked_network();
    let gamma = net.as_network().effective_rates();
    assert!((gamma[0] - 0.15).abs() < 1e-12);
    assert!((gamma[1] - (0.1 + 0.5 * 0.15)).abs() < 1e-12);
    let rho = net.total_load();
    assert!((rho - (0.15 * 2.0 + 0.175 * 1.0)).abs() < 1e-12);
    assert!(rho < 1.0);
}

#[test]
fn without_feedback_the_indices_are_cmu() {
    let net = KlimovNetwork::new(
        vec![0.2, 0.25],
        vec![
            dyn_dist(Exponential::with_mean(2.0)),
            dyn_dist(Exponential::with_mean(0.4)),
        ],
        vec![3.0, 1.0],
        vec![vec![0.0; 2]; 2],
    );
    let idx = klimov_indices(&net);
    assert!((idx[0] - 3.0 / 2.0).abs() < 1e-9);
    assert!((idx[1] - 1.0 / 0.4).abs() < 1e-9);
    assert_eq!(klimov_order(&net), vec![1, 0]);
}

#[test]
fn klimov_order_beats_the_reversed_order_in_simulation() {
    // The exact indices say [1, 0] is optimal among static priority
    // orders; both simulators must agree within Monte-Carlo noise.
    let net = hand_worked_network();
    let best = klimov_order(&net);
    let reversed: Vec<usize> = best.iter().rev().copied().collect();
    let mean_cost =
        |order: &[usize]| replicated_mean(&net, order, 60_000.0, 21, |r| r.holding_cost_rate);
    let (good, bad) = (mean_cost(&best), mean_cost(&reversed));
    assert!(
        good <= bad * 1.02,
        "Klimov order cost {good} should not exceed the reversed order's {bad}"
    );
    // The queue-length simulator of the one-station network agrees on the
    // ranking.
    let network = net.as_network();
    let network_cost = |order: &Vec<usize>| {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let slice = std::slice::from_ref(order);
        simulate_network(&network, slice, 60_000.0, 2_000.0, 2, &mut rng).holding_cost_rate
    };
    assert!(network_cost(&best) <= network_cost(&reversed) * 1.02);
}

#[test]
fn simulated_workload_matches_the_conservation_constant() {
    // Chain moments by hand for the 2-class example: B₁ = S₁ so
    // E[B₁] = 1, E[B₁²] = 2 (exponential); B₀ = S₀ + Bernoulli(½)·B₁ so
    // E[B₀] = 2 + ½·1 = 2.5 and
    // E[B₀²] = E[S₀²] + 2 E[S₀] ½ E[B₁] + ½ E[B₁²] = 8 + 2 + 1 = 11.
    // E[V] = (α₀ E[B₀²] + α₁ E[B₁²]) / (2 (1 − ρ))
    //      = (0.15·11 + 0.1·2) / (2·0.525) = 1.85/1.05.
    let net = hand_worked_network();
    let exact = exact_mean_workload(&net);
    assert!(
        (exact - 1.85 / 1.05).abs() < 1e-12,
        "exact workload {exact}"
    );
    let sim = replicated_mean(&net, &klimov_order(&net), 80_000.0, 9, |r| r.mean_workload);
    assert!(
        (sim - exact).abs() / exact < 0.08,
        "simulated workload {sim} vs exact {exact}"
    );
}
