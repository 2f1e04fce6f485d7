//! Golden pin on the exact output bits of the five queueing simulators.
//!
//! The experiments' tables round what these simulators report, and the
//! oracle corpus checks only `mg1` and `klimov_sim` against tolerances, so
//! a reordered draw or a reassociated time average could pass both.  Each
//! test runs one small configuration per simulator and mode at fixed seeds
//! and folds every reported `f64`'s bits and every count into one FNV-1a
//! digest, compared with the recorded value.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ss_core::job::JobClass;
use ss_distributions::{dyn_dist, Deterministic, DynDist, Erlang, Exponential, HyperExponential};
use ss_queueing::klimov::KlimovNetwork;
use ss_queueing::klimov_sim::simulate_klimov_policy;
use ss_queueing::mg1::{simulate_mg1, Discipline, Mg1Config};
use ss_queueing::network::{simulate_network, MultiClassNetwork, NetworkClass};
use ss_queueing::parallel_servers::simulate_mmm_priority;
use ss_queueing::setups::{simulate_setup_policy, SetupPolicy};

/// Asserts that the FNV-1a digest of `words`' little-endian bytes, and
/// their number, are the recorded ones.
fn assert_digest(simulator: &str, words: &[u64], recorded: (u64, usize)) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    assert_eq!(
        (hash, words.len()),
        recorded,
        "{simulator} bits drifted: digest {hash:#018x} over {} words",
        words.len()
    );
}

fn bits(xs: &[f64]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|x| x.to_bits())
}

fn two_classes() -> Vec<JobClass> {
    vec![
        JobClass::new(0, 0.35, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(1, 0.25, dyn_dist(Erlang::with_mean(2, 0.9)), 3.0),
    ]
}

#[test]
fn mg1_bits_match_the_recorded_digest() {
    let mut words = Vec::new();
    let disciplines = [
        Discipline::Fifo,
        Discipline::NonpreemptivePriority(vec![1, 0]),
        Discipline::PreemptivePriority(vec![1, 0]),
    ];
    for (seed, discipline) in disciplines.into_iter().enumerate() {
        let config = Mg1Config {
            classes: two_classes(),
            discipline,
            horizon: 3_000.0,
            warmup: 300.0,
        };
        let res = simulate_mg1(&config, &mut ChaCha8Rng::seed_from_u64(seed as u64));
        words.extend(bits(&res.mean_number).chain(bits(&res.mean_wait)));
        words.push(res.holding_cost_rate.to_bits());
        words.extend(&res.completed);
    }
    assert_digest("mg1", &words, (0x28f1_318d_5721_7b80, 21));
}

#[test]
fn klimov_sim_bits_match_the_recorded_digest() {
    let network = KlimovNetwork::new(
        vec![0.25, 0.1, 0.05],
        vec![
            dyn_dist(Exponential::with_mean(0.8)),
            dyn_dist(Exponential::with_mean(0.6)),
            dyn_dist(Erlang::with_mean(2, 1.2)),
        ],
        vec![1.0, 2.0, 4.0],
        vec![
            vec![0.1, 0.5, 0.0],
            vec![0.0, 0.0, 0.3],
            vec![0.2, 0.0, 0.0],
        ],
    );
    let mut words = Vec::new();
    for (seed, order) in [[2, 1, 0], [0, 1, 2]].iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(10 + seed as u64);
        let res = simulate_klimov_policy(&network, order, 3_000.0, 300.0, &mut rng);
        words.extend(bits(&res.mean_number));
        words.extend(bits(&[res.holding_cost_rate, res.mean_workload]));
        words.extend(&res.visits_completed);
    }
    assert_digest("klimov_sim", &words, (0x72e2_2770_cc51_c0bb, 16));
}

#[test]
fn network_bits_match_the_recorded_digest() {
    // Two stations; class 0 feeds class 1 or class 2, class 2 feeds back
    // to class 0, and class 3 is left out of station 1's list so it ranks
    // below every listed class.
    let class = |station, arrival_rate, mean, holding_cost, routing| NetworkClass {
        station,
        arrival_rate,
        service: dyn_dist(Exponential::with_mean(mean)),
        holding_cost,
        routing,
    };
    let network = MultiClassNetwork::new(vec![
        class(0, 0.3, 0.6, 1.0, vec![(1, 0.5), (2, 0.3)]),
        class(1, 0.1, 0.8, 2.0, vec![]),
        class(0, 0.0, 0.5, 3.0, vec![(0, 0.2)]),
        class(1, 0.15, 0.7, 1.5, vec![]),
    ]);
    let priorities = [vec![2, 0], vec![1]];
    let mut words = Vec::new();
    for (seed, samples) in [Some(21), None].into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(20 + seed as u64);
        let res = simulate_network(&network, &priorities, 2_000.0, 200.0, samples, &mut rng);
        words.extend(bits(&res.mean_number));
        words.push(res.holding_cost_rate.to_bits());
        words.extend(bits(&res.trajectory).chain(bits(&res.sample_times)));
        words.push(res.final_total as u64);
    }
    assert_digest("network", &words, (0xc218_5573_08c4_1dd9, 54));
}

#[test]
fn setups_bits_match_the_recorded_digest() {
    let classes = vec![
        JobClass::new(0, 0.35, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(
            1,
            0.2,
            dyn_dist(HyperExponential::with_mean_scv(0.8, 2.0)),
            4.0,
        ),
        JobClass::new(2, 0.05, dyn_dist(Exponential::with_mean(0.5)), 2.0),
    ];
    let setup: Vec<DynDist> = vec![
        dyn_dist(Deterministic::new(0.3)),
        dyn_dist(Exponential::with_mean(0.2)),
        dyn_dist(Deterministic::new(0.5)),
    ];
    let policies = [
        SetupPolicy::CmuEveryJob,
        SetupPolicy::Exhaustive,
        SetupPolicy::Threshold {
            thresholds: vec![2.0, 3.0, 1.0],
        },
        SetupPolicy::Gated,
    ];
    let mut words = Vec::new();
    for (seed, policy) in policies.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(30 + seed as u64);
        let res = simulate_setup_policy(&classes, &setup, policy, 3_000.0, 300.0, &mut rng);
        words.extend(bits(&res.mean_number));
        words.extend(bits(&[res.holding_cost_rate, res.setup_time_fraction]));
        words.push(res.setups);
    }
    assert_digest("setups", &words, (0x42c6_e9ef_0436_98ca, 24));
}

#[test]
fn parallel_servers_bits_match_the_recorded_digest() {
    let classes = vec![
        JobClass::new(0, 0.8, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(1, 0.6, dyn_dist(Exponential::with_mean(0.6)), 3.0),
    ];
    let mut words = Vec::new();
    for (seed, order) in [[1, 0], [0, 1]].iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(40 + seed as u64);
        let res = simulate_mmm_priority(&classes, 2, order, 3_000.0, 300.0, &mut rng);
        words.extend(bits(&res.mean_number));
        words.push(res.holding_cost_rate.to_bits());
    }
    assert_digest("parallel_servers", &words, (0x0670_016d_0ee4_8ad3, 6));
}
