//! Golden pin on the exact bits of the list-schedule layer.
//!
//! The gates that read it print rounded values (`verify-check.txt` shows 6
//! decimals, EXPERIMENTS.md 4), so a last-bit drift in the schedule (a
//! reordered draw, a changed machine tie-break, a reassociated sum) would
//! pass them.  The digest folds, for three instances (exponential jobs,
//! two-point jobs and a weighted mix of laws), the SEPT, LEPT and WSEPT
//! lists, seeded realisations of each list on one to three machines, and
//! the replication summaries of every objective, together with the exact
//! two-point enumeration of three lists.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ss_batch::parallel::{evaluate_list_policy, simulate_list_schedule, ParallelMetric};
use ss_batch::policies::{lept_order, sept_order, wsept_order};
use ss_batch::two_point_exact::{exact_list_performance, TwoPointInstance};
use ss_core::instance::BatchInstance;
use ss_distributions::{
    dyn_dist, Deterministic, Erlang, Exponential, HyperExponential, TwoPoint, Uniform,
};

/// E3's exponential rates.
const E3_RATES: [f64; 8] = [0.4, 2.5, 1.0, 3.0, 0.7, 1.8, 1.3, 0.9];

/// E5's two-point jobs, `(p_low, low, high)`.
const E5_JOBS: [(f64, f64, f64); 6] = [
    (0.9, 0.1, 6.0),
    (0.5, 1.0, 2.0),
    (0.2, 0.5, 1.4),
    (0.8, 0.3, 7.0),
    (0.6, 0.8, 2.2),
    (0.7, 0.4, 3.5),
];

const METRICS: [ParallelMetric; 3] = [
    ParallelMetric::TotalFlowtime,
    ParallelMetric::WeightedFlowtime,
    ParallelMetric::Makespan,
];

fn two_point_jobs() -> Vec<TwoPoint> {
    E5_JOBS
        .iter()
        .map(|&(p, low, high)| TwoPoint::new(p, low, high))
        .collect()
}

fn instances() -> [BatchInstance; 3] {
    let mut e3 = BatchInstance::builder();
    for rate in E3_RATES {
        e3 = e3.unweighted_job(dyn_dist(Exponential::new(rate)));
    }
    let mut e5 = BatchInstance::builder();
    for tp in two_point_jobs() {
        e5 = e5.unweighted_job(dyn_dist(tp));
    }
    let mixed = BatchInstance::builder()
        .job(2.0, dyn_dist(Erlang::with_mean(3, 1.2)))
        .job(1.0, dyn_dist(HyperExponential::with_mean_scv(0.8, 4.0)))
        .job(0.5, dyn_dist(Deterministic::new(1.5)))
        .job(3.0, dyn_dist(Uniform::new(0.2, 1.8)))
        .job(1.5, dyn_dist(Erlang::with_mean(2, 0.6)))
        .job(2.5, dyn_dist(HyperExponential::with_mean_scv(2.0, 2.5)))
        .job(1.0, dyn_dist(Deterministic::new(0.7)))
        .build();
    [e3.build(), e5.build(), mixed]
}

fn digest(words: &[u64]) -> (u64, usize) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    (hash, words.len())
}

#[test]
fn list_schedule_bits_match_the_recorded_digest() {
    let mut words = Vec::new();
    for (i, instance) in instances().iter().enumerate() {
        let lists = [
            sept_order(instance),
            lept_order(instance),
            wsept_order(instance),
        ];
        for (l, list) in lists.iter().enumerate() {
            words.extend(list.iter().map(|&j| j as u64));
            for machines in 1..=3 {
                let seed = (100 * i + 10 * l + machines) as u64;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                for _ in 0..4 {
                    let out = simulate_list_schedule(instance, list, machines, &mut rng);
                    words.push(out.total_flowtime.to_bits());
                    words.push(out.weighted_flowtime.to_bits());
                    words.push(out.makespan.to_bits());
                }
            }
            for (k, metric) in METRICS.into_iter().enumerate() {
                let seed = (1000 + 100 * i + 10 * l + k) as u64;
                let summary = evaluate_list_policy(instance, list, 2, metric, 200, seed);
                words.push(summary.mean.to_bits());
                words.push(summary.std_dev.to_bits());
                words.push(summary.ci95.to_bits());
            }
        }
    }

    let e5 = &instances()[1];
    let exact = TwoPointInstance::unweighted(two_point_jobs());
    let identity: Vec<usize> = (0..exact.len()).collect();
    for list in [sept_order(e5), lept_order(e5), identity] {
        for machines in 1..=3 {
            let out = exact_list_performance(&exact, &list, machines);
            words.extend(
                [out.total_flowtime, out.weighted_flowtime, out.makespan].map(f64::to_bits),
            );
        }
    }

    let (hash, len) = digest(&words);
    assert_eq!(
        (hash, len),
        (0xc20f_7fce_4ba9_184a, 495),
        "list-schedule bits drifted: digest {hash:#018x} over {len} words"
    );
}
