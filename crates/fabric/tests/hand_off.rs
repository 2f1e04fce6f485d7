//! The invariants behind the idle-server hand-off.
//!
//! An arrival that finds its target server up and idle starts service at
//! once and never queues. That keeps the output bits only because an up,
//! idle server's queue bank is empty: a central tier with an idle up server
//! holds no waiting request, and a server's own queues are empty while it
//! is up and idle. `enqueue_at_tier` asserts both in release builds at
//! every hand-off.
//!
//! This suite drives central-queue, JSQ, round-robin and weighted tiers
//! through the paths that leave a server idle or change what waits: failures
//! that abort a service while requests are queued, repairs that restart
//! service from a backlog, reneging deadlines that discard expired requests
//! when a server frees up, client retries, and a breaker that trips. Each
//! runs at three queue capacities over many seeds. A broken invariant fires
//! a hand-off assert, and a miscounted rejection fires the per-row
//! accounting assert of `run_fabric_with`; either panics the test.

use ss_distributions::{dyn_dist, DynDist, Exponential};
use ss_fabric::{
    replication_seed, run_fabric, ArrivalProcess, BreakerConfig, ClassConfig, DeadlineConfig,
    DisciplineKind, FabricConfig, FailureConfig, LbPolicy, RetryPolicy, TierConfig, DEFAULT_SEED,
};
use ss_sim::rng::RngStreams;

const SEEDS: u64 = 16;

fn exp(mean: f64) -> DynDist {
    dyn_dist(Exponential::with_mean(mean))
}

fn tier(
    servers: usize,
    lb: LbPolicy,
    queue_capacity: Option<usize>,
    service: Vec<DynDist>,
) -> TierConfig {
    TierConfig {
        servers,
        queue_capacity,
        service,
        discipline: DisciplineKind::Cmu,
        lb,
        hop_delay: 0.1,
        // About one sixth of the time down: with the load below, the
        // up servers run near or past saturation, so backlogs form while
        // servers are down and drain when they recover.
        failure: Some(FailureConfig {
            mean_time_to_failure: 30.0,
            mean_time_to_repair: 6.0,
        }),
        breaker: None,
        slowdown: None,
    }
}

/// Two classes through two tiers that both balance with `lb`, under cµ,
/// with failures, reneging deadlines that retry, client retries and a
/// breaker at the front.
fn stressed(lb: &LbPolicy, queue_capacity: Option<usize>) -> FabricConfig {
    // `lb` on a tier of `n` servers: a weighted policy keeps its first `n`
    // weights.
    let lb_for = |n: usize| match lb {
        LbPolicy::Weighted(w) => LbPolicy::Weighted(w[..n].to_vec()),
        other => other.clone(),
    };
    let mut front = tier(3, lb_for(3), queue_capacity, vec![exp(0.9), exp(1.1)]);
    front.breaker = Some(BreakerConfig {
        window: 20,
        failure_threshold: 0.5,
        min_samples: 10,
        open_duration: 3.0,
        half_open_probes: 3,
    });
    FabricConfig {
        name: "hand-off-stress".into(),
        classes: vec![
            ClassConfig {
                arrivals: ArrivalProcess::Poisson { rate: 1.5 },
                holding_cost: 2.0,
            },
            ClassConfig {
                arrivals: ArrivalProcess::Poisson { rate: 1.2 },
                holding_cost: 1.0,
            },
        ],
        tiers: vec![
            front,
            tier(2, lb_for(2), queue_capacity, vec![exp(0.5), exp(0.6)]),
        ],
        retry: RetryPolicy {
            max_retries: 3,
            base_backoff: 0.5,
            multiplier: 2.0,
        },
        deadlines: Some(DeadlineConfig {
            deadline: vec![4.0, 6.0],
            renege: true,
        }),
        shedder: None,
        sla_window: None,
        warmup: 20.0,
        horizon: 300.0,
    }
}

#[test]
fn idle_up_servers_find_their_queue_banks_empty_under_faults_and_reneging() {
    let policies = [
        LbPolicy::CentralQueue,
        LbPolicy::JoinShortestQueue,
        LbPolicy::RoundRobin,
        LbPolicy::Weighted(vec![2.0, 1.0, 1.5]),
    ];
    let streams = RngStreams::new(DEFAULT_SEED);
    for (p, lb) in policies.iter().enumerate() {
        let (mut timed_out, mut retries, mut dropped, mut fast_failed) = (0, 0, 0, 0);
        for (c, capacity) in [None, Some(0), Some(2)].into_iter().enumerate() {
            let cfg = stressed(lb, capacity);
            for rep in 0..SEEDS {
                let key = (p * 3 + c) as u64;
                let r = run_fabric(&cfg, replication_seed(&streams, key, rep));
                timed_out += r.timed_out;
                retries += r.retries;
                dropped += r.tiers.iter().map(|t| t.dropped).sum::<u64>();
                fast_failed += r.tiers[0].fast_failed;
            }
        }
        // Every path the suite means to drive was taken.
        assert!(
            timed_out > 0 && retries > 0 && dropped > 0 && fast_failed > 0,
            "{lb:?}: {timed_out} timed out, {retries} retries, {dropped} dropped, \
             {fast_failed} fast-failed"
        );
    }
}
