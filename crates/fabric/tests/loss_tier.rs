//! A tier with `queue_capacity: Some(0)` keeps no request waiting, so a
//! single-class tier of c exponential servers behind a central queue, or
//! behind JSQ (which picks an idle server whenever one exists), is the
//! M/M/c/c loss system. By PASTA the share of post-warm-up arrivals it drops
//! is then the Erlang-B blocking probability,
//! `mmck_blocking_probability(c, c, λ, µ)`.
//!
//! The capacity counts waiting requests, excluding those in service, so an
//! arrival that finds a server idle must be served even at capacity 0: a
//! tier that compared the queue length with the capacity before looking for
//! an idle server dropped every arrival.

use ss_distributions::{dyn_dist, Exponential};
use ss_fabric::{
    replication_seed, run_fabric, ArrivalProcess, ClassConfig, DisciplineKind, FabricConfig,
    LbPolicy, RetryPolicy, TierConfig, DEFAULT_SEED,
};
use ss_queueing::parallel_servers::mmck_blocking_probability;
use ss_sim::rng::RngStreams;

const SERVERS: usize = 3;
const LAMBDA: f64 = 2.0;
const MU: f64 = 1.0;
const SEEDS: u64 = 20;

/// Largest accepted distance between the pooled blocking share and
/// Erlang-B (0.2105 here): 5% of it. Over the 20 replications of about
/// 9,800 arrivals each, the standard error of the pooled share is about
/// 0.001, so a correct tier sits several standard errors inside, while a
/// tier that drops every arrival reads 1.
const TOLERANCE: f64 = 0.0105;

fn loss_tier(lb: LbPolicy) -> FabricConfig {
    FabricConfig {
        name: "loss-tier".into(),
        classes: vec![ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: LAMBDA },
            holding_cost: 1.0,
        }],
        tiers: vec![TierConfig {
            servers: SERVERS,
            queue_capacity: Some(0),
            service: vec![dyn_dist(Exponential::new(MU))],
            discipline: DisciplineKind::Fifo,
            lb,
            hop_delay: 0.0,
            failure: None,
            breaker: None,
            slowdown: None,
        }],
        retry: RetryPolicy::none(),
        deadlines: None,
        shedder: None,
        sla_window: None,
        warmup: 100.0,
        horizon: 5_000.0,
    }
}

#[test]
fn a_zero_capacity_tier_blocks_at_the_erlang_b_rate() {
    let exact = mmck_blocking_probability(SERVERS, SERVERS, LAMBDA, MU);
    assert!((exact - 0.2105).abs() < 1e-4, "Erlang-B(3, 2) = {exact}");
    let streams = RngStreams::new(DEFAULT_SEED);
    let policies = [
        ("central queue", LbPolicy::CentralQueue),
        ("JSQ", LbPolicy::JoinShortestQueue),
    ];
    for (s, (name, lb)) in policies.into_iter().enumerate() {
        let cfg = loss_tier(lb);
        let (mut dropped, mut offered) = (0, 0);
        for rep in 0..SEEDS {
            let r = run_fabric(&cfg, replication_seed(&streams, s as u64, rep));
            let tier = &r.tiers[0];
            // Without retries every post-warm-up arrival is either started
            // (served) or dropped at once.
            assert_eq!(tier.served + tier.dropped, r.arrivals, "{name}");
            dropped += tier.dropped;
            offered += r.arrivals;
        }
        let blocked = dropped as f64 / offered as f64;
        assert!(
            (blocked - exact).abs() <= TOLERANCE,
            "{name}: blocked {dropped} of {offered} arrivals ({blocked:.4}), Erlang-B {exact:.4}"
        );
    }
}
