//! Integration tests of the overload-resilience layer: the graceful-
//! degradation acceptance gate (the metastable retry storm collapses
//! without protection and recovers with it), substream purity of the
//! slowdown and probe RNG families, and the failure-semantics regression
//! (a server failure aborts only the request in service; queued requests
//! survive to be served after repair).

use ss_distributions::{dyn_dist, Exponential};
use ss_fabric::scenarios::{aggregate, retry_storm_config, Budget, DEFAULT_SEED};
use ss_fabric::sim::{replication_seed, run_fabric};
use ss_fabric::{
    ArrivalProcess, BreakerConfig, ClassConfig, DisciplineKind, FabricConfig, FabricReport,
    FailureConfig, LbPolicy, RetryPolicy, SlowdownConfig, TierConfig,
};
use ss_sim::pool;
use ss_sim::rng::RngStreams;

fn exp(mean: f64) -> ss_distributions::DynDist {
    dyn_dist(Exponential::with_mean(mean))
}

/// A single-tier bounded-queue baseline under overload, so breakers (when
/// attached) actually record failure outcomes.
fn bounded_baseline() -> FabricConfig {
    FabricConfig {
        name: "resilience-baseline".into(),
        classes: vec![ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: 2.0 },
            holding_cost: 1.0,
        }],
        tiers: vec![TierConfig {
            servers: 2,
            queue_capacity: Some(4),
            service: vec![exp(1.2)],
            discipline: DisciplineKind::Fifo,
            lb: LbPolicy::CentralQueue,
            hop_delay: 0.0,
            failure: None,
            breaker: None,
            slowdown: None,
        }],
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: 0.4,
            multiplier: 2.0,
        },
        warmup: 100.0,
        horizon: 1_100.0,
        deadlines: None,
        shedder: None,
        sla_window: None,
    }
}

/// Bitwise comparison of everything except the event count (chaos epochs
/// legitimately add their own start/end events to the calendar).
fn assert_same_run(a: &FabricReport, b: &FabricReport, what: &str) {
    assert_eq!(a.arrivals, b.arrivals, "{what}: arrivals diverged");
    assert_eq!(a.completed, b.completed, "{what}: completed diverged");
    assert_eq!(a.lost, b.lost, "{what}: lost diverged");
    assert_eq!(a.retries, b.retries, "{what}: retries diverged");
    assert_eq!(a.shed, b.shed, "{what}: shed diverged");
    assert_eq!(a.timed_out, b.timed_out, "{what}: timed_out diverged");
    assert_eq!(
        a.rtt_mean().to_bits(),
        b.rtt_mean().to_bits(),
        "{what}: RTT diverged"
    );
    assert_eq!(a.tiers.len(), b.tiers.len());
    for (ta, tb) in a.tiers.iter().zip(&b.tiers) {
        assert_eq!(ta.served, tb.served, "{what}: served diverged");
        assert_eq!(ta.dropped, tb.dropped, "{what}: dropped diverged");
        assert_eq!(ta.fast_failed, tb.fast_failed, "{what}: fastfail diverged");
        assert_eq!(
            ta.mean_wait.to_bits(),
            tb.mean_wait.to_bits(),
            "{what}: wait diverged"
        );
        assert_eq!(
            ta.utilization.to_bits(),
            tb.utilization.to_bits(),
            "{what}: utilization diverged"
        );
    }
}

/// The committed graceful-degradation gate: one slowdown epoch tips the
/// unprotected system into the metastable retry-storm equilibrium (zero
/// goodput sustained long after the slowdown ends, because past-deadline
/// completions waste full service times and every timeout re-arms a
/// retry), while deadlines + shedding + breakers keep the protected system
/// at its good equilibrium.  Thresholds follow the acceptance criteria:
/// final SLA window under 50% goodput unprotected, above 90% goodput with
/// bounded windowed P99 protected.
#[test]
fn retry_storm_collapses_unprotected_and_recovers_protected() {
    let budget = Budget::check();
    let streams = RngStreams::new(DEFAULT_SEED);
    // Scenario id 7 = the retry-storm slot in the committed suite, so this
    // test replays exactly the replications `fabric --check` reports.
    let run_arm = |protected: bool| {
        let cfg = retry_storm_config(protected, &budget);
        let reports: Vec<FabricReport> = (0..budget.replications)
            .map(|rep| run_fabric(&cfg, replication_seed(&streams, 7, rep)))
            .collect();
        aggregate(&reports)
    };

    let unprotected = run_arm(false);
    let protected = run_arm(true);

    // Both arms face the identical arrival sample (same substreams), so
    // the comparison is a pure A/B on the protection mechanisms.
    assert_eq!(unprotected.arrivals, protected.arrivals);

    let last_u = unprotected.windows.last().expect("storm has SLA windows");
    let last_p = protected.windows.last().expect("storm has SLA windows");
    assert!(
        last_u.goodput() < 0.50,
        "unprotected arm did not collapse: final-window goodput {:.4}",
        last_u.goodput()
    );
    assert!(
        last_p.goodput() > 0.90,
        "protected arm did not recover: final-window goodput {:.4}",
        last_p.goodput()
    );
    // Bounded tail latency: twice the 6.0 request deadline.
    let p99 = last_p.rtt.quantile(0.99);
    assert!(
        p99 <= 12.0,
        "protected final-window P99 {p99:.3} exceeds 2x deadline"
    );
    // The collapse is metastable, not transient: the slowdown epoch is over
    // well before the horizon, yet the unprotected arm never recovers.
    assert!(unprotected.completed < protected.completed / 10);
    // Every protection mechanism participated.
    assert!(protected.shed > 0, "shedder never engaged");
    assert!(protected.timed_out > 0, "deadlines never fired");
    assert!(protected.tiers[0].fast_failed > 0, "breaker never opened");
}

/// The storm aggregate (both arms) is bit-identical across thread counts —
/// the new slowdown/probe substream families do not leak scheduling order
/// into results.
#[test]
fn retry_storm_is_thread_count_invariant() {
    let budget = Budget::check();
    for protected in [false, true] {
        let cfg = retry_storm_config(protected, &budget);
        let run_all = || {
            let streams = RngStreams::new(DEFAULT_SEED);
            let reports: Vec<FabricReport> =
                pool::parallel_indexed(budget.replications as usize, |rep| {
                    run_fabric(&cfg, replication_seed(&streams, 7, rep as u64))
                });
            aggregate(&reports)
        };
        let serial = pool::with_threads(1, run_all);
        let parallel = pool::with_threads(4, run_all);
        assert_same_run(&serial, &parallel, &cfg.name);
        assert_eq!(serial.events, parallel.events, "{} diverged", cfg.name);
        for (wa, wb) in serial.windows.iter().zip(&parallel.windows) {
            assert_eq!(wa.goodput().to_bits(), wb.goodput().to_bits());
            assert_eq!(
                wa.rtt.quantile(0.99).to_bits(),
                wb.rtt.quantile(0.99).to_bits()
            );
        }
    }
}

/// An inert breaker (min_samples above the window size can never trip)
/// consumes no randomness and schedules no events: the run is bit-identical
/// to the breaker-free baseline, event count included.  This is the
/// substream-purity contract of the PROBE family — probe jitter is drawn
/// only on an actual trip.
#[test]
fn inert_breaker_leaves_the_run_untouched() {
    let base = bounded_baseline();
    let mut with_breaker = bounded_baseline();
    with_breaker.tiers[0].breaker = Some(BreakerConfig {
        window: 8,
        failure_threshold: 0.9,
        min_samples: 1_000,
        open_duration: 5.0,
        half_open_probes: 2,
    });
    for seed in [1u64, 0xDEAD_BEEF, 42] {
        let a = run_fabric(&base, seed);
        let b = run_fabric(&with_breaker, seed);
        assert_same_run(&a, &b, "inert breaker");
        assert_eq!(a.events, b.events, "inert breaker scheduled events");
        // The baseline is genuinely lossy, so outcomes were being recorded.
        assert!(a.tiers[0].dropped > 0, "baseline produced no failures");
    }
}

/// A no-op slowdown (rate multiplier 1.0) adds its epoch events but must
/// not perturb arrivals, services or retries: the SLOWDOWN family draws
/// from its own substream, and dividing a service sample by 1.0 is exact.
#[test]
fn noop_slowdown_only_adds_epoch_events() {
    let base = bounded_baseline();
    let mut with_slowdown = bounded_baseline();
    with_slowdown.tiers[0].slowdown = Some(SlowdownConfig {
        mean_time_to_slowdown: 90.0,
        mean_slowdown_duration: 40.0,
        rate_multiplier: 1.0,
        max_epochs: 0,
    });
    for seed in [3u64, 0xFEED_F00D] {
        let a = run_fabric(&base, seed);
        let b = run_fabric(&with_slowdown, seed);
        assert_same_run(&a, &b, "no-op slowdown");
        assert!(
            b.events > a.events,
            "slowdown epochs scheduled no events at all"
        );
    }
}

/// Regression for the failure semantics: a server failure aborts only the
/// request *in service* on the failed server; requests waiting in the
/// queue survive the repair and are served afterwards.  With retries
/// disabled every abort is a loss, so the loss count is bounded by the
/// failure count — if failures ever started flushing the queue, `lost`
/// would jump by an order of magnitude.
#[test]
fn server_failure_aborts_only_the_in_service_request() {
    let cfg = FabricConfig {
        name: "fail-repair".into(),
        classes: vec![ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: 0.5 },
            holding_cost: 1.0,
        }],
        tiers: vec![TierConfig {
            servers: 1,
            queue_capacity: None,
            service: vec![exp(0.5)],
            discipline: DisciplineKind::Fifo,
            lb: LbPolicy::CentralQueue,
            hop_delay: 0.0,
            failure: Some(FailureConfig {
                mean_time_to_failure: 50.0,
                mean_time_to_repair: 4.0,
            }),
            breaker: None,
            slowdown: None,
        }],
        retry: RetryPolicy::none(),
        warmup: 0.0,
        horizon: 4_000.0,
        deadlines: None,
        shedder: None,
        sla_window: None,
    };
    let r = run_fabric(&cfg, 0x5EED);
    assert!(r.lost > 0, "no failure ever aborted a request");
    // Expected failures ~ horizon / MTTF = 80; each aborts at most the one
    // request in service.  Give generous slack, but stay far below the
    // ~2000 arrivals a queue-flushing bug would start losing.
    assert!(
        r.lost <= 160,
        "lost {} requests — failures are killing queued work",
        r.lost
    );
    // Queued requests survived repairs: almost everything completes.
    let resolved = r.completed + r.lost;
    assert!(r.arrivals >= resolved, "conservation violated");
    assert!(
        r.arrivals - resolved <= 30,
        "too many requests unaccounted at the horizon: {} of {}",
        r.arrivals - resolved,
        r.arrivals
    );
    assert!(r.completed as f64 >= 0.85 * r.arrivals as f64);
}
