//! Tier-1 integration test: the fabric scenario suite must be bit-identical
//! across thread counts and a pure function of the seed (the same contract
//! CI enforces by diffing `fabric --check` output across `SS_THREADS`).

use ss_fabric::{render_suite_report, run_suite, scenario_list, Budget, DEFAULT_SEED};
use ss_sim::pool;

#[test]
fn suite_is_thread_count_invariant() {
    let budget = Budget::check();
    let serial = pool::with_threads(1, || run_suite(DEFAULT_SEED, &budget));
    let parallel = pool::with_threads(4, || run_suite(DEFAULT_SEED, &budget));

    assert_eq!(serial.len(), parallel.len());
    for ((name_a, a), (name_b, b)) in serial.iter().zip(&parallel) {
        assert_eq!(name_a, name_b);
        // Compare the raw bits of every numeric field, not formatted
        // strings, so -0.0 vs 0.0 or a last-ulp drift cannot hide.
        assert_eq!(a.arrivals, b.arrivals, "{name_a} diverged");
        assert_eq!(a.completed, b.completed, "{name_a} diverged");
        assert_eq!(a.lost, b.lost, "{name_a} diverged");
        assert_eq!(a.retries, b.retries, "{name_a} diverged");
        assert_eq!(a.shed, b.shed, "{name_a} diverged");
        assert_eq!(a.timed_out, b.timed_out, "{name_a} diverged");
        assert_eq!(a.events, b.events, "{name_a} diverged");
        assert_eq!(
            a.rtt_mean().to_bits(),
            b.rtt_mean().to_bits(),
            "{name_a} RTT diverged across thread counts"
        );
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.rtt.quantile(q).to_bits(), b.rtt.quantile(q).to_bits());
        }
        assert_eq!(a.tiers.len(), b.tiers.len());
        for (ta, tb) in a.tiers.iter().zip(&b.tiers) {
            assert_eq!(ta.served, tb.served);
            assert_eq!(ta.dropped, tb.dropped);
            assert_eq!(ta.fast_failed, tb.fast_failed);
            assert_eq!(ta.mean_wait.to_bits(), tb.mean_wait.to_bits());
            assert_eq!(ta.utilization.to_bits(), tb.utilization.to_bits());
        }
        // SLA windows are part of the deterministic surface too.
        assert_eq!(a.windows.len(), b.windows.len(), "{name_a} diverged");
        for (wa, wb) in a.windows.iter().zip(&b.windows) {
            assert_eq!(wa.arrivals, wb.arrivals);
            assert_eq!(wa.completed, wb.completed);
            assert_eq!(wa.timed_out, wb.timed_out);
            assert_eq!(wa.shed, wb.shed);
            assert_eq!(wa.goodput().to_bits(), wb.goodput().to_bits());
            assert_eq!(
                wa.rtt.quantile(0.99).to_bits(),
                wb.rtt.quantile(0.99).to_bits()
            );
        }
    }
}

#[test]
fn report_lines_are_a_pure_function_of_the_seed() {
    let budget = Budget::check();
    let report = |seed| render_suite_report(seed, &run_suite(seed, &budget));
    let first = report(DEFAULT_SEED);
    let again = report(DEFAULT_SEED);
    assert_eq!(first, again, "same seed must reproduce the exact report");

    let other = report(DEFAULT_SEED ^ 1);
    assert_eq!(other.lines().count(), first.lines().count());
    assert_ne!(
        other, first,
        "a different seed must actually change the run"
    );
}

#[test]
fn every_discipline_and_every_axis_appears_in_the_suite() {
    // The committed suite is the coverage surface of the CI gate: losing a
    // discipline kind, the MMPP source, failures or bounded queues would
    // silently shrink what `fabric --check` exercises.
    let scenarios = scenario_list(&Budget::check());
    assert!(scenarios.len() >= 8, "suite shrank to {}", scenarios.len());
    for key in ["fifo", "cmu", "gittins", "whittle"] {
        assert!(
            scenarios
                .iter()
                .flat_map(|s| &s.tiers)
                .any(|t| t.discipline.key() == key),
            "no scenario uses the {key} discipline"
        );
    }
    assert!(
        scenarios
            .iter()
            .flat_map(|s| &s.classes)
            .any(|c| matches!(c.arrivals, ss_fabric::ArrivalProcess::Mmpp { .. })),
        "no MMPP source left in the suite"
    );
    assert!(
        scenarios
            .iter()
            .flat_map(|s| &s.tiers)
            .any(|t| t.failure.is_some()),
        "no failure/recovery scenario left in the suite"
    );
    assert!(
        scenarios
            .iter()
            .flat_map(|s| &s.tiers)
            .any(|t| t.queue_capacity.is_some()),
        "no bounded-queue scenario left in the suite"
    );
    assert!(
        scenarios.iter().any(|s| s.retry.max_retries > 0),
        "no retry scenario left in the suite"
    );
    assert!(
        scenarios.iter().any(|s| s.tiers.len() >= 2),
        "no multi-tier scenario left in the suite"
    );
    // The overload-resilience axes added with the retry-storm scenario.
    assert!(
        scenarios
            .iter()
            .flat_map(|s| &s.tiers)
            .any(|t| t.breaker.is_some()),
        "no circuit-breaker scenario left in the suite"
    );
    assert!(
        scenarios
            .iter()
            .flat_map(|s| &s.tiers)
            .any(|t| t.slowdown.is_some()),
        "no slowdown-chaos scenario left in the suite"
    );
    assert!(
        scenarios.iter().any(|s| s.deadlines.is_some()),
        "no deadline scenario left in the suite"
    );
    assert!(
        scenarios.iter().any(|s| s.shedder.is_some()),
        "no load-shedder scenario left in the suite"
    );
    assert!(
        scenarios.iter().any(|s| s.sla_window.is_some()),
        "no SLA-window scenario left in the suite"
    );
}

#[test]
fn central_queue_mmc_converges_to_erlang_c() {
    // The single-tier FIFO central-queue fabric IS an M/M/c queue; on a
    // long horizon its mean wait must approach the Erlang-C value.  (The
    // verify crate's fabric-vs-erlangc pair gates this with CI-aware
    // tolerances; this is the in-crate smoke version.)
    use ss_distributions::{dyn_dist, Exponential};
    use ss_fabric::{
        run_fabric, ArrivalProcess, ClassConfig, DisciplineKind, FabricConfig, LbPolicy,
        RetryPolicy, TierConfig,
    };
    let cfg = FabricConfig {
        name: "mm3".into(),
        classes: vec![ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: 2.4 },
            holding_cost: 1.0,
        }],
        tiers: vec![TierConfig {
            servers: 3,
            queue_capacity: None,
            service: vec![dyn_dist(Exponential::with_mean(1.0))],
            discipline: DisciplineKind::Fifo,
            lb: LbPolicy::CentralQueue,
            hop_delay: 0.0,
            failure: None,
            breaker: None,
            slowdown: None,
        }],
        retry: RetryPolicy::none(),
        warmup: 2_000.0,
        horizon: 40_000.0,
        deadlines: None,
        shedder: None,
        sla_window: None,
    };
    let mean = (0..4u64)
        .map(|seed| run_fabric(&cfg, 0xABC0 + seed).tiers[0].mean_wait)
        .sum::<f64>()
        / 4.0;
    let erlang = ss_queueing::parallel_servers::mmc_mean_wait(3, 2.4, 1.0);
    assert!(
        (mean - erlang).abs() / erlang < 0.06,
        "central-queue M/M/3 wait {mean} vs Erlang-C {erlang}"
    );
}

#[test]
fn failure_and_backpressure_scenarios_exercise_drops_and_retries() {
    let budget = Budget::check();
    let suite = run_suite(DEFAULT_SEED, &budget);
    let by_name = |n: &str| {
        &suite
            .iter()
            .find(|(name, _)| name == n)
            .unwrap_or_else(|| panic!("scenario {n} missing"))
            .1
    };
    let failures = by_name("failures-retries");
    assert!(failures.retries > 0, "failure scenario produced no retries");
    assert!(
        failures.tiers[0].dropped > 0,
        "failure scenario produced no drops"
    );
    let bounded = by_name("bounded-backpressure");
    assert!(
        bounded.tiers[0].dropped > 0,
        "bounded queues produced no backpressure drops"
    );
    // The unbounded, failure-free baseline must stay loss-free.
    let baseline = by_name("mm3-fifo-baseline");
    assert_eq!(baseline.lost, 0);
    assert_eq!(baseline.tiers[0].dropped, 0);
}
