//! The named scenario suite of the `fabric` binary.
//!
//! Each scenario exercises one axis of the fabric (load-balancer policy,
//! discipline, MMPP burstiness, failures, bounded queues + retries,
//! overload resilience); the runner fans `(scenario, replication)` cells
//! over [`ss_sim::pool::parallel_indexed`], each cell owning a seed derived
//! from `substream(FABRIC_SIM_STREAM, scenario · 2^16 + rep)`, and
//! aggregates in scenario order — so the report is bit-for-bit identical
//! for any `SS_THREADS`.

use ss_distributions::{dyn_dist, Erlang, Exponential, HyperExponential};
use ss_sim::pool::parallel_indexed;
use ss_sim::rng::RngStreams;

use crate::config::{
    ArrivalProcess, ClassConfig, DisciplineKind, FabricConfig, FailureConfig, LbPolicy,
    RetryPolicy, TierConfig,
};
use crate::metrics::{FabricReport, SlaWindowReport, TierReport};
use crate::resilience::{BreakerConfig, DeadlineConfig, ShedderConfig, SlowdownConfig};
use crate::sim::{replication_seed, run_fabric_with};

/// Master seed of the committed scenario suite.
pub const DEFAULT_SEED: u64 = 0xFAB0_5EED;

/// Time/replication budget of a suite run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub warmup: f64,
    pub horizon: f64,
    pub replications: u64,
}

impl Budget {
    /// Full reporting budget.
    pub fn full() -> Self {
        Self {
            warmup: 500.0,
            horizon: 4500.0,
            replications: 6,
        }
    }

    /// Fast deterministic budget for the CI `--check` gate.
    pub fn check() -> Self {
        Self {
            warmup: 100.0,
            horizon: 700.0,
            replications: 2,
        }
    }
}

fn exp(mean: f64) -> ss_distributions::DynDist {
    dyn_dist(Exponential::with_mean(mean))
}

/// The metastable retry-storm scenario, in both arms of the experiment.
///
/// A single M/M/4 central-queue tier runs at ρ = 0.85 with a deep finite
/// queue, a 6-time-unit request deadline, and clients that re-submit
/// timed-out work aggressively.  One injected slowdown epoch (service
/// rate × 0.25) fills the queue past the point where *every* admitted
/// request finishes after its deadline — and because a timed-out
/// completion still consumed a full service, the wasted work plus the
/// timeout-triggered retries keep the effective arrival rate far above
/// capacity after the trigger clears.  The collapse is metastable: the
/// overloaded state sustains itself although the fresh load (3.4 < 4) is
/// comfortably below capacity.
///
/// The `protected` arm adds the resilience layer — queue reneging, a
/// front-tier token-bucket shedder capping admissions just under
/// capacity, and a windowed-failure-rate circuit breaker — which drains
/// the wasted work and returns the tier to the good equilibrium.
pub fn retry_storm_config(protected: bool, budget: &Budget) -> FabricConfig {
    let b = budget;
    FabricConfig {
        name: if protected {
            "retry-storm-recovery".into()
        } else {
            "retry-storm-unprotected".into()
        },
        classes: vec![ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: 3.4 },
            holding_cost: 1.0,
        }],
        tiers: vec![TierConfig {
            servers: 4,
            queue_capacity: Some(64),
            service: vec![exp(1.0)],
            discipline: DisciplineKind::Fifo,
            lb: LbPolicy::CentralQueue,
            hop_delay: 0.0,
            failure: None,
            breaker: protected.then_some(BreakerConfig {
                window: 40,
                failure_threshold: 0.5,
                min_samples: 20,
                open_duration: 4.0,
                half_open_probes: 5,
            }),
            slowdown: Some(SlowdownConfig {
                mean_time_to_slowdown: 150.0,
                mean_slowdown_duration: 120.0,
                rate_multiplier: 0.25,
                max_epochs: 1,
            }),
        }],
        retry: RetryPolicy {
            max_retries: 4,
            base_backoff: 0.5,
            multiplier: 1.5,
        },
        deadlines: Some(DeadlineConfig {
            deadline: vec![6.0],
            renege: protected,
        }),
        shedder: protected.then_some(ShedderConfig {
            rate: 3.8,
            burst: 12.0,
        }),
        sla_window: Some((b.horizon - b.warmup) / 6.0),
        warmup: b.warmup,
        horizon: b.horizon,
    }
}

/// The committed scenario list (order is part of the report format).
pub fn scenario_list(budget: &Budget) -> Vec<FabricConfig> {
    let b = budget;
    vec![
        // 1. Single-tier M/M/3 FIFO central queue at rho = 0.8 — exactly
        //    the model family the Erlang-C oracle pair cross-validates.
        FabricConfig {
            name: "mm3-fifo-baseline".into(),
            classes: vec![ClassConfig {
                arrivals: ArrivalProcess::Poisson { rate: 2.4 },
                holding_cost: 1.0,
            }],
            tiers: vec![TierConfig {
                servers: 3,
                queue_capacity: None,
                service: vec![exp(1.0)],
                discipline: DisciplineKind::Fifo,
                lb: LbPolicy::CentralQueue,
                hop_delay: 0.0,
                failure: None,
                breaker: None,
                slowdown: None,
            }],
            retry: RetryPolicy::none(),
            deadlines: None,
            shedder: None,
            sla_window: None,
            warmup: b.warmup,
            horizon: b.horizon,
        },
        // 2. Two tiers with network hops: end-to-end RTT accounting.
        FabricConfig {
            name: "two-tier-rtt".into(),
            classes: vec![
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 1.1 },
                    holding_cost: 1.0,
                },
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 0.6 },
                    holding_cost: 3.0,
                },
            ],
            tiers: vec![
                TierConfig {
                    servers: 4,
                    queue_capacity: None,
                    service: vec![exp(1.0), exp(0.7)],
                    discipline: DisciplineKind::Cmu,
                    lb: LbPolicy::JoinShortestQueue,
                    hop_delay: 0.05,
                    failure: None,
                    breaker: None,
                    slowdown: None,
                },
                TierConfig {
                    servers: 3,
                    queue_capacity: None,
                    service: vec![exp(0.8), exp(0.5)],
                    discipline: DisciplineKind::Fifo,
                    lb: LbPolicy::RoundRobin,
                    hop_delay: 0.05,
                    failure: None,
                    breaker: None,
                    slowdown: None,
                },
            ],
            retry: RetryPolicy::none(),
            deadlines: None,
            shedder: None,
            sla_window: None,
            warmup: b.warmup,
            horizon: b.horizon,
        },
        // 3. cµ priority under asymmetric holding costs, round-robin LB.
        FabricConfig {
            name: "cmu-priority".into(),
            classes: vec![
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 0.9 },
                    holding_cost: 1.0,
                },
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 0.5 },
                    holding_cost: 5.0,
                },
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 0.4 },
                    holding_cost: 2.0,
                },
            ],
            tiers: vec![TierConfig {
                servers: 2,
                queue_capacity: None,
                service: vec![exp(0.8), exp(0.6), exp(0.9)],
                discipline: DisciplineKind::Cmu,
                lb: LbPolicy::RoundRobin,
                hop_delay: 0.0,
                failure: None,
                breaker: None,
                slowdown: None,
            }],
            retry: RetryPolicy::none(),
            deadlines: None,
            shedder: None,
            sla_window: None,
            warmup: b.warmup,
            horizon: b.horizon,
        },
        // 4. Gittins discipline with high-variance (hyperexponential) and
        //    low-variance (Erlang) service side by side.
        FabricConfig {
            name: "gittins-mixed-scv".into(),
            classes: vec![
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 0.7 },
                    holding_cost: 1.0,
                },
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 0.7 },
                    holding_cost: 1.0,
                },
            ],
            tiers: vec![TierConfig {
                servers: 2,
                queue_capacity: None,
                service: vec![
                    dyn_dist(HyperExponential::with_mean_scv(1.0, 4.0)),
                    dyn_dist(Erlang::with_mean(4, 1.0)),
                ],
                discipline: DisciplineKind::Gittins,
                lb: LbPolicy::JoinShortestQueue,
                hop_delay: 0.0,
                failure: None,
                breaker: None,
                slowdown: None,
            }],
            retry: RetryPolicy::none(),
            deadlines: None,
            shedder: None,
            sla_window: None,
            warmup: b.warmup,
            horizon: b.horizon,
        },
        // 5. Bursty MMPP sources under the Whittle queue discipline.
        FabricConfig {
            name: "whittle-mmpp-bursty".into(),
            classes: vec![
                ClassConfig {
                    arrivals: ArrivalProcess::Mmpp {
                        rates: vec![0.2, 1.4],
                        switch_rate: 0.05,
                    },
                    holding_cost: 2.0,
                },
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 0.6 },
                    holding_cost: 1.0,
                },
            ],
            tiers: vec![TierConfig {
                servers: 2,
                queue_capacity: None,
                service: vec![exp(0.7), exp(0.9)],
                discipline: DisciplineKind::Whittle,
                lb: LbPolicy::JoinShortestQueue,
                hop_delay: 0.0,
                failure: None,
                breaker: None,
                slowdown: None,
            }],
            retry: RetryPolicy::none(),
            deadlines: None,
            shedder: None,
            sla_window: None,
            warmup: b.warmup,
            horizon: b.horizon,
        },
        // 6. Failures + recovery with weighted balancing, bounded queues
        //    and clients that retry with exponential backoff.
        FabricConfig {
            name: "failures-retries".into(),
            classes: vec![ClassConfig {
                arrivals: ArrivalProcess::Poisson { rate: 1.6 },
                holding_cost: 1.0,
            }],
            tiers: vec![TierConfig {
                servers: 3,
                queue_capacity: Some(8),
                service: vec![exp(1.0)],
                discipline: DisciplineKind::Fifo,
                lb: LbPolicy::Weighted(vec![2.0, 1.0, 1.0]),
                hop_delay: 0.0,
                failure: Some(FailureConfig {
                    mean_time_to_failure: 120.0,
                    mean_time_to_repair: 15.0,
                }),
                breaker: None,
                slowdown: None,
            }],
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: 0.5,
                multiplier: 2.0,
            },
            deadlines: None,
            shedder: None,
            sla_window: None,
            warmup: b.warmup,
            horizon: b.horizon,
        },
        // 7. Tight bounded queues: backpressure drops without failures.
        FabricConfig {
            name: "bounded-backpressure".into(),
            classes: vec![
                ClassConfig {
                    arrivals: ArrivalProcess::Poisson { rate: 1.3 },
                    holding_cost: 1.0,
                },
                ClassConfig {
                    arrivals: ArrivalProcess::Mmpp {
                        rates: vec![0.3, 1.2],
                        switch_rate: 0.1,
                    },
                    holding_cost: 2.0,
                },
            ],
            tiers: vec![TierConfig {
                servers: 2,
                queue_capacity: Some(4),
                service: vec![exp(0.7), exp(0.8)],
                discipline: DisciplineKind::Cmu,
                lb: LbPolicy::JoinShortestQueue,
                hop_delay: 0.02,
                failure: None,
                breaker: None,
                slowdown: None,
            }],
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: 0.4,
                multiplier: 2.0,
            },
            deadlines: None,
            shedder: None,
            sla_window: None,
            warmup: b.warmup,
            horizon: b.horizon,
        },
        // 8. The metastable retry storm, protected arm: deadlines +
        //    reneging + breaker + shedder ride out an injected slowdown
        //    epoch.  The unprotected arm (same physics, resilience off)
        //    collapses — the committed comparison lives in the
        //    graceful-degradation test and experiment E22.
        retry_storm_config(true, b),
    ]
}

/// Merge per-replication reports of one scenario into a suite-level report:
/// counters add, sketches merge, waits combine service-count-weighted,
/// utilization averages over the (equal-length) replication windows, and
/// SLA windows merge index-by-index.
pub fn aggregate(reports: &[FabricReport]) -> FabricReport {
    assert!(!reports.is_empty());
    let mut rtt = reports[0].rtt.clone();
    for r in &reports[1..] {
        rtt.merge(&r.rtt);
    }
    let tiers = (0..reports[0].tiers.len())
        .map(|t| {
            let served: u64 = reports.iter().map(|r| r.tiers[t].served).sum();
            let wait_sum: f64 = reports
                .iter()
                .map(|r| r.tiers[t].mean_wait * r.tiers[t].served as f64)
                .sum();
            TierReport {
                served,
                mean_wait: if served > 0 {
                    wait_sum / served as f64
                } else {
                    0.0
                },
                utilization: reports.iter().map(|r| r.tiers[t].utilization).sum::<f64>()
                    / reports.len() as f64,
                dropped: reports.iter().map(|r| r.tiers[t].dropped).sum(),
                fast_failed: reports.iter().map(|r| r.tiers[t].fast_failed).sum(),
            }
        })
        .collect();
    let windows = (0..reports[0].windows.len())
        .map(|k| {
            let mut rtt = reports[0].windows[k].rtt.clone();
            for r in &reports[1..] {
                rtt.merge(&r.windows[k].rtt);
            }
            SlaWindowReport {
                start: reports[0].windows[k].start,
                end: reports[0].windows[k].end,
                arrivals: reports.iter().map(|r| r.windows[k].arrivals).sum(),
                completed: reports.iter().map(|r| r.windows[k].completed).sum(),
                timed_out: reports.iter().map(|r| r.windows[k].timed_out).sum(),
                dropped: reports.iter().map(|r| r.windows[k].dropped).sum(),
                shed: reports.iter().map(|r| r.windows[k].shed).sum(),
                fast_failed: reports.iter().map(|r| r.windows[k].fast_failed).sum(),
                rtt,
            }
        })
        .collect();
    FabricReport {
        arrivals: reports.iter().map(|r| r.arrivals).sum(),
        completed: reports.iter().map(|r| r.completed).sum(),
        lost: reports.iter().map(|r| r.lost).sum(),
        retries: reports.iter().map(|r| r.retries).sum(),
        shed: reports.iter().map(|r| r.shed).sum(),
        timed_out: reports.iter().map(|r| r.timed_out).sum(),
        rtt,
        tiers,
        windows,
        events: reports.iter().map(|r| r.events).sum(),
    }
}

/// Run the whole suite: every `(scenario, replication)` cell in parallel,
/// aggregated per scenario in suite order.
pub fn run_suite(seed: u64, budget: &Budget) -> Vec<(String, FabricReport)> {
    let scenarios = scenario_list(budget);
    let streams = RngStreams::new(seed);
    let reps = budget.replications as usize;
    // Index tables (Gittins/Whittle) are deterministic per scenario; build
    // them once here rather than per replication.
    let disciplines: Vec<_> = scenarios.iter().map(|s| s.build_disciplines()).collect();
    let cells = parallel_indexed(scenarios.len() * reps, |i| {
        let (s, rep) = (i / reps, i % reps);
        run_fabric_with(
            &scenarios[s],
            &disciplines[s],
            replication_seed(&streams, s as u64, rep as u64),
        )
    });
    scenarios
        .iter()
        .enumerate()
        .map(|(s, cfg)| {
            (
                cfg.name.clone(),
                aggregate(&cells[s * reps..(s + 1) * reps]),
            )
        })
        .collect()
}

/// Render already-computed suite results exactly as the `fabric` binary
/// prints them (per-scenario report blocks plus the footer, no wall-clock).
/// Shared with the `ss-conform` subsystem so the binary's `--check` output
/// and the conformance replicas can never drift apart.
pub fn render_suite_report(seed: u64, results: &[(String, FabricReport)]) -> String {
    let mut out = String::new();
    for (name, report) in results {
        for line in report.report_lines(name) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "fabric: {} scenarios simulated (seed {seed})\n",
        results.len()
    ));
    out
}
