//! Scenario configuration for the service fabric.
//!
//! A fabric is a chain of **tiers** (think edge proxies → application
//! servers → storage).  Each tier is a bank of parallel servers, each with
//! its own bounded multi-class queue; a load balancer assigns requests
//! arriving at the tier to a server, and a pluggable index [`Discipline`]
//! decides which class a freed server picks next.  Requests traverse the
//! tiers forward, then the response is routed back through the same chain
//! hop by hop, so the recorded round-trip time is a true end-to-end
//! latency.

use std::sync::Arc;

use ss_bandits::discipline::WhittleQueueDiscipline;
use ss_batch::discipline::gittins_discipline;
use ss_core::discipline::{Discipline, Fifo};
use ss_core::job::JobClass;
use ss_distributions::DynDist;
use ss_queueing::discipline::cmu_discipline;

use crate::resilience::{BreakerConfig, DeadlineConfig, ShedderConfig, SlowdownConfig};

/// Queue-length truncation used when tabulating Whittle indices for the
/// [`DisciplineKind::Whittle`] discipline.
pub const WHITTLE_TRUNCATION: usize = 40;

/// Most SLA windows a run may tile `(warmup, horizon]` into.  Each window
/// keeps its own RTT sketch (about 8 KB), so a tiny `sla_window` would
/// otherwise exhaust memory.
const MAX_SLA_WINDOWS: usize = 4096;

/// Panics unless `value`, the `field` of tier `tier`, is positive and
/// finite.
#[track_caller]
pub(crate) fn assert_positive_finite(tier: usize, field: &str, value: f64) {
    assert!(
        value > 0.0 && value.is_finite(),
        "tier {tier}: {field} must be positive and finite"
    );
}

/// Open arrival process of one request class.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Poisson arrivals at constant rate.
    Poisson { rate: f64 },
    /// Markov-modulated Poisson process: the class cycles through the
    /// phases `0 → 1 → ... → 0`, holding each for an `Exp(switch_rate)`
    /// sojourn and emitting Poisson arrivals at the phase's rate.
    Mmpp { rates: Vec<f64>, switch_rate: f64 },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate.  The cyclic equal-sojourn phase chain
    /// spends `1/k` of the time in each of its `k` phases, so the MMPP mean
    /// is the plain average of the phase rates.
    pub fn mean_rate(&self) -> f64 {
        match self {
            Self::Poisson { rate } => *rate,
            Self::Mmpp { rates, .. } => rates.iter().sum::<f64>() / rates.len() as f64,
        }
    }

    fn validate(&self, class: usize) {
        match self {
            Self::Poisson { rate } => assert!(
                *rate > 0.0 && rate.is_finite(),
                "class {class}: Poisson rate must be positive and finite"
            ),
            Self::Mmpp { rates, switch_rate } => {
                assert!(rates.len() >= 2, "class {class}: an MMPP needs >= 2 phases");
                assert!(
                    rates.iter().all(|r| *r > 0.0 && r.is_finite()),
                    "class {class}: MMPP phase rates must be positive and finite"
                );
                assert!(
                    *switch_rate > 0.0 && switch_rate.is_finite(),
                    "class {class}: MMPP switch_rate must be positive and finite"
                );
            }
        }
    }
}

/// One request class: its arrival process and the holding-cost rate the
/// index disciplines weight it by.
#[derive(Debug, Clone)]
pub struct ClassConfig {
    pub arrivals: ArrivalProcess,
    pub holding_cost: f64,
}

/// Client retry behaviour after a drop (queue overflow, dead tier, or a
/// service aborted by a server failure).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries allowed per request beyond the first attempt; 0 disables
    /// retries entirely.
    pub max_retries: u32,
    /// Backoff before attempt `k` (1-based retry count) is
    /// `base_backoff * multiplier^(k-1) * U(0.5, 1.5)` — exponential
    /// backoff with multiplicative jitter.
    pub base_backoff: f64,
    pub multiplier: f64,
}

impl RetryPolicy {
    /// No retries: a dropped request is lost.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base_backoff: 1.0,
            multiplier: 2.0,
        }
    }

    /// The backoff before retry `attempt` (1-based) at jitter factor
    /// `jitter` (the simulator draws it from `U(0.5, 1.5)`).
    pub(crate) fn backoff(&self, attempt: u32, jitter: f64) -> f64 {
        self.base_backoff * self.multiplier.powi(attempt as i32 - 1) * jitter
    }
}

/// How a tier's load balancer assigns an arriving request to a server.
#[derive(Debug, Clone)]
pub enum LbPolicy {
    /// Cyclic assignment over the up servers.
    RoundRobin,
    /// Join the up server with the fewest requests present (queued +
    /// in service); ties go to the lowest server id.
    JoinShortestQueue,
    /// Random assignment over the up servers, proportional to fixed
    /// weights (one per server).
    Weighted(Vec<f64>),
    /// No per-server queues at all: the tier keeps one shared queue and
    /// any server that frees up pulls the next request per the tier's
    /// discipline.  An arrival that finds a server up and idle goes
    /// straight into service on the lowest-id such server; only the
    /// others take a place in the shared queue.  With FIFO and
    /// exponential service this is *exactly* the M/M/c central queue — the
    /// configuration the Erlang-C oracle pair cross-validates.
    /// `queue_capacity` bounds the shared queue (`Some(0)` makes the tier
    /// the M/M/c/c loss system), and requests keep queueing while every
    /// server is down (they wait at the balancer rather than being
    /// dropped).
    CentralQueue,
}

/// Server failure/recovery cycle: exponential time to failure while up,
/// exponential repair time while down.  A failing server aborts its
/// in-service request (the client sees a drop and may retry); its queued
/// requests survive the repair.
#[derive(Debug, Clone, Copy)]
pub struct FailureConfig {
    pub mean_time_to_failure: f64,
    pub mean_time_to_repair: f64,
}

/// Which index discipline orders a tier's per-server queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisciplineKind {
    /// Global first-in-first-out across classes.
    Fifo,
    /// The cµ rule (holding cost × service rate).
    Cmu,
    /// Gittins service index at zero attained service.
    Gittins,
    /// Whittle indices of the per-class queue-length birth–death projects.
    Whittle,
}

impl DisciplineKind {
    pub fn key(&self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::Cmu => "cmu",
            Self::Gittins => "gittins",
            Self::Whittle => "whittle",
        }
    }
}

/// One tier: a bank of `servers` parallel servers behind a load balancer.
#[derive(Debug, Clone)]
pub struct TierConfig {
    pub servers: usize,
    /// Queue bound in waiting requests, excluding those in service
    /// (per server, or tier-wide under [`LbPolicy::CentralQueue`]);
    /// `None` = unbounded.  A request takes a queue place only when it
    /// must wait: one whose target server is up and idle starts service
    /// at once, whatever the bound.  An arrival that must wait at a full
    /// queue is dropped (and the client may retry), so `Some(0)` makes the
    /// tier a loss system that serves only arrivals finding their server
    /// idle.
    pub queue_capacity: Option<usize>,
    /// Service-time distribution per class (indexed by class id).
    pub service: Vec<DynDist>,
    pub discipline: DisciplineKind,
    pub lb: LbPolicy,
    /// One-way network delay of the hop *leaving* this tier (charged on
    /// the forward hop to the next tier and again on the return hop).
    pub hop_delay: f64,
    pub failure: Option<FailureConfig>,
    /// Windowed failure-rate circuit breaker guarding admissions to this
    /// tier; `None` = no breaker.
    pub breaker: Option<BreakerConfig>,
    /// Tier-wide degraded-service chaos epochs; `None` = never degraded.
    pub slowdown: Option<SlowdownConfig>,
}

/// A full fabric scenario.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    pub name: String,
    pub classes: Vec<ClassConfig>,
    pub tiers: Vec<TierConfig>,
    pub retry: RetryPolicy,
    /// Per-class request deadlines; `None` = requests never time out.
    pub deadlines: Option<DeadlineConfig>,
    /// Token-bucket load shedder at the front tier (fresh arrivals and
    /// client retries both pass through it); `None` = admit everything.
    pub shedder: Option<ShedderConfig>,
    /// Width of the SLA sliding windows tiling `(warmup, horizon]`;
    /// `None` disables windowed reporting.
    pub sla_window: Option<f64>,
    /// Statistics-collection window is `(warmup, horizon]`.
    pub warmup: f64,
    pub horizon: f64,
}

impl FabricConfig {
    /// Validate the cross-references (panics on an inconsistent scenario).
    pub fn validate(&self) {
        assert!(!self.classes.is_empty(), "need >= 1 class");
        assert!(!self.tiers.is_empty(), "need >= 1 tier");
        assert!(self.horizon.is_finite(), "horizon must be finite");
        assert!(
            self.warmup >= 0.0 && self.horizon > self.warmup,
            "need 0 <= warmup < horizon"
        );
        assert!(
            self.retry.base_backoff > 0.0 && self.retry.base_backoff.is_finite(),
            "retry.base_backoff must be positive and finite"
        );
        assert!(
            self.retry.multiplier >= 1.0 && self.retry.multiplier.is_finite(),
            "retry.multiplier must be finite and >= 1"
        );
        // `backoff` takes the attempt as an `i32` exponent, so a larger
        // count would wrap to a negative one.
        assert!(
            i32::try_from(self.retry.max_retries).is_ok(),
            "retry.max_retries must be at most 2^31 - 1, got {}",
            self.retry.max_retries
        );
        // Backoffs grow with the attempt and the jitter stays below 1.5, so
        // this bounds every retry time the run can schedule.
        let longest = self.retry.backoff(self.retry.max_retries, 1.5);
        assert!(
            (self.horizon + longest).is_finite(),
            "retry: the longest backoff ({longest:e}) plus the horizon must be finite"
        );
        for (j, class) in self.classes.iter().enumerate() {
            class.arrivals.validate(j);
            assert!(
                class.holding_cost > 0.0 && class.holding_cost.is_finite(),
                "class {j}: holding_cost must be positive and finite"
            );
        }
        for (t, tier) in self.tiers.iter().enumerate() {
            assert!(tier.servers >= 1, "tier {t} has no servers");
            assert!(
                tier.servers <= 1 << 16,
                "tier {t}: at most 2^16 servers, since service and failure streams \
                 are keyed tier * 2^16 + server (got {})",
                tier.servers
            );
            assert_eq!(
                tier.service.len(),
                self.classes.len(),
                "tier {t} must give a service distribution per class"
            );
            assert!(
                tier.hop_delay >= 0.0 && tier.hop_delay.is_finite(),
                "tier {t}: hop_delay must be finite and >= 0"
            );
            if let LbPolicy::Weighted(w) = &tier.lb {
                assert_eq!(w.len(), tier.servers, "tier {t}: one weight per server");
                assert!(
                    w.iter().all(|x| *x > 0.0 && x.is_finite()),
                    "tier {t}: LB weights must be positive and finite"
                );
            }
            if let Some(f) = &tier.failure {
                assert_positive_finite(t, "mean_time_to_failure", f.mean_time_to_failure);
                assert_positive_finite(t, "mean_time_to_repair", f.mean_time_to_repair);
            }
            if let Some(b) = &tier.breaker {
                b.validate(t);
            }
            if let Some(s) = &tier.slowdown {
                s.validate(t);
            }
        }
        if let Some(d) = &self.deadlines {
            d.validate(self.classes.len());
        }
        if let Some(s) = &self.shedder {
            s.validate();
        }
        if let Some(w) = self.sla_window {
            assert!(w > 0.0 && w.is_finite(), "sla_window must be positive");
            let windows = self.spans();
            assert!(
                windows <= MAX_SLA_WINDOWS,
                "sla_window {w} tiles (warmup, horizon] into {windows} windows; \
                 at most {MAX_SLA_WINDOWS} are allowed"
            );
        }
    }

    /// The number of post-warmup spans: one per SLA window tiling
    /// `(warmup, horizon]`, or one in all when `sla_window` is unset.  The
    /// 1e-9 slack keeps a width that divides the span exactly from spawning
    /// a sliver extra window.
    pub(crate) fn spans(&self) -> usize {
        self.sla_window.map_or(1, |w| {
            (((self.horizon - self.warmup) / w) - 1e-9).ceil().max(1.0) as usize
        })
    }

    /// The [`JobClass`] view of this fabric's classes at tier `tier`
    /// (mean arrival rate, the tier's service distribution, holding cost) —
    /// the shape the index-discipline constructors consume.
    pub fn job_classes(&self, tier: usize) -> Vec<JobClass> {
        self.classes
            .iter()
            .enumerate()
            .map(|(j, c)| {
                JobClass::new(
                    j,
                    c.arrivals.mean_rate(),
                    self.tiers[tier].service[j].clone(),
                    c.holding_cost,
                )
            })
            .collect()
    }

    /// Instantiate tier `tier`'s discipline.  The cµ, Gittins and Whittle
    /// adapters tabulate their indices at construction and reject NaN
    /// there, so a lookup is a table read.  Tabulation (Gittins, Whittle)
    /// can be expensive —
    /// build once per scenario via [`FabricConfig::build_disciplines`] and
    /// share the result across replications.
    pub fn build_discipline(&self, tier: usize) -> Arc<dyn Discipline> {
        let classes = self.job_classes(tier);
        match self.tiers[tier].discipline {
            DisciplineKind::Fifo => Arc::new(Fifo),
            DisciplineKind::Cmu => Arc::new(cmu_discipline(&classes)),
            DisciplineKind::Gittins => Arc::new(gittins_discipline(&classes)),
            DisciplineKind::Whittle => {
                Arc::new(WhittleQueueDiscipline::new(&classes, WHITTLE_TRUNCATION))
            }
        }
    }

    /// All tier disciplines of this scenario, in tier order.
    pub fn build_disciplines(&self) -> Vec<Arc<dyn Discipline>> {
        (0..self.tiers.len())
            .map(|t| self.build_discipline(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_distributions::{dyn_dist, Exponential};

    fn tiny() -> FabricConfig {
        FabricConfig {
            name: "tiny".into(),
            classes: vec![ClassConfig {
                arrivals: ArrivalProcess::Poisson { rate: 0.8 },
                holding_cost: 1.0,
            }],
            tiers: vec![TierConfig {
                servers: 2,
                queue_capacity: Some(16),
                service: vec![dyn_dist(Exponential::with_mean(1.0))],
                discipline: DisciplineKind::Fifo,
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
            warmup: 10.0,
            horizon: 100.0,
        }
    }

    #[test]
    fn tiny_config_validates() {
        tiny().validate();
    }

    #[test]
    fn sla_windows_are_bounded() {
        let mut c = tiny();
        // The span (10, 100] is 90 wide: 4,096 windows fit, 4,097 do not.
        c.sla_window = Some(90.0 / MAX_SLA_WINDOWS as f64);
        assert_eq!(c.spans(), MAX_SLA_WINDOWS);
        c.validate();
        c.sla_window = Some(90.0 / (MAX_SLA_WINDOWS + 1) as f64);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.validate()))
            .expect_err("4,097 windows must be rejected");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.contains("sla_window") && msg.contains("into 4097 windows"),
            "{msg}"
        );
    }

    #[test]
    fn mmpp_mean_rate_averages_phases() {
        let a = ArrivalProcess::Mmpp {
            rates: vec![0.2, 1.0],
            switch_rate: 0.5,
        };
        assert!((a.mean_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "service distribution per class")]
    fn mismatched_service_table_is_rejected() {
        let mut c = tiny();
        c.tiers[0].service.clear();
        c.validate();
    }

    #[test]
    #[should_panic(expected = "horizon must be finite")]
    fn infinite_horizon_is_rejected() {
        let mut c = tiny();
        c.horizon = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tier 0: hop_delay must be finite")]
    fn infinite_hop_delay_is_rejected() {
        let mut c = tiny();
        c.tiers[0].hop_delay = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tier 0: at most 2^16 servers")]
    fn a_tier_past_the_stream_key_range_is_rejected() {
        let mut c = tiny();
        c.tiers[0].servers = (1 << 16) + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retry.base_backoff must be positive and finite")]
    fn infinite_base_backoff_is_rejected() {
        let mut c = tiny();
        c.retry.base_backoff = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retry.multiplier must be finite")]
    fn infinite_backoff_multiplier_is_rejected() {
        let mut c = tiny();
        c.retry.multiplier = f64::INFINITY;
        c.validate();
    }

    /// A finite base backoff whose third retry overflows to +inf.
    #[test]
    #[should_panic(expected = "retry: the longest backoff (inf) plus the horizon must be finite")]
    fn a_base_backoff_that_overflows_is_rejected() {
        let mut c = tiny();
        c.retry = RetryPolicy {
            max_retries: 3,
            base_backoff: 1.7e308,
            multiplier: 2.0,
        };
        c.validate();
    }

    /// A finite multiplier whose square overflows to +inf.
    #[test]
    #[should_panic(expected = "retry: the longest backoff (inf) plus the horizon must be finite")]
    fn a_backoff_multiplier_that_overflows_is_rejected() {
        let mut c = tiny();
        c.retry = RetryPolicy {
            max_retries: 3,
            base_backoff: 10.0,
            multiplier: 1e308,
        };
        c.validate();
    }

    /// A retry count whose `i32` exponent would wrap to a negative one,
    /// making the longest backoff look small.
    #[test]
    #[should_panic(expected = "retry.max_retries must be at most 2^31 - 1, got 4294967295")]
    fn a_max_retries_of_u32_max_is_rejected() {
        let mut c = tiny();
        c.retry = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: 1.0,
            multiplier: 2.0,
        };
        c.validate();
    }

    /// The first count past `i32::MAX`, where `backoff`'s
    /// `attempt as i32 - 1` overflows in a debug build.
    #[test]
    #[should_panic(expected = "retry.max_retries must be at most 2^31 - 1, got 2147483648")]
    fn a_max_retries_of_2_pow_31_is_rejected() {
        let mut c = tiny();
        c.retry = RetryPolicy {
            max_retries: 1 << 31,
            base_backoff: 1.0,
            multiplier: 2.0,
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "class 1: holding_cost must be positive and finite")]
    fn a_bad_class_field_names_its_class() {
        let mut c = tiny();
        c.classes.push(ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: 0.1 },
            holding_cost: f64::NAN,
        });
        c.tiers[0]
            .service
            .push(dyn_dist(Exponential::with_mean(1.0)));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tier 0: breaker failure_threshold must be in (0, 1]")]
    fn a_bad_breaker_field_names_its_tier() {
        let mut c = tiny();
        c.tiers[0].breaker = Some(BreakerConfig {
            window: 10,
            failure_threshold: 1.5,
            min_samples: 4,
            open_duration: 5.0,
            half_open_probes: 1,
        });
        c.validate();
    }

    #[test]
    #[should_panic(expected = "shedder.burst must be finite and >= 1")]
    fn a_bad_shedder_field_is_named() {
        let mut c = tiny();
        c.shedder = Some(ShedderConfig {
            rate: 2.0,
            burst: 0.5,
        });
        c.validate();
    }

    fn with_failures(mean_time_to_failure: f64, mean_time_to_repair: f64) -> FabricConfig {
        let mut c = tiny();
        c.tiers[0].failure = Some(FailureConfig {
            mean_time_to_failure,
            mean_time_to_repair,
        });
        c
    }

    #[test]
    #[should_panic(expected = "tier 0: mean_time_to_failure must be positive and finite")]
    fn infinite_mean_time_to_failure_is_rejected() {
        with_failures(f64::INFINITY, 1.0).validate();
    }

    #[test]
    #[should_panic(expected = "tier 0: mean_time_to_repair must be positive and finite")]
    fn infinite_mean_time_to_repair_is_rejected() {
        with_failures(50.0, f64::INFINITY).validate();
    }

    fn with_slowdown(mean_time_to_slowdown: f64, mean_slowdown_duration: f64) -> FabricConfig {
        let mut c = tiny();
        c.tiers[0].slowdown = Some(SlowdownConfig {
            mean_time_to_slowdown,
            mean_slowdown_duration,
            rate_multiplier: 0.5,
            max_epochs: 1,
        });
        c
    }

    #[test]
    #[should_panic(expected = "tier 0: mean_time_to_slowdown must be positive and finite")]
    fn infinite_mean_time_to_slowdown_is_rejected() {
        with_slowdown(f64::INFINITY, 10.0).validate();
    }

    #[test]
    #[should_panic(expected = "tier 0: mean_slowdown_duration must be positive and finite")]
    fn infinite_mean_slowdown_duration_is_rejected() {
        with_slowdown(50.0, f64::INFINITY).validate();
    }

    #[test]
    fn disciplines_build_for_every_kind() {
        let mut c = tiny();
        for kind in [
            DisciplineKind::Fifo,
            DisciplineKind::Cmu,
            DisciplineKind::Gittins,
            DisciplineKind::Whittle,
        ] {
            c.tiers[0].discipline = kind;
            let d = c.build_discipline(0);
            assert_eq!(d.name(), kind.key());
        }
    }
}
