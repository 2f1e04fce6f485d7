//! Overload-resilience primitives for the service fabric: request
//! deadlines, per-tier circuit breakers, token-bucket load shedding, and
//! slowdown epochs (tier-wide degraded service).
//!
//! The types here are pure state machines — no clock, no RNG, no event
//! queue — so they unit-test in isolation.  `sim.rs` owns the wiring:
//! it feeds the breaker request outcomes, asks it for admission verdicts,
//! schedules the open→half-open timer (jittered from the `PROBE_FAMILY`
//! substream), and drives the slowdown epochs from their own substream
//! family so enabling any of these features never perturbs the arrival
//! or service processes of an otherwise-identical scenario.
//!
//! ## Circuit breaker
//!
//! Classic three-state machine, evaluated over a sliding count window of
//! per-request outcomes at the tier (completion within deadline = success;
//! drop, renege, or past-deadline completion = failure):
//!
//! ```text
//!            failure rate >= threshold
//!   Closed ---------------------------------> Open
//!     ^                                        |
//!     | all probes succeed        open_duration (jittered) elapses
//!     |                                        v
//!     +------------- HalfOpen <---------------+
//!          any probe failure reopens (new generation)
//! ```
//!
//! While `Open`, every arrival at the tier is fast-failed (counted as
//! `fast_failed`, routed to the client retry path).  While `HalfOpen`,
//! exactly `half_open_probes` arrivals are admitted (deterministically:
//! the first ones to arrive) and the rest fast-fail; if all admitted
//! probes succeed the breaker closes, the first failure trips it open
//! again.  Trips are numbered by a `generation` counter so a stale
//! half-open timer (scheduled for an earlier open period) is ignored —
//! the same epoch-stale-event pattern the server failure path uses.

use std::collections::VecDeque;

use crate::config::assert_positive_finite;

/// Per-class request deadlines measured from first birth (`Request::born`),
/// shared across retry attempts: a retry does not reset the budget.  A
/// timed-out request takes the client retry path like every other
/// rejection, so it is re-submitted while the scenario's
/// [`RetryPolicy`](crate::config::RetryPolicy) attempt budget lasts.
#[derive(Debug, Clone)]
pub struct DeadlineConfig {
    /// Deadline per class id; a request older than its deadline is
    /// abandoned and counted as timed out (never as completed or dropped).
    pub deadline: Vec<f64>,
    /// Renege: expired requests are discarded for free at tier admission
    /// and at service start, instead of occupying a server only to have
    /// the completion discarded at the client.
    pub renege: bool,
}

impl DeadlineConfig {
    pub(crate) fn validate(&self, classes: usize) {
        assert_eq!(
            self.deadline.len(),
            classes,
            "need one deadline per request class"
        );
        for (j, d) in self.deadline.iter().enumerate() {
            assert!(
                *d > 0.0 && d.is_finite(),
                "class {j}: deadline must be positive and finite"
            );
        }
    }
}

/// Windowed failure-rate circuit breaker of one tier.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Sliding outcome-window length (requests, not time).
    pub window: usize,
    /// Trip open when `failures / outcomes >= failure_threshold` with at
    /// least `min_samples` outcomes in the window.
    pub failure_threshold: f64,
    /// Outcomes required before the failure rate is evaluated at all.
    /// May exceed `window`, which makes the breaker inert — useful for
    /// isolating its RNG footprint in tests.
    pub min_samples: usize,
    /// Base open period before probing; the simulator jitters it by
    /// `U(0.75, 1.25)` from the probe substream family.
    pub open_duration: f64,
    /// Probes admitted while half-open; all must succeed to close.
    pub half_open_probes: usize,
}

impl BreakerConfig {
    pub(crate) fn validate(&self, tier: usize) {
        assert!(self.window >= 1, "tier {tier}: breaker window must be >= 1");
        assert!(
            self.failure_threshold > 0.0 && self.failure_threshold <= 1.0,
            "tier {tier}: breaker failure_threshold must be in (0, 1]"
        );
        assert!(
            self.min_samples >= 1,
            "tier {tier}: breaker min_samples must be >= 1"
        );
        assert_positive_finite(tier, "breaker open_duration", self.open_duration);
        assert!(
            self.half_open_probes >= 1,
            "tier {tier}: breaker half_open_probes must be >= 1"
        );
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// Runtime state of one tier's circuit breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    outcomes: VecDeque<bool>, // true = failure
    failures: usize,
    probes_remaining: usize,
    successes_needed: usize,
    generation: u64,
}

impl CircuitBreaker {
    /// A closed breaker guarding tier `tier` (named if `cfg` is invalid).
    pub fn new(cfg: BreakerConfig, tier: usize) -> Self {
        cfg.validate(tier);
        Self {
            cfg,
            state: BreakerState::Closed,
            outcomes: VecDeque::with_capacity(cfg.window),
            failures: 0,
            probes_remaining: 0,
            successes_needed: 0,
            generation: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    /// Admission verdict for one arrival at the tier.
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probes_remaining > 0 {
                    self.probes_remaining -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record the outcome of one request processed at the tier.  Returns
    /// `Some(generation)` when this outcome trips the breaker open — the
    /// caller must schedule the half-open timer for that generation.
    pub fn record(&mut self, failure: bool) -> Option<u64> {
        match self.state {
            // Outcomes of work admitted before the trip carry no new
            // information while open; ignore them.
            BreakerState::Open => None,
            BreakerState::Closed => {
                if self.outcomes.len() == self.cfg.window && self.outcomes.pop_front() == Some(true)
                {
                    self.failures -= 1;
                }
                self.outcomes.push_back(failure);
                if failure {
                    self.failures += 1;
                }
                let n = self.outcomes.len();
                if n >= self.cfg.min_samples
                    && self.failures as f64 >= self.cfg.failure_threshold * n as f64
                {
                    Some(self.trip())
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                if failure {
                    Some(self.trip())
                } else {
                    self.successes_needed -= 1;
                    if self.successes_needed == 0 {
                        self.state = BreakerState::Closed;
                        self.outcomes.clear();
                        self.failures = 0;
                    }
                    None
                }
            }
        }
    }

    /// The half-open timer of open period `generation` fired.  A stale
    /// generation (the breaker has tripped again since) is ignored.
    /// Returns whether the breaker transitioned to half-open.
    pub fn half_open(&mut self, generation: u64) -> bool {
        if self.state == BreakerState::Open && self.generation == generation {
            self.state = BreakerState::HalfOpen;
            self.probes_remaining = self.cfg.half_open_probes;
            self.successes_needed = self.cfg.half_open_probes;
            true
        } else {
            false
        }
    }

    fn trip(&mut self) -> u64 {
        self.state = BreakerState::Open;
        self.generation += 1;
        self.outcomes.clear();
        self.failures = 0;
        self.generation
    }
}

/// Token-bucket admission control at the fabric's front tier.
#[derive(Debug, Clone, Copy)]
pub struct ShedderConfig {
    /// Token refill rate (sustained admissions per unit time).
    pub rate: f64,
    /// Bucket capacity (admissible burst size).
    pub burst: f64,
}

impl ShedderConfig {
    pub(crate) fn validate(&self) {
        assert!(
            self.rate > 0.0 && self.rate.is_finite(),
            "shedder.rate must be positive and finite"
        );
        assert!(
            self.burst >= 1.0 && self.burst.is_finite(),
            "shedder.burst must be finite and >= 1"
        );
    }
}

/// Runtime token bucket: lazily refilled at each admission attempt, so it
/// needs no timer events and consumes no randomness.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    cfg: ShedderConfig,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// A bucket that starts full at time zero.
    pub fn new(cfg: ShedderConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            tokens: cfg.burst,
            last: 0.0,
        }
    }

    /// Spend one token if available at `now`; `false` = shed.
    pub fn try_admit(&mut self, now: f64) -> bool {
        // Release-mode check (ss-lint L003): an out-of-order admission
        // would *refund* tokens via a negative elapsed interval — in
        // release the bucket would silently over-admit.
        assert!(now >= self.last, "admission attempts are time-ordered");
        self.tokens = (self.tokens + self.cfg.rate * (now - self.last)).min(self.cfg.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Degraded-server chaos: tier-wide slowdown epochs during which every
/// service time sampled at the tier is stretched by `1 / rate_multiplier`.
/// Onset and duration are exponential, drawn from the tier's
/// `SLOWDOWN_FAMILY` substream.  The multiplier in force at service
/// *start* applies for the whole service.
#[derive(Debug, Clone, Copy)]
pub struct SlowdownConfig {
    pub mean_time_to_slowdown: f64,
    pub mean_slowdown_duration: f64,
    /// Service-rate multiplier in `(0, 1]` during the epoch (`1.0` = a
    /// no-op epoch, useful for RNG-isolation tests).
    pub rate_multiplier: f64,
    /// Number of slowdown epochs to inject; `0` = unbounded recurring
    /// epochs.  Chaos experiments usually inject exactly one.
    pub max_epochs: u64,
}

impl SlowdownConfig {
    pub(crate) fn validate(&self, tier: usize) {
        assert_positive_finite(tier, "mean_time_to_slowdown", self.mean_time_to_slowdown);
        assert_positive_finite(tier, "mean_slowdown_duration", self.mean_slowdown_duration);
        assert!(
            self.rate_multiplier > 0.0 && self.rate_multiplier <= 1.0,
            "tier {tier}: rate_multiplier must be in (0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig {
                window: 10,
                failure_threshold: 0.5,
                min_samples: 4,
                open_duration: 5.0,
                half_open_probes: 3,
            },
            0,
        )
    }

    #[test]
    fn breaker_trips_at_the_windowed_failure_rate() {
        let mut b = breaker();
        assert_eq!(b.state(), BreakerState::Closed);
        // Three failures stay below min_samples.
        for _ in 0..3 {
            assert_eq!(b.record(true), None);
        }
        // Fourth outcome reaches min_samples with 100% failures: trip.
        assert_eq!(b.record(true), Some(1));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit());
    }

    #[test]
    fn breaker_needs_min_samples_and_threshold() {
        let mut b = breaker();
        // 3 failures in 8 outcomes = 37.5% < 50%, and no prefix of length
        // >= min_samples reaches 50% either: stays closed throughout.
        for failure in [false, false, true, false, true, false, true, false] {
            assert_eq!(b.record(failure), None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn sliding_window_evicts_old_outcomes() {
        let mut b = breaker();
        // Fill the 10-wide window with successes, then 9 failures: the
        // failure rate climbs as successes are evicted and crosses 50%
        // only when the window holds 5 failures.
        for _ in 0..10 {
            assert_eq!(b.record(false), None);
        }
        for _ in 0..4 {
            assert_eq!(b.record(true), None);
        }
        assert_eq!(b.record(true), Some(1));
    }

    #[test]
    fn half_open_admits_exactly_the_probe_budget() {
        let mut b = breaker();
        for _ in 0..4 {
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.half_open(1));
        for _ in 0..3 {
            assert!(b.admit());
        }
        assert!(!b.admit(), "probe budget exhausted");
        // All three probes succeed: closed, window reset.
        assert_eq!(b.record(false), None);
        assert_eq!(b.record(false), None);
        assert_eq!(b.record(false), None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn probe_failure_reopens_with_a_new_generation() {
        let mut b = breaker();
        for _ in 0..4 {
            b.record(true);
        }
        assert!(b.half_open(1));
        assert!(b.admit());
        assert_eq!(b.record(true), Some(2), "reopen bumps the generation");
        assert_eq!(b.state(), BreakerState::Open);
        // The stale generation-1 timer must not half-open generation 2.
        assert!(!b.half_open(1));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.half_open(2));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn outcomes_while_open_are_ignored() {
        let mut b = breaker();
        for _ in 0..4 {
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Stragglers admitted pre-trip complete; no state change.
        assert_eq!(b.record(false), None);
        assert_eq!(b.record(true), None);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn inert_breaker_never_trips() {
        let mut b = CircuitBreaker::new(
            BreakerConfig {
                window: 4,
                failure_threshold: 0.5,
                min_samples: 1000, // > window: rate is never evaluated
                open_duration: 1.0,
                half_open_probes: 1,
            },
            0,
        );
        for _ in 0..100 {
            assert_eq!(b.record(true), None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn token_bucket_sheds_when_empty_and_refills_over_time() {
        let mut tb = TokenBucket::new(ShedderConfig {
            rate: 2.0,
            burst: 3.0,
        });
        // The burst drains immediately...
        assert!(tb.try_admit(0.0));
        assert!(tb.try_admit(0.0));
        assert!(tb.try_admit(0.0));
        assert!(!tb.try_admit(0.0), "bucket empty");
        // ...and refills at 2 tokens per unit time.
        assert!(!tb.try_admit(0.25), "only half a token back");
        assert!(tb.try_admit(0.5 + 0.25));
        // Idle time caps at the burst, not beyond.
        assert!(tb.try_admit(100.0));
        assert!(tb.try_admit(100.0));
        assert!(tb.try_admit(100.0));
        assert!(!tb.try_admit(100.0));
    }

    /// The time-ordering guard must hold in release builds too (promoted
    /// from `debug_assert!` by the ss-lint L003 audit): an out-of-order
    /// admission would refund tokens through a negative elapsed interval
    /// and silently over-admit.
    #[test]
    #[should_panic(expected = "time-ordered")]
    fn token_bucket_rejects_time_travel() {
        let mut tb = TokenBucket::new(ShedderConfig {
            rate: 2.0,
            burst: 3.0,
        });
        assert!(tb.try_admit(1.0));
        tb.try_admit(0.5); // earlier than the last admission: must panic
    }
}
