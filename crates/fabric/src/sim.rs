//! The fabric simulator: an [`EventHandler`] on the generic `ss-sim`
//! engine, plus the replication entry point [`run_fabric`].
//!
//! ## Determinism
//!
//! One replication owns one [`RngStreams`] factory (seeded from the
//! caller-supplied `seed`), and every stochastic ingredient draws from its
//! own substream family so the sampled processes are independent and the
//! schedule of draws is a pure function of the seed:
//!
//! | family | keyed by | drives |
//! |---|---|---|
//! | `ARRIVAL_FAMILY` | class | interarrival times |
//! | `PHASE_FAMILY` | class | MMPP phase sojourns |
//! | `SERVICE_FAMILY` | `tier · 2^16 + server` | service times |
//! | `LB_FAMILY` | tier | weighted load-balancer draws |
//! | `FAIL_FAMILY` | `tier · 2^16 + server` | failure/repair cycles |
//! | `RETRY_FAMILY` | class | backoff jitter |
//! | `SLOWDOWN_FAMILY` | tier | slowdown-epoch onsets/durations |
//! | `OUTAGE_FAMILY` | tier | correlated-outage onsets/durations |
//! | `PROBE_FAMILY` | tier | circuit-breaker open-period jitter |
//!
//! The resilience features (deadlines, breakers, shedding) consume no
//! randomness at all except the breaker's open-period jitter, and the
//! chaos epochs draw only from their own families — so switching any of
//! them on cannot perturb the arrival or service processes of an
//! otherwise-identical scenario.
//!
//! Ties on the calendar resolve in schedule order (the `(time, seq)`
//! contract of `ss_sim::events::EventQueue`), and every same-index decision
//! (load balancing, discipline selection) breaks ties by the lowest id /
//! earliest enqueue, so a replication is bit-for-bit reproducible and
//! independent of how many replications run concurrently elsewhere.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use ss_core::discipline::Discipline;
use ss_sim::engine::{Engine, EventHandler};
use ss_sim::events::EventQueue;
use ss_sim::rng::RngStreams;
use ss_sim::stats::QuantileSketch;

use crate::config::{ArrivalProcess, FabricConfig, LbPolicy};
use crate::events::{FabricEvent, Request};
use crate::metrics::{FabricReport, SlaWindowReport, TierReport};
use crate::resilience::{CircuitBreaker, TokenBucket};

/// Stream id of the fabric scenario runner's per-replication seeds
/// (`"FABR"`): replication `rep` of scenario `s` derives its simulation
/// seed from `substream(FABRIC_SIM_STREAM, s * 2^16 + rep)`.  Disjoint
/// from every other stream family in DESIGN.md's stream-id table.
pub const FABRIC_SIM_STREAM: u64 = 0x4641_4252;

// Substream families *within* one replication's own `RngStreams`.
const ARRIVAL_FAMILY: u64 = 0x4641_0001;
const PHASE_FAMILY: u64 = 0x4641_0002;
const SERVICE_FAMILY: u64 = 0x4641_0003;
const LB_FAMILY: u64 = 0x4641_0004;
const FAIL_FAMILY: u64 = 0x4641_0005;
const RETRY_FAMILY: u64 = 0x4641_0006;
const SLOWDOWN_FAMILY: u64 = 0x4641_0007;
const OUTAGE_FAMILY: u64 = 0x4641_0008;
const PROBE_FAMILY: u64 = 0x4641_0009;

/// The per-replication simulation seed of `(scenario, rep)` under the
/// shared scheme used by the `fabric` binary and the determinism tests.
pub fn replication_seed(streams: &RngStreams, scenario_id: u64, rep: u64) -> u64 {
    streams
        .substream(FABRIC_SIM_STREAM, scenario_id * 0x1_0000 + rep)
        .gen::<u64>()
}

fn sample_exp(rng: &mut ChaCha8Rng, rate: f64) -> f64 {
    // Release-mode check (ss-lint L003): a zero/negative/NaN rate would
    // silently produce inf/NaN event times in release and corrupt the
    // calendar far from the cause.
    assert!(
        rate > 0.0,
        "sample_exp requires a positive rate, got {rate}"
    );
    -(1.0 - rng.gen::<f64>()).ln() / rate
}

struct ClassState {
    arrival_epoch: u64,
    phase: usize,
    rng_arrival: ChaCha8Rng,
    rng_phase: ChaCha8Rng,
    rng_retry: ChaCha8Rng,
}

struct Server {
    up: bool,
    /// Bumped on every failure (or outage onset); `Complete` events carry
    /// the epoch they were scheduled under, so completions of aborted
    /// services are recognised as stale and ignored.
    epoch: u64,
    queues: Vec<VecDeque<Request>>,
    /// Total waiting requests across classes (excludes the one in service).
    queued: usize,
    in_service: Option<Request>,
    service_start: f64,
    /// Post-warmup busy time.
    busy: f64,
    rng_service: ChaCha8Rng,
    rng_fail: ChaCha8Rng,
}

impl Server {
    fn occupancy(&self) -> usize {
        self.queued + usize::from(self.in_service.is_some())
    }
}

struct Tier {
    servers: Vec<Server>,
    discipline: Arc<dyn Discipline>,
    rr_next: usize,
    rng_lb: ChaCha8Rng,
    /// Tier-wide per-class queues, used instead of the per-server queues
    /// under [`LbPolicy::CentralQueue`].
    shared_queues: Vec<VecDeque<Request>>,
    shared_queued: usize,
    served: u64,
    wait_sum: f64,
    dropped: u64,
    fast_failed: u64,
    breaker: Option<CircuitBreaker>,
    rng_probe: Option<ChaCha8Rng>,
    /// A tier-wide slowdown epoch is in force.
    degraded: bool,
    slowdown_epochs: u64,
    rng_slowdown: Option<ChaCha8Rng>,
    /// A correlated tier-wide outage is in force.
    outage: bool,
    outage_epochs: u64,
    rng_outage: Option<ChaCha8Rng>,
}

/// Discipline selection over a bank of per-class queues: highest index
/// wins; ties go to the earliest head-of-line arrival, then the lowest
/// class id (ascending scan + strict comparisons).
///
/// A NaN index is clamped to `-∞` *before* any comparison.  The old code
/// only `debug_assert!`ed: in release a NaN silently lost every strict
/// `>` — unless it sat in the *first* nonempty class, which is selected
/// unconditionally, so the outcome depended on class position.  Clamping
/// makes a poisoned index position-independent (lowest priority, FIFO
/// tie-break against other `-∞` entries).  The fabric's own disciplines
/// never get here: `StaticIndex::new` (cµ, Gittins) and the Whittle table
/// asserts reject NaN at build time.
fn select_class(discipline: &dyn Discipline, queues: &[VecDeque<Request>]) -> Option<usize> {
    let mut best: Option<(usize, f64, f64)> = None; // (class, index, head enqueue time)
    for (j, q) in queues.iter().enumerate() {
        let Some(head) = q.front() else { continue };
        let raw = discipline.class_index(j, q.len());
        let idx = if raw.is_nan() { f64::NEG_INFINITY } else { raw };
        let better = match best {
            None => true,
            Some((_, bi, bt)) => idx > bi || (idx == bi && head.enqueued < bt),
        };
        if better {
            best = Some((j, idx, head.enqueued));
        }
    }
    best.map(|(class, _, _)| class)
}

/// Per-window SLA accumulators (mirrors [`SlaWindowReport`]).
struct WindowAcc {
    arrivals: u64,
    completed: u64,
    timed_out: u64,
    dropped: u64,
    shed: u64,
    fast_failed: u64,
    retries: u64,
    rtt: QuantileSketch,
}

impl WindowAcc {
    fn new() -> Self {
        Self {
            arrivals: 0,
            completed: 0,
            timed_out: 0,
            dropped: 0,
            shed: 0,
            fast_failed: 0,
            retries: 0,
            rtt: QuantileSketch::new(1e-3, 1e3, 1024),
        }
    }
}

struct FabricSim<'a> {
    cfg: &'a FabricConfig,
    tiers: Vec<Tier>,
    classes: Vec<ClassState>,
    shedder: Option<TokenBucket>,
    next_id: u64,
    arrivals: u64,
    completed: u64,
    lost: u64,
    retries: u64,
    shed: u64,
    timed_out: u64,
    rtt: QuantileSketch,
    windows: Vec<WindowAcc>,
}

impl<'a> FabricSim<'a> {
    fn new(
        cfg: &'a FabricConfig,
        disciplines: &[Arc<dyn Discipline>],
        streams: &RngStreams,
    ) -> Self {
        assert_eq!(disciplines.len(), cfg.tiers.len());
        let classes = (0..cfg.classes.len())
            .map(|j| ClassState {
                arrival_epoch: 0,
                phase: 0,
                rng_arrival: streams.substream(ARRIVAL_FAMILY, j as u64),
                rng_phase: streams.substream(PHASE_FAMILY, j as u64),
                rng_retry: streams.substream(RETRY_FAMILY, j as u64),
            })
            .collect();
        let tiers = cfg
            .tiers
            .iter()
            .enumerate()
            .map(|(t, tier)| Tier {
                servers: (0..tier.servers)
                    .map(|s| Server {
                        up: true,
                        epoch: 0,
                        queues: vec![VecDeque::new(); cfg.classes.len()],
                        queued: 0,
                        in_service: None,
                        service_start: 0.0,
                        busy: 0.0,
                        rng_service: streams
                            .substream(SERVICE_FAMILY, (t as u64) * 0x1_0000 + s as u64),
                        rng_fail: streams.substream(FAIL_FAMILY, (t as u64) * 0x1_0000 + s as u64),
                    })
                    .collect(),
                discipline: Arc::clone(&disciplines[t]),
                rr_next: 0,
                rng_lb: streams.substream(LB_FAMILY, t as u64),
                shared_queues: vec![VecDeque::new(); cfg.classes.len()],
                shared_queued: 0,
                served: 0,
                wait_sum: 0.0,
                dropped: 0,
                fast_failed: 0,
                breaker: tier.breaker.map(CircuitBreaker::new),
                rng_probe: tier
                    .breaker
                    .map(|_| streams.substream(PROBE_FAMILY, t as u64)),
                degraded: false,
                slowdown_epochs: 0,
                rng_slowdown: tier
                    .slowdown
                    .map(|_| streams.substream(SLOWDOWN_FAMILY, t as u64)),
                outage: false,
                outage_epochs: 0,
                rng_outage: tier
                    .outage
                    .map(|_| streams.substream(OUTAGE_FAMILY, t as u64)),
            })
            .collect();
        let windows = match cfg.sla_window {
            Some(w) => {
                let span = cfg.horizon - cfg.warmup;
                // The 1e-9 slack keeps a width that divides the span
                // exactly from spawning a sliver seventh window.
                let n = ((span / w) - 1e-9).ceil().max(1.0) as usize;
                (0..n).map(|_| WindowAcc::new()).collect()
            }
            None => Vec::new(),
        };
        Self {
            cfg,
            tiers,
            classes,
            shedder: cfg.shedder.map(TokenBucket::new),
            next_id: 0,
            arrivals: 0,
            completed: 0,
            lost: 0,
            retries: 0,
            shed: 0,
            timed_out: 0,
            // Wide geometric sketch: 1.35% relative bucket width over
            // [1e-3, 1e3], so P50/P95/P99 stay meaningful even with long
            // retry/backoff tails.
            rtt: QuantileSketch::new(1e-3, 1e3, 1024),
            windows,
        }
    }

    fn arrival_rate(&self, class: usize) -> f64 {
        match &self.cfg.classes[class].arrivals {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Mmpp { rates, .. } => rates[self.classes[class].phase],
        }
    }

    fn schedule_next_arrival(
        &mut self,
        class: usize,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
    ) {
        let rate = self.arrival_rate(class);
        let dt = sample_exp(&mut self.classes[class].rng_arrival, rate);
        let epoch = self.classes[class].arrival_epoch;
        queue.schedule(now + dt, FabricEvent::NextArrival { class, epoch });
    }

    /// The SLA window containing post-warmup instant `t` (`None` during
    /// warmup or when windows are disabled).
    fn window_index(&self, t: f64) -> Option<usize> {
        if self.windows.is_empty() || t <= self.cfg.warmup {
            return None;
        }
        let width = self.cfg.sla_window.expect("windows imply a width");
        let k = ((t - self.cfg.warmup) / width) as usize;
        Some(k.min(self.windows.len() - 1))
    }

    /// The configured deadline of `class`, if any.
    fn deadline_of(&self, class: usize) -> Option<f64> {
        self.cfg.deadlines.as_ref().map(|d| d.deadline[class])
    }

    /// Whether `req` has outlived its deadline at `now`.
    fn expired(&self, req: &Request, now: f64) -> bool {
        self.deadline_of(req.class)
            .is_some_and(|d| now > req.born + d)
    }

    /// Add the in-service interval `[start, end]` of one server to its
    /// post-warmup busy time.
    fn credit_busy(&mut self, tier: usize, server: usize, start: f64, end: f64) {
        let lo = start.max(self.cfg.warmup);
        let hi = end.min(self.cfg.horizon);
        if hi > lo {
            self.tiers[tier].servers[server].busy += hi - lo;
        }
    }

    /// Load-balance `req` onto a server queue of `tier` (or the tier's
    /// shared queue under [`LbPolicy::CentralQueue`]), or reject it — in
    /// admission order: deadline renege, front-tier shedder, circuit
    /// breaker, then the capacity/availability checks.
    fn enqueue_at_tier(
        &mut self,
        tier: usize,
        mut req: Request,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
    ) {
        // Client-side renege: an already-expired request never enters the
        // tier (and burns no shedder token).  Not the tier's fault — the
        // breaker is not charged.
        if self.cfg.deadlines.as_ref().is_some_and(|d| d.renege) && self.expired(&req, now) {
            self.time_out_request(None, req, now, queue);
            return;
        }
        if tier == 0 {
            if let Some(bucket) = self.shedder.as_mut() {
                if !bucket.try_admit(now) {
                    self.shed_request(req, now, queue);
                    return;
                }
            }
        }
        if let Some(br) = self.tiers[tier].breaker.as_mut() {
            if !br.admit() {
                self.fast_fail(tier, req, now, queue);
                return;
            }
        }
        if matches!(self.cfg.tiers[tier].lb, LbPolicy::CentralQueue) {
            if let Some(cap) = self.cfg.tiers[tier].queue_capacity {
                if self.tiers[tier].shared_queued >= cap {
                    self.drop_request(tier, req, now, queue);
                    return;
                }
            }
            req.enqueued = now;
            let t = &mut self.tiers[tier];
            t.shared_queues[req.class].push_back(req);
            t.shared_queued += 1;
            // Hand the work to the lowest-id idle up server, if any
            // (nobody pulls during a tier-wide outage).
            let idle = if t.outage {
                None
            } else {
                t.servers
                    .iter()
                    .position(|s| s.up && s.in_service.is_none())
            };
            if let Some(server) = idle {
                self.try_start(tier, server, now, queue);
            }
            return;
        }
        let chosen = self.pick_server(tier, req.class);
        let Some(server) = chosen else {
            // Every server of the tier is down (or the tier is out).
            self.drop_request(tier, req, now, queue);
            return;
        };
        if let Some(cap) = self.cfg.tiers[tier].queue_capacity {
            if self.tiers[tier].servers[server].queued >= cap {
                self.drop_request(tier, req, now, queue);
                return;
            }
        }
        req.enqueued = now;
        let s = &mut self.tiers[tier].servers[server];
        s.queues[req.class].push_back(req);
        s.queued += 1;
        self.try_start(tier, server, now, queue);
    }

    /// The load-balancer decision: an up server of `tier`, or `None` when
    /// the whole tier is down.
    fn pick_server(&mut self, tier: usize, _class: usize) -> Option<usize> {
        if self.tiers[tier].outage {
            return None;
        }
        let n = self.tiers[tier].servers.len();
        let any_up = self.tiers[tier].servers.iter().any(|s| s.up);
        if !any_up {
            return None;
        }
        match &self.cfg.tiers[tier].lb {
            LbPolicy::RoundRobin => {
                let t = &mut self.tiers[tier];
                for k in 0..n {
                    let cand = (t.rr_next + k) % n;
                    if t.servers[cand].up {
                        t.rr_next = (cand + 1) % n;
                        return Some(cand);
                    }
                }
                unreachable!("an up server exists");
            }
            LbPolicy::JoinShortestQueue => self.tiers[tier]
                .servers
                .iter()
                .enumerate()
                .filter(|(_, s)| s.up)
                .min_by_key(|(i, s)| (s.occupancy(), *i))
                .map(|(i, _)| i),
            LbPolicy::Weighted(weights) => {
                let t = &mut self.tiers[tier];
                let total: f64 = weights
                    .iter()
                    .zip(&t.servers)
                    .filter(|(_, s)| s.up)
                    .map(|(w, _)| *w)
                    .sum();
                let mut u = t.rng_lb.gen::<f64>() * total;
                let mut last_up = 0;
                for (i, (w, s)) in weights.iter().zip(&t.servers).enumerate() {
                    if !s.up {
                        continue;
                    }
                    last_up = i;
                    if u < *w {
                        return Some(i);
                    }
                    u -= *w;
                }
                Some(last_up) // floating-point slack lands on the last up server
            }
            LbPolicy::CentralQueue => {
                unreachable!("central-queue tiers never pick a server at arrival")
            }
        }
    }

    /// If `(tier, server)` is up and idle, start serving the
    /// highest-priority waiting request per the tier's discipline — from
    /// the server's own queues, or from the tier's shared queue under
    /// [`LbPolicy::CentralQueue`].  Under reneging, expired requests are
    /// discarded for free here (timeout, pick again) instead of wasting a
    /// service.
    fn try_start(
        &mut self,
        tier: usize,
        server: usize,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
    ) {
        let central = matches!(self.cfg.tiers[tier].lb, LbPolicy::CentralQueue);
        let renege = self.cfg.deadlines.as_ref().is_some_and(|d| d.renege);
        loop {
            let t = &mut self.tiers[tier];
            if t.outage || !t.servers[server].up || t.servers[server].in_service.is_some() {
                return;
            }
            let (class, req) = if central {
                let Some(class) = select_class(t.discipline.as_ref(), &t.shared_queues) else {
                    return;
                };
                t.shared_queued -= 1;
                let req = t.shared_queues[class]
                    .pop_front()
                    .expect("chosen queue is nonempty");
                (class, req)
            } else {
                if t.servers[server].queued == 0 {
                    return;
                }
                let class = select_class(t.discipline.as_ref(), &t.servers[server].queues)
                    .expect("queued > 0 implies a nonempty class queue");
                let s = &mut t.servers[server];
                s.queued -= 1;
                let req = s.queues[class]
                    .pop_front()
                    .expect("chosen queue is nonempty");
                (class, req)
            };
            if renege && self.expired(&req, now) {
                // It waited past its deadline in this tier's queue: the
                // client is gone.  Charge the tier's breaker and look for
                // the next live request.
                self.time_out_request(Some(tier), req, now, queue);
                continue;
            }
            let t = &mut self.tiers[tier];
            if now > self.cfg.warmup {
                t.served += 1;
                t.wait_sum += now - req.enqueued;
            }
            let degraded = t.degraded;
            let s = &mut t.servers[server];
            let mut service = self.cfg.tiers[tier].service[class].sample(&mut s.rng_service);
            if degraded {
                let m = self.cfg.tiers[tier]
                    .slowdown
                    .expect("degraded tier has a slowdown config")
                    .rate_multiplier;
                service /= m;
            }
            s.in_service = Some(req);
            s.service_start = now;
            queue.schedule(
                now + service,
                FabricEvent::Complete {
                    tier,
                    server,
                    epoch: s.epoch,
                },
            );
            return;
        }
    }

    /// Common client reaction to any rejection: schedule a backed-off
    /// retry while the attempt budget lasts, else give the request up.
    fn retry_or_lose(
        &mut self,
        req: Request,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
        allow_retry: bool,
    ) {
        let after_warmup = now > self.cfg.warmup;
        let retry = &self.cfg.retry;
        if allow_retry && req.attempt < retry.max_retries {
            let attempt = req.attempt + 1;
            let jitter = 0.5 + self.classes[req.class].rng_retry.gen::<f64>();
            let backoff = retry.base_backoff * retry.multiplier.powi(attempt as i32 - 1) * jitter;
            if after_warmup {
                self.retries += 1;
                if let Some(k) = self.window_index(now) {
                    self.windows[k].retries += 1;
                }
            }
            queue.schedule(
                now + backoff,
                FabricEvent::Retry {
                    req: Request { attempt, ..req },
                },
            );
        } else if after_warmup {
            self.lost += 1;
        }
    }

    /// Account a drop at `tier` (queue overflow, dead tier, aborted
    /// service) and run the client retry path.
    fn drop_request(
        &mut self,
        tier: usize,
        req: Request,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
    ) {
        if now > self.cfg.warmup {
            self.tiers[tier].dropped += 1;
            if let Some(k) = self.window_index(now) {
                self.windows[k].dropped += 1;
            }
        }
        self.breaker_outcome(tier, true, now, queue);
        self.retry_or_lose(req, now, queue, true);
    }

    /// The breaker at `tier` rejected the arrival without touching a queue.
    fn fast_fail(
        &mut self,
        tier: usize,
        req: Request,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
    ) {
        if now > self.cfg.warmup {
            self.tiers[tier].fast_failed += 1;
            if let Some(k) = self.window_index(now) {
                self.windows[k].fast_failed += 1;
            }
        }
        self.retry_or_lose(req, now, queue, true);
    }

    /// The front-tier token bucket rejected the arrival.
    fn shed_request(&mut self, req: Request, now: f64, queue: &mut EventQueue<FabricEvent>) {
        if now > self.cfg.warmup {
            self.shed += 1;
            if let Some(k) = self.window_index(now) {
                self.windows[k].shed += 1;
            }
        }
        self.retry_or_lose(req, now, queue, true);
    }

    /// `req` outlived its deadline.  `breaker_tier` charges the tier whose
    /// queue the request expired in (reneges); client-side detections
    /// (admission-time renege, discarded completion) charge nobody here —
    /// the serving tier already recorded the past-deadline completion.
    fn time_out_request(
        &mut self,
        breaker_tier: Option<usize>,
        req: Request,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
    ) {
        if now > self.cfg.warmup {
            self.timed_out += 1;
            if let Some(k) = self.window_index(now) {
                self.windows[k].timed_out += 1;
            }
        }
        if let Some(tier) = breaker_tier {
            self.breaker_outcome(tier, true, now, queue);
        }
        let allow = self
            .cfg
            .deadlines
            .as_ref()
            .is_some_and(|d| d.retry_on_timeout);
        self.retry_or_lose(req, now, queue, allow);
    }

    /// Feed one request outcome to `tier`'s breaker (if any); on a trip,
    /// schedule the half-open timer at the jittered open period.
    fn breaker_outcome(
        &mut self,
        tier: usize,
        failure: bool,
        now: f64,
        queue: &mut EventQueue<FabricEvent>,
    ) {
        let t = &mut self.tiers[tier];
        let Some(br) = t.breaker.as_mut() else { return };
        let Some(generation) = br.record(failure) else {
            return;
        };
        let open = br.config().open_duration;
        let jitter = 0.75
            + 0.5
                * t.rng_probe
                    .as_mut()
                    .expect("a breaker implies a probe rng")
                    .gen::<f64>();
        queue.schedule(
            now + open * jitter,
            FabricEvent::BreakerHalfOpen { tier, generation },
        );
    }
}

impl EventHandler for FabricSim<'_> {
    type Event = FabricEvent;

    fn handle(&mut self, time: f64, event: FabricEvent, queue: &mut EventQueue<FabricEvent>) {
        match event {
            FabricEvent::NextArrival { class, epoch } => {
                if epoch != self.classes[class].arrival_epoch {
                    return; // superseded by an MMPP phase switch
                }
                let req = Request {
                    class,
                    id: self.next_id,
                    born: time,
                    attempt: 0,
                    enqueued: time,
                };
                self.next_id += 1;
                if time > self.cfg.warmup {
                    self.arrivals += 1;
                    if let Some(k) = self.window_index(time) {
                        self.windows[k].arrivals += 1;
                    }
                }
                self.enqueue_at_tier(0, req, time, queue);
                self.schedule_next_arrival(class, time, queue);
            }
            FabricEvent::PhaseSwitch { class } => {
                // Borrow through a copy of the `&'a` config, not `self`, so
                // the rates stay readable while `self` is mutated below.
                let cfg = self.cfg;
                let ArrivalProcess::Mmpp {
                    ref rates,
                    switch_rate,
                } = cfg.classes[class].arrivals
                else {
                    unreachable!("phase switches only exist for MMPP classes")
                };
                let st = &mut self.classes[class];
                st.phase = (st.phase + 1) % rates.len();
                // The pending arrival was sampled at the old rate; bump the
                // epoch so it dies on arrival and draw a fresh one at the
                // new rate (exponential memorylessness makes this exact).
                st.arrival_epoch += 1;
                self.schedule_next_arrival(class, time, queue);
                let dt = sample_exp(&mut self.classes[class].rng_phase, switch_rate);
                queue.schedule(time + dt, FabricEvent::PhaseSwitch { class });
            }
            FabricEvent::ArriveAtTier { tier, req } => {
                self.enqueue_at_tier(tier, req, time, queue);
            }
            FabricEvent::Complete {
                tier,
                server,
                epoch,
            } => {
                if epoch != self.tiers[tier].servers[server].epoch {
                    return; // service was aborted by a failure
                }
                let start = self.tiers[tier].servers[server].service_start;
                self.credit_busy(tier, server, start, time);
                let req = self.tiers[tier].servers[server]
                    .in_service
                    .take()
                    .expect("a live Complete implies a request in service");
                // The tier did its work; whether in time is the breaker's
                // success/failure signal (always a success without
                // deadlines).
                let missed = self.expired(&req, time);
                self.breaker_outcome(tier, missed, time, queue);
                if tier + 1 < self.tiers.len() {
                    queue.schedule(
                        time + self.cfg.tiers[tier].hop_delay,
                        FabricEvent::ArriveAtTier {
                            tier: tier + 1,
                            req,
                        },
                    );
                } else {
                    // Service chain done: route the response back.
                    queue.schedule(time, FabricEvent::ReturnHop { tier, req });
                }
                self.try_start(tier, server, time, queue);
            }
            FabricEvent::Fail { tier, server } => {
                let s = &mut self.tiers[tier].servers[server];
                // Release-mode check: a double failure would double-bump the
                // epoch and silently mis-filter stale completions.
                assert!(s.up, "Fail events are only scheduled while up");
                s.up = false;
                s.epoch += 1;
                let start = s.service_start;
                let aborted = s.in_service.take();
                let failure = self.cfg.tiers[tier]
                    .failure
                    .expect("failing tier has a failure config");
                let dt = sample_exp(
                    &mut self.tiers[tier].servers[server].rng_fail,
                    1.0 / failure.mean_time_to_repair,
                );
                queue.schedule(time + dt, FabricEvent::Recover { tier, server });
                if let Some(req) = aborted {
                    self.credit_busy(tier, server, start, time);
                    self.drop_request(tier, req, time, queue);
                }
            }
            FabricEvent::Recover { tier, server } => {
                let failure = self.cfg.tiers[tier]
                    .failure
                    .expect("recovering tier has a failure config");
                let s = &mut self.tiers[tier].servers[server];
                assert!(!s.up, "Recover events are only scheduled while down");
                s.up = true;
                let dt = sample_exp(&mut s.rng_fail, 1.0 / failure.mean_time_to_failure);
                queue.schedule(time + dt, FabricEvent::Fail { tier, server });
                self.try_start(tier, server, time, queue);
            }
            FabricEvent::ReturnHop { tier, req } => {
                if tier == 0 {
                    let missed = self.expired(&req, time);
                    if time > self.cfg.warmup {
                        // Every finished trip lands in the sketch — a
                        // collapsed window must show its honest P99.
                        self.rtt.record(time - req.born);
                        if !missed {
                            self.completed += 1;
                        }
                        if let Some(k) = self.window_index(time) {
                            self.windows[k].rtt.record(time - req.born);
                            if !missed {
                                self.windows[k].completed += 1;
                            }
                        }
                    }
                    if missed {
                        // Finished past deadline: the client already gave
                        // up, the completion is discarded.
                        self.time_out_request(None, req, time, queue);
                    }
                } else {
                    queue.schedule(
                        time + self.cfg.tiers[tier - 1].hop_delay,
                        FabricEvent::ReturnHop {
                            tier: tier - 1,
                            req,
                        },
                    );
                }
            }
            FabricEvent::Retry { req } => {
                self.enqueue_at_tier(0, req, time, queue);
            }
            FabricEvent::SlowdownStart { tier } => {
                let s = self.cfg.tiers[tier]
                    .slowdown
                    .expect("slowdown event implies a slowdown config");
                let t = &mut self.tiers[tier];
                t.degraded = true;
                t.slowdown_epochs += 1;
                let dt = sample_exp(
                    t.rng_slowdown.as_mut().expect("slowdown rng exists"),
                    1.0 / s.mean_slowdown_duration,
                );
                queue.schedule(time + dt, FabricEvent::SlowdownEnd { tier });
            }
            FabricEvent::SlowdownEnd { tier } => {
                let s = self.cfg.tiers[tier]
                    .slowdown
                    .expect("slowdown event implies a slowdown config");
                let t = &mut self.tiers[tier];
                t.degraded = false;
                if s.max_epochs == 0 || t.slowdown_epochs < s.max_epochs {
                    let dt = sample_exp(
                        t.rng_slowdown.as_mut().expect("slowdown rng exists"),
                        1.0 / s.mean_time_to_slowdown,
                    );
                    queue.schedule(time + dt, FabricEvent::SlowdownStart { tier });
                }
            }
            FabricEvent::OutageStart { tier } => {
                let o = self.cfg.tiers[tier]
                    .outage
                    .expect("outage event implies an outage config");
                self.tiers[tier].outage = true;
                self.tiers[tier].outage_epochs += 1;
                // The whole tier goes dark at once: every in-service
                // request aborts (its Complete goes stale via the epoch
                // bump) and the clients see correlated drops.
                for server in 0..self.tiers[tier].servers.len() {
                    let s = &mut self.tiers[tier].servers[server];
                    if let Some(req) = s.in_service.take() {
                        s.epoch += 1;
                        let start = s.service_start;
                        self.credit_busy(tier, server, start, time);
                        self.drop_request(tier, req, time, queue);
                    }
                }
                let dt = sample_exp(
                    self.tiers[tier].rng_outage.as_mut().expect("outage rng"),
                    1.0 / o.mean_outage_duration,
                );
                queue.schedule(time + dt, FabricEvent::OutageEnd { tier });
            }
            FabricEvent::OutageEnd { tier } => {
                let o = self.cfg.tiers[tier]
                    .outage
                    .expect("outage event implies an outage config");
                let t = &mut self.tiers[tier];
                t.outage = false;
                if o.max_epochs == 0 || t.outage_epochs < o.max_epochs {
                    let dt = sample_exp(
                        t.rng_outage.as_mut().expect("outage rng"),
                        1.0 / o.mean_time_to_outage,
                    );
                    queue.schedule(time + dt, FabricEvent::OutageStart { tier });
                }
                for server in 0..self.tiers[tier].servers.len() {
                    self.try_start(tier, server, time, queue);
                }
            }
            FabricEvent::BreakerHalfOpen { tier, generation } => {
                if let Some(br) = self.tiers[tier].breaker.as_mut() {
                    br.half_open(generation);
                }
            }
        }
    }
}

/// Run one fabric replication to the configured horizon.  The result is a
/// pure function of `(config, seed)`.
///
/// Builds the tier disciplines from scratch; when running many
/// replications of one scenario, build them once with
/// [`FabricConfig::build_disciplines`] and use [`run_fabric_with`].
pub fn run_fabric(config: &FabricConfig, seed: u64) -> FabricReport {
    run_fabric_with(config, &config.build_disciplines(), seed)
}

/// [`run_fabric`] with prebuilt tier disciplines (index tabulation can
/// dwarf the simulation itself; build once per scenario, share across
/// replications).
pub fn run_fabric_with(
    config: &FabricConfig,
    disciplines: &[Arc<dyn Discipline>],
    seed: u64,
) -> FabricReport {
    config.validate();
    let streams = RngStreams::new(seed);
    let mut sim = FabricSim::new(config, disciplines, &streams);
    let mut engine: Engine<FabricSim> = Engine::new();

    for class in 0..config.classes.len() {
        let rate = sim.arrival_rate(class);
        let dt = sample_exp(&mut sim.classes[class].rng_arrival, rate);
        engine.schedule(dt, FabricEvent::NextArrival { class, epoch: 0 });
        if let ArrivalProcess::Mmpp { switch_rate, .. } = config.classes[class].arrivals {
            let dt = sample_exp(&mut sim.classes[class].rng_phase, switch_rate);
            engine.schedule(dt, FabricEvent::PhaseSwitch { class });
        }
    }
    for (t, tier) in config.tiers.iter().enumerate() {
        if let Some(f) = tier.failure {
            for s in 0..tier.servers {
                let dt = sample_exp(
                    &mut sim.tiers[t].servers[s].rng_fail,
                    1.0 / f.mean_time_to_failure,
                );
                engine.schedule(dt, FabricEvent::Fail { tier: t, server: s });
            }
        }
        if let Some(s) = tier.slowdown {
            let dt = sample_exp(
                sim.tiers[t].rng_slowdown.as_mut().expect("slowdown rng"),
                1.0 / s.mean_time_to_slowdown,
            );
            engine.schedule(dt, FabricEvent::SlowdownStart { tier: t });
        }
        if let Some(o) = tier.outage {
            let dt = sample_exp(
                sim.tiers[t].rng_outage.as_mut().expect("outage rng"),
                1.0 / o.mean_time_to_outage,
            );
            engine.schedule(dt, FabricEvent::OutageStart { tier: t });
        }
    }

    engine.run(&mut sim, config.horizon);

    // Servers still busy at the horizon accrue their partial service.
    for t in 0..sim.tiers.len() {
        for s in 0..sim.tiers[t].servers.len() {
            if sim.tiers[t].servers[s].in_service.is_some() {
                let start = sim.tiers[t].servers[s].service_start;
                sim.credit_busy(t, s, start, config.horizon);
            }
        }
    }

    let window = config.horizon - config.warmup;
    let tiers = sim
        .tiers
        .iter()
        .map(|t| TierReport {
            served: t.served,
            mean_wait: if t.served > 0 {
                t.wait_sum / t.served as f64
            } else {
                0.0
            },
            utilization: t.servers.iter().map(|s| s.busy).sum::<f64>()
                / (window * t.servers.len() as f64),
            dropped: t.dropped,
            fast_failed: t.fast_failed,
        })
        .collect();
    let width = config.sla_window.unwrap_or(0.0);
    let windows = sim
        .windows
        .into_iter()
        .enumerate()
        .map(|(k, w)| SlaWindowReport {
            start: config.warmup + k as f64 * width,
            end: (config.warmup + (k + 1) as f64 * width).min(config.horizon),
            arrivals: w.arrivals,
            completed: w.completed,
            timed_out: w.timed_out,
            dropped: w.dropped,
            shed: w.shed,
            fast_failed: w.fast_failed,
            retries: w.retries,
            rtt: w.rtt,
        })
        .collect();
    FabricReport {
        arrivals: sim.arrivals,
        completed: sim.completed,
        lost: sim.lost,
        retries: sim.retries,
        shed: sim.shed,
        timed_out: sim.timed_out,
        rtt: sim.rtt,
        tiers,
        windows,
        events: engine.events_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The positive-rate guard must hold in release builds too (promoted
    /// from `debug_assert!` by the ss-lint L003 audit): a zero rate would
    /// schedule an event at `t = inf` and corrupt the calendar far from
    /// the cause.
    #[test]
    #[should_panic(expected = "positive rate")]
    fn sample_exp_rejects_nonpositive_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        sample_exp(&mut rng, 0.0);
    }

    /// A deliberately poisoned discipline: class `nan_class` reports NaN,
    /// every other class reports its (positive) class id.
    struct NanAt {
        nan_class: usize,
    }

    impl Discipline for NanAt {
        fn name(&self) -> &str {
            "nan-at"
        }

        fn class_index(&self, class: usize, _waiting: usize) -> f64 {
            if class == self.nan_class {
                f64::NAN
            } else {
                1.0 + class as f64
            }
        }
    }

    fn queues_with_heads(n: usize) -> Vec<VecDeque<Request>> {
        (0..n)
            .map(|class| {
                let mut q = VecDeque::new();
                q.push_back(Request {
                    class,
                    id: class as u64,
                    born: 0.0,
                    attempt: 0,
                    // Earlier enqueue at the poisoned class, so a tie-break
                    // in its favour would expose NaN leaking into `best`.
                    enqueued: class as f64,
                });
                q
            })
            .collect()
    }

    /// Fails pre-fix: a NaN index in the *first* nonempty class was
    /// selected unconditionally (while one anywhere else could never win),
    /// so selection depended on class position.  Post-fix a NaN clamps to
    /// `-∞` and a real-indexed class wins wherever the NaN sits.
    #[test]
    fn nan_index_never_outranks_a_real_index_regardless_of_position() {
        for nan_class in 0..3 {
            let queues = queues_with_heads(3);
            let picked = select_class(&NanAt { nan_class }, &queues)
                .expect("nonempty queues select something");
            assert_ne!(
                picked, nan_class,
                "NaN at class {nan_class} was selected over finite indices"
            );
            // Highest finite index wins: class 2 (index 3.0) unless it is
            // the poisoned one, then class 1 (index 2.0).
            let expect = if nan_class == 2 { 1 } else { 2 };
            assert_eq!(picked, expect, "NaN at class {nan_class}");
        }
    }

    /// With every index NaN the clamp makes them all `-∞`-equal, so the
    /// earliest head-of-line arrival wins — deterministic, position-free.
    #[test]
    fn all_nan_indices_fall_back_to_fifo_order() {
        struct AllNan;
        impl Discipline for AllNan {
            fn name(&self) -> &str {
                "all-nan"
            }
            fn class_index(&self, _class: usize, _waiting: usize) -> f64 {
                f64::NAN
            }
        }
        let mut queues = queues_with_heads(3);
        queues[1].front_mut().expect("head").enqueued = -1.0;
        assert_eq!(select_class(&AllNan, &queues), Some(1));
    }
}
