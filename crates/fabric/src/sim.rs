//! The fabric simulator: a model that owns its calendar and event loop,
//! plus the replication entry point [`run_fabric`].
//!
//! ## Determinism
//!
//! One replication owns one [`RngStreams`] factory (seeded from the
//! caller-supplied `seed`), and every stochastic ingredient draws from its
//! own substream family so the sampled processes are independent and the
//! schedule of draws is a pure function of the seed:
//!
//! | family | keyed by | drives | drawn ahead |
//! |---|---|---|---|
//! | `ARRIVAL_FAMILY` | class | interarrival times | yes |
//! | `PHASE_FAMILY` | class | MMPP phase sojourns | yes |
//! | `SERVICE_FAMILY` | `tier · 2^16 + server` | service times | when every class of the tier is exponential |
//! | `LB_FAMILY` | tier | weighted load-balancer draws | no |
//! | `FAIL_FAMILY` | `tier · 2^16 + server` | failure/repair cycles | yes |
//! | `RETRY_FAMILY` | class | backoff jitter | no |
//! | `SLOWDOWN_FAMILY` | tier | slowdown-epoch onsets/durations | yes |
//! | `PROBE_FAMILY` | tier | circuit-breaker open-period jitter | no |
//!
//! A stream drawn ahead serves nothing but exponential draws, one uniform
//! each, in order, so it is an [`ExpStream`]: it takes its unit
//! exponentials 32 at a time, and `draw() / rate` has the bits of the
//! one-at-a-time `-(1.0 - u).ln() / rate`. The streams marked "no" draw
//! plain uniforms. A service stream draws ahead only when every class of
//! its tier reports `exponential_rate()`; otherwise (as in
//! `gittins-mixed-scv`) each service time goes through its law's `sample`.
//!
//! A key `a · 2^16 + b` is unique only while `b < 2^16`, so
//! `FabricConfig::validate` caps a tier at 2^16 servers, and
//! [`replication_seed`], which keys cells as `scenario · 2^16 + rep`, caps
//! `rep` at 2^16 − 1.
//!
//! The resilience features (deadlines, breakers, shedding) consume no
//! randomness at all except the breaker's open-period jitter, and the
//! slowdown epochs draw only from their own family — so switching any of
//! them on cannot perturb the arrival or service processes of an
//! otherwise-identical scenario.
//!
//! Ties on the calendar resolve in schedule order (the contract of
//! `ss_sim::events::EventQueue`: time order, equal times first scheduled
//! first served), and every same-index decision (load balancing,
//! discipline selection) breaks ties by the lowest id / earliest enqueue,
//! so a replication is bit-for-bit reproducible and independent of how
//! many replications run concurrently elsewhere.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use ss_core::discipline::Discipline;
use ss_distributions::DynDist;
use ss_sim::events::EventQueue;
use ss_sim::rng::{ExpStream, RngStreams};
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
const PROBE_FAMILY: u64 = 0x4641_0009;

/// The per-replication simulation seed of `(scenario, rep)` under the
/// shared scheme used by the `fabric` binary and the determinism tests.
///
/// # Panics
///
/// If `rep >= 2^16`: the key `scenario_id · 2^16 + rep` would then equal
/// that of a replication of scenario `scenario_id + 1`.
pub fn replication_seed(streams: &RngStreams, scenario_id: u64, rep: u64) -> u64 {
    assert!(
        rep < 1 << 16,
        "replication {rep} is out of range: stream keys hold 2^16 replications per scenario"
    );
    streams
        .substream(FABRIC_SIM_STREAM, scenario_id * 0x1_0000 + rep)
        .gen::<u64>()
}

/// An exponential with the given rate: bit for bit
/// `-(1.0 - u).ln() / rate` for the stream's next uniform `u`.
fn sample_exp(draws: &mut ExpStream, rate: f64) -> f64 {
    // Release-mode check (ss-lint L003): a zero/negative/NaN rate would
    // silently produce inf/NaN event times in release and corrupt the
    // calendar far from the cause.
    assert!(
        rate > 0.0,
        "sample_exp requires a positive rate, got {rate}"
    );
    draws.draw() / rate
}

/// A server's service-time stream.
// One per server for the whole run, and the large variant is the one
// every draw of an exponential tier reads: boxing it would add a pointer
// chase to each service time to save a few hundred bytes per server.
#[allow(clippy::large_enum_variant)]
enum ServiceStream {
    /// Every class of the tier reports an exponential rate: unit
    /// exponentials drawn ahead, each divided by its class's rate, which
    /// gives the bits `Exponential::sample` would.
    Exponential { draws: ExpStream, rates: Vec<f64> },
    /// Some class has another law: each draw goes through its `sample`.
    General(ChaCha8Rng),
}

impl ServiceStream {
    /// The stream of a server whose tier serves class `j` with law
    /// `service[j]`.
    fn new(rng: ChaCha8Rng, service: &[DynDist]) -> Self {
        match service.iter().map(|law| law.exponential_rate()).collect() {
            Some(rates) => Self::Exponential {
                draws: ExpStream::new(rng),
                rates,
            },
            None => Self::General(rng),
        }
    }

    /// The service time of the next request of `class`.
    fn sample(&mut self, service: &[DynDist], class: usize) -> f64 {
        match self {
            Self::Exponential { draws, rates } => draws.draw() / rates[class],
            Self::General(rng) => service[class].sample(rng),
        }
    }
}

struct ClassState {
    arrival_epoch: u64,
    phase: usize,
    rng_arrival: ExpStream,
    rng_phase: ExpStream,
    rng_retry: ChaCha8Rng,
}

struct Server {
    up: bool,
    /// Bumped on every failure; `Complete` events carry the epoch they
    /// were scheduled under, so completions of aborted services are
    /// recognised as stale and ignored.
    epoch: u64,
    queues: Vec<VecDeque<Request>>,
    /// Total waiting requests across classes (excludes the one in service).
    queued: usize,
    in_service: Option<Request>,
    service_start: f64,
    /// Post-warmup busy time.
    busy: f64,
    rng_service: ServiceStream,
    rng_fail: ExpStream,
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
    breaker: Option<CircuitBreaker>,
    rng_probe: Option<ChaCha8Rng>,
    /// A tier-wide slowdown epoch is in force.
    degraded: bool,
    slowdown_epochs: u64,
    rng_slowdown: Option<ExpStream>,
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

/// Join the shortest queue over a tier's servers, given as `(up,
/// occupancy)` in id order: the up server with the fewest requests queued
/// or in service, the lowest id on ties (ascending scan + strict `<`), or
/// `None` when every server is down.  A plain loop, because it runs on
/// every arrival at a JSQ tier and a `min_by_key` fold did not inline.
fn jsq_pick(servers: impl Iterator<Item = (bool, usize)>) -> Option<usize> {
    let mut best = None;
    let mut best_occupancy = 0;
    for (i, (up, occupancy)) in servers.enumerate() {
        if up && (best.is_none() || occupancy < best_occupancy) {
            best = Some(i);
            best_occupancy = occupancy;
        }
    }
    best
}

/// Wide geometric sketch: 1.35% relative bucket width over [1e-3, 1e3], so
/// P50/P95/P99 stay meaningful even with long retry/backoff tails.
fn rtt_sketch() -> QuantileSketch {
    QuantileSketch::new(1e-3, 1e3, 1024)
}

/// The outcome counters of one span of the run (see [`FabricSim::row`]).
/// Each outcome increments one counter, in the row of the instant it
/// happens, so run totals are sums over the post-warmup rows and the SLA
/// windows, which are those rows, add up to them by construction.
#[derive(Default)]
struct Row {
    arrivals: u64,
    completed: u64,
    retries: u64,
    lost: u64,
    shed: u64,
    timed_out: u64,
    /// Per tier.
    dropped: Vec<u64>,
    /// Per tier.
    fast_failed: Vec<u64>,
    /// Round-trip times of the trips finished in the span; only SLA-window
    /// rows keep one.
    rtt: Option<QuantileSketch>,
}

struct FabricSim<'a> {
    cfg: &'a FabricConfig,
    /// The calendar; every handler schedules its follow-up events here.
    queue: EventQueue<FabricEvent>,
    tiers: Vec<Tier>,
    classes: Vec<ClassState>,
    shedder: Option<TokenBucket>,
    next_id: u64,
    /// Every post-warmup trip.  Merging the window sketches instead would
    /// sum `rtt_mean` in another order and change its bits.
    rtt: QuantileSketch,
    rows: Vec<Row>,
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
                rng_arrival: ExpStream::new(streams.substream(ARRIVAL_FAMILY, j as u64)),
                rng_phase: ExpStream::new(streams.substream(PHASE_FAMILY, j as u64)),
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
                        rng_service: ServiceStream::new(
                            streams.substream(SERVICE_FAMILY, (t as u64) * 0x1_0000 + s as u64),
                            &tier.service,
                        ),
                        rng_fail: ExpStream::new(
                            streams.substream(FAIL_FAMILY, (t as u64) * 0x1_0000 + s as u64),
                        ),
                    })
                    .collect(),
                discipline: Arc::clone(&disciplines[t]),
                rr_next: 0,
                rng_lb: streams.substream(LB_FAMILY, t as u64),
                shared_queues: vec![VecDeque::new(); cfg.classes.len()],
                shared_queued: 0,
                served: 0,
                wait_sum: 0.0,
                breaker: tier.breaker.map(|b| CircuitBreaker::new(b, t)),
                rng_probe: tier
                    .breaker
                    .map(|_| streams.substream(PROBE_FAMILY, t as u64)),
                degraded: false,
                slowdown_epochs: 0,
                rng_slowdown: tier
                    .slowdown
                    .map(|_| ExpStream::new(streams.substream(SLOWDOWN_FAMILY, t as u64))),
            })
            .collect();
        let rows = (0..=cfg.spans())
            .map(|k| Row {
                dropped: vec![0; cfg.tiers.len()],
                fast_failed: vec![0; cfg.tiers.len()],
                rtt: (k > 0 && cfg.sla_window.is_some()).then(rtt_sketch),
                ..Row::default()
            })
            .collect();
        Self {
            cfg,
            queue: EventQueue::new(),
            tiers,
            classes,
            shedder: cfg.shedder.map(TokenBucket::new),
            next_id: 0,
            rtt: rtt_sketch(),
            rows,
        }
    }

    fn arrival_rate(&self, class: usize) -> f64 {
        match &self.cfg.classes[class].arrivals {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Mmpp { rates, .. } => rates[self.classes[class].phase],
        }
    }

    fn schedule_next_arrival(&mut self, class: usize, now: f64) {
        let rate = self.arrival_rate(class);
        let dt = sample_exp(&mut self.classes[class].rng_arrival, rate);
        let epoch = self.classes[class].arrival_epoch;
        self.queue
            .schedule(now + dt, FabricEvent::NextArrival { class, epoch });
    }

    /// The row of instant `t`: row 0 is the warmup `[0, warmup]`, and rows
    /// 1.. tile `(warmup, horizon]`, one per SLA window, or one in all when
    /// `sla_window` is unset.  No other code knows where the spans begin.
    fn row(&self, t: f64) -> usize {
        if t <= self.cfg.warmup {
            return 0;
        }
        self.cfg.sla_window.map_or(1, |width| {
            1 + (((t - self.cfg.warmup) / width) as usize).min(self.rows.len() - 2)
        })
    }

    /// The counters of the span containing `t`.
    fn counts(&mut self, t: f64) -> &mut Row {
        let k = self.row(t);
        &mut self.rows[k]
    }

    /// `f` summed over the post-warmup rows.
    fn total(&self, f: impl Fn(&Row) -> u64) -> u64 {
        self.rows[1..].iter().map(f).sum()
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

    /// Admit `req` to `tier` or reject it — in admission order: deadline
    /// renege, front-tier shedder, circuit breaker — then hand it to its
    /// target server: the lowest-id idle up server under
    /// [`LbPolicy::CentralQueue`], else the load balancer's pick.  An idle
    /// target starts serving it at once; otherwise it waits in the target's
    /// queue bank (the tier's shared bank under `CentralQueue`), or is
    /// dropped when that bank is full or every server is down.  So a
    /// request takes a queue place only when it must wait, and
    /// `queue_capacity: Some(0)` makes the tier a loss system.
    fn enqueue_at_tier(&mut self, tier: usize, mut req: Request, now: f64) {
        // Client-side renege: an already-expired request never enters the
        // tier (and burns no shedder token).  Not the tier's fault — the
        // breaker is not charged.
        if self.cfg.deadlines.as_ref().is_some_and(|d| d.renege) && self.expired(&req, now) {
            self.time_out_request(None, req, now);
            return;
        }
        if tier == 0 {
            if let Some(bucket) = self.shedder.as_mut() {
                if !bucket.try_admit(now) {
                    self.shed_request(req, now);
                    return;
                }
            }
        }
        if let Some(br) = self.tiers[tier].breaker.as_mut() {
            if !br.admit() {
                self.fast_fail(tier, req, now);
                return;
            }
        }
        let picked = if matches!(self.cfg.tiers[tier].lb, LbPolicy::CentralQueue) {
            None
        } else {
            let Some(server) = self.pick_server(tier) else {
                // Every server of the tier is down.
                self.drop_request(tier, req, now);
                return;
            };
            Some(server)
        };
        req.enqueued = now;
        let t = &mut self.tiers[tier];
        let (idle, queues, queued) = match picked {
            None => (
                t.servers
                    .iter()
                    .position(|s| s.up && s.in_service.is_none()),
                &mut t.shared_queues,
                &mut t.shared_queued,
            ),
            // `pick_server` returns only up servers.
            Some(server) => {
                let s = &mut t.servers[server];
                (
                    s.in_service.is_none().then_some(server),
                    &mut s.queues,
                    &mut s.queued,
                )
            }
        };
        if let Some(server) = idle {
            // Release-mode check: a request joins a bank only when no server
            // of that bank is up and idle, and after each completion and
            // repair `try_start` serves from the bank until the server is
            // busy or the bank is empty.  So the bank is empty here, and the
            // arrival is the only request `select_class` could have picked;
            // one left waiting would be overtaken.
            assert!(
                *queued == 0,
                "tier {tier}: server {server} is up and idle while {} {queued} waiting requests",
                if picked.is_some() {
                    "its own queues hold"
                } else {
                    "the tier's shared queue holds"
                }
            );
            self.start_service(tier, server, req, now);
            return;
        }
        if self.cfg.tiers[tier]
            .queue_capacity
            .is_some_and(|cap| *queued >= cap)
        {
            self.drop_request(tier, req, now);
            return;
        }
        queues[req.class].push_back(req);
        *queued += 1;
    }

    /// The load-balancer decision: an up server of `tier`, or `None` when
    /// the whole tier is down.
    fn pick_server(&mut self, tier: usize) -> Option<usize> {
        let t = &mut self.tiers[tier];
        let n = t.servers.len();
        match &self.cfg.tiers[tier].lb {
            LbPolicy::JoinShortestQueue => {
                jsq_pick(t.servers.iter().map(|s| (s.up, s.occupancy())))
            }
            _ if !t.servers.iter().any(|s| s.up) => None,
            LbPolicy::RoundRobin => {
                for k in 0..n {
                    let cand = (t.rr_next + k) % n;
                    if t.servers[cand].up {
                        t.rr_next = (cand + 1) % n;
                        return Some(cand);
                    }
                }
                unreachable!("an up server exists");
            }
            LbPolicy::Weighted(weights) => {
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
    /// service.  Runs when a server frees up (`Complete`) or comes back
    /// (`Recover`); an arrival that finds its server idle never queues, so
    /// it goes to [`Self::start_service`] directly.
    fn try_start(&mut self, tier: usize, server: usize, now: f64) {
        let central = matches!(self.cfg.tiers[tier].lb, LbPolicy::CentralQueue);
        let renege = self.cfg.deadlines.as_ref().is_some_and(|d| d.renege);
        loop {
            let t = &mut self.tiers[tier];
            if !t.servers[server].up || t.servers[server].in_service.is_some() {
                return;
            }
            let (queues, queued) = if central {
                (&mut t.shared_queues, &mut t.shared_queued)
            } else {
                let s = &mut t.servers[server];
                (&mut s.queues, &mut s.queued)
            };
            if *queued == 0 {
                return;
            }
            let class = select_class(t.discipline.as_ref(), queues)
                .expect("a nonzero count implies a nonempty class queue");
            *queued -= 1;
            let req = queues[class].pop_front().expect("chosen queue is nonempty");
            if renege && self.expired(&req, now) {
                // It waited past its deadline in this tier's queue: the
                // client is gone.  Charge the tier's breaker and look for
                // the next live request.
                self.time_out_request(Some(tier), req, now);
                continue;
            }
            self.start_service(tier, server, req, now);
            return;
        }
    }

    /// Start serving `req` on the up, idle `(tier, server)` at `now`: count
    /// its wait in the tier (zero for a request that never queued), draw its
    /// service time from the server's stream, stretched while the tier is
    /// degraded, and schedule its `Complete`.  Every service starts here,
    /// from [`Self::try_start`] or from an arrival's hand-off in
    /// [`Self::enqueue_at_tier`].
    fn start_service(&mut self, tier: usize, server: usize, req: Request, now: f64) {
        let after_warmup = self.row(now) > 0;
        let t = &mut self.tiers[tier];
        if after_warmup {
            t.served += 1;
            t.wait_sum += now - req.enqueued;
        }
        let degraded = t.degraded;
        let s = &mut t.servers[server];
        let mut service = s
            .rng_service
            .sample(&self.cfg.tiers[tier].service, req.class);
        if degraded {
            let m = self.cfg.tiers[tier]
                .slowdown
                .expect("degraded tier has a slowdown config")
                .rate_multiplier;
            service /= m;
        }
        s.in_service = Some(req);
        s.service_start = now;
        let epoch = s.epoch;
        self.queue.schedule(
            now + service,
            FabricEvent::Complete {
                tier,
                server,
                epoch,
            },
        );
    }

    /// Common client reaction to any rejection: schedule a backed-off
    /// retry while the attempt budget lasts, else give the request up.
    fn retry_or_lose(&mut self, req: Request, now: f64) {
        if req.attempt < self.cfg.retry.max_retries {
            let attempt = req.attempt + 1;
            let jitter = 0.5 + self.classes[req.class].rng_retry.gen::<f64>();
            let backoff = self.cfg.retry.backoff(attempt, jitter);
            self.counts(now).retries += 1;
            self.queue.schedule(
                now + backoff,
                FabricEvent::ArriveAtTier {
                    tier: 0,
                    req: Request { attempt, ..req },
                },
            );
        } else {
            self.counts(now).lost += 1;
        }
    }

    /// Account a drop at `tier` (queue overflow, dead tier, aborted
    /// service) and run the client retry path.
    fn drop_request(&mut self, tier: usize, req: Request, now: f64) {
        self.counts(now).dropped[tier] += 1;
        self.breaker_outcome(tier, true, now);
        self.retry_or_lose(req, now);
    }

    /// The breaker at `tier` rejected the arrival without touching a queue.
    fn fast_fail(&mut self, tier: usize, req: Request, now: f64) {
        self.counts(now).fast_failed[tier] += 1;
        self.retry_or_lose(req, now);
    }

    /// The front-tier token bucket rejected the arrival.
    fn shed_request(&mut self, req: Request, now: f64) {
        self.counts(now).shed += 1;
        self.retry_or_lose(req, now);
    }

    /// `req` outlived its deadline.  `breaker_tier` charges the tier whose
    /// queue the request expired in (reneges); client-side detections
    /// (admission-time renege, discarded completion) charge nobody here —
    /// the serving tier already recorded the past-deadline completion.
    fn time_out_request(&mut self, breaker_tier: Option<usize>, req: Request, now: f64) {
        self.counts(now).timed_out += 1;
        if let Some(tier) = breaker_tier {
            self.breaker_outcome(tier, true, now);
        }
        self.retry_or_lose(req, now);
    }

    /// Feed one request outcome to `tier`'s breaker (if any); on a trip,
    /// schedule the half-open timer at the jittered open period.
    fn breaker_outcome(&mut self, tier: usize, failure: bool, now: f64) {
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
        self.queue.schedule(
            now + open * jitter,
            FabricEvent::BreakerHalfOpen { tier, generation },
        );
    }

    /// Apply one event at `time`.
    ///
    /// Kept out of line on purpose.  With one call site, LLVM otherwise
    /// inlines it into the loop of [`run_fabric_with`], and perfbench then
    /// measured `fabric-faults` `wall_s` 6.6% higher, slower in 6 of 6
    /// alternating pairs of 8 s runs (2-vCPU x86-64 host).
    #[inline(never)]
    fn handle(&mut self, time: f64, event: FabricEvent) {
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
                self.counts(time).arrivals += 1;
                self.enqueue_at_tier(0, req, time);
                self.schedule_next_arrival(class, time);
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
                self.schedule_next_arrival(class, time);
                let dt = sample_exp(&mut self.classes[class].rng_phase, switch_rate);
                self.queue
                    .schedule(time + dt, FabricEvent::PhaseSwitch { class });
            }
            FabricEvent::ArriveAtTier { tier, req } => {
                self.enqueue_at_tier(tier, req, time);
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
                self.breaker_outcome(tier, missed, time);
                if tier + 1 < self.tiers.len() {
                    self.queue.schedule(
                        time + self.cfg.tiers[tier].hop_delay,
                        FabricEvent::ArriveAtTier {
                            tier: tier + 1,
                            req,
                        },
                    );
                } else {
                    // Service chain done: route the response back.
                    self.queue
                        .schedule(time, FabricEvent::ReturnHop { tier, req });
                }
                self.try_start(tier, server, time);
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
                self.queue
                    .schedule(time + dt, FabricEvent::Recover { tier, server });
                if let Some(req) = aborted {
                    self.credit_busy(tier, server, start, time);
                    self.drop_request(tier, req, time);
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
                self.queue
                    .schedule(time + dt, FabricEvent::Fail { tier, server });
                self.try_start(tier, server, time);
            }
            FabricEvent::ReturnHop { tier: 0, req } => {
                let row = self.row(time);
                // Every finished trip lands in the sketches — a collapsed
                // window must show its honest P99.
                if row > 0 {
                    self.rtt.record(time - req.born);
                }
                if let Some(rtt) = self.rows[row].rtt.as_mut() {
                    rtt.record(time - req.born);
                }
                if self.expired(&req, time) {
                    // Finished past deadline: the client already gave up,
                    // the completion is discarded.
                    self.time_out_request(None, req, time);
                } else {
                    self.rows[row].completed += 1;
                }
            }
            FabricEvent::ReturnHop { tier, req } => {
                self.queue.schedule(
                    time + self.cfg.tiers[tier - 1].hop_delay,
                    FabricEvent::ReturnHop {
                        tier: tier - 1,
                        req,
                    },
                );
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
                self.queue
                    .schedule(time + dt, FabricEvent::SlowdownEnd { tier });
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
                    self.queue
                        .schedule(time + dt, FabricEvent::SlowdownStart { tier });
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

    for class in 0..config.classes.len() {
        let rate = sim.arrival_rate(class);
        let dt = sample_exp(&mut sim.classes[class].rng_arrival, rate);
        sim.queue
            .schedule(dt, FabricEvent::NextArrival { class, epoch: 0 });
        if let ArrivalProcess::Mmpp { switch_rate, .. } = config.classes[class].arrivals {
            let dt = sample_exp(&mut sim.classes[class].rng_phase, switch_rate);
            sim.queue.schedule(dt, FabricEvent::PhaseSwitch { class });
        }
    }
    for (t, tier) in config.tiers.iter().enumerate() {
        if let Some(f) = tier.failure {
            for s in 0..tier.servers {
                let dt = sample_exp(
                    &mut sim.tiers[t].servers[s].rng_fail,
                    1.0 / f.mean_time_to_failure,
                );
                sim.queue
                    .schedule(dt, FabricEvent::Fail { tier: t, server: s });
            }
        }
        if let Some(s) = tier.slowdown {
            let dt = sample_exp(
                sim.tiers[t].rng_slowdown.as_mut().expect("slowdown rng"),
                1.0 / s.mean_time_to_slowdown,
            );
            sim.queue
                .schedule(dt, FabricEvent::SlowdownStart { tier: t });
        }
    }

    // Events past the horizon stay on the calendar, unprocessed.
    let mut clock = 0.0;
    let mut events = 0;
    while let Some((time, event)) = sim.queue.pop_at_or_before(config.horizon) {
        // Release-mode check: an event scheduled in the past is a model bug,
        // and a clock that runs backwards corrupts every busy-time credit
        // and span row after it.
        assert!(
            time + 1e-12 >= clock,
            "event time {time} precedes the clock {clock}: an event was scheduled in the past"
        );
        clock = time;
        sim.handle(time, event);
        events += 1;
    }

    // Servers still busy at the horizon accrue their partial service.
    for t in 0..sim.tiers.len() {
        for s in 0..sim.tiers[t].servers.len() {
            if sim.tiers[t].servers[s].in_service.is_some() {
                let start = sim.tiers[t].servers[s].service_start;
                sim.credit_busy(t, s, start, config.horizon);
            }
        }
    }

    for (k, r) in sim.rows.iter().enumerate() {
        // Each rejection runs `retry_or_lose` once, at its own instant, and
        // that counts one retry or one loss in the rejection's row.
        let rejections = r.dropped.iter().sum::<u64>()
            + r.fast_failed.iter().sum::<u64>()
            + r.shed
            + r.timed_out;
        assert!(
            r.retries + r.lost == rejections,
            "row {k}: retries + lost must equal rejections"
        );
    }
    let window = config.horizon - config.warmup;
    let tiers = sim
        .tiers
        .iter()
        .enumerate()
        .map(|(i, t)| TierReport {
            served: t.served,
            mean_wait: if t.served > 0 {
                t.wait_sum / t.served as f64
            } else {
                0.0
            },
            utilization: t.servers.iter().map(|s| s.busy).sum::<f64>()
                / (window * t.servers.len() as f64),
            dropped: sim.total(|r| r.dropped[i]),
            fast_failed: sim.total(|r| r.fast_failed[i]),
        })
        .collect();
    // The window rows are exactly the rows that keep a sketch.
    let width = config.sla_window.unwrap_or(0.0);
    let windows = sim.rows[1..]
        .iter_mut()
        .enumerate()
        .filter_map(|(k, r)| {
            Some(SlaWindowReport {
                start: config.warmup + k as f64 * width,
                end: (config.warmup + (k + 1) as f64 * width).min(config.horizon),
                arrivals: r.arrivals,
                completed: r.completed,
                timed_out: r.timed_out,
                dropped: r.dropped.iter().sum(),
                shed: r.shed,
                fast_failed: r.fast_failed.iter().sum(),
                rtt: r.rtt.take()?,
            })
        })
        .collect();
    FabricReport {
        arrivals: sim.total(|r| r.arrivals),
        completed: sim.total(|r| r.completed),
        lost: sim.total(|r| r.lost),
        retries: sim.total(|r| r.retries),
        shed: sim.total(|r| r.shed),
        timed_out: sim.total(|r| r.timed_out),
        rtt: sim.rtt,
        tiers,
        windows,
        events,
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
        let mut draws = ExpStream::new(ChaCha8Rng::seed_from_u64(7));
        sample_exp(&mut draws, 0.0);
    }

    /// A server draws service times ahead only when every class of its
    /// tier is exponential: in the suite, `mm3-fifo-baseline` and both
    /// tiers of `two-tier-rtt` do, and `gittins-mixed-scv`, whose classes
    /// are hyperexponential and Erlang, does not. A mixed-law tier added
    /// later cannot be batched by accident.
    #[test]
    fn only_all_exponential_tiers_draw_service_times_ahead() {
        let configs = crate::scenarios::scenario_list(&crate::scenarios::Budget::check());
        let draws_ahead = |name: &str| -> Vec<bool> {
            let cfg = configs.iter().find(|c| c.name == name).expect(name);
            let sim = FabricSim::new(cfg, &cfg.build_disciplines(), &RngStreams::new(1));
            sim.tiers
                .iter()
                .map(|t| {
                    let ahead: Vec<bool> = (t.servers.iter())
                        .map(|s| matches!(s.rng_service, ServiceStream::Exponential { .. }))
                        .collect();
                    assert!(ahead.windows(2).all(|w| w[0] == w[1]), "{name}");
                    ahead[0]
                })
                .collect()
        };
        assert_eq!(draws_ahead("mm3-fifo-baseline"), [true]);
        assert_eq!(draws_ahead("two-tier-rtt"), [true, true]);
        assert_eq!(draws_ahead("gittins-mixed-scv"), [false]);
    }

    /// Rep 2^16 of scenario 0 would share its key, and so its seed, with
    /// rep 0 of scenario 1.
    #[test]
    #[should_panic(expected = "replication 65536 is out of range")]
    fn replication_seed_rejects_a_rep_that_collides_with_the_next_scenario() {
        replication_seed(&RngStreams::new(1), 0, 1 << 16);
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

    /// `jsq_pick` agrees with the minimum of `(occupancy, id)` over the up
    /// servers on seeded random tiers of 1–8 servers.  Occupancies come
    /// from 0..3, so most tiers of several servers have ties; a quarter of
    /// the tiers have every server up, and in the rest each server is down
    /// with probability 0.3, so a few percent have every server down.
    #[test]
    fn jsq_pick_is_the_lowest_id_among_the_least_occupied_up_servers() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (mut all_down, mut ties) = (0, 0);
        for _ in 0..20_000 {
            let n = rng.gen_range(1..=8);
            let all_up = rng.gen::<f64>() < 0.25;
            let servers: Vec<(bool, usize)> = (0..n)
                .map(|_| (all_up || rng.gen::<f64>() < 0.7, rng.gen_range(0..3)))
                .collect();
            let reference = servers
                .iter()
                .enumerate()
                .filter(|(_, (up, _))| *up)
                .min_by_key(|(i, (_, occupancy))| (*occupancy, *i))
                .map(|(i, _)| i);
            assert_eq!(jsq_pick(servers.iter().copied()), reference, "{servers:?}");
            match reference {
                None => all_down += 1,
                Some(i) => {
                    ties += usize::from(servers[i + 1..].iter().any(|&s| s == servers[i]));
                }
            }
        }
        assert!(
            all_down > 100 && ties > 1_000,
            "{all_down} all down, {ties} ties"
        );
    }
}
