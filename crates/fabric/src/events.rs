//! Event taxonomy of the service-fabric simulator.

/// One client request attempt flowing through the fabric.  `Copy` on
/// purpose: a request is a plain record moved by value between the
/// calendar's events, the tier queues and a server's in-service slot, and
/// exactly one of them holds it at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Request class (index into the scenario's class list).
    pub class: usize,
    /// Unique id in admission order (diagnostics only; never drives logic).
    pub id: u64,
    /// Time the request first arrived at the fabric — retries keep it, so
    /// recorded round-trip times include all backoff and re-service.
    pub born: f64,
    /// Attempt number: 0 for the first try, incremented per retry.
    pub attempt: u32,
    /// Time the request was admitted to its current tier (the tier wait is
    /// measured from here to service start, and is zero for a request that
    /// found its server idle).
    pub enqueued: f64,
}

/// Calendar payload of the fabric simulation.
#[derive(Debug, Clone)]
pub enum FabricEvent {
    /// The next arrival of `class` is due.  `epoch` guards against stale
    /// events after an MMPP phase switch: the switch reschedules the next
    /// arrival at the new rate and bumps the class's arrival epoch, so the
    /// superseded event is ignored when it fires.
    NextArrival { class: usize, epoch: u64 },
    /// The modulating phase of `class`'s MMPP advances.
    PhaseSwitch { class: usize },
    /// `req` arrives at tier `tier` (forward path): once admitted, it
    /// starts service on an idle server or waits in a queue of the tier.
    /// A backed-off client retry re-enters at tier 0.
    ArriveAtTier { tier: usize, req: Request },
    /// The request in service at `(tier, server)` completes — unless
    /// `epoch` no longer matches the server's epoch, in which case the
    /// service was aborted by a failure and the event is stale.
    Complete {
        tier: usize,
        server: usize,
        epoch: u64,
    },
    /// Server `(tier, server)` fails.
    Fail { tier: usize, server: usize },
    /// Server `(tier, server)` comes back up.
    Recover { tier: usize, server: usize },
    /// The response for `req` reaches tier `tier` on the way back to the
    /// client; at tier 0 the round trip completes.
    ReturnHop { tier: usize, req: Request },
    /// A tier-wide slowdown epoch begins at `tier`: service times sampled
    /// while degraded are stretched by the tier's configured multiplier.
    SlowdownStart { tier: usize },
    /// The slowdown epoch at `tier` ends.
    SlowdownEnd { tier: usize },
    /// The open period `generation` of `tier`'s circuit breaker elapsed;
    /// the breaker transitions to half-open unless it has tripped again
    /// since (stale generation — ignored, like a stale `Complete`).
    BreakerHalfOpen { tier: usize, generation: u64 },
}
