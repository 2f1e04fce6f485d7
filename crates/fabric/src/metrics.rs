//! Per-run fabric metrics and their deterministic report rendering.

use ss_sim::stats::QuantileSketch;

/// Counters and waits of one tier, over the post-warmup window.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// Services started after warmup.
    pub served: u64,
    /// Mean queueing wait (tier arrival → service start) of those services.
    pub mean_wait: f64,
    /// Fraction of post-warmup server-time spent serving
    /// (busy time / (window × servers)); failed time counts as idle.
    pub utilization: f64,
    /// Post-warmup drops at this tier: queue overflows, arrivals while no
    /// server was up, and services aborted by a failure or outage.
    pub dropped: u64,
    /// Post-warmup arrivals fast-failed by the tier's circuit breaker
    /// (while open, or half-open past the probe budget).
    pub fast_failed: u64,
}

/// One SLA sliding window: fixed-width slice of the post-warmup run with
/// its own offered/served counters and RTT sketch.
#[derive(Debug, Clone)]
pub struct SlaWindowReport {
    /// Window bounds `(start, end]` in simulation time.
    pub start: f64,
    pub end: f64,
    /// Fresh requests born in the window (offered load; excludes retries).
    pub arrivals: u64,
    /// Round trips finished in the window within their deadline.
    pub completed: u64,
    /// Timeouts detected in the window (reneges and discarded
    /// past-deadline completions).
    pub timed_out: u64,
    /// Drops in the window, summed over tiers.
    pub dropped: u64,
    /// Arrivals shed by the front-tier token bucket in the window.
    pub shed: u64,
    /// Breaker fast-fails in the window, summed over tiers.
    pub fast_failed: u64,
    /// Round-trip times of every trip finished in the window (including
    /// past-deadline ones, so a collapsed window shows an honest P99).
    pub rtt: QuantileSketch,
}

impl SlaWindowReport {
    /// Fraction of the window's offered load served within deadline;
    /// an empty window reports 0.
    pub fn goodput(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.completed as f64 / self.arrivals as f64
        }
    }
}

/// End-to-end result of one fabric replication.
#[derive(Debug, Clone)]
pub struct FabricReport {
    /// Fresh requests born in the post-warmup window (offered load).
    pub arrivals: u64,
    /// Round trips completed in the post-warmup window (within deadline,
    /// when the scenario configures deadlines).
    pub completed: u64,
    /// Requests abandoned after exhausting their retry budget.
    pub lost: u64,
    /// Retry attempts scheduled (post-warmup).
    pub retries: u64,
    /// Arrivals shed by the front-tier token bucket (post-warmup).
    pub shed: u64,
    /// Timeouts detected (post-warmup): queue reneges plus completions
    /// discarded for finishing past their deadline.  A request that times
    /// out on several attempts counts once per detection.
    pub timed_out: u64,
    /// Deterministic sketch of finished round-trip times (past-deadline
    /// completions included; they finished, they just did not count).
    pub rtt: QuantileSketch,
    pub tiers: Vec<TierReport>,
    /// SLA sliding windows tiling `(warmup, horizon]`; empty unless the
    /// scenario sets `sla_window`.
    pub windows: Vec<SlaWindowReport>,
    /// Calendar events processed (all of them, including warmup).
    pub events: u64,
}

impl FabricReport {
    /// Mean round-trip time of finished requests.
    pub fn rtt_mean(&self) -> f64 {
        self.rtt.mean()
    }

    /// Deterministic report lines (one header line, one per tier, one per
    /// SLA window), stable enough to diff byte-for-byte across thread
    /// counts.
    pub fn report_lines(&self, scenario: &str) -> Vec<String> {
        let mut lines = vec![format!(
            "{scenario}  offered={} completed={} lost={} retries={} shed={} timedout={} \
             rtt_mean={:.6} p50={:.6} p95={:.6} p99={:.6}",
            self.arrivals,
            self.completed,
            self.lost,
            self.retries,
            self.shed,
            self.timed_out,
            self.rtt.mean(),
            self.rtt.quantile(0.50),
            self.rtt.quantile(0.95),
            self.rtt.quantile(0.99),
        )];
        for (t, tier) in self.tiers.iter().enumerate() {
            lines.push(format!(
                "{scenario}  tier{t}: served={} wait={:.6} util={:.4} dropped={} fastfail={}",
                tier.served, tier.mean_wait, tier.utilization, tier.dropped, tier.fast_failed
            ));
        }
        for (k, w) in self.windows.iter().enumerate() {
            lines.push(format!(
                "{scenario}  sla[{k}]: offered={} goodput={:.4} p50={:.6} p99={:.6} \
                 shed={} timedout={} dropped={} fastfail={}",
                w.arrivals,
                w.goodput(),
                w.rtt.quantile(0.50),
                w.rtt.quantile(0.99),
                w.shed,
                w.timed_out,
                w.dropped,
                w.fast_failed,
            ));
        }
        lines
    }
}
