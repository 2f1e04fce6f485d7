//! Independent-replication runners.
//!
//! Every heuristic-vs-optimal comparison in the experiment harness is a
//! Monte-Carlo estimate over independent replications.  The runners here
//! take a closure `f(replication_index, &mut rng) -> f64`, give each
//! replication its own reproducible RNG stream, and return summary
//! statistics.  The parallel runner fans replications out over the
//! workspace thread pool (chunked self-scheduling over the replication
//! indices; see [`crate::pool`]); because each replication owns its stream
//! and results are collected in replication order, parallel and serial runs
//! produce identical per-replication values and therefore identical
//! summaries — for any thread count.

use crate::rng::RngStreams;
use crate::stats::OnlineStats;
use rand_chacha::ChaCha8Rng;

/// Summary of a set of independent replications.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// Per-replication outputs in replication order.
    pub values: Vec<f64>,
    /// Mean over replications.
    pub mean: f64,
    /// Unbiased standard deviation over replications.
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval for the mean.
    pub ci95: f64,
}

impl ReplicationSummary {
    fn from_values(values: Vec<f64>) -> Self {
        let mut stats = OnlineStats::new();
        for &v in &values {
            stats.push(v);
        }
        Self {
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            ci95: stats.ci_half_width(0.95),
            values,
        }
    }
}

/// Run `n` replications serially.
///
/// # Panics
///
/// Panics if `n == 0` — a summary of zero replications has no mean.  All
/// replication runners share this contract.
pub fn run_replications<F>(n: usize, seed: u64, mut f: F) -> ReplicationSummary
where
    F: FnMut(usize, &mut ChaCha8Rng) -> f64,
{
    assert!(n > 0, "need at least one replication");
    let streams = RngStreams::new(seed);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = streams.stream(i as u64);
        values.push(f(i, &mut rng));
    }
    ReplicationSummary::from_values(values)
}

/// Run `n` replications in parallel on the workspace thread pool.
///
/// The closure must be `Sync` because it is shared across worker threads;
/// all mutable state must live inside the closure invocation.  Results are
/// bit-for-bit identical to [`run_replications`] regardless of the thread
/// count (see [`crate::pool`] for the determinism contract and the
/// `SS_THREADS` override).
///
/// # Panics
///
/// Panics if `n == 0` — a summary of zero replications has no mean.  All
/// replication runners share this contract.
pub fn run_replications_parallel<F>(n: usize, seed: u64, f: F) -> ReplicationSummary
where
    F: Fn(usize, &mut ChaCha8Rng) -> f64 + Sync,
{
    assert!(n > 0, "need at least one replication");
    let streams = RngStreams::new(seed);
    ReplicationSummary::from_values(crate::pool::parallel_indexed(n, |i| {
        let mut rng = streams.stream(i as u64);
        f(i, &mut rng)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let f = |_i: usize, rng: &mut ChaCha8Rng| -> f64 {
            (0..100).map(|_| rng.gen::<f64>()).sum::<f64>()
        };
        let serial = run_replications(64, 42, f);
        let parallel = run_replications_parallel(64, 42, f);
        assert_eq!(serial.values, parallel.values);
        assert!((serial.mean - parallel.mean).abs() < 1e-12);
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let summary = run_replications(200, 7, |i, _rng| i as f64);
        assert!((summary.mean - 99.5).abs() < 1e-9);
        assert!(summary.ci95 > 0.0);
        assert_eq!(summary.values.len(), 200);
    }

    #[test]
    fn estimates_uniform_mean() {
        let summary = run_replications_parallel(500, 11, |_i, rng| rng.gen::<f64>());
        assert!((summary.mean - 0.5).abs() < 0.05);
        assert!(summary.ci95 / summary.mean < 0.2);
    }

    #[test]
    fn different_seeds_give_different_estimates() {
        let a = run_replications(20, 1, |_i, rng| rng.gen::<f64>());
        let b = run_replications(20, 2, |_i, rng| rng.gen::<f64>());
        assert_ne!(a.values, b.values);
    }

    #[test]
    fn parallel_agrees_with_serial_for_every_thread_count() {
        let f = |i: usize, rng: &mut ChaCha8Rng| -> f64 {
            (0..50).map(|_| rng.gen::<f64>()).sum::<f64>() + i as f64
        };
        let serial = run_replications(97, 5, f);
        for threads in [1usize, 2, 4, 16] {
            let parallel =
                crate::pool::with_threads(threads, || run_replications_parallel(97, 5, f));
            assert_eq!(
                serial.values, parallel.values,
                "diverged at {threads} threads"
            );
            assert_eq!(serial.mean.to_bits(), parallel.mean.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "need at least one replication")]
    fn serial_rejects_zero_replications() {
        run_replications(0, 1, |_i, _rng| 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one replication")]
    fn parallel_rejects_zero_replications() {
        run_replications_parallel(0, 1, |_i, _rng| 0.0);
    }

    #[test]
    fn panic_in_replication_propagates() {
        let result = std::panic::catch_unwind(|| {
            crate::pool::with_threads(4, || {
                run_replications_parallel(100, 1, |i, _rng| {
                    assert!(i != 37, "replication 37 exploded");
                    0.0
                })
            })
        });
        assert!(result.is_err());
    }
}
