//! Independent-replication runners.
//!
//! Every heuristic-vs-optimal comparison in the experiment harness is a
//! Monte-Carlo estimate over independent replications.  The runners here
//! take a closure `f(replication_index, &mut rng) -> f64`, give each
//! replication its own reproducible RNG stream, and return summary
//! statistics.  The parallel variants fan replications out over the
//! workspace thread pool (chunked self-scheduling over the replication
//! indices; see [`crate::pool`]); because each replication owns its stream
//! and results are collected in replication order, parallel and serial runs
//! produce identical per-replication values and therefore identical
//! summaries — for any thread count.
//!
//! [`run_replications_chunked`] additionally groups the replications into
//! fixed-size batches and summarizes each batch, which gives convergence
//! diagnostics (batch-to-batch spread) without a second pass over the data.

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

    /// Relative half-width (CI95 / |mean|), a convergence diagnostic.
    pub fn relative_precision(&self) -> f64 {
        if self.mean.abs() < 1e-300 {
            f64::INFINITY
        } else {
            self.ci95 / self.mean.abs()
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
    ReplicationSummary::from_values(parallel_replication_values(n, seed, &f))
}

/// The shared parallel core: per-replication values in replication order.
fn parallel_replication_values<F>(n: usize, seed: u64, f: &F) -> Vec<f64>
where
    F: Fn(usize, &mut ChaCha8Rng) -> f64 + Sync,
{
    let streams = RngStreams::new(seed);
    crate::pool::parallel_indexed(n, |i| {
        let mut rng = streams.stream(i as u64);
        f(i, &mut rng)
    })
}

/// Replications grouped into fixed-size batches, each with its own summary.
///
/// Memory note: every batch summary retains its slice of the values (a
/// [`ReplicationSummary`] always carries `values`), so the flat results are
/// held twice — fine for the 10²–10⁶ replication counts the harness runs;
/// for larger streams, summarize incrementally with
/// [`crate::stats::BatchMeans`] instead.
#[derive(Debug, Clone)]
pub struct ChunkedReplications {
    /// Replications per batch (the final batch may be smaller).
    pub chunk_size: usize,
    /// One summary per batch, in replication order.
    pub chunks: Vec<ReplicationSummary>,
    /// Summary over all `n` replications (identical to what
    /// [`run_replications`] returns for the same `(n, seed, f)`).
    pub overall: ReplicationSummary,
}

impl ChunkedReplications {
    /// Largest absolute deviation of a batch mean from the overall mean — a
    /// cheap stationarity / convergence diagnostic.
    pub fn max_chunk_mean_deviation(&self) -> f64 {
        self.chunks
            .iter()
            .map(|c| (c.mean - self.overall.mean).abs())
            .fold(0.0, f64::max)
    }
}

/// Run `n` replications in parallel and summarize them both overall and in
/// consecutive batches of `chunk_size`.
///
/// Batch boundaries are fixed by `chunk_size` alone — they are **not** the
/// pool's scheduling chunks — so every field of the result is deterministic
/// for any thread count, and `overall.values` is bit-for-bit identical to
/// the serial runner's output.
///
/// # Panics
///
/// Panics if `n == 0` (all replication runners share this contract) or if
/// `chunk_size == 0`.
pub fn run_replications_chunked<F>(
    n: usize,
    seed: u64,
    chunk_size: usize,
    f: F,
) -> ChunkedReplications
where
    F: Fn(usize, &mut ChaCha8Rng) -> f64 + Sync,
{
    assert!(n > 0, "need at least one replication");
    assert!(chunk_size > 0, "need a positive chunk size");
    let values = parallel_replication_values(n, seed, &f);
    let chunks = values
        .chunks(chunk_size)
        .map(|c| ReplicationSummary::from_values(c.to_vec()))
        .collect();
    ChunkedReplications {
        chunk_size,
        chunks,
        overall: ReplicationSummary::from_values(values),
    }
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
        assert!(summary.relative_precision() < 0.2);
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
    fn chunked_matches_serial_and_summarizes_batches() {
        let f = |_i: usize, rng: &mut ChaCha8Rng| rng.gen::<f64>();
        let serial = run_replications(103, 9, f);
        let chunked = run_replications_chunked(103, 9, 25, f);
        assert_eq!(chunked.overall.values, serial.values);
        // ceil(103 / 25) = 5 batches, last one of size 3.
        assert_eq!(chunked.chunks.len(), 5);
        assert_eq!(chunked.chunks[4].values.len(), 3);
        // Each batch summarizes the matching slice of the flat values.
        for (b, chunk) in chunked.chunks.iter().enumerate() {
            let lo = b * 25;
            let hi = (lo + 25).min(103);
            assert_eq!(chunk.values, serial.values[lo..hi].to_vec());
        }
        assert!(chunked.max_chunk_mean_deviation() < 0.5);
    }

    #[test]
    fn chunked_is_thread_count_invariant() {
        let f = |_i: usize, rng: &mut ChaCha8Rng| rng.gen::<f64>();
        let one = crate::pool::with_threads(1, || run_replications_chunked(64, 3, 10, f));
        let many = crate::pool::with_threads(8, || run_replications_chunked(64, 3, 10, f));
        assert_eq!(one.overall.values, many.overall.values);
        assert_eq!(one.chunks.len(), many.chunks.len());
        for (a, b) in one.chunks.iter().zip(&many.chunks) {
            assert_eq!(a.values, b.values);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
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
    #[should_panic(expected = "need at least one replication")]
    fn chunked_rejects_zero_replications() {
        run_replications_chunked(0, 1, 8, |_i, _rng| 0.0);
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
