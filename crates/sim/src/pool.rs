//! The workspace execution pool: deterministic, order-preserving parallel
//! maps on scoped `std::thread` lanes.
//!
//! Every parallel workload in the workspace — the replication runners,
//! the Monte-Carlo sweeps, the oracle corpus, the fabric suite and the
//! experiment harness — is an order-preserving map over `0..n`, so the
//! pool has one entry point for work, [`parallel_indexed`].  Most code
//! never needs more: the lane count comes from `SS_THREADS` or the host's
//! available parallelism.  Code that wants explicit control (thread-count
//! sweeps, forcing serial execution) gets it here:
//!
//! * [`num_threads`] — the lane count parallel calls will currently use;
//! * [`with_threads`] — scope an exact lane count over a closure.
//!
//! ## Scheduling
//!
//! A parallel call splits `0..n` into fixed-size chunks that its lanes
//! claim from one atomic counter (chunked self-scheduling).  The caller is
//! one of the lanes; the others are helper threads that the call starts
//! with [`std::thread::scope`] and joins before it returns, so no thread
//! outlives a call and the closure is borrowed, never erased.  A one-lane
//! call is plain serial execution on the caller.  A parallel call made
//! from inside a chunk runs serially on its lane, which is identical by
//! the determinism contract and keeps a workload at no more threads than
//! lanes.
//!
//! ## Determinism contract
//!
//! Scheduling decides only *which thread* computes each index, never what
//! is computed or how results are ordered: [`parallel_indexed`]
//! reassembles the chunk buffers in index order.  Every replication draws
//! from its own [`crate::rng::RngStreams`] stream keyed by the replication
//! index, so any thread count — including 1 — produces bit-for-bit
//! identical output.  CI enforces this by running the simulation suites
//! under both `SS_THREADS=1` and `SS_THREADS=4`.
//!
//! ## Panic contract
//!
//! A panic in any chunk is caught on its lane and stops every lane's
//! claiming.  Once every lane has finished, the first panic is re-raised on
//! the caller with its payload via [`std::panic::resume_unwind`].
//!
//! ## Configuration
//!
//! The process-wide lane count is read once, at the first parallel call,
//! from the `SS_THREADS` environment variable: unset or empty means
//! [`std::thread::available_parallelism`], a positive integer is used as
//! given, and either is capped at 512.  Any other value panics on the
//! calling thread before any work runs.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{self, LocalKey};

thread_local! {
    /// Lane count scoped on this thread by [`with_threads`], if any.
    static SCOPED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Whether this thread is running the chunks of a parallel call;
    /// nested parallel calls then run serially on it.
    static IN_LANE: Cell<bool> = const { Cell::new(false) };
}

/// Upper bound on the process-wide lane count.
const MAX_THREADS: usize = 512;

/// The process-wide lane count for the `SS_THREADS` value `value` on a
/// host of `host` logical CPUs: the host's count when unset or empty,
/// otherwise the value itself, either capped at [`MAX_THREADS`].
///
/// # Panics
///
/// Panics if `value` is set and not a positive integer.
fn lanes_from_env(value: Option<&str>, host: usize) -> usize {
    let lanes = match value {
        Some(v) if !v.trim().is_empty() => v
            .trim()
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("SS_THREADS must be a positive integer, got {v:?}")),
        _ => host,
    };
    lanes.min(MAX_THREADS)
}

/// Restores a thread-local cell to the value it held before, on every
/// exit of the scope that holds the guard, unwinding included.
struct Restore<T: Copy + 'static>(&'static LocalKey<Cell<T>>, T);

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.0.set(self.1);
    }
}

/// What one lane of a parallel call hands back: its `(start, results)`
/// chunk buffers, or the payload of the first panic if the lane raised it.
type LaneResult<T> = Result<Vec<(usize, Vec<T>)>, Box<dyn Any + Send>>;

/// Default chunk size for `n` items on `threads` lanes: enough chunks for
/// load balancing (4 per lane), never empty.
fn default_chunk(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(1)
}

/// Lane count parallel calls on this thread will use right now: the
/// innermost [`with_threads`] count, or the process-wide one, read from
/// `SS_THREADS` on first use.
///
/// # Panics
///
/// Panics if the process-wide count is needed and `SS_THREADS` is set to
/// anything but a positive integer.
pub fn num_threads() -> usize {
    static GLOBAL: OnceLock<usize> = OnceLock::new();
    SCOPED.get().unwrap_or_else(|| {
        *GLOBAL.get_or_init(|| {
            let value = std::env::var_os("SS_THREADS").map(|v| v.to_string_lossy().into_owned());
            let host = thread::available_parallelism().map_or(1, |p| p.get());
            lanes_from_env(value.as_deref(), host)
        })
    })
}

/// Run `f` with parallel calls on the calling thread using exactly
/// `threads` lanes; the outer count is restored when `f` returns or
/// unwinds.  Useful for thread-count sweeps and for forcing serial
/// execution (`threads = 1`) regardless of `SS_THREADS`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "a parallel call needs at least one lane");
    let _restore = Restore(&SCOPED, SCOPED.replace(Some(threads)));
    f()
}

/// Evaluate `f(i)` for every `i in 0..n` on the current lanes and return
/// the results in index order — bit-for-bit the serial `(0..n).map(f)` for
/// any lane count.  Chunks are produced on the lanes, then reassembled by
/// ascending start index.
pub fn parallel_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // A call made inside a chunk has its lane to itself.
    let lanes = if IN_LANE.get() { 1 } else { num_threads() };
    if lanes == 1 || n == 0 {
        return (0..n).map(f).collect();
    }
    let chunk = default_chunk(n, lanes);
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    // One lane: claim and run chunks until the range runs out or a chunk
    // panics.
    let lane = || -> LaneResult<T> {
        let _lane = Restore(&IN_LANE, IN_LANE.replace(true));
        let mut parts = Vec::new();
        while !panicked.load(Ordering::SeqCst) {
            let start = next.fetch_add(chunk, Ordering::SeqCst);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            match panic::catch_unwind(AssertUnwindSafe(|| (start..end).map(&f).collect())) {
                Ok(buf) => parts.push((start, buf)),
                Err(payload) => {
                    if !panicked.swap(true, Ordering::SeqCst) {
                        return Err(payload);
                    }
                }
            }
        }
        Ok(parts)
    };
    let helpers = lanes.min(n.div_ceil(chunk)) - 1;
    let finished = thread::scope(|s| {
        let handles: Vec<_> = (0..helpers)
            .map(|i| {
                thread::Builder::new()
                    .name(format!("ss-pool-{i}"))
                    .spawn_scoped(s, lane)
                    .expect("failed to spawn a pool lane")
            })
            .collect();
        let mut finished = vec![lane()];
        finished.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(Err)));
        finished
    });
    let mut parts = Vec::new();
    for lane_parts in finished {
        parts.extend(lane_parts.unwrap_or_else(|payload| panic::resume_unwind(payload)));
    }
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (start, buf) in parts {
        assert_eq!(start, out.len(), "chunk boundaries must tile 0..n");
        out.extend(buf);
    }
    assert_eq!(out.len(), n, "pool lost or duplicated indices");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    fn squares(threads: usize, n: usize) -> Vec<usize> {
        with_threads(threads, || parallel_indexed(n, |i| i * i))
    }

    fn expected_squares(n: usize) -> Vec<usize> {
        (0..n).map(|i| i * i).collect()
    }

    #[test]
    fn covers_every_index_exactly_once() {
        assert_eq!(squares(4, 1000), expected_squares(1000));
    }

    #[test]
    fn single_thread_pool_runs_serially() {
        assert_eq!(squares(1, 57), expected_squares(57));
        // A one-lane call runs every index on the caller's thread.
        let caller = thread::current().id();
        let ids = with_threads(1, || parallel_indexed(57, |_| thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn fewer_items_than_threads() {
        assert_eq!(squares(8, 3), vec![0, 1, 4]);
        assert_eq!(squares(8, 1), vec![0]);
        assert_eq!(squares(8, 0), Vec::<usize>::new());
    }

    #[test]
    fn oversubscribed_pool_completes() {
        // Many more threads than this machine has cores.
        assert_eq!(squares(64, 10_000), expected_squares(10_000));
    }

    #[test]
    fn successive_calls_under_one_count_agree() {
        with_threads(4, || {
            for n in [1usize, 5, 100, 1000] {
                assert_eq!(parallel_indexed(n, |i| i * i), expected_squares(n));
            }
        });
    }

    #[test]
    fn panic_in_a_lane_propagates_to_the_caller() {
        let result = panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_indexed(100, |i| {
                    if i == 63 {
                        panic!("boom at 63");
                    }
                })
            })
        });
        let payload = result.expect_err("panic should propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom at 63"), "unexpected payload {msg:?}");
        // The next call under the same count runs normally.
        assert_eq!(squares(4, 10), expected_squares(10));
    }

    #[test]
    fn nested_parallel_calls_fall_back_to_serial() {
        // Each outer index records its own thread and, for a nested call
        // that must not deadlock, the values and threads of its indices.
        type Nested = (ThreadId, Vec<(usize, ThreadId)>);
        let outer: Vec<Nested> = with_threads(4, || {
            parallel_indexed(4, |i| {
                let inner = parallel_indexed(3, |j| (i * 10 + j, thread::current().id()));
                (thread::current().id(), inner)
            })
        });
        for (i, (lane, inner)) in outer.into_iter().enumerate() {
            let values: Vec<usize> = inner.iter().map(|&(v, _)| v).collect();
            assert_eq!(values, vec![i * 10, i * 10 + 1, i * 10 + 2]);
            // A nested call runs on its lane's own thread.
            assert!(inner.iter().all(|&(_, id)| id == lane));
        }
    }

    #[test]
    fn with_threads_restores_the_outer_count() {
        let outside = num_threads();
        assert_eq!(with_threads(3, num_threads), 3);
        assert_eq!(num_threads(), outside);
        // Also when `f` unwinds.
        let unwound = panic::catch_unwind(|| with_threads(5, || panic!("inside with_threads")));
        assert!(unwound.is_err());
        assert_eq!(num_threads(), outside);
    }

    #[test]
    fn default_chunk_is_never_zero() {
        assert_eq!(default_chunk(0, 4), 1);
        assert_eq!(default_chunk(1, 4), 1);
        assert!(default_chunk(1000, 4) >= 1);
        assert_eq!(default_chunk(16, 0), 4);
    }

    #[test]
    fn with_threads_controls_num_threads() {
        assert_eq!(with_threads(3, num_threads), 3);
        assert_eq!(with_threads(1, num_threads), 1);
    }

    #[test]
    fn parallel_indexed_preserves_order() {
        // Empty, small, and large enough for many chunks per lane; plus a
        // map whose every item is itself a `parallel_indexed` (the shape of
        // the experiment harness, whose experiments replicate inside a
        // chunk).  Each is bit-identical to the serial map on one lane and
        // on four.
        let nested = |i: usize| parallel_indexed(i % 7, move |j| ((i * j) as f64).sqrt().to_bits());
        for threads in [1, 4] {
            for n in [0usize, 100, 10_000] {
                let out = with_threads(threads, || parallel_indexed(n, |i| i * 3));
                let expected: Vec<usize> = (0..n).map(|i| i * 3).collect();
                assert_eq!(out, expected, "n = {n} at {threads} threads");
            }
            let out = with_threads(threads, || parallel_indexed(50, nested));
            let expected: Vec<Vec<u64>> = (0..50).map(nested).collect();
            assert_eq!(out, expected, "nested at {threads} threads");
        }
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn ss_threads_is_the_host_when_unset_or_empty_else_trimmed_and_capped() {
        assert_eq!(lanes_from_env(None, 3), 3);
        assert_eq!(lanes_from_env(Some(""), 3), 3);
        assert_eq!(lanes_from_env(Some(" 4 "), 3), 4);
        assert_eq!(lanes_from_env(Some("9999"), 3), MAX_THREADS);
    }

    #[test]
    #[should_panic(expected = "SS_THREADS must be a positive integer, got \"0\"")]
    fn ss_threads_zero_panics() {
        lanes_from_env(Some("0"), 3);
    }

    #[test]
    #[should_panic(expected = "SS_THREADS must be a positive integer, got \"four\"")]
    fn ss_threads_non_integer_panics() {
        lanes_from_env(Some("four"), 3);
    }
}
