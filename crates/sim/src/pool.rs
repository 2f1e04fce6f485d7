//! The workspace execution pool: a `std::thread` work-sharing pool with
//! deterministic, order-preserving bulk execution.
//!
//! Every parallel workload in the workspace — the replication runners,
//! the Monte-Carlo sweeps, the oracle corpus, the fabric suite and the
//! experiment harness — is an order-preserving map over `0..n`, so the
//! pool has one entry point for work, [`parallel_indexed`].  Most code
//! never needs more: the global pool sizes itself from `SS_THREADS` or the
//! host's available parallelism.  Code that wants explicit control
//! (thread-count sweeps, forcing serial execution) gets it here:
//!
//! * [`num_threads`] — the thread count parallel calls will currently use;
//! * [`ThreadPool`] + [`install`](ThreadPool::install) — build a pool of an
//!   exact size and scope it over a closure;
//! * [`with_threads`] — the one-line version of build-and-install.
//!
//! ## Scheduling
//!
//! A parallel call publishes one *bulk task*: the index range `0..n` split
//! into fixed-size chunks that worker threads claim with an atomic counter
//! (chunked self-scheduling).  The submitting thread always participates,
//! so a pool configured with one thread degenerates to plain serial
//! execution on the caller and a pool is never required to make progress
//! on its own.  A parallel call made from inside a chunk runs serially on
//! the calling thread, which is identical by the determinism contract.
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
//! A panic in any chunk is caught in the worker, recorded, and re-raised on
//! the submitting thread via [`std::panic::resume_unwind`] after every
//! claimed chunk has finished (so borrowed data is never used after the
//! submitting frame unwinds).  Remaining unclaimed chunks are skipped once a
//! panic is recorded.  The pool survives a panicked task.
//!
//! ## Configuration
//!
//! The global pool sizes itself from the `SS_THREADS` environment variable
//! when set (clamped to `1..=512`), otherwise from
//! [`std::thread::available_parallelism`].

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Type-erased chunk callback: invoked as `f(start, end)` for disjoint
/// sub-ranges of `0..n` covering every index exactly once.
type DynChunkFn = dyn Fn(usize, usize) + Sync + 'static;

/// One in-flight bulk task.
///
/// `func` points into the submitting stack frame; the lifetime was erased
/// when the task was published.  Soundness rests on two invariants: `func`
/// is only dereferenced for claimed chunks (`start < n`), and the submitter
/// does not return before `remaining` hits zero, so the pointee outlives
/// every dereference.
struct Bulk {
    func: *const DynChunkFn,
    n: usize,
    chunk: usize,
    /// Next index to claim (chunks are `[next, next + chunk)`).
    next: AtomicUsize,
    /// Indices claimed but whose completion has not yet been counted.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `func` is only dereferenced while the submitting frame is alive
// (see the invariants on [`Bulk`]); the pointee is `Sync`, so shared calls
// from several workers are allowed. Everything else in the struct is
// thread-safe by construction.
unsafe impl Send for Bulk {}
unsafe impl Sync for Bulk {}

struct State {
    /// Bumped on every published task so sleeping workers can tell a fresh
    /// task from one they already drained.
    epoch: u64,
    task: Option<Arc<Bulk>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    /// Workers in addition to the participating submitter.
    extra_workers: usize,
    /// Serializes concurrent bulk submissions from different threads.
    submit_lock: Mutex<()>,
}

thread_local! {
    /// Stack of pools installed on this thread via [`ThreadPool::install`].
    static CURRENT: RefCell<Vec<Arc<Inner>>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread is currently executing a bulk chunk; nested
    /// parallel calls fall back to serial execution to avoid deadlocking the
    /// pool on itself.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Upper bound honoured when reading `SS_THREADS`.
const MAX_THREADS: usize = 512;

/// Thread count of the global pool: `SS_THREADS` if set and valid, otherwise
/// [`std::thread::available_parallelism`], clamped to `1..=512`.
fn default_threads() -> usize {
    let configured = std::env::var("SS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1);
    let threads = configured.unwrap_or_else(|| {
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    threads.min(MAX_THREADS)
}

/// A pool of `threads` compute lanes: the submitting thread plus
/// `threads - 1` background workers.
pub struct ThreadPool {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Build a pool with `threads` compute lanes (`threads - 1` background
    /// workers; the submitter is always the remaining lane).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a thread pool needs at least one thread");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            extra_workers: threads - 1,
            submit_lock: Mutex::new(()),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("ss-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Total compute lanes (background workers + the submitting thread).
    pub fn num_threads(&self) -> usize {
        self.inner.extra_workers + 1
    }

    /// Run `f` with this pool installed as the current pool of the calling
    /// thread: every parallel call inside `f` is scheduled here instead of
    /// on the global pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        CURRENT.with(|c| c.borrow_mut().push(Arc::clone(&self.inner)));
        // Pop on all exits, including unwinding out of `f`.
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                CURRENT.with(|c| {
                    c.borrow_mut().pop();
                });
            }
        }
        let _guard = PopGuard;
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Inner {
    /// Execute `f(start, end)` over disjoint chunks covering `0..n`, in
    /// parallel across the pool's lanes. Blocks until every index has been
    /// processed; re-raises the first panic observed in any chunk.
    fn run_chunks(&self, n: usize, chunk: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Serial fast path: single-lane pool, or already inside a pool task
        // (nested parallelism would deadlock on `submit_lock`; serial
        // execution is identical by the determinism contract).
        if self.extra_workers == 0 || IN_TASK.with(Cell::get) {
            f(0, n);
            return;
        }

        // SAFETY: `task.func` is dereferenced only until `remaining` reaches
        // zero, and this frame blocks on `done` (which is signalled by the
        // thread that completes the final chunk) before returning, so the
        // erased borrow of `f` never outlives `f` itself.
        let erased: &DynChunkFn =
            unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), &DynChunkFn>(f) };
        let task = Arc::new(Bulk {
            func: erased as *const DynChunkFn,
            n,
            chunk: chunk.max(1),
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            // Scoped so the submit lock is released before a recorded panic
            // is re-raised (resuming while holding it would poison the pool
            // for every later submission).
            let _submit = self.submit_lock.lock().unwrap_or_else(|e| e.into_inner());
            {
                let mut st = self.state.lock().unwrap();
                st.epoch += 1;
                st.task = Some(Arc::clone(&task));
            }
            self.work_cv.notify_all();

            // The submitter is a full compute lane.
            execute(&task);

            {
                let mut done = task.done.lock().unwrap();
                while !*done {
                    done = task.done_cv.wait(done).unwrap();
                }
            }
            {
                let mut st = self.state.lock().unwrap();
                st.task = None;
            }
        }
        if task.panicked.load(Ordering::SeqCst) {
            let payload = task.panic.lock().unwrap().take();
            panic::resume_unwind(
                payload.unwrap_or_else(|| Box::new("pool task panicked".to_string())),
            );
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut last_epoch = 0u64;
    loop {
        let task = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if let Some(t) = &st.task {
                        break Arc::clone(t);
                    }
                    // Task already completed and cleared; keep waiting.
                    continue;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        execute(&task);
    }
}

/// Claim and run chunks of `task` until the index space is exhausted.
fn execute(task: &Bulk) {
    struct TaskGuard(bool);
    impl Drop for TaskGuard {
        fn drop(&mut self) {
            IN_TASK.with(|f| f.set(self.0));
        }
    }
    let _guard = TaskGuard(IN_TASK.with(|f| f.replace(true)));

    loop {
        let start = task.next.fetch_add(task.chunk, Ordering::SeqCst);
        if start >= task.n {
            break;
        }
        let end = (start + task.chunk).min(task.n);
        // Once a panic is recorded the remaining chunks are skipped (their
        // results would be discarded by the unwinding submitter anyway).
        if !task.panicked.load(Ordering::SeqCst) {
            // SAFETY: see the invariants on `Bulk` — `start < n` implies the
            // submitter is still blocked in `run_chunks`, so the pointee of
            // `func` is alive.
            let f = unsafe { &*task.func };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(start, end))) {
                if !task.panicked.swap(true, Ordering::SeqCst) {
                    *task.panic.lock().unwrap() = Some(payload);
                }
            }
        }
        let prev = task.remaining.fetch_sub(end - start, Ordering::SeqCst);
        if prev == end - start {
            let mut done = task.done.lock().unwrap();
            *done = true;
            task.done_cv.notify_all();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The pool parallel calls on this thread are scheduled on: the innermost
/// [`ThreadPool::install`]ed pool, or the process-wide pool, built on first
/// use from `SS_THREADS` or the host's parallelism.
fn current() -> Arc<Inner> {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(|| {
            let global = GLOBAL.get_or_init(|| ThreadPool::new(default_threads()));
            Arc::clone(&global.inner)
        })
}

/// Default chunk size for `n` items on `threads` lanes: enough chunks for
/// load balancing (4 per lane), never empty.
fn default_chunk(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(1)
}

/// Thread count parallel calls on this thread will use right now (the
/// innermost installed pool, or the global pool).
pub fn num_threads() -> usize {
    current().extra_workers + 1
}

/// Run `f` with a dedicated pool of exactly `threads` threads installed on
/// the calling thread. Useful for thread-count sweeps and for forcing serial
/// execution (`threads = 1`) regardless of `SS_THREADS`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPool::new(threads).install(f)
}

/// Evaluate `f(i)` for every `i in 0..n` on the current pool and return the
/// results in index order — bit-for-bit the serial `(0..n).map(f)` for any
/// thread count.  Chunks are produced on the pool, then reassembled by
/// ascending start index.
pub fn parallel_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    let pool = current();
    pool.run_chunks(
        n,
        default_chunk(n, pool.extra_workers + 1),
        &|start, end| {
            let buf: Vec<T> = (start..end).map(&f).collect();
            parts.lock().unwrap().push((start, buf));
        },
    );
    let mut parts = parts.into_inner().unwrap();
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

    fn collect_squares(pool: &ThreadPool, n: usize) -> Vec<usize> {
        let parts: Mutex<Vec<(usize, Vec<usize>)>> = Mutex::new(Vec::new());
        pool.inner
            .run_chunks(n, default_chunk(n, pool.num_threads()), &|start, end| {
                let buf: Vec<usize> = (start..end).map(|i| i * i).collect();
                parts.lock().unwrap().push((start, buf));
            });
        let mut parts = parts.into_inner().unwrap();
        parts.sort_unstable_by_key(|&(s, _)| s);
        parts.into_iter().flat_map(|(_, buf)| buf).collect()
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(collect_squares(&pool, 1000), expected);
    }

    #[test]
    fn single_thread_pool_runs_serially() {
        let pool = ThreadPool::new(1);
        let expected: Vec<usize> = (0..57).map(|i| i * i).collect();
        assert_eq!(collect_squares(&pool, 57), expected);
    }

    #[test]
    fn fewer_items_than_threads() {
        let pool = ThreadPool::new(8);
        assert_eq!(collect_squares(&pool, 3), vec![0, 1, 4]);
        assert_eq!(collect_squares(&pool, 1), vec![0]);
        assert_eq!(collect_squares(&pool, 0), Vec::<usize>::new());
    }

    #[test]
    fn oversubscribed_pool_completes() {
        // Many more threads than this machine has cores.
        let pool = ThreadPool::new(64);
        let expected: Vec<usize> = (0..10_000).map(|i| i * i).collect();
        assert_eq!(collect_squares(&pool, 10_000), expected);
    }

    #[test]
    fn pool_is_reusable_across_tasks() {
        let pool = ThreadPool::new(4);
        for n in [1usize, 5, 100, 1000] {
            let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
            assert_eq!(collect_squares(&pool, n), expected);
        }
    }

    #[test]
    fn panic_in_worker_propagates_to_submitter() {
        let pool = ThreadPool::new(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.inner.run_chunks(100, 1, &|start, _end| {
                if start == 63 {
                    panic!("boom at 63");
                }
            });
        }));
        let payload = result.expect_err("panic should propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom at 63"), "unexpected payload {msg:?}");
        // The pool survives a panicked task.
        assert_eq!(
            collect_squares(&pool, 10),
            (0..10).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_parallel_calls_fall_back_to_serial() {
        let pool = ThreadPool::new(4);
        let outer: Mutex<Vec<(usize, Vec<usize>)>> = Mutex::new(Vec::new());
        pool.inner.run_chunks(4, 1, &|start, end| {
            for i in start..end {
                // A nested bulk call from inside a task must not deadlock.
                let inner = current();
                let acc = Mutex::new(Vec::new());
                inner.run_chunks(3, 1, &|s, e| {
                    for j in s..e {
                        acc.lock().unwrap().push(i * 10 + j);
                    }
                });
                let mut inner_vals = acc.into_inner().unwrap();
                inner_vals.sort_unstable();
                outer.lock().unwrap().push((i, inner_vals));
            }
        });
        let mut results = outer.into_inner().unwrap();
        results.sort_unstable_by_key(|&(i, _)| i);
        for (i, vals) in results {
            assert_eq!(vals, vec![i * 10, i * 10 + 1, i * 10 + 2]);
        }
    }

    #[test]
    fn install_scopes_the_current_pool() {
        let pool = ThreadPool::new(3);
        let outside = num_threads();
        let inside = pool.install(num_threads);
        assert_eq!(inside, 3);
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
        // `evaluate_list_policies` and the experiment harness).  Each is
        // bit-identical to the serial map on one lane and on four.
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
}
