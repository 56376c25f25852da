//! # setrules-exec
//!
//! A scoped worker pool for deterministic intra-query parallelism.
//!
//! The query layer partitions read-only work — base-table scans, pushdown
//! filtering, hash-join builds, and the WHERE pass over joined
//! combinations — into disjoint index ranges, runs each range on a pool
//! worker, and merges the per-partition results *in partition order*.
//! Because every partition is a contiguous slice of the serial iteration
//! order, the merged output is bit-identical to what serial execution
//! would have produced; parallelism is an implementation detail that is
//! invisible in results, error selection, and row-level statistics.
//!
//! Design constraints (and how they are met):
//!
//! * **std-only.** The build environment has no crates.io access, so no
//!   rayon/crossbeam. The pool is `std::thread` + `Mutex`/`Condvar` +
//!   `mpsc`-free hand-rolled queue.
//! * **Lazily spawned.** No threads exist until the first parallel scope
//!   runs; the pool then grows up to [`WorkerPool::size`] (defaults to
//!   `std::thread::available_parallelism()`).
//! * **Scoped.** [`WorkerPool::scope`] lets jobs borrow from the caller's
//!   stack. The scope joins every spawned job before returning — on the
//!   success path *and* when the scope body itself panics — so the
//!   lifetime erasure below is sound.
//! * **Panic-propagating.** A panicking job does not poison the pool or
//!   abort the process: the payload is captured on the worker, carried
//!   back, and re-raised on the caller's thread by `scope`.
//!
//! Workers are daemon-like: once spawned they live for the process
//! lifetime, blocking on the shared queue between scopes. That keeps
//! repeated queries from paying thread-spawn latency.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// A unit of work queued on the pool. Jobs are lifetime-erased by
/// [`Scope::spawn`]; the scope's join-before-return discipline is what
/// makes the erasure sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

/// Book-keeping for one `scope` call: outstanding-job count, a condvar the
/// caller parks on, and the first captured panic payload (if any).
struct ScopeState {
    pending: AtomicUsize,
    lock: Mutex<()>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> Arc<ScopeState> {
        Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Block until every job spawned under this scope has finished.
    fn join(&self) {
        let mut guard = self.lock.lock().expect("scope lock poisoned");
        while self.pending.load(Ordering::Acquire) != 0 {
            guard = self.all_done.wait(guard).expect("scope lock poisoned");
        }
    }
}

/// A lazily-spawned, process-lifetime worker pool with a scoped-spawn API.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Maximum number of worker threads this pool will ever spawn.
    size: usize,
    /// Number of workers actually spawned so far (grows lazily).
    spawned: Mutex<usize>,
}

impl WorkerPool {
    /// Create a pool that will lazily spawn up to `size` workers
    /// (`size` is clamped to at least 1).
    pub fn new(size: usize) -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                job_ready: Condvar::new(),
            }),
            size: size.max(1),
            spawned: Mutex::new(0),
        }
    }

    /// The process-wide pool, sized by `available_parallelism()`. Created
    /// (but not yet populated with threads) on first use.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(default_parallelism()))
    }

    /// Maximum worker count for this pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Spawn workers (up to the pool size) so at least `wanted` exist.
    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(self.size);
        let mut n = self.spawned.lock().expect("pool spawn lock poisoned");
        while *n < wanted {
            let shared = Arc::clone(&self.shared);
            thread::Builder::new()
                .name(format!("setrules-worker-{n}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
            *n += 1;
        }
    }

    /// Run `body` with a [`Scope`] whose spawned jobs may borrow from the
    /// caller's stack. Every job is joined before `scope` returns; if any
    /// job panicked, the first captured payload is re-raised here (a panic
    /// in `body` itself is re-raised after the join, jobs first).
    pub fn scope<'pool, 'scope, R>(
        &'pool self,
        body: impl FnOnce(&Scope<'pool, 'scope>) -> R,
    ) -> R {
        self.ensure_workers(self.size);
        let scope = Scope {
            pool: self,
            state: ScopeState::new(),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
        // Join unconditionally: jobs borrowing the caller's stack must not
        // outlive this frame even when `body` panicked.
        scope.state.join();
        if let Some(payload) = scope.state.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Split `0..n` as [`partition_ranges`] does, run `work` on every
    /// range (other partitions on pool workers, the first inline on the
    /// caller), and return the per-partition results **in partition
    /// order**.
    ///
    /// Partitions are disjoint, contiguous, and cover `0..n` in order, so
    /// concatenating the results reproduces the serial left-to-right
    /// iteration exactly. With one partition (or `n == 0`) no worker is
    /// involved at all.
    pub fn run_chunked<R: Send>(
        &self,
        n: usize,
        max_parts: usize,
        min_chunk: usize,
        work: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let ranges = partition_ranges(n, max_parts, min_chunk);
        if ranges.len() <= 1 {
            return ranges.into_iter().map(&work).collect();
        }
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(ranges.len(), || None);
        let work = &work;
        self.scope(|s| {
            let (first_slot, rest) = results.split_first_mut().expect("len checked above");
            for (slot, range) in rest.iter_mut().zip(ranges[1..].iter().cloned()) {
                s.spawn(move || *slot = Some(work(range)));
            }
            // Run the first partition on the caller's thread: it would
            // otherwise sit parked in `join` while workers run.
            *first_slot = Some(work(ranges[0].clone()));
        });
        results
            .into_iter()
            .map(|r| r.expect("scope joined every partition"))
            .collect()
    }
}

/// Handle passed to the body of [`WorkerPool::scope`]; spawns jobs that may
/// borrow anything that outlives the scope.
pub struct Scope<'pool, 'scope> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Make `'scope` invariant so callers cannot shrink it.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Queue `job` on the pool. The job may borrow from the enclosing
    /// stack frame (`'scope`); the scope joins it before returning.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'scope) {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let erased: Box<dyn FnOnce() + Send + 'scope> = Box::new(job);
        // SAFETY: `WorkerPool::scope` joins every spawned job before it
        // returns (including on panic), so all `'scope` borrows captured
        // by `job` strictly outlive its execution.
        let erased: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(erased)
        };
        let wrapped: Job = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(erased)) {
                let mut slot = state.panic.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = state.lock.lock().expect("scope lock poisoned");
                state.all_done.notify_all();
            }
        });
        {
            let mut q = self.pool.shared.queue.lock().expect("pool queue poisoned");
            q.push_back(wrapped);
        }
        self.pool.shared.job_ready.notify_one();
    }
}

/// Worker main loop: pull a job, run it, repeat forever.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared.job_ready.wait(q).expect("pool queue poisoned");
            }
        };
        job();
    }
}

/// Split `0..n` into `min(max_parts, n / min_chunk)` contiguous ranges
/// (at least one), covering `0..n` in order. Range sizes differ by at
/// most one, so none is smaller than `min_chunk` unless `n` itself is.
/// Returns an empty vec when `n == 0`.
pub fn partition_ranges(n: usize, max_parts: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = max_parts.min(n / min_chunk.max(1)).max(1);
    let (size, extra) = (n / parts, n % parts);
    let mut start = 0usize;
    (0..parts)
        .map(|i| {
            let end = start + size + usize::from(i < extra);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// Number of threads to use when the caller expressed no preference:
/// `std::thread::available_parallelism()`, or 1 if unknown.
pub fn default_parallelism() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve the effective thread count for a query.
///
/// Precedence: an **explicit** configuration value (`Some(n)`) wins; the
/// `SETRULES_THREADS` environment variable overrides the *default*; the
/// default is [`default_parallelism`]. The env var is re-read on every
/// call so test harnesses can flip it between statements. Values are
/// clamped to at least 1; unparsable values are ignored.
pub fn resolve_threads(configured: Option<usize>) -> usize {
    if let Some(n) = configured {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var("SETRULES_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    default_parallelism()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_in_order() {
        for n in [0usize, 1, 5, 64, 100, 1000] {
            for parts in [1usize, 2, 7, 8] {
                for min_chunk in [1usize, 16, 64] {
                    let ranges = partition_ranges(n, parts, min_chunk);
                    let mut next = 0usize;
                    for r in &ranges {
                        assert_eq!(r.start, next, "contiguous");
                        assert!(r.end > r.start, "nonempty");
                        next = r.end;
                    }
                    assert_eq!(next, n, "covers 0..n");
                    let want = if n == 0 { 0 } else { parts.min(n / min_chunk).max(1) };
                    assert_eq!(ranges.len(), want, "n={n} parts={parts} min={min_chunk}");
                    if n >= min_chunk {
                        assert!(ranges.iter().all(|r| r.len() >= min_chunk), "{ranges:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_chunked_preserves_partition_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let chunks = pool.run_chunked(items.len(), 4, 16, |r| items[r].to_vec());
        let merged: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(merged, items);
    }

    #[test]
    fn scope_jobs_borrow_stack() {
        let pool = WorkerPool::new(2);
        let data = [1u64, 2, 3, 4];
        let mut left = 0u64;
        let mut right = 0u64;
        pool.scope(|s| {
            let (a, b) = data.split_at(2);
            let lref = &mut left;
            let rref = &mut right;
            s.spawn(move || *lref = a.iter().sum());
            s.spawn(move || *rref = b.iter().sum());
        });
        assert_eq!(left + right, 10);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("boom in worker")));
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom in worker");
        // The pool must keep working after a panicked job.
        let sums = pool.run_chunked(100, 2, 1, |r| r.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
    }

    #[test]
    fn resolve_threads_precedence() {
        // Explicit config always wins and is clamped to >= 1.
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        // Default resolution yields at least one thread.
        assert!(resolve_threads(None) >= 1);
    }
}
