//! Offline stand-in for the `rayon` crate.
//!
//! The workspace uses `(range).into_par_iter().map(f).collect()` plus the
//! `ThreadPoolBuilder`/`ThreadPool::install` sizing API, so that is what
//! this crate provides: a data-parallel map over an index range. The
//! calling thread and helpers from a process-wide pool of persistent
//! worker threads claim *chunks* of indices from a shared atomic cursor
//! (dynamic load balancing, like rayon's work stealing at this grain,
//! without a cache-line bounce per item). Results are returned in input
//! order, so callers observe rayon's exact semantics.
//!
//! How a par call with `w` workers runs:
//!
//! - The pool grows lazily to the largest `w - 1` ever requested; the
//!   caller is the remaining worker. Idle helpers park on a condition
//!   variable and never spin, so a call costs a wake-up, not a thread
//!   spawn and join.
//! - The call posts its job, wakes `w - 1` helpers and runs its own share
//!   of the chunks. A helper that arrives after the cursor ran out leaves
//!   at once. The caller returns only after every helper that joined has
//!   left, because helpers borrow its stack.
//! - A panic in any item stops further claims and reaches the caller with
//!   its original payload, after every helper has left.
//! - The caller always works on its own job, so concurrent callers make
//!   progress even while every helper is busy elsewhere.
//!
//! Worker-count resolution, highest priority first:
//!
//! 1. a [`ThreadPool::install`] scope on the calling thread;
//! 2. a process-global pool from [`ThreadPoolBuilder::build_global`];
//! 3. the `RAYON_NUM_THREADS` environment variable;
//! 4. `std::thread::available_parallelism()`.
//!
//! An explicit pool size is honoured even beyond the hardware parallelism
//! (the threads timeshare), which keeps thread-count matrix tests
//! meaningful on small containers.
//!
//! Nested parallelism is flattened rather than compounded: a par call
//! issued from a pool thread, or from the caller while it runs its own
//! share, runs serially on that thread. The outermost parallel level (e.g.
//! `BatchGemm` dispatching whole requests) therefore owns the thread
//! budget, and inner levels (per-block kernel loops) degrade to plain
//! loops instead of exploding the thread count.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Everything callers need: `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The element type produced.
    type Item;
    /// The concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// A minimal parallel iterator: `map` then `collect`.
pub trait ParallelIterator: Sized {
    /// The element type produced.
    type Item;

    /// Maps every element through `f` in parallel.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Evaluates the pipeline; elements arrive in input order.
    fn run(self) -> Vec<Self::Item>;

    /// Collects into any `FromIterator` container, preserving input order.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.run().into_iter().collect()
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    fn run(self) -> Vec<usize> {
        self.range.collect()
    }
}

/// The result of [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<R, F> ParallelIterator for Map<ParRange, F>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        par_map_range(self.base.range, &self.f)
    }
}

/// Process-global worker-count override (0 = unset), set by
/// [`ThreadPoolBuilder::build_global`].
static GLOBAL_POOL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Worker-count override installed on this thread by
    /// [`ThreadPool::install`] (0 = none).
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Set on pool helpers, and on a caller while it runs its own share:
    /// par calls from there run serially instead of fanning out again.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The hardware/environment default worker count (resolution steps 3–4).
fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// The worker count par calls on the current thread would use (before
/// clamping to the job count). Mirrors `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    let installed = INSTALLED_THREADS.with(|c| c.get());
    if installed > 0 {
        return installed;
    }
    let global = GLOBAL_POOL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    default_threads()
}

/// Builder for a sized [`ThreadPool`], mirroring rayon's.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Pool construction error. This shim never actually fails to build; the
/// type exists so call sites match rayon's `Result` signature.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A builder with automatic sizing (env, then hardware).
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Sets the worker count. `0` means automatic, as in rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// The count this builder resolves to right now (0 → env/hardware).
    fn resolve(&self) -> usize {
        if self.num_threads > 0 { self.num_threads } else { default_threads() }
    }

    /// Builds a pool handle. Sizing is resolved eagerly, so an automatic
    /// pool pins the env/hardware answer observed at build time.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.resolve() })
    }

    /// Installs this sizing as the process-global default (resolution
    /// step 2). Unlike rayon, repeat calls simply replace the override.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_POOL_THREADS.store(self.resolve(), Ordering::Relaxed);
        Ok(())
    }
}

/// A worker-count scope over the process-wide helper pool. Every
/// `ThreadPool` shares the same persistent helper threads; the handle only
/// fixes how many workers (caller included) a par call under
/// [`ThreadPool::install`] uses, and the shared pool grows to match.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with this pool's worker count governing every par call
    /// `op` issues on the calling thread. Scopes nest; the innermost wins.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = INSTALLED_THREADS.with(|c| c.replace(self.num_threads));
        let out = op();
        INSTALLED_THREADS.with(|c| c.set(prev));
        out
    }
}

/// One par call as the pool sees it. It lives on the caller's stack; the
/// caller keeps it alive until every helper that joined has left.
struct Job<'a> {
    /// Claims and runs chunks until the cursor runs out; never unwinds.
    share: &'a (dyn Fn() + Sync),
    /// Helpers currently inside `share`. Only changed and read under the
    /// pool lock, which also orders each helper's slot writes before the
    /// caller reads the results, so `Relaxed` suffices.
    active: AtomicUsize,
    /// Signalled (under the pool lock) when `active` drops to zero.
    drained: Condvar,
}

/// A job pointer with its lifetime erased, so the static queue can hold
/// it. Only dereferenced while the job is provably alive: it is reachable
/// through the queue, or a helper is counted in its `active`.
#[derive(Clone, Copy, PartialEq)]
struct JobRef(*const Job<'static>);

// SAFETY: a `Job` is `Sync`, and the pointer is only dereferenced under
// the liveness protocol documented on `JobRef`.
unsafe impl Send for JobRef {}

/// A posted job with the helper slots it still offers.
struct Posted {
    job: JobRef,
    open: usize,
}

struct PoolState {
    /// Helper threads spawned so far (they never exit).
    helpers: usize,
    /// Jobs still open to helpers, oldest first.
    queue: VecDeque<Posted>,
}

/// The process-wide helper pool.
struct Pool {
    state: Mutex<PoolState>,
    /// Idle helpers park here until a job is posted.
    work_ready: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState { helpers: 0, queue: VecDeque::new() }),
    work_ready: Condvar::new(),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Nothing unwinds while holding the lock (shares catch their own
        // panics), so poisoning carries no information here.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `share` on the calling thread and on up to `helpers` pool
    /// threads, returning once the caller's share is done and every
    /// helper that joined has left.
    fn run(&'static self, helpers: usize, share: &(dyn Fn() + Sync)) {
        let job = Job {
            share,
            active: AtomicUsize::new(0),
            drained: Condvar::new(),
        };
        let job_ref = JobRef((&job as *const Job<'_>).cast());
        {
            let mut state = self.lock();
            while state.helpers < helpers {
                let id = state.helpers;
                // Helpers live for the rest of the process and never
                // unwind (shares catch their panics), so none is joined.
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{id}"))
                    .spawn(move || self.helper_loop())
                    .expect("spawn pool helper");
                state.helpers += 1;
            }
            state.queue.push_back(Posted { job: job_ref, open: helpers });
        }
        for _ in 0..helpers {
            self.work_ready.notify_one();
        }

        let nested = IN_WORKER.with(|w| w.replace(true));
        share();
        IN_WORKER.with(|w| w.set(nested));

        // Close the job to late helpers, then wait out the ones inside it.
        let mut state = self.lock();
        if let Some(pos) = state.queue.iter().position(|p| p.job == job_ref) {
            state.queue.remove(pos);
        }
        while job.active.load(Ordering::Relaxed) > 0 {
            state = job.drained.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
    }

    /// A helper's life: park until a job is posted, join it, repeat.
    fn helper_loop(&'static self) {
        IN_WORKER.with(|w| w.set(true));
        let mut state = self.lock();
        loop {
            let Some(front) = state.queue.front_mut() else {
                state = self.work_ready.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let job_ref = front.job;
            front.open -= 1;
            if front.open == 0 {
                state.queue.pop_front();
            }
            // SAFETY: the job was reachable through the queue under the
            // lock, and counting this helper in `active` before releasing
            // the lock keeps its caller waiting until we decrement again.
            let job = unsafe { &*job_ref.0 };
            job.active.fetch_add(1, Ordering::Relaxed);
            drop(state);

            (job.share)();

            state = self.lock();
            if job.active.fetch_sub(1, Ordering::Relaxed) == 1 {
                // Notify under the lock: once it is released the caller
                // may return and free `job`.
                job.drained.notify_one();
            }
        }
    }
}

fn par_map_range<R, F>(range: std::ops::Range<usize>, f: &F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    let start = range.start;
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return Vec::new();
    }
    let workers = current_num_threads().min(len).max(1);
    if workers == 1 {
        return (start..range.end).map(f).collect();
    }

    // Chunked claiming: each fetch_add grabs `grain` consecutive indices.
    // The grain adapts to the input so small launches (e.g. one item per SM)
    // still fan out across all workers, while long campaigns claim up to 8
    // items per cursor round-trip.
    let grain = (len / (workers * 4)).clamp(1, 8);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    // Hand each worker a disjoint set of result slots via chunked claims
    // from the shared cursor; the raw-pointer writes are safe because every
    // index is claimed exactly once.
    struct SlotsPtr<R>(*mut Option<R>);
    // SAFETY: workers only write through the pointer, each to slots no
    // other worker touches, and `R: Send` lets a value made on one thread
    // be dropped or read on another.
    unsafe impl<R: Send> Sync for SlotsPtr<R> {}
    impl<R> SlotsPtr<R> {
        /// # Safety
        ///
        /// `i` is in bounds, and no other worker reads or writes slot `i`.
        unsafe fn write(&self, i: usize, value: R) {
            *self.0.add(i) = Some(value);
        }
    }
    let slots_ptr = SlotsPtr(slots.as_mut_ptr());
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    let share = || {
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let chunk = cursor.fetch_add(grain, Ordering::Relaxed);
            if chunk >= len {
                break;
            }
            for i in chunk..(chunk + grain).min(len) {
                let value = f(start + i);
                // SAFETY: chunks come from a fetch_add of `grain`, so no
                // two workers ever claim the same slot, and `slots`
                // outlives every worker's share.
                unsafe { slots_ptr.write(i, value) };
            }
        }));
        if let Err(payload) = claimed {
            // Stop further claims; keep the first payload.
            cursor.store(len, Ordering::Relaxed);
            panicked.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
        }
    };
    POOL.run(workers - 1, &share);

    if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
    slots.into_iter().map(|s| s.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range() {
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn chunked_claiming_covers_every_index_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Lengths around the grain boundaries: empty tail, full tail,
        // shorter-than-one-chunk inputs.
        for len in [1usize, 7, 8, 9, 13, 31, 32, 33, 255, 256, 1000] {
            let hits = AtomicUsize::new(0);
            let v: Vec<usize> = (0..len)
                .into_par_iter()
                .map(|i| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    i * 3
                })
                .collect();
            assert_eq!(hits.load(Ordering::Relaxed), len, "len {len}");
            assert_eq!(v, (0..len).map(|i| i * 3).collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn actually_runs_concurrently_or_at_least_correctly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        let v: Vec<usize> = (0..64)
            .into_par_iter()
            .map(|i| {
                hits.fetch_add(1, Ordering::Relaxed);
                i
            })
            .collect();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(v.len(), 64);
    }

    #[test]
    fn install_overrides_worker_count_even_past_hardware() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        // Four items that each wait for all four can only finish if four
        // threads really run at once, whatever the hardware count.
        let barrier = Barrier::new(4);
        let seen = Mutex::new(HashSet::new());
        let v: Vec<usize> = pool.install(|| {
            assert_eq!(current_num_threads(), 4);
            (0..4)
                .into_par_iter()
                .map(|i| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    barrier.wait();
                    i
                })
                .collect()
        });
        assert_eq!(v, vec![0, 1, 2, 3]);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4, "worker threads: {}", seen.len());
        // The override does not leak past the install scope.
        assert!(INSTALLED_THREADS.with(|c| c.get()) == 0);
    }

    #[test]
    fn panic_reaches_the_caller_with_its_payload_and_the_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caught = pool.install(|| {
            panic::catch_unwind(|| {
                (0..64)
                    .into_par_iter()
                    .map(|i| {
                        if i == 37 {
                            panic::panic_any(0xdead_u32);
                        }
                        i
                    })
                    .collect::<Vec<usize>>()
            })
        });
        let payload = caught.expect_err("the item's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&0xdead));
        let v: Vec<usize> = pool.install(|| (0..64).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(v, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_ordered_results() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let pool = &pool;
                s.spawn(move || {
                    pool.install(|| {
                        for call in 0..500usize {
                            let len = 1 + (call * 7 + t) % 48;
                            let v: Vec<usize> =
                                (0..len).into_par_iter().map(|i| i * 4 + t).collect();
                            assert_eq!(v, (0..len).map(|i| i * 4 + t).collect::<Vec<_>>());
                        }
                    })
                });
            }
        });
    }

    #[test]
    fn install_scopes_nest_innermost_wins() {
        let outer = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 8);
            inner.install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 8);
        });
    }

    #[test]
    fn nested_par_calls_inside_workers_run_serially() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let max_inner = AtomicUsize::new(0);
        let v: Vec<usize> = pool.install(|| {
            (0..8)
                .into_par_iter()
                .map(|i| {
                    // Inside a worker the resolved count collapses to 1, so
                    // this inner map runs inline on the same thread.
                    max_inner.fetch_max(current_num_threads(), Ordering::Relaxed);
                    let outer_thread = std::thread::current().id();
                    let inner: Vec<usize> = (0..16)
                        .into_par_iter()
                        .map(|j| {
                            assert_eq!(std::thread::current().id(), outer_thread);
                            j
                        })
                        .collect();
                    inner.len() + i
                })
                .collect()
        });
        assert_eq!(v, (0..8).map(|i| 16 + i).collect::<Vec<_>>());
        assert_eq!(max_inner.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_threads_means_automatic() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }
}
