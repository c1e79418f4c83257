//! Order-preserving parallel execution for experiment sweeps, backed by a
//! **persistent work-stealing worker pool**.
//!
//! Experiment grids are embarrassingly parallel: every cell is an
//! independent (seeded) simulation. Through PR 3 the executor fanned cells
//! out over `std::thread::scope` workers — correct, but every call paid a
//! full spawn/join barrier, which the streaming batch engine (one fan-out
//! per 256-step block) and the distance-transform DP (one fan-out per DP
//! step) hit thousands of times per run. This module now keeps a single
//! lazily-initialized pool of workers alive for the life of the process:
//!
//! * **Dispatch** pushes one *ticket* per participating worker onto a
//!   shared queue (`Mutex<VecDeque>` + `Condvar` — no busy waiting);
//!   parked workers wake, claim the ticket, and join the job's
//!   atomic-cursor work-stealing loop — the same dynamic stealing
//!   discipline the scoped executor used, so load balancing is unchanged.
//! * **The caller participates.** The submitting thread runs the same
//!   stealing loop instead of blocking, so a `threads = k` request uses
//!   `k − 1` pool workers plus the caller, and small jobs often finish on
//!   the caller alone before a worker even wakes.
//! * **Borrowed closures still work.** Jobs erase the closure's lifetime
//!   internally, and the dispatching call does not return until every
//!   claimed ticket has finished (unclaimed tickets are revoked from the
//!   queue) — the closure and its borrows provably outlive all worker
//!   access, exactly as with scoped threads. Worker panics are caught,
//!   forwarded, and re-raised on the caller.
//! * **Results stay deterministic.** Outputs land in input-order slots, so
//!   tables render identically regardless of scheduling, and
//!   [`parallel_map_indexed`] is output-identical to the sequential path
//!   (pinned by proptest in `tests/executor_semantics.rs`).
//!
//! The **no-oversubscription guarantee** is preserved: pool workers (and
//! the caller while it participates) are flagged as sweep workers, so a
//! nested fan — a seed fan inside a cell fan, a DT row fan inside a seed
//! fan — runs sequentially on its worker instead of multiplying CPU-bound
//! threads to `cores × cells`. Additionally the pool itself caps
//! parallelism: a request for more threads than the pool owns is served by
//! the whole pool, never by extra transient threads.
//!
//! ## Sizing and `MSP_THREADS`
//!
//! The pool size is resolved **once**, at first use, as:
//!
//! 1. the `MSP_THREADS` environment variable, when set to a positive
//!    integer (the CI contention job pins `MSP_THREADS=2` so scheduling
//!    races surface under contention rather than only on many-core
//!    runners);
//! 2. otherwise [`std::thread::available_parallelism`];
//! 3. otherwise — only when the platform cannot report a count — **1**,
//!    i.e. fully sequential execution rather than an arbitrary guess (the
//!    pre-PR-5 executor silently assumed 4 here).
//!
//! [`pool_threads`] exposes the resolved value so engines that partition
//! work *before* fanning out can size their partitions consistently.
//!
//! The scoped executor is retained as [`scoped_map_indexed`] /
//! [`scoped_for_each_mut`] — the parity oracle the pooled paths are tested
//! against, and the baseline the `executor_pooled_fanout` entry of the
//! `BENCH_*.json` records measures the pool against.

use crate::obs;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// True while the current thread is a sweep worker (a pool worker, or
    /// the caller while it participates in a fan-out). Nested
    /// `parallel_map*` calls (a seed fan inside a cell fan) then run
    /// sequentially instead of multiplying CPU-bound threads to
    /// `cores × cells`.
    static IN_SWEEP: Cell<bool> = const { Cell::new(false) };
}

/// Resolves the pool size once: `MSP_THREADS` override, else the
/// available CPU count, else 1 (sequential — never a silent guess).
fn resolve_pool_threads() -> usize {
    if let Ok(raw) = std::env::var("MSP_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        // A set-but-invalid override falls through to autodetection: a
        // typo should not silently serialize a production sweep.
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// One fan-out in flight: the work-stealing cursor plus the completion
/// latch. The task pointer is the caller's borrowed closure with its
/// lifetime erased; safety rests on the dispatch protocol — the
/// dispatching call revokes unclaimed tickets and blocks until every
/// claimed ticket has finished before returning, so no worker can touch
/// the closure after the borrow ends.
struct Job {
    /// Next item index to claim.
    cursor: AtomicUsize,
    /// Total number of items.
    n: usize,
    /// The erased per-index task. Valid for the whole dispatch (see
    /// above); workers only dereference it between claiming a ticket and
    /// signalling `state`.
    task: *const (dyn Fn(usize) + Sync),
    /// Outstanding tickets (queued or running) plus the first worker
    /// panic, if any.
    state: Mutex<JobState>,
    /// Signalled when `state.outstanding` reaches zero.
    done: Condvar,
}

struct JobState {
    outstanding: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `task` is only dereferenced while the dispatching call is
// blocked in `dispatch` (workers signal `state` before releasing their
// ticket), so the pointee — a `Sync` closure on the caller's stack —
// is live and shareable for every access.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs items until the cursor is exhausted; returns how
    /// many items this participant executed (the caller's share vs. the
    /// pool workers' stolen share feeds the observability registry).
    fn run_cursor(&self) -> usize {
        // SAFETY: see the `Send`/`Sync` justification above.
        let task = unsafe { &*self.task };
        let mut ran = 0usize;
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            task(i);
            ran += 1;
        }
        ran
    }

    /// One worker's participation: run the stealing loop, then retire the
    /// ticket. Panics are captured into the job (first wins) and re-raised
    /// by the dispatcher; the worker thread itself survives.
    fn run_ticket(&self) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let stolen = self.run_cursor();
            obs::add(obs::Counter::ExecutorItems, stolen as u64);
            obs::add(obs::Counter::ExecutorSteals, stolen as u64);
        }));
        let mut state = self.state.lock().expect("sweep job state poisoned");
        if let Err(payload) = result {
            // Park the cursor at the end so sibling workers stop claiming
            // items of a job that is already doomed.
            self.cursor.store(self.n, Ordering::Relaxed);
            state.panic.get_or_insert(payload);
        }
        state.outstanding -= 1;
        if state.outstanding == 0 {
            self.done.notify_all();
        }
    }
}

/// The process-wide worker pool: a ticket queue and the resolved thread
/// count. Workers are spawned once (detached — they park on the condvar
/// between jobs and die with the process).
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    /// Resolved parallelism (see [`pool_threads`]): the caller plus
    /// `threads − 1` spawned workers.
    threads: usize,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            threads: resolve_pool_threads(),
        })
    }

    /// Spawns the pool's worker threads exactly once (separate from
    /// `global()` so the `OnceLock` closure never references the lock's
    /// own storage).
    fn ensure_workers(&'static self) {
        static SPAWNED: OnceLock<()> = OnceLock::new();
        SPAWNED.get_or_init(|| {
            for idx in 1..self.threads {
                std::thread::Builder::new()
                    .name(format!("msp-sweep-{idx}"))
                    .spawn(move || self.worker_loop())
                    .expect("spawn sweep pool worker");
            }
        });
    }

    fn worker_loop(&self) {
        IN_SWEEP.with(|flag| flag.set(true));
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("sweep queue poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.available.wait(queue).expect("sweep queue poisoned");
                }
            };
            job.run_ticket();
        }
    }

    /// Pushes `tickets` participation tickets for `job`.
    fn submit(&self, job: &Arc<Job>, tickets: usize) {
        let mut queue = self.queue.lock().expect("sweep queue poisoned");
        for _ in 0..tickets {
            queue.push_back(Arc::clone(job));
        }
        obs::gauge_max(obs::Gauge::ExecutorQueueDepthHwm, queue.len() as u64);
        drop(queue);
        for _ in 0..tickets {
            self.available.notify_one();
        }
    }

    /// Revokes every still-queued ticket of `job` (workers busy elsewhere
    /// never claimed them; the caller has already drained the cursor) and
    /// retires them, so the dispatcher only waits for tickets a worker
    /// actually claimed.
    fn revoke(&self, job: &Arc<Job>) {
        let mut queue = self.queue.lock().expect("sweep queue poisoned");
        let before = queue.len();
        queue.retain(|queued| !Arc::ptr_eq(queued, job));
        let revoked = before - queue.len();
        drop(queue);
        obs::add(obs::Counter::ExecutorTicketsRevoked, revoked as u64);
        if revoked > 0 {
            let mut state = job.state.lock().expect("sweep job state poisoned");
            state.outstanding -= revoked;
            if state.outstanding == 0 {
                job.done.notify_all();
            }
        }
    }
}

/// The resolved size of the persistent worker pool: the `MSP_THREADS`
/// environment override when set to a positive integer, otherwise the
/// available CPU count, otherwise 1. Resolved once at first use and
/// stable for the life of the process; this is what a `threads = 0`
/// request fans out to, and the hard ceiling on concurrent sweep workers.
pub fn pool_threads() -> usize {
    Pool::global().threads
}

/// Point-in-time introspection of the persistent worker pool, read from
/// the observability registry (see [`pool_stats`]).
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    /// Resolved pool size ([`pool_threads`]): the caller plus
    /// `workers − 1` spawned threads.
    pub workers: usize,
    /// Fan-outs dispatched to the pool (inline single-thread runs
    /// included).
    pub dispatches: u64,
    /// Work items executed under pool dispatch (caller + workers).
    pub items: u64,
    /// Work items claimed by pool workers — stolen from the caller's
    /// cursor rather than run on the dispatching thread.
    pub steals: u64,
    /// Deepest ticket queue observed at submit time.
    pub queue_depth_hwm: u64,
    /// Nested fans collapsed to sequential on a sweep worker.
    pub nested_collapses: u64,
    /// Queued tickets revoked unclaimed when their dispatch finished.
    pub tickets_revoked: u64,
}

/// Debug accessor for executor-pool introspection. The counters live in
/// the [`crate::obs`] registry and populate only while metrics are
/// enabled ([`crate::obs::enable`]); with metrics disabled every field
/// except `workers` reads as its last collected value (zero in a fresh
/// process). Reading is always safe and lock-free.
pub fn pool_stats() -> PoolStats {
    let snap = obs::snapshot();
    let counter = |c: obs::Counter| snap.counter(c.name()).unwrap_or(0);
    PoolStats {
        workers: pool_threads(),
        dispatches: counter(obs::Counter::ExecutorDispatches),
        items: counter(obs::Counter::ExecutorItems),
        steals: counter(obs::Counter::ExecutorSteals),
        queue_depth_hwm: snap
            .gauge(obs::Gauge::ExecutorQueueDepthHwm.name())
            .unwrap_or(0),
        nested_collapses: counter(obs::Counter::ExecutorNestedCollapses),
        tickets_revoked: counter(obs::Counter::ExecutorTicketsRevoked),
    }
}

/// The number of worker threads a sweep with the given request would
/// actually use before clamping to the item count: 1 inside an existing
/// sweep worker (nested fans run sequentially), [`pool_threads`] for `0`,
/// otherwise the request itself (served by at most the whole pool — the
/// pool is the parallelism ceiling, so requests beyond it change the
/// partition shape but not the worker count).
///
/// Exposed so callers that partition work *before* fanning out can size
/// their partitions consistently with what [`parallel_map_indexed`] /
/// [`parallel_for_each_mut`] will do.
pub fn effective_threads(requested: usize) -> usize {
    if IN_SWEEP.with(Cell::get) {
        obs::incr(obs::Counter::ExecutorNestedCollapses);
        1
    } else if requested == 0 {
        pool_threads()
    } else {
        requested
    }
}

/// Core dispatch: runs `task(0..n)` over the pool with up to `threads`
/// participants (caller included), blocking until every index is done.
/// Caller must have resolved `threads ≥ 2` and `n ≥ 2`.
fn dispatch(n: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    let pool = Pool::global();
    pool.ensure_workers();
    let span = obs::timer(obs::Hist::ExecutorDispatchNs);
    obs::incr(obs::Counter::ExecutorDispatches);
    // Participants: the caller plus however many pool workers the request
    // and the item count justify.
    let tickets = threads.min(pool.threads).saturating_sub(1).min(n - 1);
    if tickets == 0 {
        // No pool workers to enlist (single-thread pool, or a one-item
        // job): run inline. The caller is not flagged as a sweep worker
        // here — with a sequential pool, nested fans are sequential anyway.
        for i in 0..n {
            task(i);
        }
        obs::add(obs::Counter::ExecutorItems, n as u64);
        span.stop();
        return;
    }

    // SAFETY: the borrow of `task` outlives this function call, and this
    // function does not return until the caller's own loop is finished
    // and every claimed ticket has retired (`revoke` + the wait below) —
    // no worker dereferences the pointer after that.
    let erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let job = Arc::new(Job {
        cursor: AtomicUsize::new(0),
        n,
        task: erased,
        state: Mutex::new(JobState {
            outstanding: tickets,
            panic: None,
        }),
        done: Condvar::new(),
    });
    pool.submit(&job, tickets);

    // The caller participates as one more worker, flagged as a sweep
    // worker so nested fans inside `task` run sequentially.
    let caller_result = {
        let was = IN_SWEEP.with(|flag| flag.replace(true));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let ran = job.run_cursor();
            obs::add(obs::Counter::ExecutorItems, ran as u64);
        }));
        IN_SWEEP.with(|flag| flag.set(was));
        result
    };

    // Tickets no worker claimed carry no borrow of `task`; revoke them so
    // a pool busy with other jobs cannot delay this (already finished)
    // one, then wait out the claimed tickets.
    pool.revoke(&job);
    {
        let mut state = job.state.lock().expect("sweep job state poisoned");
        while state.outstanding > 0 {
            state = job.done.wait(state).expect("sweep job state poisoned");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
}

/// Applies `f` to every item on up to `threads` pooled workers (0 = the
/// resolved pool size, see [`pool_threads`]), returning outputs in input
/// order.
///
/// `f` must be `Sync` (shared across workers) and is given `(index, item)`
/// so callers can derive per-cell seeds from the index. Calls nested
/// inside another sweep's worker run sequentially on that worker — the
/// outer sweep already owns the machine's parallelism. Output is
/// identical to the sequential path for any thread count (input-order
/// result slots; pinned by proptest).
pub fn parallel_map_indexed<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads).min(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }

    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    dispatch(n, threads, &|i| {
        let out = f(i, &items[i]);
        *slots[i].lock().expect("sweep slot poisoned") = Some(out);
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("missing sweep result")
        })
        .collect()
}

/// Runs `f` on every item **in place** over up to `threads` pooled
/// workers (0 = the resolved pool size) with the same dynamic work
/// stealing and nested-sweep sequential fallback as
/// [`parallel_map_indexed`]. This is the executor for stateful shards —
/// e.g. the independent δ-lanes of a batched simulation, each owning its
/// algorithm clone and cost accumulators — where results are written
/// into the items rather than collected. Because the pool persists,
/// engines that fan out repeatedly (one call per 256-step stream block)
/// reuse the same workers instead of paying a spawn/join barrier per
/// call.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let threads = effective_threads(threads).min(n);
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    let slots: Vec<Mutex<Option<&mut T>>> = items.iter_mut().map(|r| Mutex::new(Some(r))).collect();
    dispatch(n, threads, &|i| {
        let item = slots[i]
            .lock()
            .expect("sweep slot poisoned")
            .take()
            .expect("sweep item claimed twice");
        f(i, item);
    });
}

/// Why one item of a supervised fan-out ([`try_parallel_map_indexed`])
/// produced no result. Carries the attempt count so callers can tell a
/// flaky lane (succeeded-after-retry lanes don't appear here at all) from
/// a deterministically broken one.
#[derive(Debug)]
pub enum LaneError<E> {
    /// The item's closure panicked on every attempt; `message` renders
    /// the final panic payload.
    Panicked {
        /// Attempts made (= the configured bound).
        attempts: usize,
        /// The final panic payload, rendered where possible.
        message: String,
    },
    /// The item's closure returned `Err` on every attempt; `error` is the
    /// final one.
    Failed {
        /// Attempts made (= the configured bound).
        attempts: usize,
        /// The final error.
        error: E,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for LaneError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneError::Panicked { attempts, message } => {
                write!(f, "lane panicked after {attempts} attempt(s): {message}")
            }
            LaneError::Failed { attempts, error } => {
                write!(f, "lane failed after {attempts} attempt(s): {error}")
            }
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for LaneError<E> {}

/// Renders a caught panic payload (`&str` or `String`) for error reports;
/// other payload types collapse to a fixed placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Supervised twin of [`parallel_map_indexed`]: per-item `Result`s
/// instead of all-or-nothing. Each item's closure runs under
/// `catch_unwind` with up to `attempts` tries (0 is treated as 1), so a
/// poisoned lane — a panic or an `Err` — is confined to its own output
/// slot while every other lane completes; no panic ever reaches the pool
/// dispatcher from here. This is the degraded-mode fan for long
/// multi-seed sweeps where losing one seed must not abort hours of
/// sibling work.
///
/// Retrying is what makes *transient* faults (an injected
/// `ErrorKind::Interrupted`, a flaky filesystem) invisible: a lane that
/// succeeds on attempt 2 returns plain `Ok` with no trace of the retry.
/// Deterministic failures exhaust the bound and report the final
/// panic/error with the attempt count ([`LaneError`]).
pub fn try_parallel_map_indexed<I, O, E, F>(
    items: &[I],
    threads: usize,
    attempts: usize,
    f: F,
) -> Vec<Result<O, LaneError<E>>>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<O, E> + Sync,
{
    try_parallel_map_indexed_backoff(items, threads, attempts, BackoffSchedule::none(), f)
}

/// A deterministic retry-delay schedule: the pause before attempt `k+1`
/// of lane `i` is a pure function of `(seed, i, k)` — exponential growth
/// from `base_ns` with seeded jitter, capped at `max_ns`. No wall-clock
/// or RNG state enters the schedule, so a supervised fan replays its
/// exact retry timing from the seed; two fans with the same seed pause
/// identically whether or not the faults they absorb recur.
#[derive(Clone, Copy, Debug)]
pub struct BackoffSchedule {
    seed: u64,
    base_ns: u64,
    max_ns: u64,
}

impl BackoffSchedule {
    /// A schedule starting at `base_ns` and doubling per attempt up to
    /// `max_ns`, jittered deterministically from `seed`.
    pub fn new(seed: u64, base_ns: u64, max_ns: u64) -> Self {
        BackoffSchedule {
            seed,
            base_ns,
            max_ns: max_ns.max(base_ns),
        }
    }

    /// The zero schedule: retries follow immediately (the historical
    /// behavior of [`try_parallel_map_indexed`]).
    pub fn none() -> Self {
        BackoffSchedule {
            seed: 0,
            base_ns: 0,
            max_ns: 0,
        }
    }

    /// The pause, in nanoseconds, between attempt `attempt` (1-based) and
    /// the next one for lane `lane`. Deterministic; 0 for [`Self::none`].
    pub fn delay_ns(&self, lane: usize, attempt: usize) -> u64 {
        if self.base_ns == 0 {
            return 0;
        }
        let exp = self
            .base_ns
            .saturating_mul(1u64 << (attempt - 1).min(20) as u32);
        // SplitMix64 over (seed, lane, attempt): stateless, replayable.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + lane as u64))
            .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(attempt as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Jitter in [½·exp, exp): full-rate retry storms never synchronize.
        let jittered = exp / 2 + z % (exp / 2).max(1);
        jittered.min(self.max_ns)
    }
}

/// [`try_parallel_map_indexed`] with a deterministic, seeded backoff
/// pause between attempts (see [`BackoffSchedule`]). Every retry is
/// counted on `executor.retries`; the pause happens on the lane's worker
/// only, so sibling lanes keep running while a flaky lane waits out its
/// schedule.
pub fn try_parallel_map_indexed_backoff<I, O, E, F>(
    items: &[I],
    threads: usize,
    attempts: usize,
    backoff: BackoffSchedule,
    f: F,
) -> Vec<Result<O, LaneError<E>>>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<O, E> + Sync,
{
    let attempts = attempts.max(1);
    parallel_map_indexed(items, threads, |i, item| {
        let mut last = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                obs::incr(obs::Counter::ExecutorRetries);
                let delay = backoff.delay_ns(i, attempt - 1);
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_nanos(delay));
                }
            }
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(Ok(out)) => return Ok(out),
                Ok(Err(error)) => {
                    last = Some(LaneError::Failed {
                        attempts: attempt,
                        error,
                    })
                }
                Err(payload) => {
                    last = Some(LaneError::Panicked {
                        attempts: attempt,
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        }
        Err(last.expect("at least one attempt was made"))
    })
}

/// [`parallel_map_indexed`] without the index, using the whole pool.
pub fn parallel_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_indexed(items, 0, |_, item| f(item))
}

/// The pre-PR-5 scoped executor: spawns `threads` fresh
/// `std::thread::scope` workers **per call** and joins them before
/// returning. Retained as the parity oracle of [`parallel_map_indexed`]
/// (identical input-order results — pinned by tests) and as the measured
/// baseline of the `executor_pooled_fanout` entry in the `BENCH_*.json`
/// records: the difference between this and the pooled path is exactly
/// the per-call spawn/join barrier the persistent pool removes. Not a
/// fast path — use [`parallel_map_indexed`].
pub fn scoped_map_indexed<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads).min(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_SWEEP.with(|flag| flag.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i, &items[i]);
                    *slots[i].lock().expect("sweep slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("missing sweep result")
        })
        .collect()
}

/// Scoped (spawn-per-call) twin of [`parallel_for_each_mut`]; see
/// [`scoped_map_indexed`] for why it is retained.
pub fn scoped_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let threads = effective_threads(threads).min(n);
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<&mut T>>> = items.iter_mut().map(|r| Mutex::new(Some(r))).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_SWEEP.with(|flag| flag.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("sweep slot poisoned")
                        .take()
                        .expect("sweep item claimed twice");
                    f(i, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_empty_output() {
        let items: Vec<u32> = vec![];
        let out = parallel_map(&items, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let count = AtomicUsize::new(0);
        let out = parallel_map(&items, |x| {
            count.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn single_thread_path() {
        let items: Vec<usize> = (0..10).collect();
        let out = parallel_map_indexed(&items, 1, |i, x| i + x);
        assert_eq!(out, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn index_matches_position() {
        let items: Vec<&str> = vec!["a", "b", "c", "d"];
        let out = parallel_map_indexed(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn nested_sweeps_stay_ordered_and_sequential_inside_workers() {
        let outer: Vec<usize> = (0..8).collect();
        let out = parallel_map(&outer, |&cell| {
            // Inner fan: must run (sequentially) on the worker and still
            // return ordered results.
            let inner: Vec<usize> = (0..5).collect();
            parallel_map(&inner, move |&s| cell * 10 + s)
        });
        for (cell, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..5).map(|s| cell * 10 + s).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let mut items: Vec<usize> = (0..200).collect();
        parallel_for_each_mut(&mut items, 0, |i, item| {
            assert_eq!(*item, i);
            *item += 1000;
        });
        assert_eq!(items, (1000..1200).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_sequential_and_empty_paths() {
        let mut empty: Vec<u8> = vec![];
        parallel_for_each_mut(&mut empty, 0, |_, _| unreachable!());
        let mut one = vec![5usize];
        parallel_for_each_mut(&mut one, 1, |i, item| *item += i);
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn for_each_mut_nested_inside_sweep_runs_sequentially() {
        let outer: Vec<usize> = (0..4).collect();
        let out = parallel_map(&outer, |&cell| {
            let mut inner: Vec<usize> = (0..6).collect();
            parallel_for_each_mut(&mut inner, 0, |_, v| *v += cell);
            inner
        });
        for (cell, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..6).map(|v| v + cell).collect::<Vec<_>>());
        }
    }

    #[test]
    fn effective_threads_resolves_requests() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(0), pool_threads());
        // Inside a sweep fan (whether on a pool worker or the
        // participating caller), everything collapses to one thread.
        let items = [0usize; 2];
        let nested = parallel_map(&items, |_| effective_threads(0));
        assert!(nested.iter().all(|&t| t == 1));
    }

    #[test]
    fn heavier_work_still_ordered() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |x| {
            // Unequal work per item to scramble completion order.
            let mut acc = 0u64;
            for i in 0..(*x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (*x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x as usize, i);
        }
    }

    #[test]
    fn repeated_fanouts_reuse_the_pool_without_leaking_state() {
        // One fan-out per iteration — the streaming-block dispatch shape.
        // Every iteration must see clean results (job state is per-job,
        // not per-pool).
        let items: Vec<usize> = (0..16).collect();
        for round in 0..200 {
            let out = parallel_map_indexed(&items, 0, |i, x| i + x + round);
            assert_eq!(
                out,
                (0..16).map(|x| 2 * x + round).collect::<Vec<_>>(),
                "round {round}"
            );
        }
    }

    #[test]
    fn scoped_twins_match_pooled_results() {
        let items: Vec<u64> = (0..257).collect();
        let pooled = parallel_map_indexed(&items, 0, |i, x| x * 3 + i as u64);
        let scoped = scoped_map_indexed(&items, 0, |i, x| x * 3 + i as u64);
        assert_eq!(pooled, scoped);

        let mut a: Vec<u64> = (0..300).collect();
        let mut b = a.clone();
        parallel_for_each_mut(&mut a, 3, |i, v| *v = v.wrapping_mul(7) ^ i as u64);
        scoped_for_each_mut(&mut b, 3, |i, v| *v = v.wrapping_mul(7) ^ i as u64);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_indexed(&items, 0, |i, _| {
                assert!(i != 13, "intentional test panic");
                i
            })
        }));
        assert!(result.is_err(), "panic must cross the dispatch boundary");
        // The pool must still be usable afterwards.
        let out = parallel_map(&items, |x| x + 1);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn supervised_fan_confines_a_panicking_lane() {
        // The crash-safety contract: one poisoned lane must not abort the
        // sweep. Lane 5 panics on every attempt; every other lane's result
        // still lands in its slot.
        let items: Vec<usize> = (0..32).collect();
        let out = try_parallel_map_indexed(&items, 0, 2, |i, x| {
            assert!(i != 5, "injected fault: poisoned lane");
            Ok::<usize, String>(x * 2)
        });
        assert_eq!(out.len(), 32);
        for (i, slot) in out.iter().enumerate() {
            if i == 5 {
                match slot {
                    Err(LaneError::Panicked { attempts, message }) => {
                        assert_eq!(*attempts, 2, "the retry bound must be exhausted");
                        assert!(message.contains("poisoned lane"), "payload: {message}");
                    }
                    other => panic!("lane 5 must report a panic, got {other:?}"),
                }
            } else {
                assert_eq!(*slot.as_ref().unwrap(), 2 * i);
            }
        }
        // The pool survives: a plain fan still works afterwards.
        let out = parallel_map(&items, |x| x + 1);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn supervised_fan_retries_transient_failures_to_success() {
        // Each lane fails (half by Err, half by panic) exactly once, then
        // succeeds — the bounded retry must absorb both kinds silently.
        let items: Vec<usize> = (0..16).collect();
        let tries: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        let out = try_parallel_map_indexed(&items, 0, 3, |i, x| {
            if tries[i].fetch_add(1, Ordering::SeqCst) == 0 {
                if i % 2 == 0 {
                    return Err("transient".to_string());
                }
                panic!("transient");
            }
            Ok(x * x)
        });
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(*slot.as_ref().unwrap(), i * i, "lane {i}");
            assert_eq!(tries[i].load(Ordering::SeqCst), 2, "lane {i} attempts");
        }
    }

    #[test]
    fn supervised_fan_reports_the_final_error_with_attempt_count() {
        let items = [0_usize];
        let out = try_parallel_map_indexed(&items, 1, 4, |_, _| {
            Err::<(), String>("deterministic failure".to_string())
        });
        match &out[0] {
            Err(LaneError::Failed { attempts, error }) => {
                assert_eq!(*attempts, 4);
                assert_eq!(error, "deterministic failure");
                let rendered = format!("{}", out[0].as_ref().unwrap_err());
                assert!(rendered.contains("after 4 attempt(s)"), "{rendered}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn pool_stats_reflect_a_fan() {
        // Sibling tests share the process-global registry, so compare
        // before/after deltas (concurrent fans only push counters up).
        let _flag = obs::test_lock();
        obs::enable();
        let before = pool_stats();
        let items: Vec<usize> = (0..128).collect();
        let out = parallel_map_indexed(&items, 0, |i, x| i + x);
        assert_eq!(out.len(), 128);
        let after = pool_stats();
        assert_eq!(after.workers, pool_threads());
        if pool_threads() >= 2 {
            assert!(
                after.dispatches > before.dispatches,
                "a multi-thread fan must count a dispatch: {before:?} -> {after:?}"
            );
            assert!(
                after.items >= before.items + 128,
                "all 128 items must be counted: {before:?} -> {after:?}"
            );
            assert!(after.queue_depth_hwm >= 1, "tickets were queued");

            // A fan nested inside a sweep worker must count a collapse
            // (with a 1-thread pool the outer fan is sequential and never
            // flags its thread, so there is nothing to collapse).
            let collapsed_before = pool_stats().nested_collapses;
            let outer: Vec<usize> = (0..4).collect();
            parallel_map(&outer, |_| {
                let inner = [0usize; 4];
                parallel_map(&inner, |x| *x)
            });
            assert!(
                pool_stats().nested_collapses > collapsed_before,
                "nested fans inside workers collapse and are counted"
            );
        }
    }

    #[test]
    fn requests_beyond_the_pool_are_served_by_the_pool() {
        // More threads requested than the pool owns: the fan must still
        // complete correctly (the pool is the ceiling, not a panic).
        let items: Vec<usize> = (0..97).collect();
        let out = parallel_map_indexed(&items, 64, |i, x| i * x);
        assert_eq!(out, (0..97).map(|x| x * x).collect::<Vec<_>>());
    }
}
