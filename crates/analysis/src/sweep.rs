//! Order-preserving parallel execution for experiment sweeps on scoped
//! threads.
//!
//! Experiment grids are embarrassingly parallel: every cell is an
//! independent (seeded) simulation. Each fan-out runs inside one
//! [`std::thread::scope`]:
//!
//! * **The caller participates.** A fan of width `k` spawns `k − 1`
//!   scoped threads; they and the caller claim items from one atomic
//!   cursor, so cells of unequal cost balance dynamically.
//! * **Borrowed closures work**, because the scope joins every thread
//!   before the fan returns. A panic in any item stops further claims
//!   and is re-raised on the caller, payload intact, once every thread
//!   has stopped.
//! * **Results stay deterministic.** Outputs land in input-order slots,
//!   so tables render identically regardless of scheduling, and
//!   [`parallel_map_indexed`] is output-identical to the sequential path
//!   (pinned by proptest in `tests/executor_semantics.rs`).
//! * **Width 1 runs inline.** It spawns nothing and counts no dispatch.
//!
//! The **no-oversubscription guarantee**: every participant is flagged as
//! a sweep worker while it runs a fan, so a nested fan — a seed fan
//! inside a cell fan — runs sequentially on its worker instead of
//! multiplying CPU-bound threads to `cores × cells`; and no fan is wider
//! than [`pool_threads`], whatever it requests.
//!
//! ## Sizing and `MSP_THREADS`
//!
//! The thread budget is resolved **once**, at first use, as:
//!
//! 1. the `MSP_THREADS` environment variable, when set to a positive
//!    integer (the CI contention job pins `MSP_THREADS=2` so scheduling
//!    races surface under contention rather than only on many-core
//!    runners);
//! 2. otherwise [`std::thread::available_parallelism`];
//! 3. otherwise — only when the platform cannot report a count — **1**,
//!    i.e. fully sequential execution rather than an arbitrary guess.
//!
//! [`pool_threads`] exposes the resolved value so engines that partition
//! work *before* fanning out can size their partitions consistently.

use crate::obs;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// True while the current thread runs a fan (a spawned participant,
    /// or the caller while it participates). Nested `parallel_map*`
    /// calls (a seed fan inside a cell fan) then run sequentially instead
    /// of multiplying CPU-bound threads to `cores × cells`.
    static IN_SWEEP: Cell<bool> = const { Cell::new(false) };
}

/// Resolves the thread budget once: `MSP_THREADS` override, else the
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

/// The resolved thread budget of every fan: the `MSP_THREADS`
/// environment override when set to a positive integer, otherwise the
/// available CPU count, otherwise 1. Resolved once at first use and
/// stable for the life of the process; this is what a `threads = 0`
/// request fans out to, and the hard ceiling on any fan's width (the
/// caller included).
pub fn pool_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(resolve_pool_threads)
}

/// The number of threads a sweep with the given request asks for, before
/// clamping to [`pool_threads`] and the item count: 1 inside an existing
/// sweep worker (nested fans run sequentially), [`pool_threads`] for `0`,
/// otherwise the request itself.
///
/// Exposed so callers that partition work *before* fanning out can size
/// their partitions consistently with what [`parallel_map_indexed`] will
/// do.
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

/// Runs `task(0..n)` on `width ≥ 2` participants — the caller and
/// `width − 1` scoped threads claiming indices from one atomic cursor —
/// and returns once every index is done. The first panic stops further
/// claims and is re-raised on the caller after every participant has
/// stopped.
fn fan(n: usize, width: usize, task: &(dyn Fn(usize) + Sync)) {
    let span = obs::timer(obs::Hist::ExecutorDispatchNs);
    obs::incr(obs::Counter::ExecutorDispatches);
    let cursor = AtomicUsize::new(0);
    let participate = || {
        let was = IN_SWEEP.with(|flag| flag.replace(true));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut ran = 0u64;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                task(i);
                ran += 1;
            }
            obs::add(obs::Counter::ExecutorItems, ran);
        }));
        IN_SWEEP.with(|flag| flag.set(was));
        if result.is_err() {
            // Park the cursor at the end so the other participants stop
            // claiming items of a fan that is already doomed.
            cursor.store(n, Ordering::Relaxed);
        }
        result
    };
    let panic = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..width).map(|_| scope.spawn(participate)).collect();
        let own = participate();
        spawned
            .into_iter()
            .map(|handle| handle.join().and_then(|result| result))
            .chain([own])
            .find_map(Result::err)
    });
    span.stop();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Applies `f` to every item on up to `threads` threads (0 = the
/// resolved budget, see [`pool_threads`]), returning outputs in input
/// order.
///
/// `f` must be `Sync` (shared across threads) and is given
/// `(index, item)` so callers can derive per-cell seeds from the index.
/// Calls nested inside another sweep's worker run sequentially on that
/// worker — the outer sweep already owns the machine's parallelism.
/// Output is identical to the sequential path for any thread count
/// (input-order result slots; pinned by proptest).
pub fn parallel_map_indexed<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let mut slots: Vec<Option<O>> = items.iter().map(|_| None).collect();
    parallel_for_each_mut(&mut slots, threads, |i, slot| {
        *slot = Some(f(i, &items[i]));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("missing sweep result"))
        .collect()
}

/// Runs `f` on every item **in place** on up to `threads` threads (0 =
/// the resolved budget) with dynamic work claiming and the nested-sweep
/// sequential fallback: the fan under [`parallel_map_indexed`], which
/// writes each result into its input-order slot.
fn parallel_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    // The effective request, capped by the thread budget and the items.
    let width = effective_threads(threads).min(pool_threads()).min(n);
    if width <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    let slots: Vec<Mutex<Option<&mut T>>> = items.iter_mut().map(|r| Mutex::new(Some(r))).collect();
    fan(n, width, &|i| {
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
/// slot while every other lane completes; no panic ever reaches the fan
/// from here. This is the degraded-mode fan for long
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

/// [`parallel_map_indexed`] without the index, at the full thread budget.
pub fn parallel_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_map_indexed(items, 0, |_, item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, prop, prop_assert_eq, proptest, ProptestConfig};
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-place fan leaves exactly the sequential result for any
        /// thread request, with every item visited exactly once.
        #[test]
        fn pooled_for_each_mut_is_output_identical_to_sequential(
            items in prop::collection::vec(any::<u64>(), 0..300),
            threads in 0usize..9,
        ) {
            let f = |i: usize, v: &mut u64| *v = v.wrapping_mul(0x9E3779B9).rotate_left(7) ^ i as u64;
            let mut sequential = items.clone();
            for (i, v) in sequential.iter_mut().enumerate() {
                f(i, v);
            }
            let mut pooled = items.clone();
            parallel_for_each_mut(&mut pooled, threads, f);
            prop_assert_eq!(&pooled, &sequential);
        }
    }

    #[test]
    fn effective_threads_resolves_requests() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(0), pool_threads());
        // Inside a sweep fan (whether on a spawned participant or the
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
        // One fan-out per iteration: every iteration must see clean
        // results (cursor and slots are per fan, nothing outlives it).
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
    fn worker_panic_propagates_to_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_indexed(&items, 0, |i, _| {
                assert!(i != 13, "intentional test panic");
                i
            })
        }));
        let payload = result.expect_err("panic must cross the fan boundary");
        assert!(
            panic_message(payload.as_ref()).contains("intentional test panic"),
            "the payload is forwarded intact"
        );
        // The caller is no longer flagged as a sweep worker, so the next
        // fan still runs at full width.
        assert_eq!(effective_threads(0), pool_threads());
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
        // A plain fan still works afterwards.
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
    fn executor_counters_reflect_a_fan() {
        // Sibling tests share the process-global registry, so compare
        // before/after deltas (concurrent fans only push counters up).
        let _flag = obs::test_lock();
        obs::enable();
        let counter = |c: obs::Counter| obs::snapshot().counter(c.name()).unwrap_or(0);
        let (dispatches, items_run) = (
            counter(obs::Counter::ExecutorDispatches),
            counter(obs::Counter::ExecutorItems),
        );
        let items: Vec<usize> = (0..128).collect();
        let out = parallel_map_indexed(&items, 0, |i, x| i + x);
        assert_eq!(out.len(), 128);
        if pool_threads() >= 2 {
            assert!(
                counter(obs::Counter::ExecutorDispatches) > dispatches,
                "a multi-thread fan must count a dispatch"
            );
            assert!(
                counter(obs::Counter::ExecutorItems) >= items_run + 128,
                "all 128 items must be counted"
            );

            // A fan nested inside a sweep worker must count a collapse
            // (with a 1-thread budget the outer fan is sequential and
            // never flags its thread, so there is nothing to collapse).
            let collapsed = counter(obs::Counter::ExecutorNestedCollapses);
            let outer: Vec<usize> = (0..4).collect();
            parallel_map(&outer, |_| {
                let inner = [0usize; 4];
                parallel_map(&inner, |x| *x)
            });
            assert!(
                counter(obs::Counter::ExecutorNestedCollapses) > collapsed,
                "nested fans inside workers collapse and are counted"
            );
        }
    }

    #[test]
    fn a_fan_runs_on_at_most_its_width_in_threads() {
        let items: Vec<usize> = (0..64).collect();
        let caller = std::thread::current().id();
        let inline = parallel_map_indexed(&items, 1, |_, _| std::thread::current().id());
        assert!(
            inline.iter().all(|&id| id == caller),
            "width 1 runs inline on the caller"
        );
        let ids = parallel_map_indexed(&items, 2, |_, x| {
            // Enough work per item that the spawned thread joins in, so
            // a fan running on more threads than its width would show.
            let mut acc = *x as u64;
            for k in 0..20_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (std::thread::current().id(), acc)
        });
        let distinct: std::collections::HashSet<_> = ids.iter().map(|(id, _)| *id).collect();
        assert!(
            distinct.len() <= 2.min(pool_threads()),
            "a width-2 fan uses the caller and at most one more thread: {distinct:?}"
        );
    }

    #[test]
    fn requests_beyond_the_pool_are_served_by_the_pool() {
        // More threads requested than the budget allows: the fan must
        // still complete correctly (the budget is the ceiling).
        let items: Vec<usize> = (0..97).collect();
        let out = parallel_map_indexed(&items, 64, |i, x| i * x);
        assert_eq!(out, (0..97).map(|x| x * x).collect::<Vec<_>>());
    }
}
