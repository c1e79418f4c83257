//! Process-wide observability registry: lock-free sharded counters,
//! power-of-two histograms, and span timers, exportable as a
//! deterministic JSON [`MetricsSnapshot`].
//!
//! Every tier of the system reports through this module — the executor
//! (`sweep`), the grid DP (`msp-offline`), the median solver (via
//! `msp-core`'s Move-to-Center), the streaming simulator, the checkpoint
//! journal and the session service (`msp-scenarios` — the `service.*`
//! metric family), and the live ratio probe. The registry is the *only* shared state:
//! metric identities are a closed enum, storage is static, and nothing
//! here allocates or locks on the hot path.
//!
//! ## Determinism contract
//!
//! Observation is **read-only**: no instrumented code path branches on a
//! metric value, so enabling or disabling metrics cannot change any
//! simulation or solver result — batch and streaming trajectories
//! are bit-equal either way (pinned by `tests/observability.rs`).
//! Snapshots carry **no timestamps or wall-clock fields**; timing
//! distributions appear only as histogram summaries, so two runs of the
//! same workload produce snapshots with the identical key set and
//! identical counter values (histogram *values* vary with machine speed,
//! their schema does not).
//!
//! ## Cost model
//!
//! Metrics are **disabled by default**. Disabled, every probe is a single
//! relaxed atomic load (sub-nanosecond) and span timers never read the
//! clock. Enabled, counters add into one of [`SHARDS`] cache-line-padded
//! atomic shards chosen per thread, so concurrent sweep workers do not
//! contend on a single line; histograms record into power-of-two buckets
//! with a handful of relaxed atomic adds. Hot loops accumulate locally
//! and flush once per step/block/dispatch, keeping the instrumented path
//! within a few percent of the uninstrumented one (the
//! `obs_overhead_streaming` pair of `perf_report` measures and gates
//! this).
//!
//! ```
//! use msp_analysis::obs;
//!
//! obs::enable();
//! obs::add(obs::Counter::StreamSteps, 256);
//! let t = obs::timer(obs::Hist::ExecutorDispatchNs);
//! drop(t); // records the elapsed nanoseconds
//! let snap = obs::snapshot();
//! assert!(snap.counter("stream.steps").unwrap() >= 256);
//! obs::disable();
//! ```

use crate::json::Json;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of per-thread shards behind every counter. Eight lines absorb
/// realistic sweep widths; more would only pad the static footprint.
pub const SHARDS: usize = 8;

/// Identity string of the snapshot schema; bumped when the key set or
/// layout changes so downstream consumers can validate what they parse.
pub const SCHEMA: &str = "msp-metrics-v3";

// ---------------------------------------------------------------------
// Metric identities
// ---------------------------------------------------------------------

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $str:expr,)+ }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (= snapshot) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The stable dotted metric name used in snapshots and docs.
            pub const fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotone event counters. Units are events unless the name says
    /// otherwise; see `docs/OBSERVABILITY.md` for per-metric semantics.
    Counter {
        /// Fan-outs run on two or more threads (width-1 fans run inline
        /// and are not counted).
        ExecutorDispatches => "executor.dispatches",
        /// Work items executed by those fan-outs (caller + spawned threads).
        ExecutorItems => "executor.items",
        /// Nested fans collapsed to sequential on a sweep worker.
        ExecutorNestedCollapses => "executor.nested_collapses",
        /// Supervised-lane retry attempts after a failure or panic.
        ExecutorRetries => "executor.retries",
        /// Grid-DP passes started (`GridDp::solve`, `solve_unpruned`,
        /// `prefix_optima`).
        GridSolves => "grid_dp.solves",
        /// Grid-DP transition steps executed.
        GridSteps => "grid_dp.steps",
        /// Source/target cell pairs scanned by the all-pairs kernel.
        GridAllPairsCells => "grid_dp.allpairs_cells",
        /// Candidate cells scanned by the windowed kernel.
        GridWindowedCells => "grid_dp.windowed_cells",
        /// Geometric-median solves (routed from `MedianTelemetry`).
        MedianSolves => "median.solves",
        /// Total Weiszfeld iterations across median solves.
        MedianIterations => "median.iterations",
        /// Always 0: every median solve starts from the weighted centroid.
        /// Kept because perfbench's `median.warm_share` reads it.
        MedianWarmStarts => "median.warm_starts",
        /// Streaming sessions started or resumed.
        StreamSessions => "stream.sessions",
        /// Steps fed through streaming simulators (64-step granularity).
        StreamSteps => "stream.steps",
        /// Checkpoints snapshotted from live sessions.
        StreamCheckpoints => "stream.checkpoints",
        /// Records appended to checkpoint journals.
        JournalAppends => "journal.appends",
        /// Journal recoveries that reported a torn tail.
        JournalTornTails => "journal.torn_tails",
        /// Journal records rejected by the CRC-32 check.
        JournalCrcRejects => "journal.crc_rejects",
        /// v3 trace blocks encoded and flushed by block-trace writers.
        TraceBlocksWritten => "trace.blocks_written",
        /// v3 trace blocks decoded (CRC verified) by block-trace readers.
        TraceBlocksRead => "trace.blocks_read",
        /// Index-trailer seeks served by `seek_to_step`.
        TraceSeeks => "trace.seeks",
        /// v3 blocks or index trailers rejected by the CRC-32 check.
        TraceCrcRejects => "trace.crc_rejects",
        /// Ratio-probe report blocks emitted by probed sessions.
        ProbeBlocks => "probe.blocks",
        /// Windowed grid lower bounds solved by ratio probes.
        ProbeGridBounds => "probe.grid_bounds",
        /// Sessions opened (or re-opened after recovery) by a session
        /// service (the `service.*` metric family; `docs/SESSIONS.md`).
        ServiceSessions => "service.sessions",
        /// Sessions evicted from residency (to an in-memory checkpoint or
        /// the journal).
        ServiceEvictions => "service.evictions",
        /// Evictions that spilled the session to its durable journal.
        ServiceSpills => "service.spills",
        /// Cold sessions rebuilt into live simulations on access.
        ServiceResumes => "service.resumes",
        /// Sessions quarantined after exhausting their retry budget.
        ServiceQuarantines => "service.quarantines",
        /// Loud durable→memory-only degradations on journal errors.
        ServiceDegradations => "service.degradations",
    }
}

metric_enum! {
    /// High-water-mark gauges (`record = fetch_max`).
    Gauge {
        /// Most sessions simultaneously resident in a session service.
        ServiceResidentHwm => "service.resident_hwm",
    }
}

metric_enum! {
    /// Distribution metrics: power-of-two bucketed histograms.
    Hist {
        /// Wall-clock of one multi-thread fan-out, nanoseconds.
        ExecutorDispatchNs => "executor.dispatch_ns",
        /// Wall-clock of one grid-DP transition step, nanoseconds.
        GridStepNs => "grid_dp.step_ns",
        /// Wall-clock of one journal append (encode + write), nanoseconds.
        JournalAppendNs => "journal.append_ns",
        /// Wall-clock of the fsync inside a durable append, nanoseconds.
        JournalFsyncNs => "journal.fsync_ns",
        /// Steps between consecutive appends of one journal writer.
        JournalCheckpointGapSteps => "journal.checkpoint_gap_steps",
        /// Wall-clock of one windowed grid lower-bound solve, nanoseconds.
        ProbeBoundNs => "probe.bound_ns",
        /// Live ratio `alg_cost / lower_bound` per report block, ×1000.
        ProbeRatioPermille => "probe.ratio_permille",
        /// Wall-clock of one cold-session resume (checkpoint restore or
        /// journal recovery plus stream fast-forward), nanoseconds.
        ServiceResumeNs => "service.resume_ns",
        /// Steps delivered per session-service advance call.
        ServiceAdvanceSteps => "service.advance_steps",
    }
}

impl Hist {
    /// The unit of recorded values, for snapshot consumers.
    pub const fn unit(self) -> &'static str {
        match self {
            Hist::ExecutorDispatchNs
            | Hist::GridStepNs
            | Hist::JournalAppendNs
            | Hist::JournalFsyncNs
            | Hist::ProbeBoundNs
            | Hist::ServiceResumeNs => "ns",
            Hist::JournalCheckpointGapSteps | Hist::ServiceAdvanceSteps => "steps",
            Hist::ProbeRatioPermille => "permille",
        }
    }
}

// ---------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------

/// One atomic on its own cache line, so shards of the same counter never
/// false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

struct ShardedCounter([PaddedU64; SHARDS]);

impl ShardedCounter {
    fn total(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.0 {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

const HIST_BUCKETS: usize = 64;

/// Power-of-two histogram: bucket `b` holds values with bit length `b`
/// (bucket 0 holds the value 0). Unsharded — histogram records sit on
/// coarse operations (dispatches, journal appends, probe blocks), not in
/// per-item loops.
struct HistStore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistStore {
    fn record(&self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[allow(clippy::declare_interior_mutable_const)] // template for static array init
const ZERO_PAD: PaddedU64 = PaddedU64(AtomicU64::new(0));
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_SHARDS: ShardedCounter = ShardedCounter([ZERO_PAD; SHARDS]);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ATOMIC: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_HIST: HistStore = HistStore {
    buckets: [ZERO_ATOMIC; HIST_BUCKETS],
    count: AtomicU64::new(0),
    sum: AtomicU64::new(0),
    max: AtomicU64::new(0),
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [ShardedCounter; Counter::ALL.len()] = [ZERO_SHARDS; Counter::ALL.len()];
static GAUGES: [ShardedCounter; Gauge::ALL.len()] = [ZERO_SHARDS; Gauge::ALL.len()];
static HISTS: [HistStore; Hist::ALL.len()] = [ZERO_HIST; Hist::ALL.len()];

thread_local! {
    /// This thread's shard index; assigned round-robin on first use.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard() -> usize {
    MY_SHARD.with(|cell| {
        let s = cell.get();
        if s != usize::MAX {
            return s;
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let s = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
        cell.set(s);
        s
    })
}

// ---------------------------------------------------------------------
// Probe API
// ---------------------------------------------------------------------

/// Whether the registry is collecting. The single relaxed load every
/// disabled probe pays.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on. Counters accumulate from their current values;
/// call [`reset`] first for a clean window.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off. Already-recorded values remain readable via
/// [`snapshot`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Adds `n` to a counter. No-op while disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() && n > 0 {
        COUNTERS[counter as usize].0[shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds 1 to a counter. No-op while disabled.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Raises a high-water-mark gauge to at least `value`. No-op while
/// disabled.
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if enabled() {
        // Shard 0 only: a max is not additive across shards.
        GAUGES[gauge as usize].0[0]
            .0
            .fetch_max(value, Ordering::Relaxed);
    }
}

/// Records one value into a histogram. No-op while disabled.
#[inline]
pub fn record(hist: Hist, value: u64) {
    if enabled() {
        HISTS[hist as usize].record(value);
    }
}

/// Starts a span timer for `hist`; the guard records the elapsed
/// nanoseconds when dropped (or via [`SpanTimer::stop`]). While disabled
/// the guard is inert and the clock is never read.
#[inline]
pub fn timer(hist: Hist) -> SpanTimer {
    SpanTimer {
        live: enabled().then(|| (hist, Instant::now())),
    }
}

/// Guard of a timed span; see [`timer`].
#[must_use = "dropping immediately times nothing but the constructor"]
pub struct SpanTimer {
    live: Option<(Hist, Instant)>,
}

impl SpanTimer {
    /// Ends the span now (equivalent to dropping the guard).
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            HISTS[hist as usize].record(ns);
        }
    }
}

/// Zeroes every counter, gauge, and histogram. Probes in flight on other
/// threads may land after the reset; callers that need exact windows
/// should quiesce first (tests compare before/after deltas instead).
pub fn reset() {
    for c in &COUNTERS {
        c.reset();
    }
    for g in &GAUGES {
        g.reset();
    }
    for h in &HISTS {
        h.reset();
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// One summarized histogram in a [`MetricsSnapshot`]. Quantiles are
/// bucket upper bounds (power-of-two resolution), deterministic for a
/// given sequence of recorded values.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Stable dotted metric name.
    pub name: &'static str,
    /// Unit of the recorded values (`ns`, `steps`, `permille`).
    pub unit: &'static str,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

/// A point-in-time copy of the whole registry, exportable as JSON. The
/// key set is closed (every metric always present, zero or not) and the
/// export carries no timestamps — see the module docs' determinism
/// contract.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Whether collection was enabled when the snapshot was taken.
    pub enabled: bool,
    /// `(name, total)` per counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, high-water mark)` per gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram summaries, in [`Hist::ALL`] order.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter total by its dotted name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by its dotted name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by its dotted name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// True when every counter, gauge, and histogram count of `self` is
    /// ≥ its value in `earlier` — the monotonicity check snapshot
    /// consumers (e.g. `scenario_smoke --metrics`) run between two
    /// exports of the same process.
    pub fn dominates(&self, earlier: &MetricsSnapshot) -> bool {
        let counters = earlier
            .counters
            .iter()
            .all(|(n, v)| self.counter(n).is_some_and(|cur| cur >= *v));
        let gauges = earlier
            .gauges
            .iter()
            .all(|(n, v)| self.gauge(n).is_some_and(|cur| cur >= *v));
        let hists = earlier
            .hists
            .iter()
            .all(|h| self.hist(h.name).is_some_and(|cur| cur.count >= h.count));
        counters && gauges && hists
    }

    /// Renders the snapshot as a deterministic JSON object (sorted keys,
    /// closed schema, no timestamps).
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.to_string(), Json::Num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.to_string(), Json::Num(*v as f64)))
                .collect(),
        );
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|h| {
                    let obj = Json::obj([
                        ("unit", Json::Str(h.unit.to_string())),
                        ("count", Json::Num(h.count as f64)),
                        ("sum", Json::Num(h.sum as f64)),
                        ("max", Json::Num(h.max as f64)),
                        ("p50", Json::Num(h.p50 as f64)),
                        ("p90", Json::Num(h.p90 as f64)),
                        ("p99", Json::Num(h.p99 as f64)),
                    ]);
                    (h.name.to_string(), obj)
                })
                .collect(),
        );
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("enabled", Json::Bool(self.enabled)),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", hists),
        ])
    }
}

/// Upper bound of the bucket holding the `q`-quantile (0 when empty).
fn bucket_quantile(buckets: &[u64; HIST_BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (b, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            // Bucket b holds values of bit length b: upper bound 2^b − 1.
            return if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        }
    }
    u64::MAX
}

/// Copies the registry into a [`MetricsSnapshot`]. Cheap (a few hundred
/// relaxed loads); safe to call at any time from any thread.
pub fn snapshot() -> MetricsSnapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), COUNTERS[c as usize].total()))
        .collect();
    let gauges = Gauge::ALL
        .iter()
        .map(|&g| (g.name(), GAUGES[g as usize].0[0].0.load(Ordering::Relaxed)))
        .collect();
    let hists = Hist::ALL
        .iter()
        .map(|&h| {
            let store = &HISTS[h as usize];
            let mut buckets = [0u64; HIST_BUCKETS];
            for (dst, src) in buckets.iter_mut().zip(&store.buckets) {
                *dst = src.load(Ordering::Relaxed);
            }
            let count = store.count.load(Ordering::Relaxed);
            HistSnapshot {
                name: h.name(),
                unit: h.unit(),
                count,
                sum: store.sum.load(Ordering::Relaxed),
                max: store.max.load(Ordering::Relaxed),
                p50: bucket_quantile(&buckets, count, 0.50),
                p90: bucket_quantile(&buckets, count, 0.90),
                p99: bucket_quantile(&buckets, count, 0.99),
            }
        })
        .collect();
    MetricsSnapshot {
        enabled: enabled(),
        counters,
        gauges,
        hists,
    }
}

/// Serializes this crate's tests that flip the process-global collection
/// flag: every test calling [`enable`] or [`disable`] holds the guard for
/// its whole body, so no sibling can flip the flag under it. A test that
/// panicked while holding it leaves no broken state behind, so poisoning
/// is ignored.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and sibling tests run in parallel,
    // so assertions compare before/after deltas (other threads only add),
    // never call `reset`, and flip the flag only under `test_lock`.

    #[test]
    fn disabled_probes_do_not_collect() {
        let _flag = test_lock();
        let was_enabled = enabled();
        disable();
        let before = snapshot();
        add(Counter::GridSolves, 7);
        record(Hist::GridStepNs, 1234);
        gauge_max(Gauge::ServiceResidentHwm, u64::MAX);
        let after = snapshot();
        if was_enabled {
            enable();
        }
        assert_eq!(
            after.counter("grid_dp.solves"),
            before.counter("grid_dp.solves")
        );
        assert_eq!(
            after.hist("grid_dp.step_ns").unwrap().count,
            before.hist("grid_dp.step_ns").unwrap().count
        );
    }

    #[test]
    fn counters_accumulate_across_threads_and_shards() {
        let _flag = test_lock();
        enable();
        let before = snapshot().counter("stream.steps").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        incr(Counter::StreamSteps);
                    }
                });
            }
        });
        let after = snapshot().counter("stream.steps").unwrap();
        assert!(after >= before + 400, "before {before}, after {after}");
    }

    #[test]
    fn histogram_summary_tracks_count_sum_max_and_quantiles() {
        let _flag = test_lock();
        enable();
        let before = snapshot().hist("probe.ratio_permille").cloned().unwrap();
        for v in [0u64, 1, 2, 3, 1000, 1500, 4000] {
            record(Hist::ProbeRatioPermille, v);
        }
        let after = snapshot().hist("probe.ratio_permille").cloned().unwrap();
        assert_eq!(after.count, before.count + 7);
        assert_eq!(after.sum, before.sum + 6506);
        assert!(after.max >= 4000);
        assert!(after.p50 >= 1);
        assert!(after.p99 >= after.p50);
    }

    #[test]
    fn gauge_keeps_the_high_water_mark() {
        let _flag = test_lock();
        enable();
        gauge_max(Gauge::ServiceResidentHwm, 3);
        gauge_max(Gauge::ServiceResidentHwm, 11);
        gauge_max(Gauge::ServiceResidentHwm, 5);
        assert!(snapshot().gauge("service.resident_hwm").unwrap() >= 11);
    }

    #[test]
    fn span_timer_records_once_on_drop() {
        let _flag = test_lock();
        enable();
        let before = snapshot().hist("executor.dispatch_ns").unwrap().count;
        timer(Hist::ExecutorDispatchNs).stop();
        {
            let _span = timer(Hist::ExecutorDispatchNs);
        }
        let after = snapshot().hist("executor.dispatch_ns").unwrap().count;
        assert!(after >= before + 2);
    }

    #[test]
    fn snapshot_schema_is_closed_and_ordered() {
        let snap = snapshot();
        assert_eq!(snap.counters.len(), Counter::ALL.len());
        assert_eq!(snap.gauges.len(), Gauge::ALL.len());
        assert_eq!(snap.hists.len(), Hist::ALL.len());
        for (c, (name, _)) in Counter::ALL.iter().zip(&snap.counters) {
            assert_eq!(c.name(), *name);
        }
        let rendered = snap.to_json().to_string();
        assert!(rendered.contains("\"schema\":\"msp-metrics-v3\""));
        for c in Counter::ALL {
            assert!(rendered.contains(c.name()), "missing {}", c.name());
        }
        for stamp in ["timestamp", "wall_clock", "\"time\":", "date"] {
            assert!(!rendered.contains(stamp), "snapshot must not carry {stamp}");
        }
    }

    #[test]
    fn dominates_accepts_growth_and_rejects_regression() {
        let _flag = test_lock();
        enable();
        let early = snapshot();
        add(Counter::JournalAppends, 2);
        let late = snapshot();
        assert!(late.dominates(&early));
        if late.counter("journal.appends").unwrap() > early.counter("journal.appends").unwrap() {
            assert!(!early.dominates(&late));
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let buckets = [0u64; HIST_BUCKETS];
        assert_eq!(bucket_quantile(&buckets, 0, 0.5), 0);
    }
}
