//! Session-service-tier contracts, end to end:
//!
//! * **Bounded memory at fleet scale** — 10 000 sessions complete behind
//!   a 256-session resident cap, and the peak resident count (both the
//!   service's own high-water mark and the `service.resident_hwm`
//!   gauge) never exceeds the cap.
//! * **Eviction is invisible** — a session that is evicted, spilled, and
//!   resumed produces checkpoints bit-equal to an always-resident
//!   oracle, for a second algorithm family (`FollowCenter`) on the
//!   registry's `fleet-chase` scenario.
//! * **Supervision isolates faults** — a session whose stream panics is
//!   retried, then quarantined with a typed error; siblings in the same
//!   batch are unaffected; `inspect`/`revive` restore it to its last
//!   consistent checkpoint and it replays the exact same requests.
//! * **Degradation is loud and recoverable** — an injected journal
//!   fault drops the service to memory-only warm state (counted, never
//!   silent), and the next successful spill restores durable mode,
//!   re-creating the journal with the current checkpoint.
//! * **Journals are created at the first spill with progress** — opening
//!   a fleet and evicting unadvanced sessions write nothing; a first
//!   spill writes one header-plus-record file, and opening a session
//!   removes a stale journal left under its name.
//! * **Crash-anywhere recovery** — [`recover_service`] rebuilds the
//!   fleet from a journal directory, skipping (and reporting) files it
//!   cannot attribute, and the recovered sessions finish bit-equal to
//!   uninterrupted runs; sessions that never spilled are re-opened from
//!   their streams.

use mobile_server::analysis::obs;
use mobile_server::analysis::BackoffSchedule;
use mobile_server::core::baselines::FollowCenter;
use mobile_server::core::cost::ServingOrder;
use mobile_server::core::mtc::MoveToCenter;
use mobile_server::core::simulator::{StreamCheckpoint, StreamingSim};
use mobile_server::prelude::*;
use mobile_server::scenarios::fault::{FaultEvent, FaultKind, FaultPlan, FaultyStream};
use mobile_server::scenarios::registry::{must_lookup, ScenarioKnobs};
use mobile_server::scenarios::service::journal_file_name;
use mobile_server::scenarios::{
    recover_service, DurableJournal, InstanceStream, ServiceConfig, SessionError, SessionService,
};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

const DELTA: f64 = 0.25;
const ORDER: ServingOrder = ServingOrder::MoveFirst;

/// Bytes of a journal header at N = 2 (36 + 8·N).
const HEADER_BYTES: u64 = 52;
/// Bytes of one generation record at N = 2 (48 + 8·N).
const RECORD_BYTES: u64 = 64;

/// Serializes the tests that enable the process-wide metrics registry
/// with the tests that spill to a journal, so a test that asserts on a
/// `journal.*` or `service.spills` delta counts only its own service.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Journal files (`*.mspj`) in `dir`, sorted, with their sizes.
fn journal_files(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "mspj"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, e.metadata().unwrap().len())
        })
        .collect();
    files.sort();
    files
}

/// Every entry of `dir`, journals or not.
fn entry_count(dir: &Path) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

/// Checkpoints equal bit for bit, every float compared by its bits.
fn assert_bit_equal(got: &StreamCheckpoint<2>, want: &StreamCheckpoint<2>, at: &str) {
    assert_eq!(got.step, want.step, "{at}: step");
    for i in 0..2 {
        assert_eq!(
            got.position[i].to_bits(),
            want.position[i].to_bits(),
            "{at}: position[{i}]"
        );
    }
    assert_eq!(
        got.movement.to_bits(),
        want.movement.to_bits(),
        "{at}: movement"
    );
    assert_eq!(
        got.service.to_bits(),
        want.service.to_bits(),
        "{at}: service"
    );
    assert_eq!(
        got.max_step_used.to_bits(),
        want.max_step_used.to_bits(),
        "{at}: max step"
    );
}

/// A unique scratch directory under the system temp dir, removed by
/// [`TempDir::drop`] so failed assertions do not leak files forever.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("msp_session_service_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A tiny deterministic instance: one request per step, drifting on a
/// seed-dependent diagonal. Cheap enough to build ten thousand times.
fn tiny_instance(seed: u64, steps: usize) -> Instance<2> {
    let dx = 0.05 + (seed % 7) as f64 * 0.01;
    let dy = 0.03 + (seed % 5) as f64 * 0.01;
    let steps = (0..steps)
        .map(|t| Step::single(P2::xy(dx * (t + 1) as f64, dy * (t + 1) as f64)))
        .collect();
    Instance::new(2.0, 1.0, P2::origin(), steps)
}

fn tiny_stream(seed: u64, steps: usize) -> Box<dyn RequestStream<2> + Send> {
    Box::new(InstanceStream::new(tiny_instance(seed, steps)))
}

fn registry_stream(scenario: &str, seed: u64, horizon: usize) -> Box<dyn RequestStream<2> + Send> {
    must_lookup(scenario)
        .stream_with::<2>(seed, &ScenarioKnobs::horizon(horizon))
        .unwrap()
}

/// The always-resident oracle: one uninterrupted [`StreamingSim`] over a
/// fresh copy of the same stream, checkpointed at `at_steps`.
fn oracle_checkpoints<A>(
    mut stream: Box<dyn RequestStream<2> + Send>,
    algorithm: A,
    at_steps: &[usize],
) -> Vec<StreamCheckpoint<2>>
where
    A: mobile_server::core::algorithm::OnlineAlgorithm<2>
        + mobile_server::core::algorithm::Memoryless,
{
    let params = stream.params();
    let mut sim = StreamingSim::new(&params, algorithm, DELTA, ORDER);
    let mut out = Vec::new();
    let mut step = 0usize;
    for &target in at_steps {
        while step < target {
            let s = stream.next_step().expect("oracle stream long enough");
            sim.feed(&s);
            step += 1;
        }
        out.push(sim.checkpoint());
    }
    out
}

/// 10 000 sessions, resident cap 256: every session runs to completion
/// and the peak resident count — the service's accounting *and* the
/// `service.resident_hwm` gauge — stays at or under the cap. No other
/// test in this binary holds more than a handful of sessions resident,
/// so the process-wide gauge is safe to assert against the cap.
#[test]
fn ten_thousand_sessions_complete_under_a_256_session_cap() {
    const SESSIONS: usize = 10_000;
    const CAP: usize = 256;
    const STEPS: usize = 8;

    let _registry = registry_lock();
    obs::enable();
    let mut service = SessionService::<2, MoveToCenter<2>>::new(ServiceConfig::new(CAP));
    for i in 0..SESSIONS {
        service
            .open_session(
                format!("s{i:05}"),
                tiny_stream(i as u64, STEPS),
                MoveToCenter::new(),
                DELTA,
                ORDER,
            )
            .unwrap();
    }
    assert_eq!(service.len(), SESSIONS);
    assert!(service.resident() <= CAP);

    // One supervised batch over the whole fleet; the service chunks it
    // into resident-cap-sized waves internally.
    let requests: Vec<(String, usize)> = (0..SESSIONS)
        .map(|i| (format!("s{i:05}"), STEPS + 4))
        .collect();
    let results = service.advance_batch(&requests);
    assert_eq!(results.len(), SESSIONS);
    for result in &results {
        let progress = result.as_ref().expect("no session should fail");
        assert_eq!(progress.step, STEPS, "every stream runs to exhaustion");
        assert!(progress.finished);
    }

    assert!(
        service.resident_hwm() <= CAP,
        "peak residency {} exceeded the cap {CAP}",
        service.resident_hwm()
    );
    let snapshot = obs::snapshot();
    obs::disable();
    let gauge = snapshot
        .gauge("service.resident_hwm")
        .expect("gauge registered");
    assert_eq!(gauge, service.resident_hwm() as u64);
    assert!(gauge <= CAP as u64);
    assert!(
        snapshot.counter("service.evictions").unwrap() >= (SESSIONS - CAP) as u64,
        "opening 10k sessions behind a 256 cap must evict the overflow"
    );
}

/// Evict/resume is bit-equal to the always-resident oracle for a second
/// algorithm family (`FollowCenter`) driven by the registry's
/// `fleet-chase` scenario (the k-server extension workload).
#[test]
fn eviction_is_bit_equal_for_follow_center_on_fleet_chase() {
    const HORIZON: usize = 96;
    const ROUNDS: usize = 12;
    const SLICE: usize = HORIZON / ROUNDS;
    let seeds = [3u64, 5, 8];

    let mut service = SessionService::<2, FollowCenter>::new(ServiceConfig::new(2));
    for &seed in &seeds {
        service
            .open_session(
                format!("chase{seed}"),
                registry_stream("fleet-chase", seed, HORIZON),
                FollowCenter::new(),
                DELTA,
                ORDER,
            )
            .unwrap();
    }

    // Round-robin slices force constant eviction churn (3 sessions, 2
    // resident slots).
    for round in 0..ROUNDS {
        for &seed in &seeds {
            let progress = service
                .advance(&format!("chase{seed}"), SLICE)
                .expect("advance");
            assert_eq!(progress.step, (round + 1) * SLICE);
        }
    }

    for &seed in &seeds {
        let got = service.checkpoint(&format!("chase{seed}")).unwrap();
        let want = oracle_checkpoints(
            registry_stream("fleet-chase", seed, HORIZON),
            FollowCenter::new(),
            &[HORIZON],
        )[0];
        assert_eq!(got, want, "seed {seed} diverged from the oracle");
        assert_eq!(
            got.service.to_bits(),
            want.service.to_bits(),
            "service cost must be bit-equal, not just approximately equal"
        );
        assert_eq!(got.movement.to_bits(), want.movement.to_bits());
    }
}

/// An injected journal fault degrades the service to memory-only warm
/// state — loudly, with the session still advancing correctly — and the
/// next successful spill restores durable mode. Every spill here carries
/// progress, since an unadvanced eviction is not a durable operation.
#[test]
fn journal_fault_degrades_then_recovers_on_next_append() {
    const HORIZON: usize = 64;
    let _registry = registry_lock();
    let tmp = TempDir::new("degrade");
    // Durable ops are numbered across the service; fault exactly op 1
    // (the second spill).
    let config = ServiceConfig::new(1)
        .with_journal_dir(&tmp.0)
        .with_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            at: 1,
            kind: FaultKind::Interrupted,
        }]));
    let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
    service
        .open_session(
            "a",
            registry_stream("walk-plane", 11, HORIZON),
            MoveToCenter::new(),
            DELTA,
            ORDER,
        )
        .unwrap();
    service.advance("a", 8).unwrap();

    // Spill 0 succeeds (cap 1 evicts "a" at step 8 when "b" opens).
    service
        .open_session(
            "b",
            registry_stream("edge-drift", 12, HORIZON),
            MoveToCenter::new(),
            DELTA,
            ORDER,
        )
        .unwrap();
    service.advance("b", 8).unwrap();
    assert!(!service.degraded());

    // Resuming "a" evicts "b" at step 8; that spill is op 1 — the
    // injected fault.
    service.advance("a", 8).unwrap();
    assert!(
        service.degraded(),
        "the faulted append must degrade the service"
    );

    // "b" still answers from its in-memory warm state, bit-equal.
    let got = service.checkpoint("b").unwrap();
    let want = oracle_checkpoints(
        registry_stream("edge-drift", 12, HORIZON),
        MoveToCenter::new(),
        &[8],
    )[0];
    assert_eq!(got, want);

    // The next eviction (op 2, no fault) spills durably again.
    service.advance("b", 8).unwrap();
    assert!(
        !service.degraded(),
        "a successful append must restore durable mode"
    );

    // And both sessions still track their oracles exactly.
    for (name, scenario, seed) in [("a", "walk-plane", 11u64), ("b", "edge-drift", 12u64)] {
        let got = service.checkpoint(name).unwrap();
        let want = oracle_checkpoints(
            registry_stream(scenario, seed, HORIZON),
            MoveToCenter::new(),
            &[16],
        )[0];
        assert_eq!(got, want, "session {name} diverged after degradation");
    }
}

/// Opening a fleet and evicting sessions that have not advanced do no
/// journal I/O: 64 sessions behind a 4-session cap with a journal
/// directory leave it empty, and `service.spills` does not move.
#[test]
fn opening_and_unadvanced_evictions_write_no_journal() {
    const SESSIONS: usize = 64;
    let _registry = registry_lock();
    let tmp = TempDir::new("no_io");
    let config = ServiceConfig::new(4).with_journal_dir(&tmp.0);
    let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
    obs::enable();
    let before = obs::snapshot();
    for i in 0..SESSIONS {
        service
            .open_session(
                format!("s{i:02}"),
                tiny_stream(i as u64, 16),
                MoveToCenter::new(),
                DELTA,
                ORDER,
            )
            .unwrap();
    }
    for name in service.session_names() {
        service.evict(&name).unwrap();
    }
    let after = obs::snapshot();
    obs::disable();

    assert_eq!(service.resident(), 0);
    assert!(!service.degraded());
    assert_eq!(entry_count(&tmp.0), 0, "opening and evicting wrote files");
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
    // At least: memory-only tests in this binary may evict concurrently.
    assert!(delta("service.evictions") >= SESSIONS as u64);
    assert_eq!(delta("service.spills"), 0);
    assert_eq!(delta("journal.appends"), 0);
    // Every session still answers its step-0 checkpoint from memory.
    for name in service.session_names() {
        assert_eq!(service.checkpoint(&name).unwrap().step, 0);
    }
}

/// A first spill at step s writes one file: a header plus generation 0,
/// 116 bytes at N = 2, holding the spilled checkpoint bit for bit. It is
/// counted and timed like any append. The next spill adds one record.
#[test]
fn first_spill_writes_one_header_plus_record_file() {
    const HORIZON: usize = 64;
    let _registry = registry_lock();
    let tmp = TempDir::new("first_spill");
    let config = ServiceConfig::new(1).with_journal_dir(&tmp.0);
    let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
    let stream = || registry_stream("car-fleet", 17, HORIZON);
    let oracle = oracle_checkpoints(stream(), MoveToCenter::new(), &[13, 20]);
    service
        .open_session("a", stream(), MoveToCenter::new(), DELTA, ORDER)
        .unwrap();
    service.advance("a", 13).unwrap();

    obs::enable();
    let before = obs::snapshot();
    service.evict("a").unwrap();
    let after = obs::snapshot();
    obs::disable();

    let path = tmp.0.join(journal_file_name("a"));
    assert_eq!(
        journal_files(&tmp.0),
        vec![(journal_file_name("a"), HEADER_BYTES + RECORD_BYTES)]
    );
    assert_eq!(entry_count(&tmp.0), 1, "no staging file left behind");
    let recovery = DurableJournal::<2>::recover(&path).unwrap();
    assert_eq!(recovery.generation, 0);
    assert!(recovery.torn_tail.is_none());
    assert_bit_equal(&recovery.checkpoint, &oracle[0], "generation 0");

    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
    let hist_delta =
        |name: &str| after.hist(name).unwrap().count - before.hist(name).unwrap().count;
    assert_eq!(delta("service.spills"), 1);
    assert_eq!(delta("journal.appends"), 1);
    assert_eq!(hist_delta("journal.append_ns"), 1);
    assert_eq!(hist_delta("journal.fsync_ns"), 1);

    // The next spill appends one record to the same file.
    service.advance("a", 7).unwrap();
    service.evict("a").unwrap();
    assert_eq!(
        journal_files(&tmp.0),
        vec![(journal_file_name("a"), HEADER_BYTES + 2 * RECORD_BYTES)]
    );
    let recovery = DurableJournal::<2>::recover(&path).unwrap();
    assert_eq!(recovery.generation, 1);
    assert_bit_equal(&recovery.checkpoint, &oracle[1], "generation 1");
}

/// A fault at a session's second durable op (its first append) degrades
/// the service; the next spill re-creates the file as a header plus the
/// current checkpoint as generation 0, and durable mode returns.
#[test]
fn spill_after_a_fault_recreates_the_journal_at_the_current_checkpoint() {
    const HORIZON: usize = 64;
    let _registry = registry_lock();
    let tmp = TempDir::new("recreate");
    let config = ServiceConfig::new(1)
        .with_journal_dir(&tmp.0)
        .with_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            at: 1,
            kind: FaultKind::ShortWrite,
        }]));
    let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
    let stream = || registry_stream("district-clusters", 5, HORIZON);
    let oracle = oracle_checkpoints(stream(), MoveToCenter::new(), &[24]);
    service
        .open_session("a", stream(), MoveToCenter::new(), DELTA, ORDER)
        .unwrap();
    let path = tmp.0.join(journal_file_name("a"));

    service.advance("a", 8).unwrap();
    service.evict("a").unwrap(); // op 0: create
    assert!(!service.degraded());
    service.advance("a", 8).unwrap();
    service.evict("a").unwrap(); // op 1: the injected fault
    assert!(service.degraded(), "the faulted spill must degrade");
    assert_eq!(service.checkpoint("a").unwrap().step, 16);
    assert_eq!(
        journal_files(&tmp.0),
        vec![(journal_file_name("a"), HEADER_BYTES + RECORD_BYTES)],
        "the fault struck before any byte was written"
    );

    service.advance("a", 8).unwrap();
    service.evict("a").unwrap(); // op 2: create again
    assert!(!service.degraded(), "the next spill restores durable mode");
    assert_eq!(
        journal_files(&tmp.0),
        vec![(journal_file_name("a"), HEADER_BYTES + RECORD_BYTES)]
    );
    let recovery = DurableJournal::<2>::recover(&path).unwrap();
    assert_eq!(recovery.generation, 0);
    assert_bit_equal(&recovery.checkpoint, &oracle[0], "re-created generation 0");
}

/// `open_session` removes a valid journal an earlier service left under
/// the same name, so a crash before the new session's first spill
/// recovers nothing for it.
#[test]
fn open_session_removes_a_stale_journal() {
    const HORIZON: usize = 64;
    let _registry = registry_lock();
    let tmp = TempDir::new("stale");
    let config = ServiceConfig::new(1).with_journal_dir(&tmp.0);
    let path = tmp.0.join(journal_file_name("a"));
    {
        let mut earlier = SessionService::<2, MoveToCenter<2>>::new(config.clone());
        earlier
            .open_session(
                "a",
                registry_stream("walk-plane", 3, HORIZON),
                MoveToCenter::new(),
                DELTA,
                ORDER,
            )
            .unwrap();
        earlier.advance("a", 20).unwrap();
        earlier.evict("a").unwrap();
    }
    assert_eq!(
        DurableJournal::<2>::recover(&path).unwrap().checkpoint.step,
        20
    );

    {
        let mut service = SessionService::<2, MoveToCenter<2>>::new(config.clone());
        service
            .open_session(
                "a",
                registry_stream("edge-drift", 4, HORIZON),
                MoveToCenter::new(),
                DELTA,
                ORDER,
            )
            .unwrap();
        assert!(!path.exists(), "the stale journal must be gone");
        assert!(!service.degraded());
        // Dropped before any spill: the crash.
    }

    let (service, report) = recover_service::<2, MoveToCenter<2>, _>(config, |_, _| {
        Some((
            registry_stream("edge-drift", 4, HORIZON),
            MoveToCenter::new(),
        ))
    })
    .unwrap();
    assert!(report.recovered.is_empty(), "{:?}", report.recovered);
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert!(!service.contains("a"));
}

/// A stale name `open_session` cannot remove (here a directory) degrades
/// the service loudly; the session itself opens and advances.
#[test]
fn open_session_degrades_when_a_stale_journal_cannot_be_removed() {
    let _registry = registry_lock();
    let tmp = TempDir::new("stale_dir");
    std::fs::create_dir(tmp.0.join(journal_file_name("a"))).unwrap();
    let mut service =
        SessionService::<2, MoveToCenter<2>>::new(ServiceConfig::new(1).with_journal_dir(&tmp.0));
    service
        .open_session("a", tiny_stream(9, 16), MoveToCenter::new(), DELTA, ORDER)
        .unwrap();
    assert!(service.degraded(), "a failed removal must degrade");
    assert_eq!(service.advance("a", 16).unwrap().step, 16);
}

/// A crash right after opening a fleet leaves nothing to recover; every
/// member re-opened from its stream and run to its horizon ends
/// bit-equal to an always-resident oracle.
#[test]
fn a_fleet_crashed_right_after_opening_reopens_bit_equal() {
    const HORIZON: usize = 48;
    let _registry = registry_lock();
    let tmp = TempDir::new("crash_open");
    let members: [(&str, u64); 4] = [
        ("walk-plane", 61),
        ("edge-drift", 62),
        ("car-fleet", 63),
        ("district-clusters", 64),
    ];
    let name_of = |scenario: &str, seed: u64| format!("{scenario}#{seed}");
    let config = ServiceConfig::new(2).with_journal_dir(&tmp.0);
    let open_all = |service: &mut SessionService<2, MoveToCenter<2>>| {
        for (scenario, seed) in members {
            service
                .open_session(
                    name_of(scenario, seed),
                    registry_stream(scenario, seed, HORIZON),
                    MoveToCenter::new(),
                    DELTA,
                    ORDER,
                )
                .unwrap();
        }
    };
    {
        let mut service = SessionService::<2, MoveToCenter<2>>::new(config.clone());
        open_all(&mut service);
        // Dropped right after opening: the crash.
    }
    assert_eq!(entry_count(&tmp.0), 0);

    let (mut service, report) =
        recover_service::<2, MoveToCenter<2>, _>(config, |_, _| None).unwrap();
    assert!(report.recovered.is_empty() && report.skipped.is_empty());
    assert!(service.is_empty());
    open_all(&mut service);
    let requests: Vec<(String, usize)> = members
        .iter()
        .map(|&(scenario, seed)| (name_of(scenario, seed), HORIZON))
        .collect();
    for result in service.advance_batch(&requests) {
        assert_eq!(result.unwrap().step, HORIZON);
    }
    for (scenario, seed) in members {
        let name = name_of(scenario, seed);
        let want = oracle_checkpoints(
            registry_stream(scenario, seed, HORIZON),
            MoveToCenter::new(),
            &[HORIZON],
        )[0];
        assert_bit_equal(&service.checkpoint(&name).unwrap(), &want, &name);
    }
}

/// A panicking stream exhausts its retries and lands in quarantine with
/// a typed error; its batch siblings are unaffected; after `revive` it
/// resumes from the pre-batch checkpoint and replays the exact same
/// requests (bit-equal to the oracle over the surviving prefix).
#[test]
fn quarantine_never_taints_siblings_and_revive_replays_exactly() {
    const HORIZON: usize = 96;
    const PANIC_OP: usize = 40;

    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: PANIC_OP as u64,
        kind: FaultKind::Panic,
    }]);
    let poisoned: Box<dyn RequestStream<2> + Send> = Box::new(FaultyStream::new(
        registry_stream("walk-plane", 21, HORIZON),
        plan,
    ));

    let config =
        ServiceConfig::new(4).with_retries(2, BackoffSchedule::new(0xC0FFEE, 1_000, 4_000));
    let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
    service
        .open_session("poisoned", poisoned, MoveToCenter::new(), DELTA, ORDER)
        .unwrap();
    service
        .open_session(
            "healthy",
            registry_stream("edge-drift", 22, HORIZON),
            MoveToCenter::new(),
            DELTA,
            ORDER,
        )
        .unwrap();

    // Injected panics unwind through the executor's catch; keep the
    // default hook from spamming the test output with their backtraces.
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !message.contains("injected fault") {
            eprintln!("panic: {message}");
        }
    }));
    let results = service.advance_batch(&[("poisoned".into(), 64), ("healthy".into(), 64)]);
    let _ = std::panic::take_hook();

    // The poisoned lane fails typed; the sibling is untouched.
    match &results[0] {
        Err(SessionError::Quarantined {
            session,
            attempts,
            cause,
        }) => {
            assert_eq!(session, "poisoned");
            assert_eq!(*attempts, 2, "both permitted attempts were spent");
            assert!(
                cause.contains("injected fault"),
                "cause must carry the fault message, got: {cause}"
            );
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    let healthy = results[1].as_ref().expect("sibling unaffected");
    assert_eq!(healthy.step, 64);

    // Typed state is inspectable, and a quarantined session refuses to
    // advance until revived.
    let report = service.inspect("poisoned").expect("report available");
    assert_eq!(report.attempts, 2);
    assert!(matches!(
        service.advance("poisoned", 8),
        Err(SessionError::Quarantined { .. })
    ));
    assert_eq!(service.quarantined().len(), 1);

    // Revived, it resumes from the pre-batch checkpoint (step 0) and the
    // replayed prefix is bit-equal to the uninterrupted oracle: the
    // failed attempts must not have consumed any of its requests.
    service.revive("poisoned").unwrap();
    assert!(service.inspect("poisoned").is_none());
    let progress = service
        .advance("poisoned", 32)
        .expect("32 steps stay below the panic op");
    assert_eq!(progress.step, 32);
    let got = service.checkpoint("poisoned").unwrap();
    let want = oracle_checkpoints(
        registry_stream("walk-plane", 21, HORIZON),
        MoveToCenter::new(),
        &[32],
    )[0];
    assert_eq!(got, want, "revived session diverged from the oracle");
}

/// After a crash (the service value is dropped wholesale), the fleet is
/// rebuilt from the journal directory alone: intact journals reattach
/// and finish bit-equal, foreign files are skipped and reported.
#[test]
fn recover_service_rebuilds_the_fleet_from_journals() {
    const HORIZON: usize = 64;
    let _registry = registry_lock();
    let tmp = TempDir::new("recover");
    let members: [(&str, u64); 3] = [("walk-plane", 31), ("edge-drift", 32), ("car-fleet", 33)];
    let name_of = |scenario: &str, seed: u64| format!("{scenario}#{seed}");

    {
        let config = ServiceConfig::new(1).with_journal_dir(&tmp.0);
        let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
        for (scenario, seed) in members {
            service
                .open_session(
                    name_of(scenario, seed),
                    registry_stream(scenario, seed, HORIZON),
                    MoveToCenter::new(),
                    DELTA,
                    ORDER,
                )
                .unwrap();
        }
        for (scenario, seed) in members {
            service.advance(&name_of(scenario, seed), 24).unwrap();
        }
        // Cap 1 keeps at most one session live; evict it too so every
        // journal holds the step-24 generation, then "crash".
        for name in service.session_names() {
            service.evict(&name).unwrap();
        }
        assert!(!service.degraded());
    }

    // Files recovery must not trip over: one valid journal name holding
    // garbage bytes, and one file that is not a journal at all.
    std::fs::write(tmp.0.join(journal_file_name("garbage")), b"not a journal").unwrap();
    std::fs::write(tmp.0.join("notes.txt"), b"ignored").unwrap();

    let config = ServiceConfig::new(2).with_journal_dir(&tmp.0);
    let (mut service, report) =
        recover_service::<2, MoveToCenter<2>, _>(config, |name, _recovery| {
            let (scenario, seed) = name.split_once('#')?;
            let seed: u64 = seed.parse().ok()?;
            Some((
                registry_stream(scenario, seed, HORIZON),
                MoveToCenter::new(),
            ))
        })
        .unwrap();

    assert_eq!(report.recovered.len(), members.len());
    for recovered in &report.recovered {
        assert_eq!(recovered.step, 24);
        assert!(recovered.torn_tail.is_none());
    }
    assert_eq!(report.skipped.len(), 1, "skipped: {:?}", report.skipped);
    assert_eq!(report.skipped[0].0, journal_file_name("garbage"));

    // The recovered fleet finishes bit-equal to uninterrupted runs.
    for (scenario, seed) in members {
        let name = name_of(scenario, seed);
        let progress = service.advance(&name, HORIZON - 24).unwrap();
        assert_eq!(progress.step, HORIZON);
        let got = service.checkpoint(&name).unwrap();
        let want = oracle_checkpoints(
            registry_stream(scenario, seed, HORIZON),
            MoveToCenter::new(),
            &[HORIZON],
        )[0];
        assert_eq!(got, want, "{name} diverged after crash recovery");
    }
}
