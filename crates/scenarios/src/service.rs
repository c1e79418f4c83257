//! The supervised session service: thousands of named, checkpointed
//! streaming sessions multiplexed over a bounded-memory resident set.
//!
//! A [`SessionService`] owns a table of named sessions, each a
//! [`StreamingSim`] paired with its (forward-only, replayable)
//! [`RequestStream`]. Only `max_resident` sessions keep a live simulator
//! at any moment; the rest are *cold* — collapsed to a checkpoint in
//! memory, or spilled to a per-session [`DurableJournal`] on disk.
//! Touching a cold session resumes it bit-equal to an uninterrupted run:
//! the algorithm is [`Memoryless`], so the checkpoint alone restores the
//! simulator, while the stream keeps its position across evict/resume
//! cycles.
//!
//! Opening a session and evicting one that has not advanced do no I/O:
//! a step-0 checkpoint is only the session's configuration, so it stays
//! in memory. A session's journal is created at its first spill with
//! progress, holding the header and that checkpoint as generation 0.
//!
//! Three layers of supervision sit on top of the table:
//!
//! - **Eviction** ([`SessionService::advance`] /
//!   [`SessionService::evict`]): LRU under the resident budget, with the
//!   peak tracked on the `service.resident_hwm` gauge.
//! - **Retry and quarantine** ([`SessionService::advance_batch`]): each
//!   session advances on its own executor lane with bounded retries and
//!   deterministic seeded backoff ([`BackoffSchedule`]). Before every
//!   attempt the lane restores the session to its pre-batch checkpoint,
//!   so a panic mid-step never leaks partial state into the retry. A
//!   session that exhausts its retries is *quarantined* — reported as a
//!   typed [`SessionError::Quarantined`], never silently dropped, and
//!   never tainting sibling lanes — and can be inspected and revived.
//! - **Watchdog** (`step_budget` in [`ServiceConfig`]): a runaway
//!   `advance` is cancelled at the next [`ADVANCE_BLOCK`] boundary once
//!   it exceeds the budget, leaving the session consistent at a step
//!   boundary.
//!
//! Durability degrades gracefully rather than failing the session: when a
//! spill fails (for real, or injected via [`FaultPlan`]), the service
//! drops the journal handle, counts `service.degradations`, and keeps
//! that session's checkpoint in memory; its next spill re-creates the
//! journal with the current checkpoint as generation 0, and the next
//! successful spill recovers durable mode. After a crash,
//! [`recover_service`] rebuilds the table from a directory of journals —
//! torn tails are truncated and the newest intact generation wins, as in
//! [`DurableJournal::reopen`]. A session is crash-recoverable from its
//! first spill with progress; before that it has no file, and the caller
//! re-opens it from its stream.

use crate::fault::FaultPlan;
use crate::journal::{resume_from_journal, DurableJournal, JournalError, JournalRecovery};
use crate::stream::RequestStream;
use msp_analysis::obs;
use msp_analysis::sweep::{try_parallel_map_indexed_backoff, BackoffSchedule, LaneError};
use msp_core::algorithm::{Memoryless, OnlineAlgorithm};
use msp_core::cost::ServingOrder;
use msp_core::model::StreamParams;
use msp_core::simulator::{StreamCheckpoint, StreamingSim};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// Watchdog slice size: [`SessionService::advance`] feeds the stream in
/// blocks of this many steps and checks the step budget between blocks,
/// so a cancelled advance always stops on a block boundary with the
/// session in a consistent, resumable state.
pub const ADVANCE_BLOCK: usize = 64;

/// Configuration of a [`SessionService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum number of sessions with a live simulator (≥ 1). The
    /// service evicts least-recently-used sessions to stay at or under
    /// this bound.
    pub max_resident: usize,
    /// When `Some`, evicted sessions with progress spill their checkpoint
    /// to a per-session journal file in this directory; when `None` (or
    /// after a degradation) eviction keeps the checkpoint in memory only.
    pub journal_dir: Option<PathBuf>,
    /// Attempt bound per session per [`SessionService::advance_batch`]
    /// call (0 is treated as 1). A session that fails every attempt is
    /// quarantined.
    pub max_retries: usize,
    /// Deterministic pause schedule between batch retry attempts.
    pub backoff: BackoffSchedule,
    /// When `Some(b)`, an [`SessionService::advance`] that would exceed
    /// `b` steps is cancelled at the next block boundary with
    /// [`SessionError::StepBudgetExceeded`].
    pub step_budget: Option<usize>,
    /// Injected faults for the spill path: the `at` field of each event
    /// indexes the service's durable-operation counter, which counts
    /// spills with progress (journal creates and appends).
    pub fault_plan: FaultPlan,
}

impl ServiceConfig {
    /// A memory-only config with the given resident bound, no retries
    /// beyond the first attempt, no step budget, and no injected faults.
    ///
    /// # Panics
    ///
    /// Panics when `max_resident` is zero.
    pub fn new(max_resident: usize) -> Self {
        assert!(max_resident >= 1, "max_resident must be at least 1");
        ServiceConfig {
            max_resident,
            journal_dir: None,
            max_retries: 1,
            backoff: BackoffSchedule::none(),
            step_budget: None,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Spill evicted sessions to per-session journals under `dir`.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Supervised-batch retry policy: up to `max_retries` attempts per
    /// session with the given backoff between them.
    pub fn with_retries(mut self, max_retries: usize, backoff: BackoffSchedule) -> Self {
        self.max_retries = max_retries;
        self.backoff = backoff;
        self
    }

    /// Watchdog bound on steps per `advance` call.
    pub fn with_step_budget(mut self, budget: usize) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Inject faults into the spill path.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

/// Typed session-service failure. Every error names the session it
/// belongs to; a failing session never taints the rest of the batch.
#[derive(Debug)]
pub enum SessionError {
    /// No session with the requested name.
    UnknownSession(String),
    /// The session is quarantined: it exhausted its retry bound in a
    /// supervised batch and is frozen at its last consistent checkpoint
    /// until [`SessionService::revive`].
    Quarantined {
        /// Session name.
        session: String,
        /// Attempts made before quarantine.
        attempts: usize,
        /// The final failure, rendered.
        cause: String,
    },
    /// A session name was opened twice.
    DuplicateSession(String),
    /// The watchdog cancelled the advance at a block boundary after the
    /// step budget was exhausted. The session remains consistent at
    /// `advanced` steps of progress from this call.
    StepBudgetExceeded {
        /// Session name.
        session: String,
        /// Steps actually advanced by the cancelled call.
        advanced: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A journal operation failed while resuming a spilled session.
    Journal {
        /// Session name.
        session: String,
        /// The underlying journal error.
        error: JournalError,
    },
    /// The operation requires a journal directory but the service has
    /// none configured.
    NoJournalDir,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSession(name) => write!(f, "unknown session {name:?}"),
            SessionError::Quarantined {
                session,
                attempts,
                cause,
            } => write!(
                f,
                "session {session:?} quarantined after {attempts} attempt(s): {cause}"
            ),
            SessionError::DuplicateSession(name) => {
                write!(f, "session {name:?} is already open")
            }
            SessionError::StepBudgetExceeded {
                session,
                advanced,
                budget,
            } => write!(
                f,
                "session {session:?} advance cancelled at a block boundary: \
                 {advanced} steps exceed the budget of {budget}"
            ),
            SessionError::Journal { session, error } => {
                write!(f, "session {session:?} journal error: {error}")
            }
            SessionError::NoJournalDir => {
                write!(f, "service has no journal directory configured")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Progress report from one `advance` call.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionProgress {
    /// Steps fed by this call.
    pub advanced: usize,
    /// Total steps the session has processed since it was opened.
    pub step: usize,
    /// Total cost (movement + service) accrued so far.
    pub total_cost: f64,
    /// `true` once the session's stream is exhausted.
    pub finished: bool,
}

/// Why a session sits in quarantine.
#[derive(Clone, Debug)]
pub struct QuarantineReport {
    /// Session name.
    pub session: String,
    /// Attempts the supervised batch made before giving up.
    pub attempts: usize,
    /// The final failure (panic message or rendered error).
    pub cause: String,
}

/// Pre-attempt snapshot a supervised lane restores before every retry,
/// so a panic mid-step never leaks partial progress into the next
/// attempt.
#[derive(Clone, Debug)]
struct Snapshot<const N: usize> {
    checkpoint: StreamCheckpoint<N>,
    finished: bool,
}

/// Where a session's simulator state currently lives.
enum SessionState<const N: usize, A> {
    /// Live simulator — counted against `max_resident`.
    Live(Box<StreamingSim<N, A>>),
    /// Cold, in memory: the checkpoint.
    Warm(StreamCheckpoint<N>),
    /// Cold, on disk: the newest generation of the session's journal is
    /// the authoritative state.
    Spilled,
}

struct Session<const N: usize, A> {
    name: String,
    stream: Box<dyn RequestStream<N> + Send>,
    /// Configuration-equal prototype cloned for every resume (the
    /// algorithm is memoryless, so any clone continues the run).
    proto: A,
    params: StreamParams<N>,
    delta: f64,
    order: ServingOrder,
    state: SessionState<N, A>,
    journal: Option<DurableJournal<N>>,
    last_touch: u64,
    quarantine: Option<QuarantineReport>,
    finished: bool,
}

impl<const N: usize, A> Session<N, A>
where
    A: OnlineAlgorithm<N> + Memoryless + Clone,
{
    fn snapshot(&mut self) -> Snapshot<N> {
        let checkpoint = match &self.state {
            SessionState::Live(sim) => sim.checkpoint(),
            SessionState::Warm(checkpoint) => *checkpoint,
            SessionState::Spilled => unreachable!("snapshot of a spilled session"),
        };
        Snapshot {
            checkpoint,
            finished: self.finished,
        }
    }

    /// Rebuilds the live simulator from `snap` and repositions the stream
    /// at the snapshot's step (rewind + fast-forward — streams are
    /// forward-only, and scenario streams replay deterministically).
    fn restore(&mut self, snap: &Snapshot<N>) {
        let sim = StreamingSim::resume(
            &self.params,
            self.proto.clone(),
            self.delta,
            self.order,
            &snap.checkpoint,
        );
        self.stream.rewind();
        for _ in 0..snap.checkpoint.step {
            self.stream.next_step();
        }
        self.state = SessionState::Live(Box::new(sim));
        self.finished = snap.finished;
    }
}

/// One recovered session in a [`RecoveryReport`].
#[derive(Clone, Debug)]
pub struct RecoveredSession {
    /// Session name (decoded from the journal file name).
    pub name: String,
    /// Generation number of the recovered checkpoint.
    pub generation: u64,
    /// Step the session resumes from.
    pub step: usize,
    /// `Some` when a torn tail was truncated during recovery.
    pub torn_tail: Option<String>,
}

/// Outcome of [`recover_service`]: which journals produced sessions and
/// which were skipped (with the reason rendered).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Sessions rebuilt from their journals.
    pub recovered: Vec<RecoveredSession>,
    /// `(file name, reason)` for journals that could not be recovered or
    /// that the caller declined to attach a stream to.
    pub skipped: Vec<(String, String)>,
}

/// Bounded-memory multiplexer of named streaming sessions. See the
/// module docs for the full lifecycle.
pub struct SessionService<const N: usize, A> {
    config: ServiceConfig,
    sessions: BTreeMap<String, Session<N, A>>,
    /// Resident-only LRU index: `last_touch → name` for every live
    /// session *in the table* (sessions lifted out for a supervised
    /// batch are absent). Keeps victim selection O(log resident) instead
    /// of a scan over every session — the difference between 10k
    /// sessions being cheap and quadratic.
    live_lru: BTreeMap<u64, String>,
    clock: u64,
    resident: usize,
    resident_hwm: usize,
    durable_ops: u64,
    degraded: bool,
}

impl<const N: usize, A> SessionService<N, A>
where
    A: OnlineAlgorithm<N> + Memoryless + Clone + Send,
{
    /// Creates an empty service. When the config names a journal
    /// directory it is created if missing; failure to create it degrades
    /// the service to memory-only eviction immediately (counted on
    /// `service.degradations`) instead of failing construction.
    pub fn new(mut config: ServiceConfig) -> Self {
        assert!(config.max_resident >= 1, "max_resident must be at least 1");
        let mut degraded = false;
        if let Some(dir) = &config.journal_dir {
            if fs::create_dir_all(dir).is_err() {
                config.journal_dir = None;
                obs::incr(obs::Counter::ServiceDegradations);
                degraded = true;
            }
        }
        SessionService {
            config,
            sessions: BTreeMap::new(),
            live_lru: BTreeMap::new(),
            clock: 0,
            resident: 0,
            resident_hwm: 0,
            durable_ops: 0,
            degraded,
        }
    }

    /// The config the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of sessions in the table (any state).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Sessions currently holding a live simulator.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Peak resident count the service has ever reached — the same value
    /// the `service.resident_hwm` gauge tracks process-wide.
    pub fn resident_hwm(&self) -> usize {
        self.resident_hwm
    }

    /// `true` while the service is in memory-only fallback after a
    /// journal failure; cleared by the next successful spill.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// `true` when a session with this name exists (any state).
    pub fn contains(&self, name: &str) -> bool {
        self.sessions.contains_key(name)
    }

    /// All session names, sorted.
    pub fn session_names(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    fn tick(&mut self) -> u64 {
        let t = self.clock;
        self.clock += 1;
        t
    }

    fn note_resident(&mut self) {
        self.resident += 1;
        if self.resident > self.resident_hwm {
            self.resident_hwm = self.resident;
            obs::gauge_max(obs::Gauge::ServiceResidentHwm, self.resident as u64);
        }
    }

    /// Opens a named session over `stream`, running `algorithm` with
    /// augmentation `delta` and the given serving order. The session
    /// starts live; older residents are evicted to make room.
    ///
    /// Opening writes no journal: the session's file is created at its
    /// first spill with progress. The one file operation removes a file
    /// an earlier service left under this session's journal name, so a
    /// crash before that first spill cannot recover a stale journal for
    /// the new session. A removal that fails for any reason but a
    /// missing file degrades the service loudly.
    pub fn open_session(
        &mut self,
        name: impl Into<String>,
        stream: Box<dyn RequestStream<N> + Send>,
        algorithm: A,
        delta: f64,
        order: ServingOrder,
    ) -> Result<(), SessionError> {
        let name = name.into();
        if self.sessions.contains_key(&name) {
            return Err(SessionError::DuplicateSession(name));
        }
        if let Some(path) = self.journal_path(&name) {
            match fs::remove_file(path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => self.degrade(),
                _ => {}
            }
        }
        self.evict_to(self.config.max_resident.saturating_sub(1));
        let params = stream.params();
        let proto = algorithm.clone();
        let sim = StreamingSim::new(&params, algorithm, delta, order);
        let last_touch = self.tick();
        self.live_lru.insert(last_touch, name.clone());
        self.sessions.insert(
            name.clone(),
            Session {
                name,
                stream,
                proto,
                params,
                delta,
                order,
                state: SessionState::Live(Box::new(sim)),
                journal: None,
                last_touch,
                quarantine: None,
                finished: false,
            },
        );
        self.note_resident();
        obs::incr(obs::Counter::ServiceSessions);
        Ok(())
    }

    fn journal_path(&self, name: &str) -> Option<PathBuf> {
        self.config
            .journal_dir
            .as_ref()
            .map(|dir| dir.join(journal_file_name(name)))
    }

    /// Drops the service to memory-only fallback, loudly: counted on
    /// `service.degradations` and cleared by the next successful spill.
    fn degrade(&mut self) {
        self.degraded = true;
        obs::incr(obs::Counter::ServiceDegradations);
    }

    /// Evicts least-recently-used live sessions until at most `target`
    /// remain resident.
    fn evict_to(&mut self, target: usize) {
        while self.resident > target {
            // Popping (rather than peeking) guarantees loop progress even
            // if the victim's eviction is a no-op; `evict_session` removes
            // the entry itself on the normal path, making this a no-op.
            let Some((_, name)) = self.live_lru.pop_first() else {
                break;
            };
            self.evict_session(&name);
        }
    }

    /// Explicitly evicts a live session (no-op when it is already cold).
    pub fn evict(&mut self, name: &str) -> Result<(), SessionError> {
        if !self.sessions.contains_key(name) {
            return Err(SessionError::UnknownSession(name.to_string()));
        }
        self.evict_session(name);
        Ok(())
    }

    /// Collapses one live session to its checkpoint. A session that has
    /// not advanced stays Warm and touches no file: its step-0 checkpoint
    /// is only its configuration. One with progress spills to its journal
    /// ([`SessionService::spill`]) and keeps the checkpoint in memory
    /// when that fails.
    fn evict_session(&mut self, name: &str) {
        let Some(session) = self.sessions.get_mut(name) else {
            return;
        };
        let SessionState::Live(sim) = &session.state else {
            return;
        };
        let checkpoint = sim.checkpoint();
        self.live_lru.remove(&session.last_touch);
        self.resident -= 1;
        obs::incr(obs::Counter::ServiceEvictions);
        let spilled = checkpoint.step > 0 && self.spill(name, &checkpoint);
        let session = self.sessions.get_mut(name).expect("session exists");
        session.state = if spilled {
            SessionState::Spilled
        } else {
            SessionState::Warm(checkpoint)
        };
    }

    /// Makes an evicted session's checkpoint durable: an append when its
    /// journal is open, else [`DurableJournal::create`] with the
    /// checkpoint as generation 0 (the session's first spill, or its
    /// first after a failure). Each call is one durable operation of the
    /// fault plan. A failure degrades loudly and drops the handle, since
    /// the file may end in a torn record; the next spill re-creates it.
    /// Returns whether the checkpoint is on disk.
    fn spill(&mut self, name: &str, checkpoint: &StreamCheckpoint<N>) -> bool {
        let Some(path) = self.journal_path(name) else {
            return false;
        };
        let op = self.durable_ops;
        self.durable_ops += 1;
        let injected = self.config.fault_plan.fault_at(op);
        let session = self.sessions.get_mut(name).expect("session exists");
        let outcome = match (injected, &mut session.journal) {
            (Some(kind), _) => Err(JournalError::Io(std::io::Error::other(format!(
                "injected journal fault: {kind} at operation {op}"
            )))),
            (None, Some(journal)) => journal.append(checkpoint).map(drop),
            (None, journal @ None) => DurableJournal::create(
                &path,
                &session.params,
                session.delta,
                session.order,
                checkpoint,
            )
            .map(|created| *journal = Some(created)),
        };
        if outcome.is_err() {
            session.journal = None;
            self.degrade();
            return false;
        }
        self.degraded = false;
        obs::incr(obs::Counter::ServiceSpills);
        true
    }

    /// Brings a session live, evicting LRU residents to make room and
    /// resuming from its in-memory checkpoint or journal as needed.
    /// Bit-equal: the
    /// resumed simulator continues exactly where the evicted one stopped.
    fn make_resident(&mut self, name: &str) -> Result<(), SessionError> {
        if !self.sessions.contains_key(name) {
            return Err(SessionError::UnknownSession(name.to_string()));
        }
        let touch = self.tick();
        let (old_touch, is_live) = {
            let session = self.sessions.get_mut(name).expect("session exists");
            let old = session.last_touch;
            session.last_touch = touch;
            (old, matches!(session.state, SessionState::Live(_)))
        };
        if is_live {
            self.live_lru.remove(&old_touch);
            self.live_lru.insert(touch, name.to_string());
            return Ok(());
        }
        self.evict_to(self.config.max_resident.saturating_sub(1));
        let span = obs::timer(obs::Hist::ServiceResumeNs);
        let journal_path = self.journal_path(name);
        let session = self.sessions.get_mut(name).expect("session exists");
        match &session.state {
            SessionState::Live(_) => unreachable!("checked above"),
            SessionState::Warm(checkpoint) => {
                let sim = StreamingSim::resume(
                    &session.params,
                    session.proto.clone(),
                    session.delta,
                    session.order,
                    checkpoint,
                );
                session.state = SessionState::Live(Box::new(sim));
            }
            SessionState::Spilled => {
                let path = journal_path.ok_or(SessionError::NoJournalDir)?;
                let recovery =
                    DurableJournal::recover(&path).map_err(|error| SessionError::Journal {
                        session: name.to_string(),
                        error,
                    })?;
                let sim = resume_from_journal(&recovery, session.proto.clone());
                session.state = SessionState::Live(Box::new(sim));
            }
        }
        span.stop();
        obs::incr(obs::Counter::ServiceResumes);
        self.note_resident();
        self.live_lru.insert(touch, name.to_string());
        Ok(())
    }

    /// Advances one session by up to `n` steps, resuming it first if it
    /// is cold. Under a step budget the watchdog cancels the call at the
    /// first block boundary past the budget
    /// ([`SessionError::StepBudgetExceeded`]); the partial progress is
    /// kept and the session stays consistent. Quarantined sessions refuse
    /// to advance until revived.
    pub fn advance(&mut self, name: &str, n: usize) -> Result<SessionProgress, SessionError> {
        if let Some(session) = self.sessions.get(name) {
            if let Some(q) = &session.quarantine {
                return Err(SessionError::Quarantined {
                    session: name.to_string(),
                    attempts: q.attempts,
                    cause: q.cause.clone(),
                });
            }
        }
        self.make_resident(name)?;
        let budget = self.config.step_budget;
        let session = self.sessions.get_mut(name).expect("resident session");
        advance_live(session, n, budget)
    }

    /// Reads a session's current checkpoint without changing its
    /// residency: live sessions snapshot in place, in-memory cold sessions
    /// return the stored checkpoint, spilled sessions read their journal.
    pub fn checkpoint(&self, name: &str) -> Result<StreamCheckpoint<N>, SessionError> {
        let session = self
            .sessions
            .get(name)
            .ok_or_else(|| SessionError::UnknownSession(name.to_string()))?;
        match &session.state {
            SessionState::Live(sim) => Ok(sim.checkpoint()),
            SessionState::Warm(checkpoint) => Ok(*checkpoint),
            SessionState::Spilled => {
                let path = self.journal_path(name).ok_or(SessionError::NoJournalDir)?;
                let recovery =
                    DurableJournal::recover(&path).map_err(|error| SessionError::Journal {
                        session: name.to_string(),
                        error,
                    })?;
                Ok(recovery.checkpoint)
            }
        }
    }

    /// Advances many sessions under supervision: each request runs on its
    /// own executor lane with up to `max_retries` attempts and the
    /// configured deterministic backoff between them. Every attempt
    /// starts from the session's pre-batch checkpoint (a crashed attempt
    /// is rolled back before the retry), so retries are bit-equal to a
    /// first-try success. Sessions that exhaust the bound are quarantined
    /// and reported as typed errors in their own output slot — sibling
    /// sessions are unaffected. Results align with `requests` by index.
    pub fn advance_batch(
        &mut self,
        requests: &[(String, usize)],
    ) -> Vec<Result<SessionProgress, SessionError>> {
        let mut results: Vec<Option<Result<SessionProgress, SessionError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut start = 0;
        while start < requests.len() {
            // Grow a chunk of distinct, runnable sessions no larger than
            // the resident budget.
            let mut chunk: Vec<usize> = Vec::new();
            let mut end = start;
            while end < requests.len() && chunk.len() < self.config.max_resident {
                let (name, _) = &requests[end];
                if chunk.iter().any(|&i| requests[i].0 == *name) {
                    break;
                }
                match self.sessions.get(name) {
                    None => {
                        results[end] = Some(Err(SessionError::UnknownSession(name.clone())));
                    }
                    Some(s) => {
                        if let Some(q) = &s.quarantine {
                            results[end] = Some(Err(SessionError::Quarantined {
                                session: name.clone(),
                                attempts: q.attempts,
                                cause: q.cause.clone(),
                            }));
                        } else {
                            chunk.push(end);
                        }
                    }
                }
                end += 1;
            }
            if chunk.is_empty() {
                start = end.max(start + 1);
                continue;
            }

            // Resume every chunk member (touching it so LRU eviction
            // prefers non-chunk residents), then lift the sessions out of
            // the table into per-lane slots.
            let mut slots: Vec<Option<Mutex<LaneWork<N, A>>>> = Vec::new();
            let mut lane_requests: Vec<(usize, usize)> = Vec::new();
            for &req_idx in &chunk {
                let (name, n) = &requests[req_idx];
                match self.make_resident(name) {
                    Ok(()) => {
                        let mut session = self.sessions.remove(name).expect("resident session");
                        // Lifted-out sessions must not be eviction
                        // victims while their lane runs.
                        self.live_lru.remove(&session.last_touch);
                        let snapshot = session.snapshot();
                        lane_requests.push((req_idx, *n));
                        slots.push(Some(Mutex::new(LaneWork {
                            session,
                            snapshot,
                            dirty: false,
                        })));
                    }
                    Err(e) => {
                        results[req_idx] = Some(Err(e));
                    }
                }
            }

            let budget = self.config.step_budget;
            let attempts = self.config.max_retries.max(1);
            let backoff = self.config.backoff;
            let lane_results = try_parallel_map_indexed_backoff(
                &lane_requests,
                0,
                attempts,
                backoff,
                |lane, &(_, n)| -> Result<Result<SessionProgress, SessionError>, SessionError> {
                    let slot = slots[lane].as_ref().expect("lane slot");
                    // A panicking prior attempt poisons the mutex; the
                    // snapshot restore below re-establishes consistency.
                    let mut work = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    if work.dirty {
                        let snap = work.snapshot.clone();
                        work.session.restore(&snap);
                    }
                    work.dirty = true;
                    match advance_live(&mut work.session, n, budget) {
                        Ok(progress) => {
                            work.dirty = false;
                            Ok(Ok(progress))
                        }
                        // The watchdog leaves the session consistent at a
                        // block boundary — intentional partial progress,
                        // not a fault; do not retry.
                        Err(e @ SessionError::StepBudgetExceeded { .. }) => {
                            work.dirty = false;
                            Ok(Err(e))
                        }
                        Err(e) => Err(e),
                    }
                },
            );

            // Reinsert every session; quarantine the exhausted lanes.
            for (lane, lane_result) in lane_results.into_iter().enumerate() {
                let (req_idx, _) = lane_requests[lane];
                let mut work = slots[lane]
                    .take()
                    .expect("lane slot")
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner);
                let outcome = match lane_result {
                    Ok(Ok(progress)) => Ok(progress),
                    Ok(Err(e)) => Err(e),
                    Err(lane_error) => {
                        let (attempts, cause) = match &lane_error {
                            LaneError::Panicked { attempts, message } => {
                                (*attempts, message.clone())
                            }
                            LaneError::Failed { attempts, error } => (*attempts, error.to_string()),
                        };
                        // Collapse the (possibly inconsistent) live state
                        // back to the pre-batch checkpoint and freeze.
                        let snap = work.snapshot.clone();
                        work.session.state = SessionState::Warm(snap.checkpoint);
                        work.session.finished = snap.finished;
                        // The failed attempts consumed stream steps past
                        // the rollback point; reposition so a later
                        // revive+resume replays the exact same requests.
                        work.session.stream.rewind();
                        for _ in 0..snap.checkpoint.step {
                            work.session.stream.next_step();
                        }
                        self.resident -= 1;
                        work.session.quarantine = Some(QuarantineReport {
                            session: work.session.name.clone(),
                            attempts,
                            cause: cause.clone(),
                        });
                        obs::incr(obs::Counter::ServiceQuarantines);
                        Err(SessionError::Quarantined {
                            session: work.session.name.clone(),
                            attempts,
                            cause,
                        })
                    }
                };
                results[req_idx] = Some(outcome);
                if matches!(work.session.state, SessionState::Live(_)) {
                    self.live_lru
                        .insert(work.session.last_touch, work.session.name.clone());
                }
                self.sessions
                    .insert(work.session.name.clone(), work.session);
            }
            self.evict_to(self.config.max_resident);
            start = end;
        }
        results
            .into_iter()
            .map(|r| r.expect("every request slot filled"))
            .collect()
    }

    /// Quarantine reports for every quarantined session, sorted by name.
    pub fn quarantined(&self) -> Vec<QuarantineReport> {
        self.sessions
            .values()
            .filter_map(|s| s.quarantine.clone())
            .collect()
    }

    /// The quarantine report of one session, when it is quarantined.
    pub fn inspect(&self, name: &str) -> Option<&QuarantineReport> {
        self.sessions.get(name).and_then(|s| s.quarantine.as_ref())
    }

    /// Lifts a session out of quarantine. It resumes from its last
    /// consistent checkpoint on the next advance.
    pub fn revive(&mut self, name: &str) -> Result<(), SessionError> {
        let session = self
            .sessions
            .get_mut(name)
            .ok_or_else(|| SessionError::UnknownSession(name.to_string()))?;
        session.quarantine = None;
        Ok(())
    }
}

/// Per-lane state of one supervised batch request.
struct LaneWork<const N: usize, A> {
    session: Session<N, A>,
    snapshot: Snapshot<N>,
    dirty: bool,
}

/// The core advance loop over a live session: feed in
/// [`ADVANCE_BLOCK`]-sized slices, checking the watchdog budget only at
/// block boundaries so the session is always left at a consistent step
/// boundary.
fn advance_live<const N: usize, A>(
    session: &mut Session<N, A>,
    n: usize,
    budget: Option<usize>,
) -> Result<SessionProgress, SessionError>
where
    A: OnlineAlgorithm<N> + Memoryless + Clone,
{
    let SessionState::Live(sim) = &mut session.state else {
        unreachable!("advance_live on a cold session");
    };
    let mut advanced = 0usize;
    while advanced < n {
        if let Some(b) = budget {
            if advanced >= b {
                obs::record(obs::Hist::ServiceAdvanceSteps, advanced as u64);
                return Err(SessionError::StepBudgetExceeded {
                    session: session.name.clone(),
                    advanced,
                    budget: b,
                });
            }
        }
        let block = ADVANCE_BLOCK.min(n - advanced);
        let stream = &mut session.stream;
        let fed = sim.feed_budgeted(block, || stream.next_step());
        advanced += fed;
        if fed < block {
            session.finished = true;
            break;
        }
    }
    obs::record(obs::Hist::ServiceAdvanceSteps, advanced as u64);
    Ok(SessionProgress {
        advanced,
        step: sim.steps(),
        total_cost: sim.total_cost(),
        finished: session.finished,
    })
}

/// Rebuilds a session table from a directory of per-session journals
/// after a crash. Only sessions that spilled with progress have a file;
/// the caller re-opens the others from their streams. Every `*.mspj`
/// file is re-opened
/// ([`DurableJournal::reopen`] — torn tails truncated, newest intact
/// generation wins); `attach` maps the decoded session name and its
/// recovery to the stream and algorithm prototype that should continue
/// it (return `None` to skip). The stream is rewound and fast-forwarded
/// to the recovered step, so the next advance continues bit-equal to the
/// uninterrupted run. Journals that fail to recover are reported in the
/// [`RecoveryReport`], never silently dropped.
pub fn recover_service<const N: usize, A, F>(
    config: ServiceConfig,
    mut attach: F,
) -> Result<(SessionService<N, A>, RecoveryReport), SessionError>
where
    A: OnlineAlgorithm<N> + Memoryless + Clone + Send,
    F: FnMut(&str, &JournalRecovery<N>) -> Option<(Box<dyn RequestStream<N> + Send>, A)>,
{
    let dir = config
        .journal_dir
        .clone()
        .ok_or(SessionError::NoJournalDir)?;
    let mut service = SessionService::<N, A>::new(config);
    let mut report = RecoveryReport::default();
    let mut files: Vec<PathBuf> = match fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "mspj"))
            .collect(),
        Err(e) => {
            return Err(SessionError::Journal {
                session: dir.display().to_string(),
                error: JournalError::Io(e),
            })
        }
    };
    files.sort();
    for path in files {
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let Some(name) = session_name_from_file(&file_name) else {
            report
                .skipped
                .push((file_name, "file name is not an escaped session name".into()));
            continue;
        };
        let (journal, recovery) = match DurableJournal::<N>::reopen(&path) {
            Ok(pair) => pair,
            Err(e) => {
                report.skipped.push((file_name, e.to_string()));
                continue;
            }
        };
        let Some((mut stream, proto)) = attach(&name, &recovery) else {
            report
                .skipped
                .push((file_name, "caller attached no stream".into()));
            continue;
        };
        stream.rewind();
        for _ in 0..recovery.checkpoint.step {
            stream.next_step();
        }
        report.recovered.push(RecoveredSession {
            name: name.clone(),
            generation: recovery.generation,
            step: recovery.checkpoint.step,
            torn_tail: recovery.torn_tail.clone(),
        });
        let last_touch = service.tick();
        service.sessions.insert(
            name.clone(),
            Session {
                name,
                stream,
                proto,
                params: recovery.params,
                delta: recovery.delta,
                order: recovery.order,
                state: SessionState::Warm(recovery.checkpoint),
                journal: Some(journal),
                last_touch,
                quarantine: None,
                finished: false,
            },
        );
        obs::incr(obs::Counter::ServiceSessions);
    }
    Ok((service, report))
}

/// The journal file name of a session: the percent-escaped name plus the
/// `.mspj` extension. Escaping keeps arbitrary session names (including
/// path separators and `..`) safely inside the journal directory while
/// staying decodable for [`recover_service`].
pub fn journal_file_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    for byte in name.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' => out.push(byte as char),
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out.push_str(".mspj");
    out
}

/// Decodes a session name from a journal file name produced by
/// [`journal_file_name`]. Returns `None` for malformed names.
pub fn session_name_from_file(file_name: &str) -> Option<String> {
    let stem = file_name.strip_suffix(".mspj")?;
    let mut bytes = Vec::with_capacity(stem.len());
    let mut chars = stem.bytes();
    while let Some(b) = chars.next() {
        if b == b'%' {
            let hi = chars.next()?;
            let lo = chars.next()?;
            let hex = [hi, lo];
            let hex = std::str::from_utf8(&hex).ok()?;
            bytes.push(u8::from_str_radix(hex, 16).ok()?);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::InstanceStream;
    use msp_core::model::{Instance, Step};
    use msp_core::mtc::MoveToCenter;
    use msp_geometry::{Point, P2};

    fn test_instance(horizon: usize, seed: u64) -> Instance<2> {
        let steps = (0..horizon)
            .map(|t| {
                let x = ((t as u64).wrapping_mul(seed).wrapping_add(seed) % 17) as f64 * 0.3;
                let y = ((t as u64).wrapping_mul(31).wrapping_add(seed) % 13) as f64 * 0.2;
                Step::new(vec![P2::new([x, y])])
            })
            .collect();
        Instance::new(2.0, 1.0, Point::origin(), steps)
    }

    fn stream(horizon: usize, seed: u64) -> Box<dyn RequestStream<2> + Send> {
        Box::new(InstanceStream::new(test_instance(horizon, seed)))
    }

    fn oracle(horizon: usize, seed: u64) -> StreamCheckpoint<2> {
        let mut s = stream(horizon, seed);
        let params = s.params();
        let mut sim =
            StreamingSim::new(&params, MoveToCenter::new(), 0.25, ServingOrder::MoveFirst);
        while let Some(step) = s.next_step() {
            sim.feed(&step);
        }
        sim.checkpoint()
    }

    #[test]
    fn eviction_resume_is_bit_equal_to_the_oracle() {
        let mut service = SessionService::<2, MoveToCenter<2>>::new(ServiceConfig::new(2));
        for i in 0..6u64 {
            service
                .open_session(
                    format!("s{i}"),
                    stream(96, i + 1),
                    MoveToCenter::new(),
                    0.25,
                    ServingOrder::MoveFirst,
                )
                .unwrap();
        }
        // Round-robin advancing 6 sessions through a 2-slot resident set
        // forces continual evict/resume churn.
        for _ in 0..12 {
            for i in 0..6u64 {
                service.advance(&format!("s{i}"), 8).unwrap();
            }
        }
        assert!(service.resident() <= 2);
        assert!(service.resident_hwm() <= 2);
        for i in 0..6u64 {
            let got = service.checkpoint(&format!("s{i}")).unwrap();
            assert_eq!(got, oracle(96, i + 1), "session s{i} diverged");
        }
    }

    #[test]
    fn spill_to_journal_and_resume_is_bit_equal() {
        let dir = std::env::temp_dir().join(format!("msp_service_spill_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = ServiceConfig::new(1).with_journal_dir(&dir);
        let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
        for i in 0..3u64 {
            service
                .open_session(
                    format!("s{i}"),
                    stream(64, i + 9),
                    MoveToCenter::new(),
                    0.25,
                    ServingOrder::MoveFirst,
                )
                .unwrap();
        }
        for _ in 0..8 {
            for i in 0..3u64 {
                service.advance(&format!("s{i}"), 8).unwrap();
            }
        }
        assert!(!service.degraded());
        for i in 0..3u64 {
            let got = service.checkpoint(&format!("s{i}")).unwrap();
            assert_eq!(got, oracle(64, i + 9), "session s{i} diverged");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_cancels_at_block_boundary() {
        let config = ServiceConfig::new(4).with_step_budget(100);
        let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
        service
            .open_session(
                "runaway",
                stream(1_000, 3),
                MoveToCenter::new(),
                0.25,
                ServingOrder::MoveFirst,
            )
            .unwrap();
        let err = service.advance("runaway", 1_000).unwrap_err();
        match err {
            SessionError::StepBudgetExceeded {
                advanced, budget, ..
            } => {
                assert_eq!(budget, 100);
                // Cancelled at the first block boundary past the budget.
                assert_eq!(advanced, 128);
                assert_eq!(advanced % ADVANCE_BLOCK, 0);
            }
            other => panic!("expected StepBudgetExceeded, got {other}"),
        }
        // The session is consistent and can continue.
        let progress = service.advance("runaway", 64).unwrap();
        assert_eq!(progress.step, 192);
    }

    #[test]
    fn duplicate_and_unknown_sessions_are_typed_errors() {
        let mut service = SessionService::<2, MoveToCenter<2>>::new(ServiceConfig::new(2));
        service
            .open_session(
                "a",
                stream(16, 1),
                MoveToCenter::new(),
                0.25,
                ServingOrder::MoveFirst,
            )
            .unwrap();
        assert!(matches!(
            service.open_session(
                "a",
                stream(16, 1),
                MoveToCenter::new(),
                0.25,
                ServingOrder::MoveFirst,
            ),
            Err(SessionError::DuplicateSession(_))
        ));
        assert!(matches!(
            service.advance("missing", 4),
            Err(SessionError::UnknownSession(_))
        ));
    }

    #[test]
    fn session_names_round_trip_through_journal_file_names() {
        for name in [
            "plain",
            "walk-plane#17",
            "with space",
            "dots.and/slashes\\too",
            "..",
            "pct%41",
            "uni☂code",
        ] {
            let file = journal_file_name(name);
            assert!(!file.contains('/') && !file.contains('\\'));
            assert_eq!(session_name_from_file(&file).as_deref(), Some(name));
        }
        assert_eq!(session_name_from_file("nosuffix"), None);
        assert_eq!(session_name_from_file("bad%zz.mspj"), None);
    }
}
