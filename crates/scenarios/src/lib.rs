#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Streaming scenario engine for the Mobile Server Problem workspace.
//!
//! The paper's motivating workloads — edge servers chasing drifting
//! demand, autonomous-car fleets, disaster-response networks — are
//! open-ended request *streams*. This crate makes streams first-class:
//!
//! * [`stream::RequestStream`] — a pull-based, seeded, replayable step
//!   iterator, with adapters for every `msp-workloads` generator
//!   ([`stream::GeneratedStream`]), materialized instances and adversary
//!   certificates ([`stream::InstanceStream`]), and durable traces
//!   ([`trace::TraceReader`], [`trace::BlockTraceReader`]).
//! * [`trace`] — the workspace's only instance codec: two versioned
//!   trace formats (text v1 for people, block v3 for everything durable)
//!   with exact record/replay and bit-level cross-run diffing; the
//!   wire-format spec lives in `docs/TRACE_FORMAT.md`.
//! * [`registry`](mod@registry) — the named scenario catalog: benches, examples, and
//!   tests all pull their workloads from one place
//!   (`lookup("edge-drift")`) instead of bespoke setup code.
//! * [`engine`] — glue to `msp_core::simulator::run_streaming` (O(1)
//!   memory in the horizon) plus parallel multi-seed materialization and
//!   trace recording.
//! * [`journal`] — the crash-safety tier: a CRC-guarded, append-only
//!   checkpoint journal from which an interrupted streaming session
//!   resumes bit-equal to the uninterrupted run (spec in
//!   `docs/CHECKPOINT_FORMAT.md`).
//! * [`fault`] — deterministic, seed-replayable fault injection for
//!   sinks, sources, and streams: every discovered failure is a
//!   reproducible test case.
//! * [`durable`] — temp-file + atomic-rename commit discipline, so a
//!   final filename never points at half-written bytes.
//! * [`service`] — the supervised session tier: thousands of named,
//!   checkpointed sessions multiplexed over a bounded resident set with
//!   LRU eviction, journal spill, retry/quarantine supervision, and
//!   crash-anywhere recovery ([`service::recover_service`]).
//! * [`corpus`] — the trace corpus tier: every registry scenario
//!   recorded once as a block v3 trace (delta-encoded, CRC-guarded,
//!   O(1)-seekable), then scanned, replayed, and bit-exactly diffed in
//!   block-parallel against a manifest of recorded cost totals
//!   ([`corpus::sweep_corpus`]).

pub mod corpus;
pub mod durable;
pub mod engine;
pub mod fault;
#[cfg(test)]
mod io;
pub mod journal;
pub mod registry;
pub mod service;
pub mod stream;
pub mod trace;

pub use corpus::{
    corpus_trace_path, diff_block_traces, read_manifest, record_registry_corpus, scan_corpus,
    sweep_corpus, CorpusEntry, CorpusScanEntry, SweepOutcome, CORPUS_BLOCK_STEPS,
};
pub use durable::{record_seeds_to_dir, record_stream_to_path, AtomicFile};
pub use engine::{
    materialize, materialize_seeds, record_seeds, run_stream, run_stream_with_summary,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultyRead, FaultyStream, FaultyWrite};
pub use journal::{
    recover_journal, resume_from_journal, DurableJournal, JournalError, JournalRecovery,
    JournalWriter,
};
pub use registry::{
    lookup, lookup_or_err, must_lookup, registry, RegistryError, ScenarioError, ScenarioKnobs,
    ScenarioSpec,
};
pub use service::{
    recover_service, QuarantineReport, RecoveredSession, RecoveryReport, ServiceConfig,
    SessionError, SessionProgress, SessionService, ADVANCE_BLOCK,
};
pub use stream::{collect_instance, GeneratedStream, InstanceStream, RequestStream, StreamSteps};
pub use trace::{
    diff_streams, read_trace, record_stream, record_to_vec, salvage_block_trace, salvage_trace,
    BlockTraceReader, SalvagedTrace, StreamDiff, TraceError, TraceFormat, TraceReader, TraceWriter,
};
