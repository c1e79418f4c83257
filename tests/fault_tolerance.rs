//! Crash-safety and fault-injection contracts, end to end:
//!
//! * **Crash anywhere, resume, bit-equal** — a streaming session that
//!   journals checkpoints, crashes at an arbitrary step, and resumes from
//!   [`recover_journal`] finishes with *exactly* the totals of the
//!   uninterrupted run (proptest over scenarios × seeds × crash points ×
//!   checkpoint cadences).
//! * **Truncation matrix** — a journal lopped at *every* byte offset
//!   either recovers a previously-committed generation or fails loudly;
//!   no truncation ever yields a silently wrong answer.
//! * **Deterministic fault injection** — fault plans replay from their
//!   seed, and a silently-truncating sink is caught by the trace
//!   salvage reader rather than producing a clean-looking short trace.
//! * **Supervised fan-out** — a multi-seed sweep with one injected
//!   panicking lane completes every other lane and reports the poisoned
//!   one ([`try_parallel_map_indexed`]), with results identical to the
//!   unsupervised fan on the surviving lanes.
//! * **Sibling-journal isolation** — two sessions interleaving appends
//!   into sibling files in one directory recover independently: each
//!   file yields its own newest committed generation, and a torn tail
//!   on one never disturbs the other (the session service's per-session
//!   spill-file invariant).

use mobile_server::analysis::sweep::{try_parallel_map_indexed, LaneError};
use mobile_server::core::cost::ServingOrder;
use mobile_server::core::model::StreamParams;
use mobile_server::core::mtc::MoveToCenter;
use mobile_server::core::simulator::{StreamCheckpoint, StreamingSim};
use mobile_server::prelude::*;
use mobile_server::scenarios::fault::{FaultEvent, FaultKind, FaultPlan};
use mobile_server::scenarios::journal::{
    recover_journal, resume_from_journal, DurableJournal, JournalWriter,
};
use mobile_server::scenarios::registry::{must_lookup, ScenarioKnobs};
use mobile_server::scenarios::trace::{record_stream, salvage_trace, TraceFormat};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// The 2-D scenario families the crash/resume property ranges over.
const FAMILIES: [&str; 3] = ["walk-plane", "edge-drift", "car-fleet"];

/// Runs `scenario` to `horizon` uninterrupted and returns the final
/// checkpoint — the ground truth a resumed session must reproduce
/// bit-for-bit.
fn uninterrupted_final(
    scenario: &str,
    seed: u64,
    horizon: usize,
    delta: f64,
    order: ServingOrder,
) -> StreamCheckpoint<2> {
    let mut stream = must_lookup(scenario)
        .stream_with::<2>(seed, &ScenarioKnobs::horizon(horizon))
        .unwrap();
    let mut sim = StreamingSim::new(&stream.params(), MoveToCenter::<2>::new(), delta, order);
    while let Some(step) = stream.next_step() {
        sim.feed(&step);
    }
    sim.checkpoint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash anywhere, resume from the journal, finish bit-equal.
    #[test]
    fn crash_anywhere_then_resume_is_bit_equal(
        family in 0usize..FAMILIES.len(),
        seed in 0u64..500,
        horizon in 10usize..40,
        crash_frac in 0.0f64..1.0,
        cadence in 1usize..6,
    ) {
        let scenario = FAMILIES[family];
        let crash_at = 1 + ((horizon - 2) as f64 * crash_frac) as usize;
        let (delta, order) = (0.25, ServingOrder::MoveFirst);
        let truth = uninterrupted_final(scenario, seed, horizon, delta, order);

        // Session 1: journal every `cadence` steps, then "crash" at
        // `crash_at` — everything after the last append is simply lost.
        let knobs = ScenarioKnobs::horizon(horizon);
        let mut stream = must_lookup(scenario).stream_with::<2>(seed, &knobs).unwrap();
        let params = stream.params();
        let mut sim = StreamingSim::new(&params, MoveToCenter::<2>::new(), delta, order);
        let mut journal =
            JournalWriter::<2, Vec<u8>>::new(Vec::new(), &params, delta, order).unwrap();
        journal.append_sim(&sim).unwrap();
        for _ in 0..crash_at {
            let step = stream.next_step().unwrap();
            sim.feed(&step);
            if sim.steps() % cadence == 0 {
                journal.append_sim(&sim).unwrap();
            }
        }
        // Torn tail: the crash interrupts the next append mid-write —
        // model it as a few garbage bytes after the last full record.
        let mut bytes = journal.into_inner();
        bytes.extend_from_slice(&[0x4A, 0x52, 0x4E, 0x00, 0xFF]);

        // Session 2: recover the newest complete generation and replay
        // the remainder of the stream.
        let recovery = recover_journal::<2>(&bytes).unwrap();
        prop_assert!(recovery.torn_tail.is_some(), "mid-record tail must be loud");
        prop_assert!(recovery.checkpoint.step <= crash_at);
        let mut resumed = resume_from_journal(&recovery, MoveToCenter::<2>::new());
        stream.rewind();
        for _ in 0..recovery.checkpoint.step {
            stream.next_step().unwrap();
        }
        while let Some(step) = stream.next_step() {
            resumed.feed(&step);
        }
        let replayed = resumed.checkpoint();
        prop_assert_eq!(replayed.step, truth.step);
        prop_assert_eq!(replayed.position.coords().map(f64::to_bits),
                        truth.position.coords().map(f64::to_bits));
        prop_assert_eq!(replayed.movement.to_bits(), truth.movement.to_bits());
        prop_assert_eq!(replayed.service.to_bits(), truth.service.to_bits());
        prop_assert_eq!(replayed.max_step_used.to_bits(), truth.max_step_used.to_bits());
    }

    /// Fault plans are pure functions of their seed.
    #[test]
    fn fault_plans_replay_from_their_seed(seed in 0u64..10_000) {
        let a = FaultPlan::from_seed(seed, 200, 6);
        let b = FaultPlan::from_seed(seed, 200, 6);
        prop_assert_eq!(a.events(), b.events());
        prop_assert!(!a.events().is_empty());
    }

    /// Two sessions journaling into **sibling files in one directory**
    /// recover in isolation: whatever the append interleaving, each file
    /// yields exactly its own session's newest committed generation, and
    /// a torn tail on one file never disturbs the other's recovery. This
    /// is the invariant the session service's per-session spill files
    /// lean on.
    #[test]
    fn sibling_journals_recover_in_isolation(
        schedule in proptest::collection::vec(0usize..2, 4..16),
        seed in 0u64..1u64 << 16,
        torn in any::<bool>(),
    ) {
        const SLICE: usize = 4;
        let case = SIBLING_CASE.fetch_add(1, AtomicOrdering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "msp_siblings_{}_{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let members = [("walk-plane", seed), ("edge-drift", seed.wrapping_add(1))];
        let horizon = schedule.len() * SLICE;
        let paths = [dir.join("alpha.mspj"), dir.join("beta.mspj")];
        let mut streams = Vec::new();
        let mut sims = Vec::new();
        let mut journals = Vec::new();
        for (i, (family, seed)) in members.into_iter().enumerate() {
            let stream = must_lookup(family)
                .stream_with::<2>(seed, &ScenarioKnobs::horizon(horizon))
                .unwrap();
            let params = stream.params();
            let sim = StreamingSim::new(
                &params,
                MoveToCenter::<2>::new(),
                0.25,
                ServingOrder::MoveFirst,
            );
            journals.push(DurableJournal::create(&paths[i], &params, 0.25,
                ServingOrder::MoveFirst, &sim.checkpoint()).unwrap());
            sims.push(sim);
            streams.push(stream);
        }

        // Interleave: each scheduled turn advances one session a slice
        // and appends a generation to *its* file. Generation 0 is the
        // first checkpoint each file was created with.
        let mut last: [(u64, StreamCheckpoint<2>); 2] = [0, 1].map(|i| (0, sims[i].checkpoint()));
        for &who in &schedule {
            for _ in 0..SLICE {
                if let Some(step) = streams[who].next_step() {
                    sims[who].feed(&step);
                }
            }
            let generation = journals[who].append_sim(&sims[who]).unwrap();
            last[who] = (generation, sims[who].checkpoint());
        }
        drop(journals);

        // A torn tail on alpha only — beta's file must not notice.
        if torn {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&paths[0])
                .unwrap();
            f.write_all(b"\xDE\xAD\xBE\xEF sibling garbage").unwrap();
        }

        for (who, path) in paths.iter().enumerate() {
            let (generation, want) = last[who];
            let (recovered_generation, got, tail) = if who == 0 && torn {
                let (_journal, rec) = DurableJournal::<2>::reopen(path).unwrap();
                prop_assert!(rec.torn_tail.is_some(),
                    "garbage past the last commit must be reported");
                (rec.generation, rec.checkpoint, rec.torn_tail.clone())
            } else {
                let rec = DurableJournal::<2>::recover(path).unwrap();
                (rec.generation, rec.checkpoint, rec.torn_tail.clone())
            };
            prop_assert_eq!(recovered_generation, generation);
            prop_assert_eq!(got.step, want.step);
            prop_assert_eq!(got.movement.to_bits(), want.movement.to_bits());
            prop_assert_eq!(got.service.to_bits(), want.service.to_bits());
            if !(who == 0 && torn) {
                prop_assert!(tail.is_none(), "clean file, unexpected torn tail");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Makes every proptest case of the sibling-isolation property use a
/// distinct scratch directory, even across shrink replays.
static SIBLING_CASE: AtomicUsize = AtomicUsize::new(0);

/// Lop the journal at **every** byte offset: each prefix must either
/// fail loudly or recover a generation that was actually committed —
/// bit-equal checkpoint, correct generation number, and a torn-tail
/// report exactly when the cut is not on a record boundary.
#[test]
fn journal_truncated_at_every_byte_is_loud_or_exact() {
    let params = StreamParams::new(3.0, 0.8, P2::origin());
    let (delta, order) = (0.4, ServingOrder::AnswerFirst);
    let mut stream = must_lookup("edge-drift")
        .stream_with::<2>(11, &ScenarioKnobs::horizon(10))
        .unwrap();
    let mut sim = StreamingSim::new(&params, MoveToCenter::<2>::new(), delta, order);
    let mut journal = JournalWriter::<2, Vec<u8>>::new(Vec::new(), &params, delta, order).unwrap();

    // Commit a generation after every step, remembering each record
    // boundary and the checkpoint it commits.
    let mut boundaries: Vec<usize> = Vec::new();
    let mut committed: Vec<StreamCheckpoint<2>> = Vec::new();
    journal.append_sim(&sim).unwrap();
    committed.push(sim.checkpoint());
    for _ in 0..5 {
        let step = stream.next_step().unwrap();
        sim.feed(&step);
        journal.append_sim(&sim).unwrap();
        committed.push(sim.checkpoint());
    }
    let bytes = journal.into_inner();

    // A prefix ends on a record boundary exactly when recovery succeeds
    // with `torn_tail: None` — collect boundaries while asserting the
    // matrix semantics at every byte.
    for len in 0..=bytes.len() {
        match recover_journal::<2>(&bytes[..len]) {
            Ok(recovery) => {
                let g = recovery.generation as usize;
                assert!(g < committed.len(), "generation {g} was never committed");
                assert_eq!(
                    recovery.checkpoint, committed[g],
                    "len {len}: recovered checkpoint differs from commit {g}"
                );
                if recovery.torn_tail.is_none() {
                    boundaries.push(len);
                }
            }
            Err(_) => {
                // Loud failure — legal only before the first complete
                // record exists (header region / first record body).
                assert!(
                    boundaries.is_empty(),
                    "len {len}: hard error after a recoverable generation existed"
                );
            }
        }
    }
    // Every committed generation must be recoverable at its boundary:
    // 6 record boundaries (the full length is the last one).
    assert_eq!(
        boundaries.len(),
        committed.len(),
        "boundary count != committed generations"
    );
    assert_eq!(*boundaries.last().unwrap(), bytes.len());

    // And the newest-generation rule: at each boundary the recovered
    // generation is the count of boundaries at or below it, minus one.
    for (idx, &b) in boundaries.iter().enumerate() {
        let recovery = recover_journal::<2>(&bytes[..b]).unwrap();
        assert_eq!(recovery.generation as usize, idx);
    }
}

/// A silently-truncating sink (a fault that *reports success* while
/// discarding bytes) must be caught downstream: the salvage reader
/// never passes the short trace off as clean and complete.
#[test]
fn silent_write_truncation_is_caught_by_salvage() {
    let mut stream = must_lookup("edge-drift")
        .stream_with::<2>(5, &ScenarioKnobs::horizon(30))
        .unwrap();
    // The v3 writer makes one write for the header, then one per block:
    // at 4 steps per block, write-operation 4 is the fourth block, so the
    // truncation below lands in block data with the header intact.
    let format = TraceFormat::BlockV3 { block: 4 };
    let (_, clean) = record_stream(stream.as_mut(), format, Vec::new()).unwrap();

    // Replay the recording through a sink that silently truncates from
    // write-operation 4 onward.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: 4,
        kind: FaultKind::Truncate,
    }]);
    let faulty = mobile_server::scenarios::fault::FaultyWrite::new(Vec::new(), plan);
    stream.rewind();
    let (_, faulty) = record_stream(stream.as_mut(), format, faulty).unwrap();
    assert!(faulty.is_truncated());
    let torn = faulty.into_inner();
    assert!(
        torn.len() < clean.len(),
        "the fault must actually drop bytes"
    );

    let full_steps = salvage_trace::<2>(&clean).unwrap();
    assert!(full_steps.is_clean());
    let salvaged = salvage_trace::<2>(&torn).expect("the header was written before the fault");
    assert!(
        !salvaged.is_clean(),
        "a torn trace must not read back clean"
    );
    assert_eq!(
        salvaged.steps.len(),
        12,
        "the three blocks written before the fault survive"
    );
}

/// The acceptance regression: a multi-seed sweep with one injected
/// panicking lane completes every other lane, and the surviving results
/// match the unsupervised fan exactly.
#[test]
fn sweep_with_one_panicking_lane_completes_the_rest() {
    let seeds: Vec<u64> = (0..8).collect();
    let cost_of = |seed: u64| {
        let mut stream = must_lookup("walk-plane")
            .stream_with::<2>(seed, &ScenarioKnobs::horizon(24))
            .unwrap();
        let mut sim = StreamingSim::new(
            &stream.params(),
            MoveToCenter::<2>::new(),
            0.2,
            ServingOrder::MoveFirst,
        );
        while let Some(step) = stream.next_step() {
            sim.feed(&step);
        }
        sim.total_cost()
    };

    let supervised = try_parallel_map_indexed(&seeds, 0, 1, |i, &seed| {
        assert!(i != 4, "injected fault: lane 4 poisoned");
        Ok::<f64, String>(cost_of(seed))
    });
    assert_eq!(supervised.len(), 8);
    for (i, slot) in supervised.iter().enumerate() {
        if i == 4 {
            assert!(
                matches!(slot, Err(LaneError::Panicked { .. })),
                "lane 4 must report its panic"
            );
        } else {
            let got = *slot.as_ref().expect("healthy lanes must complete");
            assert_eq!(got.to_bits(), cost_of(seeds[i]).to_bits(), "lane {i}");
        }
    }
}
