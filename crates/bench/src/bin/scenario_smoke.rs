//! Scenario smoke check for CI: for every registry scenario, record a
//! short trace in each format, replay it, and diff it bit-exactly against
//! the live stream; then run one bounded-memory streaming simulation.
//!
//! Exits non-zero on the first divergence, so a broken trace codec or a
//! non-replayable scenario fails the build.
//!
//! With `--fault-seed <n>` the run also exercises the crash-safety tier
//! per scenario: a recording through a seeded silently-truncating sink
//! must be caught by the salvage reader (never read back clean and
//! complete), and a journaled session crashed mid-stream must resume
//! from [`msp_scenarios::journal::recover_journal`] bit-equal to the
//! uninterrupted run.
//!
//! With `--metrics` the run enables the process-wide observability
//! registry ([`msp_analysis::obs`]), drives a probed streaming run, a
//! one-pass grid-DP horizon sweep and one production seed fan (so the
//! `grid_dp.steps` and `grid_dp.windowed_cells` counters, and with a
//! thread budget of two or more the `executor.*` fan counters, are
//! exercised, not just declared), validates the resulting
//! [`msp_analysis::MetricsSnapshot`] (every counter present, totals
//! monotone across the run, no timestamps — the snapshot must be
//! deterministic modulo timing histograms), and dumps it as JSON.
//!
//! With `--chaos` the run drives a mixed session fleet through a
//! seed-replayable schedule of advances, evictions, crashes (drop the
//! whole [`msp_scenarios::SessionService`] and rebuild it with
//! [`msp_scenarios::recover_service`]), and journal corruptions — then
//! asserts every surviving session's trajectory is bit-equal to its
//! uninterrupted oracle and every poisoned session surfaced as a typed
//! quarantine, never a silent drop. `--seed <n>` picks the schedule.
//!
//! Run `scenario_smoke --help` for the flag summary.

use msp_analysis::obs;
use msp_analysis::sweep::pool_threads;
use msp_analysis::BackoffSchedule;
use msp_core::cost::ServingOrder;
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{StreamCheckpoint, StreamingSim};
use msp_scenarios::{
    corpus_trace_path, diff_block_traces, diff_streams, lookup, materialize, materialize_seeds,
    record_registry_corpus, record_stream, record_to_vec, recover_journal, recover_service,
    registry, resume_from_journal, run_stream, salvage_trace, scan_corpus, sweep_corpus,
    BlockTraceReader, FaultEvent, FaultKind, FaultPlan, FaultyStream, FaultyWrite, InstanceStream,
    JournalWriter, RequestStream, ScenarioKnobs, ScenarioSpec, ServiceConfig, SessionError,
    SessionService, TraceFormat, TraceReader,
};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::{Path, PathBuf};

const SMOKE_SEED: u64 = 2017;
const SMOKE_HORIZON: usize = 256;

const USAGE: &str = "\
scenario_smoke — registry-wide record/replay/diff smoke check

USAGE:
    scenario_smoke [OPTIONS]

OPTIONS:
    --fault-seed <n>   Also run the crash-safety smoke per scenario:
                       torn-write salvage plus journal crash/resume,
                       with every fault placement derived from <n>.
    --metrics          Enable the observability registry, run a probed
                       grid smoke and a seed fan (asserting the grid_dp.*
                       counters move, and the executor.* fan counters
                       when MSP_THREADS >= 2), validate the post-run
                       snapshot schema, and dump it as JSON.
    --chaos            Drive a mixed session-service fleet through a
                       seed-replayable schedule of advances, evictions,
                       crashes, and journal corruptions, asserting
                       bit-equal recovery and typed quarantines.
    --seed <n>         Schedule seed for --chaos (default 2017).
    --corpus           Record every registry scenario into a block-v3
                       corpus directory, scan it (every block CRC
                       checked), run the corpus-level differential
                       regression sweep (replay vs recorded totals,
                       bit-exact), and spot-check O(1) seeks and the
                       block-parallel diff against themselves.
    --help             Print this help and exit.

Unknown flags are an error (exit 2), so a typo can never silently
downgrade the check.";

/// Parsed command-line options — one struct, one parsing pass, instead
/// of ad-hoc flag scanning.
#[derive(Debug, Default, PartialEq)]
struct SmokeOptions {
    fault_seed: Option<u64>,
    metrics: bool,
    chaos: bool,
    chaos_seed: u64,
    corpus: bool,
    help: bool,
}

impl SmokeOptions {
    fn parse(args: impl Iterator<Item = String>) -> Result<SmokeOptions, String> {
        let mut options = SmokeOptions {
            chaos_seed: SMOKE_SEED,
            ..SmokeOptions::default()
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => options.help = true,
                "--metrics" => options.metrics = true,
                "--chaos" => options.chaos = true,
                "--corpus" => options.corpus = true,
                "--fault-seed" => {
                    let raw = args.next().ok_or("--fault-seed requires a value")?;
                    options.fault_seed = Some(
                        raw.parse()
                            .map_err(|_| format!("--fault-seed: not a number: {raw}"))?,
                    );
                }
                "--seed" => {
                    let raw = args.next().ok_or("--seed requires a value")?;
                    options.chaos_seed = raw
                        .parse()
                        .map_err(|_| format!("--seed: not a number: {raw}"))?;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(options)
    }
}

fn formats() -> [TraceFormat; 2] {
    [TraceFormat::TextV1, TraceFormat::DURABLE]
}

/// Records `stream` in every format and diffs each replay against the
/// live stream; returns the number of formats checked.
fn check_record_replay<const N: usize>(
    name: &str,
    stream: &mut dyn RequestStream<N>,
) -> Result<usize, String> {
    for format in formats() {
        let bytes = record_to_vec(stream, format)
            .map_err(|e| format!("{name}: recording {format:?} failed: {e}"))?;
        if matches!(format, TraceFormat::BlockV3 { .. }) {
            let mut replay = BlockTraceReader::<N>::open(&bytes)
                .map_err(|e| format!("{name}: opening {format:?} replay failed: {e}"))?;
            if let Some(diff) = diff_streams(stream, &mut replay) {
                return Err(format!("{name}: {format:?} replay diverged: {diff}"));
            }
        } else {
            let mut replay = TraceReader::<N, _>::open(Cursor::new(bytes))
                .map_err(|e| format!("{name}: opening {format:?} replay failed: {e}"))?;
            if let Some(diff) = diff_streams(stream, &mut replay) {
                return Err(format!("{name}: {format:?} replay diverged: {diff}"));
            }
        }
    }
    Ok(formats().len())
}

fn smoke_dim<const N: usize>(spec: &ScenarioSpec) -> Result<(), String> {
    let knobs = ScenarioKnobs::horizon(SMOKE_HORIZON);
    let mut stream = spec
        .stream_with::<N>(SMOKE_SEED, &knobs)
        .map_err(|e| format!("{}: {e}", spec.name))?;
    let checked = check_record_replay(spec.name, stream.as_mut())?;
    let res = run_stream(
        stream.as_mut(),
        MoveToCenter::new(),
        spec.default_delta,
        ServingOrder::MoveFirst,
    );
    println!(
        "  {:<20} dim {N}  {} steps replayed in {checked} formats, streamed cost {:.1}",
        spec.name,
        res.steps,
        res.movement + res.service
    );
    Ok(())
}

fn smoke_one(spec: &ScenarioSpec) -> Result<(), String> {
    match spec.dim {
        1 => smoke_dim::<1>(spec),
        2 => smoke_dim::<2>(spec),
        other => Err(format!("{}: unexpected dimension {other}", spec.name)),
    }
}

/// Crash-safety smoke for one scenario: a silently-truncating recording
/// must be caught by the salvage reader, and a journaled session crashed
/// at a seed-derived step must resume bit-equal to the uninterrupted
/// run. All fault placements derive from `fault_seed`, so a CI failure
/// replays locally from the seed in the log.
fn fault_smoke_dim<const N: usize>(spec: &ScenarioSpec, fault_seed: u64) -> Result<(), String> {
    let name = spec.name;
    let knobs = ScenarioKnobs::horizon(SMOKE_HORIZON);
    let mut stream = spec
        .stream_with::<N>(SMOKE_SEED, &knobs)
        .map_err(|e| format!("{name}: {e}"))?;

    // 1. A sink that silently truncates (reports success, drops bytes)
    //    must never read back clean and complete. The v3 writer makes
    //    one write each for the header, every block and the trailer, so
    //    at 8 steps per block a 256-step recording makes 34 writes and
    //    the truncation (op 2–25) always lands in block data.
    let format = TraceFormat::BlockV3 { block: 8 };
    let (_, clean) = record_stream(stream.as_mut(), format, Vec::new())
        .map_err(|e| format!("{name}: clean recording failed: {e}"))?;
    let truncate_op = 2 + fault_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 24;
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: truncate_op,
        kind: FaultKind::Truncate,
    }]);
    let (_, faulty) = record_stream(stream.as_mut(), format, FaultyWrite::new(Vec::new(), plan))
        .map_err(|e| format!("{name}: faulty recording failed: {e}"))?;
    if !faulty.is_truncated() {
        return Err(format!(
            "{name}: truncation at op {truncate_op} never fired"
        ));
    }
    let torn = faulty.into_inner();
    let full = salvage_trace::<N>(&clean).map_err(|e| format!("{name}: clean salvage: {e}"))?;
    if let Ok(salvaged) = salvage_trace::<N>(&torn) {
        if salvaged.is_clean() && salvaged.steps.len() == full.steps.len() {
            return Err(format!(
                "{name}: silent truncation at op {truncate_op} read back clean and complete"
            ));
        }
    }

    // 2. Journal a session, crash at a seed-derived step with a torn
    //    in-flight record, recover, resume, and demand bit-equality.
    let params = stream.params();
    let (delta, order) = (spec.default_delta, ServingOrder::MoveFirst);
    stream.rewind();
    let mut truth = StreamingSim::new(&params, MoveToCenter::new(), delta, order);
    while let Some(step) = stream.next_step() {
        truth.feed(&step);
    }
    let truth = truth.checkpoint();

    let crash_at = 1 + (fault_seed as usize % (SMOKE_HORIZON - 1));
    stream.rewind();
    let mut sim = StreamingSim::new(&params, MoveToCenter::new(), delta, order);
    let mut journal = JournalWriter::<N, Vec<u8>>::new(Vec::new(), &params, delta, order)
        .map_err(|e| format!("{name}: journal open: {e}"))?;
    journal
        .append_sim(&sim)
        .map_err(|e| format!("{name}: journal append: {e}"))?;
    for _ in 0..crash_at {
        let Some(step) = stream.next_step() else {
            break;
        };
        sim.feed(&step);
        if sim.steps() % 16 == 0 {
            journal
                .append_sim(&sim)
                .map_err(|e| format!("{name}: journal append: {e}"))?;
        }
    }
    let mut bytes = journal.into_inner();
    bytes.extend_from_slice(b"JRN"); // the crash tore the next record

    let recovery =
        recover_journal::<N>(&bytes).map_err(|e| format!("{name}: recovery failed: {e}"))?;
    if recovery.torn_tail.is_none() {
        return Err(format!("{name}: torn in-flight record went unreported"));
    }
    let mut resumed = resume_from_journal(&recovery, MoveToCenter::new())
        .map_err(|e| format!("{name}: resume failed: {e}"))?;
    stream.rewind();
    for _ in 0..recovery.checkpoint.step {
        stream.next_step();
    }
    while let Some(step) = stream.next_step() {
        resumed.feed(&step);
    }
    if resumed.checkpoint() != truth {
        return Err(format!(
            "{name}: resumed run diverged from the uninterrupted run (crash at {crash_at})"
        ));
    }
    println!(
        "  {:<20} dim {N}  torn recording caught, crash@{crash_at} resumed bit-equal (gen {})",
        name, recovery.generation
    );
    Ok(())
}

fn fault_smoke_one(spec: &ScenarioSpec, fault_seed: u64) -> Result<(), String> {
    match spec.dim {
        1 => fault_smoke_dim::<1>(spec, fault_seed),
        2 => fault_smoke_dim::<2>(spec, fault_seed),
        other => Err(format!("{}: unexpected dimension {other}", spec.name)),
    }
}

// ---------------------------------------------------------------------------
// Corpus smoke
// ---------------------------------------------------------------------------

/// O(1)-seek and self-diff spot checks for one corpus trace: frames
/// reached via `seek_to_step` must be bit-equal to the sequential
/// replay's, and the block-parallel diff of the trace against itself
/// must be `None` for several thread counts.
fn corpus_seek_check<const N: usize>(dir: &Path, name: &str) -> Result<(), String> {
    let bytes = std::fs::read(corpus_trace_path(dir, name))
        .map_err(|e| format!("corpus: {name}: read failed: {e}"))?;
    let mut reader = BlockTraceReader::<N>::open(&bytes)
        .map_err(|e| format!("corpus: {name}: open failed: {e}"))?;
    let mut frames: Vec<Vec<[u64; N]>> = Vec::new();
    while let Some(frame) = reader
        .next_frame()
        .map_err(|e| format!("corpus: {name}: sequential read failed: {e}"))?
    {
        frames.push(
            frame
                .iter()
                .map(|p| {
                    let mut bits = [0u64; N];
                    for (b, c) in bits.iter_mut().zip(p.coords()) {
                        *b = c.to_bits();
                    }
                    bits
                })
                .collect(),
        );
    }
    let total = frames.len();
    for k in [0, total / 3, total / 2, total.saturating_sub(1), total] {
        reader
            .seek_to_step(k)
            .map_err(|e| format!("corpus: {name}: seek_to_step({k}) failed: {e}"))?;
        let frame = reader
            .next_frame()
            .map_err(|e| format!("corpus: {name}: read after seek({k}) failed: {e}"))?;
        match frame {
            None => {
                if k < total {
                    return Err(format!("corpus: {name}: seek({k}) hit a premature end"));
                }
            }
            Some(frame) => {
                let want = &frames[k];
                let same = frame.len() == want.len()
                    && frame.iter().zip(want).all(|(p, w)| {
                        p.coords()
                            .iter()
                            .zip(w.iter())
                            .all(|(c, b)| c.to_bits() == *b)
                    });
                if !same {
                    return Err(format!(
                        "corpus: {name}: frame at seek({k}) differs from sequential replay"
                    ));
                }
            }
        }
    }
    for threads in [1, 2, 0] {
        match diff_block_traces::<N>(&bytes, &bytes, threads) {
            Ok(None) => {}
            Ok(Some(diff)) => {
                return Err(format!(
                    "corpus: {name}: self-diff ({threads} threads) found {diff}"
                ))
            }
            Err(e) => return Err(format!("corpus: {name}: self-diff failed: {e}")),
        }
    }
    Ok(())
}

/// The corpus smoke: record every registry scenario into a block-v3
/// corpus, scan it structurally, run the corpus-level differential
/// regression sweep, and spot-check seeks and the block-parallel diff.
fn corpus_smoke() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("msp_corpus_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = record_registry_corpus(&dir, SMOKE_SEED, Some(SMOKE_HORIZON))
        .map_err(|e| format!("corpus: recording failed: {e}"))?;
    let scans = scan_corpus(&dir, 0).map_err(|e| format!("corpus: scan failed: {e}"))?;
    let blocks: usize = scans.iter().map(|s| s.blocks).sum();
    let bytes: u64 = scans.iter().map(|s| s.bytes).sum();
    let outcomes = sweep_corpus(&dir, 0).map_err(|e| format!("corpus: sweep failed: {e}"))?;
    for outcome in &outcomes {
        if let Some(mismatch) = &outcome.mismatch {
            return Err(format!(
                "corpus: {} replay diverged from its recorded totals: {mismatch}",
                outcome.name
            ));
        }
    }
    for entry in &entries {
        let spec = lookup(&entry.name)
            .ok_or_else(|| format!("corpus: unknown scenario {}", entry.name))?;
        match spec.dim {
            1 => corpus_seek_check::<1>(&dir, &entry.name)?,
            2 => corpus_seek_check::<2>(&dir, &entry.name)?,
            other => {
                return Err(format!(
                    "corpus: {}: unexpected dimension {other}",
                    entry.name
                ))
            }
        }
    }
    println!(
        "  corpus: {} traces, {blocks} blocks, {} KiB — scan clean, sweep bit-equal, \
         seeks and self-diffs consistent",
        entries.len(),
        bytes / 1024,
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

const CHAOS_SCENARIOS: [&str; 5] = [
    "walk-plane",
    "edge-drift",
    "car-fleet",
    "ring-districts",
    "fleet-chase",
];
const CHAOS_HORIZON: usize = 192;
const CHAOS_SEEDS_PER_SCENARIO: u64 = 3;
const CHAOS_DELTA: f64 = 0.25;
const CHAOS_EVENTS: usize = 36;
/// Stream op at which the poisoned sessions' injected panic fires.
const CHAOS_PANIC_OP: u64 = 100;

/// SplitMix64 — the schedule's only randomness source, so every chaos
/// run replays exactly from its seed.
struct ChaosRng(u64);

impl ChaosRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One member of the chaos fleet. `poisoned` members run behind a
/// [`FaultyStream`] that panics at op [`CHAOS_PANIC_OP`] — they can never
/// finish and must end the run quarantined.
#[derive(Clone)]
struct FleetMember {
    name: String,
    scenario: &'static str,
    seed: u64,
    poisoned: bool,
}

fn member_name(scenario: &str, seed: u64, poisoned: bool) -> String {
    if poisoned {
        format!("{scenario}#{seed}#poisoned")
    } else {
        format!("{scenario}#{seed}")
    }
}

/// Decodes a fleet-member name back into its scenario/seed/poisoned
/// parts — the inverse of [`member_name`], used when re-attaching
/// streams during recovery.
fn parse_member_name(name: &str) -> Option<(&str, u64, bool)> {
    let mut parts = name.split('#');
    let scenario = parts.next()?;
    let seed: u64 = parts.next()?.parse().ok()?;
    let poisoned = match parts.next() {
        None => false,
        Some("poisoned") => true,
        Some(_) => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some((scenario, seed, poisoned))
}

fn chaos_stream(
    scenario: &str,
    seed: u64,
    poisoned: bool,
) -> Result<Box<dyn RequestStream<2> + Send>, String> {
    let spec = lookup(scenario).ok_or_else(|| format!("chaos: unknown scenario {scenario}"))?;
    let knobs = ScenarioKnobs::horizon(CHAOS_HORIZON);
    let stream = spec
        .stream_with::<2>(seed, &knobs)
        .map_err(|e| format!("chaos: {scenario}: {e}"))?;
    if poisoned {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: CHAOS_PANIC_OP,
            kind: FaultKind::Panic,
        }]);
        Ok(Box::new(FaultyStream::new(stream, plan)))
    } else {
        Ok(stream)
    }
}

fn chaos_config(dir: &Path, seed: u64) -> ServiceConfig {
    ServiceConfig::new(4)
        .with_journal_dir(dir)
        .with_retries(2, BackoffSchedule::new(seed, 1_000, 8_000))
        .with_fault_plan(FaultPlan::from_seed(seed, 48, 5))
}

fn open_member(
    service: &mut SessionService<2, MoveToCenter<2>>,
    member: &FleetMember,
) -> Result<(), String> {
    let stream = chaos_stream(member.scenario, member.seed, member.poisoned)?;
    service
        .open_session(
            member.name.clone(),
            stream,
            MoveToCenter::new(),
            CHAOS_DELTA,
            ServingOrder::MoveFirst,
        )
        .map_err(|e| format!("chaos: open {}: {e}", member.name))
}

/// Appends garbage to one seed-chosen journal file — simulated disk
/// corruption, observed by the service at the next recovery.
fn corrupt_one_journal(dir: &Path, rng: &mut ChaosRng) -> Option<String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "mspj"))
        .collect();
    files.sort();
    if files.is_empty() {
        return None;
    }
    let victim = &files[rng.below(files.len() as u64) as usize];
    let mut bytes = std::fs::read(victim).ok()?;
    bytes.extend_from_slice(b"\xDE\xAD\xBE\xEFchaos-garbage");
    std::fs::write(victim, &bytes).ok()?;
    victim.file_name().map(|n| n.to_string_lossy().into_owned())
}

/// Drops the whole service (the crash) and rebuilds it from the journal
/// directory; members that never spilled (or whose journal was lost to
/// corruption) are re-opened from scratch — their deterministic streams
/// replay to the same trajectory.
fn crash_and_recover(
    service: SessionService<2, MoveToCenter<2>>,
    config: &ServiceConfig,
    fleet: &[FleetMember],
) -> Result<(SessionService<2, MoveToCenter<2>>, usize, usize), String> {
    drop(service);
    let (mut service, report) = recover_service::<2, MoveToCenter<2>, _>(config.clone(), {
        |name, _recovery| {
            let (scenario, seed, poisoned) = parse_member_name(name)?;
            let stream = chaos_stream(scenario, seed, poisoned).ok()?;
            Some((stream, MoveToCenter::new()))
        }
    })
    .map_err(|e| format!("chaos: recovery failed: {e}"))?;
    let recovered = report.recovered.len();
    let skipped = report.skipped.len();
    for member in fleet {
        if !service.contains(&member.name) {
            open_member(&mut service, member)?;
        }
    }
    Ok((service, recovered, skipped))
}

/// The chaos smoke: a mixed fleet over a bounded-memory service, driven
/// through a seed-replayable schedule of batch advances, explicit
/// evictions, crash/recover cycles, and journal corruptions. Survivors
/// must end bit-equal to their uninterrupted oracles; poisoned members
/// must end quarantined with a typed error naming the injected fault.
fn chaos_smoke(seed: u64) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("msp_chaos_{}_{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = chaos_config(&dir, seed);

    // Assemble the fleet: every chaos scenario × a few seeds, plus two
    // poisoned members that must quarantine rather than finish.
    let mut fleet: Vec<FleetMember> = Vec::new();
    for scenario in CHAOS_SCENARIOS {
        for s in 0..CHAOS_SEEDS_PER_SCENARIO {
            let seed_s = seed.wrapping_add(s);
            fleet.push(FleetMember {
                name: member_name(scenario, seed_s, false),
                scenario,
                seed: seed_s,
                poisoned: false,
            });
        }
    }
    for (scenario, s) in [("walk-plane", 97u64), ("edge-drift", 98u64)] {
        fleet.push(FleetMember {
            name: member_name(scenario, s, true),
            scenario,
            seed: s,
            poisoned: true,
        });
    }

    // Uninterrupted oracle per healthy member: the full run, no service,
    // no eviction, no faults.
    let mut oracles: BTreeMap<String, StreamCheckpoint<2>> = BTreeMap::new();
    for member in fleet.iter().filter(|m| !m.poisoned) {
        let mut stream = chaos_stream(member.scenario, member.seed, false)?;
        let params = stream.params();
        let mut sim = StreamingSim::new(
            &params,
            MoveToCenter::new(),
            CHAOS_DELTA,
            ServingOrder::MoveFirst,
        );
        while let Some(step) = stream.next_step() {
            sim.feed(&step);
        }
        oracles.insert(member.name.clone(), sim.checkpoint());
    }

    let mut service = SessionService::<2, MoveToCenter<2>>::new(config.clone());
    for member in &fleet {
        open_member(&mut service, member)?;
    }

    // The scheduled chaos: mostly batch advances, some explicit
    // evictions, with crashes forced at fixed schedule positions (one of
    // them preceded by journal corruption) and extra seed-chosen crashes.
    let mut rng = ChaosRng(seed);
    let (mut crashes, mut corruptions, mut recovered_total, mut skipped_total) = (0, 0, 0, 0);
    for event in 0..CHAOS_EVENTS {
        let forced_crash = event == CHAOS_EVENTS / 3 || event == 2 * CHAOS_EVENTS / 3;
        let roll = rng.below(12);
        if forced_crash || roll == 11 {
            if forced_crash
                && event >= CHAOS_EVENTS / 2
                && corrupt_one_journal(&dir, &mut rng).is_some()
            {
                corruptions += 1;
            }
            let (next, recovered, skipped) = crash_and_recover(service, &config, &fleet)?;
            service = next;
            crashes += 1;
            recovered_total += recovered;
            skipped_total += skipped;
        } else if roll >= 9 {
            let victim = &fleet[rng.below(fleet.len() as u64) as usize];
            service
                .evict(&victim.name)
                .map_err(|e| format!("chaos: evict {}: {e}", victim.name))?;
        } else {
            let mut requests: Vec<(String, usize)> = Vec::new();
            for member in &fleet {
                if rng.below(2) == 0 {
                    requests.push((member.name.clone(), 16 + rng.below(48) as usize));
                }
            }
            for (request, result) in requests.iter().zip(service.advance_batch(&requests)) {
                match result {
                    Ok(_) | Err(SessionError::Quarantined { .. }) => {}
                    Err(e) => return Err(format!("chaos: advance {}: {e}", request.0)),
                }
            }
        }
    }

    // Drive every non-quarantined member to the end of its stream.
    for _ in 0..64 {
        let requests: Vec<(String, usize)> = fleet
            .iter()
            .filter(|m| service.inspect(&m.name).is_none())
            .filter(|m| {
                service
                    .checkpoint(&m.name)
                    .map(|cp| cp.step < CHAOS_HORIZON)
                    .unwrap_or(true)
            })
            .map(|m| (m.name.clone(), 64))
            .collect();
        if requests.is_empty() {
            break;
        }
        for (request, result) in requests.iter().zip(service.advance_batch(&requests)) {
            match result {
                Ok(_) | Err(SessionError::Quarantined { .. }) => {}
                Err(e) => return Err(format!("chaos: final drive {}: {e}", request.0)),
            }
        }
    }

    // Verdict 1: every healthy member's trajectory is bit-equal to its
    // uninterrupted oracle.
    for member in fleet.iter().filter(|m| !m.poisoned) {
        let got = service
            .checkpoint(&member.name)
            .map_err(|e| format!("chaos: checkpoint {}: {e}", member.name))?;
        let want = &oracles[&member.name];
        if got != *want {
            return Err(format!(
                "chaos: {} diverged from its oracle after {crashes} crash(es): \
                 step {} vs {}, cost {:.6} vs {:.6}",
                member.name,
                got.step,
                want.step,
                got.movement + got.service,
                want.movement + want.service,
            ));
        }
    }

    // Verdict 2: every poisoned member surfaced as a typed quarantine
    // naming the injected fault — never a silent drop or a wrong answer.
    for member in fleet.iter().filter(|m| m.poisoned) {
        let report = service
            .inspect(&member.name)
            .ok_or_else(|| format!("chaos: poisoned {} was not quarantined", member.name))?;
        if !report.cause.contains("injected fault") {
            return Err(format!(
                "chaos: {} quarantined for the wrong reason: {}",
                member.name, report.cause
            ));
        }
    }

    println!(
        "  chaos seed {seed}: {} members, {crashes} crashes ({recovered_total} journal \
         recoveries, {skipped_total} skipped), {corruptions} corruption(s), \
         {} quarantined, survivors bit-equal to oracle",
        fleet.len(),
        service.quarantined().len(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Exercises the grid counters under `--metrics`: a probed streaming run
/// (the probe's windowed DP bounds every 8-step block), plus a one-pass
/// grid-DP horizon sweep ([`msp_offline::GridDp::prefix_optima`]) — so
/// [`validate_metrics`] can demand `grid_dp.steps` and
/// `grid_dp.windowed_cells` both moved during the run.
fn grid_metrics_smoke() -> Result<(), String> {
    use msp_core::model::{Instance, Step};
    use msp_geometry::P2;
    use msp_offline::{run_streaming_probed, GridDp, ProbeOptions};

    // Period-2 corner requests: every 8-step probe block closes a window
    // bound.
    let steps: Vec<Step<2>> = (0..48)
        .map(|t| {
            Step::single(if t % 2 == 0 {
                P2::xy(0.0, 0.0)
            } else {
                P2::xy(8.0, 6.0)
            })
        })
        .collect();
    let inst = Instance::new(2.0, 0.5, P2::xy(4.0, 3.0), steps);
    let (_, samples) = run_streaming_probed(
        &inst.params(),
        inst.steps.iter().cloned(),
        MoveToCenter::default(),
        0.25,
        ServingOrder::MoveFirst,
        ProbeOptions { grid_block: 8 },
        16,
    );
    if samples.is_empty() {
        return Err("probed smoke run produced no ratio samples".into());
    }
    // Horizon sweep: one forward pass prices all three marks.
    let optima =
        GridDp::new(&inst, 15).prefix_optima(&inst, ServingOrder::MoveFirst, &[16, 32, 48]);
    if !optima.iter().all(|&opt| opt.is_finite() && opt > 0.0) {
        return Err(format!("grid smoke OPT not positive: {optima:?}"));
    }
    Ok(())
}

/// Exercises the executor under `--metrics`: one production fan,
/// [`materialize_seeds`] of a registry scenario over four seeds, checked
/// bit-equal to materializing each seed alone. With a thread budget of
/// two or more it really fans out, so [`validate_metrics`] can demand
/// that `executor.dispatches` and `executor.items` moved.
fn fan_metrics_smoke() -> Result<(), String> {
    let spec = lookup("walk-plane").ok_or("fan smoke: no walk-plane scenario")?;
    let knobs = ScenarioKnobs::horizon(SMOKE_HORIZON);
    let seeds = [SMOKE_SEED, SMOKE_SEED + 1, SMOKE_SEED + 2, SMOKE_SEED + 3];
    let fanned = materialize_seeds::<2>(&spec, &seeds, &knobs).map_err(|e| e.to_string())?;
    for (&seed, inst) in seeds.iter().zip(fanned) {
        let alone = materialize::<2>(&spec, seed, &knobs).map_err(|e| e.to_string())?;
        let diff = diff_streams(
            &mut InstanceStream::new(inst),
            &mut InstanceStream::new(alone),
        );
        if let Some(diff) = diff {
            return Err(format!("seed {seed}: fanned instance diverged: {diff}"));
        }
    }
    Ok(())
}

/// Schema checks on the post-run snapshot: every declared metric must be
/// present, totals must dominate the pre-run snapshot (counters are
/// monotone), and the rendered JSON must carry no wall-clock fields —
/// the contract `docs/OBSERVABILITY.md` pins.
fn validate_metrics(
    before: &msp_analysis::MetricsSnapshot,
    after: &msp_analysis::MetricsSnapshot,
) -> Result<(), String> {
    if !after.enabled {
        return Err("snapshot taken with the registry disabled".into());
    }
    for c in obs::Counter::ALL {
        if after.counter(c.name()).is_none() {
            return Err(format!("counter {} missing from snapshot", c.name()));
        }
    }
    for g in obs::Gauge::ALL {
        if after.gauge(g.name()).is_none() {
            return Err(format!("gauge {} missing from snapshot", g.name()));
        }
    }
    for h in obs::Hist::ALL {
        if after.hist(h.name()).is_none() {
            return Err(format!("histogram {} missing from snapshot", h.name()));
        }
    }
    if !after.dominates(before) {
        return Err("metrics regressed across the smoke run (counters must be monotone)".into());
    }
    let sessions_before = before.counter("stream.sessions").unwrap_or(0);
    let sessions_after = after.counter("stream.sessions").unwrap_or(0);
    if sessions_after <= sessions_before {
        return Err("smoke run recorded no streaming sessions".into());
    }
    // The grid smoke must have driven the grid DP: transition steps and
    // windowed-scan cells from the one-pass horizon sweep. With two or
    // more threads the seed fan really fans out; a width-1 fan runs
    // inline and counts nothing.
    let mut moved = vec!["grid_dp.steps", "grid_dp.windowed_cells"];
    if pool_threads() >= 2 {
        moved.extend(["executor.dispatches", "executor.items"]);
    }
    for name in moved {
        let b = before.counter(name).unwrap_or(0);
        if after.counter(name).unwrap_or(0) <= b {
            return Err(format!(
                "{name} did not move across the metrics smoke at {} threads",
                pool_threads()
            ));
        }
    }
    let rendered = after.to_json().to_string();
    if !rendered.contains(&format!("\"schema\":\"{}\"", obs::SCHEMA)) {
        return Err(format!(
            "snapshot JSON lacks the {} schema tag",
            obs::SCHEMA
        ));
    }
    for stamp in ["timestamp", "wall_clock", "\"time\":", "date"] {
        if rendered.contains(stamp) {
            return Err(format!("snapshot JSON must not carry {stamp}"));
        }
    }
    Ok(())
}

fn main() {
    let options = match SmokeOptions::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("run `scenario_smoke --help` for the flag summary");
            std::process::exit(2);
        }
    };
    if options.help {
        println!("{USAGE}");
        return;
    }

    let metrics_before = options.metrics.then(|| {
        obs::enable();
        obs::snapshot()
    });

    let specs = registry();
    println!(
        "scenario smoke: {} scenarios × record/replay/diff ({} steps each)",
        specs.len(),
        SMOKE_HORIZON
    );
    let mut failures = 0;
    for spec in &specs {
        if let Err(e) = smoke_one(spec) {
            eprintln!("FAIL {e}");
            failures += 1;
        }
    }
    if let Some(seed) = options.fault_seed {
        println!("fault smoke (seed {seed}): torn-write salvage + journal crash/resume");
        for spec in &specs {
            if let Err(e) = fault_smoke_one(spec, seed) {
                eprintln!("FAIL {e}");
                failures += 1;
            }
        }
    }
    if options.corpus {
        println!("corpus smoke: block-v3 record → scan → differential sweep → seek/self-diff");
        if let Err(e) = corpus_smoke() {
            eprintln!("FAIL {e}");
            failures += 1;
        }
    }
    if options.chaos {
        println!(
            "chaos smoke (seed {}): session fleet under crash/evict/corrupt schedule",
            options.chaos_seed
        );
        // The poisoned members panic by design (and are caught by the
        // supervision layer); keep their backtraces out of the CI log.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected fault") {
                prev(info);
            }
        }));
        if let Err(e) = chaos_smoke(options.chaos_seed) {
            eprintln!("FAIL {e}");
            failures += 1;
        }
        let _ = std::panic::take_hook();
    }
    if metrics_before.is_some() {
        println!("grid smoke: probed streaming run + one-pass grid-DP sweep (grid_dp.* counters)");
        if let Err(e) = grid_metrics_smoke() {
            eprintln!("FAIL grid metrics smoke: {e}");
            failures += 1;
        }
        println!(
            "fan smoke: materialize_seeds over 4 seeds at {} threads (executor.* counters)",
            pool_threads()
        );
        if let Err(e) = fan_metrics_smoke() {
            eprintln!("FAIL fan metrics smoke: {e}");
            failures += 1;
        }
    }
    if let Some(before) = &metrics_before {
        let after = obs::snapshot();
        match validate_metrics(before, &after) {
            Ok(()) => {
                println!("metrics snapshot ({} schema) validated:", obs::SCHEMA);
                println!("{}", after.to_json());
            }
            Err(e) => {
                eprintln!("FAIL metrics: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} scenario(s) failed");
        std::process::exit(1);
    }
    println!(
        "all {} scenarios recorded, replayed, and diffed clean{}{}{}",
        specs.len(),
        if options.fault_seed.is_some() {
            " — and survived injected faults"
        } else {
            ""
        },
        if options.corpus {
            " — and the corpus swept bit-equal"
        } else {
            ""
        },
        if options.chaos {
            " — and the chaos fleet recovered bit-equal"
        } else {
            ""
        },
    );
}
