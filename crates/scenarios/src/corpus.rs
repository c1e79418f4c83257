//! Corpus tier: the registry recorded once as v3 block traces, then
//! scanned, replayed, and diffed in block-parallel.
//!
//! A *corpus* is a directory of [`TraceFormat::BlockV3`] traces — one per
//! registry scenario, named `<scenario>.msp3` — plus a `MANIFEST.tsv`
//! recording, per trace, the step count and the bit-exact cost totals of
//! a reference replay (Move-to-Center at the scenario's default δ,
//! Move-First) over the recorded steps. Those totals are computed while
//! recording: every step the trace writer consumes is also fed to the
//! reference replay, so the recorder never reads back what it wrote.
//! The manifest turns the corpus into a regression oracle:
//! [`sweep_corpus`] decodes every trace, replays it through
//! [`StreamingSim`], and compares the fresh totals against the recorded
//! bits. That checks codec and simulator end to end — the original steps
//! against their decoded bytes — so any change to the simulator, the
//! algorithm, or the codec that shifts a single ULP anywhere in the
//! corpus is caught by one call.
//!
//! All corpus operations fan over the sweep executor
//! ([`parallel_map_indexed`]) at whole-trace or block granularity and are
//! bit-deterministic for every thread count — [`diff_block_traces`] in
//! particular returns exactly what the sequential
//! [`diff_streams`](crate::trace::diff_streams) would, while comparing
//! multi-GB traces chunk-by-chunk via O(1) [`BlockTraceReader::seek_to_step`].

use crate::durable::{record_stream_to_path, AtomicFile};
use crate::registry::{lookup_or_err, registry, ScenarioError, ScenarioKnobs, ScenarioSpec};
use crate::stream::RequestStream;
use crate::trace::{BlockTraceReader, StreamDiff, TraceError, TraceFormat};
use msp_analysis::sweep::parallel_map_indexed;
use msp_core::cost::ServingOrder;
use msp_core::model::{Step, StreamParams};
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::StreamingSim;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Steps per block of [`TraceFormat::DURABLE`], the format corpus
/// traces are recorded in. 64 steps keeps blocks a few KiB (seek cost
/// and decode scratch stay small) while the index trailer stays
/// negligible next to the data.
pub const CORPUS_BLOCK_STEPS: usize = 64;

/// Manifest file name inside a corpus directory.
pub const MANIFEST_NAME: &str = "MANIFEST.tsv";

/// Banner line opening the manifest.
pub const MANIFEST_BANNER: &str = "# msp corpus manifest v1";

/// One manifest row: a recorded trace plus the bit-exact totals of its
/// reference replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Registry scenario name (also the trace file stem).
    pub name: String,
    /// Steps recorded in the trace.
    pub steps: usize,
    /// `f64::to_bits` of the δ the reference replay used.
    pub delta_bits: u64,
    /// `f64::to_bits` of the replay's total weighted movement cost.
    pub movement_bits: u64,
    /// `f64::to_bits` of the replay's total service cost.
    pub service_bits: u64,
}

/// Structural health of one corpus trace, from [`scan_corpus`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusScanEntry {
    /// Scenario name.
    pub name: String,
    /// Steps decoded (every block CRC-checked).
    pub steps: usize,
    /// Blocks in the trace.
    pub blocks: usize,
    /// Trace file size in bytes.
    pub bytes: u64,
}

/// One scenario's result from a [`sweep_corpus`] differential regression
/// sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Scenario name.
    pub name: String,
    /// Steps replayed.
    pub steps: usize,
    /// `None` when the fresh replay matched the manifest bit-for-bit;
    /// otherwise a description of the first divergence.
    pub mismatch: Option<String>,
}

impl SweepOutcome {
    /// True when the replay reproduced the recorded totals exactly.
    pub fn is_clean(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Path of a scenario's trace inside a corpus directory.
pub fn corpus_trace_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.msp3"))
}

fn corrupt_manifest(at: impl std::fmt::Display, message: impl Into<String>) -> TraceError {
    TraceError::Corrupt {
        at: at.to_string(),
        message: message.into(),
    }
}

fn unsupported_dim(name: &str, dim: usize) -> ScenarioError {
    ScenarioError::Trace(corrupt_manifest(
        name.to_string(),
        format!("corpus has no dispatch for dimension {dim}"),
    ))
}

/// Records every registry scenario into `dir` (created if missing) as a
/// v3 block trace plus the `MANIFEST.tsv` regression oracle. Each row
/// holds Move-to-Center's totals over the recorded steps, priced in the
/// recording pass itself; [`sweep_corpus`] later replays the decoded
/// traces against them, checking codec and simulator end to end.
/// Scenarios record in parallel over the sweep executor; each trace and
/// the manifest are committed atomically ([`AtomicFile`]), so a crashed
/// recorder leaves no torn corpus behind.
///
/// `seed` feeds every generator-backed scenario; `horizon` (when `Some`)
/// overrides each scenario's default horizon — corpus smoke tests use a
/// small one, real corpora record the defaults.
pub fn record_registry_corpus(
    dir: impl AsRef<Path>,
    seed: u64,
    horizon: Option<usize>,
) -> Result<Vec<CorpusEntry>, ScenarioError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir).map_err(TraceError::Io)?;
    let specs = registry();
    let results =
        parallel_map_indexed(&specs, 0, |_, spec| -> Result<CorpusEntry, ScenarioError> {
            match spec.dim {
                1 => record_entry::<1>(dir, spec, seed, horizon),
                2 => record_entry::<2>(dir, spec, seed, horizon),
                other => Err(unsupported_dim(spec.name, other)),
            }
        });
    let entries = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    write_manifest(dir, &entries)?;
    Ok(entries)
}

fn record_entry<const N: usize>(
    dir: &Path,
    spec: &ScenarioSpec,
    seed: u64,
    horizon: Option<usize>,
) -> Result<CorpusEntry, ScenarioError> {
    let knobs = ScenarioKnobs {
        horizon,
        delta: None,
    };
    let mut stream = PricedStream {
        inner: spec.stream_with::<N>(seed, &knobs)?,
        delta: spec.default_delta,
        sim: None,
    };
    let path = corpus_trace_path(dir, spec.name);
    let steps = record_stream_to_path(&mut stream, TraceFormat::DURABLE, &path)?;
    let (movement, service, priced) = stream.totals();
    debug_assert_eq!(priced, steps);
    Ok(CorpusEntry {
        name: spec.name.to_string(),
        steps,
        delta_bits: spec.default_delta.to_bits(),
        movement_bits: movement.to_bits(),
        service_bits: service.to_bits(),
    })
}

/// A scenario stream that prices every step it hands out: each step the
/// trace writer consumes is also fed to the reference replay
/// ([`reference_sim`]), so a manifest row comes out of the recording
/// pass itself. [`RequestStream::rewind`] restarts the stream and drops
/// the totals with it.
struct PricedStream<const N: usize> {
    inner: Box<dyn RequestStream<N> + Send>,
    delta: f64,
    /// Started by the first step after a rewind.
    sim: Option<StreamingSim<N, MoveToCenter<N>>>,
}

impl<const N: usize> PricedStream<N> {
    /// `(movement, service, steps)` over the steps handed out since the
    /// last rewind.
    fn totals(&self) -> (f64, f64, usize) {
        self.sim.as_ref().map_or((0.0, 0.0, 0), |sim| {
            let cp = sim.checkpoint();
            (cp.movement, cp.service, cp.step)
        })
    }
}

impl<const N: usize> RequestStream<N> for PricedStream<N> {
    fn params(&self) -> StreamParams<N> {
        self.inner.params()
    }
    fn next_step(&mut self) -> Option<Step<N>> {
        let step = self.inner.next_step()?;
        let (inner, delta) = (&self.inner, self.delta);
        self.sim
            .get_or_insert_with(|| reference_sim(&inner.params(), delta))
            .feed(&step);
        Some(step)
    }
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
    fn rewind(&mut self) {
        self.inner.rewind();
        self.sim = None;
    }
}

/// The reference replay every manifest row prices: Move-to-Center at
/// `delta`, Move-First.
fn reference_sim<const N: usize>(
    params: &StreamParams<N>,
    delta: f64,
) -> StreamingSim<N, MoveToCenter<N>> {
    StreamingSim::new(params, MoveToCenter::new(), delta, ServingOrder::MoveFirst)
}

/// Zero-copy reference replay of a v3 trace, frames fed as borrowed
/// slices ([`StreamingSim::feed_requests`]). Returns
/// `(movement, service, steps)`.
fn replay_totals<const N: usize>(
    bytes: &[u8],
    delta: f64,
) -> Result<(f64, f64, usize), TraceError> {
    let mut reader = BlockTraceReader::<N>::open(bytes)?;
    let mut sim = reference_sim(&reader.trace_params(), delta);
    while let Some(frame) = reader.next_frame()? {
        sim.feed_requests(frame);
    }
    let cp = sim.checkpoint();
    Ok((cp.movement, cp.service, cp.step))
}

fn write_manifest(dir: &Path, entries: &[CorpusEntry]) -> Result<(), TraceError> {
    let staged = AtomicFile::create(dir.join(MANIFEST_NAME))?;
    let mut out = String::new();
    out.push_str(MANIFEST_BANNER);
    out.push('\n');
    for e in entries {
        out.push_str(&format!(
            "{}\t{}\t{:016x}\t{:016x}\t{:016x}\n",
            e.name, e.steps, e.delta_bits, e.movement_bits, e.service_bits
        ));
    }
    let mut staged = staged;
    staged.write_all(out.as_bytes())?;
    staged.commit()?;
    Ok(())
}

/// Reads and validates a corpus manifest.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<Vec<CorpusEntry>, TraceError> {
    let path = dir.as_ref().join(MANIFEST_NAME);
    let text = fs::read_to_string(&path)?;
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim_end() == MANIFEST_BANNER => {}
        _ => return Err(corrupt_manifest("line 1", "missing corpus manifest banner")),
    }
    let mut out = Vec::new();
    for (i, line) in lines {
        let at = format!("line {}", i + 1);
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 5 {
            return Err(corrupt_manifest(
                at,
                format!("expected 5 tab-separated fields, found {}", fields.len()),
            ));
        }
        let steps: usize = fields[1]
            .parse()
            .map_err(|_| corrupt_manifest(&at, format!("bad step count {:?}", fields[1])))?;
        let hex = |f: &str| {
            u64::from_str_radix(f, 16)
                .map_err(|_| corrupt_manifest(&at, format!("bad hex field {f:?}")))
        };
        out.push(CorpusEntry {
            name: fields[0].to_string(),
            steps,
            delta_bits: hex(fields[2])?,
            movement_bits: hex(fields[3])?,
            service_bits: hex(fields[4])?,
        });
    }
    Ok(out)
}

/// Structural scan of every trace in the corpus, fanned over threads
/// (`threads == 0` uses the full budget): each trace is opened, every
/// block decoded and CRC-checked, and the step count cross-checked
/// against the manifest. Errors carry the scenario name.
pub fn scan_corpus(
    dir: impl AsRef<Path>,
    threads: usize,
) -> Result<Vec<CorpusScanEntry>, ScenarioError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let results = parallel_map_indexed(&manifest, threads, |_, entry| scan_entry(dir, entry));
    results.into_iter().collect()
}

fn scan_entry(dir: &Path, entry: &CorpusEntry) -> Result<CorpusScanEntry, ScenarioError> {
    let spec = lookup_or_err(&entry.name)?;
    let bytes = fs::read(corpus_trace_path(dir, &entry.name)).map_err(TraceError::Io)?;
    let (steps, blocks) = match spec.dim {
        1 => scan_bytes::<1>(&bytes)?,
        2 => scan_bytes::<2>(&bytes)?,
        other => return Err(unsupported_dim(spec.name, other)),
    };
    if steps != entry.steps {
        return Err(ScenarioError::Trace(corrupt_manifest(
            entry.name.clone(),
            format!("manifest records {} steps, trace has {steps}", entry.steps),
        )));
    }
    Ok(CorpusScanEntry {
        name: entry.name.clone(),
        steps,
        blocks,
        bytes: bytes.len() as u64,
    })
}

fn scan_bytes<const N: usize>(bytes: &[u8]) -> Result<(usize, usize), TraceError> {
    let mut reader = BlockTraceReader::<N>::open(bytes)?;
    let mut steps = 0usize;
    while reader.next_frame()?.is_some() {
        steps += 1;
    }
    Ok((steps, reader.blocks()))
}

/// Corpus-level differential regression sweep: every trace is decoded
/// and replayed through [`StreamingSim`] (zero-copy, Move-to-Center at
/// the manifest δ) and the fresh cost totals are compared
/// **bit-for-bit** against the recorded ones, which were priced on the
/// original steps while recording. Replays fan over threads; outcomes
/// come back in manifest order regardless of thread count.
pub fn sweep_corpus(
    dir: impl AsRef<Path>,
    threads: usize,
) -> Result<Vec<SweepOutcome>, ScenarioError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let results = parallel_map_indexed(&manifest, threads, |_, entry| sweep_entry(dir, entry));
    results.into_iter().collect()
}

fn sweep_entry(dir: &Path, entry: &CorpusEntry) -> Result<SweepOutcome, ScenarioError> {
    let spec = lookup_or_err(&entry.name)?;
    let bytes = fs::read(corpus_trace_path(dir, &entry.name)).map_err(TraceError::Io)?;
    let delta = f64::from_bits(entry.delta_bits);
    let (movement, service, steps) = match spec.dim {
        1 => replay_totals::<1>(&bytes, delta)?,
        2 => replay_totals::<2>(&bytes, delta)?,
        other => return Err(unsupported_dim(spec.name, other)),
    };
    let mut mismatch = None;
    if steps != entry.steps {
        mismatch = Some(format!(
            "replayed {steps} steps, manifest records {}",
            entry.steps
        ));
    } else if movement.to_bits() != entry.movement_bits {
        mismatch = Some(format!(
            "movement {movement} ({:016x}) vs recorded {:016x}",
            movement.to_bits(),
            entry.movement_bits
        ));
    } else if service.to_bits() != entry.service_bits {
        mismatch = Some(format!(
            "service {service} ({:016x}) vs recorded {:016x}",
            service.to_bits(),
            entry.service_bits
        ));
    }
    Ok(SweepOutcome {
        name: entry.name.clone(),
        steps,
        mismatch,
    })
}

/// Block-parallel bit-exact diff of two v3 traces — the corpus-scale
/// generalization of [`diff_streams`](crate::trace::diff_streams):
/// returns exactly what the sequential diff would (same variant, same
/// index, same detail string) for every thread count, but compares
/// independent chunks of `max(block_a, block_b)` steps concurrently,
/// each worker seeking straight to its chunk via the index trailer.
/// `threads == 0` uses the full budget.
pub fn diff_block_traces<const N: usize>(
    a: &[u8],
    b: &[u8],
    threads: usize,
) -> Result<Option<StreamDiff>, TraceError> {
    let ra = BlockTraceReader::<N>::open(a)?;
    let rb = BlockTraceReader::<N>::open(b)?;
    let (pa, pb) = (ra.trace_params(), rb.trace_params());
    if pa.d.to_bits() != pb.d.to_bits()
        || pa.max_move.to_bits() != pb.max_move.to_bits()
        || pa
            .start
            .coords()
            .iter()
            .zip(pb.start.coords())
            .any(|(x, y)| x.to_bits() != y.to_bits())
    {
        return Ok(Some(StreamDiff::Params {
            detail: format!("{pa:?} vs {pb:?}"),
        }));
    }
    let chunk = ra.block_size().max(rb.block_size());
    let total = ra.total_steps().max(rb.total_steps());
    if total == 0 {
        return Ok(None);
    }
    let chunks: Vec<usize> = (0..total.div_ceil(chunk)).collect();
    let results = parallel_map_indexed(&chunks, threads, |_, &c| {
        diff_chunk::<N>(a, b, c * chunk, chunk)
    });
    for r in results {
        if let Some(diff) = r? {
            return Ok(Some(diff));
        }
    }
    Ok(None)
}

fn diff_chunk<const N: usize>(
    a: &[u8],
    b: &[u8],
    start: usize,
    chunk: usize,
) -> Result<Option<StreamDiff>, TraceError> {
    let mut ra = BlockTraceReader::<N>::open(a)?;
    let mut rb = BlockTraceReader::<N>::open(b)?;
    let (ta, tb) = (ra.total_steps(), rb.total_steps());
    ra.seek_to_step(start.min(ta))?;
    rb.seek_to_step(start.min(tb))?;
    for index in start..(start + chunk).min(ta.max(tb)) {
        let fa = if index < ta { ra.next_frame()? } else { None };
        // Two readers, one borrow each — fetch b's frame before
        // comparing so the borrows coexist.
        let fb = if index < tb { rb.next_frame()? } else { None };
        // Detail strings mirror `diff_streams` exactly: the differential
        // tests pin block-parallel == sequential on the full value.
        match (fa, fb) {
            (None, None) => return Ok(None),
            (Some(_), None) => {
                return Ok(Some(StreamDiff::Step {
                    index,
                    detail: "second stream ended early".into(),
                }))
            }
            (None, Some(_)) => {
                return Ok(Some(StreamDiff::Step {
                    index,
                    detail: "first stream ended early".into(),
                }))
            }
            (Some(sa), Some(sb)) => {
                if sa.len() != sb.len() {
                    return Ok(Some(StreamDiff::Step {
                        index,
                        detail: format!("{} vs {} requests", sa.len(), sb.len()),
                    }));
                }
                for (i, (va, vb)) in sa.iter().zip(sb).enumerate() {
                    if va
                        .coords()
                        .iter()
                        .zip(vb.coords())
                        .any(|(x, y)| x.to_bits() != y.to_bits())
                    {
                        return Ok(Some(StreamDiff::Step {
                            index,
                            detail: format!("request {i}: {va:?} vs {vb:?}"),
                        }));
                    }
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::InstanceStream;
    use crate::trace::{diff_streams, record_to_vec, TraceReader};
    use msp_core::model::{Instance, Step};
    use msp_geometry::P2;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    fn temp_corpus_dir(tag: &str) -> PathBuf {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("msp-corpus-{tag}-{}-{case}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_instance(steps: usize) -> Instance<2> {
        let mut s = Vec::new();
        for i in 0..steps {
            let x = (i as f64) * 0.25 - 3.0;
            s.push(Step::new(vec![P2::xy(x, -x), P2::xy(0.5, x * 0.5)]));
        }
        Instance::new(3.0, 1.25, P2::xy(0.0, 0.0), s)
    }

    fn v3_bytes(inst: &Instance<2>, block: usize) -> Vec<u8> {
        record_to_vec(
            &mut InstanceStream::new(inst.clone()),
            TraceFormat::BlockV3 { block },
        )
        .unwrap()
    }

    #[test]
    fn corpus_records_scans_and_sweeps_clean() {
        let dir = temp_corpus_dir("roundtrip");
        let entries = record_registry_corpus(&dir, 7, Some(40)).unwrap();
        assert_eq!(entries.len(), registry().len());
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest, entries);

        let scans = scan_corpus(&dir, 0).unwrap();
        assert_eq!(scans.len(), entries.len());
        for (scan, entry) in scans.iter().zip(&entries) {
            assert_eq!(scan.name, entry.name);
            assert_eq!(scan.steps, entry.steps);
            assert!(scan.blocks <= scan.steps.div_ceil(CORPUS_BLOCK_STEPS));
        }

        let outcomes = sweep_corpus(&dir, 0).unwrap();
        for o in &outcomes {
            assert!(o.is_clean(), "{}: {:?}", o.name, o.mismatch);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The manifest is priced while recording; its rows must equal what a
    /// second pass over the committed bytes gives (decode every frame of
    /// the `.msp3` file and replay it), for 1-D and 2-D scenarios, at a
    /// horizon of whole blocks and at one that leaves a short last block.
    #[test]
    fn manifest_totals_equal_a_replay_of_the_committed_traces() {
        for horizon in [40, 63] {
            let dir = temp_corpus_dir("manifest");
            let entries = record_registry_corpus(&dir, 7, Some(horizon)).unwrap();
            let mut dims = Vec::new();
            for entry in &entries {
                let spec = lookup_or_err(&entry.name).unwrap();
                let bytes = fs::read(corpus_trace_path(&dir, &entry.name)).unwrap();
                let delta = f64::from_bits(entry.delta_bits);
                let (movement, service, steps) = match spec.dim {
                    1 => replay_totals::<1>(&bytes, delta).unwrap(),
                    2 => replay_totals::<2>(&bytes, delta).unwrap(),
                    other => panic!("{}: dimension {other}", entry.name),
                };
                assert_eq!(steps, entry.steps, "{} at T={horizon}", entry.name);
                assert_eq!(
                    (movement.to_bits(), service.to_bits()),
                    (entry.movement_bits, entry.service_bits),
                    "{} at T={horizon}",
                    entry.name
                );
                dims.push(spec.dim);
            }
            assert!(dims.contains(&1) && dims.contains(&2), "{dims:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn tampered_manifest_totals_fail_the_sweep() {
        let dir = temp_corpus_dir("tamper");
        record_registry_corpus(&dir, 7, Some(24)).unwrap();
        let mut manifest = read_manifest(&dir).unwrap();
        manifest[0].movement_bits ^= 1;
        write_manifest(&dir, &manifest).unwrap();
        let outcomes = sweep_corpus(&dir, 0).unwrap();
        assert!(!outcomes[0].is_clean());
        assert!(outcomes.iter().skip(1).all(SweepOutcome::is_clean));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trace_fails_the_scan_loudly() {
        let dir = temp_corpus_dir("corrupt");
        let entries = record_registry_corpus(&dir, 7, Some(24)).unwrap();
        let path = corpus_trace_path(&dir, &entries[0].name);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(scan_corpus(&dir, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_parallel_diff_matches_sequential() {
        let inst = sample_instance(23);
        let a = v3_bytes(&inst, 4);

        // Identical traces (different block sizes): no diff.
        let b_same = v3_bytes(&inst, 7);
        for threads in [1, 2, 0] {
            assert_eq!(diff_block_traces::<2>(&a, &b_same, threads).unwrap(), None);
        }

        // One tweaked coordinate: same diff as the sequential reader
        // path, for every thread count.
        let mut tweaked = inst.clone();
        tweaked.steps[17].requests[1][0] += 0.5;
        let b_tweaked = v3_bytes(&tweaked, 4);
        let a_v1 =
            record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::TextV1).unwrap();
        let b_v1 = record_to_vec(&mut InstanceStream::new(tweaked), TraceFormat::TextV1).unwrap();
        let mut ra = TraceReader::<2, _>::open(Cursor::new(a_v1)).unwrap();
        let mut rb = TraceReader::<2, _>::open(Cursor::new(b_v1)).unwrap();
        let sequential = diff_streams(&mut ra, &mut rb);
        assert!(sequential.is_some());
        for threads in [1, 2, 0] {
            assert_eq!(
                diff_block_traces::<2>(&a, &b_tweaked, threads).unwrap(),
                sequential
            );
        }

        // A shorter second trace: ended-early at the prefix length.
        let b_short = v3_bytes(&inst.prefix(9), 4);
        for threads in [1, 2, 0] {
            match diff_block_traces::<2>(&a, &b_short, threads).unwrap() {
                Some(StreamDiff::Step { index: 9, detail }) => {
                    assert!(detail.contains("second stream ended early"));
                }
                other => panic!("expected early-end diff at 9, got {other:?}"),
            }
        }
    }

    #[test]
    fn diff_reports_param_divergence() {
        let inst = sample_instance(6);
        let a = v3_bytes(&inst, 4);
        let mut other = inst;
        other.d = 5.0;
        let b = v3_bytes(&other, 4);
        match diff_block_traces::<2>(&a, &b, 0).unwrap() {
            Some(StreamDiff::Params { .. }) => {}
            got => panic!("expected params diff, got {got:?}"),
        }
    }
}
