//! Durable, versioned request traces: record once, replay everywhere.
//!
//! Two wire formats, both carrying the same data (model parameters plus
//! the step sequence):
//!
//! * **Text v1** — the plain-text instance format, for people: a header
//!   (`dim`/`d`/`m`/`start`), then one `step` line per step, written
//!   streamingly and replayed by the streaming [`TraceReader`].
//! * **Block v3** — the durable format (`MSP3` magic): fixed-size blocks
//!   of delta-encoded coordinates (each block falls back to raw `f64`
//!   frames whenever delta reconstruction would not be bit-exact), one
//!   CRC-32 per block, and a CRC-guarded index trailer mapping step →
//!   block offset. Replayed zero-copy from a borrowed `&[u8]` by
//!   [`BlockTraceReader`], whose [`seek_to_step`](BlockTraceReader::seek_to_step)
//!   is O(1) in the horizon via the index.
//!
//! Both round-trip exactly — v3 stores raw bits or bit-exact deltas, and
//! Rust's float formatter emits the shortest decimal that parses back to
//! the same bits — so cross-format re-encoding is lossless. Non-finite
//! coordinates are rejected at both ends: they cannot enter a trace, and
//! a corrupt trace cannot smuggle them into an [`Instance`].
//!
//! The **normative wire-format specification** — the text grammar and
//! the byte-layout tables of block v3 — lives in `docs/TRACE_FORMAT.md`
//! at the repository root; this module is its reference implementation,
//! and the round-trip and corruption tests here (plus
//! `tests/scenario_streaming.rs` and `tests/trace_corpus.rs`) pin every
//! claim the spec makes.

use crate::journal::crc32;
use crate::stream::RequestStream;
use msp_analysis::obs;
use msp_core::model::{Instance, Step, StreamParams};
use msp_geometry::Point;
use std::io::{BufRead, Cursor, Seek, SeekFrom, Write};

/// Magic prefix of the block trace (v3) format.
pub const BLOCK_MAGIC: &[u8; 4] = b"MSP3";
/// Version field written by the block trace encoder.
pub const BLOCK_VERSION: u16 = 1;
/// Marker that opens every v3 block.
pub const BLOCK_MARKER: &[u8; 4] = b"BLK3";
/// Marker that opens the v3 index trailer.
pub const INDEX_MARKER: &[u8; 4] = b"IDX3";
/// Upper bound on requests-per-step accepted by the v3 decoder; counts
/// beyond this are treated as corruption rather than allocated.
const MAX_REQUESTS_PER_STEP: u32 = 1 << 24;
/// Upper bound on steps-per-block accepted by the v3 codec (a block is
/// decoded as a unit, so its size bounds both seek cost and scratch
/// memory).
const MAX_BLOCK_STEPS: usize = 1 << 20;
/// v3 block payload mode: raw `f64` bit frames (always available).
const BLOCK_MODE_RAW: u8 = 0;
/// v3 block payload mode: `f32` deltas against a per-dimension predictor
/// (written only when reconstruction is bit-exact for the whole block).
const BLOCK_MODE_DELTA: u8 = 1;
/// Fixed part of a v3 block: marker (4) + mode (1) + step count (4) +
/// payload length (4); the payload and a trailing CRC-32 follow.
const BLOCK_HEADER_LEN: usize = 13;
/// Byte length of the v3 file header for dimension `n`.
const fn block_file_header_len(n: usize) -> usize {
    28 + 8 * n
}

/// Which wire format a [`TraceWriter`] produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Plain-text v1: human-readable, replayed by [`TraceReader`].
    TextV1,
    /// Block trace v3: fixed-size blocks of delta-encoded coordinates
    /// (per-block raw-`f64` escape hatch keeps round-trips bit-exact),
    /// per-block CRC-32, and a CRC-guarded index trailer for O(1)
    /// [`BlockTraceReader::seek_to_step`].
    BlockV3 {
        /// Steps per block (must be positive, at most `2²⁰`). The last
        /// block may be shorter.
        block: usize,
    },
}

impl TraceFormat {
    /// The format of every durable recording — corpus traces, seed fans
    /// and the `replay-edge-drift` scenario: block v3 at
    /// [`CORPUS_BLOCK_STEPS`](crate::corpus::CORPUS_BLOCK_STEPS) steps
    /// per block.
    pub const DURABLE: TraceFormat = TraceFormat::BlockV3 {
        block: crate::corpus::CORPUS_BLOCK_STEPS,
    };
}

/// Errors from trace encoding/decoding.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed or truncated trace data.
    Corrupt {
        /// Where the problem was detected (line number or byte offset).
        at: String,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Corrupt { at, message } => write!(f, "corrupt trace at {at}: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

fn corrupt(at: impl std::fmt::Display, message: impl Into<String>) -> TraceError {
    TraceError::Corrupt {
        at: at.to_string(),
        message: message.into(),
    }
}

fn coords_line<const N: usize>(p: &Point<N>) -> String {
    p.coords()
        .iter()
        .map(|c| format!("{c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Streaming trace encoder over any [`Write`] sink.
///
/// Lifecycle: [`TraceWriter::new`] writes the header, [`write_step`]
/// appends one step at a time (O(1) memory in the horizon), and
/// [`finish`] writes the trailer and returns the sink. Dropping a v3
/// writer without `finish` leaves a trailerless file, which the v3
/// readers report as truncated — deliberate torn-write detection.
///
/// [`write_step`]: TraceWriter::write_step
/// [`finish`]: TraceWriter::finish
pub struct TraceWriter<const N: usize, W: Write> {
    sink: W,
    format: TraceFormat,
    steps: usize,
    /// BlockV3 state: the in-flight block as per-step request counts
    /// plus every request in one flat run, the byte offsets of the
    /// flushed blocks, bytes emitted so far (offsets are tracked by
    /// counting, so the sink need not be seekable), and the encode
    /// buffer every block and the trailer reuse.
    pending_counts: Vec<u32>,
    pending_points: Vec<Point<N>>,
    block_offsets: Vec<u64>,
    written: u64,
    buf: Vec<u8>,
}

impl<const N: usize, W: Write> TraceWriter<N, W> {
    /// Opens a trace: validates `params`, writes the format header.
    ///
    /// # Panics
    /// Panics on invalid model parameters (via [`StreamParams::new`]) or a
    /// block size outside `1..=2²⁰`.
    pub fn new(
        mut sink: W,
        format: TraceFormat,
        params: &StreamParams<N>,
    ) -> Result<Self, TraceError> {
        let params = StreamParams::new(params.d, params.max_move, params.start); // validate
        let mut written = 0;
        match format {
            TraceFormat::TextV1 => {
                writeln!(sink, "# mobile-server instance v1")?;
                writeln!(sink, "dim {N}")?;
                writeln!(sink, "d {}", params.d)?;
                writeln!(sink, "m {}", params.max_move)?;
                writeln!(sink, "start {}", coords_line(&params.start))?;
            }
            TraceFormat::BlockV3 { block } => {
                assert!(block > 0, "block size must be positive");
                assert!(
                    block <= MAX_BLOCK_STEPS,
                    "block size {block} beyond the codec limit {MAX_BLOCK_STEPS}"
                );
                // One write for the whole header, like every block and
                // the trailer: a torn sink loses whole pieces.
                let mut header = Vec::with_capacity(block_file_header_len(N));
                header.extend_from_slice(BLOCK_MAGIC);
                header.extend_from_slice(&BLOCK_VERSION.to_le_bytes());
                header.extend_from_slice(&(N as u16).to_le_bytes());
                header.extend_from_slice(&params.d.to_bits().to_le_bytes());
                header.extend_from_slice(&params.max_move.to_bits().to_le_bytes());
                for c in params.start.coords() {
                    header.extend_from_slice(&c.to_bits().to_le_bytes());
                }
                header.extend_from_slice(&(block as u32).to_le_bytes());
                sink.write_all(&header)?;
                written = header.len() as u64;
            }
        }
        Ok(TraceWriter {
            sink,
            format,
            steps: 0,
            pending_counts: Vec::new(),
            pending_points: Vec::new(),
            block_offsets: Vec::new(),
            written,
            buf: Vec::new(),
        })
    }

    /// Appends one step.
    ///
    /// # Panics
    /// Panics on non-finite request coordinates (they could never be
    /// replayed into a valid [`Instance`]) and on steps with more than
    /// `MAX_REQUESTS_PER_STEP` requests (the decoder treats larger frame
    /// counts as corruption, so writing one would produce an unreadable
    /// trace).
    pub fn write_step(&mut self, step: &Step<N>) -> Result<(), TraceError> {
        for v in &step.requests {
            assert!(v.is_finite(), "trace step has a non-finite request {v:?}");
        }
        assert!(
            step.requests.len() <= MAX_REQUESTS_PER_STEP as usize,
            "trace step has {} requests, beyond the codec limit {MAX_REQUESTS_PER_STEP}",
            step.requests.len()
        );
        match self.format {
            TraceFormat::TextV1 => {
                if step.is_empty() {
                    writeln!(self.sink, "step")?;
                } else {
                    let reqs = step
                        .requests
                        .iter()
                        .map(coords_line)
                        .collect::<Vec<_>>()
                        .join(" ; ");
                    writeln!(self.sink, "step {reqs}")?;
                }
            }
            TraceFormat::BlockV3 { block } => {
                self.pending_counts.push(step.requests.len() as u32);
                self.pending_points.extend_from_slice(&step.requests);
                if self.pending_counts.len() == block {
                    self.flush_block()?;
                }
            }
        }
        self.steps += 1;
        Ok(())
    }

    /// Encodes and writes the buffered steps as one v3 block, recording
    /// its byte offset for the index trailer.
    fn flush_block(&mut self) -> Result<(), TraceError> {
        debug_assert!(!self.pending_counts.is_empty());
        encode_block(&self.pending_counts, &self.pending_points, &mut self.buf);
        self.block_offsets.push(self.written);
        self.sink.write_all(&self.buf)?;
        self.written += self.buf.len() as u64;
        self.pending_counts.clear();
        self.pending_points.clear();
        obs::incr(obs::Counter::TraceBlocksWritten);
        Ok(())
    }

    /// Steps written so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Writes the format trailer, flushes, and returns the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if let TraceFormat::BlockV3 { .. } = self.format {
            if !self.pending_counts.is_empty() {
                self.flush_block()?;
            }
            let trailer = &mut self.buf;
            trailer.clear();
            trailer.extend_from_slice(INDEX_MARKER);
            trailer.extend_from_slice(&(self.block_offsets.len() as u64).to_le_bytes());
            for off in &self.block_offsets {
                trailer.extend_from_slice(&off.to_le_bytes());
            }
            trailer.extend_from_slice(&(self.steps as u64).to_le_bytes());
            let crc = crc32(trailer);
            trailer.extend_from_slice(&crc.to_le_bytes());
            // The final u32 lets a reader locate the trailer from EOF:
            // it is the length of everything from the IDX3 marker to
            // the CRC inclusive.
            let trailer_len = trailer.len() as u32;
            trailer.extend_from_slice(&trailer_len.to_le_bytes());
            self.sink.write_all(trailer)?;
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streaming text v1 decoder over any seekable reader (`File` in a
/// `BufReader`, or an in-memory [`Cursor`]).
///
/// Implements [`RequestStream`], so a recorded trace plugs into the
/// streaming simulator exactly like a live generator; [`rewind`] seeks
/// back to the first step for replay and diffing. Block v3 traces are
/// replayed by [`BlockTraceReader`] instead.
///
/// Corruption handling: [`TraceReader::try_next`] reports malformed
/// data as [`TraceError`]; the [`RequestStream::next_step`] facade
/// panics on it (replaying a corrupt trace is a data error, not a
/// recoverable condition — pre-validate untrusted bytes with
/// [`read_trace`]).
///
/// [`rewind`]: RequestStream::rewind
#[derive(Debug)]
pub struct TraceReader<const N: usize, R> {
    reader: R,
    params: StreamParams<N>,
    data_start: u64,
    line_no: usize,
    data_start_line: usize,
    steps_read: usize,
    done: bool,
}

impl<const N: usize, R: BufRead + Seek> TraceReader<N, R> {
    /// Opens a text trace and decodes its header.
    ///
    /// Expects the header (`dim`/`d`/`m`/`start`, in any order) to
    /// precede the first step, as every [`TraceWriter`] emits.
    pub fn open(mut reader: R) -> Result<Self, TraceError> {
        let head = reader.fill_buf()?;
        if head.len() >= 4 && &head[..4] == BLOCK_MAGIC {
            return Err(corrupt(
                "header",
                "block trace (MSP3) — read the file into memory and open it \
                 with BlockTraceReader (or read_trace/salvage_trace), not the \
                 streaming TraceReader",
            ));
        }

        // Scan header lines until dim/d/m/start are all present.
        let mut dim: Option<usize> = None;
        let mut d: Option<f64> = None;
        let mut m: Option<f64> = None;
        let mut start: Option<Point<N>> = None;
        let mut line_no = 0usize;
        loop {
            let mut raw = String::new();
            let n = reader.read_line(&mut raw)?;
            if n == 0 {
                return Err(corrupt(
                    format!("line {line_no}"),
                    "trace ended before the header was complete",
                ));
            }
            line_no += 1;
            let Some((key, rest)) = directive(&raw) else {
                continue;
            };
            match key {
                "dim" => {
                    let v: usize = rest.parse().map_err(|_| {
                        corrupt(format!("line {line_no}"), format!("bad dimension {rest:?}"))
                    })?;
                    if v != N {
                        return Err(corrupt(
                            format!("line {line_no}"),
                            format!("trace has dimension {v}, caller expects {N}"),
                        ));
                    }
                    dim = Some(v);
                }
                "d" => {
                    d = Some(parse_f64(rest, line_no)?);
                }
                "m" => {
                    m = Some(parse_f64(rest, line_no)?);
                }
                "start" => {
                    let fields: Vec<&str> = rest.split_whitespace().collect();
                    start = Some(parse_point::<N>(&fields, line_no)?);
                }
                other => {
                    return Err(corrupt(
                        format!("line {line_no}"),
                        format!("expected header directive, found {other:?} before dim/d/m/start were complete"),
                    ));
                }
            }
            if dim.is_some() && d.is_some() && m.is_some() && start.is_some() {
                break;
            }
        }
        let params = validated_params(d.unwrap(), m.unwrap(), start.unwrap(), "header")?;
        let data_start = reader.stream_position()?;
        Ok(TraceReader {
            reader,
            params,
            data_start,
            line_no,
            data_start_line: line_no,
            steps_read: 0,
            done: false,
        })
    }

    /// Pulls the next step, reporting corruption as an error. `Ok(None)`
    /// marks the end of the trace.
    pub fn try_next(&mut self) -> Result<Option<Step<N>>, TraceError> {
        while !self.done {
            let mut raw = String::new();
            if self.reader.read_line(&mut raw)? == 0 {
                self.done = true;
                break;
            }
            self.line_no += 1;
            let Some((key, rest)) = directive(&raw) else {
                continue;
            };
            if key != "step" {
                return Err(corrupt(
                    format!("line {}", self.line_no),
                    format!("unknown directive {key:?}"),
                ));
            }
            let mut requests = Vec::new();
            if !rest.is_empty() {
                for part in rest.split(';') {
                    let fields: Vec<&str> = part.split_whitespace().collect();
                    if fields.is_empty() {
                        return Err(corrupt(
                            format!("line {}", self.line_no),
                            "empty request between ';'",
                        ));
                    }
                    requests.push(parse_point::<N>(&fields, self.line_no)?);
                }
            }
            self.steps_read += 1;
            return Ok(Some(Step::new(requests)));
        }
        Ok(None)
    }

    /// Steps decoded since open/rewind.
    pub fn steps_read(&self) -> usize {
        self.steps_read
    }

    /// Salvage mode: drains the reader, collecting every step up to the
    /// first corruption. Where [`TraceReader::try_next`] makes the caller
    /// choose between per-step error handling and the panicking
    /// [`RequestStream`] facade, this returns the valid prefix *and* the
    /// structured error in one call — the recovery path for a trace whose
    /// tail was damaged: keep what is provably intact, report what was
    /// lost.
    pub fn read_valid_prefix(&mut self) -> SalvagedTrace<N> {
        let mut steps = Vec::new();
        let error = loop {
            match self.try_next() {
                Ok(Some(step)) => steps.push(step),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        SalvagedTrace {
            params: self.params,
            steps,
            error,
        }
    }
}

/// Splits a text line into its directive and the rest, with `#`
/// comments stripped; `None` for blank and comment-only lines.
fn directive(raw: &str) -> Option<(&str, &str)> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return None;
    }
    Some(match line.split_once(char::is_whitespace) {
        Some((k, r)) => (k, r.trim()),
        None => (line, ""),
    })
}

/// Result of a salvage read ([`TraceReader::read_valid_prefix`] /
/// [`salvage_trace`]): everything decodable before the first corruption,
/// plus the corruption report itself.
#[derive(Debug)]
pub struct SalvagedTrace<const N: usize> {
    /// Model parameters from the (always fully validated) header.
    pub params: StreamParams<N>,
    /// Steps decoded before the first error — for a clean trace, all of
    /// them.
    pub steps: Vec<Step<N>>,
    /// `Some` when decoding stopped at corrupt or truncated data; `None`
    /// when the trace read cleanly through its trailer.
    pub error: Option<TraceError>,
}

impl<const N: usize> SalvagedTrace<N> {
    /// True when the whole trace decoded without error.
    pub fn is_clean(&self) -> bool {
        self.error.is_none()
    }

    /// Converts the salvaged prefix into an [`Instance`] (dropping the
    /// error report).
    pub fn into_instance(self) -> Instance<N> {
        self.params.into_instance(self.steps)
    }
}

/// Salvages a trace from raw bytes: the valid step prefix plus the first
/// corruption, if any. Header damage is still a hard error — without a
/// valid header there are no parameters to salvage under.
pub fn salvage_trace<const N: usize>(bytes: &[u8]) -> Result<SalvagedTrace<N>, TraceError> {
    if bytes.len() >= 4 && &bytes[..4] == BLOCK_MAGIC {
        return salvage_block_trace(bytes);
    }
    let mut reader = TraceReader::<N, _>::open(Cursor::new(bytes))?;
    Ok(reader.read_valid_prefix())
}

impl<const N: usize, R: BufRead + Seek> RequestStream<N> for TraceReader<N, R> {
    fn params(&self) -> StreamParams<N> {
        self.params
    }
    fn next_step(&mut self) -> Option<Step<N>> {
        match self.try_next() {
            Ok(step) => step,
            Err(e) => panic!("replaying corrupt trace: {e}"),
        }
    }
    fn len_hint(&self) -> Option<usize> {
        None
    }
    fn rewind(&mut self) {
        self.reader
            .seek(SeekFrom::Start(self.data_start))
            .expect("trace reader rewind failed");
        self.line_no = self.data_start_line;
        self.steps_read = 0;
        self.done = false;
    }
}

pub(crate) fn validated_params<const N: usize>(
    d: f64,
    m: f64,
    start: Point<N>,
    at: &str,
) -> Result<StreamParams<N>, TraceError> {
    if !(d >= 1.0 && d.is_finite()) {
        return Err(corrupt(at, format!("D must be ≥ 1, got {d}")));
    }
    if !(m > 0.0 && m.is_finite()) {
        return Err(corrupt(at, format!("m must be positive, got {m}")));
    }
    if !start.is_finite() {
        return Err(corrupt(at, "non-finite start position"));
    }
    Ok(StreamParams::new(d, m, start))
}

fn parse_f64(s: &str, line: usize) -> Result<f64, TraceError> {
    s.parse::<f64>()
        .map_err(|_| corrupt(format!("line {line}"), format!("bad number {s:?}")))
}

fn parse_point<const N: usize>(fields: &[&str], line: usize) -> Result<Point<N>, TraceError> {
    if fields.len() != N {
        return Err(corrupt(
            format!("line {line}"),
            format!("expected {N} coordinates, found {}", fields.len()),
        ));
    }
    let mut p = Point::<N>::origin();
    for (i, f) in fields.iter().enumerate() {
        p[i] = parse_f64(f, line)?;
    }
    if !p.is_finite() {
        return Err(corrupt(format!("line {line}"), "non-finite coordinate"));
    }
    Ok(p)
}

fn read_exact_array<const K: usize>(r: &mut impl std::io::Read) -> Result<[u8; K], TraceError> {
    let mut buf = [0u8; K];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u16(r: &mut impl std::io::Read) -> Result<u16, TraceError> {
    Ok(u16::from_le_bytes(read_exact_array::<2>(r)?))
}

fn read_f64(r: &mut impl std::io::Read) -> Result<f64, TraceError> {
    Ok(f64::from_bits(u64::from_le_bytes(read_exact_array::<8>(
        r,
    )?)))
}

/// Records a stream (rewound to its start) into `sink`, returning the
/// step count and the sink.
pub fn record_stream<const N: usize, W: Write>(
    stream: &mut dyn RequestStream<N>,
    format: TraceFormat,
    sink: W,
) -> Result<(usize, W), TraceError> {
    stream.rewind();
    let mut writer = TraceWriter::new(sink, format, &stream.params())?;
    while let Some(step) = stream.next_step() {
        writer.write_step(&step)?;
    }
    let steps = writer.steps();
    let sink = writer.finish()?;
    Ok((steps, sink))
}

/// [`record_stream`] into an in-memory buffer.
pub fn record_to_vec<const N: usize>(
    stream: &mut dyn RequestStream<N>,
    format: TraceFormat,
) -> Result<Vec<u8>, TraceError> {
    let (_, cursor) = record_stream(stream, format, Cursor::new(Vec::new()))?;
    Ok(cursor.into_inner())
}

/// Strict full decode of a trace into an [`Instance`] — the validation
/// entry point for untrusted bytes (every step, and for v3 every block
/// CRC and the trailer, is checked before anything is replayed).
pub fn read_trace<const N: usize>(bytes: &[u8]) -> Result<Instance<N>, TraceError> {
    if bytes.len() >= 4 && &bytes[..4] == BLOCK_MAGIC {
        let mut reader = BlockTraceReader::<N>::open(bytes)?;
        let mut steps = Vec::new();
        while let Some(step) = reader.try_next()? {
            steps.push(step);
        }
        return Ok(reader.trace_params().into_instance(steps));
    }
    let mut reader = TraceReader::<N, _>::open(Cursor::new(bytes))?;
    let mut steps = Vec::new();
    while let Some(step) = reader.try_next()? {
        steps.push(step);
    }
    Ok(reader.params().into_instance(steps))
}

/// First divergence between two streams (both rewound first), or `None`
/// when they are bit-identical.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamDiff {
    /// Model parameters differ.
    Params {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A step differs (or one stream ran out first at this index).
    Step {
        /// 0-based index of the first differing step.
        index: usize,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl std::fmt::Display for StreamDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamDiff::Params { detail } => write!(f, "params differ: {detail}"),
            StreamDiff::Step { index, detail } => write!(f, "step {index} differs: {detail}"),
        }
    }
}

fn bits_of<const N: usize>(p: &Point<N>) -> [u64; N] {
    let mut out = [0u64; N];
    for (o, c) in out.iter_mut().zip(p.coords()) {
        *o = c.to_bits();
    }
    out
}

/// Bit-exact comparison of two request streams — the cross-run diffing
/// primitive: record two runs, replay both, and get the first step where
/// they disagree. Rewinds both streams before comparing.
pub fn diff_streams<const N: usize>(
    a: &mut dyn RequestStream<N>,
    b: &mut dyn RequestStream<N>,
) -> Option<StreamDiff> {
    a.rewind();
    b.rewind();
    let (pa, pb) = (a.params(), b.params());
    if pa.d.to_bits() != pb.d.to_bits()
        || pa.max_move.to_bits() != pb.max_move.to_bits()
        || bits_of(&pa.start) != bits_of(&pb.start)
    {
        return Some(StreamDiff::Params {
            detail: format!("{pa:?} vs {pb:?}"),
        });
    }
    let mut index = 0usize;
    loop {
        match (a.next_step(), b.next_step()) {
            (None, None) => return None,
            (Some(_), None) => {
                return Some(StreamDiff::Step {
                    index,
                    detail: "second stream ended early".into(),
                })
            }
            (None, Some(_)) => {
                return Some(StreamDiff::Step {
                    index,
                    detail: "first stream ended early".into(),
                })
            }
            (Some(sa), Some(sb)) => {
                if sa.requests.len() != sb.requests.len() {
                    return Some(StreamDiff::Step {
                        index,
                        detail: format!("{} vs {} requests", sa.requests.len(), sb.requests.len()),
                    });
                }
                for (i, (va, vb)) in sa.requests.iter().zip(&sb.requests).enumerate() {
                    if bits_of(va) != bits_of(vb) {
                        return Some(StreamDiff::Step {
                            index,
                            detail: format!("request {i}: {va:?} vs {vb:?}"),
                        });
                    }
                }
            }
        }
        index += 1;
    }
}

// ---------------------------------------------------------------------------
// Block trace v3 codec
// ---------------------------------------------------------------------------

/// Encodes one v3 block into `out` (cleared first): marker, mode, step
/// count, payload length, payload, and a CRC-32 over all of those. The
/// block holds `counts.len()` steps whose requests lie back to back in
/// `points`. The payload is written in delta mode first; when any
/// coordinate would not reconstruct bit-exactly, it is rewritten as raw
/// `f64` frames (the per-block escape hatch).
fn encode_block<const N: usize>(counts: &[u32], points: &[Point<N>], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(BLOCK_MARKER);
    out.push(BLOCK_MODE_DELTA);
    out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // payload length, set below
    if !push_delta_payload(counts, points, out) {
        out.truncate(BLOCK_HEADER_LEN);
        out[4] = BLOCK_MODE_RAW;
        let mut rest = points;
        for &count in counts {
            let (frame, tail) = rest.split_at(count as usize);
            out.extend_from_slice(&count.to_le_bytes());
            for c in frame.iter().flat_map(|v| v.coords()) {
                out.extend_from_slice(&c.to_bits().to_le_bytes());
            }
            rest = tail;
        }
    }
    let payload_len = (out.len() - BLOCK_HEADER_LEN) as u32;
    out[9..BLOCK_HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends a delta payload to `out`: a base point stored as `f64` bits
/// (the block's first request, or the origin when every step is empty),
/// then per step a request count and `f32` deltas against a
/// per-dimension running predictor (seeded from the base, updated to
/// each reconstructed value). Returns `false` — leaving a partial
/// payload for the caller to discard — as soon as a coordinate does not
/// reconstruct bit-exactly as `pred + (delta as f64)`.
fn push_delta_payload<const N: usize>(
    counts: &[u32],
    points: &[Point<N>],
    out: &mut Vec<u8>,
) -> bool {
    let base = points.first().copied().unwrap_or_else(Point::origin);
    for c in base.coords() {
        out.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    let mut pred = *base.coords();
    let mut rest = points;
    for &count in counts {
        let (frame, tail) = rest.split_at(count as usize);
        out.extend_from_slice(&count.to_le_bytes());
        for v in frame {
            for (p, c) in pred.iter_mut().zip(v.coords()) {
                let delta = (c - *p) as f32;
                let recon = *p + delta as f64;
                if !delta.is_finite() || recon.to_bits() != c.to_bits() {
                    return false;
                }
                out.extend_from_slice(&delta.to_le_bytes());
                *p = recon;
            }
        }
        rest = tail;
    }
    true
}

/// A v3 block decoded into reusable scratch: `points` holds every request
/// of the block contiguously, `frames` maps each step of the block to its
/// `(start, len)` range in `points`.
fn decode_block_payload<const N: usize>(
    mode: u8,
    steps_in_block: usize,
    payload: &[u8],
    at: usize,
    points: &mut Vec<Point<N>>,
    frames: &mut Vec<(usize, usize)>,
) -> Result<(), TraceError> {
    points.clear();
    frames.clear();
    // One offset walks the payload: `take(len)` returns the next `len`
    // bytes, and a payload too short for them is a truncated block.
    let mut off = 0usize;
    let mut take = |len: usize| -> Result<&[u8], TraceError> {
        let bytes = payload
            .get(off..off + len)
            .ok_or_else(|| corrupt(format!("offset {at}"), "block payload truncated"))?;
        off += len;
        Ok(bytes)
    };
    let le_f64 = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
    let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    let mut pred = [0.0f64; N];
    if mode == BLOCK_MODE_DELTA {
        for p in &mut pred {
            *p = le_f64(take(8)?);
        }
    }
    for _ in 0..steps_in_block {
        let count = le_u32(take(4)?);
        if count > MAX_REQUESTS_PER_STEP {
            return Err(corrupt(
                format!("offset {at}"),
                format!("implausible request count {count}"),
            ));
        }
        let start = points.len();
        for _ in 0..count {
            let mut p = Point::<N>::origin();
            match mode {
                BLOCK_MODE_RAW => {
                    for i in 0..N {
                        p[i] = le_f64(take(8)?);
                    }
                }
                BLOCK_MODE_DELTA => {
                    for i in 0..N {
                        let d = f32::from_bits(le_u32(take(4)?));
                        p[i] = pred[i] + d as f64;
                        pred[i] = p[i];
                    }
                }
                other => {
                    return Err(corrupt(
                        format!("offset {at}"),
                        format!("unknown block mode {other}"),
                    ));
                }
            }
            if !p.is_finite() {
                return Err(corrupt(
                    format!("offset {at}"),
                    "non-finite request coordinate",
                ));
            }
            points.push(p);
        }
        frames.push((start, points.len() - start));
    }
    let trailing = payload.len() - off;
    if trailing != 0 {
        return Err(corrupt(
            format!("offset {at}"),
            format!("block payload has {trailing} trailing bytes"),
        ));
    }
    Ok(())
}

/// Header fields shared by every v3 open path: validated model
/// parameters, the configured block size, and the byte length of the
/// file header.
fn parse_block_header<const N: usize>(
    bytes: &[u8],
) -> Result<(StreamParams<N>, usize, usize), TraceError> {
    let header_len = block_file_header_len(N);
    if bytes.len() < header_len {
        return Err(corrupt("header", "file shorter than the v3 header"));
    }
    let mut cur = Cursor::new(bytes);
    let magic = read_exact_array::<4>(&mut cur)?;
    if &magic != BLOCK_MAGIC {
        return Err(corrupt("header", "missing MSP3 magic"));
    }
    let version = read_u16(&mut cur)?;
    if version != BLOCK_VERSION {
        return Err(corrupt(
            "header",
            format!("unsupported block trace version {version}"),
        ));
    }
    let dim = read_u16(&mut cur)? as usize;
    if dim != N {
        return Err(corrupt(
            "header",
            format!("trace has dimension {dim}, caller expects {N}"),
        ));
    }
    let d = read_f64(&mut cur)?;
    let m = read_f64(&mut cur)?;
    let mut start = Point::<N>::origin();
    for i in 0..N {
        start[i] = read_f64(&mut cur)?;
    }
    let params = validated_params(d, m, start, "header")?;
    let block = u32::from_le_bytes(read_exact_array::<4>(&mut cur)?) as usize;
    if block == 0 || block > MAX_BLOCK_STEPS {
        return Err(corrupt("header", format!("implausible block size {block}")));
    }
    Ok((params, block, header_len))
}

/// Zero-copy v3 trace reader over a borrowed byte slice (a file read
/// once, or memory-mapped by the caller).
///
/// [`open`](BlockTraceReader::open) fully validates the header and the
/// CRC-guarded index trailer — offsets must be monotone, in bounds, and
/// byte-contiguous (every data byte belongs to exactly one block), so a
/// forged index cannot point decoding at attacker-chosen offsets.
/// [`seek_to_step`](BlockTraceReader::seek_to_step) is O(1) in the
/// horizon: it indexes the trailer, and the next
/// [`next_frame`](BlockTraceReader::next_frame) decodes exactly one
/// CRC-checked block. Frames are returned as borrowed slices into
/// per-block scratch that is reused across blocks — replay allocates
/// nothing per frame.
///
/// Implements [`RequestStream`] (frames copied into [`Step`]s, panicking
/// on corruption like [`TraceReader`]); use
/// [`try_next`](BlockTraceReader::try_next) or `next_frame` directly for
/// error-returning or zero-copy access.
#[derive(Debug)]
pub struct BlockTraceReader<'a, const N: usize> {
    bytes: &'a [u8],
    params: StreamParams<N>,
    block_steps: usize,
    offsets: Vec<u64>,
    total_steps: usize,
    /// First byte of the index trailer — the end of block data.
    data_end: usize,
    /// Block currently decoded into `points`/`frames`, if any.
    loaded: Option<usize>,
    points: Vec<Point<N>>,
    frames: Vec<(usize, usize)>,
    steps_read: usize,
}

impl<'a, const N: usize> BlockTraceReader<'a, N> {
    /// Opens a v3 trace, validating the header and the index trailer
    /// (marker, CRC, offset monotonicity, block-extent contiguity).
    /// Block payloads themselves are CRC-checked lazily, on first decode.
    pub fn open(bytes: &'a [u8]) -> Result<Self, TraceError> {
        let (params, block_steps, header_len) = parse_block_header::<N>(bytes)?;
        // The final u32 is the trailer length (marker..CRC inclusive);
        // minimum trailer is marker(4) + count(8) + total(8) + crc(4).
        if bytes.len() < header_len + 28 {
            return Err(corrupt("trailer", "file shorter than the index trailer"));
        }
        let tlen = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap()) as usize;
        if tlen < 24 || tlen > bytes.len() - 4 - header_len {
            return Err(corrupt(
                "trailer",
                format!("implausible trailer length {tlen}"),
            ));
        }
        let ts = bytes.len() - 4 - tlen;
        let trailer = &bytes[ts..bytes.len() - 4];
        if &trailer[..4] != INDEX_MARKER {
            return Err(corrupt(
                format!("offset {ts}"),
                "missing IDX3 trailer marker",
            ));
        }
        let stored_crc = u32::from_le_bytes(trailer[tlen - 4..].try_into().unwrap());
        let actual_crc = crc32(&trailer[..tlen - 4]);
        if stored_crc != actual_crc {
            obs::incr(obs::Counter::TraceCrcRejects);
            return Err(corrupt(
                format!("offset {ts}"),
                format!(
                    "trailer CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
                ),
            ));
        }
        let block_count = u64::from_le_bytes(trailer[4..12].try_into().unwrap()) as usize;
        if tlen != 24 + 8 * block_count {
            return Err(corrupt(
                format!("offset {ts}"),
                format!("trailer length {tlen} does not match {block_count} block offsets"),
            ));
        }
        let mut offsets = Vec::with_capacity(block_count);
        for b in 0..block_count {
            let at = 12 + 8 * b;
            offsets.push(u64::from_le_bytes(trailer[at..at + 8].try_into().unwrap()));
        }
        let total_steps = u64::from_le_bytes(
            trailer[12 + 8 * block_count..20 + 8 * block_count]
                .try_into()
                .unwrap(),
        ) as usize;
        if block_count != total_steps.div_ceil(block_steps) {
            return Err(corrupt(
                format!("offset {ts}"),
                format!(
                    "trailer records {block_count} blocks for {total_steps} steps at {block_steps} steps/block"
                ),
            ));
        }
        // Every block extent must tile [header_len, ts) exactly: offset
        // monotone, header in bounds, and
        // offset + header + payload_len + crc = next offset (or the
        // trailer start for the last block).
        for (b, &off) in offsets.iter().enumerate() {
            let off = off as usize;
            let expected = if b == 0 { header_len } else { 0 };
            if b == 0 && off != expected {
                return Err(corrupt(
                    format!("offset {ts}"),
                    format!("first block at offset {off}, expected {header_len}"),
                ));
            }
            if off + BLOCK_HEADER_LEN + 4 > ts {
                return Err(corrupt(
                    format!("offset {ts}"),
                    format!("block {b} offset {off} out of bounds"),
                ));
            }
            let payload_len =
                u32::from_le_bytes(bytes[off + 9..off + 13].try_into().unwrap()) as usize;
            let end = off + BLOCK_HEADER_LEN + payload_len + 4;
            let next = offsets.get(b + 1).map(|&n| n as usize).unwrap_or(ts);
            if end != next {
                return Err(corrupt(
                    format!("offset {off}"),
                    format!("block {b} extent ends at {end}, next block expected at {next}"),
                ));
            }
        }
        Ok(BlockTraceReader {
            bytes,
            params,
            block_steps,
            offsets,
            total_steps,
            data_end: ts,
            loaded: None,
            points: Vec::new(),
            frames: Vec::new(),
            steps_read: 0,
        })
    }

    /// Model parameters from the validated header.
    pub fn trace_params(&self) -> StreamParams<N> {
        self.params
    }

    /// Total steps recorded in the index trailer.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// Configured steps per block (the last block may be shorter).
    pub fn block_size(&self) -> usize {
        self.block_steps
    }

    /// Number of blocks in the file.
    pub fn blocks(&self) -> usize {
        self.offsets.len()
    }

    /// Positions the reader so the next frame read is step `step` — O(1)
    /// via the index trailer (the target block is decoded lazily by the
    /// next read). `step == total_steps()` is allowed and positions at
    /// end-of-trace.
    pub fn seek_to_step(&mut self, step: usize) -> Result<(), TraceError> {
        if step > self.total_steps {
            return Err(corrupt(
                "seek",
                format!("step {step} beyond the {}-step trace", self.total_steps),
            ));
        }
        self.steps_read = step;
        obs::incr(obs::Counter::TraceSeeks);
        Ok(())
    }

    /// Steps consumed since open/rewind (equivalently: the index of the
    /// next frame).
    pub fn steps_read(&self) -> usize {
        self.steps_read
    }

    /// Decodes and CRC-checks block `b` into the reusable scratch.
    fn load_block(&mut self, b: usize) -> Result<(), TraceError> {
        let off = self.offsets[b] as usize;
        let payload_len =
            u32::from_le_bytes(self.bytes[off + 9..off + 13].try_into().unwrap()) as usize;
        // Extent validated against the index at open time.
        debug_assert!(off + BLOCK_HEADER_LEN + payload_len + 4 <= self.data_end);
        let body = &self.bytes[off..off + BLOCK_HEADER_LEN + payload_len];
        if &body[..4] != BLOCK_MARKER {
            return Err(corrupt(
                format!("offset {off}"),
                "missing BLK3 block marker",
            ));
        }
        let stored_crc = u32::from_le_bytes(
            self.bytes
                [off + BLOCK_HEADER_LEN + payload_len..off + BLOCK_HEADER_LEN + payload_len + 4]
                .try_into()
                .unwrap(),
        );
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            obs::incr(obs::Counter::TraceCrcRejects);
            return Err(corrupt(
                format!("offset {off}"),
                format!("block {b} CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"),
            ));
        }
        let mode = body[4];
        let steps_in_block = u32::from_le_bytes(body[5..9].try_into().unwrap()) as usize;
        let expected = (self.total_steps - b * self.block_steps).min(self.block_steps);
        if steps_in_block != expected {
            return Err(corrupt(
                format!("offset {off}"),
                format!("block {b} records {steps_in_block} steps, index expects {expected}"),
            ));
        }
        decode_block_payload(
            mode,
            steps_in_block,
            &body[BLOCK_HEADER_LEN..],
            off,
            &mut self.points,
            &mut self.frames,
        )?;
        self.loaded = Some(b);
        obs::incr(obs::Counter::TraceBlocksRead);
        Ok(())
    }

    /// Next frame as a borrowed slice into block scratch — the zero-copy
    /// replay path (`Ok(None)` at end of trace). The slice is valid until
    /// the next call on this reader.
    pub fn next_frame(&mut self) -> Result<Option<&[Point<N>]>, TraceError> {
        if self.steps_read >= self.total_steps {
            return Ok(None);
        }
        let b = self.steps_read / self.block_steps;
        if self.loaded != Some(b) {
            self.load_block(b)?;
        }
        let (start, len) = self.frames[self.steps_read - b * self.block_steps];
        self.steps_read += 1;
        Ok(Some(&self.points[start..start + len]))
    }

    /// Next frame copied into an owned [`Step`] (`Ok(None)` at end of
    /// trace) — the error-returning counterpart of the panicking
    /// [`RequestStream::next_step`] facade.
    pub fn try_next(&mut self) -> Result<Option<Step<N>>, TraceError> {
        Ok(self.next_frame()?.map(|frame| Step::new(frame.to_vec())))
    }
}

impl<const N: usize> RequestStream<N> for BlockTraceReader<'_, N> {
    fn params(&self) -> StreamParams<N> {
        self.params
    }
    fn next_step(&mut self) -> Option<Step<N>> {
        match self.try_next() {
            Ok(step) => step,
            Err(e) => panic!("replaying corrupt trace: {e}"),
        }
    }
    fn len_hint(&self) -> Option<usize> {
        Some(self.total_steps)
    }
    fn rewind(&mut self) {
        self.steps_read = 0;
    }
}

/// Salvages a v3 block trace: walks blocks sequentially from the header,
/// keeping every step of every block that decodes and CRC-checks cleanly,
/// and stopping loud at the first damaged block. The index trailer is
/// *not* trusted (it may itself be torn); a trace only reports clean when
/// the trailer also validates and agrees with the decoded totals.
pub fn salvage_block_trace<const N: usize>(bytes: &[u8]) -> Result<SalvagedTrace<N>, TraceError> {
    let (params, block_steps, header_len) = parse_block_header::<N>(bytes)?;
    let mut steps: Vec<Step<N>> = Vec::new();
    let mut points = Vec::new();
    let mut frames = Vec::new();
    let mut off = header_len;
    let mut error = None;
    loop {
        if off + 4 <= bytes.len() && &bytes[off..off + 4] == INDEX_MARKER {
            // Reached what claims to be the trailer: re-validate it (and
            // the whole file) through the strict reader.
            match BlockTraceReader::<N>::open(bytes) {
                Ok(reader) if reader.total_steps() == steps.len() => {}
                Ok(reader) => {
                    error = Some(corrupt(
                        format!("offset {off}"),
                        format!(
                            "trailer records {} steps but {} were decoded",
                            reader.total_steps(),
                            steps.len()
                        ),
                    ));
                }
                Err(e) => error = Some(e),
            }
            break;
        }
        if off + BLOCK_HEADER_LEN + 4 > bytes.len() {
            error = Some(corrupt(
                format!("offset {off}"),
                "trace truncated: missing index trailer",
            ));
            break;
        }
        let body_head = &bytes[off..off + BLOCK_HEADER_LEN];
        if &body_head[..4] != BLOCK_MARKER {
            error = Some(corrupt(
                format!("offset {off}"),
                "missing BLK3 block marker",
            ));
            break;
        }
        let mode = body_head[4];
        let steps_in_block = u32::from_le_bytes(body_head[5..9].try_into().unwrap()) as usize;
        let payload_len = u32::from_le_bytes(body_head[9..13].try_into().unwrap()) as usize;
        if steps_in_block > block_steps || off + BLOCK_HEADER_LEN + payload_len + 4 > bytes.len() {
            error = Some(corrupt(
                format!("offset {off}"),
                "block extent truncated or oversized",
            ));
            break;
        }
        let body = &bytes[off..off + BLOCK_HEADER_LEN + payload_len];
        let stored_crc = u32::from_le_bytes(
            bytes[off + BLOCK_HEADER_LEN + payload_len..off + BLOCK_HEADER_LEN + payload_len + 4]
                .try_into()
                .unwrap(),
        );
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            obs::incr(obs::Counter::TraceCrcRejects);
            error = Some(corrupt(
                format!("offset {off}"),
                format!(
                    "block CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
                ),
            ));
            break;
        }
        if let Err(e) = decode_block_payload(
            mode,
            steps_in_block,
            &body[BLOCK_HEADER_LEN..],
            off,
            &mut points,
            &mut frames,
        ) {
            error = Some(e);
            break;
        }
        for &(start, len) in &frames {
            steps.push(Step::new(points[start..start + len].to_vec()));
        }
        off += BLOCK_HEADER_LEN + payload_len + 4;
    }
    Ok(SalvagedTrace {
        params,
        steps,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::InstanceStream;
    use msp_geometry::P2;

    fn sample_instance() -> Instance<2> {
        Instance::new(
            4.0,
            1.5,
            P2::xy(0.5, -0.25),
            vec![
                Step::new(vec![P2::xy(1.0, 2.0), P2::xy(-3.5, 4.25)]),
                Step::new(vec![]),
                Step::single(P2::xy(0.125, -7.0)),
                Step::single(P2::xy(-0.0, f64::MIN_POSITIVE)),
            ],
        )
    }

    fn formats() -> [TraceFormat; 2] {
        [TraceFormat::TextV1, TraceFormat::BlockV3 { block: 2 }]
    }

    #[test]
    fn every_format_round_trips_bit_exactly() {
        let inst = sample_instance();
        for format in formats() {
            let mut stream = InstanceStream::new(inst.clone());
            let bytes = record_to_vec(&mut stream, format).unwrap();
            let back: Instance<2> = read_trace(&bytes).unwrap();
            assert_eq!(back.d.to_bits(), inst.d.to_bits(), "{format:?}");
            assert_eq!(back.max_move.to_bits(), inst.max_move.to_bits());
            assert_eq!(bits_of(&back.start), bits_of(&inst.start));
            assert_eq!(back.horizon(), inst.horizon());
            for (a, b) in back.steps.iter().zip(&inst.steps) {
                assert_eq!(a.requests.len(), b.requests.len());
                for (va, vb) in a.requests.iter().zip(&b.requests) {
                    assert_eq!(bits_of(va), bits_of(vb), "{format:?}");
                }
            }
        }
    }

    /// Pins the canonical text v1 bytes, the layout every instance file
    /// shares: banner, header directives, one `step` line per step with
    /// ` ; `-separated requests in shortest round-trip decimals.
    #[test]
    fn text_v1_matches_core_io_format() {
        let mut inst = sample_instance();
        inst.steps.truncate(3);
        let bytes =
            record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::TextV1).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "# mobile-server instance v1\ndim 2\nd 4\nm 1.5\nstart 0.5 -0.25\n\
             step 1 2 ; -3.5 4.25\nstep\nstep 0.125 -7\n"
        );
        let parsed: Instance<2> = read_trace(text.as_bytes()).unwrap();
        assert_eq!(parsed.horizon(), inst.horizon());
    }

    #[test]
    fn reader_is_a_rewindable_request_stream() {
        let inst = sample_instance();
        let bytes =
            record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::TextV1).unwrap();
        let mut reader = TraceReader::<2, _>::open(Cursor::new(bytes)).unwrap();
        let first: Vec<Step<2>> = std::iter::from_fn(|| reader.next_step()).collect();
        assert_eq!(first.len(), inst.horizon());
        reader.rewind();
        let second: Vec<Step<2>> = std::iter::from_fn(|| reader.next_step()).collect();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.requests, b.requests);
        }
    }

    #[test]
    fn diff_detects_identity_and_divergence() {
        let inst = sample_instance();
        let mut a = InstanceStream::new(inst.clone());
        let mut b = InstanceStream::new(inst.clone());
        assert_eq!(diff_streams(&mut a, &mut b), None);

        let mut tweaked = inst.clone();
        tweaked.steps[2].requests[0][0] += 1e-9;
        let mut c = InstanceStream::new(tweaked);
        match diff_streams(&mut a, &mut c) {
            Some(StreamDiff::Step { index: 2, .. }) => {}
            other => panic!("expected step-2 diff, got {other:?}"),
        }

        let mut shorter = InstanceStream::new(inst.prefix(2));
        match diff_streams(&mut a, &mut shorter) {
            Some(StreamDiff::Step { index: 2, detail }) => {
                assert!(detail.contains("ended early"));
            }
            other => panic!("expected early-end diff, got {other:?}"),
        }
    }

    /// Overwrites the v3 trailer's step total and re-seals its CRC, so
    /// only the count cross-check can catch the forgery.
    #[test]
    fn wrong_trailer_count_is_rejected() {
        let mut bytes = sample_v3_bytes(2);
        let len = bytes.len();
        bytes[len - 16..len - 8].copy_from_slice(&7u64.to_le_bytes());
        let tlen = u32::from_le_bytes(bytes[len - 4..].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[len - 4 - tlen..len - 8]);
        bytes[len - 8..len - 4].copy_from_slice(&crc.to_le_bytes());
        let err = read_trace::<2>(&bytes).unwrap_err();
        assert!(
            format!("{err}").contains("trailer records 2 blocks for 7 steps"),
            "{err}"
        );
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let inst = sample_instance();
        for format in formats() {
            let bytes = record_to_vec(&mut InstanceStream::new(inst.clone()), format).unwrap();
            let err = read_trace::<3>(&bytes).unwrap_err();
            assert!(
                format!("{err}").contains("dimension 2"),
                "{format:?}: {err}"
            );
        }
    }

    #[test]
    fn non_finite_coordinates_cannot_enter_a_trace() {
        // Forge a v3 trace with a NaN coordinate, re-sealing the block
        // CRC, and check the reader refuses it (the writer can't produce
        // one — Step construction and write_step both assert finiteness).
        // Block 1 is raw (see block_writer_uses_delta_and_raw_modes); its
        // payload opens with step 2's request count, then the x bits.
        let mut bytes = sample_v3_bytes(2);
        let off = BlockTraceReader::<2>::open(&bytes).unwrap().offsets[1] as usize;
        let x = off + BLOCK_HEADER_LEN + 4;
        bytes[x..x + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let payload_len = u32::from_le_bytes(bytes[off + 9..off + 13].try_into().unwrap());
        let crc_at = off + BLOCK_HEADER_LEN + payload_len as usize;
        let crc = crc32(&bytes[off..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        let err = read_trace::<2>(&bytes).unwrap_err();
        assert!(format!("{err}").contains("non-finite"), "{err}");
    }

    #[test]
    fn salvage_of_a_clean_trace_is_complete_and_clean() {
        let inst = sample_instance();
        for format in formats() {
            let bytes = record_to_vec(&mut InstanceStream::new(inst.clone()), format).unwrap();
            let salvaged = salvage_trace::<2>(&bytes).unwrap();
            assert!(salvaged.is_clean(), "{format:?}");
            assert_eq!(salvaged.steps.len(), inst.horizon(), "{format:?}");
            assert_eq!(salvaged.into_instance().horizon(), inst.horizon());
        }
    }

    #[test]
    fn salvage_still_rejects_header_damage() {
        let inst = sample_instance();
        for format in formats() {
            let bytes = record_to_vec(&mut InstanceStream::new(inst.clone()), format).unwrap();
            assert!(salvage_trace::<2>(&bytes[..8]).is_err(), "{format:?}");
        }
    }

    fn sample_v3_bytes(block: usize) -> Vec<u8> {
        record_to_vec(
            &mut InstanceStream::new(sample_instance()),
            TraceFormat::BlockV3 { block },
        )
        .unwrap()
    }

    #[test]
    fn block_reader_seeks_to_any_step() {
        let inst = sample_instance();
        let bytes = sample_v3_bytes(2);
        let mut reader = BlockTraceReader::<2>::open(&bytes).unwrap();
        assert_eq!(reader.total_steps(), inst.horizon());
        assert_eq!(reader.blocks(), 2);
        for k in (0..=inst.horizon()).rev() {
            reader.seek_to_step(k).unwrap();
            for expected in &inst.steps[k..] {
                let frame = reader.next_frame().unwrap().unwrap();
                assert_eq!(frame.len(), expected.requests.len());
                for (a, b) in frame.iter().zip(&expected.requests) {
                    assert_eq!(bits_of(a), bits_of(b));
                }
            }
            assert!(reader.next_frame().unwrap().is_none());
        }
        assert!(reader.seek_to_step(inst.horizon() + 1).is_err());
    }

    #[test]
    fn block_writer_uses_delta_and_raw_modes() {
        // Block 0 (nice values) should delta-encode; block 1 contains
        // `-0.0`, which no delta can reconstruct from a positive
        // predictor — the escape hatch must fall back to raw.
        let bytes = sample_v3_bytes(2);
        let reader = BlockTraceReader::<2>::open(&bytes).unwrap();
        let modes: Vec<u8> = (0..reader.blocks())
            .map(|b| bytes[reader.offsets[b] as usize + 4])
            .collect();
        assert_eq!(modes, vec![BLOCK_MODE_DELTA, BLOCK_MODE_RAW]);
    }

    /// Eleven steps at three per block: a delta block, a block the
    /// escape hatch sends raw (`-0.0` under a positive predictor), a
    /// block of only empty steps (delta base at the origin), and a short
    /// last block.
    fn wire_instance() -> Instance<2> {
        Instance::new(
            4.0,
            1.5,
            P2::xy(0.5, -0.25),
            vec![
                Step::new(vec![P2::xy(1.0, 2.0), P2::xy(-3.5, 4.25)]),
                Step::new(vec![]),
                Step::single(P2::xy(0.125, -7.0)),
                Step::single(P2::xy(0.75, 1.0)),
                Step::single(P2::xy(-0.0, f64::MIN_POSITIVE)),
                Step::new(vec![P2::xy(3.0, -1.5), P2::xy(2.0, 2.0)]),
                Step::new(vec![]),
                Step::new(vec![]),
                Step::new(vec![]),
                Step::single(P2::xy(6.0, -2.0)),
                Step::new(vec![P2::xy(6.5, -2.5), P2::xy(7.0, 1.0)]),
            ],
        )
    }

    /// Pins the v3 wire format byte for byte, from the `MSP3` header to
    /// the trailer length: block markers, modes, counts, delta and raw
    /// payloads, every block CRC and the index trailer. The round-trip
    /// tests cannot see an encoder and a checksum that drift together;
    /// this literal can.
    #[test]
    fn block_v3_wire_bytes_are_pinned() {
        const WIRE: &str = concat!(
            // header: magic, version 1, dim 2, d 4, m 1.5, start, block 3
            "4d535033010002000000000000001040000000000000f83f000000000000e03f",
            "000000000000d0bf03000000",
            // block 0: BLK3, delta, 3 steps, 52 payload bytes; base (1, 2)
            "424c4b33010300000034000000",
            "000000000000f03f0000000000000040020000000000000000000000000090c0",
            "00001040000000000100000000006840000034c1",
            "6e73bac6",
            // block 1: raw (-0.0 defeats every delta), 3 steps, 76 bytes
            "424c4b3300030000004c000000",
            "01000000000000000000e83f000000000000f03f010000000000000000000080",
            "0000000000001000020000000000000000000840000000000000f8bf00000000",
            "000000400000000000000040",
            "7e0398fa",
            // block 2: delta, 3 empty steps, base at the origin
            "424c4b3301030000001c000000",
            "00000000000000000000000000000000000000000000000000000000",
            "1d48e93d",
            // block 3: delta, the short last block of 2 steps
            "424c4b33010200000030000000",
            "000000000000184000000000000000c001000000000000000000000002000000",
            "0000003f000000bf0000003f00006040",
            "14b508f5",
            // trailer: IDX3, 4 block offsets, 11 steps, CRC, length 56
            "494458330400000000000000",
            "2c000000000000007100000000000000ce00000000000000fb00000000000000",
            "0b00000000000000",
            "5b65f929",
            "38000000",
        );
        let bytes = record_to_vec(
            &mut InstanceStream::new(wire_instance()),
            TraceFormat::BlockV3 { block: 3 },
        )
        .unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, WIRE);
        let reader = BlockTraceReader::<2>::open(&bytes).unwrap();
        let modes: Vec<u8> = (0..reader.blocks())
            .map(|b| bytes[reader.offsets[b] as usize + 4])
            .collect();
        assert_eq!(
            modes,
            [
                BLOCK_MODE_DELTA,
                BLOCK_MODE_RAW,
                BLOCK_MODE_DELTA,
                BLOCK_MODE_DELTA
            ]
        );
        let bits = |inst: &Instance<2>| -> Vec<Vec<[u64; 2]>> {
            let frame = |s: &Step<2>| s.requests.iter().map(bits_of).collect();
            inst.steps.iter().map(frame).collect()
        };
        assert_eq!(bits(&read_trace(&bytes).unwrap()), bits(&wire_instance()));
    }

    #[test]
    fn corrupt_v3_trailer_is_rejected() {
        let mut bytes = sample_v3_bytes(2);
        let flip = bytes.len() - 10;
        bytes[flip] ^= 0x01;
        assert!(BlockTraceReader::<2>::open(&bytes).is_err());
    }

    #[test]
    fn corrupt_v3_block_salvages_valid_prefix() {
        let inst = sample_instance();
        let mut bytes = sample_v3_bytes(2);
        // Flip one payload byte of the second block; the trailer and the
        // first block stay intact.
        let reader = BlockTraceReader::<2>::open(&bytes).unwrap();
        let off = reader.offsets[1] as usize + BLOCK_HEADER_LEN;
        drop(reader);
        bytes[off] ^= 0x40;
        let salvaged = salvage_trace::<2>(&bytes).unwrap();
        assert!(!salvaged.is_clean());
        assert_eq!(salvaged.steps.len(), 2);
        for (a, b) in salvaged.steps.iter().zip(&inst.steps) {
            for (va, vb) in a.requests.iter().zip(&b.requests) {
                assert_eq!(bits_of(va), bits_of(vb));
            }
        }
        assert!(format!("{}", salvaged.error.unwrap()).contains("CRC mismatch"));
    }

    #[test]
    fn streaming_reader_rejects_v3_with_pointer() {
        let bytes = sample_v3_bytes(2);
        let err = TraceReader::<2, _>::open(Cursor::new(bytes)).unwrap_err();
        assert!(format!("{err}").contains("BlockTraceReader"), "{err}");
    }

    #[test]
    fn empty_v3_trace_round_trips() {
        let params = StreamParams::new(2.0, 1.0, P2::xy(0.0, 0.0));
        let inst = params.into_instance(Vec::new());
        let bytes = record_to_vec(
            &mut InstanceStream::new(inst),
            TraceFormat::BlockV3 { block: 8 },
        )
        .unwrap();
        let mut reader = BlockTraceReader::<2>::open(&bytes).unwrap();
        assert_eq!(reader.total_steps(), 0);
        assert_eq!(reader.blocks(), 0);
        assert!(reader.next_frame().unwrap().is_none());
        let salvaged = salvage_trace::<2>(&bytes).unwrap();
        assert!(salvaged.is_clean());
        assert!(salvaged.steps.is_empty());
    }
}
