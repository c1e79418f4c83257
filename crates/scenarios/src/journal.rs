//! Durable checkpoint journal: crash-safe persistence of streaming
//! sessions.
//!
//! A journal file is a header describing the session's fixed
//! configuration (`MSPJ` magic, dimension, serving order, δ, model
//! parameters) followed by an append-only sequence of generation
//! records, each carrying a [`StreamCheckpoint`] and a CRC-32 guard.
//! Recovery scans forward and returns the **newest complete,
//! CRC-valid record**: a crash mid-append leaves a torn tail that is
//! reported loudly ([`JournalRecovery::torn_tail`]) while the previous
//! generation stays recoverable — the same trailer discipline as the
//! trace formats (`docs/TRACE_FORMAT.md`), now covering live session
//! state. For a [`Memoryless`] algorithm the checkpoint is the whole run
//! state, so [`resume_from_journal`] rebuilds a [`StreamingSim`] whose
//! continuation is **bit-equal** to the uninterrupted run (pinned by
//! `tests/fault_tolerance.rs`).
//!
//! The normative byte-layout specification lives in
//! `docs/CHECKPOINT_FORMAT.md`; this module is its reference
//! implementation.

use crate::durable::AtomicFile;
use crate::trace::validated_params;
use msp_analysis::obs;
use msp_core::algorithm::{Memoryless, OnlineAlgorithm};
use msp_core::cost::ServingOrder;
use msp_core::model::StreamParams;
use msp_core::simulator::{StreamCheckpoint, StreamingSim};
use msp_geometry::Point;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of a checkpoint journal file.
pub const JOURNAL_MAGIC: &[u8; 4] = b"MSPJ";
/// Version field written by the journal encoder and the only one the
/// decoder accepts.
pub const JOURNAL_VERSION: u16 = 2;
/// Marker opening every generation record.
pub const RECORD_MARKER: &[u8; 4] = b"JRNL";

/// Errors from journal encoding, decoding, and recovery.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed, truncated, or CRC-failing journal data.
    Corrupt {
        /// Where the problem was detected (byte offset or section name).
        at: String,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { at, message } => {
                write!(f, "corrupt journal at {at}: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<crate::trace::TraceError> for JournalError {
    fn from(e: crate::trace::TraceError) -> Self {
        match e {
            crate::trace::TraceError::Io(io) => JournalError::Io(io),
            crate::trace::TraceError::Corrupt { at, message } => {
                JournalError::Corrupt { at, message }
            }
        }
    }
}

fn corrupt(at: impl std::fmt::Display, message: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        at: at.to_string(),
        message: message.into(),
    }
}

/// Slicing-by-16 tables for [`crc32`]: row 0 is the classic bytewise
/// table, and row `k` maps a byte to its CRC contribution once `k`
/// further bytes have been shifted in, so one 16-byte chunk folds into
/// the running CRC with 16 independent lookups.
const CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut row = 1;
    while row < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[row - 1][i];
            tables[row][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        row += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
/// guarding every journal record, and every block and index trailer of
/// a block v3 trace. Table-sliced: 16 bytes per step through 16
/// compile-time lookup tables, then a bytewise tail; the value is the
/// plain bytewise CRC's. Exposed so external tooling can verify records
/// against `docs/CHECKPOINT_FORMAT.md` without this crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for b in &mut chunks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn order_code(order: ServingOrder) -> u8 {
    match order {
        ServingOrder::MoveFirst => 0,
        ServingOrder::AnswerFirst => 1,
    }
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn encode_header<const N: usize>(
    params: &StreamParams<N>,
    delta: f64,
    order: ServingOrder,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(36 + 8 * N);
    out.extend_from_slice(JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&(N as u16).to_le_bytes());
    out.push(order_code(order));
    out.extend_from_slice(&[0u8; 3]); // reserved
    push_f64(&mut out, delta);
    push_f64(&mut out, params.d);
    push_f64(&mut out, params.max_move);
    for c in params.start.coords() {
        push_f64(&mut out, *c);
    }
    out
}

fn encode_record<const N: usize>(generation: u64, checkpoint: &StreamCheckpoint<N>) -> Vec<u8> {
    let mut out = Vec::with_capacity(48 + 8 * N);
    out.extend_from_slice(RECORD_MARKER);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(checkpoint.step as u64).to_le_bytes());
    for c in checkpoint.position.coords() {
        push_f64(&mut out, *c);
    }
    push_f64(&mut out, checkpoint.movement);
    push_f64(&mut out, checkpoint.service);
    push_f64(&mut out, checkpoint.max_step_used);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Streaming journal encoder over any [`Write`] sink: header at
/// construction, one generation record per [`JournalWriter::append`].
/// For crash-safe on-disk journals use [`DurableJournal`], which adds the
/// atomic-create and fsync-per-append discipline on top of this encoding.
#[derive(Debug)]
pub struct JournalWriter<const N: usize, W: Write> {
    sink: W,
    next_generation: u64,
    /// Metrics-only state: step of the last appended checkpoint, for the
    /// checkpoint-cadence histogram. Never serialized, never compared.
    obs_last_step: Option<u64>,
}

impl<const N: usize, W: Write> JournalWriter<N, W> {
    /// Opens a journal: validates the configuration and writes the header.
    ///
    /// # Panics
    /// Panics when `delta` is negative or not finite (the same contract as
    /// [`msp_core::AlgContext`] — an unresumable configuration must not
    /// reach disk).
    pub fn new(
        mut sink: W,
        params: &StreamParams<N>,
        delta: f64,
        order: ServingOrder,
    ) -> Result<Self, JournalError> {
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "augmentation δ must be a finite non-negative number, got {delta}"
        );
        let params = validated_params(params.d, params.max_move, params.start, "header")?;
        sink.write_all(&encode_header(&params, delta, order))?;
        Ok(JournalWriter {
            sink,
            next_generation: 0,
            obs_last_step: None,
        })
    }

    /// Appends one generation record and flushes. Returns the generation
    /// number just written (0-based, strictly sequential).
    pub fn append(&mut self, checkpoint: &StreamCheckpoint<N>) -> Result<u64, JournalError> {
        self.append_then(checkpoint, W::flush)
    }

    /// The one append body: writes the next generation's record, makes
    /// it durable with `sync` (a flush for a buffered sink, an fsync for
    /// [`DurableJournal`]'s file), then advances the generation counter
    /// and feeds the metrics. `JournalAppendNs` spans the write and the
    /// sync.
    fn append_then(
        &mut self,
        checkpoint: &StreamCheckpoint<N>,
        sync: impl FnOnce(&mut W) -> std::io::Result<()>,
    ) -> Result<u64, JournalError> {
        let span = obs::timer(obs::Hist::JournalAppendNs);
        let generation = self.next_generation;
        self.sink
            .write_all(&encode_record(generation, checkpoint))?;
        sync(&mut self.sink)?;
        self.next_generation += 1;
        span.stop();
        obs::incr(obs::Counter::JournalAppends);
        // The step gap since the previous append feeds the
        // checkpoint-cadence histogram (metrics only).
        let step = checkpoint.step as u64;
        if let Some(prev) = self.obs_last_step {
            obs::record(
                obs::Hist::JournalCheckpointGapSteps,
                step.saturating_sub(prev),
            );
        }
        self.obs_last_step = Some(step);
        Ok(generation)
    }

    /// [`JournalWriter::append`] of a live simulation's checkpoint, for an
    /// algorithm that [`resume_from_journal`] can resume.
    pub fn append_sim<A>(&mut self, sim: &StreamingSim<N, A>) -> Result<u64, JournalError>
    where
        A: OnlineAlgorithm<N> + Memoryless,
    {
        self.append(&sim.checkpoint())
    }

    /// Generations written so far.
    pub fn generations(&self) -> u64 {
        self.next_generation
    }

    /// Returns the underlying sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Outcome of [`recover_journal`]: the newest complete checkpoint plus
/// the session configuration needed to resume it.
#[derive(Clone, Debug)]
pub struct JournalRecovery<const N: usize> {
    /// Model parameters of the journaled session.
    pub params: StreamParams<N>,
    /// Augmentation factor δ of the session.
    pub delta: f64,
    /// Serving order of the session.
    pub order: ServingOrder,
    /// Generation number of the recovered record.
    pub generation: u64,
    /// The newest complete, CRC-valid checkpoint.
    pub checkpoint: StreamCheckpoint<N>,
    /// `Some` when trailing bytes after the recovered record failed to
    /// parse — the loud torn-write report. `None` means the journal ended
    /// exactly on a record boundary.
    pub torn_tail: Option<String>,
    /// Bytes of the journal covered by the header and every valid record
    /// — the clean boundary a re-opened journal truncates to before its
    /// next append (see [`DurableJournal::reopen`]).
    pub clean_len: usize,
}

fn take<'a>(bytes: &'a [u8], offset: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = offset.checked_add(n)?;
    let slice = bytes.get(*offset..end)?;
    *offset = end;
    Some(slice)
}

fn take_f64(bytes: &[u8], offset: &mut usize) -> Option<f64> {
    let raw = take(bytes, offset, 8)?;
    Some(f64::from_bits(u64::from_le_bytes(raw.try_into().unwrap())))
}

fn parse_record<const N: usize>(
    bytes: &[u8],
    start: usize,
    expected_generation: u64,
) -> Result<(StreamCheckpoint<N>, usize), JournalError> {
    let at = || format!("offset {start}");
    let mut offset = start;
    let truncated = || corrupt(at(), "record truncated");
    let marker = take(bytes, &mut offset, 4).ok_or_else(truncated)?;
    if marker != RECORD_MARKER {
        return Err(corrupt(at(), format!("bad record marker {marker:02x?}")));
    }
    let generation = u64::from_le_bytes(
        take(bytes, &mut offset, 8)
            .ok_or_else(truncated)?
            .try_into()
            .unwrap(),
    );
    if generation != expected_generation {
        return Err(corrupt(
            at(),
            format!("generation {generation} out of order, expected {expected_generation}"),
        ));
    }
    let step = u64::from_le_bytes(
        take(bytes, &mut offset, 8)
            .ok_or_else(truncated)?
            .try_into()
            .unwrap(),
    );
    let mut position = Point::<N>::origin();
    for i in 0..N {
        position[i] = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    }
    let movement = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    let service = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    let max_step_used = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    let stored_crc = u32::from_le_bytes(
        take(bytes, &mut offset, 4)
            .ok_or_else(truncated)?
            .try_into()
            .unwrap(),
    );
    let actual_crc = crc32(&bytes[start..offset - 4]);
    if stored_crc != actual_crc {
        obs::incr(obs::Counter::JournalCrcRejects);
        return Err(corrupt(
            at(),
            format!("CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"),
        ));
    }
    // CRC guards the bit patterns; semantic validation catches a
    // correctly-checksummed record that could still never have been
    // written (e.g. forged by tooling).
    if !position.is_finite() {
        return Err(corrupt(at(), "non-finite checkpoint position"));
    }
    if !(movement.is_finite() && service.is_finite() && max_step_used.is_finite()) {
        return Err(corrupt(at(), "non-finite checkpoint cost totals"));
    }
    let checkpoint = StreamCheckpoint {
        step: step as usize,
        position,
        movement,
        service,
        max_step_used,
    };
    Ok((checkpoint, offset))
}

/// Recovers the newest complete checkpoint from journal bytes.
///
/// Scans every generation record in order, validating marker, sequence,
/// length, and CRC. The scan stops at the first invalid record; if at
/// least one record was valid, recovery succeeds with
/// [`JournalRecovery::torn_tail`] describing the rejected tail (loud, but
/// non-fatal — this is exactly the crash-mid-append case the journal
/// exists for). A journal whose header is damaged, or which holds no
/// complete record at all, is a hard error: there is nothing safe to
/// resume from.
pub fn recover_journal<const N: usize>(bytes: &[u8]) -> Result<JournalRecovery<N>, JournalError> {
    let mut offset = 0usize;
    let truncated = || corrupt("header", "journal truncated inside the header");
    let magic = take(bytes, &mut offset, 4).ok_or_else(truncated)?;
    if magic != JOURNAL_MAGIC {
        return Err(corrupt("header", format!("bad magic {magic:02x?}")));
    }
    let version = u16::from_le_bytes(
        take(bytes, &mut offset, 2)
            .ok_or_else(truncated)?
            .try_into()
            .unwrap(),
    );
    if version != JOURNAL_VERSION {
        return Err(corrupt(
            "header",
            format!("unsupported journal version {version}"),
        ));
    }
    let dim = u16::from_le_bytes(
        take(bytes, &mut offset, 2)
            .ok_or_else(truncated)?
            .try_into()
            .unwrap(),
    ) as usize;
    if dim != N {
        return Err(corrupt(
            "header",
            format!("journal has dimension {dim}, caller expects {N}"),
        ));
    }
    let order = match take(bytes, &mut offset, 4).ok_or_else(truncated)? {
        [0, 0, 0, 0] => ServingOrder::MoveFirst,
        [1, 0, 0, 0] => ServingOrder::AnswerFirst,
        other => {
            return Err(corrupt(
                "header",
                format!("bad serving-order/reserved bytes {other:02x?}"),
            ))
        }
    };
    let delta = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    if !(delta >= 0.0 && delta.is_finite()) {
        return Err(corrupt("header", format!("bad augmentation δ {delta}")));
    }
    let d = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    let m = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    let mut start = Point::<N>::origin();
    for i in 0..N {
        start[i] = take_f64(bytes, &mut offset).ok_or_else(truncated)?;
    }
    let params = validated_params(d, m, start, "header")?;

    let mut newest: Option<(u64, StreamCheckpoint<N>)> = None;
    let mut torn_tail = None;
    let mut generation = 0u64;
    while offset < bytes.len() {
        match parse_record::<N>(bytes, offset, generation) {
            Ok((checkpoint, next)) => {
                newest = Some((generation, checkpoint));
                generation += 1;
                offset = next;
            }
            Err(e) => {
                obs::incr(obs::Counter::JournalTornTails);
                torn_tail = Some(e.to_string());
                break;
            }
        }
    }
    match newest {
        Some((generation, checkpoint)) => Ok(JournalRecovery {
            params,
            delta,
            order,
            generation,
            checkpoint,
            torn_tail,
            clean_len: offset,
        }),
        None => Err(match torn_tail {
            Some(message) => corrupt("first record", message),
            None => corrupt("journal", "no checkpoint record after the header"),
        }),
    }
}

/// Resumes a streaming simulation from a recovered journal checkpoint —
/// the durable counterpart of [`StreamingSim::resume`]. Pass a fresh,
/// configuration-equal instance of the [`Memoryless`] algorithm that ran
/// the session: the checkpoint is then the whole run state, and the
/// continuation is bit-equal to the uninterrupted run. The caller then
/// skips the stream to `recovery.checkpoint.step` and keeps feeding.
pub fn resume_from_journal<const N: usize, A>(
    recovery: &JournalRecovery<N>,
    algorithm: A,
) -> StreamingSim<N, A>
where
    A: OnlineAlgorithm<N> + Memoryless,
{
    StreamingSim::resume(
        &recovery.params,
        algorithm,
        recovery.delta,
        recovery.order,
        &recovery.checkpoint,
    )
}

/// An on-disk checkpoint journal with crash-safe creation and appends:
/// the header is committed via temp-file + atomic rename (a crash during
/// create leaves nothing under the final name), and every appended
/// record is fsynced before [`DurableJournal::append`] returns — after
/// which a crash at *any* point loses at most the in-flight record,
/// which [`recover_journal`] reports as a torn tail while the previous
/// generation stays recoverable.
#[derive(Debug)]
pub struct DurableJournal<const N: usize> {
    path: PathBuf,
    /// The record encoder over the append-mode file, adopted after the
    /// header is on disk.
    writer: JournalWriter<N, File>,
}

impl<const N: usize> DurableJournal<N> {
    /// Creates (or replaces) the journal at `path`, committing the header
    /// atomically, and opens it for appends.
    pub fn create(
        path: impl AsRef<Path>,
        params: &StreamParams<N>,
        delta: f64,
        order: ServingOrder,
    ) -> Result<Self, JournalError> {
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "augmentation δ must be a finite non-negative number, got {delta}"
        );
        let params = validated_params(params.d, params.max_move, params.start, "header")?;
        let path = path.as_ref().to_path_buf();
        let mut staged = AtomicFile::create(&path)?;
        staged.write_all(&encode_header(&params, delta, order))?;
        staged.commit()?;
        let sink = OpenOptions::new().append(true).open(&path)?;
        Ok(DurableJournal {
            path,
            writer: JournalWriter {
                sink,
                next_generation: 0,
                obs_last_step: None,
            },
        })
    }

    /// Appends one generation record and fsyncs it to disk. Returns the
    /// generation number just written.
    pub fn append(&mut self, checkpoint: &StreamCheckpoint<N>) -> Result<u64, JournalError> {
        self.writer.append_then(checkpoint, |file| {
            let fsync_span = obs::timer(obs::Hist::JournalFsyncNs);
            file.sync_data()?;
            fsync_span.stop();
            Ok(())
        })
    }

    /// [`DurableJournal::append`] of a live simulation's checkpoint, for an
    /// algorithm that [`resume_from_journal`] can resume.
    pub fn append_sim<A>(&mut self, sim: &StreamingSim<N, A>) -> Result<u64, JournalError>
    where
        A: OnlineAlgorithm<N> + Memoryless,
    {
        self.append(&sim.checkpoint())
    }

    /// Generations written through this handle.
    pub fn generations(&self) -> u64 {
        self.writer.generations()
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the journal at `path` and recovers the newest complete
    /// checkpoint (see [`recover_journal`]).
    pub fn recover(path: impl AsRef<Path>) -> Result<JournalRecovery<N>, JournalError> {
        let bytes = fs::read(path)?;
        recover_journal(&bytes)
    }

    /// Re-opens an existing journal for further appends after a crash:
    /// recovers the newest complete generation, **truncates any torn
    /// tail** so the next append extends a clean record boundary (a torn
    /// record left in place would make every later append unreachable to
    /// [`recover_journal`]'s forward scan), and returns the open handle
    /// positioned at generation `recovery.generation + 1` together with
    /// the recovery itself.
    pub fn reopen(path: impl AsRef<Path>) -> Result<(Self, JournalRecovery<N>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = fs::read(&path)?;
        let recovery = recover_journal::<N>(&bytes)?;
        if recovery.clean_len < bytes.len() {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(recovery.clean_len as u64)?;
            file.sync_data()?;
        }
        let sink = OpenOptions::new().append(true).open(&path)?;
        Ok((
            DurableJournal {
                path,
                writer: JournalWriter {
                    sink,
                    next_generation: recovery.generation + 1,
                    obs_last_step: Some(recovery.checkpoint.step as u64),
                },
            },
            recovery,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_core::model::Step;
    use msp_core::mtc::MoveToCenter;
    use msp_geometry::P2;

    fn params() -> StreamParams<2> {
        StreamParams::new(4.0, 1.0, P2::origin())
    }

    fn drift_step(t: usize) -> Step<2> {
        Step::new(vec![
            P2::xy(0.2 * t as f64 + 1.0, 0.5),
            P2::xy(0.2 * t as f64, -0.8),
        ])
    }

    fn journal_with_generations(count: usize) -> (Vec<u8>, Vec<StreamCheckpoint<2>>) {
        let p = params();
        let mut sim =
            StreamingSim::new(&p, MoveToCenter::<2>::new(), 0.25, ServingOrder::MoveFirst);
        let mut writer =
            JournalWriter::<2, _>::new(Vec::new(), &p, 0.25, ServingOrder::MoveFirst).unwrap();
        let mut checkpoints = Vec::new();
        for t in 0..count {
            sim.feed(&drift_step(t));
            checkpoints.push(sim.checkpoint());
            writer.append_sim(&sim).unwrap();
        }
        (writer.into_inner(), checkpoints)
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The plain shift-register CRC, one bit at a time: the parity
    /// oracle of the table-sliced [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_loop() {
        // Every length 0..=64 at every start offset 0..16 covers the
        // bytewise tail alone, whole 16-byte chunks, and every split of
        // a chunk and a tail, at every alignment.
        let buf = noise_bytes(64 + 16, 0x5EED);
        for start in 0..16 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {start}, length {len}"
                );
            }
        }
        for seed in [1u64, 2017, 0xDEAD_BEEF] {
            let bytes = noise_bytes(1 << 20, seed);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "1 MiB, seed {seed}");
        }
    }

    /// Pins the journal wire format byte for byte: the `MSPJ` header and
    /// two generation records of 48 + 8·N bytes each, CRCs included. The
    /// round-trip tests cannot see an encoder and a decoder that drift
    /// together; this literal can.
    #[test]
    fn journal_wire_bytes_are_pinned() {
        const WIRE: &str = concat!(
            // header: magic, version 2, dim 2, answer-first + 3 reserved
            "4d53504a0200020001000000",
            // δ 0.25, D 4, m 1.5, start (0.5, -0.25)
            "000000000000d03f0000000000001040000000000000f83f",
            "000000000000e03f000000000000d0bf",
            // generation 0: JRNL, generation, step 7, position (1.5, -2)
            "4a524e4c00000000000000000700000000000000",
            "000000000000f83f00000000000000c0",
            // movement 0.75, service 3.25, max step 0.5, CRC
            "000000000000e83f0000000000000a40000000000000e03f",
            "e14a4b56",
            // generation 1: step 9, position (2, -1), movement 1.25,
            // service 4.5, max step 0.5, CRC
            "4a524e4c01000000000000000900000000000000",
            "0000000000000040000000000000f0bf",
            "000000000000f43f0000000000001240000000000000e03f",
            "f4150a89",
        );
        let p = StreamParams::new(4.0, 1.5, P2::xy(0.5, -0.25));
        let checkpoint = |step, position, movement, service| StreamCheckpoint {
            step,
            position,
            movement,
            service,
            max_step_used: 0.5,
        };
        let checkpoints = [
            checkpoint(7, P2::xy(1.5, -2.0), 0.75, 3.25),
            checkpoint(9, P2::xy(2.0, -1.0), 1.25, 4.5),
        ];
        let mut writer =
            JournalWriter::<2, _>::new(Vec::new(), &p, 0.25, ServingOrder::AnswerFirst).unwrap();
        for cp in &checkpoints {
            writer.append(cp).unwrap();
        }
        let bytes = writer.into_inner();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, WIRE);
        assert_eq!(bytes.len(), (36 + 8 * 2) + 2 * (48 + 8 * 2));
        let rec = recover_journal::<2>(&bytes).unwrap();
        assert_eq!((rec.generation, rec.checkpoint), (1, checkpoints[1]));
        assert!(rec.torn_tail.is_none());
    }

    #[test]
    fn recovery_returns_the_newest_generation() {
        let (bytes, checkpoints) = journal_with_generations(5);
        let rec = recover_journal::<2>(&bytes).unwrap();
        assert_eq!(rec.generation, 4);
        assert_eq!(rec.checkpoint, checkpoints[4]);
        assert!(rec.torn_tail.is_none());
        assert_eq!(rec.delta, 0.25);
        assert_eq!(rec.order, ServingOrder::MoveFirst);
        assert_eq!(rec.params.d, 4.0);
    }

    #[test]
    fn torn_tail_recovers_previous_generation_loudly() {
        let (bytes, checkpoints) = journal_with_generations(3);
        // Chop 5 bytes off the last record: mid-record truncation.
        let torn = &bytes[..bytes.len() - 5];
        let rec = recover_journal::<2>(torn).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.checkpoint, checkpoints[1]);
        let report = rec.torn_tail.expect("torn tail must be reported");
        assert!(
            report.contains("truncated") || report.contains("CRC"),
            "{report}"
        );
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let (bytes, checkpoints) = journal_with_generations(2);
        let mut flipped = bytes.clone();
        // Flip one bit inside the *last* record's position (a record is
        // 64 bytes at N = 2, and its last 4 are the CRC).
        let len = flipped.len();
        flipped[len - 30] ^= 0x04;
        let rec = recover_journal::<2>(&flipped).unwrap();
        assert_eq!(rec.generation, 0, "flipped record must be rejected");
        assert_eq!(rec.checkpoint, checkpoints[0]);
        assert!(rec.torn_tail.expect("loud report").contains("CRC"));
    }

    #[test]
    fn journal_without_records_is_a_hard_error() {
        let p = params();
        let writer =
            JournalWriter::<2, _>::new(Vec::new(), &p, 0.1, ServingOrder::AnswerFirst).unwrap();
        let bytes = writer.into_inner();
        let err = recover_journal::<2>(&bytes).unwrap_err();
        assert!(err.to_string().contains("no checkpoint record"), "{err}");
    }

    #[test]
    fn header_corruption_is_a_hard_error() {
        let (bytes, _) = journal_with_generations(2);
        // Truncation inside the header.
        assert!(recover_journal::<2>(&bytes[..10]).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(recover_journal::<2>(&bad).is_err());
        // Wrong version, the previous format's 1 included.
        for version in [1, 99] {
            let mut bad = bytes.clone();
            bad[4] = version;
            let err = recover_journal::<2>(&bad).unwrap_err();
            assert!(
                err.to_string().contains("unsupported journal version"),
                "{err}"
            );
        }
        // Wrong dimension.
        let err = recover_journal::<3>(&bytes).unwrap_err();
        assert!(err.to_string().contains("dimension 2"), "{err}");
    }

    #[test]
    fn generation_sequence_is_enforced() {
        let (bytes, _) = journal_with_generations(2);
        // Patch the second record's generation from 1 to 7. Records are
        // fixed-size, so split evenly.
        let header_len = 36 + 16;
        let record_len = (bytes.len() - header_len) / 2;
        let mut bad = bytes.clone();
        let gen_off = header_len + record_len + 4;
        bad[gen_off..gen_off + 8].copy_from_slice(&7u64.to_le_bytes());
        let rec = recover_journal::<2>(&bad).unwrap();
        assert_eq!(rec.generation, 0);
        assert!(rec.torn_tail.expect("loud").contains("out of order"));
    }

    #[test]
    fn resume_from_journal_is_bit_equal() {
        let p = params();
        let total = 40usize;
        let crash_at = 17usize;

        // Uninterrupted reference run.
        let mut reference =
            StreamingSim::new(&p, MoveToCenter::<2>::new(), 0.25, ServingOrder::MoveFirst);
        for t in 0..total {
            reference.feed(&drift_step(t));
        }
        let want = reference.finish();

        // Journaled run, killed after `crash_at` steps.
        let mut writer =
            JournalWriter::<2, _>::new(Vec::new(), &p, 0.25, ServingOrder::MoveFirst).unwrap();
        let mut sim =
            StreamingSim::new(&p, MoveToCenter::<2>::new(), 0.25, ServingOrder::MoveFirst);
        for t in 0..crash_at {
            sim.feed(&drift_step(t));
            writer.append_sim(&sim).unwrap();
        }
        let bytes = writer.into_inner();
        drop(sim); // the "crash"

        let rec = recover_journal::<2>(&bytes).unwrap();
        assert_eq!(rec.checkpoint.step, crash_at);
        let mut resumed = resume_from_journal(&rec, MoveToCenter::<2>::new());
        for t in rec.checkpoint.step..total {
            resumed.feed(&drift_step(t));
        }
        let got = resumed.finish();
        assert_eq!(got.movement.to_bits(), want.movement.to_bits());
        assert_eq!(got.service.to_bits(), want.service.to_bits());
        assert_eq!(got.steps, want.steps);
        for i in 0..2 {
            assert_eq!(
                got.final_position[i].to_bits(),
                want.final_position[i].to_bits()
            );
        }
    }

    #[test]
    fn durable_journal_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("msp-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.mspj");

        let p = params();
        let mut sim =
            StreamingSim::new(&p, MoveToCenter::<2>::new(), 0.25, ServingOrder::MoveFirst);
        let mut journal =
            DurableJournal::<2>::create(&path, &p, 0.25, ServingOrder::MoveFirst).unwrap();
        for t in 0..6 {
            sim.feed(&drift_step(t));
            journal.append_sim(&sim).unwrap();
        }
        assert_eq!(journal.generations(), 6);
        let expect = sim.checkpoint();
        drop(journal);

        let rec = DurableJournal::<2>::recover(&path).unwrap();
        assert_eq!(rec.generation, 5);
        assert_eq!(rec.checkpoint, expect);
        assert!(!dir.join("session.mspj.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
