//! Trace-corpus contracts for the block v3 format, end to end:
//!
//! * **v1→v3→v1 byte-equality** — for every registry scenario × seed,
//!   the v3 block codec round-trips the exact stream the text v1 codec
//!   records: decoding the v3 bytes and re-encoding them as text v1
//!   yields the original v1 bytes, byte for byte (proptest-pinned).
//! * **Seek ≡ scan** — `seek_to_step(k)` followed by a drain is
//!   bit-equal to replay-from-start for arbitrary `k`, including block
//!   boundaries and `k == horizon`.
//! * **Corruption matrix** — a v3 file truncated at every byte offset,
//!   or bit-flipped at every byte of the index trailer and of one data
//!   block, is either rejected loudly (`Corrupt`) or decodes to the
//!   bit-exact original; salvage always returns a bit-equal prefix of
//!   the true step sequence. Never a silently wrong replay.
//! * **Block-parallel diff ≡ sequential diff** — `diff_block_traces`
//!   returns exactly what the sequential `diff_streams` returns for
//!   every thread count (1, 2, the full budget), the `executor_semantics`
//!   pinning pattern applied to the corpus tier.
//! * **Mid-frame EOF classification** — a dedicated regression per
//!   format for `TraceReader::read_valid_prefix` and the v3 salvage
//!   path: a frame cut mid-read is reported as `Corrupt`, never as a
//!   bare I/O error or a short clean trace.
//!
//! The CI job `tests-2t` re-runs this suite with `MSP_THREADS=2`, so the
//! parallel paths see real worker contention.

use mobile_server::core::model::{Instance, Step};
use mobile_server::prelude::*;
use mobile_server::scenarios::corpus::diff_block_traces;
use mobile_server::scenarios::registry::{registry, ScenarioKnobs, ScenarioSpec};
use mobile_server::scenarios::trace::{
    diff_streams, read_trace, record_to_vec, salvage_trace, BlockTraceReader, StreamDiff,
    TraceError, TraceFormat, TraceReader,
};
use mobile_server::scenarios::InstanceStream;
use proptest::prelude::*;
use std::io::Cursor;

fn bits2(p: &P2) -> [u64; 2] {
    [p[0].to_bits(), p[1].to_bits()]
}

/// Steps of two instances are bit-identical.
fn assert_steps_bit_equal<const N: usize>(a: &Instance<N>, b: &Instance<N>) {
    assert_eq!(a.horizon(), b.horizon());
    for (sa, sb) in a.steps.iter().zip(&b.steps) {
        assert_eq!(sa.requests.len(), sb.requests.len());
        for (va, vb) in sa.requests.iter().zip(&sb.requests) {
            for i in 0..N {
                assert_eq!(va[i].to_bits(), vb[i].to_bits());
            }
        }
    }
}

/// Records one registry scenario as text v1 and block v3, decodes the
/// v3 bytes, re-encodes the decoded instance as text v1, and demands the
/// two v1 recordings be byte-identical — v3 cannot lose or perturb a
/// single bit anywhere in the registry.
fn v1_v3_v1_round_trip<const N: usize>(spec: &ScenarioSpec, seed: u64, horizon: usize) {
    let knobs = ScenarioKnobs::horizon(horizon);
    let mut stream = spec.stream_with::<N>(seed, &knobs).unwrap();
    let v1 = record_to_vec(stream.as_mut(), TraceFormat::TextV1).unwrap();
    let v3 = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: 3 }).unwrap();
    let from_v1: Instance<N> = read_trace(&v1).unwrap();
    let from_v3: Instance<N> = read_trace(&v3).unwrap();
    assert_steps_bit_equal(&from_v1, &from_v3);
    let re_encoded = record_to_vec(&mut InstanceStream::new(from_v3), TraceFormat::TextV1).unwrap();
    assert_eq!(v1, re_encoded, "{}: v1→v3→v1 changed bytes", spec.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// v1→v3→v1 byte-equality across every registry scenario × seeds.
    #[test]
    fn v3_round_trips_every_registry_scenario(
        which in 0usize..15,
        seed in 0u64..200,
        horizon in 4usize..28,
    ) {
        let specs = registry();
        let spec = &specs[which % specs.len()];
        match spec.dim {
            1 => v1_v3_v1_round_trip::<1>(spec, seed, horizon),
            2 => v1_v3_v1_round_trip::<2>(spec, seed, horizon),
            other => panic!("{}: unexpected dimension {other}", spec.name),
        }
    }

    /// `seek_to_step(k)` then drain is bit-equal to replay-from-start,
    /// for arbitrary k (block boundaries and k == horizon included) and
    /// arbitrary block sizes.
    #[test]
    fn seek_resume_is_bit_equal_to_full_replay(
        seed in 0u64..200,
        horizon in 1usize..40,
        block in 1usize..9,
        k_frac in 0.0f64..1.25,
    ) {
        let spec = mobile_server::scenarios::registry::must_lookup("edge-drift");
        let mut stream = spec
            .stream_with::<2>(seed, &ScenarioKnobs::horizon(horizon))
            .unwrap();
        let bytes = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block }).unwrap();
        let mut reader = BlockTraceReader::<2>::open(&bytes).unwrap();
        let total = reader.total_steps();
        prop_assert_eq!(total, horizon);

        let mut full: Vec<Vec<[u64; 2]>> = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            full.push(frame.iter().map(bits2).collect());
        }
        prop_assert_eq!(full.len(), total);

        // k ranges over the whole horizon inclusive; k_frac >= 1 clamps
        // to exactly k == total (seek-to-end, empty tail).
        let k = (((total as f64) * k_frac).round() as usize).min(total);
        reader.seek_to_step(k).unwrap();
        let mut tail: Vec<Vec<[u64; 2]>> = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            tail.push(frame.iter().map(bits2).collect());
        }
        prop_assert_eq!(&tail, &full[k..].to_vec());

        // And seeking exactly onto a block boundary behaves the same.
        let boundary = (k / block) * block;
        reader.seek_to_step(boundary).unwrap();
        let mut tail_b: Vec<Vec<[u64; 2]>> = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            tail_b.push(frame.iter().map(bits2).collect());
        }
        prop_assert_eq!(&tail_b, &full[boundary..].to_vec());
    }

    /// Block-parallel diff returns exactly the sequential diff for every
    /// thread count — identical traces, a tweaked coordinate, and a
    /// truncated second stream.
    #[test]
    fn block_parallel_diff_equals_sequential_diff(
        seed in 0u64..200,
        horizon in 1usize..30,
        block_a in 1usize..7,
        block_b in 1usize..7,
        tweak_frac in 0.0f64..1.0,
        mode in 0usize..3,
    ) {
        let spec = mobile_server::scenarios::registry::must_lookup("walk-plane");
        let mut stream = spec
            .stream_with::<2>(seed, &ScenarioKnobs::horizon(horizon))
            .unwrap();
        let bytes_a = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: block_a }).unwrap();
        let inst: Instance<2> = read_trace(&bytes_a).unwrap();

        let other = match mode {
            0 => inst.clone(),
            1 => {
                let mut tweaked = inst.clone();
                let at = ((horizon - 1) as f64 * tweak_frac) as usize;
                if tweaked.steps[at].requests.is_empty() {
                    tweaked.steps[at].requests.push(P2::xy(1.0, 1.0));
                } else {
                    tweaked.steps[at].requests[0][0] += 0.5;
                }
                tweaked
            }
            _ => inst.prefix(((horizon as f64) * tweak_frac) as usize),
        };
        let bytes_b = record_to_vec(
            &mut InstanceStream::new(other.clone()),
            TraceFormat::BlockV3 { block: block_b },
        )
        .unwrap();

        let sequential = diff_streams(
            &mut InstanceStream::new(inst),
            &mut InstanceStream::new(other),
        );
        for threads in [1usize, 2, 0] {
            let parallel = diff_block_traces::<2>(&bytes_a, &bytes_b, threads).unwrap();
            prop_assert_eq!(&parallel, &sequential, "threads={}", threads);
        }
    }
}

/// A deterministic multi-block v3 fixture with its decoded truth.
fn corruption_fixture() -> (Vec<u8>, Instance<2>) {
    let spec = mobile_server::scenarios::registry::must_lookup("edge-drift");
    let mut stream = spec
        .stream_with::<2>(11, &ScenarioKnobs::horizon(18))
        .unwrap();
    let bytes = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: 4 }).unwrap();
    let inst: Instance<2> = read_trace(&bytes).unwrap();
    (bytes, inst)
}

/// The salvaged steps must be a bit-equal prefix of the truth — damage
/// may shorten the replay, never alter it.
fn assert_prefix_of(salvaged: &[Step<2>], truth: &Instance<2>) {
    assert!(salvaged.len() <= truth.horizon());
    for (a, b) in salvaged.iter().zip(&truth.steps) {
        assert_eq!(a.requests.len(), b.requests.len());
        for (va, vb) in a.requests.iter().zip(&b.requests) {
            assert_eq!(bits2(va), bits2(vb));
        }
    }
}

/// Truncation matrix: a v3 file lopped at every byte offset is loud or
/// (at full length) exact — and salvage always yields a valid prefix.
#[test]
fn v3_truncation_at_every_byte_is_loud_or_exact() {
    let (bytes, truth) = corruption_fixture();
    for len in 0..=bytes.len() {
        let cut = &bytes[..len];
        match read_trace::<2>(cut) {
            Ok(decoded) => {
                assert_eq!(len, bytes.len(), "truncation at {len} read back clean");
                assert_steps_bit_equal(&decoded, &truth);
            }
            Err(_) => assert!(len < bytes.len()),
        }
        // Salvage: header damage is a hard error; with a valid header the
        // recovered steps must be a bit-equal prefix, and only the intact
        // file may report clean.
        if let Ok(salvaged) = salvage_trace::<2>(cut) {
            assert_prefix_of(&salvaged.steps, &truth);
            if salvaged.is_clean() {
                assert_eq!(len, bytes.len(), "truncation at {len} salvaged clean");
                assert_eq!(salvaged.steps.len(), truth.horizon());
            }
        } else {
            assert!(len < bytes.len());
        }
    }
}

/// Bit-flip matrix over the index trailer and one data block: every
/// single-byte flip is rejected loudly or decodes bit-exactly (a flip in
/// ignored padding does not exist in this format — every byte is load
/// bearing), and salvage still returns a bit-equal prefix.
#[test]
fn v3_bit_flips_in_trailer_and_block_are_loud_or_exact() {
    let (bytes, truth) = corruption_fixture();
    let reader = BlockTraceReader::<2>::open(&bytes).unwrap();
    let blocks = reader.blocks();
    assert!(blocks >= 2, "fixture must span multiple blocks");
    drop(reader);

    // The trailer spans from after the last block to EOF; rather than
    // re-deriving offsets, flip every byte of the final 24 + 8·blocks + 4
    // trailer bytes plus the whole second block (bytes 100..240 cover it
    // comfortably for this fixture; clamp to the file).
    let trailer_len = 24 + 8 * blocks + 4;
    let trailer_range = bytes.len() - trailer_len..bytes.len();
    let block_range = 100..240.min(bytes.len() - trailer_len);

    for at in trailer_range.chain(block_range) {
        for bit in [0x01u8, 0x80u8] {
            let mut flipped = bytes.clone();
            flipped[at] ^= bit;
            if let Ok(decoded) = read_trace::<2>(&flipped) {
                assert_steps_bit_equal(&decoded, &truth);
            }
            if let Ok(salvaged) = salvage_trace::<2>(&flipped) {
                assert_prefix_of(&salvaged.steps, &truth);
                if salvaged.is_clean() {
                    assert_eq!(salvaged.steps.len(), truth.horizon());
                }
            }
        }
    }
}

/// Mid-frame EOF must classify as `Corrupt` — one regression per format,
/// pinning `TraceReader::read_valid_prefix` and the v3 salvage path
/// directly rather than through the salvage round-trip tests.
#[test]
fn mid_frame_eof_classifies_as_corrupt_per_format() {
    let inst = Instance::new(
        3.0,
        1.0,
        P2::xy(0.0, 0.0),
        vec![
            Step::new(vec![P2::xy(1.25, -2.5)]),
            Step::new(vec![P2::xy(0.5, 4.0), P2::xy(-1.0, 0.125)]),
            Step::new(vec![P2::xy(2.0, 2.0)]),
        ],
    );

    // Text v1: cut between the two coordinates of the last point — the
    // truncated line still parses as a `step` directive but with a
    // 1-field point, which must be corruption, not a short clean trace.
    let v1 = record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::TextV1).unwrap();
    let text = String::from_utf8(v1).unwrap();
    let cut = text.rfind(' ').unwrap();
    let mut reader = TraceReader::<2, _>::open(Cursor::new(&text.as_bytes()[..cut])).unwrap();
    let salvaged = reader.read_valid_prefix();
    assert!(
        matches!(salvaged.error, Some(TraceError::Corrupt { .. })),
        "v1: {:?}",
        salvaged.error
    );

    // Block v3: cut inside the last block — salvage keeps the whole
    // blocks before it and reports Corrupt, never Io.
    let v3 = record_to_vec(
        &mut InstanceStream::new(inst.clone()),
        TraceFormat::BlockV3 { block: 2 },
    )
    .unwrap();
    let torn = &v3[..v3.len() - 40];
    let salvaged = salvage_trace::<2>(torn).unwrap();
    assert!(
        matches!(salvaged.error, Some(TraceError::Corrupt { .. })),
        "v3: {:?}",
        salvaged.error
    );
    assert_prefix_of(&salvaged.steps, &inst);
}

/// The ended-early diffs agree across the sequential and block-parallel
/// paths on the exact boundary step (a unit pin complementing the
/// proptest above).
#[test]
fn diff_reports_ended_early_at_the_boundary() {
    let spec = mobile_server::scenarios::registry::must_lookup("car-fleet");
    let mut stream = spec
        .stream_with::<2>(3, &ScenarioKnobs::horizon(11))
        .unwrap();
    let full = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: 4 }).unwrap();
    let inst: Instance<2> = read_trace(&full).unwrap();
    let short = record_to_vec(
        &mut InstanceStream::new(inst.prefix(7)),
        TraceFormat::BlockV3 { block: 4 },
    )
    .unwrap();
    for threads in [1usize, 2, 0] {
        match diff_block_traces::<2>(&full, &short, threads).unwrap() {
            Some(StreamDiff::Step { index: 7, detail }) => {
                assert!(detail.contains("second stream ended early"), "{detail}");
            }
            other => panic!("expected early-end at 7, got {other:?}"),
        }
    }
}
