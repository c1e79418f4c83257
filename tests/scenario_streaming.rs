//! Integration tests for the streaming scenario engine: trace round-trip
//! properties, streaming/replay parity against the classic simulator on
//! every registry scenario, and the bounded-memory million-step run.

use mobile_server::core::cost::ServingOrder;
use mobile_server::core::model::{Instance, Step};
use mobile_server::core::simulator::{run, run_streaming};
use mobile_server::prelude::*;
use mobile_server::scenarios::{
    diff_streams, read_trace, record_to_vec, BlockTraceReader, InstanceStream, StreamSteps,
    TraceFormat,
};
use proptest::prelude::*;
use std::io::Cursor;

/// Both wire formats; v3 at 3 steps per block, so arbitrary horizons end
/// in a short last block.
fn trace_formats() -> [TraceFormat; 2] {
    [TraceFormat::TextV1, TraceFormat::BlockV3 { block: 3 }]
}

fn arb_instance2() -> impl Strategy<Value = Instance<2>> {
    (
        1.0f64..8.0,
        0.1f64..2.0,
        (-5.0f64..5.0, -5.0f64..5.0),
        prop::collection::vec(
            prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 0..5),
            0..30,
        ),
    )
        .prop_map(|(d, m, (sx, sy), steps)| {
            let steps = steps
                .into_iter()
                .map(|reqs| Step::new(reqs.into_iter().map(|(x, y)| P2::xy(x, y)).collect()))
                .collect();
            Instance::new(d, m, P2::xy(sx, sy), steps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every trace format round-trips arbitrary instances bit-exactly,
    /// silent steps included.
    #[test]
    fn trace_round_trip_is_bit_exact(inst in arb_instance2()) {
        for format in trace_formats() {
            let bytes = record_to_vec(&mut InstanceStream::new(inst.clone()), format).unwrap();
            let back: Instance<2> = read_trace(&bytes).unwrap();
            prop_assert_eq!(back.d.to_bits(), inst.d.to_bits());
            prop_assert_eq!(back.max_move.to_bits(), inst.max_move.to_bits());
            prop_assert_eq!(back.horizon(), inst.horizon());
            for (a, b) in back.steps.iter().zip(&inst.steps) {
                prop_assert_eq!(a.requests.len(), b.requests.len());
                for (va, vb) in a.requests.iter().zip(&b.requests) {
                    prop_assert_eq!(va[0].to_bits(), vb[0].to_bits());
                    prop_assert_eq!(va[1].to_bits(), vb[1].to_bits());
                }
            }
        }
    }

    /// A replayed trace diffs clean against its source stream, and a
    /// single flipped coordinate is caught at the exact step.
    #[test]
    fn trace_diff_catches_single_bit_changes(
        inst in arb_instance2(),
        tweak_step in 0usize..30,
    ) {
        let bytes = record_to_vec(
            &mut InstanceStream::new(inst.clone()),
            TraceFormat::BlockV3 { block: 3 },
        )
        .unwrap();
        let mut source = InstanceStream::new(inst.clone());
        let mut replay = BlockTraceReader::<2>::open(&bytes).unwrap();
        prop_assert_eq!(diff_streams(&mut source, &mut replay), None);

        let step_with_request = inst
            .steps
            .iter()
            .enumerate()
            .cycle()
            .skip(tweak_step)
            .take(inst.horizon())
            .find(|(_, s)| !s.is_empty())
            .map(|(i, _)| i);
        if let Some(i) = step_with_request {
            let mut tweaked = inst.clone();
            let old = tweaked.steps[i].requests[0][0];
            tweaked.steps[i].requests[0][0] = f64::from_bits(old.to_bits() ^ 1);
            let mut broken = InstanceStream::new(tweaked);
            match diff_streams(&mut source, &mut broken) {
                Some(mobile_server::scenarios::StreamDiff::Step { index, .. }) => {
                    prop_assert_eq!(index, i);
                }
                other => prop_assert!(false, "expected step diff, got {:?}", other),
            }
        }
    }
}

/// High-dimensional points survive both codecs.
#[test]
fn high_dimensional_traces_round_trip() {
    let steps: Vec<Step<5>> = (0..40)
        .map(|t| {
            let mut p = mobile_server::geometry::Point::<5>::origin();
            for i in 0..5 {
                p[i] = (t * 7 + i) as f64 * 0.37 - 20.0;
            }
            if t % 5 == 0 {
                Step::new(vec![])
            } else {
                Step::new(vec![p, p * 0.5])
            }
        })
        .collect();
    let inst = Instance::new(
        3.0,
        0.7,
        mobile_server::geometry::Point::<5>::origin(),
        steps,
    );
    for format in trace_formats() {
        let bytes = record_to_vec(&mut InstanceStream::new(inst.clone()), format).unwrap();
        let back: Instance<5> = read_trace(&bytes).unwrap();
        assert_eq!(back.horizon(), inst.horizon());
        for (a, b) in back.steps.iter().zip(&inst.steps) {
            assert_eq!(a.requests, b.requests, "{format:?}");
        }
    }
}

/// Non-finite coordinates cannot be written into a trace.
#[test]
fn non_finite_steps_are_rejected_at_the_writer() {
    use mobile_server::core::model::StreamParams;
    use mobile_server::scenarios::TraceWriter;
    let params = StreamParams::<2>::new(2.0, 1.0, P2::origin());
    let poisoned = Step::new(vec![P2::xy(f64::INFINITY, 0.0)]);
    for format in trace_formats() {
        let mut w = TraceWriter::<2, _>::new(Cursor::new(Vec::new()), format, &params).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.write_step(&poisoned);
        }));
        assert!(
            panicked.is_err(),
            "{format:?} writer accepted a non-finite request"
        );
    }
}

/// For every registry scenario: `run_streaming` over a recorded trace
/// reproduces `simulator::run` on the materialized instance exactly —
/// generator → trace → replay → streaming simulation is a lossless
/// pipeline.
#[test]
fn streaming_replay_parity_on_every_registry_scenario() {
    fn check<const N: usize>(spec: &ScenarioSpec) {
        let knobs = ScenarioKnobs::horizon(96);
        let mut stream = spec.stream_with::<N>(13, &knobs).unwrap();
        let instance = collect_instance(stream.as_mut());
        let delta = spec.default_delta;

        // Classic path: materialized instance, full position trace.
        let mut alg = MoveToCenter::new();
        let classic = run(&instance, &mut alg, delta, ServingOrder::MoveFirst);

        // Streaming path: record → replay through the block v3 codec → run.
        let bytes = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: 64 }).unwrap();
        let mut replay = BlockTraceReader::<N>::open(&bytes).unwrap();
        let streamed = run_streaming(
            &replay.params(),
            StreamSteps::new(&mut replay),
            MoveToCenter::new(),
            delta,
            ServingOrder::MoveFirst,
        );

        assert_eq!(streamed.steps, instance.horizon(), "{}", spec.name);
        assert_eq!(
            streamed.movement.to_bits(),
            classic.cost.movement.to_bits(),
            "{}: movement diverged",
            spec.name
        );
        assert_eq!(
            streamed.service.to_bits(),
            classic.cost.service.to_bits(),
            "{}: service diverged",
            spec.name
        );
        assert_eq!(
            &streamed.final_position,
            classic.positions.last().unwrap(),
            "{}: final position diverged",
            spec.name
        );
    }

    for spec in registry() {
        match spec.dim {
            1 => check::<1>(&spec),
            2 => check::<2>(&spec),
            other => panic!("unexpected scenario dimension {other}"),
        }
    }
}

/// A million-step streaming run completes with memory independent of the
/// horizon: the only live state is the O(1) generator internals and the
/// constant-size streaming simulator (no per-step allocation survives a
/// step).
#[test]
fn million_step_streaming_run_is_bounded_memory() {
    let spec = lookup("walk-line").expect("walk-line is registered");
    let mut stream = spec
        .stream_with::<1>(5, &ScenarioKnobs::horizon(1_000_000))
        .unwrap();
    let res = run_stream(
        stream.as_mut(),
        MoveToCenter::new(),
        0.2,
        ServingOrder::MoveFirst,
    );
    assert_eq!(res.steps, 1_000_000);
    assert!(res.total_cost().is_finite());
    assert!(res.total_cost() > 0.0);
    // The result type itself is the memory bound: totals only, no
    // per-step vectors.
    assert!(std::mem::size_of_val(&res) < 256);
}
