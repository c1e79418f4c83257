//! Round-trip property tests for the plain-text instance format (trace
//! text v1): any instance the model accepts must survive write → read
//! exactly, the re-read instance must simulate identically, and the
//! written form is canonical.

use mobile_server::core::simulator::run;
use mobile_server::prelude::*;
use mobile_server::scenarios::{read_trace, record_to_vec, InstanceStream, TraceFormat};
use proptest::prelude::*;

fn write_text(inst: &Instance<2>) -> String {
    let bytes = record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::TextV1);
    String::from_utf8(bytes.unwrap()).unwrap()
}

fn read_text(text: &str) -> Instance<2> {
    read_trace(text.as_bytes()).unwrap()
}

fn arb_instance() -> impl Strategy<Value = Instance<2>> {
    (
        1.0f64..8.0,
        0.1f64..2.0,
        (-5.0f64..5.0, -5.0f64..5.0),
        prop::collection::vec(
            prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..4),
            0..25,
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_then_parse_is_identity(inst in arb_instance()) {
        let back = read_text(&write_text(&inst));
        prop_assert_eq!(back.d, inst.d);
        prop_assert_eq!(back.max_move, inst.max_move);
        prop_assert_eq!(back.start, inst.start);
        prop_assert_eq!(back.horizon(), inst.horizon());
        for (a, b) in back.steps.iter().zip(&inst.steps) {
            prop_assert_eq!(&a.requests, &b.requests);
        }
    }

    #[test]
    fn parsed_instance_simulates_identically(inst in arb_instance()) {
        let back = read_text(&write_text(&inst));
        let mut a1 = MoveToCenter::new();
        let mut a2 = MoveToCenter::new();
        let r1 = run(&inst, &mut a1, 0.25, ServingOrder::MoveFirst);
        let r2 = run(&back, &mut a2, 0.25, ServingOrder::MoveFirst);
        prop_assert_eq!(r1.total_cost(), r2.total_cost());
        prop_assert_eq!(r1.positions, r2.positions);
    }

    #[test]
    fn double_round_trip_is_stable(inst in arb_instance()) {
        // write(read(write(x))) == write(x): the format is canonical.
        let once = write_text(&inst);
        let twice = write_text(&read_text(&once));
        prop_assert_eq!(once, twice);
    }
}

#[test]
fn format_is_human_editable() {
    // Hand-written file with mixed whitespace and comments.
    let text = r"
        # scenario: two shops, one courier
        dim 2
        d 2          # page weight
        m 0.5
        start 0 0
        step 1 0 ; -1 0
        step          # quiet day
        step 0.5 0.5
    ";
    let inst = read_text(text);
    assert_eq!(inst.horizon(), 3);
    assert_eq!(inst.steps[0].len(), 2);
    assert!(inst.steps[1].is_empty());
    assert_eq!(inst.steps[2].requests[0], P2::xy(0.5, 0.5));
}
