//! Text v1 as a hand-editable instance file: one table of reader cases
//! (the layouts people write and every way a file is rejected), run
//! whole and, row by row, under one named test per rule of the format so
//! a failure names the rule it broke. The codec is [`crate::trace`].

use crate::stream::InstanceStream;
use crate::trace::{read_trace, record_to_vec, TraceError, TraceFormat};
use msp_core::model::{Instance, Step};
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
        ],
    )
}

fn text_v1(inst: &Instance<2>) -> String {
    let bytes = record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::TextV1);
    String::from_utf8(bytes.unwrap()).unwrap()
}

/// The reader table, one row per input file: `Ok(canonical)` rows must
/// parse and re-encode to exactly `canonical`; `Err(fragment)` rows must
/// fail with a `Corrupt` error whose rendering contains `fragment`.
fn cases(canonical: &str) -> Vec<(&'static str, &str, Result<&str, &'static str>)> {
    vec![
        ("canonical write → read → write", canonical, Ok(canonical)),
        (
            "comments and blank lines",
            "\n# hello\n dim 2 \nd 2\nm 1\nstart 0 0\nstep 3 4 # trailing\n\nstep\n",
            Ok("# mobile-server instance v1\ndim 2\nd 2\nm 1\nstart 0 0\nstep 3 4\nstep\n"),
        ),
        (
            "hand-written file",
            "
            # scenario: two shops, one courier
            dim 2
            d 2          # page weight
            m 0.5
            start 0 0
            step 1 0 ; -1 0
            step          # quiet day
            step 0.5 0.5
            ",
            Ok(
                "# mobile-server instance v1\ndim 2\nd 2\nm 0.5\nstart 0 0\n\
                step 1 0 ; -1 0\nstep\nstep 0.5 0.5\n",
            ),
        ),
        (
            "dimension mismatch",
            "dim 3\nd 1\nm 1\nstart 0 0 0\n",
            Err("at line 1: trace has dimension 3"),
        ),
        (
            "wrong coordinate count",
            "dim 2\nd 1\nm 1\nstart 0 0\nstep 1 2 ; 3\n",
            Err("at line 5: expected 2 coordinates, found 1"),
        ),
        (
            "bad number",
            "dim 2\nd 1\nm 1\nstart zero 0\n",
            Err("at line 4: bad number \"zero\""),
        ),
        (
            "unknown directive",
            "dim 2\nd 1\nm 1\nstart 0 0\nfrobnicate 3\n",
            Err("at line 5: unknown directive \"frobnicate\""),
        ),
        (
            "header directive after a step",
            "dim 2\nd 1\nm 1\nstart 0 0\nstep 1 1\nd 3\n",
            Err("at line 6: unknown directive \"d\""),
        ),
        (
            "missing m",
            "dim 2\nd 1\nstart 0 0\n",
            Err("before the header was complete"),
        ),
        (
            "missing dim",
            "d 1\nm 1\nstart 0 0\n",
            Err("before the header was complete"),
        ),
        (
            "D < 1",
            "dim 2\nd 0.5\nm 1\nstart 0 0\n",
            Err("D must be ≥ 1"),
        ),
        (
            "m ≤ 0",
            "dim 2\nd 1\nm 0\nstart 0 0\n",
            Err("m must be positive"),
        ),
        (
            "infinite coordinate",
            "dim 2\nd 1\nm 1\nstart 0 0\nstep inf 0\n",
            Err("at line 5: non-finite coordinate"),
        ),
        (
            "NaN coordinate",
            "dim 2\nd 1\nm 1\nstart 0 0\nstep 1 2 ; 3 NaN\n",
            Err("at line 5: non-finite coordinate"),
        ),
        (
            "infinite start",
            "dim 2\nd 1\nm 1\nstart -inf 0\n",
            Err("at line 4: non-finite coordinate"),
        ),
    ]
}

/// Runs the rows named in `labels`, or every row when `labels` is empty.
fn check(labels: &[&str]) {
    let canonical = text_v1(&sample_instance());
    let rows = cases(&canonical);
    for label in labels {
        assert!(
            rows.iter().any(|(name, ..)| name == label),
            "no row {label:?}"
        );
    }
    let chosen = rows
        .iter()
        .filter(|(name, ..)| labels.is_empty() || labels.contains(name));
    for (name, text, expected) in chosen {
        match (read_trace::<2>(text.as_bytes()), expected) {
            (Ok(inst), Ok(want)) => assert_eq!(text_v1(&inst), *want, "{name}"),
            (Err(err @ TraceError::Corrupt { .. }), Err(fragment)) => {
                assert!(format!("{err}").contains(fragment), "{name}: {err}");
            }
            (got, _) => panic!("{name}: expected {expected:?}, got {got:?}"),
        }
    }
}

mod tests {
    use super::*;

    #[test]
    fn text_v1_reader_cases() {
        check(&[]);
    }

    #[test]
    fn round_trip_is_exact() {
        check(&["canonical write → read → write"]);
        let inst = sample_instance();
        let back: Instance<2> = read_trace(text_v1(&inst).as_bytes()).unwrap();
        assert_eq!(back.d, inst.d);
        assert_eq!(back.max_move, inst.max_move);
        assert_eq!(back.start, inst.start);
        assert_eq!(back.horizon(), inst.horizon());
        for (a, b) in back.steps.iter().zip(&inst.steps) {
            assert_eq!(a.requests, b.requests);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        check(&["comments and blank lines", "hand-written file"]);
    }

    #[test]
    fn dimension_mismatch_reports_line() {
        check(&["dimension mismatch"]);
    }

    #[test]
    fn wrong_coordinate_count_reports_line() {
        check(&["wrong coordinate count"]);
    }

    #[test]
    fn bad_number_reports_line() {
        check(&["bad number"]);
    }

    #[test]
    fn missing_headers_rejected() {
        check(&["missing m", "missing dim"]);
    }

    #[test]
    fn unknown_directive_rejected() {
        check(&["unknown directive", "header directive after a step"]);
    }

    #[test]
    fn invalid_model_parameters_rejected() {
        check(&["D < 1", "m ≤ 0"]);
    }

    #[test]
    fn display_of_error_mentions_line() {
        let err = read_trace::<2>(b"dim 2\nd 1\nm 1\nstart 0 0\nfrobnicate 3\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "corrupt trace at line 5: unknown directive \"frobnicate\""
        );
    }
}
