//! End-to-end and per-layer benchmark of the Mobile Server Problem
//! workspace. See `README.md` in this directory for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! msp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! `msp-perfbench --calibrate` prints how long the noise diagnostics'
//! compute and memory loops take; a run starts it as a child process.

mod harness;
mod metrics;
mod noise;
mod stats;
mod trace;
mod workloads;

use harness::{Config, RunRecord, WORKLOADS};
use metrics::Metric;
use msp_analysis::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Size;

/// Where runs keep their journals, corpora and span dumps.
fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<(String, u64, f64, bool), String> {
    let mut args = args;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => Ok((w, s, secs, t)),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>".into()),
    }
}

fn result_json(record: &RunRecord, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            let obj = Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]);
            (name.to_string(), obj)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(record.errors.is_empty())),
        ("attempted", Json::Num(record.attempted as f64)),
        ("failed", Json::Num(record.errors.len() as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The traced table: per layer, its spans, busy time inside ops (spans
/// directly under an op), and busy share of op time.
fn print_layer_table(record: &RunRecord) {
    let table = metrics::layer_table(record);
    let ms = |ns: u64| ns as f64 / 1e6;
    let share = |ns: u64| ns as f64 / table.op_ns.max(1) as f64;
    println!(
        "# {:<10} {:>8} {:>12} {:>7}",
        "layer", "spans", "busy_ms", "share"
    );
    for row in &table.rows {
        println!(
            "# {:<10} {:>8} {:>12.3} {:>7.4}",
            row.layer,
            row.spans,
            ms(row.busy_ns),
            share(row.busy_ns)
        );
    }
    let residue = share(table.residue_ns);
    println!(
        "# {:<10} {:>8} {:>12.3} {:>7.4}{}",
        "(residue)",
        "",
        ms(table.residue_ns),
        residue,
        if residue > 0.1 {
            "  above 10%: op time outside every layer span"
        } else {
            ""
        }
    );
    println!("# {:<10} {:>8} {:>12.3}", "op", "", ms(table.op_ns));
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--calibrate"]) {
        println!("{}", noise::calibration_line());
        return ExitCode::SUCCESS;
    }
    let (workload, seed, seconds, trace) = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("msp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One caller, one worker: pin the sweep pool before anything uses it.
    std::env::set_var("MSP_THREADS", "1");
    if msp_analysis::sweep::pool_threads() != 1 {
        eprintln!("msp-perfbench: the sweep pool did not take MSP_THREADS=1");
        return ExitCode::FAILURE;
    }

    let dir = work_root().join(format!("{workload}-{}", std::process::id()));
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        dir: dir.clone(),
    };
    let noise = noise::NoiseProbe::start();
    let outcome = harness::run(&cfg);
    let _ = std::fs::remove_dir_all(&dir);
    let record = match outcome {
        Ok(record) => record,
        Err(e) => {
            eprintln!("msp-perfbench: {} could not run: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    for e in record.errors.iter().take(5) {
        eprintln!("msp-perfbench: failed: {e}");
    }

    let metrics = if trace {
        let spans = work_root().join(format!("spans-{}-seed{seed}.tsv", cfg.workload));
        let written =
            std::fs::create_dir_all(work_root()).and_then(|()| record.tracer.write_tsv(&spans));
        match written {
            Ok(()) => eprintln!("msp-perfbench: spans written to {}", spans.display()),
            Err(e) => eprintln!("msp-perfbench: could not write spans: {e}"),
        }
        print_layer_table(&record);
        metrics::per_layer(&record)
    } else {
        metrics::end_to_end(&record)
    };
    let passes = record.passes.len();
    println!(
        "# run {{\"workload\": \"{}\", \"seed\": {seed}, \"passes\": {passes}, \"ops\": {}, \
         \"ops_per_pass\": {}, \"tail_percentile\": {}, \"first_setup_s\": {}}}",
        cfg.workload,
        record.ops.len(),
        record.ops_per_pass,
        metrics::tail_pct(&record),
        record.setup_secs[0],
    );
    println!("# noise {}", noise.finish());
    if let Some((name, _, _)) = metrics.iter().find(|m| !m.2.is_finite()) {
        eprintln!("msp-perfbench: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&record, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> (RunRecord, Vec<Metric>) {
        let dir = work_root().join(format!("test-{workload}-{trace}-{}", std::process::id()));
        let cfg = Config {
            workload: workload.into(),
            seed: 3,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
            dir: dir.clone(),
        };
        let record = harness::run(&cfg).expect("tiny run");
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = if trace {
            metrics::per_layer(&record)
        } else {
            metrics::end_to_end(&record)
        };
        (record, metrics)
    }

    #[test]
    fn every_workload_reports_every_metric_with_no_failed_ops() {
        for workload in WORKLOADS {
            let (record, e2e) = tiny(workload, false);
            assert!(record.errors.is_empty(), "{workload}: {:?}", record.errors);
            assert!(record.attempted > 0);
            assert_eq!(e2e.len(), metrics::END_TO_END.len());
            for (name, _, value) in &e2e {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{workload} {name} = {value}"
                );
            }

            let (record, layers) = tiny(workload, true);
            assert!(record.errors.is_empty(), "{workload}: {:?}", record.errors);
            assert_eq!(layers.len(), metrics::PER_LAYER.len());
            for (name, _, value) in &layers {
                assert!(value.is_finite(), "{workload} {name} = {value}");
            }
            let get = |n: &str| layers.iter().find(|m| m.0 == n).unwrap().2;
            assert!(
                get("residue_share") < 0.5,
                "{workload} residue {}",
                get("residue_share")
            );
            let json = result_json(&record, &layers).to_string();
            assert!(json.starts_with('{') && json.contains("\"metrics\""));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let ok = parse_args(args(
            "--workload stream_live --seed 4 --seconds 10 --trace 1",
        ));
        assert_eq!(ok, Ok(("stream_live".into(), 4, 10.0, true)));
        assert!(parse_args(args("--workload nope --seed 4 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(args(
            "--workload stream_live --seed -4 --seconds 10 --trace 0"
        ))
        .is_err());
        assert!(parse_args(args(
            "--workload stream_live --seed 4 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(args("--workload stream_live --seed 4 --seconds 10")).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        let listed = text.matches("\"name\":").count();
        assert_eq!(
            listed,
            WORKLOADS.len() + metrics::END_TO_END.len() + metrics::PER_LAYER.len()
        );
    }
}
