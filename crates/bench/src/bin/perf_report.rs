//! Measures the tracked fast paths against their baselines and writes a
//! machine-readable perf record; with `--check` it is CI's perf gate.
//! `docs/BENCHMARKS.md` documents the record format, the gate, the
//! recording rule and each row's measured share of the run it serves.
//!
//! The pairs are one table ([`pairs`]). Each row names the end-to-end
//! run and layer its fast path serves (a `perfbench` workload from
//! `BENCHMARK.json`, or a Quick-suite experiment), its shape, its parity
//! assertion, and its two arms, which share the row's scratch through
//! one `FnMut(Arm, &mut Vec<f64>)`: an arm writes its answer into the
//! buffer it is handed. A row's input has the shape of the traffic its
//! run sends through the fast path, and a fast path whose layer is not a
//! material share of any end-to-end run has no row.
//!
//! [`time_pair`] times a row's two arms alternately, rep by rep in ABBA
//! order, so a speed phase of the host lands on both arms alike. A row's
//! ratio is the median of its per-rep `baseline / fast` ratios.
//!
//! `--check <recorded.json>` gates every measured row by one rule: its
//! ratio must be at least 0.8 × the ratio recorded under its name. The
//! two tax rows (`obs_overhead_streaming`, `service_session_churn`) time
//! the feature-on arm as the fast one, so a growing tax lowers their
//! ratio. A recorded name that is no longer measured prints one
//! `retired` line and is not gated.
//!
//! Usage:
//!   `cargo run --release -p msp-bench --bin perf_report [-- FLAGS] [out.json]`
//!
//! Flags:
//! * `--quick` — the reduced shapes CI gates on (default output
//!   `bench-ci.json`; a full run writes `bench.json`),
//! * `--check <recorded.json>` — after measuring, gate every row against
//!   the given record and exit non-zero if any fails,
//! * `--help` — usage summary plus a pointer to `docs/BENCHMARKS.md`.
//!
//! Release mode only — debug timings are meaningless.

use std::hint::black_box;
use std::time::Instant;

use msp_analysis::{obs, Json};
use msp_core::cost::{service_cost, ServingOrder};
use msp_core::model::{Instance, Step};
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{run_streaming, StreamingSim};
use msp_geometry::median::{weighted_center, weighted_center_classic, MedianSolver};
use msp_geometry::sample::SeededSampler;
use msp_geometry::P2;
use msp_offline::grid::GridDp;
use msp_scenarios::registry::{lookup_or_err, ScenarioKnobs};
use msp_scenarios::RequestStream;
use msp_workloads::{DriftingHotspot, DriftingHotspotConfig, RequestCount};

/// The gate: a measured ratio must reach this share of its recorded one.
const FLOOR: f64 = 0.8;

/// Which side of a pair runs.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Baseline,
    Fast,
}

/// Checks the baseline's answer (first) against the fast arm's.
type Parity = Box<dyn Fn(&[f64], &[f64]) -> Result<(), String>>;

/// Runs one arm once, replacing the buffer's contents with its answer.
type Arms = Box<dyn FnMut(Arm, &mut Vec<f64>)>;

/// One row of the table.
struct Pair {
    name: String,
    /// The end-to-end run and layer the fast path is part of.
    serves: &'static str,
    /// The measured shape.
    detail: String,
    parity: Parity,
    arms: Arms,
}

/// A row's timing: each arm's median and the median per-rep ratio.
struct Timing {
    baseline_ns: u128,
    fast_ns: u128,
    speedup: f64,
}

fn median<T: Copy + PartialOrd>(mut samples: Vec<T>) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    samples[samples.len() / 2]
}

/// Times `arms` `reps` times per arm, alternating in ABBA order: even
/// reps run the baseline first, odd reps the fast arm first. Each arm
/// writes into its own buffer. The caller has already run each arm once
/// (the parity check), which warms both.
fn time_pair(reps: usize, arms: &mut dyn FnMut(Arm, &mut Vec<f64>)) -> Timing {
    let (mut base_out, mut fast_out) = (Vec::new(), Vec::new());
    let mut time = |arm, out: &mut Vec<f64>| {
        let start = Instant::now();
        arms(arm, out);
        black_box(&*out);
        start.elapsed().as_nanos().max(1)
    };
    let (mut base, mut fast, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (b, f) = if rep % 2 == 0 {
            let b = time(Arm::Baseline, &mut base_out);
            (b, time(Arm::Fast, &mut fast_out))
        } else {
            let f = time(Arm::Fast, &mut fast_out);
            (time(Arm::Baseline, &mut base_out), f)
        };
        base.push(b);
        fast.push(f);
        ratios.push(b as f64 / f as f64);
    }
    Timing {
        baseline_ns: median(base),
        fast_ns: median(fast),
        speedup: median(ratios),
    }
}

/// Runs each arm once into a fresh buffer and panics unless the row's
/// parity assertion accepts the two answers, so no record comes from a
/// broken fast path.
fn assert_parity(pair: &mut Pair) {
    let (mut base, mut fast) = (Vec::new(), Vec::new());
    (pair.arms)(Arm::Baseline, &mut base);
    (pair.arms)(Arm::Fast, &mut fast);
    if let Err(e) = (pair.parity)(&base, &fast) {
        panic!("{}: parity broken: {e}", pair.name);
    }
}

/// The parity assertion of rows whose arms must agree bit for bit,
/// element by element.
fn bit_equal(base: &[f64], fast: &[f64]) -> Result<(), String> {
    if base.len() != fast.len() {
        return Err(format!(
            "baseline answered {} values, fast {}",
            base.len(),
            fast.len()
        ));
    }
    match base
        .iter()
        .zip(fast)
        .position(|(b, f)| b.to_bits() != f.to_bits())
    {
        Some(k) => Err(format!(
            "value {k}: baseline {:e}, fast {:e}",
            base[k], fast[k]
        )),
        None => Ok(()),
    }
}

/// Benchmark shape knobs: full record vs the CI `--quick` grid. One rep
/// count serves every row of a shape.
struct Shapes {
    /// Steps per scenario family in the median row.
    median_steps: usize,
    sweep_horizon: usize,
    grid_cells: [usize; 2],
    /// Sessions in the service-churn fleet.
    churn_sessions: usize,
    reps: usize,
}

impl Shapes {
    fn full() -> Self {
        Shapes {
            median_steps: 1_024,
            sweep_horizon: 1_000,
            grid_cells: [41, 61],
            churn_sessions: 48,
            reps: 15,
        }
    }

    /// Smaller instances, so a gate run stays in CI budget. Check quick
    /// runs against a quick-shape record only: pruning windows and the
    /// median traffic scale with the instance, so ratios of different
    /// shapes are not comparable.
    fn quick() -> Self {
        Shapes {
            median_steps: 256,
            sweep_horizon: 300,
            grid_cells: [31, 41],
            churn_sessions: 24,
            reps: 21,
        }
    }
}

/// The table, in print order.
fn pairs(sh: &Shapes) -> Vec<Pair> {
    vec![
        median_churn(sh),
        grid_dp(sh.grid_cells[0]),
        grid_dp(sh.grid_cells[1]),
        obs_overhead(sh),
        session_churn(sh),
    ]
}

/// The scenario families `service_churn` spreads its sessions over
/// (perfbench/src/workloads.rs), in equal shares.
const CHURN_FAMILIES: [&str; 4] = ["edge-drift", "walk-plane", "car-fleet", "district-clusters"];

/// `steps` steps of each [`CHURN_FAMILIES`] stream, as the request sets
/// Move-to-Center solves a median for, each with the server position it
/// solves from (the solve's tie-break reference). Steps without requests
/// are left out: MtC solves nothing there.
fn churn_traffic(steps: usize) -> Vec<(Vec<P2>, P2)> {
    CHURN_FAMILIES
        .iter()
        .enumerate()
        .flat_map(|(k, family)| {
            let spec = lookup_or_err(family).expect("registry scenario");
            let mut stream = spec
                .stream_with::<2>(
                    SeededSampler::derive_seed(1, k as u64),
                    &ScenarioKnobs::horizon(steps),
                )
                .expect("planar scenario stream");
            let mut sim = StreamingSim::new(
                &stream.params(),
                MoveToCenter::new(),
                spec.default_delta,
                ServingOrder::MoveFirst,
            );
            std::iter::from_fn(move || stream.next_step()).filter_map(move |step| {
                let at = *sim.position();
                sim.feed(&step);
                (!step.requests.is_empty()).then_some((step.requests, at))
            })
        })
        .collect()
}

/// Move-to-Center's median solves on `service_churn`'s traffic: the
/// seed's classic solver vs one reused [`MedianSolver`] (closed forms for
/// three and four requests, the hybrid pipeline above). Each arm answers
/// every center. Parity: every fast center is the free
/// [`weighted_center`]'s bit for bit, and its objective is no worse than
/// the classic center's; the classic solver stops short of the true
/// median by up to 1e-2 on this traffic, so the two are not compared
/// point by point.
fn median_churn(sh: &Shapes) -> Pair {
    let sets = churn_traffic(sh.median_steps);
    let free: Vec<P2> = sets
        .iter()
        .map(|(requests, at)| weighted_center(requests, at))
        .collect();
    let most = sets.iter().map(|(r, _)| r.len()).max().unwrap_or(0);
    let ones = vec![1.0; most];
    let mut probe = MedianSolver::<2>::new();
    for (requests, at) in &sets {
        probe.center(requests, at);
    }
    let arm_sets = sets.clone();
    Pair {
        name: "median_service_churn".into(),
        serves: "service_churn: median (MoveToCenter's center solves)",
        detail: format!(
            "{} request sets (1–{most} requests) of service_churn's scenario families, {} \
             steps each, referenced at MtC's positions; seed classic solver vs \
             MedianSolver (mean {:.2} Weiszfeld iters/solve)",
            sets.len(),
            sh.median_steps,
            probe.telemetry.mean_iterations()
        ),
        parity: Box::new(move |base, fast| {
            if base.len() != 2 * sets.len() || fast.len() != 2 * sets.len() {
                return Err(format!(
                    "{} sets, baseline answered {} values, fast {}",
                    sets.len(),
                    base.len(),
                    fast.len()
                ));
            }
            for (k, ((requests, _), c)) in sets.iter().zip(&free).enumerate() {
                let b = P2::xy(base[2 * k], base[2 * k + 1]);
                let f = P2::xy(fast[2 * k], fast[2 * k + 1]);
                if f.0.map(f64::to_bits) != c.0.map(f64::to_bits) {
                    return Err(format!("set {k}: fast {f:?}, free weighted_center {c:?}"));
                }
                let (fb, ff) = (service_cost(&b, requests), service_cost(&f, requests));
                let no_worse = ff <= fb * (1.0 + 1e-12);
                if !no_worse {
                    return Err(format!("set {k}: fast objective {ff:e} > classic {fb:e}"));
                }
            }
            Ok(())
        }),
        arms: Box::new(move |arm, out| {
            out.clear();
            let mut solver = MedianSolver::<2>::new();
            for (requests, at) in &arm_sets {
                let c = match arm {
                    Arm::Baseline => weighted_center_classic(requests, &ones[..requests.len()], at),
                    Arm::Fast => solver.center(requests, at),
                };
                out.extend_from_slice(&[c[0], c[1]]);
            }
        }),
    }
}

/// The planar instance every grid-DP row prices: T=6, two requests per
/// step, a movement budget that keeps the pruning window well inside
/// the arena.
fn grid_instance() -> Instance<2> {
    let steps: Vec<Step<2>> = (0..6)
        .map(|t| {
            let a = t as f64 * 0.9;
            Step::new(vec![P2::xy(a.cos(), a.sin()), P2::xy(-0.4 * a.sin(), 0.7)])
        })
        .collect();
    Instance::new(2.0, 0.4, P2::origin(), steps)
}

/// The radius-pruned windowed transition scan vs the all-pairs scan,
/// both on one reused [`GridDp`] (and so on the same service-cost
/// buffer).
fn grid_dp(cells: usize) -> Pair {
    let inst = grid_instance();
    let mut dp = GridDp::new(&inst, cells);
    Pair {
        name: format!("grid_dp_{cells}"),
        serves: "Quick suite e4b, v1: GridDp transition scan",
        detail: format!(
            "{cells}×{cells} planar grid, T=6, m=0.4, reused GridDp scratch: all-pairs transition \
             scan vs radius-pruned window (both on the same service-cost buffer)"
        ),
        parity: Box::new(bit_equal),
        arms: Box::new(move |arm, out| {
            out.clear();
            out.push(match arm {
                Arm::Baseline => dp.solve_unpruned(&inst, ServingOrder::MoveFirst),
                Arm::Fast => dp.solve(&inst, ServingOrder::MoveFirst),
            });
        }),
    }
}

fn sweep_instance(sh: &Shapes) -> Instance<2> {
    let gen = DriftingHotspot::new(DriftingHotspotConfig::<2> {
        horizon: sh.sweep_horizon,
        d: 4.0,
        max_move: 1.0,
        drift_speed: 0.5,
        momentum: 0.8,
        spread: 0.5,
        arena_half_width: 100.0,
        count: RequestCount::Fixed(4),
    });
    gen.generate(3)
}

/// The observability tax: one streaming MtC pass with the metrics
/// registry disabled (baseline) vs enabled (fast, the feature-on arm).
/// The ratio sits just under 1×, and a growing tax lowers it.
fn obs_overhead(sh: &Shapes) -> Pair {
    let inst = sweep_instance(sh);
    let params = inst.params();
    Pair {
        name: "obs_overhead_streaming".into(),
        serves: "every traced perfbench run: trace_overhead (metrics registry on)",
        detail: format!(
            "one streaming MoveToCenter pass over T={} with the obs registry disabled \
             (baseline) vs enabled (fast); bit-equal costs asserted",
            sh.sweep_horizon
        ),
        parity: Box::new(bit_equal),
        arms: Box::new(move |arm, out| {
            if arm == Arm::Fast {
                obs::enable();
            }
            let cost = run_streaming(
                &params,
                inst.steps.iter().cloned(),
                MoveToCenter::new(),
                0.2,
                ServingOrder::MoveFirst,
            )
            .total_cost();
            obs::disable();
            out.clear();
            out.push(cost);
        }),
    }
}

/// The session-churn tax of the bounded-memory service tier: the same
/// round-robin fleet advance through a [`msp_scenarios::SessionService`]
/// whose resident cap covers the fleet (baseline, every session stays
/// live) vs a cap of 1 (fast, the feature-on arm: every touch evicts the
/// previous session and resumes the next from its checkpoint). Costs are
/// bit-equal either way (the service's resume contract), so the ratio
/// isolates the evict/resume overhead, and a growing overhead lowers it.
fn session_churn(sh: &Shapes) -> Pair {
    use msp_scenarios::{InstanceStream, ServiceConfig, SessionService};

    const CHURN_STEPS: usize = 96;
    const CHURN_SLICE: usize = 16;

    fn churn_instance(seed: u64) -> Instance<2> {
        let steps = (0..CHURN_STEPS)
            .map(|t| {
                let a = 0.11 * t as f64 + seed as f64;
                Step::new(vec![P2::xy(a.cos(), 0.6 * a.sin())])
            })
            .collect();
        Instance::new(2.0, 1.0, P2::origin(), steps)
    }

    /// Answers the session's running cost after every advance.
    fn run_fleet(n: usize, max_resident: usize, out: &mut Vec<f64>) {
        let mut service =
            SessionService::<2, MoveToCenter<2>>::new(ServiceConfig::new(max_resident));
        for s in 0..n as u64 {
            service
                .open_session(
                    format!("churn{s}"),
                    Box::new(InstanceStream::new(churn_instance(s))),
                    MoveToCenter::new(),
                    0.2,
                    ServingOrder::MoveFirst,
                )
                .expect("open churn session");
        }
        out.clear();
        for _ in 0..CHURN_STEPS / CHURN_SLICE {
            for s in 0..n as u64 {
                let advanced = service
                    .advance(&format!("churn{s}"), CHURN_SLICE)
                    .expect("advance churn session");
                out.push(advanced.total_cost);
            }
        }
    }

    let n = sh.churn_sessions;
    Pair {
        name: "service_session_churn".into(),
        serves: "service_churn: service (evict + resume)",
        detail: format!(
            "{n} single-request sessions × {CHURN_STEPS} steps advanced round-robin in \
             {CHURN_SLICE}-step slices through a memory-only SessionService; resident cap {n} \
             (all live, baseline) vs cap 1 (evict + resume on every touch, fast); \
             bit-equal running costs asserted"
        ),
        parity: Box::new(bit_equal),
        arms: Box::new(move |arm, out| match arm {
            Arm::Baseline => run_fleet(n, n, out),
            Arm::Fast => run_fleet(n, 1, out),
        }),
    }
}

/// Extracts `(name, speedup)` pairs from a recorded report. The format
/// is our own compact emitter's (`"name":"…"` precedes `"speedup":…`
/// inside each bench object, keys alphabetical), so a lightweight scan
/// (the workspace has no JSON parser dependency) is sufficient and
/// stable.
fn recorded_speedups(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in text.split("\"name\":\"").skip(1) {
        let Some(name_end) = chunk.find('"') else {
            continue;
        };
        let Some(pos) = chunk.find("\"speedup\":") else {
            continue;
        };
        let num: String = chunk[pos + "\"speedup\":".len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((chunk[..name_end].to_string(), v));
        }
    }
    out
}

/// The gate. Every measured row must reach [`FLOOR`] × the ratio
/// recorded under its name; a measured row with no record fails, since
/// it cannot be gated. Recorded names that are no longer measured get
/// one `retired` line each and are not gated. Returns the report lines
/// and whether any row failed.
fn check(measured: &[(String, f64)], recorded: &[(String, f64)]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    for (name, want) in recorded {
        if !measured.iter().any(|(n, _)| n == name) {
            lines.push(format!(
                "check: {name:<26} retired (recorded {want:.2}×, no longer measured)"
            ));
        }
    }
    let mut failed = false;
    for (name, got) in measured {
        let Some((_, want)) = recorded.iter().find(|(n, _)| n == name) else {
            lines.push(format!(
                "check: {name:<26} FAILED — measured but not recorded"
            ));
            failed = true;
            continue;
        };
        let floor = FLOOR * want;
        if *got < floor {
            lines.push(format!(
                "check: {name:<26} REGRESSED — {got:.2}× < {FLOOR} × recorded {want:.2}×"
            ));
            failed = true;
        } else {
            lines.push(format!(
                "check: {name:<26} ok — {got:.2}× vs recorded {want:.2}× (floor {floor:.2}×)"
            ));
        }
    }
    (lines, failed)
}

const HELP: &str = "\
perf_report — measure the tracked fast-path/baseline pairs and write a
machine-readable perf record.

Usage:
  cargo run --release -p msp-bench --bin perf_report [-- FLAGS] [out.json]

Flags:
  --quick            reduced CI shapes (default output bench-ci.json; a full
                     run writes bench.json)
  --check <file>     exit non-zero if any measured ratio falls below 0.8x of
                     the ratio recorded under its name in <file>
  --help             this message

Recorded names this binary no longer measures are not gated; --check prints
one 'retired' line for each. docs/BENCHMARKS.md explains the records, the
gate and how to record a new reference.";

fn main() {
    let mut quick = false;
    let mut check_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            "--quick" => quick = true,
            "--check" => check_path = Some(args.next().expect("--check needs a file path")),
            other => out_path = Some(other.to_string()),
        }
    }
    let out_path =
        out_path.unwrap_or_else(|| if quick { "bench-ci.json" } else { "bench.json" }.into());
    let sh = if quick {
        Shapes::quick()
    } else {
        Shapes::full()
    };

    let mut rows = Vec::new();
    for mut pair in pairs(&sh) {
        assert_parity(&mut pair);
        let t = time_pair(sh.reps, &mut pair.arms);
        println!(
            "{:<26} baseline {:>12} ns   fast {:>12} ns   speedup {:>6.2}×   serves {}",
            pair.name, t.baseline_ns, t.fast_ns, t.speedup, pair.serves
        );
        rows.push((pair, t));
    }

    let json = Json::obj([
        ("quick", Json::from(quick)),
        ("reps", Json::Num(sh.reps as f64)),
        (
            "tier1",
            Json::Str("cargo build --release && cargo test -q".into()),
        ),
        (
            "benches",
            Json::Arr(
                rows.iter()
                    .map(|(pair, t)| {
                        Json::obj([
                            ("name", Json::Str(pair.name.clone())),
                            ("serves", Json::Str(pair.serves.into())),
                            ("baseline_ns", Json::Num(t.baseline_ns as f64)),
                            ("fast_ns", Json::Num(t.fast_ns as f64)),
                            ("speedup", Json::Num(t.speedup)),
                            ("detail", Json::Str(pair.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, json.to_string() + "\n").expect("write perf report");
    println!("wrote {out_path}");

    if let Some(recorded_path) = check_path {
        let recorded = std::fs::read_to_string(&recorded_path)
            .unwrap_or_else(|e| panic!("read {recorded_path}: {e}"));
        let measured: Vec<(String, f64)> = rows
            .iter()
            .map(|(pair, t)| (pair.name.clone(), t.speedup))
            .collect();
        let (lines, failed) = check(&measured, &recorded_speedups(&recorded));
        for line in lines {
            println!("{line}");
        }
        if failed {
            eprintln!("perf_smoke: a measured ratio fell below {FLOOR}× of {recorded_path}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(rows: &[(&str, f64)]) -> Vec<(String, f64)> {
        rows.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn a_row_below_the_floor_fails() {
        let recorded = named(&[("grid_dp_31", 3.0)]);
        let (_, failed) = check(&named(&[("grid_dp_31", 2.39)]), &recorded);
        assert!(failed);
        let (lines, failed) = check(&named(&[("grid_dp_31", 2.41)]), &recorded);
        assert!(!failed, "{lines:?}");
    }

    #[test]
    fn a_row_recorded_below_one_is_gated() {
        let recorded = named(&[("obs_overhead_streaming", 0.95)]);
        let (lines, failed) = check(&named(&[("obs_overhead_streaming", 0.70)]), &recorded);
        assert!(failed, "{lines:?}");
        assert!(lines[0].contains("REGRESSED"), "{lines:?}");
    }

    #[test]
    fn a_tax_row_whose_feature_on_arm_is_30_percent_slower_fails() {
        // The feature-on arm is the fast slot, so a 30% slower
        // feature-on arm divides the ratio by 1.3.
        for recorded in [0.97, 1.0, 1.02] {
            let got = recorded / 1.3;
            let (lines, failed) = check(
                &named(&[("service_session_churn", got)]),
                &named(&[("service_session_churn", recorded)]),
            );
            assert!(failed, "recorded {recorded}: {lines:?}");
        }
    }

    #[test]
    fn a_recorded_name_that_is_not_measured_is_retired_and_passes() {
        let recorded = named(&[("corpus_seek_vs_scan", 3.46), ("grid_dp_41", 3.0)]);
        let (lines, failed) = check(&named(&[("grid_dp_41", 3.1)]), &recorded);
        assert!(!failed, "{lines:?}");
        assert!(
            lines
                .iter()
                .any(|l| l.contains("corpus_seek_vs_scan") && l.contains("retired")),
            "{lines:?}"
        );
    }

    #[test]
    fn a_measured_row_without_a_record_fails() {
        let (_, failed) = check(&named(&[("grid_dp_41", 3.1)]), &[]);
        assert!(failed);
    }

    #[test]
    fn bit_equal_compares_every_element() {
        assert!(bit_equal(&[1.0, 2.0], &[1.0, 2.0]).is_ok());
        assert!(bit_equal(&[1.0, 2.0], &[1.0]).is_err());
        assert!(bit_equal(&[1.0, 2.0], &[1.0, 2.0 + 1e-15]).is_err());
        assert!(bit_equal(&[0.0], &[-0.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "parity broken")]
    fn a_fast_arm_that_answers_nothing_breaks_parity() {
        let mut pair = Pair {
            name: "stub".into(),
            serves: "",
            detail: String::new(),
            parity: Box::new(bit_equal),
            arms: Box::new(|arm, out| {
                if arm == Arm::Baseline {
                    out.clear();
                    out.push(1.0);
                }
            }),
        };
        assert_parity(&mut pair);
    }

    #[test]
    fn the_median_row_rejects_a_moved_or_worse_center() {
        let mut pair = median_churn(&Shapes {
            median_steps: 24,
            ..Shapes::quick()
        });
        let (mut base, mut fast) = (Vec::new(), Vec::new());
        (pair.arms)(Arm::Baseline, &mut base);
        (pair.arms)(Arm::Fast, &mut fast);
        assert!((pair.parity)(&base, &fast).is_ok());
        let mut moved = fast.clone();
        moved[7] += 1e-6 * (1.0 + moved[7].abs());
        assert!((pair.parity)(&base, &moved).is_err());
        assert!((pair.parity)(&base, &fast[..fast.len() - 2]).is_err());
    }

    #[test]
    fn recorded_speedups_reads_the_emitted_record() {
        let record = Json::obj([(
            "benches",
            Json::Arr(vec![Json::obj([
                ("name", Json::Str("grid_dp_31".into())),
                ("serves", Json::Str("Quick suite e4b".into())),
                ("speedup", Json::Num(3.25)),
            ])]),
        )]);
        assert_eq!(
            recorded_speedups(&record.to_string()),
            vec![("grid_dp_31".to_string(), 3.25)]
        );
    }
}
