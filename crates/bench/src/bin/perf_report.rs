//! Emits the machine-readable perf trajectory record (`BENCH_16.json`):
//! wall-clock comparisons of the tracked fast paths against their
//! baselines, so future optimization PRs have measured numbers to beat.
//! `docs/BENCHMARKS.md` documents the record format, the regeneration
//! workflow, and what the CI gate enforces.
//!
//! Pairs measured (same shapes as `benches/bench_fastpath.rs`):
//!
//! * `kernel_service_cost_*` — chunked `service_cost` vs the scalar
//!   `service_cost_naive` oracle,
//! * `kernel_dp_serve_scan` — the grid DP's SoA per-node service scan vs
//!   the per-node scalar loop,
//! * `median_drift_*` — warm-started [`MedianSolver`] vs the seed's cold
//!   classic solver over a drifting request cluster,
//! * `multi_delta_sweep` — `run_batch` (cross-lane warm seeding) over a
//!   (δ × order) grid vs repeated `run` calls, plus the unseeded strict
//!   variant to attribute the win,
//! * `streaming_batch_sweep` — `run_streaming_batch` vs repeated
//!   `run_streaming` passes,
//! * `grid_dp_*` — the radius-pruned windowed transition kernel vs the
//!   all-pairs scan (both sides share the hoisted SoA service scan, so
//!   the baseline is *stricter* than `BENCH_1.json`'s),
//! * `grid_dp_smawk_*` (PR 4, reworked PR 10) — the SMAWK min-plus
//!   distance-transform kernel vs the PR-3 windowed kernel: the window
//!   factor the totally-monotone row reduction removes, measured on the
//!   same reused `GridDp` (successor of the retired `grid_dp_dt_*`
//!   pairs, same shapes),
//! * `executor_pooled_fanout` (PR 5) — repeated small fan-outs (the
//!   per-block dispatch shape of the streaming batch engine) through the
//!   persistent worker pool vs the pre-PR-5 scoped spawn/join executor,
//!   both at a pinned 2-thread request,
//! * `grid_dp_dt_par_*` (PR 5) — the distance-transform kernel with its
//!   per-target-row fan over the pool vs single-threaded rows
//!   (bit-identical results; the ratio scales with the core count and
//!   records ≈ 1× on a single-core box),
//! * `cross_instance_warm_fan` (PR 5) — a warm-chained seed fan
//!   (`run_with_warm_hint`, each instance seeded by its predecessor's
//!   converged solver state) vs cold per-instance runs over
//!   seed-adjacent planar instances,
//! * `obs_overhead_streaming` (PR 7) — the same streaming MtC sweep with
//!   the [`msp_analysis::obs`] metrics registry **enabled** (baseline)
//!   vs **disabled** (fast): the instrumentation tax on the hot path.
//!   The contract is ≈ 1× — results are bit-equal either way (asserted)
//!   and the enabled path must stay within ~1% of the disabled one,
//! * `service_session_churn` (PR 8) — a round-robin advance over a
//!   session fleet through [`msp_scenarios::SessionService`] with a
//!   resident cap of 1 (every touch evicts the previous session and
//!   warm-resumes the next — maximum churn) vs a cap covering the whole
//!   fleet (no churn): the measured gap is the evict/checkpoint/resume
//!   overhead of the bounded-memory tier, with bit-equal costs asserted
//!   across the two configurations,
//! * `corpus_seek_vs_scan` (PR 9) — O(1) `seek_to_step` through the
//!   block-v3 index trailer vs scanning frames from the start of the
//!   trace to the same probe steps (identical frames asserted),
//! * `sweep_warm_dp` (PR 10) — a horizon sweep pricing OPT at every
//!   prefix mark through one warm [`GridDp::solve_warm`] journal
//!   (each mark replays the shared step prefix for free) vs per-mark
//!   cold re-solves of the same prefixes, bit-equal OPTs asserted.
//!
//! Usage:
//!   `cargo run --release -p msp-bench --bin perf_report [-- FLAGS] [out.json]`
//!
//! Flags:
//! * `--quick` — reduced grid for CI smoke runs (smaller horizons/grids,
//!   fewer repetitions; default output `bench-ci.json`),
//! * `--check <recorded.json>` — after measuring, compare each bench
//!   against the speedup recorded under the same name in the given file
//!   and exit non-zero if any falls below 0.8× of its recorded value
//!   (the CI `perf_smoke` regression gate),
//! * `--help` — usage summary plus a pointer to `docs/BENCHMARKS.md`.
//!
//! Release mode only — debug timings are meaningless.

use std::time::Instant;

use msp_analysis::Json;
use msp_core::cost::{service_cost, service_cost_naive, ServingOrder};
use msp_core::model::{Instance, Step};
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{run, run_batch_with, run_streaming, BatchOptions};
use msp_geometry::median::{weighted_center, weighted_center_classic, MedianOptions, MedianSolver};
use msp_geometry::sample::SeededSampler;
use msp_geometry::soa::SoaPoints;
use msp_geometry::P2;
use msp_offline::grid::{GridDp, TransitionKernel};
use msp_workloads::{DriftingHotspot, DriftingHotspotConfig, RequestCount};

/// Median of `reps` wall-clock timings of `f` (after one warm-up call).
fn time_ns<O>(reps: usize, mut f: impl FnMut() -> O) -> u128 {
    std::hint::black_box(f());
    let mut samples: Vec<u128> = (0..reps.max(3))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

struct Comparison {
    name: String,
    baseline_ns: u128,
    fast_ns: u128,
    detail: String,
}

/// Whether a bench's fast path takes a different *code path* depending on
/// the resolved sweep-pool width (e.g. the pooled dispatch inlines on a
/// 1-thread pool, and the DT row fan is width-bound by the pool). Such
/// entries embed the recording pool width in the record, and `--check`
/// only gates them when the checking machine resolves the **same** width
/// — a cross-width comparison would measure different code paths, the
/// same cross-shape mistake as checking quick runs against full records.
fn pool_sensitive(name: &str) -> bool {
    name == "executor_pooled_fanout" || name.starts_with("grid_dp_dt_par_")
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.fast_ns.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("baseline_ns", Json::Num(self.baseline_ns as f64)),
            ("fast_ns", Json::Num(self.fast_ns as f64)),
            ("speedup", Json::Num(self.speedup())),
            ("detail", Json::Str(self.detail.clone())),
        ];
        if pool_sensitive(&self.name) {
            fields.push((
                "pool_threads",
                Json::Num(msp_analysis::pool_threads() as f64),
            ));
        }
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Benchmark shape knobs: full record vs the CI `--quick` smoke grid.
struct Shapes {
    drift_steps: usize,
    sweep_horizon: usize,
    grid_cells: [usize; 2],
    kernel_evals: usize,
    /// Small fan-outs per timing sample of the executor pair (the
    /// per-block dispatch shape).
    fanouts: usize,
    /// Seed-adjacent instances per timing sample of the warm-fan pair.
    warm_fan_instances: usize,
    /// Sessions in the service-churn fleet.
    churn_sessions: usize,
    /// Prefix marks (stride 4) in the warm-DP horizon sweep.
    warm_dp_marks: usize,
    reps: usize,
}

impl Shapes {
    fn full() -> Self {
        Shapes {
            drift_steps: 256,
            sweep_horizon: 1_000,
            grid_cells: [41, 61],
            kernel_evals: 256,
            fanouts: 512,
            warm_fan_instances: 48,
            churn_sessions: 48,
            warm_dp_marks: 12,
            reps: 9,
        }
    }

    /// Reduced grid for the CI smoke gate. Shapes are smaller (so the
    /// run stays in CI budget) but repetitions are *higher* than the full
    /// record — each rep is cheap and the 0.8× regression floor needs
    /// stable medians more than it needs big instances. Check quick runs
    /// against a quick-shape record (`BENCH_16_quick.json`), never against
    /// the full record: pruning windows and warm-start gains scale with
    /// the instance, so cross-shape speedups are not comparable.
    fn quick() -> Self {
        Shapes {
            drift_steps: 96,
            sweep_horizon: 300,
            // Large enough that the distance-transform ratio is signal
            // rather than noise (at ≤ 21 cells the DT and windowed
            // kernels cost about the same and the ratio hovers at 1×,
            // which no 0.8× floor can gate stably).
            grid_cells: [31, 41],
            kernel_evals: 128,
            fanouts: 192,
            warm_fan_instances: 24,
            churn_sessions: 24,
            warm_dp_marks: 8,
            reps: 13,
        }
    }
}

fn drifting_clusters(n_points: usize, steps: usize) -> Vec<Vec<P2>> {
    let mut s = SeededSampler::new(11);
    let offsets: Vec<P2> = (0..n_points).map(|_| s.point_in_cube(2.0)).collect();
    (0..steps)
        .map(|t| {
            let c = P2::xy(0.03 * t as f64, 0.02 * t as f64);
            offsets
                .iter()
                .map(|o| c + *o + s.point_in_cube(0.05))
                .collect()
        })
        .collect()
}

fn service_kernel_comparison(n: usize, name: &'static str, sh: &Shapes) -> Comparison {
    let sets = drifting_clusters(n, sh.kernel_evals);
    let p = P2::xy(0.4, -0.3);
    let baseline_ns = time_ns(sh.reps, || {
        let mut acc = 0.0;
        for pts in &sets {
            acc += service_cost_naive(&p, pts);
        }
        acc
    });
    let fast_ns = time_ns(sh.reps, || {
        let mut acc = 0.0;
        for pts in &sets {
            acc += service_cost(&p, pts);
        }
        acc
    });
    // Parity sanity on the last set.
    let last = sets.last().unwrap();
    let (a, b) = (service_cost(&p, last), service_cost_naive(&p, last));
    assert!((a - b).abs() <= 1e-10 * (1.0 + b), "kernel parity broken");
    Comparison {
        name: name.into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{} request sets of {n} points; scalar sum-of-distances loop vs chunked kernel",
            sets.len()
        ),
    }
}

fn dp_serve_scan_comparison(sh: &Shapes) -> Comparison {
    // The grid DP's per-step shape: many nodes, few requests.
    let side = if sh.grid_cells[1] > 41 { 96 } else { 48 };
    let mut nodes = Vec::with_capacity(side * side);
    for y in 0..side {
        for x in 0..side {
            nodes.push(P2::xy(x as f64 * 0.05, y as f64 * 0.05));
        }
    }
    let nodes_soa = SoaPoints::from_points(&nodes);
    let requests = [P2::xy(1.0, 1.3), P2::xy(0.2, 2.0), P2::xy(2.1, 0.4)];
    let mut serve = vec![0.0f64; nodes.len()];
    let baseline_ns = time_ns(sh.reps, || {
        for (k, pk) in nodes.iter().enumerate() {
            serve[k] = service_cost_naive(pk, &requests);
        }
        serve[0]
    });
    let mut serve_fast = vec![0.0f64; nodes.len()];
    let fast_ns = time_ns(sh.reps, || {
        nodes_soa.service_costs_into(&requests, &mut serve_fast);
        serve_fast[0]
    });
    for (a, b) in serve_fast.iter().zip(&serve) {
        assert_eq!(a.to_bits(), b.to_bits(), "serve scan parity broken");
    }
    Comparison {
        name: "kernel_dp_serve_scan".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{}×{side} nodes × 3 requests; per-node scalar loop vs per-request SoA column scan",
            side
        ),
    }
}

fn median_comparison(n: usize, name: &'static str, sh: &Shapes) -> Comparison {
    let sets = drifting_clusters(n, sh.drift_steps);
    let reference = P2::origin();
    let ones = vec![1.0; n];
    // Baseline: the seed's cold-start solver (full-length Weiszfeld from
    // the centroid plus exhaustive anchor snap).
    let baseline_ns = time_ns(sh.reps, || {
        let mut acc = P2::origin();
        for pts in &sets {
            acc = weighted_center_classic(pts, &ones, &reference, MedianOptions::default());
        }
        acc
    });
    let fast_ns = time_ns(sh.reps, || {
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        let mut acc = P2::origin();
        for pts in &sets {
            acc = solver.center(pts, &reference);
        }
        acc
    });
    // Sanity: warm, hybrid-cold and classic-cold centers agree on the
    // final set.
    let mut solver = MedianSolver::<2>::new(MedianOptions::default());
    let mut warm = P2::origin();
    for pts in &sets {
        warm = solver.center(pts, &reference);
    }
    let last = sets.last().unwrap();
    let cold = weighted_center(last, &reference, MedianOptions::default());
    let classic = weighted_center_classic(last, &ones, &reference, MedianOptions::default());
    assert!(
        warm.distance(&cold) < 1e-9,
        "warm/hybrid-cold parity broken"
    );
    assert!(warm.distance(&classic) < 1e-9, "warm/classic parity broken");
    Comparison {
        name: name.into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{n}-point cluster drifting over {} steps; seed cold-start solver vs warm \
             MedianSolver (mean {:.1} Weiszfeld iters/solve warm)",
            sh.drift_steps,
            solver.telemetry.mean_iterations()
        ),
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

const SWEEP_DELTAS: [f64; 5] = [0.0, 0.1, 0.2, 0.4, 0.8];
const SWEEP_ORDERS: [ServingOrder; 2] = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];

/// The seeded sweep configuration the record tracks: one fully seeded
/// lane group, **pinned** rather than the machine-dependent default
/// (whose group shape follows the core count — speedups measured under
/// it would not be comparable across recording and checking machines).
fn pinned_seeded_options() -> BatchOptions {
    BatchOptions {
        threads: 0,
        lane_chunk: SWEEP_DELTAS.len(),
        cross_lane_seed: true,
    }
}

fn batch_comparison(
    sh: &Shapes,
    opts: BatchOptions,
    name: &'static str,
    variant: &str,
) -> Comparison {
    let inst = sweep_instance(sh);
    let baseline_ns = time_ns(7.min(sh.reps), || {
        let mut total = 0.0;
        for &delta in &SWEEP_DELTAS {
            for &order in &SWEEP_ORDERS {
                let mut alg = MoveToCenter::new();
                total += run(&inst, &mut alg, delta, order).total_cost();
            }
        }
        total
    });
    let fast_ns = time_ns(7.min(sh.reps), || {
        run_batch_with(
            &inst,
            &MoveToCenter::new(),
            &SWEEP_DELTAS,
            &SWEEP_ORDERS,
            opts,
        )
        .iter()
        .map(|r| r.total_cost())
        .sum::<f64>()
    });
    Comparison {
        name: name.into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "5 δ × 2 orders on a T={} drifting hotspot; repeated run() vs one run_batch() pass ({variant})",
            sh.sweep_horizon
        ),
    }
}

fn streaming_batch_comparison(sh: &Shapes) -> Comparison {
    let inst = sweep_instance(sh);
    let params = inst.params();
    let baseline_ns = time_ns(7.min(sh.reps), || {
        let mut total = 0.0;
        for &delta in &SWEEP_DELTAS {
            for &order in &SWEEP_ORDERS {
                total += run_streaming(
                    &params,
                    inst.steps.iter().cloned(),
                    MoveToCenter::new(),
                    delta,
                    order,
                )
                .total_cost();
            }
        }
        total
    });
    let fast_ns = time_ns(7.min(sh.reps), || {
        msp_core::simulator::run_streaming_batch_with(
            &params,
            inst.steps.iter().cloned(),
            &MoveToCenter::new(),
            &SWEEP_DELTAS,
            &SWEEP_ORDERS,
            pinned_seeded_options(),
        )
        .iter()
        .map(|r| r.total_cost())
        .sum::<f64>()
    });
    Comparison {
        name: "streaming_batch_sweep".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "5 δ × 2 orders streamed over T={}; repeated run_streaming() vs one blocked run_streaming_batch() pass (pinned seeded lane group)",
            sh.sweep_horizon
        ),
    }
}

/// The planar instance every grid-DP comparison prices: T=6, two
/// requests per step, a movement budget that keeps the pruning window
/// well inside the arena.
fn grid_instance() -> Instance<2> {
    let steps: Vec<Step<2>> = (0..6)
        .map(|t| {
            let a = t as f64 * 0.9;
            Step::new(vec![P2::xy(a.cos(), a.sin()), P2::xy(-0.4 * a.sin(), 0.7)])
        })
        .collect();
    Instance::new(2.0, 0.4, P2::origin(), steps)
}

fn grid_comparison(cells: usize, sh: &Shapes) -> Comparison {
    let inst = grid_instance();
    let mut dp = GridDp::new(&inst, cells);
    let baseline_ns = time_ns(5.min(sh.reps), || {
        dp.solve_unpruned(&inst, ServingOrder::MoveFirst)
    });
    let fast_ns = time_ns(5.min(sh.reps), || dp.solve(&inst, ServingOrder::MoveFirst));
    let pruned = dp.solve(&inst, ServingOrder::MoveFirst);
    let full = dp.solve_unpruned(&inst, ServingOrder::MoveFirst);
    assert_eq!(pruned, full, "pruned/all-pairs parity broken");
    Comparison {
        // Derived from the actual cell count so quick-shape records are
        // labeled (and gate-matched) by what actually ran.
        name: format!("grid_dp_{cells}"),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{cells}×{cells} planar grid, T=6, m=0.4, reused GridDp scratch: all-pairs transition \
             scan vs radius-pruned window (both on the hoisted SoA service scan)"
        ),
    }
}

/// PR 4 (reworked PR 10): the SMAWK distance-transform transition kernel
/// vs the PR-3 windowed kernel — the baseline here is the *previous
/// record's fast path*, so the speedup is the window factor the
/// totally-monotone row reduction removes.
fn grid_smawk_comparison(cells: usize, sh: &Shapes) -> Comparison {
    let inst = grid_instance();
    let mut dp = GridDp::new(&inst, cells);
    // Sequential rows on both sides: this entry isolates the PR-4
    // envelope-kernel win, so the PR-5 row fan is pinned off — otherwise
    // the ratio would depend on the runner's pool width (the row-fan
    // contribution is measured separately, by the width-tagged
    // `grid_dp_dt_par_*` entries).
    dp.set_row_threads(1);
    // Both sides are fast solves (no all-pairs baseline), so the full
    // repetition budget is affordable — and needed: these medians gate CI
    // at the 0.8× floor, and short timings are the noisiest in the record.
    let baseline_ns = time_ns(sh.reps, || {
        dp.solve_with(&inst, ServingOrder::MoveFirst, TransitionKernel::Windowed)
    });
    let fast_ns = time_ns(sh.reps, || {
        dp.solve_with(
            &inst,
            ServingOrder::MoveFirst,
            TransitionKernel::DistanceTransform,
        )
    });
    let windowed = dp.solve_with(&inst, ServingOrder::MoveFirst, TransitionKernel::Windowed);
    let dt = dp.solve_with(
        &inst,
        ServingOrder::MoveFirst,
        TransitionKernel::DistanceTransform,
    );
    assert!(
        dt >= windowed && (dt - windowed).abs() <= 1e-9 * (1.0 + windowed.abs()),
        "dt/windowed parity broken: {dt} vs {windowed}"
    );
    Comparison {
        name: format!("grid_dp_smawk_{cells}"),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{cells}×{cells} planar grid, T=6, m=0.4, reused GridDp scratch: radius-pruned \
             window scan vs SMAWK min-plus distance transform (one totally-monotone row \
             reduction per admissible row pair)"
        ),
    }
}

/// PR 10: a horizon sweep pricing the exact OPT at every prefix mark —
/// the denominator discipline of every walk/ratio experiment — through
/// **one** warm [`GridDp::solve_warm`] journal vs per-mark cold
/// re-solves of the same prefixes on the same covering arena. The warm
/// chain replays each mark's shared step prefix from the journal, so the
/// sweep pays each DP transition once (O(T) total steps) instead of once
/// per mark (O(T²/stride)); results are bit-equal (asserted). Rows are
/// pinned sequential so the pair is machine-independent.
fn sweep_warm_dp_comparison(sh: &Shapes) -> Comparison {
    let t_max = 4 * sh.warm_dp_marks;
    let steps: Vec<Step<2>> = (0..t_max)
        .map(|t| {
            let a = t as f64 * 0.9;
            Step::new(vec![P2::xy(a.cos(), a.sin()), P2::xy(-0.4 * a.sin(), 0.7)])
        })
        .collect();
    let inst = Instance::new(2.0, 0.4, P2::origin(), steps);
    let cells = sh.grid_cells[0];
    let prefixes: Vec<Instance<2>> = (1..=sh.warm_dp_marks).map(|k| inst.prefix(4 * k)).collect();
    let mut dp = GridDp::new(&inst, cells);
    dp.set_row_threads(1);
    let baseline_ns = time_ns(sh.reps, || {
        let mut acc = 0.0;
        for p in &prefixes {
            dp.reset_warm();
            acc += dp.solve_warm(
                p,
                ServingOrder::MoveFirst,
                TransitionKernel::DistanceTransform,
            );
        }
        acc
    });
    let fast_ns = time_ns(sh.reps, || {
        dp.reset_warm();
        let mut acc = 0.0;
        for p in &prefixes {
            acc += dp.solve_warm(
                p,
                ServingOrder::MoveFirst,
                TransitionKernel::DistanceTransform,
            );
        }
        acc
    });
    // Bit-equality of the warm chain against cold per-prefix solves.
    dp.reset_warm();
    for p in &prefixes {
        let warm = dp.solve_warm(
            p,
            ServingOrder::MoveFirst,
            TransitionKernel::DistanceTransform,
        );
        let cold = GridDp::new(&inst, cells).set_row_threads(1).solve_warm(
            p,
            ServingOrder::MoveFirst,
            TransitionKernel::DistanceTransform,
        );
        assert!(
            warm.to_bits() == cold.to_bits(),
            "warm/cold sweep parity broken: {warm} vs {cold} at T={}",
            p.horizon()
        );
    }
    Comparison {
        name: "sweep_warm_dp".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{} prefix marks (stride 4, T={t_max}) on a {cells}×{cells} planar grid, m=0.4, \
             sequential rows: per-mark cold GridDp re-solves vs one warm journal chained \
             across the sweep (bit-equal OPTs)",
            sh.warm_dp_marks
        ),
    }
}

/// PR 5: repeated small fan-outs through the persistent worker pool vs
/// the pre-PR-5 scoped executor (`scoped_for_each_mut`, retained as the
/// parity oracle), both at a **pinned 2-thread request** so the shape is
/// machine-independent. This is the dispatch pattern the streaming batch
/// engine hits once per 256-step block and the DT kernel once per DP
/// step; the measured gap is exactly the per-call spawn/join barrier the
/// pool removes.
fn executor_fanout_comparison(sh: &Shapes) -> Comparison {
    fn fan_work(i: usize, v: &mut u64) {
        // A few hundred nanoseconds of arithmetic per item: enough to be
        // real work, small enough that the dispatch overhead dominates —
        // the regime the persistent pool exists for.
        let mut acc = *v;
        for k in 0..160u64 {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(k ^ i as u64);
        }
        *v = acc;
    }
    let fans = sh.fanouts;
    let mut cells: Vec<u64> = (0..8).collect();
    let baseline_ns = time_ns(sh.reps, || {
        for _ in 0..fans {
            msp_analysis::sweep::scoped_for_each_mut(&mut cells, 2, fan_work);
        }
        cells[0]
    });
    let mut cells_pooled: Vec<u64> = (0..8).collect();
    let fast_ns = time_ns(sh.reps, || {
        for _ in 0..fans {
            msp_analysis::sweep::parallel_for_each_mut(&mut cells_pooled, 2, fan_work);
        }
        cells_pooled[0]
    });
    Comparison {
        name: "executor_pooled_fanout".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{fans} fan-outs of 8 small items at a pinned 2-thread request; per-call \
             std::thread::scope spawn/join (pre-PR-5 executor) vs the persistent \
             work-stealing pool ({} resolved pool threads)",
            msp_analysis::pool_threads()
        ),
    }
}

/// PR 5: the distance-transform kernel with its per-target-row fan over
/// the pool vs the same kernel pinned to single-threaded rows. Results
/// are bit-identical (asserted below); the ratio is the row-level
/// parallel speedup and scales with the core count — on a single-core
/// reference box it records ≈ 1× and is informational under the gate's
/// below-1× rule.
fn grid_dt_par_comparison(cells: usize, sh: &Shapes) -> Comparison {
    let inst = grid_instance();
    let mut dp = GridDp::new(&inst, cells);
    dp.set_row_threads(1);
    let baseline_ns = time_ns(sh.reps, || {
        dp.solve_with(
            &inst,
            ServingOrder::MoveFirst,
            TransitionKernel::DistanceTransform,
        )
    });
    dp.set_row_threads(0);
    let fast_ns = time_ns(sh.reps, || {
        dp.solve_with(
            &inst,
            ServingOrder::MoveFirst,
            TransitionKernel::DistanceTransform,
        )
    });
    let par = dp.solve_with(
        &inst,
        ServingOrder::MoveFirst,
        TransitionKernel::DistanceTransform,
    );
    dp.set_row_threads(1);
    let seq = dp.solve_with(
        &inst,
        ServingOrder::MoveFirst,
        TransitionKernel::DistanceTransform,
    );
    assert!(
        par.to_bits() == seq.to_bits(),
        "parallel/sequential DT row parity broken: {par} vs {seq}"
    );
    Comparison {
        name: format!("grid_dp_dt_par_{cells}"),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{cells}×{cells} planar grid, T=6, m=0.4, reused GridDp scratch: distance-transform \
             kernel with sequential rows vs per-target-row fan over the sweep pool \
             ({} resolved pool threads; bit-identical results)",
            msp_analysis::pool_threads()
        ),
    }
}

/// PR 5: cross-instance warm seeding. A fan of seed-adjacent planar
/// instances (shared hotspot location, per-seed request jitter — the
/// `mean_over_seeds` family shape) run cold per instance vs warm-chained
/// via `run_with_warm_hint`: each instance's first median solve starts
/// from the predecessor's converged center instead of a cold start. Short
/// horizons put the cold start on the critical path, which is exactly the
/// fan shape the chaining targets.
fn warm_fan_comparison(sh: &Shapes) -> Comparison {
    use msp_core::simulator::run_with_warm_hint;

    let k = sh.warm_fan_instances;
    let instances: Vec<Instance<2>> = (0..k as u64)
        .map(|seed| {
            let mut s = SeededSampler::new(900 + seed);
            let hotspot = P2::xy(1.4, -0.9);
            // A skewed request cloud: a tight hotspot cluster plus a ring
            // of fixed far outliers. The centroid (the cold solver's
            // starting iterate) is pulled well away from the geometric
            // median, so the cold start costs real Weiszfeld iterations —
            // while the predecessor instance's converged center is
            // already at the median. Symmetric clouds would hide the
            // chaining win (their centroid ≈ median).
            let outliers: Vec<P2> = (0..10)
                .map(|j| {
                    let a = 0.628 * j as f64 + s.uniform(0.0, 0.3);
                    hotspot + P2::xy(4.0 * a.cos(), 4.0 * a.sin())
                })
                .collect();
            let steps: Vec<Step<2>> = (0..4)
                .map(|_| {
                    let mut reqs: Vec<P2> =
                        (0..38).map(|_| hotspot + s.point_in_cube(0.08)).collect();
                    reqs.extend(outliers.iter().copied());
                    Step::new(reqs)
                })
                .collect();
            Instance::new(3.0, 0.5, P2::origin(), steps)
        })
        .collect();

    let baseline_ns = time_ns(sh.reps, || {
        let mut total = 0.0;
        for inst in &instances {
            let mut alg = MoveToCenter::new();
            total += run(inst, &mut alg, 0.2, ServingOrder::MoveFirst).total_cost();
        }
        total
    });
    let fast_ns = time_ns(sh.reps, || {
        let mut total = 0.0;
        let mut warm: Option<MoveToCenter<2>> = None;
        for inst in &instances {
            let mut alg = MoveToCenter::new();
            total +=
                run_with_warm_hint(inst, &mut alg, warm.as_ref(), 0.2, ServingOrder::MoveFirst)
                    .total_cost();
            warm = Some(alg);
        }
        total
    });
    // Parity sanity: chained totals agree with cold totals to solver
    // tolerance (hints are numerics, never policy).
    {
        let mut warm: Option<MoveToCenter<2>> = None;
        for inst in &instances {
            let mut cold_alg = MoveToCenter::new();
            let cold = run(inst, &mut cold_alg, 0.2, ServingOrder::MoveFirst).total_cost();
            let mut alg = MoveToCenter::new();
            let chained =
                run_with_warm_hint(inst, &mut alg, warm.as_ref(), 0.2, ServingOrder::MoveFirst)
                    .total_cost();
            assert!(
                (chained - cold).abs() <= 1e-8 * (1.0 + cold.abs()),
                "warm-fan parity broken: {chained} vs {cold}"
            );
            warm = Some(alg);
        }
    }
    Comparison {
        name: "cross_instance_warm_fan".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{k} seed-adjacent planar instances (T=4, 38-point hotspot cluster + 10 fixed far \
             outliers — centroid far from median); cold MoveToCenter per instance vs \
             warm-chained run_with_warm_hint (predecessor's converged median seeds each \
             first solve)"
        ),
    }
}

/// PR 7: the observability tax. One streaming MtC pass over the sweep
/// instance with the process-wide metrics registry enabled (baseline)
/// vs disabled (fast). Instrumentation is read-only and batched
/// (`OBS_STEP_FLUSH`), so the two sides must produce bit-equal costs
/// (asserted) and time within ~1% of each other — the recorded speedup
/// hovers at 1× and the 0.8× floor guards against a future probe
/// landing un-batched in the hot path.
fn obs_overhead_comparison(sh: &Shapes) -> Comparison {
    use msp_analysis::obs;
    let inst = sweep_instance(sh);
    let params = inst.params();
    let pass = || {
        run_streaming(
            &params,
            inst.steps.iter().cloned(),
            MoveToCenter::new(),
            0.2,
            ServingOrder::MoveFirst,
        )
        .total_cost()
    };
    obs::enable();
    let baseline_ns = time_ns(sh.reps, pass);
    let cost_enabled = pass();
    obs::disable();
    let fast_ns = time_ns(sh.reps, pass);
    let cost_disabled = pass();
    assert_eq!(
        cost_enabled.to_bits(),
        cost_disabled.to_bits(),
        "metrics toggling changed streaming results"
    );
    Comparison {
        name: "obs_overhead_streaming".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "one streaming MoveToCenter pass over T={} with the obs registry enabled              (baseline) vs disabled (fast); bit-equal costs asserted, contract ≈ 1×",
            sh.sweep_horizon
        ),
    }
}

/// PR 8: the session-churn tax of the bounded-memory service tier. The
/// same round-robin fleet advance runs through a
/// [`msp_scenarios::SessionService`] with
/// a resident cap of 1 — every touch collapses the previous session to
/// warm state and resumes the next one (maximum evict/resume churn) —
/// vs a cap covering the whole fleet, where every simulator stays live.
/// Costs must be bit-equal across the two configurations (that is the
/// service's resume contract; asserted), so the ratio isolates pure
/// churn overhead: checkpoint + warm-state encode on evict, algorithm
/// clone + decode on resume.
fn session_churn_comparison(sh: &Shapes) -> Comparison {
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

    fn run_fleet(n: usize, max_resident: usize) -> f64 {
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
        let mut total = 0.0;
        for _ in 0..CHURN_STEPS / CHURN_SLICE {
            for s in 0..n as u64 {
                total += service
                    .advance(&format!("churn{s}"), CHURN_SLICE)
                    .expect("advance churn session")
                    .total_cost;
            }
        }
        total
    }

    let n = sh.churn_sessions;
    let baseline_ns = time_ns(sh.reps, || run_fleet(n, 1));
    let fast_ns = time_ns(sh.reps, || run_fleet(n, n));
    let (churned, resident) = (run_fleet(n, 1), run_fleet(n, n));
    assert_eq!(
        churned.to_bits(),
        resident.to_bits(),
        "session churn changed results: {churned} vs {resident}"
    );
    Comparison {
        name: "service_session_churn".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "{n} single-request sessions × {CHURN_STEPS} steps advanced round-robin in \
             {CHURN_SLICE}-step slices through a memory-only SessionService; resident cap 1 \
             (evict + warm-resume on every touch) vs cap {n} (all live); bit-equal costs asserted"
        ),
    }
}

/// PR 9: O(1) `seek_to_step` through the v3 index trailer vs scanning
/// frames from the start of the trace to the same probe steps. Both
/// sides use the same reader and end on the same frame (bit-equality
/// asserted), so the measured gap is exactly the scan prefix the index
/// makes unnecessary.
fn corpus_seek_vs_scan(sh: &Shapes) -> Comparison {
    use msp_scenarios::{record_to_vec, BlockTraceReader, InstanceStream, RequestStream};

    let inst = sweep_instance(sh);
    let total = inst.horizon();
    let bytes = record_to_vec(
        &mut InstanceStream::new(inst),
        msp_scenarios::TraceFormat::BlockV3 { block: 64 },
    )
    .expect("record v3 trace");
    let mut reader = BlockTraceReader::<2>::open(&bytes).expect("open v3 trace");
    let probes: Vec<usize> = (1..=4).map(|i| i * (total - 1) / 4).collect();

    let frame_bits = |frame: &[P2]| -> Vec<[u64; 2]> {
        frame
            .iter()
            .map(|p| [p[0].to_bits(), p[1].to_bits()])
            .collect()
    };
    for &k in &probes {
        reader.rewind();
        for _ in 0..k {
            reader.next_frame().expect("scan").expect("frame");
        }
        let scanned = frame_bits(reader.next_frame().expect("scan").expect("frame"));
        reader.seek_to_step(k).expect("seek");
        let sought = frame_bits(reader.next_frame().expect("seek read").expect("frame"));
        assert_eq!(scanned, sought, "seek({k}) diverged from the scanned frame");
    }

    let baseline_ns = time_ns(sh.reps, || {
        let mut acc = 0usize;
        for &k in &probes {
            reader.rewind();
            for _ in 0..k {
                reader.next_frame().unwrap().unwrap();
            }
            acc += reader.next_frame().unwrap().unwrap().len();
        }
        acc
    });
    let fast_ns = time_ns(sh.reps, || {
        let mut acc = 0usize;
        for &k in &probes {
            reader.seek_to_step(k).unwrap();
            acc += reader.next_frame().unwrap().unwrap().len();
        }
        acc
    });
    Comparison {
        name: "corpus_seek_vs_scan".into(),
        baseline_ns,
        fast_ns,
        detail: format!(
            "4 probe steps across a {total}-step block-v3 trace (64 steps/block): \
             seek_to_step via the CRC-guarded index trailer vs scanning frames from the \
             start; identical frames asserted bit-equal"
        ),
    }
}

/// Extracts `(name, speedup)` pairs from a previously recorded report.
/// The format is our own compact emitter's (`"name":"…"` precedes
/// `"speedup":…` inside each bench object, keys alphabetical), so a
/// lightweight scan (the workspace has no JSON parser dependency) is
/// sufficient and stable.
fn recorded_speedups(text: &str) -> Vec<(String, f64, Option<usize>)> {
    fn number_after(chunk: &str, key: &str) -> Option<String> {
        let pos = chunk.find(key)?;
        Some(
            chunk[pos + key.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
                .collect(),
        )
    }
    let mut out = Vec::new();
    for chunk in text.split("\"name\":\"").skip(1) {
        let Some(name_end) = chunk.find('"') else {
            continue;
        };
        let name = chunk[..name_end].to_string();
        let pool = number_after(chunk, "\"pool_threads\":").and_then(|n| n.parse::<usize>().ok());
        let Some(num) = number_after(chunk, "\"speedup\":") else {
            continue;
        };
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v, pool));
        }
    }
    out
}

const HELP: &str = "\
perf_report — measure the tracked fast-path/baseline pairs and write a
machine-readable perf record.

Usage:
  cargo run --release -p msp-bench --bin perf_report [-- FLAGS] [out.json]

Flags:
  --quick            reduced CI smoke shapes (default output bench-ci.json)
  --check <file>     exit non-zero if any tracked speedup falls below 0.8x
                     of the value recorded under the same name in <file>
  --help             this message

The default output is BENCH_16.json. docs/BENCHMARKS.md explains how the
BENCH_*.json records are produced, what the 0.8x CI gate means, and how to
regenerate the references after a hardware change.";

fn main() {
    let mut quick = false;
    let mut check: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            "--quick" => quick = true,
            "--check" => check = Some(args.next().expect("--check needs a file path")),
            other => out_path = Some(other.to_string()),
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        if quick {
            "bench-ci.json".into()
        } else {
            "BENCH_16.json".into()
        }
    });
    let sh = if quick {
        Shapes::quick()
    } else {
        Shapes::full()
    };

    let comparisons = vec![
        service_kernel_comparison(64, "kernel_service_cost_n64", &sh),
        service_kernel_comparison(256, "kernel_service_cost_n256", &sh),
        dp_serve_scan_comparison(&sh),
        median_comparison(16, "median_drift_n16", &sh),
        median_comparison(64, "median_drift_n64", &sh),
        batch_comparison(
            &sh,
            pinned_seeded_options(),
            "multi_delta_sweep",
            "cross-lane seeded, one pinned lane group — machine-independent shape",
        ),
        batch_comparison(
            &sh,
            BatchOptions::strict(),
            "multi_delta_sweep_strict",
            "unseeded strict lanes",
        ),
        streaming_batch_comparison(&sh),
        grid_comparison(sh.grid_cells[0], &sh),
        grid_comparison(sh.grid_cells[1], &sh),
        grid_smawk_comparison(sh.grid_cells[0], &sh),
        grid_smawk_comparison(sh.grid_cells[1], &sh),
        sweep_warm_dp_comparison(&sh),
        executor_fanout_comparison(&sh),
        grid_dt_par_comparison(sh.grid_cells[0], &sh),
        grid_dt_par_comparison(sh.grid_cells[1], &sh),
        warm_fan_comparison(&sh),
        obs_overhead_comparison(&sh),
        session_churn_comparison(&sh),
        corpus_seek_vs_scan(&sh),
    ];

    for c in &comparisons {
        println!(
            "{:<26} baseline {:>12} ns   fast {:>12} ns   speedup {:>6.2}×",
            c.name,
            c.baseline_ns,
            c.fast_ns,
            c.speedup()
        );
    }

    let json = Json::obj([
        ("pr", Json::Num(16.0)),
        ("quick", Json::from(quick)),
        (
            "tier1",
            Json::Str("cargo build --release && cargo test -q".into()),
        ),
        (
            "benches",
            Json::Arr(comparisons.iter().map(Comparison::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, json.to_string() + "\n").expect("write perf report");
    println!("wrote {out_path}");

    if let Some(recorded_path) = check {
        let recorded = std::fs::read_to_string(&recorded_path)
            .unwrap_or_else(|e| panic!("read {recorded_path}: {e}"));
        let recorded = recorded_speedups(&recorded);
        let mut failed = false;
        for c in &comparisons {
            let Some((_, want, rec_pool)) = recorded.iter().find(|(n, _, _)| *n == c.name) else {
                println!("check: {:<26} (not in {recorded_path}, skipped)", c.name);
                continue;
            };
            if pool_sensitive(&c.name) && msp_analysis::pool_threads() == 1 {
                // On a single-core pool the parallel fast path collapses
                // to the sequential one, so the pair records ≈ 1× by
                // construction: "not measurable here", which is not the
                // same verdict as "regressed".
                println!(
                    "check: {:<26} informational ({:.2}× — parallel pair on a 1-thread pool, \
                     not measurable here, not gated)",
                    c.name,
                    c.speedup(),
                );
                continue;
            }
            if pool_sensitive(&c.name) && *rec_pool != Some(msp_analysis::pool_threads()) {
                // A pool-width mismatch means the recorded and measured
                // fast paths are different code paths (inline vs real
                // dispatch; different row-fan widths) — not comparable,
                // same rule as quick-vs-full shapes.
                println!(
                    "check: {:<26} informational ({:.2}× at {} pool threads vs recorded {want:.2}× \
                     at {} — width mismatch, not gated)",
                    c.name,
                    c.speedup(),
                    msp_analysis::pool_threads(),
                    rec_pool.map_or("unknown".into(), |w| w.to_string()),
                );
                continue;
            }
            if *want < 1.0 {
                // Benches recorded below 1× are informational (e.g. the
                // obs overhead pair, ≈ 1× by design): their ratio hovers
                // around parity and is the most microarch-sensitive
                // number in the record — gating it would flake on
                // heterogeneous CI runners.
                println!(
                    "check: {:<26} informational ({:.2}× vs recorded {want:.2}×, not gated)",
                    c.name,
                    c.speedup()
                );
                continue;
            }
            let floor = 0.8 * want;
            let got = c.speedup();
            if got < floor {
                println!(
                    "check: {:<26} REGRESSED — {got:.2}× < 0.8 × recorded {want:.2}×",
                    c.name
                );
                failed = true;
            } else {
                println!(
                    "check: {:<26} ok — {got:.2}× vs recorded {want:.2}× (floor {floor:.2}×)",
                    c.name
                );
            }
        }
        if failed {
            eprintln!("perf_smoke: tracked speedups regressed below 0.8× of {recorded_path}");
            std::process::exit(1);
        }
    }
}
