//! Benchmarks of the fast paths against their baselines:
//!
//! * chunked distance kernels (service cost, SoA service scan) vs their
//!   scalar oracles,
//! * warm-started drifting-cluster median solves vs cold starts,
//! * multi-δ batched simulation (cross-lane seeded and strict) vs
//!   repeated single runs,
//! * radius-pruned grid DP vs the all-pairs transition scan.
//!
//! The `perf_report` binary measures the same pairs and records the
//! speedups in the `BENCH_*.json` records; these Criterion wrappers keep
//! the numbers under `cargo bench` alongside the rest of the suite.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use msp_core::cost::{service_cost, service_cost_naive, ServingOrder};
use msp_core::model::{Instance, Step};
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{run, run_batch, run_batch_with, BatchOptions};
use msp_geometry::median::{weighted_center, weighted_center_classic, MedianOptions, MedianSolver};
use msp_geometry::sample::SeededSampler;
use msp_geometry::soa::SoaPoints;
use msp_geometry::P2;
use msp_offline::grid::{grid_optimum_unpruned, GridDp};
use msp_workloads::{DriftingHotspot, DriftingHotspotConfig, RequestCount};

/// A drifting cluster: the per-step request sets of a hotspot wandering
/// through the arena — the workload shape that makes warm starts pay.
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

fn bench_median_warm_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("median_drift");
    for &n in &[16usize, 64] {
        let sets = drifting_clusters(n, 64);
        // The seed's solver (full-length Weiszfeld + exhaustive snap): the
        // "before" of this PR's trajectory.
        group.bench_with_input(BenchmarkId::new("cold_classic", n), &sets, |b, sets| {
            b.iter(|| {
                let reference = P2::origin();
                let mut acc = P2::origin();
                for pts in sets {
                    acc = weighted_center_classic(
                        black_box(pts),
                        &vec![1.0; pts.len()],
                        &reference,
                        MedianOptions::default(),
                    );
                }
                acc
            })
        });
        // The hybrid Weiszfeld/Newton pipeline, still starting cold.
        group.bench_with_input(BenchmarkId::new("cold_hybrid", n), &sets, |b, sets| {
            b.iter(|| {
                let reference = P2::origin();
                let mut acc = P2::origin();
                for pts in sets {
                    acc = weighted_center(black_box(pts), &reference, MedianOptions::default());
                }
                acc
            })
        });
        // The warm-started, allocation-free per-step solver.
        group.bench_with_input(BenchmarkId::new("warm", n), &sets, |b, sets| {
            b.iter(|| {
                let reference = P2::origin();
                let mut solver = MedianSolver::<2>::new(MedianOptions::default());
                let mut acc = P2::origin();
                for pts in sets {
                    acc = solver.center(black_box(pts), &reference);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_multi_delta_batch(c: &mut Criterion) {
    let gen = DriftingHotspot::new(DriftingHotspotConfig::<2> {
        horizon: 600,
        d: 4.0,
        max_move: 1.0,
        drift_speed: 0.5,
        momentum: 0.8,
        spread: 0.5,
        arena_half_width: 100.0,
        count: RequestCount::Fixed(4),
    });
    let inst = gen.generate(3);
    let deltas = [0.0, 0.1, 0.2, 0.4, 0.8];
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];

    let mut group = c.benchmark_group("multi_delta");
    group.bench_with_input(BenchmarkId::from_parameter("repeated"), &inst, |b, inst| {
        b.iter(|| {
            let mut total = 0.0;
            for &delta in &deltas {
                for &order in &orders {
                    let mut alg = MoveToCenter::new();
                    total += run(black_box(inst), &mut alg, delta, order).total_cost();
                }
            }
            total
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("batched"), &inst, |b, inst| {
        b.iter(|| {
            run_batch(black_box(inst), &MoveToCenter::new(), &deltas, &orders)
                .iter()
                .map(|r| r.total_cost())
                .sum::<f64>()
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("batched_strict"),
        &inst,
        |b, inst| {
            b.iter(|| {
                run_batch_with(
                    black_box(inst),
                    &MoveToCenter::new(),
                    &deltas,
                    &orders,
                    BatchOptions::strict(),
                )
                .iter()
                .map(|r| r.total_cost())
                .sum::<f64>()
            })
        },
    );
    group.finish();
}

fn bench_distance_kernels(c: &mut Criterion) {
    let mut s = SeededSampler::new(5);
    let mut group = c.benchmark_group("distance_kernels");
    for &n in &[64usize, 256] {
        let pts: Vec<P2> = (0..n).map(|_| s.point_in_cube(3.0)).collect();
        let p = P2::xy(0.4, -0.3);
        group.bench_with_input(BenchmarkId::new("service_naive", n), &pts, |b, pts| {
            b.iter(|| service_cost_naive(black_box(&p), black_box(pts)))
        });
        group.bench_with_input(BenchmarkId::new("service_chunked", n), &pts, |b, pts| {
            b.iter(|| service_cost(black_box(&p), black_box(pts)))
        });
    }
    // The grid DP's service-scan shape: many nodes, few requests.
    let nodes: Vec<P2> = (0..4096).map(|_| s.point_in_cube(3.0)).collect();
    let nodes_soa = SoaPoints::from_points(&nodes);
    let requests = [P2::xy(1.0, 1.3), P2::xy(0.2, 2.0), P2::xy(2.1, 0.4)];
    let mut serve = vec![0.0f64; nodes.len()];
    group.bench_function("dp_serve_scan_naive", |b| {
        b.iter(|| {
            for (k, pk) in nodes.iter().enumerate() {
                serve[k] = service_cost_naive(pk, black_box(&requests));
            }
            serve[0]
        })
    });
    group.bench_function("dp_serve_scan_soa", |b| {
        b.iter(|| {
            nodes_soa.service_costs_into(black_box(&requests), &mut serve);
            serve[0]
        })
    });
    group.finish();
}

fn bench_grid_dp(c: &mut Criterion) {
    let steps: Vec<Step<2>> = (0..6)
        .map(|t| {
            let a = t as f64 * 0.9;
            Step::new(vec![P2::xy(a.cos(), a.sin()), P2::xy(-0.4 * a.sin(), 0.7)])
        })
        .collect();
    let inst = Instance::new(2.0, 0.4, P2::origin(), steps);

    let mut group = c.benchmark_group("grid_dp");
    for &cells in &[25usize, 41] {
        group.bench_with_input(BenchmarkId::new("allpairs", cells), &inst, |b, inst| {
            b.iter(|| grid_optimum_unpruned(black_box(inst), cells, ServingOrder::MoveFirst))
        });
        group.bench_with_input(BenchmarkId::new("windowed", cells), &inst, |b, inst| {
            let mut dp = GridDp::new(inst, cells);
            b.iter(|| dp.solve(black_box(inst), ServingOrder::MoveFirst))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_distance_kernels, bench_median_warm_start, bench_multi_delta_batch, bench_grid_dp
);
criterion_main!(benches);
