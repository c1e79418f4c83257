//! Microbenchmarks of the geometry substrate: the geometric median is the
//! inner loop of every MtC decision.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use msp_geometry::median::{geometric_median, weighted_center, MedianOptions};
use msp_geometry::sample::SeededSampler;
use msp_geometry::P2;

fn bench_geometric_median(c: &mut Criterion) {
    let mut group = c.benchmark_group("geometric_median");
    for &n in &[4usize, 16, 64, 256] {
        let mut s = SeededSampler::new(1);
        let pts: Vec<P2> = (0..n).map(|_| s.point_in_cube(10.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| geometric_median(black_box(pts)))
        });
    }
    group.finish();
}

fn bench_collinear_center(c: &mut Criterion) {
    // The 1-D fast path (exact median + tie-break) that every line
    // experiment hits.
    let mut s = SeededSampler::new(2);
    let pts: Vec<P2> = (0..64).map(|_| P2::xy(s.uniform(-5.0, 5.0), 0.0)).collect();
    let reference = P2::xy(0.3, 0.0);
    c.bench_function("weighted_center_collinear_64", |b| {
        b.iter(|| {
            weighted_center(
                black_box(&pts),
                black_box(&reference),
                MedianOptions::default(),
            )
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_geometric_median, bench_collinear_center
);
criterion_main!(benches);
