//! Parity tests for the fast paths: every optimization must return the
//! same answers as the slow path it replaced.
//!
//! * [`MedianSolver`] vs the free function (bit for bit) vs the seed's
//!   classic solver,
//! * the grid DP's windowed scan vs the all-pairs scan: exactly equal
//!   (the pruned window provably enumerates the same transition set; the
//!   full parity matrix lives in `tests/transition_kernels.rs`),
//! * the batch engine vs the single-run path: `run_batch` bit-equal to
//!   repeated `run` calls for every algorithm, over one table of instance
//!   shapes.

use mobile_server::core::cost::ServingOrder;
use mobile_server::geometry::median::{
    collinear, median_optimality_gap, sum_of_distances, weighted_center, weighted_center_classic,
    weighted_center_weighted, MedianSolver,
};
use mobile_server::geometry::sample::SeededSampler;
use mobile_server::offline::{grid_optimum, grid_optimum_unpruned, GridDp};
use mobile_server::prelude::*;
use proptest::prelude::*;

/// Drifting random clusters: the per-step request sets a simulation solves.
fn drifting_sets(seed: u64, n: usize, steps: usize) -> Vec<Vec<P2>> {
    let mut s = SeededSampler::new(seed);
    let offsets: Vec<P2> = (0..n).map(|_| s.point_in_cube(3.0)).collect();
    (0..steps)
        .map(|t| {
            let c = P2::xy(0.04 * t as f64, -0.03 * t as f64);
            offsets
                .iter()
                .map(|o| c + *o + s.point_in_cube(0.1))
                .collect()
        })
        .collect()
}

/// Unit vector at angle `a` (radians).
fn dir(a: f64) -> P2 {
    P2::xy(a.cos(), a.sin())
}

/// Exact coordinates, for asserting that a solver returned an input point
/// bit for bit.
fn bits<const N: usize>(p: Point<N>) -> [u64; N] {
    p.0.map(f64::to_bits)
}

/// Solves a three- or four-point set with `solver` (carried across calls)
/// and with the free function, against the classic oracle. The two must
/// be bit-equal. The closed form fired when the solve billed no
/// iteration; the center must then be certified (`gap ≤ 1e-10·n`).
/// Either way the objective is no worse than the oracle's beyond 1e-12
/// relative (the oracle's plain Weiszfeld can stop short near a 120°
/// vertex, so it may be worse); positions are left to the caller, since
/// near-degenerate sets have flat valleys. Returns the center and whether
/// the closed form fired.
fn small_set_parity<const N: usize>(
    solver: &mut MedianSolver<N>,
    pts: &[Point<N>],
    at: &str,
) -> (Point<N>, bool) {
    let reference = Point::<N>::splat(0.5);
    let c = solver.center(pts, &reference);
    let fired = solver.telemetry.last_iterations == 0;
    let free = weighted_center(pts, &reference);
    let classic = weighted_center_classic(pts, &vec![1.0; pts.len()], &reference);
    assert_eq!(
        bits(c),
        bits(free),
        "{at}: solver {c:?} vs free function {free:?}"
    );
    if fired {
        let gap = median_optimality_gap(pts, &free);
        assert!(gap <= 1e-10 * pts.len() as f64, "{at}: gap {gap}");
    }
    let (obj, oracle) = (
        sum_of_distances(pts, &free),
        sum_of_distances(pts, &classic),
    );
    assert!(
        obj - oracle <= 1e-12 * oracle,
        "{at}: objective {obj} vs oracle {oracle} on {pts:?}"
    );
    (free, fired)
}

/// A three- or four-point shape for the closed forms, with the input
/// point the median must be returned as bit for bit, if it is one:
///
/// * `0` — an apex angle of 120° + 1e-7 rad (Torricelli's vertex case
///   with almost no margin);
/// * `1` — an apex angle of 120° − 1e-6 rad (the Fermat point a hair
///   inside, where the candidate may be rejected);
/// * `2` — a point on an edge of the other three's triangle (its median
///   up to rounding, so no index);
/// * `3` — `{A, A, B, C}`: the duplicate is the median;
/// * `4` — an anchor-optimal set ([`anchor_optimal_set`] kinds 0–2)
///   offset by 1e9;
/// * `5` — a 1e-6-wide cluster of two or three points and one far point.
fn small_shape(kind: usize, s: &mut SeededSampler) -> (Vec<P2>, Option<usize>) {
    use std::f64::consts::TAU;
    let apex: P2 = s.point_in_cube(5.0);
    let phi = s.uniform(0.0, TAU);
    match kind {
        0 | 1 => {
            let theta = 120f64.to_radians() + if kind == 0 { 1e-7 } else { -1e-6 };
            let pts = vec![
                apex + dir(phi) * s.uniform(0.5, 5.0),
                apex,
                apex + dir(phi + theta) * s.uniform(0.5, 5.0),
            ];
            (pts, (kind == 0).then_some(1))
        }
        2 => {
            let (a, b, c) = (
                apex + dir(phi) * s.uniform(1.0, 5.0),
                apex + dir(phi + 2.1) * s.uniform(1.0, 5.0),
                apex + dir(phi + 4.2) * s.uniform(1.0, 5.0),
            );
            (vec![a, b, c, b + (c - b) * s.uniform(0.2, 0.8)], None)
        }
        3 => {
            let b = apex + dir(phi) * s.uniform(0.5, 5.0);
            let c = apex + dir(phi + s.uniform(0.3, 2.8)) * s.uniform(0.5, 5.0);
            (vec![apex, b, apex, c], Some(0))
        }
        4 => {
            let (pts, anchor) = anchor_optimal_set(s.int_inclusive(0, 2), s);
            let far = P2::xy(1e9, -1e9);
            (pts.iter().map(|p| *p + far).collect(), Some(anchor))
        }
        _ => {
            let mut pts: Vec<P2> = (0..s.int_inclusive(2, 3))
                .map(|_| apex + s.point_in_cube::<2>(0.5e-6))
                .collect();
            pts.push(apex + dir(phi) * s.uniform(1.0, 10.0));
            (pts, None)
        }
    }
}

/// A request set whose geometric median is one of its points, with that
/// point's index. Anchor optimality holds by construction (the unit pulls
/// of the other points sum to a norm below the anchor's multiplicity), not
/// by trusting a solver:
///
/// * `0` — three points with an apex angle of 125°–170° (Torricelli's
///   vertex case: the two unit pulls sum to at most 2·cos 62.5° ≈ 0.92);
/// * `1` — the same apex plus a fourth point behind it, within 40° of the
///   direction opposite the arms' bisector (the three pulls sum to ≤ 0.88);
/// * `2` — a point strictly inside the triangle of three others;
/// * `3` — one point three times over, with two others off its line.
fn anchor_optimal_set(kind: usize, s: &mut SeededSampler) -> (Vec<P2>, usize) {
    use std::f64::consts::{PI, TAU};
    let apex: P2 = s.point_in_cube(5.0);
    let phi = s.uniform(0.0, TAU);
    match kind {
        0 | 1 => {
            let theta = s.uniform(125.0, 170.0).to_radians();
            let mut pts = vec![
                apex + dir(phi) * s.uniform(0.5, 5.0),
                apex,
                apex + dir(phi + theta) * s.uniform(0.5, 5.0),
            ];
            if kind == 1 {
                let back = phi + theta / 2.0 + PI + s.uniform(-40.0, 40.0).to_radians();
                pts.push(apex + dir(back) * s.uniform(0.5, 5.0));
            }
            (pts, 1)
        }
        2 => {
            let mut pts: Vec<P2> = (0..3)
                .map(|i| {
                    let a = phi + i as f64 * TAU / 3.0 + s.uniform(-0.5, 0.5);
                    apex + dir(a) * s.uniform(1.0, 5.0)
                })
                .collect();
            let bary = [0; 3].map(|_| s.uniform(0.15, 1.0));
            let total: f64 = bary.iter().sum();
            let inner = pts
                .iter()
                .zip(bary)
                .fold(P2::origin(), |acc, (p, b)| acc + *p * (b / total));
            pts.insert(2, inner);
            (pts, 2)
        }
        _ => {
            let a = apex + dir(phi) * s.uniform(0.5, 5.0);
            let b = apex + dir(phi + s.uniform(0.3, 2.8)) * s.uniform(0.5, 5.0);
            (vec![a, apex, b, apex, apex], 1)
        }
    }
}

/// Step `t` of a slow rigid drift (rotation about the origin, then a
/// translation): it preserves angles and containment, so an
/// anchor-optimal set stays optimal at the same index.
fn rigid_drift(p: P2, t: usize) -> P2 {
    let (sin, cos) = (0.01 * t as f64).sin_cos();
    P2::xy(cos * p[0] - sin * p[1], sin * p[0] + cos * p[1]) + P2::xy(0.04, -0.03) * t as f64
}

#[test]
fn median_solver_matches_free_function_and_classic_within_1e9() {
    for (seed, n) in [(0u64, 3), (1, 10), (2, 17), (3, 24), (4, 4), (5, 4)] {
        let sets = drifting_sets(seed, n, 120);
        let reference = P2::xy(0.5, -0.5);
        let mut solver = MedianSolver::<2>::new();
        for (t, pts) in sets.iter().enumerate() {
            if n <= 4 {
                // Well-conditioned small sets: the closed form fires.
                let at = format!("seed {seed} step {t}");
                assert!(
                    small_set_parity(&mut solver, pts, &at).1,
                    "{at}: not closed form"
                );
            }
            let c = solver.center(pts, &reference);
            let free = weighted_center(pts, &reference);
            let classic = weighted_center_classic(pts, &vec![1.0; pts.len()], &reference);
            assert_eq!(
                bits(c),
                bits(free),
                "seed {seed} step {t}: solver {c:?} vs free function {free:?}"
            );
            assert!(
                c.distance(&classic) < 1e-9,
                "seed {seed} step {t}: solver {c:?} vs classic {classic:?}"
            );
            assert!(
                median_optimality_gap(pts, &c) < 1e-6,
                "seed {seed} step {t}: center not optimal"
            );
        }
        // Closed forms bill no iterations; larger sets run the pipeline.
        assert_eq!(solver.telemetry.iterations == 0, n <= 4, "n {n}");
    }

    // Median on an input point: the solver and the free function must
    // return that very point. Kinds 0–2 have three or four points and take
    // the closed form.
    for kind in 0..4 {
        for seed in 0..4u64 {
            let (base, anchor) =
                anchor_optimal_set(kind, &mut SeededSampler::new(100 * kind as u64 + seed));
            let reference = P2::xy(0.5, -0.5);
            let mut solver = MedianSolver::<2>::new();
            for t in 0..60 {
                let pts: Vec<P2> = base.iter().map(|p| rigid_drift(*p, t)).collect();
                let c = solver.center(&pts, &reference);
                let free = weighted_center(&pts, &reference);
                let classic = weighted_center_classic(&pts, &vec![1.0; pts.len()], &reference);
                let at = format!("kind {kind} seed {seed} step {t}");
                assert_eq!(bits(c), bits(pts[anchor]), "{at}: solver {c:?}");
                assert_eq!(bits(free), bits(pts[anchor]), "{at}: free {free:?}");
                assert!(c.distance(&classic) < 1e-9, "{at}: classic {classic:?}");
            }
            assert_eq!(solver.telemetry.iterations > 0, kind == 3, "kind {kind}");
        }
    }

    // Constructed three- and four-point shapes, drifting rigidly: the
    // closed form must fire on every well-conditioned one (all but the
    // hair-inside Fermat point and the tight cluster), and anchor-optimal
    // ones return their anchor bit for bit.
    for kind in 0..6 {
        for seed in 0..4u64 {
            let mut s = SeededSampler::new(500 + 10 * kind as u64 + seed);
            let (base, anchor) = small_shape(kind, &mut s);
            let mut solver = MedianSolver::<2>::new();
            for t in 0..60 {
                let pts: Vec<P2> = base.iter().map(|p| rigid_drift(*p, t)).collect();
                let at = format!("shape {kind} seed {seed} step {t}");
                let (center, fired) = small_set_parity(&mut solver, &pts, &at);
                assert!(fired || kind == 1 || kind == 5, "{at}: not closed form");
                if let Some(k) = anchor {
                    assert_eq!(bits(center), bits(pts[k]), "{at}: {center:?}");
                }
                if kind == 2 {
                    assert!(center.distance(&pts[3]) < 1e-12, "{at}: {center:?}");
                }
            }
        }
    }

    // Triangles in space take the closed form too.
    let mut s = SeededSampler::new(77);
    let mut solver = MedianSolver::<3>::new();
    for t in 0..200 {
        let pts: Vec<P3> = (0..3).map(|_| s.point_in_cube(5.0)).collect();
        let at = format!("space triangle {t}");
        assert!(
            small_set_parity(&mut solver, &pts, &at).1,
            "{at}: not closed form"
        );
    }
}

/// A planar workload with 0–4 requests per step scattered (cube
/// half-width `spread`) around a center moving along
/// `(amp·sin(freq·t), drift·t)`.
fn batch_instance(
    seed: u64,
    horizon: usize,
    (freq, amp, drift, spread): (f64, f64, f64, f64),
) -> Instance<2> {
    let mut s = SeededSampler::new(seed);
    let steps = (0..horizon)
        .map(|t| {
            let r = s.int_inclusive(0, 4);
            let c = P2::xy((t as f64 * freq).sin() * amp, drift * t as f64);
            Step::new((0..r).map(|_| c + s.point_in_cube(spread)).collect())
        })
        .collect();
    Instance::new(3.0, 0.8, P2::origin(), steps)
}

/// Every `(δ, order)` result of `run_batch` is bit-equal to a fresh
/// `run` of a clone of `algorithm`.
fn assert_batch_matches_runs<A: OnlineAlgorithm<2> + Clone + Send>(
    shape: &str,
    inst: &Instance<2>,
    deltas: &[f64],
    algorithm: A,
) {
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
    let batch = run_batch(inst, &algorithm, deltas, &orders);
    assert_eq!(batch.len(), deltas.len() * orders.len(), "{shape}");
    let grid = deltas
        .iter()
        .flat_map(|&delta| orders.iter().map(move |&order| (delta, order)));
    for (b, (delta, order)) in batch.iter().zip(grid) {
        let single = run(inst, &mut algorithm.clone(), delta, order);
        let at = format!("{shape}: {} δ={delta} {order:?}", single.algorithm);
        assert_eq!((b.delta, b.order), (delta, order), "{at}");
        assert_eq!(b.algorithm, single.algorithm, "{at}");
        assert_eq!(b.positions, single.positions, "{at}");
        assert_eq!(
            b.total_cost().to_bits(),
            single.total_cost().to_bits(),
            "{at}"
        );
    }
}

/// The batch engine reproduces repeated `run` calls **bit for bit**: each
/// δ-lane is an independent run through the same step function, and the
/// parallel fan-out only reorders wall-clock execution. The coin-flip
/// baseline carries state (an internally seeded RNG, reseeded at reset)
/// that `run_batch` must reset per lane; MtC is memoryless. One row per instance shape: a single request marching right,
/// and drifting planar walks of 70 to 300 steps.
#[test]
fn run_batch_matches_repeated_runs_for_all_algorithms() {
    let march = (0..25)
        .map(|i| Step::single(P2::xy(1.0 + i as f64, 0.0)))
        .collect();
    let walk = (0.1, 5.0, 0.05, 1.5);
    let slow_walk = (0.09, 4.0, 0.04, 1.2);
    let table: [(&str, Instance<2>, &[f64]); 4] = [
        (
            "march T=25",
            Instance::new(1.0, 1.0, P2::origin(), march),
            &[0.0, 0.1, 0.5, 1.0],
        ),
        ("walk T=80", batch_instance(9, 80, walk), &[0.0, 0.15, 0.6]),
        (
            "walk T=70",
            batch_instance(21, 70, walk),
            &[0.0, 0.2, 0.5, 0.9],
        ),
        (
            "slow walk T=300",
            batch_instance(7, 300, slow_walk),
            &[0.0, 0.3, 0.8],
        ),
    ];
    for (shape, inst, deltas) in &table {
        assert_batch_matches_runs(shape, inst, deltas, MoveToCenter::new());
        assert_batch_matches_runs(shape, inst, deltas, RandomizedCoinFlip::<2>::new(7));
    }
}

#[test]
fn grid_dp_kernels_agree_with_all_pairs_on_random_instances() {
    for seed in 0..3u64 {
        let mut s = SeededSampler::new(100 + seed);
        let steps: Vec<Step<2>> = (0..5)
            .map(|_| {
                let r = s.int_inclusive(1, 3);
                Step::new((0..r).map(|_| s.point_in_cube(1.2)).collect())
            })
            .collect();
        let inst = Instance::new(1.0 + seed as f64, 0.5, P2::origin(), steps);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            for cells in [11, 19, 27] {
                let mut dp = GridDp::new(&inst, cells);
                let full = dp.solve_unpruned(&inst, order);
                let pruned = dp.solve(&inst, order);
                assert_eq!(
                    pruned, full,
                    "seed {seed} {order:?} cells={cells}: {pruned} vs {full}"
                );
                // grid_optimum is the windowed scan: same numbers, one shot.
                assert_eq!(pruned, grid_optimum(&inst, cells, order));
            }
        }
    }
}

fn arb_cloud(max: usize) -> impl Strategy<Value = Vec<P2>> {
    prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| P2::xy(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hybrid_median_matches_classic_oracle(pts in arb_cloud(24), wseed in any::<u64>()) {
        let mut s = SeededSampler::new(wseed);
        let w: Vec<f64> = (0..pts.len()).map(|_| s.uniform(0.2, 4.0)).collect();
        let reference = P2::xy(0.3, 0.7);
        let fast = weighted_center_weighted(&pts, &w, &reference);
        let classic = weighted_center_classic(&pts, &w, &reference);
        prop_assert!(fast.distance(&classic) < 1e-7, "{:?} vs {:?}", fast, classic);

        // Anchor-optimal variants of the same draw: one weight above half
        // the total, the same point outnumbering all others, and a
        // constructed shape. Collinear sets take the exact 1-D path
        // instead, so only general-position sets are checked here.
        let k = (wseed % pts.len() as u64) as usize;
        let mut heavy = w.clone();
        heavy[k] = 1.25 * (w.iter().sum::<f64>() - w[k]) + 0.1;
        let mut dup = pts.clone();
        dup.extend(std::iter::repeat_n(pts[k], pts.len()));
        let (shape, apex) = anchor_optimal_set((wseed % 4) as usize, &mut s);
        let (dup_w, shape_w) = (vec![1.0; dup.len()], vec![1.0; shape.len()]);
        let cases = [(pts.clone(), heavy, k), (dup, dup_w, k), (shape, shape_w, apex)];
        // One solver across the cases, as a simulation carries it.
        let mut solver = MedianSolver::<2>::new();
        for (set, weights, anchor) in cases {
            if collinear(&set, 1e-12).is_some() {
                continue;
            }
            let free = weighted_center_weighted(&set, &weights, &reference);
            let mut c = P2::origin();
            solver.weighted_center_into(&set, &weights, &reference, &mut c);
            let classic = weighted_center_classic(&set, &weights, &reference);
            prop_assert_eq!(bits(free), bits(set[anchor]), "free {:?} on {:?}", free, set);
            prop_assert_eq!(bits(c), bits(set[anchor]), "solver {:?} on {:?}", c, set);
            prop_assert!(free.distance(&classic) < 1e-7, "{:?} vs {:?}", free, classic);
        }

        // Three and four points of the same draw, and {A, A, B, C}: the
        // closed forms.
        if pts.len() >= 4 {
            let dup = [pts[0], pts[1], pts[0], pts[2]];
            for (i, set) in [&pts[..3], &pts[..4], &dup[..]].into_iter().enumerate() {
                if collinear(set, 1e-12).is_some() {
                    continue;
                }
                let (c, _) = small_set_parity(&mut solver, set, &format!("set {i}"));
                if i == 2 {
                    prop_assert_eq!(bits(c), bits(pts[0]), "{:?} on {:?}", c, set);
                }
            }
        }
    }
}

#[test]
fn grid_dp_reuse_matches_one_shot_solves() {
    let mut s = SeededSampler::new(77);
    let steps: Vec<Step<2>> = (0..4)
        .map(|_| {
            let r = s.int_inclusive(1, 10);
            Step::new((0..r).map(|_| s.point_in_cube(1.0)).collect())
        })
        .collect();
    let inst = Instance::new(1.5, 0.6, P2::origin(), steps);
    let mut dp = GridDp::new(&inst, 15);
    for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
        let pruned = dp.solve(&inst, order);
        let full = dp.solve_unpruned(&inst, order);
        assert_eq!(pruned, full, "{order:?}");
        assert_eq!(full, grid_optimum_unpruned(&inst, 15, order), "{order:?}");
        assert_eq!(pruned, grid_optimum(&inst, 15, order), "{order:?}");
    }
}

#[test]
fn pruned_grid_dp_still_upper_bounds_the_exact_line_optimum() {
    use mobile_server::offline::solve_line;
    let mut s = SeededSampler::new(5);
    let steps: Vec<Step<1>> = (0..8)
        .map(|_| Step::single(P1::new([s.uniform(-2.0, 2.0)])))
        .collect();
    let inst = Instance::new(2.0, 0.7, P1::origin(), steps);
    let exact = solve_line(&inst, ServingOrder::MoveFirst).cost;
    let grid = grid_optimum(&inst, 201, ServingOrder::MoveFirst);
    assert!(grid >= exact - 0.1, "grid {grid} undercuts exact {exact}");
    assert!((grid - exact).abs() < 0.15, "grid {grid} vs exact {exact}");
}
