//! Property-based tests of the geometry substrate: the geometric median
//! and motion primitives carry the whole algorithm, so their contracts are
//! checked over random inputs.

use mobile_server::geometry::median::{
    centroid, collinear, geometric_median, median_optimality_gap, sum_of_distances,
    weighted_center, weighted_center_classic, MedianSolver,
};
use mobile_server::geometry::{step_towards, Point, P2, P3};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<P2>> {
    prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| P2::xy(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn median_satisfies_first_order_optimality(pts in arb_points(12)) {
        let med = geometric_median(&pts);
        prop_assert!(med.is_finite());
        prop_assert!(median_optimality_gap(&pts, &med) < 1e-4, "gap too large");
    }

    #[test]
    fn median_objective_beats_centroid_and_all_inputs(pts in arb_points(12)) {
        let med = geometric_median(&pts);
        let med_obj = sum_of_distances(&pts, &med);
        let cen_obj = sum_of_distances(&pts, &centroid(&pts));
        prop_assert!(med_obj <= cen_obj + 1e-6);
        for p in &pts {
            prop_assert!(med_obj <= sum_of_distances(&pts, p) + 1e-6);
        }
    }

    #[test]
    fn median_is_translation_equivariant(pts in arb_points(8), dx in -10.0f64..10.0, dy in -10.0f64..10.0) {
        // Equivariance holds when the tie-breaking reference is translated
        // along with the points (with a fixed reference, non-unique medians
        // — collinear inputs — legitimately break it).
        let shift = P2::xy(dx, dy);
        let reference = P2::xy(1.0, -2.0);
        let med = weighted_center(&pts, &reference);
        let shifted: Vec<P2> = pts.iter().map(|p| *p + shift).collect();
        let med_shifted = weighted_center(&shifted, &(reference + shift));
        prop_assert!(med_shifted.distance(&(med + shift)) < 1e-4);
    }

    #[test]
    fn median_is_permutation_invariant(pts in arb_points(8), seed in any::<u64>()) {
        let mut shuffled = pts.clone();
        // Deterministic Fisher–Yates from the seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let a = geometric_median(&pts);
        let b = geometric_median(&shuffled);
        // Positions may differ by solver rounding near flat optima; the
        // objective values must agree tightly and positions loosely.
        prop_assert!(a.distance(&b) < 1e-4);
        let oa = sum_of_distances(&pts, &a);
        let ob = sum_of_distances(&pts, &b);
        prop_assert!((oa - ob).abs() < 1e-7 * (1.0 + oa));
    }

    #[test]
    fn median_lies_in_the_bounding_box(pts in arb_points(10)) {
        use mobile_server::geometry::Aabb;
        let bbox = Aabb::from_points(&pts);
        let med = geometric_median(&pts);
        // Allow a hair of numerical slack at the boundary.
        prop_assert!(bbox.distance_sq_to(&med) < 1e-9);
    }

    #[test]
    fn tie_break_center_is_no_farther_than_any_other_center(pts in arb_points(6), rx in -20.0f64..20.0, ry in -20.0f64..20.0) {
        // The returned center minimizes Σd; among minimizers it is closest
        // to the reference. We verify the first property against a probe
        // grid around the returned point.
        let reference = P2::xy(rx, ry);
        let c = weighted_center(&pts, &reference);
        let obj = sum_of_distances(&pts, &c);
        for probe_dx in [-0.1, 0.0, 0.1] {
            for probe_dy in [-0.1, 0.0, 0.1] {
                let probe = c + P2::xy(probe_dx, probe_dy);
                prop_assert!(obj <= sum_of_distances(&pts, &probe) + 1e-6);
            }
        }
    }

    #[test]
    fn closed_form_medians_match_the_classic_oracle(
        quad in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 4..5),
        space in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0), 3..4),
        scale_exp in -3i32..4,
    ) {
        // Triangles and quads in the plane at scales 1e-3…1e3, and
        // triangles in space: the solver and the free function agree bit
        // for bit, the gap is certified where the closed form fires, and
        // the objective is no worse than the seed's iterative oracle.
        let scale = 10f64.powi(scale_exp);
        let quad: Vec<P2> = quad.iter().map(|&(x, y)| P2::xy(x, y) * scale).collect();
        let space: Vec<P3> = space.iter().map(|&(x, y, z)| P3::new([x, y, z])).collect();
        check_small_set(&quad[..3]);
        check_small_set(&quad);
        check_small_set(&space);
    }

    #[test]
    fn step_towards_is_a_contraction_toward_the_target(
        ax in -20.0f64..20.0, ay in -20.0f64..20.0,
        bx in -20.0f64..20.0, by in -20.0f64..20.0,
        m in 0.0f64..5.0,
    ) {
        let a = P2::xy(ax, ay);
        let b = P2::xy(bx, by);
        let next = step_towards(&a, &b, m);
        // Never exceeds the budget.
        prop_assert!(next.distance(&a) <= m + 1e-12);
        // Never increases the distance to the target.
        prop_assert!(next.distance(&b) <= a.distance(&b) + 1e-12);
        // Exhausts the budget or arrives.
        let moved = next.distance(&a);
        let arrived = next.distance(&b) < 1e-12;
        prop_assert!(arrived || (moved - m).abs() < 1e-9 || m == 0.0);
        // Stays on the segment: collinearity via the triangle equality.
        let via = a.distance(&next) + next.distance(&b);
        prop_assert!((via - a.distance(&b)).abs() < 1e-9);
    }

    #[test]
    fn distance_satisfies_triangle_inequality(
        ax in -50.0f64..50.0, ay in -50.0f64..50.0,
        bx in -50.0f64..50.0, by in -50.0f64..50.0,
        cx in -50.0f64..50.0, cy in -50.0f64..50.0,
    ) {
        let (a, b, c) = (P2::xy(ax, ay), P2::xy(bx, by), P2::xy(cx, cy));
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        prop_assert!(a.distance(&a) == 0.0);
    }
}

/// One three- or four-point set against the classic oracle; see
/// `closed_form_medians_match_the_classic_oracle`. Collinear sets take
/// the exact 1-D path instead and are skipped.
fn check_small_set<const N: usize>(pts: &[Point<N>]) {
    if collinear(pts, 1e-12).is_some() {
        return;
    }
    let reference = Point::<N>::origin();
    let free = weighted_center(pts, &reference);
    let mut solver = MedianSolver::<N>::new();
    let c = solver.center(pts, &reference);
    assert_eq!(c.0.map(f64::to_bits), free.0.map(f64::to_bits));
    if solver.telemetry.last_iterations == 0 {
        assert!(median_optimality_gap(pts, &free) <= 1e-10 * pts.len() as f64);
    }
    let classic = weighted_center_classic(pts, &vec![1.0; pts.len()], &reference);
    let (obj, oracle) = (
        sum_of_distances(pts, &free),
        sum_of_distances(pts, &classic),
    );
    assert!(
        obj - oracle <= 1e-12 * oracle,
        "{obj} vs {oracle} on {pts:?}"
    );
}
