//! Centers of request sets: 1-D medians and the geometric median.
//!
//! The Move-to-Center algorithm of the paper targets, in each step, the
//! point `c` minimizing `Σ_i d(c, v_i)` over the current requests
//! `v_1..v_r` — the *geometric median* (Fermat–Weber point). The paper's
//! tie-breaking rule is explicit: "If `c` is not unique, pick the one
//! minimizing `d(P_Alg, c)`". Non-uniqueness occurs exactly when the
//! requests are collinear with an even multiset split, in which case the
//! minimizer set is a segment; we then return the point of the segment
//! closest to the reference position, as required.
//!
//! For points in general position we run the Weiszfeld fixed-point
//! iteration with the Vardi–Zhang correction, which remains convergent when
//! an iterate lands exactly on an input point (plain Weiszfeld divides by
//! zero there). Weiszfeld contracts only linearly near the optimum, so the
//! solve is *hybrid*: a coarse Weiszfeld phase drops into damped Newton
//! (quadratic near the smooth optimum), and a short Weiszfeld verification
//! pass re-checks the fixed-point residual at the requested tolerance.
//!
//! **Anchor certificate.** With few requests the median is often one of
//! them: a triangle with an angle of at least 120° has its median at that
//! vertex (Torricelli), and so does any set where one point's weight
//! outweighs the pull of all others. There Newton's model is singular and
//! Weiszfeld only crawls toward the point, so right after the coarse phase
//! the input point nearest the iterate, `x_k`, is tested exactly: it is the
//! median iff `‖Σ_{x_i ≠ x_k} w_i·(x_i − x_k)/‖x_i − x_k‖‖ ≤ Σ_{x_i = x_k}
//! w_i` (the Vardi–Zhang condition, with the same `1e-14` coincidence
//! radius). When the test holds the solve returns `x_k` itself, bit for
//! bit; when it fails, the solve goes on to Newton unchanged. The cost is
//! one nearest-point pass and one accumulator pass per general-position
//! solve. [`weighted_center_classic`] does not use it, so it stays an
//! independent oracle.
//!
//! **Closed forms for three and four requests.** Equally weighted sets of
//! three points (any `N`) and four points (`N = 2`) that are not collinear
//! skip the iteration. A triangle's median is its Fermat–Torricelli point:
//! with `D_A = 4Δ + 2√3·(AB·AC)` and cyclically for `B` and `C`, it is the
//! vertex whose `D ≤ 0` (its angle is at least 120°), returned bit for bit,
//! else `(A/D_A + B/D_B + C/D_C) ÷ (1/D_A + 1/D_B + 1/D_C)` (evaluated
//! relative to `A`, which is exact in real arithmetic). Four planar
//! points have theirs at a point lying inside or on the triangle of the
//! other three (orientation signs), returned bit for bit, else at the
//! crossing of the one pair of strictly crossing segments. The same
//! subgradient-gap test the iterative pipeline applies to its answers,
//! `gap ≤ 1e-10·W`, certifies each candidate; a rejected one (rounding on a
//! near-degenerate set) falls through to the pipeline unchanged, and so do
//! unequal weights and every larger set. [`weighted_center_classic`] has no
//! closed forms.
//!
//! **Hot path:** simulations solve a median per step on request sets that
//! drift slowly, so consecutive optima are close. [`MedianSolver`] keeps
//! the previous center as a warm-start iterate plus reusable scratch
//! buffers (an allocation-free `weighted_center_into`-style API) and
//! exposes iteration-count telemetry; the free functions below remain the
//! stateless cold-start entry points.

use crate::point::Point;

/// Convergence knobs for the geometric-median iteration.
#[derive(Clone, Copy, Debug)]
pub struct MedianOptions {
    /// Maximum number of Weiszfeld/Vardi–Zhang iterations.
    pub max_iters: usize,
    /// Stop when consecutive iterates are closer than this.
    pub tol: f64,
}

impl Default for MedianOptions {
    fn default() -> Self {
        MedianOptions {
            max_iters: 128,
            tol: 1e-13,
        }
    }
}

/// Relative coarse tolerance for the first Weiszfeld phase, scaled by the
/// mean point distance of the starting iterate: Weiszfeld contracts only
/// linearly (iteration count depends *logarithmically* on the start
/// distance), so the hand-off to quadratically convergent Newton happens
/// as soon as the iterate is plausibly inside the basin. The verification
/// phase and the subgradient-gap restart loop guard correctness.
const COARSE_REL_TOL: f64 = 1e-2;

/// Iteration cap of the coarse Weiszfeld phase (the verification phase may
/// still run up to `MedianOptions::max_iters` if Newton stalls).
const COARSE_CAP: usize = 8;

/// Sum of Euclidean distances from `c` to every point — the objective the
/// geometric median minimizes, and the per-step service cost of the model.
/// One left-to-right loop from `0.0`, so an empty set sums to `+0.0`
/// (`Iterator::sum` starts from `-0.0`).
pub fn sum_of_distances<const N: usize>(points: &[Point<N>], c: &Point<N>) -> f64 {
    let mut sum = 0.0;
    for p in points {
        sum += p.distance(c);
    }
    sum
}

/// Weighted variant of [`sum_of_distances`], accumulated in input order
/// like it.
pub fn weighted_sum_of_distances<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    c: &Point<N>,
) -> f64 {
    debug_assert_eq!(points.len(), weights.len());
    let mut sum = 0.0;
    for (p, w) in points.iter().zip(weights) {
        sum += w * p.distance(c);
    }
    sum
}

/// Arithmetic mean of the points. Minimizes the sum of *squared* distances;
/// used as the Weiszfeld starting iterate and as an ablation target (A2).
///
/// # Panics
/// Panics on an empty slice — a centroid of nothing is undefined.
pub fn centroid<const N: usize>(points: &[Point<N>]) -> Point<N> {
    assert!(!points.is_empty(), "centroid of empty point set");
    let mut acc = Point::origin();
    for p in points {
        acc += *p;
    }
    acc / points.len() as f64
}

/// The closed interval of minimizers of `t ↦ Σ_i w_i·|t − x_i|` on the
/// line, computed into caller-provided index scratch (no allocation when
/// `order` has capacity).
fn weighted_line_median_interval_with(
    values: &[f64],
    weights: &[f64],
    order: &mut Vec<usize>,
) -> (f64, f64) {
    assert!(!values.is_empty(), "median of empty set");
    assert_eq!(values.len(), weights.len(), "length mismatch");
    order.clear();
    order.extend(0..values.len());
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "total weight must be positive");
    let half = total / 2.0;

    let mut prefix = 0.0;
    let mut lo = values[order[0]];
    let mut hi = values[order[order.len() - 1]];
    for (k, &i) in order.iter().enumerate() {
        prefix += weights[i];
        if prefix >= half - 1e-15 * total {
            lo = values[i];
            // If the prefix weight hits exactly half, the flat stretch of the
            // objective extends to the next distinct value; otherwise the
            // minimizer is unique.
            if (prefix - half).abs() <= 1e-12 * total && k + 1 < order.len() {
                hi = values[order[k + 1]];
            } else {
                hi = values[i];
            }
            break;
        }
    }
    (lo, hi)
}

/// The closed interval of minimizers of `t ↦ Σ_i w_i·|t − x_i|` on the line.
///
/// With total weight `W`, the minimizer set is `[lo, hi]` where `lo` is the
/// smallest `x` with prefix weight `≥ W/2` and `hi` the smallest `x` with
/// prefix weight `> W/2` (collapsing to a single point unless the weight
/// splits exactly in half at a gap). Returns `(lo, hi)`.
///
/// # Panics
/// Panics when `values` is empty or lengths mismatch.
pub fn weighted_line_median_interval(values: &[f64], weights: &[f64]) -> (f64, f64) {
    let mut order = Vec::with_capacity(values.len());
    weighted_line_median_interval_with(values, weights, &mut order)
}

/// Unweighted median interval on the line: `[x_(k), x_(k+1)]` for `2k`
/// points, the middle order statistic for an odd count.
pub fn line_median_interval(values: &[f64]) -> (f64, f64) {
    let w = vec![1.0; values.len()];
    weighted_line_median_interval(values, &w)
}

/// Detects whether all points lie on a common line (within `tol`).
///
/// Returns `Some((base, unit_direction))` when collinear — including the
/// degenerate all-equal case, where the direction is arbitrary — and `None`
/// otherwise. Collinearity is the only situation in which the geometric
/// median can be non-unique, so [`weighted_center`] uses this to apply the
/// paper's tie-breaking rule exactly.
pub fn collinear<const N: usize>(points: &[Point<N>], tol: f64) -> Option<(Point<N>, Point<N>)> {
    let base = points[0];
    // Find the farthest point from the base to define a stable direction.
    let mut dir = Point::origin();
    let mut best = 0.0;
    for p in points {
        let d = (*p - base).norm();
        if d > best {
            best = d;
            dir = *p - base;
        }
    }
    let Some(u) = dir.normalized() else {
        // All points coincide with the base.
        let mut e = Point::origin();
        e[0] = 1.0;
        return Some((base, e));
    };
    let scale = best.max(1.0);
    for p in points {
        let v = *p - base;
        let along = v.dot(&u);
        let off = (v - u * along).norm();
        if off > tol * scale {
            return None;
        }
    }
    Some((base, u))
}

/// Exact collinear solution with the paper's tie-break, writing projections
/// into caller scratch.
fn collinear_center_with<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    reference: &Point<N>,
    base: Point<N>,
    u: Point<N>,
    ts: &mut Vec<f64>,
    order: &mut Vec<usize>,
) -> Point<N> {
    ts.clear();
    ts.extend(points.iter().map(|p| (*p - base).dot(&u)));
    let (lo, hi) = weighted_line_median_interval_with(ts, weights, order);
    let t_ref = (*reference - base).dot(&u);
    let t = t_ref.clamp(lo, hi);
    base + u * t
}

/// Closed-form median of an equally weighted, non-collinear set of three
/// points (any `N`) or four points (`N = 2`), accepted only when the
/// subgradient gap certifies it (`≤ 1e-10·W`, the test [`solve_from`]
/// applies to its own answers). `None` for every other set and for a
/// rejected candidate; both take the iterative pipeline.
fn closed_form_center<const N: usize>(points: &[Point<N>], weights: &[f64]) -> Option<Point<N>> {
    let equal = || weights.iter().all(|w| *w == weights[0]);
    let c = match points {
        [a, b, c] if equal() => triangle_median(a, b, c),
        [_, _, _, _] if N == 2 && equal() => planar_quad_median(points)?,
        _ => return None,
    };
    let total_weight: f64 = weights.iter().sum();
    (weighted_optimality_gap(points, weights, &c) <= 1e-10 * total_weight).then_some(c)
}

/// Fermat–Torricelli point of the triangle `abc`. With
/// `D_A = 4Δ + 2√3·(AB·AC) = 4·|AB|·|AC|·sin(A + 60°)` and cyclically for
/// `B` and `C`, it is the vertex whose `D ≤ 0` (its angle is ≥ 120°),
/// else the point with barycentric weights `1/D_A : 1/D_B : 1/D_C`,
/// evaluated relative to `a`.
fn triangle_median<const N: usize>(a: &Point<N>, b: &Point<N>, c: &Point<N>) -> Point<N> {
    let (ab, ac, bc) = (*b - *a, *c - *a, *c - *b);
    // (2Δ)² as the sum of the squared 2×2 minors of [AB AC] (Lagrange's
    // identity), which has no cancellation, unlike |AB|²|AC|² − (AB·AC)².
    let mut minors = 0.0;
    for i in 0..N {
        for j in i + 1..N {
            let m = ab[i] * ac[j] - ab[j] * ac[i];
            minors += m * m;
        }
    }
    let four_area = 2.0 * minors.sqrt();
    let k = 2.0 * 3f64.sqrt();
    let d = [
        four_area + k * ab.dot(&ac),
        four_area - k * ab.dot(&bc),
        four_area + k * ac.dot(&bc),
    ];
    for (vertex, dv) in [a, b, c].into_iter().zip(d) {
        if dv <= 0.0 {
            return *vertex;
        }
    }
    let [wa, wb, wc] = d.map(|v| 1.0 / v);
    *a + (ab * wb + ac * wc) / (wa + wb + wc)
}

/// Twice the signed area of `abc` in the plane of the first two axes.
fn orient<const N: usize>(a: &Point<N>, b: &Point<N>, c: &Point<N>) -> f64 {
    (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
}

/// Median of four planar points: the first point lying inside or on the
/// triangle of the other three, else the crossing of the one pair of
/// strictly crossing segments (the diagonals of a convex quadrilateral).
/// `None` when rounding hides both on a near-degenerate set.
fn planar_quad_median<const N: usize>(p: &[Point<N>]) -> Option<Point<N>> {
    for i in 0..4 {
        let [a, b, c] = [1, 2, 3].map(|k| &p[(i + k) % 4]);
        let o = [
            orient(a, b, &p[i]),
            orient(b, c, &p[i]),
            orient(c, a, &p[i]),
        ];
        if o.iter().all(|v| *v >= 0.0) || o.iter().all(|v| *v <= 0.0) {
            return Some(p[i]);
        }
    }
    let opposite = |x: f64, y: f64| (x < 0.0 && y > 0.0) || (x > 0.0 && y < 0.0);
    for [i, j, k, l] in [[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]] {
        let (oi, oj) = (orient(&p[k], &p[l], &p[i]), orient(&p[k], &p[l], &p[j]));
        if opposite(oi, oj) && opposite(orient(&p[i], &p[j], &p[k]), orient(&p[i], &p[j], &p[l])) {
            // `orient(k, l, ·)` is affine along segment ij, so it vanishes
            // at the fraction oi / (oi − oj) of the way from p[i] to p[j].
            return Some(p[i] + (p[j] - p[i]) * (oi / (oi - oj)));
        }
    }
    None
}

/// One pass of Weiszfeld/Vardi–Zhang accumulation over a point set, as
/// produced by [`weiszfeld_accumulate`].
struct WeiszfeldAccum<const N: usize> {
    /// `Σ_{d_i > ε} w_i·x_i/d_i` — the Weiszfeld numerator.
    num: Point<N>,
    /// `Σ_{d_i > ε} w_i/d_i` — the Weiszfeld denominator.
    denom: f64,
    /// Total weight of points coinciding with the iterate (`d_i ≤ ε`).
    coincident_weight: f64,
    /// `Σ_{d_i > ε} w_i·(x_i − y)/d_i` — the Vardi–Zhang residual vector.
    r_vec: Point<N>,
}

/// Weiszfeld/Vardi–Zhang accumulator pass, one left-to-right loop: the
/// inner O(n) kernel of every geometric-median iteration.
fn weiszfeld_accumulate<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    y: &Point<N>,
    eps: f64,
) -> WeiszfeldAccum<N> {
    debug_assert_eq!(points.len(), weights.len());
    let mut acc = WeiszfeldAccum {
        num: Point::origin(),
        denom: 0.0,
        coincident_weight: 0.0,
        r_vec: Point::origin(),
    };
    for (p, w) in points.iter().zip(weights) {
        let d = p.distance(y);
        if d <= eps {
            acc.coincident_weight += *w;
        } else {
            let inv = *w / d;
            acc.num += *p * inv;
            acc.denom += inv;
            acc.r_vec += (*p - *y) * inv;
        }
    }
    acc
}

/// Index of the point nearest to `c` by squared distance, `None` on an
/// empty set. Ties resolve to the **smallest** index, as
/// `Iterator::min_by` does.
fn nearest_index<const N: usize>(points: &[Point<N>], c: &Point<N>) -> Option<usize> {
    let mut best = f64::INFINITY;
    let mut idx = 0;
    for (k, p) in points.iter().enumerate() {
        let d2 = p.distance_sq(c);
        if d2 < best {
            best = d2;
            idx = k;
        }
    }
    (!points.is_empty()).then_some(idx)
}

/// One Weiszfeld/Vardi–Zhang step from `y`. Returns `None` when `y` itself
/// is certified optimal (all mass coincident, or the coincident anchor
/// satisfies the subgradient condition).
#[inline]
fn weiszfeld_step<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    y: &Point<N>,
) -> Option<Point<N>> {
    // Split the points into those coinciding with the iterate and the
    // rest; accumulate the Weiszfeld weights over the rest.
    let WeiszfeldAccum {
        num,
        denom,
        coincident_weight,
        r_vec,
    } = weiszfeld_accumulate(points, weights, y, 1e-14);
    if denom == 0.0 {
        // Every point coincides with the iterate.
        return None;
    }
    let t = num / denom; // plain Weiszfeld target
    if coincident_weight > 0.0 {
        let r_norm = r_vec.norm();
        if r_norm <= coincident_weight {
            // The coincident point is the median (subgradient condition).
            return None;
        }
        // Vardi–Zhang: damped step that escapes the anchor point.
        let beta = (coincident_weight / r_norm).min(1.0);
        Some(t * (1.0 - beta) + *y * beta)
    } else {
        Some(t)
    }
}

/// Iterates Weiszfeld from `*y` until the step shrinks below `tol` or
/// `max_iters` is exhausted. Returns `(iterations, certified)`; `certified`
/// means the iterate was proven optimal by the subgradient condition.
fn weiszfeld_until<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    y: &mut Point<N>,
    tol: f64,
    max_iters: usize,
) -> (usize, bool) {
    let mut iters = 0;
    while iters < max_iters {
        iters += 1;
        match weiszfeld_step(points, weights, y) {
            None => return (iters, true),
            Some(next) => {
                let shift = next.distance(y);
                *y = next;
                if shift <= tol {
                    return (iters, false);
                }
            }
        }
    }
    (iters, false)
}

/// Weighted subgradient optimality residual at `y` (0 at a certified
/// optimum): `max(0, ‖Σ_{x_i ≠ y} w_i·(y − x_i)/d_i‖ − Σ_{x_i = y} w_i)`.
fn weighted_optimality_gap<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    y: &Point<N>,
) -> f64 {
    let mut grad = Point::<N>::origin();
    let mut coincident = 0.0;
    for (p, w) in points.iter().zip(weights) {
        let d = p.distance(y);
        if d <= 1e-12 {
            coincident += *w;
        } else {
            grad += (*y - *p) * (*w / d);
        }
    }
    (grad.norm() - coincident).max(0.0)
}

/// Fast coarse-Weiszfeld → anchor certificate → Newton pass from the
/// starting iterate. `certified` means the subgradient condition proved
/// the returned point optimal. The coarse phase stops as soon as the step
/// shrinks below a spread-relative *basin* threshold — Weiszfeld contracts
/// linearly, so a small step means a close start, and Newton converges
/// quadratically from there.
///
/// When the median is an input point (Torricelli's ≥120° case, or one
/// point outweighing the pull of all others) Weiszfeld only crawls toward
/// it sublinearly and Newton's model is singular there. So the anchor
/// nearest the coarse iterate is tested exactly first, and returned
/// bit-for-bit when it passes. Testing before Newton rather than after it
/// stalls spares anchor solves Newton's backtracking; interior solves pay
/// the two O(n) passes instead.
fn coarse_then_newton<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    y: &mut Point<N>,
    opts: MedianOptions,
    spread: f64,
) -> (usize, bool) {
    let coarse_tol = opts.tol.max(COARSE_REL_TOL * spread);
    let coarse_cap = opts.max_iters.min(COARSE_CAP);
    let (it1, certified) = weiszfeld_until(points, weights, y, coarse_tol, coarse_cap);
    if certified {
        return (it1, true);
    }
    // The Vardi–Zhang step certifies an input point exactly when the
    // subgradient condition holds there.
    if let Some(k) = nearest_index(points, y) {
        if weiszfeld_step(points, weights, &points[k]).is_none() {
            *y = points[k];
            return (it1, true);
        }
    }
    // Newton finishes the job quadratically where Weiszfeld crawls
    // (backtracking keeps it safe even when the basin guess was wrong).
    *y = newton_polish(points, weights, *y, opts);
    (it1, false)
}

/// Full general-position solve from the starting iterate: fast
/// coarse-Weiszfeld → Newton passes with a subgradient-gap acceptance
/// test, escalating to the classic full-length Weiszfeld sweep and
/// anchor restarts only when the fast pass stalls.
///
/// Weiszfeld stalls when its trajectory grazes a *non-optimal* anchor
/// point — steps collapse near the `1/d` singularity long before the
/// iterate is optimal, and Newton's curvature blows up there too. The
/// residual check catches exactly this: on a stall the solve restarts from
/// the lowest-objective anchors, where the Vardi–Zhang step either
/// certifies optimality or escapes decisively. Returns the center and the
/// total Weiszfeld iterations spent (the telemetry currency).
fn solve_from<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    start: Point<N>,
    opts: MedianOptions,
) -> (Point<N>, usize) {
    let total_weight: f64 = weights.iter().sum();
    // Spread scale of the configuration (mean anchor distance from the
    // weighted centroid): start-independent, so warm and cold starts face
    // the same thresholds.
    let spread = weighted_sum_of_distances(points, weights, &weighted_centroid(points, weights))
        / total_weight;
    let gap_tol = 1e-10 * total_weight;
    let mut iters_total = 0;
    let mut best: Option<(f64, Point<N>)> = None;
    let mut next_start = start;
    // Anchors ranked by objective, computed once on the first stall and
    // reused across attempts (the ranking is iterate-independent).
    let mut ranked: Option<Vec<(f64, usize)>> = None;
    for attempt in 0..3 {
        let mut y = next_start;
        let (iters, certified) = coarse_then_newton(points, weights, &mut y, opts, spread);
        iters_total += iters;
        if certified || weighted_optimality_gap(points, weights, &y) <= gap_tol {
            return (y, iters_total);
        }

        // The fast pass stalled (flat valley or a grazed anchor). Fall back
        // to the classic full-length Weiszfeld sweep at the tight tolerance
        // before judging again, so the hybrid never returns a looser answer
        // than the reference iteration.
        let (it2, certified) = weiszfeld_until(points, weights, &mut y, opts.tol, opts.max_iters);
        iters_total += it2;
        if certified {
            return (y, iters_total);
        }
        let ranked = ranked.get_or_insert_with(|| {
            let mut r: Vec<(f64, usize)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (weighted_sum_of_distances(points, weights, p), i))
                .collect();
            r.sort_by(|a, b| a.0.total_cmp(&b.0));
            r
        });
        // Exhaustive snap: the stall may sit a hair away from an optimal
        // anchor — the best anchor is the head of the ranking.
        let mut best_here = y;
        let mut best_obj = weighted_sum_of_distances(points, weights, &y);
        if let Some(&(anchor_obj, anchor_idx)) = ranked.first() {
            if anchor_obj < best_obj {
                best_obj = anchor_obj;
                best_here = points[anchor_idx];
            }
        }
        if weighted_optimality_gap(points, weights, &best_here) <= gap_tol.max(1e-8 * total_weight)
        {
            return (best_here, iters_total);
        }
        if best.is_none_or(|(b, _)| best_obj < b) {
            best = Some((best_obj, best_here));
        }
        // Restart from the best not-yet-tried anchor: the Vardi–Zhang step
        // either certifies it or escapes it decisively. Attempt k+1 starts
        // from the k-th best anchor.
        let Some(&(_, idx)) = ranked.get(attempt) else {
            break;
        };
        next_start = points[idx];
    }
    (best.expect("at least one pipeline pass ran").1, iters_total)
}

/// The seed's reference solver — plain 128-iteration Weiszfeld from the
/// weighted centroid, Newton polish, and an exhaustive anchor snap —
/// retained verbatim as an independent oracle for parity tests and as the
/// "before" baseline of the PR-1 median benchmarks. Do not use on hot
/// paths; [`weighted_center_weighted`] and [`MedianSolver`] return the
/// same centers (within `1e-9`) at a fraction of the cost.
pub fn weighted_center_classic<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    reference: &Point<N>,
    opts: MedianOptions,
) -> Point<N> {
    assert!(!points.is_empty(), "center of empty request set");
    assert_eq!(points.len(), weights.len(), "length mismatch");
    if points.len() == 1 {
        return points[0];
    }
    if let Some((base, u)) = collinear(points, 1e-12) {
        let mut ts = Vec::with_capacity(points.len());
        let mut order = Vec::with_capacity(points.len());
        return collinear_center_with(points, weights, reference, base, u, &mut ts, &mut order);
    }
    let mut y = weighted_centroid(points, weights);
    let (_, certified) = weiszfeld_until(points, weights, &mut y, opts.tol, opts.max_iters);
    if certified {
        return y;
    }
    y = newton_polish(points, weights, y, opts);
    let mut best = y;
    let mut best_obj = weighted_sum_of_distances(points, weights, &y);
    for p in points {
        let obj = weighted_sum_of_distances(points, weights, p);
        if obj < best_obj {
            best_obj = obj;
            best = *p;
        }
    }
    best
}

/// Starting iterate of the cold path: the weighted centroid.
fn weighted_centroid<const N: usize>(points: &[Point<N>], weights: &[f64]) -> Point<N> {
    let total: f64 = weights.iter().sum();
    let mut acc = Point::origin();
    for (p, w) in points.iter().zip(weights) {
        acc += *p * *w;
    }
    acc / total
}

/// Weighted geometric median via the hybrid Weiszfeld/Newton scheme,
/// starting cold from the weighted centroid.
///
/// For collinear inputs the problem reduces to the exact 1-D weighted
/// median (computed directly — no iteration), with the non-unique case
/// resolved by clamping the projection of `reference` onto the minimizing
/// segment, implementing the paper's "closest center" tie-break. Three or
/// four equally weighted points take the certified closed forms of the
/// [module docs](self) instead of the iteration.
///
/// # Panics
/// Panics on an empty point set or mismatched weight length.
pub fn weighted_center_weighted<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    reference: &Point<N>,
    opts: MedianOptions,
) -> Point<N> {
    assert!(!points.is_empty(), "center of empty request set");
    assert_eq!(points.len(), weights.len(), "length mismatch");

    if points.len() == 1 {
        return points[0];
    }

    // Collinear (always true on the line): exact 1-D solution + tie-break.
    if let Some((base, u)) = collinear(points, 1e-12) {
        let mut ts = Vec::with_capacity(points.len());
        let mut order = Vec::with_capacity(points.len());
        return collinear_center_with(points, weights, reference, base, u, &mut ts, &mut order);
    }

    // General position: unique minimizer, in closed form for three or
    // four equally weighted points.
    closed_form_center(points, weights)
        .unwrap_or_else(|| solve_from(points, weights, weighted_centroid(points, weights), opts).0)
}

/// Damped Newton refinement of a Fermat–Weber iterate. Safeguarded: steps
/// are halved until the objective improves and the iterate never moves
/// while sitting within float-epsilon of an anchor, so the polish can only
/// improve on its input.
fn newton_polish<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    mut y: Point<N>,
    opts: MedianOptions,
) -> Point<N> {
    let scale = points.iter().map(|p| p.norm()).fold(1.0f64, f64::max);
    let total_weight: f64 = weights.iter().sum();
    let step_tol = opts.tol * (1.0 + scale);
    for _ in 0..60 {
        let Some((grad, hess)) = gradient_and_hessian(points, weights, &y, scale) else {
            // Sitting on an anchor: the smooth model does not apply.
            return y;
        };
        // Already stationary (the common warm-started case): skip the step
        // solve and the doomed backtracking objective evaluations.
        if grad.norm() <= 1e-12 * total_weight {
            return y;
        }
        let Some(step) = solve_linear(hess, grad) else {
            return y;
        };
        if Point(step).norm() <= step_tol {
            // The Newton model says we are within tolerance of the
            // stationary point; a shorter step cannot move us meaningfully.
            return y;
        }
        // Backtracking line search on the true objective.
        let base_obj = weighted_sum_of_distances(points, weights, &y);
        let mut lambda = 1.0;
        let mut moved = false;
        for _ in 0..12 {
            let candidate = y - Point(step) * lambda;
            if weighted_sum_of_distances(points, weights, &candidate) < base_obj {
                let shift = candidate.distance(&y);
                y = candidate;
                moved = true;
                if shift <= step_tol {
                    return y;
                }
                break;
            }
            lambda /= 2.0;
        }
        if !moved {
            // The objective can no longer *resolve* improvements (float
            // granularity ≈ ε·obj corresponds to a position error of about
            // √(ε·obj/λ), far above `opts.tol`). Finish with a short burst
            // of pure step-size-controlled Newton, which converges to
            // machine precision exactly where the line search goes blind.
            return pure_newton_finish(points, weights, y, scale, step_tol);
        }
    }
    y
}

/// Gradient `Σ w·(y−x)/d` and Hessian `Σ w·(I/d − ΔΔᵀ/d³)` of the
/// Fermat–Weber objective at `y`; `None` when `y` sits on an anchor.
#[allow(clippy::type_complexity)]
fn gradient_and_hessian<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    y: &Point<N>,
    scale: f64,
) -> Option<(Point<N>, [[f64; N]; N])> {
    let mut grad = Point::<N>::origin();
    let mut hess = [[0.0f64; N]; N];
    for (p, w) in points.iter().zip(weights) {
        let delta = *y - *p;
        let d = delta.norm();
        if d <= 1e-12 * scale {
            return None;
        }
        grad += delta * (w / d);
        let inv_d = w / d;
        let inv_d3 = w / (d * d * d);
        for i in 0..N {
            for j in 0..N {
                hess[i][j] -= delta[i] * delta[j] * inv_d3;
            }
            hess[i][i] += inv_d;
        }
    }
    Some((grad, hess))
}

/// A few undamped Newton steps with a shrinking-step divergence guard.
/// Only called once the damped phase is inside the quadratic basin; each
/// step squares the error, so three steps reach machine precision. Reverts
/// to the entry iterate if the steps grow instead of shrink.
fn pure_newton_finish<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    start: Point<N>,
    scale: f64,
    step_tol: f64,
) -> Point<N> {
    let mut y = start;
    let mut prev_norm = f64::INFINITY;
    for _ in 0..3 {
        let Some((grad, hess)) = gradient_and_hessian(points, weights, &y, scale) else {
            break;
        };
        let Some(step) = solve_linear(hess, grad) else {
            break;
        };
        let norm = Point(step).norm();
        if !norm.is_finite() || norm >= prev_norm {
            break;
        }
        y -= Point(step);
        prev_norm = norm;
        if norm <= step_tol {
            break;
        }
    }
    // Never hand back something worse than the damped phase produced
    // (within one float granule of its objective).
    let before = weighted_sum_of_distances(points, weights, &start);
    let after = weighted_sum_of_distances(points, weights, &y);
    if after <= before * (1.0 + 1e-12) {
        y
    } else {
        start
    }
}

/// Solves `A·x = b` for a small symmetric positive-definite `A` by Gaussian
/// elimination with partial pivoting; `None` when singular.
fn solve_linear<const N: usize>(mut a: [[f64; N]; N], b: Point<N>) -> Option<[f64; N]> {
    let mut x = b.0;
    for col in 0..N {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..N {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-14 {
            return None;
        }
        a.swap(col, pivot);
        x.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..N {
            let f = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            for (cell, pivot_cell) in lower[0][col..N].iter_mut().zip(&upper[col][col..N]) {
                *cell -= f * pivot_cell;
            }
            x[row] -= f * x[col];
        }
    }
    // Back-substitute.
    for col in (0..N).rev() {
        let dot: f64 = (col + 1..N).map(|k| a[col][k] * x[k]).sum();
        x[col] = (x[col] - dot) / a[col][col];
    }
    if x.iter().all(|v| v.is_finite()) {
        Some(x)
    } else {
        None
    }
}

/// The paper's center point `c` for a request set: the minimizer of
/// `Σ_i d(c, v_i)`, ties broken towards `reference` (the algorithm's server
/// position). Unweighted convenience wrapper over
/// [`weighted_center_weighted`].
pub fn weighted_center<const N: usize>(
    points: &[Point<N>],
    reference: &Point<N>,
    opts: MedianOptions,
) -> Point<N> {
    let w = vec![1.0; points.len()];
    weighted_center_weighted(points, &w, reference, opts)
}

/// Unweighted geometric median with default options and origin tie-break;
/// the common entry point when no server reference is relevant.
pub fn geometric_median<const N: usize>(points: &[Point<N>]) -> Point<N> {
    weighted_center(points, &Point::origin(), MedianOptions::default())
}

/// Iteration counters of a [`MedianSolver`], for perf diagnostics and the
/// benchmark suite. `iterations` counts Weiszfeld fixed-point steps (the
/// dominant O(n) kernel); Newton polish steps are not separately billed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MedianTelemetry {
    /// Number of center solves performed.
    pub solves: u64,
    /// Total Weiszfeld iterations across all solves.
    pub iterations: u64,
    /// Solves that started from a previous center instead of the centroid.
    pub warm_starts: u64,
    /// Weiszfeld iterations of the most recent solve.
    pub last_iterations: usize,
}

impl MedianTelemetry {
    /// Mean Weiszfeld iterations per solve (0 when nothing was solved).
    pub fn mean_iterations(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.iterations as f64 / self.solves as f64
        }
    }
}

/// A reusable, warm-starting geometric-median solver for per-step use in
/// simulations.
///
/// Request sets drift slowly between consecutive steps, so the previous
/// center is an excellent starting iterate: the coarse Weiszfeld phase
/// typically collapses from dozens of iterations to a handful. The solver
/// also owns scratch buffers for the collinear fast path and the implicit
/// unit-weight vector, making repeated solves allocation-free, and records
/// [`MedianTelemetry`].
///
/// Results match the cold [`weighted_center`] path to well within `1e-9`
/// (both run the same anchor certificate, Newton polish and verification
/// sweep); they are *not* guaranteed bit-identical, because the starting
/// iterate differs. When the median is an input point and the certificate
/// (see the [module docs](self)) fires, the solver returns that point
/// exactly. Collinear sets and certified closed forms for three or four
/// equally weighted points are start-independent, so warm and cold agree
/// bit for bit there; such solves bill no Weiszfeld iterations and do not
/// count as warm starts.
#[derive(Clone, Debug)]
pub struct MedianSolver<const N: usize> {
    opts: MedianOptions,
    warm: Option<Point<N>>,
    ones: Vec<f64>,
    ts: Vec<f64>,
    order: Vec<usize>,
    /// Iteration counters, accumulated over the solver's lifetime.
    pub telemetry: MedianTelemetry,
}

impl<const N: usize> Default for MedianSolver<N> {
    fn default() -> Self {
        Self::new(MedianOptions::default())
    }
}

impl<const N: usize> MedianSolver<N> {
    /// Solver with the given convergence options and no warm state.
    pub fn new(opts: MedianOptions) -> Self {
        MedianSolver {
            opts,
            warm: None,
            ones: Vec::new(),
            ts: Vec::new(),
            order: Vec::new(),
            telemetry: MedianTelemetry::default(),
        }
    }

    /// Clears the warm-start state (telemetry is preserved). Call between
    /// unrelated request streams — e.g. at simulator reset.
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// Replaces the convergence options for subsequent solves.
    pub fn set_options(&mut self, opts: MedianOptions) {
        self.opts = opts;
    }

    /// Primes the warm-start iterate explicitly (e.g. when a warm-state
    /// codec restores a checkpointed solver).
    pub fn seed(&mut self, center: Point<N>) {
        self.warm = Some(center);
    }

    /// The warm-start iterate the next solve would use, if any.
    pub fn warm_state(&self) -> Option<Point<N>> {
        self.warm
    }

    /// Unweighted warm-started center: minimizer of `Σ_i d(c, v_i)`, ties
    /// broken towards `reference`. Allocation-free after warm-up.
    pub fn center(&mut self, points: &[Point<N>], reference: &Point<N>) -> Point<N> {
        let mut out = Point::origin();
        self.center_into(points, reference, &mut out);
        out
    }

    /// [`MedianSolver::center`] writing into `out` (the
    /// `weighted_center_into` shape for callers that manage storage).
    pub fn center_into(&mut self, points: &[Point<N>], reference: &Point<N>, out: &mut Point<N>) {
        if self.ones.len() < points.len() {
            self.ones.resize(points.len(), 1.0);
        }
        // Split borrows: hand `ones` to the weighted path without cloning.
        let ones = std::mem::take(&mut self.ones);
        self.weighted_center_into(points, &ones[..points.len()], reference, out);
        self.ones = ones;
    }

    /// Weighted warm-started center written into `out`; the weighted
    /// counterpart of [`MedianSolver::center_into`].
    ///
    /// # Panics
    /// Panics on an empty point set or mismatched weight length.
    pub fn weighted_center_into(
        &mut self,
        points: &[Point<N>],
        weights: &[f64],
        reference: &Point<N>,
        out: &mut Point<N>,
    ) {
        assert!(!points.is_empty(), "center of empty request set");
        assert_eq!(points.len(), weights.len(), "length mismatch");
        self.telemetry.solves += 1;

        // One point, collinear points, or three or four equally weighted
        // points: exact, iteration-free — nothing to warm-start.
        let exact = if points.len() == 1 {
            Some(points[0])
        } else if let Some((base, u)) = collinear(points, 1e-12) {
            Some(collinear_center_with(
                points,
                weights,
                reference,
                base,
                u,
                &mut self.ts,
                &mut self.order,
            ))
        } else {
            closed_form_center(points, weights)
        };
        if let Some(c) = exact {
            self.telemetry.last_iterations = 0;
            self.warm = Some(c);
            *out = c;
            return;
        }

        let start = match self.warm {
            Some(prev) if prev.is_finite() => {
                self.telemetry.warm_starts += 1;
                prev
            }
            _ => weighted_centroid(points, weights),
        };
        let (c, iters) = solve_from(points, weights, start, self.opts);
        self.telemetry.iterations += iters as u64;
        self.telemetry.last_iterations = iters;
        self.warm = Some(c);
        *out = c;
    }
}

/// Verifies the subgradient optimality condition of a candidate median `c`:
/// the norm of `Σ_{x_i ≠ c} (c − x_i)/d_i` must not exceed the multiplicity
/// (weight) of points coinciding with `c`, within `tol`. Used by tests to
/// certify solver output without trusting the solver.
pub fn median_optimality_gap<const N: usize>(points: &[Point<N>], c: &Point<N>) -> f64 {
    let mut grad = Point::<N>::origin();
    let mut coincident = 0.0;
    for p in points {
        let d = p.distance(c);
        if d <= 1e-12 {
            coincident += 1.0;
        } else {
            grad += (*c - *p) / d;
        }
    }
    (grad.norm() - coincident).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{P1, P2};

    #[test]
    fn nearest_ties_resolve_to_first_index_like_min_by() {
        // Two exactly equidistant points: the first index must win,
        // matching `Iterator::min_by`.
        let mut pts = vec![P2::xy(9.0, 9.0); 10];
        pts[2] = P2::xy(1.0, 0.0);
        pts[9] = P2::xy(-1.0, 0.0);
        let idx = nearest_index(&pts, &P2::origin()).unwrap();
        assert_eq!(idx, 2);
        let scalar_idx = pts
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.distance_sq(&P2::origin())
                    .total_cmp(&b.1.distance_sq(&P2::origin()))
            })
            .unwrap()
            .0;
        assert_eq!(idx, scalar_idx);
        assert!(nearest_index::<2>(&[], &P2::origin()).is_none());
    }

    #[test]
    fn single_point_is_its_own_center() {
        let pts = [P2::xy(3.0, 4.0)];
        let c = weighted_center(&pts, &P2::origin(), MedianOptions::default());
        assert_eq!(c, pts[0]);
    }

    #[test]
    fn line_median_odd_is_middle() {
        let (lo, hi) = line_median_interval(&[5.0, 1.0, 3.0]);
        assert_eq!((lo, hi), (3.0, 3.0));
    }

    #[test]
    fn line_median_even_is_interval() {
        let (lo, hi) = line_median_interval(&[1.0, 2.0, 7.0, 9.0]);
        assert_eq!((lo, hi), (2.0, 7.0));
    }

    #[test]
    fn weighted_line_median_respects_weights() {
        // Weight 3 at x=0 vs weight 1 at x=10: median is 0.
        let (lo, hi) = weighted_line_median_interval(&[0.0, 10.0], &[3.0, 1.0]);
        assert_eq!((lo, hi), (0.0, 0.0));
    }

    #[test]
    fn weighted_line_median_exact_half_split() {
        let (lo, hi) = weighted_line_median_interval(&[0.0, 10.0], &[1.0, 1.0]);
        assert_eq!((lo, hi), (0.0, 10.0));
    }

    #[test]
    fn tie_break_picks_point_closest_to_reference() {
        // Even number of collinear requests: minimizers form [2, 7]·e_x.
        let pts = [
            P2::xy(1.0, 0.0),
            P2::xy(2.0, 0.0),
            P2::xy(7.0, 0.0),
            P2::xy(9.0, 0.0),
        ];
        // Reference inside the interval → center is its projection.
        let c = weighted_center(&pts, &P2::xy(5.0, 3.0), MedianOptions::default());
        assert!(c.distance(&P2::xy(5.0, 0.0)) < 1e-9);
        // Reference left of the interval → clamped to the left endpoint.
        let c = weighted_center(&pts, &P2::xy(-4.0, 0.0), MedianOptions::default());
        assert!(c.distance(&P2::xy(2.0, 0.0)) < 1e-9);
        // Reference right of the interval → clamped to the right endpoint.
        let c = weighted_center(&pts, &P2::xy(100.0, 1.0), MedianOptions::default());
        assert!(c.distance(&P2::xy(7.0, 0.0)) < 1e-9);
    }

    #[test]
    fn median_of_equilateral_triangle_is_fermat_point() {
        // For an equilateral triangle the geometric median is the centroid.
        let pts = [
            P2::xy(0.0, 0.0),
            P2::xy(1.0, 0.0),
            P2::xy(0.5, 3f64.sqrt() / 2.0),
        ];
        let c = geometric_median(&pts);
        let expected = centroid(&pts);
        assert!(c.distance(&expected) < 1e-8, "got {c:?}");
        assert!(median_optimality_gap(&pts, &c) < 1e-6);
    }

    #[test]
    fn median_with_obtuse_triangle_sits_on_vertex() {
        // When one vertex sees the others under ≥ 120°, the median is that
        // vertex. Extremely flat triangle: the middle point wins.
        let pts = [P2::xy(0.0, 0.0), P2::xy(1.0, 0.05), P2::xy(2.0, 0.0)];
        let c = geometric_median(&pts);
        assert!(c.distance(&pts[1]) < 1e-6, "got {c:?}");
        assert!(median_optimality_gap(&pts, &c) < 1e-6);
    }

    #[test]
    fn vardi_zhang_handles_duplicate_heavy_point() {
        // Three copies of one point vs two distinct others: the heavy point
        // dominates (weight 3 ≥ gradient norm of the rest ≤ 2).
        let pts = [
            P2::xy(1.0, 1.0),
            P2::xy(1.0, 1.0),
            P2::xy(1.0, 1.0),
            P2::xy(5.0, 1.0),
            P2::xy(1.0, 6.0),
        ];
        let c = geometric_median(&pts);
        assert!(c.distance(&P2::xy(1.0, 1.0)) < 1e-7, "got {c:?}");
    }

    #[test]
    fn median_beats_centroid_on_objective() {
        let pts = [
            P2::xy(0.0, 0.0),
            P2::xy(0.1, 0.0),
            P2::xy(0.0, 0.1),
            P2::xy(10.0, 10.0),
        ];
        let med = geometric_median(&pts);
        let cen = centroid(&pts);
        assert!(sum_of_distances(&pts, &med) <= sum_of_distances(&pts, &cen) + 1e-9);
    }

    #[test]
    fn one_dimensional_center_is_exact_median() {
        let pts = [P1::new([4.0]), P1::new([-1.0]), P1::new([10.0])];
        let c = weighted_center(&pts, &P1::origin(), MedianOptions::default());
        assert!((c.x() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn collinear_detection() {
        let on_line = [P2::xy(0.0, 0.0), P2::xy(1.0, 1.0), P2::xy(3.0, 3.0)];
        assert!(collinear(&on_line, 1e-12).is_some());
        let off_line = [P2::xy(0.0, 0.0), P2::xy(1.0, 1.0), P2::xy(3.0, 3.5)];
        assert!(collinear(&off_line, 1e-12).is_none());
    }

    #[test]
    fn all_identical_points_center() {
        let pts = [P2::xy(2.0, 2.0); 5];
        let c = weighted_center(&pts, &P2::origin(), MedianOptions::default());
        assert_eq!(c, P2::xy(2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_center_panics() {
        let pts: [P2; 0] = [];
        let _ = weighted_center(&pts, &P2::origin(), MedianOptions::default());
    }

    #[test]
    fn centroid_of_square() {
        let pts = [
            P2::xy(0.0, 0.0),
            P2::xy(2.0, 0.0),
            P2::xy(2.0, 2.0),
            P2::xy(0.0, 2.0),
        ];
        assert_eq!(centroid(&pts), P2::xy(1.0, 1.0));
    }

    #[test]
    fn optimality_gap_flags_bad_candidate() {
        let pts = [P2::xy(0.0, 0.0), P2::xy(1.0, 0.0), P2::xy(0.5, 1.0)];
        assert!(median_optimality_gap(&pts, &P2::xy(50.0, 50.0)) > 0.5);
    }

    #[test]
    fn warm_solver_matches_cold_path_on_drift() {
        // A cluster drifting to the right: the warm solver must track the
        // cold path within 1e-9 at every step while spending fewer
        // iterations overall.
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        let base = [
            P2::xy(0.0, 0.0),
            P2::xy(1.0, 0.3),
            P2::xy(0.4, 1.1),
            P2::xy(-0.6, 0.5),
            P2::xy(0.2, -0.8),
        ];
        let mut cold_iter_equiv = 0u64;
        for t in 0..200 {
            let shift = P2::xy(0.01 * t as f64, 0.005 * t as f64);
            let pts: Vec<P2> = base.iter().map(|p| *p + shift).collect();
            let reference = P2::origin();
            let warm = solver.center(&pts, &reference);
            let cold = weighted_center(&pts, &reference, MedianOptions::default());
            assert!(
                warm.distance(&cold) < 1e-9,
                "step {t}: warm {warm:?} vs cold {cold:?}"
            );
            cold_iter_equiv += 1;
        }
        assert_eq!(solver.telemetry.solves, cold_iter_equiv);
        assert!(solver.telemetry.warm_starts >= cold_iter_equiv - 1);
        assert!(solver.telemetry.mean_iterations() > 0.0);
    }

    #[test]
    fn solver_collinear_and_single_point_paths() {
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        // Single point.
        assert_eq!(
            solver.center(&[P2::xy(2.0, 3.0)], &P2::origin()),
            P2::xy(2.0, 3.0)
        );
        assert_eq!(solver.telemetry.last_iterations, 0);
        // Collinear with tie-break.
        let pts = [P2::xy(0.0, 0.0), P2::xy(1.0, 0.0)];
        let c = solver.center(&pts, &P2::xy(0.25, 5.0));
        assert!(c.distance(&P2::xy(0.25, 0.0)) < 1e-12);
        // Warm state survives and reset clears it.
        assert!(solver.warm_state().is_some());
        solver.reset();
        assert!(solver.warm_state().is_none());
    }

    #[test]
    fn solver_seeding_controls_warm_start() {
        // Five points: three or four take the closed form, which ignores
        // the seed.
        let pts = [
            P2::xy(0.0, 0.0),
            P2::xy(2.0, 0.1),
            P2::xy(1.0, 1.7),
            P2::xy(0.9, -1.2),
            P2::xy(1.6, 1.1),
        ];
        let cold = weighted_center(&pts, &P2::origin(), MedianOptions::default());
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        solver.seed(cold);
        let warm = solver.center(&pts, &P2::origin());
        assert!(warm.distance(&cold) < 1e-9);
        assert_eq!(solver.telemetry.warm_starts, 1);
        // Seeded from the exact optimum, the coarse phase exits immediately.
        assert!(solver.telemetry.last_iterations <= 4);
    }

    #[test]
    fn weighted_solver_into_matches_free_function() {
        let pts = [
            P2::xy(0.0, 0.0),
            P2::xy(3.0, 0.5),
            P2::xy(1.0, 2.5),
            P2::xy(-1.0, 1.0),
        ];
        let w = [1.0, 2.0, 0.5, 1.5];
        let cold = weighted_center_weighted(&pts, &w, &P2::origin(), MedianOptions::default());
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        let mut out = P2::origin();
        solver.weighted_center_into(&pts, &w, &P2::origin(), &mut out);
        assert!(out.distance(&cold) < 1e-9);
        // And again warm: result stable.
        solver.weighted_center_into(&pts, &w, &P2::origin(), &mut out);
        assert!(out.distance(&cold) < 1e-9);
    }

    #[test]
    fn closed_forms_bill_no_iterations_and_no_warm_starts() {
        let obtuse = [P2::xy(0.0, 0.0), P2::xy(1.0, 0.2), P2::xy(2.0, 0.0)];
        let acute = [P2::xy(0.0, 0.0), P2::xy(4.0, 0.5), P2::xy(1.0, 3.0)];
        let inner = [
            P2::xy(0.0, 0.0),
            P2::xy(4.0, 0.0),
            P2::xy(1.5, 1.0),
            P2::xy(1.0, 3.0),
        ];
        let convex = [
            P2::xy(0.0, 0.0),
            P2::xy(4.0, 4.0),
            P2::xy(4.0, 0.0),
            P2::xy(0.0, 2.0),
        ];
        let mut solver = MedianSolver::<2>::new(MedianOptions::default());
        solver.seed(P2::xy(9.0, 9.0));
        for pts in [&obtuse[..], &acute, &inner, &convex] {
            let c = solver.center(pts, &P2::origin());
            assert_eq!(
                c,
                weighted_center(pts, &P2::origin(), MedianOptions::default())
            );
            assert!(median_optimality_gap(pts, &c) <= 1e-10 * pts.len() as f64);
            assert_eq!(solver.telemetry.last_iterations, 0);
        }
        // Torricelli's vertex, the inner point, and the diagonals' crossing.
        assert_eq!(solver.center(&obtuse, &P2::origin()), obtuse[1]);
        assert_eq!(solver.center(&inner, &P2::origin()), inner[2]);
        let x = solver.center(&convex, &P2::origin());
        assert!(
            x.distance(&P2::xy(4.0 / 3.0, 4.0 / 3.0)) < 1e-15,
            "got {x:?}"
        );
        assert_eq!(solver.telemetry.iterations, 0);
        assert_eq!(solver.telemetry.warm_starts, 0);
        assert_eq!(solver.telemetry.solves, 7);
    }
}
