//! Chunked, autovectorization-friendly distance kernels and a
//! structure-of-arrays point buffer.
//!
//! Every hot path of the reproduction — pricing a server position against
//! a request set, the Weiszfeld accumulators of the geometric-median
//! solve, and the per-node service scan of the offline grid DP — reduces
//! to sums of `sqrt(Σ_i (a_i − b_i)²)` over point sets. The scalar loops
//! serialize on the `sqrt` latency chain; the kernels here compute
//! squared distances into fixed-width blocks ([`LANES`] wide) so the
//! compiler can emit SIMD subtract/multiply/`sqrtpd` over whole blocks,
//! then reduce the block through one of two accumulation disciplines:
//!
//! * **in-order** (single accumulator, element order): bit-identical to
//!   the scalar loop it replaces. Used inside the median solver so warm
//!   starts, parity pins, and recorded traces stay byte-stable.
//! * **multi-accumulator** (4 independent partial sums): breaks the
//!   serial add chain for additional throughput, at the cost of a
//!   different (still deterministic) rounding association. Used where no
//!   cross-path bit-equality is required, e.g. [`sum_distances_points`]
//!   behind `msp_core::cost::service_cost`.
//!
//! Each chunked kernel keeps its scalar counterpart (`*_scalar`) public
//! as the parity oracle; proptests pin chunked against scalar with
//! explicit tolerance (exact equality for the in-order kernels). The
//! Weiszfeld accumulator ([`weiszfeld_accumulate`]) is a plain scalar
//! loop: its in-order accumulation chains, not the `sqrt`s, bound it (a
//! chunked variant measured 0.93–0.97× of it).
//!
//! [`SoaPoints`] is a reusable structure-of-arrays buffer: one contiguous
//! `Vec<f64>` per axis. Scans that iterate *many points against one
//! query* (the grid DP's service scan over up to 200k nodes) vectorize
//! fully over the contiguous columns, which the array-of-structs layout
//! cannot offer once `N > 1`.

use crate::point::Point;

/// Block width of the chunked kernels. Eight doubles cover an AVX-512
/// register and two AVX ones; on plain SSE2 the compiler still fuses the
/// block into four 2-wide operations.
pub const LANES: usize = 8;

/// Number of independent partial sums in the multi-accumulator kernels.
const ACCS: usize = 4;

/// Squared distances from one block of `LANES` points to `c`.
#[inline(always)]
fn block_dist_sq<const N: usize>(block: &[Point<N>], c: &Point<N>) -> [f64; LANES] {
    let mut d2 = [0.0f64; LANES];
    for (l, p) in block.iter().enumerate() {
        let mut s = 0.0;
        for i in 0..N {
            let t = p.0[i] - c.0[i];
            s += t * t;
        }
        d2[l] = s;
    }
    d2
}

/// `sqrt` of a whole block — the vectorizable part the scalar loops
/// serialize on.
#[inline(always)]
fn block_sqrt(d2: &[f64; LANES]) -> [f64; LANES] {
    let mut d = [0.0f64; LANES];
    for (o, v) in d.iter_mut().zip(d2) {
        *o = v.sqrt();
    }
    d
}

/// Chunked sum of Euclidean distances from every point to `c`
/// (multi-accumulator; association differs from the scalar loop by at
/// most the usual f64 reordering error).
pub fn sum_distances_points<const N: usize>(points: &[Point<N>], c: &Point<N>) -> f64 {
    let mut acc = [0.0f64; ACCS];
    let mut it = points.chunks_exact(LANES);
    for block in it.by_ref() {
        let d = block_sqrt(&block_dist_sq(block, c));
        for (l, v) in d.iter().enumerate() {
            acc[l % ACCS] += v;
        }
    }
    let mut tail = 0.0;
    for p in it.remainder() {
        tail += p.distance(c);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Scalar oracle for [`sum_distances_points`]: the plain left-to-right
/// loop the chunked kernel replaced.
pub fn sum_distances_points_scalar<const N: usize>(points: &[Point<N>], c: &Point<N>) -> f64 {
    points.iter().map(|p| p.distance(c)).sum()
}

/// Chunked weighted sum of distances, **in-order** accumulation:
/// bit-identical to [`weighted_sum_distances_points_scalar`] (the block
/// only batches the `sqrt`s; the weighted adds happen in element order).
pub fn weighted_sum_distances_points<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    c: &Point<N>,
) -> f64 {
    debug_assert_eq!(points.len(), weights.len());
    let mut sum = 0.0;
    let mut base = 0usize;
    let mut it = points.chunks_exact(LANES);
    for block in it.by_ref() {
        let d = block_sqrt(&block_dist_sq(block, c));
        for (l, v) in d.iter().enumerate() {
            sum += weights[base + l] * v;
        }
        base += LANES;
    }
    for (p, w) in it.remainder().iter().zip(&weights[base..]) {
        sum += w * p.distance(c);
    }
    sum
}

/// Scalar oracle for [`weighted_sum_distances_points`].
pub fn weighted_sum_distances_points_scalar<const N: usize>(
    points: &[Point<N>],
    weights: &[f64],
    c: &Point<N>,
) -> f64 {
    points
        .iter()
        .zip(weights)
        .map(|(p, w)| w * p.distance(c))
        .sum()
}

/// One pass of Weiszfeld/Vardi–Zhang accumulation over a point set, as
/// produced by [`weiszfeld_accumulate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeiszfeldAccum<const N: usize> {
    /// `Σ_{d_i > ε} w_i·x_i/d_i` — the Weiszfeld numerator.
    pub num: Point<N>,
    /// `Σ_{d_i > ε} w_i/d_i` — the Weiszfeld denominator.
    pub denom: f64,
    /// Total weight of points coinciding with the iterate (`d_i ≤ ε`).
    pub coincident_weight: f64,
    /// `Σ_{d_i > ε} w_i·(x_i − y)/d_i` — the Vardi–Zhang residual vector.
    pub r_vec: Point<N>,
}

/// Weiszfeld/Vardi–Zhang accumulator pass, one left-to-right scalar loop
/// (the [module docs](self) say why it is not chunked). This is the inner
/// O(n) kernel of every geometric-median iteration.
pub fn weiszfeld_accumulate<const N: usize>(
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

/// Index and distance of the point nearest to `c` (squared-distance scan,
/// chunked). Ties resolve to the **smallest** index, matching the scalar
/// `Iterator::min_by` discipline the solver used before (`min_by` returns
/// the first of equally minimal elements). `None` on an empty set.
pub fn nearest_index_points<const N: usize>(
    points: &[Point<N>],
    c: &Point<N>,
) -> Option<(usize, f64)> {
    if points.is_empty() {
        return None;
    }
    let mut best = f64::INFINITY;
    let mut idx = 0usize;
    let mut base = 0usize;
    let mut it = points.chunks_exact(LANES);
    for block in it.by_ref() {
        let d2 = block_dist_sq(block, c);
        for (l, v) in d2.iter().enumerate() {
            if *v < best {
                best = *v;
                idx = base + l;
            }
        }
        base += LANES;
    }
    for (l, p) in it.remainder().iter().enumerate() {
        let v = p.distance_sq(c);
        if v < best {
            best = v;
            idx = base + l;
        }
    }
    Some((idx, best.sqrt()))
}

/// A reusable structure-of-arrays buffer of `N`-dimensional points: one
/// contiguous coordinate column per axis.
///
/// Built once (or [`SoaPoints::assign`]ed repeatedly without
/// reallocating) and scanned many times — the layout the grid DP uses for
/// its per-step service scan over every node, where the query point is
/// fixed and the point set is large.
#[derive(Clone, Debug)]
pub struct SoaPoints<const N: usize> {
    len: usize,
    coords: [Vec<f64>; N],
}

impl<const N: usize> Default for SoaPoints<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> SoaPoints<N> {
    /// An empty buffer.
    pub fn new() -> Self {
        SoaPoints {
            len: 0,
            coords: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Builds the buffer from an array-of-structs slice.
    pub fn from_points(points: &[Point<N>]) -> Self {
        let mut s = Self::new();
        s.assign(points);
        s
    }

    /// Replaces the contents with `points`, reusing the column
    /// allocations (allocation-free once capacity is reached).
    pub fn assign(&mut self, points: &[Point<N>]) {
        for col in &mut self.coords {
            col.clear();
        }
        for p in points {
            for (i, col) in self.coords.iter_mut().enumerate() {
                col.push(p.0[i]);
            }
        }
        self.len = points.len();
    }

    /// Appends one point.
    pub fn push(&mut self, p: &Point<N>) {
        for (i, col) in self.coords.iter_mut().enumerate() {
            col.push(p.0[i]);
        }
        self.len += 1;
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reconstructs point `i` (bounds-checked), for tests and diagnostics.
    pub fn get(&self, i: usize) -> Point<N> {
        let mut out = Point::origin();
        for (axis, col) in self.coords.iter().enumerate() {
            out.0[axis] = col[i];
        }
        out
    }

    /// Squared distances from every stored point to `c`, written over
    /// `out[k]` (the chunk-friendly inner loop runs over the contiguous
    /// columns).
    ///
    /// # Panics
    /// Panics when `out.len() != self.len()`.
    pub fn distances_sq_into(&self, c: &Point<N>, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "output length mismatch");
        out.fill(0.0);
        for (axis, col) in self.coords.iter().enumerate() {
            let ci = c.0[axis];
            for (o, v) in out.iter_mut().zip(col) {
                let t = v - ci;
                *o += t * t;
            }
        }
    }

    /// Adds `d(point_k, c)` onto `out[k]` for every stored point — the
    /// service-scan kernel of the grid DP: calling it once per request
    /// accumulates, in request order, exactly the per-node service cost
    /// the scalar per-node loop produces (bit-identical per node).
    ///
    /// # Panics
    /// Panics when `out.len() != self.len()`.
    pub fn add_distances(&self, c: &Point<N>, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "output length mismatch");
        let blocks = self.len / LANES;
        for b in 0..blocks {
            let base = b * LANES;
            let mut d2 = [0.0f64; LANES];
            for (axis, col) in self.coords.iter().enumerate() {
                let ci = c.0[axis];
                for (acc, v) in d2.iter_mut().zip(&col[base..base + LANES]) {
                    let t = v - ci;
                    *acc += t * t;
                }
            }
            let d = block_sqrt(&d2);
            for (o, v) in out[base..base + LANES].iter_mut().zip(&d) {
                *o += v;
            }
        }
        for k in blocks * LANES..self.len {
            let mut s = 0.0;
            for (axis, col) in self.coords.iter().enumerate() {
                let t = col[k] - c.0[axis];
                s += t * t;
            }
            out[k] += s.sqrt();
        }
    }

    /// Writes `out[k] = Σ_r d(point_k, requests[r])` — the grid DP's
    /// per-step service costs in one pass. Each node block stays in
    /// registers while every request is accumulated against it (in
    /// request order, so each `out[k]` is bit-identical to the scalar
    /// per-node loop *and* to repeated [`SoaPoints::add_distances`]
    /// calls), touching the coordinate columns and `out` only once
    /// instead of once per request.
    ///
    /// # Panics
    /// Panics when `out.len() != self.len()`.
    pub fn service_costs_into(&self, requests: &[Point<N>], out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "output length mismatch");
        let blocks = self.len / LANES;
        for b in 0..blocks {
            let base = b * LANES;
            let mut acc = [0.0f64; LANES];
            for v in requests {
                let mut d2 = [0.0f64; LANES];
                for (axis, col) in self.coords.iter().enumerate() {
                    let ci = v.0[axis];
                    for (a, x) in d2.iter_mut().zip(&col[base..base + LANES]) {
                        let t = x - ci;
                        *a += t * t;
                    }
                }
                let d = block_sqrt(&d2);
                for (a, dv) in acc.iter_mut().zip(&d) {
                    *a += dv;
                }
            }
            out[base..base + LANES].copy_from_slice(&acc);
        }
        for k in blocks * LANES..self.len {
            let mut sum = 0.0;
            for v in requests {
                let mut d2 = 0.0;
                for (axis, col) in self.coords.iter().enumerate() {
                    let t = col[k] - v.0[axis];
                    d2 += t * t;
                }
                sum += d2.sqrt();
            }
            out[k] = sum;
        }
    }

    /// Chunked sum of distances from every stored point to `c` — the SoA
    /// twin of [`sum_distances_points`], with the identical block and
    /// accumulator pattern (bit-equal on the same data).
    pub fn sum_distances(&self, c: &Point<N>) -> f64 {
        let mut acc = [0.0f64; ACCS];
        let blocks = self.len / LANES;
        for b in 0..blocks {
            let base = b * LANES;
            let mut d2 = [0.0f64; LANES];
            for (axis, col) in self.coords.iter().enumerate() {
                let ci = c.0[axis];
                for (a, v) in d2.iter_mut().zip(&col[base..base + LANES]) {
                    let t = v - ci;
                    *a += t * t;
                }
            }
            let d = block_sqrt(&d2);
            for (l, v) in d.iter().enumerate() {
                acc[l % ACCS] += v;
            }
        }
        let mut tail = 0.0;
        for k in blocks * LANES..self.len {
            let mut s = 0.0;
            for (axis, col) in self.coords.iter().enumerate() {
                let t = col[k] - c.0[axis];
                s += t * t;
            }
            tail += s.sqrt();
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{P2, P3};
    use crate::sample::SeededSampler;

    fn cloud(seed: u64, n: usize) -> Vec<P2> {
        let mut s = SeededSampler::new(seed);
        (0..n).map(|_| s.point_in_cube(4.0)).collect()
    }

    #[test]
    fn chunked_sum_matches_scalar_within_reordering_error() {
        for n in [0, 1, 5, 8, 9, 31, 64, 257] {
            let pts = cloud(7 + n as u64, n);
            let c = P2::xy(0.3, -1.2);
            let fast = sum_distances_points(&pts, &c);
            let slow = sum_distances_points_scalar(&pts, &c);
            assert!(
                (fast - slow).abs() <= 1e-12 * (1.0 + slow),
                "n={n}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn weighted_sum_is_bit_identical_to_scalar() {
        let mut s = SeededSampler::new(3);
        for n in [1usize, 7, 8, 20, 100] {
            let pts = cloud(n as u64, n);
            let w: Vec<f64> = (0..n).map(|_| s.uniform(0.1, 3.0)).collect();
            let c = P2::xy(-0.4, 0.9);
            let fast = weighted_sum_distances_points(&pts, &w, &c);
            let slow = weighted_sum_distances_points_scalar(&pts, &w, &c);
            assert_eq!(fast.to_bits(), slow.to_bits(), "n={n}");
        }
    }

    #[test]
    fn nearest_matches_scalar_min() {
        for n in [1usize, 8, 9, 33, 100] {
            let pts = cloud(900 + n as u64, n);
            let c = P2::xy(0.1, 0.1);
            let (idx, dist) = nearest_index_points(&pts, &c).unwrap();
            let best = pts
                .iter()
                .map(|p| p.distance(&c))
                .fold(f64::INFINITY, f64::min);
            assert!((dist - best).abs() < 1e-12);
            assert!((pts[idx].distance(&c) - best).abs() < 1e-12);
        }
        assert!(nearest_index_points::<2>(&[], &P2::origin()).is_none());
    }

    #[test]
    fn nearest_ties_resolve_to_first_index_like_min_by() {
        // Two exactly equidistant points (one in the chunked body, one in
        // the tail): the first index must win, matching `Iterator::min_by`.
        let mut pts = vec![P2::xy(9.0, 9.0); 10];
        pts[2] = P2::xy(1.0, 0.0);
        pts[9] = P2::xy(-1.0, 0.0);
        let (idx, dist) = nearest_index_points(&pts, &P2::origin()).unwrap();
        assert_eq!(idx, 2);
        assert!((dist - 1.0).abs() < 1e-15);
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
    }

    #[test]
    fn soa_roundtrip_and_reuse() {
        let pts = cloud(1, 11);
        let mut soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.len(), 11);
        assert!(!soa.is_empty());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(soa.get(i), *p);
        }
        // Reassign with different contents, then push.
        let other = cloud(2, 3);
        soa.assign(&other);
        assert_eq!(soa.len(), 3);
        soa.push(&P2::xy(5.0, 6.0));
        assert_eq!(soa.get(3), P2::xy(5.0, 6.0));
    }

    #[test]
    fn soa_sum_bit_equals_aos_sum() {
        for n in [0usize, 3, 8, 17, 64, 129] {
            let pts = cloud(40 + n as u64, n);
            let soa = SoaPoints::from_points(&pts);
            let c = P2::xy(1.0, -0.5);
            assert_eq!(
                soa.sum_distances(&c).to_bits(),
                sum_distances_points(&pts, &c).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn add_distances_accumulates_in_request_order() {
        let nodes = cloud(5, 37);
        let soa = SoaPoints::from_points(&nodes);
        let reqs = [P2::xy(0.5, 0.5), P2::xy(-1.0, 2.0), P2::xy(3.0, -3.0)];
        let mut out = vec![0.0; nodes.len()];
        for r in &reqs {
            soa.add_distances(r, &mut out);
        }
        for (k, node) in nodes.iter().enumerate() {
            // Same element order as the scalar per-node loop → bit-equal.
            let mut expect = 0.0f64;
            for r in &reqs {
                expect += r.distance(node);
            }
            assert_eq!(out[k].to_bits(), expect.to_bits(), "node {k}");
        }
    }

    #[test]
    fn service_costs_into_bit_equals_repeated_add_distances() {
        let nodes = cloud(9, 61);
        let soa = SoaPoints::from_points(&nodes);
        for r in [0usize, 1, 3, 9] {
            let mut s = SeededSampler::new(200 + r as u64);
            let reqs: Vec<P2> = (0..r).map(|_| s.point_in_cube(3.0)).collect();
            let mut one_pass = vec![f64::NAN; nodes.len()];
            soa.service_costs_into(&reqs, &mut one_pass);
            let mut accumulated = vec![0.0; nodes.len()];
            for v in &reqs {
                soa.add_distances(v, &mut accumulated);
            }
            for (k, (a, b)) in one_pass.iter().zip(&accumulated).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "r={r} node {k}");
            }
        }
    }

    #[test]
    fn distances_sq_into_matches_pointwise() {
        let pts = cloud(6, 21);
        let soa = SoaPoints::from_points(&pts);
        let c = P2::xy(0.7, 0.2);
        let mut out = vec![1.0; pts.len()]; // must be overwritten, not accumulated
        soa.distances_sq_into(&c, &mut out);
        for (k, p) in pts.iter().enumerate() {
            assert!((out[k] - p.distance_sq(&c)).abs() < 1e-12);
        }
    }

    #[test]
    fn kernels_cover_higher_dimensions() {
        let mut s = SeededSampler::new(77);
        let pts: Vec<P3> = (0..40).map(|_| s.point_in_cube(2.0)).collect();
        let c = P3::new([0.2, -0.1, 0.4]);
        let fast = sum_distances_points(&pts, &c);
        let slow = sum_distances_points_scalar(&pts, &c);
        assert!((fast - slow).abs() <= 1e-12 * (1.0 + slow));
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.sum_distances(&c).to_bits(), fast.to_bits());
    }
}
