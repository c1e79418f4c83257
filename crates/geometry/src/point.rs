//! Fixed-dimension Euclidean points and vectors.
//!
//! The paper's model is dimension-agnostic: the lower bounds hold in every
//! dimension and the Move-to-Center analysis distinguishes only the line
//! (`N = 1`) from the plane and above. We therefore expose a const-generic
//! [`Point<N>`] so the entire stack (simulator, solvers, adversaries) is
//! generic over the dimension, with zero-cost fixed-size arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A point (or displacement vector) in `N`-dimensional Euclidean space.
///
/// `Point` is used both for positions and for displacement vectors; the
/// arithmetic operators implement the usual vector-space structure and
/// [`Point::distance`] the Euclidean metric `d(·,·)` of the paper.
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const N: usize>(pub [f64; N]);

/// The Euclidean line, where the paper's bounds are tight.
pub type P1 = Point<1>;
/// The Euclidean plane, the paper's primary setting.
pub type P2 = Point<2>;
/// Three-dimensional space, exercised to confirm the plane analysis carries
/// over to higher dimensions.
pub type P3 = Point<3>;

impl<const N: usize> Point<N> {
    /// The origin of the space. The paper starts both servers at a common
    /// point `P_0`; by translation invariance we may take it to be the
    /// origin.
    #[inline]
    pub const fn origin() -> Self {
        Point([0.0; N])
    }

    /// Builds a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; N]) -> Self {
        Point(coords)
    }

    /// A point with every coordinate equal to `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        Point([v; N])
    }

    /// The dimension `N` of the ambient space.
    #[inline]
    pub const fn dim(&self) -> usize {
        N
    }

    /// Coordinate slice view.
    #[inline]
    pub fn coords(&self) -> &[f64; N] {
        &self.0
    }

    /// Euclidean norm `‖self‖₂`.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean norm, cheaper than [`Point::norm`] when only
    /// comparisons are needed.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..N {
            s += self.0[i] * self.0[i];
        }
        s
    }

    /// Euclidean distance `d(self, other)`, the service and movement metric
    /// of the model.
    #[inline]
    pub fn distance(&self, other: &Self) -> f64 {
        (*self - *other).norm()
    }

    /// Squared distance; avoids the square root for comparisons.
    #[inline]
    pub fn distance_sq(&self, other: &Self) -> f64 {
        (*self - *other).norm_sq()
    }

    /// Inner product.
    #[inline]
    pub fn dot(&self, other: &Self) -> f64 {
        let mut s = 0.0;
        for i in 0..N {
            s += self.0[i] * other.0[i];
        }
        s
    }

    /// Linear interpolation: `self + t·(other − self)`. `t = 0` yields
    /// `self`, `t = 1` yields `other`; `t` outside `[0,1]` extrapolates.
    #[inline]
    pub fn lerp(&self, other: &Self, t: f64) -> Self {
        *self + (*other - *self) * t
    }

    /// Returns the unit vector pointing in the direction of `self`, or
    /// `None` when the norm is numerically zero (direction undefined).
    #[inline]
    pub fn normalized(&self) -> Option<Self> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(*self / n)
        }
    }

    /// Componentwise minimum, used to grow bounding boxes.
    #[inline]
    pub fn min_components(&self, other: &Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(&other.0) {
            *o = o.min(*b);
        }
        Point(out)
    }

    /// Componentwise maximum, used to grow bounding boxes.
    #[inline]
    pub fn max_components(&self, other: &Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(&other.0) {
            *o = o.max(*b);
        }
        Point(out)
    }

    /// True when every coordinate is finite — guards against NaN/∞ escaping
    /// solvers into cost accounting.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|c| c.is_finite())
    }
}

impl Point<1> {
    /// Convenience accessor for the line: the single coordinate.
    #[inline]
    pub fn x(&self) -> f64 {
        self.0[0]
    }
}

impl Point<2> {
    /// Builds a planar point from Cartesian coordinates.
    #[inline]
    pub const fn xy(x: f64, y: f64) -> Self {
        Point([x, y])
    }
}

impl<const N: usize> Default for Point<N> {
    fn default() -> Self {
        Self::origin()
    }
}

impl<const N: usize> fmt::Debug for Point<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:?}", self.0)
    }
}

impl<const N: usize> fmt::Display for Point<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.6}")?;
        }
        write!(f, ")")
    }
}

impl<const N: usize> Add for Point<N> {
    type Output = Self;
    #[inline]
    fn add(mut self, rhs: Self) -> Self {
        for i in 0..N {
            self.0[i] += rhs.0[i];
        }
        self
    }
}

impl<const N: usize> AddAssign for Point<N> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.0[i] += rhs.0[i];
        }
    }
}

impl<const N: usize> Sub for Point<N> {
    type Output = Self;
    #[inline]
    fn sub(mut self, rhs: Self) -> Self {
        for i in 0..N {
            self.0[i] -= rhs.0[i];
        }
        self
    }
}

impl<const N: usize> SubAssign for Point<N> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.0[i] -= rhs.0[i];
        }
    }
}

impl<const N: usize> Mul<f64> for Point<N> {
    type Output = Self;
    #[inline]
    fn mul(mut self, rhs: f64) -> Self {
        for c in &mut self.0 {
            *c *= rhs;
        }
        self
    }
}

impl<const N: usize> Div<f64> for Point<N> {
    type Output = Self;
    #[inline]
    fn div(mut self, rhs: f64) -> Self {
        for c in &mut self.0 {
            *c /= rhs;
        }
        self
    }
}

impl<const N: usize> Neg for Point<N> {
    type Output = Self;
    #[inline]
    fn neg(mut self) -> Self {
        for c in &mut self.0 {
            *c = -*c;
        }
        self
    }
}

impl<const N: usize> Index<usize> for Point<N> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const N: usize> IndexMut<usize> for Point<N> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl<const N: usize> From<[f64; N]> for Point<N> {
    #[inline]
    fn from(coords: [f64; N]) -> Self {
        Point(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_zero() {
        let o = P2::origin();
        assert_eq!(o.coords(), &[0.0, 0.0]);
        assert_eq!(o.norm(), 0.0);
    }

    #[test]
    fn distance_matches_pythagoras() {
        let a = P2::xy(0.0, 0.0);
        let b = P2::xy(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn vector_arithmetic() {
        let a = P2::xy(1.0, 2.0);
        let b = P2::xy(3.0, -1.0);
        assert_eq!(a + b, P2::xy(4.0, 1.0));
        assert_eq!(a - b, P2::xy(-2.0, 3.0));
        assert_eq!(a * 2.0, P2::xy(2.0, 4.0));
        assert_eq!(b / 2.0, P2::xy(1.5, -0.5));
        assert_eq!(-a, P2::xy(-1.0, -2.0));
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut a = P2::xy(1.0, 1.0);
        a += P2::xy(2.0, 3.0);
        assert_eq!(a, P2::xy(3.0, 4.0));
        a -= P2::xy(1.0, 1.0);
        assert_eq!(a, P2::xy(2.0, 3.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = P2::xy(0.0, 0.0);
        let b = P2::xy(2.0, 4.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), P2::xy(1.0, 2.0));
    }

    #[test]
    fn normalized_unit_length() {
        let v = P2::xy(3.0, 4.0);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(P2::origin().normalized().is_none());
    }

    #[test]
    fn dot_product() {
        let a = P3::new([1.0, 2.0, 3.0]);
        let b = P3::new([4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn component_min_max() {
        let a = P2::xy(1.0, 5.0);
        let b = P2::xy(3.0, 2.0);
        assert_eq!(a.min_components(&b), P2::xy(1.0, 2.0));
        assert_eq!(a.max_components(&b), P2::xy(3.0, 5.0));
    }

    #[test]
    fn finiteness_guard() {
        assert!(P2::xy(1.0, 2.0).is_finite());
        assert!(!P2::xy(f64::NAN, 0.0).is_finite());
        assert!(!P2::xy(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn indexing() {
        let mut p = P2::xy(1.0, 2.0);
        assert_eq!(p[0], 1.0);
        p[1] = 7.0;
        assert_eq!(p, P2::xy(1.0, 7.0));
    }

    #[test]
    fn display_formats_coordinates() {
        let p = P2::xy(1.0, -2.5);
        let s = format!("{p}");
        assert!(s.contains("1.000000"));
        assert!(s.contains("-2.500000"));
    }
}
