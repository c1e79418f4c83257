//! Axis-aligned bounding boxes over `N`-dimensional point sets.
//!
//! Used by workload generators (to confine drifting hotspots to an arena)
//! and the offline grid brute-force solver (discretization domain).

use crate::point::Point;

/// A (possibly empty) axis-aligned box `[min, max]` in `N` dimensions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb<const N: usize> {
    /// Componentwise lower corner.
    pub min: Point<N>,
    /// Componentwise upper corner.
    pub max: Point<N>,
}

impl<const N: usize> Aabb<N> {
    /// The empty box (inverted bounds): contains nothing until the first
    /// [`Aabb::insert`].
    pub fn empty() -> Self {
        Aabb {
            min: Point::splat(f64::INFINITY),
            max: Point::splat(f64::NEG_INFINITY),
        }
    }

    /// Box spanning two corner points (given in any order).
    pub fn from_corners(a: Point<N>, b: Point<N>) -> Self {
        Aabb {
            min: a.min_components(&b),
            max: a.max_components(&b),
        }
    }

    /// Smallest box containing all `points`; empty box for an empty slice.
    pub fn from_points(points: &[Point<N>]) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.insert(p);
        }
        b
    }

    /// A cube of half-width `r` centred at `c`.
    pub fn cube(c: Point<N>, r: f64) -> Self {
        Aabb {
            min: c - Point::splat(r),
            max: c + Point::splat(r),
        }
    }

    /// True when no point has been inserted.
    pub fn is_empty(&self) -> bool {
        (0..N).any(|i| self.min[i] > self.max[i])
    }

    /// Grows the box to contain `p`.
    pub fn insert(&mut self, p: &Point<N>) {
        self.min = self.min.min_components(p);
        self.max = self.max.max_components(p);
    }

    /// Membership test (closed box).
    pub fn contains(&self, p: &Point<N>) -> bool {
        (0..N).all(|i| self.min[i] <= p[i] && p[i] <= self.max[i])
    }

    /// Projects `p` onto the box (componentwise clamp). Workload generators
    /// use this to keep drifting processes inside the arena.
    pub fn clamp(&self, p: &Point<N>) -> Point<N> {
        let mut out = *p;
        for i in 0..N {
            out[i] = out[i].clamp(self.min[i], self.max[i]);
        }
        out
    }

    /// Squared distance from `p` to the box (zero inside).
    pub fn distance_sq_to(&self, p: &Point<N>) -> f64 {
        let mut s = 0.0;
        for i in 0..N {
            let d = if p[i] < self.min[i] {
                self.min[i] - p[i]
            } else if p[i] > self.max[i] {
                p[i] - self.max[i]
            } else {
                0.0
            };
            s += d * d;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::P2;

    #[test]
    fn empty_box_contains_nothing() {
        let b = Aabb::<2>::empty();
        assert!(b.is_empty());
        assert!(!b.contains(&P2::origin()));
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [P2::xy(1.0, 5.0), P2::xy(-2.0, 3.0), P2::xy(4.0, -1.0)];
        let b = Aabb::from_points(&pts);
        assert_eq!(b.min, P2::xy(-2.0, -1.0));
        assert_eq!(b.max, P2::xy(4.0, 5.0));
        for p in &pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn corners_any_order() {
        let b = Aabb::from_corners(P2::xy(3.0, -1.0), P2::xy(0.0, 2.0));
        assert_eq!(b.min, P2::xy(0.0, -1.0));
        assert_eq!(b.max, P2::xy(3.0, 2.0));
    }

    #[test]
    fn clamp_projects_outside_points() {
        let b = Aabb::from_corners(P2::xy(0.0, 0.0), P2::xy(1.0, 1.0));
        assert_eq!(b.clamp(&P2::xy(5.0, 0.5)), P2::xy(1.0, 0.5));
        assert_eq!(b.clamp(&P2::xy(-1.0, -1.0)), P2::xy(0.0, 0.0));
        let inside = P2::xy(0.3, 0.7);
        assert_eq!(b.clamp(&inside), inside);
    }

    #[test]
    fn distance_sq_outside_and_inside() {
        let b = Aabb::from_corners(P2::xy(0.0, 0.0), P2::xy(1.0, 1.0));
        assert_eq!(b.distance_sq_to(&P2::xy(0.5, 0.5)), 0.0);
        assert_eq!(b.distance_sq_to(&P2::xy(2.0, 0.5)), 1.0);
        assert_eq!(b.distance_sq_to(&P2::xy(2.0, 2.0)), 2.0);
    }

    #[test]
    fn cube_constructor() {
        let b = Aabb::cube(P2::xy(1.0, 1.0), 2.0);
        assert_eq!(b.min, P2::xy(-1.0, -1.0));
        assert_eq!(b.max, P2::xy(3.0, 3.0));
    }
}
