//! Bounded-step motion, the kinematic primitive of every speed-limited
//! server and agent in the model: move from a position towards a target,
//! covering at most a given distance.

use crate::point::Point;

/// Moves from `from` towards `to`, covering at most `max_step` distance.
///
/// Returns `to` itself when it is within reach; otherwise the point at
/// distance exactly `max_step` from `from` on the segment `[from, to]`.
/// A non-positive `max_step` leaves the position unchanged (a server that
/// may not move). This is the only way positions advance in the simulator,
/// so the movement constraint `d(P_t, P_{t+1}) ≤ m` holds by construction.
#[inline]
pub fn step_towards<const N: usize>(from: &Point<N>, to: &Point<N>, max_step: f64) -> Point<N> {
    if max_step <= 0.0 {
        return *from;
    }
    let delta = *to - *from;
    let dist = delta.norm();
    if dist <= max_step {
        *to
    } else {
        *from + delta * (max_step / dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::P2;

    #[test]
    fn reaches_target_when_in_range() {
        let a = P2::xy(0.0, 0.0);
        let b = P2::xy(1.0, 1.0);
        assert_eq!(step_towards(&a, &b, 5.0), b);
    }

    #[test]
    fn stops_at_budget_when_out_of_range() {
        let a = P2::xy(0.0, 0.0);
        let b = P2::xy(10.0, 0.0);
        let p = step_towards(&a, &b, 3.0);
        assert!((p.distance(&a) - 3.0).abs() < 1e-12);
        assert!((p - P2::xy(3.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn zero_budget_stays_put() {
        let a = P2::xy(2.0, 3.0);
        let b = P2::xy(10.0, 0.0);
        assert_eq!(step_towards(&a, &b, 0.0), a);
        assert_eq!(step_towards(&a, &b, -1.0), a);
    }

    #[test]
    fn exact_budget_reaches_target() {
        let a = P2::xy(0.0, 0.0);
        let b = P2::xy(3.0, 4.0);
        assert_eq!(step_towards(&a, &b, 5.0), b);
    }

    #[test]
    fn move_never_exceeds_budget() {
        let a = P2::xy(1.0, 1.0);
        for i in 0..100 {
            let target = P2::xy(i as f64, (i * 3 % 7) as f64);
            let m = 0.5;
            let p = step_towards(&a, &target, m);
            assert!(p.distance(&a) <= m + 1e-12);
        }
    }

    #[test]
    fn degenerate_same_point() {
        let a = P2::xy(1.0, 1.0);
        assert_eq!(step_towards(&a, &a, 1.0), a);
    }
}
