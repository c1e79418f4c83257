//! Cost accounting for server trajectories.
//!
//! Section 2 of the paper defines the cost of an algorithm as
//!
//! ```text
//! C = Σ_t ( D·d(P_t, P_{t+1}) + Σ_i d(P_{t+1}, v_{t,i}) )      (Move-First)
//! C = Σ_t ( Σ_i d(P_t, v_{t,i}) + D·d(P_t, P_{t+1}) )          (Answer-First)
//! ```
//!
//! The only difference is *which* endpoint of the move serves the requests;
//! Theorem 3 shows this detail changes the achievable competitive ratio
//! from `O(1/δ^{3/2})` to `Θ(r/D)`-ish, so the serving order is explicit
//! everywhere in this crate.

use crate::model::Instance;
use msp_geometry::Point;

/// Which endpoint of a step's move pays the service cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServingOrder {
    /// The paper's default: the server moves upon seeing the requests and
    /// serves from its *new* position `P_{t+1}`.
    MoveFirst,
    /// Section 2's variant (analyzed in Theorems 3 and 7): requests are
    /// served from the *old* position `P_t`, then the server moves.
    AnswerFirst,
}

impl ServingOrder {
    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ServingOrder::MoveFirst => "move-first",
            ServingOrder::AnswerFirst => "answer-first",
        }
    }

    /// The endpoint of a move that pays the step's service cost: `after`
    /// (the new position) under Move-First, `before` under Answer-First.
    #[inline]
    pub(crate) fn serve_from<'a, T: ?Sized>(self, before: &'a T, after: &'a T) -> &'a T {
        match self {
            ServingOrder::MoveFirst => after,
            ServingOrder::AnswerFirst => before,
        }
    }
}

/// Cost incurred in a single time step, split by source.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepCost {
    /// `D · d(P_t, P_{t+1})` — weighted movement.
    pub movement: f64,
    /// `Σ_i d(P_serve, v_{t,i})` — request service.
    pub service: f64,
}

impl StepCost {
    /// Movement plus service.
    pub fn total(&self) -> f64 {
        self.movement + self.service
    }
}

/// Aggregated cost of a full trajectory with its per-step trace.
#[derive(Clone, Debug, Default)]
pub struct CostBreakdown {
    /// Total weighted movement cost.
    pub movement: f64,
    /// Total service cost.
    pub service: f64,
    /// Per-step costs, `per_step.len() == T`.
    pub per_step: Vec<StepCost>,
}

impl CostBreakdown {
    /// Total cost `C_Alg` of the trajectory.
    pub fn total(&self) -> f64 {
        self.movement + self.service
    }
}

/// Service cost of answering `requests` from position `p`: the
/// left-to-right sum of [`msp_geometry::median::sum_of_distances`].
#[inline]
pub fn service_cost<const N: usize>(p: &Point<N>, requests: &[Point<N>]) -> f64 {
    msp_geometry::median::sum_of_distances(requests, p)
}

/// Evaluates the cost of an explicit trajectory on an instance.
///
/// `positions` must hold `T + 1` points with `positions[0] == start`
/// (within tolerance); `positions[t+1]` is the server position after the
/// move of step `t`. This is how offline solutions and adversary
/// certificates are priced with *exactly* the same code path as online
/// runs.
///
/// # Panics
/// Panics when the trajectory length does not match the horizon or the
/// start position disagrees with the instance.
pub fn evaluate_trajectory<const N: usize>(
    instance: &Instance<N>,
    positions: &[Point<N>],
    order: ServingOrder,
) -> CostBreakdown {
    assert_eq!(
        positions.len(),
        instance.horizon() + 1,
        "trajectory must have T+1 positions"
    );
    assert!(
        positions[0].distance(&instance.start) <= 1e-9,
        "trajectory must begin at the instance start"
    );
    let mut out = CostBreakdown {
        per_step: Vec::with_capacity(instance.horizon()),
        ..Default::default()
    };
    for (t, step) in instance.steps.iter().enumerate() {
        let from = &positions[t];
        let to = &positions[t + 1];
        let movement = instance.d * from.distance(to);
        let service = service_cost(order.serve_from(from, to), &step.requests);
        out.movement += movement;
        out.service += service;
        out.per_step.push(StepCost { movement, service });
    }
    out
}

/// Checks that a trajectory respects the movement limit `max_move` in every
/// step, within absolute tolerance `tol`. Returns the index of the first
/// violating step, or `None` when feasible. Used to certify offline
/// solutions and to enforce that resource augmentation was applied to the
/// intended side only.
pub fn first_move_violation<const N: usize>(
    positions: &[Point<N>],
    max_move: f64,
    tol: f64,
) -> Option<usize> {
    positions
        .windows(2)
        .position(|w| w[0].distance(&w[1]) > max_move + tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Step;
    use msp_geometry::P2;

    fn inst() -> Instance<2> {
        Instance::new(
            3.0,
            1.0,
            P2::origin(),
            vec![
                Step::single(P2::xy(2.0, 0.0)),
                Step::repeated(P2::xy(2.0, 0.0), 2),
            ],
        )
    }

    #[test]
    fn move_first_serves_from_new_position() {
        let i = inst();
        let traj = [P2::origin(), P2::xy(1.0, 0.0), P2::xy(2.0, 0.0)];
        let c = evaluate_trajectory(&i, &traj, ServingOrder::MoveFirst);
        // Step 0: move 1 (·D=3) + serve |2-1| = 1. Step 1: move 1 (·3) + 2·0.
        assert!((c.per_step[0].movement - 3.0).abs() < 1e-12);
        assert!((c.per_step[0].service - 1.0).abs() < 1e-12);
        assert!((c.per_step[1].movement - 3.0).abs() < 1e-12);
        assert!((c.per_step[1].service - 0.0).abs() < 1e-12);
        assert!((c.total() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn answer_first_serves_from_old_position() {
        let i = inst();
        let traj = [P2::origin(), P2::xy(1.0, 0.0), P2::xy(2.0, 0.0)];
        let c = evaluate_trajectory(&i, &traj, ServingOrder::AnswerFirst);
        // Step 0: serve from origin: 2, move 3. Step 1: serve 2·|2-1|=2, move 3.
        assert!((c.per_step[0].service - 2.0).abs() < 1e-12);
        assert!((c.per_step[1].service - 2.0).abs() < 1e-12);
        assert!((c.total() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn answer_first_never_cheaper_on_same_trajectory_moving_towards_requests() {
        // Moving towards the only request: serving from the new position is
        // at least as cheap, so AnswerFirst ≥ MoveFirst here.
        let i = inst();
        let traj = [P2::origin(), P2::xy(1.0, 0.0), P2::xy(2.0, 0.0)];
        let mf = evaluate_trajectory(&i, &traj, ServingOrder::MoveFirst).total();
        let af = evaluate_trajectory(&i, &traj, ServingOrder::AnswerFirst).total();
        assert!(af >= mf);
    }

    #[test]
    fn stationary_trajectory_costs_only_service() {
        let i = inst();
        let traj = [P2::origin(); 3];
        let c = evaluate_trajectory(&i, &traj, ServingOrder::MoveFirst);
        assert_eq!(c.movement, 0.0);
        assert!((c.service - (2.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_match_total() {
        let i = inst();
        let traj = [P2::origin(), P2::xy(0.5, 0.5), P2::xy(1.0, 0.0)];
        let c = evaluate_trajectory(&i, &traj, ServingOrder::MoveFirst);
        let per_step_total: f64 = c.per_step.iter().map(StepCost::total).sum();
        assert!((per_step_total - c.total()).abs() < 1e-12);
    }

    #[test]
    fn feasibility_check_flags_violation() {
        let traj = [P2::origin(), P2::xy(0.5, 0.0), P2::xy(3.0, 0.0)];
        assert_eq!(first_move_violation(&traj, 1.0, 1e-9), Some(1));
        let ok = [P2::origin(), P2::xy(1.0, 0.0), P2::xy(2.0, 0.0)];
        assert_eq!(first_move_violation(&ok, 1.0, 1e-9), None);
    }

    #[test]
    #[should_panic(expected = "T+1 positions")]
    fn wrong_length_trajectory_panics() {
        let i = inst();
        let traj = [P2::origin(), P2::xy(1.0, 0.0)];
        let _ = evaluate_trajectory(&i, &traj, ServingOrder::MoveFirst);
    }

    #[test]
    #[should_panic(expected = "begin at the instance start")]
    fn wrong_start_panics() {
        let i = inst();
        let traj = [P2::xy(5.0, 5.0), P2::xy(5.0, 5.0), P2::xy(5.0, 5.0)];
        let _ = evaluate_trajectory(&i, &traj, ServingOrder::MoveFirst);
    }

    #[test]
    fn service_cost_sums_distances() {
        let reqs = [P2::xy(1.0, 0.0), P2::xy(0.0, 1.0), P2::xy(-1.0, 0.0)];
        assert!((service_cost(&P2::origin(), &reqs) - 3.0).abs() < 1e-12);
        assert_eq!(service_cost(&P2::origin(), &[]), 0.0);
    }

    #[test]
    fn serving_order_labels() {
        assert_eq!(ServingOrder::MoveFirst.label(), "move-first");
        assert_eq!(ServingOrder::AnswerFirst.label(), "answer-first");
    }
}
