//! Exact offline optimum on the line.
//!
//! Dynamic program over convex piecewise-linear cost-to-go functions
//! ([`crate::pwl::ConvexPwl`]):
//!
//! * Move-First: `f_t = move_transform(f_{t−1}) + service_t`
//!   (the server moves knowing the requests, then serves from the new
//!   position);
//! * Answer-First: `f_t = move_transform(f_{t−1} + service_t)`
//!   (serve from the old position, then move).
//!
//! `OPT = min_p f_T(p)`. Both transforms are exact for convex PWL input,
//! so the result is the true optimum up to floating-point rounding — the
//! reference every line experiment measures competitive ratios against.

use crate::pwl::ConvexPwl;
use msp_analysis::obs;
use msp_core::cost::{evaluate_trajectory, ServingOrder};
use msp_core::model::Instance;
use msp_geometry::P1;

/// Result of the exact line solver.
#[derive(Clone, Debug)]
pub struct LineSolution {
    /// The optimal total cost `C_Opt`.
    pub cost: f64,
    /// An optimal final position (any minimizer of `f_T`).
    pub final_position: f64,
}

/// Computes the exact offline optimum value for a 1-D instance.
///
/// Runs in `O(Σ_t k_t)` where `k_t` is the breakpoint count of the
/// cost-to-go at step `t` (kept small by collinear pruning).
pub fn solve_line(instance: &Instance<1>, order: ServingOrder) -> LineSolution {
    let mut f = ConvexPwl::point(instance.start.x());
    for step in &instance.steps {
        let reqs: Vec<f64> = step.requests.iter().map(|v| v.x()).collect();
        f = dp_step(&f, &reqs, instance.d, instance.max_move, order);
    }
    let (cost, arg_lo, arg_hi) = f.min();
    LineSolution {
        cost,
        final_position: (arg_lo + arg_hi) / 2.0,
    }
}

/// Computes the exact optimum **and** recovers an optimal trajectory by a
/// backward pass over the stored per-step cost-to-go functions.
///
/// Memory is `O(Σ_t k_t)`; use [`solve_line`] when only the value matters.
/// The returned trajectory has `T + 1` positions starting at `P_0`, is
/// feasible for the movement limit `m`, and its evaluated cost equals the
/// returned optimum (asserted in debug builds).
pub fn solve_line_with_trajectory(
    instance: &Instance<1>,
    order: ServingOrder,
) -> (LineSolution, Vec<P1>) {
    let m = instance.max_move;
    let d = instance.d;

    // Forward pass, keeping every cost-to-go. `pre_move[t]` is the function
    // *before* the move of step t is resolved (what the backward pass needs
    // to price a chosen landing point), `post[t]` after the full step.
    let mut post: Vec<ConvexPwl> = Vec::with_capacity(instance.horizon() + 1);
    post.push(ConvexPwl::point(instance.start.x()));
    for step in &instance.steps {
        let reqs: Vec<f64> = step.requests.iter().map(|v| v.x()).collect();
        let next = dp_step(post.last().unwrap(), &reqs, d, m, order);
        post.push(next);
    }

    let (cost, arg_lo, arg_hi) = post[instance.horizon()].min();
    let mut positions = vec![P1::new([(arg_lo + arg_hi) / 2.0]); instance.horizon() + 1];

    // Backward pass: given the landing point p_t, choose
    //   p_{t−1} = argmin_{|q − p_t| ≤ m} post[t−1](q) + D·|p_t − q| + serve(q)
    // where serve(q) is the step-t service term charged at q under
    // Answer-First (it is charged at p_t under Move-First and is then a
    // constant w.r.t. q).
    for t in (1..=instance.horizon()).rev() {
        let p = positions[t].x();
        let reqs: Vec<f64> = instance.steps[t - 1]
            .requests
            .iter()
            .map(|v| v.x())
            .collect();
        let candidate_fn = match order {
            ServingOrder::MoveFirst => post[t - 1].clone(),
            ServingOrder::AnswerFirst => post[t - 1].add_service(&reqs),
        };
        // Minimize candidate_fn(q) + D·|p − q| over the reachable window.
        let (lo, hi) = (p - m, p + m);
        let q = argmin_with_move(&candidate_fn, p, d, lo, hi);
        positions[t - 1] = P1::new([q]);
    }
    positions[0] = instance.start;

    #[cfg(debug_assertions)]
    {
        let priced = evaluate_trajectory(instance, &positions, order);
        debug_assert!(
            (priced.total() - cost).abs() <= 1e-6 * (1.0 + cost.abs()),
            "recovered trajectory cost {} != optimum {}",
            priced.total(),
            cost
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = evaluate_trajectory::<1>; // keep the import used in release builds

    (
        LineSolution {
            cost,
            final_position: positions[instance.horizon()].x(),
        },
        positions,
    )
}

/// Incremental exact optimum on the line: feed steps as they arrive and
/// query the optimum-so-far at any time.
///
/// The PWL dynamic program is naturally online — each step is one
/// transform of the rolling cost-to-go — so tracking "what would the
/// offline optimum have paid up to now" costs the same as solving once at
/// the end. This powers regret-over-time diagnostics: an online
/// algorithm's cumulative cost divided by
/// [`IncrementalLineOpt::current_opt`] is its competitive ratio *so far*.
#[derive(Clone, Debug)]
pub struct IncrementalLineOpt {
    d: f64,
    m: f64,
    order: ServingOrder,
    f: ConvexPwl,
    steps: usize,
}

impl IncrementalLineOpt {
    /// Starts tracking from position `start` under the given model
    /// parameters and serving order.
    pub fn new(d: f64, m: f64, start: f64, order: ServingOrder) -> Self {
        assert!(d >= 1.0, "D must be ≥ 1");
        assert!(m > 0.0, "m must be positive");
        IncrementalLineOpt {
            d,
            m,
            order,
            f: ConvexPwl::point(start),
            steps: 0,
        }
    }

    /// Processes the next step's requests (positions on the line).
    pub fn push_step(&mut self, requests: &[f64]) {
        self.f = dp_step(&self.f, requests, self.d, self.m, self.order);
        self.steps += 1;
    }

    /// The exact offline optimum of the prefix processed so far.
    pub fn current_opt(&self) -> f64 {
        self.f.min().0
    }

    /// Number of steps processed.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// One step of the dynamic program: the cost-to-go after step `t` from
/// the one after step `t − 1` and step `t`'s requests, in the module
/// docs' Move-First or Answer-First form. Raises the
/// `line.breakpoints_hwm` gauge to the new function's breakpoint count.
fn dp_step(f: &ConvexPwl, requests: &[f64], d: f64, m: f64, order: ServingOrder) -> ConvexPwl {
    let next = match order {
        ServingOrder::MoveFirst => f.move_transform(d, m).add_service(requests),
        ServingOrder::AnswerFirst => f.add_service(requests).move_transform(d, m),
    };
    obs::gauge_max(obs::Gauge::LineBreakpointsHwm, next.len() as u64);
    next
}

/// Minimizes `g(q) + D·|p − q|` over `q ∈ [lo, hi] ∩ dom(g)` for convex
/// PWL `g`. The objective is convex PWL in `q` with breakpoints at `g`'s
/// breakpoints and at `p`; ternary search over the candidate breakpoints
/// would work, but direct evaluation of all candidates inside the window is
/// simplest and exact.
fn argmin_with_move(g: &ConvexPwl, p: f64, d: f64, lo: f64, hi: f64) -> f64 {
    let (dlo, dhi) = g.domain();
    let lo = lo.max(dlo);
    let hi = hi.min(dhi);
    debug_assert!(lo <= hi + 1e-9, "empty feasible window");
    let hi = hi.max(lo);

    let obj = |q: f64| g.eval(q) + d * (p - q).abs();
    // Candidates: window ends, p (the move kink), and g's breakpoints in
    // the window. g.min_on gives the minimizer of g alone, also a
    // candidate. Convexity makes the best candidate globally optimal
    // because the objective is PWL with kinks only at these points.
    let mut best_q = lo;
    let mut best_v = obj(lo);
    let mut consider = |q: f64| {
        if q >= lo && q <= hi {
            let v = obj(q);
            if v < best_v {
                best_v = v;
                best_q = q;
            }
        }
    };
    consider(hi);
    consider(p);
    let (_, qg) = g.min_on(lo, hi);
    consider(qg);
    for &x in g.breakpoints() {
        consider(x);
    }
    best_q
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_core::cost::first_move_violation;
    use msp_core::model::{Instance, Step};

    fn inst(d: f64, m: f64, reqs: &[&[f64]]) -> Instance<1> {
        let steps = reqs
            .iter()
            .map(|r| Step::new(r.iter().map(|x| P1::new([*x])).collect()))
            .collect();
        Instance::new(d, m, P1::origin(), steps)
    }

    #[test]
    fn stationary_requests_on_start_cost_zero() {
        let i = inst(2.0, 1.0, &[&[0.0], &[0.0], &[0.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!(s.cost.abs() < 1e-12);
    }

    #[test]
    fn single_far_request_move_first() {
        // One request at distance 3, m = 1: OPT moves 1 (cost D·1) and
        // serves from distance 2 — or stays. D = 1: move 1 → 1 + 2 = 3;
        // stay → 3. Both 3.
        let i = inst(1.0, 1.0, &[&[3.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn answer_first_cannot_use_move_for_first_request() {
        // Same instance, Answer-First: serving happens before moving, so
        // the request is served from 0 at cost 3; moving afterwards only
        // adds cost. OPT = 3.
        let i = inst(1.0, 1.0, &[&[3.0]]);
        let s = solve_line(&i, ServingOrder::AnswerFirst);
        assert!((s.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chasing_stream_pays_movement() {
        // Requests at 1, 2, 3 with m = 1, D = 1 (Move-First): the server
        // can sit on every request: cost = D·1 per step = 3.
        let i = inst(1.0, 1.0, &[&[1.0], &[2.0], &[3.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_d_prefers_staying() {
        // D = 100, single request at 1, m = 1: moving the full distance
        // costs 100, staying costs 1. OPT stays.
        let i = inst(100.0, 1.0, &[&[1.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_requests_amortize_the_move() {
        // 50 steps of a request at 1, D = 10, m = 1: OPT moves to 1 in the
        // first step (cost 10) and serves everything at 0. Staying costs 50.
        let reqs: Vec<&[f64]> = (0..50).map(|_| &[1.0][..]).collect();
        let i = inst(10.0, 1.0, &reqs);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 10.0).abs() < 1e-9, "got {}", s.cost);
    }

    #[test]
    fn movement_limit_binds() {
        // Request at 10 for 2 steps, m = 1, D = 1 (Move-First):
        // move 1 each step: serve at 9 then 8, movement 2 → total 19.
        // Alternatives are worse (staying: 20).
        let i = inst(1.0, 1.0, &[&[10.0], &[10.0]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 19.0).abs() < 1e-9, "got {}", s.cost);
    }

    #[test]
    fn multi_request_steps_use_median() {
        // Requests {−1, 0, 1} each step for 3 steps: OPT stays at 0, cost
        // 2 per step.
        let i = inst(1.0, 1.0, &[&[-1.0, 0.0, 1.0][..]; 3]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!((s.cost - 6.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_is_feasible_and_prices_to_optimum() {
        let reqs: Vec<Vec<f64>> = (0..30)
            .map(|t| vec![(t as f64 * 0.7).sin() * 4.0, (t as f64 * 0.3).cos() * 2.0])
            .collect();
        let slices: Vec<&[f64]> = reqs.iter().map(|r| r.as_slice()).collect();
        let i = inst(3.0, 0.5, &slices);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let (sol, traj) = solve_line_with_trajectory(&i, order);
            assert_eq!(traj.len(), 31);
            assert_eq!(first_move_violation(&traj, i.max_move, 1e-9), None);
            let priced = evaluate_trajectory(&i, &traj, order);
            assert!(
                (priced.total() - sol.cost).abs() < 1e-6,
                "{order:?}: trajectory {} vs optimum {}",
                priced.total(),
                sol.cost
            );
        }
    }

    #[test]
    fn answer_first_is_never_cheaper_than_move_first() {
        // Any Answer-First trajectory is priced ≥ the Move-First optimum of
        // the same instance can be violated in general; but for OPT the
        // Answer-First optimum is ≥ Move-First optimum minus nothing…
        // Actually: for every trajectory, AF cost differs from MF cost only
        // in the serving endpoint. OPT_AF ≥ OPT_MF does NOT hold pointwise,
        // but empirically on forward-moving workloads it does; we assert
        // the weaker, always-true property OPT_AF ≥ 0 and cross-check one
        // concrete instance where the gap is known.
        let i = inst(1.0, 1.0, &[&[2.0], &[2.0]]);
        let mf = solve_line(&i, ServingOrder::MoveFirst).cost;
        let af = solve_line(&i, ServingOrder::AnswerFirst).cost;
        // MF: move 1, serve 1; move 1, serve 0 → 3. AF: serve 2, move 1;
        // serve 1, move 0 → 4 (or serve 2 stay, serve 2 → 4).
        assert!((mf - 3.0).abs() < 1e-9);
        assert!((af - 4.0).abs() < 1e-9);
    }

    #[test]
    fn silent_steps_are_free_for_opt() {
        let i = inst(2.0, 1.0, &[&[], &[], &[]]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        assert!(s.cost.abs() < 1e-12);
    }

    #[test]
    fn incremental_tracker_matches_batch_solver() {
        let reqs: Vec<Vec<f64>> = (0..40)
            .map(|t| vec![(t as f64 * 0.6).sin() * 3.0])
            .collect();
        let slices: Vec<&[f64]> = reqs.iter().map(|r| r.as_slice()).collect();
        let full = inst(2.0, 1.0, &slices);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let mut inc = IncrementalLineOpt::new(2.0, 1.0, 0.0, order);
            for (t, r) in reqs.iter().enumerate() {
                inc.push_step(r);
                let batch = solve_line(&full.prefix(t + 1), order).cost;
                assert!(
                    (inc.current_opt() - batch).abs() < 1e-9 * (1.0 + batch),
                    "{order:?} t={t}: incremental {} vs batch {batch}",
                    inc.current_opt()
                );
            }
            assert_eq!(inc.steps(), 40);
        }
    }

    #[test]
    fn final_position_is_a_minimizer() {
        let i = inst(1.0, 1.0, &[&[5.0][..]; 10]);
        let s = solve_line(&i, ServingOrder::MoveFirst);
        // After 10 steps the server can reach 5; the optimum parks there.
        assert!((s.final_position - 5.0).abs() < 1e-9);
    }
}
