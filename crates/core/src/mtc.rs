//! The Move-to-Center algorithm (Section 4 of the paper).
//!
//! > Assume the algorithm has its server located at a point `P_Alg` and
//! > receives requests `v_1, …, v_r`. Let `c` be the point minimizing
//! > `Σ_i d(c, v_i)`. If `c` is not unique, pick the one minimizing
//! > `d(P_Alg, c)`. MtC moves the server towards `c` for a distance of
//! > `min{1, r/D}·d(P_Alg, c)` if this distance is less than `(1+δ)m`.
//! > Otherwise it moves the server a distance of `(1+δ)m` towards `c`.
//!
//! Theorem 4 proves MtC is `O((1/δ)·R_max/R_min)`-competitive on the line
//! and `O((1/δ^{3/2})·R_max/R_min)`-competitive in the plane; Theorem 7
//! extends it to the Answer-First variant and Theorem 10 shows the same
//! rule (with `r = 1 ≤ D`, i.e. step `d(P, A_t)/D`) is `O(1)`-competitive
//! in the Moving-Client variant without augmentation.
//!
//! **Performance:** the struct is const-generic over the dimension so it
//! can own a [`MedianSolver`] — a warm-starting, allocation-free
//! geometric-median solver. Successive request sets drift slowly, so
//! seeding each step's Weiszfeld iteration from the previous center
//! collapses the per-step iteration count; [`MoveToCenter::median_telemetry`]
//! exposes the counters. The warm state is cleared on every
//! [`OnlineAlgorithm::reset`], so repeated runs stay deterministic.

use crate::algorithm::{
    decode_point, encode_point, AlgContext, OnlineAlgorithm, WarmStateCodec, WarmStateError,
};
use msp_analysis::obs;
use msp_geometry::median::{
    centroid, weighted_center, MedianOptions, MedianSolver, MedianTelemetry,
};
use msp_geometry::{step_towards, Point};

/// Which center of the request set MtC targets. The paper uses the
/// 1-median; the centroid is provided for the A2 ablation (it minimizes
/// squared distances instead and loses the `4α+1` reduction of Lemma 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CenterTarget {
    /// The paper's choice: minimizer of `Σ_i d(c, v_i)`, ties broken
    /// towards the server.
    GeometricMedian,
    /// Ablation: the arithmetic mean of the requests.
    Centroid,
}

/// The paper's deterministic online algorithm.
#[derive(Clone, Debug)]
pub struct MoveToCenter<const N: usize> {
    /// Center of the request multiset to head towards.
    pub center: CenterTarget,
    /// Convergence options for the geometric-median computation.
    pub median_opts: MedianOptions,
    solver: MedianSolver<N>,
}

impl<const N: usize> MoveToCenter<N> {
    /// Paper-faithful MtC (geometric-median target, default solver
    /// tolerances).
    pub fn new() -> Self {
        Self::with_center(CenterTarget::GeometricMedian)
    }

    /// MtC with an alternative center target (ablation A2).
    pub fn with_center(center: CenterTarget) -> Self {
        let median_opts = MedianOptions::default();
        MoveToCenter {
            center,
            median_opts,
            solver: MedianSolver::new(median_opts),
        }
    }

    /// The center point `c` for a request set as seen from `current`.
    ///
    /// Stateless cold-start computation, for external callers (fleet
    /// partitioning, experiment replays) that probe centers out of
    /// sequence; the simulation hot path goes through the internal
    /// warm-started solver instead.
    pub fn center_of(&self, requests: &[Point<N>], current: &Point<N>) -> Point<N> {
        match self.center {
            CenterTarget::GeometricMedian => weighted_center(requests, current, self.median_opts),
            CenterTarget::Centroid => centroid(requests),
        }
    }

    /// Iteration counters of the internal warm-started median solver.
    pub fn median_telemetry(&self) -> MedianTelemetry {
        self.solver.telemetry
    }
}

/// The observability registry's aggregate view of median-solver activity,
/// as a [`MedianTelemetry`] — the same struct
/// [`MoveToCenter::median_telemetry`] returns for one solver instance,
/// deduplicated at the process level: every `decide` publishes its solver
/// deltas into `msp_analysis::obs` (while metrics are enabled), so the
/// registry totals are the sum over all solver instances.
/// `last_iterations` is inherently per-solver and reads as 0 here.
pub fn median_telemetry_view(snapshot: &obs::MetricsSnapshot) -> MedianTelemetry {
    MedianTelemetry {
        solves: snapshot
            .counter(obs::Counter::MedianSolves.name())
            .unwrap_or(0),
        iterations: snapshot
            .counter(obs::Counter::MedianIterations.name())
            .unwrap_or(0),
        warm_starts: snapshot
            .counter(obs::Counter::MedianWarmStarts.name())
            .unwrap_or(0),
        last_iterations: 0,
    }
}

impl<const N: usize> Default for MoveToCenter<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> OnlineAlgorithm<N> for MoveToCenter<N> {
    fn name(&self) -> String {
        match self.center {
            CenterTarget::GeometricMedian => "mtc".into(),
            CenterTarget::Centroid => "mtc-centroid".into(),
        }
    }

    fn reset(&mut self, _ctx: &AlgContext<N>) {
        // MtC is memoryless in the model sense: each decision depends only
        // on the current position and the current requests. The solver's
        // warm-start iterate is a numerical accelerator, not algorithmic
        // state, and is cleared here so reruns are bit-identical.
        self.solver.set_options(self.median_opts);
        self.solver.reset();
    }

    fn decide(
        &mut self,
        current: &Point<N>,
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Point<N> {
        if requests.is_empty() {
            // No requests: nothing pulls the server anywhere.
            return *current;
        }
        let c = match self.center {
            CenterTarget::GeometricMedian => {
                // Keep the solver in lockstep with the public `median_opts`
                // field even when callers mutate it between decisions
                // without an intervening reset (a cheap Copy assignment).
                self.solver.set_options(self.median_opts);
                // Route the solver's telemetry deltas through the
                // observability registry (msp-geometry sits below
                // msp-analysis in the crate graph, so the bridge lives
                // here). Publishing counters never feeds back into the
                // solve: decisions are bit-equal with metrics on or off.
                let before = obs::enabled().then_some(self.solver.telemetry);
                let c = self.solver.center(requests, current);
                if let Some(before) = before {
                    let t = self.solver.telemetry;
                    obs::add(obs::Counter::MedianSolves, t.solves - before.solves);
                    obs::add(
                        obs::Counter::MedianIterations,
                        t.iterations - before.iterations,
                    );
                    obs::add(
                        obs::Counter::MedianWarmStarts,
                        t.warm_starts - before.warm_starts,
                    );
                }
                c
            }
            CenterTarget::Centroid => centroid(requests),
        };
        let r = requests.len() as f64;
        let pull = (r / ctx.d).min(1.0) * current.distance(&c);
        let step = pull.min(ctx.online_budget());
        step_towards(current, &c, step)
    }
}

impl<const N: usize> WarmStateCodec for MoveToCenter<N> {
    // Layout: tag `0` (cold solver) or tag `1` followed by the warm
    // iterate as 8·N little-endian f64 bit patterns. The warm iterate is
    // the only per-run state the solver carries (scratch buffers and
    // telemetry never feed back into the numerics), so round-tripping it
    // bit-exactly makes a resumed run's decisions identical to the
    // uninterrupted run's.
    fn encode_warm_state(&self, out: &mut Vec<u8>) {
        match self.solver.warm_state() {
            None => out.push(0),
            Some(center) => {
                out.push(1);
                encode_point(&center, out);
            }
        }
    }

    fn decode_warm_state(&mut self, bytes: &[u8]) -> Result<(), WarmStateError> {
        match bytes.split_first() {
            Some((0, [])) => Ok(()),
            Some((0, _)) => Err(WarmStateError::new("trailing bytes after cold mtc tag")),
            Some((1, rest)) => {
                self.solver.seed(decode_point::<N>(rest)?);
                Ok(())
            }
            Some((tag, _)) => Err(WarmStateError::new(format!("unknown mtc tag {tag}"))),
            None => Err(WarmStateError::new("empty mtc warm-state blob")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Instance, Step, StreamParams};
    use msp_geometry::{P1, P2};

    fn ctx2(d: f64, m: f64, delta: f64) -> AlgContext<2> {
        let inst = Instance::new(d, m, P2::origin(), vec![Step::new(vec![])]);
        AlgContext::new(&inst, delta)
    }

    #[test]
    fn empty_step_stays_put() {
        let mut mtc = MoveToCenter::new();
        let ctx = ctx2(2.0, 1.0, 0.5);
        let p = P2::xy(3.0, 4.0);
        assert_eq!(mtc.decide(&p, &[], &ctx), p);
    }

    #[test]
    fn single_request_r_below_d_moves_fraction() {
        // r = 1, D = 4: pull = (1/4)·d(P, c). Request 2 away → move 0.5.
        let mut mtc = MoveToCenter::new();
        let ctx = ctx2(4.0, 10.0, 0.0);
        let p = P2::origin();
        let next = mtc.decide(&p, &[P2::xy(2.0, 0.0)], &ctx);
        assert!((next.distance(&p) - 0.5).abs() < 1e-9, "got {next:?}");
        assert!((next - P2::xy(0.5, 0.0)).norm() < 1e-9);
    }

    #[test]
    fn many_requests_move_full_distance_to_center() {
        // r = 8 > D = 2: pull = d(P, c); center within budget → land on it.
        let mut mtc = MoveToCenter::new();
        let ctx = ctx2(2.0, 10.0, 0.0);
        let reqs = vec![P2::xy(1.0, 0.0); 8];
        let next = mtc.decide(&P2::origin(), &reqs, &ctx);
        assert!(next.distance(&P2::xy(1.0, 0.0)) < 1e-9);
    }

    #[test]
    fn budget_caps_the_step() {
        // Pull would be 5, but budget (1+δ)m = 1.5·1 caps it.
        let mut mtc = MoveToCenter::new();
        let ctx = ctx2(1.0, 1.0, 0.5);
        let next = mtc.decide(&P2::origin(), &[P2::xy(5.0, 0.0)], &ctx);
        assert!((next.distance(&P2::origin()) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn tie_break_uses_server_position() {
        // Two requests on the x-axis: every point between them is a center.
        // MtC must pick the one closest to the server — the projection.
        let mut mtc = MoveToCenter::new();
        let ctx = ctx2(1.0, 100.0, 0.0);
        let server = P2::xy(0.5, 2.0);
        let reqs = [P2::xy(0.0, 0.0), P2::xy(1.0, 0.0)];
        let next = mtc.decide(&server, &reqs, &ctx);
        // r=2 ≥ D=1 → move all the way to c = (0.5, 0) (closest center).
        assert!(next.distance(&P2::xy(0.5, 0.0)) < 1e-9, "got {next:?}");
    }

    #[test]
    fn tie_break_minimizes_movement_cost() {
        // Server already on a center: must not move at all.
        let mut mtc = MoveToCenter::new();
        let ctx = ctx2(1.0, 100.0, 0.0);
        let server = P2::xy(0.3, 0.0);
        let reqs = [P2::xy(0.0, 0.0), P2::xy(1.0, 0.0)];
        let next = mtc.decide(&server, &reqs, &ctx);
        assert!(next.distance(&server) < 1e-9);
    }

    #[test]
    fn centroid_variant_targets_mean() {
        let mut mtc = MoveToCenter::with_center(CenterTarget::Centroid);
        let ctx = ctx2(1.0, 100.0, 0.0);
        // Median of {0,0,10} on the line is 0; centroid is 10/3.
        let reqs = [P2::origin(), P2::origin(), P2::xy(10.0, 0.0)];
        let next = mtc.decide(&P2::xy(5.0, 0.0), &reqs, &ctx);
        assert!(
            next.distance(&P2::xy(10.0 / 3.0, 0.0)) < 1e-9,
            "got {next:?}"
        );
    }

    #[test]
    fn works_on_the_line() {
        let inst = Instance::new(2.0, 1.0, P1::origin(), vec![Step::new(vec![])]);
        let ctx = AlgContext::new(&inst, 0.0);
        let mut mtc = MoveToCenter::new();
        let next = mtc.decide(&P1::origin(), &[P1::new([4.0])], &ctx);
        // pull = (1/2)·4 = 2 > budget 1 → move 1.
        assert!((next.x() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn never_exceeds_budget_fuzz() {
        use msp_geometry::sample::SeededSampler;
        let mut s = SeededSampler::new(31);
        let mut mtc = MoveToCenter::new();
        for _ in 0..200 {
            let d = s.uniform(1.0, 8.0);
            let m = s.uniform(0.1, 2.0);
            let delta = s.uniform(0.0, 1.0);
            let inst = Instance::new(d, m, P2::origin(), vec![Step::new(vec![])]);
            let ctx = AlgContext::new(&inst, delta);
            let cur: P2 = s.point_in_cube(5.0);
            let r = s.int_inclusive(1, 6);
            let reqs: Vec<P2> = (0..r).map(|_| s.point_in_cube(5.0)).collect();
            let next = mtc.decide(&cur, &reqs, &ctx);
            assert!(next.distance(&cur) <= ctx.online_budget() + 1e-9);
        }
    }

    #[test]
    fn decide_routes_median_telemetry_through_the_registry() {
        // The registry is process-global and sibling tests solve medians
        // concurrently, so assert growth deltas (≥), never exact counts.
        obs::enable();
        let mut mtc = MoveToCenter::<2>::new();
        let ctx = AlgContext::from_params(&StreamParams::new(4.0, 1.0, P2::origin()), 0.1);
        mtc.reset(&ctx);
        let before = median_telemetry_view(&obs::snapshot());
        let reqs = [P2::xy(1.0, 0.4), P2::xy(-0.3, 1.2), P2::xy(0.8, -0.9)];
        let _ = mtc.decide(&P2::origin(), &reqs, &ctx);
        let after = median_telemetry_view(&obs::snapshot());
        let local = mtc.median_telemetry();
        assert!(local.solves >= 1);
        assert!(
            after.solves >= before.solves + local.solves,
            "registry view must absorb this solver's activity: {before:?} -> {after:?}"
        );
        assert!(after.iterations >= before.iterations + local.iterations);
        assert_eq!(after.last_iterations, 0, "inherently per-solver");
    }

    #[test]
    fn names_distinguish_variants() {
        let a: &dyn OnlineAlgorithm<2> = &MoveToCenter::new();
        let b: &dyn OnlineAlgorithm<2> = &MoveToCenter::with_center(CenterTarget::Centroid);
        assert_eq!(a.name(), "mtc");
        assert_eq!(b.name(), "mtc-centroid");
    }

    #[test]
    fn warm_solver_threads_through_decisions() {
        // A long decision sequence on drifting requests: the internal
        // solver must record warm starts and stay in lockstep with the
        // stateless center computation. Five requests per step, since
        // three or four take the solver's closed form, which never warm
        // starts.
        let mut mtc = MoveToCenter::<2>::new();
        let ctx = ctx2(4.0, 0.5, 0.2);
        mtc.reset(&ctx);
        let mut pos = P2::origin();
        for t in 0..100 {
            let s = 0.05 * t as f64;
            let reqs = [
                P2::xy(1.0 + s, 0.4),
                P2::xy(0.5 + s, -0.7),
                P2::xy(1.5 + s, 0.9),
                P2::xy(0.3 + s, 0.5),
                P2::xy(1.2 + s, -0.2),
            ];
            let cold_center = mtc.center_of(&reqs, &pos);
            let next = mtc.decide(&pos, &reqs, &ctx);
            // The decision must head towards (within 1e-9 of) the cold
            // center — warm starting is numerics, not policy.
            let pull = (5.0f64 / ctx.d).min(1.0) * pos.distance(&cold_center);
            let expect = step_towards(&pos, &cold_center, pull.min(ctx.online_budget()));
            assert!(next.distance(&expect) < 1e-9, "step {t}");
            pos = next;
        }
        let telemetry = mtc.median_telemetry();
        assert_eq!(telemetry.solves, 100);
        assert!(telemetry.warm_starts >= 99);
        // Reset clears the warm state: the next solve is cold again.
        mtc.reset(&ctx);
        let before = mtc.median_telemetry().warm_starts;
        let _ = mtc.decide(
            &P2::origin(),
            &[
                P2::xy(1.0, 0.2),
                P2::xy(0.0, 1.1),
                P2::xy(-1.0, 0.3),
                P2::xy(0.4, -0.8),
                P2::xy(-0.2, 0.1),
            ],
            &ctx,
        );
        assert_eq!(mtc.median_telemetry().warm_starts, before);
    }
}
