//! Baseline online algorithms.
//!
//! The paper compares against the Page Migration literature analytically;
//! the experiment suite needs those strategies as executable code. All
//! baselines respect the same movement budget as MtC (the simulator clamps
//! every proposal), so comparisons isolate the *decision rule*.
//!
//! * [`Lazy`] — never moves. Its ratio degrades linearly with the distance
//!   drift of the requests; the Theorem 1 construction drives it to
//!   `Θ(T)`-ish cost.
//! * [`FollowCenter`] — greedy chase: always moves at full budget towards
//!   the request center. Ablation A1 contrasts it with MtC's damped
//!   `min{1, r/D}` step, which is what makes the potential argument work.
//! * [`FractionalStep`] — MtC with the pull scaled by a constant `κ`
//!   (`κ = 1` recovers MtC); the other arm of ablation A1.
//! * [`MoveToMin`] — adaptation of Westbrook's Move-To-Min page-migration
//!   algorithm (7-competitive in the unrestricted model): batch the
//!   requests of the last `⌈D/r̄⌉` steps, then head for the batch's
//!   1-median. Standard page-migration solutions "require moving to a
//!   specific point after collecting a batch of requests" (Section 5) —
//!   the movement limit is why they break here, which this baseline makes
//!   measurable.
//! * [`RandomizedCoinFlip`] — adaptation of Westbrook's Coin-Flip
//!   algorithm (3-competitive unrestricted): with probability
//!   `min{1, r/(2D)}` per step, adopt the request center as the standing
//!   target; always move towards the standing target at full budget.

use crate::algorithm::{AlgContext, Memoryless, OnlineAlgorithm};
use msp_geometry::median::weighted_center;
use msp_geometry::{step_towards, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Never moves; serves every request from `P_0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lazy;

impl Memoryless for Lazy {}

impl<const N: usize> OnlineAlgorithm<N> for Lazy {
    fn name(&self) -> String {
        "lazy".into()
    }
    fn reset(&mut self, _ctx: &AlgContext<N>) {}
    fn decide(
        &mut self,
        current: &Point<N>,
        _requests: &[Point<N>],
        _ctx: &AlgContext<N>,
    ) -> Point<N> {
        *current
    }
}

/// Greedy chase: full movement budget towards the request center each step.
#[derive(Clone, Debug, Default)]
pub struct FollowCenter;

impl FollowCenter {
    /// Creates the greedy chaser.
    pub fn new() -> Self {
        FollowCenter
    }
}

impl Memoryless for FollowCenter {}

impl<const N: usize> OnlineAlgorithm<N> for FollowCenter {
    fn name(&self) -> String {
        "follow-center".into()
    }
    fn reset(&mut self, _ctx: &AlgContext<N>) {}
    fn decide(
        &mut self,
        current: &Point<N>,
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Point<N> {
        if requests.is_empty() {
            return *current;
        }
        let c = weighted_center(requests, current);
        step_towards(current, &c, ctx.online_budget())
    }
}

/// MtC with the pull strength scaled by `κ`: step
/// `min{1, κ·r/D}·d(P, c)`, capped at the budget. `κ = 1` is exactly MtC;
/// ablation A1 sweeps `κ` to show the paper's damping constant matters.
#[derive(Clone, Debug)]
pub struct FractionalStep {
    /// Pull multiplier `κ > 0`.
    pub kappa: f64,
}

impl FractionalStep {
    /// Creates the variant with pull multiplier `kappa`.
    ///
    /// # Panics
    /// Panics unless `kappa` is positive and finite.
    pub fn new(kappa: f64) -> Self {
        assert!(kappa > 0.0 && kappa.is_finite(), "κ must be positive");
        FractionalStep { kappa }
    }
}

impl Memoryless for FractionalStep {}

impl<const N: usize> OnlineAlgorithm<N> for FractionalStep {
    fn name(&self) -> String {
        format!("mtc-kappa-{:.2}", self.kappa)
    }
    fn reset(&mut self, _ctx: &AlgContext<N>) {}
    fn decide(
        &mut self,
        current: &Point<N>,
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Point<N> {
        if requests.is_empty() {
            return *current;
        }
        let c = weighted_center(requests, current);
        let r = requests.len() as f64;
        let pull = (self.kappa * r / ctx.d).min(1.0) * current.distance(&c);
        step_towards(current, &c, pull.min(ctx.online_budget()))
    }
}

/// Namespace for constructing the Move-To-Min baseline in the plane; the
/// algorithm itself is the generic [`MoveToMinN`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MoveToMin;

/// Adaptation of Westbrook's deterministic Move-To-Min for dimension `N`:
/// collect requests until their count reaches `D`, re-target the batch
/// 1-median, then drain towards it at full budget. Not [`Memoryless`]: the
/// pending batch and the standing target carry over from step to step.
#[derive(Clone, Debug)]
pub struct MoveToMinN<const N: usize> {
    batch: Vec<Point<N>>,
    target: Option<Point<N>>,
}

impl<const N: usize> MoveToMinN<N> {
    /// Fresh Move-To-Min with an empty batch.
    pub fn new() -> Self {
        MoveToMinN {
            batch: Vec::new(),
            target: None,
        }
    }
}

impl<const N: usize> Default for MoveToMinN<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl MoveToMin {
    /// Builds the 2-D convenience wrapper (most experiments run in the
    /// plane); other dimensions use [`MoveToMinN`] directly.
    #[allow(clippy::new_ret_no_self)] // namespace type: `MoveToMin` is the
                                      // user-facing name, the state lives in the dimension-generic struct
    pub fn new() -> MoveToMinN<2> {
        MoveToMinN::new()
    }
}

impl<const N: usize> OnlineAlgorithm<N> for MoveToMinN<N> {
    fn name(&self) -> String {
        "move-to-min".into()
    }

    fn reset(&mut self, _ctx: &AlgContext<N>) {
        self.batch.clear();
        self.target = None;
    }

    fn decide(
        &mut self,
        current: &Point<N>,
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Point<N> {
        self.batch.extend_from_slice(requests);
        // Once the batch carries at least D requests (the classical
        // trigger: D requests have been served since the last migration),
        // commit to the batch median and start a new batch.
        if self.batch.len() as f64 >= ctx.d {
            self.target = Some(weighted_center(&self.batch, current));
            self.batch.clear();
        }
        match self.target {
            Some(t) => {
                let next = step_towards(current, &t, ctx.online_budget());
                if next == t {
                    // Arrived; wait for the next batch to complete.
                    self.target = None;
                }
                next
            }
            None => *current,
        }
    }
}

/// Adaptation of Westbrook's randomized Coin-Flip algorithm: each step,
/// with probability `min{1, r/(2D)}`, re-target the current request
/// center; always move at full budget towards the standing target.
///
/// The RNG is re-seeded from `seed` on every [`OnlineAlgorithm::reset`], so
/// runs are reproducible and repeated runs of the same configured instance
/// coincide.
///
/// [`Memoryless`] is deliberately **not** implemented here: the RNG and
/// the standing target carry over from step to step, so a run resumed
/// from a checkpoint alone could not replay the coin flips bit-equal to
/// the uninterrupted run.
#[derive(Clone, Debug)]
pub struct RandomizedCoinFlip<const N: usize> {
    /// Seed applied at reset.
    pub seed: u64,
    rng: StdRng,
    target: Option<Point<N>>,
}

impl<const N: usize> RandomizedCoinFlip<N> {
    /// Coin-flip baseline with a fixed seed.
    pub fn new(seed: u64) -> Self {
        RandomizedCoinFlip {
            seed,
            rng: StdRng::seed_from_u64(seed),
            target: None,
        }
    }
}

impl<const N: usize> OnlineAlgorithm<N> for RandomizedCoinFlip<N> {
    fn name(&self) -> String {
        "coin-flip".into()
    }

    fn reset(&mut self, _ctx: &AlgContext<N>) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.target = None;
    }

    fn decide(
        &mut self,
        current: &Point<N>,
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Point<N> {
        if !requests.is_empty() {
            let p = (requests.len() as f64 / (2.0 * ctx.d)).min(1.0);
            if self.rng.gen_bool(p) {
                self.target = Some(weighted_center(requests, current));
            }
        }
        match self.target {
            Some(t) => {
                let next = step_towards(current, &t, ctx.online_budget());
                if next == t {
                    self.target = None;
                }
                next
            }
            None => *current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Instance, Step};
    use msp_geometry::P2;

    fn ctx(d: f64, m: f64, delta: f64) -> AlgContext<2> {
        let inst = Instance::new(d, m, P2::origin(), vec![Step::new(vec![])]);
        AlgContext::new(&inst, delta)
    }

    #[test]
    fn lazy_never_moves() {
        let mut alg = Lazy;
        let c = ctx(1.0, 1.0, 0.0);
        let p = P2::xy(1.0, 1.0);
        let reqs = [P2::xy(100.0, 100.0)];
        assert_eq!(OnlineAlgorithm::<2>::decide(&mut alg, &p, &reqs, &c), p);
    }

    #[test]
    fn follow_center_uses_full_budget() {
        let mut alg = FollowCenter::new();
        let c = ctx(4.0, 1.0, 0.0);
        let next = alg.decide(&P2::origin(), &[P2::xy(10.0, 0.0)], &c);
        assert!((next.distance(&P2::origin()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn follow_center_idle_without_requests() {
        let mut alg = FollowCenter::new();
        let c = ctx(4.0, 1.0, 0.0);
        let p = P2::xy(2.0, 2.0);
        assert_eq!(alg.decide(&p, &[], &c), p);
    }

    #[test]
    fn fractional_step_kappa_one_matches_mtc() {
        use crate::mtc::MoveToCenter;
        let mut frac = FractionalStep::new(1.0);
        let mut mtc = MoveToCenter::new();
        let c = ctx(4.0, 10.0, 0.3);
        let reqs = [P2::xy(2.0, 1.0), P2::xy(3.0, -1.0)];
        let cur = P2::xy(-1.0, 0.5);
        let a = frac.decide(&cur, &reqs, &c);
        let b = mtc.decide(&cur, &reqs, &c);
        assert_eq!(a.0.map(f64::to_bits), b.0.map(f64::to_bits));
    }

    #[test]
    fn fractional_step_larger_kappa_moves_farther() {
        let c = ctx(8.0, 10.0, 0.0);
        let reqs = [P2::xy(4.0, 0.0)];
        let cur = P2::origin();
        let a = FractionalStep::new(0.5).decide(&cur, &reqs, &c);
        let b = FractionalStep::new(2.0).decide(&cur, &reqs, &c);
        assert!(b.distance(&cur) > a.distance(&cur));
    }

    #[test]
    #[should_panic(expected = "κ must be positive")]
    fn fractional_step_rejects_zero_kappa() {
        let _ = FractionalStep::new(0.0);
    }

    #[test]
    fn move_to_min_waits_for_batch() {
        let mut alg = MoveToMin::new();
        let c = ctx(3.0, 1.0, 0.0);
        let mut cur = P2::origin();
        // D = 3: the first two single-request steps must not trigger a move.
        cur = alg.decide(&cur, &[P2::xy(5.0, 0.0)], &c);
        assert_eq!(cur, P2::origin());
        cur = alg.decide(&cur, &[P2::xy(5.0, 0.0)], &c);
        assert_eq!(cur, P2::origin());
        // Third request completes the batch → start moving.
        cur = alg.decide(&cur, &[P2::xy(5.0, 0.0)], &c);
        assert!((cur.distance(&P2::origin()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn move_to_min_drains_towards_target_without_new_requests() {
        let mut alg = MoveToMin::new();
        let c = ctx(1.0, 1.0, 0.0);
        let mut cur = P2::origin();
        cur = alg.decide(&cur, &[P2::xy(3.0, 0.0)], &c); // batch full at once
        cur = alg.decide(&cur, &[], &c);
        cur = alg.decide(&cur, &[], &c);
        assert!(cur.distance(&P2::xy(3.0, 0.0)) < 1e-9, "got {cur:?}");
    }

    #[test]
    fn move_to_min_reset_clears_state() {
        let mut alg = MoveToMin::new();
        let c = ctx(1.0, 1.0, 0.0);
        let _ = alg.decide(&P2::origin(), &[P2::xy(3.0, 0.0)], &c);
        alg.reset(&c);
        // After reset, no standing target: stays put on a silent step.
        assert_eq!(alg.decide(&P2::origin(), &[], &c), P2::origin());
    }

    #[test]
    fn coin_flip_is_reproducible_after_reset() {
        let c = ctx(2.0, 1.0, 0.0);
        let reqs: Vec<[P2; 1]> = (0..20).map(|i| [P2::xy(i as f64, 1.0)]).collect();
        let run = |alg: &mut RandomizedCoinFlip<2>| {
            alg.reset(&c);
            let mut cur = P2::origin();
            let mut trace = Vec::new();
            for r in &reqs {
                cur = alg.decide(&cur, r, &c);
                trace.push(cur);
            }
            trace
        };
        let mut alg = RandomizedCoinFlip::new(77);
        let t1 = run(&mut alg);
        let t2 = run(&mut alg);
        assert_eq!(t1, t2);
    }

    #[test]
    fn coin_flip_certain_adoption_when_r_ge_2d() {
        // r/(2D) ≥ 1 → probability clamps to 1: target adopted immediately.
        let c = ctx(1.0, 10.0, 0.0);
        let mut alg = RandomizedCoinFlip::new(1);
        alg.reset(&c);
        let reqs = vec![P2::xy(3.0, 0.0); 2];
        let next = alg.decide(&P2::origin(), &reqs, &c);
        assert!(next.distance(&P2::xy(3.0, 0.0)) < 1e-9);
    }

    #[test]
    fn all_baselines_respect_budget() {
        use msp_geometry::sample::SeededSampler;
        let mut s = SeededSampler::new(5);
        let c = ctx(2.0, 0.7, 0.25);
        let budget = c.online_budget();
        let mut algs: Vec<Box<dyn OnlineAlgorithm<2>>> = vec![
            Box::new(Lazy),
            Box::new(FollowCenter::new()),
            Box::new(FractionalStep::new(2.0)),
            Box::new(MoveToMin::new()),
            Box::new(RandomizedCoinFlip::new(9)),
        ];
        for alg in &mut algs {
            alg.reset(&c);
            let mut cur = P2::origin();
            for _ in 0..50 {
                let r = s.int_inclusive(0, 4);
                let reqs: Vec<P2> = (0..r).map(|_| s.point_in_cube(5.0)).collect();
                let next = alg.decide(&cur, &reqs, &c);
                assert!(
                    next.distance(&cur) <= budget + 1e-9,
                    "{} exceeded budget",
                    alg.name()
                );
                cur = next;
            }
        }
    }
}
