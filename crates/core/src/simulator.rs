//! The discrete-time simulator: runs an online algorithm over an instance
//! under a serving order and a resource-augmentation factor, with strict
//! enforcement of the movement budget.
//!
//! Entry points:
//!
//! * [`run`] — one `(algorithm, δ, order)` combination, the classic path.
//! * [`run_batch`] — the multi-configuration path: one pass over the
//!   steps prices every requested δ under every requested serving order.
//!   The decision trajectory depends only on δ (the model reveals the
//!   requests before the move in *both* orders, so the serving order is a
//!   pure pricing choice), which lets a single decision sequence per δ be
//!   priced under all orders simultaneously — halving the number of
//!   expensive median solves for the common both-orders sweep.
//! * [`run_streaming`] — the open-ended path: steps arrive from any
//!   iterator (a workload generator, a trace file, a network feed) and
//!   only running totals are kept, so memory is O(1) in the horizon.
//!   [`StreamingSim`] is the underlying push-style engine with
//!   checkpoint/resume support for multi-million-step runs.
//!
//! Every engine steps through one private step function (decide, clamp
//! the proposal to the budget `(1+δ)m`, price the move), so each
//! `(δ, order)` result of the batch or streaming engine is bit-equal to
//! [`run`] on the same steps, on every machine.

use crate::algorithm::{AlgContext, OnlineAlgorithm};
use crate::cost::{service_cost, CostBreakdown, ServingOrder, StepCost};
use crate::model::{Instance, Step, StreamParams};
use msp_analysis::obs;
use msp_geometry::{step_towards, Point};

/// Granularity at which [`StreamingSim::feed`] flushes its local step
/// count into the observability registry: one shared-counter add per 64
/// steps keeps the enabled-metrics hot path well under the 1% overhead
/// budget even for trivial algorithms, at the cost of the live
/// `stream.steps` counter trailing reality by at most 63 steps (the
/// remainder is flushed by [`StreamingSim::finish`] /
/// [`StreamingSim::into_parts`]).
const OBS_STEP_FLUSH: u32 = 64;

/// Outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct RunResult<const N: usize> {
    /// Algorithm name, for tables.
    pub algorithm: String,
    /// Serving order the run was priced under.
    pub order: ServingOrder,
    /// Augmentation factor δ granted to the algorithm.
    pub delta: f64,
    /// Visited positions `P_0 … P_T` (length `T + 1`).
    pub positions: Vec<Point<N>>,
    /// Cost trace.
    pub cost: CostBreakdown,
}

impl<const N: usize> RunResult<N> {
    /// Total cost `C_Alg`.
    pub fn total_cost(&self) -> f64 {
        self.cost.total()
    }

    /// Largest single-step displacement actually used — always within the
    /// augmented budget by construction; exposed for diagnostics.
    pub fn max_step_used(&self) -> f64 {
        self.positions
            .windows(2)
            .map(|w| w[0].distance(&w[1]))
            .fold(0.0, f64::max)
    }
}

/// Runs `algorithm` on `instance` with augmentation `delta` under `order`.
///
/// The algorithm sees the requests before moving in both orders (that is
/// the model's information regime); `order` only decides whether service
/// is priced from the old or the new position. Proposals beyond the budget
/// `(1+δ)m` are clamped onto the segment towards the proposal, so the
/// returned trajectory is always feasible for the *online* budget.
///
/// ```
/// use msp_core::cost::ServingOrder;
/// use msp_core::model::{Instance, Step};
/// use msp_core::mtc::MoveToCenter;
/// use msp_core::simulator::run;
/// use msp_geometry::P2;
///
/// // Three rounds of requests pulling the server to the right.
/// let steps = (1..=3)
///     .map(|t| Step::single(P2::xy(t as f64, 0.0)))
///     .collect();
/// let inst = Instance::new(2.0, 0.5, P2::origin(), steps);
///
/// let mut alg = MoveToCenter::new();
/// let result = run(&inst, &mut alg, 0.1, ServingOrder::MoveFirst);
///
/// assert_eq!(result.positions.len(), inst.horizon() + 1);
/// // The budget (1+δ)m is strictly enforced on every step.
/// assert!(result.max_step_used() <= 0.55 + 1e-12);
/// assert!(result.total_cost() > 0.0);
/// ```
pub fn run<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    algorithm: &mut A,
    delta: f64,
    order: ServingOrder,
) -> RunResult<N> {
    let (positions, mut costs) = run_lane(instance, algorithm, delta, &[order]);
    RunResult {
        algorithm: algorithm.name(),
        order,
        delta,
        positions,
        cost: costs.remove(0),
    }
}

/// Convenience: runs under the paper's default Move-First order.
pub fn run_move_first<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    algorithm: &mut A,
    delta: f64,
) -> RunResult<N> {
    run(instance, algorithm, delta, ServingOrder::MoveFirst)
}

/// The one step function of every engine: the algorithm decides, the
/// proposal is clamped onto the segment towards it at the budget
/// `(1+δ)m`, and the move is priced under each order in `orders`:
/// `price(i, cost)` receives the cost under `orders[i]` (the orders share
/// the move and differ only in the serving endpoint). Moves `current` to
/// the clamped position and returns the step's length.
///
/// [`run`], [`run_batch`] and [`StreamingSim::feed_requests`] all step
/// through here, so they compute every decision and every cost with the
/// same float expressions.
#[inline]
fn advance<const N: usize, A: OnlineAlgorithm<N>>(
    algorithm: &mut A,
    ctx: &AlgContext<N>,
    current: &mut Point<N>,
    requests: &[Point<N>],
    orders: &[ServingOrder],
    mut price: impl FnMut(usize, StepCost),
) -> f64 {
    let proposal = algorithm.decide(current, requests, ctx);
    debug_assert!(
        proposal.is_finite(),
        "{} proposed a non-finite position",
        algorithm.name()
    );
    let next = step_towards(current, &proposal, ctx.online_budget());
    let step_len = current.distance(&next);
    let movement = ctx.d * step_len;
    for (i, order) in orders.iter().enumerate() {
        let service = service_cost(order.serve_from(&*current, &next), requests);
        price(i, StepCost { movement, service });
    }
    *current = next;
    step_len
}

/// One δ-lane of the in-memory engines: resets `algorithm`, computes its
/// decision sequence once and prices it under every order in `orders`.
/// Returns the visited positions `P_0 … P_T` and one cost trace per order.
fn run_lane<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    algorithm: &mut A,
    delta: f64,
    orders: &[ServingOrder],
) -> (Vec<Point<N>>, Vec<CostBreakdown>) {
    let ctx = AlgContext::new(instance, delta);
    algorithm.reset(&ctx);
    let mut positions = Vec::with_capacity(instance.horizon() + 1);
    positions.push(instance.start);
    let mut costs: Vec<CostBreakdown> = orders
        .iter()
        .map(|_| CostBreakdown {
            per_step: Vec::with_capacity(instance.horizon()),
            ..Default::default()
        })
        .collect();
    let mut current = instance.start;
    for step in &instance.steps {
        advance(
            algorithm,
            &ctx,
            &mut current,
            &step.requests,
            orders,
            |i, step_cost| {
                let cost = &mut costs[i];
                cost.movement += step_cost.movement;
                cost.service += step_cost.service;
                cost.per_step.push(step_cost);
            },
        );
        positions.push(current);
    }
    (positions, costs)
}

/// Runs `algorithm` over `instance` for every `(δ, order)` combination,
/// returning results in δ-major, order-minor sequence (`deltas.len() ·
/// orders.len()` entries).
///
/// Per δ the decision sequence is computed **once** and priced under
/// every serving order. The δ-lanes run one after another, each with its
/// own clone of `algorithm`. Every result is bit-equal to [`run`] for the
/// matching `(δ, order)`, on every machine — pinned by tests.
///
/// ```
/// use msp_core::cost::ServingOrder;
/// use msp_core::model::{Instance, Step};
/// use msp_core::mtc::MoveToCenter;
/// use msp_core::simulator::run_batch;
/// use msp_geometry::P2;
///
/// let steps = (0..20)
///     .map(|t| Step::single(P2::xy((t as f64 * 0.4).sin(), 0.1 * t as f64)))
///     .collect();
/// let inst = Instance::new(2.0, 0.5, P2::origin(), steps);
///
/// // One pass prices a whole δ-grid under both serving orders.
/// let deltas = [0.0, 0.2, 0.8];
/// let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
/// let results = run_batch(&inst, &MoveToCenter::new(), &deltas, &orders);
///
/// assert_eq!(results.len(), deltas.len() * orders.len());
/// // δ-major, order-minor: entry 0 is (δ=0.0, MoveFirst).
/// assert_eq!(results[0].delta, 0.0);
/// assert_eq!(results[0].order, ServingOrder::MoveFirst);
/// // More augmentation never hurts Move-to-Center on this workload:
/// // entry 4 is (δ=0.8, MoveFirst), entry 0 is (δ=0.0, MoveFirst).
/// assert!(results[4].total_cost() <= results[0].total_cost());
/// ```
///
/// # Panics
/// Panics when `deltas` or `orders` is empty.
pub fn run_batch<const N: usize, A: OnlineAlgorithm<N> + Clone>(
    instance: &Instance<N>,
    algorithm: &A,
    deltas: &[f64],
    orders: &[ServingOrder],
) -> Vec<RunResult<N>> {
    assert!(!deltas.is_empty(), "run_batch needs at least one δ");
    assert!(!orders.is_empty(), "run_batch needs at least one order");

    let mut out = Vec::with_capacity(deltas.len() * orders.len());
    for &delta in deltas {
        let mut alg = algorithm.clone();
        let (positions, costs) = run_lane(instance, &mut alg, delta, orders);
        let name = alg.name();
        for (&order, cost) in orders.iter().zip(costs) {
            out.push(RunResult {
                algorithm: name.clone(),
                order,
                delta,
                positions: positions.clone(),
                cost,
            });
        }
    }
    out
}

/// Outcome of a streaming run: totals only, O(1) in the horizon. The full
/// position trace is deliberately absent — streaming runs exist precisely
/// so multi-million-step horizons do not accumulate per-step state.
#[derive(Clone, Debug)]
pub struct StreamRunResult<const N: usize> {
    /// Algorithm name, for tables.
    pub algorithm: String,
    /// Serving order the run was priced under.
    pub order: ServingOrder,
    /// Augmentation factor δ granted to the algorithm.
    pub delta: f64,
    /// Number of steps consumed.
    pub steps: usize,
    /// Server position after the last step.
    pub final_position: Point<N>,
    /// Total weighted movement cost.
    pub movement: f64,
    /// Total service cost.
    pub service: f64,
    /// Largest single-step displacement actually used.
    pub max_step_used: f64,
}

impl<const N: usize> StreamRunResult<N> {
    /// Total cost `C_Alg`.
    pub fn total_cost(&self) -> f64 {
        self.movement + self.service
    }
}

/// Resumable snapshot of a streaming run: the server position and the
/// running cost totals. For a [`crate::algorithm::Memoryless`] algorithm
/// it is the whole run state, so a fresh algorithm resumes it exactly;
/// any other algorithm must be kept alongside it (see
/// [`StreamingSim::into_parts`]) for exact-decision resumption.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamCheckpoint<const N: usize> {
    /// Steps consumed so far.
    pub step: usize,
    /// Server position after `step` steps.
    pub position: Point<N>,
    /// Weighted movement cost so far.
    pub movement: f64,
    /// Service cost so far.
    pub service: f64,
    /// Largest single-step displacement so far.
    pub max_step_used: f64,
}

/// Push-style streaming simulation engine: feed steps one at a time,
/// inspect running totals, snapshot checkpoints, and finish into a
/// [`StreamRunResult`]. Each step goes through the same step function as
/// [`run`], so a streamed pass over an instance's steps reproduces the
/// in-memory result bit for bit (pinned by tests).
#[derive(Clone, Debug)]
pub struct StreamingSim<const N: usize, A> {
    ctx: AlgContext<N>,
    order: ServingOrder,
    algorithm: A,
    current: Point<N>,
    steps: usize,
    movement: f64,
    service: f64,
    max_step_used: f64,
    /// Steps fed since the last observability flush (metrics-only state:
    /// never checkpointed, never compared, never affects a trajectory).
    obs_pending: u32,
}

impl<const N: usize, A: OnlineAlgorithm<N>> StreamingSim<N, A> {
    /// Starts a streaming run from `params.start` with a freshly reset
    /// algorithm.
    pub fn new(
        params: &StreamParams<N>,
        mut algorithm: A,
        delta: f64,
        order: ServingOrder,
    ) -> Self {
        let ctx = AlgContext::from_params(params, delta);
        algorithm.reset(&ctx);
        obs::incr(obs::Counter::StreamSessions);
        StreamingSim {
            ctx,
            order,
            algorithm,
            current: params.start,
            steps: 0,
            movement: 0.0,
            service: 0.0,
            max_step_used: 0.0,
            obs_pending: 0,
        }
    }

    /// Resumes a streaming run from `checkpoint`. The algorithm is taken
    /// as-is (NOT reset): pass back the algorithm captured at the
    /// checkpoint, or a fresh, configuration-equal instance of a
    /// [`crate::algorithm::Memoryless`] algorithm; either continues the run
    /// exactly.
    pub fn resume(
        params: &StreamParams<N>,
        algorithm: A,
        delta: f64,
        order: ServingOrder,
        checkpoint: &StreamCheckpoint<N>,
    ) -> Self {
        let ctx = AlgContext::from_params(params, delta);
        obs::incr(obs::Counter::StreamSessions);
        StreamingSim {
            ctx,
            order,
            algorithm,
            current: checkpoint.position,
            steps: checkpoint.step,
            movement: checkpoint.movement,
            service: checkpoint.service,
            max_step_used: checkpoint.max_step_used,
            obs_pending: 0,
        }
    }

    /// Advances the simulation by one step, returning that step's cost.
    pub fn feed(&mut self, step: &Step<N>) -> StepCost {
        self.feed_requests(&step.requests)
    }

    /// [`StreamingSim::feed`] over a borrowed request slice — the
    /// zero-allocation replay hook: a trace reader that yields borrowed
    /// frames (`msp-scenarios`' block-trace reader) drives the simulation
    /// without materializing a [`Step`] per frame. Bit-equal to `feed` on
    /// the same requests by construction (that method delegates here).
    pub fn feed_requests(&mut self, requests: &[Point<N>]) -> StepCost {
        let mut cost = StepCost::default();
        let step_len = advance(
            &mut self.algorithm,
            &self.ctx,
            &mut self.current,
            requests,
            std::slice::from_ref(&self.order),
            |_, step_cost| cost = step_cost,
        );
        self.movement += cost.movement;
        self.service += cost.service;
        self.max_step_used = self.max_step_used.max(step_len);
        self.steps += 1;
        self.obs_pending += 1;
        if self.obs_pending >= OBS_STEP_FLUSH {
            obs::add(obs::Counter::StreamSteps, u64::from(self.obs_pending));
            self.obs_pending = 0;
        }
        cost
    }

    /// Advances by at most `budget` steps pulled from `next`, stopping
    /// early when the source runs dry. Returns the number of steps fed.
    ///
    /// This is the supervision hook for drivers that must be able to
    /// cancel a runaway advance: feeding happens in bounded slices, so a
    /// watchdog (e.g. `msp-scenarios`' session service) checks its step
    /// budget between slices and stops at a slice boundary — there is no
    /// mid-step cancellation, and a cancelled advance leaves the
    /// simulation in an ordinary checkpointable state. Each step uses
    /// [`StreamingSim::feed`], so budgeted and unbudgeted advances of the
    /// same step sequence are bit-equal.
    pub fn feed_budgeted<F>(&mut self, budget: usize, mut next: F) -> usize
    where
        F: FnMut() -> Option<Step<N>>,
    {
        let mut fed = 0usize;
        while fed < budget {
            let Some(step) = next() else { break };
            self.feed(&step);
            fed += 1;
        }
        fed
    }

    /// Steps consumed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Current server position.
    pub fn position(&self) -> &Point<N> {
        &self.current
    }

    /// Total cost so far.
    pub fn total_cost(&self) -> f64 {
        self.movement + self.service
    }

    /// Read access to the algorithm (e.g. for its solver telemetry).
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// Snapshot of the resumable run state.
    pub fn checkpoint(&self) -> StreamCheckpoint<N> {
        obs::incr(obs::Counter::StreamCheckpoints);
        StreamCheckpoint {
            step: self.steps,
            position: self.current,
            movement: self.movement,
            service: self.service,
            max_step_used: self.max_step_used,
        }
    }

    /// Splits the run into the algorithm and the checkpoint — what a caller
    /// persists to resume later via [`StreamingSim::resume`].
    pub fn into_parts(self) -> (A, StreamCheckpoint<N>) {
        obs::add(obs::Counter::StreamSteps, u64::from(self.obs_pending));
        let cp = StreamCheckpoint {
            step: self.steps,
            position: self.current,
            movement: self.movement,
            service: self.service,
            max_step_used: self.max_step_used,
        };
        (self.algorithm, cp)
    }

    /// Finalizes the run.
    pub fn finish(self) -> StreamRunResult<N> {
        obs::add(obs::Counter::StreamSteps, u64::from(self.obs_pending));
        StreamRunResult {
            algorithm: self.algorithm.name(),
            order: self.order,
            delta: self.ctx.delta,
            steps: self.steps,
            final_position: self.current,
            movement: self.movement,
            service: self.service,
            max_step_used: self.max_step_used,
        }
    }
}

/// Runs `algorithm` over an open-ended step stream with O(1) memory in the
/// stream length. Costs agree with [`run`] on the same step sequence to
/// floating-point identity (the same step function).
pub fn run_streaming<const N: usize, A, I>(
    params: &StreamParams<N>,
    steps: I,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
) -> StreamRunResult<N>
where
    A: OnlineAlgorithm<N>,
    I: IntoIterator<Item = Step<N>>,
{
    let mut sim = StreamingSim::new(params, algorithm, delta, order);
    for step in steps {
        sim.feed(&step);
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{FollowCenter, Lazy};
    use crate::cost::evaluate_trajectory;
    use crate::model::Step;
    use crate::mtc::MoveToCenter;
    use msp_geometry::P2;

    fn chase_instance(t: usize) -> Instance<2> {
        // Requests march right at speed 1 starting from x = 1.
        let steps = (0..t)
            .map(|i| Step::single(P2::xy(1.0 + i as f64, 0.0)))
            .collect();
        Instance::new(1.0, 1.0, P2::origin(), steps)
    }

    #[test]
    fn run_cost_matches_trajectory_pricing() {
        // The simulator's online accounting must agree with the offline
        // trajectory evaluator on the trajectory it produced.
        let inst = chase_instance(10);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let mut alg = MoveToCenter::new();
            let res = run(&inst, &mut alg, 0.5, order);
            let priced = evaluate_trajectory(&inst, &res.positions, order);
            assert!((priced.total() - res.total_cost()).abs() < 1e-9);
            assert!((priced.movement - res.cost.movement).abs() < 1e-9);
        }
    }

    #[test]
    fn budget_is_enforced_even_for_greedy() {
        let inst = chase_instance(5);
        let mut alg = FollowCenter::new();
        let res = run_move_first(&inst, &mut alg, 0.0);
        assert!(res.max_step_used() <= inst.max_move + 1e-9);
    }

    #[test]
    fn augmentation_extends_budget() {
        let inst = Instance::new(
            1.0,
            1.0,
            P2::origin(),
            vec![Step::single(P2::xy(10.0, 0.0))],
        );
        let mut alg = FollowCenter::new();
        let res = run_move_first(&inst, &mut alg, 1.0);
        assert!((res.max_step_used() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lazy_has_zero_movement_cost() {
        let inst = chase_instance(8);
        let mut alg = Lazy;
        let res = run_move_first(&inst, &mut alg, 0.0);
        assert_eq!(res.cost.movement, 0.0);
        // Service cost: Σ_{i=0..7} (1+i) = 36.
        assert!((res.cost.service - 36.0).abs() < 1e-9);
    }

    #[test]
    fn positions_have_horizon_plus_one_entries() {
        let inst = chase_instance(7);
        let mut alg = MoveToCenter::new();
        let res = run_move_first(&inst, &mut alg, 0.0);
        assert_eq!(res.positions.len(), 8);
        assert_eq!(res.cost.per_step.len(), 7);
        assert_eq!(res.positions[0], inst.start);
    }

    #[test]
    fn answer_first_charges_old_position() {
        let inst = Instance::new(1.0, 1.0, P2::origin(), vec![Step::single(P2::xy(1.0, 0.0))]);
        // FollowCenter reaches the request in one step.
        let mut alg = FollowCenter::new();
        let mf = run(&inst, &mut alg, 0.0, ServingOrder::MoveFirst);
        let af = run(&inst, &mut alg, 0.0, ServingOrder::AnswerFirst);
        // Move-first: move 1 + serve 0 = 1. Answer-first: serve 1 + move 1 = 2.
        assert!((mf.total_cost() - 1.0).abs() < 1e-9);
        assert!((af.total_cost() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mtc_catches_stationary_requests() {
        // A fixed request point: MtC converges onto it and total cost stays
        // bounded (no per-step cost once arrived).
        let steps = vec![Step::repeated(P2::xy(3.0, 0.0), 4); 50];
        let inst = Instance::new(2.0, 1.0, P2::origin(), steps);
        let mut alg = MoveToCenter::new();
        let res = run_move_first(&inst, &mut alg, 0.0);
        let last = res.positions.last().unwrap();
        assert!(last.distance(&P2::xy(3.0, 0.0)) < 1e-9);
        // Tail steps are free.
        let tail: f64 = res.cost.per_step[10..].iter().map(|s| s.total()).sum();
        assert!(tail < 1e-9, "tail cost {tail}");
    }

    #[test]
    fn deterministic_reruns_agree() {
        let inst = chase_instance(20);
        let mut alg = MoveToCenter::new();
        let a = run_move_first(&inst, &mut alg, 0.3);
        let b = run_move_first(&inst, &mut alg, 0.3);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.total_cost(), b.total_cost());
    }

    #[test]
    fn run_batch_shares_trajectory_across_orders() {
        let inst = chase_instance(10);
        let batch = run_batch(
            &inst,
            &MoveToCenter::new(),
            &[0.25],
            &[ServingOrder::MoveFirst, ServingOrder::AnswerFirst],
        );
        assert_eq!(batch[0].positions, batch[1].positions);
        // Same movement, different service pricing.
        assert_eq!(batch[0].cost.movement, batch[1].cost.movement);
    }

    #[test]
    #[should_panic(expected = "at least one δ")]
    fn run_batch_rejects_empty_deltas() {
        let inst = chase_instance(2);
        let _ = run_batch(&inst, &MoveToCenter::new(), &[], &[ServingOrder::MoveFirst]);
    }

    #[test]
    fn run_streaming_matches_run_exactly() {
        let inst = chase_instance(40);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let mut alg = MoveToCenter::new();
            let batch = run(&inst, &mut alg, 0.3, order);
            let streamed = run_streaming(
                &inst.params(),
                inst.steps.iter().cloned(),
                MoveToCenter::new(),
                0.3,
                order,
            );
            assert_eq!(streamed.steps, inst.horizon());
            assert_eq!(streamed.movement, batch.cost.movement);
            assert_eq!(streamed.service, batch.cost.service);
            assert_eq!(streamed.final_position, *batch.positions.last().unwrap());
            assert_eq!(streamed.max_step_used, batch.max_step_used());
        }
    }

    #[test]
    fn checkpoint_resume_reproduces_the_full_run() {
        let inst = chase_instance(24);
        let full = run_streaming(
            &inst.params(),
            inst.steps.iter().cloned(),
            MoveToCenter::new(),
            0.4,
            ServingOrder::MoveFirst,
        );

        // First half, snapshot, resume with the same algorithm, second half.
        let mut sim = StreamingSim::new(
            &inst.params(),
            MoveToCenter::new(),
            0.4,
            ServingOrder::MoveFirst,
        );
        for step in &inst.steps[..12] {
            sim.feed(step);
        }
        let (alg, cp) = sim.into_parts();
        assert_eq!(cp.step, 12);
        let mut resumed =
            StreamingSim::resume(&inst.params(), alg, 0.4, ServingOrder::MoveFirst, &cp);
        for step in &inst.steps[12..] {
            resumed.feed(step);
        }
        let res = resumed.finish();
        assert_eq!(res.steps, full.steps);
        assert_eq!(res.movement, full.movement);
        assert_eq!(res.service, full.service);
        assert_eq!(res.final_position, full.final_position);
    }

    #[test]
    fn streaming_step_cost_totals_are_consistent() {
        let inst = chase_instance(15);
        let mut sim = StreamingSim::new(
            &inst.params(),
            FollowCenter::new(),
            0.0,
            ServingOrder::MoveFirst,
        );
        let mut acc = 0.0;
        for step in &inst.steps {
            acc += sim.feed(step).total();
        }
        assert!((acc - sim.total_cost()).abs() < 1e-12);
        assert_eq!(sim.steps(), 15);
    }

    #[test]
    fn run_metadata_recorded() {
        let inst = chase_instance(3);
        let mut alg = MoveToCenter::new();
        let res = run(&inst, &mut alg, 0.25, ServingOrder::AnswerFirst);
        assert_eq!(res.algorithm, "mtc");
        assert_eq!(res.order, ServingOrder::AnswerFirst);
        assert_eq!(res.delta, 0.25);
    }
}
