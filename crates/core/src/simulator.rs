//! The discrete-time simulator: runs an online algorithm over an instance
//! under a serving order and a resource-augmentation factor, with strict
//! enforcement of the movement budget.
//!
//! Entry points:
//!
//! * [`run`] — one `(algorithm, δ, order)` combination, the classic path.
//! * [`run_batch`] — the multi-configuration fast path: one pass over the
//!   steps prices every requested δ under every requested serving order.
//!   The decision trajectory depends only on δ (the model reveals the
//!   requests before the move in *both* orders, so the serving order is a
//!   pure pricing choice), which lets a single decision sequence per δ be
//!   priced under all orders simultaneously — halving the number of
//!   expensive median solves for the common both-orders sweep.
//! * [`run_streaming`] / [`run_streaming_batch`] — the open-ended paths:
//!   steps arrive from any iterator (a workload generator, a trace file, a
//!   network feed) and only running totals are kept, so memory is O(1) in
//!   the horizon. [`StreamingSim`] is the underlying push-style engine
//!   with checkpoint/resume support for multi-million-step runs.

use crate::algorithm::{AlgContext, OnlineAlgorithm, WarmStateCodec, WarmStateError};
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
    let ctx = AlgContext::new(instance, delta);
    algorithm.reset(&ctx);
    let budget = ctx.online_budget();

    let mut positions = Vec::with_capacity(instance.horizon() + 1);
    positions.push(instance.start);
    let mut cost = CostBreakdown {
        per_step: Vec::with_capacity(instance.horizon()),
        ..Default::default()
    };

    let mut current = instance.start;
    for step in &instance.steps {
        let proposal = algorithm.decide(&current, &step.requests, &ctx);
        debug_assert!(
            proposal.is_finite(),
            "{} proposed a non-finite position",
            algorithm.name()
        );
        let next = step_towards(&current, &proposal, budget);
        let movement = instance.d * current.distance(&next);
        let serve_from = match order {
            ServingOrder::MoveFirst => &next,
            ServingOrder::AnswerFirst => &current,
        };
        let service = service_cost(serve_from, &step.requests);
        cost.movement += movement;
        cost.service += service;
        cost.per_step.push(StepCost { movement, service });
        current = next;
        positions.push(current);
    }

    RunResult {
        algorithm: algorithm.name(),
        order,
        delta,
        positions,
        cost,
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

/// Execution knobs of the batched engines ([`run_batch_with`],
/// [`run_streaming_batch_with`]).
///
/// δ-lanes are partitioned into **groups**; groups execute concurrently
/// over [`msp_analysis::sweep::parallel_for_each_mut`] workers — the
/// persistent work-stealing pool, so engines that fan out repeatedly
/// (the streaming batch engine dispatches once per 256-step block) reuse
/// the same workers instead of paying a spawn/join barrier per dispatch —
/// while the lanes *inside* a group are stepped together, which enables cross-lane
/// warm seeding: before lane `i` of a group decides on a step, it receives
/// an [`OnlineAlgorithm::warm_hint`] from lane `i − 1`, which just solved
/// the **same step** — for Move-to-Center that hands over an essentially
/// converged median iterate, collapsing the solve to a verification pass.
///
/// Hints are numerics, not policy: every lane's trajectory agrees with its
/// sequential [`run`] to well within solver tolerance (pinned by tests),
/// but bit-exact reproducibility across machines additionally requires a
/// fixed group shape — that is what [`BatchOptions::strict`] provides.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads for lane groups (0 = all available CPUs; nested
    /// inside another sweep everything runs on the current worker).
    pub threads: usize,
    /// Lanes per group (0 = auto: `⌈lanes / threads⌉`, so one group per
    /// worker — maximal seeding without idle cores).
    pub lane_chunk: usize,
    /// Whether neighboring lanes of a group exchange warm hints.
    pub cross_lane_seed: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 0,
            lane_chunk: 0,
            cross_lane_seed: true,
        }
    }
}

impl BatchOptions {
    /// Bit-stable configuration: one lane per group, no cross-lane
    /// seeding. Every lane performs exactly the arithmetic of its
    /// sequential [`run`] (bit-equal output, pinned by tests), and the
    /// result is independent of the machine's core count.
    pub fn strict() -> Self {
        BatchOptions {
            threads: 0,
            lane_chunk: 1,
            cross_lane_seed: false,
        }
    }

    /// Fully sequential strict configuration — the reference the parallel
    /// paths are pinned against.
    pub fn sequential() -> Self {
        BatchOptions {
            threads: 1,
            lane_chunk: 1,
            cross_lane_seed: false,
        }
    }

    /// Resolved lanes-per-group for `n` lanes.
    fn group_size(&self, n: usize) -> usize {
        if self.lane_chunk > 0 {
            self.lane_chunk
        } else {
            n.div_ceil(msp_analysis::sweep::effective_threads(self.threads).max(1))
        }
        .max(1)
    }
}

/// One δ-lane of a batched run: its own algorithm clone (decisions depend
/// on the augmented budget) pricing the shared trajectory under every
/// requested order.
struct BatchLane<const N: usize, A> {
    ctx: AlgContext<N>,
    budget: f64,
    algorithm: A,
    current: Point<N>,
    positions: Vec<Point<N>>,
    costs: Vec<CostBreakdown>, // one per serving order
}

/// Common surface of a batched δ-lane. Both engines — in-memory
/// [`run_batch_with`] and streaming [`run_streaming_batch_with`] — drive
/// their lanes exclusively through [`advance_lane_group`], so the
/// step-major/lane-minor ordering and the cross-lane hint pattern (the
/// bit-equality contract between the two engines) live in exactly one
/// place.
trait SeedableLane<const N: usize> {
    /// The algorithm driving this lane.
    type Alg: OnlineAlgorithm<N>;
    fn algorithm(&self) -> &Self::Alg;
    fn algorithm_mut(&mut self) -> &mut Self::Alg;
    /// Advances the lane by one step, pricing the shared move under every
    /// requested order (the orders differ only in the serving endpoint,
    /// so the service sums are the only per-order work).
    fn feed(&mut self, step: &Step<N>, orders: &[ServingOrder]);
}

/// The decide/clamp/price core shared by every batched lane: proposes,
/// clamps to the budget, and invokes `price(order_index, movement,
/// service)` once per requested order. Both lane kinds (in-memory and
/// streaming) route through this single copy, so the pricing arithmetic —
/// part of the engines' bit-equality contract — cannot diverge. Returns
/// the clamped next position and the step length actually moved; the
/// caller updates its own record.
fn price_lane_step<const N: usize, A: OnlineAlgorithm<N>>(
    algorithm: &mut A,
    ctx: &AlgContext<N>,
    budget: f64,
    current: &Point<N>,
    step: &Step<N>,
    orders: &[ServingOrder],
    mut price: impl FnMut(usize, f64, f64),
) -> (Point<N>, f64) {
    let proposal = algorithm.decide(current, &step.requests, ctx);
    debug_assert!(
        proposal.is_finite(),
        "{} proposed a non-finite position",
        algorithm.name()
    );
    let next = step_towards(current, &proposal, budget);
    let step_len = current.distance(&next);
    let movement = ctx.d * step_len;
    for (oi, order) in orders.iter().enumerate() {
        let serve_from = match order {
            ServingOrder::MoveFirst => &next,
            ServingOrder::AnswerFirst => current,
        };
        price(oi, movement, service_cost(serve_from, &step.requests));
    }
    (next, step_len)
}

impl<const N: usize, A: OnlineAlgorithm<N>> SeedableLane<N> for BatchLane<N, A> {
    type Alg = A;

    fn algorithm(&self) -> &A {
        &self.algorithm
    }

    fn algorithm_mut(&mut self) -> &mut A {
        &mut self.algorithm
    }

    fn feed(&mut self, step: &Step<N>, orders: &[ServingOrder]) {
        let costs = &mut self.costs;
        let (next, _) = price_lane_step(
            &mut self.algorithm,
            &self.ctx,
            self.budget,
            &self.current,
            step,
            orders,
            |oi, movement, service| {
                let cost = &mut costs[oi];
                cost.movement += movement;
                cost.service += service;
                cost.per_step.push(StepCost { movement, service });
            },
        );
        self.current = next;
        self.positions.push(next);
    }
}

/// Steps every lane of one group through `steps`, exchanging warm hints
/// between neighboring lanes when enabled: before lane `i` decides on a
/// step, it is hinted from lane `i − 1`, which just solved the same step.
fn advance_lane_group<const N: usize, L: SeedableLane<N>>(
    lanes: &mut [L],
    steps: &[Step<N>],
    orders: &[ServingOrder],
    cross_lane_seed: bool,
) {
    for step in steps {
        for i in 0..lanes.len() {
            let (done, rest) = lanes.split_at_mut(i);
            let lane = &mut rest[0];
            if cross_lane_seed {
                if let Some(prev) = done.last() {
                    lane.algorithm_mut().warm_hint(prev.algorithm());
                }
            }
            lane.feed(step, orders);
        }
    }
}

/// Splits lanes into contiguous seeding groups of `group_size` (the last
/// group may be short), preserving δ order.
fn partition_groups<T>(lanes: Vec<T>, group_size: usize) -> Vec<Vec<T>> {
    let mut groups = Vec::with_capacity(lanes.len().div_ceil(group_size.max(1)));
    let mut lanes = lanes.into_iter();
    loop {
        let group: Vec<T> = lanes.by_ref().take(group_size).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    groups
}

/// Runs `algorithm` over `instance` for every `(δ, order)` combination in
/// a single pass over the steps, returning results in δ-major, order-minor
/// sequence (`deltas.len() · orders.len()` entries).
///
/// This is [`run_batch_with`] under [`BatchOptions::default`]: δ-lane
/// groups fan out over all cores and neighboring lanes exchange warm
/// hints. Per δ the decision sequence is computed **once** and priced
/// under every serving order; results agree with [`run`] for the matching
/// `(δ, order)` to well within solver tolerance (bit-equal under
/// [`BatchOptions::strict`]) — pinned by tests. For warm-started
/// algorithms such as [`crate::mtc::MoveToCenter`], batching additionally
/// keeps each δ-lane's solver warm across the whole pass, exactly as the
/// sequential path would.
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
pub fn run_batch<const N: usize, A: OnlineAlgorithm<N> + Clone + Send>(
    instance: &Instance<N>,
    algorithm: &A,
    deltas: &[f64],
    orders: &[ServingOrder],
) -> Vec<RunResult<N>> {
    run_batch_with(instance, algorithm, deltas, orders, BatchOptions::default())
}

/// [`run_batch`] with explicit [`BatchOptions`] (lane parallelism and
/// cross-lane warm seeding).
///
/// # Panics
/// Panics when `deltas` or `orders` is empty.
pub fn run_batch_with<const N: usize, A: OnlineAlgorithm<N> + Clone + Send>(
    instance: &Instance<N>,
    algorithm: &A,
    deltas: &[f64],
    orders: &[ServingOrder],
    opts: BatchOptions,
) -> Vec<RunResult<N>> {
    assert!(!deltas.is_empty(), "run_batch needs at least one δ");
    assert!(!orders.is_empty(), "run_batch needs at least one order");

    let lanes: Vec<BatchLane<N, A>> = deltas
        .iter()
        .map(|&delta| {
            let ctx = AlgContext::new(instance, delta);
            let mut algorithm = algorithm.clone();
            algorithm.reset(&ctx);
            let mut positions = Vec::with_capacity(instance.horizon() + 1);
            positions.push(instance.start);
            BatchLane {
                budget: ctx.online_budget(),
                ctx,
                algorithm,
                current: instance.start,
                positions,
                costs: orders
                    .iter()
                    .map(|_| CostBreakdown {
                        per_step: Vec::with_capacity(instance.horizon()),
                        ..Default::default()
                    })
                    .collect(),
            }
        })
        .collect();

    let group_size = opts.group_size(lanes.len());
    let mut groups = partition_groups(lanes, group_size);

    msp_analysis::sweep::parallel_for_each_mut(&mut groups, opts.threads, |_, group| {
        advance_lane_group(group, &instance.steps, orders, opts.cross_lane_seed);
    });

    let mut out = Vec::with_capacity(deltas.len() * orders.len());
    for (lane, &delta) in groups.into_iter().flatten().zip(deltas) {
        let name = lane.algorithm.name();
        for (&order, cost) in orders.iter().zip(lane.costs) {
            out.push(RunResult {
                algorithm: name.clone(),
                order,
                delta,
                positions: lane.positions.clone(),
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
/// running cost totals. The algorithm's warm state (e.g. the median
/// solver's seed) is the algorithm value itself — keep it alongside the
/// checkpoint (see [`StreamingSim::into_parts`]) for exact-decision
/// resumption, or pass a fresh algorithm and let it re-warm.
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
/// [`StreamRunResult`]. Decisions, clamping, and pricing use exactly the
/// same arithmetic as [`run`], so a streamed pass over an instance's steps
/// reproduces the batch result bit for bit (pinned by tests).
#[derive(Clone, Debug)]
pub struct StreamingSim<const N: usize, A> {
    ctx: AlgContext<N>,
    budget: f64,
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
            budget: ctx.online_budget(),
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
    /// as-is (NOT reset): pass back the warm algorithm captured at the
    /// checkpoint for exact continuation, or a self-warming algorithm such
    /// as Move-to-Center, which rebuilds its solver state in one step.
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
            budget: ctx.online_budget(),
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

    /// Resumes a streaming run from `checkpoint` plus an encoded
    /// warm-state blob — the durable-recovery counterpart of
    /// [`StreamingSim::resume`]. The algorithm is reset (giving it the
    /// context) and then restored from `warm_state` via its
    /// [`WarmStateCodec`], so the continuation's decisions are bit-equal
    /// to a run that was never interrupted; the blob typically comes from
    /// a checkpoint journal (`msp-scenarios`' `journal` module).
    ///
    /// # Errors
    /// Returns [`WarmStateError`] when the blob does not decode — journal
    /// bytes are untrusted, so corruption is reported, never papered over.
    pub fn resume_with_warm_state(
        params: &StreamParams<N>,
        mut algorithm: A,
        delta: f64,
        order: ServingOrder,
        checkpoint: &StreamCheckpoint<N>,
        warm_state: &[u8],
    ) -> Result<Self, WarmStateError>
    where
        A: WarmStateCodec,
    {
        let ctx = AlgContext::from_params(params, delta);
        algorithm.reset(&ctx);
        algorithm.decode_warm_state(warm_state)?;
        obs::incr(obs::Counter::StreamSessions);
        Ok(StreamingSim {
            budget: ctx.online_budget(),
            ctx,
            order,
            algorithm,
            current: checkpoint.position,
            steps: checkpoint.step,
            movement: checkpoint.movement,
            service: checkpoint.service,
            max_step_used: checkpoint.max_step_used,
            obs_pending: 0,
        })
    }

    /// Encodes the algorithm's current warm state (see [`WarmStateCodec`])
    /// — what a durable checkpoint writer persists next to
    /// [`StreamingSim::checkpoint`].
    pub fn warm_state_bytes(&self) -> Vec<u8>
    where
        A: WarmStateCodec,
    {
        let mut out = Vec::new();
        self.algorithm.encode_warm_state(&mut out);
        out
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
        let proposal = self.algorithm.decide(&self.current, requests, &self.ctx);
        debug_assert!(
            proposal.is_finite(),
            "{} proposed a non-finite position",
            self.algorithm.name()
        );
        let next = step_towards(&self.current, &proposal, self.budget);
        let step_len = self.current.distance(&next);
        let movement = self.ctx.d * step_len;
        let serve_from = match self.order {
            ServingOrder::MoveFirst => &next,
            ServingOrder::AnswerFirst => &self.current,
        };
        let service = service_cost(serve_from, requests);
        self.movement += movement;
        self.service += service;
        self.max_step_used = self.max_step_used.max(step_len);
        self.current = next;
        self.steps += 1;
        self.obs_pending += 1;
        if self.obs_pending >= OBS_STEP_FLUSH {
            obs::add(obs::Counter::StreamSteps, u64::from(self.obs_pending));
            self.obs_pending = 0;
        }
        StepCost { movement, service }
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

    /// Read access to the algorithm (e.g. for warm-state telemetry).
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

    /// Splits the run into the (warm) algorithm and the checkpoint — what
    /// a caller persists to resume later via [`StreamingSim::resume`].
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
/// floating-point identity (same decision/clamping/pricing arithmetic).
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

/// [`run_streaming`] with a periodic checkpoint callback: every `every`
/// steps the callback receives the resumable snapshot and a reference to
/// the warm algorithm. Multi-million-step runs persist these to survive
/// interruption.
///
/// # Panics
/// Panics when `every` is zero.
pub fn run_streaming_with_checkpoints<const N: usize, A, I, F>(
    params: &StreamParams<N>,
    steps: I,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
    every: usize,
    mut on_checkpoint: F,
) -> StreamRunResult<N>
where
    A: OnlineAlgorithm<N>,
    I: IntoIterator<Item = Step<N>>,
    F: FnMut(&StreamCheckpoint<N>, &A),
{
    assert!(every > 0, "checkpoint interval must be positive");
    let mut sim = StreamingSim::new(params, algorithm, delta, order);
    for step in steps {
        sim.feed(&step);
        if sim.steps() % every == 0 {
            on_checkpoint(&sim.checkpoint(), sim.algorithm());
        }
    }
    sim.finish()
}

/// Number of steps buffered per block by the streaming batch engine:
/// large enough to amortize the per-block lane fan-out (a ticket push to
/// the persistent sweep pool — lane groups reuse the same workers across
/// blocks, with no spawn/join barrier per block), small enough that
/// memory stays bounded (`O(block · r)`) on open-ended streams.
const STREAM_BATCH_BLOCK: usize = 256;

/// Streaming counterpart of [`run_batch`]: one pass over an open-ended
/// step stream prices every `(δ, order)` combination, keeping only running
/// totals plus a bounded step buffer (`STREAM_BATCH_BLOCK` = 256 steps —
/// the blocks let δ-lane groups fan out over cores without materializing
/// the stream). Results are δ-major, order-minor, and match [`run_batch`] on
/// the same steps bit for bit: the lane grouping, warm seeding, and
/// pricing arithmetic are identical, only the step delivery is blocked.
///
/// # Panics
/// Panics when `deltas` or `orders` is empty.
pub fn run_streaming_batch<const N: usize, A, I>(
    params: &StreamParams<N>,
    steps: I,
    algorithm: &A,
    deltas: &[f64],
    orders: &[ServingOrder],
) -> Vec<StreamRunResult<N>>
where
    A: OnlineAlgorithm<N> + Clone + Send,
    I: IntoIterator<Item = Step<N>>,
{
    run_streaming_batch_with(
        params,
        steps,
        algorithm,
        deltas,
        orders,
        BatchOptions::default(),
    )
}

/// [`run_streaming_batch`] with explicit [`BatchOptions`]. The options
/// must match the [`run_batch_with`] call being mirrored for bit-exact
/// agreement (the default mirrors the default).
///
/// # Panics
/// Panics when `deltas` or `orders` is empty.
pub fn run_streaming_batch_with<const N: usize, A, I>(
    params: &StreamParams<N>,
    steps: I,
    algorithm: &A,
    deltas: &[f64],
    orders: &[ServingOrder],
    opts: BatchOptions,
) -> Vec<StreamRunResult<N>>
where
    A: OnlineAlgorithm<N> + Clone + Send,
    I: IntoIterator<Item = Step<N>>,
{
    assert!(
        !deltas.is_empty(),
        "run_streaming_batch needs at least one δ"
    );
    assert!(
        !orders.is_empty(),
        "run_streaming_batch needs at least one order"
    );

    struct Lane<const N: usize, A> {
        ctx: AlgContext<N>,
        budget: f64,
        algorithm: A,
        current: Point<N>,
        max_step_used: f64,
        // (movement, service) per serving order.
        totals: Vec<(f64, f64)>,
    }

    impl<const N: usize, A: OnlineAlgorithm<N>> SeedableLane<N> for Lane<N, A> {
        type Alg = A;

        fn algorithm(&self) -> &A {
            &self.algorithm
        }

        fn algorithm_mut(&mut self) -> &mut A {
            &mut self.algorithm
        }

        fn feed(&mut self, step: &Step<N>, orders: &[ServingOrder]) {
            let totals = &mut self.totals;
            let (next, step_len) = price_lane_step(
                &mut self.algorithm,
                &self.ctx,
                self.budget,
                &self.current,
                step,
                orders,
                |oi, movement, service| {
                    let (mv, sv) = &mut totals[oi];
                    *mv += movement;
                    *sv += service;
                },
            );
            self.max_step_used = self.max_step_used.max(step_len);
            self.current = next;
        }
    }

    let lanes: Vec<Lane<N, A>> = deltas
        .iter()
        .map(|&delta| {
            let ctx = AlgContext::from_params(params, delta);
            let mut algorithm = algorithm.clone();
            algorithm.reset(&ctx);
            Lane {
                budget: ctx.online_budget(),
                ctx,
                algorithm,
                current: params.start,
                max_step_used: 0.0,
                totals: vec![(0.0, 0.0); orders.len()],
            }
        })
        .collect();

    // Same group shape and the same `advance_lane_group` stepping as
    // `run_batch_with`, so the cross-lane seeding pattern (and hence
    // every decision) is identical.
    let group_size = opts.group_size(lanes.len());
    let mut groups = partition_groups(lanes, group_size);

    let mut steps_seen = 0usize;
    let mut steps = steps.into_iter();
    let mut block: Vec<Step<N>> = Vec::with_capacity(STREAM_BATCH_BLOCK);
    loop {
        block.clear();
        block.extend(steps.by_ref().take(STREAM_BATCH_BLOCK));
        if block.is_empty() {
            break;
        }
        steps_seen += block.len();
        obs::incr(obs::Counter::StreamBlocks);
        obs::record(obs::Hist::StreamBlockFill, block.len() as u64);
        let block_ref = &block;
        msp_analysis::sweep::parallel_for_each_mut(&mut groups, opts.threads, |_, group| {
            advance_lane_group(group, block_ref, orders, opts.cross_lane_seed);
        });
    }

    let mut out = Vec::with_capacity(deltas.len() * orders.len());
    for (lane, &delta) in groups.into_iter().flatten().zip(deltas) {
        let name = lane.algorithm.name();
        for (&order, (movement, service)) in orders.iter().zip(lane.totals) {
            out.push(StreamRunResult {
                algorithm: name.clone(),
                order,
                delta,
                steps: steps_seen,
                final_position: lane.current,
                movement,
                service,
                max_step_used: lane.max_step_used,
            });
        }
    }
    out
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
    fn run_batch_matches_repeated_runs() {
        let inst = chase_instance(25);
        let deltas = [0.0, 0.1, 0.5, 1.0];
        let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
        let batch = run_batch(&inst, &MoveToCenter::new(), &deltas, &orders);
        assert_eq!(batch.len(), deltas.len() * orders.len());
        let mut i = 0;
        for &delta in &deltas {
            for &order in &orders {
                let mut alg = MoveToCenter::new();
                let single = run(&inst, &mut alg, delta, order);
                let b = &batch[i];
                assert_eq!(b.delta, delta);
                assert_eq!(b.order, order);
                assert_eq!(b.positions.len(), single.positions.len());
                // Default options may seed across lanes (the group shape
                // follows the core count), so the guarantee is solver
                // tolerance, not bit-equality — strict mode is pinned
                // exactly in tests/perf_parity.rs.
                for (p, q) in b.positions.iter().zip(&single.positions) {
                    assert!(p.distance(q) < 1e-8, "δ={delta} {order:?}");
                }
                assert!((b.total_cost() - single.total_cost()).abs() < 1e-8);
                i += 1;
            }
        }
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
    fn run_streaming_batch_matches_run_batch_exactly() {
        let inst = chase_instance(30);
        let deltas = [0.0, 0.25, 1.0];
        let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
        let batch = run_batch(&inst, &MoveToCenter::new(), &deltas, &orders);
        let streamed = run_streaming_batch(
            &inst.params(),
            inst.steps.iter().cloned(),
            &MoveToCenter::new(),
            &deltas,
            &orders,
        );
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.iter().zip(&batch) {
            assert_eq!(s.delta, b.delta);
            assert_eq!(s.order, b.order);
            assert_eq!(s.movement, b.cost.movement);
            assert_eq!(s.service, b.cost.service);
            assert_eq!(s.final_position, *b.positions.last().unwrap());
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

        // First half, snapshot, resume with the warm algorithm, second half.
        let mut sim = StreamingSim::new(
            &inst.params(),
            MoveToCenter::new(),
            0.4,
            ServingOrder::MoveFirst,
        );
        for step in &inst.steps[..12] {
            sim.feed(step);
        }
        let (warm, cp) = sim.into_parts();
        assert_eq!(cp.step, 12);
        let mut resumed =
            StreamingSim::resume(&inst.params(), warm, 0.4, ServingOrder::MoveFirst, &cp);
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
    fn periodic_checkpoints_fire_at_the_interval() {
        let inst = chase_instance(20);
        let mut seen = Vec::new();
        let res = run_streaming_with_checkpoints(
            &inst.params(),
            inst.steps.iter().cloned(),
            MoveToCenter::new(),
            0.0,
            ServingOrder::MoveFirst,
            6,
            |cp, _alg| seen.push(cp.step),
        );
        assert_eq!(seen, vec![6, 12, 18]);
        assert_eq!(res.steps, 20);
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
    #[should_panic(expected = "at least one δ")]
    fn run_streaming_batch_rejects_empty_deltas() {
        let inst = chase_instance(2);
        let _ = run_streaming_batch(
            &inst.params(),
            inst.steps.iter().cloned(),
            &MoveToCenter::new(),
            &[],
            &[ServingOrder::MoveFirst],
        );
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
