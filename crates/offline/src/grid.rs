//! Brute-force offline optimum on a discretized arena.
//!
//! Exhaustive dynamic programming over a regular grid: the state is the
//! server's grid cell, the transition allows every cell within the
//! movement limit. Exponential in the dimension — usable only on modest
//! instances, which is exactly its job: an independent oracle that
//! certifies the PWL and convex solvers in tests, and the denominator of
//! every measured competitive ratio off the line.
//!
//! The grid restricts OPT's positions, so [`grid_optimum`]` ≥ OPT`;
//! refining the grid converges from above. Tests compare solvers at
//! matching tolerances.
//!
//! # Transition scans
//!
//! The DP's per-step relaxation `next[k] = min_j (base[j] + D·d(j,k))`
//! (over sources `j` within the movement reach; `base` is the frontier
//! cost, plus the service cost under Answer-First) has two scans sharing
//! one arena and one set of allocation-free buffers:
//!
//! * **Windowed** ([`GridDp::solve`], [`grid_optimum`]) — the production
//!   kernel, a radius-pruned neighbor-window scan in
//!   `O(cells · windowᴺ)` per step: a move of length ≤ `reach` changes
//!   axis `i` by at most `⌈reach/hᵢ⌉` cells, and the exact distance check
//!   inside the window keeps the transition set *identical* to the
//!   all-pairs scan, so their results agree bit for bit.
//! * **All-pairs** ([`GridDp::solve_unpruned`], [`grid_optimum_unpruned`])
//!   — the `O(cells²)` scan over every (source, target) pair: the
//!   windowed scan's independent bit-equal oracle and benchmark baseline,
//!   never the fast path.
//!
//! **Prefix sweeps are one forward pass.** The DP runs forward in time,
//! so the frontier minimum after step `t` *is* the optimum of the
//! `t`-step prefix priced on the same arena. [`GridDp::prefix_optima`]
//! records it at every requested mark during a single windowed pass: a
//! horizon sweep pays each step's transition once, and every mark is
//! bit-equal to a fresh pass that stops there (pinned by proptests in
//! `tests/transition_kernels.rs`).
//!
//! **Scratch is hoisted.** [`GridDp`] owns the arena (node positions in
//! array-of-structs and structure-of-arrays layout) and every DP buffer,
//! so repeated solves — both scans, both serving orders, δ-sweeps against
//! one instance — are allocation-free after construction, like the
//! median solver. The per-step service costs are filled by one **SoA scan
//! per request** ([`msp_geometry::soa::SoaPoints::service_costs_into`],
//! vectorized over the node columns) shared by both scans, which
//! accumulates in request order — bit-identical per node to the scalar
//! per-node loop it replaced, so the windowed/all-pairs exact-equality
//! contract holds for every request count.

use msp_analysis::obs;
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_geometry::{Aabb, Point, SoaPoints};

/// Grid geometry shared by both transition scans: node positions plus the
/// start-snap and movement slack described in [`grid_optimum`].
struct GridArena<const N: usize> {
    nodes: Vec<Point<N>>,
    /// The same nodes in structure-of-arrays layout, for the per-step
    /// service scan and the start-snap distance scan.
    nodes_soa: SoaPoints<N>,
    /// Per-axis node spacing.
    spacing: [f64; N],
    /// Movement tolerance: `max_move` plus half a grid diagonal.
    reach: f64,
    /// Start-snap radius (half a grid diagonal).
    slack: f64,
}

fn build_arena<const N: usize>(instance: &Instance<N>, cells_per_axis: usize) -> GridArena<N> {
    assert!(cells_per_axis >= 2, "need at least 2 cells per axis");
    let cells = cells_per_axis.pow(N as u32);
    assert!(
        cells <= 200_000,
        "grid too large ({cells} cells); shrink the instance"
    );

    // Arena: bounding box of the start and every request, padded slightly
    // so boundary optima are representable.
    let mut bbox = Aabb::<N>::from_points(&[instance.start]);
    for step in &instance.steps {
        for v in &step.requests {
            bbox.insert(v);
        }
    }
    let pad = 0.5 * instance.max_move.max(1e-6);
    bbox = Aabb::from_corners(bbox.min - Point::splat(pad), bbox.max + Point::splat(pad));

    // Per-axis coordinates; the node set is their exact product.
    let axis: [Vec<f64>; N] = std::array::from_fn(|i| {
        (0..cells_per_axis)
            .map(|c| {
                let frac = c as f64 / (cells_per_axis - 1) as f64;
                bbox.min[i] + frac * (bbox.max[i] - bbox.min[i])
            })
            .collect()
    });

    // Enumerate grid nodes (axis 0 varies fastest).
    let mut nodes: Vec<Point<N>> = Vec::with_capacity(cells);
    let mut idx = [0usize; N];
    loop {
        let mut p = Point::<N>::origin();
        for i in 0..N {
            p[i] = axis[i][idx[i]];
        }
        nodes.push(p);
        // Odometer increment.
        let mut i = 0;
        loop {
            idx[i] += 1;
            if idx[i] < cells_per_axis {
                break;
            }
            idx[i] = 0;
            i += 1;
            if i == N {
                break;
            }
        }
        if i == N {
            break;
        }
    }

    // Movement tolerance: half a grid diagonal so the discretized path is
    // not starved by rounding.
    let mut spacing = [0.0f64; N];
    let mut diag2 = 0.0;
    for (i, s) in spacing.iter_mut().enumerate() {
        let h = (bbox.max[i] - bbox.min[i]) / (cells_per_axis - 1) as f64;
        *s = h;
        diag2 += h * h;
    }
    let slack = diag2.sqrt() * 0.51;
    let reach = instance.max_move + slack;

    let nodes_soa = SoaPoints::from_points(&nodes);
    GridArena {
        nodes,
        nodes_soa,
        spacing,
        reach,
        slack,
    }
}

/// A reusable grid-DP solver: arena geometry and every DP buffer are
/// built once, so repeated solves against the same instance (both scans,
/// both serving orders, resolution studies over δ) are allocation-free —
/// the `MedianSolver` discipline applied to the offline oracle.
///
/// One-shot pricing goes through [`grid_optimum`] /
/// [`grid_optimum_unpruned`]; sweeps solving repeatedly should hold a
/// `GridDp` and call [`GridDp::solve`] or [`GridDp::prefix_optima`].
pub struct GridDp<const N: usize> {
    arena: GridArena<N>,
    cells_per_axis: usize,
    /// Signature of the construction instance (start, `max_move`, `d`,
    /// horizon), used to catch mismatched solve calls in debug builds.
    built_for: (Point<N>, f64, f64, usize),
    /// DP cost of the current frontier, per node.
    cost: Vec<f64>,
    /// DP cost of the next frontier, per node.
    next: Vec<f64>,
    /// Per-node service cost of the current step.
    serve: Vec<f64>,
    /// Squared-distance scratch for the start snap.
    dist_sq: Vec<f64>,
}

/// Cheapest cell of a DP frontier: the optimum of the steps run so far.
fn frontier_min(cost: &[f64]) -> f64 {
    cost.iter().copied().fold(f64::INFINITY, f64::min)
}

impl<const N: usize> GridDp<N> {
    /// Builds the solver for `instance` on a `cells_per_axis`-per-axis
    /// grid. The solver is tied to this instance's arena — pass the same
    /// instance to [`GridDp::solve`].
    ///
    /// # Panics
    /// Panics when the grid would be degenerate (`cells_per_axis < 2`) or
    /// infeasibly large (> 200k cells) — this is a test oracle, not a
    /// solver.
    pub fn new(instance: &Instance<N>, cells_per_axis: usize) -> Self {
        let arena = build_arena(instance, cells_per_axis);
        let n = arena.nodes.len();
        GridDp {
            arena,
            cells_per_axis,
            built_for: (
                instance.start,
                instance.max_move,
                instance.d,
                instance.horizon(),
            ),
            cost: vec![0.0; n],
            next: vec![0.0; n],
            serve: vec![0.0; n],
            dist_sq: vec![0.0; n],
        }
    }

    /// Debug-build guard against solving a different instance than the
    /// one the arena was derived from (a silent wrong answer otherwise).
    fn check_instance(&self, instance: &Instance<N>) {
        debug_assert!(
            self.built_for.0 == instance.start
                && self.built_for.1 == instance.max_move
                && self.built_for.2 == instance.d
                && self.built_for.3 == instance.horizon(),
            "GridDp solved against a different instance than it was built for"
        );
    }

    /// Initial DP costs: the server must begin at `start`, which may be
    /// off-grid — allow a free snap of at most `slack`.
    fn reset_initial_costs(&mut self, start: &Point<N>) {
        self.arena
            .nodes_soa
            .distances_sq_into(start, &mut self.dist_sq);
        let mut any = false;
        for (c, &d2) in self.cost.iter_mut().zip(&self.dist_sq) {
            if d2.sqrt() <= self.arena.slack {
                *c = 0.0;
                any = true;
            } else {
                *c = f64::INFINITY;
            }
        }
        if !any {
            // Extremely coarse grid: snap to the nearest node
            // unconditionally.
            let (j, _) = self
                .dist_sq
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            self.cost[j] = 0.0;
        }
    }

    /// Per-node service cost of one step: one blocked SoA scan over the
    /// node columns, accumulating requests in order (bit-identical per
    /// node to the scalar `Σ_r d(node, v_r)` loop). Shared by both scans
    /// so their transition minima see the same values.
    fn fill_service_costs(&mut self, requests: &[Point<N>]) {
        self.arena
            .nodes_soa
            .service_costs_into(requests, &mut self.serve);
    }

    /// Per-axis neighbor window: a move of length ≤ `reach` changes axis
    /// `i` by at most `⌈reach/hᵢ⌉` cells. The window over-approximates
    /// the Euclidean ball; the exact distance check inside the windowed
    /// scan keeps the transition set identical to the all-pairs scan.
    fn axis_windows(&self) -> [usize; N] {
        let n0 = self.cells_per_axis;
        let mut window = [0usize; N];
        for (w, &h) in window.iter_mut().zip(&self.arena.spacing) {
            *w = if h > 0.0 {
                ((self.arena.reach / h).ceil() as usize).min(n0 - 1)
            } else {
                n0 - 1
            };
        }
        window
    }

    /// Runs the DP forward over the first `steps` steps of `instance`,
    /// one transition per step (the all-pairs scan when `all_pairs`, the
    /// windowed scan otherwise), and hands `after(t, frontier)` the DP
    /// frontier after each `t = 0..=steps` steps.
    ///
    /// `instance` must be the one the solver was built for: the arena
    /// (node grid, movement reach, start-snap slack) was derived from its
    /// bounding box and `max_move` at construction. Debug builds assert a
    /// signature match (start, `max_move`, `D`, horizon); release builds
    /// do not re-validate — a mismatched instance is priced on the wrong
    /// arena. The one-shot wrappers enforce the pairing.
    fn forward(
        &mut self,
        instance: &Instance<N>,
        steps: usize,
        order: ServingOrder,
        all_pairs: bool,
        mut after: impl FnMut(usize, &[f64]),
    ) {
        self.check_instance(instance);
        obs::incr(obs::Counter::GridSolves);
        self.reset_initial_costs(&instance.start);
        after(0, &self.cost);
        let window = self.axis_windows();
        for (t, step) in instance.steps[..steps].iter().enumerate() {
            obs::incr(obs::Counter::GridSteps);
            let step_span = obs::timer(obs::Hist::GridStepNs);
            self.fill_service_costs(&step.requests);
            if all_pairs {
                self.transition_all_pairs(instance.d, order);
            } else {
                self.transition_windowed(instance.d, order, &window);
            }
            step_span.stop();
            std::mem::swap(&mut self.cost, &mut self.next);
            after(t + 1, &self.cost);
        }
    }

    /// Optimal total cost of `instance` (the one the solver was built
    /// for) on the grid, by the radius-pruned windowed scan — the
    /// production kernel behind [`grid_optimum`], bit-equal to
    /// [`GridDp::solve_unpruned`].
    pub fn solve(&mut self, instance: &Instance<N>, order: ServingOrder) -> f64 {
        self.forward(instance, instance.horizon(), order, false, |_, _| {});
        frontier_min(&self.cost)
    }

    /// The original all-pairs transition scan, retained as the
    /// independent bit-equal oracle of [`GridDp::solve`] — and as the
    /// "before" side of the DP benchmarks.
    pub fn solve_unpruned(&mut self, instance: &Instance<N>, order: ServingOrder) -> f64 {
        self.forward(instance, instance.horizon(), order, true, |_, _| {});
        frontier_min(&self.cost)
    }

    /// Grid optima of every prefix of `instance` (the one the solver was
    /// built for) whose horizon is in `marks`, from **one** forward
    /// windowed pass that stops at the last mark.
    ///
    /// The DP is forward in time, so the frontier minimum after `t` steps
    /// is the cold optimum of the `t`-step prefix on this solver's arena —
    /// which covers the *whole* instance's bounding box, the geometry a
    /// covering solver uses for every prefix. Each returned value is
    /// therefore bit-equal to a fresh solver's single-mark pass, the mark
    /// at the full horizon is bit-equal to [`GridDp::solve`], and the
    /// values are nondecreasing (every step adds a nonnegative cost).
    ///
    /// # Panics
    /// Panics when `marks` is not strictly ascending or exceeds the
    /// horizon.
    pub fn prefix_optima(
        &mut self,
        instance: &Instance<N>,
        order: ServingOrder,
        marks: &[usize],
    ) -> Vec<f64> {
        assert!(
            marks.windows(2).all(|w| w[0] < w[1]),
            "prefix marks must be strictly ascending"
        );
        let last = marks.last().copied().unwrap_or(0);
        assert!(last <= instance.horizon(), "prefix mark beyond the horizon");
        let mut optima = Vec::with_capacity(marks.len());
        let mut pending = marks.iter().copied().peekable();
        self.forward(instance, last, order, false, |t, frontier| {
            if pending.next_if_eq(&t).is_some() {
                optima.push(frontier_min(frontier));
            }
        });
        optima
    }

    /// One step of the all-pairs transition scan: `cost`/`serve` →
    /// `next`.
    fn transition_all_pairs(&mut self, d: f64, order: ServingOrder) {
        let inf = f64::INFINITY;
        let (cost, next, serve) = (&self.cost, &mut self.next, &self.serve);
        let nodes = &self.arena.nodes;
        let reach = self.arena.reach;
        let mut scanned = 0u64;
        for c in next.iter_mut() {
            *c = inf;
        }
        for (j, pj) in nodes.iter().enumerate() {
            if cost[j].is_infinite() {
                continue;
            }
            scanned += nodes.len() as u64;
            for (k, pk) in nodes.iter().enumerate() {
                let move_dist = pj.distance(pk);
                if move_dist > reach {
                    continue;
                }
                let c = match order {
                    ServingOrder::MoveFirst => cost[j] + d * move_dist + serve[k],
                    ServingOrder::AnswerFirst => cost[j] + serve[j] + d * move_dist,
                };
                if c < next[k] {
                    next[k] = c;
                }
            }
        }
        obs::add(obs::Counter::GridAllPairsCells, scanned);
    }

    /// One step of the radius-pruned neighbor-window scan: for each live
    /// source, scatter into the per-axis window around it. The exact
    /// distance check keeps the transition set identical to the all-pairs
    /// scan.
    fn transition_windowed(&mut self, d: f64, order: ServingOrder, window: &[usize; N]) {
        let inf = f64::INFINITY;
        let cells_per_axis = self.cells_per_axis;
        let (cost, next, serve) = (&self.cost, &mut self.next, &self.serve);
        let nodes = &self.arena.nodes;
        let reach = self.arena.reach;
        let mut stride = [1usize; N];
        for i in 1..N {
            stride[i] = stride[i - 1] * cells_per_axis;
        }
        for c in next.iter_mut() {
            *c = inf;
        }
        let mut scanned = 0u64;
        for (j, pj) in nodes.iter().enumerate() {
            if cost[j].is_infinite() {
                continue;
            }
            // Decode j's cell coordinates and clamp the window per axis.
            let mut lo = [0usize; N];
            let mut hi = [0usize; N];
            let mut cur = [0usize; N];
            let mut vol = 1u64;
            for i in 0..N {
                let c = (j / stride[i]) % cells_per_axis;
                lo[i] = c.saturating_sub(window[i]);
                hi[i] = (c + window[i]).min(cells_per_axis - 1);
                cur[i] = lo[i];
                vol *= (hi[i] - lo[i] + 1) as u64;
            }
            scanned += vol;
            // Odometer over the neighbor box.
            loop {
                let mut k = 0usize;
                for i in 0..N {
                    k += cur[i] * stride[i];
                }
                let pk = &nodes[k];
                let move_dist = pj.distance(pk);
                if move_dist <= reach {
                    let c = match order {
                        ServingOrder::MoveFirst => cost[j] + d * move_dist + serve[k],
                        ServingOrder::AnswerFirst => cost[j] + serve[j] + d * move_dist,
                    };
                    if c < next[k] {
                        next[k] = c;
                    }
                }
                // Advance the odometer.
                let mut i = 0;
                loop {
                    cur[i] += 1;
                    if cur[i] <= hi[i] {
                        break;
                    }
                    cur[i] = lo[i];
                    i += 1;
                    if i == N {
                        break;
                    }
                }
                if i == N {
                    break;
                }
            }
        }
        obs::add(obs::Counter::GridWindowedCells, scanned);
    }
}

/// Exhaustive DP optimum over a `cells_per_axis`-per-dimension grid
/// covering the instance's bounding box (start + all requests), by the
/// radius-pruned windowed scan (bit-equal to the all-pairs oracle — see
/// the [module docs](self)). One-shot wrapper over [`GridDp`]; sweeps
/// solving repeatedly should hold a `GridDp` and reuse its buffers.
///
/// ```
/// use msp_core::cost::ServingOrder;
/// use msp_core::model::{Instance, Step};
/// use msp_geometry::P2;
///
/// // Two steps on the plane: requests pull the server up-right.
/// let steps = vec![
///     Step::new(vec![P2::xy(1.0, 0.0), P2::xy(0.0, 1.0)]),
///     Step::new(vec![P2::xy(1.0, 1.0)]),
/// ];
/// let inst = Instance::new(2.0, 0.5, P2::origin(), steps);
/// let opt = msp_offline::grid_optimum(&inst, 31, ServingOrder::MoveFirst);
/// // The offline optimum is finite and certainly no more than serving
/// // everything from the start without moving.
/// let stay_home: f64 = inst.steps.iter()
///     .flat_map(|s| s.requests.iter().map(|r| r.distance(&inst.start)))
///     .sum();
/// assert!(opt > 0.0 && opt <= stay_home + 1e-9);
/// ```
///
/// # Panics
/// Panics when the grid would be degenerate (`cells_per_axis < 2`) or
/// infeasibly large (> 200k cells) — this is a test oracle, not a
/// solver.
pub fn grid_optimum<const N: usize>(
    instance: &Instance<N>,
    cells_per_axis: usize,
    order: ServingOrder,
) -> f64 {
    GridDp::new(instance, cells_per_axis).solve(instance, order)
}

/// One-shot wrapper over the all-pairs scan, the bit-equal parity oracle
/// of [`grid_optimum`].
///
/// # Panics
/// Same contract as [`grid_optimum`].
pub fn grid_optimum_unpruned<const N: usize>(
    instance: &Instance<N>,
    cells_per_axis: usize,
    order: ServingOrder,
) -> f64 {
    GridDp::new(instance, cells_per_axis).solve_unpruned(instance, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::solve_line;
    use msp_core::model::Step;
    use msp_geometry::{P1, P2};

    #[test]
    fn matches_exact_line_solver_on_small_instance() {
        let steps = vec![
            Step::single(P1::new([2.0])),
            Step::single(P1::new([2.0])),
            Step::single(P1::new([-1.0])),
            Step::single(P1::new([0.5])),
        ];
        let inst = Instance::new(2.0, 1.0, P1::origin(), steps);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let exact = solve_line(&inst, order).cost;
            let grid = grid_optimum(&inst, 241, order);
            assert!(
                (grid - exact).abs() < 0.12,
                "{order:?}: grid {grid} vs exact {exact}"
            );
            // The grid never undercuts the true optimum by more than the
            // start-snap slack.
            assert!(grid >= exact - 0.1);
        }
    }

    #[test]
    fn planar_triangle_instance_is_consistent_across_resolutions() {
        let steps = vec![
            Step::new(vec![P2::xy(1.0, 0.0), P2::xy(0.0, 1.0)]),
            Step::new(vec![P2::xy(1.0, 1.0)]),
        ];
        let inst = Instance::new(1.0, 0.7, P2::origin(), steps);
        let coarse = grid_optimum(&inst, 15, ServingOrder::MoveFirst);
        let fine = grid_optimum(&inst, 41, ServingOrder::MoveFirst);
        // Refinement should not increase the optimum by much (monotone up
        // to snap slack) and both must be finite.
        assert!(fine.is_finite() && coarse.is_finite());
        assert!(fine <= coarse + 0.2, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn zero_steps_cost_zero() {
        let inst = Instance::new(1.0, 1.0, P2::origin(), vec![]);
        assert_eq!(grid_optimum(&inst, 5, ServingOrder::MoveFirst), 0.0);
    }

    #[test]
    #[should_panic(expected = "grid too large")]
    fn oversize_grid_rejected() {
        let inst = Instance::new(1.0, 1.0, P2::origin(), vec![]);
        let _ = grid_optimum(&inst, 500, ServingOrder::MoveFirst);
    }

    #[test]
    fn kernels_agree_on_the_line() {
        let steps = vec![
            Step::single(P1::new([2.0])),
            Step::new(vec![P1::new([-1.5]), P1::new([1.0])]),
            Step::new(vec![]),
            Step::single(P1::new([0.25])),
        ];
        let inst = Instance::new(1.5, 0.8, P1::origin(), steps);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            for cells in [17, 65, 129] {
                let mut dp = GridDp::new(&inst, cells);
                let full = dp.solve_unpruned(&inst, order);
                let pruned = dp.solve(&inst, order);
                assert_eq!(
                    pruned, full,
                    "{order:?} cells={cells}: windowed {pruned} vs all-pairs {full}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_on_the_plane() {
        let steps = vec![
            Step::new(vec![P2::xy(1.0, 0.0), P2::xy(0.0, 1.0)]),
            Step::new(vec![P2::xy(1.2, 1.1)]),
            Step::new(vec![P2::xy(-0.5, 0.6), P2::xy(0.9, -0.4)]),
        ];
        let inst = Instance::new(2.0, 0.6, P2::origin(), steps);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            for cells in [9, 21, 33] {
                let mut dp = GridDp::new(&inst, cells);
                let full = dp.solve_unpruned(&inst, order);
                let pruned = dp.solve(&inst, order);
                assert_eq!(
                    pruned, full,
                    "{order:?} cells={cells}: windowed {pruned} vs all-pairs {full}"
                );
            }
        }
    }

    #[test]
    fn reused_solver_matches_one_shot_wrappers() {
        // One GridDp, solved repeatedly across both orders and both scans:
        // every reuse must reproduce the fresh-solver result exactly
        // (buffer hoisting is a pure allocation optimization).
        let steps = vec![
            Step::new(vec![P2::xy(0.8, 0.2), P2::xy(-0.3, 1.0)]),
            Step::new(vec![P2::xy(1.1, -0.6)]),
            Step::new(vec![]),
            Step::new(vec![P2::xy(0.1, 0.4), P2::xy(0.9, 0.9), P2::xy(-0.5, 0.0)]),
        ];
        let inst = Instance::new(1.5, 0.5, P2::origin(), steps);
        let mut dp = GridDp::new(&inst, 17);
        for _round in 0..2 {
            for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
                let reused_full = dp.solve_unpruned(&inst, order);
                let fresh_full = grid_optimum_unpruned(&inst, 17, order);
                assert_eq!(reused_full, fresh_full, "{order:?} all-pairs");
                let reused = dp.solve(&inst, order);
                assert_eq!(reused, reused_full, "{order:?} windowed vs all-pairs");
                assert_eq!(reused, grid_optimum(&inst, 17, order), "{order:?} one-shot");
            }
        }
    }

    #[test]
    fn kernels_agree_with_large_request_sets() {
        // More requests than the kernel block width: the shared SoA
        // service scan keeps both scans on identical per-node service
        // values, so windowed/all-pairs equality is exact even past the
        // chunk boundary.
        let mut steps = Vec::new();
        for t in 0..3 {
            let reqs: Vec<P2> = (0..11)
                .map(|i| {
                    let a = 0.45 * (t * 11 + i) as f64;
                    P2::xy(a.cos() * 1.1, (a * 1.7).sin())
                })
                .collect();
            steps.push(Step::new(reqs));
        }
        let inst = Instance::new(2.0, 0.6, P2::origin(), steps);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let mut dp = GridDp::new(&inst, 19);
            let full = dp.solve_unpruned(&inst, order);
            let pruned = dp.solve(&inst, order);
            assert_eq!(pruned, full, "{order:?}");
        }
    }

    #[test]
    fn window_never_excludes_reachable_cells_with_large_budget() {
        // Budget larger than the whole arena: the window clamps to the
        // full grid and the windowed scan must still agree with the
        // all-pairs scan.
        let steps = vec![
            Step::single(P2::xy(1.0, 1.0)),
            Step::single(P2::xy(-1.0, 0.5)),
        ];
        let inst = Instance::new(1.0, 50.0, P2::origin(), steps);
        let mut dp = GridDp::new(&inst, 13);
        let full = dp.solve_unpruned(&inst, ServingOrder::MoveFirst);
        let pruned = dp.solve(&inst, ServingOrder::MoveFirst);
        assert_eq!(pruned, full);
    }
}
