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
//! # Transition kernels
//!
//! The DP's per-step relaxation `next[k] = min_j (base[j] + D·d(j,k))`
//! (over sources `j` within the movement reach; `base` is the frontier
//! cost, plus the service cost under Answer-First) is a pluggable
//! [`TransitionKernel`] — three implementations sharing one arena and one
//! set of allocation-free scratch buffers:
//!
//! * [`TransitionKernel::AllPairs`] — the `O(cells²)` scan over every
//!   (source, target) pair. The independent parity oracle and benchmark
//!   baseline; never the fast path.
//! * [`TransitionKernel::Windowed`] — the radius-pruned neighbor-window
//!   scan, `O(cells · windowᴺ)`: a move of length ≤ `reach` changes axis
//!   `i` by at most `⌈reach/hᵢ⌉` cells, and the exact distance check
//!   inside the window keeps the transition set *identical* to the
//!   all-pairs scan, so their results agree bit for bit.
//! * [`TransitionKernel::DistanceTransform`] — the SMAWK min-plus
//!   distance transform, `O(cells · windowᴺ⁻¹)`: axis 0 is swept in one
//!   pass per (target row, source row) pair by running the SMAWK
//!   row-minima reduction of Aggarwal et al. on the pair's candidate
//!   matrix `M[k][j] = base[j] + D·√((x_k−x_j)² + C²)` (C = the fixed
//!   rest-axis offset of the row pair), padded so reach-infeasible and
//!   dead entries preserve total monotonicity (the proof lives in the
//!   `dt_row` worker's rustdoc; `smawk`'s states the requirement).
//!   On the line (`N = 1`) the whole step collapses to a single
//!   `O(cells)` reduction — the totally-monotone-matrix discipline
//!   applied to the Euclidean (not squared) metric, replacing the PR 4
//!   prefix/suffix cone-envelope sweeps and their brute-scan fallbacks
//!   with one provably linear pass per pair.
//!
//!   **Exactness contract.** Feasibility is decided on squared
//!   distances against a precomputed threshold that reproduces the
//!   oracle's `d(j,k) ≤ reach` sqrt-compare bit for bit, and the
//!   candidate value of a SMAWK winner is evaluated with the oracle's
//!   own expression on the oracle's own coordinates, so the only
//!   divergence from [`TransitionKernel::AllPairs`] is tie-breaking
//!   among equal minima — the result is never *below* the oracle's and
//!   agrees within ~1e-12 relative (pinned by proptests in
//!   `tests/transition_kernels.rs`). A whole-pair improvement bound
//!   (cheapest row base plus the `D·C` rest-offset move against the
//!   frontier maximum) skips only pairs that cannot strictly improve
//!   any cell, preserving both properties. Arenas whose axis
//!   coordinates are not strictly increasing in `f64` (possible only for
//!   degenerate magnitudes where spacing falls under one ulp) are
//!   detected at construction and silently served by the windowed kernel
//!   instead.
//!
//! **DT rows fan out.** The distance-transform transition's target rows
//! are mutually independent (each reads the frozen frontier and writes
//! only its own `next` row), so the row loop fans out over the
//! [`msp_analysis::sweep`] persistent worker pool in contiguous chunks
//! with per-worker scratch ([`GridDp::set_row_threads`]; default: the
//! pool size, collapsing to one thread inside an outer sweep). The
//! chunking changes wall-clock only — the DP result is bit-identical for
//! every thread count, so the parity contracts above are unaffected.
//!
//! **Scratch is hoisted.** [`GridDp`] owns the arena (node positions in
//! array-of-structs, structure-of-arrays, and per-axis coordinate layout)
//! and every DP buffer, so repeated solves — all kernels, both serving
//! orders, δ-sweeps against one instance — are allocation-free after
//! construction, like the median solver. The per-step service costs are
//! filled by one **SoA scan per request**
//! ([`msp_geometry::soa::SoaPoints::service_costs_into`], vectorized over
//! the node columns) shared by every kernel, which accumulates in request
//! order — bit-identical per node to the scalar per-node loop it
//! replaced, so the windowed/all-pairs exact-equality contract is
//! preserved for every request count.
//!
//! **Warm incremental solves.** Sweeps that re-solve the same arena
//! against step-wise similar instances (prefix sweeps, perturbed
//! schedules) should use [`GridDp::solve_warm`]: it journals every
//! step's request bits, service costs, and post-step frontier, and on
//! the next solve fast-forwards over the longest step prefix whose
//! request bits are unchanged — the exactness guard is bit-level
//! equality of the inputs, so a warm solve is **bit-equal** to the cold
//! solve of the same instance (pinned by proptests). See the method
//! docs for the journal contract and its `O(horizon · cells)` memory
//! cost.

use msp_analysis::obs;
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_geometry::{Aabb, Point, SoaPoints};

/// Strategy for the grid DP's per-step transition relaxation
/// `next[k] = min_j (base[j] + D·d(j,k))`.
///
/// All kernels compute the same minima over the same transition set (every
/// source within the movement reach); they differ in how the minimum is
/// found and, consequently, in cost and in bit-level tie-breaking — see the
/// [module docs](self) for the exactness contract of each.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransitionKernel {
    /// Scan every (source, target) pair: `O(cells²)` per step. The parity
    /// oracle the other kernels are certified against.
    AllPairs,
    /// Radius-pruned neighbor-window scan: `O(cells · windowᴺ)` per step,
    /// bit-identical to [`TransitionKernel::AllPairs`].
    Windowed,
    /// Axis-swept lower-envelope distance transform:
    /// `O(cells · windowᴺ⁻¹)` per step (`O(cells)` on the line), never
    /// below and within ~1e-12 relative of the oracle. The default used
    /// by [`grid_optimum`].
    #[default]
    DistanceTransform,
}

impl TransitionKernel {
    /// Every kernel, oracle first — convenient for parity sweeps in tests.
    pub const ALL: [TransitionKernel; 3] = [
        TransitionKernel::AllPairs,
        TransitionKernel::Windowed,
        TransitionKernel::DistanceTransform,
    ];
}

/// Grid geometry shared by the transition kernels: node positions plus the
/// start-snap and movement slack described in [`grid_optimum`].
struct GridArena<const N: usize> {
    nodes: Vec<Point<N>>,
    /// The same nodes in structure-of-arrays layout, for the per-step
    /// service scan and the start-snap distance scan.
    nodes_soa: SoaPoints<N>,
    /// Per-axis node coordinates: the arena is the exact product
    /// `axis[0] × … × axis[N−1]` (axis 0 varies fastest), which is what
    /// lets the distance-transform kernel sweep one axis at a time.
    axis: [Vec<f64>; N],
    /// Whether every `axis` array is strictly increasing in `f64` — the
    /// precondition of the envelope sweep. False only for degenerate
    /// coordinate magnitudes; the DT kernel then falls back to Windowed.
    axes_strict: bool,
    /// Per-axis node spacing.
    spacing: [f64; N],
    /// Movement tolerance: `max_move` plus half a grid diagonal.
    reach: f64,
    /// Start-snap radius (half a grid diagonal).
    slack: f64,
}

/// Largest squared distance whose (correctly rounded) square root still
/// passes the oracle's `d ≤ reach` predicate — feasibility can then be
/// tested on squared distances, bit-faithfully to the oracle's
/// `sqrt`-then-compare. (IEEE `sqrt` is monotone, so the predicate is a
/// half-line in the squared value; the loops terminate within a few ulps
/// of `reach²`.)
fn sq_reach_threshold(reach: f64) -> f64 {
    let mut s = reach * reach;
    while s > 0.0 && s.sqrt() > reach {
        s = f64::from_bits(s.to_bits() - 1);
    }
    loop {
        let up = f64::from_bits(s.to_bits() + 1);
        if up.sqrt() <= reach {
            s = up;
        } else {
            break;
        }
    }
    s
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
    let axes_strict = axis.iter().all(|a| a.windows(2).all(|w| w[0] < w[1]));

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
        axis,
        axes_strict,
        spacing,
        reach,
        slack,
    }
}

/// A reusable grid-DP solver: arena geometry and every DP buffer are
/// built once, so repeated solves against the same instance (all
/// [`TransitionKernel`]s, both serving orders, resolution studies over δ)
/// are allocation-free — the `MedianSolver` discipline applied to the
/// offline oracle.
///
/// One-shot pricing goes through [`grid_optimum`] /
/// [`grid_optimum_unpruned`]; sweeps solving repeatedly should hold a
/// `GridDp` and call [`GridDp::solve_with`].
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
    /// DT scratch: per-source transition base cost (`cost`, plus `serve`
    /// under Answer-First).
    base: Vec<f64>,
    /// DT scratch: per-row count of finite `base` entries — O(1)
    /// dead-row checks.
    row_live: Vec<u32>,
    /// DT scratch: per-row minimum of `base` (∞ for dead rows) — the
    /// whole-pair skip bound.
    row_min: Vec<f64>,
    /// Warm-solve journal for [`GridDp::solve_warm`] (empty until the
    /// first warm solve; [`GridDp::reset_warm`] clears it).
    warm: WarmJournal,
    /// DT scratch: one [`DtScratch`] per row-fan worker (grown lazily to
    /// the fan width; index 0 serves the sequential path).
    dt_scratch: Vec<DtScratch>,
    /// Worker threads for the per-target-row fan of the
    /// distance-transform transition (0 = the sweep pool size; nested
    /// inside another sweep everything runs on the current worker). See
    /// [`GridDp::set_row_threads`].
    row_threads: usize,
}

/// Per-worker scratch of the distance-transform row fan: everything one
/// target row needs beyond the shared read-only step context. Rows are
/// independent (each writes only its own `next` slice), so giving every
/// worker chunk its own scratch makes the fan embarrassingly parallel
/// while keeping the per-row arithmetic — and therefore the result —
/// bit-identical to the sequential sweep for any thread count.
struct DtScratch {
    /// The admissible (C², source row) pairs of one target row, sorted by
    /// ascending rest offset.
    pair_buf: Vec<(f64, usize)>,
    /// SMAWK column arena: survivor column indices of every live
    /// recursion level, stack-disciplined (each level appends its
    /// reduced columns and truncates them on return), so one flat `Vec`
    /// serves the whole recursion without per-level allocation.
    cols: Vec<u32>,
    /// Per-target argmin column written by the SMAWK reduction.
    argmin: Vec<u32>,
}

impl DtScratch {
    fn new(n0: usize) -> Self {
        DtScratch {
            pair_buf: Vec::new(),
            cols: Vec::with_capacity(2 * n0 + 4),
            argmin: vec![0; n0],
        }
    }
}

/// One journaled step of a warm solve: the request coordinates (as raw
/// bits — the exactness guard compares inputs bit-level), the step's
/// per-node service costs (a pure function of requests and arena, so
/// reusable whenever this step's bits match even after an earlier step
/// diverged), and the post-step frontier.
struct WarmStep {
    /// `N` coordinate bit patterns per request, flattened.
    req_bits: Vec<u64>,
    /// Per-node service cost of the step.
    serve: Vec<f64>,
    /// Per-node DP cost *after* this step's transition.
    frontier: Vec<f64>,
}

/// The warm-solve journal: a consistent chain of [`WarmStep`]s — entry
/// `t`'s frontier is the DP state after steps `0..=t` with exactly the
/// journaled request bits — valid only for one (serving order, resolved
/// kernel) pair, since kernels differ in tie-level bits.
#[derive(Default)]
struct WarmJournal {
    order: Option<(ServingOrder, TransitionKernel)>,
    steps: Vec<WarmStep>,
}

/// Flattened coordinate bit patterns of one step's requests.
fn step_req_bits<const N: usize>(requests: &[Point<N>]) -> Vec<u64> {
    let mut bits = Vec::with_capacity(requests.len() * N);
    for r in requests {
        for i in 0..N {
            bits.push(r[i].to_bits());
        }
    }
    bits
}

/// Whether `bits` is exactly the bit pattern of `requests`.
fn req_bits_match<const N: usize>(bits: &[u64], requests: &[Point<N>]) -> bool {
    bits.len() == requests.len() * N
        && requests
            .iter()
            .enumerate()
            .all(|(r, p)| (0..N).all(|i| bits[r * N + i] == p[i].to_bits()))
}

/// Read-only per-step context shared by every target row of one
/// distance-transform transition: the frozen DP inputs ([`GridDp`]
/// buffers filled by the sequential prologue) plus the arena geometry.
/// `Sync` by construction (shared references only), which is what lets
/// the row fan borrow it across workers.
struct DtStep<'a, const N: usize> {
    n0: usize,
    d: f64,
    /// Axis-0 node coordinates.
    x0: &'a [f64],
    axis: &'a [Vec<f64>; N],
    nodes: &'a [Point<N>],
    /// Per-source transition base cost (`cost`, plus `serve` under
    /// Answer-First).
    base: &'a [f64],
    /// Per-row count of finite `base` entries.
    live: &'a [u32],
    /// Per-row minimum of `base`.
    row_min: &'a [f64],
    window: &'a [usize; N],
    r2max: f64,
    r2win: f64,
}

impl<const N: usize> GridDp<N> {
    /// Builds the solver for `instance` on a `cells_per_axis`-per-axis
    /// grid. The solver is tied to this instance's arena — pass the same
    /// instance to [`GridDp::solve_with`].
    ///
    /// # Panics
    /// Panics when the grid would be degenerate (`cells_per_axis < 2`) or
    /// infeasibly large (> 200k cells) — this is a test oracle, not a
    /// solver.
    pub fn new(instance: &Instance<N>, cells_per_axis: usize) -> Self {
        let arena = build_arena(instance, cells_per_axis);
        let n = arena.nodes.len();
        let rows = n / cells_per_axis;
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
            base: vec![0.0; n],
            row_live: vec![0; rows],
            row_min: vec![0.0; rows],
            dt_scratch: vec![DtScratch::new(cells_per_axis)],
            row_threads: 0,
            warm: WarmJournal::default(),
        }
    }

    /// Sets the worker-thread request of the distance-transform kernel's
    /// per-target-row fan: `0` (the default) fans rows over the
    /// [`msp_analysis::sweep`] pool, `1` forces the sequential sweep, any
    /// other value requests that many workers (served by at most the
    /// pool). The fan changes wall-clock only — per-row arithmetic is
    /// independent of the chunking, so the DP result is **bit-identical**
    /// for every setting (pinned by tests), and solves nested inside
    /// another sweep collapse to one thread regardless.
    pub fn set_row_threads(&mut self, threads: usize) -> &mut Self {
        self.row_threads = threads;
        self
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
    /// node to the scalar `Σ_r d(node, v_r)` loop). Shared by every
    /// kernel so their transition minima see the same values.
    fn fill_service_costs(&mut self, requests: &[Point<N>]) {
        self.arena
            .nodes_soa
            .service_costs_into(requests, &mut self.serve);
    }

    /// Per-axis neighbor window: a move of length ≤ `reach` changes axis
    /// `i` by at most `⌈reach/hᵢ⌉` cells. The window over-approximates
    /// the Euclidean ball; exact distance checks inside the kernels keep
    /// the transition set identical to the all-pairs scan.
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

    /// Runs the DP over the instance's steps with the given transition
    /// kernel and returns the optimal total cost.
    ///
    /// `instance` must be the one the solver was built for: the arena
    /// (node grid, movement reach, start-snap slack) was derived from its
    /// bounding box and `max_move` at construction. Debug builds assert a
    /// signature match (start, `max_move`, `D`, horizon); release builds
    /// do not re-validate — a mismatched instance is priced on the wrong
    /// arena. The one-shot wrappers enforce the pairing.
    pub fn solve_with(
        &mut self,
        instance: &Instance<N>,
        order: ServingOrder,
        kernel: TransitionKernel,
    ) -> f64 {
        self.check_instance(instance);
        obs::incr(obs::Counter::GridSolves);
        let kernel = self.resolve_kernel(kernel);
        self.reset_initial_costs(&instance.start);
        let window = self.axis_windows();
        for step in &instance.steps {
            obs::incr(obs::Counter::GridSteps);
            let step_span = obs::timer(obs::Hist::GridStepNs);
            self.fill_service_costs(&step.requests);
            self.run_transition(instance.d, order, kernel, &window);
            step_span.stop();
            std::mem::swap(&mut self.cost, &mut self.next);
        }
        self.cost.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Degenerate float grids (spacing under one ulp) cannot host the
    /// SMAWK sweep; serve them with the windowed scan.
    fn resolve_kernel(&self, kernel: TransitionKernel) -> TransitionKernel {
        match kernel {
            TransitionKernel::DistanceTransform if !self.arena.axes_strict => {
                TransitionKernel::Windowed
            }
            k => k,
        }
    }

    /// One step's transition relaxation under the (resolved) kernel:
    /// `cost`/`serve` → `next`.
    fn run_transition(
        &mut self,
        d: f64,
        order: ServingOrder,
        kernel: TransitionKernel,
        window: &[usize; N],
    ) {
        match kernel {
            TransitionKernel::AllPairs => self.transition_all_pairs(d, order),
            TransitionKernel::Windowed => self.transition_windowed(d, order, window),
            TransitionKernel::DistanceTransform => {
                self.transition_distance_transform(d, order, window)
            }
        }
    }

    /// Warm incremental solve: like [`GridDp::solve_with`], but the
    /// solver journals every step's inputs and outputs and, on the next
    /// call, **fast-forwards over the longest step prefix whose request
    /// bits are unchanged**, loading that prefix's journaled frontier
    /// instead of recomputing it. Later steps whose bits match their
    /// journal entry still reuse the entry's service scan (service costs
    /// are a pure per-step function of the requests and the arena), even
    /// when an earlier step diverged.
    ///
    /// **Exactness guard.** The only reuse criterion is bit-level
    /// equality of the step's request coordinates, and the journal is
    /// keyed to the (serving order, resolved kernel) pair and truncated
    /// whenever a recomputation shortens the trusted chain — so a warm
    /// solve returns the **bit-exact** cold result for every instance
    /// (pinned by proptests in `tests/transition_kernels.rs`, for every
    /// row-fan thread count).
    ///
    /// Unlike [`GridDp::solve_with`], the instance may have **any
    /// horizon** (prefix sweeps are the point); it must still share the
    /// construction instance's start, movement budget, and `D`, and its
    /// requests must stay inside the construction bounding box for the
    /// arena to price it faithfully — chained prefixes of the
    /// construction instance satisfy both by construction.
    ///
    /// The journal costs `O(horizon · cells)` floats; [`GridDp::reset_warm`]
    /// drops it. Cold solves via [`GridDp::solve_with`] never touch it.
    pub fn solve_warm(
        &mut self,
        instance: &Instance<N>,
        order: ServingOrder,
        kernel: TransitionKernel,
    ) -> f64 {
        debug_assert!(
            self.built_for.0 == instance.start
                && self.built_for.1 == instance.max_move
                && self.built_for.2 == instance.d,
            "GridDp warm-solved against a different instance family than it was built for"
        );
        obs::incr(obs::Counter::GridSolves);
        let kernel = self.resolve_kernel(kernel);
        if self.warm.order != Some((order, kernel)) {
            self.warm.steps.clear();
            self.warm.order = Some((order, kernel));
        }
        let cells = self.cost.len();
        let horizon = instance.steps.len();

        // Longest journal prefix with bit-identical requests: its
        // frontier chain is trusted verbatim.
        let mut reuse = 0usize;
        while reuse < self.warm.steps.len().min(horizon)
            && req_bits_match(
                &self.warm.steps[reuse].req_bits,
                &instance.steps[reuse].requests,
            )
        {
            reuse += 1;
        }
        if reuse == 0 {
            self.reset_initial_costs(&instance.start);
        } else {
            self.cost
                .copy_from_slice(&self.warm.steps[reuse - 1].frontier);
            obs::add(obs::Counter::GridWarmReuseCells, (reuse * cells) as u64);
        }

        let window = self.axis_windows();
        for (t, step) in instance.steps.iter().enumerate().skip(reuse) {
            obs::incr(obs::Counter::GridSteps);
            let step_span = obs::timer(obs::Hist::GridStepNs);
            let serve_reused = t < self.warm.steps.len()
                && req_bits_match(&self.warm.steps[t].req_bits, &step.requests);
            if serve_reused {
                self.serve.copy_from_slice(&self.warm.steps[t].serve);
                obs::add(obs::Counter::GridWarmReuseCells, cells as u64);
            } else {
                self.fill_service_costs(&step.requests);
            }
            self.run_transition(instance.d, order, kernel, &window);
            step_span.stop();
            std::mem::swap(&mut self.cost, &mut self.next);
            // Re-journal the step: new bits/serve if they diverged, and
            // always the recomputed frontier (the chain up to `t` now
            // describes *this* instance).
            if t < self.warm.steps.len() {
                let entry = &mut self.warm.steps[t];
                if !serve_reused {
                    entry.req_bits = step_req_bits(&step.requests);
                    entry.serve.clear();
                    entry.serve.extend_from_slice(&self.serve);
                }
                entry.frontier.clear();
                entry.frontier.extend_from_slice(&self.cost);
            } else {
                self.warm.steps.push(WarmStep {
                    req_bits: step_req_bits(&step.requests),
                    serve: self.serve.clone(),
                    frontier: self.cost.clone(),
                });
            }
        }
        // A pure prefix re-solve (nothing recomputed) leaves the longer
        // journal intact — its tail is still a trusted extension of the
        // matched prefix. Any recomputation invalidates entries beyond
        // the horizon (their frontiers chained through replaced steps).
        if reuse < horizon {
            self.warm.steps.truncate(horizon);
        }
        self.cost.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Drops the warm-solve journal (and its `O(horizon · cells)`
    /// memory). The next [`GridDp::solve_warm`] runs fully cold.
    pub fn reset_warm(&mut self) {
        self.warm.steps.clear();
        self.warm.order = None;
    }

    /// Radius-pruned neighbor-window DP ([`TransitionKernel::Windowed`]);
    /// kept as the historical name for the exact-equality fast path.
    pub fn solve(&mut self, instance: &Instance<N>, order: ServingOrder) -> f64 {
        self.solve_with(instance, order, TransitionKernel::Windowed)
    }

    /// The original all-pairs transition scan
    /// ([`TransitionKernel::AllPairs`]), retained as the independent
    /// baseline every other kernel is certified against — and as the
    /// "before" side of the DP benchmarks.
    pub fn solve_unpruned(&mut self, instance: &Instance<N>, order: ServingOrder) -> f64 {
        self.solve_with(instance, order, TransitionKernel::AllPairs)
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

    /// One step of the SMAWK min-plus distance transform. See the
    /// [module docs](self) for the decomposition and the exactness
    /// argument; in brief: per (target row, source row) pair, the
    /// reach-constrained candidate matrix — padded on infeasible and
    /// dead entries — is totally monotone (the proof lives on `dt_row`),
    /// so one SMAWK row-minima reduction resolves every target cell's
    /// constrained minimum in `O(n0)` matrix probes. Feasibility is
    /// tested on squared distances against [`sq_reach_threshold`],
    /// bit-faithful to the oracle's `d(j,k) ≤ reach` predicate.
    ///
    /// Target rows are mutually independent — each reads only the frozen
    /// step inputs and writes only its own `next` slice — so the row loop
    /// fans out over the [`msp_analysis::sweep`] pool in contiguous
    /// chunks, one [`DtScratch`] per worker chunk ([`GridDp::set_row_threads`]
    /// sizes the fan). Per-row arithmetic does not depend on the
    /// chunking, so the transition result is bit-identical for every
    /// thread count.
    fn transition_distance_transform(&mut self, d: f64, order: ServingOrder, window: &[usize; N]) {
        let n0 = self.cells_per_axis;
        let cells = self.cost.len();
        let rows = cells / n0;

        // Sequential prologue — transition base costs: what a source
        // contributes before the move term. Mirrors the oracle's
        // expression evaluation order so admitted candidates are priced
        // bit-identically.
        {
            let cost = &self.cost;
            let serve = &self.serve;
            let base = &mut self.base;
            match order {
                ServingOrder::MoveFirst => base.copy_from_slice(cost),
                ServingOrder::AnswerFirst => {
                    for ((b, &c), &sv) in base.iter_mut().zip(cost).zip(serve) {
                        *b = c + sv;
                    }
                }
            }

            // Per-row live-source counts (O(1) dead-row tests) and
            // per-row base minima (the whole-pair skip bound).
            let live = &mut self.row_live;
            let row_min = &mut self.row_min;
            for (r, (live_out, rmin_out)) in live
                .iter_mut()
                .zip(row_min.iter_mut())
                .enumerate()
                .take(rows)
            {
                let sbase = r * n0;
                let mut n_live = 0u32;
                let mut rmin = f64::INFINITY;
                for i in 0..n0 {
                    let b = base[sbase + i];
                    n_live += u32::from(b.is_finite());
                    if b < rmin {
                        rmin = b;
                    }
                }
                *live_out = n_live;
                *rmin_out = rmin;
            }
        }

        for c in self.next.iter_mut() {
            *c = f64::INFINITY;
        }

        // Feasibility thresholds on squared distances. For N ≤ 2 the
        // separable square `Δ0² + C²` is bit-identical to the oracle's
        // left-associated axis sum, so `r2win = r2max` decides
        // feasibility exactly. For N ≥ 3 the separable square may differ
        // from the oracle's sum by reassociation ulps, so the window
        // uses a hair-inflated threshold (a guaranteed superset of the
        // oracle's transition set) and winners re-check with the
        // oracle's own accumulation order before being admitted.
        let r2max = sq_reach_threshold(self.arena.reach);
        let r2win = if N <= 2 { r2max } else { r2max * (1.0 + 1e-12) };

        let threads = msp_analysis::sweep::effective_threads(self.row_threads)
            .min(rows)
            .max(1);
        while self.dt_scratch.len() < threads {
            self.dt_scratch.push(DtScratch::new(n0));
        }

        let ctx = DtStep {
            n0,
            d,
            x0: &self.arena.axis[0][..],
            axis: &self.arena.axis,
            nodes: &self.arena.nodes,
            base: &self.base,
            live: &self.row_live,
            row_min: &self.row_min,
            window,
            r2max,
            r2win,
        };
        let next = &mut self.next[..];
        let dt_scratch = &mut self.dt_scratch[..];

        if threads <= 1 {
            let scratch = &mut dt_scratch[0];
            for (rt, nrow) in next.chunks_mut(n0).enumerate() {
                dt_row(&ctx, rt, nrow, scratch);
            }
        } else {
            // Contiguous row chunks, one per worker, each with its own
            // scratch — the fan-out shape the sweep pool serves without a
            // per-step spawn/join barrier.
            let per = rows.div_ceil(threads);
            let mut items: Vec<(usize, &mut [f64], &mut DtScratch)> = next
                .chunks_mut(per * n0)
                .zip(dt_scratch.iter_mut())
                .enumerate()
                .map(|(c, (chunk, scratch))| (c * per, chunk, scratch))
                .collect();
            msp_analysis::sweep::parallel_for_each_mut(&mut items, threads, |_, item| {
                let (row0, chunk, scratch) = item;
                for (ri, nrow) in chunk.chunks_mut(ctx.n0).enumerate() {
                    dt_row(&ctx, *row0 + ri, nrow, scratch);
                }
            });
        }

        // Move-First serves from the target cell: add the service term
        // after the min (rounding is monotone, so min-then-add matches
        // the oracle's add-then-min bit for bit; ∞ stays ∞).
        if matches!(order, ServingOrder::MoveFirst) {
            for (nx, &sv) in self.next.iter_mut().zip(self.serve.iter()) {
                *nx += sv;
            }
        }
    }
}

/// A padded candidate-matrix entry: the lexicographic `(class, key)`
/// pair `smawk` minimizes over. Class 0 = live in-window candidate (key
/// = its value), class 1 = reach-infeasible pad, class 2 = dead source;
/// pad keys are index ramps chosen so padding preserves total
/// monotonicity — see `dt_row`'s proof.
type DtEntry = (u8, f64);

/// Strictly-worse on padded entries (lexicographic; ties are *not*
/// worse, so every comparison site keeps the leftmost column).
#[inline]
fn entry_worse(a: DtEntry, b: DtEntry) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// SMAWK row-minima reduction (Aggarwal et al. 1987) over the row
/// arithmetic progression `o, o+s, o+2s, …` (below `n0`) and the column
/// set `cols[col_lo..]`, writing the leftmost argmin column of each row
/// into `argmin[row]`.
///
/// Requires `eval` to be **totally monotone** over the full row range
/// and the given columns: for rows `k1 < k2` and columns `j1 < j2`,
/// `eval(k1,j1) > eval(k1,j2)` implies `eval(k2,j1) > eval(k2,j2)`
/// (with `>` the lexicographic [`DtEntry`] order). Leftmost argmins of
/// such a matrix are nondecreasing in the row, which is what the
/// REDUCE/recurse/interpolate scheme exploits.
///
/// `cols` is a stack-disciplined arena: this call appends its REDUCE
/// survivors above `cols.len()`, lends them to the odd-row recursion,
/// and truncates back before returning — one flat allocation serves the
/// whole `O(log n0)`-deep recursion with at most `2·n0` total entries.
fn smawk<F: Fn(usize, usize) -> DtEntry>(
    eval: &F,
    o: usize,
    s: usize,
    n0: usize,
    cols: &mut Vec<u32>,
    col_lo: usize,
    argmin: &mut [u32],
) {
    let m = (n0 - o).div_ceil(s); // rows in this level's progression
    let col_hi = cols.len();
    // REDUCE: keep at most `m` columns that can still host a row
    // minimum. The stack cell at depth `t` is compared on row `o + s·t`;
    // a strictly-worse top is popped (ties keep the leftmost column).
    for ci in col_lo..col_hi {
        let c = cols[ci];
        loop {
            let depth = cols.len() - col_hi;
            if depth == 0 {
                cols.push(c);
                break;
            }
            let row = o + s * (depth - 1);
            let top = cols[col_hi + depth - 1];
            if entry_worse(eval(row, top as usize), eval(row, c as usize)) {
                cols.pop();
            } else {
                if depth < m {
                    cols.push(c);
                }
                break;
            }
        }
    }
    let reduced_hi = cols.len();
    if m == 1 {
        // The reduction above is exactly a running strict-min scan of
        // the single row: the lone survivor is its leftmost argmin.
        argmin[o] = cols[col_hi];
        cols.truncate(col_hi);
        return;
    }
    // Solve the odd rows (an arithmetic progression again) on the
    // reduced columns, then INTERPOLATE each even row between its odd
    // neighbors' argmins — a single monotone pointer pass, since
    // leftmost argmins are nondecreasing in the row.
    smawk(eval, o + s, 2 * s, n0, cols, col_hi, argmin);
    let mut p = col_hi;
    let mut k = o;
    while k < n0 {
        let stop_col = if k + s < n0 {
            argmin[k + s]
        } else {
            cols[reduced_hi - 1]
        };
        let mut q = p;
        let mut best_col = cols[q];
        let mut best = eval(k, best_col as usize);
        while cols[q] != stop_col {
            q += 1;
            let c = cols[q];
            let e = eval(k, c as usize);
            if entry_worse(best, e) {
                best = e;
                best_col = c;
            }
        }
        argmin[k] = best_col;
        p = q;
        k += 2 * s;
    }
    cols.truncate(col_hi);
}

/// One target row of the distance-transform transition: for every
/// admissible source row of the rest-axis window, one SMAWK row-minima
/// reduction over the pair's padded candidate matrix relaxes the row's
/// costs into `nrow` (the row's slice of the `next` frontier). Pure
/// function of the frozen [`DtStep`] inputs — the unit the row fan
/// parallelizes over.
///
/// # Total monotonicity of the padded candidate matrix
///
/// Fix one (target row `rt`, source row `rs`) pair with rest-axis
/// squared offset `C²`. Targets `k` and sources `j` both index the
/// strictly increasing axis-0 coordinates `x`. The entry fed to
/// [`smawk`] is the lexicographic pair `E(k,j) = (class, key)`:
///
/// * **class 0** — live in-window: `base[j]` finite and the separable
///   squared move `Δ² + C²` (`Δ = x[k] − x[j]`) passes the feasibility
///   threshold `r2win`; `key = base[j] + D·√(Δ² + C²)`.
/// * **class 1** — reach-infeasible pad with a finite `base[j]`:
///   `key = −j` when `j < k` (left of the window), `+j` when `j > k`
///   (right of it; `j = k` is always feasible since `C² ≤ r2win`).
/// * **class 2** — dead source (`base[j] = ∞`): `key = −j`.
///
/// SMAWK needs: for `k1 < k2`, `j1 < j2`, `E(k1,j1) > E(k1,j2)` implies
/// `E(k2,j1) > E(k2,j2)`. Feasibility is *staircase-monotone in `k` at
/// the `f64` level*: for `j ≤ k` the separable square is computed from
/// `Δ ≥ 0`, and IEEE subtraction, squaring of nonnegatives, and the
/// final add are each monotone, so a `j` left-infeasible at `k1` stays
/// left-infeasible at every `k2 > k1 ≥ j`; symmetrically a `j`
/// right-infeasible at `k2` is right-infeasible at every `k1 < k2 ≤ j`,
/// and in-window sources form a contiguous index interval around `k`.
/// Case analysis on the classes at `k1`:
///
/// * **j1 dead** — `E(·,j1) = (2,−j1)` at every row. If `j2` is also
///   dead the premise and conclusion are both `−j1 > −j2`, i.e. always
///   true. Otherwise `j2`'s class is ≤ 1 at every row and the
///   conclusion `(2,·) > (≤1,·)` holds unconditionally.
/// * **j2 dead, j1 not** — premise `(≤1,·) > (2,·)` is false; nothing
///   to show.
/// * **j1 left-pad at k1** (`j1 < k1`, infeasible): by the staircase,
///   `j1` stays left-pad at every `k2 > k1`, so `E(k2,j1) = (1,−j1)`.
///   At `k2`, a live `j2` gives `(1,−j1) > (0,·)` by class; a left-pad
///   `j2` gives `−j1 > −j2`, always true for `j1 < j2`; and a
///   right-pad `j2` at `k2` cannot co-occur with a true premise —
///   right-infeasibility at `k2` propagates down to `k1 < k2`, where
///   the premise would have compared `(1,−j1) > (1,+j2)`, false.
/// * **j1 right-pad at k1** (`j1 > k1`, infeasible): `j2 > j1 > k1`
///   is right of a right-infeasible source, so `j2` is right-infeasible
///   at `k1` too (windows are contiguous), and the premise reads
///   `+j1 > +j2` — false for `j1 < j2`. Nothing to show.
/// * **j1 live at k1, j2 live at k1** — both keys are cone values
///   `g_j(x) = base[j] + D·√((x−x_j)² + C²)`. The difference
///   `g_{j1}(x) − g_{j2}(x)` is nondecreasing in `x` for `x_{j1} <
///   x_{j2}`: its derivative is `D·[s(x−x_{j1}) − s(x−x_{j2})]` with
///   `s(t) = t/√(t²+C²)` increasing, so two cones with the same offset
///   `C` cross at most once. Hence
///   `g_{j1}(x_{k1}) > g_{j2}(x_{k1})` implies the same at
///   `x_{k2} > x_{k1}` in real arithmetic — float rounding can flip
///   only tie-level outcomes, which the exactness contract already
///   absorbs (never below the oracle, ≤ 1e-9 relative). At `k2`, if
///   `j1` has exited `k1`'s window it exits leftward (`j1 ≤ k1 + w`
///   and windows slide right with `k`), becoming `(1,−j1)`: a live
///   `j2` then satisfies the conclusion by class, a left-pad `j2` by
///   `−j1 > −j2`, and a right-pad `j2` is impossible under the premise
///   (it would have been right-infeasible at `k1` already, where `j2`
///   was live). If `j1` is still live at `k2`, then `j2` cannot have
///   left-exited (`j1 < j2` cannot have `j2` left of a window holding
///   `j1`) and cannot have right-exited (right-infeasibility at `k2`
///   propagates down to `k1`, contradicting the live premise) — so
///   `j2` is live too and the cone argument closes the case.
/// * **j1 live at k1, j2 pad at k1** — `j2` infeasible at `k1` with
///   `j1 < j2` live means `j2` is right-pad (`j2 > k1`; a left-pad
///   `j2` would straddle the window), so the premise `(0,·) > (1,·)`
///   is false. Nothing to show.
///
/// In every case the premise survives to `k2` or never held, so the
/// padded matrix is totally monotone and [`smawk`]'s leftmost argmins
/// are correct. A class-0 winner therefore *is* the row-pair's
/// constrained minimum over live in-window sources; a class ≥ 1 winner
/// certifies the window holds no live source and the cell is skipped.
/// For `N ≤ 2` the separable square is bit-identical to the oracle's
/// left-associated axis sum, so the winner's key is already the
/// oracle's candidate value; for `N ≥ 3` the winner re-checks against
/// the oracle's own accumulation order (`r2max`) and the rare
/// ulp-band rejection falls back to an exact scan of the (contiguous)
/// feasible window.
fn dt_row<const N: usize>(
    ctx: &DtStep<'_, N>,
    rt: usize,
    nrow: &mut [f64],
    scratch: &mut DtScratch,
) {
    let DtStep {
        n0,
        d,
        x0,
        axis,
        nodes,
        base,
        live,
        row_min,
        window,
        r2max,
        r2win,
    } = *ctx;
    let DtScratch {
        pair_buf,
        cols,
        argmin,
    } = scratch;

    // Metrics-only tallies, flushed to the registry once per row so the
    // hot sweeps touch no atomics.
    let dt_pairs;
    let mut smawk_rows = 0u64;

    {
        // Decode the target row's rest-axis indices and clamp the
        // per-axis source window (axes 1..N live in row space with
        // stride n0^(i-1)), then collect the admissible source rows.
        let mut t_rest = [0usize; N];
        let mut lo = [0usize; N];
        let mut hi = [0usize; N];
        let mut cur = [0usize; N];
        {
            let mut stride = 1usize;
            for i in 0..N.saturating_sub(1) {
                let ti = (rt / stride) % n0;
                t_rest[i] = ti;
                lo[i] = ti.saturating_sub(window[i + 1]);
                hi[i] = (ti + window[i + 1]).min(n0 - 1);
                cur[i] = lo[i];
                stride *= n0;
            }
        }
        pair_buf.clear();
        // Odometer over the source rows of the rest-axis window (a
        // single pass when N = 1: the line has one row pair). A pair
        // with C² > r2win is wholly infeasible (every move distance
        // is at least C), matching the oracle's per-candidate reach
        // rejections; dead rows are skipped via the prefix counts.
        loop {
            let mut rs = 0usize;
            let mut c2 = 0.0f64;
            {
                let mut stride = 1usize;
                for i in 0..N.saturating_sub(1) {
                    rs += cur[i] * stride;
                    let dx = axis[i + 1][t_rest[i]] - axis[i + 1][cur[i]];
                    c2 += dx * dx;
                    stride *= n0;
                }
            }
            if c2 <= r2win && live[rs] > 0 {
                pair_buf.push((c2, rs));
            }
            // Advance the row odometer.
            let mut i = 0;
            while i < N.saturating_sub(1) {
                cur[i] += 1;
                if cur[i] <= hi[i] {
                    break;
                }
                cur[i] = lo[i];
                i += 1;
            }
            if i == N.saturating_sub(1) {
                break;
            }
        }
        // Nearest rows first: the frontier row tightens early, so the
        // rim pairs usually fail the improvement bound outright.
        pair_buf.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        dt_pairs = pair_buf.len() as u64;

        let tbase = rt * n0;
        for &(c2, rs) in pair_buf.iter() {
            let sbase = rs * n0;
            // Whole-pair skip: every candidate of this pair costs at
            // least the row's cheapest base plus the D·C rest-offset
            // move — if that cannot beat the worst frontier cell, no
            // cell can improve. (Skipping non-improving candidates
            // keeps the DT result within tie-level slop of the
            // oracle, and never below it.)
            let pair_floor = row_min[rs] + d * c2.sqrt();
            let frontier_max = nrow.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if pair_floor >= frontier_max {
                continue;
            }
            smawk_rows += 1;

            // Separable squared move distance (bit-identical to the
            // oracle's sum for N ≤ 2; a window superset otherwise).
            let d2_sep = |j0: usize, k0: usize| -> f64 {
                let dx = x0[k0] - x0[j0];
                dx * dx + c2
            };
            // The oracle's own squared sum, for N ≥ 3 re-checks.
            let d2_exact = |j0: usize, k0: usize| -> f64 {
                let a = &nodes[sbase + j0];
                let b = &nodes[tbase + k0];
                let mut s = 0.0;
                for i in 0..N {
                    let t = a[i] - b[i];
                    s += t * t;
                }
                s
            };
            // Admits `j0` for `k0` iff the oracle would; returns the
            // candidate value (the oracle's expression) or None.
            let admit = |j0: usize, k0: usize| -> Option<f64> {
                if N <= 2 {
                    Some(base[sbase + j0] + d * d2_sep(j0, k0).sqrt())
                } else {
                    let d2 = d2_exact(j0, k0);
                    (d2 <= r2max).then(|| base[sbase + j0] + d * d2.sqrt())
                }
            };

            // The padded candidate matrix — see the function docs for
            // the class/key scheme and its total-monotonicity proof.
            let eval = |k0: usize, j0: usize| -> DtEntry {
                let b = base[sbase + j0];
                if !b.is_finite() {
                    return (2, -(j0 as f64));
                }
                let dx = x0[k0] - x0[j0];
                let d2 = dx * dx + c2;
                if d2 <= r2win {
                    (0, b + d * d2.sqrt())
                } else if j0 < k0 {
                    (1, -(j0 as f64))
                } else {
                    (1, j0 as f64)
                }
            };

            cols.clear();
            cols.extend(0..n0 as u32);
            smawk(&eval, 0, 1, n0, cols, 0, argmin);

            for (k0, nx) in nrow.iter_mut().enumerate() {
                let j0 = argmin[k0] as usize;
                let b = base[sbase + j0];
                if !b.is_finite() {
                    continue; // class-2 winner: the row is locally dead
                }
                let dx = x0[k0] - x0[j0];
                if dx * dx + c2 > r2win {
                    continue; // class-1 winner: no live in-window source
                }
                match admit(j0, k0) {
                    Some(cand) => {
                        if cand < *nx {
                            *nx = cand;
                        }
                    }
                    None => {
                        // N ≥ 3 ulp-band winner: scan the (contiguous)
                        // feasible window exactly, expanding from the
                        // always-feasible center k0.
                        let mut a = k0;
                        while a > 0 && d2_sep(a - 1, k0) <= r2win {
                            a -= 1;
                        }
                        let mut bb = k0;
                        while bb + 1 < n0 && d2_sep(bb + 1, k0) <= r2win {
                            bb += 1;
                        }
                        for jf in a..=bb {
                            if !base[sbase + jf].is_finite() {
                                continue;
                            }
                            if let Some(cand) = admit(jf, k0) {
                                if cand < *nx {
                                    *nx = cand;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    if obs::enabled() {
        obs::incr(obs::Counter::GridDtRows);
        obs::add(obs::Counter::GridDtPairs, dt_pairs);
        obs::add(obs::Counter::GridSmawkRows, smawk_rows);
    }
}

/// Exhaustive DP optimum over a `cells_per_axis`-per-dimension grid
/// covering the instance's bounding box (start + all requests), using the
/// fast [`TransitionKernel::DistanceTransform`] kernel (never below, and
/// within ~1e-12 relative of, the all-pairs oracle — see the
/// [module docs](self)). One-shot wrapper over [`GridDp`]; sweeps solving
/// repeatedly should hold a `GridDp` and reuse its buffers.
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
    GridDp::new(instance, cells_per_axis).solve_with(
        instance,
        order,
        TransitionKernel::DistanceTransform,
    )
}

/// One-shot wrapper over [`TransitionKernel::AllPairs`], the parity
/// oracle of [`grid_optimum`] and of every other kernel.
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

    /// DT may differ from the oracle only by envelope tie-breaking: never
    /// below, and within a hair relative.
    fn assert_dt_parity(dt: f64, oracle: f64, ctx: &str) {
        if oracle.is_finite() {
            assert!(dt >= oracle, "{ctx}: dt {dt} undercuts oracle {oracle}");
            assert!(
                (dt - oracle).abs() <= 1e-9 * (1.0 + oracle.abs()),
                "{ctx}: dt {dt} vs oracle {oracle}"
            );
        } else {
            assert!(dt.is_infinite(), "{ctx}: dt {dt} vs infinite oracle");
        }
    }

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
                let full = dp.solve_with(&inst, order, TransitionKernel::AllPairs);
                let pruned = dp.solve_with(&inst, order, TransitionKernel::Windowed);
                let dt = dp.solve_with(&inst, order, TransitionKernel::DistanceTransform);
                assert_eq!(
                    pruned, full,
                    "{order:?} cells={cells}: windowed {pruned} vs all-pairs {full}"
                );
                assert_dt_parity(dt, full, &format!("{order:?} cells={cells}"));
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
                let full = dp.solve_with(&inst, order, TransitionKernel::AllPairs);
                let pruned = dp.solve_with(&inst, order, TransitionKernel::Windowed);
                let dt = dp.solve_with(&inst, order, TransitionKernel::DistanceTransform);
                assert_eq!(
                    pruned, full,
                    "{order:?} cells={cells}: windowed {pruned} vs all-pairs {full}"
                );
                assert_dt_parity(dt, full, &format!("{order:?} cells={cells}"));
            }
        }
    }

    #[test]
    fn reused_solver_matches_one_shot_wrappers() {
        // One GridDp, solved repeatedly across both orders and every
        // kernel: every reuse must reproduce the fresh-solver result
        // exactly (buffer hoisting is a pure allocation optimization).
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
                let reused_full = dp.solve_with(&inst, order, TransitionKernel::AllPairs);
                let fresh_full = grid_optimum_unpruned(&inst, 17, order);
                assert_eq!(reused_full, fresh_full, "{order:?} all-pairs");
                let reused = dp.solve_with(&inst, order, TransitionKernel::Windowed);
                assert_eq!(reused, reused_full, "{order:?} windowed vs all-pairs");
                let reused_dt = dp.solve_with(&inst, order, TransitionKernel::DistanceTransform);
                let fresh_dt = grid_optimum(&inst, 17, order);
                assert_eq!(reused_dt, fresh_dt, "{order:?} distance transform");
            }
        }
    }

    #[test]
    fn kernels_agree_with_large_request_sets() {
        // More requests than the kernel block width: the shared SoA
        // service scan keeps every kernel on identical per-node service
        // values, so windowed/all-pairs equality is exact even past the
        // chunk boundary (and DT stays within tie-breaking).
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
            let full = dp.solve_with(&inst, order, TransitionKernel::AllPairs);
            let pruned = dp.solve_with(&inst, order, TransitionKernel::Windowed);
            let dt = dp.solve_with(&inst, order, TransitionKernel::DistanceTransform);
            assert_eq!(pruned, full, "{order:?}");
            assert_dt_parity(dt, full, &format!("{order:?}"));
        }
    }

    #[test]
    fn warm_prefix_solves_are_bit_equal_to_cold() {
        let steps: Vec<Step<2>> = (0..10)
            .map(|t| {
                let a = 0.7 * t as f64;
                Step::new(vec![P2::xy(a.cos(), a.sin()), P2::xy(0.3 * a.cos(), -0.5)])
            })
            .collect();
        let inst = Instance::new(2.0, 0.5, P2::origin(), steps);
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            for kernel in TransitionKernel::ALL {
                let mut warm_dp = GridDp::new(&inst, 15);
                let mut cold_dp = GridDp::new(&inst, 15);
                for t in [3usize, 5, 5, 8, 10, 4, 10] {
                    let prefix = inst.prefix(t);
                    let warm = warm_dp.solve_warm(&prefix, order, kernel);
                    cold_dp.reset_warm();
                    let cold = cold_dp.solve_warm(&prefix, order, kernel);
                    assert_eq!(
                        warm.to_bits(),
                        cold.to_bits(),
                        "{order:?} {kernel:?} T={t}: warm {warm} vs cold {cold}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_solve_survives_kernel_and_order_switches() {
        // Switching kernel or order must invalidate the journal (tie
        // bits differ between kernels), never silently reuse it.
        let steps: Vec<Step<2>> = (0..6)
            .map(|t| Step::single(P2::xy(t as f64 * 0.3, 1.0 - t as f64 * 0.2)))
            .collect();
        let inst = Instance::new(1.5, 0.4, P2::origin(), steps);
        let mut dp = GridDp::new(&inst, 13);
        for (order, kernel) in [
            (ServingOrder::MoveFirst, TransitionKernel::DistanceTransform),
            (
                ServingOrder::AnswerFirst,
                TransitionKernel::DistanceTransform,
            ),
            (ServingOrder::MoveFirst, TransitionKernel::Windowed),
            (ServingOrder::MoveFirst, TransitionKernel::DistanceTransform),
        ] {
            let warm = dp.solve_warm(&inst, order, kernel);
            let cold = GridDp::new(&inst, 13).solve_with(&inst, order, kernel);
            assert_eq!(warm.to_bits(), cold.to_bits(), "{order:?} {kernel:?}");
        }
    }

    #[test]
    fn window_never_excludes_reachable_cells_with_large_budget() {
        // Budget larger than the whole arena: the window clamps to the
        // full grid and every kernel must still agree with the all-pairs
        // scan.
        let steps = vec![
            Step::single(P2::xy(1.0, 1.0)),
            Step::single(P2::xy(-1.0, 0.5)),
        ];
        let inst = Instance::new(1.0, 50.0, P2::origin(), steps);
        let mut dp = GridDp::new(&inst, 13);
        let full = dp.solve_with(&inst, ServingOrder::MoveFirst, TransitionKernel::AllPairs);
        let pruned = dp.solve_with(&inst, ServingOrder::MoveFirst, TransitionKernel::Windowed);
        let dt = dp.solve_with(
            &inst,
            ServingOrder::MoveFirst,
            TransitionKernel::DistanceTransform,
        );
        assert_eq!(pruned, full);
        assert_dt_parity(dt, full, "large budget");
    }
}
