//! Live lower bounds on the offline optimum for streaming sessions.
//!
//! A streaming session knows its own cost at every step, but the
//! competitive-ratio *denominator* — the offline optimum of the prefix
//! seen so far — normally requires an offline pass the session cannot
//! afford. [`RatioProbe`] maintains an incremental **lower bound** on
//! that optimum online, so a live session can report a valid *upper
//! bound on its competitive ratio* (`alg_cost / opt_lower_bound`) each
//! block without replaying anything.
//!
//! Two bound families are combined (the reported value is their running
//! maximum, hence monotone nondecreasing):
//!
//! * **Per-axis projection bounds** — one [`IncrementalLineOpt`] per
//!   coordinate axis tracks the exact 1-D optimum of the *projected*
//!   stream. Projection onto an axis is 1-Lipschitz: an optimal N-D
//!   trajectory projects to a feasible 1-D trajectory (per-step moves
//!   shrink, so the `≤ m` limit still holds) whose movement and service
//!   costs only shrink (`‖a − b‖ ≥ |aᵢ − bᵢ|`). The exact 1-D optimum of
//!   the projection therefore never exceeds the N-D optimum. For `N = 1`
//!   the projection is the identity and the bound **is** the exact
//!   offline optimum of the prefix.
//!
//! * **Windowed deflated grid DP** (`N ≥ 2`) — the stream is cut into
//!   disjoint windows of [`ProbeOptions::grid_block`] steps; for each
//!   closed window a small DP over a `cellsᴺ` grid on the window's
//!   request bounding box computes a certified lower bound on the cost
//!   *any* feasible trajectory incurs inside the window, and the bounds
//!   add up across windows. Soundness: project OPT's trajectory onto the
//!   box (1-Lipschitz, and every request of the window lies in the box,
//!   so neither movement nor service grows), then snap each projected
//!   position to the nearest grid node — at most `snap` away, where
//!   `snap = 0.51·‖cell diagonal‖` over-covers the true `0.5·‖diag‖`
//!   snapping radius with float margin. The snapped node trajectory has
//!   per-step moves of at most `m + 2·snap`, its *deflated* movement
//!   cost `D·max(0, dist − 2·snap)` never exceeds OPT's movement, and
//!   its *deflated* service cost `Σ_v max(0, d(node, v) − snap)` never
//!   exceeds OPT's service. With a **free start** (cost 0 at every node,
//!   since OPT may enter the window anywhere) the DP minimum is a valid
//!   lower bound on OPT's in-window cost.
//!
//! Both bounds are *observational*: the probe is fed the same request
//! stream the session consumes and never influences a decision, per the
//! observability tier's read-only contract (see `docs/OBSERVABILITY.md`).

use crate::line::IncrementalLineOpt;
use msp_analysis::obs;
use msp_core::algorithm::OnlineAlgorithm;
use msp_core::cost::ServingOrder;
use msp_core::model::{Step, StreamParams};
use msp_core::simulator::{StreamRunResult, StreamingSim};
use msp_geometry::Point;

/// Node-count ceiling for the windowed grid DP: `cellsᴺ` is clamped so a
/// per-step all-pairs relaxation stays a micro-job even at `N = 3`.
const MAX_GRID_NODES: usize = 1024;

/// Tuning knobs for [`RatioProbe`].
#[derive(Clone, Copy, Debug)]
pub struct ProbeOptions {
    /// Steps per deflated-DP window; a window's bound is committed when
    /// it closes, so smaller blocks bound sooner but deflate more (the
    /// free start forgives OPT once per window).
    pub grid_block: usize,
    /// Grid cells per axis for the windowed DP (clamped so the node
    /// count stays ≤ 1024). More cells → finer grid → smaller `snap`
    /// deflation → tighter bound, at quadratic node-count cost.
    pub grid_cells: usize,
    /// Whether to run the windowed grid DP at all (`N ≥ 2` only; the
    /// line's projection bound is already exact).
    pub use_grid: bool,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        ProbeOptions {
            grid_block: 32,
            grid_cells: 9,
            use_grid: true,
        }
    }
}

/// One telemetry sample of a probed streaming run: the session's cost so
/// far against the certified lower bound on the offline optimum.
#[derive(Clone, Copy, Debug)]
pub struct RatioSample {
    /// Steps consumed when the sample was taken.
    pub step: usize,
    /// The online algorithm's accumulated cost.
    pub alg_cost: f64,
    /// Lower bound on the offline optimum of the same prefix.
    pub lower_bound: f64,
}

impl RatioSample {
    /// `alg_cost / lower_bound` — a valid **upper bound** on the
    /// session's competitive ratio so far. `None` until the lower bound
    /// becomes positive.
    pub fn ratio(&self) -> Option<f64> {
        (self.lower_bound > 0.0).then(|| self.alg_cost / self.lower_bound)
    }
}

/// Incremental lower bound on the offline optimum of a request stream.
///
/// Feed it every step with [`RatioProbe::observe_step`];
/// [`RatioProbe::lower_bound`] is monotone nondecreasing and never
/// exceeds the true offline optimum of the prefix observed so far
/// (exact for `N = 1`). See the [module docs](self) for the two bound
/// families and their soundness arguments.
#[derive(Clone, Debug)]
pub struct RatioProbe<const N: usize> {
    d: f64,
    m: f64,
    order: ServingOrder,
    opts: ProbeOptions,
    /// One exact 1-D tracker per coordinate axis.
    axis: Vec<IncrementalLineOpt>,
    /// Projection scratch, reused across steps.
    proj: Vec<f64>,
    /// Deflated-DP machinery (`None` when the grid bound is off).
    grid: Option<GridBound<N>>,
    /// Requests of the currently open window.
    window: Vec<Vec<Point<N>>>,
    /// Committed sum of closed-window DP bounds.
    grid_closed: f64,
    steps: usize,
    /// Running max of all bounds — the reported value.
    best: f64,
}

impl<const N: usize> RatioProbe<N> {
    /// Builds a probe for a stream with the given parameters and serving
    /// order. The bound targets the *unaugmented* offline optimum
    /// (movement limit `m`), which is the competitive-ratio denominator
    /// even when the online run enjoys `(1+δ)m`.
    pub fn new(params: &StreamParams<N>, order: ServingOrder, opts: ProbeOptions) -> Self {
        let axis = (0..N)
            .map(|i| IncrementalLineOpt::new(params.d, params.max_move, params.start[i], order))
            .collect();
        let grid = (opts.use_grid && N >= 2 && opts.grid_block > 0)
            .then(|| GridBound::new(opts.grid_cells));
        RatioProbe {
            d: params.d,
            m: params.max_move,
            order,
            opts,
            axis,
            proj: Vec::new(),
            grid,
            window: Vec::new(),
            grid_closed: 0.0,
            steps: 0,
            best: 0.0,
        }
    }

    /// Observes one step's requests (the same slice the session serves).
    /// Read-only with respect to the session: nothing computed here ever
    /// feeds back into a decision.
    pub fn observe_step(&mut self, requests: &[Point<N>]) {
        let span = obs::timer(obs::Hist::ProbeBoundNs);
        self.steps += 1;
        for (i, tracker) in self.axis.iter_mut().enumerate() {
            self.proj.clear();
            self.proj.extend(requests.iter().map(|r| r[i]));
            tracker.push_step(&self.proj);
        }
        if let Some(grid) = &mut self.grid {
            self.window.push(requests.to_vec());
            if self.window.len() >= self.opts.grid_block {
                let bound = grid.window_bound(self.d, self.m, self.order, &self.window);
                self.grid_closed += bound;
                self.window.clear();
                obs::incr(obs::Counter::ProbeGridBounds);
            }
        }
        let axis_best = self
            .axis
            .iter()
            .map(IncrementalLineOpt::current_opt)
            .fold(0.0f64, f64::max);
        self.best = self.best.max(axis_best).max(self.grid_closed);
        span.stop();
    }

    /// Steps observed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The current lower bound on the offline optimum of the observed
    /// prefix: the running maximum of the per-axis projection optima and
    /// the accumulated closed-window DP bounds. Monotone nondecreasing;
    /// exact for `N = 1`.
    pub fn lower_bound(&self) -> f64 {
        self.best
    }
}

/// Scratch and arena for the windowed deflated grid DP; buffers are
/// reused across windows (allocation-free after the first).
#[derive(Clone, Debug)]
struct GridBound<const N: usize> {
    cells: usize,
    nodes: Vec<Point<N>>,
    serve: Vec<f64>,
    cost: Vec<f64>,
    next: Vec<f64>,
}

impl<const N: usize> GridBound<N> {
    fn new(cells: usize) -> Self {
        // Clamp cellsᴺ to the node ceiling (at least 2 per axis).
        let mut cells = cells.max(2);
        while cells > 2 && cells.pow(N as u32) > MAX_GRID_NODES {
            cells -= 1;
        }
        GridBound {
            cells,
            nodes: Vec::new(),
            serve: Vec::new(),
            cost: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Certified lower bound on the cost any `m`-feasible trajectory
    /// incurs over the window's steps (free start). See the
    /// [module docs](self) for the deflation argument.
    fn window_bound(
        &mut self,
        d: f64,
        m: f64,
        order: ServingOrder,
        window: &[Vec<Point<N>>],
    ) -> f64 {
        // Bounding box of every request in the window.
        let mut lo = [f64::INFINITY; N];
        let mut hi = [f64::NEG_INFINITY; N];
        let mut any = false;
        for step in window {
            for r in step {
                any = true;
                for i in 0..N {
                    lo[i] = lo[i].min(r[i]);
                    hi[i] = hi[i].max(r[i]);
                }
            }
        }
        if !any {
            return 0.0; // A request-free window costs OPT nothing.
        }

        // Grid geometry over the box; `snap` over-covers the worst
        // distance from a box point to its nearest node (half the cell
        // diagonal).
        let cells = self.cells;
        let mut spacing = [0.0f64; N];
        let mut diag_sq = 0.0;
        for i in 0..N {
            spacing[i] = (hi[i] - lo[i]) / (cells - 1) as f64;
            diag_sq += spacing[i] * spacing[i];
        }
        let snap = 0.51 * diag_sq.sqrt();
        let node_count = cells.pow(N as u32);

        self.nodes.clear();
        self.nodes.reserve(node_count);
        let mut idx = [0usize; N];
        loop {
            let mut p = Point::<N>::default();
            for i in 0..N {
                p[i] = lo[i] + spacing[i] * idx[i] as f64;
            }
            self.nodes.push(p);
            let mut i = 0;
            while i < N {
                idx[i] += 1;
                if idx[i] < cells {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
            if i == N {
                break;
            }
        }

        // Free start: OPT may enter the window anywhere.
        self.cost.clear();
        self.cost.resize(node_count, 0.0);
        self.next.resize(node_count, 0.0);
        self.serve.resize(node_count, 0.0);

        let reach = m + 2.0 * snap;
        for step in window {
            // Deflated service cost per node.
            for (sv, node) in self.serve.iter_mut().zip(&self.nodes) {
                *sv = step
                    .iter()
                    .map(|r| (node.distance(r) - snap).max(0.0))
                    .sum();
            }
            // Deflated all-pairs relaxation.
            for (k, nk) in self.nodes.iter().enumerate() {
                let mut best = f64::INFINITY;
                for (j, nj) in self.nodes.iter().enumerate() {
                    let dist = nj.distance(nk);
                    if dist > reach {
                        continue;
                    }
                    let mv = d * (dist - 2.0 * snap).max(0.0);
                    let c = match order {
                        ServingOrder::MoveFirst => self.cost[j] + mv + self.serve[k],
                        ServingOrder::AnswerFirst => self.cost[j] + self.serve[j] + mv,
                    };
                    if c < best {
                        best = c;
                    }
                }
                self.next[k] = best;
            }
            std::mem::swap(&mut self.cost, &mut self.next);
        }
        self.cost.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Drives a [`StreamingSim`] over `steps` with a [`RatioProbe`] riding
/// along, emitting a [`RatioSample`] every `sample_every` steps (and a
/// final one at stream end). Returns the finished run result and the
/// sample log. The probe observes the same requests the session serves
/// and never alters a decision, so the run result is bit-identical to an
/// unprobed [`StreamingSim`] session.
pub fn run_streaming_probed<const N: usize, A, I>(
    params: &StreamParams<N>,
    steps: I,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
    opts: ProbeOptions,
    sample_every: usize,
) -> (StreamRunResult<N>, Vec<RatioSample>)
where
    A: OnlineAlgorithm<N>,
    I: IntoIterator<Item = Step<N>>,
{
    assert!(sample_every > 0, "sample cadence must be positive");
    let mut sim = StreamingSim::new(params, algorithm, delta, order);
    let mut probe = RatioProbe::new(params, order, opts);
    let mut samples = Vec::new();
    let mut since_sample = 0usize;
    for step in steps {
        probe.observe_step(&step.requests);
        sim.feed(&step);
        since_sample += 1;
        if since_sample >= sample_every {
            since_sample = 0;
            samples.push(sample(&probe, sim.total_cost()));
        }
    }
    if since_sample > 0 || samples.is_empty() {
        samples.push(sample(&probe, sim.total_cost()));
    }
    (sim.finish(), samples)
}

fn sample<const N: usize>(probe: &RatioProbe<N>, alg_cost: f64) -> RatioSample {
    let s = RatioSample {
        step: probe.steps(),
        alg_cost,
        lower_bound: probe.lower_bound(),
    };
    obs::incr(obs::Counter::ProbeBlocks);
    if let Some(r) = s.ratio() {
        if r.is_finite() && r >= 0.0 {
            obs::record(obs::Hist::ProbeRatioPermille, (r * 1000.0) as u64);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::grid_optimum;
    use crate::line::solve_line;
    use msp_core::model::Instance;
    use msp_core::mtc::MoveToCenter;
    use msp_geometry::{P1, P2};

    fn line_instance(seed: u64, t: usize) -> Instance<1> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let steps = (0..t)
            .map(|_| Step {
                requests: vec![
                    P1::new([20.0 * next() - 10.0]),
                    P1::new([20.0 * next() - 10.0]),
                ],
            })
            .collect();
        Instance {
            d: 3.0,
            max_move: 0.75,
            start: P1::new([0.0]),
            steps,
        }
    }

    fn plane_instance(t: usize) -> Instance<2> {
        // Requests alternate between far corners: OPT must pay real
        // movement or service, so the window bounds have signal.
        let steps = (0..t)
            .map(|k| Step {
                requests: vec![if k % 2 == 0 {
                    P2::xy(0.0, 0.0)
                } else {
                    P2::xy(8.0, 6.0)
                }],
            })
            .collect();
        Instance {
            d: 2.0,
            max_move: 0.5,
            start: P2::xy(4.0, 3.0),
            steps,
        }
    }

    #[test]
    fn line_probe_matches_the_exact_offline_optimum() {
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let inst = line_instance(7, 40);
            let mut probe = RatioProbe::<1>::new(&inst.params(), order, ProbeOptions::default());
            for step in &inst.steps {
                probe.observe_step(&step.requests);
            }
            let exact = solve_line(&inst, order).cost;
            assert!(
                (probe.lower_bound() - exact).abs() <= 1e-9 * exact.max(1.0),
                "1-D probe bound {} should equal exact OPT {exact}",
                probe.lower_bound()
            );
        }
    }

    #[test]
    fn lower_bound_is_monotone_nondecreasing() {
        let inst = plane_instance(100);
        let mut probe = RatioProbe::<2>::new(
            &inst.params(),
            ServingOrder::MoveFirst,
            ProbeOptions {
                grid_block: 16,
                ..ProbeOptions::default()
            },
        );
        let mut prev = 0.0;
        for step in &inst.steps {
            probe.observe_step(&step.requests);
            let lb = probe.lower_bound();
            assert!(lb >= prev, "bound regressed: {lb} < {prev}");
            prev = lb;
        }
        assert!(prev > 0.0, "2-D bound stayed trivial");
    }

    #[test]
    fn plane_bound_never_exceeds_a_certified_upper_bound_on_opt() {
        // grid_optimum restricts OPT's positions, so it is ≥ OPT ≥ probe.
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let inst = plane_instance(48);
            let mut probe = RatioProbe::<2>::new(
                &inst.params(),
                order,
                ProbeOptions {
                    grid_block: 12,
                    ..ProbeOptions::default()
                },
            );
            for step in &inst.steps {
                probe.observe_step(&step.requests);
            }
            let upper = grid_optimum(&inst, 21, order);
            assert!(
                probe.lower_bound() <= upper * (1.0 + 1e-9),
                "probe bound {} exceeds certified upper bound {upper} ({order:?})",
                probe.lower_bound()
            );
            assert!(probe.lower_bound() > 0.0);
        }
    }

    #[test]
    fn probed_run_emits_samples_and_matches_unprobed_totals() {
        let inst = plane_instance(40);
        let params = inst.params();
        let (probed, samples) = run_streaming_probed(
            &params,
            inst.steps.iter().cloned(),
            MoveToCenter::default(),
            0.25,
            ServingOrder::MoveFirst,
            ProbeOptions {
                grid_block: 10,
                ..ProbeOptions::default()
            },
            8,
        );
        let mut sim = StreamingSim::new(
            &params,
            MoveToCenter::default(),
            0.25,
            ServingOrder::MoveFirst,
        );
        for step in &inst.steps {
            sim.feed(step);
        }
        let plain = sim.finish();
        assert_eq!(probed.movement.to_bits(), plain.movement.to_bits());
        assert_eq!(probed.service.to_bits(), plain.service.to_bits());
        assert_eq!(samples.last().unwrap().step, 40);
        // Samples are monotone in both coordinates.
        for w in samples.windows(2) {
            assert!(w[1].alg_cost >= w[0].alg_cost);
            assert!(w[1].lower_bound >= w[0].lower_bound);
        }
        // The final ratio is a nontrivial upper bound.
        let last = samples.last().unwrap();
        let ratio = last.ratio().expect("final lower bound should be positive");
        assert!(ratio.is_finite() && ratio >= 1.0 - 1e-9);
    }
}
