//! Shared experiment plumbing: scales, ratio computations, seed fans.
//!
//! Seed fans run through [`msp_analysis::sweep::parallel_map_indexed`], so
//! a `mean_over_seeds` call inside an already-parallel δ sweep fills all
//! cores instead of serializing the inner loop; δ sweeps over a *fixed*
//! instance should go through [`batch_line_ratios`], which prices every δ
//! in one simulator pass ([`msp_core::simulator::run_batch`]) against a
//! single offline-optimum solve. Fans whose per-seed work ends with a
//! reusable warm state (an N-D Move-to-Center run, say) should use
//! [`warm_seed_fan`] / [`mean_over_seeds_warm`], which chain the previous
//! instance's final solver state into the next instance's first decision
//! — the cross-lane δ-seeding discipline applied across the fan.

use msp_analysis::bootstrap_mean_ci;
use msp_analysis::sweep::parallel_map_indexed;
use msp_core::algorithm::OnlineAlgorithm;
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_core::ratio::competitive_ratio;
use msp_core::simulator::{run, run_batch_with, run_with_warm_hint, BatchOptions, StreamingSim};
use msp_offline::convex::{ConvexSolver, ConvexSolverOptions};
use msp_offline::grid::{GridDp, TransitionKernel};
use msp_offline::line::{solve_line, IncrementalLineOpt};

/// How big the experiment should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for Criterion wrappers and CI smoke runs.
    Smoke,
    /// Default sizes: seconds per experiment, shapes clearly visible.
    Quick,
    /// Publication sizes: minutes per experiment.
    Full,
}

impl Scale {
    /// Multiplies a base horizon by the scale's factor.
    pub fn horizon(&self, base: usize) -> usize {
        match self {
            Scale::Smoke => (base / 8).max(16),
            Scale::Quick => base,
            Scale::Full => base * 4,
        }
    }

    /// Number of random seeds to average adversary coins over.
    pub fn seeds(&self) -> u64 {
        match self {
            Scale::Smoke => 4,
            Scale::Quick => 12,
            Scale::Full => 32,
        }
    }

    /// Convex-solver options appropriate for the scale.
    pub fn solver_options(&self) -> ConvexSolverOptions {
        match self {
            Scale::Smoke => ConvexSolverOptions {
                smoothing_stages: 3,
                iters_per_stage: 40,
                polish_sweeps: 8,
                ..Default::default()
            },
            Scale::Quick => ConvexSolverOptions::fast(),
            Scale::Full => ConvexSolverOptions::default(),
        }
    }
}

/// Total cost of running `alg` on `instance` with augmentation `delta`.
pub fn alg_cost<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    alg: &mut A,
    delta: f64,
    order: ServingOrder,
) -> f64 {
    run(instance, alg, delta, order).total_cost()
}

/// Competitive ratio of `alg` against the **exact** line optimum.
pub fn line_ratio<A: OnlineAlgorithm<1>>(
    instance: &Instance<1>,
    alg: &mut A,
    delta: f64,
    order: ServingOrder,
) -> f64 {
    let opt = solve_line(instance, order).cost;
    competitive_ratio(alg_cost(instance, alg, delta, order), opt)
}

/// Competitive ratio of `alg` against the convex-solver optimum estimate
/// (an upper bound on OPT, so the reported ratio is a lower bound on the
/// true one — conservative in the right direction for upper-bound
/// experiments is the *reverse*; the solver gap is documented per run).
pub fn convex_ratio<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    alg: &mut A,
    delta: f64,
    order: ServingOrder,
    opts: ConvexSolverOptions,
) -> f64 {
    let opt = ConvexSolver::with_options(opts).solve(instance, order).cost;
    competitive_ratio(alg_cost(instance, alg, delta, order), opt)
}

/// [`convex_ratio`] with a cross-instance warm hint for the online side
/// (see [`msp_core::simulator::run_with_warm_hint`]): the building block
/// of warm-chained seed fans over N-D instances, where the previous
/// instance's converged solver state seeds the next run's first decision.
/// The OPT side is unaffected (the convex solver prices the instance, not
/// the algorithm). `warm = None` is exactly [`convex_ratio`].
pub fn convex_ratio_warm<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    alg: &mut A,
    warm: Option<&A>,
    delta: f64,
    order: ServingOrder,
    opts: ConvexSolverOptions,
) -> f64 {
    let opt = ConvexSolver::with_options(opts).solve(instance, order).cost;
    let cost = run_with_warm_hint(instance, alg, warm, delta, order).total_cost();
    competitive_ratio(cost, opt)
}

/// Mean and bootstrap 95% CI of `f(seed)` over `seeds` seeds, fanning the
/// seeds out over all cores.
pub fn mean_over_seeds(seeds: u64, f: impl Fn(u64) -> f64 + Sync) -> SeedStats {
    let seed_list: Vec<u64> = (0..seeds).collect();
    let values = parallel_map_indexed(&seed_list, 0, |_, &seed| f(seed));
    stats_from_values(&values)
}

/// A seed fan with **cross-instance warm chaining**: seeds are split into
/// `lanes` contiguous chunks (0 = the sweep pool size), chunks run
/// concurrently, and *within* a chunk each call receives the warm state
/// `S` returned by the previous seed — typically the finished algorithm
/// value, handed to the next instance's run via
/// [`msp_core::simulator::run_with_warm_hint`]. This is the cross-lane
/// δ-seeding discipline of `run_batch` applied across the instances of a
/// fan: seed-adjacent instances of one generator family drift similarly,
/// so the previous instance's converged solver state collapses the next
/// instance's cold start to a verification pass.
///
/// The first seed of every chunk runs cold (`None`), so `lanes` is part
/// of the reproducibility contract: results are deterministic for a fixed
/// `lanes` — the chunk shape is resolved from `lanes` and the stable
/// [`msp_analysis::sweep::pool_threads`] value alone, never from where
/// the call happens to run, so a fan nested inside another sweep chains
/// exactly like the same fan at top level (only its execution collapses
/// to the current worker). Experiments that publish tables should pin
/// `lanes` (e.g. to 1) rather than inherit the machine's pool size.
/// Hints are numerics, never policy — values agree with the unchained
/// fan to solver tolerance (pinned by tests). Values are returned in
/// seed order.
pub fn warm_seed_fan<S: Send>(
    seeds: u64,
    lanes: usize,
    f: impl Fn(u64, Option<&S>) -> (f64, S) + Sync,
) -> Vec<f64> {
    let n = seeds as usize;
    if n == 0 {
        return Vec::new();
    }
    let lanes = if lanes == 0 {
        msp_analysis::sweep::pool_threads()
    } else {
        lanes
    }
    .min(n)
    .max(1);
    let per = n.div_ceil(lanes);
    let chunks: Vec<(u64, u64)> = (0..n as u64)
        .step_by(per)
        .map(|s0| (s0, (s0 + per as u64).min(seeds)))
        .collect();
    let fanned = parallel_map_indexed(&chunks, lanes, |_, &(s0, s1)| {
        let mut values = Vec::with_capacity((s1 - s0) as usize);
        let mut warm: Option<S> = None;
        for seed in s0..s1 {
            let (value, state) = f(seed, warm.as_ref());
            values.push(value);
            warm = Some(state);
        }
        values
    });
    fanned.into_iter().flatten().collect()
}

/// [`SeedStats`] of a [`warm_seed_fan`] — the warm-chained counterpart of
/// [`mean_over_seeds`] for fans whose per-seed work ends with a reusable
/// warm state.
pub fn mean_over_seeds_warm<S: Send>(
    seeds: u64,
    lanes: usize,
    f: impl Fn(u64, Option<&S>) -> (f64, S) + Sync,
) -> SeedStats {
    stats_from_values(&warm_seed_fan(seeds, lanes, f))
}

/// [`SeedStats`] of an already-computed sample (mean + bootstrap 95% CI).
///
/// # Panics
/// Panics on an empty sample.
pub fn stats_from_values(values: &[f64]) -> SeedStats {
    assert!(!values.is_empty(), "stats of empty sample");
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let (lo, hi) = if values.len() >= 2 {
        bootstrap_mean_ci(values, 300, 0.95, 0xB00B5)
    } else {
        (mean, mean)
    };
    SeedStats {
        mean,
        ci_lo: lo,
        ci_hi: hi,
    }
}

/// Competitive ratios of `algorithm` at every `δ ∈ deltas` on one line
/// instance, against a **single** exact-OPT solve, with all δ trajectories
/// simulated in one batched pass. Equivalent to calling [`line_ratio`] per
/// δ, at roughly `1/deltas.len()` of the OPT cost plus the batched
/// simulation savings.
///
/// Runs under [`BatchOptions::strict`]: published experiment tables must
/// be bit-reproducible across machines, so the core-count-dependent lane
/// grouping and cross-lane seeding of the default engine are disabled
/// (on the line the median is solved exactly without iteration, so
/// seeding would buy nothing here anyway).
pub fn batch_line_ratios<A: OnlineAlgorithm<1> + Clone + Send>(
    instance: &Instance<1>,
    algorithm: &A,
    deltas: &[f64],
    order: ServingOrder,
) -> Vec<f64> {
    let opt = solve_line(instance, order).cost;
    run_batch_with(
        instance,
        algorithm,
        deltas,
        &[order],
        BatchOptions::strict(),
    )
    .into_iter()
    .map(|res| competitive_ratio(res.total_cost(), opt))
    .collect()
}

/// Competitive ratios of `algorithm` at every prefix horizon in `marks`
/// (ascending, each ≤ the instance horizon) in **one** pass: the
/// simulation streams forward while [`IncrementalLineOpt`] tracks the
/// exact optimum-so-far, so the per-prefix from-scratch OPT re-solves of
/// a horizon sweep disappear. Agrees exactly with [`line_ratio`] on
/// separately materialized prefix instances (online decisions and the PWL
/// DP are both causal) — pinned by tests.
///
/// # Panics
/// Panics when `marks` is not strictly ascending or exceeds the horizon.
pub fn prefix_line_ratios<A: OnlineAlgorithm<1>>(
    instance: &Instance<1>,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
    marks: &[usize],
) -> Vec<f64> {
    assert!(
        marks.windows(2).all(|w| w[0] < w[1]),
        "prefix marks must be strictly ascending"
    );
    assert!(
        marks.last().is_none_or(|&t| t <= instance.horizon()),
        "prefix mark beyond the horizon"
    );
    let mut sim = StreamingSim::new(&instance.params(), algorithm, delta, order);
    let mut opt = IncrementalLineOpt::new(instance.d, instance.max_move, instance.start.x(), order);
    let mut out = Vec::with_capacity(marks.len());
    let mut next_mark = marks.iter().copied().peekable();
    for step in &instance.steps {
        if next_mark.peek().is_none() {
            break;
        }
        sim.feed(step);
        let reqs: Vec<f64> = step.requests.iter().map(|v| v.x()).collect();
        opt.push_step(&reqs);
        if next_mark.peek() == Some(&sim.steps()) {
            next_mark.next();
            out.push(competitive_ratio(sim.total_cost(), opt.current_opt()));
        }
    }
    assert_eq!(out.len(), marks.len(), "marks beyond the processed prefix");
    out
}

/// N-dimensional analogue of [`prefix_line_ratios`]: competitive ratios
/// of `algorithm` at every prefix horizon in `marks`, with the OPT
/// denominator priced by **one** warm grid DP
/// ([`msp_offline::grid::GridDp::solve_warm`]) whose journal
/// fast-forwards through the steps shared with the previous mark — so a
/// horizon sweep pays for each step's DP transition once instead of once
/// per mark. The arena covers the *full* instance's bounding box, the
/// same geometry a single covering solver would use for every prefix,
/// and the warm journal's bit-equality contract makes each mark's OPT
/// bit-identical to a cold [`GridDp::solve_warm`] of that prefix on the
/// same arena — pinned by tests.
///
/// # Panics
/// Panics when `marks` is not strictly ascending or exceeds the horizon.
pub fn prefix_grid_ratios<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
    cells_per_axis: usize,
    kernel: TransitionKernel,
    marks: &[usize],
) -> Vec<f64> {
    assert!(
        marks.windows(2).all(|w| w[0] < w[1]),
        "prefix marks must be strictly ascending"
    );
    assert!(
        marks.last().is_none_or(|&t| t <= instance.horizon()),
        "prefix mark beyond the horizon"
    );
    let mut sim = StreamingSim::new(&instance.params(), algorithm, delta, order);
    let mut dp = GridDp::new(instance, cells_per_axis);
    // Growing prefix instance: steps are appended as the stream advances,
    // so each solve_warm call sees the previous call's steps verbatim and
    // the journal replays them for free.
    let mut prefix = Instance {
        d: instance.d,
        max_move: instance.max_move,
        start: instance.start,
        steps: Vec::with_capacity(marks.last().copied().unwrap_or(0)),
    };
    let mut out = Vec::with_capacity(marks.len());
    let mut next_mark = marks.iter().copied().peekable();
    for step in &instance.steps {
        if next_mark.peek().is_none() {
            break;
        }
        sim.feed(step);
        prefix.steps.push(step.clone());
        if next_mark.peek() == Some(&sim.steps()) {
            next_mark.next();
            let opt = dp.solve_warm(&prefix, order, kernel);
            out.push(competitive_ratio(sim.total_cost(), opt));
        }
    }
    assert_eq!(out.len(), marks.len(), "marks beyond the processed prefix");
    out
}

/// Mean with confidence interval.
#[derive(Clone, Copy, Debug)]
pub struct SeedStats {
    /// Mean over seeds.
    pub mean: f64,
    /// Bootstrap 95% CI lower end.
    pub ci_lo: f64,
    /// Bootstrap 95% CI upper end.
    pub ci_hi: f64,
}

impl SeedStats {
    /// `mean [lo, hi]` rendering for tables.
    pub fn cell(&self) -> String {
        format!(
            "{} [{}, {}]",
            msp_analysis::table::fmt_sig(self.mean),
            msp_analysis::table::fmt_sig(self.ci_lo),
            msp_analysis::table::fmt_sig(self.ci_hi)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_core::model::Step;
    use msp_core::mtc::MoveToCenter;
    use msp_geometry::P1;

    #[test]
    fn line_ratio_is_at_least_one() {
        let steps = (0..50)
            .map(|t| Step::single(P1::new([(t as f64 * 0.3).sin() * 3.0])))
            .collect();
        let inst = Instance::new(2.0, 1.0, P1::origin(), steps);
        let mut alg = MoveToCenter::new();
        let r = line_ratio(&inst, &mut alg, 0.5, ServingOrder::MoveFirst);
        assert!(r >= 1.0 - 1e-9, "ratio {r} below 1: OPT solver broken?");
        assert!(r < 50.0, "ratio {r} implausibly large");
    }

    #[test]
    fn mean_over_seeds_reports_interval() {
        let s = mean_over_seeds(8, |seed| seed as f64);
        assert!((s.mean - 3.5).abs() < 1e-12);
        assert!(s.ci_lo <= s.mean && s.mean <= s.ci_hi);
        assert!(s.cell().contains('['));
    }

    #[test]
    fn warm_seed_fan_matches_cold_fan_within_solver_tolerance() {
        use msp_core::simulator::run_with_warm_hint;
        use msp_geometry::sample::SeededSampler;
        use msp_geometry::P2;

        // Seed-adjacent planar instances: same slow-drift path, per-seed
        // request jitter — the fan shape warm chaining targets.
        let make = |seed: u64| {
            let mut s = SeededSampler::new(1000 + seed);
            let steps: Vec<Step<2>> = (0..12)
                .map(|t| {
                    let c = P2::xy(0.02 * t as f64, 1.5);
                    Step::new((0..6).map(|_| c + s.point_in_cube(0.4)).collect())
                })
                .collect();
            Instance::new(3.0, 0.6, P2::origin(), steps)
        };
        let cost_of = |seed: u64, warm: Option<&MoveToCenter<2>>| {
            let inst = make(seed);
            let mut alg = MoveToCenter::new();
            let cost = run_with_warm_hint(&inst, &mut alg, warm, 0.3, ServingOrder::MoveFirst)
                .total_cost();
            (cost, alg)
        };

        let cold: Vec<f64> = (0..8).map(|seed| cost_of(seed, None).0).collect();
        for lanes in [1usize, 3, 8] {
            let warm = warm_seed_fan(8, lanes, cost_of);
            assert_eq!(warm.len(), cold.len());
            for (seed, (w, c)) in warm.iter().zip(&cold).enumerate() {
                assert!(
                    (w - c).abs() <= 1e-8 * (1.0 + c.abs()),
                    "lanes={lanes} seed={seed}: warm {w} vs cold {c}"
                );
            }
        }
        // Chunking must also preserve seed order with lanes that do not
        // divide the seed count.
        let ordered = warm_seed_fan(7, 3, |seed, _warm: Option<&()>| (seed as f64, ()));
        assert_eq!(ordered, (0..7).map(|s| s as f64).collect::<Vec<_>>());
        assert!(warm_seed_fan(0, 2, |_, _: Option<&()>| (0.0, ())).is_empty());

        // The chunk shape (which seeds run cold) is part of the
        // reproducibility contract: it must not change when the fan is
        // dispatched from inside another sweep, where execution — but
        // never chaining — collapses to one worker.
        let chain = |seed: u64, warm: Option<&u64>| {
            let state = warm.copied().unwrap_or(1000 + seed) + seed;
            (state as f64, state)
        };
        let top = warm_seed_fan(8, 3, chain);
        let nested = msp_analysis::parallel_map(&[0u8], |_| warm_seed_fan(8, 3, chain));
        assert_eq!(top, nested[0], "chunk shape drifted under nesting");
    }

    #[test]
    fn batch_line_ratios_match_sequential() {
        let steps = (0..60)
            .map(|t| Step::single(P1::new([(t as f64 * 0.25).cos() * 4.0])))
            .collect();
        let inst = Instance::new(2.0, 1.0, P1::origin(), steps);
        let deltas = [0.0, 0.2, 0.7];
        let batched = batch_line_ratios(
            &inst,
            &MoveToCenter::new(),
            &deltas,
            ServingOrder::MoveFirst,
        );
        for (&delta, &batch_ratio) in deltas.iter().zip(&batched) {
            let mut alg = MoveToCenter::new();
            let sequential = line_ratio(&inst, &mut alg, delta, ServingOrder::MoveFirst);
            assert!(
                (batch_ratio - sequential).abs() < 1e-9,
                "δ={delta}: {batch_ratio} vs {sequential}"
            );
        }
    }

    #[test]
    fn prefix_line_ratios_match_from_scratch_solves() {
        let steps: Vec<Step<1>> = (0..120)
            .map(|t| Step::single(P1::new([(t as f64 * 0.4).sin() * 5.0])))
            .collect();
        let inst = Instance::new(2.0, 1.0, P1::origin(), steps);
        let marks = [10usize, 40, 75, 120];
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let incremental = prefix_line_ratios(&inst, MoveToCenter::new(), 0.3, order, &marks);
            for (&t, &inc) in marks.iter().zip(&incremental) {
                // From scratch: materialize the prefix, re-run, re-solve.
                let prefix = inst.prefix(t);
                let mut alg = MoveToCenter::new();
                let scratch = line_ratio(&prefix, &mut alg, 0.3, order);
                assert!(
                    (inc - scratch).abs() <= 1e-12 * scratch.max(1.0),
                    "{order:?} T={t}: incremental {inc} vs from-scratch {scratch}"
                );
            }
        }
    }

    #[test]
    fn prefix_grid_ratios_match_from_scratch_solves() {
        use msp_geometry::P2;
        let steps: Vec<Step<2>> = (0..48)
            .map(|t| {
                let a = t as f64 * 0.7;
                Step::single(P2::xy(a.sin() * 4.0, a.cos() * 3.0))
            })
            .collect();
        let inst = Instance::new(2.0, 0.6, P2::origin(), steps);
        let marks = [6usize, 17, 17 + 13, 48];
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let warm = prefix_grid_ratios(
                &inst,
                MoveToCenter::new(),
                0.3,
                order,
                15,
                TransitionKernel::DistanceTransform,
                &marks,
            );
            for (&t, &inc) in marks.iter().zip(&warm) {
                // From scratch: fresh covering solver, cold-solve the
                // materialized prefix, re-run the online algorithm.
                let prefix = inst.prefix(t);
                let opt = GridDp::new(&inst, 15).solve_warm(
                    &prefix,
                    order,
                    TransitionKernel::DistanceTransform,
                );
                let mut alg = MoveToCenter::new();
                let res = run(&prefix, &mut alg, 0.3, order);
                let scratch = competitive_ratio(res.total_cost(), opt);
                assert_eq!(
                    inc.to_bits(),
                    scratch.to_bits(),
                    "{order:?} T={t}: warm {inc} vs from-scratch {scratch}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn prefix_line_ratios_reject_unsorted_marks() {
        let inst = Instance::new(
            1.0,
            1.0,
            P1::origin(),
            vec![Step::single(P1::new([1.0])); 5],
        );
        let _ = prefix_line_ratios(
            &inst,
            MoveToCenter::new(),
            0.0,
            ServingOrder::MoveFirst,
            &[3, 2],
        );
    }

    #[test]
    fn scale_controls_sizes() {
        assert!(Scale::Smoke.horizon(800) < Scale::Quick.horizon(800));
        assert!(Scale::Quick.horizon(800) < Scale::Full.horizon(800));
        assert!(Scale::Smoke.seeds() < Scale::Full.seeds());
    }
}
