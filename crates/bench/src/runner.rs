//! Shared experiment plumbing: scales, ratio computations, seed fans.
//!
//! Seed fans run through [`msp_analysis::sweep::parallel_map_indexed`], so
//! a `mean_over_seeds` call inside an already-parallel δ sweep fills all
//! cores instead of serializing the inner loop; δ sweeps over a *fixed*
//! instance should go through [`batch_line_ratios`], which prices every δ
//! in one simulator pass ([`msp_core::simulator::run_batch`]) against a
//! single offline-optimum solve. Horizon sweeps price every prefix mark
//! in one forward pass ([`prefix_line_ratios`], [`prefix_grid_ratios`]).

use msp_analysis::bootstrap_mean_ci;
use msp_analysis::sweep::parallel_map_indexed;
use msp_core::algorithm::OnlineAlgorithm;
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_core::ratio::competitive_ratio;
use msp_core::simulator::{run, run_batch, StreamingSim};
use msp_offline::convex::{ConvexSolver, ConvexSolverOptions};
use msp_offline::grid::GridDp;
use msp_offline::line::{solve_line, IncrementalLineOpt};

/// How big the experiment should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for CI smoke runs.
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

/// Mean and bootstrap 95% CI of `f(seed)` over `seeds` seeds, fanning the
/// seeds out over all cores.
pub fn mean_over_seeds(seeds: u64, f: impl Fn(u64) -> f64 + Sync) -> SeedStats {
    let seed_list: Vec<u64> = (0..seeds).collect();
    let values = parallel_map_indexed(&seed_list, 0, |_, &seed| f(seed));
    stats_from_values(&values)
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
/// simulation savings. Each ratio is bit-equal to [`line_ratio`]'s, since
/// every δ-lane of [`run_batch`] is bit-equal to its sequential run.
pub fn batch_line_ratios<A: OnlineAlgorithm<1> + Clone + Send>(
    instance: &Instance<1>,
    algorithm: &A,
    deltas: &[f64],
    order: ServingOrder,
) -> Vec<f64> {
    let opt = solve_line(instance, order).cost;
    run_batch(instance, algorithm, deltas, &[order])
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
/// DP are both causal) — pinned by tests. A mark of 0 prices the empty
/// prefix, whose ratio is 1.
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
    let mut steps = instance.steps.iter();
    marks
        .iter()
        .map(|&t| {
            while sim.steps() < t {
                let step = steps.next().expect("marks checked against the horizon");
                sim.feed(step);
                let reqs: Vec<f64> = step.requests.iter().map(|v| v.x()).collect();
                opt.push_step(&reqs);
            }
            competitive_ratio(sim.total_cost(), opt.current_opt())
        })
        .collect()
}

/// N-dimensional analogue of [`prefix_line_ratios`]: competitive ratios
/// of `algorithm` at every prefix horizon in `marks`, with the OPT
/// denominators priced by **one** forward grid-DP pass
/// ([`GridDp::prefix_optima`]) over the arena covering the *full*
/// instance — so a horizon sweep pays each step's DP transition once
/// instead of once per mark. Each mark's OPT is bit-identical to a fresh
/// covering solver's single-mark pass — pinned by tests.
///
/// # Panics
/// Panics when `marks` is not strictly ascending or exceeds the horizon.
pub fn prefix_grid_ratios<const N: usize, A: OnlineAlgorithm<N>>(
    instance: &Instance<N>,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
    cells_per_axis: usize,
    marks: &[usize],
) -> Vec<f64> {
    let optima = GridDp::new(instance, cells_per_axis).prefix_optima(instance, order, marks);
    let mut sim = StreamingSim::new(&instance.params(), algorithm, delta, order);
    let mut steps = instance.steps.iter();
    marks
        .iter()
        .zip(&optima)
        .map(|(&t, &opt)| {
            while sim.steps() < t {
                sim.feed(steps.next().expect("prefix_optima checked the marks"));
            }
            competitive_ratio(sim.total_cost(), opt)
        })
        .collect()
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
            assert_eq!(
                batch_ratio.to_bits(),
                sequential.to_bits(),
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
        let marks = [0usize, 10, 40, 75, 120];
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
            let swept = prefix_grid_ratios(&inst, MoveToCenter::new(), 0.3, order, 15, &marks);
            assert_eq!(swept.len(), marks.len());
            for (&t, &inc) in marks.iter().zip(&swept) {
                // From scratch: a fresh covering solver's single-mark
                // pass, and the online algorithm re-run on the
                // materialized prefix.
                let opt = GridDp::new(&inst, 15).prefix_optima(&inst, order, &[t])[0];
                let mut alg = MoveToCenter::new();
                let res = run(&inst.prefix(t), &mut alg, 0.3, order);
                let scratch = competitive_ratio(res.total_cost(), opt);
                assert_eq!(
                    inc.to_bits(),
                    scratch.to_bits(),
                    "{order:?} T={t}: one pass {inc} vs from-scratch {scratch}"
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
