//! Property-based tests of the simulator and cost model: for *arbitrary*
//! instances and any algorithm in the suite, the structural invariants of
//! Section 2 must hold.

use mobile_server::core::algorithm::{BoxedAlgorithm, Memoryless};
use mobile_server::core::baselines::{FractionalStep, MoveToMinN};
use mobile_server::core::cost::evaluate_trajectory;
use mobile_server::core::mtc::CenterTarget;
use mobile_server::core::simulator::run;
use mobile_server::geometry::step_towards;
use mobile_server::prelude::*;
use mobile_server::scenarios::registry::must_lookup;
use proptest::prelude::*;

/// Strategy: a small random planar instance.
fn arb_instance() -> impl Strategy<Value = Instance<2>> {
    (
        1.0f64..8.0, // D
        0.1f64..2.0, // m
        prop::collection::vec(
            prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..5),
            1..40,
        ),
    )
        .prop_map(|(d, m, steps)| {
            let steps = steps
                .into_iter()
                .map(|reqs| Step::new(reqs.into_iter().map(|(x, y)| P2::xy(x, y)).collect()))
                .collect();
            Instance::new(d, m, P2::origin(), steps)
        })
}

fn all_algorithms() -> Vec<BoxedAlgorithm<2>> {
    vec![
        Box::new(MoveToCenter::new()),
        Box::new(Lazy),
        Box::new(FollowCenter::new()),
        Box::new(MoveToMinN::<2>::new()),
        Box::new(RandomizedCoinFlip::<2>::new(42)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn movement_budget_is_never_exceeded(inst in arb_instance(), delta in 0.0f64..1.0) {
        for mut alg in all_algorithms() {
            let res = run(&inst, &mut alg, delta, ServingOrder::MoveFirst);
            let budget = (1.0 + delta) * inst.max_move;
            prop_assert!(
                res.max_step_used() <= budget + 1e-9,
                "{} moved {} > budget {}",
                res.algorithm,
                res.max_step_used(),
                budget
            );
        }
    }

    #[test]
    fn simulator_accounting_matches_trajectory_pricing(
        inst in arb_instance(),
        delta in 0.0f64..1.0,
        answer_first in any::<bool>(),
    ) {
        let order = if answer_first { ServingOrder::AnswerFirst } else { ServingOrder::MoveFirst };
        for mut alg in all_algorithms() {
            let res = run(&inst, &mut alg, delta, order);
            let priced = evaluate_trajectory(&inst, &res.positions, order);
            prop_assert!((priced.total() - res.total_cost()).abs() < 1e-9 * (1.0 + res.total_cost()));
            prop_assert!((priced.movement - res.cost.movement).abs() < 1e-9 * (1.0 + res.cost.movement));
        }
    }

    #[test]
    fn costs_are_finite_and_nonnegative(inst in arb_instance(), delta in 0.0f64..1.0) {
        for mut alg in all_algorithms() {
            let res = run(&inst, &mut alg, delta, ServingOrder::MoveFirst);
            prop_assert!(res.total_cost().is_finite());
            prop_assert!(res.cost.movement >= 0.0);
            prop_assert!(res.cost.service >= 0.0);
            for sc in &res.cost.per_step {
                prop_assert!(sc.movement >= 0.0 && sc.service >= 0.0);
            }
        }
    }

    #[test]
    fn reruns_are_deterministic(inst in arb_instance(), delta in 0.0f64..1.0) {
        for mut alg in all_algorithms() {
            let a = run(&inst, &mut alg, delta, ServingOrder::MoveFirst);
            let b = run(&inst, &mut alg, delta, ServingOrder::MoveFirst);
            prop_assert_eq!(&a.positions, &b.positions);
            prop_assert_eq!(a.total_cost(), b.total_cost());
        }
    }

    #[test]
    fn more_augmentation_never_hurts_mtc_much(inst in arb_instance()) {
        // MtC is not formally monotone in δ, but a large regression would
        // signal a budget-handling bug: with more headroom it must not get
        // more than marginally worse on the same instance.
        let mut alg = MoveToCenter::new();
        let low = run(&inst, &mut alg, 0.0, ServingOrder::MoveFirst).total_cost();
        let high = run(&inst, &mut alg, 1.0, ServingOrder::MoveFirst).total_cost();
        prop_assert!(high <= low * 1.5 + 1e-6, "δ=1 cost {high} ≫ δ=0 cost {low}");
    }

    #[test]
    fn silent_steps_cost_nothing_for_stationary_algorithms(
        d in 1.0f64..8.0,
        m in 0.1f64..2.0,
        t in 1usize..30,
    ) {
        let inst = Instance::new(d, m, P2::origin(), vec![Step::new(vec![]); t]);
        for mut alg in all_algorithms() {
            let res = run(&inst, &mut alg, 0.5, ServingOrder::MoveFirst);
            prop_assert_eq!(res.cost.service, 0.0);
        }
    }
}

/// A factory of fresh clones of one algorithm prototype.
type Clones = Box<dyn Fn() -> BoxedAlgorithm<2>>;

/// The [`Clones`] of `proto`, for algorithms that claim to be
/// [`Memoryless`].
fn clones_of<A>(proto: A) -> Clones
where
    A: OnlineAlgorithm<2> + Memoryless + Clone + 'static,
{
    Box::new(move || Box::new(proto.clone()))
}

/// The [`Memoryless`] contract, which lets a checkpoint alone resume a
/// session: at every step of a `car-fleet` stream, one long-lived instance
/// decides bit-equal to a fresh clone of its prototype. The fleet sends up
/// to 12 requests per step, so the median solver's iterative pipeline runs
/// (three or four requests take its closed forms).
#[test]
fn memoryless_algorithms_decide_like_a_fresh_clone() {
    let table: [(&str, Clones); 5] = [
        ("mtc", clones_of(MoveToCenter::<2>::new())),
        (
            "mtc-centroid",
            clones_of(MoveToCenter::<2>::with_center(CenterTarget::Centroid)),
        ),
        ("lazy", clones_of(Lazy)),
        ("follow-center", clones_of(FollowCenter::new())),
        ("fractional-step", clones_of(FractionalStep::new(0.5))),
    ];
    let mut stream = must_lookup("car-fleet")
        .stream_with::<2>(11, &ScenarioKnobs::horizon(400))
        .unwrap();
    let ctx = AlgContext::from_params(&stream.params(), 0.25);
    let steps: Vec<Step<2>> = std::iter::from_fn(|| stream.next_step()).collect();
    assert!(steps.iter().any(|s| s.requests.len() > 4));
    for (name, fresh) in &table {
        let mut long_lived = fresh();
        long_lived.reset(&ctx);
        let mut position = ctx.start;
        for (t, step) in steps.iter().enumerate() {
            let decided = long_lived.decide(&position, &step.requests, &ctx);
            let from_fresh = fresh().decide(&position, &step.requests, &ctx);
            assert_eq!(
                decided.0.map(f64::to_bits),
                from_fresh.0.map(f64::to_bits),
                "{name} step {t}: {decided:?} vs a fresh clone's {from_fresh:?}"
            );
            position = step_towards(&position, &decided, ctx.online_budget());
        }
    }
}
