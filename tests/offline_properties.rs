//! Property-based tests of the exact 1-D offline solver: the DP must
//! lower-bound every feasible strategy and behave like an optimum under
//! instance surgery.

use mobile_server::core::cost::{evaluate_trajectory, ServingOrder};
use mobile_server::core::model::{Instance, Step};
use mobile_server::core::simulator::run;
use mobile_server::geometry::P1;
use mobile_server::offline::line::solve_line;
use mobile_server::prelude::*;
use proptest::prelude::*;

fn arb_line_instance() -> impl Strategy<Value = Instance<1>> {
    (
        1.0f64..6.0,
        0.2f64..1.5,
        prop::collection::vec(prop::collection::vec(-20.0f64..20.0, 0..4), 1..30),
    )
        .prop_map(|(d, m, steps)| {
            let steps = steps
                .into_iter()
                .map(|reqs| Step::new(reqs.into_iter().map(|x| P1::new([x])).collect()))
                .collect();
            Instance::new(d, m, P1::origin(), steps)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn opt_lower_bounds_every_online_algorithm_without_augmentation(inst in arb_line_instance()) {
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let opt = solve_line(&inst, order).cost;
            let mut mtc = MoveToCenter::new();
            let mtc_cost = run(&inst, &mut mtc, 0.0, order).total_cost();
            prop_assert!(mtc_cost >= opt - 1e-6 * (1.0 + opt),
                "{order:?}: MtC {mtc_cost} beat 'OPT' {opt}");
            let mut lazy = Lazy;
            let lazy_cost = run(&inst, &mut lazy, 0.0, order).total_cost();
            prop_assert!(lazy_cost >= opt - 1e-6 * (1.0 + opt));
        }
    }

    #[test]
    fn opt_is_nonnegative_and_finite(inst in arb_line_instance()) {
        let sol = solve_line(&inst, ServingOrder::MoveFirst);
        prop_assert!(sol.cost >= -1e-9);
        prop_assert!(sol.cost.is_finite());
        prop_assert!(sol.final_position.is_finite());
    }

    #[test]
    fn opt_is_monotone_under_appending_steps(inst in arb_line_instance()) {
        let full = solve_line(&inst, ServingOrder::MoveFirst).cost;
        let half = solve_line(&inst.prefix(inst.horizon() / 2), ServingOrder::MoveFirst).cost;
        prop_assert!(half <= full + 1e-9);
    }

    #[test]
    fn opt_is_translation_invariant(inst in arb_line_instance(), shift in -1e3f64..1e3) {
        let moved = Instance::new(
            inst.d,
            inst.max_move,
            P1::new([inst.start.x() + shift]),
            inst.steps.iter().map(|s| Step::new(
                s.requests.iter().map(|v| P1::new([v.x() + shift])).collect()
            )).collect(),
        );
        for order in [ServingOrder::MoveFirst, ServingOrder::AnswerFirst] {
            let a = solve_line(&inst, order).cost;
            let b = solve_line(&moved, order).cost;
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                "{order:?}: translation by {shift} changed OPT: {a} vs {b}");
        }
    }

    #[test]
    fn opt_is_reflection_invariant(inst in arb_line_instance()) {
        let mirrored = Instance::new(
            inst.d,
            inst.max_move,
            P1::new([-inst.start.x()]),
            inst.steps.iter().map(|s| Step::new(
                s.requests.iter().map(|v| P1::new([-v.x()])).collect()
            )).collect(),
        );
        let a = solve_line(&inst, ServingOrder::MoveFirst).cost;
        let b = solve_line(&mirrored, ServingOrder::MoveFirst).cost;
        prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn larger_movement_budget_never_increases_opt(inst in arb_line_instance()) {
        let tight = solve_line(&inst, ServingOrder::MoveFirst).cost;
        let relaxed_inst = Instance::new(inst.d, inst.max_move * 2.0, inst.start, inst.steps.clone());
        let relaxed = solve_line(&relaxed_inst, ServingOrder::MoveFirst).cost;
        prop_assert!(relaxed <= tight + 1e-9, "doubling m increased OPT: {tight} -> {relaxed}");
    }

    #[test]
    fn duplicating_every_request_doubles_the_service_share(inst in arb_line_instance()) {
        // OPT(doubled) ≤ 2·OPT(original): the original trajectory serves
        // the doubled instance at ≤ doubled service + same movement. And
        // OPT(doubled) ≥ OPT(original): dropping copies only removes cost.
        let doubled = Instance::new(
            inst.d,
            inst.max_move,
            inst.start,
            inst.steps.iter().map(|s| {
                let mut reqs = s.requests.clone();
                reqs.extend_from_slice(&s.requests);
                Step::new(reqs)
            }).collect(),
        );
        let a = solve_line(&inst, ServingOrder::MoveFirst).cost;
        let b = solve_line(&doubled, ServingOrder::MoveFirst).cost;
        prop_assert!(b <= 2.0 * a + 1e-6);
        prop_assert!(b >= a - 1e-6);
    }

    #[test]
    fn certificate_of_adversary_upper_bounds_opt(t in 20usize..200, seed in any::<u64>()) {
        use mobile_server::adversary::{build_thm1, Thm1Params};
        let p = Thm1Params { horizon: t, d: 2.0, m: 1.0, x: None };
        let cert = build_thm1::<1>(&p, seed);
        let opt = solve_line(&cert.instance, ServingOrder::MoveFirst).cost;
        let adv = evaluate_trajectory(&cert.instance, &cert.adversary, ServingOrder::MoveFirst).total();
        prop_assert!(adv >= opt - 1e-6 * (1.0 + opt),
            "adversary 'certificate' {adv} below OPT {opt}");
    }
}
