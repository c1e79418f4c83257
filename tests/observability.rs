//! Observability-tier contracts, end to end:
//!
//! * **Observation is read-only** — toggling the process-wide metrics
//!   registry on or off produces *bit-equal* results from the batch
//!   engine and the streaming engine, across scenario families × seeds
//!   (proptest). Instrumentation that fed back into a
//!   decision would break this immediately.
//! * **RatioProbe bounds are certified** — the live lower bound on the
//!   offline optimum is monotone nondecreasing step over step, matches
//!   the exact line solver on 1-D prefixes, and in 2-D never exceeds a
//!   certified upper bound on OPT (the grid DP restricts OPT's
//!   positions, so its value is ≥ OPT ≥ probe bound).
//!
//! The registry is process-global, so tests that toggle it serialize on
//! a lock and compare *results*, never absolute counter values.

use mobile_server::analysis::obs;
use mobile_server::core::cost::ServingOrder;
use mobile_server::core::mtc::MoveToCenter;
use mobile_server::core::simulator::{run_batch, run_streaming, StreamCheckpoint};
use mobile_server::offline::grid::grid_optimum;
use mobile_server::offline::probe::{ProbeOptions, RatioProbe};
use mobile_server::offline::solve_line;
use mobile_server::prelude::*;
use mobile_server::scenarios::engine::materialize;
use mobile_server::scenarios::registry::{must_lookup, ScenarioKnobs};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes registry toggling: the enabled flag is process-wide, and
/// two toggle tests interleaving could otherwise race it mid-comparison.
/// (Results are toggle-independent either way — that is the contract
/// under test — but the lock keeps each comparison's two sides honest.)
static TOGGLE: Mutex<()> = Mutex::new(());

/// 2-D scenario families the bit-equality properties range over.
const FAMILIES: [&str; 3] = ["walk-plane", "edge-drift", "car-fleet"];

const DELTAS: [f64; 3] = [0.0, 0.2, 0.7];
const ORDERS: [ServingOrder; 2] = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];

fn family_instance(family: usize, seed: u64, horizon: usize) -> Instance<2> {
    let spec = must_lookup(FAMILIES[family % FAMILIES.len()]);
    materialize::<2>(&spec, seed, &ScenarioKnobs::horizon(horizon)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch results are bit-equal with metrics on and off.
    #[test]
    fn batch_results_are_bit_equal_with_metrics_on_and_off(
        family in 0usize..FAMILIES.len(),
        seed in 0u64..1u64 << 20,
    ) {
        let inst = family_instance(family, seed, 48);
        let _guard = TOGGLE.lock().unwrap();
        obs::enable();
        let on = run_batch(&inst, &MoveToCenter::new(), &DELTAS, &ORDERS);
        obs::disable();
        let off = run_batch(&inst, &MoveToCenter::new(), &DELTAS, &ORDERS);
        prop_assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(&off) {
            prop_assert_eq!(a.cost.movement.to_bits(), b.cost.movement.to_bits());
            prop_assert_eq!(a.cost.service.to_bits(), b.cost.service.to_bits());
            prop_assert_eq!(&a.positions, &b.positions);
        }
    }

    /// Streaming results are bit-equal with metrics on and off, for every
    /// (δ, order) of the batch grid.
    #[test]
    fn streaming_results_are_bit_equal_with_metrics_on_and_off(
        family in 0usize..FAMILIES.len(),
        seed in 0u64..1u64 << 20,
    ) {
        let inst = family_instance(family, seed, 96);
        let params = inst.params();
        let stream = |delta, order| {
            run_streaming(&params, inst.steps.iter().cloned(), MoveToCenter::new(), delta, order)
        };
        let _guard = TOGGLE.lock().unwrap();
        for delta in DELTAS {
            for order in ORDERS {
                obs::enable();
                let on = stream(delta, order);
                obs::disable();
                let off = stream(delta, order);
                prop_assert_eq!(on.movement.to_bits(), off.movement.to_bits());
                prop_assert_eq!(on.service.to_bits(), off.service.to_bits());
                prop_assert_eq!(on.final_position, off.final_position);
            }
        }
    }

    /// On the line the probe's bound is monotone and lands exactly on
    /// the offline optimum (independent solve_line cross-check).
    #[test]
    fn line_probe_is_monotone_and_exact(
        seed in 0u64..1u64 << 20,
        d in 1.0f64..5.0,
        m in 0.3f64..1.5,
        order_idx in 0usize..ORDERS.len(),
    ) {
        let order = ORDERS[order_idx];
        let spec = must_lookup("walk-line");
        let mut inst = materialize::<1>(&spec, seed, &ScenarioKnobs::horizon(40)).unwrap();
        inst.d = d;
        inst.max_move = m;
        let mut probe = RatioProbe::<1>::new(&inst.params(), order, ProbeOptions::default());
        let mut prev = 0.0;
        for step in &inst.steps {
            probe.observe_step(&step.requests);
            let lb = probe.lower_bound();
            prop_assert!(lb >= prev, "bound regressed: {} < {}", lb, prev);
            prev = lb;
        }
        let exact = solve_line(&inst, order).cost;
        prop_assert!(
            (probe.lower_bound() - exact).abs() <= 1e-9 * exact.max(1.0),
            "probe {} vs exact OPT {}", probe.lower_bound(), exact
        );
    }

    /// In the plane the probe's bound is monotone and never exceeds a
    /// certified upper bound on OPT (grid DP restricts OPT's positions).
    #[test]
    fn plane_probe_is_monotone_and_below_opt(
        family in 0usize..FAMILIES.len(),
        seed in 0u64..1u64 << 20,
        order_idx in 0usize..ORDERS.len(),
    ) {
        let order = ORDERS[order_idx];
        let inst = family_instance(family, seed, 24);
        let mut probe = RatioProbe::<2>::new(
            &inst.params(),
            order,
            ProbeOptions { grid_block: 8 },
        );
        let mut prev = 0.0;
        for step in &inst.steps {
            probe.observe_step(&step.requests);
            let lb = probe.lower_bound();
            prop_assert!(lb >= prev, "bound regressed: {} < {}", lb, prev);
            prev = lb;
        }
        let upper = grid_optimum(&inst, 15, order);
        prop_assert!(
            probe.lower_bound() <= upper * (1.0 + 1e-9),
            "probe bound {} exceeds certified OPT upper bound {}",
            probe.lower_bound(), upper
        );
    }
}

/// The registry actually observes a probed streaming run: session and
/// probe counters advance, and the snapshot stays monotone (dominates
/// its predecessor) across the run.
#[test]
fn probed_run_advances_the_registry_monotonically() {
    use mobile_server::offline::probe::run_streaming_probed;

    let inst = family_instance(0, 7, 64);
    let params = inst.params();
    let _guard = TOGGLE.lock().unwrap();
    obs::enable();
    let before = obs::snapshot();
    let (result, samples) = run_streaming_probed(
        &params,
        inst.steps.iter().cloned(),
        MoveToCenter::<2>::new(),
        0.2,
        ServingOrder::MoveFirst,
        ProbeOptions { grid_block: 16 },
        16,
    );
    let after = obs::snapshot();
    obs::disable();
    assert!(after.dominates(&before), "snapshot must grow monotonically");
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
    assert!(delta("stream.sessions") >= 1);
    assert!(delta("probe.blocks") >= samples.len() as u64);
    assert!(delta("probe.grid_bounds") >= 64 / 16);
    assert_eq!(result.steps, 64);
    // A nontrivial, monotone lower bound reached the samples.
    assert!(samples.last().unwrap().lower_bound > 0.0);
    for w in samples.windows(2) {
        assert!(w[1].lower_bound >= w[0].lower_bound);
    }
}

/// The session service is observation-only too: a fleet driven through
/// eviction churn, journal spills, and supervised batches produces
/// bit-equal checkpoints with the registry on and off — while the
/// enabled pass actually moves every `service.*` counter it claims to.
#[test]
fn service_results_are_bit_equal_with_metrics_on_and_off() {
    use mobile_server::scenarios::{ServiceConfig, SessionService};
    use std::path::PathBuf;

    const HORIZON: usize = 64;
    const ROUNDS: usize = 4;
    let members: [(&str, u64); 3] = [("walk-plane", 41), ("edge-drift", 42), ("car-fleet", 43)];

    let drive = |journal_dir: PathBuf| -> Vec<StreamCheckpoint<2>> {
        std::fs::create_dir_all(&journal_dir).unwrap();
        let config = ServiceConfig::new(2).with_journal_dir(&journal_dir);
        let mut service = SessionService::<2, MoveToCenter<2>>::new(config);
        for (family, seed) in members {
            service
                .open_session(
                    format!("{family}#{seed}"),
                    must_lookup(family)
                        .stream_with::<2>(seed, &ScenarioKnobs::horizon(HORIZON))
                        .unwrap(),
                    MoveToCenter::new(),
                    0.2,
                    ServingOrder::MoveFirst,
                )
                .unwrap();
        }
        for _ in 0..ROUNDS {
            let requests: Vec<(String, usize)> = members
                .iter()
                .map(|(family, seed)| (format!("{family}#{seed}"), HORIZON / ROUNDS))
                .collect();
            for result in service.advance_batch(&requests) {
                result.expect("healthy fleet");
            }
        }
        let out = members
            .iter()
            .map(|(family, seed)| service.checkpoint(&format!("{family}#{seed}")).unwrap())
            .collect();
        let _ = std::fs::remove_dir_all(&journal_dir);
        out
    };

    let scratch = std::env::temp_dir().join(format!("msp_obs_service_{}", std::process::id()));
    let _guard = TOGGLE.lock().unwrap();
    obs::enable();
    let before = obs::snapshot();
    let on = drive(scratch.join("on"));
    let after = obs::snapshot();
    obs::disable();
    let off = drive(scratch.join("off"));
    let _ = std::fs::remove_dir_all(&scratch);

    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a.step, b.step);
        assert_eq!(a.position, b.position);
        assert_eq!(a.movement.to_bits(), b.movement.to_bits());
        assert_eq!(a.service.to_bits(), b.service.to_bits());
        assert_eq!(a.max_step_used.to_bits(), b.max_step_used.to_bits());
    }

    // The instrumented pass observed what it did: three sessions on a
    // two-slot budget must evict, spill, and resume.
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
    assert_eq!(delta("service.sessions"), members.len() as u64);
    assert!(delta("service.evictions") >= 1);
    assert!(delta("service.spills") >= 1);
    assert!(delta("service.resumes") >= 1);
    assert_eq!(delta("service.quarantines"), 0);
    assert_eq!(delta("service.degradations"), 0);
}
