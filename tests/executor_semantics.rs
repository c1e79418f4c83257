//! Semantics of the persistent work-stealing executor
//! (`msp_analysis::sweep`): the pooled fan-out paths must be *pure
//! wall-clock optimizations* — output-identical to sequential execution,
//! nesting-safe, and transparent to the engines built on top of them.
//!
//! * pooled `parallel_map_indexed` is **output-identical** to the
//!   sequential path (and to the retained scoped executor) for arbitrary
//!   inputs and thread requests — proptest-pinned,
//! * nested fans collapse to one thread on pool workers (the
//!   no-oversubscription guarantee),
//! * `run_streaming_batch` stays **bit-equal** to `run_batch` across the
//!   256-step block boundary under the pool, for strict, grouped, and
//!   machine-shaped options alike — the per-block dispatch now reuses
//!   pool workers, and that must not perturb a single bit,
//! * strict batch mode stays bit-equal to sequential `run` under the pool
//!   (input-order result slots, not scheduling, carry determinism).
//!
//! The CI job `tests-2t` re-runs the whole suite with `MSP_THREADS=2` so
//! these properties are exercised under worker contention, not only on
//! whatever parallelism the runner happens to have.

use mobile_server::analysis::sweep::{
    effective_threads, parallel_for_each_mut, parallel_map_indexed, pool_threads,
    scoped_for_each_mut, scoped_map_indexed,
};
use mobile_server::core::cost::ServingOrder;
use mobile_server::core::simulator::{run, run_batch_with, run_streaming_batch_with, BatchOptions};
use mobile_server::geometry::sample::SeededSampler;
use mobile_server::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pooled map is output-identical to the sequential path for any
    /// input and any thread request — order, multiplicity, and values.
    #[test]
    fn pooled_map_is_output_identical_to_sequential(
        items in prop::collection::vec(any::<u32>(), 0..300),
        threads in 0usize..9,
    ) {
        let f = |i: usize, x: &u32| (i as u64) * 31 + u64::from(*x) % 1000;
        let sequential: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        let pooled = parallel_map_indexed(&items, threads, f);
        prop_assert_eq!(&pooled, &sequential);
        // The retained scoped executor is the same function.
        let scoped = scoped_map_indexed(&items, threads, f);
        prop_assert_eq!(&scoped, &sequential);
    }

    /// The pooled in-place fan leaves exactly the sequential result for
    /// any chunking, with every item visited exactly once.
    #[test]
    fn pooled_for_each_mut_is_output_identical_to_sequential(
        items in prop::collection::vec(any::<u64>(), 0..300),
        threads in 0usize..9,
    ) {
        let f = |i: usize, v: &mut u64| *v = v.wrapping_mul(0x9E3779B9).rotate_left(7) ^ i as u64;
        let mut sequential = items.clone();
        for (i, v) in sequential.iter_mut().enumerate() {
            f(i, v);
        }
        let mut pooled = items.clone();
        parallel_for_each_mut(&mut pooled, threads, f);
        prop_assert_eq!(&pooled, &sequential);
        let mut scoped = items.clone();
        scoped_for_each_mut(&mut scoped, threads, f);
        prop_assert_eq!(&scoped, &sequential);
    }
}

/// Nested fans run sequentially on pool workers: a fan dispatched from
/// inside another fan sees an effective width of one, at every nesting
/// depth, and still produces ordered results.
#[test]
fn nested_fans_stay_sequential_on_pool_workers() {
    let outer: Vec<usize> = (0..12).collect();
    let widths = parallel_map_indexed(&outer, 0, |_, _| {
        let inner: Vec<usize> = (0..4).collect();
        // Observed widths (auto and explicit request) inside the fan.
        parallel_map_indexed(&inner, 0, |_, _| {
            (effective_threads(0), effective_threads(7))
        })
    });
    for inner in &widths {
        for &(auto, requested) in inner {
            assert_eq!(auto, 1, "nested fan must observe width 1");
            // With a single-thread pool the outer fan runs inline on the
            // caller (there is no parallelism to guard), so an explicit
            // nested request passes through — and is then clamped to the
            // (empty) pool at dispatch. The flag-based collapse is only
            // observable when the outer fan actually went parallel; the
            // MSP_THREADS=2 CI job pins that case on every runner.
            if pool_threads() >= 2 {
                assert_eq!(requested, 1, "nested fan must ignore explicit widths");
            }
        }
    }
    // Top level: the pool reports its resolved size (>= 1, honoring
    // MSP_THREADS when the harness sets it).
    assert!(pool_threads() >= 1);
    assert_eq!(effective_threads(0), pool_threads());
}

/// A planar workload with varying request counts (the perf_parity shape)
/// crossing the 256-step streaming block boundary.
fn block_instance(seed: u64, horizon: usize) -> Instance<2> {
    let mut s = SeededSampler::new(seed);
    let steps = (0..horizon)
        .map(|t| {
            let r = s.int_inclusive(0, 4);
            let c = P2::xy((t as f64 * 0.09).sin() * 4.0, 0.04 * t as f64);
            Step::new((0..r).map(|_| c + s.point_in_cube(1.2)).collect())
        })
        .collect();
    Instance::new(3.0, 0.8, P2::origin(), steps)
}

/// Streaming batch must mirror in-memory batch bit for bit under the
/// pooled executor, across the block boundary, for every option shape —
/// including the machine-shaped default whose group count follows the
/// pool size.
#[test]
fn streaming_batch_bit_equals_batch_across_blocks_under_the_pool() {
    let inst = block_instance(41, 640);
    let deltas = [0.0, 0.2, 0.45, 0.9];
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
    for opts in [
        BatchOptions::default(),
        BatchOptions::strict(),
        BatchOptions::sequential(),
        BatchOptions {
            threads: 2,
            lane_chunk: 3,
            cross_lane_seed: true,
        },
        BatchOptions {
            threads: 3,
            lane_chunk: 2,
            cross_lane_seed: false,
        },
    ] {
        let batch = run_batch_with(&inst, &MoveToCenter::new(), &deltas, &orders, opts);
        let streamed = run_streaming_batch_with(
            &inst.params(),
            inst.steps.iter().cloned(),
            &MoveToCenter::new(),
            &deltas,
            &orders,
            opts,
        );
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.iter().zip(&batch) {
            assert_eq!(s.delta, b.delta, "{opts:?}");
            assert_eq!(s.order, b.order, "{opts:?}");
            assert_eq!(s.movement.to_bits(), b.cost.movement.to_bits(), "{opts:?}");
            assert_eq!(s.service.to_bits(), b.cost.service.to_bits(), "{opts:?}");
            assert_eq!(s.final_position, *b.positions.last().unwrap(), "{opts:?}");
        }
    }
}

/// Strict batch mode under the pool is bit-equal to sequential `run` —
/// determinism comes from input-order result slots, not from scheduling.
#[test]
fn strict_batch_under_the_pool_is_bit_equal_to_sequential_run() {
    let inst = block_instance(7, 300);
    let deltas = [0.0, 0.3, 0.8];
    let orders = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];
    let batch = run_batch_with(
        &inst,
        &MoveToCenter::new(),
        &deltas,
        &orders,
        BatchOptions::strict(),
    );
    let mut i = 0;
    for &delta in &deltas {
        for &order in &orders {
            let mut alg = MoveToCenter::new();
            let single = run(&inst, &mut alg, delta, order);
            assert_eq!(batch[i].positions, single.positions, "δ={delta} {order:?}");
            assert_eq!(
                batch[i].total_cost().to_bits(),
                single.total_cost().to_bits(),
                "δ={delta} {order:?}"
            );
            i += 1;
        }
    }
}

/// Many repeated fan-outs (the streaming-block dispatch shape) through
/// one process-wide pool: no cross-job state may leak, results stay
/// ordered on every iteration.
#[test]
fn repeated_dispatches_stay_clean() {
    let items: Vec<usize> = (0..32).collect();
    for round in 0..300usize {
        let out = parallel_map_indexed(&items, 0, |i, &x| i * 1000 + x + round);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 1000 + i + round, "round {round}");
        }
    }
}
