//! Glue between [`RequestStream`]s and the streaming simulator, plus the
//! parallel trace-materialization fan-out used by multi-seed sweeps.

use crate::registry::{ScenarioError, ScenarioKnobs, ScenarioSpec};
use crate::stream::{collect_instance, RequestStream, StreamSteps};
use crate::trace::{record_to_vec, TraceFormat};
use msp_analysis::stats::StreamingSummary;
use msp_analysis::sweep::parallel_map_indexed;
use msp_core::algorithm::OnlineAlgorithm;
use msp_core::cost::ServingOrder;
use msp_core::model::Instance;
use msp_core::simulator::{run_streaming, StreamRunResult, StreamingSim};

/// Runs an algorithm over a stream (rewound first) with O(1) memory.
pub fn run_stream<const N: usize, A: OnlineAlgorithm<N>>(
    stream: &mut dyn RequestStream<N>,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
) -> StreamRunResult<N> {
    stream.rewind();
    let params = stream.params();
    run_streaming(&params, StreamSteps::new(stream), algorithm, delta, order)
}

/// [`run_stream`] that additionally folds every step's total cost into a
/// one-pass [`StreamingSummary`] — mean/spread/max per-step cost without
/// materializing the per-step trace.
pub fn run_stream_with_summary<const N: usize, A: OnlineAlgorithm<N>>(
    stream: &mut dyn RequestStream<N>,
    algorithm: A,
    delta: f64,
    order: ServingOrder,
) -> (StreamRunResult<N>, StreamingSummary) {
    stream.rewind();
    let params = stream.params();
    let mut sim = StreamingSim::new(&params, algorithm, delta, order);
    let mut summary = StreamingSummary::new();
    while let Some(step) = stream.next_step() {
        summary.push(sim.feed(&step).total());
    }
    (sim.finish(), summary)
}

/// Materializes one scenario seed into an [`Instance`].
pub fn materialize<const N: usize>(
    spec: &ScenarioSpec,
    seed: u64,
    knobs: &ScenarioKnobs,
) -> Result<Instance<N>, ScenarioError> {
    let mut stream = spec.stream_with::<N>(seed, knobs)?;
    Ok(collect_instance(stream.as_mut()))
}

/// Materializes a multi-seed fan of scenario instances in parallel
/// (seeds are independent, so generation fans out over all cores via
/// [`parallel_map_indexed`]).
pub fn materialize_seeds<const N: usize>(
    spec: &ScenarioSpec,
    seeds: &[u64],
    knobs: &ScenarioKnobs,
) -> Result<Vec<Instance<N>>, ScenarioError> {
    let results = parallel_map_indexed(seeds, 0, |_, &seed| materialize::<N>(spec, seed, knobs));
    results.into_iter().collect()
}

/// Records a multi-seed fan of scenario traces in parallel, returning the
/// [`TraceFormat::DURABLE`] bytes per seed.
/// This is how sweeps persist their workloads for later replay and
/// cross-run diffing without serializing generation.
pub fn record_seeds<const N: usize>(
    spec: &ScenarioSpec,
    seeds: &[u64],
    knobs: &ScenarioKnobs,
) -> Result<Vec<Vec<u8>>, ScenarioError> {
    let results = parallel_map_indexed(seeds, 0, |_, &seed| -> Result<Vec<u8>, ScenarioError> {
        let mut stream = spec.stream_with::<N>(seed, knobs)?;
        Ok(record_to_vec(stream.as_mut(), TraceFormat::DURABLE)?)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lookup;
    use crate::trace::read_trace;
    use msp_core::mtc::MoveToCenter;
    use msp_core::simulator::run;

    #[test]
    fn run_stream_matches_materialized_run() {
        let spec = lookup("district-clusters").unwrap();
        let knobs = ScenarioKnobs::horizon(120);
        let inst: Instance<2> = materialize(&spec, 3, &knobs).unwrap();
        let mut alg = MoveToCenter::new();
        let batch = run(&inst, &mut alg, 0.25, ServingOrder::MoveFirst);
        let mut stream = spec.stream_with::<2>(3, &knobs).unwrap();
        let streamed = run_stream(
            stream.as_mut(),
            MoveToCenter::new(),
            0.25,
            ServingOrder::MoveFirst,
        );
        assert_eq!(streamed.movement, batch.cost.movement);
        assert_eq!(streamed.service, batch.cost.service);
    }

    #[test]
    fn summary_tracks_per_step_costs() {
        let spec = lookup("walk-plane").unwrap();
        let mut stream = spec
            .stream_with::<2>(1, &ScenarioKnobs::horizon(200))
            .unwrap();
        let (res, summary) = run_stream_with_summary(
            stream.as_mut(),
            MoveToCenter::new(),
            0.2,
            ServingOrder::MoveFirst,
        );
        assert_eq!(summary.count(), res.steps);
        assert!((summary.mean() * res.steps as f64 - res.total_cost()).abs() < 1e-6);
        assert!(summary.max() >= summary.mean());
    }

    #[test]
    fn parallel_materialization_is_deterministic() {
        let spec = lookup("edge-drift").unwrap();
        let knobs = ScenarioKnobs::horizon(80);
        let seeds: Vec<u64> = (0..6).collect();
        let a: Vec<Instance<2>> = materialize_seeds(&spec, &seeds, &knobs).unwrap();
        let b: Vec<Instance<2>> = materialize_seeds(&spec, &seeds, &knobs).unwrap();
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            for (sx, sy) in x.steps.iter().zip(&y.steps) {
                assert_eq!(sx.requests, sy.requests);
            }
        }
        // And per-seed sequential materialization agrees.
        let solo: Instance<2> = materialize(&spec, 4, &knobs).unwrap();
        for (sx, sy) in solo.steps.iter().zip(&a[4].steps) {
            assert_eq!(sx.requests, sy.requests);
        }
    }

    #[test]
    fn recorded_seeds_replay_to_the_same_instances() {
        let spec = lookup("car-fleet").unwrap();
        let knobs = ScenarioKnobs::horizon(60);
        let seeds = [0u64, 1, 2];
        let traces = record_seeds::<2>(&spec, &seeds, &knobs).unwrap();
        let direct: Vec<Instance<2>> = materialize_seeds(&spec, &seeds, &knobs).unwrap();
        for (bytes, inst) in traces.iter().zip(&direct) {
            let replayed: Instance<2> = read_trace(bytes).unwrap();
            assert_eq!(replayed.horizon(), inst.horizon());
            for (a, b) in replayed.steps.iter().zip(&inst.steps) {
                assert_eq!(a.requests, b.requests);
            }
        }
    }
}
