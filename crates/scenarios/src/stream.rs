//! The [`RequestStream`] abstraction and its basic adapters.
//!
//! A request stream is the open-ended counterpart of a materialized
//! [`Instance`]: the model parameters are known up front, the steps arrive
//! one at a time, and the horizon may be unknown or far beyond what fits
//! in memory. Streams are **replayable** — [`RequestStream::rewind`]
//! restarts the exact same step sequence — which is what makes recorded
//! traces, cross-run diffing, and record/replay parity testing possible.

use msp_core::model::{Instance, Step, StreamParams};
use msp_workloads::StepSource;

/// A pull-based, seeded, replayable source of request steps.
///
/// Implementations: workload generators ([`GeneratedStream`]), materialized
/// instances ([`InstanceStream`], wrapping adversarial constructions and
/// decoded traces), and durable traces ([`crate::trace::TraceReader`],
/// [`crate::trace::BlockTraceReader`]).
pub trait RequestStream<const N: usize> {
    /// Model parameters (`D`, `m`, start) every consumer needs up front.
    fn params(&self) -> StreamParams<N>;

    /// Pulls the next step; `None` once the stream is exhausted.
    fn next_step(&mut self) -> Option<Step<N>>;

    /// Steps remaining from the current position, when known (`None` for
    /// unbounded or unknown-length streams).
    fn len_hint(&self) -> Option<usize>;

    /// Restarts the stream from step 0. Replays the exact same steps —
    /// generator streams re-seed, instance streams reset their cursor,
    /// trace readers seek back to the first frame.
    fn rewind(&mut self);
}

impl<const N: usize, S: RequestStream<N> + ?Sized> RequestStream<N> for Box<S> {
    fn params(&self) -> StreamParams<N> {
        (**self).params()
    }
    fn next_step(&mut self) -> Option<Step<N>> {
        (**self).next_step()
    }
    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
    fn rewind(&mut self) {
        (**self).rewind()
    }
}

/// Drains a stream into a materialized [`Instance`] (from its current
/// position). The inverse of [`InstanceStream::new`].
///
/// Only call this on finite streams: an unbounded stream (e.g. a
/// [`GeneratedStream`] opened with `horizon: None`) never returns `None`,
/// so this function would loop and allocate forever. A `None` `len_hint`
/// on a stream that does end is fine — the hint only sizes the
/// allocation.
pub fn collect_instance<const N: usize>(stream: &mut dyn RequestStream<N>) -> Instance<N> {
    let mut steps = Vec::with_capacity(stream.len_hint().unwrap_or(0));
    while let Some(step) = stream.next_step() {
        steps.push(step);
    }
    stream.params().into_instance(steps)
}

/// Borrowing iterator over a stream's remaining steps, so streams plug
/// directly into [`msp_core::simulator::run_streaming`] and friends.
pub struct StreamSteps<'a, const N: usize> {
    stream: &'a mut dyn RequestStream<N>,
}

impl<'a, const N: usize> StreamSteps<'a, N> {
    /// Wraps a stream as an iterator (does not rewind).
    pub fn new(stream: &'a mut dyn RequestStream<N>) -> Self {
        StreamSteps { stream }
    }
}

impl<const N: usize> Iterator for StreamSteps<'_, N> {
    type Item = Step<N>;
    fn next(&mut self) -> Option<Step<N>> {
        self.stream.next_step()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.stream.len_hint() {
            Some(n) => (n, Some(n)),
            None => (0, None),
        }
    }
}

/// A materialized instance replayed as a stream. Memory is O(T) — this
/// adapter exists for sources that are inherently materialized (adversary
/// certificates, decoded traces), not for large horizons.
#[derive(Clone, Debug)]
pub struct InstanceStream<const N: usize> {
    instance: Instance<N>,
    cursor: usize,
}

impl<const N: usize> InstanceStream<N> {
    /// Wraps the instance.
    pub fn new(instance: Instance<N>) -> Self {
        InstanceStream {
            instance,
            cursor: 0,
        }
    }

    /// The wrapped instance.
    pub fn instance(&self) -> &Instance<N> {
        &self.instance
    }
}

impl<const N: usize> RequestStream<N> for InstanceStream<N> {
    fn params(&self) -> StreamParams<N> {
        self.instance.params()
    }
    fn next_step(&mut self) -> Option<Step<N>> {
        let step = self.instance.steps.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(step)
    }
    fn len_hint(&self) -> Option<usize> {
        Some(self.instance.horizon() - self.cursor)
    }
    fn rewind(&mut self) {
        self.cursor = 0;
    }
}

/// A workload generator lifted to a [`RequestStream`]: pulls steps from a
/// seeded [`StepSource`], optionally truncated at `horizon`, and rewinds
/// by rebuilding the source from the stored seed. Memory is the source's
/// own state — O(1) in the steps pulled.
pub struct GeneratedStream<const N: usize, S, F> {
    build: F,
    seed: u64,
    source: S,
    params: StreamParams<N>,
    horizon: Option<usize>,
    emitted: usize,
}

impl<const N: usize, S, F> GeneratedStream<N, S, F>
where
    S: StepSource<N>,
    F: Fn(u64) -> S,
{
    /// Opens the stream: `build(seed)` constructs the step source, and the
    /// stream ends after `horizon` steps (`None` = unbounded).
    pub fn new(build: F, seed: u64, params: StreamParams<N>, horizon: Option<usize>) -> Self {
        let source = build(seed);
        GeneratedStream {
            build,
            seed,
            source,
            params,
            horizon,
            emitted: 0,
        }
    }
}

impl<const N: usize, S, F> RequestStream<N> for GeneratedStream<N, S, F>
where
    S: StepSource<N>,
    F: Fn(u64) -> S,
{
    fn params(&self) -> StreamParams<N> {
        self.params
    }
    fn next_step(&mut self) -> Option<Step<N>> {
        if let Some(h) = self.horizon {
            if self.emitted >= h {
                return None;
            }
        }
        self.emitted += 1;
        Some(self.source.next_step())
    }
    fn len_hint(&self) -> Option<usize> {
        self.horizon.map(|h| h - self.emitted.min(h))
    }
    fn rewind(&mut self) {
        self.source = (self.build)(self.seed);
        self.emitted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_geometry::{Point, P2};
    use msp_workloads::{RandomWalk, RandomWalkConfig};

    fn walk_stream(
        horizon: Option<usize>,
    ) -> GeneratedStream<
        2,
        msp_workloads::RandomWalkStream<2>,
        impl Fn(u64) -> msp_workloads::RandomWalkStream<2>,
    > {
        let config = RandomWalkConfig::<2> {
            horizon: 50,
            ..Default::default()
        };
        GeneratedStream::new(
            move |seed| RandomWalk::new(config).stream(seed),
            7,
            StreamParams::new(config.d, config.max_move, Point::origin()),
            horizon,
        )
    }

    #[test]
    fn instance_stream_round_trips() {
        let inst = RandomWalk::new(RandomWalkConfig::<2> {
            horizon: 30,
            ..Default::default()
        })
        .generate(3);
        let mut s = InstanceStream::new(inst.clone());
        assert_eq!(s.len_hint(), Some(30));
        let back = collect_instance(&mut s);
        assert_eq!(back.horizon(), inst.horizon());
        for (a, b) in back.steps.iter().zip(&inst.steps) {
            assert_eq!(a.requests, b.requests);
        }
        assert_eq!(s.len_hint(), Some(0));
        assert!(s.next_step().is_none());
    }

    #[test]
    fn rewind_replays_identical_steps() {
        let mut s = walk_stream(Some(20));
        let first: Vec<_> = std::iter::from_fn(|| s.next_step()).collect();
        assert_eq!(first.len(), 20);
        s.rewind();
        let second: Vec<_> = std::iter::from_fn(|| s.next_step()).collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.requests, b.requests);
        }
    }

    #[test]
    fn unbounded_stream_has_no_hint_and_keeps_going() {
        let mut s = walk_stream(None);
        assert_eq!(s.len_hint(), None);
        for _ in 0..200 {
            assert!(s.next_step().is_some());
        }
    }

    #[test]
    fn stream_steps_iterator_exposes_hint() {
        let inst = msp_core::model::Instance::new(
            1.0,
            1.0,
            P2::origin(),
            vec![msp_core::model::Step::single(P2::xy(1.0, 0.0)); 5],
        );
        let mut s = InstanceStream::new(inst);
        let it = StreamSteps::new(&mut s);
        assert_eq!(it.size_hint(), (5, Some(5)));
        assert_eq!(it.count(), 5);
    }
}
