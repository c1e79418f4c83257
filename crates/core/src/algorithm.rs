//! The online-algorithm interface.
//!
//! An online algorithm sees, in each step, its current position and the
//! requests of the step (the model reveals the requests *before* the move
//! in both serving orders — the orders differ only in which endpoint pays
//! the service cost). It proposes a new position; the simulator enforces
//! the movement budget by clamping the proposal onto the segment towards
//! it, so no algorithm can cheat the speed limit.

use crate::model::{Instance, StreamParams};
use msp_geometry::Point;

/// Static context handed to an algorithm at reset and on every decision.
#[derive(Clone, Copy, Debug)]
pub struct AlgContext<const N: usize> {
    /// Movement cost weight `D ≥ 1` of the instance.
    pub d: f64,
    /// The *offline* movement limit `m` of the instance.
    pub max_move: f64,
    /// Resource augmentation factor `δ ∈ [0, 1]`: the online algorithm may
    /// move up to `(1+δ)·m` per step. `δ = 0` disables augmentation.
    pub delta: f64,
    /// Common start position `P_0`.
    pub start: Point<N>,
}

impl<const N: usize> AlgContext<N> {
    /// Builds the context for running an algorithm on `instance` with
    /// augmentation `delta`.
    ///
    /// # Panics
    /// Panics when `delta` is negative or not finite. The paper restricts
    /// attention to `δ ∈ (0, 1]` (beyond `δ = 1` no further asymptotic gain
    /// is possible); we allow any non-negative value so experiments can
    /// probe the unaugmented and over-augmented regimes too.
    pub fn new(instance: &Instance<N>, delta: f64) -> Self {
        Self::from_params(&instance.params(), delta)
    }

    /// Builds the context from bare [`StreamParams`] — the constructor
    /// streaming drivers use when no materialized [`Instance`] exists.
    ///
    /// # Panics
    /// Panics when `delta` is negative or not finite (see [`Self::new`]).
    pub fn from_params(params: &StreamParams<N>, delta: f64) -> Self {
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "augmentation δ must be a finite non-negative number, got {delta}"
        );
        AlgContext {
            d: params.d,
            max_move: params.max_move,
            delta,
            start: params.start,
        }
    }

    /// The online movement budget `(1+δ)·m` per step.
    #[inline]
    pub fn online_budget(&self) -> f64 {
        (1.0 + self.delta) * self.max_move
    }
}

/// A deterministic or (internally seeded) randomized online algorithm for
/// the Mobile Server Problem.
pub trait OnlineAlgorithm<const N: usize> {
    /// Stable name used in experiment tables and traces.
    fn name(&self) -> String;

    /// Clears all internal state and positions the algorithm at
    /// `ctx.start`. Called once before a run; implementations must be
    /// reusable across runs after `reset`.
    fn reset(&mut self, ctx: &AlgContext<N>);

    /// Proposes the next server position given the current position and
    /// the step's requests. The simulator clamps the proposal to the
    /// movement budget along the straight segment, so returning an
    /// unreachable point moves the server maximally towards it.
    fn decide(
        &mut self,
        current: &Point<N>,
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Point<N>;
}

/// Marker for an algorithm whose decision depends only on the current
/// position, the step's requests and the [`AlgContext`], never on earlier
/// calls. A fresh, configuration-equal instance therefore continues a run
/// bit-equal to the instance that ran it, so a
/// [`crate::simulator::StreamCheckpoint`] alone resumes the run (through
/// [`crate::simulator::StreamingSim::resume`]). Durable resumes from a
/// checkpoint journal and the session service accept only these
/// algorithms, at compile time. Algorithms that carry state from step to
/// step, such as a pending batch, a standing target or an RNG, do not
/// implement it.
pub trait Memoryless {}

/// Object-safe alias for heterogeneous algorithm collections (experiment
/// tables iterate over `Vec<BoxedAlgorithm<N>>`).
pub type BoxedAlgorithm<const N: usize> = Box<dyn OnlineAlgorithm<N>>;

impl<const N: usize> OnlineAlgorithm<N> for BoxedAlgorithm<N> {
    fn name(&self) -> String {
        self.as_ref().name()
    }
    fn reset(&mut self, ctx: &AlgContext<N>) {
        self.as_mut().reset(ctx);
    }
    fn decide(
        &mut self,
        current: &Point<N>,
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Point<N> {
        self.as_mut().decide(current, requests, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Instance, Step};
    use msp_geometry::P2;

    #[test]
    fn context_budget_applies_augmentation() {
        let inst = Instance::new(2.0, 0.5, P2::origin(), vec![Step::new(vec![])]);
        let ctx = AlgContext::new(&inst, 0.2);
        assert!((ctx.online_budget() - 0.6).abs() < 1e-12);
        let ctx0 = AlgContext::new(&inst, 0.0);
        assert!((ctx0.online_budget() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "augmentation")]
    fn negative_delta_rejected() {
        let inst = Instance::new(1.0, 1.0, P2::origin(), vec![]);
        let _ = AlgContext::new(&inst, -0.1);
    }

    #[test]
    fn boxed_algorithm_dispatches() {
        struct Stay;
        impl OnlineAlgorithm<2> for Stay {
            fn name(&self) -> String {
                "stay".into()
            }
            fn reset(&mut self, _ctx: &AlgContext<2>) {}
            fn decide(&mut self, cur: &P2, _req: &[P2], _ctx: &AlgContext<2>) -> P2 {
                *cur
            }
        }
        let inst = Instance::new(1.0, 1.0, P2::origin(), vec![]);
        let ctx = AlgContext::new(&inst, 0.0);
        let mut boxed: BoxedAlgorithm<2> = Box::new(Stay);
        boxed.reset(&ctx);
        assert_eq!(boxed.name(), "stay");
        let p = P2::xy(1.0, 2.0);
        assert_eq!(boxed.decide(&p, &[], &ctx), p);
    }
}
