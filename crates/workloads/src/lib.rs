#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Synthetic workloads for the Mobile Server Problem.
//!
//! The paper motivates the model with edge computing: data following users
//! around (drifting demand), embedded servers in autonomous cars (fleets
//! of mobile requesters), and ad-hoc disaster-response networks (the
//! Moving-Client variant). This crate turns those scenarios into seeded,
//! reproducible request-sequence generators:
//!
//! * [`counts`] — models for the per-step request count `r_t` (fixed,
//!   uniform range, bursty), controlling the `R_max/R_min` knob of
//!   Theorems 2 and 4.
//! * [`drift`] — a demand hotspot performing a speed-limited random walk
//!   inside an arena; requests scatter around it.
//! * [`agents`] — a fleet of random-waypoint agents (the autonomous-car
//!   picture); a random subset requests each step. Also produces single
//!   [`msp_core::moving_client::AgentWalk`]s for the Moving-Client
//!   variant.
//! * [`clusters`] — a Gaussian mixture with regime switches: demand jumps
//!   between well-separated sites, stressing the server's catch-up
//!   behaviour.
//! * [`walk`] — a single request point on a bounded random walk, the
//!   canonical line workload for the Theorem 4 (1-D) experiments.
//!
//! Every generator takes an explicit seed and derives sub-streams via
//! [`msp_geometry::sample::SeededSampler::derive_seed`], so experiment
//! cells are independently replayable.

pub mod agents;
pub mod clusters;
pub mod counts;
pub mod drift;
pub mod walk;

use msp_core::model::Step;

/// A pull-based, unbounded source of request steps.
///
/// Every workload generator exposes a `*Stream` implementing this trait;
/// `generate` is just "pull `horizon` steps and collect". Streaming
/// consumers (the scenario engine's `RequestStream` adapters, the
/// streaming simulator) pull steps one at a time instead, so horizons are
/// bounded by patience, not RAM. Sources are infinite — truncation is the
/// caller's job — and deterministic per seed: pulling `T` steps yields
/// exactly the first `T` steps of `generate(seed)` for every longer
/// horizon (the sampler draws are sequential per step).
pub trait StepSource<const N: usize> {
    /// Produces the next step of the workload.
    fn next_step(&mut self) -> Step<N>;
}

pub use agents::{AgentFleet, AgentFleetConfig, AgentFleetStream};
pub use clusters::{ClusterMixture, ClusterMixtureConfig, ClusterMixtureStream};
pub use counts::RequestCount;
pub use drift::{DriftingHotspot, DriftingHotspotConfig, DriftingHotspotStream};
pub use walk::{RandomWalk, RandomWalkConfig, RandomWalkStream};
