#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Euclidean-space substrate for the Mobile Server Problem.
//!
//! The paper places a mobile server in the Euclidean space of arbitrary
//! dimension; requests are points, the server moves under a per-step
//! distance budget, and the Move-to-Center algorithm repeatedly targets the
//! point minimizing the sum of distances to the current requests (the
//! *1-median* / geometric median). This crate provides:
//!
//! * [`Point`] — a fixed-dimension Euclidean point with vector arithmetic,
//!   plus the aliases [`P1`], [`P2`], [`P3`].
//! * [`median`] — exact 1-D medians and the geometric median in arbitrary
//!   dimension (hybrid Weiszfeld/Newton with Vardi–Zhang singular
//!   handling), including the paper's tie-breaking rule ("pick the center
//!   closest to the algorithm's server") and the warm-starting,
//!   allocation-free [`MedianSolver`] used by simulation hot loops.
//! * [`bbox`] — axis-aligned bounding boxes.
//! * [`sample`] — deterministic, seedable random sampling of points.
//! * [`motion`] — bounded-step motion helpers (`step_towards`), the core
//!   primitive for any speed-limited server.

pub mod bbox;
pub mod median;
pub mod motion;
pub mod point;
pub mod sample;

pub use bbox::Aabb;
pub use median::{
    centroid, geometric_median, line_median_interval, weighted_center, MedianOptions, MedianSolver,
    MedianTelemetry,
};
pub use motion::step_towards;
pub use point::{Point, P1, P2, P3};

/// Numerical tolerance used across the workspace when comparing distances
/// and costs produced by floating-point computations.
pub const EPS: f64 = 1e-9;
