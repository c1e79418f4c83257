#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Statistics and reporting substrate for the experiment suite.
//!
//! The reproduction's deliverable is a set of *shapes*: ratios that grow
//! like `√T`, scale like `1/δ` or `1/δ^{3/2}`, or stay flat. This crate
//! provides the numerical tooling that turns raw simulation costs into
//! those statements:
//!
//! * [`stats`] — descriptive statistics ([`stats::Summary`]).
//! * [`regression`] — ordinary least squares and log-log power-law fits
//!   with `R²`, used to recover growth exponents from sweeps.
//! * [`bootstrap`] — seeded bootstrap confidence intervals for means of
//!   randomized-adversary ratios.
//! * [`table`] — Markdown and CSV renderers for experiment tables (the
//!   "same rows the paper would report").
//! * [`json`] — a minimal, dependency-free JSON emitter for machine-readable
//!   experiment records.
//! * [`sweep`] — an order-preserving parallel map over experiment cells on
//!   scoped threads (`MSP_THREADS`-sizable).
//! * [`obs`] — the process-wide observability registry: lock-free sharded
//!   counters, histograms, and span timers every tier reports through,
//!   exportable as a deterministic JSON [`obs::MetricsSnapshot`].

pub mod bootstrap;
pub mod json;
pub mod obs;
pub mod plot;
pub mod regression;
pub mod stats;
pub mod sweep;
pub mod table;

pub use bootstrap::bootstrap_mean_ci;
pub use json::Json;
pub use obs::MetricsSnapshot;
pub use plot::{ascii_chart, Series};
pub use regression::{fit_power_law, linear_fit, LinearFit, PowerLawFit};
pub use stats::{StreamingSummary, Summary};
pub use sweep::{
    parallel_map, pool_threads, try_parallel_map_indexed, try_parallel_map_indexed_backoff,
    BackoffSchedule, LaneError,
};
pub use table::Table;
