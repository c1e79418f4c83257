#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # mobile-server
//!
//! A complete reproduction of **“The Mobile Server Problem”** (Björn
//! Feldkord and Friedhelm Meyer auf der Heide, SPAA 2017 / arXiv
//! 1904.05220): a speed-limited mobile server holds a data page in
//! Euclidean space; requests arrive each round and are served at their
//! distance to the server; moving costs `D` per unit distance, at most `m`
//! per round.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`msp-core`) — the model, cost accounting, the
//!   **Move-to-Center** algorithm, baselines, the simulator, and the
//!   Moving-Client variant.
//! * [`geometry`] (`msp-geometry`) — points, medians, sampling.
//! * [`offline`] (`msp-offline`) — exact 1-D and near-exact N-D offline
//!   optimum solvers.
//! * [`adversary`] (`msp-adversary`) — the lower-bound constructions of
//!   Theorems 1, 2, 3 and 8 with offline-cost certificates.
//! * [`workloads`] (`msp-workloads`) — seeded synthetic workloads.
//! * [`scenarios`] (`msp-scenarios`) — the streaming scenario engine:
//!   named scenario registry, replayable request streams, durable trace
//!   record/replay, bounded-memory runs.
//! * [`analysis`] (`msp-analysis`) — statistics, fits, tables, parallel
//!   sweeps.
//!
//! ## Quickstart
//!
//! ```rust
//! use mobile_server::prelude::*;
//!
//! // A stream of requests drifting to the right on the plane.
//! let steps: Vec<Step<2>> = (0..100)
//!     .map(|t| Step::single(P2::xy(0.1 * t as f64, 1.0)))
//!     .collect();
//! let instance = Instance::new(4.0, 1.0, P2::origin(), steps);
//!
//! // Run the paper's algorithm with 10% resource augmentation.
//! let mut alg = MoveToCenter::new();
//! let result = run(&instance, &mut alg, 0.1, ServingOrder::MoveFirst);
//! assert!(result.total_cost() > 0.0);
//! ```

pub use msp_adversary as adversary;
pub use msp_analysis as analysis;
pub use msp_core as core;
pub use msp_geometry as geometry;
pub use msp_offline as offline;
pub use msp_scenarios as scenarios;
pub use msp_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use msp_adversary::{
        build_thm1, build_thm2, build_thm3, build_thm8, Certificate, Thm1Params, Thm2Params,
        Thm3Params, Thm8Params,
    };
    pub use msp_analysis::{fit_power_law, Summary, Table};
    pub use msp_core::cost::ServingOrder;
    pub use msp_core::prelude::*;
    pub use msp_geometry::{Point, P1, P2, P3};
    pub use msp_offline::{solve_line, ConvexSolver};
    pub use msp_scenarios::{
        collect_instance, lookup, registry, run_stream, RequestStream, ScenarioKnobs, ScenarioSpec,
        TraceFormat,
    };
    pub use msp_workloads::{
        AgentFleet, AgentFleetConfig, ClusterMixture, ClusterMixtureConfig, DriftingHotspot,
        DriftingHotspotConfig, RandomWalk, RandomWalkConfig, RequestCount,
    };
}
