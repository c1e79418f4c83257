#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The Mobile Server Problem — core model and algorithms.
//!
//! This crate implements the primary contribution of Feldkord & Meyer auf
//! der Heide, *The Mobile Server Problem* (SPAA 2017 / arXiv 1904.05220):
//!
//! * the **model** ([`model`]): a single mobile server holding a data page
//!   in Euclidean `N`-space; per step, `r_t` requests appear, the server
//!   moves at most `m`, paying `D·d(P_t, P_{t+1})` for movement and the sum
//!   of request distances for service;
//! * the two **serving orders** ([`cost::ServingOrder`]): Move-First (the
//!   paper's default — move knowing the requests, then serve from the new
//!   position) and Answer-First (serve first, then move);
//! * the **Move-to-Center algorithm** ([`mtc::MoveToCenter`]), the paper's
//!   deterministic online algorithm: head towards the 1-median `c` of the
//!   current requests by `min{1, r/D}·d(P, c)`, capped at the (possibly
//!   augmented) movement budget `(1+δ)m`;
//! * **baseline online algorithms** ([`baselines`]) used by the experiment
//!   suite: never-move, greedy full-speed chase, a Move-To-Min adaptation
//!   of Westbrook's page-migration algorithm, a randomized coin-flip
//!   migration, and step-rule/center ablation variants;
//! * the **simulator** ([`simulator`]) that runs any
//!   [`algorithm::OnlineAlgorithm`] over an [`model::Instance`] with strict
//!   budget enforcement and full per-step cost traces — including the
//!   batched fast path [`simulator::run_batch`], which prices many δ
//!   values under both serving orders in one pass over the steps;
//! * the **Moving-Client variant** ([`moving_client`]) of Section 5, where
//!   the single requester is itself speed-limited.
//!
//! Lower-bound adversaries live in `msp-adversary`; offline optimum solvers
//! in `msp-offline`; workload generators in `msp-workloads`.

pub mod algorithm;
pub mod baselines;
pub mod cost;
pub mod fleet;
pub mod model;
pub mod moving_client;
pub mod mtc;
pub mod ratio;
pub mod simulator;

pub use algorithm::{AlgContext, BoxedAlgorithm, OnlineAlgorithm, WarmStateCodec, WarmStateError};
pub use cost::{CostBreakdown, ServingOrder, StepCost};
pub use model::{Instance, Step};
pub use mtc::MoveToCenter;
pub use ratio::competitive_ratio;
pub use simulator::{run, run_batch, RunResult};

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::algorithm::{AlgContext, OnlineAlgorithm};
    pub use crate::baselines::{FollowCenter, Lazy, MoveToMin, RandomizedCoinFlip};
    pub use crate::cost::{CostBreakdown, ServingOrder};
    pub use crate::model::{Instance, Step};
    pub use crate::moving_client::{AgentWalk, MovingClientInstance, MultiAgentInstance};
    pub use crate::mtc::MoveToCenter;
    pub use crate::ratio::competitive_ratio;
    pub use crate::simulator::{run, run_batch, RunResult};
    pub use msp_geometry::{Point, P1, P2, P3};
}
