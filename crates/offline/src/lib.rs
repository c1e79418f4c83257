#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Offline optimum solvers for the Mobile Server Problem.
//!
//! Competitive analysis compares an online algorithm against the optimal
//! *offline* solution, which sees the whole request sequence in advance.
//! The paper never needs to compute that optimum (its proofs construct
//! explicit adversary trajectories); an empirical reproduction does. The
//! offline problem is
//!
//! ```text
//! minimize   Σ_t ( D·‖P_t − P_{t−1}‖ + Σ_i ‖P_serve(t) − v_{t,i}‖ )
//! subject to ‖P_t − P_{t−1}‖ ≤ m,   P_0 given,
//! ```
//!
//! which is jointly **convex** in the trajectory `(P_1, …, P_T)` with
//! convex constraints. Three solvers, strongest first:
//!
//! * [`line`](mod@line) — **exact** solver for the 1-D case. The cost-to-go function
//!   is convex piecewise-linear; the per-step transform is a closed-form
//!   Lipschitz-clamp-and-widen (see [`pwl`]), so the DP is exact up to
//!   floating-point rounding.
//! * [`convex`] — projected subgradient descent with Dykstra projections
//!   for arbitrary dimension, polished by coordinate descent; converges to
//!   the global optimum of the convex program (tolerance reported).
//! * [`grid`] — brute-force dynamic program on a discretized arena: the
//!   radius-pruned `O(cells · windowᴺ · T)` neighbor-window scan, certified
//!   bit for bit by the all-pairs `O(cells² · T)` oracle, plus one-pass
//!   prefix optima for horizon sweeps ([`GridDp::prefix_optima`]). Only
//!   practical for modest instances; exists to cross-validate the other
//!   two solvers and to certify them in property tests.
//! * [`probe`] — *online* certified **lower** bounds on the offline
//!   optimum ([`probe::RatioProbe`]): per-axis projection optima via
//!   [`IncrementalLineOpt`] plus windowed deflated grid DPs, so a live
//!   streaming session can report `alg_cost / OPT_lower_bound` without
//!   ever seeing the future.

pub mod convex;
pub mod grid;
pub mod line;
pub mod probe;
pub mod pwl;

pub use convex::{ConvexSolver, ConvexSolverOptions};
pub use grid::{grid_optimum, grid_optimum_unpruned, GridDp};
pub use line::{solve_line, solve_line_with_trajectory, IncrementalLineOpt, LineSolution};
pub use probe::{run_streaming_probed, ProbeOptions, RatioProbe, RatioSample};
pub use pwl::ConvexPwl;
