#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness for the Mobile Server Problem reproduction.
//!
//! The paper is theory-only, so its "evaluation" is the set of theorem
//! statements; every experiment here regenerates one theorem's *shape*
//! (growth in `T`, scaling in `δ`, `r/D`, `R_max/R_min`, `ε`) or checks a
//! lemma's geometry numerically. The per-experiment index lives in
//! `DESIGN.md`; `EXPERIMENTS.md` records paper-vs-measured for every run.
//!
//! All experiments are pure functions from a [`Scale`] to an
//! [`report::ExperimentReport`]; the `experiments` binary prints them as
//! Markdown.

pub mod experiments;
pub mod report;
pub mod runner;

pub use report::ExperimentReport;
pub use runner::Scale;

/// An experiment entry point: a scale in, a rendered report out.
pub type ExperimentFn = fn(Scale) -> ExperimentReport;

/// Returns every experiment in the suite as `(id, function)` pairs, in
/// presentation order.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("e1", experiments::e1::run as ExperimentFn),
        ("e2", experiments::e2::run),
        ("e3", experiments::e3::run),
        ("e4a", experiments::e4a::run),
        ("e4b", experiments::e4b::run),
        ("e5", experiments::e5::run),
        ("e6", experiments::e6::run),
        ("e7", experiments::e7::run),
        ("e8", experiments::e8::run),
        ("e9", experiments::e9::run),
        ("e10", experiments::e10::run),
        ("e11", experiments::e11::run),
        ("e12", experiments::e12::run),
        ("e13", experiments::e13::run),
        ("a1", experiments::a1::run),
        ("a2", experiments::a2::run),
        ("a3", experiments::a3::run),
        ("a4", experiments::a4::run),
        ("v1", experiments::v1::run),
    ]
}
