#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Lower-bound adversaries (Section 3 and Theorem 8 of the paper).
//!
//! Each theorem's proof constructs a randomized request sequence (the only
//! randomness is one fair coin per phase, flipped obliviously — i.e.
//! independent of the online algorithm's behaviour) together with an
//! explicit, feasible trajectory for the adversary's own server. This
//! crate reifies those constructions as generators that return both the
//! [`msp_core::Instance`] and the adversary trajectory as a
//! [`Certificate`]: pricing the trajectory gives an *upper bound on OPT*,
//! so `C_Alg / C_certificate` is a valid **lower bound on the competitive
//! ratio** — exactly the quantity the lower-bound experiments must show
//! growing at the claimed rate.
//!
//! * [`thm1`] — no augmentation: ratio `Ω(√(T/D))`.
//! * [`thm2`] — augmentation `(1+δ)m`: ratio `Ω((1/δ)·R_max/R_min)`.
//! * [`thm3`] — Answer-First: ratio `Ω(r/D)`.
//! * [`thm8`] — Moving Client with a faster agent: ratio `Ω(√T·ε/(1+ε))`.

pub mod certificate;
pub mod thm1;
pub mod thm2;
pub mod thm3;
pub mod thm8;

pub use certificate::Certificate;
pub use thm1::{build_thm1, Thm1Params};
pub use thm2::{build_thm2, build_thm2_rotating, Thm2Params};
pub use thm3::{build_thm3, Thm3Params};
pub use thm8::{build_thm8, Thm8Params};
