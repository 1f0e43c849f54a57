//! The paper's linear-algebra kernels, from scratch: the reference the
//! shipped `kernels/*.iolb` files are checked against.
//!
//! The `.iolb` files are the one source of the paper kernels' IR for the
//! derivation engine, the figures and the validation sweep, and production
//! reads a statement as its declared accesses alone. This crate keeps, per
//! kernel of the evaluation (§5):
//!
//! 1. a **builder program with f64 semantics** ([`interp::Executable`]):
//!    the IR transcribed statement-for-statement from the paper's listings,
//!    each statement's hand-written closure beside it. The CLI's
//!    `paper_parity` test requires each shipped file to equal the builder
//!    structurally, and [`interp::validate_accesses`] checks every closure
//!    performs exactly its statement's declared accesses;
//! 2. a **native f64 implementation**, the numerical ground truth (QR /
//!    bidiagonal / Hessenberg reconstruction checks) the builder is run
//!    against (`ir_matches_native`), also timed by the benchmarks.
//!
//! [`interp`] is the one interpreter of those semantics. The tiled
//! Fig. 8/9 programs of Appendix A are the builder reference of
//! `kernels/tiled/*.iolb`, which `iolb-bench` prices.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`mgs`] | Modified Gram-Schmidt, right-looking (Fig. 1) + tiled left-looking (Fig. 8, Appendix A.1) |
//! | [`householder`] | QR Householder A2V/GEQR2 (Fig. 3), V2Q/ORG2R (Fig. 6), tiled A2V (Fig. 9, Appendix A.2) |
//! | [`gebd2`] | reduction to bidiagonal form (LAPACK GEBD2) |
//! | [`gehd2`] | reduction to Hessenberg form (Fig. 7) |
//! | [`gemm`] | matrix multiply — the classical K-partitioning baseline (no hourglass) |

pub mod exec;
pub mod gebd2;
pub mod gehd2;
pub mod gemm;
pub mod householder;
pub mod interp;
pub mod matrix;
pub mod mgs;

pub use interp::{Executable, Interpreter};
pub use matrix::Matrix;
