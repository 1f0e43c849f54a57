//! # hourglass-iolb
//!
//! A from-scratch Rust reproduction of *"Tightening I/O Lower Bounds through
//! the Hourglass Dependency Pattern"* (Eyraud-Dubois, Iooss, Langou,
//! Rastello — SPAA 2024, arXiv:2404.16443).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`numeric`] | exact rationals, rational matrices, exact simplex LP |
//! | [`symbolic`] | multivariate polynomials, Faulhaber summation, bound expressions |
//! | [`ir`] | polyhedral-lite program IR, checked declared-access evaluator, dependence analysis |
//! | [`cdag`] | computational DAGs, red-white pebble game |
//! | [`memsim`] | two-level memory simulator (LRU / Belady-MIN) |
//! | [`kernels`] | f64 semantics (attached to the shipped kernel files by statement label) + interpreter, and native f64 MGS, Householder A2V/V2Q, GEBD2, GEHD2, GEMM, tiled variants |
//! | [`core`] | the paper: classical K-partitioning + hourglass bound derivation |
//!
//! ## Quickstart
//!
//! ```
//! use hourglass_iolb::prelude::*;
//!
//! // Derive the MGS bounds of the paper from its shipped kernel file.
//! let kernel = parse_kernel(include_str!("../kernels/mgs.iolb")).unwrap();
//! let report = KernelReport::from_file("MGS", &kernel).unwrap();
//! // σ = 3/2: the classical Brascamp–Lieb exponent…
//! assert_eq!(report.old.sigma, Rational::new(3, 2));
//! // …and the tightened hourglass bound M²(N−1)(N−2)/(8(S+M)).
//! let v = report.new.main_tool.eval_ints_f64(&[
//!     (Var::new("M"), 1000),
//!     (Var::new("N"), 100),
//!     (hourglass_iolb::core::s_var(), 500),
//! ]);
//! assert!(v > 0.0);
//! ```

pub use iolb_cdag as cdag;
pub use iolb_core as core;
pub use iolb_ir as ir;
pub use iolb_kernels as kernels;
pub use iolb_memsim as memsim;
pub use iolb_numeric as numeric;
pub use iolb_symbolic as symbolic;

/// Commonly used items in one import.
pub mod prelude {
    pub use iolb_cdag::{build_cdag, PebbleGame, SpillPolicy};
    pub use iolb_core::report::KernelReport;
    pub use iolb_core::{Analysis, ClassicalBound, HourglassBound};
    pub use iolb_ir::{parse_kernel, Program, ProgramBuilder};
    pub use iolb_memsim::IoStats;
    pub use iolb_numeric::Rational;
    pub use iolb_symbolic::{Expr, Poly, Var};
}
