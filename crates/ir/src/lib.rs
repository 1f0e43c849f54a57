//! Polyhedral-lite program IR: the substrate IOLB analyses run on.
//!
//! The paper's derivations operate on *affine programs*: nested loops whose
//! bounds and array subscripts are affine in the surrounding loop indices
//! and program parameters (§2). IOLB consumes such programs through ISL;
//! this crate provides a from-scratch equivalent sized for the kernel class
//! of the paper:
//!
//! * [`affine`] — affine expressions over loop dimensions and parameters,
//! * [`program`] — loop-tree programs whose statements are their declared
//!   affine accesses: the one statement semantics every analysis reads,
//! * [`interp`] — the schedule-order instance walker and the checked
//!   declared-access evaluator ([`interp::DeclaredAccesses`]): every access
//!   of every instance becomes a dense cell id, and a subscript outside its
//!   array is a typed [`interp::OutOfRange`] refusal,
//! * [`deps`] — structural dependence analysis: unification of read/write
//!   subscripts plus last-writer resolution, yielding the dependence-path
//!   projections `Φ` of the K-partitioning method,
//! * [`count`] — symbolic statement-instance counting (`|V|`, domain widths)
//!   via Faulhaber summation,
//! * [`parse`] — the textual `.iolb` kernel DSL: parser with spanned
//!   errors, pretty-printer, and structural program equality, opening the
//!   analyses to workloads beyond the built-in paper kernels,
//! * [`schedule`] — loop-tiling schedule transformations (strip-mine +
//!   hoist): reorders instance enumeration into blocked order without
//!   changing any instance's accesses, the upper-bound half of the
//!   tightness harness.

pub mod admission;
pub mod affine;
pub mod count;
pub mod deps;
pub mod interp;
// The parser is the user-input path: a panic here is an unhandled denial
// of service on any served batch, so unwrap/expect are denied outright
// and survivors converted to spanned `ParseError`s.
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod parse;
pub mod program;
pub mod schedule;

pub use affine::{Aff, DimId, ParamId};
pub use interp::{
    check_accesses, for_each_instance, try_for_each_instance, DeclaredAccesses, OutOfRange,
};
pub use parse::{
    assert_kernel_roundtrip, kernel_diff, parse_kernel, parse_program, print_kernel, print_program,
    KernelFile, ParseError, TileDirective,
};
pub use program::{
    Access, ArrayDecl, ArrayId, Loop, LoopStep, Program, ProgramBuilder, Statement, Step, StmtId,
};
pub use schedule::{enumerate_instances, tile_program, TileSpec};
