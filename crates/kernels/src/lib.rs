//! The paper's linear-algebra kernels, from scratch: the f64 ground truth
//! of the shipped `kernels/*.iolb` and `kernels/tiled/*.iolb` files.
//!
//! The `.iolb` files are the one source of the paper kernels' IR, for the
//! derivation engine, the figures and the validation sweep alike, and
//! production reads a statement as its declared accesses alone. This crate
//! keeps, per kernel of the evaluation (§5):
//!
//! 1. a **semantics table**: each statement's hand-written f64 closure,
//!    keyed by its label and bound to the statements of the parsed file by
//!    [`Executable::attach`] ([`executable`]). [`interp`] runs it, and
//!    [`interp::validate_accesses`] checks that every closure performs
//!    exactly its statement's declared accesses;
//! 2. a **native f64 implementation**, the numerical ground truth (QR /
//!    bidiagonal / Hessenberg reconstruction checks) each file is run
//!    against (`ir_matches_native`), also timed by the benchmarks.
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

use interp::Table;
use iolb_ir::Program;

/// `(stem, text, table)` of the shipped file `kernels/{stem}.iolb`.
macro_rules! shipped {
    ($stem:literal, $table:expr) => {
        (
            $stem,
            include_str!(concat!("../../../kernels/", $stem, ".iolb")),
            $table,
        )
    };
}

/// Every shipped file this crate has semantics for: its path under
/// `kernels/` without the extension, its text, and its semantics table.
const FILES: [(&str, &str, Table); 8] = [
    shipped!("mgs", mgs::semantics),
    shipped!("tiled/mgs_tiled", mgs::tiled_semantics),
    shipped!("qr_hh_a2v", householder::a2v_semantics),
    shipped!("qr_hh_v2q", householder::v2q_semantics),
    shipped!("tiled/qr_hh_a2v_tiled", householder::a2v_tiled_semantics),
    shipped!("gebd2", gebd2::semantics),
    shipped!("gehd2", gehd2::semantics),
    shipped!("gemm", gemm::semantics),
];

fn file(stem: &str) -> (Program, Table) {
    let (_, text, table) = FILES
        .iter()
        .find(|(s, _, _)| *s == stem)
        .unwrap_or_else(|| panic!("no shipped paper kernel kernels/{stem}.iolb"));
    let program =
        iolb_ir::parse_program(text).unwrap_or_else(|e| panic!("kernels/{stem}.iolb: {e}"));
    (program, *table)
}

/// The program of the shipped file `kernels/{stem}.iolb` (`"mgs"`,
/// `"tiled/mgs_tiled"`, …).
///
/// # Panics
/// Panics on a stem with no semantics here or a file that does not parse.
pub fn program(stem: &str) -> Program {
    file(stem).0
}

/// The program of `kernels/{stem}.iolb` with its f64 semantics attached.
///
/// # Panics
/// As [`program`], and when the file's labels and the table disagree.
pub fn executable(stem: &str) -> Executable {
    let (program, table) = file(stem);
    Executable::attach(program, table).unwrap_or_else(|e| panic!("kernels/{stem}.iolb: {e}"))
}
