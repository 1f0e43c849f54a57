//! GEMM baseline: `C = A·B` with the classical `i, j, k` loop nest.
//!
//! No hourglass here — the kernel validates the *classical* K-partitioning
//! path of the engine (projections `{i,j}, {i,k}, {k,j}`, exponent
//! `σ = 3/2`, the Irony–Toledo–Tiskin / Smith et al. `2·MNK/√S` shape) and
//! serves as the negative control for hourglass detection.

use crate::interp::{Executable, Semantics};
use crate::matrix::Matrix;
use iolb_ir::{Access, Program, ProgramBuilder};

/// GEMM IR: parameters `M, N, K` (`C (M×N) += A (M×K) · B (K×N)`).
pub fn executable() -> Executable {
    let mut b = ProgramBuilder::new("gemm", &["M", "N", "K"]);
    let mut sem = Semantics::default();
    let a = b.array("A", &[b.p("M"), b.p("K")]);
    let bb = b.array("B", &[b.p("K"), b.p("N")]);
    let cc = b.array("C", &[b.p("M"), b.p("N")]);

    let i = b.open("i", b.c(0), b.p("M"));
    let j = b.open("j", b.c(0), b.p("N"));
    let w_cij = Access::new(cc, vec![b.d(i), b.d(j)]);
    sem.def(b.stmt("Cz", vec![], vec![w_cij.clone()]), move |c| {
        c.wr(cc, &[c.v(0), c.v(1)], 0.0)
    });
    {
        let k = b.open("k", b.c(0), b.p("K"));
        let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
        let r_bkj = Access::new(bb, vec![b.d(k), b.d(j)]);
        sem.def(
            b.stmt("SU", vec![r_aik, r_bkj, w_cij.clone()], vec![w_cij]),
            move |c| {
                let (i, j, k) = (c.v(0), c.v(1), c.v(2));
                let v = c.rd(cc, &[i, j]) + c.rd(a, &[i, k]) * c.rd(bb, &[k, j]);
                c.wr(cc, &[i, j], v);
            },
        );
        b.close();
    }
    b.close();
    b.close();
    Executable::new(b.finish(), sem)
}

/// The declared-access program of [`executable`].
pub fn program() -> Program {
    executable().program
}

/// Native GEMM.
pub fn native(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{extract_matrix, run_with_inputs};

    #[test]
    fn ir_matches_native() {
        let a = Matrix::random(5, 4, 71);
        let b = Matrix::random(4, 6, 72);
        let p = executable();
        let store = run_with_inputs(&p, &[5, 6, 4], &[("A", &a), ("B", &b)]);
        let c_ir = extract_matrix(&p.program, &[5, 6, 4], &store, "C");
        assert!(c_ir.max_abs_diff(&native(&a, &b)) < 1e-12);
    }

    #[test]
    fn ir_accesses_are_consistent() {
        assert!(crate::interp::validate_accesses(&executable(), &[4, 5, 3]).unwrap() > 0);
    }
}
