//! GEMM baseline: `C = A·B` with the classical `i, j, k` loop nest.
//!
//! No hourglass here — the kernel validates the *classical* K-partitioning
//! path of the engine (projections `{i,j}, {i,k}, {k,j}`, exponent
//! `σ = 3/2`, the Irony–Toledo–Tiskin / Smith et al. `2·MNK/√S` shape) and
//! serves as the negative control for hourglass detection.

use crate::interp::{array_ids, Semantics};
use crate::matrix::Matrix;
use iolb_ir::Program;

/// GEMM semantics: parameters `M, N, K` (`C (M×N) += A (M×K) · B (K×N)`).
pub fn semantics(p: &Program) -> Result<Semantics, String> {
    let [a, bb, cc] = array_ids(p, ["A", "B", "C"])?;
    Ok(Semantics::default()
        .on("Cz", move |c| c.wr(cc, &[c.v(0), c.v(1)], 0.0))
        .on("SU", move |c| {
            let (i, j, k) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(cc, &[i, j]) + c.rd(a, &[i, k]) * c.rd(bb, &[k, j]);
            c.wr(cc, &[i, j], v);
        }))
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
        let p = crate::executable("gemm");
        let store = run_with_inputs(&p, &[5, 6, 4], &[("A", &a.data), ("B", &b.data)]);
        let c_ir = extract_matrix(&p.program, &[5, 6, 4], &store, "C");
        assert!(c_ir.max_abs_diff(&native(&a, &b)) < 1e-12);
    }

    #[test]
    fn ir_accesses_are_consistent() {
        assert!(
            crate::interp::validate_accesses(&crate::executable("gemm"), &[4, 5, 3]).unwrap() > 0
        );
    }
}
