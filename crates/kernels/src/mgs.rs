//! Modified Gram-Schmidt: the paper's running example.
//!
//! * [`semantics`] — the statements of `kernels/mgs.iolb`, the
//!   right-looking variant of Figure 1 (statements `SR`/`SU` form the
//!   hourglass).
//! * [`tiled_semantics`] / [`tiled_native`] — the left-looking tiled
//!   ordering of Figure 8 (Appendix A.1) with block size `B`,
//!   `kernels/tiled/mgs_tiled.iolb`, whose measured I/O is `≈ ½·M²N²/S`
//!   when `B = ⌊S/M⌋ − 1` — the upper bound that matches the new
//!   hourglass lower bound of Theorem 5.
//! * [`native`] — the numerical ground truth.

use crate::interp::{array_ids, Semantics};
use crate::matrix::Matrix;
use iolb_ir::Program;

/// Right-looking MGS (Figure 1): `A (M×N) → Q (M×N), R (N×N)`.
pub fn semantics(p: &Program) -> Result<Semantics, String> {
    let [a, q, r, nrm] = array_ids(p, ["A", "Q", "R", "nrm"])?;
    Ok(Semantics::default()
        .on("nrm0", move |c| c.wr(nrm, &[], 0.0))
        .on("nrm1", move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let x = c.rd(a, &[i, k]);
            let v = c.rd(nrm, &[]) + x * x;
            c.wr(nrm, &[], v);
        })
        .on("rkk", move |c| {
            let v = c.rd(nrm, &[]).sqrt();
            c.wr(r, &[c.v(0), c.v(0)], v);
        })
        .on("qdiv", move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, k]) / c.rd(r, &[k, k]);
            c.wr(q, &[i, k], v);
        })
        .on("r0", move |c| c.wr(r, &[c.v(0), c.v(1)], 0.0))
        .on("SR", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(r, &[k, j]) + c.rd(q, &[i, k]) * c.rd(a, &[i, j]);
            c.wr(r, &[k, j], v);
        })
        .on("SU", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(a, &[i, j]) - c.rd(q, &[i, k]) * c.rd(r, &[k, j]);
            c.wr(a, &[i, j], v);
        }))
}

/// Left-looking tiled MGS (Figure 8): parameters `M, N, B`; Q is produced
/// in place of `A`.
pub fn tiled_semantics(p: &Program) -> Result<Semantics, String> {
    let [a, r] = array_ids(p, ["A", "R"])?;
    Ok(Semantics::default()
        // Projection against all columns left of the block.
        .on("Tr0", move |c| c.wr(r, &[c.v(1), c.v(2)], 0.0))
        .on("Tr1", move |c| {
            let (i, j, k) = (c.v(1), c.v(2), c.v(3));
            let v = c.rd(r, &[i, j]) + c.rd(a, &[k, i]) * c.rd(a, &[k, j]);
            c.wr(r, &[i, j], v);
        })
        .on("Tu", move |c| {
            let (i, j, k) = (c.v(1), c.v(2), c.v(3));
            let v = c.rd(a, &[k, j]) - c.rd(a, &[k, i]) * c.rd(r, &[i, j]);
            c.wr(a, &[k, j], v);
        })
        // Panel factorization inside the block.
        .on("Ts0", move |c| c.wr(r, &[c.v(2), c.v(1)], 0.0))
        .on("Ts1", move |c| {
            let (j, i, k) = (c.v(1), c.v(2), c.v(3));
            let v = c.rd(r, &[i, j]) + c.rd(a, &[k, i]) * c.rd(a, &[k, j]);
            c.wr(r, &[i, j], v);
        })
        .on("Tsu", move |c| {
            let (j, i, k) = (c.v(1), c.v(2), c.v(3));
            let v = c.rd(a, &[k, j]) - c.rd(a, &[k, i]) * c.rd(r, &[i, j]);
            c.wr(a, &[k, j], v);
        })
        .on("Td0", move |c| c.wr(r, &[c.v(1), c.v(1)], 0.0))
        .on("Td1", move |c| {
            let (j, k) = (c.v(1), c.v(2));
            let x = c.rd(a, &[k, j]);
            let v = c.rd(r, &[j, j]) + x * x;
            c.wr(r, &[j, j], v);
        })
        .on("Tdsq", move |c| {
            let j = c.v(1);
            let v = c.rd(r, &[j, j]).sqrt();
            c.wr(r, &[j, j], v);
        })
        .on("Tdd", move |c| {
            let (j, k) = (c.v(1), c.v(2));
            let v = c.rd(a, &[k, j]) / c.rd(r, &[j, j]);
            c.wr(a, &[k, j], v);
        }))
}

/// Native right-looking MGS; returns `(Q, R)`.
pub fn native(a0: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut q = Matrix::zeros(m, n);
    let mut r = Matrix::zeros(n, n);
    for k in 0..n {
        let mut nrm = 0.0;
        for i in 0..m {
            nrm += a[(i, k)] * a[(i, k)];
        }
        r[(k, k)] = nrm.sqrt();
        for i in 0..m {
            q[(i, k)] = a[(i, k)] / r[(k, k)];
        }
        for j in k + 1..n {
            r[(k, j)] = 0.0;
            for i in 0..m {
                r[(k, j)] += q[(i, k)] * a[(i, j)];
            }
            for i in 0..m {
                a[(i, j)] -= q[(i, k)] * r[(k, j)];
            }
        }
    }
    (q, r)
}

/// Native tiled left-looking MGS (Figure 8); returns `(Q, R)` with Q in
/// place of A.
pub fn tiled_native(a0: &Matrix, block: usize) -> (Matrix, Matrix) {
    assert!(block >= 1, "block size must be positive");
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut r = Matrix::zeros(n, n);
    let mut j0 = 0;
    while j0 < n {
        let jend = (j0 + block).min(n);
        for i in 0..j0 {
            for j in j0..jend {
                r[(i, j)] = 0.0;
                for k in 0..m {
                    r[(i, j)] += a[(k, i)] * a[(k, j)];
                }
                for k in 0..m {
                    a[(k, j)] -= a[(k, i)] * r[(i, j)];
                }
            }
        }
        for j in j0..jend {
            for i in j0..j {
                r[(i, j)] = 0.0;
                for k in 0..m {
                    r[(i, j)] += a[(k, i)] * a[(k, j)];
                }
                for k in 0..m {
                    a[(k, j)] -= a[(k, i)] * r[(i, j)];
                }
            }
            r[(j, j)] = 0.0;
            for k in 0..m {
                r[(j, j)] += a[(k, j)] * a[(k, j)];
            }
            r[(j, j)] = r[(j, j)].sqrt();
            for k in 0..m {
                a[(k, j)] /= r[(j, j)];
            }
        }
        j0 += block;
    }
    (a, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{extract_matrix, run_with_inputs};
    use crate::interp::validate_accesses;

    #[test]
    fn native_mgs_is_a_qr_factorization() {
        let a = Matrix::random(12, 7, 42);
        let (q, r) = native(&a);
        assert!(q.orthonormality_error() < 1e-10, "Q columns orthonormal");
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10, "QR = A");
        assert_eq!(r.below_diagonal_max(), 0.0, "R upper triangular");
    }

    #[test]
    fn ir_matches_native() {
        let a = Matrix::random(9, 6, 7);
        let p = crate::executable("mgs");
        let store = run_with_inputs(&p, &[9, 6], &[("A", &a.data)]);
        let q_ir = extract_matrix(&p.program, &[9, 6], &store, "Q");
        let r_ir = extract_matrix(&p.program, &[9, 6], &store, "R");
        let (q, r) = native(&a);
        assert!(q_ir.max_abs_diff(&q) < 1e-13);
        assert!(r_ir.max_abs_diff(&r) < 1e-13);
    }

    #[test]
    fn ir_accesses_are_consistent() {
        let n = validate_accesses(&crate::executable("mgs"), &[7, 5]).unwrap();
        assert!(n > 0);
    }

    #[test]
    fn tiled_native_matches_untiled() {
        let a = Matrix::random(14, 9, 3);
        let (q_ref, r_ref) = native(&a);
        for block in [1, 2, 3, 9] {
            let (q, r) = tiled_native(&a, block);
            assert!(q.max_abs_diff(&q_ref) < 1e-9, "B={block}");
            assert!(r.max_abs_diff(&r_ref) < 1e-9, "B={block}");
        }
    }

    /// `B = 3` does not divide `N = 7`: the last block is narrower, and
    /// only the `min(j0 + B, N)` bound stops it at `N`.
    const TILED_CASES: [[i64; 3]; 4] = [[8, 6, 2], [8, 6, 3], [8, 6, 6], [9, 7, 3]];

    #[test]
    fn tiled_ir_matches_tiled_native() {
        let p = crate::executable("tiled/mgs_tiled");
        for params @ [m, n, block] in TILED_CASES {
            let a = Matrix::random(m as usize, n as usize, 11);
            let store = run_with_inputs(&p, &params, &[("A", &a.data)]);
            let q_ir = extract_matrix(&p.program, &params, &store, "A");
            let r_ir = extract_matrix(&p.program, &params, &store, "R");
            let (q, r) = tiled_native(&a, block as usize);
            assert!(q_ir.max_abs_diff(&q) < 1e-13, "{params:?}");
            assert!(r_ir.max_abs_diff(&r) < 1e-13, "{params:?}");
        }
    }

    #[test]
    fn tiled_ir_accesses_are_consistent() {
        let p = crate::executable("tiled/mgs_tiled");
        for params in TILED_CASES {
            assert!(validate_accesses(&p, &params).unwrap() > 0, "{params:?}");
        }
    }
}
