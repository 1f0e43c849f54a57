//! GEBD2: reduction of an `M×N` matrix (`M ≥ N`) to upper bidiagonal form
//! by alternating left/right Householder reflectors (LAPACK's unblocked
//! routine). The left-update statements `SR`/`SU` carry the hourglass with
//! width `M − k ≥ M − N + 1`, matching Theorem 8.
//!
//! `kernels/gebd2.iolb` guards the right-reflector block with a 0/1 dummy
//! loop `for g in 0..min(1, -k + N - 1)` — the standard polyhedral
//! encoding of the `k ≤ N-2` condition, keeping the program affine.

use crate::interp::{array_ids, Semantics};
use crate::matrix::Matrix;
use iolb_ir::Program;

/// GEBD2 semantics: parameters `M, N` (assumes `M ≥ N` like LAPACK).
pub fn semantics(p: &Program) -> Result<Semantics, String> {
    let names = ["A", "tauq", "taup", "tmp", "tmp2", "norma2", "norma"];
    let [a, tauq, taup, tmp, tmp2, norma2, norma] = array_ids(p, names)?;
    Ok(Semantics::default()
        // ---- left reflector from A[k:M, k] ----
        .on("Bn0", move |c| c.wr(norma2, &[], 0.0))
        .on("Bn1", move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let x = c.rd(a, &[i, k]);
            let v = c.rd(norma2, &[]) + x * x;
            c.wr(norma2, &[], v);
        })
        .on("Bnorm", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let n2 = c.rd(norma2, &[]);
            c.wr(norma, &[], (akk * akk + n2).sqrt());
        })
        .on("Bakk", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { akk + nr } else { akk - nr });
        })
        .on("Btauq", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let n2 = c.rd(norma2, &[]);
            c.wr(tauq, &[k], 2.0 / (1.0 + n2 / (akk * akk)));
        })
        .on("Bscale", move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, k]) / c.rd(a, &[k, k]);
            c.wr(a, &[i, k], v);
        })
        .on("Bflip", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { -nr } else { nr });
        })
        // ---- apply left reflector to columns k+1..N (the hourglass) ----
        .on("Bt0", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = c.rd(a, &[k, j]);
            c.wr(tmp, &[j], v);
        })
        .on("SR", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(tmp, &[j]) + c.rd(a, &[i, k]) * c.rd(a, &[i, j]);
            c.wr(tmp, &[j], v);
        })
        .on("Bt1", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = c.rd(tauq, &[k]) * c.rd(tmp, &[j]);
            c.wr(tmp, &[j], v);
        })
        .on("Brow", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = c.rd(a, &[k, j]) - c.rd(tmp, &[j]);
            c.wr(a, &[k, j], v);
        })
        .on("SU", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(a, &[i, j]) - c.rd(a, &[i, k]) * c.rd(tmp, &[j]);
            c.wr(a, &[i, j], v);
        })
        // ---- right reflector from A[k, k+1:N], guarded by k ≤ N-2 ----
        .on("Cn0", move |c| c.wr(norma2, &[], 0.0))
        .on("Cn1", move |c| {
            let (k, j) = (c.v(0), c.v(2));
            let x = c.rd(a, &[k, j]);
            let v = c.rd(norma2, &[]) + x * x;
            c.wr(norma2, &[], v);
        })
        .on("Cnorm", move |c| {
            let k = c.v(0);
            let x = c.rd(a, &[k, k + 1]);
            let n2 = c.rd(norma2, &[]);
            c.wr(norma, &[], (x * x + n2).sqrt());
        })
        .on("Cak", move |c| {
            let k = c.v(0);
            let x = c.rd(a, &[k, k + 1]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k + 1], if x > 0.0 { x + nr } else { x - nr });
        })
        .on("Ctaup", move |c| {
            let k = c.v(0);
            let x = c.rd(a, &[k, k + 1]);
            let n2 = c.rd(norma2, &[]);
            c.wr(taup, &[k], 2.0 / (1.0 + n2 / (x * x)));
        })
        .on("Cscale", move |c| {
            let (k, j) = (c.v(0), c.v(2));
            let v = c.rd(a, &[k, j]) / c.rd(a, &[k, k + 1]);
            c.wr(a, &[k, j], v);
        })
        .on("Cflip", move |c| {
            let k = c.v(0);
            let x = c.rd(a, &[k, k + 1]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k + 1], if x > 0.0 { -nr } else { nr });
        })
        // Apply right reflector to rows k+1..M.
        .on("Ct0", move |c| {
            let (k, i) = (c.v(0), c.v(2));
            let v = c.rd(a, &[i, k + 1]);
            c.wr(tmp2, &[i], v);
        })
        .on("CSR", move |c| {
            let (k, i, j) = (c.v(0), c.v(2), c.v(3));
            let v = c.rd(tmp2, &[i]) + c.rd(a, &[i, j]) * c.rd(a, &[k, j]);
            c.wr(tmp2, &[i], v);
        })
        .on("Ct1", move |c| {
            let (k, i) = (c.v(0), c.v(2));
            let v = c.rd(taup, &[k]) * c.rd(tmp2, &[i]);
            c.wr(tmp2, &[i], v);
        })
        .on("Ccol", move |c| {
            let (k, i) = (c.v(0), c.v(2));
            let v = c.rd(a, &[i, k + 1]) - c.rd(tmp2, &[i]);
            c.wr(a, &[i, k + 1], v);
        })
        .on("CSU", move |c| {
            let (k, i, j) = (c.v(0), c.v(2), c.v(3));
            let v = c.rd(a, &[i, j]) - c.rd(tmp2, &[i]) * c.rd(a, &[k, j]);
            c.wr(a, &[i, j], v);
        }))
}

/// Native GEBD2; returns `(A with reflectors + bidiagonal, tauq, taup)`.
pub fn native(a0: &Matrix) -> (Matrix, Vec<f64>, Vec<f64>) {
    let (m, n) = (a0.rows, a0.cols);
    assert!(m >= n, "GEBD2 requires M ≥ N");
    let mut a = a0.clone();
    let mut tauq = vec![0.0; n];
    let mut taup = vec![0.0; n];
    for k in 0..n {
        // Left reflector from A[k:M, k].
        let mut norma2 = 0.0;
        for i in k + 1..m {
            norma2 += a[(i, k)] * a[(i, k)];
        }
        let norma = (a[(k, k)] * a[(k, k)] + norma2).sqrt();
        a[(k, k)] = if a[(k, k)] > 0.0 {
            a[(k, k)] + norma
        } else {
            a[(k, k)] - norma
        };
        tauq[k] = 2.0 / (1.0 + norma2 / (a[(k, k)] * a[(k, k)]));
        for i in k + 1..m {
            a[(i, k)] /= a[(k, k)];
        }
        a[(k, k)] = if a[(k, k)] > 0.0 { -norma } else { norma };
        for j in k + 1..n {
            let mut t = a[(k, j)];
            for i in k + 1..m {
                t += a[(i, k)] * a[(i, j)];
            }
            t *= tauq[k];
            a[(k, j)] -= t;
            for i in k + 1..m {
                a[(i, j)] -= a[(i, k)] * t;
            }
        }
        // Right reflector from A[k, k+1:N], when it exists.
        if k + 1 < n {
            let mut normb2 = 0.0;
            for j in k + 2..n {
                normb2 += a[(k, j)] * a[(k, j)];
            }
            let normb = (a[(k, k + 1)] * a[(k, k + 1)] + normb2).sqrt();
            a[(k, k + 1)] = if a[(k, k + 1)] > 0.0 {
                a[(k, k + 1)] + normb
            } else {
                a[(k, k + 1)] - normb
            };
            taup[k] = 2.0 / (1.0 + normb2 / (a[(k, k + 1)] * a[(k, k + 1)]));
            for j in k + 2..n {
                a[(k, j)] /= a[(k, k + 1)];
            }
            a[(k, k + 1)] = if a[(k, k + 1)] > 0.0 { -normb } else { normb };
            for i in k + 1..m {
                let mut t = a[(i, k + 1)];
                for j in k + 2..n {
                    t += a[(i, j)] * a[(k, j)];
                }
                t *= taup[k];
                a[(i, k + 1)] -= t;
                for j in k + 2..n {
                    a[(i, j)] -= t * a[(k, j)];
                }
            }
        }
    }
    (a, tauq, taup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{extract_matrix, extract_vector, run_with_inputs};
    use crate::matrix::{apply_reflector_right, dense_q_from_reflectors};

    /// Reconstructs `Qᵀ·A₀·P` from the stored reflectors and checks it is
    /// the stored bidiagonal.
    fn verify_bidiagonalization(a0: &Matrix, out: &Matrix, tauq: &[f64], taup: &[f64]) {
        let (m, n) = (a0.rows, a0.cols);
        let q = dense_q_from_reflectors(out, tauq, 0);
        // P = G_0 · G_1 · … (right reflectors stored in rows, offset k+1).
        let mut p = Matrix::identity(n);
        for k in 0..n.saturating_sub(1) {
            let essentials: Vec<f64> = (k + 2..n).map(|j| out[(k, j)]).collect();
            apply_reflector_right(&mut p, k + 1, &essentials, taup[k]);
        }
        let b = q.transpose().matmul(a0).matmul(&p);
        // Expected: bidiagonal with stored diagonal/superdiagonal.
        let mut expect = Matrix::zeros(m, n);
        for k in 0..n {
            expect[(k, k)] = out[(k, k)];
            if k + 1 < n {
                expect[(k, k + 1)] = out[(k, k + 1)];
            }
        }
        assert!(
            b.max_abs_diff(&expect) < 1e-9,
            "QᵀAP is the stored bidiagonal (err {})",
            b.max_abs_diff(&expect)
        );
        assert!(q.orthonormality_error() < 1e-10);
        assert!(p.orthonormality_error() < 1e-10);
    }

    #[test]
    fn native_bidiagonalizes() {
        let a0 = Matrix::random(9, 6, 51);
        let (out, tauq, taup) = native(&a0);
        verify_bidiagonalization(&a0, &out, &tauq, &taup);
    }

    #[test]
    fn square_case_works() {
        let a0 = Matrix::random(6, 6, 52);
        let (out, tauq, taup) = native(&a0);
        verify_bidiagonalization(&a0, &out, &tauq, &taup);
    }

    #[test]
    fn ir_matches_native() {
        let a0 = Matrix::random(8, 5, 53);
        let p = crate::executable("gebd2");
        let store = run_with_inputs(&p, &[8, 5], &[("A", &a0.data)]);
        let out_ir = extract_matrix(&p.program, &[8, 5], &store, "A");
        let tauq_ir = extract_vector(&p.program, &[8, 5], &store, "tauq");
        let taup_ir = extract_vector(&p.program, &[8, 5], &store, "taup");
        let (out, tauq, taup) = native(&a0);
        assert!(out_ir.max_abs_diff(&out) < 1e-12);
        for (x, y) in tauq_ir.iter().zip(&tauq) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in taup_ir.iter().zip(&taup) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn ir_accesses_are_consistent() {
        let p = crate::executable("gebd2");
        assert!(crate::interp::validate_accesses(&p, &[7, 5]).unwrap() > 0);
        assert!(crate::interp::validate_accesses(&p, &[6, 6]).unwrap() > 0);
    }
}
