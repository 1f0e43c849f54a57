//! GEHD2 (Figure 7): reduction of an `N×N` matrix to upper Hessenberg form
//! by similarity transformations `A ← Hⱼ·A·Hⱼ`.
//!
//! The left-update statement `SU1` carries the hourglass; its width
//! `N − 2 − j` shrinks to 1 at the last iterations, which is why §5.3 splits
//! the outer loop at a symbolic point `M` before applying the hourglass
//! derivation (handled by `iolb-core`).

use crate::interp::{array_ids, Semantics};
use crate::matrix::Matrix;
use iolb_ir::Program;

/// GEHD2 semantics: single parameter `N`.
pub fn semantics(p: &Program) -> Result<Semantics, String> {
    let [a, tmp, norma2, norma, tau] = array_ids(p, ["A", "tmp", "norma2", "norma", "tau"])?;
    Ok(Semantics::default()
        .on("Gn0", move |c| c.wr(norma2, &[], 0.0))
        .on("Gn1", move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let x = c.rd(a, &[i, j]);
            let v = c.rd(norma2, &[]) + x * x;
            c.wr(norma2, &[], v);
        })
        .on("Gnorm", move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let n2 = c.rd(norma2, &[]);
            c.wr(norma, &[], (x * x + n2).sqrt());
        })
        .on("Ga", move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[j + 1, j], if x > 0.0 { x + nr } else { x - nr });
        })
        .on("Gtau", move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let n2 = c.rd(norma2, &[]);
            c.wr(tau, &[], 2.0 / (1.0 + n2 / (x * x)));
        })
        .on("Gscale", move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, j]) / c.rd(a, &[j + 1, j]);
            c.wr(a, &[i, j], v);
        })
        .on("Gflip", move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[j + 1, j], if x > 0.0 { -nr } else { nr });
        })
        // ---- left application: rows j+1.., columns i in j+1..N ----
        .on("Gt0", move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[j + 1, i]);
            c.wr(tmp, &[i], v);
        })
        .on("SR1", move |c| {
            let (j, i, k) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(tmp, &[i]) + c.rd(a, &[k, j]) * c.rd(a, &[k, i]);
            c.wr(tmp, &[i], v);
        })
        .on("Gt1", move |c| {
            let i = c.v(1);
            let v = c.rd(tmp, &[i]) * c.rd(tau, &[]);
            c.wr(tmp, &[i], v);
        })
        .on("Gr1", move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[j + 1, i]) - c.rd(tmp, &[i]);
            c.wr(a, &[j + 1, i], v);
        })
        .on("SU1", move |c| {
            let (j, i, k) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(a, &[i, k]) - c.rd(a, &[i, j]) * c.rd(tmp, &[k]);
            c.wr(a, &[i, k], v);
        })
        // ---- right application: all rows, columns j+2..N ----
        .on("Gt2", move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, j + 1]);
            c.wr(tmp, &[i], v);
        })
        .on("SR2", move |c| {
            let (j, i, k) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(tmp, &[i]) + c.rd(a, &[i, k]) * c.rd(a, &[k, j]);
            c.wr(tmp, &[i], v);
        })
        .on("Gt3", move |c| {
            let i = c.v(1);
            let v = c.rd(tmp, &[i]) * c.rd(tau, &[]);
            c.wr(tmp, &[i], v);
        })
        .on("Gr2", move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, j + 1]) - c.rd(tmp, &[i]);
            c.wr(a, &[i, j + 1], v);
        })
        .on("SU2", move |c| {
            let (j, i, k) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(a, &[i, k]) - c.rd(tmp, &[i]) * c.rd(a, &[k, j]);
            c.wr(a, &[i, k], v);
        }))
}

/// Native GEHD2 (mirrors Figure 7); returns `(A with reflectors +
/// Hessenberg, taus)`.
pub fn native(a0: &Matrix) -> (Matrix, Vec<f64>) {
    let n = a0.rows;
    assert_eq!(a0.cols, n, "GEHD2 needs a square matrix");
    let mut a = a0.clone();
    let mut taus = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    for j in 0..n.saturating_sub(2) {
        let mut norma2 = 0.0;
        for i in j + 2..n {
            norma2 += a[(i, j)] * a[(i, j)];
        }
        let norma = (a[(j + 1, j)] * a[(j + 1, j)] + norma2).sqrt();
        a[(j + 1, j)] = if a[(j + 1, j)] > 0.0 {
            a[(j + 1, j)] + norma
        } else {
            a[(j + 1, j)] - norma
        };
        let tau = 2.0 / (1.0 + norma2 / (a[(j + 1, j)] * a[(j + 1, j)]));
        taus[j] = tau;
        for i in j + 2..n {
            a[(i, j)] /= a[(j + 1, j)];
        }
        a[(j + 1, j)] = if a[(j + 1, j)] > 0.0 { -norma } else { norma };
        // Left application.
        for i in j + 1..n {
            tmp[i] = a[(j + 1, i)];
            for k in j + 2..n {
                tmp[i] += a[(k, j)] * a[(k, i)];
            }
        }
        for t in tmp.iter_mut().take(n).skip(j + 1) {
            *t *= tau;
        }
        for i in j + 1..n {
            a[(j + 1, i)] -= tmp[i];
        }
        for i in j + 2..n {
            for k in j + 1..n {
                a[(i, k)] -= a[(i, j)] * tmp[k];
            }
        }
        // Right application.
        for i in 0..n {
            tmp[i] = a[(i, j + 1)];
            for k in j + 2..n {
                tmp[i] += a[(i, k)] * a[(k, j)];
            }
        }
        for t in tmp.iter_mut().take(n) {
            *t *= tau;
        }
        for i in 0..n {
            a[(i, j + 1)] -= tmp[i];
        }
        for i in 0..n {
            for k in j + 2..n {
                a[(i, k)] -= tmp[i] * a[(k, j)];
            }
        }
    }
    (a, taus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{extract_matrix, run_with_inputs};
    use crate::matrix::dense_q_from_reflectors;

    #[test]
    fn native_produces_hessenberg_similarity() {
        let a0 = Matrix::random(8, 8, 61);
        let (out, taus) = native(&a0);
        // Q from reflectors (reflector j starts at row j+1).
        let q = dense_q_from_reflectors(&out, &taus[..6], 1);
        assert!(q.orthonormality_error() < 1e-10);
        // H = stored upper part (zero the reflector essentials).
        let n = 8;
        let mut h = out.clone();
        for jj in 0..n {
            for i in jj + 2..n {
                h[(i, jj)] = 0.0;
            }
        }
        assert_eq!(h.below_hessenberg_max(), 0.0);
        // Qᵀ A₀ Q = H.
        let sim = q.transpose().matmul(&a0).matmul(&q);
        assert!(
            sim.max_abs_diff(&h) < 1e-9,
            "similarity error {}",
            sim.max_abs_diff(&h)
        );
    }

    #[test]
    fn ir_matches_native() {
        let a0 = Matrix::random(7, 7, 62);
        let p = crate::executable("gehd2");
        let store = run_with_inputs(&p, &[7], &[("A", &a0.data)]);
        let out_ir = extract_matrix(&p.program, &[7], &store, "A");
        let (out, _) = native(&a0);
        assert!(out_ir.max_abs_diff(&out) < 1e-12);
    }

    #[test]
    fn ir_accesses_are_consistent() {
        let p = crate::executable("gehd2");
        assert!(crate::interp::validate_accesses(&p, &[7]).unwrap() > 0);
    }

    #[test]
    fn tiny_sizes_are_noops() {
        // N ≤ 2: the outer loop is empty, A unchanged.
        let p = crate::executable("gehd2");
        for n in [1usize, 2] {
            let a0 = Matrix::random(n, n, 63);
            let (out, _) = native(&a0);
            assert_eq!(out.max_abs_diff(&a0), 0.0);
            let store = run_with_inputs(&p, &[n as i64], &[("A", &a0.data)]);
            let out_ir = extract_matrix(&p.program, &[n as i64], &store, "A");
            assert_eq!(out_ir.max_abs_diff(&a0), 0.0);
        }
    }
}
