//! GEHD2 (Figure 7): reduction of an `N×N` matrix to upper Hessenberg form
//! by similarity transformations `A ← Hⱼ·A·Hⱼ`.
//!
//! The left-update statement `SU1` carries the hourglass; its width
//! `N − 2 − j` shrinks to 1 at the last iterations, which is why §5.3 splits
//! the outer loop at a symbolic point `M` before applying the hourglass
//! derivation (handled by `iolb-core`).

use crate::interp::{Executable, Semantics};
use crate::matrix::Matrix;
use iolb_ir::{Access, Program, ProgramBuilder};

/// GEHD2 IR: single parameter `N`.
pub fn executable() -> Executable {
    let mut b = ProgramBuilder::new("gehd2", &["N"]);
    let mut sem = Semantics::default();
    let a = b.array("A", &[b.p("N"), b.p("N")]);
    let tmp = b.array("tmp", &[b.p("N")]);
    let norma2 = b.scalar("norma2");
    let norma = b.scalar("norma");
    let tau = b.scalar("tau");

    let j = b.open("j", b.c(0), b.p("N") - 2);
    let w_n2 = Access::new(norma2, vec![]);
    sem.def(b.stmt("Gn0", vec![], vec![w_n2.clone()]), move |c| {
        c.wr(norma2, &[], 0.0)
    });
    {
        let i = b.open("i", b.d(j) + 2, b.p("N"));
        let r_aij = Access::new(a, vec![b.d(i), b.d(j)]);
        sem.def(
            b.stmt("Gn1", vec![r_aij, w_n2.clone()], vec![w_n2.clone()]),
            move |c| {
                let (j, i) = (c.v(0), c.v(1));
                let x = c.rd(a, &[i, j]);
                let v = c.rd(norma2, &[]) + x * x;
                c.wr(norma2, &[], v);
            },
        );
        b.close();
    }
    let w_nrm = Access::new(norma, vec![]);
    let rw_sub = Access::new(a, vec![b.d(j) + 1, b.d(j)]);
    sem.def(
        b.stmt(
            "Gnorm",
            vec![rw_sub.clone(), w_n2.clone()],
            vec![w_nrm.clone()],
        ),
        move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let n2 = c.rd(norma2, &[]);
            c.wr(norma, &[], (x * x + n2).sqrt());
        },
    );
    sem.def(
        b.stmt(
            "Ga",
            vec![rw_sub.clone(), w_nrm.clone()],
            vec![rw_sub.clone()],
        ),
        move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[j + 1, j], if x > 0.0 { x + nr } else { x - nr });
        },
    );
    let w_tau = Access::new(tau, vec![]);
    sem.def(
        b.stmt(
            "Gtau",
            vec![w_n2.clone(), rw_sub.clone()],
            vec![w_tau.clone()],
        ),
        move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let n2 = c.rd(norma2, &[]);
            c.wr(tau, &[], 2.0 / (1.0 + n2 / (x * x)));
        },
    );
    {
        let i = b.open("i", b.d(j) + 2, b.p("N"));
        let rw_aij = Access::new(a, vec![b.d(i), b.d(j)]);
        sem.def(
            b.stmt("Gscale", vec![rw_aij.clone(), rw_sub.clone()], vec![rw_aij]),
            move |c| {
                let (j, i) = (c.v(0), c.v(1));
                let v = c.rd(a, &[i, j]) / c.rd(a, &[j + 1, j]);
                c.wr(a, &[i, j], v);
            },
        );
        b.close();
    }
    sem.def(
        b.stmt(
            "Gflip",
            vec![rw_sub.clone(), w_nrm.clone()],
            vec![rw_sub.clone()],
        ),
        move |c| {
            let j = c.v(0);
            let x = c.rd(a, &[j + 1, j]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[j + 1, j], if x > 0.0 { -nr } else { nr });
        },
    );
    // ---- left application: rows j+1.., columns i in j+1..N ----
    {
        let i = b.open("i", b.d(j) + 1, b.p("N"));
        let r_a1i = Access::new(a, vec![b.d(j) + 1, b.d(i)]);
        let w_tmpi = Access::new(tmp, vec![b.d(i)]);
        sem.def(b.stmt("Gt0", vec![r_a1i], vec![w_tmpi.clone()]), move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[j + 1, i]);
            c.wr(tmp, &[i], v);
        });
        {
            let kk = b.open("k", b.d(j) + 2, b.p("N"));
            let r_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
            let r_aki = Access::new(a, vec![b.d(kk), b.d(i)]);
            sem.def(
                b.stmt(
                    "SR1",
                    vec![r_akj, r_aki, w_tmpi.clone()],
                    vec![w_tmpi.clone()],
                ),
                move |c| {
                    let (j, i, k) = (c.v(0), c.v(1), c.v(2));
                    let v = c.rd(tmp, &[i]) + c.rd(a, &[k, j]) * c.rd(a, &[k, i]);
                    c.wr(tmp, &[i], v);
                },
            );
            b.close();
        }
        b.close();
    }
    {
        let i = b.open("i", b.d(j) + 1, b.p("N"));
        let w_tmpi = Access::new(tmp, vec![b.d(i)]);
        sem.def(
            b.stmt(
                "Gt1",
                vec![w_tmpi.clone(), w_tau.clone()],
                vec![w_tmpi.clone()],
            ),
            move |c| {
                let i = c.v(1);
                let v = c.rd(tmp, &[i]) * c.rd(tau, &[]);
                c.wr(tmp, &[i], v);
            },
        );
        b.close();
    }
    {
        let i = b.open("i", b.d(j) + 1, b.p("N"));
        let rw_a1i = Access::new(a, vec![b.d(j) + 1, b.d(i)]);
        let r_tmpi = Access::new(tmp, vec![b.d(i)]);
        sem.def(
            b.stmt("Gr1", vec![rw_a1i.clone(), r_tmpi], vec![rw_a1i]),
            move |c| {
                let (j, i) = (c.v(0), c.v(1));
                let v = c.rd(a, &[j + 1, i]) - c.rd(tmp, &[i]);
                c.wr(a, &[j + 1, i], v);
            },
        );
        b.close();
    }
    {
        let i = b.open("i", b.d(j) + 2, b.p("N"));
        let kk = b.open("k", b.d(j) + 1, b.p("N"));
        let r_aij = Access::new(a, vec![b.d(i), b.d(j)]);
        let rw_aik = Access::new(a, vec![b.d(i), b.d(kk)]);
        let r_tmpk = Access::new(tmp, vec![b.d(kk)]);
        sem.def(
            b.stmt("SU1", vec![r_aij, rw_aik.clone(), r_tmpk], vec![rw_aik]),
            move |c| {
                let (j, i, k) = (c.v(0), c.v(1), c.v(2));
                let v = c.rd(a, &[i, k]) - c.rd(a, &[i, j]) * c.rd(tmp, &[k]);
                c.wr(a, &[i, k], v);
            },
        );
        b.close();
        b.close();
    }
    // ---- right application: all rows, columns j+2..N ----
    {
        let i = b.open("i", b.c(0), b.p("N"));
        let r_ai1 = Access::new(a, vec![b.d(i), b.d(j) + 1]);
        let w_tmpi = Access::new(tmp, vec![b.d(i)]);
        sem.def(b.stmt("Gt2", vec![r_ai1], vec![w_tmpi.clone()]), move |c| {
            let (j, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, j + 1]);
            c.wr(tmp, &[i], v);
        });
        {
            let kk = b.open("k", b.d(j) + 2, b.p("N"));
            let r_aik = Access::new(a, vec![b.d(i), b.d(kk)]);
            let r_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
            sem.def(
                b.stmt(
                    "SR2",
                    vec![r_aik, r_akj, w_tmpi.clone()],
                    vec![w_tmpi.clone()],
                ),
                move |c| {
                    let (j, i, k) = (c.v(0), c.v(1), c.v(2));
                    let v = c.rd(tmp, &[i]) + c.rd(a, &[i, k]) * c.rd(a, &[k, j]);
                    c.wr(tmp, &[i], v);
                },
            );
            b.close();
        }
        b.close();
    }
    {
        let i = b.open("i", b.c(0), b.p("N"));
        let w_tmpi = Access::new(tmp, vec![b.d(i)]);
        sem.def(
            b.stmt(
                "Gt3",
                vec![w_tmpi.clone(), w_tau.clone()],
                vec![w_tmpi.clone()],
            ),
            move |c| {
                let i = c.v(1);
                let v = c.rd(tmp, &[i]) * c.rd(tau, &[]);
                c.wr(tmp, &[i], v);
            },
        );
        b.close();
    }
    {
        let i = b.open("i", b.c(0), b.p("N"));
        let rw_ai1 = Access::new(a, vec![b.d(i), b.d(j) + 1]);
        let r_tmpi = Access::new(tmp, vec![b.d(i)]);
        sem.def(
            b.stmt("Gr2", vec![rw_ai1.clone(), r_tmpi], vec![rw_ai1]),
            move |c| {
                let (j, i) = (c.v(0), c.v(1));
                let v = c.rd(a, &[i, j + 1]) - c.rd(tmp, &[i]);
                c.wr(a, &[i, j + 1], v);
            },
        );
        b.close();
    }
    {
        let i = b.open("i", b.c(0), b.p("N"));
        let kk = b.open("k", b.d(j) + 2, b.p("N"));
        let r_tmpi = Access::new(tmp, vec![b.d(i)]);
        let rw_aik = Access::new(a, vec![b.d(i), b.d(kk)]);
        let r_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
        sem.def(
            b.stmt("SU2", vec![r_tmpi, rw_aik.clone(), r_akj], vec![rw_aik]),
            move |c| {
                let (j, i, k) = (c.v(0), c.v(1), c.v(2));
                let v = c.rd(a, &[i, k]) - c.rd(tmp, &[i]) * c.rd(a, &[k, j]);
                c.wr(a, &[i, k], v);
            },
        );
        b.close();
        b.close();
    }
    b.close();
    Executable::new(b.finish(), sem)
}

/// The declared-access program of [`executable`].
pub fn program() -> Program {
    executable().program
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
        let p = executable();
        let store = run_with_inputs(&p, &[7], &[("A", &a0)]);
        let out_ir = extract_matrix(&p.program, &[7], &store, "A");
        let (out, _) = native(&a0);
        assert!(out_ir.max_abs_diff(&out) < 1e-12);
    }

    #[test]
    fn ir_accesses_are_consistent() {
        let p = executable();
        assert!(crate::interp::validate_accesses(&p, &[7]).unwrap() > 0);
    }

    #[test]
    fn tiny_sizes_are_noops() {
        // N ≤ 2: the outer loop is empty, A unchanged.
        for n in [1usize, 2] {
            let a0 = Matrix::random(n, n, 63);
            let (out, _) = native(&a0);
            assert_eq!(out.max_abs_diff(&a0), 0.0);
            let p = executable();
            let store = run_with_inputs(&p, &[n as i64], &[("A", &a0)]);
            let out_ir = extract_matrix(&p.program, &[n as i64], &store, "A");
            assert_eq!(out_ir.max_abs_diff(&a0), 0.0);
        }
    }
}
