//! Householder QR: the A2V (GEQR2, Figure 3) and V2Q (ORG2R, Figure 6)
//! parts, plus the tiled A2V ordering of Figure 9 (Appendix A.2).
//!
//! A2V factors `A = Q·R` storing the reflector essentials `V` below the
//! diagonal (unit implied), `R` on and above it, and the scalars `tau[k]`.
//! V2Q expands `(V, tau)` into the thin `M×N` orthogonal factor, running the
//! outer loop *backwards* so `tau[j]` cells can be reused as temporaries.
//! Both exhibit the hourglass on their `SR`/`SU` statements with parametric
//! width `M − 1 − k ≥ M − N`. The statements are those of
//! `kernels/qr_hh_a2v.iolb`, `kernels/qr_hh_v2q.iolb` and
//! `kernels/tiled/qr_hh_a2v_tiled.iolb`.

use crate::interp::{array_ids, Semantics};
use crate::matrix::Matrix;
use iolb_ir::{ArrayId, Program};

/// A2V (LAPACK GEQR2, Figure 3): in-place `A → V\R`, producing `tau`.
pub fn a2v_semantics(p: &Program) -> Result<Semantics, String> {
    let [a, tau, norma2, norma] = array_ids(p, ["A", "tau", "norma2", "norma"])?;
    Ok(Semantics::default()
        .on("Hn0", move |c| c.wr(norma2, &[], 0.0))
        .on("Hn1", move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let x = c.rd(a, &[i, k]);
            let v = c.rd(norma2, &[]) + x * x;
            c.wr(norma2, &[], v);
        })
        .on("Hnorm", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let v = (akk * akk + c.rd(norma2, &[])).sqrt();
            c.wr(norma, &[], v);
        })
        .on("Hakk", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { akk + nr } else { akk - nr });
        })
        .on("Htau", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let v = 2.0 / (1.0 + c.rd(norma2, &[]) / (akk * akk));
            c.wr(tau, &[k], v);
        })
        .on("Hscale", move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, k]) / c.rd(a, &[k, k]);
            c.wr(a, &[i, k], v);
        })
        .on("Hflip", move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { -nr } else { nr });
        })
        .on("Ht0", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = c.rd(a, &[k, j]);
            c.wr(tau, &[j], v);
        })
        .on("SR", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(tau, &[j]) + c.rd(a, &[i, k]) * c.rd(a, &[i, j]);
            c.wr(tau, &[j], v);
        })
        .on("Ht1", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = c.rd(tau, &[k]) * c.rd(tau, &[j]);
            c.wr(tau, &[j], v);
        })
        .on("Hrow", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = c.rd(a, &[k, j]) - c.rd(tau, &[j]);
            c.wr(a, &[k, j], v);
        })
        .on("SU", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(a, &[i, j]) - c.rd(a, &[i, k]) * c.rd(tau, &[j]);
            c.wr(a, &[i, j], v);
        }))
}

/// V2Q (LAPACK ORG2R, Figure 6): in-place `V\· → Q` given `tau` (M ≥ N).
pub fn v2q_semantics(p: &Program) -> Result<Semantics, String> {
    let [a, tau] = array_ids(p, ["A", "tau"])?;
    Ok(Semantics::default()
        .on("Vt0", move |c| c.wr(tau, &[c.v(1)], 0.0))
        .on("SR", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(tau, &[j]) + c.rd(a, &[i, k]) * c.rd(a, &[i, j]);
            c.wr(tau, &[j], v);
        })
        .on("Vt1", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = c.rd(tau, &[j]) * c.rd(tau, &[k]);
            c.wr(tau, &[j], v);
        })
        .on("Vdiag", move |c| {
            let k = c.v(0);
            let v = 1.0 - c.rd(tau, &[k]);
            c.wr(a, &[k, k], v);
        })
        .on("Vrow", move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = -c.rd(tau, &[j]);
            c.wr(a, &[k, j], v);
        })
        .on("SU", move |c| {
            let (k, j, i) = (c.v(0), c.v(1), c.v(2));
            let v = c.rd(a, &[i, j]) - c.rd(a, &[i, k]) * c.rd(tau, &[j]);
            c.wr(a, &[i, j], v);
        })
        .on("Vscale", move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let v = -c.rd(a, &[i, k]) * c.rd(tau, &[k]);
            c.wr(a, &[i, k], v);
        }))
}

/// The "reflect column k by reflector j" statements of the tiled A2V,
/// labelled `[t0, t1, t2, row, su]`. `pj`/`pk` are the `c.v` positions of
/// `j` and `k`, which the two phases nest in opposite orders; the inner
/// `i` loop is position 3.
fn reflect_block(
    sem: Semantics,
    [t0, t1, t2, row, su]: [&'static str; 5],
    [a, tau, tmp]: [ArrayId; 3],
    pj: usize,
    pk: usize,
) -> Semantics {
    sem.on(t0, move |c| {
        let (j, k) = (c.v(pj), c.v(pk));
        let v = c.rd(a, &[j, k]);
        c.wr(tmp, &[], v);
    })
    .on(t1, move |c| {
        let (j, k, i) = (c.v(pj), c.v(pk), c.v(3));
        let v = c.rd(tmp, &[]) + c.rd(a, &[i, j]) * c.rd(a, &[i, k]);
        c.wr(tmp, &[], v);
    })
    .on(t2, move |c| {
        let j = c.v(pj);
        let v = c.rd(tau, &[j]) * c.rd(tmp, &[]);
        c.wr(tmp, &[], v);
    })
    .on(row, move |c| {
        let (j, k) = (c.v(pj), c.v(pk));
        let v = c.rd(a, &[j, k]) - c.rd(tmp, &[]);
        c.wr(a, &[j, k], v);
    })
    .on(su, move |c| {
        let (j, k, i) = (c.v(pj), c.v(pk), c.v(3));
        let v = c.rd(a, &[i, k]) - c.rd(a, &[i, j]) * c.rd(tmp, &[]);
        c.wr(a, &[i, k], v);
    })
}

/// Tiled A2V (Figure 9): parameters `M, N, B`; left-looking blocked
/// ordering with I/O `≈ ½(M²N² − MN³/3)/S` at `B = ⌊S/M⌋ − 1`.
pub fn a2v_tiled_semantics(p: &Program) -> Result<Semantics, String> {
    let [a, tau, tmp, norma2, norma] = array_ids(p, ["A", "tau", "tmp", "norma2", "norma"])?;
    // Phase 1 applies all reflectors j < k0 to the block's columns (loops
    // k0, j, k); phase 2 factors the panel inside the block (k0, k, j).
    let sem = reflect_block(
        Semantics::default(),
        ["Xt0", "Xt1", "Xt2", "Xrow", "Xsu"],
        [a, tau, tmp],
        1,
        2,
    );
    let sem = reflect_block(
        sem,
        ["Yt0", "Yt1", "Yt2", "Yrow", "Ysu"],
        [a, tau, tmp],
        2,
        1,
    );
    // Reflector generation for column k (same as the A2V head).
    Ok(sem
        .on("Yn0", move |c| c.wr(norma2, &[], 0.0))
        .on("Yn1", move |c| {
            let (k, i) = (c.v(1), c.v(2));
            let x = c.rd(a, &[i, k]);
            let v = c.rd(norma2, &[]) + x * x;
            c.wr(norma2, &[], v);
        })
        .on("Ynorm", move |c| {
            let k = c.v(1);
            let akk = c.rd(a, &[k, k]);
            let v = (akk * akk + c.rd(norma2, &[])).sqrt();
            c.wr(norma, &[], v);
        })
        .on("Yakk", move |c| {
            let k = c.v(1);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { akk + nr } else { akk - nr });
        })
        .on("Ytau", move |c| {
            let k = c.v(1);
            let akk = c.rd(a, &[k, k]);
            let v = 2.0 / (1.0 + c.rd(norma2, &[]) / (akk * akk));
            c.wr(tau, &[k], v);
        })
        .on("Yscale", move |c| {
            let (k, i) = (c.v(1), c.v(2));
            let v = c.rd(a, &[i, k]) / c.rd(a, &[k, k]);
            c.wr(a, &[i, k], v);
        })
        .on("Yflip", move |c| {
            let k = c.v(1);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { -nr } else { nr });
        }))
}

/// Native A2V; returns `(V\R in place, tau)`.
pub fn a2v_native(a0: &Matrix) -> (Matrix, Vec<f64>) {
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut tau = vec![0.0; n];
    for k in 0..n {
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
        tau[k] = 2.0 / (1.0 + norma2 / (a[(k, k)] * a[(k, k)]));
        for i in k + 1..m {
            a[(i, k)] /= a[(k, k)];
        }
        a[(k, k)] = if a[(k, k)] > 0.0 { -norma } else { norma };
        for j in k + 1..n {
            let mut t = a[(k, j)];
            for i in k + 1..m {
                t += a[(i, k)] * a[(i, j)];
            }
            t *= tau[k];
            a[(k, j)] -= t;
            for i in k + 1..m {
                a[(i, j)] -= a[(i, k)] * t;
            }
        }
    }
    (a, tau)
}

/// Native V2Q; expands `(V, tau)` (as produced by A2V) into thin `Q`.
pub fn v2q_native(vr: &Matrix, tau0: &[f64]) -> Matrix {
    let (m, n) = (vr.rows, vr.cols);
    let mut a = vr.clone();
    let mut tau = tau0.to_vec();
    for k in (0..n).rev() {
        for j in k + 1..n {
            tau[j] = 0.0;
            for i in k + 1..m {
                tau[j] += a[(i, k)] * a[(i, j)];
            }
        }
        for j in k + 1..n {
            tau[j] *= tau[k];
        }
        a[(k, k)] = 1.0 - tau[k];
        for j in k + 1..n {
            a[(k, j)] = -tau[j];
        }
        for j in k + 1..n {
            for i in k + 1..m {
                a[(i, j)] -= a[(i, k)] * tau[j];
            }
        }
        for i in k + 1..m {
            a[(i, k)] = -a[(i, k)] * tau[k];
        }
    }
    a
}

/// Native tiled A2V (Figure 9); returns `(V\R, tau)`.
pub fn a2v_tiled_native(a0: &Matrix, block: usize) -> (Matrix, Vec<f64>) {
    assert!(block >= 1);
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut tau = vec![0.0; n];
    let reflect = |a: &mut Matrix, tau: &[f64], j: usize, k: usize| {
        let mut t = a[(j, k)];
        for i in j + 1..m {
            t += a[(i, j)] * a[(i, k)];
        }
        t *= tau[j];
        a[(j, k)] -= t;
        for i in j + 1..m {
            a[(i, k)] -= a[(i, j)] * t;
        }
    };
    let mut k0 = 0;
    while k0 < n {
        let kend = (k0 + block).min(n);
        for j in 0..k0 {
            for k in k0..kend {
                reflect(&mut a, &tau, j, k);
            }
        }
        for k in k0..kend {
            for j in k0..k {
                reflect(&mut a, &tau, j, k);
            }
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
            tau[k] = 2.0 / (1.0 + norma2 / (a[(k, k)] * a[(k, k)]));
            for i in k + 1..m {
                a[(i, k)] /= a[(k, k)];
            }
            a[(k, k)] = if a[(k, k)] > 0.0 { -norma } else { norma };
        }
        k0 += block;
    }
    (a, tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{extract_matrix, extract_vector, run_with_inputs};
    use crate::interp::validate_accesses;
    use crate::matrix::dense_q_from_reflectors;

    #[test]
    fn a2v_factors_a() {
        let a0 = Matrix::random(10, 6, 21);
        let (vr, tau) = a2v_native(&a0);
        // Rebuild dense Q from reflectors; A = Q · [R; 0].
        let q = dense_q_from_reflectors(&vr, &tau, 0);
        assert!(q.orthonormality_error() < 1e-10);
        let mut rfull = Matrix::zeros(10, 6);
        for i in 0..6 {
            for j in i..6 {
                rfull[(i, j)] = vr[(i, j)];
            }
        }
        assert!(q.matmul(&rfull).max_abs_diff(&a0) < 1e-9);
    }

    #[test]
    fn v2q_matches_dense_expansion() {
        let a0 = Matrix::random(9, 5, 33);
        let (vr, tau) = a2v_native(&a0);
        let qthin = v2q_native(&vr, &tau);
        let qdense = dense_q_from_reflectors(&vr, &tau, 0);
        // First N columns of the dense Q.
        let expect = Matrix::from_fn(9, 5, |i, j| qdense[(i, j)]);
        assert!(qthin.max_abs_diff(&expect) < 1e-10);
        assert!(qthin.orthonormality_error() < 1e-10);
    }

    #[test]
    fn qr_roundtrip_through_both_parts() {
        let a0 = Matrix::random(12, 8, 4);
        let (vr, tau) = a2v_native(&a0);
        let q = v2q_native(&vr, &tau);
        let r = vr.upper_triangular(8);
        // A ≈ Q_thin · R.
        assert!(q.matmul(&r).max_abs_diff(&a0) < 1e-9);
    }

    #[test]
    fn a2v_ir_matches_native() {
        let a0 = Matrix::random(8, 5, 9);
        let p = crate::executable("qr_hh_a2v");
        let store = run_with_inputs(&p, &[8, 5], &[("A", &a0.data)]);
        let vr_ir = extract_matrix(&p.program, &[8, 5], &store, "A");
        let tau_ir = extract_vector(&p.program, &[8, 5], &store, "tau");
        let (vr, tau) = a2v_native(&a0);
        assert!(vr_ir.max_abs_diff(&vr) < 1e-12);
        for (a, b) in tau_ir.iter().zip(&tau) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn v2q_ir_matches_native() {
        let a0 = Matrix::random(8, 5, 10);
        let (vr, tau) = a2v_native(&a0);
        let p = crate::executable("qr_hh_v2q");
        let store = run_with_inputs(&p, &[8, 5], &[("A", &vr.data), ("tau", &tau)]);
        let q_ir = extract_matrix(&p.program, &[8, 5], &store, "A");
        let q = v2q_native(&vr, &tau);
        assert!(q_ir.max_abs_diff(&q) < 1e-12);
    }

    #[test]
    fn tiled_a2v_matches_untiled() {
        let a0 = Matrix::random(11, 7, 17);
        let (vr_ref, tau_ref) = a2v_native(&a0);
        for block in [1, 2, 3, 7] {
            let (vr, tau) = a2v_tiled_native(&a0, block);
            assert!(vr.max_abs_diff(&vr_ref) < 1e-9, "B={block}");
            for (a, b) in tau.iter().zip(&tau_ref) {
                assert!((a - b).abs() < 1e-9, "B={block}");
            }
        }
    }

    /// `B = 3` does not divide `N = 7`: the last block is narrower, and
    /// only the `min(k0 + B, N)` bound stops it at `N`.
    #[test]
    fn tiled_a2v_ir_matches_tiled_native() {
        let p = crate::executable("tiled/qr_hh_a2v_tiled");
        for params @ [m, n, block] in [[9, 6, 2], [9, 6, 3], [9, 7, 3]] {
            let a0 = Matrix::random(m as usize, n as usize, 29);
            let store = run_with_inputs(&p, &params, &[("A", &a0.data)]);
            let vr_ir = extract_matrix(&p.program, &params, &store, "A");
            let tau_ir = extract_vector(&p.program, &params, &store, "tau");
            let (vr, tau) = a2v_tiled_native(&a0, block as usize);
            assert!(vr_ir.max_abs_diff(&vr) < 1e-12, "{params:?}");
            for (x, y) in tau_ir.iter().zip(&tau) {
                assert!((x - y).abs() < 1e-12, "{params:?}");
            }
        }
    }

    #[test]
    fn all_ir_variants_validate() {
        for (stem, params) in [
            ("qr_hh_a2v", &[8, 5][..]),
            ("qr_hh_v2q", &[8, 5]),
            ("tiled/qr_hh_a2v_tiled", &[8, 5, 2]),
            ("tiled/qr_hh_a2v_tiled", &[9, 7, 3]),
        ] {
            assert!(validate_accesses(&crate::executable(stem), params).unwrap() > 0);
        }
    }
}
