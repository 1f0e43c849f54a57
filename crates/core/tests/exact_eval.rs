//! Regression tests for the exact-arithmetic floored bound evaluators.
//!
//! The pre-fix implementations evaluated `|V|`, `W`, and `U` in `f64`
//! *before* flooring. Beyond 2^53 the mantissa rounds the volume, so the
//! floor can land on the wrong integer — in the overshoot direction that
//! breaks the "bound never above a legal play" soundness contract. These
//! tests replicate the old `f64` pipeline verbatim and pin concrete
//! parameter points where it disagrees with the exact path.

use iolb_core::{s_var, Analysis};
use iolb_numeric::Rational;
use iolb_symbolic::{Poly, Var};

/// The MGS-shaped triangular update statement (classical σ = 3/2, m = 3;
/// hourglass W = M, R = 1) — the same miniature core the unit tests use.
fn mini_mgs() -> iolb_ir::Program {
    let mut b = iolb_ir::ProgramBuilder::new("exact_eval_mgs", &["M", "N"]);
    let a = b.array("A", &[b.p("M"), b.p("N")]);
    let r = b.array("R", &[b.p("N"), b.p("N")]);
    let k = b.open("k", b.c(0), b.p("N"));
    let j = b.open("j", b.d(k) + 1, b.p("N"));
    let w_r = iolb_ir::Access::new(r, vec![b.d(k), b.d(j)]);
    b.stmt("S0", vec![], vec![w_r.clone()]);
    let i1 = b.open("i", b.c(0), b.p("M"));
    let rd_aik = iolb_ir::Access::new(a, vec![b.d(i1), b.d(k)]);
    let rd_aij = iolb_ir::Access::new(a, vec![b.d(i1), b.d(j)]);
    b.stmt("SR", vec![rd_aik, rd_aij, w_r.clone()], vec![w_r.clone()]);
    b.close();
    let i2 = b.open("i", b.c(0), b.p("M"));
    let rd_aik2 = iolb_ir::Access::new(a, vec![b.d(i2), b.d(k)]);
    let rw_aij2 = iolb_ir::Access::new(a, vec![b.d(i2), b.d(j)]);
    b.stmt(
        "SU",
        vec![rd_aik2, rw_aij2.clone(), w_r.clone()],
        vec![rw_aij2],
    );
    b.close();
    b.close();
    b.close();
    b.finish()
}

/// The old (buggy) f64 pipeline of `HourglassBound::eval_floor`, verbatim.
fn hourglass_eval_floor_f64(b: &iolb_core::HourglassBound, env: &[(Var, i128)], s: i128) -> f64 {
    let ev = |p: &Poly| -> f64 {
        p.eval(&|v| {
            env.iter()
                .find(|(w, _)| *w == v)
                .map(|(_, x)| Rational::int(*x))
        })
        .to_f64()
    };
    let (w, r, vol, vol_nd) = (
        ev(&b.w_min),
        ev(&b.r_factor),
        ev(&b.volume),
        ev(&b.volume_nodrop),
    );
    let sf = s as f64;
    let mut best = 0.0f64;
    if w > 0.0 && vol > 0.0 {
        let u = (2.0 * sf) * (2.0 * sf) / w + 2.0 * r * (2.0 * sf);
        best = best.max(sf * (vol / u).floor());
    }
    if w > sf && vol_nd > 0.0 {
        best = best.max((w - sf) * (vol_nd / (2.0 * w)).floor());
    }
    best
}

/// The old (buggy) f64 pipeline of `ClassicalBound::eval_floor`, verbatim.
fn classical_eval_floor_f64(b: &iolb_core::ClassicalBound, env: &[(Var, i128)], s: i128) -> f64 {
    let vol = b
        .volume
        .eval(&|v| {
            env.iter()
                .find(|(w, _)| *w == v)
                .map(|(_, x)| Rational::int(*x))
        })
        .to_f64();
    if vol <= 0.0 {
        return 0.0;
    }
    let sigma = b.sigma.to_f64();
    let m = b.m.to_f64();
    let mut best = 0.0f64;
    let opt = if sigma > 1.0 {
        sigma / (sigma - 1.0) * s as f64
    } else {
        4.0 * s as f64
    };
    let mut candidates: Vec<i128> = vec![s + 1, 2 * s, 3 * s, 4 * s, 8 * s];
    candidates.push(opt.round() as i128);
    candidates.push((opt * 0.75).round() as i128);
    candidates.push((opt * 1.5).round() as i128);
    for k in candidates {
        if k <= s {
            continue;
        }
        let t = (k - s) as f64;
        let u = (k as f64 / m).powf(sigma);
        let sets = (vol / u).floor();
        best = best.max(t * sets);
    }
    best
}

/// Exact rational evaluation of the classical floored form at one `K`
/// grid — the ground truth the fixed implementation must match:
/// `T·max{t : t^q·K^p ≤ |V|^q·m^p}` maximized over the same candidates.
fn classical_ground_truth(b: &iolb_core::ClassicalBound, env: &[(Var, i128)], s: i128) -> f64 {
    // The fixed implementation *is* the exact computation; this helper only
    // exists to make the test's intent explicit at the call sites.
    b.eval_floor(env, s)
}

#[test]
fn hourglass_f64_path_disagrees_beyond_2_53() {
    let p = mini_mgs();
    let analysis = Analysis::run(&p, &[vec![7, 5]]).unwrap();
    let su = p.stmt_id("SU").unwrap();
    let pat = analysis.detect_hourglass(su).unwrap();
    let b = analysis.hourglass_bound(&pat);

    // Regime where the K = 2S branch dominates (S = 7M/8 kills the K = W
    // branch) with a huge set count: |V| ≈ 2^76, U(2S) ≈ 105M/16, so
    // ⌊|V|/U⌋ ≈ 2^53 and the f64 volume rounding shifts the quotient by
    // whole units — the floor lands on the wrong integer for a dense set
    // of N values. Scan a small window to pin one.
    let m: i128 = 1 << 20;
    let s: i128 = 7 * m / 8;
    let mut witness = None;
    let mut any_disagreement = 0usize;
    for n in 300_000_001i128..300_000_001 + 200 {
        let env = [(Var::new("M"), m), (Var::new("N"), n)];
        let exact = b.eval_floor_exact(&env, s);
        let old = hourglass_eval_floor_f64(&b, &env, s);
        if old != exact.to_f64() {
            any_disagreement += 1;
            if old > exact.to_f64() {
                witness = Some((n, old, exact));
                break;
            }
        }
    }
    assert!(
        any_disagreement > 0,
        "f64 and exact hourglass paths never disagreed in the window"
    );
    let (n, old, exact) =
        witness.expect("an overshoot point (old f64 bound above the exact bound) must exist");
    // Pin the witness so the regression stays concrete and reproducible.
    let env = [(Var::new("M"), m), (Var::new("N"), n)];
    assert_eq!(b.eval_floor(&env, s), exact.to_f64());
    assert!(
        old > exact.to_f64(),
        "old f64 path must overshoot at the pinned point M={m}, N={n}, S={s}"
    );
    // The overshoot is at least one whole floor step times S — a material
    // violation of the "never above the real bound" contract.
    assert!(
        old - exact.to_f64() >= s as f64,
        "overshoot must be a whole floor step: old {old} exact {exact}"
    );
}

#[test]
fn classical_f64_path_overshoots_beyond_2_53() {
    let p = mini_mgs();
    let analysis = Analysis::run(&p, &[vec![7, 5]]).unwrap();
    let su = p.stmt_id("SU").unwrap();
    let b = analysis.classical_bound(su);
    assert_eq!(b.sigma, Rational::new(3, 2));

    // |V| ≈ 2^61: the set count per K is ≈ 2^45, so the f64 ratio carries
    // an absolute error of ≈ 2^45·2^-53 ≈ 2^-8 units — scanning a few
    // hundred S values must cross a floor boundary in the overshoot
    // direction (bound strictly above the exact Theorem-1 value: the
    // soundness-contract break).
    let m: i128 = (1 << 31) - 1;
    let n: i128 = (1 << 16) + 3;
    let env = [(Var::new("M"), m), (Var::new("N"), n)];
    let mut overshoot = None;
    let mut any_disagreement = 0usize;
    for s in 1024i128..1024 + 2048 {
        let exact = classical_ground_truth(&b, &env, s);
        let old = classical_eval_floor_f64(&b, &env, s);
        if old != exact {
            any_disagreement += 1;
            if old > exact {
                overshoot = Some((s, old, exact));
                break;
            }
        }
    }
    assert!(
        any_disagreement > 0,
        "f64 and exact classical paths never disagreed in the window"
    );
    let (s, old, exact) =
        overshoot.expect("an overshoot (old f64 bound above the exact bound) must exist");
    assert!(
        old > exact,
        "pinned point M={m}, N={n}, S={s} must overshoot: old {old} vs exact {exact}"
    );
}

#[test]
fn exact_and_f64_paths_agree_at_small_parameters() {
    // Below 2^53 nothing rounds: the fix must be behaviour-preserving on
    // the whole existing validation regime.
    let p = mini_mgs();
    let analysis = Analysis::run(&p, &[vec![7, 5]]).unwrap();
    let su = p.stmt_id("SU").unwrap();
    let pat = analysis.detect_hourglass(su).unwrap();
    let hb = analysis.hourglass_bound(&pat);
    let cb = analysis.classical_bound(su);
    for (m, n) in [(12i128, 6i128), (64, 32), (1024, 256), (65536, 1024)] {
        let env = [(Var::new("M"), m), (Var::new("N"), n)];
        for s in [8i128, 32, 128, 1024] {
            assert_eq!(
                hb.eval_floor(&env, s),
                hourglass_eval_floor_f64(&hb, &env, s),
                "hourglass M={m} N={n} S={s}"
            );
            assert_eq!(
                cb.eval_floor(&env, s),
                classical_eval_floor_f64(&cb, &env, s),
                "classical M={m} N={n} S={s}"
            );
        }
    }
    let _ = s_var();
}
