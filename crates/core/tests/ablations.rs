//! Ablation studies for the design choices DESIGN.md calls out:
//! the K = 2S choice, the disjoint-inset refinement, the uniform vs
//! refined width variants, and the Theorem 5 small-S branch crossover.

use iolb_core::{hourglass, s_var, Analysis};
use iolb_numeric::Rational;
use iolb_symbolic::Var;

fn mgs_bound() -> (iolb_ir::Program, iolb_core::HourglassBound) {
    let p = iolb_kernels::program("mgs");
    let analysis = Analysis::run(&p, &[vec![9, 6]]).unwrap();
    let su = p.stmt_id("SU").unwrap();
    let pat = analysis.detect_hourglass(su).unwrap();
    let b = hourglass::derive(&p, &pat, &hourglass::SplitChoice::None);
    (p, b)
}

/// The paper picks `K = 2S` in §4.4. Sweeping `K` numerically over the
/// wrapped bound `(K−S)·|V|/U(K)` shows the choice is near-optimal: the
/// true optimum (at `K = S + √(S² + SW)` for `U = K²/W + 2K`) never beats
/// `K = 2S` by more than ~25% in the relevant regimes.
#[test]
fn k_equals_2s_is_near_optimal() {
    let (_, b) = mgs_bound();
    let (m, n) = (4096i128, 512i128);
    let envp = [("M", m as i64), ("N", n as i64)];
    let w = iolb_ir::count::eval_params(&b.w_min, &envp).to_f64();
    let vol = iolb_ir::count::eval_params(&b.volume_tool, &envp).to_f64();
    // In the S ≳ W regime the paper targets, K = 2S is near-optimal.
    for s in [2048i128, 8192, 32768] {
        let sf = s as f64;
        let wrapped = |k: f64| (k - sf) * vol / (k * k / w + 2.0 * k);
        let at_2s = wrapped(2.0 * sf);
        // Grid search for the optimum.
        let best = (11..400)
            .map(|t| wrapped(sf * t as f64 / 10.0))
            .fold(0.0f64, f64::max);
        assert!(at_2s <= best + 1e-9);
        assert!(
            at_2s >= 0.75 * best,
            "S={s}: K=2S gives {at_2s:.3e}, optimum {best:.3e}"
        );
    }
    // For S ≪ W the K-sweep beats K = 2S, but the combined bound's small-S
    // branch (K = W, |E| ≤ 2K) covers the gap — the reason Theorem 5 has
    // two branches.
    let s = 128f64;
    let wrapped = |k: f64| (k - s) * vol / (k * k / w + 2.0 * k);
    let best = (11..400)
        .map(|t| wrapped(s * t as f64 / 10.0))
        .fold(0.0f64, f64::max);
    let vol_nodrop = iolb_ir::count::eval_params(&b.volume_nodrop, &envp).to_f64();
    let small_branch = (w - s) * vol_nodrop / (2.0 * w);
    assert!(
        wrapped(2.0 * s) < 0.75 * best,
        "K=2S alone is loose at S ≪ W"
    );
    assert!(
        small_branch > best,
        "…but the small-S branch dominates there"
    );
}

/// The disjoint-inset refinement multiplies the classical bound by
/// `m^σ = 3^{3/2} ≈ 5.196` for the 3-projection kernels — without it the
/// MGS old bound's leading constant would be ~0.19 instead of 1.
#[test]
fn disjointness_refinement_factor() {
    let p = iolb_kernels::program("mgs");
    let analysis = Analysis::run(&p, &[vec![9, 6]]).unwrap();
    let su = p.stmt_id("SU").unwrap();
    let b = analysis.classical_bound(su);
    assert_eq!(b.m, Rational::int(3));
    // Reconstruct the m = 1 (no refinement) value and compare.
    let env = [
        (Var::new("M"), 4096i128),
        (Var::new("N"), 512),
        (s_var(), 1024),
    ];
    let with = b.expr.eval_ints_f64(&env);
    let vol = iolb_ir::count::eval_params(&b.volume, &[("M", 4096), ("N", 512)]).to_f64();
    // c(σ, 1)·|V|·S^{1−σ} with σ = 3/2: (1/2)^{1/2}·(2/3)^{3/2}·…
    let sigma = 1.5f64;
    let c1 = (1.0f64 * (sigma - 1.0) / sigma).powf(sigma) / (sigma - 1.0);
    let without = c1 * vol * (1024f64).powf(1.0 - sigma);
    let factor = with / without;
    assert!(
        (factor - 3f64.powf(1.5)).abs() < 1e-9,
        "refinement factor {factor} vs 3^(3/2)"
    );
}

/// Uniform (`K²/W_min`) vs refined (`W_max·K²/W_min²`) hourglass variants:
/// identical when the width is constant (MGS), and the refined variant is
/// the smaller (safer) of the two when the width varies (A2V).
#[test]
fn width_variant_ordering() {
    let (_, mgs) = mgs_bound();
    let env = [
        (Var::new("M"), 4096i128),
        (Var::new("N"), 512),
        (s_var(), 1024),
    ];
    let u = mgs.main_tool.eval_ints_f64(&env);
    let r = mgs.refined.eval_ints_f64(&env);
    assert!(
        (u / r - 1.0).abs() < 1e-12,
        "constant width: variants agree"
    );

    let p = iolb_kernels::program("qr_hh_a2v");
    let analysis = Analysis::run(&p, &[vec![9, 6]]).unwrap();
    let su = p.stmt_id("SU").unwrap();
    let pat = analysis.detect_hourglass(su).unwrap();
    let b = hourglass::derive(&p, &pat, &hourglass::SplitChoice::None);
    let u = b.main_tool.eval_ints_f64(&env);
    let r = b.refined.eval_ints_f64(&env);
    assert!(r < u, "varying width: refined ({r}) < uniform ({u})");
    assert!(r > 0.5 * u, "but within a constant factor here");
}

/// Theorem 5's two branches: the small-S branch `(M−S)N(N−1)/4` dominates
/// for S ≪ M and hands over to the main branch as S grows past ~M.
#[test]
fn small_s_branch_crossover() {
    let (_, b) = mgs_bound();
    let (m, n) = (1024i128, 256i128);
    let value = |e: &iolb_symbolic::Expr, s: i128| {
        e.eval_ints_f64(&[(Var::new("M"), m), (Var::new("N"), n), (s_var(), s)])
    };
    // Far below M: small-S branch wins.
    assert!(value(&b.small_s, 32) > value(&b.main, 32));
    // Far above M: main branch wins (small-S is negative there).
    assert!(value(&b.main, 8192) > value(&b.small_s, 8192));
    assert!(value(&b.small_s, 8192) < 0.0);
    // The combined bound is the max of the two everywhere.
    for s in [32i128, 256, 1024, 8192] {
        let c = value(&b.combined, s);
        assert!((c - value(&b.main, s).max(value(&b.small_s, s))).abs() < 1e-9);
    }
}

/// §5.3 split-point ablation for GEHD2: Theorem 9 instantiates `Ms = N/2−1`
/// (large S) and `Ms = N−S−2` (small S); the bound at each instantiation
/// must dominate in its own regime.
#[test]
fn gehd2_split_point_ablation() {
    let p = iolb_kernels::program("gehd2");
    let analysis = Analysis::run(&p, &[vec![9]]).unwrap();
    let su = p.stmt_id("SU1").unwrap();
    let pat = analysis.detect_hourglass(su).unwrap();
    let b = hourglass::derive(
        &p,
        &pat,
        &hourglass::SplitChoice::At(iolb_symbolic::Poly::var(iolb_core::theorems::split_var())),
    );
    let n = 4096i128;
    // The sound (split-restricted volume) bound exposes the tradeoff: a
    // larger split point keeps more statement instances but shrinks the
    // residual width. The optimum is interior — both extremes lose.
    let value = |s: i128, ms: i128| {
        b.main.eval_ints_f64(&[
            (Var::new("N"), n),
            (s_var(), s),
            (iolb_core::theorems::split_var(), ms),
        ])
    };
    for s in [64i128, n] {
        let mid = value(s, n / 2 - 1);
        assert!(
            mid > value(s, 8),
            "S={s}: tiny split keeps too few instances"
        );
        assert!(mid > value(s, n - 3), "S={s}: late split leaves no width");
    }
    // And the Theorem-9 instantiation Ms = N/2 − 1 tracks N⁴/(12(N+2S)):
    // the tool-volume variant equals it exactly (tested in kernel_bounds);
    // the sound variant stays within a constant factor below it.
    let s = 512i128;
    let thm9 = iolb_core::theorems::thm9_gehd2().eval_ints_f64(&[(Var::new("N"), n), (s_var(), s)]);
    let sound = value(s, n / 2 - 1);
    assert!(
        sound <= thm9 && sound > 0.5 * thm9,
        "sound {sound} vs thm9 {thm9}"
    );
}
