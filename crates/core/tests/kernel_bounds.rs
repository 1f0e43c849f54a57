//! End-to-end engine runs on the paper's five kernels, read from the
//! shipped `kernels/*.iolb` files: detection, certification, and parity of
//! the derived bounds with the published formulas (Figure 5 rows,
//! Theorems 5–9).

use iolb_core::report::{derive_stmt_bounds, fig5_parity, KernelReport};
use iolb_core::{s_var, theorems};
use iolb_numeric::Rational;
use iolb_symbolic::Var;

const MGS: &str = include_str!("../../../kernels/mgs.iolb");
const A2V: &str = include_str!("../../../kernels/qr_hh_a2v.iolb");
const V2Q: &str = include_str!("../../../kernels/qr_hh_v2q.iolb");
const GEBD2: &str = include_str!("../../../kernels/gebd2.iolb");
const GEHD2: &str = include_str!("../../../kernels/gehd2.iolb");
const GEMM: &str = include_str!("../../../kernels/gemm.iolb");

/// Derives the report of one shipped kernel file at its defaults.
fn analyze(name: &str, src: &str) -> KernelReport {
    let kernel = iolb_ir::parse_kernel(src).unwrap();
    KernelReport::from_file(name, &kernel).unwrap()
}

fn env(m: i128, n: i128, s: i128) -> Vec<(Var, i128)> {
    vec![
        (Var::new("M"), m),
        (Var::new("N"), n),
        (s_var(), s),
        (theorems::split_var(), n / 2 - 1),
    ]
}

#[test]
fn mgs_engine_matches_fig5_exactly() {
    let r = analyze("MGS", MGS);
    assert_eq!(r.old.sigma, iolb_numeric::Rational::new(3, 2));
    assert_eq!(r.old.m, Rational::int(3));
    assert!(!r.split);
    // Dominant term of Fig 5's MGS new row: M²(N−1)(N−2)/(8(M+S)).
    let e = env(2048, 512, 256);
    let got = r.new.main_tool.eval_ints_f64(&e);
    let expect = (2048.0f64 * 2048.0 * 511.0 * 510.0) / (8.0 * (2048.0 + 256.0));
    assert!(
        (got / expect - 1.0).abs() < 1e-12,
        "got {got} expect {expect}"
    );
    // Old bound dominant: M(N−1)(N−2)/√S.
    let got_old = r.old.expr.eval_ints_f64(&e);
    let expect_old = 2048.0 * 511.0 * 510.0 / 16.0;
    assert!((got_old / expect_old - 1.0).abs() < 1e-12);
}

#[test]
fn a2v_engine_matches_fig5_dominant() {
    let r = analyze("QR HH A2V", A2V);
    // Width shrinks to M−N at k = N−1.
    let w = iolb_ir::count::eval_params(&r.new.w_min, &[("M", 100), ("N", 30)]);
    assert_eq!(w, iolb_numeric::Rational::int(70));
    // Engine new == a2v_num·(M−N)/(24(S+M−N)) exactly.
    let (m, n, s) = (3000i128, 900i128, 400i128);
    let got = r.new.main_tool.eval_ints_f64(&env(m, n, s));
    let (mf, nf, sf) = (m as f64, n as f64, s as f64);
    let num = 3.0 * mf * nf * nf - nf * nf * nf - 9.0 * mf * nf + 6.0 * mf + 7.0 * nf - 6.0;
    let expect = num * (mf - nf) / (24.0 * (sf + mf - nf));
    assert!(
        (got / expect - 1.0).abs() < 1e-12,
        "got {got} expect {expect}"
    );
}

#[test]
fn v2q_engine_matches_fig5_dominant() {
    let r = analyze("QR HH V2Q", V2Q);
    let (m, n, s) = (3000i128, 900i128, 400i128);
    let got = r.new.main_tool.eval_ints_f64(&env(m, n, s));
    let (mf, nf, sf) = (m as f64, n as f64, s as f64);
    let num = 3.0 * mf * nf * nf - nf * nf * nf - 9.0 * mf * nf + 6.0 * mf + 7.0 * nf - 6.0;
    let expect = num * (mf - nf) / (24.0 * (sf + mf - nf));
    assert!(
        (got / expect - 1.0).abs() < 1e-12,
        "got {got} expect {expect}"
    );
}

#[test]
fn gebd2_engine_matches_theorem8_shape() {
    let r = analyze("GEBD2", GEBD2);
    // Our transcription materializes the reflector's unit coefficient
    // explicitly, so W = M−N (the paper's LAPACK-style count gives M−N+1);
    // the bounds agree up to that lower-order shift.
    let (m, n, s) = (4000i128, 1000i128, 500i128);
    let got = r.new.main_tool.eval_ints_f64(&env(m, n, s));
    let thm8 = theorems::thm8_gebd2().eval_ints_f64(&env(m, n, s));
    // Theorem 8 uses the full volume and W = M−N+1; the engine drops the
    // first iteration and uses W = M−N: same leading behaviour, ~9% lower
    // (strictly sound) at this parameter point.
    assert!(
        got <= thm8 * 1.001 && got > thm8 * 0.85,
        "engine {got} vs theorem8 {thm8}"
    );
}

#[test]
fn gehd2_engine_splits_and_matches_fig5() {
    let r = analyze("GEHD2", GEHD2);
    assert!(r.split, "GEHD2 needs §5.3 loop splitting");
    // Engine new (tool volume) == (N−1)(N−2)(N−3)(N−Ms−1)/(12(N−Ms−1+S)).
    let (n, s) = (512i128, 64i128);
    let ms = n / 2 - 1;
    let got = r.new.main_tool.eval_ints_f64(&env(0, n, s));
    let (nf, sf, msf) = (n as f64, s as f64, ms as f64);
    let w = nf - msf - 1.0;
    let expect = (nf - 1.0) * (nf - 2.0) * (nf - 3.0) * w / (12.0 * (w + sf));
    assert!(
        (got / expect - 1.0).abs() < 1e-9,
        "got {got} expect {expect}"
    );
    // And that instantiation tracks Theorem 9's N⁴/(12(N+2S)).
    let thm9 = theorems::thm9_gehd2().eval_ints_f64(&env(0, n, s));
    assert!((got / thm9 - 1.0).abs() < 0.05, "got {got} thm9 {thm9}");
}

#[test]
fn gemm_has_no_hourglass_but_classical_bound() {
    let kernel = iolb_ir::parse_kernel(GEMM).unwrap();
    let p = &kernel.program;
    let su = p.stmt_id("SU").unwrap();
    let params = kernel.default_params().unwrap();
    let bounds = derive_stmt_bounds(p, su, &params, None, true, None).unwrap();
    assert!(bounds.hourglass.is_none());
    assert!(KernelReport::from_file("GEMM", &kernel).is_err());
    let b = bounds.classical.unwrap();
    assert_eq!(b.sigma, iolb_numeric::Rational::new(3, 2));
    assert_eq!(b.m, Rational::int(3));
}

#[test]
fn fig5_parity_within_tolerance_at_scale() {
    let reports: Vec<_> = [
        ("MGS", MGS),
        ("QR HH A2V", A2V),
        ("QR HH V2Q", V2Q),
        ("GEBD2", GEBD2),
        ("GEHD2", GEHD2),
    ]
    .iter()
    .map(|(name, src)| analyze(name, src))
    .collect();
    for parity in fig5_parity(&reports, 16384, 4096, 1024) {
        let new_ratio = parity.engine_new / parity.paper_new;
        assert!(
            (new_ratio - 1.0).abs() < 0.05,
            "{}: engine new {} vs paper new {} (ratio {new_ratio})",
            parity.kernel,
            parity.engine_new,
            parity.paper_new
        );
        // Old bounds: dominant-term parity for the four QR-family kernels;
        // GEHD2's old row aggregates both update statements in IOLB, so we
        // only require the same order of magnitude there.
        let old_ratio = parity.engine_old / parity.paper_old;
        let tol = if parity.kernel == "GEHD2" { 0.7 } else { 0.05 };
        assert!(
            (old_ratio - 1.0).abs() < tol,
            "{}: engine old {} vs paper old {} (ratio {old_ratio})",
            parity.kernel,
            parity.engine_old,
            parity.paper_old
        );
    }
}

#[test]
fn new_bounds_beat_old_bounds_parametrically() {
    // Figure 4's message: the hourglass improves every kernel by a
    // parametric factor. Check the ratio grows with S (for fixed M/N).
    for (name, src) in [("MGS", MGS), ("QR HH A2V", A2V), ("GEBD2", GEBD2)] {
        let r = analyze(name, src);
        let mut prev_ratio = 0.0;
        for s in [256i128, 1024, 4096] {
            let e = env(1 << 14, 1 << 12, s);
            let ratio = r.new.main_tool.eval_ints_f64(&e) / r.old.expr.eval_ints_f64(&e);
            assert!(
                ratio > 1.0,
                "{name}: new must beat old at S={s}, got {ratio}"
            );
            assert!(ratio > prev_ratio, "{name}: improvement grows with S");
            prev_ratio = ratio;
        }
    }
}
