//! Property tests on derived bounds: shape invariants that must hold for
//! any sensible I/O lower bound.

use iolb_core::report::KernelReport;
use iolb_core::s_var;
use iolb_symbolic::Var;
use proptest::prelude::*;

/// The MGS report, derived once from the shipped file at its defaults.
fn mgs_report() -> &'static KernelReport {
    static REPORT: std::sync::OnceLock<KernelReport> = std::sync::OnceLock::new();
    REPORT.get_or_init(|| {
        let kernel = iolb_ir::parse_kernel(include_str!("../../../kernels/mgs.iolb")).unwrap();
        KernelReport::from_file("MGS", &kernel).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bounds weaken (decrease) as the fast memory grows.
    #[test]
    fn bounds_decrease_in_s(mexp in 8u32..14, nshift in 1u32..4, sexp in 4u32..10) {
        let report = mgs_report();
        let m = 1i128 << mexp;
        let n = m >> nshift;
        let s1 = 1i128 << sexp;
        let s2 = s1 * 2;
        let env = |s: i128| vec![(Var::new("M"), m), (Var::new("N"), n), (s_var(), s)];
        let at = |s: i128| report.new.main_tool.eval_ints_f64(&env(s));
        prop_assert!(at(s2) <= at(s1) + 1e-6);
        let old = |s: i128| report.old.expr.eval_ints_f64(&env(s));
        prop_assert!(old(s2) <= old(s1) + 1e-6);
    }

    /// Bounds grow with the problem size (more work moves more data).
    #[test]
    fn bounds_increase_in_problem_size(mexp in 8u32..13, sexp in 4u32..8) {
        let report = mgs_report();
        let s = 1i128 << sexp;
        let at = |m: i128, n: i128| {
            report.new.main_tool.eval_ints_f64(&[
                (Var::new("M"), m),
                (Var::new("N"), n),
                (s_var(), s),
            ])
        };
        let m = 1i128 << mexp;
        prop_assert!(at(2 * m, m / 4) >= at(m, m / 4));
        prop_assert!(at(m, m / 2) >= at(m, m / 4));
    }

    /// The floored Theorem-1 evaluation never exceeds the closed formula,
    /// and the hourglass bound beats the classical one whenever both are
    /// meaningful (S well below the dominant term's validity edge).
    #[test]
    fn floored_versions_are_conservative(mexp in 8u32..12, sexp in 5u32..9) {
        let report = mgs_report();
        let m = 1i128 << mexp;
        let n = m / 4;
        let s = 1i128 << sexp;
        let env = [(Var::new("M"), m), (Var::new("N"), n)];
        let fl = report.new.eval_floor(&env, s);
        let formula = report.new.combined.eval_ints_f64(&[
            (Var::new("M"), m),
            (Var::new("N"), n),
            (s_var(), s),
        ]);
        prop_assert!(fl <= formula + 1e-6);
        let fl_old = report.old.eval_floor(&env, s);
        let formula_old = report.old.expr.eval_ints_f64(&[
            (Var::new("M"), m),
            (Var::new("N"), n),
            (s_var(), s),
        ]);
        prop_assert!(fl_old <= formula_old + 1e-6);
    }
}
