//! Workspace-level end-to-end test: shipped kernel file + its f64
//! semantics → interpreter → numerics → CDAG → dependence analysis →
//! hourglass detection/certification → derived bound → pebble-game
//! soundness, all on the public facade API.

use hourglass_iolb::cdag::{build_cdag, PebbleGame, SpillPolicy};
use hourglass_iolb::core;
use hourglass_iolb::kernels::interp::{
    array_ids, validate_accesses, Executable, Interpreter, Semantics,
};
use hourglass_iolb::kernels::{self, Matrix};
use hourglass_iolb::prelude::*;

/// The MGS report, derived from the shipped kernel file at its defaults.
fn mgs_report() -> KernelReport {
    let kernel = parse_kernel(include_str!("../kernels/mgs.iolb")).unwrap();
    KernelReport::from_file("MGS", &kernel).unwrap()
}

#[test]
fn full_pipeline_mgs() {
    let exe = kernels::executable("mgs");
    let program = &exe.program;

    // Declared accesses match executed accesses.
    let checked = validate_accesses(&exe, &[10, 6]).unwrap();
    assert!(checked > 0);

    // Numerics: the IR really computes a QR factorization.
    let a = Matrix::random(10, 6, 99);
    let store = kernels::exec::run_with_inputs(&exe, &[10, 6], &[("A", &a.data)]);
    let q = kernels::exec::extract_matrix(program, &[10, 6], &store, "Q");
    let r = kernels::exec::extract_matrix(program, &[10, 6], &store, "R");
    assert!(q.orthonormality_error() < 1e-10);
    assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);

    // Derivation reproduces the paper's formulas.
    let report = mgs_report();
    assert_eq!(report.old.sigma, Rational::new(3, 2));
    let env = [
        (Var::new("M"), 1024i128),
        (Var::new("N"), 128),
        (core::s_var(), 256),
    ];
    let new = report.new.main_tool.eval_ints_f64(&env);
    let expect = 1024.0f64 * 1024.0 * 127.0 * 126.0 / (8.0 * (1024.0 + 256.0));
    assert!((new / expect - 1.0).abs() < 1e-12);

    // Pebble soundness through the facade.
    let g = build_cdag(program, &[16, 8]);
    for s in [8usize, 16, 40] {
        let play = PebbleGame::new(&g, s)
            .play_program_order(SpillPolicy::MinNextUse)
            .unwrap();
        let lb = report
            .new
            .eval_floor(&[(Var::new("M"), 16), (Var::new("N"), 8)], s as i128);
        assert!(lb <= play.loads as f64, "S={s}: {lb} vs {}", play.loads);
    }
}

#[test]
fn memsim_agrees_with_pebble_game_ordering() {
    // An LRU pebble play on the CDAG must shrink as S grows. The cache-
    // simulator side, the LRU curve of MGS's declared-access trace, is
    // held monotone in S by `iolb_bench::sweep`'s
    // `small_sweep_is_sound_and_min_beats_lru`.
    let params = [16i64, 8];
    let g = build_cdag(&kernels::program("mgs"), &params);
    let mut prev_play = u64::MAX;
    for s in [12usize, 24, 48, 96] {
        let play = PebbleGame::new(&g, s)
            .play_program_order(SpillPolicy::Lru)
            .unwrap();
        assert!(play.loads <= prev_play);
        prev_play = play.loads;
    }
}

#[test]
fn prelude_surface_is_usable() {
    // Build a custom program through the public builder, run it with f64
    // semantics attached by label, and derive a bound.
    let mut b = ProgramBuilder::new("user_kernel", &["N"]);
    let x = b.array("x", &[b.p("N")]);
    let acc = b.scalar("acc");
    let wa = hourglass_iolb::ir::Access::new(acc, vec![]);
    b.stmt("Z", vec![], vec![wa.clone()]);
    let i = b.open("i", b.c(0), b.p("N"));
    let xi = hourglass_iolb::ir::Access::new(x, vec![b.d(i)]);
    b.stmt("S", vec![xi, wa.clone()], vec![wa]);
    b.close();
    let exe = Executable::attach(b.finish(), |p| {
        let [x, acc] = array_ids(p, ["x", "acc"])?;
        Ok(Semantics::default()
            .on("Z", move |c| c.wr(acc, &[], 0.0))
            .on("S", move |c| {
                let v = c.rd(x, &[c.v(0)]) + c.rd(acc, &[]);
                c.wr(acc, &[], v);
            }))
    })
    .unwrap();
    let interp = Interpreter::new(&exe, &[10]);
    let store = interp.run_numeric(|a, f| if a.0 == 0 { f as f64 } else { 0.0 });
    assert_eq!(store.data[1][0], 45.0);
    let p = &exe.program;
    let analysis = Analysis::run(p, &[vec![10]]).unwrap();
    let su = p.stmt_id("S").unwrap();
    let bound = analysis.classical_bound(su);
    assert!(bound.sigma >= Rational::ONE);
}
