//! Model-level validation: every derived lower bound must sit at or below
//! the loads of a *legal* red-white pebble game play on the exact CDAG.
//!
//! A violation here would mean the derivation (or its transcription) is
//! unsound — this is the reproduction's ground-truth check, run for every
//! kernel across a grid of (problem size, S).

use iolb_cdag::{build_cdag, PebbleGame};
use iolb_core::hourglass::SplitChoice;
use iolb_core::{hourglass, theorems, Analysis};
use iolb_symbolic::Var;

struct Case {
    name: &'static str,
    program: iolb_ir::Program,
    hourglass_stmt: Option<&'static str>,
    params: Vec<i64>,
    env: Vec<(Var, i128)>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "MGS",
            program: iolb_kernels::program("mgs"),
            hourglass_stmt: Some("SU"),
            params: vec![12, 6],
            env: vec![(Var::new("M"), 12), (Var::new("N"), 6)],
        },
        Case {
            name: "QR HH A2V",
            program: iolb_kernels::program("qr_hh_a2v"),
            hourglass_stmt: Some("SU"),
            params: vec![14, 6],
            env: vec![(Var::new("M"), 14), (Var::new("N"), 6)],
        },
        Case {
            name: "QR HH V2Q",
            program: iolb_kernels::program("qr_hh_v2q"),
            hourglass_stmt: Some("SU"),
            params: vec![14, 6],
            env: vec![(Var::new("M"), 14), (Var::new("N"), 6)],
        },
        Case {
            name: "GEBD2",
            program: iolb_kernels::program("gebd2"),
            hourglass_stmt: Some("SU"),
            params: vec![12, 6],
            env: vec![(Var::new("M"), 12), (Var::new("N"), 6)],
        },
        Case {
            name: "GEHD2",
            program: iolb_kernels::program("gehd2"),
            hourglass_stmt: Some("SU1"),
            params: vec![11],
            env: vec![(Var::new("N"), 11), (theorems::split_var(), 5)],
        },
        Case {
            name: "GEMM",
            program: iolb_kernels::program("gemm"),
            hourglass_stmt: None,
            params: vec![8, 8, 8],
            env: vec![(Var::new("M"), 8), (Var::new("N"), 8), (Var::new("K"), 8)],
        },
    ]
}

#[test]
fn bounds_never_exceed_pebble_plays() {
    let mut nontrivial = 0usize;
    for case in cases() {
        let analysis = Analysis::run(&case.program, std::slice::from_ref(&case.params)).unwrap();
        let stmt_name = case.hourglass_stmt.unwrap_or("SU");
        let stmt = case.program.stmt_id(stmt_name).unwrap();
        let classical = analysis.classical_bound(stmt);
        let hg = analysis.detect_hourglass(stmt).map(|pat| {
            let split = if case.name == "GEHD2" {
                SplitChoice::At(iolb_symbolic::Poly::var(theorems::split_var()))
            } else {
                SplitChoice::None
            };
            hourglass::derive(&case.program, &pat, &split)
        });
        assert_eq!(
            hg.is_some(),
            case.hourglass_stmt.is_some(),
            "{}: hourglass detection mismatch",
            case.name
        );

        let cdag = build_cdag(&case.program, &case.params);
        let min_s = cdag.max_in_degree() + 1;
        for s in [min_s, min_s + 2, min_s + 6, min_s + 14, min_s + 30] {
            let game = PebbleGame::new(&cdag, s);
            let play = game
                .best_play()
                .unwrap_or_else(|e| panic!("{}: pebble play failed at S={s}: {e}", case.name));
            let lb_classical = classical.eval_floor(&case.env, s as i128);
            let lb_hourglass = hg
                .as_ref()
                .map(|b| b.eval_floor(&case.env, s as i128))
                .unwrap_or(0.0);
            let lb = lb_classical.max(lb_hourglass);
            assert!(
                lb <= play.loads as f64 + 1e-9,
                "{}: S={s}: bound {lb} exceeds pebble loads {} (classical {lb_classical}, hourglass {lb_hourglass})",
                case.name,
                play.loads
            );
            if lb > 0.0 {
                nontrivial += 1;
            }
        }
    }
    assert!(
        nontrivial >= 10,
        "validation must exercise non-trivial bounds (got {nontrivial})"
    );
}

#[test]
fn hourglass_certification_passes_for_all_kernels() {
    for case in cases() {
        let Some(stmt_name) = case.hourglass_stmt else {
            continue;
        };
        let analysis = Analysis::run(&case.program, std::slice::from_ref(&case.params)).unwrap();
        let stmt = case.program.stmt_id(stmt_name).unwrap();
        let pat = analysis
            .detect_hourglass(stmt)
            .unwrap_or_else(|| panic!("{}: no pattern", case.name));
        let cdag = build_cdag(&case.program, &case.params);
        let checked = hourglass::certify(&case.program, &cdag, &pat)
            .unwrap_or_else(|e| panic!("{}: certification failed: {e}", case.name));
        assert!(checked > 0, "{}", case.name);
    }
}

#[test]
fn tiled_mgs_play_beats_program_order_at_matching_cache() {
    // The tiled schedule (Fig. 8) exists precisely to reduce I/O; its pebble
    // play must use fewer loads than the untiled right-looking order once S
    // holds a block of columns.
    let (m, n): (i64, i64) = (16, 8);
    let s = 3 * m as usize + 4; // fits B+1 ≈ 2–3 columns
    let block = (s as i64 / m - 1).max(1); // Appendix A.1's B = ⌊S/M⌋ − 1
    let untiled = build_cdag(&iolb_kernels::program("mgs"), &[m, n]);
    let tiled = build_cdag(&iolb_kernels::program("tiled/mgs_tiled"), &[m, n, block]);
    let u = PebbleGame::new(&untiled, s).best_play().unwrap();
    let t = PebbleGame::new(&tiled, s).best_play().unwrap();
    assert!(
        t.loads < u.loads,
        "tiled loads {} < untiled loads {}",
        t.loads,
        u.loads
    );
}
