//! Cross-crate consistency: symbolic instance counting (the barvinok
//! substitute) must agree with exact enumeration for every kernel, and the
//! declared access metadata must match execution at several sizes.

use hourglass_iolb::ir::count::{enumerate_instance_counts, eval_params, instance_count};
use hourglass_iolb::kernels;
use hourglass_iolb::kernels::interp::validate_accesses;
use iolb_numeric::Rational;

/// One case: program, parameter grids, and the matching symbolic envs.
type CountCase = (
    iolb_ir::Program,
    Vec<Vec<i64>>,
    Vec<Vec<(&'static str, i64)>>,
);

#[test]
fn symbolic_counts_match_enumeration_everywhere() {
    let cases: Vec<CountCase> = vec![
        (
            kernels::program("mgs"),
            vec![vec![7, 5], vec![10, 6]],
            vec![vec![("M", 7), ("N", 5)], vec![("M", 10), ("N", 6)]],
        ),
        (
            kernels::program("qr_hh_a2v"),
            vec![vec![8, 5], vec![11, 7]],
            vec![vec![("M", 8), ("N", 5)], vec![("M", 11), ("N", 7)]],
        ),
        (
            kernels::program("qr_hh_v2q"),
            vec![vec![8, 5]],
            vec![vec![("M", 8), ("N", 5)]],
        ),
        (
            kernels::program("gebd2"),
            vec![vec![8, 5]],
            vec![vec![("M", 8), ("N", 5)]],
        ),
        (
            kernels::program("gehd2"),
            vec![vec![8]],
            vec![vec![("N", 8)]],
        ),
        (
            kernels::program("gemm"),
            vec![vec![4, 5, 3]],
            vec![vec![("M", 4), ("N", 5), ("K", 3)]],
        ),
    ];
    for (program, param_sets, envs) in cases {
        for (params, env) in param_sets.iter().zip(&envs) {
            let counts = enumerate_instance_counts(&program, params);
            for (sid, &exact) in counts.iter().enumerate() {
                let stmt = iolb_ir::StmtId(sid as u32);
                // GEBD2's guarded statements sit under a min-bounded loop the
                // symbolic counter doesn't support — skip those.
                let countable = program.stmt(stmt).dims.iter().all(|d| {
                    let info = program.loop_info(*d);
                    info.lo.len() == 1
                        && info.hi.len() == 1
                        && matches!(info.step, iolb_ir::LoopStep::One)
                });
                if !countable {
                    continue;
                }
                let sym = eval_params(&instance_count(&program, stmt), env);
                assert_eq!(
                    sym,
                    Rational::int(exact as i128),
                    "{}::{} at {:?}",
                    program.name,
                    program.stmt(stmt).name,
                    params
                );
            }
        }
    }
}

/// Every shipped paper kernel file's f64 closures perform exactly its
/// declared accesses — the tiled Appendix A files included — at two
/// parameter sets each.
#[test]
fn all_kernels_validate_declared_accesses() {
    let cases: [(&str, [&[i64]; 2]); 8] = [
        ("mgs", [&[9, 6], &[7, 5]]),
        ("tiled/mgs_tiled", [&[9, 6, 2], &[8, 6, 3]]),
        ("qr_hh_a2v", [&[9, 6], &[8, 5]]),
        ("tiled/qr_hh_a2v_tiled", [&[9, 6, 2], &[8, 5, 4]]),
        ("qr_hh_v2q", [&[9, 6], &[8, 5]]),
        ("gebd2", [&[9, 6], &[6, 6]]),
        ("gehd2", [&[9], &[7]]),
        ("gemm", [&[4, 5, 3], &[5, 4, 6]]),
    ];
    for (stem, param_sets) in cases {
        let exe = kernels::executable(stem);
        for params in param_sets {
            let n = validate_accesses(&exe, params)
                .unwrap_or_else(|e| panic!("{stem} at {params:?}: {e}"));
            assert!(n > 0, "{stem} at {params:?}");
        }
    }
}
