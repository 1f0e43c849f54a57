//! The six paper kernels' shipped `kernels/*.iolb` files — the one source
//! of their IR: every file round-trips through the pretty-printer with all
//! its directives and derives the same bounds at the file's `default`
//! parameters as at the fixed observation sizes the derivation used before
//! it read the defaults. The Appendix A tiled orders under `kernels/tiled/`
//! round-trip too. That each file computes its factorization is checked
//! numerically in `iolb-kernels`, where f64 semantics attach to the same
//! files.

use iolb_core::report::{derive_stmt_bounds, SplitBinding};
use iolb_ir::parse::{assert_kernel_roundtrip, parse_kernel, KernelFile};
use iolb_ir::Program;
use iolb_symbolic::Var;
use std::path::PathBuf;

/// The six paper kernels' file stems.
const PAPER_FILES: [&str; 6] = ["mgs", "qr_hh_a2v", "qr_hh_v2q", "gebd2", "gehd2", "gemm"];

/// The Appendix A tiled orders: each file's path under `kernels/` (no
/// extension).
const TILED_FILES: [&str; 2] = ["tiled/mgs_tiled", "tiled/qr_hh_a2v_tiled"];

fn shipped_path(stem: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../kernels")
        .join(format!("{stem}.iolb"))
}

fn shipped(stem: &str) -> KernelFile {
    let path = shipped_path(stem);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_kernel(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The observation sizes the derivation used before it read the file
/// defaults: (9,6)/(8,5) for two parameters, (9)/(8) for one, and (5,6,4)
/// for GEMM's three.
fn fixed_sizes(program: &Program) -> Vec<i64> {
    match program.params.len() {
        1 => vec![9],
        2 => vec![9, 6],
        _ => vec![5, 6, 4],
    }
}

/// Derives (classical, hourglass) bound fingerprints of `program`'s
/// statement `stmt` at `params` through [`derive_stmt_bounds`]: the
/// rendered expressions plus a numeric evaluation at a fixed point.
fn fingerprint(
    program: &Program,
    stmt: &str,
    params: &[i64],
    split: Option<SplitBinding>,
) -> Vec<String> {
    let id = program.stmt_id(stmt).expect("stmt");
    let bounds = derive_stmt_bounds(program, id, params, split, true, None).expect("derivation");
    let mut out = Vec::new();
    match &bounds.classical {
        Some(b) => out.push(format!(
            "classical σ={} m={} {} |V|={}",
            b.sigma, b.m, b.expr, b.volume
        )),
        None => out.push("classical none".to_string()),
    }
    match &bounds.hourglass {
        Some(b) => {
            out.push(format!(
                "hourglass W=[{},{}] R={} V={} main={} small={} combined={}",
                b.w_min, b.w_max, b.r_factor, b.volume_tool, b.main_tool, b.small_s, b.combined
            ));
            // A numeric spot-check on the combined floored form.
            let mut env: Vec<(Var, i128)> = program
                .params
                .iter()
                .enumerate()
                .map(|(i, n)| (Var::new(n), 40 - 7 * i as i128))
                .collect();
            if let Some(s) = &bounds.split {
                out.push(format!("split {} = {}", s.var, s.expr));
                env.push((s.var, 12));
            }
            out.push(format!("floor={}", b.eval_floor(&env, 64)));
        }
        None => out.push("hourglass none".to_string()),
    }
    out
}

#[test]
fn paper_kernels_round_trip_with_identical_bounds() {
    for stem in PAPER_FILES {
        let file = shipped(stem);
        assert_kernel_roundtrip(&file);
        let stmt = file.analyze.as_deref().expect("analyze directive");
        let defaults = file.default_params().expect("default directive");
        let split = SplitBinding::from_directive(&file);

        let parsed_fp = fingerprint(&file.program, stmt, &defaults, split.clone());
        let fixed_fp = fingerprint(&file.program, stmt, &fixed_sizes(&file.program), split);
        assert_eq!(
            fixed_fp, parsed_fp,
            "{stem}: bounds at the file defaults differ from the fixed observation sizes"
        );
        assert!(
            !parsed_fp.is_empty(),
            "{stem}: fingerprint must cover at least the classical bound"
        );
    }
    for stem in TILED_FILES {
        assert_kernel_roundtrip(&shipped(stem));
    }
}
