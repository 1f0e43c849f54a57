//! Quickstart: derive the paper's MGS bounds automatically and validate
//! them against a red-white pebble game play.
//!
//! Run with `cargo run --example quickstart`.

use hourglass_iolb::prelude::*;
use hourglass_iolb::{cdag, core};

fn main() {
    // 1. The kernel: right-looking Modified Gram-Schmidt (paper Fig. 1),
    //    as shipped in kernels/mgs.iolb.
    let kernel = parse_kernel(include_str!("../kernels/mgs.iolb")).expect("shipped file");
    let program = &kernel.program;

    // 2. Automatic derivation at the file's defaults: classical
    //    K-partitioning ("old") plus the hourglass-tightened bound ("new").
    let report = KernelReport::from_file("MGS", &kernel).expect("derivation");
    println!("kernel: MGS (Figure 1)");
    println!("  Brascamp-Lieb exponent σ = {}", report.old.sigma);
    println!("  old bound: {}", report.old.expr);
    println!("  hourglass width W = {}", report.new.w_min);
    println!("  new bound: {}", report.new.main_tool);

    // 3. Evaluate both at concrete sizes: the parametric improvement.
    let env = |m: i128, n: i128, s: i128| {
        vec![(Var::new("M"), m), (Var::new("N"), n), (core::s_var(), s)]
    };
    for (m, n, s) in [(4096i128, 512i128, 256i128), (4096, 512, 2048)] {
        let old = report.old.expr.eval_ints_f64(&env(m, n, s));
        let new = report.new.main_tool.eval_ints_f64(&env(m, n, s));
        println!(
            "  M={m:>6} N={n:>4} S={s:>5}: old {old:>14.3e}  new {new:>14.3e}  gain ×{:.1}",
            new / old
        );
    }

    // 4. Soundness check on an exact CDAG: a legal pebble-game play can
    //    never use fewer loads than the bound.
    let params = [24i64, 8];
    let g = cdag::build_cdag(program, &params);
    let s = 16usize;
    let play = PebbleGame::new(&g, s)
        .play_program_order(SpillPolicy::MinNextUse)
        .expect("legal play");
    let lb = report
        .new
        .eval_floor(&[(Var::new("M"), 24), (Var::new("N"), 8)], s as i128);
    println!("\npebble validation at M=24 N=8 S={s}:");
    println!("  lower bound {lb:.0} ≤ measured loads {} ✓", play.loads);
    assert!(lb <= play.loads as f64);
}
