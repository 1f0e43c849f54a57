//! Validation matrix: derived lower bounds vs the measured miss curves of
//! each paper kernel's program-order execution (the kernels parsed from
//! their shipped `kernels/*.iolb` files), at enlarged sizes (MGS 64×32,
//! GEMM 48³, …) over the dense ~32-point S grid — every `(kernel, S,
//! policy)` cell read off one stack-distance pass per policy column.
//!
//! Writes `BENCH_pebble.json` (schema `hourglass-iolb/pebble-sweep/v5`)
//! into the working directory — or to the path given as the first
//! argument, so CI can generate a fresh copy next to the committed
//! baseline and diff the two — letting future runs compare loads, bound
//! ratios, and soundness.

use iolb_bench::scale::measure_scaling_series;
use iolb_bench::sweep::{
    default_sweep_kernels_at, render_sweep_table, run_sweep, sweep_report_json, SweepSize,
};

fn main() {
    println!("Validation sweep: max(LB) must be ≤ the measured miss curve at every S");
    println!("{}", "=".repeat(100));
    let mut report = run_sweep(default_sweep_kernels_at(SweepSize::Full));
    // Curve-engine scaling series (10⁶ → 10⁸ synthetic GEMM events,
    // streaming passes): recorded in meta, gated by `xtask gate`
    // against >2× wall-time regressions of the largest point.
    report.scaling = measure_scaling_series();
    print!("{}", render_sweep_table(&report));
    for p in &report.scaling {
        println!(
            "scaling: {:>12} accesses {:?}: {:.1} ms",
            p.accesses, p.policy, p.wall_ms
        );
    }
    let mut unsound = 0usize;
    for r in &report.rows {
        if !r.sound() {
            eprintln!(
                "UNSOUND: {} S={} {:?}: bound {} exceeds measured loads {}",
                r.kernel,
                r.s,
                r.policy,
                r.lb(),
                r.loads
            );
            unsound += 1;
        }
    }
    let json = sweep_report_json(&report, false);
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pebble.json".to_string());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path} ({} rows)", report.rows.len());
    assert_eq!(unsound, 0, "{unsound} unsound bounds — see stderr");
    println!("all bounds ≤ measured curves ✓");
}
