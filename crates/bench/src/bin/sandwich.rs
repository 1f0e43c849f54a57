//! Tightness study: lower bound ≤ simulated tiled I/O ≤ O(model), with the
//! §5.1 regime behaviour around S ≈ M (crossover between the two Theorem 5
//! branches).
use iolb_symbolic::Var;

fn main() {
    let (m, n) = (64usize, 32usize);
    println!("Sandwich: hourglass LB ≤ MIN-simulated tiled MGS I/O ≤ O(½M²N²/S)");
    println!("M={m} N={n}; S sweeps through the S≈M crossover of §5.1");
    println!("{}", "=".repeat(88));
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "S", "LB(main)", "LB(small-S)", "MIN loads", "MIN/LB", "model/MIN"
    );
    let report = iolb_bench::paper_kernel("MGS").report();
    let s_values = [80usize, 128, 192, 256, 384, 512, 768, 1024];
    let rows = iolb_bench::sweep_tiled(&iolb_bench::TILED_MGS, m, n, &s_values);
    for r in &rows {
        let env = [
            (Var::new("M"), m as i128),
            (Var::new("N"), n as i128),
            (iolb_core::s_var(), r.s as i128),
        ];
        let main = report.new.main.eval_ints_f64(&env);
        let small = report.new.small_s.eval_ints_f64(&env).max(0.0);
        let lb = main.max(small).max(1.0);
        println!(
            "{:>8} {:>14.0} {:>14.0} {:>14} {:>10.2} {:>10.2}",
            r.s,
            main,
            small,
            r.min_loads,
            r.min_loads as f64 / lb,
            r.model / r.min_loads as f64,
        );
        assert!(lb <= r.min_loads as f64 + 1.0, "UNSOUND at S={}", r.s);
    }
    println!("\nLB ≤ measured ≤ O(model) across the sweep ✓");
}
