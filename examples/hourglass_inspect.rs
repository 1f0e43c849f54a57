//! Inspects the hourglass pattern (§3.2) detected on each kernel: the
//! temporal / neutral / reduction-broadcast dimension partition, the
//! reduction statement, the parametric width, and the certification of the
//! dependency-chain property on an exact CDAG.
//!
//! Run with `cargo run --example hourglass_inspect`.

use hourglass_iolb::cdag::build_cdag;
use hourglass_iolb::core::{hourglass, Analysis};
use hourglass_iolb::kernels;

fn main() {
    let cases: Vec<(iolb_ir::Program, &str, Vec<i64>)> = vec![
        (kernels::program("mgs"), "SU", vec![9, 6]),
        (kernels::program("qr_hh_a2v"), "SU", vec![9, 6]),
        (kernels::program("qr_hh_v2q"), "SU", vec![9, 6]),
        (kernels::program("gebd2"), "SU", vec![9, 6]),
        (kernels::program("gehd2"), "SU1", vec![9]),
        (kernels::program("gemm"), "SU", vec![5, 6, 4]),
    ];
    for (program, stmt_name, params) in cases {
        let analysis = Analysis::run(&program, std::slice::from_ref(&params)).expect("analysis");
        let stmt = program.stmt_id(stmt_name).unwrap();
        let dim_name = |d: &iolb_ir::DimId| program.loop_info(*d).name.clone();
        print!("{:<12} ", program.name);
        match analysis.detect_hourglass(stmt) {
            None => println!("no hourglass (expected for gemm)"),
            Some(pat) => {
                let b = hourglass::derive(&program, &pat, &hourglass::SplitChoice::None);
                let cdag = build_cdag(&program, &params);
                let checked = hourglass::certify(&program, &cdag, &pat).expect("chain property");
                println!(
                    "temporal {:?}  neutral {:?}  rb {:?}  reduction {}  W ∈ [{}, {}]  ({checked} chains certified)",
                    pat.temporal.iter().map(dim_name).collect::<Vec<_>>(),
                    pat.neutral.iter().map(dim_name).collect::<Vec<_>>(),
                    pat.rb.iter().map(dim_name).collect::<Vec<_>>(),
                    program.stmt(pat.reduction_stmt).name,
                    b.w_min,
                    b.w_max,
                );
            }
        }
    }
}
