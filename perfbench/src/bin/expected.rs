//! Expected-loads oracle generator.
//!
//! For every `KERNEL_FILE[:NAME=INT,...]` argument, builds the exact CDAG at
//! the resolved parameters, materializes its packed program-order trace and
//! replays it through the reference simulators (`LruSim::run_packed`,
//! `BeladySim::run_packed`) at every S of the dense grid — one replay per
//! (S, policy), independent of the curve engines the analysis uses.
//!
//! Prints one line per cell: `kernel params s policy loads`, with `params`
//! the comma-joined resolved values, exactly as the report rows carry them.
//! `python3 perfbench/run.py --regen-expected` runs this over every
//! configuration the workloads reach and rewrites
//! `perfbench/expected_loads.txt`.

use iolb_bench::sweep::dense_s_offsets;
use iolb_cdag::try_build_cdag;
use iolb_core::govern::{Budget, CancelToken};
use iolb_memsim::{BeladySim, LruSim};
use iolb_service::pipeline::{parse_stage, resolve_params};
use std::process::ExitCode;

fn expected_lines(arg: &str) -> Result<Vec<String>, String> {
    let (path, over) = match arg.split_once(':') {
        Some((p, o)) => (p, o),
        None => (arg, ""),
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let kernel = parse_stage(&src).map_err(|e| format!("{path}: {e}"))?;
    let mut overrides = Vec::new();
    for kv in over.split(',').filter(|kv| !kv.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad params entry `{kv}`"))?;
        let v: i64 = v.parse().map_err(|_| format!("bad integer in `{kv}`"))?;
        overrides.push((k.to_string(), v));
    }
    let params = resolve_params(&kernel, &overrides).map_err(|e| e.to_string())?;
    let cdag = try_build_cdag(
        &kernel.program,
        &params,
        &Budget::unlimited(),
        &CancelToken::unlimited(),
    )
    .map_err(|e| format!("{path}: {e}"))?;
    let mut trace = Vec::new();
    cdag.packed_program_order_trace(&mut trace);
    let min_s = cdag.max_in_degree() + 1;
    let params_csv = params
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut lines = Vec::new();
    for off in dense_s_offsets() {
        let s = min_s + off;
        let lru = LruSim::new(s).run_packed(&trace).loads;
        let opt = BeladySim::new(s).run_packed(&trace).loads;
        let name = &kernel.program.name;
        lines.push(format!("{name} {params_csv} {s} lru {lru}"));
        lines.push(format!("{name} {params_csv} {s} min_next_use {opt}"));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: perfbench-expected KERNEL_FILE[:NAME=INT,...]...");
        return ExitCode::from(2);
    }
    for arg in &args {
        match expected_lines(arg) {
            Ok(lines) => {
                for l in lines {
                    println!("{l}");
                }
            }
            Err(e) => {
                eprintln!("perfbench-expected: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
