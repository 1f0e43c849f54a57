//! Golden snapshots of the machine-readable report schemas.
//!
//! The CI regression gate and downstream tooling parse
//! `BENCH_iolb_kernels.json` (pebble-sweep schema v5, miss-curve cells
//! with graph-level engine bounds plus per-kernel degradation/failure
//! rows) and `BENCH_tightness.json`
//! (tightness schema v3, optimal-curve upper bounds plus the same
//! governance rows); these tests pin both formats byte-for-byte on fixed
//! kernels at fixed sizes — including a batch that mixes a sound kernel,
//! a work-degraded kernel, a refused kernel, and a budget-killed kernel.
//! The comparable sections are deterministic by design (sorted rows,
//! fixed key order, volatile data confined to `meta` and redacted here),
//! so the snapshots are stable across machines and thread counts.
//!
//! To regenerate after an intentional schema change:
//! `UPDATE_GOLDEN=1 cargo test -p iolb-cli --test golden_json`.

use iolb_bench::sweep::{sweep_report_json, DegradationRow, FailureRow, SweepReport};
use iolb_bench::tightness::{tightness_report_json, TightnessReport};
use iolb_cli::{parse_args, run_file};
use iolb_core::govern::Degradation;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with UPDATE_GOLDEN=1 cargo test -p iolb-cli --test golden_json)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from the golden snapshot — if the schema change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
    );
}

#[test]
fn report_schemas_match_golden_snapshots() {
    // gemm_tiled at a reduced fixed size: covers the sweep rows, a real
    // hourglass-free tightness section, and a tuned blocked winner.
    let opts = parse_args(&[
        "--params".to_string(),
        "M=10,N=10,K=10".to_string(),
        "--s-grid".to_string(),
        "0,16,64".to_string(),
        "x".to_string(),
    ])
    .unwrap();
    let outcome = run_file(&kernels_dir().join("gemm_tiled.iolb"), &opts).expect("pipeline");
    assert_eq!(outcome.degradation, Degradation::Full);

    let sweep = outcome.report.expect("validation ran");
    check_golden("pebble_sweep_v5.json", &sweep_report_json(&sweep, true));

    let tightness = TightnessReport {
        kernels: vec![outcome.tightness.expect("tightness measured")],
        degradation: vec![DegradationRow {
            kernel: outcome.name.clone(),
            level: outcome.degradation,
        }],
        failures: Vec::new(),
        total_wall_ms: 0.0,
        threads: 0,
    };
    check_golden(
        "tightness_v3.json",
        &tightness_report_json(&tightness, true),
    );
}

/// A governed batch mixing every outcome class: one sound kernel, one
/// down-scoped to the coarse grid by the work budget, one refused
/// (unknown statement), one killed by admission control. The combined
/// report — failure rows beside every unaffected kernel's results — is
/// assembled exactly as the batch CLI does and pinned byte-for-byte.
#[test]
fn degraded_and_failed_batch_matches_golden() {
    // Sound, full-fidelity kernel.
    let mut sound_opts = parse_args(&[
        "--params".to_string(),
        "N=12".to_string(),
        "--s-grid".to_string(),
        "0,16".to_string(),
        "x".to_string(),
    ])
    .unwrap();
    sound_opts.analysis.no_tightness = true;
    let sound = run_file(&kernels_dir().join("cholesky.iolb"), &sound_opts).expect("pipeline");
    assert_eq!(sound.degradation, Degradation::Full);

    // Work budget affords the coarse grid but not the default dense one:
    // gemm_tiled 10³ has a 4100-access trace, so dense (32 points) needs
    // 131 200 work units and coarse (5 points) needs 20 500.
    let degraded_opts = parse_args(&[
        "--params".to_string(),
        "M=10,N=10,K=10".to_string(),
        "--max-work".to_string(),
        "25000".to_string(),
        "x".to_string(),
    ])
    .unwrap();
    let degraded =
        run_file(&kernels_dir().join("gemm_tiled.iolb"), &degraded_opts).expect("pipeline");
    assert_eq!(degraded.degradation, Degradation::Coarse);
    assert!(
        degraded.tightness.is_none(),
        "coarse rung skips the tuner entirely"
    );
    assert!(degraded.output.contains("degraded: coarse"));

    // Refused: the kernel parses but names no such statement.
    let refused_opts =
        parse_args(&["--stmt".to_string(), "nope".to_string(), "x".to_string()]).unwrap();
    let refused = run_file(&kernels_dir().join("jacobi2d.iolb"), &refused_opts).unwrap_err();
    assert_eq!(refused.exit_code(), 3, "{refused}");

    // Budget-killed at admission: the estimate alone exceeds the trace
    // ceiling, so nothing was materialized.
    let killed_opts =
        parse_args(&["--max-trace".to_string(), "10".to_string(), "x".to_string()]).unwrap();
    let killed = run_file(&kernels_dir().join("syrk.iolb"), &killed_opts).unwrap_err();
    assert_eq!(killed.exit_code(), 4, "{killed}");

    // Combine exactly as `run_with_code` does for `--json`.
    let degradation = vec![
        DegradationRow {
            kernel: sound.name.clone(),
            level: sound.degradation,
        },
        DegradationRow {
            kernel: degraded.name.clone(),
            level: degraded.degradation,
        },
    ];
    let failures = vec![
        FailureRow::from_error("jacobi2d", &refused),
        FailureRow::from_error("syrk", &killed),
    ];
    let mut combined = SweepReport {
        rows: Vec::new(),
        degradation: degradation.clone(),
        failures: failures.clone(),
        total_wall_ms: 0.0,
        threads: 0,
        scaling: Vec::new(),
    };
    for report in [&sound.report, &degraded.report].into_iter().flatten() {
        combined.rows.extend(report.rows.iter().cloned());
    }
    check_golden(
        "pebble_sweep_v5_governed_batch.json",
        &sweep_report_json(&combined, true),
    );

    let tightness = TightnessReport {
        kernels: Vec::new(),
        degradation,
        failures,
        total_wall_ms: 0.0,
        threads: 0,
    };
    check_golden(
        "tightness_v3_governed_batch.json",
        &tightness_report_json(&tightness, true),
    );
}
