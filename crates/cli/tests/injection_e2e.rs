//! Process-level fault-injection e2e: the *real* `iolb` binary, a real
//! batch, a real injected fault. For every fault class at every governed
//! seam the batch must survive (no abort, no signal), keep the unaffected
//! kernel's results, emit a structured failure row in the JSON report,
//! and exit with the class-specific code.

use std::path::PathBuf;
use std::process::{Command, Output};

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

fn iolb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iolb"))
        .args(args)
        .output()
        .expect("spawn iolb")
}

/// A fast two-file batch (faulted target first, control kernel second,
/// both at `params`) with `--inject CLASS@SEAM`, writing the combined JSON
/// report. Tightness stays on: the `instances` seam is polled by its trace
/// build.
fn inject_batch(
    spec: &str,
    json: &std::path::Path,
    params: &str,
    target: &str,
    control: &str,
) -> Output {
    let target = kernels_dir().join(format!("{target}.iolb"));
    let control = kernels_dir().join(format!("{control}.iolb"));
    iolb(&[
        "--params",
        params,
        "--s-grid",
        "0,16",
        "--inject",
        spec,
        "--json",
        json.to_str().expect("utf8 tmp path"),
        target.to_str().expect("utf8 kernel path"),
        control.to_str().expect("utf8 kernel path"),
    ])
}

#[test]
fn injected_faults_at_every_seam_yield_class_exit_and_partial_results() {
    // (class spec, expected exit code, expected failure-row class)
    let classes = [
        ("panic", 7u8, "internal"),
        ("oom", 4u8, "budget"),
        ("deadline", 5u8, "deadline"),
    ];
    // (params, faulted target, control kernel, seams). The first batch
    // covers the seams the single-file pipeline under these options
    // reaches. (The tuner seam needs a `schedule` kernel + tightness; it is
    // covered by the in-process matrix via `iolb fuzz --inject` below.)
    // The second faults an hourglass kernel's one CDAG build: that build
    // certifies the accesses, the hourglass check runs on it and the sweep
    // prices it, all under the request's token.
    let batches: [(&str, &str, &str, &[&str]); 2] = [
        (
            "N=12",
            "syrk",
            "cholesky",
            &[
                "admission",
                "instances",
                "cdag_fill",
                "lru_pass",
                "opt_pass",
            ],
        ),
        ("M=10,N=6", "mgs", "qr_hh_a2v", &["cdag_fill"]),
    ];
    let tmp = std::env::temp_dir();
    for (params, target, control, seams) in batches {
        for (class, code, row_class) in classes {
            for seam in seams {
                let spec = format!("{class}@{seam}");
                let json = tmp.join(format!("iolb_inject_{target}_{class}_{seam}.json"));
                let out = inject_batch(&spec, &json, params, target, control);
                let stdout = String::from_utf8_lossy(&out.stdout);
                let stderr = String::from_utf8_lossy(&out.stderr);

                // Survival: a real exit code, not a signal/abort.
                assert_eq!(
                    out.status.code(),
                    Some(code as i32),
                    "{target} {spec}: wrong exit\nstdout:\n{stdout}\nstderr:\n{stderr}"
                );
                // The unaffected kernel still produced its full section.
                assert!(
                    stdout.contains(&format!("── {control}")),
                    "{target} {spec}: control kernel output missing\n{stdout}"
                );
                // The failure is a structured per-kernel row in the report.
                let report = std::fs::read_to_string(&json)
                    .unwrap_or_else(|e| panic!("{target} {spec}: report not written: {e}"));
                assert!(
                    report.contains(&format!(
                        "{{\"kernel\": \"{target}\", \"class\": \"{row_class}\""
                    )),
                    "{target} {spec}: no {row_class} failure row in report:\n{report}"
                );
                assert!(
                    report.contains(&format!("\"kernel\": \"{control}\"")),
                    "{target} {spec}: control kernel rows missing from report"
                );
                assert!(
                    stderr.contains(&format!("[{row_class}]")),
                    "{target} {spec}: stderr lacks the class tag\n{stderr}"
                );
                let _ = std::fs::remove_file(&json);
            }
        }
    }
}

#[test]
fn fuzz_inject_matrix_is_clean_for_every_class() {
    // The in-process matrix covers all six seams (tuner included) per
    // class, asserting class-exact containment plus a clean control
    // re-run for each cell.
    for class in ["panic", "oom", "deadline"] {
        let out = iolb(&["fuzz", "--inject", class]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "fuzz --inject {class}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("injection clean"), "{stdout}");
    }
    let out = iolb(&["fuzz", "--inject", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn ordinary_error_classes_map_to_their_exit_codes() {
    let missing = kernels_dir().join("nope.iolb");
    let out = iolb(&[missing.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2), "parse/read error");

    let jacobi = kernels_dir().join("jacobi2d.iolb");
    let out = iolb(&["--stmt", "nope", jacobi.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(3), "refused");

    let syrk = kernels_dir().join("syrk.iolb");
    let out = iolb(&["--max-trace", "10", syrk.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(4), "budget exceeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[budget]"), "{stderr}");

    // --no-degrade turns a degradable work overrun into a refusal by
    // budget, while without it the same budget degrades gracefully.
    let gemm = kernels_dir().join("gemm_tiled.iolb");
    let gemm_args = ["--params", "M=10,N=10,K=10", "--max-work", "25000"];
    let out = iolb(
        &[
            &gemm_args[..],
            &["--no-degrade", gemm.to_str().expect("utf8")][..],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(4), "--no-degrade refuses");
    let out = iolb(&[&gemm_args[..], &[gemm.to_str().expect("utf8")][..]].concat());
    assert_eq!(out.status.code(), Some(0), "degrades and stays sound");
    assert!(String::from_utf8_lossy(&out.stdout).contains("degraded: coarse"));
}
