//! `iolb` — the end-to-end I/O lower-bound pipeline on textual kernels.
//! (Library half: the `iolb` binary is a thin wrapper around [`run`].)
//!
//! This crate is a *front-end*: option parsing lives in [`opts`], human
//! rendering in [`render`], and the pipeline itself — parse → admission
//! control → access-consistency certification → φ-set extraction →
//! classical σ-bound → hourglass detect / certify / derive (§3–4, with
//! §5.3 splitting) → exact CDAG → MIN/LRU miss-curve validation →
//! tightness measurement — in the `iolb_service` crate, shared with the
//! `iolbd` daemon. Files are processed in parallel (rayon) through one
//! shared [`Pipeline`]; per-file output is buffered and printed in input
//! order. A failing kernel never takes the batch down: each file runs
//! behind a panic-isolation boundary and failures become structured
//! per-kernel rows in the JSON reports while every unaffected kernel
//! still completes.
//!
//! Exit codes: `0` all kernels validated sound, `1` an unsound cell,
//! then one stable code per [`AnalysisError`] class — `2` parse/usage,
//! `3` refused, `4` budget exceeded, `5` deadline, `6` cancelled, `7`
//! internal (contained panic). A batch exits with the *maximum* class
//! code across its files.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod fuzzcmd;
pub mod opts;
pub mod render;

pub use fuzzcmd::{run_fuzz_cmd, run_inject_cmd};
pub use opts::{parse_args, parse_fuzz_args, FuzzOptions, Options, USAGE};
pub use render::render_outcome;

use iolb_bench::sweep::{sweep_report_json, DegradationRow, FailureRow, SweepReport};
use iolb_bench::tightness::{tightness_report_json, KernelTightness, TightnessReport};
use iolb_core::govern::{catch_analysis_mut, AnalysisError, CancelToken, Degradation};
use iolb_service::{AnalysisOptions, Pipeline};
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Everything one `.iolb` file produced: buffered human-readable output
/// plus the machine-readable reports.
#[derive(Debug)]
pub struct FileOutcome {
    /// Kernel name.
    pub name: String,
    /// Buffered per-file text (printed in input order by [`run`]).
    pub output: String,
    /// The validation matrix (`None` under `--derive-only` or when the
    /// work budget degraded the kernel to symbolic bounds only).
    pub report: Option<SweepReport>,
    /// Tightness measurement (absent under `--no-tightness`,
    /// `--derive-only`, or any degradation below [`Degradation::Full`]).
    pub tightness: Option<KernelTightness>,
    /// All validation cells sound (vacuously true when validation was
    /// skipped).
    pub sound: bool,
    /// The degradation rung the work budget afforded this kernel.
    pub degradation: Degradation,
}

/// The CLI entry point (argument vector without the binary name).
pub fn run(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("fuzz") {
        return match parse_fuzz_args(&args[1..]) {
            Ok(opts) => run_fuzz_cmd(&opts),
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }
    ExitCode::from(run_with_code(args))
}

/// The batch analysis path of [`run`], returning the raw process exit
/// code (documented in [`USAGE`]). Split out so tests can assert codes
/// without spawning the binary.
pub fn run_with_code(args: &[String]) -> u8 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };

    // Every file runs through the full service pipeline concurrently,
    // behind a per-file panic-isolation boundary; output is buffered per
    // file and printed in input order below. One shared `Pipeline` means
    // duplicate kernel texts in a batch are analyzed once. The `--inject`
    // fault (if any) is armed on the first file only, so the rest of the
    // batch doubles as the blast-radius control.
    let pipeline = Pipeline::new();
    let t_batch = std::time::Instant::now();
    // Scoped worker accounting for the whole batch: nested parallel
    // stages (per-file sweeps on worker threads) attribute here, earlier
    // parallel work in the process does not.
    let batch_workers = rayon::worker_scope();
    let indexed: Vec<(usize, PathBuf)> = opts.files.iter().cloned().enumerate().collect();
    let mut base_aopts = opts.analysis.clone();
    let inject = base_aopts.inject.take();
    let results: Vec<(PathBuf, Result<FileOutcome, AnalysisError>)> = indexed
        .into_par_iter()
        .map(|(i, file)| {
            let mut aopts = base_aopts.clone();
            if i == 0 {
                aopts.inject = inject;
            }
            // Panics are mapped to `Internal` *inside* the worker so the
            // payload survives the thread boundary.
            let res = catch_analysis_mut(|| run_file_on(&pipeline, &file, &aopts));
            (file, res)
        })
        .collect();
    let batch_wall_ms = t_batch.elapsed().as_secs_f64() * 1e3;

    // Failures are collected across the whole batch (not fail-fast), so
    // one run surfaces every broken kernel file at once — as structured
    // rows in the JSON reports, next to every unaffected kernel's result.
    let mut failures: Vec<FailureRow> = Vec::new();
    let mut worst: u8 = 0;
    let mut outcomes: Vec<FileOutcome> = Vec::new();
    for (file, res) in results {
        match res {
            Ok(outcome) => {
                print!("{}", outcome.output);
                outcomes.push(outcome);
            }
            Err(e) => {
                let kernel = file
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| file.display().to_string());
                eprintln!("[{}] {}: {e}", e.class_name(), file.display());
                worst = worst.max(e.exit_code());
                failures.push(FailureRow::from_error(&kernel, &e));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "{} of {} kernel files failed (see rows above)",
            failures.len(),
            opts.files.len()
        );
    }
    let degradation: Vec<DegradationRow> = outcomes
        .iter()
        .map(|o| DegradationRow {
            kernel: o.name.clone(),
            level: o.degradation,
        })
        .collect();

    let all_sound = outcomes.iter().all(|o| o.sound);
    let validated = outcomes.iter().any(|o| o.report.is_some());
    if let Some(path) = &opts.json {
        let mut combined = SweepReport {
            rows: Vec::new(),
            degradation: degradation.clone(),
            failures: failures.clone(),
            total_wall_ms: 0.0,
            threads: 0,
            scaling: Vec::new(),
        };
        for o in outcomes.iter().filter_map(|o| o.report.as_ref()) {
            combined.rows.extend(o.rows.iter().cloned());
            combined.total_wall_ms += o.total_wall_ms;
            combined.threads = combined.threads.max(o.threads);
        }
        if let Err(e) = std::fs::write(path, sweep_report_json(&combined, false)) {
            eprintln!("writing {}: {e}", path.display());
            return 2;
        }
        println!("wrote {}", path.display());
    }
    if let Some(path) = &opts.tightness_json {
        let mut kernels: Vec<KernelTightness> = outcomes
            .iter()
            .filter_map(|o| o.tightness.clone())
            .collect();
        kernels.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        // Live volatile data goes under `meta` only (the gate and the
        // golden snapshots ignore/redact it).
        let combined = TightnessReport {
            kernels,
            degradation,
            failures: failures.clone(),
            total_wall_ms: batch_wall_ms,
            threads: batch_workers.max_workers_used(),
        };
        if let Err(e) = std::fs::write(path, tightness_report_json(&combined, false)) {
            eprintln!("writing {}: {e}", path.display());
            return 2;
        }
        println!("wrote {}", path.display());
    }

    if !all_sound {
        eprintln!("UNSOUND cells found — a derived bound exceeded a legal play");
        return worst.max(1);
    }
    if worst > 0 {
        return worst;
    }
    if !validated {
        println!("derivations complete (pebble validation skipped)");
    } else {
        println!("all cells sound ✓");
    }
    0
}

/// [`run_file_with`] on the options' own budget token — the entry point
/// for single-file callers that do not inject faults or share a pipeline
/// across a batch.
///
/// # Errors
/// Every failure is a typed [`AnalysisError`].
pub fn run_file(file: &Path, opts: &Options) -> Result<FileOutcome, AnalysisError> {
    run_file_with(file, opts, &opts.analysis.budget.token())
}

/// Analyzes one file through a fresh service pipeline under the given
/// budget and token. All human-readable output is buffered on the
/// returned outcome.
///
/// # Errors
/// Every failure is a typed [`AnalysisError`]: unreadable/unparsable
/// input is `Parse`, anything declined on structural grounds is
/// `Refused`, and admission or mid-pass governance yields the
/// budget/deadline/cancel classes.
pub fn run_file_with(
    file: &Path,
    opts: &Options,
    token: &CancelToken,
) -> Result<FileOutcome, AnalysisError> {
    let pipeline = Pipeline::new();
    let src = read_kernel(file)?;
    let answer = pipeline.analyze_with_token(&src, &opts.analysis, token)?;
    Ok(file_outcome(
        &answer.outcome,
        file,
        opts.analysis.derive_only,
    ))
}

/// One file through the batch's shared pipeline (its own token comes
/// from the options: the injected fault when armed, else the budget).
fn run_file_on(
    pipeline: &Pipeline,
    file: &Path,
    aopts: &AnalysisOptions,
) -> Result<FileOutcome, AnalysisError> {
    let src = read_kernel(file)?;
    let answer = pipeline.analyze(&src, aopts)?;
    Ok(file_outcome(&answer.outcome, file, aopts.derive_only))
}

fn read_kernel(file: &Path) -> Result<String, AnalysisError> {
    std::fs::read_to_string(file).map_err(|e| AnalysisError::Parse(format!("cannot read: {e}")))
}

fn file_outcome(
    outcome: &iolb_service::AnalysisOutcome,
    file: &Path,
    derive_only: bool,
) -> FileOutcome {
    FileOutcome {
        name: outcome.name.clone(),
        output: render_outcome(outcome, &file.display().to_string(), derive_only),
        report: outcome.sweep.clone(),
        tightness: outcome.tightness.clone(),
        sound: outcome.sound,
        degradation: outcome.degradation,
    }
}
