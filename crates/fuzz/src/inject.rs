//! Fault-injection harness: deterministic faults at every governed seam.
//!
//! The resource-governance layer ([`iolb_core::govern`]) promises that a
//! panic, budget exhaustion, or deadline landing at *any* polled seam
//! surfaces as the matching typed [`AnalysisError`] without aborting the
//! process or poisoning shared state. This module turns that promise into
//! a checkable matrix: for every `(fault kind, seam)` cell it arms a
//! one-shot [`Fault`] on a fresh [`CancelToken`], drives the narrowest
//! real pipeline that reaches the seam, and records
//!
//! * the **observed error class** (must equal the kind's
//!   [`FaultKind::expected_class`]), and
//! * a **control re-run** of the same driver on an unlimited token (must
//!   succeed — the fault left nothing corrupted behind).
//!
//! Both the `iolb fuzz --inject …` CLI flag and the CI smoke job
//! (`cargo xtask fuzz-smoke --inject …`) are thin wrappers over
//! [`run_injection_matrix`].

use iolb_bench::sweep::{default_sweep_kernels_at, try_run_sweep, SweepSize};
use iolb_bench::tightness::{try_run_tightness, TightnessJob};
use iolb_cdag::try_build_cdag;
use iolb_core::govern::{catch_analysis_mut, AnalysisError, Budget, CancelToken};
use iolb_service::{RealIo, ReportStore, StoreKey};
// Re-exported so harness callers (xtask, CLI) can name faults without a
// direct govern dependency.
pub use iolb_core::govern::{Fault, FaultKind, Seam};

/// A small auto-scheduled GEMM; the one embedded shape reaches every
/// tightness-side seam (instance enumeration and the tile tuner).
const GEMM_MINI: &str = "
kernel gemm_mini(M, N, K) {
  array A[M][K];
  array B[K][N];
  array C[M][N];
  analyze SU;
  schedule { tile i; tile j; tile k; }

  for i in 0..M {
    for j in 0..N {
      Cz: C[i][j] = op();
    }
  }
  for i in 0..M {
    for j in 0..N {
      for k in 0..K {
        SU: C[i][j] = op(A[i][k], B[k][j], C[i][j]);
      }
    }
  }
}
";

const GEMM_MINI_PARAMS: [i64; 3] = [8, 8, 8];

fn mini_program() -> iolb_ir::Program {
    match iolb_ir::parse_kernel(GEMM_MINI) {
        Ok(k) => k.program,
        Err(e) => unreachable!("embedded kernel is valid: {e}"),
    }
}

fn mini_tightness_job() -> TightnessJob {
    match iolb_ir::parse_kernel(GEMM_MINI) {
        Ok(k) => TightnessJob {
            name: "gemm_mini".to_string(),
            program: k.program,
            params: GEMM_MINI_PARAMS.to_vec(),
            env: Vec::new(),
            classical: None,
            hourglass: None,
            schedule: k.schedule,
            s_offsets: vec![0, 8],
        },
        Err(e) => unreachable!("embedded kernel is valid: {e}"),
    }
}

/// One small kernel from the standard validation matrix, with a reduced S
/// grid — the narrowest real workload that runs both curve passes.
fn small_sweep_kernels() -> Vec<iolb_bench::sweep::SweepKernel> {
    let mut kernels = default_sweep_kernels_at(SweepSize::Small);
    kernels.truncate(1);
    for k in &mut kernels {
        k.s_offsets = vec![0, 8];
    }
    kernels
}

/// Drives the narrowest pipeline fragment that polls `seam`, under the
/// given budget and token. Used both for the faulted run and the clean
/// control run of each matrix cell.
fn drive(seam: Seam, budget: &Budget, token: &CancelToken) -> Result<(), AnalysisError> {
    match seam {
        Seam::Admission => {
            iolb_ir::admission::estimate(&mini_program(), &GEMM_MINI_PARAMS, budget, token)
                .map(|_| ())
        }
        Seam::CdagFill => {
            try_build_cdag(&mini_program(), &GEMM_MINI_PARAMS, budget, token).map(|_| ())
        }
        Seam::LruPass | Seam::OptPass => {
            try_run_sweep(small_sweep_kernels(), budget, token).map(|_| ())
        }
        Seam::Instances | Seam::Tuner => {
            try_run_tightness(vec![mini_tightness_job()], budget, token).map(|_| ())
        }
        Seam::StoreAppend | Seam::StoreFlush | Seam::StoreCompact | Seam::StoreRecover => {
            drive_store(seam, token)
        }
    }
}

/// Removes its scratch directory on drop — injected panics unwind
/// through the store drivers, so cleanup must ride the unwind.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_scratch() -> Scratch {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    Scratch(std::env::temp_dir().join(format!(
        "iolb_inject_store_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )))
}

/// Drives the narrowest persistent-store operation that polls `seam` on
/// the given token, against a scratch directory that is removed again
/// (even when the injected fault is a panic).
fn drive_store(seam: Seam, token: &CancelToken) -> Result<(), AnalysisError> {
    let scratch = store_scratch();
    let dir = scratch.0.clone();
    let key = StoreKey {
        canon_hash: 0xF00D,
        options_fp: "inject".to_string(),
        engines_fp: "all".to_string(),
    };
    let body = std::sync::Arc::new("persisted body".to_string());
    let unlimited = CancelToken::unlimited();
    match seam {
        Seam::StoreAppend => ReportStore::open(&dir)?.append(&key, &body, token),
        Seam::StoreFlush => {
            let store = ReportStore::open(&dir)?;
            store.append(&key, &body, &unlimited)?;
            store.flush(token)
        }
        Seam::StoreCompact => {
            let store = ReportStore::open(&dir)?;
            store.append(&key, &body, &unlimited)?;
            store.compact(token)
        }
        Seam::StoreRecover => {
            {
                let store = ReportStore::open(&dir)?;
                store.append(&key, &body, &unlimited)?;
                store.flush(&unlimited)?;
            }
            ReportStore::open_with(&dir, 0, Box::new(RealIo), token).map(|_| ())
        }
        other => unreachable!("{other} is not a store seam"),
    }
}

/// Outcome of one `(kind, seam)` matrix cell.
#[derive(Debug, Clone)]
pub struct InjectionOutcome {
    /// The injected fault kind.
    pub kind: FaultKind,
    /// The seam the fault was armed at.
    pub seam: Seam,
    /// The error class the kind must surface as.
    pub expected_class: &'static str,
    /// The error class actually observed (`"ok"` if no error surfaced —
    /// always a failure, since the fault fires on the seam's first poll).
    pub observed_class: String,
    /// The observed error's rendered message.
    pub message: String,
    /// Whether the clean control re-run after the fault succeeded.
    pub control_ok: bool,
}

impl InjectionOutcome {
    /// The cell passes: the fault surfaced as its class *and* the control
    /// run proved no state was poisoned.
    pub fn as_expected(&self) -> bool {
        self.observed_class == self.expected_class && self.control_ok
    }
}

/// Outcomes over a full or partial injection matrix.
#[derive(Debug, Clone)]
pub struct InjectionReport {
    /// One outcome per `(kind, seam)` cell, in matrix order.
    pub outcomes: Vec<InjectionOutcome>,
}

impl InjectionReport {
    /// Every cell surfaced its class and left clean state behind.
    pub fn all_expected(&self) -> bool {
        self.outcomes.iter().all(InjectionOutcome::as_expected)
    }

    /// Human-readable outcome table (one row per cell).
    pub fn render_table(&self) -> String {
        let mut out = String::from("fault      seam        class      control  verdict\n");
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<10} {:<11} {:<10} {:<8} {}\n",
                o.kind.as_str(),
                o.seam.as_str(),
                o.observed_class,
                if o.control_ok { "clean" } else { "POISONED" },
                if o.as_expected() { "ok" } else { "UNEXPECTED" },
            ));
        }
        out
    }
}

/// Runs one matrix cell: arms `fault` on a fresh token, drives the seam's
/// pipeline behind a panic barrier, classifies the surfaced error, then
/// re-drives the same pipeline cleanly as the state-poisoning control.
pub fn run_injection(fault: Fault) -> InjectionOutcome {
    let budget = Budget::unlimited();
    let token = CancelToken::with_fault(fault);
    let result = catch_analysis_mut(|| drive(fault.seam, &budget, &token));
    let (observed_class, message) = match result {
        Ok(()) => ("ok".to_string(), String::new()),
        Err(e) => (e.class_name().to_string(), e.to_string()),
    };
    let control_ok = drive(fault.seam, &budget, &CancelToken::unlimited()).is_ok();
    InjectionOutcome {
        kind: fault.kind,
        seam: fault.seam,
        expected_class: fault.kind.expected_class(),
        observed_class,
        message,
        control_ok,
    }
}

/// Runs the full `kinds × Seam::ALL` matrix. Injected panics are part of
/// the experiment, so the default panic hook's backtrace spew is silenced
/// for the duration (and restored before returning).
pub fn run_injection_matrix(kinds: &[FaultKind]) -> InjectionReport {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut outcomes = Vec::with_capacity(kinds.len() * Seam::ALL.len());
    for &kind in kinds {
        for seam in Seam::ALL {
            outcomes.push(run_injection(Fault { kind, seam }));
        }
    }
    std::panic::set_hook(prev);
    InjectionReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seam_driver_runs_clean_without_a_fault() {
        let budget = Budget::unlimited();
        for seam in Seam::ALL {
            let token = CancelToken::unlimited();
            assert!(
                drive(seam, &budget, &token).is_ok(),
                "clean driver failed at seam {seam}"
            );
            assert!(token.checks_seen() > 0, "driver never polled seam {seam}");
        }
    }

    #[test]
    fn full_injection_matrix_is_contained_and_class_exact() {
        let report = run_injection_matrix(&FaultKind::ALL);
        assert_eq!(report.outcomes.len(), 3 * Seam::ALL.len());
        assert!(
            report.all_expected(),
            "injection matrix:\n{}",
            report.render_table()
        );
        // Every panic cell carries the injection payload through to the
        // typed error — the thread-scope bridge must not swallow it.
        for o in &report.outcomes {
            if o.kind == FaultKind::Panic {
                assert!(
                    o.message.contains("injected panic"),
                    "{}@{}: payload lost: {:?}",
                    o.kind.as_str(),
                    o.seam.as_str(),
                    o.message
                );
            }
        }
    }

    #[test]
    fn single_cell_outcome_names_its_seam() {
        let o = run_injection(Fault {
            kind: FaultKind::Oom,
            seam: Seam::CdagFill,
        });
        assert!(o.as_expected(), "{}: {}", o.observed_class, o.message);
        assert_eq!(o.expected_class, "budget");
        assert!(o.message.contains("injected_oom"), "{}", o.message);
    }
}
