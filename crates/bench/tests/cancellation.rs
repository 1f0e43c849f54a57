//! Cancellation-seam coverage: a cancel/deadline/fault landing *mid-pass*
//! at every governed seam must surface as the right typed error within a
//! bounded number of polls, leave no corrupted state behind, and never
//! abort the process.

use iolb_bench::sweep::{default_sweep_kernels_at, try_run_sweep, SweepSize};
use iolb_bench::tightness::{try_run_tightness, TightnessJob};
use iolb_cdag::try_build_cdag;
use iolb_govern::{catch_analysis_mut, AnalysisError, Budget, CancelToken, Fault, FaultKind, Seam};
use iolb_memsim::CurveEngine;

/// A small GEMM with an auto-tuned schedule — the only built-in shape that
/// exercises the tuner seam.
fn tiled_job() -> TightnessJob {
    let src = "
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
    let kernel = iolb_ir::parse_kernel(src).expect("parse");
    TightnessJob {
        name: "gemm_mini".to_string(),
        program: kernel.program,
        params: vec![8, 8, 8],
        env: Vec::new(),
        classical: None,
        hourglass: None,
        schedule: kernel.schedule,
        s_offsets: vec![0, 8],
    }
}

/// A packed program-order trace long enough that the curve passes poll the
/// token at least twice (polls land every 4096 positions).
fn long_trace() -> Vec<u64> {
    let program = iolb_bench::paper_kernel("GEMM").parse().program;
    let params = vec![16i64, 16, 16];
    let cdag = try_build_cdag(
        &program,
        &params,
        &Budget::unlimited(),
        &CancelToken::unlimited(),
    )
    .expect("ungoverned build");
    let mut trace = Vec::new();
    cdag.packed_program_order_trace(&mut trace);
    assert!(trace.len() > 2 * 4096, "trace long enough to poll twice");
    trace
}

#[test]
fn cancel_mid_cdag_fill_is_typed_and_bounded() {
    let program = iolb_bench::paper_kernel("GEMM").parse().program;
    let params = vec![12i64, 12, 12];
    let token = CancelToken::trip_after_checks(2);
    let err = try_build_cdag(&program, &params, &Budget::unlimited(), &token)
        .expect_err("tripped token must cancel the fill");
    assert!(matches!(err, AnalysisError::Cancelled), "got {err}");
    // The walk polls every 1024 instances, so the trip lands after at most
    // two polls — the enumeration never runs away past the cancel.
    assert_eq!(
        token.checks_seen(),
        2,
        "cancel surfaced at the tripping poll"
    );
}

#[test]
fn fault_injected_mid_cdag_fill_keeps_its_class() {
    let program = iolb_bench::paper_kernel("GEMM").parse().program;
    let params = vec![12i64, 12, 12];
    let token = CancelToken::with_fault(Fault {
        kind: FaultKind::Oom,
        seam: Seam::CdagFill,
    });
    let err = try_build_cdag(&program, &params, &Budget::unlimited(), &token)
        .expect_err("injected OOM must surface");
    assert_eq!(err.class_name(), "budget");
    assert!(matches!(
        err,
        AnalysisError::BudgetExceeded {
            resource: "injected_oom",
            ..
        }
    ));
}

#[test]
fn cancel_mid_lru_pass_is_typed() {
    let trace = long_trace();
    let mut engine = CurveEngine::new();
    let token = CancelToken::trip_after_checks(2);
    let err = engine
        .try_lru_packed(&trace, 64, &token)
        .expect_err("tripped token must cancel the LRU pass");
    assert!(matches!(err, AnalysisError::Cancelled), "got {err}");
    assert_eq!(token.checks_seen(), 2);
}

#[test]
fn cancel_mid_opt_pass_is_typed() {
    let trace = long_trace();
    let mut engine = CurveEngine::new();
    let token = CancelToken::with_fault(Fault {
        kind: FaultKind::Deadline,
        seam: Seam::OptPass,
    });
    let err = engine
        .try_opt_packed(&trace, 64, &token)
        .expect_err("injected deadline must cancel the OPT pass");
    assert!(matches!(err, AnalysisError::Deadline { .. }), "got {err}");
}

/// The engine reuse guarantee: a cancelled pass leaves no observable state
/// behind — the same engine produces bitwise-identical curves afterwards.
#[test]
fn engine_reuse_after_cancelled_pass_is_clean() {
    let trace = long_trace();
    let horizon = 64usize;
    let mut engine = CurveEngine::new();
    let unlimited = CancelToken::unlimited();
    let lru_before = engine
        .try_lru_packed(&trace, horizon, &unlimited)
        .expect("clean pass");
    let opt_before = engine
        .try_opt_packed(&trace, horizon, &unlimited)
        .expect("clean pass");

    // Interrupt both passes mid-flight on the same engine.
    for n in [1u64, 2] {
        let token = CancelToken::trip_after_checks(n);
        assert!(engine.try_lru_packed(&trace, horizon, &token).is_err());
        let token = CancelToken::trip_after_checks(n);
        assert!(engine.try_opt_packed(&trace, horizon, &token).is_err());
    }

    let lru_after = engine
        .try_lru_packed(&trace, horizon, &unlimited)
        .expect("clean pass after cancellations");
    let opt_after = engine
        .try_opt_packed(&trace, horizon, &unlimited)
        .expect("clean pass after cancellations");
    for s in 1..=horizon {
        assert_eq!(
            lru_before.loads(s),
            lru_after.loads(s),
            "LRU loads at S={s}"
        );
        assert_eq!(
            opt_before.loads(s),
            opt_after.loads(s),
            "OPT loads at S={s}"
        );
    }
}

#[test]
fn cancel_mid_tuner_is_typed() {
    let token = CancelToken::with_fault(Fault {
        kind: FaultKind::Deadline,
        seam: Seam::Tuner,
    });
    let err = try_run_tightness(vec![tiled_job()], &Budget::unlimited(), &token)
        .expect_err("injected deadline must cancel the tuner");
    assert!(matches!(err, AnalysisError::Deadline { .. }), "got {err}");
}

#[test]
fn panic_injected_mid_tuner_is_contained() {
    let token = CancelToken::with_fault(Fault {
        kind: FaultKind::Panic,
        seam: Seam::Tuner,
    });
    let err = catch_analysis_mut(|| {
        try_run_tightness(vec![tiled_job()], &Budget::unlimited(), &token).map(|_| ())
    })
    .expect_err("injected panic must be contained as a typed error");
    assert_eq!(err.class_name(), "internal");
    assert!(matches!(err, AnalysisError::Internal(ref msg) if msg.contains("injected panic")));
}

#[test]
fn sweep_respects_trace_budget_and_external_cancel() {
    // A trace budget far below any real kernel's trace: the sweep must
    // refuse with a typed budget error naming the resource.
    let budget = Budget {
        max_trace_len: 16,
        ..Budget::unlimited()
    };
    let err = try_run_sweep(
        default_sweep_kernels_at(SweepSize::Small),
        &budget,
        &CancelToken::unlimited(),
    )
    .expect_err("tiny trace budget must refuse");
    assert!(matches!(
        err,
        AnalysisError::BudgetExceeded {
            resource: "trace_len",
            ..
        }
    ));

    // An externally cancelled token aborts the sweep with `Cancelled`.
    let token = CancelToken::unlimited();
    token.cancel();
    let err = try_run_sweep(
        default_sweep_kernels_at(SweepSize::Small),
        &Budget::unlimited(),
        &token,
    )
    .expect_err("cancelled token must abort the sweep");
    assert!(matches!(err, AnalysisError::Cancelled), "got {err}");
}

/// A fault armed at a curve-pass seam must surface through `try_run_sweep`,
/// not just the engine unit tests. These traces sit under
/// `CROSS_CHECK_CAP`, so the default path prices them on the materialized
/// engine; the sweep's unit test `streaming_branch_faults_are_typed` arms
/// the same faults on the sharded branch.
#[test]
fn sweep_faults_at_shard_seams_are_typed() {
    let token = CancelToken::with_fault(Fault {
        kind: FaultKind::Deadline,
        seam: Seam::LruPass,
    });
    let err = try_run_sweep(
        default_sweep_kernels_at(SweepSize::Small),
        &Budget::unlimited(),
        &token,
    )
    .expect_err("deadline at the LRU shard seam must abort the sweep");
    assert!(matches!(err, AnalysisError::Deadline { .. }), "got {err}");

    let token = CancelToken::with_fault(Fault {
        kind: FaultKind::Deadline,
        seam: Seam::OptPass,
    });
    let err = try_run_sweep(
        default_sweep_kernels_at(SweepSize::Small),
        &Budget::unlimited(),
        &token,
    )
    .expect_err("deadline at the OPT shard seam must abort the sweep");
    assert!(matches!(err, AnalysisError::Deadline { .. }), "got {err}");
}
