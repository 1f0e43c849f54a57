//! Resource governance for the analysis pipeline.
//!
//! The deterministic pipeline (parse → certify → derive → CDAG → curve
//! sweep → tightness) was written as a batch tool that may panic or
//! allocate without bound on adversarial input. This crate is the
//! substrate that turns it into a service core:
//!
//! * [`Budget`] — configured resource ceilings (instances, CDAG
//!   nodes/edges, trace length, arena bytes, curve work, deadline).
//! * [`CostEstimate`] — symbolic pre-estimation of those resources from
//!   loop bounds, produced *before* any materialization, so over-budget
//!   requests are refused or down-scoped by admission control.
//! * [`CancelToken`] — cooperative cancellation (deadline + external flag
//!   + deterministic fault injection) checked at the hot-loop seams.
//! * [`AnalysisError`] — the typed error taxonomy replacing library
//!   panics on user-input paths, with a stable per-class exit code.
//! * [`Degradation`] — the graceful-degradation ladder (dense S grid →
//!   coarse grid → symbolic bounds only), recorded in report schemas.
//! * [`Fault`]/[`Seam`] — the fault-injection surface used by the
//!   `iolb fuzz --inject` harness to prove every governed seam survives
//!   a panic, budget exhaustion, or deadline without aborting the batch.
//!
//! The crate is dependency-free and sits below `ir`/`cdag`/`memsim`; the
//! facade re-exports it as `iolb_core::govern`.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe, UnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed failure of a governed analysis.
///
/// Each variant maps to a stable process exit code via
/// [`AnalysisError::exit_code`], so batch callers can distinguish fault
/// classes without parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The input could not be read or parsed as a `.iolb` kernel.
    Parse(String),
    /// The kernel parsed but was declined before or during analysis
    /// (uncertifiable accesses, unsupported nest shape, unknown
    /// statement, …). Not a resource problem: resubmitting with a larger
    /// budget will not help.
    Refused(String),
    /// Admission control or a mid-pass check found a resource need past
    /// its configured ceiling.
    BudgetExceeded {
        /// Which resource ran out (`"instances"`, `"cdag_nodes"`, …).
        resource: &'static str,
        /// Estimated or observed need (saturating; `u64::MAX` = overflow).
        needed: u64,
        /// The configured ceiling that was exceeded.
        limit: u64,
    },
    /// The wall-clock deadline passed mid-analysis.
    Deadline {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// The caller flipped the token's external cancel flag.
    Cancelled,
    /// A panic escaped the analysis and was caught at the isolation
    /// boundary; the payload is preserved for the failure row.
    Internal(String),
}

impl AnalysisError {
    /// Short machine-readable class name used in report failure rows.
    pub fn class_name(&self) -> &'static str {
        match self {
            AnalysisError::Parse(_) => "parse",
            AnalysisError::Refused(_) => "refused",
            AnalysisError::BudgetExceeded { .. } => "budget",
            AnalysisError::Deadline { .. } => "deadline",
            AnalysisError::Cancelled => "cancelled",
            AnalysisError::Internal(_) => "internal",
        }
    }

    /// Stable process exit code for this class. `0` = success and `1` =
    /// unsound bound are reserved by the CLI; error classes start at 2.
    pub fn exit_code(&self) -> u8 {
        match self {
            AnalysisError::Parse(_) => 2,
            AnalysisError::Refused(_) => 3,
            AnalysisError::BudgetExceeded { .. } => 4,
            AnalysisError::Deadline { .. } => 5,
            AnalysisError::Cancelled => 6,
            AnalysisError::Internal(_) => 7,
        }
    }

    /// Reconstructs the error carried by a caught panic payload: a
    /// governed seam aborts by panicking with an `AnalysisError` box when
    /// it has no `Result` path, and anything else becomes `Internal`.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> AnalysisError {
        match payload.downcast::<AnalysisError>() {
            Ok(e) => *e,
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                AnalysisError::Internal(msg)
            }
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Parse(m) => write!(f, "parse error: {m}"),
            AnalysisError::Refused(m) => write!(f, "refused: {m}"),
            AnalysisError::BudgetExceeded {
                resource,
                needed,
                limit,
            } => {
                if *needed == u64::MAX {
                    write!(f, "budget exceeded: {resource} overflows (limit {limit})")
                } else {
                    write!(
                        f,
                        "budget exceeded: {resource} needs {needed} > limit {limit}"
                    )
                }
            }
            AnalysisError::Deadline { limit_ms } => {
                write!(f, "deadline exceeded: {limit_ms} ms")
            }
            AnalysisError::Cancelled => write!(f, "cancelled"),
            AnalysisError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Runs `f` behind a panic isolation boundary, mapping an escaped panic
/// to [`AnalysisError::Internal`] (or unwrapping a deliberately thrown
/// `AnalysisError`). Batch drivers wrap each kernel in this so one
/// poisoned input yields a structured failure row, not an abort.
pub fn catch_analysis<T>(
    f: impl FnOnce() -> Result<T, AnalysisError> + UnwindSafe,
) -> Result<T, AnalysisError> {
    match catch_unwind(f) {
        Ok(r) => r,
        Err(payload) => Err(AnalysisError::from_panic(payload)),
    }
}

/// Like [`catch_analysis`] for closures that capture `&mut` state the
/// caller discards on failure (the engines reset their buffers at the
/// start of every pass, so an unwound pass leaves no observable state).
pub fn catch_analysis_mut<T>(
    f: impl FnOnce() -> Result<T, AnalysisError>,
) -> Result<T, AnalysisError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(AnalysisError::from_panic(payload)),
    }
}

/// Configured resource ceilings. `Default` is fully unlimited; the CLI
/// narrows individual fields from `--max-*` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Max dynamic statement instances materialized per kernel.
    pub max_instances: u64,
    /// Max CDAG vertices (inputs + compute).
    pub max_cdag_nodes: u64,
    /// Max CDAG edges.
    pub max_cdag_edges: u64,
    /// Max packed program-order trace length.
    pub max_trace_len: u64,
    /// Max bytes of peak transient arena (cell tables, trace, CSR).
    pub max_arena_bytes: u64,
    /// Max curve-pass work: trace length × number of S-grid points. This
    /// is the knob the degradation ladder spends (dense → coarse →
    /// bounds-only) before refusing outright.
    pub max_work: u64,
    /// Wall-clock deadline per kernel in milliseconds (0 = none).
    pub deadline_ms: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with every ceiling at its maximum (no governance).
    pub fn unlimited() -> Budget {
        Budget {
            max_instances: u64::MAX,
            max_cdag_nodes: u64::MAX,
            max_cdag_edges: u64::MAX,
            max_trace_len: u64::MAX,
            max_arena_bytes: u64::MAX,
            max_work: u64::MAX,
            deadline_ms: 0,
        }
    }

    /// Whether any ceiling is below unlimited (deadline counts).
    pub fn is_limited(&self) -> bool {
        *self != Budget::unlimited()
    }

    /// The cancellation token enforcing this budget's deadline.
    pub fn token(&self) -> CancelToken {
        if self.deadline_ms == 0 {
            CancelToken::unlimited()
        } else {
            CancelToken::with_deadline(Duration::from_millis(self.deadline_ms))
        }
    }
}

/// Pre-materialization cost estimate, produced by admission control from
/// the symbolic loop bounds (`ir::admission::estimate`). All fields are
/// saturating: `u64::MAX` means "overflows u64", which exceeds every
/// finite budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostEstimate {
    /// Dynamic statement instances across all statements.
    pub instances: u64,
    /// Packed program-order trace length (accesses).
    pub trace_len: u64,
    /// CDAG vertices (inputs + compute instances).
    pub cdag_nodes: u64,
    /// CDAG edges (bounded above by trace reads).
    pub cdag_edges: u64,
    /// Peak transient arena bytes (cell tables + trace + CSR).
    pub arena_bytes: u64,
}

impl CostEstimate {
    /// First budget violation among the size-like resources (everything
    /// except curve work, which the degradation ladder owns).
    pub fn check(&self, budget: &Budget) -> Result<(), AnalysisError> {
        let checks: [(&'static str, u64, u64); 5] = [
            ("instances", self.instances, budget.max_instances),
            ("cdag_nodes", self.cdag_nodes, budget.max_cdag_nodes),
            ("cdag_edges", self.cdag_edges, budget.max_cdag_edges),
            ("trace_len", self.trace_len, budget.max_trace_len),
            ("arena_bytes", self.arena_bytes, budget.max_arena_bytes),
        ];
        for (resource, needed, limit) in checks {
            if needed > limit {
                return Err(AnalysisError::BudgetExceeded {
                    resource,
                    needed,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Degradation level the work budget affords: dense grid when
    /// `trace_len × dense_points` fits, else coarse grid when
    /// `trace_len × coarse_points` fits, else symbolic bounds only.
    pub fn degradation(
        &self,
        budget: &Budget,
        dense_points: u64,
        coarse_points: u64,
    ) -> Degradation {
        let fits = |points: u64| self.trace_len.saturating_mul(points) <= budget.max_work;
        if fits(dense_points) {
            Degradation::Full
        } else if fits(coarse_points) {
            Degradation::Coarse
        } else {
            Degradation::BoundsOnly
        }
    }
}

/// Graceful-degradation level of a kernel's report, recorded in the JSON
/// schemas so downstream consumers know which ladder rung produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Degradation {
    /// Dense ~32-point S grid, full sweep + tightness.
    Full,
    /// Coarse 5-point S grid; tightness skipped.
    Coarse,
    /// No materialization: symbolic bounds only.
    BoundsOnly,
}

impl Degradation {
    /// Stable schema string (`"full"`, `"coarse"`, `"bounds_only"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Degradation::Full => "full",
            Degradation::Coarse => "coarse",
            Degradation::BoundsOnly => "bounds_only",
        }
    }

    /// Parses a schema string back to a level.
    pub fn parse(s: &str) -> Option<Degradation> {
        match s {
            "full" => Some(Degradation::Full),
            "coarse" => Some(Degradation::Coarse),
            "bounds_only" => Some(Degradation::BoundsOnly),
            _ => None,
        }
    }
}

/// A governed seam: a hot loop that polls its [`CancelToken`]. Fault
/// injection targets one seam so the harness can prove each is covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// Admission-control pre-estimation, before any materialization.
    Admission,
    /// `for_each_instance` enumeration (trace build, certification).
    Instances,
    /// `build_cdag` cell-table / CSR fill.
    CdagFill,
    /// LRU stack-distance pass (the recency ring, fed the whole trace or
    /// one chunk at a time).
    LruPass,
    /// OPT stack-distance pass (displacement-chain repair).
    OptPass,
    /// Tightness auto-tuner candidate loop.
    Tuner,
    /// Persistent report store: journal record append.
    StoreAppend,
    /// Persistent report store: journal fsync.
    StoreFlush,
    /// Persistent report store: snapshot compaction.
    StoreCompact,
    /// Persistent report store: startup recovery scan.
    StoreRecover,
}

impl Seam {
    /// Every governed seam, in pipeline order (the persistence seams
    /// follow the analysis seams: they sit behind the result cache).
    pub const ALL: [Seam; 10] = [
        Seam::Admission,
        Seam::Instances,
        Seam::CdagFill,
        Seam::LruPass,
        Seam::OptPass,
        Seam::Tuner,
        Seam::StoreAppend,
        Seam::StoreFlush,
        Seam::StoreCompact,
        Seam::StoreRecover,
    ];

    /// Stable name used by `--inject CLASS@SEAM` and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Seam::Admission => "admission",
            Seam::Instances => "instances",
            Seam::CdagFill => "cdag_fill",
            Seam::LruPass => "lru_pass",
            Seam::OptPass => "opt_pass",
            Seam::Tuner => "tuner",
            Seam::StoreAppend => "store_append",
            Seam::StoreFlush => "store_flush",
            Seam::StoreCompact => "store_compact",
            Seam::StoreRecover => "store_recover",
        }
    }

    /// Parses a seam name.
    pub fn parse(s: &str) -> Option<Seam> {
        Seam::ALL.iter().copied().find(|x| x.as_str() == s)
    }
}

impl fmt::Display for Seam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fault class fired by the injection harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the seam — must be caught at the isolation boundary
    /// and surface as [`AnalysisError::Internal`].
    Panic,
    /// Simulated allocation failure — surfaces as
    /// [`AnalysisError::BudgetExceeded`] with resource `"injected_oom"`.
    Oom,
    /// Simulated deadline expiry — surfaces as
    /// [`AnalysisError::Deadline`].
    Deadline,
}

impl FaultKind {
    /// Every injectable fault class.
    pub const ALL: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Oom, FaultKind::Deadline];

    /// Stable name used by `--inject`.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Oom => "oom",
            FaultKind::Deadline => "deadline",
        }
    }

    /// Parses a fault-class name.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|x| x.as_str() == s)
    }

    /// The error class this fault must surface as when governed.
    pub fn expected_class(&self) -> &'static str {
        match self {
            FaultKind::Panic => "internal",
            FaultKind::Oom => "budget",
            FaultKind::Deadline => "deadline",
        }
    }
}

/// A deterministic fault: fire `kind` on the first token check at `seam`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to fire.
    pub kind: FaultKind,
    /// Where to fire it.
    pub seam: Seam,
}

impl Fault {
    /// Parses `CLASS@SEAM` (e.g. `panic@lru_pass`); a bare `CLASS` means
    /// the earliest seam, `admission`.
    pub fn parse(s: &str) -> Option<Fault> {
        let (kind, seam) = match s.split_once('@') {
            Some((k, at)) => (FaultKind::parse(k)?, Seam::parse(at)?),
            None => (FaultKind::parse(s)?, Seam::Admission),
        };
        Some(Fault { kind, seam })
    }
}

#[derive(Debug)]
struct TokenInner {
    deadline: Option<Instant>,
    deadline_ms: u64,
    flag: AtomicBool,
    fault: Option<Fault>,
    fault_armed: AtomicBool,
    /// When nonzero, trip `Cancelled` once this many checks have run —
    /// the deterministic handle the bounded-iteration tests use.
    trip_after: u64,
    checks: AtomicU64,
}

/// Cooperative cancellation token: deadline + external flag + injected
/// fault, polled by every governed hot loop via [`CancelToken::check`].
///
/// Cloning is cheap (an `Arc`); clones share the flag, so cancelling any
/// clone cancels all holders.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::unlimited()
    }
}

impl CancelToken {
    fn build(deadline: Option<Duration>, fault: Option<Fault>, trip_after: u64) -> CancelToken {
        let deadline_ms = deadline.map(|d| d.as_millis() as u64).unwrap_or(0);
        CancelToken {
            inner: Arc::new(TokenInner {
                deadline: deadline.map(|d| Instant::now() + d),
                deadline_ms,
                flag: AtomicBool::new(false),
                fault,
                fault_armed: AtomicBool::new(fault.is_some()),
                trip_after,
                checks: AtomicU64::new(0),
            }),
        }
    }

    /// A token that never cancels (no deadline, no fault).
    pub fn unlimited() -> CancelToken {
        CancelToken::build(None, None, 0)
    }

    /// A token whose checks fail with [`AnalysisError::Deadline`] once
    /// `limit` wall-clock time has passed.
    pub fn with_deadline(limit: Duration) -> CancelToken {
        CancelToken::build(Some(limit), None, 0)
    }

    /// A token that fires `fault` on the first check at the fault's seam.
    pub fn with_fault(fault: Fault) -> CancelToken {
        CancelToken::build(None, Some(fault), 0)
    }

    /// A token whose `n`-th check (1-based, any seam) fails with
    /// [`AnalysisError::Cancelled`] — deterministic mid-pass cancellation
    /// for tests, independent of wall-clock speed.
    pub fn trip_after_checks(n: u64) -> CancelToken {
        CancelToken::build(None, None, n)
    }

    /// Flips the external cancel flag; every subsequent check on any
    /// clone fails with [`AnalysisError::Cancelled`].
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Total checks run so far (all seams); tests use this to bound the
    /// number of iterations between a trip and the typed error.
    pub fn checks_seen(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }

    /// Polls the token at `seam`. Ok to call at any frequency: the cost
    /// is two relaxed atomic ops plus, when a deadline is set, an
    /// `Instant::now()`.
    pub fn check(&self, seam: Seam) -> Result<(), AnalysisError> {
        let inner = &*self.inner;
        let n = inner.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(fault) = inner.fault {
            if fault.seam == seam && inner.fault_armed.swap(false, Ordering::AcqRel) {
                match fault.kind {
                    FaultKind::Panic => panic!("injected panic at seam {seam}"),
                    FaultKind::Oom => {
                        return Err(AnalysisError::BudgetExceeded {
                            resource: "injected_oom",
                            needed: u64::MAX,
                            limit: 0,
                        })
                    }
                    FaultKind::Deadline => return Err(AnalysisError::Deadline { limit_ms: 0 }),
                }
            }
        }
        if inner.trip_after != 0 && n >= inner.trip_after {
            return Err(AnalysisError::Cancelled);
        }
        if inner.flag.load(Ordering::Acquire) {
            return Err(AnalysisError::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(AnalysisError::Deadline {
                    limit_ms: inner.deadline_ms,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable_and_distinct() {
        let errs = [
            AnalysisError::Parse("x".into()),
            AnalysisError::Refused("x".into()),
            AnalysisError::BudgetExceeded {
                resource: "instances",
                needed: 9,
                limit: 1,
            },
            AnalysisError::Deadline { limit_ms: 5 },
            AnalysisError::Cancelled,
            AnalysisError::Internal("x".into()),
        ];
        let codes: Vec<u8> = errs.iter().map(|e| e.exit_code()).collect();
        assert_eq!(codes, vec![2, 3, 4, 5, 6, 7]);
        for e in &errs {
            assert!(!e.class_name().is_empty());
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn estimate_check_reports_first_violation() {
        let est = CostEstimate {
            instances: 100,
            trace_len: 300,
            cdag_nodes: 120,
            cdag_edges: 200,
            arena_bytes: 4000,
        };
        let mut b = Budget::unlimited();
        assert_eq!(est.check(&b), Ok(()));
        b.max_cdag_edges = 150;
        assert_eq!(
            est.check(&b),
            Err(AnalysisError::BudgetExceeded {
                resource: "cdag_edges",
                needed: 200,
                limit: 150,
            })
        );
    }

    #[test]
    fn degradation_ladder() {
        let est = CostEstimate {
            trace_len: 1000,
            ..CostEstimate::default()
        };
        let mut b = Budget::unlimited();
        assert_eq!(est.degradation(&b, 32, 5), Degradation::Full);
        b.max_work = 10_000; // fits 5-point, not 32-point
        assert_eq!(est.degradation(&b, 32, 5), Degradation::Coarse);
        b.max_work = 100; // fits nothing
        assert_eq!(est.degradation(&b, 32, 5), Degradation::BoundsOnly);
        for d in [
            Degradation::Full,
            Degradation::Coarse,
            Degradation::BoundsOnly,
        ] {
            assert_eq!(Degradation::parse(d.as_str()), Some(d));
        }
    }

    #[test]
    fn token_flag_and_trip() {
        let t = CancelToken::unlimited();
        assert_eq!(t.check(Seam::Instances), Ok(()));
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.check(Seam::Instances), Err(AnalysisError::Cancelled));

        let t = CancelToken::trip_after_checks(3);
        assert_eq!(t.check(Seam::LruPass), Ok(()));
        assert_eq!(t.check(Seam::LruPass), Ok(()));
        assert_eq!(t.check(Seam::LruPass), Err(AnalysisError::Cancelled));
        assert_eq!(t.checks_seen(), 3);
    }

    #[test]
    fn token_deadline() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            t.check(Seam::OptPass),
            Err(AnalysisError::Deadline { limit_ms: 0 })
        );
        let slow = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(slow.check(Seam::OptPass), Ok(()));
    }

    #[test]
    fn token_fault_fires_once_at_matching_seam_only() {
        let t = CancelToken::with_fault(Fault {
            kind: FaultKind::Oom,
            seam: Seam::CdagFill,
        });
        assert_eq!(t.check(Seam::Instances), Ok(()));
        let err = t.check(Seam::CdagFill).unwrap_err();
        assert_eq!(err.class_name(), "budget");
        // One-shot: the pipeline continues past the fault afterwards.
        assert_eq!(t.check(Seam::CdagFill), Ok(()));
    }

    #[test]
    fn injected_panic_is_caught_as_internal() {
        let t = CancelToken::with_fault(Fault {
            kind: FaultKind::Panic,
            seam: Seam::LruPass,
        });
        let result = catch_analysis(move || t.check(Seam::LruPass));
        match result {
            Err(AnalysisError::Internal(msg)) => assert!(msg.contains("injected panic")),
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn fault_parse_roundtrip() {
        for kind in FaultKind::ALL {
            for seam in Seam::ALL {
                let s = format!("{}@{}", kind.as_str(), seam.as_str());
                assert_eq!(Fault::parse(&s), Some(Fault { kind, seam }));
            }
        }
        assert_eq!(
            Fault::parse("panic"),
            Some(Fault {
                kind: FaultKind::Panic,
                seam: Seam::Admission
            })
        );
        assert_eq!(Fault::parse("bogus@tuner"), None);
        assert_eq!(Fault::parse("panic@bogus"), None);
    }

    #[test]
    fn budget_token_carries_deadline() {
        let mut b = Budget::unlimited();
        assert!(!b.is_limited());
        b.deadline_ms = 3_600_000;
        assert!(b.is_limited());
        let t = b.token();
        assert_eq!(t.check(Seam::Admission), Ok(()));
    }
}
