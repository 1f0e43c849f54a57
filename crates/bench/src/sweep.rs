//! Parallel (kernel × S × policy) validation sweep, one curve pass per
//! cell *column*.
//!
//! Every derived lower bound must sit at or below the loads of a real
//! execution of the kernel at fast-memory size `S`. This module runs that
//! check as a data-parallel matrix — kernels are priced concurrently
//! (CDAG construction, engine profiles, then **one pass** per policy
//! column over the kernel's trace, [`price_curves`]) and the priced
//! kernels are read at their grids ([`PricedSweep::report`]) — and renders the
//! outcome as both a table and a machine-readable
//! `BENCH_pebble.json` so successive PRs have a recorded perf/soundness
//! trajectory.
//!
//! The measured executions are exact cache simulations of the kernel's
//! program-order *value-access trace* (each compute reads its CDAG
//! predecessors, then produces its value —
//! [`Cdag::packed_program_order_trace`]). LRU and Belady-MIN are both
//! stack algorithms, so a single stack-distance pass
//! ([`iolb_memsim::CurveEngine`]) yields the exact miss count at **every**
//! `S` of the grid at once — bitwise what an `LruSim`/`BeladySim` replay
//! of the trace reports, property-tested as such — replacing the old
//! per-`(kernel, S, policy)` pebble-replay loop and densifying the grid
//! from 5 to [`dense_s_offsets`]'s ~32 points at enlarged sizes within
//! the same budget. The MIN curve additionally lower-bounds the loads of
//! every legal red-white pebble play (the play's moves are one valid
//! replacement schedule for the trace), so `bound ≤ loads` here is at
//! least as strict a soundness check as the old play-based one; the
//! bridge between the two models is property-tested in `iolb-cdag`.
//!
//! [`SweepKernel`] is fully data-driven (owned names, the bounds derived
//! once before the sweep, per-kernel split bindings, env derived from the
//! program's own parameter list), so the same machinery validates the
//! shipped paper kernels ([`crate::PAPER_KERNELS`]) and any other `.iolb`
//! workload the `iolb` CLI parses.
//!
//! [`Cdag::packed_program_order_trace`]: iolb_cdag::Cdag::packed_program_order_trace

use crate::json::Layout::{Inline, Lines};
use crate::json::{members, Writer};
use iolb_cdag::SpillPolicy;
/// The exact CDAG and its governed builder, re-exported for callers that
/// build the graph once and hand it to [`SweepKernel::cdag`].
pub use iolb_cdag::{try_build_cdag, Cdag};
use iolb_core::report::{self, SplitBinding};
use iolb_core::{
    best_engine_bound, BoundProvenance, ClassicalBound, EngineCurve, EngineProfile, EngineRegistry,
    HourglassBound,
};
use iolb_govern::{catch_analysis_mut, AnalysisError, Budget, CancelToken, Degradation};
use iolb_memsim::{ChunkedTrace, CurveEngine, MissCurve, ShardedCurveEngine};
use iolb_symbolic::Var;
use rayon::prelude::*;
use std::time::Instant;

/// Which engines stage 2 may price a kernel's curves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurveStrategy {
    /// The size rule ([`price_curves`] at [`CROSS_CHECK_CAP`]): a trace of
    /// at most `CROSS_CHECK_CAP` events is materialized and priced once on
    /// [`CurveEngine`]; a longer one streams once through
    /// [`ShardedCurveEngine`] straight from the CDAG pull source
    /// ([`Cdag::program_order_trace`]) and is never materialized. The name
    /// (and its `streaming` fingerprint text) predates the rule and is kept
    /// so persisted store keys stay valid.
    ///
    /// [`Cdag::program_order_trace`]: iolb_cdag::Cdag::program_order_trace
    #[default]
    Streaming,
    /// Every trace materialized and priced on [`CurveEngine`], whatever its
    /// length.
    Materialized,
}

impl CurveStrategy {
    /// The largest trace (events) this strategy materializes.
    fn cap(self) -> u64 {
        match self {
            CurveStrategy::Streaming => CROSS_CHECK_CAP,
            CurveStrategy::Materialized => u64::MAX,
        }
    }
}

/// The sweep's two policy columns, in row order.
const POLICIES: [SpillPolicy; 2] = [SpillPolicy::Lru, SpillPolicy::MinNextUse];

/// Largest trace (events) production materializes and prices on
/// [`CurveEngine`]; longer traces stream through [`ShardedCurveEngine`].
/// On one worker the materialized engine is the faster of the two (release
/// build on a 2-vCPU shared Xeon host, mgs M=512,N=32, 2.1·10⁶ events,
/// medians of 5 in four rounds: LRU 11–16 vs 18–22 ms, the streamed pass
/// feeding the same recency ring from the CDAG reader; OPT 55–68 vs
/// 372–455 ms), and a trace at the cap is 32 MiB packed. The name is
/// kept from when it bounded a run-time cross-check of the two engines;
/// that equivalence is now a test (`crates/bench/tests/curve_engines.rs`).
pub const CROSS_CHECK_CAP: u64 = 1 << 22;

/// Prices the miss curve of `trace` under each of `policies`, exact at
/// capacities `1..=horizon`, once per policy on the engine the trace's
/// length calls for: a trace of at most `cap` events is materialized
/// (borrowed when the source is already resident,
/// [`ChunkedTrace::as_packed`]) and priced on one [`CurveEngine`]; a
/// longer one streams through [`ShardedCurveEngine`] without being
/// materialized. Both engines give bitwise-equal curves. The validation
/// sweep, the tightness tuner and [`crate::sweep_tiled`] all price through
/// here, at [`CROSS_CHECK_CAP`]; the scaling series passes cap 0 to time
/// the sharded engine.
///
/// # Errors
/// Cancellation or deadline from `token` (polled at [`Seam::LruPass`] /
/// [`Seam::OptPass`]), or an engine's typed refusal.
///
/// [`Seam::LruPass`]: iolb_govern::Seam::LruPass
/// [`Seam::OptPass`]: iolb_govern::Seam::OptPass
pub fn price_curves<const N: usize>(
    trace: &(impl ChunkedTrace + ?Sized),
    policies: [SpillPolicy; N],
    horizon: usize,
    cap: u64,
    token: &CancelToken,
) -> Result<[MissCurve; N], AnalysisError> {
    let mut curves = Vec::with_capacity(N);
    if trace.len() > cap {
        let engine = ShardedCurveEngine::new();
        for policy in policies {
            curves.push(match policy {
                SpillPolicy::Lru => engine.try_lru(trace, horizon, token)?,
                SpillPolicy::MinNextUse => engine.try_opt(trace, horizon, token)?,
            });
        }
    } else {
        let owned: Vec<u64>;
        let packed = match trace.as_packed() {
            Some(packed) => packed,
            None => {
                let mut buf = vec![0; trace.len() as usize];
                trace.fill(0, &mut buf);
                owned = buf;
                &owned
            }
        };
        let mut engine = CurveEngine::new();
        for policy in policies {
            curves.push(match policy {
                SpillPolicy::Lru => engine.try_lru_packed(packed, horizon, token)?,
                SpillPolicy::MinNextUse => engine.try_opt_packed(packed, horizon, token)?,
            });
        }
    }
    Ok(curves.try_into().expect("one curve per policy"))
}

/// One kernel that failed inside a governed batch: the typed error is
/// reduced to its class (stable, machine-checkable) plus the
/// human-readable message. Kernels that fail never contribute `rows`;
/// their failure row is the record that they were attempted.
#[derive(Debug, Clone)]
pub struct FailureRow {
    /// Kernel display name (or file stem in CLI batches).
    pub kernel: String,
    /// Error class (`AnalysisError::class_name`).
    pub class: String,
    /// Human-readable message.
    pub message: String,
}

impl FailureRow {
    /// Builds the row from a kernel name and its typed error.
    pub fn from_error(kernel: &str, e: &AnalysisError) -> FailureRow {
        FailureRow {
            kernel: kernel.to_string(),
            class: e.class_name().to_string(),
            message: e.to_string(),
        }
    }
}

/// The degradation level one kernel's analysis actually ran at.
#[derive(Debug, Clone)]
pub struct DegradationRow {
    /// Kernel display name.
    pub kernel: String,
    /// Grid fidelity the admission controller granted.
    pub level: Degradation,
}

/// The default dense S grid: 32 log-spaced offsets added to each
/// kernel's minimum feasible S — unit steps near the feasibility minimum,
/// then roughly quarter-octave up to 256. A superset of the legacy
/// `{0, 4, 16, 64, 256}` coarse grid so historical points stay
/// comparable, and capped at the legacy maximum so the stack-distance
/// horizon (which bounds the one-pass profilers' work) stays small.
pub fn dense_s_offsets() -> Vec<usize> {
    vec![
        0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 16, 19, 23, 27, 32, 38, 45, 54, 64, 76, 91, 108,
        128, 139, 152, 166, 181, 197, 215, 256,
    ]
}

/// The legacy 5-point S grid (kept for quick runs: `--s-grid coarse`).
pub fn coarse_s_offsets() -> Vec<usize> {
    vec![0, 4, 16, 64, 256]
}

/// One kernel in the sweep: program, concrete sizes, and the bounds under
/// validation — derived before the sweep, which only evaluates them — plus,
/// optionally, the exact CDAG at those sizes when the caller already built
/// it.
pub struct SweepKernel {
    /// Display name.
    pub name: String,
    /// The IR program.
    pub program: iolb_ir::Program,
    /// Concrete parameter values (same order as `program.params`).
    pub params: Vec<i64>,
    /// Classical bound of the analyzed statement, when one derives.
    pub classical: Option<ClassicalBound>,
    /// Hourglass bound of the analyzed statement, when it has the pattern.
    pub hourglass: Option<HourglassBound>,
    /// The §5.3 split binding the hourglass derivation applied (binds the
    /// split variable in [`SweepKernel::env`]).
    pub split: Option<SplitBinding>,
    /// Offsets added to the kernel's minimum feasible S to form the S grid.
    pub s_offsets: Vec<usize>,
    /// The exact CDAG of `program` at `params`, built by the caller under
    /// the sweep's budget and token ([`try_build_cdag`]); the sweep then
    /// skips its own build and drops the graph when it returns. `None`
    /// makes the sweep build it.
    pub cdag: Option<Cdag>,
}

impl SweepKernel {
    /// Derives the bounds of statement `stmt` ([`report::derive_stmt_bounds`],
    /// no certification) and builds the kernel. `split_override` replaces
    /// the midpoint binding when §5.3 splitting turns out to be needed.
    ///
    /// # Errors
    /// [`AnalysisError::Refused`] for an unknown statement or a failed
    /// derivation.
    pub fn derive(
        name: &str,
        program: iolb_ir::Program,
        stmt: &str,
        params: Vec<i64>,
        split_override: Option<SplitBinding>,
        s_offsets: Vec<usize>,
    ) -> Result<SweepKernel, AnalysisError> {
        let id = program.stmt_id(stmt).ok_or_else(|| {
            AnalysisError::Refused(format!("{name}: no statement named `{stmt}`"))
        })?;
        let bounds = report::derive_stmt_bounds(&program, id, &params, split_override, false, None)
            .map_err(|e| AnalysisError::Refused(format!("{name}: {e}")))?;
        Ok(SweepKernel {
            name: name.to_string(),
            program,
            params,
            classical: bounds.classical,
            hourglass: bounds.hourglass,
            split: bounds.split,
            s_offsets,
            cdag: None,
        })
    }

    /// Named concrete parameters (`program.params` zipped with `params`).
    pub fn named_params(&self) -> Vec<(String, i64)> {
        self.program
            .params
            .iter()
            .cloned()
            .zip(self.params.iter().copied())
            .collect()
    }

    /// The symbolic evaluation environment: every program parameter bound
    /// to its concrete value, plus the split variable when a split was
    /// applied — all derived from data, no per-kernel hardcoding.
    pub fn env(&self) -> Vec<(Var, i128)> {
        let mut env: Vec<(Var, i128)> = self
            .named_params()
            .iter()
            .map(|(n, v)| (Var::new(n), *v as i128))
            .collect();
        if let Some(b) = &self.split {
            env.push((b.var, b.eval(&self.named_params())));
        }
        env
    }
}

/// Problem-size tier of the default validation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepSize {
    /// Enlarged sizes (MGS 64×32, GEMM 48³, …) — the CI soundness gate.
    Full,
    /// The seed's fast test-grid sizes.
    Small,
}

/// The default validation matrix: every row of [`crate::PAPER_KERNELS`]
/// at the chosen size tier, its `analyze` statement's bounds derived with
/// the file's `split` directive.
///
/// # Panics
/// Panics when a shipped kernel's derivation fails.
pub fn default_sweep_kernels_at(size: SweepSize) -> Vec<SweepKernel> {
    let s_offsets = dense_s_offsets();
    crate::PAPER_KERNELS
        .iter()
        .map(|k| {
            let file = k.parse();
            let stmt = file.analyze.clone().unwrap_or_default();
            let params = match size {
                SweepSize::Full => k.full,
                SweepSize::Small => k.small,
            };
            let split = SplitBinding::from_directive(&file);
            SweepKernel::derive(
                k.name,
                file.program,
                &stmt,
                params.to_vec(),
                split,
                s_offsets.clone(),
            )
            .unwrap_or_else(|e| panic!("shipped kernel: {e}"))
        })
        .collect()
}

/// One kernel priced for every S grid up to its horizon. Everything a
/// sweep computes is independent of which S points the grid holds: the
/// CDAG's facts, the derived bounds, each selected engine's profile, and
/// the LRU and OPT miss curves, which are exact at every `S ≤ horizon`.
/// The CDAG itself is dropped once the kernel is priced, and nothing here
/// grows with the graph: the curves and the engine profiles are O(horizon).
#[derive(Debug)]
struct PricedKernel {
    name: String,
    params: Vec<i64>,
    env: Vec<(Var, i128)>,
    classical: Option<ClassicalBound>,
    hourglass: Option<HourglassBound>,
    /// Minimum feasible S (the CDAG's largest in-degree + 1); a grid's
    /// offsets are added to it.
    min_s: usize,
    nodes: usize,
    edges: usize,
    /// Compute steps (trace writes).
    computes: u64,
    /// Largest S the kernel was priced for.
    horizon: usize,
    engines: Vec<EngineProfile>,
    /// One curve per policy of [`POLICIES`], exact up to `horizon`.
    curves: [MissCurve; 2],
    prep_ms: f64,
    wall_ms: f64,
}

impl PricedKernel {
    /// Whether every S of the grid `s_offsets` lies within the horizon.
    fn covers(&self, s_offsets: &[usize]) -> bool {
        s_offsets
            .iter()
            .all(|&off| self.min_s + off <= self.horizon)
    }

    /// The kernel's rows at the grid `s_offsets`, in (S, {LRU, MIN}) order:
    /// the bounds evaluated and the curves read at each S.
    ///
    /// # Panics
    /// Panics when the grid reaches past the horizon.
    fn rows(&self, s_offsets: &[usize]) -> Vec<SweepRow> {
        assert!(
            self.covers(s_offsets),
            "{}: grid {s_offsets:?} reaches past horizon {}",
            self.name,
            self.horizon
        );
        let s_values: Vec<usize> = s_offsets.iter().map(|&off| self.min_s + off).collect();
        let engine_curves: Vec<EngineCurve> =
            self.engines.iter().map(|e| e.curve(&s_values)).collect();
        let mut rows = Vec::with_capacity(s_values.len() * POLICIES.len());
        for (si, &s) in s_values.iter().enumerate() {
            let lb_classical = self
                .classical
                .as_ref()
                .map(|b| b.eval_floor(&self.env, s as i128))
                .unwrap_or(0.0);
            let lb_hourglass = self
                .hourglass
                .as_ref()
                .map(|b| b.eval_floor(&self.env, s as i128))
                .unwrap_or(0.0);
            let engine_at = |prov: BoundProvenance| -> Option<u64> {
                engine_curves
                    .iter()
                    .find(|c| c.provenance == prov)
                    .and_then(|c| c.at(si))
            };
            // Winning provenance: strictly-greater replaces, so ties keep
            // the earliest family (symbolic before graph-level, canonical
            // engine order within graph-level).
            let mut best = lb_classical;
            let mut lb_provenance = BoundProvenance::Classical;
            if lb_hourglass > best {
                best = lb_hourglass;
                lb_provenance = BoundProvenance::Hourglass;
            }
            if let Some((b, prov)) = best_engine_bound(&engine_curves, si) {
                if b as f64 > best {
                    best = b as f64;
                    lb_provenance = prov;
                }
            }
            for (curve, policy) in self.curves.iter().zip(POLICIES) {
                let loads = curve.loads(s);
                rows.push(SweepRow {
                    kernel: self.name.clone(),
                    params: self.params.clone(),
                    nodes: self.nodes,
                    edges: self.edges,
                    s,
                    policy,
                    loads,
                    computes: self.computes,
                    lb_classical,
                    lb_hourglass,
                    lb_input: engine_at(BoundProvenance::InputFloor),
                    lb_visit: engine_at(BoundProvenance::Visit),
                    lb_spectral: engine_at(BoundProvenance::Spectral),
                    lb_provenance,
                    ratio: loads as f64 / best.max(1.0),
                    prep_ms: self.prep_ms,
                    wall_ms: self.wall_ms,
                });
            }
        }
        rows
    }
}

/// Every kernel of a sweep priced ([`price_sweep`]), plus the pass's
/// volatile facts; [`PricedSweep::report`] reads it at any grids within
/// the kernels' horizons.
#[derive(Debug)]
pub struct PricedSweep {
    /// The priced kernels, in input order.
    kernels: Vec<PricedKernel>,
    /// Wall time of the pricing pass (milliseconds).
    total_wall_ms: f64,
    /// Worker threads the pricing pass engaged.
    threads: usize,
}

impl PricedSweep {
    /// Whether the grid `s_offsets` lies within every kernel's horizon.
    pub fn covers(&self, s_offsets: &[usize]) -> bool {
        self.kernels.iter().all(|k| k.covers(s_offsets))
    }

    /// The sweep report with kernel `i` at grid `grids[i]`: the rows in
    /// (kernel, S, {LRU, MIN}) order and every kernel at the full level
    /// (callers that coarsened a grid overwrite the level afterwards).
    ///
    /// # Panics
    /// Panics when a grid reaches past its kernel's horizon.
    pub fn report(&self, grids: &[&[usize]]) -> SweepReport {
        assert_eq!(grids.len(), self.kernels.len(), "one grid per kernel");
        SweepReport {
            rows: self
                .kernels
                .iter()
                .zip(grids)
                .flat_map(|(k, grid)| k.rows(grid))
                .collect(),
            degradation: self
                .kernels
                .iter()
                .map(|k| DegradationRow {
                    kernel: k.name.clone(),
                    level: Degradation::Full,
                })
                .collect(),
            failures: Vec::new(),
            total_wall_ms: self.total_wall_ms,
            threads: self.threads,
            scaling: Vec::new(),
        }
    }
}

/// One `(kernel, S, policy)` cell of the validated matrix.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Kernel display name.
    pub kernel: String,
    /// Concrete parameter values.
    pub params: Vec<i64>,
    /// CDAG size (nodes, edges).
    pub nodes: usize,
    /// CDAG edge count.
    pub edges: usize,
    /// Fast-memory budget of this cell.
    pub s: usize,
    /// Replacement policy of this cell's simulated execution.
    pub policy: SpillPolicy,
    /// Exact loads of the policy's cache simulation of the program-order
    /// trace at this `S` — one point of the kernel's miss curve, bitwise
    /// equal to the corresponding `LruSim`/`BeladySim` replay.
    pub loads: u64,
    /// Compute steps of the schedule (trace writes; S-independent).
    pub computes: u64,
    /// Classical K-partition bound at (env, S); 0 when none is derivable.
    pub lb_classical: f64,
    /// Hourglass bound at (env, S), 0 when the kernel has no pattern.
    pub lb_hourglass: f64,
    /// Graph-level input-floor bound (`None` when the engine was not
    /// selected).
    pub lb_input: Option<u64>,
    /// Graph-level DAG-visit bound (`None` when not selected).
    pub lb_visit: Option<u64>,
    /// Graph-level spectral bound (`None` when not selected or the CDAG
    /// exceeds [`iolb_cdag::SPECTRAL_NODE_CAP`]).
    pub lb_spectral: Option<u64>,
    /// Which bound family [`SweepRow::lb`] came from. Ties keep the
    /// earliest family in declaration order (symbolic before graph-level),
    /// so the tag is deterministic.
    pub lb_provenance: BoundProvenance,
    /// Measured loads over the best bound (≥ 1 for sound bounds).
    pub ratio: f64,
    /// One-time preparation cost of this cell's kernel (the CDAG build
    /// unless the kernel arrived with its CDAG, + graph-engine profiles,
    /// milliseconds) — shared across the kernel's cells, not a per-cell
    /// cost.
    pub prep_ms: f64,
    /// Wall time of pricing this cell's kernel's curves (the trace's
    /// materialization when the size rule takes it, then one
    /// stack-distance pass per policy that produced every S point,
    /// milliseconds) — shared across the kernel's cells.
    pub wall_ms: f64,
}

impl SweepRow {
    /// Best graph-level engine bound of this cell (`None` when no engine
    /// applied).
    pub fn lb_graph(&self) -> Option<u64> {
        [self.lb_input, self.lb_visit, self.lb_spectral]
            .into_iter()
            .flatten()
            .max()
    }

    /// Best derived bound of this cell: max over the symbolic bounds and
    /// every applicable graph-level engine.
    pub fn lb(&self) -> f64 {
        self.lb_classical
            .max(self.lb_hourglass)
            .max(self.lb_graph().unwrap_or(0) as f64)
    }

    /// Soundness of the cell: the bound must not exceed the measured
    /// loads of the simulated execution.
    pub fn sound(&self) -> bool {
        self.lb() <= self.loads as f64 + 1e-9
    }
}

/// One point of the curve-engine scaling series: wall time of one
/// streaming pass over a synthetic GEMM-class trace (see
/// [`crate::scale`]). Volatile by nature — recorded only in the report's
/// `meta` object, never in the comparable sections.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Trace length (events) of the synthetic workload.
    pub accesses: u64,
    /// Policy of the measured pass.
    pub policy: SpillPolicy,
    /// Wall time of the pass (milliseconds).
    pub wall_ms: f64,
}

/// Full sweep outcome.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// All validated cells.
    pub rows: Vec<SweepRow>,
    /// Degradation level each kernel's grid actually ran at (one row per
    /// surviving kernel; the CLI overwrites levels when the admission
    /// controller coarsened a grid).
    pub degradation: Vec<DegradationRow>,
    /// Kernels that were attempted but produced no rows (typed-error
    /// class + message). Empty outside governed batch runs.
    pub failures: Vec<FailureRow>,
    /// End-to-end wall time (milliseconds), including preparation.
    pub total_wall_ms: f64,
    /// Worker threads engaged by *this* sweep's parallel stages (scoped —
    /// earlier parallel work in the process does not inflate it).
    pub threads: usize,
    /// Optional curve-engine scaling series (attached by the pebble
    /// validation binary; empty in ordinary sweeps). Emitted in `meta`
    /// only when non-empty and not redacted.
    pub scaling: Vec<ScalingPoint>,
}

/// Runs the full matrix: kernels are priced concurrently, each
/// `(kernel, policy)` column one stack-distance pass whose curve is read
/// at every grid S.
///
/// Ungoverned compatibility wrapper over [`try_run_sweep`] — unlimited
/// budget, no cancellation.
///
/// # Panics
/// Panics when a kernel's derivation fails (the governed path returns the
/// error instead).
pub fn run_sweep(kernels: Vec<SweepKernel>) -> SweepReport {
    try_run_sweep(kernels, &Budget::unlimited(), &CancelToken::unlimited())
        .unwrap_or_else(|e| panic!("sweep: {e}"))
}

/// [`run_sweep`] under a resource budget and a cancellation token.
///
/// Preparation refusals surface as [`AnalysisError::Refused`], CDAG
/// materialization is admission-checked cell table by cell table
/// ([`try_build_cdag`], or by the caller that built
/// [`SweepKernel::cdag`]), the emitted trace is charged against
/// `budget.max_trace_len`, and both curve passes poll the token — a
/// deadline or an external cancel lands within a bounded number of trace
/// positions. The first error aborts the whole sweep; per-kernel fault
/// isolation is the CLI batch layer's job, which calls this with one
/// kernel at a time.
///
/// # Errors
/// The first typed error any stage produced.
pub fn try_run_sweep(
    kernels: Vec<SweepKernel>,
    budget: &Budget,
    token: &CancelToken,
) -> Result<SweepReport, AnalysisError> {
    try_run_sweep_opts(
        kernels,
        budget,
        token,
        &EngineRegistry::all(),
        CurveStrategy::default(),
    )
}

/// [`try_run_sweep`] with an explicit graph-level engine selection and
/// curve-pricing strategy: [`price_sweep`], then [`PricedSweep::report`]
/// at each kernel's own grid. Each kernel's curves are priced once through
/// [`price_curves`], at [`CROSS_CHECK_CAP`] under
/// [`CurveStrategy::Streaming`].
///
/// Engine profiles are prepared on the exact CDAG over every capacity from
/// the kernel's minimum S to its horizon, and read at each grid `S`. They
/// are deliberately *not* charged against the
/// work budget: the engines are cheap by construction (the visit profile
/// is one sort of the compute in-degrees, the spectral profile refuses
/// graphs above [`iolb_cdag::SPECTRAL_NODE_CAP`] nodes), so selecting
/// them never changes the degradation level a kernel is admitted at.
///
/// # Errors
/// The first typed error any stage produced.
pub fn try_run_sweep_opts(
    kernels: Vec<SweepKernel>,
    budget: &Budget,
    token: &CancelToken,
    registry: &EngineRegistry,
    strategy: CurveStrategy,
) -> Result<SweepReport, AnalysisError> {
    sweep_at_cap(kernels, budget, token, registry, strategy.cap())
}

/// [`try_run_sweep_opts`] with the size rule's cap as a plain argument, so
/// tests reach the streaming branch on traces far below
/// [`CROSS_CHECK_CAP`]: the kernels priced, then read at their own grids.
fn sweep_at_cap(
    kernels: Vec<SweepKernel>,
    budget: &Budget,
    token: &CancelToken,
    registry: &EngineRegistry,
    cap: u64,
) -> Result<SweepReport, AnalysisError> {
    let grids: Vec<Vec<usize>> = kernels.iter().map(|k| k.s_offsets.clone()).collect();
    let priced = price_at_cap(kernels, budget, token, registry, cap)?;
    let grids: Vec<&[usize]> = grids.iter().map(Vec::as_slice).collect();
    Ok(priced.report(&grids))
}

/// The grid-independent half of [`try_run_sweep_opts`]: every kernel
/// priced up to the horizon of its own `s_offsets`, ready for
/// [`PricedSweep::report`] at that grid or any other within the horizon.
///
/// # Errors
/// The first typed error any kernel's pricing produced.
pub fn price_sweep(
    kernels: Vec<SweepKernel>,
    budget: &Budget,
    token: &CancelToken,
    registry: &EngineRegistry,
    strategy: CurveStrategy,
) -> Result<PricedSweep, AnalysisError> {
    price_at_cap(kernels, budget, token, registry, strategy.cap())
}

/// [`price_sweep`] with the size rule's cap as a plain argument.
fn price_at_cap(
    kernels: Vec<SweepKernel>,
    budget: &Budget,
    token: &CancelToken,
    registry: &EngineRegistry,
    cap: u64,
) -> Result<PricedSweep, AnalysisError> {
    let t_total = Instant::now();
    // Scoped worker accounting: `meta.threads` must describe THIS sweep,
    // not whatever parallel stage ran earlier in the process.
    let workers = rayon::worker_scope();
    let kernels = kernels
        .into_par_iter()
        // Convert panics to typed errors inside the worker closure — the
        // thread-scope bridge underneath would otherwise replace the
        // payload with a generic "a scoped thread panicked".
        .map(|k| catch_analysis_mut(|| price_kernel(k, budget, token, registry, cap)))
        .collect::<Vec<Result<PricedKernel, AnalysisError>>>()
        .into_iter()
        .collect::<Result<Vec<PricedKernel>, AnalysisError>>()?;
    Ok(PricedSweep {
        kernels,
        total_wall_ms: t_total.elapsed().as_secs_f64() * 1e3,
        threads: workers.max_workers_used(),
    })
}

/// Prices one kernel: its CDAG (built here unless the kernel arrived with
/// one), the trace-length charge, the engine profiles over
/// `[min_s, horizon]`, and one curve pass per policy on the engine the
/// trace length calls for. The CDAG is dropped on return.
fn price_kernel(
    k: SweepKernel,
    budget: &Budget,
    token: &CancelToken,
    registry: &EngineRegistry,
    cap: u64,
) -> Result<PricedKernel, AnalysisError> {
    let t = Instant::now();
    let env = k.env();
    let cdag = match k.cdag {
        Some(cdag) => cdag,
        None => try_build_cdag(&k.program, &k.params, budget, token)?,
    };
    // Trace length is known from the CSR alone — charge the budget before
    // anything prices or materializes it.
    let trace_len = (cdag.num_edges() + cdag.num_computes()) as u64;
    if trace_len > budget.max_trace_len {
        return Err(AnalysisError::BudgetExceeded {
            resource: "trace_len",
            needed: trace_len,
            limit: budget.max_trace_len,
        });
    }
    let min_s = cdag.max_in_degree() + 1;
    let horizon = k.s_offsets.iter().max().map_or(1, |&off| min_s + off);
    let engines = registry.prepare(&cdag, min_s..=horizon);
    let prep_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let curves = price_curves(&cdag.program_order_trace(), POLICIES, horizon, cap, token)?;
    Ok(PricedKernel {
        name: k.name,
        params: k.params,
        env,
        classical: k.classical,
        hourglass: k.hourglass,
        min_s,
        nodes: cdag.len(),
        edges: cdag.num_edges(),
        computes: cdag.num_computes() as u64,
        horizon,
        engines,
        curves,
        prep_ms,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

/// Renders the sweep as an aligned table.
pub fn render_sweep_table(report: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>14} {:>7} {:>6} {:>4} {:>10} {:>12} {:>12} {:>9} {:>11} {:>7} {:>9}\n",
        "kernel",
        "size",
        "nodes",
        "S",
        "pol",
        "loads",
        "LB classic",
        "LB hourglass",
        "LB graph",
        "prov",
        "load/LB",
        "curve ms"
    ));
    for r in &report.rows {
        out.push_str(&format!(
            "{:<12} {:>14} {:>7} {:>6} {:>4} {:>10} {:>12.0} {:>12.0} {:>9} {:>11} {:>7.2} {:>9.2}\n",
            r.kernel,
            format!("{:?}", r.params),
            r.nodes,
            r.s,
            match r.policy {
                SpillPolicy::Lru => "LRU",
                SpillPolicy::MinNextUse => "MIN",
            },
            r.loads,
            r.lb_classical,
            r.lb_hourglass,
            r.lb_graph().map_or("-".to_string(), |b| b.to_string()),
            r.lb_provenance.as_str(),
            r.ratio,
            r.wall_ms,
        ));
    }
    out.push_str(&format!(
        "{} cells on {} threads in {:.1} ms\n",
        report.rows.len(),
        report.threads,
        report.total_wall_ms
    ));
    out
}

/// Opens a report document: its `schema`, then the volatile `meta` object
/// (zero under redaction), which the caller closes.
pub(crate) fn write_head(w: &mut Writer, schema: &str, threads: usize, wall: f64, redact: bool) {
    let (threads, wall) = if redact { (0, 0.0) } else { (threads, wall) };
    members!(w.obj(Lines), "schema": str(schema), "meta": obj(Inline));
    members!(w, "threads": int(threads), "total_wall_ms": num(wall));
}

/// Writes the `degradation` and `failures` arrays both report schemas
/// carry, sorted by kernel (failures then by class), one row per line.
pub(crate) fn write_governance(w: &mut Writer, rows: &[DegradationRow], failures: &[FailureRow]) {
    let mut degradation: Vec<&DegradationRow> = rows.iter().collect();
    degradation.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    let mut failures: Vec<&FailureRow> = failures.iter().collect();
    failures.sort_by(|a, b| (&a.kernel, &a.class).cmp(&(&b.kernel, &b.class)));
    w.key("degradation").arr(Lines);
    for d in degradation {
        members!(w, {"kernel": str(&d.kernel), "level": str(d.level.as_str())});
    }
    w.end().key("failures").arr(Lines);
    for f in failures {
        members!(w, {"kernel": str(&f.kernel), "class": str(&f.class), "message": str(&f.message)});
    }
    w.end();
}

/// Serializes the report as JSON through the [`crate::json`] writer.
///
/// Deterministic by construction: rows are sorted by `(kernel, params, s,
/// policy)` and keys have a fixed order, so the comparable sections are
/// byte-stable across machines and thread counts. Volatile data (worker
/// threads, wall times) lives only in the `meta` object, which the CI diff
/// gate ignores; `redact_volatile` zeroes it for byte-stable golden
/// snapshots.
pub fn sweep_report_json(report: &SweepReport, redact_volatile: bool) -> String {
    let mut w = Writer::default();
    write_sweep_report(&mut w, report, redact_volatile);
    w.finish()
}

/// Writes the `pebble-sweep/v5` document at the writer's position (the
/// `serve/v1` envelope nests it one level deep).
pub fn write_sweep_report(w: &mut Writer, report: &SweepReport, redact: bool) {
    let policy_name = |p: SpillPolicy| match p {
        SpillPolicy::Lru => "lru",
        SpillPolicy::MinNextUse => "min_next_use",
    };
    let mut rows: Vec<&SweepRow> = report.rows.iter().collect();
    rows.sort_by(|a, b| {
        (&a.kernel, &a.params, a.s, policy_name(a.policy)).cmp(&(
            &b.kernel,
            &b.params,
            b.s,
            policy_name(b.policy),
        ))
    });
    let (threads, wall) = (report.threads, report.total_wall_ms);
    write_head(w, "hourglass-iolb/pebble-sweep/v5", threads, wall, redact);
    // The scaling series is volatile (wall times), so it lives in `meta`
    // with the other volatile fields and is dropped whole under redaction
    // — golden snapshots stay byte-stable.
    if !redact && !report.scaling.is_empty() {
        w.key("scaling").arr(Inline);
        for p in &report.scaling {
            members!(w, {"accesses": int(p.accesses), "policy": str(policy_name(p.policy)),
                "wall_ms": num(p.wall_ms)});
        }
        w.end();
    }
    w.end();
    write_governance(w, &report.degradation, &report.failures);
    w.key("rows").arr(Lines);
    for r in rows {
        members!(w, {"kernel": str(&r.kernel), "params": ints(&r.params),
            "nodes": int(r.nodes), "edges": int(r.edges), "s": int(r.s),
            "policy": str(policy_name(r.policy)), "loads": int(r.loads),
            "computes": int(r.computes), "lb_classical": num(r.lb_classical),
            "lb_hourglass": num(r.lb_hourglass), "lb_input": opt(r.lb_input, Writer::int),
            "lb_visit": opt(r.lb_visit, Writer::int),
            "lb_spectral": opt(r.lb_spectral, Writer::int), "lb": num(r.lb()),
            "lb_provenance": str(r.lb_provenance.as_str()), "ratio_loads_over_lb": num(r.ratio),
            "sound": bool(r.sound())});
    }
    w.end().end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_govern::{Fault, FaultKind, Seam};

    /// Small-size sweep: the full matrix machinery on fast cases, asserting
    /// soundness (bound ≤ measured loads) and the MIN ≤ LRU invariant per
    /// cell pair. The shrunken sizes come from the same data table as the
    /// CI-gate sizes — no per-kernel match-arms here.
    #[test]
    fn small_sweep_is_sound_and_min_beats_lru() {
        let kernels = default_sweep_kernels_at(SweepSize::Small);
        let report = run_sweep(kernels);
        assert_eq!(report.rows.len(), 6 * dense_s_offsets().len() * 2);
        let mut nontrivial = 0;
        for r in &report.rows {
            assert!(
                r.sound(),
                "{}: S={} bound {} > loads {}",
                r.kernel,
                r.s,
                r.lb(),
                r.loads
            );
            if r.lb() > 0.0 {
                nontrivial += 1;
            }
        }
        assert!(nontrivial >= 100, "got {nontrivial} non-trivial cells");
        // MIN never loads more than LRU on the same (kernel, S), and each
        // policy column is monotone non-increasing in S.
        for pair in report.rows.chunks(2) {
            let (lru, min) = (&pair[0], &pair[1]);
            assert_eq!(lru.kernel, min.kernel);
            assert_eq!(lru.s, min.s);
            assert!(min.loads <= lru.loads, "{} S={}", lru.kernel, lru.s);
        }
        let mut last: std::collections::HashMap<(&str, SpillPolicy), u64> =
            std::collections::HashMap::new();
        for r in &report.rows {
            if let Some(prev) = last.insert((r.kernel.as_str(), r.policy), r.loads) {
                assert!(
                    r.loads <= prev,
                    "{} {:?}: loads not monotone in S at S={}",
                    r.kernel,
                    r.policy,
                    r.s
                );
            }
        }
        // Every row carries the full engine complement (the default
        // registry selects all engines; always-applicable ones are never
        // null) and a provenance tag consistent with the winning bound.
        for r in &report.rows {
            assert!(r.lb_input.is_some(), "{}: input floor missing", r.kernel);
            assert!(r.lb_visit.is_some(), "{}: visit bound missing", r.kernel);
            let best = r.lb();
            let tagged = match r.lb_provenance {
                BoundProvenance::Classical => r.lb_classical,
                BoundProvenance::Hourglass => r.lb_hourglass,
                BoundProvenance::InputFloor => r.lb_input.unwrap_or(0) as f64,
                BoundProvenance::Visit => r.lb_visit.unwrap_or(0) as f64,
                BoundProvenance::Spectral => r.lb_spectral.unwrap_or(0) as f64,
            };
            assert_eq!(
                tagged, best,
                "{}: provenance tags a non-best bound",
                r.kernel
            );
        }
        // JSON smoke: parsers only need balance + key presence here.
        let json = sweep_report_json(&report, false);
        assert!(json.contains("\"schema\": \"hourglass-iolb/pebble-sweep/v5\""));
        assert!(json.contains("\"lb_provenance\": \""));
        assert!(json.contains("\"lb_input\": "));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced JSON"
        );
        // Governance sections: every kernel ran its full grid, no failures.
        assert!(json.contains("\"degradation\": ["));
        assert!(json.contains("\"failures\": ["));
        assert_eq!(json.matches("\"level\": \"full\"").count(), 6);
        assert_eq!(report.failures.len(), 0);
        // Deterministic comparable sections: rows sorted by kernel name and
        // no volatile field outside `meta`.
        let rows_json = json.split("\"rows\"").nth(1).expect("rows array");
        let kernels: Vec<&str> = rows_json
            .lines()
            .filter_map(|l| l.trim().strip_prefix("{\"kernel\": \""))
            .map(|l| l.split('"').next().unwrap())
            .collect();
        let mut sorted = kernels.clone();
        sorted.sort();
        assert_eq!(kernels, sorted, "rows sorted by kernel");
        // No volatile field may leak into the comparable rows section.
        let rows_section = json.split("\"rows\"").nth(1).expect("rows array");
        assert!(
            !rows_section.contains("_ms") && !rows_section.contains("threads"),
            "volatile field outside meta"
        );
        let redacted = sweep_report_json(&report, true);
        assert!(redacted.contains("\"meta\": {\"threads\": 0, \"total_wall_ms\": 0.0000}"));
    }

    /// `--engines none` disables the graph-level columns without touching
    /// the symbolic bounds: every engine cell is null and provenance can
    /// only name a symbolic family.
    #[test]
    fn empty_registry_disables_graph_bounds() {
        let mut kernels = default_sweep_kernels_at(SweepSize::Small);
        kernels.truncate(1);
        kernels[0].s_offsets = coarse_s_offsets();
        let report = try_run_sweep_opts(
            kernels,
            &Budget::unlimited(),
            &CancelToken::unlimited(),
            &EngineRegistry::none(),
            CurveStrategy::default(),
        )
        .expect("sweep");
        assert!(!report.rows.is_empty());
        for r in &report.rows {
            assert_eq!(r.lb_graph(), None);
            assert!(matches!(
                r.lb_provenance,
                BoundProvenance::Classical | BoundProvenance::Hourglass
            ));
            assert!(r.sound());
        }
    }

    /// The dense default grid embeds the legacy coarse grid, so historical
    /// BENCH points remain comparable across the schema bump.
    #[test]
    fn dense_grid_is_a_superset_of_the_coarse_grid() {
        let dense = dense_s_offsets();
        assert!(dense.len() >= 30, "~32 points expected");
        assert!(dense.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        for off in coarse_s_offsets() {
            assert!(dense.contains(&off), "coarse offset {off} missing");
        }
    }

    /// Satellite pin: `meta.threads` is scoped to the sweep invocation.
    /// A wide parallel stage running earlier in the process inflates the
    /// process-global high-water but must not leak into the report — a
    /// one-kernel sweep prices one kernel per stage, so it can engage at
    /// most 2 workers, whatever ran before it.
    #[test]
    fn threads_are_scoped_to_the_sweep_invocation() {
        let _inflate: Vec<u64> = (0..64u64)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x * 2)
            .collect();
        let mut kernels = default_sweep_kernels_at(SweepSize::Small);
        kernels.truncate(1);
        kernels[0].s_offsets = coarse_s_offsets();
        let report = run_sweep(kernels);
        assert!(
            (1..=2).contains(&report.threads),
            "one-kernel sweep reported {} threads (process high-water {})",
            report.threads,
            rayon::max_workers_used()
        );
    }

    /// Two small kernels on the coarse grid, the sharded branch's fixture.
    fn two_small_kernels() -> Vec<SweepKernel> {
        let mut kernels = default_sweep_kernels_at(SweepSize::Small);
        kernels.truncate(2);
        for k in &mut kernels {
            k.s_offsets = coarse_s_offsets();
        }
        kernels
    }

    /// Production reaches the streaming branch of the size rule only above
    /// `CROSS_CHECK_CAP` events, far beyond any tier-1 trace; cap 0 sends
    /// every trace through it, and the rows must match the materialized
    /// branch's row for row.
    #[test]
    fn curve_strategies_agree_cell_for_cell() {
        let registry = EngineRegistry::all();
        let run = |cap| {
            sweep_at_cap(
                two_small_kernels(),
                &Budget::unlimited(),
                &CancelToken::unlimited(),
                &registry,
                cap,
            )
            .expect("sweep")
        };
        let streamed = run(0);
        let materialized = run(u64::MAX);
        assert_eq!(streamed.rows.len(), materialized.rows.len());
        for (a, b) in streamed.rows.iter().zip(&materialized.rows) {
            assert_eq!(
                (a.kernel.as_str(), a.s, a.policy, a.loads),
                (b.kernel.as_str(), b.s, b.policy, b.loads)
            );
        }
    }

    /// A deadline armed at either curve-pass seam surfaces as its typed
    /// error through the sweep's streaming branch (the materialized branch
    /// is covered by `tests/cancellation.rs`).
    #[test]
    fn streaming_branch_faults_are_typed() {
        for seam in [Seam::LruPass, Seam::OptPass] {
            let token = CancelToken::with_fault(Fault {
                kind: FaultKind::Deadline,
                seam,
            });
            let err = sweep_at_cap(
                two_small_kernels(),
                &Budget::unlimited(),
                &token,
                &EngineRegistry::all(),
                0,
            )
            .expect_err("a deadline at a curve-pass seam must abort the sweep");
            assert!(
                matches!(err, AnalysisError::Deadline { .. }),
                "{seam:?}: got {err}"
            );
        }
    }

    /// The scaling series lives in `meta` only: emitted when present,
    /// absent from the comparable sections, dropped whole under redaction.
    #[test]
    fn scaling_series_is_meta_only_and_redacted_away() {
        let mut kernels = default_sweep_kernels_at(SweepSize::Small);
        kernels.truncate(1);
        kernels[0].s_offsets = coarse_s_offsets();
        let mut report = run_sweep(kernels);
        report.scaling = vec![ScalingPoint {
            accesses: 1_000_188,
            policy: SpillPolicy::Lru,
            wall_ms: 12.5,
        }];
        let json = sweep_report_json(&report, false);
        assert!(json.contains(
            "\"scaling\": [{\"accesses\": 1000188, \"policy\": \"lru\", \"wall_ms\": 12.5000}]"
        ));
        let rows_section = json.split("\"rows\"").nth(1).expect("rows array");
        assert!(!rows_section.contains("scaling"));
        let redacted = sweep_report_json(&report, true);
        assert!(redacted.contains("\"meta\": {\"threads\": 0, \"total_wall_ms\": 0.0000}"));
        assert!(!redacted.contains("scaling"));
    }

    /// The env of a sweep kernel is derived from program parameters plus
    /// the applied split binding — the GEHD2-style data path.
    #[test]
    fn env_is_data_driven() {
        let mut kernels = default_sweep_kernels_at(SweepSize::Small);
        let gehd2 = kernels.iter_mut().find(|k| k.name == "GEHD2").unwrap();
        // GEHD2 needs §5.3 splitting: the derivation applied the midpoint.
        let binding =
            iolb_core::report::midpoint_split_binding(&gehd2.program, iolb_ir::DimId(0)).unwrap();
        let applied = gehd2.split.as_ref().expect("GEHD2 is split");
        assert_eq!((applied.var, &applied.expr), (binding.var, &binding.expr));
        // Midpoint of j ∈ [0, N−2) at N = 11: ⌊9/2⌋ = 4.
        assert_eq!(
            gehd2.env(),
            vec![(Var::new("N"), 11), (iolb_core::theorems::split_var(), 4)]
        );
        gehd2.split = None;
        assert_eq!(gehd2.env(), vec![(Var::new("N"), 11)]);
    }
}
