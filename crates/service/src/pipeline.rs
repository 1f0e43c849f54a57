//! The analysis pipeline as composable, individually-callable stages.
//!
//! This is the service core that used to be welded into the `iolb` CLI:
//! parse → canonicalize → admission → access certification → σ/hourglass
//! derivation → CDAG + miss-curve sweep → tightness measurement. When the
//! sweep runs, [`analyze_uncached`] builds the request's one CDAG right
//! after admission: that build certifies the accesses, and the hourglass
//! certification and the sweep both use it. The chain splits into a
//! grid-independent step (everything up to the priced curves, exact at
//! every S up to their horizon) and a grid step that reads it at the
//! request's S points. Every
//! stage is threaded through the `govern` seams ([`Budget`] ceilings and
//! a polled [`CancelToken`]), every front-end (CLI batch, `iolbd`
//! daemon) drives the same [`Pipeline::analyze_with_token`], and the
//! whole chain is deterministic — which is why [`Pipeline`] can sit
//! behind a content-hash [`ResultCache`](crate::cache) and serve repeat
//! requests as lookups, and a request that changes only its grid from
//! the grid-independent step.

use crate::cache::{CacheStats, ShardedCache};
use crate::options::AnalysisOptions;
use crate::store::{ReportStore, StoreKey};
use iolb_bench::sweep::{
    coarse_s_offsets, price_sweep, try_build_cdag, Cdag, CurveStrategy, PricedSweep, SweepKernel,
    SweepReport, SweepRow,
};
use iolb_bench::tightness::{try_run_tightness, KernelTightness, TightnessJob};
use iolb_core::classical::ClassicalBound;
use iolb_core::govern::{
    catch_analysis_mut, AnalysisError, Budget, CancelToken, CostEstimate, Degradation,
};
use iolb_core::hourglass::HourglassBound;
use iolb_core::report::{derive_stmt_bounds, SplitBinding};
use iolb_core::EngineRegistry;
use iolb_ir::parse::{parse_kernel, print_kernel, KernelFile};
use iolb_ir::Program;
use iolb_symbolic::Var;
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// stages
// ---------------------------------------------------------------------------

/// Parses kernel text.
///
/// # Errors
/// [`AnalysisError::Parse`] with the spanned diagnostic.
pub fn parse_stage(src: &str) -> Result<KernelFile, AnalysisError> {
    parse_kernel(src).map_err(|e| AnalysisError::Parse(e.to_string()))
}

/// Canonical text of a parsed kernel: the pretty-printer's output, which
/// the round-trip property test pins as a fixed point (print ∘ parse ∘
/// print = print). Formatting-only variants of the same kernel —
/// whitespace, comments — all canonicalize to the same bytes, so their
/// content hashes collide on purpose and they share one cache entry.
pub fn canonicalize_kernel(kernel: &KernelFile) -> String {
    print_kernel(kernel)
}

/// Parses and canonicalizes in one step, returning the canonical text
/// and its 128-bit content hash.
///
/// # Errors
/// [`AnalysisError::Parse`] when the source does not parse.
pub fn canonicalize(src: &str) -> Result<(String, u128), AnalysisError> {
    let kernel = parse_stage(src)?;
    let text = canonicalize_kernel(&kernel);
    let hash = crate::cache::fnv1a_128(text.as_bytes());
    Ok((text, hash))
}

/// Resolves concrete parameter values: override entries win over the
/// file's `default` directive, which must cover everything else.
/// Override entries naming no program parameter are an error, not a
/// silent no-op.
///
/// # Errors
/// [`AnalysisError::Refused`] — resubmitting with a larger budget will
/// not help.
pub fn resolve_params(
    kernel: &KernelFile,
    over: &[(String, i64)],
) -> Result<Vec<i64>, AnalysisError> {
    for (n, _) in over {
        if !kernel.program.params.contains(n) {
            return Err(AnalysisError::Refused(format!(
                "params override names unknown parameter {n} (kernel has: {})",
                kernel.program.params.join(", ")
            )));
        }
    }
    kernel
        .program
        .params
        .iter()
        .map(|p| {
            over.iter()
                .find(|(n, _)| n == p)
                .map(|(_, v)| *v)
                .or_else(|| {
                    kernel
                        .defaults
                        .iter()
                        .find(|(n, _)| n == p)
                        .map(|(_, v)| *v)
                })
                .ok_or_else(|| {
                    AnalysisError::Refused(format!(
                        "parameter {p} has no `default` directive (pass params {p}=…)"
                    ))
                })
        })
        .collect()
}

/// Admission control: estimates every size-like resource from the
/// symbolic loop bounds, refuses before materializing anything, and
/// picks the degradation rung the work budget affords (dense grid →
/// coarse grid → symbolic bounds only). Under `no_degrade`, any rung
/// below full is a budget refusal instead.
///
/// # Errors
/// The typed admission error (budget class, or whatever the estimator
/// itself surfaced).
pub fn admission_stage(
    program: &Program,
    params: &[i64],
    opts: &AnalysisOptions,
    token: &CancelToken,
) -> Result<(CostEstimate, Degradation), AnalysisError> {
    let estimate = iolb_ir::admission::estimate(program, params, &opts.budget, token)?;
    estimate.check(&opts.budget)?;
    let degradation = rung(&estimate, opts);
    if opts.no_degrade && degradation != Degradation::Full {
        return Err(AnalysisError::BudgetExceeded {
            resource: "work",
            needed: estimate
                .trace_len
                .saturating_mul(opts.s_offsets.len() as u64),
            limit: opts.budget.max_work,
        });
    }
    Ok((estimate, degradation))
}

/// The degradation rung a request takes: a pure function of the kernel's
/// cost estimate, the work budget and the grid's length, so a priced
/// entry's stored estimate gives a later grid its rung without admission.
fn rung(estimate: &CostEstimate, opts: &AnalysisOptions) -> Degradation {
    estimate.degradation(
        &opts.budget,
        opts.s_offsets.len() as u64,
        coarse_s_offsets().len() as u64,
    )
}

/// Access certification: one walk evaluates every declared access of
/// every instance through the checked evaluator, so everything downstream
/// reads only in-range cells. Returns the number of certified dynamic
/// statement instances.
///
/// [`analyze_uncached`] runs this walk only when no sweep follows
/// (`derive_only`, or the bounds-only rung). Otherwise its CDAG build
/// ([`try_build_cdag`]) certifies instead: it evaluates the same accesses
/// through the same checked evaluator in the same order (reads, then
/// writes), refuses the first out-of-range one with the same error, and
/// its compute-node count is the instance count.
///
/// # Errors
/// [`AnalysisError::Refused`] naming the first out-of-range access: its
/// statement, instance, access, axis, value and extent.
pub fn certify_stage(program: &Program, params: &[i64]) -> Result<u64, AnalysisError> {
    Ok(iolb_ir::check_accesses(program, params)?)
}

/// Everything the derivation stage produced: the bounds themselves (which
/// the sweep and tightness stages evaluate as they are — nothing downstream
/// derives again) plus display-ready summaries (for the front-ends'
/// renderers). `chains` were certified on the request's shared CDAG when
/// [`analyze_uncached`] built one, else on a graph the derivation built.
#[derive(Debug)]
pub struct Derived {
    /// The analyzed statement's name.
    pub stmt_name: String,
    /// Classical K-partition bound, when a covering projection set exists.
    pub classical: Option<ClassicalBound>,
    /// Hourglass bound, when the pattern is present and certifies.
    pub hourglass: Option<HourglassBound>,
    /// The §5.3 split binding that was actually applied.
    pub applied_split: Option<SplitBinding>,
    /// The file's own `split` directive (the override the derivation
    /// applied when §5.3 splitting was needed).
    pub dsl_split: Option<SplitBinding>,
    /// Hourglass chains certified (0 without a pattern).
    pub chains: usize,
}

/// σ-bound + hourglass derivation ([`derive_stmt_bounds`], the helper the
/// self-deriving sweep entries share), with the hourglass pattern
/// certified on top, on an exact CDAG at `params` that the derivation
/// builds for it (ungoverned). [`analyze_uncached`] derives on its shared
/// CDAG instead whenever it built one.
///
/// # Errors
/// [`AnalysisError::Refused`] on analysis failures, unknown statements,
/// or an hourglass pattern that fails certification.
pub fn derive_stage(
    kernel: &KernelFile,
    params: &[i64],
    stmt_override: Option<&str>,
) -> Result<Derived, AnalysisError> {
    derive_on(kernel, params, stmt_override, None)
}

/// [`derive_stage`], certifying the hourglass pattern on `cdag` (the exact
/// CDAG at `params`) when given one.
fn derive_on(
    kernel: &KernelFile,
    params: &[i64],
    stmt_override: Option<&str>,
    cdag: Option<&Cdag>,
) -> Result<Derived, AnalysisError> {
    let program = &kernel.program;
    let stmt_name = stmt_override
        .map(str::to_string)
        .or_else(|| kernel.analyze.clone())
        .unwrap_or_else(|| deepest_stmt(program));
    let stmt = program
        .stmt_id(&stmt_name)
        .ok_or_else(|| AnalysisError::Refused(format!("no statement named {stmt_name}")))?;

    let dsl_split = SplitBinding::from_directive(kernel);
    let bounds = derive_stmt_bounds(program, stmt, params, dsl_split.clone(), true, cdag)
        .map_err(AnalysisError::Refused)?;
    Ok(Derived {
        stmt_name,
        classical: bounds.classical,
        hourglass: bounds.hourglass,
        applied_split: bounds.split,
        dsl_split,
        chains: bounds.chains,
    })
}

/// MIN/LRU miss-curve validation of the bounds of statement `stmt` over
/// the S grid, for a caller without a [`Derived`] or a CDAG: re-parses
/// `canon_src`, derives the bounds ([`SweepKernel::derive`], `split`
/// overriding the midpoint binding), prices the kernel through
/// [`price_sweep`], building the CDAG itself, and reads it at the grid.
/// The request's graph-level engine selection is evaluated per grid point.
/// [`analyze_uncached`] does not use it — its sweep reuses the derivation
/// stage's bounds, the parsed program and the request's CDAG.
///
/// `strategy` picks the curve engines: the size rule (default; traces up
/// to `CROSS_CHECK_CAP` events on the materialized engine, longer ones
/// streamed through the sharded engine) or the materialized engine for
/// every trace.
///
/// # Errors
/// The derivation's refusal, or the first typed error any sweep stage
/// produced.
#[allow(clippy::too_many_arguments)]
pub fn sweep_stage(
    name: &str,
    canon_src: &str,
    stmt: &str,
    params: &[i64],
    split: Option<SplitBinding>,
    s_offsets: &[usize],
    budget: &Budget,
    token: &CancelToken,
    registry: &EngineRegistry,
    strategy: CurveStrategy,
) -> Result<SweepReport, AnalysisError> {
    let sweep = SweepKernel::derive(
        name,
        parse_stage(canon_src)?.program,
        stmt,
        params.to_vec(),
        split,
        s_offsets.to_vec(),
    )?;
    let priced = price_sweep(vec![sweep], budget, token, registry, strategy.cap())?;
    Ok(priced.report(&[s_offsets]))
}

/// Tightness: the best measured blocked upper bound per S (the file's
/// `schedule` directives swept by the auto-tuner) vs the derived bound,
/// measured on a clone of `kernel.program`. `_canon_src` is unused; the
/// parameter stays because the traced benchmark runner still passes it.
///
/// # Errors
/// The first typed error the tuner produced.
#[allow(clippy::too_many_arguments)]
pub fn tightness_stage(
    name: &str,
    _canon_src: &str,
    kernel: &KernelFile,
    params: &[i64],
    env: Vec<(Var, i128)>,
    derived: &Derived,
    s_offsets: &[usize],
    budget: &Budget,
    token: &CancelToken,
) -> Result<KernelTightness, AnalysisError> {
    let job = TightnessJob {
        name: name.to_string(),
        program: kernel.program.clone(),
        params: params.to_vec(),
        env,
        classical: derived.classical.clone(),
        hourglass: derived.hourglass.clone(),
        schedule: kernel.schedule.clone(),
        s_offsets: s_offsets.to_vec(),
    };
    let report = try_run_tightness(vec![job], budget, token)?;
    report
        .kernels
        .into_iter()
        .next()
        .ok_or_else(|| AnalysisError::Internal("tightness produced no kernel".to_string()))
}

/// Fallback analysis target: the deepest statement, ties → latest in
/// schedule order.
fn deepest_stmt(program: &Program) -> String {
    program
        .default_analyze_stmt()
        .map(|id| program.stmt(id).name.clone())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// outcome
// ---------------------------------------------------------------------------

/// Display-ready classical-bound summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassicalSummary {
    /// Brascamp–Lieb exponent σ.
    pub sigma: String,
    /// In-set refinement divisor m.
    pub m: String,
    /// The asymptotic bound expression.
    pub expr: String,
}

/// Display-ready hourglass-bound summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HourglassSummary {
    /// Certified chains at the observation size.
    pub chains: usize,
    /// Minimal hourglass width.
    pub w_min: String,
    /// Maximal hourglass width.
    pub w_max: String,
    /// Main bound (tool-convention volume).
    pub main_tool: String,
}

/// Display-ready §5.3 split summary (present only when a binding was
/// actually applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitSummary {
    /// Split variable name (the paper's `Ms`).
    pub var: String,
    /// The binding expression.
    pub expr: String,
}

/// What the work budget did to this request (present below
/// [`Degradation::Full`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeInfo {
    /// Work the requested grid would have needed (trace × grid points).
    pub work_needed: u64,
    /// The configured work ceiling.
    pub max_work: u64,
    /// Points of the coarse fallback grid.
    pub coarse_points: usize,
}

/// The finished, cacheable result of one analysis request: structured
/// data only — rendering (tables, human text, JSON framing) is the
/// front-ends' job.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// Kernel name (from the program header).
    pub name: String,
    /// Resolved named parameter values, in program order.
    pub params: Vec<(String, i64)>,
    /// Access-certified dynamic statement instances.
    pub certified_instances: u64,
    /// The analyzed statement.
    pub stmt: String,
    /// Classical σ-bound summary, when derivable.
    pub classical: Option<ClassicalSummary>,
    /// Applied §5.3 split, when any.
    pub split: Option<SplitSummary>,
    /// Hourglass summary, when the kernel has the pattern.
    pub hourglass: Option<HourglassSummary>,
    /// The degradation rung the work budget afforded.
    pub degradation: Degradation,
    /// Budget numbers behind a below-full rung.
    pub degrade: Option<DegradeInfo>,
    /// The validation matrix (`None` under `derive_only` or the
    /// bounds-only rung).
    pub sweep: Option<SweepReport>,
    /// Tightness measurement (absent under `no_tightness`, `derive_only`,
    /// or any degradation below full).
    pub tightness: Option<KernelTightness>,
    /// All validation cells sound (vacuously true when validation was
    /// skipped).
    pub sound: bool,
}

/// The grid-independent half of one request: everything
/// [`analyze_uncached`] computes before it reads the S grid's points. It
/// holds the display summaries, the certified count, the cost estimate and
/// the priced kernel (the CDAG's facts, the bounds bound to the kernel's
/// parameters, each selected engine's profile, and the LRU and OPT curves
/// up to their horizon), so [`Priced::outcome`] answers any grid whose rung
/// is the one it was priced at and whose S values the horizon covers.
#[derive(Debug)]
pub(crate) struct Priced {
    name: String,
    params: Vec<(String, i64)>,
    certified: u64,
    estimate: CostEstimate,
    stmt: String,
    classical: Option<ClassicalSummary>,
    split: Option<SplitSummary>,
    hourglass: Option<HourglassSummary>,
    /// `None` under `derive_only` or the bounds-only rung.
    sweep: Option<PricedSweep>,
}

impl Priced {
    /// Whether the priced curves reach every S of the grid `s_offsets`
    /// (vacuously true when nothing was swept).
    fn covers(&self, s_offsets: &[usize]) -> bool {
        self.sweep.as_ref().is_none_or(|p| p.covers(s_offsets))
    }

    /// The grid step: the outcome at `opts`' grid, without tightness. The
    /// sweep reads the priced kernel at the grid the rung calls for (the
    /// coarse grid on the coarse rung).
    ///
    /// # Panics
    /// Panics when that grid reaches past the horizon.
    fn outcome(&self, opts: &AnalysisOptions) -> AnalysisOutcome {
        let degradation = rung(&self.estimate, opts);
        let degrade = (degradation != Degradation::Full).then(|| DegradeInfo {
            work_needed: self
                .estimate
                .trace_len
                .saturating_mul(opts.s_offsets.len() as u64),
            max_work: opts.budget.max_work,
            coarse_points: coarse_s_offsets().len(),
        });
        let sweep = self.sweep.as_ref().map(|priced| {
            let mut report = priced.report(&[&swept_offsets(degradation, opts)]);
            for row in &mut report.degradation {
                row.level = degradation;
            }
            report
        });
        AnalysisOutcome {
            name: self.name.clone(),
            params: self.params.clone(),
            certified_instances: self.certified,
            stmt: self.stmt.clone(),
            classical: self.classical.clone(),
            split: self.split.clone(),
            hourglass: self.hourglass.clone(),
            degradation,
            degrade,
            sound: sweep
                .as_ref()
                .is_none_or(|r| r.rows.iter().all(SweepRow::sound)),
            sweep,
            tightness: None,
        }
    }
}

/// The grid a request sweeps on its rung: the coarse grid on the coarse
/// rung, else its own.
fn swept_offsets(degradation: Degradation, opts: &AnalysisOptions) -> Vec<usize> {
    match degradation {
        Degradation::Coarse => coarse_s_offsets(),
        _ => opts.s_offsets.clone(),
    }
}

/// A request's kernel parsed, its parameters resolved, and admitted.
struct Admitted {
    kernel: KernelFile,
    params: Vec<i64>,
    estimate: CostEstimate,
    degradation: Degradation,
}

/// Parses `src`, resolves the request's parameters and runs admission.
fn admit(
    src: &str,
    opts: &AnalysisOptions,
    token: &CancelToken,
) -> Result<Admitted, AnalysisError> {
    let kernel = parse_stage(src)?;
    let params = resolve_params(&kernel, &opts.params_override)?;
    let (estimate, degradation) = admission_stage(&kernel.program, &params, opts, token)?;
    Ok(Admitted {
        kernel,
        params,
        estimate,
        degradation,
    })
}

/// The grid-independent step on an admitted kernel: the request's one
/// CDAG (unless no sweep follows), certification, the derivation and the
/// priced sweep. Returns the derivation too, for the tuner.
///
/// When the sweep will run, the exact CDAG is built once, right after
/// admission, under the request's budget and token: the build certifies
/// the accesses (in place of [`certify_stage`]), the derivation certifies
/// the hourglass pattern on it, and the pricing drops it. Without a sweep,
/// [`certify_stage`] and [`derive_stage`] run as they are.
fn price(
    admitted: &Admitted,
    opts: &AnalysisOptions,
    token: &CancelToken,
) -> Result<(Priced, Derived), AnalysisError> {
    let Admitted {
        kernel,
        params,
        estimate,
        degradation,
    } = admitted;
    let (program, degradation) = (&kernel.program, *degradation);
    let cdag = if opts.derive_only || degradation == Degradation::BoundsOnly {
        None
    } else {
        Some(try_build_cdag(program, params, &opts.budget, token)?)
    };
    let certified = match &cdag {
        Some(cdag) => cdag.num_computes() as u64,
        None => certify_stage(program, params)?,
    };
    let derived = derive_on(kernel, params, opts.stmt_override.as_deref(), cdag.as_ref())?;
    let sweep = match cdag {
        None => None,
        Some(cdag) => {
            let registry = opts.registry().map_err(AnalysisError::Refused)?;
            let sweep = SweepKernel {
                name: program.name.clone(),
                program: program.clone(),
                params: params.clone(),
                classical: derived.classical.clone(),
                hourglass: derived.hourglass.clone(),
                split: derived.applied_split.clone(),
                s_offsets: swept_offsets(degradation, opts),
                cdag: Some(cdag),
            };
            let cap = opts.curve_strategy.cap();
            Some(price_sweep(
                vec![sweep],
                &opts.budget,
                token,
                &registry,
                cap,
            )?)
        }
    };
    let priced = Priced {
        name: program.name.clone(),
        params: program.params.iter().cloned().zip(params.clone()).collect(),
        certified,
        estimate: *estimate,
        stmt: derived.stmt_name.clone(),
        classical: derived.classical.as_ref().map(|b| ClassicalSummary {
            sigma: b.sigma.to_string(),
            m: b.m.to_string(),
            expr: b.expr.to_string(),
        }),
        split: derived.applied_split.as_ref().map(|b| SplitSummary {
            var: b.var.name().to_string(),
            expr: b.expr.to_string(),
        }),
        hourglass: derived.hourglass.as_ref().map(|b| HourglassSummary {
            chains: derived.chains,
            w_min: b.w_min.to_string(),
            w_max: b.w_max.to_string(),
            main_tool: b.main_tool.to_string(),
        }),
        sweep,
    };
    Ok((priced, derived))
}

/// Runs the full uncached chain on (canonical) kernel text: the
/// grid-independent step, the grid step (which reads the priced sweep at
/// the request's grid), then the tuner when tightness is on, the rung is
/// full and a sweep ran.
///
/// # Errors
/// Every failure is a typed [`AnalysisError`].
pub fn analyze_uncached(
    src: &str,
    opts: &AnalysisOptions,
    token: &CancelToken,
) -> Result<AnalysisOutcome, AnalysisError> {
    let admitted = admit(src, opts, token)?;
    let (priced, derived) = price(&admitted, opts, token)?;
    let mut outcome = priced.outcome(opts);
    if opts.no_tightness || outcome.degradation != Degradation::Full || outcome.sweep.is_none() {
        return Ok(outcome);
    }
    let mut env: Vec<(Var, i128)> = outcome
        .params
        .iter()
        .map(|(n, v)| (Var::new(n), *v as i128))
        .collect();
    if let Some(b) = &derived.applied_split {
        env.push((b.var, b.eval(&outcome.params)));
    }
    outcome.tightness = Some(tightness_stage(
        &outcome.name,
        src,
        &admitted.kernel,
        &admitted.params,
        env,
        &derived,
        &opts.s_offsets,
        &opts.budget,
        token,
    )?);
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// the cached pipeline
// ---------------------------------------------------------------------------

/// One entry of the parse layer: the canonical text and its hash, shared
/// by every formatting variant that parses to the same kernel.
#[derive(Debug)]
pub struct CanonEntry {
    /// The pretty-printed (canonical) kernel text.
    pub text: String,
    /// 128-bit FNV-1a of the canonical text.
    pub hash: u128,
}

/// Default bound on finished report entries, and on priced entries.
/// Reports are the heavy layer: an entry holds a full sweep + tightness
/// outcome and, once `serve` has asked for it, its rendered `serve/v1` body
/// (about 12 KB on the shipped kernels). A priced entry holds two miss
/// curves up to their horizon, the engine profiles and the bound floors
/// (about 5.5–5.8 KB on the shipped kernels at the dense grid's horizon).
/// The parse layer stores only canonical text and stays unbounded.
pub const DEFAULT_REPORT_CAPACITY: usize = 512;

/// One finished entry of the report layer: the outcome, and its
/// `serve/v1` body once [`Pipeline::serve`] has asked for it. The body is
/// rendered at most once per entry — on the miss `serve` computed, or on
/// the first `serve` of an entry [`Pipeline::analyze`] computed — and every
/// later hit hands out the same `Arc`. `analyze` never renders it.
struct ReportEntry {
    outcome: Arc<AnalysisOutcome>,
    body: OnceLock<Arc<String>>,
}

impl ReportEntry {
    /// The entry's `serve/v1` body, rendered on the first call. The body
    /// lives as long as the entry (and in the store's index), so the
    /// formatter's spare capacity is given back.
    fn body(&self) -> Arc<String> {
        Arc::clone(self.body.get_or_init(|| {
            let mut body = crate::render::outcome_body(&self.outcome);
            body.shrink_to_fit();
            Arc::new(body)
        }))
    }
}

/// The three-layer result cache (see the [`crate::cache`] docs for the
/// sharding, in-flight-dedup, and LRU-capacity story). A report-layer
/// entry keeps the outcome and, after the first `serve`, its rendered
/// body, so a memory hit hands out stored bytes and renders nothing. A
/// priced-layer entry keeps a request's grid-independent step
/// (`Priced`), so a report-layer miss that differs from an earlier
/// request only in its grid skips straight to the grid step.
pub struct ResultCache {
    parse: ShardedCache<u128, CanonEntry>,
    priced: ShardedCache<(u128, String), Priced>,
    report: ShardedCache<(u128, String), ReportEntry>,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::with_report_capacity(DEFAULT_REPORT_CAPACITY)
    }
}

impl ResultCache {
    /// A cache whose report and priced layers are each bounded to roughly
    /// `capacity` finished entries (0 = unbounded), evicting
    /// least-recently-used entries past that.
    pub fn with_report_capacity(capacity: usize) -> ResultCache {
        ResultCache {
            parse: ShardedCache::default(),
            priced: ShardedCache::with_capacity(capacity),
            report: ShardedCache::with_capacity(capacity),
        }
    }

    /// Counter snapshot of the three layers.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            parse: self.parse.stats(),
            priced: self.priced.stats(),
            report: self.report.stats(),
        }
    }

    /// Finished priced-layer entries currently cached.
    pub fn priced_entries(&self) -> usize {
        self.priced.len()
    }

    /// Finished report entries currently cached.
    pub fn report_entries(&self) -> usize {
        self.report.len()
    }

    /// The report layer's configured entry bound (0 = unbounded).
    pub fn report_capacity(&self) -> usize {
        self.report.capacity()
    }
}

/// An analysis answer plus where it came from.
#[derive(Debug, Clone)]
pub struct CachedAnalysis {
    /// The (possibly shared) finished report.
    pub outcome: Arc<AnalysisOutcome>,
    /// Whether the report layer answered without running the pipeline.
    pub cached: bool,
}

/// A served analysis answer: the rendered `serve/v1` body plus where the
/// bytes came from. Bodies are shared `Arc`s, never re-rendered on a hit: a
/// memory hit returns the report entry's own body and a store hit the
/// exact recovered bytes. With a store attached, a computed body is the
/// same allocation the store's index keeps.
#[derive(Debug, Clone)]
pub struct ServedAnalysis {
    /// The rendered response body.
    pub body: Arc<String>,
    /// Which layer answered.
    pub source: ServeSource,
}

/// Which layer produced a [`ServedAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// The report layer and the store missed, and the body was rendered
    /// from a fresh outcome: the whole uncached chain ran, or only its grid
    /// step on a priced-layer entry.
    Computed,
    /// The in-memory report cache answered.
    Memory,
    /// The persistent store answered (warm restart).
    Store,
}

impl ServedAnalysis {
    /// Whether the report layer or the store answered, so no body was
    /// rendered — the daemon's `X-Iolb-Cache` header. An answer the priced
    /// layer made possible is not cached in this sense: its outcome was
    /// assembled and rendered fresh.
    pub fn cached(&self) -> bool {
        self.source != ServeSource::Computed
    }
}

/// The analysis service core: the staged pipeline behind the three-layer
/// content-hash cache, with an optional persistent store as write-behind
/// fourth layer. Cheap to share (`&Pipeline` is `Sync`); one instance per
/// daemon / batch run.
#[derive(Default)]
pub struct Pipeline {
    cache: ResultCache,
    store: Option<ReportStore>,
}

impl Pipeline {
    /// A pipeline with an empty cache ([`DEFAULT_REPORT_CAPACITY`] report
    /// entries).
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// A pipeline whose report and priced layers are each bounded to
    /// roughly `capacity` entries (0 = unbounded).
    pub fn with_report_capacity(capacity: usize) -> Pipeline {
        Pipeline {
            cache: ResultCache::with_report_capacity(capacity),
            store: None,
        }
    }

    /// [`Pipeline::with_report_capacity`] plus a persistent report store:
    /// every freshly computed report is appended write-behind, and
    /// reports missing from memory are served byte-identical from the
    /// store (warm restarts).
    pub fn with_store(capacity: usize, store: ReportStore) -> Pipeline {
        Pipeline {
            cache: ResultCache::with_report_capacity(capacity),
            store: Some(store),
        }
    }

    /// Cache access (stats endpoints, tests).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The persistent store, when one is attached.
    pub fn store(&self) -> Option<&ReportStore> {
        self.store.as_ref()
    }

    /// Fsyncs the store journal (the daemon's drain path); a no-op
    /// without a store.
    ///
    /// # Errors
    /// `Internal` on fsync failure.
    pub fn flush_store(&self) -> Result<(), AnalysisError> {
        match &self.store {
            Some(s) => s.flush(&CancelToken::unlimited()),
            None => Ok(()),
        }
    }

    /// The token a request runs under: the injected fault when one is
    /// armed, else the budget's own deadline token.
    fn request_token(opts: &AnalysisOptions) -> CancelToken {
        match opts.inject {
            Some(fault) => CancelToken::with_fault(fault),
            None => opts.budget.token(),
        }
    }

    /// The one path from a request to its answer, shared by
    /// [`Pipeline::analyze_with_token`] and [`Pipeline::serve`]:
    /// fault-injection requests run uncached (their purpose is to exercise
    /// the pipeline); everything else goes raw hash → canonical entry →
    /// report entry, computing on a miss ([`Pipeline::compute`]). With a
    /// `store`, a key the report layer does not hold is looked up there
    /// first, by a non-counting peek, so a disk answer leaves the memory
    /// counters untouched (the store keeps its own hit counter).
    fn lookup(
        &self,
        src: &str,
        opts: &AnalysisOptions,
        token: &CancelToken,
        store: Option<&ReportStore>,
    ) -> Result<Lookup, AnalysisError> {
        if opts.inject.is_some() {
            let outcome = catch_analysis_mut(|| analyze_uncached(src, opts, token))?;
            return Ok(Lookup::Injected(Arc::new(outcome)));
        }
        let raw_hash = crate::cache::fnv1a_128(src.as_bytes());
        let canon = self.cache.parse.get_or_compute(raw_hash, || {
            let (text, hash) = canonicalize(src)?;
            Ok::<_, AnalysisError>(CanonEntry { text, hash })
        })?;
        let key = (canon.hash, opts.fingerprint());
        if let Some(store) = store {
            if self.cache.report.peek(&key).is_none() {
                if let Some(body) = store.get(key.0, &key.1) {
                    return Ok(Lookup::Stored(body));
                }
            }
        }
        let computed = Cell::new(false);
        let entry = self.cache.report.get_or_compute(key.clone(), || {
            computed.set(true);
            let outcome = catch_analysis_mut(|| self.compute(&canon, opts, token))?;
            Ok::<_, AnalysisError>(ReportEntry {
                outcome: Arc::new(outcome),
                body: OnceLock::new(),
            })
        })?;
        Ok(Lookup::Entry {
            key,
            entry,
            computed: computed.get(),
        })
    }

    /// A report-layer miss. A request that tunes nothing
    /// (`no_tightness`, not `derive_only`) goes through the priced layer,
    /// keyed by the canonical hash and the fingerprint without `grid=`,
    /// when its rung is full: the rung comes from the entry's stored
    /// estimate, or from admission when there is no entry (the pricing
    /// then starts from that admission, so the kernel is parsed and
    /// admitted once). An entry whose
    /// horizon the grid reaches past is priced again and replaced. A miss
    /// prices under the same in-flight dedup as the other layers, and only
    /// a full-rung, error-free pricing is admitted. Every other request
    /// runs the whole uncached chain. Either way the outcome is the one
    /// [`analyze_uncached`] returns, byte for byte.
    fn compute(
        &self,
        canon: &CanonEntry,
        opts: &AnalysisOptions,
        token: &CancelToken,
    ) -> Result<AnalysisOutcome, AnalysisError> {
        if !opts.no_tightness || opts.derive_only {
            return analyze_uncached(&canon.text, opts, token);
        }
        let key = (canon.hash, opts.grid_free_fingerprint());
        let admitted = match self.cache.priced.peek(&key) {
            Some(entry) if rung(&entry.estimate, opts) != Degradation::Full => {
                return analyze_uncached(&canon.text, opts, token);
            }
            Some(_) => None,
            None => {
                let admitted = admit(&canon.text, opts, token)?;
                if admitted.degradation != Degradation::Full {
                    return Ok(price(&admitted, opts, token)?.0.outcome(opts));
                }
                Some(admitted)
            }
        };
        let priced = self.cache.priced.get_fitting_or_compute(
            key,
            |entry| entry.covers(&opts.s_offsets),
            || {
                catch_analysis_mut(|| {
                    let admitted = match admitted {
                        Some(admitted) => admitted,
                        None => admit(&canon.text, opts, token)?,
                    };
                    Ok(price(&admitted, opts, token)?.0)
                })
            },
        )?;
        Ok(priced.outcome(opts))
    }

    /// [`Pipeline::analyze_with_token`] with a token built from the
    /// options: the injected fault when one is armed, else the budget's
    /// own deadline token.
    ///
    /// # Errors
    /// Every failure is a typed [`AnalysisError`].
    pub fn analyze(
        &self,
        src: &str,
        opts: &AnalysisOptions,
    ) -> Result<CachedAnalysis, AnalysisError> {
        self.analyze_with_token(src, opts, &Pipeline::request_token(opts))
    }

    /// Analyzes one kernel text under the given options and cancellation
    /// token, answering from the cache when the canonicalized text ×
    /// option fingerprint has been analyzed before. Fault-injection
    /// requests bypass the cache entirely (their purpose is to exercise
    /// the pipeline). Errors are never cached, and no `serve/v1` body is
    /// rendered.
    ///
    /// # Errors
    /// Every failure is a typed [`AnalysisError`]; panics inside the
    /// pipeline are contained and surface as `Internal`.
    pub fn analyze_with_token(
        &self,
        src: &str,
        opts: &AnalysisOptions,
        token: &CancelToken,
    ) -> Result<CachedAnalysis, AnalysisError> {
        let (outcome, cached) = match self.lookup(src, opts, token, None)? {
            Lookup::Injected(outcome) => (outcome, false),
            Lookup::Entry {
                entry, computed, ..
            } => (Arc::clone(&entry.outcome), !computed),
            Lookup::Stored(_) => unreachable!("a lookup without a store never answers from one"),
        };
        Ok(CachedAnalysis { outcome, cached })
    }

    /// [`Pipeline::analyze`] rendered to the canonical `serve/v1` body,
    /// with the persistent store as the third layer: a report missing
    /// from the in-memory cache but present on disk is served
    /// byte-identical without re-running the pipeline, and every freshly
    /// computed report is appended write-behind (append failures are
    /// counted in the store's stats but never fail the request — the
    /// answer is already in hand). The body is rendered once per report
    /// entry; a memory hit returns the stored `Arc`.
    ///
    /// # Errors
    /// Every failure is a typed [`AnalysisError`].
    pub fn serve(
        &self,
        src: &str,
        opts: &AnalysisOptions,
    ) -> Result<ServedAnalysis, AnalysisError> {
        let token = Pipeline::request_token(opts);
        let (key, entry, computed) = match self.lookup(src, opts, &token, self.store.as_ref())? {
            Lookup::Injected(outcome) => {
                return Ok(ServedAnalysis {
                    body: Arc::new(crate::render::outcome_body(&outcome)),
                    source: ServeSource::Computed,
                })
            }
            Lookup::Stored(body) => {
                return Ok(ServedAnalysis {
                    body,
                    source: ServeSource::Store,
                })
            }
            Lookup::Entry {
                key,
                entry,
                computed,
            } => (key, entry, computed),
        };
        let body = entry.body();
        if !computed {
            return Ok(ServedAnalysis {
                body,
                source: ServeSource::Memory,
            });
        }
        if let Some(store) = &self.store {
            let (canon_hash, options_fp) = key;
            let key = StoreKey {
                canon_hash,
                options_fp,
                engines_fp: opts.engines.clone(),
            };
            // Write-behind with an unlimited token: the request's own
            // deadline must not tear persistence, and errors are counted
            // by the store itself.
            let unlimited = CancelToken::unlimited();
            if store.append(&key, &body, &unlimited).is_ok() {
                let _ = store.maybe_compact(&unlimited);
            }
        }
        Ok(ServedAnalysis {
            body,
            source: ServeSource::Computed,
        })
    }
}

/// What [`Pipeline::lookup`] found for one request.
enum Lookup {
    /// A fault-injection request: the pipeline ran outside every layer.
    Injected(Arc<AnalysisOutcome>),
    /// The store held the body and the report layer held no entry.
    Stored(Arc<String>),
    /// The report layer's entry under `key`, and whether this request
    /// computed it.
    Entry {
        key: (u128, String),
        entry: Arc<ReportEntry>,
        computed: bool,
    },
}
