//! Upper-bound schedule engine: measured I/O of concrete blocked
//! executions vs the derived lower bounds.
//!
//! The paper's tightness claim is that the hourglass-raised bounds *match*
//! the data movement of known blocked/tiled implementations. This module
//! closes that loop empirically, per kernel and per fast-memory size `S`:
//!
//! 1. one reference pass over the *untiled* program records its
//!    element-granularity access trace and, per statement instance, the
//!    *version* (running write count) of every cell it touches (the
//!    internal `TraceRef`);
//! 2. every candidate schedule — program order plus tile-size assignments
//!    for the kernel's `schedule { tile … }` directives, swept by an
//!    auto-tuner — is emitted as a trace in **one pass** over the tiled
//!    enumeration into a reusable buffer, checking each access's version
//!    against the reference on the way: version equality per instance is
//!    exactly dependence preservation (RAW/WAR/WAW all surface as a
//!    mismatch), so illegal interchanges are rejected without ever
//!    building a CDAG permutation or playing a pebble game;
//! 3. a single OPT stack-distance pass on the in-memory trace
//!    ([`crate::sweep::price_curves`]: [`iolb_memsim::CurveEngine`] up to
//!    [`crate::sweep::CROSS_CHECK_CAP`] events, the sharded engine above)
//!    turns the candidate's trace into its exact Belady-MIN miss curve —
//!    the loads of the best possible demand replacement for that schedule
//!    at **every** swept `S` at once, bitwise what a `BeladySim` replay
//!    reports (replacing the old per-`(candidate, S)` MIN pebble replays);
//! 4. the best curve point per `S` is the measured upper bound Q(S), and
//!    the winning schedule's LRU curve is reported alongside as the
//!    demand-paging view. The version check of step 2 is the whole
//!    legality check: equal versions on every access is exactly
//!    dependence preservation, so no winner is re-executed.
//!
//! The outcome per `(kernel, S)` is a [`TightnessPoint`]: lower bound,
//! best measured upper bound, and their ratio — emitted as
//! `BENCH_tightness.json` (schema `tightness/v3`) and gated in CI against
//! regressions.
//!
//! Earlier versions scored candidates with MIN-policy pebble plays and
//! reported the trace simulators as a side column; because the old
//! `BeladySim` lacked the write-kill rule it was not exactly optimal, and
//! its loads could land *above* a legal play's (the committed v1 reports
//! had such inversions, e.g. gebd2 at S = 260). With the fixed simulator
//! the optimal trace curve is the strongest witness for a schedule, the
//! orderings are invariants (`upper ≤ program-order`, `upper ≤ LRU view`),
//! and both are checked here.

use crate::sweep::{
    governance_json, json_num, price_curves, DegradationRow, FailureRow, CROSS_CHECK_CAP,
};
use iolb_cdag::{try_build_cdag, SpillPolicy};
use iolb_core::report::TightnessPoint;
use iolb_core::{ClassicalBound, HourglassBound};
use iolb_govern::{catch_analysis_mut, AnalysisError, Budget, CancelToken, Degradation, Seam};
use iolb_ir::interp::OutOfRange;
use iolb_ir::parse::TileDirective;
use iolb_ir::schedule::{tile_program, TileSpec};
use iolb_ir::{for_each_instance, try_for_each_instance, DeclaredAccesses, Program, StmtId};
use iolb_memsim::MissCurve;
use iolb_symbolic::Var;
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// One kernel's tightness measurement inputs.
pub struct TightnessJob {
    /// Display name.
    pub name: String,
    /// The untiled program (instance identity and lower bounds live here).
    pub program: Program,
    /// Concrete parameter values.
    pub params: Vec<i64>,
    /// Symbolic evaluation environment for the bounds (parameters plus any
    /// split-variable binding).
    pub env: Vec<(Var, i128)>,
    /// Classical K-partition bound, when derivable.
    pub classical: Option<ClassicalBound>,
    /// Hourglass bound, when the kernel has the pattern.
    pub hourglass: Option<HourglassBound>,
    /// `schedule { tile … }` directives from the kernel file (empty means
    /// only program order is measured).
    pub schedule: Vec<TileDirective>,
    /// Offsets added to the minimum feasible S.
    pub s_offsets: Vec<usize>,
}

/// Tightness outcome of one kernel.
#[derive(Debug, Clone)]
pub struct KernelTightness {
    /// Kernel display name.
    pub kernel: String,
    /// Concrete parameter values.
    pub params: Vec<i64>,
    /// One point per swept S, ascending.
    pub points: Vec<TightnessPoint>,
}

/// Full tightness report across a kernel suite.
#[derive(Debug, Clone)]
pub struct TightnessReport {
    /// Per-kernel outcomes, sorted by kernel name.
    pub kernels: Vec<KernelTightness>,
    /// Degradation level each surviving kernel's grid ran at.
    pub degradation: Vec<DegradationRow>,
    /// Kernels that were attempted but produced no points (typed-error
    /// class + message). Empty outside governed batch runs.
    pub failures: Vec<FailureRow>,
    /// End-to-end wall time (milliseconds) — volatile, excluded from the
    /// comparable JSON sections.
    pub total_wall_ms: f64,
    /// Worker threads actually engaged — volatile, excluded likewise.
    pub threads: usize,
}

/// One candidate schedule of the auto-tuner.
struct Candidate {
    /// Human-readable description (`"program-order"`, `"tile i=8 j=8"`).
    desc: String,
    /// Tile specs; `None` is the untransformed program order.
    tiles: Option<Vec<TileSpec>>,
}

/// Runs the tightness measurement for every job concurrently.
///
/// Ungoverned compatibility wrapper over [`try_run_tightness`] —
/// unlimited budget, no cancellation, errors stringified.
///
/// # Errors
/// Propagates tiling failures, reference-pass failures (an out-of-range
/// declared access among them), and measurement-invariant violations.
pub fn run_tightness(jobs: Vec<TightnessJob>) -> Result<TightnessReport, String> {
    try_run_tightness(jobs, &Budget::unlimited(), &CancelToken::unlimited())
        .map_err(|e| e.to_string())
}

/// [`run_tightness`] under a resource budget and a cancellation token.
///
/// The auto-tuner polls the token between candidates ([`Seam::Tuner`]),
/// the reference pass is a governed enumeration charged against
/// `budget.max_instances`, CDAG materialization is admission-checked, and
/// every OPT/LRU curve pass polls the token mid-trace. The first typed
/// error aborts the whole run; per-kernel fault isolation is the CLI
/// batch layer's job.
///
/// # Errors
/// The first typed error any kernel produced.
pub fn try_run_tightness(
    jobs: Vec<TightnessJob>,
    budget: &Budget,
    token: &CancelToken,
) -> Result<TightnessReport, AnalysisError> {
    let t_total = Instant::now();
    // Scoped worker accounting — `meta.threads` describes this run only.
    let workers = rayon::worker_scope();
    // Panics are converted to typed errors *inside* the worker closure:
    // the thread-scope bridge underneath would otherwise replace the
    // payload with a generic "a scoped thread panicked".
    let mut kernels = jobs
        .into_par_iter()
        .map(|job| catch_analysis_mut(|| measure_kernel(job, budget, token)))
        .collect::<Vec<Result<KernelTightness, AnalysisError>>>()
        .into_iter()
        .collect::<Result<Vec<KernelTightness>, AnalysisError>>()?;
    kernels.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    let degradation = kernels
        .iter()
        .map(|k| DegradationRow {
            kernel: k.kernel.clone(),
            level: Degradation::Full,
        })
        .collect();
    Ok(TightnessReport {
        kernels,
        degradation,
        failures: Vec::new(),
        total_wall_ms: t_total.elapsed().as_secs_f64() * 1e3,
        threads: workers.max_workers_used(),
    })
}

/// The auto-tuner's tile-size candidates for one unsized directive: powers
/// of two (plus 1, the pure-interchange driver), capped near the largest
/// concrete parameter so degenerate single-tile candidates are skipped.
fn size_candidates(params: &[i64], n_unsized: usize) -> Vec<i64> {
    let cap = params.iter().copied().max().unwrap_or(1);
    let base: &[i64] = if n_unsized >= 3 {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    base.iter().copied().filter(|&c| c <= cap).collect()
}

/// Expands the schedule directives into the candidate list (program order
/// first, then the cartesian product of per-loop size choices).
fn candidates(schedule: &[TileDirective], params: &[i64]) -> Vec<Candidate> {
    let mut out = vec![Candidate {
        desc: "program-order".to_string(),
        tiles: None,
    }];
    if schedule.is_empty() {
        return out;
    }
    let n_unsized = schedule.iter().filter(|d| d.size.is_none()).count();
    let auto = size_candidates(params, n_unsized);
    let per_loop: Vec<(&str, Vec<i64>)> = schedule
        .iter()
        .map(|d| {
            let sizes = match d.size {
                Some(s) => vec![s],
                None => auto.clone(),
            };
            (d.loop_name.as_str(), sizes)
        })
        .collect();
    let mut chosen: Vec<i64> = Vec::with_capacity(per_loop.len());
    expand(&per_loop, &mut chosen, &mut out);
    out
}

fn expand(per_loop: &[(&str, Vec<i64>)], chosen: &mut Vec<i64>, out: &mut Vec<Candidate>) {
    if chosen.len() == per_loop.len() {
        let desc = per_loop
            .iter()
            .zip(chosen.iter())
            .map(|((n, _), s)| format!("{n}={s}"))
            .collect::<Vec<_>>()
            .join(" ");
        let tiles = per_loop
            .iter()
            .zip(chosen.iter())
            .map(|((n, _), &s)| TileSpec::new(n, s))
            .collect();
        out.push(Candidate {
            desc: format!("tile {desc}"),
            tiles: Some(tiles),
        });
        return;
    }
    let sizes = per_loop[chosen.len()].1.clone();
    for s in sizes {
        chosen.push(s);
        expand(per_loop, chosen, out);
        chosen.pop();
    }
}

// ---------------------------------------------------------------------------
// Reference pass + candidate trace emission
// ---------------------------------------------------------------------------

/// Instance keys are `(stmt, iv)` packed into one u128 (8-bit statement id
/// plus up to eight 15-bit dimension values), hashed with a splitmix-style
/// finisher — the per-instance map lookup is the hottest part of a
/// candidate pass, and `SipHash` over a heap-allocated `Vec<i32>` key was
/// the old auto-tuner's dominant allocation source.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("packed u128 keys only");
    }

    fn write_u128(&mut self, key: u128) {
        let mut x = (key as u64) ^ (key >> 64) as u64 ^ 0x9E37_79B9_7F4A_7C15;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const KEY_DIM_BITS: u32 = 15;
const KEY_MAX_DIMS: usize = 8;

/// Packs a statement instance into its map key; `None` when the instance
/// falls outside the packable domain (more than eight loop dims, or an
/// index value outside `0..32768` — far beyond anything the exact CDAG
/// pipeline could enumerate anyway).
#[inline]
fn pack_key(stmt: u32, dims: &[i64], sel: &[iolb_ir::DimId]) -> Option<u128> {
    if stmt >= 256 || sel.len() > KEY_MAX_DIMS {
        return None;
    }
    let mut key = stmt as u128;
    let mut shift = 8u32;
    for d in sel {
        let v = dims[d.0 as usize];
        if !(0..1 << KEY_DIM_BITS).contains(&v) {
            return None;
        }
        key |= (v as u128) << shift;
        shift += KEY_DIM_BITS;
    }
    Some(key)
}

/// Reference data of one kernel's untiled enumeration: the declared
/// accesses it evaluates, the packed program-order trace, and per-instance
/// expected cell versions.
///
/// A candidate enumeration is dependence-legal exactly when every instance
/// touches every cell at the *same version* (write count) as in program
/// order: matching write versions pin the per-cell write order (WAW),
/// matching read versions pin each read into its original inter-write
/// window (RAW + WAR) — and reads within one window commute freely, which
/// is precisely the legal reorder space.
struct TraceRef<'p> {
    /// The untiled program's declared accesses. Tiling keeps every
    /// statement, its dims and their ids, so they evaluate the candidates'
    /// instances too.
    accesses: DeclaredAccesses<'p>,
    /// Packed untiled program-order trace.
    trace: Vec<u64>,
    /// Instance rank → first slot of its expected versions (reads in
    /// declared order, then writes).
    ver_off: Vec<u32>,
    /// Expected versions, CSR under `ver_off`.
    ver: Vec<u32>,
    /// Packed instance key → rank (built only when candidates exist).
    rank_of: HashMap<u128, u32, BuildHasherDefault<KeyHasher>>,
    /// Total instances.
    n_instances: usize,
}

impl<'p> TraceRef<'p> {
    /// One pass over the untiled enumeration — governed: the instance walk
    /// polls `token` and is charged against `budget.max_instances`.
    ///
    /// # Errors
    /// Refuses instances outside the packable key domain (only when
    /// `with_ranks` — kernels without schedule directives never need the
    /// instance map) and out-of-range declared accesses, and propagates
    /// budget/cancellation errors from the governed walk.
    fn build(
        program: &'p Program,
        params: &[i64],
        with_ranks: bool,
        budget: &Budget,
        token: &CancelToken,
    ) -> Result<TraceRef<'p>, AnalysisError> {
        let mut r = TraceRef {
            accesses: DeclaredAccesses::bind(program, params),
            trace: Vec::new(),
            ver_off: vec![0],
            ver: Vec::new(),
            rank_of: HashMap::default(),
            n_instances: 0,
        };
        let mut wc = vec![0u32; r.accesses.num_cells()];
        let mut unpackable = None;
        try_for_each_instance(
            program,
            params,
            token,
            Seam::Instances,
            budget.max_instances,
            |stmt_id, dims| {
                let stmt = program.stmt(stmt_id);
                if with_ranks {
                    match pack_key(stmt_id.0, dims, &stmt.dims) {
                        Some(key) => {
                            r.rank_of.insert(key, r.n_instances as u32);
                        }
                        None => unpackable = Some(stmt.name.clone()),
                    }
                }
                let first = r.trace.len();
                push_instance_trace(program, &r.accesses, stmt_id, dims, &mut r.trace)?;
                // The version CSR only exists to legality-check candidate
                // enumerations; schedule-free kernels skip it entirely.
                if with_ranks {
                    for &event in &r.trace[first..] {
                        let cell = (event >> 1) as usize;
                        r.ver.push(wc[cell]);
                        wc[cell] += (event & 1) as u32;
                    }
                    r.ver_off.push(r.ver.len() as u32);
                }
                r.n_instances += 1;
                Ok(())
            },
        )?;
        match unpackable {
            Some(stmt) => Err(AnalysisError::Refused(format!(
                "statement {stmt} has instances outside the schedulable key \
                 domain (> {KEY_MAX_DIMS} loop dims or an index ≥ {})",
                1 << KEY_DIM_BITS
            ))),
            None => Ok(r),
        }
    }

    /// Emits a candidate enumeration's trace into `out` while checking
    /// dependence legality against the reference versions. Returns whether
    /// the candidate is legal; an illegal candidate aborts emission early.
    ///
    /// # Errors
    /// `Internal` when a ranked instance evaluates an access out of range:
    /// it is one of the reference's instances, whose accesses all
    /// evaluated in range, so this means tiling changed a statement.
    fn emit_candidate(
        &self,
        program: &Program,
        params: &[i64],
        out: &mut Vec<u64>,
        wc: &mut [u32],
    ) -> Result<bool, AnalysisError> {
        out.clear();
        wc.fill(0);
        let mut count = 0usize;
        // `Ok(false)` once an instance is illegal; emission stops there.
        let mut emit = |stmt_id: StmtId, dims: &[i64]| -> Result<bool, OutOfRange> {
            let stmt = program.stmt(stmt_id);
            let rank = pack_key(stmt_id.0, dims, &stmt.dims)
                .and_then(|key| self.rank_of.get(&key).copied());
            let Some(rank) = rank else {
                return Ok(false);
            };
            let first = out.len();
            push_instance_trace(program, &self.accesses, stmt_id, dims, out)?;
            let expected = &self.ver[self.ver_off[rank as usize] as usize..];
            for (&event, &version) in out[first..].iter().zip(expected) {
                let cell = (event >> 1) as usize;
                if version != wc[cell] {
                    return Ok(false);
                }
                wc[cell] += (event & 1) as u32;
            }
            count += 1;
            Ok(true)
        };
        let mut state = Ok(true);
        for_each_instance(program, params, |stmt_id, dims| {
            if state == Ok(true) {
                state = emit(stmt_id, dims);
            }
        });
        let legal = state.map_err(|e| {
            AnalysisError::Internal(format!("tiled candidate of {}: {e}", program.name))
        })?;
        Ok(legal && count == self.n_instances)
    }
}

/// Appends one instance's declared accesses to `out` in the packed trace
/// encoding (`cell << 1`, low bit set for a write): reads in declared
/// order, then writes. The tuner's reference and candidate traces and the
/// Appendix A sweep ([`crate::sweep_tiled`]) are all emitted through it.
///
/// # Errors
/// The first out-of-range access.
pub fn push_instance_trace(
    program: &Program,
    accesses: &DeclaredAccesses,
    stmt: StmtId,
    dims: &[i64],
    out: &mut Vec<u64>,
) -> Result<(), OutOfRange> {
    let s = program.stmt(stmt);
    for i in 0..s.reads.len() {
        out.push((accesses.read(stmt, i, dims)? as u64) << 1);
    }
    for i in 0..s.writes.len() {
        out.push(((accesses.write(stmt, i, dims)? as u64) << 1) | 1);
    }
    Ok(())
}

fn measure_kernel(
    job: TightnessJob,
    budget: &Budget,
    token: &CancelToken,
) -> Result<KernelTightness, AnalysisError> {
    let cdag = try_build_cdag(&job.program, &job.params, budget, token)?;
    let min_s = cdag.max_in_degree() + 1;
    let s_values: Vec<usize> = job.s_offsets.iter().map(|&off| min_s + off).collect();
    let s_max = s_values.iter().copied().max().unwrap_or(1);

    let cands = candidates(&job.schedule, &job.params);
    let tref = TraceRef::build(&job.program, &job.params, cands.len() > 1, budget, token).map_err(
        |e| match e {
            AnalysisError::Refused(msg) => AnalysisError::Refused(format!("{}: {msg}", job.name)),
            other => other,
        },
    )?;

    // Score every candidate once: emit (+ legality-check) its trace into
    // the shared buffer, then read every S point off one OPT curve.
    // Program order (index 0) is the reference itself, so every cell ends
    // up populated. Candidate traces are necessarily materialized (the
    // version legality check writes them), so the size rule prices them in
    // place.
    let mut trace_buf: Vec<u64> = Vec::with_capacity(tref.trace.len());
    let mut wc = vec![0u32; tref.accesses.num_cells()];
    let mut best: Vec<Option<(u64, usize)>> = vec![None; s_values.len()];
    let mut program_order_loads: Vec<u64> = vec![0; s_values.len()];
    let mut tiled_programs: HashMap<usize, Program> = HashMap::new();
    for (ci, cand) in cands.iter().enumerate() {
        // The auto-tuner seam: one poll per candidate bounds how much work
        // a deadline or an external cancel can leave in flight, and is
        // where the fault-injection harness targets `*@tuner` faults.
        token.check(Seam::Tuner)?;
        let trace: &[u64] = match &cand.tiles {
            None => &tref.trace,
            Some(tiles) => {
                let tiled = tile_program(&job.program, tiles)
                    .map_err(|e| AnalysisError::Refused(format!("{}: {e}", job.name)))?;
                let legal = tref.emit_candidate(&tiled, &job.params, &mut trace_buf, &mut wc)?;
                tiled_programs.insert(ci, tiled);
                if !legal {
                    continue; // illegal interchange: disqualified, not an error
                }
                &trace_buf
            }
        };
        let [curve] = price_curves(
            trace,
            [SpillPolicy::MinNextUse],
            s_max,
            CROSS_CHECK_CAP,
            token,
        )?;
        for (si, &s) in s_values.iter().enumerate() {
            let loads = curve.loads(s);
            if ci == 0 {
                program_order_loads[si] = loads;
            }
            if best[si].is_none_or(|(l, _)| loads < l) {
                best[si] = Some((loads, ci));
            }
        }
    }

    // Take each winner's LRU curve (the demand-paging view of the same
    // trace).
    let winning: Vec<usize> = {
        let mut w: Vec<usize> = best.iter().flatten().map(|&(_, ci)| ci).collect();
        w.sort_unstable();
        w.dedup();
        w
    };
    let mut lru_curves: HashMap<usize, MissCurve> = HashMap::new();
    for &ci in &winning {
        let trace: &[u64] = match tiled_programs.get(&ci) {
            None => &tref.trace,
            Some(tiled) => {
                let legal = tref.emit_candidate(tiled, &job.params, &mut trace_buf, &mut wc)?;
                debug_assert!(legal, "winner was scored, so it must re-emit");
                &trace_buf
            }
        };
        let [lru] = price_curves(trace, [SpillPolicy::Lru], s_max, CROSS_CHECK_CAP, token)?;
        lru_curves.insert(ci, lru);
    }

    let mut points = Vec::with_capacity(s_values.len());
    for (si, &s) in s_values.iter().enumerate() {
        let (upper_loads, ci) = best[si].ok_or_else(|| {
            AnalysisError::Internal(format!(
                "{}: no legal schedule at S={s} (program order must always score)",
                job.name
            ))
        })?;
        let trace_lru_loads = lru_curves[&ci].loads(s);
        // Invariants of the measurement itself (an inversion here is an
        // engine bug, not a tightness result): the optimal curve of the
        // winning trace can be beaten neither by the LRU view of the same
        // trace nor by the tuner's own baseline.
        if trace_lru_loads < upper_loads {
            return Err(AnalysisError::Internal(format!(
                "{}: S={s}: LRU view {trace_lru_loads} beat the optimal curve {upper_loads}",
                job.name
            )));
        }
        if upper_loads > program_order_loads[si] {
            return Err(AnalysisError::Internal(format!(
                "{}: S={s}: winner {upper_loads} loads above the program-order baseline {} \
                 (the tuner must never lose to its own baseline)",
                job.name, program_order_loads[si]
            )));
        }
        points.push(TightnessPoint {
            s,
            lb_classical: job
                .classical
                .as_ref()
                .map(|b| b.eval_floor(&job.env, s as i128))
                .unwrap_or(0.0),
            lb_hourglass: job
                .hourglass
                .as_ref()
                .map(|b| b.eval_floor(&job.env, s as i128))
                .unwrap_or(0.0),
            lb_inputs: cdag.num_inputs() as f64,
            upper_loads,
            upper_schedule: cands[ci].desc.clone(),
            program_order_loads: program_order_loads[si],
            trace_lru_loads,
        });
    }
    Ok(KernelTightness {
        kernel: job.name,
        params: job.params,
        points,
    })
}

/// Renders the tightness report as an aligned table.
pub fn render_tightness_table(report: &TightnessReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>12} {:>6} {:>12} {:>12} {:>12} {:>7} {:>8}  {:<22}\n",
        "kernel", "size", "S", "LB", "upper", "prog-order", "ratio", "hg-rat", "best schedule"
    ));
    for k in &report.kernels {
        for t in &k.points {
            out.push_str(&format!(
                "{:<14} {:>12} {:>6} {:>12.0} {:>12} {:>12} {:>7.2} {:>8}  {:<22}\n",
                k.kernel,
                format!("{:?}", k.params),
                t.s,
                t.lower_bound(),
                t.upper_loads,
                t.program_order_loads,
                t.ratio(),
                t.hourglass_ratio()
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                t.upper_schedule,
            ));
        }
    }
    out.push_str(&format!(
        "{} kernels on {} threads in {:.1} ms\n",
        report.kernels.len(),
        report.threads,
        report.total_wall_ms
    ));
    out
}

/// Serializes the tightness report as deterministic JSON: kernels sorted
/// by name, points by S, fixed key order, volatile data (threads, wall
/// times) confined to the `meta` object. `redact_volatile` zeroes `meta`
/// for byte-stable golden snapshots.
pub fn tightness_report_json(report: &TightnessReport, redact_volatile: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"hourglass-iolb/tightness/v3\",\n");
    let (threads, wall) = if redact_volatile {
        (0, 0.0)
    } else {
        (report.threads, report.total_wall_ms)
    };
    out.push_str(&format!(
        "  \"meta\": {{\"threads\": {threads}, \"total_wall_ms\": {}}},\n",
        json_num(wall)
    ));
    out.push_str(&governance_json(&report.degradation, &report.failures));
    out.push_str("  \"kernels\": [\n");
    for (i, k) in report.kernels.iter().enumerate() {
        let params: Vec<String> = k.params.iter().map(|p| p.to_string()).collect();
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"params\": [{}], \"points\": [\n",
            k.kernel,
            params.join(", ")
        ));
        for (j, t) in k.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"s\": {}, \"lb_classical\": {}, \"lb_hourglass\": {}, \"lb_inputs\": {}, \"lower_bound\": {}, \"upper_loads\": {}, \"upper_schedule\": \"{}\", \"program_order_loads\": {}, \"trace_lru_loads\": {}, \"ratio\": {}, \"hourglass_ratio\": {}}}{}\n",
                t.s,
                json_num(t.lb_classical),
                json_num(t.lb_hourglass),
                json_num(t.lb_inputs),
                json_num(t.lower_bound()),
                t.upper_loads,
                t.upper_schedule,
                t.program_order_loads,
                t.trace_lru_loads,
                json_num(t.ratio()),
                t.hourglass_ratio()
                    .map(json_num)
                    .unwrap_or_else(|| "null".to_string()),
                if j + 1 == k.points.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == report.kernels.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::Analysis;

    fn job_from_src(src: &str, params: Vec<i64>, stmt: &str) -> TightnessJob {
        let kernel = iolb_ir::parse_kernel(src).expect("parse");
        let observe = iolb_core::report::observation_sizes(&params);
        let analysis = Analysis::run(&kernel.program, &observe).expect("analysis");
        let sid = kernel.program.stmt_id(stmt).expect("stmt");
        let classical = analysis.try_classical_bound(sid);
        let hourglass = analysis.detect_hourglass(sid).map(|pat| {
            iolb_core::report::derive_with_split(&kernel.program, &pat, None)
                .expect("derive")
                .0
        });
        let env: Vec<(Var, i128)> = kernel
            .program
            .params
            .iter()
            .zip(params.iter())
            .map(|(n, &v)| (Var::new(n), v as i128))
            .collect();
        TightnessJob {
            name: kernel.program.name.clone(),
            program: kernel.program,
            params,
            env,
            classical,
            hourglass,
            schedule: kernel.schedule,
            s_offsets: vec![0, 8, 64],
        }
    }

    const GEMM_TILED: &str = "
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

    #[test]
    fn tuner_beats_or_matches_program_order_and_stays_sound() {
        let job = job_from_src(GEMM_TILED, vec![12, 12, 12], "SU");
        let report = run_tightness(vec![job]).expect("tightness");
        assert_eq!(report.kernels.len(), 1);
        let k = &report.kernels[0];
        assert_eq!(k.points.len(), 3);
        for t in &k.points {
            // Upper bound is a real execution's I/O: it must sit at or
            // above every derived lower bound (soundness), and the tuner
            // never loses to its own baseline nor to the LRU view of the
            // winning trace.
            assert!(t.upper_loads as f64 + 1e-9 >= t.lb_classical, "S={}", t.s);
            assert!(t.upper_loads as f64 + 1e-9 >= t.lb_hourglass, "S={}", t.s);
            assert!(t.upper_loads <= t.program_order_loads, "S={}", t.s);
            assert!(t.trace_lru_loads >= t.upper_loads, "S={}", t.s);
            assert!(
                t.ratio().is_finite() && t.ratio() >= 1.0 - 1e-9,
                "S={}",
                t.s
            );
        }
        // At a generous S the tuner must find a genuinely better blocked
        // schedule than straight program order.
        let last = k.points.last().unwrap();
        assert!(
            last.upper_schedule.starts_with("tile"),
            "expected a tiled winner at S={}, got {}",
            last.s,
            last.upper_schedule
        );
        assert!(last.upper_loads < last.program_order_loads);
    }

    #[test]
    fn kernels_without_schedule_report_program_order() {
        let src = "
kernel plain(N) {
  array A[N];
  scalar acc;
  analyze S;
  for i in 0..N {
    S: acc = op(acc, A[i]);
  }
}
";
        let job = job_from_src(src, vec![32], "S");
        let report = run_tightness(vec![job]).expect("tightness");
        let k = &report.kernels[0];
        for t in &k.points {
            assert_eq!(t.upper_schedule, "program-order");
            assert_eq!(t.upper_loads, t.program_order_loads);
            // The input floor keeps the ratio finite even without bounds.
            assert!(t.lower_bound() >= 32.0);
            assert!(t.ratio().is_finite());
        }
        let json = tightness_report_json(&report, true);
        assert!(json.contains("\"schema\": \"hourglass-iolb/tightness/v3\""));
        assert!(json.contains("\"degradation\": ["));
        assert!(json.contains("\"failures\": ["));
        assert!(json.contains("\"level\": \"full\""));
        assert!(json.contains("\"threads\": 0"), "volatile meta redacted");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// A loop-carried dependence across the temporal loop: hoisting the
    /// spatial tile outward (which the auto-tuner will try) reorders
    /// instances illegally. The version check must disqualify every such
    /// candidate — silently, cheaply, and *before* it can win on loads
    /// (the illegal hoist would look great: each cell stays resident).
    #[test]
    fn illegal_interchange_candidates_are_disqualified() {
        let src = "
kernel carried(T, N) {
  array A[N];
  analyze S;
  schedule { tile i; }
  for t in 0..T {
    for i in 1..N {
      S: A[i] = op(A[i], A[i - 1]);
    }
  }
}
";
        let job = job_from_src(src, vec![6, 24], "S");
        let report = run_tightness(vec![job]).expect("tightness");
        let k = &report.kernels[0];
        assert!(!k.points.is_empty());
        for t in &k.points {
            assert_eq!(
                t.upper_schedule, "program-order",
                "S={}: an illegal hoist must never win",
                t.s
            );
            assert_eq!(t.upper_loads, t.program_order_loads);
        }
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let jobs = vec![
            job_from_src(GEMM_TILED, vec![8, 8, 8], "SU"),
            job_from_src(
                "kernel aaa(N) { array A[N]; analyze S; for i in 0..N { S: A[i] = op(A[i]); } }",
                vec![16],
                "S",
            ),
        ];
        let report = run_tightness(jobs).expect("tightness");
        assert_eq!(report.kernels[0].kernel, "aaa", "sorted by name");
        let a = tightness_report_json(&report, true);
        let jobs = vec![
            job_from_src(GEMM_TILED, vec![8, 8, 8], "SU"),
            job_from_src(
                "kernel aaa(N) { array A[N]; analyze S; for i in 0..N { S: A[i] = op(A[i]); } }",
                vec![16],
                "S",
            ),
        ];
        let b = tightness_report_json(&run_tightness(jobs).expect("tightness"), true);
        assert_eq!(a, b, "same inputs produce byte-identical redacted JSON");
    }
}
