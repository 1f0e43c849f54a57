//! Upper-bound schedule engine: measured I/O of concrete blocked
//! executions vs the derived lower bounds.
//!
//! The paper's tightness claim is that the hourglass-raised bounds *match*
//! the data movement of known blocked/tiled implementations. This module
//! closes that loop empirically, per kernel and per fast-memory size `S`:
//!
//! 1. one reference pass over the *untiled* program — the only place a
//!    declared access is evaluated — records its element-granularity
//!    access trace, per statement instance the *version* (running write
//!    count) of every cell it touches, a dense instance-rank index (per
//!    statement, a tree with one level per loop dim whose nodes hold the
//!    arithmetic progression of values that dim takes under fixed outer
//!    values), and the CDAG's input count and maximum in-degree through
//!    [`iolb_cdag::Wiring`], so no CDAG is built here (the internal
//!    `TraceRef`);
//! 2. every candidate schedule — program order plus tile-size assignments
//!    for the kernel's `schedule { tile … }` directives, swept by an
//!    auto-tuner — is emitted as a trace in **one pass** over the tiled
//!    enumeration into a reusable buffer: tiling keeps every statement,
//!    so each instance's events are copied from the reference instance
//!    the rank index names, and each access's version is checked
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

use crate::json::Layout::{Inline, Lines};
use crate::json::{members, Writer};
use crate::sweep::{
    price_curves, write_governance, write_head, DegradationRow, FailureRow, CROSS_CHECK_CAP,
};
use iolb_cdag::{SpillPolicy, Wiring};
use iolb_core::report::TightnessPoint;
use iolb_core::{ClassicalBound, HourglassBound};
use iolb_govern::{catch_analysis_mut, AnalysisError, Budget, CancelToken, Degradation, Seam};
use iolb_ir::interp::OutOfRange;
use iolb_ir::parse::TileDirective;
use iolb_ir::schedule::{tile_program, TileSpec};
use iolb_ir::{
    for_each_instance, try_for_each_instance, DeclaredAccesses, DimId, Program, Statement, StmtId,
};
use iolb_memsim::MissCurve;
use iolb_symbolic::Var;
use rayon::prelude::*;
use std::collections::HashMap;
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
#[derive(Debug, Clone, Default)]
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

/// Runs the tightness measurement for every job concurrently, under a
/// resource budget and a cancellation token.
///
/// The auto-tuner polls the token between candidates ([`Seam::Tuner`]),
/// the reference pass is a governed enumeration charged against
/// `budget.max_instances`, its cell tables and rank index are charged against
/// `budget.max_arena_bytes`, and every OPT/LRU curve pass polls the token
/// mid-trace. The first typed error aborts the whole run; per-kernel fault
/// isolation is the CLI batch layer's job.
///
/// # Errors
/// The first typed error any kernel produced: tiling failures,
/// reference-pass failures (an out-of-range declared access among them),
/// measurement-invariant violations, budget refusals and cancellation.
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

/// Marks a rank slot no reference instance occupies.
const NIL: u32 = u32::MAX;

/// The rank index may hold at most this many slots (nodes plus ranks) per
/// reference instance, plus [`RANK_INDEX_SLACK`]. A loop's values under
/// fixed outer values are an arithmetic progression, so the index of a
/// loop nest has no holes and needs at most one node per dim and one rank
/// per instance; only a statement whose inner loops are empty for most of
/// an outer loop's values leaves holes, and one that leaves more than this
/// is refused rather than allowed memory its instance count does not bound.
const RANK_SLOTS_PER_INSTANCE: usize = 16;

/// Slots any kernel's rank index may use regardless of its instance count.
const RANK_INDEX_SLACK: usize = 1 << 16;

/// One node of the [`RankIndex`]: the values of its level's dim under one
/// prefix of outer dim values, `lo, lo + step, …` (`len` of them); its
/// children (nodes one level down, or below the innermost dim, ranks)
/// occupy `len` consecutive slots from `child` on.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RankNode {
    lo: i64,
    step: i64,
    len: u32,
    child: u32,
}

/// A node whose dim takes no value: every lookup through it misses.
const EMPTY_NODE: RankNode = RankNode {
    lo: 0,
    step: 1,
    len: 0,
    child: 0,
};

/// The dense instance → rank index: per statement a tree with one level
/// per loop dim, outermost first. Triangular, banded and strided nests
/// index without holes; a value no instance has is an [`EMPTY_NODE`] or a
/// `NIL` rank.
struct RankIndex {
    /// Per statement, its root's slot in `nodes`, or for a statement
    /// outside every loop, its slot in `ranks`.
    roots: Vec<u32>,
    nodes: Vec<RankNode>,
    ranks: Vec<u32>,
}

impl RankIndex {
    /// The rank of the instance of statement `stmt` (whose dims are
    /// `stmt_dims`) at dim values `dims` (indexed by dim id); `NIL` when
    /// the reference has no such instance.
    #[inline]
    fn rank(&self, stmt: usize, stmt_dims: &[DimId], dims: &[i64]) -> u32 {
        let mut at = self.roots[stmt] as usize;
        for d in stmt_dims {
            let node = self.nodes[at];
            let Some(mut off) = dims[d.0 as usize].checked_sub(node.lo) else {
                return NIL;
            };
            if node.step != 1 {
                if off % node.step != 0 {
                    return NIL;
                }
                off /= node.step;
            }
            if !(0..i64::from(node.len)).contains(&off) {
                return NIL;
            }
            at = node.child as usize + off as usize;
        }
        self.ranks[at]
    }
}

/// One statement's open nodes while its [`RankIndex`] tree is built.
#[derive(Default)]
struct OpenStmt {
    /// Whether an instance has been seen.
    seen: bool,
    /// The last instance's dim values.
    prev: Vec<i64>,
    /// Per level but the innermost, the open node's closed children.
    inner: Vec<Vec<(i64, RankNode)>>,
    /// The innermost open node's ranks.
    leaves: Vec<(i64, u32)>,
}

/// Builds the [`RankIndex`] from the reference instances in program order.
/// A loop runs all its iterations inside one iteration of its outer loops,
/// so a statement's instances under one prefix of outer dim values are
/// consecutive and a node is complete once its prefix changes; only the
/// open nodes' children are buffered. Every slot is charged, with the cell
/// tables, against `max_arena_bytes` before it is allocated.
struct RankIndexBuilder {
    index: RankIndex,
    open: Vec<OpenStmt>,
    /// Reference instances pushed so far.
    instances: usize,
    /// Bytes charged before the index: the per-cell tables.
    cell_bytes: u64,
    max_arena_bytes: u64,
}

impl RankIndexBuilder {
    fn new(program: &Program, cell_bytes: u64, budget: &Budget) -> RankIndexBuilder {
        RankIndexBuilder {
            index: RankIndex {
                roots: vec![0; program.stmts.len()],
                nodes: Vec::new(),
                ranks: Vec::new(),
            },
            open: program
                .stmts
                .iter()
                .map(|s| OpenStmt {
                    inner: vec![Vec::new(); s.dims.len().saturating_sub(1)],
                    ..OpenStmt::default()
                })
                .collect(),
            instances: 0,
            cell_bytes,
            max_arena_bytes: budget.max_arena_bytes,
        }
    }

    /// Admits `nodes` more nodes and `ranks` more rank slots.
    fn reserve(&self, nodes: u64, ranks: u64) -> Result<(), AnalysisError> {
        let nodes = self.index.nodes.len() as u64 + nodes;
        let ranks = self.index.ranks.len() as u64 + ranks;
        // Slot ids and `RankNode::len` are `u32`.
        let cap = (self.instances as u64)
            .saturating_mul(RANK_SLOTS_PER_INSTANCE as u64)
            .saturating_add(RANK_INDEX_SLACK as u64)
            .min(u64::from(u32::MAX));
        if nodes + ranks > cap {
            return Err(AnalysisError::Refused(format!(
                "the instance-rank index needs more than {cap} slots for {} instances: \
                 a statement's inner loops are empty for most values of an outer loop",
                self.instances
            )));
        }
        let bytes = (std::mem::size_of::<RankNode>() as u64)
            .saturating_mul(nodes)
            .saturating_add(ranks.saturating_mul(4))
            .saturating_add(self.cell_bytes);
        charge_arena(bytes, self.max_arena_bytes)
    }

    /// Records the instance of `stmt` at `dims` (indexed by dim id) as the
    /// next rank.
    fn push(&mut self, sid: usize, stmt: &Statement, dims: &[i64]) -> Result<(), AnalysisError> {
        let rank = self.instances as u32;
        self.instances += 1;
        let m = stmt.dims.len();
        if m == 0 {
            self.reserve(0, 1)?;
            self.index.roots[sid] = self.index.ranks.len() as u32;
            self.index.ranks.push(rank);
            self.open[sid].seen = true;
            return Ok(());
        }
        let value = |k: usize| dims[stmt.dims[k].0 as usize];
        if self.open[sid].seen {
            let changed = (0..m - 1).find(|&k| value(k) != self.open[sid].prev[k]);
            if let Some(j) = changed {
                let node = self.close(sid, j + 1)?;
                let open = &mut self.open[sid];
                open.inner[j].push((open.prev[j], node));
            }
        }
        let open = &mut self.open[sid];
        open.seen = true;
        open.prev.clear();
        open.prev.extend((0..m).map(value));
        open.leaves.push((value(m - 1), rank));
        Ok(())
    }

    /// Closes statement `sid`'s open nodes from the innermost level up to
    /// `level`, and returns the one at `level`.
    fn close(&mut self, sid: usize, level: usize) -> Result<RankNode, AnalysisError> {
        let (lo, step, len) = span(&self.open[sid].leaves);
        self.reserve(0, len)?;
        let leaves = &self.open[sid].leaves;
        let mut node = lay_out(leaves, &mut self.index.ranks, NIL, lo, step, len);
        self.open[sid].leaves.clear();
        for k in (level..self.open[sid].inner.len()).rev() {
            let open = &mut self.open[sid];
            open.inner[k].push((open.prev[k], node));
            let (lo, step, len) = span(&open.inner[k]);
            self.reserve(len, 0)?;
            let children = &self.open[sid].inner[k];
            node = lay_out(children, &mut self.index.nodes, EMPTY_NODE, lo, step, len);
            self.open[sid].inner[k].clear();
        }
        Ok(node)
    }

    /// Closes every statement's tree and returns the index.
    fn finish(mut self, program: &Program) -> Result<RankIndex, AnalysisError> {
        for (sid, stmt) in program.stmts.iter().enumerate() {
            if stmt.dims.is_empty() {
                if !self.open[sid].seen {
                    self.reserve(0, 1)?;
                    self.index.roots[sid] = self.index.ranks.len() as u32;
                    self.index.ranks.push(NIL);
                }
                continue;
            }
            let root = if self.open[sid].seen {
                self.close(sid, 0)?
            } else {
                EMPTY_NODE
            };
            self.reserve(1, 0)?;
            self.index.roots[sid] = self.index.nodes.len() as u32;
            self.index.nodes.push(root);
        }
        Ok(self.index)
    }
}

/// The smallest arithmetic progression holding every child's value:
/// lowest value, gcd step, and length. A step beyond `i64` (two values
/// at opposite ends of the range) falls back to 1, whose length the slot
/// cap then refuses.
fn span<T>(children: &[(i64, T)]) -> (i64, i64, u64) {
    let first = children[0].0;
    let (mut lo, mut hi, mut step) = (first, first, 0u64);
    for &(v, _) in children {
        lo = lo.min(v);
        hi = hi.max(v);
        let mut b = v.abs_diff(first);
        while b != 0 {
            (step, b) = (b, step % b);
        }
    }
    let step = i64::try_from(step).unwrap_or(1).max(1);
    (lo, step, (hi.abs_diff(lo) / step as u64).saturating_add(1))
}

/// Appends the slots of one node's children to `store`, each at its
/// value's offset in the node's progression and `hole` elsewhere, and
/// returns the node.
fn lay_out<T: Copy + PartialEq>(
    children: &[(i64, T)],
    store: &mut Vec<T>,
    hole: T,
    lo: i64,
    step: i64,
    len: u64,
) -> RankNode {
    let child = store.len();
    store.resize(child + len as usize, hole);
    for &(v, x) in children {
        let slot = &mut store[child + (v.abs_diff(lo) / step as u64) as usize];
        debug_assert!(*slot == hole, "one prefix's instances are consecutive");
        *slot = x;
    }
    RankNode {
        lo,
        step,
        len: len as u32,
        child: child as u32,
    }
}

/// Charges `bytes` of transient tables against the arena limit.
fn charge_arena(bytes: u64, limit: u64) -> Result<(), AnalysisError> {
    if bytes > limit {
        return Err(AnalysisError::BudgetExceeded {
            resource: "arena_bytes",
            needed: bytes,
            limit,
        });
    }
    Ok(())
}

/// Reference data of one kernel's untiled enumeration: the packed
/// program-order trace, per-instance expected cell versions, the dense
/// instance-rank index, and the two CDAG counts the tuner reports.
///
/// A candidate enumeration is dependence-legal exactly when every instance
/// touches every cell at the *same version* (write count) as in program
/// order: matching write versions pin the per-cell write order (WAW),
/// matching read versions pin each read into its original inter-write
/// window (RAW + WAR) — and reads within one window commute freely, which
/// is precisely the legal reorder space.
///
/// Tiling keeps every statement, its dims and their ids, so a candidate
/// instance performs exactly the accesses of the reference instance with
/// the same statement and dim values: its events are the slice
/// `trace[ver_off[r]..ver_off[r + 1]]` of that instance's rank `r`, and a
/// candidate's trace is copied from the reference, never re-evaluated.
struct TraceRef<'p> {
    /// The untiled program's statements, which every candidate must keep.
    stmts: &'p [Statement],
    /// Packed untiled program-order trace.
    trace: Vec<u64>,
    /// Instance rank → first slot of its events in `trace` and of their
    /// expected versions in `ver` (reads in declared order, then writes).
    ver_off: Vec<u32>,
    /// Expected versions, CSR under `ver_off`.
    ver: Vec<u32>,
    /// Instance → rank, when built.
    index: Option<RankIndex>,
    /// Total instances.
    n_instances: usize,
    /// Total cells (the size of a candidate's version counters).
    num_cells: usize,
    /// The CDAG's input count ([`Wiring`]).
    num_inputs: usize,
    /// The CDAG's maximum in-degree ([`Wiring`]).
    max_in_degree: usize,
}

impl<'p> TraceRef<'p> {
    /// One pass over the untiled enumeration — governed: the instance walk
    /// polls `token` and is charged against `budget.max_instances`, and the
    /// per-cell tables (the CDAG wiring's producers, and with ranks the
    /// write counters) and the rank index against `budget.max_arena_bytes`.
    /// The version CSR and the rank index only legality-check candidate
    /// enumerations, so they are built only `with_ranks`.
    ///
    /// # Errors
    /// Refuses out-of-range declared accesses and a rank index with more
    /// than [`RANK_SLOTS_PER_INSTANCE`] slots per instance (plus
    /// [`RANK_INDEX_SLACK`]), and propagates budget and cancellation
    /// errors.
    fn build(
        program: &'p Program,
        params: &[i64],
        with_ranks: bool,
        budget: &Budget,
        token: &CancelToken,
    ) -> Result<TraceRef<'p>, AnalysisError> {
        let accesses = DeclaredAccesses::bind(program, params);
        let num_cells = accesses.num_cells();
        let cell_bytes = (num_cells as u64).saturating_mul(if with_ranks { 8 } else { 4 });
        charge_arena(cell_bytes, budget.max_arena_bytes)?;
        let mut r = TraceRef {
            stmts: &program.stmts,
            trace: Vec::new(),
            ver_off: vec![0],
            ver: Vec::new(),
            index: None,
            n_instances: 0,
            num_cells,
            num_inputs: 0,
            max_in_degree: 0,
        };
        let mut wiring = Wiring::new(num_cells);
        let mut wc = vec![0u32; if with_ranks { num_cells } else { 0 }];
        let mut index = with_ranks.then(|| RankIndexBuilder::new(program, cell_bytes, budget));
        try_for_each_instance(
            program,
            params,
            token,
            Seam::Instances,
            budget.max_instances,
            |stmt_id, dims| {
                let first = r.trace.len();
                push_instance_trace(program, &accesses, stmt_id, dims, &mut r.trace)?;
                let preds = wiring.instance(r.n_instances as u32, &r.trace[first..]);
                r.max_in_degree = r.max_in_degree.max(preds.len());
                if let Some(index) = &mut index {
                    for &event in &r.trace[first..] {
                        let cell = (event >> 1) as usize;
                        r.ver.push(wc[cell]);
                        wc[cell] += (event & 1) as u32;
                    }
                    r.ver_off.push(r.ver.len() as u32);
                    index.push(stmt_id.0 as usize, program.stmt(stmt_id), dims)?;
                }
                r.n_instances += 1;
                Ok(())
            },
        )?;
        r.num_inputs = wiring.inputs().len();
        r.index = index.map(|index| index.finish(program)).transpose()?;
        Ok(r)
    }

    /// Emits a candidate enumeration's trace into `out` while checking
    /// dependence legality against the reference versions. Each instance's
    /// events are copied from its reference rank; an instance the rank
    /// index does not hold has no rank, and is illegal. Returns
    /// whether the candidate is legal; an illegal candidate stops emission.
    ///
    /// # Errors
    /// `Internal` when `program` changed a statement's dims or accesses:
    /// the copied events would then not be the candidate's.
    fn emit_candidate(
        &self,
        program: &Program,
        params: &[i64],
        out: &mut Vec<u64>,
        wc: &mut [u32],
    ) -> Result<bool, AnalysisError> {
        let kept = program.stmts.len() == self.stmts.len()
            && program
                .stmts
                .iter()
                .zip(self.stmts)
                .all(|(s, r)| s.dims == r.dims && s.reads == r.reads && s.writes == r.writes);
        if !kept {
            return Err(AnalysisError::Internal(format!(
                "tiled candidate of {}: its statements differ from the untiled program's",
                program.name
            )));
        }
        let index = self
            .index
            .as_ref()
            .expect("candidates are emitted only when the rank index was built");
        out.clear();
        wc.fill(0);
        let mut count = 0usize;
        let mut legal = true;
        for_each_instance(program, params, |stmt_id, dims| {
            if !legal {
                return;
            }
            let sid = stmt_id.0 as usize;
            let rank = index.rank(sid, &self.stmts[sid].dims, dims);
            if rank == NIL {
                legal = false;
                return;
            }
            let span =
                self.ver_off[rank as usize] as usize..self.ver_off[rank as usize + 1] as usize;
            let events = &self.trace[span.clone()];
            out.extend_from_slice(events);
            for (&event, &version) in events.iter().zip(&self.ver[span]) {
                let cell = (event >> 1) as usize;
                if version != wc[cell] {
                    legal = false;
                    return;
                }
                wc[cell] += (event & 1) as u32;
            }
            count += 1;
        });
        Ok(legal && count == self.n_instances)
    }
}

/// Appends one instance's declared accesses to `out` in the packed trace
/// encoding (`cell << 1`, low bit set for a write): reads in declared
/// order, then writes. The tuner's reference trace (which its candidates
/// copy from) and the Appendix A sweep ([`crate::sweep_tiled`]) are
/// emitted through it.
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
    let cands = candidates(&job.schedule, &job.params);
    let tref = TraceRef::build(&job.program, &job.params, cands.len() > 1, budget, token).map_err(
        |e| match e {
            AnalysisError::Refused(msg) => AnalysisError::Refused(format!("{}: {msg}", job.name)),
            other => other,
        },
    )?;
    let min_s = tref.max_in_degree + 1;
    let s_values: Vec<usize> = job.s_offsets.iter().map(|&off| min_s + off).collect();
    let s_max = s_values.iter().copied().max().unwrap_or(1);

    // Score every candidate once: emit (+ legality-check) its trace into
    // the shared buffer, then read every S point off one OPT curve.
    // Program order (index 0) is the reference itself, so every cell ends
    // up populated. Candidate traces are necessarily materialized (the
    // version legality check writes them), so the size rule prices them in
    // place.
    let mut trace_buf: Vec<u64> = Vec::with_capacity(tref.trace.len());
    let mut wc = vec![0u32; tref.num_cells];
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
            lb_inputs: tref.num_inputs as f64,
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

/// Serializes the tightness report as deterministic JSON: kernels sorted
/// by name, points by S, fixed key order, volatile data (threads, wall
/// times) confined to the `meta` object. `redact_volatile` zeroes `meta`
/// for byte-stable golden snapshots.
pub fn tightness_report_json(report: &TightnessReport, redact_volatile: bool) -> String {
    let mut w = Writer::default();
    write_tightness_report(&mut w, report, redact_volatile);
    w.finish()
}

/// Writes the `tightness/v3` document at the writer's position (the
/// `serve/v1` envelope nests it one level deep).
pub fn write_tightness_report(w: &mut Writer, report: &TightnessReport, redact: bool) {
    let (threads, wall) = (report.threads, report.total_wall_ms);
    write_head(w, "hourglass-iolb/tightness/v3", threads, wall, redact);
    w.end();
    write_governance(w, &report.degradation, &report.failures);
    w.key("kernels").arr(Lines);
    for k in &report.kernels {
        members!(w.obj(Inline), "kernel": str(&k.kernel), "params": ints(&k.params),
            "points": arr(Lines));
        for t in &k.points {
            members!(w, {"s": int(t.s), "lb_classical": num(t.lb_classical),
                "lb_hourglass": num(t.lb_hourglass), "lb_inputs": num(t.lb_inputs),
                "lower_bound": num(t.lower_bound()), "upper_loads": int(t.upper_loads),
                "upper_schedule": str(&t.upper_schedule),
                "program_order_loads": int(t.program_order_loads),
                "trace_lru_loads": int(t.trace_lru_loads), "ratio": num(t.ratio()),
                "hourglass_ratio": opt(t.hourglass_ratio(), Writer::num)});
        }
        w.end().end();
    }
    w.end().end();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ungoverned tightness run.
    fn tightness(jobs: Vec<TightnessJob>) -> TightnessReport {
        try_run_tightness(jobs, &Budget::unlimited(), &CancelToken::unlimited()).expect("tightness")
    }
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
        let report = tightness(vec![job]);
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
        let report = tightness(vec![job]);
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
        let report = tightness(vec![job]);
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

    /// Test reference for [`TraceRef::emit_candidate`]: locates every
    /// candidate instance by a hashed `(statement, dim values)` key,
    /// evaluates every declared access on the tiled program itself, and
    /// checks versions as emission does.
    fn rewalk_candidate(
        untiled: &Program,
        tiled: &Program,
        params: &[i64],
        tref: &TraceRef,
    ) -> (Vec<u64>, bool) {
        let key = |p: &Program, stmt: StmtId, dims: &[i64]| -> (u32, Vec<i64>) {
            let d = &p.stmt(stmt).dims;
            (stmt.0, d.iter().map(|d| dims[d.0 as usize]).collect())
        };
        let mut rank_of = HashMap::new();
        for_each_instance(untiled, params, |stmt, dims| {
            let n = rank_of.len();
            rank_of.insert(key(untiled, stmt, dims), n);
        });
        let accesses = DeclaredAccesses::bind(tiled, params);
        let mut wc = vec![0u32; accesses.num_cells()];
        let (mut out, mut count, mut legal) = (Vec::new(), 0usize, true);
        for_each_instance(tiled, params, |stmt, dims| {
            if !legal {
                return;
            }
            let Some(&rank) = rank_of.get(&key(tiled, stmt, dims)) else {
                legal = false;
                return;
            };
            let first = out.len();
            push_instance_trace(tiled, &accesses, stmt, dims, &mut out).expect("in range");
            let expected = &tref.ver[tref.ver_off[rank] as usize..];
            for (&event, &version) in out[first..].iter().zip(expected) {
                let cell = (event >> 1) as usize;
                if version != wc[cell] {
                    legal = false;
                    return;
                }
                wc[cell] += (event & 1) as u32;
            }
            count += 1;
        });
        (out, legal && count == tref.n_instances)
    }

    /// Every candidate's copied trace and legal verdict equal the re-walk's,
    /// on shipped kernels at small sizes where the tuner's tile sizes
    /// (powers of two, and cholesky's fixed 8) do not divide the extents,
    /// on a kernel whose hoisting candidates are illegal, and on a strided
    /// outer loop and an inner loop with large bound coefficients, whose
    /// bounding boxes would be almost empty.
    #[test]
    fn copied_emission_equals_a_rewalk_of_every_access() {
        let cases: [(&str, &[i64]); 8] = [
            (include_str!("../../../kernels/gemm.iolb"), &[6, 5, 7]),
            (include_str!("../../../kernels/gemm_tiled.iolb"), &[5, 6, 7]),
            (include_str!("../../../kernels/syrk.iolb"), &[7, 5]),
            (include_str!("../../../kernels/jacobi2d.iolb"), &[3, 9]),
            (include_str!("../../../kernels/cholesky.iolb"), &[10]),
            (
                "kernel carried(T, N) { array A[N]; schedule { tile i; } \
                 for t in 0..T { for i in 1..N { S: A[i] = op(A[i], A[i - 1]); } } }",
                &[3, 7],
            ),
            (
                "kernel strided(N) { array A[N]; schedule { tile j; } \
                 for i in 0..100000000 step 10000000 { for j in 0..N { S: A[j] = op(A[j]); } } }",
                &[5],
            ),
            (
                "kernel wide(N) { array A[N]; schedule { tile i; } \
                 for i in 0..N { for j in 1000000 * i..1000000 * i + 2 { S: A[i] = op(A[i]); } } }",
                &[7],
            ),
        ];
        let unlimited = (&Budget::unlimited(), &CancelToken::unlimited());
        let (mut legal_seen, mut illegal_seen) = (0, 0);
        for (src, params) in cases {
            let kernel = iolb_ir::parse_kernel(src).expect("parse");
            let program = &kernel.program;
            let tref = TraceRef::build(program, params, true, unlimited.0, unlimited.1)
                .expect("reference pass");
            // An innermost loop runs every value under fixed outer values,
            // so no rank slot is a hole, whatever the strides and bounds.
            let index = tref.index.as_ref().expect("index");
            assert_eq!(index.ranks.len(), tref.n_instances, "{}", program.name);
            assert!(index.nodes.len() <= tref.n_instances + program.stmts.len());
            let mut buf = Vec::new();
            let mut wc = vec![0u32; tref.num_cells];
            for cand in candidates(&kernel.schedule, params) {
                let Some(tiles) = &cand.tiles else { continue };
                let tiled = tile_program(program, tiles).expect("tile");
                let legal = tref
                    .emit_candidate(&tiled, params, &mut buf, &mut wc)
                    .expect("emit");
                let (want, want_legal) = rewalk_candidate(program, &tiled, params, &tref);
                assert_eq!(legal, want_legal, "{} {}: verdict", program.name, cand.desc);
                assert!(buf == want, "{} {}: trace", program.name, cand.desc);
                if legal {
                    legal_seen += 1;
                } else {
                    illegal_seen += 1;
                }
            }
        }
        assert!(
            legal_seen > 0 && illegal_seen > 0,
            "{legal_seen} legal, {illegal_seen} illegal"
        );
    }

    /// A candidate whose statements are not the reference's cannot copy
    /// the reference's events: the structural guard refuses it as an
    /// engine fault.
    #[test]
    fn a_changed_statement_hits_the_structural_guard() {
        let kernel = iolb_ir::parse_kernel(GEMM_TILED).expect("parse");
        let params = [4, 4, 4];
        let tref = TraceRef::build(
            &kernel.program,
            &params,
            true,
            &Budget::unlimited(),
            &CancelToken::unlimited(),
        )
        .expect("reference pass");
        let mut tiled = tile_program(&kernel.program, &[TileSpec::new("i", 2)]).expect("tile");
        let su = tiled.stmt_id("SU").expect("SU").0 as usize;
        // `A[i][k]` becomes `A[k][k]`.
        let read = &mut tiled.stmts[su].reads[0];
        read.idx[0] = read.idx[1].clone();
        let mut wc = vec![0u32; tref.num_cells];
        let err = tref
            .emit_candidate(&tiled, &params, &mut Vec::new(), &mut wc)
            .expect_err("a changed read must be refused");
        assert!(
            matches!(&err, AnalysisError::Internal(m) if m.contains("statements differ")),
            "{err}"
        );
    }

    /// The reference pass's CDAG counts equal the built CDAG's, on a kernel
    /// whose statement writes two cells that one instance reads back: one
    /// producer, two cells.
    #[test]
    fn reference_pass_counts_inputs_and_producers_like_the_cdag() {
        let src = "kernel pair(N) { array A[N]; array B[N]; array C[N]; \
                   for i in 0..N { S: A[i], B[i] = op(C[i]); } \
                   for i in 0..N { T: C[i] = op(A[i], B[i], C[i]); } }";
        let kernel = iolb_ir::parse_kernel(src).expect("parse");
        for with_ranks in [false, true] {
            let tref = TraceRef::build(
                &kernel.program,
                &[5],
                with_ranks,
                &Budget::unlimited(),
                &CancelToken::unlimited(),
            )
            .expect("reference pass");
            let cdag = iolb_cdag::build_cdag(&kernel.program, &[5]);
            assert_eq!(tref.num_inputs, cdag.num_inputs());
            assert_eq!(tref.max_in_degree, cdag.max_in_degree());
            assert_eq!(tref.max_in_degree, 2, "S(i) and C[i]'s input");
        }
    }

    fn reference(src: &str, params: &[i64], budget: &Budget) -> Result<(), AnalysisError> {
        let kernel = iolb_ir::parse_kernel(src).expect("parse");
        TraceRef::build(
            &kernel.program,
            params,
            true,
            budget,
            &CancelToken::unlimited(),
        )
        .map(|_| ())
    }

    /// The index of a rectangular nest has no holes, and every slot of it
    /// is charged, with the two per-cell tables, against the arena budget.
    #[test]
    fn rank_index_is_charged_against_the_arena_budget() {
        let kernel = iolb_ir::parse_kernel(GEMM_TILED).expect("parse");
        let tref = TraceRef::build(
            &kernel.program,
            &[8, 8, 8],
            true,
            &Budget::unlimited(),
            &CancelToken::unlimited(),
        )
        .expect("reference pass");
        let index = tref.index.as_ref().expect("index");
        // Cz: a root and 8 rows; SU: a root, 8 rows and 64 columns.
        assert_eq!((index.nodes.len(), index.ranks.len()), (9 + 73, 64 + 512));
        // Three 64-cell arrays, 8 bytes of tables per cell.
        let total = 3 * 64 * 8 + 82 * std::mem::size_of::<RankNode>() as u64 + 576 * 4;
        let budget = |max_arena_bytes| Budget {
            max_arena_bytes,
            ..Budget::unlimited()
        };
        assert!(reference(GEMM_TILED, &[8, 8, 8], &budget(total)).is_ok());
        let err = reference(GEMM_TILED, &[8, 8, 8], &budget(total - 1))
            .expect_err("the last slot exceeds the budget");
        assert!(
            matches!(err, AnalysisError::BudgetExceeded { resource: "arena_bytes", needed, .. } if needed == total),
            "{err}"
        );
    }

    /// A statement present at a handful of an outer loop's values spread
    /// over 200 000 of them would leave the index mostly holes: refused
    /// before the table is allocated.
    #[test]
    fn a_mostly_empty_outer_loop_is_refused() {
        // `l` runs only when `j - 2 <= k < j` for a multiple `k` of 100000.
        let src = "kernel holes(N) { scalar x; \
                   for j in 0..200003 { for k in 0..j step 100000 { for l in j..k + 3 { \
                   S: x = op(x); } } } }";
        let err = reference(src, &[1], &Budget::unlimited()).expect_err("refused");
        assert!(
            matches!(&err, AnalysisError::Refused(m) if m.contains("instance-rank index")),
            "{err}"
        );
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
        let report = tightness(jobs);
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
        let b = tightness_report_json(&tightness(jobs), true);
        assert_eq!(a, b, "same inputs produce byte-identical redacted JSON");
    }
}
