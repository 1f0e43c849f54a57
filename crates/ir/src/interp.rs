//! Sequential interpreter for [`Program`]s.
//!
//! Executes statements in schedule order (the source listing's sequential
//! order), carrying real `f64` array contents, and streams every performed
//! access into an [`ExecSink`]. One interpreter serves four purposes:
//!
//! * **numerics** — running a kernel and checking its mathematical output,
//! * **trace collection** — feeding the two-level cache simulator,
//! * **CDAG construction** — last-writer tracking builds the exact
//!   computational DAG the pebble game plays on,
//! * **certification** — [`validate_accesses`] checks the declared affine
//!   accesses against the performed ones on every executed instance.

use crate::affine::DimId;
use crate::program::{ArrayId, Loop, LoopStep, Program, Step, StmtId};
use iolb_govern::{AnalysisError, CancelToken, Seam};
use std::collections::BTreeSet;
use std::convert::Infallible;

/// Receives execution events from the interpreter.
///
/// `on_stmt` fires before the instance's accesses; `on_read`/`on_write`
/// report flat per-array element indices.
pub trait ExecSink {
    /// A statement instance is about to execute with iteration vector `iv`.
    fn on_stmt(&mut self, _stmt: StmtId, _iv: &[i64]) {}
    /// The current instance read `array[flat]`.
    fn on_read(&mut self, _array: ArrayId, _flat: usize) {}
    /// The current instance wrote `array[flat]`.
    fn on_write(&mut self, _array: ArrayId, _flat: usize) {}
    /// Execution finished.
    fn on_finish(&mut self) {}
}

/// Sink that ignores everything (pure numeric runs).
#[derive(Debug, Default)]
pub struct NullSink;

impl ExecSink for NullSink {}

/// One access in a materialized trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global cell id (array base offset + flat index).
    pub cell: usize,
    /// True for writes.
    pub write: bool,
}

/// Sink that materializes the full access trace with global cell ids.
///
/// Events are packed `(cell << 1) | write` to keep long traces compact
/// (8 bytes per access).
#[derive(Debug)]
pub struct TraceSink {
    /// Packed events.
    pub packed: Vec<u64>,
    base: Vec<usize>,
    /// Total number of distinct cells across all arrays.
    pub num_cells: usize,
}

impl TraceSink {
    /// Creates a trace sink for the given program instantiation.
    pub fn new(program: &Program, params: &[i64]) -> TraceSink {
        let mut base = Vec::with_capacity(program.arrays.len());
        let mut acc = 0usize;
        for i in 0..program.arrays.len() {
            base.push(acc);
            acc += program.array_len(ArrayId(i as u32), params).max(1);
        }
        TraceSink {
            packed: Vec::new(),
            base,
            num_cells: acc,
        }
    }

    /// Decodes event `i`.
    pub fn event(&self, i: usize) -> TraceEvent {
        let p = self.packed[i];
        TraceEvent {
            cell: (p >> 1) as usize,
            write: (p & 1) == 1,
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Iterates decoded events.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.packed.iter().map(|&p| TraceEvent {
            cell: (p >> 1) as usize,
            write: (p & 1) == 1,
        })
    }

    /// Global cell id for `array[flat]`.
    pub fn cell_id(&self, array: ArrayId, flat: usize) -> usize {
        self.base[array.0 as usize] + flat
    }
}

impl ExecSink for TraceSink {
    fn on_read(&mut self, array: ArrayId, flat: usize) {
        let cell = self.base[array.0 as usize] + flat;
        self.packed.push((cell as u64) << 1);
    }
    fn on_write(&mut self, array: ArrayId, flat: usize) {
        let cell = self.base[array.0 as usize] + flat;
        self.packed.push(((cell as u64) << 1) | 1);
    }
}

/// Array contents for one execution.
#[derive(Debug, Clone)]
pub struct Store {
    /// Flat row-major contents per array.
    pub data: Vec<Vec<f64>>,
    strides: Vec<Vec<usize>>,
}

impl Store {
    /// Allocates and fills all arrays using `init(array, flat) -> f64`.
    pub fn init(
        program: &Program,
        params: &[i64],
        mut init: impl FnMut(ArrayId, usize) -> f64,
    ) -> Store {
        let data = (0..program.arrays.len())
            .map(|i| {
                let id = ArrayId(i as u32);
                let len = program.array_len(id, params).max(1);
                (0..len).map(|f| init(id, f)).collect()
            })
            .collect();
        Store {
            data,
            strides: array_strides(program, params),
        }
    }

    /// Zero-initialized store.
    pub fn zeros(program: &Program, params: &[i64]) -> Store {
        Store::init(program, params, |_, _| 0.0)
    }

    /// Flattens a multi-dimensional index.
    ///
    /// # Panics
    /// Panics (debug) on rank mismatch.
    pub fn flatten(&self, array: ArrayId, idx: &[i64]) -> usize {
        let st = &self.strides[array.0 as usize];
        debug_assert_eq!(st.len(), idx.len(), "array rank mismatch");
        let mut f = 0usize;
        for (i, &x) in idx.iter().enumerate() {
            debug_assert!(x >= 0, "negative subscript");
            f += st[i] * x as usize;
        }
        f
    }

    /// Reads `array[idx]`.
    pub fn get(&self, array: ArrayId, idx: &[i64]) -> f64 {
        let f = self.flatten(array, idx);
        self.data[array.0 as usize][f]
    }

    /// Writes `array[idx]`.
    pub fn set(&mut self, array: ArrayId, idx: &[i64], v: f64) {
        let f = self.flatten(array, idx);
        self.data[array.0 as usize][f] = v;
    }
}

/// Maximum loop-nest depth supported by the interpreter's fixed iteration
/// buffer (the paper's kernels use at most 5).
const MAX_DIMS: usize = 16;

/// Fixed-capacity iteration-vector buffer: one stack array reused for every
/// statement instance, so building `iv` never touches the allocator.
struct IvBuf {
    vals: [i64; MAX_DIMS],
    len: usize,
}

impl IvBuf {
    fn new() -> IvBuf {
        IvBuf {
            vals: [0; MAX_DIMS],
            len: 0,
        }
    }

    #[inline]
    fn fill_from(&mut self, stmt_dims: &[DimId], dims: &[i64]) {
        assert!(
            stmt_dims.len() <= MAX_DIMS,
            "loop nest deeper than {MAX_DIMS}"
        );
        for (slot, d) in self.vals.iter_mut().zip(stmt_dims) {
            *slot = dims[d.0 as usize];
        }
        self.len = stmt_dims.len();
    }

    #[inline]
    fn as_slice(&self) -> &[i64] {
        &self.vals[..self.len]
    }
}

/// Statement execution context handed to semantic closures.
pub struct ExecCtx<'a> {
    stmt: StmtId,
    iv: &'a [i64],
    params: &'a [i64],
    store: &'a mut Store,
    sink: &'a mut dyn ExecSink,
}

impl ExecCtx<'_> {
    /// Value of the `i`-th enclosing loop (outermost first).
    pub fn v(&self, i: usize) -> i64 {
        self.iv[i]
    }

    /// Value of parameter `i`.
    pub fn p(&self, i: usize) -> i64 {
        self.params[i]
    }

    /// The executing statement.
    pub fn stmt(&self) -> StmtId {
        self.stmt
    }

    /// Reads `array[idx]`, reporting the access.
    pub fn rd(&mut self, array: ArrayId, idx: &[i64]) -> f64 {
        let f = self.store.flatten(array, idx);
        self.sink.on_read(array, f);
        self.store.data[array.0 as usize][f]
    }

    /// Writes `array[idx]`, reporting the access.
    pub fn wr(&mut self, array: ArrayId, idx: &[i64], v: f64) {
        let f = self.store.flatten(array, idx);
        self.sink.on_write(array, f);
        self.store.data[array.0 as usize][f] = v;
    }
}

/// Schedule-order interpreter for one program instantiation.
pub struct Interpreter<'p> {
    program: &'p Program,
    params: Vec<i64>,
}

impl<'p> Interpreter<'p> {
    /// Binds `program` to concrete parameter values (same order as
    /// `program.params`).
    pub fn new(program: &'p Program, params: &[i64]) -> Interpreter<'p> {
        assert_eq!(
            params.len(),
            program.params.len(),
            "parameter count mismatch"
        );
        Interpreter {
            program,
            params: params.to_vec(),
        }
    }

    /// Executes the program over `store`, streaming events into `sink`.
    ///
    /// Monomorphized over the sink type: the schedule-walking driver, loop
    /// bound evaluation, and `on_stmt`/`on_finish` notifications compile to
    /// static calls per sink. (The per-access `on_read`/`on_write` events
    /// still go through [`ExecCtx`]'s erased sink reference, because the
    /// semantic closures are type-erased `Arc<dyn Fn>`s.)
    pub fn run<S: ExecSink>(&self, store: &mut Store, sink: &mut S) {
        let mut iv_buf = IvBuf::new();
        let Ok(()) = walk(self.program, &self.params, &mut |id, dims| {
            let stmt = self.program.stmt(id);
            iv_buf.fill_from(&stmt.dims, dims);
            let iv = iv_buf.as_slice();
            sink.on_stmt(id, iv);
            let mut ctx = ExecCtx {
                stmt: id,
                iv,
                params: &self.params,
                store,
                sink,
            };
            (stmt.compute)(&mut ctx);
            Ok::<(), Infallible>(())
        });
        sink.on_finish();
    }

    /// Convenience: fresh store from `init`, run with [`NullSink`].
    pub fn run_numeric(&self, init: impl FnMut(ArrayId, usize) -> f64) -> Store {
        let mut store = Store::init(self.program, &self.params, init);
        self.run(&mut store, &mut NullSink);
        store
    }
}

/// The loop-tree walker every instance enumeration shares: visits each
/// statement instance in schedule order with the full loop-dimension
/// environment (indexed by [`DimId`]), stopping at the first error the
/// visit returns. Ungoverned walks visit with `E = Infallible`.
///
/// # Panics
/// Panics on a parameter count mismatch or a non-positive loop step.
fn walk<E>(
    program: &Program,
    params: &[i64],
    visit: &mut impl FnMut(StmtId, &[i64]) -> Result<(), E>,
) -> Result<(), E> {
    assert_eq!(
        params.len(),
        program.params.len(),
        "parameter count mismatch"
    );
    let mut dims = vec![0i64; program.num_dims as usize];
    walk_steps(&program.body, params, &mut dims, visit)
}

fn walk_steps<E>(
    steps: &[Step],
    params: &[i64],
    dims: &mut [i64],
    visit: &mut impl FnMut(StmtId, &[i64]) -> Result<(), E>,
) -> Result<(), E> {
    for step in steps {
        match step {
            Step::Stmt(id) => visit(*id, dims)?,
            Step::Loop(l) => {
                let (lo, hi, step_v) = loop_range(l, dims, params);
                if hi <= lo {
                    continue;
                }
                // Iterate `count` values; a reverse loop starts at the last
                // valid value and steps down.
                let count = (hi - 1 - lo) / step_v + 1;
                let (mut v, delta) = if l.reverse {
                    (lo + (count - 1) * step_v, -step_v)
                } else {
                    (lo, step_v)
                };
                for _ in 0..count {
                    dims[l.dim.0 as usize] = v;
                    walk_steps(&l.body, params, dims, visit)?;
                    v += delta;
                }
            }
        }
    }
    Ok(())
}

/// Effective `[lo, hi)` and step of a loop at the current outer values.
fn loop_range(l: &Loop, dims: &[i64], params: &[i64]) -> (i64, i64, i64) {
    let lo =
        l.lo.iter()
            .map(|a| a.eval_envs(dims, params))
            .max()
            .expect("loop has lower bounds");
    let hi =
        l.hi.iter()
            .map(|a| a.eval_envs(dims, params))
            .min()
            .expect("loop has upper bounds");
    let step = match l.step {
        LoopStep::One => 1,
        LoopStep::Const(c) => c,
        LoopStep::Param(p) => params[p.0 as usize],
    };
    assert!(step > 0, "loop step must be positive");
    (lo, hi, step)
}

/// Enumerates every statement instance in schedule order *without executing
/// semantics*: no store, no f64 work, no access events — just the loop-tree
/// walk. `f` receives the statement and the full loop-dimension environment
/// (indexed by [`DimId`]; only the statement's own `dims` are meaningful).
///
/// This is the substrate for consumers that derive per-instance information
/// from the *declared* affine accesses (certified against the executed ones
/// by [`validate_accesses`]), e.g. fast CDAG construction.
pub fn for_each_instance(program: &Program, params: &[i64], mut f: impl FnMut(StmtId, &[i64])) {
    let Ok(()) = walk(program, params, &mut |id, dims| {
        f(id, dims);
        Ok::<(), Infallible>(())
    });
}

/// Governed [`for_each_instance`]: polls `token` at seam `seam` (once at
/// the first instance, then every 1024 instances) and counts enumerated
/// instances against `max_instances`, so a wrong admission estimate can
/// never materialize unbounded work. Returns the instance count.
///
/// The token poll at instance 0 makes fault injection deterministic even
/// on kernels with fewer than 1024 instances.
pub fn try_for_each_instance(
    program: &Program,
    params: &[i64],
    token: &CancelToken,
    seam: Seam,
    max_instances: u64,
    mut f: impl FnMut(StmtId, &[i64]),
) -> Result<u64, AnalysisError> {
    let mut count = 0u64;
    walk(program, params, &mut |id, dims| {
        if count & 0x3FF == 0 {
            token.check(seam)?;
        }
        count += 1;
        if count > max_instances {
            return Err(AnalysisError::BudgetExceeded {
                resource: "instances",
                needed: count,
                limit: max_instances,
            });
        }
        f(id, dims);
        Ok(())
    })?;
    Ok(count)
}

/// Row-major strides of every array at `params` (the [`Store`] layout).
pub(crate) fn array_strides(program: &Program, params: &[i64]) -> Vec<Vec<usize>> {
    (0..program.arrays.len())
        .map(|i| {
            let extents = program.array_extents(ArrayId(i as u32), params);
            let mut st = vec![1usize; extents.len()];
            for k in (0..extents.len().saturating_sub(1)).rev() {
                st[k] = st[k + 1] * extents[k + 1];
            }
            st
        })
        .collect()
}

/// One axis of a [`BoundAccess`]: `cst + Σ coeff · iv[pos]`, scaled by
/// `stride` into the flat index.
struct BoundAxis {
    cst: i64,
    terms: Vec<(usize, i64)>,
    stride: usize,
}

/// A declared access bound to one program instantiation: parameters are
/// folded into each axis' constant and loop dims resolved to positions in
/// the statement's iteration vector, so evaluating it at an instance is a
/// few multiply-adds.
pub(crate) struct BoundAccess {
    /// Accessed array.
    pub(crate) array: u32,
    axes: Vec<BoundAxis>,
}

impl BoundAccess {
    /// Subscript value and stride of every axis at iteration vector `iv`.
    #[inline]
    pub(crate) fn axes<'a>(&'a self, iv: &'a [i64]) -> impl Iterator<Item = (i64, usize)> + 'a {
        self.axes.iter().map(move |a| {
            let v = a
                .terms
                .iter()
                .fold(a.cst, |acc, &(pos, c)| acc + c * iv[pos]);
            (v, a.stride)
        })
    }
}

/// The declared reads and writes of one statement, bound.
pub(crate) struct BoundStmt {
    /// Declared reads, in declaration order.
    pub(crate) reads: Vec<BoundAccess>,
    /// Declared writes, in declaration order.
    pub(crate) writes: Vec<BoundAccess>,
}

/// Every statement's declared accesses bound at `params`, indexed by
/// statement id.
///
/// # Panics
/// Panics when a declared subscript uses a loop dim that does not enclose
/// its statement.
pub(crate) fn bind_accesses(program: &Program, params: &[i64]) -> Vec<BoundStmt> {
    let strides = array_strides(program, params);
    program
        .stmts
        .iter()
        .map(|s| {
            let bind = |access: &crate::program::Access| BoundAccess {
                array: access.array.0,
                axes: access
                    .idx
                    .iter()
                    .enumerate()
                    .map(|(axis, a)| BoundAxis {
                        cst: a
                            .param_terms()
                            .iter()
                            .fold(a.cst(), |acc, (p, c)| acc + c * params[p.0 as usize]),
                        terms: a
                            .dim_terms()
                            .iter()
                            .map(|(d, c)| {
                                let pos = s
                                    .dims
                                    .iter()
                                    .position(|x| x == d)
                                    .expect("access uses a non-enclosing dim");
                                (pos, *c)
                            })
                            .collect(),
                        stride: strides[access.array.0 as usize][axis],
                    })
                    .collect(),
            };
            BoundStmt {
                reads: s.reads.iter().map(bind).collect(),
                writes: s.writes.iter().map(bind).collect(),
            }
        })
        .collect()
}

/// Certifies declared accesses against performed accesses.
///
/// Runs the program once; for every statement instance, the set of distinct
/// `(array, cell)` pairs touched by the semantic closure must equal the set
/// described by the declared affine accesses evaluated at the instance's
/// iteration vector. Returns the number of certified instances.
///
/// # Errors
/// Returns a human-readable description of the first mismatch.
pub fn validate_accesses(program: &Program, params: &[i64]) -> Result<u64, String> {
    /// Per-instance cell lists, reused across instances. Each is sorted and
    /// deduplicated before comparison, so equality is set equality.
    struct Validator<'p> {
        program: &'p Program,
        accesses: Vec<BoundStmt>,
        current: Option<StmtId>,
        iv: Vec<i64>,
        decl_reads: Vec<(u32, usize)>,
        decl_writes: Vec<(u32, usize)>,
        got_reads: Vec<(u32, usize)>,
        got_writes: Vec<(u32, usize)>,
        checked: u64,
        error: Option<String>,
    }

    fn flat(access: &BoundAccess, iv: &[i64]) -> (u32, usize) {
        let f = access.axes(iv).fold(0usize, |f, (v, stride)| {
            assert!(v >= 0, "negative declared subscript");
            f + stride * v as usize
        });
        (access.array, f)
    }

    fn normalize(cells: &mut Vec<(u32, usize)>) {
        cells.sort_unstable();
        cells.dedup();
    }

    impl Validator<'_> {
        fn flush(&mut self) {
            if self.error.is_some() {
                return;
            }
            if let Some(stmt) = self.current.take() {
                for cells in [
                    &mut self.decl_reads,
                    &mut self.decl_writes,
                    &mut self.got_reads,
                    &mut self.got_writes,
                ] {
                    normalize(cells);
                }
                if self.decl_reads != self.got_reads || self.decl_writes != self.got_writes {
                    let set =
                        |cells: &[(u32, usize)]| cells.iter().copied().collect::<BTreeSet<_>>();
                    self.error = Some(format!(
                        "access mismatch in {}[{:?}]: declared reads {:?} performed {:?}; declared writes {:?} performed {:?}",
                        self.program.stmt(stmt).name,
                        self.iv,
                        set(&self.decl_reads),
                        set(&self.got_reads),
                        set(&self.decl_writes),
                        set(&self.got_writes)
                    ));
                    return;
                }
                self.checked += 1;
            }
        }
    }

    impl ExecSink for Validator<'_> {
        fn on_stmt(&mut self, stmt: StmtId, iv: &[i64]) {
            self.flush();
            if self.error.is_some() {
                return;
            }
            self.decl_reads.clear();
            self.decl_writes.clear();
            self.got_reads.clear();
            self.got_writes.clear();
            let bound = &self.accesses[stmt.0 as usize];
            self.decl_reads
                .extend(bound.reads.iter().map(|a| flat(a, iv)));
            self.decl_writes
                .extend(bound.writes.iter().map(|a| flat(a, iv)));
            self.iv.clear();
            self.iv.extend_from_slice(iv);
            self.current = Some(stmt);
        }
        fn on_read(&mut self, array: ArrayId, flat: usize) {
            self.got_reads.push((array.0, flat));
        }
        fn on_write(&mut self, array: ArrayId, flat: usize) {
            self.got_writes.push((array.0, flat));
        }
        fn on_finish(&mut self) {
            self.flush();
        }
    }

    let mut v = Validator {
        program,
        accesses: bind_accesses(program, params),
        current: None,
        iv: Vec::new(),
        decl_reads: Vec::new(),
        decl_writes: Vec::new(),
        got_reads: Vec::new(),
        got_writes: Vec::new(),
        checked: 0,
        error: None,
    };
    let interp = Interpreter::new(program, params);
    let mut store = Store::init(program, params, |a, f| (a.0 as f64) + f as f64 * 0.25 + 1.0);
    interp.run(&mut store, &mut v);
    match v.error {
        Some(e) => Err(e),
        None => Ok(v.checked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, ProgramBuilder};

    /// `for i in 0..N { y[i] = 2*x[i] }`
    fn scale_prog() -> Program {
        let mut b = ProgramBuilder::new("scale", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let y = b.array("y", &[b.p("N")]);
        let i = b.open("i", b.c(0), b.p("N"));
        let rx = Access::new(x, vec![b.d(i)]);
        let wy = Access::new(y, vec![b.d(i)]);
        b.stmt("S", vec![rx], vec![wy], move |c| {
            let v = 2.0 * c.rd(x, &[c.v(0)]);
            c.wr(y, &[c.v(0)], v);
        });
        b.close();
        b.finish()
    }

    #[test]
    fn numeric_execution() {
        let p = scale_prog();
        let interp = Interpreter::new(&p, &[5]);
        let store = interp.run_numeric(|a, f| if a.0 == 0 { f as f64 } else { 0.0 });
        assert_eq!(store.data[1], vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn trace_records_all_accesses() {
        let p = scale_prog();
        let interp = Interpreter::new(&p, &[3]);
        let mut sink = TraceSink::new(&p, &[3]);
        let mut store = Store::zeros(&p, &[3]);
        interp.run(&mut store, &mut sink);
        // 3 instances × (1 read + 1 write)
        assert_eq!(sink.len(), 6);
        assert!(!sink.is_empty());
        // x cells are 0..3, y cells are 3..6
        assert_eq!(
            sink.event(0),
            TraceEvent {
                cell: 0,
                write: false
            }
        );
        assert_eq!(
            sink.event(1),
            TraceEvent {
                cell: 3,
                write: true
            }
        );
        assert_eq!(sink.num_cells, 6);
    }

    #[test]
    fn reverse_loop_iterates_downward() {
        let mut b = ProgramBuilder::new("rev", &["N"]);
        let y = b.array("y", &[b.p("N")]);
        let cnt = b.scalar("c");
        let i = b.open_rev("i", b.c(0), b.p("N"));
        let wy = Access::new(y, vec![b.d(i)]);
        let rc = Access::new(cnt, vec![]);
        b.stmt("S", vec![rc.clone()], vec![wy, rc], move |c| {
            let n = c.rd(cnt, &[]);
            c.wr(y, &[c.v(0)], n);
            c.wr(cnt, &[], n + 1.0);
        });
        b.close();
        let p = b.finish();
        let interp = Interpreter::new(&p, &[4]);
        let store = interp.run_numeric(|_, _| 0.0);
        // i = 3,2,1,0 receive order stamps 0,1,2,3
        assert_eq!(store.data[0], vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn strided_loop_with_param_step() {
        let mut b = ProgramBuilder::new("strided", &["N", "B"]);
        let y = b.array("y", &[b.p("N")]);
        let bstep = crate::program::LoopStep::Param(crate::affine::ParamId(1));
        let i0 = b.open_strided("i0", b.c(0), b.p("N"), bstep);
        let wy = Access::new(y, vec![b.d(i0)]);
        b.stmt("S", vec![], vec![wy], move |c| {
            c.wr(y, &[c.v(0)], 1.0);
        });
        b.close();
        let p = b.finish();
        let interp = Interpreter::new(&p, &[10, 3]);
        let store = interp.run_numeric(|_, _| 0.0);
        let marks: Vec<usize> = store.data[0]
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == 1.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(marks, vec![0, 3, 6, 9]);
    }

    #[test]
    fn min_upper_bound_loops() {
        // for j in j0..min(j0+B, N): tiled-style bound.
        let mut b = ProgramBuilder::new("minb", &["N"]);
        let y = b.array("y", &[b.p("N")]);
        let j = b.open_general(
            "j",
            vec![b.c(2)],
            vec![b.c(2) + 4, b.p("N")],
            crate::program::LoopStep::One,
            false,
        );
        let wy = Access::new(y, vec![b.d(j)]);
        b.stmt("S", vec![], vec![wy], move |c| c.wr(y, &[c.v(0)], 1.0));
        b.close();
        let p = b.finish();
        // N=4 < j0+B=6: loop runs j=2,3.
        let store = Interpreter::new(&p, &[4]).run_numeric(|_, _| 0.0);
        assert_eq!(store.data[0], vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_loop_body_skipped() {
        let mut b = ProgramBuilder::new("empty", &["N"]);
        let y = b.scalar("y");
        let i = b.open("i", b.p("N"), b.c(0)); // empty when N > 0
        let _ = i;
        let wy = Access::new(y, vec![]);
        b.stmt("S", vec![], vec![wy], move |c| c.wr(y, &[], 1.0));
        b.close();
        let p = b.finish();
        let store = Interpreter::new(&p, &[5]).run_numeric(|_, _| 0.0);
        assert_eq!(store.data[0], vec![0.0]);
    }

    /// The `(stmt, iv)` sequence [`Interpreter::run`] reports to `on_stmt`.
    fn run_sequence(p: &Program, params: &[i64]) -> Vec<(u32, Vec<i64>)> {
        struct Rec(Vec<(u32, Vec<i64>)>);
        impl ExecSink for Rec {
            fn on_stmt(&mut self, stmt: StmtId, iv: &[i64]) {
                self.0.push((stmt.0, iv.to_vec()));
            }
        }
        let mut rec = Rec(Vec::new());
        Interpreter::new(p, params).run(&mut Store::zeros(p, params), &mut rec);
        rec.0
    }

    /// A statement's iteration vector read out of the full dim environment.
    fn iv_of(p: &Program, stmt: StmtId, env: &[i64]) -> (u32, Vec<i64>) {
        let iv = p.stmt(stmt).dims.iter().map(|d| env[d.0 as usize]);
        (stmt.0, iv.collect())
    }

    #[test]
    fn every_walk_enumerates_the_same_instances() {
        use crate::program::LoopStep;
        type Nest = (Program, Vec<i64>, Vec<(u32, Vec<i64>)>);
        // for i in 0..2 { for j in i..N step 2, reversed { S } }
        let reverse = {
            let mut b = ProgramBuilder::new("rev_strided", &["N"]);
            let i = b.open("i", b.c(0), b.c(2));
            b.open_general("j", vec![b.d(i)], vec![b.p("N")], LoopStep::Const(2), true);
            b.stmt("S", vec![], vec![], |_| {});
            b.close();
            b.close();
            let iv = |i, j| (0, vec![i, j]);
            (
                b.finish(),
                vec![5],
                vec![iv(0, 4), iv(0, 2), iv(0, 0), iv(1, 3), iv(1, 1)],
            )
        };
        // for i in 0..N step B { S }
        let param_step = {
            let mut b = ProgramBuilder::new("param_step", &["N", "B"]);
            let step = LoopStep::Param(crate::affine::ParamId(1));
            b.open_strided("i", b.c(0), b.p("N"), step);
            b.stmt("S", vec![], vec![], |_| {});
            b.close();
            let ivs = [0, 3, 6, 9].map(|i| (0, vec![i]));
            (b.finish(), vec![10, 3], ivs.to_vec())
        };
        // for j in max(1, 2)..min(6, N) { S }
        let min_upper = {
            let mut b = ProgramBuilder::new("min_upper", &["N"]);
            let (lo, hi) = (vec![b.c(1), b.c(2)], vec![b.c(6), b.p("N")]);
            b.open_general("j", lo, hi, LoopStep::One, false);
            b.stmt("S", vec![], vec![], |_| {});
            b.close();
            (b.finish(), vec![4], vec![(0, vec![2]), (0, vec![3])])
        };
        // for i in N..0 { S }  T
        let empty_body = {
            let mut b = ProgramBuilder::new("empty_body", &["N"]);
            b.open("i", b.p("N"), b.c(0));
            b.stmt("S", vec![], vec![], |_| {});
            b.close();
            b.stmt("T", vec![], vec![], |_| {});
            (b.finish(), vec![5], vec![(1, vec![])])
        };
        let nests: [Nest; 4] = [reverse, param_step, min_upper, empty_body];
        for (p, params, expected) in &nests {
            let name = &p.name;
            assert_eq!(&run_sequence(p, params), expected, "{name}: run");
            let mut walked = Vec::new();
            for_each_instance(p, params, |s, env| walked.push(iv_of(p, s, env)));
            assert_eq!(&walked, expected, "{name}: for_each_instance");

            let n = expected.len() as u64;
            let governed = |token: &CancelToken, max: u64| {
                let mut seen = Vec::new();
                let got =
                    try_for_each_instance(p, params, token, Seam::Instances, max, |s, env| {
                        seen.push(iv_of(p, s, env))
                    });
                (got, seen)
            };
            let token = CancelToken::unlimited();
            assert_eq!(governed(&token, n), (Ok(n), expected.clone()), "{name}");
            assert_eq!(token.checks_seen(), 1, "{name}: one poll, at instance 0");
            // One instance over the ceiling: the exact overflow, after
            // visiting every instance within it.
            let (got, seen) = governed(&CancelToken::unlimited(), n - 1);
            let overflow = AnalysisError::BudgetExceeded {
                resource: "instances",
                needed: n,
                limit: n - 1,
            };
            assert_eq!(got, Err(overflow), "{name}");
            assert_eq!(seen, expected[..expected.len() - 1], "{name}");
            // The poll at instance 0 runs before the first visit.
            let (got, seen) = governed(&CancelToken::trip_after_checks(1), u64::MAX);
            assert_eq!(
                (got, seen.len()),
                (Err(AnalysisError::Cancelled), 0),
                "{name}"
            );
        }

        // Past instance 0 the walk polls every 1024 instances.
        let mut b = ProgramBuilder::new("long", &["N"]);
        b.open("i", b.c(0), b.p("N"));
        b.stmt("S", vec![], vec![], |_| {});
        b.close();
        let p = b.finish();
        let token = CancelToken::unlimited();
        let walked = try_for_each_instance(&p, &[2049], &token, Seam::Instances, 2049, |_, _| {});
        assert_eq!((walked, token.checks_seen()), (Ok(2049), 3));
    }

    #[test]
    fn validation_accepts_consistent_program() {
        let p = scale_prog();
        let n = validate_accesses(&p, &[7]).expect("consistent");
        assert_eq!(n, 7);
    }

    #[test]
    fn validation_rejects_lying_metadata() {
        // Declared read x[i], but closure reads x[0].
        let mut b = ProgramBuilder::new("liar", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let y = b.array("y", &[b.p("N")]);
        let i = b.open("i", b.c(0), b.p("N"));
        let rx = Access::new(x, vec![b.d(i)]);
        let wy = Access::new(y, vec![b.d(i)]);
        b.stmt("S", vec![rx], vec![wy], move |c| {
            let v = c.rd(x, &[0]);
            c.wr(y, &[c.v(0)], v);
        });
        b.close();
        let p = b.finish();
        let err = validate_accesses(&p, &[3]).unwrap_err();
        assert!(err.contains("access mismatch"), "got: {err}");
    }

    /// The mismatch report names the first deviating instance and prints
    /// the declared and performed cells as sorted sets. Here the closure
    /// also reads the undeclared cell `x[0]` (declared only at `i = 0`), and
    /// reads it twice at `i = 2`: a repeated access is one set member.
    #[test]
    fn validation_pins_the_mismatch_message() {
        let mut b = ProgramBuilder::new("undeclared", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let y = b.array("y", &[b.p("N")]);
        let i = b.open("i", b.c(0), b.p("N"));
        let rx = Access::new(x, vec![b.d(i)]);
        let wy = Access::new(y, vec![b.d(i)]);
        b.stmt("S", vec![rx], vec![wy], move |c| {
            let v = c.rd(x, &[c.v(0)]) + c.rd(x, &[0]) + c.rd(x, &[0]);
            c.wr(y, &[c.v(0)], v);
        });
        b.close();
        let p = b.finish();
        assert_eq!(
            validate_accesses(&p, &[4]).unwrap_err(),
            "access mismatch in S[[1]]: declared reads {(0, 1)} performed {(0, 0), (0, 1)}; \
             declared writes {(1, 1)} performed {(1, 1)}"
        );
    }
}
