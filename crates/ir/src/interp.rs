//! Instance enumeration and the checked declared-access evaluator.
//!
//! A statement's semantics, for every analysis here, is its declared
//! affine accesses. Two pieces serve every consumer:
//!
//! * one loop-tree walker enumerates statement instances in schedule
//!   order ([`for_each_instance`], governed [`try_for_each_instance`]);
//! * [`DeclaredAccesses`] evaluates each instance's declared reads and
//!   writes to dense cell ids, checking every subscript against its
//!   array's extent: an out-of-range subscript is an [`OutOfRange`] error
//!   naming the statement, the instance, the access, the axis, the value
//!   and the extent — never a panic and never a silently wrapped cell.
//!
//! Certification ([`check_accesses`]), the producer observer, CDAG
//! construction and the tuner's traces all evaluate accesses through it.

use crate::affine::DimId;
use crate::program::{Access, ArrayId, Loop, LoopStep, Program, Step, StmtId};
use iolb_govern::{AnalysisError, CancelToken, Seam};
use std::convert::Infallible;
use std::fmt;

/// The loop-tree walker every instance enumeration shares: visits each
/// statement instance in schedule order with the full loop-dimension
/// environment (indexed by [`DimId`]), stopping at the first error the
/// visit returns. Ungoverned walks visit with `E = Infallible`.
///
/// # Panics
/// Panics on a parameter count mismatch or a non-positive loop step.
pub(crate) fn walk<E>(
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

/// Enumerates every statement instance in schedule order: just the
/// loop-tree walk. `f` receives the statement and the full loop-dimension
/// environment (indexed by [`DimId`]; only the statement's own `dims` are
/// meaningful).
pub fn for_each_instance(program: &Program, params: &[i64], mut f: impl FnMut(StmtId, &[i64])) {
    let Ok(()) = walk(program, params, &mut |id, dims| {
        f(id, dims);
        Ok::<(), Infallible>(())
    });
}

/// Governed [`for_each_instance`]: polls `token` at seam `seam` (once at
/// the first instance, then every 1024 instances), counts enumerated
/// instances against `max_instances`, so a wrong admission estimate can
/// never materialize unbounded work, and stops at the first error `f`
/// returns. Returns the instance count.
///
/// The token poll at instance 0 makes fault injection deterministic even
/// on kernels with fewer than 1024 instances.
pub fn try_for_each_instance(
    program: &Program,
    params: &[i64],
    token: &CancelToken,
    seam: Seam,
    max_instances: u64,
    mut f: impl FnMut(StmtId, &[i64]) -> Result<(), AnalysisError>,
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
        f(id, dims)
    })?;
    Ok(count)
}

/// One axis of a [`BoundAccess`]: `cst + Σ coeff · env[dim]`, valid in
/// `0..extent`, scaled by `stride` into the flat index.
struct BoundAxis {
    cst: i64,
    terms: Vec<(usize, i64)>,
    extent: i64,
    stride: usize,
}

impl BoundAxis {
    #[inline]
    fn value(&self, env: &[i64]) -> i64 {
        self.terms
            .iter()
            .fold(self.cst, |acc, &(dim, c)| acc + c * env[dim])
    }
}

/// A declared access bound to one parameter set: parameters folded into
/// each axis' constant, the array's base offset and extents resolved.
struct BoundAccess {
    base: usize,
    axes: Vec<BoundAxis>,
}

impl BoundAccess {
    /// Dense cell id at loop environment `env`, or `None` when some axis
    /// falls outside its extent.
    #[inline]
    fn cell(&self, env: &[i64]) -> Option<usize> {
        let mut cell = self.base;
        for axis in &self.axes {
            let v = axis.value(env);
            if v < 0 || v >= axis.extent {
                return None;
            }
            cell += axis.stride * v as usize;
        }
        Some(cell)
    }
}

/// The declared reads and writes of one statement, bound.
struct BoundStmt {
    reads: Vec<BoundAccess>,
    writes: Vec<BoundAccess>,
}

/// Which declared access of a statement: read or write, by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSlot {
    /// The `n`-th declared read.
    Read(usize),
    /// The `n`-th declared write.
    Write(usize),
}

/// A declared access whose subscript leaves its array at one instance,
/// rendered with the program's names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfRange {
    /// Statement name.
    pub stmt: String,
    /// The instance's loop values, `i=5, j=2` (empty outside loops).
    pub instance: String,
    /// Which declared access.
    pub slot: AccessSlot,
    /// The access as written, `A[i + 1]`.
    pub access: String,
    /// The offending axis (0 = outermost).
    pub axis: usize,
    /// The subscript's value on that axis.
    pub value: i64,
    /// The array's extent on that axis.
    pub extent: i64,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = match self.slot {
            AccessSlot::Read(_) => "reads",
            AccessSlot::Write(_) => "writes",
        };
        write!(
            f,
            "declared access out of range: statement {} at ({}) {verb} {}: \
             axis {} is {}, outside 0..{}",
            self.stmt, self.instance, self.access, self.axis, self.value, self.extent
        )
    }
}

impl From<OutOfRange> for AnalysisError {
    fn from(e: OutOfRange) -> AnalysisError {
        AnalysisError::Refused(e.to_string())
    }
}

/// Every statement's declared accesses bound at one parameter set: the one
/// checked evaluator of statement semantics.
///
/// Cells are dense over all arrays: array `a` owns ids
/// `base(a)..base(a) + len(a)` in row-major order, where `len` is the
/// product of the extents (at least 1, so scalars and empty arrays own one
/// cell).
pub struct DeclaredAccesses<'p> {
    program: &'p Program,
    stmts: Vec<BoundStmt>,
    base: Vec<usize>,
    num_cells: usize,
}

impl<'p> DeclaredAccesses<'p> {
    /// Binds every statement's accesses at `params`: parameters are folded
    /// in once per access, never per instance. A negative extent admits no
    /// subscript.
    ///
    /// # Panics
    /// Panics on a parameter count mismatch, and when a declared subscript
    /// uses a loop dim that does not enclose its statement (a malformed
    /// hand-built access; the parser never produces one).
    pub fn bind(program: &'p Program, params: &[i64]) -> DeclaredAccesses<'p> {
        assert_eq!(
            params.len(),
            program.params.len(),
            "parameter count mismatch"
        );
        let fold = |a: &crate::affine::Aff| {
            a.param_terms()
                .iter()
                .fold(a.cst(), |acc, (p, c)| acc + c * params[p.0 as usize])
        };
        let mut extents = Vec::with_capacity(program.arrays.len());
        let mut strides = Vec::with_capacity(program.arrays.len());
        let mut base = Vec::with_capacity(program.arrays.len());
        let mut num_cells = 0usize;
        for (a, decl) in program.arrays.iter().enumerate() {
            let ext: Vec<i64> = decl.extents.iter().map(fold).collect();
            let st = program.array_strides(ArrayId(a as u32), params);
            // The outermost stride times the outermost extent, or 1 for a
            // scalar or an empty array.
            let len = match (st.first(), ext.first()) {
                (Some(&s), Some(&e)) => s.saturating_mul(e.max(0) as usize),
                _ => 1,
            };
            base.push(num_cells);
            num_cells = num_cells.saturating_add(len.max(1));
            extents.push(ext);
            strides.push(st);
        }
        let stmts = program
            .stmts
            .iter()
            .map(|s| {
                let bind = |access: &Access| {
                    let a = access.array.0 as usize;
                    let axes = access
                        .idx
                        .iter()
                        .enumerate()
                        .map(|(axis, aff)| BoundAxis {
                            cst: fold(aff),
                            terms: aff
                                .dim_terms()
                                .iter()
                                .map(|&(d, c)| {
                                    assert!(
                                        s.dims.contains(&d),
                                        "access of {} uses a non-enclosing dim",
                                        s.name
                                    );
                                    (d.0 as usize, c)
                                })
                                .collect(),
                            extent: extents[a][axis],
                            stride: strides[a][axis],
                        })
                        .collect();
                    BoundAccess {
                        base: base[a],
                        axes,
                    }
                };
                BoundStmt {
                    reads: s.reads.iter().map(bind).collect(),
                    writes: s.writes.iter().map(bind).collect(),
                }
            })
            .collect();
        DeclaredAccesses {
            program,
            stmts,
            base,
            num_cells,
        }
    }

    /// Total number of cells across all arrays.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// First cell id of `array`.
    pub fn base(&self, array: ArrayId) -> usize {
        self.base[array.0 as usize]
    }

    /// Number of cells `array` owns (at least 1).
    pub fn array_cells(&self, array: ArrayId) -> usize {
        let a = array.0 as usize;
        self.base.get(a + 1).copied().unwrap_or(self.num_cells) - self.base[a]
    }

    /// Cell of read `r` of `stmt` at loop environment `env` (indexed by
    /// [`DimId`], as [`for_each_instance`] hands it out).
    ///
    /// # Errors
    /// [`OutOfRange`] when a subscript leaves the array.
    #[inline]
    pub fn read(&self, stmt: StmtId, r: usize, env: &[i64]) -> Result<usize, OutOfRange> {
        self.stmts[stmt.0 as usize].reads[r]
            .cell(env)
            .ok_or_else(|| self.out_of_range(stmt, AccessSlot::Read(r), env))
    }

    /// Cell of write `w` of `stmt` at loop environment `env`.
    ///
    /// # Errors
    /// [`OutOfRange`] when a subscript leaves the array.
    #[inline]
    pub fn write(&self, stmt: StmtId, w: usize, env: &[i64]) -> Result<usize, OutOfRange> {
        self.stmts[stmt.0 as usize].writes[w]
            .cell(env)
            .ok_or_else(|| self.out_of_range(stmt, AccessSlot::Write(w), env))
    }

    /// Checks every declared access of one instance.
    ///
    /// # Errors
    /// The first [`OutOfRange`] access, reads before writes.
    pub fn check(&self, stmt: StmtId, env: &[i64]) -> Result<(), OutOfRange> {
        let s = &self.stmts[stmt.0 as usize];
        for r in 0..s.reads.len() {
            self.read(stmt, r, env)?;
        }
        for w in 0..s.writes.len() {
            self.write(stmt, w, env)?;
        }
        Ok(())
    }

    #[cold]
    fn out_of_range(&self, stmt: StmtId, slot: AccessSlot, env: &[i64]) -> OutOfRange {
        let s = self.program.stmt(stmt);
        let bound = &self.stmts[stmt.0 as usize];
        let (declared, bound) = match slot {
            AccessSlot::Read(r) => (&s.reads[r], &bound.reads[r]),
            AccessSlot::Write(w) => (&s.writes[w], &bound.writes[w]),
        };
        let (axis, value, extent) = bound
            .axes
            .iter()
            .enumerate()
            .map(|(k, a)| (k, a.value(env), a.extent))
            .find(|&(_, v, e)| v < 0 || v >= e)
            .expect("an out-of-range access has an offending axis");
        let instance: Vec<String> = s
            .dims
            .iter()
            .map(|d: &DimId| format!("{}={}", self.program.loop_info(*d).name, env[d.0 as usize]))
            .collect();
        OutOfRange {
            stmt: s.name.clone(),
            instance: instance.join(", "),
            slot,
            access: crate::parse::render_access(self.program, declared),
            axis,
            value,
            extent,
        }
    }
}

/// Certifies the declared accesses at `params`: one walk that evaluates
/// every access of every instance against its array's extents. Returns
/// the number of certified instances.
///
/// # Errors
/// The first out-of-range access, in schedule order.
pub fn check_accesses(program: &Program, params: &[i64]) -> Result<u64, OutOfRange> {
    let accesses = DeclaredAccesses::bind(program, params);
    let mut count = 0u64;
    walk(program, params, &mut |stmt, env| {
        accesses.check(stmt, env)?;
        count += 1;
        Ok(())
    })?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    /// The `(stmt, iv)` sequence of a walk, read out of the dim environment.
    fn iv_of(p: &Program, stmt: StmtId, env: &[i64]) -> (u32, Vec<i64>) {
        let iv = p.stmt(stmt).dims.iter().map(|d| env[d.0 as usize]);
        (stmt.0, iv.collect())
    }

    /// Both walks visit exactly `expected` in order; the governed one polls
    /// once at instance 0 and stops on the exact instance overflow.
    fn assert_walks(p: &Program, params: &[i64], expected: &[(u32, Vec<i64>)]) {
        let name = &p.name;
        let mut walked = Vec::new();
        for_each_instance(p, params, |s, env| walked.push(iv_of(p, s, env)));
        assert_eq!(walked, expected, "{name}: for_each_instance");

        let n = expected.len() as u64;
        let governed = |token: &CancelToken, max: u64| {
            let mut seen = Vec::new();
            let got = try_for_each_instance(p, params, token, Seam::Instances, max, |s, env| {
                seen.push(iv_of(p, s, env));
                Ok(())
            });
            (got, seen)
        };
        let token = CancelToken::unlimited();
        assert_eq!(governed(&token, n), (Ok(n), expected.to_vec()), "{name}");
        assert_eq!(token.checks_seen(), 1, "{name}: one poll, at instance 0");
        // One instance over the ceiling: the exact overflow, after visiting
        // every instance within it.
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

    /// `for i in 0..2 { for j in i..N step 2, reversed { S } }`
    #[test]
    fn reverse_loop_iterates_downward() {
        let mut b = ProgramBuilder::new("rev_strided", &["N"]);
        let i = b.open("i", b.c(0), b.c(2));
        b.open_general("j", vec![b.d(i)], vec![b.p("N")], LoopStep::Const(2), true);
        b.stmt("S", vec![], vec![]);
        b.close();
        b.close();
        let iv = |i, j| (0, vec![i, j]);
        let expected = [iv(0, 4), iv(0, 2), iv(0, 0), iv(1, 3), iv(1, 1)];
        assert_walks(&b.finish(), &[5], &expected);
    }

    /// `for i in 0..N step B { S }`
    #[test]
    fn strided_loop_with_param_step() {
        let mut b = ProgramBuilder::new("param_step", &["N", "B"]);
        b.open_strided("i", b.c(0), b.p("N"), LoopStep::Param(b.pid("B")));
        b.stmt("S", vec![], vec![]);
        b.close();
        let expected = [0, 3, 6, 9].map(|i| (0, vec![i]));
        assert_walks(&b.finish(), &[10, 3], &expected);
    }

    /// `for j in max(1, 2)..min(6, N) { S }`
    #[test]
    fn min_upper_bound_loops() {
        let mut b = ProgramBuilder::new("min_upper", &["N"]);
        let (lo, hi) = (vec![b.c(1), b.c(2)], vec![b.c(6), b.p("N")]);
        b.open_general("j", lo, hi, LoopStep::One, false);
        b.stmt("S", vec![], vec![]);
        b.close();
        assert_walks(&b.finish(), &[4], &[(0, vec![2]), (0, vec![3])]);
    }

    /// `for i in N..0 { S }  T`
    #[test]
    fn empty_loop_body_skipped() {
        let mut b = ProgramBuilder::new("empty_body", &["N"]);
        b.open("i", b.p("N"), b.c(0));
        b.stmt("S", vec![], vec![]);
        b.close();
        b.stmt("T", vec![], vec![]);
        assert_walks(&b.finish(), &[5], &[(1, vec![])]);
    }

    /// Past instance 0 the governed walk polls every 1024 instances.
    #[test]
    fn every_walk_enumerates_the_same_instances() {
        let mut b = ProgramBuilder::new("long", &["N"]);
        b.open("i", b.c(0), b.p("N"));
        b.stmt("S", vec![], vec![]);
        b.close();
        let p = b.finish();
        let mut walked = 0;
        for_each_instance(&p, &[2049], |_, _| walked += 1);
        assert_eq!(walked, 2049);
        let token = CancelToken::unlimited();
        let walked =
            try_for_each_instance(&p, &[2049], &token, Seam::Instances, 2049, |_, _| Ok(()));
        assert_eq!((walked, token.checks_seen()), (Ok(2049), 3));
    }

    /// `for i in 0..N { for j in 0..N-1 { B[i][j] = op(A[i][j + 1]) } }`
    /// over `A[N][W]`: in range when `W = N`, a row wrap when `W = N - 1`.
    fn shifted(w: &str) -> Program {
        let mut b = ProgramBuilder::new("shifted", &["N", "W"]);
        let a = b.array("A", &[b.p("N"), b.p(w)]);
        let out = b.array("B", &[b.p("N"), b.p("N")]);
        let i = b.open("i", b.c(0), b.p("N"));
        let j = b.open("j", b.c(0), b.p("N") - 1);
        let read = Access::new(a, vec![b.d(i), b.d(j) + 1]);
        b.stmt(
            "S",
            vec![read],
            vec![Access::new(out, vec![b.d(i), b.d(j)])],
        );
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn cells_are_dense_and_row_major() {
        let p = shifted("N");
        let acc = DeclaredAccesses::bind(&p, &[3, 3]);
        assert_eq!(acc.num_cells(), 18);
        assert_eq!(acc.base(ArrayId(1)), 9);
        let s = StmtId(0);
        // env = [i, j]: A[2][1 + 1] is cell 8, B[2][1] is 9 + 7.
        assert_eq!(acc.read(s, 0, &[2, 1]), Ok(8));
        assert_eq!(acc.write(s, 0, &[2, 1]), Ok(16));
        assert_eq!(check_accesses(&p, &[3, 3]), Ok(6));
    }

    /// A row wrap (`A[i][j + 1]` past the last column) is refused on the
    /// axis it leaves, not folded into the next row's first cell.
    #[test]
    fn out_of_range_names_statement_instance_access_axis_value_extent() {
        let p = shifted("W");
        let err = check_accesses(&p, &[3, 2]).unwrap_err();
        assert_eq!(
            err,
            OutOfRange {
                stmt: "S".to_string(),
                instance: "i=0, j=1".to_string(),
                slot: AccessSlot::Read(0),
                access: "A[i][j + 1]".to_string(),
                axis: 1,
                value: 2,
                extent: 2,
            }
        );
        assert_eq!(
            err.to_string(),
            "declared access out of range: statement S at (i=0, j=1) reads A[i][j + 1]: \
             axis 1 is 2, outside 0..2"
        );
        assert_eq!(
            AnalysisError::from(err.clone()),
            AnalysisError::Refused(err.to_string())
        );
    }

    #[test]
    fn negative_subscripts_and_extents_are_out_of_range() {
        // for i in 0..N { x[i - 1] = op() }
        let mut b = ProgramBuilder::new("neg", &["N"]);
        let x = b.array("x", &[b.p("N") - 2]);
        let i = b.open("i", b.c(0), b.p("N"));
        b.stmt("S", vec![], vec![Access::new(x, vec![b.d(i) - 1])]);
        b.close();
        let p = b.finish();
        let err = check_accesses(&p, &[4]).unwrap_err();
        assert_eq!(
            (err.slot, err.value, err.extent),
            (AccessSlot::Write(0), -1, 2)
        );
        // At N = 1 the extent itself is negative: nothing is in range.
        let err = check_accesses(&p, &[1]).unwrap_err();
        assert_eq!((err.value, err.extent), (-1, -1));
    }
}
