//! Loop-tree programs whose statements are their declared accesses.
//!
//! A [`Program`] is a tree of loops and statements in *schedule order* (the
//! sequential execution order of the source listing). Each [`Statement`]
//! carries its **declared accesses** — affine read/write subscripts — and
//! nothing else: like IOLB's polyhedral input, the analyses (dependence
//! projections, hourglass detection, CDAG construction, traces) read the
//! access functions alone, evaluated through the checked
//! [`crate::interp::DeclaredAccesses`].

use crate::affine::{Aff, DimId, ParamId};
use std::fmt;

/// Identifier of an array (or scalar: a 0-dimensional array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

/// Identifier of a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

/// Declared array: name and parametric extents (affine in parameters only).
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Array name (`"A"`, `"tau"`, …).
    pub name: String,
    /// Extents, outermost first; empty for scalars.
    pub extents: Vec<Aff>,
}

/// An affine array access `array[idx₀][idx₁]…`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Accessed array.
    pub array: ArrayId,
    /// Affine subscript per array axis.
    pub idx: Vec<Aff>,
}

impl Access {
    /// Builds an access.
    pub fn new(array: ArrayId, idx: Vec<Aff>) -> Access {
        Access { array, idx }
    }
}

/// A statement of the program.
#[derive(Debug, Clone)]
pub struct Statement {
    /// Statement name (`"SR"`, `"SU"`, …).
    pub name: String,
    /// Enclosing loop dimensions, outermost first.
    pub dims: Vec<DimId>,
    /// Declared read accesses, in source order.
    pub reads: Vec<Access>,
    /// Declared write accesses, in source order.
    pub writes: Vec<Access>,
    /// Pre-order position in the program tree (schedule order key).
    pub position: u32,
}

/// Loop step: `1`, a compile-time constant, or a parameter (tiled loops
/// step by the block size `B`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopStep {
    /// Unit step.
    One,
    /// Constant step (> 0).
    Const(i64),
    /// Parameter-valued step (> 0 at runtime).
    Param(ParamId),
}

/// A counted loop `for dim in [max(lo…), min(hi…)) step s`, optionally
/// iterated in reverse (the paper's V2Q kernel runs `k` downward).
#[derive(Clone)]
pub struct Loop {
    /// Dimension bound by this loop.
    pub dim: DimId,
    /// Loop-variable name.
    pub name: String,
    /// Lower bounds; the effective bound is their maximum.
    pub lo: Vec<Aff>,
    /// Exclusive upper bounds; the effective bound is their minimum.
    pub hi: Vec<Aff>,
    /// Iteration step.
    pub step: LoopStep,
    /// Iterate from high to low when true.
    pub reverse: bool,
    /// Loop body in schedule order.
    pub body: Vec<Step>,
}

/// One schedule-order node: a nested loop or a statement.
#[derive(Debug, Clone)]
pub enum Step {
    /// A nested loop.
    Loop(Loop),
    /// A statement instance site.
    Stmt(StmtId),
}

impl fmt::Debug for Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Loop")
            .field("name", &self.name)
            .field("dim", &self.dim)
            .field("step", &self.step)
            .field("reverse", &self.reverse)
            .field("body_len", &self.body.len())
            .finish()
    }
}

/// A complete affine program.
#[derive(Clone)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Parameter names, indexed by [`ParamId`].
    pub params: Vec<String>,
    /// Array declarations, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Statements, indexed by [`StmtId`].
    pub stmts: Vec<Statement>,
    /// Top-level schedule.
    pub body: Vec<Step>,
    /// Number of loop dimensions allocated.
    pub num_dims: u32,
    /// Loop metadata indexed by [`DimId`]: (name, lo bounds, hi bounds, step, reverse).
    pub loops: Vec<LoopInfo>,
}

/// Metadata of one loop dimension (flattened from the tree for analyses).
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop-variable name.
    pub name: String,
    /// Lower bounds (max-combined).
    pub lo: Vec<Aff>,
    /// Exclusive upper bounds (min-combined).
    pub hi: Vec<Aff>,
    /// Step.
    pub step: LoopStep,
    /// Reverse iteration flag.
    pub reverse: bool,
    /// Enclosing dimension path of this loop (not including itself).
    pub outer: Vec<DimId>,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("params", &self.params)
            .field(
                "arrays",
                &self.arrays.iter().map(|a| &a.name).collect::<Vec<_>>(),
            )
            .field(
                "stmts",
                &self.stmts.iter().map(|s| &s.name).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl Program {
    /// Looks up a parameter id by name.
    pub fn param_id(&self, name: &str) -> Option<ParamId> {
        self.params
            .iter()
            .position(|p| p == name)
            .map(|i| ParamId(i as u32))
    }

    /// Looks up an array id by name.
    pub fn array_id(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// Looks up a statement id by name.
    pub fn stmt_id(&self, name: &str) -> Option<StmtId> {
        self.stmts
            .iter()
            .position(|s| s.name == name)
            .map(|i| StmtId(i as u32))
    }

    /// The statement for an id.
    pub fn stmt(&self, id: StmtId) -> &Statement {
        &self.stmts[id.0 as usize]
    }

    /// The loop metadata for a dimension.
    pub fn loop_info(&self, d: DimId) -> &LoopInfo {
        &self.loops[d.0 as usize]
    }

    /// The pipeline's fallback analysis target when no `analyze` directive
    /// is given: the deepest statement, ties broken by schedule order —
    /// the dominant update of every kernel shipped here. The `iolb` CLI,
    /// the fuzz oracle, and the corpus replay all share this rule.
    pub fn default_analyze_stmt(&self) -> Option<StmtId> {
        self.stmts
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| (s.dims.len(), s.position))
            .map(|(i, _)| StmtId(i as u32))
    }

    /// Longest common enclosing-loop prefix of two statements.
    pub fn common_dims(&self, a: StmtId, b: StmtId) -> Vec<DimId> {
        let da = &self.stmt(a).dims;
        let db = &self.stmt(b).dims;
        let mut out = Vec::new();
        for (x, y) in da.iter().zip(db.iter()) {
            if x == y {
                out.push(*x);
            } else {
                break;
            }
        }
        out
    }

    /// Array extents evaluated at concrete parameter values.
    pub fn array_extents(&self, array: ArrayId, params: &[i64]) -> Vec<usize> {
        self.arrays[array.0 as usize]
            .extents
            .iter()
            .map(|e| {
                let v = e.eval_with(&|_| panic!("array extent uses a loop dim"), &|p| {
                    params[p.0 as usize]
                });
                assert!(v >= 0, "negative array extent");
                v as usize
            })
            .collect()
    }

    /// Flat length of an array at concrete parameters (1 for scalars).
    pub fn array_len(&self, array: ArrayId, params: &[i64]) -> usize {
        self.array_extents(array, params).iter().product()
    }

    /// Checked [`Program::array_len`]: `None` when an extent references a
    /// loop dimension or evaluates negative (malformed declaration), and a
    /// saturating product otherwise — `u64::MAX` means "overflows u64",
    /// which admission control treats as exceeding every finite budget
    /// instead of wrapping into a small bogus allocation size.
    pub fn try_array_len(&self, array: ArrayId, params: &[i64]) -> Option<u64> {
        let mut len = 1u64;
        for e in &self.arrays[array.0 as usize].extents {
            if !e.dim_terms().is_empty() {
                return None;
            }
            // i128 arithmetic: a sum of i64×i64 products cannot overflow
            // it, so huge parameters saturate instead of wrapping.
            let mut v = e.cst() as i128;
            for (p, c) in e.param_terms() {
                v += (*c as i128) * (params[p.0 as usize] as i128);
            }
            if v < 0 {
                return None;
            }
            len = len.saturating_mul(u64::try_from(v).unwrap_or(u64::MAX));
        }
        Some(len)
    }

    /// Row-major strides of an array at concrete parameters: the one
    /// stride computation, which lays out
    /// [`crate::interp::DeclaredAccesses`]' cells. A negative extent
    /// counts as empty and a product past `usize::MAX` saturates.
    ///
    /// # Panics
    /// Panics when an extent uses a loop dim.
    pub fn array_strides(&self, array: ArrayId, params: &[i64]) -> Vec<usize> {
        let extents = &self.arrays[array.0 as usize].extents;
        let mut st = vec![1usize; extents.len()];
        for k in (0..extents.len().saturating_sub(1)).rev() {
            let e = extents[k + 1].eval_with(&|_| panic!("array extent uses a loop dim"), &|p| {
                params[p.0 as usize]
            });
            st[k] = st[k + 1].saturating_mul(e.max(0) as usize);
        }
        st
    }
}

/// Incremental builder for [`Program`]s.
///
/// ```
/// use iolb_ir::{ProgramBuilder, Access, Aff};
/// let mut b = ProgramBuilder::new("axpy", &["N"]);
/// let x = b.array("x", &[b.p("N")]);
/// let y = b.array("y", &[b.p("N")]);
/// let i = b.open("i", b.c(0), b.p("N"));
/// let (xi, yi) = (Access::new(x, vec![b.d(i)]), Access::new(y, vec![b.d(i)]));
/// b.stmt("S", vec![xi, yi.clone()], vec![yi]);
/// b.close();
/// let prog = b.finish();
/// assert_eq!(prog.stmts.len(), 1);
/// ```
pub struct ProgramBuilder {
    name: String,
    params: Vec<String>,
    arrays: Vec<ArrayDecl>,
    stmts: Vec<Statement>,
    loops: Vec<LoopInfo>,
    /// Stack of open loops; `usize::MAX` marks the top-level frame.
    frames: Vec<Frame>,
    next_pos: u32,
}

/// Header of a loop under construction: dimension, name, lower and upper
/// bounds, step, and the reverse flag.
type LoopHeader = (DimId, String, Vec<Aff>, Vec<Aff>, LoopStep, bool);

struct Frame {
    /// Loop under construction (None for the root frame).
    looph: Option<LoopHeader>,
    body: Vec<Step>,
}

impl ProgramBuilder {
    /// Starts a program with the given parameter names.
    pub fn new(name: &str, params: &[&str]) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
            arrays: Vec::new(),
            stmts: Vec::new(),
            loops: Vec::new(),
            frames: vec![Frame {
                looph: None,
                body: Vec::new(),
            }],
            next_pos: 0,
        }
    }

    /// Affine constant.
    pub fn c(&self, v: i64) -> Aff {
        Aff::constant(v)
    }

    /// Affine parameter reference by name.
    ///
    /// # Panics
    /// Panics on unknown parameter names.
    pub fn p(&self, name: &str) -> Aff {
        Aff::param(self.pid(name))
    }

    /// Parameter id by name (for [`LoopStep::Param`] etc.).
    ///
    /// # Panics
    /// Panics on unknown parameter names.
    pub fn pid(&self, name: &str) -> ParamId {
        self.try_pid(name)
            .unwrap_or_else(|| panic!("unknown parameter {name}"))
    }

    /// Parameter id by name, or `None` when unknown (the parser's lookup).
    pub fn try_pid(&self, name: &str) -> Option<ParamId> {
        self.params
            .iter()
            .position(|p| p == name)
            .map(|i| ParamId(i as u32))
    }

    /// Affine loop-dimension reference.
    pub fn d(&self, d: DimId) -> Aff {
        Aff::dim(d)
    }

    /// Declares an array with the given parametric extents.
    pub fn array(&mut self, name: &str, extents: &[Aff]) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            extents: extents.to_vec(),
        });
        ArrayId((self.arrays.len() - 1) as u32)
    }

    /// Declares a scalar (0-d array).
    pub fn scalar(&mut self, name: &str) -> ArrayId {
        self.array(name, &[])
    }

    /// Opens `for name in [lo, hi)`.
    pub fn open(&mut self, name: &str, lo: Aff, hi: Aff) -> DimId {
        self.open_general(name, vec![lo], vec![hi], LoopStep::One, false)
    }

    /// Opens a reversed loop (iterating `hi-1` down to `lo`).
    pub fn open_rev(&mut self, name: &str, lo: Aff, hi: Aff) -> DimId {
        self.open_general(name, vec![lo], vec![hi], LoopStep::One, true)
    }

    /// Opens a strided loop `for name in (lo..hi).step_by(step)`.
    pub fn open_strided(&mut self, name: &str, lo: Aff, hi: Aff, step: LoopStep) -> DimId {
        self.open_general(name, vec![lo], vec![hi], step, false)
    }

    /// Opens a loop with multiple bounds: `for name in [max(lo…), min(hi…))`.
    pub fn open_general(
        &mut self,
        name: &str,
        lo: Vec<Aff>,
        hi: Vec<Aff>,
        step: LoopStep,
        reverse: bool,
    ) -> DimId {
        assert!(!lo.is_empty() && !hi.is_empty(), "loop needs bounds");
        let dim = DimId(self.loops.len() as u32);
        let outer = self.current_dims();
        self.loops.push(LoopInfo {
            name: name.to_string(),
            lo: lo.clone(),
            hi: hi.clone(),
            step,
            reverse,
            outer,
        });
        self.frames.push(Frame {
            looph: Some((dim, name.to_string(), lo, hi, step, reverse)),
            body: Vec::new(),
        });
        dim
    }

    /// Closes the innermost open loop.
    ///
    /// # Panics
    /// Panics when no loop is open.
    pub fn close(&mut self) {
        let frame = self.frames.pop().expect("no open loop");
        let (dim, name, lo, hi, step, reverse) =
            frame.looph.expect("close called on the root frame");
        let l = Loop {
            dim,
            name,
            lo,
            hi,
            step,
            reverse,
            body: frame.body,
        };
        self.frames
            .last_mut()
            .expect("root frame always present")
            .body
            .push(Step::Loop(l));
    }

    /// Adds a statement with its declared accesses at the current nesting.
    pub fn stmt(&mut self, name: &str, reads: Vec<Access>, writes: Vec<Access>) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(Statement {
            name: name.to_string(),
            dims: self.current_dims(),
            reads,
            writes,
            position: self.next_pos,
        });
        self.next_pos += 1;
        self.frames
            .last_mut()
            .expect("root frame always present")
            .body
            .push(Step::Stmt(id));
        id
    }

    /// Current enclosing dimensions, outermost first.
    pub fn current_dims(&self) -> Vec<DimId> {
        self.frames
            .iter()
            .filter_map(|f| f.looph.as_ref().map(|(d, ..)| *d))
            .collect()
    }

    /// Finalizes the program.
    ///
    /// # Panics
    /// Panics if loops remain open.
    pub fn finish(mut self) -> Program {
        assert_eq!(self.frames.len(), 1, "unclosed loops at finish()");
        let root = self.frames.pop().unwrap();
        Program {
            name: self.name,
            params: self.params,
            arrays: self.arrays,
            stmts: self.stmts,
            body: root.body,
            num_dims: self.loops.len() as u32,
            loops: self.loops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Program {
        // for k in 0..N { S0; for i in 0..M { S1 } }
        let mut b = ProgramBuilder::new("toy", &["M", "N"]);
        let a = b.array("A", &[b.p("M")]);
        let s = b.scalar("acc");
        let k = b.open("k", b.c(0), b.p("N"));
        b.stmt("S0", vec![], vec![Access::new(s, vec![])]);
        let i = b.open("i", b.c(0), b.p("M"));
        let rd = Access::new(a, vec![b.d(i)]);
        let _ = k;
        b.stmt(
            "S1",
            vec![rd, Access::new(s, vec![])],
            vec![Access::new(s, vec![])],
        );
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn builder_shapes() {
        let p = toy();
        assert_eq!(p.params, vec!["M", "N"]);
        assert_eq!(p.stmts.len(), 2);
        assert_eq!(p.stmt(StmtId(0)).dims.len(), 1);
        assert_eq!(p.stmt(StmtId(1)).dims.len(), 2);
        assert_eq!(p.num_dims, 2);
        assert_eq!(p.loop_info(DimId(1)).outer, vec![DimId(0)]);
        assert_eq!(p.stmt_id("S1"), Some(StmtId(1)));
        assert_eq!(p.array_id("A"), Some(ArrayId(0)));
        assert_eq!(p.param_id("N"), Some(ParamId(1)));
    }

    #[test]
    fn common_dims_prefix() {
        let p = toy();
        let c = p.common_dims(StmtId(0), StmtId(1));
        assert_eq!(c, vec![DimId(0)]);
        assert_eq!(p.common_dims(StmtId(1), StmtId(1)).len(), 2);
    }

    #[test]
    fn array_extents_evaluate() {
        let p = toy();
        assert_eq!(p.array_extents(ArrayId(0), &[7, 3]), vec![7]);
        assert_eq!(p.array_len(ArrayId(1), &[7, 3]), 1);
    }

    #[test]
    #[should_panic(expected = "unclosed loops")]
    fn unclosed_loop_panics() {
        let mut b = ProgramBuilder::new("bad", &["N"]);
        b.open("k", b.c(0), b.p("N"));
        let _ = b.finish();
    }

    #[test]
    fn positions_are_schedule_order() {
        let p = toy();
        assert!(p.stmt(StmtId(0)).position < p.stmt(StmtId(1)).position);
    }
}
