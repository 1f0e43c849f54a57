//! The paper kernels' f64 semantics and their interpreter.
//!
//! Production analyses read a statement as its declared accesses alone
//! (`iolb_ir::interp`). This crate attaches hand-written f64 closures —
//! the numerical ground truth — to the statements of the parsed `.iolb`
//! files by label ([`Executable::attach`]), and this module executes them
//! in schedule order, carrying real array contents and streaming every
//! performed access into an [`ExecSink`]:
//!
//! * **numerics** — running a kernel file and checking its mathematical
//!   output against the native implementations,
//! * **certification** — [`validate_accesses`] checks the declared affine
//!   accesses against the performed ones on every executed instance.
//!
//! The store's per-array lengths are read off [`DeclaredAccesses`].

use iolb_ir::interp::DeclaredAccesses;
use iolb_ir::{for_each_instance, ArrayId, Program, StmtId};
use std::collections::BTreeSet;
use std::sync::Arc;

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
}

/// Sink that ignores everything (pure numeric runs).
#[derive(Debug, Default)]
pub struct NullSink;

impl ExecSink for NullSink {}

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
        let cells = DeclaredAccesses::bind(program, params);
        let ids = (0..program.arrays.len()).map(|i| ArrayId(i as u32));
        let data = ids
            .clone()
            .map(|id| (0..cells.array_cells(id)).map(|f| init(id, f)).collect())
            .collect();
        Store {
            data,
            strides: ids.map(|id| program.array_strides(id, params)).collect(),
        }
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
}

/// Statement execution context handed to semantic closures.
pub struct ExecCtx<'a> {
    iv: &'a [i64],
    store: &'a mut Store,
    sink: &'a mut dyn ExecSink,
}

impl ExecCtx<'_> {
    /// Value of the `i`-th enclosing loop (outermost first).
    pub fn v(&self, i: usize) -> i64 {
        self.iv[i]
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

/// The f64 semantics of one statement: executes one instance through the
/// interpreter context (which records the performed accesses).
pub type ComputeFn = Arc<dyn Fn(&mut ExecCtx<'_>) + Send + Sync>;

/// A kernel's f64 semantics, keyed by statement label.
#[derive(Default)]
pub struct Semantics(Vec<(&'static str, ComputeFn)>);

impl Semantics {
    /// Adds the semantics of the statement labelled `label`.
    pub fn on(
        mut self,
        label: &'static str,
        compute: impl Fn(&mut ExecCtx<'_>) + Send + Sync + 'static,
    ) -> Semantics {
        self.0.push((label, Arc::new(compute)));
        self
    }
}

/// A semantics table: builds a kernel's [`Semantics`] for a program,
/// resolving the arrays its closures touch with [`array_ids`].
pub type Table = fn(&Program) -> Result<Semantics, String>;

/// The ids of `names` in `program`, in order.
///
/// # Errors
/// Names the first array the program does not declare.
pub fn array_ids<const N: usize>(
    program: &Program,
    names: [&str; N],
) -> Result<[ArrayId; N], String> {
    let mut ids = [ArrayId(0); N];
    for (id, name) in ids.iter_mut().zip(names) {
        *id = program
            .array_id(name)
            .ok_or_else(|| format!("{}: no array `{name}`", program.name))?;
    }
    Ok(ids)
}

/// A program with f64 semantics for each of its statements.
#[derive(Clone)]
pub struct Executable {
    /// The program (declared accesses and schedule).
    pub program: Program,
    /// Per-statement semantics, indexed by [`StmtId`].
    semantics: Vec<ComputeFn>,
}

impl Executable {
    /// Binds the semantics `table` builds for `program` to its statements
    /// by label.
    ///
    /// # Errors
    /// Refuses a table entry whose label matches no statement or repeats an
    /// earlier one, and a statement the table leaves without semantics;
    /// the message names the label. A table naming an array the program
    /// lacks fails with that array's name.
    pub fn attach(
        program: Program,
        table: impl FnOnce(&Program) -> Result<Semantics, String>,
    ) -> Result<Executable, String> {
        let Semantics(defs) = table(&program)?;
        let mut semantics: Vec<Option<ComputeFn>> = vec![None; program.stmts.len()];
        for (label, compute) in defs {
            let id = program.stmt_id(label).ok_or_else(|| {
                format!(
                    "{}: semantics for `{label}` match no statement",
                    program.name
                )
            })?;
            if semantics[id.0 as usize].replace(compute).is_some() {
                return Err(format!(
                    "{}: duplicate semantics for `{label}`",
                    program.name
                ));
            }
        }
        let semantics = semantics
            .into_iter()
            .zip(&program.stmts)
            .map(|(compute, s)| {
                compute.ok_or_else(|| {
                    format!("{}: statement `{}` has no semantics", program.name, s.name)
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Executable { program, semantics })
    }
}

/// Schedule-order interpreter for one program instantiation.
pub struct Interpreter<'p> {
    exe: &'p Executable,
    params: Vec<i64>,
}

impl<'p> Interpreter<'p> {
    /// Binds `exe` to concrete parameter values (same order as
    /// `exe.program.params`).
    pub fn new(exe: &'p Executable, params: &[i64]) -> Interpreter<'p> {
        assert_eq!(
            params.len(),
            exe.program.params.len(),
            "parameter count mismatch"
        );
        Interpreter {
            exe,
            params: params.to_vec(),
        }
    }

    /// Executes the program over `store`, streaming events into `sink`.
    pub fn run<S: ExecSink>(&self, store: &mut Store, sink: &mut S) {
        let program = &self.exe.program;
        let mut iv: Vec<i64> = Vec::new();
        for_each_instance(program, &self.params, |id, dims| {
            iv.clear();
            iv.extend(program.stmt(id).dims.iter().map(|d| dims[d.0 as usize]));
            sink.on_stmt(id, &iv);
            let mut ctx = ExecCtx {
                iv: &iv,
                store,
                sink,
            };
            (self.exe.semantics[id.0 as usize])(&mut ctx);
        });
    }

    /// Convenience: fresh store from `init`, run with [`NullSink`].
    pub fn run_numeric(&self, init: impl FnMut(ArrayId, usize) -> f64) -> Store {
        let mut store = Store::init(&self.exe.program, &self.params, init);
        self.run(&mut store, &mut NullSink);
        store
    }
}

/// Certifies declared accesses against performed accesses.
///
/// Runs the program once; for every statement instance, the set of distinct
/// `(array, cell)` pairs touched by the semantic closure must equal the set
/// described by the declared affine accesses evaluated at the instance's
/// iteration vector. Returns the number of certified instances.
///
/// # Errors
/// Returns a human-readable description of the first mismatch or of a
/// declared access outside its array.
pub fn validate_accesses(exe: &Executable, params: &[i64]) -> Result<u64, String> {
    type Cells = BTreeSet<(u32, usize)>;
    /// Every executed instance: statement, iteration vector, and the
    /// performed read and write cells.
    #[derive(Default)]
    struct Run(Vec<(StmtId, Vec<i64>, Cells, Cells)>);
    impl ExecSink for Run {
        fn on_stmt(&mut self, stmt: StmtId, iv: &[i64]) {
            self.0.push((stmt, iv.to_vec(), Cells::new(), Cells::new()));
        }
        fn on_read(&mut self, array: ArrayId, flat: usize) {
            let current = self.0.last_mut().expect("reads happen inside an instance");
            current.2.insert((array.0, flat));
        }
        fn on_write(&mut self, array: ArrayId, flat: usize) {
            let current = self.0.last_mut().expect("writes happen inside an instance");
            current.3.insert((array.0, flat));
        }
    }

    let program = &exe.program;
    let mut run = Run::default();
    let mut store = Store::init(program, params, |a, f| (a.0 as f64) + f as f64 * 0.25 + 1.0);
    Interpreter::new(exe, params).run(&mut store, &mut run);

    let declared = DeclaredAccesses::bind(program, params);
    let mut env = vec![0; program.num_dims as usize];
    for (stmt, iv, got_reads, got_writes) in &run.0 {
        let s = program.stmt(*stmt);
        for (d, &v) in s.dims.iter().zip(iv) {
            env[d.0 as usize] = v;
        }
        let mut reads = Cells::new();
        for (r, a) in s.reads.iter().enumerate() {
            let cell = declared.read(*stmt, r, &env).map_err(|e| e.to_string())?;
            reads.insert((a.array.0, cell - declared.base(a.array)));
        }
        let mut writes = Cells::new();
        for (w, a) in s.writes.iter().enumerate() {
            let cell = declared.write(*stmt, w, &env).map_err(|e| e.to_string())?;
            writes.insert((a.array.0, cell - declared.base(a.array)));
        }
        if reads != *got_reads || writes != *got_writes {
            return Err(format!(
                "access mismatch in {}[{iv:?}]: declared reads {reads:?} performed {got_reads:?}; \
                 declared writes {writes:?} performed {got_writes:?}",
                s.name
            ));
        }
    }
    Ok(run.0.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_ir::{parse_program, TileSpec};

    /// `S` declares the read `x[i]` and the write `y[i]`.
    fn xy() -> Program {
        parse_program(
            "kernel xy(N) { array x[N]; array y[N]; for i in 0..N { S: y[i] = op(x[i]); } }",
        )
        .unwrap()
    }

    /// `xy` whose `S` doubles: `y[i] = 2*x[i]`.
    fn scale_prog() -> Executable {
        Executable::attach(xy(), |p| {
            let [x, y] = array_ids(p, ["x", "y"])?;
            Ok(Semantics::default().on("S", move |c| {
                let v = 2.0 * c.rd(x, &[c.v(0)]);
                c.wr(y, &[c.v(0)], v);
            }))
        })
        .unwrap()
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
        /// Records `(array, flat, is_write)` per performed access.
        #[derive(Default)]
        struct Recorder(Vec<(u32, usize, bool)>);
        impl ExecSink for Recorder {
            fn on_read(&mut self, array: ArrayId, flat: usize) {
                self.0.push((array.0, flat, false));
            }
            fn on_write(&mut self, array: ArrayId, flat: usize) {
                self.0.push((array.0, flat, true));
            }
        }
        let p = scale_prog();
        let interp = Interpreter::new(&p, &[3]);
        let mut sink = Recorder::default();
        let mut store = Store::init(&p.program, &[3], |_, _| 0.0);
        interp.run(&mut store, &mut sink);
        // 3 instances × (read x[i], write y[i]).
        let expected: Vec<_> = (0..3).flat_map(|i| [(0, i, false), (1, i, true)]).collect();
        assert_eq!(sink.0, expected);
    }

    #[test]
    fn validation_accepts_consistent_program() {
        let p = scale_prog();
        let n = validate_accesses(&p, &[7]).expect("consistent");
        assert_eq!(n, 7);
    }

    /// A legal tiling of the GEMM file computes the same final store as
    /// program order, bit for bit.
    #[test]
    fn tiled_numeric_store_matches_untiled_when_legal() {
        let program = crate::program("gemm");
        let tiles = [
            TileSpec::new("i", 2),
            TileSpec::new("j", 3),
            TileSpec::new("k", 1),
        ];
        // Tiling keeps every statement's label and iteration vector, so the
        // semantics attach unchanged.
        let tiled = iolb_ir::tile_program(&program, &tiles).unwrap();
        let tiled = Executable::attach(tiled, crate::gemm::semantics).unwrap();
        let p = Executable::attach(program, crate::gemm::semantics).unwrap();
        let params = [6, 5, 4];
        let init = |a: ArrayId, f: usize| (a.0 as f64) * 3.0 + f as f64 * 0.5 + 1.0;
        let base = Interpreter::new(&p, &params).run_numeric(init);
        let got = Interpreter::new(&tiled, &params).run_numeric(init);
        assert_eq!(base.data, got.data, "legal tiling is semantics-preserving");
    }

    /// Each refusal of `attach` names the offending label.
    #[test]
    fn attach_refuses_missing_extra_and_duplicate_labels() {
        let table = |labels: &'static [&'static str]| {
            move |_: &Program| {
                Ok(labels
                    .iter()
                    .fold(Semantics::default(), |sem, l| sem.on(l, |_| {})))
            }
        };
        let refusal = |labels| Executable::attach(xy(), table(labels)).err().unwrap();
        assert_eq!(refusal(&[]), "xy: statement `S` has no semantics");
        assert_eq!(
            refusal(&["S", "T"]),
            "xy: semantics for `T` match no statement"
        );
        assert_eq!(refusal(&["S", "S"]), "xy: duplicate semantics for `S`");
        let unknown =
            Executable::attach(xy(), |p| array_ids(p, ["z"]).map(|_| Semantics::default()));
        assert_eq!(unknown.err().unwrap(), "xy: no array `z`");
        assert!(Executable::attach(xy(), table(&["S"])).is_ok());
    }

    /// `xy` whose `S` runs `compute`, whatever it actually accesses.
    fn liar(compute: impl Fn(&mut ExecCtx<'_>) + Send + Sync + 'static) -> Executable {
        Executable::attach(xy(), |_| Ok(Semantics::default().on("S", compute))).unwrap()
    }

    #[test]
    fn validation_rejects_lying_metadata() {
        // Declared read x[i], but closure reads x[0].
        let p = liar(|c| {
            let v = c.rd(ArrayId(0), &[0]);
            c.wr(ArrayId(1), &[c.v(0)], v);
        });
        let err = validate_accesses(&p, &[3]).unwrap_err();
        assert!(err.contains("access mismatch"), "got: {err}");
    }

    /// The mismatch report names the first deviating instance and prints
    /// the declared and performed cells as sorted sets. Here the closure
    /// also reads the undeclared cell `x[0]` (declared only at `i = 0`), and
    /// reads it twice at `i = 2`: a repeated access is one set member.
    #[test]
    fn validation_pins_the_mismatch_message() {
        let p = liar(|c| {
            let (x, y) = (ArrayId(0), ArrayId(1));
            let v = c.rd(x, &[c.v(0)]) + c.rd(x, &[0]) + c.rd(x, &[0]);
            c.wr(y, &[c.v(0)], v);
        });
        assert_eq!(
            validate_accesses(&p, &[4]).unwrap_err(),
            "access mismatch in S[[1]]: declared reads {(0, 1)} performed {(0, 0), (0, 1)}; \
             declared writes {(1, 1)} performed {(1, 1)}"
        );
    }
}
