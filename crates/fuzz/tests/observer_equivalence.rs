//! The dense producer observer (`iolb_ir::deps::observe_producers_with_aliases`)
//! against a reference that keeps every per-access structure in ordered
//! maps: both must report identical `Observations` and `AliasPairs` on
//! every shipped kernel at small parameters and on generated kernels.

use iolb_fuzz::gen::{generate_case, GenConfig};
use iolb_ir::deps::{observe_producers_with_aliases, AliasPairs, Observations, Producer};
use iolb_ir::interp::{ExecSink, Interpreter, Store};
use iolb_ir::{ArrayId, DimId, ParamId, Program, StmtId};
use std::collections::BTreeMap;
use std::path::Path;

/// The map-based observer: last writers and the current instance's
/// declared read cells in `BTreeMap`s, observations inserted per access.
fn reference_observe(program: &Program, params: &[i64]) -> (Observations, AliasPairs) {
    struct Observer<'p> {
        program: &'p Program,
        params: Vec<i64>,
        strides: Vec<Vec<usize>>,
        last_writer: BTreeMap<(u32, usize), StmtId>,
        current: Option<StmtId>,
        expected: BTreeMap<(u32, usize), Vec<usize>>,
        obs: Observations,
        aliases: AliasPairs,
    }

    impl Observer<'_> {
        fn flat(&self, access: &iolb_ir::Access, stmt: StmtId, iv: &[i64]) -> (u32, usize) {
            let dims = &self.program.stmt(stmt).dims;
            let dim_env = |d: DimId| {
                let pos = dims
                    .iter()
                    .position(|x| *x == d)
                    .expect("non-enclosing dim");
                iv[pos]
            };
            let par_env = |p: ParamId| self.params[p.0 as usize];
            let st = &self.strides[access.array.0 as usize];
            let mut f = 0usize;
            for (axis, a) in access.idx.iter().enumerate() {
                let v = a.eval_with(&dim_env, &par_env);
                f += st[axis] * v.max(0) as usize;
            }
            (access.array.0, f)
        }
    }

    impl ExecSink for Observer<'_> {
        fn on_stmt(&mut self, stmt: StmtId, iv: &[i64]) {
            self.current = Some(stmt);
            self.expected.clear();
            for (i, r) in self.program.stmt(stmt).reads.iter().enumerate() {
                let key = self.flat(r, stmt, iv);
                self.expected.entry(key).or_default().push(i);
            }
            for idxs in self.expected.values() {
                for (k, &a) in idxs.iter().enumerate() {
                    for &b in &idxs[k + 1..] {
                        self.aliases.insert((stmt, a.min(b), a.max(b)));
                    }
                }
            }
        }
        fn on_read(&mut self, array: ArrayId, flat: usize) {
            let stmt = self.current.expect("read outside a statement");
            let producer = self
                .last_writer
                .get(&(array.0, flat))
                .map(|s| Producer::Stmt(*s))
                .unwrap_or(Producer::Input);
            if let Some(idxs) = self.expected.get(&(array.0, flat)) {
                for &i in idxs {
                    self.obs.entry((stmt, i)).or_default().insert(producer);
                }
            }
        }
        fn on_write(&mut self, array: ArrayId, flat: usize) {
            let stmt = self.current.expect("write outside a statement");
            self.last_writer.insert((array.0, flat), stmt);
        }
    }

    let strides = (0..program.arrays.len())
        .map(|i| {
            let extents = program.array_extents(ArrayId(i as u32), params);
            let mut st = vec![1usize; extents.len()];
            for k in (0..extents.len().saturating_sub(1)).rev() {
                st[k] = st[k + 1] * extents[k + 1];
            }
            st
        })
        .collect();
    let mut obs = Observer {
        program,
        params: params.to_vec(),
        strides,
        last_writer: BTreeMap::new(),
        current: None,
        expected: BTreeMap::new(),
        obs: Observations::new(),
        aliases: AliasPairs::new(),
    };
    let mut store = Store::init(program, params, |a, f| 1.0 + a.0 as f64 + f as f64 * 0.125);
    Interpreter::new(program, params).run(&mut store, &mut obs);
    (obs.obs, obs.aliases)
}

/// Asserts both observers agree; returns what they observed.
fn assert_same(what: &str, program: &Program, params: &[i64]) -> (Observations, AliasPairs) {
    let dense = observe_producers_with_aliases(program, params);
    let reference = reference_observe(program, params);
    assert_eq!(
        dense.0, reference.0,
        "{what} {params:?}: observations differ"
    );
    assert_eq!(
        dense.1, reference.1,
        "{what} {params:?}: alias pairs differ"
    );
    dense
}

#[test]
fn dense_observer_matches_reference_on_shipped_kernels() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("kernels dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "iolb"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 11,
        "every shipped kernel, got {}",
        files.len()
    );
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read kernel");
        let kernel = iolb_ir::parse_kernel(&src).expect("shipped kernel parses");
        let defaults = kernel.default_params().expect("defaults cover all params");
        // Small sizes, and the one-smaller sibling the derivation observes.
        let small: Vec<i64> = defaults.iter().map(|&v| v.min(10)).collect();
        let sibling: Vec<i64> = small
            .iter()
            .map(|&v| if v > 3 { v - 1 } else { v })
            .collect();
        for params in [small, sibling] {
            let (obs, _) = assert_same(&path.display().to_string(), &kernel.program, &params);
            assert!(!obs.is_empty(), "{}: no read observed", path.display());
        }
    }
}

#[test]
fn dense_observer_matches_reference_on_generated_kernels() {
    let cfg = GenConfig::default();
    let (mut checked, mut multi_producer, mut aliased) = (0, 0, 0);
    for index in 0..240u64 {
        let case = generate_case(0x0B5E_57ED, index, &cfg);
        let kernel = iolb_ir::parse_kernel(&case.render())
            .unwrap_or_else(|e| panic!("case {index}: generated kernel must parse: {e}"));
        let params = kernel.default_params().expect("defaults cover all params");
        let (obs, aliases) = assert_same(&case.name, &kernel.program, &params);
        multi_producer += obs.values().filter(|p| p.len() > 1).count();
        aliased += aliases.len();
        checked += 1;
    }
    eprintln!("{checked} kernels: {multi_producer} multi-producer reads, {aliased} alias pairs");
    assert!(checked >= 200);
    // The comparison is not vacuous: generated kernels exercise both
    // mixed producer sets and pointwise read aliasing.
    assert!(multi_producer > 0 && aliased > 0);
}
