//! The dense producer observer (`iolb_ir::deps::observe_producers_with_aliases`)
//! against a reference that keeps every per-access structure in ordered
//! maps: both must report identical `Observations` and `AliasPairs` on
//! every shipped kernel at small parameters and on generated kernels.

use iolb_fuzz::gen::{generate_case, GenConfig};
use iolb_ir::deps::{observe_producers_with_aliases, AliasPairs, Observations, Producer};
use iolb_ir::{for_each_instance, Access, Aff, ArrayId, Program, StmtId};
use std::collections::BTreeMap;
use std::path::Path;

/// The map-based observer: a plain instance walk evaluating every
/// subscript with [`Aff::eval_with`], last writers and the current
/// instance's read cells in `BTreeMap`s, observations inserted per access.
/// An instance reads every declared read before it writes.
fn reference_observe(program: &Program, params: &[i64]) -> (Observations, AliasPairs) {
    let strides: Vec<Vec<usize>> = (0..program.arrays.len())
        .map(|a| program.array_strides(ArrayId(a as u32), params))
        .collect();
    let mut last_writer: BTreeMap<(u32, usize), StmtId> = BTreeMap::new();
    let mut obs = Observations::new();
    let mut aliases = AliasPairs::new();
    for_each_instance(program, params, |stmt, env| {
        let cell = |a: &Access| -> (u32, usize) {
            let value = |e: &Aff| e.eval_with(&|d| env[d.0 as usize], &|p| params[p.0 as usize]);
            let st = &strides[a.array.0 as usize];
            let flat = a.idx.iter().zip(st).map(|(e, s)| s * value(e) as usize);
            (a.array.0, flat.sum())
        };
        let s = program.stmt(stmt);
        let mut reads: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
        for (i, r) in s.reads.iter().enumerate() {
            reads.entry(cell(r)).or_default().push(i);
        }
        for (key, idxs) in &reads {
            let producer = last_writer
                .get(key)
                .map(|w| Producer::Stmt(*w))
                .unwrap_or(Producer::Input);
            for (k, &a) in idxs.iter().enumerate() {
                obs.entry((stmt, a)).or_default().insert(producer);
                for &b in &idxs[k + 1..] {
                    aliases.insert((stmt, a, b));
                }
            }
        }
        for w in &s.writes {
            last_writer.insert(cell(w), stmt);
        }
    });
    (obs, aliases)
}

/// Asserts both observers agree; returns what they observed.
fn assert_same(what: &str, program: &Program, params: &[i64]) -> (Observations, AliasPairs) {
    let dense = observe_producers_with_aliases(program, params)
        .unwrap_or_else(|e| panic!("{what} {params:?}: {e}"));
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
