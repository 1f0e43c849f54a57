//! Execution helpers: run an IR kernel on concrete matrices and extract the
//! results, so numerics tests can compare the IR semantics against the
//! native implementations bit-for-bit (same operation order).

use crate::interp::{Executable, Interpreter, Store};
use crate::matrix::Matrix;
use iolb_ir::{ArrayId, Program};

/// Runs `exe` with named array inputs (row-major); unnamed arrays start at
/// zero. Returns the final store.
pub fn run_with_inputs(exe: &Executable, params: &[i64], inputs: &[(&str, &[f64])]) -> Store {
    let arrays = &exe.program.arrays;
    let input = |a: ArrayId| inputs.iter().find(|(n, _)| *n == arrays[a.0 as usize].name);
    Interpreter::new(exe, params).run_numeric(|a, f| input(a).map_or(0.0, |(_, v)| v[f]))
}

/// Extracts a named 2-D array from a store as a [`Matrix`].
///
/// # Panics
/// Panics when the array is unknown or its flat size mismatches.
pub fn extract_matrix(program: &Program, params: &[i64], store: &Store, name: &str) -> Matrix {
    let id = program
        .array_id(name)
        .unwrap_or_else(|| panic!("unknown array {name}"));
    let extents = program.array_extents(id, params);
    assert_eq!(extents.len(), 2, "extract_matrix needs a 2-D array");
    let data = store.data[id.0 as usize].clone();
    assert_eq!(data.len(), extents[0] * extents[1]);
    Matrix {
        rows: extents[0],
        cols: extents[1],
        data,
    }
}

/// Extracts a named 1-D array.
///
/// # Panics
/// Panics when the array is unknown or not 1-D.
pub fn extract_vector(program: &Program, params: &[i64], store: &Store, name: &str) -> Vec<f64> {
    let id = program
        .array_id(name)
        .unwrap_or_else(|| panic!("unknown array {name}"));
    let extents = program.array_extents(id, params);
    assert_eq!(extents.len(), 1, "extract_vector needs a 1-D array");
    store.data[id.0 as usize].clone()
}
