//! Loop-tiling schedule transformations.
//!
//! [`tile_program`] rewrites a [`Program`]'s loop tree so that statement
//! instances are enumerated in *blocked* order while every instance keeps
//! its original iteration vector and declared accesses. This is the
//! upper-bound half of the tightness harness: the transformed program's
//! instances are enumerated to produce a reordered schedule whose measured
//! I/O is compared against the derived lower bounds.
//!
//! The transformation is classical strip-mine + interchange:
//!
//! 1. **Strip-mine** every loop named by a [`TileSpec`]: `for v in lo..hi`
//!    becomes `for v_t in lo..hi step T { for v in v_t..min(hi, v_t + T) }`.
//!    This alone never reorders anything.
//! 2. **Hoist** each tile loop `v_t` outward: while its parent is a
//!    non-tile loop `w` whose body is exactly `[v_t]` and none of `v_t`'s
//!    bounds reference `w`'s dimension, interchange the two. Tile loops
//!    never hoist past each other, so they end up outermost in their
//!    original relative order — the standard `i_t j_t … i j …` tile shape
//!    on perfect nests (imperfect nests simply hoist as far as the
//!    statement placement allows; triangular bounds stop hoisting at the
//!    loop they reference).
//!
//! The transformation preserves the *instance multiset* by construction
//! (each original loop still enumerates exactly its original index set),
//! which a property test pins down. It does **not** check dependence
//! legality of the interchange — downstream consumers do: the tuner
//! compares every access's cell version with program order, and the pebble
//! game rejects non-topological schedules.
//!
//! Statements are copied from the source program, keep their original
//! `dims` vectors, and therefore produce identical iteration vectors: the
//! new tile dimensions are pure control structure that no access ever
//! references.

use crate::affine::{Aff, DimId};
use crate::interp::for_each_instance;
use crate::program::{Loop, LoopInfo, LoopStep, Program, Step, StmtId};

/// One tiling directive: tile every loop with this name by `size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpec {
    /// Loop-variable name (a program may reuse a name at several nesting
    /// sites; all of them are tiled).
    pub loop_name: String,
    /// Tile size (≥ 1; size 1 turns the tile loop into a pure interchange
    /// driver).
    pub size: i64,
}

impl TileSpec {
    /// Builds a spec.
    pub fn new(loop_name: &str, size: i64) -> TileSpec {
        TileSpec {
            loop_name: loop_name.to_string(),
            size,
        }
    }
}

/// Applies strip-mine + hoist tiling to every loop named by `tiles`.
///
/// The returned program enumerates exactly the same statement instances
/// (same statements, same iteration vectors, same declared and performed
/// accesses) in blocked order. Loops are shared by name: a spec tiles every
/// loop carrying that name.
///
/// # Errors
/// Rejects empty/duplicate/unknown loop names, non-positive sizes, and
/// loops that are strided or reversed (only unit-step forward loops tile).
pub fn tile_program(program: &Program, tiles: &[TileSpec]) -> Result<Program, String> {
    if tiles.is_empty() {
        return Err("tile_program needs at least one TileSpec".to_string());
    }
    for (i, t) in tiles.iter().enumerate() {
        if t.size < 1 {
            return Err(format!("tile size for {} must be ≥ 1", t.loop_name));
        }
        if tiles[..i].iter().any(|u| u.loop_name == t.loop_name) {
            return Err(format!("duplicate tile directive for loop {}", t.loop_name));
        }
        let named: Vec<&LoopInfo> = program
            .loops
            .iter()
            .filter(|l| l.name == t.loop_name)
            .collect();
        if named.is_empty() {
            let known: Vec<&str> = program.loops.iter().map(|l| l.name.as_str()).collect();
            return Err(format!(
                "no loop named {} (program has: {})",
                t.loop_name,
                known.join(", ")
            ));
        }
        for l in named {
            if l.step != LoopStep::One || l.reverse {
                return Err(format!(
                    "loop {} is strided or reversed — only unit-step forward loops tile",
                    t.loop_name
                ));
            }
        }
    }

    // Pass 1: strip-mine matching loops, allocating tile dims past the
    // original dim space so statement metadata stays untouched.
    let mut next_dim = program.num_dims;
    let mut tile_dims: Vec<(DimId, LoopStep)> = Vec::new();
    let body: Vec<Step> = program
        .body
        .iter()
        .map(|s| strip_step(s, tiles, &mut next_dim, &mut tile_dims))
        .collect();

    // Pass 2: hoist tile loops outward.
    let is_tile = |d: DimId| tile_dims.iter().any(|&(t, _)| t == d);
    let body: Vec<Step> = body.into_iter().map(|s| hoist_step(s, &is_tile)).collect();

    // Pass 3: rebuild the flat loop-metadata table from the final tree.
    let mut loops: Vec<LoopInfo> = program.loops.clone();
    loops.resize(
        next_dim as usize,
        LoopInfo {
            name: String::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            step: LoopStep::One,
            reverse: false,
            outer: Vec::new(),
        },
    );
    let mut stack: Vec<DimId> = Vec::new();
    for s in &body {
        refresh_loop_info(s, &mut loops, &mut stack);
    }

    Ok(Program {
        name: program.name.clone(),
        params: program.params.clone(),
        arrays: program.arrays.clone(),
        stmts: program.stmts.clone(),
        body,
        num_dims: next_dim,
        loops,
    })
}

/// Strip-mines one step (recursively).
fn strip_step(
    step: &Step,
    tiles: &[TileSpec],
    next_dim: &mut u32,
    tile_dims: &mut Vec<(DimId, LoopStep)>,
) -> Step {
    match step {
        Step::Stmt(id) => Step::Stmt(*id),
        Step::Loop(l) => {
            let body: Vec<Step> = l
                .body
                .iter()
                .map(|s| strip_step(s, tiles, next_dim, tile_dims))
                .collect();
            let spec = tiles.iter().find(|t| t.loop_name == l.name);
            match spec {
                None => Step::Loop(Loop {
                    dim: l.dim,
                    name: l.name.clone(),
                    lo: l.lo.clone(),
                    hi: l.hi.clone(),
                    step: l.step,
                    reverse: l.reverse,
                    body,
                }),
                Some(t) => {
                    let tdim = DimId(*next_dim);
                    *next_dim += 1;
                    let tstep = if t.size == 1 {
                        LoopStep::One
                    } else {
                        LoopStep::Const(t.size)
                    };
                    tile_dims.push((tdim, tstep));
                    // Intra-tile loop: runs v_t .. min(orig his…, v_t + T).
                    let mut hi = l.hi.clone();
                    hi.push(Aff::dim(tdim) + t.size);
                    let intra = Loop {
                        dim: l.dim,
                        name: l.name.clone(),
                        lo: vec![Aff::dim(tdim)],
                        hi,
                        step: LoopStep::One,
                        reverse: false,
                        body,
                    };
                    Step::Loop(Loop {
                        dim: tdim,
                        name: format!("{}_t", l.name),
                        lo: l.lo.clone(),
                        hi: l.hi.clone(),
                        step: tstep,
                        reverse: false,
                        body: vec![Step::Loop(intra)],
                    })
                }
            }
        }
    }
}

/// Hoists tile loops bottom-up.
fn hoist_step(step: Step, is_tile: &impl Fn(DimId) -> bool) -> Step {
    match step {
        Step::Stmt(id) => Step::Stmt(id),
        Step::Loop(mut l) => {
            l.body = l.body.into_iter().map(|s| hoist_step(s, is_tile)).collect();
            if is_tile(l.dim) {
                // Tile loops never hoist past each other: their original
                // relative order is the outer tile-band order.
                Step::Loop(l)
            } else {
                Step::Loop(rotate(l, is_tile))
            }
        }
    }
}

/// While non-tile `w`'s body is exactly one tile loop whose bounds do not
/// reference `w.dim`, interchange the two. Recurses because after one
/// rotation the sunken `w` may face another singleton tile loop.
fn rotate(mut w: Loop, is_tile: &impl Fn(DimId) -> bool) -> Loop {
    let can = match w.body.as_slice() {
        [Step::Loop(v)] => is_tile(v.dim) && !bounds_use_dim(v, w.dim),
        _ => false,
    };
    if !can {
        return w;
    }
    let Some(Step::Loop(mut v)) = w.body.pop() else {
        unreachable!("checked singleton loop body");
    };
    w.body = std::mem::take(&mut v.body);
    let sunk = rotate(w, is_tile);
    v.body = vec![Step::Loop(sunk)];
    v
}

/// True when any bound of `l` references dimension `d`.
fn bounds_use_dim(l: &Loop, d: DimId) -> bool {
    l.lo.iter().chain(l.hi.iter()).any(|a| a.dim_coeff(d) != 0)
}

/// Rewrites `loops[dim]` entries from the final tree shape (bounds and
/// outer chains change under strip-mining and interchange).
fn refresh_loop_info(step: &Step, loops: &mut [LoopInfo], stack: &mut Vec<DimId>) {
    if let Step::Loop(l) = step {
        loops[l.dim.0 as usize] = LoopInfo {
            name: l.name.clone(),
            lo: l.lo.clone(),
            hi: l.hi.clone(),
            step: l.step,
            reverse: l.reverse,
            outer: stack.clone(),
        };
        stack.push(l.dim);
        for s in &l.body {
            refresh_loop_info(s, loops, stack);
        }
        stack.pop();
    }
}

/// Enumerates `(stmt, iv)` for every statement instance in schedule order —
/// the iteration vector is the statement's own `dims` slice, so tiled and
/// untiled enumerations of the same program yield identical multisets
/// (property-tested) in different orders.
pub fn enumerate_instances(program: &Program, params: &[i64]) -> Vec<(StmtId, Vec<i32>)> {
    let mut out = Vec::new();
    for_each_instance(program, params, |stmt, dims| {
        let s = program.stmt(stmt);
        out.push((
            stmt,
            s.dims.iter().map(|d| dims[d.0 as usize] as i32).collect(),
        ));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    const GEMM_SPLIT: &str = "
kernel gemm_split(M, N, K) {
  array A[M][K];
  array B[K][N];
  array C[M][N];

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

    fn sorted(mut v: Vec<(StmtId, Vec<i32>)>) -> Vec<(StmtId, Vec<i32>)> {
        v.sort();
        v
    }

    #[test]
    fn tiling_preserves_instance_multiset() {
        let p = parse_program(GEMM_SPLIT).unwrap();
        let tiled = tile_program(
            &p,
            &[
                TileSpec::new("i", 3),
                TileSpec::new("j", 2),
                TileSpec::new("k", 1),
            ],
        )
        .unwrap();
        let params = [7, 5, 4];
        let a = enumerate_instances(&p, &params);
        let b = enumerate_instances(&tiled, &params);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "tiling must actually reorder this nest");
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn perfect_nest_hoists_tile_band_outermost() {
        let p = parse_program(GEMM_SPLIT).unwrap();
        let tiled = tile_program(&p, &[TileSpec::new("i", 4), TileSpec::new("j", 4)]).unwrap();
        // Update nest must now open with i_t then j_t (tile band in the
        // original loop order), then the intra loops.
        let Step::Loop(outer) = &tiled.body[1] else {
            panic!("update nest is a loop");
        };
        assert_eq!(outer.name, "i_t");
        let Step::Loop(second) = &outer.body[0] else {
            panic!("nested loop");
        };
        assert_eq!(second.name, "j_t");
        let Step::Loop(third) = &second.body[0] else {
            panic!("nested loop");
        };
        assert_eq!(third.name, "i");
        // Loop metadata got refreshed: j_t's outer chain contains i_t only.
        let jt = tiled
            .loops
            .iter()
            .position(|l| l.name == "j_t" && !l.outer.is_empty())
            .map(|i| &tiled.loops[i])
            .expect("j_t metadata");
        assert_eq!(jt.outer.len(), 1);
    }

    #[test]
    fn triangular_bound_stops_hoisting() {
        // for k { for j in k+1..N { for i { S } } }: tiling j cannot hoist
        // j_t past k (its bounds reference k).
        let src = "
kernel tri(M, N) {
  array A[M][N];
  for k in 0..N {
    for j in k + 1..N {
      for i in 0..M {
        S: A[i][j] = op(A[i][k]);
      }
    }
  }
}
";
        let p = parse_program(src).unwrap();
        let tiled = tile_program(&p, &[TileSpec::new("j", 2)]).unwrap();
        let Step::Loop(k) = &tiled.body[0] else {
            panic!()
        };
        assert_eq!(k.name, "k");
        let Step::Loop(jt) = &k.body[0] else { panic!() };
        assert_eq!(jt.name, "j_t");
        let params = [6, 5];
        assert_eq!(
            sorted(enumerate_instances(&p, &params)),
            sorted(enumerate_instances(&tiled, &params))
        );
    }

    #[test]
    fn tile_size_one_is_an_interchange_driver() {
        let p = parse_program(GEMM_SPLIT).unwrap();
        let tiled = tile_program(&p, &[TileSpec::new("k", 1)]).unwrap();
        // k_t hoists past j and i up to the nest root: per-(k) sweeps over
        // the full (i, j) plane.
        let Step::Loop(outer) = &tiled.body[1] else {
            panic!()
        };
        assert_eq!(outer.name, "k_t");
        let params = [4, 3, 5];
        assert_eq!(
            sorted(enumerate_instances(&p, &params)),
            sorted(enumerate_instances(&tiled, &params))
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        let p = parse_program(GEMM_SPLIT).unwrap();
        assert!(tile_program(&p, &[]).unwrap_err().contains("at least one"));
        assert!(tile_program(&p, &[TileSpec::new("z", 2)])
            .unwrap_err()
            .contains("no loop named z"));
        assert!(tile_program(&p, &[TileSpec::new("i", 0)])
            .unwrap_err()
            .contains("≥ 1"));
        assert!(
            tile_program(&p, &[TileSpec::new("i", 2), TileSpec::new("i", 4)])
                .unwrap_err()
                .contains("duplicate")
        );
        let rev =
            parse_program("kernel r(N) { array A[N]; for i in reverse 0..N { S: A[i] = op(); } }")
                .unwrap();
        assert!(tile_program(&rev, &[TileSpec::new("i", 2)])
            .unwrap_err()
            .contains("strided or reversed"));
    }
}
