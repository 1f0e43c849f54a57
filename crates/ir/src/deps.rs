//! Structural dependence analysis: the source of the projections `Φ`.
//!
//! The K-partitioning method bounds a set `E` through projections derived
//! from *dependence paths* (§2, §4 of the paper): each read access of a
//! statement contributes the map from the consumer's iteration space to the
//! producing instance (or to the input data space). For the kernel class of
//! the paper the maps are computed by unifying the read subscript with the
//! candidate writer's subscript:
//!
//! * writer dims determined by unification map affinely to consumer dims →
//!   those consumer dims form the projection **support**;
//! * writer dims left free on a loop *common* to writer and reader resolve
//!   by last-writer: **same iteration** when the writer precedes the reader
//!   in the loop body (dim kept), **previous iteration** otherwise (a
//!   translation: the dim is dropped, per the Elango-style path-composition
//!   argument — this is what turns the self-dependence of `SU` on `A[i][j]`
//!   into the projection `φ_{i,j}`);
//! * free non-common dims (a producer's private reduction loop) are dropped.
//!
//! Because the unification is structural, it is *certified empirically*:
//! [`observe_producers_with_aliases`] walks the program's instances, evaluating the
//! declared accesses, and records for every read the actual set of
//! producing statements; [`analyze`] only accepts an observed producer set
//! that unification explains.

use crate::affine::{Aff, DimId};
use crate::interp::{walk, DeclaredAccesses, OutOfRange};
use crate::program::{ArrayId, Program, StmtId};
use std::collections::{BTreeMap, BTreeSet};

/// Producer of a read: a statement or the program input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Producer {
    /// Value read is a program input.
    Input,
    /// Value produced by this statement.
    Stmt(StmtId),
}

/// Result of unifying one read against one producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEdge {
    /// Consumer statement.
    pub consumer: StmtId,
    /// Index into the consumer's declared reads.
    pub read_idx: usize,
    /// The producer.
    pub producer: Producer,
    /// Consumer dims distinguishing the projection image (the `φ` dims).
    pub support: BTreeSet<DimId>,
    /// Common dims resolved to the *previous iteration* (temporal
    /// translations — hourglass detection keys on these).
    pub translated: BTreeSet<DimId>,
    /// Producer dims pinned by subscript unification, as affine
    /// expressions over consumer dims — the consumer→producer iteration
    /// map, used to *compose* dependence paths (a same-iteration
    /// producer's data requirement is its own reads' footprint, pulled
    /// back through this map). Empty for [`Producer::Input`].
    pub determined: BTreeMap<DimId, Aff>,
}

/// Per-read merged projection: union over observed producers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadProjection {
    /// Consumer statement.
    pub stmt: StmtId,
    /// Index into the consumer's declared reads.
    pub read_idx: usize,
    /// Array being read.
    pub array: ArrayId,
    /// Union of producer-edge supports.
    pub support: BTreeSet<DimId>,
    /// Union of translation dims.
    pub translated: BTreeSet<DimId>,
    /// The contributing edges.
    pub edges: Vec<FlowEdge>,
    /// Read indices of the *same statement* observed touching the same
    /// cell as this read in the same instance (pointwise aliasing). Two
    /// aliasing read families cannot be disjoint in-set regions, so the
    /// K-partition `m` refinement merges them.
    pub aliased: BTreeSet<usize>,
}

/// Observed producer families: `(consumer, read_idx) → {producers}`.
pub type Observations = BTreeMap<(StmtId, usize), BTreeSet<Producer>>;

/// Observed pointwise read aliases: `(stmt, read_a, read_b)` with
/// `read_a < read_b`, meaning some executed instance of `stmt` read the
/// same cell through both declared accesses.
pub type AliasPairs = BTreeSet<(StmtId, usize, usize)>;

/// Walks the program's instances at `params` and records, for every
/// declared read of every statement instance, which statement last wrote
/// the cell (or [`Producer::Input`] if none had), plus the pointwise
/// read-alias pairs (two declared reads of one instance landing on the
/// same cell).
///
/// Every per-access structure is dense: last writers are one `u32` per
/// cell of [`DeclaredAccesses`], the current instance's read cells a short
/// list scanned linearly, and observations flags per (statement, read,
/// producer) and per (statement, read pair) — converted to the ordered
/// [`Observations`] / [`AliasPairs`] once, after the walk. An instance
/// reads every declared read before it writes.
///
/// # Errors
/// The first declared access outside its array.
pub fn observe_producers_with_aliases(
    program: &Program,
    params: &[i64],
) -> Result<(Observations, AliasPairs), OutOfRange> {
    /// `last_writer` entry of a cell no statement has written: an input.
    const INPUT: u32 = u32::MAX;

    let mut read_base = Vec::with_capacity(program.stmts.len());
    let mut slots = 0;
    for s in &program.stmts {
        read_base.push(slots);
        slots += s.reads.len();
    }
    // Producer codes per observed read: `0` is the input, `s + 1`
    // statement `s`.
    let codes = program.stmts.len() + 1;
    let max_reads = program
        .stmts
        .iter()
        .map(|s| s.reads.len())
        .max()
        .unwrap_or(0);
    let accesses = DeclaredAccesses::bind(program, params);
    let mut last_writer = vec![INPUT; accesses.num_cells()];
    // `seen[(read_base[s] + r) * codes + code]`: read `r` of `s` was fed by
    // that producer; `aliased[(read_base[s] + a) * max_reads + b]` with
    // `a < b`.
    let mut seen = vec![false; slots * codes];
    let mut aliased = vec![false; slots * max_reads];
    let mut cells: Vec<usize> = Vec::new();
    walk(program, params, &mut |stmt, env| {
        let base = read_base[stmt.0 as usize];
        cells.clear();
        for r in 0..program.stmt(stmt).reads.len() {
            let cell = accesses.read(stmt, r, env)?;
            let code = match last_writer[cell] {
                INPUT => 0,
                s => s as usize + 1,
            };
            seen[(base + r) * codes + code] = true;
            for (a, &earlier) in cells.iter().enumerate() {
                if earlier == cell {
                    aliased[(base + a) * max_reads + r] = true;
                }
            }
            cells.push(cell);
        }
        for w in 0..program.stmt(stmt).writes.len() {
            last_writer[accesses.write(stmt, w, env)?] = stmt.0;
        }
        Ok(())
    })?;

    let mut observations = Observations::new();
    let mut aliases = AliasPairs::new();
    for (s_idx, stmt) in program.stmts.iter().enumerate() {
        let sid = StmtId(s_idx as u32);
        for r in 0..stmt.reads.len() {
            let slot = read_base[s_idx] + r;
            let producers: BTreeSet<Producer> = seen[slot * codes..(slot + 1) * codes]
                .iter()
                .enumerate()
                .filter(|(_, &seen)| seen)
                .map(|(code, _)| match code {
                    0 => Producer::Input,
                    c => Producer::Stmt(StmtId(c as u32 - 1)),
                })
                .collect();
            if !producers.is_empty() {
                observations.insert((sid, r), producers);
            }
            for b in r + 1..stmt.reads.len() {
                if aliased[slot * max_reads + b] {
                    aliases.insert((sid, r, b));
                }
            }
        }
    }
    Ok((observations, aliases))
}

/// Unifies read `r` of `consumer` against write `w` of `producer`.
///
/// Returns the flow edge (support + translations) or `None` when the
/// subscripts cannot be produced by that writer (or fall outside the
/// supported affine class).
pub fn unify(
    program: &Program,
    consumer: StmtId,
    read: &Aff_slice<'_>,
    producer: StmtId,
    write: &Aff_slice<'_>,
) -> Option<FlowEdge> {
    if read.array != write.array || read.idx.len() != write.idx.len() {
        return None;
    }
    let prod_dims = &program.stmt(producer).dims;
    // Determined producer dims: dim → affine expr over consumer dims.
    let mut determined: BTreeMap<DimId, Aff> = BTreeMap::new();
    for (f_d, g_d) in write.idx.iter().zip(read.idx.iter()) {
        let mut f = (*f_d).clone();
        let f_dims: Vec<(DimId, i64)> = f.dim_terms().to_vec();
        match f_dims.len() {
            0 => {
                // Subscript fixed by params/consts: must match syntactically.
                if f != *g_d {
                    return None;
                }
            }
            1 => {
                let (a, c) = f_dims[0];
                if c != 1 && c != -1 {
                    return None;
                }
                f.take_dim(a);
                // c*a + rest = g  →  a = c*(g - rest)  (c = ±1)
                let expr = (g_d.clone() - f) * c;
                match determined.get(&a) {
                    Some(prev) if *prev != expr => {
                        // Diagonal-style write (e.g. `A[k][k]`): the
                        // dependence exists on the constrained subset where
                        // both determinations agree. Keep the union of the
                        // consumer dims as (coarser, still valid) support.
                        let merged = prev.clone() + expr;
                        determined.insert(a, merged);
                    }
                    _ => {
                        determined.insert(a, expr);
                    }
                }
            }
            _ => return None,
        }
    }
    // Determined dims must be producer dims (sanity).
    for d in determined.keys() {
        if !prod_dims.contains(d) {
            return None;
        }
    }
    let common = program.common_dims(producer, consumer);
    let cons_dims = &program.stmt(consumer).dims;
    let mut support: BTreeSet<DimId> = BTreeSet::new();
    let mut translated: BTreeSet<DimId> = BTreeSet::new();
    for expr in determined.values() {
        for d in expr.dims_used() {
            // The expr is over consumer dims by construction.
            if cons_dims.contains(&d) {
                support.insert(d);
            } else {
                return None; // read subscript used a non-enclosing dim
            }
        }
    }
    let precedes = program.stmt(producer).position < program.stmt(consumer).position;
    for d in prod_dims {
        if determined.contains_key(d) {
            continue;
        }
        if common.contains(d) {
            if precedes {
                // Same-iteration last writer: the dim maps identically.
                support.insert(*d);
            } else {
                // Previous-iteration: a translation — dim dropped.
                translated.insert(*d);
            }
        }
        // Non-common free dims (producer-private loops): dropped.
    }
    Some(FlowEdge {
        consumer,
        read_idx: usize::MAX, // filled by caller
        producer: Producer::Stmt(producer),
        support,
        translated,
        determined,
    })
}

/// Borrowed view of one access for [`unify`].
#[allow(non_camel_case_types)]
pub struct Aff_slice<'a> {
    /// Array accessed.
    pub array: ArrayId,
    /// Subscripts.
    pub idx: &'a [Aff],
}

/// Analyzes every observed read family; returns merged per-read projections.
///
/// # Errors
/// Returns a description when an observed producer cannot be explained by
/// subscript unification (the program is outside the supported class).
pub fn analyze(program: &Program, obs: &Observations) -> Result<Vec<ReadProjection>, String> {
    analyze_with_aliases(program, obs, &AliasPairs::new())
}

/// [`analyze`] with observed pointwise alias pairs attached to the
/// resulting projections (the `m`-refinement consumes them).
///
/// # Errors
/// See [`analyze`].
pub fn analyze_with_aliases(
    program: &Program,
    obs: &Observations,
    aliases: &AliasPairs,
) -> Result<Vec<ReadProjection>, String> {
    let mut out = Vec::new();
    for (s_idx, stmt) in program.stmts.iter().enumerate() {
        let sid = StmtId(s_idx as u32);
        for (r_idx, read) in stmt.reads.iter().enumerate() {
            let Some(producers) = obs.get(&(sid, r_idx)) else {
                continue; // read never executed at the observation sizes
            };
            let mut support: BTreeSet<DimId> = BTreeSet::new();
            let mut translated: BTreeSet<DimId> = BTreeSet::new();
            let mut edges = Vec::new();
            for prod in producers {
                match prod {
                    Producer::Input => {
                        // Input reads project through the access function.
                        let mut sup = BTreeSet::new();
                        for a in &read.idx {
                            sup.extend(a.dims_used());
                        }
                        support.extend(sup.iter().copied());
                        edges.push(FlowEdge {
                            consumer: sid,
                            read_idx: r_idx,
                            producer: Producer::Input,
                            support: sup,
                            translated: BTreeSet::new(),
                            determined: BTreeMap::new(),
                        });
                    }
                    Producer::Stmt(p) => {
                        let pstmt = program.stmt(*p);
                        let rview = Aff_slice {
                            array: read.array,
                            idx: &read.idx,
                        };
                        let mut matched = false;
                        for w in &pstmt.writes {
                            if w.array != read.array {
                                continue;
                            }
                            let wview = Aff_slice {
                                array: w.array,
                                idx: &w.idx,
                            };
                            if let Some(mut e) = unify(program, sid, &rview, *p, &wview) {
                                e.read_idx = r_idx;
                                support.extend(e.support.iter().copied());
                                translated.extend(e.translated.iter().copied());
                                edges.push(e);
                                matched = true;
                            }
                        }
                        if !matched {
                            return Err(format!(
                                "observed producer {} of {}.read[{r_idx}] ({}) not explained by unification",
                                pstmt.name,
                                stmt.name,
                                program.arrays[read.array.0 as usize].name,
                            ));
                        }
                    }
                }
            }
            let aliased: BTreeSet<usize> = aliases
                .iter()
                .filter(|(s, a, b)| *s == sid && (*a == r_idx || *b == r_idx))
                .map(|(_, a, b)| if *a == r_idx { *b } else { *a })
                .collect();
            out.push(ReadProjection {
                stmt: sid,
                read_idx: r_idx,
                array: read.array,
                support,
                translated,
                edges,
                aliased,
            });
        }
    }
    Ok(out)
}

/// Convenience: observe at several parameter vectors, union, analyze.
///
/// # Errors
/// An out-of-range declared access at any of the parameter vectors (named
/// with its parameter values), or an [`analyze`] failure.
pub fn read_projections(
    program: &Program,
    param_sets: &[Vec<i64>],
) -> Result<Vec<ReadProjection>, String> {
    let mut merged = Observations::new();
    let mut aliases = AliasPairs::new();
    for ps in param_sets {
        let (obs, al) = observe_producers_with_aliases(program, ps).map_err(|e| {
            let at: Vec<String> = program
                .params
                .iter()
                .zip(ps)
                .map(|(name, v)| format!("{name}={v}"))
                .collect();
            format!("observing producers at {}: {e}", at.join(", "))
        })?;
        for (k, v) in obs {
            merged.entry(k).or_default().extend(v);
        }
        aliases.extend(al);
    }
    analyze_with_aliases(program, &merged, &aliases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, ProgramBuilder};

    /// A miniature MGS-shaped program: the SR/SU hourglass core.
    ///
    /// ```c
    /// for k in 0..N:
    ///   for j in k+1..N:
    ///     S0: R[k][j] = 0
    ///     for i in 0..M: SR: R[k][j] += A[i][k] * A[i][j]
    ///     for i in 0..M: SU: A[i][j] -= A[i][k] * R[k][j]
    /// ```
    fn mini_mgs() -> Program {
        let mut b = ProgramBuilder::new("mini_mgs_deps", &["M", "N"]);
        let a = b.array("A", &[b.p("M"), b.p("N")]);
        let r = b.array("R", &[b.p("N"), b.p("N")]);
        let k = b.open("k", b.c(0), b.p("N"));
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let w_r = Access::new(r, vec![b.d(k), b.d(j)]);
        b.stmt("S0", vec![], vec![w_r.clone()]);
        let i1 = b.open("i", b.c(0), b.p("M"));
        let rd_aik = Access::new(a, vec![b.d(i1), b.d(k)]);
        let rd_aij = Access::new(a, vec![b.d(i1), b.d(j)]);
        b.stmt("SR", vec![rd_aik, rd_aij, w_r.clone()], vec![w_r.clone()]);
        b.close();
        let i2 = b.open("i", b.c(0), b.p("M"));
        let rd_aik2 = Access::new(a, vec![b.d(i2), b.d(k)]);
        let rw_aij2 = Access::new(a, vec![b.d(i2), b.d(j)]);
        b.stmt(
            "SU",
            vec![rd_aik2, rw_aij2.clone(), w_r.clone()],
            vec![rw_aij2],
        );
        b.close();
        b.close();
        b.close();
        b.finish()
    }

    fn dims_of(p: &Program, s: &str) -> Vec<DimId> {
        p.stmt(p.stmt_id(s).unwrap()).dims.clone()
    }

    #[test]
    fn observed_producers_are_plausible() {
        let p = mini_mgs();
        let (obs, _) = observe_producers_with_aliases(&p, &[6, 4]).unwrap();
        let su = p.stmt_id("SU").unwrap();
        // SU.read[2] is R[k][j]: produced by SR (the accumulation).
        let prods = &obs[&(su, 2)];
        assert!(prods.contains(&Producer::Stmt(p.stmt_id("SR").unwrap())));
        assert!(!prods.contains(&Producer::Input));
        // SU.read[1] is A[i][j]: input at k=0, SU itself afterwards.
        let prods = &obs[&(su, 1)];
        assert!(prods.contains(&Producer::Input));
        assert!(prods.contains(&Producer::Stmt(su)));
    }

    #[test]
    fn su_projections_match_paper() {
        let p = mini_mgs();
        let projs = read_projections(&p, &[vec![6, 4], vec![5, 5]]).unwrap();
        let su = p.stmt_id("SU").unwrap();
        let d = dims_of(&p, "SU"); // [k, j, i]
        let by_read: Vec<_> = projs.iter().filter(|r| r.stmt == su).collect();
        assert_eq!(by_read.len(), 3);
        // read[0] = A[i][k]: produced by SU at previous k′… in this miniature
        // program A[·][k] columns are updated by SU at earlier k (j = k), so
        // support is {i, k} via input + translation composition.
        let r0 = &by_read[0];
        assert!(r0.support.contains(&d[2]), "i in support of A[i][k]");
        // read[1] = A[i][j]: support {i, j}, translation on k.
        let r1 = &by_read[1];
        assert_eq!(
            r1.support.iter().copied().collect::<Vec<_>>(),
            vec![d[1], d[2]],
            "support of A[i][j] is {{j, i}}"
        );
        assert!(r1.translated.contains(&d[0]), "k is a translation dim");
        // read[2] = R[k][j]: support {k, j} (SR's reduction i dropped).
        let r2 = &by_read[2];
        assert_eq!(
            r2.support.iter().copied().collect::<Vec<_>>(),
            vec![d[0], d[1]],
            "support of R[k][j] is {{k, j}}"
        );
        assert!(r2.translated.is_empty());
    }

    #[test]
    fn sr_projections_match_paper() {
        let p = mini_mgs();
        let projs = read_projections(&p, &[vec![6, 4]]).unwrap();
        let sr = p.stmt_id("SR").unwrap();
        let d = dims_of(&p, "SR");
        let by_read: Vec<_> = projs.iter().filter(|r| r.stmt == sr).collect();
        // read[1] = A[i][j] produced by SU at k-1 → translation on k, support {i, j}.
        let r1 = &by_read[1];
        assert!(r1.support.contains(&d[1]) && r1.support.contains(&d[2]));
        assert!(!r1.support.contains(&d[0]));
        assert!(r1.translated.contains(&d[0]));
    }

    #[test]
    fn same_iteration_scalar_producer_keeps_common_dims() {
        // S1 writes t; S2 (later in the same k body) reads t → support {k}.
        let mut b = ProgramBuilder::new("scalar_dep", &["N"]);
        let t = b.scalar("t");
        let y = b.array("y", &[b.p("N")]);
        let k = b.open("k", b.c(0), b.p("N"));
        let at = Access::new(t, vec![]);
        b.stmt("S1", vec![], vec![at.clone()]);
        let wy = Access::new(y, vec![b.d(k)]);
        b.stmt("S2", vec![at], vec![wy]);
        b.close();
        let p = b.finish();
        let projs = read_projections(&p, &[vec![5]]).unwrap();
        let s2 = p.stmt_id("S2").unwrap();
        let proj = projs.iter().find(|r| r.stmt == s2).unwrap();
        let kdim = p.stmt(s2).dims[0];
        assert!(proj.support.contains(&kdim), "same-iteration keeps k");
        assert!(proj.translated.is_empty());
    }

    #[test]
    fn unify_rejects_mismatched_constants() {
        let p = mini_mgs();
        let a = p.array_id("A").unwrap();
        // read A[0][j] vs write A[1][j]: constant mismatch on axis 0.
        let su = p.stmt_id("SU").unwrap();
        let d = dims_of(&p, "SU");
        let read_idx = [Aff::constant(0), Aff::dim(d[1])];
        let write_idx = [Aff::constant(1), Aff::dim(d[1])];
        let r = Aff_slice {
            array: a,
            idx: &read_idx,
        };
        let w = Aff_slice {
            array: a,
            idx: &write_idx,
        };
        assert!(unify(&p, su, &r, su, &w).is_none());
    }
}
