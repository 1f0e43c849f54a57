//! Symbolic statement-instance counting and loop-extent analysis.
//!
//! Replaces barvinok for the paper's kernel class: `|V|` (Theorem 1 needs
//! the number of instances of the dominant statement) is an iterated
//! Faulhaber sum over the statement's affine loop nest, and the hourglass
//! width `W` (§3.2) is the min/max of a loop's extent over the enclosing
//! domain.

use crate::affine::{Aff, DimId};
use crate::interp::for_each_instance;
use crate::program::{LoopStep, Program, StmtId};
use iolb_symbolic::{summation::sum_half_open, Poly, Var};

/// Symbolic variable used for a loop dimension of a program.
///
/// Loop names may repeat (several `i` loops), so the variable is keyed by
/// the unique [`DimId`].
pub fn dim_var(program: &Program, d: DimId) -> Var {
    Var::new(&format!(
        "{}~{}#{}",
        program.name,
        program.loop_info(d).name,
        d.0
    ))
}

/// Symbolic variable of a parameter (global: `"M"`, `"N"`, …).
pub fn param_var(program: &Program, p: crate::affine::ParamId) -> Var {
    Var::new(&program.params[p.0 as usize])
}

/// Converts an affine expression to a polynomial over dim/param variables.
pub fn aff_to_poly(program: &Program, a: &Aff) -> Poly {
    let mut p = Poly::int(a.cst() as i128);
    for (d, c) in a.dim_terms() {
        p = &p + &Poly::var(dim_var(program, *d)).scale(iolb_symbolic::Rational::int(*c as i128));
    }
    for (q, c) in a.param_terms() {
        p = &p + &Poly::var(param_var(program, *q)).scale(iolb_symbolic::Rational::int(*c as i128));
    }
    p
}

fn single_bounds(program: &Program, d: DimId) -> (Poly, Poly) {
    let info = program.loop_info(d);
    assert!(
        info.lo.len() == 1 && info.hi.len() == 1 && matches!(info.step, LoopStep::One),
        "symbolic counting requires single-bound unit-step loops (loop {})",
        info.name
    );
    (
        aff_to_poly(program, &info.lo[0]),
        aff_to_poly(program, &info.hi[0]),
    )
}

/// Whether every enclosing loop of `stmt` admits a closed-form symbolic
/// count: single lower/upper bound and unit step (what the internal
/// `single_bounds` helper
/// asserts). Analyses that evaluate instance counts gate on this so
/// arbitrary DSL workloads with strided or `max`/`min`-bounded nests are
/// *declined* ("no bound derivable") instead of aborting the pipeline.
pub fn countable_nest(program: &Program, stmt: StmtId) -> bool {
    program.stmt(stmt).dims.iter().all(|d| {
        let info = program.loop_info(*d);
        info.lo.len() == 1 && info.hi.len() == 1 && matches!(info.step, LoopStep::One)
    })
}

/// Symbolic number of instances of `stmt`: `Σ over its loop nest of 1`.
///
/// Exact whenever the nest is non-degenerate (standard polyhedral-counting
/// caveat); cross-checked against enumeration in tests.
pub fn instance_count(program: &Program, stmt: StmtId) -> Poly {
    instance_count_with(program, stmt, &[])
}

/// Like [`instance_count`], with lower-bound overrides for selected dims.
///
/// IOLB's Fig. 5 formulas count hourglass statements with the first
/// temporal iteration dropped; an override `(k, lo+1)` expresses that.
pub fn instance_count_with(
    program: &Program,
    stmt: StmtId,
    lo_overrides: &[(DimId, Poly)],
) -> Poly {
    let overrides: Vec<(DimId, BoundOverride)> = lo_overrides
        .iter()
        .map(|(d, lo)| {
            (
                *d,
                BoundOverride {
                    lo: Some(lo.clone()),
                    hi: None,
                },
            )
        })
        .collect();
    instance_count_bounded(program, stmt, &overrides)
}

/// Replacement bounds for one dimension during counting.
#[derive(Debug, Clone, Default)]
pub struct BoundOverride {
    /// New inclusive lower bound (polynomial) when set.
    pub lo: Option<Poly>,
    /// New exclusive upper bound (polynomial) when set — §5.3's loop
    /// splitting restricts the temporal dimension to `[lo, split)`.
    pub hi: Option<Poly>,
}

/// [`instance_count`] with lower and/or upper bound overrides per dim.
pub fn instance_count_bounded(
    program: &Program,
    stmt: StmtId,
    overrides: &[(DimId, BoundOverride)],
) -> Poly {
    let dims = &program.stmt(stmt).dims;
    let mut acc = Poly::one();
    for d in dims.iter().rev() {
        let (mut lo, mut hi) = single_bounds(program, *d);
        if let Some((_, o)) = overrides.iter().find(|(x, _)| x == d) {
            if let Some(l) = &o.lo {
                lo = l.clone();
            }
            if let Some(h) = &o.hi {
                hi = h.clone();
            }
        }
        acc = sum_half_open(&acc, dim_var(program, *d), &lo, &hi);
    }
    acc
}

/// The extent `hi - lo` of dimension `d` as a polynomial (may reference
/// outer dims).
pub fn extent(program: &Program, d: DimId) -> Poly {
    let (lo, hi) = single_bounds(program, d);
    &hi - &lo
}

/// Bounds of a polynomial over the enclosing domain of statement dims.
///
/// Substitutes each enclosing dim, innermost first, by the edge of its range
/// chosen according to the sign of its (constant) coefficient, producing
/// `(min, max)` polynomials in the parameters only. Supports the affine
/// triangular nests of the paper (coefficients must be constants).
pub fn poly_range_over_dims(program: &Program, p: &Poly, dims: &[DimId]) -> (Poly, Poly) {
    poly_range_over_dims_bounded(program, p, dims, &[])
}

/// [`poly_range_over_dims`] with bound overrides (loop splitting restricts
/// the temporal dimension before taking the width minimum).
pub fn poly_range_over_dims_bounded(
    program: &Program,
    p: &Poly,
    dims: &[DimId],
    overrides: &[(DimId, BoundOverride)],
) -> (Poly, Poly) {
    let mut lo_p = p.clone();
    let mut hi_p = p.clone();
    for d in dims.iter().rev() {
        let v = dim_var(program, *d);
        let (mut dlo, mut dhi) = single_bounds(program, *d);
        if let Some((_, o)) = overrides.iter().find(|(x, _)| x == d) {
            if let Some(l) = &o.lo {
                dlo = l.clone();
            }
            if let Some(h) = &o.hi {
                dhi = h.clone();
            }
        }
        let dmax = &dhi - &Poly::one();
        lo_p = subst_extreme(&lo_p, v, &dlo, &dmax, true);
        hi_p = subst_extreme(&hi_p, v, &dlo, &dmax, false);
    }
    (lo_p, hi_p)
}

fn subst_extreme(p: &Poly, v: Var, vmin: &Poly, vmax: &Poly, minimize: bool) -> Poly {
    let deg = p.degree_in(v);
    if deg == 0 {
        return p.clone();
    }
    assert!(
        deg <= 1,
        "extent analysis requires affine dependence on {v}"
    );
    let coeff = p
        .coeff_of(v, 1)
        .as_constant()
        .expect("extent analysis requires constant dim coefficients");
    let use_min = (coeff.is_positive() && minimize) || (coeff.is_negative() && !minimize);
    let value = if use_min { vmin } else { vmax };
    p.subst(v, value)
}

/// Exact per-statement instance counts via enumeration (certification).
pub fn enumerate_instance_counts(program: &Program, params: &[i64]) -> Vec<u64> {
    let mut counts = vec![0; program.stmts.len()];
    for_each_instance(program, params, |stmt, _| counts[stmt.0 as usize] += 1);
    counts
}

/// Evaluates a parameter-only polynomial at named parameter values.
pub fn eval_params(p: &Poly, env: &[(&str, i64)]) -> iolb_symbolic::Rational {
    p.eval(&|v| {
        env.iter()
            .find(|(n, _)| Var::new(n) == v)
            .map(|(_, x)| iolb_symbolic::Rational::int(*x as i128))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, ProgramBuilder};

    /// Triangular nest shaped like the MGS update statement.
    fn tri() -> Program {
        let mut b = ProgramBuilder::new("tri_count", &["M", "N"]);
        let a = b.array("A", &[b.p("M"), b.p("N")]);
        let k = b.open("k", b.c(0), b.p("N"));
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let i = b.open("i", b.c(0), b.p("M"));
        let acc = Access::new(a, vec![b.d(i), b.d(j)]);
        b.stmt("SU", vec![acc.clone()], vec![acc]);
        b.close();
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn symbolic_count_matches_formula() {
        let p = tri();
        let su = p.stmt_id("SU").unwrap();
        let count = instance_count(&p, su);
        // M·N(N-1)/2
        for (m, n) in [(4i64, 3i64), (7, 5), (10, 10), (3, 1)] {
            let v = eval_params(&count, &[("M", m), ("N", n)]);
            let expect = (m as i128) * (n as i128) * (n as i128 - 1) / 2;
            assert_eq!(v, iolb_symbolic::Rational::int(expect), "M={m} N={n}");
        }
    }

    #[test]
    fn symbolic_count_matches_enumeration() {
        let p = tri();
        for (m, n) in [(4i64, 3i64), (6, 5), (2, 4)] {
            let counts = enumerate_instance_counts(&p, &[m, n]);
            let sym = eval_params(&instance_count(&p, StmtId(0)), &[("M", m), ("N", n)]);
            assert_eq!(sym, iolb_symbolic::Rational::int(counts[0] as i128));
        }
    }

    #[test]
    fn count_with_dropped_first_iteration() {
        let p = tri();
        let su = p.stmt_id("SU").unwrap();
        let k = p.stmt(su).dims[0];
        let count = instance_count_with(&p, su, &[(k, Poly::one())]);
        // Σ_{k=1}^{N-1} M(N-1-k) = M (N-1)(N-2)/2
        for (m, n) in [(5i64, 4i64), (8, 6)] {
            let v = eval_params(&count, &[("M", m), ("N", n)]);
            let expect = (m as i128) * (n as i128 - 1) * (n as i128 - 2) / 2;
            assert_eq!(v, iolb_symbolic::Rational::int(expect));
        }
    }

    #[test]
    fn extent_and_range() {
        let p = tri();
        let su = p.stmt_id("SU").unwrap();
        let dims = &p.stmt(su).dims;
        let (k, j, i) = (dims[0], dims[1], dims[2]);
        // extent(j) = N - k - 1; over k ∈ [0, N-1]: min = 0 (k=N-1), max = N-1.
        let ext_j = extent(&p, j);
        let (lo, hi) = poly_range_over_dims(&p, &ext_j, &[k]);
        assert_eq!(
            eval_params(&lo, &[("M", 9), ("N", 6)]),
            iolb_symbolic::Rational::int(0)
        );
        assert_eq!(
            eval_params(&hi, &[("M", 9), ("N", 6)]),
            iolb_symbolic::Rational::int(5)
        );
        // extent(i) = M, independent of outer dims.
        let ext_i = extent(&p, i);
        let (lo2, hi2) = poly_range_over_dims(&p, &ext_i, &[k, j]);
        assert_eq!(lo2, hi2);
        assert_eq!(
            eval_params(&lo2, &[("M", 9), ("N", 6)]),
            iolb_symbolic::Rational::int(9)
        );
    }
}
