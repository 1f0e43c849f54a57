//! Admission control: pre-materialization cost estimation.
//!
//! Before the pipeline materializes anything (CDAG cell tables, packed
//! traces, CSR arenas), admission derives a [`CostEstimate`] from the
//! symbolic loop bounds of [`crate::count`] evaluated at the concrete
//! parameters — static pre-estimation is cheap relative to
//! materialization, so over-budget requests are refused or down-scoped
//! while they are still just a parse tree.
//!
//! Two estimation paths:
//!
//! * **symbolic** — when every statement's nest is
//!   [`countable_nest`], instance counts
//!   are closed-form polynomials evaluated in `f64` (lossy but
//!   monotone at estimation scale; values at or beyond `u64` saturate to
//!   `u64::MAX`, which exceeds every finite budget);
//! * **bounded enumeration** — otherwise, instances are counted by the
//!   governed loop-tree walk, which stops with `BudgetExceeded` the
//!   moment the count passes the budget's instance ceiling.
//!
//! Either way the estimate is defense-in-depth only: governed enumeration
//! downstream independently re-counts instances against the same ceiling,
//! so a wrong estimate can never license unbounded materialization.

use crate::count::{countable_nest, instance_count, param_var};
use crate::program::{ArrayId, Program, StmtId};
use iolb_govern::{AnalysisError, Budget, CancelToken, CostEstimate, Seam};

/// Converts an `f64` count to a saturating `u64` resource amount.
fn sat(v: f64) -> u64 {
    if !v.is_finite() || v >= u64::MAX as f64 {
        u64::MAX
    } else if v <= 0.0 {
        0
    } else {
        v.ceil() as u64
    }
}

/// Per-statement instance counts at `params`, symbolically when the nest
/// admits it, else by governed enumeration capped at
/// `budget.max_instances`.
fn stmt_instance_counts(
    program: &Program,
    params: &[i64],
    budget: &Budget,
    token: &CancelToken,
) -> Result<Vec<u64>, AnalysisError> {
    let all_countable = (0..program.stmts.len()).all(|s| countable_nest(program, StmtId(s as u32)));
    if all_countable {
        let env = |v: iolb_symbolic::Var| -> Option<f64> {
            (0..program.params.len())
                .find(|p| param_var(program, crate::affine::ParamId(*p as u32)) == v)
                .map(|p| params[p] as f64)
        };
        return Ok((0..program.stmts.len())
            .map(|s| sat(instance_count(program, StmtId(s as u32)).eval_f64(&env)))
            .collect());
    }
    // Strided / multi-bound nests: count by walking the loop tree, bailing
    // out as soon as the budget's instance ceiling is passed.
    let mut counts = vec![0u64; program.stmts.len()];
    crate::interp::try_for_each_instance(
        program,
        params,
        token,
        Seam::Admission,
        budget.max_instances,
        |stmt, _| {
            counts[stmt.0 as usize] += 1;
            Ok(())
        },
    )?;
    Ok(counts)
}

/// Estimates the resources `program` at `params` will need, without
/// materializing anything. Checks `token` at [`Seam::Admission`].
///
/// Returns `Refused` when an array declaration cannot be sized (extent
/// referencing a loop dimension or evaluating negative) and
/// `BudgetExceeded` when the enumeration fallback passes the instance
/// ceiling; all arithmetic saturates at `u64::MAX` so adversarial
/// parameters cannot wrap an estimate back under budget.
pub fn estimate(
    program: &Program,
    params: &[i64],
    budget: &Budget,
    token: &CancelToken,
) -> Result<CostEstimate, AnalysisError> {
    token.check(Seam::Admission)?;
    let counts = stmt_instance_counts(program, params, budget, token)?;

    let mut instances = 0u64;
    let mut trace_len = 0u64;
    let mut cdag_edges = 0u64;
    let mut iv_bytes = 0u64;
    for (s, &count) in counts.iter().enumerate() {
        let stmt = &program.stmts[s];
        let reads = stmt.reads.len() as u64;
        let writes = stmt.writes.len() as u64;
        instances = instances.saturating_add(count);
        trace_len = trace_len.saturating_add(count.saturating_mul(reads + writes));
        // Within-instance duplicate reads collapse, so this upper-bounds
        // the edge count.
        cdag_edges = cdag_edges.saturating_add(count.saturating_mul(reads));
        iv_bytes = iv_bytes.saturating_add(count.saturating_mul(4 * stmt.dims.len() as u64));
    }

    // Cell tables (one u32 state per array cell) and the input upper
    // bound: every input node is a distinct cell read before any write.
    let mut cell_bytes = 0u64;
    let mut total_cells = 0u64;
    for a in 0..program.arrays.len() {
        let len = program
            .try_array_len(ArrayId(a as u32), params)
            .ok_or_else(|| {
                AnalysisError::Refused(format!(
                    "array {} has an unsizable extent at these parameters",
                    program.arrays[a].name
                ))
            })?
            .max(1);
        total_cells = total_cells.saturating_add(len);
        cell_bytes = cell_bytes.saturating_add(len.saturating_mul(4));
    }
    let inputs_upper = total_cells.min(cdag_edges);
    let cdag_nodes = instances.saturating_add(inputs_upper);

    // Peak transient arena: cell tables + iv arena (+offsets) + packed
    // edge list (two u32 per edge) + packed trace (one u64 per access).
    let arena_bytes = cell_bytes
        .saturating_add(iv_bytes)
        .saturating_add(instances.saturating_mul(8))
        .saturating_add(cdag_edges.saturating_mul(8))
        .saturating_add(trace_len.saturating_mul(8));

    Ok(CostEstimate {
        instances,
        trace_len,
        cdag_nodes,
        cdag_edges,
        arena_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, ProgramBuilder};

    fn square(n_name: &str) -> Program {
        let mut b = ProgramBuilder::new("adm_sq", &[n_name]);
        let a = b.array("A", &[b.p(n_name), b.p(n_name)]);
        let i = b.open("i", b.c(0), b.p(n_name));
        let j = b.open("j", b.c(0), b.p(n_name));
        let acc = Access::new(a, vec![b.d(i), b.d(j)]);
        b.stmt("S", vec![acc.clone()], vec![acc]);
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn symbolic_estimate_matches_enumeration() {
        let p = square("N");
        let est = estimate(&p, &[20], &Budget::unlimited(), &CancelToken::unlimited()).unwrap();
        assert_eq!(est.instances, 400);
        assert_eq!(est.trace_len, 800); // one read + one write per instance
        assert_eq!(est.cdag_edges, 400);
        assert!(est.cdag_nodes >= 400);
        assert!(est.arena_bytes > 0);
    }

    #[test]
    fn huge_params_saturate_instead_of_wrapping() {
        let p = square("N");
        let est = estimate(
            &p,
            &[4_000_000_000],
            &Budget::unlimited(),
            &CancelToken::unlimited(),
        )
        .unwrap();
        // 1.6e19 instances fits u64 barely; trace and arena saturate.
        assert!(est.instances > 1 << 62);
        assert_eq!(est.arena_bytes, u64::MAX);
        let mut b = Budget::unlimited();
        b.max_instances = 1_000_000;
        assert!(matches!(
            est.check(&b),
            Err(AnalysisError::BudgetExceeded {
                resource: "instances",
                ..
            })
        ));
    }

    #[test]
    fn admission_seam_is_polled() {
        let p = square("N");
        let token = iolb_govern::CancelToken::trip_after_checks(1);
        let err = estimate(&p, &[4], &Budget::unlimited(), &token).unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
    }
}
