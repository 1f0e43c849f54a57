//! The end-to-end differential soundness oracle.
//!
//! One generated (or corpus) `.iolb` source is pushed through the whole
//! pipeline, asserting the cross-layer invariants that tie the layers
//! together:
//!
//! 1. **round-trip** — `parse(print(parse(src)))` preserves the program
//!    *and* every directive ([`iolb_ir::kernel_diff`]);
//! 2. **certification** — every declared access of every instance stays
//!    inside its array ([`iolb_ir::check_accesses`]);
//! 3. **CDAG agreement** — the construction through the checked evaluator
//!    ([`build_cdag`]) is node-for-node identical to a [`CdagBuilder`]
//!    recording driven by a plain instance walk that evaluates each
//!    subscript with [`Aff::eval_with`](iolb_ir::Aff::eval_with) — an
//!    independent evaluation of the same accesses;
//! 4. **hourglass self-consistency** — a detected pattern must certify on
//!    the concrete observation sizes;
//! 5. **bound soundness** — every derived floored bound (classical σ and
//!    hourglass) *and* every graph-level engine bound (input-floor, visit,
//!    spectral over the certified CDAG) sits at or below the OPT miss
//!    curve of the program-order trace at *every* S of the grid, and
//!    OPT ≤ LRU with both curves monotone in S;
//! 6. **schedule legality** — the tightness harness's invariants hold:
//!    tiled enumerations preserving the instance version map are the only
//!    ones measured, the winner never loses to program order or to its
//!    own LRU view, and every measured upper bound also dominates the
//!    derived lower bounds (`lower bound ≤ OPT ≤ any legal schedule`);
//!    the minimum S and input floor the tuner counts in its own reference
//!    pass equal this CDAG's.
//!
//! Analysis-stage *refusals* (no covering σ projection set, no split
//! binding) are not violations — the pipeline is allowed to decline a
//! bound; it is never allowed to overshoot one.

use iolb_bench::tightness::{try_run_tightness, TightnessJob};
use iolb_cdag::{build_cdag, Cdag, CdagBuilder};
use iolb_core::govern::{Budget, CancelToken};
use iolb_core::report::{derive_with_split, observation_sizes};
use iolb_core::{hourglass, Analysis, EngineRegistry};
use iolb_ir::{
    check_accesses, for_each_instance, kernel_diff, parse_kernel, print_kernel, Access, ArrayId,
    Program,
};
use iolb_memsim::CurveEngine;
use iolb_symbolic::Var;

/// Soundness slack for float comparisons (matches the sweep's `sound()`).
const EPS: f64 = 1e-9;

/// A broken invariant: which one, and the human-readable evidence.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable invariant identifier (`"bound-exceeds-opt"`, …). The
    /// shrinker only accepts mutations that preserve this identifier, so
    /// a reproducer never drifts onto a different bug while minimizing.
    pub invariant: &'static str,
    /// What went wrong, with concrete numbers.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, detail: impl Into<String>) -> Violation {
        Violation {
            invariant,
            detail: detail.into(),
        }
    }
}

/// Per-case outcome counters (aggregated into the fuzz report).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    /// Certified statement instances.
    pub instances: u64,
    /// A classical σ-bound was derived.
    pub classical: bool,
    /// A hourglass bound was derived.
    pub hourglass: bool,
    /// Dependence analysis declined the program (no bounds checked).
    pub analysis_skipped: bool,
    /// The kernel carried `schedule { tile … }` directives.
    pub tiled: bool,
    /// Every S of the grid received at least one finite graph-level
    /// engine bound (the coverage guarantee for symbolically-refused
    /// kernels).
    pub engine_covered: bool,
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Offsets added to the kernel's minimum feasible S.
    pub s_offsets: Vec<usize>,
    /// Run the tightness harness (schedule-legality + upper-bound
    /// invariants) per case.
    pub tightness: bool,
    /// Test-only fault injection: inflates every derived lower bound by
    /// this amount before the curve comparison, so the oracle + shrinker
    /// machinery can be proven to catch a genuine overshoot.
    #[cfg(test)]
    pub inject_overshoot: f64,
    /// Test-only fault injection for the graph-level engine invariant:
    /// inflates every engine bound before the OPT comparison.
    #[cfg(test)]
    pub inject_engine_overshoot: u64,
}

impl Default for Oracle {
    fn default() -> Oracle {
        Oracle::new()
    }
}

impl Oracle {
    /// Oracle over the dense default S grid with tightness checks on.
    pub fn new() -> Oracle {
        Oracle::with(iolb_bench::sweep::dense_s_offsets(), true)
    }

    /// Oracle over a custom S grid (sorted and deduplicated here — the
    /// monotonicity checks walk the grid in ascending order).
    ///
    /// # Panics
    /// Panics on an empty grid: no grid means no bound/curve invariant
    /// would run, and a vacuous "clean" verdict must be impossible.
    pub fn with(mut s_offsets: Vec<usize>, tightness: bool) -> Oracle {
        assert!(!s_offsets.is_empty(), "oracle needs at least one S offset");
        s_offsets.sort_unstable();
        s_offsets.dedup();
        Oracle {
            s_offsets,
            tightness,
            #[cfg(test)]
            inject_overshoot: 0.0,
            #[cfg(test)]
            inject_engine_overshoot: 0,
        }
    }

    fn injected(&self) -> f64 {
        #[cfg(test)]
        {
            self.inject_overshoot
        }
        #[cfg(not(test))]
        {
            0.0
        }
    }

    fn injected_engine(&self) -> u64 {
        #[cfg(test)]
        {
            self.inject_engine_overshoot
        }
        #[cfg(not(test))]
        {
            0
        }
    }

    /// Runs the full invariant chain on one `.iolb` source.
    ///
    /// # Errors
    /// The first broken invariant, as a [`Violation`].
    pub fn check_source(&self, src: &str) -> Result<CaseReport, Violation> {
        // 1. Parse + full-file round-trip.
        let kernel = parse_kernel(src)
            .map_err(|e| Violation::new("parse", format!("source does not parse: {e}")))?;
        let printed = print_kernel(&kernel);
        let reparsed = parse_kernel(&printed).map_err(|e| {
            Violation::new(
                "roundtrip-parse",
                format!("printed kernel does not re-parse: {e}"),
            )
        })?;
        if let Some(d) = kernel_diff(&kernel, &reparsed) {
            return Err(Violation::new("roundtrip", d));
        }
        let program = &kernel.program;
        let params = kernel
            .default_params()
            .map_err(|e| Violation::new("defaults", e))?;

        // 2. Every declared access in range on every instance.
        let instances = check_accesses(program, &params)
            .map_err(|e| Violation::new("certify", e.to_string()))?;

        // 3. The evaluator's CDAG vs an independently evaluated recording.
        let cdag = build_cdag(program, &params);
        if let Some(d) = cdag.diff(&walked_cdag(program, &params)) {
            return Err(Violation::new("cdag-divergence", d));
        }

        // 4. Bound derivation (refusals allowed, inconsistencies not).
        let stmt_name = kernel
            .analyze
            .clone()
            .unwrap_or_else(|| deepest_stmt(program));
        let stmt = program
            .stmt_id(&stmt_name)
            .ok_or_else(|| Violation::new("analyze", format!("no statement named {stmt_name}")))?;
        let named: Vec<(String, i64)> = program
            .params
            .iter()
            .cloned()
            .zip(params.iter().copied())
            .collect();
        let mut env: Vec<(Var, i128)> = named
            .iter()
            .map(|(n, v)| (Var::new(n), *v as i128))
            .collect();
        let observe = observation_sizes(&params);
        let (classical, hourglass, analysis_skipped) = match Analysis::run(program, &observe) {
            Err(_) => (None, None, true),
            Ok(analysis) => {
                let classical = analysis.try_classical_bound(stmt);
                let hg = match analysis.detect_hourglass(stmt) {
                    None => None,
                    // Detection is structural and optimistic; empirical
                    // chain certification is the gate. A failed
                    // certification (e.g. another statement clobbers the
                    // would-be chain) means the hourglass bound must not
                    // be applied — a refusal, not a violation.
                    Some(pat) => match hourglass::certify(program, &cdag, &pat) {
                        Err(_) => None,
                        Ok(_) => match derive_with_split(program, &pat, None) {
                            Ok((b, binding)) => {
                                if let Some(bind) = &binding {
                                    env.push((bind.var, bind.eval(&named)));
                                }
                                Some(b)
                            }
                            Err(_) => None, // split binding unavailable: a refusal
                        },
                    },
                };
                (classical, hg, false)
            }
        };

        // 5. Miss-curve invariants on the program-order trace.
        let mut trace = Vec::new();
        cdag.packed_program_order_trace(&mut trace);
        let min_s = cdag.max_in_degree() + 1;
        let s_values: Vec<usize> = self.s_offsets.iter().map(|&off| min_s + off).collect();
        let horizon = s_values.iter().copied().max().unwrap_or(1);
        let mut engine = CurveEngine::new();
        let opt = engine.opt_packed(&trace, horizon);
        let lru = engine.lru_packed(&trace, horizon);
        // Graph-level engines run on the same certified CDAG; every
        // applicable bound must also sit under OPT at every S.
        let engine_curves = EngineRegistry::all().evaluate(&cdag, &s_values);
        let inject = self.injected();
        let inject_engine = self.injected_engine();
        let mut engine_covered = true;
        let (mut prev_opt, mut prev_lru) = (u64::MAX, u64::MAX);
        for (si, &s) in s_values.iter().enumerate() {
            let opt_loads = opt.loads(s);
            let lru_loads = lru.loads(s);
            let mut any_engine = false;
            for curve in &engine_curves {
                let Some(b) = curve.at(si) else { continue };
                any_engine = true;
                let b = b.saturating_add(inject_engine);
                if b > opt_loads {
                    return Err(Violation::new(
                        "engine-bound-exceeds-opt",
                        format!(
                            "S={s}: {} engine bound {b} exceeds OPT loads {opt_loads}",
                            curve.provenance.as_str()
                        ),
                    ));
                }
            }
            engine_covered &= any_engine;
            let lb_classical = classical
                .as_ref()
                .map(|b| b.eval_floor(&env, s as i128))
                .unwrap_or(0.0);
            let lb_hourglass = hourglass
                .as_ref()
                .map(|b| b.eval_floor(&env, s as i128))
                .unwrap_or(0.0);
            let lb = lb_classical.max(lb_hourglass) + inject;
            if lb > opt_loads as f64 + EPS {
                return Err(Violation::new(
                    "bound-exceeds-opt",
                    format!(
                        "S={s}: lower bound {lb} (classical {lb_classical}, hourglass \
                         {lb_hourglass}) exceeds OPT loads {opt_loads}"
                    ),
                ));
            }
            if opt_loads > lru_loads {
                return Err(Violation::new(
                    "opt-above-lru",
                    format!("S={s}: OPT loads {opt_loads} above LRU loads {lru_loads}"),
                ));
            }
            if opt_loads > prev_opt || lru_loads > prev_lru {
                return Err(Violation::new(
                    "curve-not-monotone",
                    format!("S={s}: miss curve increased with capacity"),
                ));
            }
            (prev_opt, prev_lru) = (opt_loads, lru_loads);
        }

        // 6. Tightness harness: schedule legality and
        // `lower bound ≤ best measured schedule` (the `try_run_tightness`
        // internals reject version-map-breaking enumerations and error on
        // any inverted measurement invariant).
        if self.tightness {
            let job = TightnessJob {
                name: program.name.clone(),
                program: program.clone(),
                params: params.clone(),
                env: env.clone(),
                classical: classical.clone(),
                hourglass: hourglass.clone(),
                schedule: kernel.schedule.clone(),
                s_offsets: self.s_offsets.clone(),
            };
            let report =
                try_run_tightness(vec![job], &Budget::unlimited(), &CancelToken::unlimited())
                    .map_err(|e| Violation::new("tightness-invariant", e.to_string()))?;
            // The tuner counts min S and the input floor in its own
            // reference pass; both must be this CDAG's.
            let points: Vec<_> = report.kernels.iter().flat_map(|k| &k.points).collect();
            let tuner_s: Vec<usize> = points.iter().map(|t| t.s).collect();
            if tuner_s != s_values {
                return Err(Violation::new(
                    "tuner-cdag-counts",
                    format!("tuner S grid {tuner_s:?} is not min S {min_s} + the offsets"),
                ));
            }
            if let Some(t) = points
                .iter()
                .find(|t| t.lb_inputs != cdag.num_inputs() as f64)
            {
                return Err(Violation::new(
                    "tuner-cdag-counts",
                    format!(
                        "tuner input floor {} is not the CDAG's {} inputs",
                        t.lb_inputs,
                        cdag.num_inputs()
                    ),
                ));
            }
            for t in points {
                let lb = t.lb_classical.max(t.lb_hourglass) + inject;
                if lb > t.upper_loads as f64 + EPS {
                    return Err(Violation::new(
                        "bound-exceeds-upper",
                        format!(
                            "S={}: lower bound {lb} exceeds measured upper bound {} \
                             (schedule `{}`)",
                            t.s, t.upper_loads, t.upper_schedule
                        ),
                    ));
                }
            }
        }

        Ok(CaseReport {
            instances,
            classical: classical.is_some(),
            hourglass: hourglass.is_some(),
            analysis_skipped,
            tiled: !kernel.schedule.is_empty(),
            engine_covered,
        })
    }
}

/// The CDAG [`CdagBuilder`] records from a plain [`for_each_instance`]
/// walk, each subscript evaluated with [`Aff::eval_with`](iolb_ir::Aff::eval_with)
/// and flattened by [`Program::array_strides`]: of the checked evaluator
/// behind [`build_cdag`] it shares only the strides, not the subscript
/// evaluation, the flat index or the range check. Runs after the range
/// check, so every subscript is in range.
fn walked_cdag(program: &Program, params: &[i64]) -> Cdag {
    let strides: Vec<Vec<usize>> = (0..program.arrays.len())
        .map(|a| program.array_strides(ArrayId(a as u32), params))
        .collect();
    let mut builder = CdagBuilder::new();
    for_each_instance(program, params, |stmt, env| {
        let flat = |a: &Access| -> usize {
            let value =
                |e: &iolb_ir::Aff| e.eval_with(&|d| env[d.0 as usize], &|p| params[p.0 as usize]);
            let st = &strides[a.array.0 as usize];
            a.idx
                .iter()
                .zip(st)
                .map(|(e, s)| s * value(e) as usize)
                .sum()
        };
        let s = program.stmt(stmt);
        let iv: Vec<i64> = s.dims.iter().map(|d| env[d.0 as usize]).collect();
        builder.stmt(stmt, &iv);
        for a in &s.reads {
            builder.read(a.array, flat(a));
        }
        for a in &s.writes {
            builder.write(a.array, flat(a));
        }
    });
    builder.finish()
}

/// The pipeline's fallback analysis target
/// ([`Program::default_analyze_stmt`] — the same rule the `iolb` CLI
/// applies).
fn deepest_stmt(program: &Program) -> String {
    program
        .default_analyze_stmt()
        .map(|id| program.stmt(id).name.clone())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEMM: &str = "
kernel mini_gemm(N) {
  array A[N][N];
  array B[N][N];
  array C[N][N];
  analyze SU;
  default N = 6;
  schedule { tile i; tile j; }

  for i in 0..N {
    for j in 0..N {
      Cz: C[i][j] = op();
    }
  }
  for i in 0..N {
    for j in 0..N {
      for k in 0..N {
        SU: C[i][j] = op(A[i][k], B[k][j], C[i][j]);
      }
    }
  }
}
";

    #[test]
    fn clean_kernel_passes_every_invariant() {
        let oracle = Oracle::with(vec![0, 4, 16], true);
        let report = oracle.check_source(GEMM).expect("sound");
        assert!(report.instances > 0);
        assert!(report.tiled);
        assert!(!report.analysis_skipped);
    }

    /// One instance reads back two cells one statement instance wrote:
    /// the tuner's in-degree counts that producer once, as the CDAG does.
    #[test]
    fn multi_write_kernel_agrees_with_the_tuner_counts() {
        let src = "kernel pair(N) { array A[N]; array B[N]; array C[N]; default N = 5; \
                   schedule { tile i; } \
                   for i in 0..N { S: A[i], B[i] = op(C[i]); } \
                   for i in 0..N { T: C[i] = op(A[i], B[i], C[i]); } }";
        let oracle = Oracle::with(vec![0, 4], true);
        oracle.check_source(src).expect("sound");
    }

    #[test]
    fn unparseable_source_is_a_parse_violation() {
        let oracle = Oracle::with(vec![0], false);
        let v = oracle.check_source("kernel broken {").unwrap_err();
        assert_eq!(v.invariant, "parse");
    }

    #[test]
    fn injected_overshoot_is_caught() {
        let mut oracle = Oracle::with(vec![0, 8], false);
        oracle.inject_overshoot = 1e12;
        let v = oracle.check_source(GEMM).unwrap_err();
        assert_eq!(v.invariant, "bound-exceeds-opt");
        assert!(v.detail.contains("exceeds OPT loads"), "{}", v.detail);
    }

    #[test]
    fn injected_engine_overshoot_is_caught() {
        let mut oracle = Oracle::with(vec![0, 8], false);
        oracle.inject_engine_overshoot = u64::MAX / 2;
        let v = oracle.check_source(GEMM).unwrap_err();
        assert_eq!(v.invariant, "engine-bound-exceeds-opt");
        assert!(v.detail.contains("exceeds OPT loads"), "{}", v.detail);
    }

    #[test]
    fn clean_kernel_is_engine_covered() {
        let oracle = Oracle::with(vec![0, 4, 16], false);
        let report = oracle.check_source(GEMM).expect("sound");
        assert!(
            report.engine_covered,
            "every S must get a finite graph-level bound"
        );
    }
}
