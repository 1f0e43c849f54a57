//! Kernel-space fuzzer: seeded random `.iolb` generation plus an
//! end-to-end differential soundness oracle.
//!
//! The pipeline (parse → certify → σ/hourglass bounds → CDAG → miss
//! curves → tiled upper bounds) is exercised by hand-written kernels; this
//! crate closes the generality gap by generating *valid* random affine
//! programs ([`gen`]), pushing each through the whole pipeline, and
//! asserting the cross-layer invariants that make the soundness chain
//! `lower bound ≤ OPT curve ≤ any legal schedule` hold ([`oracle`]). A
//! violation is minimized to a small reproducer ([`shrink`]) suitable for
//! committing to `fuzz/corpus/`, which `cargo test` replays
//! deterministically.
//!
//! Everything is reproducible from a single `u64` seed: case `i` of run
//! `seed` depends only on `(seed, i)` — no wall-clock, no ambient
//! randomness — and the emitted JSON report carries the seed as a
//! required field so CI replays are bitwise-deterministic.

pub mod gen;
pub mod inject;
pub mod oracle;
pub mod shrink;

pub use gen::{generate_case, CaseSpec, GenConfig};
pub use inject::{run_injection, run_injection_matrix, InjectionOutcome, InjectionReport};
pub use oracle::{CaseReport, Oracle, Violation};
pub use shrink::{shrink_case, ShrinkOutcome};

use iolb_bench::json::Layout::{Inline, Lines};
use iolb_bench::json::{members, Writer};
use rayon::prelude::*;

/// One fuzz run's configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Run seed (required everywhere; reported in the JSON).
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Maximum loop-nest depth of generated kernels.
    pub max_dims: u32,
    /// S-grid offsets the oracle sweeps.
    pub s_offsets: Vec<usize>,
    /// Whether the oracle runs the tightness harness per case.
    pub tightness: bool,
}

impl FuzzConfig {
    /// Default configuration for a `(seed, cases)` pair: generator depth 4,
    /// the dense S grid, tightness checks on.
    pub fn new(seed: u64, cases: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            cases,
            max_dims: GenConfig::default().max_dims,
            s_offsets: iolb_bench::sweep::dense_s_offsets(),
            tightness: true,
        }
    }
}

/// One violation found by a run, with its minimized reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the run (`generate_case(seed, index)`).
    pub case_index: u64,
    /// The (post-shrink) violation.
    pub violation: Violation,
    /// Rendered source of the *original* failing case.
    pub original: String,
    /// Rendered source of the minimized reproducer.
    pub minimized: String,
    /// Statement count of the minimized reproducer.
    pub minimized_stmts: usize,
}

/// Aggregated counters over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzStats {
    /// Total certified statement instances.
    pub instances: u64,
    /// Cases with a derived classical σ-bound.
    pub classical: u64,
    /// Cases with a derived hourglass bound.
    pub hourglass: u64,
    /// Cases the dependence analysis declined.
    pub analysis_skipped: u64,
    /// Cases carrying `schedule { tile … }` directives.
    pub tiled: u64,
    /// Cases where every S of the grid received at least one finite
    /// graph-level engine bound.
    pub engine_covered: u64,
}

/// Full outcome of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The run's configuration (seed included).
    pub config: FuzzConfig,
    /// Aggregated counters.
    pub stats: FuzzStats,
    /// All violations, by ascending case index (empty = clean run).
    pub failures: Vec<FuzzFailure>,
}

/// Runs the fuzzer: generates `config.cases` kernels, checks every oracle
/// invariant on each (in parallel, deterministically — case `i` depends
/// only on `(seed, i)`), and minimizes every failure.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let oracle = Oracle::with(config.s_offsets.clone(), config.tightness);
    let gen_cfg = GenConfig {
        max_dims: config.max_dims,
    };
    let indices: Vec<u64> = (0..config.cases).collect();
    let outcomes: Vec<(u64, CaseSpec, Result<CaseReport, Violation>)> = indices
        .par_iter()
        .map(|&i| {
            let spec = generate_case(config.seed, i, &gen_cfg);
            let res = oracle.check_source(&spec.render());
            (i, spec, res)
        })
        .collect();

    let mut stats = FuzzStats::default();
    let mut failures = Vec::new();
    for (i, spec, res) in outcomes {
        match res {
            Ok(r) => {
                stats.instances += r.instances;
                stats.classical += r.classical as u64;
                stats.hourglass += r.hourglass as u64;
                stats.analysis_skipped += r.analysis_skipped as u64;
                stats.tiled += r.tiled as u64;
                stats.engine_covered += r.engine_covered as u64;
            }
            Err(v) => {
                let shrunk = shrink_case(&spec, &oracle, &v);
                failures.push(FuzzFailure {
                    case_index: i,
                    minimized: shrunk.spec.render(),
                    minimized_stmts: shrunk.spec.num_stmts(),
                    violation: shrunk.violation,
                    original: spec.render(),
                });
            }
        }
    }
    FuzzReport {
        config: config.clone(),
        stats,
        failures,
    }
}

/// Serializes a run report as deterministic JSON (schema
/// `hourglass-iolb/fuzz/v1`). The seed is a required top-level field — a
/// report without it could not be replayed — and nothing volatile (wall
/// time, thread counts) is emitted at all, so identical runs produce
/// byte-identical reports.
pub fn fuzz_report_json(report: &FuzzReport) -> String {
    let (config, stats) = (&report.config, &report.stats);
    let mut w = Writer::default();
    members!(w.obj(Lines), "schema": str("hourglass-iolb/fuzz/v1"), "seed": int(config.seed),
        "cases": int(config.cases), "max_dims": int(config.max_dims), "stats": obj(Inline));
    members!(&mut w, "instances": int(stats.instances), "classical_bounds": int(stats.classical),
        "hourglass_bounds": int(stats.hourglass), "analysis_skipped": int(stats.analysis_skipped),
        "tiled": int(stats.tiled), "engine_covered": int(stats.engine_covered));
    members!(w.end(), "violations": int(report.failures.len()), "failures": arr(Lines));
    for f in &report.failures {
        members!(w, {"case": int(f.case_index), "invariant": str(f.violation.invariant),
            "detail": str(&f.violation.detail), "minimized_stmts": int(f.minimized_stmts),
            "minimized": str(&f.minimized), "original": str(&f.original)});
    }
    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64, cases: u64) -> FuzzConfig {
        FuzzConfig {
            s_offsets: vec![0, 2, 8, 32],
            ..FuzzConfig::new(seed, cases)
        }
    }

    #[test]
    fn small_run_is_clean_and_deterministic() {
        let cfg = small_config(42, 12);
        let a = run_fuzz(&cfg);
        assert!(
            a.failures.is_empty(),
            "violations: {:?}",
            a.failures
                .iter()
                .map(|f| (&f.violation.invariant, &f.violation.detail))
                .collect::<Vec<_>>()
        );
        assert!(a.stats.instances > 0);
        let b = run_fuzz(&cfg);
        assert_eq!(fuzz_report_json(&a), fuzz_report_json(&b));
    }

    #[test]
    fn report_json_carries_the_seed_and_balances() {
        let report = run_fuzz(&small_config(7, 3));
        let json = fuzz_report_json(&report);
        assert!(json.contains("\"schema\": \"hourglass-iolb/fuzz/v1\""));
        assert!(json.contains("\"seed\": 7"), "seed is a required field");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escaping_handles_specials() {
        // Reproducer sources carry quotes, backslashes and newlines.
        let json_str = |s: &str| {
            let mut w = Writer::default();
            w.str(s);
            w.finish()
        };
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
