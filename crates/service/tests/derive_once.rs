//! Derive once: `analyze_uncached` hands the derivation stage's bounds to
//! the sweep instead of letting it derive them again. Its sweep rows must
//! equal, field for field (timings excluded), the rows of the
//! self-deriving `sweep_stage` entry on every shipped kernel.

use iolb_bench::sweep::SweepRow;
use iolb_core::govern::{CancelToken, Degradation};
use iolb_service::pipeline::{
    analyze_uncached, canonicalize, derive_stage, parse_stage, resolve_params, sweep_stage,
};
use iolb_service::AnalysisOptions;
use std::path::PathBuf;

/// Every field of a row except the volatile `prep_ms` / `wall_ms`.
fn comparable(r: &SweepRow) -> String {
    format!(
        "{} {:?} {} {} {} {:?} {} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.kernel,
        r.params,
        r.nodes,
        r.edges,
        r.s,
        r.policy,
        r.loads,
        r.computes,
        r.lb_classical.to_bits(),
        r.lb_hourglass.to_bits(),
        r.lb_input,
        r.lb_visit,
        r.lb_spectral,
        r.lb_provenance,
        r.ratio.to_bits(),
    )
}

#[test]
fn analyze_uncached_sweeps_the_derived_bounds() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
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
    let opts = AnalysisOptions {
        no_tightness: true,
        ..AnalysisOptions::default()
    };
    let token = CancelToken::unlimited();
    let registry = opts.registry().expect("default engines");
    let mut hourglass_rows = 0;
    for path in &files {
        let what = path.display().to_string();
        let (canon, _) = canonicalize(&std::fs::read_to_string(path).expect("read")).expect(&what);
        let outcome = analyze_uncached(&canon, &opts, &token).expect(&what);
        assert_eq!(outcome.degradation, Degradation::Full, "{what}");
        let once = outcome.sweep.expect("sweep ran");

        let kernel = parse_stage(&canon).expect(&what);
        let params = resolve_params(&kernel, &[]).expect(&what);
        let dsl_split = derive_stage(&kernel, &params, None).expect(&what).dsl_split;
        let again = sweep_stage(
            &outcome.name,
            &canon,
            &outcome.stmt,
            &params,
            dsl_split,
            &opts.s_offsets,
            &opts.budget,
            &token,
            &registry,
            opts.curve_strategy,
        )
        .expect(&what);

        assert!(!once.rows.is_empty(), "{what}: no rows");
        let rows = |r: &[SweepRow]| r.iter().map(comparable).collect::<Vec<_>>();
        assert_eq!(
            rows(&once.rows),
            rows(&again.rows),
            "{what}: sweep rows differ"
        );
        assert!(
            once.failures.is_empty() && again.failures.is_empty(),
            "{what}"
        );
        hourglass_rows += once.rows.iter().filter(|r| r.lb_hourglass > 0.0).count();
    }
    // The hourglass bound (and, on GEHD2-shaped kernels, its split
    // binding) is part of what is compared.
    assert!(hourglass_rows > 0);
}
