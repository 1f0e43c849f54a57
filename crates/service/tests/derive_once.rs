//! Derive once, build once: `analyze_uncached` hands the derivation
//! stage's bounds to the sweep instead of letting it derive them again, and
//! builds one CDAG that certifies the accesses, certifies the hourglass
//! pattern and feeds the sweep. Its outcome must equal the stage-by-stage
//! composition on every shipped kernel: sweep rows field for field
//! (timings excluded) against the self-deriving `sweep_stage` entry, the
//! certified count against the access walk (`check_accesses`), and the
//! hourglass chains against `derive_stage`. Refusals must be the access
//! walk's, text for text.

use iolb_bench::sweep::SweepRow;
use iolb_core::govern::{AnalysisError, CancelToken, Degradation};
use iolb_service::pipeline::{
    analyze_uncached, canonicalize, derive_stage, parse_stage, resolve_params, sweep_stage,
};
use iolb_service::AnalysisOptions;
use std::path::{Path, PathBuf};
use std::time::Instant;

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

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

/// Runs `analyze_uncached` on `path` under `opts` (tightness off) and
/// compares it with the stages composed one by one. Returns the number of
/// rows the hourglass bound is nonzero on.
fn assert_matches_stages(path: &Path, opts: &AnalysisOptions) -> usize {
    let what = path.display().to_string();
    let token = CancelToken::unlimited();
    let registry = opts.registry().expect("default engines");
    let (canon, _) = canonicalize(&std::fs::read_to_string(path).expect("read")).expect(&what);
    let outcome = analyze_uncached(&canon, opts, &token).expect(&what);
    assert_eq!(outcome.degradation, Degradation::Full, "{what}");
    let once = outcome.sweep.expect("sweep ran");

    let kernel = parse_stage(&canon).expect(&what);
    let params = resolve_params(&kernel, &opts.params_override).expect(&what);
    assert_eq!(
        outcome.certified_instances,
        iolb_ir::check_accesses(&kernel.program, &params).expect(&what),
        "{what}: certified instances"
    );
    let derived = derive_stage(&kernel, &params, None).expect(&what);
    assert_eq!(
        outcome.hourglass.as_ref().map(|h| h.chains),
        derived.hourglass.as_ref().map(|_| derived.chains),
        "{what}: hourglass chains"
    );
    let again = sweep_stage(
        &outcome.name,
        &canon,
        &outcome.stmt,
        &params,
        derived.dsl_split,
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
    once.rows.iter().filter(|r| r.lb_hourglass > 0.0).count()
}

#[test]
fn analyze_uncached_sweeps_the_derived_bounds() {
    let mut files: Vec<_> = std::fs::read_dir(kernels_dir())
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
    let hourglass_rows: usize = files
        .iter()
        .map(|path| assert_matches_stages(path, &opts))
        .sum();
    // The hourglass bound (and, on GEHD2-shaped kernels, its split
    // binding) is part of what is compared.
    assert!(hourglass_rows > 0);
}

/// The same comparison at the benchmark's `regime` sizes, where the
/// hourglass bound wins (`perfbench/benchlib.py` `REGIME`). Release-only:
/// `cargo test --release -p iolb-service --test derive_once -- --ignored`.
#[test]
#[ignore = "regime sizes: run in release with --ignored"]
fn regime_sizes_match_the_stage_composition() {
    let regime = [
        ("mgs", "M=512,N=32"),
        ("qr_hh_a2v", "M=256,N=32"),
        ("qr_hh_v2q", "M=256,N=32"),
        ("gebd2", "M=128,N=32"),
    ];
    let t = Instant::now();
    let mut hourglass_rows = 0;
    for (name, params) in regime {
        let mut opts = AnalysisOptions {
            no_tightness: true,
            ..AnalysisOptions::default()
        };
        opts.set("params", params).expect("params");
        let path = kernels_dir().join(format!("{name}.iolb"));
        hourglass_rows += assert_matches_stages(&path, &opts);
    }
    assert!(hourglass_rows > 0);
    eprintln!("regime comparison: {:.2} s", t.elapsed().as_secs_f64());
}

/// An out-of-range declared subscript refuses the request with the access
/// walk's own error, whichever of the walk or the shared CDAG build
/// certified it — past the end, before the start, and a row wrap. A
/// constant in range at the request's `N = 6` but not at the `N = 5` the
/// derivation also observes passes both, and the observation refuses it.
#[test]
fn out_of_range_refusals_are_the_access_walks() {
    let cases = [
        (
            "past_end",
            "array A[N]; array B[N]; for i in 0..N { S: B[i] = op(A[i + 1], B[i]); }",
        ),
        (
            "before_start",
            "array A[N]; array B[N]; for i in 0..N { S: B[i] = op(A[i - 1], B[i]); }",
        ),
        (
            "row_wrap",
            "array A[N][N]; array B[N][N]; \
             for i in 0..N - 1 { for j in 0..N { S: B[i][j] = op(A[i][j + 1], B[i][j]); } }",
        ),
        (
            "sibling_only",
            "array A[N]; array B[N]; for i in 0..N { S: B[i] = op(A[5], B[i]); }",
        ),
    ];
    let token = CancelToken::unlimited();
    for derive_only in [false, true] {
        let opts = AnalysisOptions {
            derive_only,
            ..AnalysisOptions::default()
        };
        for (name, body) in cases {
            let src = format!("kernel {name}(N) {{ default N = 6; {body} }}");
            let got = analyze_uncached(&src, &opts, &token).expect_err(name);
            let kernel = parse_stage(&src).expect(name);
            let params = resolve_params(&kernel, &[]).expect(name);
            match iolb_ir::check_accesses(&kernel.program, &params) {
                Err(e) => assert_eq!(got, AnalysisError::from(e), "{name}"),
                Ok(_) => {
                    assert_eq!(name, "sibling_only");
                    let AnalysisError::Refused(msg) = &got else {
                        panic!("{name}: {got:?}");
                    };
                    assert!(msg.contains("A[5]"), "{name}: {msg}");
                }
            }
        }
    }
}
