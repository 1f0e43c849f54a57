//! Canonicalization property tests.
//!
//! The cache key of the service pipeline is the content hash of the
//! *canonicalized* kernel text — the pretty-printer's output. That is
//! only a sound key if pretty-printing is a fixed point under
//! re-parsing: `print(parse(print(parse(src))))` must equal
//! `print(parse(src))` for every kernel, shipped or generated.
//! Otherwise two requests for the same kernel could land on different
//! keys (wasted work) or — worse — different kernels on the same key.

use iolb_fuzz::{generate_case, GenConfig};
use iolb_service::{canonicalize, AnalysisOptions, Pipeline};
use std::path::PathBuf;
use std::sync::Arc;

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

fn shipped_kernels() -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(kernels_dir())
        .expect("kernels dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "iolb"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no shipped kernels found");
    files
        .into_iter()
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(&p).expect("readable kernel"),
            )
        })
        .collect()
}

/// Asserts the pretty-print of `src` is a fixed point of
/// parse-then-print, and returns the canonical (text, hash).
fn assert_fixed_point(origin: &str, src: &str) -> (String, u128) {
    let (canon, hash) = canonicalize(src).unwrap_or_else(|e| panic!("{origin}: {e}"));
    let (canon2, hash2) =
        canonicalize(&canon).unwrap_or_else(|e| panic!("{origin}: canonical text re-parse: {e}"));
    assert_eq!(
        canon, canon2,
        "{origin}: pretty-print is not a fixed point under re-parsing"
    );
    assert_eq!(hash, hash2, "{origin}: canonical hash drifted");
    (canon, hash)
}

#[test]
fn shipped_kernels_canonicalize_to_a_fixed_point() {
    for (origin, src) in shipped_kernels() {
        let (canon, _) = assert_fixed_point(&origin, &src);
        // The shipped files are headed by '#' comments, which the
        // canonical text drops.
        assert!(
            !canon.contains('#'),
            "{origin}: canonical text kept a comment"
        );
    }
}

#[test]
fn generated_kernels_canonicalize_to_a_fixed_point() {
    let cfg = GenConfig::default();
    for seed in [1u64, 2, 3] {
        for index in 0..40u64 {
            let case = generate_case(seed, index, &cfg);
            let src = case.render();
            assert_fixed_point(&format!("seed {seed} case {index}"), &src);
        }
    }
}

#[test]
fn formatting_variants_share_one_canonical_hash_and_one_cache_entry() {
    let src = std::fs::read_to_string(kernels_dir().join("gemm_tiled.iolb")).expect("kernel");
    // Formatting-only mutations: extra comments, blank lines, trailing
    // whitespace, and a swap of indentation. None of these survive the
    // pretty-printer, so all variants canonicalize identically.
    let commented = format!("# a new leading comment\n{src}\n# and a trailing one\n");
    let blank_lines: String = src
        .lines()
        .flat_map(|l| [l, ""])
        .collect::<Vec<_>>()
        .join("\n");
    let trailing_ws: String = src.lines().map(|l| format!("{l}   \n")).collect();
    let reindented = src.replace("  ", "    ");

    let (_, h0) = canonicalize(&src).expect("original");
    for (what, variant) in [
        ("comments", &commented),
        ("blank lines", &blank_lines),
        ("trailing whitespace", &trailing_ws),
        ("re-indentation", &reindented),
    ] {
        let (_, h) = canonicalize(variant).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(h, h0, "{what}: canonical hash changed");
    }

    // And therefore they share one finished-report cache entry: four
    // analyze calls, one miss.
    let pipeline = Pipeline::new();
    let mut opts = AnalysisOptions::default();
    opts.set("params", "M=6,N=6,K=6").expect("params");
    opts.set("derive-only", "").expect("flag");
    let first = pipeline.analyze(&src, &opts).expect("analyze");
    assert!(!first.cached, "first request computes");
    for variant in [&commented, &blank_lines, &trailing_ws, &reindented] {
        let again = pipeline.analyze(variant, &opts).expect("analyze variant");
        assert!(again.cached, "formatting variant missed the cache");
        assert!(
            Arc::ptr_eq(&first.outcome, &again.outcome),
            "variant produced a distinct report object"
        );
    }
    let stats = pipeline.cache().stats();
    assert_eq!(stats.report.misses, 1, "one pipeline run for all variants");
    assert_eq!(stats.report.hits, 4);
    // The parse layer keys on the *raw* bytes, so each distinct variant
    // text is its own parse-layer entry — all converging on one hash.
    assert_eq!(stats.parse.misses, 5);
}

#[test]
fn distinct_options_do_not_share_entries() {
    let src = std::fs::read_to_string(kernels_dir().join("gemm_tiled.iolb")).expect("kernel");
    let pipeline = Pipeline::new();
    let mut a = AnalysisOptions::default();
    a.set("params", "M=6,N=6,K=6").expect("params");
    a.set("derive-only", "").expect("flag");
    let mut b = AnalysisOptions::default();
    b.set("params", "M=7,N=6,K=6").expect("params");
    b.set("derive-only", "").expect("flag");
    let ra = pipeline.analyze(&src, &a).expect("a");
    let rb = pipeline.analyze(&src, &b).expect("b");
    assert!(!ra.cached && !rb.cached);
    assert_eq!(pipeline.cache().stats().report.misses, 2);
    assert_ne!(ra.outcome.params, rb.outcome.params);
}
