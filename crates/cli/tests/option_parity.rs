//! One switchboard for analysis options: every key that
//! `AnalysisOptions::set` documents parses to the same options whether it
//! arrives as an `iolb` flag or as a member of a typed `POST /analyze`
//! body's `options`.

use iolb_cli::parse_args;
use iolb_service::{AnalysisOptions, AnalyzeRequest, FLAG_KEYS};

/// Every key named in `AnalysisOptions::set`'s doc, with one non-default
/// sample value (empty for the presence flags).
const KEYS: &[(&str, &str)] = &[
    ("params", "M=8,N=16"),
    ("stmt", "SU"),
    ("s-grid", "0,4,16"),
    ("engines", "spectral,input-floor"),
    ("no-tightness", ""),
    ("derive-only", ""),
    ("max-instances", "100"),
    ("max-cdag-nodes", "200"),
    ("max-cdag-edges", "300"),
    ("max-trace", "400"),
    ("max-arena-bytes", "500"),
    ("max-work", "600"),
    ("deadline-ms", "700"),
    ("no-degrade", ""),
    ("curve-strategy", "materialized"),
    ("inject", "oom@store_append"),
];

fn cli(key: &str, value: &str) -> AnalysisOptions {
    let mut args = vec![format!("--{key}")];
    if !FLAG_KEYS.contains(&key) {
        args.push(value.to_string());
    }
    args.push("f.iolb".to_string());
    parse_args(&args)
        .unwrap_or_else(|e| panic!("--{key}: {e}"))
        .analysis
}

fn body(json: &str) -> AnalysisOptions {
    AnalyzeRequest::parse(json)
        .and_then(|r| r.options())
        .unwrap_or_else(|e| panic!("{json}: {e}"))
}

fn assert_same(what: &str, a: &AnalysisOptions, b: &AnalysisOptions) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}");
    assert_eq!(a.inject, b.inject, "{what}");
}

#[test]
fn every_key_parses_alike_as_a_flag_and_as_a_body_option() {
    assert_eq!(KEYS.len(), 16, "the keys `AnalysisOptions::set` documents");
    for flag in FLAG_KEYS {
        assert!(KEYS.contains(&(flag, "")), "{flag} is a presence flag");
    }
    let default = AnalysisOptions::default();
    for &(key, value) in KEYS {
        let from_cli = cli(key, value);
        assert!(
            from_cli.fingerprint() != default.fingerprint() || from_cli.inject.is_some(),
            "--{key} {value} must change the options"
        );
        if FLAG_KEYS.contains(&key) {
            let as_true = format!("{{\"source\": \"k\", \"options\": {{\"{key}\": true}}}}");
            assert_same(&format!("{key}: true"), &from_cli, &body(&as_true));
            let bare = AnalyzeRequest::body("k", &[(key, "")]);
            assert_same(&format!("{key}: \"\""), &from_cli, &body(&bare));
        } else {
            let typed = AnalyzeRequest::body("k", &[(key, value)]);
            assert_same(key, &from_cli, &body(&typed));
        }
    }
}

#[test]
fn cli_inject_diagnostic_lists_every_seam() {
    let err = parse_args(&[
        "--inject".to_string(),
        "bogus".to_string(),
        "f.iolb".to_string(),
    ])
    .unwrap_err();
    for seam in [
        "admission",
        "instances",
        "cdag_fill",
        "lru_pass",
        "opt_pass",
        "tuner",
        "store_append",
        "store_flush",
        "store_compact",
        "store_recover",
    ] {
        assert!(err.contains(seam), "{seam} missing from: {err}");
    }
}
