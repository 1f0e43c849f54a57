//! The `fuzz/v1` report layout, pinned byte-for-byte: failure rows carry
//! quotes, backslashes, newlines and control characters escaped.
//!
//! To regenerate after an intentional schema change:
//! `UPDATE_GOLDEN=1 cargo test -p iolb-fuzz --test report_golden`.

use iolb_fuzz::{fuzz_report_json, FuzzConfig, FuzzFailure, FuzzReport, FuzzStats, Violation};
use std::path::PathBuf;

#[test]
fn report_json_matches_golden() {
    let failure = |case_index, detail: &str| FuzzFailure {
        case_index,
        violation: Violation {
            invariant: "bound-exceeds-opt",
            detail: detail.to_string(),
        },
        original: "kernel k(N) {\n  array A[N];\n}\n".to_string(),
        minimized: "kernel k(N) {\n\t\"min\" \\ ≤\n}\n".to_string(),
        minimized_stmts: 1,
    };
    let report = FuzzReport {
        config: FuzzConfig::new(9, 2),
        stats: FuzzStats {
            instances: 40,
            classical: 2,
            ..FuzzStats::default()
        },
        failures: vec![
            failure(0, "lb \"7\" > opt 5 at C:\\s\nnext\u{1}\r"),
            failure(1, "plain"),
        ],
    };
    let json = fuzz_report_json(&report);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fuzz_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).expect("write golden");
    }
    assert_eq!(std::fs::read_to_string(&path).expect("golden"), json);
}
