//! The paper-figure binaries against committed goldens: each bin's stdout
//! must equal `tests/golden/<bin>.txt` byte for byte. The tables are
//! deterministic (exact derivations, seeded inputs, exact simulators), so
//! any difference is a change in a derived bound or a measured load.
//!
//! After an intended change, regenerate a golden with
//! `cargo run --release -p iolb-bench --bin <bin> > crates/bench/tests/golden/<bin>.txt`.

use std::path::Path;
use std::process::Command;

fn assert_golden(bin: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{bin}.txt"));
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "{bin}: stdout differs from {} at line {}\n--- got ---\n{got}",
            path.display(),
            line + 1
        );
    }
}

#[test]
fn fig4_matches_golden() {
    assert_golden("fig4", env!("CARGO_BIN_EXE_fig4"));
}

#[test]
fn fig5_matches_golden() {
    assert_golden("fig5", env!("CARGO_BIN_EXE_fig5"));
}

#[test]
fn theorems_matches_golden() {
    assert_golden("theorems", env!("CARGO_BIN_EXE_theorems"));
}

#[test]
fn sandwich_matches_golden() {
    assert_golden("sandwich", env!("CARGO_BIN_EXE_sandwich"));
}

#[test]
fn tiled_mgs_matches_golden() {
    assert_golden("tiled_mgs", env!("CARGO_BIN_EXE_tiled_mgs"));
}

#[test]
fn tiled_a2v_matches_golden() {
    assert_golden("tiled_a2v", env!("CARGO_BIN_EXE_tiled_a2v"));
}
