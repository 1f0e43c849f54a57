//! `xtask` — repo automation. Two subcommands:
//!
//! `xtask gate --baseline <dir> --fresh <dir> [--tolerance 0.02]`
//!
//! `xtask fuzz-smoke [--seeds 1,2,3] [--cases 200] [--max-seconds 300]`
//! runs the kernel-space fuzzer (`iolb-fuzz`) over a fixed seed set and
//! fails on any differential-oracle violation. The seed set and case
//! count are fixed defaults — never wall-clock derived — so every CI run
//! checks the same kernels; the time budget only stops *starting* further
//! seeds when the runner is slow, it never changes what a seed generates.
//!
//! `xtask fuzz-smoke --inject all|panic,oom,deadline` instead runs the
//! fault-injection matrix: every named fault class armed at every
//! governed seam, asserting each surfaces as its typed error class with
//! clean state afterwards — the CI proof that no fault aborts a batch.
//!
//! The CI bench/tightness regression gate: compares freshly generated
//! `BENCH_pebble.json` / `BENCH_tightness.json` / `BENCH_serve.json`
//! against the committed baselines and fails on
//!
//! * **a schema the emitters no longer write** — anything but
//!   pebble-sweep/v5, tightness/v3 and serve-bench/v3, on either side;
//! * **soundness loss** — any fresh pebble cell with `sound: false`;
//! * **coverage loss** — a baseline cell/point missing from the fresh run
//!   (a kernel or S value silently dropped from the suite);
//! * **tightness regression** — a fresh `(kernel, S)` ratio exceeding the
//!   baseline ratio by more than the relative tolerance, or any fresh
//!   ratio that is not finite;
//! * **tightness change** — a fresh point whose `upper_loads`,
//!   `upper_schedule`, `program_order_loads` or `trace_lru_loads` differs
//!   from the baseline point's (these are exact; a better tuner commits a
//!   regenerated baseline).
//!
//! Wall times, thread counts, and other volatile `meta` data are ignored;
//! the comparable sections of both reports are deterministic, so on an
//! unchanged tree the gate compares byte-equal values.

mod crash_smoke;
mod serve_bench;

/// The gate's JSON reader: the service's reader, pinned here against the
/// report shapes the repo's emitters write.
mod json {
    pub use iolb_service::json::{parse, Value};

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_the_emitters_shapes() {
            let v = parse(
                r#"{"schema": "x/v2", "meta": {"threads": 8, "total_wall_ms": 12.5},
                    "rows": [{"kernel": "a", "params": [1, 2], "sound": true, "x": null, "r": -1.25e2}]}"#,
            )
            .unwrap();
            assert_eq!(v.get("schema").unwrap().str(), Some("x/v2"));
            assert_eq!(
                v.get("meta").unwrap().get("threads").unwrap().num(),
                Some(8.0)
            );
            let row = &v.get("rows").unwrap().arr().unwrap()[0];
            assert_eq!(row.get("sound").unwrap().bool(), Some(true));
            assert_eq!(row.get("x"), Some(&Value::Null));
            assert_eq!(row.get("r").unwrap().num(), Some(-125.0));
            assert_eq!(row.get("params").unwrap().arr().unwrap().len(), 2);
        }

        #[test]
        fn rejects_garbage() {
            assert!(parse("{").is_err());
            assert!(parse("[1,]").is_err());
            assert!(parse("{\"a\" 1}").is_err());
            assert!(parse("12 34").is_err());
            assert!(parse("").is_err());
        }
    }
}

use json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
xtask — repo automation

USAGE:
    xtask gate --baseline <DIR> --fresh <DIR> [--tolerance 0.02]
    xtask fuzz-smoke [--seeds 1,2,3] [--cases 200] [--max-seconds 300]
    xtask fuzz-smoke --inject all|panic,oom,deadline
    xtask serve-bench [--iolbd PATH] [--iolb PATH] [--kernels DIR]
                      [--out BENCH_serve.json] [--warm-passes 5]
    xtask crash-smoke [--iolbd PATH] [--kernels DIR]

`gate` diffs <DIR>/BENCH_pebble.json, <DIR>/BENCH_tightness.json and
<DIR>/BENCH_serve.json between the two directories and exits nonzero on a
schema other than pebble-sweep/v5, tightness/v3 or serve-bench/v3,
soundness loss, coverage loss, tightness-ratio regression beyond the
tolerance, a changed tightness upper bound, schedule or load count, a
failed kernel row, a kernel degraded below its baseline fidelity rung, a
curve-engine scaling regression, or engine-coverage loss.
The fresh daemon bench must match the CLI on its cold and re-grid passes
and keep the warm cache hit rate at or above 0.99.

`serve-bench` starts the `iolbd` daemon on an ephemeral loopback port,
replays every kernel cold, on a second grid of the same horizon (answered
by the priced cache layer), and warm, verifies the cold and re-grid
responses against the `iolb` CLI row for row, and writes the
BENCH_serve.json report.

`crash-smoke` starts `iolbd` against a scratch persistent store, kills it
with SIGKILL in the middle of a write burst, restarts it against the same
directory, and exits nonzero unless recovery truncated the torn journal
tail, skipped (and counted) a deliberately corrupted record, served every
previously computed body byte-identical as a persisted hit, and drained
cleanly on SIGTERM.

`fuzz-smoke` runs the kernel-space fuzzer over a fixed seed set and exits
nonzero on any differential-oracle violation (bounded CI job; the time
budget caps how many seeds start, never what a seed generates). With
`--inject` it instead runs the fault-injection matrix (listed classes ×
every governed seam) and exits nonzero unless every fault surfaced as its
typed error class and left clean state behind.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gate") => match parse_gate_args(&args[1..]) {
            Ok((baseline, fresh, tol)) => run_gate(&baseline, &fresh, tol),
            Err(msg) => {
                eprintln!("{msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("fuzz-smoke") => match parse_fuzz_smoke_args(&args[1..]) {
            Ok(opts) => run_fuzz_smoke(&opts),
            Err(msg) => {
                eprintln!("{msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("serve-bench") => match serve_bench::parse_serve_bench_args(&args[1..]) {
            Ok(opts) => serve_bench::run_serve_bench(&opts),
            Err(msg) => {
                eprintln!("{msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("crash-smoke") => match crash_smoke::parse_crash_smoke_args(&args[1..]) {
            Ok(opts) => crash_smoke::run_crash_smoke(&opts),
            Err(msg) => {
                eprintln!("{msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `fuzz-smoke` options.
struct FuzzSmokeOpts {
    seeds: Vec<u64>,
    cases: u64,
    max_seconds: u64,
    /// Fault classes for `--inject` mode (empty = run the random oracle).
    inject: Vec<iolb_fuzz::inject::FaultKind>,
}

fn parse_fuzz_smoke_args(args: &[String]) -> Result<FuzzSmokeOpts, String> {
    let mut opts = FuzzSmokeOpts {
        seeds: vec![1, 2, 3],
        cases: 200,
        max_seconds: 300,
        inject: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                opts.seeds = it
                    .next()
                    .ok_or("--seeds needs a list")?
                    .split(',')
                    .map(|s| s.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "bad --seeds list".to_string())?;
                if opts.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".to_string());
                }
            }
            "--cases" => {
                opts.cases = it
                    .next()
                    .ok_or("--cases needs a value")?
                    .parse()
                    .map_err(|_| "bad --cases value".to_string())?;
            }
            "--max-seconds" => {
                opts.max_seconds = it
                    .next()
                    .ok_or("--max-seconds needs a value")?
                    .parse()
                    .map_err(|_| "bad --max-seconds value".to_string())?;
            }
            "--inject" => {
                let spec = it.next().ok_or("--inject needs a class list or `all`")?;
                opts.inject = if spec == "all" {
                    iolb_fuzz::inject::FaultKind::ALL.to_vec()
                } else {
                    spec.split(',')
                        .map(|s| {
                            iolb_fuzz::inject::FaultKind::parse(s.trim()).ok_or_else(|| {
                                format!("bad --inject class `{s}` (want panic|oom|deadline|all)")
                            })
                        })
                        .collect::<Result<_, _>>()?
                };
                if opts.inject.is_empty() {
                    return Err("--inject needs at least one class".to_string());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// `--inject` mode: the full fault matrix instead of the random oracle.
fn run_injection_smoke(kinds: &[iolb_fuzz::inject::FaultKind]) -> ExitCode {
    let report = iolb_fuzz::run_injection_matrix(kinds);
    print!("{}", report.render_table());
    if report.all_expected() {
        println!(
            "injection smoke ✓ — {} cell(s): every fault surfaced as its typed class, \
             clean state after each, zero process aborts",
            report.outcomes.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("injection smoke ✗ — a fault escaped its class or poisoned state");
        ExitCode::FAILURE
    }
}

fn run_fuzz_smoke(opts: &FuzzSmokeOpts) -> ExitCode {
    if !opts.inject.is_empty() {
        return run_injection_smoke(&opts.inject);
    }
    let start = std::time::Instant::now();
    let mut total_violations = 0usize;
    let mut seeds_run = 0usize;
    for &seed in &opts.seeds {
        if seeds_run > 0 && start.elapsed().as_secs() >= opts.max_seconds {
            println!(
                "fuzz-smoke: time budget ({}s) reached after {seeds_run} seed(s); \
                 remaining seeds skipped",
                opts.max_seconds
            );
            break;
        }
        let report = iolb_fuzz::run_fuzz(&iolb_fuzz::FuzzConfig::new(seed, opts.cases));
        seeds_run += 1;
        println!(
            "fuzz-smoke seed={seed}: {} cases, {} violation(s), {} certified instances",
            report.config.cases,
            report.failures.len(),
            report.stats.instances
        );
        for f in &report.failures {
            eprintln!(
                "VIOLATION seed={seed} case {}: [{}] {}\nminimized ({} stmt(s)):\n{}",
                f.case_index,
                f.violation.invariant,
                f.violation.detail,
                f.minimized_stmts,
                f.minimized
            );
        }
        total_violations += report.failures.len();
    }
    if total_violations == 0 {
        println!("fuzz-smoke ✓ — {seeds_run} seed(s), zero oracle violations");
        ExitCode::SUCCESS
    } else {
        eprintln!("fuzz-smoke ✗ — {total_violations} violation(s)");
        ExitCode::FAILURE
    }
}

fn parse_gate_args(args: &[String]) -> Result<(PathBuf, PathBuf, f64), String> {
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut tol = 0.02f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a dir")?))
            }
            "--fresh" => fresh = Some(PathBuf::from(it.next().ok_or("--fresh needs a dir")?)),
            "--tolerance" => {
                tol = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|_| "bad --tolerance value".to_string())?;
                if !(0.0..1.0).contains(&tol) {
                    return Err("--tolerance must be in [0, 1)".to_string());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((
        baseline.ok_or("missing --baseline")?,
        fresh.ok_or("missing --fresh")?,
        tol,
    ))
}

/// Schema versions the gate knows how to compare. The pebble sweep moved
/// from per-cell play replays (v2) to one-pass miss curves (v3, `peak_red`
/// dropped), and tightness from pebble-play upper bounds with a
/// `trace_min_loads` side column (v1) to optimal-curve upper bounds (v2);
/// the keys the gate reads are stable across those bumps, so it accepts
/// both generations on either side of the diff.
/// The schemas the emitters write; the gate reads nothing else.
const PEBBLE_SCHEMA: &str = "hourglass-iolb/pebble-sweep/v5";
const TIGHTNESS_SCHEMA: &str = "hourglass-iolb/tightness/v3";

fn check_schema(doc: &Value, which: &str, expected: &str, violations: &mut Vec<String>) {
    match doc.get("schema").and_then(Value::str) {
        Some(s) if s == expected => {}
        Some(s) => violations.push(format!(
            "{which}: unknown schema `{s}` (gate understands `{expected}`)"
        )),
        None => violations.push(format!("{which}: missing `schema` field")),
    }
}

/// Fidelity rank of a degradation level (higher = more degraded).
fn degradation_rank(level: &str) -> Option<u8> {
    match level {
        "full" => Some(0),
        "coarse" => Some(1),
        "bounds_only" => Some(2),
        _ => None,
    }
}

/// Governance-section checks: both arrays must exist and be
/// well-formed, any fresh failure row is a regression, and no kernel may
/// report a fidelity rung below its baseline (absent baseline entries
/// default to `full`).
fn gate_governance(base: &Value, new: &Value, which: &str, violations: &mut Vec<String>) {
    for field in ["degradation", "failures"] {
        if new.get(field).is_none() {
            violations.push(format!("{which}: report requires a `{field}` array"));
        }
    }
    for row in new.get("failures").and_then(Value::arr).unwrap_or(&[]) {
        let kernel = row.get("kernel").and_then(Value::str).unwrap_or("?");
        let class = row.get("class").and_then(Value::str).unwrap_or("?");
        let message = row.get("message").and_then(Value::str).unwrap_or("");
        violations.push(format!(
            "{which}: failed kernel in fresh report: {kernel} [{class}] {message}"
        ));
    }
    let base_level = |kernel: &str| -> &str {
        base.get("degradation")
            .and_then(Value::arr)
            .unwrap_or(&[])
            .iter()
            .find(|r| r.get("kernel").and_then(Value::str) == Some(kernel))
            .and_then(|r| r.get("level").and_then(Value::str))
            .unwrap_or("full")
    };
    for row in new.get("degradation").and_then(Value::arr).unwrap_or(&[]) {
        let kernel = row.get("kernel").and_then(Value::str).unwrap_or("?");
        let level = row.get("level").and_then(Value::str).unwrap_or("?");
        let Some(rank) = degradation_rank(level) else {
            violations.push(format!(
                "{which}: {kernel}: unknown degradation level `{level}`"
            ));
            continue;
        };
        let baseline = base_level(kernel);
        if degradation_rank(baseline).map(|b| rank > b) == Some(true) {
            violations.push(format!(
                "{which}: {kernel}: degraded below baseline fidelity ({baseline} → {level})"
            ));
        }
    }
}

fn run_gate(baseline: &Path, fresh: &Path, tol: f64) -> ExitCode {
    let mut violations: Vec<String> = Vec::new();
    match load_pair(baseline, fresh, "BENCH_pebble.json") {
        Ok((base, new)) => {
            check_schema(&base, "pebble baseline", PEBBLE_SCHEMA, &mut violations);
            check_schema(&new, "pebble fresh", PEBBLE_SCHEMA, &mut violations);
            gate_pebble(&base, &new, &mut violations);
            gate_governance(&base, &new, "pebble", &mut violations);
            gate_engine_coverage(&base, &new, &mut violations);
            gate_scaling(&base, &new, &mut violations);
        }
        Err(e) => violations.push(e),
    }
    match load_pair(baseline, fresh, "BENCH_tightness.json") {
        Ok((base, new)) => {
            check_schema(
                &base,
                "tightness baseline",
                TIGHTNESS_SCHEMA,
                &mut violations,
            );
            check_schema(&new, "tightness fresh", TIGHTNESS_SCHEMA, &mut violations);
            gate_tightness(&base, &new, tol, &mut violations);
            gate_governance(&base, &new, "tightness", &mut violations);
        }
        Err(e) => violations.push(e),
    }
    match load_pair(baseline, fresh, "BENCH_serve.json") {
        Ok((base, new)) => {
            check_schema(
                &base,
                "serve baseline",
                serve_bench::SERVE_SCHEMA,
                &mut violations,
            );
            check_schema(
                &new,
                "serve fresh",
                serve_bench::SERVE_SCHEMA,
                &mut violations,
            );
            serve_bench::gate_serve(&base, &new, &mut violations);
        }
        Err(e) => violations.push(e),
    }
    if violations.is_empty() {
        println!("gate ✓ — soundness and tightness no worse than the committed baselines (tolerance {tol})");
        ExitCode::SUCCESS
    } else {
        eprintln!("gate ✗ — {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}

fn load_pair(baseline: &Path, fresh: &Path, name: &str) -> Result<(Value, Value), String> {
    let read = |dir: &Path| -> Result<Value, String> {
        let path = dir.join(name);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok((read(baseline)?, read(fresh)?))
}

/// Key of one pebble cell: kernel, params, S, policy.
fn pebble_key(row: &Value) -> String {
    format!(
        "{}{:?} S={} {}",
        row.get("kernel").and_then(Value::str).unwrap_or("?"),
        row.get("params")
            .and_then(Value::arr)
            .map(|p| p.iter().filter_map(Value::num).collect::<Vec<f64>>())
            .unwrap_or_default(),
        row.get("s").and_then(Value::num).unwrap_or(-1.0),
        row.get("policy").and_then(Value::str).unwrap_or("?"),
    )
}

fn gate_pebble(base: &Value, new: &Value, violations: &mut Vec<String>) {
    let fresh_rows = new.get("rows").and_then(Value::arr).unwrap_or(&[]);
    // Soundness loss: every fresh cell must be sound.
    for row in fresh_rows {
        if row.get("sound").and_then(Value::bool) != Some(true) {
            violations.push(format!("pebble: UNSOUND fresh cell {}", pebble_key(row)));
        }
    }
    // Coverage loss: every baseline cell must still be produced.
    let fresh_keys: Vec<String> = fresh_rows.iter().map(pebble_key).collect();
    for row in base.get("rows").and_then(Value::arr).unwrap_or(&[]) {
        let key = pebble_key(row);
        if !fresh_keys.contains(&key) {
            violations.push(format!(
                "pebble: baseline cell missing from fresh run: {key}"
            ));
        }
    }
}

/// The curve-engine scaling points of a pebble report's `meta` section,
/// as `(accesses, policy, wall_ms)` triples.
fn scaling_points(doc: &Value) -> Vec<(u64, String, f64)> {
    doc.get("meta")
        .and_then(|m| m.get("scaling"))
        .and_then(Value::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            Some((
                p.get("accesses").and_then(Value::num)? as u64,
                p.get("policy").and_then(Value::str)?.to_string(),
                p.get("wall_ms").and_then(Value::num)?,
            ))
        })
        .collect()
}

/// Wall-time floor for the curve-engine scaling gate: points cheaper than
/// this in the baseline are timing noise, not a trend, and are not gated.
const SCALING_MIN_BASE_MS: f64 = 1.0;

/// Gates the curve-engine scaling series: for each policy, the fresh wall
/// time of the *largest* baseline point must stay within 2× of the
/// baseline — a streaming/sharding regression shows up at the big end
/// first. A baseline without a scaling series is a violation; a fresh run
/// that dropped a gated point is a coverage loss.
fn gate_scaling(base: &Value, new: &Value, violations: &mut Vec<String>) {
    let base_pts = scaling_points(base);
    if base_pts.is_empty() {
        violations.push("scaling: baseline has no curve-engine scaling series".to_string());
        return;
    }
    let fresh_pts = scaling_points(new);
    let mut policies: Vec<&str> = base_pts.iter().map(|(_, p, _)| p.as_str()).collect();
    policies.sort_unstable();
    policies.dedup();
    for policy in policies {
        let Some((accesses, _, base_ms)) = base_pts
            .iter()
            .filter(|(_, p, _)| p == policy)
            .max_by_key(|(a, _, _)| *a)
        else {
            continue;
        };
        let Some((_, _, fresh_ms)) = fresh_pts
            .iter()
            .find(|(a, p, _)| a == accesses && p == policy)
        else {
            violations.push(format!(
                "scaling: baseline point missing from fresh run: {accesses} accesses {policy}"
            ));
            continue;
        };
        if *base_ms >= SCALING_MIN_BASE_MS && *fresh_ms > 2.0 * base_ms {
            violations.push(format!(
                "scaling: {policy} at {accesses} accesses regressed more than 2×: \
                 {base_ms:.1} ms → {fresh_ms:.1} ms"
            ));
        }
    }
}

/// Engine coverage of a pebble report: kernel groups (kernel × params)
/// with at least one finite graph-level engine cell in some row, over all
/// groups.
fn engine_coverage(doc: &Value) -> (usize, usize) {
    let mut groups: Vec<(String, bool)> = Vec::new();
    for row in doc.get("rows").and_then(Value::arr).unwrap_or(&[]) {
        let key = format!(
            "{}{:?}",
            row.get("kernel").and_then(Value::str).unwrap_or("?"),
            row.get("params")
                .and_then(Value::arr)
                .map(|p| p.iter().filter_map(Value::num).collect::<Vec<f64>>())
                .unwrap_or_default(),
        );
        let finite = ["lb_input", "lb_visit", "lb_spectral"]
            .iter()
            .any(|f| row.get(f).and_then(Value::num).is_some());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, covered)) => *covered |= finite,
            None => groups.push((key, finite)),
        }
    }
    let total = groups.len();
    let covered = groups.iter().filter(|(_, c)| *c).count();
    (covered, total)
}

/// The engine-coverage floor: the fraction of kernel groups with at least
/// one finite graph-level bound must not regress against the baseline.
fn gate_engine_coverage(base: &Value, new: &Value, violations: &mut Vec<String>) {
    let (fresh_cov, fresh_total) = engine_coverage(new);
    let (base_cov, base_total) = engine_coverage(base);
    if fresh_total == 0 || base_total == 0 {
        return; // empty row sections are already coverage-loss violations
    }
    let fresh_frac = fresh_cov as f64 / fresh_total as f64;
    let base_frac = base_cov as f64 / base_total as f64;
    if fresh_frac + 1e-9 < base_frac {
        violations.push(format!(
            "pebble: engine coverage regressed: {base_cov}/{base_total} kernel group(s) \
             with a finite graph bound → {fresh_cov}/{fresh_total}"
        ));
    }
}

/// The measured fields of a tightness point the gate requires to equal
/// the baseline's: they are deterministic counts and names, so any change
/// (a lower `upper_loads` included) is a changed tuner, which commits a
/// regenerated baseline.
const TIGHTNESS_EXACT: [&str; 4] = [
    "upper_loads",
    "upper_schedule",
    "program_order_loads",
    "trace_lru_loads",
];

fn gate_tightness(base: &Value, new: &Value, tol: f64, violations: &mut Vec<String>) {
    // (kernel, s, point) for both sides.
    let collect = |doc: &Value| -> Vec<(String, f64, Value)> {
        let mut out = Vec::new();
        for k in doc.get("kernels").and_then(Value::arr).unwrap_or(&[]) {
            let name = k
                .get("kernel")
                .and_then(Value::str)
                .unwrap_or("?")
                .to_string();
            for p in k.get("points").and_then(Value::arr).unwrap_or(&[]) {
                let s = p.get("s").and_then(Value::num).unwrap_or(-1.0);
                out.push((name.clone(), s, p.clone()));
            }
        }
        out
    };
    let ratio = |p: &Value| p.get("ratio").and_then(Value::num);
    let show = |v: Option<&Value>| match v {
        Some(Value::Num(n)) => n.to_string(),
        Some(Value::Str(s)) => format!("{s:?}"),
        Some(other) => format!("{other:?}"),
        None => "missing".to_string(),
    };
    let fresh_pts = collect(new);
    // Every fresh ratio must be a finite number.
    for (kernel, s, p) in &fresh_pts {
        match ratio(p) {
            Some(r) if r.is_finite() => {}
            _ => violations.push(format!("tightness: {kernel} S={s}: ratio is not finite")),
        }
    }
    // Per baseline point: present in fresh, its measured fields unchanged,
    // and its ratio not regressed beyond tol.
    for (kernel, s, base_p) in collect(base) {
        let Some((_, _, fresh_p)) = fresh_pts.iter().find(|(k, fs, _)| *k == kernel && *fs == s)
        else {
            violations.push(format!(
                "tightness: baseline point missing from fresh run: {kernel} S={s}"
            ));
            continue;
        };
        for field in TIGHTNESS_EXACT {
            let (was, now) = (base_p.get(field), fresh_p.get(field));
            if was != now {
                violations.push(format!(
                    "tightness: {kernel} S={s}: {field} changed {} → {}",
                    show(was),
                    show(now)
                ));
            }
        }
        let (Some(base_ratio), Some(fresh_ratio)) = (ratio(&base_p), ratio(fresh_p)) else {
            continue; // a missing fresh ratio is already reported as non-finite
        };
        let limit = base_ratio * (1.0 + tol) + 1e-9;
        if fresh_ratio > limit {
            violations.push(format!(
                "tightness: {kernel} S={s}: ratio regressed {base_ratio:.4} → {fresh_ratio:.4} (limit {limit:.4})"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pebble(rows: &str) -> Value {
        json::parse(&format!(
            r#"{{"schema": "hourglass-iolb/pebble-sweep/v5", "meta": {{"threads": 1, "total_wall_ms": 1.0}}, "degradation": [], "failures": [], "rows": [{rows}]}}"#
        ))
        .unwrap()
    }

    fn tight(kernels: &str) -> Value {
        json::parse(&format!(
            r#"{{"schema": "hourglass-iolb/tightness/v3", "meta": {{"threads": 1, "total_wall_ms": 1.0}}, "degradation": [], "failures": [], "kernels": [{kernels}]}}"#
        ))
        .unwrap()
    }

    const CELL: &str =
        r#"{"kernel": "a", "params": [8], "s": 4, "policy": "lru", "loads": 10, "sound": true}"#;

    #[test]
    fn pebble_gate_passes_on_identical_reports() {
        let mut v = Vec::new();
        gate_pebble(&pebble(CELL), &pebble(CELL), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn pebble_gate_flags_soundness_and_coverage_loss() {
        let unsound = CELL.replace("true", "false");
        let mut v = Vec::new();
        gate_pebble(&pebble(CELL), &pebble(&unsound), &mut v);
        assert!(v.iter().any(|m| m.contains("UNSOUND")), "{v:?}");

        let mut v = Vec::new();
        gate_pebble(&pebble(CELL), &pebble(""), &mut v);
        assert!(v.iter().any(|m| m.contains("missing")), "{v:?}");
    }

    fn pebble_scaled(series: &str) -> Value {
        json::parse(&format!(
            r#"{{"schema": "hourglass-iolb/pebble-sweep/v5", "meta": {{"threads": 1, "total_wall_ms": 1.0, "scaling": [{series}]}}, "rows": []}}"#
        ))
        .unwrap()
    }

    const SERIES: &str = r#"{"accesses": 1000000, "policy": "lru", "wall_ms": 5.0},
        {"accesses": 100000000, "policy": "lru", "wall_ms": 400.0},
        {"accesses": 100000000, "policy": "opt", "wall_ms": 900.0}"#;

    #[test]
    fn scaling_gate_requires_a_baseline_series_and_passes_within_budget() {
        // Baseline without a scaling series: a violation, not a skip.
        let mut v = Vec::new();
        gate_scaling(&pebble(CELL), &pebble_scaled(SERIES), &mut v);
        assert!(
            v.iter()
                .any(|m| m.contains("no curve-engine scaling series")),
            "{v:?}"
        );

        // Fresh largest points within 2× of the baseline: clean.
        let ok = SERIES.replace("400.0", "780.0");
        let mut v = Vec::new();
        gate_scaling(&pebble_scaled(SERIES), &pebble_scaled(&ok), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scaling_gate_flags_regression_and_dropped_points() {
        // The largest lru point slowed down by more than 2×.
        let slow = SERIES.replace("400.0", "801.0");
        let mut v = Vec::new();
        gate_scaling(&pebble_scaled(SERIES), &pebble_scaled(&slow), &mut v);
        assert!(
            v.iter().any(|m| m.contains("regressed more than 2×")),
            "{v:?}"
        );
        assert_eq!(v.len(), 1, "opt point untouched: {v:?}");

        // The gated point vanished from the fresh run entirely.
        let only_small = r#"{"accesses": 1000000, "policy": "lru", "wall_ms": 5.0}"#;
        let mut v = Vec::new();
        gate_scaling(&pebble_scaled(SERIES), &pebble_scaled(only_small), &mut v);
        assert!(
            v.iter().any(|m| m.contains("missing from fresh run")),
            "{v:?}"
        );
    }

    const POINT: &str = r#"{"kernel": "a", "params": [8], "points": [{"s": 4, "upper_loads": 90, "upper_schedule": "tile i=2", "program_order_loads": 120, "trace_lru_loads": 100, "ratio": 2.0}]}"#;

    #[test]
    fn tightness_gate_applies_tolerance() {
        let ok = POINT.replace("2.0", "2.03");
        let bad = POINT.replace("2.0", "2.2");
        let mut v = Vec::new();
        gate_tightness(&tight(POINT), &tight(&ok), 0.02, &mut v);
        assert!(v.is_empty(), "within tolerance: {v:?}");
        let mut v = Vec::new();
        gate_tightness(&tight(POINT), &tight(&bad), 0.02, &mut v);
        assert!(v.iter().any(|m| m.contains("regressed")), "{v:?}");
    }

    #[test]
    fn tightness_gate_requires_exact_loads_and_schedule() {
        // A lower upper bound is not an improvement the gate takes on
        // trust: the measured fields must equal the baseline's.
        let lower = POINT.replace("\"upper_loads\": 90", "\"upper_loads\": 89");
        let mut v = Vec::new();
        gate_tightness(&tight(POINT), &tight(&lower), 0.02, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("upper_loads changed"), "{v:?}");

        let renamed = POINT.replace("tile i=2", "tile i=4");
        let mut v = Vec::new();
        gate_tightness(&tight(POINT), &tight(&renamed), 0.02, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("upper_schedule changed"), "{v:?}");
    }

    #[test]
    fn tightness_gate_flags_nonfinite_and_missing_points() {
        let gone = r#"{"kernel": "a", "params": [8], "points": []}"#;
        let mut v = Vec::new();
        gate_tightness(&tight(POINT), &tight(gone), 0.02, &mut v);
        assert!(v.iter().any(|m| m.contains("missing")), "{v:?}");

        let nan = POINT.replace("2.0", "null");
        let mut v = Vec::new();
        gate_tightness(&tight(POINT), &tight(&nan), 0.02, &mut v);
        assert!(v.iter().any(|m| m.contains("not finite")), "{v:?}");
    }

    #[test]
    fn schema_check_accepts_only_the_emitted_schemas() {
        let doc = |s: &str| json::parse(&format!(r#"{{"schema": "{s}"}}"#)).unwrap();
        let mut v = Vec::new();
        check_schema(&doc(PEBBLE_SCHEMA), "pebble", PEBBLE_SCHEMA, &mut v);
        check_schema(
            &doc(TIGHTNESS_SCHEMA),
            "tightness",
            TIGHTNESS_SCHEMA,
            &mut v,
        );
        check_schema(
            &doc(serve_bench::SERVE_SCHEMA),
            "serve",
            serve_bench::SERVE_SCHEMA,
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
        // Older generations are rejected like strangers.
        for (old, current) in [
            ("hourglass-iolb/pebble-sweep/v4", PEBBLE_SCHEMA),
            ("hourglass-iolb/tightness/v2", TIGHTNESS_SCHEMA),
            ("hourglass-iolb/serve-bench/v1", serve_bench::SERVE_SCHEMA),
            ("hourglass-iolb/serve-bench/v2", serve_bench::SERVE_SCHEMA),
            ("hourglass-iolb/pebble-sweep/v99", PEBBLE_SCHEMA),
        ] {
            let mut v = Vec::new();
            check_schema(&doc(old), "report", current, &mut v);
            assert_eq!(v.len(), 1, "{old}: {v:?}");
            assert!(v[0].contains("unknown schema"), "{v:?}");
        }
        let mut v = Vec::new();
        check_schema(
            &json::parse("{}").unwrap(),
            "tightness",
            TIGHTNESS_SCHEMA,
            &mut v,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("missing"));
    }

    fn governed(degradation: &str, failures: &str) -> Value {
        json::parse(&format!(
            r#"{{"schema": "hourglass-iolb/pebble-sweep/v5", "meta": {{"threads": 1, "total_wall_ms": 1.0}}, "degradation": [{degradation}], "failures": [{failures}], "rows": []}}"#
        ))
        .unwrap()
    }

    #[test]
    fn governance_gate_passes_a_clean_governed_report() {
        let doc = governed(r#"{"kernel": "a", "level": "full"}"#, "");
        let mut v = Vec::new();
        gate_governance(&doc, &doc, "pebble", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn governance_gate_flags_failures_missing_fields_and_degradation() {
        let clean = governed(r#"{"kernel": "a", "level": "full"}"#, "");

        // A fresh failure row is a regression.
        let failed = governed(
            r#"{"kernel": "a", "level": "full"}"#,
            r#"{"kernel": "b", "class": "internal", "message": "boom"}"#,
        );
        let mut v = Vec::new();
        gate_governance(&clean, &failed, "pebble", &mut v);
        assert!(
            v.iter()
                .any(|m| m.contains("failed kernel") && m.contains("[internal]")),
            "{v:?}"
        );

        // Degrading below the baseline rung is a regression; matching or
        // improving on it is not.
        let coarse = governed(r#"{"kernel": "a", "level": "coarse"}"#, "");
        let mut v = Vec::new();
        gate_governance(&clean, &coarse, "pebble", &mut v);
        assert!(
            v.iter().any(|m| m.contains("degraded below baseline")),
            "{v:?}"
        );
        let mut v = Vec::new();
        gate_governance(&coarse, &coarse, "pebble", &mut v);
        assert!(v.is_empty(), "same rung as baseline: {v:?}");
        let mut v = Vec::new();
        gate_governance(&coarse, &clean, "pebble", &mut v);
        assert!(v.is_empty(), "improved rung: {v:?}");

        // Unknown levels and missing sections are schema violations.
        let bogus = governed(r#"{"kernel": "a", "level": "mystery"}"#, "");
        let mut v = Vec::new();
        gate_governance(&clean, &bogus, "pebble", &mut v);
        assert!(
            v.iter().any(|m| m.contains("unknown degradation level")),
            "{v:?}"
        );
        // Both arrays are required, whatever the schema field says.
        let bare =
            json::parse(r#"{"schema": "hourglass-iolb/pebble-sweep/v3", "rows": []}"#).unwrap();
        let mut v = Vec::new();
        gate_governance(&clean, &bare, "pebble", &mut v);
        assert_eq!(v.len(), 2, "both governance arrays required: {v:?}");
    }

    const V5_COVERED: &str = r#"{"kernel": "a", "params": [8], "s": 4, "policy": "lru", "loads": 10, "sound": true, "lb_input": 3, "lb_visit": null, "lb_spectral": null}"#;
    const V5_UNCOVERED: &str = r#"{"kernel": "a", "params": [8], "s": 4, "policy": "lru", "loads": 10, "sound": true, "lb_input": null, "lb_visit": null, "lb_spectral": null}"#;

    #[test]
    fn engine_coverage_counts_kernel_groups() {
        assert_eq!(engine_coverage(&pebble(V5_COVERED)), (1, 1));
        assert_eq!(engine_coverage(&pebble(V5_UNCOVERED)), (0, 1));
        // A row without engine columns covers nothing.
        assert_eq!(engine_coverage(&pebble(CELL)), (0, 1));
    }

    #[test]
    fn engine_coverage_floor_flags_regressions() {
        // Coverage held: clean.
        let mut v = Vec::new();
        gate_engine_coverage(&pebble(V5_COVERED), &pebble(V5_COVERED), &mut v);
        assert!(v.is_empty(), "{v:?}");

        // Coverage regressed: a covered group lost its finite bound.
        let mut v = Vec::new();
        gate_engine_coverage(&pebble(V5_COVERED), &pebble(V5_UNCOVERED), &mut v);
        assert!(
            v.iter().any(|m| m.contains("engine coverage regressed")),
            "{v:?}"
        );

        // Coverage gained: clean.
        let mut v = Vec::new();
        gate_engine_coverage(&pebble(V5_UNCOVERED), &pebble(V5_COVERED), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fuzz_smoke_inject_args_parse() {
        let opts = parse_fuzz_smoke_args(&["--inject".into(), "all".into()]).unwrap();
        assert_eq!(opts.inject.len(), 3);
        let opts = parse_fuzz_smoke_args(&["--inject".into(), "panic,deadline".into()]).unwrap();
        assert_eq!(opts.inject.len(), 2);
        assert!(parse_fuzz_smoke_args(&["--inject".into(), "nonsense".into()]).is_err());
    }

    #[test]
    fn gate_args_parse() {
        let (b, f, t) = parse_gate_args(&[
            "--baseline".into(),
            ".".into(),
            "--fresh".into(),
            "fresh".into(),
            "--tolerance".into(),
            "0.05".into(),
        ])
        .unwrap();
        assert_eq!(b, PathBuf::from("."));
        assert_eq!(f, PathBuf::from("fresh"));
        assert!((t - 0.05).abs() < 1e-12);
        assert!(parse_gate_args(&["--fresh".into(), "x".into()]).is_err());
        assert!(parse_gate_args(&[
            "--baseline".into(),
            ".".into(),
            "--fresh".into(),
            "x".into(),
            "--tolerance".into(),
            "2".into()
        ])
        .is_err());
    }
}
