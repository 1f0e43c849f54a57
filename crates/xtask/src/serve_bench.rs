//! `xtask serve-bench` — benchmark the `iolbd` analysis daemon against
//! the `iolb` CLI on the shipped kernel suite.
//!
//! The harness starts a daemon on an ephemeral loopback port, replays
//! every `kernels/*.iolb` file through `POST /analyze` twice over:
//!
//! * a **cold** pass (empty cache) whose responses must carry
//!   `X-Iolb-Cache: miss` and whose embedded sweep rows must equal, value
//!   for value, the rows the `iolb` CLI emits for the same kernels and
//!   options — the proof that fronting the pipeline with a daemon changed
//!   nothing about the analysis;
//! * a **re-grid** pass on a second grid with the cold grid's horizon:
//!   every response is again a `miss`, answered by the priced cache layer
//!   (its hit counter must rise by one per kernel), and its rows must
//!   equal the CLI's on that grid;
//! * several **warm** passes whose responses must all be cache hits and
//!   whose bodies must be byte-identical to the cold bodies.
//!
//! It then writes `BENCH_serve.json` (schema
//! `hourglass-iolb/serve-bench/v3`) with the warm hit rate, the
//! cold-vs-CLI and re-grid-vs-CLI verdicts, throughput / latency
//! percentiles, and the persistent-store counters of the bench daemon's
//! scratch store. The hit rate, the verdicts, and the store's corruption
//! counter are deterministic and gated; the timing numbers are volatile
//! and reported for trend-watching only.

use iolb_service::json::Layout::{Inline, Lines};
use iolb_service::json::{self, members, Value, Writer};
use iolb_service::AnalyzeRequest;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

/// `serve-bench` options.
pub struct ServeBenchOpts {
    /// Path to the daemon binary.
    pub iolbd: PathBuf,
    /// Path to the CLI binary (the reference implementation).
    pub iolb: PathBuf,
    /// Directory of `.iolb` kernels to replay.
    pub kernels: PathBuf,
    /// Where to write the bench report.
    pub out: PathBuf,
    /// How many warm passes over the batch.
    pub warm_passes: u32,
}

impl Default for ServeBenchOpts {
    fn default() -> Self {
        Self {
            iolbd: PathBuf::from("target/release/iolbd"),
            iolb: PathBuf::from("target/release/iolb"),
            kernels: PathBuf::from("kernels"),
            out: PathBuf::from("BENCH_serve.json"),
            warm_passes: 5,
        }
    }
}

/// Fixed bench analysis options: a small S grid and no tightness tuning,
/// so the batch completes in seconds. Both sides — the daemon's typed
/// request body and the CLI flags — are derived from these constants.
const S_GRID: &str = "0,16,64";

/// The re-grid pass's grid: other S points, the same horizon as
/// [`S_GRID`].
const REGRID: &str = "0,4,64";

pub fn parse_serve_bench_args(args: &[String]) -> Result<ServeBenchOpts, String> {
    let mut opts = ServeBenchOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iolbd" => opts.iolbd = PathBuf::from(it.next().ok_or("--iolbd needs a path")?),
            "--iolb" => opts.iolb = PathBuf::from(it.next().ok_or("--iolb needs a path")?),
            "--kernels" => opts.kernels = PathBuf::from(it.next().ok_or("--kernels needs a dir")?),
            "--out" => opts.out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--warm-passes" => {
                opts.warm_passes = it
                    .next()
                    .ok_or("--warm-passes needs a value")?
                    .parse()
                    .map_err(|_| "bad --warm-passes value".to_string())?;
                if opts.warm_passes == 0 {
                    return Err("--warm-passes must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

pub fn run_serve_bench(opts: &ServeBenchOpts) -> ExitCode {
    match serve_bench(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve-bench ✗ — {e}");
            ExitCode::FAILURE
        }
    }
}

/// The daemon child plus the address it reported. Shared with
/// `crash-smoke`, which starts daemons against a persistent store and
/// kills them mid-burst.
pub(crate) struct Daemon {
    pub(crate) child: Child,
    pub(crate) addr: String,
}

impl Daemon {
    /// Starts the daemon with extra command-line arguments appended
    /// (`--store DIR`, deadline overrides, …).
    pub(crate) fn start_with(binary: &Path, extra: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon banner: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))?
            .to_string();
        Ok(Self { child, addr })
    }

    pub(crate) fn shutdown(mut self) -> Result<(), String> {
        let response = exchange(&self.addr, &post("/shutdown", ""))?;
        if !response.starts_with("HTTP/1.1 200") {
            let _ = self.child.kill();
            return Err(format!("shutdown refused: {}", head(&response)));
        }
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt-and-braces: if the bench errored out before the orderly
        // shutdown, don't leave a daemon running.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory removed on drop (store directories for the bench
/// and crash-smoke daemons).
pub(crate) struct ScratchDir(pub(crate) PathBuf);

impl ScratchDir {
    pub(crate) fn new(tag: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "iolb_xtask_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub(crate) fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
}

pub(crate) fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// One request / one connection; reads the response to EOF.
pub(crate) fn exchange(addr: &str, request: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(response)
}

/// First line of a response, for error messages.
pub(crate) fn head(response: &str) -> &str {
    response.lines().next().unwrap_or("")
}

/// Body of a response (after the blank line).
pub(crate) fn body_of(response: &str) -> Option<&str> {
    response.split_once("\r\n\r\n").map(|(_, b)| b)
}

/// The `*.iolb` files directly in `dir`, sorted by path, as `(file stem,
/// source)` pairs. Subdirectories are not searched.
pub(crate) fn list_kernels(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "iolb"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .iolb kernels in {}", dir.display()));
    }
    files
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("?")
                .to_string();
            let src = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((name, src))
        })
        .collect()
}

/// Runs the CLI over the whole batch with the bench options on `grid` and
/// returns its combined sweep report.
fn cli_reference(
    iolb: &Path,
    kernels_dir: &Path,
    batch: &[(String, String)],
    tmp: &Path,
    grid: &str,
) -> Result<Value, String> {
    let out = tmp.join(format!(
        "serve_bench_cli_{}_{}.json",
        std::process::id(),
        grid.replace(',', "_")
    ));
    let mut cmd = Command::new(iolb);
    cmd.args(["--s-grid", grid, "--no-tightness", "--json"])
        .arg(&out);
    cmd.args(
        batch
            .iter()
            .map(|(name, _)| kernels_dir.join(format!("{name}.iolb"))),
    );
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {}: {e}", iolb.display()))?;
    if !status.success() {
        return Err(format!("CLI reference run failed with {status}"));
    }
    let src = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let _ = std::fs::remove_file(&out);
    json::parse(&src).map_err(|e| format!("CLI report: {e}"))
}

/// The daemon's `/stats` document.
fn stats(addr: &str) -> Result<Value, String> {
    let raw = exchange(addr, &get("/stats"))?;
    let body = body_of(&raw).ok_or("malformed /stats response")?;
    json::parse(body).map_err(|_| "/stats body is not JSON".to_string())
}

/// [`rows_match`] for every kernel of the batch against its response
/// body; returns the number of rows compared.
fn rows_match_all(
    cli: &Value,
    batch: &[(String, String)],
    bodies: &[String],
) -> Result<usize, String> {
    let mut compared = 0;
    for ((name, _), body) in batch.iter().zip(bodies) {
        let doc = json::parse(body).map_err(|e| format!("{name}: daemon body: {e}"))?;
        compared += rows_match(cli, name, &doc)?;
    }
    Ok(compared)
}

/// Compares the daemon's embedded sweep rows for `kernel` against the
/// CLI's combined report. Returns an error string on any mismatch.
fn rows_match(cli: &Value, kernel: &str, daemon_body: &Value) -> Result<usize, String> {
    let cli_rows: Vec<&Value> = cli
        .get("rows")
        .and_then(Value::arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("kernel").and_then(Value::str) == Some(kernel))
        .collect();
    let daemon_rows = daemon_body
        .get("sweep")
        .and_then(|s| s.get("rows"))
        .and_then(Value::arr)
        .unwrap_or(&[]);
    if cli_rows.len() != daemon_rows.len() {
        return Err(format!(
            "{kernel}: CLI emitted {} rows, daemon {}",
            cli_rows.len(),
            daemon_rows.len()
        ));
    }
    if cli_rows.is_empty() {
        return Err(format!("{kernel}: no rows on either side"));
    }
    for (i, (c, d)) in cli_rows.iter().zip(daemon_rows).enumerate() {
        if **c != *d {
            return Err(format!(
                "{kernel}: row {i} differs: CLI {c:?} vs daemon {d:?}"
            ));
        }
    }
    Ok(cli_rows.len())
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64) * p).ceil() as usize;
    sorted_ms[idx.clamp(1, sorted_ms.len()) - 1]
}

struct Phase {
    latencies_ms: Vec<f64>,
    wall_ms: f64,
    hits: u64,
    misses: u64,
}

impl Phase {
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn write(&self, w: &mut Writer, label: &str) {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let requests = sorted.len();
        let throughput = if self.wall_ms > 0.0 {
            requests as f64 / (self.wall_ms / 1000.0)
        } else {
            0.0
        };
        let (p50, p99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
        members!(w.key(label), {"requests": int(requests), "wall_ms": fixed(self.wall_ms, 3),
            "p50_ms": fixed(p50, 3), "p99_ms": fixed(p99, 3), "throughput_rps": fixed(throughput, 1)});
    }
}

/// Replays the batch once on `grid`; checks every response is a 200 with
/// the expected cache disposition and (optionally) records/cross-checks
/// the response bodies.
fn replay(
    addr: &str,
    batch: &[(String, String)],
    grid: &str,
    expect: &str,
    bodies: &mut Vec<String>,
    check_bodies: bool,
) -> Result<Phase, String> {
    let mut phase = Phase {
        latencies_ms: Vec::with_capacity(batch.len()),
        wall_ms: 0.0,
        hits: 0,
        misses: 0,
    };
    let start = Instant::now();
    for (i, (name, src)) in batch.iter().enumerate() {
        let body = AnalyzeRequest::body(src, &[("s-grid", grid), ("no-tightness", "true")]);
        let request = post("/analyze", &body);
        let t = Instant::now();
        let response = exchange(addr, &request)?;
        phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !response.starts_with("HTTP/1.1 200") {
            return Err(format!("{name}: {}", head(&response)));
        }
        match () {
            _ if response.contains("X-Iolb-Cache: hit") => phase.hits += 1,
            _ if response.contains("X-Iolb-Cache: miss") => phase.misses += 1,
            _ => return Err(format!("{name}: response lacks X-Iolb-Cache header")),
        }
        let body = body_of(&response)
            .ok_or_else(|| format!("{name}: malformed response"))?
            .to_string();
        if check_bodies && bodies[i] != body {
            return Err(format!(
                "{name}: {expect} body differs from the cold body — responses are not deterministic"
            ));
        }
        if !check_bodies {
            bodies.push(body);
        }
    }
    phase.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let seen = if expect == "miss" {
        phase.misses
    } else {
        phase.hits
    };
    if seen != batch.len() as u64 {
        return Err(format!(
            "expected {} `{expect}` responses, saw {seen} (hits {}, misses {})",
            batch.len(),
            phase.hits,
            phase.misses
        ));
    }
    Ok(phase)
}

fn serve_bench(opts: &ServeBenchOpts) -> Result<(), String> {
    let batch = list_kernels(&opts.kernels)?;
    println!(
        "serve-bench: {} kernel(s), grid {S_GRID}, {} warm pass(es)",
        batch.len(),
        opts.warm_passes
    );

    // Reference: the CLI on the same batch with the same options.
    let tmp = std::env::temp_dir();
    let cli = cli_reference(&opts.iolb, &opts.kernels, &batch, &tmp, S_GRID)?;
    let cli_regrid = cli_reference(&opts.iolb, &opts.kernels, &batch, &tmp, REGRID)?;

    // The bench daemon runs with a scratch persistent store, so the
    // report carries the store counters a production deployment would
    // watch (and the gate can hold skipped_corrupt_records at zero).
    let store_dir = ScratchDir::new("serve_bench_store");
    let store_arg = store_dir.0.to_string_lossy().into_owned();
    let daemon = Daemon::start_with(&opts.iolbd, &["--store", &store_arg])?;
    let addr = daemon.addr.clone();

    // Cold pass: all misses; capture bodies.
    let mut bodies: Vec<String> = Vec::new();
    let cold = replay(&addr, &batch, S_GRID, "miss", &mut bodies, false)?;

    // Cold bodies vs the CLI: every sweep row identical.
    let rows_compared = rows_match_all(&cli, &batch, &bodies)?;
    println!("serve-bench: cold pass matches CLI ({rows_compared} sweep rows compared, all equal)");

    // Re-grid pass: the same kernels on other S points at the same
    // horizon. Each request misses the report layer and is answered by
    // the priced layer, whose hits must account for every one of them.
    let mut regrid_bodies: Vec<String> = Vec::new();
    let regrid = replay(&addr, &batch, REGRID, "miss", &mut regrid_bodies, false)?;
    let rows_compared = rows_match_all(&cli_regrid, &batch, &regrid_bodies)?;
    let priced_hits = stats(&addr)?
        .get("cache")
        .and_then(|c| c.get("priced"))
        .and_then(|p| p.get("hits"))
        .and_then(Value::num)
        .ok_or("/stats has no `cache.priced.hits`")?;
    if priced_hits != batch.len() as f64 {
        return Err(format!(
            "re-grid pass: the priced layer answered {priced_hits} of {} requests",
            batch.len()
        ));
    }
    println!(
        "serve-bench: re-grid pass ({REGRID}) answered by the priced layer and matches CLI \
         ({rows_compared} sweep rows compared, all equal)"
    );

    // Warm passes: all hits, bodies byte-identical to cold.
    let mut warm = Phase {
        latencies_ms: Vec::new(),
        wall_ms: 0.0,
        hits: 0,
        misses: 0,
    };
    for _ in 0..opts.warm_passes {
        let pass = replay(&addr, &batch, S_GRID, "hit", &mut bodies, true)?;
        warm.latencies_ms.extend(pass.latencies_ms);
        warm.wall_ms += pass.wall_ms;
        warm.hits += pass.hits;
        warm.misses += pass.misses;
    }

    // Store counters straight from the daemon before it drains.
    let stats_doc = stats(&addr)?;
    // The report carries the daemon's store counters as /stats has them.
    let store = stats_doc.get("store").and_then(Value::obj);
    let store = store.ok_or("/stats store missing — daemon ran without --store?")?;
    let mut w = Writer::default();
    members!(w.obj(Lines), "schema": str(SERVE_SCHEMA), "meta": obj(Inline),
        "kernels": int(batch.len()), "warm_passes": int(opts.warm_passes), "s_grid": str(S_GRID),
        "regrid_s_grid": str(REGRID));
    members!(w.end(), "cold_matches_cli": bool(true), "regrid_matches_cli": bool(true),
        "warm_hit_rate": num(warm.hit_rate()));
    cold.write(&mut w, "cold");
    let mut sorted = regrid.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    members!(w.key("regrid"), {"requests": int(sorted.len()),
        "p50_ms": fixed(percentile(&sorted, 0.50), 3)});
    warm.write(&mut w, "warm");
    w.key("store").obj(Inline);
    for (field, n) in store {
        w.key(field)
            .int(n.num().ok_or("/stats store counter is not a number")? as u64);
    }
    w.end().key("kernels").arr(Inline);
    for (name, _) in &batch {
        w.str(name);
    }
    w.end().end();
    let report = w.finish();

    daemon.shutdown()?;

    std::fs::write(&opts.out, &report).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!(
        "serve-bench ✓ — warm hit rate {:.2}%, wrote {}",
        warm.hit_rate() * 100.0,
        opts.out.display()
    );
    Ok(())
}

/// Gate checks for `BENCH_serve.json`: the deterministic fields must hold
/// absolutely (they do not regress by degrees), the timing fields are
/// volatile and ignored — consistent with how the pebble/tightness gates
/// treat wall times.
pub const SERVE_SCHEMA: &str = "hourglass-iolb/serve-bench/v3";

pub fn gate_serve(base: &Value, new: &Value, violations: &mut Vec<String>) {
    if new.get("cold_matches_cli").and_then(Value::bool) != Some(true) {
        violations.push("serve: fresh cold pass does not match the CLI output".to_string());
    }
    if new.get("regrid_matches_cli").and_then(Value::bool) != Some(true) {
        violations.push("serve: fresh re-grid pass does not match the CLI output".to_string());
    }
    match new.get("warm_hit_rate").and_then(Value::num) {
        Some(rate) if rate >= 0.99 => {}
        Some(rate) => violations.push(format!(
            "serve: warm cache hit rate {rate:.4} below the 0.99 floor"
        )),
        None => violations.push("serve: missing `warm_hit_rate`".to_string()),
    }
    // Coverage: every kernel the baseline served must still be served.
    let fresh_kernels: Vec<&str> = new
        .get("kernels")
        .and_then(Value::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::str)
        .collect();
    for k in base.get("kernels").and_then(Value::arr).unwrap_or(&[]) {
        if let Some(name) = k.str() {
            if !fresh_kernels.contains(&name) {
                violations.push(format!(
                    "serve: baseline kernel missing from fresh run: {name}"
                ));
            }
        }
    }
    // Store health: a fresh run skipping more corrupt records than the
    // baseline knew about means the journal is corrupting data at rest.
    let skipped = |doc: &Value, which: &str, violations: &mut Vec<String>| {
        let n = doc
            .get("store")
            .and_then(|s| s.get("skipped_corrupt_records"))
            .and_then(Value::num);
        if n.is_none() {
            violations.push(format!(
                "serve: {which} report has no `store.skipped_corrupt_records`"
            ));
        }
        n
    };
    let base_skipped = skipped(base, "baseline", violations);
    let fresh_skipped = skipped(new, "fresh", violations);
    if let (Some(base_skipped), Some(fresh)) = (base_skipped, fresh_skipped) {
        if fresh > base_skipped {
            violations.push(format!(
                "serve: skipped_corrupt_records {fresh:.0} above baseline {base_skipped:.0} — \
                 the persistent store is corrupting records"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = r#"{"schema": "hourglass-iolb/serve-bench/v3",
        "meta": {"kernels": 2, "warm_passes": 5, "s_grid": "0,16,64", "regrid_s_grid": "0,4,64"},
        "cold_matches_cli": true, "regrid_matches_cli": true, "warm_hit_rate": 1.0,
        "cold": {"requests": 2, "wall_ms": 10.0, "p50_ms": 5.0, "p99_ms": 6.0, "throughput_rps": 200.0},
        "regrid": {"requests": 2, "p50_ms": 0.8},
        "warm": {"requests": 10, "wall_ms": 5.0, "p50_ms": 0.5, "p99_ms": 0.9, "throughput_rps": 2000.0},
        "store": {"entries": 2, "appends": 2, "append_errors": 0, "persisted_hits": 0,
                  "compactions": 0, "recovered_records": 0, "snapshot_records": 0,
                  "skipped_corrupt_records": 0, "torn_tail_bytes": 0},
        "kernels": ["a", "b"]}"#;

    #[test]
    fn serve_gate_passes_a_clean_report() {
        let doc = json::parse(CLEAN).unwrap();
        let mut v = Vec::new();
        gate_serve(&doc, &doc, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn serve_gate_flags_mismatch_hit_rate_and_coverage() {
        let clean = json::parse(CLEAN).unwrap();

        let mismatch = json::parse(
            &CLEAN.replace("\"cold_matches_cli\": true", "\"cold_matches_cli\": false"),
        )
        .unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &mismatch, &mut v);
        assert!(
            v.iter().any(|m| m.contains("cold pass does not match")),
            "{v:?}"
        );

        let regrid_mismatch = json::parse(&CLEAN.replace(
            "\"regrid_matches_cli\": true",
            "\"regrid_matches_cli\": false",
        ))
        .unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &regrid_mismatch, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("re-grid pass does not match"), "{v:?}");

        let lukewarm =
            json::parse(&CLEAN.replace("\"warm_hit_rate\": 1.0", "\"warm_hit_rate\": 0.5"))
                .unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &lukewarm, &mut v);
        assert!(
            v.iter().any(|m| m.contains("below the 0.99 floor")),
            "{v:?}"
        );

        let shrunk = json::parse(&CLEAN.replace(r#"["a", "b"]"#, r#"["a"]"#)).unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &shrunk, &mut v);
        assert!(
            v.iter().any(|m| m.contains("missing from fresh run: b")),
            "{v:?}"
        );
    }

    #[test]
    fn serve_gate_holds_store_corruption_at_the_baseline() {
        let clean = json::parse(CLEAN).unwrap();

        // Fresh run skipping corrupt records the baseline never saw: fail.
        let corrupting = json::parse(&CLEAN.replace(
            "\"skipped_corrupt_records\": 0",
            "\"skipped_corrupt_records\": 2",
        ))
        .unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &corrupting, &mut v);
        assert!(
            v.iter().any(|m| m.contains("skipped_corrupt_records 2")),
            "{v:?}"
        );

        // A report without store counters fails on either side.
        let storeless = json::parse(
            r#"{"schema": "hourglass-iolb/serve-bench/v3",
                "cold_matches_cli": true, "regrid_matches_cli": true, "warm_hit_rate": 1.0,
                "kernels": ["a", "b"]}"#,
        )
        .unwrap();
        let mut v = Vec::new();
        gate_serve(&storeless, &clean, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("baseline report has no"), "{v:?}");
        let mut v = Vec::new();
        gate_serve(&clean, &storeless, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fresh report has no"), "{v:?}");
    }

    #[test]
    fn serve_bench_args_parse() {
        let opts = parse_serve_bench_args(&[
            "--iolbd".into(),
            "x/iolbd".into(),
            "--out".into(),
            "o.json".into(),
            "--warm-passes".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(opts.iolbd, PathBuf::from("x/iolbd"));
        assert_eq!(opts.out, PathBuf::from("o.json"));
        assert_eq!(opts.warm_passes, 3);
        assert!(parse_serve_bench_args(&["--warm-passes".into(), "0".into()]).is_err());
        assert!(parse_serve_bench_args(&["--bogus".into()]).is_err());
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let ms: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&ms, 0.50), 50.0);
        assert_eq!(percentile(&ms, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.50), 0.0);
    }
}
