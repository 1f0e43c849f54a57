//! `xtask crash-smoke` — out-of-process crash-recovery smoke for `iolbd`.
//!
//! The in-process persistence tests (`crates/iolbd/tests/persistence.rs`)
//! prove the store contracts with exact assertions; this smoke proves
//! them against a *real* daemon process dying the ugly way:
//!
//! 1. start `iolbd --store DIR`, replay a kernel batch, capture the
//!    response bodies;
//! 2. `kill -9` the daemon in the middle of a second write burst, then
//!    smash a torn half-record onto the journal tail for good measure;
//! 3. restart against the same directory — recovery must report the
//!    first burst's records, count the torn tail, and serve the captured
//!    bodies byte-identical as persisted hits;
//! 4. stop that daemon with SIGTERM (the graceful-drain path, same as
//!    `POST /shutdown`) and require a clean exit;
//! 5. flip one journal byte, restart once more — the corrupt record must
//!    be skipped and counted, never served, and every body must still
//!    come back correct (recomputed where the record was lost).

use crate::serve_bench::{body_of, exchange, get, head, list_kernels, post, Daemon, ScratchDir};
use iolb_service::json::{self, Value};
use iolb_service::AnalyzeRequest;
use std::path::PathBuf;
use std::process::ExitCode;

/// `crash-smoke` options.
pub struct CrashSmokeOpts {
    /// Path to the daemon binary.
    pub iolbd: PathBuf,
    /// Directory of `.iolb` kernels to replay.
    pub kernels: PathBuf,
}

impl Default for CrashSmokeOpts {
    fn default() -> Self {
        Self {
            iolbd: PathBuf::from("target/release/iolbd"),
            kernels: PathBuf::from("kernels"),
        }
    }
}

pub fn parse_crash_smoke_args(args: &[String]) -> Result<CrashSmokeOpts, String> {
    let mut opts = CrashSmokeOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iolbd" => opts.iolbd = PathBuf::from(it.next().ok_or("--iolbd needs a path")?),
            "--kernels" => opts.kernels = PathBuf::from(it.next().ok_or("--kernels needs a dir")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

pub fn run_crash_smoke(opts: &CrashSmokeOpts) -> ExitCode {
    match crash_smoke(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crash-smoke ✗ — {e}");
            ExitCode::FAILURE
        }
    }
}

/// One replayed request: fast (bounds only) and fully deterministic.
fn analyze(src: &str, options: &[(&str, &str)]) -> String {
    let mut options = options.to_vec();
    options.push(("derive-only", "true"));
    post("/analyze", &AnalyzeRequest::body(src, &options))
}

fn store_stat(addr: &str, field: &str) -> Result<u64, String> {
    let raw = exchange(addr, &get("/stats"))?;
    let doc = body_of(&raw)
        .ok_or("malformed /stats response")
        .and_then(|b| json::parse(b).map_err(|_| "/stats body is not JSON"))?;
    doc.get("store")
        .and_then(|s| s.get(field))
        .and_then(Value::num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("/stats store.{field} missing"))
}

/// Replays the batch; returns `(body, cache disposition)` per kernel.
fn replay(addr: &str, batch: &[(String, String)]) -> Result<Vec<(String, String)>, String> {
    batch
        .iter()
        .map(|(name, src)| {
            let response = exchange(addr, &analyze(src, &[]))?;
            if !response.starts_with("HTTP/1.1 200") {
                return Err(format!("{name}: {}", head(&response)));
            }
            let hit = if response.contains("X-Iolb-Cache: hit") {
                "hit"
            } else {
                "miss"
            };
            let body = body_of(&response)
                .ok_or_else(|| format!("{name}: malformed response"))?
                .to_string();
            Ok((body, hit.to_string()))
        })
        .collect()
}

/// Sends SIGTERM on unix (exercising the signal-driven drain path); falls
/// back to `POST /shutdown` elsewhere. Either way the daemon must exit 0.
fn terminate_gracefully(daemon: Daemon) -> Result<(), String> {
    #[cfg(unix)]
    {
        let mut daemon = daemon;
        let pid = daemon.child.id().to_string();
        let status = std::process::Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("kill -TERM: {e}"))?;
        if !status.success() {
            return Err(format!("kill -TERM exited with {status}"));
        }
        let status = daemon
            .child
            .wait()
            .map_err(|e| format!("daemon wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon did not drain cleanly on SIGTERM: {status}"))
        }
    }
    #[cfg(not(unix))]
    daemon.shutdown()
}

fn crash_smoke(opts: &CrashSmokeOpts) -> Result<(), String> {
    let batch = list_kernels(&opts.kernels)?;
    let store_dir = ScratchDir::new("crash_smoke_store");
    let store_arg = store_dir.0.to_string_lossy().into_owned();
    let journal = store_dir.0.join("journal.log");
    println!(
        "crash-smoke: {} kernel(s), store {}",
        batch.len(),
        store_dir.0.display()
    );

    // Life 1: journal one record per kernel, then die by SIGKILL in the
    // middle of a second write burst (each burst request uses a fresh
    // s-grid, so every one of them is a new record being appended when
    // the axe falls).
    let mut daemon = Daemon::start_with(&opts.iolbd, &["--store", &store_arg])?;
    let addr = daemon.addr.clone();
    let captured = replay(&addr, &batch)?;
    for (_, disposition) in &captured {
        if disposition != "miss" {
            return Err("first burst on an empty store must be all misses".to_string());
        }
    }
    let burst_addr = addr.clone();
    let burst_batch = batch.clone();
    let burst = std::thread::spawn(move || {
        for i in 0u64.. {
            let (_, src) = &burst_batch[(i % burst_batch.len() as u64) as usize];
            let grid = format!("0,{}", 8 + i);
            if exchange(&burst_addr, &analyze(src, &[("s-grid", &grid)])).is_err() {
                break; // the daemon just got killed — mission accomplished
            }
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(150));
    daemon.child.kill().map_err(|e| format!("kill -9: {e}"))?;
    daemon
        .child
        .wait()
        .map_err(|e| format!("daemon wait after kill: {e}"))?;
    drop(daemon);
    burst.join().map_err(|_| "burst thread panicked")?;

    // Whatever the kill left behind, guarantee a torn tail: a record that
    // declares more payload than the file holds.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .map_err(|e| format!("{}: {e}", journal.display()))?;
        f.write_all(b"IOLR\xff\xff\x00\x00torn")
            .map_err(|e| format!("tear journal: {e}"))?;
    }

    // Life 2: recovery must keep every record the first burst completed,
    // truncate the torn tail, and serve the captured bodies byte-for-byte
    // without recomputing.
    let daemon = Daemon::start_with(&opts.iolbd, &["--store", &store_arg])?;
    let addr = daemon.addr.clone();
    let recovered = store_stat(&addr, "recovered_records")?;
    let torn = store_stat(&addr, "torn_tail_bytes")?;
    if recovered < batch.len() as u64 {
        return Err(format!(
            "recovered only {recovered} records, first burst journaled {}",
            batch.len()
        ));
    }
    if torn == 0 {
        return Err("torn journal tail was not detected".to_string());
    }
    let warm = replay(&addr, &batch)?;
    for ((name, _), ((cold_body, _), (warm_body, disposition))) in
        batch.iter().zip(captured.iter().zip(&warm))
    {
        if disposition != "hit" {
            return Err(format!("{name}: expected a persisted hit after restart"));
        }
        if cold_body != warm_body {
            return Err(format!(
                "{name}: persisted body differs from the computed one"
            ));
        }
    }
    let persisted_hits = store_stat(&addr, "persisted_hits")?;
    if persisted_hits < batch.len() as u64 {
        return Err(format!(
            "only {persisted_hits} persisted hits for {} warm requests",
            batch.len()
        ));
    }
    println!(
        "crash-smoke: kill -9 recovery ok — {recovered} records recovered, {torn} torn bytes truncated, {} byte-identical warm bodies",
        batch.len()
    );
    terminate_gracefully(daemon)?;
    println!("crash-smoke: graceful drain on SIGTERM ok");

    // Life 3: flip one payload byte in the journal. The corrupt record is
    // skipped and counted — and every body still comes back correct (the
    // lost one recomputed, never served from the bad bytes).
    let mut bytes = std::fs::read(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    if bytes.len() < 16 {
        return Err("journal too small to corrupt".to_string());
    }
    bytes[10] ^= 0xFF;
    std::fs::write(&journal, &bytes).map_err(|e| format!("{}: {e}", journal.display()))?;

    let daemon = Daemon::start_with(&opts.iolbd, &["--store", &store_arg])?;
    let addr = daemon.addr.clone();
    let skipped = store_stat(&addr, "skipped_corrupt_records")?;
    if skipped == 0 {
        return Err("corrupted journal record was not skipped".to_string());
    }
    let after = replay(&addr, &batch)?;
    for ((name, _), ((cold_body, _), (after_body, _))) in
        batch.iter().zip(captured.iter().zip(&after))
    {
        if cold_body != after_body {
            return Err(format!(
                "{name}: body after corruption differs — corrupt bytes may have been served"
            ));
        }
    }
    daemon.shutdown()?;
    println!(
        "crash-smoke ✓ — {skipped} corrupt record(s) skipped and recomputed, all bodies byte-identical across three daemon lives"
    );
    Ok(())
}
