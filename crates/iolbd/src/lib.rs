//! `iolbd` — the long-lived analysis daemon in front of the
//! [`iolb_service`] pipeline.
//!
//! A minimal hand-rolled HTTP/1.1 server over `std::net::TcpListener`
//! (the build is vendored-deps-only): an accept loop feeds a *bounded*
//! queue — a full queue answers `503` immediately, which is the
//! backpressure contract — and a dispatcher drains the queue in batches
//! onto the shared rayon pool, one request per connection per cycle.
//! Responses reuse the CLI's report schemas verbatim; the daemon's own
//! envelope is `hourglass-iolb/serve/v1`.
//!
//! `POST /analyze` takes one request form, the typed JSON body
//! ([`AnalyzeRequest`]). Its per-request options, budgets and deadlines go
//! through the same switchboard as the CLI flags
//! ([`AnalysisOptions::set`]), and failures surface as typed
//! [`AnalysisError`] classes mapped onto HTTP status codes:
//!
//! | class            | HTTP |
//! |------------------|------|
//! | parse            | 400  |
//! | refused          | 422  |
//! | budget exceeded  | 413  |
//! | deadline         | 408  |
//! | cancelled        | 499  |
//! | internal         | 500  |
//! | (queue full)     | 503  |

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod http;

use http::{read_request, write_response, ReadError, ReadOutcome, Request};
use iolb_core::govern::AnalysisError;
use iolb_service::json::Layout::{Inline, Lines};
use iolb_service::json::{members, Writer};
use iolb_service::{AnalysisOptions, AnalyzeRequest, Pipeline, ReportStore};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Re-exported: the serve/v1 success envelope moved into the service crate
// (the persistent store works on rendered bodies), but it remains part of
// this crate's public surface.
pub use iolb_service::outcome_body;

/// Daemon usage text.
pub const USAGE: &str = "\
iolbd — analysis daemon serving the iolb pipeline over HTTP

USAGE:
    iolbd [OPTIONS]

OPTIONS:
    --addr HOST:PORT      bind address (default 127.0.0.1:0; the chosen
                          port is printed as `listening on …`)
    --queue N             accept-queue capacity; a full queue answers 503
                          immediately (default 64)
    --batch N             max connections served per dispatch cycle on
                          the rayon pool (default 16)
    --cache-cap N         report-cache entry bound; least-recently-used
                          reports are evicted past it (default 512,
                          0 = unbounded)
    --store DIR           persistent report store: finished reports are
                          journaled to DIR and served byte-identical
                          after a restart (default: no persistence)
    --drain-deadline-ms N graceful-shutdown budget: queued and in-flight
                          requests get up to N ms to finish before the
                          remainder is dropped (default 5000)
    --request-deadline-ms N
                          total wall deadline per request read; a client
                          that cannot deliver its request within N ms is
                          answered 408 (default 10000, 0 = off)
    -h, --help            this text

Any analysis option the CLI accepts as a flag is accepted here (without
the leading `--` it is the same key a request may pass in its body's
`options`) and becomes the per-request default: --s-grid, --engines,
--no-tightness, --derive-only, --no-degrade, --curve-strategy,
--max-instances, --max-cdag-nodes, --max-cdag-edges, --max-trace,
--max-arena-bytes, --max-work, --deadline-ms.

ENDPOINTS:
    POST /analyze         body = typed JSON request ({\"source\": …,
                          \"options\": {…}, \"budgets\": {…},
                          \"engines\": …}); a query string or a body
                          that is not such an object is answered 400
    GET  /healthz         liveness probe
    GET  /stats           request counters, cache hit/miss/eviction
                          counters, queue depth, persistent-store and
                          recovery counters (serve-stats/v3)
    POST /shutdown        graceful drain: stop accepting, finish queued +
                          in-flight requests under --drain-deadline-ms,
                          flush the store journal, exit (SIGTERM does the
                          same)
";

/// Parsed daemon options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address.
    pub addr: String,
    /// Accept-queue capacity (backpressure bound).
    pub queue: usize,
    /// Max connections per dispatch cycle.
    pub batch: usize,
    /// Report-cache entry bound (0 = unbounded).
    pub cache_cap: usize,
    /// Persistent report store directory (`None` = no persistence).
    pub store: Option<String>,
    /// Graceful-shutdown budget for queued + in-flight requests (ms).
    pub drain_deadline_ms: u64,
    /// Total wall deadline for reading one request (ms, 0 = off).
    pub request_deadline_ms: u64,
    /// Per-request analysis defaults (budgets, grid, flags).
    pub defaults: AnalysisOptions,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            queue: 64,
            batch: 16,
            cache_cap: iolb_service::DEFAULT_REPORT_CAPACITY,
            store: None,
            drain_deadline_ms: 5000,
            request_deadline_ms: 10_000,
            defaults: AnalysisOptions::default(),
        }
    }
}

/// Parses daemon command-line arguments.
///
/// # Errors
/// Usage/diagnostic text to print.
pub fn parse_server_args(args: &[String]) -> Result<ServerOptions, String> {
    let mut o = ServerOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                o.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--queue" => {
                o.queue = it
                    .next()
                    .ok_or("--queue needs a value")?
                    .parse()
                    .map_err(|_| "bad --queue value".to_string())?;
                if o.queue == 0 {
                    return Err("--queue must be at least 1".to_string());
                }
            }
            "--batch" => {
                o.batch = it
                    .next()
                    .ok_or("--batch needs a value")?
                    .parse()
                    .map_err(|_| "bad --batch value".to_string())?;
                if o.batch == 0 {
                    return Err("--batch must be at least 1".to_string());
                }
            }
            "--cache-cap" => {
                o.cache_cap = it
                    .next()
                    .ok_or("--cache-cap needs a value")?
                    .parse()
                    .map_err(|_| "bad --cache-cap value".to_string())?;
            }
            "--store" => {
                o.store = Some(it.next().ok_or("--store needs a directory")?.clone());
            }
            "--drain-deadline-ms" => {
                o.drain_deadline_ms = it
                    .next()
                    .ok_or("--drain-deadline-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad --drain-deadline-ms value".to_string())?;
            }
            "--request-deadline-ms" => {
                o.request_deadline_ms = it
                    .next()
                    .ok_or("--request-deadline-ms needs a value")?
                    .parse()
                    .map_err(|_| "bad --request-deadline-ms value".to_string())?;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            "--inject" => {
                return Err(
                    "--inject is per-request only (the typed body's `options.inject`)".to_string(),
                )
            }
            flag if flag.starts_with("--") => o
                .defaults
                .set_flag(&flag[2..], &mut it)
                .map_err(|e| format!("{e}\n\n{USAGE}"))?,
            other => return Err(format!("unexpected argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(o)
}

/// The daemon entry point (argument vector without the binary name).
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_server_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match serve(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Shared daemon state: the pipeline (with its cache and optional store)
/// plus counters.
pub struct ServerState {
    /// The analysis service core.
    pub pipeline: Pipeline,
    /// Per-request analysis defaults.
    pub defaults: AnalysisOptions,
    /// Bound address (used by the shutdown self-connect wake).
    pub addr: SocketAddr,
    /// Graceful-stop flag: once set, the accept loop stops and the
    /// dispatcher drains under the drain deadline.
    pub shutdown: AtomicBool,
    /// Requests served (any endpoint, any status).
    pub requests: AtomicU64,
    /// `/analyze` requests served.
    pub analyzed: AtomicU64,
    /// Connections refused with 503 because the accept queue was full.
    pub overloaded: AtomicU64,
    /// Connections currently sitting in the accept queue.
    pub queued: AtomicU64,
    /// When this server started (drain-rate estimation for Retry-After).
    pub started: Instant,
    /// Graceful-shutdown budget (ms).
    pub drain_deadline_ms: u64,
    /// Per-request read wall deadline (ms, 0 = off).
    pub request_deadline_ms: u64,
}

/// Binds, prints `listening on ADDR`, and serves until `/shutdown`.
///
/// # Errors
/// Bind/socket setup failures (runtime per-connection errors are
/// answered or dropped, never fatal).
pub fn serve(opts: &ServerOptions) -> Result<(), String> {
    let listener = TcpListener::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // Best-effort banner: a supervising process may close our stdout
    // after reading the address, and a daemon must not die over it.
    use std::io::Write as _;
    let mut out = std::io::stdout();
    let _ = writeln!(out, "listening on {addr}");
    let _ = out.flush();
    serve_listener(listener, opts)
}

/// [`serve`] on a listener the caller already bound (tests bind their
/// own port-0 listener to learn the address before serving).
///
/// # Errors
/// Socket setup failures.
pub fn serve_listener(listener: TcpListener, opts: &ServerOptions) -> Result<(), String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let pipeline = match &opts.store {
        Some(dir) => {
            let store = ReportStore::open(std::path::Path::new(dir))
                .map_err(|e| format!("open store {dir}: {e}"))?;
            Pipeline::with_store(opts.cache_cap, store)
        }
        None => Pipeline::with_report_capacity(opts.cache_cap),
    };
    let state = Arc::new(ServerState {
        pipeline,
        defaults: opts.defaults.clone(),
        addr,
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        analyzed: AtomicU64::new(0),
        overloaded: AtomicU64::new(0),
        queued: AtomicU64::new(0),
        started: Instant::now(),
        drain_deadline_ms: opts.drain_deadline_ms,
        request_deadline_ms: opts.request_deadline_ms,
    });
    term_signal::watch(&state);

    let (tx, rx) = sync_channel::<TcpStream>(opts.queue);
    let dispatcher = {
        let state = Arc::clone(&state);
        let batch = opts.batch;
        std::thread::spawn(move || dispatch(&state, &rx, batch))
    };

    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        match tx.try_send(stream) {
            Ok(()) => {
                state.queued.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(mut s)) => {
                // Backpressure: the bounded queue is the admission control
                // of the transport layer — refuse immediately, don't
                // buffer. Retry-After tracks the observed drain rate so
                // backed-off clients spread out.
                let seq = state.overloaded.fetch_add(1, Ordering::Relaxed);
                let retry = retry_after_secs(
                    state.queued.load(Ordering::Relaxed),
                    state.requests.load(Ordering::Relaxed),
                    state.started.elapsed().as_millis() as u64,
                    seq,
                );
                let body = error_body_raw("overloaded", 0, "accept queue full, retry later");
                let _ = write_response(
                    &mut s,
                    503,
                    &[("Retry-After".to_string(), retry.to_string())],
                    &body,
                    false,
                );
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    drop(tx);
    dispatcher
        .join()
        .map_err(|_| "dispatcher thread panicked".to_string())?;
    // The journal holds everything already (appends are write-behind);
    // the drain's last act forces it to stable storage.
    if let Err(e) = state.pipeline.flush_store() {
        eprintln!("store flush on shutdown: {e}");
    }
    // Best-effort, as with the startup banner: stdout may be gone.
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "shutdown complete");
    Ok(())
}

/// Seconds a 503-refused client should wait before retrying, computed
/// from the queue depth and the observed drain rate, with a small
/// deterministic stagger (rotating on the overload sequence number) so
/// synchronized clients spread out instead of stampeding back together.
pub fn retry_after_secs(queued: u64, served: u64, elapsed_ms: u64, seq: u64) -> u64 {
    // Observed drain rate in requests/second, floored at 1 so the answer
    // stays defined on a cold or stalled server.
    let rate = served
        .saturating_mul(1000)
        .checked_div(elapsed_ms)
        .map_or(1, |r| r.max(1));
    let wait = queued.saturating_add(1).div_ceil(rate).clamp(1, 60);
    wait.saturating_add(seq % 3).min(60)
}

/// SIGTERM → graceful drain, without a libc dependency: a raw `signal(2)`
/// registration stores an async-signal-safe flag, and a watcher thread
/// turns the flag into the same shutdown path `/shutdown` takes (the
/// handler itself must not touch sockets or locks).
#[cfg(unix)]
mod term_signal {
    use super::ServerState;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Weak};
    use std::time::Duration;

    static TERM: AtomicBool = AtomicBool::new(false);

    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Registers the handler and spawns the watcher. The watcher holds
    /// only a weak reference, so it dies with the server rather than
    /// keeping its state alive.
    pub fn watch(state: &Arc<ServerState>) {
        unsafe {
            signal(SIGTERM, on_term);
        }
        let weak: Weak<ServerState> = Arc::downgrade(state);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(50));
            let Some(state) = weak.upgrade() else { break };
            if TERM.load(Ordering::SeqCst) {
                state.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(state.addr);
                break;
            }
        });
    }
}

#[cfg(not(unix))]
mod term_signal {
    use super::ServerState;
    use std::sync::Arc;

    /// No signal handling off unix; `/shutdown` remains the drain path.
    pub fn watch(_state: &Arc<ServerState>) {}
}

/// How long one read attempt on a connection blocks per cycle.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// The dispatcher: drains accepted connections into batches and serves
/// each batch concurrently on the rayon pool (one request per connection
/// per cycle; keep-alive connections are requeued).
///
/// When the shutdown flag flips, the dispatcher does not abandon its
/// queue: it enters a **drain** — already-accepted connections keep
/// being served (keep-alives are dropped once answered) until both the
/// queue and the channel are empty or the drain deadline expires,
/// whichever comes first. The deadline is checked between batches, so
/// an in-flight batch always completes.
fn dispatch(state: &ServerState, rx: &Receiver<TcpStream>, batch: usize) {
    let mut pending: VecDeque<TcpStream> = VecDeque::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if state.shutdown.load(Ordering::SeqCst) && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + Duration::from_millis(state.drain_deadline_ms));
        }
        let draining = drain_deadline.is_some();
        if drain_deadline.is_some_and(|d| Instant::now() >= d) {
            break; // drain budget spent: drop the remainder
        }
        if pending.is_empty() {
            let wait = Duration::from_millis(if draining { 10 } else { 100 });
            match rx.recv_timeout(wait) {
                Ok(s) => {
                    state.queued.fetch_sub(1, Ordering::Relaxed);
                    pending.push_back(s);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                // Channel gone and queue empty: the drain is complete
                // (outside a shutdown this cannot happen — the accept
                // loop owns the sender).
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while pending.len() < batch {
            match rx.try_recv() {
                Ok(s) => {
                    state.queued.fetch_sub(1, Ordering::Relaxed);
                    pending.push_back(s);
                }
                Err(_) => break,
            }
        }
        let take = pending.len().min(batch);
        let cycle: Vec<TcpStream> = pending.drain(..take).collect();
        let keep: Vec<Option<TcpStream>> = cycle
            .into_par_iter()
            .map(|s| serve_connection(state, s))
            .collect();
        if !draining {
            // During a drain only queued work is owed an answer; an
            // answered keep-alive connection is dropped, not requeued.
            pending.extend(keep.into_iter().flatten());
        }
    }
}

/// Serves at most one request on the connection; returns it for
/// requeueing when it should stay open.
fn serve_connection(state: &ServerState, mut stream: TcpStream) -> Option<TcpStream> {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return None;
    }
    match read_request(&mut stream, state.request_deadline_ms) {
        Ok(ReadOutcome::Idle) => {
            // Idle keep-alive connection between requests; drop it once
            // the daemon is stopping.
            if state.shutdown.load(Ordering::SeqCst) {
                None
            } else {
                Some(stream)
            }
        }
        Ok(ReadOutcome::Closed) => None,
        Ok(ReadOutcome::Request(req)) => {
            state.requests.fetch_add(1, Ordering::Relaxed);
            let (status, headers, body) = handle(state, &req);
            let ok = write_response(&mut stream, status, &headers, &body, req.keep_alive).is_ok();
            if ok && req.keep_alive {
                Some(stream)
            } else {
                None
            }
        }
        Err(ReadError::Timeout(msg)) => {
            // The client was too slow, not wrong: 408, deadline class.
            let body = error_body_raw("deadline", 5, &format!("request timed out: {msg}"));
            let _ = write_response(&mut stream, 408, &[], &body, false);
            None
        }
        Err(ReadError::Malformed(msg)) => {
            let body = error_body_raw("parse", 2, &format!("bad request: {msg}"));
            let _ = write_response(&mut stream, 400, &[], &body, false);
            None
        }
    }
}

/// Status, extra headers and body of one response. The body is shared, so
/// a cached `serve/v1` answer reaches the wire without being copied first.
type HandlerResult = (u16, Vec<(String, String)>, Arc<String>);

/// Routes one request.
fn handle(state: &ServerState, req: &Request) -> HandlerResult {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/analyze") => handle_analyze(state, req),
        ("GET", "/healthz") => (200, Vec::new(), "{\"ok\": true}".to_string().into()),
        ("GET", "/stats") => (200, Vec::new(), stats_body(state).into()),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
            (
                200,
                Vec::new(),
                "{\"ok\": true, \"shutting_down\": true}".to_string().into(),
            )
        }
        (_, "/analyze" | "/shutdown") => (
            405,
            Vec::new(),
            error_body_raw("refused", 3, "method not allowed (use POST)").into(),
        ),
        (_, "/healthz" | "/stats") => (
            405,
            Vec::new(),
            error_body_raw("refused", 3, "method not allowed (use GET)").into(),
        ),
        (_, path) => (
            404,
            Vec::new(),
            error_body_raw("refused", 3, &format!("no such endpoint {path}")).into(),
        ),
    }
}

/// `POST /analyze`. The body is a typed JSON [`AnalyzeRequest`]: the
/// kernel source plus `options` / `budgets` / `engines` members, each
/// applied over the daemon defaults through the shared switchboard. A
/// query string, or a body that is not such an object, is refused with a
/// parse-class 400 that names the typed body; it is never analysed
/// without its options.
fn handle_analyze(state: &ServerState, req: &Request) -> HandlerResult {
    state.analyzed.fetch_add(1, Ordering::Relaxed);
    let bad = |msg: String| (400, Vec::new(), error_body_raw("parse", 2, &msg).into());
    if let Some(query) = &req.query {
        return bad(format!(
            "query string `{query}` is not accepted; {TYPED_BODY}"
        ));
    }
    let parsed = match std::str::from_utf8(&req.body)
        .map_err(|_| "request body is not UTF-8".to_string())
        .and_then(AnalyzeRequest::parse)
    {
        Ok(r) => r,
        Err(e) => return bad(format!("bad request body: {e}; {TYPED_BODY}")),
    };
    let mut opts = state.defaults.clone();
    for (key, value) in &parsed.sets {
        if let Err(e) = opts.set(key, value) {
            return bad(format!("bad body option: {e}"));
        }
    }
    match state.pipeline.serve(&parsed.source, &opts) {
        Ok(answer) => {
            let cache_header = (
                "X-Iolb-Cache".to_string(),
                if answer.cached() { "hit" } else { "miss" }.to_string(),
            );
            (200, vec![cache_header], answer.body)
        }
        Err(e) => (status_for(&e), Vec::new(), error_body(&e).into()),
    }
}

/// The hint every refused `/analyze` request carries.
const TYPED_BODY: &str = "POST /analyze takes a typed JSON body \
     {\"source\": \"<kernel text>\", \"options\": {…}, \"budgets\": {…}, \"engines\": …}";

/// HTTP status for each [`AnalysisError`] class.
pub fn status_for(e: &AnalysisError) -> u16 {
    match e {
        AnalysisError::Parse(_) => 400,
        AnalysisError::Refused(_) => 422,
        AnalysisError::BudgetExceeded { .. } => 413,
        AnalysisError::Deadline { .. } => 408,
        AnalysisError::Cancelled => 499,
        AnalysisError::Internal(_) => 500,
    }
}

/// JSON error envelope for a typed analysis error.
pub fn error_body(e: &AnalysisError) -> String {
    error_body_raw(e.class_name(), e.exit_code(), &e.to_string())
}

fn error_body_raw(class: &str, exit_class: u8, message: &str) -> String {
    let mut w = Writer::default();
    members!(w.obj(Lines), "schema": str("hourglass-iolb/serve/v1"), "error": obj(Inline));
    members!(&mut w, "class": str(class), "exit_class": int(exit_class), "message": str(message));
    w.end().end();
    w.finish()
}

/// `/stats` body (`serve-stats/v3`): request counters, both cache
/// layers' counters, the live queue depth, and — when a `--store` is
/// attached — the persistent store's append/hit/compaction counters plus
/// what recovery found at startup.
fn stats_body(state: &ServerState) -> String {
    let cache = state.pipeline.cache();
    let layers = cache.stats();
    let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
    let mut w = Writer::default();
    members!(w.obj(Lines), "schema": str("hourglass-iolb/serve-stats/v3"),
        "requests": int(load(&state.requests)), "analyzed": int(load(&state.analyzed)),
        "overloaded": int(load(&state.overloaded)), "queue_depth": int(load(&state.queued)),
        "cache": obj(Lines));
    for (k, l) in [("parse", layers.parse), ("report", layers.report)] {
        members!(w.key(k), {"hits": int(l.hits), "misses": int(l.misses), "evictions": int(l.evictions)});
    }
    members!(w.end(), "report_entries": int(cache.report_entries()),
        "report_capacity": int(cache.report_capacity()));
    w.key("store").opt(state.pipeline.store(), |w, s| {
        let st = s.stats();
        members!(w.obj(Lines), "entries": int(st.entries), "appends": int(st.appends),
            "append_errors": int(st.append_errors), "persisted_hits": int(st.persisted_hits),
            "compactions": int(st.compactions),
            "recovered_records": int(st.recovery.recovered_records),
            "snapshot_records": int(st.recovery.snapshot_records),
            "skipped_corrupt_records": int(st.recovery.skipped_corrupt_records),
            "torn_tail_bytes": int(st.recovery.torn_tail_bytes));
        w.end()
    });
    w.end();
    w.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::{parse_server_args, retry_after_secs};

    #[test]
    fn analysis_flags_set_defaults_and_inject_points_at_the_body() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = parse_server_args(&args(&["--no-tightness", "--max-work", "9"])).unwrap();
        assert!(o.defaults.no_tightness);
        assert_eq!(o.defaults.budget.max_work, 9);
        let err = parse_server_args(&args(&["--inject", "oom"])).unwrap_err();
        assert!(err.contains("options.inject"), "{err}");
    }

    #[test]
    fn retry_after_grows_with_queue_depth() {
        // Fixed drain rate of ~10 req/s (1000 served over 100s).
        let served = 1000;
        let elapsed = 100_000;
        let shallow = retry_after_secs(5, served, elapsed, 0);
        let deep = retry_after_secs(500, served, elapsed, 0);
        assert!(deep > shallow, "deep {deep} <= shallow {shallow}");
        assert!((1..=60).contains(&shallow));
        assert!((1..=60).contains(&deep));
    }

    #[test]
    fn retry_after_staggers_consecutive_refusals() {
        let waits: Vec<u64> = (0..3)
            .map(|seq| retry_after_secs(10, 1000, 100_000, seq))
            .collect();
        // The rotating stagger must not hand every refused client the
        // same wait (that would re-synchronize the stampede).
        assert!(waits.windows(2).any(|w| w[0] != w[1]), "{waits:?}");
    }

    #[test]
    fn retry_after_is_sane_on_cold_and_stalled_servers() {
        // Cold start: nothing served yet, no elapsed time.
        assert_eq!(retry_after_secs(0, 0, 0, 0), 1);
        // Stalled server, huge queue: clamped to a minute.
        assert_eq!(retry_after_secs(u64::MAX, 0, 60_000, 0), 60);
    }
}
