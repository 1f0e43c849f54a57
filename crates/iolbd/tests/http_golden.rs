//! Golden snapshots of the daemon's HTTP exchanges — one per
//! [`AnalysisError`] class the service maps onto a status code (parse →
//! 400, refused → 422, budget → 413, deadline → 408), the success
//! envelopes with and without the nested reports, both `/stats` shapes,
//! and the client's request body. The daemon redacts all volatile report
//! data, so every response here is byte-stable across machines and
//! thread counts.
//!
//! To regenerate after an intentional schema change:
//! `UPDATE_GOLDEN=1 cargo test -p iolbd --test http_golden`.

use iolb_service::json::Layout::Inline;
use iolb_service::AnalyzeRequest;
use iolbd::{serve_listener, ServerOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

fn kernel(name: &str) -> String {
    std::fs::read_to_string(kernels_dir().join(name)).expect("kernel file")
}

/// Starts a daemon on an ephemeral port; returns its address and the
/// join handle (the server exits on `POST /shutdown`).
fn start_daemon() -> (SocketAddr, std::thread::JoinHandle<()>) {
    start_daemon_with(ServerOptions::default())
}

/// [`start_daemon`] with explicit options (deadline/drain tests).
fn start_daemon_with(opts: ServerOptions) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &opts).expect("serve");
    });
    (addr, handle)
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// `POST /analyze` with a typed body: `source` plus string-valued options.
fn analyze(source: &str, options: &[(&str, &str)]) -> String {
    post("/analyze", &AnalyzeRequest::body(source, options))
}

/// The bounds-only gemm request most exchanges below reuse.
const GEMM_DERIVE: &[(&str, &str)] = &[("derive-only", "true"), ("params", "M=6,N=6,K=6")];

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
}

/// One request on a fresh connection; reads to EOF (Connection: close).
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response
}

/// Reads one response off a keep-alive connection (headers +
/// `Content-Length` body).
fn read_response(stream: &mut TcpStream) -> String {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("utf8 head");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("length value");
    while buf.len() < head_end + 4 + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(buf).expect("utf8 response")
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let response = exchange(addr, &post("/shutdown", ""));
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    handle.join().expect("server thread");
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with UPDATE_GOLDEN=1 cargo test -p iolbd --test http_golden)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from the golden snapshot — if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
    );
}

#[test]
fn error_class_exchanges_match_golden_snapshots() {
    let (addr, handle) = start_daemon();

    // parse → 400: the source is not a kernel.
    check_golden(
        "analyze_parse_error.http",
        &exchange(addr, &analyze("kernel junk {", &[])),
    );
    // refused → 422: parses, but names no such statement.
    check_golden(
        "analyze_refused.http",
        &exchange(
            addr,
            &analyze(&kernel("jacobi2d.iolb"), &[("stmt", "nope")]),
        ),
    );
    // budget → 413: admission control kills it before materialization.
    check_golden(
        "analyze_budget.http",
        &exchange(addr, &analyze(&kernel("syrk.iolb"), &[("max-trace", "10")])),
    );
    // deadline → 408: injected at the admission seam.
    check_golden(
        "analyze_deadline.http",
        &exchange(
            addr,
            &analyze(
                &kernel("gemm_tiled.iolb"),
                &[("inject", "deadline@admission")],
            ),
        ),
    );
    // Success envelope (bounds only, so the exchange stays fast).
    check_golden(
        "analyze_derive_only.http",
        &exchange(addr, &analyze(&kernel("gemm_tiled.iolb"), GEMM_DERIVE)),
    );

    shutdown(addr, handle);
}

/// A declared subscript past its array is a typed refusal (422), not a
/// 500 from a panicking worker.
#[test]
fn out_of_range_subscript_is_refused_with_422() {
    let (addr, handle) = start_daemon();
    let source = "kernel plus(N) { array A[N]; array B[N]; default N = 6; \
                  for i in 0..N { S: B[i] = op(A[i + 1], B[i]); } }";
    let response = exchange(addr, &analyze(source, &[]));
    assert!(
        response.starts_with("HTTP/1.1 422 Unprocessable Entity"),
        "{response}"
    );
    assert!(
        response.contains("\"class\": \"refused\"")
            && response.contains("statement S at (i=5) reads A[i + 1]"),
        "{response}"
    );
    shutdown(addr, handle);
}

#[test]
fn cache_hits_surface_in_header_and_stats() {
    let (addr, handle) = start_daemon();
    let req = analyze(&kernel("gemm_tiled.iolb"), GEMM_DERIVE);
    let cold = exchange(addr, &req);
    assert!(cold.contains("X-Iolb-Cache: miss"), "{cold}");
    let warm = exchange(addr, &req);
    assert!(warm.contains("X-Iolb-Cache: hit"), "{warm}");

    // Same kernel, formatting variant: still a hit.
    let variant = format!("# a comment\n\n{}", kernel("gemm_tiled.iolb"));
    let response = exchange(addr, &analyze(&variant, GEMM_DERIVE));
    assert!(response.contains("X-Iolb-Cache: hit"), "{response}");

    // Identical payloads beyond the headers.
    let body = |r: &str| r.split("\r\n\r\n").nth(1).map(str::to_string);
    assert_eq!(body(&cold), body(&warm));
    assert_eq!(body(&cold), body(&response));

    let stats = exchange(addr, &get("/stats"));
    assert!(
        stats.contains("\"report\": {\"hits\": 2, \"misses\": 1, \"evictions\": 0}"),
        "{stats}"
    );
    assert!(
        stats.contains("\"schema\": \"hourglass-iolb/serve-stats/v3\""),
        "{stats}"
    );
    assert!(stats.contains("\"report_capacity\": 512"), "{stats}");
    assert!(stats.contains("\"queue_depth\": "), "{stats}");
    // No --store attached: the store member is explicit null, not absent.
    assert!(stats.contains("\"store\": null"), "{stats}");
    shutdown(addr, handle);
}

#[test]
fn typed_body_and_query_alias_are_byte_identical() {
    // The typed body is the only request form (query strings are refused,
    // see `query_strings_and_raw_bodies_are_refused_with_the_typed_body_hint`).
    // A flag spelled as a JSON boolean and as a string answers
    // identically. Each spelling gets its own fresh daemon, so both
    // exchanges are cold (identical X-Iolb-Cache headers) and byte
    // equality covers the whole response.
    let src = kernel("gemm_tiled.iolb");
    let (addr, handle) = start_daemon();
    let mut w = iolb_service::json::Writer::default();
    w.obj(Inline).key("source").str(&src);
    w.key("options").obj(Inline).key("derive-only").bool(true);
    w.key("params").str("M=6,N=6,K=6").end().end();
    let body = w.finish();
    let boolean_form = exchange(addr, &post("/analyze", &body));
    shutdown(addr, handle);

    let (addr, handle) = start_daemon();
    let string_form = exchange(addr, &analyze(&src, GEMM_DERIVE));
    shutdown(addr, handle);

    check_golden("analyze_typed_body.http", &boolean_form);
    assert_eq!(
        boolean_form, string_form,
        "a flag as a JSON boolean and as a string must answer identically"
    );
}

#[test]
fn typed_body_options_win_over_query_params() {
    // The typed body's options are applied over the daemon's defaults
    // (query parameters never reach the switchboard). The defaults name a
    // nonexistent statement; the body overrides it back to a real one, so
    // the request succeeds.
    let mut defaults = iolb_service::AnalysisOptions::default();
    defaults.set("stmt", "nope").expect("stmt");
    let (addr, handle) = start_daemon_with(ServerOptions {
        defaults,
        ..ServerOptions::default()
    });
    let src = kernel("gemm_tiled.iolb");
    let response = exchange(
        addr,
        &analyze(
            &src,
            &[
                ("stmt", "SU"),
                ("derive-only", "true"),
                ("params", "M=6,N=6,K=6"),
            ],
        ),
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    // Malformed bodies and bad option values get the parse-class 400 with
    // the shared switchboard's diagnostics.
    let bad = exchange(addr, &post("/analyze", "{\"options\": {}}"));
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    assert!(bad.contains("source"), "{bad}");
    let b = exchange(
        addr,
        &post(
            "/analyze",
            "{\"source\": \"x\", \"engines\": \"frobnicate\"}",
        ),
    );
    assert!(b.starts_with("HTTP/1.1 400"), "{b}");
    assert!(b.contains("unknown bound engine"), "{b}");
    shutdown(addr, handle);
}

#[test]
fn query_strings_and_raw_bodies_are_refused_with_the_typed_body_hint() {
    // A query string or a raw kernel body must never be analysed without
    // its options: each variant answers a parse-class 400 that names the
    // typed body.
    let (addr, handle) = start_daemon();
    let src = kernel("gemm_tiled.iolb");
    for request in [
        post("/analyze?derive-only&params=M=6,N=6,K=6", &src),
        post("/analyze", &src),
        post("/analyze?stmt=SU", &AnalyzeRequest::body(&src, GEMM_DERIVE)),
    ] {
        let response = exchange(addr, &request);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("\"class\": \"parse\""), "{response}");
        assert!(
            response.contains("POST /analyze takes a typed JSON body"),
            "{response}"
        );
    }
    shutdown(addr, handle);
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let (addr, handle) = start_daemon();
    let mut stream = TcpStream::connect(addr).expect("connect");
    for i in 0..3 {
        let body = AnalyzeRequest::body(
            &kernel("cholesky.iolb"),
            &[("derive-only", "true"), ("params", "N=8")],
        );
        let req = format!(
            "POST /analyze HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).expect("send");
        let response = read_response(&mut stream);
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "request {i}: {response}"
        );
        assert!(response.contains("Connection: keep-alive"), "{response}");
        assert!(
            response.contains(if i == 0 { "miss" } else { "hit" }),
            "request {i}: {response}"
        );
    }
    drop(stream);
    shutdown(addr, handle);
}

#[test]
fn health_stats_and_routing() {
    let (addr, handle) = start_daemon();
    assert!(exchange(addr, &get("/healthz")).starts_with("HTTP/1.1 200"));
    assert!(exchange(addr, &get("/nope")).starts_with("HTTP/1.1 404"));
    assert!(exchange(addr, &get("/analyze")).starts_with("HTTP/1.1 405"));
    assert!(exchange(addr, &post("/healthz", "")).starts_with("HTTP/1.1 405"));
    // Unknown body option → 400 with the option parser's diagnostic.
    let response = exchange(addr, &analyze("x", &[("frobnicate", "1")]));
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("unknown option"), "{response}");
    shutdown(addr, handle);
}

#[test]
fn slow_request_hits_the_wall_deadline_with_a_golden_408() {
    let opts = ServerOptions {
        request_deadline_ms: 200,
        ..ServerOptions::default()
    };
    let (addr, handle) = start_daemon_with(opts);
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A slowloris: start a request head, then never finish it. The
    // per-read timeout alone would keep this connection forever; the
    // wall deadline answers 408 and closes it.
    stream
        .write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 5\r\n")
        .expect("send partial head");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    check_golden("analyze_request_timeout.http", &response);
    shutdown(addr, handle);
}

/// The full `serve/v1` success envelope — the sweep and tightness
/// documents nested one level deep — for gemm_tiled at the CLI golden
/// size, and for gehd2 (split, hourglass and degrade members) down-scoped
/// to the coarse grid by the work budget; then `/stats` without a store.
#[test]
fn full_envelopes_and_stats_match_golden_snapshots() {
    let (addr, handle) = start_daemon();
    check_golden(
        "analyze_full.http",
        &exchange(
            addr,
            &analyze(
                &kernel("gemm_tiled.iolb"),
                &[("params", "M=10,N=10,K=10"), ("s-grid", "0,16,64")],
            ),
        ),
    );
    check_golden(
        "analyze_coarse.http",
        &exchange(
            addr,
            &analyze(
                &kernel("gehd2.iolb"),
                &[("params", "N=8"), ("max-work", "30000")],
            ),
        ),
    );
    check_golden("stats.http", &exchange(addr, &get("/stats")));
    shutdown(addr, handle);
}

/// The client side's request body, with escapes and non-ASCII text.
#[test]
fn request_body_matches_golden_snapshot() {
    let src = "kernel g(N) {\n\t\"q\" \\ π ≤ 4\u{1}\r\n}";
    let body = AnalyzeRequest::body(src, &[("params", "N=8"), ("s-grid", "0,16,64")]);
    check_golden("analyze_request.json", &body);
    assert_eq!(AnalyzeRequest::parse(&body).unwrap().source, src);
}

/// `/stats` with a `--store` attached: the multi-line `store` object.
#[test]
fn stats_with_store_match_golden_snapshot() {
    let dir = std::env::temp_dir().join(format!("iolbd_http_golden_{}", std::process::id()));
    let (addr, handle) = start_daemon_with(ServerOptions {
        store: Some(dir.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    });
    let response = exchange(addr, &analyze(&kernel("gemm_tiled.iolb"), GEMM_DERIVE));
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    check_golden("stats_store.http", &exchange(addr, &get("/stats")));
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
