//! End-to-end crash-safety of the daemon's persistent report store.
//!
//! A daemon started with `--store DIR` must serve byte-identical report
//! bodies after a restart against the same directory, tolerate a
//! corrupted journal record (skip it, count it, recompute — never serve
//! bytes that failed their checksum), and truncate a torn journal tail
//! left behind by a crash mid-append. The out-of-process kill -9 variant
//! lives in `cargo xtask crash-smoke`; these tests cover the same
//! contracts in-process where the assertions can be exact.

use iolb_service::AnalyzeRequest;
use iolbd::{serve_listener, ServerOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

fn kernel(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../kernels")
        .join(name);
    std::fs::read_to_string(path).expect("kernel file")
}

/// A scratch store directory, removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new() -> StoreDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "iolbd_persistence_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        StoreDir(dir)
    }

    fn journal(&self) -> PathBuf {
        self.0.join(iolb_service::JOURNAL_FILE)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start_daemon(store: &StoreDir) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let opts = ServerOptions {
        store: Some(store.0.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    };
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

fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let response = exchange(addr, &post("/shutdown", ""));
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    handle.join().expect("server thread");
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .expect("response has a body")
}

fn stats(addr: SocketAddr) -> String {
    exchange(
        addr,
        "GET /stats HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    )
}

/// Pulls one integer field out of the `/stats` store object.
fn store_stat(stats: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\": ");
    let at = stats
        .find(&needle)
        .unwrap_or_else(|| panic!("{field} missing from stats: {stats}"));
    stats[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{field} not a number in stats: {stats}"))
}

/// A bounds-only `POST /analyze` of the shipped kernel `file` at `params`.
fn analyze(file: &str, params: &str) -> String {
    post(
        "/analyze",
        &AnalyzeRequest::body(
            &kernel(file),
            &[("derive-only", "true"), ("params", params)],
        ),
    )
}

fn gemm_request() -> String {
    analyze("gemm_tiled.iolb", "M=6,N=6,K=6")
}

#[test]
fn restart_against_the_same_store_serves_byte_identical_warm_bodies() {
    let dir = StoreDir::new();

    // First life: compute one report, journal it, drain out.
    let (addr, handle) = start_daemon(&dir);
    let cold = exchange(addr, &gemm_request());
    assert!(cold.contains("X-Iolb-Cache: miss"), "{cold}");
    let before = stats(addr);
    assert_eq!(store_stat(&before, "appends"), 1, "{before}");
    assert_eq!(store_stat(&before, "entries"), 1, "{before}");
    shutdown(addr, handle);
    assert!(dir.journal().exists(), "journal must survive the daemon");

    // Second life: the store recovers the record and serves it as a hit
    // without recomputing — and the bytes are identical to the cold run.
    let (addr, handle) = start_daemon(&dir);
    let warm = exchange(addr, &gemm_request());
    assert!(warm.contains("X-Iolb-Cache: hit"), "{warm}");
    assert_eq!(
        body_of(&cold),
        body_of(&warm),
        "persisted body must be byte-identical to the computed one"
    );
    let after = stats(addr);
    assert_eq!(store_stat(&after, "recovered_records"), 1, "{after}");
    assert_eq!(store_stat(&after, "persisted_hits"), 1, "{after}");
    assert_eq!(store_stat(&after, "skipped_corrupt_records"), 0, "{after}");
    // A store hit is invisible to the in-memory report cache counters.
    assert!(
        after.contains("\"report\": {\"hits\": 0, \"misses\": 0, \"evictions\": 0}"),
        "{after}"
    );
    shutdown(addr, handle);
}

#[test]
fn corrupt_journal_record_is_skipped_counted_and_recomputed_never_served() {
    let dir = StoreDir::new();

    // Journal two distinct reports.
    let (addr, handle) = start_daemon(&dir);
    let gemm = exchange(addr, &gemm_request());
    let chol = exchange(addr, &analyze("cholesky.iolb", "N=8"));
    assert!(gemm.contains("X-Iolb-Cache: miss"), "{gemm}");
    assert!(chol.contains("X-Iolb-Cache: miss"), "{chol}");
    shutdown(addr, handle);

    // Flip one payload byte inside the *first* record (offset 10 is past
    // the 4-byte magic and 4-byte length, inside the payload): its CRC
    // check must now fail.
    let journal = dir.journal();
    let mut bytes = std::fs::read(&journal).expect("journal");
    assert!(bytes.len() > 16, "journal too small to corrupt");
    bytes[10] ^= 0xFF;
    std::fs::write(&journal, &bytes).expect("rewrite journal");

    // Restart: the corrupt record is skipped and counted, the intact
    // second record still recovers (resync on the record magic), and the
    // lost report is recomputed to the same bytes — corrupt stored bytes
    // are never served.
    let (addr, handle) = start_daemon(&dir);
    let s = stats(addr);
    assert_eq!(store_stat(&s, "skipped_corrupt_records"), 1, "{s}");
    assert_eq!(store_stat(&s, "recovered_records"), 1, "{s}");

    let chol_warm = exchange(addr, &analyze("cholesky.iolb", "N=8"));
    assert!(chol_warm.contains("X-Iolb-Cache: hit"), "{chol_warm}");
    assert_eq!(body_of(&chol), body_of(&chol_warm));

    let gemm_again = exchange(addr, &gemm_request());
    assert!(
        gemm_again.contains("X-Iolb-Cache: miss"),
        "corrupt record must recompute, not serve: {gemm_again}"
    );
    assert_eq!(
        body_of(&gemm),
        body_of(&gemm_again),
        "recomputed body must match the original"
    );
    shutdown(addr, handle);
}

#[test]
fn torn_journal_tail_is_truncated_counted_and_the_prefix_recovers() {
    let dir = StoreDir::new();

    let (addr, handle) = start_daemon(&dir);
    let cold = exchange(addr, &gemm_request());
    shutdown(addr, handle);

    // Simulate a crash mid-append: a record that starts but never
    // finishes (magic + declared length, no payload).
    let journal = dir.journal();
    let intact = std::fs::read(&journal).expect("journal").len() as u64;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal");
    f.write_all(b"IOLR\xff\x00\x00\x00partial").expect("tear");
    drop(f);

    let (addr, handle) = start_daemon(&dir);
    let s = stats(addr);
    assert!(store_stat(&s, "torn_tail_bytes") > 0, "{s}");
    assert_eq!(store_stat(&s, "recovered_records"), 1, "{s}");
    assert_eq!(
        std::fs::metadata(&journal).expect("journal").len(),
        intact,
        "recovery must truncate the torn tail back to the intact prefix"
    );
    let warm = exchange(addr, &gemm_request());
    assert!(warm.contains("X-Iolb-Cache: hit"), "{warm}");
    assert_eq!(body_of(&cold), body_of(&warm));
    shutdown(addr, handle);
}
