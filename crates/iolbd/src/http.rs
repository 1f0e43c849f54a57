//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! the daemon's JSON API (request line + headers + `Content-Length`
//! bodies, keep-alive, nothing else). Hand-rolled because the build
//! environment is vendored-deps-only; the daemon's clients are the
//! benchmark harness and local tooling, not the open internet.

use std::io::{Read, Write};
use std::time::Instant;

/// Upper bound on a request head + body the daemon will buffer.
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (`/analyze`).
    pub path: String,
    /// The raw query string, when the target carried one (`POST /analyze`
    /// refuses it: options travel in the typed body).
    pub query: Option<String>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// What one read attempt on a connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection cleanly before sending anything.
    Closed,
    /// No bytes arrived within the read timeout — the connection is idle
    /// (keep-alive between requests); requeue it and try again later.
    Idle,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Why [`read_request`] gave up on a connection. The two classes map to
/// different responses: a client that was *too slow* gets `408`, a client
/// that sent *garbage* gets `400`.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The total wall deadline expired (or the per-read stall backstop
    /// tripped) with a request underway.
    Timeout(String),
    /// Malformed framing, oversized payloads, truncation mid-request, or
    /// a transport error.
    Malformed(String),
}

impl ReadError {
    /// The human-readable diagnostic.
    pub fn message(&self) -> &str {
        match self {
            ReadError::Timeout(m) | ReadError::Malformed(m) => m,
        }
    }
}

fn malformed<T>(msg: impl Into<String>) -> Result<T, ReadError> {
    Err(ReadError::Malformed(msg.into()))
}

/// Reads one request from the stream. The caller arms a short read
/// timeout; an idle connection surfaces as [`ReadOutcome::Idle`] after
/// one silent timeout, while a connection that has *started* a request
/// must finish it within `deadline_ms` of its first byte (0 = no wall
/// deadline) *and* without stalling more than a bounded number of
/// consecutive read-timeout windows. The wall deadline is what closes
/// the slowloris hole: a client trickling one byte per timeout window
/// never stalls, but cannot trickle forever.
///
/// # Errors
/// [`ReadError::Timeout`] when the client was too slow (answer `408`);
/// [`ReadError::Malformed`] on framing/transport problems (answer `400`).
pub fn read_request<S: Read>(stream: &mut S, deadline_ms: u64) -> Result<ReadOutcome, ReadError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut stalls = 0usize;
    // The wall clock starts at the request's first byte, so idle
    // keep-alive connections never tick against the deadline.
    let mut started: Option<Instant> = None;
    let expired = |started: &Option<Instant>| {
        deadline_ms > 0 && started.is_some_and(|t| t.elapsed().as_millis() as u64 > deadline_ms)
    };
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_BODY {
            return malformed("request head too large");
        }
        if expired(&started) {
            return Err(ReadError::Timeout(format!(
                "request exceeded --request-deadline-ms={deadline_ms} reading the head"
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(ReadOutcome::Closed);
                }
                return malformed("connection closed mid-request");
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                started.get_or_insert_with(Instant::now);
                stalls = 0;
            }
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() {
                    return Ok(ReadOutcome::Idle);
                }
                stalls += 1;
                if stalls > 40 {
                    return Err(ReadError::Timeout("timed out mid-request".to_string()));
                }
            }
            Err(e) => return malformed(format!("read: {e}")),
        }
    };

    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return malformed("request head is not UTF-8"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().map_or("", |l| l);
    let mut parts = request_line.split_whitespace();
    let Some(method) = parts.next().map(str::to_string) else {
        return malformed("missing method");
    };
    let Some(target) = parts.next() else {
        return malformed("missing request target");
    };
    let Some(version) = parts.next() else {
        return malformed("missing HTTP version");
    };
    if !version.starts_with("HTTP/1.") {
        return malformed(format!("unsupported version {version}"));
    }

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = match value.parse() {
                        Ok(n) => n,
                        Err(_) => return malformed(format!("bad Content-Length `{value}`")),
                    };
                }
                "connection" => match value.to_ascii_lowercase().as_str() {
                    "close" => keep_alive = false,
                    "keep-alive" => keep_alive = true,
                    _ => {}
                },
                _ => {}
            }
        }
    }
    if content_length > MAX_BODY {
        return malformed(format!("body of {content_length} bytes exceeds limit"));
    }

    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    let mut stalls = 0usize;
    while body.len() < content_length {
        if expired(&started) {
            return Err(ReadError::Timeout(format!(
                "request exceeded --request-deadline-ms={deadline_ms} reading the body"
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return malformed("connection closed mid-body"),
            Ok(n) => {
                body.extend_from_slice(&chunk[..n]);
                stalls = 0;
            }
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > 40 {
                    return Err(ReadError::Timeout("timed out mid-body".to_string()));
                }
            }
            Err(e) => return malformed(format!("read body: {e}")),
        }
    }
    body.truncate(content_length);

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Room for the fixed response head: the longest status line plus the
/// `Content-Type`, `Content-Length` and `Connection` lines.
const HEAD_BYTES: usize = 128;

/// Serializes one response (the wire bytes, ready to write) into one
/// buffer sized once for head and body. All daemon payloads are JSON.
pub fn render_response(
    status: u16,
    extra_headers: &[(String, String)],
    body: &str,
    keep_alive: bool,
) -> String {
    use std::fmt::Write as _;
    let extra: usize = extra_headers
        .iter()
        .map(|(n, v)| n.len() + v.len() + 4)
        .sum();
    let mut out = String::with_capacity(HEAD_BYTES + extra + body.len());
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.push_str(if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    });
    out.push_str("\r\n");
    out.push_str(body);
    out
}

/// Writes a rendered response to the stream with one `write_all`: the
/// daemon does not set `TCP_NODELAY`, so a head written apart from its body
/// could stall on Nagle's algorithm and the peer's delayed ACK.
///
/// # Errors
/// The transport error, when the peer is gone.
pub fn write_response<S: Write>(
    stream: &mut S,
    status: u16,
    extra_headers: &[(String, String)],
    body: &str,
    keep_alive: bool,
) -> Result<(), String> {
    stream
        .write_all(render_response(status, extra_headers, body, keep_alive).as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_framing() {
        let r = render_response(
            200,
            &[("X-Iolb-Cache".to_string(), "hit".to_string())],
            "{}",
            true,
        );
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 2\r\n"));
        assert!(r.contains("X-Iolb-Cache: hit\r\n"));
        assert!(r.contains("Connection: keep-alive\r\n"));
        assert!(r.ends_with("\r\n\r\n{}"));
        // The buffer is sized once: the longest head fits its reserve.
        let body = "x".repeat(MAX_BODY);
        let r = render_response(499, &[], &body, true);
        assert!(
            r.len() <= HEAD_BYTES + body.len(),
            "head {} bytes",
            r.len() - body.len()
        );
    }
}
