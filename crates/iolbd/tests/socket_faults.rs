//! Socket-level fault injection for the daemon's HTTP framing.
//!
//! [`read_request`](iolbd::http::read_request) and
//! [`write_response`](iolbd::http::write_response) are generic over the
//! stream, so every transport misbehaviour a real peer can produce —
//! short reads, timeout trickle (slowloris), mid-request disconnects,
//! hard transport errors, write-side failures — can be scripted
//! deterministically in memory. Each fault cell asserts the *exact*
//! error class (`Timeout` answers 408, `Malformed` answers 400) and is
//! paired with a clean control run proving the parser itself is not what
//! failed.

use iolbd::http::{read_request, write_response, ReadError, ReadOutcome};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

/// One step of a scripted connection.
enum Action {
    /// Deliver these bytes (possibly fewer per `read` call than asked).
    Data(Vec<u8>),
    /// One read that times out (`WouldBlock`), as a real socket with a
    /// short read timeout reports an idle window.
    Block,
    /// Sleep, then time out — models a slow client burning wall clock
    /// between bytes without ever stalling long enough for the backstop.
    Wait(Duration),
    /// Clean disconnect: `read` returns `Ok(0)`.
    Disconnect,
    /// Hard transport error.
    Fail(ErrorKind),
}

/// An in-memory stream that plays back a fault script.
struct Scripted {
    script: VecDeque<Action>,
}

impl Scripted {
    fn new(script: Vec<Action>) -> Scripted {
        Scripted {
            script: script.into(),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.script.pop_front() {
            Some(Action::Data(bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.script.push_front(Action::Data(bytes[n..].to_vec()));
                }
                Ok(n)
            }
            Some(Action::Block) => Err(ErrorKind::WouldBlock.into()),
            Some(Action::Wait(d)) => {
                std::thread::sleep(d);
                Err(ErrorKind::WouldBlock.into())
            }
            Some(Action::Disconnect) => Ok(0),
            Some(Action::Fail(kind)) => Err(kind.into()),
            None => panic!("script exhausted: read_request asked for more than the script holds"),
        }
    }
}

/// Splits `bytes` into one `Data` action per byte — the shortest possible
/// reads a peer can produce.
fn byte_at_a_time(bytes: &[u8]) -> Vec<Action> {
    bytes.iter().map(|&b| Action::Data(vec![b])).collect()
}

fn timeout_of(result: Result<ReadOutcome, ReadError>) -> String {
    match result {
        Err(ReadError::Timeout(m)) => m,
        other => panic!("expected Timeout, got {other:?}"),
    }
}

fn malformed_of(result: Result<ReadOutcome, ReadError>) -> String {
    match result {
        Err(ReadError::Malformed(m)) => m,
        other => panic!("expected Malformed, got {other:?}"),
    }
}

const POST: &[u8] = b"POST /analyze HTTP/1.1\r\nContent-Length: 15\r\n\r\n{\"source\": \"k\"}";
const BODY: &[u8] = b"{\"source\": \"k\"}";

#[test]
fn one_byte_reads_parse_cleanly() {
    // Clean control for every short-read cell: the worst legal peer (one
    // byte per read) still yields a complete, correctly-framed request.
    let mut stream = Scripted::new(byte_at_a_time(POST));
    let outcome = read_request(&mut stream, 0).expect("clean parse");
    let ReadOutcome::Request(req) = outcome else {
        panic!("expected a request, got {outcome:?}");
    };
    assert_eq!(req.method, "POST");
    assert_eq!(req.path, "/analyze");
    assert_eq!(req.query, None);
    assert_eq!(req.body, BODY);
    assert!(req.keep_alive);
}

#[test]
fn interleaved_timeout_windows_do_not_break_a_patient_request() {
    // Blocks *between* bytes are normal on a socket with a short read
    // timeout; as long as they stay under the stall backstop and the
    // request finishes inside the wall deadline, it parses.
    let mut script = Vec::new();
    for &b in POST {
        script.push(Action::Data(vec![b]));
        script.push(Action::Block);
    }
    script.pop(); // no trailing read after the body completes
    let mut stream = Scripted::new(script);
    let outcome = read_request(&mut stream, 0).expect("patient request parses");
    let ReadOutcome::Request(req) = outcome else {
        panic!("expected a request, got {outcome:?}");
    };
    assert_eq!(req.body, BODY);
}

#[test]
fn slowloris_head_trickle_hits_the_wall_deadline() {
    // One byte per ~5 ms never stalls, but the wall deadline (armed at
    // the first byte) closes the hole: the trickle cannot outlive
    // --request-deadline-ms.
    let mut script = vec![Action::Data(b"P".to_vec())];
    for _ in 0..100 {
        script.push(Action::Wait(Duration::from_millis(5)));
        script.push(Action::Data(b"O".to_vec()));
    }
    let mut stream = Scripted::new(script);
    let msg = timeout_of(read_request(&mut stream, 30));
    assert!(
        msg.contains("--request-deadline-ms=30") && msg.contains("reading the head"),
        "unexpected timeout message: {msg}"
    );
}

#[test]
fn slowloris_body_trickle_hits_the_wall_deadline() {
    let head = b"POST /analyze HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
    let mut script = vec![Action::Data(head.to_vec())];
    for _ in 0..100 {
        script.push(Action::Wait(Duration::from_millis(5)));
        script.push(Action::Data(b"x".to_vec()));
    }
    let mut stream = Scripted::new(script);
    let msg = timeout_of(read_request(&mut stream, 30));
    assert!(
        msg.contains("--request-deadline-ms=30") && msg.contains("reading the body"),
        "unexpected timeout message: {msg}"
    );
}

#[test]
fn idle_connection_never_ticks_the_deadline() {
    // A keep-alive connection with no bytes in flight is Idle, not
    // Timeout — the wall clock only starts at the request's first byte.
    let mut stream = Scripted::new(vec![Action::Wait(Duration::from_millis(10)), Action::Block]);
    match read_request(&mut stream, 1) {
        Ok(ReadOutcome::Idle) => {}
        other => panic!("expected Idle, got {other:?}"),
    }
}

#[test]
fn stall_backstop_trips_without_a_wall_deadline() {
    // Even with --request-deadline-ms=0 (wall deadline off), a client
    // that starts a request and then goes silent is bounded by the
    // consecutive-stall backstop.
    let mut script = vec![Action::Data(b"GET /".to_vec())];
    for _ in 0..41 {
        script.push(Action::Block);
    }
    let mut stream = Scripted::new(script);
    let msg = timeout_of(read_request(&mut stream, 0));
    assert!(msg.contains("timed out mid-request"), "got: {msg}");
}

#[test]
fn disconnect_mid_head_is_malformed() {
    let mut stream = Scripted::new(vec![
        Action::Data(b"GET /stats HTTP/1.1\r\n".to_vec()),
        Action::Disconnect,
    ]);
    let msg = malformed_of(read_request(&mut stream, 0));
    assert!(msg.contains("closed mid-request"), "got: {msg}");
}

#[test]
fn disconnect_mid_body_is_malformed() {
    let mut stream = Scripted::new(vec![
        Action::Data(b"POST /analyze HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec()),
        Action::Disconnect,
    ]);
    let msg = malformed_of(read_request(&mut stream, 0));
    assert!(msg.contains("closed mid-body"), "got: {msg}");
}

#[test]
fn clean_disconnect_before_any_byte_is_closed_not_an_error() {
    let mut stream = Scripted::new(vec![Action::Disconnect]);
    match read_request(&mut stream, 0) {
        Ok(ReadOutcome::Closed) => {}
        other => panic!("expected Closed, got {other:?}"),
    }
}

#[test]
fn transport_error_mid_head_is_malformed() {
    let mut stream = Scripted::new(vec![
        Action::Data(b"GET ".to_vec()),
        Action::Fail(ErrorKind::ConnectionReset),
    ]);
    let msg = malformed_of(read_request(&mut stream, 0));
    assert!(msg.starts_with("read:"), "got: {msg}");
}

#[test]
fn transport_error_mid_body_is_malformed() {
    let mut stream = Scripted::new(vec![
        Action::Data(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab".to_vec()),
        Action::Fail(ErrorKind::ConnectionReset),
    ]);
    let msg = malformed_of(read_request(&mut stream, 0));
    assert!(msg.starts_with("read body:"), "got: {msg}");
}

/// Write side: succeeds for `good` bytes, then fails every call.
struct FailingWriter {
    good: usize,
    written: Vec<u8>,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.written.len() >= self.good {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(self.good - self.written.len());
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn short_writes_then_disconnect_surface_as_a_write_error() {
    // The peer accepts 10 bytes of the response and vanishes. The daemon
    // must see a typed error (it logs and drops the connection), not a
    // panic or a silent half-written response.
    let mut w = FailingWriter {
        good: 10,
        written: Vec::new(),
    };
    let err = write_response(&mut w, 200, &[], "{}", true).expect_err("write must fail");
    assert!(err.starts_with("write:"), "got: {err}");
    assert_eq!(w.written.len(), 10, "exactly the accepted prefix went out");

    // Clean control: an unlimited writer receives the full frame.
    let mut ok = FailingWriter {
        good: usize::MAX,
        written: Vec::new(),
    };
    write_response(&mut ok, 200, &[], "{}", true).expect("clean write");
    let text = String::from_utf8(ok.written).expect("utf8");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(text.ends_with("\r\n\r\n{}"));
}
