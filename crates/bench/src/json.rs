//! The workspace's one JSON module — the offline workspace has no serde.
//! The streaming [`Writer`] is the only code that knows the output format:
//! every report schema and the client request body are written through it.
//! The reader ([`parse`]) reads request bodies and the BENCH reports. It
//! takes the full standard escape set, including `\uXXXX` with surrogate
//! pairs — stock emitters (python's `json.dumps`, serde) escape non-ASCII
//! that way, so request bodies built by ordinary clients must parse.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (finite decimals).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as an ordered key list (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kv) => kv.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object view (ordered key list).
    pub fn obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(kv) => Some(kv),
            _ => None,
        }
    }

    /// Array view.
    pub fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Number view.
    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure at a byte offset.
#[derive(Debug)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses one JSON document.
///
/// # Errors
/// Reports the first syntax error with its byte offset.
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let b = src.as_bytes();
    let mut pos = 0usize;
    let v = value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(err(pos, "trailing content"));
    }
    Ok(v)
}

fn err(at: usize, msg: &str) -> JsonError {
    JsonError {
        at,
        msg: msg.to_string(),
    }
}

/// Four hex digits of a `\uXXXX` escape starting at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, JsonError> {
    let chunk = b
        .get(at..at + 4)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    std::str::from_utf8(chunk)
        .ok()
        .and_then(|text| u32::from_str_radix(text, 16).ok())
        .ok_or_else(|| err(at, "bad \\u escape"))
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(kv));
            }
            loop {
                skip_ws(b, pos);
                let Value::Str(k) = value(b, pos)? else {
                    return Err(err(*pos, "object key must be a string"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:`"));
                }
                *pos += 1;
                let v = value(b, pos)?;
                kv.push((k, v));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(kv));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                out.push(value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(out));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            let mut raw = Vec::new();
            loop {
                match b.get(*pos) {
                    None => return Err(err(*pos, "unterminated string")),
                    Some(b'"') => {
                        *pos += 1;
                        if !raw.is_empty() {
                            let tail = std::str::from_utf8(&raw)
                                .map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                            s.push_str(tail);
                        }
                        return Ok(Value::Str(s));
                    }
                    Some(b'\\') => {
                        if !raw.is_empty() {
                            let tail = std::str::from_utf8(&raw)
                                .map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                            s.push_str(tail);
                            raw.clear();
                        }
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hi = hex4(b, *pos + 1)?;
                                *pos += 4;
                                let code = if (0xD800..0xDC00).contains(&hi) {
                                    // High surrogate: a low surrogate
                                    // escape must follow immediately.
                                    if b.get(*pos + 1) != Some(&b'\\')
                                        || b.get(*pos + 2) != Some(&b'u')
                                    {
                                        return Err(err(*pos, "unpaired surrogate"));
                                    }
                                    let lo = hex4(b, *pos + 3)?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(err(*pos, "unpaired surrogate"));
                                    }
                                    *pos += 6;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else if (0xDC00..0xE000).contains(&hi) {
                                    return Err(err(*pos, "unpaired surrogate"));
                                } else {
                                    hi
                                };
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| err(*pos, "bad \\u escape"))?,
                                );
                            }
                            _ => return Err(err(*pos, "unsupported escape")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Multi-byte UTF-8 accumulates and decodes in one go.
                        raw.push(c);
                        *pos += 1;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "utf8"))?;
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| err(start, "bad number"))
        }
    }
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, a level deeper than the container's line; the
    /// closer gets its own line, and an outermost one ends with a newline.
    Lines,
    /// Members joined by `, `; containers nested inside keep its depth.
    Inline,
}

/// Streaming JSON writer: key and value calls chain, `obj`/`arr` open a
/// container and `end` closes it. Indents are two spaces per level.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Open containers: closer, layout, member indent, any member yet.
    open: Vec<(char, Layout, usize, bool)>,
    /// A key was just written, so its value takes no separator.
    keyed: bool,
}

/// Writes members into the open object — `members!(w, "s": int(s), "r":
/// num(r))` is `w.key("s").int(s)` then `w.key("r").num(r)` — or, with
/// the members in braces, one whole inline object. Evaluates to the writer.
#[macro_export]
macro_rules! members {
    ($w:expr, {$($m:tt)+}) => {
        $crate::members!($w.obj($crate::json::Layout::Inline), $($m)+).end()
    };
    ($w:expr, $($key:literal: $kind:ident($($arg:expr),*)),+ $(,)?) => {{
        let w: &mut $crate::json::Writer = $w;
        $(w.key($key).$kind($($arg),*);)+
        w
    }};
}
pub use crate::members;

impl Writer {
    /// The written document.
    pub fn finish(self) -> String {
        self.out
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }

    /// Starts a value: after a key nothing, else a comma after an earlier
    /// member, then a new line in a `Lines` container.
    fn sep(&mut self) -> &mut String {
        let keyed = std::mem::take(&mut self.keyed);
        if let Some(c) = self.open.last_mut().filter(|_| !keyed) {
            let (lines, depth) = (c.1 == Layout::Lines, c.2);
            if std::mem::replace(&mut c.3, true) {
                self.out.push_str(if lines { "," } else { ", " });
            }
            if lines {
                self.newline(depth);
            }
        }
        &mut self.out
    }

    fn display(&mut self, v: impl fmt::Display) -> &mut Self {
        let _ = write!(self.sep(), "{v}");
        self
    }

    /// A string: quotes, backslashes and control characters escaped,
    /// everything else (non-ASCII included) verbatim.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.sep();
        out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k).out.push_str(": ");
        self.keyed = true;
        self
    }

    /// An integer.
    pub fn int(&mut self, n: impl fmt::Display) -> &mut Self {
        self.display(n)
    }

    /// An inline array of integers.
    pub fn ints<T: fmt::Display>(&mut self, items: &[T]) -> &mut Self {
        self.arr(Layout::Inline);
        for n in items {
            self.int(n);
        }
        self.end()
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.display(b)
    }

    /// The reports' number format: four decimals, `null` when not finite.
    pub fn num(&mut self, x: f64) -> &mut Self {
        if x.is_finite() {
            self.fixed(x, 4)
        } else {
            self.display("null")
        }
    }

    /// A number with exactly `decimals` decimals.
    pub fn fixed(&mut self, x: f64, decimals: usize) -> &mut Self {
        self.display(format_args!("{x:.decimals$}"))
    }

    /// `null` for `None`, else what `f` writes for the value.
    pub fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T) -> &mut Self) -> &mut Self {
        match v {
            Some(v) => f(self, v),
            None => self.display("null"),
        }
    }

    fn open(&mut self, open: char, close: char, layout: Layout) -> &mut Self {
        self.sep().push(open);
        let depth = self.open.last().map_or(0, |c| c.2) + usize::from(layout == Layout::Lines);
        self.open.push((close, layout, depth, false));
        self
    }

    /// Opens an object.
    pub fn obj(&mut self, layout: Layout) -> &mut Self {
        self.open('{', '}', layout)
    }

    /// Opens an array.
    pub fn arr(&mut self, layout: Layout) -> &mut Self {
        self.open('[', ']', layout)
    }

    /// Closes the innermost open container (panics when none is open).
    pub fn end(&mut self) -> &mut Self {
        let (close, layout, depth, _) = self.open.pop().expect("no open JSON container");
        if layout == Layout::Lines {
            self.newline(depth - 1);
        }
        self.out.push(close);
        if layout == Layout::Lines && self.open.is_empty() {
            self.out.push('\n');
        }
        self
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::*;
    use Layout::{Inline, Lines};

    #[test]
    fn parses_request_shapes() {
        let v = parse(
            r#"{"source": "kernel g {\n}", "options": {"s-grid": [0, 4], "no-tightness": true},
                "budgets": {"max-work": 25000}, "engines": ["visit", "spectral"], "x": null,
                "r": -1.25e2}"#,
        )
        .unwrap();
        assert_eq!(v.get("source").unwrap().str(), Some("kernel g {\n}"));
        let opts = v.get("options").unwrap().obj().unwrap();
        assert_eq!(opts[0].0, "s-grid");
        assert_eq!(opts[0].1.arr().unwrap().len(), 2);
        assert_eq!(opts[1].1.bool(), Some(true));
        assert_eq!(
            v.get("budgets").unwrap().get("max-work").unwrap().num(),
            Some(25000.0)
        );
        assert_eq!(v.get("engines").unwrap().arr().unwrap().len(), 2);
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(v.get("r").unwrap().num(), Some(-125.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\": \"\\q\"}").is_err());
    }

    #[test]
    fn multibyte_strings_round_trip() {
        let v = parse("{\"s\": \"π ≤ 4\"}").unwrap();
        assert_eq!(v.get("s").unwrap().str(), Some("π ≤ 4"));
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        // `json.dumps` escapes non-ASCII this way by default, so typed
        // bodies from stock clients depend on it.
        let v = parse("{\"s\": \"\\u03c0 \\u2264 4\"}").unwrap();
        assert_eq!(v.get("s").unwrap().str(), Some("π ≤ 4"));
        let v = parse("{\"s\": \"\\ud83e\\udd80\"}").unwrap();
        assert_eq!(v.get("s").unwrap().str(), Some("🦀"));
        assert_eq!(parse("\"A\\u000a\"").unwrap().str(), Some("A\n"));
        // Unpaired or malformed surrogates are errors, not replacement chars.
        assert!(parse("\"\\ud83e\"").is_err());
        assert!(parse("\"\\ud83eA\"").is_err());
        assert!(parse("\"\\udd80\"").is_err());
        assert!(parse("\"\\uZZZZ\"").is_err());
        assert!(parse("\"\\u00\"").is_err());
    }

    #[test]
    fn writer_output_round_trips() {
        // The escape set, byte for byte, and specials and non-ASCII text
        // back equal, as keys and as values.
        let texts = ["a\"b\\c\nd", "\u{1}\r\t\u{1f}", "π ≤ 4 🦀", ""];
        let mut w = Writer::default();
        w.obj(Lines);
        for t in texts {
            w.key(t).str(t);
        }
        w.end();
        let doc = w.finish();
        assert!(doc.starts_with(
            "{\n  \"a\\\"b\\\\c\\nd\": \"a\\\"b\\\\c\\nd\",\n  \"\\u0001\\r\\t\\u001f\""
        ));
        let members: Vec<_> = parse(&doc).unwrap().obj().unwrap().to_vec();
        assert_eq!(members.len(), texts.len());
        for ((k, v), t) in members.iter().zip(texts) {
            assert_eq!((k.as_str(), v.str()), (t, Some(t)));
        }

        // The layouts: an empty `Lines` array, and a `Lines` array nested
        // in an inline object, one level below the inline object's line.
        let mut w = Writer::default();
        members!(w.obj(Lines), "empty": arr(Lines)).end();
        members!(w.key("k").obj(Inline), "n": num(f64::NAN), "x": fixed(2.0, 1), "p": arr(Lines));
        members!(w.obj(Inline), "s": int(4)).end().end().end().end();
        let doc = w.finish();
        let want = "{\n  \"empty\": [\n  ],\n  \"k\": {\"n\": null, \"x\": 2.0, \"p\": [\n    {\"s\": 4}\n  ]}\n}\n";
        assert_eq!((doc.as_str(), parse(&doc).is_ok()), (want, true));

        // Every pinned emitter output parses back; the request body's
        // source comes back equal.
        let request = include_str!("../../iolbd/tests/golden/analyze_request.json");
        let source = parse(request)
            .unwrap()
            .get("source")
            .and_then(|s| s.str().map(String::from));
        assert_eq!(
            source.as_deref(),
            Some("kernel g(N) {\n\t\"q\" \\ π ≤ 4\u{1}\r\n}")
        );
        for doc in [
            include_str!("../../cli/tests/golden/pebble_sweep_v5.json"),
            include_str!("../../cli/tests/golden/pebble_sweep_v5_governed_batch.json"),
            include_str!("../../cli/tests/golden/tightness_v3.json"),
            include_str!("../../cli/tests/golden/tightness_v3_governed_batch.json"),
            include_str!("../../fuzz/tests/golden/fuzz_report.json"),
            include_str!("../../iolbd/tests/golden/analyze_full.http"),
            include_str!("../../iolbd/tests/golden/analyze_coarse.http"),
            include_str!("../../iolbd/tests/golden/analyze_refused.http"),
            include_str!("../../iolbd/tests/golden/stats.http"),
            include_str!("../../iolbd/tests/golden/stats_store.http"),
        ] {
            // An HTTP exchange's body follows its header block.
            let body = doc.split_once("\r\n\r\n").map_or(doc, |(_, body)| body);
            parse(body).unwrap();
        }
    }
}
