//! Minimal JSON reader — the offline workspace has no serde. It reads the
//! typed request bodies here and the BENCH reports in `xtask`. Accepts the
//! standard scalar/array/object shapes and the full standard escape set,
//! including `\uXXXX` with surrogate pairs — stock emitters (python's
//! `json.dumps`, serde) escape non-ASCII that way, so request bodies built
//! by ordinary clients must parse.

use std::fmt;

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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::*;

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
}
