//! The typed `POST /analyze` request body, the daemon's only request form:
//!
//! ```json
//! {
//!   "source":  "kernel … { … }",
//!   "options": {"params": "M=8,N=4", "stmt": "SU", "s-grid": [0, 4, 16]},
//!   "budgets": {"max-work": 250000, "deadline-ms": 250},
//!   "engines": ["visit", "spectral"]
//! }
//! ```
//!
//! `source` is required; the three other members are optional. Every
//! `options`/`budgets` entry is funneled through the same
//! [`AnalysisOptions::set`] switchboard the CLI flags drive, so the
//! vocabularies (and their diagnostics) cannot diverge.

use crate::json::{self, members, Layout::Inline, Value, Writer};
use crate::options::AnalysisOptions;

/// One parsed `POST /analyze` body: the kernel source plus the option
/// pairs in application order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeRequest {
    /// Kernel source text.
    pub source: String,
    /// `(key, value)` pairs for [`AnalysisOptions::set`], in body order
    /// (`options` first, then `budgets`, then `engines`).
    pub sets: Vec<(String, String)>,
}

/// Renders one JSON option value in the string form
/// [`AnalysisOptions::set`] expects: strings pass through, integers print
/// plainly, booleans become `1`/`0`, arrays comma-join their elements.
fn value_string(key: &str, v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        Value::Bool(b) => Ok(if *b { "1" } else { "0" }.to_string()),
        Value::Num(n) => {
            if n.is_finite() && n.fract() == 0.0 && n.abs() < 9e15 {
                Ok(format!("{}", *n as i64))
            } else {
                Err(format!("option `{key}`: expected an integer, got {n}"))
            }
        }
        Value::Arr(items) => {
            let parts: Result<Vec<String>, String> = items
                .iter()
                .map(|item| match item {
                    Value::Str(_) | Value::Num(_) => value_string(key, item),
                    _ => Err(format!(
                        "option `{key}`: array elements must be strings or integers"
                    )),
                })
                .collect();
            Ok(parts?.join(","))
        }
        Value::Null => Err(format!("option `{key}` is null")),
        Value::Obj(_) => Err(format!("option `{key}`: nested objects are not allowed")),
    }
}

/// Flattens one `options`/`budgets` object into `(key, value)` pairs.
fn collect_pairs(member: &str, v: &Value, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let kv = v
        .obj()
        .ok_or_else(|| format!("`{member}` must be a JSON object"))?;
    for (k, val) in kv {
        out.push((k.clone(), value_string(k, val)?));
    }
    Ok(())
}

impl AnalyzeRequest {
    /// Parses a JSON request body.
    ///
    /// # Errors
    /// Human-readable diagnostic: JSON syntax errors, a missing or
    /// non-string `source`, unknown top-level members, or malformed
    /// option values. Option *semantics* (unknown keys, bad integers) are
    /// validated later by the switchboard, as for CLI flags.
    pub fn parse(body: &str) -> Result<AnalyzeRequest, String> {
        let root = json::parse(body).map_err(|e| format!("request body: {e}"))?;
        let members = root
            .obj()
            .ok_or_else(|| "request body must be a JSON object".to_string())?;
        for (k, _) in members {
            if !matches!(k.as_str(), "source" | "options" | "budgets" | "engines") {
                return Err(format!(
                    "unknown request member `{k}` (want source, options, budgets, engines)"
                ));
            }
        }
        let source = root
            .get("source")
            .and_then(Value::str)
            .ok_or_else(|| "request body needs a string `source` member".to_string())?
            .to_string();
        let mut sets = Vec::new();
        if let Some(v) = root.get("options") {
            collect_pairs("options", v, &mut sets)?;
        }
        if let Some(v) = root.get("budgets") {
            collect_pairs("budgets", v, &mut sets)?;
        }
        if let Some(v) = root.get("engines") {
            sets.push(("engines".to_string(), value_string("engines", v)?));
        }
        Ok(AnalyzeRequest { source, sets })
    }

    /// Renders a request body for `source` with string-valued `options`:
    /// the client side of [`AnalyzeRequest::parse`].
    pub fn body(source: &str, options: &[(&str, &str)]) -> String {
        let mut w = Writer::default();
        members!(w.obj(Inline), "source": str(source), "options": obj(Inline));
        for (k, v) in options {
            w.key(k).str(v);
        }
        w.end().end();
        w.finish()
    }

    /// Resolves the request's option pairs into [`AnalysisOptions`]
    /// through the shared switchboard.
    ///
    /// # Errors
    /// The switchboard's diagnostic for the first bad pair.
    pub fn options(&self) -> Result<AnalysisOptions, String> {
        let mut opts = AnalysisOptions::default();
        for (k, v) in &self.sets {
            opts.set(k, v)?;
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::*;

    #[test]
    fn full_body_resolves_through_the_switchboard() {
        let req = AnalyzeRequest::parse(
            r#"{
                "source": "kernel g { }",
                "options": {"params": "M=8,N=4", "s-grid": [0, 4, 16], "no-tightness": true},
                "budgets": {"max-work": 25000, "deadline-ms": 250},
                "engines": ["spectral", "input-floor"]
            }"#,
        )
        .unwrap();
        assert_eq!(req.source, "kernel g { }");
        let opts = req.options().unwrap();
        assert_eq!(
            opts.params_override,
            vec![("M".to_string(), 8), ("N".to_string(), 4)]
        );
        assert_eq!(opts.s_offsets, vec![0, 4, 16]);
        assert!(opts.no_tightness);
        assert_eq!(opts.budget.max_work, 25000);
        assert_eq!(opts.budget.deadline_ms, 250);
        // Engine lists canonicalize exactly like `--engines` values.
        assert_eq!(opts.engines, "input-floor,spectral");
    }

    #[test]
    fn rendered_body_round_trips() {
        let src = "kernel g {\n  \"q\" \\ π\n}";
        let body = AnalyzeRequest::body(src, &[("stmt", "SU"), ("derive-only", "1")]);
        let req = AnalyzeRequest::parse(&body).unwrap();
        assert_eq!(req.source, src);
        assert_eq!(
            req.sets,
            vec![
                ("stmt".to_string(), "SU".to_string()),
                ("derive-only".to_string(), "1".to_string())
            ]
        );
    }

    #[test]
    fn source_only_body_is_the_default_analysis() {
        let req = AnalyzeRequest::parse(r#"{"source": "kernel g { }"}"#).unwrap();
        assert!(req.sets.is_empty());
        let opts = req.options().unwrap();
        assert_eq!(opts.fingerprint(), AnalysisOptions::default().fingerprint());
    }

    #[test]
    fn engines_accepts_string_or_array() {
        let a = AnalyzeRequest::parse(r#"{"source": "k", "engines": "none"}"#).unwrap();
        assert_eq!(a.sets, vec![("engines".to_string(), "none".to_string())]);
        let b = AnalyzeRequest::parse(r#"{"source": "k", "engines": ["visit"]}"#).unwrap();
        assert_eq!(b.options().unwrap().engines, "visit");
    }

    #[test]
    fn bad_bodies_get_precise_diagnostics() {
        assert!(AnalyzeRequest::parse("not json").is_err());
        assert!(AnalyzeRequest::parse("[1]").is_err());
        let e = AnalyzeRequest::parse(r#"{"options": {}}"#).unwrap_err();
        assert!(e.contains("source"), "{e}");
        let e = AnalyzeRequest::parse(r#"{"source": "k", "frobnicate": 1}"#).unwrap_err();
        assert!(e.contains("unknown request member"), "{e}");
        let e =
            AnalyzeRequest::parse(r#"{"source": "k", "budgets": {"max-work": 1.5}}"#).unwrap_err();
        assert!(e.contains("integer"), "{e}");
        let e = AnalyzeRequest::parse(r#"{"source": "k", "options": {"stmt": null}}"#).unwrap_err();
        assert!(e.contains("null"), "{e}");
        // Semantic validation is deferred to the shared switchboard.
        let req =
            AnalyzeRequest::parse(r#"{"source": "k", "options": {"frobnicate": "1"}}"#).unwrap();
        assert!(req.options().unwrap_err().contains("unknown option"));
    }
}
