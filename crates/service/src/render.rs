//! Deterministic serve-envelope rendering.
//!
//! The `hourglass-iolb/serve/v1` success body lives here — below the
//! daemon — because the caches keep *rendered bodies*: byte-identical
//! serving across a restart is the persistent
//! [`ReportStore`](crate::ReportStore)'s contract, and the render is the
//! canonical byte form of an [`AnalysisOutcome`] (volatile meta redacted,
//! fixed field order). It runs once per report entry, not per request:
//! [`Pipeline::serve`](crate::Pipeline::serve) keeps the body next to the
//! cached outcome and hands the same bytes to every later hit, and the
//! store's index shares that allocation. Fault-injection requests, which
//! bypass every layer, render fresh.

use crate::pipeline::AnalysisOutcome;
use iolb_bench::sweep::{json_str, sweep_report_json_with};
use iolb_bench::tightness::{tightness_report_json, TightnessReport};

/// Indents every non-first line of an embedded JSON document so the
/// envelope stays readable.
pub fn embed(doc: &str, indent: &str) -> String {
    doc.trim_end().replace('\n', &format!("\n{indent}"))
}

/// The success envelope: outcome summary + the CLI's own report schemas
/// embedded verbatim (volatile meta redacted, so a given kernel ×
/// options always serializes to identical bytes — cached, persisted, or
/// freshly computed).
pub fn outcome_body(o: &AnalysisOutcome) -> String {
    let params: Vec<String> = o
        .params
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect();
    let classical = match &o.classical {
        Some(c) => format!(
            "{{\"sigma\": {}, \"m\": {}, \"expr\": {}}}",
            json_str(&c.sigma),
            json_str(&c.m),
            json_str(&c.expr)
        ),
        None => "null".to_string(),
    };
    let split = match &o.split {
        Some(s) => format!(
            "{{\"var\": {}, \"expr\": {}}}",
            json_str(&s.var),
            json_str(&s.expr)
        ),
        None => "null".to_string(),
    };
    let hourglass = match &o.hourglass {
        Some(h) => format!(
            "{{\"chains\": {}, \"w_min\": {}, \"w_max\": {}, \"main_tool\": {}}}",
            h.chains,
            json_str(&h.w_min),
            json_str(&h.w_max),
            json_str(&h.main_tool)
        ),
        None => "null".to_string(),
    };
    let degrade = match &o.degrade {
        Some(d) => format!(
            "{{\"work_needed\": {}, \"max_work\": {}, \"coarse_points\": {}}}",
            d.work_needed, d.max_work, d.coarse_points
        ),
        None => "null".to_string(),
    };
    let sweep = match &o.sweep {
        Some(r) => embed(&sweep_report_json_with(r, true), "  "),
        None => "null".to_string(),
    };
    let tightness = match &o.tightness {
        Some(k) => {
            let report = TightnessReport {
                kernels: vec![k.clone()],
                degradation: Vec::new(),
                failures: Vec::new(),
                total_wall_ms: 0.0,
                threads: 0,
            };
            embed(&tightness_report_json(&report, true), "  ")
        }
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"schema\": \"hourglass-iolb/serve/v1\",\n  \"kernel\": {},\n  \"stmt\": {},\n  \"params\": {{{}}},\n  \"certified_instances\": {},\n  \"degradation\": {},\n  \"sound\": {},\n  \"classical\": {classical},\n  \"split\": {split},\n  \"hourglass\": {hourglass},\n  \"degrade\": {degrade},\n  \"sweep\": {sweep},\n  \"tightness\": {tightness}\n}}\n",
        json_str(&o.name),
        json_str(&o.stmt),
        params.join(", "),
        o.certified_instances,
        json_str(o.degradation.as_str()),
        o.sound,
    )
}
