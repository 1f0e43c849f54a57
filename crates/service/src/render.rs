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
use iolb_bench::json::Layout::{Inline, Lines};
use iolb_bench::json::{members, Writer};
use iolb_bench::sweep::write_sweep_report;
use iolb_bench::tightness::{write_tightness_report, TightnessReport};

/// The success envelope: outcome summary + the CLI's own report schemas
/// written one level deep (volatile meta redacted, so a given kernel ×
/// options always serializes to identical bytes — cached, persisted, or
/// freshly computed).
pub fn outcome_body(o: &AnalysisOutcome) -> String {
    let mut w = Writer::default();
    members!(w.obj(Lines), "schema": str("hourglass-iolb/serve/v1"), "kernel": str(&o.name),
        "stmt": str(&o.stmt), "params": obj(Inline));
    for (n, v) in &o.params {
        w.key(n).int(v);
    }
    members!(w.end(), "certified_instances": int(o.certified_instances),
        "degradation": str(o.degradation.as_str()), "sound": bool(o.sound));
    w.key("classical").opt(
        o.classical.as_ref(),
        |w, c| members!(w, {"sigma": str(&c.sigma), "m": str(&c.m), "expr": str(&c.expr)}),
    );
    w.key("split").opt(
        o.split.as_ref(),
        |w, s| members!(w, {"var": str(&s.var), "expr": str(&s.expr)}),
    );
    w.key("hourglass").opt(o.hourglass.as_ref(), |w, h| {
        members!(w, {"chains": int(h.chains), "w_min": str(&h.w_min), "w_max": str(&h.w_max),
            "main_tool": str(&h.main_tool)})
    });
    w.key("degrade").opt(o.degrade.as_ref(), |w, d| {
        members!(w, {"work_needed": int(d.work_needed), "max_work": int(d.max_work),
            "coarse_points": int(d.coarse_points)})
    });
    w.key("sweep").opt(o.sweep.as_ref(), |w, r| {
        write_sweep_report(w, r, true);
        w
    });
    w.key("tightness").opt(o.tightness.as_ref(), |w, k| {
        let mut report = TightnessReport::default();
        report.kernels.push(k.clone());
        write_tightness_report(w, &report, true);
        w
    });
    w.end();
    w.finish()
}
