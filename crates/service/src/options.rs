//! Analysis request options shared by every front-end and folded into the
//! result-cache key. [`AnalysisOptions::set`] is the one parser of option
//! values: the `iolb` CLI flags, the `iolbd` default flags and the typed
//! `POST /analyze` body's `options`/`budgets`/`engines` members all reach
//! it as `(key, value)` pairs.

use iolb_bench::sweep::CurveStrategy;
use iolb_core::govern::{Budget, Fault};
use iolb_core::EngineRegistry;

/// Everything that parameterizes one analysis request beyond the kernel
/// text itself. Two requests with equal [`fingerprint`]s on the same
/// canonicalized kernel are the same analysis — the pipeline is
/// deterministic, so the second is a cache lookup.
///
/// [`fingerprint`]: AnalysisOptions::fingerprint
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Parameter overrides applied over the file's `default` directive.
    pub params_override: Vec<(String, i64)>,
    /// Analysis-statement override (else `analyze` directive, else the
    /// deepest statement).
    pub stmt_override: Option<String>,
    /// Offsets added to the minimum feasible S to form the S grid.
    pub s_offsets: Vec<usize>,
    /// Skip the upper-bound schedule measurement.
    pub no_tightness: bool,
    /// Skip everything past the symbolic derivation.
    pub derive_only: bool,
    /// Graph-level bound-engine selection, stored in canonical spec form
    /// (`all`, `none`, or a comma list in canonical engine order) — the
    /// output of [`EngineRegistry::fingerprint`], so equivalent selections
    /// share a cache key.
    pub engines: String,
    /// Resource ceilings enforced by admission control and the governed
    /// seams.
    pub budget: Budget,
    /// Refuse instead of stepping down the degradation ladder.
    pub no_degrade: bool,
    /// Curve engines of the validation sweep: the size rule (default;
    /// the materialized engine up to `CROSS_CHECK_CAP` events, the
    /// sharded engine above) or the materialized engine for every trace.
    pub curve_strategy: CurveStrategy,
    /// One-shot injected fault (testing). Requests carrying a fault
    /// bypass the result cache entirely: the point is to exercise the
    /// pipeline, and their typed errors must never be masked by a cached
    /// success.
    pub inject: Option<Fault>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            params_override: Vec::new(),
            stmt_override: None,
            s_offsets: iolb_bench::sweep::dense_s_offsets(),
            no_tightness: false,
            derive_only: false,
            engines: "all".to_string(),
            budget: Budget::unlimited(),
            no_degrade: false,
            curve_strategy: CurveStrategy::default(),
            inject: None,
        }
    }
}

/// Option keys that are presence-only flags on a command line: `--KEY`
/// alone sets them. Every other key takes the next argument as its value.
pub const FLAG_KEYS: &[&str] = &["no-tightness", "derive-only", "no-degrade"];

/// Parses one `NAME=INT` list entry of a `params` value.
fn parse_param_entry(kv: &str) -> Result<(String, i64), String> {
    let (k, val) = kv
        .split_once('=')
        .ok_or_else(|| format!("bad params entry `{kv}` (want NAME=INT)"))?;
    let val: i64 = val
        .trim()
        .parse()
        .map_err(|_| format!("bad integer in params entry `{kv}`"))?;
    Ok((k.trim().to_string(), val))
}

fn parse_ceiling(key: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("bad {key} value (want a non-negative integer)"))
}

/// Truthiness of a boolean option value: flags are set by presence, so
/// the empty string counts as true.
fn parse_flag(key: &str, value: &str) -> Result<bool, String> {
    match value.trim() {
        "" | "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("bad {key} value `{other}` (want 1/0/true/false)")),
    }
}

impl AnalysisOptions {
    /// Applies one `key = value` option pair. The keys are the CLI flag
    /// names without the `--` prefix, so command-line flags and the typed
    /// request body drive the same switchboard:
    ///
    /// `params`, `stmt`, `s-grid`, `engines`, `no-tightness`,
    /// `derive-only`, `max-instances`, `max-cdag-nodes`, `max-cdag-edges`,
    /// `max-trace`, `max-arena-bytes`, `max-work`, `deadline-ms`,
    /// `no-degrade`, `curve-strategy`, `inject`.
    ///
    /// # Errors
    /// Human-readable diagnostic on unknown keys or malformed values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "params" => {
                for kv in value.split(',') {
                    self.params_override.push(parse_param_entry(kv)?);
                }
            }
            "stmt" => self.stmt_override = Some(value.trim().to_string()),
            "s-grid" => {
                self.s_offsets = match value.trim() {
                    "dense" => iolb_bench::sweep::dense_s_offsets(),
                    "coarse" => iolb_bench::sweep::coarse_s_offsets(),
                    list => list
                        .split(',')
                        .map(|x| x.trim().parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("bad s-grid list `{value}`"))?,
                };
                if self.s_offsets.is_empty() {
                    return Err("s-grid needs at least one offset".to_string());
                }
            }
            "engines" => self.engines = EngineRegistry::select(value)?.fingerprint(),
            "no-tightness" => self.no_tightness = parse_flag(key, value)?,
            "derive-only" => self.derive_only = parse_flag(key, value)?,
            "no-degrade" => self.no_degrade = parse_flag(key, value)?,
            "curve-strategy" => {
                self.curve_strategy = match value.trim() {
                    "streaming" => CurveStrategy::Streaming,
                    "materialized" => CurveStrategy::Materialized,
                    other => {
                        return Err(format!(
                            "bad curve-strategy `{other}` (want streaming|materialized)"
                        ))
                    }
                };
            }
            "max-instances" => self.budget.max_instances = parse_ceiling(key, value)?,
            "max-cdag-nodes" => self.budget.max_cdag_nodes = parse_ceiling(key, value)?,
            "max-cdag-edges" => self.budget.max_cdag_edges = parse_ceiling(key, value)?,
            "max-trace" => self.budget.max_trace_len = parse_ceiling(key, value)?,
            "max-arena-bytes" => self.budget.max_arena_bytes = parse_ceiling(key, value)?,
            "max-work" => self.budget.max_work = parse_ceiling(key, value)?,
            "deadline-ms" => self.budget.deadline_ms = parse_ceiling(key, value)?,
            "inject" => {
                self.inject = Some(Fault::parse(value.trim()).ok_or_else(|| {
                    format!(
                        "bad inject spec `{value}` (want panic|oom|deadline, \
                         optionally @admission|instances|cdag_fill|lru_pass|opt_pass|tuner|\
                         store_append|store_flush|store_compact|store_recover)"
                    )
                })?);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        Ok(())
    }

    /// Applies one command-line flag through [`set`](AnalysisOptions::set):
    /// `key` is the flag without its `--`; a presence flag ([`FLAG_KEYS`])
    /// stands alone, every other key takes the next argument as its value.
    ///
    /// # Errors
    /// A missing value, or the switchboard's diagnostic.
    pub fn set_flag<'a>(
        &mut self,
        key: &str,
        args: &mut impl Iterator<Item = &'a String>,
    ) -> Result<(), String> {
        let value = if FLAG_KEYS.contains(&key) {
            ""
        } else {
            args.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .as_str()
        };
        self.set(key, value)
    }

    /// The engine registry this request selected. The stored spec is
    /// already canonical (validated by [`set`](AnalysisOptions::set)), so
    /// this cannot fail on options that went through the switchboard.
    ///
    /// # Errors
    /// Human-readable diagnostic when a hand-constructed spec is invalid.
    pub fn registry(&self) -> Result<EngineRegistry, String> {
        EngineRegistry::select(&self.engines)
    }

    /// Canonical cache-key half for these options: every field that can
    /// change the analysis result, rendered in a fixed order. Parameter
    /// overrides are deduplicated (the first entry wins, matching the
    /// resolution order) and sorted, so permuted but equivalent requests
    /// share a key.
    pub fn fingerprint(&self) -> String {
        let mut resolved: Vec<(String, i64)> = Vec::new();
        for (n, v) in &self.params_override {
            if !resolved.iter().any(|(rn, _)| rn == n) {
                resolved.push((n.clone(), *v));
            }
        }
        resolved.sort();
        let params: Vec<String> = resolved.iter().map(|(n, v)| format!("{n}={v}")).collect();
        let grid: Vec<String> = self.s_offsets.iter().map(|o| o.to_string()).collect();
        let b = &self.budget;
        format!(
            "params={};stmt={};grid={};engines={};tight={};derive={};nodeg={};curve={};\
             budget={},{},{},{},{},{},{}",
            params.join(","),
            self.stmt_override.as_deref().unwrap_or(""),
            grid.join(","),
            self.engines,
            u8::from(!self.no_tightness),
            u8::from(self.derive_only),
            u8::from(self.no_degrade),
            match self.curve_strategy {
                CurveStrategy::Streaming => "streaming",
                CurveStrategy::Materialized => "materialized",
            },
            b.max_instances,
            b.max_cdag_nodes,
            b.max_cdag_edges,
            b.max_trace_len,
            b.max_arena_bytes,
            b.max_work,
            b.deadline_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::*;

    #[test]
    fn set_covers_every_key_and_rejects_strangers() {
        let mut o = AnalysisOptions::default();
        o.set("params", "M=8,N=16").unwrap();
        o.set("stmt", "SU").unwrap();
        o.set("s-grid", "0, 4, 16").unwrap();
        o.set("engines", "spectral,input-floor").unwrap();
        o.set("no-tightness", "").unwrap();
        o.set("derive-only", "true").unwrap();
        o.set("no-degrade", "1").unwrap();
        o.set("max-trace", "1000").unwrap();
        o.set("deadline-ms", "250").unwrap();
        o.set("curve-strategy", "materialized").unwrap();
        o.set("inject", "oom@cdag_fill").unwrap();
        assert_eq!(
            o.params_override,
            vec![("M".to_string(), 8), ("N".to_string(), 16)]
        );
        assert_eq!(o.stmt_override.as_deref(), Some("SU"));
        assert_eq!(o.s_offsets, vec![0, 4, 16]);
        // Stored canonically, so permuted selections share a fingerprint.
        assert_eq!(o.engines, "input-floor,spectral");
        assert_eq!(
            o.registry().unwrap().names(),
            vec!["input-floor", "spectral"]
        );
        assert!(o.no_tightness && o.derive_only && o.no_degrade);
        assert_eq!(o.curve_strategy, CurveStrategy::Materialized);
        assert_eq!(o.budget.max_trace_len, 1000);
        assert_eq!(o.budget.deadline_ms, 250);
        assert!(o.inject.is_some());

        let mut o = AnalysisOptions::default();
        assert!(o.set("params", "M").is_err());
        assert!(o.set("s-grid", "a,b").is_err());
        assert!(o.set("s-grid", "").is_err());
        assert!(o.set("max-work", "-3").is_err());
        assert!(o.set("curve-strategy", "frobnicate").is_err());
        assert!(o.set("engines", "frobnicate").is_err());
        assert!(o.set("inject", "bogus").is_err());
        assert!(o.set("frobnicate", "1").is_err());
    }

    #[test]
    fn fingerprint_is_order_insensitive_in_params_and_sensitive_to_options() {
        let mut a = AnalysisOptions::default();
        a.set("params", "N=8,M=4").unwrap();
        let mut b = AnalysisOptions::default();
        b.set("params", "M=4").unwrap();
        b.set("params", "N=8").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());

        // The first duplicate wins, matching resolution order.
        let mut c = AnalysisOptions::default();
        c.set("params", "M=4,M=9,N=8").unwrap();
        assert_eq!(c.fingerprint(), a.fingerprint());

        let mut d = a.clone();
        d.no_tightness = true;
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = a.clone();
        e.budget.max_work = 10;
        assert_ne!(a.fingerprint(), e.fingerprint());
        let mut f = a.clone();
        f.set("engines", "none").unwrap();
        assert_ne!(a.fingerprint(), f.fingerprint());
        let mut h = a.clone();
        h.set("curve-strategy", "materialized").unwrap();
        assert_ne!(a.fingerprint(), h.fingerprint());
        // `all` spelled out collapses to the default selection.
        let mut g = a.clone();
        g.set("engines", "input-floor,visit,spectral").unwrap();
        assert_eq!(a.fingerprint(), g.fingerprint());
    }
}
