//! The benchmark's traced run: per-layer attribution of one workload.
//!
//! Reads an op plan written by `perfbench/run.py` (the same seeded ops the
//! end-to-end run issues) and executes it in process against the library
//! stage functions, recording a span around every call into a layer. Spans
//! live in memory and are written out (`--spans FILE`, one TSV line each)
//! when the run ends; the last stdout line is one JSON object of per-layer
//! metrics.
//!
//! Plan lines (tab separated; `pass` lines mark whole-pass boundaries, and
//! the run stops at the first boundary after `--seconds`):
//!
//! ```text
//! cli    KERNEL_FILE  PARAMS|-  TIGHTNESS(0|1)
//! serve  hit|miss     KERNEL_FILE  S_GRID_CSV
//! pass
//! ```
//!
//! Every op runs twice: once untraced through the library's single entry
//! point (`analyze_uncached` / `Pipeline::serve`) and once traced, stage by
//! stage. Their mean difference is the tracing overhead. A `cli` op first
//! runs as one `iolb` process (`--iolb`), as the end-to-end run issues it;
//! its latency minus the untraced in-process time, measured back to back so
//! that the host's drifting speed barely enters, is the CLI's own overhead
//! (spawn, file I/O, rendering). After a traced
//! `cli` op the sweep's sub-layers (CDAG build, trace drain, graph engines,
//! LRU/OPT curve passes, materialized cross-check) are called again on the
//! same inputs and attributed to the sweep span as its children, so the
//! sweep's self time is what they do not explain. A layer's self time is
//! its span's duration minus its children's; per op, the self times of all
//! spans sum to the root span's duration, and the root's own self time is
//! the unattributed remainder.

use iolb_bench::sweep::{SweepReport, CROSS_CHECK_CAP};
use iolb_cdag::try_build_cdag;
use iolb_core::govern::{AnalysisError, CancelToken};
use iolb_core::BoundProvenance;
use iolb_memsim::{ChunkedTrace, CurveEngine, ShardedCurveEngine, DEFAULT_CHUNK_LEN};
use iolb_service::pipeline::{
    admission_stage, analyze_uncached, certify_stage, derive_stage, parse_stage, resolve_params,
    sweep_stage, tightness_stage,
};
use iolb_service::{
    canonicalize, outcome_body, AnalysisOptions, Pipeline, ReportStore, StoreKey,
    DEFAULT_REPORT_CAPACITY,
};
use iolb_symbolic::Var;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        self.enter_under(name, parent)
    }

    /// Opens a span under an explicit parent (decomposition spans are
    /// attributed to the sweep span after it has closed).
    fn enter_under(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` inside a span attributed to `parent`.
    fn child_of<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter_under(name, Some(parent));
        let out = f();
        self.exit(id);
        out
    }
}

/// Per-run accumulators (totals over ops; reported as per-op means).
#[derive(Default)]
struct Totals {
    counts: BTreeMap<&'static str, f64>,
    /// Untraced in-process op time per op, ns.
    untraced_ns: Vec<u64>,
    /// Per `cli` op: the `iolb` process's latency minus the untraced
    /// in-process time of the same op, run back to back, ns.
    cli_overhead_ns: Vec<i128>,
    /// Traced op time per op, ns.
    traced_ns: Vec<u64>,
}

impl Totals {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }
}

fn err(e: AnalysisError) -> String {
    e.to_string()
}

/// Options of a `cli` op, as the `iolb` flags of the end-to-end run set
/// them.
fn cli_options(params: &str, tightness: bool) -> Result<AnalysisOptions, String> {
    let mut opts = AnalysisOptions::default();
    if params != "-" {
        opts.set("params", params)?;
    }
    if !tightness {
        opts.set("no-tightness", "1")?;
    }
    Ok(opts)
}

/// Options of a `serve` op, as the end-to-end request body sets them.
fn serve_options(grid: &str) -> Result<AnalysisOptions, String> {
    let mut opts = AnalysisOptions::default();
    opts.set("no-tightness", "1")?;
    opts.set("s-grid", grid)?;
    Ok(opts)
}

/// Runs the op as the end-to-end benchmark does, as one `iolb` process
/// (the environment, including `RAYON_NUM_THREADS`, is inherited).
/// Returns its latency, ns.
fn iolb_process(
    iolb: &Path,
    out_dir: &Path,
    kernel: &str,
    params: &str,
    tightness: bool,
) -> Result<u64, String> {
    let mut cmd = Command::new(iolb);
    cmd.arg(kernel)
        .arg("--json")
        .arg(out_dir.join("report.json"));
    if params != "-" {
        cmd.args(["--params", params]);
    }
    if tightness {
        cmd.arg("--tightness-json")
            .arg(out_dir.join("tightness.json"));
    } else {
        cmd.arg("--no-tightness");
    }
    let t = Instant::now();
    let status = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", iolb.display()))?;
    let ns = t.elapsed().as_nanos() as u64;
    if !status.success() {
        return Err(format!("iolb {kernel} {params} exited with {status}"));
    }
    Ok(ns)
}

/// Drains a chunked trace into one vector (the `cdag.trace` layer).
fn drain(source: &impl ChunkedTrace) -> Vec<u64> {
    let len = source.len();
    let mut out = vec![0u64; len as usize];
    let mut start = 0u64;
    for chunk in out.chunks_mut(DEFAULT_CHUNK_LEN) {
        source.fill(start, chunk);
        start += chunk.len() as u64;
    }
    out
}

/// One traced `cli` op: the stages `analyze_uncached` chains, each in its
/// own span, then the sweep decomposition. Returns the sweep report for
/// the provenance counts.
fn traced_cli(
    tr: &mut Tracer,
    tot: &mut Totals,
    src: &str,
    opts: &AnalysisOptions,
) -> Result<SweepReport, String> {
    let token = CancelToken::unlimited();
    let root = tr.enter("op");
    let kernel = tr.span("ir.parse", || parse_stage(src)).map_err(err)?;
    let params = resolve_params(&kernel, &opts.params_override).map_err(err)?;
    let program = &kernel.program;
    tr.span("ir.admission", || {
        admission_stage(program, &params, opts, &token)
    })
    .map_err(err)?;
    let instances = tr
        .span("ir.certify", || certify_stage(program, &params))
        .map_err(err)?;
    let derived = tr
        .span("core.derive", || derive_stage(&kernel, &params, None))
        .map_err(err)?;
    let registry = opts.registry()?;
    let sweep_id = tr.enter("bench.sweep");
    let report = sweep_stage(
        &program.name,
        src,
        &derived.stmt_name,
        &params,
        derived.dsl_split.clone(),
        &opts.s_offsets,
        &opts.budget,
        &token,
        &registry,
        opts.curve_strategy,
    )
    .map_err(err)?;
    tr.exit(sweep_id);
    if !opts.no_tightness {
        let named: Vec<(String, i64)> =
            program.params.iter().cloned().zip(params.clone()).collect();
        let mut env: Vec<(Var, i128)> = named
            .iter()
            .map(|(n, v)| (Var::new(n), *v as i128))
            .collect();
        if let Some(b) = &derived.applied_split {
            env.push((b.var, b.eval(&named)));
        }
        let kt = tr
            .span("bench.tightness", || {
                tightness_stage(
                    &program.name,
                    src,
                    &kernel,
                    &params,
                    env,
                    &derived,
                    &opts.s_offsets,
                    &opts.budget,
                    &token,
                )
            })
            .map_err(err)?;
        tot.add("tightness_points", kt.points.len() as f64);
    }
    tr.exit(root);
    tot.add("certified_instances", instances as f64);

    // Sweep decomposition on the same inputs, attributed to the sweep span.
    let cdag = tr
        .child_of(sweep_id, "cdag.build", || {
            try_build_cdag(program, &params, &opts.budget, &token)
        })
        .map_err(err)?;
    let trace = tr.child_of(sweep_id, "cdag.trace", || {
        drain(&cdag.program_order_trace())
    });
    let min_s = cdag.max_in_degree() + 1;
    let s_values: Vec<usize> = opts.s_offsets.iter().map(|&o| min_s + o).collect();
    let horizon = s_values.iter().copied().max().unwrap_or(1);
    tr.child_of(sweep_id, "core.engines", || {
        registry.evaluate(&cdag, &s_values)
    });
    let sharded = ShardedCurveEngine::new();
    tr.child_of(sweep_id, "memsim.lru", || {
        sharded.try_lru(&trace, horizon, &token)
    })
    .map_err(err)?;
    tr.child_of(sweep_id, "memsim.opt", || {
        sharded.try_opt(&trace, horizon, &token)
    })
    .map_err(err)?;
    if trace.len() as u64 <= CROSS_CHECK_CAP {
        tr.child_of(sweep_id, "memsim.crosscheck", || {
            let mut packed = Vec::new();
            cdag.packed_program_order_trace(&mut packed);
            let mut engine = CurveEngine::new();
            engine.try_lru_packed(&packed, horizon, &token)?;
            engine.try_opt_packed(&packed, horizon, &token)
        })
        .map_err(err)?;
    }
    tot.add("nodes", cdag.len() as f64);
    tot.add("edges", cdag.num_edges() as f64);
    tot.add("trace_events", trace.len() as f64);
    Ok(report)
}

/// A fresh store directory (cleared first).
fn fresh_dir(path: &Path) -> Result<ReportStore, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ReportStore::open(path).map_err(err)
}

struct ServeState {
    traced: Pipeline,
    untraced: Pipeline,
    /// Second store the decomposition appends to.
    side: ReportStore,
}

/// One traced `serve` op. Returns whether the traced pipeline answered
/// from a cache layer.
fn traced_serve(
    tr: &mut Tracer,
    tot: &mut Totals,
    st: &ServeState,
    hit: bool,
    src: &str,
    opts: &AnalysisOptions,
) -> Result<bool, String> {
    let root = tr.enter("op");
    let name = if hit { "service.hit" } else { "service.miss" };
    let id = tr.enter(name);
    let served = st.traced.serve(src, opts).map_err(err)?;
    tr.exit(id);
    tr.exit(root);
    if served.cached() {
        let outcome = st.traced.analyze(src, opts).map_err(err)?.outcome;
        let body = tr.child_of(id, "service.render", || outcome_body(&outcome));
        if body != *served.body {
            return Err("re-rendered hit body differs from the served body".to_string());
        }
    } else {
        let (_, canon_hash) = canonicalize(src).map_err(err)?;
        let key = StoreKey {
            canon_hash,
            options_fp: opts.fingerprint(),
            engines_fp: opts.engines.clone(),
        };
        let token = CancelToken::unlimited();
        tr.child_of(id, "service.store_append", || {
            st.side.append(&key, &served.body, &token)
        })
        .map_err(err)?;
        tot.add("store_appends", 1.0);
    }
    Ok(served.cached())
}

#[derive(Default)]
struct Args {
    plan: PathBuf,
    spans: PathBuf,
    store: PathBuf,
    iolb: PathBuf,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--plan" => a.plan = v.into(),
            "--spans" => a.spans = v.into(),
            "--store" => a.store = v.into(),
            "--iolb" => a.iolb = v.into(),
            "--seconds" => a.seconds = v.parse().map_err(|_| "bad --seconds".to_string())?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if [&a.plan, &a.spans, &a.store, &a.iolb]
        .iter()
        .any(|p| p.as_os_str().is_empty())
    {
        return Err(
            "usage: perfbench-trace --plan FILE --spans FILE --store DIR \
                    --iolb BINARY --seconds N"
                .into(),
        );
    }
    Ok(a)
}

/// Per-name self-time totals (ns) and the per-op identity check. A
/// decomposition child may outlast its parent's own span (it re-runs the
/// work on its own), so self times are signed.
fn self_times(spans: &[Span]) -> Result<BTreeMap<&'static str, i128>, String> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, i128> = BTreeMap::new();
    let mut per_op: BTreeMap<u32, (i128, i128)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur_ns() as i128 - child_ns[i] as i128;
        let name = if s.parent.is_none() {
            "unattributed"
        } else {
            s.name
        };
        *by_name.entry(name).or_insert(0) += self_ns;
        let e = per_op.entry(s.op).or_insert((0, 0));
        e.0 += self_ns;
        if s.parent.is_none() {
            e.1 += s.dur_ns() as i128;
        }
    }
    for (op, (sum_self, root)) in per_op {
        if sum_self != root {
            return Err(format!(
                "op {op}: self times sum to {sum_self} ns, op took {root} ns"
            ));
        }
    }
    Ok(by_name)
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.store).map_err(|e| format!("{}: {e}", args.store.display()))?;
    let plan =
        std::fs::read_to_string(&args.plan).map_err(|e| format!("{}: {e}", args.plan.display()))?;
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    let mut tr = Tracer::new();
    let mut tot = Totals::default();
    let mut serve: Option<ServeState> = None;
    let (mut rows, mut engine_wins, mut hourglass_wins) = (0usize, 0usize, 0usize);
    let (mut requests, mut hits) = (0usize, 0usize);
    let started = Instant::now();
    for line in plan.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if f[0] == "pass" {
            if started.elapsed().as_secs_f64() >= args.seconds && tr.op > 0 {
                break;
            }
            continue;
        }
        let path = if f[0] == "cli" { f[1] } else { f[2] };
        if !sources.contains_key(path) {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            sources.insert(path.to_string(), text);
        }
        let src = &sources[path];
        let untraced_ns = match f[0] {
            "cli" => {
                let opts = cli_options(f[2], f[3] == "1")?;
                let process = iolb_process(&args.iolb, &args.store, f[1], f[2], f[3] == "1")?;
                let t = Instant::now();
                analyze_uncached(src, &opts, &CancelToken::unlimited()).map_err(err)?;
                let untraced = t.elapsed().as_nanos() as u64;
                tot.cli_overhead_ns
                    .push(i128::from(process) - i128::from(untraced));
                let report = traced_cli(&mut tr, &mut tot, src, &opts)?;
                rows += report.rows.len();
                for r in &report.rows {
                    match r.lb_provenance {
                        BoundProvenance::Hourglass => hourglass_wins += 1,
                        BoundProvenance::InputFloor
                        | BoundProvenance::Visit
                        | BoundProvenance::Spectral => engine_wins += 1,
                        BoundProvenance::Classical => {}
                    }
                }
                untraced
            }
            "serve" => {
                if serve.is_none() {
                    serve = Some(ServeState {
                        traced: Pipeline::with_store(
                            DEFAULT_REPORT_CAPACITY,
                            fresh_dir(&args.store.join("traced"))?,
                        ),
                        untraced: Pipeline::with_store(
                            DEFAULT_REPORT_CAPACITY,
                            fresh_dir(&args.store.join("untraced"))?,
                        ),
                        side: fresh_dir(&args.store.join("side"))?,
                    });
                }
                let st = serve.as_ref().ok_or("serve state")?;
                let opts = serve_options(f[3])?;
                let t = Instant::now();
                st.untraced.serve(src, &opts).map_err(err)?;
                let untraced = t.elapsed().as_nanos() as u64;
                let want_hit = f[1] == "hit";
                let cached = traced_serve(&mut tr, &mut tot, st, want_hit, src, &opts)?;
                if cached != want_hit {
                    return Err(format!("plan expected {} for {line}", f[1]));
                }
                requests += 1;
                hits += usize::from(cached);
                untraced
            }
            other => return Err(format!("bad plan line kind `{other}`")),
        };
        let root = tr
            .spans
            .iter()
            .rev()
            .find(|s| s.parent.is_none())
            .ok_or("no root span")?;
        tot.traced_ns.push(root.dur_ns());
        tot.untraced_ns.push(untraced_ns);
        tr.op += 1;
    }
    let ops = tr.op as f64;
    if ops == 0.0 {
        return Err("plan held no ops".to_string());
    }
    let self_ns = self_times(&tr.spans)?;
    write_spans(&args.spans, &tr.spans)?;

    let per_op_ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops;
    let count = |k: &str| tot.counts.get(k).copied().unwrap_or(0.0);
    let ns_per_access = |name: &str| {
        let events = count("trace_events");
        if events == 0.0 {
            0.0
        } else {
            self_ns.get(name).copied().unwrap_or(0) as f64 / events
        }
    };
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let traced_total: u64 = tot.traced_ns.iter().sum();
    let untraced_total: u64 = tot.untraced_ns.iter().sum();
    let cli_overhead_ms = if tot.cli_overhead_ns.is_empty() {
        0.0
    } else {
        tot.cli_overhead_ns.iter().sum::<i128>() as f64 / 1e6 / tot.cli_overhead_ns.len() as f64
    };
    let count_hit_spans = |name: &str| tr.spans.iter().filter(|s| s.name == name).count() as f64;
    // Mean full `service.hit` span (self + render) — what the daemon adds
    // HTTP on top of.
    let hit_spans = count_hit_spans("service.hit");
    let hit_span_ms = if hit_spans == 0.0 {
        0.0
    } else {
        tr.spans
            .iter()
            .filter(|s| s.name == "service.hit")
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            / 1e6
            / hit_spans
    };

    let metrics: Vec<(&str, f64)> = vec![
        ("ir.parse_ms", per_op_ms("ir.parse")),
        ("ir.admission_ms", per_op_ms("ir.admission")),
        ("ir.certify_ms", per_op_ms("ir.certify")),
        ("ir.certified_instances", count("certified_instances") / ops),
        ("core.derive_ms", per_op_ms("core.derive")),
        ("core.engines_ms", per_op_ms("core.engines")),
        ("core.engine_win_ratio", ratio(engine_wins, rows)),
        ("core.hourglass_win_ratio", ratio(hourglass_wins, rows)),
        ("cdag.build_ms", per_op_ms("cdag.build")),
        ("cdag.nodes", count("nodes") / ops),
        ("cdag.edges", count("edges") / ops),
        ("cdag.trace_ms", per_op_ms("cdag.trace")),
        ("cdag.trace_events", count("trace_events") / ops),
        ("memsim.lru_ns_per_access", ns_per_access("memsim.lru")),
        ("memsim.opt_ns_per_access", ns_per_access("memsim.opt")),
        ("memsim.crosscheck_ms", per_op_ms("memsim.crosscheck")),
        ("bench.sweep_ms", per_op_ms("bench.sweep")),
        ("bench.tightness_ms", per_op_ms("bench.tightness")),
        ("bench.tightness_points", count("tightness_points") / ops),
        ("service.hit_ms", per_op_ms("service.hit")),
        ("service.render_ms", per_op_ms("service.render")),
        ("service.miss_ms", per_op_ms("service.miss")),
        ("service.store_append_ms", per_op_ms("service.store_append")),
        ("service.store_appends", count("store_appends")),
        ("service.hit_ratio", ratio(hits, requests)),
        ("cli.overhead_ms", cli_overhead_ms),
        ("trace.op_ms", traced_total as f64 / 1e6 / ops),
        ("trace.unattributed_ms", per_op_ms("unattributed")),
        (
            "trace.overhead_ms",
            (traced_total as f64 - untraced_total as f64) / 1e6 / ops,
        ),
        ("trace.ops", ops),
    ];
    let mut out = String::from("{\"metrics\": {");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": {v}");
    }
    let _ = write!(out, "}}, \"hit_span_ms\": {hit_span_ms}}}");
    Ok(out)
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    match run() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
