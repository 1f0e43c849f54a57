//! Seeded random generation of *valid* `.iolb` programs.
//!
//! The generator emits a [`CaseSpec`] — a lightweight, shrinkable AST of
//! one kernel — and renders it to DSL text. Validity is established by
//! construction, not by filtering:
//!
//! * every loop variable ranges inside `[0, P)` for its *bounding
//!   parameter* `P` (base loops `0..P`, interior loops `1..P-1`,
//!   triangular loops `outer+1..P`, windowed loops `outer..min(P,
//!   outer+2)`, plus strided and reversed variants), so
//! * every array subscript — a dim `v`, its reversal `P - 1 - v`, a
//!   slack-bounded offset `v ± k`, or a small constant — provably lands
//!   inside the array extent for every instance, at every parameter value
//!   the generator (or the shrinker) can choose, and
//! * `schedule { tile … }` directives only name unit-step forward loops
//!   (the parser's tileability rule).
//!
//! Parameter defaults are never below [`MIN_PARAM`], which is what makes
//! constant subscripts `0..=2` safe. All randomness flows from the
//! caller's `u64` seed through the vendored deterministic `StdRng` —
//! never from wall-clock or ambient entropy — so every case is
//! reproducible from `(seed, case index)` alone.

use rand::prelude::*;
use std::fmt::Write as _;

/// Smallest parameter default the generator (and the shrinker) may use.
/// Constant subscripts are drawn from `0..MIN_PARAM`, so they stay in
/// range for every extent.
pub const MIN_PARAM: i64 = 3;

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum loop-nest depth, clamped to `1..=8`: a depth-`d` nest
    /// enumerates up to `6^d` instances at the largest parameter default
    /// (6), already about 1.7 M per statement at depth 8; deeper cases
    /// would dominate a fuzz run's time.
    pub max_dims: u32,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { max_dims: 4 }
    }
}

/// One generated kernel, in shrinkable form. Bounds and subscripts are
/// kept as rendered DSL text: shrink mutations only ever drop whole
/// statements/reads/directives or pin loops to a single iteration, both
/// of which preserve the in-range-by-construction invariant.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Kernel name (`fz<seed>_<index>`).
    pub name: String,
    /// `(parameter name, default value)`, in declaration order.
    pub params: Vec<(String, i64)>,
    /// Array declarations.
    pub arrays: Vec<ArraySpec>,
    /// `analyze` directive target, when present.
    pub analyze: Option<String>,
    /// `schedule { tile … }` directives: `(loop name, explicit size)`.
    pub tiles: Vec<(String, Option<i64>)>,
    /// Loop-tree body.
    pub body: Vec<StepSpec>,
}

/// One declared array (empty extents = scalar).
#[derive(Debug, Clone)]
pub struct ArraySpec {
    /// Array name.
    pub name: String,
    /// Extents as indices into `CaseSpec::params`.
    pub extents: Vec<usize>,
}

/// One schedule step of the spec tree.
#[derive(Debug, Clone)]
pub enum StepSpec {
    /// A loop with rendered bounds.
    Loop(LoopSpec),
    /// A statement with rendered accesses.
    Stmt(StmtSpec),
}

/// A loop of the spec tree.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Loop-variable name (unique per kernel).
    pub var: String,
    /// Rendered lower bound (`"0"`, `"i0 + 1"`, …).
    pub lo: String,
    /// Rendered exclusive upper bound (`"N"`, `"min(N, i0 + 2)"`, …).
    pub hi: String,
    /// Step (1 or 2).
    pub step: i64,
    /// Reverse iteration.
    pub reverse: bool,
    /// Pinned to (at most) its first iteration by the shrinker.
    pub pinned: bool,
    /// Body steps.
    pub body: Vec<StepSpec>,
}

impl LoopSpec {
    /// Whether `schedule { tile … }` may name this loop.
    pub fn tileable(&self) -> bool {
        self.step == 1 && !self.reverse
    }

    /// Pins the loop to at most one iteration — its *first* — without
    /// moving the lower bound: `[lo, min(hi…, lo + 1))`. Keeping `lo`
    /// preserves the in-range-by-construction invariant (subscripts like
    /// `v − 1` under an interior loop rely on the loop's lower slack, and
    /// an originally-empty loop stays empty); the extra `min` bound is
    /// plain grammar. Returns false when already pinned.
    pub fn pin(&mut self) -> bool {
        if self.pinned {
            return false;
        }
        let inner = self
            .hi
            .strip_prefix("min(")
            .and_then(|rest| rest.strip_suffix(")"))
            .unwrap_or(&self.hi);
        self.hi = format!("min({inner}, {} + 1)", self.lo);
        self.step = 1;
        self.reverse = false;
        self.pinned = true;
        true
    }
}

/// A statement of the spec tree.
#[derive(Debug, Clone)]
pub struct StmtSpec {
    /// Statement name (unique per kernel).
    pub name: String,
    /// Rendered write accesses (at least one).
    pub writes: Vec<String>,
    /// Rendered read accesses.
    pub reads: Vec<String>,
}

impl CaseSpec {
    /// Total statements in the spec tree.
    pub fn num_stmts(&self) -> usize {
        fn count(steps: &[StepSpec]) -> usize {
            steps
                .iter()
                .map(|s| match s {
                    StepSpec::Stmt(_) => 1,
                    StepSpec::Loop(l) => count(&l.body),
                })
                .sum()
        }
        count(&self.body)
    }

    /// Renders the spec as parseable `.iolb` source.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let params: Vec<&str> = self.params.iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(out, "kernel {}({}) {{", self.name, params.join(", "));
        for a in &self.arrays {
            if a.extents.is_empty() {
                let _ = writeln!(out, "  scalar {};", a.name);
            } else {
                let ext: String = a
                    .extents
                    .iter()
                    .map(|&p| format!("[{}]", self.params[p].0))
                    .collect();
                let _ = writeln!(out, "  array {}{ext};", a.name);
            }
        }
        if let Some(s) = &self.analyze {
            let _ = writeln!(out, "  analyze {s};");
        }
        let ds: Vec<String> = self
            .params
            .iter()
            .map(|(n, v)| format!("{n} = {v}"))
            .collect();
        let _ = writeln!(out, "  default {};", ds.join(", "));
        if !self.tiles.is_empty() {
            let _ = writeln!(out, "  schedule {{");
            for (name, size) in &self.tiles {
                match size {
                    Some(s) => {
                        let _ = writeln!(out, "    tile {name} {s};");
                    }
                    None => {
                        let _ = writeln!(out, "    tile {name};");
                    }
                }
            }
            let _ = writeln!(out, "  }}");
        }
        out.push('\n');
        for step in &self.body {
            render_step(step, 1, &mut out);
        }
        out.push_str("}\n");
        out
    }
}

fn render_step(step: &StepSpec, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match step {
        StepSpec::Stmt(s) => {
            let _ = writeln!(
                out,
                "{pad}{}: {} = op({});",
                s.name,
                s.writes.join(", "),
                s.reads.join(", ")
            );
        }
        StepSpec::Loop(l) => {
            let rev = if l.reverse { "reverse " } else { "" };
            let step_s = if l.step == 1 {
                String::new()
            } else {
                format!(" step {}", l.step)
            };
            let _ = writeln!(
                out,
                "{pad}for {} in {rev}{}..{}{step_s} {{",
                l.var, l.lo, l.hi
            );
            for s in &l.body {
                render_step(s, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

/// One loop in scope during generation: its variable, bounding parameter,
/// and slack — the variable's value provably sits in
/// `[slack_lo, P - 1 - slack_hi]`.
#[derive(Debug, Clone)]
struct ScopeLoop {
    var: String,
    param: usize,
    slack_lo: i64,
    slack_hi: i64,
}

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    params: Vec<(String, i64)>,
    arrays: Vec<ArraySpec>,
    scope: Vec<ScopeLoop>,
    stmt_ct: u32,
    loop_ct: u32,
    /// `(name, depth)` per emitted statement — the analyze pick.
    stmt_meta: Vec<(String, usize)>,
    /// Tileable loop names in emission order.
    tileable: Vec<String>,
}

/// Derives the per-case RNG seed from the run seed and the case index
/// (SplitMix64 over the pair, so neighbouring cases share no stream).
pub fn case_seed(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Generates case `index` of run `seed` under `cfg`. Fully deterministic:
/// the same `(seed, index, cfg)` always produces the same spec.
pub fn generate_case(seed: u64, index: u64, cfg: &GenConfig) -> CaseSpec {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(case_seed(seed, index)),
        cfg: GenConfig {
            max_dims: cfg.max_dims.clamp(1, 8),
        },
        params: Vec::new(),
        arrays: Vec::new(),
        scope: Vec::new(),
        stmt_ct: 0,
        loop_ct: 0,
        stmt_meta: Vec::new(),
        tileable: Vec::new(),
    };

    // Parameters: N always, M half the time. Defaults stay small — the
    // oracle runs the full pipeline per case.
    g.params
        .push(("N".to_string(), g.rng.gen_range(MIN_PARAM..=6)));
    if g.rng.gen_bool(0.5) {
        g.params
            .push(("M".to_string(), g.rng.gen_range(MIN_PARAM..=6)));
    }

    // Arrays: 2–4 declarations mixing 2-D, 1-D, and scalars; at least one
    // non-scalar so statements always have an indexable target.
    let n_arrays = g.rng.gen_range(2..=4usize);
    for k in 0..n_arrays {
        let name = format!("{}", (b'A' + k as u8) as char);
        let rank = if k == 0 {
            g.rng.gen_range(1..=2usize)
        } else {
            g.rng.gen_range(0..=2usize)
        };
        let extents: Vec<usize> = (0..rank)
            .map(|_| g.rng.gen_range(0..g.params.len()))
            .collect();
        g.arrays.push(ArraySpec { name, extents });
    }

    let mut body = g.body(0);
    if g.stmt_ct == 0 {
        // Guarantee at least one statement (a kernel of pure empty loops
        // exercises nothing).
        let s = g.stmt();
        body.push(StepSpec::Stmt(s));
    }

    // analyze: usually the deepest statement (the pipeline's own fallback
    // pick), sometimes a random one, sometimes absent.
    let analyze = match g.rng.gen_range(0..10u32) {
        0..=5 => g
            .stmt_meta
            .iter()
            .max_by_key(|(_, d)| *d)
            .map(|(n, _)| n.clone()),
        6..=7 => {
            let i = g.rng.gen_range(0..g.stmt_meta.len());
            Some(g.stmt_meta[i].0.clone())
        }
        _ => None,
    };

    // schedule: tile up to two tileable loops.
    let mut tiles: Vec<(String, Option<i64>)> = Vec::new();
    let tileable = g.tileable.clone();
    for name in tileable {
        if tiles.len() >= 2 {
            break;
        }
        if g.rng.gen_bool(0.35) {
            let size = match g.rng.gen_range(0..5u32) {
                0 => Some(2),
                1 => Some(4),
                _ => None,
            };
            tiles.push((name, size));
        }
    }

    CaseSpec {
        name: format!("fz{seed}_{index}"),
        params: g.params,
        arrays: g.arrays,
        analyze,
        tiles,
        body,
    }
}

impl Gen {
    fn body(&mut self, depth: u32) -> Vec<StepSpec> {
        let items = self.rng.gen_range(1..=2u32);
        let mut out = Vec::new();
        for _ in 0..items {
            if depth < self.cfg.max_dims && self.rng.gen_bool(0.6) {
                let l = self.random_loop(depth);
                out.push(StepSpec::Loop(l));
            } else {
                let s = self.stmt();
                out.push(StepSpec::Stmt(s));
            }
        }
        out
    }

    fn random_loop(&mut self, depth: u32) -> LoopSpec {
        let var = format!("i{}", self.loop_ct);
        self.loop_ct += 1;
        let param = self.rng.gen_range(0..self.params.len());
        let pname = self.params[param].0.clone();
        // Outer loops over the same parameter enable triangular/windowed
        // shapes.
        let outer: Vec<ScopeLoop> = self
            .scope
            .iter()
            .filter(|l| l.param == param)
            .cloned()
            .collect();
        let (lo, hi, slack_lo, slack_hi) = match self.rng.gen_range(0..8u32) {
            // Interior: exercises `v - 1` / `v + 1` stencil subscripts.
            0 | 1 => ("1".to_string(), format!("{pname} - 1"), 1, 1),
            // Triangular over an outer loop of the same parameter.
            2 | 3 if !outer.is_empty() => {
                let o = &outer[self.rng.gen_range(0..outer.len())];
                (format!("{} + 1", o.var), pname.clone(), o.slack_lo + 1, 0)
            }
            // Windowed: multi-bound `min(P, o + 2)` upper bound.
            4 if !outer.is_empty() => {
                let o = &outer[self.rng.gen_range(0..outer.len())];
                (
                    o.var.clone(),
                    format!("min({pname}, {} + 2)", o.var),
                    o.slack_lo,
                    0,
                )
            }
            // Base loop 0..P.
            _ => ("0".to_string(), pname.clone(), 0, 0),
        };
        let step = if self.rng.gen_bool(0.15) { 2 } else { 1 };
        let reverse = self.rng.gen_bool(0.15);
        if step == 1 && !reverse {
            self.tileable.push(var.clone());
        }
        self.scope.push(ScopeLoop {
            var: var.clone(),
            param,
            slack_lo,
            slack_hi,
        });
        let body = self.body(depth + 1);
        self.scope.pop();
        LoopSpec {
            var,
            lo,
            hi,
            step,
            reverse,
            pinned: false,
            body,
        }
    }

    fn stmt(&mut self) -> StmtSpec {
        let name = format!("S{}", self.stmt_ct);
        self.stmt_ct += 1;
        self.stmt_meta.push((name.clone(), self.scope.len()));
        let write = self.access();
        let mut writes = vec![write.clone()];
        if self.rng.gen_bool(0.15) {
            writes.push(self.access());
        }
        let mut reads = Vec::new();
        // Update-style statements read their own write target.
        if self.rng.gen_bool(0.5) {
            reads.push(write);
        }
        for _ in 0..self.rng.gen_range(0..=2u32) {
            reads.push(self.access());
        }
        StmtSpec {
            name,
            writes,
            reads,
        }
    }

    /// One rendered access into a random array, in range by construction.
    fn access(&mut self) -> String {
        let a = self.rng.gen_range(0..self.arrays.len());
        let (name, extents) = {
            let a = &self.arrays[a];
            (a.name.clone(), a.extents.clone())
        };
        let idx: String = extents
            .iter()
            .map(|&p| format!("[{}]", self.subscript(p)))
            .collect();
        format!("{name}{idx}")
    }

    /// A subscript provably inside `[0, P)` for parameter index `p`.
    fn subscript(&mut self, p: usize) -> String {
        let dims: Vec<ScopeLoop> = self
            .scope
            .iter()
            .filter(|l| l.param == p)
            .cloned()
            .collect();
        if dims.is_empty() || self.rng.gen_bool(0.15) {
            return format!("{}", self.rng.gen_range(0..MIN_PARAM));
        }
        let d = &dims[self.rng.gen_range(0..dims.len())];
        let pname = &self.params[p].0;
        match self.rng.gen_range(0..6u32) {
            // Reversal: P - 1 - v.
            0 => format!("{pname} - 1 - {}", d.var),
            // Negative offset within the loop's lower slack.
            1 if d.slack_lo > 0 => format!("{} - 1", d.var),
            // Positive offset within the loop's upper slack.
            2 if d.slack_hi > 0 => format!("{} + 1", d.var),
            _ => d.var.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate_case(7, 3, &cfg).render();
        let b = generate_case(7, 3, &cfg).render();
        assert_eq!(a, b);
        let c = generate_case(7, 4, &cfg).render();
        assert_ne!(a, c, "distinct indices give distinct cases");
    }

    #[test]
    fn generated_cases_parse_and_certify() {
        let cfg = GenConfig::default();
        for idx in 0..40 {
            let spec = generate_case(11, idx, &cfg);
            let src = spec.render();
            let k = iolb_ir::parse_kernel(&src)
                .unwrap_or_else(|e| panic!("case {idx} does not parse: {e}\n{src}"));
            let params = k.default_params().expect("defaults cover all params");
            iolb_ir::check_accesses(&k.program, &params)
                .unwrap_or_else(|e| panic!("case {idx} fails certification: {e}\n{src}"));
            assert!(spec.num_stmts() >= 1);
        }
    }

    #[test]
    fn grammar_features_all_appear_across_a_seed_range() {
        let cfg = GenConfig::default();
        let mut saw = [false; 6]; // reverse, step, min-bound, triangular, tile, scalar
        for idx in 0..200 {
            let src = generate_case(5, idx, &cfg).render();
            saw[0] |= src.contains("reverse ");
            saw[1] |= src.contains(" step 2");
            saw[2] |= src.contains("min(");
            saw[3] |= src.contains(" + 1..");
            saw[4] |= src.contains("tile ");
            saw[5] |= src.contains("scalar ");
        }
        assert!(saw.iter().all(|&b| b), "missing grammar feature: {saw:?}");
    }
}
