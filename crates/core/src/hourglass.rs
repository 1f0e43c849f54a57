//! The hourglass pattern: detection (§3.2), certification, and the
//! tightened bound derivation (§4).
//!
//! **Detection.** A statement `X` carries the hourglass when:
//!
//! 1. it has a self-dependence translated along outer dims `⃗k` (temporal),
//! 2. some read of `X` is produced same-iteration by another statement, and
//!    its projection support *drops* non-temporal dims `⃗i` — the
//!    reduction/broadcast dims (the broadcast leg of the hourglass),
//! 3. the dropped value flows from `X`'s own output through a *reduction*
//!    statement `Z` (a consumer of `X`'s array with a private loop absent
//!    from its write subscripts) — the reduction leg,
//! 4. the width `W = |φ_{⃗i}(D_X)|` is parametric.
//!
//! **Certification.** Structural detection is checked against exact CDAGs:
//! for sampled `(⃗k, ⃗j)` and rb values `i, i′`, a dependency chain
//! `X[⃗k,⃗j,i] ⇝ X[⃗k+1,⃗j,i′]` must exist (Definition §3.2), with execution
//! order defining "next" (the paper's V2Q iterates the temporal loop
//! backwards).
//!
//! **Derivation (§4).** `E = I′ ⊎ F`; Lemma 4 sharpens the projections of
//! `I′` to `K/W`, flatness bounds `F` slices by `2`, giving
//! `U(K) = K²/W + 2RK` and, at `K = 2S`,
//! `Q ≥ S·⌊|V| / U(2S)⌋ = |V|·W / (4(S + RW))` — plus the small-S branch
//! `K = W`: `Q ≥ (W−S)·⌊|V|/(2W)⌋` (Theorem 5's second bound).

use crate::s_var;
use iolb_cdag::{Cdag, NodeId, NodeKind};
use iolb_ir::count::{
    extent, instance_count, instance_count_bounded, poly_range_over_dims_bounded, BoundOverride,
};
use iolb_ir::deps::{Producer, ReadProjection};
use iolb_ir::{DimId, Program, StmtId};
use iolb_symbolic::{Expr, Poly};
use std::collections::{BTreeMap, BTreeSet};

/// A detected hourglass pattern on one statement.
#[derive(Debug, Clone)]
pub struct HourglassPattern {
    /// The broadcast statement `X` (e.g. MGS's `SU`).
    pub stmt: StmtId,
    /// Temporal dims `⃗k`.
    pub temporal: Vec<DimId>,
    /// Neutral dims `⃗j`.
    pub neutral: Vec<DimId>,
    /// Reduction/broadcast dims `⃗i`.
    pub rb: Vec<DimId>,
    /// Index of the broadcast read in `X.reads`.
    pub broadcast_read: usize,
    /// The reduction statement `Z` (e.g. MGS's `SR`).
    pub reduction_stmt: StmtId,
}

/// A derived hourglass bound (all expressions over program params and `S`).
#[derive(Debug, Clone)]
pub struct HourglassBound {
    /// The pattern the bound was derived from.
    pub pattern: HourglassPattern,
    /// Minimal hourglass width over the (possibly split) domain.
    pub w_min: Poly,
    /// Maximal hourglass width.
    pub w_max: Poly,
    /// Flat-part multiplicity `R` (1 when a projection covers all neutral dims).
    pub r_factor: Poly,
    /// `|V|` restricted to the split range, first temporal iteration dropped
    /// — the strictly justified volume (used for validation).
    pub volume: Poly,
    /// `|V|` over the full domain, first temporal iteration dropped — the
    /// counting convention of IOLB's printed tables (Fig. 5).
    pub volume_tool: Poly,
    /// `|V|` with nothing dropped (for the small-S branch).
    pub volume_nodrop: Poly,
    /// Main bound `|V|·W/(4(S+RW))` with the sound volume.
    pub main: Expr,
    /// Main bound with the tool-convention volume (Fig. 5 parity).
    pub main_tool: Expr,
    /// Refined variant `|V|·W_min²/(4(S·W_max + W_min²))` (Theorems 6–8 shape).
    pub refined: Expr,
    /// Small-S branch `(W−S)·|V_nodrop|/(2W)` (negative when S > W).
    pub small_s: Expr,
    /// `max(main, small_s)` — always a valid lower bound.
    pub combined: Expr,
}

/// Loop splitting (§5.3) applied before the derivation.
#[derive(Debug, Clone)]
pub enum SplitChoice {
    /// No splitting (widths taken over the full domain).
    None,
    /// Restrict the (single) temporal dim to `[lo, split)` for the width
    /// minimum and the sound volume.
    At(Poly),
}

/// Structural detection of the hourglass pattern on `stmt`.
///
/// Among the candidate broadcast reads, the one whose reduction→producer
/// chain is shortest wins (the direct `SR → ST → SU` cycle of the paper,
/// rather than an incidental long path through other updates).
pub fn detect(
    program: &Program,
    stmt: StmtId,
    projections: &[ReadProjection],
) -> Option<HourglassPattern> {
    if !iolb_ir::count::countable_nest(program, stmt) {
        // Derivation needs closed-form instance counts over the nest;
        // decline the pattern rather than panic downstream (§4 only ever
        // targets unit-step single-bound nests anyway).
        return None;
    }
    let x = program.stmt(stmt);

    // Statement-level flow graph (producer → consumer).
    let mut flow: BTreeMap<StmtId, BTreeSet<StmtId>> = BTreeMap::new();
    for rp in projections {
        for e in &rp.edges {
            if let Producer::Stmt(p) = e.producer {
                flow.entry(p).or_default().insert(rp.stmt);
            }
        }
    }
    // BFS distance from `from` to `to`; `avoid` may not be an intermediate
    // node (endpoints are fine). `None` when unreachable.
    let distance = |from: StmtId, to: StmtId, avoid: StmtId| -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut seen = BTreeSet::new();
        let mut frontier = vec![from];
        let mut dist = 0usize;
        seen.insert(from);
        while !frontier.is_empty() {
            dist += 1;
            let mut next = Vec::new();
            for v in frontier {
                if v != from && v == avoid {
                    continue; // cannot pass through `avoid`
                }
                if let Some(cs) = flow.get(&v) {
                    for &c in cs {
                        if c == to {
                            return Some(dist);
                        }
                        if seen.insert(c) {
                            next.push(c);
                        }
                    }
                }
            }
            frontier = next;
        }
        None
    };

    // 1. Temporal dims: translated edges into X from a producer that X
    // itself feeds (the dependence cycle of §3.2 — the producer may be X or
    // a sibling update like GEHD2's SU2).
    let mut temporal: BTreeSet<DimId> = BTreeSet::new();
    for rp in projections.iter().filter(|r| r.stmt == stmt) {
        for e in &rp.edges {
            if let Producer::Stmt(p) = e.producer {
                if !e.translated.is_empty() && distance(stmt, p, StmtId(u32::MAX)).is_some() {
                    temporal.extend(e.translated.iter().copied());
                }
            }
        }
    }
    if temporal.is_empty() {
        return None;
    }

    // Reduction candidates Z: consumers of a value flowing (possibly
    // transitively — GEBD2's left-update output reaches its reduction only
    // through the right-reflector statements) from X's output, whose
    // reading subscript uses one of Z's private reduction dims (a dim
    // absent from all of Z's write subscripts and not shared with X).
    let is_reduction_edge = |rp: &ReadProjection| -> bool {
        let z = rp.stmt;
        if z == stmt {
            return false;
        }
        let fed_by_x = rp.edges.iter().any(|e| match e.producer {
            Producer::Stmt(p) => distance(stmt, p, StmtId(u32::MAX)).is_some(),
            Producer::Input => false,
        });
        if !fed_by_x {
            return false;
        }
        let zs = program.stmt(z);
        let written_dims: BTreeSet<DimId> = zs
            .writes
            .iter()
            .flat_map(|w| w.idx.iter().flat_map(|a| a.dims_used().collect::<Vec<_>>()))
            .collect();
        let common: BTreeSet<DimId> = program.common_dims(z, stmt).into_iter().collect();
        let read_dims: BTreeSet<DimId> = zs.reads[rp.read_idx]
            .idx
            .iter()
            .flat_map(|a| a.dims_used().collect::<Vec<_>>())
            .collect();
        zs.dims
            .iter()
            .any(|d| !written_dims.contains(d) && !common.contains(d) && read_dims.contains(d))
    };
    let reductions: Vec<StmtId> = projections
        .iter()
        .filter(|rp| is_reduction_edge(rp))
        .map(|rp| rp.stmt)
        .collect();
    if reductions.is_empty() {
        return None;
    }

    // 2./3. Broadcast candidates, ranked by reduction-chain distance.
    let mut best: Option<(usize, HourglassPattern)> = None;
    for rp in projections.iter().filter(|r| r.stmt == stmt) {
        let support = &rp.support;
        if !temporal.iter().all(|k| support.contains(k)) {
            continue;
        }
        let dropped: Vec<DimId> = x
            .dims
            .iter()
            .filter(|d| !support.contains(d) && !temporal.contains(d))
            .copied()
            .collect();
        if dropped.is_empty() {
            continue;
        }
        let producers: Vec<StmtId> = rp
            .edges
            .iter()
            .filter_map(|e| match e.producer {
                Producer::Stmt(p) => Some(p),
                Producer::Input => None,
            })
            .collect();
        for &z in &reductions {
            let dist = producers.iter().filter_map(|&p| distance(z, p, stmt)).min();
            if std::env::var("IOLB_DEBUG_DETECT").is_ok() {
                eprintln!(
                    "  candidate read={} support={:?} dropped={:?} z={} producers={:?} dist={:?}",
                    rp.read_idx,
                    support,
                    dropped,
                    program.stmt(z).name,
                    producers
                        .iter()
                        .map(|p| &program.stmt(*p).name)
                        .collect::<Vec<_>>(),
                    dist
                );
            }
            let Some(dist) = dist else { continue };
            if best.as_ref().is_some_and(|(d, _)| *d <= dist) {
                continue;
            }
            let temporal_v: Vec<DimId> = temporal.iter().copied().collect();
            let neutral: Vec<DimId> = x
                .dims
                .iter()
                .filter(|d| !temporal_v.contains(d) && !dropped.contains(d))
                .copied()
                .collect();
            best = Some((
                dist,
                HourglassPattern {
                    stmt,
                    temporal: temporal_v,
                    neutral,
                    rb: dropped.clone(),
                    broadcast_read: rp.read_idx,
                    reduction_stmt: z,
                },
            ));
        }
    }
    best.map(|(_, p)| p)
}

/// Certifies the pattern's dependency-chain property on `cdag`, the exact
/// CDAG of `program` at the parameters to certify (Definition §3.2):
/// consecutive executed temporal values must be chained through the
/// reduction/broadcast for all sampled rb pairs.
///
/// X's compute nodes are read once, in execution order, and grouped by
/// neutral values into runs of equal temporal values; the chain check
/// samples the first and last node of consecutive runs (at most 60
/// `has_path` checks). Returns the number of chains checked.
///
/// # Errors
/// Returns a description of the first missing chain.
pub fn certify(
    program: &Program,
    cdag: &Cdag,
    pattern: &HourglassPattern,
) -> Result<usize, String> {
    let dims = &program.stmt(pattern.stmt).dims;
    let positions = |of: &[DimId]| -> Vec<usize> {
        of.iter()
            .map(|d| dims.iter().position(|x| x == d).expect("dim of stmt"))
            .collect()
    };
    let (tpos, npos, rpos) = (
        positions(&pattern.temporal),
        positions(&pattern.neutral),
        positions(&pattern.rb),
    );
    let iv_of = |v: NodeId| match cdag.kind(v) {
        NodeKind::Compute { iv, .. } => iv,
        NodeKind::Input { .. } => unreachable!("runs hold compute nodes"),
    };
    let pick = |iv: &[i32], at: &[usize]| -> Vec<i32> { at.iter().map(|&p| iv[p]).collect() };

    // Neutral values → runs of equal temporal values in execution order,
    // each holding its first and last node.
    struct Run {
        first: NodeId,
        last: NodeId,
    }
    let mut groups: BTreeMap<Vec<i32>, Vec<Run>> = BTreeMap::new();
    let mut key = Vec::new();
    for v in cdag.compute_nodes() {
        let NodeKind::Compute { stmt, iv } = cdag.kind(v) else {
            continue;
        };
        if stmt != pattern.stmt {
            continue;
        }
        key.clear();
        key.extend(npos.iter().map(|&p| iv[p]));
        let seq = match groups.get_mut(key.as_slice()) {
            Some(seq) => seq,
            None => groups.entry(key.clone()).or_default(),
        };
        match seq.last_mut() {
            Some(run) if tpos.iter().all(|&p| iv_of(run.first)[p] == iv[p]) => run.last = v,
            _ => seq.push(Run { first: v, last: v }),
        }
    }

    let mut checked = 0usize;
    let mut budget = 60usize;
    for (nv, seq) in &groups {
        for w in seq.windows(2) {
            if budget == 0 {
                break;
            }
            // Sample first/last rb values on both sides.
            for a in [w[0].first, w[0].last] {
                for b in [w[1].first, w[1].last] {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    if !cdag.has_path(lo, hi) {
                        let (iv0, iv1) = (iv_of(a), iv_of(b));
                        return Err(format!(
                            "no dependency chain {:?}@{:?},{nv:?},{:?} ⇝ @{:?},{:?}",
                            program.stmt(pattern.stmt).name,
                            pick(iv0, &tpos),
                            pick(iv0, &rpos),
                            pick(iv1, &tpos),
                            pick(iv1, &rpos),
                        ));
                    }
                    checked += 1;
                    budget = budget.saturating_sub(1);
                }
            }
        }
    }
    if checked == 0 {
        return Err("no consecutive temporal pair found to certify".to_string());
    }
    Ok(checked)
}

/// Derives the hourglass bound (§4) for a certified pattern.
pub fn derive(
    program: &Program,
    pattern: &HourglassPattern,
    split: &SplitChoice,
) -> HourglassBound {
    let stmt = pattern.stmt;
    let dims = &program.stmt(stmt).dims;

    // Width: product of rb-dim extents, min/maxed over the other dims.
    let mut width = Poly::one();
    for d in &pattern.rb {
        width = &width * &extent(program, *d);
    }
    let other: Vec<DimId> = dims
        .iter()
        .filter(|d| !pattern.rb.contains(d))
        .copied()
        .collect();
    let overrides: Vec<(DimId, BoundOverride)> = match split {
        SplitChoice::None => Vec::new(),
        SplitChoice::At(p) => {
            assert_eq!(pattern.temporal.len(), 1, "split needs one temporal dim");
            vec![(
                pattern.temporal[0],
                BoundOverride {
                    lo: None,
                    hi: Some(p.clone()),
                },
            )]
        }
    };
    let (w_min, w_max) = poly_range_over_dims_bounded(program, &width, &other, &overrides);

    // R factor: neutral dims not covered by the broadcast projection add a
    // multiplicity (max extent each). All paper kernels give R = 1.
    let x = program.stmt(stmt);
    let broadcast_support: BTreeSet<DimId> = x.reads[pattern.broadcast_read]
        .idx
        .iter()
        .flat_map(|a| a.dims_used().collect::<Vec<_>>())
        .collect();
    let mut r_factor = Poly::one();
    for d in &pattern.neutral {
        if !broadcast_support.contains(d) {
            let e = extent(program, *d);
            let (_, emax) = poly_range_over_dims_bounded(program, &e, &other, &[]);
            r_factor = &r_factor * &emax;
        }
    }

    // Volumes.
    let first_t = pattern.temporal[0];
    let t_lo = {
        let info = program.loop_info(first_t);
        assert_eq!(info.lo.len(), 1);
        iolb_ir::count::aff_to_poly(program, &info.lo[0])
    };
    let drop_first = BoundOverride {
        lo: Some(&t_lo + &Poly::one()),
        hi: None,
    };
    let mut vol_overrides = vec![(first_t, drop_first.clone())];
    if let SplitChoice::At(p) = split {
        vol_overrides[0].1.hi = Some(p.clone());
    }
    let volume = instance_count_bounded(program, stmt, &vol_overrides);
    let volume_tool = instance_count_bounded(program, stmt, &[(first_t, drop_first)]);
    let volume_nodrop = instance_count(program, stmt);

    // Bound expressions.
    let s = Expr::var(s_var());
    let four = Expr::int(4);
    let mk_main = |vol: &Poly, w: &Poly, r: &Poly| -> Expr {
        // |V|·W / (4(S + R·W))
        Expr::from_poly(vol)
            .mul(Expr::from_poly(w))
            .div(four.clone().mul(s.clone().add(Expr::from_poly(&(r * w)))))
    };
    let main = mk_main(&volume, &w_min, &r_factor);
    let main_tool = mk_main(&volume_tool, &w_min, &r_factor);
    // Refined: |V|·W_min² / (4(S·W_max + W_min²)).
    let refined = Expr::from_poly(&volume_tool)
        .mul(Expr::from_poly(&(&w_min * &w_min)))
        .div(
            Expr::int(4).mul(
                s.clone()
                    .mul(Expr::from_poly(&w_max))
                    .add(Expr::from_poly(&(&w_min * &w_min))),
            ),
        );
    // Small-S branch: (W − S)·|V_nodrop| / (2W).
    let small_s = Expr::from_poly(&w_min)
        .sub(s.clone())
        .mul(Expr::from_poly(&volume_nodrop))
        .div(Expr::int(2).mul(Expr::from_poly(&w_min)));
    let combined = main.clone().max(small_s.clone());

    HourglassBound {
        pattern: pattern.clone(),
        w_min,
        w_max,
        r_factor,
        volume,
        volume_tool,
        volume_nodrop,
        main,
        main_tool,
        refined,
        small_s,
        combined,
    }
}

impl HourglassBound {
    /// Exact floored Theorem-1 evaluation at concrete parameters (the form
    /// compared against pebble plays): `max` of the `K = 2S` branch
    /// `S·⌊|V|/U(2S)⌋` and the `K = W` branch `(W−S)·⌊|V'|/(2W)⌋`.
    ///
    /// Every intermediate (`|V|`, `W`, `U(2S)`, the floors) is evaluated in
    /// exact [`iolb_numeric::Rational`] arithmetic; beyond 2^53 an `f64`
    /// pipeline rounds the volume *before* flooring and can push the result
    /// above the true bound, breaking the "never above a legal play"
    /// contract (see the `exact_floor_beats_f64_at_scale` regression test).
    ///
    /// # Panics
    /// Panics when the exact arithmetic overflows `i128` (the workspace
    /// treats silent wrapping of a bound as a hard logic error).
    pub fn eval_floor_exact(
        &self,
        env: &[(iolb_symbolic::Var, i128)],
        s: i128,
    ) -> iolb_numeric::Rational {
        use iolb_numeric::Rational;
        let ev = |p: &Poly| -> Rational {
            p.eval(&|v| {
                env.iter()
                    .find(|(w, _)| *w == v)
                    .map(|(_, x)| Rational::int(*x))
            })
        };
        let (w, r, vol, vol_nd) = (
            ev(&self.w_min),
            ev(&self.r_factor),
            ev(&self.volume),
            ev(&self.volume_nodrop),
        );
        let s_r = Rational::int(s);
        let mut best = Rational::ZERO;
        if w.is_positive() && vol.is_positive() {
            // U(2S) = (2S)²/W + 2R·(2S), all exact.
            let two_s = Rational::TWO * s_r;
            let u = two_s * two_s / w + Rational::TWO * r * two_s;
            if u.is_positive() {
                let sets = (vol / u).floor();
                best = best.max(s_r * Rational::int(sets));
            }
        }
        if w > s_r && vol_nd.is_positive() {
            let sets = (vol_nd / (Rational::TWO * w)).floor();
            best = best.max((w - s_r) * Rational::int(sets));
        }
        best
    }

    /// [`Self::eval_floor_exact`] converted to `f64` as the very last step
    /// (the only lossy operation; error ≤ 1 ulp of the exact value).
    pub fn eval_floor(&self, env: &[(iolb_symbolic::Var, i128)], s: i128) -> f64 {
        self.eval_floor_exact(env, s).to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use iolb_cdag::build_cdag;
    use iolb_symbolic::Var;

    /// The miniature MGS core (SR/SU only — enough to carry the hourglass).
    fn mini_mgs() -> iolb_ir::Program {
        mgs_core(false)
    }

    /// [`mini_mgs`], optionally with a statement `SC` between the SR and SU
    /// loops that overwrites `R[k][j]` without reading it: SU then reads its
    /// broadcast value from SC, which cuts the chain through the reduction.
    fn mgs_core(clobber: bool) -> iolb_ir::Program {
        let mut b = iolb_ir::ProgramBuilder::new("hg_mini_mgs", &["M", "N"]);
        let a = b.array("A", &[b.p("M"), b.p("N")]);
        let r = b.array("R", &[b.p("N"), b.p("N")]);
        let k = b.open("k", b.c(0), b.p("N"));
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let w_r = iolb_ir::Access::new(r, vec![b.d(k), b.d(j)]);
        b.stmt("S0", vec![], vec![w_r.clone()]);
        let i1 = b.open("i", b.c(0), b.p("M"));
        let rd_aik = iolb_ir::Access::new(a, vec![b.d(i1), b.d(k)]);
        let rd_aij = iolb_ir::Access::new(a, vec![b.d(i1), b.d(j)]);
        b.stmt("SR", vec![rd_aik, rd_aij, w_r.clone()], vec![w_r.clone()]);
        b.close();
        if clobber {
            b.stmt("SC", vec![], vec![w_r.clone()]);
        }
        let i2 = b.open("i", b.c(0), b.p("M"));
        let rd_aik2 = iolb_ir::Access::new(a, vec![b.d(i2), b.d(k)]);
        let rw_aij2 = iolb_ir::Access::new(a, vec![b.d(i2), b.d(j)]);
        b.stmt(
            "SU",
            vec![rd_aik2, rw_aij2.clone(), w_r.clone()],
            vec![rw_aij2],
        );
        b.close();
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn detects_mgs_hourglass_with_correct_partition() {
        let p = mini_mgs();
        let analysis = Analysis::run(&p, &[vec![7, 5]]).unwrap();
        let su = p.stmt_id("SU").unwrap();
        let pat = analysis.detect_hourglass(su).expect("hourglass detected");
        let dims = &p.stmt(su).dims;
        assert_eq!(pat.temporal, vec![dims[0]], "k is temporal");
        assert_eq!(pat.neutral, vec![dims[1]], "j is neutral");
        assert_eq!(pat.rb, vec![dims[2]], "i is reduction/broadcast");
        assert_eq!(pat.reduction_stmt, p.stmt_id("SR").unwrap());
    }

    #[test]
    fn certification_passes_on_exact_cdag() {
        let p = mini_mgs();
        let analysis = Analysis::run(&p, &[vec![6, 4]]).unwrap();
        let su = p.stmt_id("SU").unwrap();
        let pat = analysis.detect_hourglass(su).unwrap();
        let checked = certify(&p, &build_cdag(&p, &[6, 4]), &pat).expect("chains exist");
        // Neutral j ∈ 1..4 runs k ∈ 0..j: groups j = 2, 3 hold 1 and 2
        // consecutive temporal pairs, each checked at 2 × 2 rb samples.
        assert_eq!(checked, 12);
    }

    #[test]
    fn certification_fails_when_another_statement_clobbers_the_chain() {
        let p = mgs_core(true);
        let su = p.stmt_id("SU").unwrap();
        let dims = &p.stmt(su).dims;
        // The mini MGS pattern, which detection no longer finds here.
        let pat = HourglassPattern {
            stmt: su,
            temporal: vec![dims[0]],
            neutral: vec![dims[1]],
            rb: vec![dims[2]],
            broadcast_read: 2,
            reduction_stmt: p.stmt_id("SR").unwrap(),
        };
        let err = certify(&p, &build_cdag(&p, &[6, 4]), &pat).unwrap_err();
        assert_eq!(err, "no dependency chain \"SU\"@[0],[2],[0] ⇝ @[1],[5]");
    }

    #[test]
    fn mgs_bound_matches_paper_formula() {
        let p = mini_mgs();
        let analysis = Analysis::run(&p, &[vec![7, 5]]).unwrap();
        let su = p.stmt_id("SU").unwrap();
        let pat = analysis.detect_hourglass(su).unwrap();
        let b = analysis.hourglass_bound(&pat);
        // W = M (constant width), R = 1.
        assert_eq!(
            iolb_ir::count::eval_params(&b.w_min, &[("M", 17), ("N", 5)]),
            iolb_numeric::Rational::int(17)
        );
        assert_eq!(b.w_min, b.w_max);
        assert_eq!(b.r_factor, Poly::one());
        // main_tool = M²(N-1)(N-2)/(8(S+M)) — the Fig. 5 MGS row.
        let env = [
            (Var::new("M"), 100i128),
            (Var::new("N"), 40),
            (crate::s_var(), 256),
        ];
        let got = b.main_tool.eval_ints_f64(&env);
        let expect = (100.0f64 * 100.0 * 39.0 * 38.0) / (8.0 * (256.0 + 100.0));
        assert!(
            (got / expect - 1.0).abs() < 1e-12,
            "got {got} expect {expect}"
        );
        // small_s = (M−S)·(MN(N-1)/2)/(2M) = (M−S)N(N-1)/4 (Theorem 5).
        let got_small = b.small_s.eval_ints_f64(&[
            (Var::new("M"), 100),
            (Var::new("N"), 40),
            (crate::s_var(), 30),
        ]);
        let expect_small = (100.0 - 30.0) * 40.0 * 39.0 / 4.0;
        assert!((got_small / expect_small - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_hourglass_in_gemm_shape() {
        // C[i][j] += A[i][k]·B[k][j]: self-translation exists (k) but the
        // broadcast legs come from inputs — no reduction of X's own output.
        let mut b = iolb_ir::ProgramBuilder::new("hg_gemm_like", &["M", "N", "K"]);
        let a = b.array("A", &[b.p("M"), b.p("K")]);
        let bb = b.array("B", &[b.p("K"), b.p("N")]);
        let cc = b.array("C", &[b.p("M"), b.p("N")]);
        let i = b.open("i", b.c(0), b.p("M"));
        let j = b.open("j", b.c(0), b.p("N"));
        let w_c = iolb_ir::Access::new(cc, vec![b.d(i), b.d(j)]);
        b.stmt("Cz", vec![], vec![w_c.clone()]);
        let k = b.open("k", b.c(0), b.p("K"));
        let ra = iolb_ir::Access::new(a, vec![b.d(i), b.d(k)]);
        let rb = iolb_ir::Access::new(bb, vec![b.d(k), b.d(j)]);
        b.stmt("SU", vec![ra, rb, w_c.clone()], vec![w_c]);
        b.close();
        b.close();
        b.close();
        let p = b.finish();
        let analysis = Analysis::run(&p, &[vec![4, 5, 3]]).unwrap();
        let su = p.stmt_id("SU").unwrap();
        assert!(analysis.detect_hourglass(su).is_none());
    }

    #[test]
    fn floored_eval_below_formula() {
        let p = mini_mgs();
        let analysis = Analysis::run(&p, &[vec![7, 5]]).unwrap();
        let su = p.stmt_id("SU").unwrap();
        let pat = analysis.detect_hourglass(su).unwrap();
        let b = analysis.hourglass_bound(&pat);
        for (m, n, s) in [(32i128, 8i128, 16i128), (64, 16, 24)] {
            let env = [(Var::new("M"), m), (Var::new("N"), n)];
            let floored = b.eval_floor(&env, s);
            let formula = b.combined.eval_ints_f64(&[
                (Var::new("M"), m),
                (Var::new("N"), n),
                (crate::s_var(), s),
            ]);
            assert!(floored <= formula + 1e-9, "floored {floored} vs {formula}");
        }
    }
}
