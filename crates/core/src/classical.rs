//! Classical K-partitioning bound (§2), the "old bound" baseline.
//!
//! For a statement with projection set `Φ`, the Brascamp–Lieb application
//! bounds any convex K-bounded set by `|E| ≤ Π |φ_j(E)|^{s_j} ≤ K^σ`. When
//! the `m` projections target pairwise-disjoint in-set regions (distinct
//! arrays / access functions), `Σ_j |φ_j(E)| ≤ K` sharpens this to
//! `|E| ≤ (K/m)^σ` at the balanced point — IOLB's disjointness refinement,
//! which this module reproduces (it is what makes the MGS old bound
//! `M(N-1)(N-2)/√S` come out with leading constant 1, i.e. `2|V|/√S`).
//!
//! Wrapping through Theorem 1 at the optimal `K = σS/(σ−1)` yields
//!
//! `Q ≥ (σ−1)^{σ−1}·σ^{−σ}·m^σ·|V|·S^{1−σ}`.

use crate::phi::PhiSet;
use crate::s_var;
use iolb_ir::count::{dim_var, instance_count_with};
use iolb_ir::{Program, StmtId};
use iolb_numeric::Rational;
use iolb_symbolic::{Expr, Poly};

/// A derived classical bound.
#[derive(Debug, Clone)]
pub struct ClassicalBound {
    /// Statement whose sub-CDAG the bound covers.
    pub stmt: StmtId,
    /// Brascamp–Lieb exponent `σ = Σ s_j`.
    pub sigma: Rational,
    /// Optimal exponents per projection.
    pub exponents: Vec<Rational>,
    /// In-set refinement divisor `m = σ/w_max` over disjoint regions
    /// (the region count when weights are equal — the paper's integer
    /// `m`; rational in general, see [`PhiSet::refinement_divisor`]).
    pub m: Rational,
    /// `|V|`: instances of the statement, first outer-loop iteration
    /// dropped (IOLB's counting convention).
    pub volume: Poly,
    /// The asymptotic bound expression in the program parameters and `S`.
    pub expr: Expr,
}

/// Derives the classical bound for `stmt`.
///
/// # Panics
/// Panics when the projection set cannot cover the iteration space (no
/// bound derivable) — the kernels in this workspace always can.
pub fn derive(program: &Program, stmt: StmtId, phi: &PhiSet) -> ClassicalBound {
    try_derive(program, stmt, phi)
        .expect("projections must cover the iteration space (no classical bound derivable)")
}

/// Like [`derive()`](fn@derive), but returns `None` when no classical bound exists for
/// the statement: the projections do not cover the iteration space (a time
/// loop every access drops, as in stencils) or the subgroup condition
/// fails. Arbitrary DSL workloads go through this path so the pipeline
/// degrades to "no classical bound" instead of aborting.
pub fn try_derive(program: &Program, stmt: StmtId, phi: &PhiSet) -> Option<ClassicalBound> {
    if !iolb_ir::count::countable_nest(program, stmt) {
        return None; // strided / multi-bound nests have no closed-form |V|
    }
    let (sigma, exponents) = phi.bl_exponents()?;
    if !phi.check_subgroups(&exponents) {
        return None;
    }
    let m = phi.refinement_divisor(&exponents);
    // |V| with the first outer iteration dropped (matches IOLB's tables).
    let outer = *program.stmt(stmt).dims.first()?;
    let outer_lo = {
        let info = program.loop_info(outer);
        if info.lo.len() != 1 {
            return None; // multi-bound outer loops have no closed-form count
        }
        iolb_ir::count::aff_to_poly(program, &info.lo[0])
    };
    let volume = instance_count_with(program, stmt, &[(outer, &outer_lo + &Poly::one())]);
    let _ = dim_var(program, outer); // dimension variables are summed away
    let expr = wrap_expr(&volume, sigma, m);
    Some(ClassicalBound {
        stmt,
        sigma,
        exponents,
        m,
        volume,
        expr,
    })
}

/// Builds `c(σ, m) · |V| · S^{1−σ}` with
/// `c = (σ−1)^{σ−1} σ^{−σ} m^σ = (m(σ−1)/σ)^σ / (σ−1)`.
fn wrap_expr(volume: &Poly, sigma: Rational, m: Rational) -> Expr {
    let s = Expr::var(s_var());
    let vol = Expr::from_poly(volume);
    if sigma <= Rational::ONE {
        // Degenerate: |E| ≤ K/m gives Q ≥ m·|V| in the K → ∞ limit.
        return Expr::Const(m).mul(vol);
    }
    let sm1 = sigma - Rational::ONE;
    let base = m * sm1 / sigma;
    let c = Expr::Const(base).pow(sigma).div(Expr::Const(sm1));
    c.mul(vol).mul(s.pow(Rational::ONE - sigma))
}

impl ClassicalBound {
    /// Exact (floored) Theorem-1 evaluation at concrete parameters: maximize
    /// `T·⌊|V| / (K/m)^σ⌋` over a grid of `K = S + T`. This is the form to
    /// compare against pebble-game plays — never above the real bound.
    ///
    /// The set count `⌊|V| / (K/m)^σ⌋` is computed exactly: with
    /// `σ = p/q`, it is the largest `t ≥ 0` with `t^q·K^p ≤ |V|^q·m^p`,
    /// found by binary search over checked `i128` products (the fractional
    /// power itself is irrational; its *floor comparison* is pure integer
    /// arithmetic). An `f64` pipeline rounds `|V|` before flooring and can
    /// overshoot the true bound beyond 2^53. Product overflow at
    /// astronomically large parameters resolves conservatively — see
    /// `floored_set_count`.
    pub fn eval_floor(&self, env: &[(iolb_symbolic::Var, i128)], s: i128) -> f64 {
        let vol = self.volume.eval(&|v| {
            env.iter()
                .find(|(w, _)| *w == v)
                .map(|(_, x)| Rational::int(*x))
        });
        if !vol.is_positive() {
            return 0.0;
        }
        let m = self.m;
        let mut best = 0.0f64;
        // Scan candidate K around the analytic optimum and a coarse grid.
        let opt = if self.sigma > Rational::ONE {
            (self.sigma / (self.sigma - Rational::ONE)).to_f64() * s as f64
        } else {
            4.0 * s as f64
        };
        let mut candidates: Vec<i128> = vec![s + 1, 2 * s, 3 * s, 4 * s, 8 * s];
        candidates.push(opt.round() as i128);
        candidates.push((opt * 0.75).round() as i128);
        candidates.push((opt * 1.5).round() as i128);
        for k in candidates {
            if k <= s {
                continue;
            }
            let t = (k - s) as f64;
            let sets = floored_set_count(vol, k, m, self.sigma);
            best = best.max(t * sets as f64);
        }
        best
    }
}

/// Exact `⌊|V| / (K/m)^σ⌋` for `σ = p/q > 0` and rational `m = mᵃ/mᵇ`:
/// the largest `t ≥ 0` with `t^q·K^p·b^q·(mᵇ)^p ≤ a^q·(mᵃ)^p` where
/// `|V| = a/b`. Binary search with checked `i128` products. When one side
/// overflows `i128`, the comparison is still decided soundly: an
/// overflowing side exceeds every representable value, so `lhs` overflow
/// ⇒ not-fits and `rhs` overflow (with finite `lhs`) ⇒ fits; only when
/// *both* overflow does the search give up and answer not-fits —
/// conservative (a smaller floored count), never an overshoot.
fn floored_set_count(vol: Rational, k: i128, m: Rational, sigma: Rational) -> i128 {
    let (p, q) = (sigma.num() as u32, sigma.den() as u32);
    let (a, b) = (vol.num(), vol.den());
    let (ma, mb) = (m.num(), m.den());
    let fits = |t: i128| -> bool {
        let lhs = checked_pow(t, q)
            .and_then(|x| x.checked_mul(checked_pow(k, p)?))
            .and_then(|x| x.checked_mul(checked_pow(b, q)?))
            .and_then(|x| x.checked_mul(checked_pow(mb, p)?));
        let rhs = checked_pow(a, q).and_then(|x| x.checked_mul(checked_pow(ma, p)?));
        match (lhs, rhs) {
            (Some(l), Some(r)) => l <= r,
            (None, Some(_)) => false, // lhs > i128::MAX ≥ rhs
            (Some(_), None) => true,  // rhs > i128::MAX ≥ lhs
            (None, None) => false,    // undecidable: round the count down
        }
    };
    if !fits(0) {
        return 0;
    }
    // Grow an upper bracket, then binary-search the boundary.
    let mut hi: i128 = 1;
    while fits(hi) {
        match hi.checked_mul(2) {
            Some(next) => hi = next,
            None => return hi, // beyond any physical set count
        }
    }
    let mut lo: i128 = hi / 2; // fits(lo) holds
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `x^e` with overflow checking (`None` on overflow).
fn checked_pow(x: i128, e: u32) -> Option<i128> {
    let mut acc: i128 = 1;
    for _ in 0..e {
        acc = acc.checked_mul(x)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_numeric::rational::rat;
    use iolb_symbolic::Var;

    /// MGS-shaped triangular statement with the ij/ik/kj projections.
    fn mgs_like() -> (iolb_ir::Program, StmtId) {
        let mut b = iolb_ir::ProgramBuilder::new("classical_mgs_like", &["M", "N"]);
        let a = b.array("A", &[b.p("M"), b.p("N")]);
        let q = b.array("Q", &[b.p("M"), b.p("N")]);
        let r = b.array("R", &[b.p("N"), b.p("N")]);
        let k = b.open("k", b.c(0), b.p("N"));
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let i = b.open("i", b.c(0), b.p("M"));
        let ra = iolb_ir::Access::new(a, vec![b.d(i), b.d(j)]);
        let rq = iolb_ir::Access::new(q, vec![b.d(i), b.d(k)]);
        let rr = iolb_ir::Access::new(r, vec![b.d(k), b.d(j)]);
        b.stmt("SU", vec![ra.clone(), rq, rr], vec![ra]);
        b.close();
        b.close();
        b.close();
        let p = b.finish();
        let su = p.stmt_id("SU").unwrap();
        (p, su)
    }

    #[test]
    fn mgs_classical_shape() {
        let (p, su) = mgs_like();
        let analysis = crate::Analysis::run(&p, &[vec![7, 5]]).unwrap();
        let b = analysis.classical_bound(su);
        assert_eq!(b.sigma, rat(3, 2));
        assert_eq!(b.m, Rational::int(3));
        // Bound = 2·|V|/√S with |V| = M(N-1)(N-2)/2 → M(N-1)(N-2)/√S.
        let (m, n, s) = (1000i128, 100i128, 400i128);
        let got =
            b.expr
                .eval_ints_f64(&[(Var::new("M"), m), (Var::new("N"), n), (crate::s_var(), s)]);
        let expect = (m * (n - 1) * (n - 2)) as f64 / (s as f64).sqrt();
        assert!(
            (got / expect - 1.0).abs() < 1e-9,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn floored_eval_is_below_asymptotic() {
        let (p, su) = mgs_like();
        let analysis = crate::Analysis::run(&p, &[vec![7, 5]]).unwrap();
        let b = analysis.classical_bound(su);
        for (m, n, s) in [(64i128, 16i128, 32i128), (128, 32, 64)] {
            let env = [(Var::new("M"), m), (Var::new("N"), n)];
            let floored = b.eval_floor(&env, s);
            let asym = b.expr.eval_ints_f64(&[
                (Var::new("M"), m),
                (Var::new("N"), n),
                (crate::s_var(), s),
            ]);
            assert!(floored <= asym * 1.0 + 1e-9, "floored {floored} vs {asym}");
            assert!(floored > 0.0);
        }
    }

    #[test]
    fn floored_eval_survives_i128_overflow_conservatively() {
        // |V| ≈ 2^64: |V|² overflows i128, so the q-th-root comparison loses
        // one side (or both) — the count must round *down*, keeping the
        // bound sound (≤ the unfloored asymptotic form), not panic.
        let (p, su) = mgs_like();
        let analysis = crate::Analysis::run(&p, &[vec![7, 5]]).unwrap();
        let b = analysis.classical_bound(su);
        let (m, n, s) = ((1i128 << 31) - 1, 1i128 << 17, 1i128 << 12);
        let env = [(Var::new("M"), m), (Var::new("N"), n)];
        let floored = b.eval_floor(&env, s);
        let asym =
            b.expr
                .eval_ints_f64(&[(Var::new("M"), m), (Var::new("N"), n), (crate::s_var(), s)]);
        assert!(floored > 0.0);
        assert!(
            floored <= asym * (1.0 + 1e-9),
            "floored {floored} vs {asym}"
        );
    }

    #[test]
    fn volume_uses_drop_first_convention() {
        let (p, su) = mgs_like();
        let analysis = crate::Analysis::run(&p, &[vec![7, 5]]).unwrap();
        let b = analysis.classical_bound(su);
        let v = iolb_ir::count::eval_params(&b.volume, &[("M", 10), ("N", 6)]);
        // Σ_{k=1}^{5} 10·(6-1-k) = 10·(4+3+2+1+0) = 100.
        assert_eq!(v, Rational::int(100));
    }
}
