//! Graph-level I/O lower bounds computed from the raw CDAG alone.
//!
//! The symbolic σ/hourglass derivation refuses every kernel outside its
//! affine class. The three quantities in this module need nothing but the
//! graph, so they cover exactly that refused population:
//!
//! * [`input_floor`] — every input datum with a consumer must be loaded
//!   at least once in *any* complete execution;
//! * [`VisitProfile`] — the computable core of the DAG-visit / partition
//!   framework (Bilardi & De Stefani, arXiv:2210.01897): any execution
//!   order splits into consecutive segments of `T` computes, each segment
//!   pays for the part of its in-set that cannot sit in cache, and the
//!   in-set size is lower-bounded by pure degree counting;
//! * [`SpectralProfile`] — a boundary bound in the style of Jain & Zaharia
//!   (arXiv:1909.09791): the cut around any `T`-subset is at least
//!   `λ₂·T(n−T)/n`, with `λ₂` replaced by a *certified* lower bound
//!   obtained by Cauchy interlacing on the grounded Laplacian, an
//!   integer-safe power-iteration window, and margin-guarded Cholesky
//!   probes.
//!
//! Every bound here is sound for the red-white cost model this workspace
//! simulates: loads are read misses, produces are free, schedules are
//! topological orders without recomputation, and a capacity-`S` cache
//! holds at most `S` node values. The differential fuzz oracle enforces
//! `engine bound ≤ OPT(S)` at every swept `S`.
//!
//! # The segment inequality
//!
//! Both the visit and the spectral bound instantiate one inequality. Fix
//! any execution (a topological order π of the `n_c` computes) and cut π
//! into consecutive segments `E_1 … E_q'` of `T` computes each (the last
//! may be smaller). Every value of `InSet(E_j)` — predecessors of `E_j`
//! outside `E_j` — is read during segment `j`, exists before the segment
//! starts (its producer is an input or an earlier compute), and can only
//! be in cache at segment start (at most `S` values) or loaded during the
//! segment. Hence
//!
//! ```text
//! loads ≥ Σ_j max(0, |InSet(E_j)| − S).
//! ```
//!
//! The two engines differ only in how they lower-bound `|InSet(E_j)|`
//! without knowing π: the visit engine by degree counting over *any*
//! `T`-subset, the spectral engine by the Laplacian cut bound.

use crate::graph::Cdag;

/// Number of input nodes with at least one consumer: each is read by some
/// compute in every complete execution, and the first read of an input is
/// a miss at every capacity (inputs are never produced). A lower bound on
/// loads at every `S`, for every schedule.
pub fn input_floor(cdag: &Cdag) -> u64 {
    cdag.input_nodes()
        .filter(|&v| !cdag.succs(v).is_empty())
        .count() as u64
}

/// Precomputed degree profile backing the visit/partition bound.
///
/// For any set `E` of `T` computes, `|InSet(E)| ≥ |preds(E)| − T`, and
/// counting edges into `E` two ways gives
/// `|preds(E)| · δ ≥ Σ_{v∈E} indeg(v) ≥ P[T]`, where `δ` is the maximum
/// out-degree over all nodes and `P[T]` is the sum of the `T` *smallest*
/// compute in-degrees. So every segment of `T` computes satisfies
/// `|InSet| ≥ ⌈P[T]/δ⌉ − T`, independent of the execution order.
#[derive(Debug, Clone)]
pub struct VisitProfile {
    /// `prefix[t]` = sum of the `t` smallest compute in-degrees.
    prefix: Vec<u64>,
    /// Maximum out-degree over all nodes (≥ 1 once there is any edge).
    outdeg_max: u64,
    /// Number of compute nodes.
    n_c: usize,
    /// Largest guaranteed in-set over every segment length `T`: the bound
    /// is 0 at every capacity `s ≥ peak`.
    peak: u64,
}

impl VisitProfile {
    /// Builds the profile in `O(n log n)`.
    pub fn new(cdag: &Cdag) -> VisitProfile {
        let mut indegs: Vec<u64> = cdag
            .compute_nodes()
            .map(|v| cdag.preds(v).len() as u64)
            .collect();
        indegs.sort_unstable();
        let mut prefix = Vec::with_capacity(indegs.len() + 1);
        prefix.push(0u64);
        let mut acc = 0u64;
        for d in &indegs {
            acc += d;
            prefix.push(acc);
        }
        let outdeg_max = (0..cdag.len() as u32)
            .map(|v| cdag.succs(crate::graph::NodeId(v)).len() as u64)
            .max()
            .unwrap_or(0)
            .max(1);
        let mut profile = VisitProfile {
            prefix,
            outdeg_max,
            n_c: cdag.num_computes(),
            peak: 0,
        };
        profile.peak = (1..=profile.n_c)
            .map(|t| profile.min_inset(t))
            .max()
            .unwrap_or(0);
        profile
    }

    /// Guaranteed in-set size of *any* set of exactly `t` computes.
    fn min_inset(&self, t: usize) -> u64 {
        let loaded = self.prefix[t].div_ceil(self.outdeg_max);
        loaded.saturating_sub(t as u64)
    }

    /// Lower bound on loads at capacity `s`: the best segment length `T`
    /// of `⌊n_c/T⌋ · max(0, min_inset(T) − s)`. Every slack is 0 once `s`
    /// reaches the profile's peak in-set, so the scan is skipped there.
    pub fn bound(&self, s: usize) -> u64 {
        if self.peak <= s as u64 {
            return 0;
        }
        let mut best = 0u64;
        for t in 1..=self.n_c {
            let slack = self.min_inset(t).saturating_sub(s as u64);
            if slack == 0 {
                continue;
            }
            best = best.max((self.n_c / t) as u64 * slack);
        }
        best
    }
}

/// Node-count ceiling above which the spectral engine declares itself
/// inapplicable: the certification pass factors a dense grounded
/// Laplacian, so cost grows cubically with the node count.
pub const SPECTRAL_NODE_CAP: usize = 512;

/// Fixed-point denominator (2⁴⁰) of the certified `λ₂` lower bound.
const LAMBDA_SCALE_BITS: u32 = 40;

/// Precomputed spectral profile: a certified dyadic lower bound on the
/// algebraic connectivity `λ₂` of the undirected CDAG, plus the degree
/// data the boundary bound needs.
///
/// Soundness chain, in order:
/// 1. `λ₂(L) ≥ λ_min(L_g)` for the grounded Laplacian `L_g` (delete one
///    row/column) — Cauchy interlacing;
/// 2. an integer-safe power iteration on `σI − L_g` gives an exact
///    rational Rayleigh quotient, hence a certified *upper* window for
///    `λ_min(L_g)` that seeds the bisection (window quality affects only
///    tightness, never soundness);
/// 3. bisection certifies `λ_min(L_g) ≥ t` by running a floating-point
///    Cholesky factorization of `L_g − (t + μ)I` with margin
///    `μ ≫ n·ε·‖L_g‖`: successful completion implies the matrix is within
///    `O(n·ε·‖·‖)` of positive semidefinite, so `λ_min ≥ t` holds
///    rigorously despite rounding;
/// 4. the final bound arithmetic is pure `u128` on the dyadic `λ₂` lower
///    bound, rounded *down* at every division.
///
/// For a full segment `E` of `T` computes, `cut(E) ≥ λ₂·T(n−T)/n`; each
/// cross edge is cut by at most two full segments, every in-edge of a
/// segment is a cross edge, and a node feeds a segment's in-set through
/// at most `δ` edges, which yields
/// `loads ≥ ⌊n_c/T⌋·λ₂·T(n−T)/(2n·δ) − ⌈n_c/T⌉·S`.
#[derive(Debug, Clone)]
pub struct SpectralProfile {
    /// Certified `λ₂` lower bound, numerator over `2^LAMBDA_SCALE_BITS`.
    lambda2_num: u128,
    /// Maximum (simple) out-degree over all nodes, ≥ 1.
    outdeg_max: u64,
    /// Total node count.
    n: usize,
    /// Compute node count.
    n_c: usize,
}

impl SpectralProfile {
    /// Builds the profile, or `None` when the engine does not apply:
    /// graphs above [`SPECTRAL_NODE_CAP`] or without any edge.
    pub fn new(cdag: &Cdag) -> Option<SpectralProfile> {
        let n = cdag.len();
        if !(3..=SPECTRAL_NODE_CAP).contains(&n) || cdag.num_edges() == 0 {
            return None;
        }
        // Undirected degree of every node; the CSR is duplicate-free, so
        // preds/succs lengths are simple-graph degrees.
        let deg: Vec<u64> = (0..n as u32)
            .map(|v| {
                let v = crate::graph::NodeId(v);
                (cdag.preds(v).len() + cdag.succs(v).len()) as u64
            })
            .collect();
        let ground = deg
            .iter()
            .enumerate()
            .max_by_key(|&(i, d)| (*d, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        // Dense grounded Laplacian (f64 entries are small integers).
        let m = n - 1;
        let map = |v: usize| {
            if v < ground {
                Some(v)
            } else if v == ground {
                None
            } else {
                Some(v - 1)
            }
        };
        let mut lap = vec![0f64; m * m];
        let mut lap_int = vec![0i64; m * m];
        for (i, &d) in deg.iter().enumerate() {
            if let Some(r) = map(i) {
                lap[r * m + r] = d as f64;
                lap_int[r * m + r] = d as i64;
            }
        }
        for v in 0..n as u32 {
            for &u in cdag.succs(crate::graph::NodeId(v)) {
                if let (Some(a), Some(b)) = (map(v as usize), map(u as usize)) {
                    lap[a * m + b] = -1.0;
                    lap[b * m + a] = -1.0;
                    lap_int[a * m + b] = -1;
                    lap_int[b * m + a] = -1;
                }
            }
        }
        let d_max = *deg.iter().max().unwrap_or(&1);
        // Certified upper window for λ_min(L_g): the smallest diagonal
        // entry (Rayleigh quotient of a basis vector), tightened by the
        // integer power-iteration Rayleigh estimate on σI − L_g.
        let min_diag = (0..m).map(|i| lap_int[i * m + i]).min().unwrap_or(0) as f64;
        let sigma = 2 * d_max as i64 + 1;
        let mut hi = min_diag.min(power_iteration_window(&lap_int, m, sigma));
        if hi <= 0.0 {
            hi = 0.0;
        }
        // Bisection with margin-guarded Cholesky probes. The margin is a
        // generous multiple of n·ε·‖L_g − tI‖_∞, far above the backward
        // error of a completed Cholesky factorization in IEEE double.
        let norm = 2.0 * d_max as f64 + hi.abs() + 1.0;
        let margin = 1024.0 * m as f64 * f64::EPSILON * norm;
        let mut lo = 0.0f64;
        let mut hi = hi.max(0.0);
        let mut scratch = vec![0f64; m * m];
        for _ in 0..24 {
            let t = 0.5 * (lo + hi);
            if t <= lo || t - lo < margin {
                break;
            }
            scratch.copy_from_slice(&lap);
            for i in 0..m {
                scratch[i * m + i] -= t + margin;
            }
            if cholesky_succeeds(&mut scratch, m) {
                lo = t;
            } else {
                hi = t;
            }
        }
        let lambda2_num = (lo * (1u64 << LAMBDA_SCALE_BITS) as f64).floor().max(0.0) as u128;
        let outdeg_max = (0..n as u32)
            .map(|v| cdag.succs(crate::graph::NodeId(v)).len() as u64)
            .max()
            .unwrap_or(0)
            .max(1);
        Some(SpectralProfile {
            lambda2_num,
            outdeg_max,
            n,
            n_c: cdag.num_computes(),
        })
    }

    /// Certified `λ₂` lower bound as an `f64` (test/report surface; the
    /// bound arithmetic itself stays in integers).
    pub fn lambda2_lower(&self) -> f64 {
        self.lambda2_num as f64 / (1u64 << LAMBDA_SCALE_BITS) as f64
    }

    /// Lower bound on loads at capacity `s`, maximized over the segment
    /// length. All arithmetic is `u128` with downward rounding.
    pub fn bound(&self, s: usize) -> u64 {
        if self.lambda2_num == 0 || self.n_c == 0 {
            return 0;
        }
        let (n, n_c) = (self.n as u128, self.n_c as u128);
        let mut best = 0u64;
        for t in 1..=self.n_c as u128 {
            let q = n_c / t;
            // C_total ≥ q·λ₂·T(n−T)/(2n), rounded down.
            let cross = q * self.lambda2_num * t * (n - t) / (n << (LAMBDA_SCALE_BITS + 1));
            let inset_sum = cross / self.outdeg_max as u128;
            let q_all = n_c.div_ceil(t);
            let val = inset_sum.saturating_sub(q_all * s as u128);
            best = best.max(val.min(u64::MAX as u128) as u64);
        }
        best
    }
}

/// Integer-safe power iteration on `B = σI − L_g`: ~24 matrix-vector
/// rounds in `i64` with shift rescaling, then one exact `i128` Rayleigh
/// quotient `⌈vᵀBv / vᵀv⌉`, which certifies `λ_max(B) ≥ vᵀBv/vᵀv` and so
/// `λ_min(L_g) ≤ σ − vᵀBv/vᵀv`. Returns that upper window (an `f64` that
/// only seeds the bisection — soundness never depends on it).
fn power_iteration_window(lap_int: &[i64], m: usize, sigma: i64) -> f64 {
    let mut v: Vec<i64> = (0..m)
        .map(|i| {
            // Deterministic xorshift fill; any nonzero pattern works.
            let mut x = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 255) as i64 + 1
        })
        .collect();
    let mut next = vec![0i64; m];
    for _ in 0..24 {
        for (r, out) in next.iter_mut().enumerate() {
            let mut acc: i64 = 0;
            let row = &lap_int[r * m..(r + 1) * m];
            for (c, &l) in row.iter().enumerate() {
                if l != 0 {
                    acc -= l * v[c];
                }
            }
            *out = sigma * v[r] + acc;
        }
        let max_abs = next.iter().map(|x| x.abs()).max().unwrap_or(0);
        let shift = (64 - max_abs.leading_zeros()).saturating_sub(20);
        for (dst, &src) in v.iter_mut().zip(next.iter()) {
            *dst = src >> shift;
        }
        if v.iter().all(|&x| x == 0) {
            return f64::INFINITY;
        }
    }
    let mut num: i128 = 0; // vᵀBv
    let mut den: i128 = 0; // vᵀv
    for r in 0..m {
        let mut bv: i128 = sigma as i128 * v[r] as i128;
        let row = &lap_int[r * m..(r + 1) * m];
        for (c, &l) in row.iter().enumerate() {
            if l != 0 {
                bv -= l as i128 * v[c] as i128;
            }
        }
        num += v[r] as i128 * bv;
        den += v[r] as i128 * v[r] as i128;
    }
    if den == 0 {
        return f64::INFINITY;
    }
    // λ_min(L_g) ≤ σ − num/den; round the subtrahend down (f64 division
    // here only widens the window).
    sigma as f64 - (num as f64 / den as f64) + 1.0
}

/// In-place lower Cholesky attempt on a dense symmetric `m×m` matrix;
/// `true` when every pivot stays strictly positive and finite.
fn cholesky_succeeds(a: &mut [f64], m: usize) -> bool {
    for j in 0..m {
        let mut d = a[j * m + j];
        for k in 0..j {
            d -= a[j * m + k] * a[j * m + k];
        }
        if d <= 0.0 || !d.is_finite() {
            return false;
        }
        let root = d.sqrt();
        a[j * m + j] = root;
        for i in (j + 1)..m {
            let mut x = a[i * m + j];
            for k in 0..j {
                x -= a[i * m + k] * a[j * m + k];
            }
            a[i * m + j] = x / root;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::*;
    use crate::graph::{NodeId, NodeSpec};
    use iolb_ir::{ArrayId, StmtId};

    fn input(flat: usize) -> NodeSpec {
        NodeSpec::Input {
            array: ArrayId(0),
            flat,
        }
    }

    fn compute(iv: i32) -> NodeSpec {
        NodeSpec::Compute {
            stmt: StmtId(0),
            iv: Box::new([iv]),
        }
    }

    /// x_0, x_1 inputs; chain v_i = op(v_{i-1}, x_i) modeled with one
    /// fresh input per compute.
    fn chain(len: usize) -> Cdag {
        let mut kinds = Vec::new();
        let mut edges = Vec::new();
        // Alternate input, compute so edges run forward.
        for i in 0..len {
            kinds.push(input(i)); // node 2i
            kinds.push(compute(i as i32)); // node 2i+1
            edges.push((2 * i as u32, 2 * i as u32 + 1));
            if i > 0 {
                edges.push((2 * i as u32 - 1, 2 * i as u32 + 1));
            }
        }
        Cdag::from_edges(kinds, edges)
    }

    #[test]
    fn input_floor_counts_consumed_inputs() {
        let g = chain(5);
        assert_eq!(input_floor(&g), 5);
        // A graph with no inputs has floor zero.
        let free = Cdag::from_edges(vec![compute(0), compute(1)], vec![(0, 1)]);
        assert_eq!(input_floor(&free), 0);
    }

    #[test]
    fn visit_bound_is_tight_on_chains_and_sound() {
        let g = chain(16);
        let p = VisitProfile::new(&g);
        // Chain computes have indeg 2 (1 for the head), outdeg_max = 1:
        // min_inset(T) ≈ T, so the whole-graph segment gives ~n_c − s.
        let b = p.bound(2);
        assert!(b >= 13, "chain visit bound too weak: {b}");
        // Soundness vs the OPT curve of the program-order trace.
        let mut trace = Vec::new();
        g.packed_program_order_trace(&mut trace);
        let mut engine = iolb_memsim::CurveEngine::new();
        let opt = engine.opt_packed(&trace, 64);
        for s in 2..=16 {
            assert!(
                p.bound(s) <= opt.loads(s),
                "S={s}: visit {} > OPT {}",
                p.bound(s),
                opt.loads(s)
            );
        }
    }

    #[test]
    fn visit_bound_handles_degenerate_graphs() {
        // No edges at all: everything is free.
        let free = Cdag::from_edges(vec![compute(0), compute(1)], vec![]);
        let p = VisitProfile::new(&free);
        assert_eq!(p.bound(1), 0);
        // Empty graph.
        let empty = Cdag::from_edges(vec![], vec![]);
        assert_eq!(VisitProfile::new(&empty).bound(1), 0);
    }

    /// [`VisitProfile::bound`] without the peak short-circuit: the scan
    /// over every segment length.
    fn unshortened_bound(p: &VisitProfile, s: usize) -> u64 {
        (1..=p.n_c)
            .map(|t| (p.n_c / t) as u64 * p.min_inset(t).saturating_sub(s as u64))
            .max()
            .unwrap_or(0)
    }

    /// `inputs` inputs, then one compute per entry of `preds`, reading the
    /// earlier nodes that entry picks (taken modulo the compute's index).
    fn random_dag(inputs: usize, preds: &[Vec<usize>]) -> Cdag {
        let mut kinds: Vec<NodeSpec> = (0..inputs).map(input).collect();
        let mut edges = Vec::new();
        for (c, picks) in preds.iter().enumerate() {
            let v = inputs + c;
            kinds.push(compute(c as i32));
            for &p in picks {
                edges.push(((p % v) as u32, v as u32));
            }
        }
        Cdag::from_edges(kinds, edges)
    }

    #[test]
    fn visit_short_circuit_runs_both_branches_on_a_fan_in() {
        // Every compute reads 6 private inputs (out-degree 1): the
        // guaranteed in-set of T computes is 5T, so the peak is 5·n_c.
        let (n_c, fan) = (12usize, 6usize);
        let preds: Vec<Vec<usize>> = (0..n_c)
            .map(|c| (c * fan..(c + 1) * fan).collect())
            .collect();
        let g = random_dag(n_c * fan, &preds);
        let p = VisitProfile::new(&g);
        assert_eq!(p.peak, 5 * n_c as u64);
        for s in [1, 4, 16, 59, 60, 61, 64, 256] {
            assert_eq!(p.bound(s), unshortened_bound(&p, s), "S={s}");
        }
        assert!(p.bound(59) > 0, "below the peak the scan runs");
        assert_eq!(p.bound(60), 0, "at the peak the scan is skipped");
    }

    proptest::proptest! {
        /// The short-circuit is exact: on random CDAGs the bound equals the
        /// full scan at capacities on both sides of the profile's peak.
        #[test]
        fn visit_short_circuit_matches_the_full_scan(
            inputs in 1usize..24,
            preds in proptest::collection::vec(
                proptest::collection::vec(0usize..64, 0..6),
                1..40,
            ),
        ) {
            let g = random_dag(inputs, &preds);
            let p = VisitProfile::new(&g);
            let peak = p.peak as usize;
            for s in [1, 2, 3, 5, 8, 13, 21, 34, peak.saturating_sub(1).max(1), peak.max(1), peak + 1] {
                proptest::prop_assert_eq!(p.bound(s), unshortened_bound(&p, s), "S={}", s);
            }
        }
    }

    #[test]
    fn spectral_profile_certifies_a_positive_lambda2_on_a_clique() {
        // K5 as a layered DAG: λ₂ of K5 is 5; the grounded bound must
        // certify something strictly positive and ≤ 5.
        let kinds: Vec<NodeSpec> = (0..5).map(compute).collect();
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b));
            }
        }
        let g = Cdag::from_edges(kinds, edges);
        let p = SpectralProfile::new(&g).expect("applicable");
        let l2 = p.lambda2_lower();
        assert!(l2 > 0.5, "clique λ₂ lower bound too weak: {l2}");
        assert!(l2 <= 5.0 + 1e-9, "clique λ₂ lower bound unsound: {l2}");
    }

    #[test]
    fn spectral_profile_is_zero_on_disconnected_graphs() {
        // Two disjoint edges: λ₂ = 0, so the certified bound collapses.
        let kinds: Vec<NodeSpec> = (0..4).map(compute).collect();
        let g = Cdag::from_edges(kinds, vec![(0, 1), (2, 3)]);
        if let Some(p) = SpectralProfile::new(&g) {
            assert!(p.lambda2_lower() < 1e-6, "disconnected λ₂ must be ~0");
            assert_eq!(p.bound(1), 0);
        }
    }

    #[test]
    fn spectral_refuses_oversized_and_trivial_graphs() {
        let empty = Cdag::from_edges(vec![], vec![]);
        assert!(SpectralProfile::new(&empty).is_none());
        let no_edges = Cdag::from_edges((0..4).map(compute).collect(), vec![]);
        assert!(SpectralProfile::new(&no_edges).is_none());
    }

    #[test]
    fn spectral_bound_is_sound_vs_opt_on_small_graphs() {
        let g = chain(12);
        if let Some(p) = SpectralProfile::new(&g) {
            let mut trace = Vec::new();
            g.packed_program_order_trace(&mut trace);
            let mut engine = iolb_memsim::CurveEngine::new();
            let opt = engine.opt_packed(&trace, 64);
            for s in 2..=16 {
                assert!(
                    p.bound(s) <= opt.loads(s),
                    "S={s}: spectral {} > OPT {}",
                    p.bound(s),
                    opt.loads(s)
                );
            }
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        let g = chain(9);
        let a = VisitProfile::new(&g);
        let b = VisitProfile::new(&g);
        for s in 1..=8 {
            assert_eq!(a.bound(s), b.bound(s));
        }
        let pa = SpectralProfile::new(&g).map(|p| p.lambda2_num);
        let pb = SpectralProfile::new(&g).map(|p| p.lambda2_num);
        assert_eq!(pa, pb);
    }

    #[test]
    fn grounded_laplacian_interlaces_below_true_lambda2_on_a_path() {
        // P4 path: λ₂ = 2 − √2 ≈ 0.586. The certified bound must sit in
        // (0, 0.586].
        let kinds: Vec<NodeSpec> = (0..4).map(compute).collect();
        let g = Cdag::from_edges(kinds, vec![(0, 1), (1, 2), (2, 3)]);
        let p = SpectralProfile::new(&g).expect("applicable");
        let l2 = p.lambda2_lower();
        assert!(l2 > 0.0, "path λ₂ lower bound vanished");
        assert!(l2 <= 2.0 - std::f64::consts::SQRT_2 + 1e-9, "unsound: {l2}");
        // NodeId smoke: the ground vertex choice must not disturb ids.
        assert_eq!(g.preds(NodeId(1)), &[0]);
    }
}
