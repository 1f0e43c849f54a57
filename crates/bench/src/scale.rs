//! Curve-engine scaling series: synthetic GEMM-class traces in closed
//! form, priced by the streaming engine without ever materializing the
//! trace (LRU feeds the chunks to one recency ring; OPT shards its
//! summary pass, then streams one priority stack).
//!
//! The sweep's shipped kernels top out around 10⁶ trace events — far too
//! small to exercise the out-of-core machinery. This module provides the
//! missing scale axis: [`GemmTrace`] is the untiled `C += A·B` element
//! trace (the exact layout the `stack_distance` criterion bench uses,
//! pinned by test at n = 24) as a *pure function* of position, so a
//! 10⁸-event trace costs nothing to "generate" and the whole measurement
//! is curve-engine time. [`measure_scaling_series`] runs the
//! 10⁶ → 10⁷ → 10⁸ series the pebble validation binary records in
//! `BENCH_pebble.json` meta and `xtask gate` watches for wall-time
//! regressions.

use crate::sweep::{price_curves, ScalingPoint};
use iolb_cdag::SpillPolicy;
use iolb_govern::CancelToken;
use iolb_memsim::ChunkedTrace;
use std::time::Instant;

/// The untiled GEMM element-access trace (`C` initialized, then
/// `c[i,j] += a[i,k]·b[k,j]` in `i, j, k` program order) as a closed-form
/// position → event map: `n²` initializing writes of `C`, then four
/// events per `(i, j, k)` triple — read `a[i,k]`, read `b[k,j]`, read
/// `c[i,j]`, write `c[i,j]`. Total length `n² + 4n³`.
#[derive(Debug, Clone, Copy)]
pub struct GemmTrace {
    n: u64,
}

impl GemmTrace {
    /// Trace of the `n × n × n` product.
    pub fn new(n: u64) -> GemmTrace {
        assert!(n >= 1, "GEMM size must be positive");
        GemmTrace { n }
    }

    /// Smallest `n` whose trace reaches `target` events.
    pub fn with_at_least_accesses(target: u64) -> GemmTrace {
        let mut n = 1u64;
        while n * n + 4 * n * n * n < target {
            n += 1;
        }
        GemmTrace::new(n)
    }

    /// Problem size `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The packed event at `pos` (array bases: `a` at 0, `b` at `n²`,
    /// `c` at `2n²`).
    #[inline]
    fn event(&self, pos: u64) -> u64 {
        let n = self.n;
        let (b0, c0) = (n * n, 2 * n * n);
        if pos < n * n {
            return ((c0 + pos) << 1) | 1;
        }
        let q = pos - n * n;
        let (ijk, r) = (q / 4, q % 4);
        let k = ijk % n;
        let j = (ijk / n) % n;
        let i = ijk / (n * n);
        match r {
            0 => (i * n + k) << 1,
            1 => (b0 + k * n + j) << 1,
            2 => (c0 + i * n + j) << 1,
            _ => ((c0 + i * n + j) << 1) | 1,
        }
    }
}

impl ChunkedTrace for GemmTrace {
    fn len(&self) -> u64 {
        self.n * self.n + 4 * self.n * self.n * self.n
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        assert!(
            start + buf.len() as u64 <= self.len(),
            "fill window exceeds trace length {}",
            self.len()
        );
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = self.event(start + i as u64);
        }
    }
}

/// The default scaling targets (trace events).
pub const SCALING_TARGETS: [u64; 3] = [1_000_000, 10_000_000, 100_000_000];

/// Capacity horizon of the scaling passes — matches the sweep's largest
/// grid offset, so the OPT stack depth is the one the harness actually
/// runs with.
pub const SCALING_HORIZON: usize = 512;

/// Times one streaming pass per `(target, policy)` over the closed-form
/// GEMM trace. Release-build territory (the largest point streams 10⁸
/// events); the pebble validation binary attaches the result to its
/// report meta.
pub fn measure_scaling_series() -> Vec<ScalingPoint> {
    scaling_series(&SCALING_TARGETS)
}

/// [`measure_scaling_series`] over explicit targets (tests use small ones).
pub fn scaling_series(targets: &[u64]) -> Vec<ScalingPoint> {
    let token = CancelToken::unlimited();
    let mut out = Vec::with_capacity(targets.len() * 2);
    for &target in targets {
        let trace = GemmTrace::with_at_least_accesses(target);
        let accesses = trace.len();
        for policy in [SpillPolicy::Lru, SpillPolicy::MinNextUse] {
            let t = Instant::now();
            // Cap 0: every point goes to the streaming engine, the
            // one whose throughput the series records.
            let [curve] = price_curves(&trace, [policy], SCALING_HORIZON, 0, &token)
                .expect("ungoverned scaling pass");
            assert_eq!(curve.accesses(), accesses);
            out.push(ScalingPoint {
                accesses,
                policy,
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_memsim::{CurveEngine, ShardedCurveEngine};

    /// The nested-loop construction the `stack_distance` criterion bench
    /// builds (its `gemm_trace()` at n = 24, reproduced here verbatim).
    fn looped_gemm(n: usize) -> Vec<u64> {
        let (a0, b0, c0) = (0, n * n, 2 * n * n);
        let mut t = Vec::with_capacity(4 * n * n * n + n * n);
        for i in 0..n {
            for j in 0..n {
                t.push(((c0 + i * n + j) as u64) << 1 | 1);
            }
        }
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    t.push(((a0 + i * n + k) as u64) << 1);
                    t.push(((b0 + k * n + j) as u64) << 1);
                    t.push(((c0 + i * n + j) as u64) << 1);
                    t.push(((c0 + i * n + j) as u64) << 1 | 1);
                }
            }
        }
        t
    }

    #[test]
    fn closed_form_matches_the_bench_loop_layout() {
        for n in [1u64, 2, 3, 7, 24] {
            let want = looped_gemm(n as usize);
            let trace = GemmTrace::new(n);
            assert_eq!(trace.len(), want.len() as u64, "n={n}");
            let mut got = vec![0u64; want.len()];
            trace.fill(0, &mut got);
            assert_eq!(got, want, "n={n}");
            // Windowed fills agree with the bulk fill.
            let start = (want.len() / 3) as u64;
            let mut buf = vec![0u64; 7.min(want.len() - start as usize)];
            trace.fill(start, &mut buf);
            assert_eq!(buf, want[start as usize..start as usize + buf.len()]);
        }
    }

    #[test]
    fn streaming_curves_on_the_symbolic_trace_match_materialized() {
        let trace = GemmTrace::new(6);
        let mut packed = vec![0u64; trace.len() as usize];
        trace.fill(0, &mut packed);
        let token = CancelToken::unlimited();
        let engine = ShardedCurveEngine::with_chunk_len(97);
        let mut reference = CurveEngine::new();
        let horizon = 64;
        assert_eq!(
            engine.try_lru(&trace, horizon, &token).unwrap(),
            reference.lru_packed(&packed, horizon)
        );
        assert_eq!(
            engine.try_opt(&trace, horizon, &token).unwrap(),
            reference.opt_packed(&packed, horizon)
        );
    }

    #[test]
    fn scaling_series_covers_every_target_and_policy() {
        let points = scaling_series(&[500, 4_000]);
        assert_eq!(points.len(), 4);
        assert!(points[0].accesses >= 500 && points[2].accesses >= 4_000);
        assert_eq!(points[0].policy, SpillPolicy::Lru);
        assert_eq!(points[1].policy, SpillPolicy::MinNextUse);
        // MIN at the same size reuses the same trace length.
        assert_eq!(points[2].accesses, points[3].accesses);
    }

    #[test]
    fn target_sizing_is_minimal() {
        let t = GemmTrace::with_at_least_accesses(1_000_000);
        assert!(t.len() >= 1_000_000);
        let smaller = GemmTrace::new(t.n() - 1);
        assert!(smaller.len() < 1_000_000);
    }
}
