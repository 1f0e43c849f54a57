//! Streaming stack-distance engines for out-of-core traces.
//!
//! The materialized [`CurveEngine`](crate::CurveEngine) walks one in-memory
//! `&[u64]` slice with 32-bit id bookkeeping — exact and fast up to the
//! `u32` sentinel ceiling, but it requires the whole trace resident. This
//! module prices the same curves from a *pull* source ([`ChunkedTrace`])
//! without materializing the trace, in 64-bit id/position space, one
//! chunk at a time. Both engines run the same per-access stack step for
//! each policy, at their own word width:
//!
//! * **LRU** ([`ShardedCurveEngine::try_lru`]) — the chunks are filled in
//!   order and fed to one recency ring (`LruRing`) of at most `horizon`
//!   cells, whose one-byte-per-cell state table grows to each chunk's
//!   largest cell. The pass is sequential and needs O(cells + horizon +
//!   one chunk) memory and no per-chunk summaries.
//! * **OPT** ([`ShardedCurveEngine::try_opt`]) — an access's priority is
//!   its next-use position, which a stream does not know ahead of time.
//!   Parallel workers extract per-chunk first/last summaries, one cheap
//!   backward sweep threads cross-chunk next-use positions through them,
//!   and a forward pass feeds each access, with the priority its chunk's
//!   local threading gives, to one `u64` priority stack (`OptStack`)
//!   carried across chunk boundaries.
//!
//! Both passes poll the governance token at the [`Seam::LruPass`] /
//! [`Seam::OptPass`] seams every 4096 positions of every chunk (and at
//! each chunk's start), so cancellation and deadlines land in bounded
//! time.

use crate::curve::{LruRing, MissCurve, OptStack, StackWord, DROPPED, POLL_MASK};
use crate::{cell_of, cell_universe, is_write};
use iolb_govern::{AnalysisError, CancelToken, Seam};
use rayon::prelude::*;
use std::collections::HashMap;

/// A pull source of packed trace events (`(cell << 1) | write` per
/// `u64`), random-access at chunk granularity so parallel shards can read
/// disjoint windows concurrently. Implementations are stateless readers:
/// `fill` may be called from many threads at once.
pub trait ChunkedTrace: Sync {
    /// Total number of events.
    fn len(&self) -> u64;

    /// True when the trace has no events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` with the events at positions `start..start + buf.len()`.
    ///
    /// # Panics
    /// Implementations may panic when the window exceeds the trace.
    fn fill(&self, start: u64, buf: &mut [u64]);

    /// The whole trace as one resident slice, when the source already holds
    /// it in memory (so pricing it materialized needs no copy).
    fn as_packed(&self) -> Option<&[u64]> {
        None
    }
}

/// A materialized packed trace is trivially chunked — the bridge that
/// lets any `Vec<u64>` trace (a tightness candidate above the size rule's
/// cap, a fuzz case) flow through the sharded engines.
impl ChunkedTrace for [u64] {
    fn len(&self) -> u64 {
        <[u64]>::len(self) as u64
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        let s = start as usize;
        buf.copy_from_slice(&self[s..s + buf.len()]);
    }

    fn as_packed(&self) -> Option<&[u64]> {
        Some(self)
    }
}

impl ChunkedTrace for Vec<u64> {
    fn len(&self) -> u64 {
        self.as_slice().len() as u64
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        ChunkedTrace::fill(self.as_slice(), start, buf);
    }

    fn as_packed(&self) -> Option<&[u64]> {
        Some(self)
    }
}

impl<T: ChunkedTrace + ?Sized> ChunkedTrace for &T {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        (**self).fill(start, buf)
    }

    fn as_packed(&self) -> Option<&[u64]> {
        (**self).as_packed()
    }
}

/// "No position" marker in the 64-bit id space.
const NONE64: u64 = u64::MAX;

/// Default chunk length: 1 Mi events (8 MiB of buffer per worker).
pub const DEFAULT_CHUNK_LEN: usize = 1 << 20;

/// Streaming miss-curve engine over a [`ChunkedTrace`]: the LRU pass
/// feeds the chunks in order, and the OPT pass shards its summary pass
/// across rayon workers.
#[derive(Debug, Clone)]
pub struct ShardedCurveEngine {
    chunk_len: usize,
}

impl Default for ShardedCurveEngine {
    fn default() -> ShardedCurveEngine {
        ShardedCurveEngine::new()
    }
}

/// Per-chunk output of the parallel OPT summary pass.
struct OptChunk {
    /// `(cell, packed global position of the first in-chunk access)` in
    /// first-touch order.
    firsts: Vec<(u64, u64)>,
    /// `(cell, last local position)` per distinct cell.
    lasts: Vec<(u64, u32)>,
    /// Packed next use *after* this chunk for each entry of `lasts`
    /// ([`NONE64`] when the cell never recurs); filled by the backward
    /// threading sweep.
    nu_of_last: Vec<u64>,
    /// Largest cell id seen.
    max_cell: u64,
}

impl ShardedCurveEngine {
    /// Engine with the default chunk length.
    pub fn new() -> ShardedCurveEngine {
        ShardedCurveEngine::with_chunk_len(DEFAULT_CHUNK_LEN)
    }

    /// Engine with an explicit chunk length (tests force tiny chunks so
    /// every boundary path is exercised on small traces).
    ///
    /// # Panics
    /// Panics when `chunk_len` is zero.
    pub fn with_chunk_len(chunk_len: usize) -> ShardedCurveEngine {
        assert!(chunk_len >= 1, "chunk length must be positive");
        ShardedCurveEngine { chunk_len }
    }

    /// Exact LRU miss curve for capacities `1..=horizon`, bitwise equal
    /// to [`CurveEngine::lru_packed`](crate::CurveEngine::lru_packed) on
    /// the materialized trace: the chunks, filled in order, feed one
    /// recency ring.
    ///
    /// # Errors
    /// Cancellation/deadline from the token (polled at
    /// [`Seam::LruPass`]).
    pub fn try_lru(
        &self,
        trace: &(impl ChunkedTrace + ?Sized),
        horizon: usize,
        token: &CancelToken,
    ) -> Result<MissCurve, AnalysisError> {
        assert!(horizon >= 1, "curve horizon must be positive");
        let len = trace.len();
        let mut ring = LruRing::<u64>::default();
        ring.reset(horizon, 0);
        let mut buf = self.chunk_buffer(len);
        for (lo, n) in self.windows(len) {
            let buf = &mut buf[..n];
            trace.fill(lo, buf);
            ring.grow(cell_universe(buf));
            ring.feed(buf, Some(token))?;
        }
        Ok(ring.curve(len))
    }

    /// Exact OPT (Belady MIN) miss curve for capacities `1..=horizon`,
    /// bitwise equal to
    /// [`CurveEngine::opt_packed`](crate::CurveEngine::opt_packed) on the
    /// materialized trace.
    ///
    /// # Errors
    /// Cancellation/deadline from the token (polled at
    /// [`Seam::OptPass`] inside every shard and in the stack pass), and a
    /// typed refusal when the horizon would collide with the stack-slot
    /// sentinel space.
    pub fn try_opt(
        &self,
        trace: &(impl ChunkedTrace + ?Sized),
        horizon: usize,
        token: &CancelToken,
    ) -> Result<MissCurve, AnalysisError> {
        assert!(horizon >= 1, "curve horizon must be positive");
        if horizon as u64 >= DROPPED as u64 {
            return Err(AnalysisError::Refused(format!(
                "sharded OPT: horizon {horizon} collides with the stack-slot \
                 sentinel space (max {})",
                DROPPED - 1
            )));
        }
        let len = trace.len();
        // Parallel summary pass: per-chunk first/last touches.
        let mut chunks = self.map_chunks(trace, |lo, buf| opt_chunk_pass(lo, buf, token))?;

        // Backward threading sweep: the next use after each chunk's last
        // touch of a cell is the first touch in the nearest later chunk.
        let cells = chunks.iter().map(|c| c.max_cell + 1).max().unwrap_or(0) as usize;
        let mut future: Vec<u64> = vec![NONE64; cells];
        for ch in chunks.iter_mut().rev() {
            token.check(Seam::OptPass)?;
            ch.nu_of_last = ch
                .lasts
                .iter()
                .map(|&(cell, _)| future[cell as usize])
                .collect();
            for &(cell, packed) in &ch.firsts {
                future[cell as usize] = packed;
            }
        }
        drop(future);

        // Forward streaming stack pass (sequential — the Mattson
        // displacement chain is history-dependent), u64 priorities, the
        // stack (≤ horizon entries) carried across chunk boundaries.
        let mut opt = OptStack::<u64>::default();
        opt.reset(horizon, cells);
        let mut buf = self.chunk_buffer(len);
        let mut chain: Vec<u64> = Vec::new();
        let mut head: HashMap<u64, u32> = HashMap::new();
        for ((lo, n), ch) in self.windows(len).zip(&chunks) {
            let buf = &mut buf[..n];
            trace.fill(lo, buf);
            // Local next-use threading: a reverse sweep resolves
            // within-chunk successors; last touches take the cross-chunk
            // position the backward sweep assigned.
            let nu_after: HashMap<u64, u64> = ch
                .lasts
                .iter()
                .zip(&ch.nu_of_last)
                .map(|(&(cell, _), &nu)| (cell, nu))
                .collect();
            chain.clear();
            chain.resize(n, NONE64);
            head.clear();
            for t in (0..n).rev() {
                let cell = buf[t] >> 1;
                chain[t] = match head.insert(cell, t as u32) {
                    Some(nt) => ((lo + nt as u64) << 1) | (buf[nt as usize] & 1),
                    None => nu_after[&cell],
                };
            }
            for (t, &packed) in buf.iter().enumerate() {
                if t & POLL_MASK == 0 {
                    token.check(Seam::OptPass)?;
                }
                // Priority after this access: next-use position, DEAD on a
                // pending overwrite or no further use (the red-white
                // write-kill rule, identical to the materialized engine).
                let nu = chain[t];
                let new_pri = if nu == NONE64 || nu & 1 == 1 {
                    u64::DEAD
                } else {
                    nu >> 1
                };
                opt.step(cell_of(packed), is_write(packed), new_pri);
            }
        }
        Ok(opt.curve(len))
    }

    /// `(start, length)` of each chunk of a `len`-event trace, in order.
    fn windows(&self, len: u64) -> impl Iterator<Item = (u64, usize)> + '_ {
        (0..len)
            .step_by(self.chunk_len)
            .map(move |lo| (lo, self.chunk_len.min((len - lo) as usize)))
    }

    /// One chunk's worth of event buffer (less for a shorter trace).
    fn chunk_buffer(&self, len: u64) -> Vec<u64> {
        vec![0; usize::try_from(len).map_or(self.chunk_len, |len| len.min(self.chunk_len))]
    }

    /// Fills every chunk of `trace` and runs `pass` over it in parallel
    /// (rayon bridge), collecting per-chunk summaries in chunk order; the
    /// first error wins.
    fn map_chunks<C: Send>(
        &self,
        trace: &(impl ChunkedTrace + ?Sized),
        pass: impl Fn(u64, &[u64]) -> Result<C, AnalysisError> + Sync,
    ) -> Result<Vec<C>, AnalysisError> {
        self.windows(trace.len())
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(lo, n)| {
                // Panics are mapped to typed errors *inside* the chunk
                // worker: the thread-scope bridge underneath would
                // otherwise replace the payload with a generic "a scoped
                // thread panicked".
                iolb_govern::catch_analysis_mut(|| {
                    let mut buf = vec![0u64; n];
                    trace.fill(lo, &mut buf);
                    pass(lo, &buf)
                })
            })
            .collect::<Vec<Result<C, AnalysisError>>>()
            .into_iter()
            .collect()
    }
}

/// Summary pass over one chunk for the OPT threading phase.
fn opt_chunk_pass(lo: u64, buf: &[u64], token: &CancelToken) -> Result<OptChunk, AnalysisError> {
    let mut last: HashMap<u64, u32> = HashMap::new();
    let mut firsts: Vec<(u64, u64)> = Vec::new();
    let mut max_cell = 0u64;
    for (t, &packed) in buf.iter().enumerate() {
        if t & POLL_MASK == 0 {
            token.check(Seam::OptPass)?;
        }
        let cell = packed >> 1;
        max_cell = max_cell.max(cell);
        if last.insert(cell, t as u32).is_none() {
            firsts.push((cell, ((lo + t as u64) << 1) | (packed & 1)));
        }
    }
    Ok(OptChunk {
        firsts,
        lasts: last.into_iter().collect(),
        nu_of_last: Vec::new(),
        max_cell,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::tests::{arb_wide_trace, wide_replays, WIDE_CASES, WIDE_HORIZONS};
    use crate::tests::{arb_trace, cold_loads, r, reads, w};
    use crate::CurveEngine;
    use proptest::prelude::*;

    #[test]
    fn sharded_lru_on_a_hand_trace_across_boundaries() {
        // 0 1 2 0 with one event per chunk: every access is its own chunk,
        // so the ring and its state table carry every distance across
        // chunk boundaries, and the table grows at each new cell.
        let packed = reads(&[0, 1, 2, 0]);
        let token = CancelToken::unlimited();
        let sharded = ShardedCurveEngine::with_chunk_len(1);
        let c = sharded.try_lru(&packed, 4, &token).unwrap();
        assert_eq!(c.loads(2), 4);
        assert_eq!(c.loads(3), 3);
        assert_eq!(c.cold_loads(), 3);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn empty_and_single_chunk_traces() {
        let token = CancelToken::unlimited();
        let e = ShardedCurveEngine::new();
        let empty: Vec<u64> = Vec::new();
        assert_eq!(e.try_lru(&empty, 3, &token).unwrap().loads(1), 0);
        assert_eq!(e.try_opt(&empty, 3, &token).unwrap().loads(1), 0);
        // A trace smaller than one chunk still flows through the chunk
        // machinery (a single chunk).
        let one = vec![w(5), r(5)];
        assert_eq!(e.try_lru(&one, 3, &token).unwrap().loads(1), 0);
        assert_eq!(e.try_opt(&one, 3, &token).unwrap().loads(1), 0);
    }

    #[test]
    fn sharded_opt_refuses_horizon_in_sentinel_space() {
        let token = CancelToken::unlimited();
        let packed = vec![r(0)];
        let err = ShardedCurveEngine::new()
            .try_opt(&packed, u32::MAX as usize, &token)
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Refused(_)), "{err:?}");
    }

    /// Both passes honor the token: with single-event chunks a trip on
    /// the first check surfaces as `Cancelled` (from whichever OPT summary
    /// worker hits it first), for both policies, at their named seams.
    #[test]
    fn shards_honor_cancellation_at_their_seams() {
        let packed: Vec<u64> = (0..64u64).map(|c| c << 1).collect();
        let e = ShardedCurveEngine::with_chunk_len(1);
        let lru = e.try_lru(&packed, 4, &CancelToken::trip_after_checks(1));
        assert!(matches!(lru, Err(AnalysisError::Cancelled)), "{lru:?}");
        let opt = e.try_opt(&packed, 4, &CancelToken::trip_after_checks(1));
        assert!(matches!(opt, Err(AnalysisError::Cancelled)), "{opt:?}");
        // Injected faults at the pass seams surface as their class.
        use iolb_govern::{Fault, FaultKind};
        let lru = e.try_lru(
            &packed,
            4,
            &CancelToken::with_fault(Fault {
                kind: FaultKind::Deadline,
                seam: Seam::LruPass,
            }),
        );
        assert!(
            matches!(lru, Err(AnalysisError::Deadline { .. })),
            "{lru:?}"
        );
        let opt = e.try_opt(
            &packed,
            4,
            &CancelToken::with_fault(Fault {
                kind: FaultKind::Deadline,
                seam: Seam::OptPass,
            }),
        );
        assert!(
            matches!(opt, Err(AnalysisError::Deadline { .. })),
            "{opt:?}"
        );
    }

    proptest! {
        /// The sharded LRU curve is bitwise the materialized engine at
        /// EVERY capacity, for chunk lengths that force many boundaries.
        #[test]
        fn sharded_lru_matches_materialized(t in arb_trace(), chunk in 1usize..24) {
            let token = CancelToken::unlimited();
            let horizon = t.len().max(1);
            let want = CurveEngine::new().lru_packed(&t, horizon);
            let got = ShardedCurveEngine::with_chunk_len(chunk)
                .try_lru(&t, horizon, &token)
                .unwrap();
            prop_assert_eq!(got, want);
        }

        /// The streaming OPT curve is bitwise the materialized engine at
        /// EVERY capacity.
        #[test]
        fn streaming_opt_matches_materialized(t in arb_trace(), chunk in 1usize..24) {
            let token = CancelToken::unlimited();
            let horizon = t.len().max(1);
            let want = CurveEngine::new().opt_packed(&t, horizon);
            let got = ShardedCurveEngine::with_chunk_len(chunk)
                .try_opt(&t, horizon, &token)
                .unwrap();
            prop_assert_eq!(got, want);
        }

        /// Truncated horizons agree too (the beyond-bucket path).
        #[test]
        fn sharded_truncated_horizons_agree(t in arb_trace(), chunk in 1usize..16, horizon in 1usize..8) {
            let token = CancelToken::unlimited();
            let mut e = CurveEngine::new();
            let sharded = ShardedCurveEngine::with_chunk_len(chunk);
            prop_assert_eq!(
                sharded.try_lru(&t, horizon, &token).unwrap(),
                e.lru_packed(&t, horizon)
            );
            prop_assert_eq!(
                sharded.try_opt(&t, horizon, &token).unwrap(),
                e.opt_packed(&t, horizon)
            );
        }
    }

    proptest! {
        // Each case replays both simulators at 150 capacities.
        #![proptest_config(ProptestConfig::with_cases(WIDE_CASES))]

        /// Block-scan coverage on the `u64` stack: on stacks many scan
        /// blocks deep and with shard boundaries all through the trace,
        /// both curves equal the simulator replays at every capacity.
        #[test]
        fn wide_stacks_match_replays_across_shards(t in arb_wide_trace(), chunk in 1usize..64) {
            let replays = wide_replays(&t);
            let cold = cold_loads(&t);
            let token = CancelToken::unlimited();
            let sharded = ShardedCurveEngine::with_chunk_len(chunk);
            for horizon in WIDE_HORIZONS {
                let lru = sharded.try_lru(&t, horizon, &token).unwrap();
                let opt = sharded.try_opt(&t, horizon, &token).unwrap();
                // A read past the horizon is a beyond miss, never a cold
                // one: `loads(S)` alone cannot tell the two apart.
                prop_assert_eq!(lru.cold_loads(), cold, "lru h={}", horizon);
                prop_assert_eq!(opt.cold_loads(), cold, "opt h={}", horizon);
                for s in 1..=horizon {
                    let (lru_loads, opt_loads) = replays[s - 1];
                    prop_assert_eq!(lru.loads(s), lru_loads, "lru h={} S={}", horizon, s);
                    prop_assert_eq!(opt.loads(s), opt_loads, "opt h={} S={}", horizon, s);
                }
            }
        }
    }
}
