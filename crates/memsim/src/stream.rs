//! Streaming, sharded stack-distance engines for out-of-core traces.
//!
//! The materialized [`CurveEngine`](crate::CurveEngine) walks one in-memory
//! `&[u64]` slice with 32-bit position bookkeeping — exact and fast up to
//! the `u32` sentinel ceiling, but it requires the whole trace resident
//! and runs single-threaded. This module prices the same curves from a
//! *pull* source ([`ChunkedTrace`]) without materializing the trace, in
//! 64-bit id/position space, sharded across rayon workers:
//!
//! * **LRU** ([`ShardedCurveEngine::try_lru`]) — exact PARDA-style
//!   decomposition. The trace splits into fixed-size chunks; each worker
//!   resolves every *within-chunk* reuse with a local Fenwick pass and
//!   reports its chunk's distance-histogram delta plus two boundary
//!   summaries (first-touch list, distinct cells ordered by last touch).
//!   A sequential merge then replays only the boundary accesses over one
//!   Fenwick tree whose universe is the chunk-last positions of all
//!   chunks (coordinate-compressed, ≤ one entry per distinct cell per
//!   chunk). **Chunk merge invariant:** while chunk `k` replays, every
//!   cell's mark sits either at its last position in the most recent
//!   earlier chunk that touched it (in the Fenwick) or, once re-touched
//!   inside chunk `k`, in a plain per-chunk counter — so
//!   `suffix(mark) + counter + 1` is *exactly* the access's global reuse
//!   distance, and the merged histogram is bitwise the single-threaded
//!   one.
//! * **OPT** ([`ShardedCurveEngine::try_opt`]) — the priority stack is
//!   inherently sequential (every displacement chain depends on all
//!   history), so OPT streams instead of sharding the stack itself:
//!   parallel workers extract per-chunk first/last summaries, one cheap
//!   backward sweep threads cross-chunk next-use positions through them,
//!   and a forward pass runs the Mattson displacement stack chunk by
//!   chunk in `u64` priority space, carrying the (≤ horizon) stack
//!   between chunks. The stack is repaired by the materialized engine's
//!   block-scanning `chain_swaps`, and the histogram is bitwise the
//!   materialized engine's.
//!
//! Both passes poll the governance token at the [`Seam::LruPass`] /
//! [`Seam::OptPass`] seams inside every shard (every 4096 positions) and
//! in the merge, so cancellation and deadlines land in bounded time no
//! matter which worker is hot.

use crate::curve::{chain_swaps, Fenwick, MissCurve, StackWord};
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
/// Priority of a value never read again before overwrite (64-bit twin of
/// the materialized engine's `DEAD`).
const DEAD64: u64 = <u64 as StackWord>::DEAD;
/// Empty priority slot (real next-use positions are ≥ 1: a next use is
/// strictly later than the access that set it).
const EMPTY64: u64 = 0;
/// `idx_of` sentinels — these mark stack *slots* (bounded by the
/// horizon), not cell ids, so the streaming engine only requires
/// `horizon < u32::MAX - 1` while cells and positions live in `u64`.
const NIL32: u32 = u32::MAX;
const DROPPED32: u32 = u32::MAX - 1;

/// Poll cadence inside shard loops (positions between token checks).
const POLL_MASK: usize = 0xFFF;

/// Default shard length: 1 Mi events (8 MiB of buffer per worker).
pub const DEFAULT_CHUNK_LEN: usize = 1 << 20;

/// Sharded/streaming miss-curve engine over a [`ChunkedTrace`].
#[derive(Debug, Clone)]
pub struct ShardedCurveEngine {
    chunk_len: usize,
}

impl Default for ShardedCurveEngine {
    fn default() -> ShardedCurveEngine {
        ShardedCurveEngine::new()
    }
}

/// Per-chunk output of the parallel LRU shard pass.
struct LruChunk {
    /// `(cell, first access is a write)` in first-touch order — the
    /// boundary accesses the merge replays.
    firsts: Vec<(u64, bool)>,
    /// Distinct cells ordered by their last position in the chunk — the
    /// chunk's slice of the merge Fenwick's compressed universe.
    lasts: Vec<u64>,
    /// Within-chunk finite-distance histogram delta (1-indexed).
    hist: Vec<u64>,
    /// Within-chunk beyond-horizon read reuses.
    beyond: u64,
    /// Largest cell id seen.
    max_cell: u64,
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
    /// Engine with the default shard length.
    pub fn new() -> ShardedCurveEngine {
        ShardedCurveEngine::with_chunk_len(DEFAULT_CHUNK_LEN)
    }

    /// Engine with an explicit shard length (tests force tiny chunks so
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
    /// the materialized trace.
    ///
    /// # Errors
    /// Cancellation/deadline from the token (polled at
    /// [`Seam::LruPass`] inside every shard and per merge step).
    pub fn try_lru(
        &self,
        trace: &(impl ChunkedTrace + ?Sized),
        horizon: usize,
        token: &CancelToken,
    ) -> Result<MissCurve, AnalysisError> {
        assert!(horizon >= 1, "curve horizon must be positive");
        let len = trace.len();
        if len == 0 {
            return Ok(MissCurve::from_histogram(0, 0, &vec![0; horizon + 1], 0));
        }
        // Shard pass: each chunk resolves its internal reuses exactly and
        // summarizes its boundary.
        let chunks = self.map_chunks(len, |k, lo, buf| {
            trace.fill(lo, buf);
            lru_chunk_pass(k, buf, horizon, token)
        })?;

        // Sequential boundary merge over the compressed mark universe.
        let cells = chunks.iter().map(|c| c.max_cell + 1).max().unwrap_or(0) as usize;
        let universe: usize = chunks.iter().map(|c| c.lasts.len()).sum();
        let mut bit = Fenwick::default();
        bit.reset(universe);
        let mut mark_idx: Vec<u64> = vec![NONE64; cells];
        let mut total_marks = 0u64;
        let mut hist = vec![0u64; horizon + 1];
        let (mut cold, mut beyond) = (0u64, 0u64);
        let mut base = 0u64;
        for ch in &chunks {
            token.check(Seam::LruPass)?;
            for (replayed, &(cell, write)) in ch.firsts.iter().enumerate() {
                let mi = mark_idx[cell as usize];
                if mi == NONE64 {
                    if !write {
                        cold += 1;
                    }
                } else {
                    // Marks strictly after the previous touch, plus every
                    // distinct cell already replayed in this chunk — the
                    // merge invariant (module docs).
                    let between = (total_marks - bit.prefix(mi as usize)) + replayed as u64;
                    let d = between + 1;
                    if !write {
                        if d as usize <= horizon {
                            hist[d as usize] += 1;
                        } else {
                            beyond += 1;
                        }
                    }
                    bit.add(mi as usize, -1);
                    total_marks -= 1;
                }
            }
            for (d, &h) in ch.hist.iter().enumerate() {
                hist[d] += h;
            }
            beyond += ch.beyond;
            for (rank, &cell) in ch.lasts.iter().enumerate() {
                let idx = base + rank as u64;
                bit.add(idx as usize, 1);
                total_marks += 1;
                mark_idx[cell as usize] = idx;
            }
            base += ch.lasts.len() as u64;
        }
        Ok(MissCurve::from_histogram(cold, beyond, &hist, len))
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
        if horizon as u64 >= DROPPED32 as u64 {
            return Err(AnalysisError::Refused(format!(
                "sharded OPT: horizon {horizon} collides with the stack-slot \
                 sentinel space (max {})",
                DROPPED32 - 1
            )));
        }
        let len = trace.len();
        if len == 0 {
            return Ok(MissCurve::from_histogram(0, 0, &vec![0; horizon + 1], 0));
        }
        // Parallel summary pass: per-chunk first/last touches.
        let mut chunks = self.map_chunks(len, |k, lo, buf| {
            trace.fill(lo, buf);
            opt_chunk_pass(k, lo, buf, token)
        })?;

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
        let mut stack: Vec<u64> = Vec::new();
        let mut pri: Vec<u64> = vec![EMPTY64; horizon];
        let mut idx_of: Vec<u32> = vec![NIL32; cells];
        let mut hist = vec![0u64; horizon + 1];
        let (mut cold, mut beyond) = (0u64, 0u64);
        let mut buf = vec![
            0u64;
            self.chunk_len
                .min(usize::try_from(len).unwrap_or(usize::MAX))
        ];
        let mut chain: Vec<u64> = Vec::new();
        let mut head: HashMap<u64, u32> = HashMap::new();
        for (k, ch) in chunks.iter().enumerate() {
            let lo = k as u64 * self.chunk_len as u64;
            let n = self.chunk_len.min((len - lo) as usize);
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
                let (cell, write) = ((packed >> 1) as usize, packed & 1 == 1);
                // Priority after this access: next-use position, DEAD on a
                // pending overwrite or no further use (the red-white
                // write-kill rule, identical to the materialized engine).
                let nu = chain[t];
                let new_pri = if nu == NONE64 || nu & 1 == 1 {
                    DEAD64
                } else {
                    nu >> 1
                };
                let slot = idx_of[cell];
                if slot == NIL32 || slot == DROPPED32 {
                    if !write {
                        if slot == NIL32 {
                            cold += 1;
                        } else {
                            beyond += 1;
                        }
                    }
                    if stack.is_empty() {
                        stack.push(cell as u64);
                        idx_of[cell] = 0;
                        pri[0] = new_pri;
                    } else {
                        let hi = stack.len() - 1;
                        let (carry, carry_pri) = chain_swaps(
                            &mut stack,
                            &mut pri,
                            &mut idx_of,
                            cell as u64,
                            new_pri,
                            hi,
                        );
                        if stack.len() < pri.len() {
                            let bottom = stack.len();
                            stack.push(carry);
                            idx_of[carry as usize] = bottom as u32;
                            pri[bottom] = carry_pri;
                        } else {
                            idx_of[carry as usize] = DROPPED32;
                        }
                    }
                } else {
                    let slot = slot as usize;
                    let d = slot + 1;
                    if !write {
                        debug_assert!(d <= horizon);
                        hist[d] += 1;
                    }
                    if slot == 0 {
                        pri[0] = new_pri;
                    } else {
                        let (carry, carry_pri) = chain_swaps(
                            &mut stack,
                            &mut pri,
                            &mut idx_of,
                            cell as u64,
                            new_pri,
                            slot - 1,
                        );
                        stack[slot] = carry;
                        idx_of[carry as usize] = slot as u32;
                        pri[slot] = carry_pri;
                    }
                }
            }
        }
        Ok(MissCurve::from_histogram(cold, beyond, &hist, len))
    }

    /// Runs `pass` over every chunk in parallel (rayon bridge), collecting
    /// per-chunk summaries in chunk order; the first error wins.
    fn map_chunks<C: Send>(
        &self,
        len: u64,
        pass: impl Fn(usize, u64, &mut [u64]) -> Result<C, AnalysisError> + Sync,
    ) -> Result<Vec<C>, AnalysisError> {
        let n_chunks = usize::try_from(len.div_ceil(self.chunk_len as u64))
            .expect("chunk count exceeds the address space");
        (0..n_chunks)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|k| {
                let lo = k as u64 * self.chunk_len as u64;
                let n = self.chunk_len.min((len - lo) as usize);
                // Panics are mapped to typed errors *inside* the chunk
                // worker: the thread-scope bridge underneath would
                // otherwise replace the payload with a generic "a scoped
                // thread panicked".
                iolb_govern::catch_analysis_mut(|| {
                    let mut buf = vec![0u64; n];
                    pass(k, lo, &mut buf)
                })
            })
            .collect::<Vec<Result<C, AnalysisError>>>()
            .into_iter()
            .collect()
    }
}

/// Local LRU pass over one chunk: exact within-chunk reuse distances via
/// a chunk-local Fenwick, plus the boundary summaries the merge needs.
fn lru_chunk_pass(
    _k: usize,
    buf: &[u64],
    horizon: usize,
    token: &CancelToken,
) -> Result<LruChunk, AnalysisError> {
    let mut last: HashMap<u64, u32> = HashMap::new();
    let mut firsts: Vec<(u64, bool)> = Vec::new();
    let mut bit = Fenwick::default();
    bit.reset(buf.len());
    let mut hist = vec![0u64; horizon + 1];
    let mut beyond = 0u64;
    let mut max_cell = 0u64;
    for (t, &packed) in buf.iter().enumerate() {
        if t & POLL_MASK == 0 {
            token.check(Seam::LruPass)?;
        }
        let (cell, write) = (packed >> 1, packed & 1 == 1);
        max_cell = max_cell.max(cell);
        match last.insert(cell, t as u32) {
            Some(lp) => {
                let between = bit.prefix(t - 1) - bit.prefix(lp as usize);
                let d = between as usize + 1;
                if !write {
                    if d <= horizon {
                        hist[d] += 1;
                    } else {
                        beyond += 1;
                    }
                }
                bit.add(lp as usize, -1);
            }
            None => firsts.push((cell, write)),
        }
        bit.add(t, 1);
    }
    let mut by_last: Vec<(u32, u64)> = last.into_iter().map(|(cell, lp)| (lp, cell)).collect();
    by_last.sort_unstable();
    Ok(LruChunk {
        firsts,
        lasts: by_last.into_iter().map(|(_, cell)| cell).collect(),
        hist,
        beyond,
        max_cell,
    })
}

/// Summary pass over one chunk for the OPT threading phase.
fn opt_chunk_pass(
    _k: usize,
    lo: u64,
    buf: &[u64],
    token: &CancelToken,
) -> Result<OptChunk, AnalysisError> {
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
    use crate::{Access, CurveEngine};
    use proptest::prelude::*;

    fn pack(t: &[Access]) -> Vec<u64> {
        t.iter()
            .map(|a| ((a.cell as u64) << 1) | a.write as u64)
            .collect()
    }

    fn arb_trace() -> impl Strategy<Value = Vec<Access>> {
        proptest::collection::vec((0usize..12, proptest::bool::ANY), 1..200).prop_map(|v| {
            v.into_iter()
                .map(|(cell, write)| Access { cell, write })
                .collect()
        })
    }

    #[test]
    fn sharded_lru_on_a_hand_trace_across_boundaries() {
        // 0 1 2 0 with one event per chunk: every reuse crosses a chunk
        // boundary, so the whole distance comes from the merge Fenwick.
        let packed = pack(&[
            Access::read(0),
            Access::read(1),
            Access::read(2),
            Access::read(0),
        ]);
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
        // A trace smaller than one chunk still flows through the shard
        // machinery (single chunk, trivial merge).
        let one = pack(&[Access::write(5), Access::read(5)]);
        assert_eq!(e.try_lru(&one, 3, &token).unwrap().loads(1), 0);
        assert_eq!(e.try_opt(&one, 3, &token).unwrap().loads(1), 0);
    }

    #[test]
    fn sharded_opt_refuses_horizon_in_sentinel_space() {
        let token = CancelToken::unlimited();
        let packed = pack(&[Access::read(0)]);
        let err = ShardedCurveEngine::new()
            .try_opt(&packed, u32::MAX as usize, &token)
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Refused(_)), "{err:?}");
    }

    /// Every shard honors the token: with single-event chunks a trip on
    /// the first check surfaces as `Cancelled` from whichever worker hits
    /// it first, for both policies, at their named seams.
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
            let packed = pack(&t);
            let token = CancelToken::unlimited();
            let horizon = t.len().max(1);
            let want = CurveEngine::new().lru_packed(&packed, horizon);
            let got = ShardedCurveEngine::with_chunk_len(chunk)
                .try_lru(&packed, horizon, &token)
                .unwrap();
            prop_assert_eq!(got, want);
        }

        /// The streaming OPT curve is bitwise the materialized engine at
        /// EVERY capacity.
        #[test]
        fn streaming_opt_matches_materialized(t in arb_trace(), chunk in 1usize..24) {
            let packed = pack(&t);
            let token = CancelToken::unlimited();
            let horizon = t.len().max(1);
            let want = CurveEngine::new().opt_packed(&packed, horizon);
            let got = ShardedCurveEngine::with_chunk_len(chunk)
                .try_opt(&packed, horizon, &token)
                .unwrap();
            prop_assert_eq!(got, want);
        }

        /// Truncated horizons agree too (the beyond-bucket path).
        #[test]
        fn sharded_truncated_horizons_agree(t in arb_trace(), chunk in 1usize..16, horizon in 1usize..8) {
            let packed = pack(&t);
            let token = CancelToken::unlimited();
            let mut e = CurveEngine::new();
            let sharded = ShardedCurveEngine::with_chunk_len(chunk);
            prop_assert_eq!(
                sharded.try_lru(&packed, horizon, &token).unwrap(),
                e.lru_packed(&packed, horizon)
            );
            prop_assert_eq!(
                sharded.try_opt(&packed, horizon, &token).unwrap(),
                e.opt_packed(&packed, horizon)
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
            let packed = pack(&t);
            let replays = wide_replays(&t);
            let token = CancelToken::unlimited();
            let sharded = ShardedCurveEngine::with_chunk_len(chunk);
            for horizon in WIDE_HORIZONS {
                let lru = sharded.try_lru(&packed, horizon, &token).unwrap();
                let opt = sharded.try_opt(&packed, horizon, &token).unwrap();
                for s in 1..=horizon {
                    let (lru_loads, opt_loads) = replays[s - 1];
                    prop_assert_eq!(lru.loads(s), lru_loads, "lru h={} S={}", horizon, s);
                    prop_assert_eq!(opt.loads(s), opt_loads, "opt h={} S={}", horizon, s);
                }
            }
        }
    }
}
