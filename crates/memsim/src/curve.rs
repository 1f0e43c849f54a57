//! One-pass stack-distance engines: the full LRU and Belady/OPT miss
//! curves of a trace from a single traversal.
//!
//! Both replacement policies simulated by this crate are *stack
//! algorithms* (Mattson, Gecsei, Slutz, Traiger 1970): the resident set of
//! a capacity-`S` cache is always the top `S` entries of one
//! policy-defined priority stack, for every `S` simultaneously. An access
//! therefore hits at capacity `S` exactly when its *stack distance* — the
//! position of the accessed cell in that stack — is at most `S`, and one
//! pass that records the distance histogram yields the exact miss count
//! `loads(S)` for **all** capacities at once, replacing a per-`S` replay
//! loop of [`LruSim`]/[`BeladySim`] with a single traversal:
//!
//! * [`CurveEngine::lru`] — LRU stack distances on a recency ring
//!   (`LruRing`) that holds only the top `horizon` entries of the LRU
//!   stack, plus one state byte per cell: O(min(d, horizon)) time for an
//!   access at distance `d` and O(cells + horizon) memory;
//! * [`CurveEngine::opt`] — OPT stack distances via a priority-by-next-use
//!   stack simulation (`OptStack`). Next uses come from the same
//!   reverse-pass chain threading as [`BeladySim`], a value's *pending
//!   overwrite* kills it exactly like the simulator's dead set, and the
//!   priority stack is repaired per access with the Mattson displacement
//!   chain over a horizon-bounded dense slab, scanned a block of slots at
//!   a time.
//!
//! The ring and the priority stack are the per-access steps of the two
//! policies. They are generic over the width of their words
//! (`StackWord`): this materialized engine runs them at `u32`, and the
//! streaming engine ([`crate::stream`]) feeds the same two steps at `u64`
//! from a chunked source, so only the way each engine learns an access's
//! next use differs between them.
//!
//! Both passes accept a capacity *horizon*: distances beyond it are lumped
//! into a single always-miss bucket, which bounds both stacks (and the
//! distance histogram) by the largest capacity the caller will query —
//! the S grids swept by `iolb-bench` are far smaller than the traces.
//!
//! Property tests pin both curves bitwise-equal to the corresponding
//! [`LruSim`]/[`BeladySim`] replay at every capacity.
//!
//! [`LruSim`]: crate::LruSim
//! [`BeladySim`]: crate::BeladySim

use crate::{cell_universe, thread_next_use, Access, NIL};
use iolb_govern::{AnalysisError, CancelToken, Seam};

/// Exact miss curve of one trace under one stack policy: `loads(S)` (read
/// misses — the I/O cost in the red-white model, where write misses
/// produce their value in fast memory for free) for every capacity `S` up
/// to the engine's horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissCurve {
    /// First-touch read misses (miss at every capacity).
    cold: u64,
    /// Read misses whose stack distance exceeded the horizon (miss at
    /// every capacity `≤ horizon`; unknown beyond it).
    beyond: u64,
    /// `tail[s]` = finite-distance read misses at capacity `s`
    /// (`Σ hist[d] for s < d ≤ horizon`), for `s` in `0..=horizon`.
    tail: Vec<u64>,
    /// Largest capacity the curve answers exactly.
    horizon: usize,
    /// Total accesses profiled.
    accesses: u64,
}

impl MissCurve {
    pub(crate) fn from_histogram(cold: u64, beyond: u64, hist: &[u64], accesses: u64) -> MissCurve {
        let horizon = hist.len() - 1;
        let mut tail = vec![0u64; horizon + 1];
        for s in (0..horizon).rev() {
            tail[s] = tail[s + 1] + hist[s + 1];
        }
        MissCurve {
            cold,
            beyond,
            tail,
            horizon,
            accesses,
        }
    }

    /// Read misses at capacity `s` — bitwise what the corresponding
    /// simulator replay reports as [`IoStats::loads`](crate::IoStats).
    ///
    /// # Panics
    /// Panics when `s == 0`, or when `s` exceeds the horizon and the trace
    /// had beyond-horizon distances (the curve cannot answer there).
    pub fn loads(&self, s: usize) -> u64 {
        assert!(s >= 1, "cache capacity must be positive");
        if s >= self.horizon {
            assert!(
                self.beyond == 0 || s == self.horizon,
                "capacity {s} beyond curve horizon {}",
                self.horizon
            );
            self.cold + self.beyond
        } else {
            self.cold + self.beyond + self.tail[s]
        }
    }

    /// Largest capacity the curve answers exactly.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// First-touch read misses — the loads of an unbounded cache, and the
    /// cold floor of every capacity.
    pub fn cold_loads(&self) -> u64 {
        self.cold
    }

    /// Total accesses profiled.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// Priority value of a stack slot: the next-use position of its cell, or
/// [`DEAD`] when the value is never read again before being overwritten
/// (the farthest possible priority — dead values sink and drop first).
const DEAD: u32 = <u32 as StackWord>::DEAD;
/// LRU cell state: never accessed.
const UNSEEN: u8 = 0;
/// LRU cell state: sank below the horizon and fell off the recency ring.
const EVICTED: u8 = 1;
/// LRU cell state: on the recency ring.
const RESIDENT: u8 = 2;
/// `idx_of` marker: cell sank below the horizon and was dropped. Like
/// [`NIL`], it marks a stack *slot*, so both engines share it.
pub(crate) const DROPPED: u32 = u32::MAX - 1;

/// Ceiling of the materialized engine's 32-bit id space: [`DEAD`],
/// [`DROPPED`], and [`NIL`] all live at the top of the `u32` range, so a
/// trace whose positions or distinct-value universe reach them would
/// *alias a sentinel* (a legitimate id indistinguishable from "dead" or
/// "not resident") rather than fail loudly.
pub(crate) const SENTINEL_CEILING: u64 = DROPPED as u64;

/// Refuses traces that collide with the `u32` sentinel space — a typed
/// [`AnalysisError::Refused`], never a silent wrap. The sharded streaming
/// engine ([`crate::stream`]) prices such traces in a 64-bit id space.
fn guard_sentinels(len: usize, cells: usize) -> Result<(), AnalysisError> {
    if len as u64 >= SENTINEL_CEILING {
        return Err(AnalysisError::Refused(format!(
            "curve engine: trace length {len} collides with the u32 sentinel space \
             (max {}); the sharded streaming engine prices longer traces",
            SENTINEL_CEILING - 1
        )));
    }
    if cells as u64 >= SENTINEL_CEILING {
        return Err(AnalysisError::Refused(format!(
            "curve engine: distinct-value universe {cells} collides with the u32 \
             sentinel space (max {})",
            SENTINEL_CEILING - 1
        )));
    }
    Ok(())
}

/// Reusable one-pass miss-curve profiler (all working buffers are sized
/// per run and shared across runs, never allocated per access).
#[derive(Debug, Default)]
pub struct CurveEngine {
    // Next-use chain threading (shared machinery with `BeladySim`).
    chain: Vec<u32>,
    head: Vec<u32>,
    lru: LruRing<u32>,
    opt: OptStack<u32>,
}

impl CurveEngine {
    /// Fresh engine; buffers grow to the largest run.
    pub fn new() -> CurveEngine {
        CurveEngine::default()
    }

    /// LRU miss curve of a trace, exact for capacities `1..=horizon`.
    pub fn lru(&mut self, trace: &[Access], horizon: usize) -> MissCurve {
        ungoverned(self.lru_by(trace.len(), horizon, access_at(trace), None))
    }

    /// [`lru`](CurveEngine::lru) on a packed trace (`(cell << 1) | write`).
    pub fn lru_packed(&mut self, packed: &[u64], horizon: usize) -> MissCurve {
        ungoverned(self.lru_by(packed.len(), horizon, packed_at(packed), None))
    }

    /// Governed [`lru_packed`](CurveEngine::lru_packed): polls `token` at
    /// [`Seam::LruPass`] every 4096 positions (and at position 0), so a
    /// deadline or cancellation interrupts the pass in bounded time. The
    /// engine resets its buffers at the start of every pass, so an
    /// interrupted pass leaves no state the next run can observe.
    pub fn try_lru_packed(
        &mut self,
        packed: &[u64],
        horizon: usize,
        token: &CancelToken,
    ) -> Result<MissCurve, AnalysisError> {
        self.lru_by(packed.len(), horizon, packed_at(packed), Some(token))
    }

    /// OPT (Belady MIN) miss curve of a trace, exact for capacities
    /// `1..=horizon` — bitwise [`BeladySim`](crate::BeladySim)'s loads.
    pub fn opt(&mut self, trace: &[Access], horizon: usize) -> MissCurve {
        ungoverned(self.opt_by(trace.len(), horizon, access_at(trace), None))
    }

    /// [`opt`](CurveEngine::opt) on a packed trace (`(cell << 1) | write`).
    pub fn opt_packed(&mut self, packed: &[u64], horizon: usize) -> MissCurve {
        ungoverned(self.opt_by(packed.len(), horizon, packed_at(packed), None))
    }

    /// Governed [`opt_packed`](CurveEngine::opt_packed): polls `token` at
    /// [`Seam::OptPass`] every 4096 positions (and at position 0); see
    /// [`try_lru_packed`](CurveEngine::try_lru_packed) for the reuse
    /// guarantee after an interrupted pass.
    pub fn try_opt_packed(
        &mut self,
        packed: &[u64],
        horizon: usize,
        token: &CancelToken,
    ) -> Result<MissCurve, AnalysisError> {
        self.opt_by(packed.len(), horizon, packed_at(packed), Some(token))
    }

    /// The whole trace fed to one [`LruRing`], sized for its cell universe
    /// up front.
    fn lru_by(
        &mut self,
        len: usize,
        horizon: usize,
        at: impl Fn(usize) -> (usize, bool),
        token: Option<&CancelToken>,
    ) -> Result<MissCurve, AnalysisError> {
        assert!(horizon >= 1, "curve horizon must be positive");
        let cells = cell_universe(len, &at);
        guard_sentinels(len, cells)?;
        self.lru.reset(horizon, cells);
        self.lru.feed(len, at, token)?;
        Ok(self.lru.curve(len as u64))
    }

    /// OPT stack distances on one [`OptStack`]. Next uses come from the
    /// reverse-pass chain threading: the priority after an access is the
    /// next-use position, except that a pending overwrite (or no further
    /// use) kills the value — it re-materializes for free at its next
    /// write, so every capacity evicts it first. Mirrors `BeladySim`'s dead
    /// set.
    fn opt_by(
        &mut self,
        len: usize,
        horizon: usize,
        at: impl Fn(usize) -> (usize, bool),
        token: Option<&CancelToken>,
    ) -> Result<MissCurve, AnalysisError> {
        assert!(horizon >= 1, "curve horizon must be positive");
        // The guard runs before any cell-sized allocation.
        let cells = cell_universe(len, &at);
        guard_sentinels(len, cells)?;
        thread_next_use(len, cells, &at, &mut self.chain, &mut self.head);
        self.opt.reset(horizon, cells);
        for t in 0..len {
            if t & POLL_MASK == 0 {
                if let Some(token) = token {
                    token.check(Seam::OptPass)?;
                }
            }
            let (cell, write) = at(t);
            let nu = self.chain[t];
            let new_pri = if nu == NIL || at(nu as usize).1 {
                DEAD
            } else {
                nu
            };
            self.opt.step(cell, write, new_pri);
        }
        Ok(self.opt.curve(len as u64))
    }
}

/// Positions between two token polls of a pass (every 4096, and the
/// first).
pub(crate) const POLL_MASK: usize = 0xFFF;

/// LRU stack distances on a recency ring holding the top `horizon`
/// entries of the LRU stack, most recent on top, plus one state byte per
/// cell. A resident cell is found by walking down from the top, each
/// entry passed moving one slot deeper, so an access at depth `k` costs
/// `k + 1` slot moves and records distance `k + 1`. A cell that is not on
/// the ring has never been accessed ([`UNSEEN`]: a cold miss) or sank
/// below the horizon ([`EVICTED`]: a distance beyond it); either way it
/// is pushed on top, and once the ring holds `horizon` cells the bottom
/// one falls off.
///
/// The ring needs no next-use information and no memory the size of the
/// trace, so one ring serves both engines: the materialized one feeds it
/// the whole trace, the streaming one ([`crate::stream`]) feeds it one
/// chunk at a time and [`grow`](LruRing::grow)s the state table to each
/// chunk's largest cell first.
#[derive(Debug, Default)]
pub(crate) struct LruRing<W> {
    /// Power-of-two ring of cell ids: depth `k` at index `top − k`,
    /// wrapping from index 0 to the last one.
    ring: Vec<W>,
    /// Each cell's [`UNSEEN`] / [`EVICTED`] / [`RESIDENT`] state.
    state: Vec<u8>,
    /// Ring index of the top entry, and the number of entries held.
    top: usize,
    held: usize,
    horizon: usize,
    /// `hist[d]`: reads at distance `d ≤ horizon` (1-indexed).
    hist: Vec<u64>,
    cold: u64,
    beyond: u64,
}

impl<W: StackWord> LruRing<W> {
    /// Empties the ring for a pass at `horizon` over cells `0..cells`.
    pub(crate) fn reset(&mut self, horizon: usize, cells: usize) {
        self.horizon = horizon;
        self.ring.clear();
        self.ring.push(W::EMPTY);
        self.state.clear();
        (self.top, self.held) = (0, 0);
        self.hist.clear();
        self.hist.resize(horizon + 1, 0);
        (self.cold, self.beyond) = (0, 0);
        self.grow(cells);
    }

    /// Admits cells `0..cells`. The stack never holds more entries than
    /// there are cells, so the ring only needs `min(horizon, cells)` slots
    /// (and a horizon past the universe never evicts). A ring that grows
    /// is first unwrapped so the top sits at the end of its old slots:
    /// every depth `k` then stays at index `top − k` in the larger ring.
    pub(crate) fn grow(&mut self, cells: usize) {
        if cells <= self.state.len() {
            return;
        }
        self.state.resize(cells, UNSEEN);
        let slots = self.horizon.min(cells).next_power_of_two();
        if slots > self.ring.len() {
            let mask = self.ring.len() - 1;
            self.ring.rotate_left((self.top + 1) & mask);
            self.top = self.ring.len() - 1;
            self.ring.resize(slots, W::EMPTY);
        }
    }

    /// Feeds accesses `at(0..n)`, whose cells must already be admitted,
    /// polling `token` at [`Seam::LruPass`] every 4096 of them.
    pub(crate) fn feed(
        &mut self,
        n: usize,
        at: impl Fn(usize) -> (usize, bool),
        token: Option<&CancelToken>,
    ) -> Result<(), AnalysisError> {
        let (horizon, mask) = (self.horizon, self.ring.len() - 1);
        let (mut top, mut held) = (self.top, self.held);
        let (mut cold, mut beyond) = (self.cold, self.beyond);
        for t in 0..n {
            if t & POLL_MASK == 0 {
                if let Some(token) = token {
                    token.check(Seam::LruPass)?;
                }
            }
            let (cell, write) = at(t);
            match self.state[cell] {
                RESIDENT => {
                    let k = move_to_top(&mut self.ring, top, W::from_cell(cell));
                    if !write {
                        self.hist[k + 1] += 1;
                    }
                }
                seen => {
                    if !write {
                        if seen == UNSEEN {
                            cold += 1;
                        } else {
                            beyond += 1;
                        }
                    }
                    if held == horizon {
                        let bottom = self.ring[top.wrapping_sub(horizon - 1) & mask];
                        self.state[bottom.index()] = EVICTED;
                    } else {
                        held += 1;
                    }
                    top = (top + 1) & mask;
                    self.ring[top] = W::from_cell(cell);
                    self.state[cell] = RESIDENT;
                }
            }
        }
        (self.top, self.held, self.cold, self.beyond) = (top, held, cold, beyond);
        Ok(())
    }

    /// The curve of the `accesses` fed so far.
    pub(crate) fn curve(&self, accesses: u64) -> MissCurve {
        MissCurve::from_histogram(self.cold, self.beyond, &self.hist, accesses)
    }
}

/// Moves `cell`, which must be on the recency ring, to the top entry at
/// ring index `top`, each entry above it moving one slot deeper, and
/// returns the depth it was found at (0 = top). Depth `k` sits at ring
/// index `top − k`, wrapping from index 0 to the last one.
#[inline]
fn move_to_top<W: StackWord>(ring: &mut [W], top: usize, cell: W) -> usize {
    let (near, far) = ring.split_at_mut(top + 1);
    let mut carry = cell;
    for (k, slot) in near
        .iter_mut()
        .rev()
        .chain(far.iter_mut().rev())
        .enumerate()
    {
        let was = std::mem::replace(slot, carry);
        if was == cell {
            return k;
        }
        carry = was;
    }
    unreachable!(
        "cell {} is marked resident but is not on the recency ring",
        cell.index()
    )
}

/// The OPT priority stack of one pass: cells ordered so that the top `S`
/// entries are exactly the residents of a capacity-`S` MIN cache, for
/// every `S` up to the horizon. Each engine computes an access's new
/// priority by its own next-use rule and hands it to
/// [`step`](OptStack::step).
#[derive(Debug, Default)]
pub(crate) struct OptStack<W> {
    stack: Vec<W>,
    /// Dense priority slab, one slot per stack entry up to the horizon
    /// ([`StackWord::EMPTY`] below the bottom).
    pri: Vec<W>,
    /// Each cell's stack slot, [`NIL`] before its first access, [`DROPPED`]
    /// once it sank below the horizon.
    idx_of: Vec<u32>,
    /// `hist[d]`: reads at distance `d ≤ horizon` (1-indexed).
    hist: Vec<u64>,
    cold: u64,
    beyond: u64,
}

impl<W: StackWord> OptStack<W> {
    /// Empties the stack for a pass at `horizon` over cells `0..cells`.
    pub(crate) fn reset(&mut self, horizon: usize, cells: usize) {
        self.stack.clear();
        self.pri.clear();
        self.pri.resize(horizon, W::EMPTY);
        self.idx_of.clear();
        self.idx_of.resize(cells, NIL);
        self.hist.clear();
        self.hist.resize(horizon + 1, 0);
        (self.cold, self.beyond) = (0, 0);
    }

    /// One access: the cell at position `d` records distance `d`, moves to
    /// the top with priority `new_pri`, and positions `2..d` are repaired
    /// by the Mattson displacement rule — a *carry* (initially the old
    /// top) walks down and swaps with each successive cell whose next use
    /// is strictly farther, precisely the victims the per-capacity caches
    /// evict ([`chain_swaps`]). A cold or dropped cell displaces through
    /// the whole stack, and the final carry becomes the new bottom or
    /// drops off the horizon.
    ///
    /// The repair walks the dense priority slab, which never outgrows the
    /// horizon. Most slots it passes do not swap (on the regime traces an
    /// access reads 52–109 slots and swaps 0.7–5.1 of them), so the walk
    /// finds each swap with [`first_farther`], one wide compare per block
    /// of slots, and a swap itself costs a register exchange, not a tree
    /// path update.
    // `always`: with a plain hint the step stayed a call in both
    // engines' per-access loops.
    #[inline(always)]
    pub(crate) fn step(&mut self, cell: usize, write: bool, new_pri: W) {
        let slot = self.idx_of[cell];
        // The slot the final carry fills: the cell's own, or one past the
        // bottom for a cell that is not on the stack.
        let dest = if slot == NIL || slot == DROPPED {
            if !write {
                if slot == NIL {
                    self.cold += 1;
                } else {
                    self.beyond += 1;
                }
            }
            self.stack.len()
        } else {
            if !write {
                self.hist[slot as usize + 1] += 1;
            }
            slot as usize
        };
        if dest == 0 {
            if self.stack.is_empty() {
                self.stack.push(W::from_cell(cell));
            }
            self.idx_of[cell] = 0;
            self.pri[0] = new_pri;
            return;
        }
        let (carry, carry_pri) = chain_swaps(
            &mut self.stack,
            &mut self.pri,
            &mut self.idx_of,
            W::from_cell(cell),
            new_pri,
            dest - 1,
        );
        if dest == self.pri.len() {
            self.idx_of[carry.index()] = DROPPED;
            return;
        }
        if dest == self.stack.len() {
            self.stack.push(carry);
        } else {
            self.stack[dest] = carry;
        }
        self.idx_of[carry.index()] = dest as u32;
        self.pri[dest] = carry_pri;
    }

    /// The curve of the `accesses` fed so far.
    pub(crate) fn curve(&self, accesses: u64) -> MissCurve {
        MissCurve::from_histogram(self.cold, self.beyond, &self.hist, accesses)
    }
}

/// Width of the stacks' entries: `u32` cell ids and priorities in the
/// materialized engine, `u64` in the streaming one ([`crate::stream`]).
/// Both engines run the one [`LruRing`] and [`OptStack`] at their width.
pub(crate) trait StackWord: Copy + Ord {
    /// Priority of a value never read again before being overwritten:
    /// the farthest possible, so nothing is strictly farther.
    const DEAD: Self;
    /// Priority of an empty slot of the priority slab (below every real
    /// priority; real next-use positions are ≥ 1 because a next use is
    /// strictly later than the access that set it).
    const EMPTY: Self;
    /// The word as an index into a cell-sized table.
    fn index(self) -> usize;
    /// A cell id as a word (the materialized engine's sentinel guard keeps
    /// its ids inside `u32`).
    fn from_cell(cell: usize) -> Self;
}

macro_rules! stack_word {
    ($($word:ty),*) => {$(
        impl StackWord for $word {
            const DEAD: $word = <$word>::MAX;
            const EMPTY: $word = 0;
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
            #[inline]
            fn from_cell(cell: usize) -> $word {
                cell as $word
            }
        }
    )*};
}

stack_word!(u32, u64);

/// Slots [`first_farther`] tests with one branch-free compare.
const SCAN_BLOCK: usize = 16;

/// Index of the first slot at or after `from` whose priority is strictly
/// greater than `bound`, or `pri.len()` when there is none. Whole blocks
/// of [`SCAN_BLOCK`] slots are tested with one `any(p > bound)` fold,
/// which has no branch per slot and compiles to a vector compare; only
/// the block that holds the hit, or the short remainder, is scanned slot
/// by slot. `from` must be at most `pri.len()`.
#[inline]
fn first_farther<W: StackWord>(pri: &[W], from: usize, bound: W) -> usize {
    let mut k = from;
    while let Some(block) = pri[k..].first_chunk::<SCAN_BLOCK>() {
        if block.iter().fold(false, |any, &p| any | (p > bound)) {
            break;
        }
        k += SCAN_BLOCK;
    }
    pri[k..]
        .iter()
        .position(|&p| p > bound)
        .map_or(pri.len(), |i| k + i)
}

/// Puts `cell` with priority `new_pri` on top of the stack and runs the
/// Mattson displacement chain of the old top over slots `1..=hi`: the
/// carry swaps with each successive slot whose priority is strictly
/// farther than its own, and the final carry is returned for the caller
/// to place. The carry's priority only rises, so the chain is a walk from
/// one [`first_farther`] slot to the next; the slots between are left as
/// they are. A dead carry ([`StackWord::DEAD`]) short-circuits: nothing
/// is strictly farther.
#[inline]
pub(crate) fn chain_swaps<W: StackWord>(
    stack: &mut [W],
    pri: &mut [W],
    idx_of: &mut [u32],
    cell: W,
    new_pri: W,
    hi: usize,
) -> (W, W) {
    let mut carry = std::mem::replace(&mut stack[0], cell);
    let mut carry_pri = std::mem::replace(&mut pri[0], new_pri);
    idx_of[cell.index()] = 0;
    let span = hi + 1;
    let mut k = 1;
    while carry_pri != W::DEAD {
        k = first_farther(&pri[..span], k, carry_pri);
        if k == span {
            break;
        }
        std::mem::swap(&mut stack[k], &mut carry);
        std::mem::swap(&mut pri[k], &mut carry_pri);
        idx_of[stack[k].index()] = k as u32;
        k += 1;
    }
    (carry, carry_pri)
}

/// Accessor closure over a struct trace.
#[inline]
fn access_at(trace: &[Access]) -> impl Fn(usize) -> (usize, bool) + '_ {
    |t| (trace[t].cell, trace[t].write)
}

/// Accessor closure over a packed trace (`(cell << 1) | write`).
#[inline]
pub(crate) fn packed_at(packed: &[u64]) -> impl Fn(usize) -> (usize, bool) + '_ {
    |t| {
        let p = packed[t];
        ((p >> 1) as usize, (p & 1) == 1)
    }
}

/// Unwraps a pass run without a token: no cancellation source exists, so
/// the only reachable error is the sentinel-space refusal, which the
/// panicking convenience APIs surface as a panic.
#[inline]
fn ungoverned(r: Result<MissCurve, AnalysisError>) -> MissCurve {
    r.unwrap_or_else(|e| panic!("ungoverned curve pass failed: {e}"))
}

/// Convenience: full-horizon LRU miss curve (exact at every capacity).
/// The horizon is the trace length, so an access costs O(d) at distance
/// `d`; the tests use it as the whole-curve reference, and production
/// prices at the S grid's horizon instead.
pub fn lru_miss_curve(trace: &[Access]) -> MissCurve {
    CurveEngine::new().lru(trace, trace.len().max(1))
}

/// Convenience: full-horizon OPT miss curve (exact at every capacity).
pub fn opt_miss_curve(trace: &[Access]) -> MissCurve {
    CurveEngine::new().opt(trace, trace.len().max(1))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{lru_stats, min_stats};
    use proptest::prelude::*;

    fn reads(cells: &[usize]) -> Vec<Access> {
        cells.iter().map(|&c| Access::read(c)).collect()
    }

    /// `t` as a packed trace (`(cell << 1) | write`).
    pub(crate) fn pack(t: &[Access]) -> Vec<u64> {
        t.iter()
            .map(|a| ((a.cell as u64) << 1) | a.write as u64)
            .collect()
    }

    #[test]
    fn lru_curve_on_a_hand_trace() {
        // 0 1 2 0: distances ∞ ∞ ∞ 3 → loads(2) = 4, loads(3) = 3.
        let t = reads(&[0, 1, 2, 0]);
        let c = lru_miss_curve(&t);
        assert_eq!(c.loads(1), 4);
        assert_eq!(c.loads(2), 4);
        assert_eq!(c.loads(3), 3);
        assert_eq!(c.loads(4), 3);
        assert_eq!(c.cold_loads(), 3);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn opt_curve_beats_lru_curve_on_looping_scan() {
        let t = reads(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let lru = lru_miss_curve(&t);
        let opt = opt_miss_curve(&t);
        assert_eq!(lru.loads(2), 9, "LRU thrashes the cyclic scan");
        assert!(opt.loads(2) < 9);
        assert_eq!(opt.loads(2), min_stats(2, &t).loads);
    }

    #[test]
    fn horizon_truncates_but_stays_exact_below() {
        let t = reads(&[0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        let full = opt_miss_curve(&t);
        let capped = CurveEngine::new().opt(&t, 3);
        for s in 1..=3 {
            assert_eq!(capped.loads(s), full.loads(s), "S={s}");
        }
        assert_eq!(capped.horizon(), 3);
    }

    #[test]
    #[should_panic(expected = "beyond curve horizon")]
    fn querying_past_a_truncated_horizon_panics() {
        let t = reads(&[0, 1, 2, 3, 4, 0]);
        let capped = CurveEngine::new().lru(&t, 2);
        let _ = capped.loads(5);
    }

    #[test]
    fn empty_trace_makes_an_empty_curve() {
        let c = lru_miss_curve(&[]);
        assert_eq!(c.loads(1), 0);
        assert_eq!(opt_miss_curve(&[]).loads(1), 0);
        assert_eq!(c.cold_loads(), 0);
        assert_eq!(c.accesses(), 0);
        // The convenience constructors clamp the horizon to ≥ 1, so an
        // empty trace still answers capacity 1.
        assert_eq!(c.horizon(), 1);
    }

    #[test]
    fn single_element_traces() {
        // A single read is one cold miss at every capacity.
        let read = reads(&[5]);
        let mut e = CurveEngine::new();
        for curve in [e.lru(&read, 4), e.opt(&read, 4)] {
            assert_eq!(curve.loads(1), 1);
            assert_eq!(curve.loads(4), 1);
            assert_eq!(curve.cold_loads(), 1);
            assert_eq!(curve.accesses(), 1);
        }
        // A single write is free in the red-white model: zero loads.
        let write = vec![Access::write(5)];
        for curve in [e.lru(&write, 4), e.opt(&write, 4)] {
            assert_eq!(curve.loads(1), 0);
            assert_eq!(curve.cold_loads(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "cache capacity must be positive")]
    fn capacity_zero_is_rejected() {
        let _ = lru_miss_curve(&reads(&[0, 1])).loads(0);
    }

    #[test]
    #[should_panic(expected = "curve horizon must be positive")]
    fn lru_horizon_zero_is_rejected() {
        let _ = CurveEngine::new().lru(&reads(&[0, 1]), 0);
    }

    #[test]
    #[should_panic(expected = "curve horizon must be positive")]
    fn opt_horizon_zero_is_rejected() {
        let _ = CurveEngine::new().opt(&reads(&[0, 1]), 0);
    }

    #[test]
    fn capacity_one_equals_per_access_misses_without_immediate_reuse() {
        // With S = 1 every alternating access misses under both policies.
        let t = reads(&[0, 1, 0, 1, 0]);
        assert_eq!(lru_miss_curve(&t).loads(1), 5);
        assert_eq!(opt_miss_curve(&t).loads(1), 5);
        // Immediate reuse hits even at S = 1.
        let t = reads(&[7, 7, 7]);
        assert_eq!(lru_miss_curve(&t).loads(1), 1);
        assert_eq!(opt_miss_curve(&t).loads(1), 1);
    }

    #[test]
    fn all_distinct_trace_collapses_lru_opt_and_cold() {
        // No reuse at all: every policy pays exactly the cold misses at
        // every capacity, so the curves are flat and identical.
        let t = reads(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let lru = lru_miss_curve(&t);
        let opt = opt_miss_curve(&t);
        for s in 1..=t.len() {
            assert_eq!(lru.loads(s), t.len() as u64, "S={s}");
            assert_eq!(opt.loads(s), t.len() as u64, "S={s}");
            assert_eq!(lru.loads(s), lru.cold_loads());
            assert_eq!(opt.loads(s), opt.cold_loads());
        }
    }

    #[test]
    fn engine_buffers_are_reusable() {
        let mut e = CurveEngine::new();
        let t1 = reads(&[0, 1, 2, 0, 1, 2]);
        let a = e.opt(&t1, 6);
        let b = e.opt(&t1, 6);
        assert_eq!(a, b);
        let t2 = vec![Access::write(9), Access::read(9)];
        let c = e.lru(&t2, 2);
        assert_eq!(c.loads(1), 0, "write allocates, read hits");
    }

    /// First-touch reads of `t`: the cold loads of every capacity.
    fn first_touch_reads(t: &[Access]) -> u64 {
        let mut seen = std::collections::HashSet::new();
        t.iter().filter(|a| seen.insert(a.cell) && !a.write).count() as u64
    }

    /// LRU curves of `t` at `horizon` from the materialized ring and from
    /// the streamed one at chunk lengths 1 and 3, so every hand trace
    /// below also runs across chunk boundaries and through the streamed
    /// ring's growth.
    fn ring_curves(t: &[Access], horizon: usize) -> [(&'static str, MissCurve); 3] {
        let packed = pack(t);
        let token = CancelToken::unlimited();
        let streamed = |chunk| {
            crate::ShardedCurveEngine::with_chunk_len(chunk)
                .try_lru(&packed, horizon, &token)
                .unwrap()
        };
        [
            ("materialized", CurveEngine::new().lru(t, horizon)),
            ("streamed, chunk 1", streamed(1)),
            ("streamed, chunk 3", streamed(3)),
        ]
    }

    #[test]
    fn ring_write_to_a_resident_cell_moves_it_and_counts_nothing() {
        // 0 1 2 w0 1: the write lifts 0 over 2 and 1, so the last read of
        // 1 is at distance 3, not 2; the write itself is no load.
        let t = vec![
            Access::read(0),
            Access::read(1),
            Access::read(2),
            Access::write(0),
            Access::read(1),
        ];
        for (engine, c) in ring_curves(&t, 4) {
            assert_eq!(c.cold_loads(), 3, "{engine}");
            assert_eq!(c.loads(1), 4, "{engine}");
            assert_eq!(c.loads(2), 4, "{engine}");
            assert_eq!(c.loads(3), 3, "{engine}");
            assert_eq!(c.loads(4), 3, "{engine}");
        }
    }

    #[test]
    fn ring_evicts_at_exactly_the_horizon_and_rereads_count_beyond() {
        // 0 1 2 0 at horizon 3: the ring is full but nothing has fallen
        // off, so the reread is a hit at capacity 3.
        for (engine, c) in ring_curves(&reads(&[0, 1, 2, 0]), 3) {
            assert_eq!(
                (c.cold_loads(), c.loads(2), c.loads(3)),
                (3, 4, 3),
                "{engine}"
            );
        }
        // 0 1 2 3 0: the fourth cell pushes 0 off the bottom, and its
        // reread is a distance beyond the horizon, not a first touch.
        for (engine, c) in ring_curves(&reads(&[0, 1, 2, 3, 0]), 3) {
            assert_eq!(c.cold_loads(), 4, "{engine}");
            assert_eq!(c.loads(3), 5, "{engine}");
        }
    }

    #[test]
    fn ring_of_horizon_one() {
        let t = vec![
            Access::read(0),
            Access::read(0),
            Access::write(1),
            Access::read(1),
            Access::read(0),
            Access::read(0),
        ];
        for (engine, c) in ring_curves(&t, 1) {
            assert_eq!(c.cold_loads(), 1, "{engine}");
            assert_eq!(c.loads(1), 2, "{engine}");
            assert_eq!(c.loads(1), lru_stats(1, &t).loads, "{engine}");
        }
    }

    #[test]
    fn ring_wraps_many_times_under_a_non_power_of_two_horizon() {
        // Horizon 5 rounds the ring up to 8 slots. A pseudo-random walk over
        // 11 cells with runs of reuse laps the ring hundreds of times.
        let mut x = 7u64;
        let t: Vec<Access> = (0..3000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = x >> 33;
                Access {
                    cell: (r % 11) as usize,
                    write: r.is_multiple_of(7),
                }
            })
            .collect();
        for (engine, c) in ring_curves(&t, 5) {
            assert_eq!(c.cold_loads(), first_touch_reads(&t), "{engine}");
            for s in 1..=5 {
                assert_eq!(c.loads(s), lru_stats(s, &t).loads, "{engine} S={s}");
            }
        }
    }

    /// Sentinel-space audit: a trace whose value universe reaches the
    /// `u32` sentinels (`DEAD`/`DROPPED`/`NIL` at the top of the range)
    /// is refused with a typed error — never silently aliased.
    #[test]
    fn sentinel_collision_is_refused_not_wrapped() {
        let token = CancelToken::unlimited();
        let mut e = CurveEngine::new();
        for cell in [u32::MAX as u64, DROPPED as u64] {
            let packed = [cell << 1];
            for r in [
                e.try_lru_packed(&packed, 4, &token),
                e.try_opt_packed(&packed, 4, &token),
            ] {
                match r {
                    Err(AnalysisError::Refused(msg)) => {
                        assert!(msg.contains("sentinel"), "{msg}");
                    }
                    other => panic!("expected Refused, got {other:?}"),
                }
            }
        }
        // Just below the ceiling the id space is still addressable in
        // principle; the guard must key on the ceiling, not on "large".
        assert!((DROPPED as u64 - 1) < super::SENTINEL_CEILING);
    }

    /// The ungoverned convenience APIs turn the refusal into a panic
    /// rather than returning a wrapped curve.
    #[test]
    #[should_panic(expected = "sentinel")]
    fn ungoverned_sentinel_collision_panics() {
        let _ = CurveEngine::new().lru_packed(&[(u32::MAX as u64) << 1], 4);
    }

    pub(crate) fn arb_trace() -> impl Strategy<Value = Vec<Access>> {
        proptest::collection::vec((0usize..12, proptest::bool::ANY), 1..200).prop_map(|v| {
            v.into_iter()
                .map(|(cell, write)| Access { cell, write })
                .collect()
        })
    }

    /// Horizons on both sides of the first three multiples of
    /// [`SCAN_BLOCK`], one far past them that still drops cells, and one
    /// above [`WIDE_CELLS`] that never does.
    pub(crate) const WIDE_HORIZONS: [usize; 11] = [15, 16, 17, 31, 32, 33, 47, 48, 49, 100, 150];

    /// Proptest cases per wide-trace property.
    pub(crate) const WIDE_CASES: u32 = 32;

    /// Cell universe of [`arb_wide_trace`].
    const WIDE_CELLS: usize = 144;

    /// Traces whose OPT stacks span many [`SCAN_BLOCK`]s: a universe of
    /// [`WIDE_CELLS`] cells and a write on one access in four, so most
    /// values stay live and the displacement chains run deep.
    pub(crate) fn arb_wide_trace() -> impl Strategy<Value = Vec<Access>> {
        proptest::collection::vec((0..WIDE_CELLS, 0u8..4), 300..900).prop_map(|v| {
            v.into_iter()
                .map(|(cell, w)| Access {
                    cell,
                    write: w == 0,
                })
                .collect()
        })
    }

    /// `(LruSim, BeladySim)` loads of `t` at every capacity up to the
    /// largest of [`WIDE_HORIZONS`], indexed by `S − 1`.
    pub(crate) fn wide_replays(t: &[Access]) -> Vec<(u64, u64)> {
        (1..=WIDE_HORIZONS[WIDE_HORIZONS.len() - 1])
            .map(|s| (lru_stats(s, t).loads, min_stats(s, t).loads))
            .collect()
    }

    proptest! {
        /// The one-pass LRU curve is bitwise the `LruSim` replay at EVERY
        /// capacity — the Mattson stack property, checked exhaustively.
        #[test]
        fn lru_curve_matches_replay_at_every_capacity(t in arb_trace()) {
            let curve = lru_miss_curve(&t);
            for s in 1..=t.len() {
                prop_assert_eq!(curve.loads(s), lru_stats(s, &t).loads, "S={}", s);
            }
        }

        /// The one-pass OPT curve is bitwise the `BeladySim` replay at
        /// EVERY capacity.
        #[test]
        fn opt_curve_matches_replay_at_every_capacity(t in arb_trace()) {
            let curve = opt_miss_curve(&t);
            for s in 1..=t.len() {
                prop_assert_eq!(curve.loads(s), min_stats(s, &t).loads, "S={}", s);
            }
        }

        /// Truncated horizons agree with the full curve below the cap.
        #[test]
        fn truncated_curves_stay_exact(t in arb_trace(), horizon in 1usize..16) {
            let mut e = CurveEngine::new();
            let lru = e.lru(&t, horizon);
            let opt = e.opt(&t, horizon);
            for s in 1..=horizon.min(t.len().max(1)) {
                prop_assert_eq!(lru.loads(s), lru_stats(s, &t).loads, "lru S={}", s);
                prop_assert_eq!(opt.loads(s), min_stats(s, &t).loads, "opt S={}", s);
            }
        }

        /// Packed and struct traces produce identical curves.
        #[test]
        fn packed_matches_structs(t in arb_trace()) {
            let packed = pack(&t);
            let mut e = CurveEngine::new();
            prop_assert_eq!(e.lru(&t, 16), e.lru_packed(&packed, 16));
            prop_assert_eq!(e.opt(&t, 16), e.opt_packed(&packed, 16));
        }

        /// OPT is optimal: its curve sits at or below LRU's pointwise, and
        /// both decrease monotonically to the cold floor.
        #[test]
        fn curves_are_ordered_and_monotone(t in arb_trace()) {
            let lru = lru_miss_curve(&t);
            let opt = opt_miss_curve(&t);
            let mut prev = u64::MAX;
            for s in 1..=t.len() {
                prop_assert!(opt.loads(s) <= lru.loads(s));
                prop_assert!(opt.loads(s) <= prev);
                prev = opt.loads(s);
                prop_assert!(lru.loads(s) >= lru.cold_loads());
            }
            prop_assert_eq!(opt.loads(t.len()), opt.cold_loads());
        }
    }

    proptest! {
        // Each case replays both simulators at 150 capacities.
        #![proptest_config(ProptestConfig::with_cases(WIDE_CASES))]

        /// Block-scan coverage: on stacks many [`SCAN_BLOCK`]s deep, both
        /// curves equal the simulator replays at every capacity, for
        /// horizons on either side of the block multiples.
        #[test]
        fn wide_stacks_match_replays_at_every_capacity(t in arb_wide_trace()) {
            let replays = wide_replays(&t);
            let cold = crate::cold_loads(&t);
            let mut e = CurveEngine::new();
            for horizon in WIDE_HORIZONS {
                let lru = e.lru(&t, horizon);
                let opt = e.opt(&t, horizon);
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
