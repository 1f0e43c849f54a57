//! Two-level memory simulator at element granularity.
//!
//! The paper's model (§2) has a small fast memory of size `S` and an
//! unbounded slow memory; the I/O cost of a schedule is the number of
//! transfers. This crate measures exactly that for concrete access traces.
//! A trace is one packed event per `u64`, `(cell << 1) | write` — the
//! encoding of the CDAG program-order trace and the tuner's candidate
//! traces — held in a slice, or pulled chunk by chunk from a
//! [`ChunkedTrace`]:
//!
//! * [`LruSim`] — fully-associative LRU replacement at one capacity, O(1)
//!   per access,
//! * [`BeladySim`] — Belady's MIN (optimal offline replacement for a fixed
//!   schedule) at one capacity, one reverse pass to thread next-use chains
//!   through the trace, then one forward pass over a hierarchical-bitmap
//!   "farthest resident position" structure — no per-access allocation,
//!   and all working buffers are reused across runs,
//! * [`CurveEngine`] — one-pass stack-distance profilers producing the
//!   exact [`MissCurve`] `loads(S)` of a trace slice for *every* capacity
//!   at once, for both policies (see [`curve`]), and
//!   [`ShardedCurveEngine`], the same curves from a [`ChunkedTrace`]
//!   without materializing it (see [`stream`]),
//! * write semantics follow the red-white pebble game: a write *produces*
//!   the value in fast memory (no load on a write miss); evicting a dirty
//!   element counts a writeback. Because an overwrite re-materializes the
//!   value for free, a resident element whose next access is a write is
//!   *dead* — [`BeladySim`] evicts such elements first (alongside the
//!   never-used-again ones), which is what makes it exactly optimal for
//!   this cost model rather than merely next-access-greedy.
//!
//! Cell ids are expected to be *dense* (array base offset + flat element
//! index, as `iolb_ir::DeclaredAccesses` numbers cells); every structure
//! here is a flat slab indexed by cell or by trace position — the hot
//! paths perform no hashing and no ordered-map rebalancing.
//!
//! Measured `loads` of any schedule are an upper bound witness: lower bounds
//! derived by `iolb-core` must sit below them.

pub mod curve;
pub mod stream;

pub use curve::{CurveEngine, MissCurve};
pub use stream::{ChunkedTrace, ShardedCurveEngine, DEFAULT_CHUNK_LEN};

/// I/O statistics of one simulated execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Loads: slow→fast transfers (read misses).
    pub loads: u64,
    /// Writebacks: dirty evictions plus the final dirty flush.
    pub writebacks: u64,
    /// Total accesses processed.
    pub accesses: u64,
    /// Peak number of resident elements.
    pub peak_resident: usize,
}

impl IoStats {
    /// Loads + writebacks.
    pub fn total(&self) -> u64 {
        self.loads + self.writebacks
    }
}

pub(crate) const NIL: u32 = u32::MAX;

/// The cell of a packed event.
#[inline]
pub(crate) fn cell_of(packed: u64) -> usize {
    (packed >> 1) as usize
}

/// Whether a packed event is a write.
#[inline]
pub(crate) fn is_write(packed: u64) -> bool {
    packed & 1 == 1
}

/// Cell-id universe size of a packed trace: one past its largest cell id,
/// 0 for an empty trace. One read of the trace, taken before any
/// cell-sized table is allocated.
pub(crate) fn cell_universe(packed: &[u64]) -> usize {
    packed.iter().map(|&p| cell_of(p) + 1).max().unwrap_or(0)
}

/// Reverse-pass next-use threading shared by [`BeladySim`] and the
/// stack-distance profilers in [`curve`]: after the call, `chain[t]` is
/// the next position accessing the same cell as position `t` ([`NIL`]
/// when there is none). `cells` is the trace's [`cell_universe`].
pub(crate) fn thread_next_use(
    packed: &[u64],
    cells: usize,
    chain: &mut Vec<u32>,
    head: &mut Vec<u32>,
) {
    chain.clear();
    chain.resize(packed.len(), NIL);
    head.clear();
    head.resize(cells, NIL);
    for (t, &p) in packed.iter().enumerate().rev() {
        let cell = cell_of(p);
        chain[t] = head[cell];
        head[cell] = t as u32;
    }
}

/// Fully-associative LRU cache of `capacity` elements, O(1) per access.
///
/// Implemented as an intrusive doubly-linked list over a slab of at most
/// `capacity` slots, with a flat cell→slot table (grown on demand — cell
/// ids are dense program offsets, so this is a plain array lookup, not a
/// hash). Each slab slot packs cell, links, and the dirty flag into one
/// 16-byte record, so a hit touches one cache line of the slab.
#[derive(Debug)]
pub struct LruSim {
    capacity: usize,
    /// cell → slot, NIL when not resident. Grows to the largest cell seen.
    slot_of: Vec<u32>,
    resident: usize,
    slots: Vec<Slot>,
    head: u32, // most recently used
    tail: u32, // least recently used
    stats: IoStats,
}

/// One slab record of [`LruSim`] (16 bytes).
#[derive(Debug, Clone, Copy)]
struct Slot {
    cell: u32,
    prev: u32,
    next: u32,
    dirty: u32,
}

impl LruSim {
    /// Creates a simulator with the given fast-memory capacity (elements).
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> LruSim {
        assert!(capacity > 0, "cache capacity must be positive");
        LruSim {
            capacity,
            slot_of: Vec::new(),
            resident: 0,
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            stats: IoStats::default(),
        }
    }

    #[inline]
    fn slot_entry(&mut self, cell: usize) -> u32 {
        if cell >= self.slot_of.len() {
            assert!(cell < NIL as usize, "cell id out of range");
            self.slot_of.resize(cell + 1, NIL);
        }
        self.slot_of[cell]
    }

    /// Runs a packed trace (`(cell << 1) | write` per event, the encoding
    /// of the CDAG program-order trace and the tuner's candidate traces).
    /// Successive runs continue from the cache state the last one left.
    pub fn run_packed(&mut self, packed: &[u64]) -> IoStats {
        self.stats.accesses += packed.len() as u64;
        for &p in packed {
            self.access(cell_of(p), is_write(p));
        }
        self.stats
    }

    /// Processes one access.
    #[inline]
    fn access(&mut self, cell: usize, write: bool) {
        let slot = self.slot_entry(cell);
        if slot != NIL {
            // Hit: refresh recency (no-op when already most recent).
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            if write {
                self.slots[slot as usize].dirty = 1;
            }
            return;
        }
        // Miss.
        if !write {
            self.stats.loads += 1;
        }
        let slot = if self.resident == self.capacity {
            self.recycle_lru(cell, write)
        } else {
            self.resident += 1;
            self.stats.peak_resident = self.stats.peak_resident.max(self.resident);
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                cell: cell as u32,
                prev: NIL,
                next: NIL,
                dirty: write as u32,
            });
            slot
        };
        self.push_front(slot);
        self.slot_of[cell] = slot;
    }

    /// Statistics so far (without final flush).
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Flushes remaining dirty elements (counts writebacks) and returns the
    /// final statistics.
    pub fn finish(mut self) -> IoStats {
        let mut v = self.head;
        let mut dirty_resident = 0u64;
        while v != NIL {
            if self.slots[v as usize].dirty != 0 {
                dirty_resident += 1;
            }
            v = self.slots[v as usize].next;
        }
        self.stats.writebacks += dirty_resident;
        self.stats
    }

    #[inline]
    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot {
            prev: p, next: n, ..
        } = self.slots[slot as usize];
        if p != NIL {
            self.slots[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    /// Evicts the LRU element and reuses its slot for `cell` (unlinked;
    /// caller pushes it to the front).
    #[inline]
    fn recycle_lru(&mut self, cell: usize, dirty: bool) -> u32 {
        let victim = self.tail;
        assert!(victim != NIL, "evict from empty cache");
        self.unlink(victim);
        let s = &mut self.slots[victim as usize];
        if s.dirty != 0 {
            self.stats.writebacks += 1;
        }
        let old_cell = s.cell;
        *s = Slot {
            cell: cell as u32,
            prev: NIL,
            next: NIL,
            dirty: dirty as u32,
        };
        self.slot_of[old_cell as usize] = NIL;
        victim
    }
}

/// Hierarchical bitmap over a dense position universe answering `max` /
/// `set` / `clear` in a handful of word operations (three u64 levels ≈
/// positions up to 2²⁴ in two cache lines of summaries).
///
/// This is the simulators' replacement-policy workhorse: "farthest next
/// use" queries reduce to `max` over a set of positions.
#[derive(Debug, Default)]
pub struct MaxPosSet {
    l0: Vec<u64>,
    l1: Vec<u64>,
    l2: Vec<u64>,
}

impl MaxPosSet {
    /// Creates an empty set over positions `0..n`.
    pub fn new(n: usize) -> MaxPosSet {
        let mut s = MaxPosSet::default();
        s.reset(n);
        s
    }

    /// Clears the set and resizes it to positions `0..n`.
    pub fn reset(&mut self, n: usize) {
        let w0 = n.div_ceil(64);
        let w1 = w0.div_ceil(64);
        let w2 = w1.div_ceil(64).max(1);
        self.l0.clear();
        self.l0.resize(w0.max(1), 0);
        self.l1.clear();
        self.l1.resize(w1.max(1), 0);
        self.l2.clear();
        self.l2.resize(w2, 0);
    }

    /// Inserts `pos`.
    #[inline]
    pub fn set(&mut self, pos: usize) {
        self.l0[pos >> 6] |= 1 << (pos & 63);
        self.l1[pos >> 12] |= 1 << ((pos >> 6) & 63);
        self.l2[pos >> 18] |= 1 << ((pos >> 12) & 63);
    }

    /// Removes `pos` (no-op when absent... except the summary bits assume
    /// it was present — only clear positions previously set).
    #[inline]
    pub fn clear(&mut self, pos: usize) {
        let w0 = pos >> 6;
        self.l0[w0] &= !(1 << (pos & 63));
        if self.l0[w0] == 0 {
            let w1 = pos >> 12;
            self.l1[w1] &= !(1 << (w0 & 63));
            if self.l1[w1] == 0 {
                self.l2[pos >> 18] &= !(1 << (w1 & 63));
            }
        }
    }

    /// Highest set position, if any.
    #[inline]
    pub fn max(&self) -> Option<usize> {
        let w2 = self.l2.iter().rposition(|&w| w != 0)?;
        let b2 = 63 - self.l2[w2].leading_zeros() as usize;
        let w1 = (w2 << 6) | b2;
        let b1 = 63 - self.l1[w1].leading_zeros() as usize;
        let w0 = (w1 << 6) | b1;
        let b0 = 63 - self.l0[w0].leading_zeros() as usize;
        Some((w0 << 6) | b0)
    }
}

/// Belady's MIN: optimal replacement for a fixed trace.
///
/// One reverse pass threads a next-use chain through the trace (`chain[t]` =
/// next position touching `trace[t]`'s cell); the forward pass keeps the
/// resident set as the *set of next-use positions* in a [`MaxPosSet`] — the
/// victim is the maximum position, and `trace[pos]` recovers its cell, so no
/// ordered map and no per-access allocation is needed.
///
/// A resident element is *dead* when it is never read again before being
/// overwritten (its next access is a write, or there is none): a write
/// miss produces its value in fast memory for free, so evicting a dead
/// element can never cost a load. Dead elements live in their own
/// [`MaxPosSet`] (keyed by cell, matching the reference engine's largest-
/// tie-break) and are evicted first — they compare as `+∞`. This
/// write-kill rule is what makes the greedy farthest-next-use policy
/// *exactly* optimal under the red-white cost model; without it, MIN
/// pointlessly retains values whose next event is their own overwrite.
///
/// All buffers are reused across [`run_packed`](BeladySim::run_packed)
/// calls on the same simulator.
#[derive(Debug)]
pub struct BeladySim {
    capacity: usize,
    // Reusable buffers (sized per run, never per access).
    chain: Vec<u32>,
    head: Vec<u32>,
    next_pos: Vec<u32>,
    dirty: Vec<bool>,
    is_resident: Vec<bool>,
    alive: MaxPosSet,
    dead: MaxPosSet,
}

impl BeladySim {
    /// Creates a MIN simulator with the given capacity.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> BeladySim {
        assert!(capacity > 0, "cache capacity must be positive");
        BeladySim {
            capacity,
            chain: Vec::new(),
            head: Vec::new(),
            next_pos: Vec::new(),
            dirty: Vec::new(),
            is_resident: Vec::new(),
            alive: MaxPosSet::default(),
            dead: MaxPosSet::default(),
        }
    }

    /// Simulates a packed trace (`(cell << 1) | write` per event, the
    /// encoding of the CDAG program-order trace and the tuner's candidate
    /// traces) under optimal replacement.
    pub fn run_packed(&mut self, packed: &[u64]) -> IoStats {
        // Reverse pass: chain[t] = next position accessing the same cell.
        let (len, cells) = (packed.len(), cell_universe(packed));
        thread_next_use(packed, cells, &mut self.chain, &mut self.head);

        // Forward pass state, all dense by cell or position.
        self.next_pos.clear();
        self.next_pos.resize(cells, NIL);
        self.dirty.clear();
        self.dirty.resize(cells, false);
        self.is_resident.clear();
        self.is_resident.resize(cells, false);
        self.alive.reset(len);
        self.dead.reset(cells);

        let mut stats = IoStats::default();
        let mut resident = 0usize;
        for (t, &p) in packed.iter().enumerate() {
            let (cell, write) = (cell_of(p), is_write(p));
            stats.accesses += 1;
            let nu = self.chain[t];
            // The value is dead after this access when it is never read
            // again before its next overwrite (write-kill rule).
            let goes_dead = nu == NIL || is_write(packed[nu as usize]);
            if self.is_resident[cell] {
                // Hit: reposition by new next use. The cell was tracked
                // alive exactly when this access is a read (a pending
                // write meant it sat in the dead set).
                debug_assert_eq!(self.next_pos[cell], t as u32);
                if write {
                    self.dead.clear(cell);
                } else {
                    self.alive.clear(t);
                }
                if goes_dead {
                    self.dead.set(cell);
                } else {
                    self.alive.set(nu as usize);
                }
                self.next_pos[cell] = nu;
                if write {
                    self.dirty[cell] = true;
                }
                continue;
            }
            // Miss.
            if !write {
                stats.loads += 1;
            }
            if resident == self.capacity {
                // Victim: any dead element first (+∞ key; largest cell id
                // — the reference engine's tie-break), otherwise the
                // maximum next-use position.
                let victim = match self.dead.max() {
                    Some(c) => {
                        self.dead.clear(c);
                        c
                    }
                    None => {
                        let pos = self.alive.max().expect("resident set not empty");
                        self.alive.clear(pos);
                        cell_of(packed[pos])
                    }
                };
                self.is_resident[victim] = false;
                resident -= 1;
                if std::mem::replace(&mut self.dirty[victim], false) {
                    stats.writebacks += 1;
                }
            }
            self.is_resident[cell] = true;
            self.next_pos[cell] = nu;
            if goes_dead {
                self.dead.set(cell);
            } else {
                self.alive.set(nu as usize);
            }
            self.dirty[cell] = write;
            resident += 1;
            stats.peak_resident = stats.peak_resident.max(resident);
        }
        // Final flush of dirty residents.
        stats.writebacks += self.dirty.iter().filter(|&&d| d).count() as u64;
        stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A read of `cell` as a packed event.
    pub(crate) fn r(cell: u64) -> u64 {
        cell << 1
    }

    /// A write of `cell` as a packed event.
    pub(crate) fn w(cell: u64) -> u64 {
        (cell << 1) | 1
    }

    /// A trace reading `cells` in order.
    pub(crate) fn reads(cells: &[u64]) -> Vec<u64> {
        cells.iter().map(|&c| r(c)).collect()
    }

    /// LRU stats of a trace at `capacity`, with the final dirty flush.
    pub(crate) fn lru_stats(capacity: usize, trace: &[u64]) -> IoStats {
        let mut sim = LruSim::new(capacity);
        sim.run_packed(trace);
        sim.finish()
    }

    /// MIN (optimal) stats of a trace at `capacity`.
    pub(crate) fn min_stats(capacity: usize, trace: &[u64]) -> IoStats {
        BeladySim::new(capacity).run_packed(trace)
    }

    /// Distinct cells read before being written: the cold loads of every
    /// capacity, and the loads of an unbounded cache.
    pub(crate) fn cold_loads(trace: &[u64]) -> u64 {
        let mut seen = std::collections::HashSet::new();
        trace
            .iter()
            .filter(|&&p| seen.insert(cell_of(p)) && !is_write(p))
            .count() as u64
    }

    /// Up to 200 events over 12 cells, reads and writes equally likely.
    pub(crate) fn arb_trace() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec((0u64..12, proptest::bool::ANY), 1..200).prop_map(|v| {
            v.into_iter()
                .map(|(c, write)| (c << 1) | write as u64)
                .collect()
        })
    }

    #[test]
    fn lru_basic_hits_and_misses() {
        let t = reads(&[0, 1, 0, 2, 0]);
        let s = lru_stats(2, &t);
        assert_eq!(s.loads, 3);
        assert_eq!(s.writebacks, 0);
        assert_eq!(s.accesses, 5);
        assert_eq!(s.peak_resident, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // capacity 2: a b c → evict a; then a misses again.
        let t = reads(&[0, 1, 2, 0]);
        assert_eq!(lru_stats(2, &t).loads, 4);
        // capacity 3 keeps everything.
        assert_eq!(lru_stats(3, &t).loads, 3);
    }

    #[test]
    fn write_miss_costs_no_load() {
        let t = vec![w(0), r(0)];
        let s = lru_stats(4, &t);
        assert_eq!(s.loads, 0);
        // Final flush writes the dirty cell back once.
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        // capacity 1: write 0, read 1 → 0 evicted dirty.
        let t = vec![w(0), r(1)];
        let s = lru_stats(1, &t);
        assert_eq!(s.loads, 1);
        assert_eq!(s.writebacks, 1);
    }

    /// Successive runs on one `LruSim` continue from the cache state the
    /// last one left, and count every access.
    #[test]
    fn lru_runs_continue_where_the_last_left_off() {
        let mut sim = LruSim::new(2);
        assert_eq!(sim.run_packed(&reads(&[0, 1])).loads, 2);
        let s = sim.run_packed(&reads(&[1, 0, 2]));
        assert_eq!((s.loads, s.accesses), (3, 5));
    }

    /// The write-kill rule: a resident value whose next access is its own
    /// overwrite is evicted for free, which plain next-access-greedy
    /// Belady misses. This asymmetry is exactly what made the old
    /// `trace_min_loads` occasionally exceed a legal pebble play's loads
    /// in the tightness harness: the pebble engine's MIN policy keys on
    /// next *reads*, so the trace simulator had to as well.
    #[test]
    fn pending_overwrite_makes_a_value_dead() {
        // cap 2: rA rB rC wB rB rA. At rC the resident set is {A, B} with
        // A next read at 5 and B next *written* at 3: killing B keeps A
        // resident and costs 3 loads total. Next-access-greedy would evict
        // A (5 > 3) and pay a 4th load for the rA at the end.
        let t = vec![r(0), r(1), r(2), w(1), r(1), r(0)];
        assert_eq!(min_stats(2, &t).loads, 3);
    }

    #[test]
    fn belady_beats_lru_on_looping_pattern() {
        // Cyclic scan of 3 cells with capacity 2: LRU misses every access,
        // MIN hits more.
        let t = reads(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let lru = lru_stats(2, &t);
        let min = min_stats(2, &t);
        assert_eq!(lru.loads, 9);
        assert!(min.loads < lru.loads);
    }

    #[test]
    fn belady_with_infinite_capacity_is_cold_misses() {
        let t = reads(&[5, 3, 5, 9, 3, 5, 11]);
        let s = min_stats(100, &t);
        assert_eq!(s.loads, 4);
        assert_eq!(s.loads, cold_loads(&t));
    }

    #[test]
    fn belady_buffers_are_reusable() {
        let mut sim = BeladySim::new(2);
        let t1 = reads(&[0, 1, 2, 0, 1, 2]);
        let a = sim.run_packed(&t1);
        let b = sim.run_packed(&t1);
        assert_eq!(a, b, "same trace twice through one simulator");
        // A different (shorter, different cells) trace after the first.
        let c = sim.run_packed(&[w(7), r(7)]);
        assert_eq!(c.loads, 0);
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn cold_loads_skips_written_cells() {
        assert_eq!(cold_loads(&[w(1), r(1), r(2), r(2)]), 1);
    }

    #[test]
    fn empty_trace() {
        assert_eq!(min_stats(4, &[]).accesses, 0);
        assert_eq!(lru_stats(4, &[]).accesses, 0);
        assert_eq!(cold_loads(&[]), 0);
    }

    /// Reference MIN implementation (ordered map, two materialized passes) —
    /// the original engine, kept as an executable specification. The
    /// eviction key of a value that is never read again before its next
    /// overwrite is `+∞` (the write-kill rule: a write miss costs nothing,
    /// so dead values are always the cheapest victims).
    fn min_stats_reference(capacity: usize, trace: &[u64]) -> IoStats {
        use std::collections::{BTreeSet, HashMap};
        const INF_POS: usize = usize::MAX;
        let mut next_use = vec![INF_POS; trace.len()];
        let mut last_seen: HashMap<usize, usize> = HashMap::new();
        for (t, &p) in trace.iter().enumerate().rev() {
            if let Some(&n) = last_seen.get(&cell_of(p)) {
                next_use[t] = n;
            }
            last_seen.insert(cell_of(p), t);
        }
        let mut stats = IoStats::default();
        let mut resident: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut resident_key: HashMap<usize, usize> = HashMap::new();
        let mut dirty: HashMap<usize, bool> = HashMap::new();
        for (t, &p) in trace.iter().enumerate() {
            let (cell, write) = (cell_of(p), is_write(p));
            stats.accesses += 1;
            // Dead (key +∞) when never accessed again or next access is a
            // write — the overwrite re-materializes the value for free.
            let nu = match next_use[t] {
                INF_POS => INF_POS,
                n if is_write(trace[n]) => INF_POS,
                n => n,
            };
            if let Some(&key) = resident_key.get(&cell) {
                resident.remove(&(key, cell));
                resident.insert((nu, cell));
                resident_key.insert(cell, nu);
                if write {
                    dirty.insert(cell, true);
                }
                continue;
            }
            if !write {
                stats.loads += 1;
            }
            if resident.len() == capacity {
                let &(victim_key, victim) = resident.iter().next_back().expect("non-empty");
                resident.remove(&(victim_key, victim));
                resident_key.remove(&victim);
                if dirty.remove(&victim).unwrap_or(false) {
                    stats.writebacks += 1;
                }
            }
            resident.insert((nu, cell));
            resident_key.insert(cell, nu);
            dirty.insert(cell, write);
            stats.peak_resident = stats.peak_resident.max(resident.len());
        }
        stats.writebacks += resident_key
            .keys()
            .filter(|c| dirty.get(c).copied().unwrap_or(false))
            .count() as u64;
        stats
    }

    proptest! {
        /// MIN is optimal: never more loads than LRU.
        #[test]
        fn min_never_beaten_by_lru(t in arb_trace(), cap in 1usize..8) {
            prop_assert!(min_stats(cap, &t).loads <= lru_stats(cap, &t).loads);
        }

        /// Both policies are stack algorithms: loads monotone in capacity.
        #[test]
        fn loads_monotone_in_capacity(t in arb_trace(), cap in 1usize..8) {
            prop_assert!(lru_stats(cap + 1, &t).loads <= lru_stats(cap, &t).loads);
            prop_assert!(min_stats(cap + 1, &t).loads <= min_stats(cap, &t).loads);
        }

        /// Loads never drop below cold misses, and with huge capacity they
        /// equal cold misses.
        #[test]
        fn cold_misses_are_floor(t in arb_trace(), cap in 1usize..8) {
            let floor = cold_loads(&t);
            prop_assert!(lru_stats(cap, &t).loads >= floor);
            prop_assert!(min_stats(cap, &t).loads >= floor);
            prop_assert_eq!(min_stats(1000, &t).loads, floor);
            prop_assert_eq!(lru_stats(1000, &t).loads, floor);
        }

        /// Accesses are all counted and peak residency respects capacity.
        #[test]
        fn bookkeeping_invariants(t in arb_trace(), cap in 1usize..8) {
            let s = lru_stats(cap, &t);
            prop_assert_eq!(s.accesses, t.len() as u64);
            prop_assert!(s.peak_resident <= cap);
            let m = min_stats(cap, &t);
            prop_assert_eq!(m.accesses, t.len() as u64);
            prop_assert!(m.peak_resident <= cap);
        }

        /// The streaming MIN engine matches the ordered-map reference on
        /// loads and total residency (victim ties among dead elements may be
        /// broken differently, which legally reorders *when* a writeback
        /// happens but never how many there are in total).
        #[test]
        fn streaming_min_matches_reference(t in arb_trace(), cap in 1usize..8) {
            let fast = min_stats(cap, &t);
            let slow = min_stats_reference(cap, &t);
            prop_assert_eq!(fast.loads, slow.loads);
            prop_assert_eq!(fast.accesses, slow.accesses);
            prop_assert_eq!(fast.peak_resident, slow.peak_resident);
            prop_assert_eq!(fast.writebacks, slow.writebacks);
        }
    }
}
