//! Content-hash result cache.
//!
//! The whole analysis pipeline is deterministic (the fuzzer's
//! bitwise-determinism tests prove it), so every finished report is
//! infinitely cacheable: the cache key is the 128-bit FNV-1a hash of the
//! *canonicalized* kernel text (pretty-print round-trip, so
//! formatting-only variants of the same kernel collide on purpose)
//! crossed with the option fingerprint. Three layers:
//!
//! * **parse layer** — raw source hash → canonical text + canonical
//!   hash, so a byte-identical resubmission skips the parser entirely;
//! * **priced layer** — (canonical hash, option fingerprint without its
//!   `grid=` segment) → the request's grid-independent step
//!   (`Priced`: bounds, CDAG facts, engine
//!   profiles, and the LRU/OPT miss curves up to their horizon), so a
//!   request that changes only its S grid skips the CDAG, the derivation
//!   and both curve passes. Only `no_tightness` requests at the full rung
//!   use it;
//! * **report layer** — (canonical hash, option fingerprint) → finished
//!   [`AnalysisOutcome`](crate::pipeline::AnalysisOutcome), plus its
//!   rendered `serve/v1` body once the daemon has served it.
//!
//! Every layer is sharded (16 independent mutexes chosen by key hash)
//! so concurrent requests on the rayon pool never serialize on one lock,
//! and each deduplicates *in-flight* computations: the first requester of
//! a key computes while later requesters block on the shard's condvar
//! and then count as hits. That makes the hit/miss counters
//! deterministic — for any request multiset, misses = distinct keys —
//! which the concurrency tests assert. (The priced layer also counts a
//! miss when a grid reaches past an entry's horizon and the entry is
//! priced again.)
//!
//! A cache built with [`ShardedCache::with_capacity`] additionally bounds
//! its entry count: each shard holds at most ⌈capacity / shards⌉ finished
//! entries and evicts its least-recently-touched one (a monotone global
//! touch tick, never an in-flight `Pending` marker) when an insert would
//! exceed that. Evictions are counted and surfaced through
//! [`LayerStats::evictions`] — the daemon's report and priced layers use
//! this to keep a long-lived process from growing without bound, while the
//! parse layer (tiny entries) stays unbounded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// 128-bit FNV-1a over the given bytes (the canonical content hash; no
/// truncation, so accidental collisions are out of the picture at any
/// realistic corpus size).
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Snapshot of one cache layer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerStats {
    /// Requests answered from the cache (including requests that waited
    /// for an in-flight computation of the same key).
    pub hits: u64,
    /// Requests that computed and inserted (= distinct successful keys,
    /// thanks to in-flight dedup).
    pub misses: u64,
    /// Finished entries dropped by the capacity bound (0 forever on
    /// unbounded layers).
    pub evictions: u64,
}

impl LayerStats {
    /// Hit fraction (0 when the layer is untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot of the three layers, served verbatim by the daemon's `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Raw-source → canonical-text layer.
    pub parse: LayerStats,
    /// Canonical-hash × options without the grid → grid-independent
    /// analysis layer.
    pub priced: LayerStats,
    /// Canonical-hash × options → finished-report layer.
    pub report: LayerStats,
}

const SHARDS: usize = 16;

/// One slot of a shard map: a finished value (with its last-touch tick,
/// for LRU eviction), or a marker that another thread is computing it
/// right now.
enum Slot<V> {
    Pending,
    Ready(Arc<V>, u64),
}

struct Shard<K, V> {
    map: Mutex<HashMap<K, Slot<V>>>,
    cv: Condvar,
}

/// A sharded, interior-mutable map with in-flight deduplication. `K` is
/// expected to carry good hash bits already (content hashes), so the
/// shard index is taken from the key's own hash.
pub struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    /// Finished-entry bound per shard; 0 = unbounded.
    cap_per_shard: usize,
    /// Monotone touch clock shared by every shard (LRU recency order).
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: std::hash::Hash + Eq + Clone, V> Default for ShardedCache<K, V> {
    fn default() -> Self {
        ShardedCache::new(0)
    }
}

impl<K: std::hash::Hash + Eq + Clone, V> ShardedCache<K, V> {
    fn new(cap_per_shard: usize) -> ShardedCache<K, V> {
        ShardedCache {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    map: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            cap_per_shard,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache bounded to roughly `capacity` finished entries in total
    /// (each shard holds at most ⌈capacity / shards⌉, so the worst-case
    /// total overshoots by at most one entry per shard under skewed key
    /// distributions). `capacity = 0` means unbounded.
    pub fn with_capacity(capacity: usize) -> ShardedCache<K, V> {
        ShardedCache::new(capacity.div_ceil(SHARDS))
    }

    /// The configured total finished-entry bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.cap_per_shard * SHARDS
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the cached value for `key`, or computes it with `f`.
    ///
    /// Exactly one caller computes per key: concurrent requesters of the
    /// same key block until the computation finishes and then share the
    /// result (counted as hits). Errors are never cached — the pending
    /// marker is removed so the next requester retries (budget and
    /// deadline failures depend on the options, which are part of the
    /// key, so retrying is deterministic per key).
    ///
    /// # Errors
    /// Whatever `f` returned; waiting threads re-race on the key.
    pub fn get_or_compute<E>(&self, key: K, f: impl FnOnce() -> Result<V, E>) -> Result<Arc<V>, E> {
        self.get_fitting_or_compute(key, |_| true, f)
    }

    /// [`get_or_compute`](ShardedCache::get_or_compute), except that a
    /// finished entry `fits` rejects is computed again and replaced: the
    /// request counts as a miss, and if the new computation fails the key
    /// is left empty. A replaced entry is not counted as an eviction.
    ///
    /// # Errors
    /// Whatever `f` returned; waiting threads re-race on the key.
    pub fn get_fitting_or_compute<E>(
        &self,
        key: K,
        fits: impl Fn(&V) -> bool,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let shard = self.shard(&key);
        {
            let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match map.get_mut(&key) {
                    Some(Slot::Ready(v, touched)) if fits(v) => {
                        *touched = self.tick.fetch_add(1, Ordering::Relaxed);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(v));
                    }
                    None | Some(Slot::Ready(..)) => {
                        map.insert(key.clone(), Slot::Pending);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Some(Slot::Pending) => {
                        map = shard.cv.wait(map).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }
        // Compute outside the lock. The caller is responsible for
        // wrapping panicky work in a `catch_analysis` barrier so this
        // always resolves the pending marker; a panic that does escape
        // poisons only this key's waiters, not the whole process.
        let result = f();
        let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        match &result {
            Ok(_) => {}
            Err(_) => {
                map.remove(&key);
                shard.cv.notify_all();
            }
        }
        match result {
            Ok(v) => {
                let v = Arc::new(v);
                map.insert(
                    key,
                    Slot::Ready(Arc::clone(&v), self.tick.fetch_add(1, Ordering::Relaxed)),
                );
                if self.cap_per_shard > 0 {
                    self.evict_over_cap(&mut map);
                }
                shard.cv.notify_all();
                Ok(v)
            }
            Err(e) => Err(e),
        }
    }

    /// Drops least-recently-touched finished entries until the shard is
    /// back at its cap. `Pending` markers are never evicted (a waiter is
    /// parked on them), and the just-inserted entry carries the newest
    /// tick so it is the last candidate.
    fn evict_over_cap(&self, map: &mut HashMap<K, Slot<V>>) {
        loop {
            let ready = map
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready(..)))
                .count();
            if ready <= self.cap_per_shard {
                return;
            }
            let oldest = map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(_, touched) => Some((*touched, k.clone())),
                    Slot::Pending => None,
                })
                .min_by_key(|(touched, _)| *touched);
            match oldest {
                Some((_, k)) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }

    /// Peeks without computing or counting (used by tests).
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        let map = self
            .shard(key)
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match map.get(key) {
            Some(Slot::Ready(v, _)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LayerStats {
        LayerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of finished entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.map
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .values()
                    .filter(|v| matches!(v, Slot::Ready(..)))
                    .count()
            })
            .sum()
    }

    /// Whether the cache holds no finished entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test-only assertions
    use super::*;

    #[test]
    fn fnv_is_stable_and_spreads() {
        // Reference vector: FNV-1a 128 of the empty input is the offset
        // basis; of "a" it is a fixed published value.
        assert_eq!(fnv1a_128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fnv1a_128(b"kernel a"), fnv1a_128(b"kernel b"));
    }

    #[test]
    fn compute_once_then_hit() {
        let cache: ShardedCache<u128, String> = ShardedCache::default();
        let v = cache
            .get_or_compute(7, || Ok::<_, ()>("seven".to_string()))
            .unwrap();
        assert_eq!(*v, "seven");
        let again = cache
            .get_or_compute(7, || -> Result<String, ()> { panic!("must not recompute") })
            .unwrap();
        assert_eq!(*again, "seven");
        assert_eq!(
            cache.stats(),
            LayerStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_touched() {
        // One entry per shard: any second entry landing on an occupied
        // shard must push out the older one.
        let cache: ShardedCache<u128, u64> = ShardedCache::with_capacity(SHARDS);
        assert_eq!(cache.capacity(), SHARDS);
        let n = 10 * SHARDS as u128;
        for k in 0..n {
            cache.get_or_compute(k, || Ok::<_, ()>(k as u64)).unwrap();
        }
        assert!(cache.len() <= SHARDS, "len {} over cap", cache.len());
        let stats = cache.stats();
        assert_eq!(stats.misses, n as u64);
        assert_eq!(stats.evictions, stats.misses - cache.len() as u64);

        // Recency matters: keep touching one key while flooding others on
        // (probabilistically) every shard — the touched key survives
        // because each insert's eviction victim is the *least recently*
        // touched entry, never the freshly-touched hot key. (Per-shard
        // cap of 2, so the hot key and the newest flood key coexist.)
        let cache: ShardedCache<u128, u64> = ShardedCache::with_capacity(2 * SHARDS);
        cache.get_or_compute(0, || Ok::<_, ()>(0)).unwrap();
        for k in 1..n {
            cache.get_or_compute(k, || Ok::<_, ()>(k as u64)).unwrap();
            cache
                .get_or_compute(0, || -> Result<u64, ()> { panic!("evicted the hot key") })
                .unwrap();
        }
        assert!(cache.peek(&0).is_some());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache: ShardedCache<u128, u64> = ShardedCache::default();
        for k in 0..(4 * SHARDS as u128) {
            cache.get_or_compute(k, || Ok::<_, ()>(1)).unwrap();
        }
        assert_eq!(cache.len(), 4 * SHARDS);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: ShardedCache<u128, String> = ShardedCache::default();
        let err = cache
            .get_or_compute(3, || Err::<String, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.peek(&3).is_none());
        // The next requester retries and can succeed.
        let v = cache
            .get_or_compute(3, || Ok::<_, &str>("ok".to_string()))
            .unwrap();
        assert_eq!(*v, "ok");
    }

    #[test]
    fn an_entry_that_does_not_fit_is_recomputed_and_replaced() {
        let cache: ShardedCache<u128, u64> = ShardedCache::default();
        let covers = |need: u64| move |v: &u64| *v >= need;
        cache
            .get_fitting_or_compute(5, covers(10), || Ok::<_, ()>(16))
            .unwrap();
        // A request the entry covers hits without computing.
        let hit = cache
            .get_fitting_or_compute(5, covers(12), || -> Result<u64, ()> {
                panic!("recomputed")
            })
            .unwrap();
        assert_eq!(*hit, 16);
        // One it does not cover computes again and replaces the entry.
        let wider = cache
            .get_fitting_or_compute(5, covers(40), || Ok::<_, ()>(64))
            .unwrap();
        assert_eq!(*wider, 64);
        assert_eq!(cache.peek(&5).as_deref(), Some(&64));
        assert_eq!(
            cache.stats(),
            LayerStats {
                hits: 1,
                misses: 2,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
        // A failed replacement leaves the key empty.
        let err = cache.get_fitting_or_compute(5, covers(99), || Err::<u64, _>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.peek(&5).is_none());
    }

    /// Same shard-selection arithmetic as [`ShardedCache::shard`], exposed
    /// so tests can pick keys that land on distinct shards.
    fn shard_index<K: std::hash::Hash>(key: &K) -> usize {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    #[test]
    fn in_flight_entries_are_never_evicted_at_capacity() {
        // Pin a `Pending` slot in several distinct shards by blocking its
        // compute, then flood the cache hard enough to evict every
        // finished entry many times over. The pinned markers must survive
        // the pressure: each blocked compute resolves exactly once with
        // its own value, and the freshly-inserted entries are still
        // peekable afterwards (nothing evicted a Pending slot, and the
        // just-finished inserts carry the newest touch ticks).
        const PINNED: usize = 4;
        let mut pinned: Vec<u128> = Vec::new();
        let mut shards_used = [false; SHARDS];
        let mut k = 0u128;
        while pinned.len() < PINNED {
            let s = shard_index(&k);
            if !shards_used[s] {
                shards_used[s] = true;
                pinned.push(k);
            }
            k += 1;
        }

        let cache: Arc<ShardedCache<u128, u64>> = Arc::new(ShardedCache::with_capacity(SHARDS));
        let started = Arc::new(AtomicU64::new(0));
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let computed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for &key in &pinned {
                let cache = Arc::clone(&cache);
                let started = Arc::clone(&started);
                let release = Arc::clone(&release);
                let computed = Arc::clone(&computed);
                scope.spawn(move || {
                    let v = cache
                        .get_or_compute(key, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            started.fetch_add(1, Ordering::Relaxed);
                            while !release.load(Ordering::Relaxed) {
                                std::thread::yield_now();
                            }
                            Ok::<_, ()>(key as u64 + 1000)
                        })
                        .unwrap();
                    assert_eq!(*v, key as u64 + 1000);
                });
            }
            // Wait until every pinned compute is in flight, i.e. its
            // Pending marker sits in the shard map.
            while started.load(Ordering::Relaxed) < PINNED as u64 {
                std::thread::yield_now();
            }
            // Flood with distinct keys: with one finished entry allowed
            // per shard, almost every insert must evict something — and
            // the only legal victims are finished entries.
            let flood = 20 * SHARDS as u128;
            for f in 0..flood {
                cache
                    .get_or_compute(1_000_000 + f, || Ok::<_, ()>(0))
                    .unwrap();
            }
            assert!(
                cache.stats().evictions > 0,
                "flood never forced an eviction — the test is not exercising pressure"
            );
            release.store(true, Ordering::Relaxed);
        });

        assert_eq!(
            computed.load(Ordering::Relaxed),
            PINNED as u64,
            "each pinned key computed exactly once"
        );
        for &key in &pinned {
            let v = cache.peek(&key).unwrap_or_else(|| {
                panic!("pinned key {key} missing after release — a Pending slot was evicted")
            });
            assert_eq!(*v, key as u64 + 1000);
        }
    }

    proptest::proptest! {
        /// Counter conservation for any request multiset and capacity:
        /// every request is a hit or a miss, and every miss either still
        /// sits in the cache or was evicted. With no bound, nothing is
        /// ever evicted.
        #[test]
        fn counters_conserve_for_any_request_sequence(
            keys in proptest::collection::vec(0u8..32, 0..200),
            capacity in 0usize..40,
        ) {
            let cache: ShardedCache<u128, u64> = ShardedCache::with_capacity(capacity);
            for &k in &keys {
                cache
                    .get_or_compute(k as u128, || Ok::<_, ()>(k as u64))
                    .unwrap();
            }
            let stats = cache.stats();
            proptest::prop_assert_eq!(stats.hits + stats.misses, keys.len() as u64);
            proptest::prop_assert_eq!(stats.misses, cache.len() as u64 + stats.evictions);
            if cache.capacity() > 0 {
                proptest::prop_assert!(cache.len() <= cache.capacity());
            } else {
                proptest::prop_assert_eq!(stats.evictions, 0);
            }
        }
    }

    #[test]
    fn concurrent_same_key_dedups_to_one_miss() {
        let cache: Arc<ShardedCache<u128, u64>> = Arc::new(ShardedCache::default());
        let computed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                scope.spawn(move || {
                    let v = cache
                        .get_or_compute(42, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so waiters really wait.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ()>(99u64)
                        })
                        .unwrap();
                    assert_eq!(*v, 99);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "one computation");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
