//! Memoization cache with single-flight computation and bounded
//! second-chance eviction.
//!
//! [`MemoCache`] backs the query service: results are cached under a
//! hashable key, and concurrent requests for the *same* key coalesce
//! onto one computation — the first caller computes while the rest
//! block on the in-flight slot and receive the shared result. Values
//! are returned as `Arc<V>`, so a hit never clones the payload. One
//! lock guards the whole cache; it is held only to look up, land or
//! evict a key, never while a value is computed.
//!
//! Because cached values are pure functions of their key (the service
//! layer enforces that), coalescing, caching, and eviction can never
//! change a response: a cold miss, a warm hit, a coalesced wait, and a
//! recompute after eviction all yield the same bytes.
//!
//! # Eviction
//!
//! [`MemoCache::with_capacity`] bounds the number of landed entries
//! exactly, with the classic *second-chance* (clock) policy: each
//! landed key sits in a circular ring with a reference bit that a hit
//! sets; when the cache is full, a clock hand sweeps the ring, clearing
//! set bits (the second chance) and evicting the first key whose bit
//! is already clear. The sweep is a pure function of the cache's
//! request history — no clocks, no randomness, no hashing — so a
//! single-threaded request sequence always evicts the same keys.
//! In-flight computations are never evicted; only landed values are.
//! A capacity of 0 means unbounded (never evict).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How a [`MemoCache::get_or_compute`] call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was already cached; no computation, no waiting.
    Hit,
    /// This call computed the value (the single flight).
    Miss,
    /// Another call was already computing the value; this one waited
    /// for it and shares the result.
    Coalesced,
}

/// Monotone counters describing cache traffic. Snapshots subtract, so
/// a load generator can report per-phase deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Calls served from the cache without waiting.
    pub hits: u64,
    /// Calls that computed the value.
    pub misses: u64,
    /// Calls that waited on another call's in-flight computation.
    pub coalesced: u64,
    /// Landed entries evicted by the clock sweep (always 0 for an
    /// unbounded cache).
    pub evictions: u64,
}

impl CacheStats {
    /// Total calls observed (evictions are not calls).
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// The fraction of calls served without a fresh computation
    /// (hits + coalesced over total); 0 when no calls were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }

    /// Counter-wise difference (`self - earlier`), for per-phase
    /// accounting over a shared cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// State of one in-flight computation.
enum FlightState<V> {
    /// The computing caller has not finished yet.
    Pending,
    /// The computation finished; waiters take the shared value.
    Done(Arc<V>),
    /// The computing caller panicked; waiters must retry from scratch.
    Poisoned,
}

/// One in-flight computation that waiters block on. Its state changes
/// by single assignments, so a poisoned guard is recovered.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Flight<V> {
        Flight { state: Mutex::new(FlightState::Pending), cv: Condvar::new() }
    }

    /// Publishes the result (or the poison marker) and wakes waiters.
    fn finish(&self, value: Option<Arc<V>>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = match value {
            Some(v) => FlightState::Done(v),
            None => FlightState::Poisoned,
        };
        self.cv.notify_all();
    }

    /// Blocks until the flight lands; `None` means it was poisoned and
    /// the caller must retry.
    fn wait(&self) -> Option<Arc<V>> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let state = self
            .cv
            .wait_while(state, |state| matches!(state, FlightState::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        match &*state {
            FlightState::Done(v) => Some(v.clone()),
            FlightState::Pending | FlightState::Poisoned => None,
        }
    }
}

/// A cache slot: either a landed value (with its clock-ring slot) or
/// an in-flight computation (never in the ring, never evicted).
enum Entry<V> {
    InFlight(Arc<Flight<V>>),
    Ready(Arc<V>, usize),
}

/// Everything the cache's one lock guards: the key map, the clock ring
/// over its landed keys, and the traffic counters.
///
/// Invariant: `ring[slot]` is a `Ready` key whose entry stores `slot`
/// back, for every slot; in-flight keys live only in `map`.
struct Table<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Landed keys, in landing order until the cache fills, then
    /// overwritten in place by the clock sweep.
    ring: Vec<K>,
    /// Reference bits: set on hit, cleared by the sweeping hand.
    refbit: Vec<bool>,
    /// The clock hand: next slot the sweep examines.
    hand: usize,
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V> Table<K, V> {
    /// Lands `value` under `key`, evicting one landed entry by the
    /// clock sweep if the ring already holds `cap` keys (0 =
    /// unbounded).
    fn insert_ready(&mut self, key: K, value: Arc<V>, cap: usize) {
        let slot = if cap > 0 && self.ring.len() >= cap {
            // Sweep: clear set bits until a clear one is found. The
            // second pass must find one, so this terminates.
            loop {
                if self.hand >= self.ring.len() {
                    self.hand = 0;
                }
                if self.refbit[self.hand] {
                    self.refbit[self.hand] = false;
                    self.hand += 1;
                } else {
                    break;
                }
            }
            let slot = self.hand;
            self.map.remove(&self.ring[slot]);
            self.ring[slot] = key.clone();
            self.refbit[slot] = false;
            self.hand = slot + 1;
            self.stats.evictions += 1;
            slot
        } else {
            self.ring.push(key.clone());
            self.refbit.push(false);
            self.ring.len() - 1
        };
        self.map.insert(key, Entry::Ready(value, slot));
    }
}

/// Removes the in-flight entry and poisons its flight if the computing
/// closure or the landing unwinds, so waiters retry instead of blocking
/// forever.
struct FlightGuard<'a, K: Hash + Eq + Clone, V> {
    cache: &'a MemoCache<K, V>,
    key: &'a K,
    flight: &'a Arc<Flight<V>>,
    landed: bool,
}

impl<K: Hash + Eq + Clone, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.landed {
            return;
        }
        let mut table = self.cache.lock();
        if matches!(table.map.get(self.key), Some(Entry::InFlight(_))) {
            table.map.remove(self.key);
        }
        drop(table);
        self.flight.finish(None);
    }
}

/// Concurrent memoization cache with single-flight semantics and an
/// optional exact bound enforced by second-chance eviction. See the
/// module docs for the coalescing and eviction contracts.
pub struct MemoCache<K, V> {
    table: Mutex<Table<K, V>>,
    /// Landed entries allowed; 0 means unbounded.
    capacity: usize,
}

impl<K, V> std::fmt::Debug for MemoCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.table.lock().unwrap_or_else(PoisonError::into_inner).stats;
        f.debug_struct("MemoCache")
            .field("stats", &stats)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V> MemoCache<K, V> {
    /// An empty cache holding at most `capacity` landed entries; 0
    /// means unbounded.
    pub fn with_capacity(capacity: usize) -> MemoCache<K, V> {
        MemoCache {
            table: Mutex::new(Table {
                map: HashMap::new(),
                ring: Vec::new(),
                refbit: Vec::new(),
                hand: 0,
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// The landed-entry bound; 0 means unbounded.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the table, recovering a poisoned guard. Its holders run no
    /// caller code but the key's and the value's own impls, and a panic
    /// in one of those can only lose an entry or leave a ring slot
    /// naming a key that is gone: it never maps a key to another key's
    /// value.
    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached value for `key`, computing it with `f` on a
    /// miss. Concurrent calls for the same key coalesce: exactly one
    /// executes `f`, the rest wait and share its result. The returned
    /// [`CacheOutcome`] says which path this call took.
    ///
    /// # Panics
    ///
    /// If `f` panics, the panic propagates to the computing caller;
    /// waiters observe the poisoned flight and retry (one of them
    /// becomes the new computer).
    pub fn get_or_compute<F>(&self, key: K, f: F) -> (Arc<V>, CacheOutcome)
    where
        F: FnOnce() -> V,
    {
        let flight = loop {
            let flight = {
                let mut table = self.lock();
                match table.map.get(&key) {
                    Some(Entry::Ready(v, slot)) => {
                        let (v, slot) = (v.clone(), *slot);
                        table.refbit[slot] = true;
                        table.stats.hits += 1;
                        return (v, CacheOutcome::Hit);
                    }
                    Some(Entry::InFlight(flight)) => {
                        let flight = flight.clone();
                        table.stats.coalesced += 1;
                        flight
                    }
                    None => {
                        let flight = Arc::new(Flight::new());
                        table.map.insert(key.clone(), Entry::InFlight(flight.clone()));
                        table.stats.misses += 1;
                        break flight;
                    }
                }
            };
            if let Some(value) = flight.wait() {
                return (value, CacheOutcome::Coalesced);
            }
            // The flight was poisoned (its computer panicked): look
            // again, and compute if no other caller has taken over.
        };

        // This call owns the flight; compute outside the lock.
        let mut guard = FlightGuard { cache: self, key: &key, flight: &flight, landed: false };
        let value = Arc::new(f());
        self.lock().insert_ready(key.clone(), value.clone(), self.capacity);
        guard.landed = true;
        drop(guard);
        flight.finish(Some(value.clone()));
        (value, CacheOutcome::Miss)
    }

    /// The cached value for `key`, if it has landed. Never waits on an
    /// in-flight computation, does not count as a hit or miss, and
    /// does not touch the reference bit.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        match self.lock().map.get(key) {
            Some(Entry::Ready(v, _)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Number of landed entries (in-flight computations excluded).
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether no entry has landed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn hit_after_miss_returns_shared_value() {
        let cache: MemoCache<u32, String> = MemoCache::with_capacity(0);
        let (a, oa) = cache.get_or_compute(1, || "one".to_string());
        let (b, ob) = cache.get_or_compute(1, || unreachable!("must be cached"));
        assert_eq!(oa, CacheOutcome::Miss);
        assert_eq!(ob, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_compute_independently() {
        let cache: MemoCache<u32, u32> = MemoCache::with_capacity(0);
        for k in 0..100 {
            let (v, o) = cache.get_or_compute(k, || k * 2);
            assert_eq!(*v, k * 2);
            assert_eq!(o, CacheOutcome::Miss);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().misses, 100);
        assert_eq!(cache.stats().evictions, 0, "unbounded caches never evict");
    }

    #[test]
    fn concurrent_identical_keys_compute_exactly_once() {
        let cache: MemoCache<u32, u64> = MemoCache::with_capacity(0);
        let computes = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let (v, _) = cache.get_or_compute(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the in-flight window so the others
                        // genuinely coalesce rather than all hitting.
                        thread::sleep(std::time::Duration::from_millis(20));
                        42
                    });
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single flight computes once");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.total(), 8);
    }

    #[test]
    fn poisoned_flight_lets_a_waiter_retry() {
        let cache: Arc<MemoCache<u32, u32>> = Arc::new(MemoCache::with_capacity(0));
        let attempts = Arc::new(AtomicUsize::new(0));

        // First caller panics mid-flight; a concurrent caller must
        // recover and land the value.
        let c = cache.clone();
        let a = attempts.clone();
        let panicker = thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.get_or_compute(3, || {
                    a.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(std::time::Duration::from_millis(20));
                    panic!("flight dies");
                })
            }));
        });
        // Give the panicker time to claim the flight, then pile on.
        thread::sleep(std::time::Duration::from_millis(5));
        let (v, _) = cache.get_or_compute(3, || {
            attempts.fetch_add(1, Ordering::SeqCst);
            9
        });
        panicker.join().expect("panicker thread itself exits cleanly");
        assert_eq!(*v, 9);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "poisoned flight retried once");
        assert_eq!(*cache.peek(&3).expect("value landed"), 9);
    }

    #[test]
    fn stats_deltas_subtract() {
        let cache: MemoCache<u32, u32> = MemoCache::with_capacity(0);
        cache.get_or_compute(1, || 1);
        let before = cache.stats();
        cache.get_or_compute(1, || 1);
        cache.get_or_compute(2, || 2);
        let delta = cache.stats().since(&before);
        assert_eq!(delta, CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
        assert!((delta.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_exactly_the_bound_asked_for() {
        assert_eq!(MemoCache::<u32, u32>::with_capacity(0).capacity(), 0);
        assert_eq!(MemoCache::<u32, u32>::with_capacity(1).capacity(), 1);
        let one: MemoCache<u32, u32> = MemoCache::with_capacity(1);
        one.get_or_compute(1, || 1);
        one.get_or_compute(2, || 2);
        assert_eq!((one.len(), one.stats().evictions), (1, 1));
        assert!(one.peek(&2).is_some(), "the newest key holds the one slot");
    }

    #[test]
    fn a_cache_bounded_at_16_keeps_any_16_keys() {
        for keys in [(0..16).collect::<Vec<u32>>(), (0..16).map(|k| k * 7_919 + 3).collect()] {
            let cache: MemoCache<u32, u32> = MemoCache::with_capacity(16);
            for &k in &keys {
                cache.get_or_compute(k, || k);
            }
            let before = cache.stats();
            for &k in &keys {
                let (v, outcome) = cache.get_or_compute(k, || unreachable!("{k} was evicted"));
                assert_eq!((*v, outcome), (k, CacheOutcome::Hit));
            }
            let delta = cache.stats().since(&before);
            assert_eq!((delta.hits, delta.evictions), (16, 0), "keys {keys:?}");
            assert_eq!(cache.stats().evictions, 0);
        }
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity_and_counts_evictions() {
        let cache: MemoCache<u32, u32> = MemoCache::with_capacity(32);
        for k in 0..500 {
            cache.get_or_compute(k, || k);
        }
        assert!(cache.len() <= 32, "len {} exceeds capacity", cache.len());
        let stats = cache.stats();
        assert_eq!(stats.misses, 500);
        assert_eq!(stats.evictions, 500 - cache.len() as u64);
        // Evicted keys recompute; the cache stays bounded.
        let before = cache.stats();
        for k in 0..500 {
            cache.get_or_compute(k, || k);
        }
        let delta = cache.stats().since(&before);
        assert!(delta.misses > 0, "a 32-entry cache cannot hold 500 keys");
        assert!(cache.len() <= 32);
    }

    #[test]
    fn eviction_is_deterministic_across_runs() {
        let survivors = || {
            let cache: MemoCache<u32, u32> = MemoCache::with_capacity(16);
            for k in 0..200 {
                cache.get_or_compute(k, || k);
                // Keep key 0 hot so its reference bit shields it.
                cache.get_or_compute(0, || 0);
            }
            let mut alive: Vec<u32> = (0..200).filter(|k| cache.peek(k).is_some()).collect();
            alive.sort_unstable();
            (alive, cache.stats())
        };
        assert_eq!(survivors(), survivors(), "same request sequence, same evictions");
    }

    #[test]
    fn clock_sweep_gives_referenced_entries_a_second_chance() {
        let cache: MemoCache<&str, u32> = MemoCache::with_capacity(3);
        let alive = |cache: &MemoCache<&str, u32>| {
            ["a", "b", "c", "d", "e", "f"]
                .into_iter()
                .filter(|k| cache.peek(k).is_some())
                .collect::<Vec<_>>()
        };
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache.get_or_compute(k, || v);
        }
        // A hit on "a" sets its reference bit (slot 0).
        assert_eq!(cache.get_or_compute("a", || 0).1, CacheOutcome::Hit);

        // Full cache: the hand clears "a"'s bit (second chance) and
        // evicts "b", the first unreferenced key, reusing its slot 1.
        cache.get_or_compute("d", || 4);
        assert_eq!(alive(&cache), ["a", "c", "d"], "referenced key survives the sweep");
        assert_eq!(cache.stats().evictions, 1);

        // Next insert: the hand is at "c" (slot 2), whose bit is clear.
        cache.get_or_compute("e", || 5);
        assert_eq!(alive(&cache), ["a", "d", "e"], "hand moved past a without evicting it");

        // Now every bit is clear and the hand wraps to slot 0: "a"'s
        // second chance is spent.
        cache.get_or_compute("f", || 6);
        assert_eq!(alive(&cache), ["d", "e", "f"]);
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn inflight_entries_are_never_evicted() {
        // A cache at capacity with an in-flight computation: landing
        // new values must evict *landed* keys only, and the in-flight
        // key must still land afterwards.
        let cache: Arc<MemoCache<u32, u32>> = Arc::new(MemoCache::with_capacity(16));
        for k in 0..100 {
            cache.get_or_compute(k, || k);
        }
        let gate = Arc::new(std::sync::Barrier::new(2));
        let c = cache.clone();
        let g = gate.clone();
        let slow = thread::spawn(move || {
            c.get_or_compute(1_000, || {
                g.wait(); // in flight while main churns the cache
                thread::sleep(std::time::Duration::from_millis(30));
                7
            })
        });
        gate.wait();
        for k in 100..300 {
            cache.get_or_compute(k, || k);
        }
        let (v, outcome) = slow.join().expect("slow flight joins");
        assert_eq!((*v, outcome), (7, CacheOutcome::Miss));
        assert_eq!(*cache.peek(&1_000).expect("the flight landed despite churn"), 7);
        assert_eq!(cache.len(), 16);
    }
}
