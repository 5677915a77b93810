//! Process-shared, read-mostly access-isochrone cache.
//!
//! The per-router [`AccessCache`](crate::network::AccessCache) memoizes
//! bounded road-graph Dijkstras privately, so N workers warm N identical
//! copies. [`SharedAccessCache`] lets a whole worker pool warm **one**:
//! the cache publishes immutable *generations* (map + arena behind an
//! `Arc`), readers pin a generation snapshot per query and probe it
//! lock-free, and writers publish a new generation on insert. An epoch
//! counter invalidates everything at once — the engine bumps it from
//! `apply_delta` when a structural edit changes the stop set or road
//! reachability a memoized isochrone depends on.
//!
//! ## Memory model
//!
//! * **Readers** hold a [`SharedCacheHandle`] (one per router, `!Sync` like
//!   the router itself). [`begin_query`](SharedCacheHandle::begin_query)
//!   performs one relaxed atomic load of the publication version; only when
//!   someone has published since does it take the mutex for the few ns an
//!   `Arc` clone costs. The pinned snapshot keeps every range handed out
//!   during the query valid even if the cache is concurrently invalidated —
//!   the generation's arena is immutable and kept alive by the `Arc`.
//! * **Writers** (any handle, on a miss) clone the current generation,
//!   append, and publish. Cloning is O(entries) but a miss already paid a
//!   full bounded Dijkstra, which dwarfs it; steady state is all hits and
//!   publishes stop.
//! * **Invalidation** swaps in an empty generation and bumps the epoch
//!   (acquire/release). A handle that revalidated after the bump can never
//!   observe a pre-bump entry, and a handle mid-query keeps its pinned —
//!   possibly stale — snapshot only until its current query ends; inserts
//!   computed under a stale epoch are discarded rather than published.
//!
//! Hits and misses are counted in the same `transit.access_cache.{hit,miss}`
//! counters as the private cache, evictions in
//! `transit.access_cache.evictions`.

use crate::network::{
    AccessCache, AccessRange, TransitNetwork, ACCESS_CACHE_EVICTIONS, ACCESS_CACHE_HIT,
    ACCESS_CACHE_MISS,
};
use staq_geom::Point;
use staq_gtfs::model::StopId;
use staq_road::{dijkstra, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tag bit marking a range that resolves in the handle's local arena (a
/// miss computed this query) rather than the pinned shared generation.
const LOCAL_BIT: u32 = 1 << 31;

/// One immutable published generation: quantized-point map plus the arena
/// its ranges index. Never mutated after publication.
#[derive(Default)]
struct Generation {
    map: HashMap<(i64, i64), AccessRange>,
    arena: Vec<(StopId, u32)>,
}

/// Shared mutable state: the current generation and the version counter
/// readers revalidate against.
struct Published {
    current: Arc<Generation>,
    /// Monotonic publication count; readers refetch the `Arc` when it moves.
    version: u64,
}

/// The process-shared cache. `Sync`: clone the `Arc<SharedAccessCache>` into
/// every worker and derive one [`SharedCacheHandle`] per router.
pub struct SharedAccessCache {
    published: Mutex<Published>,
    /// Mirrors `Published::version` for the lock-free fast path.
    version: AtomicU64,
    /// Bumped by [`invalidate`](Self::invalidate); stale-epoch inserts are
    /// dropped instead of published.
    epoch: AtomicU64,
    max_entries: usize,
}

impl Default for SharedAccessCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedAccessCache {
    /// Shared cache with the same default entry budget as the private one.
    pub fn new() -> Self {
        Self::with_max_entries(4096)
    }

    /// Shared cache holding at most `max_entries` memoized isochrones.
    pub fn with_max_entries(max_entries: usize) -> Self {
        SharedAccessCache {
            published: Mutex::new(Published {
                current: Arc::new(Generation::default()),
                version: 0,
            }),
            version: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            max_entries: max_entries.max(2),
        }
    }

    /// A per-router reader/writer handle pinned to the current generation.
    pub fn handle(self: &Arc<Self>) -> SharedCacheHandle {
        let (snap, version) = {
            let p = self.published.lock().expect("shared cache poisoned");
            (Arc::clone(&p.current), p.version)
        };
        SharedCacheHandle {
            shared: Arc::clone(self),
            snap,
            seen_version: version,
            seen_epoch: self.epoch.load(Ordering::Acquire),
            local_arena: Vec::new(),
            local_map: HashMap::new(),
        }
    }

    /// Drops every memoized isochrone and bumps the epoch: entries computed
    /// before the call can never be served to a query that begins after it.
    pub fn invalidate(&self) {
        let mut p = self.published.lock().expect("shared cache poisoned");
        self.epoch.fetch_add(1, Ordering::Release);
        p.current = Arc::new(Generation::default());
        p.version += 1;
        self.version.store(p.version, Ordering::Release);
    }

    /// Current invalidation epoch (diagnostics / tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of isochrones in the current published generation.
    pub fn len(&self) -> usize {
        self.published.lock().expect("shared cache poisoned").current.map.len()
    }

    /// True when the current generation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes `stops` as the isochrone of `key`, unless `seen_epoch` is
    /// stale (the result was computed against a pre-invalidation network)
    /// or the key is already present (another worker won the race).
    fn publish(&self, seen_epoch: u64, key: (i64, i64), stops: &[(StopId, u32)]) {
        let mut p = self.published.lock().expect("shared cache poisoned");
        if self.epoch.load(Ordering::Acquire) != seen_epoch || p.current.map.contains_key(&key) {
            return;
        }
        let mut next = Generation { map: p.current.map.clone(), arena: p.current.arena.clone() };
        if next.map.len() >= self.max_entries {
            // The shared generation is warmed by a fleet and sized for the
            // whole workload; overflow means the budget was undersized, so
            // restart the generation rather than track per-entry age
            // through immutable snapshots.
            ACCESS_CACHE_EVICTIONS.add(next.map.len() as u64);
            next.map.clear();
            next.arena.clear();
        }
        let start = next.arena.len() as u32;
        next.arena.extend_from_slice(stops);
        next.map.insert(key, (start, stops.len() as u32));
        p.current = Arc::new(next);
        p.version += 1;
        self.version.store(p.version, Ordering::Release);
    }
}

/// A router's view of a [`SharedAccessCache`]: a pinned generation snapshot
/// plus a small local arena for this query's own misses. Mirrors the
/// private [`AccessCache`] query API so the router treats both uniformly.
pub struct SharedCacheHandle {
    shared: Arc<SharedAccessCache>,
    snap: Arc<Generation>,
    seen_version: u64,
    seen_epoch: u64,
    /// Isochrones computed by *this* handle since the last `begin_query`;
    /// their ranges carry [`LOCAL_BIT`].
    local_arena: Vec<(StopId, u32)>,
    local_map: HashMap<(i64, i64), AccessRange>,
}

impl SharedCacheHandle {
    /// Call before each window of lookups (see
    /// [`AccessCache::begin_query`]): revalidates the snapshot (one relaxed
    /// load on the no-change path) and resets the local arena. Ranges
    /// handed out after this call stay valid until the next one.
    pub fn begin_query(&mut self) {
        let v = self.shared.version.load(Ordering::Relaxed);
        if v != self.seen_version {
            let p = self.shared.published.lock().expect("shared cache poisoned");
            self.snap = Arc::clone(&p.current);
            self.seen_version = p.version;
            drop(p);
            self.seen_epoch = self.shared.epoch.load(Ordering::Acquire);
        }
        self.local_arena.clear();
        self.local_map.clear();
    }

    fn get(&self, key: (i64, i64)) -> Option<AccessRange> {
        if let Some(&r) = self.local_map.get(&key) {
            return Some(r);
        }
        self.snap.map.get(&key).copied()
    }

    fn insert(&mut self, key: (i64, i64), stops: &[(StopId, u32)]) -> AccessRange {
        let start = self.local_arena.len() as u32;
        self.local_arena.extend_from_slice(stops);
        let range = (start | LOCAL_BIT, stops.len() as u32);
        self.local_map.insert(key, range);
        self.shared.publish(self.seen_epoch, key, stops);
        range
    }

    /// Resolves a range returned by [`QueryCache::lookup`].
    pub fn slice(&self, (start, len): AccessRange) -> &[(StopId, u32)] {
        if start & LOCAL_BIT != 0 {
            let s = (start & !LOCAL_BIT) as usize;
            &self.local_arena[s..s + len as usize]
        } else {
            &self.snap.arena[start as usize..(start as usize + len as usize)]
        }
    }
}

/// The per-query cache a router owns: its private arena or a handle onto
/// the fleet-shared one. Both uphold the same invariant — ranges handed out
/// between two `begin_query` calls never move.
pub enum QueryCache {
    /// The classic per-router memo.
    Private(AccessCache),
    /// A handle onto a process-shared cache.
    Shared(SharedCacheHandle),
}

impl QueryCache {
    /// Call before each window of at most two lookups (see
    /// [`AccessCache::begin_query`]).
    pub fn begin_query(&mut self) {
        match self {
            QueryCache::Private(c) => c.begin_query(),
            QueryCache::Shared(h) => h.begin_query(),
        }
    }

    /// The memoized isochrone of `point`, computing (and memoizing) it via
    /// `net` on a miss. Same contract as
    /// [`TransitNetwork::access_stops_cached`].
    pub fn lookup(
        &mut self,
        net: &TransitNetwork<'_>,
        point: &Point,
        walk: &mut dijkstra::WalkScratch,
        nodes: &mut Vec<(NodeId, f64)>,
        tmp: &mut Vec<(StopId, u32)>,
    ) -> AccessRange {
        match self {
            QueryCache::Private(c) => net.access_stops_cached(point, c, walk, nodes, tmp),
            QueryCache::Shared(h) => {
                let key = AccessCache::key(point);
                if let Some(r) = h.get(key) {
                    ACCESS_CACHE_HIT.inc();
                    return r;
                }
                ACCESS_CACHE_MISS.inc();
                let _span = staq_obs::trace::span("network.access_isochrone");
                net.access_stops_into(point, walk, nodes, tmp);
                h.insert(key, tmp)
            }
        }
    }

    /// Resolves a range returned by [`lookup`](Self::lookup).
    pub fn slice(&self, range: AccessRange) -> &[(StopId, u32)] {
        match self {
            QueryCache::Private(c) => c.slice(range),
            QueryCache::Shared(h) => h.slice(range),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iso(n: u32) -> Vec<(StopId, u32)> {
        (0..n).map(|i| (StopId(i), 60 + i)).collect()
    }

    #[test]
    fn handle_sees_other_handles_inserts_after_begin_query() {
        let shared = Arc::new(SharedAccessCache::new());
        let mut a = shared.handle();
        let mut b = shared.handle();
        a.begin_query();
        let stops = iso(4);
        a.insert((1, 2), &stops);
        assert_eq!(a.slice(a.get((1, 2)).unwrap()), &stops[..]);
        // b's pinned snapshot predates the insert...
        assert!(b.get((1, 2)).is_none());
        // ...until its next query revalidates.
        b.begin_query();
        let r = b.get((1, 2)).expect("published entry visible after revalidation");
        assert_eq!(b.slice(r), &stops[..]);
    }

    #[test]
    fn pinned_ranges_survive_concurrent_invalidation() {
        let shared = Arc::new(SharedAccessCache::new());
        let mut a = shared.handle();
        a.begin_query();
        a.insert((1, 1), &iso(3));
        let mut b = shared.handle();
        b.begin_query();
        let r = b.get((1, 1)).expect("warm entry");
        shared.invalidate();
        // b's range still resolves (the Arc pins the old generation)...
        assert_eq!(b.slice(r).len(), 3);
        // ...but a fresh query can no longer see the pre-bump entry.
        b.begin_query();
        assert!(b.get((1, 1)).is_none(), "stale-epoch read after invalidation");
    }

    #[test]
    fn stale_epoch_inserts_are_not_published() {
        let shared = Arc::new(SharedAccessCache::new());
        let mut a = shared.handle();
        a.begin_query();
        shared.invalidate();
        // a computed this isochrone against the pre-invalidation network:
        // usable for its own in-flight query, never published.
        let r = a.insert((7, 7), &iso(2));
        assert_eq!(a.slice(r).len(), 2);
        assert!(shared.is_empty(), "stale insert must be discarded");
        a.begin_query();
        assert!(a.get((7, 7)).is_none());
    }

    #[test]
    fn budget_overflow_restarts_the_generation_and_counts_evictions() {
        let shared = Arc::new(SharedAccessCache::with_max_entries(3));
        let before = ACCESS_CACHE_EVICTIONS.get();
        let mut h = shared.handle();
        for i in 0..4 {
            h.begin_query();
            h.insert((i, i), &iso(2));
        }
        assert!(shared.len() <= 3);
        assert!(ACCESS_CACHE_EVICTIONS.get() > before);
        // The freshest entry is present.
        h.begin_query();
        assert!(h.get((3, 3)).is_some());
    }

    #[test]
    fn concurrent_warmup_converges_without_duplicate_keys() {
        let shared = Arc::new(SharedAccessCache::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let mut h = shared.handle();
                    for i in 0..32 {
                        h.begin_query();
                        let key = (i, i % 7);
                        if h.get(key).is_none() {
                            h.insert(key, &iso((t + 2) as u32));
                        }
                    }
                });
            }
        });
        assert!(shared.len() <= 32, "keys must dedupe across workers");
        assert!(!shared.is_empty());
    }
}
