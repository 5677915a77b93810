//! The access-isochrone cache: one per stop set, shared by every router
//! over it.
//!
//! Every SPQ starts and ends with a walk of at most τ to a stop (§IV-D).
//! That walk's isochrone depends on the road graph, the stop positions and
//! the router config alone — never on the timetable — so the
//! [`StopTables`](crate::network::StopTables) built from exactly those
//! inputs own one [`AccessCache`]. A new stop set gets new stop tables and
//! with them a fresh, empty cache; nothing is ever invalidated.
//!
//! Labeling re-routes the same zone centroids and POI destinations
//! thousands of times per pass, so the bounded road-graph Dijkstra behind
//! [`TransitNetwork::access_stops_into`] is memoized by point. Keys are
//! points snapped to a millimeter grid (an identity in practice: distinct
//! zone centroids, POIs and request points sit meters apart).
//!
//! ## Memory model
//!
//! * The cache publishes immutable *generations* (map + arena behind an
//!   `Arc`).
//! * **Readers** hold a `CacheHandle` (one per router, `!Sync` like the
//!   router itself). Its `begin_query` performs one relaxed atomic load of
//!   the publication version; only when someone has published since does
//!   it take the mutex for the few ns an `Arc` clone costs. The pinned
//!   snapshot keeps every range handed out until the next `begin_query`
//!   valid, whatever is published meanwhile: a generation's arena is
//!   immutable and kept alive by the `Arc`.
//! * **Writers** (any handle, on a miss) clone the current generation,
//!   append, and publish. Cloning is O(entries) but a miss already paid a
//!   full bounded Dijkstra, which dwarfs it; steady state is all hits and
//!   publishes stop. The miss itself lands in the handle's local arena,
//!   tagged with `LOCAL_BIT`, so it resolves without the new generation.
//! * **Budget.** A generation holds at most `max_entries` isochrones; the
//!   insert that would overflow it restarts the generation empty.
//!
//! Hits and misses are counted in `transit.access_cache.{hit,miss}`,
//! entries dropped by a restart in `transit.access_cache.evictions`.

use crate::network::TransitNetwork;
use staq_geom::Point;
use staq_gtfs::model::StopId;
use staq_obs::Counter;
use staq_road::{dijkstra, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Access-isochrone memo lookups answered from the cache.
static ACCESS_CACHE_HIT: Counter = Counter::new("transit.access_cache.hit");
/// Access-isochrone memo lookups that ran the road-graph Dijkstra.
static ACCESS_CACHE_MISS: Counter = Counter::new("transit.access_cache.miss");
/// Memoized isochrones dropped to stay inside the entry budget.
static ACCESS_CACHE_EVICTIONS: Counter = Counter::new("transit.access_cache.evictions");

/// An entry handle into a cache arena: `(start, len)`.
pub(crate) type AccessRange = (u32, u32);

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

/// The memo of one stop set's access isochrones. `Sync`: every router
/// over the stop set reads and fills it through its own `CacheHandle`.
pub struct AccessCache {
    published: Mutex<Published>,
    /// Mirrors `Published::version` for the lock-free fast path.
    version: AtomicU64,
    max_entries: usize,
}

impl AccessCache {
    /// An empty cache with the default entry budget: generous for a
    /// labeling pass (zones + POIs).
    pub(crate) fn new() -> Self {
        Self::with_max_entries(4096)
    }

    /// An empty cache holding at most `max_entries` memoized isochrones.
    pub(crate) fn with_max_entries(max_entries: usize) -> Self {
        AccessCache {
            published: Mutex::new(Published {
                current: Arc::new(Generation::default()),
                version: 0,
            }),
            version: AtomicU64::new(0),
            max_entries: max_entries.max(2),
        }
    }

    /// A per-router reader/writer handle pinned to the current generation.
    pub(crate) fn handle(self: &Arc<Self>) -> CacheHandle {
        let (snap, version) = {
            let p = self.published.lock().expect("access cache poisoned");
            (Arc::clone(&p.current), p.version)
        };
        CacheHandle {
            shared: Arc::clone(self),
            snap,
            seen_version: version,
            local_arena: Vec::new(),
            local_map: HashMap::new(),
        }
    }

    /// Number of isochrones in the current published generation.
    pub fn len(&self) -> usize {
        self.published.lock().expect("access cache poisoned").current.map.len()
    }

    /// True when the current generation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes `stops` as the isochrone of `key`, unless the key is
    /// already present (another router won the race).
    fn publish(&self, key: (i64, i64), stops: &[(StopId, u32)]) {
        let mut p = self.published.lock().expect("access cache poisoned");
        if p.current.map.contains_key(&key) {
            return;
        }
        let mut next = Generation { map: p.current.map.clone(), arena: p.current.arena.clone() };
        if next.map.len() >= self.max_entries {
            // The generation is warmed by every router over the stop set
            // and sized for the whole workload; overflow means the budget
            // was undersized, so restart the generation rather than track
            // per-entry age through immutable snapshots.
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

/// Millimeter-grid key: exact for any two points that aren't within 1 mm
/// of a shared grid line, i.e. all real origins and destinations.
fn key(point: &Point) -> (i64, i64) {
    ((point.x * 1000.0).round() as i64, (point.y * 1000.0).round() as i64)
}

/// A router's view of an [`AccessCache`]: a pinned generation snapshot
/// plus a small local arena for this query's own misses.
pub(crate) struct CacheHandle {
    shared: Arc<AccessCache>,
    snap: Arc<Generation>,
    seen_version: u64,
    /// Isochrones computed by *this* handle since the last `begin_query`;
    /// their ranges carry [`LOCAL_BIT`].
    local_arena: Vec<(StopId, u32)>,
    local_map: HashMap<(i64, i64), AccessRange>,
}

impl CacheHandle {
    /// Call before each window of lookups: revalidates the snapshot (one
    /// relaxed load on the no-change path) and resets the local arena.
    /// Ranges handed out after this call stay valid until the next one.
    pub(crate) fn begin_query(&mut self) {
        let v = self.shared.version.load(Ordering::Relaxed);
        if v != self.seen_version {
            let p = self.shared.published.lock().expect("access cache poisoned");
            self.snap = Arc::clone(&p.current);
            self.seen_version = p.version;
        }
        self.local_arena.clear();
        self.local_map.clear();
    }

    /// The memoized isochrone of `point`, computing (and memoizing) it via
    /// `net` — a network over this cache's stop tables — on a miss.
    /// `walk`, `nodes` and `tmp` are the Dijkstra's scratch.
    pub(crate) fn lookup(
        &mut self,
        net: &TransitNetwork<'_>,
        point: &Point,
        walk: &mut dijkstra::WalkScratch,
        nodes: &mut Vec<(NodeId, f64)>,
        tmp: &mut Vec<(StopId, u32)>,
    ) -> AccessRange {
        let key = key(point);
        if let Some(r) = self.get(key) {
            ACCESS_CACHE_HIT.inc();
            return r;
        }
        ACCESS_CACHE_MISS.inc();
        // Only the miss path gets a span: a hit is a hash probe and would
        // drown the ring in sub-microsecond records.
        let _span = staq_obs::trace::span("network.access_isochrone");
        net.access_stops_into(point, walk, nodes, tmp);
        self.insert(key, tmp)
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
        self.shared.publish(key, stops);
        range
    }

    /// Resolves a range returned by [`lookup`](Self::lookup) since the
    /// last `begin_query`.
    pub(crate) fn slice(&self, (start, len): AccessRange) -> &[(StopId, u32)] {
        if start & LOCAL_BIT != 0 {
            let s = (start & !LOCAL_BIT) as usize;
            &self.local_arena[s..s + len as usize]
        } else {
            &self.snap.arena[start as usize..(start as usize + len as usize)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use staq_synth::{City, CityConfig};
    use std::sync::OnceLock;

    /// One small city for every proptest case: generating it dominates a
    /// debug-build case otherwise.
    fn city() -> &'static City {
        static CITY: OnceLock<City> = OnceLock::new();
        CITY.get_or_init(|| City::generate(&CityConfig::small(42)))
    }

    fn iso(n: u32) -> Vec<(StopId, u32)> {
        (0..n).map(|i| (StopId(i), 60 + i)).collect()
    }

    #[test]
    fn handle_sees_other_handles_inserts_after_begin_query() {
        let shared = Arc::new(AccessCache::new());
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
    fn budget_overflow_restarts_the_generation_and_counts_evictions() {
        let shared = Arc::new(AccessCache::with_max_entries(3));
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
        let shared = Arc::new(AccessCache::new());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The uncached oracle: through two interleaved handles on a cache
        /// whose 3-entry budget restarts the generation mid-sequence, every
        /// lookup — repeat or fresh point, hit or miss, own insert or the
        /// other handle's — resolves to exactly
        /// [`TransitNetwork::access_stops`], and so does every range handed
        /// out earlier in the same window, restarts in between included.
        #[test]
        fn every_range_resolves_to_the_uncached_isochrone(
            ops in proptest::collection::vec(
                (0usize..2, 0usize..10, 0.0f64..1.0, 0.0f64..1.0, 0u8..3), 1..48),
        ) {
            let city = city();
            let net = crate::TransitNetwork::with_defaults(&city.road, &city.feed);
            let side = city.config.side_m;
            // Repeats come from a pool of six zone centroids; the other
            // picks are fresh points anywhere in the city.
            let pool: Vec<Point> = city.zones.iter().take(6).map(|z| z.centroid).collect();
            let cache = Arc::new(AccessCache::with_max_entries(3));
            let mut handles = [cache.handle(), cache.handle()];
            let mut windows: [Vec<(AccessRange, Point)>; 2] = [Vec::new(), Vec::new()];
            let (mut walk, mut nodes, mut tmp) =
                (dijkstra::WalkScratch::new(), Vec::new(), Vec::new());
            for (h, pick, fx, fy, close) in ops {
                if close == 0 {
                    for &(range, p) in &windows[h] {
                        prop_assert_eq!(handles[h].slice(range), &net.access_stops(&p)[..]);
                    }
                    windows[h].clear();
                    handles[h].begin_query();
                }
                let p = pool.get(pick).copied().unwrap_or(Point::new(fx * side, fy * side));
                let range = handles[h].lookup(&net, &p, &mut walk, &mut nodes, &mut tmp);
                prop_assert_eq!(handles[h].slice(range), &net.access_stops(&p)[..]);
                windows[h].push((range, p));
            }
            for (handle, window) in handles.iter().zip(&windows) {
                for &(range, p) in window {
                    prop_assert_eq!(handle.slice(range), &net.access_stops(&p)[..]);
                }
            }
        }
    }
}
