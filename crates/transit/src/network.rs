//! The prepared multimodal network shared by both routers.
//!
//! Construction extracts **trip patterns** (maximal groups of trips on one
//! route with an identical stop sequence — the unit RAPTOR scans), flattens
//! their timetables into dense arrival/departure matrices, snaps stops to
//! road nodes, and precomputes stop-to-stop foot transfers.
//!
//! That feed-derived state lives in [`NetworkTables`]: owned, borrowing
//! nothing, `Send + Sync`, so an engine prepares it once per feed state and
//! keeps it across requests behind an `Arc`. A [`TransitNetwork`] is a
//! **view** pairing shared tables with the road graph and feed they were
//! built from: [`NetworkTables::view`] costs one `Arc` clone, and
//! [`TransitNetwork::new`] builds fresh tables for one-shot callers.

use serde::{Deserialize, Serialize};
use staq_geom::{KdTree, Point};
use staq_gtfs::model::{RouteId, StopId, TripId};
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_gtfs::FeedIndex;
use staq_obs::Counter;
use staq_road::{dijkstra, NodeId, NodeSnapper, RoadGraph};
use std::collections::HashMap;
use std::sync::Arc;

/// Access-isochrone memo lookups answered from the cache.
pub(crate) static ACCESS_CACHE_HIT: Counter = Counter::new("transit.access_cache.hit");
/// Access-isochrone memo lookups that ran the road-graph Dijkstra.
pub(crate) static ACCESS_CACHE_MISS: Counter = Counter::new("transit.access_cache.miss");
/// Memoized isochrones dropped to stay inside the entry budget.
pub(crate) static ACCESS_CACHE_EVICTIONS: Counter = Counter::new("transit.access_cache.evictions");

/// Router parameters. Defaults mirror the paper's walking parameters
/// (τ = 600 s, ω = 4.5 km/h) and a standard 3-transfer search depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Maximum number of boardings (rides); RAPTOR runs this many rounds.
    pub max_boardings: usize,
    /// Walking budget to reach the first stop / leave the last stop, secs.
    pub access_budget_secs: f64,
    /// Maximum interchange walk between stops, secs.
    pub transfer_walk_secs: f64,
    /// Walking speed ω, m/s.
    pub omega_mps: f64,
    /// Crow-flies → street-distance factor for stop-to-stop transfer walks
    /// and the direct-walk fallback.
    pub walk_detour: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_boardings: 4,
            access_budget_secs: staq_road::DEFAULT_TAU_SECS,
            transfer_walk_secs: 240.0,
            omega_mps: staq_road::DEFAULT_OMEGA_MPS,
            walk_detour: 1.25,
        }
    }
}

/// A trip pattern: trips of one route sharing an exact stop sequence.
///
/// Patterns are fully self-contained: per-trip service days live here, so
/// the scan never consults the feed.
///
/// Timetable layout: arrivals are **trip-major** (`arrivals[t * n_stops +
/// i]` — reconstruction walks positions of one fixed trip), departures are
/// **position-major** (`departures[i * n_trips + t]` — the scan probes one
/// fixed position across trips, so each position's departure column is one
/// contiguous, sorted slice). Sortedness of every departure column is the
/// boarding invariant: `build_patterns` guarantees it by splitting trips
/// into non-overtaking chains, and `check_no_overtaking` re-verifies both
/// matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    pub route: RouteId,
    /// Ordered stops of the pattern.
    pub stops: Vec<StopId>,
    /// Trips sorted by departure time at the first stop. Because trips of
    /// one pattern form a dominance chain (no overtaking in arrivals *or*
    /// departures), this order is simultaneously the sorted order of every
    /// per-position departure column — the trip-index permutation of the
    /// flattened layout is the identity.
    pub trips: Vec<TripId>,
    /// Flattened `trips.len() x stops.len()` arrival matrix, trip-major.
    arrivals: Vec<Stime>,
    /// Flattened `stops.len() x trips.len()` departure matrix,
    /// position-major: `departures[i * n_trips + t]`.
    departures: Vec<Stime>,
    /// Per-trip service-day bitmask (bit `DayOfWeek::index()`), parallel to
    /// `trips`.
    trip_days: Vec<u8>,
    /// OR of `trip_days`: set when at least one trip runs that day. Lets
    /// the router skip whole patterns on no-service days before they are
    /// ever enqueued.
    service_days: u8,
}

impl Pattern {
    /// Builds a pattern from **trip-major** arrival/departure rows (one row
    /// of `stops.len()` calls per trip, in trip order) — the natural order
    /// every producer emits — transposing departures into the
    /// position-major scan layout.
    fn from_trip_major(
        route: RouteId,
        stops: Vec<StopId>,
        trips: Vec<TripId>,
        arrivals: Vec<Stime>,
        departures_tm: Vec<Stime>,
        trip_days: Vec<u8>,
    ) -> Pattern {
        let (ns, nt) = (stops.len(), trips.len());
        debug_assert_eq!(arrivals.len(), ns * nt);
        debug_assert_eq!(departures_tm.len(), ns * nt);
        let mut departures = vec![Stime(0); departures_tm.len()];
        for t in 0..nt {
            for i in 0..ns {
                departures[i * nt + t] = departures_tm[t * ns + i];
            }
        }
        let service_days = trip_days.iter().fold(0u8, |a, &b| a | b);
        Pattern { route, stops, trips, arrivals, departures, trip_days, service_days }
    }

    /// Arrival of trip index `t` (within this pattern) at stop position `i`.
    #[inline]
    pub fn arrival(&self, t: usize, i: usize) -> Stime {
        self.arrivals[t * self.stops.len() + i]
    }

    /// Departure of trip index `t` at stop position `i`.
    #[inline]
    pub fn departure(&self, t: usize, i: usize) -> Stime {
        self.departures[i * self.trips.len() + t]
    }

    /// The contiguous departure column of stop position `i`: one `Stime`
    /// per trip, sorted non-decreasing (the flattened-layout invariant).
    /// The round scan walks a cursor over this slice instead of
    /// re-running a binary search per position.
    #[inline]
    pub fn departures_at(&self, i: usize) -> &[Stime] {
        let n = self.trips.len();
        &self.departures[i * n..(i + 1) * n]
    }

    /// True when trip index `k` of this pattern runs on `day`.
    #[inline]
    pub fn trip_runs_on(&self, k: usize, day: DayOfWeek) -> bool {
        self.trip_days[k] & (1u8 << day.index()) != 0
    }

    /// Index (within this pattern) of the earliest trip departing stop
    /// position `i` at or after `t` and running on `day`.
    pub fn earliest_trip(&self, i: usize, t: Stime, day: DayOfWeek) -> Option<usize> {
        // Each position's departure column is contiguous and sorted (trips
        // form a dominance chain in *departures*, not just arrivals — the
        // sort key the search actually probes): binary search it.
        let col = self.departures_at(i);
        let lo = col.partition_point(|&d| d < t);
        let day_bit = 1u8 << day.index();
        (lo..col.len()).find(|&k| self.trip_days[k] & day_bit != 0)
    }

    /// True when at least one of this pattern's trips runs on `day`.
    /// Precomputed at network build; a pattern with no service can never
    /// board, so skipping it entirely is exact.
    #[inline]
    pub fn runs_on(&self, day: DayOfWeek) -> bool {
        self.service_days & (1u8 << day.index()) != 0
    }
}

/// A foot transfer to another stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    pub to: StopId,
    pub walk_secs: u32,
}

/// The feed-derived routing tables of one feed state: trip patterns,
/// per-stop topology (patterns-at-stop, stop snapping, foot transfers) and
/// the [`RouterConfig`] they were prepared under. Owns everything and
/// borrows nothing, so a long-lived holder (the engine's artifacts) keeps
/// one across requests and routes through [`view`](Self::view)s of it.
pub struct NetworkTables {
    cfg: RouterConfig,
    patterns: Vec<Pattern>,
    /// For each stop: `(pattern index, position within pattern)` pairs.
    patterns_at_stop: Vec<Vec<(u32, u32)>>,
    /// Stops snapped to a given road node.
    node_stops: HashMap<u32, Vec<StopId>>,
    /// Foot transfers per stop.
    transfers: Vec<Vec<Transfer>>,
    snapper: NodeSnapper,
}

impl NetworkTables {
    /// Prepares the tables for `feed` over `road`. Errors (instead of
    /// panicking a serving backend) when the feed is genuinely malformed —
    /// a trip with non-monotonic call times, which no amount of pattern
    /// splitting can make scannable.
    ///
    /// Inter-trip overtaking (e.g. a delayed trip passing its successor) is
    /// *not* an error: `build_patterns` splits such trips into separate
    /// non-overtaking patterns.
    pub fn build(road: &RoadGraph, feed: &FeedIndex, cfg: RouterConfig) -> Result<Self, String> {
        let patterns = build_patterns(feed)?;
        for p in &patterns {
            check_no_overtaking(p)?;
        }
        let n_stops = feed.n_stops();
        let mut patterns_at_stop: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_stops];
        for (pi, p) in patterns.iter().enumerate() {
            for (pos, s) in p.stops.iter().enumerate() {
                patterns_at_stop[s.idx()].push((pi as u32, pos as u32));
            }
        }

        let snapper = NodeSnapper::new(road);
        let mut node_stops: HashMap<u32, Vec<StopId>> = HashMap::new();
        for s in 0..n_stops {
            let node = snapper.snap_unchecked(&feed.stop_pos(StopId(s as u32)));
            node_stops.entry(node.0).or_default().push(StopId(s as u32));
        }

        // Foot transfers: stops within walking range (crow-flies x detour).
        let stop_tree = KdTree::build(&feed.stop_points());
        let max_walk_m = cfg.transfer_walk_secs * cfg.omega_mps / cfg.walk_detour;
        let mut transfers: Vec<Vec<Transfer>> = vec![Vec::new(); n_stops];
        for (s, out) in transfers.iter_mut().enumerate() {
            let pos = feed.stop_pos(StopId(s as u32));
            for nb in stop_tree.within_radius(&pos, max_walk_m) {
                if nb.item == s as u32 {
                    continue;
                }
                let secs = (nb.dist() * cfg.walk_detour / cfg.omega_mps).round() as u32;
                out.push(Transfer { to: StopId(nb.item), walk_secs: secs });
            }
        }

        Ok(NetworkTables { cfg, patterns, patterns_at_stop, node_stops, transfers, snapper })
    }

    /// A routable view of these tables over the road graph and feed they
    /// were built from. Costs one `Arc` clone; copies no table.
    pub fn view<'a>(
        self: &Arc<Self>,
        road: &'a RoadGraph,
        feed: &'a FeedIndex,
    ) -> TransitNetwork<'a> {
        TransitNetwork { road, feed, cfg: self.cfg, tables: Arc::clone(self) }
    }
}

/// The prepared multimodal network: a view over [`NetworkTables`] plus the
/// road graph and feed they were built from.
pub struct TransitNetwork<'a> {
    pub road: &'a RoadGraph,
    pub feed: &'a FeedIndex,
    pub cfg: RouterConfig,
    /// Shared with a long-lived holder, or built for this view alone.
    tables: Arc<NetworkTables>,
}

impl std::fmt::Debug for TransitNetwork<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransitNetwork")
            .field("n_stops", &self.n_stops())
            .field("n_patterns", &self.n_patterns())
            .finish()
    }
}

impl<'a> TransitNetwork<'a> {
    /// Builds fresh tables and returns a view of them. Panics on genuinely
    /// malformed feeds (a trip whose own call times run backwards); prefer
    /// [`try_new`](Self::try_new) on serving paths where the feed has been
    /// through live mutation.
    pub fn new(road: &'a RoadGraph, feed: &'a FeedIndex, cfg: RouterConfig) -> Self {
        Self::try_new(road, feed, cfg).expect("malformed feed")
    }

    /// Fallible [`new`](Self::new); see [`NetworkTables::build`].
    pub fn try_new(
        road: &'a RoadGraph,
        feed: &'a FeedIndex,
        cfg: RouterConfig,
    ) -> Result<Self, String> {
        Ok(Arc::new(NetworkTables::build(road, feed, cfg)?).view(road, feed))
    }

    /// With default configuration.
    pub fn with_defaults(road: &'a RoadGraph, feed: &'a FeedIndex) -> Self {
        Self::new(road, feed, RouterConfig::default())
    }

    /// All trip patterns.
    #[inline]
    pub fn patterns(&self) -> &[Pattern] {
        &self.tables.patterns
    }

    /// Number of stops in the feed.
    #[inline]
    pub fn n_stops(&self) -> usize {
        self.tables.patterns_at_stop.len()
    }

    /// Patterns serving `stop` with the position of `stop` in each.
    #[inline]
    pub fn patterns_at(&self, stop: StopId) -> &[(u32, u32)] {
        &self.tables.patterns_at_stop[stop.idx()]
    }

    /// Foot transfers out of `stop`.
    #[inline]
    pub fn transfers_from(&self, stop: StopId) -> &[Transfer] {
        &self.tables.transfers[stop.idx()]
    }

    /// Stops reachable on foot from `point` within the access budget, as
    /// `(stop, walk seconds)`. Walks the road graph (bounded Dijkstra), not
    /// crow-flies, so severed streets are respected.
    pub fn access_stops(&self, point: &Point) -> Vec<(StopId, u32)> {
        let mut out = Vec::new();
        self.access_stops_into(point, &mut dijkstra::WalkScratch::new(), &mut Vec::new(), &mut out);
        out
    }

    /// [`access_stops`](Self::access_stops) against caller-owned scratch and
    /// buffers — the query hot path runs two of these per SPQ, and the
    /// Dijkstra distance table alone spans the whole road graph.
    pub fn access_stops_into(
        &self,
        point: &Point,
        walk: &mut dijkstra::WalkScratch,
        nodes: &mut Vec<(NodeId, f64)>,
        out: &mut Vec<(StopId, u32)>,
    ) {
        out.clear();
        let tables = &self.tables;
        let Some((root, gap_m)) = tables.snapper.snap(point) else {
            return;
        };
        let entry = gap_m / self.cfg.omega_mps;
        let remaining = self.cfg.access_budget_secs - entry;
        if remaining < 0.0 {
            return;
        }
        dijkstra::bounded_walk_times_into(self.road, root, remaining, walk, nodes);
        for &(node, t) in nodes.iter() {
            if let Some(stops) = tables.node_stops.get(&node.0) {
                for &s in stops {
                    out.push((s, (entry + t).round() as u32));
                }
            }
        }
    }

    /// [`access_stops_into`](Self::access_stops_into) through a memo: the
    /// cached stop list for `point` when present, the freshly computed (and
    /// now cached) one otherwise. Returns an arena range; resolve it with
    /// [`AccessCache::slice`].
    pub fn access_stops_cached(
        &self,
        point: &Point,
        cache: &mut AccessCache,
        walk: &mut dijkstra::WalkScratch,
        nodes: &mut Vec<(NodeId, f64)>,
        tmp: &mut Vec<(StopId, u32)>,
    ) -> AccessRange {
        if let Some(range) = cache.get(point) {
            ACCESS_CACHE_HIT.inc();
            return range;
        }
        ACCESS_CACHE_MISS.inc();
        // Only the miss path gets a span: a hit is a hash probe and would
        // drown the ring in sub-microsecond records.
        let _span = staq_obs::trace::span("network.access_isochrone");
        self.access_stops_into(point, walk, nodes, tmp);
        cache.insert(point, tmp)
    }

    /// Direct walking time from `o` to `d` in seconds: the walk-only
    /// fallback, always finite (crow-flies × detour at ω). City-scale direct
    /// walks are rarely competitive; when they are (nearby POIs) the
    /// approximation error is a few percent of a short walk.
    pub fn direct_walk_secs(&self, o: &Point, d: &Point) -> u32 {
        (o.dist(d) * self.cfg.walk_detour / self.cfg.omega_mps).round() as u32
    }

    /// Total number of patterns (diagnostics).
    pub fn n_patterns(&self) -> usize {
        self.patterns().len()
    }

    /// Structural summary for logs and reports.
    pub fn stats(&self) -> NetworkStats {
        let patterns = self.patterns();
        let n_trips: usize = patterns.iter().map(|p| p.trips.len()).sum();
        let n_transfers: usize =
            (0..self.n_stops()).map(|s| self.transfers_from(StopId(s as u32)).len()).sum();
        NetworkStats {
            n_stops: self.n_stops(),
            n_patterns: patterns.len(),
            n_trips,
            n_transfers,
            mean_pattern_length: if patterns.is_empty() {
                0.0
            } else {
                patterns.iter().map(|p| p.stops.len()).sum::<usize>() as f64 / patterns.len() as f64
            },
        }
    }
}

/// An entry handle into an [`AccessCache`] arena: `(start, len)`.
pub type AccessRange = (u32, u32);

/// Memo of access/egress stop isochrones, keyed by quantized query point.
///
/// Labeling routes every trip of a zone from the *same* origin centroid to
/// one of a handful of POI destinations, so the bounded road-graph Dijkstra
/// behind [`TransitNetwork::access_stops_into`] recomputes identical
/// isochrones thousands of times per pass. The memo collapses those to one
/// computation each: keys are points snapped to a millimeter grid (an
/// identity in practice — distinct zone centroids, POIs, and request points
/// sit meters apart), and results live in a single arena so hits are
/// allocation-free.
///
/// The cache is per-router (routers are per-worker), so no synchronization
/// is needed. Eviction is **second-chance** (a clock over insertion order):
/// [`begin_query`](Self::begin_query) pops the oldest entries whose
/// referenced bit is clear — a hit since the last sweep earns one reprieve —
/// until the window's (up to two) inserts fit the budget, then compacts the
/// arena. A window is a point query's origin and egress lookups, or one
/// egress lookup of a one-to-many pass. Because eviction happens only
/// between windows, ranges handed out within one are never invalidated
/// mid-window. Evictions are counted in `transit.access_cache.evictions`.
pub struct AccessCache {
    map: HashMap<(i64, i64), CacheEntry>,
    /// Insertion-ordered key queue the clock hand sweeps. Keys are unique:
    /// [`insert`](Self::insert) only runs on a miss.
    order: std::collections::VecDeque<(i64, i64)>,
    arena: Vec<(StopId, u32)>,
    max_entries: usize,
}

struct CacheEntry {
    range: AccessRange,
    /// Set on every hit, cleared when the clock hand passes — a hot entry
    /// survives exactly one sweep beyond a cold one.
    referenced: bool,
}

impl Default for AccessCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessCache {
    /// Default entry budget: generous for a labeling pass (zones + POIs),
    /// small next to the router's own scratch.
    const DEFAULT_MAX_ENTRIES: usize = 4096;

    /// An empty cache with the default entry budget.
    pub fn new() -> Self {
        Self::with_max_entries(Self::DEFAULT_MAX_ENTRIES)
    }

    /// An empty cache holding at most `max_entries` memoized isochrones.
    pub fn with_max_entries(max_entries: usize) -> Self {
        AccessCache {
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
            arena: Vec::new(),
            max_entries: max_entries.max(2),
        }
    }

    /// Millimeter-grid key: exact for any two points that aren't within
    /// 1 mm of a shared grid line, i.e. all real origins/destinations.
    pub(crate) fn key(point: &Point) -> (i64, i64) {
        ((point.x * 1000.0).round() as i64, (point.y * 1000.0).round() as i64)
    }

    /// Call before each window of at most two lookups: second-chance-evicts
    /// until the window's inserts fit the budget, so ranges returned within
    /// a window always stay valid.
    pub fn begin_query(&mut self) {
        let mut evicted = 0u64;
        while self.map.len() + 2 > self.max_entries {
            let Some(key) = self.order.pop_front() else { break };
            let entry = self.map.get_mut(&key).expect("queued key must be mapped");
            if entry.referenced {
                entry.referenced = false;
                self.order.push_back(key);
            } else {
                self.map.remove(&key);
                evicted += 1;
            }
        }
        if evicted > 0 {
            ACCESS_CACHE_EVICTIONS.add(evicted);
            // Compact the arena so evicted isochrones release their bytes;
            // survivors keep their relative (insertion) order.
            let mut arena = Vec::with_capacity(self.arena.len());
            for key in &self.order {
                let entry = self.map.get_mut(key).expect("queued key must be mapped");
                let (start, len) = entry.range;
                let new_start = arena.len() as u32;
                arena.extend_from_slice(&self.arena[start as usize..(start + len) as usize]);
                entry.range = (new_start, len);
            }
            self.arena = arena;
        }
    }

    /// Cached range for `point`, if present; marks the entry referenced.
    fn get(&mut self, point: &Point) -> Option<AccessRange> {
        self.map.get_mut(&Self::key(point)).map(|e| {
            e.referenced = true;
            e.range
        })
    }

    /// Memoizes `stops` as the isochrone of `point`.
    fn insert(&mut self, point: &Point, stops: &[(StopId, u32)]) -> AccessRange {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(stops);
        let range = (start, stops.len() as u32);
        let key = Self::key(point);
        if self.map.insert(key, CacheEntry { range, referenced: false }).is_none() {
            self.order.push_back(key);
        }
        range
    }

    /// Resolves a range returned by [`TransitNetwork::access_stops_cached`].
    pub fn slice(&self, (start, len): AccessRange) -> &[(StopId, u32)] {
        &self.arena[start as usize..(start + len) as usize]
    }

    /// Number of memoized isochrones.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Summary counts of a prepared network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkStats {
    pub n_stops: usize,
    pub n_patterns: usize,
    pub n_trips: usize,
    pub n_transfers: usize,
    pub mean_pattern_length: f64,
}

impl std::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} stops, {} patterns ({} trips, mean length {:.1}), {} foot transfers",
            self.n_stops, self.n_patterns, self.n_trips, self.mean_pattern_length, self.n_transfers
        )
    }
}

/// Groups trips into patterns by (route, exact stop sequence), then splits
/// each group into **non-overtaking chains**: trips sorted by first-stop
/// departure are assigned first-fit to the first chain whose last trip they
/// dominate pointwise (arrival *and* departure no earlier at every
/// position), opening a new chain otherwise. On a feed with no overtaking
/// — every schedule `staq-synth` generates — each group stays one chain and
/// the output is identical to the unsplit grouping; a delayed trip that
/// passes its successor lands in its own chain instead of corrupting the
/// sorted departure columns the boarding search depends on.
///
/// Errors only on genuinely malformed input: a trip whose own call times
/// run backwards (departure before arrival, or time travel between
/// consecutive stops).
fn build_patterns(feed: &FeedIndex) -> Result<Vec<Pattern>, String> {
    let mut keyed: HashMap<(RouteId, Vec<StopId>), Vec<TripId>> = HashMap::new();
    for trip in &feed.feed().trips {
        let calls = feed.trip_calls(trip.id);
        if calls.len() < 2 {
            continue;
        }
        for (i, c) in calls.iter().enumerate() {
            let ok = c.departure >= c.arrival && (i == 0 || c.arrival >= calls[i - 1].departure);
            if !ok {
                return Err(format!(
                    "trip #{} has non-monotonic call times at stop position {i}",
                    trip.id.0
                ));
            }
        }
        let stops: Vec<StopId> = calls.iter().map(|c| c.stop).collect();
        keyed.entry((trip.route, stops)).or_default().push(trip.id);
    }
    let mut keys: Vec<(RouteId, Vec<StopId>)> = keyed.keys().cloned().collect();
    keys.sort(); // deterministic pattern order
    let mut patterns = Vec::with_capacity(keys.len());
    for key in keys {
        let mut trips = keyed.remove(&key).unwrap();
        // Stable sort: ties keep feed (trip-id) order, deterministically.
        trips.sort_by_key(|&t| feed.trip_calls(t)[0].departure);
        let (route, stops) = key;
        let mut chains: Vec<Vec<TripId>> = Vec::new();
        for &t in &trips {
            let calls = feed.trip_calls(t);
            let slot = chains.iter().position(|chain| {
                let last = feed.trip_calls(*chain.last().unwrap());
                last.iter()
                    .zip(calls)
                    .all(|(a, b)| b.arrival >= a.arrival && b.departure >= a.departure)
            });
            match slot {
                Some(ci) => chains[ci].push(t),
                None => chains.push(vec![t]),
            }
        }
        for chain in chains {
            let mut arrivals = Vec::with_capacity(chain.len() * stops.len());
            let mut departures = Vec::with_capacity(chain.len() * stops.len());
            let mut trip_days = Vec::with_capacity(chain.len());
            for &t in &chain {
                for c in feed.trip_calls(t) {
                    arrivals.push(c.arrival);
                    departures.push(c.departure);
                }
                let mut days = 0u8;
                for day in DayOfWeek::ALL {
                    if feed.trip_runs_on(t, day) {
                        days |= 1u8 << day.index();
                    }
                }
                trip_days.push(days);
            }
            patterns.push(Pattern::from_trip_major(
                route,
                stops.clone(),
                chain,
                arrivals,
                departures,
                trip_days,
            ));
        }
    }
    Ok(patterns)
}

/// Errors when a later trip overtakes an earlier one at any stop position,
/// in arrivals **or** departures — the departure columns are what
/// `earliest_trip` binary-searches, so their sortedness is the invariant
/// that actually matters. A post-condition of `build_patterns`' chain
/// splitting; kept as an independent check so a future construction path
/// cannot silently regress it.
fn check_no_overtaking(p: &Pattern) -> Result<(), String> {
    let ns = p.stops.len();
    for t in 1..p.trips.len() {
        for i in 0..ns {
            if p.arrival(t, i) < p.arrival(t - 1, i) || p.departure(t, i) < p.departure(t - 1, i) {
                return Err(format!(
                    "pattern on route {:?} has overtaking trips at stop position {i}",
                    p.route
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use staq_synth::{City, CityConfig};

    fn city() -> City {
        City::generate(&CityConfig::small(42))
    }

    #[test]
    fn patterns_cover_all_multi_call_trips() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let total_trips: usize = net.patterns().iter().map(|p| p.trips.len()).sum();
        assert_eq!(total_trips, city.feed.feed().trips.len());
        for p in net.patterns() {
            assert!(p.stops.len() >= 2);
            assert!(!p.trips.is_empty());
        }
    }

    #[test]
    fn pattern_timetable_matches_feed() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let p = &net.patterns()[0];
        let calls = city.feed.trip_calls(p.trips[0]);
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(p.arrival(0, i), c.arrival);
            assert_eq!(p.departure(0, i), c.departure);
        }
    }

    #[test]
    fn earliest_trip_binary_search_agrees_with_scan() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let day = DayOfWeek::Tuesday;
        for p in net.patterns().iter().take(5) {
            for &probe in &[Stime::hours(6), Stime::hms(7, 43, 0), Stime::hours(22)] {
                for i in [0usize, p.stops.len() / 2] {
                    let got = p.earliest_trip(i, probe, day);
                    let want = (0..p.trips.len()).find(|&k| {
                        p.departure(k, i) >= probe && city.feed.trip_runs_on(p.trips[k], day)
                    });
                    assert_eq!(got, want);
                }
            }
        }
    }

    /// A feed whose trips have per-trip start times, per-hop run times, and
    /// per-stop dwells — deliberately non-uniform so departure columns are
    /// not simple shifts of each other. Trips alternate between a weekday
    /// service and a Saturday-only one to exercise the day filter.
    fn irregular_feed(
        starts: &[u32],
        hops: &[Vec<u32>],
        dwells: &[Vec<u32>],
    ) -> staq_gtfs::model::Feed {
        use staq_gtfs::model::*;
        let n_stops = hops[0].len() + 1;
        let stops = (0..n_stops)
            .map(|k| Stop {
                id: StopId(k as u32),
                gtfs_id: format!("S{k}"),
                name: format!("Stop {k}"),
                pos: staq_geom::Point { x: 500.0 * k as f64, y: 0.0 },
            })
            .collect();
        let services = vec![
            Service {
                id: ServiceId(0),
                gtfs_id: "WK".into(),
                days: [true, true, true, true, true, false, false],
            },
            Service {
                id: ServiceId(1),
                gtfs_id: "SAT".into(),
                days: [false, false, false, false, false, true, false],
            },
        ];
        let mut stop_times = Vec::new();
        for (t, &start) in starts.iter().enumerate() {
            let mut arr = start;
            for seq in 0..n_stops {
                if seq > 0 {
                    arr += hops[t][seq - 1];
                }
                let dep = if seq + 1 < n_stops { arr + dwells[t][seq] } else { arr };
                stop_times.push(StopTime {
                    trip: TripId(t as u32),
                    stop: StopId(seq as u32),
                    arrival: Stime(arr),
                    departure: Stime(dep),
                    seq: seq as u32,
                });
                arr = dep;
            }
        }
        Feed {
            agencies: vec![Agency { id: AgencyId(0), gtfs_id: "A".into(), name: "T".into() }],
            stops,
            routes: vec![Route {
                id: RouteId(0),
                gtfs_id: "R0".into(),
                agency: AgencyId(0),
                short_name: "P".into(),
                route_type: RouteType::Bus,
            }],
            services,
            trips: (0..starts.len() as u32)
                .map(|t| Trip {
                    id: TripId(t),
                    gtfs_id: format!("T{t}"),
                    route: RouteId(0),
                    service: ServiceId(t % 2),
                })
                .collect(),
            stop_times,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// On feeds with non-uniform dwells and run times — including ones
        /// that force dominance-chain splits — every built pattern is
        /// overtaking-free, no trip is lost, and the cursor-friendly
        /// `earliest_trip` agrees with a brute-force linear scan at every
        /// stop position for arbitrary probe times on both service days.
        #[test]
        fn built_patterns_are_sorted_and_earliest_trip_matches_linear_scan(
            nt in 1usize..6,
            ns in 2usize..6,
            starts in proptest::collection::vec(6 * 3600u32..10 * 3600, 5),
            all_hops in proptest::collection::vec(
                proptest::collection::vec(60u32..1200, 4), 5),
            all_dwells in proptest::collection::vec(
                proptest::collection::vec(0u32..180, 5), 5),
            probes in proptest::collection::vec(5 * 3600u32..12 * 3600, 4),
        ) {
            let starts = &starts[..nt];
            let hops: Vec<Vec<u32>> =
                all_hops[..nt].iter().map(|h| h[..ns - 1].to_vec()).collect();
            let dwells: Vec<Vec<u32>> =
                all_dwells[..nt].iter().map(|d| d[..ns].to_vec()).collect();
            let ix = FeedIndex::build(irregular_feed(starts, &hops, &dwells));
            let patterns = build_patterns(&ix).expect("monotone trips must build");
            let total: usize = patterns.iter().map(|p| p.trips.len()).sum();
            prop_assert_eq!(total, starts.len(), "splitting must not lose trips");
            for p in &patterns {
                check_no_overtaking(p).expect("built patterns are overtaking-free");
                for day in [DayOfWeek::Tuesday, DayOfWeek::Saturday] {
                    for i in 0..p.stops.len() {
                        for &probe in &probes {
                            let got = p.earliest_trip(i, Stime(probe), day);
                            let want = (0..p.trips.len()).find(|&k| {
                                p.departure(k, i) >= Stime(probe) && p.trip_runs_on(k, day)
                            });
                            prop_assert_eq!(got, want, "i={} probe={} day={:?}", i, probe, day);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn access_stops_respects_budget() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let origin = city.cores[0];
        let stops = net.access_stops(&origin);
        assert!(!stops.is_empty(), "city center must reach some stop on foot");
        for &(s, secs) in &stops {
            assert!(secs as f64 <= net.cfg.access_budget_secs + 1.0);
            // The stop really is near the walking range.
            let crow = city.feed.stop_pos(s).dist(&origin);
            assert!(crow <= net.cfg.access_budget_secs * net.cfg.omega_mps * 1.05);
        }
    }

    #[test]
    fn transfers_are_symmetricish_and_bounded() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        for s in 0..city.feed.n_stops() {
            for tr in net.transfers_from(StopId(s as u32)) {
                assert!(tr.walk_secs as f64 <= net.cfg.transfer_walk_secs + 1.0);
                assert_ne!(tr.to, StopId(s as u32));
                // Reverse transfer exists (same radius, symmetric metric).
                assert!(net.transfers_from(tr.to).iter().any(|r| r.to == StopId(s as u32)));
            }
        }
    }

    #[test]
    fn stats_summarize_the_network() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let s = net.stats();
        assert_eq!(s.n_stops, city.feed.n_stops());
        assert_eq!(s.n_trips, city.feed.feed().trips.len());
        assert!(s.mean_pattern_length >= 2.0);
        assert!(s.to_string().contains("patterns"));
    }

    #[test]
    fn access_cache_returns_identical_stop_lists() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let mut cache = AccessCache::new();
        let mut walk = dijkstra::WalkScratch::new();
        let (mut nodes, mut tmp) = (Vec::new(), Vec::new());
        for p in [city.cores[0], city.zones[3].centroid, city.zones[7].centroid] {
            cache.begin_query();
            let miss = net.access_stops_cached(&p, &mut cache, &mut walk, &mut nodes, &mut tmp);
            let first: Vec<_> = cache.slice(miss).to_vec();
            let hit = net.access_stops_cached(&p, &mut cache, &mut walk, &mut nodes, &mut tmp);
            assert_eq!(cache.slice(hit), &first[..]);
            assert_eq!(first, net.access_stops(&p), "cached list diverged from direct compute");
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn access_cache_evicts_in_second_chance_order_at_budget() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let mut cache = AccessCache::with_max_entries(5);
        let mut walk = dijkstra::WalkScratch::new();
        let (mut nodes, mut tmp) = (Vec::new(), Vec::new());
        let evictions_before = ACCESS_CACHE_EVICTIONS.get();
        let pts: Vec<Point> = (0..5).map(|z| city.zones[z].centroid).collect();
        let mut lookup = |cache: &mut AccessCache, p: &Point| {
            cache.begin_query();
            net.access_stops_cached(p, cache, &mut walk, &mut nodes, &mut tmp)
        };
        // Warm three entries, then re-touch pts[0] so its referenced bit
        // is set, then fill to the budget.
        for p in &pts[..3] {
            lookup(&mut cache, p);
        }
        lookup(&mut cache, &pts[0]);
        lookup(&mut cache, &pts[3]);
        // The next query overflows the budget: the clock hand reaches the
        // referenced pts[0] first, grants it a second chance, and evicts
        // the cold pts[1] instead — never the whole arena.
        let r = lookup(&mut cache, &pts[4]);
        assert_eq!(cache.slice(r), &net.access_stops(&pts[4])[..]);
        assert!(cache.get(&pts[0]).is_some(), "referenced entry must get a second chance");
        assert!(cache.get(&pts[1]).is_none(), "oldest cold entry is evicted first");
        // A range surviving arena compaction still resolves correctly.
        let r0 = cache.get(&pts[0]).expect("still cached");
        assert_eq!(cache.slice(r0), &net.access_stops(&pts[0])[..]);
        assert!(
            ACCESS_CACHE_EVICTIONS.get() > evictions_before,
            "selective eviction must be counted"
        );
        assert!(cache.len() <= 5 && !cache.is_empty());
    }

    /// Earliest arrivals over a grid of probe queries.
    fn probe_arrivals(net: &TransitNetwork<'_>, city: &City) -> Vec<u32> {
        let r = crate::Raptor::new(net);
        let day = DayOfWeek::Tuesday;
        let mut out = Vec::new();
        for o in [city.cores[0], city.zones[2].centroid, city.zones[9].centroid] {
            for d in [city.zones[5].centroid, city.zones[11].centroid, city.cores[0]] {
                for t in [Stime::hours(8), Stime::hms(17, 30, 0)] {
                    out.push(r.query(&o, &d, t, day).arrive.0);
                }
            }
        }
        out
    }

    #[test]
    fn a_view_of_held_tables_routes_like_a_one_shot_network() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<NetworkTables>();
        let city = city();
        let tables = NetworkTables::build(&city.road, &city.feed, RouterConfig::default())
            .expect("synth feeds are well-formed");
        let view = Arc::new(tables).view(&city.road, &city.feed);
        let fresh = TransitNetwork::with_defaults(&city.road, &city.feed);
        assert_eq!(view.stats(), fresh.stats());
        assert_eq!(probe_arrivals(&view, &city), probe_arrivals(&fresh, &city));
    }

    #[test]
    fn direct_walk_scales_with_distance() {
        let city = city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let a = Point::new(0.0, 0.0);
        let near = net.direct_walk_secs(&a, &Point::new(100.0, 0.0));
        let far = net.direct_walk_secs(&a, &Point::new(1000.0, 0.0));
        assert!(far > near * 9);
        assert_eq!(net.direct_walk_secs(&a, &a), 0);
    }
}
