//! SPQ labeling: turning trips into access costs (paper §IV-D).
//!
//! "For labeling, each zone is selected in L and all of its respective trips
//! are retrieved from M_g. For each, an SPQ is run in G to calculate its
//! access cost. These access costs are then aggregated back to the
//! zone-level using the mean and standard deviation, which forms the target
//! vector."
//!
//! Labeling dominates end-to-end runtime (§IV-E), so it parallelizes across
//! zones with a crossbeam worker pool, and within a zone answers all trips
//! sharing a start time with one one-to-many RAPTOR pass rather than one
//! SPQ each. Every trip's cost equals what the per-trip reference router
//! gives it, and every run is deterministic: costs depend only on (city,
//! matrix, router config), never on scheduling.

use crate::build::{trip_origin, trip_poi_pos};
use crate::matrix::Todam;
use serde::{Deserialize, Serialize};
use staq_gtfs::time::TimeInterval;
use staq_obs::{trace, AtomicHistogram, Counter};
use staq_synth::{City, ZoneId};
use staq_transit::{AccessCost, Raptor, TransitNetwork};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Zones labeled (attempted — zones without trips count; they cost a map
/// lookup, not a routing pass).
static ZONES_LABELED: Counter = Counter::new("label.zones");
/// Trips routed and costed across all labeling passes.
static TRIPS_LABELED: Counter = Counter::new("label.trips");
/// Per-worker wall from the labeling pass's start to that worker's
/// completion. The max/min spread is the load-balance diagnostic for
/// §IV-E's dominant cost: a balanced pass has every worker finishing
/// together (ratio ≈ 1); under skew a worker stuck on trip-heavy zones
/// runs on alone while the early finishers idle.
static WORKER_WALL: AtomicHistogram = AtomicHistogram::new("label.worker_wall");
/// Output chunks claimed from the shared claim point by labeling workers.
static CHUNKS_CLAIMED: Counter = Counter::new("label.chunks_claimed");

/// Zones handed to a worker per claimed output chunk. Small enough that
/// claims stay balanced when per-zone trip counts vary, large enough that
/// a chunk's writes stay on one cache line (and the claim point stays off
/// the per-zone path).
const LABEL_CHUNK: usize = 4;

/// Per-zone labeling result: the SSR target vector's components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneStats {
    /// Mean access cost (MAC numerator of Eq. 2, already gravity-weighted by
    /// sampling).
    pub mac: f64,
    /// Standard deviation of access costs (ACSD).
    pub acsd: f64,
    /// Number of labeled trips.
    pub n_trips: u32,
    /// Fraction of the zone's trips that were walk-only (drives the ACSD=0
    /// effect discussed in §V-B2).
    pub walk_only_frac: f64,
}

impl ZoneStats {
    /// Stats over a cost/walk-flag list. Returns `None` for an empty list
    /// (zones without trips cannot be labeled).
    fn from_costs(costs: &[(f64, bool)]) -> Option<ZoneStats> {
        if costs.is_empty() {
            return None;
        }
        let n = costs.len() as f64;
        let mean = costs.iter().map(|c| c.0).sum::<f64>() / n;
        let var = costs.iter().map(|c| (c.0 - mean).powi(2)).sum::<f64>() / n;
        let walks = costs.iter().filter(|c| c.1).count() as f64;
        Some(ZoneStats {
            mac: mean,
            acsd: var.sqrt(),
            n_trips: costs.len() as u32,
            walk_only_frac: walks / n,
        })
    }
}

/// The labeling engine: a router plus cost model over one city.
pub struct LabelEngine<'a> {
    city: &'a City,
    net: TransitNetwork<'a>,
    cost: AccessCost,
    interval: TimeInterval,
    /// Worker threads for zone-parallel labeling. Every worker's router
    /// shares the access cache of `net`'s stop tables.
    pub n_workers: usize,
}

impl<'a> LabelEngine<'a> {
    /// Creates an engine with the default router config, preparing the
    /// city's network from scratch.
    pub fn new(city: &'a City, cost: AccessCost, interval: TimeInterval) -> Self {
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        Self::with_network(city, net, cost, interval)
    }

    /// An engine over a caller-supplied network: the SSR pipeline hands in
    /// a view of its prepared tables, so it does not rebuild the network
    /// per labeling pass; the what-if path a view of tables built from the
    /// scenario's copy of the feed.
    pub fn with_network(
        city: &'a City,
        net: TransitNetwork<'a>,
        cost: AccessCost,
        interval: TimeInterval,
    ) -> Self {
        let n_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        LabelEngine { city, net, cost, interval, n_workers }
    }

    /// Labels a single zone: routes every trip, aggregates to mean/std.
    /// `None` when the zone has no trips in `m`. The router is the calling
    /// worker's, so one `Raptor` (and its query scratch) is amortized across
    /// its whole share of zones instead of being rebuilt per zone.
    ///
    /// Every trip of a zone leaves its centroid, so the trips sharing a
    /// start time (the matrix's [`Todam::zone_start_groups`]) form one
    /// [`Raptor::query_many`] pass. Costs land at each trip's own index, so
    /// the aggregate sums in trip order.
    fn label_zone_with(&self, router: &Raptor, m: &Todam, zone: ZoneId) -> Option<ZoneStats> {
        let trips = m.zone_trips(zone);
        let mut costs = vec![(0.0, false); trips.len()];
        let (mut dests, mut journeys) = (Vec::new(), Vec::new());
        for group in m.zone_start_groups(zone) {
            let first = &trips[group[0] as usize];
            dests.clear();
            dests.extend(group.iter().map(|&i| trip_poi_pos(self.city, m, &trips[i as usize])));
            let o = trip_origin(self.city, first);
            router.query_many(&o, &dests, first.start, self.interval.day, &mut journeys);
            for (&i, j) in group.iter().zip(&journeys) {
                costs[i as usize] = (self.cost.cost(j), j.is_walk_only());
            }
        }
        ZONES_LABELED.inc();
        TRIPS_LABELED.add(trips.len() as u64);
        ZoneStats::from_costs(&costs)
    }

    /// Labels a set of zones in parallel. Output order matches `zones`;
    /// entries are `None` for zones without trips.
    pub fn label_zones(&self, m: &Todam, zones: &[ZoneId]) -> Vec<Option<ZoneStats>> {
        self.label_zones_timed(m, zones).0
    }

    /// [`label_zones`](Self::label_zones) plus each worker's wall time,
    /// from which callers compute load balance. The walls are also
    /// recorded in the `label.worker_wall` histogram.
    ///
    /// Workers claim the next `LABEL_CHUNK`-zone chunk as they finish the
    /// last, so a worker stuck on a trip-heavy zone stops accumulating
    /// chunks it hasn't started.
    pub fn label_zones_timed(
        &self,
        m: &Todam,
        zones: &[ZoneId],
    ) -> (Vec<Option<ZoneStats>>, Vec<Duration>) {
        if zones.is_empty() {
            return (Vec::new(), Vec::new());
        }
        // No more workers than chunks: a worker with nothing to claim
        // would record a near-zero wall and inflate the max/min spread.
        let workers = self.n_workers.clamp(1, zones.len().div_ceil(LABEL_CHUNK));
        let mut out = vec![None; zones.len()];
        // Walls are measured from a shared pass start, not each thread's
        // spawn: finish-time spread is the balance signal, and spawn
        // jitter on an oversubscribed box would otherwise drown it.
        let t0 = Instant::now();
        // Worker threads start with an empty span stack; hand them the
        // pass's context so their spans join the caller's trace.
        let ctx = trace::current();
        let walls: Vec<Duration> = {
            // The single claim point. Each chunk leaves the iterator once,
            // as a `&mut` slice its worker alone owns, so results land with
            // no lock and no per-zone atomic; the lock is taken once per
            // `LABEL_CHUNK` zones of RAPTOR queries.
            let chunks =
                Mutex::new(zones.chunks(LABEL_CHUNK).zip(out.chunks_mut(LABEL_CHUNK)).enumerate());
            let work = |w: usize| {
                let _ctx = trace::attach(ctx);
                let mut worker_span = trace::span("label.worker");
                worker_span.attr("worker", w as u64);
                let router = Raptor::new(&self.net);
                let mut claimed = 0u64;
                loop {
                    // A statement of its own, so the guard is released
                    // before the chunk is labeled.
                    let claim =
                        chunks.lock().expect("advancing the chunk iterator cannot panic").next();
                    let Some((c, (zone_chunk, out_chunk))) = claim else { break };
                    claimed += 1;
                    let mut chunk_span = trace::span("label.chunk");
                    chunk_span.attr("chunk", c as u64);
                    chunk_span.attr("zones", zone_chunk.len() as u64);
                    for (&zone, slot) in zone_chunk.iter().zip(out_chunk) {
                        *slot = self.label_zone_with(&router, m, zone);
                    }
                }
                worker_span.attr("chunks", claimed);
                CHUNKS_CLAIMED.add(claimed);
                t0.elapsed()
            };
            crossbeam::scope(|scope| {
                let work = &work;
                let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move |_| work(w))).collect();
                handles.into_iter().map(|h| h.join().expect("labeling worker panicked")).collect()
            })
            .expect("labeling worker panicked")
        };
        for &w in &walls {
            WORKER_WALL.record(w);
        }
        (out, walls)
    }

    /// Labels every zone of the matrix — the naïve full computation the
    /// paper's Table II prices against the SSR solution.
    pub fn label_all(&self, m: &Todam) -> Vec<Option<ZoneStats>> {
        let zones: Vec<ZoneId> = (0..m.n_zones() as u32).map(ZoneId).collect();
        self.label_zones(m, &zones)
    }

    /// Total trips labeled when covering `zones` (cost accounting).
    pub fn trip_count(&self, m: &Todam, zones: &[ZoneId]) -> usize {
        zones.iter().map(|&z| m.zone_trips(z).len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TodamSpec;
    use staq_synth::{CityConfig, PoiCategory};

    /// `label.zones` is process-global and this module's tests run on
    /// parallel threads: every test that labels holds this lock (through
    /// [`setup`]), so `parallel_matches_sequential` reads an exact delta.
    static LABELING: Mutex<()> = Mutex::new(());

    fn setup() -> (City, Todam, std::sync::MutexGuard<'static, ()>) {
        let serial = LABELING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let city = City::generate(&CityConfig::tiny(42));
        let m = TodamSpec { per_hour: 5, ..Default::default() }.build(&city, PoiCategory::School);
        (city, m, serial)
    }

    #[test]
    fn zone_stats_from_costs() {
        let s = ZoneStats::from_costs(&[(10.0, false), (20.0, false), (30.0, true)]).unwrap();
        assert!((s.mac - 20.0).abs() < 1e-12);
        assert!((s.acsd - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.n_trips, 3);
        assert!((s.walk_only_frac - 1.0 / 3.0).abs() < 1e-12);
        assert!(ZoneStats::from_costs(&[]).is_none());
    }

    /// `ZoneStats` as raw bits, so equality is bit-for-bit.
    fn bits(labels: &[Option<ZoneStats>]) -> Vec<Option<(u64, u64, u32, u64)>> {
        labels
            .iter()
            .map(|l| {
                l.map(|s| {
                    (s.mac.to_bits(), s.acsd.to_bits(), s.n_trips, s.walk_only_frac.to_bits())
                })
            })
            .collect()
    }

    /// Grouped labeling equals labeling every trip on its own with the
    /// unpruned reference router, bit for bit: for JT and GAC, at one and
    /// four workers, whose routers share one access cache (the second pass
    /// reads the cache the first one warmed). The VaxCenter matrix of
    /// `small(42)` holds trips on which the pruned per-trip router once
    /// arrived later than the reference.
    #[test]
    fn labels_equal_per_trip_reference_labeling() {
        let _serial = LABELING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let city = City::generate(&CityConfig::small(42));
        let spec = TodamSpec::default();
        let m = spec.build(&city, PoiCategory::VaxCenter);
        let zones: Vec<ZoneId> = (0..city.n_zones() as u32).map(ZoneId).collect();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let reference = Raptor::reference(&net);
        let journeys: Vec<Vec<_>> = zones
            .iter()
            .map(|&z| {
                let trips = m.zone_trips(z);
                trips
                    .iter()
                    .map(|t| {
                        let (o, d) = (trip_origin(&city, t), trip_poi_pos(&city, &m, t));
                        reference.query(&o, &d, t.start, spec.interval.day)
                    })
                    .collect()
            })
            .collect();
        for cost in [AccessCost::jt(), AccessCost::gac()] {
            let expected: Vec<Option<ZoneStats>> = journeys
                .iter()
                .map(|js| {
                    let costs: Vec<(f64, bool)> =
                        js.iter().map(|j| (cost.cost(j), j.is_walk_only())).collect();
                    ZoneStats::from_costs(&costs)
                })
                .collect();
            assert!(expected.iter().any(Option::is_some));
            let mut engine = LabelEngine::new(&city, cost, spec.interval.clone());
            for workers in [1, 4] {
                engine.n_workers = workers;
                assert_eq!(
                    bits(&engine.label_zones(&m, &zones)),
                    bits(&expected),
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn labels_are_finite_and_positive() {
        let (city, m, _serial) = setup();
        let engine = LabelEngine::new(&city, AccessCost::jt(), TimeInterval::am_peak());
        let all = engine.label_all(&m);
        let labeled: Vec<_> = all.iter().flatten().collect();
        assert!(!labeled.is_empty());
        for s in labeled {
            assert!(s.mac.is_finite() && s.mac > 0.0);
            assert!(s.acsd.is_finite() && s.acsd >= 0.0);
            assert!(s.n_trips > 0);
        }
    }

    /// Scheduling is an implementation detail: at every worker count the
    /// pass produces exactly the one-worker labeling and labels every
    /// zone once — over the whole city, over lengths that leave a ragged
    /// last chunk, and with the trip-heavy zones packed into the first
    /// chunks.
    #[test]
    fn parallel_matches_sequential() {
        let (city, m, _serial) = setup();
        let mut engine = LabelEngine::new(&city, AccessCost::jt(), TimeInterval::am_peak());
        let all: Vec<ZoneId> = (0..city.n_zones() as u32).map(ZoneId).collect();
        let mut skewed = all.clone();
        skewed.sort_by_key(|&z| std::cmp::Reverse(m.zone_trips(z).len()));
        let mut inputs = vec![all.clone(), skewed];
        for rem in 1..LABEL_CHUNK {
            inputs.push(all[..2 * LABEL_CHUNK + rem].to_vec());
        }
        let zones_labeled = || staq_obs::snapshot().counter("label.zones").unwrap_or(0);
        for zones in &inputs {
            engine.n_workers = 1;
            let seq = engine.label_zones(&m, zones);
            for workers in [1, 2, 3, 4, 8] {
                engine.n_workers = workers;
                let before = zones_labeled();
                let par = engine.label_zones(&m, zones);
                assert_eq!(seq, par, "{} zones diverged at {workers} workers", zones.len());
                assert_eq!(zones_labeled() - before, zones.len() as u64);
            }
        }
    }

    /// A worker count far above the chunk count (clamped to it, last chunk
    /// ragged) still produces the exact sequential labeling.
    #[test]
    fn oversubscribed_workers_match_sequential() {
        let (city, m, _serial) = setup();
        let mut engine = LabelEngine::new(&city, AccessCost::jt(), TimeInterval::am_peak());
        let zones: Vec<ZoneId> = (0..5).map(ZoneId).collect();
        engine.n_workers = 1;
        let seq = engine.label_zones(&m, &zones);
        engine.n_workers = 64;
        assert_eq!(seq, engine.label_zones(&m, &zones));
    }

    #[test]
    fn timed_labeling_reports_one_wall_per_worker() {
        let (city, m, _serial) = setup();
        let mut engine = LabelEngine::new(&city, AccessCost::jt(), TimeInterval::am_peak());
        let zones: Vec<ZoneId> = (0..city.n_zones() as u32).map(ZoneId).collect();
        let n_chunks = zones.len().div_ceil(LABEL_CHUNK);
        for n_workers in [1, 4, 64] {
            engine.n_workers = n_workers;
            let (out, walls) = engine.label_zones_timed(&m, &zones);
            assert_eq!(out.len(), zones.len());
            assert_eq!(walls.len(), n_workers.min(n_chunks));
        }
    }

    #[test]
    fn gac_labels_exceed_jt_labels() {
        let (city, m, _serial) = setup();
        let jt = LabelEngine::new(&city, AccessCost::jt(), TimeInterval::am_peak());
        let gac = LabelEngine::new(&city, AccessCost::gac(), TimeInterval::am_peak());
        let z = [ZoneId(0)];
        if let (Some(a), Some(b)) = (&jt.label_zones(&m, &z)[0], &gac.label_zones(&m, &z)[0]) {
            assert!(b.mac >= a.mac * 0.99, "GAC MAC {} below JT MAC {}", b.mac, a.mac);
        }
    }

    #[test]
    fn trip_count_accounts_per_zone() {
        let (city, m, _serial) = setup();
        let engine = LabelEngine::new(&city, AccessCost::jt(), TimeInterval::am_peak());
        let zones: Vec<ZoneId> = (0..city.n_zones() as u32).map(ZoneId).collect();
        assert_eq!(engine.trip_count(&m, &zones), m.n_trips());
    }
}
