//! Synthetic bus network and timetable generation.
//!
//! Route geometry mimics a UK city bus map: **radial** lines from the center
//! to the periphery, **orbital** rings around the center, and **cross-town**
//! lines passing near the center. Stops are placed every `stop_spacing_m`
//! along the route polyline and snapped to road nodes; stops snapping to the
//! same node are merged across routes, which is what creates natural
//! interchange points.
//!
//! Timetables run 05:30–23:30 with three headway bands (peak, daytime,
//! evening) and a per-route frequency multiplier, so high- and low-frequency
//! corridors both exist — the variance that the paper's route-frequency
//! features and ACSD measure depend on. Weekday (Mon–Fri) service always
//! runs; every other route also gets a sparser Saturday service; nothing
//! runs on Sunday.

use crate::config::CityConfig;
use rand::rngs::StdRng;
use rand::RngExt;
use staq_geom::Point;
use staq_gtfs::model::{
    Agency, AgencyId, Feed, Route, RouteId, RouteType, Service, ServiceId, Stop, StopId, StopTime,
    Trip, TripId,
};
use staq_gtfs::time::Stime;
use staq_road::{NodeSnapper, RoadGraph};
use std::collections::HashMap;

/// Dwell time at each stop, seconds.
const DWELL_S: u32 = 15;
/// Detour factor from crow-flies to on-street distance.
const DETOUR: f64 = 1.25;

/// Headway bands over the service day.
/// `(start, end, multiplier over peak headway)`.
const BANDS: [(u32, u32, f64); 5] = [
    (5 * 3600 + 1800, 7 * 3600, 2.0),          // early
    (7 * 3600, 9 * 3600, 1.0),                 // AM peak
    (9 * 3600, 16 * 3600, 2.0),                // daytime
    (16 * 3600, 18 * 3600 + 1800, 1.0),        // PM peak
    (18 * 3600 + 1800, 23 * 3600 + 1800, 3.0), // evening
];

/// Generates the GTFS feed for `config` on `road`.
pub fn generate(config: &CityConfig, cores: &[Point], road: &RoadGraph, rng: &mut StdRng) -> Feed {
    let mut feed = Feed::default();
    feed.agencies.push(Agency {
        id: AgencyId(0),
        gtfs_id: "AG1".into(),
        name: format!("{} Buses", config.name),
    });
    let weekday = ServiceId(0);
    feed.services.push(Service {
        id: weekday,
        gtfs_id: "WK".into(),
        days: [true, true, true, true, true, false, false],
    });
    let saturday = ServiceId(1);
    feed.services.push(Service {
        id: saturday,
        gtfs_id: "SAT".into(),
        days: [false, false, false, false, false, true, false],
    });

    let snapper = NodeSnapper::new(road);
    // Stops merged by snapped road node: shared stops = interchange points.
    let mut node_stop: HashMap<u32, StopId> = HashMap::new();

    for r in 0..config.n_routes {
        let waypoints = route_waypoints(config, cores, rng, r);
        let stop_ids = place_stops(config, &waypoints, &snapper, road, &mut node_stop, &mut feed);
        if stop_ids.len() < 2 {
            continue; // degenerate geometry; skip rather than emit a 1-call trip
        }
        let route_id = RouteId(feed.routes.len() as u32);
        feed.routes.push(Route {
            id: route_id,
            gtfs_id: format!("R{r}"),
            agency: AgencyId(0),
            short_name: format!("{}", r + 1),
            route_type: RouteType::Bus,
        });

        // Per-route frequency multiplier: some corridors run every few
        // minutes, others twice an hour.
        let freq_mult = rng.random_range(0.6..1.8);
        // Random phase so departures don't synchronize city-wide.
        let phase = rng.random_range(0..config.peak_headway_s);

        // Inter-stop run times from stop geometry.
        let runtimes: Vec<u32> = stop_ids
            .windows(2)
            .map(|w| {
                let a = feed.stops[w[0].idx()].pos;
                let b = feed.stops[w[1].idx()].pos;
                ((a.dist(&b) * DETOUR / config.bus_speed_mps).round() as u32).max(30)
            })
            .collect();

        let services: &[(ServiceId, f64)] =
            if r % 2 == 0 { &[(weekday, 1.0), (saturday, 1.8)] } else { &[(weekday, 1.0)] };
        for &(svc, svc_mult) in services {
            for dir in 0..2 {
                let ordered: Vec<StopId> = if dir == 0 {
                    stop_ids.clone()
                } else {
                    stop_ids.iter().rev().copied().collect()
                };
                let runs: Vec<u32> = if dir == 0 {
                    runtimes.clone()
                } else {
                    runtimes.iter().rev().copied().collect()
                };
                emit_trips(
                    &mut feed,
                    route_id,
                    svc,
                    &ordered,
                    &runs,
                    (config.peak_headway_s as f64 * freq_mult * svc_mult) as u32,
                    phase,
                    r,
                    dir,
                );
            }
        }
    }
    feed.normalize();
    feed
}

/// Builds the waypoint polyline for route index `r`, cycling through the
/// three geometry families.
fn route_waypoints(config: &CityConfig, cores: &[Point], rng: &mut StdRng, r: u32) -> Vec<Point> {
    let side = config.side_m;
    let center = cores[(r as usize) % cores.len()];
    let margin = side * 0.05;
    let rand_edge_point = |rng: &mut StdRng| -> Point {
        // A point on the study-area boundary.
        let t = rng.random_range(0.0..4.0);
        let u = rng.random_range(margin..side - margin);
        match t as u32 {
            0 => Point::new(u, margin),
            1 => Point::new(u, side - margin),
            2 => Point::new(margin, u),
            _ => Point::new(side - margin, u),
        }
    };
    match r % 3 {
        // Radial: center -> edge, slightly bent via a midpoint jitter.
        0 => {
            let edge = rand_edge_point(rng);
            let mid = center
                .midpoint(&edge)
                .offset(rng.random_range(-0.08..0.08) * side, rng.random_range(-0.08..0.08) * side);
            vec![center, mid, edge]
        }
        // Orbital: ring around the center.
        1 => {
            let radius = rng.random_range(0.18f64..0.35) * side;
            let n = 10;
            let phase = rng.random_range(0.0..std::f64::consts::TAU);
            (0..=n)
                .map(|i| {
                    let th = phase + i as f64 / n as f64 * std::f64::consts::TAU;
                    Point::new(
                        (center.x + radius * th.cos()).clamp(margin, side - margin),
                        (center.y + radius * th.sin()).clamp(margin, side - margin),
                    )
                })
                .collect()
        }
        // Cross-town: edge -> near-center -> edge.
        _ => {
            let a = rand_edge_point(rng);
            let b = rand_edge_point(rng);
            let via = center
                .offset(rng.random_range(-0.06..0.06) * side, rng.random_range(-0.06..0.06) * side);
            vec![a, via, b]
        }
    }
}

/// Walks the polyline, emitting a stop every `stop_spacing_m`, snapped to the
/// road network and merged across routes by road node.
fn place_stops(
    config: &CityConfig,
    waypoints: &[Point],
    snapper: &NodeSnapper,
    road: &RoadGraph,
    node_stop: &mut HashMap<u32, StopId>,
    feed: &mut Feed,
) -> Vec<StopId> {
    let mut stops: Vec<StopId> = Vec::new();
    let mut carry = 0.0; // distance since last stop
    let mut emit = |p: Point, feed: &mut Feed, stops: &mut Vec<StopId>| {
        if let Some((node, _gap)) = snapper.snap(&p) {
            let id = *node_stop.entry(node.0).or_insert_with(|| {
                let id = StopId(feed.stops.len() as u32);
                feed.stops.push(Stop {
                    id,
                    gtfs_id: format!("S{}", id.0),
                    name: format!("Stop {}", id.0),
                    pos: road.pos(node),
                });
                id
            });
            if stops.last() != Some(&id) {
                stops.push(id);
            }
        }
    };
    if let Some(&first) = waypoints.first() {
        emit(first, feed, &mut stops);
    }
    for w in waypoints.windows(2) {
        let (a, b) = (w[0], w[1]);
        let seg = a.dist(&b);
        if seg == 0.0 {
            continue;
        }
        let mut along = config.stop_spacing_m - carry;
        while along < seg {
            emit(a.lerp(&b, along / seg), feed, &mut stops);
            along += config.stop_spacing_m;
        }
        carry = seg - (along - config.stop_spacing_m);
    }
    if let Some(&last) = waypoints.last() {
        emit(last, feed, &mut stops);
    }
    stops
}

/// Emits all trips of one route direction for one service over the day.
#[allow(clippy::too_many_arguments)]
fn emit_trips(
    feed: &mut Feed,
    route: RouteId,
    svc: ServiceId,
    stops: &[StopId],
    runtimes: &[u32],
    headway_peak_adjusted: u32,
    phase: u32,
    route_no: u32,
    dir: u32,
) {
    let mut trip_no = 0u32;
    for &(band_start, band_end, mult) in &BANDS {
        let headway = ((headway_peak_adjusted as f64 * mult) as u32).max(120);
        let mut t = band_start + phase % headway;
        while t < band_end {
            let trip_id = TripId(feed.trips.len() as u32);
            let svc_tag = if svc.0 == 0 { "wk" } else { "sat" };
            feed.trips.push(Trip {
                id: trip_id,
                gtfs_id: format!("T{route_no}.{dir}.{svc_tag}.{trip_no}"),
                route,
                service: svc,
            });
            let mut clock = Stime(t);
            for (k, &stop) in stops.iter().enumerate() {
                let arrival = clock;
                let departure = if k + 1 < stops.len() { arrival.plus(DWELL_S) } else { arrival };
                feed.stop_times.push(StopTime {
                    trip: trip_id,
                    stop,
                    arrival,
                    departure,
                    seq: k as u32,
                });
                if k < runtimes.len() {
                    clock = departure.plus(runtimes[k]);
                }
            }
            trip_no += 1;
            t += headway;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use staq_gtfs::time::{DayOfWeek, TimeInterval};
    use staq_gtfs::validate;
    use staq_gtfs::FeedIndex;

    /// Calls departing in `v` of trips that run on its day: every stop's
    /// departures in `v`, summed.
    fn departures_in(ix: &FeedIndex, v: &TimeInterval) -> usize {
        let calls = ix.feed().stop_times.iter();
        calls.filter(|c| v.contains(c.departure) && ix.trip_runs_on(c.trip, v.day)).count()
    }

    fn gen_feed(seed: u64) -> Feed {
        let cfg = CityConfig::small(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let road = crate::roads::generate(&cfg, &mut rng);
        let cores = vec![Point::new(cfg.side_m / 2.0, cfg.side_m / 2.0)];
        generate(&cfg, &cores, &road, &mut rng)
    }

    #[test]
    fn generated_feed_is_valid() {
        let feed = gen_feed(3);
        let violations = validate::validate(&feed);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn feed_has_expected_structure() {
        let cfg = CityConfig::small(3);
        let feed = gen_feed(3);
        assert_eq!(feed.agencies.len(), 1);
        assert_eq!(feed.services.len(), 2);
        assert!(feed.routes.len() as u32 <= cfg.n_routes);
        assert!(feed.routes.len() >= 4, "most routes should survive geometry");
        assert!(feed.trips.len() > 50, "full-day timetable expected");
        assert!(!feed.stop_times.is_empty());
    }

    #[test]
    fn stops_are_shared_between_routes() {
        let feed = gen_feed(5);
        // Count stops served by >= 2 routes.
        let mut stop_routes: HashMap<u32, std::collections::HashSet<u32>> = HashMap::new();
        for st in &feed.stop_times {
            let route = feed.trips[st.trip.idx()].route;
            stop_routes.entry(st.stop.0).or_default().insert(route.0);
        }
        let shared = stop_routes.values().filter(|s| s.len() >= 2).count();
        assert!(shared > 0, "no interchange stops generated");
    }

    #[test]
    fn peak_headway_shorter_than_evening() {
        let feed = gen_feed(7);
        let ix = FeedIndex::build(feed);
        let am = TimeInterval::am_peak();
        let evening =
            TimeInterval::new(Stime::hours(19), Stime::hours(23), DayOfWeek::Tuesday, "evening");
        // Average departures per stop must be higher in the (2h) peak than
        // scaled evening (4h => compare rates).
        let peak_rate = departures_in(&ix, &am) as f64 / am.duration_hours();
        let eve_rate = departures_in(&ix, &evening) as f64 / evening.duration_hours();
        assert!(peak_rate > eve_rate * 1.5, "peak rate {peak_rate} vs evening {eve_rate}");
    }

    #[test]
    fn no_sunday_service() {
        let feed = gen_feed(9);
        let ix = FeedIndex::build(feed);
        let sunday = TimeInterval::new(Stime::hours(7), Stime::hours(9), DayOfWeek::Sunday, "sun");
        assert_eq!(departures_in(&ix, &sunday), 0);
    }

    #[test]
    fn trips_progress_monotonically() {
        let feed = gen_feed(11);
        let ix = FeedIndex::build(feed);
        for t in 0..ix.feed().trips.len() {
            let calls = ix.trip_calls(TripId(t as u32));
            assert!(calls.len() >= 2);
            for w in calls.windows(2) {
                assert!(w[1].arrival >= w[0].departure);
            }
        }
    }
}
