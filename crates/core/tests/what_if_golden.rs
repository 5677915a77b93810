//! What-if scenarios pinned bit for bit to the copy-on-write pattern
//! overlay that used to evaluate them.
//!
//! `what_if_golden.txt` was written at commit 58cb6ce, where
//! `AccessEngine::what_if` labeled each scenario over
//! `TransitNetwork::overlay` (patterns patched in place of a rebuilt
//! network), built in release, by the `golden_lines` below run in a
//! scratch clone of that commit (the writer is not committed). A scenario
//! now labels over tables built from a copy of the feed with its deltas
//! applied, the way a commit builds them; every line must still match.
//!
//! One line per (city, cost, scenario): an FNV-1a-64 digest over
//! little-endian `to_bits()` words of the scenario's `labeled_stats`
//! (MAC, ACSD, trip count, walk-only share per labeled zone) followed by
//! its `predicted` measures (zone id, MAC, ACSD per zone).
//!
//! The task is the benchmark's `cold_dense` one: School under OLS at β 0.2
//! with 3 starts/h. Cities: the benchmark city (`coventry(42).scaled(0.18)`)
//! and `small(42)`; costs JT and GAC.

use staq_core::{AccessEngine, PipelineConfig};
use staq_gtfs::{Delta, FeedIndex, RouteId, Stime, TripId};
use staq_ml::ModelKind;
use staq_synth::{City, CityConfig, PoiCategory};
use staq_todam::TodamSpec;
use staq_transit::CostKind;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The trip with the most calls among those leaving their first stop in
/// `[from, to)` off route `avoid` (ties: lowest id), so a delta on it
/// reaches many labels.
fn longest_trip_leaving(
    feed: &FeedIndex,
    from: Stime,
    to: Stime,
    avoid: Option<RouteId>,
) -> TripId {
    feed.feed()
        .trips
        .iter()
        .map(|t| t.id)
        .filter(|&t| {
            let calls = feed.trip_calls(t);
            calls.len() >= 2
                && (from..to).contains(&calls[0].departure)
                && Some(feed.trip_route(t)) != avoid
        })
        .max_by_key(|&t| (feed.trip_calls(t).len(), std::cmp::Reverse(t)))
        .expect("a trip leaves in the window")
}

/// The next trip after `trip` on its route and stop sequence, and the
/// seconds between their first departures.
fn successor(feed: &FeedIndex, trip: TripId) -> (TripId, u32) {
    let calls = feed.trip_calls(trip);
    let stops: Vec<_> = calls.iter().map(|c| c.stop).collect();
    feed.feed()
        .trips
        .iter()
        .map(|t| t.id)
        .filter(|&t| {
            let c = feed.trip_calls(t);
            feed.trip_route(t) == feed.trip_route(trip)
                && c.iter().map(|c| c.stop).eq(stops.iter().copied())
                && c[0].departure > calls[0].departure
        })
        .map(|t| (t, feed.trip_calls(t)[0].departure.0 - calls[0].departure.0))
        .min_by_key(|&(t, gap)| (gap, t))
        .expect("the trip has a successor")
}

/// The named scenarios every city is asked.
fn scenarios(city: &City) -> Vec<(&'static str, Vec<Delta>)> {
    let feed = &city.feed;
    let victim = longest_trip_leaving(feed, Stime::hours(7), Stime::hours(8), None);
    let (_, gap) = successor(feed, victim);
    let route = feed.trip_route(victim);
    let other = longest_trip_leaving(feed, Stime::hours(8), Stime::hours(9), Some(route));
    let other_route = feed.trip_route(other);
    let n_trips = feed.feed().trips.len() as u32;
    let add = Delta::AddRoute {
        stops: vec![city.zones[2].centroid, city.cores[0], city.zones[9].centroid],
        headway_s: 600,
    };
    // The added route's trips take ids `n_trips..`: direction 0 first, one
    // trip per 600 s start from 06:00, so `n_trips + 12` leaves at 08:00;
    // direction 1 starts at `n_trips + 96`.
    let (new_am, new_back) = (TripId(n_trips + 12), TripId(n_trips + 96 + 13));
    vec![
        ("empty", vec![]),
        ("delay", vec![Delta::TripDelay { trip: victim, delay_secs: 300 }]),
        ("cancel", vec![Delta::TripCancel { trip: victim }]),
        ("remove_route", vec![Delta::RouteRemove { route }]),
        ("add_route", vec![add.clone()]),
        ("overtaking_delay", vec![Delta::TripDelay { trip: victim, delay_secs: gap + 120 }]),
        (
            "delay_twice",
            vec![
                Delta::TripDelay { trip: victim, delay_secs: 300 },
                Delta::TripDelay { trip: victim, delay_secs: 300 },
            ],
        ),
        (
            "add_route_then_edit_it",
            vec![
                add.clone(),
                Delta::TripDelay { trip: new_am, delay_secs: 300 },
                Delta::TripCancel { trip: new_back },
            ],
        ),
        (
            "mix",
            vec![
                Delta::TripDelay { trip: victim, delay_secs: 240 },
                Delta::ServiceAlert { route, message: "advisory".into() },
                Delta::TripDelay { trip: victim, delay_secs: 600 },
                add,
                Delta::TripDelay { trip: new_am, delay_secs: 420 },
                Delta::TripCancel { trip: new_back },
                Delta::RouteRemove { route: other_route },
                Delta::TripCancel { trip: other },
            ],
        ),
    ]
}

fn golden_lines() -> Vec<String> {
    let cities =
        [("bench", CityConfig::coventry(42).scaled(0.18)), ("small", CityConfig::small(42))];
    let mut out = Vec::new();
    for (name, city_cfg) in cities {
        let city = City::generate(&city_cfg);
        let named = scenarios(&city);
        let deltas: Vec<Vec<Delta>> = named.iter().map(|(_, d)| d.clone()).collect();
        for (cost_name, cost) in [("JT", CostKind::Jt), ("GAC", CostKind::Gac)] {
            let config = PipelineConfig {
                beta: 0.2,
                model: ModelKind::Ols,
                cost,
                todam: TodamSpec { per_hour: 3, ..Default::default() },
                ..Default::default()
            };
            let engine = AccessEngine::new(city.clone(), config);
            let outcomes = engine.what_if(PoiCategory::School, &deltas).expect("valid scenarios");
            for ((scenario, _), o) in named.iter().zip(&outcomes) {
                let stats = o.labeled_stats.iter().flat_map(|s| {
                    [
                        s.mac.to_bits(),
                        s.acsd.to_bits(),
                        u64::from(s.n_trips),
                        s.walk_only_frac.to_bits(),
                    ]
                });
                let predicted = o
                    .predicted
                    .iter()
                    .flat_map(|m| [u64::from(m.zone.0), m.mac.to_bits(), m.acsd.to_bits()]);
                let digest = fnv(FNV_OFFSET, stats.chain(predicted));
                out.push(format!(
                    "{name} School {cost_name} {scenario} L{} Z{} {digest:016x}",
                    o.labeled_stats.len(),
                    o.predicted.len()
                ));
            }
        }
    }
    out
}

#[test]
fn what_if_matches_the_parent_written_fixture() {
    let want: Vec<&str> =
        include_str!("what_if_golden.txt").lines().filter(|l| !l.starts_with('#')).collect();
    let got = golden_lines();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}
