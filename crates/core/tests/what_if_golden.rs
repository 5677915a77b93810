//! What-if scenarios, held two ways.
//!
//! **Against committing them.** A scenario is the commit step run on a
//! copy of the world, so its outcome must equal, bit for bit, a fresh
//! engine that commits the same deltas and then measures: on the named
//! scenarios below for both cities under JT and GAC, and on random
//! sequences of overtaking delays, cancels, route removals, new routes
//! and alerts on `tiny(42)`, where the live engine has committed deltas
//! of its own first.
//!
//! **Against `what_if_golden.txt`.** The fixture was written at commit
//! 58cb6ce, where `AccessEngine::what_if` labeled each scenario over
//! `TransitNetwork::overlay` (patterns patched in place of a rebuilt
//! network), built in release, by the `golden_lines` below run in a
//! scratch clone of that commit (the writer is not committed). That
//! what-if reused the base's hop-tree features, an approximation, so the
//! 20 lines of the scenarios that change a hop tree (`cancel`,
//! `remove_route`, `add_route`, `add_route_then_edit_it`, `mix`) were
//! rewritten when the approximation went, from the exact answers the
//! first test holds. The 16 `empty`, `delay`, `overtaking_delay` and
//! `delay_twice` lines change no tree and are 58cb6ce's own.
//!
//! One line per (city, cost, scenario): an FNV-1a-64 digest over
//! little-endian `to_bits()` words of the scenario's `labeled_stats`
//! (MAC, ACSD, trip count, walk-only share per labeled zone) followed by
//! its `predicted` measures (zone id, MAC, ACSD per zone).
//!
//! The task is the benchmark's `cold_dense` one: School under OLS at β 0.2
//! with 3 starts/h. Cities: the benchmark city (`coventry(42).scaled(0.18)`)
//! and `small(42)`; costs JT and GAC.

use proptest::prelude::*;
use staq_access::ZoneMeasures;
use staq_core::{AccessEngine, PipelineConfig};
use staq_geom::Point;
use staq_gtfs::{Delta, FeedIndex, RouteId, Stime, TripId};
use staq_ml::ModelKind;
use staq_synth::{City, CityConfig, PoiCategory};
use staq_todam::{TodamSpec, ZoneStats};
use staq_transit::CostKind;
use std::sync::OnceLock;

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

const COSTS: [(&str, CostKind); 2] = [("JT", CostKind::Jt), ("GAC", CostKind::Gac)];

fn config(cost: CostKind) -> PipelineConfig {
    PipelineConfig {
        beta: 0.2,
        model: ModelKind::Ols,
        cost,
        todam: TodamSpec { per_hour: 3, ..Default::default() },
        ..Default::default()
    }
}

/// An answer as the words the digest hashes: its labeled stats, then its
/// predicted measures, each field by its bits.
fn words(labeled_stats: &[ZoneStats], predicted: &[ZoneMeasures]) -> Vec<u64> {
    let stats = labeled_stats.iter().flat_map(|s| {
        [s.mac.to_bits(), s.acsd.to_bits(), u64::from(s.n_trips), s.walk_only_frac.to_bits()]
    });
    let measures =
        predicted.iter().flat_map(|m| [u64::from(m.zone.0), m.mac.to_bits(), m.acsd.to_bits()]);
    stats.chain(measures).collect()
}

/// What a fresh engine over `city` answers after committing `deltas`, as
/// [`words`]; `Err` with the first rejection.
fn committed(city: &City, cost: CostKind, deltas: &[Delta]) -> Result<Vec<u64>, String> {
    let engine = AccessEngine::new(city.clone(), config(cost));
    for delta in deltas {
        engine.apply_delta(delta)?;
    }
    let result = engine.measures(PoiCategory::School);
    Ok(words(&result.labeled_stats, &result.predicted))
}

/// One asked scenario: its fixture label, deltas, city and cost, and the
/// what-if answer as [`words`] with its L and Z sizes.
struct Asked {
    label: String,
    deltas: Vec<Delta>,
    city: &'static City,
    cost: CostKind,
    answer: Vec<u64>,
    sizes: (usize, usize),
}

/// Every named scenario asked of both cities under both costs, one
/// `what_if` call per (city, cost), computed once per test binary.
fn asked() -> &'static [Asked] {
    static ASKED: OnceLock<Vec<Asked>> = OnceLock::new();
    static CITIES: OnceLock<[City; 2]> = OnceLock::new();
    ASKED.get_or_init(|| {
        let cities = CITIES.get_or_init(|| {
            [CityConfig::coventry(42).scaled(0.18), CityConfig::small(42)]
                .map(|c| City::generate(&c))
        });
        let mut out = Vec::new();
        for (name, city) in ["bench", "small"].into_iter().zip(cities) {
            let named = scenarios(city);
            let deltas: Vec<Vec<Delta>> = named.iter().map(|(_, d)| d.clone()).collect();
            for (cost_name, cost) in COSTS {
                let engine = AccessEngine::new(city.clone(), config(cost));
                let outcomes = engine.what_if(PoiCategory::School, &deltas).expect("valid");
                for ((scenario, deltas), o) in named.iter().zip(outcomes) {
                    out.push(Asked {
                        label: format!("{name} School {cost_name} {scenario}"),
                        deltas: deltas.clone(),
                        city,
                        cost,
                        answer: words(&o.labeled_stats, &o.predicted),
                        sizes: (o.labeled_stats.len(), o.predicted.len()),
                    });
                }
            }
        }
        out
    })
}

#[test]
fn every_what_if_answer_equals_committing_it() {
    for a in asked() {
        let want = committed(a.city, a.cost, &a.deltas).expect("valid scenario");
        assert!(a.answer == want, "{}: the what-if answer differs from committing it", a.label);
    }
}

#[test]
fn what_if_matches_the_fixture() {
    let want: Vec<&str> =
        include_str!("what_if_golden.txt").lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<String> = asked()
        .iter()
        .map(|a| {
            let digest = fnv(FNV_OFFSET, a.answer.iter().copied());
            format!("{} L{} Z{} {digest:016x}", a.label, a.sizes.0, a.sizes.1)
        })
        .collect();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}

fn tiny_city() -> &'static City {
    static CITY: OnceLock<City> = OnceLock::new();
    CITY.get_or_init(|| City::generate(&CityConfig::tiny(42)))
}

/// One drawn delta: `(kind, pick, secs, (fx, fy))`.
type Draw = (u8, usize, u32, (f64, f64));

/// One delta on `city` from a [`Draw`]: a delay of up to 90 min (long
/// enough to overtake), a cancel, a route removal, an alert or a two-stop
/// route across the city; delays are drawn three times as often. Once
/// `added` (an earlier delta of the sequence added a route), trips and
/// routes are also drawn among the first 60 ids past the base feed's.
fn delta(city: &City, added: bool, (kind, pick, secs, (fx, fy)): Draw) -> Delta {
    let feed = city.feed.feed();
    let extra = if added { 60 } else { 0 };
    let trip = TripId((pick % (feed.trips.len() + extra)) as u32);
    let route = RouteId((pick % (feed.routes.len() + usize::from(added))) as u32);
    let side = city.config.side_m;
    match kind {
        0..=2 => Delta::TripDelay { trip, delay_secs: secs },
        3 => Delta::TripCancel { trip },
        4 => Delta::RouteRemove { route },
        5 => Delta::ServiceAlert { route, message: "advisory".into() },
        _ => Delta::AddRoute {
            stops: vec![Point::new(fx * side, fy * side), Point::new((1.0 - fy) * side, fx * side)],
            headway_s: 600 + secs,
        },
    }
}

/// The deltas of `draws`, each drawn knowing whether one before it in
/// `added`'s sequence added a route.
fn lower(city: &City, added: &mut bool, draws: Vec<Draw>) -> Vec<Delta> {
    let lowered = draws.into_iter().map(|d| {
        let delta = delta(city, *added, d);
        *added |= matches!(delta, Delta::AddRoute { .. });
        delta
    });
    lowered.collect()
}

fn draws(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Draw>> {
    proptest::collection::vec((0u8..7, 0usize..1000, 0u32..5400, (0.0f64..1.0, 0.0f64..1.0)), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A live engine commits `history` (measuring after each delta, so it
    /// holds retired results from older worlds), then asks two scenarios
    /// under JT and GAC. Each what-if answer, or its rejection, equals a
    /// fresh engine that commits `history` and the scenario.
    #[test]
    fn random_scenarios_equal_committing_them(
        history in draws(0..3),
        first in draws(1..6),
        second in draws(1..6),
    ) {
        let city = tiny_city();
        let mut added = false;
        let history = lower(city, &mut added, history);
        let scenarios: Vec<Vec<Delta>> =
            [first, second].map(|s| lower(city, &mut { added }, s)).into();
        for (_, cost) in COSTS {
            let live = AccessEngine::new(city.clone(), config(cost));
            let mut committed_history = Vec::new();
            for d in &history {
                if live.apply_delta(d).is_ok() {
                    live.measures(PoiCategory::School);
                    committed_history.push(d.clone());
                }
            }
            let wants: Vec<Result<Vec<u64>, String>> = scenarios
                .iter()
                .map(|s| committed(city, cost, &[&committed_history[..], s].concat()))
                .collect();
            match live.what_if(PoiCategory::School, &scenarios) {
                Ok(outcomes) => {
                    for ((o, want), s) in outcomes.iter().zip(&wants).zip(&scenarios) {
                        let got = words(&o.labeled_stats, &o.predicted);
                        prop_assert!(Ok(got) == *want, "{:?} scenario {:?}", cost, s);
                    }
                }
                // The call fails with the first rejected scenario's error.
                Err(e) => {
                    let first = wants.iter().find_map(|w| w.as_ref().err());
                    prop_assert_eq!(first, Some(&e), "{:?}", cost);
                }
            }
        }
    }
}
