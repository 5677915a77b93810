//! Determinism under concurrency: interleaved queries and scenario edits
//! from many threads leave the shared engine in a state whose answers are
//! bit-identical to a serial replay of the same edits.
//!
//! The invariant that makes this checkable: SSR results for a category
//! depend on the city's *per-category* POI list (positions, in insertion
//! order) and the transit schedule — not on global POI ids or on how
//! edits to *other* categories interleave. Each category gets exactly one
//! editor thread, so every category's edit subsequence is deterministic
//! even though the global interleaving is not.
//!
//! Two more properties of the shared engine: a cold run that panics does
//! not wedge its category, and every answer read while deltas land
//! describes exactly one of the worlds the engine passed through.

use staq_repro::gtfs::model::TripId;
use staq_repro::gtfs::time::{DayOfWeek, Stime};
use staq_repro::gtfs::Delta;
use staq_repro::prelude::*;
use staq_repro::synth::PoiId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

fn config() -> PipelineConfig {
    PipelineConfig {
        beta: 0.25,
        model: ModelKind::Ols,
        todam: TodamSpec { per_hour: 3, ..Default::default() },
        ..Default::default()
    }
}

/// Deterministic edit positions for category `ci`, edit `k`.
fn poi_pos(side: f64, ci: usize, k: usize) -> staq_repro::geom::Point {
    staq_repro::geom::Point::new(
        side * (0.15 + 0.17 * ci as f64 + 0.03 * k as f64),
        side * (0.75 - 0.13 * ci as f64 - 0.05 * k as f64),
    )
}

const EDITS_PER_CATEGORY: usize = 3;

#[test]
fn concurrent_edits_and_queries_match_serial_replay() {
    let city = City::generate(&CityConfig::small(42));
    let side = city.config.side_m;
    let concurrent = Arc::new(AccessEngine::new(city, config()));

    // 8 threads: one editor per category (4) interleaving edits with
    // reads, plus 4 pure readers hammering queries the whole time.
    crossbeam::scope(|scope| {
        for (ci, cat) in PoiCategory::ALL.into_iter().enumerate() {
            let e = Arc::clone(&concurrent);
            scope.spawn(move |_| {
                for k in 0..EDITS_PER_CATEGORY {
                    let _ = e.measures(cat); // make sure edits hit warm caches too
                    e.add_poi(cat, poi_pos(side, ci, k));
                    let _ = e.query(&AccessQuery::MeanAccess, cat);
                }
            });
        }
        for r in 0..4 {
            let e = Arc::clone(&concurrent);
            scope.spawn(move |_| {
                let cat = PoiCategory::ALL[r % 4];
                for _ in 0..5 {
                    match e.query(&AccessQuery::WorstZones { k: 5 }, cat) {
                        QueryAnswer::WorstZones(zs) => assert!(!zs.is_empty()),
                        other => panic!("{other:?}"),
                    }
                }
            });
        }
    })
    .unwrap();

    // Serial replay: same city, same config, same per-category edit
    // sequences, no concurrency.
    let serial = AccessEngine::new(City::generate(&CityConfig::small(42)), config());
    for (ci, cat) in PoiCategory::ALL.into_iter().enumerate() {
        for k in 0..EDITS_PER_CATEGORY {
            serial.add_poi(cat, poi_pos(side, ci, k));
        }
    }

    for cat in PoiCategory::ALL {
        let got = concurrent.measures(cat);
        let want = serial.measures(cat);
        assert_eq!(got.predicted.len(), want.predicted.len(), "{cat:?}");
        for (g, w) in got.predicted.iter().zip(want.predicted.iter()) {
            assert_eq!(g.zone, w.zone, "{cat:?}");
            assert_eq!(
                g.mac.to_bits(),
                w.mac.to_bits(),
                "{cat:?} zone {:?}: mac {} vs {}",
                g.zone,
                g.mac,
                w.mac
            );
            assert_eq!(
                g.acsd.to_bits(),
                w.acsd.to_bits(),
                "{cat:?} zone {:?}: acsd {} vs {}",
                g.zone,
                g.acsd,
                w.acsd
            );
        }
    }

    // Both engines saw the same edits.
    assert_eq!(
        concurrent.city().pois.len(),
        serial.city().pois.len(),
        "same number of POIs after replay"
    );
}

#[test]
fn hammering_one_cold_category_from_many_threads_is_single_flight() {
    let engine = Arc::new(AccessEngine::new(City::generate(&CityConfig::small(7)), config()));
    crossbeam::scope(|scope| {
        for _ in 0..12 {
            let e = Arc::clone(&engine);
            scope.spawn(move |_| {
                let _ = e.measures(PoiCategory::JobCenter);
            });
        }
    })
    .unwrap();
    assert_eq!(engine.pipeline_runs(), 1, "12 concurrent cold reads, one pipeline run");
}

/// Reads `category`'s measures on a new thread and joins it. Fails the
/// test if the read has neither returned nor panicked within 30 s.
fn read_within_30s(
    engine: &Arc<AccessEngine>,
    category: PoiCategory,
) -> std::thread::Result<usize> {
    let (done_tx, done) = mpsc::channel::<()>();
    let e = Arc::clone(engine);
    let reader = std::thread::spawn(move || {
        let _done = done_tx; // dropped when the read returns or unwinds
        e.measures(category).predicted.len()
    });
    match done.recv_timeout(Duration::from_secs(30)) {
        Err(RecvTimeoutError::Timeout) => panic!("a {category} read blocked for 30 s"),
        _ => reader.join(),
    }
}

#[test]
fn a_panicking_cold_run_does_not_wedge_its_category() {
    let mut city = City::generate(&CityConfig::small(42));
    city.pois.retain(|p| p.category != PoiCategory::Hospital);
    for (i, poi) in city.pois.iter_mut().enumerate() {
        poi.id = PoiId(i as u32);
    }
    let side = city.config.side_m;
    let engine = Arc::new(AccessEngine::new(city, config()));

    // With no Hospital POIs the TODAM build asserts, so the run panics.
    assert!(read_within_30s(&engine, PoiCategory::Hospital).is_err(), "no hospitals to reach");
    // The failed run left nothing behind to wait on: the next read runs
    // the pipeline again (and panics again) instead of blocking.
    assert!(read_within_30s(&engine, PoiCategory::Hospital).is_err(), "still no hospitals");

    for k in 0..EDITS_PER_CATEGORY {
        engine.add_poi(PoiCategory::Hospital, poi_pos(side, 1, k));
    }
    let zones = read_within_30s(&engine, PoiCategory::Hospital).expect("hospitals now exist");
    assert!(zones > 0);
    assert_eq!(engine.pipeline_runs(), 1, "only the last read finished a run");
}

/// `n` delays of distinct Tuesday trips that run wholly inside the
/// 07:00–09:00 AM peak and stay inside it when delayed.
fn in_interval_delays(city: &City, n: usize) -> Vec<Delta> {
    const DELAY_SECS: u32 = 120;
    let (start, end) = (Stime::hours(7), Stime::hours(9));
    let feed = &city.feed;
    let delays: Vec<Delta> = (0..feed.feed().trips.len() as u32)
        .map(TripId)
        .filter(|&t| feed.trip_runs_on(t, DayOfWeek::Tuesday))
        .filter(|&t| {
            let calls = feed.trip_calls(t);
            calls.first().is_some_and(|c| c.departure >= start)
                && calls.last().is_some_and(|c| c.departure.0 + DELAY_SECS + 60 < end.0)
        })
        .take(n)
        .map(|trip| Delta::TripDelay { trip, delay_secs: DELAY_SECS })
        .collect();
    assert_eq!(delays.len(), n, "not enough AM-peak trips");
    delays
}

/// Calls `read` until `edited` is set, then once more, so the last world
/// is read too.
fn read_until<T>(edited: &AtomicBool, read: impl Fn() -> T) -> Vec<T> {
    let mut seen = Vec::new();
    loop {
        let last = edited.load(Ordering::SeqCst);
        seen.push(read());
        if last {
            return seen;
        }
    }
}

#[test]
fn every_answer_comes_from_exactly_one_world() {
    let city = City::generate(&CityConfig::small(42));
    let mut deltas = in_interval_delays(&city, 5);
    // The what-if cancels one more in-interval trip, which no delta moves.
    let Some(Delta::TripDelay { trip, .. }) = deltas.pop() else { unreachable!() };
    let cancel = vec![Delta::TripCancel { trip }];
    let (cat, q) = (PoiCategory::School, AccessQuery::MeanAccess);

    // What each world the live engine passes through answers: a fresh
    // engine on every prefix of the deltas, and one that also commits the
    // cancel.
    let committed = |deltas: &[Delta]| {
        let e = AccessEngine::new(city.clone(), config());
        for d in deltas {
            e.apply_delta(d).expect("delta applies");
        }
        e
    };
    let worlds: Vec<(Vec<ZoneMeasures>, Vec<ZoneMeasures>, QueryAnswer)> = (0..=deltas.len())
        .map(|k| {
            let (e, cancelled) =
                (committed(&deltas[..k]), committed(&[&deltas[..k], &cancel[..]].concat()));
            let predicted = e.measures(cat).predicted.clone();
            (predicted, cancelled.measures(cat).predicted.clone(), e.query(&q, cat))
        })
        .collect();
    assert!(worlds.windows(2).any(|w| w[0].2 != w[1].2), "the deltas must move the answer");
    assert!(worlds.iter().all(|w| w.0 != w.1), "the cancel must move the measures");

    let live = AccessEngine::new(city, config());
    let edited = AtomicBool::new(false);
    let (predicted, answers) = std::thread::scope(|s| {
        s.spawn(|| {
            for d in &deltas {
                std::thread::sleep(Duration::from_millis(10));
                live.apply_delta(d).expect("delay applies");
            }
            edited.store(true, Ordering::SeqCst);
        });
        let what_ifs = s.spawn(|| {
            // Both scenarios answer from one snapshot: the empty one is
            // that world, the other is that world with the cancel committed.
            read_until(&edited, || {
                let mut out = live.what_if(cat, &[vec![], cancel.clone()]).expect("what-if");
                let cancelled = out.pop().expect("two outcomes").predicted;
                (out.pop().expect("two outcomes").predicted, cancelled)
            })
        });
        let queries = s.spawn(|| read_until(&edited, || live.query(&q, cat)));
        (what_ifs.join().unwrap(), queries.join().unwrap())
    });

    for (i, (p, c)) in predicted.iter().enumerate() {
        assert!(
            worlds.iter().any(|(w, wc, _)| w == p && wc == c),
            "what-if read {i} matches no single world with and without the cancel"
        );
    }
    for (i, a) in answers.iter().enumerate() {
        assert!(
            worlds.iter().any(|(_, _, w)| w == a),
            "query read {i} matches no single world: {a:?}"
        );
    }
    let last = predicted.last().expect("one what-if read");
    assert_eq!(last.0, worlds[deltas.len()].0, "the last read sees every delta");
    // Every cancel scenario is one solve of its own; the rest are the
    // live engine's.
    let runs = live.pipeline_runs() as usize;
    let runs = runs.checked_sub(predicted.len()).expect("one solve per cancel scenario");
    assert!(runs <= deltas.len() + 1, "{runs} pipeline runs over {} worlds", deltas.len() + 1);
    assert!(runs <= predicted.len() + answers.len(), "more runs than reads");
}
