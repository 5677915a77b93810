//! A what-if scenario whose relabeled targets equal the base's bit for bit
//! takes the base fit instead of retraining, and one that changes no call
//! row takes the base result and runs no solve. One test in this binary:
//! `pipeline.fits_reused` is process-global, so no other test may move it
//! while this one reads it.

use staq_core::{AccessEngine, PipelineConfig};
use staq_gtfs::{Delta, TripId};
use staq_ml::ModelKind;
use staq_synth::{City, CityConfig, PoiCategory};
use staq_todam::TodamSpec;

fn fits_reused() -> u64 {
    staq_obs::snapshot().counter("pipeline.fits_reused").unwrap_or(0)
}

#[test]
fn scenarios_that_move_no_label_run_no_fit() {
    let city = City::generate(&CityConfig::small(42));
    let config = PipelineConfig {
        beta: 0.25,
        model: ModelKind::Mlp,
        todam: TodamSpec { per_hour: 3, ..Default::default() },
        ..Default::default()
    };
    let interval = config.todam.interval.clone();
    let feed = &city.feed;
    let calls = |t: TripId| feed.trip_calls(t);
    let trips =
        || (0..feed.feed().trips.len() as u32).map(TripId).filter(|&t| !calls(t).is_empty());
    // A trip of the interval's day that leaves three hours after it ends:
    // no journey starting inside it can board that trip in time to gain.
    let late = trips()
        .find(|&t| {
            feed.trip_runs_on(t, interval.day)
                && calls(t)[0].departure >= interval.end.plus(3 * 3600)
        })
        .expect("an afternoon trip");
    // Control: the in-interval trip with the most calls, cancelled.
    let busy = trips()
        .filter(|&t| feed.trip_runs_on(t, interval.day))
        .filter(|&t| (interval.start..interval.end).contains(&calls(t)[0].departure))
        .max_by_key(|&t| calls(t).len())
        .expect("an in-interval trip");
    let scenarios = [
        vec![],
        vec![Delta::TripDelay { trip: late, delay_secs: 300 }],
        vec![Delta::TripCancel { trip: busy }],
    ];

    let engine = AccessEngine::new(city.clone(), config);
    let base = engine.measures(PoiCategory::School);
    let (runs, before) = (engine.pipeline_runs(), fits_reused());
    let empty = engine.what_if(PoiCategory::School, &scenarios[..1]).expect("empty scenario");
    assert_eq!(engine.pipeline_runs(), runs, "the empty scenario runs no solve");
    assert_eq!(fits_reused(), before, "the empty scenario takes the base result, not a fit");
    let out = engine.what_if(PoiCategory::School, &scenarios).expect("valid scenarios");
    assert_eq!(engine.pipeline_runs() - runs, 2, "the delay and the cancel each run a solve");
    assert_eq!(fits_reused() - before, 1, "the late-delay scenario reuses the fit");
    assert_eq!(empty, out[..1], "the empty scenario answers alike alone and beside others");

    let bits = |m: &[staq_access::ZoneMeasures]| {
        m.iter().map(|m| (m.zone, m.mac.to_bits(), m.acsd.to_bits())).collect::<Vec<_>>()
    };
    for o in &out[..2] {
        assert_eq!(bits(&o.predicted), bits(&base.predicted));
    }
    assert_ne!(out[2].labeled_stats, base.labeled_stats, "the control must move a label");
}
