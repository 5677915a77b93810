//! Distributional sanity of the synthetic city across seeds: the generator
//! must reliably produce the structures the pipeline's assumptions rest on.

use staq_gtfs::time::TimeInterval;
use staq_synth::{City, CityConfig, PoiCategory};

#[test]
fn every_seed_yields_a_serviceable_city() {
    for seed in [3u64, 47, 1001] {
        let city = City::generate(&CityConfig::small(seed));
        // Transit coverage: a large majority of zones are within 800m of a
        // stop (the paper's walkability precondition).
        let stops: Vec<_> = city.feed.stop_points();
        let covered = city
            .zones
            .iter()
            .filter(|z| stops.iter().any(|(p, _)| p.dist(&z.centroid) < 800.0))
            .count();
        // A 120-zone city with 8 routes leaves some periphery uncovered by
        // design (those zones are the access deserts the queries hunt for);
        // a solid majority must still be served.
        assert!(
            covered * 10 >= city.n_zones() * 7,
            "seed {seed}: only {covered}/{} zones near a stop",
            city.n_zones()
        );
        // AM peak service exists at a good share of stops.
        let am = TimeInterval::am_peak();
        let mut active: Vec<_> = (city.feed.feed().stop_times.iter())
            .filter(|c| am.contains(c.departure) && city.feed.trip_runs_on(c.trip, am.day))
            .map(|c| c.stop)
            .collect();
        active.sort_unstable();
        active.dedup();
        let active = active.len();
        assert!(
            active * 10 >= city.feed.n_stops() * 9,
            "seed {seed}: {active}/{} stops active in AM peak",
            city.feed.n_stops()
        );
    }
}

#[test]
fn poi_density_follows_population() {
    // Aggregated over seeds: zones in the top population quartile should
    // host disproportionately many schools.
    let mut top_quartile_share = 0.0;
    let seeds = [5u64, 6, 7];
    for &seed in &seeds {
        let city = City::generate(&CityConfig::small(seed));
        let mut pops: Vec<f64> = city.zones.iter().map(|z| z.population).collect();
        pops.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let cut = pops[city.n_zones() / 4];
        let schools = city.pois_of(PoiCategory::School);
        let in_top = schools.iter().filter(|p| city.zones[p.zone.idx()].population >= cut).count();
        top_quartile_share += in_top as f64 / schools.len() as f64;
    }
    top_quartile_share /= seeds.len() as f64;
    assert!(
        top_quartile_share > 0.35,
        "top population quartile hosts only {:.0}% of schools",
        top_quartile_share * 100.0
    );
}

#[test]
fn demographics_gradient_points_outward() {
    let city = City::generate(&CityConfig::small(9));
    let center = city.cores[0];
    let half = city.config.side_m * 0.25;
    let (mut inner, mut outer) = (Vec::new(), Vec::new());
    for z in &city.zones {
        if z.centroid.dist(&center) < half {
            inner.push(z.demographics.pct_unemployed);
        } else {
            outer.push(z.demographics.pct_unemployed);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&outer) > mean(&inner),
        "unemployment should rise toward the periphery: inner {:.3} outer {:.3}",
        mean(&inner),
        mean(&outer)
    );
}

#[test]
fn scaling_preserves_densities() {
    let full = CityConfig::birmingham(1);
    let scaled = full.scaled(0.04);
    let d_full = full.n_zones as f64 / (full.side_m * full.side_m);
    let d_scaled = scaled.n_zones as f64 / (scaled.side_m * scaled.side_m);
    assert!(
        (d_full - d_scaled).abs() / d_full < 0.05,
        "zone density drifted: {d_full:e} vs {d_scaled:e}"
    );
}
