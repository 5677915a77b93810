//! Dynamic scenario: find an access desert, run a new bus route through it,
//! and re-answer the access query — the "introducing new bus stops to avoid
//! access deserts" policy test from the paper's introduction.
//!
//! Demonstrates the *incremental* recompute path: only zones whose walking
//! isochrone touches the new route get their transit-hop trees rebuilt.
//!
//! ```text
//! cargo run --release --example dynamic_bus_route
//! ```

use staq_repro::gtfs::Delta;
use staq_repro::prelude::*;

fn main() {
    let city = City::generate(&CityConfig::small(42));
    let spec = TodamSpec::default();

    // Ground-truth hospital access before the intervention.
    let before = NaiveResult::compute(&city, &spec, PoiCategory::Hospital, CostKind::Jt);
    let worst = *before.measures.iter().max_by(|a, b| a.mac.partial_cmp(&b.mac).unwrap()).unwrap();
    println!(
        "access desert: zone {} with mean journey time {:.1} min (city mean {:.1})",
        worst.zone.0,
        worst.mac,
        mean(&before)
    );

    // A what-if route: desert -> midpoint -> city center (where the
    // hospitals cluster), every 10 minutes.
    let engine = AccessEngine::new(
        city,
        PipelineConfig {
            beta: 0.15,
            model: ModelKind::Mlp,
            cost: CostKind::Jt,
            todam: spec.clone(),
            ..Default::default()
        },
    );
    let a = engine.city().zone_centroid(worst.zone);
    let b = engine.city().cores[0];
    let stops = vec![a, a.lerp(&b, 0.25), a.midpoint(&b), a.lerp(&b, 0.75), b];
    let rebuilt = engine
        .apply_delta(&Delta::AddRoute { stops, headway_s: 600 })
        .expect("a five-stop route applies")
        .zones_rebuilt;
    println!(
        "added a 5-stop route to the center (10 min headway); {} zone hop-trees rebuilt incrementally",
        rebuilt
    );

    // Ground truth after: the desert zone must improve.
    let after = NaiveResult::compute(&engine.city(), &spec, PoiCategory::Hospital, CostKind::Jt);
    let worst_after = after.measures.iter().find(|m| m.zone == worst.zone).unwrap();
    println!(
        "zone {}: {:.1} -> {:.1} min ({:+.1})",
        worst.zone.0,
        worst.mac,
        worst_after.mac,
        worst_after.mac - worst.mac
    );
    println!("city mean: {:.1} -> {:.1} min", mean(&before), mean(&after));

    // And the SSR engine answers the updated query without a full recompute.
    match engine.query(&AccessQuery::MeanAccess, PoiCategory::Hospital) {
        QueryAnswer::MeanAccess { mean_mac, .. } => {
            println!("SSR-estimated city mean after the edit: {mean_mac:.1} min")
        }
        other => unreachable!("{other:?}"),
    }
}

fn mean(r: &NaiveResult) -> f64 {
    r.measures.iter().map(|m| m.mac).sum::<f64>() / r.measures.len() as f64
}
