//! Answer checks. An in-process reference engine — same city, same
//! pipeline config, never behind a socket — says what the fleet must
//! have answered; replies are compared as parsed JSON against the
//! gateway's documented shapes, number for number.

use crate::gen::Rng;
use staq_access::{AccessQuery, QueryAnswer, ZoneMeasures};
use staq_core::{AccessEngine, NaiveResult, PipelineConfig};
use staq_geom::Point;
use staq_gtfs::{DayOfWeek, Delta, Stime};
use staq_net::json::Json;
use staq_rt::RtEngine;
use staq_synth::{City, PoiCategory};
use staq_transit::{Journey, Leg};
use std::sync::Arc;

pub const PLAN_DEPART: Stime = Stime(28_800);
pub const PLAN_DAY: DayOfWeek = DayOfWeek::Tuesday;

/// The reference replica: replays the fleet's delta log in order.
pub struct Reference {
    rt: RtEngine,
    applied: usize,
}

impl Reference {
    pub fn new(city: &City, pipeline: &PipelineConfig) -> Self {
        let engine = AccessEngine::new(city.clone(), pipeline.clone());
        Reference { rt: RtEngine::new(Arc::new(engine)), applied: 0 }
    }

    pub fn engine(&self) -> &AccessEngine {
        self.rt.engine()
    }

    /// Applies `log[applied..n]`, so the reference stands where the fleet
    /// stood after its `n`-th delta.
    pub fn advance_to(&mut self, log: &[Delta], n: usize) {
        assert!(n >= self.applied && n <= log.len(), "reference only replays forward");
        for delta in &log[self.applied..n] {
            self.rt.apply(delta.clone()).expect("the fleet accepted this delta");
        }
        self.applied = n;
    }
}

fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// The gateway's rendering of a query answer.
pub fn answer_json(answer: &QueryAnswer) -> Json {
    match answer {
        QueryAnswer::MeanAccess { mean_mac, mean_acsd, n_zones } => Json::obj(vec![
            ("kind", Json::str("mean_access")),
            ("mean_mac", num(*mean_mac)),
            ("mean_acsd", num(*mean_acsd)),
            ("n_zones", num(*n_zones as f64)),
        ]),
        QueryAnswer::AtRisk(zones) => Json::obj(vec![
            ("kind", Json::str("at_risk")),
            ("zones", Json::Arr(zones.iter().map(|z| num(z.0 as f64)).collect())),
        ]),
        QueryAnswer::Fairness(score) => {
            Json::obj(vec![("kind", Json::str("fairness")), ("score", num(*score))])
        }
        QueryAnswer::WorstZones(zones) => Json::obj(vec![
            ("kind", Json::str("worst_zones")),
            (
                "zones",
                Json::Arr(
                    zones
                        .iter()
                        .map(|(z, mac)| {
                            Json::obj(vec![("zone", num(z.0 as f64)), ("mac", num(*mac))])
                        })
                        .collect(),
                ),
            ),
        ]),
        QueryAnswer::PointAccess { zone, mac, acsd } => Json::obj(vec![
            ("kind", Json::str("point_access")),
            ("zone", num(zone.0 as f64)),
            ("mac", num(*mac)),
            ("acsd", num(*acsd)),
        ]),
        QueryAnswer::Classification(_) => unreachable!("no workload sends classification"),
    }
}

pub fn measures_json(measures: &[ZoneMeasures]) -> Json {
    Json::Arr(
        measures
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("zone", num(m.zone.0 as f64)),
                    ("mac", num(m.mac)),
                    ("acsd", num(m.acsd)),
                ])
            })
            .collect(),
    )
}

fn leg_json(leg: &Leg) -> Json {
    match leg {
        Leg::Walk { secs, to_stop } => Json::obj(vec![
            ("kind", Json::str("walk")),
            ("secs", num(*secs as f64)),
            ("to_stop", to_stop.map_or(Json::Null, |s| num(s.0 as f64))),
        ]),
        Leg::Wait { secs, at_stop } => Json::obj(vec![
            ("kind", Json::str("wait")),
            ("secs", num(*secs as f64)),
            ("at_stop", num(at_stop.0 as f64)),
        ]),
        Leg::Ride { trip, route, from_stop, to_stop, board, alight } => Json::obj(vec![
            ("kind", Json::str("ride")),
            ("trip", num(trip.0 as f64)),
            ("route", num(route.0 as f64)),
            ("from_stop", num(from_stop.0 as f64)),
            ("to_stop", num(to_stop.0 as f64)),
            ("board", num(board.0 as f64)),
            ("alight", num(alight.0 as f64)),
        ]),
    }
}

pub fn plan_json(journeys: &[Journey]) -> Json {
    Json::obj(vec![(
        "journeys",
        Json::Arr(
            journeys
                .iter()
                .map(|j| {
                    Json::obj(vec![
                        ("depart", num(j.depart.0 as f64)),
                        ("arrive", num(j.arrive.0 as f64)),
                        ("legs", Json::Arr(j.legs.iter().map(leg_json).collect())),
                    ])
                })
                .collect(),
        ),
    )])
}

pub fn parse_body(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}

/// The query a gateway JSON body of [`crate::gen::AGGREGATE_KINDS`] means.
pub fn aggregate_query(kind_idx: usize) -> AccessQuery {
    match kind_idx {
        0 => AccessQuery::MeanAccess,
        1 => AccessQuery::WorstZones { k: 5 },
        2 => AccessQuery::Fairness { weight: staq_access::DemographicWeight::Uniform },
        3 => AccessQuery::AtRisk { threshold_factor: 1.0 },
        _ => unreachable!("four aggregate kinds"),
    }
}

/// Pulls `"mac":<number>` out of a point-access reply without building
/// a JSON tree (this runs inside the measured loop).
pub fn scan_mac(body: &[u8]) -> Option<f64> {
    let key = b"\"mac\":";
    let at = body.windows(key.len()).position(|w| w == key)? + key.len();
    let end = at + body[at..].iter().position(|&b| b == b',' || b == b'}')?;
    std::str::from_utf8(&body[at..end]).ok()?.parse().ok()
}

/// Structural validity of a plan reply under a moving timetable, where
/// no single reference state applies: every journey leaves at the asked
/// time, arrives no earlier, and has legs.
pub fn plan_is_sane(body: &[u8]) -> bool {
    let Some(json) = parse_body(body) else { return false };
    let Some(journeys) = json.get("journeys").and_then(Json::as_arr) else { return false };
    journeys.iter().all(|j| {
        let depart = j.get("depart").and_then(Json::as_f64);
        let arrive = j.get("arrive").and_then(Json::as_f64);
        let legs = j.get("legs").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        depart == Some(PLAN_DEPART.0 as f64) && arrive >= depart && legs > 0
    })
}

/// The 20 OD pairs every writing workload re-plans after its last delta.
pub fn fixed_plan_ods(centroids: &[Point]) -> Vec<(Point, Point)> {
    let mut rng = Rng::new(0x0F1E_D0D5);
    (0..20)
        .map(|_| {
            let o = rng.below(centroids.len());
            let d = (o + 1 + rng.below(centroids.len() - 1)) % centroids.len();
            (centroids[o], centroids[d])
        })
        .collect()
}

/// MAPE (%) of the served MAC on unlabeled zones against naive labeling
/// of every zone in the reference's current state.
pub fn mac_err_pct(reference: &Reference, category: PoiCategory) -> f64 {
    let served = reference.engine().measures(category);
    let cfg = reference.engine().config();
    let truth = NaiveResult::compute(&reference.engine().city(), &cfg.todam, category, cfg.cost);
    let mut errs = Vec::new();
    let mut t = truth.measures.iter().peekable();
    for p in served.predicted_unlabeled() {
        while t.peek().is_some_and(|m| m.zone < p.zone) {
            t.next();
        }
        if let Some(m) = t.peek().filter(|m| m.zone == p.zone && m.mac > 0.0) {
            errs.push((p.mac - m.mac).abs() / m.mac);
        }
    }
    assert!(!errs.is_empty(), "no unlabeled zone has a naive label");
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_scanner_reads_the_gateway_shape() {
        let body = br#"{"kind":"point_access","zone":12,"mac":1534.25,"acsd":88.5}"#;
        assert_eq!(scan_mac(body), Some(1534.25));
        assert_eq!(scan_mac(br#"{"mac":7}"#), Some(7.0));
        assert_eq!(scan_mac(br#"{"mac":null,"x":1}"#), None);
        assert_eq!(scan_mac(br#"{"error":"x"}"#), None);
    }

    #[test]
    fn plan_sanity_rejects_time_travel() {
        let ok = br#"{"journeys":[{"depart":28800,"arrive":29000,"legs":[{"kind":"walk","secs":200,"to_stop":null}]}]}"#;
        assert!(plan_is_sane(ok));
        let early = br#"{"journeys":[{"depart":28800,"arrive":100,"legs":[{"kind":"walk"}]}]}"#;
        assert!(!plan_is_sane(early));
        assert!(!plan_is_sane(br#"{"error":"nope"}"#));
    }
}
