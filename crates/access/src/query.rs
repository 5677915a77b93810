//! Dynamic access queries — the analytical questions from the paper's
//! introduction, answered over a labeled measure set.
//!
//! 1. *"What is the average travel time to an important service, and how
//!    does this vary spatially and temporally?"* → [`AccessQuery::MeanAccess`]
//! 2. *"Considering the monetary cost and the inconvenience of transit,
//!    what is the overall accessibility?"* → the same query over GAC-labeled
//!    measures.
//! 3. *"Which geographic areas are most at risk?"* → [`AccessQuery::AtRisk`]
//! 4. *"Are the accessibility benefits fairly distributed?"* →
//!    [`AccessQuery::Fairness`]

use crate::classify::{classify_all, AccessClass};
use crate::fairness::{fairness_of, weighted_jain_index};
use crate::measures::{city_mean, ZoneMeasures};
use serde::{Deserialize, Serialize};
use staq_synth::ZoneId;

/// Demographic weighting for fairness queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DemographicWeight {
    /// Every zone counts once.
    Uniform,
    /// Weight by resident population.
    Population,
    /// Weight by unemployed residents (job-center equity).
    Unemployed,
    /// Weight by clinically vulnerable residents (vaccination equity).
    Vulnerable,
    /// Weight by children (school equity).
    Children,
}

/// An analytical access query over one labeled measure set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccessQuery {
    /// City summary: mean MAC and mean ACSD.
    MeanAccess,
    /// Per-zone accessibility classes.
    Classification,
    /// Zones whose MAC exceeds `threshold_factor` × the city mean — the
    /// "access deserts" a policy maker hunts for.
    AtRisk { threshold_factor: f64 },
    /// Jain fairness index over MAC, optionally demographically weighted.
    Fairness { weight: DemographicWeight },
    /// The `k` zones with the worst (highest) MAC.
    WorstZones { k: usize },
    /// Access measures at an arbitrary query point `(x, y)` (planar
    /// meters): the measures of the measured zone whose centroid is
    /// nearest, ties going to the first in `measures` order. Coordinates
    /// must be finite; the server rejects any that are not.
    PointAccess { x: f64, y: f64 },
}

/// A query result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryAnswer {
    MeanAccess {
        mean_mac: f64,
        mean_acsd: f64,
        n_zones: usize,
    },
    Classification(Vec<(ZoneId, AccessClass)>),
    AtRisk(Vec<ZoneId>),
    Fairness(f64),
    WorstZones(Vec<(ZoneId, f64)>),
    /// Measures at a query point, copied from `zone`, the nearest-centroid
    /// measured zone. `NaN` measures when no zone is measured.
    PointAccess {
        zone: ZoneId,
        mac: f64,
        acsd: f64,
    },
}

impl AccessQuery {
    /// Answers the query against `measures`. For demographic weights, the
    /// zone list supplies populations; zones absent from `measures`
    /// contribute nothing.
    pub fn answer(&self, measures: &[ZoneMeasures], zones: &[staq_synth::Zone]) -> QueryAnswer {
        match self {
            AccessQuery::MeanAccess => QueryAnswer::MeanAccess {
                mean_mac: city_mean(measures, |m| m.mac),
                mean_acsd: city_mean(measures, |m| m.acsd),
                n_zones: measures.len(),
            },
            AccessQuery::Classification => {
                QueryAnswer::Classification(classify_all(measures, None))
            }
            AccessQuery::AtRisk { threshold_factor } => {
                let mean = city_mean(measures, |m| m.mac);
                let cut = mean * threshold_factor;
                QueryAnswer::AtRisk(
                    measures.iter().filter(|m| m.mac > cut).map(|m| m.zone).collect(),
                )
            }
            AccessQuery::Fairness { weight } => {
                let j = match weight {
                    DemographicWeight::Uniform => fairness_of(measures),
                    other => {
                        let vals: Vec<f64> = measures.iter().map(|m| m.mac).collect();
                        let w: Vec<f64> = measures
                            .iter()
                            .map(|m| {
                                let z = &zones[m.zone.idx()];
                                match other {
                                    DemographicWeight::Population => z.population,
                                    DemographicWeight::Unemployed => {
                                        z.population * z.demographics.pct_unemployed
                                    }
                                    DemographicWeight::Vulnerable => {
                                        z.population * z.demographics.pct_vulnerable
                                    }
                                    DemographicWeight::Children => {
                                        z.population * z.demographics.pct_children
                                    }
                                    DemographicWeight::Uniform => unreachable!(),
                                }
                            })
                            .collect();
                        weighted_jain_index(&vals, &w)
                    }
                };
                QueryAnswer::Fairness(j)
            }
            AccessQuery::WorstZones { k } => {
                let mut ranked: Vec<(ZoneId, f64)> =
                    measures.iter().map(|m| (m.zone, m.mac)).collect();
                ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                ranked.truncate(*k);
                QueryAnswer::WorstZones(ranked)
            }
            AccessQuery::PointAccess { x, y } => {
                // Linear scan over measured zones; the strict `<` keeps the
                // first of equidistant centroids. No index: at the serving
                // cities' ~200 zones the scan is well under a microsecond.
                let mut best: Option<(f64, &ZoneMeasures)> = None;
                for m in measures {
                    let c = zones[m.zone.idx()].centroid;
                    let d2 = (c.x - x) * (c.x - x) + (c.y - y) * (c.y - y);
                    if best.is_none_or(|(bd, _)| d2 < bd) {
                        best = Some((d2, m));
                    }
                }
                match best {
                    Some((_, m)) => {
                        QueryAnswer::PointAccess { zone: m.zone, mac: m.mac, acsd: m.acsd }
                    }
                    None => QueryAnswer::PointAccess {
                        zone: ZoneId(u32::MAX),
                        mac: f64::NAN,
                        acsd: f64::NAN,
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_synth::{City, CityConfig};

    fn measures() -> Vec<ZoneMeasures> {
        vec![
            ZoneMeasures { zone: ZoneId(0), mac: 10.0, acsd: 1.0 },
            ZoneMeasures { zone: ZoneId(1), mac: 20.0, acsd: 2.0 },
            ZoneMeasures { zone: ZoneId(2), mac: 60.0, acsd: 3.0 },
        ]
    }

    fn zones() -> Vec<staq_synth::Zone> {
        City::generate(&CityConfig::tiny(1)).zones
    }

    #[test]
    fn mean_access_answer() {
        let a = AccessQuery::MeanAccess.answer(&measures(), &zones());
        match a {
            QueryAnswer::MeanAccess { mean_mac, mean_acsd, n_zones } => {
                assert!((mean_mac - 30.0).abs() < 1e-12);
                assert!((mean_acsd - 2.0).abs() < 1e-12);
                assert_eq!(n_zones, 3);
            }
            other => panic!("wrong answer kind {other:?}"),
        }
    }

    #[test]
    fn at_risk_finds_outliers() {
        let a = AccessQuery::AtRisk { threshold_factor: 1.5 }.answer(&measures(), &zones());
        match a {
            QueryAnswer::AtRisk(zs) => assert_eq!(zs, vec![ZoneId(2)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn worst_zones_ranked_descending() {
        let a = AccessQuery::WorstZones { k: 2 }.answer(&measures(), &zones());
        match a {
            QueryAnswer::WorstZones(zs) => {
                assert_eq!(zs.len(), 2);
                assert_eq!(zs[0].0, ZoneId(2));
                assert_eq!(zs[1].0, ZoneId(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fairness_weights_change_the_answer() {
        let zones = zones();
        let ms = vec![
            ZoneMeasures { zone: ZoneId(0), mac: 10.0, acsd: 0.0 },
            ZoneMeasures { zone: ZoneId(1), mac: 50.0, acsd: 0.0 },
        ];
        let uniform = match (AccessQuery::Fairness { weight: DemographicWeight::Uniform })
            .answer(&ms, &zones)
        {
            QueryAnswer::Fairness(j) => j,
            _ => unreachable!(),
        };
        let pop = match (AccessQuery::Fairness { weight: DemographicWeight::Population })
            .answer(&ms, &zones)
        {
            QueryAnswer::Fairness(j) => j,
            _ => unreachable!(),
        };
        assert!(uniform < 1.0);
        assert!(pop > 0.0 && pop <= 1.0);
        // Different zone populations make the two differ.
        assert!((uniform - pop).abs() > 1e-9 || zones[0].population == zones[1].population);
    }

    #[test]
    fn point_access_resolves_nearest_measured_zone() {
        let zones = zones();
        let near = zones[1].centroid;
        let a = AccessQuery::PointAccess { x: near.x + 1.0, y: near.y - 1.0 }
            .answer(&measures(), &zones);
        match a {
            QueryAnswer::PointAccess { zone, mac, acsd } => {
                assert_eq!(zone, ZoneId(1));
                assert_eq!(mac, 20.0);
                assert_eq!(acsd, 2.0);
            }
            other => panic!("{other:?}"),
        }
        // No measures: NaN sentinel, never a panic.
        match (AccessQuery::PointAccess { x: 0.0, y: 0.0 }).answer(&[], &zones) {
            QueryAnswer::PointAccess { mac, .. } => assert!(mac.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classification_answer_covers_all_zones() {
        let a = AccessQuery::Classification.answer(&measures(), &zones());
        match a {
            QueryAnswer::Classification(cs) => assert_eq!(cs.len(), 3),
            other => panic!("{other:?}"),
        }
    }
}
