//! Zone-level access measures (paper §III-D).

use serde::{Deserialize, Serialize};
use staq_synth::ZoneId;
use staq_todam::ZoneStats;

/// The labeled measures of one zone, ready for classification, fairness
/// analysis and mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneMeasures {
    pub zone: ZoneId,
    /// Mean access cost (Eq. 2), minutes (JT) or generalized minutes (GAC).
    pub mac: f64,
    /// Access-cost standard deviation.
    pub acsd: f64,
}

impl ZoneMeasures {
    /// From a labeling result.
    fn from_stats(zone: ZoneId, stats: &ZoneStats) -> Self {
        ZoneMeasures { zone, mac: stats.mac, acsd: stats.acsd }
    }

    /// Collects measures from a full labeling pass, skipping unlabeled
    /// zones.
    pub fn collect(stats: &[Option<ZoneStats>]) -> Vec<ZoneMeasures> {
        stats
            .iter()
            .enumerate()
            .filter_map(|(z, s)| s.as_ref().map(|s| ZoneMeasures::from_stats(ZoneId(z as u32), s)))
            .collect()
    }
}

/// Mean over zones of a measure column; the city-level summary used in
/// reports.
pub fn city_mean(measures: &[ZoneMeasures], f: impl Fn(&ZoneMeasures) -> f64) -> f64 {
    if measures.is_empty() {
        return 0.0;
    }
    measures.iter().map(f).sum::<f64>() / measures.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(mac: f64, acsd: f64) -> ZoneStats {
        ZoneStats { mac, acsd, n_trips: 5, walk_only_frac: 0.0 }
    }

    #[test]
    fn collect_skips_unlabeled() {
        let got = ZoneMeasures::collect(&[Some(stats(10.0, 1.0)), None, Some(stats(20.0, 2.0))]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].zone, ZoneId(0));
        assert_eq!(got[1].zone, ZoneId(2));
        assert_eq!(got[1].mac, 20.0);
    }

    #[test]
    fn city_mean_of_columns() {
        let ms = ZoneMeasures::collect(&[Some(stats(10.0, 1.0)), Some(stats(30.0, 3.0))]);
        assert_eq!(city_mean(&ms, |m| m.mac), 20.0);
        assert_eq!(city_mean(&ms, |m| m.acsd), 2.0);
        assert_eq!(city_mean(&[], |m| m.mac), 0.0);
    }
}
