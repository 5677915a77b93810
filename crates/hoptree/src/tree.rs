//! The transit-hop tree structure (paper Fig. 2B).

use serde::{Deserialize, Serialize};
use staq_synth::ZoneId;

/// Hop direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Foot leg first, then a ride away from the root zone.
    Outbound,
    /// A ride toward the root zone, foot leg last.
    Inbound,
}

/// A leaf: one zone reachable in a single transit hop, with connectivity
/// data ("route frequency and average journey time").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Leaf {
    pub zone: ZoneId,
    /// Number of departures making this hop within the interval — the
    /// paper's per-leaf counter, a frequency measure.
    pub count: u32,
    /// Sum of observed in-vehicle journey times (seconds) — the paper's
    /// per-leaf journey-time list, folded to (sum, min) because only the
    /// average and best are consumed downstream.
    jt_sum: f64,
    /// Fastest observed in-vehicle time, seconds.
    pub jt_min: f64,
}

impl Leaf {
    /// Average observed in-vehicle journey time, seconds.
    #[inline]
    pub fn jt_avg(&self) -> f64 {
        self.jt_sum / self.count.max(1) as f64
    }
}

/// A transit-hop tree: one [`Leaf`] per zone reachable from (outbound) or
/// reaching (inbound) its root zone, which the store indexes it by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopTree {
    /// Leaves sorted by zone id (binary-searchable).
    leaves: Vec<Leaf>,
}

impl HopTree {
    /// Builds from an *unsorted* accumulation map of `(zone, count, jt_sum,
    /// jt_min)`.
    pub(crate) fn from_accum(mut accum: Vec<(ZoneId, u32, f64, f64)>) -> Self {
        accum.sort_unstable_by_key(|e| e.0);
        let leaves = accum
            .into_iter()
            .map(|(zone, count, jt_sum, jt_min)| Leaf { zone, count, jt_sum, jt_min })
            .collect();
        HopTree { leaves }
    }

    /// All leaves, ascending by zone id.
    #[inline]
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// Number of distinct reachable zones.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// True when `zone` is reachable in one hop.
    #[inline]
    pub fn reaches(&self, zone: ZoneId) -> bool {
        self.leaves.binary_search_by_key(&zone, |l| l.zone).is_ok()
    }

    /// Leaves with `count` at least the `q`-quantile count — the
    /// "high-frequency routes" the feature extractor inspects.
    pub fn high_frequency_leaves(&self, q: f64) -> Vec<&Leaf> {
        if self.leaves.is_empty() {
            return Vec::new();
        }
        let mut counts: Vec<u32> = self.leaves.iter().map(|l| l.count).collect();
        counts.sort_unstable();
        let idx = ((counts.len() - 1) as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
        let threshold = counts[idx];
        self.leaves.iter().filter(|l| l.count >= threshold).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> HopTree {
        HopTree::from_accum(vec![
            (ZoneId(5), 4, 2400.0, 500.0),
            (ZoneId(2), 12, 7200.0, 550.0),
            (ZoneId(9), 1, 900.0, 900.0),
        ])
    }

    #[test]
    fn leaves_sorted_and_searchable() {
        let t = tree();
        assert_eq!(t.n_leaves(), 3);
        let zones: Vec<u32> = t.leaves().iter().map(|l| l.zone.0).collect();
        assert_eq!(zones, vec![2, 5, 9]);
        assert!(t.reaches(ZoneId(5)));
        assert!(!t.reaches(ZoneId(7)));
    }

    #[test]
    fn leaf_connectivity_data() {
        let t = tree();
        let l = t.leaves().iter().find(|l| l.zone == ZoneId(2)).unwrap();
        assert_eq!(l.count, 12);
        assert!((l.jt_avg() - 600.0).abs() < 1e-12);
        assert_eq!(l.jt_min, 550.0);
    }

    #[test]
    fn high_frequency_selection() {
        let t = tree();
        // Counts are [1, 4, 12]; q = 0.8 ceils to the top count.
        let hf = t.high_frequency_leaves(0.8);
        assert_eq!(hf.len(), 1);
        assert_eq!(hf[0].zone, ZoneId(2));
        // q = 0 keeps everything.
        assert_eq!(t.high_frequency_leaves(0.0).len(), 3);
        // Mid quantile keeps the top two.
        assert_eq!(t.high_frequency_leaves(0.5).len(), 2);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = HopTree::from_accum(Vec::new());
        assert_eq!(t.n_leaves(), 0);
        assert!(!t.reaches(ZoneId(0)));
        assert!(t.high_frequency_leaves(0.5).is_empty());
    }
}
