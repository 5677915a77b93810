//! The compressed gravity matrix `M_g`.
//!
//! Trips are stored zone-sorted with a CSR-style offset array, because every
//! consumer (labeling, aggregation) iterates per zone. Alongside the trips,
//! the per-zone sparse attractiveness vectors are retained: the SSR feature
//! aggregation re-uses the same `α_ij` weights (§IV-C).

use serde::{Deserialize, Serialize};
use staq_gtfs::time::Stime;
use staq_synth::{PoiId, ZoneId};

/// One sampled trip: an entry of `M_g`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Trip {
    pub zone: ZoneId,
    /// Index into the matrix's POI list (not the global POI id).
    pub poi_idx: u32,
    pub start: Stime,
}

/// The gravity TODAM for one (city, POI category, interval).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Todam {
    /// POI ids covered by this matrix (one category), in column order.
    pub pois: Vec<PoiId>,
    /// Trips sorted by zone.
    trips: Vec<Trip>,
    /// `zone_offsets[z]..zone_offsets[z+1]` indexes `trips` of zone `z`.
    zone_offsets: Vec<u32>,
    /// Per zone, at the zone's offsets: the indices into its trip slice
    /// ordered by start time, ties by index ascending. Built once so
    /// labeling groups a zone's trips by start without sorting per pass.
    by_start: Vec<u32>,
    /// Sparse per-zone attractiveness: `(poi_idx, α_ij)` with `α_ij > 0`.
    alpha: Vec<Vec<(u32, f64)>>,
    /// Size of the *full* matrix `|Z| x |P| x |R|` this gravity matrix was
    /// thinned from (for Table I accounting).
    pub full_size: u64,
}

impl Todam {
    /// Assembles a matrix from per-zone trip lists (already zone-ordered).
    pub(crate) fn from_parts(
        pois: Vec<PoiId>,
        per_zone_trips: Vec<Vec<Trip>>,
        alpha: Vec<Vec<(u32, f64)>>,
        full_size: u64,
    ) -> Self {
        assert_eq!(per_zone_trips.len(), alpha.len());
        let n_trips = per_zone_trips.iter().map(Vec::len).sum();
        let mut trips = Vec::with_capacity(n_trips);
        let mut by_start = Vec::with_capacity(n_trips);
        let mut zone_offsets = Vec::with_capacity(per_zone_trips.len() + 1);
        zone_offsets.push(0u32);
        let mut keys: Vec<u64> = Vec::new();
        for (z, zone_trips) in per_zone_trips.into_iter().enumerate() {
            for t in &zone_trips {
                debug_assert_eq!(t.zone.idx(), z);
            }
            // (start, index) packed in one word: distinct keys, so the
            // unstable sort leaves trips sharing a start in index order.
            keys.clear();
            keys.extend(
                zone_trips.iter().enumerate().map(|(i, t)| (u64::from(t.start.0) << 32) | i as u64),
            );
            keys.sort_unstable();
            by_start.extend(keys.iter().map(|&k| k as u32));
            trips.extend(zone_trips);
            zone_offsets.push(trips.len() as u32);
        }
        Todam { pois, trips, zone_offsets, by_start, alpha, full_size }
    }

    /// Number of zones.
    #[inline]
    pub fn n_zones(&self) -> usize {
        self.zone_offsets.len() - 1
    }

    /// Total sampled trips `|M_g|`.
    #[inline]
    pub fn n_trips(&self) -> usize {
        self.trips.len()
    }

    /// Trips of zone `z`.
    #[inline]
    pub fn zone_trips(&self, z: ZoneId) -> &[Trip] {
        let lo = self.zone_offsets[z.idx()] as usize;
        let hi = self.zone_offsets[z.idx() + 1] as usize;
        &self.trips[lo..hi]
    }

    /// Trips of zone `z` grouped by start time: one slice of indices into
    /// [`Self::zone_trips`] per distinct start, starts ascending, indices
    /// ascending within a group.
    pub(crate) fn zone_start_groups(&self, z: ZoneId) -> impl Iterator<Item = &[u32]> {
        let lo = self.zone_offsets[z.idx()] as usize;
        let hi = self.zone_offsets[z.idx() + 1] as usize;
        let trips = &self.trips[lo..hi];
        self.by_start[lo..hi]
            .chunk_by(move |&a, &b| trips[a as usize].start == trips[b as usize].start)
    }

    /// All trips, zone-sorted.
    #[inline]
    pub fn trips(&self) -> &[Trip] {
        &self.trips
    }

    /// Sparse attractiveness vector of zone `z`: `(poi_idx, α_ij)` pairs.
    #[inline]
    pub fn zone_alpha(&self, z: ZoneId) -> &[(u32, f64)] {
        &self.alpha[z.idx()]
    }

    /// Percentage size reduction versus the full matrix (Table I's "% Red.").
    pub fn reduction_pct(&self) -> f64 {
        if self.full_size == 0 {
            return 0.0;
        }
        (1.0 - self.n_trips() as f64 / self.full_size as f64) * 100.0
    }

    /// Structural invariants (tests and debug assertions).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.zone_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("zone offsets must be non-decreasing".into());
        }
        if *self.zone_offsets.last().unwrap() as usize != self.trips.len() {
            return Err("last offset must equal trip count".into());
        }
        for z in 0..self.n_zones() {
            for t in self.zone_trips(ZoneId(z as u32)) {
                if t.zone.idx() != z {
                    return Err(format!("trip filed under wrong zone {z}"));
                }
                if t.poi_idx as usize >= self.pois.len() {
                    return Err("trip references out-of-range poi".into());
                }
            }
            let trips = self.zone_trips(ZoneId(z as u32));
            let lo = self.zone_offsets[z] as usize;
            let order = &self.by_start[lo..lo + trips.len()];
            let key = |i: u32| (trips[i as usize].start, i);
            if order.iter().any(|&i| i as usize >= trips.len())
                || order.windows(2).any(|w| key(w[0]) >= key(w[1]))
            {
                return Err(format!("zone {z} start order is not a sorted permutation"));
            }
            let sum: f64 = self.alpha[z].iter().map(|&(_, a)| a).sum();
            if !(0.0..=1.0 + 1e-9).contains(&sum) {
                return Err(format!("zone {z} alpha sums to {sum}"));
            }
        }
        if self.n_trips() as u64 > self.full_size {
            return Err("gravity matrix larger than full matrix".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Todam {
        Todam::from_parts(
            vec![PoiId(10), PoiId(20)],
            vec![
                vec![
                    Trip { zone: ZoneId(0), poi_idx: 0, start: Stime(100) },
                    Trip { zone: ZoneId(0), poi_idx: 1, start: Stime(200) },
                ],
                vec![],
                vec![Trip { zone: ZoneId(2), poi_idx: 0, start: Stime(50) }],
            ],
            vec![vec![(0, 0.7), (1, 0.3)], vec![], vec![(0, 1.0)]],
            60,
        )
    }

    #[test]
    fn csr_layout() {
        let m = tiny();
        m.check_invariants().unwrap();
        assert_eq!(m.n_zones(), 3);
        assert_eq!(m.n_trips(), 3);
        assert_eq!(m.zone_trips(ZoneId(0)).len(), 2);
        assert_eq!(m.zone_trips(ZoneId(1)).len(), 0);
        assert_eq!(m.zone_trips(ZoneId(2))[0].start, Stime(50));
    }

    #[test]
    fn start_groups_ascend_and_keep_index_order() {
        let trip = |start| Trip { zone: ZoneId(0), poi_idx: 0, start: Stime(start) };
        let m = Todam::from_parts(
            vec![PoiId(1)],
            vec![vec![trip(300), trip(100), trip(300), trip(200), trip(100)], vec![]],
            vec![vec![(0, 1.0)], vec![]],
            10,
        );
        m.check_invariants().unwrap();
        let groups: Vec<&[u32]> = m.zone_start_groups(ZoneId(0)).collect();
        assert_eq!(groups, [&[1, 4][..], &[3], &[0, 2]]);
        assert_eq!(m.zone_start_groups(ZoneId(1)).count(), 0);
    }

    #[test]
    fn reduction_accounting() {
        let m = tiny();
        assert!((m.reduction_pct() - 95.0).abs() < 1e-12, "3 of 60 kept");
    }

    #[test]
    fn alpha_is_sparse_per_zone() {
        let m = tiny();
        assert_eq!(m.zone_alpha(ZoneId(0)).len(), 2);
        assert!(m.zone_alpha(ZoneId(1)).is_empty());
    }

    #[test]
    fn invariant_checker_catches_bad_poi() {
        let mut m = tiny();
        // Reach in through the trips slice via from_parts misuse.
        m = Todam::from_parts(
            m.pois.clone(),
            vec![vec![Trip { zone: ZoneId(0), poi_idx: 9, start: Stime(0) }], vec![], vec![]],
            vec![vec![], vec![], vec![]],
            60,
        );
        assert!(m.check_invariants().is_err());
    }
}
