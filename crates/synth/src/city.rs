//! The [`City`] bundle and its top-level generator.

use crate::config::CityConfig;
use crate::{pois, roads, transit_gen};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use staq_geom::{KdTree, Point};
use staq_gtfs::{validate, FeedIndex};
use staq_road::RoadGraph;

/// Dense id of a zone (census tract), `z_i ∈ Z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ZoneId(pub u32);

impl ZoneId {
    /// Raw dense index.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of a point of interest, `p_j ∈ P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PoiId(pub u32);

impl PoiId {
    /// Raw dense index.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Zone-level demographic fields used for fairness weighting (§III-D: "the
/// fairness index can be further weighted by zone-level demographic data").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demographics {
    /// Fraction of working-age residents unemployed (0..1).
    pub pct_unemployed: f64,
    /// Fraction clinically vulnerable (0..1) — the TfWM vaccination-siting
    /// use case from the paper's introduction.
    pub pct_vulnerable: f64,
    /// Fraction under 16 (0..1) — school accessibility weighting.
    pub pct_children: f64,
}

/// A census-tract zone: the paper's atomic spatial unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zone {
    pub id: ZoneId,
    /// Geographic centroid (planar meters).
    pub centroid: Point,
    /// Resident population.
    pub population: f64,
    pub demographics: Demographics,
}

/// POI categories evaluated in the paper (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoiCategory {
    School,
    Hospital,
    VaxCenter,
    JobCenter,
}

impl PoiCategory {
    /// All four categories in Table I order.
    pub const ALL: [PoiCategory; 4] = [
        PoiCategory::School,
        PoiCategory::Hospital,
        PoiCategory::VaxCenter,
        PoiCategory::JobCenter,
    ];

    /// Table label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            PoiCategory::School => "School",
            PoiCategory::Hospital => "Hospital",
            PoiCategory::VaxCenter => "Vax Center",
            PoiCategory::JobCenter => "Job Center",
        }
    }
}

impl std::fmt::Display for PoiCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A point of interest, associated to its containing zone (§IV-A: "p_j is
/// associated to its zone z_i" — here, the zone with the nearest centroid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poi {
    pub id: PoiId,
    pub category: PoiCategory,
    pub pos: Point,
    /// Zone this POI belongs to.
    pub zone: ZoneId,
}

/// A fully generated synthetic city: zones, POIs, road graph, transit feed.
#[derive(Debug, Clone)]
pub struct City {
    pub config: CityConfig,
    pub zones: Vec<Zone>,
    /// All POIs across categories; filter with [`City::pois_of`].
    pub pois: Vec<Poi>,
    pub road: RoadGraph,
    /// Indexed GTFS feed (parsed back from generated text).
    pub feed: FeedIndex,
    /// Urban density cores; `cores[0]` is the city center.
    pub cores: Vec<Point>,
}

impl City {
    /// Generates a city from `config`. Deterministic in `config.seed`.
    ///
    /// The generated GTFS feed is serialized to text and re-parsed so every
    /// experiment exercises the same ingestion path a real feed would
    /// (`staq-gtfs`'s CSV reader and validator).
    pub fn generate(config: &CityConfig) -> City {
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Density cores: center first, sub-centers uniformly in the middle
        // half of the study area.
        let half = config.side_m * 0.5;
        let mut cores = vec![Point::new(half, half)];
        for _ in 1..config.n_cores {
            cores.push(Point::new(
                rng.random_range(config.side_m * 0.25..config.side_m * 0.75),
                rng.random_range(config.side_m * 0.25..config.side_m * 0.75),
            ));
        }

        let zones = generate_zones(config, &cores, &mut rng);
        let road = roads::generate(config, &mut rng);
        let feed_raw = transit_gen::generate(config, &cores, &road, &mut rng);
        // Round-trip through GTFS text (see doc comment above).
        let text = staq_gtfs::write::to_text(&feed_raw);
        let feed_parsed = text.parse().expect("generated feed must reparse");
        validate::assert_valid(&feed_parsed);
        let feed = FeedIndex::build(feed_parsed);
        let pois = pois::generate(config, &zones, &cores, &mut rng);

        City { config: config.clone(), zones, pois, road, feed, cores }
    }

    /// Number of zones |Z|.
    #[inline]
    pub fn n_zones(&self) -> usize {
        self.zones.len()
    }

    /// Centroid of `z`.
    #[inline]
    pub fn zone_centroid(&self, z: ZoneId) -> Point {
        self.zones[z.idx()].centroid
    }

    /// POIs of one category, in id order.
    pub fn pois_of(&self, cat: PoiCategory) -> Vec<&Poi> {
        self.pois.iter().filter(|p| p.category == cat).collect()
    }

    /// `(centroid, raw zone id)` pairs for spatial indexing.
    pub fn zone_points(&self) -> Vec<(Point, u32)> {
        self.zones.iter().map(|z| (z.centroid, z.id.0)).collect()
    }
}

/// Lays zones out on a jittered grid with density-weighted population.
fn generate_zones(config: &CityConfig, cores: &[Point], rng: &mut StdRng) -> Vec<Zone> {
    let n = config.n_zones as usize;
    let g = (n as f64).sqrt().ceil() as usize;
    let cell = config.side_m / g as f64;

    // Choose n cells of the g x g grid without replacement (all when equal).
    let mut cells: Vec<usize> = (0..g * g).collect();
    // Fisher-Yates partial shuffle.
    for i in 0..n.min(cells.len()) {
        let j = rng.random_range(i..cells.len());
        cells.swap(i, j);
    }
    cells.truncate(n);
    cells.sort_unstable(); // deterministic zone ordering, row-major

    // Density: mixture of Gaussians around cores plus a uniform floor.
    let sigma = config.side_m * 0.22;
    let density = |p: &Point| -> f64 {
        let mut d = 0.15;
        for c in cores {
            d += (-p.dist2(c) / (2.0 * sigma * sigma)).exp();
        }
        d
    };

    let mut zones: Vec<Zone> = Vec::with_capacity(n);
    let mut weights: Vec<f64> = Vec::with_capacity(n);
    for (i, &cellno) in cells.iter().enumerate() {
        let cx = (cellno % g) as f64;
        let cy = (cellno / g) as f64;
        let jitter = 0.35;
        let centroid = Point::new(
            (cx + 0.5 + rng.random_range(-jitter..jitter)) * cell,
            (cy + 0.5 + rng.random_range(-jitter..jitter)) * cell,
        );
        let w = density(&centroid);
        weights.push(w);
        // Demographics: unemployment and vulnerability rise toward the
        // periphery (classic UK urban pattern the paper's equity queries
        // target), with idiosyncratic noise.
        let core_dist = cores.iter().map(|c| centroid.dist(c)).fold(f64::INFINITY, f64::min);
        let periphery = (core_dist / (config.side_m * 0.7)).min(1.0);
        let noise = |rng: &mut StdRng| rng.random_range(-0.03f64..0.03);
        zones.push(Zone {
            id: ZoneId(i as u32),
            centroid,
            population: 0.0, // filled below
            demographics: Demographics {
                pct_unemployed: (0.04 + 0.08 * periphery + noise(rng)).clamp(0.0, 1.0),
                pct_vulnerable: (0.08 + 0.10 * periphery + noise(rng)).clamp(0.0, 1.0),
                pct_children: (0.17 + 0.06 * periphery + noise(rng)).clamp(0.0, 1.0),
            },
        });
    }
    let wsum: f64 = weights.iter().sum();
    for (z, w) in zones.iter_mut().zip(&weights) {
        z.population = (config.population as f64) * w / wsum;
    }
    zones
}

/// Associates each POI position with the zone of nearest centroid.
pub(crate) fn nearest_zone(zone_tree: &KdTree, p: &Point) -> ZoneId {
    ZoneId(zone_tree.nearest(p).expect("at least one zone").item)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CityConfig::tiny(7);
        let a = City::generate(&cfg);
        let b = City::generate(&cfg);
        assert_eq!(a.zones, b.zones);
        assert_eq!(a.pois, b.pois);
        assert_eq!(a.feed.feed(), b.feed.feed());
        assert_eq!(a.road.n_edges(), b.road.n_edges());
    }

    #[test]
    fn different_seeds_differ() {
        let a = City::generate(&CityConfig::tiny(1));
        let b = City::generate(&CityConfig::tiny(2));
        assert_ne!(a.zones, b.zones);
    }

    #[test]
    fn zone_and_poi_counts_match_config() {
        let cfg = CityConfig::small(3);
        let city = City::generate(&cfg);
        assert_eq!(city.n_zones(), cfg.n_zones as usize);
        assert_eq!(city.pois_of(PoiCategory::School).len(), cfg.pois.schools as usize);
        assert_eq!(city.pois_of(PoiCategory::Hospital).len(), cfg.pois.hospitals as usize);
        assert_eq!(city.pois_of(PoiCategory::VaxCenter).len(), cfg.pois.vax_centers as usize);
        assert_eq!(city.pois_of(PoiCategory::JobCenter).len(), cfg.pois.job_centers as usize);
    }

    #[test]
    fn population_sums_to_config_total() {
        let cfg = CityConfig::small(3);
        let city = City::generate(&cfg);
        let total: f64 = city.zones.iter().map(|z| z.population).sum();
        assert!((total - cfg.population as f64).abs() / (cfg.population as f64) < 1e-9);
    }

    #[test]
    fn zones_lie_inside_study_area() {
        let cfg = CityConfig::small(5);
        let city = City::generate(&cfg);
        for z in &city.zones {
            assert!(z.centroid.x >= -cfg.side_m * 0.01 && z.centroid.x <= cfg.side_m * 1.01);
            assert!(z.centroid.y >= -cfg.side_m * 0.01 && z.centroid.y <= cfg.side_m * 1.01);
        }
    }

    #[test]
    fn center_zones_are_denser() {
        let cfg = CityConfig::small(11);
        let city = City::generate(&cfg);
        let center = city.cores[0];
        let (mut inner, mut outer) = (Vec::new(), Vec::new());
        for z in &city.zones {
            if z.centroid.dist(&center) < cfg.side_m * 0.2 {
                inner.push(z.population);
            } else if z.centroid.dist(&center) > cfg.side_m * 0.45 {
                outer.push(z.population);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&inner) > mean(&outer) * 1.5,
            "core density {} should well exceed periphery {}",
            mean(&inner),
            mean(&outer)
        );
    }

    #[test]
    fn pois_are_associated_to_nearby_zones() {
        let city = City::generate(&CityConfig::small(9));
        let tree = KdTree::build(&city.zone_points());
        for poi in &city.pois {
            let nearest = nearest_zone(&tree, &poi.pos);
            assert_eq!(poi.zone, nearest);
        }
    }

    #[test]
    fn demographics_are_fractions() {
        let city = City::generate(&CityConfig::small(13));
        for z in &city.zones {
            let d = z.demographics;
            for v in [d.pct_unemployed, d.pct_vulnerable, d.pct_children] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
