//! Origin feature rows pinned bit for bit to the per-OD extractor the
//! one-pass aggregation replaced.
//!
//! `features_golden.txt` was written by `aggregate::all_origin_features`
//! at commit ac8cc2d — one `FeatureExtractor::features` call per OD, a
//! fresh reach BFS and interchange search each time — built in release, by
//! the `golden_lines` below run in a scratch clone of that commit (the
//! writer is not committed). Every line is an FNV-1a-64 digest of the
//! little-endian `to_bits()` words of the rows (`none` for a zone with no
//! attracted POIs): one line per zone for the benchmark city's School
//! pass with the default extractor, one line per remaining (city,
//! category, extractor) block. Serving TODAM (`per_hour: 3`), default
//! isochrones, the store built for the TODAM interval.

use staq_hoptree::{aggregate, FeatureExtractor, HopTreeStore, FEATURE_DIM};
use staq_road::IsochroneParams;
use staq_synth::{City, CityConfig, PoiCategory};
use staq_todam::TodamSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

type Row = Option<[f64; FEATURE_DIM]>;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn row_bytes(row: &Row) -> Vec<u8> {
    match row {
        Some(f) => f.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect(),
        None => b"none".to_vec(),
    }
}

/// The four extractor settings each block is run under.
const EXTRACTORS: [&str; 4] = ["default", "no_interchanges", "h1", "h3"];

fn golden_lines() -> Vec<String> {
    let spec = TodamSpec { per_hour: 3, ..Default::default() };
    let cities =
        [("bench", CityConfig::coventry(42).scaled(0.18)), ("small", CityConfig::small(42))];
    let mut out = Vec::new();
    for (name, cfg) in cities {
        let city = City::generate(&cfg);
        let store = HopTreeStore::build(&city, &spec.interval, &IsochroneParams::default());
        for category in PoiCategory::ALL {
            let m = spec.build(&city, category);
            for ex in EXTRACTORS {
                let mut fx = FeatureExtractor::new(&city, &store);
                match ex {
                    "no_interchanges" => fx.use_interchanges = false,
                    "h1" => fx.max_hops = 1,
                    "h3" => fx.max_hops = 3,
                    _ => {}
                }
                let rows = aggregate::all_origin_features(&fx, &city, &m);
                let label = format!("{name} {category:?} {ex}");
                if (name, category, ex) == ("bench", PoiCategory::School, "default") {
                    for (z, row) in rows.iter().enumerate() {
                        let digest = match row {
                            Some(_) => format!("{:016x}", fnv(FNV_OFFSET, &row_bytes(row))),
                            None => "none".to_string(),
                        };
                        out.push(format!("{label} zone {z} {digest}"));
                    }
                } else {
                    let block = rows.iter().fold(FNV_OFFSET, |h, row| fnv(h, &row_bytes(row)));
                    out.push(format!("{label} {block:016x}"));
                }
            }
        }
    }
    out
}

#[test]
fn features_match_the_parent_written_fixture() {
    let want: Vec<&str> =
        include_str!("features_golden.txt").lines().filter(|l| !l.starts_with('#')).collect();
    let got = golden_lines();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}
