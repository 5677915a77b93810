//! # staq-bench
//!
//! Reproduction harness. One binary per paper table/figure:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — full vs gravity matrix sizes and % reduction |
//! | `table2` | Table II — naïve label cost vs SSR solution cost & savings |
//! | `fig3`   | Fig. 3 — JT MAE vs β for every model × POI type × city |
//! | `fig4`   | Fig. 4 — GAC: MAC corr, ACSD corr, accuracy, FIE vs β |
//! | `fig5`   | Fig. 5 — predicted MAC choropleth (ASCII + CSV) |
//! | `ablation` | sampling-strategy / feature-set / fairness ablations |
//!
//! Every binary takes `--scale <f>` (fraction of the paper's city sizes;
//! default keeps a run in minutes on a laptop core), `--seed <u64>`, and
//! `--out <path>` (CSV dump). `--scale 1.0` reproduces the full
//! Birmingham/Coventry dimensions.
//!
//! Serving and per-layer performance is not measured here: `staq-e2e`
//! (the `benchmark/` package) is the one harness for that.

use staq_synth::{City, CityConfig};
use std::path::PathBuf;

/// Shared CLI arguments for reproduction binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// City scale relative to the paper (1.0 = full Birmingham/Coventry).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub out: Option<PathBuf>,
    /// Quick mode: fewer betas/models for smoke runs.
    pub quick: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs { scale: 0.05, seed: 42, out: None, quick: false }
    }
}

impl BenchArgs {
    /// Parses `--scale`, `--seed`, `--out`, `--quick` from `std::env::args`,
    /// starting from `default`. Unknown flags abort with usage help.
    pub fn parse_with_default(default: BenchArgs) -> BenchArgs {
        let mut args = default;
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a float"));
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a u64"));
                }
                "--out" => {
                    args.out = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--out needs a path")),
                    ));
                }
                "--quick" => args.quick = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        assert!(args.scale > 0.0 && args.scale <= 1.0, "scale must be in (0, 1]");
        args
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <bin> [--scale f] [--seed u64] [--out path.csv] [--quick]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

/// Scaled Birmingham analogue.
pub fn birmingham(args: &BenchArgs) -> City {
    City::generate(&CityConfig::birmingham(args.seed).scaled(args.scale))
}

/// Scaled Coventry analogue.
pub fn coventry(args: &BenchArgs) -> City {
    City::generate(&CityConfig::coventry(args.seed).scaled(args.scale))
}

/// Minimal CSV writer for experiment outputs.
pub struct CsvOut {
    rows: Vec<Vec<String>>,
    header: Vec<String>,
}

impl CsvOut {
    /// New table with the given header.
    pub fn new(header: &[&str]) -> Self {
        CsvOut { rows: Vec::new(), header: header.iter().map(|s| s.to_string()).collect() }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "CSV row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Serializes to CSV text.
    pub fn to_text(&self) -> String {
        let mut s = self.header.join(",");
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.join(","));
            s.push('\n');
        }
        s
    }

    /// Writes to `path` if given.
    pub fn maybe_write(&self, path: &Option<PathBuf>) {
        if let Some(p) = path {
            std::fs::write(p, self.to_text()).expect("writing CSV output");
            eprintln!("wrote {}", p.display());
        }
    }
}

/// Renders zone values as a coarse ASCII choropleth (Fig. 5's medium):
/// space-binned quantile shading, darker = worse access.
pub fn ascii_choropleth(
    city: &City,
    values: &[(staq_synth::ZoneId, f64)],
    width: usize,
    height: usize,
) -> String {
    const SHADES: [char; 5] = ['░', '▒', '▓', '█', '@'];
    if values.is_empty() {
        return String::from("(no data)\n");
    }
    // Quantile thresholds.
    let mut sorted: Vec<f64> = values.iter().map(|v| v.1).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f) as usize];
    let cuts = [q(0.2), q(0.4), q(0.6), q(0.8)];
    let shade = |v: f64| {
        let mut k = 0;
        while k < 4 && v > cuts[k] {
            k += 1;
        }
        SHADES[k]
    };

    // Average value per cell.
    let side = city.config.side_m;
    let mut sums = vec![0.0f64; width * height];
    let mut counts = vec![0u32; width * height];
    for &(z, v) in values {
        let c = city.zone_centroid(z);
        let gx = ((c.x / side) * width as f64).clamp(0.0, width as f64 - 1.0) as usize;
        let gy = ((c.y / side) * height as f64).clamp(0.0, height as f64 - 1.0) as usize;
        sums[gy * width + gx] += v;
        counts[gy * width + gx] += 1;
    }
    let mut out = String::new();
    for gy in (0..height).rev() {
        for gx in 0..width {
            let i = gy * width + gx;
            if counts[i] == 0 {
                out.push(' ');
            } else {
                out.push(shade(sums[i] / counts[i] as f64));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_synth::ZoneId;

    #[test]
    fn csv_roundtrip() {
        let mut c = CsvOut::new(&["a", "b"]);
        c.row(&["1".into(), "2".into()]);
        assert_eq!(c.to_text(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn csv_rejects_ragged() {
        let mut c = CsvOut::new(&["a"]);
        c.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn choropleth_renders() {
        let city = City::generate(&CityConfig::tiny(1));
        let vals: Vec<(ZoneId, f64)> = city.zones.iter().map(|z| (z.id, z.centroid.x)).collect();
        let map = ascii_choropleth(&city, &vals, 16, 8);
        assert_eq!(map.lines().count(), 8);
        assert!(map.contains('░') && map.contains('@'));
    }

    #[test]
    fn scaled_city_builders() {
        let args = BenchArgs { scale: 0.02, ..Default::default() };
        let b = birmingham(&args);
        assert!(b.n_zones() > 30 && b.n_zones() < 200);
    }
}
