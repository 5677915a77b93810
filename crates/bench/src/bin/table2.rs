//! **Table II** — naïve full-labeling cost vs the SSR solution's end-to-end
//! cost (TODAM + feature extraction + β-labeling + training), and the
//! percentage saving, per POI type × β × city.
//!
//! ```text
//! cargo run --release -p staq-bench --bin table2 -- --scale 0.25
//! ```
//!
//! Paper shape to verify: savings of ~96–97 % at β = 3 % falling to ~77 %
//! at β = 30 %. At `--scale 0.25` every row falls monotonically in β, but
//! from a lower level (Birmingham 78–93 % at β = 3 % to 42–53 % at 30 %):
//! labeling is cheap next to the fixed costs (TODAM, features, training).
//! At the default 0.06 so little is labeled that those fixed costs
//! dominate the small categories and their saving goes negative at
//! higher β.

use staq_bench::{birmingham, coventry, BenchArgs, CsvOut};
use staq_core::{NaiveResult, OfflineArtifacts, PipelineConfig, SsrPipeline};
use staq_ml::ModelKind;
use staq_synth::PoiCategory;
use staq_todam::TodamSpec;
use staq_transit::CostKind;

fn main() {
    let args = BenchArgs::parse_with_default(BenchArgs { scale: 0.06, ..Default::default() });
    let betas: &[f64] = if args.quick { &[0.03, 0.1, 0.3] } else { &PipelineConfig::BETA_SWEEP };
    // The paper's |R| = 60 (30/hr over the 2h peak): Table II's saving is a
    // labeling-vs-everything ratio, so the start-time rate must match.
    let spec = TodamSpec { per_hour: 30, ..Default::default() };

    let mut csv =
        CsvOut::new(&["city", "category", "beta", "label_cost_s", "solution_cost_s", "saving_pct"]);
    println!("== Table II: runtime of naive vs SSR solution (scale {}) ==", args.scale);

    for city in [birmingham(&args), coventry(&args)] {
        let artifacts =
            OfflineArtifacts::build(&city, &spec.interval, &staq_road::IsochroneParams::default());
        println!("\n{} (|Z|={})", city.config.name, city.n_zones());
        println!(
            "{:<12} {:>10} | {}",
            "POI type",
            "label(s)",
            betas.iter().map(|b| format!("{:>6.0}%", b * 100.0)).collect::<Vec<_>>().join(" ")
        );
        for category in PoiCategory::ALL {
            let truth = NaiveResult::compute(&city, &spec, category, CostKind::Jt);
            let mut cells = Vec::new();
            let mut savings = Vec::new();
            for &beta in betas {
                let cfg = PipelineConfig {
                    beta,
                    model: ModelKind::Mlp,
                    cost: CostKind::Jt,
                    todam: spec.clone(),
                    seed: args.seed,
                    ..Default::default()
                };
                let result = SsrPipeline::new(&city, &artifacts, cfg).run(category);
                let solution = result.timings.total();
                let saving = (1.0 - solution / truth.label_secs) * 100.0;
                cells.push(format!("{solution:>6.2}"));
                savings.push(format!("{saving:>5.1}%"));
                csv.row(&[
                    city.config.name.clone(),
                    category.label().to_string(),
                    format!("{beta}"),
                    format!("{:.3}", truth.label_secs),
                    format!("{:.3}", solution),
                    format!("{:.2}", saving),
                ]);
            }
            println!(
                "{:<12} {:>10.2} | {}   saving: {}",
                category.label(),
                truth.label_secs,
                cells.join(" "),
                savings.join(" ")
            );
        }
    }
    csv.maybe_write(&args.out);
}
