//! SSR training pinned bit for bit to the product loop the blocked kernel
//! replaced.
//!
//! `train_golden.txt` was written at commit 37b706a — `Matrix::matmul` as
//! an i-k-j loop that skipped zero left entries and accumulated straight
//! into the output row, and a `Net` that allocated its activations and
//! gradients on every step — built in release, by the `golden_lines` below
//! run in a scratch clone of that commit (the writer is not committed).
//! Every digest is FNV-1a-64 over little-endian `to_bits()` words:
//!
//! - one line per (city, task, model): the measures `ssr_train_infer`
//!   assembles (zone id, MAC, ACSD of every eligible zone), for OLS, MLP,
//!   Mean Teacher and GCN trained on one pipeline run's labeled set;
//! - eight lines for the first 400 `Net::train_step` MSEs of the MLP's own
//!   training loop on the benchmark city's VaxCenter task, 50 steps each.
//!
//! The two tasks are the benchmark's cold workloads: VaxCenter at β 0.3
//! with the default TODAM (30 starts/h), and School at β 0.2 with 3
//! starts/h. Cities: the benchmark city (`coventry(42).scaled(0.18)`) and
//! `small(42)`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use staq_core::pipeline::ssr_train_infer;
use staq_core::{OfflineArtifacts, PipelineConfig, PipelineResult, SsrPipeline};
use staq_ml::mlp::Net;
use staq_ml::scaler::StandardScaler;
use staq_ml::{Matrix, ModelKind};
use staq_synth::{City, CityConfig, PoiCategory};
use staq_todam::TodamSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

const MODELS: [ModelKind; 4] =
    [ModelKind::Ols, ModelKind::Mlp, ModelKind::MeanTeacher, ModelKind::Gnn];

fn tasks() -> [(&'static str, PoiCategory, PipelineConfig); 2] {
    [
        ("VaxCenter", PoiCategory::VaxCenter, PipelineConfig { beta: 0.3, ..Default::default() }),
        (
            "School",
            PoiCategory::School,
            PipelineConfig {
                beta: 0.2,
                todam: TodamSpec { per_hour: 3, ..Default::default() },
                ..Default::default()
            },
        ),
    ]
}

/// The first 400 MSEs of `MlpRegressor::train_net`'s loop (default
/// hyperparameters: hidden [64, 32], lr 1e-2, batch 32) on `base`'s
/// labeled set.
fn mlp_step_mses(base: &PipelineResult, seed: u64) -> Vec<f64> {
    let y = Matrix::from_rows(
        &base.labeled_stats.iter().map(|s| vec![s.mac, s.acsd]).collect::<Vec<_>>(),
    );
    let xs = StandardScaler::fit(&base.x_labeled.vstack(&base.x_unlabeled));
    let xl = xs.transform(&base.x_labeled);
    let yl = StandardScaler::fit(&y).transform(&y);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11F);
    let mut net = Net::new(&[xl.cols(), 64, 32, yl.cols()], &mut rng);
    let mut order: Vec<usize> = (0..xl.rows()).collect();
    let mut mses = Vec::with_capacity(400);
    while mses.len() < 400 {
        order.shuffle(&mut rng);
        for chunk in order.chunks(32) {
            if mses.len() == 400 {
                break;
            }
            let (bx, by) = (xl.select_rows(chunk), yl.select_rows(chunk));
            mses.push(net.train_step(&bx, &by, 1e-2, 1.0));
        }
    }
    mses
}

fn golden_lines() -> Vec<String> {
    let cities =
        [("bench", CityConfig::coventry(42).scaled(0.18)), ("small", CityConfig::small(42))];
    let mut out = Vec::new();
    for (name, cfg) in cities {
        let city = City::generate(&cfg);
        let defaults = PipelineConfig::default();
        let artifacts =
            OfflineArtifacts::build(&city, &defaults.todam.interval, &defaults.isochrone);
        for (task, category, cfg) in tasks() {
            let base = SsrPipeline::new(
                &city,
                &artifacts,
                PipelineConfig { model: ModelKind::Ols, ..cfg.clone() },
            )
            .run(category);
            for model in MODELS {
                let cfg = PipelineConfig { model, ..cfg.clone() };
                let measures = ssr_train_infer(
                    &city,
                    &cfg,
                    &base.labeled,
                    &base.unlabeled,
                    &base.x_labeled,
                    &base.x_unlabeled,
                    &base.labeled_stats,
                );
                let digest = fnv(
                    FNV_OFFSET,
                    measures
                        .iter()
                        .flat_map(|m| [u64::from(m.zone.0), m.mac.to_bits(), m.acsd.to_bits()]),
                );
                out.push(format!(
                    "{name} {task} {} L{} U{} {digest:016x}",
                    model.label(),
                    base.labeled.len(),
                    base.unlabeled.len()
                ));
            }
            if (name, task) == ("bench", "VaxCenter") {
                let mses = mlp_step_mses(&base, cfg.seed);
                for (k, block) in mses.chunks(50).enumerate() {
                    let digest = fnv(FNV_OFFSET, block.iter().map(|v| v.to_bits()));
                    out.push(format!(
                        "{name} {task} mlp_steps {}..{} {digest:016x}",
                        k * 50,
                        k * 50 + block.len()
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn training_matches_the_parent_written_fixture() {
    let want: Vec<&str> =
        include_str!("train_golden.txt").lines().filter(|l| !l.starts_with('#')).collect();
    let got = golden_lines();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}
