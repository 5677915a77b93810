//! COREG: semi-supervised regression by co-training two k-NN regressors
//! (Zhou & Li, IJCAI 2005) — one of the paper's "more bespoke SSR methods".
//!
//! Two k-NN regressors with different Minkowski orders (p = 2 and p = 5)
//! give two views of the same feature space. Each round, each regressor
//! selects the unlabeled example whose self-labeled addition most improves
//! local consistency on its own training set, and *teaches* it to the other
//! regressor. Final predictions average the two.

use crate::knn::KnnRegressor;
use crate::linalg::Matrix;
use crate::ssr::{SsrModel, SsrTask};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// COREG configuration.
#[derive(Debug, Clone, Copy)]
pub struct Coreg {
    /// Neighbours per regressor (paper's k = 3).
    pub k: usize,
    /// Co-training rounds.
    pub rounds: usize,
    /// Candidate pool size drawn from the unlabeled set each round.
    pub pool: usize,
}

impl Default for Coreg {
    fn default() -> Self {
        Coreg { k: 3, rounds: 12, pool: 60 }
    }
}

impl Coreg {
    /// Squared-error improvement Δ of adding `(xq, yq)` to `h`, evaluated on
    /// `xq`'s labeled neighbourhood (Zhou & Li's selection criterion).
    fn delta(h: &KnnRegressor, xq: &[f64], yq: &[f64]) -> f64 {
        let nb = h.neighbors(xq);
        if nb.is_empty() {
            return 0.0;
        }
        let mut with = h.clone();
        with.push(xq, yq);
        let mut delta = 0.0;
        // Compare neighbourhood reconstruction before/after the addition.
        for &i in &nb {
            let (xi, yi) = (h.train_x(i), h.train_y(i));
            let before = sq_err(&h.predict_one(xi), yi);
            let after = sq_err(&with.predict_one(xi), yi);
            delta += before - after;
        }
        delta
    }
}

fn sq_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

impl SsrModel for Coreg {
    fn name(&self) -> &'static str {
        "COREG"
    }

    fn fit_predict(&self, task: &SsrTask<'_>) -> Matrix {
        task.validate().expect("invalid SSR task");
        let mut h1 = KnnRegressor::new(self.k, 2.0);
        let mut h2 = KnnRegressor::new(self.k, 5.0);
        h1.fit(task.x_labeled, task.y_labeled);
        h2.fit(task.x_labeled, task.y_labeled);

        let n_u = task.x_unlabeled.rows();
        let mut rng = StdRng::seed_from_u64(task.seed ^ 0xC0DE);
        let mut available: Vec<usize> = (0..n_u).collect();
        available.shuffle(&mut rng);

        for _ in 0..self.rounds {
            if available.is_empty() {
                break;
            }
            let pool: Vec<usize> = available.iter().copied().take(self.pool).collect();
            let mut taught = Vec::new();
            // h1 teaches h2, then h2 teaches h1.
            for source in 0..2 {
                let (src, dst): (&KnnRegressor, usize) =
                    if source == 0 { (&h1, 2) } else { (&h2, 1) };
                let mut best: Option<(usize, Vec<f64>, f64)> = None;
                for &u in &pool {
                    if taught.contains(&u) {
                        continue;
                    }
                    let xq = task.x_unlabeled.row(u);
                    let yq = src.predict_one(xq);
                    let d = Coreg::delta(src, xq, &yq);
                    if d > 0.0 && best.as_ref().is_none_or(|b| d > b.2) {
                        best = Some((u, yq, d));
                    }
                }
                if let Some((u, yq, _)) = best {
                    let xq = task.x_unlabeled.row(u).to_vec();
                    if dst == 2 {
                        h2.push(&xq, &yq);
                    } else {
                        h1.push(&xq, &yq);
                    }
                    taught.push(u);
                }
            }
            if taught.is_empty() {
                break; // converged: no confident candidate left
            }
            available.retain(|u| !taught.contains(u));
        }

        // Average the two views.
        let p1 = h1.predict(task.x_unlabeled);
        let p2 = h2.predict(task.x_unlabeled);
        p1.add_scaled(&p2, 1.0).map(|v| v * 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssr::fixtures;

    #[test]
    fn beats_mean_baseline() {
        let m = Coreg::default();
        let err = fixtures::model_mae(&m, 60, 40, 5);
        let base = fixtures::mean_baseline_mae(60, 40, 5);
        assert!(err < base * 0.7, "COREG {err} vs baseline {base}");
    }

    #[test]
    fn produces_finite_predictions_with_tiny_label_set() {
        let m = Coreg { k: 3, rounds: 5, pool: 20 };
        let err = fixtures::model_mae(&m, 5, 30, 9);
        assert!(err.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let (xl, yl, xu, _) = fixtures::synthetic(40, 25, 4);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 11 };
        let a = Coreg::default().fit_predict(&task);
        let b = Coreg::default().fit_predict(&task);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rounds_reduces_to_knn_average() {
        let (xl, yl, xu, _) = fixtures::synthetic(30, 15, 8);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 1 };
        let coreg = Coreg { rounds: 0, ..Coreg::default() };
        let got = coreg.fit_predict(&task);
        let mut h1 = KnnRegressor::new(3, 2.0);
        let mut h2 = KnnRegressor::new(3, 5.0);
        h1.fit(&xl, &yl);
        h2.fit(&xl, &yl);
        let want = h1.predict(&xu).add_scaled(&h2.predict(&xu), 1.0).map(|v| v * 0.5);
        assert_eq!(got, want);
    }
}
