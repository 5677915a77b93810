//! The semi-supervised regression task and model interface.

use crate::adjacency::SparseAdj;
use crate::linalg::Matrix;

/// A semi-supervised regression problem instance (§IV-D): "a feature set is
/// given for all L ∪ U, and the target vector is given for L. The goal is to
/// learn the labeling for U."
///
/// Row convention: labeled rows first. `adjacency` (needed only by the GNN)
/// indexes rows in the same labeled-then-unlabeled order.
pub struct SsrTask<'a> {
    /// Features of labeled zones, `n_l x d`.
    pub x_labeled: &'a Matrix,
    /// Targets of labeled zones, `n_l x m` (m = 2: MAC and ACSD).
    pub y_labeled: &'a Matrix,
    /// Features of unlabeled zones, `n_u x d`.
    pub x_unlabeled: &'a Matrix,
    /// Zone adjacency over all `n_l + n_u` rows (GNN only).
    pub adjacency: Option<&'a SparseAdj>,
    /// Seed for any stochastic training.
    pub seed: u64,
}

impl<'a> SsrTask<'a> {
    /// Validates shape agreement.
    pub fn validate(&self) -> Result<(), String> {
        if self.x_labeled.cols() != self.x_unlabeled.cols() {
            return Err("labeled/unlabeled feature dimension mismatch".into());
        }
        if self.x_labeled.rows() != self.y_labeled.rows() {
            return Err("labeled feature/target row mismatch".into());
        }
        if self.x_labeled.rows() == 0 {
            return Err("no labeled rows".into());
        }
        if let Some(adj) = self.adjacency {
            if adj.n() != self.x_labeled.rows() + self.x_unlabeled.rows() {
                return Err("adjacency size mismatch".into());
            }
        }
        Ok(())
    }
}

/// A semi-supervised regressor: fit on the task, predict the unlabeled
/// targets (`n_u x m`).
pub trait SsrModel {
    /// Model name for reports ("MLP", "COREG", ...).
    fn name(&self) -> &'static str;

    /// Trains and predicts the unlabeled targets.
    fn fit_predict(&self, task: &SsrTask<'_>) -> Matrix;
}

/// The five models evaluated in the paper (§V-A), plus helpers to
/// instantiate each with its default hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    Ols,
    Mlp,
    Coreg,
    MeanTeacher,
    Gnn,
}

impl ModelKind {
    /// All five models, in the paper's reporting order.
    pub const ALL: [ModelKind; 5] =
        [ModelKind::Ols, ModelKind::Mlp, ModelKind::Coreg, ModelKind::MeanTeacher, ModelKind::Gnn];

    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            ModelKind::Ols => "OLS",
            ModelKind::Mlp => "MLP",
            ModelKind::Coreg => "COREG",
            ModelKind::MeanTeacher => "MT",
            ModelKind::Gnn => "GNN",
        }
    }

    /// Instantiates the model with default hyperparameters.
    pub fn build(self) -> Box<dyn SsrModel> {
        match self {
            ModelKind::Ols => Box::new(crate::ols::Ols::default()),
            ModelKind::Mlp => Box::new(crate::mlp::MlpRegressor::default()),
            ModelKind::Coreg => Box::new(crate::coreg::Coreg::default()),
            ModelKind::MeanTeacher => Box::new(crate::mean_teacher::MeanTeacher::default()),
            ModelKind::Gnn => Box::new(crate::gnn::Gcn::default()),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared test fixtures: a synthetic regression problem with spatial
/// structure, used by every model's tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// y = 3*x0 - 2*x1 + 0.5*x2 + noise; second target = x0^2 scaled.
    /// Returns (x_l, y_l, x_u, y_u_truth).
    pub fn synthetic(n_l: usize, n_u: usize, seed: u64) -> (Matrix, Matrix, Matrix, Matrix) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as f64 / (u32::MAX as f64) * 2.0 - 1.0
        };
        let gen = |n: usize, next: &mut dyn FnMut() -> f64| {
            let mut x = Matrix::zeros(n, 3);
            let mut y = Matrix::zeros(n, 2);
            for i in 0..n {
                let (a, b, c) = (next(), next(), next());
                x.row_mut(i).copy_from_slice(&[a, b, c]);
                let noise = next() * 0.05;
                y[(i, 0)] = 3.0 * a - 2.0 * b + 0.5 * c + noise;
                y[(i, 1)] = 2.0 * a * a + 0.2 * c;
            }
            (x, y)
        };
        let (xl, yl) = gen(n_l, &mut next);
        let (xu, yu) = gen(n_u, &mut next);
        (xl, yl, xu, yu)
    }

    /// MAE of a model on the synthetic problem's first target.
    pub fn model_mae(model: &dyn SsrModel, n_l: usize, n_u: usize, seed: u64) -> f64 {
        let (xl, yl, xu, yu) = synthetic(n_l, n_u, seed);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed };
        task.validate().unwrap();
        let pred = model.fit_predict(&task);
        assert_eq!(pred.rows(), n_u);
        assert_eq!(pred.cols(), 2);
        crate::metrics::mae(yu.transpose().row(0), pred.transpose().row(0))
    }

    /// Baseline MAE of predicting the labeled mean.
    pub fn mean_baseline_mae(n_l: usize, n_u: usize, seed: u64) -> f64 {
        let (_, yl, _, yu) = synthetic(n_l, n_u, seed);
        let mean = yl.transpose().row(0).iter().sum::<f64>() / n_l as f64;
        let preds = vec![mean; n_u];
        crate::metrics::mae(yu.transpose().row(0), &preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_shape_bugs() {
        let x = Matrix::zeros(4, 3);
        let y = Matrix::zeros(4, 2);
        let xu = Matrix::zeros(6, 3);
        let ok =
            SsrTask { x_labeled: &x, y_labeled: &y, x_unlabeled: &xu, adjacency: None, seed: 0 };
        assert!(ok.validate().is_ok());

        let bad_dim = Matrix::zeros(6, 2);
        let t = SsrTask {
            x_labeled: &x,
            y_labeled: &y,
            x_unlabeled: &bad_dim,
            adjacency: None,
            seed: 0,
        };
        assert!(t.validate().is_err());

        let bad_y = Matrix::zeros(3, 2);
        let t = SsrTask {
            x_labeled: &x,
            y_labeled: &bad_y,
            x_unlabeled: &xu,
            adjacency: None,
            seed: 0,
        };
        assert!(t.validate().is_err());

        let empty = Matrix::zeros(0, 3);
        let ey = Matrix::zeros(0, 2);
        let t = SsrTask {
            x_labeled: &empty,
            y_labeled: &ey,
            x_unlabeled: &xu,
            adjacency: None,
            seed: 0,
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn model_kind_builds_all() {
        for kind in ModelKind::ALL {
            let model = kind.build();
            assert_eq!(model.name(), kind.label());
        }
    }
}
