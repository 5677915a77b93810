//! Multi-layer perceptron with ReLU hidden layers and Adam.
//!
//! The paper's best-performing model. The low-level [`Net`] exposes single
//! gradient steps and weight access so [`crate::mean_teacher`] can reuse it
//! for consistency training and EMA teachers.

use crate::linalg::Matrix;
use crate::scaler::StandardScaler;
use crate::ssr::{SsrModel, SsrTask};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A feed-forward network: `sizes[0]` inputs through ReLU hidden layers to
/// `sizes.last()` linear outputs.
#[derive(Debug, Clone)]
pub struct Net {
    sizes: Vec<usize>,
    /// Per layer: `sizes[l] x sizes[l+1]` weight matrix.
    pub(crate) weights: Vec<Matrix>,
    /// Per layer: bias vector of length `sizes[l+1]`.
    pub(crate) biases: Vec<Vec<f64>>,
    // Adam state.
    m_w: Vec<Matrix>,
    v_w: Vec<Matrix>,
    m_b: Vec<Vec<f64>>,
    v_b: Vec<Vec<f64>>,
    step: u64,
}

impl Net {
    /// He-initialized network.
    pub fn new(sizes: &[usize], rng: &mut StdRng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output layers");
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            let scale = (2.0 / fan_in as f64).sqrt();
            let mut w = Matrix::zeros(fan_in, fan_out);
            for v in w.data_mut() {
                *v = rng.random_range(-1.0..1.0) * scale;
            }
            weights.push(w);
            biases.push(vec![0.0; fan_out]);
        }
        let m_w = weights.iter().map(|w| Matrix::zeros(w.rows(), w.cols())).collect();
        let v_w = weights.iter().map(|w| Matrix::zeros(w.rows(), w.cols())).collect();
        let m_b = biases.iter().map(|b| vec![0.0; b.len()]).collect();
        let v_b = biases.iter().map(|b| vec![0.0; b.len()]).collect();
        Net { sizes: sizes.to_vec(), weights, biases, m_w, v_w, m_b, v_b, step: 0 }
    }

    /// Forward pass; returns per-layer activations (activations[0] = input).
    fn forward(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = vec![x.clone()];
        let last = self.weights.len() - 1;
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let mut z = acts[l].matmul(w);
            for i in 0..z.rows() {
                for (v, bj) in z.row_mut(i).iter_mut().zip(b) {
                    *v += bj;
                }
            }
            if l < last {
                z = z.map(|v| v.max(0.0)); // ReLU
            }
            acts.push(z);
        }
        acts
    }

    /// Predicts outputs for `x`.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        self.forward(x).pop().unwrap()
    }

    /// One Adam step on batch `(x, y)` with MSE loss scaled by
    /// `loss_weight`. Returns the (unscaled) batch MSE.
    pub fn train_step(&mut self, x: &Matrix, y: &Matrix, lr: f64, loss_weight: f64) -> f64 {
        let acts = self.forward(x);
        let out = acts.last().unwrap();
        let n = x.rows().max(1) as f64;
        let mse = out.data().iter().zip(y.data()).map(|(o, t)| (o - t) * (o - t)).sum::<f64>()
            / (n * y.cols() as f64);

        // dL/dOut for L = loss_weight * MSE.
        let mut delta =
            out.add_scaled(y, -1.0).map(|v| v * 2.0 * loss_weight / (n * y.cols() as f64));
        let mut grads_w: Vec<Matrix> = Vec::with_capacity(self.weights.len());
        let mut grads_b: Vec<Vec<f64>> = Vec::with_capacity(self.weights.len());
        for l in (0..self.weights.len()).rev() {
            let a_prev = &acts[l];
            grads_w.push(a_prev.transpose().matmul(&delta));
            let mut gb = vec![0.0; delta.cols()];
            for i in 0..delta.rows() {
                for (g, &v) in gb.iter_mut().zip(delta.row(i)) {
                    *g += v;
                }
            }
            grads_b.push(gb);
            if l > 0 {
                let mut prev_delta = delta.matmul(&self.weights[l].transpose());
                // ReLU derivative via the stored activation (a > 0 <=> z > 0).
                for i in 0..prev_delta.rows() {
                    for (pd, &a) in prev_delta.row_mut(i).iter_mut().zip(acts[l].row(i)) {
                        if a <= 0.0 {
                            *pd = 0.0;
                        }
                    }
                }
                delta = prev_delta;
            }
        }
        grads_w.reverse();
        grads_b.reverse();
        self.adam_update(&grads_w, &grads_b, lr);
        mse
    }

    fn adam_update(&mut self, gw: &[Matrix], gb: &[Vec<f64>], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.step += 1;
        let t = self.step as f64;
        let corr1 = 1.0 - B1.powf(t);
        let corr2 = 1.0 - B2.powf(t);
        for l in 0..self.weights.len() {
            let (w, g) = (&mut self.weights[l], &gw[l]);
            let (m, v) = (&mut self.m_w[l], &mut self.v_w[l]);
            for ((wi, gi), (mi, vi)) in w
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mi = B1 * *mi + (1.0 - B1) * gi;
                *vi = B2 * *vi + (1.0 - B2) * gi * gi;
                *wi -= lr * (*mi / corr1) / ((*vi / corr2).sqrt() + EPS);
            }
            for ((bi, gi), (mi, vi)) in self.biases[l]
                .iter_mut()
                .zip(&gb[l])
                .zip(self.m_b[l].iter_mut().zip(self.v_b[l].iter_mut()))
            {
                *mi = B1 * *mi + (1.0 - B1) * gi;
                *vi = B2 * *vi + (1.0 - B2) * gi * gi;
                *bi -= lr * (*mi / corr1) / ((*vi / corr2).sqrt() + EPS);
            }
        }
    }

    /// Exponential-moving-average update of this network's parameters toward
    /// `other`'s: `self = decay * self + (1 - decay) * other`. Panics when
    /// architectures differ.
    pub fn ema_from(&mut self, other: &Net, decay: f64) {
        assert_eq!(self.sizes, other.sizes, "EMA across different architectures");
        for l in 0..self.weights.len() {
            for (a, &b) in self.weights[l].data_mut().iter_mut().zip(other.weights[l].data()) {
                *a = decay * *a + (1.0 - decay) * b;
            }
            for (a, &b) in self.biases[l].iter_mut().zip(&other.biases[l]) {
                *a = decay * *a + (1.0 - decay) * b;
            }
        }
    }
}

/// The MLP regressor with standardization and mini-batch Adam training.
#[derive(Debug, Clone, Copy)]
pub struct MlpRegressor {
    /// Hidden layer widths.
    pub hidden: [usize; 2],
    pub epochs: usize,
    pub lr: f64,
    pub batch: usize,
}

impl Default for MlpRegressor {
    fn default() -> Self {
        MlpRegressor { hidden: [64, 32], epochs: 200, lr: 1e-2, batch: 32 }
    }
}

impl MlpRegressor {
    /// Trains on standardized labeled data and predicts the unlabeled rows.
    /// Exposed separately so Mean Teacher can share the plumbing.
    pub(crate) fn train_net(
        &self,
        task: &SsrTask<'_>,
    ) -> (Net, StandardScaler, StandardScaler, Matrix, Matrix) {
        // Feature scaler fit on L ∪ U (legitimate in the semi-supervised
        // setting: unlabeled features are given).
        let all_x = task.x_labeled.vstack(task.x_unlabeled);
        let xs = StandardScaler::fit(&all_x);
        let ys = StandardScaler::fit(task.y_labeled);
        let xl = xs.transform(task.x_labeled);
        let yl = ys.transform(task.y_labeled);
        let xu = xs.transform(task.x_unlabeled);

        let sizes = [xl.cols(), self.hidden[0], self.hidden[1], yl.cols()];
        let mut rng = StdRng::seed_from_u64(task.seed ^ 0x11F);
        let mut net = Net::new(&sizes, &mut rng);
        let n = xl.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.batch.max(1)) {
                let bx = xl.select_rows(chunk);
                let by = yl.select_rows(chunk);
                net.train_step(&bx, &by, self.lr, 1.0);
            }
        }
        (net, xs, ys, xu, yl)
    }
}

impl SsrModel for MlpRegressor {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn fit_predict(&self, task: &SsrTask<'_>) -> Matrix {
        task.validate().expect("invalid SSR task");
        let (net, _xs, ys, xu, _yl) = self.train_net(task);
        ys.inverse_transform(&net.predict(&xu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssr::fixtures;

    #[test]
    fn loss_decreases_during_training() {
        let (xl, yl, _, _) = fixtures::synthetic(60, 10, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Net::new(&[3, 16, 8, 2], &mut rng);
        let first = net.train_step(&xl, &yl, 1e-2, 1.0);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_step(&xl, &yl, 1e-2, 1.0);
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
    }

    #[test]
    fn fits_nonlinear_target_better_than_ols() {
        // Second target is quadratic; compare on that column.
        let (xl, yl, xu, yu) = fixtures::synthetic(150, 60, 6);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 6 };
        let mlp_pred = MlpRegressor::default().fit_predict(&task);
        let ols_pred = crate::ols::Ols::default().fit_predict(&task);
        let mlp_err = crate::metrics::mae(yu.transpose().row(1), mlp_pred.transpose().row(1));
        let ols_err = crate::metrics::mae(yu.transpose().row(1), ols_pred.transpose().row(1));
        assert!(
            mlp_err < ols_err * 0.8,
            "MLP {mlp_err} should beat OLS {ols_err} on the quadratic target"
        );
    }

    #[test]
    fn beats_mean_baseline() {
        let m = MlpRegressor::default();
        let err = fixtures::model_mae(&m, 80, 40, 3);
        let base = fixtures::mean_baseline_mae(80, 40, 3);
        assert!(err < base * 0.4, "MLP {err} vs baseline {base}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xl, yl, xu, _) = fixtures::synthetic(40, 20, 12);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 5 };
        let a = MlpRegressor::default().fit_predict(&task);
        let b = MlpRegressor::default().fit_predict(&task);
        assert_eq!(a, b);
    }

    #[test]
    fn ema_moves_weights_toward_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Net::new(&[2, 4, 1], &mut rng);
        let b = Net::new(&[2, 4, 1], &mut rng);
        let before = a.weights[0][(0, 0)];
        let target = b.weights[0][(0, 0)];
        a.ema_from(&b, 0.9);
        let after = a.weights[0][(0, 0)];
        assert!((after - (0.9 * before + 0.1 * target)).abs() < 1e-12);
    }

    #[test]
    fn predict_shape() {
        let (xl, yl, xu, _) = fixtures::synthetic(20, 7, 1);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 0 };
        let p = MlpRegressor { epochs: 5, ..Default::default() }.fit_predict(&task);
        assert_eq!((p.rows(), p.cols()), (7, 2));
    }
}
