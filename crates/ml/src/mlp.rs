//! Multi-layer perceptron with ReLU hidden layers and Adam.
//!
//! The paper's best-performing model. The low-level [`Net`] exposes single
//! gradient steps and weight access so [`crate::mean_teacher`] can reuse it
//! for consistency training and EMA teachers.
//!
//! A [`Net`] trains inside a workspace it owns: the input batch, every
//! layer's activations, the back-propagated deltas and the gradients. The
//! buffers grow to the largest batch seen and are then reused, so a warm
//! training step does not allocate. The arithmetic is unchanged operation
//! for operation: every product goes through [`Matrix`]'s one kernel,
//! whose summation order (ascending `k`, zero left entries skipped, from
//! `+0.0`) is the plain i-k-j loop's, and bias, ReLU, loss and Adam are
//! elementwise. Weights after N steps, and so every prediction, are bit
//! for bit what the allocating version computed.

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
    ws: Workspace,
}

/// The buffers one forward / backward pass writes.
#[derive(Debug, Clone)]
struct Workspace {
    /// `acts[0]` is the input batch, `acts[l + 1]` layer `l`'s output.
    acts: Vec<Matrix>,
    /// Targets of the batch in `acts[0]`.
    target: Matrix,
    /// dL/d(output of the layer being back-propagated), and the layer below.
    delta: Matrix,
    prev: Matrix,
    /// The transposed weights of the layer being back-propagated.
    wt: Matrix,
    grad_w: Vec<Matrix>,
    grad_b: Vec<Vec<f64>>,
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
        let zeros_like = |ws: &[Matrix]| -> Vec<Matrix> {
            ws.iter().map(|w| Matrix::zeros(w.rows(), w.cols())).collect()
        };
        let ws = Workspace {
            acts: sizes.iter().map(|&d| Matrix::zeros(0, d)).collect(),
            target: Matrix::zeros(0, sizes[sizes.len() - 1]),
            delta: Matrix::zeros(0, 0),
            prev: Matrix::zeros(0, 0),
            wt: Matrix::zeros(0, 0),
            grad_w: zeros_like(&weights),
            grad_b: biases.clone(),
        };
        Net {
            sizes: sizes.to_vec(),
            m_w: zeros_like(&weights),
            v_w: zeros_like(&weights),
            m_b: biases.clone(),
            v_b: biases.clone(),
            weights,
            biases,
            step: 0,
            ws,
        }
    }

    /// Forward pass from the batch in `acts[0]` through every layer.
    fn forward(&mut self) {
        let last = self.weights.len() - 1;
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let (input, rest) = self.ws.acts.split_at_mut(l + 1);
            let z = &mut rest[0];
            input[l].matmul_into(w, z);
            for i in 0..z.rows() {
                for (v, bj) in z.row_mut(i).iter_mut().zip(b) {
                    *v += bj;
                }
            }
            if l < last {
                for v in z.data_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
        }
    }

    /// Predicts outputs for `x`.
    pub fn predict(&mut self, x: &Matrix) -> &Matrix {
        x.copy_into(&mut self.ws.acts[0]);
        self.forward();
        &self.ws.acts[self.weights.len()]
    }

    /// One Adam step on batch `(x, y)` with MSE loss scaled by
    /// `loss_weight`. Returns the (unscaled) batch MSE.
    pub fn train_step(&mut self, x: &Matrix, y: &Matrix, lr: f64, loss_weight: f64) -> f64 {
        x.copy_into(&mut self.ws.acts[0]);
        y.copy_into(&mut self.ws.target);
        self.train_loaded(lr, loss_weight)
    }

    /// [`Net::train_step`] on rows `rows` of `(x, y)`, gathered straight
    /// into the workspace.
    pub fn train_rows(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        rows: &[usize],
        lr: f64,
        loss_weight: f64,
    ) -> f64 {
        x.select_rows_into(rows, &mut self.ws.acts[0]);
        y.select_rows_into(rows, &mut self.ws.target);
        self.train_loaded(lr, loss_weight)
    }

    /// Forward, backward and Adam on the batch loaded into the workspace.
    fn train_loaded(&mut self, lr: f64, loss_weight: f64) -> f64 {
        self.forward();
        let ws = &mut self.ws;
        let (out, y) = (&ws.acts[self.weights.len()], &ws.target);
        assert_eq!((out.rows(), out.cols()), (y.rows(), y.cols()), "target shape");
        let n = ws.acts[0].rows().max(1) as f64;
        let denom = n * y.cols() as f64;
        let mse =
            out.data().iter().zip(y.data()).map(|(o, t)| (o - t) * (o - t)).sum::<f64>() / denom;

        // dL/dOut for L = loss_weight * MSE.
        out.copy_into(&mut ws.delta);
        for (d, t) in ws.delta.data_mut().iter_mut().zip(y.data()) {
            *d = (*d - t) * 2.0 * loss_weight / denom;
        }
        for l in (0..self.weights.len()).rev() {
            ws.acts[l].matmul_at_b_into(&ws.delta, &mut ws.grad_w[l]);
            let gb = &mut ws.grad_b[l];
            gb.fill(0.0);
            for i in 0..ws.delta.rows() {
                for (g, &v) in gb.iter_mut().zip(ws.delta.row(i)) {
                    *g += v;
                }
            }
            if l > 0 {
                // delta · Wᵀ through a copied Wᵀ: contiguous rows make the
                // product ~10 % of a fit faster than reading W strided.
                self.weights[l].transpose_into(&mut ws.wt);
                ws.delta.matmul_into(&ws.wt, &mut ws.prev);
                // ReLU derivative via the stored activation (a > 0 <=> z > 0).
                for (pd, &a) in ws.prev.data_mut().iter_mut().zip(ws.acts[l].data()) {
                    if a <= 0.0 {
                        *pd = 0.0;
                    }
                }
                std::mem::swap(&mut ws.delta, &mut ws.prev);
            }
        }
        self.adam_update(lr);
        mse
    }

    fn adam_update(&mut self, lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.step += 1;
        let t = self.step as f64;
        let corr1 = 1.0 - B1.powf(t);
        let corr2 = 1.0 - B2.powf(t);
        for l in 0..self.weights.len() {
            let (w, g) = (&mut self.weights[l], &self.ws.grad_w[l]);
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
                .zip(&self.ws.grad_b[l])
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

impl SsrModel for MlpRegressor {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn fit_predict(&self, task: &SsrTask<'_>) -> Matrix {
        task.validate().expect("invalid SSR task");
        // Feature scaler fit on L ∪ U (legitimate in the semi-supervised
        // setting: unlabeled features are given).
        let all_x = task.x_labeled.vstack(task.x_unlabeled);
        let xs = StandardScaler::fit(&all_x);
        let ys = StandardScaler::fit(task.y_labeled);
        let xl = xs.transform(task.x_labeled);
        let yl = ys.transform(task.y_labeled);

        let sizes = [xl.cols(), self.hidden[0], self.hidden[1], yl.cols()];
        let mut rng = StdRng::seed_from_u64(task.seed ^ 0x11F);
        let mut net = Net::new(&sizes, &mut rng);
        let mut order: Vec<usize> = (0..xl.rows()).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.batch.max(1)) {
                net.train_rows(&xl, &yl, chunk, self.lr, 1.0);
            }
        }
        ys.inverse_transform(net.predict(&xs.transform(task.x_unlabeled)))
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
