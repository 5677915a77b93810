//! Graph convolutional network (Kipf & Welling style) over the zone graph.
//!
//! Two graph-convolution layers: `H₁ = ReLU(Â X W₁)`, `Ŷ = Â H₁ W₂`,
//! trained full-batch with Adam on the labeled rows' MSE. The adjacency is
//! the Gaussian-thresholded zone matrix from [`crate::adjacency`], matching
//! the paper's GNN setup (§V-A).

use crate::linalg::Matrix;
use crate::scaler::StandardScaler;
use crate::ssr::{SsrModel, SsrTask};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Two-layer GCN configuration.
#[derive(Debug, Clone, Copy)]
pub struct Gcn {
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f64,
}

impl Default for Gcn {
    fn default() -> Self {
        Gcn { hidden: 32, epochs: 200, lr: 1e-2 }
    }
}

/// Adam state for one parameter matrix.
struct Adam {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl Adam {
    fn new(rows: usize, cols: usize) -> Self {
        Adam { m: Matrix::zeros(rows, cols), v: Matrix::zeros(rows, cols), t: 0 }
    }

    fn step(&mut self, w: &mut Matrix, g: &Matrix, lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let c1 = 1.0 - B1.powf(self.t as f64);
        let c2 = 1.0 - B2.powf(self.t as f64);
        for ((wi, gi), (mi, vi)) in w
            .data_mut()
            .iter_mut()
            .zip(g.data())
            .zip(self.m.data_mut().iter_mut().zip(self.v.data_mut().iter_mut()))
        {
            *mi = B1 * *mi + (1.0 - B1) * gi;
            *vi = B2 * *vi + (1.0 - B2) * gi * gi;
            *wi -= lr * (*mi / c1) / ((*vi / c2).sqrt() + EPS);
        }
    }
}

impl SsrModel for Gcn {
    fn name(&self) -> &'static str {
        "GNN"
    }

    fn fit_predict(&self, task: &SsrTask<'_>) -> Matrix {
        task.validate().expect("invalid SSR task");
        let adj = task.adjacency.expect("GNN requires the zone adjacency in SsrTask::adjacency");
        let n_l = task.x_labeled.rows();
        let n_u = task.x_unlabeled.rows();
        assert_eq!(adj.n(), n_l + n_u, "adjacency rows must cover L then U");

        let all_x = task.x_labeled.vstack(task.x_unlabeled);
        let xs = StandardScaler::fit(&all_x);
        let ys = StandardScaler::fit(task.y_labeled);
        let x = xs.transform(&all_x);
        let yl = ys.transform(task.y_labeled);

        let (d, m) = (x.cols(), yl.cols());
        let mut rng = StdRng::seed_from_u64(task.seed ^ 0x6CC);
        let init = |rows: usize, cols: usize, rng: &mut StdRng| {
            let scale = (2.0 / rows as f64).sqrt();
            let mut w = Matrix::zeros(rows, cols);
            for v in w.data_mut() {
                *v = rng.random_range(-1.0..1.0) * scale;
            }
            w
        };
        let mut w1 = init(d, self.hidden, &mut rng);
        let mut w2 = init(self.hidden, m, &mut rng);
        let mut adam1 = Adam::new(d, self.hidden);
        let mut adam2 = Adam::new(self.hidden, m);

        // Â X is training-constant: hoist it out of the loop.
        let ax = adj.spmm(&x);

        let mut h1 = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        let mut dout = Matrix::zeros(adj.n(), m);
        let mut g_w1 = Matrix::zeros(0, 0);
        let mut g_w2 = Matrix::zeros(0, 0);
        let mut dah1 = Matrix::zeros(0, 0);
        for _ in 0..self.epochs {
            // Forward.
            ax.matmul_into(&w1, &mut h1);
            for v in h1.data_mut() {
                *v = v.max(0.0);
            }
            let ah1 = adj.spmm(&h1);
            ah1.matmul_into(&w2, &mut out);

            // Loss on labeled rows only (the unlabeled rows of `dout` stay 0).
            let scale = 2.0 / (n_l.max(1) * m) as f64;
            for i in 0..n_l {
                for j in 0..m {
                    dout[(i, j)] = (out[(i, j)] - yl[(i, j)]) * scale;
                }
            }

            // Backward. Â is symmetric, so Âᵀ·G = Â·G via spmm.
            ah1.matmul_at_b_into(&dout, &mut g_w2);
            dout.matmul_a_bt_into(&w2, &mut dah1);
            let mut dz1 = adj.spmm(&dah1);
            for i in 0..dz1.rows() {
                for (g, &a) in dz1.row_mut(i).iter_mut().zip(h1.row(i)) {
                    if a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            ax.matmul_at_b_into(&dz1, &mut g_w1);

            adam1.step(&mut w1, &g_w1, self.lr);
            adam2.step(&mut w2, &g_w2, self.lr);
        }

        // Final forward; return the unlabeled block.
        let h1 = ax.matmul(&w1).map(|v| v.max(0.0));
        let out = adj.spmm(&h1).matmul(&w2);
        let idx: Vec<usize> = (n_l..n_l + n_u).collect();
        ys.inverse_transform(&out.select_rows(&idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::SparseAdj;
    use crate::metrics::mae;

    /// Spatially smooth field on a grid: y = f(position). The GCN's
    /// homophily assumption holds, so it must beat the mean baseline.
    fn spatial_problem(
        n: usize,
        n_l: usize,
        seed: u64,
    ) -> (Vec<(f64, f64)>, Matrix, Matrix, Matrix, Matrix) {
        let g = (n as f64).sqrt().ceil() as usize;
        let mut coords = Vec::new();
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        let mut s = seed;
        let mut noise = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 33) as f64 / u32::MAX as f64 - 0.5
        };
        for i in 0..n {
            let (x, y) = ((i % g) as f64 * 100.0, (i / g) as f64 * 100.0);
            coords.push((x, y));
            let f1 = (x / 400.0).sin();
            let f2 = (y / 400.0).cos();
            feats.push(vec![f1, f2, noise() * 0.1]);
            targets.push(vec![3.0 * f1 + 2.0 * f2 + noise() * 0.1, f1 * f2]);
        }
        let xl = Matrix::from_rows(&feats[..n_l]);
        let yl = Matrix::from_rows(&targets[..n_l]);
        let xu = Matrix::from_rows(&feats[n_l..]);
        let yu = Matrix::from_rows(&targets[n_l..]);
        (coords, xl, yl, xu, yu)
    }

    #[test]
    fn beats_mean_baseline_on_spatial_data() {
        let (coords, xl, yl, xu, yu) = spatial_problem(100, 40, 3);
        let adj = SparseAdj::gaussian_threshold(&coords, 8, 1e-4, None);
        let task = SsrTask {
            x_labeled: &xl,
            y_labeled: &yl,
            x_unlabeled: &xu,
            adjacency: Some(&adj),
            seed: 3,
        };
        let pred = Gcn::default().fit_predict(&task);
        let err = mae(yu.transpose().row(0), pred.transpose().row(0));
        let mean = yl.transpose().row(0).iter().sum::<f64>() / yl.rows() as f64;
        let base = mae(yu.transpose().row(0), &vec![mean; yu.rows()]);
        assert!(err < base * 0.6, "GNN {err} vs baseline {base}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (coords, xl, yl, xu, _) = spatial_problem(64, 20, 7);
        let adj = SparseAdj::gaussian_threshold(&coords, 6, 1e-4, None);
        let task = SsrTask {
            x_labeled: &xl,
            y_labeled: &yl,
            x_unlabeled: &xu,
            adjacency: Some(&adj),
            seed: 5,
        };
        let g = Gcn { epochs: 30, ..Default::default() };
        assert_eq!(g.fit_predict(&task), g.fit_predict(&task));
    }

    #[test]
    #[should_panic(expected = "requires the zone adjacency")]
    fn missing_adjacency_panics() {
        let (_, xl, yl, xu, _) = spatial_problem(36, 12, 1);
        let task =
            SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed: 0 };
        Gcn::default().fit_predict(&task);
    }

    #[test]
    fn output_shape() {
        let (coords, xl, yl, xu, _) = spatial_problem(49, 19, 2);
        let adj = SparseAdj::gaussian_threshold(&coords, 6, 1e-4, None);
        let task = SsrTask {
            x_labeled: &xl,
            y_labeled: &yl,
            x_unlabeled: &xu,
            adjacency: Some(&adj),
            seed: 0,
        };
        let p = Gcn { epochs: 5, ..Default::default() }.fit_predict(&task);
        assert_eq!((p.rows(), p.cols()), (30, 2));
    }
}
