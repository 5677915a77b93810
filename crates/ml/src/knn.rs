//! Minkowski k-NN regression: COREG's base learner.

use crate::linalg::Matrix;

/// A k-nearest-neighbour regressor under a Minkowski-`p` metric.
///
/// Stores its training set; prediction averages the targets of the `k`
/// nearest training rows. COREG instantiates two of these with different
/// `p` orders so the co-trained views disagree usefully (Zhou & Li 2005 use
/// p = 2 and p = 5).
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    pub k: usize,
    /// Minkowski order (2 = Euclidean).
    pub p: f64,
    x: Vec<Vec<f64>>,
    y: Vec<Vec<f64>>,
}

impl KnnRegressor {
    /// New untrained regressor.
    pub fn new(k: usize, p: f64) -> Self {
        assert!(k >= 1, "k must be >= 1");
        assert!(p >= 1.0, "Minkowski order must be >= 1");
        KnnRegressor { k, p, x: Vec::new(), y: Vec::new() }
    }

    /// Replaces the training set.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix) {
        assert_eq!(x.rows(), y.rows());
        self.x = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
        self.y = (0..y.rows()).map(|i| y.row(i).to_vec()).collect();
    }

    /// Adds one training example (used by COREG's incremental labeling).
    pub fn push(&mut self, x: &[f64], y: &[f64]) {
        self.x.push(x.to_vec());
        self.y.push(y.to_vec());
    }

    /// Features of stored training row `i` (used by COREG's selection
    /// criterion, which re-evaluates a candidate's labeled neighbourhood).
    pub fn train_x(&self, i: usize) -> &[f64] {
        &self.x[i]
    }

    /// Targets of stored training row `i`.
    pub fn train_y(&self, i: usize) -> &[f64] {
        &self.y[i]
    }

    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs().powf(self.p)).sum();
        s.powf(1.0 / self.p)
    }

    /// Indices of the `k` nearest training rows to `q` (ascending distance).
    pub fn neighbors(&self, q: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.x.len()).collect();
        let k = self.k.min(idx.len());
        if k == 0 {
            return Vec::new();
        }
        idx.sort_by(|&a, &b| {
            self.dist(q, &self.x[a]).partial_cmp(&self.dist(q, &self.x[b])).unwrap()
        });
        idx.truncate(k);
        idx
    }

    /// Predicts one query row (mean of neighbour targets). Panics when
    /// untrained.
    pub fn predict_one(&self, q: &[f64]) -> Vec<f64> {
        let nb = self.neighbors(q);
        assert!(!nb.is_empty(), "predict on untrained kNN");
        let m = self.y[0].len();
        let mut out = vec![0.0; m];
        for &i in &nb {
            for (o, &v) in out.iter_mut().zip(&self.y[i]) {
                *o += v;
            }
        }
        for o in &mut out {
            *o /= nb.len() as f64;
        }
        out
    }

    /// Predicts a whole matrix of query rows.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let m = self.y.first().map_or(0, |r| r.len());
        let mut out = Matrix::zeros(x.rows(), m);
        for i in 0..x.rows() {
            let p = self.predict_one(x.row(i));
            out.row_mut(i).copy_from_slice(&p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_line(k: usize, p: f64) -> KnnRegressor {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = Matrix::from_rows(&[vec![0.0], vec![10.0], vec![20.0], vec![30.0]]);
        let mut knn = KnnRegressor::new(k, p);
        knn.fit(&x, &y);
        knn
    }

    #[test]
    fn k1_returns_nearest_target() {
        let knn = fit_line(1, 2.0);
        assert_eq!(knn.predict_one(&[1.2]), vec![10.0]);
        assert_eq!(knn.predict_one(&[2.9]), vec![30.0]);
    }

    #[test]
    fn k2_averages() {
        let knn = fit_line(2, 2.0);
        assert_eq!(knn.predict_one(&[1.5]), vec![15.0]);
    }

    #[test]
    fn k_larger_than_train_uses_all() {
        let knn = fit_line(10, 2.0);
        assert_eq!(knn.predict_one(&[0.0]), vec![15.0]);
    }

    #[test]
    fn minkowski_orders_differ_in_2d() {
        // Query equidistant under L2 but not under higher p.
        let x = Matrix::from_rows(&[vec![3.0, 0.0], vec![2.2, 2.2]]);
        let y = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let mut k2 = KnnRegressor::new(1, 2.0);
        let mut k5 = KnnRegressor::new(1, 5.0);
        k2.fit(&x, &y);
        k5.fit(&x, &y);
        let q = [0.0, 0.0];
        // L2: |(3,0)| = 3.0 < |(2.2,2.2)| ≈ 3.11 -> picks first.
        assert_eq!(k2.predict_one(&q), vec![1.0]);
        // L5: 3.0 vs 2.2 * 2^(1/5) ≈ 2.53 -> picks second.
        assert_eq!(k5.predict_one(&q), vec![2.0]);
    }

    #[test]
    fn push_extends_training_set() {
        let mut knn = fit_line(1, 2.0);
        knn.push(&[10.0], &[100.0]);
        assert_eq!(knn.x.len(), 5);
        assert_eq!(knn.predict_one(&[9.0]), vec![100.0]);
    }

    #[test]
    fn matrix_prediction_shape() {
        let knn = fit_line(2, 2.0);
        let q = Matrix::from_rows(&[vec![0.5], vec![2.5]]);
        let out = knn.predict(&q);
        assert_eq!((out.rows(), out.cols()), (2, 1));
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        KnnRegressor::new(0, 2.0);
    }

    /// Brute-force k-nearest reference: independent Minkowski distance,
    /// stable selection sort over (distance, index).
    fn brute_force_neighbors(x: &[Vec<f64>], q: &[f64], k: usize, p: f64) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> = x
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let s: f64 = row.iter().zip(q).map(|(a, b)| (a - b).abs().powf(p)).sum();
                (s.powf(1.0 / p), i)
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, i)| i).collect()
    }

    proptest::proptest! {
        /// `neighbors` returns exactly the brute-force k-nearest — same
        /// indices in the same order — on random feature sets, including
        /// duplicate points (forced ties), k ≥ n, and the degenerate
        /// zero-dimensional feature space where every distance ties at 0.
        #[test]
        fn neighbors_match_brute_force(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0f64..100.0, 0..4), 1..40),
            q_seed in proptest::collection::vec(-120.0f64..120.0, 4),
            k in 1usize..50,
            p_idx in 0usize..3,
        ) {
            let p = [1.0, 2.0, 5.0][p_idx];
            // All rows share the first row's dimension (0..=3 features);
            // duplicates of the first row force exact distance ties.
            let d = rows[0].len();
            let mut x: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.resize(d, 0.0);
                    r
                })
                .collect();
            x.push(x[0].clone());
            x.push(x[0].clone());
            let q = &q_seed[..d];
            let mut knn = KnnRegressor::new(k, p);
            for row in &x {
                knn.push(row, &[0.0]);
            }
            let got = knn.neighbors(q);
            let want = brute_force_neighbors(&x, q, k, p);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
