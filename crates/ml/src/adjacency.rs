//! Sparse, normalized zone adjacency for the GNN.
//!
//! Per the paper (§V-A): "the adjacency matrix is calculated using the
//! Euclidean distance between each z_i ∈ Z, and then normalized using the
//! Gaussian thresholded approach" — weights `exp(-d²/σ²)` with small values
//! thresholded to zero, here additionally capped to the nearest `max_deg`
//! neighbours per row to keep the matrix sparse at city scale. Stored
//! symmetrically normalized with self-loops: `Â = D^-1/2 (A + I) D^-1/2`.

use serde::{Deserialize, Serialize};

/// A sparse symmetric-normalized adjacency matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseAdj {
    n: usize,
    /// Per row: `(col, weight)` entries including the self-loop.
    rows: Vec<Vec<(u32, f64)>>,
}

impl SparseAdj {
    /// Builds a Gaussian-thresholded adjacency from 2-d coordinates.
    ///
    /// * `sigma` defaults (when `None`) to the mean of each point's distance
    ///   to its `max_deg`-th neighbour — scale-free across city sizes.
    /// * Entries with weight below `threshold` are dropped; each row keeps
    ///   at most `max_deg` strongest neighbours.
    pub fn gaussian_threshold(
        coords: &[(f64, f64)],
        max_deg: usize,
        threshold: f64,
        sigma: Option<f64>,
    ) -> Self {
        let n = coords.len();
        assert!(max_deg >= 1, "max_deg must be >= 1");
        // Candidate neighbours by brute-force partial sort: n is zone count
        // (thousands), and this runs once per pipeline, so O(n² log k) is
        // acceptable and dependency-free.
        let mut nearest: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
        for i in 0..n {
            let (xi, yi) = coords[i];
            let mut ds: Vec<(u32, f64)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| {
                    let (xj, yj) = coords[j];
                    let d2 = (xi - xj).powi(2) + (yi - yj).powi(2);
                    (j as u32, d2)
                })
                .collect();
            ds.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            ds.truncate(max_deg);
            nearest.push(ds);
        }
        let sigma = sigma.unwrap_or_else(|| {
            let sum: f64 =
                nearest.iter().filter_map(|ds| ds.last()).map(|&(_, d2)| d2.sqrt()).sum();
            (sum / n.max(1) as f64).max(1e-9)
        });

        // Raw weights, symmetrized by union (an edge kept by either side).
        let mut weights: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for &(j, d2) in &nearest[i] {
                let w = (-d2 / (sigma * sigma)).exp();
                if w >= threshold {
                    weights[i].push((j, w));
                    weights[j as usize].push((i as u32, w));
                }
            }
        }
        for row in &mut weights {
            row.sort_unstable_by_key(|&(j, _)| j);
            row.dedup_by_key(|e| e.0);
        }

        // Degree with self-loop, then symmetric normalization.
        let deg: Vec<f64> =
            (0..n).map(|i| 1.0 + weights[i].iter().map(|&(_, w)| w).sum::<f64>()).collect();
        let mut rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut row: Vec<(u32, f64)> = Vec::with_capacity(weights[i].len() + 1);
            row.push((i as u32, 1.0 / deg[i])); // self-loop: d^-1/2 * 1 * d^-1/2
            for &(j, w) in &weights[i] {
                row.push((j, w / (deg[i].sqrt() * deg[j as usize].sqrt())));
            }
            row.sort_unstable_by_key(|&(j, _)| j);
            rows.push(row);
        }
        SparseAdj { n, rows }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Non-zeros in row `i` (including the self-loop).
    #[inline]
    pub fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.rows[i]
    }

    /// Sparse-dense product `Â · X` where `x` is row-major `n x d`.
    pub fn spmm(&self, x: &crate::linalg::Matrix) -> crate::linalg::Matrix {
        assert_eq!(x.rows(), self.n, "spmm dimension mismatch");
        let mut out = crate::linalg::Matrix::zeros(self.n, x.cols());
        for i in 0..self.n {
            for &(j, w) in &self.rows[i] {
                let src = x.row(j as usize);
                let dst = out.row_mut(i);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += w * s;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn grid_coords(n: usize) -> Vec<(f64, f64)> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push((i as f64 * 100.0, j as f64 * 100.0));
            }
        }
        v
    }

    #[test]
    fn rows_include_self_loops() {
        let adj = SparseAdj::gaussian_threshold(&grid_coords(3), 4, 1e-4, None);
        for i in 0..adj.n() {
            assert!(adj.row(i).iter().any(|&(j, _)| j as usize == i));
        }
    }

    #[test]
    fn weights_are_positive_and_row_sums_bounded() {
        let adj = SparseAdj::gaussian_threshold(&grid_coords(4), 6, 1e-4, None);
        for i in 0..adj.n() {
            let sum: f64 = adj.row(i).iter().map(|&(_, w)| w).sum();
            assert!(adj.row(i).iter().all(|&(_, w)| w > 0.0));
            // Symmetric normalization bounds the spectral radius by 1; row
            // sums hover near 1 but may exceed it slightly where degrees
            // differ across an edge.
            assert!(sum > 0.0 && sum <= 1.3, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn symmetric_entries() {
        let adj = SparseAdj::gaussian_threshold(&grid_coords(4), 5, 1e-4, None);
        for i in 0..adj.n() {
            for &(j, w) in adj.row(i) {
                let back = adj.row(j as usize).iter().find(|&&(k, _)| k as usize == i);
                let wb = back.expect("missing symmetric entry").1;
                assert!((w - wb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn near_neighbors_weigh_more() {
        let coords = vec![(0.0, 0.0), (100.0, 0.0), (500.0, 0.0)];
        let adj = SparseAdj::gaussian_threshold(&coords, 2, 0.0, Some(300.0));
        let row = adj.row(0);
        let w_near = row.iter().find(|&&(j, _)| j == 1).unwrap().1;
        let w_far = row.iter().find(|&&(j, _)| j == 2).unwrap().1;
        assert!(w_near > w_far);
    }

    #[test]
    fn spmm_identity_behaviour_on_isolated_points() {
        // Points so far apart that all cross weights threshold to zero:
        // Â reduces to I (self-loops of weight 1).
        let coords = vec![(0.0, 0.0), (1e9, 0.0), (0.0, 1e9)];
        let adj = SparseAdj::gaussian_threshold(&coords, 2, 0.5, Some(1.0));
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let y = adj.spmm(&x);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn spmm_averages_over_neighbors() {
        let adj = SparseAdj::gaussian_threshold(&grid_coords(3), 8, 1e-6, None);
        let x = Matrix::column(&[1.0; 9]);
        let y = adj.spmm(&x);
        // With constant input the output is each row's weight sum: positive
        // and near 1 (see `weights_are_positive_and_row_sums_bounded`).
        for &v in y.data() {
            assert!(v > 0.0 && v <= 1.3);
        }
    }

    #[test]
    fn sparsity_cap_respected() {
        let adj = SparseAdj::gaussian_threshold(&grid_coords(5), 4, 0.0, None);
        for i in 0..adj.n() {
            // Union symmetrization can exceed max_deg slightly, but not wildly.
            assert!(adj.row(i).len() <= 2 * 4 + 1);
        }
    }
}
