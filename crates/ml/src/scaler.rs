//! Feature standardization: zero mean, unit variance per column.

use crate::linalg::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted per-column standardizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    mean: Vec<f64>,
    /// Standard deviation, floored at a small epsilon so constant columns
    /// scale to zero rather than NaN.
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits on `x`'s columns.
    pub fn fit(x: &Matrix) -> Self {
        let (n, d) = (x.rows(), x.cols());
        let mut mean = vec![0.0; d];
        for i in 0..n {
            for (j, &v) in x.row(i).iter().enumerate() {
                mean[j] += v;
            }
        }
        for m in &mut mean {
            *m /= n.max(1) as f64;
        }
        let mut var = vec![0.0; d];
        for i in 0..n {
            for (j, &v) in x.row(i).iter().enumerate() {
                let dv = v - mean[j];
                var[j] += dv * dv;
            }
        }
        let std = var.iter().map(|&v| (v / n.max(1) as f64).sqrt().max(1e-9)).collect();
        StandardScaler { mean, std }
    }

    /// Standardizes a matrix with this scaler's statistics.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.mean.len(), "scaler dimension mismatch");
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v - self.mean[j]) / self.std[j];
            }
        }
        out
    }

    /// Undoes [`StandardScaler::transform`].
    pub fn inverse_transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.mean.len(), "scaler dimension mismatch");
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = *v * self.std[j] + self.mean[j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 60.0]]);
        let s = StandardScaler::fit(&x);
        let z = s.transform(&x);
        for j in 0..2 {
            let zt = z.transpose();
            let col = zt.row(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_roundtrips() {
        let x = Matrix::from_rows(&[vec![1.0, -5.0], vec![2.5, 7.0], vec![9.0, 0.0]]);
        let s = StandardScaler::fit(&x);
        let back = s.inverse_transform(&s.transform(&x));
        for (a, b) in x.data().iter().zip(back.data()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_does_not_nan() {
        let x = Matrix::from_rows(&[vec![4.0], vec![4.0], vec![4.0]]);
        let s = StandardScaler::fit(&x);
        let z = s.transform(&x);
        assert!(z.data().iter().all(|v| v.is_finite()));
        assert!(z.data().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn transform_uses_fit_statistics_not_input() {
        let train = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let s = StandardScaler::fit(&train);
        let other = Matrix::from_rows(&[vec![5.0]]);
        let z = s.transform(&other);
        assert!(z[(0, 0)].abs() < 1e-12, "5 is the train mean");
    }
}
