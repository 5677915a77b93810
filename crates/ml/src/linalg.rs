//! Dense row-major matrices and the small set of operations the models need.

use serde::{Deserialize, Serialize};

/// A dense `rows x cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from row slices. All rows must share a length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Single-column matrix from a slice.
    pub fn column(v: &[f64]) -> Self {
        Matrix { rows: v.len(), cols: 1, data: v.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw data, row-major.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order: streams over `other`'s rows, cache-friendly.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// `self + alpha * other`, shapes must match.
    pub fn add_scaled(&self, other: &Matrix, alpha: f64) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a + alpha * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Vertical stack: `self` above `other` (same column count).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// New matrix of selected rows.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Appends a constant-1 bias column on the right.
    pub fn with_bias_column(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out[(i, self.cols)] = 1.0;
        }
        out
    }

    /// Solves `self * X = b` for square `self` via Gaussian elimination with
    /// partial pivoting. Returns `None` for a singular system.
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(self.rows, b.rows, "rhs row mismatch");
        let n = self.rows;
        let m = b.cols;
        // Augmented copy.
        let mut a = self.clone();
        let mut x = b.clone();
        for col in 0..n {
            // Pivot.
            let mut piv = col;
            let mut best = a[(col, col)].abs();
            for r in col + 1..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if piv != col {
                for j in 0..n {
                    let tmp = a[(col, j)];
                    a[(col, j)] = a[(piv, j)];
                    a[(piv, j)] = tmp;
                }
                for j in 0..m {
                    let tmp = x[(col, j)];
                    x[(col, j)] = x[(piv, j)];
                    x[(piv, j)] = tmp;
                }
            }
            // Eliminate below.
            let pivval = a[(col, col)];
            for r in col + 1..n {
                let f = a[(r, col)] / pivval;
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[(r, j)] -= f * a[(col, j)];
                }
                for j in 0..m {
                    x[(r, j)] -= f * x[(col, j)];
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let pivval = a[(col, col)];
            for j in 0..m {
                x[(col, j)] /= pivval;
            }
            for r in 0..col {
                let f = a[(r, col)];
                if f == 0.0 {
                    continue;
                }
                for j in 0..m {
                    x[(r, j)] -= f * x[(col, j)];
                }
            }
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.5, -2.0, 3.0], vec![0.0, 4.0, 5.0]]);
        let i = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b = Matrix::column(&[5.0, 10.0]);
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let b = Matrix::column(&[1.0, 2.0]);
        assert!(a.solve(&b).is_none());
    }

    #[test]
    fn solve_multiple_rhs() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![6.0, 9.0], vec![4.0, 8.0]]);
        let x = a.solve(&b).unwrap();
        assert_eq!(x.row(0), &[2.0, 3.0]);
        assert_eq!(x.row(1), &[2.0, 4.0]);
    }

    #[test]
    fn solve_verifies_by_multiplication() {
        // Moderately sized random-ish SPD system.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        let mut s = 1u64;
        for i in 0..n {
            for j in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                a[(i, j)] += ((s >> 33) as f64 / u32::MAX as f64 - 0.5) * 0.3;
            }
            a[(i, i)] += 4.0;
        }
        let b = Matrix::column(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        let x = a.solve(&b).unwrap();
        let r = a.matmul(&x).add_scaled(&b, -1.0);
        assert!(r.data().iter().all(|v| v.abs() < 1e-9), "residual {r:?}");
    }

    #[test]
    fn stacking_and_selection() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let v = a.vstack(&b);
        assert_eq!(v.rows(), 3);
        let sel = v.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[5.0, 6.0]);
        assert_eq!(sel.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn bias_column_appended() {
        let a = Matrix::from_rows(&[vec![2.0], vec![3.0]]);
        let ab = a.with_bias_column();
        assert_eq!(ab.row(0), &[2.0, 1.0]);
        assert_eq!(ab.row(1), &[3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
