//! Dense row-major matrices and the small set of operations the models need.
//!
//! Every product — [`Matrix::matmul`], [`Matrix::matmul_into`],
//! [`Matrix::matmul_at_b_into`] and [`Matrix::matmul_a_bt_into`] — runs
//! one kernel, and that kernel keeps one summation-order invariant: output
//! element `(i, j)` is `+0.0` plus `a(i, k) · b(k, j)` for every `k` in
//! ascending order whose left entry is not `== 0.0`, added one at a time.
//! A zero left entry contributes nothing even when its right partner is
//! NaN or ±inf; a NaN left entry is kept. That is the i-k-j loop the
//! models were first trained with, so a faster kernel may change how the
//! terms are scheduled but never which terms are added or in what order:
//! weights and predictions stay bit for bit. No fused multiply-add, no
//! reassociation.

use serde::{Deserialize, Serialize};

/// Output columns the kernel accumulates in registers at once.
const BLOCK: usize = 16;
/// Left entries compacted per pass over a row. A longer row takes several
/// passes, each resuming from the partial sums the previous one stored.
const CHUNK: usize = 128;

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

    /// Reshapes to `rows x cols` of zeros, keeping the allocation.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self * b`. `out` is overwritten and reshaped, reusing its
    /// allocation.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        product(Op::<false>(self), Op::<false>(b), out);
    }

    /// `out = selfᵀ * b`, reading `self` in place instead of transposing it.
    pub fn matmul_at_b_into(&self, b: &Matrix, out: &mut Matrix) {
        product(Op::<true>(self), Op::<false>(b), out);
    }

    /// `out = self * bᵀ`, reading `b` in place instead of transposing it.
    pub fn matmul_a_bt_into(&self, b: &Matrix, out: &mut Matrix) {
        product(Op::<false>(self), Op::<true>(b), out);
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// `out = selfᵀ`, reusing `out`'s allocation.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
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
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(idx, &mut out);
        out
    }

    /// `out` = the selected rows, reusing `out`'s allocation.
    pub(crate) fn select_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.rows = idx.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(idx.len() * self.cols);
        for &i in idx {
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// `out` = a copy of `self`, reusing `out`'s allocation.
    pub(crate) fn copy_into(&self, out: &mut Matrix) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clone_from(&self.data);
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

/// A product operand as the kernel reads it: the matrix itself or, with
/// `T`, its transpose, indexed in place.
#[derive(Clone, Copy)]
struct Op<'a, const T: bool>(&'a Matrix);

impl<const T: bool> Op<'_, T> {
    /// `(rows, cols)` as read.
    fn shape(self) -> (usize, usize) {
        let m = self.0;
        if T {
            (m.cols, m.rows)
        } else {
            (m.rows, m.cols)
        }
    }

    #[inline(always)]
    fn at(self, r: usize, c: usize) -> f64 {
        if T {
            self.0[(c, r)]
        } else {
            self.0[(r, c)]
        }
    }

    /// Columns `j0..j0 + BLOCK` of row `k`.
    #[inline(always)]
    fn block(self, k: usize, j0: usize) -> [f64; BLOCK] {
        if T {
            std::array::from_fn(|t| self.0[(j0 + t, k)])
        } else {
            self.0.row(k)[j0..j0 + BLOCK].try_into().expect("a BLOCK-wide slice")
        }
    }
}

/// The one product kernel: `out = a * b` in the module's summation order.
/// Per output row, the left entries that are not `== 0.0` are compacted in
/// ascending `k` (branch-free, so ReLU-sparse rows cost no mispredicts);
/// then each `1 x BLOCK` column block is summed in registers over them,
/// and the leftover columns by a scalar loop.
fn product<const TA: bool, const TB: bool>(a: Op<'_, TA>, b: Op<'_, TB>, out: &mut Matrix) {
    let ((n, depth), (b_rows, m)) = (a.shape(), b.shape());
    assert_eq!(depth, b_rows, "matmul shape {n}x{depth} * {b_rows}x{m}");
    out.reset(n, m);
    let mut vals = [0.0; CHUNK];
    let mut ks = [0usize; CHUNK];
    for i in 0..n {
        let out_row = out.row_mut(i);
        for k0 in (0..depth).step_by(CHUNK) {
            let mut nnz = 0;
            for k in k0..depth.min(k0 + CHUNK) {
                let v = a.at(i, k);
                vals[nnz] = v;
                ks[nnz] = k;
                nnz += usize::from(v != 0.0);
            }
            let (vals, ks) = (&vals[..nnz], &ks[..nnz]);
            let mut blocks = out_row.chunks_exact_mut(BLOCK);
            for (jb, o) in (&mut blocks).enumerate() {
                let mut acc: [f64; BLOCK] = (*o).try_into().expect("a BLOCK-wide chunk");
                for (&v, &k) in vals.iter().zip(ks) {
                    let r = b.block(k, jb * BLOCK);
                    for t in 0..BLOCK {
                        acc[t] += v * r[t];
                    }
                }
                o.copy_from_slice(&acc);
            }
            let tail = blocks.into_remainder();
            let j0 = m - tail.len();
            for (j, o) in (j0..).zip(tail) {
                for (&v, &k) in vals.iter().zip(ks) {
                    *o += v * b.at(k, j);
                }
            }
        }
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
