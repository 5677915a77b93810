//! Property tests for the ML crate: linear-algebra identities, metric
//! bounds, scaler round-trips, and fairness-free invariants of the models.

use proptest::prelude::*;
use staq_ml::linalg::Matrix;
use staq_ml::metrics::{mae, pearson};
use staq_ml::scaler::StandardScaler;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-100.0f64..100.0, rows * cols).prop_map(move |v| {
        let mut m = Matrix::zeros(rows, cols);
        m.data_mut().copy_from_slice(&v);
        m
    })
}

/// The product loop every model was first trained with, kept verbatim as
/// the kernel's reference: i-k-j, a left entry `== 0.0` skipped, each term
/// added straight into the output row.
fn ikj_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let v = a[(i, k)];
            if v == 0.0 {
                continue;
            }
            for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                *o += v * bv;
            }
        }
    }
    out
}

/// About half exact zeros and a twentieth `-0.0`; the rest finite, over
/// 40 binary orders of magnitude so that any change of summation order
/// shows in the low bits.
fn kernel_matrix(rows: usize, cols: usize, s: &mut u64) -> Matrix {
    let mut next = || {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *s >> 11
    };
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = match next() % 20 {
            0..=9 => 0.0,
            10 => -0.0,
            _ => {
                let unit = (next() % (1 << 40)) as f64 / (1u64 << 40) as f64 - 0.5;
                unit * 2f64.powi((next() % 41) as i32 - 20)
            }
        };
    }
    m
}

/// Equal bit for bit, except that any NaN matches any NaN: Rust leaves NaN
/// payloads unspecified, so two compilations of one sum may differ there.
fn same_bits(got: &Matrix, want: &Matrix) -> bool {
    (got.rows(), got.cols()) == (want.rows(), want.cols())
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// Output widths around the kernel's 16-column register block.
const KERNEL_COLS: [usize; 7] = [1, 2, 15, 16, 17, 33, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matmul` and the three `_into` products equal the i-k-j loop bit for
    /// bit, including a zero left entry facing NaN / ±inf and depths that
    /// need more than one compaction pass.
    #[test]
    fn products_match_the_ikj_loop_bit_for_bit(
        seed in 0u64..u64::MAX,
        rows in 1usize..6,
        depth in 0usize..300,
        specials in 0usize..4,
    ) {
        let mut s = seed;
        for cols in KERNEL_COLS {
            let a = kernel_matrix(rows, depth, &mut s);
            let mut b = kernel_matrix(depth, cols, &mut s);
            for t in 0..specials {
                if depth > 0 {
                    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][t % 3];
                    let k = (s.rotate_left(7 * t as u32) as usize) % depth;
                    b[(k, (t * 5) % cols)] = special;
                }
            }
            let want = ikj_reference(&a, &b);
            // A dirty, wrongly shaped output buffer must not leak through.
            let dirty = || {
                let mut m = Matrix::zeros(cols + 1, rows + 2);
                m.data_mut().fill(f64::NAN);
                m
            };

            prop_assert!(same_bits(&a.matmul(&b), &want), "matmul {rows}x{depth}x{cols}");
            let mut out = dirty();
            a.matmul_into(&b, &mut out);
            prop_assert!(same_bits(&out, &want), "matmul_into {rows}x{depth}x{cols}");
            let mut out = dirty();
            a.transpose().matmul_at_b_into(&b, &mut out);
            prop_assert!(same_bits(&out, &want), "matmul_at_b_into {rows}x{depth}x{cols}");
            let mut out = dirty();
            a.matmul_a_bt_into(&b.transpose(), &mut out);
            prop_assert!(same_bits(&out, &want), "matmul_a_bt_into {rows}x{depth}x{cols}");
        }
    }

    #[test]
    fn matmul_associates(a in small_matrix(3, 4), b in small_matrix(4, 2), c in small_matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn transpose_of_product_swaps(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_inverts_well_conditioned_systems(mut a in small_matrix(4, 4), b in small_matrix(4, 2)) {
        // Diagonal dominance guarantees solvability.
        for i in 0..4 {
            let row_sum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
            a[(i, i)] += row_sum + 1.0;
        }
        let x = a.solve(&b).expect("diagonally dominant");
        let residual = a.matmul(&x).add_scaled(&b, -1.0);
        prop_assert!(residual.data().iter().all(|v| v.abs() < 1e-6), "residual {residual:?}");
    }

    #[test]
    fn scaler_roundtrips(x in small_matrix(6, 3)) {
        let s = StandardScaler::fit(&x);
        let back = s.inverse_transform(&s.transform(&x));
        for (a, b) in x.data().iter().zip(back.data()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn pearson_bounded(a in proptest::collection::vec(-100.0f64..100.0, 2..40)) {
        let b: Vec<f64> = a.iter().map(|v| v * 0.7 + 3.0).collect();
        let r = pearson(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
    }

    #[test]
    fn mae_is_nonnegative_and_zero_on_identity(pairs in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..30)) {
        let t: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let p: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let m = mae(&t, &p);
        prop_assert!(m >= 0.0);
        // Identity: zero error on identical inputs.
        prop_assert_eq!(mae(&t, &t), 0.0);
    }

    #[test]
    fn ols_is_translation_equivariant(seed in 0u64..1000) {
        // Shifting all targets by c shifts all predictions by c.
        use staq_ml::ols::Ols;
        use staq_ml::ssr::{SsrModel, SsrTask};
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 33) as f64 / u32::MAX as f64
        };
        let n = 20;
        let mut xl = Matrix::zeros(n, 2);
        let mut yl = Matrix::zeros(n, 1);
        for i in 0..n {
            let (a, b) = (rnd(), rnd());
            xl[(i, 0)] = a;
            xl[(i, 1)] = b;
            yl[(i, 0)] = 2.0 * a - b + rnd() * 0.01;
        }
        let xu = Matrix::from_rows(&[vec![rnd(), rnd()], vec![rnd(), rnd()]]);
        let shift = 17.5;
        let y_shifted = yl.map(|v| v + shift);
        let t1 = SsrTask { x_labeled: &xl, y_labeled: &yl, x_unlabeled: &xu, adjacency: None, seed };
        let t2 = SsrTask { x_labeled: &xl, y_labeled: &y_shifted, x_unlabeled: &xu, adjacency: None, seed };
        let p1 = Ols::default().fit_predict(&t1);
        let p2 = Ols::default().fit_predict(&t2);
        for (a, b) in p1.data().iter().zip(p2.data()) {
            // Exact OLS is translation-equivariant; the tiny ridge also
            // shrinks the intercept, leaving an O(ridge/n · shift) residual.
            prop_assert!((b - a - shift).abs() < 1e-4, "{b} vs {a} + {shift}");
        }
    }
}
