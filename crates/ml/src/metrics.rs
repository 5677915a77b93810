//! Evaluation metrics (paper §V-A): MAE, Pearson correlation, accuracy.

/// Mean absolute error between equal-length slices. Panics on length
/// mismatch or empty input — both indicate a pipeline bug, not data.
pub fn mae(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "mae length mismatch");
    assert!(!truth.is_empty(), "mae of empty slice");
    truth.iter().zip(pred).map(|(t, p)| (t - p).abs()).sum::<f64>() / truth.len() as f64
}

/// Pearson correlation coefficient. Returns 0 when either side has zero
/// variance (the correlation is undefined; 0 is the conservative report for
/// a model that predicted a constant).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson length mismatch");
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va < 1e-18 || vb < 1e-18 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Fraction of positions where the two label slices agree.
pub fn accuracy<T: PartialEq>(truth: &[T], pred: &[T]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "accuracy length mismatch");
    assert!(!truth.is_empty(), "accuracy of empty slice");
    truth.iter().zip(pred).filter(|(t, p)| t == p).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_known() {
        assert_eq!(mae(&[1.0, 2.0, 3.0], &[1.0, 4.0, 0.0]), (0.0 + 2.0 + 3.0) / 3.0);
        assert_eq!(mae(&[5.0], &[5.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let pos: Vec<f64> = a.iter().map(|x| 2.0 * x + 1.0).collect();
        let neg: Vec<f64> = a.iter().map(|x| -3.0 * x).collect();
        assert!((pearson(&a, &pos) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&a, &b).abs() < 0.5);
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3, 4], &[1, 0, 3, 0]), 0.5);
        assert_eq!(accuracy(&["a"], &["a"]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        mae(&[1.0], &[1.0, 2.0]);
    }
}
