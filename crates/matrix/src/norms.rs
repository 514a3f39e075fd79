//! Vector and matrix norms.
//!
//! SEA-ABFT (paper Section III, \[28\]) derives its error bounds from 2-norms
//! of the rows and columns involved in each checksum — these are the
//! "compute-intensive evaluation of numerous vector norms" responsible for
//! its runtime overhead. The analytic bounds of Higham/Golub–Van-Loan style
//! analyses use the same ingredients.

use crate::dense::Matrix;

/// Euclidean (2-) norm of a vector.
///
/// # Examples
///
/// ```
/// use aabft_matrix::norms::norm2;
///
/// assert_eq!(norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|&x| x * x).sum::<f64>().sqrt()
}

/// 1-norm of a vector (sum of absolute values).
pub fn norm1(v: &[f64]) -> f64 {
    v.iter().map(|&x| x.abs()).sum()
}

/// ∞-norm of a vector (maximum absolute value).
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().map(|&x| x.abs()).fold(0.0, f64::max)
}

/// Frobenius norm of a matrix.
pub fn frobenius(m: &Matrix) -> f64 {
    m.as_slice().iter().map(|&x| x * x).sum::<f64>().sqrt()
}

/// 2-norms of every row of `m`.
pub fn row_norms2(m: &Matrix) -> Vec<f64> {
    (0..m.rows()).map(|i| norm2(m.row(i))).collect()
}

/// 2-norms of every column of `m`.
pub fn col_norms2(m: &Matrix) -> Vec<f64> {
    (0..m.cols()).map(|j| norm2(&m.col(j))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_norms() {
        let v = [1.0, -2.0, 2.0];
        assert_eq!(norm2(&v), 3.0);
        assert_eq!(norm1(&v), 5.0);
        assert_eq!(norm_inf(&v), 2.0);
    }

    #[test]
    fn empty_vector() {
        let v: [f64; 0] = [];
        assert_eq!(norm2(&v), 0.0);
        assert_eq!(norm1(&v), 0.0);
        assert_eq!(norm_inf(&v), 0.0);
    }

    #[test]
    fn frobenius_matches_flat_norm2() {
        let m: Matrix = Matrix::from_fn(3, 4, |i, j| (i as f64 - j as f64) * 0.7);
        assert!((frobenius(&m) - norm2(m.as_slice())).abs() < 1e-15);
    }

    #[test]
    fn row_col_norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0][..], &[0.0, 4.0][..]]);
        assert_eq!(row_norms2(&m), vec![3.0, 4.0]);
        assert_eq!(col_norms2(&m), vec![3.0, 4.0]);
    }

    #[test]
    fn norms_nonnegative_and_scale() {
        let v = [0.3, -0.9, 1.7, -2.2];
        let scaled: Vec<f64> = v.iter().map(|x| x * -2.0).collect();
        assert!((norm2(&scaled) - 2.0 * norm2(&v)).abs() < 1e-14);
    }
}
