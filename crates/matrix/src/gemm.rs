//! Reference matrix multiplication.
//!
//! A straightforward CPU GEMM used as the functional oracle for the GPU
//! simulator's kernels and as the "unprotected" baseline's semantics. Both a
//! naive triple loop (sequential accumulation — the summation order the
//! rounding model assumes, Eq. 16) and a transposed-B variant for speed on
//! larger oracles.

use crate::dense::Matrix;

/// `C = A · B` with sequential (left-to-right) accumulation per element —
/// the exact summation order the probabilistic model of paper Section IV-B
/// analyses.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use aabft_matrix::{gemm, Matrix};
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
/// let b = Matrix::identity(2);
/// assert_eq!(gemm::multiply(&a, &b), a);
/// ```
pub fn multiply(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree: {:?} x {:?}", a.shape(), b.shape());
    let (m, n, q) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, q);
    // Transpose B once so the inner loop walks contiguous memory; the
    // per-element accumulation order is unchanged (still k = 0..n).
    let bt = b.transpose();
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..q {
            let bcol = bt.row(j);
            let mut s = 0.0;
            for k in 0..n {
                s += arow[k] * bcol[k];
            }
            c[(i, j)] = s;
        }
    }
    c
}

/// `C = A · B` using fused multiply-adds in the inner loop (the FMA
/// execution mode of paper Section IV-D).
pub fn multiply_fma(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree: {:?} x {:?}", a.shape(), b.shape());
    let (m, n, q) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, q);
    let bt = b.transpose();
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..q {
            let bcol = bt.row(j);
            let mut s = 0.0;
            for k in 0..n {
                s = arow[k].mul_add(bcol[k], s);
            }
            c[(i, j)] = s;
        }
    }
    c
}

/// The 2·m·n·q floating-point operation count of a GEMM — the numerator of
/// every GFLOPS figure in the paper's Table I.
pub fn flop_count(m: usize, n: usize, q: usize) -> u64 {
    2 * m as u64 * n as u64 * q as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a: Matrix = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(multiply(&a, &Matrix::identity(4)), a);
        assert_eq!(multiply(&Matrix::identity(4), &a), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0][..], &[7.0, 8.0][..]]);
        let c = multiply(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0][..], &[43.0, 50.0][..]]));
    }

    #[test]
    fn rectangular_shapes() {
        let a: Matrix = Matrix::from_fn(2, 5, |i, j| (i + j) as f64);
        let b: Matrix = Matrix::from_fn(5, 3, |i, j| (i * j) as f64 + 1.0);
        let c = multiply(&a, &b);
        assert_eq!(c.shape(), (2, 3));
        // Spot check c[1][2] = sum_k a[1][k] * b[k][2]
        let expect: f64 = (0..5).map(|k| (1 + k) as f64 * ((k * 2) as f64 + 1.0)).sum();
        assert_eq!(c[(1, 2)], expect);
    }

    #[test]
    fn fma_close_to_separate() {
        let a: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 31 + j * 17) as f64 * 0.013).sin());
        let b: Matrix = Matrix::from_fn(8, 8, |i, j| ((i * 13 + j * 7) as f64 * 0.029).cos());
        let c1 = multiply(&a, &b);
        let c2 = multiply_fma(&a, &b);
        assert!(c1.approx_eq(&c2, 1e-13));
    }

    #[test]
    fn flops() {
        assert_eq!(flop_count(2, 3, 4), 48);
        assert_eq!(flop_count(512, 512, 512), 2 * 512u64.pow(3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a: Matrix = Matrix::zeros(2, 3);
        let b: Matrix = Matrix::zeros(2, 3);
        multiply(&a, &b);
    }
}
