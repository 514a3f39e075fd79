//! Dense row-major matrices.
//!
//! The minimal dense-matrix container used throughout the reproduction:
//! checksum-encoded matrices, GPU-simulator buffers and oracles all build on
//! it. Deliberately small — this is a substrate, not a linear-algebra
//! library.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major binary64 matrix.
///
/// # Examples
///
/// ```
/// use aabft_matrix::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.col(1), vec![2.0, 4.0]);
/// ```
// Generic with an f64 default only so that the spelling `Matrix<f64>` keeps
// compiling; every impl is f64. The accessors are `#[inline]` so that other
// crates' element loops still inline them, as they did while generic.
#[derive(Clone, PartialEq)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its backing storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a vector (columns are strided in row-major
    /// storage, so a borrow is not possible).
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Extracts the `block_rows × block_cols` sub-matrix whose top-left
    /// corner is at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, row0: usize, col0: usize, block_rows: usize, block_cols: usize) -> Matrix {
        assert!(row0 + block_rows <= self.rows && col0 + block_cols <= self.cols,
            "block [{row0}+{block_rows}, {col0}+{block_cols}] out of bounds {:?}", self.shape());
        Matrix::from_fn(block_rows, block_cols, |i, j| self[(row0 + i, col0 + j)])
    }

    /// Writes `block` into this matrix at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, row0: usize, col0: usize, block: &Matrix) {
        assert!(row0 + block.rows <= self.rows && col0 + block.cols <= self.cols,
            "block [{row0}+{}, {col0}+{}] out of bounds {:?}", block.rows, block.cols, self.shape());
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(row0 + i, col0 + j)] = block[(i, j)];
            }
        }
    }

    /// Pads the matrix with zeros so both dimensions become multiples of
    /// `multiple` (the block-based kernels require this; Alg. 1 operates on
    /// a "padded matrix A").
    ///
    /// Returns `self` unchanged if already aligned.
    pub fn pad_to_multiple(&self, multiple: usize) -> Matrix {
        assert!(multiple > 0, "padding multiple must be positive");
        let pr = self.rows.div_ceil(multiple) * multiple;
        let pc = self.cols.div_ceil(multiple) * multiple;
        if pr == self.rows && pc == self.cols {
            return self.clone();
        }
        let mut out = Matrix::zeros(pr, pc);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
        }
        out
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` if every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|&a| a.abs()).fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds {:?}", self.shape());
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds {:?}", self.shape());
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m: Matrix = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.col(2), vec![3., 6.]);
    }

    #[test]
    fn identity() {
        let i: Matrix = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m: Matrix = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn block_round_trip() {
        let m: Matrix = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(2, 3, 2, 2);
        assert_eq!(b[(0, 0)], m[(2, 3)]);
        let mut n: Matrix = Matrix::zeros(6, 6);
        n.set_block(2, 3, &b);
        assert_eq!(n[(3, 4)], m[(3, 4)]);
        assert_eq!(n[(0, 0)], 0.0);
    }

    #[test]
    fn padding() {
        let m: Matrix = Matrix::from_fn(5, 7, |i, j| (i + j) as f64 + 1.0);
        let p = m.pad_to_multiple(4);
        assert_eq!(p.shape(), (8, 8));
        assert_eq!(p[(4, 6)], m[(4, 6)]);
        assert_eq!(p[(5, 0)], 0.0);
        assert_eq!(p[(0, 7)], 0.0);
        // Already aligned: unchanged.
        let q = p.pad_to_multiple(4);
        assert_eq!(q, p);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a: Matrix = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut b = a.clone();
        b[(1, 1)] += 1e-12;
        assert!(a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&b, 1e-14));
        // The stored difference is fl(2 + 1e-12) - 2, within an ulp of 1e-12.
        assert!((a.max_abs_diff(&b) - 1e-12).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m: Matrix = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let _: Matrix = Matrix::zeros(0, 3);
    }
}
