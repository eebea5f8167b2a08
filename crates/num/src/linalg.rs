//! Dense row-major matrices with the operations needed for Gaussian-process
//! regression: products, transpose, Cholesky factorization and triangular
//! solves.
//!
//! [`Cholesky`] stores its lower-triangular factor packed row by row, so row
//! `i` is one contiguous slice of `i + 1` entries and the factor takes half
//! the memory of a square matrix. It is built one row at a time:
//! [`Cholesky::push_row`] runs the Cholesky–Banachiewicz row loop on one new
//! row. That loop reads only the rows above, so appending row `n` to the
//! factor of the leading `n × n` block gives, bit for bit, the factor a
//! from-scratch [`Matrix::cholesky`] computes — which is itself `n` pushes.
//! A GP whose training set grows by one point therefore extends its factor
//! in `O(n²)` instead of refactoring in `O(n³)`.
//!
//! [`Cholesky::solve_lower_block`] runs forward substitution on a block of
//! right-hand sides at once: every column sees exactly the operations
//! [`Cholesky::solve_lower`] would apply to it, in the same order, but the
//! columns are independent, so the solve is no longer one dependent chain.

use crate::NumError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major, `f64` matrix.
///
/// # Examples
///
/// ```
/// use lens_num::linalg::Matrix;
///
/// # fn main() -> Result<(), lens_num::NumError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::RaggedRows`] if the rows have differing lengths.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, NumError> {
        let ncols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            let r = r.as_ref();
            if r.len() != ncols {
                return Err(NumError::RaggedRows {
                    expected: ncols,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a closure over `(row, col)` indices.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when the inner dimensions
    /// differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, NumError> {
        if self.cols != rhs.rows {
            return Err(NumError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, NumError> {
        if v.len() != self.cols {
            return Err(NumError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), v)).collect())
    }

    /// Adds `value` to every diagonal element (in place), returning `self`.
    ///
    /// Used to apply jitter / noise variance to kernel Gram matrices.
    pub fn add_diagonal(mut self, value: f64) -> Matrix {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
        self
    }

    /// Computes the Cholesky factorization `A = L Lᵀ` of a symmetric
    /// positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NotPositiveDefinite`] if a pivot is not strictly
    /// positive (or is NaN), and [`NumError::DimensionMismatch`] if the
    /// matrix is not square. Only the lower triangle of `self` is read.
    pub fn cholesky(&self) -> Result<Cholesky, NumError> {
        if self.rows != self.cols {
            return Err(NumError::DimensionMismatch {
                op: "cholesky",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        let mut chol = Cholesky::with_capacity(self.rows);
        for i in 0..self.rows {
            chol.push_row(&self.row(i)[..=i])?;
        }
        Ok(chol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] + rhs[(i, j)])
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - rhs[(i, j)])
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] * s)
    }
}

/// The lower-triangular Cholesky factor of a symmetric positive-definite
/// matrix, stored packed row by row, together with the solve routines GP
/// regression needs. The default value is the factor of the empty matrix,
/// which [`push_row`](Self::push_row) grows.
///
/// # Examples
///
/// ```
/// use lens_num::linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), lens_num::NumError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let chol = a.cholesky()?;
/// // log|A| = 2 * sum(log diag(L)); |A| = 3 here.
/// assert!((chol.log_det() - 3f64.ln()).abs() < 1e-12);
///
/// // Growing the factor row by row gives the same factor.
/// let mut grown = Cholesky::default();
/// grown.push_row(&[2.0])?;
/// grown.push_row(&[1.0, 2.0])?;
/// assert_eq!(grown, chol);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cholesky {
    dim: usize,
    /// Row `i` of `L` (its `i + 1` entries up to the diagonal) starts at
    /// offset `i (i + 1) / 2`.
    packed: Vec<f64>,
}

#[allow(clippy::needless_range_loop)]
impl Cholesky {
    /// An empty factor with room for `rows` rows before it reallocates.
    pub fn with_capacity(rows: usize) -> Self {
        Cholesky {
            dim: 0,
            packed: Vec::with_capacity(rows * (rows + 1) / 2),
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` of `L`: its `i + 1` entries up to and including the
    /// diagonal.
    fn row(&self, i: usize) -> &[f64] {
        &self.packed[i * (i + 1) / 2..][..=i]
    }

    /// Extends the factor of the leading `n × n` block of a symmetric
    /// positive-definite matrix to the `(n + 1) × (n + 1)` block, given that
    /// block's last row up to the diagonal (`row.len() == n + 1`).
    ///
    /// The new row is computed with the row loop of a from-scratch
    /// factorization, so the result is bit-identical to factoring the
    /// larger block directly.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `row` does not have
    /// `dim() + 1` entries, and [`NumError::NotPositiveDefinite`] if the new
    /// pivot is not strictly positive (or is NaN). On error the factor is
    /// unchanged.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), NumError> {
        let i = self.dim;
        if row.len() != i + 1 {
            return Err(NumError::DimensionMismatch {
                op: "push_row",
                lhs: (i + 1, i + 1),
                rhs: (1, row.len()),
            });
        }
        let start = self.packed.len();
        self.packed.reserve(i + 1);
        for j in 0..i {
            let lj = self.row(j);
            let mut sum = row[j];
            for (lik, ljk) in self.packed[start..].iter().zip(lj) {
                sum -= lik * ljk;
            }
            let lij = sum / lj[j];
            self.packed.push(lij);
        }
        let mut sum = row[i];
        for lik in &self.packed[start..] {
            sum -= lik * lik;
        }
        if sum.is_nan() || sum <= 0.0 {
            self.packed.truncate(start);
            return Err(NumError::NotPositiveDefinite { pivot: i });
        }
        self.packed.push(sum.sqrt());
        self.dim += 1;
        Ok(())
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// (Indexed loops are intentional: triangular solves read `L` by
    /// (row, col) and the textbook form is clearer than iterator chains.)
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factor dimension.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch in solve_lower");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let li = self.row(i);
            let mut sum = b[i];
            for k in 0..i {
                sum -= li[k] * y[k];
            }
            y[i] = sum / li[i];
        }
        y
    }

    /// Solves `L Y = B` in place for `W` right-hand sides at once; row `i`
    /// of `b` holds entry `i` of every column.
    ///
    /// Each column goes through exactly the operations
    /// [`solve_lower`](Self::solve_lower) applies to it, in the same order,
    /// so every column of the result is bit-identical to a one-column
    /// solve. The columns are independent of one another, which lets the
    /// `W` running sums proceed side by side.
    ///
    /// Rows are substituted two per pass: rows `i` and `i + 1` share one
    /// sweep over the solved rows `k < i`, then row `i + 1` subtracts its
    /// `k = i` term once row `i` is solved. Each row still subtracts its
    /// terms in order of `k`. An odd last row is substituted alone.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factor dimension.
    pub fn solve_lower_block<const W: usize>(&self, b: &mut [[f64; W]]) {
        assert_eq!(
            b.len(),
            self.dim(),
            "rhs length mismatch in solve_lower_block"
        );
        let mut i = 0;
        while i + 1 < b.len() {
            let (l0, l1) = (self.row(i), self.row(i + 1));
            let (solved, rest) = b.split_at_mut(i);
            let (mut sum0, mut sum1) = (rest[0], rest[1]);
            for ((l0k, l1k), yk) in l0.iter().zip(l1).zip(solved.iter()) {
                for c in 0..W {
                    sum0[c] -= l0k * yk[c];
                    sum1[c] -= l1k * yk[c];
                }
            }
            for c in 0..W {
                rest[0][c] = sum0[c] / l0[i];
                sum1[c] -= l1[i] * rest[0][c];
                rest[1][c] = sum1[c] / l1[i + 1];
            }
            i += 2;
        }
        if i < b.len() {
            let li = self.row(i);
            let (solved, rest) = b.split_at_mut(i);
            let mut sum = rest[0];
            for (lik, yk) in li.iter().zip(solved.iter()) {
                for c in 0..W {
                    sum[c] -= lik * yk[c];
                }
            }
            for c in 0..W {
                rest[0][c] = sum[c] / li[i];
            }
        }
    }

    /// Solves `Lᵀ x = y` by backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the factor dimension.
    fn solve_upper_transpose(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "rhs length mismatch in solve_upper_transpose");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.row(k)[i] * x[k];
            }
            x[i] = sum / self.row(i)[i];
        }
        x
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factor dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper_transpose(&self.solve_lower(b))
    }

    /// Log-determinant of the factored matrix, `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.row(i)[i].ln()).sum::<f64>() * 2.0
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_matmul_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ragged_rows_error() {
        let r = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(
            r.unwrap_err(),
            NumError::RaggedRows {
                expected: 2,
                found: 1
            }
        );
    }

    /// The Frobenius norm, for residual checks.
    fn frobenius_norm(m: &Matrix) -> f64 {
        m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// The factor as a square lower-triangular matrix.
    fn lower(chol: &Cholesky) -> Matrix {
        let n = chol.dim();
        Matrix::from_fn(n, n, |i, j| if j <= i { chol.row(i)[j] } else { 0.0 })
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The textbook square-storage Cholesky–Banachiewicz loop, the
    /// reference the packed factor must reproduce bit for bit.
    fn textbook_cholesky(a: &Matrix) -> Vec<f64> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = if i == j { sum.sqrt() } else { sum / l[(j, j)] };
            }
        }
        (0..n).flat_map(|i| l.row(i)[..=i].to_vec()).collect()
    }

    /// A random SPD matrix `BᵀB + εI` of order `n`.
    fn spd(entries: &[f64], n: usize) -> Matrix {
        let b = Matrix::from_fn(n + 2, n, |i, j| entries[(i * n + j) % entries.len()]);
        b.transpose().matmul(&b).unwrap().add_diagonal(1e-3)
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let l = lower(&a.cholesky().unwrap());
        let reconstructed = l.matmul(&l.transpose()).unwrap();
        assert!(frobenius_norm(&(&reconstructed - &a)) < 1e-9);
        // Known factor from the classic example.
        assert_eq!(l[(0, 0)], 2.0);
        assert_eq!(l[(1, 0)], 6.0);
        assert_eq!(l[(2, 2)], 3.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(NumError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn cholesky_rejects_a_nan_pivot() {
        let a = Matrix::from_rows(&[&[f64::NAN]]).unwrap();
        assert_eq!(
            a.cholesky().unwrap_err(),
            NumError::NotPositiveDefinite { pivot: 0 }
        );
        let b = Matrix::from_rows(&[&[4.0, 0.0], &[f64::NAN, 1.0]]).unwrap();
        assert_eq!(
            b.cholesky().unwrap_err(),
            NumError::NotPositiveDefinite { pivot: 1 }
        );
    }

    #[test]
    fn failed_push_leaves_the_factor_unchanged() {
        let mut chol = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])
            .unwrap()
            .cholesky()
            .unwrap();
        let before = chol.clone();
        for bad in [[1.0, 1.0, f64::NAN], [2.0, 1.0, 0.5], [1.0, f64::NAN, 9.0]] {
            assert_eq!(
                chol.push_row(&bad).unwrap_err(),
                NumError::NotPositiveDefinite { pivot: 2 }
            );
            assert_eq!(chol, before);
        }
        assert!(matches!(
            chol.push_row(&[1.0, 1.0]),
            Err(NumError::DimensionMismatch { .. })
        ));
        assert_eq!(chol, before);
        chol.push_row(&[1.0, 1.0, 9.0]).unwrap();
        assert_eq!(chol.dim(), 3);
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.cholesky(),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        let x = chol.solve(&[10.0, 8.0]);
        let back = a.matvec(&x).unwrap();
        assert!((back[0] - 10.0).abs() < 1e-12);
        assert!((back[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn log_det_matches_direct_computation() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        assert!((chol.log_det() - 16f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn add_diagonal_adds_jitter() {
        let a = Matrix::zeros(3, 3).add_diagonal(0.5);
        for i in 0..3 {
            assert_eq!(a[(i, i)], 0.5);
        }
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }

    proptest! {
        /// For random SPD matrices A = BᵀB + εI, Cholesky must succeed and
        /// solving must invert the product.
        #[test]
        fn prop_cholesky_solves_spd(seed_rows in proptest::collection::vec(
            proptest::collection::vec(-3.0f64..3.0, 4), 4..=8)) {
            let b = Matrix::from_rows(&seed_rows).unwrap();
            let a = b.transpose().matmul(&b).unwrap().add_diagonal(1e-3);
            // a is 4x4 SPD.
            let chol = a.cholesky().unwrap();
            let rhs: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
            let x = chol.solve(&rhs);
            let back = a.matvec(&x).unwrap();
            for (bi, ri) in back.iter().zip(&rhs) {
                prop_assert!((bi - ri).abs() < 1e-6, "residual too large: {} vs {}", bi, ri);
            }
        }

        /// A factor grown one `push_row` at a time from the empty factor,
        /// and its solves and log-determinant, are bit-identical to those
        /// of `Matrix::cholesky` at every size along the way, and both
        /// match the textbook square-storage loop.
        #[test]
        fn prop_grown_factor_is_bit_identical_to_cholesky(
            entries in proptest::collection::vec(-3.0f64..3.0, 1..=40),
            n in 1usize..=12,
            rhs in proptest::collection::vec(-5.0f64..5.0, 12),
        ) {
            let a = spd(&entries, n);
            let mut grown = Cholesky::default();
            for m in 1..=n {
                grown.push_row(&a.row(m - 1)[..m]).unwrap();
                let leading = Matrix::from_fn(m, m, |i, j| a[(i, j)]);
                let direct = leading.cholesky().unwrap();
                prop_assert_eq!(bits(&direct.packed), bits(&textbook_cholesky(&leading)));
                prop_assert_eq!(bits(&grown.packed), bits(&direct.packed));
                prop_assert_eq!(grown.log_det().to_bits(), direct.log_det().to_bits());
                prop_assert_eq!(bits(&grown.solve(&rhs[..m])), bits(&direct.solve(&rhs[..m])));
            }
        }

        /// Every column of the block forward solve, at the pool's width of
        /// 8, is bit-identical to a one-column `solve_lower`: through many
        /// two-row passes and, for odd `n`, the one-row tail.
        #[test]
        fn prop_block_solve_is_bit_identical_per_column(
            entries in proptest::collection::vec(-3.0f64..3.0, 1..=40),
            n in 1usize..=40,
            columns in proptest::collection::vec(-5.0f64..5.0, 40 * 8),
        ) {
            let chol = spd(&entries, n).cholesky().unwrap();
            let mut block: Vec<[f64; 8]> =
                (0..n).map(|i| std::array::from_fn(|c| columns[c * 40 + i])).collect();
            chol.solve_lower_block(&mut block);
            for c in 0..8 {
                let column: Vec<f64> = block.iter().map(|row| row[c]).collect();
                let single = chol.solve_lower(&columns[c * 40..c * 40 + n]);
                prop_assert_eq!(bits(&column), bits(&single));
            }
        }

        /// (AB)ᵀ = BᵀAᵀ for conforming random matrices.
        #[test]
        fn prop_transpose_of_product(
            a_rows in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 3), 2..=5),
            b_cols in 1usize..4,
        ) {
            let a = Matrix::from_rows(&a_rows).unwrap();
            let b = Matrix::from_fn(3, b_cols, |i, j| (i * 7 + j * 3) as f64 * 0.25 - 1.0);
            let left = a.matmul(&b).unwrap().transpose();
            let right = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!(frobenius_norm(&(&left - &right)) < 1e-9);
        }

        /// matvec agrees with matmul against a column matrix.
        #[test]
        fn prop_matvec_matches_matmul(
            rows in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 3), 1..=5),
            v in proptest::collection::vec(-5.0f64..5.0, 3),
        ) {
            let a = Matrix::from_rows(&rows).unwrap();
            let col = Matrix::from_fn(3, 1, |i, _| v[i]);
            let by_matmul = a.matmul(&col).unwrap();
            let by_matvec = a.matvec(&v).unwrap();
            for i in 0..a.rows() {
                prop_assert!((by_matmul[(i, 0)] - by_matvec[i]).abs() < 1e-9);
            }
        }
    }
}
