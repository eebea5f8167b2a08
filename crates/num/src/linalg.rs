//! The packed Cholesky factor that Gaussian-process regression and ridge
//! regression both solve through, and the slice kernels they share.
//!
//! [`Cholesky`] stores its lower-triangular factor packed row by row, so row
//! `i` is one contiguous slice of `i + 1` entries and the factor takes half
//! the memory of a square matrix. It is built one row at a time:
//! [`Cholesky::push_row`] runs the Cholesky–Banachiewicz row loop on one new
//! row. That loop reads only the rows above, so appending row `n` to the
//! factor of the leading `n × n` block gives, bit for bit, the factor a
//! from-scratch factorization of the larger block computes — which is itself
//! `n + 1` pushes. A GP whose training set grows by one point therefore
//! extends its factor in `O(n²)` instead of refactoring in `O(n³)`.
//!
//! [`Cholesky::solve_lower_block`] runs forward substitution on a block of
//! right-hand sides at once: every column sees exactly the operations
//! [`Cholesky::solve_lower`] would apply to it, in the same order, but the
//! columns are independent, so the solve is no longer one dependent chain.

use crate::NumError;

/// The lower-triangular Cholesky factor of a symmetric positive-definite
/// matrix, stored packed row by row, together with the solve routines GP
/// and ridge regression need. The default value is the factor of the empty
/// matrix, which [`push_row`](Self::push_row) grows.
///
/// # Examples
///
/// ```
/// use lens_num::linalg::Cholesky;
///
/// # fn main() -> Result<(), lens_num::NumError> {
/// // Factor A = [[2, 1], [1, 2]] by pushing its lower triangle row by row.
/// let mut chol = Cholesky::default();
/// chol.push_row(&[2.0])?;
/// chol.push_row(&[1.0, 2.0])?;
/// assert_eq!(chol.dim(), 2);
/// // log|A| = 2 * sum(log diag(L)); |A| = 3 here.
/// assert!((chol.log_det() - 3f64.ln()).abs() < 1e-12);
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

    /// Factors a square matrix given by its rows, pushing each row's lower
    /// triangle in turn.
    fn factor(a: &[Vec<f64>]) -> Result<Cholesky, NumError> {
        let mut chol = Cholesky::with_capacity(a.len());
        for (i, row) in a.iter().enumerate() {
            chol.push_row(&row[..=i])?;
        }
        Ok(chol)
    }

    /// `A x` for a square matrix given by its rows.
    fn mul(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter().map(|row| dot(row, x)).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The textbook square-storage Cholesky–Banachiewicz loop, the
    /// reference the packed factor must reproduce bit for bit.
    #[allow(clippy::needless_range_loop)]
    fn textbook_cholesky(a: &[Vec<f64>]) -> Vec<f64> {
        let n = a.len();
        let mut l = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i][j];
                for k in 0..j {
                    sum -= l[i][k] * l[j][k];
                }
                l[i][j] = if i == j { sum.sqrt() } else { sum / l[j][j] };
            }
        }
        (0..n).flat_map(|i| l[i][..=i].to_vec()).collect()
    }

    /// `BᵀB + εI` for `B` given by its rows: symmetric positive definite.
    fn spd_from(b: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = b.first().map_or(0, Vec::len);
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let gram: f64 = b.iter().map(|row| row[i] * row[j]).sum();
                        if i == j {
                            gram + 1e-3
                        } else {
                            gram
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A random SPD matrix of order `n`, from `n + 2` rows of `B` that
    /// cycle through `entries`.
    fn spd(entries: &[f64], n: usize) -> Vec<Vec<f64>> {
        let b: Vec<Vec<f64>> = (0..n + 2)
            .map(|k| {
                (0..n)
                    .map(|j| entries[(k * n + j) % entries.len()])
                    .collect()
            })
            .collect();
        spd_from(&b)
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = vec![
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ];
        let chol = factor(&a).unwrap();
        for (i, row) in a.iter().enumerate() {
            for (j, &aij) in row[..=i].iter().enumerate() {
                let llt = dot(&chol.row(i)[..=j], chol.row(j));
                assert!((llt - aij).abs() < 1e-9, "({i}, {j})");
            }
        }
        // Known factor from the classic example.
        assert_eq!(chol.row(0)[0], 2.0);
        assert_eq!(chol.row(1)[0], 6.0);
        assert_eq!(chol.row(2)[2], 3.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert!(matches!(
            factor(&a),
            Err(NumError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn cholesky_rejects_a_nan_pivot() {
        assert_eq!(
            factor(&[vec![f64::NAN]]).unwrap_err(),
            NumError::NotPositiveDefinite { pivot: 0 }
        );
        assert_eq!(
            factor(&[vec![4.0, 0.0], vec![f64::NAN, 1.0]]).unwrap_err(),
            NumError::NotPositiveDefinite { pivot: 1 }
        );
    }

    #[test]
    fn failed_push_leaves_the_factor_unchanged() {
        let mut chol = factor(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
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
    fn solve_recovers_known_solution() {
        let a = vec![vec![4.0, 2.0], vec![2.0, 3.0]];
        let x = factor(&a).unwrap().solve(&[10.0, 8.0]);
        let back = mul(&a, &x);
        assert!((back[0] - 10.0).abs() < 1e-12);
        assert!((back[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn log_det_matches_direct_computation() {
        let chol = factor(&[vec![2.0, 0.0], vec![0.0, 8.0]]).unwrap();
        assert!((chol.log_det() - 16f64.ln()).abs() < 1e-12);
    }

    proptest! {
        /// For random SPD matrices A = BᵀB + εI, Cholesky must succeed and
        /// solving must invert the product.
        #[test]
        fn prop_cholesky_solves_spd(seed_rows in proptest::collection::vec(
            proptest::collection::vec(-3.0f64..3.0, 4), 4..=8)) {
            // a is 4x4 SPD.
            let a = spd_from(&seed_rows);
            let chol = factor(&a).unwrap();
            let rhs: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
            let back = mul(&a, &chol.solve(&rhs));
            for (bi, ri) in back.iter().zip(&rhs) {
                prop_assert!((bi - ri).abs() < 1e-6, "residual too large: {} vs {}", bi, ri);
            }
        }

        /// A factor grown one `push_row` at a time from the empty factor is,
        /// at every size along the way, bit-identical to the textbook
        /// square-storage loop run on the leading block.
        #[test]
        fn prop_grown_factor_is_bit_identical_to_cholesky(
            entries in proptest::collection::vec(-3.0f64..3.0, 1..=40),
            n in 1usize..=12,
        ) {
            let a = spd(&entries, n);
            let mut grown = Cholesky::default();
            for m in 1..=n {
                grown.push_row(&a[m - 1][..m]).unwrap();
                let leading: Vec<Vec<f64>> = a[..m].iter().map(|row| row[..m].to_vec()).collect();
                prop_assert_eq!(bits(&grown.packed), bits(&textbook_cholesky(&leading)));
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
            let chol = factor(&spd(&entries, n)).unwrap();
            let mut block: Vec<[f64; 8]> =
                (0..n).map(|i| std::array::from_fn(|c| columns[c * 40 + i])).collect();
            chol.solve_lower_block(&mut block);
            for c in 0..8 {
                let column: Vec<f64> = block.iter().map(|row| row[c]).collect();
                let single = chol.solve_lower(&columns[c * 40..c * 40 + n]);
                prop_assert_eq!(bits(&column), bits(&single));
            }
        }
    }
}
