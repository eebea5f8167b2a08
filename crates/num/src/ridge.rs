//! Closed-form ridge regression.
//!
//! The per-layer performance prediction models of §IV.C are, as in
//! Neurosurgeon, small regressions over engineered layer features. Ridge
//! (L2-regularized least squares) is solved exactly through the normal
//! equations and a Cholesky factorization:
//!
//! `w = (XᵀX + λI)⁻¹ Xᵀ y`
//!
//! Features are standardized internally so the regularization acts uniformly
//! and the fit is well-conditioned even when features span many orders of
//! magnitude (e.g. MAC counts vs kernel sizes).

use crate::linalg::{dot, Matrix};
use crate::NumError;

/// A fitted ridge regression model.
///
/// # Examples
///
/// ```
/// use lens_num::ridge::RidgeRegression;
///
/// # fn main() -> Result<(), lens_num::NumError> {
/// // y = 2*x0 + 1 with a small quadratic feature that stays unused.
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| {
///     let x = i as f64 * 0.1;
///     vec![x, x * x]
/// }).collect();
/// let ys: Vec<f64> = xs.iter().map(|f| 2.0 * f[0] + 1.0).collect();
/// let model = RidgeRegression::fit(&xs, &ys, 1e-6)?;
/// let pred = model.predict(&[0.55, 0.3025]);
/// assert!((pred - 2.1).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
    feature_means: Vec<f64>,
    feature_scales: Vec<f64>,
}

impl RidgeRegression {
    /// Fits the model to rows of features `xs` and targets `ys` with
    /// regularization strength `lambda`.
    ///
    /// # Errors
    ///
    /// * [`NumError::EmptyInput`] if `xs` is empty or has zero-width rows.
    /// * [`NumError::RaggedRows`] if feature rows disagree in length.
    /// * [`NumError::DimensionMismatch`] if `xs.len() != ys.len()`.
    /// * [`NumError::NotPositiveDefinite`] if the normal equations do not
    ///   factor, as with a NaN feature.
    pub fn fit<R: AsRef<[f64]>>(xs: &[R], ys: &[f64], lambda: f64) -> Result<Self, NumError> {
        if xs.is_empty() {
            return Err(NumError::EmptyInput("ridge regression features"));
        }
        if xs.len() != ys.len() {
            return Err(NumError::DimensionMismatch {
                op: "ridge fit",
                lhs: (xs.len(), 0),
                rhs: (ys.len(), 0),
            });
        }
        let d = xs[0].as_ref().len();
        if d == 0 {
            return Err(NumError::EmptyInput("ridge regression feature width"));
        }
        for row in xs {
            if row.as_ref().len() != d {
                return Err(NumError::RaggedRows {
                    expected: d,
                    found: row.as_ref().len(),
                });
            }
        }
        let n = xs.len();

        // Standardize features; constant features get scale 1 (weight will
        // be driven to 0 by the regularizer since the column is all-zero).
        let mut means = vec![0.0; d];
        for row in xs {
            for (m, &v) in means.iter_mut().zip(row.as_ref()) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut scales = vec![0.0; d];
        for row in xs {
            for ((s, &v), m) in scales.iter_mut().zip(row.as_ref()).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut scales {
            *s = (*s / n as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }

        let y_mean = ys.iter().sum::<f64>() / n as f64;

        let x = Matrix::from_fn(n, d, |i, j| (xs[i].as_ref()[j] - means[j]) / scales[j]);
        let xt = x.transpose();
        let gram = xt.matmul(&x)?.add_diagonal(lambda.max(1e-12));
        let yc: Vec<f64> = ys.iter().map(|&y| y - y_mean).collect();
        let xty = xt.matvec(&yc)?;
        let chol = gram.cholesky()?;
        let weights = chol.solve(&xty);

        Ok(RidgeRegression {
            weights,
            intercept: y_mean,
            feature_means: means,
            feature_scales: scales,
        })
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature width.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.weights.len(),
            "feature width mismatch in ridge predict"
        );
        let standardized: Vec<f64> = features
            .iter()
            .zip(&self.feature_means)
            .zip(&self.feature_scales)
            .map(|((&v, m), s)| (v - m) / s)
            .collect();
        self.intercept + dot(&standardized, &self.weights)
    }

    /// The fitted weights in standardized feature space.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recovers_linear_function() {
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i) as f64 % 7.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|f| 3.0 * f[0] - 2.0 * f[1] + 5.0).collect();
        let model = RidgeRegression::fit(&xs, &ys, 1e-8).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!((model.predict(x) - y).abs() < 1e-6);
        }
    }

    #[test]
    fn handles_constant_feature() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|f| 2.0 * f[0]).collect();
        let model = RidgeRegression::fit(&xs, &ys, 1e-6).unwrap();
        assert!((model.predict(&[4.0, 1.0]) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn empty_input_errors() {
        let xs: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            RidgeRegression::fit(&xs, &[], 1.0),
            Err(NumError::EmptyInput(_))
        ));
    }

    #[test]
    fn mismatched_targets_error() {
        let xs = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            RidgeRegression::fit(&xs, &[1.0], 1.0),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ragged_features_error() {
        let xs = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            RidgeRegression::fit(&xs, &[1.0, 2.0], 1.0),
            Err(NumError::RaggedRows { .. })
        ));
    }

    #[test]
    fn nan_feature_fails_the_factorization() {
        let xs = vec![vec![1.0, 2.0], vec![f64::NAN, 3.0], vec![3.0, 1.0]];
        assert!(matches!(
            RidgeRegression::fit(&xs, &[1.0, 2.0, 3.0], 1e-3),
            Err(NumError::NotPositiveDefinite { pivot: 0 })
        ));
    }

    #[test]
    fn strong_regularization_shrinks_towards_mean() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|f| 3.0 * f[0]).collect();
        let weak = RidgeRegression::fit(&xs, &ys, 1e-8).unwrap();
        let strong = RidgeRegression::fit(&xs, &ys, 1e6).unwrap();
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        // The heavily regularized model barely moves off the mean.
        assert!((strong.predict(&[19.0]) - y_mean).abs() < 1.0);
        assert!((weak.predict(&[19.0]) - 57.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_wrong_width_panics() {
        let xs = vec![vec![1.0, 2.0], vec![2.0, 3.0], vec![3.0, 1.0]];
        let model = RidgeRegression::fit(&xs, &[1.0, 2.0, 3.0], 1e-3).unwrap();
        model.predict(&[1.0]);
    }

    proptest! {
        /// With negligible regularization and exact linear targets, training
        /// predictions match targets.
        #[test]
        fn prop_interpolates_linear_targets(
            w in proptest::collection::vec(-4.0f64..4.0, 3),
            b in -5.0f64..5.0,
            n in 8usize..30,
        ) {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![
                    (i as f64 * 0.37).sin() * 3.0,
                    (i as f64 * 0.11).cos() * 2.0,
                    i as f64 * 0.2,
                ])
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| dot_slice(x, &w) + b).collect();
            let model = RidgeRegression::fit(&xs, &ys, 1e-9).unwrap();
            for (x, y) in xs.iter().zip(&ys) {
                prop_assert!((model.predict(x) - y).abs() < 1e-4);
            }
        }
    }

    fn dot_slice(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
}
