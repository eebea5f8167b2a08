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

use crate::linalg::Cholesky;
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
    /// regularization strength `lambda`: the one-target case of
    /// [`fit_all`](Self::fit_all).
    ///
    /// # Errors
    ///
    /// * [`NumError::EmptyInput`] if `xs` is empty or has zero-width rows.
    /// * [`NumError::RaggedRows`] if feature rows disagree in length.
    /// * [`NumError::DimensionMismatch`] if `xs.len() != ys.len()`.
    /// * [`NumError::NonFinite`] if a feature or target is NaN or infinite,
    ///   or if a sum over them overflows.
    /// * [`NumError::NotPositiveDefinite`] if the regularized normal
    ///   equations do not factor.
    pub fn fit<R: AsRef<[f64]>>(xs: &[R], ys: &[f64], lambda: f64) -> Result<Self, NumError> {
        let [model] = Self::fit_all(xs, [ys], lambda)?;
        Ok(model)
    }

    /// Fits one model per target vector in `targets`, all over the same
    /// features `xs` and `lambda`. The feature standardization, XᵀX and
    /// its Cholesky factor are built once and shared; each model is bit
    /// for bit the one [`fit`](Self::fit) returns for its target alone.
    ///
    /// # Errors
    ///
    /// The errors of [`fit`](Self::fit), for the first target that
    /// raises one.
    pub fn fit_all<R: AsRef<[f64]>, const K: usize>(
        xs: &[R],
        targets: [&[f64]; K],
        lambda: f64,
    ) -> Result<[Self; K], NumError> {
        if xs.is_empty() {
            return Err(NumError::EmptyInput("ridge regression features"));
        }
        let d = xs[0].as_ref().len();
        if let Some(ys) = targets.iter().find(|ys| ys.len() != xs.len()) {
            // The features are an n × d matrix and the targets an m × 1
            // column.
            return Err(NumError::DimensionMismatch {
                op: "ridge fit",
                lhs: (xs.len(), d),
                rhs: (ys.len(), 1),
            });
        }
        if d == 0 {
            return Err(NumError::EmptyInput("ridge regression feature width"));
        }
        for row in xs {
            let row = row.as_ref();
            if row.len() != d {
                return Err(NumError::RaggedRows {
                    expected: d,
                    found: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(NumError::NonFinite("ridge regression features"));
            }
        }
        if targets.iter().any(|ys| ys.iter().any(|y| !y.is_finite())) {
            return Err(NumError::NonFinite("ridge regression targets"));
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
        // Finite features can still overflow a column's sum or its sum of
        // squares.
        if means.iter().chain(&scales).any(|v| !v.is_finite()) {
            return Err(NumError::NonFinite("ridge regression features"));
        }

        // XᵀX's lower triangle, row `i` holding its `i + 1` entries up to
        // the diagonal as `Cholesky::push_row` takes them, built one
        // standardized sample at a time. Each entry sums the samples in
        // order from +0.0.
        let mut gram: Vec<Vec<f64>> = (1..=d).map(|len| vec![0.0; len]).collect();
        let mut z = vec![0.0; d];
        for row in xs {
            for (((zj, &v), m), s) in z.iter_mut().zip(row.as_ref()).zip(&means).zip(&scales) {
                *zj = (v - m) / s;
            }
            for (gram_row, &zi) in gram.iter_mut().zip(&z) {
                for (g, &zj) in gram_row.iter_mut().zip(&z) {
                    *g += zi * zj;
                }
            }
        }
        let mut chol = Cholesky::with_capacity(d);
        for (i, mut gram_row) in gram.into_iter().enumerate() {
            gram_row[i] += lambda.max(1e-12);
            chol.push_row(&gram_row)?;
        }

        let mut models = Vec::with_capacity(K);
        for ys in targets {
            let y_mean = ys.iter().sum::<f64>() / n as f64;
            // Xᵀ(y − ȳ): each entry is an in-order `Iterator::sum` over
            // the samples, as `linalg::dot` computes it.
            let xty: Vec<f64> = (0..d)
                .map(|j| {
                    xs.iter()
                        .zip(ys)
                        .map(|(row, &y)| (row.as_ref()[j] - means[j]) / scales[j] * (y - y_mean))
                        .sum()
                })
                .collect();
            // With finite features each standardized value is at most √n
            // in magnitude, so an overflow here, or in ȳ or a y − ȳ before
            // it, comes from the targets.
            if xty.iter().any(|v| !v.is_finite()) {
                return Err(NumError::NonFinite("ridge regression targets"));
            }
            models.push(RidgeRegression {
                weights: chol.solve(&xty),
                intercept: y_mean,
                feature_means: means.clone(),
                feature_scales: scales.clone(),
            });
        }
        Ok(models.try_into().expect("one model per target"))
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
        let weighted: f64 = features
            .iter()
            .zip(&self.feature_means)
            .zip(&self.feature_scales)
            .zip(&self.weights)
            .map(|(((&v, m), s), w)| (v - m) / s * w)
            .sum();
        self.intercept + weighted
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
        let xs = vec![vec![1.0, 4.0], vec![2.0, 5.0], vec![3.0, 6.0]];
        let err = RidgeRegression::fit(&xs, &[1.0, 2.0], 1.0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "dimension mismatch in ridge fit: 3x2 vs 2x1"
        );
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
    fn non_finite_input_errors() {
        let xs = vec![vec![1.0, 2.0], vec![2.0, 3.0], vec![3.0, 1.0]];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad_xs = xs.clone();
            bad_xs[1][0] = bad;
            assert_eq!(
                RidgeRegression::fit(&bad_xs, &[1.0, 2.0, 3.0], 1e-3),
                Err(NumError::NonFinite("ridge regression features"))
            );
            assert_eq!(
                RidgeRegression::fit(&xs, &[1.0, bad, 3.0], 1e-3),
                Err(NumError::NonFinite("ridge regression targets"))
            );
        }
        // Finite inputs whose sums overflow: the target sum, one y − ȳ
        // under a finite mean, and a feature column's sum.
        let column = [[1.0], [2.0], [3.0]];
        for ys in [[1e308, 1.5e308, 1.7e308], [1.7e308, -1.7e308, -1.7e308]] {
            assert_eq!(
                RidgeRegression::fit(&column, &ys, 1e-3),
                Err(NumError::NonFinite("ridge regression targets"))
            );
        }
        assert_eq!(
            RidgeRegression::fit(&[[1e308], [1.5e308], [1.7e308]], &[1.0, 2.0, 3.0], 1e-3),
            Err(NumError::NonFinite("ridge regression features"))
        );
    }

    /// Pins a fit bit for bit. The features span 1 to 1e10, like the
    /// MAC and byte counts the performance predictors train on; the third
    /// column is constant, and the 9s of the second column and the 3e9s of
    /// the fourth equal their column means, so they standardize to exactly
    /// 0. The fit runs only `+ − × ÷ sqrt`, so the bits hold on every
    /// platform.
    #[test]
    fn fit_and_predict_are_pinned_bit_for_bit() {
        let xs: [[f64; 4]; 8] = [
            [1.0, 4.0, 7.0, 1.0e9],
            [1.0e10, 12.0, 7.0, 5.0e9],
            [3.2e7, 9.0, 7.0, 3.0e9],
            [4.5e9, 1.0, 7.0, 2.0e9],
            [1.2e3, 9.0, 7.0, 3.0e9],
            [7.7e5, 16.0, 7.0, 4.0e9],
            [2.5e8, 2.0, 7.0, 6.0e8],
            [6.1e6, 19.0, 7.0, 5.4e9],
        ];
        let ys = [0.52, 118.25, 3.9, 61.5, 0.61, 0.97, 12.4, 2.05];
        let model = RidgeRegression::fit(&xs, &ys, 1e-4).unwrap();
        let weights: Vec<u64> = model.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(
            weights,
            [
                0x4043_7388_da5d_9e55,
                0xc013_34e9_02cf_89fa,
                0x0000_0000_0000_0000,
                0x4006_4aab_8359_f43e,
            ]
        );
        let queries = [
            [2.0e9, 9.0, 7.0, 3.0e9],
            [1.0, 4.0, 7.0, 1.0e9],
            [5.0e10, 20.0, 8.0, 1.0e10],
        ];
        let predictions: Vec<u64> = queries.iter().map(|q| model.predict(q).to_bits()).collect();
        assert_eq!(
            predictions,
            [
                0x403a_c0a9_ff43_ec84,
                0x4011_ea3c_aa92_7158,
                0x4082_0db2_562f_b9e5,
            ]
        );
    }

    /// Fits two targets over the features of the pinned fit above on one
    /// factorization, and pins each model bit for bit against its
    /// single-target fit: weights, and predictions, which read the
    /// intercept and the standardization too.
    #[test]
    fn fit_all_matches_each_single_target_fit_bit_for_bit() {
        let xs: [[f64; 4]; 8] = [
            [1.0, 4.0, 7.0, 1.0e9],
            [1.0e10, 12.0, 7.0, 5.0e9],
            [3.2e7, 9.0, 7.0, 3.0e9],
            [4.5e9, 1.0, 7.0, 2.0e9],
            [1.2e3, 9.0, 7.0, 3.0e9],
            [7.7e5, 16.0, 7.0, 4.0e9],
            [2.5e8, 2.0, 7.0, 6.0e8],
            [6.1e6, 19.0, 7.0, 5.4e9],
        ];
        let latency = [0.52, 118.25, 3.9, 61.5, 0.61, 0.97, 12.4, 2.05];
        let power = [
            1510.0, 2210.5, 1622.25, 1980.0, 1500.5, 1550.0, 1700.75, 1590.0,
        ];
        let pair = RidgeRegression::fit_all(&xs, [&latency, &power], 1e-4).unwrap();
        let queries = [
            [2.0e9, 9.0, 7.0, 3.0e9],
            [1.0, 4.0, 7.0, 1.0e9],
            [5.0e10, 20.0, 8.0, 1.0e10],
        ];
        let bits = |model: &RidgeRegression| {
            let weights: Vec<u64> = model.weights().iter().map(|w| w.to_bits()).collect();
            let predictions: Vec<u64> =
                queries.iter().map(|q| model.predict(q).to_bits()).collect();
            (weights, predictions)
        };
        for (model, ys) in pair.iter().zip([&latency, &power]) {
            let alone = RidgeRegression::fit(&xs, ys, 1e-4).unwrap();
            assert_eq!(bits(model), bits(&alone));
        }
        assert_ne!(bits(&pair[0]), bits(&pair[1]));
        // A bad second target fails the whole fit, as it would alone.
        assert_eq!(
            RidgeRegression::fit_all(&xs, [&latency, &[1.0; 7]], 1e-4),
            Err(NumError::DimensionMismatch {
                op: "ridge fit",
                lhs: (8, 4),
                rhs: (7, 1),
            })
        );
        let mut nan = power;
        nan[3] = f64::NAN;
        assert_eq!(
            RidgeRegression::fit_all(&xs, [&latency, &nan], 1e-4),
            Err(NumError::NonFinite("ridge regression targets"))
        );
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
