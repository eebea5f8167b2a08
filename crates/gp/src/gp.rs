//! Exact Gaussian-process regression.
//!
//! §III.B: each objective `f_k` is approximated by a surrogate GP; former
//! evaluations are jointly Gaussian with mean `m_k` and covariance `K_k`.
//! The implementation is the textbook Cholesky formulation (Rasmussen &
//! Williams, Algorithm 2.1): factor `K + σ²I = LLᵀ` once per fit, then
//! `α = K⁻¹y` gives O(n) posterior means and O(n²) variances per query.
//! Targets are standardized internally.

use crate::kernel::Kernel;
use crate::GpError;
use lens_num::linalg::{dot, Cholesky, Matrix};
use lens_num::stats::Standardizer;

/// A fitted Gaussian process regressor.
#[derive(Debug)]
pub struct GpRegressor {
    xs: Vec<Vec<f64>>,
    kernel: Box<dyn Kernel>,
    noise: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    standardizer: Standardizer,
    log_marginal_likelihood: f64,
}

impl GpRegressor {
    /// Fits a GP to inputs `xs` and targets `ys` under the given kernel and
    /// observation-noise variance (in standardized-target units).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] for empty/ragged inputs and
    /// [`GpError::Numeric`] if the kernel matrix cannot be factorized.
    pub fn fit<K: Kernel + 'static>(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        kernel: K,
        noise: f64,
    ) -> Result<Self, GpError> {
        Self::fit_boxed(xs, ys, Box::new(kernel), noise)
    }

    /// [`fit`](Self::fit) with an already boxed kernel (used by the ML-II
    /// grid search).
    ///
    /// # Errors
    ///
    /// Same as [`fit`](Self::fit).
    pub fn fit_boxed(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        kernel: Box<dyn Kernel>,
        noise: f64,
    ) -> Result<Self, GpError> {
        if xs.is_empty() {
            return Err(GpError::InvalidTrainingData("no training points".into()));
        }
        if xs.len() != ys.len() {
            return Err(GpError::InvalidTrainingData(format!(
                "{} inputs vs {} targets",
                xs.len(),
                ys.len()
            )));
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|x| x.len() != d) {
            return Err(GpError::InvalidTrainingData(
                "inputs must be non-empty and consistent in dimension".into(),
            ));
        }
        if !noise.is_finite() || noise < 0.0 {
            return Err(GpError::InvalidTrainingData(format!(
                "noise must be finite and non-negative, got {noise}"
            )));
        }

        let standardizer = Standardizer::fit(&ys).map_err(GpError::from)?;
        let z: Vec<f64> = ys.iter().map(|&y| standardizer.transform(y)).collect();

        let n = xs.len();
        let gram =
            Matrix::from_fn(n, n, |i, j| kernel.eval(&xs[i], &xs[j])).add_diagonal(noise + 1e-8);
        let chol = gram.cholesky()?;
        let alpha = chol.solve(&z);

        // log p(y|X) = -0.5 zᵀα - 0.5 log|K| - n/2 log 2π  (standardized z).
        let lml = -0.5 * dot(&z, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        Ok(GpRegressor {
            xs,
            kernel,
            noise,
            chol,
            alpha,
            standardizer,
            log_marginal_likelihood: lml,
        })
    }

    /// Fits with ML-II model selection: tries every lengthscale in
    /// `lengthscales` and every noise in `noises`, keeping the fit with the
    /// highest log marginal likelihood.
    ///
    /// # Errors
    ///
    /// Returns the first error if *all* candidate fits fail, or
    /// [`GpError::InvalidTrainingData`] for empty grids.
    pub fn fit_auto<K: Kernel + 'static>(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        base_kernel: K,
        lengthscales: &[f64],
        noises: &[f64],
    ) -> Result<Self, GpError> {
        if lengthscales.is_empty() || noises.is_empty() {
            return Err(GpError::InvalidTrainingData(
                "hyperparameter grids must be non-empty".into(),
            ));
        }
        let mut best: Option<GpRegressor> = None;
        let mut first_err = None;
        for &ls in lengthscales {
            for &noise in noises {
                let kernel = base_kernel.with_lengthscale(ls);
                match GpRegressor::fit_boxed(xs.clone(), ys.clone(), kernel, noise) {
                    Ok(gp) => {
                        let better = best
                            .as_ref()
                            .map(|b| gp.log_marginal_likelihood > b.log_marginal_likelihood)
                            .unwrap_or(true);
                        if better {
                            best = Some(gp);
                        }
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        match best {
            Some(gp) => Ok(gp),
            None => Err(first_err.expect("no fits and no errors is impossible")),
        }
    }

    /// Posterior mean and variance at a query point, in the original target
    /// units.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(
            x.len(),
            self.xs[0].len(),
            "query dimension mismatch in GP predict"
        );
        let k_star: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let mean_z = dot(&k_star, &self.alpha);
        let v = self.chol.solve_lower(&k_star);
        let var_z = (self.kernel.diagonal() - dot(&v, &v)).max(0.0);
        (
            self.standardizer.inverse(mean_z),
            var_z * self.standardizer.scale() * self.standardizer.scale(),
        )
    }

    /// Posterior standard deviation at a query point.
    pub fn predict_std(&self, x: &[f64]) -> f64 {
        self.predict(x).1.sqrt()
    }

    /// The log marginal likelihood of the (standardized) training data.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal_likelihood
    }

    /// Number of training points.
    pub fn num_points(&self) -> usize {
        self.xs.len()
    }

    /// The fitted kernel's lengthscale (after any ML-II selection).
    pub fn lengthscale(&self) -> f64 {
        self.kernel.lengthscale()
    }

    /// The fitted observation-noise variance.
    pub fn noise(&self) -> f64 {
        self.noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, SquaredExponential};

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * std::f64::consts::PI * 2.0).sin() * 3.0 + 10.0)
            .collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let (xs, ys) = toy_data();
        let gp = GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.3, 1.0), 1e-8).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (mean, var) = gp.predict(x);
            assert!((mean - y).abs() < 1e-3, "mean {mean} vs {y}");
            assert!(var < 1e-3, "variance {var} at training point");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (xs, ys) = toy_data();
        let gp = GpRegressor::fit(xs, ys, SquaredExponential::new(0.1, 1.0), 1e-6).unwrap();
        let at_data = gp.predict(&[0.5]).1;
        let far = gp.predict(&[3.0]).1;
        assert!(far > at_data * 10.0, "far {far} vs at-data {at_data}");
    }

    #[test]
    fn reverts_to_prior_mean_far_away() {
        let (xs, ys) = toy_data();
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let gp = GpRegressor::fit(xs, ys, SquaredExponential::new(0.1, 1.0), 1e-6).unwrap();
        let (mean, _) = gp.predict(&[10.0]);
        assert!((mean - y_mean).abs() < 1e-6);
    }

    #[test]
    fn fit_auto_picks_reasonable_lengthscale() {
        let (xs, ys) = toy_data();
        let gp = GpRegressor::fit_auto(
            xs,
            ys,
            Matern52::new(1.0, 1.0),
            &[0.05, 0.1, 0.2, 0.4, 0.8, 1.6],
            &[1e-6, 1e-4, 1e-2],
        )
        .unwrap();
        // The sine has structure at scale ~0.25; huge lengthscales fit badly.
        assert!(gp.lengthscale() <= 0.8, "picked {}", gp.lengthscale());
        // And the auto fit predicts well between points.
        let (mean, _) = gp.predict(&[0.4375]);
        let truth = (0.4375f64 * std::f64::consts::TAU).sin() * 3.0 + 10.0;
        assert!((mean - truth).abs() < 0.5, "mean {mean} vs {truth}");
    }

    #[test]
    fn fit_auto_reports_the_first_error_when_every_fit_fails() {
        let (xs, ys) = toy_data();
        let err = GpRegressor::fit_auto(xs, ys, Matern52::new(1.0, 1.0), &[0.2], &[-1.0, -2.0])
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("got -1"), "{message}");
        assert!(!message.contains("-2"), "{message}");
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            GpRegressor::fit(vec![], vec![], Matern52::new(1.0, 1.0), 1e-6),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit(
                vec![vec![1.0]],
                vec![1.0, 2.0],
                Matern52::new(1.0, 1.0),
                1e-6
            ),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit(
                vec![vec![1.0], vec![1.0, 2.0]],
                vec![1.0, 2.0],
                Matern52::new(1.0, 1.0),
                1e-6
            ),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit(
                vec![vec![1.0]],
                vec![1.0],
                Matern52::new(1.0, 1.0),
                f64::NAN
            ),
            Err(GpError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn constant_targets_are_handled() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![7.0; 5];
        let gp = GpRegressor::fit(xs, ys, Matern52::new(1.0, 1.0), 1e-6).unwrap();
        let (mean, _) = gp.predict(&[2.5]);
        assert!((mean - 7.0).abs() < 1e-6);
    }

    #[test]
    fn higher_lml_for_better_lengthscale() {
        let (xs, ys) = toy_data();
        let good = GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.3, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        let bad = GpRegressor::fit(xs, ys, Matern52::new(50.0, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        assert!(good > bad, "good {good} vs bad {bad}");
    }
}
