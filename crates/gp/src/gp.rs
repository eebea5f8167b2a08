//! Exact Gaussian-process regression.
//!
//! §III.B: each objective `f_k` is approximated by a surrogate GP; former
//! evaluations are jointly Gaussian with mean `m_k` and covariance `K_k`.
//! The implementation is the textbook Cholesky formulation (Rasmussen &
//! Williams, Algorithm 2.1): factor `K + σ²I = LLᵀ`, then `α = K⁻¹y` gives
//! O(n) posterior means and O(n²) variances per query. Targets are
//! standardized internally.
//!
//! The pieces are shared by [`GpRegressor`] and the multi-objective driver
//! in [`mobo`](crate::mobo), so each has one implementation:
//!
//! * a *factor* holds the packed Cholesky factor of `K + (σ² + jitter) I`
//!   with the kernel and noise that built it. It is built, and later grown,
//!   one Gram row at a time from squared distances, so a factor grown by
//!   one row per new point is bit-identical to a from-scratch one;
//! * ML-II selection factors each (lengthscale, noise) grid point once and
//!   scores the log marginal likelihood of every target vector sharing the
//!   inputs on that factor. [`GpRegressor::fit_auto`] is the one-target
//!   case;
//! * the posterior is computed for a block of query points at once:
//!   squared distances to the training points, the kernel block, `k·α`,
//!   one block forward solve `L⁻¹k` and `k(x,x) − v·v`. The kernel block
//!   is its own step, so factors on the same kernel can share it. Every
//!   query column sees the operations of a one-point prediction in the
//!   same order, and [`GpRegressor::predict`] is the one-column case.

use crate::kernel::Kernel;
use crate::GpError;
use lens_num::linalg::{dot, squared_distance, Cholesky};
use lens_num::stats::Standardizer;

/// Added to the noise variance on the Gram diagonal so that a noise of
/// zero still factors.
const JITTER: f64 = 1e-8;

/// The Cholesky factor of `K + (noise + JITTER) I` over the training
/// inputs factored so far, with the kernel and noise that built it; it only
/// ever grows under those.
#[derive(Debug)]
pub(crate) struct Factor {
    kernel: Box<dyn Kernel>,
    noise: f64,
    chol: Cholesky,
}

impl Factor {
    /// Factors the Gram matrix of `xs`, reserving room for `rows` rows.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidTrainingData`] for a negative or non-finite noise,
    /// [`GpError::Numeric`] if the Gram matrix does not factor.
    pub(crate) fn build(
        kernel: Box<dyn Kernel>,
        noise: f64,
        xs: &[Vec<f64>],
        rows: usize,
    ) -> Result<Self, GpError> {
        if !noise.is_finite() || noise < 0.0 {
            return Err(GpError::InvalidTrainingData(format!(
                "noise must be finite and non-negative, got {noise}"
            )));
        }
        let mut factor = Factor {
            kernel,
            noise,
            chol: Cholesky::with_capacity(rows.max(xs.len())),
        };
        factor.extend(xs)?;
        Ok(factor)
    }

    /// Appends one Gram row per input in `xs` beyond those factored so far,
    /// each built from that input's squared distances to the inputs before
    /// it and to itself. On error the rows appended so far stay.
    pub(crate) fn extend(&mut self, xs: &[Vec<f64>]) -> Result<(), GpError> {
        let mut row = Vec::with_capacity(xs.len());
        for i in self.chol.dim()..xs.len() {
            row.clear();
            row.extend(xs[..=i].iter().map(|xj| squared_distance(&xs[i], xj)));
            self.kernel.eval_sq_dists(&mut row);
            row[i] += self.noise + JITTER;
            self.chol.push_row(&row)?;
        }
        Ok(())
    }

    /// The (lengthscale, noise) that built the factor.
    #[cfg(test)]
    pub(crate) fn hyperparameters(&self) -> (f64, f64) {
        (self.kernel.lengthscale(), self.noise)
    }

    /// The lengthscale of the kernel that built the factor.
    pub(crate) fn lengthscale(&self) -> f64 {
        self.kernel.lengthscale()
    }

    /// The kernel block of a block of `W` query points, given the squared
    /// distances `d2[i][c]` from training input `i` to query `c`:
    /// `out[i][c]` is their covariance.
    pub(crate) fn kernel_block<const W: usize>(&self, d2: &[[f64; W]], out: &mut Vec<[f64; W]>) {
        out.clear();
        out.extend_from_slice(d2);
        self.kernel.eval_sq_dists(out.as_flattened_mut());
    }

    /// Posterior mean and variance, in original target units, of each GP
    /// in `gps` (all on this factor) at a block of `W` query points, given
    /// their kernel block `k` from [`kernel_block`](Self::kernel_block)
    /// under this factor's kernel. The prediction of GP `(g, weights)` at
    /// query `c` goes to `out[g][c]`; `v` is scratch for the forward solve.
    pub(crate) fn posterior<const W: usize>(
        &self,
        k: &[[f64; W]],
        gps: &[(usize, &Weights)],
        v: &mut Vec<[f64; W]>,
        out: &mut [[(f64, f64); W]],
    ) {
        for &(g, weights) in gps {
            let mut mean = [-0.0; W];
            for (row, alpha) in k.iter().zip(&weights.alpha) {
                for c in 0..W {
                    mean[c] += row[c] * alpha;
                }
            }
            for c in 0..W {
                out[g][c].0 = mean[c];
            }
        }
        v.clear();
        v.extend_from_slice(k);
        self.chol.solve_lower_block(v);
        let mut vv = [-0.0; W];
        for row in v.iter() {
            for c in 0..W {
                vv[c] += row[c] * row[c];
            }
        }
        for &(g, weights) in gps {
            let s = &weights.standardizer;
            for c in 0..W {
                let var_z = (self.kernel.diagonal() - vv[c]).max(0.0);
                out[g][c] = (s.inverse(out[g][c].0), var_z * s.scale() * s.scale());
            }
        }
    }
}

/// Lays a block of `W` query points out by dimension, the way
/// [`squared_distances`] reads them: `out[t][c]` is coordinate `t` of
/// `queries[c]`.
pub(crate) fn by_dimension<const W: usize>(queries: [&[f64]; W], out: &mut Vec<[f64; W]>) {
    out.clear();
    out.extend((0..queries[0].len()).map(|t| queries.map(|q| q[t])));
}

/// Squared distances from every training input to each of `W` query
/// points laid out by dimension ([`by_dimension`]): `out[i][c]` is
/// `squared_distance(&xs[i], query c)`, accumulated in the same order, with
/// the `W` sums running side by side.
pub(crate) fn squared_distances<const W: usize>(
    xs: &[Vec<f64>],
    queries: &[[f64; W]],
    out: &mut Vec<[f64; W]>,
) {
    out.clear();
    out.extend(xs.iter().map(|x| {
        let mut d2 = [-0.0; W];
        for (xt, qt) in x.iter().zip(queries) {
            for c in 0..W {
                let diff = xt - qt[c];
                d2[c] += diff * diff;
            }
        }
        d2
    }));
}

/// One target vector in the standardized units a GP is fitted in.
#[derive(Debug)]
pub(crate) struct Standardized {
    standardizer: Standardizer,
    z: Vec<f64>,
}

impl Standardized {
    pub(crate) fn new(ys: &[f64]) -> Result<Self, GpError> {
        let standardizer = Standardizer::fit(ys)?;
        let z = ys.iter().map(|&y| standardizer.transform(y)).collect();
        Ok(Standardized { standardizer, z })
    }

    /// The GP weights `α = (K + σ²I)⁻¹ z` on `factor`.
    pub(crate) fn solve(&self, factor: &Factor) -> Weights {
        Weights {
            standardizer: self.standardizer,
            alpha: factor.chol.solve(&self.z),
        }
    }

    /// `log p(z | X)` for the weights solved on a factor with log-determinant
    /// `log_det`.
    fn log_marginal_likelihood(&self, weights: &Weights, log_det: f64) -> f64 {
        // log p(y|X) = -0.5 zᵀα - 0.5 log|K| - n/2 log 2π  (standardized z).
        -0.5 * dot(&self.z, &weights.alpha)
            - 0.5 * log_det
            - 0.5 * self.z.len() as f64 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// What a fitted GP needs besides its factor to predict.
#[derive(Debug)]
pub(crate) struct Weights {
    standardizer: Standardizer,
    alpha: Vec<f64>,
}

/// One target's ML-II winner: the index of its factor in
/// [`Selection::factors`], its weights and its log marginal likelihood.
#[derive(Debug)]
pub(crate) struct Fit {
    pub(crate) factor: usize,
    pub(crate) weights: Weights,
    pub(crate) log_marginal_likelihood: f64,
}

/// The outcome of [`select`]: the distinct winning factors and one fit per
/// target.
#[derive(Debug)]
pub(crate) struct Selection {
    pub(crate) factors: Vec<Factor>,
    pub(crate) fits: Vec<Fit>,
}

/// ML-II model selection for several target vectors sharing the inputs
/// `xs`: tries every lengthscale in `lengthscales` (outer) and every noise
/// in `noises` (inner), factoring each grid point once and scoring every
/// target's log marginal likelihood on it. Each target keeps the first
/// grid point with the highest score. Winning factors keep room for `rows`
/// rows.
///
/// # Errors
///
/// [`GpError::InvalidTrainingData`] for empty grids; the first grid
/// point's error if every grid point fails.
pub(crate) fn select(
    xs: &[Vec<f64>],
    targets: &[Standardized],
    base_kernel: &dyn Kernel,
    lengthscales: &[f64],
    noises: &[f64],
    rows: usize,
) -> Result<Selection, GpError> {
    if lengthscales.is_empty() || noises.is_empty() {
        return Err(GpError::InvalidTrainingData(
            "hyperparameter grids must be non-empty".into(),
        ));
    }
    // Winners are keyed by grid point; only factors some target still
    // holds are kept.
    let mut best: Vec<Option<(usize, Weights, f64)>> = targets.iter().map(|_| None).collect();
    let mut factors: Vec<(usize, Factor)> = Vec::new();
    let mut first_err = None;
    let grid = lengthscales
        .iter()
        .flat_map(|&ls| noises.iter().map(move |&noise| (ls, noise)));
    for (point, (ls, noise)) in grid.enumerate() {
        let factor = match Factor::build(base_kernel.with_lengthscale(ls), noise, xs, rows) {
            Ok(factor) => factor,
            Err(e) => {
                first_err.get_or_insert(e);
                continue;
            }
        };
        let log_det = factor.chol.log_det();
        let mut won = false;
        for (target, best) in targets.iter().zip(&mut best) {
            let weights = target.solve(&factor);
            let lml = target.log_marginal_likelihood(&weights, log_det);
            if best.as_ref().is_none_or(|(_, _, top)| lml > *top) {
                *best = Some((point, weights, lml));
                won = true;
            }
        }
        if won {
            factors.push((point, factor));
            factors.retain(|(p, _)| best.iter().flatten().any(|(q, _, _)| q == p));
        }
    }
    let fits = best
        .into_iter()
        .map(|fit| {
            fit.map(|(point, weights, log_marginal_likelihood)| Fit {
                factor: factors
                    .iter()
                    .position(|(p, _)| *p == point)
                    .expect("every winner's factor is kept"),
                weights,
                log_marginal_likelihood,
            })
        })
        .collect::<Option<Vec<Fit>>>();
    match fits {
        Some(fits) => Ok(Selection {
            factors: factors.into_iter().map(|(_, factor)| factor).collect(),
            fits,
        }),
        None => Err(first_err.expect("no fits and no errors is impossible")),
    }
}

/// Checks the training data every fit shares: a non-empty set of finite
/// inputs of one non-zero dimension, and one finite target per input.
fn validate(xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
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
    if xs.iter().flatten().chain(ys).any(|v| !v.is_finite()) {
        return Err(GpError::InvalidTrainingData(
            "inputs and targets must be finite".into(),
        ));
    }
    Ok(())
}

/// A fitted Gaussian process regressor.
#[derive(Debug)]
pub struct GpRegressor {
    xs: Vec<Vec<f64>>,
    factor: Factor,
    weights: Weights,
    log_marginal_likelihood: f64,
}

impl GpRegressor {
    /// Fits a GP to inputs `xs` and targets `ys` under the given kernel and
    /// observation-noise variance (in standardized-target units).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] for empty, ragged or
    /// non-finite inputs or targets and for a negative or non-finite noise,
    /// and [`GpError::Numeric`] if the kernel matrix cannot be factorized.
    pub fn fit<K: Kernel + 'static>(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        kernel: K,
        noise: f64,
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let targets = Standardized::new(&ys)?;
        let factor = Factor::build(Box::new(kernel), noise, &xs, xs.len())?;
        let weights = targets.solve(&factor);
        let log_marginal_likelihood =
            targets.log_marginal_likelihood(&weights, factor.chol.log_det());
        Ok(GpRegressor {
            xs,
            factor,
            weights,
            log_marginal_likelihood,
        })
    }

    /// Fits with ML-II model selection: tries every lengthscale in
    /// `lengthscales` and every noise in `noises`, keeping the fit with the
    /// highest log marginal likelihood (the first one on ties).
    ///
    /// # Errors
    ///
    /// Returns the same data errors as [`fit`](Self::fit),
    /// [`GpError::InvalidTrainingData`] for empty grids, and the first
    /// grid point's error if *all* of them fail.
    pub fn fit_auto<K: Kernel + 'static>(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        base_kernel: K,
        lengthscales: &[f64],
        noises: &[f64],
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let targets = [Standardized::new(&ys)?];
        let Selection { mut factors, fits } =
            select(&xs, &targets, &base_kernel, lengthscales, noises, xs.len())?;
        let fit = fits.into_iter().next().expect("one fit per target");
        Ok(GpRegressor {
            xs,
            factor: factors.swap_remove(fit.factor),
            weights: fit.weights,
            log_marginal_likelihood: fit.log_marginal_likelihood,
        })
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
        let (mut query, mut d2, mut k) = (Vec::new(), Vec::new(), Vec::new());
        by_dimension([x], &mut query);
        squared_distances(&self.xs, &query, &mut d2);
        self.factor.kernel_block(&d2, &mut k);
        let mut out = [[(0.0, 0.0)]];
        self.factor
            .posterior(&k, &[(0, &self.weights)], &mut Vec::new(), &mut out);
        out[0][0]
    }

    /// The log marginal likelihood of the (standardized) training data.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal_likelihood
    }

    /// The fitted kernel's lengthscale (after any ML-II selection).
    pub fn lengthscale(&self) -> f64 {
        self.factor.kernel.lengthscale()
    }

    /// The fitted observation-noise variance.
    pub fn noise(&self) -> f64 {
        self.factor.noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, SquaredExponential};
    use proptest::prelude::*;

    /// The one-point posterior computed the textbook way, one query at a
    /// time with a scalar forward solve: the reference the block posterior
    /// must reproduce bit for bit.
    fn textbook_predict(gp: &GpRegressor, weights: &Weights, x: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = gp
            .xs
            .iter()
            .map(|xi| gp.factor.kernel.eval(xi, x))
            .collect();
        let mean_z = dot(&k_star, &weights.alpha);
        let v = gp.factor.chol.solve_lower(&k_star);
        let var_z = (gp.factor.kernel.diagonal() - dot(&v, &v)).max(0.0);
        let s = weights.standardizer;
        (s.inverse(mean_z), var_z * s.scale() * s.scale())
    }

    fn bits((mean, variance): (f64, f64)) -> (u64, u64) {
        (mean.to_bits(), variance.to_bits())
    }

    proptest! {
        /// Every column of a block posterior, for two GPs sharing one
        /// factor, is bit-identical to the textbook one-point posterior and
        /// to `predict`, including the padded columns of a short block.
        #[test]
        fn prop_block_posterior_is_bit_identical_to_per_point_predict(
            points in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 2..=12),
            queries in proptest::collection::vec(proptest::collection::vec(-0.5f64..1.5, 3), 1..=11),
            lengthscale in 0.1f64..2.0,
            noise in 0.0f64..0.1,
            squared_exponential in 0usize..2,
        ) {
            let ys_a: Vec<f64> = points.iter().map(|x| x[0].sin() + x[1] * x[2]).collect();
            let ys_b: Vec<f64> = points.iter().map(|x| (x[2] - 0.4).powi(2) * 7.0).collect();
            let fit = |ys: Vec<f64>| if squared_exponential == 1 {
                GpRegressor::fit(points.clone(), ys, SquaredExponential::new(lengthscale, 1.3), noise)
            } else {
                GpRegressor::fit(points.clone(), ys, Matern52::new(lengthscale, 1.3), noise)
            };
            let (a, b) = (fit(ys_a).unwrap(), fit(ys_b).unwrap());
            let (mut by_dim, mut d2, mut k, mut v) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for chunk in queries.chunks(4) {
                let block_queries: [&[f64]; 4] =
                    std::array::from_fn(|c| chunk.get(c).unwrap_or(&chunk[0]).as_slice());
                by_dimension(block_queries, &mut by_dim);
                squared_distances(&a.xs, &by_dim, &mut d2);
                a.factor.kernel_block(&d2, &mut k);
                let mut out = [[(0.0, 0.0); 4]; 2];
                a.factor.posterior(&k, &[(0, &a.weights), (1, &b.weights)], &mut v, &mut out);
                for (c, q) in block_queries.iter().enumerate() {
                    prop_assert_eq!(bits(out[0][c]), bits(textbook_predict(&a, &a.weights, q)));
                    prop_assert_eq!(bits(out[1][c]), bits(textbook_predict(&a, &b.weights, q)));
                    prop_assert_eq!(bits(out[0][c]), bits(a.predict(q)));
                    prop_assert_eq!(bits(out[1][c]), bits(b.predict(q)));
                }
            }
        }
    }

    /// ML-II over several targets at once picks, for each, what fitting
    /// every grid point separately and keeping the first highest likelihood
    /// picks, and keeps one factor per distinct winner.
    #[test]
    fn shared_selection_matches_separate_fits_per_grid_point() {
        let (xs, ys) = toy_data();
        let columns: Vec<Vec<f64>> = vec![
            ys.clone(),
            xs.iter().map(|x| x[0] * x[0]).collect(),
            ys.iter().map(|y| -y).collect(),
        ];
        let (lengthscales, noises) = ([0.05, 0.2, 0.8, 3.2], [1e-6, 1e-2, 1e-1]);
        let targets: Vec<Standardized> = columns
            .iter()
            .map(|ys| Standardized::new(ys).unwrap())
            .collect();
        let base = Matern52::new(1.0, 1.0);
        let selection = select(&xs, &targets, &base, &lengthscales, &noises, xs.len()).unwrap();
        let hypers: Vec<(f64, f64)> = selection
            .factors
            .iter()
            .map(|f| (f.kernel.lengthscale(), f.noise))
            .collect();
        // Negating the targets leaves the likelihood unchanged, so the
        // first and last target share one factor.
        assert_eq!(hypers.len(), 2);
        assert_ne!(hypers[0], hypers[1]);
        for (fit, ys) in selection.fits.iter().zip(&columns) {
            let mut best: Option<GpRegressor> = None;
            for &ls in &lengthscales {
                for &noise in &noises {
                    let gp =
                        GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(ls, 1.0), noise)
                            .unwrap();
                    let lml = gp.log_marginal_likelihood();
                    if best
                        .as_ref()
                        .is_none_or(|b| lml > b.log_marginal_likelihood())
                    {
                        best = Some(gp);
                    }
                }
            }
            let best = best.unwrap();
            assert_eq!(hypers[fit.factor], (best.lengthscale(), best.noise()));
            assert_eq!(
                fit.log_marginal_likelihood.to_bits(),
                best.log_marginal_likelihood().to_bits()
            );
        }
    }

    #[test]
    fn nan_target_is_rejected() {
        let (xs, mut ys) = toy_data();
        ys[3] = f64::NAN;
        assert!(matches!(
            GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.3, 1.0), 1e-6),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit_auto(xs, ys, Matern52::new(1.0, 1.0), &[0.3], &[1e-6]),
            Err(GpError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn nan_input_is_rejected() {
        let (mut xs, ys) = toy_data();
        xs[2][0] = f64::NAN;
        assert!(matches!(
            GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.3, 1.0), 1e-6),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit_auto(xs, ys, Matern52::new(1.0, 1.0), &[0.3], &[1e-6]),
            Err(GpError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn infinite_input_is_rejected() {
        let (mut xs, ys) = toy_data();
        xs[5][0] = f64::NEG_INFINITY;
        assert!(matches!(
            GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.3, 1.0), 1e-6),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit_auto(xs, ys, Matern52::new(1.0, 1.0), &[0.3], &[1e-6]),
            Err(GpError::InvalidTrainingData(_))
        ));
    }

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
