//! Summary statistics and regression-quality metrics.
//!
//! Used to report how well the fitted per-layer performance predictors of
//! `lens-device` track the analytic ground truth (R², MAPE), and for trace
//! statistics in `lens-wireless`.

use crate::NumError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`NumError::EmptyInput`] for an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64, NumError> {
    if xs.is_empty() {
        return Err(NumError::EmptyInput("mean"));
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance.
///
/// # Errors
///
/// Returns [`NumError::EmptyInput`] for an empty slice.
pub fn variance(xs: &[f64]) -> Result<f64, NumError> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
///
/// # Errors
///
/// Returns [`NumError::EmptyInput`] for an empty slice.
pub fn std_dev(xs: &[f64]) -> Result<f64, NumError> {
    Ok(variance(xs)?.sqrt())
}

/// Coefficient of determination R² of predictions vs targets.
///
/// Returns 1.0 for a perfect fit; can be negative for fits worse than the
/// mean predictor. When the targets are constant, returns 1.0 if predictions
/// match them exactly and 0.0 otherwise.
///
/// # Errors
///
/// * [`NumError::EmptyInput`] for empty inputs.
/// * [`NumError::DimensionMismatch`] when lengths differ.
pub fn r_squared(predictions: &[f64], targets: &[f64]) -> Result<f64, NumError> {
    check_paired(predictions, targets, "r_squared")?;
    let m = mean(targets)?;
    let ss_tot: f64 = targets.iter().map(|y| (y - m) * (y - m)).sum();
    let ss_res: f64 = predictions
        .iter()
        .zip(targets)
        .map(|(p, y)| (y - p) * (y - p))
        .sum();
    if ss_tot <= f64::EPSILON {
        return Ok(if ss_res <= f64::EPSILON { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Mean absolute percentage error, in percent. Targets equal to zero are
/// skipped; if all targets are zero the result is an error.
///
/// # Errors
///
/// * [`NumError::EmptyInput`] for empty inputs or all-zero targets.
/// * [`NumError::DimensionMismatch`] when lengths differ.
pub fn mape(predictions: &[f64], targets: &[f64]) -> Result<f64, NumError> {
    check_paired(predictions, targets, "mape")?;
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, y) in predictions.iter().zip(targets) {
        if y.abs() > f64::EPSILON {
            total += ((p - y) / y).abs();
            count += 1;
        }
    }
    if count == 0 {
        return Err(NumError::EmptyInput("mape (all targets zero)"));
    }
    Ok(100.0 * total / count as f64)
}

/// Minimum and maximum of a slice.
///
/// # Errors
///
/// Returns [`NumError::EmptyInput`] for an empty slice.
pub fn min_max(xs: &[f64]) -> Result<(f64, f64), NumError> {
    if xs.is_empty() {
        return Err(NumError::EmptyInput("min_max"));
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    Ok((lo, hi))
}

/// Standardization parameters (mean, std) for z-scoring a data set, with
/// degenerate scales replaced by 1 so the transform is always invertible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    mean: f64,
    scale: f64,
}

impl Standardizer {
    /// Fits a standardizer to the data.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::EmptyInput`] for an empty slice.
    pub fn fit(xs: &[f64]) -> Result<Self, NumError> {
        let m = mean(xs)?;
        let mut s = std_dev(xs)?;
        if s < 1e-12 {
            s = 1.0;
        }
        Ok(Standardizer { mean: m, scale: s })
    }

    /// Maps a raw value to z-score space.
    pub fn transform(&self, x: f64) -> f64 {
        (x - self.mean) / self.scale
    }

    /// Maps a z-score back to raw space.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.scale + self.mean
    }

    /// The fitted mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The fitted (non-degenerate) scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

fn check_paired(a: &[f64], b: &[f64], what: &'static str) -> Result<(), NumError> {
    if a.is_empty() || b.is_empty() {
        return Err(NumError::EmptyInput(what));
    }
    if a.len() != b.len() {
        return Err(NumError::DimensionMismatch {
            op: what,
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert_eq!(variance(&xs).unwrap(), 4.0);
        assert_eq!(std_dev(&xs).unwrap(), 2.0);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(min_max(&[]).is_err());
        assert!(r_squared(&[], &[]).is_err());
        assert!(mape(&[], &[]).is_err());
    }

    #[test]
    fn r_squared_perfect_and_mean_predictor() {
        let y = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(r_squared(&y, &y).unwrap(), 1.0);
        let mean_pred = [2.5; 4];
        assert!(r_squared(&mean_pred, &y).unwrap().abs() < 1e-12);
    }

    #[test]
    fn r_squared_constant_targets() {
        assert_eq!(r_squared(&[3.0, 3.0], &[3.0, 3.0]).unwrap(), 1.0);
        assert_eq!(r_squared(&[1.0, 5.0], &[3.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn mape_known_value() {
        let pred = [110.0, 90.0];
        let target = [100.0, 100.0];
        assert!((mape(&pred, &target).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let pred = [5.0, 110.0];
        let target = [0.0, 100.0];
        assert!((mape(&pred, &target).unwrap() - 10.0).abs() < 1e-12);
        assert!(mape(&[1.0], &[0.0]).is_err());
    }

    #[test]
    fn min_max_works() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]).unwrap(), (-1.0, 3.0));
    }

    #[test]
    fn standardizer_round_trips() {
        let xs = [10.0, 20.0, 30.0];
        let s = Standardizer::fit(&xs).unwrap();
        for &x in &xs {
            assert!((s.inverse(s.transform(x)) - x).abs() < 1e-12);
        }
        assert_eq!(s.mean(), 20.0);
    }

    #[test]
    fn standardizer_degenerate_scale() {
        let s = Standardizer::fit(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(s.scale(), 1.0);
        assert_eq!(s.transform(5.0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_standardizer_round_trip(xs in proptest::collection::vec(-1e3f64..1e3, 2..40)) {
            let s = Standardizer::fit(&xs).unwrap();
            for &x in &xs {
                prop_assert!((s.inverse(s.transform(x)) - x).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_r_squared_at_most_one(
            pairs in proptest::collection::vec((-1e2f64..1e2, -1e2f64..1e2), 3..40)
        ) {
            let (pred, target): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let r2 = r_squared(&pred, &target).unwrap();
            prop_assert!(r2 <= 1.0 + 1e-12);
        }
    }
}
