//! Acquisition functions for *minimization*.
//!
//! §III.B: "through every `m_k` and `K_k`, an acquisition function is
//! constructed to determine the next query point" — available analytically
//! and much cheaper than the true objectives. Higher acquisition score =
//! more attractive query point.

use rand::RngCore;

/// Which acquisition rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum AcquisitionKind {
    /// Lower confidence bound: score = `-(mean - beta·std)`. The default,
    /// matching Dragonfly's UCB-style MOBO.
    #[default]
    LowerConfidenceBound,
    /// Expected improvement over the incumbent best (smallest observed).
    ExpectedImprovement,
    /// Thompson-style sampling of the posterior marginal.
    ThompsonSampling,
}

/// An acquisition rule with its parameters, scoring a candidate from its
/// posterior mean and variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acquisition {
    kind: AcquisitionKind,
    /// Exploration weight for LCB.
    beta: f64,
    /// Incumbent best (minimum observed target) for EI.
    incumbent: f64,
}

impl Acquisition {
    /// Creates an acquisition evaluator.
    ///
    /// `beta` is the LCB exploration weight; `incumbent` the best (lowest)
    /// target observed so far, used by expected improvement.
    pub fn new(kind: AcquisitionKind, beta: f64, incumbent: f64) -> Self {
        Acquisition {
            kind,
            beta,
            incumbent,
        }
    }

    /// Scores a candidate whose GP posterior has the given `mean` and
    /// `variance` (higher is better). `rng` is used only by Thompson
    /// sampling, which draws one standard normal per call.
    pub fn score(&self, mean: f64, variance: f64, rng: &mut dyn RngCore) -> f64 {
        let std = variance.sqrt();
        match self.kind {
            AcquisitionKind::LowerConfidenceBound => -(mean - self.beta * std),
            AcquisitionKind::ExpectedImprovement => expected_improvement(mean, std, self.incumbent),
            AcquisitionKind::ThompsonSampling => {
                -(mean + std * lens_num::dist::standard_normal(rng))
            }
        }
    }
}

/// Closed-form expected improvement for minimization.
fn expected_improvement(mean: f64, std: f64, incumbent: f64) -> f64 {
    if std < 1e-12 {
        return (incumbent - mean).max(0.0);
    }
    let z = (incumbent - mean) / std;
    (incumbent - mean) * normal_cdf(z) + std * normal_pdf(z)
}

/// Standard normal density.
fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max abs error ~1.5e-7, ample for acquisition ranking).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::GpRegressor;
    use crate::kernel::Matern52;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn score_at(gp: &GpRegressor, acq: &Acquisition, x: f64, rng: &mut StdRng) -> f64 {
        let (mean, variance) = gp.predict(&[x]);
        acq.score(mean, variance, rng)
    }

    fn fitted_gp() -> GpRegressor {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.3).powi(2)).collect();
        GpRegressor::fit(xs, ys, Matern52::new(0.3, 1.0), 1e-6).unwrap()
    }

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation has ~1.5e-7 max absolute error.
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn lcb_prefers_low_mean_when_no_exploration() {
        let gp = fitted_gp();
        let mut rng = StdRng::seed_from_u64(0);
        let acq = Acquisition::new(AcquisitionKind::LowerConfidenceBound, 0.0, 0.0);
        // Minimum of (x-0.3)^2 is at 0.3.
        let at_min = score_at(&gp, &acq, 0.3, &mut rng);
        let away = score_at(&gp, &acq, 0.9, &mut rng);
        assert!(at_min > away);
    }

    #[test]
    fn lcb_beta_rewards_uncertainty() {
        let gp = fitted_gp();
        let mut rng = StdRng::seed_from_u64(0);
        let explore = Acquisition::new(AcquisitionKind::LowerConfidenceBound, 50.0, 0.0);
        // Far from data, variance is huge; with big beta that wins.
        let far = score_at(&gp, &explore, 5.0, &mut rng);
        let near = score_at(&gp, &explore, 0.3, &mut rng);
        assert!(far > near);
    }

    #[test]
    fn ei_is_nonnegative_and_peaks_near_optimum() {
        let gp = fitted_gp();
        let mut rng = StdRng::seed_from_u64(0);
        let acq = Acquisition::new(AcquisitionKind::ExpectedImprovement, 0.0, 0.05);
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!(score_at(&gp, &acq, x, &mut rng) >= -1e-12);
        }
    }

    #[test]
    fn ei_zero_when_no_improvement_possible() {
        // Deterministic GP fit, incumbent far below anything reachable.
        assert_eq!(expected_improvement(5.0, 0.0, 1.0), 0.0);
        assert!(expected_improvement(5.0, 1e-13, 1.0) <= 0.0 + 1e-12);
        // And positive when mean is below incumbent.
        assert!(expected_improvement(0.5, 0.1, 1.0) > 0.4);
    }

    #[test]
    fn thompson_is_stochastic_but_seed_deterministic() {
        let gp = fitted_gp();
        let acq = Acquisition::new(AcquisitionKind::ThompsonSampling, 0.0, 0.0);
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let a = score_at(&gp, &acq, 0.5, &mut rng1);
        let b = score_at(&gp, &acq, 0.5, &mut rng2);
        assert_eq!(a, b);
        let c = score_at(&gp, &acq, 0.5, &mut rng1);
        assert_ne!(a, c);
    }
}
