//! Seeded sampling from the continuous distributions the workspace needs.
//!
//! `rand_distr` is not on the offline dependency whitelist, so the Gaussian
//! is generated with the Box–Muller transform and the log-normal on top of
//! it. All functions take a caller-provided RNG so experiments stay
//! reproducible end to end.

use rand::Rng;

/// Draws one standard normal sample via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = lens_num::dist::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Reject u1 == 0 so ln(u1) is finite.
    let mut u1: f64 = rng.gen();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws one `N(mean, std_dev²)` sample.
///
/// # Panics
///
/// Panics if `std_dev` is negative or non-finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "std_dev must be finite and non-negative, got {std_dev}"
    );
    mean + std_dev * standard_normal(rng)
}

/// Draws one log-normal sample whose *logarithm* has the given mean and
/// standard deviation.
///
/// # Panics
///
/// Panics if `log_std_dev` is negative or non-finite.
fn log_normal<R: Rng + ?Sized>(rng: &mut R, log_mean: f64, log_std_dev: f64) -> f64 {
    normal(rng, log_mean, log_std_dev).exp()
}

/// Draws a vector of non-negative weights summing to one (a flat Dirichlet
/// sample), used for the random scalarizations of the MOBO acquisition.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn simplex_weights<R: Rng + ?Sized>(rng: &mut R, k: usize) -> Vec<f64> {
    assert!(k > 0, "cannot sample a 0-dimensional simplex");
    // Exponential(1) draws normalized to sum 1 are Dirichlet(1,...,1).
    let mut w: Vec<f64> = (0..k)
        .map(|_| {
            let mut u: f64 = rng.gen();
            while u <= f64::MIN_POSITIVE {
                u = rng.gen();
            }
            -u.ln()
        })
        .collect();
    let total: f64 = w.iter().sum();
    for wi in &mut w {
        *wi /= total;
    }
    w
}

/// Multiplicative noise factor `exp(N(0, sigma))`, clamped to a sane range.
///
/// This is how the synthetic measurement campaign perturbs analytic
/// ground-truth latency/power to emulate real profiling jitter.
pub fn multiplicative_noise<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    log_normal(rng, 0.0, sigma).clamp(0.25, 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 5.0).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(log_normal(&mut rng, 1.0, 0.75) > 0.0);
        }
    }

    #[test]
    fn log_normal_median_is_exp_log_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut samples: Vec<f64> = (0..20_001)
            .map(|_| log_normal(&mut rng, 2.0, 0.5))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median - 2f64.exp()).abs() / 2f64.exp() < 0.05,
            "median {median}"
        );
    }

    #[test]
    fn simplex_weights_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(4);
        for k in 1..=5 {
            let w = simplex_weights(&mut rng, k);
            assert_eq!(w.len(), k);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    #[should_panic(expected = "0-dimensional")]
    fn simplex_weights_zero_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        simplex_weights(&mut rng, 0);
    }

    #[test]
    fn multiplicative_noise_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..5000 {
            let f = multiplicative_noise(&mut rng, 0.3);
            assert!((0.25..=4.0).contains(&f));
        }
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..16).map(|_| standard_normal(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..16).map(|_| standard_normal(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
