//! Stationary covariance functions over `[0,1]^d` embeddings.

use lens_num::linalg::squared_distance;
use std::fmt::Debug;

/// A positive-definite stationary covariance function: the covariance of
/// two points depends only on their squared distance.
pub trait Kernel: Debug + Send + Sync {
    /// Covariance of two points at squared Euclidean distance `d2`.
    fn eval_sq_dist(&self, d2: f64) -> f64;

    /// Replaces each squared distance in `d2` by the covariance at it,
    /// entry for entry what [`eval_sq_dist`](Self::eval_sq_dist) gives.
    ///
    /// Each implementation gets its own copy of this loop with
    /// `eval_sq_dist` inlined, so a caller holding a `dyn Kernel` makes
    /// one dynamic call per slice instead of one per entry.
    fn eval_sq_dists(&self, d2: &mut [f64]) {
        for d in d2 {
            *d = self.eval_sq_dist(*d);
        }
    }

    /// Covariance between two points.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_sq_dist(squared_distance(a, b))
    }

    /// Prior variance at a point, `k(x, x)`.
    fn diagonal(&self) -> f64;

    /// Returns a copy of this kernel with a different lengthscale (used by
    /// the ML-II grid search).
    fn with_lengthscale(&self, lengthscale: f64) -> Box<dyn Kernel>;

    /// The current lengthscale.
    fn lengthscale(&self) -> f64;
}

/// The squared-exponential (RBF) kernel
/// `k(a,b) = σ² exp(-‖a-b‖² / (2ℓ²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquaredExponential {
    lengthscale: f64,
    variance: f64,
}

impl SquaredExponential {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `lengthscale` or `variance` is not strictly positive.
    pub fn new(lengthscale: f64, variance: f64) -> Self {
        assert!(lengthscale > 0.0, "lengthscale must be positive");
        assert!(variance > 0.0, "variance must be positive");
        SquaredExponential {
            lengthscale,
            variance,
        }
    }
}

impl Kernel for SquaredExponential {
    fn eval_sq_dist(&self, d2: f64) -> f64 {
        self.variance * (-d2 / (2.0 * self.lengthscale * self.lengthscale)).exp()
    }

    fn diagonal(&self) -> f64 {
        self.variance
    }

    fn with_lengthscale(&self, lengthscale: f64) -> Box<dyn Kernel> {
        Box::new(SquaredExponential::new(lengthscale, self.variance))
    }

    fn lengthscale(&self) -> f64 {
        self.lengthscale
    }
}

/// The Matérn-5/2 kernel — Dragonfly's default for architecture-like inputs;
/// less smooth than the RBF, which suits the piecewise behaviour of
/// discrete design spaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52 {
    lengthscale: f64,
    variance: f64,
}

impl Matern52 {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `lengthscale` or `variance` is not strictly positive.
    pub fn new(lengthscale: f64, variance: f64) -> Self {
        assert!(lengthscale > 0.0, "lengthscale must be positive");
        assert!(variance > 0.0, "variance must be positive");
        Matern52 {
            lengthscale,
            variance,
        }
    }
}

impl Kernel for Matern52 {
    fn eval_sq_dist(&self, d2: f64) -> f64 {
        let r = d2.sqrt() / self.lengthscale;
        let sqrt5_r = 5f64.sqrt() * r;
        self.variance * (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * (-sqrt5_r).exp()
    }

    fn diagonal(&self) -> f64 {
        self.variance
    }

    fn with_lengthscale(&self, lengthscale: f64) -> Box<dyn Kernel> {
        Box::new(Matern52::new(lengthscale, self.variance))
    }

    fn lengthscale(&self) -> f64 {
        self.lengthscale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kernels_peak_at_zero_distance() {
        let se = SquaredExponential::new(0.5, 2.0);
        let m = Matern52::new(0.5, 2.0);
        let x = [0.3, 0.7];
        assert!((se.eval(&x, &x) - 2.0).abs() < 1e-12);
        assert!((m.eval(&x, &x) - 2.0).abs() < 1e-9);
        assert_eq!(se.diagonal(), 2.0);
        assert_eq!(m.diagonal(), 2.0);
    }

    #[test]
    fn covariance_decays_with_distance() {
        let se = SquaredExponential::new(0.5, 1.0);
        let m = Matern52::new(0.5, 1.0);
        let a = [0.0];
        let near = [0.1];
        let far = [0.9];
        assert!(se.eval(&a, &near) > se.eval(&a, &far));
        assert!(m.eval(&a, &near) > m.eval(&a, &far));
    }

    #[test]
    fn with_lengthscale_replaces() {
        let se = SquaredExponential::new(0.5, 1.0);
        let wider = se.with_lengthscale(2.0);
        assert_eq!(wider.lengthscale(), 2.0);
        // Wider lengthscale -> higher covariance at same distance.
        assert!(wider.eval(&[0.0], &[1.0]) > se.eval(&[0.0], &[1.0]));
    }

    #[test]
    #[should_panic(expected = "lengthscale must be positive")]
    fn zero_lengthscale_panics() {
        Matern52::new(0.0, 1.0);
    }

    proptest! {
        /// The slice method gives, bit for bit, `eval_sq_dist` at every
        /// entry, distance zero included, for both kernels.
        #[test]
        fn prop_slice_eval_is_bit_identical_per_entry(
            mut d2 in proptest::collection::vec(0.0f64..9.0, 0..=24),
            zero_at in 0usize..25,
            ls in 0.05f64..4.0,
            variance in 0.1f64..3.0,
        ) {
            d2.insert(zero_at.min(d2.len()), 0.0);
            let kernels: [Box<dyn Kernel>; 2] = [
                Box::new(Matern52::new(ls, variance)),
                Box::new(SquaredExponential::new(ls, variance)),
            ];
            for kernel in &kernels {
                let mut values = d2.clone();
                kernel.eval_sq_dists(&mut values);
                for (value, &d) in values.iter().zip(&d2) {
                    prop_assert_eq!(value.to_bits(), kernel.eval_sq_dist(d).to_bits());
                }
            }
        }

        /// Symmetry and boundedness for both kernels.
        #[test]
        fn prop_kernel_symmetric_bounded(
            a in proptest::collection::vec(0.0f64..1.0, 4),
            b in proptest::collection::vec(0.0f64..1.0, 4),
            ls in 0.1f64..3.0,
        ) {
            let se = SquaredExponential::new(ls, 1.5);
            let m = Matern52::new(ls, 1.5);
            prop_assert!((se.eval(&a, &b) - se.eval(&b, &a)).abs() < 1e-12);
            prop_assert!((m.eval(&a, &b) - m.eval(&b, &a)).abs() < 1e-12);
            prop_assert!(se.eval(&a, &b) <= se.diagonal() + 1e-12);
            prop_assert!(m.eval(&a, &b) <= m.diagonal() + 1e-12);
            prop_assert!(se.eval(&a, &b) >= 0.0);
            prop_assert!(m.eval(&a, &b) >= 0.0);
        }
    }
}
