//! Numeric substrate for the LENS reproduction.
//!
//! The offline dependency whitelist for this repository intentionally
//! excludes heavyweight numeric crates (`nalgebra`, `ndarray`, `rand_distr`),
//! so the pieces the rest of the workspace needs are implemented here from
//! scratch and kept small and auditable:
//!
//! * [`linalg`] — the packed [`Cholesky`](linalg::Cholesky) factor, grown
//!   one row at a time, with the triangular solves and log-determinant that
//!   Gaussian-process and ridge regression solve through, and the slice
//!   kernels `dot` and `squared_distance`.
//! * [`ridge`] — closed-form ridge regression used by the per-layer
//!   performance predictors of `lens-device`.
//! * [`dist`] — seeded Gaussian / log-normal sampling via Box–Muller, used
//!   for measurement noise and wireless throughput traces.
//! * [`stats`] — summary statistics and error metrics (R², MAPE) used when
//!   validating fitted predictors.
//!
//! # Examples
//!
//! ```
//! use lens_num::linalg::Cholesky;
//!
//! # fn main() -> Result<(), lens_num::NumError> {
//! // Solve the SPD system A x = b, A = [[4, 2], [2, 3]], by pushing the
//! // lower triangle of A into a Cholesky factor one row at a time.
//! let mut chol = Cholesky::default();
//! chol.push_row(&[4.0])?;
//! chol.push_row(&[2.0, 3.0])?;
//! let x = chol.solve(&[2.0, 1.0]);
//! assert!((4.0 * x[0] + 2.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod dist;
pub mod linalg;
pub mod ridge;
pub mod stats;

use std::error::Error;
use std::fmt;

/// Errors produced by the numeric substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumError {
    /// The rows of a data set differ in length.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Length of the offending row.
        found: usize,
    },
    /// Dimensions of two operands do not line up for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// Cholesky factorization failed: the matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the pivot that became non-positive.
        pivot: usize,
    },
    /// An operation that requires a non-empty data set received none.
    EmptyInput(&'static str),
    /// A data set held a NaN or infinite value.
    NonFinite(&'static str),
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::RaggedRows { expected, found } => {
                write!(f, "ragged rows: expected length {expected}, found {found}")
            }
            NumError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            NumError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            NumError::EmptyInput(what) => write!(f, "empty input for {what}"),
            NumError::NonFinite(what) => write!(f, "non-finite value in {what}"),
        }
    }
}

impl Error for NumError {}
