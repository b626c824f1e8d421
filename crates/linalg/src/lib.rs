//! Dense linear-algebra substrate for the AMPS-Inf optimization stack.
//!
//! The MIQP solver in `ampsinf-solver` needs a small set of reliable dense
//! kernels: matrix/vector arithmetic, LU with partial pivoting (for KKT
//! systems), Cholesky (for convexity certification and positive-definite
//! solves), and a symmetric eigensolver (for the eigenvalue-shift
//! convexification in the QCR step).
//!
//! Everything here is deliberately dependency-free and sized for the
//! problem scales AMPS-Inf produces (tens to a few hundred variables), with
//! cache-friendly row-major storage and no per-operation allocations in the
//! hot solve paths.

#![warn(missing_docs)]
// Indexed loops are the clearest idiom for the dense numerical kernels
// here (simultaneous row/column index arithmetic); the iterator forms
// clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod eigen;
pub mod lu;
pub mod matrix;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use lu::{Lu, LuFactors};
pub use matrix::Matrix;

/// Error type for linear-algebra factorizations and solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// A factorization encountered a singular (or numerically singular) matrix.
    Singular {
        /// Pivot index at which the factorization broke down.
        pivot: usize,
    },
    /// Cholesky found a non-positive pivot: the matrix is not positive definite.
    NotPositiveDefinite {
        /// Row index of the offending pivot.
        row: usize,
    },
    /// Operand dimensions do not conform.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { row } => {
                write!(f, "matrix is not positive definite (row {row})")
            }
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for fallible linear-algebra results.
pub type Result<T> = std::result::Result<T, LinalgError>;
