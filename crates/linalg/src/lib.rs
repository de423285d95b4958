//! # yukta-linalg
//!
//! Dense linear algebra for the Yukta robust-control stack.
//!
//! This crate implements, from scratch, every numerical kernel that the
//! controller-synthesis layer (`yukta-control`) needs:
//!
//! * [`Mat`] — a dense, row-major `f64` matrix with the usual arithmetic.
//! * [`CMat`]/[`C64`] — complex matrices for frequency-domain analysis.
//! * [`lu`] — LU factorization with partial pivoting (real and complex);
//!   linear solves, inverses, determinants. Its row-update kernel has an
//!   AVX2 loop, chosen by hardware detection, that gives the same bits as
//!   the portable one; it is the crate's only vector code.
//! * [`qr`] — Householder least squares (without forming `Q`) and the
//!   column-pivoted QR used for stable-invariant-subspace extraction.
//! * [`eig`] — eigenvalues via Hessenberg reduction plus Francis
//!   double-shift QR iteration.
//! * [`freq`] — Hessenberg-preconditioned fast evaluation of
//!   `C (λI − A)⁻¹ B + D` for frequency sweeps: O(n²) per grid point
//!   after a one-time O(n³) reduction.
//! * [`svd`] — the largest singular value of a complex matrix, in closed
//!   form for vectors and two-row/two-column shapes and by power iteration
//!   otherwise (the workhorse of the structured singular value upper
//!   bound).
//! * [`osborne`] — Osborne block balancing on block-norm matrices, batched
//!   across frequency-grid chunks; the initializer of the µ D-scaling
//!   search.
//! * [`symeig`] — symmetric eigendecomposition (cyclic Jacobi), used by
//!   balanced truncation.
//! * [`sign`] — the matrix sign function (Newton iteration with determinant
//!   scaling), used to solve continuous algebraic Riccati equations.
//! * [`riccati`] — CARE (sign-function method) and DARE
//!   (structure-preserving doubling). [`riccati::care_unless`] and
//!   [`sign::matrix_sign_unless`] give up early once a [`Moot`] check
//!   says the caller no longer needs the answer.
//! * [`lyap`] — small discrete Lyapunov solves via Kronecker vectorization.
//!
//! Sizes in this domain are small (controller state dimensions of a few
//! tens), so all algorithms favour robustness and clarity over asymptotic
//! performance. There is one arithmetic path: every host computes the
//! same bits.
//!
//! ```
//! use yukta_linalg::Mat;
//!
//! # fn main() -> Result<(), yukta_linalg::Error> {
//! let a = Mat::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
//! let b = Mat::col(&[1.0, 2.0]);
//! let x = a.solve(&b)?;
//! assert!((&(&a * &x) - &b).fro_norm() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod cmat;
pub mod eig;
pub mod freq;
pub mod lu;
pub mod lyap;
pub mod mat;
pub mod osborne;
pub mod qr;
pub mod ratfit;
pub mod riccati;
pub mod sign;
pub mod svd;
pub mod symeig;

pub use cmat::{C64, CMat};
pub use mat::Mat;

/// Errors produced by the numerical routines in this crate.
///
/// Every failure carries enough context to diagnose which kernel rejected
/// the problem and why; synthesis layers typically react by relaxing the
/// request (e.g. raising an H∞ γ) rather than aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Name of the operation that was attempted.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically so) and cannot be factored
    /// or inverted.
    Singular {
        /// Name of the operation that was attempted.
        op: &'static str,
    },
    /// An iterative algorithm failed to converge within its budget.
    NoConvergence {
        /// Name of the algorithm.
        op: &'static str,
        /// Number of iterations performed before giving up.
        iters: usize,
    },
    /// The problem is well formed but has no solution with the required
    /// properties (e.g. no stabilizing Riccati solution).
    NoSolution {
        /// Name of the operation.
        op: &'static str,
        /// Human-readable explanation.
        why: &'static str,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Error::Singular { op } => write!(f, "singular matrix in {op}"),
            Error::NoConvergence { op, iters } => {
                write!(f, "{op} did not converge after {iters} iterations")
            }
            Error::NoSolution { op, why } => write!(f, "{op} has no valid solution: {why}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// A cheap check, polled between the steps of a long solve, that says
/// whether the caller still needs its result. A parallel search that has
/// already settled a question hands its in-flight solves a `Moot` that
/// turns true, and they stop at their next poll instead of running to
/// the end. A solve that is never moot runs exactly the code of its
/// plain form, so a result that is returned does not depend on the check.
#[derive(Clone, Copy)]
pub struct Moot<'a>(Option<&'a dyn Fn() -> bool>);

impl<'a> Moot<'a> {
    /// The check that never fires: the plain solvers run with it.
    pub const NEVER: Moot<'static> = Moot(None);

    /// A check that fires once `is_moot` returns true. It is called once
    /// per poll, so it should be a load or two, not a lock.
    pub fn new(is_moot: &'a dyn Fn() -> bool) -> Self {
        Moot(Some(is_moot))
    }

    /// Whether the result is no longer needed.
    pub fn is_set(self) -> bool {
        self.0.is_some_and(|f| f())
    }

    /// `Err` (a [`Error::NoSolution`] for `op`) once the result is moot,
    /// so a solver can poll with `?`.
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] when [`Moot::is_set`].
    pub fn check(self, op: &'static str) -> Result<()> {
        if self.is_set() {
            return Err(Error::NoSolution {
                op,
                why: "abandoned: the caller no longer needs the result",
            });
        }
        Ok(())
    }
}
