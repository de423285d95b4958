//! The matrix sign function.
//!
//! `sign(A)` is computed by the scaled Newton iteration
//! `Z ← (c·Z + (c·Z)⁻¹)/2` with determinant scaling, one LU
//! factorization per step. Its key property:
//! `(I − sign(H))/2` projects onto the stable invariant subspace of `H`,
//! which is exactly what the continuous Riccati solver needs.

use crate::eig::eigenvalues;
use crate::lu::Lu;
use crate::{Error, Mat, Moot, Result};

/// Computes the matrix sign function of a square matrix with no eigenvalues
/// on the imaginary axis.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if not square.
/// * [`Error::Singular`] if `a` has an eigenvalue on the imaginary axis,
///   found either as a singular iterate or, once the Newton step stalls,
///   as an eigenvalue `λ` with `|Re λ| ≤ 1e-10·max|λ|`.
/// * [`Error::NoConvergence`] if the Newton iteration diverges or runs
///   out of steps.
///
/// # Examples
///
/// ```
/// use yukta_linalg::{Mat, sign::matrix_sign};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let a = Mat::diag(&[-2.0, 3.0]);
/// let s = matrix_sign(&a)?;
/// assert!(s.approx_eq(&Mat::diag(&[-1.0, 1.0]), 1e-10));
/// # Ok(())
/// # }
/// ```
pub fn matrix_sign(a: &Mat) -> Result<Mat> {
    matrix_sign_unless(a, Moot::NEVER)
}

/// [`matrix_sign`] that polls `moot` before every Newton step and stops
/// once it is set. With a check that never fires it is [`matrix_sign`].
///
/// # Errors
///
/// Those of [`matrix_sign`], plus [`Error::NoSolution`] from
/// [`Moot::check`] when the result became moot.
pub fn matrix_sign_unless(a: &Mat, moot: Moot<'_>) -> Result<Mat> {
    if !a.is_square() {
        return Err(Error::DimensionMismatch {
            op: "matrix_sign",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    let mut z = a.clone();
    let max_iters = 100;
    let mut prev_step = f64::INFINITY;
    let mut screened = false;
    for iter in 0..max_iters {
        moot.check("matrix_sign")?;
        // One factorization gives both Z⁻¹ and the scaling's |det Z|.
        let lu = Lu::new(&z).map_err(|_| Error::Singular { op: "matrix_sign" })?;
        let zinv = lu.inverse()?;
        // Determinant scaling accelerates convergence: c = |det Z|^(-1/n).
        let det = lu.det().abs();
        let c = if det > 1e-300 && det.is_finite() {
            det.powf(-1.0 / n as f64)
        } else {
            1.0
        };
        // Z ← c/2·Z + 1/(2c)·Z⁻¹ in place, accumulating ‖ΔZ‖²_F and
        // ‖Z_next‖²_F in the element order `fro_norm` sums them.
        let (cz, ci) = (c * 0.5, 0.5 / c);
        let (mut delta2, mut next2) = (0.0f64, 0.0f64);
        for (zv, &iv) in z.as_mut_slice().iter_mut().zip(zinv.as_slice()) {
            let next = *zv * cz + iv * ci;
            let d = next - *zv;
            delta2 += d * d;
            next2 += next * next;
            *zv = next;
        }
        if !z.is_finite() {
            return Err(Error::NoConvergence {
                op: "matrix_sign",
                iters: iter,
            });
        }
        let (delta, scale) = (delta2.sqrt(), next2.sqrt().max(1e-300));
        if delta <= 1e-13 * scale {
            return Ok(z);
        }
        // After the first two (scaling) steps the relative step of an
        // input with a clear spectral gap nearly always falls. The first
        // time it grows instead, check whether `a` has jω-axis
        // eigenvalues: then the iteration would wander for dozens of steps
        // and "converge" to a meaningless matrix. If the eigenvalue solver
        // fails, the iteration carries on.
        let step = delta / scale;
        if iter >= 2 && step > prev_step && !screened {
            screened = true;
            if matches!(on_imaginary_axis(a), Ok(true)) {
                return Err(Error::Singular { op: "matrix_sign" });
            }
        }
        prev_step = step;
    }
    Err(Error::NoConvergence {
        op: "matrix_sign",
        iters: max_iters,
    })
}

/// Whether `a` has an eigenvalue with `|Re λ| ≤ 1e-10·max|λ|`, i.e. on
/// the imaginary axis to working precision.
fn on_imaginary_axis(a: &Mat) -> Result<bool> {
    let eigs = eigenvalues(a)?;
    let radius = eigs.iter().fold(0.0f64, |r, e| r.max(e.abs()));
    Ok(eigs.iter().any(|e| e.re.abs() <= 1e-10 * radius))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_is_involutory() {
        // sign(A)^2 = I for any valid input.
        let a = Mat::from_rows(&[&[-3.0, 1.0, 0.0], &[0.0, 2.0, 0.5], &[0.0, 0.0, -1.0]]);
        let s = matrix_sign(&a).unwrap();
        assert!((&s * &s).approx_eq(&Mat::identity(3), 1e-9));
    }

    #[test]
    fn sign_commutes_with_input() {
        let a = Mat::from_rows(&[&[-3.0, 1.0], &[0.5, 2.0]]);
        let s = matrix_sign(&a).unwrap();
        let lhs = &a * &s;
        let rhs = &s * &a;
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn all_stable_gives_minus_identity() {
        let a = Mat::from_rows(&[&[-1.0, 10.0], &[0.0, -4.0]]);
        let s = matrix_sign(&a).unwrap();
        assert!(s.approx_eq(&(-&Mat::identity(2)), 1e-9));
    }

    #[test]
    fn all_antistable_gives_identity() {
        let a = Mat::from_rows(&[&[2.0, -1.0], &[0.3, 1.0]]);
        let s = matrix_sign(&a).unwrap();
        assert!(s.approx_eq(&Mat::identity(2), 1e-9));
    }

    #[test]
    fn mixed_spectrum_projector_rank() {
        // One stable, one antistable eigenvalue → (I − S)/2 has trace 1.
        let a = Mat::from_rows(&[&[-2.0, 1.0], &[0.0, 3.0]]);
        let s = matrix_sign(&a).unwrap();
        let p = (&Mat::identity(2) - &s).scale(0.5);
        assert!((p.trace() - 1.0).abs() < 1e-9);
        // Projector: P² = P.
        assert!((&p * &p).approx_eq(&p, 1e-8));
    }

    #[test]
    fn imaginary_axis_eigenvalue_fails() {
        // Pure rotation has eigenvalues ±i → sign undefined.
        let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        assert!(matrix_sign(&a).is_err());
    }

    #[test]
    fn wandering_iteration_is_screened_for_axis_eigenvalues() {
        // Eigenvalues ±2i and −3, mixed by a similarity so no iterate is
        // exactly singular: the determinant scaling keeps c ≠ 1, the ±2i
        // pair wanders along the axis, the step stalls, and the
        // eigenvalue screen rejects the input.
        let d = Mat::from_rows(&[&[0.0, -2.0, 0.0], &[2.0, 0.0, 0.0], &[0.0, 0.0, -3.0]]);
        let t = Mat::from_rows(&[&[1.0, 0.3, -0.2], &[0.1, 1.0, 0.4], &[-0.3, 0.2, 1.0]]);
        let a = &(&t * &d) * &t.inverse().unwrap();
        assert!(on_imaginary_axis(&a).unwrap());
        assert!(matches!(matrix_sign(&a), Err(Error::Singular { .. })));
    }

    #[test]
    fn near_axis_eigenvalue_is_not_screened() {
        // Smallest |Re λ| / max|λ| ≈ 1e-5: well inside the feasible range.
        let a = Mat::from_rows(&[&[-1e-5, 1.0], &[0.0, 1.0]]);
        assert!(!on_imaginary_axis(&a).unwrap());
        let s = matrix_sign(&a).unwrap();
        assert!((&s * &s).approx_eq(&Mat::identity(2), 1e-6));
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            matrix_sign(&Mat::zeros(2, 3)),
            Err(Error::DimensionMismatch { .. })
        ));
    }
}
