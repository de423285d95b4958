//! Algebraic Riccati equation solvers.
//!
//! * [`care`] — continuous-time ARE via the matrix sign function: build the
//!   Hamiltonian, project onto its stable invariant subspace with a
//!   column-pivoted QR stopped after `n` steps, and recover `X = U₂·U₁⁻¹`. Accepts indefinite `G`,
//!   which is required by H∞ synthesis (where `G = B₂B₂ᵀ − γ⁻²B₁B₁ᵀ`).
//! * [`dare`] — discrete-time ARE via the structure-preserving doubling
//!   algorithm (SDA), which converges quadratically using only small
//!   inverses.

use crate::qr::leading_basis;
use crate::sign::matrix_sign_unless;
use crate::{Error, Mat, Moot, Result};

/// Solves the continuous-time algebraic Riccati equation
///
/// ```text
/// AᵀX + XA − XGX + Q = 0
/// ```
///
/// for the stabilizing solution `X` (i.e. `A − GX` Hurwitz), via the
/// Hamiltonian sign-function method.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if the blocks do not conform.
/// * [`Error::NoSolution`] if the Hamiltonian has imaginary-axis
///   eigenvalues, the subspace basis is degenerate, or the residual check
///   fails.
///
/// # Examples
///
/// ```
/// use yukta_linalg::{Mat, riccati::care};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// // Scalar: 2ax − gx² + q = 0 with a=−1, g=1, q=3 → x = −1+2 = 1... check:
/// // −2x − x² + 3 = 0 → x = 1 (stabilizing).
/// let x = care(&Mat::filled(1, 1, -1.0), &Mat::identity(1), &Mat::filled(1, 1, 3.0))?;
/// assert!((x[(0, 0)] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn care(a: &Mat, g: &Mat, q: &Mat) -> Result<Mat> {
    care_unless(a, g, q, Moot::NEVER)
}

/// [`care`] that polls `moot` between the sign function's Newton steps
/// and before the subspace extraction, and stops once it is set. With a
/// check that never fires it is [`care`].
///
/// # Errors
///
/// Those of [`care`], plus [`Error::NoSolution`] from [`Moot::check`]
/// when the result became moot.
pub fn care_unless(a: &Mat, g: &Mat, q: &Mat, moot: Moot<'_>) -> Result<Mat> {
    let n = a.rows();
    if !a.is_square() || g.shape() != (n, n) || q.shape() != (n, n) {
        return Err(Error::DimensionMismatch {
            op: "care",
            lhs: a.shape(),
            rhs: g.shape(),
        });
    }
    // Hamiltonian H = [A, −G; −Q, −Aᵀ].
    let h = Mat::block2x2(a, &-g, &-q, &-&a.t())?;
    let s = matrix_sign_unless(&h, moot).map_err(|_| Error::NoSolution {
        op: "care",
        why: "hamiltonian has imaginary-axis eigenvalues (no stabilizing solution)",
    })?;
    moot.check("care")?;
    // Projector onto the stable subspace; its range has dimension n.
    let p = (&Mat::identity(2 * n) - &s).scale(0.5);
    let basis = leading_basis(&p, n);
    let u1 = basis.block(0, n, 0, n);
    let u2 = basis.block(n, 2 * n, 0, n);
    let x = match u1.inverse() {
        Ok(u1inv) => (&u2 * &u1inv).symmetrize(),
        Err(_) => {
            return Err(Error::NoSolution {
                op: "care",
                why: "stable subspace basis is not graph-like (U1 singular)",
            });
        }
    };
    // Residual check: ‖AᵀX + XA − XGX + Q‖ small relative to the data.
    let resid = &(&(&a.t() * &x) + &(&x * a)) - &(&(&x * g) * &x);
    let resid = &resid + q;
    let scale = (x.fro_norm() * a.fro_norm()).max(q.fro_norm()).max(1.0);
    if resid.fro_norm() > 1e-6 * scale {
        return Err(Error::NoSolution {
            op: "care",
            why: "residual check failed",
        });
    }
    Ok(x)
}

/// Solves the discrete-time algebraic Riccati equation
///
/// ```text
/// X = AᵀXA − AᵀXB (R + BᵀXB)⁻¹ BᵀXA + Q
/// ```
///
/// for the stabilizing solution via the structure-preserving doubling
/// algorithm (SDA). Requires `R ≻ 0`, `(A,B)` stabilizable and `(A,Q)`
/// detectable.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if the blocks do not conform.
/// * [`Error::Singular`] if `R` is singular.
/// * [`Error::NoConvergence`] if doubling stalls.
///
/// # Examples
///
/// ```
/// use yukta_linalg::{Mat, riccati::dare};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let a = Mat::filled(1, 1, 0.5);
/// let b = Mat::identity(1);
/// let q = Mat::identity(1);
/// let r = Mat::identity(1);
/// let x = dare(&a, &b, &q, &r)?;
/// // Scalar DARE: x = a²x − a²x²/(1+x) + 1.
/// let xv = x[(0, 0)];
/// let rhs = 0.25 * xv - 0.25 * xv * xv / (1.0 + xv) + 1.0;
/// assert!((xv - rhs).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn dare(a: &Mat, b: &Mat, q: &Mat, r: &Mat) -> Result<Mat> {
    let n = a.rows();
    let m = b.cols();
    if !a.is_square() || b.rows() != n || q.shape() != (n, n) || r.shape() != (m, m) {
        return Err(Error::DimensionMismatch {
            op: "dare",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let rinv = r.inverse().map_err(|_| Error::Singular { op: "dare" })?;
    // SDA state: A_k, G_k, H_k with H_k → X.
    let mut ak = a.clone();
    let mut gk = &(b * &rinv) * &b.t();
    let mut hk = q.clone();
    let max_iters = 100;
    for _ in 0..max_iters {
        let w = &Mat::identity(n) + &(&gk * &hk);
        let winv = w.inverse().map_err(|_| Error::Singular { op: "dare" })?;
        let awi = &ak * &winv; // A_k (I + G_k H_k)^{-1} — note order below
        // A_{k+1} = A_k (I+G_k H_k)^{-1} A_k
        let a_next = &awi * &ak;
        // G_{k+1} = G_k + A_k (I+G_k H_k)^{-1} G_k A_kᵀ
        let g_next = &gk + &(&(&awi * &gk) * &ak.t());
        // H_{k+1} = H_k + A_kᵀ H_k (I+G_k H_k)^{-1} A_k
        let h_next = &hk + &(&(&ak.t() * &(&hk * &winv)) * &ak);
        let delta = (&h_next - &hk).fro_norm();
        let scale = h_next.fro_norm().max(1e-300);
        ak = a_next;
        gk = g_next;
        hk = h_next.symmetrize();
        if !hk.is_finite() {
            return Err(Error::NoConvergence {
                op: "dare",
                iters: max_iters,
            });
        }
        if delta <= 1e-13 * scale {
            return Ok(hk);
        }
    }
    Err(Error::NoConvergence {
        op: "dare",
        iters: max_iters,
    })
}

/// The LQR state-feedback gain `K = (R + BᵀXB)⁻¹ BᵀXA` associated with a
/// DARE solution `X`; `u = −K·x` stabilizes `x⁺ = Ax + Bu`.
///
/// # Errors
///
/// Returns [`Error::Singular`] if `R + BᵀXB` is singular and dimension
/// errors if the operands do not conform.
pub fn dare_gain(a: &Mat, b: &Mat, r: &Mat, x: &Mat) -> Result<Mat> {
    let btx = &b.t() * x;
    let inner = &(&btx * b) + r;
    let rhs = &btx * a;
    inner
        .solve(&rhs)
        .map_err(|_| Error::Singular { op: "dare_gain" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::{max_real_part, spectral_radius};

    #[test]
    fn care_scalar_known() {
        // aᵀx + xa − xgx + q = 0, a=0, g=1, q=4 → x = 2 (stabilizing: −gx<0).
        let x = care(
            &Mat::zeros(1, 1),
            &Mat::identity(1),
            &Mat::filled(1, 1, 4.0),
        )
        .unwrap();
        assert!((x[(0, 0)] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn care_2x2_residual_and_stability() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[-2.0, -1.0]]);
        let g = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]); // B = [0;1], R = 1
        let q = Mat::identity(2);
        let x = care(&a, &g, &q).unwrap();
        // X symmetric PSD.
        assert!(x.approx_eq(&x.t(), 1e-9));
        assert!(x[(0, 0)] > 0.0 && x.det().unwrap() > 0.0);
        // Closed loop A − GX Hurwitz.
        let acl = &a - &(&g * &x);
        assert!(max_real_part(&acl).unwrap() < 0.0);
    }

    #[test]
    fn care_indefinite_g_hinf_style() {
        // H∞-type CARE with G = B2B2ᵀ − γ⁻²B1B1ᵀ, γ big enough to admit
        // a solution. A = −1, B1 = B2 = 1, Q = 1, γ = 2 → G = 1 − 0.25 = 0.75.
        let a = Mat::filled(1, 1, -1.0);
        let g = Mat::filled(1, 1, 0.75);
        let q = Mat::identity(1);
        let x = care(&a, &g, &q).unwrap();
        let xv = x[(0, 0)];
        // −2x − 0.75x² + 1 = 0 → x = (−2 + sqrt(4+3))/1.5
        let expect = (-2.0 + 7.0f64.sqrt()) / 1.5;
        assert!((xv - expect).abs() < 1e-9);
    }

    #[test]
    fn care_axis_eigenvalues_have_no_solution() {
        // a = 0, g = −1, q = 1: H = [0, 1; −1, 0] has eigenvalues ±i.
        let r = care(
            &Mat::zeros(1, 1),
            &Mat::filled(1, 1, -1.0),
            &Mat::identity(1),
        );
        assert!(matches!(r, Err(Error::NoSolution { op: "care", .. })));
    }

    #[test]
    fn care_near_boundary_hinf_style_still_solves() {
        // Two decoupled H∞-style states. State 1 sits just inside the
        // boundary: g₁ = −(1 − 1e-8) gives Hamiltonian eigenvalues ±1e-4
        // next to ±√5 from state 2, a gap |Re λ|/max|λ| ≈ 4.5e-5 like the
        // tightest feasible γ candidates of a real synthesis.
        let a = Mat::diag(&[-1.0, -2.0]);
        let g = Mat::diag(&[-(1.0 - 1e-8), 1.0]);
        let q = Mat::identity(2);
        let x = care(&a, &g, &q).unwrap();
        // care's own residual check passed; confirm it and the closed loop.
        let resid = &(&(&(&a.t() * &x) + &(&x * &a)) - &(&(&x * &g) * &x)) + &q;
        assert!(resid.fro_norm() < 1e-6);
        let acl = &a - &(&g * &x);
        assert!(max_real_part(&acl).unwrap() < 0.0);
        // Scalar roots: x₁ = (1 − 1e-4)/(1 − 1e-8), x₂ = −2 + √5.
        assert!((x[(0, 0)] - (1.0 - 1e-4) / (1.0 - 1e-8)).abs() < 1e-6);
        assert!((x[(1, 1)] - (5f64.sqrt() - 2.0)).abs() < 1e-9);
    }

    #[test]
    fn dare_matches_fixed_point() {
        let a = Mat::from_rows(&[&[1.1, 0.3], &[0.0, 0.9]]);
        let b = Mat::from_rows(&[&[0.0], &[1.0]]);
        let q = Mat::identity(2);
        let r = Mat::identity(1);
        let x = dare(&a, &b, &q, &r).unwrap();
        // Verify the DARE residual directly.
        let btxb = &(&b.t() * &x) * &b;
        let inner = (&btxb + &r).inverse().unwrap();
        let term = &(&(&(&a.t() * &x) * &b) * &inner) * &(&(&b.t() * &x) * &a);
        let rhs = &(&(&a.t() * &x) * &a) - &term;
        let rhs = &rhs + &q;
        assert!(x.approx_eq(&rhs, 1e-8));
        // Closed loop stable.
        let k = dare_gain(&a, &b, &r, &x).unwrap();
        let acl = &a - &(&b * &k);
        assert!(spectral_radius(&acl).unwrap() < 1.0);
    }

    #[test]
    fn dare_with_unstable_plant() {
        // Strongly unstable A still yields a stabilizing solution.
        let a = Mat::from_rows(&[&[1.8, 0.0], &[0.5, 1.3]]);
        let b = Mat::identity(2);
        let q = Mat::identity(2).scale(0.1);
        let r = Mat::identity(2);
        let x = dare(&a, &b, &q, &r).unwrap();
        let k = dare_gain(&a, &b, &r, &x).unwrap();
        let acl = &a - &(&b * &k);
        assert!(spectral_radius(&acl).unwrap() < 1.0);
        assert!(x.approx_eq(&x.t(), 1e-9));
    }

    #[test]
    fn dare_scalar_closed_form() {
        // a = 2, b = 1, q = 1, r = 1:
        // x = a²x − a²x²/(r + x) + q → x(r+x) = a²xr + q(r+x) − 0 ... solve
        // quadratic: x² + x(1 − a² − q)·r ... easier to just iterate:
        let a = Mat::filled(1, 1, 2.0);
        let x = dare(&a, &Mat::identity(1), &Mat::identity(1), &Mat::identity(1)).unwrap();
        let xv = x[(0, 0)];
        let resid = 4.0 * xv - 4.0 * xv * xv / (1.0 + xv) + 1.0 - xv;
        assert!(resid.abs() < 1e-10);
        // Stabilizing ⇒ |a − k| < 1.
        let k = 2.0 * xv / (1.0 + xv);
        assert!((2.0 - k).abs() < 1.0);
    }

    #[test]
    fn dare_dimension_errors() {
        let a = Mat::identity(2);
        let b = Mat::zeros(3, 1);
        assert!(matches!(
            dare(&a, &b, &Mat::identity(2), &Mat::identity(1)),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn dare_singular_r_rejected() {
        let a = Mat::identity(2);
        let b = Mat::identity(2);
        assert!(matches!(
            dare(&a, &b, &Mat::identity(2), &Mat::zeros(2, 2)),
            Err(Error::Singular { .. })
        ));
    }
}
