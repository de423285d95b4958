//! Property-based tests for the linear algebra kernels.

use proptest::prelude::*;
use yukta_linalg::eig::{eigenvalues, spectral_radius};
use yukta_linalg::lyap::dlyap;
use yukta_linalg::riccati::{dare, dare_gain};
use yukta_linalg::svd::sigma_max;
use yukta_linalg::{C64, CMat, Mat};

/// Strategy: an n×n matrix with entries in [-mag, mag].
fn mat_strategy(n: usize, mag: f64) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-mag..mag, n * n).prop_map(move |v| Mat::from_vec(n, n, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_reverses_product(a in mat_strategy(3, 5.0), b in mat_strategy(3, 5.0)) {
        let lhs = (&a * &b).t();
        let rhs = &b.t() * &a.t();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn solve_then_multiply_roundtrips(a in mat_strategy(4, 3.0), xv in prop::collection::vec(-3.0..3.0f64, 4)) {
        // Skip near-singular draws.
        prop_assume!(a.det().unwrap().abs() > 1e-3);
        let x_true = Mat::col(&xv);
        let b = &a * &x_true;
        let x = a.solve(&b).unwrap();
        prop_assert!(x.approx_eq(&x_true, 1e-6));
    }

    #[test]
    fn inverse_det_is_reciprocal(a in mat_strategy(3, 2.0)) {
        prop_assume!(a.det().unwrap().abs() > 1e-3);
        let inv = a.inverse().unwrap();
        let d = a.det().unwrap();
        let di = inv.det().unwrap();
        prop_assert!((d * di - 1.0).abs() < 1e-6);
    }

    #[test]
    fn eigenvalue_sum_is_trace(a in mat_strategy(4, 4.0)) {
        let eigs = eigenvalues(&a).unwrap();
        let sum_re: f64 = eigs.iter().map(|e| e.re).sum();
        let sum_im: f64 = eigs.iter().map(|e| e.im).sum();
        prop_assert!((sum_re - a.trace()).abs() < 1e-6 * (1.0 + a.trace().abs()));
        prop_assert!(sum_im.abs() < 1e-6);
    }

    #[test]
    fn sigma_max_is_operator_norm_bound(a in mat_strategy(3, 5.0), xv in prop::collection::vec(-1.0..1.0f64, 3)) {
        // ‖Ax‖ <= σ_max ‖x‖ for all x.
        let c = CMat::from_real(&a);
        let s = sigma_max(&c);
        let x: Vec<C64> = xv.iter().map(|&v| C64::real(v)).collect();
        let y = c.matvec(&x).unwrap();
        let xn: f64 = x.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
        let yn: f64 = y.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
        prop_assert!(yn <= s * xn + 1e-7);
    }

    #[test]
    fn dlyap_solution_satisfies_equation(raw in mat_strategy(3, 1.0)) {
        // Scale A inside the unit disk so a unique solution exists.
        let rho = spectral_radius(&raw).unwrap();
        prop_assume!(rho > 1e-6);
        let a = raw.scale(0.8 / rho.max(1.0) / 1.25);
        let q = Mat::identity(3);
        let x = dlyap(&a, &q).unwrap();
        let resid = &(&(&(&a * &x) * &a.t()) - &x) + &q;
        prop_assert!(resid.max_abs() < 1e-8);
    }

    #[test]
    fn dare_closed_loop_is_stable(raw in mat_strategy(3, 1.5)) {
        let a = raw;
        let b = Mat::identity(3);
        let q = Mat::identity(3);
        let r = Mat::identity(3);
        let x = dare(&a, &b, &q, &r).unwrap();
        let k = dare_gain(&a, &b, &r, &x).unwrap();
        let acl = &a - &(&b * &k);
        prop_assert!(spectral_radius(&acl).unwrap() < 1.0 + 1e-9);
        // X is symmetric PSD (diagonal entries nonnegative).
        prop_assert!(x.approx_eq(&x.t(), 1e-7));
        for i in 0..3 {
            prop_assert!(x[(i, i)] >= -1e-9);
        }
    }

    #[test]
    fn block_roundtrip(a in mat_strategy(4, 10.0)) {
        let tl = a.block(0, 2, 0, 2);
        let tr = a.block(0, 2, 2, 4);
        let bl = a.block(2, 4, 0, 2);
        let br = a.block(2, 4, 2, 4);
        let re = Mat::block2x2(&tl, &tr, &bl, &br).unwrap();
        prop_assert_eq!(re, a);
    }

    #[test]
    fn complex_solve_residual(re in prop::collection::vec(-2.0..2.0f64, 9), im in prop::collection::vec(-2.0..2.0f64, 9)) {
        let mut a = CMat::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a.set(i, j, C64::new(re[i * 3 + j], im[i * 3 + j]));
            }
        }
        // Diagonal boost to avoid singular draws.
        for i in 0..3 {
            let d = a.get(i, i);
            a.set(i, i, d + C64::real(4.0));
        }
        let b = CMat::identity(3);
        let x = a.solve(&b).unwrap();
        let resid = a.matmul(&x).unwrap().sub(&b);
        prop_assert!(resid.fro_norm() < 1e-8);
    }
}
