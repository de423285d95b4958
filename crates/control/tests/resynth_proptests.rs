//! Property-based tests for the in-loop resynthesis fast paths: batched
//! Osborne D-initialization, the fused scaled-σ̄ kernel, and the parallel
//! γ-bisection, each pinned to its slow per-point / serial reference.

use proptest::prelude::*;
use yukta_control::hinf::{GenPlant, hinf_bisect_multi, hinf_bisect_multi_serial};
use yukta_control::mu::{MuBlock, log_grid, mu_peak, mu_peak_serial};
use yukta_control::ss::StateSpace;
use yukta_linalg::osborne::{block_norms_into, osborne_batch, osborne_point};
use yukta_linalg::svd::{sigma_max, sigma_max_scaled};
use yukta_linalg::{C64, CMat, Mat};

/// θ grid strictly inside (0, π).
fn theta_grid(points: usize) -> Vec<f64> {
    (0..points)
        .map(|k| (k as f64 + 0.5) * std::f64::consts::PI / (points as f64 + 1.0))
        .collect()
}

/// Random stable discrete MIMO system whose order and I/O count are
/// themselves sampled, including n = 1 (same recipe as `proptests.rs`).
fn stable_mimo_sys_any_shape(max_n: usize, max_io: usize) -> impl Strategy<Value = StateSpace> {
    (
        1..=max_n,
        1..=max_io,
        prop::collection::vec(-1.0..1.0f64, max_n * max_n),
        prop::collection::vec(-1.0..1.0f64, max_n * max_io),
        prop::collection::vec(-1.0..1.0f64, max_io * max_n),
        prop::collection::vec(-0.5..0.5f64, max_io * max_io),
    )
        .prop_map(move |(n, io, av, bv, cv, dv)| {
            let mut a = Mat::from_vec(n, n, av[..n * n].to_vec());
            a = a.scale(0.9 / (a.inf_norm() + 1e-9));
            let b = Mat::from_vec(n, io, bv[..n * io].to_vec());
            let c = Mat::from_vec(io, n, cv[..io * n].to_vec());
            let d = Mat::from_vec(io, io, dv[..io * io].to_vec());
            StateSpace::new(a, b, c, d, Some(0.5)).unwrap()
        })
}

/// The mixed-sensitivity generalized plant from the H∞ unit tests (DGKF
/// assumptions hold exactly), parameterized by the error weight so the
/// bisection property runs over a family of achievable γ levels.
fn mixed_sensitivity_plant(we: f64) -> GenPlant {
    let a = Mat::from_rows(&[&[-1.0, 0.0], &[0.0, -2.0]]);
    let b = Mat::from_rows(&[&[0.0, 0.0, 1.0], &[2.0, 0.0, 0.0]]);
    let c = Mat::from_rows(&[&[-we, we], &[0.0, 0.0], &[-1.0, 1.0]]);
    let d = Mat::from_rows(&[&[0.0, 0.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
    let sys = StateSpace::new(a, b, c, d, None).unwrap();
    GenPlant::new(sys, 2, 1, 2, 1).unwrap()
}

/// Block-norm matrices of the system's response at every grid point, in
/// the point-major layout `osborne_batch` consumes.
fn grid_norms(sys: &StateSpace, grid: &[f64], nb: usize) -> Vec<f64> {
    let sizes = vec![1usize; nb];
    let mut norms = vec![0.0; grid.len() * nb * nb];
    for (p, &theta) in grid.iter().enumerate() {
        let resp = sys.eval_at(C64::cis(theta)).unwrap();
        block_norms_into(
            &resp,
            &sizes,
            &sizes,
            &mut norms[p * nb * nb..(p + 1) * nb * nb],
        );
    }
    norms
}

fn assert_mu_bits_eq(par: &yukta_control::mu::MuPeak, ser: &yukta_control::mu::MuPeak) {
    assert_eq!(par.peak.to_bits(), ser.peak.to_bits());
    assert_eq!(par.w_peak.to_bits(), ser.w_peak.to_bits());
    assert_eq!(par.curve.len(), ser.curve.len());
    for ((wp, vp), (ws, vs)) in par.curve.iter().zip(&ser.curve) {
        assert_eq!(wp.to_bits(), ws.to_bits());
        assert_eq!(vp.to_bits(), vs.to_bits());
    }
    for (a, b) in par.scalings.iter().zip(&ser.scalings) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched Osborne balancing equals the per-point reference on the
    /// block norms of real frequency responses, bit for bit.
    /// The D–K fast path feeds whole grid chunks through the batch; any
    /// drift here would silently move the µ upper bound.
    #[test]
    fn batched_osborne_matches_per_point(sys in stable_mimo_sys_any_shape(24, 3)) {
        let grid = theta_grid(23); // odd: exercises the batch remainder loop
        let nb = sys.n_outputs();
        let norms = grid_norms(&sys, &grid, nb);
        let sweeps = 2;
        let mut reference = vec![0.0; grid.len() * nb];
        for p in 0..grid.len() {
            osborne_point(
                &norms[p * nb * nb..(p + 1) * nb * nb],
                nb,
                sweeps,
                &mut reference[p * nb..(p + 1) * nb],
            );
        }
        let mut batch = vec![0.0; grid.len() * nb];
        osborne_batch(&norms, nb, grid.len(), sweeps, &mut batch);
        for (i, (b, r)) in batch.iter().zip(&reference).enumerate() {
            prop_assert_eq!(
                b.to_bits(),
                r.to_bits(),
                "point {} block {}: batch {} vs per-point {}",
                i / nb,
                i % nb,
                b,
                r
            );
        }
    }

    /// The fused scaled-σ̄ kernel equals σ̄ of the materialized
    /// diag(row_w)·G·diag(col_w) for real frequency responses of any
    /// shape.
    #[test]
    fn fused_scaled_sigma_matches_materialized(
        sys in stable_mimo_sys_any_shape(24, 3),
        theta in 0.05..3.0f64,
        wexp in prop::collection::vec(-1.0..1.0f64, 6),
    ) {
        let resp = sys.eval_at(C64::cis(theta)).unwrap();
        let (m, n) = resp.shape();
        let row_w: Vec<f64> = (0..m).map(|i| 10f64.powf(wexp[i % wexp.len()])).collect();
        let col_w: Vec<f64> = (0..n).map(|j| 10f64.powf(-wexp[j % wexp.len()])).collect();
        let mut scaled = CMat::zeros(m, n);
        for (i, &rw) in row_w.iter().enumerate() {
            for (j, &cw) in col_w.iter().enumerate() {
                let z = resp.get(i, j);
                let w = rw * cw;
                scaled.set(i, j, C64::new(z.re * w, z.im * w));
            }
        }
        let reference = sigma_max(&scaled);
        let mut scratch = CMat::zeros(1, 1);
        let fused = sigma_max_scaled(&resp, &row_w, &col_w, &mut scratch);
        let rel = (fused - reference).abs() / reference.max(1e-300);
        prop_assert!(rel <= 1e-10, "fused {fused} vs materialized {reference}");
    }

    /// The parallel multi-candidate γ-bisection is bit-identical to its
    /// single-threaded twin: same γ, same controller realization, for any
    /// error weight (i.e. any achievable γ level).
    #[test]
    fn parallel_gamma_bisection_bit_identical_to_serial(we in 0.5..15.0f64) {
        let p = mixed_sensitivity_plant(we);
        let (kp, gp) = hinf_bisect_multi(&p, 0.05, 64.0, 20).unwrap();
        let (ks, gs) = hinf_bisect_multi_serial(&p, 0.05, 64.0, 20).unwrap();
        prop_assert_eq!(gp.to_bits(), gs.to_bits());
        for (mp, ms) in [
            (kp.k.a(), ks.k.a()),
            (kp.k.b(), ks.k.b()),
            (kp.k.c(), ks.k.c()),
            (kp.k.d(), ks.k.d()),
        ] {
            prop_assert_eq!((mp.rows(), mp.cols()), (ms.rows(), ms.cols()));
            for (x, y) in mp.as_slice().iter().zip(ms.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The chunked µ sweep stays bit-identical between its parallel and
    /// serial drivers for random plant orders up to 24 — the determinism
    /// contract the in-loop D-step relies on.
    #[test]
    fn chunked_mu_sweep_parallel_bit_identical_any_order(
        sys in stable_mimo_sys_any_shape(24, 3),
    ) {
        let nb = sys.n_outputs();
        let blocks = vec![MuBlock { n_out: 1, n_in: 1 }; nb];
        let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, 60);
        let par = mu_peak(&sys, &blocks, &grid).unwrap();
        let ser = mu_peak_serial(&sys, &blocks, &grid).unwrap();
        assert_mu_bits_eq(&par, &ser);
    }
}
