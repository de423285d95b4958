//! Property-based tests for the control stack's invariants.

use proptest::prelude::*;
use yukta_control::c2d::{c2d_tustin, d2c_tustin};
use yukta_control::mu::{MuBlock, log_grid, mu_peak, mu_peak_serial};
use yukta_control::quant::{InputGrid, SignalScaler};
use yukta_control::ss::StateSpace;
use yukta_control::sweep;
use yukta_linalg::freq::FreqEvaluator;
use yukta_linalg::{C64, CMat, Mat};

/// Per-point payload for the sweep tests: the full response matrix
/// at λ = e^{iθ} (all systems below are discrete and stable, so the
/// resolvent exists on the whole unit circle).
fn response(_: usize, theta: f64, ev: &mut FreqEvaluator<'_>) -> CMat {
    ev.eval(C64::cis(theta)).unwrap()
}

/// θ grid strictly inside (0, π).
fn theta_grid(points: usize) -> Vec<f64> {
    (0..points)
        .map(|k| (k as f64 + 0.5) * std::f64::consts::PI / (points as f64 + 1.0))
        .collect()
}

fn stable_cont_sys(n: usize) -> impl Strategy<Value = StateSpace> {
    // Random A with eigenvalues shifted left, random B/C.
    (
        prop::collection::vec(-1.0..1.0f64, n * n),
        prop::collection::vec(-1.0..1.0f64, n),
        prop::collection::vec(-1.0..1.0f64, n),
    )
        .prop_map(move |(av, bv, cv)| {
            let mut a = Mat::from_vec(n, n, av);
            // Diagonal shift makes it comfortably Hurwitz.
            for i in 0..n {
                a[(i, i)] -= 2.5;
            }
            let b = Mat::from_vec(n, 1, bv);
            let c = Mat::from_vec(1, n, cv);
            StateSpace::new(a, b, c, Mat::zeros(1, 1), None).unwrap()
        })
}

/// Random stable MIMO system (continuous when `ts` is `None`), with a
/// nonzero feedthrough so the D path of the fast evaluator is exercised.
fn stable_mimo_sys(n: usize, io: usize, ts: Option<f64>) -> impl Strategy<Value = StateSpace> {
    (
        prop::collection::vec(-1.0..1.0f64, n * n),
        prop::collection::vec(-1.0..1.0f64, n * io),
        prop::collection::vec(-1.0..1.0f64, io * n),
        prop::collection::vec(-0.5..0.5f64, io * io),
    )
        .prop_map(move |(av, bv, cv, dv)| {
            let mut a = Mat::from_vec(n, n, av);
            match ts {
                // Discrete: scale into the unit disk (row sums < 1).
                Some(_) => a = a.scale(0.9 / (a.inf_norm() + 1e-9)),
                // Continuous: shift comfortably Hurwitz.
                None => {
                    for i in 0..n {
                        a[(i, i)] -= 2.5;
                    }
                }
            }
            let b = Mat::from_vec(n, io, bv);
            let c = Mat::from_vec(io, n, cv);
            let d = Mat::from_vec(io, io, dv);
            StateSpace::new(a, b, c, d, ts).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tustin_roundtrip_preserves_realization(sys in stable_cont_sys(3), ts in 0.05..1.0f64) {
        let d = c2d_tustin(&sys, ts).unwrap();
        let back = d2c_tustin(&d).unwrap();
        prop_assert!(back.a().approx_eq(sys.a(), 1e-8));
        prop_assert!(back.b().approx_eq(sys.b(), 1e-8));
        prop_assert!(back.c().approx_eq(sys.c(), 1e-8));
        prop_assert!(back.d().approx_eq(sys.d(), 1e-8));
    }

    #[test]
    fn tustin_preserves_stability(sys in stable_cont_sys(4), ts in 0.05..1.0f64) {
        let d = c2d_tustin(&sys, ts).unwrap();
        prop_assert!(d.is_stable().unwrap());
    }

    #[test]
    fn tustin_preserves_dc_gain(sys in stable_cont_sys(3), ts in 0.05..1.0f64) {
        let d = c2d_tustin(&sys, ts).unwrap();
        let g_c = sys.dc_gain().unwrap();
        let g_d = d.dc_gain().unwrap();
        prop_assert!((g_c[(0, 0)] - g_d[(0, 0)]).abs() < 1e-7 * (1.0 + g_c[(0, 0)].abs()));
    }

    #[test]
    fn quantize_returns_grid_member_and_is_idempotent(
        vals in prop::collection::vec(-10.0..10.0f64, 1..12),
        x in -20.0..20.0f64,
    ) {
        let grid = InputGrid::new(vals);
        let q = grid.quantize(x);
        prop_assert!(grid.values().contains(&q));
        prop_assert_eq!(grid.quantize(q), q);
        // Nearest: no other grid point is strictly closer.
        for &v in grid.values() {
            prop_assert!((x - q).abs() <= (x - v).abs() + 1e-12);
        }
    }

    #[test]
    fn quantize_saturates_at_extremes(
        vals in prop::collection::vec(-5.0..5.0f64, 1..8),
    ) {
        let grid = InputGrid::new(vals);
        prop_assert_eq!(grid.quantize(1e6), grid.max());
        prop_assert_eq!(grid.quantize(-1e6), grid.min());
    }

    #[test]
    fn scaler_roundtrips(lo in -100.0..100.0f64, width in 0.01..200.0f64, x in -500.0..500.0f64) {
        let s = SignalScaler::from_range(lo, lo + width);
        let back = s.denormalize(s.normalize(x));
        prop_assert!((back - x).abs() < 1e-9 * (1.0 + x.abs()));
        // Range endpoints map to ±1.
        prop_assert!((s.normalize(lo) + 1.0).abs() < 1e-9);
        prop_assert!((s.normalize(lo + width) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_order_matters_but_poles_union(sys1 in stable_cont_sys(2), sys2 in stable_cont_sys(2)) {
        // The series composition's poles are the union of the components'.
        let s = sys1.series(&sys2).unwrap();
        prop_assert_eq!(s.order(), 4);
        prop_assert!(s.is_stable().unwrap());
    }

    #[test]
    fn fast_eval_matches_reference_continuous(
        sys in stable_mimo_sys(6, 2, None),
        wexp in -2.0..2.0f64,
    ) {
        let g_fast = sys.freq_response(10f64.powf(wexp)).unwrap();
        let lambda = yukta_linalg::C64::new(0.0, 10f64.powf(wexp));
        let g_ref = sys.eval_at_reference(lambda).unwrap();
        let err = g_fast.sub(&g_ref).max_abs();
        prop_assert!(err < 1e-9, "fast vs reference mismatch: {err}");
    }

    #[test]
    fn fast_eval_matches_reference_discrete(
        sys in stable_mimo_sys(5, 2, Some(0.25)),
        theta in 0.0..std::f64::consts::PI,
    ) {
        let lambda = yukta_linalg::C64::cis(theta);
        let g_fast = sys.eval_at(lambda).unwrap();
        let g_ref = sys.eval_at_reference(lambda).unwrap();
        let err = g_fast.sub(&g_ref).max_abs();
        prop_assert!(err < 1e-9, "fast vs reference mismatch: {err}");
    }

    #[test]
    fn parallel_mu_peak_bit_identical_to_serial(sys in stable_mimo_sys(4, 2, Some(0.5))) {
        let blocks = [
            MuBlock { n_out: 1, n_in: 1 },
            MuBlock { n_out: 1, n_in: 1 },
        ];
        let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, 120);
        let par = mu_peak(&sys, &blocks, &grid).unwrap();
        let ser = mu_peak_serial(&sys, &blocks, &grid).unwrap();
        prop_assert_eq!(par.peak.to_bits(), ser.peak.to_bits());
        prop_assert_eq!(par.w_peak.to_bits(), ser.w_peak.to_bits());
        prop_assert_eq!(par.curve.len(), ser.curve.len());
        for ((wp, vp), (ws, vs)) in par.curve.iter().zip(&ser.curve) {
            prop_assert_eq!(wp.to_bits(), ws.to_bits());
            prop_assert_eq!(vp.to_bits(), vs.to_bits());
        }
        for (a, b) in par.scalings.iter().zip(&ser.scalings) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_mu_peak_bit_identical_to_serial_continuous(
        sys in stable_mimo_sys(4, 2, None),
    ) {
        // The same determinism contract on the λ = jω branch of the sweep.
        let blocks = [
            MuBlock { n_out: 1, n_in: 1 },
            MuBlock { n_out: 1, n_in: 1 },
        ];
        let grid = log_grid(1e-2, 1e2, 120);
        let par = mu_peak(&sys, &blocks, &grid).unwrap();
        let ser = mu_peak_serial(&sys, &blocks, &grid).unwrap();
        prop_assert_eq!(par.peak.to_bits(), ser.peak.to_bits());
        prop_assert_eq!(par.w_peak.to_bits(), ser.w_peak.to_bits());
        prop_assert_eq!(par.curve.len(), ser.curve.len());
        for ((wp, vp), (ws, vs)) in par.curve.iter().zip(&ser.curve) {
            prop_assert_eq!(wp.to_bits(), ws.to_bits());
            prop_assert_eq!(vp.to_bits(), vs.to_bits());
        }
        for (a, b) in par.scalings.iter().zip(&ser.scalings) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn simulate_linear_in_input(sys in stable_cont_sys(3)) {
        // Discretize, then check superposition on the simulation runtime.
        let d = c2d_tustin(&sys, 0.2).unwrap();
        let u1: Vec<Vec<f64>> = (0..20).map(|t| vec![(t as f64 * 0.7).sin()]).collect();
        let u2: Vec<Vec<f64>> = (0..20).map(|t| vec![(t as f64 * 1.3).cos()]).collect();
        let sum: Vec<Vec<f64>> = u1.iter().zip(&u2).map(|(a, b)| vec![a[0] + b[0]]).collect();
        let y1 = d.simulate(&u1).unwrap();
        let y2 = d.simulate(&u2).unwrap();
        let ys = d.simulate(&sum).unwrap();
        for t in 0..20 {
            prop_assert!((ys[t][0] - y1[t][0] - y2[t][0]).abs() < 1e-9);
        }
    }
}

/// Degenerate shapes the sweep must get right: a 1×1 scalar plant
/// (n = 1), a single-column RHS (one input), and an empty grid, checked
/// against the dense reference evaluation. Deterministic so failures
/// shrink to nothing.
#[test]
fn degenerate_shapes_match_reference() {
    let plants = [
        // n = 1, SISO.
        StateSpace::new(
            Mat::from_rows(&[&[0.4]]),
            Mat::from_rows(&[&[1.0]]),
            Mat::from_rows(&[&[0.7]]),
            Mat::from_rows(&[&[0.2]]),
            Some(0.5),
        )
        .unwrap(),
        // Single-column RHS: three states, one input, two outputs.
        StateSpace::new(
            Mat::from_rows(&[&[0.3, 0.1, 0.0], &[-0.2, 0.25, 0.1], &[0.0, 0.3, -0.4]]),
            Mat::col(&[1.0, -0.5, 0.25]),
            Mat::from_rows(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, -1.0]]),
            Mat::from_rows(&[&[0.1], &[-0.3]]),
            Some(0.5),
        )
        .unwrap(),
    ];
    for sys in &plants {
        let fs = sys.freq_system();
        let grid = theta_grid(16);
        for (g, &theta) in sweep::sweep(fs, &grid, response).iter().zip(&grid) {
            let want = sys.eval_at_reference(C64::cis(theta)).unwrap();
            assert!(g.sub(&want).max_abs() < 1e-9);
        }
        // Empty grid: empty output, no error.
        assert!(sweep::sweep(fs, &[], response).is_empty());
    }
}
