//! Accuracy of the shipped µ D-search against a thorough reference.
//!
//! The sweep's optimizer is fast because it is short: an Osborne
//! initialization plus a 20-iteration golden-section polish within ±1
//! decade. The reference below is the slow, exhaustive search it
//! replaced — cyclic golden section over the full log10 d ∈ [−3, 3]
//! bracket (3 passes × 40 iterations per free block), every candidate
//! materialized through the public `apply_scalings` and reduced by
//! `sigma_max`. Both are upper bounds on the same µ; the shipped one must
//! reach the reference's value to 1e-6 relative at every grid point and at
//! the peak, on the nine (order, grid) systems `bench_sweep` times.

use yukta_control::mu::{MuBlock, apply_scalings, log_grid, mu_peak_serial};
use yukta_control::ss::StateSpace;
use yukta_linalg::svd::sigma_max;
use yukta_linalg::{C64, CMat, Mat};

const TWO_1X1: [MuBlock; 2] = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];

/// Deterministic pseudo-random value in `[-0.5, 0.5)`.
fn splitmix(s: &mut u64) -> f64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
}

/// A stable discrete 2-in/2-out system of the given order (the plant
/// family `bench_sweep` times).
fn stable_sys(n: usize, seed: u64) -> StateSpace {
    let mut s = seed;
    let mut a = Mat::from_vec(n, n, (0..n * n).map(|_| splitmix(&mut s)).collect());
    a = a.scale(0.9 / (a.inf_norm() + 1e-9));
    let b = Mat::from_vec(n, 2, (0..n * 2).map(|_| splitmix(&mut s)).collect());
    let c = Mat::from_vec(2, n, (0..2 * n).map(|_| splitmix(&mut s)).collect());
    let d = Mat::from_vec(2, 2, (0..4).map(|_| 0.2 * splitmix(&mut s)).collect());
    StateSpace::new(a, b, c, d, Some(0.5)).unwrap()
}

/// The thorough reference bound: cyclic golden section over log10 d for
/// each free block (the last block's scaling is pinned at 1).
fn thorough_mu_upper_bound(n: &CMat, blocks: &[MuBlock]) -> f64 {
    let phi = 0.5 * (5f64.sqrt() - 1.0);
    let mut d = vec![1.0; blocks.len()];
    let mut best = sigma_max(n);
    for _ in 0..3 {
        let mut improved = false;
        for bi in 0..blocks.len() - 1 {
            let mut eval = |ld: f64| {
                d[bi] = 10f64.powf(ld);
                sigma_max(&apply_scalings(n, blocks, &d))
            };
            let (mut lo, mut hi) = (-3.0f64, 3.0f64);
            let (mut x1, mut x2) = (hi - phi * (hi - lo), lo + phi * (hi - lo));
            let (mut f1, mut f2) = (eval(x1), eval(x2));
            for _ in 0..40 {
                if f1 < f2 {
                    (hi, x2, f2) = (x2, x1, f1);
                    x1 = hi - phi * (hi - lo);
                    f1 = eval(x1);
                } else {
                    (lo, x1, f1) = (x1, x2, f2);
                    x2 = lo + phi * (hi - lo);
                    f2 = eval(x2);
                }
            }
            let (ld, f) = if f1 < f2 { (x1, f1) } else { (x2, f2) };
            improved |= f < best - 1e-12;
            best = best.min(f);
            d[bi] = 10f64.powf(ld);
        }
        if !improved {
            break;
        }
    }
    best
}

#[test]
fn shipped_d_search_reaches_the_thorough_bound() {
    for order in [4usize, 8, 16] {
        for points in [30usize, 60, 120] {
            let sys = stable_sys(order, order as u64);
            let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, points);
            let shipped = mu_peak_serial(&sys, &TWO_1X1, &grid).unwrap();
            assert_eq!(shipped.curve.len(), grid.len());
            let mut ref_peak = 0.0f64;
            for &(w, value) in &shipped.curve {
                let n = sys.eval_at(C64::cis(w * sys.ts().unwrap())).unwrap();
                let reference = thorough_mu_upper_bound(&n, &TWO_1X1);
                assert!(
                    (value - reference).abs() <= 1e-6 * reference,
                    "order {order}/{points} pt, w {w}: shipped {value} vs thorough {reference}"
                );
                ref_peak = ref_peak.max(reference);
            }
            assert!(
                (shipped.peak - ref_peak).abs() <= 1e-6 * ref_peak,
                "order {order}/{points} pt: shipped peak {} vs thorough {ref_peak}",
                shipped.peak
            );
        }
    }
}
