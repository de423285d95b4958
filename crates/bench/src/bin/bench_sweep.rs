//! Wall-clock comparison of the frequency-sweep engine against the seed
//! implementation, written to `results/BENCH_sweep.json`.
//!
//! Three variants of the µ-peak sweep are timed on the same systems and
//! grids:
//!
//! * `naive_serial` — the seed path, replicated here: a dense complex LU
//!   with fresh allocations at every grid point
//!   (`StateSpace::eval_at_reference`) feeding a D-scaling search whose
//!   σ̄ evaluations use the iterative `sigma_max_power` (the seed's only
//!   `sigma_max`).
//! * `fast_serial`  — the Hessenberg fast path with closed-form small-σ̄,
//!   single-threaded (`mu_peak_serial`).
//! * `fast_parallel` — the same fast path through the chunked
//!   crossbeam sweep driver (`mu_peak`); identical results, fans out on
//!   multi-core hosts.
//!
//! A second measurement is the telemetry overhead gate: the
//! order-16/120-point sweep through the instrumented entry point
//! (`mu_peak_serial`, no-op recorder) against the uninstrumented
//! `mu_peak_serial_raw`. Disabled telemetry must cost < 2%; the measured
//! number goes to `results/BENCH_obs.json`.
//!
//! `--quick` runs only the overhead gate and fails on a regression — the
//! CI gate. It does not rewrite `results/BENCH_sweep.json`.

use std::time::Instant;

use yukta_bench::{time_best, write_results};
use yukta_control::mu::{MuBlock, MuPeak, log_grid, mu_peak, mu_peak_serial, mu_peak_serial_raw};
use yukta_control::ss::StateSpace;
use yukta_linalg::svd::sigma_max_power;
use yukta_linalg::{C64, CMat, Mat};

/// Deterministic pseudo-random value in `[-0.5, 0.5)`.
fn splitmix(s: &mut u64) -> f64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
}

/// A stable discrete 2-in/2-out system of the given order.
fn stable_sys(n: usize, seed: u64) -> StateSpace {
    let mut s = seed;
    let mut a = Mat::from_vec(n, n, (0..n * n).map(|_| splitmix(&mut s)).collect());
    a = a.scale(0.9 / (a.inf_norm() + 1e-9));
    let b = Mat::from_vec(n, 2, (0..n * 2).map(|_| splitmix(&mut s)).collect());
    let c = Mat::from_vec(2, n, (0..2 * n).map(|_| splitmix(&mut s)).collect());
    let d = Mat::from_vec(2, 2, (0..4).map(|_| 0.2 * splitmix(&mut s)).collect());
    StateSpace::new(a, b, c, d, Some(0.5)).unwrap()
}

/// Seed copy of `mu::apply_scalings`: `D_L · N · D_R⁻¹`.
fn seed_apply_scalings(n: &CMat, blocks: &[MuBlock], d: &[f64]) -> CMat {
    let mut out = n.clone();
    let mut r0 = 0;
    for (bi, b) in blocks.iter().enumerate() {
        for i in r0..r0 + b.n_out {
            for j in 0..out.cols() {
                out.set(i, j, out.get(i, j) * d[bi]);
            }
        }
        r0 += b.n_out;
    }
    let mut c0 = 0;
    for (bi, b) in blocks.iter().enumerate() {
        let inv = 1.0 / d[bi];
        for j in c0..c0 + b.n_in {
            for i in 0..out.rows() {
                out.set(i, j, out.get(i, j) * inv);
            }
        }
        c0 += b.n_in;
    }
    out
}

/// Seed copy of `mu::mu_upper_bound`: cyclic golden-section D-scaling with
/// every σ̄ evaluated by the iterative power method (the seed had no
/// closed-form small-matrix path).
fn seed_mu_upper_bound(n: &CMat, blocks: &[MuBlock]) -> (f64, Vec<f64>) {
    let nb = blocks.len();
    let mut d = vec![1.0; nb];
    let mut best = sigma_max_power(n);
    if nb == 1 {
        return (best, d);
    }
    for _ in 0..3 {
        let mut improved = false;
        for bi in 0..nb - 1 {
            let eval = |ld: f64, d: &mut Vec<f64>| -> f64 {
                d[bi] = 10f64.powf(ld);
                sigma_max_power(&seed_apply_scalings(n, blocks, d))
            };
            let (mut lo, mut hi) = (-3.0f64, 3.0f64);
            let phi = 0.5 * (5f64.sqrt() - 1.0);
            let mut x1 = hi - phi * (hi - lo);
            let mut x2 = lo + phi * (hi - lo);
            let mut f1 = eval(x1, &mut d);
            let mut f2 = eval(x2, &mut d);
            for _ in 0..40 {
                if f1 < f2 {
                    hi = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = hi - phi * (hi - lo);
                    f1 = eval(x1, &mut d);
                } else {
                    lo = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = lo + phi * (hi - lo);
                    f2 = eval(x2, &mut d);
                }
            }
            let (ld, f) = if f1 < f2 { (x1, f1) } else { (x2, f2) };
            if f < best - 1e-12 {
                best = f;
                improved = true;
            }
            d[bi] = 10f64.powf(ld);
        }
        if !improved {
            break;
        }
    }
    let final_val = sigma_max_power(&seed_apply_scalings(n, blocks, &d)).min(sigma_max_power(n));
    (final_val.min(best.max(final_val)), d)
}

/// The seed µ-peak sweep: dense complex LU and iterative σ̄ per grid point.
fn mu_peak_naive(sys: &StateSpace, blocks: &[MuBlock], grid: &[f64]) -> MuPeak {
    let ts = sys.ts().expect("discrete");
    let mut peak = MuPeak {
        peak: 0.0,
        w_peak: grid.first().copied().unwrap_or(1.0),
        scalings: vec![1.0; blocks.len()],
        curve: Vec::with_capacity(grid.len()),
        point_scalings: Vec::with_capacity(grid.len()),
    };
    for &w in grid {
        let Ok(n) = sys.eval_at_reference(C64::cis(w * ts)) else {
            continue;
        };
        let (value, scalings) = seed_mu_upper_bound(&n, blocks);
        peak.curve.push((w, value));
        if value > peak.peak {
            peak.peak = value;
            peak.w_peak = w;
            peak.scalings = scalings.clone();
        }
        peak.point_scalings.push(scalings);
    }
    peak
}

const TWO_1X1: [MuBlock; 2] = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];

/// Telemetry overhead gate on the order-16/120-point sweep: the
/// instrumented entry point under the **no-op** recorder
/// (`mu_peak_serial`) against the fully uninstrumented baseline
/// (`mu_peak_serial_raw`), interleaved rep-by-rep so slow drift
/// (frequency ramps, noisy neighbors on shared hosts) hits both minimums
/// alike.
/// Writes `results/BENCH_obs.json` and fails the process beyond 2% —
/// unless a recording (enabled) recorder is installed, in which case the
/// measurement is of *enabled* capture and only reported.
fn obs_overhead_gate() {
    let (order, points, reps) = (16usize, 120usize, 15usize);
    let sys = stable_sys(order, order as u64);
    let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, points);
    let raw = || mu_peak_serial_raw(&sys, &TWO_1X1, &grid).unwrap().peak;
    let noop = || mu_peak_serial(&sys, &TWO_1X1, &grid).unwrap().peak;
    let (mut p_raw, mut p_inst) = (raw(), noop()); // warmup, untimed
    let (mut t_raw, mut t_inst) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        p_raw = raw();
        t_raw = t_raw.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        p_inst = noop();
        t_inst = t_inst.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(
        p_raw.to_bits(),
        p_inst.to_bits(),
        "telemetry changed the sweep result"
    );
    let overhead = t_inst / t_raw - 1.0;
    let recording = yukta_obs::handle().enabled();
    println!(
        "telemetry overhead (order-{order}/{points}-point sweep, min of {reps}): \
         raw {t_raw:.6} s, instrumented {t_inst:.6} s -> {:+.2}%{}",
        overhead * 100.0,
        if recording { " [recorder ENABLED]" } else { "" }
    );
    write_results(
        "BENCH_obs.json",
        &format!(
            concat!(
                "{{\n  \"order\": {}, \"grid_points\": {}, \"reps\": {},\n",
                "  \"raw_s\": {:.6}, \"noop_s\": {:.6},\n",
                "  \"overhead_frac\": {:.6}, \"recorder_enabled\": {}\n}}\n"
            ),
            order, points, reps, t_raw, t_inst, overhead, recording
        ),
    );
    if !recording {
        assert!(
            overhead < 0.02,
            "disabled-telemetry overhead {:.2}% exceeds the 2% budget",
            overhead * 100.0
        );
    }
}

fn main() {
    let _obs = yukta_bench::obs::capture("bench_sweep");
    if std::env::args().any(|a| a == "--quick") {
        obs_overhead_gate();
        return;
    }
    obs_overhead_gate();
    let blocks = TWO_1X1;
    let reps = 9;
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>6} | {:>12} {:>12} {:>12} | {:>8} {:>8}",
        "order", "grid", "naive (s)", "fast (s)", "par (s)", "fast x", "par x"
    );
    for &order in &[4usize, 8, 16] {
        for &points in &[30usize, 60, 120] {
            let sys = stable_sys(order, order as u64);
            let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, points);
            let (t_naive, p_naive) = time_best(reps, || mu_peak_naive(&sys, &blocks, &grid).peak);
            let (t_fast, p_fast) =
                time_best(reps, || mu_peak_serial(&sys, &blocks, &grid).unwrap().peak);
            let (t_par, p_par) = time_best(reps, || mu_peak(&sys, &blocks, &grid).unwrap().peak);
            // The fast path swaps the iterative σ̄ for an exact closed
            // form, so agreement is to σ̄'s convergence tolerance, not ULP.
            assert!(
                (p_naive - p_fast).abs() <= 1e-6 * p_naive.abs().max(1.0),
                "fast path diverged from naive: {p_naive} vs {p_fast}"
            );
            assert_eq!(
                p_fast.to_bits(),
                p_par.to_bits(),
                "parallel sweep diverged from serial"
            );
            println!(
                "{:>6} {:>6} | {:>12.6} {:>12.6} {:>12.6} | {:>8.2} {:>8.2}",
                order,
                points,
                t_naive,
                t_fast,
                t_par,
                t_naive / t_fast,
                t_naive / t_par
            );
            rows.push(format!(
                concat!(
                    "    {{\"order\": {}, \"grid_points\": {}, ",
                    "\"naive_serial_s\": {:.6}, \"fast_serial_s\": {:.6}, ",
                    "\"fast_parallel_s\": {:.6}, \"speedup_serial\": {:.2}, ",
                    "\"speedup_parallel\": {:.2}, \"peak\": {:.12}}}"
                ),
                order,
                points,
                t_naive,
                t_fast,
                t_par,
                t_naive / t_fast,
                t_naive / t_par,
                p_fast
            ));
        }
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        concat!(
            "{{\n  \"threads\": {},\n  \"reps\": {},\n",
            "  \"rows\": [\n{}\n  ]\n}}\n"
        ),
        threads,
        reps,
        rows.join(",\n")
    );
    write_results("BENCH_sweep.json", &json);
}
