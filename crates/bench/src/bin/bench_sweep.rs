//! Wall-clock timings of the frequency-sweep engine, written to
//! `results/BENCH_sweep.json`.
//!
//! Two variants of the µ-peak sweep are timed on the same systems and
//! grids:
//!
//! * `fast_serial`  — the Hessenberg fast path with closed-form small-σ̄,
//!   single-threaded (`mu_peak_serial`).
//! * `fast_parallel` — the same fast path through the chunked
//!   scoped-thread sweep driver (`mu_peak`); identical results, fans out on
//!   multi-core hosts.
//!
//! The fast path's accuracy against a thorough golden-section D-search is
//! a `yukta-control` test (`tests/mu_accuracy.rs`); its historical
//! speedups over the seed path are recorded in EXPERIMENTS.md.
//!
//! A second measurement is the telemetry overhead gate: the
//! order-16/120-point sweep through the instrumented entry point
//! (`mu_peak_serial`, no-op recorder) against the uninstrumented
//! `mu_peak_serial_raw`. Disabled telemetry must cost < 2%; a full run
//! records the measured number in `results/BENCH_obs.json`.
//!
//! `--quick` runs only the overhead gate, prints it and fails on a
//! regression — the CI gate. It writes nothing under `results/`.

use yukta_bench::{median, splitmix, time_best, time_interleaved, write_results};
use yukta_control::mu::{MuBlock, log_grid, mu_peak, mu_peak_serial, mu_peak_serial_raw};
use yukta_control::ss::StateSpace;
use yukta_linalg::Mat;

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

const TWO_1X1: [MuBlock; 2] = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];

/// Telemetry overhead gate on the order-16/120-point sweep: the
/// instrumented entry point under the **no-op** recorder
/// (`mu_peak_serial`) against the fully uninstrumented baseline
/// (`mu_peak_serial_raw`), interleaved sweep by sweep. Each of the `reps`
/// samples sums `inner` sweeps of each kind (one sweep takes 0.3–0.5 ms on
/// a 2-vCPU x86-64 VM; 24 span ≥ 7 ms), and the overhead is the median of
/// the per-sample ratios instrumented / raw: both sides of a sample share
/// the host's state at that moment, so its ratio cancels the slow drift
/// (frequency ramps, noisy neighbours) that a minimum of each side leaves
/// to chance, and the median ignores the samples a burst hit. The reported
/// times are the per-sweep medians of each side.
/// Fails the process beyond 2% — unless a recording (enabled) recorder is
/// installed, in which case the measurement is of *enabled* capture and
/// only reported. Returns the `results/BENCH_obs.json` text.
fn obs_overhead_gate() -> String {
    let (order, points, reps, inner) = (16usize, 120usize, 120usize, 24usize);
    let sys = stable_sys(order, order as u64);
    let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, points);
    let raw = || mu_peak_serial_raw(&sys, &TWO_1X1, &grid).unwrap().peak;
    let noop = || mu_peak_serial(&sys, &TWO_1X1, &grid).unwrap().peak;
    let (mut p_raw, mut p_inst) = (raw(), noop()); // warmup, untimed
    let pairs = time_interleaved(reps, inner, || p_raw = raw(), || p_inst = noop());
    let per_sweep = 1.0 / inner as f64;
    let t_raw = per_sweep * median(pairs.iter().map(|p| p.0).collect());
    let t_inst = per_sweep * median(pairs.iter().map(|p| p.1).collect());
    assert_eq!(
        p_raw.to_bits(),
        p_inst.to_bits(),
        "telemetry changed the sweep result"
    );
    let overhead = median(pairs.iter().map(|p| p.1 / p.0).collect()) - 1.0;
    let recording = yukta_obs::handle().enabled();
    println!(
        "telemetry overhead (order-{order}/{points}-point sweep, median ratio of {reps} \
         paired samples of {inner}): raw {t_raw:.6} s, instrumented {t_inst:.6} s per sweep \
         -> {:+.2}%{}",
        overhead * 100.0,
        if recording { " [recorder ENABLED]" } else { "" }
    );
    if !recording {
        assert!(
            overhead < 0.02,
            "disabled-telemetry overhead {:.2}% exceeds the 2% budget",
            overhead * 100.0
        );
    }
    format!(
        concat!(
            "{{\n  \"order\": {}, \"grid_points\": {}, \"reps\": {}, \"inner\": {},\n",
            "  \"raw_s\": {:.6}, \"noop_s\": {:.6},\n",
            "  \"overhead_frac\": {:.6}, \"recorder_enabled\": {}\n}}\n"
        ),
        order, points, reps, inner, t_raw, t_inst, overhead, recording
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let _obs = yukta_bench::obs::capture("bench_sweep", quick);
    let obs_json = obs_overhead_gate();
    if quick {
        return;
    }
    write_results("BENCH_obs.json", &obs_json);
    let blocks = TWO_1X1;
    let reps = 9;
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>6} | {:>12} {:>12}",
        "order", "grid", "fast (s)", "par (s)"
    );
    for &order in &[4usize, 8, 16] {
        for &points in &[30usize, 60, 120] {
            let sys = stable_sys(order, order as u64);
            let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, points);
            let (t_fast, p_fast) =
                time_best(reps, || mu_peak_serial(&sys, &blocks, &grid).unwrap().peak);
            let (t_par, p_par) = time_best(reps, || mu_peak(&sys, &blocks, &grid).unwrap().peak);
            assert_eq!(
                p_fast.to_bits(),
                p_par.to_bits(),
                "parallel sweep diverged from serial"
            );
            println!("{order:>6} {points:>6} | {t_fast:>12.6} {t_par:>12.6}");
            rows.push(format!(
                concat!(
                    "    {{\"order\": {}, \"grid_points\": {}, ",
                    "\"fast_serial_s\": {:.6}, \"fast_parallel_s\": {:.6}, ",
                    "\"peak\": {:.12}}}"
                ),
                order, points, t_fast, t_par, p_fast
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
