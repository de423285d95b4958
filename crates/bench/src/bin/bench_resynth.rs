//! In-loop resynthesis budget benchmark, written to
//! `results/BENCH_resynth.json`.
//!
//! Two measurements back the adaptive-resynthesis story (DESIGN.md §13):
//!
//! * `resynth` — the full in-loop pipeline on an order-16 model:
//!   re-identification (`fit_arx` + stabilization + resampling) followed
//!   by a complete D–K synthesis (`synthesize_ssv`) at the production
//!   option set. The budget is one controller period (500 ms): a
//!   background resynthesis that fits inside it can hot-swap at the next
//!   invocation with zero actuation gap.
//! * `dsearch` — the D-search-dominated `two_1x1` µ sweep (order 16,
//!   120 grid points) against a faithful replica of the pre-PR optimizer:
//!   same Hessenberg evaluator, but per-point golden-section (3 passes ×
//!   40 iterations) where every candidate D materializes a scaled copy of
//!   the response (`apply_scalings`) before σ̄. The shipped path batches
//!   Osborne initialization across the chunk and refines through the
//!   fused `sigma_max_scaled` kernel with no per-candidate allocation.
//!
//! Both modes gate the D-search speedup over the replica at ≥ 1.3× and
//! the resynthesis at the 500 ms budget. `--quick` is the CI gate: when
//! `results/BENCH_resynth.json` holds a recorded baseline, the measured
//! resynthesis time must also not regress past 2× the recorded value. It
//! does not rewrite the JSON; the full run does.

use std::time::Instant;

use yukta_bench::{time_best, write_results};
use yukta_control::dk::{DkOptions, synthesize_ssv};
use yukta_control::mu::{MuBlock, MuPeak, apply_scalings, log_grid, mu_peak_serial};
use yukta_control::plant::SsvSpec;
use yukta_control::ss::StateSpace;
use yukta_control::sysid::{SysIdConfig, fit_arx};
use yukta_linalg::svd::sigma_max;
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

/// Pre-PR replica of `mu::mu_upper_bound`: cyclic golden-section over
/// log10(d) (3 passes × 40 iterations) where every candidate materializes
/// the scaled response through `apply_scalings` before the closed-form σ̄.
/// The shipped optimizer replaced this with one batched Osborne
/// initialization plus a short fused-kernel refinement per point.
fn pre_pr_mu_upper_bound(n: &CMat, blocks: &[MuBlock]) -> (f64, Vec<f64>) {
    let nb = blocks.len();
    let mut d = vec![1.0; nb];
    let mut best = sigma_max(n);
    if nb == 1 {
        return (best, d);
    }
    for _ in 0..3 {
        let mut improved = false;
        for bi in 0..nb - 1 {
            let eval = |ld: f64, d: &mut Vec<f64>| -> f64 {
                d[bi] = 10f64.powf(ld);
                sigma_max(&apply_scalings(n, blocks, d))
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
    let final_val = sigma_max(&apply_scalings(n, blocks, &d)).min(sigma_max(n));
    (final_val.min(best.max(final_val)), d)
}

/// The pre-PR µ-peak sweep: the Hessenberg fast evaluator feeding the
/// golden-section-with-materialization optimizer at every grid point.
fn pre_pr_mu_peak(sys: &StateSpace, blocks: &[MuBlock], grid: &[f64]) -> MuPeak {
    let ts = sys.ts().expect("discrete");
    let mut peak = MuPeak {
        peak: 0.0,
        w_peak: grid.first().copied().unwrap_or(1.0),
        scalings: vec![1.0; blocks.len()],
        curve: Vec::with_capacity(grid.len()),
        point_scalings: Vec::with_capacity(grid.len()),
    };
    for &w in grid {
        let Ok(n) = sys.eval_at(C64::cis(w * ts)) else {
            continue;
        };
        let (value, scalings) = pre_pr_mu_upper_bound(&n, blocks);
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

struct DsearchRow {
    pre_pr_s: f64,
    new_scalar_s: f64,
    speedup_scalar: f64,
}

/// Times the D-search-dominated two_1x1 sweep: pre-PR replica vs the
/// shipped optimizer, interleaved rep-by-rep like `bench_sweep`.
fn dsearch_comparison(order: usize, points: usize, reps: usize) -> DsearchRow {
    let sys = stable_sys(order, order as u64);
    let grid = log_grid(1e-3, 0.98 * std::f64::consts::PI / 0.5, points);
    let pre = || pre_pr_mu_peak(&sys, &TWO_1X1, &grid).peak;
    let scalar = || mu_peak_serial(&sys, &TWO_1X1, &grid).unwrap().peak;
    let (mut p_pre, mut p_scalar) = (pre(), scalar());
    let (mut t_pre, mut t_scalar) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        p_pre = pre();
        t_pre = t_pre.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        p_scalar = scalar();
        t_scalar = t_scalar.min(t0.elapsed().as_secs_f64());
    }
    // The shipped optimizer takes a different (tighter) search path, so
    // agreement with the pre-PR bound is to optimizer tolerance — both
    // are upper bounds on the same µ; neither may drift far.
    assert!(
        (p_pre - p_scalar).abs() <= 2e-2 * p_pre.abs().max(1.0),
        "new D-search drifted from pre-PR bound: {p_pre} vs {p_scalar}"
    );
    let row = DsearchRow {
        pre_pr_s: t_pre,
        new_scalar_s: t_scalar,
        speedup_scalar: t_pre / t_scalar,
    };
    println!(
        "dsearch two_1x1 order-{order}/{points}pt (min of {reps}): pre-PR {:.6} s, \
         new {:.6} s ({:.2}x)",
        row.pre_pr_s, row.new_scalar_s, row.speedup_scalar
    );
    row
}

struct ResynthRow {
    model_order: usize,
    identify_ms: f64,
    synthesize_ms: f64,
    total_ms: f64,
    mu_peak: f64,
}

/// One full in-loop resynthesis on an order-16 model: re-identify from
/// logged I/O data, then run the complete D–K synthesis at the production
/// option set (`max_iters` 2, `gamma_iters` 14, 25-point µ grid — the
/// same knobs `yukta_core::design` deploys).
fn resynth_benchmark(reps: usize) -> ResynthRow {
    // Logged excitation: PRBS-ish inputs driving an order-16 truth plant
    // with 2 outputs and 3 inputs (2 actuated + 1 external), sampled at
    // the 500 ms controller period.
    let n_samples = 400usize;
    let truth = {
        let mut s = 0x5eed5eed5eedu64;
        let n = 16usize;
        let mut a = Mat::from_vec(n, n, (0..n * n).map(|_| splitmix(&mut s)).collect());
        a = a.scale(0.9 / (a.inf_norm() + 1e-9));
        let b = Mat::from_vec(n, 3, (0..n * 3).map(|_| splitmix(&mut s)).collect());
        let c = Mat::from_vec(2, n, (0..2 * n).map(|_| splitmix(&mut s)).collect());
        StateSpace::new(a, b, c, Mat::zeros(2, 3), Some(0.5)).unwrap()
    };
    let mut s = 0xda7au64;
    let u: Vec<Vec<f64>> = (0..n_samples)
        .map(|_| (0..3).map(|_| 2.0 * splitmix(&mut s)).collect())
        .collect();
    let y = truth.simulate(&u).unwrap();
    // ny = 2, na = 8 → the ARX realization lands above the order-16
    // acceptance target (asserted below).
    let sysid_cfg = SysIdConfig {
        na: 8,
        nb: 2,
        nc: 0,
        plr_iters: 0,
        ridge: 1e-4,
    };
    let spec = SsvSpec::new(0.5, 2, 2, 1);
    let dk = DkOptions {
        max_iters: 2,
        gamma_iters: 14,
        n_freq: 25,
        ..DkOptions::default()
    };
    let identify = || {
        fit_arx(&u, &y, sysid_cfg)
            .unwrap()
            .stabilized(0.97)
            .unwrap()
            .with_sample_period(0.5)
            .unwrap()
    };
    let model = identify();
    assert!(
        model.sys.order() >= 16,
        "identified order {} below the order-16 target",
        model.sys.order()
    );
    let (t_id, _) = time_best(reps, || {
        let m = identify();
        m.sys.order() as f64
    });
    let (t_syn, mu) = time_best(reps, || {
        synthesize_ssv(&model.sys, &spec, dk).unwrap().mu_peak
    });
    let row = ResynthRow {
        model_order: model.sys.order(),
        identify_ms: t_id * 1e3,
        synthesize_ms: t_syn * 1e3,
        total_ms: (t_id + t_syn) * 1e3,
        mu_peak: mu,
    };
    println!(
        "resynth order-{} (min of {reps}): identify {:.2} ms + synthesize {:.2} ms \
         = {:.2} ms (budget 500 ms), mu_peak {:.4}",
        row.model_order, row.identify_ms, row.synthesize_ms, row.total_ms, row.mu_peak
    );
    row
}

/// Reads the recorded `total_ms` from a previous full run of this bench,
/// for the `--quick` regression gate. Plain string scan — the results
/// files are written by this crate in a fixed format.
fn recorded_baseline_ms() -> Option<f64> {
    let text = std::fs::read_to_string("results/BENCH_resynth.json").ok()?;
    let key = "\"total_ms\": ";
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

const BUDGET_MS: f64 = 500.0;

fn main() {
    let _obs = yukta_bench::obs::capture("bench_resynth");
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 5 } else { 7 };
    let ds = dsearch_comparison(16, 120, reps);
    assert!(
        ds.speedup_scalar >= 1.3,
        "two_1x1 D-search speedup {:.2}x below the 1.3x gate",
        ds.speedup_scalar
    );
    let rs = resynth_benchmark(if quick { 3 } else { 5 });
    assert!(
        rs.total_ms < BUDGET_MS,
        "resynthesis {:.1} ms blows the {BUDGET_MS} ms controller-period budget",
        rs.total_ms
    );
    if quick {
        if let Some(base_ms) = recorded_baseline_ms() {
            println!("recorded baseline: {base_ms:.2} ms (gate: < 2x)");
            assert!(
                rs.total_ms < 2.0 * base_ms,
                "resynthesis {:.1} ms regressed past 2x the recorded {:.1} ms baseline",
                rs.total_ms,
                base_ms
            );
        } else {
            println!(
                "no recorded baseline in results/BENCH_resynth.json; skipping regression gate"
            );
        }
        return;
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        concat!(
            "{{\n  \"threads\": {},\n  \"reps\": {},\n",
            "  \"budget_ms\": {},\n",
            "  \"resynth\": {{\"model_order\": {}, \"identify_ms\": {:.3}, ",
            "\"synthesize_ms\": {:.3}, \"total_ms\": {:.3}, \"mu_peak\": {:.6}}},\n",
            "  \"dsearch\": {{\"order\": 16, \"grid_points\": 120, \"blocks\": \"two_1x1\", ",
            "\"pre_pr_s\": {:.6}, \"new_scalar_s\": {:.6}, \"speedup_scalar\": {:.2}}}\n}}\n"
        ),
        threads,
        reps,
        BUDGET_MS,
        rs.model_order,
        rs.identify_ms,
        rs.synthesize_ms,
        rs.total_ms,
        rs.mu_peak,
        ds.pre_pr_s,
        ds.new_scalar_s,
        ds.speedup_scalar
    );
    write_results("BENCH_resynth.json", &json);
}
