//! In-loop resynthesis budget benchmark, written to
//! `results/BENCH_resynth.json`.
//!
//! The measurement backs the adaptive-resynthesis story (DESIGN.md §13):
//! the full in-loop pipeline on an order-16 model — re-identification
//! (`fit_arx` + stabilization + resampling) followed by a complete D–K
//! synthesis (`synthesize_ssv`) at the production option set. The budget
//! is one controller period (500 ms): a background resynthesis that fits
//! inside it can hot-swap at the next invocation with zero actuation gap.
//!
//! Both modes gate the resynthesis at the 500 ms budget. `--quick` is the
//! CI gate: it checks without recording — the measured resynthesis time
//! must also not regress past 2× the baseline committed in
//! `results/BENCH_resynth.json`, and a missing baseline fails. The full
//! run rewrites the JSON.
//!
//! The D-search-dominated order-16/120-point `two_1x1` µ sweep is timed
//! by `bench_sweep`.

use yukta_bench::{required, splitmix, time_best, write_results};
use yukta_control::dk::synthesize_ssv;
use yukta_control::plant::SsvSpec;
use yukta_control::ss::StateSpace;
use yukta_control::sysid::{SysIdConfig, fit_arx};
use yukta_core::design::{SYSID_CONFIG, dk_options};
use yukta_linalg::Mat;

struct ResynthRow {
    model_order: usize,
    identify_ms: f64,
    synthesize_ms: f64,
    total_ms: f64,
    mu_peak: f64,
}

/// One full in-loop resynthesis on an order-16 model: re-identify from
/// logged I/O data, then run the complete D–K synthesis at the production
/// option set (`yukta_core::design::dk_options`, the knobs the deployed
/// controllers are built with).
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
        ..SYSID_CONFIG
    };
    let spec = SsvSpec::new(0.5, 2, 2, 1);
    let identify = || {
        fit_arx(&u, &y, sysid_cfg)
            .unwrap()
            .stabilized(0.97)
            .unwrap()
            .with_sample_period(0.5)
            .unwrap()
    };
    let (t_id, model) = time_best(reps, identify);
    assert!(
        model.sys.order() >= 16,
        "identified order {} below the order-16 target",
        model.sys.order()
    );
    let (t_syn, mu) = time_best(reps, || {
        synthesize_ssv(&model.sys, &spec, dk_options())
            .unwrap()
            .mu_peak
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

const BUDGET_MS: f64 = 500.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let _obs = yukta_bench::obs::capture("bench_resynth", quick);
    let reps = if quick { 3 } else { 5 };
    let rs = resynth_benchmark(reps);
    assert!(
        rs.total_ms < BUDGET_MS,
        "resynthesis {:.1} ms blows the {BUDGET_MS} ms controller-period budget",
        rs.total_ms
    );
    if quick {
        let base_ms = required("results/BENCH_resynth.json", &["resynth", "total_ms"]);
        println!("recorded baseline: {base_ms:.2} ms (gate: < 2x)");
        assert!(
            rs.total_ms < 2.0 * base_ms,
            "resynthesis {:.1} ms regressed past 2x the recorded {:.1} ms baseline",
            rs.total_ms,
            base_ms
        );
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
            "\"synthesize_ms\": {:.3}, \"total_ms\": {:.3}, \"mu_peak\": {:.6}}}\n}}\n"
        ),
        threads,
        reps,
        BUDGET_MS,
        rs.model_order,
        rs.identify_ms,
        rs.synthesize_ms,
        rs.total_ms,
        rs.mu_peak,
    );
    write_results("BENCH_resynth.json", &json);
}
