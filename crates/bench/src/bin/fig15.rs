//! Figure 15: sensitivity to the output deviation bounds.
//!
//! (a) Fixed-target tracking: the hardware controller tracks Perf₀ = 5.5
//!     BIPS, P_big₀ = 2.5 W, P_little₀ = 0.2 W, Temp₀ = 70 °C (OS: 1 /
//!     4.5 BIPS, ΔSC₀ = 1) on blackscholes, for performance bounds of
//!     ±20% (±1 BIPS), ±30% (±1.5 BIPS), ±50% (±2.5 BIPS). The paper's
//!     claim: performance stays within the bounds, and tighter bounds hug
//!     the target more closely.
//!
//! (b) E×D minimization under the same three bound settings, normalized to
//!     Coordinated heuristic (paper: −50%, −41%, −30%).

use yukta_bench::{eval_options, geomean, run_one, table_csv, trace_csv, write_results};
use yukta_core::controllers::ssv::{SsvHwController, SsvOsController};
use yukta_core::design::{Design, DesignOptions, build_design};
use yukta_core::runtime::Experiment;
use yukta_core::schemes::{Controllers, Scheme};
use yukta_core::signals::{HwOutputs, OsOutputs};
use yukta_workloads::catalog;

fn design_with_bounds(perf_bound: f64) -> Design {
    // The OS controller's perf bounds scale proportionally (Section VI-E1).
    let opts = DesignOptions {
        hw_bounds: [perf_bound, 0.10, 0.10, 0.10],
        os_bounds: [perf_bound, perf_bound, 0.20],
        ..Default::default()
    };
    build_design(&opts).expect("bounds design")
}

fn fixed_target_controllers(design: &Design) -> yukta_linalg::Result<Controllers> {
    let hw_targets = HwOutputs {
        perf: 5.5,
        p_big: 2.5,
        p_little: 0.2,
        temp: 70.0,
    };
    let os_targets = OsOutputs {
        perf_little: 1.0,
        perf_big: 4.5,
        spare_diff: 1.0,
    };
    Ok(Controllers::Split {
        hw: Box::new(SsvHwController::with_fixed_targets(
            &design.hw_ssv,
            hw_targets,
        )?),
        os: Box::new(SsvOsController::with_fixed_targets(
            &design.os_ssv,
            os_targets,
        )?),
    })
}

fn main() {
    let _obs = yukta_bench::obs::capture("fig15");
    let bounds = [0.20, 0.30, 0.50];
    let wl = catalog::parsec::blackscholes();

    println!("Figure 15(a): fixed-target tracking, performance bound sweep\n");
    println!(
        "{:>8} | {:>12} | {:>14} | {:>14}",
        "bound", "mean BIPS", "|dev| mean", "|dev| p95"
    );
    for (i, b) in bounds.iter().enumerate() {
        let design = design_with_bounds(*b);
        let exp = Experiment::with_design(Scheme::YuktaHwSsvOsSsv, design.clone())
            .with_options(eval_options());
        let rep = fixed_target_controllers(&design)
            .and_then(|c| exp.run_with_controllers(&wl, c))
            .expect("fixed-target run");
        // Deviation statistics over the steady portion (skip start/end 10%).
        let n = rep.trace.samples.len();
        let steady = &rep.trace.samples[n / 10..n - n / 10];
        let devs: Vec<f64> = steady.iter().map(|s| (s.bips - 5.5).abs()).collect();
        let mean_b = steady.iter().map(|s| s.bips).sum::<f64>() / steady.len() as f64;
        let mean_d = devs.iter().sum::<f64>() / devs.len() as f64;
        let mut sorted = devs.clone();
        sorted.sort_by(|a, c| a.partial_cmp(c).unwrap());
        let p95 = sorted[(sorted.len() as f64 * 0.95) as usize];
        println!(
            "{:>7.0}% | {:>12.2} | {:>14.2} | {:>14.2}",
            b * 100.0,
            mean_b,
            mean_d,
            p95
        );
        let cols: &[yukta_bench::TraceColumn<'_>] = &[("bips", |s| s.bips), ("p_big", |s| s.p_big)];
        write_results(&format!("fig15a_trace_{i}.csv"), &trace_csv(&rep, cols));
    }

    println!("\nFigure 15(b): E x D vs bounds (normalized to Coordinated heuristic)\n");
    let workloads = catalog::evaluation_set();
    let base: Vec<f64> = workloads
        .iter()
        .map(|w| run_one(Scheme::CoordinatedHeuristic, w).metrics.exd())
        .collect();
    let mut rows = Vec::new();
    for b in bounds {
        let design = design_with_bounds(b);
        let ratios: Vec<f64> = workloads
            .iter()
            .zip(&base)
            .map(|(w, base_exd)| {
                let rep = Experiment::with_design(Scheme::YuktaHwSsvOsSsv, design.clone())
                    .with_options(eval_options())
                    .run(w)
                    .expect("bounds run");
                rep.metrics.exd() / base_exd
            })
            .collect();
        let avg = geomean(&ratios);
        println!("bounds ±{:.0}%: normalized E x D = {avg:.3}", b * 100.0);
        rows.push(vec![b, avg]);
    }
    write_results(
        "fig15b_exd.csv",
        &table_csv(&["bound", "normalized_exd"], &rows, 4),
    );
    println!("\nPaper reference: ±20% → 0.50, ±30% → 0.59, ±50% → 0.70.");
}
