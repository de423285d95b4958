//! Figure 17: big-cluster power vs time for input weights 0.5 / 1 / 2,
//! with the big-cluster power target fixed at 2.5 W on blackscholes.
//!
//! The paper's claim: weight 0.5 reacts fast but ripples; weight 2 is
//! sluggish (holds power high for ~40 s after the thread launch); weight 1
//! responds at modest speed with no oscillation. The interesting moment is
//! the parallel-phase launch, when power jumps.

use yukta_bench::{eval_options, trace_csv, write_results};
use yukta_core::controllers::ssv::{SsvHwController, SsvOsController};
use yukta_core::design::{DesignOptions, build_design};
use yukta_core::optimizer::OsOptimizer;
use yukta_core::runtime::Experiment;
use yukta_core::schemes::{Controllers, Scheme};
use yukta_core::signals::HwOutputs;
use yukta_workloads::catalog;

fn main() {
    let _obs = yukta_bench::obs::capture("fig17");
    let weights = [0.5, 1.0, 2.0];
    let wl = catalog::parsec::blackscholes();
    println!("Figure 17: big-cluster power under fixed 2.5 W target, weight sweep\n");
    println!(
        "{:>7} | {:>12} | {:>14} | {:>12}",
        "weight", "mean Pbig", "ripple (std)", "crossings"
    );
    for (i, w) in weights.iter().enumerate() {
        let opts = DesignOptions {
            hw_weights: [*w; 4],
            ..Default::default()
        };
        let design = build_design(&opts).expect("weight design");
        // Fixed hardware targets isolate the tracking behaviour.
        let hw_targets = HwOutputs {
            perf: 6.0,
            p_big: 2.5,
            p_little: 0.2,
            temp: 70.0,
        };
        let controllers = Controllers::Split {
            hw: Box::new(
                SsvHwController::with_fixed_targets(&design.hw_ssv, hw_targets)
                    .expect("hw SSV deployment"),
            ),
            os: Box::new(
                SsvOsController::new(&design.os_ssv, OsOptimizer::new())
                    .expect("os SSV deployment"),
            ),
        };
        let rep = Experiment::with_design(Scheme::YuktaHwSsvOsSsv, design)
            .with_options(eval_options())
            .run_with_controllers(&wl, controllers)
            .expect("weight run");
        let n = rep.trace.samples.len();
        let steady = &rep.trace.samples[n / 5..n - n / 10];
        let mean = steady.iter().map(|s| s.p_big).sum::<f64>() / steady.len() as f64;
        let var =
            steady.iter().map(|s| (s.p_big - mean).powi(2)).sum::<f64>() / steady.len() as f64;
        let crossings = rep.trace.crossings_above(|s| s.p_big, 2.5);
        println!(
            "{:>7.1} | {:>12.2} | {:>14.3} | {:>12}",
            w,
            mean,
            var.sqrt(),
            crossings
        );
        let cols: &[yukta_bench::TraceColumn<'_>] =
            &[("p_big", |s| s.p_big), ("f_big", |s| s.f_big)];
        write_results(&format!("fig17_trace_w{i}.csv"), &trace_csv(&rep, cols));
    }
    println!("\nPaper reference: weight 0.5 → quick oscillations; 1 → modest, no");
    println!("oscillation; 2 → sluggish (~40 s to shed the thread-launch power).");
}
