//! Design diagnostics: everything a control engineer would inspect before
//! deploying the synthesized controllers — identification fit, achieved γ,
//! µ upper bound, Hankel spectrum, and the deployed stack's compute cost.

use yukta_bench::rounded;
use yukta_control::reduce::balanced_truncation;
use yukta_core::design::default_design;
use yukta_core::runtime::{Experiment, RunOptions};
use yukta_core::schemes::Scheme;
use yukta_linalg::eig::spectral_radius;
use yukta_workloads::catalog;

fn main() {
    let _obs = yukta_bench::obs::capture_obs_only("diagnostics");
    let d = default_design();
    println!("=== Yukta design diagnostics ===\n");
    println!("identification fit (1 = perfect, one-step-ahead):");
    println!(
        "  HW model [perf, p_big, p_little, temp] = {:?}",
        rounded(&d.hw_fit, 3)
    );
    println!(
        "  OS model [perf_little, perf_big, dSC]  = {:?}\n",
        rounded(&d.os_fit, 3)
    );
    println!("guardband (auto-tuned from held-out validation residual):");
    println!(
        "  HW: residual = {:.3}, uncertainty used = {:.3}",
        d.hw_residual, d.hw_uncertainty_used
    );
    println!(
        "  OS: residual = {:.3}, uncertainty used = {:.3}\n",
        d.os_residual, d.os_uncertainty_used
    );

    for (name, syn) in [("HW", &d.hw_ssv), ("OS", &d.os_ssv)] {
        println!("{name} SSV controller:");
        println!("  order              = {}", syn.controller.order());
        println!("  achieved gamma     = {:.2}", syn.gamma);
        println!("  mu upper bound     = {:.2}", syn.mu_peak);
        println!(
            "  guaranteed bounds  = {:?} (requested x mu)",
            rounded(&syn.guaranteed_bounds, 3)
        );
        println!(
            "  spectral radius    = {:.4} (deployed observer form)",
            spectral_radius(syn.controller.a()).unwrap()
        );
        if let Ok(red) = balanced_truncation(&syn.controller, syn.controller.order()) {
            let h = rounded(&red.hankel[..red.hankel.len().min(8)], 3);
            println!("  leading Hankel sv  = {h:?}");
        }
        println!();
    }

    // Wall-clock controller compute cost: the real time the deployed stack
    // spends inside `invoke` (the control-law jitter budget — the paper's
    // prototype fired every 500 ms, so the worst case must stay far below
    // that period).
    let wl = catalog::parsec::blackscholes();
    let rep = Experiment::new(Scheme::YuktaHwSsvOsSsv)
        .with_options(RunOptions {
            timeout_s: 120.0,
            ..Default::default()
        })
        .run(&wl)
        .expect("compute-cost run");
    let c = rep.compute;
    println!("\ncontroller compute cost (wall-clock, blackscholes, 120 s sim cap):");
    println!("  invocations     = {}", c.invocations);
    println!("  mean / invoke   = {:.2} µs", c.mean_ns() / 1e3);
    println!("  worst invoke    = {:.2} µs", c.max_ns as f64 / 1e3);
    println!("  total compute   = {:.3} ms", c.total_ms());
}
