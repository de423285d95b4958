//! Design diagnostics: everything a control engineer would inspect before
//! deploying the synthesized controllers — identification fit, achieved γ,
//! the µ upper/lower bracket across frequency, Hankel spectrum, and the
//! closed-loop robustness margins.

use yukta_bench::{rounded, write_results};
use yukta_control::mu::{MuBlock, log_grid, mu_lower_bound, mu_upper_bound};
use yukta_control::plant::build_ssv_plant;
use yukta_control::reduce::balanced_truncation;
use yukta_core::design::{Layer, default_design, layer_spec};
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

    // µ bracket across frequency for the HW design, on a freshly assembled
    // generalized plant (the closed loop of the *synthesis* model).
    let spec = layer_spec(&d.options, Layer::Hw, d.hw_uncertainty_used);
    let plant = build_ssv_plant(&d.hw_model_full, &spec).expect("plant");
    let blocks: Vec<MuBlock> = plant.mu_blocks();
    // The synthesis closed loop is not retained; the open generalized plant
    // serves as the reference curve.
    let grid = log_grid(1e-3, 6.0, 40);
    let mut csv = String::from("omega,mu_upper,mu_lower\n");
    println!("mu bracket of the open generalized plant across frequency:");
    for (i, &w) in grid.iter().enumerate() {
        if let Ok(n) = plant.gen.sys.freq_response(w) {
            let ub = mu_upper_bound(&n_block(&n, &blocks), &blocks).map(|m| m.value);
            let lb = mu_lower_bound(&n_block(&n, &blocks), &blocks);
            if let (Ok(ub), Ok(lb)) = (ub, lb) {
                csv.push_str(&format!("{w:.5},{ub:.5},{lb:.5}\n"));
                if i % 8 == 0 {
                    println!("  w = {w:8.4} rad/s : {lb:8.3} <= mu <= {ub:8.3}");
                }
            }
        }
    }
    write_results("diagnostics_mu_curve.csv", &csv);

    // Wall-clock controller compute cost: the real time the deployed stack
    // spends inside `invoke` (the control-law jitter budget — the paper's
    // prototype fired every 500 ms, so the worst case must stay far below
    // that period).
    let wl = catalog::parsec::blackscholes();
    let rep = Experiment::new(Scheme::YuktaHwSsvOsSsv)
        .expect("experiment")
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

/// Extracts the w→z block of the generalized plant response (drops the
/// control/measurement channels) so the µ structure tiles it.
fn n_block(g: &yukta_linalg::CMat, blocks: &[MuBlock]) -> yukta_linalg::CMat {
    let nz: usize = blocks.iter().map(|b| b.n_out).sum();
    let nw: usize = blocks.iter().map(|b| b.n_in).sum();
    let mut out = yukta_linalg::CMat::zeros(nz, nw);
    for i in 0..nz {
        for j in 0..nw {
            out.set(i, j, g.get(i, j));
        }
    }
    out
}
