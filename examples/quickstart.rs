//! Quickstart: run one workload under the full Yukta scheme and print the
//! metrics the paper's evaluation is built on.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use yukta::core::runtime::{Experiment, RunOptions};
use yukta::core::schemes::Scheme;
use yukta::workloads::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The first call builds the whole design pipeline (characterize the
    // simulated board with the training workloads, identify black-box
    // models, synthesize the SSV controllers by D-K iteration) and caches
    // it process-wide. Expect a few tens of seconds.
    println!("Building the Yukta design (characterize -> identify -> synthesize)...");
    let design = yukta::core::design::default_design();
    println!(
        "  HW SSV controller: {} states, gamma = {:.1}, mu = {:.1}",
        design.hw_ssv.controller.order(),
        design.hw_ssv.gamma,
        design.hw_ssv.mu_peak
    );
    println!(
        "  OS SSV controller: {} states, gamma = {:.1}, mu = {:.1}",
        design.os_ssv.controller.order(),
        design.os_ssv.gamma,
        design.os_ssv.mu_peak
    );

    // Run blackscholes — the paper's running example — under two schemes.
    let wl = catalog::parsec::blackscholes();
    for scheme in [Scheme::CoordinatedHeuristic, Scheme::YuktaHwSsvOsSsv] {
        let report = Experiment::new(scheme)
            .with_options(RunOptions {
                timeout_s: 900.0,
                ..Default::default()
            })
            .run(&wl)?;
        println!(
            "\n{}:\n  completed: {}\n  time: {:.1} s\n  energy: {:.1} J\n  E x D: {:.0} J*s",
            report.scheme,
            report.metrics.completed,
            report.metrics.delay_seconds,
            report.metrics.energy_joules,
            report.metrics.exd()
        );
        // A glimpse of the 500 ms trace the figures are made from.
        if let Some(mid) = report.trace.samples.get(report.trace.samples.len() / 2) {
            println!(
                "  mid-run state: {:.2} W big, {:.2} W little, {:.1} C, {:.1} BIPS, \
                 f_big {:.1} GHz, {} big cores",
                mid.p_big, mid.p_little, mid.temp, mid.bips, mid.f_big, mid.big_cores
            );
        }
    }
    Ok(())
}
