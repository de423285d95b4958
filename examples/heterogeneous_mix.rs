//! The Section VI-C scenario: a heterogeneous mix (compute-bound gamess
//! copies sharing the board with memory-bound mcf copies) under every
//! scheme, showing how the schemes place threads and spend the power
//! budget differently.
//!
//! ```sh
//! cargo run --release --example heterogeneous_mix
//! ```

use yukta::core::runtime::{Experiment, RunOptions};
use yukta::core::schemes::Scheme;
use yukta::workloads::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mix = catalog::mixes::mcga(); // mcf + gamess, 4 threads each
    println!(
        "mix '{}': {} components, {} thread slots, {:.0} G-instructions total\n",
        mix.name,
        mix.apps.len(),
        mix.n_slots(),
        mix.total_work()
    );
    println!(
        "{:<28} | {:>8} | {:>9} | {:>10} | {:>12} | {:>12}",
        "scheme", "time (s)", "E (J)", "E x D", "mean Pbig", "mean thr_big"
    );
    for scheme in Scheme::all() {
        let report = Experiment::new(scheme)
            .with_options(RunOptions {
                timeout_s: 1200.0,
                ..Default::default()
            })
            .run(&mix)?;
        let mean_p = report.trace.mean_of(|s| s.p_big);
        let mean_tb = report.trace.mean_of(|s| s.threads_big as f64);
        println!(
            "{:<28} | {:>8.1} | {:>9.1} | {:>10.0} | {:>12.2} | {:>12.1}",
            report.scheme,
            report.metrics.delay_seconds,
            report.metrics.energy_joules,
            report.metrics.exd(),
            mean_p,
            mean_tb
        );
    }
    println!("\nLower E x D is better; the paper's Figure 14 reports the Yukta");
    println!("designs lowest, then Monolithic LQG, then Coordinated heuristic.");
    Ok(())
}
