//! Figure 16: sensitivity to the uncertainty guardband (±40% … ±500%).
//!
//! (a) The output deviation bounds the synthesis can *guarantee* as a
//!     function of the guardband, normalized to the ±40% design's bounds.
//!     The paper's claim: bounds degrade only slowly with the guardband —
//!     the benefit of robust control.
//!
//! (b) E×D (normalized to Coordinated heuristic) for designs synthesized
//!     with each guardband; large guardbands make the controller slower
//!     and the execution less optimal (paper: 0.50 at ±40%, rising with
//!     the guardband).
//!
//! The sweep turns guardband auto-tuning off so each radius is used as
//! given; the default auto-tuned design is reported as a separate row.

use yukta_bench::{eval_options, geomean, run_one, table_csv, write_results};
use yukta_core::design::{DesignOptions, build_design};
use yukta_core::runtime::Experiment;
use yukta_core::schemes::Scheme;
use yukta_workloads::catalog;

fn main() {
    let _obs = yukta_bench::obs::capture("fig16");
    println!("Figure 16(a): guaranteed output deviation bounds vs guardband\n");
    let mut designs = Vec::new();
    let mut baseline_bounds: Option<Vec<f64>> = None;
    let mut rows_a = Vec::new();
    for fixed in [Some(0.4), Some(1.0), Some(2.5), Some(5.0), None] {
        let mut opts = DesignOptions::default();
        if let Some(g) = fixed {
            opts.hw_uncertainty = g;
            opts.guardband.auto = false;
        }
        let label = fixed.map_or("auto".to_string(), |g| format!("±{:.0}%", g * 100.0));
        let auto = if fixed.is_none() { 1.0 } else { 0.0 };
        match build_design(&opts) {
            Ok(d) => {
                let g = d.hw_uncertainty_used;
                let gb = d.hw_ssv.guaranteed_bounds.clone();
                let base = baseline_bounds.get_or_insert_with(|| gb.clone()).clone();
                let rel: Vec<f64> = gb.iter().zip(&base).map(|(a, b)| a / b).collect();
                println!(
                    "{label} (Δ = {g:.3}): guaranteed bounds (× the ±40% design) = {:?} \
                     (µ̂ = {:.2})",
                    rel.iter()
                        .map(|v| (v * 100.0).round() / 100.0)
                        .collect::<Vec<_>>(),
                    d.hw_ssv.mu_peak
                );
                rows_a.push(vec![g, auto, d.hw_ssv.mu_peak, gb[0], gb[1], gb[2], gb[3]]);
                designs.push((label, g, auto, d));
            }
            Err(e) => {
                println!(
                    "{label}: synthesis failed ({e}) — the guardband is too large for \
                     the requested bounds, as the paper describes"
                );
            }
        }
    }
    write_results(
        "fig16a_bounds.csv",
        &table_csv(
            &[
                "guardband",
                "auto_tuned",
                "mu_hat",
                "perf_bound",
                "p_big_bound",
                "p_little_bound",
                "temp_bound",
            ],
            &rows_a,
            4,
        ),
    );

    println!("\nFigure 16(b): E x D vs guardband (normalized to Coordinated heuristic)\n");
    // A representative subset keeps this sensitivity sweep affordable; the
    // full set is exercised by fig09.
    let workloads = [
        catalog::spec::mcf(),
        catalog::spec::gamess(),
        catalog::parsec::blackscholes(),
        catalog::parsec::streamcluster(),
    ];
    let base: Vec<f64> = workloads
        .iter()
        .map(|w| run_one(Scheme::CoordinatedHeuristic, w).metrics.exd())
        .collect();
    let mut rows_b = Vec::new();
    for (label, g, auto, design) in designs {
        let ratios: Vec<f64> = workloads
            .iter()
            .zip(&base)
            .map(|(w, b)| {
                Experiment::with_design(Scheme::YuktaHwSsvOsSsv, design.clone())
                    .with_options(eval_options())
                    .run(w)
                    .expect("guardband run")
                    .metrics
                    .exd()
                    / b
            })
            .collect();
        let avg = geomean(&ratios);
        println!("guardband {label} (Δ = {g:.3}): normalized E x D = {avg:.3}");
        rows_b.push(vec![g, auto, avg]);
    }
    write_results(
        "fig16b_exd.csv",
        &table_csv(&["guardband", "auto_tuned", "normalized_exd"], &rows_b, 4),
    );
    println!("\nPaper reference: E x D lowest at ±40% and rising with the guardband;");
    println!("bounds similar up to ±250%, degrading beyond.");
}
