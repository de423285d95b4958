//! A small CLI to run any scheme on any workload and inspect the result —
//! the "driver" a downstream user would reach for first.
//!
//! ```sh
//! yukta list
//! yukta run --scheme yukta-ssv-ssv --workload blackscholes
//! yukta run --scheme coordinated --workload mcga --trace results/trace.csv
//! ```

use std::process::ExitCode;

use yukta::core::runtime::{Experiment, RunOptions};
use yukta::core::schemes::Scheme;
use yukta::workloads::{Workload, catalog};

fn all_workloads() -> Vec<Workload> {
    let mut v = catalog::evaluation_set();
    v.extend(catalog::mixes::all());
    v.extend(yukta::workloads::catalog::training::all());
    v
}

fn parse_scheme(name: &str) -> Option<Scheme> {
    match name {
        "coordinated" | "coordinated-heuristic" => Some(Scheme::CoordinatedHeuristic),
        "decoupled" | "decoupled-heuristic" => Some(Scheme::DecoupledHeuristic),
        "yukta-hw" | "hw-ssv" | "yukta-hw-ssv-os-heuristic" => Some(Scheme::YuktaHwSsvOsHeuristic),
        "yukta" | "yukta-ssv-ssv" | "ssv-ssv" => Some(Scheme::YuktaHwSsvOsSsv),
        "lqg-decoupled" | "decoupled-lqg" => Some(Scheme::DecoupledLqg),
        "lqg-monolithic" | "monolithic-lqg" => Some(Scheme::MonolithicLqg),
        _ => None,
    }
}

fn usage() {
    eprintln!(
        "usage:\n  yukta list\n  yukta describe --scheme <name>\n  yukta run --scheme <name> \
         --workload <name> [--timeout <secs>] [--trace <csv-path>]\n\nschemes: coordinated, \
         decoupled, yukta-hw, yukta, lqg-decoupled, lqg-monolithic"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("schemes:");
            for s in Scheme::all() {
                println!("  {:<30} {}", s.label(), s.description());
            }
            println!("\nworkloads:");
            for w in all_workloads() {
                println!(
                    "  {:<16} {} slots, {:.0} G-instructions",
                    w.name,
                    w.n_slots(),
                    w.total_work()
                );
            }
            ExitCode::SUCCESS
        }
        Some("describe") => {
            let Some(name) = flag_value(&args, "--scheme") else {
                usage();
                return ExitCode::FAILURE;
            };
            match parse_scheme(&name) {
                Some(s) => {
                    println!("{}\n{}", s.label(), s.description());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("unknown scheme '{name}'");
                    ExitCode::FAILURE
                }
            }
        }
        Some("run") => run_command(&args),
        _ => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn run_command(args: &[String]) -> ExitCode {
    let Some(scheme_name) = flag_value(args, "--scheme") else {
        usage();
        return ExitCode::FAILURE;
    };
    let Some(wl_name) = flag_value(args, "--workload") else {
        usage();
        return ExitCode::FAILURE;
    };
    let Some(scheme) = parse_scheme(&scheme_name) else {
        eprintln!("unknown scheme '{scheme_name}' (try `yukta list`)");
        return ExitCode::FAILURE;
    };
    let Some(wl) = all_workloads().into_iter().find(|w| w.name == wl_name) else {
        eprintln!("unknown workload '{wl_name}' (try `yukta list`)");
        return ExitCode::FAILURE;
    };
    let timeout = flag_value(args, "--timeout")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1200.0);
    eprintln!("building the controller design (cached per process)...");
    let exp = Experiment::new(scheme).with_options(RunOptions {
        timeout_s: timeout,
        ..Default::default()
    });
    let report = match exp.run(&wl) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("scheme:     {}", report.scheme);
    println!("workload:   {}", report.workload);
    println!("completed:  {}", report.metrics.completed);
    println!("time:       {:.1} s", report.metrics.delay_seconds);
    println!("energy:     {:.1} J", report.metrics.energy_joules);
    println!("E x D:      {:.0} J*s", report.metrics.exd());
    println!(
        "mean power: {:.2} W big, {:.2} W little",
        report.trace.mean_of(|s| s.p_big),
        report.trace.mean_of(|s| s.p_little)
    );
    println!(
        "mean BIPS:  {:.2} (peak temp {:.1} C)",
        report.trace.mean_of(|s| s.bips),
        report
            .trace
            .samples
            .iter()
            .map(|s| s.temp)
            .fold(0.0f64, f64::max)
    );
    if let Some(path) = flag_value(args, "--trace") {
        let mut csv = String::from(
            "time,p_big,p_little,temp,bips,f_big,f_little,big_cores,little_cores,threads_big\n",
        );
        for s in &report.trace.samples {
            csv.push_str(&format!(
                "{:.2},{:.3},{:.3},{:.2},{:.3},{:.2},{:.2},{},{},{}\n",
                s.time,
                s.p_big,
                s.p_little,
                s.temp,
                s.bips,
                s.f_big,
                s.f_little,
                s.big_cores,
                s.little_cores,
                s.threads_big
            ));
        }
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("could not write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace:      {path}");
    }
    ExitCode::SUCCESS
}
