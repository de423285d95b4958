//! Validates and summarizes telemetry exports produced by `--obs` runs.
//!
//! ```text
//! obs_report results/obs_bench_faults.jsonl results/obs_bench_faults_chrome.json
//! obs_report --check results/obs_*.jsonl   # validate only, exit 1 on failure
//! obs_report --phases dk results/obs_bench_resynth.jsonl
//! obs_report --phases health results/obs_bench_health.jsonl
//! obs_report results/obs_bench_faults.jsonl results/obs_bench_slo.jsonl  # merged aggregate
//! ```
//!
//! `.jsonl` files are checked against the JSONL wire format (one object
//! per line, versioned run-metadata header first, monotone timestamps,
//! aggregates last) — headerless pre-versioning ("v0") streams are
//! rejected. Without `--check`, all JSONL inputs merge into a single
//! aggregate per-phase breakdown (one file renders as itself). `.json`
//! files are checked as Chrome `trace_event` documents. `--phases dk`
//! replaces the generic breakdown with the per-D–K-iteration table (with
//! each iteration's γ-hint hits and leaf walk), a line for the rational-D
//! K-steps (wall time, probes, warm hits, leaf steps) and a summary of
//! every hinted K-step (hits, leaf steps, cold fallbacks);
//! `--phases health` renders the loop-health timeline (verdicts, online
//! refits, hot-swaps) plus the `health.*` gauges per input.

use yukta_obs::export::{validate_chrome, validate_jsonl_meta};
use yukta_obs::report::{
    RunSummary, dk_phase_breakdown, health_breakdown, render, render_dk, render_health, summarize,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_only = args.iter().any(|a| a == "--check");
    let mut phases: Option<String> = None;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--phases" {
            phases = it.next().cloned();
        } else if let Some(p) = a.strip_prefix("--phases=") {
            phases = Some(p.to_string());
        } else if !a.starts_with("--") {
            files.push(a);
        }
    }
    match phases.as_deref() {
        None | Some("dk") | Some("health") => {}
        Some(other) => {
            eprintln!("unknown --phases mode {other:?} (supported: dk, health)");
            std::process::exit(2);
        }
    }
    if files.is_empty() {
        eprintln!(
            "usage: obs_report [--check] [--phases dk|health] \
             <obs_*.jsonl|obs_*_chrome.json>..."
        );
        std::process::exit(2);
    }
    let mut failed = false;
    // JSONL inputs accumulate into one aggregate; the generic breakdown
    // renders once at the end so several campaign logs read as one run.
    let mut merged: Option<RunSummary> = None;
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: read failed: {e}");
                failed = true;
                continue;
            }
        };
        if path.ends_with(".jsonl") {
            match validate_jsonl_meta(&text) {
                Ok((meta, s)) => {
                    println!(
                        "{path}: jsonl OK (schema v{}, scheme {}, seed {}, {} spans, \
                         {} events, {} counters, {} gauges, {} hists)",
                        meta.schema_version,
                        meta.scheme,
                        meta.seed,
                        s.spans,
                        s.events,
                        s.counters,
                        s.gauges,
                        s.hists
                    );
                    if check_only {
                        continue;
                    }
                    match phases.as_deref() {
                        Some("dk") => match dk_phase_breakdown(&text) {
                            Ok((rows, rational)) if rows.is_empty() && rational.steps == 0 => {
                                println!("{path}: no dk.* spans in log");
                            }
                            Ok((rows, rational)) => println!("{}", render_dk(&rows, &rational)),
                            Err(e) => {
                                eprintln!("{path}: dk breakdown failed: {e}");
                                failed = true;
                            }
                        },
                        Some("health") => match (health_breakdown(&text), summarize(&text)) {
                            (Ok(rows), Ok(sum)) => {
                                println!("{}", render_health(&rows, &sum));
                            }
                            (Err(e), _) | (_, Err(e)) => {
                                eprintln!("{path}: health breakdown failed: {e}");
                                failed = true;
                            }
                        },
                        _ => match summarize(&text) {
                            Ok(sum) => match merged.as_mut() {
                                Some(m) => m.merge(sum),
                                None => merged = Some(sum),
                            },
                            Err(e) => {
                                eprintln!("{path}: summarize failed: {e}");
                                failed = true;
                            }
                        },
                    }
                }
                Err(e) => {
                    eprintln!("{path}: INVALID jsonl: {e}");
                    failed = true;
                }
            }
        } else {
            match validate_chrome(&text) {
                Ok(s) => println!(
                    "{path}: chrome trace OK ({} complete, {} instant events)",
                    s.complete, s.instants
                ),
                Err(e) => {
                    eprintln!("{path}: INVALID chrome trace: {e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(sum) = merged {
        println!("{}", render(&sum));
    }
    if failed {
        std::process::exit(1);
    }
}
