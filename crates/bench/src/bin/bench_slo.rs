//! SLO robustness campaign (DESIGN.md §15): schemes × open-loop traffic
//! patterns × load factors, each cell a full request-serving run with
//! tail latency as a controlled output and the overload governor armed.
//!
//! The campaign asserts, across the whole grid:
//!
//! 1. **No panics.** Every cell runs inside `catch_unwind`; any escaped
//!    panic fails the campaign.
//! 2. **Zero invariant violations.** The mode automaton (actuation gaps,
//!    dual writers — admission included) and the board actuation audit
//!    stay silent in every cell, including the destructive-interference
//!    cell where an external governor caps the big cluster while the OS
//!    layer scales up.
//! 3. **Monotone SLO-violation envelope.** For each scheme × pattern,
//!    the fraction of invocations violating the p99 bound never falls
//!    below the running max over lower load factors by more than 5
//!    points: more load can't look healthier.
//! 4. **Multilayer beats the ablations where it counts.** On the
//!    flash-crowd pattern at the highest load, the coordinated multilayer
//!    scheme's run-lifetime p99 is no worse than the best single-layer
//!    (uncoordinated) ablation's.
//!
//! One grid, 65 cells (5 schemes × 4 patterns × 3 loads, plus one
//! interference twin per scheme). Any violation exits non-zero, which
//! gates CI. Output: `results/BENCH_slo.json`, deterministic to the byte;
//! CI fails on any difference from the committed envelope.

use yukta_bench::campaign::Campaign;
use yukta_core::runtime::{Experiment, ServingSpec, UnifiedOptions};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_workloads::{TrafficConfig, TrafficPattern, catalog};

/// The multilayer scheme the flash-crowd gate must favor.
const MULTILAYER: Scheme = Scheme::CoordinatedHeuristic;
/// Single-layer (uncoordinated) ablations: each layer acts alone, no
/// cross-layer signals — the baseline the multilayer scheme must beat.
const ABLATIONS: [Scheme; 2] = [Scheme::DecoupledHeuristic, Scheme::DecoupledLqg];

/// Mean service demand (GI): 40 rps × 0.15 GI = 6 GIPS offered at load
/// 1.0, sized against the board running bodytrack's 8-thread tracking
/// phases flat out, so the load sweep crosses saturation and the 3×
/// flash-crowd peak is genuine overload.
const SERVICE_MEAN_GI: f64 = 0.15;

struct Cell {
    p95_s: f64,
    p99_s: f64,
    violation_frac: f64,
    max_shed_frac: f64,
    goodput_frac: f64,
    offered: u64,
    completed: u64,
    dropped: u64,
    shed_engagements: u64,
    invariant_violations: u64,
    double_actuations: u64,
    tmu_cap_expansions: u64,
    run_completed: bool,
    exd: f64,
}

fn run_cell(
    exp: &Experiment,
    wl: &yukta_workloads::Workload,
    pattern: TrafficPattern,
    load: f64,
    seed: u64,
    ext_cap: Option<f64>,
) -> Cell {
    let run = exp
        .run_unified(
            wl,
            UnifiedOptions {
                sup_cfg: Some(SupervisorConfig::default()),
                serving: Some(ServingSpec {
                    traffic: TrafficConfig {
                        pattern,
                        load_factor: load,
                        seed,
                        service_mean_gi: SERVICE_MEAN_GI,
                        ..Default::default()
                    },
                    ext_cap_f_big: ext_cap,
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .expect("serving run");
    let slo = run.report.slo.expect("serving run carries an SLO report");
    let sup = run.report.supervisor.expect("supervised run carries stats");
    Cell {
        p95_s: slo.p95_s,
        p99_s: slo.p99_s,
        violation_frac: slo.violation_frac,
        max_shed_frac: slo.max_shed_frac,
        goodput_frac: slo.goodput_frac(),
        offered: slo.offered,
        completed: slo.completed,
        dropped: slo.dropped(),
        shed_engagements: sup.shed_engagements,
        invariant_violations: sup.invariant_violations,
        double_actuations: run.report.actuation.double_actuations,
        tmu_cap_expansions: run.report.actuation.tmu_cap_expansions,
        run_completed: run.report.metrics.completed,
        exd: run.report.metrics.exd(),
    }
}

fn main() {
    let _obs = yukta_bench::obs::capture_obs_only("bench_slo");
    let mut camp = Campaign::new("bench_slo");
    let schemes = [
        MULTILAYER,
        ABLATIONS[0],
        ABLATIONS[1],
        Scheme::YuktaHwSsvOsSsv,
        Scheme::MonolithicLqg,
    ];
    let patterns: [(&str, TrafficPattern); 4] = [
        ("constant", TrafficPattern::Constant),
        ("diurnal", TrafficPattern::diurnal()),
        ("bursty", TrafficPattern::bursty()),
        ("flash_crowd", TrafficPattern::flash_crowd()),
    ];
    let loads = [0.6, 1.0, 1.4];
    let top_load = loads[loads.len() - 1];
    // bodytrack: alternating 8-thread tracking and 2-thread reduction
    // phases keep both layers busy, so coordination (placement-sized
    // cores, big-first packing) actually differentiates the multilayer
    // scheme from the ablations.
    let wl = catalog::parsec::bodytrack();

    // Flash-crowd p99 at the top load, per scheme, for the ablation gate.
    let mut flash_p99: Vec<(Scheme, f64)> = Vec::new();
    for scheme in &schemes {
        let exp = Experiment::new(*scheme).expect("experiment construction");
        for (pname, pattern) in patterns.iter() {
            // Monotone SLO-violation envelope over the ascending loads.
            let mut violation_envelope = 0.0f64;
            for &load in loads.iter() {
                // The destructive-interference twin rides the flash-crowd
                // top-load cell: an external governor caps the big cluster
                // while the OS layer scales up.
                let caps: &[Option<f64>] = if *pname == "flash_crowd" && load == top_load {
                    &[None, Some(0.8)]
                } else {
                    &[None]
                };
                for &cap in caps {
                    // Seeded by the (pattern, load) values only: every
                    // scheme faces the identical arrival trace, so the
                    // cross-scheme p99 gate compares like against like.
                    let seed = pname
                        .bytes()
                        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64))
                        .wrapping_add((load * 10.0) as u64)
                        ^ 0x510;
                    let label = format!(
                        "{} {pname} load {load}{}",
                        scheme.label(),
                        if cap.is_some() { " +extcap" } else { "" }
                    );
                    let Some(c) =
                        camp.cell(&label, || run_cell(&exp, &wl, *pattern, load, seed, cap))
                    else {
                        continue;
                    };
                    if !c.run_completed {
                        camp.fail(&format!("{label}: workload timed out"));
                    }
                    if c.invariant_violations + c.double_actuations + c.tmu_cap_expansions > 0 {
                        camp.fail(&format!(
                            "{label}: {} invariant violations, {} double actuations, \
                             {} TMU cap expansions",
                            c.invariant_violations, c.double_actuations, c.tmu_cap_expansions
                        ));
                    }
                    if c.offered == 0 || c.completed == 0 {
                        camp.fail(&format!(
                            "{label}: no traffic served (offered {}, completed {})",
                            c.offered, c.completed
                        ));
                    }
                    if cap.is_none() {
                        // Interference cells sit outside the load envelope:
                        // the cap legitimately shifts the violation curve.
                        if c.violation_frac + 0.05 < violation_envelope {
                            camp.fail(&format!(
                                "{label}: violation fraction {:.3} fell below the \
                                 lower-load envelope {:.3}",
                                c.violation_frac, violation_envelope
                            ));
                        }
                        violation_envelope = violation_envelope.max(c.violation_frac);
                        if *pname == "flash_crowd" && load == top_load {
                            flash_p99.push((*scheme, c.p99_s));
                        }
                    }
                    println!(
                        "  [{label}] p95 {:.3}s p99 {:.3}s viol {:.3} shed≤{:.2} \
                         goodput {:.3} ({}/{} served, {} dropped)",
                        c.p95_s,
                        c.p99_s,
                        c.violation_frac,
                        c.max_shed_frac,
                        c.goodput_frac,
                        c.completed,
                        c.offered,
                        c.dropped,
                    );
                    camp.push_row(format!(
                        "    {{\"scheme\": \"{}\", \"workload\": \"{}\", \
                         \"pattern\": \"{pname}\", \"load\": {load}, \"seed\": {seed}, \
                         \"ext_cap_f_big\": {}, \
                         \"offered\": {}, \"completed\": {}, \"dropped\": {}, \
                         \"p95_s\": {:.4}, \"p99_s\": {:.4}, \
                         \"violation_frac\": {:.4}, \"max_shed_frac\": {:.4}, \
                         \"goodput_frac\": {:.4}, \"shed_engagements\": {}, \
                         \"invariant_violations\": {}, \"double_actuations\": {}, \
                         \"tmu_cap_expansions\": {}, \"completed_run\": {}, \
                         \"exd\": {:.4}}}",
                        scheme.label(),
                        wl.name,
                        cap.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                        c.offered,
                        c.completed,
                        c.dropped,
                        c.p95_s,
                        c.p99_s,
                        c.violation_frac,
                        c.max_shed_frac,
                        c.goodput_frac,
                        c.shed_engagements,
                        c.invariant_violations,
                        c.double_actuations,
                        c.tmu_cap_expansions,
                        c.run_completed,
                        c.exd,
                    ));
                }
            }
        }
    }

    // The multilayer gate: on flash-crowd at the top load, the coordinated
    // scheme's lifetime p99 must be no worse than the best single-layer
    // ablation's (tiny slack for float formatting only — runs are
    // deterministic).
    let coord = flash_p99
        .iter()
        .find(|(s, _)| *s == MULTILAYER)
        .map(|t| t.1);
    let best_ablation = flash_p99
        .iter()
        .filter(|(s, _)| ABLATIONS.contains(s))
        .map(|t| t.1)
        .fold(f64::INFINITY, f64::min);
    match coord {
        Some(cp99) if best_ablation.is_finite() => {
            if cp99 <= best_ablation * 1.0001 {
                println!(
                    "multilayer gate: flash-crowd p99 {:.3}s <= best ablation {:.3}s",
                    cp99, best_ablation
                );
            } else {
                camp.fail(&format!(
                    "multilayer flash-crowd p99 {cp99:.4}s worse than best \
                     single-layer ablation {best_ablation:.4}s"
                ));
            }
        }
        _ => camp.fail("flash-crowd gate cells missing from the grid"),
    }

    let loads_json = format!(
        "[{}]",
        loads
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    camp.finish(
        "BENCH_slo.json",
        &[
            ("service_mean_gi", SERVICE_MEAN_GI.to_string()),
            ("loads", loads_json),
        ],
    );
}
