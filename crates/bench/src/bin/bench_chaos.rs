//! Composed chaos campaign for the checked reconfiguration automaton
//! (DESIGN.md §14): fault injection × injected crashes × mid-run
//! hot-swaps × correlated bursts × a severity sweep, every cell under
//! `catch_unwind`.
//!
//! Each cell runs the unified runtime (`run_unified`) and its
//! crash-stripped twin, and the campaign asserts:
//!
//! 1. **Zero panics.** No cell unwinds with anything but the injected
//!    crash payloads the recovery machinery consumes internally.
//! 2. **Zero invariant violations.** The mode automaton (actuation gaps,
//!    dual writers, flapping, illegal swap/recovery events) and the board
//!    actuation audit (double writers, TMU cap expansions) stay silent in
//!    every cell — including the crash-during-swap interleaving.
//! 3. **Bit-identical recovery.** Every crashed cell reproduces its
//!    uninterrupted twin under `Report::bit_identical`, even when a crash
//!    lands between swap-request and swap-commit.
//! 4. **Monotone degradation.** Rising severity never *reduces* the
//!    fraction of invocations the supervisor serves degraded (beyond a
//!    small tolerance): the running-max envelope over the severity sweep
//!    is honored by every cell. E×D ratios are reported, not gated —
//!    degrading to the fallback heuristic can legitimately *improve* E×D
//!    for schemes whose primary is the weaker policy in this plant.
//!
//! One grid, 80 cells (4 schemes × 5 severities × 4 variants). Any
//! violation exits non-zero, which gates CI. Output:
//! `results/BENCH_chaos.json`, deterministic to the byte; CI fails on any
//! difference from the committed envelope.

use yukta_bench::campaign::Campaign;
use yukta_board::FaultPlan;
use yukta_core::runtime::{Experiment, RecoveryOptions, SwapSpec, SwapTrigger, UnifiedOptions};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_workloads::catalog;

/// One variant of the chaos grid: which mechanisms compose in the cell.
struct Variant {
    name: &'static str,
    crashes: &'static [u64],
    swap_at: Option<u64>,
    bursts: bool,
}

/// The four composition levels. `chaos` puts a crash exactly on the swap
/// step, so it fires inside the swap window between request and commit.
const VARIANTS: [Variant; 4] = [
    Variant {
        name: "baseline",
        crashes: &[],
        swap_at: None,
        bursts: false,
    },
    Variant {
        name: "crash",
        crashes: &[9, 47],
        swap_at: None,
        bursts: false,
    },
    Variant {
        name: "swap",
        crashes: &[],
        swap_at: Some(40),
        bursts: false,
    },
    Variant {
        name: "chaos",
        crashes: &[40, 75],
        swap_at: Some(40),
        bursts: true,
    },
];

struct CellOutcome {
    exd: f64,
    twin_exd: f64,
    bit_identical: bool,
    completed: bool,
    degraded_frac: f64,
    crashes: u64,
    recoveries: u64,
    checkpoints: u64,
    replay_divergences: u64,
    invariant_violations: u64,
    burst_windows: u64,
    double_actuations: u64,
    tmu_cap_expansions: u64,
}

fn run_cell(
    exp: &Experiment,
    wl: &yukta_workloads::Workload,
    seed: u64,
    severity: f64,
    v: &Variant,
) -> CellOutcome {
    let mut plan = FaultPlan::uniform(seed, severity);
    if v.bursts {
        plan = plan.with_bursts(2, 8.0).with_burst_region(35.0);
    }
    for &at in v.crashes {
        plan = plan.with_crash(at);
    }
    let sup_cfg = Some(SupervisorConfig::default());
    let swap = v.swap_at.map(|at| SwapSpec {
        trigger: SwapTrigger::AtStep(at),
        scheme: None,
    });
    // The crash-stripped twin: the same plan without its crash points is
    // the uninterrupted ground truth.
    let twin = exp
        .run_unified(
            wl,
            UnifiedOptions {
                sup_cfg,
                plan: Some(plan.clone().without_crashes()),
                swap,
                ..Default::default()
            },
        )
        .expect("twin run")
        .report;
    let run = exp
        .run_unified(
            wl,
            UnifiedOptions {
                sup_cfg,
                plan: Some(plan),
                swap,
                recovery: Some(RecoveryOptions {
                    checkpoint_interval: 20,
                }),
                ..Default::default()
            },
        )
        .expect("unified chaos run");
    let sup = run.report.supervisor.as_ref().expect("supervised stats");
    let faults = run.report.faults.as_ref().expect("fault report");
    CellOutcome {
        exd: run.report.metrics.exd(),
        twin_exd: twin.metrics.exd(),
        bit_identical: run.report.bit_identical(&twin),
        completed: run.report.metrics.completed,
        degraded_frac: if sup.invocations > 0 {
            sup.degraded_invocations as f64 / sup.invocations as f64
        } else {
            0.0
        },
        crashes: run.recovery.crashes,
        recoveries: run.recovery.recoveries,
        checkpoints: run.recovery.checkpoints,
        replay_divergences: run.recovery.replay_divergences,
        invariant_violations: run.recovery.invariant_violations + sup.invariant_violations,
        burst_windows: faults.stats.burst_windows,
        double_actuations: run.report.actuation.double_actuations,
        tmu_cap_expansions: run.report.actuation.tmu_cap_expansions,
    }
}

fn main() {
    let _obs = yukta_bench::obs::capture_obs_only("bench_chaos");
    let mut camp = Campaign::new("bench_chaos");
    let schemes = [
        Scheme::CoordinatedHeuristic,
        Scheme::DecoupledHeuristic,
        Scheme::YuktaHwSsvOsSsv,
        Scheme::MonolithicLqg,
    ];
    let severities = [0.0, 0.25, 0.5, 0.75, 1.0];
    // SSV schemes take ~550 simulated seconds on blackscholes, well inside
    // the default 1200 s evaluation timeout.
    let wl = catalog::parsec::blackscholes();

    let mut total_violations = 0u64;
    for (ci, scheme) in schemes.iter().enumerate() {
        let exp = Experiment::new(*scheme).expect("experiment construction");
        // One fault seed per scheme, shared across the severity sweep, so
        // the degradation envelope compares like against like.
        let seed = 0xCA05 + (ci as u64) * 17;
        // E×D of this scheme's severity-0 cell per variant (reported as a
        // ratio, not gated), and the running-max envelope of the degraded
        // fraction per variant (gated: severities ascend, so each cell
        // must stay within tolerance of the max seen at lower severity).
        let mut sev0_exd: Vec<(String, f64)> = Vec::new();
        let mut deg_envelope: Vec<(&'static str, f64)> = Vec::new();
        for &severity in &severities {
            for v in &VARIANTS {
                let label = format!("{} severity {severity} variant {}", scheme.label(), v.name);
                let Some(c) = camp.cell(&label, || run_cell(&exp, &wl, seed, severity, v)) else {
                    continue;
                };
                total_violations += c.invariant_violations;
                // E×D relative to the same variant's severity-0 cell.
                let deg = match sev0_exd.iter().find(|(n, _)| n == v.name) {
                    Some((_, base)) if *base > 0.0 => c.exd / base,
                    _ => {
                        sev0_exd.push((v.name.to_string(), c.exd));
                        1.0
                    }
                };
                // Monotone degradation: the fraction of degraded
                // invocations must not fall below the running max over
                // lower severities by more than 5 points.
                let monotone = match deg_envelope.iter_mut().find(|(n, _)| *n == v.name) {
                    Some((_, max)) => {
                        let ok = c.degraded_frac + 0.05 >= *max;
                        if c.degraded_frac > *max {
                            *max = c.degraded_frac;
                        }
                        ok
                    }
                    None => {
                        deg_envelope.push((v.name, c.degraded_frac));
                        true
                    }
                };
                let ok = c.completed
                    && monotone
                    && c.bit_identical
                    && c.crashes == v.crashes.len() as u64
                    && c.recoveries == c.crashes
                    && c.replay_divergences == 0
                    && c.invariant_violations == 0
                    && c.double_actuations == 0
                    && c.tmu_cap_expansions == 0
                    && (!v.bursts || c.burst_windows > 0);
                if !ok {
                    camp.fail(&format!(
                        "{label}: completed={} bit_identical={} crashes={}/{} \
                         divergences={} violations={} double_act={} \
                         tmu_expand={} bursts={} monotone={monotone} \
                         degraded_frac={:.3}",
                        c.completed,
                        c.bit_identical,
                        c.recoveries,
                        c.crashes,
                        c.replay_divergences,
                        c.invariant_violations,
                        c.double_actuations,
                        c.tmu_cap_expansions,
                        c.burst_windows,
                        c.degraded_frac,
                    ));
                } else {
                    println!(
                        "  [{}] severity {severity} {}: E×D {:.1} J·s \
                         (×{deg:.3}), {} crashes recovered, {} ckpts, \
                         degraded {:.1}%, 0 violations, bit-identical",
                        scheme.label(),
                        v.name,
                        c.exd,
                        c.recoveries,
                        c.checkpoints,
                        100.0 * c.degraded_frac,
                    );
                }
                let crash_list = v
                    .crashes
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                camp.push_row(format!(
                    "    {{\"scheme\": \"{}\", \"workload\": \"{}\", \
                     \"variant\": \"{}\", \"severity\": {severity}, \
                     \"seed\": {seed}, \"crash_steps\": [{crash_list}], \
                     \"swap_at\": {}, \"bursts\": {}, \
                     \"crashes\": {}, \"recoveries\": {}, \
                     \"checkpoints\": {}, \"replay_divergences\": {}, \
                     \"invariant_violations\": {}, \"burst_windows\": {}, \
                     \"double_actuations\": {}, \"tmu_cap_expansions\": {}, \
                     \"exd\": {:.4}, \"twin_exd\": {:.4}, \
                     \"degradation\": {deg:.4}, \"degraded_frac\": {:.4}, \
                     \"bit_identical\": {}, \"completed\": {}}}",
                    scheme.label(),
                    wl.name,
                    v.name,
                    v.swap_at
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "null".into()),
                    v.bursts,
                    c.crashes,
                    c.recoveries,
                    c.checkpoints,
                    c.replay_divergences,
                    c.invariant_violations,
                    c.burst_windows,
                    c.double_actuations,
                    c.tmu_cap_expansions,
                    c.exd,
                    c.twin_exd,
                    c.degraded_frac,
                    c.bit_identical,
                    c.completed,
                ));
            }
        }
    }

    camp.finish(
        "BENCH_chaos.json",
        &[("invariant_violations", total_violations.to_string())],
    );
}
