//! Fault-injection campaign: every scheme × workload × fault severity,
//! run under the runtime supervisor.
//!
//! The campaign asserts three robustness properties end to end:
//!
//! 1. **No panics.** Every cell of the severity grid runs inside
//!    `catch_unwind`; any escaped panic fails the campaign with a
//!    non-zero exit status.
//! 2. **Zero-severity transparency.** At severity 0 the supervised run
//!    must reproduce the unsupervised baseline E×D *bit-identically*.
//! 3. **Reported degradation.** Each row records raw E×D relative to the
//!    fault-free baseline plus a monotone (running-max over severity)
//!    degradation envelope, alongside the supervisor's fallback
//!    entry/exit counts and time in degraded mode.
//!
//! One grid, 60 cells (4 schemes × 3 workloads × 5 severities). Output:
//! `results/BENCH_faults.json`, deterministic to the byte; CI fails on any
//! difference from the committed envelope.

use yukta_bench::campaign::Campaign;
use yukta_board::FaultPlan;
use yukta_core::runtime::Experiment;
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_workloads::{Workload, catalog};

const SEVERITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

fn main() {
    let _obs = yukta_bench::obs::capture_obs_only("bench_faults");
    let mut camp = Campaign::new("bench_faults");
    let schemes = [
        Scheme::CoordinatedHeuristic,
        Scheme::DecoupledHeuristic,
        Scheme::YuktaHwSsvOsSsv,
        Scheme::MonolithicLqg,
    ];
    let workloads: [Workload; 3] = [
        catalog::parsec::blackscholes(),
        catalog::spec::mcf(),
        catalog::spec::gamess(),
    ];

    for (ci, scheme) in schemes.iter().enumerate() {
        for (wi, wl) in workloads.iter().enumerate() {
            let exp = Experiment::new(*scheme);
            let baseline = exp.run(wl).expect("fault-free baseline run");
            let base_exd = baseline.metrics.exd();
            println!(
                "[{}] {} baseline E×D = {:.1} J·s",
                scheme.label(),
                wl.name,
                base_exd
            );
            let mut reported_degradation = 1.0f64;
            for (si, &severity) in SEVERITIES.iter().enumerate() {
                let seed = ((ci * 10 + wi) * 100 + si) as u64 + 0xFA;
                let plan = FaultPlan::uniform(seed, severity);
                let label = format!("{} / {} @ severity {severity}", scheme.label(), wl.name);
                let Some(outcome) = camp.cell(&label, || {
                    exp.run_supervised(wl, SupervisorConfig::default(), Some(plan))
                }) else {
                    continue;
                };
                let rep = match outcome {
                    Ok(rep) => rep,
                    Err(e) => {
                        camp.fail(&format!(
                            "controller error escaped the supervisor ({label}): {e}"
                        ));
                        continue;
                    }
                };
                let exd = rep.metrics.exd();
                if severity == 0.0 && exd.to_bits() != base_exd.to_bits() {
                    camp.fail(&format!(
                        "zero-severity supervised E×D {exd} is not bit-identical \
                         to baseline {base_exd} ({label})"
                    ));
                }
                let ratio = exd / base_exd;
                reported_degradation = reported_degradation.max(ratio);
                let sup = rep.supervisor.expect("supervised run carries stats");
                let faults = rep.faults.expect("plan recorded");
                println!(
                    "  severity {severity:.2}: E×D {exd:.1} ({ratio:.3}x), \
                     {} faults injected, {} fallback entries, {:.1}s degraded",
                    faults.stats.total(),
                    sup.fallback_entries,
                    sup.degraded_seconds()
                );
                camp.push_row(format!(
                    "    {{\"scheme\": \"{}\", \"workload\": \"{}\", \
                     \"severity\": {severity}, \"seed\": {seed}, \
                     \"completed\": {}, \"energy_j\": {:.4}, \"delay_s\": {:.4}, \
                     \"exd\": {:.4}, \"baseline_exd\": {:.4}, \
                     \"exd_over_baseline\": {:.6}, \
                     \"exd_degradation_monotone\": {:.6}, \
                     \"faults_total\": {}, \"sensor_faults\": {}, \
                     \"stuck_episodes\": {}, \"dropped_samples\": {}, \
                     \"spikes\": {}, \"delayed_reads\": {}, \
                     \"dvfs_rejections\": {}, \"hotplug_ignored\": {}, \
                     \"actuation_lags\": {}, \"fallback_entries\": {}, \
                     \"fallback_exits\": {}, \"safe_entries\": {}, \
                     \"degraded_seconds\": {:.1}, \"controller_errors\": {}, \
                     \"sensor_faults_seen\": {}}}",
                    scheme.label(),
                    wl.name,
                    rep.metrics.completed,
                    rep.metrics.energy_joules,
                    rep.metrics.delay_seconds,
                    exd,
                    base_exd,
                    ratio,
                    reported_degradation,
                    faults.stats.total(),
                    faults.stats.sensor_faults,
                    faults.stats.stuck_episodes,
                    faults.stats.dropped_samples,
                    faults.stats.spikes,
                    faults.stats.delayed_reads,
                    faults.stats.dvfs_rejections,
                    faults.stats.hotplug_ignored,
                    faults.stats.actuation_lags,
                    sup.fallback_entries,
                    sup.fallback_exits,
                    sup.safe_entries,
                    sup.degraded_seconds(),
                    sup.controller_errors,
                    sup.sensor_faults_seen(),
                ));
            }
        }
    }

    camp.finish(
        "BENCH_faults.json",
        &[("severities", format!("{SEVERITIES:?}"))],
    );
}
