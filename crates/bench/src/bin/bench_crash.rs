//! Crash-recovery campaign: crash points × checkpoint intervals × schemes
//! × workloads, run under the crash-tolerant runtime (DESIGN.md §11).
//!
//! Every cell runs the same fault plan twice: once uninterrupted
//! (`run_supervised`, which ignores crash points) as the ground truth, and
//! once through `run_recoverable` with the plan's crashes firing. The
//! campaign asserts, for **every** cell:
//!
//! 1. **100% recovery.** Every planned crash fires and is recovered; the
//!    run finishes.
//! 2. **Bit-identical reports.** The recovered `Report` equals the
//!    uninterrupted one under `Report::bit_identical` (`f64::to_bits`
//!    equality throughout — metrics, trace, supervisor stats, fault
//!    trace).
//! 3. **Zero replay divergence.** Checkpoint-restore plus journal-suffix
//!    replay reproduces every journaled record exactly, and a fresh
//!    controller stack replays the full journal with zero divergences
//!    (the standing determinism invariant).
//!
//! One grid, 48 cells (4 schemes × 2 workloads × 2 checkpoint intervals ×
//! 3 crash sets). Any violation exits non-zero, which gates CI. Output:
//! `results/BENCH_crash.json`, deterministic to the byte; CI fails on any
//! difference from the committed envelope.

use yukta_bench::campaign::Campaign;
use yukta_board::FaultPlan;
use yukta_core::runtime::{Experiment, RecoveryOptions};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_workloads::{Workload, catalog};

const SEVERITY: f64 = 0.5;

fn main() {
    let _obs = yukta_bench::obs::capture_obs_only("bench_crash");
    let mut camp = Campaign::new("bench_crash");
    let schemes = [
        Scheme::CoordinatedHeuristic,
        Scheme::DecoupledHeuristic,
        Scheme::YuktaHwSsvOsSsv,
        Scheme::MonolithicLqg,
    ];
    let workloads: [Workload; 2] = [catalog::parsec::blackscholes(), catalog::spec::mcf()];
    let intervals: [u64; 2] = [5, 20];
    let crash_sets: [&[u64]; 3] = [&[9], &[40], &[9, 31, 77]];

    for (ci, scheme) in schemes.iter().enumerate() {
        for (wi, wl) in workloads.iter().enumerate() {
            let exp = Experiment::new(*scheme);
            let seed = ((ci * 10 + wi) as u64) + 0xC4A5;
            let plan = FaultPlan::uniform(seed, SEVERITY);
            // Uninterrupted ground truth: same plan, crashes never fire.
            let baseline = exp
                .run_supervised(wl, SupervisorConfig::default(), Some(plan.clone()))
                .expect("uninterrupted baseline run");
            let base_exd = baseline.metrics.exd();
            println!(
                "[{}] {} uninterrupted E×D = {:.1} J·s over {} invocations",
                scheme.label(),
                wl.name,
                base_exd,
                baseline.trace.samples.len()
            );
            for &interval in &intervals {
                for &crashes in &crash_sets {
                    let label = format!(
                        "{} / {} interval {interval} crashes {crashes:?}",
                        scheme.label(),
                        wl.name
                    );
                    let mut crashed_plan = plan.clone();
                    for &at in crashes {
                        crashed_plan = crashed_plan.with_crash(at);
                    }
                    let Some(rec) = camp.cell(&label, || {
                        exp.run_recoverable(
                            wl,
                            Some(SupervisorConfig::default()),
                            Some(crashed_plan),
                            RecoveryOptions {
                                checkpoint_interval: interval,
                            },
                        )
                        .expect("recoverable run")
                    }) else {
                        continue;
                    };
                    let identical = rec.report.bit_identical(&baseline);
                    let replay = exp
                        .replay_journal(&rec.journal, Some(SupervisorConfig::default()))
                        .expect("journal replay");
                    let ok = identical
                        && rec.recovery.crashes == crashes.len() as u64
                        && rec.recovery.recoveries == rec.recovery.crashes
                        && rec.recovery.replay_divergences == 0
                        && replay.is_exact();
                    if !ok {
                        camp.fail(&format!(
                            "{label}: bit_identical={identical} \
                             recovery={:?} replay={:?}",
                            rec.recovery, replay
                        ));
                    } else {
                        println!(
                            "  interval {interval}, crashes {crashes:?}: \
                             {} recovered, {} checkpoints, {} replayed, \
                             0 divergences, bit-identical",
                            rec.recovery.recoveries,
                            rec.recovery.checkpoints,
                            rec.recovery.replayed_records
                        );
                    }
                    let crash_list = crashes
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    camp.push_row(format!(
                        "    {{\"scheme\": \"{}\", \"workload\": \"{}\", \
                         \"severity\": {SEVERITY}, \"seed\": {seed}, \
                         \"checkpoint_interval\": {interval}, \
                         \"crash_steps\": [{crash_list}], \
                         \"crashes\": {}, \"recoveries\": {}, \
                         \"checkpoints\": {}, \"replayed_records\": {}, \
                         \"replay_divergences\": {}, \
                         \"exd\": {:.4}, \"baseline_exd\": {:.4}, \
                         \"bit_identical\": {identical}, \
                         \"journal_records\": {}, \
                         \"replay_exact\": {}}}",
                        scheme.label(),
                        wl.name,
                        rec.recovery.crashes,
                        rec.recovery.recoveries,
                        rec.recovery.checkpoints,
                        rec.recovery.replayed_records,
                        rec.recovery.replay_divergences,
                        rec.report.metrics.exd(),
                        base_exd,
                        rec.journal.len(),
                        replay.is_exact(),
                    ));
                }
            }
        }
    }

    camp.finish("BENCH_crash.json", &[("severity", SEVERITY.to_string())]);
}
