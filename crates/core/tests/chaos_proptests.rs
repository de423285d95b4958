#![recursion_limit = "1024"]
//! Chaos property tests for the checked reconfiguration automaton: the
//! composed failure space (sensor faults × correlated bursts × injected
//! crashes × mid-run hot-swaps) must never panic, never violate a mode
//! invariant, and — whenever a crash fires — recover bit-identically to
//! the uninterrupted twin, no matter where the crash lands relative to
//! the swap boundary.

use proptest::prelude::*;
use yukta_board::FaultPlan;
use yukta_core::runtime::{
    Experiment, RecoveryOptions, RunOptions, SwapSpec, SwapTrigger, UnifiedOptions,
};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_workloads::catalog;

fn quick_options() -> RunOptions {
    RunOptions {
        timeout_s: 400.0,
        ..Default::default()
    }
}

/// A crash injected `offset` invocations from the swap boundary must be
/// invisible in the final report: recovery rolls back, replays, and (for
/// offsets ≤ 0) re-performs the swap by recipe.
fn check_crash_offset(seed: u64, severity: f64, swap_at: u64, offset: i64) {
    let wl = catalog::spec::mcf();
    let exp = Experiment::new(Scheme::CoordinatedHeuristic).with_options(quick_options());
    let crash_at = swap_at.saturating_add_signed(offset).max(1);
    let plan = FaultPlan::uniform(seed, severity).with_crash(crash_at);
    let swap = Some(SwapSpec {
        trigger: SwapTrigger::AtStep(swap_at),
        scheme: None,
    });
    // The same plan without its crash points is the uninterrupted
    // baseline.
    let base = exp
        .run_unified(
            &wl,
            UnifiedOptions {
                sup_cfg: Some(SupervisorConfig::default()),
                plan: Some(plan.clone().without_crashes()),
                swap,
                ..Default::default()
            },
        )
        .unwrap()
        .report;
    let run = exp
        .run_unified(
            &wl,
            UnifiedOptions {
                sup_cfg: Some(SupervisorConfig::default()),
                plan: Some(plan),
                swap,
                recovery: Some(RecoveryOptions {
                    checkpoint_interval: 5,
                }),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(run.recovery.crashes, 1, "crash at {crash_at} never fired");
    assert_eq!(run.recovery.recoveries, 1);
    assert_eq!(run.recovery.replay_divergences, 0);
    assert_eq!(run.recovery.invariant_violations, 0);
    let sup = run.report.supervisor.as_ref().unwrap();
    assert_eq!(sup.invariant_violations, 0);
    assert_eq!(run.report.actuation.double_actuations, 0);
    assert_eq!(run.report.actuation.tmu_cap_expansions, 0);
    assert!(
        run.report.bit_identical(&base),
        "crash {offset:+} invocations from swap {swap_at} (severity {severity}) diverged"
    );
}

/// An arbitrary interleaving of faults, bursts, crashes, and an optional
/// cross-scheme hot-swap completes without a panic and with every
/// machine-checked invariant intact.
fn check_interleaving(
    seed: u64,
    severity: f64,
    swap_at: Option<u64>,
    bursts: bool,
    crashes: &[u64],
) {
    let wl = catalog::spec::mcf();
    let exp = Experiment::new(Scheme::CoordinatedHeuristic).with_options(quick_options());
    let mut plan = FaultPlan::uniform(seed, severity);
    if bursts {
        plan = plan.with_bursts(1, 8.0, 10.0);
    }
    for &c in crashes {
        plan = plan.with_crash(c);
    }
    let run = exp
        .run_unified(
            &wl,
            UnifiedOptions {
                sup_cfg: Some(SupervisorConfig::default()),
                plan: Some(plan),
                swap: swap_at.map(|at| SwapSpec {
                    trigger: SwapTrigger::AtStep(at),
                    scheme: Some(Scheme::DecoupledHeuristic),
                }),
                recovery: Some(RecoveryOptions {
                    checkpoint_interval: 7,
                }),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(run.recovery.crashes, run.recovery.recoveries);
    assert_eq!(run.recovery.replay_divergences, 0);
    assert_eq!(run.recovery.invariant_violations, 0);
    let sup = run.report.supervisor.as_ref().unwrap();
    assert_eq!(sup.invariant_violations, 0);
    assert_eq!(run.report.actuation.double_actuations, 0);
    assert_eq!(run.report.actuation.tmu_cap_expansions, 0);
}

fn severity_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.25), Just(0.5), Just(0.75)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn crash_at_any_offset_around_a_swap_recovers_bit_identically(
        seed in 0u64..1000,
        severity in severity_strategy(),
        swap_at in 4u64..10,
        offset in -3i64..=3,
    ) {
        check_crash_offset(seed, severity, swap_at, offset);
    }

    #[test]
    fn arbitrary_fault_swap_interleavings_keep_invariants(
        seed in 0u64..1000,
        severity in severity_strategy(),
        swap_raw in 0u64..12,
        bursts in 0u8..2,
        crashes in prop::collection::vec(1u64..30, 0usize..3),
    ) {
        // swap_raw < 3 means "no swap"; otherwise it is the swap step.
        let swap_at = (swap_raw >= 3).then_some(swap_raw);
        check_interleaving(seed, severity, swap_at, bursts == 1, &crashes);
    }
}

/// A correlated burst window — every sensor latched together — is the
/// failure mode independent faults rarely reach: sustained dirt that
/// walks the supervisor down the Fallback→Safe escalation edge.
#[test]
fn correlated_burst_drives_fallback_to_safe_escalation() {
    let wl = catalog::spec::mcf();
    let exp = Experiment::new(Scheme::CoordinatedHeuristic).with_options(quick_options());
    let plan = FaultPlan::uniform(77, 0.0).with_bursts(1, 15.0, 4.0);
    let rep = exp
        .run_supervised(&wl, SupervisorConfig::default(), Some(plan))
        .unwrap();
    let sup = rep.supervisor.unwrap();
    assert!(sup.safe_entries >= 1, "burst never escalated: {sup:?}");
    assert_eq!(sup.invariant_violations, 0);
    let faults = rep.faults.unwrap();
    assert!(faults.stats.burst_windows >= 1, "{:?}", faults.stats);
}
