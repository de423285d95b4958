//! Property test for the observability layer's zero-interference
//! guarantee: a fully instrumented supervised + faulted run (an enabled
//! in-memory recorder attached to the experiment) must produce a
//! [`Report`] bit-identical to the uninstrumented run, for arbitrary
//! fault seeds and severities. Telemetry observes the run; it never
//! steers it.

use std::sync::Arc;

use proptest::prelude::*;
use yukta_board::FaultPlan;
use yukta_core::metrics::Report;
use yukta_core::runtime::{Experiment, RunOptions};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_obs::mem::MemRecorder;
use yukta_workloads::catalog;

/// Short simulated horizon: long enough to cross several controller
/// invocations, fault injections, and supervisor transitions; short
/// enough to keep the property affordable.
fn quick_options() -> RunOptions {
    RunOptions {
        timeout_s: 60.0,
        keep_trace: true,
        ..Default::default()
    }
}

/// Runs the same supervised + faulted experiment twice — bare, then with
/// an *enabled* recorder attached — and returns both reports plus the
/// number of telemetry records the instrumented run captured.
fn run_pair(seed: u64, severity: f64) -> (Report, Report, usize) {
    let wl = catalog::parsec::blackscholes();
    let plan = FaultPlan::uniform(seed, severity);
    let bare = Experiment::new(Scheme::CoordinatedHeuristic)
        .with_options(quick_options())
        .run_supervised(&wl, SupervisorConfig::default(), Some(plan.clone()))
        .unwrap();
    let rec = Arc::new(MemRecorder::new());
    let instrumented = Experiment::new(Scheme::CoordinatedHeuristic)
        .with_options(quick_options())
        .with_recorder(rec.clone())
        .run_supervised(&wl, SupervisorConfig::default(), Some(plan))
        .unwrap();
    let records = rec.snapshot().entries.len();
    (bare, instrumented, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn instrumented_run_is_bit_identical_to_bare(
        seed in 0u64..=u32::MAX as u64,
        severity in 0.1f64..1.0,
    ) {
        let (bare, instrumented, records) = run_pair(seed, severity);
        prop_assert!(
            bare.bit_identical(&instrumented),
            "telemetry perturbed the run (seed {seed}, severity {severity:.3})"
        );
        prop_assert!(records > 0, "enabled recorder captured nothing");
    }
}
