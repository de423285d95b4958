//! Golden-digest regression test for the deployed controllers' runs.
//!
//! Every run is deterministic, so each one is pinned here by an FNV-1a
//! digest over exactly the fields [`Report::bit_identical`] compares:
//! workload and scheme labels, the aggregate metrics, every trace sample,
//! the fault record, the serving outcome, the supervisor counters and the
//! actuation audit. The runs cover every [`Scheme`] on blackscholes, the
//! Figure 15 fixed-target SSV pair, both deployment ablations (naive
//! quantization, external signals off), and crash recovery through the
//! controllers' checkpoint snapshots. A refactor of the controllers is
//! correct when these digests do not move.
//!
//! Regenerate after an *intentional* behavioural change with:
//!
//! ```text
//! cargo test -p yukta-core --test golden_runs -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over [`GOLDEN`].

use yukta_board::ActuationAudit;
use yukta_board::faults::{FaultChannel, FaultKind, FaultPlan, FaultStats};
use yukta_core::controllers::heuristic::CoordinatedHeuristicOs;
use yukta_core::controllers::ssv::{SsvHwController, SsvOsController};
use yukta_core::design::default_design;
use yukta_core::metrics::Report;
use yukta_core::optimizer::{HwOptimizer, OsOptimizer};
use yukta_core::runtime::{Experiment, RecoveryOptions, RunOptions};
use yukta_core::schemes::{Controllers, Scheme};
use yukta_core::signals::{HwOutputs, Limits, OsOutputs};
use yukta_core::supervisor::{SupervisorConfig, SupervisorStats};
use yukta_workloads::catalog;

/// One digest per named run, in the order the groups below produce them.
const GOLDEN: &[(&str, u64)] = &[
    ("CoordinatedHeuristic", 0x17222dc731634f28),
    ("DecoupledHeuristic", 0x0249f56ee033ab4e),
    ("YuktaHwSsvOsHeuristic", 0x34d75881c9552133),
    ("YuktaHwSsvOsSsv", 0xde51cff31cc3ac99),
    ("DecoupledLqg", 0xea0a2f0814ac49a8),
    ("MonolithicLqg", 0x36fb596be8b58d37),
    ("fixed_targets", 0x4fcc7164593738c3),
    ("naive_quantization", 0xb1d698eec81d5f35),
    ("without_external_signals", 0xfb62d2e24013e4d5),
    ("recover_YuktaHwSsvOsSsv", 0xeeccad8449f0d2ac),
    ("recover_MonolithicLqg", 0xc6362e6c9893627a),
];

/// FNV-1a over the little-endian bytes of each value, in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    /// Length-prefixed text (labels and the text of the all-integer
    /// records that `bit_identical` compares with `==`).
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(r: &Report) -> u64 {
    let mut h = Fnv::new();
    h.str(&r.workload);
    h.str(&r.scheme);
    h.f64s(&[r.metrics.energy_joules, r.metrics.delay_seconds]);
    h.u64(u64::from(r.metrics.completed));
    h.u64(r.trace.samples.len() as u64);
    for s in &r.trace.samples {
        h.f64s(&[
            s.time,
            s.p_big,
            s.p_little,
            s.temp,
            s.bips,
            s.bips_big,
            s.bips_little,
            s.f_big,
            s.f_little,
        ]);
        for n in [s.big_cores, s.little_cores, s.threads_big, s.active_threads] {
            h.u64(n as u64);
        }
    }
    match &r.faults {
        None => h.u64(0),
        Some(f) => {
            h.u64(1);
            h.u64(f.seed);
            h.f64s(&[f.severity]);
            h.str(&fault_text(&f.stats));
            h.u64(f.trace.len() as u64);
            for e in &f.trace {
                h.f64s(&[e.time, e.value]);
                h.str(&fault_event_text(e.kind, e.channel));
            }
        }
    }
    match &r.slo {
        None => h.u64(0),
        Some(s) => {
            h.u64(1);
            for n in [
                s.offered,
                s.admitted,
                s.shed,
                s.rejected,
                s.timed_out,
                s.completed,
            ] {
                h.u64(n);
            }
            h.f64s(&[s.p95_s, s.p99_s, s.violation_frac, s.max_shed_frac]);
        }
    }
    h.str(&match &r.supervisor {
        None => "None".to_string(),
        Some(s) => format!("Some({})", supervisor_text(s)),
    });
    h.str(&actuation_text(&r.actuation));
    h.0
}

/// `field: value` for each named counter, as the digest's record text
/// `Name { field: value, … }` lists them.
fn named(counters: &[(&str, u64)]) -> Vec<String> {
    counters.iter().map(|(k, v)| format!("{k}: {v}")).collect()
}

/// The supervisor counters by name, with `first_violation` appended only
/// when there is one. The destructure is exhaustive, so a new field fails
/// to compile here until the digest decides how to hash it.
fn supervisor_text(s: &SupervisorStats) -> String {
    let SupervisorStats {
        nonfinite_repairs,
        range_clamps,
        stuck_detections,
        controller_errors,
        actuation_clamps,
        windup_resets,
        fallback_entries,
        fallback_exits,
        safe_entries,
        invocations,
        degraded_invocations,
        invariant_violations,
        shed_engagements,
        first_violation,
    } = *s;
    let mut fields = named(&[
        ("nonfinite_repairs", nonfinite_repairs),
        ("range_clamps", range_clamps),
        ("stuck_detections", stuck_detections),
        ("controller_errors", controller_errors),
        ("actuation_clamps", actuation_clamps),
        ("windup_resets", windup_resets),
        ("fallback_entries", fallback_entries),
        ("fallback_exits", fallback_exits),
        ("safe_entries", safe_entries),
        ("invocations", invocations),
        ("degraded_invocations", degraded_invocations),
        ("invariant_violations", invariant_violations),
        ("shed_engagements", shed_engagements),
    ]);
    if let Some(v) = first_violation {
        fields.push(format!("first_violation: Some({v:?})"));
    }
    format!("SupervisorStats {{ {} }}", fields.join(", "))
}

/// The actuation audit by name; exhaustive like [`supervisor_text`].
fn actuation_text(a: &ActuationAudit) -> String {
    let ActuationAudit {
        actuation_requests,
        double_actuations,
        tmu_cap_expansions,
    } = *a;
    let fields = named(&[
        ("actuation_requests", actuation_requests),
        ("double_actuations", double_actuations),
        ("tmu_cap_expansions", tmu_cap_expansions),
    ]);
    format!("ActuationAudit {{ {} }}", fields.join(", "))
}

/// The fault counters by name; exhaustive like [`supervisor_text`].
fn fault_text(f: &FaultStats) -> String {
    let FaultStats {
        sensor_faults,
        stuck_episodes,
        dropped_samples,
        spikes,
        delayed_reads,
        dvfs_rejections,
        hotplug_ignored,
        actuation_lags,
        burst_windows,
    } = *f;
    let fields = named(&[
        ("sensor_faults", sensor_faults),
        ("stuck_episodes", stuck_episodes),
        ("dropped_samples", dropped_samples),
        ("spikes", spikes),
        ("delayed_reads", delayed_reads),
        ("dvfs_rejections", dvfs_rejections),
        ("hotplug_ignored", hotplug_ignored),
        ("actuation_lags", actuation_lags),
        ("burst_windows", burst_windows),
    ]);
    format!("FaultStats {{ {} }}", fields.join(", "))
}

/// A fault event's kind and channel by name, `Kind Channel`. The matches
/// are exhaustive, so a new kind or channel fails to compile here until
/// the digest decides how to hash it.
fn fault_event_text(kind: FaultKind, channel: FaultChannel) -> String {
    let kind = match kind {
        FaultKind::StuckAt => "StuckAt",
        FaultKind::DroppedSample => "DroppedSample",
        FaultKind::Spike => "Spike",
        FaultKind::BiasNoise => "BiasNoise",
        FaultKind::DelayedRead => "DelayedRead",
        FaultKind::DvfsRejected => "DvfsRejected",
        FaultKind::HotplugIgnored => "HotplugIgnored",
        FaultKind::ActuationLag => "ActuationLag",
    };
    let channel = match channel {
        FaultChannel::PowerBig => "PowerBig",
        FaultChannel::PowerLittle => "PowerLittle",
        FaultChannel::Temp => "Temp",
        FaultChannel::Dvfs => "Dvfs",
        FaultChannel::Hotplug => "Hotplug",
        FaultChannel::Actuation => "Actuation",
    };
    format!("{kind} {channel}")
}

fn options() -> RunOptions {
    RunOptions {
        timeout_s: 700.0,
        ..Default::default()
    }
}

fn experiment(scheme: Scheme) -> Experiment {
    Experiment::new(scheme).with_options(options())
}

/// Every scheme through [`Scheme::instantiate`] on blackscholes.
fn scheme_runs() -> Vec<(String, Report)> {
    let wl = catalog::parsec::blackscholes();
    Scheme::all()
        .into_iter()
        .map(|s| (format!("{s:?}"), experiment(s).run(&wl).unwrap()))
        .collect()
}

/// The deployments built outside [`Scheme::instantiate`]: the Figure 15
/// fixed-target pair and the two ablations.
fn deployment_runs() -> Vec<(String, Report)> {
    let d = default_design();
    let wl = catalog::parsec::blackscholes();
    let hw = || SsvHwController::new(&d.hw_ssv, HwOptimizer::new(Limits::default())).unwrap();
    let os = || SsvOsController::new(&d.os_ssv, OsOptimizer::new()).unwrap();
    let fixed = Controllers::Split {
        hw: Box::new(
            SsvHwController::with_fixed_targets(
                &d.hw_ssv,
                HwOutputs {
                    perf: 5.5,
                    p_big: 2.5,
                    p_little: 0.2,
                    temp: 70.0,
                },
            )
            .unwrap(),
        ),
        os: Box::new(
            SsvOsController::with_fixed_targets(
                &d.os_ssv,
                OsOutputs {
                    perf_little: 1.0,
                    perf_big: 4.5,
                    spare_diff: 1.0,
                },
            )
            .unwrap(),
        ),
    };
    let naive = Controllers::Split {
        hw: Box::new(hw().with_naive_quantization()),
        os: Box::new(CoordinatedHeuristicOs::new()),
    };
    let no_ext = Controllers::Split {
        hw: Box::new(hw().without_external_signals()),
        os: Box::new(os().without_external_signals()),
    };
    [
        ("fixed_targets", Scheme::YuktaHwSsvOsSsv, fixed),
        ("naive_quantization", Scheme::YuktaHwSsvOsHeuristic, naive),
        ("without_external_signals", Scheme::YuktaHwSsvOsSsv, no_ext),
    ]
    .into_iter()
    .map(|(name, scheme, c)| {
        let rep = experiment(scheme).run_with_controllers(&wl, c).unwrap();
        (name.to_string(), rep)
    })
    .collect()
}

/// One supervised crash per run, recovered from a controller checkpoint
/// and the journal.
fn recovery_runs() -> Vec<(String, Report)> {
    let wl = catalog::parsec::blackscholes();
    [Scheme::YuktaHwSsvOsSsv, Scheme::MonolithicLqg]
        .into_iter()
        .map(|s| {
            let run = experiment(s)
                .run_recoverable(
                    &wl,
                    Some(SupervisorConfig::default()),
                    Some(FaultPlan::uniform(7, 0.2).with_crash(45)),
                    RecoveryOptions {
                        checkpoint_interval: 16,
                    },
                )
                .unwrap();
            assert_eq!(run.recovery.crashes, 1, "{s:?}: the crash must land");
            (format!("recover_{s:?}"), run.report)
        })
        .collect()
}

fn check(runs: Vec<(String, Report)>) {
    for (name, rep) in runs {
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden digest for {name}"))
            .1;
        assert_eq!(digest(&rep), want, "{name} drifted");
    }
}

#[test]
fn every_scheme_matches_golden_digest() {
    check(scheme_runs());
}

#[test]
fn fixed_target_and_ablation_deployments_match_golden_digests() {
    check(deployment_runs());
}

#[test]
fn recovered_runs_match_golden_digests() {
    check(recovery_runs());
}

/// Prints the golden table. Run with `-- --ignored --nocapture` (see the
/// module docs) and paste the output over [`GOLDEN`].
#[test]
#[ignore]
fn regenerate_golden_digests() {
    println!("const GOLDEN: &[(&str, u64)] = &[");
    for (name, rep) in [scheme_runs(), deployment_runs(), recovery_runs()].concat() {
        println!("    ({name:?}, {:#018x}),", digest(&rep));
    }
    println!("];");
}
