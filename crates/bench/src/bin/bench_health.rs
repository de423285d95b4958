//! Loop-health monitoring campaign (DESIGN.md §16): the streaming
//! detector stack (model-residual + BIPS/W phase channels, Page–Hinkley
//! and CUSUM) exercised end-to-end against ground truth, written to
//! `results/BENCH_health.json`.
//!
//! The campaign gates, across the whole grid:
//!
//! 1. **Zero false positives.** Stationary workloads under every tested
//!    scheme must complete with no alarm and no detector-triggered swap —
//!    the baselines (startup ramp, deviation-model offset, slow thermal
//!    drift) are the monitor's problem, not the operator's.
//! 2. **Bounded detection latency.** An injected mid-run phase change
//!    (compute-bound → memory-bound plant) and an injected sensor-bias
//!    onset must both be detected within 20 controller periods of the
//!    ground-truth step, read from the run's own trace / fault schedule.
//! 3. **Pure observation.** A monitored-but-not-acting run and the
//!    disabled-monitor path (no tap attached) must both be bit-identical
//!    to the unmonitored supervised run, and the monitor must see one
//!    sample per trace sample. The campaign times nothing: the
//!    benchmark's `core.health_ns` and `obs.record_overhead_frac` measure
//!    what the monitor and the recorder cost.
//! 4. **The closed loop pays for itself.** On the phase-change cell, the
//!    observe→detect→re-identify→hot-swap cycle must complete with zero
//!    mode-automaton invariant violations and improve E×D over the same
//!    initial scheme left alone.
//!
//! One grid, 6 cells (3 stationary schemes, phase change, bias onset,
//! purity). Any violation exits non-zero, which gates CI. The envelope is
//! deterministic to the byte; CI fails on any difference from the
//! committed one.

use yukta_bench::campaign::Campaign;
use yukta_board::{FaultChannel, FaultKind, FaultPlan, ScheduledFault};
use yukta_core::runtime::{Experiment, SwapSpec, SwapTrigger, UnifiedOptions};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_obs::health::HealthConfig;
use yukta_workloads::{App, PhaseSpec, Suite, Workload, catalog};

/// A supervised run under the health monitor whose first phase-change
/// verdict re-identifies the plant and swaps in `scheme` (the
/// experiment's own when `None`).
fn adaptive(
    health: HealthConfig,
    plan: Option<FaultPlan>,
    scheme: Option<Scheme>,
) -> UnifiedOptions {
    UnifiedOptions {
        sup_cfg: Some(SupervisorConfig::default()),
        plan,
        health: Some(health),
        swap: Some(SwapSpec {
            trigger: SwapTrigger::PhaseChange { max_swaps: 1 },
            scheme,
        }),
        ..Default::default()
    }
}

/// Detection-latency gate: periods between ground truth and the verdict.
const MAX_DETECT_LATENCY: u64 = 20;

/// A workload with one hard mid-run phase change: a compute-bound
/// 8-thread phase, then a memory-bound 2-thread phase with very different
/// IPC — the plant the deployed model was identified against effectively
/// changes underneath the controller. Mirrors the runtime unit test so
/// the campaign exercises the same plant at evaluation length.
fn phase_change_workload() -> Workload {
    Workload::single(App {
        name: "phase-change".into(),
        suite: Suite::Parsec,
        slots: 8,
        phases: vec![
            PhaseSpec {
                name: "compute".into(),
                threads: 8,
                work_gi: 220.0,
                mem_intensity: 0.05,
                ipc_big: 1.10,
                ipc_little: 1.00,
            },
            PhaseSpec {
                name: "memory".into(),
                threads: 2,
                work_gi: 60.0,
                mem_intensity: 0.90,
                ipc_big: 0.45,
                ipc_little: 0.40,
            },
        ],
    })
}

/// Ground-truth phase-switch step: the first invocation whose trace
/// sample reports the memory phase's 2 active threads after the
/// compute phase's 8.
fn switch_step(report: &yukta_core::Report) -> Option<u64> {
    let mut seen_compute = false;
    for (i, s) in report.trace.samples.iter().enumerate() {
        if s.active_threads >= 8 {
            seen_compute = true;
        } else if seen_compute && s.active_threads <= 2 {
            return Some(i as u64);
        }
    }
    None
}

fn main() {
    let _obs = yukta_bench::obs::capture_obs_only("bench_health");
    let mut camp = Campaign::new("bench_health");
    let stationary_wl = catalog::spec::mcf();
    let health = HealthConfig::default();

    // ------------------------------------------------------------------
    // Gate 1: zero false positives on stationary runs, across schemes.
    // ------------------------------------------------------------------
    let stationary = [
        Scheme::CoordinatedHeuristic,
        Scheme::DecoupledHeuristic,
        Scheme::YuktaHwSsvOsSsv,
    ];
    for scheme in &stationary {
        let label = format!("stationary {}", scheme.label());
        let exp = Experiment::new(*scheme).expect("experiment construction");
        // A monitor is configured per loop, like any CUSUM chart: k is
        // half the smallest shift worth detecting in that loop's units and
        // h follows from the in-control run length. The SSV loop's
        // in-control residual is heavy-tailed — saturation-driven sags
        // several σ deep and tens of periods long are part of its normal
        // signature — so its chart gets a baseline window covering a full
        // sag cycle and proportionally wider slack and thresholds. The
        // heuristic loops run the defaults.
        let cell_health = match scheme {
            Scheme::YuktaHwSsvOsSsv => HealthConfig {
                warmup: 96,
                ph_delta: 1.0,
                ph_lambda: 30.0,
                cusum_k: 1.5,
                cusum_h: 25.0,
                ..HealthConfig::default()
            },
            _ => HealthConfig::default(),
        };
        let Some(run) = camp.cell(&label, || {
            exp.run_unified(&stationary_wl, adaptive(cell_health, None, None))
                .expect("stationary adaptive run")
        }) else {
            continue;
        };
        let stats = run.health.expect("monitor was attached");
        let violations = run.recovery.invariant_violations;
        if !run.report.metrics.completed {
            camp.fail(&format!("{label}: workload timed out"));
        }
        if stats.alarms > 0 || !run.cycles.is_empty() {
            camp.fail(&format!(
                "{label}: false positive — {} alarm(s), first swap at step {:?}",
                stats.alarms,
                run.cycles.first().map(|c| c.detect_step)
            ));
        }
        if violations > 0 {
            camp.fail(&format!(
                "{label}: {violations} mode-automaton invariant violations"
            ));
        }
        println!(
            "  [{label}] {} samples, res_mean {:.4}, margin_mean {:.3}, sat duty {:.3}, \
             alarms {}",
            stats.samples,
            stats.residual_mean,
            stats.margin_mean,
            stats.saturation_duty,
            stats.alarms
        );
        camp.push_row(format!(
            "    {{\"cell\": \"stationary\", \"scheme\": \"{}\", \"workload\": \"{}\", \
             \"samples\": {}, \"residual_mean\": {:.6}, \"margin_mean\": {:.6}, \
             \"saturation_duty\": {:.6}, \"alarms\": {}, \"swaps\": {}, \
             \"invariant_violations\": {}}}",
            scheme.label(),
            stationary_wl.name,
            stats.samples,
            stats.residual_mean,
            stats.margin_mean,
            stats.saturation_duty,
            stats.alarms,
            run.cycles.len(),
            violations,
        ));
    }

    // ------------------------------------------------------------------
    // Gates 2 + 4: phase-change detection latency and the adaptive E×D
    // payoff. The adaptive run starts on the weaker decoupled heuristic
    // and hot-swaps to the coordinated scheme on detection; the
    // non-adaptive baseline is the same initial scheme left alone.
    // ------------------------------------------------------------------
    let pc_wl = phase_change_workload();
    let initial = Scheme::DecoupledHeuristic;
    let upgraded = Scheme::CoordinatedHeuristic;
    {
        let label = "phase-change adaptive";
        let base_exp = Experiment::new(initial).expect("experiment construction");
        let cell = camp.cell(label, || {
            let run = base_exp
                .run_unified(&pc_wl, adaptive(health, None, Some(upgraded)))
                .expect("adaptive run");
            let baseline = base_exp
                .run_supervised(&pc_wl, SupervisorConfig::default(), None)
                .expect("non-adaptive baseline");
            (run, baseline)
        });
        if let Some((run, baseline)) = cell {
            let stats = run.health.expect("monitor was attached");
            let violations = run.recovery.invariant_violations;
            if !run.report.metrics.completed || !baseline.metrics.completed {
                camp.fail(&format!("{label}: run timed out"));
            }
            if violations > 0 {
                camp.fail(&format!(
                    "{label}: {violations} mode-automaton invariant violations"
                ));
            }
            let truth = switch_step(&run.report);
            let (latency, detect_step) = match (run.cycles.first(), truth) {
                (Some(c), Some(t)) => (c.detect_step.saturating_sub(t), c.detect_step),
                (None, _) => {
                    camp.fail(&format!(
                        "{label}: phase change never detected (alarms {})",
                        stats.alarms
                    ));
                    (u64::MAX, 0)
                }
                (_, None) => {
                    camp.fail(&format!("{label}: trace carries no phase switch"));
                    (u64::MAX, 0)
                }
            };
            if latency != u64::MAX && latency > MAX_DETECT_LATENCY {
                camp.fail(&format!(
                    "{label}: detection latency {latency} periods exceeds {MAX_DETECT_LATENCY} \
                     (truth {:?}, detect {detect_step})",
                    truth
                ));
            }
            let (exd_adaptive, exd_base) = (run.report.metrics.exd(), baseline.metrics.exd());
            if exd_adaptive >= exd_base {
                camp.fail(&format!(
                    "{label}: adaptive E×D {exd_adaptive:.1} did not improve on the \
                     non-adaptive {exd_base:.1}"
                ));
            }
            let cycle = run.cycles.first().copied();
            println!(
                "  [{label}] truth {:?}, detect {:?} (latency {}), refit residual {:?}, \
                 E×D {exd_adaptive:.1} vs non-adaptive {exd_base:.1}",
                truth,
                cycle.map(|c| c.detect_step),
                if latency == u64::MAX {
                    "-".to_string()
                } else {
                    latency.to_string()
                },
                cycle.map(|c| c.fit_residual),
            );
            camp.push_row(format!(
                "    {{\"cell\": \"phase_change\", \"initial\": \"{}\", \"upgraded\": \"{}\", \
                 \"switch_step\": {}, \"detect_step\": {}, \"latency\": {}, \
                 \"fit_residual\": {:.6}, \"bumpless\": {}, \"alarms\": {}, \
                 \"exd_adaptive\": {:.4}, \"exd_non_adaptive\": {:.4}, \
                 \"invariant_violations\": {}}}",
                initial.label(),
                upgraded.label(),
                truth.map(|t| t as i64).unwrap_or(-1),
                cycle.map(|c| c.detect_step as i64).unwrap_or(-1),
                if latency == u64::MAX {
                    -1
                } else {
                    latency as i64
                },
                cycle.map(|c| c.fit_residual).unwrap_or(-1.0),
                cycle.map(|c| c.bumpless).unwrap_or(false),
                stats.alarms,
                exd_adaptive,
                exd_base,
                violations,
            ));
        }
    }

    // ------------------------------------------------------------------
    // Gate 2b: sensor-bias onset. A scheduled BiasNoise window shifts the
    // big-cluster power reading by a quarter of full scale (a seriously
    // miscalibrated rail sensor) from a known time; the residual channel
    // must catch the model/plant divergence within the latency bound
    // before the tap's prediction-bias estimator absorbs it.
    // ------------------------------------------------------------------
    // The onset lands well after the monitor's startup settle (holdoff,
    // warmup, and the prediction-bias estimator absorbing the
    // operating-point offset) — matching deployment, where faults arrive
    // against a quiet steady-state baseline.
    {
        let label = "bias-onset detect";
        let onset_step: u64 = 250;
        let onset_s = onset_step as f64 * 0.5;
        let mut plan = FaultPlan::uniform(0x8EA1, 0.0).with_scheduled(ScheduledFault {
            kind: FaultKind::BiasNoise,
            channel: FaultChannel::PowerBig,
            t_start: onset_s,
            t_end: f64::INFINITY,
        });
        plan.bias_frac = 0.25;
        let exp = Experiment::new(Scheme::CoordinatedHeuristic).expect("experiment construction");
        let cell = camp.cell(label, || {
            exp.run_unified(&stationary_wl, adaptive(health, Some(plan.clone()), None))
                .expect("bias-onset adaptive run")
        });
        if let Some(run) = cell {
            let stats = run.health.expect("monitor was attached");
            let violations = run.recovery.invariant_violations;
            if violations > 0 {
                camp.fail(&format!(
                    "{label}: {violations} mode-automaton invariant violations"
                ));
            }
            let detect = run.cycles.first().map(|c| c.detect_step);
            match detect {
                None => camp.fail(&format!(
                    "{label}: bias onset at step {onset_step} never detected (alarms {})",
                    stats.alarms
                )),
                Some(d) if d < onset_step => camp.fail(&format!(
                    "{label}: detector fired at step {d}, before the onset at {onset_step}"
                )),
                Some(d) if d - onset_step > MAX_DETECT_LATENCY => camp.fail(&format!(
                    "{label}: detection latency {} periods exceeds {MAX_DETECT_LATENCY}",
                    d - onset_step
                )),
                Some(_) => {}
            }
            println!(
                "  [{label}] onset {onset_step}, detect {detect:?}, latency {:?}",
                detect.map(|d| d - onset_step.min(d))
            );
            camp.push_row(format!(
                "    {{\"cell\": \"bias_onset\", \"scheme\": \"{}\", \"onset_step\": {}, \
                 \"detect_step\": {}, \"latency\": {}, \"alarms\": {}, \
                 \"invariant_violations\": {}}}",
                Scheme::CoordinatedHeuristic.label(),
                onset_step,
                detect.map(|d| d as i64).unwrap_or(-1),
                detect.map(|d| (d - onset_step.min(d)) as i64).unwrap_or(-1),
                stats.alarms,
                violations,
            ));
        }
    }

    // ------------------------------------------------------------------
    // Gate 3: pure observation — bit-identity of the monitored and the
    // disabled-monitor runs with the supervised one.
    // ------------------------------------------------------------------
    {
        let label = "observer purity";
        let exp = Experiment::new(Scheme::CoordinatedHeuristic).expect("experiment construction");
        let cell = camp.cell(label, || {
            let base = exp
                .run_supervised(&stationary_wl, SupervisorConfig::default(), None)
                .expect("supervised run");
            let (monitored, stats) = exp
                .run_monitored(&stationary_wl, SupervisorConfig::default(), None, health)
                .expect("monitored run");
            // The disabled monitor: the one run loop with no tap attached.
            let disabled = exp
                .run_unified(
                    &stationary_wl,
                    UnifiedOptions {
                        sup_cfg: Some(SupervisorConfig::default()),
                        ..Default::default()
                    },
                )
                .expect("disabled-monitor run")
                .report;
            (base, monitored, disabled, stats)
        });
        if let Some((base, monitored, disabled, stats)) = cell {
            if !monitored.bit_identical(&base) {
                camp.fail(&format!("{label}: monitoring perturbed the run"));
            }
            if !disabled.bit_identical(&base) {
                camp.fail(&format!("{label}: the disabled seam perturbed the run"));
            }
            if stats.samples != monitored.trace.samples.len() as u64 {
                camp.fail(&format!(
                    "{label}: monitor saw {} samples, trace has {}",
                    stats.samples,
                    monitored.trace.samples.len()
                ));
            }
            println!(
                "  [{label}] bit-identical: {}, {} samples",
                monitored.bit_identical(&base) && disabled.bit_identical(&base),
                stats.samples
            );
            camp.push_row(format!(
                "    {{\"cell\": \"purity\", \"scheme\": \"{}\", \"bit_identical\": {}, \
                 \"samples\": {}}}",
                Scheme::CoordinatedHeuristic.label(),
                monitored.bit_identical(&base) && disabled.bit_identical(&base),
                stats.samples,
            ));
        }
    }

    camp.finish(
        "BENCH_health.json",
        &[("max_detect_latency", format!("{MAX_DETECT_LATENCY}"))],
    );
}
