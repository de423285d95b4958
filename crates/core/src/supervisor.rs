//! Runtime supervisor: fault containment and graceful degradation.
//!
//! The paper's controllers assume honest sensors and obedient actuators.
//! Under the fault-injection harness (`yukta_board::faults`) neither holds,
//! so every controller invocation is routed through a [`Supervisor`] that
//!
//! 1. **sanitizes** the sensor view — non-finite readings are replaced with
//!    the last good value, physically impossible readings are clamped to
//!    the plant's envelope;
//! 2. **watches for stuck sensors** — a reading whose bit pattern repeats
//!    for [`SupervisorConfig::stuck_window`] consecutive samples is flagged
//!    (the 260 ms INA231 windows and the noisy TMU sensor make genuine
//!    bit-identical repeats vanishingly unlikely);
//! 3. **degrades gracefully** — on any fault evidence or a typed controller
//!    error the model-based scheme is demoted to the *coordinated
//!    heuristic* (the paper's strongest baseline, memoryless and
//!    conservative), and if even that fails — or the fault evidence is
//!    sustained for [`SupervisorConfig::escalate_after`] samples — to a
//!    fixed safe static configuration;
//! 4. **re-engages with hysteresis** — after
//!    [`SupervisorConfig::reengage_after`] consecutive clean samples the
//!    demoted controller is reset (stale estimator state from the faulty
//!    episode is discarded) and promoted one level;
//! 5. **saturates actuations** — commands outside the board's legal range
//!    are clamped, and a long streak of clamped samples triggers an
//!    anti-windup reset of the primary controller's internal state.
//!
//! The mode decisions themselves (which level serves, when to demote,
//! when to re-engage, the swap/recovery protocol) live in one checked
//! state machine — [`crate::modes::ModeAutomaton`] — and the supervisor is
//! a thin driver: it feeds the automaton events (sample cleanliness,
//! controller errors) and performs the matching actions (controller
//! resets, fresh fallbacks, counters). Every invocation runs inside an
//! automaton bracket that asserts single-writer-per-knob and no actuation
//! gap; violations are counted in
//! [`SupervisorStats::invariant_violations`] (zero in any correct run).
//!
//! Everything the supervisor does is pure `f64` arithmetic with no
//! randomness, so supervised runs stay bit-reproducible; with no faults
//! injected the supervisor is exactly transparent (clean samples take the
//! primary path and in-range values are returned bit-identically).

use serde::{Deserialize, Serialize};

use yukta_linalg::{Error, Result};

use crate::controllers::heuristic::{CoordinatedHeuristicHw, CoordinatedHeuristicOs};
use crate::controllers::{HwPolicy, HwSense, OsPolicy, OsSense};
use crate::modes::{
    Knob, LevelChange, ModeAutomaton, ModeConfig, ModeSnapshot, TransitionRecord, level_label,
};
use crate::schemes::{Controllers, ControllersState};
use crate::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs, SloSense};

fn default_escalate_after() -> u32 {
    24
}

/// Overload-protection policy: when the serving layer's tail latency blows
/// past the SLO for a sustained streak, the supervisor sheds a fraction of
/// incoming requests (admission control) instead of letting the backlog
/// melt down. Shedding is an actuation like any other: the supervisor is
/// the single writer of the [`Knob::Admission`] knob, and the shed
/// fraction moves hysteretically (engage high, release low) so admission
/// does not flap at the SLO boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedPolicy {
    /// p99/SLO ratio at or above which a sample counts as overloaded.
    pub engage_ratio: f64,
    /// p99/SLO ratio at or below which shedding decays one step
    /// (hysteresis: between `release_ratio` and `engage_ratio` the shed
    /// fraction holds).
    pub release_ratio: f64,
    /// Backlog fraction at or above which a sample counts as overloaded
    /// regardless of latency (the queue is about to reject).
    pub backlog_hi: f64,
    /// Consecutive overloaded samples before shedding engages or ramps.
    pub overload_after: u32,
    /// Shed-fraction increment (and decay) per qualifying sample.
    pub shed_step: f64,
    /// Shed-fraction ceiling; Safe mode pins admission here.
    pub shed_max: f64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            engage_ratio: 1.0,  // shed only once the SLO is actually violated
            release_ratio: 0.7, // 30% hysteresis band against flapping
            backlog_hi: 0.9,    // queue nearly full → shed regardless
            overload_after: 4,  // 2 s of sustained overload at 500 ms
            shed_step: 0.1,
            shed_max: 0.9, // never black-hole the service completely
        }
    }
}

impl ShedPolicy {
    /// Rejects non-finite, negative, or flapping-prone shed thresholds
    /// with typed errors.
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::NoSolution`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        let finite = [
            self.engage_ratio,
            self.release_ratio,
            self.backlog_hi,
            self.shed_step,
            self.shed_max,
        ]
        .iter()
        .all(|v| v.is_finite());
        if !finite {
            return Err(Error::NoSolution {
                op: "shed_policy",
                why: "shed thresholds must be finite",
            });
        }
        if self.engage_ratio <= 0.0 || self.release_ratio <= 0.0 {
            return Err(Error::NoSolution {
                op: "shed_policy",
                why: "overload ratios must be positive",
            });
        }
        if self.release_ratio >= self.engage_ratio {
            return Err(Error::NoSolution {
                op: "shed_policy",
                why: "release_ratio >= engage_ratio leaves no hysteresis band (admission flapping)",
            });
        }
        if !(0.0..=1.0).contains(&self.backlog_hi) {
            return Err(Error::NoSolution {
                op: "shed_policy",
                why: "backlog_hi must lie in [0, 1]",
            });
        }
        if self.shed_step <= 0.0 || self.shed_step > 1.0 {
            return Err(Error::NoSolution {
                op: "shed_policy",
                why: "shed_step must lie in (0, 1]",
            });
        }
        if !(0.0..1.0).contains(&self.shed_max) {
            return Err(Error::NoSolution {
                op: "shed_policy",
                why: "shed_max must lie in [0, 1) — shedding everything forever is an outage",
            });
        }
        if self.overload_after < 2 {
            return Err(Error::NoSolution {
                op: "shed_policy",
                why: "overload_after < 2 sheds on a single slow sample (admission flapping)",
            });
        }
        Ok(())
    }
}

/// Tuning knobs of the supervisor's fault handling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Consecutive clean samples required before a demoted controller is
    /// promoted one level (Safe → Fallback → Primary).
    pub reengage_after: u32,
    /// Consecutive bit-identical non-zero readings of one sensor channel
    /// that count as a stuck sensor.
    pub stuck_window: u32,
    /// Consecutive samples with at least one clamped actuation before the
    /// primary controller's state is reset (anti-windup freeze).
    pub windup_reset_after: u32,
    /// Consecutive dirty samples in Fallback before escalating to Safe
    /// (sustained correlated faults defeat the heuristic's sensor view).
    #[serde(default = "default_escalate_after")]
    pub escalate_after: u32,
    /// Overload-protection (load-shedding) policy for request-serving runs.
    #[serde(default)]
    pub shed: ShedPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            reengage_after: 6,                        // 3 s of clean telemetry at 500 ms
            stuck_window: 4,                          // 2 s of frozen readings
            windup_reset_after: 8,                    // 4 s of continuous saturation
            escalate_after: default_escalate_after(), // 12 s of sustained dirt
            shed: ShedPolicy::default(),
        }
    }
}

impl SupervisorConfig {
    /// Rejects flapping-prone or degenerate configurations with typed
    /// errors (mirroring `DkOptions::validate`). Checked at every unified
    /// runtime entry point before a supervisor is constructed.
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::NoSolution`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if self.reengage_after < 2 {
            return Err(Error::NoSolution {
                op: "supervisor_config",
                why: "reengage_after < 2 re-engages on a single clean sample (mode flapping)",
            });
        }
        if self.stuck_window < 2 {
            return Err(Error::NoSolution {
                op: "supervisor_config",
                why: "stuck_window < 2 flags every reading as stuck",
            });
        }
        if self.windup_reset_after < 1 {
            return Err(Error::NoSolution {
                op: "supervisor_config",
                why: "windup_reset_after must be at least 1",
            });
        }
        if self.escalate_after < 2 {
            return Err(Error::NoSolution {
                op: "supervisor_config",
                why: "escalate_after < 2 escalates on the first dirty sample (mode flapping)",
            });
        }
        self.shed.validate()
    }

    /// The automaton guard thresholds this configuration induces.
    pub fn mode_config(&self) -> ModeConfig {
        ModeConfig {
            reengage_after: self.reengage_after,
            escalate_after: self.escalate_after,
        }
    }
}

/// Which controller is currently in charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SupervisorMode {
    /// The scheme under test.
    Primary,
    /// The coordinated heuristic (graceful degradation).
    Fallback,
    /// A fixed safe static configuration (last resort).
    Safe,
}

/// Fault-handling counters surfaced in [`crate::metrics::Report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SupervisorStats {
    /// Non-finite sensor readings replaced with the last good value.
    pub nonfinite_repairs: u64,
    /// Physically impossible readings clamped into the plant envelope.
    pub range_clamps: u64,
    /// Stuck-sensor episodes detected by the watchdog.
    pub stuck_detections: u64,
    /// Typed errors (or non-finite outputs) from a controller invocation.
    pub controller_errors: u64,
    /// Actuation components clamped into the legal range.
    pub actuation_clamps: u64,
    /// Anti-windup state resets after sustained actuation clamping.
    pub windup_resets: u64,
    /// Primary → Fallback demotions.
    pub fallback_entries: u64,
    /// Fallback → Primary promotions (hysteresis re-engagements).
    pub fallback_exits: u64,
    /// Fallback → Safe demotions (fallback errors or sustained dirt).
    pub safe_entries: u64,
    /// Total supervised invocations.
    pub invocations: u64,
    /// Invocations served by Fallback or Safe.
    pub degraded_invocations: u64,
    /// Mode-automaton invariant violations (actuation gaps, dual writers,
    /// flapping, illegal events). Zero in any correct run.
    #[serde(default)]
    pub invariant_violations: u64,
    /// Load-shedding engagements: transitions of the shed fraction from
    /// zero to positive (one per overload episode).
    #[serde(default)]
    pub shed_engagements: u64,
}

impl SupervisorStats {
    /// Simulated seconds spent outside Primary (500 ms per invocation).
    pub fn degraded_seconds(&self) -> f64 {
        self.degraded_invocations as f64 * 0.5
    }

    /// Total sensor-fault observations (repairs + clamps + stuck episodes).
    pub fn sensor_faults_seen(&self) -> u64 {
        self.nonfinite_repairs + self.range_clamps + self.stuck_detections
    }
}

/// Per-channel stuck-sensor state.
#[derive(Debug, Clone, Copy, Default)]
struct StuckChannel {
    last_bits: u64,
    repeats: u32,
}

/// Complete resumable snapshot of a [`Supervisor`], including the wrapped
/// primary controllers. The fallback heuristics are memoryless and are
/// rebuilt fresh on restore. Produced by [`Supervisor::save_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorState {
    /// Snapshot of the mode automaton (level, streaks, swap/recovery
    /// phase, step counter).
    pub automaton: ModeSnapshot,
    /// Consecutive actuation-clamped samples toward an anti-windup reset.
    pub clamp_streak: u32,
    /// Stuck-sensor watchdogs as `(last_bits, repeats)` per channel
    /// (p_big, p_little, temp).
    pub watchdogs: [(u64, u32); 3],
    /// Last sanitized hardware-layer outputs.
    pub last_good_hw: HwOutputs,
    /// Last sanitized software-layer outputs.
    pub last_good_os: OsOutputs,
    /// Current admission shed fraction.
    pub shed_frac: f64,
    /// Consecutive overloaded samples toward a shed engagement.
    pub overload_streak: u32,
    /// Counters accumulated so far.
    pub stats: SupervisorStats,
    /// Snapshot of the wrapped primary controllers.
    pub primary: ControllersState,
}

/// Physical plausibility rails for sanitization. Values outside these are
/// impossible on the XU3 envelope and get clamped (and counted).
const PERF_RAIL: (f64, f64) = (0.0, 200.0);
const P_BIG_RAIL: (f64, f64) = (0.0, 15.0);
const P_LITTLE_RAIL: (f64, f64) = (0.0, 3.0);
const TEMP_RAIL: (f64, f64) = (0.0, 130.0);
// Spare capacity per cluster spans roughly −7 (1 core, 8 threads) to +8
// (4 idle cores), so the big−little difference can reach ±15.
const SPARE_RAIL: (f64, f64) = (-16.0, 16.0);

/// The last-resort operating point: big cluster parked at one slow core,
/// all threads on the little cluster at a modest frequency. Thermally and
/// electrically safe by a wide margin while still making progress.
fn safe_static(active_threads: usize) -> (HwInputs, OsInputs) {
    (
        HwInputs {
            big_cores: 1.0,
            little_cores: 4.0,
            f_big: 0.2,
            f_little: 0.8,
        },
        OsInputs {
            threads_big: 0.0,
            packing_big: 1.0,
            packing_little: ((active_threads as f64) / 4.0).max(1.0),
        },
    )
}

fn finite_hw(u: &HwInputs) -> bool {
    u.to_vec().iter().all(|v| v.is_finite())
}

fn finite_os(u: &OsInputs) -> bool {
    u.to_vec().iter().all(|v| v.is_finite())
}

/// Repairs one sensor field in place; returns `true` if it was touched.
fn repair(v: &mut f64, rail: (f64, f64), last_good: f64, stats: &mut SupervisorStats) -> bool {
    if !v.is_finite() {
        *v = last_good;
        stats.nonfinite_repairs += 1;
        true
    } else if *v < rail.0 || *v > rail.1 {
        *v = v.clamp(rail.0, rail.1);
        stats.range_clamps += 1;
        true
    } else {
        false
    }
}

/// Replaces the serving controllers `primary` with `next`, routed through
/// the automaton's request→commit protocol. Callers that staged the swap
/// earlier (entering the crash-vulnerable window) request it on the
/// automaton first, and this call commits it; a direct call is an atomic
/// request+commit. The current state transfers into `next` when the
/// shapes match (bumpless transfer); otherwise `next` starts from a clean
/// reset. Returns `true` when the transfer was bumpless.
pub(crate) fn swap_controllers(
    primary: &mut Controllers,
    mut next: Controllers,
    auto: &mut ModeAutomaton,
) -> bool {
    if !auto.swap_pending() {
        auto.request_swap();
    }
    let saved = primary.save_state();
    let bumpless = next.restore_state(&saved).is_ok();
    if !bumpless {
        next.reset();
    }
    *primary = next;
    auto.commit_swap();
    bumpless
}

/// Wraps a scheme's controllers with fault detection, fallback, and
/// actuation saturation. Mode decisions flow through the checked
/// [`ModeAutomaton`]; see the module docs for the full state machine.
pub struct Supervisor {
    cfg: SupervisorConfig,
    primary: Controllers,
    fb_hw: CoordinatedHeuristicHw,
    fb_os: CoordinatedHeuristicOs,
    auto: ModeAutomaton,
    clamp_streak: u32,
    watchdogs: [StuckChannel; 3],
    last_good_hw: HwOutputs,
    last_good_os: OsOutputs,
    shed_frac: f64,
    overload_streak: u32,
    stats: SupervisorStats,
}

impl Supervisor {
    /// Supervises `primary` with the given configuration.
    pub fn new(primary: Controllers, cfg: SupervisorConfig) -> Self {
        Supervisor {
            cfg,
            primary,
            fb_hw: CoordinatedHeuristicHw::new(),
            fb_os: CoordinatedHeuristicOs::new(),
            auto: ModeAutomaton::new(cfg.mode_config()),
            clamp_streak: 0,
            watchdogs: [StuckChannel::default(); 3],
            last_good_hw: HwOutputs::default(),
            last_good_os: OsOutputs::default(),
            shed_frac: 0.0,
            overload_streak: 0,
            stats: SupervisorStats::default(),
        }
    }

    /// The admission shed fraction currently in force: the fraction of
    /// incoming requests the serving layer must drop at the door. Zero
    /// unless the overload governor engaged; Safe mode pins it at
    /// [`ShedPolicy::shed_max`] (a degraded configuration cannot absorb
    /// open-loop traffic, so admission is throttled along with everything
    /// else).
    pub fn shed_frac(&self) -> f64 {
        if self.auto.level() == SupervisorMode::Safe {
            self.shed_frac.max(self.cfg.shed.shed_max)
        } else {
            self.shed_frac
        }
    }

    /// Hysteretic overload governor: one step per supervised invocation.
    /// Inactive SLO observations (batch runs) keep the shed fraction at
    /// exactly zero, so non-serving executions are bit-identical to the
    /// pre-serving supervisor.
    fn shed_step(&mut self, slo: &SloSense, limits: &Limits) {
        if !slo.active {
            self.shed_frac = 0.0;
            self.overload_streak = 0;
            return;
        }
        let p = self.cfg.shed;
        // latency_slo_s is validated positive at the runtime entry points;
        // guard anyway so a hostile Limits cannot poison the governor.
        let bound = if limits.latency_slo_s > 0.0 && limits.latency_slo_s.is_finite() {
            limits.latency_slo_s
        } else {
            1.0
        };
        let ratio = slo.p99_s / bound;
        let overloaded = ratio >= p.engage_ratio || slo.backlog_frac >= p.backlog_hi;
        if overloaded {
            self.overload_streak = self.overload_streak.saturating_add(1);
            if self.overload_streak >= p.overload_after {
                if self.shed_frac == 0.0 {
                    self.stats.shed_engagements += 1;
                }
                self.shed_frac = (self.shed_frac + p.shed_step).min(p.shed_max);
            }
        } else {
            self.overload_streak = 0;
            if ratio <= p.release_ratio && slo.backlog_frac < p.backlog_hi {
                self.shed_frac = (self.shed_frac - p.shed_step).max(0.0);
            }
            // Between release and engage: hold (the hysteresis band).
        }
    }

    /// The controller level currently in charge.
    pub fn mode(&self) -> SupervisorMode {
        self.auto.level()
    }

    /// Fault-handling counters so far, including the automaton's invariant
    /// violation count.
    pub fn stats(&self) -> SupervisorStats {
        let mut s = self.stats;
        s.invariant_violations = self.auto.violations();
        s
    }

    /// Drains the automaton's transition log for telemetry.
    pub fn drain_transitions(&mut self) -> Vec<TransitionRecord> {
        self.auto.drain_transitions()
    }

    /// The checked mode automaton the supervisor drives. The runtime sends
    /// swap and recovery events to it directly and reads its violations.
    pub(crate) fn automaton(&mut self) -> &mut ModeAutomaton {
        &mut self.auto
    }

    /// Snapshots the complete supervisor state (mode automaton, watchdogs,
    /// hysteresis counters, stats, and the wrapped primary controllers)
    /// for a checkpoint.
    pub fn save_state(&self) -> SupervisorState {
        SupervisorState {
            automaton: self.auto.snapshot(),
            clamp_streak: self.clamp_streak,
            watchdogs: [
                (self.watchdogs[0].last_bits, self.watchdogs[0].repeats),
                (self.watchdogs[1].last_bits, self.watchdogs[1].repeats),
                (self.watchdogs[2].last_bits, self.watchdogs[2].repeats),
            ],
            last_good_hw: self.last_good_hw,
            last_good_os: self.last_good_os,
            shed_frac: self.shed_frac,
            overload_streak: self.overload_streak,
            stats: self.stats(),
            primary: self.primary.save_state(),
        }
    }

    /// Restores a snapshot taken by [`Supervisor::save_state`] into a
    /// supervisor wrapping a freshly instantiated copy of the same scheme.
    /// After a restore, subsequent [`Supervisor::step`] calls reproduce
    /// the checkpointed instance bit-identically.
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::NoSolution`] if the primary-controller
    /// snapshot does not match the wrapped scheme.
    pub fn restore_state(&mut self, state: &SupervisorState) -> Result<()> {
        self.primary.restore_state(&state.primary)?;
        self.fb_hw = CoordinatedHeuristicHw::new();
        self.fb_os = CoordinatedHeuristicOs::new();
        self.auto.restore(&state.automaton);
        self.clamp_streak = state.clamp_streak;
        for (w, &(bits, repeats)) in self.watchdogs.iter_mut().zip(&state.watchdogs) {
            w.last_bits = bits;
            w.repeats = repeats;
        }
        self.last_good_hw = state.last_good_hw;
        self.last_good_os = state.last_good_os;
        self.shed_frac = state.shed_frac;
        self.overload_streak = state.overload_streak;
        self.stats = state.stats;
        Ok(())
    }

    /// Hot-swaps the primary controllers for a freshly synthesized
    /// replacement without interrupting supervision (see
    /// `swap_controllers`). Mode machine, watchdogs, and fallbacks are
    /// untouched, so the swap introduces no actuation gap.
    ///
    /// Returns `true` when the transfer was bumpless.
    pub fn swap_primary(&mut self, next: Controllers) -> bool {
        swap_controllers(&mut self.primary, next, &mut self.auto)
    }

    /// Performs the driver action matching an automaton level change:
    /// reset the controller being engaged (stale state from the previous
    /// episode must not leak forward) and bump the matching counter.
    fn apply_change(&mut self, change: Option<LevelChange>) {
        let Some(ch) = change else { return };
        match (ch.from, ch.to) {
            (SupervisorMode::Fallback, SupervisorMode::Primary) => {
                self.primary.reset();
                self.stats.fallback_exits += 1;
            }
            (SupervisorMode::Safe, SupervisorMode::Fallback) => {
                self.fb_hw = CoordinatedHeuristicHw::new();
                self.fb_os = CoordinatedHeuristicOs::new();
            }
            (SupervisorMode::Primary, SupervisorMode::Fallback) => {
                self.fb_hw = CoordinatedHeuristicHw::new();
                self.fb_os = CoordinatedHeuristicOs::new();
                self.stats.fallback_entries += 1;
            }
            (SupervisorMode::Fallback, SupervisorMode::Safe) => {
                self.stats.safe_entries += 1;
            }
            _ => {}
        }
    }

    /// One supervised controller invocation. Never panics and never
    /// returns non-finite or out-of-range actuations, whatever the senses
    /// contain.
    pub fn step(&mut self, hw_raw: &HwSense, os_raw: &OsSense) -> (HwInputs, OsInputs) {
        self.auto.begin_invocation();
        self.stats.invocations += 1;
        let mut hw = *hw_raw;
        let mut os = *os_raw;
        let mut clean = true;

        // Stuck-sensor watchdog on the raw bit patterns (sanitized values
        // would alias genuinely distinct faults onto one clamped rail).
        if self.watchdog_step(&hw_raw.outputs) {
            clean = false;
        }

        // Sanitize the measured outputs of both layers.
        let lg = self.last_good_hw;
        let s = &mut self.stats;
        let mut touched = false;
        touched |= repair(&mut hw.outputs.perf, PERF_RAIL, lg.perf, s);
        touched |= repair(&mut hw.outputs.p_big, P_BIG_RAIL, lg.p_big, s);
        touched |= repair(&mut hw.outputs.p_little, P_LITTLE_RAIL, lg.p_little, s);
        touched |= repair(&mut hw.outputs.temp, TEMP_RAIL, lg.temp, s);
        let lg = self.last_good_os;
        touched |= repair(&mut os.outputs.perf_little, PERF_RAIL, lg.perf_little, s);
        touched |= repair(&mut os.outputs.perf_big, PERF_RAIL, lg.perf_big, s);
        touched |= repair(&mut os.outputs.spare_diff, SPARE_RAIL, lg.spare_diff, s);
        // The OS layer reads the same sysfs files as the hardware layer:
        // give it the same sanitized view.
        os.system = hw.outputs;
        if touched {
            clean = false;
        }
        self.last_good_hw = hw.outputs;
        self.last_good_os = os.outputs;

        // Overload governor: walk the admission shed fraction from the
        // serving layer's tail-latency observation. Overload evidence is
        // deliberately NOT fault evidence — demoting the controller under
        // load would slow the plant exactly when it must speed up; the
        // governor sheds at the door instead.
        self.shed_step(&hw.slo, &hw.limits);

        // One sample event: hysteresis re-engagement, fault-evidence
        // demotion, and sustained-dirt escalation all fire (at most one)
        // inside the automaton.
        let d = self.auto.on_sample(clean);
        self.apply_change(d.change);

        let (hw_u, os_u) = match self.auto.level() {
            SupervisorMode::Primary => match self.invoke_primary(&hw, &os) {
                Some(u) => u,
                None => {
                    let d = self.auto.on_primary_error();
                    self.apply_change(d.change);
                    self.invoke_fallback(&hw, &os)
                }
            },
            SupervisorMode::Fallback => self.invoke_fallback(&hw, &os),
            SupervisorMode::Safe => safe_static(os.active_threads),
        };

        // Saturate onto the legal actuation ranges; count what was touched.
        let (hw_u, os_u, clamps) = self.saturate(hw_u, os_u, os.active_threads);
        if clamps > 0 {
            self.stats.actuation_clamps += clamps;
            self.clamp_streak += 1;
            if self.clamp_streak >= self.cfg.windup_reset_after {
                // Anti-windup: a controller pinned at its limits for this
                // long has accumulated phantom state — freeze it out.
                self.primary.reset();
                self.stats.windup_resets += 1;
                self.clamp_streak = 0;
            }
        } else {
            self.clamp_streak = 0;
        }

        // Close the invocation bracket: the serving level is the single
        // writer of the three plant knobs this step (the TMU only caps),
        // and the overload governor is the single writer of admission.
        let owner = level_label(self.auto.level());
        self.auto.claim(Knob::Dvfs, owner);
        self.auto.claim(Knob::Hotplug, owner);
        self.auto.claim(Knob::Migration, owner);
        self.auto.claim(Knob::Admission, "admission");
        self.auto.end_invocation();

        if self.auto.level() != SupervisorMode::Primary {
            self.stats.degraded_invocations += 1;
        }
        (hw_u, os_u)
    }

    /// Returns `true` if any sensor channel is currently stuck.
    fn watchdog_step(&mut self, y: &HwOutputs) -> bool {
        let vals = [y.p_big, y.p_little, y.temp];
        let mut any = false;
        for (w, v) in self.watchdogs.iter_mut().zip(vals) {
            let bits = v.to_bits();
            // The startup zero before the first 260 ms power window is not
            // a stuck sensor (see `PowerSensor::has_reading`).
            if bits == w.last_bits && v != 0.0 {
                w.repeats += 1;
            } else {
                w.repeats = 0;
                w.last_bits = bits;
            }
            if w.repeats + 1 >= self.cfg.stuck_window {
                any = true;
                if w.repeats + 1 == self.cfg.stuck_window {
                    self.stats.stuck_detections += 1;
                }
            }
        }
        any
    }

    /// Invokes the scheme under test; `None` on typed error or non-finite
    /// output (both count as controller errors).
    fn invoke_primary(&mut self, hw: &HwSense, os: &OsSense) -> Option<(HwInputs, OsInputs)> {
        let out = match &mut self.primary {
            Controllers::Split { hw: h, os: o } => match (h.invoke(hw), o.invoke(os)) {
                (Ok(hu), Ok(ou)) => Some((hu, ou)),
                _ => None,
            },
            Controllers::Monolithic(m) => m.invoke(hw, os).ok(),
        };
        match out {
            Some((hu, ou)) if finite_hw(&hu) && finite_os(&ou) => Some((hu, ou)),
            _ => {
                self.stats.controller_errors += 1;
                None
            }
        }
    }

    /// Invokes the coordinated heuristic; drops to Safe (through the
    /// automaton) if even that fails.
    fn invoke_fallback(&mut self, hw: &HwSense, os: &OsSense) -> (HwInputs, OsInputs) {
        match (self.fb_hw.invoke(hw), self.fb_os.invoke(os)) {
            (Ok(hu), Ok(ou)) if finite_hw(&hu) && finite_os(&ou) => (hu, ou),
            _ => {
                self.stats.controller_errors += 1;
                let d = self.auto.on_fallback_error();
                self.apply_change(d.change);
                safe_static(os.active_threads)
            }
        }
    }

    /// Clamps both actuation vectors onto the board's legal ranges.
    /// In-range values pass through bit-identically.
    fn saturate(
        &mut self,
        mut hw_u: HwInputs,
        mut os_u: OsInputs,
        active_threads: usize,
    ) -> (HwInputs, OsInputs, u64) {
        if !finite_hw(&hw_u) || !finite_os(&os_u) {
            // Unreachable from the paths above, but keep the guarantee
            // airtight: a non-finite command becomes the safe config.
            self.stats.controller_errors += 1;
            let (h, o) = safe_static(active_threads);
            return (h, o, 1);
        }
        // Normalize→denormalize round trips leave legal commands a few ulps
        // outside their range; the board's own snapping maps those to the
        // same operating point, so they are clamped silently. Only
        // materially out-of-range commands count toward anti-windup.
        const CLAMP_TOL: f64 = 1e-9;
        let mut clamps = 0u64;
        let mut cl = |v: &mut f64, lo: f64, hi: f64| {
            let c = v.clamp(lo, hi);
            if c != *v {
                if (c - *v).abs() > CLAMP_TOL {
                    clamps += 1;
                }
                *v = c;
            }
        };
        cl(&mut hw_u.big_cores, 1.0, 4.0);
        cl(&mut hw_u.little_cores, 1.0, 4.0);
        cl(&mut hw_u.f_big, 0.2, 2.0);
        cl(&mut hw_u.f_little, 0.2, 1.4);
        cl(&mut os_u.threads_big, 0.0, active_threads as f64);
        cl(&mut os_u.packing_big, 1.0, 4.0);
        cl(&mut os_u.packing_little, 1.0, 4.0);
        (hw_u, os_u, clamps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::heuristic::{DecoupledHeuristicHw, DecoupledHeuristicOs};
    use crate::signals::Limits;
    use yukta_linalg::{Error, Result};

    fn heuristic_primary() -> Controllers {
        Controllers::Split {
            hw: Box::new(DecoupledHeuristicHw::new()),
            os: Box::new(DecoupledHeuristicOs::new()),
        }
    }

    fn clean_hw_sense() -> HwSense {
        HwSense {
            outputs: HwOutputs {
                perf: 3.0,
                p_big: 2.0,
                p_little: 0.2,
                temp: 60.0,
            },
            ext: OsInputs {
                threads_big: 4.0,
                packing_big: 1.0,
                packing_little: 1.0,
            },
            current: HwInputs {
                big_cores: 4.0,
                little_cores: 4.0,
                f_big: 1.0,
                f_little: 1.0,
            },
            active_threads: 8,
            slo: Default::default(),
            limits: Limits::default(),
        }
    }

    fn clean_os_sense() -> OsSense {
        OsSense {
            outputs: OsOutputs {
                perf_little: 0.3,
                perf_big: 2.0,
                spare_diff: 0.0,
            },
            ext: HwInputs {
                big_cores: 4.0,
                little_cores: 4.0,
                f_big: 1.0,
                f_little: 1.0,
            },
            current: OsInputs {
                threads_big: 4.0,
                packing_big: 1.0,
                packing_little: 1.0,
            },
            active_threads: 8,
            system: HwOutputs {
                perf: 3.0,
                p_big: 2.0,
                p_little: 0.2,
                temp: 60.0,
            },
            slo: Default::default(),
            limits: Limits::default(),
        }
    }

    /// Varies the noisy channels so the stuck watchdog never trips on the
    /// synthetic fixtures.
    fn jitter(hw: &mut HwSense, os: &mut OsSense, k: usize) {
        let eps = 1e-9 * (k as f64 + 1.0);
        hw.outputs.p_big += eps;
        hw.outputs.p_little += eps;
        hw.outputs.temp += eps;
        os.system = hw.outputs;
    }

    #[test]
    fn clean_samples_stay_primary_and_transparent() {
        let mut sup = Supervisor::new(heuristic_primary(), SupervisorConfig::default());
        let mut bare_hw = DecoupledHeuristicHw::new();
        let mut bare_os = DecoupledHeuristicOs::new();
        for k in 0..20 {
            let mut hw = clean_hw_sense();
            let mut os = clean_os_sense();
            jitter(&mut hw, &mut os, k);
            let (hu, ou) = sup.step(&hw, &os);
            let expect_h = bare_hw.invoke(&hw).unwrap();
            let expect_o = bare_os.invoke(&os).unwrap();
            assert_eq!(hu, expect_h, "sample {k}");
            assert_eq!(ou, expect_o, "sample {k}");
        }
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        let st = sup.stats();
        assert_eq!(st.sensor_faults_seen(), 0);
        assert_eq!(st.fallback_entries, 0);
        assert_eq!(st.degraded_invocations, 0);
        assert_eq!(st.invariant_violations, 0);
    }

    #[test]
    fn nan_sensor_demotes_then_hysteresis_reengages() {
        let cfg = SupervisorConfig::default();
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let mut hw = clean_hw_sense();
        let mut os = clean_os_sense();
        jitter(&mut hw, &mut os, 0);
        sup.step(&hw, &os);
        // Poison one reading: demoted to the coordinated heuristic.
        let mut bad = hw;
        bad.outputs.p_big = f64::NAN;
        let (hu, ou) = sup.step(&bad, &os);
        assert!(finite_hw(&hu) && finite_os(&ou));
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        assert_eq!(sup.stats().fallback_entries, 1);
        assert!(sup.stats().nonfinite_repairs >= 1);
        // One clean sample is not enough to re-engage…
        for k in 0..cfg.reengage_after - 1 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k as usize + 1);
            sup.step(&h, &o);
            assert_eq!(sup.mode(), SupervisorMode::Fallback, "sample {k}");
        }
        // …but the full streak is.
        let mut h = clean_hw_sense();
        let mut o = clean_os_sense();
        jitter(&mut h, &mut o, 99);
        sup.step(&h, &o);
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        assert_eq!(sup.stats().fallback_exits, 1);
        assert!(sup.stats().degraded_invocations >= cfg.reengage_after as u64);
    }

    #[test]
    fn stuck_sensor_watchdog_fires_after_window() {
        let cfg = SupervisorConfig::default();
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let hw = clean_hw_sense();
        let os = clean_os_sense();
        // Bit-identical readings every sample: stuck after `stuck_window`.
        for k in 0..cfg.stuck_window {
            sup.step(&hw, &os);
            if k + 1 < cfg.stuck_window {
                assert_eq!(sup.stats().stuck_detections, 0, "sample {k}");
            }
        }
        assert_eq!(sup.stats().stuck_detections, 3, "one episode per channel");
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
    }

    /// A primary that always reports a numerical failure.
    struct FailingHw;
    impl HwPolicy for FailingHw {
        fn invoke(&mut self, _sense: &HwSense) -> Result<HwInputs> {
            Err(Error::Singular { op: "test" })
        }
        fn name(&self) -> &'static str {
            "failing-hw"
        }
    }

    /// A primary that commands far outside the legal actuation ranges.
    struct WildHw;
    impl HwPolicy for WildHw {
        fn invoke(&mut self, _sense: &HwSense) -> Result<HwInputs> {
            Ok(HwInputs {
                big_cores: 99.0,
                little_cores: -3.0,
                f_big: 10.0,
                f_little: 10.0,
            })
        }
        fn name(&self) -> &'static str {
            "wild-hw"
        }
    }

    #[test]
    fn typed_controller_error_falls_back_same_step() {
        let primary = Controllers::Split {
            hw: Box::new(FailingHw),
            os: Box::new(DecoupledHeuristicOs::new()),
        };
        let mut sup = Supervisor::new(primary, SupervisorConfig::default());
        let mut hw = clean_hw_sense();
        let mut os = clean_os_sense();
        jitter(&mut hw, &mut os, 0);
        let (hu, _) = sup.step(&hw, &os);
        // Served by the fallback heuristic, not the failing primary.
        assert!(finite_hw(&hu));
        assert!((0.2..=2.0).contains(&hu.f_big));
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        assert_eq!(sup.stats().controller_errors, 1);
    }

    #[test]
    fn wild_actuations_are_clamped_and_windup_resets_fire() {
        let cfg = SupervisorConfig {
            windup_reset_after: 3,
            ..Default::default()
        };
        let primary = Controllers::Split {
            hw: Box::new(WildHw),
            os: Box::new(DecoupledHeuristicOs::new()),
        };
        let mut sup = Supervisor::new(primary, cfg);
        for k in 0..6 {
            let mut hw = clean_hw_sense();
            let mut os = clean_os_sense();
            jitter(&mut hw, &mut os, k);
            let (hu, ou) = sup.step(&hw, &os);
            assert!((1.0..=4.0).contains(&hu.big_cores), "sample {k}");
            assert!((0.2..=2.0).contains(&hu.f_big), "sample {k}");
            assert!((0.2..=1.4).contains(&hu.f_little), "sample {k}");
            assert!((1.0..=4.0).contains(&ou.packing_big), "sample {k}");
        }
        let st = sup.stats();
        assert!(
            st.actuation_clamps >= 6 * 3,
            "clamps {}",
            st.actuation_clamps
        );
        assert!(st.windup_resets >= 2, "windup resets {}", st.windup_resets);
        // Still primary: clamping alone is not fault evidence.
        assert_eq!(sup.mode(), SupervisorMode::Primary);
    }

    #[test]
    fn all_nan_senses_still_yield_legal_actuations() {
        let mut sup = Supervisor::new(heuristic_primary(), SupervisorConfig::default());
        let mut hw = clean_hw_sense();
        let mut os = clean_os_sense();
        hw.outputs.perf = f64::NAN;
        hw.outputs.p_big = f64::INFINITY;
        hw.outputs.p_little = f64::NEG_INFINITY;
        hw.outputs.temp = f64::NAN;
        os.outputs.perf_little = f64::NAN;
        os.outputs.perf_big = f64::NAN;
        os.outputs.spare_diff = f64::NAN;
        os.system = hw.outputs;
        for _ in 0..10 {
            let (hu, ou) = sup.step(&hw, &os);
            assert!(finite_hw(&hu) && finite_os(&ou));
            assert!((1.0..=4.0).contains(&hu.big_cores));
            assert!((0.2..=2.0).contains(&hu.f_big));
            assert!(ou.threads_big <= 8.0);
        }
        assert!(sup.stats().nonfinite_repairs >= 70);
        assert_ne!(sup.mode(), SupervisorMode::Primary);
    }

    /// Demotes a fresh supervisor to Fallback with one NaN sample, then
    /// feeds `n` clean samples. Returns the supervisor for inspection.
    fn demoted_then_clean(cfg: SupervisorConfig, n: u32) -> Supervisor {
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let mut hw = clean_hw_sense();
        let mut os = clean_os_sense();
        jitter(&mut hw, &mut os, 0);
        sup.step(&hw, &os);
        let mut bad = hw;
        bad.outputs.p_big = f64::NAN;
        sup.step(&bad, &os);
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        for k in 0..n {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k as usize + 1);
            sup.step(&h, &o);
        }
        sup
    }

    #[test]
    fn reengagement_boundary_one_below_threshold_stays_fallback() {
        let cfg = SupervisorConfig::default();
        let sup = demoted_then_clean(cfg, cfg.reengage_after - 1);
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        assert_eq!(sup.stats().fallback_exits, 0);
    }

    #[test]
    fn reengagement_boundary_exactly_at_threshold_promotes_and_serves_primary() {
        let cfg = SupervisorConfig::default();
        let mut sup = demoted_then_clean(cfg, cfg.reengage_after - 1);
        // The Nth clean sample promotes *before* the invocation is routed,
        // so Primary serves it: the returned actuation must match a bare
        // primary that was reset at the promotion (stale-state discard).
        let mut h = clean_hw_sense();
        let mut o = clean_os_sense();
        jitter(&mut h, &mut o, 50);
        let (hu, ou) = sup.step(&h, &o);
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        assert_eq!(sup.stats().fallback_exits, 1);
        let mut bare_hw = DecoupledHeuristicHw::new();
        let mut bare_os = DecoupledHeuristicOs::new();
        assert_eq!(hu, bare_hw.invoke(&h).unwrap());
        assert_eq!(ou, bare_os.invoke(&o).unwrap());
        // The promoting sample itself was served by Primary, so it does
        // not count as degraded.
        assert_eq!(
            sup.stats().degraded_invocations,
            u64::from(cfg.reengage_after)
        );
    }

    #[test]
    fn reengagement_boundary_one_past_threshold_does_not_flap() {
        let cfg = SupervisorConfig::default();
        let mut sup = demoted_then_clean(cfg, cfg.reengage_after);
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        // Continued clean samples: mode stays Primary, no extra
        // entries/exits — a single demotion episode, no flapping.
        for k in 0..2 * cfg.reengage_after {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, 60 + k as usize);
            sup.step(&h, &o);
            assert_eq!(sup.mode(), SupervisorMode::Primary, "sample {k}");
        }
        assert_eq!(sup.stats().fallback_entries, 1);
        assert_eq!(sup.stats().fallback_exits, 1);
        assert_eq!(sup.stats().invariant_violations, 0);
    }

    #[test]
    fn dirty_sample_mid_streak_restarts_the_hysteresis_count() {
        let cfg = SupervisorConfig::default();
        let mut sup = demoted_then_clean(cfg, cfg.reengage_after - 1);
        // A dirty sample resets the streak: N−1 more clean samples are
        // again not enough…
        let mut bad = clean_hw_sense();
        bad.outputs.temp = f64::NAN;
        let os = clean_os_sense();
        sup.step(&bad, &os);
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        for k in 0..cfg.reengage_after - 1 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, 70 + k as usize);
            sup.step(&h, &o);
            assert_eq!(sup.mode(), SupervisorMode::Fallback, "sample {k}");
        }
        // …but the full streak is.
        let mut h = clean_hw_sense();
        let mut o = clean_os_sense();
        jitter(&mut h, &mut o, 99);
        sup.step(&h, &o);
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        assert_eq!(sup.stats().fallback_entries, 1, "one episode, no flap");
        assert_eq!(sup.stats().fallback_exits, 1);
    }

    #[test]
    fn sustained_dirt_escalates_to_safe_then_recovers_through_fallback() {
        // Correlated faults keep every sample dirty: after
        // `escalate_after` dirty samples in Fallback the supervisor parks
        // in Safe; a clean streak then re-engages one level at a time.
        let cfg = SupervisorConfig {
            escalate_after: 5,
            ..Default::default()
        };
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let mut bad = clean_hw_sense();
        bad.outputs.p_big = f64::NAN;
        let os = clean_os_sense();
        // Sample 1 demotes to Fallback (dirty_streak 1); escalation at
        // dirty_streak == escalate_after.
        for k in 0..cfg.escalate_after {
            sup.step(&bad, &os);
            if k + 1 < cfg.escalate_after {
                assert_eq!(sup.mode(), SupervisorMode::Fallback, "sample {k}");
            }
        }
        assert_eq!(sup.mode(), SupervisorMode::Safe);
        assert_eq!(sup.stats().safe_entries, 1);
        // Safe still serves legal actuations.
        let (hu, ou) = sup.step(&bad, &os);
        assert!(finite_hw(&hu) && finite_os(&ou));
        assert!((1.0..=4.0).contains(&hu.big_cores));
        // Clean telemetry climbs back: Safe → Fallback → Primary.
        let mut k = 0usize;
        while sup.mode() != SupervisorMode::Primary {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            sup.step(&h, &o);
            k += 1;
            assert!(k <= 3 * cfg.reengage_after as usize, "no re-engagement");
        }
        assert_eq!(sup.stats().fallback_exits, 1);
        assert_eq!(sup.stats().invariant_violations, 0);
    }

    #[test]
    fn validate_rejects_flapping_prone_configs() {
        assert!(SupervisorConfig::default().validate().is_ok());
        let bad = |cfg: SupervisorConfig| matches!(cfg.validate(), Err(Error::NoSolution { op, .. }) if op == "supervisor_config");
        assert!(bad(SupervisorConfig {
            reengage_after: 1,
            ..Default::default()
        }));
        assert!(bad(SupervisorConfig {
            stuck_window: 0,
            ..Default::default()
        }));
        assert!(bad(SupervisorConfig {
            windup_reset_after: 0,
            ..Default::default()
        }));
        assert!(bad(SupervisorConfig {
            escalate_after: 1,
            ..Default::default()
        }));
    }

    #[test]
    fn shed_policy_validation_rejects_degenerate_thresholds() {
        assert!(ShedPolicy::default().validate().is_ok());
        let bad = |p: ShedPolicy| matches!(p.validate(), Err(Error::NoSolution { op, .. }) if op == "shed_policy");
        assert!(bad(ShedPolicy {
            engage_ratio: f64::NAN,
            ..Default::default()
        }));
        assert!(bad(ShedPolicy {
            engage_ratio: -1.0,
            ..Default::default()
        }));
        assert!(bad(ShedPolicy {
            release_ratio: 1.5, // >= engage_ratio: no hysteresis band
            ..Default::default()
        }));
        assert!(bad(ShedPolicy {
            backlog_hi: 1.5,
            ..Default::default()
        }));
        assert!(bad(ShedPolicy {
            shed_step: 0.0,
            ..Default::default()
        }));
        assert!(bad(ShedPolicy {
            shed_max: 1.0,
            ..Default::default()
        }));
        assert!(bad(ShedPolicy {
            overload_after: 1,
            ..Default::default()
        }));
        // A bad shed policy fails the whole supervisor config.
        let cfg = SupervisorConfig {
            shed: ShedPolicy {
                shed_step: f64::INFINITY,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(cfg.validate(), Err(Error::NoSolution { op, .. }) if op == "shed_policy"));
    }

    /// An SLO observation violating the default 1 s p99 bound.
    fn violating_slo() -> SloSense {
        SloSense {
            active: true,
            p95_s: 1.1,
            p99_s: 1.6,
            backlog_frac: 0.4,
            drop_frac: 0.0,
        }
    }

    #[test]
    fn sustained_overload_engages_shedding_with_hysteresis() {
        let cfg = SupervisorConfig::default();
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        // Jitter every sensor channel each sample so the stuck-sensor
        // watchdog stays quiet: this test is about overload, not faults.
        let mut tick = 0usize;
        let mut senses = |slo: SloSense| {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, tick);
            tick += 1;
            h.slo = slo;
            (h, o)
        };
        // Overloaded samples below the streak threshold: no shedding yet.
        for k in 0..cfg.shed.overload_after - 1 {
            let (h, o) = senses(violating_slo());
            sup.step(&h, &o);
            assert_eq!(sup.shed_frac(), 0.0, "sample {k}");
        }
        // The streak completes: shedding engages and ramps.
        let mut shed_prev = 0.0;
        for k in 0..5 {
            let (h, o) = senses(violating_slo());
            sup.step(&h, &o);
            assert!(sup.shed_frac() >= shed_prev, "sample {k} must not decay");
            shed_prev = sup.shed_frac();
        }
        assert!(shed_prev > 0.0);
        assert!(shed_prev <= cfg.shed.shed_max);
        assert_eq!(sup.stats().shed_engagements, 1);
        // In the hysteresis band (between release and engage): hold.
        let mut band = violating_slo();
        band.p99_s = 0.85; // between 0.7 and 1.0
        band.backlog_frac = 0.1;
        let (h, o) = senses(band);
        sup.step(&h, &o);
        assert_eq!(sup.shed_frac(), shed_prev, "hysteresis band holds");
        // Clear recovery: the shed fraction decays back to zero.
        for _ in 0..12 {
            let mut calm = violating_slo();
            calm.p99_s = 0.2;
            calm.backlog_frac = 0.0;
            let (h, o) = senses(calm);
            sup.step(&h, &o);
        }
        assert_eq!(sup.shed_frac(), 0.0);
        assert_eq!(sup.stats().shed_engagements, 1, "one episode");
        assert_eq!(sup.stats().invariant_violations, 0);
        // Overload is not fault evidence: the primary stayed in charge.
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        assert_eq!(sup.stats().fallback_entries, 0);
    }

    #[test]
    fn inactive_slo_keeps_shedding_at_exactly_zero() {
        let mut sup = Supervisor::new(heuristic_primary(), SupervisorConfig::default());
        for k in 0..20 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            // Poisoned latency readings on an *inactive* observation must
            // be ignored (batch runs carry no serving layer).
            h.slo.p99_s = 99.0;
            h.slo.backlog_frac = 1.0;
            sup.step(&h, &o);
            assert_eq!(sup.shed_frac(), 0.0, "sample {k}");
        }
        assert_eq!(sup.stats().shed_engagements, 0);
    }

    #[test]
    fn safe_mode_pins_admission_at_shed_max() {
        let cfg = SupervisorConfig {
            escalate_after: 3,
            ..Default::default()
        };
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let mut bad = clean_hw_sense();
        bad.outputs.p_big = f64::NAN;
        let os = clean_os_sense();
        while sup.mode() != SupervisorMode::Safe {
            sup.step(&bad, &os);
        }
        assert_eq!(sup.shed_frac(), cfg.shed.shed_max);
        assert_eq!(sup.stats().invariant_violations, 0);
    }

    #[test]
    fn shedder_state_survives_save_restore() {
        let cfg = SupervisorConfig::default();
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let os = clean_os_sense();
        for k in 0..cfg.shed.overload_after + 2 {
            let mut h = clean_hw_sense();
            h.slo = violating_slo();
            h.outputs.p_big += 1e-9 * (k as f64 + 1.0);
            sup.step(&h, &os);
        }
        assert!(sup.shed_frac() > 0.0);
        let snap = sup.save_state();
        let mut restored = Supervisor::new(heuristic_primary(), cfg);
        restored.restore_state(&snap).unwrap();
        assert_eq!(restored.shed_frac().to_bits(), sup.shed_frac().to_bits());
        for k in 0..6 {
            let mut h = clean_hw_sense();
            h.slo = violating_slo();
            h.outputs.p_big += 1e-9 * (k as f64 + 50.0);
            let a = sup.step(&h, &os);
            let b = restored.step(&h, &os);
            assert_eq!(a, b, "sample {k}");
            assert_eq!(
                sup.shed_frac().to_bits(),
                restored.shed_frac().to_bits(),
                "sample {k}"
            );
        }
    }

    #[test]
    fn staged_swap_window_is_transparent_and_checked() {
        // A swap request opens the crash-vulnerable window; steps inside it
        // and the eventual commit are bit-transparent vs an unswapped
        // twin, and the protocol records no violations.
        let cfg = SupervisorConfig::default();
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let mut twin = Supervisor::new(heuristic_primary(), cfg);
        for k in 0..4 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            assert_eq!(sup.step(&h, &o), twin.step(&h, &o));
        }
        sup.automaton().request_swap();
        assert!(sup.automaton().swap_pending());
        let mut h = clean_hw_sense();
        let mut o = clean_os_sense();
        jitter(&mut h, &mut o, 4);
        assert_eq!(sup.step(&h, &o), twin.step(&h, &o), "pending window");
        assert!(sup.swap_primary(heuristic_primary()), "commit is bumpless");
        assert!(!sup.automaton().swap_pending());
        for k in 5..15 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            assert_eq!(sup.step(&h, &o), twin.step(&h, &o), "sample {k}");
        }
        let auto = sup.automaton();
        assert_eq!(auto.violations(), 0, "{:?}", auto.first_violation());
    }

    #[test]
    fn save_restore_roundtrips_supervisor_bit_for_bit() {
        let cfg = SupervisorConfig::default();
        // Capture mid-episode: demoted, partway through a clean streak.
        let mut sup = demoted_then_clean(cfg, 2);
        let snap = sup.save_state();
        assert_eq!(snap.automaton.level, SupervisorMode::Fallback);
        assert_eq!(snap.automaton.clean_streak, 2);
        // "Restart the daemon": a fresh supervisor around fresh
        // controllers, restored from the snapshot.
        let mut restored = Supervisor::new(heuristic_primary(), cfg);
        restored.restore_state(&snap).unwrap();
        for k in 0..3 * cfg.reengage_after {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, 10 + k as usize);
            let (ah, ao) = sup.step(&h, &o);
            let (bh, bo) = restored.step(&h, &o);
            assert_eq!(ah, bh, "sample {k}");
            assert_eq!(ao, bo, "sample {k}");
            assert_eq!(sup.mode(), restored.mode(), "sample {k}");
        }
        assert_eq!(sup.stats(), restored.stats());
    }

    #[test]
    fn same_scheme_swap_is_bumpless_and_transparent() {
        // A mid-run swap to a same-scheme replacement must carry the
        // primary state across: the supervised trace stays bit-identical
        // to an unswapped twin.
        let cfg = SupervisorConfig::default();
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        let mut twin = Supervisor::new(heuristic_primary(), cfg);
        for k in 0..5 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            assert_eq!(sup.step(&h, &o), twin.step(&h, &o));
        }
        let bumpless = sup.swap_primary(heuristic_primary());
        assert!(bumpless, "same-scheme swap must be bumpless");
        for k in 5..25 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            assert_eq!(sup.step(&h, &o), twin.step(&h, &o), "sample {k}");
        }
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        assert_eq!(sup.stats(), twin.stats());
    }

    #[test]
    fn mismatched_swap_resets_replacement_and_keeps_serving() {
        // Swapping in controllers of a different scheme cannot be
        // bumpless; the replacement starts from reset but service
        // continues with finite in-range actuations and no mode change.
        let cfg = SupervisorConfig::default();
        let mut sup = Supervisor::new(heuristic_primary(), cfg);
        for k in 0..5 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            sup.step(&h, &o);
        }
        let next = Controllers::Split {
            hw: Box::new(CoordinatedHeuristicHw::new()),
            os: Box::new(CoordinatedHeuristicOs::new()),
        };
        let bumpless = sup.swap_primary(next);
        assert!(!bumpless, "cross-scheme swap cannot transfer state");
        assert_eq!(sup.mode(), SupervisorMode::Primary);
        // The replacement serves from reset, matching a fresh instance.
        let mut bare_hw = CoordinatedHeuristicHw::new();
        let mut bare_os = CoordinatedHeuristicOs::new();
        for k in 5..15 {
            let mut h = clean_hw_sense();
            let mut o = clean_os_sense();
            jitter(&mut h, &mut o, k);
            let (hu, ou) = sup.step(&h, &o);
            assert!(finite_hw(&hu) && finite_os(&ou), "sample {k}");
            assert_eq!(hu, bare_hw.invoke(&h).unwrap(), "sample {k}");
            assert_eq!(ou, bare_os.invoke(&o).unwrap(), "sample {k}");
        }
        assert_eq!(sup.stats().fallback_entries, 0);
        assert_eq!(sup.stats().invariant_violations, 0);
    }
}
