//! The synchronous reconfiguration automaton (DESIGN.md §14).
//!
//! Every discrete reconfiguration decision in the stack — supervisor
//! degradation and re-engagement, controller hot-swap, crash recovery —
//! flows through one [`ModeAutomaton`]: a synchronous state machine in the
//! style of the Fractal reconfiguration controllers (discrete controller
//! synthesis treats reconfiguration logic as an automaton with explicit
//! guards, not scattered `if`s). The automaton owns the *decision*; the
//! supervisor and runtime own the *actions* (controller resets, state
//! transfer, checkpoint restore) and drive the automaton as a choke point.
//!
//! # State space
//!
//! The state is the product `level × swap_pending × recovering`:
//!
//! * `level ∈ {Primary, Fallback, Safe}` — which controller serves
//!   ([`SupervisorMode`]);
//! * `swap_pending` — a hot-swap was requested but not yet committed
//!   (the window a crash can land in);
//! * `recovering` — the engine is replaying a journal suffix after a
//!   crash restore.
//!
//! # Transition table
//!
//! | level    | event                 | guard                        | next     | driver action            |
//! |----------|-----------------------|------------------------------|----------|--------------------------|
//! | Primary  | `Sample{clean}`       | —                            | Primary  | serve primary            |
//! | Primary  | `Sample{!clean}`      | —                            | Fallback | fresh fallback, serve it |
//! | Fallback | `Sample{clean}`       | `clean_streak < N`           | Fallback | serve fallback           |
//! | Fallback | `Sample{clean}`       | `clean_streak ≥ N`           | Primary  | reset + serve primary    |
//! | Fallback | `Sample{!clean}`      | `dirty_streak < M`           | Fallback | serve fallback           |
//! | Fallback | `Sample{!clean}`      | `dirty_streak ≥ M`           | Safe     | serve safe static        |
//! | Safe     | `Sample{clean}`       | `clean_streak < N`           | Safe     | serve safe static        |
//! | Safe     | `Sample{clean}`       | `clean_streak ≥ N`           | Fallback | fresh fallback, serve it |
//! | Safe     | `Sample{!clean}`      | —                            | Safe     | serve safe static        |
//! | Primary  | `PrimaryError`        | —                            | Fallback | fresh fallback, serve it |
//! | F/S      | `PrimaryError`        | —                            | *(violation: primary not serving)* | |
//! | Fallback | `FallbackError`       | —                            | Safe     | serve safe static        |
//! | Safe     | `FallbackError`       | —                            | Safe     | tolerated no-op          |
//! | Primary  | `FallbackError`       | —                            | *(violation: fallback not serving)* | |
//! | any      | `SwapRequest`         | `!swap_pending`              | pending  | prepare replacement      |
//! | any      | `SwapRequest`         | `swap_pending`               | *(violation: re-entrant swap)* | |
//! | any      | `SwapCommit`          | `swap_pending`               | !pending | install replacement      |
//! | any      | `SwapCommit`          | `!swap_pending`              | *(violation: commit w/o request)* | |
//! | any      | `RecoveryBegin`       | `!recovering`                | recovering | replay journal suffix  |
//! | any      | `RecoveryEnd`         | `recovering`                 | !recovering | resume live loop      |
//!
//! `N = `[`REENGAGE_AFTER`] (hysteresis) and `M = `[`ESCALATE_AFTER`]
//! (sustained-fault escalation). At most one level change happens per
//! event; the automaton checks this itself.
//!
//! # Invariant catalog
//!
//! Machine-checked on every step, recorded (count + first occurrence) and
//! surfaced as typed [`InvariantViolation`] values — never a panic and
//! never silent behavior:
//!
//! * **No actuation gap** — every `begin_invocation`/`end_invocation`
//!   bracket must claim every knob (DVFS, hotplug, migration, admission)
//!   exactly once; a missing claim is [`InvariantViolation::ActuationGap`].
//! * **Single writer per knob** — a second claim on the same knob within
//!   one bracket is [`InvariantViolation::DualWriter`]. The TMU is a
//!   *capper*, not a writer: it never claims a knob, and the board audits
//!   separately that its caps only ever tighten a request
//!   (`yukta_board::ActuationAudit`).
//! * **No flapping** — a Fallback→Primary or Safe→Fallback promotion is
//!   re-verified against the hysteresis guard at the moment it fires;
//!   promoting below the threshold is [`InvariantViolation::Flapping`].
//! * **Legal events only** — an event a state has no transition for
//!   ([`InvariantViolation::IllegalEvent`]) leaves the state unchanged
//!   (fail-safe: the automaton keeps serving).
//!
//! The automaton is pure integer/boolean arithmetic: bit-reproducible,
//! checkpointable via [`ModeSnapshot`], and exactly restored across crash
//! recovery.

use crate::supervisor::SupervisorMode;

/// The reconfiguration knobs a serving controller writes each invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Per-cluster frequency requests.
    Dvfs,
    /// Per-cluster core-count requests.
    Hotplug,
    /// Thread placement.
    Migration,
    /// Request admission control (load-shedding fraction). Shedding is a
    /// reconfiguration action like any other: it must have exactly one
    /// writer per invocation — the supervisor's overload governor — so
    /// ad-hoc drop paths cannot race it.
    Admission,
}

impl Knob {
    /// All knobs, in claim order.
    pub const ALL: [Knob; 4] = [Knob::Dvfs, Knob::Hotplug, Knob::Migration, Knob::Admission];

    /// Short label for telemetry and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Knob::Dvfs => "dvfs",
            Knob::Hotplug => "hotplug",
            Knob::Migration => "migration",
            Knob::Admission => "admission",
        }
    }

    fn index(&self) -> usize {
        match self {
            Knob::Dvfs => 0,
            Knob::Hotplug => 1,
            Knob::Migration => 2,
            Knob::Admission => 3,
        }
    }
}

/// Telemetry label for a serving level.
pub fn level_label(level: SupervisorMode) -> &'static str {
    match level {
        SupervisorMode::Primary => "primary",
        SupervisorMode::Fallback => "fallback",
        SupervisorMode::Safe => "safe",
    }
}

/// Inputs of the synchronous automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeEvent {
    /// One sanitized sensor sample; `clean` = no fault evidence.
    Sample {
        /// Whether the sample carried no fault evidence.
        clean: bool,
    },
    /// The primary controller returned a typed error or non-finite output.
    PrimaryError,
    /// The fallback heuristic returned a typed error or non-finite output.
    FallbackError,
    /// A hot-swap of the primary controllers was requested.
    SwapRequest,
    /// The requested hot-swap is being installed.
    SwapCommit,
    /// Crash recovery started (checkpoint restored, replay begins).
    RecoveryBegin,
    /// Crash recovery finished (journal suffix replayed).
    RecoveryEnd,
}

impl ModeEvent {
    /// Short label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            ModeEvent::Sample { clean: true } => "sample_clean",
            ModeEvent::Sample { clean: false } => "sample_dirty",
            ModeEvent::PrimaryError => "primary_error",
            ModeEvent::FallbackError => "fallback_error",
            ModeEvent::SwapRequest => "swap_request",
            ModeEvent::SwapCommit => "swap_commit",
            ModeEvent::RecoveryBegin => "recovery_begin",
            ModeEvent::RecoveryEnd => "recovery_end",
        }
    }
}

/// A machine-checked invariant that failed. Typed, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// An invocation bracket closed without every knob claimed: some knob
    /// had no writer this step.
    ActuationGap {
        /// Automaton step counter at the gap.
        step: u64,
        /// The unclaimed knob.
        knob: Knob,
    },
    /// Two writers claimed the same knob within one invocation.
    DualWriter {
        /// The contested knob.
        knob: Knob,
        /// Owner that claimed first.
        first: &'static str,
        /// Owner that claimed second.
        second: &'static str,
    },
    /// A promotion fired below the hysteresis threshold.
    Flapping {
        /// Clean streak at the (illegal) promotion.
        streak: u32,
        /// Required streak ([`REENGAGE_AFTER`]).
        required: u32,
    },
    /// An event the current state has no transition for.
    IllegalEvent {
        /// Serving level when the event arrived.
        level: SupervisorMode,
        /// The offending event.
        event: ModeEvent,
    },
    /// `begin_invocation` while the previous bracket was still open.
    UnterminatedInvocation {
        /// Step of the bracket left open.
        step: u64,
    },
    /// A claim or bracket end outside an open invocation bracket.
    OutOfBracket {
        /// Automaton step counter at the stray call.
        step: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::ActuationGap { step, knob } => {
                write!(
                    f,
                    "actuation gap at step {step}: no writer for {}",
                    knob.label()
                )
            }
            InvariantViolation::DualWriter {
                knob,
                first,
                second,
            } => {
                write!(f, "dual writer on {}: {first} then {second}", knob.label())
            }
            InvariantViolation::Flapping { streak, required } => {
                write!(
                    f,
                    "flapping: promoted at clean streak {streak} < {required}"
                )
            }
            InvariantViolation::IllegalEvent { level, event } => {
                write!(
                    f,
                    "illegal event {} in level {}",
                    event.label(),
                    level_label(*level)
                )
            }
            InvariantViolation::UnterminatedInvocation { step } => {
                write!(f, "invocation bracket at step {step} never ended")
            }
            InvariantViolation::OutOfBracket { step } => {
                write!(f, "claim/end outside an invocation bracket at step {step}")
            }
        }
    }
}

/// Why a level change fired (telemetry label).
pub type TransitionCause = &'static str;

/// A level change decided by the automaton; the driver applies the
/// matching action (controller reset, fresh fallbacks, counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelChange {
    /// Level before the event.
    pub from: SupervisorMode,
    /// Level after the event.
    pub to: SupervisorMode,
    /// Why (one of the causes in the transition table).
    pub cause: TransitionCause,
}

/// The outcome of feeding one event: which level serves this invocation
/// and the level change (if any) the driver must act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The level that serves after this event.
    pub serve: SupervisorMode,
    /// At most one level change per event.
    pub change: Option<LevelChange>,
}

/// One recorded transition, drained by the runtime into `mode.transition`
/// telemetry events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Automaton step counter when the transition fired (0 before the
    /// first invocation bracket).
    pub step: u64,
    /// Level before.
    pub from: SupervisorMode,
    /// Level after (equal to `from` for swap/recovery phase changes).
    pub to: SupervisorMode,
    /// Cause label (`fault_evidence`, `hysteresis_reengage`,
    /// `controller_error`, `fallback_error`, `escalation`, `swap_request`,
    /// `swap_commit`, `recovery_begin`, `recovery_end`).
    pub cause: TransitionCause,
}

/// The full typed state triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeState {
    /// Serving level.
    pub level: SupervisorMode,
    /// A hot-swap is requested but not yet committed.
    pub swap_pending: bool,
    /// A crash recovery replay is in progress.
    pub recovering: bool,
}

/// Hysteresis guard `N`: consecutive clean samples before a demoted
/// level is promoted one step (3 s of clean telemetry at 500 ms).
pub const REENGAGE_AFTER: u32 = 6;

/// Sustained-fault guard `M`: consecutive dirty samples in Fallback before
/// escalating to Safe (12 s of continuous fault evidence).
pub const ESCALATE_AFTER: u32 = 24;

// A guard of 1 re-engages on a single clean sample or escalates on the
// first dirty one: the mode would flap.
const _: () = assert!(REENGAGE_AFTER >= 2 && ESCALATE_AFTER >= 2);

/// Holds nothing: the automaton's guards are [`REENGAGE_AFTER`] and
/// [`ESCALATE_AFTER`]. The type stays because the `benchmark` package
/// passes `ModeConfig::default()` to [`ModeAutomaton::new`]; it has braces
/// so that call is not a default-constructed unit struct to clippy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModeConfig {}

/// Resumable snapshot of a [`ModeAutomaton`]. Taken between invocation
/// brackets (checkpoints), restored bit-exactly on crash recovery. The
/// transition log and the first-violation diagnostic are telemetry, not
/// state, and are not part of the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeSnapshot {
    /// Serving level.
    pub level: SupervisorMode,
    /// Consecutive clean samples toward re-engagement.
    pub clean_streak: u32,
    /// Consecutive dirty samples toward escalation.
    pub dirty_streak: u32,
    /// A swap was requested but not committed.
    pub swap_pending: bool,
    /// A recovery replay was in progress.
    pub recovering: bool,
    /// Invocation brackets opened so far.
    pub step: u64,
    /// Invariant violations recorded so far.
    pub violations: u64,
}

/// Cap on the undrained transition log; the runtime drains it every
/// invocation, so this only bounds pathological drivers.
const TRANSITION_LOG_CAP: usize = 1024;

/// The synchronous mode automaton. See the module docs for the state
/// space, transition table, and invariant catalog.
#[derive(Debug, Clone)]
pub struct ModeAutomaton {
    level: SupervisorMode,
    clean_streak: u32,
    dirty_streak: u32,
    swap_pending: bool,
    recovering: bool,
    step: u64,
    in_bracket: bool,
    claims: [Option<&'static str>; 4],
    violations: u64,
    first_violation: Option<InvariantViolation>,
    transitions: Vec<TransitionRecord>,
}

impl ModeAutomaton {
    /// A fresh automaton in `Primary`, no swap pending, not recovering.
    pub fn new(_cfg: ModeConfig) -> Self {
        ModeAutomaton {
            level: SupervisorMode::Primary,
            clean_streak: 0,
            dirty_streak: 0,
            swap_pending: false,
            recovering: false,
            step: 0,
            in_bracket: false,
            claims: [None; 4],
            violations: 0,
            first_violation: None,
            transitions: Vec::new(),
        }
    }

    /// The serving level.
    pub fn level(&self) -> SupervisorMode {
        self.level
    }

    /// The full typed state triple.
    pub fn state(&self) -> ModeState {
        ModeState {
            level: self.level,
            swap_pending: self.swap_pending,
            recovering: self.recovering,
        }
    }

    /// Consecutive clean samples toward re-engagement.
    pub fn clean_streak(&self) -> u32 {
        self.clean_streak
    }

    /// Consecutive dirty samples toward escalation.
    pub fn dirty_streak(&self) -> u32 {
        self.dirty_streak
    }

    /// Whether a swap is requested but not yet committed.
    pub fn swap_pending(&self) -> bool {
        self.swap_pending
    }

    /// Whether a recovery replay is in progress.
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    /// Invariant violations recorded so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first violation recorded (diagnostic).
    pub fn first_violation(&self) -> Option<InvariantViolation> {
        self.first_violation
    }

    /// Drains the transition log (telemetry; behavior-neutral).
    pub fn drain_transitions(&mut self) -> Vec<TransitionRecord> {
        std::mem::take(&mut self.transitions)
    }

    fn record_violation(&mut self, v: InvariantViolation) {
        self.violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(v);
        }
    }

    /// Records `v` and returns it as the rejected event's outcome.
    fn reject(&mut self, v: InvariantViolation) -> Result<Decision, InvariantViolation> {
        self.record_violation(v);
        Err(v)
    }

    fn record_transition(
        &mut self,
        from: SupervisorMode,
        to: SupervisorMode,
        cause: TransitionCause,
    ) {
        if self.transitions.len() < TRANSITION_LOG_CAP {
            self.transitions.push(TransitionRecord {
                step: self.step,
                from,
                to,
                cause,
            });
        }
    }

    /// Opens one invocation bracket: claims reset, step counter advances.
    pub fn begin_invocation(&mut self) {
        if self.in_bracket {
            self.record_violation(InvariantViolation::UnterminatedInvocation { step: self.step });
        }
        self.step += 1;
        self.claims = [None; 4];
        self.in_bracket = true;
    }

    /// Claims one knob for `owner` within the open bracket. A second
    /// claim on the same knob is a [`InvariantViolation::DualWriter`].
    pub fn claim(&mut self, knob: Knob, owner: &'static str) {
        if !self.in_bracket {
            self.record_violation(InvariantViolation::OutOfBracket { step: self.step });
            return;
        }
        let slot = &mut self.claims[knob.index()];
        match *slot {
            Some(first) => {
                self.record_violation(InvariantViolation::DualWriter {
                    knob,
                    first,
                    second: owner,
                });
            }
            None => *slot = Some(owner),
        }
    }

    /// Closes the bracket, checking every knob was claimed exactly once
    /// (no actuation gap).
    pub fn end_invocation(&mut self) {
        if !self.in_bracket {
            self.record_violation(InvariantViolation::OutOfBracket { step: self.step });
            return;
        }
        for knob in Knob::ALL {
            if self.claims[knob.index()].is_none() {
                self.record_violation(InvariantViolation::ActuationGap {
                    step: self.step,
                    knob,
                });
            }
        }
        self.in_bracket = false;
    }

    /// Closes the bracket without the actuation-gap check — for the typed
    /// error path of a raw engine, where the run terminates with the error
    /// instead of actuating.
    pub fn abort_invocation(&mut self) {
        self.claims = [None; 4];
        self.in_bracket = false;
    }

    /// Moves the level and records the transition; returns the change for
    /// the driver to act on.
    fn fire(&mut self, to: SupervisorMode, cause: TransitionCause) -> LevelChange {
        let from = self.level;
        self.level = to;
        self.record_transition(from, to, cause);
        LevelChange { from, to, cause }
    }

    /// Feeds one event through the checked transition table. Violations
    /// are recorded *and* returned; the state is left fail-safe (serving
    /// continues at the current level).
    pub fn apply(&mut self, event: ModeEvent) -> Result<Decision, InvariantViolation> {
        use SupervisorMode::{Fallback, Primary, Safe};
        let mut change: Option<LevelChange> = None;
        match event {
            ModeEvent::Sample { clean } => {
                if clean {
                    self.clean_streak += 1;
                    self.dirty_streak = 0;
                } else {
                    self.clean_streak = 0;
                    self.dirty_streak += 1;
                }
                // Hysteresis re-engagement, guard re-verified at the
                // promotion itself (the no-flapping invariant).
                if self.level != Primary && self.clean_streak >= REENGAGE_AFTER {
                    // The no-flapping invariant: the hysteresis guard is
                    // re-verified at the moment the promotion fires.
                    if self.clean_streak < REENGAGE_AFTER {
                        return self.reject(InvariantViolation::Flapping {
                            streak: self.clean_streak,
                            required: REENGAGE_AFTER,
                        });
                    }
                    let to = match self.level {
                        Safe => Fallback,
                        _ => Primary,
                    };
                    change = Some(self.fire(to, "hysteresis_reengage"));
                    self.clean_streak = 0;
                } else if self.level == Primary && !clean {
                    // Fault evidence demotes for this sample and until the
                    // clean streak rebuilds.
                    change = Some(self.fire(Fallback, "fault_evidence"));
                } else if self.level == Fallback && !clean && self.dirty_streak >= ESCALATE_AFTER {
                    // Sustained fault evidence: stop burning the fallback
                    // heuristic on a hostile sensor view, park in Safe.
                    // Unreachable in the same event as a Primary demotion
                    // (the `else` chain enforces one change per event).
                    change = Some(self.fire(Safe, "escalation"));
                    self.dirty_streak = 0;
                }
            }
            ModeEvent::PrimaryError => match self.level {
                Primary => {
                    change = Some(self.fire(Fallback, "controller_error"));
                    self.clean_streak = 0;
                }
                level => return self.reject(InvariantViolation::IllegalEvent { level, event }),
            },
            ModeEvent::FallbackError => match self.level {
                Fallback => change = Some(self.fire(Safe, "fallback_error")),
                Safe => {} // already parked; tolerated no-op
                level @ Primary => {
                    return self.reject(InvariantViolation::IllegalEvent { level, event });
                }
            },
            // The swap and recovery protocol: each event sets or clears
            // its phase flag, and a repeat is illegal.
            ModeEvent::SwapRequest
            | ModeEvent::SwapCommit
            | ModeEvent::RecoveryBegin
            | ModeEvent::RecoveryEnd => {
                let (phase, enter) = match event {
                    ModeEvent::SwapRequest => (&mut self.swap_pending, true),
                    ModeEvent::SwapCommit => (&mut self.swap_pending, false),
                    ModeEvent::RecoveryBegin => (&mut self.recovering, true),
                    _ => (&mut self.recovering, false),
                };
                if *phase == enter {
                    let level = self.level;
                    return self.reject(InvariantViolation::IllegalEvent { level, event });
                }
                *phase = enter;
                self.record_transition(self.level, self.level, event.label());
            }
        }
        Ok(Decision {
            serve: self.level,
            change,
        })
    }

    /// [`ModeAutomaton::apply`] with the fail-safe default: on a recorded
    /// violation the decision is "keep serving at the current level".
    fn apply_lenient(&mut self, event: ModeEvent) -> Decision {
        self.apply(event).unwrap_or(Decision {
            serve: self.level,
            change: None,
        })
    }

    /// One sanitized sensor sample.
    pub fn on_sample(&mut self, clean: bool) -> Decision {
        self.apply_lenient(ModeEvent::Sample { clean })
    }

    /// The primary controller failed (typed error / non-finite output).
    pub fn on_primary_error(&mut self) -> Decision {
        self.apply_lenient(ModeEvent::PrimaryError)
    }

    /// The fallback heuristic failed.
    pub fn on_fallback_error(&mut self) -> Decision {
        self.apply_lenient(ModeEvent::FallbackError)
    }

    /// Requests a hot-swap (enters the swap-pending window).
    pub fn request_swap(&mut self) {
        self.apply_lenient(ModeEvent::SwapRequest);
    }

    /// Commits the pending hot-swap.
    pub fn commit_swap(&mut self) {
        self.apply_lenient(ModeEvent::SwapCommit);
    }

    /// Marks the start of a crash-recovery replay.
    pub fn begin_recovery(&mut self) {
        self.apply_lenient(ModeEvent::RecoveryBegin);
    }

    /// Marks the end of a crash-recovery replay.
    pub fn end_recovery(&mut self) {
        self.apply_lenient(ModeEvent::RecoveryEnd);
    }

    /// Snapshot for a checkpoint (between invocation brackets).
    pub fn snapshot(&self) -> ModeSnapshot {
        ModeSnapshot {
            level: self.level,
            clean_streak: self.clean_streak,
            dirty_streak: self.dirty_streak,
            swap_pending: self.swap_pending,
            recovering: self.recovering,
            step: self.step,
            violations: self.violations,
        }
    }

    /// Restores a [`ModeSnapshot`] bit-exactly. The transition log and the
    /// first-violation diagnostic are cleared (telemetry, not state).
    pub fn restore(&mut self, snap: &ModeSnapshot) {
        self.level = snap.level;
        self.clean_streak = snap.clean_streak;
        self.dirty_streak = snap.dirty_streak;
        self.swap_pending = snap.swap_pending;
        self.recovering = snap.recovering;
        self.step = snap.step;
        self.violations = snap.violations;
        self.first_violation = None;
        self.in_bracket = false;
        self.claims = [None; 4];
        self.transitions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SupervisorMode::{Fallback, Primary, Safe};

    /// Brackets one invocation with all knobs claimed by the serving level.
    fn full_bracket(a: &mut ModeAutomaton) {
        a.begin_invocation();
        let owner = level_label(a.level());
        for k in Knob::ALL {
            a.claim(k, owner);
        }
        a.end_invocation();
    }

    #[test]
    fn totality_every_state_event_pair_is_handled_without_panic() {
        // Walk the automaton into each level and feed it every event; the
        // outcome is always a Decision or a typed violation, never a panic
        // and never more than one level change.
        let events = [
            ModeEvent::Sample { clean: true },
            ModeEvent::Sample { clean: false },
            ModeEvent::PrimaryError,
            ModeEvent::FallbackError,
            ModeEvent::SwapRequest,
            ModeEvent::SwapCommit,
            ModeEvent::RecoveryBegin,
            ModeEvent::RecoveryEnd,
        ];
        for level in [Primary, Fallback, Safe] {
            for ev in events {
                let mut a = ModeAutomaton::new(ModeConfig::default());
                // Drive to the target level through legal transitions.
                match level {
                    Primary => {}
                    Fallback => {
                        a.on_sample(false);
                    }
                    Safe => {
                        a.on_sample(false);
                        a.on_fallback_error();
                    }
                }
                assert_eq!(a.level(), level);
                match a.apply(ev) {
                    Ok(d) => {
                        assert_eq!(d.serve, a.level());
                        if let Some(ch) = d.change {
                            assert_eq!(ch.to, a.level());
                            assert_ne!(ch.from, ch.to, "level change must move");
                        }
                    }
                    Err(v) => {
                        assert_eq!(a.level(), level, "violation must not move the level");
                        assert_eq!(a.first_violation(), Some(v));
                        assert!(a.violations() >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn hysteresis_guard_matches_the_pre_refactor_state_machine() {
        // Replica of the pre-refactor supervisor's mode/streak logic, fed
        // the same clean/dirty sequence: serving decisions must agree
        // step for step (the zero-severity bit-identity anchor).
        let mut auto = ModeAutomaton::new(ModeConfig::default());
        let mut mode = Primary;
        let mut clean_streak = 0u32;
        // A fixed pseudo-random clean/dirty pattern covering demotion,
        // partial streaks, and re-engagement.
        let mut x = 0x9E37_79B9u32;
        for k in 0..200 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let clean = !x.is_multiple_of(5);
            // Pre-refactor ordering: streak update, promote, demote.
            if clean {
                clean_streak += 1;
            } else {
                clean_streak = 0;
            }
            if mode != Primary && clean_streak >= REENGAGE_AFTER {
                mode = match mode {
                    Safe => Fallback,
                    _ => Primary,
                };
                clean_streak = 0;
            }
            if mode == Primary && !clean {
                mode = Fallback;
                clean_streak = 0;
            }
            let d = auto.on_sample(clean);
            // The replica never escalates (old code had no escalation);
            // skip comparison once the automaton parks in Safe.
            if auto.level() == Safe {
                break;
            }
            assert_eq!(d.serve, mode, "sample {k}");
            assert_eq!(auto.clean_streak(), clean_streak, "sample {k}");
        }
        assert_eq!(auto.violations(), 0);
    }

    #[test]
    fn escalation_fires_after_sustained_dirt_and_recovers_through_fallback() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        a.on_sample(false);
        assert_eq!(a.level(), Fallback);
        // dirty_streak is already 1; escalation at >= ESCALATE_AFTER.
        for _ in 0..ESCALATE_AFTER - 2 {
            a.on_sample(false);
            assert_eq!(a.level(), Fallback);
        }
        let d = a.on_sample(false);
        assert_eq!(a.level(), Safe);
        assert_eq!(d.change.map(|ch| ch.cause), Some("escalation"));
        // Clean streak promotes Safe → Fallback → Primary, one level per
        // full streak.
        for _ in 0..REENGAGE_AFTER {
            a.on_sample(true);
        }
        assert_eq!(a.level(), Fallback);
        for _ in 0..REENGAGE_AFTER {
            a.on_sample(true);
        }
        assert_eq!(a.level(), Primary);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn dual_writer_and_actuation_gap_are_caught() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        a.begin_invocation();
        a.claim(Knob::Dvfs, "primary");
        a.claim(Knob::Dvfs, "fallback"); // second writer on the same knob
        a.claim(Knob::Hotplug, "primary");
        a.claim(Knob::Admission, "admission");
        // Migration never claimed.
        a.end_invocation();
        assert_eq!(a.violations(), 2);
        assert_eq!(
            a.first_violation(),
            Some(InvariantViolation::DualWriter {
                knob: Knob::Dvfs,
                first: "primary",
                second: "fallback",
            })
        );
    }

    #[test]
    fn unclaimed_admission_knob_is_an_actuation_gap() {
        // Shedding is part of the no-actuation-gap contract: a bracket
        // that writes everything except the admission knob leaves the
        // door policy undefined for that invocation.
        let mut a = ModeAutomaton::new(ModeConfig::default());
        a.begin_invocation();
        for k in [Knob::Dvfs, Knob::Hotplug, Knob::Migration] {
            a.claim(k, "primary");
        }
        a.end_invocation();
        assert_eq!(a.violations(), 1);
        assert_eq!(
            a.first_violation(),
            Some(InvariantViolation::ActuationGap {
                step: 1,
                knob: Knob::Admission,
            })
        );
    }

    #[test]
    fn complete_bracket_records_no_violation() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        for _ in 0..10 {
            full_bracket(&mut a);
        }
        assert_eq!(a.violations(), 0);
        assert_eq!(a.snapshot().step, 10);
    }

    #[test]
    fn swap_protocol_guards_reentry_and_commit_without_request() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        assert!(
            a.apply(ModeEvent::SwapCommit).is_err(),
            "commit w/o request"
        );
        assert!(a.apply(ModeEvent::SwapRequest).is_ok());
        assert!(a.swap_pending());
        assert!(a.apply(ModeEvent::SwapRequest).is_err(), "re-entrant swap");
        assert!(a.apply(ModeEvent::SwapCommit).is_ok());
        assert!(!a.swap_pending());
        assert_eq!(a.violations(), 2);
    }

    #[test]
    fn recovery_protocol_guards_double_begin_and_stray_end() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        assert!(a.apply(ModeEvent::RecoveryEnd).is_err());
        assert!(a.apply(ModeEvent::RecoveryBegin).is_ok());
        assert!(a.recovering());
        assert!(a.apply(ModeEvent::RecoveryBegin).is_err());
        assert!(a.apply(ModeEvent::RecoveryEnd).is_ok());
        assert!(!a.recovering());
    }

    #[test]
    fn snapshot_roundtrips_mid_episode_bit_for_bit() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        a.on_sample(false); // demote
        a.on_sample(true);
        a.on_sample(true); // partial clean streak
        a.request_swap(); // pending swap survives the snapshot
        full_bracket(&mut a);
        let snap = a.snapshot();
        let mut b = ModeAutomaton::new(ModeConfig::default());
        b.restore(&snap);
        assert_eq!(b.snapshot(), snap);
        // Both continue identically.
        for k in 0..20 {
            let clean = k % 3 != 0;
            assert_eq!(a.on_sample(clean), b.on_sample(clean), "sample {k}");
            assert_eq!(a.state(), b.state(), "sample {k}");
        }
    }

    #[test]
    fn transition_log_drains_and_labels_causes() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        a.on_sample(false);
        a.request_swap();
        a.commit_swap();
        let t = a.drain_transitions();
        assert_eq!(
            t.iter().map(|r| r.cause).collect::<Vec<_>>(),
            vec!["fault_evidence", "swap_request", "swap_commit"]
        );
        assert!(a.drain_transitions().is_empty(), "drained");
    }

    #[test]
    fn primary_error_outside_primary_is_a_typed_violation() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        a.on_sample(false);
        assert_eq!(a.level(), Fallback);
        let err = a.apply(ModeEvent::PrimaryError);
        assert_eq!(
            err,
            Err(InvariantViolation::IllegalEvent {
                level: Fallback,
                event: ModeEvent::PrimaryError,
            })
        );
        assert_eq!(a.level(), Fallback, "fail-safe: keeps serving");
    }
}
