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
//! One method per event; each states its own rows.
//!
//! | level    | method                | guard                        | next     | driver action            |
//! |----------|-----------------------|------------------------------|----------|--------------------------|
//! | Primary  | `on_sample(true)`     | —                            | Primary  | serve primary            |
//! | Primary  | `on_sample(false)`    | —                            | Fallback | fresh fallback, serve it |
//! | Fallback | `on_sample(true)`     | `clean_streak < N`           | Fallback | serve fallback           |
//! | Fallback | `on_sample(true)`     | `clean_streak ≥ N`           | Primary  | reset + serve primary    |
//! | Fallback | `on_sample(false)`    | `dirty_streak < M`           | Fallback | serve fallback           |
//! | Fallback | `on_sample(false)`    | `dirty_streak ≥ M`           | Safe     | serve safe static        |
//! | Safe     | `on_sample(true)`     | `clean_streak < N`           | Safe     | serve safe static        |
//! | Safe     | `on_sample(true)`     | `clean_streak ≥ N`           | Fallback | fresh fallback, serve it |
//! | Safe     | `on_sample(false)`    | —                            | Safe     | serve safe static        |
//! | Primary  | `on_primary_error`    | —                            | Fallback | fresh fallback, serve it |
//! | F/S      | `on_primary_error`    | —                            | *(violation: primary not serving)* | |
//! | Fallback | `on_fallback_error`   | —                            | Safe     | serve safe static        |
//! | Safe     | `on_fallback_error`   | —                            | Safe     | tolerated no-op          |
//! | Primary  | `on_fallback_error`   | —                            | *(violation: fallback not serving)* | |
//! | any      | `request_swap`        | `!swap_pending`              | pending  | prepare replacement      |
//! | any      | `request_swap`        | `swap_pending`               | *(violation: re-entrant swap)* | |
//! | any      | `commit_swap`         | `swap_pending`               | !pending | install replacement      |
//! | any      | `commit_swap`         | `!swap_pending`              | *(violation: commit w/o request)* | |
//! | any      | `begin_recovery`      | `!recovering`                | recovering | replay journal suffix  |
//! | any      | `begin_recovery`      | `recovering`                 | *(violation: recovery re-entered)* | |
//! | any      | `end_recovery`        | `recovering`                 | !recovering | resume live loop      |
//! | any      | `end_recovery`        | `!recovering`                | *(violation: recovery-end while live)* | |
//!
//! `N = `[`REENGAGE_AFTER`] (hysteresis) and `M = `[`ESCALATE_AFTER`]
//! (sustained-fault escalation). Every level change restarts the clean
//! streak, so a promotion always follows `N` clean samples at the level it
//! leaves. At most one level change happens per event: `on_sample` is one
//! `if`/`else` chain and every other method has one edge per level.
//!
//! # Invariant catalog
//!
//! Recorded (count + first occurrence) and surfaced as typed
//! [`InvariantViolation`] values — never a panic and never silent
//! behavior:
//!
//! * **No actuation gap** — every `begin_invocation`/`end_invocation`
//!   bracket must claim every knob (DVFS, hotplug, migration, admission)
//!   exactly once; a missing claim is [`InvariantViolation::ActuationGap`].
//! * **Single writer per knob** — a second claim on the same knob within
//!   one bracket is [`InvariantViolation::DualWriter`]. The TMU is a
//!   *capper*, not a writer: it never claims a knob, and the board audits
//!   separately that its caps only ever tighten a request
//!   (`yukta_board::ActuationAudit`).
//! * **Legal events only** — an event a state has no transition for
//!   ([`InvariantViolation::IllegalEvent`]) leaves the state unchanged
//!   (fail-safe: the automaton keeps serving).
//!
//! The hysteresis guard is not re-checked at run time; the property test
//! `hysteresis_holds_under_random_events` drives twenty thousand random
//! events through the methods and checks every promotion against it.
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
    /// An event the current state has no transition for.
    IllegalEvent {
        /// Serving level when the event arrived.
        level: SupervisorMode,
        /// The offending event's transition-log label (`primary_error`,
        /// `fallback_error`, `swap_request`, `swap_commit`,
        /// `recovery_begin`, `recovery_end`).
        event: &'static str,
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

/// One transition, returned to the driver when it changes the level (the
/// driver applies the matching action: controller reset, fresh fallbacks,
/// counters) and drained by the runtime into `mode.transition` telemetry
/// events.
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
    pub cause: &'static str,
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

    /// Records an event the current level has no transition for; the
    /// state is left as it was.
    fn illegal(&mut self, event: &'static str) {
        self.record_violation(InvariantViolation::IllegalEvent {
            level: self.level,
            event,
        });
    }

    fn record_transition(&mut self, to: SupervisorMode, cause: &'static str) -> TransitionRecord {
        let record = TransitionRecord {
            step: self.step,
            from: self.level,
            to,
            cause,
        };
        if self.transitions.len() < TRANSITION_LOG_CAP {
            self.transitions.push(record);
        }
        record
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

    /// Moves the level, restarting the clean streak toward the next
    /// promotion, and records the transition; returns it for the driver
    /// to act on.
    fn fire(&mut self, to: SupervisorMode, cause: &'static str) -> TransitionRecord {
        let record = self.record_transition(to, cause);
        self.level = to;
        self.clean_streak = 0;
        record
    }

    /// One sanitized sensor sample; `clean` = no fault evidence. Returns
    /// the level change it fired, if any: hysteresis re-engagement,
    /// fault-evidence demotion, or sustained-fault escalation.
    pub fn on_sample(&mut self, clean: bool) -> Option<TransitionRecord> {
        use SupervisorMode::{Fallback, Primary, Safe};
        if clean {
            self.clean_streak += 1;
            self.dirty_streak = 0;
        } else {
            self.clean_streak = 0;
            self.dirty_streak += 1;
        }
        if self.level != Primary && self.clean_streak >= REENGAGE_AFTER {
            let to = match self.level {
                Safe => Fallback,
                _ => Primary,
            };
            Some(self.fire(to, "hysteresis_reengage"))
        } else if self.level == Primary && !clean {
            // Fault evidence demotes for this sample and until the clean
            // streak rebuilds.
            Some(self.fire(Fallback, "fault_evidence"))
        } else if self.level == Fallback && self.dirty_streak >= ESCALATE_AFTER {
            // Sustained fault evidence: stop burning the fallback heuristic
            // on a hostile sensor view, park in Safe.
            self.dirty_streak = 0;
            Some(self.fire(Safe, "escalation"))
        } else {
            None
        }
    }

    /// The primary controller failed (typed error / non-finite output).
    /// Illegal unless the primary is serving.
    pub fn on_primary_error(&mut self) -> Option<TransitionRecord> {
        if self.level != SupervisorMode::Primary {
            self.illegal("primary_error");
            return None;
        }
        Some(self.fire(SupervisorMode::Fallback, "controller_error"))
    }

    /// The fallback heuristic failed: Fallback parks in Safe, Safe stays.
    /// Illegal in Primary.
    pub fn on_fallback_error(&mut self) -> Option<TransitionRecord> {
        match self.level {
            SupervisorMode::Fallback => Some(self.fire(SupervisorMode::Safe, "fallback_error")),
            SupervisorMode::Safe => None,
            SupervisorMode::Primary => {
                self.illegal("fallback_error");
                None
            }
        }
    }

    /// Enters (`enter`) or leaves a swap/recovery phase whose flag reads
    /// `current`, and returns the flag's new value. A repeat is illegal
    /// and leaves the flag as it was.
    fn phase(&mut self, current: bool, enter: bool, event: &'static str) -> bool {
        if current == enter {
            self.illegal(event);
        } else {
            self.record_transition(self.level, event);
        }
        enter
    }

    /// Requests a hot-swap (enters the swap-pending window).
    pub fn request_swap(&mut self) {
        self.swap_pending = self.phase(self.swap_pending, true, "swap_request");
    }

    /// Commits the pending hot-swap.
    pub fn commit_swap(&mut self) {
        self.swap_pending = self.phase(self.swap_pending, false, "swap_commit");
    }

    /// Marks the start of a crash-recovery replay.
    pub fn begin_recovery(&mut self) {
        self.recovering = self.phase(self.recovering, true, "recovery_begin");
    }

    /// Marks the end of a crash-recovery replay.
    pub fn end_recovery(&mut self) {
        self.recovering = self.phase(self.recovering, false, "recovery_end");
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

    /// Every event, as the method that feeds it.
    type Event = fn(&mut ModeAutomaton) -> Option<TransitionRecord>;
    const EVENTS: [Event; 8] = [
        |a| a.on_sample(true),
        |a| a.on_sample(false),
        |a| a.on_primary_error(),
        |a| a.on_fallback_error(),
        |a| {
            a.request_swap();
            None
        },
        |a| {
            a.commit_swap();
            None
        },
        |a| {
            a.begin_recovery();
            None
        },
        |a| {
            a.end_recovery();
            None
        },
    ];

    #[test]
    fn totality_every_state_event_pair_is_handled_without_panic() {
        // Walk the automaton into each level and feed it every event; the
        // outcome is a level change, no change, or a typed violation that
        // leaves the level alone — never a panic.
        for level in [Primary, Fallback, Safe] {
            for (e, event) in EVENTS.iter().enumerate() {
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
                assert_eq!(a.violations(), 0);
                let change = event(&mut a);
                if a.violations() > 0 {
                    assert_eq!(a.violations(), 1, "{level:?} event {e}");
                    assert!(a.first_violation().is_some());
                    assert_eq!(a.level(), level, "violation must not move the level");
                    assert_eq!(change, None, "{level:?} event {e}");
                } else if let Some(ch) = change {
                    assert_eq!((ch.from, ch.to), (level, a.level()), "{level:?} event {e}");
                    assert_ne!(ch.from, ch.to, "level change must move");
                } else {
                    assert_eq!(a.level(), level, "{level:?} event {e}");
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
            auto.on_sample(clean);
            // The replica never escalates (old code had no escalation);
            // skip comparison once the automaton parks in Safe.
            if auto.level() == Safe {
                break;
            }
            assert_eq!(auto.level(), mode, "sample {k}");
            assert_eq!(auto.snapshot().clean_streak, clean_streak, "sample {k}");
        }
        assert_eq!(auto.violations(), 0);
    }

    #[test]
    fn hysteresis_holds_under_random_events() {
        // A seeded random mix of clean and dirty samples, plus fallback
        // errors wherever the fallback or safe level serves. Every
        // re-engagement must follow REENGAGE_AFTER consecutive clean
        // samples at the level it leaves, and no event may log more than
        // one transition.
        let mut a = ModeAutomaton::new(ModeConfig::default());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut clean_since_change = 0u32;
        let mut promotions = [0u32; 2]; // Fallback→Primary, Safe→Fallback
        for k in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let before = a.level();
            let change = if before != Primary && x.is_multiple_of(16) {
                a.on_fallback_error()
            } else {
                let clean = x % 8 != 1;
                if clean {
                    clean_since_change += 1;
                } else {
                    clean_since_change = 0;
                }
                a.on_sample(clean)
            };
            let log = a.drain_transitions();
            assert!(log.len() <= 1, "event {k}: {log:?}");
            assert_eq!(log.first().copied(), change, "event {k}");
            let Some(ch) = change else { continue };
            assert_eq!((ch.from, ch.to), (before, a.level()), "event {k}");
            if ch.cause == "hysteresis_reengage" {
                assert!(
                    clean_since_change >= REENGAGE_AFTER,
                    "event {k}: promoted after {clean_since_change}"
                );
                promotions[usize::from(ch.from == Safe)] += 1;
            }
            clean_since_change = 0;
        }
        assert!(promotions.iter().all(|&n| n > 0), "{promotions:?}");
        assert_eq!(a.violations(), 0, "{:?}", a.first_violation());
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
        let change = a.on_sample(false);
        assert_eq!(a.level(), Safe);
        assert_eq!(change.map(|ch| ch.cause), Some("escalation"));
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
        a.commit_swap(); // commit w/o request
        assert_eq!(a.violations(), 1);
        assert_eq!(
            a.first_violation(),
            Some(InvariantViolation::IllegalEvent {
                level: Primary,
                event: "swap_commit",
            })
        );
        a.request_swap();
        assert_eq!(a.violations(), 1);
        assert!(a.snapshot().swap_pending);
        a.request_swap(); // re-entrant swap
        assert_eq!(a.violations(), 2);
        assert!(a.snapshot().swap_pending);
        a.commit_swap();
        assert_eq!(a.violations(), 2);
        assert!(!a.snapshot().swap_pending);
    }

    #[test]
    fn recovery_protocol_guards_double_begin_and_stray_end() {
        let mut a = ModeAutomaton::new(ModeConfig::default());
        a.end_recovery(); // stray end
        assert_eq!(a.violations(), 1);
        assert_eq!(
            a.first_violation(),
            Some(InvariantViolation::IllegalEvent {
                level: Primary,
                event: "recovery_end",
            })
        );
        a.begin_recovery();
        assert_eq!(a.violations(), 1);
        assert!(a.snapshot().recovering);
        a.begin_recovery(); // double begin
        assert_eq!(a.violations(), 2);
        assert!(a.snapshot().recovering);
        a.end_recovery();
        assert_eq!(a.violations(), 2);
        assert!(!a.snapshot().recovering);
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
            assert_eq!(a.snapshot(), b.snapshot(), "sample {k}");
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
        assert_eq!(a.on_primary_error(), None);
        assert_eq!(
            a.first_violation(),
            Some(InvariantViolation::IllegalEvent {
                level: Fallback,
                event: "primary_error",
            })
        );
        assert_eq!(a.level(), Fallback, "fail-safe: keeps serving");
    }
}
