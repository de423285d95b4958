//! # yukta-core
//!
//! The paper's contribution: coordinated multilayer SSV resource
//! controllers for a big.LITTLE system, plus every baseline the
//! evaluation compares against.
//!
//! * [`signals`] — the inputs/outputs/external signals of Tables II/III,
//!   their ranges, grids, and the 0.33 W / 3.3 W / 79 °C limits.
//! * [`design`] — the Figure 3 pipeline: excite the board with the
//!   training workloads, identify black-box models, synthesize the SSV
//!   controllers by D–K iteration.
//! * [`controllers`] — the hardware/software SSV controllers at runtime,
//!   the coordinated and decoupled heuristics (Table IV), and the
//!   decoupled/monolithic LQG baselines (Section VI-B).
//! * [`optimizer`] — the E×D target optimizers of Section IV-D.
//! * [`schemes`] — the named two-layer schemes of the evaluation.
//! * [`runtime`] — one 500 ms step loop wiring controllers, board, and
//!   workload, with optional stages ([`runtime::UnifiedOptions`]).
//! * [`modes`] — the checked reconfiguration automaton: one synchronous
//!   state machine (Primary/Fallback/Safe × swap-pending × recovering)
//!   through which every supervisor, hot-swap, and crash-recovery
//!   transition flows, with machine-checked invariants (no actuation gap,
//!   single writer per knob, legal events only) on every step.
//! * [`supervisor`] — the fault-containment layer: sanitizes sensor views,
//!   watches for stuck sensors, degrades SSV/LQG schemes to the
//!   coordinated heuristic (and ultimately a safe static configuration),
//!   and re-engages them with hysteresis — as a thin driver of [`modes`].
//! * [`recorder`] — the crash-tolerance flight recorder: an append-only
//!   in-memory journal of every invocation and a bit-exact replay
//!   verifier, feeding [`runtime::Experiment::run_recoverable`]'s
//!   checkpoint/restore path.
//!
//! ```no_run
//! use yukta_core::runtime::Experiment;
//! use yukta_core::schemes::Scheme;
//! use yukta_workloads::catalog;
//!
//! # fn main() -> Result<(), yukta_linalg::Error> {
//! let report = Experiment::new(Scheme::YuktaHwSsvOsSsv)
//!     .run(&catalog::parsec::blackscholes())?;
//! println!("E×D = {:.1} J·s", report.metrics.exd());
//! # Ok(())
//! # }
//! ```

pub mod controllers;
pub mod design;
pub mod health;
pub mod metrics;
pub mod modes;
pub mod optimizer;
pub mod recorder;
pub mod runtime;
pub mod schemes;
pub mod signals;
pub mod supervisor;

/// The controller period (s): both layers' controllers are invoked once
/// per period, as the prototype's privileged processes were every 500 ms,
/// and the identified models are sampled at it.
pub const CONTROL_PERIOD_S: f64 = 0.5;

pub use controllers::ControllerState;
pub use health::HealthTap;
pub use metrics::{FaultReport, Metrics, Report};
pub use modes::{
    InvariantViolation, Knob, ModeAutomaton, ModeConfig, ModeSnapshot, TransitionRecord,
};
pub use recorder::{Journal, JournalRecord, ReplayOutcome};
pub use runtime::{
    Experiment, InjectedCrash, RecoveredRun, RecoveryOptions, RecoveryReport, RunOptions,
    SwapCycle, SwapSpec, SwapTrigger, UnifiedOptions,
};
pub use schemes::{ControllersState, Scheme};
pub use supervisor::{
    Supervisor, SupervisorConfig, SupervisorMode, SupervisorState, SupervisorStats,
};
