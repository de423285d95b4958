//! Controller interfaces and implementations.
//!
//! Each layer's controller sees only its own sensors plus the *external
//! signals* the other layer exposes through the agreed interface
//! (Section III-C): the hardware controller reads what the OS actuates
//! (thread distribution) and vice versa (core counts and frequencies).

pub mod heuristic;
pub mod lqg_ctl;
pub mod ssv;

use yukta_control::ss::StateSpace;
use yukta_linalg::{Error, Result};

use crate::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs, SloSense};

/// A flat, policy-agnostic snapshot of one controller's internal state,
/// produced by [`HwPolicy::save_state`]/[`OsPolicy::save_state`] and
/// consumed by the matching `restore_state`. Checkpoints built from these
/// snapshots make crashed runs resumable with bit-identical behaviour.
///
/// The `tag` pins the snapshot to the policy that produced it (a
/// [`crate::supervisor::Supervisor`] checkpoint can only be restored into
/// the same scheme); `floats`/`ints` carry the policy-defined payload in a
/// fixed documented order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerState {
    /// The producing policy's [`HwPolicy::name`]/[`OsPolicy::name`].
    pub tag: &'static str,
    /// Real-valued state (estimator vectors, EMA trackers, targets…).
    pub floats: Vec<f64>,
    /// Integer state (flags, counters, tick counts).
    pub ints: Vec<i64>,
}

impl ControllerState {
    /// An empty snapshot tagged with the producing policy's name.
    pub fn stateless(tag: &'static str) -> Self {
        ControllerState {
            tag,
            floats: Vec::new(),
            ints: Vec::new(),
        }
    }

    /// Validates the snapshot's provenance and payload shape before a
    /// restore.
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] if the tag names a different policy or the
    /// payload lengths do not match what that policy saves.
    pub fn check(&self, tag: &'static str, n_floats: usize, n_ints: usize) -> Result<()> {
        if self.tag != tag {
            return Err(Error::NoSolution {
                op: "controller_restore_state",
                why: "snapshot tag names a different policy",
            });
        }
        if self.floats.len() != n_floats || self.ints.len() != n_ints {
            return Err(Error::NoSolution {
                op: "controller_restore_state",
                why: "snapshot payload length mismatch",
            });
        }
        Ok(())
    }
}

/// The width check every deployment applies to the model or controller
/// it wraps: `sys` must map `n_in` inputs to `n_out` outputs.
///
/// # Errors
///
/// [`Error::DimensionMismatch`] naming `op`, with the expected
/// `(outputs, inputs)` on the left and the actual on the right.
pub(crate) fn check_widths(
    op: &'static str,
    sys: &StateSpace,
    n_in: usize,
    n_out: usize,
) -> Result<()> {
    if (sys.n_outputs(), sys.n_inputs()) == (n_out, n_in) {
        return Ok(());
    }
    Err(Error::DimensionMismatch {
        op,
        lhs: (n_out, n_in),
        rhs: (sys.n_outputs(), sys.n_inputs()),
    })
}

/// Everything the hardware-layer controller can observe at one invocation.
#[derive(Debug, Clone, Copy)]
pub struct HwSense {
    /// Measured outputs (Table II).
    pub outputs: HwOutputs,
    /// External signals from the OS layer (its actuated inputs).
    pub ext: OsInputs,
    /// The hardware operating point currently in force.
    pub current: HwInputs,
    /// Active application threads (part of the coordination interface; on
    /// the real board this is visible to the privileged controller
    /// process).
    pub active_threads: usize,
    /// Serving-layer tail-latency observation (inactive on batch runs).
    pub slo: SloSense,
    /// The constraint limits.
    pub limits: Limits,
}

/// Everything the software-layer controller can observe at one invocation.
#[derive(Debug, Clone, Copy)]
pub struct OsSense {
    /// Measured outputs (Table III).
    pub outputs: OsOutputs,
    /// External signals from the hardware layer (its actuated inputs).
    pub ext: HwInputs,
    /// The placement currently in force.
    pub current: OsInputs,
    /// Active application threads.
    pub active_threads: usize,
    /// System measurements available to the optimizer (the OS reads the
    /// same power/temperature sysfs files as the hardware layer).
    pub system: HwOutputs,
    /// Serving-layer tail-latency observation (inactive on batch runs).
    pub slo: SloSense,
    /// The constraint limits.
    pub limits: Limits,
}

/// A hardware-layer policy: chooses the next operating point every 500 ms.
pub trait HwPolicy {
    /// One controller invocation.
    ///
    /// # Errors
    ///
    /// Model-based policies surface numerical failures (shape mismatches,
    /// non-finite intermediates) as typed errors instead of panicking; the
    /// supervisor reacts by falling back to a heuristic.
    fn invoke(&mut self, sense: &HwSense) -> Result<HwInputs>;

    /// Scheme-facing label.
    fn name(&self) -> &'static str;

    /// Clears all internal controller state (default: stateless, no-op).
    /// The supervisor calls this before re-engaging a demoted controller so
    /// stale estimates from the faulty episode cannot leak forward.
    fn reset(&mut self) {}

    /// Snapshots the complete internal state for a checkpoint (default:
    /// stateless, an empty tagged snapshot).
    fn save_state(&self) -> ControllerState {
        ControllerState::stateless(self.name())
    }

    /// Restores a snapshot taken by [`HwPolicy::save_state`]. After a
    /// restore the policy must reproduce subsequent invocations
    /// bit-identically to the checkpointed instance.
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] if the snapshot came from a different policy
    /// or has the wrong payload shape.
    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        state.check(self.name(), 0, 0)
    }
}

/// A software-layer policy: chooses the next thread placement every 500 ms.
pub trait OsPolicy {
    /// One controller invocation.
    ///
    /// # Errors
    ///
    /// Same contract as [`HwPolicy::invoke`].
    fn invoke(&mut self, sense: &OsSense) -> Result<OsInputs>;

    /// Scheme-facing label.
    fn name(&self) -> &'static str;

    /// Clears all internal controller state (default: stateless, no-op).
    fn reset(&mut self) {}

    /// Snapshots the complete internal state for a checkpoint (default:
    /// stateless, an empty tagged snapshot).
    fn save_state(&self) -> ControllerState {
        ControllerState::stateless(self.name())
    }

    /// Restores a snapshot taken by [`OsPolicy::save_state`]. Same
    /// contract as [`HwPolicy::restore_state`].
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] if the snapshot came from a different policy
    /// or has the wrong payload shape.
    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        state.check(self.name(), 0, 0)
    }
}
