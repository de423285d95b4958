//! Runtime execution of synthesized LTI controllers.
//!
//! A deployed SSV controller is exactly the state machine of Equations 3–4
//! in the paper:
//!
//! ```text
//! x(T+1) = A·x(T) + B·Δy(T)
//! u(T)   = C·x(T) + D·Δy(T)
//! ```
//!
//! [`ObsAwController`] executes it in observer form, propagating the
//! input that was actually applied so quantization cannot wind it up, and
//! [`ControllerCost`] reports the arithmetic/storage footprint that the
//! paper analyzes in Section VI-D.

use yukta_linalg::{Error, Result};

use crate::ss::StateSpace;

/// Runtime for an observer-form controller with an applied-input port.
///
/// The wrapped system's inputs are `[meas (n_meas); u_applied (n_u)]` and
/// its output is the commanded input vector, with no feedthrough from the
/// `u_applied` columns. Each invocation computes the command from the
/// current state and measurements, lets the caller quantize it onto the
/// legal actuator values, and propagates the state with the value that was
/// *actually applied* — so saturation and quantization cannot wind up the
/// controller even when the underlying H∞ central controller is
/// internally unstable.
#[derive(Debug, Clone)]
pub struct ObsAwController {
    sys: StateSpace,
    n_meas: usize,
    x: Vec<f64>,
}

impl ObsAwController {
    /// Wraps a deployed observer-form controller whose last `n_u` inputs
    /// are the applied-input port (`n_u` = number of outputs).
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] if the system is not discrete;
    /// [`Error::DimensionMismatch`] if it has no measurement inputs beyond
    /// the applied-input port.
    pub fn new(sys: &StateSpace) -> Result<Self> {
        if !sys.is_discrete() {
            return Err(Error::NoSolution {
                op: "obs_aw_new",
                why: "the deployed controller must be discrete",
            });
        }
        if sys.n_inputs() <= sys.n_outputs() {
            return Err(Error::DimensionMismatch {
                op: "obs_aw_new",
                lhs: (sys.n_outputs(), sys.n_outputs() + 1),
                rhs: (sys.n_outputs(), sys.n_inputs()),
            });
        }
        Ok(ObsAwController {
            n_meas: sys.n_inputs() - sys.n_outputs(),
            x: vec![0.0; sys.order()],
            sys: sys.clone(),
        })
    }

    /// Width of the measurement vector expected by [`ObsAwController::step`].
    pub fn n_meas(&self) -> usize {
        self.n_meas
    }

    /// One invocation: computes `u_cmd = C·x + D_meas·meas`, lets
    /// `quantize` snap it to the actuator grids, updates the state with
    /// `[meas; u_applied]`, and returns `(commanded, applied)`.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `meas` has the wrong length or the
    /// quantizer changes the vector length. The controller state is
    /// untouched on error.
    pub fn step(
        &mut self,
        meas: &[f64],
        quantize: &dyn Fn(&[f64]) -> Vec<f64>,
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        if meas.len() != self.n_meas {
            return Err(Error::DimensionMismatch {
                op: "obs_aw_step",
                lhs: (self.n_meas, 1),
                rhs: (meas.len(), 1),
            });
        }
        let n_u = self.sys.n_outputs();
        // Command: feedthrough acts on measurements only (the applied-input
        // feedthrough columns are zero by construction).
        let mut full_in = vec![0.0; self.n_meas + n_u];
        full_in[..self.n_meas].copy_from_slice(meas);
        let mut u = self.sys.d().matvec(&full_in)?;
        let cx = self.sys.c().matvec(&self.x)?;
        for (ui, ci) in u.iter_mut().zip(&cx) {
            *ui += ci;
        }
        let applied = quantize(&u);
        if applied.len() != n_u {
            return Err(Error::DimensionMismatch {
                op: "obs_aw_quantize",
                lhs: (n_u, 1),
                rhs: (applied.len(), 1),
            });
        }
        full_in[self.n_meas..].copy_from_slice(&applied);
        let mut xn = self.sys.a().matvec(&self.x)?;
        let bu = self.sys.b().matvec(&full_in)?;
        for (xi, bi) in xn.iter_mut().zip(&bu) {
            *xi += bi;
        }
        self.x = xn;
        Ok((u, applied))
    }

    /// Resets the controller state to zero.
    pub fn reset(&mut self) {
        self.x.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Current internal state (for diagnostics and checkpointing).
    pub fn state(&self) -> &[f64] {
        &self.x
    }

    /// Overwrites the internal state, e.g. restoring a checkpoint taken
    /// via [`ObsAwController::state`].
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `x` has the wrong length.
    pub fn set_state(&mut self, x: &[f64]) -> Result<()> {
        if x.len() != self.x.len() {
            return Err(Error::DimensionMismatch {
                op: "obs_aw_set_state",
                lhs: (self.x.len(), 1),
                rhs: (x.len(), 1),
            });
        }
        self.x.copy_from_slice(x);
        Ok(())
    }

    /// The wrapped system.
    pub fn system(&self) -> &StateSpace {
        &self.sys
    }
}

/// The arithmetic/storage footprint of one controller invocation — the
/// quantity the paper reports in Section VI-D (≈700 fixed-point ops and
/// ≈2.6 KB for N=20, I=4, O=4, E=3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerCost {
    /// State dimension N.
    pub n_state: usize,
    /// Inputs I (actuator commands produced).
    pub n_inputs: usize,
    /// Measurement vector width O+E.
    pub n_meas: usize,
    /// Multiply operations per invocation.
    pub multiplies: usize,
    /// Addition operations per invocation.
    pub additions: usize,
    /// Bytes of matrix/state storage at 32-bit fixed point.
    pub storage_bytes: usize,
}

impl ControllerCost {
    /// Computes the footprint of a controller realization.
    pub fn of(sys: &StateSpace) -> Self {
        let n = sys.order();
        let i = sys.n_outputs(); // controller outputs = plant inputs
        let m = sys.n_inputs(); // Δy width = O + E
        // x⁺ = A x + B Δy : n·n + n·m multiplies, same adds (fused view).
        // u  = C x + D Δy : i·n + i·m multiplies.
        let multiplies = n * n + n * m + i * n + i * m;
        let additions = multiplies; // one accumulate per product term
        // Storage: A, B, C, D plus the state vector, 4 bytes each.
        let words = n * n + n * m + i * n + i * m + n;
        ControllerCost {
            n_state: n,
            n_inputs: i,
            n_meas: m,
            multiplies,
            additions,
            storage_bytes: 4 * words,
        }
    }

    /// Total arithmetic operations per invocation.
    pub fn total_ops(&self) -> usize {
        self.multiplies + self.additions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yukta_linalg::Mat;

    fn toy() -> StateSpace {
        StateSpace::new(
            Mat::from_rows(&[&[0.5, 0.1], &[0.0, 0.4]]),
            Mat::from_rows(&[&[1.0], &[0.5]]),
            Mat::from_rows(&[&[1.0, 0.0]]),
            Mat::zeros(1, 1),
            Some(0.5),
        )
        .unwrap()
    }

    #[test]
    fn cost_matches_paper_dimensions() {
        // The paper's hardware controller: N=20, I=4, O+E=7 →
        // ops = 2(20·20 + 20·7 + 4·20 + 4·7) = 2·648 = 1296 total ops, of
        // which ~700 are multiplies (648) — matching the "nearly 700
        // 32-bit fixed-point operations" with ops counted as MACs.
        let sys = StateSpace::new(
            Mat::identity(20).scale(0.5),
            Mat::zeros(20, 7),
            Mat::zeros(4, 20),
            Mat::zeros(4, 7),
            Some(0.5),
        )
        .unwrap();
        let cost = ControllerCost::of(&sys);
        assert_eq!(cost.n_state, 20);
        assert_eq!(cost.multiplies, 648);
        // Storage ≈ 2.6 KB: (400+140+80+28+20)·4 = 2672 bytes.
        assert_eq!(cost.storage_bytes, 2672);
    }

    #[test]
    fn wrong_measurement_width_is_a_typed_error() {
        // Observer form: 2-input 1-output system expects 1 measurement.
        let obs = StateSpace::new(
            Mat::from_rows(&[&[0.5]]),
            Mat::from_rows(&[&[1.0, 0.2]]),
            Mat::from_rows(&[&[1.0]]),
            Mat::zeros(1, 2),
            Some(0.5),
        )
        .unwrap();
        let mut aw = ObsAwController::new(&obs).unwrap();
        assert!(matches!(
            aw.step(&[1.0, 2.0], &|u| u.to_vec()),
            Err(Error::DimensionMismatch { .. })
        ));
        // A misbehaving quantizer is reported, not a panic.
        assert!(matches!(
            aw.step(&[1.0], &|_| vec![0.0, 0.0]),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn unusable_controllers_are_typed_errors() {
        // No measurement inputs beyond the applied-input port.
        assert!(matches!(
            ObsAwController::new(&toy()),
            Err(Error::DimensionMismatch { .. })
        ));
        let continuous = StateSpace::new(
            Mat::from_rows(&[&[-1.0]]),
            Mat::from_rows(&[&[1.0, 0.2]]),
            Mat::from_rows(&[&[1.0]]),
            Mat::zeros(1, 2),
            None,
        )
        .unwrap();
        assert!(matches!(
            ObsAwController::new(&continuous),
            Err(Error::NoSolution { .. })
        ));
    }

    #[test]
    fn obs_aw_set_state_restores_checkpoint_bit_for_bit() {
        let obs = StateSpace::new(
            Mat::from_rows(&[&[0.5, 0.1], &[0.0, 0.4]]),
            Mat::from_rows(&[&[1.0, 0.2], &[0.5, 0.1]]),
            Mat::from_rows(&[&[1.0, 0.0]]),
            Mat::zeros(1, 2),
            Some(0.5),
        )
        .unwrap();
        let mut aw = ObsAwController::new(&obs).unwrap();
        for t in 0..20 {
            aw.step(&[(t as f64 * 0.3).sin()], &|u| u.to_vec()).unwrap();
        }
        let snap = aw.state().to_vec();
        let mut twin = aw.clone();
        for _ in 0..10 {
            aw.step(&[0.9], &|u| u.to_vec()).unwrap();
        }
        aw.set_state(&snap).unwrap();
        let (ca, aa) = aw.step(&[0.25], &|u| u.to_vec()).unwrap();
        let (cb, ab) = twin.step(&[0.25], &|u| u.to_vec()).unwrap();
        assert_eq!(ca[0].to_bits(), cb[0].to_bits());
        assert_eq!(aa[0].to_bits(), ab[0].to_bits());
        assert!(matches!(
            aw.set_state(&[0.0]),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cost_total_ops() {
        let sys = toy();
        let c = ControllerCost::of(&sys);
        assert_eq!(c.total_ops(), c.multiplies + c.additions);
        assert!(c.total_ops() > 0);
    }
}
