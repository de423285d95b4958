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
///
/// An invocation allocates nothing in steady state: the controller owns
/// every intermediate vector and swaps the next state in.
#[derive(Debug, Clone)]
pub struct ObsAwController {
    sys: StateSpace,
    n_meas: usize,
    x: Vec<f64>,
    /// `A·x`, then the next state `A·x + B·[meas; u_applied]`.
    x_next: Vec<f64>,
    /// The input vector `[meas; u_applied]`.
    full_in: Vec<f64>,
    /// The command `D·[meas; 0] + C·x`.
    u: Vec<f64>,
    /// `C·x`.
    cx: Vec<f64>,
    /// The quantizer's output: the applied input.
    applied: Vec<f64>,
    /// `B·[meas; u_applied]`.
    bu: Vec<f64>,
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
        let (n, n_u) = (sys.order(), sys.n_outputs());
        Ok(ObsAwController {
            n_meas: sys.n_inputs() - n_u,
            x: vec![0.0; n],
            x_next: vec![0.0; n],
            full_in: vec![0.0; sys.n_inputs()],
            u: vec![0.0; n_u],
            cx: vec![0.0; n_u],
            applied: Vec::with_capacity(n_u),
            bu: vec![0.0; n],
            sys: sys.clone(),
        })
    }

    /// Width of the measurement vector expected by [`ObsAwController::step`].
    pub fn n_meas(&self) -> usize {
        self.n_meas
    }

    /// One invocation: computes `u_cmd = C·x + D_meas·meas`, lets
    /// `quantize` snap it to the actuator grids, updates the state with
    /// `[meas; u_applied]`, and returns `(commanded, applied)`, both
    /// borrowed from the controller until its next call.
    ///
    /// `quantize` receives the command and an empty buffer, and pushes
    /// the applied input onto the buffer (`n_u` values). The buffer is
    /// the controller's own and keeps its capacity from call to call.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `meas` has the wrong length or the
    /// quantizer pushes other than `n_u` values. The controller state is
    /// untouched on error.
    pub fn step(
        &mut self,
        meas: &[f64],
        quantize: &dyn Fn(&[f64], &mut Vec<f64>),
    ) -> Result<(&[f64], &[f64])> {
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
        let (meas_in, applied_in) = self.full_in.split_at_mut(self.n_meas);
        meas_in.copy_from_slice(meas);
        applied_in.fill(0.0);
        self.sys.d().matvec_into(&self.full_in, &mut self.u)?;
        self.sys.c().matvec_into(&self.x, &mut self.cx)?;
        for (ui, ci) in self.u.iter_mut().zip(&self.cx) {
            *ui += ci;
        }
        self.applied.clear();
        quantize(&self.u, &mut self.applied);
        if self.applied.len() != n_u {
            return Err(Error::DimensionMismatch {
                op: "obs_aw_quantize",
                lhs: (n_u, 1),
                rhs: (self.applied.len(), 1),
            });
        }
        self.full_in[self.n_meas..].copy_from_slice(&self.applied);
        // `A·x` and `B·in` stay two products, added afterwards.
        self.sys.a().matvec_into(&self.x, &mut self.x_next)?;
        self.sys.b().matvec_into(&self.full_in, &mut self.bu)?;
        for (xi, bi) in self.x_next.iter_mut().zip(&self.bu) {
            *xi += bi;
        }
        std::mem::swap(&mut self.x, &mut self.x_next);
        Ok((&self.u, &self.applied))
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

/// The allocating invocation [`ObsAwController::step`] is pinned to bit
/// for bit, on the one-row-at-a-time matrix–vector loop.
#[cfg(test)]
mod reference {
    use yukta_linalg::{Mat, Result};

    use crate::ss::StateSpace;

    fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|i| {
                let mut acc = 0.0;
                for (j, &xj) in x.iter().enumerate() {
                    acc += a[(i, j)] * xj;
                }
                acc
            })
            .collect()
    }

    /// One invocation of `sys` from state `x`; the quantizer returns the
    /// applied input.
    pub(super) fn step(
        sys: &StateSpace,
        x: &mut Vec<f64>,
        meas: &[f64],
        quantize: &dyn Fn(&[f64]) -> Vec<f64>,
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        let n_meas = sys.n_inputs() - sys.n_outputs();
        let mut full_in = vec![0.0; sys.n_inputs()];
        full_in[..n_meas].copy_from_slice(meas);
        let mut u = matvec(sys.d(), &full_in);
        let cx = matvec(sys.c(), x);
        for (ui, ci) in u.iter_mut().zip(&cx) {
            *ui += ci;
        }
        let applied = quantize(&u);
        full_in[n_meas..].copy_from_slice(&applied);
        let mut xn = matvec(sys.a(), x);
        let bu = matvec(sys.b(), &full_in);
        for (xi, bi) in xn.iter_mut().zip(&bu) {
            *xi += bi;
        }
        *x = xn;
        Ok((u, applied))
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
            aw.step(&[1.0, 2.0], &|u, out| out.extend_from_slice(u)),
            Err(Error::DimensionMismatch { .. })
        ));
        // A misbehaving quantizer is reported, not a panic.
        assert!(matches!(
            aw.step(&[1.0], &|_, out| out.extend_from_slice(&[0.0, 0.0])),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    /// A discrete observer-form system of order `n` with `n_in` inputs and
    /// `n_u` outputs, `A` scaled to ∞-norm 0.95 so 64 steps stay finite.
    fn random_obs(n: usize, n_in: usize, n_u: usize, seed: u64) -> StateSpace {
        let mut s = seed | 1;
        let mut draw = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
                })
                .collect()
        };
        let a = Mat::from_vec(n, n, draw(n * n));
        let a = a.scale(0.95 / (a.inf_norm() + 1e-12));
        let b = Mat::from_vec(n, n_in, draw(n * n_in));
        let c = Mat::from_vec(n_u, n, draw(n_u * n));
        let d = Mat::from_vec(n_u, n_in, draw(n_u * n_in));
        StateSpace::new(a, b, c, d, Some(0.5)).unwrap()
    }

    /// Snaps a command onto tenths in [-1, 1], like an actuator grid.
    fn snap(u: &[f64]) -> impl Iterator<Item = f64> + '_ {
        u.iter().map(|v| (v.clamp(-1.0, 1.0) * 10.0).round() / 10.0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The buffered invocation gives the old allocating step's bits,
        /// state and both outputs, over 64 steps of a snapping quantizer,
        /// on random systems of order 1..=45 and on the deployed
        /// 41-state 11-in/4-out and 42-state 10-in/3-out shapes.
        #[test]
        fn step_matches_allocating_reference_bits(
            order in 1usize..=45,
            n_u in 1usize..=5,
            extra in 1usize..=8,
            deployed in 0u32..4,
            seed in 0u64..u64::MAX,
        ) {
            let (order, n_in, n_u) = match deployed {
                0 => (41, 11, 4),
                1 => (42, 10, 3),
                _ => (order, n_u + extra, n_u),
            };
            let sys = random_obs(order, n_in, n_u, seed);
            let mut aw = ObsAwController::new(&sys).unwrap();
            let mut x_ref = vec![0.0; order];
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            for t in 0..64 {
                let meas: Vec<f64> = (0..aw.n_meas())
                    .map(|k| (0.37 * t as f64 + 1.3 * k as f64 + seed as f64).sin())
                    .collect();
                let want = reference::step(&sys, &mut x_ref, &meas, &|u| snap(u).collect()).unwrap();
                let (cmd, applied) = aw.step(&meas, &|u, out| out.extend(snap(u))).unwrap();
                proptest::prop_assert_eq!(bits(cmd), bits(&want.0), "command at step {}", t);
                proptest::prop_assert_eq!(bits(applied), bits(&want.1), "applied at step {}", t);
                proptest::prop_assert_eq!(bits(aw.state()), bits(&x_ref), "state at step {}", t);
            }
        }
    }

    #[test]
    fn failed_steps_leave_the_state_untouched() {
        let sys = random_obs(6, 5, 2, 7);
        let mut aw = ObsAwController::new(&sys).unwrap();
        for t in 0..5 {
            aw.step(&[0.1 * t as f64, 0.2, -0.3], &|u, out| out.extend(snap(u)))
                .unwrap();
        }
        let before = aw.state().to_vec();
        let mut twin = aw.clone();
        // Wrong measurement width.
        assert!(matches!(
            aw.step(&[0.1, 0.2], &|u, out| out.extend(snap(u))),
            Err(Error::DimensionMismatch {
                op: "obs_aw_step",
                ..
            })
        ));
        assert_eq!(aw.state(), before.as_slice());
        // A quantizer writing one value too many, then one too few.
        assert!(matches!(
            aw.step(&[0.4, 0.5, 0.6], &|u, out| {
                out.extend(snap(u));
                out.push(0.0);
            }),
            Err(Error::DimensionMismatch {
                op: "obs_aw_quantize",
                ..
            })
        ));
        assert_eq!(aw.state(), before.as_slice());
        assert!(matches!(
            aw.step(&[0.4, 0.5, 0.6], &|u, out| out.push(u[0])),
            Err(Error::DimensionMismatch {
                op: "obs_aw_quantize",
                ..
            })
        ));
        assert_eq!(aw.state(), before.as_slice());
        // The failures left nothing behind: the next good step matches a
        // twin that never saw them.
        let q = |u: &[f64], out: &mut Vec<f64>| out.extend(snap(u));
        let a = aw.step(&[0.4, 0.5, 0.6], &q).unwrap().1.to_vec();
        let b = twin.step(&[0.4, 0.5, 0.6], &q).unwrap().1.to_vec();
        assert_eq!(a, b);
        assert_eq!(aw.state(), twin.state());
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
            aw.step(&[(t as f64 * 0.3).sin()], &|u, out| {
                out.extend_from_slice(u)
            })
            .unwrap();
        }
        let snap = aw.state().to_vec();
        let mut twin = aw.clone();
        for _ in 0..10 {
            aw.step(&[0.9], &|u, out| out.extend_from_slice(u)).unwrap();
        }
        aw.set_state(&snap).unwrap();
        let (ca, aa) = aw
            .step(&[0.25], &|u, out| out.extend_from_slice(u))
            .unwrap();
        let (cb, ab) = twin
            .step(&[0.25], &|u, out| out.extend_from_slice(u))
            .unwrap();
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
