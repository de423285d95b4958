//! Linear–Quadratic–Gaussian control: the state-of-the-art MIMO baseline
//! the paper compares against (Section VI-B, controller from Pothukuchi et
//! al. ISCA'16).
//!
//! The tracker couples an integral-augmented LQR with a steady-state
//! Kalman filter. Unlike the SSV design it accepts no output bounds, no
//! input quantization, no uncertainty guardband, and no external signals —
//! precisely the limitations the evaluation probes.

use yukta_linalg::riccati::{dare, dare_gain};
use yukta_linalg::{Error, Mat, Result};

use crate::ss::StateSpace;

/// Weights for [`LqgTracker::design`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LqgWeights {
    /// Penalty on output deviation (enters as `qy·CᵀC` on the plant state).
    pub qy: f64,
    /// Penalty on the integral of tracking error (drives zero offset).
    pub qi: f64,
    /// Penalty on control effort (the paper's "input weight" analogue).
    pub ru: f64,
    /// Process-noise intensity for the Kalman design.
    pub qw: f64,
    /// Measurement-noise intensity for the Kalman design.
    pub rv: f64,
}

impl Default for LqgWeights {
    fn default() -> Self {
        LqgWeights {
            qy: 1.0,
            qi: 0.5,
            ru: 1.0,
            qw: 0.1,
            rv: 0.01,
        }
    }
}

/// An LQG output-tracking controller: measures plant outputs, receives
/// targets, produces (continuous-valued) plant inputs.
///
/// # Examples
///
/// ```
/// use yukta_control::lqg::{LqgTracker, LqgWeights};
/// use yukta_control::ss::StateSpace;
/// use yukta_linalg::Mat;
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let plant = StateSpace::new(
///     Mat::filled(1, 1, 0.8),
///     Mat::filled(1, 1, 0.5),
///     Mat::identity(1),
///     Mat::zeros(1, 1),
///     Some(0.5),
/// )?;
/// let mut ctl = LqgTracker::design(&plant, LqgWeights::default())?;
/// let mut y = 0.0;
/// let mut x = 0.0;
/// for _ in 0..200 {
///     let u = ctl.step(&[1.0], &[y])?;
///     x = 0.8 * x + 0.5 * u[0];
///     y = x;
/// }
/// assert!((y - 1.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LqgTracker {
    plant: StateSpace,
    /// State-feedback gain on the plant-state estimate.
    kx: Mat,
    /// Gain on the error integral.
    ki: Mat,
    /// Steady-state Kalman gain.
    l: Mat,
    /// One-step-ahead state prediction `x̂(k|k−1)`.
    xhat: Vec<f64>,
    /// Filtered state estimate `x̂(k|k)` from the latest measurement.
    xfilt: Vec<f64>,
    /// Current error integral.
    xi: Vec<f64>,
    /// Last input applied (needed by the predictor).
    u_prev: Vec<f64>,
    /// Per-step intermediates, owned so a step allocates nothing.
    buf: LqgBuffers,
}

/// The intermediate vectors of one [`LqgTracker::step`]. Not state: the
/// checkpoint and every step's result ignore what they held before.
#[derive(Debug, Clone)]
struct LqgBuffers {
    /// `C·x̂`, then the innovation `y − C·x̂` in place (`ny`).
    innov: Vec<f64>,
    /// `L·innov`, then `B·u` (`n`).
    corr: Vec<f64>,
    /// The next filtered estimate (`n`).
    xfilt: Vec<f64>,
    /// The next error integral (`ny`).
    xi: Vec<f64>,
    /// `Kx·x̂(k|k)` (`nu`).
    ux: Vec<f64>,
    /// `Ki·xi` (`nu`).
    ui: Vec<f64>,
}

impl LqgTracker {
    /// Designs the tracker for a discrete, strictly proper plant.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSolution`] if the plant is continuous or has
    ///   feedthrough.
    /// * Riccati failures if the plant is not stabilizable/detectable with
    ///   the given weights.
    pub fn design(plant: &StateSpace, w: LqgWeights) -> Result<Self> {
        if !plant.is_discrete() {
            return Err(Error::NoSolution {
                op: "lqg_design",
                why: "plant must be discrete-time",
            });
        }
        if plant.d().max_abs() > 1e-12 {
            return Err(Error::NoSolution {
                op: "lqg_design",
                why: "plant must be strictly proper",
            });
        }
        let n = plant.order();
        let ny = plant.n_outputs();
        let nu = plant.n_inputs();
        // Integral-augmented regulator design:
        //   x⁺  = A x + B u
        //   xi⁺ = λ·xi − C x   (reference enters at runtime)
        // The integrators leak slightly (λ = 0.995): exact unit-circle
        // eigenvalues stall the doubling DARE solver on large augmented
        // systems (the 51-state monolithic design), and a 0.5% leak is
        // behaviorally indistinguishable at the 500 ms period.
        let a_aug = Mat::block2x2(
            plant.a(),
            &Mat::zeros(n, ny),
            &-(plant.c()),
            &Mat::identity(ny).scale(0.995),
        )?;
        let b_aug = Mat::vstack(plant.b(), &Mat::zeros(ny, nu))?;
        let q_x = (&plant.c().t() * plant.c()).scale(w.qy);
        // Small regularizer keeps (A,Q) detectable even for rank-deficient C'C.
        let q_x = &q_x + &Mat::identity(n).scale(1e-6);
        let q_aug = q_x.block_diag(&Mat::identity(ny).scale(w.qi));
        let r = Mat::identity(nu).scale(w.ru);
        let x = dare(&a_aug, &b_aug, &q_aug, &r)?;
        let k_aug = dare_gain(&a_aug, &b_aug, &r, &x)?;
        let kx = k_aug.block(0, nu, 0, n);
        let ki = k_aug.block(0, nu, n, n + ny);
        // Kalman filter: dual DARE on (Aᵀ, Cᵀ).
        let qn = &(plant.b() * &plant.b().t()).scale(w.qw) + &Mat::identity(n).scale(1e-6);
        let rn = Mat::identity(ny).scale(w.rv);
        let p = dare(&plant.a().t(), &plant.c().t(), &qn, &rn)?;
        // Filter (measurement-update) gain L = P Cᵀ (C P Cᵀ + R)⁻¹.
        let cpct = &(plant.c() * &p) * &plant.c().t();
        let inner = (&cpct + &rn)
            .inverse()
            .map_err(|_| Error::Singular { op: "kalman_gain" })?;
        let l = &(&p * &plant.c().t()) * &inner;
        Ok(LqgTracker {
            plant: plant.clone(),
            kx,
            ki,
            l,
            xhat: vec![0.0; n],
            xfilt: vec![0.0; n],
            xi: vec![0.0; ny],
            u_prev: vec![0.0; nu],
            buf: LqgBuffers {
                innov: vec![0.0; ny],
                corr: vec![0.0; n],
                xfilt: vec![0.0; n],
                xi: vec![0.0; ny],
                ux: vec![0.0; nu],
                ui: vec![0.0; nu],
            },
        })
    }

    /// One control step: given the current targets `r` and measured outputs
    /// `y`, returns the plant input to apply until the next invocation
    /// (borrowed until the tracker's next call). Allocates nothing.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `r`/`y` lengths do not match the
    /// plant output count. Estimator and integrator state are untouched on
    /// error.
    pub fn step(&mut self, r: &[f64], y: &[f64]) -> Result<&[f64]> {
        let ny = self.plant.n_outputs();
        if r.len() != ny || y.len() != ny {
            return Err(Error::DimensionMismatch {
                op: "lqg_step",
                lhs: (ny, 1),
                rhs: (r.len(), y.len()),
            });
        }
        let s = &mut self.buf;
        // Measurement update: x̂(k|k) = x̂(k|k−1) + L (y − C x̂(k|k−1)).
        self.plant.c().matvec_into(&self.xhat, &mut s.innov)?;
        for (e, &yj) in s.innov.iter_mut().zip(y) {
            *e = yj - *e;
        }
        self.l.matvec_into(&s.innov, &mut s.corr)?;
        for ((xf, &xh), c) in s.xfilt.iter_mut().zip(&self.xhat).zip(&s.corr) {
            *xf = xh + c;
        }
        // u = −Kx x̂(k|k) − Ki xi (with the error freshly integrated).
        self.kx.matvec_into(&s.xfilt, &mut s.ux)?;
        for (j, xi) in s.xi.iter_mut().enumerate() {
            *xi = self.xi[j] + (r[j] - y[j]);
        }
        self.ki.matvec_into(&s.xi, &mut s.ui)?;
        for ((u, ux), ui) in self.u_prev.iter_mut().zip(&s.ux).zip(&s.ui) {
            *u = -ux - ui;
        }
        // All fallible work done: commit the state updates, then the time
        // update with the input we are about to apply:
        // x̂(k+1|k) = A x̂(k|k) + B u(k).
        std::mem::swap(&mut self.xi, &mut s.xi);
        std::mem::swap(&mut self.xfilt, &mut s.xfilt);
        self.apply_time_update()?;
        Ok(&self.u_prev)
    }

    /// Overrides the input the estimator assumes was applied — call after
    /// external saturation/quantization so the filter tracks reality. The
    /// one-step prediction is recomputed from the filtered estimate.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `u` has the wrong length.
    pub fn set_applied_input(&mut self, u: &[f64]) -> Result<()> {
        if u.len() != self.u_prev.len() {
            return Err(Error::DimensionMismatch {
                op: "lqg_set_applied_input",
                lhs: (self.u_prev.len(), 1),
                rhs: (u.len(), 1),
            });
        }
        self.u_prev.copy_from_slice(u);
        self.apply_time_update()
    }

    /// `x̂ = A·x̂(k|k) + B·u_prev`, the two products added afterwards.
    fn apply_time_update(&mut self) -> Result<()> {
        let bu = &mut self.buf.corr;
        self.plant.a().matvec_into(&self.xfilt, &mut self.xhat)?;
        self.plant.b().matvec_into(&self.u_prev, bu)?;
        for (xp, b) in self.xhat.iter_mut().zip(bu.iter()) {
            *xp += b;
        }
        Ok(())
    }

    /// Resets all internal state (estimate, integrator, input memory).
    pub fn reset(&mut self) {
        self.xhat.iter_mut().for_each(|v| *v = 0.0);
        self.xfilt.iter_mut().for_each(|v| *v = 0.0);
        self.xi.iter_mut().for_each(|v| *v = 0.0);
        self.u_prev.iter_mut().for_each(|v| *v = 0.0);
    }

    /// The plant this controller was designed for.
    pub fn plant(&self) -> &StateSpace {
        &self.plant
    }

    /// Controller state dimension (estimate + integrators).
    pub fn order(&self) -> usize {
        self.xhat.len() + self.xi.len()
    }

    /// Length of the flat vector produced by [`LqgTracker::save_state`].
    pub fn state_len(&self) -> usize {
        2 * self.xhat.len() + self.xi.len() + self.u_prev.len()
    }

    /// Serializes the complete runtime state (prediction, filtered
    /// estimate, integrators, input memory) as a flat vector. Together
    /// with [`LqgTracker::restore_state`] this makes the tracker
    /// checkpointable: restoring a saved state reproduces subsequent
    /// steps bit-identically.
    pub fn save_state(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(self.state_len());
        s.extend_from_slice(&self.xhat);
        s.extend_from_slice(&self.xfilt);
        s.extend_from_slice(&self.xi);
        s.extend_from_slice(&self.u_prev);
        s
    }

    /// Restores state saved by [`LqgTracker::save_state`].
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `s` does not match
    /// [`LqgTracker::state_len`].
    pub fn restore_state(&mut self, s: &[f64]) -> Result<()> {
        if s.len() != self.state_len() {
            return Err(Error::DimensionMismatch {
                op: "lqg_restore_state",
                lhs: (self.state_len(), 1),
                rhs: (s.len(), 1),
            });
        }
        let (n, ny, nu) = (self.xhat.len(), self.xi.len(), self.u_prev.len());
        self.xhat.copy_from_slice(&s[..n]);
        self.xfilt.copy_from_slice(&s[n..2 * n]);
        self.xi.copy_from_slice(&s[2 * n..2 * n + ny]);
        self.u_prev.copy_from_slice(&s[2 * n + ny..2 * n + ny + nu]);
        Ok(())
    }
}

/// The allocating step [`LqgTracker::step`] and
/// [`LqgTracker::set_applied_input`] are pinned to bit for bit, on the
/// one-row-at-a-time matrix–vector loop.
#[cfg(test)]
mod reference {
    use super::LqgTracker;
    use yukta_linalg::Mat;

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

    /// The runtime state of a tracker, advanced with `t`'s gains.
    pub(super) struct Old {
        pub(super) xhat: Vec<f64>,
        pub(super) xfilt: Vec<f64>,
        pub(super) xi: Vec<f64>,
        pub(super) u_prev: Vec<f64>,
    }

    impl Old {
        pub(super) fn new(t: &LqgTracker) -> Self {
            Old {
                xhat: t.xhat.clone(),
                xfilt: t.xfilt.clone(),
                xi: t.xi.clone(),
                u_prev: t.u_prev.clone(),
            }
        }

        pub(super) fn step(&mut self, t: &LqgTracker, r: &[f64], y: &[f64]) -> Vec<f64> {
            let ny = t.plant.n_outputs();
            let ypred = matvec(t.plant.c(), &self.xhat);
            let mut innov = vec![0.0; ny];
            for j in 0..ny {
                innov[j] = y[j] - ypred[j];
            }
            let corr = matvec(&t.l, &innov);
            let mut xfilt = self.xhat.clone();
            for (xf, c) in xfilt.iter_mut().zip(&corr) {
                *xf += c;
            }
            let ux = matvec(&t.kx, &xfilt);
            let mut xi = self.xi.clone();
            for j in 0..ny {
                xi[j] += r[j] - y[j];
            }
            let ui = matvec(&t.ki, &xi);
            let u: Vec<f64> = ux.iter().zip(&ui).map(|(a, b)| -a - b).collect();
            self.xi = xi;
            self.xfilt = xfilt;
            self.set_applied_input(t, &u);
            u
        }

        pub(super) fn set_applied_input(&mut self, t: &LqgTracker, u: &[f64]) {
            let mut xpred = matvec(t.plant.a(), &self.xfilt);
            let bu = matvec(t.plant.b(), u);
            for (xp, b) in xpred.iter_mut().zip(&bu) {
                *xp += b;
            }
            self.xhat = xpred;
            self.u_prev = u.to_vec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn siso_plant() -> StateSpace {
        StateSpace::new(
            Mat::filled(1, 1, 0.9),
            Mat::filled(1, 1, 0.2),
            Mat::identity(1),
            Mat::zeros(1, 1),
            Some(0.5),
        )
        .unwrap()
    }

    fn mimo_plant() -> StateSpace {
        // 2x2 coupled plant.
        StateSpace::new(
            Mat::from_rows(&[&[0.8, 0.1], &[-0.05, 0.7]]),
            Mat::from_rows(&[&[0.4, 0.1], &[0.05, 0.3]]),
            Mat::identity(2),
            Mat::zeros(2, 2),
            Some(0.5),
        )
        .unwrap()
    }

    fn run_loop(plant: &StateSpace, ctl: &mut LqgTracker, r: &[f64], steps: usize) -> Vec<f64> {
        let n = plant.order();
        let mut x = vec![0.0; n];
        let mut y = vec![0.0; plant.n_outputs()];
        for _ in 0..steps {
            let u = ctl.step(r, &y).unwrap();
            let mut xn = plant.a().matvec(&x).unwrap();
            let bu = plant.b().matvec(u).unwrap();
            for (xi, bi) in xn.iter_mut().zip(&bu) {
                *xi += bi;
            }
            x = xn;
            y = plant.c().matvec(&x).unwrap();
        }
        y
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The buffered step and time update give the old allocating
        /// ones' bits — input, prediction, filtered estimate, integrator —
        /// over 64 closed-loop steps on random stable plants, with every
        /// other step's input overridden by a snapped one.
        #[test]
        fn step_matches_allocating_reference_bits(
            n in 1usize..=12,
            nu in 1usize..=4,
            ny in 1usize..=4,
            seed in 0u64..u64::MAX,
        ) {
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
            let plant = StateSpace::new(
                a.scale(0.9 / (a.inf_norm() + 1e-12)),
                Mat::from_vec(n, nu, draw(n * nu)),
                Mat::from_vec(ny, n, draw(ny * n)),
                Mat::zeros(ny, nu),
                Some(0.5),
            )
            .unwrap();
            let Ok(mut ctl) = LqgTracker::design(&plant, LqgWeights::default()) else {
                return Ok(());
            };
            let mut old = reference::Old::new(&ctl);
            let r = draw(ny);
            let (mut x, mut y) = (vec![0.0; n], vec![0.0; ny]);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            for k in 0..64 {
                let want = old.step(&ctl, &r, &y);
                let mut u = ctl.step(&r, &y).unwrap().to_vec();
                proptest::prop_assert_eq!(bits(&u), bits(&want), "input at step {}", k);
                if k % 2 == 1 {
                    u.iter_mut().for_each(|v| *v = (v.clamp(-1.0, 1.0) * 10.0).round() / 10.0);
                    old.set_applied_input(&ctl, &u);
                    ctl.set_applied_input(&u).unwrap();
                }
                let mut state = old.xhat.clone();
                state.extend(old.xfilt.iter().chain(&old.xi).chain(&old.u_prev));
                proptest::prop_assert_eq!(bits(&ctl.save_state()), bits(&state), "state at step {}", k);
                let mut xn = plant.a().matvec(&x).unwrap();
                for (xi, bi) in xn.iter_mut().zip(&plant.b().matvec(&u).unwrap()) {
                    *xi += bi;
                }
                x = xn;
                y = plant.c().matvec(&x).unwrap();
            }
        }
    }

    #[test]
    fn siso_tracks_constant_reference() {
        let plant = siso_plant();
        let mut ctl = LqgTracker::design(&plant, LqgWeights::default()).unwrap();
        let y = run_loop(&plant, &mut ctl, &[2.0], 300);
        assert!((y[0] - 2.0).abs() < 0.02, "steady-state y = {}", y[0]);
    }

    #[test]
    fn mimo_tracks_decoupled_targets() {
        let plant = mimo_plant();
        let mut ctl = LqgTracker::design(&plant, LqgWeights::default()).unwrap();
        let y = run_loop(&plant, &mut ctl, &[1.0, -0.5], 400);
        assert!((y[0] - 1.0).abs() < 0.03, "y0 = {}", y[0]);
        assert!((y[1] + 0.5).abs() < 0.03, "y1 = {}", y[1]);
    }

    #[test]
    fn heavier_input_weight_slows_response() {
        let plant = siso_plant();
        let fast_w = LqgWeights {
            ru: 0.1,
            ..Default::default()
        };
        let slow_w = LqgWeights {
            ru: 20.0,
            ..Default::default()
        };
        let mut fast = LqgTracker::design(&plant, fast_w).unwrap();
        let mut slow = LqgTracker::design(&plant, slow_w).unwrap();
        let yf = run_loop(&plant, &mut fast, &[1.0], 10)[0];
        let ys = run_loop(&plant, &mut slow, &[1.0], 10)[0];
        assert!(yf > ys, "fast {yf} vs slow {ys}");
    }

    #[test]
    fn save_restore_state_roundtrips_bit_for_bit() {
        let plant = mimo_plant();
        let mut ctl = LqgTracker::design(&plant, LqgWeights::default()).unwrap();
        run_loop(&plant, &mut ctl, &[1.0, -0.5], 40);
        let snap = ctl.save_state();
        assert_eq!(snap.len(), ctl.state_len());
        // Diverge, then restore: the next step must match bit-for-bit.
        let mut twin = ctl.clone();
        run_loop(&plant, &mut ctl, &[0.3, 0.7], 25);
        ctl.restore_state(&snap).unwrap();
        let a = ctl.step(&[1.0, -0.5], &[0.2, 0.1]).unwrap();
        let b = twin.step(&[1.0, -0.5], &[0.2, 0.1]).unwrap();
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Wrong length is a typed error, not a panic.
        assert!(ctl.restore_state(&snap[..snap.len() - 1]).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let plant = siso_plant();
        let mut ctl = LqgTracker::design(&plant, LqgWeights::default()).unwrap();
        run_loop(&plant, &mut ctl, &[5.0], 50);
        ctl.reset();
        let u = ctl.step(&[0.0], &[0.0]).unwrap();
        assert!(u[0].abs() < 1e-12);
    }

    #[test]
    fn continuous_plant_rejected() {
        let cont = StateSpace::new(
            Mat::filled(1, 1, -1.0),
            Mat::identity(1),
            Mat::identity(1),
            Mat::zeros(1, 1),
            None,
        )
        .unwrap();
        assert!(LqgTracker::design(&cont, LqgWeights::default()).is_err());
    }

    #[test]
    fn feedthrough_plant_rejected() {
        let d = StateSpace::new(
            Mat::filled(1, 1, 0.5),
            Mat::identity(1),
            Mat::identity(1),
            Mat::identity(1),
            Some(1.0),
        )
        .unwrap();
        assert!(LqgTracker::design(&d, LqgWeights::default()).is_err());
    }

    #[test]
    fn saturated_input_feedback_keeps_estimator_honest() {
        // If the applied input is clamped, telling the estimator prevents
        // estimate divergence compared to not telling it.
        let plant = siso_plant();
        let mut ctl = LqgTracker::design(&plant, LqgWeights::default()).unwrap();
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        for _ in 0..200 {
            let u_raw = ctl.step(&[10.0], &[y]).unwrap()[0];
            let u_applied = u_raw.clamp(-1.0, 1.0);
            ctl.set_applied_input(&[u_applied]).unwrap();
            x = 0.9 * x + 0.2 * u_applied;
            y = x;
        }
        // The plant saturates near u=1 → y ≈ 0.2/(1−0.9) = 2.0.
        assert!((y - 2.0).abs() < 0.1, "y = {y}");
    }

    #[test]
    fn wrong_vector_lengths_are_typed_errors() {
        let plant = siso_plant();
        let mut ctl = LqgTracker::design(&plant, LqgWeights::default()).unwrap();
        assert!(matches!(
            ctl.step(&[1.0, 2.0], &[0.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            ctl.set_applied_input(&[1.0, 2.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        // The failed calls must not have perturbed the controller state.
        let u = ctl.step(&[0.0], &[0.0]).unwrap();
        assert!(u[0].abs() < 1e-12);
    }

    #[test]
    fn unstable_plant_is_stabilized() {
        let plant = StateSpace::new(
            Mat::filled(1, 1, 1.2),
            Mat::filled(1, 1, 0.5),
            Mat::identity(1),
            Mat::zeros(1, 1),
            Some(0.5),
        )
        .unwrap();
        let mut ctl = LqgTracker::design(&plant, LqgWeights::default()).unwrap();
        let y = run_loop(&plant, &mut ctl, &[1.0], 300);
        assert!((y[0] - 1.0).abs() < 0.05, "y = {}", y[0]);
    }
}
