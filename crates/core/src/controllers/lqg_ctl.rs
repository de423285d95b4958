//! LQG baselines of Section VI-B.
//!
//! LQG controllers cannot take external signals, so only two multilayer
//! arrangements exist: fully decoupled per-layer controllers, or one
//! monolithic controller spanning both layers (the configuration of the
//! paper's ISCA'16 predecessor). Both also lack output bounds,
//! quantization awareness, and uncertainty guardbands — the gap the
//! evaluation quantifies.
//!
//! LQG is quantization-blind: it emits continuous commands and the
//! deployment snaps them onto the actuator grids, feeding the snapped
//! values back so the estimator at least tracks reality. The optimizers
//! own the tracked targets.

use yukta_control::lqg::LqgTracker;
use yukta_linalg::Result;

use crate::controllers::{ControllerState, HwPolicy, HwSense, OsPolicy, OsSense, check_widths};
use crate::optimizer::{HwOptimizer, OsOptimizer};
use crate::signals::{ActuatorGrids, HwInputs, OsInputs, SignalRanges};

/// Decoupled hardware-layer LQG controller (no external signals).
#[derive(Debug, Clone)]
pub struct LqgHwController {
    tracker: LqgTracker,
    optimizer: HwOptimizer,
}

impl LqgHwController {
    /// Deploys a tracker designed on the hardware-only model (4 inputs →
    /// 4 outputs, normalized).
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::DimensionMismatch`] if the tracker's plant
    /// is not 4×4.
    pub fn new(tracker: LqgTracker, optimizer: HwOptimizer) -> Result<Self> {
        check_widths("hw_lqg", tracker.plant(), 4, 4)?;
        Ok(LqgHwController { tracker, optimizer })
    }
}

impl HwPolicy for LqgHwController {
    fn invoke(&mut self, sense: &HwSense) -> Result<HwInputs> {
        let (ranges, grids) = (SignalRanges::xu3(), ActuatorGrids::xu3());
        let targets = self.optimizer.update(&sense.outputs);
        let r = ranges.norm_hw_outputs(&targets);
        let y = ranges.norm_hw_outputs(&sense.outputs);
        let u = self.tracker.step(&r, &y)?;
        let out = ranges.snap_hw(grids, u);
        self.tracker
            .set_applied_input(&ranges.norm_hw_inputs(&out))?;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "hw-lqg"
    }

    fn reset(&mut self) {
        self.tracker.reset();
    }

    /// Floats: tracker state, then the optimizer payload. Ints: the
    /// optimizer's ints.
    fn save_state(&self) -> ControllerState {
        let mut s = ControllerState::stateless(self.name());
        s.floats = self.tracker.save_state();
        self.optimizer.save_state(&mut s.floats, &mut s.ints);
        s
    }

    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        let (n, (nf, ni)) = (self.tracker.state_len(), HwOptimizer::STATE_LEN);
        state.check(self.name(), n + nf, ni)?;
        self.tracker.restore_state(&state.floats[..n])?;
        self.optimizer
            .restore_state(&state.floats[n..], &state.ints);
        Ok(())
    }
}

/// Decoupled software-layer LQG controller (no external signals).
#[derive(Debug, Clone)]
pub struct LqgOsController {
    tracker: LqgTracker,
    optimizer: OsOptimizer,
}

impl LqgOsController {
    /// Deploys a tracker designed on the software-only model (3 inputs →
    /// 3 outputs, normalized).
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::DimensionMismatch`] if the tracker's plant
    /// is not 3×3.
    pub fn new(tracker: LqgTracker, optimizer: OsOptimizer) -> Result<Self> {
        check_widths("os_lqg", tracker.plant(), 3, 3)?;
        Ok(LqgOsController { tracker, optimizer })
    }
}

impl OsPolicy for LqgOsController {
    fn invoke(&mut self, sense: &OsSense) -> Result<OsInputs> {
        let (ranges, grids) = (SignalRanges::xu3(), ActuatorGrids::xu3());
        let targets = self.optimizer.update(&sense.outputs, &sense.system);
        let r = ranges.norm_os_outputs(&targets);
        let y = ranges.norm_os_outputs(&sense.outputs);
        let u = self.tracker.step(&r, &y)?;
        let out = ranges.snap_os(grids, u, sense.active_threads);
        self.tracker
            .set_applied_input(&ranges.norm_os_inputs(&out))?;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "os-lqg"
    }

    fn reset(&mut self) {
        self.tracker.reset();
    }

    /// Floats: tracker state, then the optimizer payload. Ints: the
    /// optimizer's ints.
    fn save_state(&self) -> ControllerState {
        let mut s = ControllerState::stateless(self.name());
        s.floats = self.tracker.save_state();
        self.optimizer.save_state(&mut s.floats, &mut s.ints);
        s
    }

    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        let (n, (nf, ni)) = (self.tracker.state_len(), OsOptimizer::STATE_LEN);
        state.check(self.name(), n + nf, ni)?;
        self.tracker.restore_state(&state.floats[..n])?;
        self.optimizer
            .restore_state(&state.floats[n..], &state.ints);
        Ok(())
    }
}

/// Monolithic LQG controller spanning both layers: one tracker over the
/// joint 7-input, 7-output model (the configuration of the paper's reference \[35\]).
#[derive(Debug, Clone)]
pub struct MonolithicLqg {
    tracker: LqgTracker,
    hw_optimizer: HwOptimizer,
    os_optimizer: OsOptimizer,
}

impl MonolithicLqg {
    /// Deploys a tracker designed on the joint model: inputs
    /// `[u_hw(4); u_os(3)]`, outputs `[y_hw(4); y_os(3)]`, normalized.
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::DimensionMismatch`] if the tracker's plant
    /// is not 7×7.
    pub fn new(
        tracker: LqgTracker,
        hw_optimizer: HwOptimizer,
        os_optimizer: OsOptimizer,
    ) -> Result<Self> {
        check_widths("monolithic_lqg", tracker.plant(), 7, 7)?;
        Ok(MonolithicLqg {
            tracker,
            hw_optimizer,
            os_optimizer,
        })
    }

    /// One joint invocation over both layers' sensors; returns the full
    /// cross-layer actuation.
    ///
    /// # Errors
    ///
    /// Same contract as [`HwPolicy::invoke`].
    pub fn invoke(&mut self, hw: &HwSense, os: &OsSense) -> Result<(HwInputs, OsInputs)> {
        let (ranges, grids) = (SignalRanges::xu3(), ActuatorGrids::xu3());
        let hw_targets = self.hw_optimizer.update(&hw.outputs);
        let os_targets = self.os_optimizer.update(&os.outputs, &hw.outputs);
        let rh = ranges.norm_hw_outputs(&hw_targets);
        let ro = ranges.norm_os_outputs(&os_targets);
        let yh = ranges.norm_hw_outputs(&hw.outputs);
        let yo = ranges.norm_os_outputs(&os.outputs);
        let r = [rh[0], rh[1], rh[2], rh[3], ro[0], ro[1], ro[2]];
        let y = [yh[0], yh[1], yh[2], yh[3], yo[0], yo[1], yo[2]];
        let u = self.tracker.step(&r, &y)?;
        let hw_out = ranges.snap_hw(grids, &u[..4]);
        let os_out = ranges.snap_os(grids, &u[4..], os.active_threads);
        let hwn = ranges.norm_hw_inputs(&hw_out);
        let osn = ranges.norm_os_inputs(&os_out);
        self.tracker
            .set_applied_input(&[hwn[0], hwn[1], hwn[2], hwn[3], osn[0], osn[1], osn[2]])?;
        Ok((hw_out, os_out))
    }

    /// Clears the tracker's estimator/integrator state.
    pub fn reset(&mut self) {
        self.tracker.reset();
    }

    /// Snapshots the joint controller: tracker state, then both
    /// optimizers' payloads (hardware first).
    pub fn save_state(&self) -> ControllerState {
        let mut s = ControllerState::stateless("monolithic-lqg");
        s.floats = self.tracker.save_state();
        self.hw_optimizer.save_state(&mut s.floats, &mut s.ints);
        self.os_optimizer.save_state(&mut s.floats, &mut s.ints);
        s
    }

    /// Restores a snapshot taken by [`MonolithicLqg::save_state`]; same
    /// bit-identity contract as
    /// [`HwPolicy::restore_state`].
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::NoSolution`] on tag or shape mismatch.
    pub fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        let n = self.tracker.state_len();
        let ((hf, hi), (of, oi)) = (HwOptimizer::STATE_LEN, OsOptimizer::STATE_LEN);
        state.check("monolithic-lqg", n + hf + of, hi + oi)?;
        self.tracker.restore_state(&state.floats[..n])?;
        let (hw, os) = state.floats[n..].split_at(hf);
        self.hw_optimizer.restore_state(hw, &state.ints[..hi]);
        self.os_optimizer.restore_state(os, &state.ints[hi..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{HwOutputs, Limits, OsOutputs};
    use yukta_control::lqg::LqgWeights;
    use yukta_control::ss::StateSpace;
    use yukta_linalg::Mat;

    /// A stable normalized test model with n inputs and n outputs.
    fn model(n: usize) -> StateSpace {
        let mut a = Mat::zeros(n, n);
        let mut b = Mat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 0.6;
            b[(i, i)] = 0.3;
            if i + 1 < n {
                a[(i, i + 1)] = 0.05;
                b[(i, (i + 1) % n)] = 0.05;
            }
        }
        StateSpace::new(a, b, Mat::identity(n), Mat::zeros(n, n), Some(0.5)).unwrap()
    }

    fn hw_sense() -> HwSense {
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

    fn os_sense() -> OsSense {
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

    #[test]
    fn hw_lqg_emits_grid_values() {
        let tracker = LqgTracker::design(&model(4), LqgWeights::default()).unwrap();
        let mut c = LqgHwController::new(tracker, HwOptimizer::new(Limits::default())).unwrap();
        let u = c.invoke(&hw_sense()).unwrap();
        let g = ActuatorGrids::xu3();
        assert_eq!(g.f_big.quantize(u.f_big), u.f_big);
        assert!((0.2..=2.0).contains(&u.f_big));
    }

    #[test]
    fn os_lqg_respects_active_thread_count() {
        let tracker = LqgTracker::design(&model(3), LqgWeights::default()).unwrap();
        let mut c = LqgOsController::new(tracker, OsOptimizer::new()).unwrap();
        let mut s = os_sense();
        s.active_threads = 1;
        let u = c.invoke(&s).unwrap();
        assert!(u.threads_big <= 1.0);
    }

    #[test]
    fn monolithic_lqg_actuates_both_layers() {
        let tracker = LqgTracker::design(&model(7), LqgWeights::default()).unwrap();
        let mut c = MonolithicLqg::new(
            tracker,
            HwOptimizer::new(Limits::default()),
            OsOptimizer::new(),
        )
        .unwrap();
        let (hw, os) = c.invoke(&hw_sense(), &os_sense()).unwrap();
        assert!((1.0..=4.0).contains(&hw.big_cores));
        assert!((0.0..=8.0).contains(&os.threads_big));
    }

    #[test]
    fn save_restore_roundtrips_lqg_controllers_bit_for_bit() {
        let tracker = LqgTracker::design(&model(4), LqgWeights::default()).unwrap();
        let mut hw = LqgHwController::new(tracker, HwOptimizer::new(Limits::default())).unwrap();
        for _ in 0..6 {
            hw.invoke(&hw_sense()).unwrap();
        }
        let snap = hw.save_state();
        let mut twin = hw.clone();
        for _ in 0..9 {
            hw.invoke(&hw_sense()).unwrap();
        }
        hw.restore_state(&snap).unwrap();
        let a = hw.invoke(&hw_sense()).unwrap();
        let b = twin.invoke(&hw_sense()).unwrap();
        for (x, y) in a.to_vec().iter().zip(&b.to_vec()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        let tracker = LqgTracker::design(&model(7), LqgWeights::default()).unwrap();
        let mut mono = MonolithicLqg::new(
            tracker,
            HwOptimizer::new(Limits::default()),
            OsOptimizer::new(),
        )
        .unwrap();
        for _ in 0..5 {
            mono.invoke(&hw_sense(), &os_sense()).unwrap();
        }
        let snap = mono.save_state();
        let mut twin = mono.clone();
        for _ in 0..4 {
            mono.invoke(&hw_sense(), &os_sense()).unwrap();
        }
        mono.restore_state(&snap).unwrap();
        let (ah, ao) = mono.invoke(&hw_sense(), &os_sense()).unwrap();
        let (bh, bo) = twin.invoke(&hw_sense(), &os_sense()).unwrap();
        assert_eq!(ah.f_big.to_bits(), bh.f_big.to_bits());
        assert_eq!(ao.threads_big.to_bits(), bo.threads_big.to_bits());
        // Cross-policy snapshots are rejected.
        assert!(
            mono.restore_state(&ControllerState::stateless("hw-lqg"))
                .is_err()
        );
    }

    #[test]
    fn wrong_model_shape_is_a_typed_error() {
        let tracker = LqgTracker::design(&model(3), LqgWeights::default()).unwrap();
        assert!(matches!(
            LqgHwController::new(tracker.clone(), HwOptimizer::new(Limits::default())),
            Err(yukta_linalg::Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            MonolithicLqg::new(
                tracker,
                HwOptimizer::new(Limits::default()),
                OsOptimizer::new()
            ),
            Err(yukta_linalg::Error::DimensionMismatch { .. })
        ));
    }
}
