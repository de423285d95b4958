//! Runtime wrappers deploying the synthesized SSV controllers.
//!
//! Each wrapper owns the discrete controller state machine (Equations 3–4),
//! the layer's signal interface, and the optimizer module (Figure 5) that
//! owns the tracked targets. A fixed-target deployment is an optimizer
//! that is never stepped.

use yukta_control::dk::SsvSynthesis;
use yukta_control::runtime::ObsAwController;
use yukta_linalg::{Error, Result};

use crate::controllers::{ControllerState, HwPolicy, HwSense, OsPolicy, OsSense, check_widths};
use crate::optimizer::{HwOptimizer, OsOptimizer};
use crate::signals::{ActuatorGrids, HwInputs, HwOutputs, OsInputs, OsOutputs, SignalRanges};

/// What both SSV layers deploy alike: the observer-form runtime, the
/// signal interface, and the deployment switches.
#[derive(Debug, Clone)]
struct SsvRuntime {
    rt: ObsAwController,
    ranges: SignalRanges,
    grids: ActuatorGrids,
    /// The optimizer is never stepped, so the targets stay as set.
    fixed_targets: bool,
    ignore_external: bool,
    naive_quantization: bool,
}

impl SsvRuntime {
    fn new(syn: &SsvSynthesis, n_in: usize, n_out: usize) -> Result<Self> {
        check_widths("ssv_controller", &syn.controller, n_in, n_out)?;
        Ok(SsvRuntime {
            rt: ObsAwController::new(&syn.controller)?,
            ranges: SignalRanges::xu3(),
            grids: ActuatorGrids::xu3(),
            fixed_targets: false,
            ignore_external: false,
            naive_quantization: false,
        })
    }

    /// One invocation on normalized signals: the measurement vector is the
    /// target errors followed by the other layer's external signals
    /// (zeroed under the external-signal ablation), and `snap` pushes the
    /// normalized actuation a command lands on onto the buffer it is
    /// given. Returns the signal ranges and the applied input, normalized
    /// — the raw command under the naive-quantization ablation, whose
    /// observer believes the command went through unchanged (the board
    /// still snaps it downstream).
    fn step(
        &mut self,
        target: &[f64],
        measured: &[f64],
        ext: &[f64],
        snap: impl Fn(&SignalRanges, &ActuatorGrids, &[f64], &mut Vec<f64>),
    ) -> Result<(&SignalRanges, &[f64])> {
        // Both layers measure 7 signals: 4 errors + 3 external (HW), 3 + 4 (OS).
        let mut meas = [0.0; 7];
        let (errors, external) = meas.split_at_mut(target.len());
        for ((e, t), y) in errors.iter_mut().zip(target).zip(measured) {
            *e = t - y;
        }
        if !self.ignore_external {
            external.copy_from_slice(ext);
        }
        let (ranges, grids, naive) = (&self.ranges, &self.grids, self.naive_quantization);
        let quantize = |u: &[f64], out: &mut Vec<f64>| {
            if naive {
                out.extend_from_slice(u);
            } else {
                snap(ranges, grids, u, out);
            }
        };
        let (_, applied) = self.rt.step(&meas, &quantize)?;
        Ok((&self.ranges, applied))
    }

    /// Floats: observer state, then the optimizer payload. Ints: the
    /// fixed-target flag, then the optimizer's ints.
    fn save_state(
        &self,
        tag: &'static str,
        optimizer: impl FnOnce(&mut Vec<f64>, &mut Vec<i64>),
    ) -> ControllerState {
        let mut s = ControllerState::stateless(tag);
        s.floats.extend_from_slice(self.rt.state());
        s.ints.push(i64::from(self.fixed_targets));
        optimizer(&mut s.floats, &mut s.ints);
        s
    }

    /// Validates a snapshot taken by [`SsvRuntime::save_state`], restores
    /// the observer state, and returns the optimizer payload.
    fn restore_state<'a>(
        &mut self,
        state: &'a ControllerState,
        tag: &'static str,
        (optimizer_floats, optimizer_ints): (usize, usize),
    ) -> Result<(&'a [f64], &'a [i64])> {
        let n = self.rt.state().len();
        state.check(tag, n + optimizer_floats, 1 + optimizer_ints)?;
        if (state.ints[0] != 0) != self.fixed_targets {
            return Err(Error::NoSolution {
                op: "controller_restore_state",
                why: "fixed-target mismatch",
            });
        }
        self.rt.set_state(&state.floats[..n])?;
        Ok((&state.floats[n..], &state.ints[1..]))
    }
}

/// The hardware-layer SSV controller (Table II) at runtime.
#[derive(Debug, Clone)]
pub struct SsvHwController {
    ssv: SsvRuntime,
    optimizer: HwOptimizer,
}

impl SsvHwController {
    /// Deploys a synthesized controller with an E×D optimizer.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] unless the controller has 11 inputs (4
    /// output errors + 3 external signals + 4 applied inputs) and 4
    /// outputs; [`Error::NoSolution`] if it is not discrete.
    pub fn new(syn: &SsvSynthesis, optimizer: HwOptimizer) -> Result<Self> {
        Ok(SsvHwController {
            ssv: SsvRuntime::new(syn, 11, 4)?,
            optimizer,
        })
    }

    /// Ablation: run without coordination — the external-signal channels
    /// are zeroed at runtime (the controller was still synthesized with
    /// them; this measures the value of the information itself).
    pub fn without_external_signals(mut self) -> Self {
        self.ssv.ignore_external = true;
        self
    }

    /// Ablation: quantization-blind deployment — the observer propagates
    /// with the *commanded* input instead of the applied one, as a naive
    /// wrapper would. Measures the value of saturation/quantization
    /// awareness.
    pub fn with_naive_quantization(mut self) -> Self {
        self.ssv.naive_quantization = true;
        self
    }

    /// Deploys with fixed output targets (the Figure 15(a) experiment).
    ///
    /// # Errors
    ///
    /// As [`SsvHwController::new`].
    pub fn with_fixed_targets(syn: &SsvSynthesis, targets: HwOutputs) -> Result<Self> {
        let mut c = SsvHwController::new(syn, HwOptimizer::new(Default::default()))?;
        c.optimizer.targets = targets;
        c.ssv.fixed_targets = true;
        Ok(c)
    }

    /// The targets currently being tracked.
    pub fn targets(&self) -> HwOutputs {
        self.optimizer.targets
    }
}

impl HwPolicy for SsvHwController {
    fn invoke(&mut self, sense: &HwSense) -> Result<HwInputs> {
        if !self.ssv.fixed_targets {
            self.optimizer.update(&sense.outputs);
        }
        let r = &self.ssv.ranges;
        let ty = r.norm_hw_outputs(&self.optimizer.targets);
        let my = r.norm_hw_outputs(&sense.outputs);
        let ext = r.norm_os_inputs(&sense.ext);
        let (r, applied) = self.ssv.step(&ty, &my, &ext, |r, g, u, out| {
            out.extend_from_slice(&r.norm_hw_inputs(&r.snap_hw(g, u)));
        })?;
        Ok(r.denorm_hw_inputs(applied))
    }

    fn name(&self) -> &'static str {
        "hw-ssv"
    }

    fn reset(&mut self) {
        self.ssv.rt.reset();
    }

    fn save_state(&self) -> ControllerState {
        self.ssv
            .save_state(self.name(), |f, i| self.optimizer.save_state(f, i))
    }

    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        let (f, i) = self
            .ssv
            .restore_state(state, "hw-ssv", HwOptimizer::STATE_LEN)?;
        self.optimizer.restore_state(f, i);
        Ok(())
    }
}

/// The software-layer SSV controller (Table III) at runtime.
#[derive(Debug, Clone)]
pub struct SsvOsController {
    ssv: SsvRuntime,
    optimizer: OsOptimizer,
}

impl SsvOsController {
    /// Deploys a synthesized controller with an E×D optimizer.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] unless the controller has 10 inputs (3
    /// output errors + 4 external signals + 3 applied inputs) and 3
    /// outputs; [`Error::NoSolution`] if it is not discrete.
    pub fn new(syn: &SsvSynthesis, optimizer: OsOptimizer) -> Result<Self> {
        Ok(SsvOsController {
            ssv: SsvRuntime::new(syn, 10, 3)?,
            optimizer,
        })
    }

    /// Ablation: run without coordination (external signals zeroed).
    pub fn without_external_signals(mut self) -> Self {
        self.ssv.ignore_external = true;
        self
    }

    /// Ablation: quantization-blind deployment (see
    /// [`SsvHwController::with_naive_quantization`]).
    pub fn with_naive_quantization(mut self) -> Self {
        self.ssv.naive_quantization = true;
        self
    }

    /// Deploys with fixed output targets (the Figure 15(a) experiment).
    ///
    /// # Errors
    ///
    /// As [`SsvOsController::new`].
    pub fn with_fixed_targets(syn: &SsvSynthesis, targets: OsOutputs) -> Result<Self> {
        let mut c = SsvOsController::new(syn, OsOptimizer::new())?;
        c.optimizer.targets = targets;
        c.ssv.fixed_targets = true;
        Ok(c)
    }

    /// The targets currently being tracked.
    pub fn targets(&self) -> OsOutputs {
        self.optimizer.targets
    }
}

impl OsPolicy for SsvOsController {
    fn invoke(&mut self, sense: &OsSense) -> Result<OsInputs> {
        if !self.ssv.fixed_targets {
            self.optimizer.update(&sense.outputs, &sense.system);
        }
        let r = &self.ssv.ranges;
        let ty = r.norm_os_outputs(&self.optimizer.targets);
        let my = r.norm_os_outputs(&sense.outputs);
        let ext = r.norm_hw_inputs(&sense.ext);
        let n_active = sense.active_threads;
        let (r, applied) = self.ssv.step(&ty, &my, &ext, |r, g, u, out| {
            out.extend_from_slice(&r.norm_os_inputs(&r.snap_os(g, u, n_active)));
        })?;
        let u = r.denorm_os_inputs(applied);
        Ok(OsInputs {
            threads_big: u.threads_big.clamp(0.0, n_active as f64),
            packing_big: u.packing_big.clamp(1.0, 4.0),
            packing_little: u.packing_little.clamp(1.0, 4.0),
        })
    }

    fn name(&self) -> &'static str {
        "os-ssv"
    }

    fn reset(&mut self) {
        self.ssv.rt.reset();
    }

    fn save_state(&self) -> ControllerState {
        self.ssv
            .save_state(self.name(), |f, i| self.optimizer.save_state(f, i))
    }

    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        let (f, i) = self
            .ssv
            .restore_state(state, "os-ssv", OsOptimizer::STATE_LEN)?;
        self.optimizer.restore_state(f, i);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::Limits;
    use yukta_linalg::Mat;

    /// A stand-in synthesis result with the right I/O shape: a small
    /// static gain from errors to inputs and zero anti-windup gain.
    fn dummy_hw_synthesis() -> SsvSynthesis {
        let mut d = Mat::zeros(4, 11);
        for i in 0..4 {
            d[(i, i)] = 0.5;
        }
        SsvSynthesis {
            controller: yukta_control::ss::StateSpace::from_gain(d, Some(0.5)),
            gamma: 1.0,
            mu_peak: 1.0,
            scalings: vec![1.0],
            d_sections: Vec::new(),
            iterations: 1,
            guaranteed_bounds: vec![0.2; 4],
        }
    }

    fn dummy_os_synthesis() -> SsvSynthesis {
        let mut d = Mat::zeros(3, 10);
        for i in 0..3 {
            d[(i, i)] = 0.5;
        }
        SsvSynthesis {
            controller: yukta_control::ss::StateSpace::from_gain(d, Some(0.5)),
            gamma: 1.0,
            mu_peak: 1.0,
            scalings: vec![1.0],
            d_sections: Vec::new(),
            iterations: 1,
            guaranteed_bounds: vec![0.2; 3],
        }
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

    #[test]
    fn hw_outputs_land_on_actuator_grids() {
        let mut c =
            SsvHwController::new(&dummy_hw_synthesis(), HwOptimizer::new(Limits::default()))
                .unwrap();
        let u = c.invoke(&hw_sense()).unwrap();
        let g = ActuatorGrids::xu3();
        assert_eq!(g.f_big.quantize(u.f_big), u.f_big);
        assert_eq!(g.big_cores.quantize(u.big_cores), u.big_cores);
        assert!((1.0..=4.0).contains(&u.big_cores));
        assert!((0.2..=2.0).contains(&u.f_big));
    }

    #[test]
    fn fixed_targets_skip_the_optimizer() {
        let t = HwOutputs {
            perf: 5.5,
            p_big: 2.5,
            p_little: 0.2,
            temp: 70.0,
        };
        let mut c = SsvHwController::with_fixed_targets(&dummy_hw_synthesis(), t).unwrap();
        c.invoke(&hw_sense()).unwrap();
        c.invoke(&hw_sense()).unwrap();
        assert_eq!(c.targets(), t);
        // The snapshot carries the targets and the fixed-target flag.
        let snap = c.save_state();
        let mut twin =
            SsvHwController::with_fixed_targets(&dummy_hw_synthesis(), HwOutputs::default())
                .unwrap();
        twin.restore_state(&snap).unwrap();
        assert_eq!(twin.targets(), t);
        let mut optimizing =
            SsvHwController::new(&dummy_hw_synthesis(), HwOptimizer::new(Limits::default()))
                .unwrap();
        assert!(optimizing.restore_state(&snap).is_err());
    }

    #[test]
    fn wrong_controller_shape_is_a_typed_error() {
        let hw = SsvHwController::new(&dummy_os_synthesis(), HwOptimizer::new(Limits::default()));
        assert!(matches!(
            hw,
            Err(yukta_linalg::Error::DimensionMismatch { .. })
        ));
        let os = SsvOsController::new(&dummy_hw_synthesis(), OsOptimizer::new());
        assert!(matches!(
            os,
            Err(yukta_linalg::Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn optimizer_moves_targets_between_invocations() {
        let mut c =
            SsvHwController::new(&dummy_hw_synthesis(), HwOptimizer::new(Limits::default()))
                .unwrap();
        c.invoke(&hw_sense()).unwrap();
        let t1 = c.targets();
        c.invoke(&hw_sense()).unwrap();
        let t2 = c.targets();
        assert!((t2.perf - t1.perf).abs() > 1e-9);
    }

    #[test]
    fn save_restore_roundtrips_hw_controller_bit_for_bit() {
        let mut c =
            SsvHwController::new(&dummy_hw_synthesis(), HwOptimizer::new(Limits::default()))
                .unwrap();
        for _ in 0..5 {
            c.invoke(&hw_sense()).unwrap();
        }
        let snap = c.save_state();
        let mut twin = c.clone();
        // Diverge, then restore from the snapshot.
        for _ in 0..7 {
            c.invoke(&hw_sense()).unwrap();
        }
        c.restore_state(&snap).unwrap();
        for k in 0..4 {
            let mut sense = hw_sense();
            sense.outputs.perf += 0.1 * k as f64;
            let a = c.invoke(&sense).unwrap();
            let b = twin.invoke(&sense).unwrap();
            for (x, y) in a.to_vec().iter().zip(&b.to_vec()) {
                assert_eq!(x.to_bits(), y.to_bits(), "invocation {k}");
            }
        }
        assert_eq!(c.targets(), twin.targets());
        // A foreign snapshot is rejected with a typed error.
        let mut os = SsvOsController::new(&dummy_os_synthesis(), OsOptimizer::new()).unwrap();
        assert!(OsPolicy::restore_state(&mut os, &ControllerState::stateless("os-ssv")).is_err());
        assert!(HwPolicy::restore_state(&mut c, &ControllerState::stateless("os-ssv")).is_err());
    }

    /// The allocating SSV invocation the wrappers used to run, on
    /// one-row loops: command `D·[meas; 0] + C·x`, `snap` it, state
    /// `A·x + B·[meas; applied]`. Returns the applied input.
    fn hand_rolled_step(
        sys: &yukta_control::ss::StateSpace,
        x: &mut Vec<f64>,
        meas: &[f64],
        snap: impl Fn(&[f64]) -> Vec<f64>,
    ) -> Vec<f64> {
        let matvec = |a: &Mat, v: &[f64]| -> Vec<f64> {
            (0..a.rows())
                .map(|i| {
                    let mut acc = 0.0;
                    for (j, &vj) in v.iter().enumerate() {
                        acc += a[(i, j)] * vj;
                    }
                    acc
                })
                .collect()
        };
        let mut full_in = vec![0.0; sys.n_inputs()];
        full_in[..meas.len()].copy_from_slice(meas);
        let mut u = matvec(sys.d(), &full_in);
        for (ui, ci) in u.iter_mut().zip(&matvec(sys.c(), x)) {
            *ui += ci;
        }
        let applied = snap(&u);
        full_in[meas.len()..].copy_from_slice(&applied);
        let mut xn = matvec(sys.a(), x);
        for (xi, bi) in xn.iter_mut().zip(&matvec(sys.b(), &full_in)) {
            *xi += bi;
        }
        *x = xn;
        applied
    }

    fn os_sense(k: usize) -> OsSense {
        let w = k as f64;
        OsSense {
            outputs: OsOutputs {
                perf_little: 0.3 + 0.1 * (0.7 * w).sin(),
                perf_big: 2.0 + 0.8 * (0.3 * w).cos(),
                spare_diff: 0.2 * (1.1 * w).sin(),
            },
            ext: HwInputs {
                big_cores: 4.0,
                little_cores: 3.0,
                f_big: 1.2 + 0.4 * (0.5 * w).sin(),
                f_little: 1.0,
            },
            current: OsInputs {
                threads_big: 2.0,
                packing_big: 1.0,
                packing_little: 1.0,
            },
            active_threads: 2 + k % 5,
            system: HwOutputs::default(),
            slo: Default::default(),
            limits: Limits::default(),
        }
    }

    /// The deployed HW and OS controllers, with and without the
    /// naive-quantization ablation, actuate with the old allocating
    /// invocation's bits over 40 periods.
    #[test]
    fn deployed_invocations_match_the_allocating_step_bits() {
        let design = crate::design::default_design();
        let (r, g) = (SignalRanges::xu3(), ActuatorGrids::xu3());
        let t_hw = HwOutputs {
            perf: 4.0,
            p_big: 2.2,
            p_little: 0.3,
            temp: 65.0,
        };
        let t_os = OsOutputs {
            perf_little: 0.4,
            perf_big: 2.4,
            spare_diff: 0.0,
        };
        for naive in [false, true] {
            let mut hw = SsvHwController::with_fixed_targets(&design.hw_ssv, t_hw).unwrap();
            let mut os = SsvOsController::with_fixed_targets(&design.os_ssv, t_os).unwrap();
            if naive {
                hw = hw.with_naive_quantization();
                os = os.with_naive_quantization();
            }
            let mut x_hw = vec![0.0; design.hw_ssv.controller.order()];
            let mut x_os = vec![0.0; design.os_ssv.controller.order()];
            for k in 0..40 {
                let mut sense = hw_sense();
                sense.outputs.perf += 0.5 * (0.4 * k as f64).sin();
                sense.outputs.temp += (k % 7) as f64;
                let got = hw.invoke(&sense).unwrap();
                let (ty, my) = (r.norm_hw_outputs(&t_hw), r.norm_hw_outputs(&sense.outputs));
                let ext = r.norm_os_inputs(&sense.ext);
                let meas: Vec<f64> = (0..4).map(|i| ty[i] - my[i]).chain(ext).collect();
                let applied = hand_rolled_step(&design.hw_ssv.controller, &mut x_hw, &meas, |u| {
                    if naive {
                        u.to_vec()
                    } else {
                        r.norm_hw_inputs(&r.snap_hw(&g, u)).to_vec()
                    }
                });
                let want = r.denorm_hw_inputs(&applied);
                for (a, b) in got.to_vec().iter().zip(&want.to_vec()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "hw period {k}, naive {naive}");
                }

                let sense = os_sense(k);
                let got = os.invoke(&sense).unwrap();
                let (ty, my) = (r.norm_os_outputs(&t_os), r.norm_os_outputs(&sense.outputs));
                let ext = r.norm_hw_inputs(&sense.ext);
                let meas: Vec<f64> = (0..3).map(|i| ty[i] - my[i]).chain(ext).collect();
                let n_active = sense.active_threads;
                let applied = hand_rolled_step(&design.os_ssv.controller, &mut x_os, &meas, |u| {
                    if naive {
                        u.to_vec()
                    } else {
                        r.norm_os_inputs(&r.snap_os(&g, u, n_active)).to_vec()
                    }
                });
                let want = r.denorm_os_inputs(&applied);
                let want = [
                    want.threads_big.clamp(0.0, n_active as f64),
                    want.packing_big.clamp(1.0, 4.0),
                    want.packing_little.clamp(1.0, 4.0),
                ];
                let got = [got.threads_big, got.packing_big, got.packing_little];
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "os period {k}, naive {naive}");
                }
            }
        }
    }

    #[test]
    fn os_threads_never_exceed_active() {
        let mut c = SsvOsController::new(&dummy_os_synthesis(), OsOptimizer::new()).unwrap();
        let sense = OsSense {
            outputs: OsOutputs {
                perf_little: 0.3,
                perf_big: 2.0,
                spare_diff: 0.0,
            },
            ext: HwInputs {
                big_cores: 4.0,
                little_cores: 4.0,
                f_big: 1.6,
                f_little: 1.0,
            },
            current: OsInputs {
                threads_big: 4.0,
                packing_big: 1.0,
                packing_little: 1.0,
            },
            active_threads: 2,
            system: HwOutputs::default(),
            slo: Default::default(),
            limits: Limits::default(),
        };
        let u = c.invoke(&sense).unwrap();
        assert!(u.threads_big <= 2.0);
        assert!((1.0..=4.0).contains(&u.packing_big));
    }
}
