//! The runtime side of online loop-health telemetry (DESIGN.md §16):
//! [`HealthTap`] distills each [`JournalRecord`] into the six scalar
//! health signals of [`yukta_obs::health::HealthSample`] and feeds them to
//! the streaming [`HealthMonitor`].
//!
//! The tap is a pure observer: it owns a copy of the design's identified
//! plant model and runs it open loop alongside the real board, so the
//! *model residual* — the gap between what the deployed model predicts and
//! what the sensors report — is exactly the quantity the µ guardband was
//! sized to absorb. Residuals are computed in the normalized signal space
//! of Table II ([`SignalRanges::xu3`]), so `residual / Δ` is the fraction
//! of the uncertainty budget the plant is currently consuming.
//!
//! Determinism contract: observing never touches the board, the engine, or
//! the recorder. A monitored-but-not-acting run is bit-identical to a bare
//! run; telemetry emission happens in the runtime and only under
//! [`Recorder::enabled`].

use yukta_control::ss::StateSpace;
use yukta_linalg::{Error, Mat, Result};
use yukta_obs::health::{HealthConfig, HealthMonitor, HealthSample, HealthStats, HealthVerdict};
use yukta_obs::{Recorder, Value};

use crate::controllers::check_widths;
use crate::design::Design;
use crate::recorder::JournalRecord;
use crate::signals::{ActuatorGrids, SignalRanges};
use crate::supervisor::SupervisorMode;

/// Combined hardware + software input width (Table II's 4 knobs plus
/// Table III's 3), the input width of [`Design::hw_model_full`].
const N_U: usize = 7;

/// Measured output width of the identified plant model (Table II).
const N_Y: usize = 4;

/// Tolerance for "pinned at a grid rail" in physical actuator units. The
/// grids step in ≥ 0.1 increments, so anything within a millistep of a
/// rail is the rail.
const RAIL_EPS: f64 = 1e-6;

/// Adaptation rate of the prediction-bias EMA (time constant ≈ 20
/// controller periods = 10 s): fast enough to absorb the thermal creep of
/// the operating-point offset, slow enough that an abrupt plant change
/// spends many periods as a visible residual before being re-absorbed.
const BIAS_ALPHA: f64 = 0.05;

/// How many `(u, y)` pairs the tap retains for online re-identification:
/// 256 controller periods = 128 s of history, enough for a second-order
/// ARX fit while staying fixed-size (no steady-state allocation).
pub const REFIT_HISTORY_CAP: usize = 256;

/// Streams [`JournalRecord`]s into loop-health signals and the drift /
/// phase-change detectors.
#[derive(Clone)]
pub struct HealthTap {
    monitor: HealthMonitor,
    /// The reference plant model run open loop, stacked so each step is
    /// one product over `[x; u]`: `[A B]` (replaced on refit).
    ab: Mat,
    /// `[C D]` of the reference model.
    cd: Mat,
    /// Uncertainty radius Δ the deployed synthesis guardbanded against.
    delta: f64,
    /// Open-loop model state and the input driving it, stacked `[x; u]`.
    xu: Vec<f64>,
    /// The next state, written by [`HealthTap::advance`] into the head
    /// and swapped in.
    xu_next: Vec<f64>,
    /// Input committed at the previous step (the one this step's
    /// measurement responds to); `None` before the first actuation.
    u_prev: Option<[f64; N_U]>,
    /// Slow EMA of the per-output prediction error. The identified model
    /// is DC-calibrated to *local delta gains* around the operating point
    /// (a deviation model), so absolute open-loop prediction carries an
    /// affine offset that also creeps with temperature; the residual is
    /// judged after subtracting this bias, so it measures *changes* in
    /// the plant's local behavior, not the standing offset. `None` until
    /// the first prediction seeds it.
    bias: Option<[f64; N_Y]>,
    /// Normalized `(u, y)` history for re-identification: a ring of
    /// [`REFIT_HISTORY_CAP`] pairs, filled in order, then overwritten
    /// oldest first at `hist_oldest`.
    hist_u: Vec<[f64; N_U]>,
    hist_y: Vec<[f64; N_Y]>,
    hist_oldest: usize,
}

impl HealthTap {
    /// Builds a tap against the experiment's design: the residual model is
    /// [`Design::hw_model_full`] and the margin denominator is
    /// [`Design::hw_uncertainty_used`].
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] (op `health_config`) if
    /// [`HealthConfig::validate`] fails; [`Error::DimensionMismatch`] if
    /// the model does not map the 7 inputs to the 4 hardware outputs.
    pub fn new(design: &Design, cfg: HealthConfig) -> Result<Self> {
        let (ab, cd) = stack(&design.hw_model_full)?;
        // The dynamic detail is available from `HealthConfig::validate`.
        let mut monitor = HealthMonitor::new(cfg).map_err(|_| Error::NoSolution {
            op: "health_config",
            why: "invalid health configuration (see HealthConfig::validate)",
        })?;
        // Treat run start like a hot-swap: the loop spends its first
        // seconds ramping from the reset actuation to the operating point,
        // and a baseline learned on that transient reads the settled
        // regime as a persistent shift. The re-arm hold-off skips it.
        monitor.rearm();
        let n_xu = ab.cols();
        Ok(HealthTap {
            monitor,
            ab,
            cd,
            delta: design.hw_uncertainty_used.max(1e-9),
            xu: vec![0.0; n_xu],
            xu_next: vec![0.0; n_xu],
            u_prev: None,
            bias: None,
            hist_u: Vec::with_capacity(REFIT_HISTORY_CAP),
            hist_y: Vec::with_capacity(REFIT_HISTORY_CAP),
            hist_oldest: 0,
        })
    }

    /// Distills one invocation record into a [`HealthSample`], advances
    /// the open-loop model, and runs the detectors. Pure with respect to
    /// the run: no I/O, no recorder. It does not allocate: the history
    /// ring is reserved at [`REFIT_HISTORY_CAP`] up front.
    pub fn observe(&mut self, r: &JournalRecord) -> HealthVerdict {
        let u = self.normalized_input(r);
        let y = SignalRanges::xu3().norm_hw_outputs(&r.hw_sense.outputs);
        // The sense at step k was taken before this step's actuation, so
        // it responds to the *previous* input. One-step-ahead prediction:
        // ŷ_k = C x_k + D u_{k−1}; residual in ∞-norm of normalized units.
        let residual = match self.u_prev {
            Some(up) => {
                let pred = self.predict(&up);
                let mut err = [0.0; N_Y];
                for i in 0..N_Y {
                    err[i] = pred[i] - y[i];
                }
                let bias = self.bias.get_or_insert(err);
                let r = (0..N_Y)
                    .map(|i| (err[i] - bias[i]).abs())
                    .fold(0.0f64, f64::max);
                for i in 0..N_Y {
                    bias[i] += BIAS_ALPHA * (err[i] - bias[i]);
                }
                r
            }
            None => 0.0,
        };
        self.advance(&u);
        self.u_prev = Some(u);
        if self.hist_u.len() < REFIT_HISTORY_CAP {
            self.hist_u.push(u);
            self.hist_y.push(y);
        } else {
            self.hist_u[self.hist_oldest] = u;
            self.hist_y[self.hist_oldest] = y;
            self.hist_oldest = (self.hist_oldest + 1) % REFIT_HISTORY_CAP;
        }
        let sample = HealthSample {
            residual,
            margin: residual / self.delta,
            saturation: self.saturation_frac(r),
            degraded: r.mode.is_some_and(|m| m != SupervisorMode::Primary),
            slo_burn: if r.hw_sense.slo.active {
                r.hw_sense.slo.p99_s / r.hw_sense.limits.latency_slo_s.max(1e-9)
            } else {
                0.0
            },
            bips_per_watt: r.hw_sense.outputs.perf
                / (r.hw_sense.outputs.p_big + r.hw_sense.outputs.p_little).max(1e-9),
        };
        self.monitor.observe(&sample)
    }

    /// Fraction of the 7 actuation components pinned at a grid rail this
    /// step — the classic symptom of a plant that drifted outside the
    /// model's envelope (the linear controller winds up against limits).
    fn saturation_frac(&self, r: &JournalRecord) -> f64 {
        let (hw, os) = (r.hw_u.to_vec(), r.os_u.to_vec());
        let pinned = hw
            .iter()
            .chain(&os)
            .zip(ActuatorGrids::xu3().knobs())
            .filter(|&(&v, g)| (v - g.min()).abs() < RAIL_EPS || (v - g.max()).abs() < RAIL_EPS)
            .count();
        pinned as f64 / N_U as f64
    }

    fn normalized_input(&self, r: &JournalRecord) -> [f64; N_U] {
        let ranges = SignalRanges::xu3();
        let hw = ranges.norm_hw_inputs(&r.hw_u);
        let os = ranges.norm_os_inputs(&r.os_u);
        [hw[0], hw[1], hw[2], hw[3], os[0], os[1], os[2]]
    }

    /// `ŷ = [C D]·[x; u]` against the current reference model: from
    /// `0.0`, the `x` terms, then the `u` terms.
    fn predict(&mut self, u: &[f64; N_U]) -> [f64; N_Y] {
        let n = self.xu.len() - N_U;
        self.xu[n..].copy_from_slice(u);
        let mut out = [0.0; N_Y];
        self.cd
            .matvec_into(&self.xu, &mut out)
            .expect("stacked model widths are checked on install");
        out
    }

    /// `x ← [A B]·[x; u]`, through the second state buffer.
    fn advance(&mut self, u: &[f64; N_U]) {
        let n = self.xu.len() - N_U;
        self.xu[n..].copy_from_slice(u);
        self.ab
            .matvec_into(&self.xu, &mut self.xu_next[..n])
            .expect("stacked model widths are checked on install");
        std::mem::swap(&mut self.xu, &mut self.xu_next);
    }

    /// A copy of the retained normalized `(u, y)` history, oldest first —
    /// the training data for an online re-identification.
    pub fn history(&self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let split = self.hist_oldest;
        let u = self.hist_u[split..].iter().chain(&self.hist_u[..split]);
        let y = self.hist_y[split..].iter().chain(&self.hist_y[..split]);
        (
            u.map(|v| v.to_vec()).collect(),
            y.map(|v| v.to_vec()).collect(),
        )
    }

    /// Re-arms after a hot-swap: the detectors re-learn their baselines
    /// (holdoff per [`yukta_obs::health::REARM`]) and, when a refit produced a
    /// new plant model, the open-loop recursion restarts against it.
    pub fn rearm_after_swap(&mut self, refit: Option<StateSpace>) {
        if let Some(model) = refit {
            if let Ok((ab, cd)) = stack(&model) {
                self.xu = vec![0.0; ab.cols()];
                self.xu_next = vec![0.0; ab.cols()];
                self.u_prev = None;
                self.bias = None;
                self.ab = ab;
                self.cd = cd;
            }
        }
        self.monitor.rearm();
    }

    /// Detector + aggregate statistics so far.
    pub fn stats(&self) -> HealthStats {
        self.monitor.stats()
    }

    /// Emits the run-end health gauges (`health.*`) to a recorder. Called
    /// by the runtime after the loop, and only when recording is enabled —
    /// never on the hot path.
    pub fn publish(&self, rec: &dyn Recorder) {
        let s = self.stats();
        rec.gauge_set("health.samples", s.samples as f64);
        rec.gauge_set("health.residual_mean", s.residual_mean);
        rec.gauge_set("health.margin_mean", s.margin_mean);
        rec.gauge_set("health.margin_recent", s.margin_recent);
        rec.gauge_set("health.saturation_duty", s.saturation_duty);
        rec.gauge_set("health.degraded_duty", s.degraded_duty);
        rec.gauge_set("health.slo_burn_mean", s.slo_burn_mean);
        rec.gauge_set("health.alarms", s.alarms as f64);
        if let Some(q) = s.bips_per_watt.quantile(0.5) {
            rec.gauge_set("health.bips_per_watt_p50", q);
        }
        if let Some(q) = s.bips_per_watt.quantile(0.99) {
            rec.gauge_set("health.bips_per_watt_p99", q);
        }
    }
}

/// `([A B], [C D])` of a reference model mapping the 7 inputs to the 4
/// hardware outputs.
///
/// # Errors
///
/// [`Error::DimensionMismatch`] for any other shape.
fn stack(model: &StateSpace) -> Result<(Mat, Mat)> {
    check_widths("health_model", model, N_U, N_Y)?;
    Ok((
        Mat::hstack(model.a(), model.b())?,
        Mat::hstack(model.c(), model.d())?,
    ))
}

/// Emits one `health.verdict` event for a non-healthy verdict. Healthy
/// steps are silent — the verdict stream is an exception log, not a
/// heartbeat. The caller gates on [`Recorder::enabled`].
pub fn emit_verdict(rec: &dyn Recorder, step: u64, verdict: HealthVerdict) {
    match verdict {
        HealthVerdict::Healthy => {}
        HealthVerdict::Drifting { score } => rec.event(
            "health.verdict",
            &[
                ("step", Value::U64(step)),
                ("verdict", Value::Str("drifting")),
                ("score", Value::F64(score)),
            ],
        ),
        HealthVerdict::PhaseChange { at_step } => rec.event(
            "health.verdict",
            &[
                ("step", Value::U64(step)),
                ("verdict", Value::Str("phase_change")),
                ("score", Value::F64(at_step as f64)),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::{HwSense, OsSense};
    use crate::design::default_design;
    use crate::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs, SloSense};

    fn record(step: u64, perf: f64, f_big: f64) -> JournalRecord {
        let hw_u = HwInputs {
            big_cores: 4.0,
            little_cores: 4.0,
            f_big,
            f_little: 1.0,
        };
        let os_u = OsInputs {
            threads_big: 4.0,
            packing_big: 1.0,
            packing_little: 1.0,
        };
        let outputs = HwOutputs {
            perf,
            p_big: 2.0,
            p_little: 0.2,
            temp: 60.0,
        };
        let hw_sense = HwSense {
            outputs,
            ext: os_u,
            current: hw_u,
            active_threads: 4,
            slo: SloSense::default(),
            limits: Limits::default(),
        };
        let os_sense = OsSense {
            outputs: OsOutputs {
                perf_little: perf * 0.3,
                perf_big: perf * 0.7,
                spare_diff: 0.0,
            },
            ext: hw_u,
            current: os_u,
            active_threads: 4,
            system: outputs,
            slo: SloSense::default(),
            limits: Limits::default(),
        };
        JournalRecord {
            step,
            time: step as f64 * 0.5,
            hw_sense,
            os_sense,
            hw_u,
            os_u,
            mode: Some(SupervisorMode::Primary),
            fault_events: Vec::new(),
        }
    }

    #[test]
    fn tap_is_deterministic_and_pure() {
        let design = default_design();
        let mut a = HealthTap::new(design, HealthConfig::default()).unwrap();
        let mut b = a.clone();
        for step in 0..200 {
            let r = record(step, 5.0 + (step % 7) as f64 * 0.1, 1.6);
            let va = a.observe(&r);
            let vb = b.observe(&r);
            assert_eq!(va, vb, "divergence at step {step}");
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.samples, sb.samples);
        assert_eq!(sa.residual_mean.to_bits(), sb.residual_mean.to_bits());
    }

    #[test]
    fn saturation_counts_rail_pinned_components() {
        let design = default_design();
        let tap = HealthTap::new(design, HealthConfig::default()).unwrap();
        // f_big at the 2.0 GHz rail, both core counts at the 4-core rail,
        // packing at the 1.0 rail twice: 5 of 7 components pinned
        // (threads_big = 4 and f_little = 1.0 are interior on their grids).
        let r = record(0, 5.0, 2.0);
        let frac = tap.saturation_frac(&r);
        assert!((frac - 5.0 / 7.0).abs() < 1e-12, "got {frac}");
    }

    #[test]
    fn history_is_capped_and_ordered() {
        let design = default_design();
        let mut tap = HealthTap::new(design, HealthConfig::default()).unwrap();
        let total = REFIT_HISTORY_CAP as u64 + 50;
        let ranges = SignalRanges::xu3();
        let perf = |step: u64| 2.0 + 0.01 * step as f64;
        for step in 0..total {
            tap.observe(&record(step, perf(step), 1.6));
        }
        let (u, y) = tap.history();
        assert_eq!(u.len(), REFIT_HISTORY_CAP);
        assert_eq!(y.len(), REFIT_HISTORY_CAP);
        assert_eq!(u[0].len(), N_U);
        assert_eq!(y[0].len(), N_Y);
        // Oldest first: the last REFIT_HISTORY_CAP steps, in step order.
        for (k, yk) in y.iter().enumerate() {
            let step = total - REFIT_HISTORY_CAP as u64 + k as u64;
            let want = ranges.norm_hw_outputs(&record(step, perf(step), 1.6).hw_sense.outputs);
            assert_eq!(yk.as_slice(), want.as_slice(), "entry {k}");
        }
    }

    /// The two-loop open-loop recursion the stacked model replaced: `C x`
    /// then `D u` (and `A x` then `B u`) summed into one accumulator per
    /// output from `0.0`.
    struct TwoLoop {
        model: StateSpace,
        x: Vec<f64>,
    }

    impl TwoLoop {
        fn new(model: &StateSpace) -> Self {
            TwoLoop {
                model: model.clone(),
                x: vec![0.0; model.order()],
            }
        }

        fn predict(&self, u: &[f64; N_U]) -> [f64; N_Y] {
            let (c, d) = (self.model.c(), self.model.d());
            let mut out = [0.0; N_Y];
            for (i, o) in out.iter_mut().enumerate() {
                for (j, xj) in self.x.iter().enumerate() {
                    *o += c[(i, j)] * xj;
                }
                for (j, uj) in u.iter().enumerate() {
                    *o += d[(i, j)] * uj;
                }
            }
            out
        }

        fn advance(&mut self, u: &[f64; N_U]) {
            let (a, b) = (self.model.a(), self.model.b());
            let mut next = vec![0.0; self.x.len()];
            for (i, nx) in next.iter_mut().enumerate() {
                for (j, xj) in self.x.iter().enumerate() {
                    *nx += a[(i, j)] * xj;
                }
                for (j, uj) in u.iter().enumerate() {
                    *nx += b[(i, j)] * uj;
                }
            }
            self.x = next;
        }
    }

    /// Drives the tap's recursion and the two-loop one with the same
    /// inputs and compares predictions and states bit for bit.
    fn assert_matches_two_loop(tap: &mut HealthTap, old: &mut TwoLoop, steps: usize, phase: f64) {
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let input = |k: usize| -> [f64; N_U] {
            std::array::from_fn(|j| (0.3 * k as f64 + 0.9 * j as f64 + phase).sin())
        };
        for k in 1..=steps {
            // As in `observe`: predict with the previous input, advance
            // with this one.
            let (up, u) = (input(k - 1), input(k));
            assert_eq!(
                bits(&tap.predict(&up)),
                bits(&old.predict(&up)),
                "prediction {k}"
            );
            tap.advance(&u);
            old.advance(&u);
            let n = old.x.len();
            assert_eq!(bits(&tap.xu[..n]), bits(&old.x), "state {k}");
        }
    }

    #[test]
    fn stacked_model_matches_the_two_loop_recursion_bits() {
        let design = default_design();
        let mut tap = HealthTap::new(design, HealthConfig::default()).unwrap();
        let mut old = TwoLoop::new(&design.hw_model_full);
        assert_matches_two_loop(&mut tap, &mut old, 200, 0.0);
        // A refit model of another order: the recursion restarts on it.
        let mut s = 11u64;
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
        let n = design.hw_model_full.order() + 3;
        let a = Mat::from_vec(n, n, draw(n * n));
        let refit = StateSpace::new(
            a.scale(0.9 / a.inf_norm()),
            Mat::from_vec(n, N_U, draw(n * N_U)),
            Mat::from_vec(N_Y, n, draw(N_Y * n)),
            Mat::from_vec(N_Y, N_U, draw(N_Y * N_U)),
            Some(0.5),
        )
        .unwrap();
        tap.rearm_after_swap(Some(refit.clone()));
        let mut old = TwoLoop::new(&refit);
        assert_matches_two_loop(&mut tap, &mut old, 200, 1.7);
    }

    #[test]
    fn rearm_installs_a_shape_matched_model_only() {
        let design = default_design();
        let mut tap = HealthTap::new(design, HealthConfig::default()).unwrap();
        tap.observe(&record(0, 5.0, 1.6));
        // A wrong-shape model is ignored; the monitor still re-arms.
        let wrong = StateSpace::from_gain(yukta_linalg::Mat::identity(2), Some(0.5));
        tap.rearm_after_swap(Some(wrong));
        assert!(tap.u_prev.is_some(), "wrong-shape model must not reset");
        let right = design.hw_model_full.clone();
        tap.rearm_after_swap(Some(right));
        assert!(tap.u_prev.is_none(), "matched model restarts the recursion");
    }
}
