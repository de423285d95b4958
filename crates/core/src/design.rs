//! The end-to-end controller design pipeline of Figure 3.
//!
//! 1. **Characterize** — run the (disjoint) training workloads on the
//!    board while driving every actuator over its discrete grid with its
//!    own excitation schedule, recording normalized inputs, external
//!    signals, and outputs at the 500 ms controller period.
//! 2. **Identify** — fit black-box MIMO ARX models for each layer (the
//!    hardware model takes the OS inputs as measured external signals and
//!    vice versa), plus the layer-solo and joint models the LQG baselines
//!    need. Every model goes through [`identify_layer`] at the production
//!    [`SYSID_CONFIG`].
//! 3. **Synthesize** — run D–K iteration per layer at the production
//!    [`dk_options`] on the spec [`layer_spec`] builds from the Table
//!    II/III bounds, weights, and guardband.
//!
//! The default design is deterministic and cached process-wide
//! ([`default_design`]); sensitivity experiments build variants through
//! [`build_design`] with modified [`DesignOptions`].

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yukta_board::{Actuation, Board, BoardConfig, Cluster, Placement};
use yukta_control::dk::{DkOptions, SsvSynthesis, synthesize_ssv};
use yukta_control::plant::SsvSpec;
use yukta_control::ss::StateSpace;
use yukta_control::sysid::{
    IdModel, SysIdConfig, calibrate_dc_gains, fit_arx, validation_residual,
};
use yukta_linalg::{Error, Mat, Result};
use yukta_obs::Value;
use yukta_workloads::WorkloadRun;
use yukta_workloads::catalog::training;

use crate::CONTROL_PERIOD_S;
use crate::controllers::check_widths;
use crate::signals::{ActuatorGrids, SignalRanges, spare_capacity};

/// The excitation schedule used during characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExcitationKind {
    /// Per-channel maximum-length PRBS between the operating-region floor
    /// and the grid top, held for three controller periods per chip. Flat
    /// power across the band; the default.
    Prbs,
    /// Per-channel Schroeder multisine on an interleaved frequency comb:
    /// simultaneous channels are exactly orthogonal over the record.
    Multisine,
    /// The legacy bounded random walk (±3 grid steps every third period).
    /// Kept for ablation: its power collapses onto DC, which is what the
    /// PRBS/multisine schedules fix.
    RandomWalk,
}

/// Seconds of excitation per training workload.
const EXCITATION_SECS: f64 = 60.0;

// Guardband auto-tuning derives the uncertainty radius Δ from a held-out
// validation residual instead of a fixed Table II/III constant. A
// guardband much wider than the model's actual prediction error forces
// the µ synthesis to defend against plants that cannot occur, inflating
// µ̂ and detuning the controller; one narrower than the residual voids the
// robustness guarantee.

/// Safety factor applied to the measured validation residual.
const GUARDBAND_MARGIN: f64 = 1.25;

/// Floor of the tuned radius (never trust a residual of zero).
const GUARDBAND_MIN: f64 = 0.10;

/// Ceiling of the tuned radius (beyond this the synthesis gives up
/// performance for phantom robustness).
const GUARDBAND_MAX: f64 = 0.60;

/// Fraction of the excitation record held out for validation.
pub const HOLDOUT_FRAC: f64 = 0.25;

const _: () = assert!(GUARDBAND_MARGIN > 0.0 && 0.0 < GUARDBAND_MIN);
const _: () = assert!(GUARDBAND_MIN <= GUARDBAND_MAX);
const _: () = assert!(0.0 < HOLDOUT_FRAC && HOLDOUT_FRAC < 0.9);

/// The tuned radius for a measured validation residual (the worst-output
/// relative RMS one-step prediction error on a held-out tail of the
/// excitation record): `clamp(GUARDBAND_MARGIN · residual, GUARDBAND_MIN,
/// GUARDBAND_MAX)`.
pub fn guardband_radius(residual: f64) -> f64 {
    (GUARDBAND_MARGIN * residual).clamp(GUARDBAND_MIN, GUARDBAND_MAX)
}

/// One layer's `(residual, radius)`. With auto-tuning on, the layer is
/// re-fitted on the leading part of the record and the residual is
/// measured on the held-out tail: it bounds how wrong the production
/// model (fitted on all data, so at least as good) can be on unseen data.
/// With auto-tuning off: `(NaN, fixed)`.
fn tune_guardband(auto: bool, u: &[Vec<f64>], y: &[Vec<f64>], fixed: f64) -> Result<(f64, f64)> {
    if !auto {
        return Ok((f64::NAN, fixed));
    }
    let (u, y) = align_for_arx(u, y);
    let split = ((1.0 - HOLDOUT_FRAC) * u.len() as f64) as usize;
    let train = fit(&u[..split], &y[..split])?;
    let residual = validation_residual(&u[split..], &y[split..], &train)?;
    Ok((residual, guardband_radius(residual)))
}

/// Designer-facing knobs (Tables II and III), exposed so the sensitivity
/// experiments of Section VI-E can sweep them.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOptions {
    /// HW output deviation bounds (Perf, P_big, P_little, Temp) as range
    /// fractions.
    pub hw_bounds: [f64; 4],
    /// HW input weights (#big, #little, f_big, f_little).
    pub hw_weights: [f64; 4],
    /// HW uncertainty guardband (used as-is when `auto_guardband` is off;
    /// otherwise the auto-tuner overrides it).
    pub hw_uncertainty: f64,
    /// OS output deviation bounds (Perf_little, Perf_big, ΔSC).
    pub os_bounds: [f64; 3],
    /// OS input weights (threads_big, packing_big, packing_little).
    pub os_weights: [f64; 3],
    /// OS uncertainty guardband (see `hw_uncertainty`).
    pub os_uncertainty: f64,
    /// Seed of the excitation schedules (every actuator channel derives
    /// its own salted stream from this).
    pub seed: u64,
    /// Excitation schedule family.
    pub excitation: ExcitationKind,
    /// Tune each layer's Δ from its held-out validation residual
    /// ([`guardband_radius`]); `false` keeps the fixed
    /// `hw_uncertainty`/`os_uncertainty` values.
    pub auto_guardband: bool,
    /// DC boost of the shaped performance weight (see `SsvSpec`).
    pub perf_dc_boost: f64,
    /// Corner frequency of the shaped performance weight (rad/s).
    pub perf_corner: f64,
    /// Calibration of the absolute input-weight level (see `SsvSpec`).
    pub effort_scale: f64,
}

impl Default for DesignOptions {
    fn default() -> Self {
        // Bounds and weights exactly as Tables II and III; the guardbands
        // are auto-tuned from the validation residual by default.
        DesignOptions {
            hw_bounds: [0.20, 0.10, 0.10, 0.10],
            hw_weights: [1.0, 1.0, 1.0, 1.0],
            hw_uncertainty: 0.40,
            os_bounds: [0.20, 0.20, 0.20],
            os_weights: [2.0, 2.0, 2.0],
            os_uncertainty: 0.50,
            seed: 0x5EED_CAFE,
            excitation: ExcitationKind::Prbs,
            auto_guardband: true,
            perf_dc_boost: 5.0,
            perf_corner: 0.15,
            effort_scale: 1.0,
        }
    }
}

/// Normalized excitation data at the controller period.
#[derive(Debug, Clone, Default)]
pub struct ExcitationData {
    /// Normalized hardware inputs per sample (4 columns).
    pub u_hw: Vec<Vec<f64>>,
    /// Normalized OS inputs per sample (3 columns).
    pub u_os: Vec<Vec<f64>>,
    /// Normalized hardware outputs per sample (4 columns).
    pub y_hw: Vec<Vec<f64>>,
    /// Normalized OS outputs per sample (3 columns).
    pub y_os: Vec<Vec<f64>>,
}

impl ExcitationData {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.u_hw.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.u_hw.is_empty()
    }
}

/// The complete set of design artifacts every scheme draws from.
#[derive(Debug, Clone)]
pub struct Design {
    /// Synthesized hardware-layer SSV controller.
    pub hw_ssv: SsvSynthesis,
    /// Synthesized software-layer SSV controller.
    pub os_ssv: SsvSynthesis,
    /// HW model with external signals: `[u_hw; u_os] → y_hw`.
    pub hw_model_full: StateSpace,
    /// OS model with external signals: `[u_os; u_hw] → y_os`.
    pub os_model_full: StateSpace,
    /// HW-only model for the decoupled LQG baseline: `u_hw → y_hw`.
    pub hw_model_solo: StateSpace,
    /// OS-only model: `u_os → y_os`.
    pub os_model_solo: StateSpace,
    /// Joint model for the monolithic LQG: `[u_hw; u_os] → [y_hw; y_os]`.
    pub mono_model: StateSpace,
    /// Per-output identification fit of the full HW model.
    pub hw_fit: Vec<f64>,
    /// Per-output identification fit of the full OS model.
    pub os_fit: Vec<f64>,
    /// The HW uncertainty radius the synthesis actually used (auto-tuned
    /// when `options.auto_guardband`).
    pub hw_uncertainty_used: f64,
    /// The OS uncertainty radius the synthesis actually used.
    pub os_uncertainty_used: f64,
    /// Held-out validation residual of the HW model (worst output,
    /// relative RMS); `NaN` when auto-tuning is off.
    pub hw_residual: f64,
    /// Held-out validation residual of the OS model.
    pub os_residual: f64,
    /// The options the design was built with.
    pub options: DesignOptions,
}

impl Design {
    /// Checks that every deployed part has its layer interface's widths.
    /// Every field is public, so a hand-assembled design (say, with the
    /// hardware and software parts swapped) is rejected here with a typed
    /// error instead of failing mid-run.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] naming the first mismatched part.
    pub fn check_widths(&self) -> Result<()> {
        for (part, sys, n_in, n_out) in [
            ("hw_ssv", &self.hw_ssv.controller, 11, 4),
            ("os_ssv", &self.os_ssv.controller, 10, 3),
            ("hw_model_full", &self.hw_model_full, 7, 4),
            ("hw_model_solo", &self.hw_model_solo, 4, 4),
            ("os_model_solo", &self.os_model_solo, 3, 3),
            ("mono_model", &self.mono_model, 7, 7),
        ] {
            check_widths(part, sys, n_in, n_out)?;
        }
        Ok(())
    }
}

/// The board actuation for the seven knob values `[#big, #little, f_big,
/// f_little, threads_big, packing_big, packing_little]`.
fn actuation(v: [f64; 7]) -> Actuation {
    Actuation {
        f_big: Some(v[2]),
        f_little: Some(v[3]),
        big_cores: Some(v[0] as usize),
        little_cores: Some(v[1] as usize),
        placement: Some(Placement {
            threads_big: v[4] as usize,
            packing_big: v[5],
            packing_little: v[6],
        }),
    }
}

/// Reads the seven normalized outputs `[perf, p_big, p_little, temp,
/// perf_little, perf_big, ΔSC]` given the windowed per-cluster BIPS, big
/// power before little (the sensor-noise draw order).
fn read_outputs(board: &mut Board, r: &SignalRanges, n_active: usize, bips: [f64; 2]) -> [f64; 7] {
    let st = board.state();
    let tb = st.placement.threads_big.min(n_active);
    let sc = spare_capacity(st.big_cores, tb) - spare_capacity(st.little_cores, n_active - tb);
    [
        r.perf.normalize(bips[0] + bips[1]),
        r.p_big.normalize(board.read_power(Cluster::Big)),
        r.p_little.normalize(board.read_power(Cluster::Little)),
        r.temp.normalize(st.t_hot),
        r.perf_little.normalize(bips[1]),
        r.perf_big.normalize(bips[0]),
        r.spare_diff.normalize(sc),
    ]
}

/// Collects excitation data by driving every actuator with its own
/// deterministic schedule (PRBS, multisine, or the legacy random walk)
/// while the training workloads run.
pub fn collect_excitation(opts: &DesignOptions) -> ExcitationData {
    use yukta_control::sysid::excitation;
    let mut data = ExcitationData::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let ranges = SignalRanges::xu3();
    let grids = ActuatorGrids::xu3();
    // The grid of each knob, in actuation order.
    let knob_grid = grids.knobs();
    for (wl_index, wl) in training::all().into_iter().enumerate() {
        let mut cfg = BoardConfig::odroid_xu3();
        cfg.seed = opts.seed ^ 0xB0A2D;
        let mut board = Board::new(cfg);
        let mut run = WorkloadRun::new(&wl);
        // Random-walk state: grid indices, restricted to the operating
        // region the controllers will live in. Linearizing the CV²f power
        // law over the full DVFS range would poison the model's gains;
        // identifying where the closed loop operates (upper half of the
        // frequency range, 2-4 cores) keeps the local fit accurate — the
        // guardband covers the rest, exactly as the paper argues.
        let start = [4.0, 4.0, 1.4, 1.0, 4.0, 1.0, 1.0];
        let mut idx: [usize; 7] = std::array::from_fn(|k| knob_grid[k].quantize_index(start[k]));
        // Lower bound of each walk (same order as `idx`).
        let floor = [2.0, 2.0, 0.8, 0.5, 2.0, 1.0, 1.0];
        let idx_lo: [usize; 7] = std::array::from_fn(|k| knob_grid[k].quantize_index(floor[k]));
        let mut perf_reader_big = yukta_board::sensors::BipsReader::new();
        let mut perf_reader_little = yukta_board::sensors::BipsReader::new();
        let steps_per_interval = (CONTROL_PERIOD_S / board.config().dt).round() as usize;
        let n_intervals = (EXCITATION_SECS / CONTROL_PERIOD_S) as usize;
        // Per-channel index schedules, precomputed for the whole record.
        // Every channel gets its own salted stream of the experiment seed
        // (workload index included in the salt so records differ across
        // workloads), shaped onto the quantized actuator grid between the
        // operating-region floor and the grid top.
        let wl_seed = opts.seed ^ (wl_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let schedules: Option<Vec<Vec<usize>>> = match opts.excitation {
            ExcitationKind::RandomWalk => None,
            kind => Some(
                (0..7)
                    .map(|k| {
                        let g = knob_grid[k];
                        let lo = g.values()[idx_lo[k]];
                        let sig = match kind {
                            // Chips held three controller periods: the
                            // 10–50 ms transition stalls pollute at most
                            // one sample in three and the power band
                            // stays under the first spectral null.
                            ExcitationKind::Prbs => {
                                excitation::prbs_sequence(wl_seed, k, n_intervals, 3)
                            }
                            // Tone count capped so every channel's comb
                            // stays below the record's Nyquist bin.
                            ExcitationKind::Multisine => excitation::multisine_sequence(
                                wl_seed,
                                k,
                                7,
                                n_intervals,
                                (n_intervals / 14).clamp(1, 8),
                            ),
                            ExcitationKind::RandomWalk => unreachable!(),
                        };
                        excitation::shape_to_grid(&sig, g, lo, g.max())
                    })
                    .collect(),
            ),
        };
        // Mirror of yukta_board's counters for windowed BIPS.
        let mut counter_big = yukta_board::sensors::PerfCounter::new();
        let mut counter_little = yukta_board::sensors::PerfCounter::new();
        for interval in 0..n_intervals {
            match &schedules {
                Some(s) => {
                    for (k, i) in idx.iter_mut().enumerate() {
                        *i = s[k][interval];
                    }
                }
                // Legacy step-hold random walk: move the actuators only
                // every third controller period.
                None if interval % 3 == 0 => {
                    for (k, i) in idx.iter_mut().enumerate() {
                        let g = knob_grid[k];
                        let delta: i64 = rng.gen_range(-3..=3);
                        let next = (*i as i64 + delta).clamp(idx_lo[k] as i64, g.len() as i64 - 1);
                        *i = next as usize;
                    }
                }
                None => {}
            }
            let knobs = std::array::from_fn(|k| knob_grid[k].values()[idx[k]]);
            board.actuate(&actuation(knobs));
            for _ in 0..steps_per_interval {
                let loads = run.loads();
                let rep = board.step(&loads);
                counter_big.add(rep.instr_big);
                counter_little.add(rep.instr_little);
                run.advance(&rep.thread_progress);
            }
            if run.is_done() {
                break;
            }
            // Record the *effective* operating point and the outputs.
            let st = board.state();
            let n_active = run.active_threads();
            let bips_big = perf_reader_big.sample(&counter_big, board.time());
            let bips_little = perf_reader_little.sample(&counter_little, board.time());
            let tb_actual = st.placement.threads_big.min(n_active);
            data.u_hw.push(vec![
                ranges.cores.normalize(st.big_cores as f64),
                ranges.cores.normalize(st.little_cores as f64),
                ranges.f_big.normalize(st.f_big),
                ranges.f_little.normalize(st.f_little),
            ]);
            data.u_os.push(vec![
                ranges.threads_big.normalize(tb_actual as f64),
                ranges.packing.normalize(st.placement.packing_big),
                ranges.packing.normalize(st.placement.packing_little),
            ]);
            let y = read_outputs(&mut board, &ranges, n_active, [bips_big, bips_little]);
            data.y_hw.push(y[..4].to_vec());
            data.y_os.push(y[4..].to_vec());
        }
    }
    data
}

/// Measures local DC gains by single-input step experiments around the
/// nominal operating point, running one of the training workloads.
///
/// Broadband ARX regression over a nonlinear plant underestimates the
/// per-input sensitivities; these short, controlled step tests recover the
/// local gains the controller will actually face, and
/// `yukta_control::sysid::calibrate_dc_gains` folds them into the models.
///
/// Returns a 7×7 matrix: rows are the normalized outputs
/// `[perf, p_big, p_little, temp, perf_little, perf_big, ΔSC]`, columns
/// the normalized inputs `[#big, #little, f_big, f_little, threads_big,
/// packing_big, packing_little]`.
pub fn measure_dc_gains(opts: &DesignOptions) -> Mat {
    let ranges = SignalRanges::xu3();
    let mut gains = Mat::zeros(7, 7);
    // Nominal operating point and the step applied per input.
    let nominal = [4.0f64, 4.0, 1.4, 0.9, 5.0, 1.0, 1.0];
    let steps: [f64; 7] = [-2.0, -2.0, 0.4, 0.4, 2.0, 1.0, 1.0];
    let wl = training::vips();
    for j in 0..7 {
        let mut cfg = BoardConfig::odroid_xu3();
        cfg.seed = opts.seed ^ 0xCA11B ^ (j as u64);
        // Quiet the scheduler noise during calibration so a single step
        // resolves cleanly (a short, controlled experiment).
        cfg.hmp_noise = 0.0;
        let mut board = Board::new(cfg);
        let mut run = WorkloadRun::new(&wl);
        let mut vals = nominal;
        board.actuate(&actuation(vals));
        let measure = |board: &mut Board, run: &mut WorkloadRun, settle: f64, window: f64| {
            let dt = board.config().dt;
            for _ in 0..(settle / dt) as usize {
                let loads = run.loads();
                let rep = board.step(&loads);
                run.advance(&rep.thread_progress);
            }
            let ib0 = board.instructions(Cluster::Big);
            let il0 = board.instructions(Cluster::Little);
            let t0 = board.time();
            for _ in 0..(window / dt) as usize {
                let loads = run.loads();
                let rep = board.step(&loads);
                run.advance(&rep.thread_progress);
            }
            let span = board.time() - t0;
            let bips = [
                (board.instructions(Cluster::Big) - ib0) / span,
                (board.instructions(Cluster::Little) - il0) / span,
            ];
            read_outputs(board, &ranges, run.active_threads(), bips)
        };
        let before = measure(&mut board, &mut run, 12.0, 5.0);
        vals[j] += steps[j];
        board.actuate(&actuation(vals));
        let after = measure(&mut board, &mut run, 8.0, 5.0);
        // Normalized input step size.
        let d_norm = match j {
            0 | 1 => ranges.cores.normalize_delta(steps[j]),
            2 => ranges.f_big.normalize_delta(steps[j]),
            3 => ranges.f_little.normalize_delta(steps[j]),
            4 => ranges.threads_big.normalize_delta(steps[j]),
            _ => ranges.packing.normalize_delta(steps[j]),
        };
        for i in 0..7 {
            gains[(i, j)] = (after[i] - before[i]) / d_norm;
        }
    }
    gains
}

fn concat(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    a.iter()
        .zip(b)
        .map(|(x, y)| [x.as_slice(), y.as_slice()].concat())
        .collect()
}

/// Aligns excitation data with the strictly proper ARX convention.
///
/// In the log, `y[k]` is measured over the same interval during which
/// `u[k]` was applied, but the regression's `u(t−1)` slot must hold the
/// input that *generated* `y(t)` — which is `u[t]`, not `u[t−1]`. Shifting
/// the input series back by one sample makes the identified one-step delay
/// equal the real controller-period delay (command at invocation `t`,
/// effect visible at invocation `t+1`).
fn align_for_arx<'a>(u: &'a [Vec<f64>], y: &'a [Vec<f64>]) -> (&'a [Vec<f64>], &'a [Vec<f64>]) {
    let n = u.len();
    if n < 2 {
        return (u, y);
    }
    (&u[1..], &y[..n - 1])
}

/// The production ARX configuration of every design model (the health tap's
/// refit reuses it). The whiff of ridge keeps the joint (monolithic)
/// regression posed: ΔSC is piecewise-linear in the inputs and can be
/// exactly collinear with them over a run.
pub const SYSID_CONFIG: SysIdConfig = SysIdConfig {
    na: 2,
    nb: 2,
    nc: 0,
    plr_iters: 0,
    ridge: 1e-4,
};

/// The production D–K option set the deployed controllers are synthesized
/// with: two D–K iterations, 14 γ-bisection rounds and a 25-point µ grid,
/// the rest at their defaults.
pub fn dk_options() -> DkOptions {
    DkOptions {
        max_iters: 2,
        gamma_iters: 14,
        n_freq: 25,
        ..DkOptions::default()
    }
}

/// A controller layer of the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The hardware layer (Table II).
    Hw,
    /// The software layer (Table III).
    Os,
}

/// The SSV specification of `layer` at uncertainty radius `uncertainty`:
/// the layer's Table II/III bounds and weights, its external signals (the
/// other layer's inputs: 3 for HW, 4 for OS) and the shaped-weight knobs
/// of `opts`, at the 500 ms controller period.
pub fn layer_spec(opts: &DesignOptions, layer: Layer, uncertainty: f64) -> SsvSpec {
    let (bounds, weights, n_ext): (&[f64], &[f64], usize) = match layer {
        Layer::Hw => (&opts.hw_bounds, &opts.hw_weights, 3),
        Layer::Os => (&opts.os_bounds, &opts.os_weights, 4),
    };
    SsvSpec {
        output_bounds: bounds.to_vec(),
        input_weights: weights.to_vec(),
        uncertainty,
        perf_dc_boost: opts.perf_dc_boost,
        perf_corner: opts.perf_corner,
        effort_scale: opts.effort_scale,
        ..SsvSpec::new(CONTROL_PERIOD_S, bounds.len(), weights.len(), n_ext)
    }
}

/// [`fit_arx`] at [`SYSID_CONFIG`] inside a `design.identify` span on
/// the global recorder, as [`synthesize_ssv`] times D–K. The span carries
/// the shape of the least-squares problem solved: `rows` (samples plus
/// ridge rows), `cols` (regressors) and `outputs`.
fn fit(u: &[Vec<f64>], y: &[Vec<f64>]) -> Result<IdModel> {
    let rec = yukta_obs::handle();
    let span = yukta_obs::span(rec, "design.identify");
    let id = fit_arx(u, y, SYSID_CONFIG)?;
    if rec.enabled() {
        let (outputs, cols) = id.theta.shape();
        let ridge_rows = if SYSID_CONFIG.ridge > 0.0 { cols } else { 0 };
        let rows = u.len() - SYSID_CONFIG.na.max(SYSID_CONFIG.nb) + ridge_rows;
        span.end_with(&[
            ("rows", Value::U64(rows as u64)),
            ("cols", Value::U64(cols as u64)),
            ("outputs", Value::U64(outputs as u64)),
        ]);
    }
    Ok(id)
}

/// Identifies one model from a logged record: aligns it to the ARX
/// convention, fits [`SYSID_CONFIG`], stabilizes (spectral radius ≤ 0.97),
/// resamples to the 500 ms controller period and calibrates the DC gains
/// to the step-test measurement `dc` (outputs × inputs of this model).
///
/// # Errors
///
/// Propagates identification (insufficient excitation) and calibration
/// failures.
pub fn identify_layer(u: &[Vec<f64>], y: &[Vec<f64>], dc: &Mat) -> Result<IdModel> {
    let (u, y) = align_for_arx(u, y);
    let mut id = fit(u, y)?
        .stabilized(0.97)?
        .with_sample_period(CONTROL_PERIOD_S)?;
    id.sys = calibrate_dc_gains(&id.sys, dc)?;
    Ok(id)
}

/// Builds the full design from scratch (characterize → identify →
/// synthesize).
///
/// # Errors
///
/// Propagates identification failures (insufficient excitation) and
/// synthesis failures (infeasible bounds/guardbands, per the paper's
/// description of MATLAB failing to build the controller).
pub fn build_design(opts: &DesignOptions) -> Result<Design> {
    let data = collect_excitation(opts);
    if data.len() < 100 {
        return Err(Error::NoSolution {
            op: "build_design",
            why: "insufficient excitation data collected",
        });
    }
    // Local DC gains from step tests, used to calibrate every model. Rows
    // and columns index the 7 outputs and the 7 inputs (HW first).
    let dc = &measure_dc_gains(opts);
    let pick = |rows: &[usize], cols: &[usize]| {
        let v = rows
            .iter()
            .flat_map(|&r| cols.iter().map(move |&c| dc[(r, c)]));
        Mat::from_vec(rows.len(), cols.len(), v.collect())
    };
    let (hw, os): (&[usize], &[usize]) = (&[0, 1, 2, 3], &[4, 5, 6]);
    let (all, os_hw) = (&[hw, os].concat(), &[os, hw].concat());
    // Full models (with external signals) and their guardbands.
    let u_hw_full = concat(&data.u_hw, &data.u_os);
    let u_os_full = concat(&data.u_os, &data.u_hw);
    let hw_id = identify_layer(&u_hw_full, &data.y_hw, &pick(hw, all))?;
    let os_id = identify_layer(&u_os_full, &data.y_os, &pick(os, os_hw))?;
    let auto = opts.auto_guardband;
    let (hw_residual, hw_uncertainty) =
        tune_guardband(auto, &u_hw_full, &data.y_hw, opts.hw_uncertainty)?;
    let (os_residual, os_uncertainty) =
        tune_guardband(auto, &u_os_full, &data.y_os, opts.os_uncertainty)?;
    // Solo and joint models for the LQG baselines.
    let hw_solo = identify_layer(&data.u_hw, &data.y_hw, &pick(hw, hw))?;
    let os_solo = identify_layer(&data.u_os, &data.y_os, &pick(os, os))?;
    let y_mono = concat(&data.y_hw, &data.y_os);
    let mono = identify_layer(&u_hw_full, &y_mono, &pick(all, all))?;
    // SSV synthesis per layer.
    let hw_spec = layer_spec(opts, Layer::Hw, hw_uncertainty);
    let os_spec = layer_spec(opts, Layer::Os, os_uncertainty);
    Ok(Design {
        hw_ssv: synthesize_ssv(&hw_id.sys, &hw_spec, dk_options())?,
        os_ssv: synthesize_ssv(&os_id.sys, &os_spec, dk_options())?,
        hw_model_full: hw_id.sys,
        os_model_full: os_id.sys,
        hw_model_solo: hw_solo.sys,
        os_model_solo: os_solo.sys,
        mono_model: mono.sys,
        hw_fit: hw_id.fit,
        os_fit: os_id.fit,
        hw_uncertainty_used: hw_uncertainty,
        os_uncertainty_used: os_uncertainty,
        hw_residual,
        os_residual,
        options: opts.clone(),
    })
}

static DEFAULT_DESIGN: OnceLock<Design> = OnceLock::new();

/// The cached default design (Tables II/III parameters). Built once per
/// process; deterministic.
///
/// # Panics
///
/// Panics if the design pipeline fails — that is a build-breaking bug, not
/// a runtime condition.
pub fn default_design() -> &'static Design {
    DEFAULT_DESIGN.get_or_init(|| {
        build_design(&DesignOptions::default()).expect("default Yukta design pipeline failed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excitation_produces_rich_data() {
        let data = collect_excitation(&DesignOptions::default());
        assert!(data.len() > 100, "samples {}", data.len());
        // Inputs actually move (random walk).
        let f_col: Vec<f64> = data.u_hw.iter().map(|r| r[2]).collect();
        let min = f_col.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = f_col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.3, "f_big excitation span {}", max - min);
        // Outputs are normalized and finite.
        for row in &data.y_hw {
            for v in row {
                assert!(v.is_finite() && v.abs() <= 2.0, "normalized output {v}");
            }
        }
    }

    #[test]
    fn default_design_builds_and_is_sane() {
        let d = default_design();
        // Controller shapes per Tables II/III, plus the deployed
        // observer form's applied-input port (one per actuator).
        assert_eq!(d.hw_ssv.controller.n_inputs(), 11);
        assert_eq!(d.hw_ssv.controller.n_outputs(), 4);
        assert_eq!(d.os_ssv.controller.n_inputs(), 10);
        assert_eq!(d.os_ssv.controller.n_outputs(), 3);
        assert!(d.hw_ssv.controller.is_stable().unwrap());
        assert!(d.os_ssv.controller.is_stable().unwrap());
        // Identification succeeded meaningfully on at least the power
        // outputs (index 1, 2 of the HW model).
        assert!(d.hw_fit[1] > 0.3, "big power fit too poor: {:?}", d.hw_fit);
        // The models have the right shapes for the LQG baselines.
        assert_eq!(d.hw_model_solo.n_inputs(), 4);
        assert_eq!(d.os_model_solo.n_inputs(), 3);
        assert_eq!(d.mono_model.n_inputs(), 7);
        assert_eq!(d.mono_model.n_outputs(), 7);
    }

    #[test]
    fn design_is_deterministic() {
        let opts = DesignOptions::default();
        let d1 = collect_excitation(&opts);
        let d2 = collect_excitation(&opts);
        assert_eq!(d1.u_hw, d2.u_hw);
        assert_eq!(d1.y_hw, d2.y_hw);
    }
}
