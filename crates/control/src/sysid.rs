//! Black-box system identification.
//!
//! Yukta models the board from excitation data alone (Section IV-C of the
//! paper uses Box–Jenkins in MATLAB). We implement [`fit_arx`], MIMO ARX
//! least squares: `y(t) = Σ Aₖ y(t−k) + Σ Bₖ u(t−k)`.
//!
//! It returns an [`IdModel`]: a strictly proper state-space realization
//! plus per-output fit scores. Controllers are synthesized against this
//! model; the uncertainty guardband absorbs whatever the polynomial family
//! cannot capture (that is the paper's central robustness argument).

use yukta_linalg::qr::lstsq;
use yukta_linalg::{Error, Mat, Result};

use crate::ss::StateSpace;

/// Configuration for ARX identification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SysIdConfig {
    /// Autoregressive order (lags of y).
    pub na: usize,
    /// Exogenous order (lags of u).
    pub nb: usize,
    /// Moving-average order (lags of the residual). Ignored by
    /// [`fit_arx`]; the field stays because the `benchmark` package builds
    /// this struct as a literal.
    pub nc: usize,
    /// Pseudo-linear-regression passes. Ignored by [`fit_arx`], kept for
    /// the same reason as `nc`.
    pub plr_iters: usize,
    /// Ridge (Tikhonov) regularization strength; 0 disables. A small
    /// positive value (e.g. `1e-4`) keeps the regression well posed when
    /// some measured output is exactly collinear with the inputs, at the
    /// cost of a negligible coefficient bias.
    pub ridge: f64,
}

impl Default for SysIdConfig {
    fn default() -> Self {
        // Second order captures the thermal + power dynamics of the board
        // at the 500 ms controller period; see DESIGN.md for why we deviate
        // from the paper's 4th-order Box–Jenkins model.
        SysIdConfig {
            na: 2,
            nb: 2,
            nc: 2,
            plr_iters: 3,
            ridge: 0.0,
        }
    }
}

/// An identified model: realization plus quality metadata.
#[derive(Debug, Clone)]
pub struct IdModel {
    /// Strictly proper discrete state-space realization, inputs = the
    /// excitation inputs, outputs = the measured outputs.
    pub sys: StateSpace,
    /// Per-output fit, `1 − ‖y−ŷ‖/‖y−ȳ‖` (1 = perfect, ≤0 = useless),
    /// computed on the training data with one-step-ahead prediction.
    pub fit: Vec<f64>,
    /// The raw coefficient matrix `Θ = [A₁ … A_na B₁ … B_nb]`.
    pub theta: Mat,
    /// Orders used.
    pub config: SysIdConfig,
}

/// Fits a MIMO ARX model by least squares.
///
/// `u` has one row per sample (width = number of inputs), `y` likewise
/// (width = number of outputs). Rows are synchronized samples at the
/// controller period.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if `u`/`y` lengths differ or there is too
///   little data for the requested orders.
/// * [`Error::Singular`] if the excitation is insufficient (rank-deficient
///   regressor).
///
/// # Examples
///
/// ```
/// use yukta_control::sysid::{fit_arx, SysIdConfig};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// // Identify y(t) = 0.5 y(t−1) + 0.3 u(t−1) from simulated data.
/// let mut u = Vec::new();
/// let mut y = vec![vec![0.0]];
/// let mut state: f64 = 0.0;
/// for t in 0..200 {
///     let ut = ((t * 37 % 11) as f64 - 5.0) / 5.0;
///     u.push(vec![ut]);
///     state = 0.5 * state + 0.3 * ut;
///     y.push(vec![state]);
/// }
/// y.pop();
/// let model = fit_arx(&u, &y, SysIdConfig { na: 1, nb: 1, nc: 0, plr_iters: 0, ridge: 0.0 })?;
/// assert!(model.fit[0] > 0.99);
/// # Ok(())
/// # }
/// ```
pub fn fit_arx(u: &[Vec<f64>], y: &[Vec<f64>], config: SysIdConfig) -> Result<IdModel> {
    let (phi, targets, n) = build_regression(u, y, config.na, config.nb, config.ridge)?;
    let theta_t = lstsq(&phi, &targets).map_err(|_| Error::Singular { op: "fit_arx" })?;
    let theta = theta_t.t();
    let fit = fit_scores(&phi, &theta_t, &targets, n);
    let sys = realize_arx(&theta, targets.cols(), u[0].len(), config.na, config.nb)?;
    Ok(IdModel {
        sys,
        fit,
        theta,
        config,
    })
}

/// Builds the ARX regression `Φ θ ≈ T`: one row per usable sample,
/// columns `[y(t−1) … y(t−na), u(t−1) … u(t−nb)]`, followed — for a
/// positive Tikhonov `ridge` λ — by one row per column holding `√λ` on the
/// diagonal and a zero target, so the normal equations become
/// `ΦᵀΦ + λI`, always full rank. Returns `(Φ, T, samples)`, the sample
/// rows first.
fn build_regression(
    u: &[Vec<f64>],
    y: &[Vec<f64>],
    na: usize,
    nb: usize,
    ridge: f64,
) -> Result<(Mat, Mat, usize)> {
    if u.len() != y.len() || u.is_empty() {
        return Err(Error::DimensionMismatch {
            op: "sysid_data",
            lhs: (u.len(), 0),
            rhs: (y.len(), 0),
        });
    }
    let t_total = y.len();
    let ny = y[0].len();
    let nu = u[0].len();
    let lag = na.max(nb);
    if t_total <= lag + (na * ny + nb * nu) {
        return Err(Error::DimensionMismatch {
            op: "sysid_data_too_short",
            lhs: (t_total, 0),
            rhs: (lag, na * ny + nb * nu),
        });
    }
    let n_rows = t_total - lag;
    let n_cols = na * ny + nb * nu;
    let ridge_rows = if ridge > 0.0 { n_cols } else { 0 };
    let mut phi = Mat::zeros(n_rows + ridge_rows, n_cols);
    let mut targets = Mat::zeros(n_rows + ridge_rows, ny);
    for k in 0..ridge_rows {
        phi[(n_rows + k, k)] = ridge.sqrt();
    }
    for (row, t) in (lag..t_total).enumerate() {
        let mut col = 0;
        for k in 1..=na {
            for &yj in y[t - k].iter().take(ny) {
                phi[(row, col)] = yj;
                col += 1;
            }
        }
        for k in 1..=nb {
            for &uj in u[t - k].iter().take(nu) {
                phi[(row, col)] = uj;
                col += 1;
            }
        }
        for j in 0..ny {
            targets[(row, j)] = y[t][j];
        }
    }
    Ok((phi, targets, n_rows))
}

/// Per-output fit score `1 − ‖e‖/‖y − ȳ‖` over the first `n` (sample)
/// rows of the regression.
fn fit_scores(phi: &Mat, theta_t: &Mat, targets: &Mat, n: usize) -> Vec<f64> {
    let pred = phi * theta_t;
    let ny = targets.cols();
    let mut out = Vec::with_capacity(ny);
    for j in 0..ny {
        let mean: f64 = (0..n).map(|i| targets[(i, j)]).sum::<f64>() / n as f64;
        let mut err = 0.0;
        let mut var = 0.0;
        for i in 0..n {
            err += (targets[(i, j)] - pred[(i, j)]).powi(2);
            var += (targets[(i, j)] - mean).powi(2);
        }
        out.push(if var > 1e-300 {
            1.0 - (err / var).sqrt()
        } else {
            0.0
        });
    }
    out
}

/// Converts ARX coefficients to a strictly proper state-space realization
/// with state `x(t) = [y(t−1) … y(t−na), u(t−1) … u(t−nb)]`.
fn realize_arx(theta: &Mat, ny: usize, nu: usize, na: usize, nb: usize) -> Result<StateSpace> {
    let ns = na * ny + nb * nu;
    let mut a = Mat::zeros(ns, ns);
    let mut b = Mat::zeros(ns, nu);
    // C row: y(t) = Θ x(t).
    let c = theta.clone();
    // y-block 1 at next step holds y(t) = Θ x(t).
    a.set_block(0, 0, theta);
    // y-block k (k ≥ 2) shifts from block k−1.
    for k in 1..na {
        for j in 0..ny {
            a[(k * ny + j, (k - 1) * ny + j)] = 1.0;
        }
    }
    // u-block 1 receives u(t) via B.
    let u_base = na * ny;
    for j in 0..nu {
        b[(u_base + j, j)] = 1.0;
    }
    // u-block k (k ≥ 2) shifts.
    for k in 1..nb {
        for j in 0..nu {
            a[(u_base + k * nu + j, u_base + (k - 1) * nu + j)] = 1.0;
        }
    }
    StateSpace::new(a, b, c, Mat::zeros(ny, nu), Some(1.0))
}

impl IdModel {
    /// Re-tags the realization with the actual sample period (identification
    /// works in sample counts; callers supply physical time).
    ///
    /// # Errors
    ///
    /// Never fails for models produced by this module; the `Result` guards
    /// the internal reconstruction.
    pub fn with_sample_period(&self, ts: f64) -> Result<IdModel> {
        let sys = StateSpace::new(
            self.sys.a().clone(),
            self.sys.b().clone(),
            self.sys.c().clone(),
            self.sys.d().clone(),
            Some(ts),
        )?;
        Ok(IdModel {
            sys,
            fit: self.fit.clone(),
            theta: self.theta.clone(),
            config: self.config,
        })
    }

    /// Returns a copy whose `A` matrix is radially contracted so the model
    /// is Schur-stable (spectral radius ≤ `rho_max`). Identified models of
    /// a stable physical plant occasionally come out marginally unstable;
    /// synthesis requires stability and the guardband covers the edit.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue failures.
    pub fn stabilized(&self, rho_max: f64) -> Result<IdModel> {
        let rho = yukta_linalg::eig::spectral_radius(self.sys.a())?;
        if rho <= rho_max {
            return Ok(self.clone());
        }
        let sys = StateSpace::new(
            self.sys.a().scale(rho_max / rho),
            self.sys.b().clone(),
            self.sys.c().clone(),
            self.sys.d().clone(),
            self.sys.ts(),
        )?;
        Ok(IdModel {
            sys,
            fit: self.fit.clone(),
            theta: self.theta.clone(),
            config: self.config,
        })
    }
}

/// Corrects a model's `B` matrix so its DC-gain matrix *exactly* matches
/// independently measured step-test gains, changing `B` as little as
/// possible (least-norm update).
///
/// Broadband regression over a nonlinear plant systematically misestimates
/// per-input sensitivities and cross-gains (omitted-nonlinearity bias); a
/// handful of single-input step experiments around the operating point
/// recovers the local DC map `G`. Since the DC gain is linear in `B`
/// (`G = C(I−A)⁻¹B` for strictly proper discrete models), the exact match
/// is the least-norm solution of `M·ΔB = G_target − M·B` with
/// `M = C(I−A)⁻¹`. The identified dynamics (poles) are untouched.
///
/// `measured_dc` has one row per output and one column per input, in the
/// model's own normalized units.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if `measured_dc` has the wrong shape.
/// * [`Error::Singular`] if the model has a pole at `z = 1` or a
///   degenerate output map.
pub fn calibrate_dc_gains(sys: &StateSpace, measured_dc: &Mat) -> Result<StateSpace> {
    if measured_dc.shape() != (sys.n_outputs(), sys.n_inputs()) {
        return Err(Error::DimensionMismatch {
            op: "calibrate_dc_gains",
            lhs: (sys.n_outputs(), sys.n_inputs()),
            rhs: measured_dc.shape(),
        });
    }
    let n = sys.order();
    // M = C (I − A)⁻¹.
    let ima = &Mat::identity(n) - sys.a();
    let ima_inv = ima.inverse().map_err(|_| Error::Singular {
        op: "calibrate_dc_gains",
    })?;
    let m = sys.c() * &ima_inv;
    let resid = measured_dc - &(&m * sys.b());
    // Least-norm ΔB = Mᵀ (M Mᵀ)⁻¹ resid.
    let mmt = &m * &m.t();
    let mmt_inv = mmt.inverse().map_err(|_| Error::Singular {
        op: "calibrate_dc_gains",
    })?;
    let delta_b = &m.t() * &(&mmt_inv * &resid);
    let b = sys.b() + &delta_b;
    StateSpace::new(
        sys.a().clone(),
        b,
        sys.c().clone(),
        sys.d().clone(),
        sys.ts(),
    )
}

/// Worst-case one-step-ahead relative prediction residual of `model` on
/// held-out data: `max_j ‖y_j − ŷ_j‖ / ‖y_j − ȳ_j‖` over outputs `j`.
///
/// This is the quantity the guardband auto-tuner compares against the
/// uncertainty radius: if the model predicts a validation record to within
/// 10% relative RMS, a ±40% multiplicative guardband is needlessly
/// conservative.
///
/// # Errors
///
/// Same data-shape failures as [`fit_arx`] (mismatched lengths, too few
/// samples for the model's orders).
pub fn validation_residual(u: &[Vec<f64>], y: &[Vec<f64>], model: &IdModel) -> Result<f64> {
    let (phi, targets, n) = build_regression(u, y, model.config.na, model.config.nb, 0.0)?;
    let pred = &phi * &model.theta.t();
    let ny = targets.cols();
    let mut worst = 0.0f64;
    for j in 0..ny {
        let mean: f64 = (0..n).map(|i| targets[(i, j)]).sum::<f64>() / n as f64;
        let mut err = 0.0;
        let mut var = 0.0;
        for i in 0..n {
            err += (targets[(i, j)] - pred[(i, j)]).powi(2);
            var += (targets[(i, j)] - mean).powi(2);
        }
        // A flat-line output carries no information about model quality;
        // treat it as perfectly predicted rather than dividing by zero.
        if var > 1e-300 {
            worst = worst.max((err / var).sqrt());
        }
    }
    Ok(worst)
}

/// Identification excitation schedules: PRBS and multisine signals that are
/// deterministic under a fixed seed, decorrelated across actuator channels,
/// and shaped onto quantized actuator grids.
///
/// The paper's MATLAB flow excites every knob with independent random
/// walks; a random walk concentrates its power at DC and under-excites the
/// mid-band where the µ peak of the eventual design lives. The schedules
/// here put flat (PRBS) or exactly-placed (multisine) power across the
/// band up to the Nyquist rate of the controller period.
pub mod excitation {
    use crate::quant::InputGrid;

    /// SplitMix64 step — the stream-salting and seeding primitive. Every
    /// channel derives its own independent stream from
    /// `(experiment seed, channel index)`, so adding or reordering
    /// channels never perturbs the others' sequences.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The per-channel stream seed: `splitmix64` of the experiment seed
    /// XOR a channel salt. Channel 0 with salt 0 is NOT the raw seed, so
    /// no channel ever aliases the caller's own use of the seed.
    pub fn channel_seed(seed: u64, channel: usize) -> u64 {
        let mut s = seed ^ (channel as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        splitmix64(&mut s)
    }

    /// Maximum-length PRBS in `{−1, +1}` from a 31-bit LFSR (taps 31, 28),
    /// one chip held for `hold` samples. The hold time moves the sequence's
    /// power band: the first spectral null sits at `ω = 2π/(hold·ts)`, so
    /// longer holds concentrate power at lower frequencies.
    pub fn prbs_sequence(seed: u64, channel: usize, n: usize, hold: usize) -> Vec<f64> {
        let hold = hold.max(1);
        // Non-zero 31-bit LFSR state from the salted stream.
        let mut s = channel_seed(seed, channel);
        let mut lfsr = (splitmix64(&mut s) as u32) & 0x7FFF_FFFF;
        if lfsr == 0 {
            lfsr = 1;
        }
        let mut out = Vec::with_capacity(n);
        let mut chip = 0.0;
        for t in 0..n {
            if t % hold == 0 {
                let bit = ((lfsr >> 30) ^ (lfsr >> 27)) & 1;
                lfsr = ((lfsr << 1) | bit) & 0x7FFF_FFFF;
                chip = if bit == 1 { 1.0 } else { -1.0 };
            }
            out.push(chip);
        }
        out
    }

    /// Schroeder-phased multisine in `[−1, 1]`: `n_tones` sinusoids on an
    /// interleaved frequency comb (channel `c` of `n_channels` owns bins
    /// `c, c + n_channels, c + 2·n_channels, …` of a length-`n` record),
    /// so simultaneous channels are exactly orthogonal over the record.
    /// Schroeder phases `φ_i = −π·i·(i−1)/n_tones` keep the crest factor
    /// low; the result is peak-normalized to 1.
    pub fn multisine_sequence(
        seed: u64,
        channel: usize,
        n_channels: usize,
        n: usize,
        n_tones: usize,
    ) -> Vec<f64> {
        let n_channels = n_channels.max(1);
        let n_tones = n_tones.max(1);
        if n == 0 {
            return Vec::new();
        }
        // A random phase offset per channel (deterministic in the seed)
        // decorrelates records with the same bin comb across experiments.
        let mut s = channel_seed(seed, channel);
        let phase0 =
            (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
        let mut out = vec![0.0f64; n];
        for i in 0..n_tones {
            // Interleaved comb, skipping bin 0 (DC belongs to the
            // operating point, not the excitation).
            let bin = 1 + channel % n_channels + i * n_channels;
            let phase =
                phase0 - std::f64::consts::PI * (i * i.wrapping_sub(1)) as f64 / n_tones as f64;
            let w = std::f64::consts::TAU * bin as f64 / n as f64;
            for (t, o) in out.iter_mut().enumerate() {
                *o += (w * t as f64 + phase).cos();
            }
        }
        let peak = out.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
        for o in &mut out {
            *o /= peak;
        }
        out
    }

    /// Shapes a normalized `[−1, 1]` schedule onto a quantized actuator
    /// grid: the amplitude window `[lo, hi]` (in actuator units) is mapped
    /// linearly and each sample snapped to the nearest admissible grid
    /// point. Returns grid *indices*, ready for `grid.values()[idx]`.
    ///
    /// When the window spans fewer than two grid points the signal
    /// degenerates to a constant; the caller should widen the window — the
    /// returned schedule makes the problem visible (all indices equal)
    /// rather than silently exciting nothing.
    pub fn shape_to_grid(signal: &[f64], grid: &InputGrid, lo: f64, hi: f64) -> Vec<usize> {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        signal
            .iter()
            .map(|&v| {
                let x = lo + (v.clamp(-1.0, 1.0) + 1.0) * 0.5 * (hi - lo);
                grid.quantize_index(x)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate a known 2-input 2-output ARX system and return (u, y).
    fn known_system_data(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut u = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let (mut y1, mut y2) = (0.0f64, 0.0f64);
        let (mut y1p, mut y2p) = (0.0f64, 0.0f64);
        let (mut u1p, mut u2p) = (0.0f64, 0.0f64);
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..n {
            let u1 = rng();
            let u2 = rng();
            y.push(vec![y1, y2]);
            u.push(vec![u1, u2]);
            let ny1 = 0.6 * y1 - 0.1 * y2 + 0.05 * y1p + 0.4 * u1p + 0.1 * u2p;
            let ny2 = 0.2 * y1 + 0.5 * y2 - 0.02 * y2p + 0.3 * u2p;
            y1p = y1;
            y2p = y2;
            u1p = u1;
            u2p = u2;
            y1 = ny1;
            y2 = ny2;
        }
        (u, y)
    }

    #[test]
    fn arx_recovers_known_mimo_system() {
        let (u, y) = known_system_data(800);
        let cfg = SysIdConfig {
            na: 2,
            nb: 2,
            nc: 0,
            plr_iters: 0,
            ridge: 0.0,
        };
        let model = fit_arx(&u, &y, cfg).unwrap();
        assert!(model.fit[0] > 0.98, "fit[0] = {}", model.fit[0]);
        assert!(model.fit[1] > 0.98, "fit[1] = {}", model.fit[1]);
        // Check a few recovered coefficients.
        assert!((model.theta[(0, 0)] - 0.6).abs() < 0.05);
        assert!((model.theta[(1, 1)] - 0.5).abs() < 0.05);
    }

    #[test]
    fn realization_reproduces_training_io() {
        let (u, y) = known_system_data(400);
        let cfg = SysIdConfig {
            na: 2,
            nb: 2,
            nc: 0,
            plr_iters: 0,
            ridge: 0.0,
        };
        let model = fit_arx(&u, &y, cfg).unwrap();
        // Free-run the realization on the same inputs: output should track.
        let sim = model.sys.simulate(&u).unwrap();
        let mut err = 0.0;
        let mut nrm = 0.0;
        for t in 50..u.len() {
            err += (sim[t][0] - y[t][0]).powi(2) + (sim[t][1] - y[t][1]).powi(2);
            nrm += y[t][0].powi(2) + y[t][1].powi(2);
        }
        assert!(err / nrm.max(1e-12) < 0.05, "free-run error {}", err / nrm);
    }

    #[test]
    fn too_little_data_rejected() {
        let u = vec![vec![0.0]; 3];
        let y = vec![vec![0.0]; 3];
        assert!(fit_arx(&u, &y, SysIdConfig::default()).is_err());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let u = vec![vec![0.0]; 100];
        let y = vec![vec![0.0]; 99];
        assert!(fit_arx(&u, &y, SysIdConfig::default()).is_err());
    }

    #[test]
    fn unexcited_input_rejected() {
        // Constant input/output: regressor is rank deficient.
        let u = vec![vec![1.0]; 100];
        let y = vec![vec![1.0]; 100];
        assert!(matches!(
            fit_arx(&u, &y, SysIdConfig::default()),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn stabilized_contracts_unstable_model() {
        let (u, y) = known_system_data(300);
        let cfg = SysIdConfig {
            na: 1,
            nb: 1,
            nc: 0,
            plr_iters: 0,
            ridge: 0.0,
        };
        let model = fit_arx(&u, &y, cfg).unwrap();
        // Force instability by inflating theta, then stabilize.
        let mut inflated = model.clone();
        inflated.theta = model.theta.scale(3.0);
        let sys = super::realize_arx(&inflated.theta, 2, 2, 1, 1).unwrap();
        inflated.sys = sys;
        let fixed = inflated.stabilized(0.98).unwrap();
        assert!(yukta_linalg::eig::spectral_radius(fixed.sys.a()).unwrap() <= 0.99);
    }

    #[test]
    fn calibration_matches_target_dc_exactly() {
        let (u, y) = known_system_data(400);
        let cfg = SysIdConfig {
            na: 2,
            nb: 2,
            nc: 0,
            plr_iters: 0,
            ridge: 0.0,
        };
        let model = fit_arx(&u, &y, cfg).unwrap();
        let mut target = model.sys.dc_gain().unwrap();
        target[(0, 0)] *= 2.0;
        target[(1, 1)] += 0.5;
        let fixed = calibrate_dc_gains(&model.sys, &target).unwrap();
        let got = fixed.dc_gain().unwrap();
        assert!(got.approx_eq(&target, 1e-9), "{got:?} vs {target:?}");
        // Poles unchanged.
        let p1 = model.sys.poles().unwrap();
        let p2 = fixed.poles().unwrap();
        let s1: f64 = p1.iter().map(|e| e.re).sum();
        let s2: f64 = p2.iter().map(|e| e.re).sum();
        assert!((s1 - s2).abs() < 1e-10);
    }

    #[test]
    fn calibration_rejects_bad_shape() {
        let (u, y) = known_system_data(300);
        let model = fit_arx(
            &u,
            &y,
            SysIdConfig {
                na: 1,
                nb: 1,
                nc: 0,
                plr_iters: 0,
                ridge: 0.0,
            },
        )
        .unwrap();
        let bad = Mat::zeros(3, 2);
        assert!(calibrate_dc_gains(&model.sys, &bad).is_err());
    }

    #[test]
    fn validation_residual_small_on_training_system() {
        let (u, y) = known_system_data(600);
        let cfg = SysIdConfig {
            na: 2,
            nb: 2,
            nc: 0,
            plr_iters: 0,
            ridge: 0.0,
        };
        let model = fit_arx(&u[..400], &y[..400], cfg).unwrap();
        // Held-out tail of the same noiseless system: residual near zero.
        let r = validation_residual(&u[400..], &y[400..], &model).unwrap();
        assert!(r < 0.05, "residual {r}");
        // A deliberately wrong model must show a large residual.
        let mut broken = model.clone();
        broken.theta = model.theta.scale(0.3);
        let rb = validation_residual(&u[400..], &y[400..], &broken).unwrap();
        assert!(rb > 0.3, "broken residual {rb}");
    }

    #[test]
    fn prbs_is_binary_and_respects_hold() {
        let s = excitation::prbs_sequence(42, 3, 200, 4);
        assert_eq!(s.len(), 200);
        assert!(s.iter().all(|&v| v == 1.0 || v == -1.0));
        for t in 0..200 {
            assert_eq!(s[t], s[t - t % 4], "chip broken at {t}");
        }
        // Both levels show up: a maximum-length LFSR is balanced.
        assert!(s.contains(&1.0) && s.contains(&-1.0));
    }

    #[test]
    fn excitation_streams_are_deterministic_and_channel_isolated() {
        let a = excitation::prbs_sequence(7, 0, 128, 1);
        let b = excitation::prbs_sequence(7, 0, 128, 1);
        assert_eq!(a, b, "same seed+channel must replay bit-identically");
        let c = excitation::prbs_sequence(7, 1, 128, 1);
        assert_ne!(a, c, "channels must get independent streams");
        let d = excitation::prbs_sequence(8, 0, 128, 1);
        assert_ne!(a, d, "different seeds must differ");
        let m0 = excitation::multisine_sequence(7, 0, 3, 256, 5);
        assert_eq!(m0, excitation::multisine_sequence(7, 0, 3, 256, 5));
        assert_ne!(m0, excitation::multisine_sequence(7, 1, 3, 256, 5));
    }

    #[test]
    fn multisine_hits_only_its_own_comb_bins() {
        let n = 256;
        let n_ch = 3;
        let s = excitation::multisine_sequence(11, 1, n_ch, n, 4);
        assert!(s.iter().all(|&v| v.abs() <= 1.0 + 1e-12));
        // DFT magnitude at each bin: energy only at bins 2, 5, 8, 11
        // (1 + channel + i·n_channels).
        let power = |bin: usize| -> f64 {
            let w = std::f64::consts::TAU * bin as f64 / n as f64;
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (t, &v) in s.iter().enumerate() {
                re += v * (w * t as f64).cos();
                im += v * (w * t as f64).sin();
            }
            (re * re + im * im).sqrt() / n as f64
        };
        for i in 0..4 {
            let own = 1 + 1 + i * n_ch;
            assert!(power(own) > 0.05, "missing power at own bin {own}");
        }
        for other in [1, 3, 4, 6, 7, 9] {
            assert!(power(other) < 1e-9, "leakage into bin {other}");
        }
    }

    #[test]
    fn shape_to_grid_snaps_to_admissible_points() {
        let grid = crate::quant::InputGrid::stepped(0.2, 2.0, 0.2);
        let sig = excitation::prbs_sequence(3, 0, 50, 2);
        let idx = excitation::shape_to_grid(&sig, &grid, 0.6, 1.8);
        assert_eq!(idx.len(), 50);
        for &i in &idx {
            let v = grid.values()[i];
            assert!((0.6 - 1e-9..=1.8 + 1e-9).contains(&v), "value {v}");
        }
        // A binary signal on a linear map touches exactly the two window
        // endpoints after quantization.
        let distinct: std::collections::BTreeSet<usize> = idx.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn with_sample_period_retags() {
        let (u, y) = known_system_data(300);
        let model = fit_arx(
            &u,
            &y,
            SysIdConfig {
                na: 1,
                nb: 1,
                nc: 0,
                plr_iters: 0,
                ridge: 0.0,
            },
        )
        .unwrap();
        let m2 = model.with_sample_period(0.5).unwrap();
        assert_eq!(m2.sys.ts(), Some(0.5));
    }

    /// `fit_arx`'s solve and score on two copies of the regression: the fit
    /// scored on the samples-only Φ and T, the solve run on `vstack`ed
    /// copies carrying the `√λ·I` rows.
    fn fit_arx_vstack(u: &[Vec<f64>], y: &[Vec<f64>], config: SysIdConfig) -> (Mat, Vec<f64>) {
        let (phi, targets, n) = build_regression(u, y, config.na, config.nb, 0.0).unwrap();
        let (phi_solve, targets_solve) = if config.ridge > 0.0 {
            let k = phi.cols();
            let reg = Mat::identity(k).scale(config.ridge.sqrt());
            (
                Mat::vstack(&phi, &reg).unwrap(),
                Mat::vstack(&targets, &Mat::zeros(k, targets.cols())).unwrap(),
            )
        } else {
            (phi.clone(), targets.clone())
        };
        let theta_t = lstsq(&phi_solve, &targets_solve).unwrap();
        let fit = fit_scores(&phi, &theta_t, &targets, n);
        (theta_t.t(), fit)
    }

    /// A `(u, y)` record of `n` samples: `nu` pseudo-random inputs driving
    /// `ny` first-order outputs, each mixing every input with a little noise.
    fn mixed_record(n: usize, nu: usize, ny: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut seed = 11u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut state = vec![0.0; ny];
        let (mut u, mut y) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let ut: Vec<f64> = (0..nu).map(|_| rng()).collect();
            y.push(state.clone());
            for (j, s) in state.iter_mut().enumerate() {
                let drive: f64 = ut
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v / (1 + i + j) as f64)
                    .sum();
                *s = 0.6 * *s + 0.3 * drive + 0.01 * rng();
            }
            u.push(ut);
        }
        (u, y)
    }

    #[test]
    fn ridge_rows_in_place_match_the_vstack_form() {
        // The deployed HW (7 → 4), OS (7 → 3) and monolithic (7 → 7)
        // shapes, at the production ridge and without one.
        for (ny, ridge) in [(4, 1e-4), (3, 1e-4), (7, 1e-4), (4, 0.0), (7, 0.0)] {
            let (u, y) = mixed_record(480, 7, ny);
            let config = SysIdConfig {
                na: 2,
                nb: 2,
                nc: 0,
                plr_iters: 0,
                ridge,
            };
            let model = fit_arx(&u, &y, config).unwrap();
            let (theta, fit) = fit_arx_vstack(&u, &y, config);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(model.theta.as_slice()),
                bits(theta.as_slice()),
                "θ, {ny} outputs, ridge {ridge}"
            );
            assert_eq!(
                bits(&model.fit),
                bits(&fit),
                "fit, {ny} outputs, ridge {ridge}"
            );
        }
    }
}
