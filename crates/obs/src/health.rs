//! Streaming loop-health engine: per-invocation health signals and online
//! change detection for the control loop.
//!
//! The paper's robustness story (guardband Δ, µ̂ < 1) certifies the loop
//! only while the plant stays inside the uncertainty ball the controller
//! was synthesized against. This module watches for the moment it leaves:
//! a [`HealthMonitor`] consumes one [`HealthSample`] per controller
//! invocation — model residual, guardband-margin consumption, actuator
//! saturation duty, supervisor dwell, SLO burn, and BIPS/W throughput —
//! and runs two classical streaming change detectors over the residual and
//! windowed-throughput channels:
//!
//! - **Page–Hinkley**: cumulates `z_t − δ` (standardized deviations minus
//!   a drift allowance) and alarms when the cumulative sum rises more than
//!   `λ` above its running minimum (or falls below its running maximum) —
//!   the classic test for a sustained mean shift.
//! - **CUSUM**: one-sided recursions `s⁺ = max(0, s⁺ + z − k)` and
//!   `s⁻ = max(0, s⁻ − z − k)` with alarm threshold `h`, detecting smaller
//!   persistent shifts than Page–Hinkley's drift allowance admits.
//!
//! Both operate on standardized deviations from a baseline (mean/variance)
//! estimated over the first [`HealthConfig::warmup`] samples by Welford's
//! algorithm, so thresholds are in noise-σ units and transfer across
//! schemes and workloads. Windowed BIPS/W phase statistics reuse
//! [`FixedHistogram`] with the streaming
//! reset/merge APIs: each completed window contributes one mean-throughput
//! observation to the phase-channel detectors and its distribution merges
//! into a lifetime histogram for reporting.
//!
//! Everything here is deterministic and allocation-free after
//! construction: the monitor owns fixed-size state, consumes plain `f64`
//! samples, never reads a clock, and never touches a [`Recorder`](crate::Recorder)
//! (verdict emission is the runtime's job), so running a monitor alongside
//! a control loop cannot perturb it — monitored-but-not-acting runs stay
//! bit-identical to bare ones.

use crate::hist::FixedHistogram;

/// Bucket bounds for the BIPS/W phase histograms: a ×2 ladder covering
/// the XU3 envelope (idle little cluster ≈ 0.5 BIPS/W to a fully loaded
/// efficient operating point ≈ 32 BIPS/W).
pub const BIPS_PER_WATT_BOUNDS: [f64; 8] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Configuration error from [`HealthConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum HealthConfigError {
    /// A field that must be strictly positive was not.
    NonPositive { field: &'static str },
    /// A field with a minimum count requirement was below it.
    TooSmall {
        field: &'static str,
        min: u32,
        got: u32,
    },
    /// Two fields violate their required ordering.
    Ordering {
        what: &'static str,
        lo: f64,
        hi: f64,
    },
    /// A fraction left `(0, 1)`.
    NotAFraction { field: &'static str, got: f64 },
}

impl std::fmt::Display for HealthConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositive { field } => {
                write!(f, "health config: {field} must be finite and > 0")
            }
            Self::TooSmall { field, min, got } => {
                write!(f, "health config: {field} must be >= {min}, got {got}")
            }
            Self::Ordering { what, lo, hi } => {
                write!(f, "health config: {what} requires {lo} < {hi}")
            }
            Self::NotAFraction { field, got } => {
                write!(f, "health config: {field} must lie in (0, 1), got {got}")
            }
        }
    }
}

impl std::error::Error for HealthConfigError {}

/// Tuning for the loop-health monitor. Thresholds are in units of the
/// warmup-estimated noise σ of their channel, so the defaults transfer
/// across schemes and workloads without retuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Baseline-estimation samples before the detectors arm. Also the
    /// re-learning period after a [`HealthMonitor::rearm`].
    pub warmup: u32,
    /// Page–Hinkley drift allowance δ (σ units): mean drift below this is
    /// tolerated indefinitely.
    pub ph_delta: f64,
    /// Page–Hinkley alarm threshold λ (σ units of cumulated deviation).
    pub ph_lambda: f64,
    /// CUSUM slack k (σ units): half the smallest mean shift considered
    /// worth detecting.
    pub cusum_k: f64,
    /// CUSUM alarm threshold h (σ units).
    pub cusum_h: f64,
    /// Invocations per BIPS/W phase-statistic window.
    pub window: u32,
    /// Fraction of an alarm threshold at which the verdict becomes
    /// `Drifting` (strictly between 0 and 1).
    pub drift_score: f64,
    /// Hold-off after an alarm before the detectors re-arm (invocations).
    /// During hold-off the monitor re-learns its baseline, so one plant
    /// change yields one `PhaseChange`, not an alarm storm.
    pub rearm: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            warmup: 16,
            ph_delta: 0.5,
            ph_lambda: 12.0,
            cusum_k: 0.75,
            cusum_h: 10.0,
            window: 8,
            drift_score: 0.5,
            rearm: 24,
        }
    }
}

impl HealthConfig {
    /// Validates the configuration, returning a typed error naming the
    /// offending field.
    pub fn validate(&self) -> Result<(), HealthConfigError> {
        if self.warmup < 4 {
            return Err(HealthConfigError::TooSmall {
                field: "warmup",
                min: 4,
                got: self.warmup,
            });
        }
        if self.window < 2 {
            return Err(HealthConfigError::TooSmall {
                field: "window",
                min: 2,
                got: self.window,
            });
        }
        for (field, v) in [
            ("ph_delta", self.ph_delta),
            ("ph_lambda", self.ph_lambda),
            ("cusum_k", self.cusum_k),
            ("cusum_h", self.cusum_h),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(HealthConfigError::NonPositive { field });
            }
        }
        if self.ph_delta >= self.ph_lambda {
            return Err(HealthConfigError::Ordering {
                what: "ph_delta < ph_lambda",
                lo: self.ph_delta,
                hi: self.ph_lambda,
            });
        }
        if self.cusum_k >= self.cusum_h {
            return Err(HealthConfigError::Ordering {
                what: "cusum_k < cusum_h",
                lo: self.cusum_k,
                hi: self.cusum_h,
            });
        }
        if !(self.drift_score.is_finite() && self.drift_score > 0.0 && self.drift_score < 1.0) {
            return Err(HealthConfigError::NotAFraction {
                field: "drift_score",
                got: self.drift_score,
            });
        }
        Ok(())
    }
}

/// One controller invocation's worth of health signals, all computed from
/// data the runtime already holds (no extra sensors, no extra reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSample {
    /// Model-residual norm: ‖ŷ − y‖∞ between the identified model's
    /// one-step prediction and the measured sense, in normalized units.
    pub residual: f64,
    /// Guardband-margin consumption: `residual / Δ` where Δ is the
    /// uncertainty radius the controller was synthesized against. Above
    /// 1.0 the robustness certificate no longer covers the plant.
    pub margin: f64,
    /// Fraction of actuator components pinned at a grid rail this
    /// invocation, in `[0, 1]`.
    pub saturation: f64,
    /// Whether the supervisor served this invocation outside Primary.
    pub degraded: bool,
    /// SLO burn rate: fraction of the latency budget consumed by the
    /// current p99 (0 when serving is inactive).
    pub slo_burn: f64,
    /// Throughput efficiency this invocation (BIPS per watt).
    pub bips_per_watt: f64,
}

/// The monitor's judgement after one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthVerdict {
    /// All detector statistics below the drift fraction of their alarms.
    Healthy,
    /// A detector statistic crossed `drift_score` of its alarm threshold;
    /// `score` is the worst fraction across detectors, in `[0, 1)`.
    Drifting { score: f64 },
    /// A detector alarmed: the plant's behavior shifted at or before
    /// `at_step` (the sample index that fired the alarm).
    PhaseChange { at_step: u64 },
}

/// Welford running mean/variance, frozen once `n` reaches the warmup
/// count to form the standardization baseline.
#[derive(Debug, Clone, Copy, Default)]
struct Baseline {
    n: u32,
    mean: f64,
    m2: f64,
    /// Fast companion EMA of the same signal (see [`Channel::push`]).
    fast: f64,
}

impl Baseline {
    /// Post-warmup adaptation memory, in samples. Long enough that a
    /// genuine step change keeps a large standardized deviation for many
    /// times the detection-latency budget; short enough that a constant
    /// offset or slow creep (thermal drift, a mis-learned warmup mean) is
    /// absorbed before the detectors integrate it into an alarm.
    const TRACK_ALPHA: f64 = 1.0 / 64.0;

    /// Fast companion-EMA memory (see [`Channel::push`]): responsive
    /// enough to hug a settling signal within a few samples, noisy enough
    /// that it must never serve as the reference on its own.
    const TRACK_ALPHA_FAST: f64 = 1.0 / 8.0;

    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.fast = self.mean;
    }

    /// Exponentially forgetting mean/variance update used once warmup is
    /// over: unlike the 1/n Welford update — whose step size right after
    /// a short warmup is large enough to swallow a real change in a
    /// handful of samples — the fixed [`Self::TRACK_ALPHA`] bounds how
    /// fast the baseline can chase its input. The fast companion EMA
    /// updates alongside.
    fn track(&mut self, x: f64) {
        let d = x - self.mean;
        let incr = Self::TRACK_ALPHA * d;
        self.mean += incr;
        let denom = (self.n.max(2) - 1) as f64;
        let var = (1.0 - Self::TRACK_ALPHA) * (self.m2 / denom + d * incr);
        self.m2 = denom * var;
        self.fast += Self::TRACK_ALPHA_FAST * (x - self.fast);
    }

    /// Noise σ with a relative floor: warmup windows short enough to be
    /// useful can underestimate the long-run variance, so σ never drops
    /// below 10% of the baseline mean's magnitude (or an absolute epsilon
    /// for zero-mean channels).
    fn sigma(&self) -> f64 {
        let var = if self.n > 1 {
            self.m2 / (self.n - 1) as f64
        } else {
            0.0
        };
        var.sqrt().max(0.1 * self.mean.abs()).max(1e-9)
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Two-sided Page–Hinkley test over standardized deviations: one
/// cumulant per direction, each biased against its own shift by δ.
#[derive(Debug, Clone, Copy, Default)]
struct PageHinkley {
    up: f64,
    up_min: f64,
    dn: f64,
    dn_max: f64,
}

impl PageHinkley {
    /// Feeds one standardized deviation; returns the current test
    /// statistic (the rising side, or the max of both sides when falling
    /// shifts are also of interest).
    fn push(&mut self, z: f64, delta: f64, rising_only: bool) -> f64 {
        self.up += z - delta;
        self.up_min = self.up_min.min(self.up);
        if rising_only {
            return self.up - self.up_min;
        }
        self.dn += z + delta;
        self.dn_max = self.dn_max.max(self.dn);
        (self.up - self.up_min).max(self.dn_max - self.dn)
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Two-sided CUSUM over standardized deviations.
#[derive(Debug, Clone, Copy, Default)]
struct Cusum {
    pos: f64,
    neg: f64,
}

impl Cusum {
    fn push(&mut self, z: f64, k: f64, rising_only: bool) -> f64 {
        self.pos = (self.pos + z - k).max(0.0);
        if rising_only {
            return self.pos;
        }
        self.neg = (self.neg - z - k).max(0.0);
        self.pos.max(self.neg)
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

/// One monitored channel: baseline plus both detectors.
#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    base: Baseline,
    ph: PageHinkley,
    cusum: Cusum,
}

impl Channel {
    /// Feeds one raw observation. During warmup the baseline accumulates
    /// and the score is 0; afterwards returns the worst detector
    /// statistic as a fraction of its alarm threshold.
    ///
    /// With `rising_only`, only upward mean shifts count: the residual
    /// channel uses this, because a *shrinking* model residual (the fit
    /// improving as transients wash out) is never a health problem, while
    /// a throughput channel watches both directions.
    fn push(&mut self, x: f64, warmup: u32, cfg: &HealthConfig, rising_only: bool) -> f64 {
        if self.base.n < warmup {
            self.base.push(x);
            return 0.0;
        }
        // A one-sided channel standardizes against the *lower* of the slow
        // baseline and its fast companion EMA: on stationary noise the two
        // agree, on a still-settling signal (the residual decaying as the
        // prediction-bias estimator absorbs the operating-point offset)
        // the fast EMA hugs the decay so a later genuine rise is not
        // hidden in the slow baseline's lag, and on that rise itself the
        // min keeps the slow reference, leaving the deviation visible.
        let reference = if rising_only {
            self.base.mean.min(self.base.fast)
        } else {
            self.base.mean
        };
        let z = (x - reference) / self.base.sigma();
        // The baseline keeps tracking after warmup with a fixed-memory
        // forgetting factor: a small offset the short warmup mis-learned —
        // or a drift slower than the adaptation, like the plant's thermal
        // creep — is gradually absorbed instead of accumulating in the
        // detectors forever, while a genuine step change still sticks out
        // for far longer than any detection latency.
        self.base.track(x);
        let ph = self.ph.push(z, cfg.ph_delta, rising_only) / cfg.ph_lambda;
        let cu = self.cusum.push(z, cfg.cusum_k, rising_only) / cfg.cusum_h;
        ph.max(cu)
    }

    fn reset(&mut self) {
        self.base.reset();
        self.ph.reset();
        self.cusum.reset();
    }
}

/// Duty-cycle accumulator: running fraction of invocations a predicate
/// held, plus an exponentially weighted recent value.
#[derive(Debug, Clone, Copy, Default)]
struct Duty {
    total: f64,
    n: u64,
    ema: f64,
}

impl Duty {
    const ALPHA: f64 = 0.125;

    fn push(&mut self, x: f64) {
        self.total += x;
        self.n += 1;
        self.ema += Self::ALPHA * (x - self.ema);
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total / self.n as f64
        }
    }
}

/// Aggregate health statistics for reporting (all run-lifetime values).
#[derive(Debug, Clone)]
pub struct HealthStats {
    /// Samples observed.
    pub samples: u64,
    /// Mean model residual (normalized units).
    pub residual_mean: f64,
    /// Mean guardband-margin consumption (fraction of Δ).
    pub margin_mean: f64,
    /// Recent (EMA) margin consumption.
    pub margin_recent: f64,
    /// Actuator saturation duty cycle.
    pub saturation_duty: f64,
    /// Fraction of invocations served outside Primary.
    pub degraded_duty: f64,
    /// Mean SLO burn rate.
    pub slo_burn_mean: f64,
    /// Lifetime BIPS/W distribution (merged across all retired windows).
    pub bips_per_watt: FixedHistogram,
    /// Alarms fired over the run.
    pub alarms: u64,
    /// Sample index of the most recent alarm, if any.
    pub last_alarm: Option<u64>,
}

/// The streaming loop-health monitor. Feed one [`HealthSample`] per
/// controller invocation via [`observe`](Self::observe); the returned
/// [`HealthVerdict`] is this invocation's judgement. All state is
/// fixed-size — no allocation after construction — and evolution depends
/// only on the sample stream, never on who is listening.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    step: u64,
    residual: Channel,
    phase: Channel,
    win_hist: FixedHistogram,
    life_hist: FixedHistogram,
    win_sum: f64,
    win_fill: u32,
    saturation: Duty,
    degraded: Duty,
    slo_burn: Duty,
    res_sum: f64,
    margin: Duty,
    holdoff: u32,
    alarms: u64,
    last_alarm: Option<u64>,
}

impl HealthMonitor {
    /// Builds a monitor after validating `cfg`.
    pub fn new(cfg: HealthConfig) -> Result<Self, HealthConfigError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            step: 0,
            residual: Channel::default(),
            phase: Channel::default(),
            win_hist: FixedHistogram::new(&BIPS_PER_WATT_BOUNDS),
            life_hist: FixedHistogram::new(&BIPS_PER_WATT_BOUNDS),
            win_sum: 0.0,
            win_fill: 0,
            saturation: Duty::default(),
            degraded: Duty::default(),
            slo_burn: Duty::default(),
            res_sum: 0.0,
            margin: Duty::default(),
            holdoff: 0,
            alarms: 0,
            last_alarm: None,
        })
    }

    /// The validated configuration in force.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Feeds one invocation's signals and returns the verdict.
    pub fn observe(&mut self, s: &HealthSample) -> HealthVerdict {
        let at_step = self.step;
        self.step += 1;

        // Duty and lifetime aggregates always accumulate.
        self.res_sum += s.residual;
        self.margin.push(s.margin);
        self.saturation.push(s.saturation);
        self.degraded.push(if s.degraded { 1.0 } else { 0.0 });
        self.slo_burn.push(s.slo_burn);

        // Windowed BIPS/W phase statistics: rotate the window histogram
        // into the lifetime one and feed the window mean to the phase
        // channel each time the window fills.
        self.win_hist.record(s.bips_per_watt);
        self.win_sum += s.bips_per_watt;
        self.win_fill += 1;
        let mut phase_score = 0.0;
        if self.win_fill == self.cfg.window {
            let mean = self.win_sum / self.cfg.window as f64;
            // Phase-channel warmup is counted in windows, scaled so it
            // completes near the residual channel's warmup.
            let phase_warmup = (self.cfg.warmup / self.cfg.window).max(3);
            phase_score = self.phase.push(mean, phase_warmup, &self.cfg, false);
            self.life_hist
                .merge(&self.win_hist)
                .expect("window and lifetime histograms share bounds");
            self.win_hist.reset();
            self.win_sum = 0.0;
            self.win_fill = 0;
        }

        // Hold-off: after an alarm (or a rearm) the plant is presumed to
        // have changed, so re-learn the baseline before judging again.
        if self.holdoff > 0 {
            self.holdoff -= 1;
            return HealthVerdict::Healthy;
        }

        let res_score = self
            .residual
            .push(s.residual, self.cfg.warmup, &self.cfg, true);
        let score = res_score.max(phase_score);
        if score >= 1.0 {
            self.alarms += 1;
            self.last_alarm = Some(at_step);
            self.rearm();
            return HealthVerdict::PhaseChange { at_step };
        }
        if score >= self.cfg.drift_score {
            return HealthVerdict::Drifting { score };
        }
        HealthVerdict::Healthy
    }

    /// Resets detectors and baselines and starts a hold-off, as after a
    /// controller hot-swap: the loop's closed-loop signature legitimately
    /// changes, so prior statistics no longer apply. Lifetime aggregates
    /// (duties, histograms, alarm counts) are preserved.
    pub fn rearm(&mut self) {
        self.residual.reset();
        self.phase.reset();
        self.win_hist.reset();
        self.win_sum = 0.0;
        self.win_fill = 0;
        self.holdoff = self.cfg.rearm;
    }

    /// Samples observed so far.
    pub fn samples(&self) -> u64 {
        self.step
    }

    /// Run-lifetime statistics for reporting.
    pub fn stats(&self) -> HealthStats {
        // Include the partially filled current window so the lifetime
        // distribution covers every observed sample.
        let mut bips = self.life_hist.clone();
        bips.merge(&self.win_hist)
            .expect("window and lifetime histograms share bounds");
        HealthStats {
            samples: self.step,
            residual_mean: if self.step == 0 {
                0.0
            } else {
                self.res_sum / self.step as f64
            },
            margin_mean: self.margin.mean(),
            margin_recent: self.margin.ema,
            saturation_duty: self.saturation.mean(),
            degraded_duty: self.degraded.mean(),
            slo_burn_mean: self.slo_burn.mean(),
            bips_per_watt: bips,
            alarms: self.alarms,
            last_alarm: self.last_alarm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    /// Deterministic pseudo-noise in [-0.5, 0.5).
    fn noise(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn sample(residual: f64, bpw: f64) -> HealthSample {
        HealthSample {
            residual,
            margin: residual / 0.4,
            saturation: 0.0,
            degraded: false,
            slo_burn: 0.0,
            bips_per_watt: bpw,
        }
    }

    #[test]
    fn default_config_validates() {
        cfg().validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let mut c = cfg();
        c.warmup = 3;
        assert_eq!(
            c.validate(),
            Err(HealthConfigError::TooSmall {
                field: "warmup",
                min: 4,
                got: 3
            })
        );
        let mut c = cfg();
        c.window = 1;
        assert!(matches!(
            c.validate(),
            Err(HealthConfigError::TooSmall {
                field: "window",
                ..
            })
        ));
        let mut c = cfg();
        c.ph_lambda = 0.0;
        assert_eq!(
            c.validate(),
            Err(HealthConfigError::NonPositive { field: "ph_lambda" })
        );
        let mut c = cfg();
        c.cusum_k = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(HealthConfigError::NonPositive { field: "cusum_k" })
        ));
        let mut c = cfg();
        c.ph_delta = 20.0;
        assert!(matches!(
            c.validate(),
            Err(HealthConfigError::Ordering { .. })
        ));
        let mut c = cfg();
        c.cusum_h = 0.5;
        assert!(matches!(
            c.validate(),
            Err(HealthConfigError::Ordering { .. })
        ));
        let mut c = cfg();
        c.drift_score = 1.0;
        assert!(matches!(
            c.validate(),
            Err(HealthConfigError::NotAFraction { .. })
        ));
        // Errors render a human-readable description.
        let msg = HealthConfigError::NonPositive { field: "cusum_h" }.to_string();
        assert!(msg.contains("cusum_h"), "{msg}");
    }

    #[test]
    fn stationary_stream_stays_healthy() {
        let mut m = HealthMonitor::new(cfg()).unwrap();
        let mut state = 7u64;
        for _ in 0..2000 {
            let v = sample(0.2 + 0.05 * noise(&mut state), 4.0 + noise(&mut state));
            assert_eq!(m.observe(&v), HealthVerdict::Healthy);
        }
        assert_eq!(m.stats().alarms, 0);
    }

    #[test]
    fn residual_mean_shift_fires_phase_change_quickly() {
        let mut m = HealthMonitor::new(cfg()).unwrap();
        let mut state = 11u64;
        for _ in 0..100 {
            let v = sample(0.2 + 0.05 * noise(&mut state), 4.0);
            assert_eq!(m.observe(&v), HealthVerdict::Healthy);
        }
        // 4x residual jump — the plant left the identified model.
        let mut detected = None;
        for i in 0..40u64 {
            let v = sample(0.8 + 0.05 * noise(&mut state), 4.0);
            if let HealthVerdict::PhaseChange { at_step } = m.observe(&v) {
                detected = Some((i, at_step));
                break;
            }
        }
        let (latency, at_step) = detected.expect("shift must be detected");
        assert!(latency <= 20, "detection latency {latency} > 20");
        assert!(at_step >= 100);
        assert_eq!(m.stats().alarms, 1);
        assert_eq!(m.stats().last_alarm, Some(at_step));
    }

    #[test]
    fn throughput_shift_fires_via_phase_channel() {
        // Residual stays flat; only BIPS/W collapses (e.g. a memory-bound
        // phase began). The windowed phase channel must catch it.
        let mut m = HealthMonitor::new(cfg()).unwrap();
        let mut state = 13u64;
        for _ in 0..400 {
            let v = sample(0.2, 8.0 + 0.5 * noise(&mut state));
            assert_eq!(m.observe(&v), HealthVerdict::Healthy);
        }
        let mut detected = None;
        for i in 0..200u64 {
            let v = sample(0.2, 2.0 + 0.5 * noise(&mut state));
            if let HealthVerdict::PhaseChange { at_step } = m.observe(&v) {
                detected = Some((i, at_step));
                break;
            }
        }
        let (latency, _) = detected.expect("throughput collapse must be detected");
        // Windowed channel: latency bounded by a few windows.
        assert!(latency <= 5 * cfg().window as u64, "latency {latency}");
    }

    #[test]
    fn drifting_precedes_alarm_on_slow_ramp() {
        let mut m = HealthMonitor::new(cfg()).unwrap();
        let mut state = 17u64;
        for _ in 0..200 {
            m.observe(&sample(0.2 + 0.02 * noise(&mut state), 4.0));
        }
        let mut saw_drifting = false;
        let mut saw_change = false;
        for i in 0..300 {
            let ramp = 0.2 + 0.002 * i as f64;
            match m.observe(&sample(ramp + 0.02 * noise(&mut state), 4.0)) {
                HealthVerdict::Drifting { score } => {
                    assert!((0.0..1.0).contains(&score));
                    saw_drifting = true;
                    assert!(!saw_change, "drift must precede the alarm");
                }
                HealthVerdict::PhaseChange { .. } => {
                    saw_change = true;
                    break;
                }
                HealthVerdict::Healthy => {}
            }
        }
        assert!(saw_drifting && saw_change);
    }

    #[test]
    fn alarm_rearms_and_relearns_instead_of_storming() {
        let mut m = HealthMonitor::new(cfg()).unwrap();
        let mut state = 19u64;
        for _ in 0..100 {
            m.observe(&sample(0.2 + 0.05 * noise(&mut state), 4.0));
        }
        let mut alarms = 0;
        for _ in 0..300 {
            if let HealthVerdict::PhaseChange { .. } =
                m.observe(&sample(0.9 + 0.05 * noise(&mut state), 4.0))
            {
                alarms += 1;
            }
        }
        // One plant change, one alarm: after rearm the new level becomes
        // the baseline.
        assert_eq!(alarms, 1);
    }

    #[test]
    fn duties_and_stats_accumulate() {
        let mut m = HealthMonitor::new(cfg()).unwrap();
        for i in 0..10 {
            m.observe(&HealthSample {
                residual: 0.1,
                margin: 0.25,
                saturation: if i < 5 { 1.0 } else { 0.0 },
                degraded: i % 2 == 0,
                slo_burn: 0.5,
                bips_per_watt: 4.0,
            });
        }
        let st = m.stats();
        assert_eq!(st.samples, 10);
        assert!((st.residual_mean - 0.1).abs() < 1e-12);
        assert!((st.margin_mean - 0.25).abs() < 1e-12);
        assert!((st.saturation_duty - 0.5).abs() < 1e-12);
        assert!((st.degraded_duty - 0.5).abs() < 1e-12);
        assert!((st.slo_burn_mean - 0.5).abs() < 1e-12);
        // The partially filled window is included in lifetime stats.
        assert_eq!(st.bips_per_watt.count(), 10);
        assert_eq!(st.alarms, 0);
        assert_eq!(st.last_alarm, None);
    }

    #[test]
    fn monitor_is_deterministic_and_clonable() {
        let mut a = HealthMonitor::new(cfg()).unwrap();
        let mut b = HealthMonitor::new(cfg()).unwrap();
        let mut state = 23u64;
        let mut verdicts_a = Vec::new();
        let mut samples = Vec::new();
        for i in 0..150 {
            let level = if i < 100 { 0.2 } else { 0.7 };
            samples.push(sample(level + 0.03 * noise(&mut state), 4.0));
        }
        for s in &samples {
            verdicts_a.push(a.observe(s));
        }
        let verdicts_b: Vec<_> = samples.iter().map(|s| b.observe(s)).collect();
        assert_eq!(verdicts_a, verdicts_b);
        // A clone mid-stream continues identically.
        let mut c1 = HealthMonitor::new(cfg()).unwrap();
        for s in &samples[..75] {
            c1.observe(s);
        }
        let mut c2 = c1.clone();
        let tail1: Vec<_> = samples[75..].iter().map(|s| c1.observe(s)).collect();
        let tail2: Vec<_> = samples[75..].iter().map(|s| c2.observe(s)).collect();
        assert_eq!(tail1, tail2);
    }
}
