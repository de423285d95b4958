//! The optimizer modules of Section IV-D.
//!
//! Each SSV (or LQG) controller tracks output *targets*; the optimizer
//! nudges those targets to minimize E×D (∝ Power/Perf²), using the paper's
//! asymmetric rule: while E×D improves, raise the performance target a lot
//! and the power targets a little; when a move backfires, discard it and
//! move the other way — performance down a little, power down a lot.

use crate::signals::{HwOutputs, Limits, OsOutputs};

/// Hill-climbing state shared by the optimizers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Direction {
    /// Pushing performance up (the optimistic move).
    Up,
    /// Backing power off after a regression.
    Down,
}

/// Optimizer for the hardware controller's four output targets.
///
/// Measurement noise (the HMP packing jitter, sensor staleness) would make
/// a naive better/worse comparison flip direction constantly, so the
/// optimizer compares an exponentially smoothed E×D against the best level
/// seen so far, with a tolerance band: it keeps climbing inside the band,
/// and only backs power off on a clear regression.
#[derive(Debug, Clone)]
pub struct HwOptimizer {
    limits: Limits,
    ema_exd: f64,
    best_exd: f64,
    initialized: bool,
    /// Current targets (Perf₀, P_big₀, P_little₀, Temp₀).
    pub targets: HwOutputs,
}

impl HwOptimizer {
    /// Creates an optimizer for the given limits.
    pub fn new(limits: Limits) -> Self {
        HwOptimizer {
            limits,
            ema_exd: f64::INFINITY,
            best_exd: f64::INFINITY,
            initialized: false,
            targets: HwOutputs::default(),
        }
    }

    /// The paper's E×D proxy: Power/Perf² (lower is better).
    pub fn exd_proxy(y: &HwOutputs) -> f64 {
        let perf = y.perf.max(0.05);
        (y.p_big + y.p_little) / (perf * perf)
    }

    /// One optimizer step: reads the measured outputs, moves the targets.
    pub fn update(&mut self, y: &HwOutputs) -> HwOutputs {
        let exd = Self::exd_proxy(y);
        if !self.initialized {
            self.initialized = true;
            // Optimistic start: aim near the constraint envelope right
            // away (the E×D optimum sits at or below the power limit);
            // the Down moves retreat quickly if that is wrong for this
            // workload. Starting from the near-idle measurements instead
            // would waste tens of seconds ramping.
            self.targets = HwOutputs {
                perf: y.perf.max(6.0),
                p_big: self.limits.p_big_max * 0.85,
                p_little: self.limits.p_little_max * 0.85,
                temp: self.limits.temp_max - 4.0,
            };
            self.ema_exd = exd;
            self.best_exd = exd;
            return self.targets;
        }
        self.ema_exd = 0.6 * self.ema_exd + 0.4 * exd;
        if self.ema_exd < self.best_exd {
            self.best_exd = self.ema_exd;
        }
        let direction = if self.ema_exd > self.best_exd * 1.20 {
            Direction::Down
        } else {
            Direction::Up
        };
        match direction {
            Direction::Up => {
                // Raise Perf₀ a lot, power targets a little. The limits
                // are enforced on the *measured* outputs: targets may run
                // ahead of the physical limit to trim out the inner loop's
                // steady-state offset (the optimizer is the slow integral
                // action of the stack), but the moment a measurement
                // crosses its limit the corresponding target retreats fast.
                self.targets.perf += 0.40;
                if y.p_big < self.limits.p_big_max * 0.97 {
                    self.targets.p_big += 0.08;
                } else {
                    self.targets.p_big -= 0.30;
                }
                if y.p_little < self.limits.p_little_max * 0.97 {
                    self.targets.p_little += 0.008;
                } else {
                    self.targets.p_little -= 0.03;
                }
                if y.temp > self.limits.temp_max - 1.0 {
                    self.targets.p_big -= 0.30;
                }
            }
            Direction::Down => {
                // Discard the move: Perf₀ down a little, power down more.
                self.targets.perf = (self.targets.perf - 0.15).max(0.3);
                self.targets.p_big = (self.targets.p_big - 0.12).max(0.3);
                self.targets.p_little = (self.targets.p_little - 0.012).max(0.05);
                // Let the reference level forget so exploration resumes
                // once the regression clears (prevents noise-driven
                // target collapse).
                self.best_exd *= 1.05;
            }
        }
        // Keep targets inside a sane envelope: they may overshoot the
        // physical limits (integral trim) but not run away.
        self.targets.perf = self.targets.perf.clamp(0.3, 14.0);
        self.targets.p_big = self.targets.p_big.clamp(0.3, self.limits.p_big_max * 2.0);
        self.targets.p_little = self
            .targets
            .p_little
            .clamp(0.05, self.limits.p_little_max * 2.0);
        self.targets.temp = self.limits.temp_max - 4.0;
        self.targets
    }

    /// `(floats, ints)` appended by [`HwOptimizer::save_state`].
    pub const STATE_LEN: (usize, usize) = (6, 1);

    /// Appends the hill-climbing state (EMA, best-seen, targets,
    /// initialized flag) to a checkpoint payload. `limits` is
    /// construction-time configuration and is not part of the state.
    pub fn save_state(&self, floats: &mut Vec<f64>, ints: &mut Vec<i64>) {
        floats.extend_from_slice(&[self.ema_exd, self.best_exd]);
        floats.extend_from_slice(&self.targets.to_vec());
        ints.push(i64::from(self.initialized));
    }

    /// Restores state appended by [`HwOptimizer::save_state`]. Slices must
    /// be exactly [`HwOptimizer::STATE_LEN`] long (the caller validates lengths before splitting the payload).
    pub fn restore_state(&mut self, floats: &[f64], ints: &[i64]) {
        self.ema_exd = floats[0];
        self.best_exd = floats[1];
        self.targets = HwOutputs::from_slice(&floats[2..]);
        self.initialized = ints[0] != 0;
    }
}

/// Optimizer for the software controller's three output targets. Uses the
/// same smoothed best-seen comparison as [`HwOptimizer`].
#[derive(Debug, Clone)]
pub struct OsOptimizer {
    ema_exd: f64,
    best_exd: f64,
    initialized: bool,
    spare_step: f64,
    ticks: u64,
    /// Current targets (Perf_little₀, Perf_big₀, ΔSC₀).
    pub targets: OsOutputs,
}

impl OsOptimizer {
    /// Creates the optimizer.
    pub fn new() -> Self {
        OsOptimizer {
            ema_exd: f64::INFINITY,
            best_exd: f64::INFINITY,
            initialized: false,
            spare_step: 1.0,
            ticks: 0,
            targets: OsOutputs::default(),
        }
    }

    /// One optimizer step. `system` carries the power/perf measurements the
    /// OS layer reads to evaluate E×D.
    pub fn update(&mut self, y: &OsOutputs, system: &HwOutputs) -> OsOutputs {
        self.ticks += 1;
        let exd = HwOptimizer::exd_proxy(system);
        if !self.initialized {
            self.initialized = true;
            // Optimistic start (see HwOptimizer): most of the throughput
            // lives on the big cluster.
            self.targets = OsOutputs {
                perf_little: y.perf_little.max(0.7),
                perf_big: y.perf_big.max(4.5),
                spare_diff: 1.0,
            };
            self.ema_exd = exd;
            self.best_exd = exd;
            return self.targets;
        }
        self.ema_exd = 0.6 * self.ema_exd + 0.4 * exd;
        if self.ema_exd < self.best_exd {
            self.best_exd = self.ema_exd;
        }
        let improved = self.ema_exd <= self.best_exd * 1.20;
        if improved {
            self.targets.perf_big += 0.30;
            // The little cluster saturates early; an unreachable
            // perf_little target would permanently pressure threads off
            // the big cluster, so it climbs slowly and only while the
            // measurement follows.
            if y.perf_little > 0.6 * self.targets.perf_little {
                self.targets.perf_little += 0.03;
            }
        } else {
            self.targets.perf_big = (self.targets.perf_big - 0.12).max(0.2);
            self.targets.perf_little = (self.targets.perf_little - 0.04).max(0.05);
            self.best_exd *= 1.05;
        }
        // Every few invocations probe the spare-capacity balance; keep the
        // probe direction while it pays off.
        if self.ticks.is_multiple_of(4) {
            if !improved {
                self.spare_step = -self.spare_step;
            }
            self.targets.spare_diff = (self.targets.spare_diff + self.spare_step).clamp(-4.0, 4.0);
        }
        self.targets.perf_big = self.targets.perf_big.min(12.0);
        self.targets.perf_little = self.targets.perf_little.min(1.6);
        self.targets
    }

    /// `(floats, ints)` appended by [`OsOptimizer::save_state`].
    pub const STATE_LEN: (usize, usize) = (6, 2);

    /// Appends the hill-climbing state (EMA, best-seen, probe step and
    /// direction, targets, tick count, initialized flag) to a checkpoint
    /// payload.
    pub fn save_state(&self, floats: &mut Vec<f64>, ints: &mut Vec<i64>) {
        floats.extend_from_slice(&[self.ema_exd, self.best_exd, self.spare_step]);
        floats.extend_from_slice(&self.targets.to_vec());
        ints.push(i64::from(self.initialized));
        ints.push(self.ticks as i64);
    }

    /// Restores state appended by [`OsOptimizer::save_state`]. Slices must
    /// be exactly [`OsOptimizer::STATE_LEN`] long (the caller validates lengths before splitting the payload).
    pub fn restore_state(&mut self, floats: &[f64], ints: &[i64]) {
        self.ema_exd = floats[0];
        self.best_exd = floats[1];
        self.spare_step = floats[2];
        self.targets = OsOutputs::from_slice(&floats[3..]);
        self.initialized = ints[0] != 0;
        self.ticks = ints[1] as u64;
    }
}

impl Default for OsOptimizer {
    fn default() -> Self {
        OsOptimizer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs(perf: f64, p_big: f64) -> HwOutputs {
        HwOutputs {
            perf,
            p_big,
            p_little: 0.2,
            temp: 60.0,
        }
    }

    #[test]
    fn exd_proxy_prefers_fast_efficient_points() {
        // Same power, double performance → 4x lower proxy.
        let slow = HwOptimizer::exd_proxy(&outputs(2.0, 3.0));
        let fast = HwOptimizer::exd_proxy(&outputs(4.0, 3.0));
        assert!((slow / fast - 4.0).abs() < 1e-9);
    }

    #[test]
    fn first_update_initializes_targets_optimistically() {
        let mut opt = HwOptimizer::new(Limits::default());
        let t = opt.update(&outputs(3.0, 2.0));
        // Optimistic start: near the power envelope, perf at least 6.
        assert!((t.p_big - 3.3 * 0.85).abs() < 1e-9);
        assert!(t.perf >= 6.0);
        assert_eq!(t.temp, 75.0);
    }

    #[test]
    fn improving_exd_raises_perf_target_aggressively() {
        let mut opt = HwOptimizer::new(Limits::default());
        opt.update(&outputs(3.0, 2.0));
        let before = opt.targets;
        // Better E x D (higher perf at same power) keeps climbing: perf
        // moves 5x faster than the power target (the paper's asymmetry).
        let t = opt.update(&outputs(3.5, 2.0));
        assert!((t.perf - before.perf - 0.40).abs() < 1e-9);
        assert!((t.p_big - before.p_big - 0.08).abs() < 1e-9);
    }

    #[test]
    fn regression_backs_power_off_aggressively() {
        let mut opt = HwOptimizer::new(Limits::default());
        opt.update(&outputs(3.0, 2.0));
        opt.update(&outputs(3.5, 2.0));
        let before = opt.targets;
        // Much worse E x D -> reverse with the opposite asymmetry; a single
        // bad sample may not cross the smoothed threshold, so regress hard
        // for a few invocations.
        let mut t = before;
        for _ in 0..6 {
            t = opt.update(&outputs(0.8, 3.0));
        }
        assert!(
            t.perf < before.perf + 6.0 * 0.40,
            "perf target kept climbing"
        );
        assert!(
            t.p_big < before.p_big + 6.0 * 0.08,
            "power target kept climbing"
        );
    }

    #[test]
    fn power_targets_respect_limits() {
        let mut opt = HwOptimizer::new(Limits::default());
        opt.update(&outputs(3.0, 3.2));
        // Keep improving for many steps: targets may overshoot the limit
        // (integral trim) but must stay inside the sane envelope, and must
        // retreat when the *measured* power exceeds the limit.
        for k in 0..100 {
            let t = opt.update(&outputs(3.0 + k as f64 * 0.1, 3.2));
            assert!(t.p_big <= 3.3 * 2.0 + 1e-9);
            assert!(t.p_little <= 0.33 * 2.0 + 1e-9);
            assert!(t.temp < 79.0);
        }
        let high = opt.targets.p_big;
        // Measured power over the limit: target retreats immediately.
        let t = opt.update(&outputs(9.0, 3.5));
        assert!(t.p_big < high, "target must retreat on measured violation");
    }

    #[test]
    fn os_optimizer_probes_spare_capacity() {
        let mut opt = OsOptimizer::new();
        let y = OsOutputs {
            perf_little: 0.5,
            perf_big: 2.0,
            spare_diff: 0.0,
        };
        let sys = outputs(3.0, 2.0);
        let first = opt.update(&y, &sys);
        assert_eq!(first.spare_diff, 1.0);
        let mut seen_change = false;
        let mut prev = first.spare_diff;
        for _ in 0..12 {
            let t = opt.update(&y, &sys);
            if (t.spare_diff - prev).abs() > 1e-9 {
                seen_change = true;
            }
            prev = t.spare_diff;
            assert!((-4.0..=4.0).contains(&t.spare_diff));
        }
        assert!(seen_change, "ΔSC target should be probed");
    }

    #[test]
    fn os_optimizer_raises_big_perf_faster_than_little() {
        let mut opt = OsOptimizer::new();
        let y = OsOutputs {
            perf_little: 0.5,
            perf_big: 2.0,
            spare_diff: 0.0,
        };
        let sys = outputs(3.0, 2.0);
        opt.update(&y, &sys);
        let t0 = opt.targets;
        let t = opt.update(&y, &outputs(3.5, 2.0));
        assert!(t.perf_big - t0.perf_big > t.perf_little - t0.perf_little);
    }
}
