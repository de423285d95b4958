//! The board's built-in emergency thermal/power heuristics, modeled on the
//! Exynos TMU driver the paper cites (refs. \[57\]–\[59\]).
//!
//! These heuristics are *part of the plant*, not of any controller scheme:
//! they fire when the resource controllers let power or temperature run
//! away, clamping frequency (and, at a higher trip, core count) and then
//! releasing the clamp gradually. The resulting sawtooth is exactly the
//! oscillation the paper's Figure 10(b) shows for the decoupled heuristic.

use crate::config::TmuConfig;

/// Caps currently imposed by the emergency logic. `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TmuCaps {
    /// Maximum big-cluster frequency (GHz).
    pub f_big: Option<f64>,
    /// Maximum little-cluster frequency (GHz).
    pub f_little: Option<f64>,
    /// Maximum powered big cores.
    pub big_cores: Option<usize>,
}

impl TmuCaps {
    /// Whether any cap is active.
    pub fn active(&self) -> bool {
        self.f_big.is_some() || self.f_little.is_some() || self.big_cores.is_some()
    }
}

/// The emergency state machine.
#[derive(Debug, Clone)]
pub struct Tmu {
    cfg: TmuConfig,
    f_big_max: f64,
    f_little_max: f64,
    n_big_cores: usize,
    timer: f64,
    over_big: f64,
    over_little: f64,
    caps: TmuCaps,
    /// Number of emergency trips so far (diagnostic; the paper counts the
    /// peaks/valleys these cause).
    trips: u64,
}

impl Tmu {
    /// Creates the state machine for a board whose clusters top out at the
    /// given frequencies/core count.
    pub fn new(cfg: TmuConfig, f_big_max: f64, f_little_max: f64, n_big_cores: usize) -> Self {
        Tmu {
            cfg,
            f_big_max,
            f_little_max,
            n_big_cores,
            timer: 0.0,
            over_big: 0.0,
            over_little: 0.0,
            caps: TmuCaps::default(),
            trips: 0,
        }
    }

    /// Advances the heuristics by `dt` and returns the caps to apply.
    ///
    /// * `t_hot` — hotspot temperature (°C).
    /// * `p_big`/`p_little` — cluster powers as seen by the power sensors (W).
    /// * `f_big` — the big cluster's current frequency (GHz).
    pub fn step(&mut self, dt: f64, t_hot: f64, p_big: f64, p_little: f64, f_big: f64) -> TmuCaps {
        // Track sustained over-power continuously.
        if p_big > self.cfg.p_big_emergency {
            self.over_big += dt;
        } else {
            self.over_big = 0.0;
        }
        if p_little > self.cfg.p_little_emergency {
            self.over_little += dt;
        } else {
            self.over_little = 0.0;
        }
        self.timer += dt;
        if self.timer + 1e-12 < self.cfg.period {
            return self.caps;
        }
        self.timer = 0.0;

        // --- Thermal trips ---
        if t_hot > self.cfg.t_hotplug {
            let keep = self.cfg.hotplug_cores.clamp(1, self.n_big_cores);
            if self.caps.big_cores != Some(keep) {
                self.trips += 1;
            }
            self.caps.big_cores = Some(keep);
            self.caps.f_big = Some(self.cfg.f_throttle);
        } else if t_hot > self.cfg.t_throttle {
            let cap = self.cfg.f_throttle;
            if self.caps.f_big.is_none_or(|c| c > cap) {
                self.trips += 1;
            }
            self.caps.f_big = Some(self.caps.f_big.map_or(cap, |c| c.min(cap)));
        }

        // --- Power trips ---
        if self.over_big >= self.cfg.sustain_window {
            let cap = (f_big - self.cfg.power_backoff).max(0.2);
            if self.caps.f_big.is_none_or(|c| c > cap) {
                self.trips += 1;
                self.caps.f_big = Some(self.caps.f_big.map_or(cap, |c| c.min(cap)));
            }
            self.over_big = 0.0;
        }
        if self.over_little >= self.cfg.sustain_window {
            let cap = self
                .caps
                .f_little
                .map_or(self.f_little_max - self.cfg.power_backoff, |c| {
                    (c - 0.2).max(0.2)
                })
                .max(0.2);
            self.caps.f_little = Some(cap);
            self.over_little = 0.0;
            self.trips += 1;
        }

        // --- Gradual release with hysteresis ---
        let cool = t_hot < self.cfg.t_release;
        if cool && p_big < self.cfg.p_big_emergency {
            if let Some(cap) = self.caps.big_cores {
                if cap < self.n_big_cores {
                    self.caps.big_cores = Some(cap + 1);
                } else {
                    self.caps.big_cores = None;
                }
            } else if let Some(f) = self.caps.f_big {
                let next = f + self.cfg.release_step;
                self.caps.f_big = if next >= self.f_big_max {
                    None
                } else {
                    Some(next)
                };
            }
        }
        if p_little < self.cfg.p_little_emergency {
            if let Some(f) = self.caps.f_little {
                let next = f + self.cfg.release_step;
                self.caps.f_little = if next >= self.f_little_max {
                    None
                } else {
                    Some(next)
                };
            }
        }
        self.caps
    }

    /// The caps currently in force.
    pub fn caps(&self) -> TmuCaps {
        self.caps
    }

    /// How many emergency trips have fired so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoardConfig;

    fn tmu() -> Tmu {
        let cfg = BoardConfig::odroid_xu3();
        Tmu::new(cfg.tmu, cfg.big.f_max, cfg.little.f_max, cfg.big.n_cores)
    }

    fn run(t: &mut Tmu, secs: f64, temp: f64, pb: f64, pl: f64, fb: f64) -> TmuCaps {
        let dt = 0.01;
        let mut caps = t.caps();
        let steps = (secs / dt) as usize;
        for _ in 0..steps {
            caps = t.step(dt, temp, pb, pl, fb);
        }
        caps
    }

    #[test]
    fn no_caps_in_safe_operation() {
        let mut t = tmu();
        let caps = run(&mut t, 5.0, 60.0, 2.5, 0.25, 1.4);
        assert!(!caps.active());
        assert_eq!(t.trips(), 0);
    }

    #[test]
    fn thermal_trip_clamps_frequency() {
        let mut t = tmu();
        let caps = run(&mut t, 0.5, 88.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(0.9));
        assert!(t.trips() >= 1);
    }

    #[test]
    fn hotplug_trip_removes_cores() {
        let mut t = tmu();
        let caps = run(&mut t, 0.5, 95.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.big_cores, Some(2));
        assert_eq!(caps.f_big, Some(0.9));
    }

    #[test]
    fn sustained_power_trips_after_window() {
        let mut t = tmu();
        // Under the 1 s sustain window: no trip.
        let caps = run(&mut t, 0.5, 60.0, 5.5, 0.2, 2.0);
        assert!(caps.f_big.is_none());
        // Past the window: frequency cap appears.
        let caps = run(&mut t, 1.0, 60.0, 5.5, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(1.6));
    }

    #[test]
    fn caps_release_gradually_when_safe() {
        let mut t = tmu();
        run(&mut t, 2.0, 88.0, 3.0, 0.2, 2.0); // throttled to 0.9
        // Cool and low power: cap rises 0.1 GHz per period until gone.
        let caps_mid = run(&mut t, 0.5, 60.0, 1.0, 0.1, 0.9);
        assert!(caps_mid.f_big.unwrap() > 0.9);
        let caps_end = run(&mut t, 2.0, 60.0, 1.0, 0.1, 0.9);
        assert!(caps_end.f_big.is_none(), "cap should fully release");
    }

    #[test]
    fn repeated_trips_create_sawtooth() {
        // Emulate a governor that always runs at max: power high whenever
        // uncapped → the TMU trips repeatedly.
        let mut t = tmu();
        let mut trips_seen = 0;
        for _ in 0..20 {
            // High power phase until trip.
            run(&mut t, 1.2, 70.0, 5.5, 0.2, 2.0);
            // After the trip power drops; caps release.
            run(&mut t, 1.2, 70.0, 2.0, 0.2, 0.9);
            trips_seen = t.trips();
        }
        assert!(trips_seen >= 5, "expected repeated trips, saw {trips_seen}");
    }

    #[test]
    fn little_cluster_power_trip() {
        let mut t = tmu();
        let caps = run(&mut t, 1.5, 60.0, 2.0, 0.6, 1.4);
        assert!(caps.f_little.is_some());
    }

    #[test]
    fn engage_release_race_holds_cap_inside_hysteresis_band() {
        // The race the paper describes: the TMU throttles, the governor
        // immediately re-requests max frequency, and the temperature
        // settles between t_release and t_throttle. Without hysteresis the
        // cap would flap every period; with it, the cap must hold exactly.
        let mut t = tmu();
        let cfg = BoardConfig::odroid_xu3().tmu;
        // Engage: above t_throttle.
        let caps = run(&mut t, 0.5, cfg.t_throttle + 3.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(cfg.f_throttle));
        let trips_at_engage = t.trips();
        // Inside the band (t_release < T < t_throttle) with the governor
        // still pushing max frequency: the cap neither releases nor
        // re-trips, however long we wait.
        let mid = 0.5 * (cfg.t_release + cfg.t_throttle);
        let caps = run(&mut t, 5.0, mid, 3.0, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(cfg.f_throttle), "cap must hold in band");
        assert_eq!(t.trips(), trips_at_engage, "no re-trips inside the band");
        // Below t_release: gradual release at release_step per period.
        let caps_mid = run(&mut t, 2.0 * cfg.period, cfg.t_release - 2.0, 1.0, 0.1, 0.9);
        let released = caps_mid.f_big.expect("still releasing");
        assert!(
            released > cfg.f_throttle && released <= cfg.f_throttle + 2.5 * cfg.release_step,
            "gradual release, got {released}"
        );
        let caps_end = run(&mut t, 3.0, cfg.t_release - 2.0, 1.0, 0.1, 0.9);
        assert!(caps_end.f_big.is_none(), "cap fully released");
    }

    #[test]
    fn custom_tmu_config_is_respected() {
        let mut cfg = BoardConfig::odroid_xu3();
        cfg.tmu.hotplug_cores = 1;
        cfg.tmu.release_step = 0.3;
        cfg.tmu.power_backoff = 1.0;
        let mut t = Tmu::new(
            cfg.tmu.clone(),
            cfg.big.f_max,
            cfg.little.f_max,
            cfg.big.n_cores,
        );
        // Hotplug trip keeps exactly `hotplug_cores` big cores.
        let caps = run(&mut t, 0.5, cfg.tmu.t_hotplug + 2.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.big_cores, Some(1));
        // Power emergency backs off by `power_backoff` from 2.0 GHz.
        let mut t2 = Tmu::new(
            cfg.tmu.clone(),
            cfg.big.f_max,
            cfg.little.f_max,
            cfg.big.n_cores,
        );
        let caps = run(&mut t2, 1.5, 60.0, 5.5, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(1.0));
        // Release climbs by `release_step` per period once safe.
        let caps2 = run(&mut t2, cfg.tmu.period, 60.0, 1.0, 0.1, 1.0);
        assert!((caps2.f_big.unwrap() - 1.3).abs() < 1e-9);
    }
}
