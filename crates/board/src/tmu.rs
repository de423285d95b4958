//! The board's built-in emergency thermal/power heuristics, modeled on the
//! Exynos TMU driver the paper cites (refs. \[57\]–\[59\]).
//!
//! These heuristics are *part of the plant*, not of any controller scheme:
//! they fire when the resource controllers let power or temperature run
//! away, clamping frequency (and, at a higher trip, core count) and then
//! releasing the clamp gradually. The resulting sawtooth is exactly the
//! oscillation the paper's Figure 10(b) shows for the decoupled heuristic.

use crate::config::{BIG, LITTLE, MIN_CORES};

/// First thermal trip (°C): clamp the big-cluster frequency.
const T_THROTTLE: f64 = 85.0;
/// Second thermal trip (°C): additionally unplug big cores.
const T_HOTPLUG: f64 = 92.0;
/// Release threshold (°C) with hysteresis.
const T_RELEASE: f64 = 80.0;
/// Frequency forced while thermally throttled (GHz).
const F_THROTTLE: f64 = 0.9;
/// Sustained big-cluster power (W) that triggers the power emergency.
const P_BIG_EMERGENCY: f64 = 3.8;
/// Sustained little-cluster power (W) that triggers it for little.
const P_LITTLE_EMERGENCY: f64 = 0.40;
/// How long (s) power must exceed the trip before acting.
const SUSTAIN_WINDOW: f64 = 1.0;
/// TMU evaluation period (s).
const PERIOD: f64 = 0.1;
/// How much a frequency cap rises per period while releasing (GHz).
const RELEASE_STEP: f64 = 0.1;
/// How far below the current frequency a power emergency caps (GHz).
const POWER_BACKOFF: f64 = 0.4;
/// How far each further little-cluster power emergency lowers its cap (GHz).
const LITTLE_REPEAT_BACKOFF: f64 = 0.2;
/// Big cores left powered by the hotplug trip.
const HOTPLUG_CORES: usize = 2;

const _: () = assert!(MIN_CORES <= HOTPLUG_CORES && HOTPLUG_CORES <= BIG.n_cores);

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
#[derive(Debug, Clone, Default)]
pub struct Tmu {
    timer: f64,
    over_big: f64,
    over_little: f64,
    caps: TmuCaps,
    /// Number of emergency trips so far (diagnostic; the paper counts the
    /// peaks/valleys these cause).
    trips: u64,
}

impl Tmu {
    /// Creates the state machine with no cap in force.
    pub fn new() -> Self {
        Tmu::default()
    }

    /// Advances the heuristics by `dt` and returns the caps to apply.
    ///
    /// * `t_hot` — hotspot temperature (°C).
    /// * `p_big`/`p_little` — cluster powers as seen by the power sensors (W).
    /// * `f_big` — the big cluster's current frequency (GHz).
    pub fn step(&mut self, dt: f64, t_hot: f64, p_big: f64, p_little: f64, f_big: f64) -> TmuCaps {
        // Track sustained over-power continuously.
        if p_big > P_BIG_EMERGENCY {
            self.over_big += dt;
        } else {
            self.over_big = 0.0;
        }
        if p_little > P_LITTLE_EMERGENCY {
            self.over_little += dt;
        } else {
            self.over_little = 0.0;
        }
        self.timer += dt;
        if self.timer + 1e-12 < PERIOD {
            return self.caps;
        }
        self.timer = 0.0;

        // --- Thermal trips ---
        if t_hot > T_HOTPLUG {
            if self.caps.big_cores != Some(HOTPLUG_CORES) {
                self.trips += 1;
            }
            self.caps.big_cores = Some(HOTPLUG_CORES);
            self.caps.f_big = Some(F_THROTTLE);
        } else if t_hot > T_THROTTLE {
            let cap = F_THROTTLE;
            if self.caps.f_big.is_none_or(|c| c > cap) {
                self.trips += 1;
            }
            self.caps.f_big = Some(self.caps.f_big.map_or(cap, |c| c.min(cap)));
        }

        // --- Power trips ---
        if self.over_big >= SUSTAIN_WINDOW {
            let cap = (f_big - POWER_BACKOFF).max(BIG.f_min);
            if self.caps.f_big.is_none_or(|c| c > cap) {
                self.trips += 1;
                self.caps.f_big = Some(self.caps.f_big.map_or(cap, |c| c.min(cap)));
            }
            self.over_big = 0.0;
        }
        if self.over_little >= SUSTAIN_WINDOW {
            let cap = self
                .caps
                .f_little
                .map_or(LITTLE.f_max - POWER_BACKOFF, |c| {
                    (c - LITTLE_REPEAT_BACKOFF).max(LITTLE.f_min)
                })
                .max(LITTLE.f_min);
            self.caps.f_little = Some(cap);
            self.over_little = 0.0;
            self.trips += 1;
        }

        // --- Gradual release with hysteresis ---
        let cool = t_hot < T_RELEASE;
        if cool && p_big < P_BIG_EMERGENCY {
            if let Some(cap) = self.caps.big_cores {
                if cap < BIG.n_cores {
                    self.caps.big_cores = Some(cap + 1);
                } else {
                    self.caps.big_cores = None;
                }
            } else if let Some(f) = self.caps.f_big {
                let next = f + RELEASE_STEP;
                self.caps.f_big = if next >= BIG.f_max { None } else { Some(next) };
            }
        }
        if p_little < P_LITTLE_EMERGENCY {
            if let Some(f) = self.caps.f_little {
                let next = f + RELEASE_STEP;
                self.caps.f_little = if next >= LITTLE.f_max {
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
        let mut t = Tmu::new();
        let caps = run(&mut t, 5.0, 60.0, 2.5, 0.25, 1.4);
        assert!(!caps.active());
        assert_eq!(t.trips(), 0);
    }

    #[test]
    fn thermal_trip_clamps_frequency() {
        let mut t = Tmu::new();
        let caps = run(&mut t, 0.5, 88.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(0.9));
        assert!(t.trips() >= 1);
    }

    #[test]
    fn hotplug_trip_removes_cores() {
        let mut t = Tmu::new();
        let caps = run(&mut t, 0.5, 95.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.big_cores, Some(2));
        assert_eq!(caps.f_big, Some(0.9));
    }

    #[test]
    fn sustained_power_trips_after_window() {
        let mut t = Tmu::new();
        // Under the 1 s sustain window: no trip.
        let caps = run(&mut t, 0.5, 60.0, 5.5, 0.2, 2.0);
        assert!(caps.f_big.is_none());
        // Past the window: frequency cap appears.
        let caps = run(&mut t, 1.0, 60.0, 5.5, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(1.6));
    }

    #[test]
    fn caps_release_gradually_when_safe() {
        let mut t = Tmu::new();
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
        let mut t = Tmu::new();
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
        let mut t = Tmu::new();
        let caps = run(&mut t, 1.5, 60.0, 2.0, 0.6, 1.4);
        assert!(caps.f_little.is_some());
    }

    #[test]
    fn engage_release_race_holds_cap_inside_hysteresis_band() {
        // The race the paper describes: the TMU throttles, the governor
        // immediately re-requests max frequency, and the temperature
        // settles between t_release and t_throttle. Without hysteresis the
        // cap would flap every period; with it, the cap must hold exactly.
        let mut t = Tmu::new();
        // Engage: above t_throttle.
        let caps = run(&mut t, 0.5, T_THROTTLE + 3.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(F_THROTTLE));
        let trips_at_engage = t.trips();
        // Inside the band (t_release < T < t_throttle) with the governor
        // still pushing max frequency: the cap neither releases nor
        // re-trips, however long we wait.
        let mid = 0.5 * (T_RELEASE + T_THROTTLE);
        let caps = run(&mut t, 5.0, mid, 3.0, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(F_THROTTLE), "cap must hold in band");
        assert_eq!(t.trips(), trips_at_engage, "no re-trips inside the band");
        // Below t_release: gradual release at release_step per period.
        let caps_mid = run(&mut t, 2.0 * PERIOD, T_RELEASE - 2.0, 1.0, 0.1, 0.9);
        let released = caps_mid.f_big.expect("still releasing");
        assert!(
            released > F_THROTTLE && released <= F_THROTTLE + 2.5 * RELEASE_STEP,
            "gradual release, got {released}"
        );
        let caps_end = run(&mut t, 3.0, T_RELEASE - 2.0, 1.0, 0.1, 0.9);
        assert!(caps_end.f_big.is_none(), "cap fully released");
    }

    #[test]
    fn tmu_constants_are_respected() {
        // Hotplug trip keeps exactly `HOTPLUG_CORES` big cores.
        let mut t = Tmu::new();
        let caps = run(&mut t, 0.5, T_HOTPLUG + 2.0, 3.0, 0.2, 2.0);
        assert_eq!(caps.big_cores, Some(HOTPLUG_CORES));
        // Power emergency backs off by `POWER_BACKOFF` from 2.0 GHz.
        let mut t2 = Tmu::new();
        let caps = run(&mut t2, 1.5, 60.0, 5.5, 0.2, 2.0);
        assert_eq!(caps.f_big, Some(2.0 - POWER_BACKOFF));
        // Release climbs by `RELEASE_STEP` per period once safe.
        let caps2 = run(&mut t2, PERIOD, 60.0, 1.0, 0.1, 1.0);
        let want = 2.0 - POWER_BACKOFF + RELEASE_STEP;
        assert!((caps2.f_big.unwrap() - want).abs() < 1e-9);
    }
}
