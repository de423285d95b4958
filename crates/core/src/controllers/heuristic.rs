//! The heuristic baselines of Table IV.
//!
//! *Coordinated heuristic* models the industry-standard stack on
//! big.LITTLE boards: an HMP-style scheduler that places demanding threads
//! big-first using the number/type/frequency of available cores, plus a
//! hardware governor that climbs frequency and core count while operation
//! is safe, sized by the observed thread distribution.
//!
//! *Decoupled heuristic* removes all coordination: the OS round-robins
//! threads over every core, and the hardware governor behaves like the
//! Linux `performance` governor — everything at maximum until a limit
//! trips, then a threshold-based backoff that ignores thread placement.

use yukta_board::config::{BIG, ClusterConfig, LITTLE, MIN_CORES};
use yukta_linalg::{Error, Result};

use crate::controllers::{ControllerState, HwPolicy, HwSense, OsPolicy, OsSense};
use crate::signals::{HwInputs, Limits, OsInputs, PACKING_MIN, SloSense};

/// Whether the serving layer is close to (or past) its tail-latency bound.
///
/// Only meaningful when a request-serving run attached an active
/// [`SloSense`]; on batch runs `slo.active` is `false` and this is a
/// constant `false`, which keeps every batch trace bit-identical to the
/// pre-serving implementation.
fn slo_pressure(slo: &SloSense, limits: &Limits) -> bool {
    // React at 60% of the bound: by the time the windowed p99 *crosses*
    // the SLO the queue already holds a period of overload, and the tail
    // pays for every period of late ramping.
    slo.active && (slo.p99_s > 0.6 * limits.latency_slo_s || slo.backlog_frac > 0.3)
}

/// HMP-style coordinated scheduler (OS half of *Coordinated heuristic*,
/// also reused by *Yukta: HW SSV + OS heuristic*).
#[derive(Debug, Clone, Default)]
pub struct CoordinatedHeuristicOs;

impl CoordinatedHeuristicOs {
    /// Creates the scheduler.
    pub fn new() -> Self {
        CoordinatedHeuristicOs
    }
}

impl OsPolicy for CoordinatedHeuristicOs {
    fn invoke(&mut self, sense: &OsSense) -> Result<OsInputs> {
        let n = sense.active_threads;
        // Plan against the *physical* cores (HMP sees all CPUs); the
        // hardware layer then powers exactly the cores the placement
        // needs. Planning on currently-powered cores instead would
        // deadlock both layers at one core each.
        let nbc = BIG.n_cores;
        let nlc = LITTLE.n_cores;
        if n == 0 {
            return Ok(OsInputs {
                threads_big: 0.0,
                packing_big: 1.0,
                packing_little: 1.0,
            });
        }
        // Big-first placement over the cores the hardware layer exposes
        // (the coordination), one thread per core while possible.
        // E×D awareness: when the big cluster is running slow (deep DVFS
        // throttle), spill some threads to little instead of stacking big —
        // unless the serving layer is under SLO pressure, where latency
        // beats E×D and threads migrate toward the fast cluster.
        let f_ratio = (sense.ext.f_big / BIG.f_max).clamp(0.0, 1.0);
        let throttled = f_ratio < 0.3 && !slo_pressure(&sense.slo, &sense.limits);
        let big_capacity = if throttled { nbc.min(2) } else { nbc };
        let (tb, pb, pl);
        if n <= big_capacity {
            tb = n;
            pb = 1.0;
            pl = 1.0;
        } else if n <= big_capacity + nlc {
            tb = big_capacity;
            pb = 1.0;
            pl = 1.0;
        } else {
            // Oversubscribed: pack the big cluster (it is faster) before
            // overloading little.
            let spill = n - big_capacity - nlc;
            let extra_big = spill.min(big_capacity);
            tb = big_capacity + extra_big;
            pb = (tb as f64 / big_capacity.max(1) as f64).max(PACKING_MIN);
            let tl = n - tb;
            pl = (tl as f64 / nlc.max(1) as f64).max(PACKING_MIN);
        }
        Ok(OsInputs {
            threads_big: tb as f64,
            packing_big: pb,
            packing_little: pl,
        })
    }

    fn name(&self) -> &'static str {
        "os-coordinated-heuristic"
    }
}

/// Safety-margin climbing governor (HW half of *Coordinated heuristic*).
#[derive(Debug, Clone, Default)]
pub struct CoordinatedHeuristicHw;

impl CoordinatedHeuristicHw {
    /// Creates the governor.
    pub fn new() -> Self {
        CoordinatedHeuristicHw
    }
}

impl HwPolicy for CoordinatedHeuristicHw {
    fn invoke(&mut self, sense: &HwSense) -> Result<HwInputs> {
        let lim = sense.limits;
        let y = sense.outputs;
        let cur = sense.current;
        // Size core counts from the thread distribution (coordination).
        let tb = sense.ext.threads_big.round() as usize;
        let tl = sense.active_threads.saturating_sub(tb);
        let need = |threads: usize, packing: f64, c: &ClusterConfig| {
            ((threads as f64 / packing.max(PACKING_MIN)).ceil() as usize)
                .clamp(MIN_CORES, c.n_cores)
        };
        let need_big = need(tb, sense.ext.packing_big, &BIG);
        let need_little = need(tl, sense.ext.packing_little, &LITTLE);
        // Frequency: climb one step while clearly safe, back off
        // proportionally to the violation. Under SLO pressure the governor
        // jumps straight to the cluster cap instead of stepping: a flash
        // crowd ramps faster than any incremental climb, and the tail pays
        // for every period spent below capacity. The violation backoff is
        // unchanged — the safety rails outrank the SLO.
        let surge = slo_pressure(&sense.slo, &lim);
        let f_big = step_frequency(
            &BIG,
            cur.f_big,
            y.p_big,
            lim.p_big_max,
            y.temp,
            lim.temp_max,
            surge,
        );
        let f_little = step_frequency(
            &LITTLE,
            cur.f_little,
            y.p_little,
            lim.p_little_max,
            y.temp,
            lim.temp_max,
            surge,
        );
        Ok(HwInputs {
            big_cores: need_big as f64,
            little_cores: need_little as f64,
            f_big,
            f_little,
        })
    }

    fn name(&self) -> &'static str {
        "hw-coordinated-heuristic"
    }
}

/// One-step-up / proportional-step-down frequency rule of cluster `c`,
/// shared by the coordinated governor. While safe it climbs one DVFS step,
/// or straight to the cluster's top frequency under SLO pressure
/// (`surge`).
fn step_frequency(
    c: &ClusterConfig,
    f: f64,
    p: f64,
    p_max: f64,
    t: f64,
    t_max: f64,
    surge: bool,
) -> f64 {
    if p > p_max || t > t_max {
        let over = ((p / p_max - 1.0).max(0.0) + (t / t_max - 1.0).max(0.0)).max(0.01);
        let steps = (over / 0.05).ceil().min(5.0);
        (f - c.f_step * steps).max(c.f_min)
    } else if surge {
        c.f_max
    } else {
        // Climb whenever operation is safe (Table IV(a) verbatim). This is
        // what makes the heuristic probe the limit and produce the
        // peaks/valleys of Figure 10(a): the next step up periodically
        // violates and gets knocked back.
        (f + c.f_step).min(c.f_max)
    }
}

/// Round-robin scheduler (OS half of *Decoupled heuristic*).
#[derive(Debug, Clone, Default)]
pub struct DecoupledHeuristicOs;

impl DecoupledHeuristicOs {
    /// Creates the scheduler.
    pub fn new() -> Self {
        DecoupledHeuristicOs
    }
}

impl OsPolicy for DecoupledHeuristicOs {
    fn invoke(&mut self, sense: &OsSense) -> Result<OsInputs> {
        // Round-robin over all eight cores, blind to core type/frequency:
        // alternate assignments land half the threads on each cluster.
        let n = sense.active_threads;
        let tb = n.div_ceil(2);
        Ok(OsInputs {
            threads_big: tb as f64,
            packing_big: 1.0,
            packing_little: 1.0,
        })
    }

    fn name(&self) -> &'static str {
        "os-decoupled-roundrobin"
    }
}

/// Performance-governor-style hardware controller (HW half of *Decoupled
/// heuristic*): maximum everything while safe; on a violation, threshold
/// rules reduce frequency first, then core count — irrespective of the
/// number of threads. Once readings look safe again it snaps straight
/// back to maximum, which is what makes Figure 10(b) oscillate.
#[derive(Debug, Clone, Default)]
pub struct DecoupledHeuristicHw {
    backoff_freq_steps: usize,
    backoff_cores: usize,
    safe_streak: usize,
}

impl DecoupledHeuristicHw {
    /// Creates the governor.
    pub fn new() -> Self {
        DecoupledHeuristicHw::default()
    }
}

impl HwPolicy for DecoupledHeuristicHw {
    fn invoke(&mut self, sense: &HwSense) -> Result<HwInputs> {
        let lim = sense.limits;
        let y = sense.outputs;
        let violated =
            y.p_big > lim.p_big_max || y.p_little > lim.p_little_max || y.temp > lim.temp_max;
        if violated {
            self.safe_streak = 0;
            if self.backoff_freq_steps < 8 {
                self.backoff_freq_steps += 2; // reduce frequency first…
            } else if self.backoff_cores < BIG.n_cores - MIN_CORES {
                self.backoff_cores += 1; // …then the number of cores
            }
        } else {
            self.safe_streak += 1;
            if self.safe_streak >= 2 {
                // Looks safe: jump straight back to maximum.
                self.backoff_freq_steps = 0;
                self.backoff_cores = 0;
            }
        }
        let backoff =
            |c: &ClusterConfig| (c.f_max - c.f_step * self.backoff_freq_steps as f64).max(c.f_min);
        Ok(HwInputs {
            big_cores: (BIG.n_cores - self.backoff_cores).max(MIN_CORES) as f64,
            little_cores: LITTLE.n_cores as f64,
            f_big: backoff(&BIG),
            f_little: backoff(&LITTLE),
        })
    }

    fn name(&self) -> &'static str {
        "hw-decoupled-performance"
    }

    fn reset(&mut self) {
        *self = DecoupledHeuristicHw::default();
    }

    /// Ints: the three backoff counters (frequency steps, cores, safe
    /// streak). The only heuristic with internal state.
    fn save_state(&self) -> ControllerState {
        let mut s = ControllerState::stateless(self.name());
        s.ints = vec![
            self.backoff_freq_steps as i64,
            self.backoff_cores as i64,
            self.safe_streak as i64,
        ];
        s
    }

    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        state.check(self.name(), 0, 3)?;
        if state.ints.iter().any(|&v| v < 0) {
            return Err(Error::NoSolution {
                op: "controller_restore_state",
                why: "negative backoff counter",
            });
        }
        self.backoff_freq_steps = state.ints[0] as usize;
        self.backoff_cores = state.ints[1] as usize;
        self.safe_streak = state.ints[2] as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{HwOutputs, Limits, OsOutputs};

    fn hw_sense(p_big: f64, temp: f64, f_big: f64) -> HwSense {
        HwSense {
            outputs: HwOutputs {
                perf: 4.0,
                p_big,
                p_little: 0.2,
                temp,
            },
            ext: OsInputs {
                threads_big: 4.0,
                packing_big: 1.0,
                packing_little: 1.0,
            },
            current: HwInputs {
                big_cores: 4.0,
                little_cores: 4.0,
                f_big,
                f_little: 1.0,
            },
            active_threads: 8,
            slo: Default::default(),
            limits: Limits::default(),
        }
    }

    fn os_sense(n_active: usize, big_cores: f64, f_big: f64) -> OsSense {
        OsSense {
            outputs: OsOutputs::default(),
            ext: HwInputs {
                big_cores,
                little_cores: 4.0,
                f_big,
                f_little: 1.0,
            },
            current: OsInputs {
                threads_big: 4.0,
                packing_big: 1.0,
                packing_little: 1.0,
            },
            active_threads: n_active,
            system: HwOutputs::default(),
            slo: Default::default(),
            limits: Limits::default(),
        }
    }

    /// An active SLO observation with p99 past 80% of the 1 s bound.
    fn pressured_slo() -> SloSense {
        SloSense {
            active: true,
            p95_s: 0.6,
            p99_s: 0.9,
            backlog_frac: 0.2,
            drop_frac: 0.0,
        }
    }

    #[test]
    fn coordinated_os_prefers_big_cluster() {
        let mut os = CoordinatedHeuristicOs::new();
        let u = os.invoke(&os_sense(3, 4.0, 1.5)).unwrap();
        assert_eq!(u.threads_big, 3.0);
        assert_eq!(u.packing_big, 1.0);
    }

    #[test]
    fn coordinated_os_spills_to_little() {
        let mut os = CoordinatedHeuristicOs::new();
        let u = os.invoke(&os_sense(6, 4.0, 1.5)).unwrap();
        assert_eq!(u.threads_big, 4.0); // 4 big + 2 little
        assert_eq!(u.packing_little, 1.0);
    }

    #[test]
    fn coordinated_os_packs_when_oversubscribed() {
        let mut os = CoordinatedHeuristicOs::new();
        let u = os.invoke(&os_sense(12, 4.0, 1.5)).unwrap();
        assert!(u.threads_big > 4.0);
        assert!(u.packing_big > 1.0);
    }

    #[test]
    fn coordinated_os_reacts_to_throttled_big_cluster() {
        let mut os = CoordinatedHeuristicOs::new();
        let normal = os.invoke(&os_sense(4, 4.0, 1.5)).unwrap();
        let throttled = os.invoke(&os_sense(4, 4.0, 0.3)).unwrap();
        assert!(throttled.threads_big < normal.threads_big);
    }

    #[test]
    fn coordinated_os_idle_workload() {
        let mut os = CoordinatedHeuristicOs::new();
        let u = os.invoke(&os_sense(0, 4.0, 1.5)).unwrap();
        assert_eq!(u.threads_big, 0.0);
    }

    #[test]
    fn coordinated_hw_climbs_when_safe() {
        let mut hw = CoordinatedHeuristicHw::new();
        let u = hw.invoke(&hw_sense(2.0, 55.0, 1.0)).unwrap();
        assert!((u.f_big - 1.1).abs() < 1e-9);
    }

    #[test]
    fn coordinated_hw_backs_off_proportionally() {
        let mut hw = CoordinatedHeuristicHw::new();
        // 20% power overshoot → several steps down at once.
        let u = hw.invoke(&hw_sense(3.96, 55.0, 1.6)).unwrap();
        assert!(u.f_big <= 1.3, "f_big {}", u.f_big);
        // Mild overshoot → one step down.
        let u2 = hw.invoke(&hw_sense(3.35, 55.0, 1.6)).unwrap();
        assert!((u2.f_big - 1.5).abs() < 1e-9);
        // Just under the limit → keeps probing upward (the paper's
        // "increase while safe"), which is the source of its oscillation.
        let u3 = hw.invoke(&hw_sense(3.25, 55.0, 1.3)).unwrap();
        assert!((u3.f_big - 1.4).abs() < 1e-9);
    }

    #[test]
    fn coordinated_hw_sizes_cores_from_thread_distribution() {
        let mut hw = CoordinatedHeuristicHw::new();
        let mut s = hw_sense(2.0, 55.0, 1.0);
        s.ext.threads_big = 2.0;
        s.active_threads = 3; // one thread on little
        let u = hw.invoke(&s).unwrap();
        assert_eq!(u.big_cores, 2.0);
        assert_eq!(u.little_cores, 1.0);
    }

    #[test]
    fn slo_pressure_jumps_to_max_frequency_when_safe() {
        let mut hw = CoordinatedHeuristicHw::new();
        let mut s = hw_sense(2.0, 55.0, 1.0);
        s.slo = pressured_slo();
        let u = hw.invoke(&s).unwrap();
        assert!((u.f_big - 2.0).abs() < 1e-9, "f_big {}", u.f_big);
        // An inactive observation with the same readings is ignored: batch
        // runs stay bit-identical.
        s.slo.active = false;
        let u2 = hw.invoke(&s).unwrap();
        assert!((u2.f_big - 1.1).abs() < 1e-9, "f_big {}", u2.f_big);
    }

    #[test]
    fn slo_pressure_keeps_threads_on_big_despite_throttle() {
        let mut os = CoordinatedHeuristicOs::new();
        let mut s = os_sense(4, 4.0, 0.3); // deep DVFS throttle
        let spilled = os.invoke(&s).unwrap();
        assert!(spilled.threads_big < 4.0);
        s.slo = pressured_slo();
        let held = os.invoke(&s).unwrap();
        assert_eq!(
            held.threads_big, 4.0,
            "latency beats E\u{d7}D under pressure"
        );
    }

    #[test]
    fn slo_backoff_rule_is_unchanged_under_pressure() {
        // Pressure only accelerates the climb; violations still back off
        // proportionally (the safety rails outrank the SLO).
        let mut hw = CoordinatedHeuristicHw::new();
        let mut s = hw_sense(3.96, 55.0, 1.6);
        s.slo = pressured_slo();
        let u = hw.invoke(&s).unwrap();
        assert!(u.f_big <= 1.3, "f_big {}", u.f_big);
    }

    #[test]
    fn decoupled_os_round_robins() {
        let mut os = DecoupledHeuristicOs::new();
        let u = os.invoke(&os_sense(8, 4.0, 2.0)).unwrap();
        assert_eq!(u.threads_big, 4.0);
        let u = os.invoke(&os_sense(5, 4.0, 2.0)).unwrap();
        assert_eq!(u.threads_big, 3.0);
    }

    #[test]
    fn decoupled_hw_runs_flat_out_when_safe() {
        let mut hw = DecoupledHeuristicHw::new();
        let u = hw.invoke(&hw_sense(2.0, 55.0, 2.0)).unwrap();
        assert_eq!(u.f_big, 2.0);
        assert_eq!(u.big_cores, 4.0);
    }

    #[test]
    fn decoupled_hw_oscillates_on_violations() {
        let mut hw = DecoupledHeuristicHw::new();
        // Violation: backs off two steps.
        let u1 = hw.invoke(&hw_sense(4.5, 70.0, 2.0)).unwrap();
        assert!((u1.f_big - 1.8).abs() < 1e-9);
        // Continued violation: further back-off.
        let u2 = hw.invoke(&hw_sense(4.0, 70.0, 1.8)).unwrap();
        assert!((u2.f_big - 1.6).abs() < 1e-9);
        // Two safe readings: snaps back to max (the oscillation source).
        hw.invoke(&hw_sense(2.0, 60.0, 1.6)).unwrap();
        let u4 = hw.invoke(&hw_sense(2.0, 60.0, 1.6)).unwrap();
        assert_eq!(u4.f_big, 2.0);
    }

    #[test]
    fn decoupled_hw_drops_cores_after_frequency_exhausted() {
        let mut hw = DecoupledHeuristicHw::new();
        for _ in 0..4 {
            hw.invoke(&hw_sense(4.5, 88.0, 1.0)).unwrap();
        }
        let u = hw.invoke(&hw_sense(4.5, 88.0, 1.0)).unwrap();
        assert!(u.big_cores < 4.0);
    }
}
