//! Seeded open-loop arrival processes for request serving.
//!
//! The paper's evaluation drives Yukta with closed-loop batch apps, but
//! the north-star deployment serves open-loop traffic: requests arrive
//! whether or not the machine keeps up. This module generates those
//! arrivals — constant, diurnal, bursty (two-state MMPP), and
//! flash-crowd patterns with heavy-tailed per-request service demands —
//! from a dedicated seeded RNG so the stream composes with (and never
//! perturbs) the fault injector's RNG stream.
//!
//! Determinism contract: a [`Traffic`] owns its own `StdRng` seeded
//! from `TrafficConfig::seed`, draws from nothing else, and advances
//! only inside [`Traffic::tick`]. Same config ⇒ bit-identical request
//! trace, regardless of what any other generator in the process does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed-domain separator: keeps the traffic stream decorrelated from the
/// fault injector (which XORs its own constant into the shared run seed).
const TRAFFIC_SEED_SALT: u64 = 0x7452_4146_4649_4331; // "TRAFFIC1"

/// Pareto tail index of the per-request service demand (> 1 so the mean
/// exists).
pub const SERVICE_ALPHA: f64 = 1.5;

/// Hard cap on a single request's demand (giga-instructions): keeps the
/// heavy tail bounded, as any real request timeout would.
pub const SERVICE_CAP_GI: f64 = 0.5;

const _: () = assert!(SERVICE_ALPHA > 1.0 && SERVICE_CAP_GI > 0.0);

/// Full period of the diurnal swing (s): a compressed day, sized so a
/// default run sees several periods.
const DIURNAL_PERIOD_S: f64 = 200.0;
/// Peak-to-mean excursion of the diurnal swing, in `[0, 1)`.
const DIURNAL_AMPLITUDE: f64 = 0.4;
/// Bursty rate multiplier in the quiet state.
const BURSTY_LOW_RATIO: f64 = 0.3;
/// Bursty rate multiplier in the burst state.
const BURSTY_HIGH_RATIO: f64 = 1.7;
/// Mean dwell time in each bursty state (s).
const BURSTY_MEAN_DWELL_S: f64 = 10.0;
/// When the flash crowd starts arriving (s).
const FLASH_START_S: f64 = 20.0;
/// Linear ramp duration up to (and later down from) the flash peak (s).
const FLASH_RAMP_S: f64 = 5.0;
/// Rate multiplier at the flash peak.
const FLASH_PEAK_RATIO: f64 = 3.0;
/// How long the flash peak holds (s).
const FLASH_HOLD_S: f64 = 20.0;

const _: () = assert!(
    DIURNAL_PERIOD_S > 0.0
        && 0.0 <= DIURNAL_AMPLITUDE
        && DIURNAL_AMPLITUDE < 1.0
        && 0.0 < BURSTY_LOW_RATIO
        && BURSTY_LOW_RATIO <= BURSTY_HIGH_RATIO
        && BURSTY_MEAN_DWELL_S > 0.0
        && FLASH_START_S >= 0.0
        && FLASH_RAMP_S > 0.0
        && FLASH_PEAK_RATIO >= 1.0
        && FLASH_HOLD_S > 0.0
);

/// Shape of the offered-load curve over time. Each variant multiplies
/// the configured base rate; shapes average roughly 1.0 over their
/// period so `base_rate_rps × load_factor` stays the mean offered load.
/// The shapes are fixed presets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Fixed rate: the M/G/1-style baseline.
    Constant,
    /// Sinusoidal day/night swing, `1 + 0.4·sin(2πt/200 s)`.
    Diurnal,
    /// Two-state Markov-modulated Poisson process: the rate alternates
    /// between 0.3× and 1.7× with exponentially distributed dwell times
    /// (10 s mean).
    Bursty,
    /// Baseline load with one ramp-up/hold/ramp-down spike — the
    /// overload event the shedding machinery exists for: 3× peak
    /// arriving at t = 20 s, 5 s ramps, 20 s hold.
    FlashCrowd,
}

impl TrafficPattern {
    /// The diurnal pattern.
    pub fn diurnal() -> Self {
        TrafficPattern::Diurnal
    }

    /// The MMPP burst pattern.
    pub fn bursty() -> Self {
        TrafficPattern::Bursty
    }

    /// The flash crowd.
    pub fn flash_crowd() -> Self {
        TrafficPattern::FlashCrowd
    }

    /// Stable label for benchmark tables and result JSON.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::Constant => "constant",
            TrafficPattern::Diurnal => "diurnal",
            TrafficPattern::Bursty => "bursty",
            TrafficPattern::FlashCrowd => "flash_crowd",
        }
    }
}

/// Full specification of one open-loop traffic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Offered-load shape over time.
    pub pattern: TrafficPattern,
    /// Mean arrival rate at `load_factor = 1.0` (requests/s).
    pub base_rate_rps: f64,
    /// Load scaling knob: the campaign sweeps this to trace the
    /// SLO-violation envelope.
    pub load_factor: f64,
    /// Seed of the traffic generator's private RNG stream.
    pub seed: u64,
    /// Mean per-request service demand (giga-instructions), at most
    /// [`SERVICE_CAP_GI`].
    pub service_mean_gi: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            pattern: TrafficPattern::Constant,
            base_rate_rps: 40.0,
            load_factor: 1.0,
            seed: 7,
            service_mean_gi: 0.02,
        }
    }
}

impl TrafficConfig {
    /// Rejects non-finite, non-positive, or unstable parameters. The
    /// caller (the runtime's serving spec) wraps the message into its
    /// typed error.
    pub fn validate(&self) -> Result<(), String> {
        fn pos(name: &str, v: f64) -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be finite and > 0, got {v}"))
            }
        }
        pos("base_rate_rps", self.base_rate_rps)?;
        pos("load_factor", self.load_factor)?;
        pos("service_mean_gi", self.service_mean_gi)?;
        if SERVICE_CAP_GI < self.service_mean_gi {
            return Err(format!(
                "service_mean_gi ({}) must be <= the {SERVICE_CAP_GI} Gi demand cap",
                self.service_mean_gi
            ));
        }
        if self.base_rate_rps * self.load_factor > 1.0e4 {
            return Err(format!(
                "offered load {} rps exceeds the 1e4 rps simulation bound",
                self.base_rate_rps * self.load_factor
            ));
        }
        Ok(())
    }
}

/// One request emitted by the arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time (s, simulated).
    pub arrival_s: f64,
    /// Service demand (giga-instructions).
    pub demand_gi: f64,
}

/// Deterministic open-loop arrival generator. Owns its RNG; advances
/// only via [`Traffic::tick`].
#[derive(Debug, Clone)]
pub struct Traffic {
    cfg: TrafficConfig,
    rng: StdRng,
    now_s: f64,
    /// MMPP state: currently in the burst (high-rate) state?
    mmpp_high: bool,
    /// MMPP state: time left in the current state (s).
    mmpp_dwell_s: f64,
}

impl Traffic {
    /// A generator at t = 0. The config must already be validated; an
    /// invalid config degrades to clamped behavior rather than panicking.
    pub fn new(cfg: TrafficConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ TRAFFIC_SEED_SALT);
        let (mmpp_high, mmpp_dwell_s) = match cfg.pattern {
            TrafficPattern::Bursty => (false, exp_draw(&mut rng, BURSTY_MEAN_DWELL_S)),
            _ => (false, 0.0),
        };
        Traffic {
            cfg,
            rng,
            now_s: 0.0,
            mmpp_high,
            mmpp_dwell_s,
        }
    }

    /// Current internal clock (s).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Deterministic rate multiplier at time `t` for non-MMPP patterns;
    /// MMPP state is advanced separately in [`Traffic::tick`].
    fn shape_at(&self, t: f64) -> f64 {
        match self.cfg.pattern {
            TrafficPattern::Constant => 1.0,
            TrafficPattern::Diurnal => {
                1.0 + DIURNAL_AMPLITUDE * (std::f64::consts::TAU * t / DIURNAL_PERIOD_S).sin()
            }
            TrafficPattern::Bursty => {
                if self.mmpp_high {
                    BURSTY_HIGH_RATIO
                } else {
                    BURSTY_LOW_RATIO
                }
            }
            TrafficPattern::FlashCrowd => {
                let excess = FLASH_PEAK_RATIO - 1.0;
                let dt = t - FLASH_START_S;
                if !(0.0..=2.0 * FLASH_RAMP_S + FLASH_HOLD_S).contains(&dt) {
                    1.0
                } else if dt < FLASH_RAMP_S {
                    1.0 + excess * dt / FLASH_RAMP_S
                } else if dt < FLASH_RAMP_S + FLASH_HOLD_S {
                    FLASH_PEAK_RATIO
                } else {
                    1.0 + excess * (2.0 * FLASH_RAMP_S + FLASH_HOLD_S - dt) / FLASH_RAMP_S
                }
            }
        }
    }

    /// Generates the arrivals of the next `dt` seconds and advances the
    /// internal clock. Arrivals are sorted by time; each carries a
    /// bounded-Pareto service demand.
    pub fn tick(&mut self, dt: f64) -> Vec<Request> {
        let start = self.now_s;
        if self.cfg.pattern == TrafficPattern::Bursty {
            // Advance the modulating chain at tick granularity: flip
            // states until the dwell clock covers this tick. Rate is
            // evaluated at the state holding at the start of the tick.
            self.mmpp_dwell_s -= dt;
            while self.mmpp_dwell_s <= 0.0 {
                self.mmpp_high = !self.mmpp_high;
                self.mmpp_dwell_s += exp_draw(&mut self.rng, BURSTY_MEAN_DWELL_S);
            }
        }
        // Rate for the window, evaluated mid-tick for smooth shapes.
        let shape = self.shape_at(start + 0.5 * dt);
        let lambda = (self.cfg.base_rate_rps * self.cfg.load_factor * shape * dt).max(0.0);
        let n = poisson_draw(&mut self.rng, lambda);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let offset = self.rng.gen_range(0.0..1.0) * dt;
            out.push(Request {
                arrival_s: start + offset,
                demand_gi: self.draw_demand(),
            });
        }
        out.sort_by(|a, b| {
            a.arrival_s
                .partial_cmp(&b.arrival_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.now_s = start + dt;
        out
    }

    /// Bounded-Pareto service demand: `xm / u^(1/α)` capped, with `xm`
    /// chosen so the *uncapped* Pareto mean equals `service_mean_gi`.
    fn draw_demand(&mut self) -> f64 {
        let alpha = SERVICE_ALPHA;
        let xm = self.cfg.service_mean_gi * (alpha - 1.0) / alpha;
        let u = self.rng.gen_range(0.0..1.0).max(1e-12);
        (xm / u.powf(1.0 / alpha)).min(SERVICE_CAP_GI)
    }
}

/// Exponential draw with the given mean (inverse CDF).
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u = rng.gen_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

/// Poisson draw by Knuth's product-of-uniforms method, split into
/// chunks so large `lambda` stays inside f64 range.
fn poisson_draw(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let mut remaining = lambda;
    let mut n = 0usize;
    // e^-500 is still representable; chunking keeps the running product
    // away from subnormal underflow for large rates.
    while remaining > 0.0 {
        let step = remaining.min(500.0);
        remaining -= step;
        let threshold = (-step).exp();
        let mut p = 1.0;
        loop {
            p *= rng.gen_range(0.0..1.0);
            if p <= threshold {
                break;
            }
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(TrafficConfig::default().validate(), Ok(()));
        for pattern in [
            TrafficPattern::diurnal(),
            TrafficPattern::bursty(),
            TrafficPattern::flash_crowd(),
        ] {
            let cfg = TrafficConfig {
                pattern,
                ..TrafficConfig::default()
            };
            assert_eq!(cfg.validate(), Ok(()), "{}", pattern.name());
        }
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let base = TrafficConfig::default();
        for cfg in [
            TrafficConfig {
                base_rate_rps: f64::NAN,
                ..base
            },
            TrafficConfig {
                load_factor: -1.0,
                ..base
            },
            TrafficConfig {
                service_mean_gi: 2.0 * SERVICE_CAP_GI,
                ..base
            },
            TrafficConfig {
                base_rate_rps: 9000.0,
                load_factor: 2.0,
                ..base
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
    }

    #[test]
    fn constant_rate_matches_mean_offered_load() {
        let cfg = TrafficConfig {
            base_rate_rps: 50.0,
            load_factor: 1.2,
            ..TrafficConfig::default()
        };
        let mut traffic = Traffic::new(cfg);
        let mut total = 0usize;
        let secs = 200;
        for _ in 0..secs * 2 {
            total += traffic.tick(0.5).len();
        }
        let mean_rps = total as f64 / secs as f64;
        assert!(
            (mean_rps - 60.0).abs() < 6.0,
            "mean offered load {mean_rps} rps, expected ~60"
        );
    }

    #[test]
    fn arrivals_are_sorted_and_inside_the_tick() {
        let mut traffic = Traffic::new(TrafficConfig {
            base_rate_rps: 500.0,
            ..TrafficConfig::default()
        });
        for step in 0..40 {
            let start = 0.5 * step as f64;
            let reqs = traffic.tick(0.5);
            for w in reqs.windows(2) {
                assert!(w[0].arrival_s <= w[1].arrival_s);
            }
            for r in &reqs {
                assert!(r.arrival_s >= start && r.arrival_s < start + 0.5);
                assert!(r.demand_gi > 0.0 && r.demand_gi <= SERVICE_CAP_GI);
            }
        }
    }

    #[test]
    fn flash_crowd_peaks_above_baseline() {
        let mut traffic = Traffic::new(TrafficConfig {
            pattern: TrafficPattern::flash_crowd(),
            base_rate_rps: 200.0,
            ..TrafficConfig::default()
        });
        let mut baseline = 0usize;
        let mut peak = 0usize;
        for step in 0..80 {
            let t = 0.5 * step as f64;
            let n = traffic.tick(0.5).len();
            if t < 15.0 {
                baseline += n;
            } else if (26.0..39.0).contains(&t) {
                peak += n;
            }
        }
        // Peak window is 13 s at ~3×; baseline window is 15 s at 1×.
        assert!(
            peak as f64 > 2.0 * baseline as f64,
            "flash crowd did not materialize: baseline {baseline}, peak {peak}"
        );
    }

    #[test]
    fn service_demands_are_heavy_tailed_but_capped() {
        let mut traffic = Traffic::new(TrafficConfig {
            base_rate_rps: 1000.0,
            ..TrafficConfig::default()
        });
        let mut demands: Vec<f64> = Vec::new();
        for _ in 0..60 {
            demands.extend(traffic.tick(0.5).iter().map(|r| r.demand_gi));
        }
        demands.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = demands.iter().sum::<f64>() / demands.len() as f64;
        let p99 = demands[(demands.len() * 99) / 100];
        assert!((0.01..0.04).contains(&mean), "mean demand {mean}");
        assert!(p99 > 2.0 * mean, "tail not heavy: p99 {p99}, mean {mean}");
        assert!(demands.last().copied().unwrap() <= 0.5 + 1e-12);
    }
}
