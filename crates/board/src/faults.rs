//! Deterministic fault injection at the board interface.
//!
//! The paper's pitch is robustness: SSV controllers are chosen because
//! they tolerate model inaccuracy, and the motivating failure is
//! destructive interference between layered managers. This module gives
//! the reproduction the machinery to *prove* that robustness: a seeded
//! [`FaultPlan`] corrupts exactly what the controllers can observe
//! (sensor reads) and request (actuations), while the physics underneath
//! stays truthful. No controller code can peek at ground truth — the
//! corruption happens inside [`crate::Board`]'s sensor/actuator seams.
//!
//! Faults are drawn from an RNG that is independent of the board's own
//! stochastic effects, so enabling a plan never perturbs the plant's
//! random stream: a plan with zero severity and no schedule is exactly
//! the fault-free board, bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The sensor/actuator channels that faults can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultChannel {
    /// Big-cluster INA231 power reading.
    PowerBig,
    /// Little-cluster INA231 power reading.
    PowerLittle,
    /// TMU hotspot temperature reading.
    Temp,
    /// DVFS actuation (both clusters' frequency requests).
    Dvfs,
    /// Hotplug actuation (both clusters' core-count requests).
    Hotplug,
    /// Whole-actuation lag (applied one controller period late).
    Actuation,
}

impl FaultChannel {
    /// Short label used in traces and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultChannel::PowerBig => "power_big",
            FaultChannel::PowerLittle => "power_little",
            FaultChannel::Temp => "temp",
            FaultChannel::Dvfs => "dvfs",
            FaultChannel::Hotplug => "hotplug",
            FaultChannel::Actuation => "actuation",
        }
    }
}

/// The fault taxonomy (DESIGN.md §10): what the injector does to a sensor
/// read or an actuation. Controller-process crashes are not a kind: they
/// are invocation indices in [`FaultPlan::crashes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Sensor latches its current value for a drawn duration.
    StuckAt,
    /// One sample is lost; the reader sees the previous value again.
    DroppedSample,
    /// One sample is replaced by a large outlier.
    Spike,
    /// Persistent additive bias plus per-read noise.
    BiasNoise,
    /// The read returns a stale value from at least half a second ago
    /// (INA231-style: an old completed window instead of the fresh one).
    DelayedRead,
    /// A DVFS transition request is silently rejected.
    DvfsRejected,
    /// A hotplug (core count) request is silently ignored.
    HotplugIgnored,
    /// The whole actuation is applied one controller period late.
    ActuationLag,
}

impl FaultKind {
    /// Short label used in traces and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::StuckAt => "stuck_at",
            FaultKind::DroppedSample => "dropped_sample",
            FaultKind::Spike => "spike",
            FaultKind::BiasNoise => "bias_noise",
            FaultKind::DelayedRead => "delayed_read",
            FaultKind::DvfsRejected => "dvfs_rejected",
            FaultKind::HotplugIgnored => "hotplug_ignored",
            FaultKind::ActuationLag => "actuation_lag",
        }
    }
}

/// A fault forced on for a time window, independent of the probabilistic
/// draws — the deterministic half of a plan's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Fault class to force.
    pub kind: FaultKind,
    /// Channel it applies to.
    pub channel: FaultChannel,
    /// Window start (simulated seconds).
    pub t_start: f64,
    /// Window end (simulated seconds, exclusive).
    pub t_end: f64,
}

/// A seeded fault stream: per-class rates scaled by a single severity
/// knob in `[0, 1]`, forced windows, correlated bursts, and the
/// controller-process crash points.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed for the (plant-independent) fault stream.
    pub seed: u64,
    /// Master severity in `[0, 1]`; `0.0` injects nothing.
    pub severity: f64,
    /// Magnitude of the persistent sensor bias at severity 1, as a
    /// fraction of the channel's full scale; also scales the read noise.
    pub bias_frac: f64,
    /// Deterministically scheduled fault windows.
    pub schedule: Vec<ScheduledFault>,
    /// Controller-process crash points: the invocation indices at whose
    /// start the runtime loop kills the controller process, kept sorted and
    /// free of duplicates by [`FaultPlan::with_crash`]. The injector never
    /// reads them, so crashes never perturb the sensor/actuator faults.
    pub crashes: Vec<u64>,
    /// Number of correlated burst windows: seeded intervals during which
    /// *all three* sensor channels latch together, the failure mode that
    /// drives the supervisor's Fallback→Safe escalation. Zero disables
    /// bursts and leaves the fault stream bit-identical to older plans.
    pub n_bursts: u32,
    /// Duration of each burst window (simulated seconds).
    pub burst_secs: f64,
    /// Burst window starts are drawn uniformly from `[0, burst_region)`
    /// simulated seconds.
    pub burst_region: f64,
}

impl FaultPlan {
    /// A plan that injects nothing — byte-for-byte transparent.
    pub fn none() -> Self {
        FaultPlan::uniform(0, 0.0)
    }

    /// The default campaign plan: every fault class enabled with rates
    /// proportional to `severity` (clamped to `[0, 1]`).
    pub fn uniform(seed: u64, severity: f64) -> Self {
        FaultPlan {
            seed,
            severity: severity.clamp(0.0, 1.0),
            bias_frac: 0.10,
            schedule: Vec::new(),
            crashes: Vec::new(),
            n_bursts: 0,
            burst_secs: 0.0,
            burst_region: 600.0,
        }
    }

    /// Adds a deterministic fault window to the schedule.
    pub fn with_scheduled(mut self, s: ScheduledFault) -> Self {
        self.schedule.push(s);
        self
    }

    /// Adds a controller-process crash at invocation `at_step`.
    pub fn with_crash(mut self, at_step: u64) -> Self {
        if let Err(i) = self.crashes.binary_search(&at_step) {
            self.crashes.insert(i, at_step);
        }
        self
    }

    /// Enables `n` correlated burst windows of `secs` seconds each, with
    /// starts drawn from the plan's seeded RNG within `[0, region)` (a
    /// negative region counts as 0).
    pub fn with_bursts(mut self, n: u32, secs: f64, region: f64) -> Self {
        self.n_bursts = n;
        self.burst_secs = secs;
        self.burst_region = region.max(0.0);
        self
    }

    /// This plan without its crash points: the uninterrupted twin of a
    /// crashing run. Crashes never touch the injector RNG or the fault
    /// report, so the twin's board runs bit for bit the same.
    pub fn without_crashes(mut self) -> Self {
        self.crashes.clear();
        self
    }

    /// The planned crash points, soonest first.
    pub fn crash_steps(&self) -> &[u64] {
        &self.crashes
    }

    /// Whether a scheduled window forces `kind` on `channel` at `time`.
    fn scheduled(&self, time: f64, kind: FaultKind, channel: FaultChannel) -> bool {
        self.schedule
            .iter()
            .any(|s| s.kind == kind && s.channel == channel && s.t_start <= time && time < s.t_end)
    }

    /// Whether fault class `kind` fires on `channel` at `time`: its seeded
    /// `draw` lands under the severity-scaled `rate`, or a scheduled
    /// window forces it.
    fn fires(
        &self,
        time: f64,
        kind: FaultKind,
        channel: FaultChannel,
        draw: f64,
        rate: f64,
    ) -> bool {
        (self.severity > 0.0 && draw < self.severity * rate) || self.scheduled(time, kind, channel)
    }
}

/// One injected fault, as recorded in the deterministic fault trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the injection (s).
    pub time: f64,
    /// Fault class.
    pub kind: FaultKind,
    /// Channel affected.
    pub channel: FaultChannel,
    /// The corrupted value handed to the observer (sensor faults) or the
    /// rejected/ignored request value (actuator faults).
    pub value: f64,
}

/// Aggregate injection counters, suitable for `Report`s and JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Sensor reads corrupted (any sensor fault class).
    pub sensor_faults: u64,
    /// Stuck-at episodes entered.
    pub stuck_episodes: u64,
    /// Dropped samples served.
    pub dropped_samples: u64,
    /// Spikes injected.
    pub spikes: u64,
    /// Delayed (stale) reads served.
    pub delayed_reads: u64,
    /// DVFS transitions rejected.
    pub dvfs_rejections: u64,
    /// Hotplug requests ignored.
    pub hotplug_ignored: u64,
    /// Actuations applied with one period of lag.
    pub actuation_lags: u64,
    /// Correlated burst windows entered (each latches every sensor).
    pub burst_windows: u64,
}

impl FaultStats {
    /// Total injected faults across all classes.
    pub fn total(&self) -> u64 {
        self.sensor_faults + self.dvfs_rejections + self.hotplug_ignored + self.actuation_lags
    }

    /// Counts one injected fault of `kind`: a sensor class's read in
    /// `sensor_faults`, and the class's own counter on an `onset` — a read
    /// served by a stuck-at latch or burst already entered starts nothing.
    fn count(&mut self, kind: FaultKind, onset: bool) {
        let (class, sensor) = match kind {
            FaultKind::StuckAt => (&mut self.stuck_episodes, true),
            FaultKind::DroppedSample => (&mut self.dropped_samples, true),
            FaultKind::Spike => (&mut self.spikes, true),
            FaultKind::DelayedRead => (&mut self.delayed_reads, true),
            FaultKind::DvfsRejected => (&mut self.dvfs_rejections, false),
            FaultKind::HotplugIgnored => (&mut self.hotplug_ignored, false),
            FaultKind::ActuationLag => (&mut self.actuation_lags, false),
            // Bias and noise are persistent: corrupted reads, no episodes.
            FaultKind::BiasNoise => {
                self.sensor_faults += 1;
                return;
            }
        };
        if onset {
            *class += 1;
        }
        if sensor {
            self.sensor_faults += 1;
        }
    }
}

/// Probability per sensor read of entering a stuck-at episode
/// (before severity scaling).
const P_STUCK: f64 = 0.02;
/// Probability per sensor read of a dropped sample.
const P_DROP: f64 = 0.05;
/// Probability per sensor read of a spike/outlier.
const P_SPIKE: f64 = 0.05;
/// Probability per sensor read of serving a delayed (stale) value.
const P_DELAY: f64 = 0.08;
/// Probability per actuation of a rejected DVFS transition.
const P_DVFS_REJECT: f64 = 0.10;
/// Probability per actuation of an ignored hotplug request.
const P_HOTPLUG_IGNORE: f64 = 0.10;
/// Probability per actuation of one-period actuation lag.
const P_ACT_LAG: f64 = 0.08;

/// Per-sensor corruption state.
#[derive(Debug, Clone, Default)]
struct SensorState {
    /// Stuck-at latch: `Some((held_value, release_time))`.
    stuck_until: Option<(f64, f64)>,
    /// Persistent bias (drawn once, severity-scaled).
    bias: f64,
    /// Last value served to a reader (for dropped samples).
    last_served: f64,
    /// Value latched by an active correlated burst window.
    burst_hold: Option<f64>,
    /// Short ring of true readings for delayed reads: (time, value).
    history: Vec<(f64, f64)>,
}

impl SensorState {
    fn new(bias: f64) -> Self {
        SensorState {
            bias,
            ..Default::default()
        }
    }

    fn remember(&mut self, time: f64, value: f64) {
        self.history.push((time, value));
        // Keep ~30 s of history at the 500 ms controller cadence.
        if self.history.len() > 64 {
            self.history.remove(0);
        }
    }

    /// The newest remembered value at least `delay` seconds old.
    fn delayed(&self, now: f64, delay: f64) -> Option<f64> {
        self.history
            .iter()
            .rev()
            .find(|(t, _)| now - *t >= delay)
            .map(|(_, v)| *v)
    }
}

/// Cap on the recorded fault trace; counters keep counting past it.
const TRACE_CAP: usize = 100_000;

/// What an injector has injected: the counters and the capped trace.
#[derive(Debug, Clone, Default)]
struct Log {
    stats: FaultStats,
    trace: Vec<FaultEvent>,
}

impl Log {
    /// Records one injected fault in the counters ([`FaultStats::count`])
    /// and, below [`TRACE_CAP`], in the trace (a non-finite value as 0).
    fn record(
        &mut self,
        time: f64,
        kind: FaultKind,
        channel: FaultChannel,
        value: f64,
        onset: bool,
    ) {
        self.stats.count(kind, onset);
        if self.trace.len() < TRACE_CAP {
            self.trace.push(FaultEvent {
                time,
                kind,
                channel,
                value: if value.is_finite() { value } else { 0.0 },
            });
        }
    }
}

/// The runtime fault injector owned by a [`crate::Board`].
///
/// All randomness comes from its own seeded RNG, so the board's plant
/// stream is untouched and two boards with identical configs + plans
/// produce bit-identical fault traces.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    power_big: SensorState,
    power_little: SensorState,
    temp: SensorState,
    /// Actuation held back by a lag fault, applied on the next request.
    lagged: Option<crate::board::Actuation>,
    /// Correlated burst windows, `(start, end)` in simulated seconds,
    /// drawn once at construction from the plan's seeded RNG.
    bursts: Vec<(f64, f64)>,
    /// Index of the burst window most recently entered, so each window
    /// increments [`FaultStats::burst_windows`] exactly once.
    last_burst: Option<usize>,
    log: Log,
}

impl FaultInjector {
    /// Builds the injector for a plan (drawing the persistent biases).
    pub fn new(plan: FaultPlan) -> Self {
        let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xFA17_FA17_FA17_FA17);
        let sev = plan.severity;
        let mut bias = |scale: f64| -> f64 {
            if plan.bias_frac > 0.0 && sev > 0.0 {
                sev * plan.bias_frac * scale * rng.gen_range(-1.0..=1.0)
            } else {
                0.0
            }
        };
        let power_big = SensorState::new(bias(4.0));
        let power_little = SensorState::new(bias(0.4));
        let temp = SensorState::new(bias(60.0));
        // Burst windows draw from the RNG only when bursts are configured,
        // so burst-free plans keep their exact historical fault streams.
        let mut bursts = Vec::new();
        if plan.n_bursts > 0 && plan.burst_secs > 0.0 {
            let region = plan.burst_region.max(f64::MIN_POSITIVE);
            for _ in 0..plan.n_bursts {
                let start = rng.gen_range(0.0..region);
                bursts.push((start, start + plan.burst_secs));
            }
        }
        FaultInjector {
            plan,
            rng,
            power_big,
            power_little,
            temp,
            lagged: None,
            bursts,
            last_burst: None,
            log: Log::default(),
        }
    }

    /// Aggregate injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.log.stats
    }

    /// The recorded fault trace (capped at 100 000 events).
    pub fn trace(&self) -> &[FaultEvent] {
        &self.log.trace
    }

    /// Corrupts one sensor read. `scale` is the channel's full-scale value
    /// (sets spike floors and bias/noise magnitude).
    fn filter_sensor(&mut self, channel: FaultChannel, time: f64, truth: f64, scale: f64) -> f64 {
        // Always consume the same number of draws per read so one fault
        // class firing never shifts the stream seen by the others.
        let d_stuck = self.rng.next_f64();
        let d_stuck_len = self.rng.gen_range(1.0..=5.0);
        let d_drop = self.rng.next_f64();
        let d_spike = self.rng.next_f64();
        let d_spike_mag = self.rng.gen_range(1.5..=6.0);
        let d_delay = self.rng.next_f64();
        let d_noise = self.rng.gen_range(-1.0..=1.0);

        let burst = self
            .bursts
            .iter()
            .position(|&(start, end)| start <= time && time < end);
        // Disjoint field borrows: `state` aliases one sensor field while
        // the plan and the log are touched directly.
        let plan = &self.plan;
        let fires = |kind, draw, rate| plan.fires(time, kind, channel, draw, rate);
        let log = &mut self.log;
        let state = match channel {
            FaultChannel::PowerBig => &mut self.power_big,
            FaultChannel::PowerLittle => &mut self.power_little,
            _ => &mut self.temp,
        };
        state.remember(time, truth);

        // A correlated burst overrides the independent draws (which were
        // already consumed above, keeping the stream aligned): every
        // channel latches the first value it serves inside the window, so
        // the supervisor's watchdogs see all sensors go stuck together.
        // Outside a burst an active stuck-at latch overrides everything
        // else, and a fresh stuck-at episode latches the truth.
        let stuck = if let Some(idx) = burst {
            if self.last_burst != Some(idx) {
                self.last_burst = Some(idx);
                log.stats.burst_windows += 1;
            }
            Some((*state.burst_hold.get_or_insert(truth), false))
        } else {
            state.burst_hold = None;
            match state.stuck_until {
                Some((held, until)) if time < until => Some((held, false)),
                _ if fires(FaultKind::StuckAt, d_stuck, P_STUCK) => {
                    state.stuck_until = Some((truth, time + d_stuck_len));
                    Some((truth, true))
                }
                _ => {
                    state.stuck_until = None;
                    None
                }
            }
        };
        if let Some((held, onset)) = stuck {
            state.last_served = held;
            log.record(time, FaultKind::StuckAt, channel, held, onset);
            return held;
        }

        // At most one of a dropped sample, a spike and a delayed read, in
        // that order of precedence.
        let onset = if fires(FaultKind::DroppedSample, d_drop, P_DROP) {
            Some((FaultKind::DroppedSample, state.last_served))
        } else if fires(FaultKind::Spike, d_spike, P_SPIKE) {
            Some((FaultKind::Spike, truth * d_spike_mag + 0.5 * scale))
        } else if fires(FaultKind::DelayedRead, d_delay, P_DELAY) {
            state
                .delayed(time, 0.5)
                .map(|stale| (FaultKind::DelayedRead, stale))
        } else {
            None
        };
        let mut value = truth;
        if let Some((kind, faulted)) = onset {
            value = faulted;
            log.record(time, kind, channel, value, true);
        }
        // Persistent bias + read noise ride on top of whatever happened.
        // A scheduled BiasNoise window adds a deterministic full-severity
        // bias (plus the read noise, whose draw is consumed every read
        // anyway), so bias onsets can be placed at exact times even in
        // otherwise fault-free plans without shifting the RNG stream.
        let (sev, bias_frac) = (plan.severity, plan.bias_frac);
        let sched_bias = plan.scheduled(time, FaultKind::BiasNoise, channel);
        if (sev > 0.0 && bias_frac > 0.0) || sched_bias {
            let window_bias = if sched_bias { bias_frac * scale } else { 0.0 };
            let noise_sev = if sched_bias { sev.max(1.0) } else { sev };
            let noisy =
                value + state.bias + window_bias + noise_sev * bias_frac * scale * 0.25 * d_noise;
            if noisy != value {
                if onset.is_none() {
                    log.record(time, FaultKind::BiasNoise, channel, noisy, true);
                }
                value = noisy;
            }
        }
        state.last_served = value;
        value
    }

    /// Corrupts a big-cluster power read.
    pub(crate) fn filter_power_big(&mut self, time: f64, truth: f64) -> f64 {
        self.filter_sensor(FaultChannel::PowerBig, time, truth, 4.0)
    }

    /// Corrupts a little-cluster power read.
    pub(crate) fn filter_power_little(&mut self, time: f64, truth: f64) -> f64 {
        self.filter_sensor(FaultChannel::PowerLittle, time, truth, 0.4)
    }

    /// Corrupts a temperature read.
    pub(crate) fn filter_temp(&mut self, time: f64, truth: f64) -> f64 {
        self.filter_sensor(FaultChannel::Temp, time, truth, 60.0)
    }

    /// Filters one actuation request, possibly rejecting the DVFS part,
    /// ignoring the hotplug part, or delaying the whole request by one
    /// invocation. Returns the actuation the plant actually receives.
    pub(crate) fn filter_actuation(
        &mut self,
        time: f64,
        act: &crate::board::Actuation,
    ) -> crate::board::Actuation {
        use FaultChannel::{Dvfs, Hotplug};
        use FaultKind::{ActuationLag, DvfsRejected, HotplugIgnored};
        let d_reject = self.rng.next_f64();
        let d_ignore = self.rng.next_f64();
        let d_lag = self.rng.next_f64();
        let plan = &self.plan;
        let fires = |kind, channel, draw, rate| plan.fires(time, kind, channel, draw, rate);
        let mut record = |kind, channel, value| self.log.record(time, kind, channel, value, true);
        let mut act = *act;

        // Lag: hold this request back; the previously held one (if any)
        // lands now, one controller period late.
        if fires(ActuationLag, FaultChannel::Actuation, d_lag, P_ACT_LAG) {
            let f_big = act.f_big.unwrap_or(0.0);
            record(ActuationLag, FaultChannel::Actuation, f_big);
            act = self.lagged.replace(act).unwrap_or_default();
        } else if let Some(held) = self.lagged.take() {
            // A previously lagged request finally lands, merged under the
            // fresh one (fresh fields win, like repeated sysfs writes).
            act = crate::board::Actuation {
                f_big: act.f_big.or(held.f_big),
                f_little: act.f_little.or(held.f_little),
                big_cores: act.big_cores.or(held.big_cores),
                little_cores: act.little_cores.or(held.little_cores),
                placement: act.placement.or(held.placement),
            };
        }
        // A rejected or ignored knob is recorded only if it was requested.
        if fires(DvfsRejected, Dvfs, d_reject, P_DVFS_REJECT) {
            if act.f_big.is_some() || act.f_little.is_some() {
                record(DvfsRejected, Dvfs, act.f_big.unwrap_or(0.0));
            }
            act.f_big = None;
            act.f_little = None;
        }
        if fires(HotplugIgnored, Hotplug, d_ignore, P_HOTPLUG_IGNORE) {
            if act.big_cores.is_some() || act.little_cores.is_some() {
                let big_cores = act.big_cores.map_or(0.0, |c| c as f64);
                record(HotplugIgnored, Hotplug, big_cores);
            }
            act.big_cores = None;
            act.little_cores = None;
        }
        act
    }
}

/// The injector written out class by class: one hand-written trigger and
/// one counter/event update per class, the rates as fields. The property
/// test `injector_matches_reference` pins the shipped injector to it bit
/// for bit.
#[cfg(test)]
mod reference {
    use super::{FaultChannel, FaultEvent, FaultKind, FaultPlan, FaultStats, SensorState};
    use crate::board::Actuation;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    const TRACE_CAP: usize = 100_000;

    fn push_event(
        trace: &mut Vec<FaultEvent>,
        time: f64,
        kind: FaultKind,
        channel: FaultChannel,
        value: f64,
    ) {
        if trace.len() < TRACE_CAP {
            trace.push(FaultEvent {
                time,
                kind,
                channel,
                value: if value.is_finite() { value } else { 0.0 },
            });
        }
    }

    pub(super) struct Injector {
        plan: FaultPlan,
        p_stuck: f64,
        p_drop: f64,
        p_spike: f64,
        p_delay: f64,
        p_dvfs_reject: f64,
        p_hotplug_ignore: f64,
        p_act_lag: f64,
        pub(super) rng: StdRng,
        power_big: SensorState,
        power_little: SensorState,
        temp: SensorState,
        lagged: Option<Actuation>,
        bursts: Vec<(f64, f64)>,
        last_burst: Option<usize>,
        pub(super) stats: FaultStats,
        pub(super) trace: Vec<FaultEvent>,
    }

    impl Injector {
        pub(super) fn new(plan: FaultPlan) -> Self {
            let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xFA17_FA17_FA17_FA17);
            let sev = plan.severity;
            let mut bias = |scale: f64| -> f64 {
                if plan.bias_frac > 0.0 && sev > 0.0 {
                    sev * plan.bias_frac * scale * rng.gen_range(-1.0..=1.0)
                } else {
                    0.0
                }
            };
            let power_big = SensorState::new(bias(4.0));
            let power_little = SensorState::new(bias(0.4));
            let temp = SensorState::new(bias(60.0));
            let mut bursts = Vec::new();
            if plan.n_bursts > 0 && plan.burst_secs > 0.0 {
                let region = plan.burst_region.max(f64::MIN_POSITIVE);
                for _ in 0..plan.n_bursts {
                    let start = rng.gen_range(0.0..region);
                    bursts.push((start, start + plan.burst_secs));
                }
            }
            Injector {
                plan,
                p_stuck: 0.02,
                p_drop: 0.05,
                p_spike: 0.05,
                p_delay: 0.08,
                p_dvfs_reject: 0.10,
                p_hotplug_ignore: 0.10,
                p_act_lag: 0.08,
                rng,
                power_big,
                power_little,
                temp,
                lagged: None,
                bursts,
                last_burst: None,
                stats: FaultStats::default(),
                trace: Vec::new(),
            }
        }

        fn scheduled(&self, time: f64, kind: FaultKind, channel: FaultChannel) -> bool {
            self.plan.schedule.iter().any(|s| {
                s.kind == kind && s.channel == channel && s.t_start <= time && time < s.t_end
            })
        }

        pub(super) fn filter_sensor(
            &mut self,
            channel: FaultChannel,
            time: f64,
            truth: f64,
            scale: f64,
        ) -> f64 {
            let sev = self.plan.severity;
            let d_stuck = self.rng.next_f64();
            let d_stuck_len = self.rng.gen_range(1.0..=5.0);
            let d_drop = self.rng.next_f64();
            let d_spike = self.rng.next_f64();
            let d_spike_mag = self.rng.gen_range(1.5..=6.0);
            let d_delay = self.rng.next_f64();
            let d_noise = self.rng.gen_range(-1.0..=1.0);

            let sched_stuck = self.scheduled(time, FaultKind::StuckAt, channel);
            let sched_drop = self.scheduled(time, FaultKind::DroppedSample, channel);
            let sched_spike = self.scheduled(time, FaultKind::Spike, channel);
            let sched_delay = self.scheduled(time, FaultKind::DelayedRead, channel);
            let sched_bias = self.scheduled(time, FaultKind::BiasNoise, channel);
            let (p_stuck, p_drop, p_spike, p_delay, bias_frac) = (
                self.p_stuck,
                self.p_drop,
                self.p_spike,
                self.p_delay,
                self.plan.bias_frac,
            );

            let burst = self
                .bursts
                .iter()
                .enumerate()
                .find(|(_, (start, end))| *start <= time && time < *end)
                .map(|(i, _)| i);

            let stats = &mut self.stats;
            let trace = &mut self.trace;
            let last_burst = &mut self.last_burst;
            let state = match channel {
                FaultChannel::PowerBig => &mut self.power_big,
                FaultChannel::PowerLittle => &mut self.power_little,
                _ => &mut self.temp,
            };
            state.remember(time, truth);
            let prev_served = state.last_served;

            if let Some(idx) = burst {
                if *last_burst != Some(idx) {
                    *last_burst = Some(idx);
                    stats.burst_windows += 1;
                }
                let held = match state.burst_hold {
                    Some(h) => h,
                    None => {
                        state.burst_hold = Some(truth);
                        truth
                    }
                };
                state.last_served = held;
                stats.sensor_faults += 1;
                push_event(trace, time, FaultKind::StuckAt, channel, held);
                return held;
            }
            state.burst_hold = None;

            if let Some((held, until)) = state.stuck_until {
                if time < until {
                    state.last_served = held;
                    stats.sensor_faults += 1;
                    push_event(trace, time, FaultKind::StuckAt, channel, held);
                    return held;
                }
                state.stuck_until = None;
            }
            if (sev > 0.0 && d_stuck < sev * p_stuck) || sched_stuck {
                state.stuck_until = Some((truth, time + d_stuck_len));
                state.last_served = truth;
                stats.stuck_episodes += 1;
                stats.sensor_faults += 1;
                push_event(trace, time, FaultKind::StuckAt, channel, truth);
                return truth;
            }

            let mut value = truth;
            let mut faulted = false;
            if (sev > 0.0 && d_drop < sev * p_drop) || sched_drop {
                value = prev_served;
                faulted = true;
                stats.dropped_samples += 1;
                stats.sensor_faults += 1;
                push_event(trace, time, FaultKind::DroppedSample, channel, value);
            } else if (sev > 0.0 && d_spike < sev * p_spike) || sched_spike {
                value = truth * d_spike_mag + 0.5 * scale;
                faulted = true;
                stats.spikes += 1;
                stats.sensor_faults += 1;
                push_event(trace, time, FaultKind::Spike, channel, value);
            } else if (sev > 0.0 && d_delay < sev * p_delay) || sched_delay {
                if let Some(stale) = state.delayed(time, 0.5) {
                    value = stale;
                    faulted = true;
                    stats.delayed_reads += 1;
                    stats.sensor_faults += 1;
                    push_event(trace, time, FaultKind::DelayedRead, channel, value);
                }
            }
            if (sev > 0.0 && bias_frac > 0.0) || sched_bias {
                let window_bias = if sched_bias { bias_frac * scale } else { 0.0 };
                let noise_sev = if sched_bias { sev.max(1.0) } else { sev };
                let noisy = value
                    + state.bias
                    + window_bias
                    + noise_sev * bias_frac * scale * 0.25 * d_noise;
                if noisy != value {
                    if !faulted {
                        stats.sensor_faults += 1;
                        push_event(trace, time, FaultKind::BiasNoise, channel, noisy);
                    }
                    value = noisy;
                }
            }
            state.last_served = value;
            value
        }

        pub(super) fn filter_actuation(&mut self, time: f64, act: &Actuation) -> Actuation {
            let sev = self.plan.severity;
            let d_reject = self.rng.next_f64();
            let d_ignore = self.rng.next_f64();
            let d_lag = self.rng.next_f64();
            let mut act = *act;

            if (sev > 0.0 && d_lag < sev * self.p_act_lag)
                || self.scheduled(time, FaultKind::ActuationLag, FaultChannel::Actuation)
            {
                self.stats.actuation_lags += 1;
                push_event(
                    &mut self.trace,
                    time,
                    FaultKind::ActuationLag,
                    FaultChannel::Actuation,
                    act.f_big.unwrap_or(0.0),
                );
                let held = self.lagged.take();
                self.lagged = Some(act);
                act = held.unwrap_or_default();
            } else if let Some(held) = self.lagged.take() {
                act = Actuation {
                    f_big: act.f_big.or(held.f_big),
                    f_little: act.f_little.or(held.f_little),
                    big_cores: act.big_cores.or(held.big_cores),
                    little_cores: act.little_cores.or(held.little_cores),
                    placement: act.placement.or(held.placement),
                };
            }
            if (sev > 0.0 && d_reject < sev * self.p_dvfs_reject)
                || self.scheduled(time, FaultKind::DvfsRejected, FaultChannel::Dvfs)
            {
                if act.f_big.is_some() || act.f_little.is_some() {
                    self.stats.dvfs_rejections += 1;
                    push_event(
                        &mut self.trace,
                        time,
                        FaultKind::DvfsRejected,
                        FaultChannel::Dvfs,
                        act.f_big.unwrap_or(0.0),
                    );
                }
                act.f_big = None;
                act.f_little = None;
            }
            if (sev > 0.0 && d_ignore < sev * self.p_hotplug_ignore)
                || self.scheduled(time, FaultKind::HotplugIgnored, FaultChannel::Hotplug)
            {
                if act.big_cores.is_some() || act.little_cores.is_some() {
                    self.stats.hotplug_ignored += 1;
                    push_event(
                        &mut self.trace,
                        time,
                        FaultKind::HotplugIgnored,
                        FaultChannel::Hotplug,
                        act.big_cores.map(|c| c as f64).unwrap_or(0.0),
                    );
                }
                act.big_cores = None;
                act.little_cores = None;
            }
            act
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{Actuation, Placement};
    use proptest::prelude::*;

    fn read_n(inj: &mut FaultInjector, n: usize, truth: f64) -> Vec<f64> {
        (0..n)
            .map(|i| inj.filter_power_big(i as f64 * 0.5, truth))
            .collect()
    }

    #[test]
    fn zero_severity_is_transparent() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(7, 0.0));
        for i in 0..200 {
            let t = i as f64 * 0.5;
            let truth = 2.0 + (i as f64) * 0.001;
            assert_eq!(inj.filter_power_big(t, truth).to_bits(), truth.to_bits());
            let temp = 60.0 + truth;
            assert_eq!(inj.filter_temp(t, temp).to_bits(), temp.to_bits());
        }
        let act = crate::board::Actuation {
            f_big: Some(1.5),
            ..Default::default()
        };
        let filtered = inj.filter_actuation(0.0, &act);
        assert_eq!(filtered, act);
        assert_eq!(inj.stats().total(), 0);
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn severity_one_injects_faults() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(3, 1.0));
        let out = read_n(&mut inj, 400, 2.5);
        assert!(inj.stats().sensor_faults > 0, "no sensor faults injected");
        assert!(out.iter().any(|v| (v - 2.5).abs() > 1e-12));
    }

    #[test]
    fn identical_seed_identical_trace() {
        let run = || {
            let mut inj = FaultInjector::new(FaultPlan::uniform(11, 0.8));
            let mut vals = read_n(&mut inj, 300, 3.0);
            for i in 0..50 {
                let act = crate::board::Actuation {
                    f_big: Some(1.0 + 0.01 * i as f64),
                    big_cores: Some(3),
                    ..Default::default()
                };
                let f = inj.filter_actuation(150.0 + i as f64 * 0.5, &act);
                vals.push(f.f_big.unwrap_or(-1.0));
            }
            (vals, inj.trace().to_vec(), inj.stats())
        };
        let (v1, t1, s1) = run();
        let (v2, t2, s2) = run();
        assert_eq!(s1, s2);
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.iter().zip(&t2) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.channel, b.channel);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        for (a, b) in v1.iter().zip(&v2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scheduled_stuck_window_latches_reading() {
        let plan = FaultPlan::uniform(5, 0.0).with_scheduled(ScheduledFault {
            kind: FaultKind::StuckAt,
            channel: FaultChannel::PowerBig,
            t_start: 1.0,
            t_end: 3.0,
        });
        let mut inj = FaultInjector::new(plan);
        // Before the window: truth passes through.
        assert_eq!(inj.filter_power_big(0.5, 2.0), 2.0);
        // Window start: latches the current truth...
        assert_eq!(inj.filter_power_big(1.0, 2.5), 2.5);
        // ...and serves it while the latch holds, regardless of truth.
        assert_eq!(inj.filter_power_big(1.5, 9.9), 2.5);
        assert!(inj.stats().stuck_episodes >= 1);
    }

    #[test]
    fn scheduled_dvfs_rejection_strips_frequency() {
        let plan = FaultPlan::uniform(5, 0.0).with_scheduled(ScheduledFault {
            kind: FaultKind::DvfsRejected,
            channel: FaultChannel::Dvfs,
            t_start: 0.0,
            t_end: 10.0,
        });
        let mut inj = FaultInjector::new(plan);
        let act = crate::board::Actuation {
            f_big: Some(1.8),
            big_cores: Some(2),
            ..Default::default()
        };
        let f = inj.filter_actuation(1.0, &act);
        assert_eq!(f.f_big, None);
        assert_eq!(f.big_cores, Some(2), "hotplug untouched");
        assert_eq!(inj.stats().dvfs_rejections, 1);
    }

    #[test]
    fn actuation_lag_delays_by_one_call() {
        let plan = FaultPlan::uniform(5, 0.0).with_scheduled(ScheduledFault {
            kind: FaultKind::ActuationLag,
            channel: FaultChannel::Actuation,
            t_start: 0.0,
            t_end: 0.75,
        });
        let mut inj = FaultInjector::new(plan);
        let first = crate::board::Actuation {
            f_big: Some(1.0),
            ..Default::default()
        };
        // Lagged: nothing applied this call.
        let applied = inj.filter_actuation(0.5, &first);
        assert_eq!(applied.f_big, None);
        // Next call (outside the window): the held request lands.
        let second = crate::board::Actuation::default();
        let applied = inj.filter_actuation(1.0, &second);
        assert_eq!(applied.f_big, Some(1.0));
    }

    #[test]
    fn scheduled_bias_window_shifts_readings_and_preserves_the_stream() {
        let window = ScheduledFault {
            kind: FaultKind::BiasNoise,
            channel: FaultChannel::PowerBig,
            t_start: 1.0,
            t_end: 3.0,
        };
        let mut biased = FaultInjector::new(FaultPlan::uniform(5, 0.0).with_scheduled(window));
        let mut clean = FaultInjector::new(FaultPlan::uniform(5, 0.0));
        // read_n samples t = 0.0, 0.5, …, so reads 2..=5 fall inside the
        // [1, 3) window.
        let with_window = read_n(&mut biased, 20, 2.0);
        let without = read_n(&mut clean, 20, 2.0);
        for (i, (a, b)) in with_window.iter().zip(&without).enumerate() {
            if (2..=5).contains(&i) {
                // Inside: bias_frac (0.10) of the 4 W full scale lands on
                // top, plus read noise bounded by 0.25 * bias_frac * scale.
                let shift = a - b;
                assert!(
                    (shift - 0.4).abs() <= 0.1 + 1e-12,
                    "read {i}: shift {shift} outside bias ± noise band"
                );
            } else {
                // Outside: bit-identical to the schedule-free plan — the
                // window never shifted the RNG stream.
                assert_eq!(a.to_bits(), b.to_bits(), "read {i} diverged");
            }
        }
        assert!(biased.stats().sensor_faults >= 4);
        assert_eq!(clean.stats().total(), 0);
    }

    #[test]
    fn crash_points_are_sorted_and_deduped() {
        let plan = FaultPlan::uniform(9, 0.0)
            .with_crash(40)
            .with_crash(12)
            .with_crash(40);
        assert_eq!(plan.crash_steps(), &[12, 40]);
    }

    #[test]
    fn crash_points_do_not_perturb_the_injector_stream() {
        let read = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            read_n(&mut inj, 200, 2.5)
        };
        let base = read(FaultPlan::uniform(13, 0.9));
        let crashed = read(FaultPlan::uniform(13, 0.9).with_crash(7).with_crash(90));
        for (a, b) in base.iter().zip(&crashed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn correlated_burst_latches_all_sensors_together() {
        let plan = FaultPlan::uniform(21, 0.0).with_bursts(1, 5.0, 1.0);
        let mut inj = FaultInjector::new(plan);
        // First read inside the window latches each channel's truth...
        assert_eq!(inj.filter_power_big(1.0, 2.0), 2.0);
        assert_eq!(inj.filter_power_little(1.0, 0.2), 0.2);
        assert_eq!(inj.filter_temp(1.0, 55.0), 55.0);
        // ...and serves it for the rest of the window, whatever the truth
        // does underneath — all three channels fail together.
        assert_eq!(inj.filter_power_big(3.0, 9.9), 2.0);
        assert_eq!(inj.filter_power_little(3.0, 0.9), 0.2);
        assert_eq!(inj.filter_temp(3.0, 80.0), 55.0);
        let stats = inj.stats();
        assert_eq!(stats.burst_windows, 1);
        assert!(stats.sensor_faults >= 6, "stats: {stats:?}");
        // The window started before t = 1 s and lasts 5 s, so by t = 6.5 s
        // it has ended and zero severity means truth passes through again.
        assert_eq!(inj.filter_power_big(6.5, 3.3), 3.3);
        assert_eq!(inj.filter_temp(6.5, 61.0), 61.0);
    }

    #[test]
    fn burst_plans_are_deterministic() {
        let run = || {
            let plan = FaultPlan::uniform(17, 0.6).with_bursts(3, 4.0, 100.0);
            let mut inj = FaultInjector::new(plan);
            let vals = read_n(&mut inj, 300, 2.5);
            (vals, inj.stats(), inj.trace().to_vec())
        };
        let (v1, s1, t1) = run();
        let (v2, s2, t2) = run();
        assert_eq!(s1, s2);
        assert!(s1.burst_windows >= 1, "no burst window hit: {s1:?}");
        assert_eq!(t1.len(), t2.len());
        for (a, b) in v1.iter().zip(&v2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn degenerate_burst_configs_stay_inactive() {
        for plan in [
            FaultPlan::uniform(9, 0.0).with_bursts(0, 5.0, 1.0),
            FaultPlan::uniform(9, 0.0).with_bursts(2, 0.0, 1.0),
        ] {
            let mut inj = FaultInjector::new(plan);
            for v in read_n(&mut inj, 20, 2.5) {
                assert_eq!(v.to_bits(), 2.5f64.to_bits());
            }
            assert_eq!(inj.stats().total(), 0);
            assert_eq!(inj.stats().burst_windows, 0);
        }
    }

    #[test]
    fn stats_total_sums_classes() {
        let s = FaultStats {
            sensor_faults: 3,
            dvfs_rejections: 2,
            hotplug_ignored: 1,
            actuation_lags: 4,
            ..Default::default()
        };
        assert_eq!(s.total(), 10);
    }

    const KINDS: [FaultKind; 8] = [
        FaultKind::StuckAt,
        FaultKind::DroppedSample,
        FaultKind::Spike,
        FaultKind::BiasNoise,
        FaultKind::DelayedRead,
        FaultKind::DvfsRejected,
        FaultKind::HotplugIgnored,
        FaultKind::ActuationLag,
    ];

    const CHANNELS: [FaultChannel; 6] = [
        FaultChannel::PowerBig,
        FaultChannel::PowerLittle,
        FaultChannel::Temp,
        FaultChannel::Dvfs,
        FaultChannel::Hotplug,
        FaultChannel::Actuation,
    ];

    /// Plans at severity 0, a random severity and 1, with random bias,
    /// scheduled windows of any kind on any channel, and bursts on or off.
    fn plans() -> impl Strategy<Value = FaultPlan> {
        let severity = prop_oneof![Just(0.0), 0.0..1.0f64, Just(1.0)];
        let bias_frac = prop_oneof![Just(0.10), Just(0.0), 0.0..0.5f64];
        let window = (0usize..8, 0usize..6, 0.0..40.0f64, 0.0..8.0f64).prop_map(
            |(kind, channel, t_start, len)| ScheduledFault {
                kind: KINDS[kind],
                channel: CHANNELS[channel],
                t_start,
                t_end: t_start + len,
            },
        );
        let bursts = prop_oneof![
            Just((0u32, 0.0, 600.0)),
            (1u32..4, 0.0..10.0f64, 0.0..40.0f64),
        ];
        (
            0u64..u64::MAX,
            severity,
            bias_frac,
            prop::collection::vec(window, 0..16),
            bursts,
        )
            .prop_map(|(seed, severity, bias_frac, schedule, (n, secs, region))| {
                let mut plan = FaultPlan::uniform(seed, severity).with_bursts(n, secs, region);
                plan.bias_frac = bias_frac;
                plan.schedule = schedule;
                plan
            })
    }

    /// One call: a read of sensor 0..3 or an actuation (3), the time step
    /// before it, the sensor truth (NaN and ±∞ included) and the request.
    fn calls() -> impl Strategy<Value = Vec<(usize, f64, f64, Actuation)>> {
        let dt = prop_oneof![Just(0.0), Just(0.5), 0.0..1.0f64];
        let truth = prop_oneof![
            8 => -5.0..90.0f64,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ];
        let freq = || {
            prop_oneof![
                Just(None),
                (0.2..2.0f64).prop_map(Some),
                Just(Some(f64::NAN))
            ]
        };
        let cores = || prop_oneof![Just(None), (1usize..5).prop_map(Some)];
        let placement = prop_oneof![
            Just(None),
            (0usize..9, 1.0..2.0f64).prop_map(|(threads_big, packing)| Some(Placement {
                threads_big,
                packing_big: packing,
                packing_little: packing,
            })),
        ];
        let act = (freq(), freq(), cores(), cores(), placement).prop_map(
            |(f_big, f_little, big_cores, little_cores, placement)| Actuation {
                f_big,
                f_little,
                big_cores,
                little_cores,
                placement,
            },
        );
        prop::collection::vec((0usize..4, dt, truth, act), 0..300)
    }

    fn event_bits(e: &FaultEvent) -> (u64, FaultKind, FaultChannel, u64) {
        (e.time.to_bits(), e.kind, e.channel, e.value.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The shipped injector serves, actuates, counts, traces and
        /// leaves its RNG exactly as the reference does.
        #[test]
        fn injector_matches_reference(plan in plans(), calls in calls()) {
            let mut new = FaultInjector::new(plan.clone());
            let mut old = reference::Injector::new(plan);
            let mut time = 0.0;
            for (i, &(which, dt, truth, act)) in calls.iter().enumerate() {
                time += dt;
                if which == 3 {
                    let (a, b) = (new.filter_actuation(time, &act), old.filter_actuation(time, &act));
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "actuation {}", i);
                    continue;
                }
                let (channel, scale) = [
                    (FaultChannel::PowerBig, 4.0),
                    (FaultChannel::PowerLittle, 0.4),
                    (FaultChannel::Temp, 60.0),
                ][which];
                let a = new.filter_sensor(channel, time, truth, scale);
                let b = old.filter_sensor(channel, time, truth, scale);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "read {}", i);
            }
            prop_assert_eq!(new.stats(), old.stats);
            prop_assert!(new.trace().iter().map(event_bits).eq(old.trace.iter().map(event_bits)));
            prop_assert_eq!(new.rng.next_u64(), old.rng.next_u64(), "next draw");
        }
    }
}
