//! The assembled board simulator.
//!
//! [`Board`] ties together the power, thermal, performance, sensor, and
//! emergency-heuristic models behind the same interface the paper's
//! controllers used on the real XU3: discrete actuation (cluster
//! frequencies, core counts, thread placement) in, sampled sensors
//! (windowed power, temperature, instruction counters) out.

use std::ops::Deref;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yukta_obs::{ObsHandle, Value};

use crate::config::{self, BIG, BoardConfig, Cluster, LITTLE, MIN_CORES};
use crate::faults::{FaultEvent, FaultInjector, FaultPlan, FaultStats};
use crate::perf::{ThreadLoad, multiplex, thread_gips};
use crate::power::ClusterRates;
use crate::sensors::{PerfCounter, PowerSensor};
use crate::thermal::ThermalState;
use crate::tmu::{Tmu, TmuCaps};

/// DVFS transition stall (s) applied to a cluster on frequency change.
const DVFS_STALL: f64 = 0.010;
/// Hotplug stall (s) applied per core turned on/off.
const HOTPLUG_STALL: f64 = 0.050;
/// Migration stall (s) applied to threads whose placement changed.
const MIGRATION_STALL: f64 = 0.030;
/// Power-sensor update period in seconds (260 ms on the XU3's INA231s).
const POWER_PERIOD: f64 = 0.26;
/// Temperature-sensor noise bound (°C): reads are uniform within ±this.
const TEMP_NOISE: f64 = 0.2;

/// The OS-layer thread placement decision — the three inputs of the
/// paper's software controller (Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Threads assigned to the big cluster (the rest go to little).
    pub threads_big: usize,
    /// Average threads per non-idle big core.
    pub packing_big: f64,
    /// Average threads per non-idle little core.
    pub packing_little: f64,
}

impl Default for Placement {
    fn default() -> Self {
        Placement {
            threads_big: usize::MAX, // everything on big until told otherwise
            packing_big: 1.0,
            packing_little: 1.0,
        }
    }
}

/// A (partial) actuation request; `None` fields leave the knob unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Actuation {
    /// Requested big-cluster frequency (GHz) — snapped to the DVFS grid.
    pub f_big: Option<f64>,
    /// Requested little-cluster frequency (GHz).
    pub f_little: Option<f64>,
    /// Requested powered big cores (clamped to 1..=4, as in the paper).
    pub big_cores: Option<usize>,
    /// Requested powered little cores (clamped to 1..=4).
    pub little_cores: Option<usize>,
    /// New thread placement.
    pub placement: Option<Placement>,
}

/// A snapshot of the board's actuated/physical state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardState {
    /// Simulated time (s).
    pub time: f64,
    /// Effective big-cluster frequency after TMU caps (GHz).
    pub f_big: f64,
    /// Effective little-cluster frequency (GHz).
    pub f_little: f64,
    /// Powered big cores after TMU caps.
    pub big_cores: usize,
    /// Powered little cores.
    pub little_cores: usize,
    /// Current placement.
    pub placement: Placement,
    /// True hotspot temperature (°C).
    pub t_hot: f64,
    /// Emergency caps currently in force.
    pub caps: TmuCaps,
}

/// Counters auditing the actuation protocol at the board boundary — the
/// plant-side cross-check of the core layer's single-writer-per-knob
/// guarantee. A well-formed run issues exactly one actuation request per
/// control invocation (so no step sees two writers racing), and the TMU
/// only ever *shrinks* the requested operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActuationAudit {
    /// Total actuation requests received.
    pub actuation_requests: u64,
    /// Plant steps preceded by two or more actuation requests — evidence
    /// of two writers contending for the knobs within one invocation.
    pub double_actuations: u64,
    /// Steps where an effective knob exceeded its request — the TMU is a
    /// capper, so this must stay zero by construction.
    pub tmu_cap_expansions: u64,
}

/// A borrowed per-slot view: the thread loads a workload hands to
/// [`Board::step`] and the per-thread progress the step hands back.
///
/// It derefs to `[T]`, so `&view` coerces to `&[T]` wherever a slice is
/// taken. It wraps the slice instead of being one so that call sites
/// written against owned vectors (`board.step(&loads)`,
/// `run.advance(&rep.thread_progress)`) keep compiling unchanged: a
/// plain `&[T]` there would be a needless borrow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slots<'a, T>(pub &'a [T]);

impl<T> Deref for Slots<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0
    }
}

/// What happened during one simulation step.
///
/// The report borrows the board: [`StepReport::thread_progress`] is a view
/// of a buffer the board reuses on every step, so a report must be
/// consumed before the board is stepped or read again.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport<'a> {
    /// Giga-instructions retired by each thread (aligned with the `loads`
    /// slice passed to [`Board::step`]; inactive slots are exactly 0).
    pub thread_progress: Slots<'a, f64>,
    /// True instantaneous big-cluster power (W).
    pub p_big: f64,
    /// True instantaneous little-cluster power (W).
    pub p_little: f64,
    /// Hotspot temperature (°C).
    pub t_hot: f64,
    /// Giga-instructions retired on the big cluster this step.
    pub instr_big: f64,
    /// Giga-instructions retired on the little cluster this step.
    pub instr_little: f64,
}

/// The simulated ODROID XU3.
#[derive(Debug, Clone)]
pub struct Board {
    cfg: BoardConfig,
    time: f64,
    // Requested operating point (pre-TMU).
    req_f_big: f64,
    req_f_little: f64,
    req_big_cores: usize,
    req_little_cores: usize,
    placement: Placement,
    // Transition stalls remaining (s).
    stall_big: f64,
    stall_little: f64,
    thermal: ThermalState,
    tmu: Tmu,
    p_sensor_big: PowerSensor,
    p_sensor_little: PowerSensor,
    counter_big: PerfCounter,
    counter_little: PerfCounter,
    energy_j: f64,
    rng: StdRng,
    hmp_factor_big: f64,
    hmp_factor_little: f64,
    hmp_timer: f64,
    /// External big-cluster frequency cap (GHz) imposed from *outside*
    /// the control stack — a power-budget governor, a firmware policy, a
    /// co-located tenant. Like the TMU it is strictly a capper: it can
    /// only shrink the requested point, never expand it, so it coexists
    /// with the single-writer actuation protocol without becoming a
    /// second writer. `None` = uncapped.
    ext_cap_f_big: Option<f64>,
    /// Fault injector sitting between the plant and every observer
    /// (sensors) / requester (actuations). `None` = fault-free board.
    faults: Option<FaultInjector>,
    /// Actuation-protocol counters; never consulted by the physics.
    audit: ActuationAudit,
    /// Actuation requests since the last plant step (double-writer check).
    acts_since_step: u32,
    /// Telemetry sink for actuation/TMU/fault events. Never consulted by
    /// the physics: an instrumented board is bit-identical to a plain one.
    obs: ObsHandle,
    /// Per-thread progress of the last step, reused so a step allocates
    /// nothing once it has seen its widest `loads`.
    progress: Vec<f64>,
    /// The rates of the operating point the last step ran at, so a step
    /// at the same point and loads skips straight to the physics.
    rates: RateMemo,
}

/// Everything a step's per-thread rates and the rate-only power terms
/// depend on besides the loads: the effective (post-TMU, post-external-cap)
/// operating point, the stall gates and the HMP factors.
#[derive(Debug, Clone, Copy)]
struct OperatingPoint {
    f_big: f64,
    f_little: f64,
    big_cores: usize,
    little_cores: usize,
    placement: Placement,
    exec_big: f64,
    exec_little: f64,
    hmp_big: f64,
    hmp_little: f64,
}

impl OperatingPoint {
    /// The memo key: every field's bits, so ±0.0 never alias and a NaN
    /// only matches a NaN with the same bits.
    fn bits(&self) -> [u64; 11] {
        [
            self.f_big.to_bits(),
            self.f_little.to_bits(),
            self.big_cores as u64,
            self.little_cores as u64,
            self.placement.threads_big as u64,
            self.placement.packing_big.to_bits(),
            self.placement.packing_little.to_bits(),
            self.exec_big.to_bits(),
            self.exec_little.to_bits(),
            self.hmp_big.to_bits(),
            self.hmp_little.to_bits(),
        ]
    }
}

/// Whether two loads are the same bit for bit.
fn same_load(a: &ThreadLoad, b: &ThreadLoad) -> bool {
    a.active == b.active
        && a.mem_intensity.to_bits() == b.mem_intensity.to_bits()
        && a.ipc_factor_big.to_bits() == b.ipc_factor_big.to_bits()
        && a.ipc_factor_little.to_bits() == b.ipc_factor_little.to_bits()
}

/// The operating-point rates of the last [`Board::step`], keyed by the
/// bits of its [`OperatingPoint`] and loads. The board's `progress`
/// buffer holds the per-thread progress that goes with them.
#[derive(Debug, Clone, Default)]
struct RateMemo {
    /// `None` until the first step.
    point: Option<[u64; 11]>,
    loads: Vec<ThreadLoad>,
    instr_big: f64,
    instr_little: f64,
    power_big: ClusterRates,
    power_little: ClusterRates,
}

impl RateMemo {
    fn hits(&self, point: &[u64; 11], loads: &[ThreadLoad]) -> bool {
        // An OR-fold of XORs compares the key inline: `==` on the
        // arrays lowers to a `bcmp` call on every substep.
        self.point
            .as_ref()
            .is_some_and(|old| old.iter().zip(point).fold(0, |acc, (a, b)| acc | (a ^ b)) == 0)
            && self.loads.len() == loads.len()
            && self.loads.iter().zip(loads).all(|(a, b)| same_load(a, b))
    }
}

impl Board {
    /// Powers on a board in its reset state: both clusters at minimum
    /// frequency, all cores on, everything at ambient temperature.
    pub fn new(cfg: BoardConfig) -> Self {
        Board {
            req_f_big: BIG.f_min,
            req_f_little: LITTLE.f_min,
            req_big_cores: BIG.n_cores,
            req_little_cores: LITTLE.n_cores,
            placement: Placement::default(),
            stall_big: 0.0,
            stall_little: 0.0,
            thermal: ThermalState::at_ambient(),
            tmu: Tmu::new(),
            p_sensor_big: PowerSensor::new(POWER_PERIOD),
            p_sensor_little: PowerSensor::new(POWER_PERIOD),
            counter_big: PerfCounter::new(),
            counter_little: PerfCounter::new(),
            energy_j: 0.0,
            rng: StdRng::seed_from_u64(cfg.seed),
            hmp_factor_big: 1.0,
            hmp_factor_little: 1.0,
            hmp_timer: 0.0,
            time: 0.0,
            cfg,
            ext_cap_f_big: None,
            faults: None,
            audit: ActuationAudit::default(),
            acts_since_step: 0,
            obs: ObsHandle::default(),
            progress: Vec::new(),
            rates: RateMemo::default(),
        }
    }

    /// Powers on a board with a fault plan installed at the sensor/actuator
    /// seams. The injector draws from its own seeded RNG, so a plan with
    /// zero severity and no schedule is bit-identical to [`Board::new`].
    pub fn with_faults(cfg: BoardConfig, plan: FaultPlan) -> Self {
        let mut b = Board::new(cfg);
        b.faults = Some(FaultInjector::new(plan));
        b
    }

    /// The configuration the board was built with.
    pub fn config(&self) -> &BoardConfig {
        &self.cfg
    }

    /// Points the board's telemetry at a specific recorder. The default
    /// handle follows the process-global recorder ([`yukta_obs::handle`]),
    /// so this is only needed when a run wants its own sink.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Emits `board.fault` events for fault-trace entries from `from` on.
    fn emit_fault_events(&self, from: usize) {
        let rec = self.obs.get();
        if !rec.enabled() {
            return;
        }
        if let Some(inj) = &self.faults {
            for ev in &inj.trace()[from..] {
                rec.event(
                    "board.fault",
                    &[
                        ("kind", Value::Str(ev.kind.label())),
                        ("channel", Value::Str(ev.channel.label())),
                        ("value", Value::F64(ev.value)),
                        ("t_sim", Value::F64(ev.time)),
                    ],
                );
            }
        }
    }

    /// Fault-trace length when telemetry is on, `None` otherwise — the
    /// marker [`Board::emit_fault_events`] resumes from.
    fn fault_mark(&self) -> Option<usize> {
        if self.obs.get().enabled() {
            self.faults.as_ref().map(|f| f.trace().len())
        } else {
            None
        }
    }

    /// Aggregate fault-injection counters (`None` on a fault-free board).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// The recorded fault trace (`None` on a fault-free board).
    pub fn fault_trace(&self) -> Option<&[FaultEvent]> {
        self.faults.as_ref().map(|f| f.trace())
    }

    /// Applies an actuation request, snapping frequencies to the DVFS grid,
    /// clamping core counts to 1..=n, and charging the transition stalls.
    ///
    /// With a fault plan installed the request first passes through the
    /// injector, which may reject the DVFS part, ignore the hotplug part,
    /// or hold the whole request back for one invocation.
    pub fn actuate(&mut self, act: &Actuation) {
        self.audit.actuation_requests += 1;
        self.acts_since_step += 1;
        if self.acts_since_step == 2 {
            // Two requests landed without an intervening plant step: two
            // writers raced the knobs. Counted once per step window.
            self.audit.double_actuations += 1;
        }
        let obs_on = self.obs.get().enabled();
        let fault_mark = self.fault_mark();
        let prev = obs_on.then_some((
            self.req_f_big,
            self.req_f_little,
            self.req_big_cores,
            self.req_little_cores,
            self.placement,
        ));
        let act = match &mut self.faults {
            Some(inj) => inj.filter_actuation(self.time, act),
            None => *act,
        };
        let act = &act;
        if let Some(f) = act.f_big {
            let snapped = Board::snap_freq(Cluster::Big, f);
            if (snapped - self.req_f_big).abs() > 1e-9 {
                self.req_f_big = snapped;
                self.stall_big = self.stall_big.max(DVFS_STALL);
            }
        }
        if let Some(f) = act.f_little {
            let snapped = Board::snap_freq(Cluster::Little, f);
            if (snapped - self.req_f_little).abs() > 1e-9 {
                self.req_f_little = snapped;
                self.stall_little = self.stall_little.max(DVFS_STALL);
            }
        }
        if let Some(n) = act.big_cores {
            let n = n.clamp(MIN_CORES, BIG.n_cores);
            if n != self.req_big_cores {
                let delta = n.abs_diff(self.req_big_cores) as f64;
                self.req_big_cores = n;
                self.stall_big = self.stall_big.max(HOTPLUG_STALL * delta);
            }
        }
        if let Some(n) = act.little_cores {
            let n = n.clamp(MIN_CORES, LITTLE.n_cores);
            if n != self.req_little_cores {
                let delta = n.abs_diff(self.req_little_cores) as f64;
                self.req_little_cores = n;
                self.stall_little = self.stall_little.max(HOTPLUG_STALL * delta);
            }
        }
        if let Some(p) = act.placement {
            // Clamp before comparing: the stored packings are ≥ 1, so a
            // raw sub-1 request would otherwise read as a change forever.
            let p = Placement {
                threads_big: p.threads_big,
                packing_big: p.packing_big.max(1.0),
                packing_little: p.packing_little.max(1.0),
            };
            let changed = p.threads_big != self.placement.threads_big
                || (p.packing_big - self.placement.packing_big).abs() > 1e-9
                || (p.packing_little - self.placement.packing_little).abs() > 1e-9;
            if changed {
                self.placement = p;
                // Migration costs both clusters a brief stall.
                self.stall_big = self.stall_big.max(MIGRATION_STALL);
                self.stall_little = self.stall_little.max(MIGRATION_STALL);
            }
        }
        if let Some((pf_big, pf_little, pbc, plc, ppl)) = prev {
            let rec = self.obs.get();
            let t = self.time;
            if (self.req_f_big - pf_big).abs() > 1e-9 {
                rec.event(
                    "board.dvfs",
                    &[
                        ("cluster", Value::Str("big")),
                        ("f_ghz", Value::F64(self.req_f_big)),
                        ("t_sim", Value::F64(t)),
                    ],
                );
            }
            if (self.req_f_little - pf_little).abs() > 1e-9 {
                rec.event(
                    "board.dvfs",
                    &[
                        ("cluster", Value::Str("little")),
                        ("f_ghz", Value::F64(self.req_f_little)),
                        ("t_sim", Value::F64(t)),
                    ],
                );
            }
            if self.req_big_cores != pbc {
                rec.event(
                    "board.hotplug",
                    &[
                        ("cluster", Value::Str("big")),
                        ("cores", Value::U64(self.req_big_cores as u64)),
                        ("t_sim", Value::F64(t)),
                    ],
                );
            }
            if self.req_little_cores != plc {
                rec.event(
                    "board.hotplug",
                    &[
                        ("cluster", Value::Str("little")),
                        ("cores", Value::U64(self.req_little_cores as u64)),
                        ("t_sim", Value::F64(t)),
                    ],
                );
            }
            if self.placement != ppl {
                rec.event(
                    "board.migrate",
                    &[
                        ("threads_big", Value::U64(self.placement.threads_big as u64)),
                        ("packing_big", Value::F64(self.placement.packing_big)),
                        ("packing_little", Value::F64(self.placement.packing_little)),
                        ("t_sim", Value::F64(t)),
                    ],
                );
            }
        }
        if let Some(from) = fault_mark {
            self.emit_fault_events(from);
        }
    }

    fn snap_freq(c: Cluster, f: f64) -> f64 {
        let cc = config::cluster(c);
        let clamped = f.clamp(cc.f_min, cc.f_max);
        let steps = ((clamped - cc.f_min) / cc.f_step).round();
        // Re-clamp: the reconstruction can overshoot f_max by one ULP
        // (e.g. 0.2 + 12×0.1 = 1.4000000000000001).
        (cc.f_min + steps * cc.f_step).clamp(cc.f_min, cc.f_max)
    }

    /// Advances the board by one timestep given each thread's current load.
    ///
    /// Allocation-free once the board has seen `loads.len()` slots: the
    /// active slots are split between the clusters in place, and the
    /// progress lands in a buffer the board owns and the report borrows.
    /// The per-thread rates and the rate-only power terms are recomputed
    /// only when the operating point or the loads change bit-wise; within
    /// a controller period only leakage, thermal, sensors and the TMU move.
    pub fn step(&mut self, loads: &[ThreadLoad]) -> StepReport<'_> {
        let dt = self.cfg.dt;
        // Refresh the HMP packing-noise factors every 500 ms.
        self.hmp_timer += dt;
        if self.hmp_timer >= 0.5 {
            self.hmp_timer = 0.0;
            self.hmp_factor_big = self.draw_hmp_factor();
            self.hmp_factor_little = self.draw_hmp_factor();
        }
        // Apply TMU caps to the requested operating point, then the
        // external cap (both strictly shrink; see `ext_cap_f_big`).
        let caps = self.tmu.caps();
        let f_big = caps.f_big.map_or(self.req_f_big, |c| self.req_f_big.min(c));
        let f_big = self.ext_cap_f_big.map_or(f_big, |c| f_big.min(c));
        let f_little = caps
            .f_little
            .map_or(self.req_f_little, |c| self.req_f_little.min(c));
        let big_cores = caps
            .big_cores
            .map_or(self.req_big_cores, |c| self.req_big_cores.min(c.max(1)));
        let little_cores = self.req_little_cores;
        // The TMU may only shrink the requested point; an effective knob
        // above its request means the capper turned into a writer.
        if f_big > self.req_f_big + 1e-12
            || f_little > self.req_f_little + 1e-12
            || big_cores > self.req_big_cores
        {
            self.audit.tmu_cap_expansions += 1;
        }
        self.acts_since_step = 0;

        // Execution, gated by transition stalls.
        let exec_big = if self.stall_big > 0.0 { 0.0 } else { 1.0 };
        let exec_little = if self.stall_little > 0.0 { 0.0 } else { 1.0 };
        self.stall_big = (self.stall_big - dt).max(0.0);
        self.stall_little = (self.stall_little - dt).max(0.0);

        let op = OperatingPoint {
            f_big,
            f_little,
            big_cores,
            little_cores,
            placement: self.placement,
            exec_big,
            exec_little,
            hmp_big: self.hmp_factor_big,
            hmp_little: self.hmp_factor_little,
        };
        let key = op.bits();
        if !self.rates.hits(&key, loads) {
            self.refresh_rates(&op, loads);
            self.rates.point = Some(key);
        }
        let instr_big = self.rates.instr_big;
        let instr_little = self.rates.instr_little;

        // Power and thermal.
        let p_big = self.rates.power_big.total_at(self.thermal.t_hot);
        let p_little = self.rates.power_little.total_at(self.thermal.t_board);
        let p_total = p_big + p_little + 0.3; // rest-of-board draw
        self.thermal.step(p_big, p_total, dt);

        // Sensors, counters, energy.
        self.p_sensor_big.integrate(p_big, dt);
        self.p_sensor_little.integrate(p_little, dt);
        self.counter_big.add(instr_big);
        self.counter_little.add(instr_little);
        self.energy_j += (p_big + p_little) * dt;

        // Emergency heuristics observe the (lagging) sensor powers.
        let tmu_before = if self.obs.get().enabled() {
            Some((self.tmu.caps(), self.tmu.trips()))
        } else {
            None
        };
        self.tmu.step(
            dt,
            self.thermal.t_hot,
            self.p_sensor_big.read(),
            self.p_sensor_little.read(),
            f_big,
        );
        if let Some((caps_before, trips_before)) = tmu_before {
            let rec = self.obs.get();
            let caps_after = self.tmu.caps();
            let trips_after = self.tmu.trips();
            if trips_after > trips_before {
                rec.counter_add("board.tmu_trips", trips_after - trips_before);
            }
            if caps_after.active() != caps_before.active() {
                let name = if caps_after.active() {
                    "board.tmu_engage"
                } else {
                    "board.tmu_release"
                };
                rec.event(
                    name,
                    &[
                        (
                            "f_big_cap",
                            Value::F64(caps_after.f_big.unwrap_or(f64::NAN)),
                        ),
                        (
                            "big_cores_cap",
                            Value::F64(caps_after.big_cores.map_or(f64::NAN, |c| c as f64)),
                        ),
                        ("t_hot", Value::F64(self.thermal.t_hot)),
                        ("t_sim", Value::F64(self.time)),
                    ],
                );
            }
        }

        self.time += dt;
        StepReport {
            thread_progress: Slots(&self.progress),
            p_big,
            p_little,
            t_hot: self.thermal.t_hot,
            instr_big,
            instr_little,
        }
    }

    /// Recomputes the memoized rates for operating point `op` and `loads`:
    /// partitions the active threads, multiplexes each cluster, rewrites
    /// the per-thread progress and the cluster instruction sums, and
    /// fixes each cluster's rate-only power terms.
    fn refresh_rates(&mut self, op: &OperatingPoint, loads: &[ThreadLoad]) {
        let dt = self.cfg.dt;
        // Partition the active threads: the first `n_big` active slots run
        // on big, the rest on little.
        let n_active = loads.iter().filter(|l| l.active).count();
        let n_big = op.placement.threads_big.min(n_active);
        let mux_big = multiplex(n_big, op.big_cores, op.placement.packing_big);
        let mux_little = multiplex(
            n_active - n_big,
            op.little_cores,
            op.placement.packing_little,
        );

        self.progress.clear();
        self.progress.resize(loads.len(), 0.0);
        let mut instr_big = 0.0;
        let mut instr_little = 0.0;
        let mut big_left = n_big;
        for (l, progress) in loads.iter().zip(&mut self.progress) {
            if !l.active {
                continue;
            }
            if big_left > 0 {
                big_left -= 1;
                let gips = thread_gips(
                    &BIG,
                    l.ipc_factor_big,
                    l.mem_intensity,
                    op.f_big,
                    mux_big.share_per_thread,
                ) * op.hmp_big
                    * op.exec_big;
                *progress = gips * dt;
                instr_big += gips * dt;
            } else {
                let gips = thread_gips(
                    &LITTLE,
                    l.ipc_factor_little,
                    l.mem_intensity,
                    op.f_little,
                    mux_little.share_per_thread,
                ) * op.hmp_little
                    * op.exec_little;
                *progress = gips * dt;
                instr_little += gips * dt;
            }
        }

        let busy_big = if op.exec_big > 0.0 {
            mux_big.cores_used as f64
        } else {
            0.2
        };
        let busy_little = if op.exec_little > 0.0 {
            mux_little.cores_used as f64
        } else {
            0.2
        };
        let memo = &mut self.rates;
        memo.loads.clear();
        memo.loads.extend_from_slice(loads);
        memo.instr_big = instr_big;
        memo.instr_little = instr_little;
        memo.power_big = ClusterRates::new(&BIG, op.big_cores, busy_big, op.f_big);
        memo.power_little = ClusterRates::new(&LITTLE, op.little_cores, busy_little, op.f_little);
    }

    fn draw_hmp_factor(&mut self) -> f64 {
        if self.cfg.hmp_noise <= 0.0 {
            return 1.0;
        }
        // Mild throughput loss most intervals; occasionally the scheduler
        // packs badly and costs much more (the paper's example of threads
        // stacked on one core while another idles).
        let base: f64 = 1.0 - self.rng.gen_range(0.0..self.cfg.hmp_noise);
        if self.rng.gen_bool(0.05) {
            base * 0.85
        } else {
            base
        }
    }

    /// Last completed power-sensor reading for a cluster (W), as seen
    /// through the fault injector when one is installed.
    pub fn read_power(&mut self, c: Cluster) -> f64 {
        let fault_mark = self.fault_mark();
        let truth = match c {
            Cluster::Big => self.p_sensor_big.read(),
            Cluster::Little => self.p_sensor_little.read(),
        };
        let read = match (&mut self.faults, c) {
            (Some(inj), Cluster::Big) => inj.filter_power_big(self.time, truth),
            (Some(inj), Cluster::Little) => inj.filter_power_little(self.time, truth),
            (None, _) => truth,
        };
        if let Some(from) = fault_mark {
            self.emit_fault_events(from);
        }
        read
    }

    /// Temperature-sensor reading: hotspot plus sensor noise (°C), as seen
    /// through the fault injector when one is installed.
    ///
    /// The board's own RNG is always consumed identically, so installing a
    /// zero-severity injector never perturbs the plant's noise stream.
    pub fn read_temp(&mut self) -> f64 {
        let fault_mark = self.fault_mark();
        let truth = self.thermal.t_hot + self.rng.gen_range(-TEMP_NOISE..=TEMP_NOISE);
        let read = match &mut self.faults {
            Some(inj) => inj.filter_temp(self.time, truth),
            None => truth,
        };
        if let Some(from) = fault_mark {
            self.emit_fault_events(from);
        }
        read
    }

    /// Cumulative retired giga-instructions on a cluster.
    pub fn instructions(&self, c: Cluster) -> f64 {
        match c {
            Cluster::Big => self.counter_big.total(),
            Cluster::Little => self.counter_little.total(),
        }
    }

    /// Cumulative retired giga-instructions (both clusters).
    pub fn total_instructions(&self) -> f64 {
        self.counter_big.total() + self.counter_little.total()
    }

    /// Cumulative cluster energy (J) — what the paper's E×D integrates.
    pub fn energy(&self) -> f64 {
        self.energy_j
    }

    /// Simulated time (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// How many TMU emergency trips have fired so far.
    pub fn tmu_trips(&self) -> u64 {
        self.tmu.trips()
    }

    /// Actuation-protocol counters (single-writer / TMU-capper audit).
    pub fn actuation_audit(&self) -> ActuationAudit {
        self.audit
    }

    /// Imposes (or lifts, with `None`) an external big-cluster frequency
    /// cap. The cap models the destructive-interference scenario of the
    /// SLO campaign: an actor *above* the Hw controller throttles the
    /// cluster while the Os layer keeps scaling. Values are clamped to
    /// the DVFS range; non-finite values are ignored.
    pub fn set_external_cap_f_big(&mut self, cap: Option<f64>) {
        self.ext_cap_f_big = cap
            .filter(|c| c.is_finite())
            .map(|c| c.clamp(BIG.f_min, BIG.f_max));
    }

    /// A snapshot of the effective operating point.
    pub fn state(&self) -> BoardState {
        let caps = self.tmu.caps();
        let f_big_tmu = caps.f_big.map_or(self.req_f_big, |c| self.req_f_big.min(c));
        BoardState {
            time: self.time,
            f_big: self.ext_cap_f_big.map_or(f_big_tmu, |c| f_big_tmu.min(c)),
            f_little: caps
                .f_little
                .map_or(self.req_f_little, |c| self.req_f_little.min(c)),
            big_cores: caps
                .big_cores
                .map_or(self.req_big_cores, |c| self.req_big_cores.min(c.max(1))),
            little_cores: self.req_little_cores,
            placement: self.placement,
            t_hot: self.thermal.t_hot,
            caps,
        }
    }
}

/// The plant step as it was before the rate memo, kept as the bit-exact
/// oracle for [`Board::step`].
#[cfg(test)]
mod reference {
    use yukta_obs::Value;

    use super::{Board, Slots, StepReport};
    use crate::config::{BIG, ClusterConfig, LITTLE};
    use crate::perf::{ThreadLoad, multiplex, thread_gips};
    use crate::power::{ClusterPower, T_LEAK_REF, T_LEAK_SCALE};

    /// The unsplit cluster power model (rates and leakage in one pass).
    fn cluster_power(
        cfg: &ClusterConfig,
        cores_on: usize,
        busy_cores: f64,
        freq: f64,
        temp: f64,
    ) -> ClusterPower {
        if cores_on == 0 {
            return ClusterPower::default();
        }
        let v = cfg.voltage(freq);
        let busy = busy_cores.clamp(0.0, cores_on as f64);
        let idle = cores_on as f64 - busy;
        let per_core_dyn = cfg.c_eff * v * v * freq;
        let dynamic = per_core_dyn * (busy + idle * cfg.idle_activity);
        let leak_scale = ((temp - T_LEAK_REF) / T_LEAK_SCALE).exp();
        let leakage = cfg.k_leak * v * cores_on as f64 * leak_scale;
        ClusterPower {
            dynamic,
            leakage,
            uncore: cfg.p_uncore,
        }
    }

    /// The unmemoized [`Board::step`]: every substep rebuilds the
    /// partition, the per-thread rates and the cluster power.
    pub(super) fn step<'a>(b: &'a mut Board, loads: &[ThreadLoad]) -> StepReport<'a> {
        // This step rewrites the progress buffer the memo's rates go with.
        b.rates.point = None;
        let dt = b.cfg.dt;
        // Refresh the HMP packing-noise factors every 500 ms.
        b.hmp_timer += dt;
        if b.hmp_timer >= 0.5 {
            b.hmp_timer = 0.0;
            b.hmp_factor_big = b.draw_hmp_factor();
            b.hmp_factor_little = b.draw_hmp_factor();
        }
        // Apply TMU caps to the requested operating point, then the
        // external cap (both strictly shrink; see `ext_cap_f_big`).
        let caps = b.tmu.caps();
        let f_big = caps.f_big.map_or(b.req_f_big, |c| b.req_f_big.min(c));
        let f_big = b.ext_cap_f_big.map_or(f_big, |c| f_big.min(c));
        let f_little = caps
            .f_little
            .map_or(b.req_f_little, |c| b.req_f_little.min(c));
        let big_cores = caps
            .big_cores
            .map_or(b.req_big_cores, |c| b.req_big_cores.min(c.max(1)));
        let little_cores = b.req_little_cores;
        // The TMU may only shrink the requested point; an effective knob
        // above its request means the capper turned into a writer.
        if f_big > b.req_f_big + 1e-12
            || f_little > b.req_f_little + 1e-12
            || big_cores > b.req_big_cores
        {
            b.audit.tmu_cap_expansions += 1;
        }
        b.acts_since_step = 0;

        // Partition the active threads: the first `n_big` active slots run
        // on big, the rest on little.
        let n_active = loads.iter().filter(|l| l.active).count();
        let n_big = b.placement.threads_big.min(n_active);
        let mux_big = multiplex(n_big, big_cores, b.placement.packing_big);
        let mux_little = multiplex(n_active - n_big, little_cores, b.placement.packing_little);

        // Execution, gated by transition stalls.
        let exec_big = if b.stall_big > 0.0 { 0.0 } else { 1.0 };
        let exec_little = if b.stall_little > 0.0 { 0.0 } else { 1.0 };
        b.stall_big = (b.stall_big - dt).max(0.0);
        b.stall_little = (b.stall_little - dt).max(0.0);

        b.progress.clear();
        b.progress.resize(loads.len(), 0.0);
        let mut instr_big = 0.0;
        let mut instr_little = 0.0;
        let mut big_left = n_big;
        for (l, progress) in loads.iter().zip(&mut b.progress) {
            if !l.active {
                continue;
            }
            if big_left > 0 {
                big_left -= 1;
                let gips = thread_gips(
                    &BIG,
                    l.ipc_factor_big,
                    l.mem_intensity,
                    f_big,
                    mux_big.share_per_thread,
                ) * b.hmp_factor_big
                    * exec_big;
                *progress = gips * dt;
                instr_big += gips * dt;
            } else {
                let gips = thread_gips(
                    &LITTLE,
                    l.ipc_factor_little,
                    l.mem_intensity,
                    f_little,
                    mux_little.share_per_thread,
                ) * b.hmp_factor_little
                    * exec_little;
                *progress = gips * dt;
                instr_little += gips * dt;
            }
        }

        // Power and thermal.
        let busy_big = if exec_big > 0.0 {
            mux_big.cores_used as f64
        } else {
            0.2
        };
        let busy_little = if exec_little > 0.0 {
            mux_little.cores_used as f64
        } else {
            0.2
        };
        let p_big = cluster_power(&BIG, big_cores, busy_big, f_big, b.thermal.t_hot).total();
        let p_little = cluster_power(
            &LITTLE,
            little_cores,
            busy_little,
            f_little,
            b.thermal.t_board,
        )
        .total();
        let p_total = p_big + p_little + 0.3; // rest-of-board draw
        b.thermal.step(p_big, p_total, dt);

        // Sensors, counters, energy.
        b.p_sensor_big.integrate(p_big, dt);
        b.p_sensor_little.integrate(p_little, dt);
        b.counter_big.add(instr_big);
        b.counter_little.add(instr_little);
        b.energy_j += (p_big + p_little) * dt;

        // Emergency heuristics observe the (lagging) sensor powers.
        let tmu_before = if b.obs.get().enabled() {
            Some((b.tmu.caps(), b.tmu.trips()))
        } else {
            None
        };
        b.tmu.step(
            dt,
            b.thermal.t_hot,
            b.p_sensor_big.read(),
            b.p_sensor_little.read(),
            f_big,
        );
        if let Some((caps_before, trips_before)) = tmu_before {
            let rec = b.obs.get();
            let caps_after = b.tmu.caps();
            let trips_after = b.tmu.trips();
            if trips_after > trips_before {
                rec.counter_add("board.tmu_trips", trips_after - trips_before);
            }
            if caps_after.active() != caps_before.active() {
                let name = if caps_after.active() {
                    "board.tmu_engage"
                } else {
                    "board.tmu_release"
                };
                rec.event(
                    name,
                    &[
                        (
                            "f_big_cap",
                            Value::F64(caps_after.f_big.unwrap_or(f64::NAN)),
                        ),
                        (
                            "big_cores_cap",
                            Value::F64(caps_after.big_cores.map_or(f64::NAN, |c| c as f64)),
                        ),
                        ("t_hot", Value::F64(b.thermal.t_hot)),
                        ("t_sim", Value::F64(b.time)),
                    ],
                );
            }
        }

        b.time += dt;
        StepReport {
            thread_progress: Slots(&b.progress),
            p_big,
            p_little,
            t_hot: b.thermal.t_hot,
            instr_big,
            instr_little,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> Board {
        Board::new(BoardConfig::odroid_xu3())
    }

    fn eight_threads() -> Vec<ThreadLoad> {
        vec![ThreadLoad::nominal(); 8]
    }

    fn run(b: &mut Board, loads: &[ThreadLoad], secs: f64) {
        let steps = (secs / b.config().dt) as usize;
        for _ in 0..steps {
            b.step(loads);
        }
    }

    #[test]
    fn reset_state_is_minimum_frequency_all_cores() {
        let b = board();
        let s = b.state();
        assert!((s.f_big - 0.2).abs() < 1e-12);
        assert_eq!(s.big_cores, 4);
        assert_eq!(s.little_cores, 4);
        assert!((s.t_hot - 25.0).abs() < 1e-9);
    }

    #[test]
    fn actuation_snaps_and_clamps() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.234),
            f_little: Some(9.0),
            big_cores: Some(0),
            little_cores: Some(10),
            placement: None,
        });
        let s = b.state();
        assert!((s.f_big - 1.2).abs() < 1e-9);
        assert!((s.f_little - 1.4).abs() < 1e-9);
        assert_eq!(s.big_cores, 1);
        assert_eq!(s.little_cores, 4);
    }

    #[test]
    fn threads_execute_and_counters_advance() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.0),
            placement: Some(Placement {
                threads_big: 8,
                packing_big: 2.0,
                packing_little: 1.0,
            }),
            ..Default::default()
        });
        run(&mut b, &eight_threads(), 2.0);
        assert!(b.total_instructions() > 0.5);
        assert!(b.instructions(Cluster::Big) > 0.0);
        assert_eq!(b.instructions(Cluster::Little), 0.0);
        assert!(b.energy() > 0.0);
    }

    #[test]
    fn placement_splits_threads_between_clusters() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.0),
            f_little: Some(1.0),
            placement: Some(Placement {
                threads_big: 4,
                packing_big: 1.0,
                packing_little: 1.0,
            }),
            ..Default::default()
        });
        run(&mut b, &eight_threads(), 2.0);
        assert!(b.instructions(Cluster::Big) > 0.0);
        assert!(b.instructions(Cluster::Little) > 0.0);
        // Big cores are faster than little at the same frequency.
        assert!(b.instructions(Cluster::Big) > b.instructions(Cluster::Little));
    }

    #[test]
    fn higher_frequency_burns_more_energy_and_runs_faster() {
        let mk = |f: f64| {
            let mut b = board();
            b.actuate(&Actuation {
                f_big: Some(f),
                placement: Some(Placement {
                    threads_big: 8,
                    packing_big: 2.0,
                    packing_little: 1.0,
                }),
                ..Default::default()
            });
            run(&mut b, &eight_threads(), 5.0);
            (b.total_instructions(), b.energy())
        };
        let (i_lo, e_lo) = mk(0.6);
        let (i_hi, e_hi) = mk(1.8);
        assert!(i_hi > 1.5 * i_lo);
        assert!(e_hi > 2.0 * e_lo);
    }

    #[test]
    fn power_sensor_updates_on_260ms_cadence() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(2.0),
            ..Default::default()
        });
        let loads = eight_threads();
        // Before the first 260 ms window completes: zero reading.
        run(&mut b, &loads, 0.2);
        assert_eq!(b.read_power(Cluster::Big), 0.0);
        run(&mut b, &loads, 0.1);
        assert!(b.read_power(Cluster::Big) > 0.5);
    }

    #[test]
    fn max_frequency_eventually_trips_the_emergency_tmu() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(2.0),
            placement: Some(Placement {
                threads_big: 8,
                packing_big: 2.0,
                packing_little: 1.0,
            }),
            ..Default::default()
        });
        run(&mut b, &eight_threads(), 20.0);
        assert!(b.tmu_trips() > 0, "sustained max power must trip the TMU");
        // The effective frequency is capped below max.
        assert!(b.state().f_big < 2.0);
    }

    #[test]
    fn safe_operating_point_never_trips() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.2),
            f_little: Some(0.8),
            placement: Some(Placement {
                threads_big: 4,
                packing_big: 1.0,
                packing_little: 1.0,
            }),
            ..Default::default()
        });
        run(&mut b, &eight_threads(), 30.0);
        assert_eq!(b.tmu_trips(), 0);
        let s = b.state();
        assert!(s.t_hot < 79.0, "hotspot {}", s.t_hot);
    }

    #[test]
    fn dvfs_change_stalls_execution_briefly() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.0),
            ..Default::default()
        });
        let loads = eight_threads();
        run(&mut b, &loads, 1.0);
        let before = b.total_instructions();
        // Change frequency: the next step must retire nothing on big.
        b.actuate(&Actuation {
            f_big: Some(1.1),
            ..Default::default()
        });
        let rep = b.step(&loads);
        assert_eq!(rep.instr_big, 0.0);
        assert!(b.total_instructions() >= before);
    }

    #[test]
    fn inactive_threads_make_no_progress() {
        let mut b = board();
        let mut loads = eight_threads();
        loads[3] = ThreadLoad::idle();
        b.actuate(&Actuation {
            f_big: Some(1.0),
            ..Default::default()
        });
        run(&mut b, &loads, 1.0);
        let rep = b.step(&loads);
        assert_eq!(rep.thread_progress[3], 0.0);
        assert!(rep.thread_progress[0] > 0.0);
    }

    #[test]
    fn repeated_sub_one_packing_request_does_not_stall() {
        let mut b = board();
        let act = Actuation {
            f_big: Some(1.0),
            placement: Some(Placement {
                threads_big: 8,
                packing_big: 0.5,
                packing_little: 0.5,
            }),
            ..Default::default()
        };
        let loads = eight_threads();
        b.actuate(&act);
        run(&mut b, &loads, 1.0);
        b.actuate(&act);
        run(&mut b, &loads, 1.0);
        // The stored placement is the clamped request, so sending the same
        // request again is no change: no migration, no stall.
        b.actuate(&act);
        let rep = b.step(&loads);
        assert!(rep.instr_big > 0.0, "identical request re-charged a stall");
        assert_eq!(b.state().placement.packing_big, 1.0);
    }

    /// Every observable of a step report, as bits.
    fn report_bits(rep: &StepReport<'_>) -> Vec<u64> {
        let mut v: Vec<u64> = rep.thread_progress.iter().map(|g| g.to_bits()).collect();
        v.extend(
            [
                rep.p_big,
                rep.p_little,
                rep.t_hot,
                rep.instr_big,
                rep.instr_little,
            ]
            .map(f64::to_bits),
        );
        v
    }

    /// Checks one report against the loads it was stepped with: one
    /// progress entry per slot, exact zeros on inactive slots, and the
    /// cluster totals equal to the per-slot sums bit for bit.
    fn check_report(rep: &StepReport<'_>, loads: &[ThreadLoad], threads_big: usize) {
        assert_eq!(rep.thread_progress.len(), loads.len());
        let (mut big, mut little) = (0.0, 0.0);
        let mut big_left = threads_big;
        for (l, &g) in loads.iter().zip(rep.thread_progress.iter()) {
            if !l.active {
                assert_eq!(g.to_bits(), 0.0f64.to_bits(), "stale progress");
            } else if big_left > 0 {
                big_left -= 1;
                big += g;
            } else {
                little += g;
            }
        }
        assert_eq!(big.to_bits(), rep.instr_big.to_bits());
        assert_eq!(little.to_bits(), rep.instr_little.to_bits());
    }

    #[test]
    fn progress_buffer_is_reused_without_stale_entries() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.2),
            f_little: Some(1.0),
            placement: Some(Placement {
                threads_big: 2,
                packing_big: 1.0,
                packing_little: 1.0,
            }),
            ..Default::default()
        });
        // Slot counts 8 → 3 → 0 → 8, each with shifting active flags.
        let mut shapes = Vec::new();
        for n in [8usize, 3, 0, 8] {
            for k in 0..4 {
                let loads: Vec<ThreadLoad> = (0..n)
                    .map(|i| match (i + k) % 3 {
                        0 => ThreadLoad::idle(),
                        _ => ThreadLoad::nominal(),
                    })
                    .collect();
                shapes.push(loads);
            }
        }
        let schedule = || shapes.iter().cycle().take(3 * shapes.len());
        let mut twin = None;
        let mut after_clone = Vec::new();
        for (i, loads) in schedule().enumerate() {
            if i == shapes.len() {
                twin = Some(b.clone());
            }
            let rep = b.step(loads);
            check_report(&rep, loads, 2);
            if twin.is_some() {
                after_clone.push(report_bits(&rep));
            }
        }
        // A clone taken mid-run replays the rest of the run bit for bit.
        let mut twin = twin.unwrap();
        for (loads, want) in schedule().skip(shapes.len()).zip(&after_clone) {
            assert_eq!(&report_bits(&twin.step(loads)), want);
        }
    }

    /// A deterministic draw in `[0, 1)` for the differential test's moves.
    fn unit(r: &mut u64) -> f64 {
        *r = r
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*r >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Every side-effect-free observable of a board, as bits.
    fn board_bits(b: &Board) -> Vec<u64> {
        let s = b.state();
        let audit = b.actuation_audit();
        let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
        vec![
            s.time.to_bits(),
            s.f_big.to_bits(),
            s.f_little.to_bits(),
            s.big_cores as u64,
            s.little_cores as u64,
            s.placement.threads_big as u64,
            s.placement.packing_big.to_bits(),
            s.placement.packing_little.to_bits(),
            s.t_hot.to_bits(),
            opt(s.caps.f_big),
            opt(s.caps.f_little),
            s.caps.big_cores.map_or(u64::MAX, |c| c as u64),
            b.energy().to_bits(),
            b.instructions(Cluster::Big).to_bits(),
            b.instructions(Cluster::Little).to_bits(),
            b.tmu_trips(),
            audit.actuation_requests,
            audit.double_actuations,
            audit.tmu_cap_expansions,
        ]
    }

    /// Number of move kinds [`drive_differential`] decodes.
    const MOVES: u32 = 18;

    /// Drives the reference board and the memoized boards through `moves`
    /// (`(kind, seed)` pairs), asserting after every substep and move that
    /// each memoized board matches the reference bit for bit. Returns the
    /// reference board.
    ///
    /// `variant` 1 installs a fault plan; `variant` 2 starts at the top big
    /// frequency and turns the DVFS move into an external cap, which moves
    /// the effective frequency with no stall, so a frequency change reaches
    /// the rates without the stall gates changing too.
    fn drive_differential(moves: &[(u32, u64)], variant: u32) -> Board {
        let mk = || {
            let cfg = BoardConfig::odroid_xu3();
            let mut b = if variant == 1 {
                Board::with_faults(cfg, crate::faults::FaultPlan::uniform(5, 0.5))
            } else {
                Board::new(cfg)
            };
            if variant == 2 {
                b.actuate(&Actuation {
                    f_big: Some(BIG.f_max),
                    ..Default::default()
                });
            }
            b
        };
        let mut want = mk();
        let mut boards = vec![mk()];
        let mut loads = eight_threads();
        for (i, &(kind, seed)) in moves.iter().enumerate() {
            let mut r = seed;
            let mut steps = 0;
            let mut act = None;
            match kind {
                0..=3 => steps = 1 + (seed % 120) as usize,
                // The identity request: no knob moves, no stall.
                4 => act = Some(Actuation::default()),
                // Maximum frequency everywhere, long enough to trip the TMU.
                5 => {
                    act = Some(Actuation {
                        f_big: Some(2.0),
                        f_little: Some(1.4),
                        big_cores: Some(4),
                        little_cores: Some(4),
                        placement: Some(Placement {
                            threads_big: 8,
                            packing_big: 1.0,
                            packing_little: 1.0,
                        }),
                    });
                    steps = 1500;
                }
                6 => {
                    act = Some(Actuation {
                        big_cores: Some((seed % 5) as usize),
                        little_cores: Some((seed >> 8) as usize % 5),
                        ..Default::default()
                    })
                }
                // A migration of one placement knob or all three: both
                // clusters stall.
                7 => {
                    let mut p = want.state().placement;
                    let (tb, pb, pl) = match seed % 4 {
                        0 => (true, false, false),
                        1 => (false, true, false),
                        2 => (false, false, true),
                        _ => (true, true, true),
                    };
                    if tb {
                        p.threads_big = (seed >> 2) as usize % 11;
                    }
                    if pb {
                        p.packing_big = 0.5 + 2.5 * unit(&mut r);
                    }
                    if pl {
                        p.packing_little = 0.5 + 2.5 * unit(&mut r);
                    }
                    act = Some(Actuation {
                        placement: Some(p),
                        ..Default::default()
                    })
                }
                8 if variant == 2 => {
                    let cap = Some(0.2 + 1.8 * unit(&mut r));
                    want.set_external_cap_f_big(cap);
                    boards
                        .iter_mut()
                        .for_each(|b| b.set_external_cap_f_big(cap));
                }
                8 => {
                    act = Some(Actuation {
                        f_big: Some(0.2 + 1.8 * unit(&mut r)),
                        f_little: Some(0.2 + 1.2 * unit(&mut r)),
                        ..Default::default()
                    })
                }
                9 => {
                    let cap = (seed % 2 == 1).then(|| 0.2 + 1.8 * unit(&mut r));
                    want.set_external_cap_f_big(cap);
                    boards
                        .iter_mut()
                        .for_each(|b| b.set_external_cap_f_big(cap));
                }
                // A phase flip: every slot takes new characteristics.
                10 => {
                    let (mi, ib, il) = (unit(&mut r), 0.3 + unit(&mut r), 0.3 + unit(&mut r));
                    for l in &mut loads {
                        l.mem_intensity = mi;
                        l.ipc_factor_big = ib;
                        l.ipc_factor_little = il;
                    }
                }
                11 => {
                    if let Some(l) = loads.get_mut(seed as usize % 13) {
                        l.active = !l.active;
                    }
                }
                // A narrower or wider slice (up to 12 slots).
                12 => loads.resize(seed as usize % 13, ThreadLoad::nominal()),
                // One field of every slot to +0.0, or a zero to its
                // opposite sign; or one slot's field to NaN.
                13 | 14 => {
                    for (s, l) in loads.iter_mut().enumerate() {
                        let field = match (seed >> 8) % 3 {
                            0 => &mut l.mem_intensity,
                            1 => &mut l.ipc_factor_big,
                            _ => &mut l.ipc_factor_little,
                        };
                        if kind == 13 {
                            *field = if *field == 0.0 { -*field } else { 0.0 };
                        } else if s == seed as usize % 13 {
                            *field = f64::NAN;
                        }
                    }
                }
                15 => {
                    let reads = |b: &mut Board| {
                        [
                            b.read_power(Cluster::Big),
                            b.read_power(Cluster::Little),
                            b.read_temp(),
                        ]
                        .map(f64::to_bits)
                    };
                    let w = reads(&mut want);
                    for b in &mut boards {
                        assert_eq!(reads(b), w, "move {i}: sensor reads");
                    }
                }
                // A checkpoint: a clone joins the run (at most three boards).
                _ => {
                    let twin = boards[seed as usize % boards.len()].clone();
                    if boards.len() < 3 {
                        boards.push(twin);
                    } else {
                        boards[(seed >> 8) as usize % 3] = twin;
                    }
                }
            }
            if let Some(act) = act {
                want.actuate(&act);
                boards.iter_mut().for_each(|b| b.actuate(&act));
            }
            if steps == 0 {
                // A few substeps after most moves, none after some.
                steps = (seed >> 60) as usize % 4;
            }
            for k in 0..steps {
                let w = report_bits(&reference::step(&mut want, &loads));
                for b in &mut boards {
                    assert_eq!(report_bits(&b.step(&loads)), w, "move {i} step {k}");
                }
            }
            let w = board_bits(&want);
            for b in &boards {
                assert_eq!(board_bits(b), w, "move {i} (kind {kind})");
            }
        }
        want
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The memoized step gives the reference step's bits through random
        /// interleavings of actuations (no-op, TMU-tripping maximum,
        /// hotplug, stalling migrations, DVFS, external cap on and off),
        /// load edits (phase flips, inactive slots, narrower and wider
        /// slices, ±0.0 and NaN fields), sensor reads and mid-run clones.
        #[test]
        fn memoized_step_matches_reference_bits(
            moves in proptest::prop::collection::vec((0..MOVES, 0u64..u64::MAX), 1..60),
            variant in 0u32..3,
        ) {
            drive_differential(&moves, variant);
        }
    }

    /// One scripted interleaving that surely reaches every move kind, and
    /// the TMU: each move once, in order, then again in reverse, then one
    /// knob at a time and ±0.0 flips of each load field.
    #[test]
    fn memoized_step_matches_reference_on_every_move() {
        let mut moves: Vec<(u32, u64)> = (0..MOVES)
            .chain((0..MOVES).rev())
            .map(|k| (k, 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(k) + 1)))
            .collect();
        let steps = 1u64 << 60;
        for seed in [0, 1, 2, 5, 6, 9] {
            moves.extend([(7, seed | steps), (8, seed | steps)]);
        }
        for field in 0..3u64 {
            moves.extend([(13, field << 8 | steps); 3]);
        }
        for variant in 0..3 {
            let want = drive_differential(&moves, variant);
            assert!(
                want.tmu_trips() > 0,
                "the maximum-frequency move must trip the TMU"
            );
        }
    }

    #[test]
    fn temperature_rises_under_load() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.6),
            ..Default::default()
        });
        run(&mut b, &eight_threads(), 30.0);
        assert!(b.state().t_hot > 40.0);
    }

    #[test]
    fn zero_severity_fault_plan_is_bit_transparent() {
        use crate::faults::FaultPlan;
        let drive = |mut b: Board| {
            b.actuate(&Actuation {
                f_big: Some(1.5),
                placement: Some(Placement {
                    threads_big: 6,
                    packing_big: 2.0,
                    packing_little: 1.0,
                }),
                ..Default::default()
            });
            let loads = eight_threads();
            let mut sig = Vec::new();
            for _ in 0..10 {
                run(&mut b, &loads, 0.5);
                sig.push(b.read_power(Cluster::Big).to_bits());
                sig.push(b.read_power(Cluster::Little).to_bits());
                sig.push(b.read_temp().to_bits());
            }
            sig.push(b.energy().to_bits());
            sig.push(b.total_instructions().to_bits());
            sig
        };
        let plain = drive(Board::new(BoardConfig::odroid_xu3()));
        let faulted = drive(Board::with_faults(
            BoardConfig::odroid_xu3(),
            FaultPlan::none(),
        ));
        assert_eq!(plain, faulted);
    }

    #[test]
    fn full_severity_faults_surface_in_stats() {
        use crate::faults::FaultPlan;
        let mut b = Board::with_faults(BoardConfig::odroid_xu3(), FaultPlan::uniform(9, 1.0));
        b.actuate(&Actuation {
            f_big: Some(1.4),
            ..Default::default()
        });
        let loads = eight_threads();
        for _ in 0..40 {
            run(&mut b, &loads, 0.5);
            b.read_power(Cluster::Big);
            b.read_power(Cluster::Little);
            b.read_temp();
            b.actuate(&Actuation {
                f_big: Some(1.4),
                f_little: Some(1.0),
                big_cores: Some(4),
                ..Default::default()
            });
        }
        let stats = b.fault_stats().unwrap();
        assert!(stats.sensor_faults > 0, "expected sensor faults: {stats:?}");
        assert!(!b.fault_trace().unwrap().is_empty());
    }

    #[test]
    fn power_ready_tracks_first_window() {
        // Before the first window completes a reading is the hard startup
        // zero; after it, both clusters report a measurement.
        let mut b = board();
        assert_eq!(b.read_power(Cluster::Big), 0.0);
        assert_eq!(b.read_power(Cluster::Little), 0.0);
        run(&mut b, &eight_threads(), 0.3);
        assert!(b.read_power(Cluster::Big) > 0.0);
        assert!(b.read_power(Cluster::Little) > 0.0);
    }

    #[test]
    fn instrumented_board_is_bit_identical_and_captures_events() {
        use crate::faults::FaultPlan;
        use std::sync::Arc;
        use yukta_obs::mem::MemRecorder;

        // Push the board hard enough to trip the TMU, change every knob,
        // and inject faults — with and without a recorder attached.
        let drive = |b: &mut Board| {
            let loads = eight_threads();
            b.actuate(&Actuation {
                f_big: Some(2.0),
                f_little: Some(1.2),
                big_cores: Some(3),
                little_cores: Some(3),
                placement: Some(Placement {
                    threads_big: 6,
                    packing_big: 2.0,
                    packing_little: 1.0,
                }),
            });
            let mut sig = Vec::new();
            for _ in 0..40 {
                run(b, &loads, 0.5);
                sig.push(b.read_power(Cluster::Big).to_bits());
                sig.push(b.read_temp().to_bits());
            }
            sig.push(b.energy().to_bits());
            sig.push(b.total_instructions().to_bits());
            sig.push(b.tmu_trips());
            sig
        };
        let plan = FaultPlan::uniform(13, 0.8);
        let mut plain = Board::with_faults(BoardConfig::odroid_xu3(), plan.clone());
        let rec = Arc::new(MemRecorder::new());
        let mut observed = Board::with_faults(BoardConfig::odroid_xu3(), plan);
        observed.set_obs(ObsHandle::new(rec.clone()));
        assert_eq!(
            drive(&mut plain),
            drive(&mut observed),
            "obs perturbed physics"
        );
        let snap = rec.snapshot();
        let names: std::collections::HashSet<&str> = snap.entries.iter().map(|e| e.name).collect();
        for expected in [
            "board.dvfs",
            "board.hotplug",
            "board.migrate",
            "board.fault",
        ] {
            assert!(names.contains(expected), "missing {expected}: {names:?}");
        }
        assert!(
            names.contains("board.tmu_engage"),
            "sustained max frequency must surface TMU telemetry: {names:?}"
        );
        let trips = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "board.tmu_trips")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(trips > 0, "trip counter missing: {:?}", snap.counters);
    }

    #[test]
    fn actuation_audit_counts_requests_and_flags_double_writers() {
        let mut b = board();
        let loads = eight_threads();
        // Well-formed cadence: one actuation per step window.
        for i in 0..5 {
            b.actuate(&Actuation {
                f_big: Some(1.0 + 0.1 * i as f64),
                ..Default::default()
            });
            b.step(&loads);
        }
        let a = b.actuation_audit();
        assert_eq!(a.actuation_requests, 5);
        assert_eq!(a.double_actuations, 0);
        // Two writers racing the same step window are flagged once.
        b.actuate(&Actuation {
            f_big: Some(1.2),
            ..Default::default()
        });
        b.actuate(&Actuation {
            f_big: Some(1.8),
            ..Default::default()
        });
        b.step(&loads);
        let a = b.actuation_audit();
        assert_eq!(a.actuation_requests, 7);
        assert_eq!(a.double_actuations, 1);
    }

    #[test]
    fn tmu_caps_never_expand_the_operating_point() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(2.0),
            placement: Some(Placement {
                threads_big: 8,
                packing_big: 2.0,
                packing_little: 1.0,
            }),
            ..Default::default()
        });
        run(&mut b, &eight_threads(), 20.0);
        assert!(b.tmu_trips() > 0, "campaign must engage the TMU");
        assert_eq!(b.actuation_audit().tmu_cap_expansions, 0);
    }

    #[test]
    fn external_cap_is_strictly_a_capper() {
        let mut b = board();
        b.actuate(&Actuation {
            f_big: Some(1.8),
            ..Default::default()
        });
        assert!((b.state().f_big - 1.8).abs() < 1e-9);
        b.set_external_cap_f_big(Some(0.6));
        assert!((b.state().f_big - 0.6).abs() < 1e-9);
        // The request is preserved: lifting the cap restores it, and the
        // audit never sees the cap as a writer or an expansion.
        run(&mut b, &eight_threads(), 1.0);
        b.set_external_cap_f_big(None);
        assert!((b.state().f_big - 1.8).abs() < 1e-9);
        assert_eq!(b.actuation_audit().tmu_cap_expansions, 0);
        // Non-finite caps are ignored; out-of-range caps are clamped.
        b.set_external_cap_f_big(Some(f64::NAN));
        assert!((b.state().f_big - 1.8).abs() < 1e-9);
        b.set_external_cap_f_big(Some(0.05));
        assert!((b.state().f_big - 0.2).abs() < 1e-12);
    }

    #[test]
    fn external_cap_throttles_throughput() {
        let mk = |cap: Option<f64>| {
            let mut b = board();
            b.set_external_cap_f_big(cap);
            b.actuate(&Actuation {
                f_big: Some(1.8),
                placement: Some(Placement {
                    threads_big: 8,
                    packing_big: 2.0,
                    packing_little: 1.0,
                }),
                ..Default::default()
            });
            run(&mut b, &eight_threads(), 5.0);
            b.total_instructions()
        };
        let free = mk(None);
        let capped = mk(Some(0.4));
        assert!(
            capped < 0.5 * free,
            "cap must bite: free {free}, capped {capped}"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let mk = || {
            let mut b = board();
            b.actuate(&Actuation {
                f_big: Some(1.5),
                ..Default::default()
            });
            run(&mut b, &eight_threads(), 5.0);
            (b.total_instructions(), b.energy())
        };
        let (i1, e1) = mk();
        let (i2, e2) = mk();
        assert_eq!(i1, i2);
        assert_eq!(e1, e2);
    }
}
