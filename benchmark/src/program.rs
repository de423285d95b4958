//! Every call the benchmark makes into the program's entry points: the
//! design pipeline, the `Experiment` run paths, and the in-loop
//! resynthesis step. They sit in this one file so that a change to the
//! run-loop API touches one place. The layer primitives the traced mirror
//! loop calls sit in `mirror.rs`.

use std::sync::Arc;

use yukta_board::FaultPlan;
use yukta_control::dk::{DkOptions, SsvSynthesis, synthesize_ssv_obs};
use yukta_control::plant::SsvSpec;
use yukta_control::ss::StateSpace;
use yukta_control::sysid::{SysIdConfig, calibrate_dc_gains, fit_arx};
use yukta_core::design::{
    Design, DesignOptions, ExcitationData, build_design, collect_excitation, measure_dc_gains,
};
use yukta_core::metrics::Report;
use yukta_core::runtime::{
    Experiment, RecoveredRun, RecoveryOptions, RunOptions, ServingSpec, UnifiedOptions,
};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_linalg::{Mat, Result};
use yukta_obs::Recorder;
use yukta_obs::health::HealthConfig;
use yukta_obs::mem::MemRecorder;
use yukta_workloads::{TrafficConfig, TrafficPattern, Workload, catalog};

/// The controller period (ms): the budget an in-loop resynthesis must fit.
pub const PERIOD_MS: f64 = 500.0;

/// Mean request demand (GI) of the serving workload, as in `bench_slo`:
/// 40 rps × 0.15 GI offers 6 GIPS at load 1.0, which bodytrack's tracking
/// phases cannot serve flat out, so the load ladder crosses saturation.
const SERVICE_MEAN_GI: f64 = 0.15;

/// Load factors of the serving ladder, in tenths: 0.2 to 1.6 by 0.1.
pub const SERVING_LOADS_TENTHS: std::ops::RangeInclusive<u32> = 2..=16;

/// The two schemes the serving ladder compares.
pub const SERVING_SCHEMES: [Scheme; 2] = [Scheme::CoordinatedHeuristic, Scheme::YuktaHwSsvOsSsv];

/// The inputs one benchmark run derives from its seed. The design is
/// always the paper's (excitation seed `0x5EED_CAFE`): it is the program
/// under test, and another seed would change the synthesis problem and
/// its cost, not just the inputs. Without a seed the board and the
/// traffic use their default seeds.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Design pipeline options (the excitation seed among them).
    pub design: DesignOptions,
    /// Run options shared by every cell.
    pub run: RunOptions,
    /// Seed of the serving workload's arrival process.
    pub traffic_seed: u64,
}

impl Inputs {
    /// The inputs for `seed`: it sets the board seed (sensor noise) and
    /// the traffic seed (arrivals and request sizes) at once.
    pub fn new(seed: Option<u64>) -> Self {
        Inputs {
            design: DesignOptions::default(),
            run: RunOptions {
                timeout_s: 1200.0,
                keep_trace: true,
                board_seed: seed,
                ..Default::default()
            },
            traffic_seed: seed.unwrap_or(TrafficConfig::default().seed),
        }
    }
}

/// Builds the deployed design (excite → identify → synthesize).
pub fn build(inputs: &Inputs) -> Result<Design> {
    build_design(&inputs.design)
}

/// One experiment of `scheme` against `design`.
pub fn experiment(design: &Design, scheme: Scheme, inputs: &Inputs) -> Experiment {
    Experiment::with_design(scheme, design.clone()).with_options(inputs.run)
}

/// The paper's Fig 9 grid: every evaluation workload under every Fig 9
/// scheme, workload-major.
pub fn fig09_cells() -> Vec<(Scheme, Workload)> {
    catalog::evaluation_set()
        .into_iter()
        .flat_map(|wl| Scheme::figure9().map(|s| (s, wl.clone())))
        .collect()
}

/// The serving workload's application: bodytrack alternates 8-thread
/// tracking and 2-thread reduction phases, so both layers stay busy.
pub fn serving_app() -> Workload {
    catalog::parsec::bodytrack()
}

/// Bursty open-loop traffic at `load` × 40 rps.
pub fn serving_spec(inputs: &Inputs, load: f64) -> ServingSpec {
    ServingSpec {
        traffic: TrafficConfig {
            pattern: TrafficPattern::bursty(),
            load_factor: load,
            seed: inputs.traffic_seed,
            service_mean_gi: SERVICE_MEAN_GI,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The serving ladder: each scheme at every load, scheme-major.
pub fn serving_cells(inputs: &Inputs) -> Vec<(Scheme, f64, ServingSpec)> {
    SERVING_SCHEMES
        .iter()
        .flat_map(|&s| {
            SERVING_LOADS_TENTHS.map(move |k| {
                let load = f64::from(k) / 10.0;
                (s, load, serving_spec(inputs, load))
            })
        })
        .collect()
}

/// A batch run: no supervisor, the process-global (no-op) recorder.
pub fn run_batch(exp: &Experiment, wl: &Workload) -> Result<Report> {
    exp.run(wl)
}

/// A supervised request-serving run.
pub fn run_serving(exp: &Experiment, wl: &Workload, spec: &ServingSpec) -> Result<Report> {
    exp.run_unified(
        wl,
        UnifiedOptions {
            sup_cfg: Some(SupervisorConfig::default()),
            serving: Some(spec.clone()),
            ..Default::default()
        },
    )
    .map(|run| run.report)
}

/// [`experiment`] recording its runtime telemetry into `rec`.
pub fn recorded_experiment(
    design: &Design,
    scheme: Scheme,
    inputs: &Inputs,
    rec: Arc<MemRecorder>,
) -> Experiment {
    experiment(design, scheme, inputs).with_recorder(rec)
}

/// A supervised run with the health monitor attached.
pub fn run_monitored(exp: &Experiment, wl: &Workload) -> Result<Report> {
    exp.run_monitored(
        wl,
        SupervisorConfig::default(),
        None,
        HealthConfig::default(),
    )
    .map(|(report, _)| report)
}

/// A supervised run whose controller process crashes at invocation
/// `crash_at` and recovers from a checkpoint taken every 20 invocations.
pub fn run_recoverable(exp: &Experiment, wl: &Workload, crash_at: u64) -> Result<RecoveredRun> {
    exp.run_recoverable(
        wl,
        Some(SupervisorConfig::default()),
        Some(FaultPlan::none().with_crash(crash_at)),
        RecoveryOptions::default(),
    )
}

/// The uninterrupted supervised run of the same plan, which the
/// recovered run must reproduce bit for bit.
pub fn run_supervised_plan(exp: &Experiment, wl: &Workload, crash_at: u64) -> Result<Report> {
    exp.run_supervised(
        wl,
        SupervisorConfig::default(),
        Some(FaultPlan::none().with_crash(crash_at)),
    )
}

/// A controller layer of the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The hardware layer (Table II).
    Hw,
    /// The software layer (Table III).
    Os,
}

impl Side {
    /// `hw` or `os`, as used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Side::Hw => "hw",
            Side::Os => "os",
        }
    }
}

/// The identification record a resynthesis starts from: the design's
/// excitation data and its step-test DC gains.
pub struct Excitation {
    data: ExcitationData,
    dc: Mat,
}

/// Collects the design's excitation record (`collect_excitation`).
pub fn excite(inputs: &Inputs) -> ExcitationData {
    collect_excitation(&inputs.design)
}

/// Measures the design's local DC gains (`measure_dc_gains`).
pub fn dc_gains(inputs: &Inputs) -> Mat {
    measure_dc_gains(&inputs.design)
}

impl Excitation {
    /// Pairs an excitation record with its DC gains.
    pub fn new(data: ExcitationData, dc: Mat) -> Self {
        Excitation { data, dc }
    }
}

fn concat(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    a.iter()
        .zip(b)
        .map(|(x, y)| [x.as_slice(), y.as_slice()].concat())
        .collect()
}

fn pick(dc: &Mat, rows: &[usize], cols: &[usize]) -> Mat {
    let mut m = Mat::zeros(rows.len(), cols.len());
    for (i, &r) in rows.iter().enumerate() {
        for (j, &c) in cols.iter().enumerate() {
            m[(i, j)] = dc[(r, c)];
        }
    }
    m
}

/// Re-identifies one layer's model exactly as the design pipeline does:
/// ARX fit on the input-shifted record, stabilization, resampling to the
/// controller period, then DC-gain calibration.
pub fn reidentify(x: &Excitation, side: Side) -> Result<StateSpace> {
    let d = &x.data;
    let (u, y, rows, cols): (_, _, &[usize], &[usize]) = match side {
        Side::Hw => (
            concat(&d.u_hw, &d.u_os),
            &d.y_hw,
            &[0, 1, 2, 3],
            &[0, 1, 2, 3, 4, 5, 6],
        ),
        Side::Os => (
            concat(&d.u_os, &d.u_hw),
            &d.y_os,
            &[4, 5, 6],
            &[4, 5, 6, 0, 1, 2, 3],
        ),
    };
    // The pipeline's ARX alignment: y[k] answers the input u[k] applied
    // over the same period, which the regression's u(t−1) slot must hold.
    let n = u.len();
    let (u_fit, y_fit) = (&u[1..], &y[..n - 1]);
    let cfg = SysIdConfig {
        na: 2,
        nb: 2,
        nc: 0,
        plr_iters: 0,
        ridge: 1e-4,
    };
    let id = fit_arx(u_fit, y_fit, cfg)?
        .stabilized(0.97)?
        .with_sample_period(0.5)?;
    calibrate_dc_gains(&id.sys, &pick(&x.dc, rows, cols))
}

/// Synthesizes one layer's SSV controller at the production D–K options,
/// with the spec the design pipeline builds from `design.options` and the
/// uncertainty radius it actually used. Phase spans go to `rec`.
pub fn resynthesize(
    design: &Design,
    model: &StateSpace,
    side: Side,
    rec: &dyn Recorder,
) -> Result<SsvSynthesis> {
    let o = &design.options;
    let (output_bounds, input_weights, n_ext, uncertainty) = match side {
        Side::Hw => (
            o.hw_bounds.to_vec(),
            o.hw_weights.to_vec(),
            3,
            design.hw_uncertainty_used,
        ),
        Side::Os => (
            o.os_bounds.to_vec(),
            o.os_weights.to_vec(),
            4,
            design.os_uncertainty_used,
        ),
    };
    let spec = SsvSpec {
        ts: 0.5,
        output_bounds,
        input_weights,
        n_ext,
        uncertainty,
        noise_eps: 0.05,
        prefilter_tau: None,
        unc_tau: None,
        sensor_tau: None,
        perf_dc_boost: o.perf_dc_boost,
        perf_corner: o.perf_corner,
        effort_scale: o.effort_scale,
    };
    let dk = DkOptions {
        max_iters: 2,
        gamma_iters: 14,
        n_freq: 25,
        ..DkOptions::default()
    };
    synthesize_ssv_obs(model, &spec, dk, rec)
}

/// Whether a resynthesis reproduced the deployed design bit for bit:
/// the identified model and the synthesized controller and µ̂.
pub fn matches_design(design: &Design, side: Side, model: &StateSpace, syn: &SsvSynthesis) -> bool {
    let (deployed_model, deployed) = match side {
        Side::Hw => (&design.hw_model_full, &design.hw_ssv),
        Side::Os => (&design.os_model_full, &design.os_ssv),
    };
    let mut a = Digest::new();
    a.state_space(model);
    a.synthesis(syn);
    let mut b = Digest::new();
    b.state_space(deployed_model);
    b.synthesis(deployed);
    a.value() == b.value()
}

/// FNV-1a over the bits of the program's outputs: equal digests mean
/// bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in the bits of a float.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn mat(&mut self, m: &Mat) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &v in m.as_slice() {
            self.f64(v);
        }
    }

    /// Folds in a state-space model.
    pub fn state_space(&mut self, s: &StateSpace) {
        for m in [s.a(), s.b(), s.c(), s.d()] {
            self.mat(m);
        }
        self.f64(s.ts().unwrap_or(f64::NAN));
    }

    /// Folds in a synthesized controller, its γ, µ̂ and D-scalings.
    pub fn synthesis(&mut self, s: &SsvSynthesis) {
        self.state_space(&s.controller);
        self.f64(s.gamma);
        self.f64(s.mu_peak);
        for &d in &s.scalings {
            self.f64(d);
        }
        self.u64(s.iterations as u64);
    }

    /// Folds in the deployed controllers and models of a design.
    pub fn design(&mut self, d: &Design) {
        self.synthesis(&d.hw_ssv);
        self.synthesis(&d.os_ssv);
        for m in [
            &d.hw_model_full,
            &d.os_model_full,
            &d.hw_model_solo,
            &d.os_model_solo,
            &d.mono_model,
        ] {
            self.state_space(m);
        }
    }

    /// Folds in every field [`Report::bit_identical`] compares.
    pub fn report(&mut self, r: &Report) {
        for b in r.workload.bytes().chain(r.scheme.bytes()) {
            self.u64(u64::from(b));
        }
        self.f64(r.metrics.energy_joules);
        self.f64(r.metrics.delay_seconds);
        self.u64(u64::from(r.metrics.completed));
        for s in &r.trace.samples {
            for v in [
                s.time,
                s.p_big,
                s.p_little,
                s.temp,
                s.bips,
                s.bips_big,
                s.bips_little,
                s.f_big,
                s.f_little,
            ] {
                self.f64(v);
            }
            for v in [s.big_cores, s.little_cores, s.threads_big, s.active_threads] {
                self.u64(v as u64);
            }
        }
        if let Some(slo) = &r.slo {
            for v in [
                slo.offered,
                slo.admitted,
                slo.shed,
                slo.rejected,
                slo.timed_out,
                slo.completed,
            ] {
                self.u64(v);
            }
            for v in [slo.p95_s, slo.p99_s, slo.violation_frac, slo.max_shed_frac] {
                self.f64(v);
            }
        }
        if let Some(s) = &r.supervisor {
            for v in [
                s.nonfinite_repairs,
                s.range_clamps,
                s.stuck_detections,
                s.controller_errors,
                s.actuation_clamps,
                s.windup_resets,
                s.fallback_entries,
                s.fallback_exits,
                s.safe_entries,
                s.invocations,
                s.degraded_invocations,
                s.invariant_violations,
                s.shed_engagements,
            ] {
                self.u64(v);
            }
        }
        let a = r.actuation;
        for v in [
            a.actuation_requests,
            a.double_actuations,
            a.tmu_cap_expansions,
        ] {
            self.u64(v);
        }
    }
}
