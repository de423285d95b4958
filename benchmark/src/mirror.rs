//! A replica of the runtime's invocation loop (`step_invocation` and
//! `finish` in `yukta_core::runtime`), built from the layers' public
//! primitives so the traced run can time each layer from outside. Every
//! mirrored cell is checked bit for bit against the matching `Experiment`
//! entry point, so the per-layer numbers describe the program that the
//! end-to-end numbers measure.

use std::rc::Rc;
use std::sync::Arc;

use yukta_board::{Actuation, Board, BoardConfig, Cluster, Placement, RequestQueue};
use yukta_core::controllers::{ControllerState, HwPolicy, HwSense, OsPolicy, OsSense};
use yukta_core::design::Design;
use yukta_core::health::{HealthTap, emit_verdict};
use yukta_core::metrics::{ComputeStats, Metrics, Report, SloReport, Trace, TraceSample};
use yukta_core::modes::{Knob, ModeAutomaton, ModeConfig, ModeSnapshot, level_label};
use yukta_core::recorder::{Journal, JournalRecord};
use yukta_core::runtime::{RecoveryOptions, RunOptions, ServingSpec};
use yukta_core::schemes::{Controllers, Scheme};
use yukta_core::signals::{HwInputs, HwOutputs, OsInputs, OsOutputs, SloSense, spare_capacity};
use yukta_core::supervisor::{Supervisor, SupervisorConfig, SupervisorMode, SupervisorState};
use yukta_linalg::{Error, Result};
use yukta_obs::health::HealthConfig;
use yukta_obs::mem::MemRecorder;
use yukta_obs::{ObsHandle, Recorder, Value};
use yukta_workloads::{Traffic, Workload, WorkloadRun};

use crate::tracer::{Span, Tracer};

/// The optional stages of a mirrored cell, mirroring the entry points:
/// `run` (none), `run_unified` with serving, `run_monitored` (supervised,
/// tap, recorder) and `run_recoverable`'s journal and checkpoints.
#[derive(Default)]
pub struct Stages {
    /// Wrap the controllers in the supervisor.
    pub supervised: bool,
    /// Attach the request-serving layer.
    pub serving: Option<ServingSpec>,
    /// Stream every invocation record through the health tap.
    pub tap: bool,
    /// Record the runtime's telemetry into this sink.
    pub recorder: Option<Arc<MemRecorder>>,
    /// Journal every invocation and checkpoint the run state.
    pub journal: bool,
}

/// A controller policy that times each `invoke` under a span.
struct Timed<P: ?Sized> {
    tracer: Rc<Tracer>,
    span: Span,
    inner: Box<P>,
}

impl HwPolicy for Timed<dyn HwPolicy> {
    fn invoke(&mut self, sense: &HwSense) -> Result<HwInputs> {
        let _g = self.tracer.span(self.span);
        self.inner.invoke(sense)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn save_state(&self) -> ControllerState {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        self.inner.restore_state(state)
    }
}

impl OsPolicy for Timed<dyn OsPolicy> {
    fn invoke(&mut self, sense: &OsSense) -> Result<OsInputs> {
        let _g = self.tracer.span(self.span);
        self.inner.invoke(sense)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn save_state(&self) -> ControllerState {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: &ControllerState) -> Result<()> {
        self.inner.restore_state(state)
    }
}

/// The invocation engine: the controllers under the raw mode automaton,
/// or the supervisor wrapping them.
enum Engine {
    Raw {
        hw: Timed<dyn HwPolicy>,
        os: Timed<dyn OsPolicy>,
        auto: Box<ModeAutomaton>,
    },
    Supervised(Box<Supervisor>),
}

/// A checkpoint's engine snapshot. The mirror takes checkpoints for
/// their cost and never restores them, so nothing reads the fields.
#[allow(dead_code)]
enum EngineState {
    Raw(ControllerState, ControllerState, ModeSnapshot),
    Supervised(Box<SupervisorState>),
}

impl Engine {
    fn invoke(
        &mut self,
        t: &Tracer,
        hw_s: &HwSense,
        os_s: &OsSense,
    ) -> Result<(HwInputs, OsInputs)> {
        match self {
            Engine::Raw { hw, os, auto } => {
                let _g = t.span(Span::Engine);
                auto.begin_invocation();
                let out = hw.invoke(hw_s).and_then(|h| Ok((h, os.invoke(os_s)?)));
                match out {
                    Ok(u) => {
                        for k in Knob::ALL {
                            auto.claim(k, "raw");
                        }
                        auto.end_invocation();
                        Ok(u)
                    }
                    Err(e) => {
                        auto.abort_invocation();
                        Err(e)
                    }
                }
            }
            Engine::Supervised(s) => {
                let _g = t.span(Span::Supervisor);
                Ok(s.step(hw_s, os_s))
            }
        }
    }

    fn mode(&self) -> Option<SupervisorMode> {
        match self {
            Engine::Raw { .. } => None,
            Engine::Supervised(s) => Some(s.mode()),
        }
    }

    fn shed_frac(&self) -> f64 {
        match self {
            Engine::Raw { .. } => 0.0,
            Engine::Supervised(s) => s.shed_frac(),
        }
    }

    fn drain_transitions(&mut self) -> Vec<yukta_core::modes::TransitionRecord> {
        match self {
            Engine::Raw { auto, .. } => auto.drain_transitions(),
            Engine::Supervised(s) => s.drain_transitions(),
        }
    }

    fn save_state(&self) -> EngineState {
        match self {
            Engine::Raw { hw, os, auto } => {
                EngineState::Raw(hw.save_state(), os.save_state(), auto.snapshot())
            }
            Engine::Supervised(s) => EngineState::Supervised(Box::new(s.save_state())),
        }
    }
}

/// Live request-serving state.
#[derive(Clone)]
struct Serving {
    traffic: Traffic,
    queue: RequestQueue,
    shed_frac: f64,
    max_shed_frac: f64,
    invocations: u64,
    violations: u64,
}

/// A checkpoint: deep copies of the resumable run state.
type Checkpoint = (Board, WorkloadRun, Trace, Option<Serving>, EngineState);

fn checkpoint(
    board: &Board,
    run: &WorkloadRun,
    trace: &Trace,
    serving: &Option<Serving>,
    engine: &Engine,
) -> Checkpoint {
    (
        board.clone(),
        run.clone(),
        trace.clone(),
        serving.clone(),
        engine.save_state(),
    )
}

fn mode_label(mode: Option<SupervisorMode>) -> &'static str {
    mode.map_or("raw", level_label)
}

/// Runs one cell through the mirrored loop, timing every layer call on
/// `t`. Returns the cell's report, which must be bit-identical to the
/// report of the matching entry point.
pub fn run_cell(
    t: &Rc<Tracer>,
    design: &Design,
    opts: &RunOptions,
    scheme: Scheme,
    wl: &Workload,
    stages: &Stages,
) -> Result<Report> {
    let _run = t.span(Span::Run);
    let (hw, os) = match scheme.instantiate(design, opts.limits)? {
        Controllers::Split { hw, os } => (hw, os),
        Controllers::Monolithic(_) => {
            return Err(Error::NoSolution {
                op: "mirror",
                why: "the mirror covers split-controller schemes only",
            });
        }
    };
    // Invoke samples are kept apart for the full SSV pair: a heuristic
    // invoke costs ~0.1 µs and would swamp the SSV distribution.
    let (hw_span, os_span) = if scheme == Scheme::YuktaHwSsvOsSsv {
        (Span::SsvHwInvoke, Span::SsvOsInvoke)
    } else {
        (Span::HwInvoke, Span::OsInvoke)
    };
    let hw = Timed {
        tracer: Rc::clone(t),
        span: hw_span,
        inner: hw,
    };
    let os = Timed {
        tracer: Rc::clone(t),
        span: os_span,
        inner: os,
    };
    let mut engine = if stages.supervised {
        let c = Controllers::Split {
            hw: Box::new(hw),
            os: Box::new(os),
        };
        Engine::Supervised(Box::new(Supervisor::new(c, SupervisorConfig::default())))
    } else {
        Engine::Raw {
            hw,
            os,
            auto: Box::new(ModeAutomaton::new(ModeConfig::default())),
        }
    };
    let rec: &dyn Recorder = match &stages.recorder {
        Some(r) => r.as_ref(),
        None => yukta_obs::handle(),
    };
    let mut tap = if stages.tap {
        Some(
            HealthTap::new(design, HealthConfig::default()).map_err(|_| Error::NoSolution {
                op: "health_config",
                why: "invalid health configuration",
            })?,
        )
    } else {
        None
    };

    let mut cfg = BoardConfig::odroid_xu3();
    if let Some(seed) = opts.board_seed {
        cfg.seed = seed;
    }
    let steps_per_invocation = (0.5 / cfg.dt).round() as usize;
    let mut board = Board::new(cfg);
    board.set_obs(match &stages.recorder {
        Some(r) => ObsHandle::new(r.clone()),
        None => ObsHandle::default(),
    });
    let mut serving = stages.serving.as_ref().map(|spec| {
        board.set_external_cap_f_big(spec.ext_cap_f_big);
        Serving {
            traffic: Traffic::new(spec.traffic),
            queue: RequestQueue::new(spec.queue),
            shed_frac: 0.0,
            max_shed_frac: 0.0,
            invocations: 0,
            violations: 0,
        }
    });
    let mut run = WorkloadRun::new(wl);
    let mut trace = Trace::new();
    let (mut last_instr_big, mut last_instr_little) = (0.0, 0.0);
    let (mut completed, mut done) = (false, false);
    let mut step = 0u64;
    let mut compute = ComputeStats::default();
    let mut last_mode: Option<SupervisorMode> = None;
    let mut journal = Journal::new();
    let interval = RecoveryOptions::default().checkpoint_interval;
    let mut last_checkpoint: Option<(u64, Checkpoint)> = None;
    if stages.journal {
        let _g = t.span(Span::Checkpoint);
        last_checkpoint = Some((0, checkpoint(&board, &run, &trace, &serving, &engine)));
    }

    while !done {
        t.set_step(step);
        if let Some((taken_at, state)) = &mut last_checkpoint {
            if step > *taken_at && step.is_multiple_of(interval) {
                let _g = t.span(Span::Checkpoint);
                let span = yukta_obs::span(rec, "runtime.checkpoint");
                *state = checkpoint(&board, &run, &trace, &serving, &engine);
                *taken_at = step;
                if rec.enabled() {
                    span.end_with(&[
                        ("step", Value::U64(step)),
                        ("journal_len", Value::U64(journal.len() as u64)),
                    ]);
                }
            }
        }
        let _inv = t.span(Span::Invocation);
        // One controller period of plant evolution.
        for _ in 0..steps_per_invocation {
            let t0 = t.now();
            let loads = run.loads();
            let t1 = t.now();
            let rep = board.step(&loads);
            let t2 = t.now();
            run.advance(&rep.thread_progress);
            let finished = run.is_done();
            let t3 = t.now();
            t.leaf(Span::App, (t1 - t0) + (t3 - t2));
            t.leaf(Span::BoardStep, t2 - t1);
            if finished {
                completed = true;
                done = true;
                break;
            }
            if board.time() >= opts.timeout_s {
                done = true;
                break;
            }
        }
        if done {
            break;
        }
        // Both layers' sensor views.
        let s0 = t.now();
        let bs = board.state();
        let now = board.time();
        let ib = board.instructions(Cluster::Big);
        let il = board.instructions(Cluster::Little);
        let s1 = t.now();
        let bips_big = (ib - last_instr_big) / 0.5;
        let bips_little = (il - last_instr_little) / 0.5;
        last_instr_big = ib;
        last_instr_little = il;
        let n_active = run.active_threads();
        let tb_actual = bs.placement.threads_big.min(n_active);
        let slo = match &mut serving {
            Some(sv) => {
                let q0 = t.now();
                sv.queue
                    .advance(now - 0.5, now, (bips_big + bips_little) * 0.5);
                let q1 = t.now();
                let arrivals = sv.traffic.tick(0.5);
                let q2 = t.now();
                for r in arrivals {
                    sv.queue.offer(r.arrival_s, r.demand_gi, sv.shed_frac);
                }
                let snap = sv.queue.latency_snapshot();
                let q3 = t.now();
                t.leaf(Span::Queue, (q1 - q0) + (q3 - q2));
                t.leaf(Span::Traffic, q2 - q1);
                let seen = snap.completed + snap.dropped;
                let drop_frac = if seen > 0 {
                    snap.dropped as f64 / seen as f64
                } else {
                    0.0
                };
                sv.invocations += 1;
                if snap.p99_s > opts.limits.latency_slo_s {
                    sv.violations += 1;
                }
                SloSense {
                    active: true,
                    p95_s: snap.p95_s,
                    p99_s: snap.p99_s,
                    backlog_frac: snap.backlog_frac,
                    drop_frac,
                }
            }
            None => SloSense::default(),
        };
        let s2 = t.now();
        let hw_outputs = HwOutputs {
            perf: bips_big + bips_little,
            p_big: board.read_power(Cluster::Big),
            p_little: board.read_power(Cluster::Little),
            temp: board.read_temp(),
        };
        let s3 = t.now();
        t.leaf(Span::Sense, (s1 - s0) + (s3 - s2));
        let os_outputs = OsOutputs {
            perf_little: bips_little,
            perf_big: bips_big,
            spare_diff: spare_capacity(bs.big_cores, tb_actual)
                - spare_capacity(bs.little_cores, n_active - tb_actual),
        };
        let current_hw = HwInputs {
            big_cores: bs.big_cores as f64,
            little_cores: bs.little_cores as f64,
            f_big: bs.f_big,
            f_little: bs.f_little,
        };
        let current_os = OsInputs {
            threads_big: tb_actual as f64,
            packing_big: bs.placement.packing_big,
            packing_little: bs.placement.packing_little,
        };
        let hw_sense = HwSense {
            outputs: hw_outputs,
            ext: current_os,
            current: current_hw,
            active_threads: n_active,
            slo,
            limits: opts.limits,
        };
        let os_sense = OsSense {
            outputs: os_outputs,
            ext: current_hw,
            current: current_os,
            active_threads: n_active,
            system: hw_outputs,
            slo,
            limits: opts.limits,
        };
        let rt_span = yukta_obs::span(rec, "runtime.invoke");
        let i0 = t.now();
        let result = engine.invoke(t, &hw_sense, &os_sense);
        let invoke_ns = t.now() - i0;
        let transitions = engine.drain_transitions();
        let (hw_u, os_u) = result?;
        let mode = engine.mode();
        if rec.enabled() {
            let _g = t.span(Span::Emit);
            rt_span.end_with(&[
                ("step", Value::U64(step)),
                ("t_sim", Value::F64(now)),
                ("mode", Value::Str(mode_label(mode))),
            ]);
            rec.hist_record("runtime.invoke_ns", invoke_ns as f64);
            if mode != last_mode {
                rec.event(
                    "supervisor.transition",
                    &[
                        ("from", Value::Str(mode_label(last_mode))),
                        ("to", Value::Str(mode_label(mode))),
                        ("step", Value::U64(step)),
                        ("t_sim", Value::F64(now)),
                    ],
                );
            }
            for tr in &transitions {
                rec.event(
                    "mode.transition",
                    &[
                        ("from", Value::Str(level_label(tr.from))),
                        ("to", Value::Str(level_label(tr.to))),
                        ("cause", Value::Str(tr.cause)),
                        ("step", Value::U64(step)),
                        ("t_sim", Value::F64(now)),
                    ],
                );
            }
        } else {
            drop(rt_span);
        }
        last_mode = mode;
        if let Some(sv) = &mut serving {
            sv.shed_frac = engine.shed_frac();
            sv.max_shed_frac = sv.max_shed_frac.max(sv.shed_frac);
        }
        compute.invocations += 1;
        compute.total_ns += invoke_ns;
        compute.max_ns = compute.max_ns.max(invoke_ns);
        let a0 = t.now();
        board.actuate(&Actuation {
            f_big: Some(hw_u.f_big),
            f_little: Some(hw_u.f_little),
            big_cores: Some(hw_u.big_cores.round() as usize),
            little_cores: Some(hw_u.little_cores.round() as usize),
            placement: Some(Placement {
                threads_big: os_u.threads_big.round() as usize,
                packing_big: os_u.packing_big,
                packing_little: os_u.packing_little,
            }),
        });
        t.leaf(Span::Actuate, t.now() - a0);
        if opts.keep_trace {
            trace.push(TraceSample {
                time: now,
                p_big: hw_outputs.p_big,
                p_little: hw_outputs.p_little,
                temp: bs.t_hot,
                bips: hw_outputs.perf,
                bips_big,
                bips_little,
                f_big: bs.f_big,
                f_little: bs.f_little,
                big_cores: bs.big_cores,
                little_cores: bs.little_cores,
                threads_big: tb_actual,
                active_threads: n_active,
            });
        }
        let record = JournalRecord {
            step,
            time: now,
            hw_sense,
            os_sense,
            hw_u,
            os_u,
            mode,
            // The mirror runs fault-free boards, whose fault trace is empty.
            fault_events: Vec::new(),
        };
        step += 1;
        if let Some(tap) = &mut tap {
            let verdict = {
                let _g = t.span(Span::Health);
                tap.observe(&record)
            };
            if rec.enabled() {
                let _g = t.span(Span::Emit);
                emit_verdict(rec, record.step, verdict);
            }
        }
        if stages.journal {
            journal.push(record);
            if rec.enabled() {
                rec.counter_add("runtime.journal_records", 1);
            }
        }
    }
    if let Some(tap) = &tap {
        if rec.enabled() {
            let _g = t.span(Span::Emit);
            tap.publish(rec);
        }
    }

    let supervisor = match &engine {
        Engine::Supervised(s) => Some(s.stats()),
        Engine::Raw { .. } => None,
    };
    let slo = serving.as_ref().map(|sv| {
        let qs = sv.queue.stats();
        SloReport {
            offered: qs.offered,
            admitted: qs.admitted,
            shed: qs.shed,
            rejected: qs.rejected,
            timed_out: qs.timed_out,
            completed: qs.completed,
            p95_s: sv.queue.lifetime_quantile(0.95).unwrap_or(0.0),
            p99_s: sv.queue.lifetime_quantile(0.99).unwrap_or(0.0),
            violation_frac: if sv.invocations == 0 {
                0.0
            } else {
                sv.violations as f64 / sv.invocations as f64
            },
            max_shed_frac: sv.max_shed_frac,
        }
    });
    Ok(Report {
        workload: wl.name.clone(),
        scheme: scheme.label().to_string(),
        metrics: Metrics {
            energy_joules: board.energy(),
            delay_seconds: board.time(),
            completed,
        },
        trace,
        supervisor,
        faults: None,
        slo,
        actuation: board.actuation_audit(),
        compute,
    })
}
