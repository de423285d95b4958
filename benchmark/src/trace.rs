//! The traced run (`--trace 1`), which reports the per-layer metrics.
//!
//! After the untraced operations (which give the base of
//! `trace.overhead_frac` and the reference reports), one traced section
//! runs, in three parts, so that every layer metric is measured on every
//! workload:
//!
//! 1. Set-up: excitation, DC gains, and both layers' re-identification
//!    and D–K synthesis, with the D–K phases read from the synthesis's
//!    own `dk.*` / `mu.sweep` spans.
//! 2. The workload's own operations, [`TRACED_OPS`] of them, through the
//!    mirror loop (resynthesis repeats part 1's synthesis path).
//! 3. The probe: one Yukta SSV+SSV bodytrack cell with every loop stage
//!    on (supervisor, bursty serving at load [`PROBE_LOAD`], health tap,
//!    telemetry recorder, journal and checkpoints), so the layers a
//!    workload skips are still timed, on fixed work.
//!
//! Every mirrored cell must reproduce its entry point's report bit for
//! bit, and the spans must cover at least [`MIN_COVERAGE`] of the traced
//! section, or the run fails.

use std::fs;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use yukta_control::dk::SsvSynthesis;
use yukta_core::metrics::Report;
use yukta_core::schemes::Scheme;
use yukta_obs::export::{
    RunMeta, to_chrome_trace, to_jsonl_with_meta, validate_chrome, validate_jsonl_meta,
};
use yukta_obs::mem::MemRecorder;
use yukta_workloads::Workload;

use crate::mirror::{self, Stages};
use crate::program::{self, Excitation, Side};
use crate::runs::{Kind, Measured, Outcome, Setup};
use crate::stats::{median, percentile};
use crate::tracer::{Layer, Span, Tracer};

/// Traced repetitions of the workload's operation.
const TRACED_OPS: usize = 2;

/// Load factor of the probe cell: past saturation, so shedding engages.
const PROBE_LOAD: f64 = 1.2;

/// Alternated repetitions of the production-path overhead measurements
/// (even, so each side runs first equally often).
const SIDE_REPS: usize = 10;

/// Share of the traced section the layer spans must cover.
const MIN_COVERAGE: f64 = 0.9;

/// Samples of the synthesis's own phase spans (ms), and its shape.
#[derive(Default)]
struct DkPhases {
    k_step: Vec<f64>,
    gamma_bisect: Vec<f64>,
    d_step: Vec<f64>,
    mu_sweep: Vec<f64>,
    iterations: Vec<f64>,
    order: [f64; 2],
}

impl DkPhases {
    fn absorb(&mut self, rec: &MemRecorder, side: Side, syn: &SsvSynthesis) {
        for e in rec.snapshot().entries {
            let Some(ns) = e.dur_ns else { continue };
            let ms = ns as f64 / 1e6;
            match e.name {
                "dk.k_step" => self.k_step.push(ms),
                "dk.gamma_bisect" => self.gamma_bisect.push(ms),
                "dk.d_step" => self.d_step.push(ms),
                "mu.sweep" => self.mu_sweep.push(ms),
                _ => {}
            }
        }
        self.iterations.push(syn.iterations as f64);
        self.order[side as usize] = syn.controller.order() as f64;
    }
}

/// Re-identifies and resynthesizes both layers under spans, checking each
/// result against the deployed design.
fn traced_resynth(t: &Tracer, s: &Setup, x: &Excitation, dk: &mut DkPhases, out: &mut Outcome) {
    for side in [Side::Hw, Side::Os] {
        let rec = MemRecorder::new();
        let res = {
            let _g = t.span(Span::Sysid);
            program::reidentify(x, side)
        }
        .and_then(|model| {
            let _g = t.span(Span::Synthesize);
            program::resynthesize(&s.design, &model, side, &rec).map(|syn| (model, syn))
        });
        match res {
            Ok((model, syn)) => {
                out.op(
                    program::matches_design(&s.design, side, &model, &syn),
                    || {
                        format!(
                            "traced resynth {}: differs from the deployed design",
                            side.label()
                        )
                    },
                );
                dk.absorb(&rec, side, &syn);
            }
            Err(e) => out.op(false, || format!("traced resynth {}: {e}", side.label())),
        }
    }
}

/// Runs one cell through the mirror loop as cell `i` of the trace.
fn mirrored(
    t: &Rc<Tracer>,
    s: &Setup,
    i: usize,
    scheme: Scheme,
    wl: &Workload,
    stages: &Stages,
    out: &mut Outcome,
) -> Option<Report> {
    t.set_cell(i as u64);
    match mirror::run_cell(t, &s.design, &s.inputs.run, scheme, wl, stages) {
        Ok(r) => Some(r),
        Err(e) => {
            out.op(false, || {
                format!("mirror {} under {}: {e}", wl.name, scheme.label())
            });
            None
        }
    }
}

/// Runs the traced section for `kind` and reports the per-layer metrics.
pub fn per_layer(kind: Kind, s: &Setup, m: &Measured, out: &mut Outcome) {
    let t = Rc::new(Tracer::new());
    let design = &s.design;
    let loop_rec = Arc::new(MemRecorder::new());
    let mut dk = DkPhases::default();
    let mut cells_out: Vec<Report> = Vec::new();
    let mut recorded_invocations = 0usize;
    let fig09 = program::fig09_cells();
    let ladder = program::serving_cells(&s.inputs);
    let app = program::serving_app();
    let probe_spec = program::serving_spec(&s.inputs, PROBE_LOAD);
    let meta = RunMeta::new(s.inputs.design.seed, kind.name(), false);
    let start = t.now();

    // 1. Set-up.
    let data = {
        let _g = t.span(Span::Excitation);
        program::excite(&s.inputs)
    };
    let dc = {
        let _g = t.span(Span::DcGains);
        program::dc_gains(&s.inputs)
    };
    let x = Excitation::new(data, dc);
    traced_resynth(&t, s, &x, &mut dk, out);

    // 2. The workload's operations.
    let mut traced_ms = Vec::with_capacity(TRACED_OPS);
    for _ in 0..TRACED_OPS {
        let t0 = t.now();
        match kind {
            Kind::Resynth => traced_resynth(&t, s, &x, &mut dk, out),
            Kind::Fig09 => {
                for (i, (scheme, wl)) in fig09.iter().enumerate() {
                    let st = Stages::default();
                    cells_out.extend(mirrored(&t, s, i, *scheme, wl, &st, out));
                }
            }
            Kind::Serving => {
                for (i, (scheme, _, spec)) in ladder.iter().enumerate() {
                    let st = Stages {
                        supervised: true,
                        serving: Some(spec.clone()),
                        ..Default::default()
                    };
                    cells_out.extend(mirrored(&t, s, i, *scheme, &app, &st, out));
                }
            }
            Kind::Recorded => {
                for (i, (scheme, wl)) in fig09.iter().enumerate() {
                    let st = Stages {
                        supervised: true,
                        tap: true,
                        recorder: Some(loop_rec.clone()),
                        ..Default::default()
                    };
                    let r = mirrored(&t, s, i, *scheme, wl, &st, out);
                    recorded_invocations += r.as_ref().map_or(0, |r| r.trace.samples.len());
                    cells_out.extend(r);
                }
            }
        }
        traced_ms.push((t.now() - t0) as f64 / 1e6);
    }

    // 3. The probe.
    let probe_stages = Stages {
        supervised: true,
        serving: Some(probe_spec.clone()),
        tap: true,
        recorder: Some(loop_rec.clone()),
        journal: true,
    };
    let probe_scheme = Scheme::YuktaHwSsvOsSsv;
    let probe_cell = cells_out.len() / TRACED_OPS;
    let probe = mirrored(&t, s, probe_cell, probe_scheme, &app, &probe_stages, out);
    recorded_invocations += probe.as_ref().map_or(0, |r| r.trace.samples.len());
    let (jsonl, entries) = {
        let _g = t.span(Span::Export);
        let snap = loop_rec.snapshot();
        (to_jsonl_with_meta(&snap, &meta), snap.entries.len())
    };
    let traced_ns = t.now() - start;

    // Fidelity: each mirrored cell against its entry point.
    if kind != Kind::Resynth {
        let n = m.reference.len();
        out.check(n > 0 && cells_out.len() == TRACED_OPS * n, || {
            format!(
                "mirror ran {} cells for {n} reference cells",
                cells_out.len()
            )
        });
        for (r, reference) in cells_out.iter().zip(m.reference.iter().cycle()) {
            out.op(r.bit_identical(reference), || {
                format!(
                    "mirror of {} under {} differs from its entry point",
                    r.workload, r.scheme
                )
            });
        }
    }
    let probe_ref = program::run_serving(
        &program::experiment(design, probe_scheme, &s.inputs),
        &app,
        &probe_spec,
    );
    match (&probe, &probe_ref) {
        (Some(p), Ok(r)) => out.op(p.bit_identical(r), || {
            "mirrored probe differs from run_unified".to_string()
        }),
        (_, Err(e)) => out.op(false, || format!("probe reference: {e}")),
        (None, _) => {}
    }
    let valid = validate_jsonl_meta(&jsonl);
    out.check(valid.is_ok(), || {
        format!("traced JSONL invalid: {:?}", valid.err())
    });
    let coverage =
        Layer::ALL.iter().map(|&l| t.layer_self_ns(l)).sum::<u64>() as f64 / traced_ns as f64;
    out.check(coverage >= MIN_COVERAGE, || {
        format!("spans cover {coverage:.3} of the traced section, below {MIN_COVERAGE}")
    });
    write_chrome(&t, kind, out);
    let side = side_measurements(s, &app, out);

    let ns = |span: Span| median(&t.samples(span));
    let all_reports = cells_out.iter().chain(&probe);
    let offered: u64 = all_reports
        .clone()
        .filter_map(|r| r.slo)
        .map(|slo| slo.offered)
        .sum();
    let shed_max = all_reports
        .filter_map(|r| r.slo)
        .map(|slo| slo.max_shed_frac)
        .fold(0.0f64, f64::max);
    let invoke_total: u64 = [
        Span::HwInvoke,
        Span::OsInvoke,
        Span::SsvHwInvoke,
        Span::SsvOsInvoke,
    ]
    .iter()
    .map(|&sp| t.total_ns(sp))
    .sum();
    let hw_invoke = t.samples(Span::SsvHwInvoke);
    let os_invoke = t.samples(Span::SsvOsInvoke);

    out.metric(
        "trace.overhead_frac",
        median(&traced_ms) / median(&m.mirror_ms) - 1.0,
        "fraction",
    );
    out.metric("trace.coverage", coverage, "fraction");
    out.metric("board.step_ns", ns(Span::BoardStep), "ns");
    out.metric("board.steps", t.count(Span::BoardStep) as f64, "count");
    out.metric("board.sense_ns", ns(Span::Sense), "ns");
    out.metric("board.actuate_ns", ns(Span::Actuate), "ns");
    out.metric("board.queue_ns", ns(Span::Queue), "ns");
    out.metric("workloads.app_ns", ns(Span::App), "ns");
    out.metric("workloads.traffic_ns", ns(Span::Traffic), "ns");
    out.metric("workloads.requests", offered as f64, "count");
    let invocations = t.count(Span::Engine) + t.count(Span::Supervisor);
    out.metric("core.invocations", invocations as f64, "count");
    out.metric("core.hw_invoke_ns.p50", median(&hw_invoke), "ns");
    out.metric("core.hw_invoke_ns.p90", percentile(&hw_invoke, 90), "ns");
    out.metric("core.os_invoke_ns.p50", median(&os_invoke), "ns");
    out.metric("core.os_invoke_ns.p90", percentile(&os_invoke, 90), "ns");
    out.metric(
        "core.invoke_share",
        invoke_total as f64 / t.total_ns(Span::Run) as f64,
        "fraction",
    );
    out.metric("core.supervisor_ns", ns(Span::Supervisor), "ns");
    out.metric("core.health_ns", ns(Span::Health), "ns");
    out.metric("core.checkpoint_ns", ns(Span::Checkpoint), "ns");
    out.metric("core.shed_frac_max", shed_max, "fraction");
    out.metric(
        "core.recovery_overhead_frac",
        side.recovery_overhead,
        "fraction",
    );
    out.metric("core.replay_frac", side.replay_frac, "fraction");
    out.metric(
        "core.design.excitation_ms",
        t.total_ns(Span::Excitation) as f64 / 1e6,
        "ms",
    );
    out.metric(
        "core.design.dc_gains_ms",
        t.total_ns(Span::DcGains) as f64 / 1e6,
        "ms",
    );
    out.metric("control.sysid_ms", ns(Span::Sysid) / 1e6, "ms");
    out.metric("control.synthesize_ms", ns(Span::Synthesize) / 1e6, "ms");
    out.metric("control.dk.k_step_ms", median(&dk.k_step), "ms");
    out.metric("control.dk.gamma_bisect_ms", median(&dk.gamma_bisect), "ms");
    out.metric("control.dk.d_step_ms", median(&dk.d_step), "ms");
    out.metric("control.mu.sweep_ms", median(&dk.mu_sweep), "ms");
    out.metric("control.dk.iterations", median(&dk.iterations), "count");
    out.metric("control.order.hw", dk.order[Side::Hw as usize], "count");
    out.metric("control.order.os", dk.order[Side::Os as usize], "count");
    out.metric(
        "obs.events",
        entries as f64 / recorded_invocations.max(1) as f64,
        "count",
    );
    out.metric("obs.emit_ns", ns(Span::Emit), "ns");
    out.metric("obs.export_ms", t.total_ns(Span::Export) as f64 / 1e6, "ms");
    out.metric("obs.record_overhead_frac", side.record_overhead, "fraction");
    for layer in Layer::ALL {
        let self_ns = t.layer_self_ns(layer) as f64;
        out.metric(&format!("{}.self_ms", layer.name()), self_ns / 1e6, "ms");
        out.metric(
            &format!("{}.share", layer.name()),
            self_ns / traced_ns as f64,
            "fraction",
        );
    }
}

/// Writes the sampled spans as a Chrome trace under `target/benchmark/`.
fn write_chrome(t: &Tracer, kind: Kind, out: &mut Outcome) {
    let text = to_chrome_trace(&t.chrome_snapshot());
    let valid = validate_chrome(&text);
    out.check(valid.is_ok(), || {
        format!("Chrome trace invalid: {:?}", valid.err())
    });
    let dir = Path::new("target").join("benchmark");
    let path = dir.join(format!("trace_{}.json", kind.name()));
    match fs::create_dir_all(&dir).and_then(|()| fs::write(&path, text)) {
        Ok(()) => out.line(format!("# chrome trace {}", path.display())),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Overheads that only the production entry points show.
struct SideMeasurements {
    /// Monitored run with an enabled recorder over one with the no-op
    /// recorder, minus one.
    record_overhead: f64,
    /// Crash-and-recover run over the uninterrupted run, minus one.
    recovery_overhead: f64,
    /// Journal records replayed over records journaled: wasted work.
    replay_frac: f64,
}

/// `f`'s result and its wall time (s).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `a` and `b`, `b` first when `swap`.
fn paired<A, B>(swap: bool, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if swap {
        let rb = b();
        (a(), rb)
    } else {
        let ra = a();
        (ra, b())
    }
}

/// Times the recorder and the crash-recovery path on the probe's
/// application (Yukta SSV+SSV bodytrack, batch). Each side of a pair runs
/// first in half the repetitions, so warm-up and drift fall on both.
fn side_measurements(s: &Setup, app: &Workload, out: &mut Outcome) -> SideMeasurements {
    let scheme = Scheme::YuktaHwSsvOsSsv;
    let exp = program::experiment(&s.design, scheme, &s.inputs);
    let (mut on, mut off, mut recovered, mut uninterrupted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut replay_frac = f64::NAN;
    for rep in 0..SIDE_REPS {
        let swap = rep % 2 == 1;
        let rec = Arc::new(MemRecorder::new());
        let recording = program::recorded_experiment(&s.design, scheme, &s.inputs, rec);
        let ((a, a_s), (b, b_s)) = paired(
            swap,
            || timed(|| program::run_monitored(&recording, app)),
            || timed(|| program::run_monitored(&exp, app)),
        );
        on.push(a_s);
        off.push(b_s);
        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                out.op(false, || format!("monitored probe run: {e}"));
                continue;
            }
        };
        out.op(a.bit_identical(&b), || {
            "recording perturbed the monitored run".to_string()
        });
        let crash_at = b.trace.samples.len() as u64 / 2;
        let ((rr, rr_s), (base, base_s)) = paired(
            swap,
            || timed(|| program::run_recoverable(&exp, app, crash_at)),
            || timed(|| program::run_supervised_plan(&exp, app, crash_at)),
        );
        recovered.push(rr_s);
        uninterrupted.push(base_s);
        match (rr, base) {
            (Ok(rr), Ok(base)) => {
                out.op(rr.report.bit_identical(&base), || {
                    "recovered probe run differs from the uninterrupted run".to_string()
                });
                replay_frac = rr.recovery.replayed_records as f64 / rr.journal.len().max(1) as f64;
            }
            (Err(e), _) | (_, Err(e)) => out.op(false, || format!("recoverable probe run: {e}")),
        }
    }
    SideMeasurements {
        record_overhead: median(&on) / median(&off) - 1.0,
        recovery_overhead: median(&recovered) / median(&uninterrupted) - 1.0,
        replay_frac,
    }
}
