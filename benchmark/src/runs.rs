//! The four workloads' untraced runs: set-up, the measured loop, the
//! output checks, and the summary lines each prints. End-to-end numbers
//! always come from these runs; the traced run only explains them.

use std::sync::Arc;
use std::time::Instant;

use yukta_core::design::Design;
use yukta_core::metrics::Report;
use yukta_core::schemes::Scheme;
use yukta_linalg::Result;
use yukta_obs::NoopRecorder;
use yukta_obs::export::{RunMeta, to_jsonl_with_meta, validate_jsonl_meta};
use yukta_obs::mem::MemRecorder;

use crate::host::{self, Pace, Paced};
use crate::program::{self, Digest, Excitation, Inputs, PERIOD_MS, SERVING_SCHEMES, Side};
use crate::stats::{geomean, median, timing_line};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig 9 grid: simulator and run-loop bound.
    Fig09,
    /// In-loop resynthesis of the deployed controllers: synthesis bound.
    Resynth,
    /// Open-loop request serving under the supervisor.
    Serving,
    /// The Fig 9 grid with the telemetry and crash-recovery writers on.
    Recorded,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::Fig09, Kind::Resynth, Kind::Serving, Kind::Recorded];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig09 => "fig09",
            Kind::Resynth => "resynth",
            Kind::Serving => "serving",
            Kind::Recorded => "recorded",
        }
    }

    /// The workload named `s`.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// How strongly the operation's time follows the host's speed, as
    /// the exponent on the reference's slowdown.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Kind::Fig09 | Kind::Serving | Kind::Recorded => host::SIMULATION,
            Kind::Resynth => host::SYNTHESIS,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports: summary lines, the JSON metrics, and the
/// operation counts and failed checks behind `correct`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `<metric> <value> <unit>` lines, and `#` comments.
    pub lines: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every failed check, operations included.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Adds a summary line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Reports a metric and prints its line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.line(format!("{name} {value} {unit}"));
        self.push_metric(name, value, unit);
    }

    /// Reports the median of a timing, printing its sample count and
    /// best-supported tail percentile.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.line(timing_line(name, unit, samples));
        self.push_metric(name, median(samples), unit);
    }

    fn push_metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is not finite"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts one attempted operation, failed with `why` unless `ok`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(why());
        }
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(why());
        }
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What every workload runs against: its inputs, the deployed design,
/// and (for resynthesis) the identification record.
pub struct Setup {
    /// The run's seeded inputs.
    pub inputs: Inputs,
    /// The deployed design.
    pub design: Design,
    /// The excitation record and DC gains the resynthesis starts from.
    pub excitation: Option<Excitation>,
}

/// Builds the design `reps` times, checking every build is bit-identical,
/// and returns the set-up with each build's time.
pub fn set_up(
    kind: Kind,
    inputs: Inputs,
    reps: usize,
    build: &dyn Fn(&Inputs) -> Result<Design>,
    pace: &Pace,
    out: &mut Outcome,
) -> Option<(Setup, Vec<Paced>)> {
    let mut times = Vec::with_capacity(reps);
    let mut design = None;
    let mut digests = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let (built, paced) = pace.time(|| build(&inputs));
        match built {
            Ok(d) => {
                times.push(paced);
                let mut h = Digest::new();
                h.design(&d);
                digests.push(h.value());
                design = Some(d);
            }
            Err(e) => {
                out.check(false, || format!("design build failed: {e}"));
                return None;
            }
        }
    }
    out.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "repeated design builds differ".to_string()
    });
    let design = design?;
    let excitation = (kind == Kind::Resynth)
        .then(|| Excitation::new(program::excite(&inputs), program::dc_gains(&inputs)));
    let setup = Setup {
        inputs,
        design,
        excitation,
    };
    Some((setup, times))
}

/// The measured operations of one untraced run.
pub struct Measured {
    /// Time of each operation: a pass over the workload's cells, or one
    /// resynthesis of both layers.
    pub ops: Vec<Paced>,
    /// Peak resident set (MB) over set-up and the first operation; `None`
    /// when `/proc` is unreadable.
    pub peak_rss_mb: Option<f64>,
    /// Wall time of the part of each operation the traced mirror loop
    /// replicates (ms); the base of `trace.overhead_frac`.
    pub mirror_ms: Vec<f64>,
    /// The first operation's reports, which the traced mirror loop must
    /// reproduce bit for bit.
    pub reference: Vec<Report>,
}

/// How long the measured loop runs, and the reference it is paced by.
pub struct Budget<'a> {
    /// Seconds the loop runs for.
    pub seconds: f64,
    /// Operations the loop runs, however short `seconds` is.
    pub min_ops: usize,
    /// The host-speed reference, sampled between cells.
    pub pace: &'a Pace,
}

/// Runs `kind`'s operation until the budget is spent, checking every
/// output.
pub fn measure(kind: Kind, s: &Setup, b: &Budget, out: &mut Outcome) -> Measured {
    match kind {
        Kind::Fig09 => fig09(s, b, out),
        Kind::Resynth => resynth(s, b, out),
        Kind::Serving => serving(s, b, out),
        Kind::Recorded => recorded(s, b, out),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (MB), from `/proc`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Times `op`, which samples the reference between its cells, until the
/// budget is spent, and reads the peak resident set after the first
/// operation. Reading it then, not at exit, keeps it to a fixed amount of
/// work: on `recorded` the heap the allocator keeps between passes grows
/// over the first few, and in some runs, not others, a later pass peaks
/// 8 MB higher.
fn repeat(b: &Budget, mut op: impl FnMut()) -> (Vec<Paced>, Option<f64>) {
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut peak = None;
    while ops.len() < b.min_ops || start.elapsed().as_secs_f64() < b.seconds {
        ops.push(b.pace.time(&mut op).1);
        if ops.len() == 1 {
            peak = peak_rss_mb();
        }
    }
    (ops, peak)
}

fn wall_ms(ops: &[Paced]) -> Vec<f64> {
    ops.iter().map(|p| p.wall_ms).collect()
}

/// Prints the digest shared by every operation, or fails the check.
fn sim_digest(digests: &[u64], out: &mut Outcome) {
    out.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "sim_digest differs across operations".to_string()
    });
    if let Some(d) = digests.first() {
        out.line(format!("sim_digest {d:016x}"));
    }
}

fn scheme_index(schemes: &[Scheme], s: Scheme) -> usize {
    schemes
        .iter()
        .position(|&x| x == s)
        .expect("cell scheme is one of the workload's schemes")
}

fn fig09(s: &Setup, b: &Budget, out: &mut Outcome) -> Measured {
    let cells = program::fig09_cells();
    let schemes = Scheme::figure9();
    let exps: Vec<_> = schemes
        .iter()
        .map(|&sc| program::experiment(&s.design, sc, &s.inputs))
        .collect();
    let mut reference = Vec::new();
    let mut digests = Vec::new();
    let (ops, peak_rss_mb) = repeat(b, || {
        let mut d = Digest::new();
        let mut reports = Vec::with_capacity(cells.len());
        for (scheme, wl) in &cells {
            b.pace.sample();
            match program::run_batch(&exps[scheme_index(&schemes, *scheme)], wl) {
                Ok(r) => {
                    out.op(r.metrics.completed, || {
                        format!("fig09 {} under {}: timed out", wl.name, scheme.label())
                    });
                    d.report(&r);
                    reports.push(r);
                }
                Err(e) => out.op(false, || {
                    format!("fig09 {} under {}: {e}", wl.name, scheme.label())
                }),
            }
        }
        digests.push(d.value());
        if reference.is_empty() {
            reference = reports;
        }
    });
    if reference.len() == cells.len() {
        // Cells are workload-major over the Fig 9 schemes, the baseline
        // (Coordinated) first and full Yukta (HW SSV + OS SSV) last.
        let ratio = |f: fn(&Report) -> f64| {
            let per_app: Vec<f64> = reference
                .chunks(schemes.len())
                .map(|c| f(&c[schemes.len() - 1]) / f(&c[0]))
                .collect();
            geomean(&per_app)
        };
        out.line(format!("exd_ratio {:.4} x", ratio(|r| r.metrics.exd())));
        out.line(format!(
            "delay_ratio {:.4} x",
            ratio(|r| r.metrics.delay_seconds)
        ));
        let sim_s: f64 = reference.iter().map(|r| r.metrics.delay_seconds).sum();
        out.line(format!("sim_s_per_pass {sim_s:.1} s"));
        out.line(format!(
            "sim_rate {:.1} sim-s/host-s",
            sim_s / (median(&wall_ms(&ops)) / 1e3)
        ));
    }
    sim_digest(&digests, out);
    Measured {
        mirror_ms: wall_ms(&ops),
        ops,
        peak_rss_mb,
        reference,
    }
}

fn resynth(s: &Setup, b: &Budget, out: &mut Outcome) -> Measured {
    let x = s
        .excitation
        .as_ref()
        .expect("resynth set-up collects the excitation record");
    let sides = [Side::Hw, Side::Os];
    let mut side_ms = [Vec::new(), Vec::new()];
    let mut mu = [f64::NAN; 2];
    let mut digests = Vec::new();
    let (ops, peak_rss_mb) = repeat(b, || {
        let mut d = Digest::new();
        for (i, side) in sides.into_iter().enumerate() {
            b.pace.sample();
            let t = Instant::now();
            let res = program::reidentify(x, side).and_then(|model| {
                program::resynthesize(&s.design, &model, side, &NoopRecorder)
                    .map(|syn| (model, syn))
            });
            side_ms[i].push(ms_since(t));
            match res {
                Ok((model, syn)) => {
                    out.op(
                        program::matches_design(&s.design, side, &model, &syn),
                        || format!("resynth {}: differs from the deployed design", side.label()),
                    );
                    mu[i] = syn.mu_peak;
                    d.synthesis(&syn);
                }
                Err(e) => out.op(false, || format!("resynth {}: {e}", side.label())),
            }
        }
        digests.push(d.value());
    });
    for (i, side) in sides.into_iter().enumerate() {
        let l = side.label();
        out.line(timing_line(&format!("resynth_ms.{l}"), "ms", &side_ms[i]));
        out.line(format!(
            "period_headroom_ms.{l} {:.1} ms",
            PERIOD_MS - median(&side_ms[i])
        ));
        out.line(format!("mu_hat.{l} {:.4} 1", mu[i]));
    }
    sim_digest(&digests, out);
    Measured {
        mirror_ms: wall_ms(&ops),
        ops,
        peak_rss_mb,
        reference: Vec::new(),
    }
}

fn serving(s: &Setup, b: &Budget, out: &mut Outcome) -> Measured {
    let cells = program::serving_cells(&s.inputs);
    let app = program::serving_app();
    let exps: Vec<_> = SERVING_SCHEMES
        .iter()
        .map(|&sc| program::experiment(&s.design, sc, &s.inputs))
        .collect();
    let mut reference = Vec::new();
    let mut digests = Vec::new();
    let (ops, peak_rss_mb) = repeat(b, || {
        let mut d = Digest::new();
        let mut reports = Vec::with_capacity(cells.len());
        for (scheme, load, spec) in &cells {
            b.pace.sample();
            let exp = &exps[scheme_index(&SERVING_SCHEMES, *scheme)];
            match program::run_serving(exp, &app, spec) {
                Ok(r) => {
                    let sup_violations = r.supervisor.map_or(0, |st| st.invariant_violations);
                    let ok = r.metrics.completed
                        && r.slo.is_some()
                        && sup_violations == 0
                        && r.actuation.double_actuations == 0
                        && r.actuation.tmu_cap_expansions == 0;
                    out.op(ok, || {
                        format!(
                            "serving {} load {load}: completed {}, {sup_violations} invariant \
                             violations, {} double actuations, {} TMU cap expansions",
                            scheme.label(),
                            r.metrics.completed,
                            r.actuation.double_actuations,
                            r.actuation.tmu_cap_expansions
                        )
                    });
                    d.report(&r);
                    reports.push(r);
                }
                Err(e) => out.op(false, || {
                    format!("serving {} load {load}: {e}", scheme.label())
                }),
            }
        }
        digests.push(d.value());
        if reference.is_empty() {
            reference = reports;
        }
    });
    if reference.len() == cells.len() {
        let slo_s = s.inputs.run.limits.latency_slo_s;
        let mut dropped = 0;
        let mut offered = 0;
        for (i, &scheme) in SERVING_SCHEMES.iter().enumerate() {
            // The highest offered rate whose lifetime p99 meets the SLO
            // with at most 1% of requests dropped (a drop is a miss).
            let mut slo_rps = 0.0f64;
            for ((sc, load, spec), r) in cells.iter().zip(&reference) {
                let slo = r.slo.expect("serving report carries an SLO report");
                if *sc != scheme {
                    continue;
                }
                dropped += slo.dropped();
                offered += slo.offered;
                let rps = load * spec.traffic.base_rate_rps;
                if slo.p99_s <= slo_s && slo.dropped() as f64 <= 0.01 * slo.offered as f64 {
                    slo_rps = slo_rps.max(rps);
                }
                if i == 0 && matches!(rps.round() as u32, 16 | 40) {
                    out.line(format!("p99_s.{}rps {:.4} s", rps.round(), slo.p99_s));
                }
            }
            let label = if i == 0 { "coordinated" } else { "yukta" };
            out.line(format!("slo_rps.{label} {slo_rps} req/s"));
        }
        out.line(format!(
            "requests_dropped_frac {:.4} fraction",
            dropped as f64 / offered.max(1) as f64
        ));
    }
    out.line("generator_lateness_s 0 s");
    out.line(
        "# open loop in simulated time: arrivals are drawn on schedule and never wait on \
         service, and latency counts from each arrival's due time, so the generator is never late",
    );
    sim_digest(&digests, out);
    Measured {
        mirror_ms: wall_ms(&ops),
        ops,
        peak_rss_mb,
        reference,
    }
}

fn recorded(s: &Setup, b: &Budget, out: &mut Outcome) -> Measured {
    let cells = program::fig09_cells();
    let schemes = Scheme::figure9();
    let exps: Vec<_> = schemes
        .iter()
        .map(|&sc| program::experiment(&s.design, sc, &s.inputs))
        .collect();
    let meta = RunMeta::new(s.inputs.design.seed, "recorded", false);
    let mut monitored_ms = Vec::new();
    let mut export_ms = Vec::new();
    let mut validate_ms = Vec::new();
    let mut recovery_ms = Vec::new();
    let mut mb = Vec::new();
    let mut events_per_invocation = f64::NAN;
    let mut reference = Vec::new();
    let mut digests = Vec::new();
    let (ops, peak_rss_mb) = repeat(b, || {
        let mut d = Digest::new();
        // A fresh recorder per pass, shared by the pass's cells.
        let rec = Arc::new(MemRecorder::new());
        let recorded: Vec<_> = schemes
            .iter()
            .map(|&sc| program::recorded_experiment(&s.design, sc, &s.inputs, rec.clone()))
            .collect();
        let paced_before = b.pace.spent_ms();
        let t = Instant::now();
        let monitored: Vec<Option<Report>> = cells
            .iter()
            .map(|(scheme, wl)| {
                b.pace.sample();
                match program::run_monitored(&recorded[scheme_index(&schemes, *scheme)], wl) {
                    Ok(r) => {
                        out.op(r.metrics.completed, || {
                            format!("recorded {} under {}: timed out", wl.name, scheme.label())
                        });
                        d.report(&r);
                        Some(r)
                    }
                    Err(e) => {
                        out.op(false, || {
                            format!("recorded {} under {}: {e}", wl.name, scheme.label())
                        });
                        None
                    }
                }
            })
            .collect();
        monitored_ms.push(ms_since(t) - (b.pace.spent_ms() - paced_before));
        let t = Instant::now();
        let snap = rec.snapshot();
        let text = to_jsonl_with_meta(&snap, &meta);
        export_ms.push(ms_since(t));
        let t = Instant::now();
        let valid = validate_jsonl_meta(&text);
        validate_ms.push(ms_since(t));
        out.op(valid.is_ok(), || {
            format!("recorded JSONL invalid: {:?}", valid.err())
        });
        mb.push(text.len() as f64 / 1e6);
        let invocations: usize = monitored
            .iter()
            .flatten()
            .map(|r| r.trace.samples.len())
            .sum();
        events_per_invocation = snap.entries.len() as f64 / invocations.max(1) as f64;
        drop((text, snap, recorded, rec));
        let paced_before = b.pace.spent_ms();
        let t = Instant::now();
        for ((scheme, wl), uninterrupted) in cells.iter().zip(&monitored) {
            let Some(uninterrupted) = uninterrupted else {
                continue;
            };
            b.pace.sample();
            let exp = &exps[scheme_index(&schemes, *scheme)];
            let crash_at = uninterrupted.trace.samples.len() as u64 / 2;
            match program::run_recoverable(exp, wl, crash_at) {
                Ok(rr) => {
                    let r = rr.recovery;
                    // The crash-only fault plan injects nothing, so apart
                    // from the plan's echo in `faults` the recovered run
                    // must equal the uninterrupted monitored run.
                    let mut recovered = rr.report;
                    recovered.faults = None;
                    let ok = recovered.bit_identical(uninterrupted)
                        && r.crashes == 1
                        && r.recoveries == 1
                        && r.replay_divergences == 0
                        && r.invariant_violations == 0;
                    out.op(ok, || {
                        format!(
                            "recorded {} under {}: recovery not bit-identical ({r:?})",
                            wl.name,
                            scheme.label()
                        )
                    });
                    d.report(&recovered);
                }
                Err(e) => out.op(false, || {
                    format!("recorded {} under {}: {e}", wl.name, scheme.label())
                }),
            }
        }
        recovery_ms.push(ms_since(t) - (b.pace.spent_ms() - paced_before));
        digests.push(d.value());
        if reference.is_empty() {
            reference = monitored.into_iter().flatten().collect();
        }
    });
    out.line(format!("telemetry_mb {:.4} MB/pass", median(&mb)));
    out.line(format!(
        "telemetry_events_per_invocation {events_per_invocation:.3} count"
    ));
    out.line(timing_line("monitored_ms", "ms", &monitored_ms));
    out.line(timing_line("export_ms", "ms", &export_ms));
    out.line(timing_line("validate_ms", "ms", &validate_ms));
    out.line(timing_line("recovery_ms", "ms", &recovery_ms));
    sim_digest(&digests, out);
    Measured {
        ops,
        peak_rss_mb,
        mirror_ms: monitored_ms,
        reference,
    }
}
