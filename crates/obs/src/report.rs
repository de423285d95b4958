//! Turns a JSONL telemetry log into a per-phase time/overhead summary —
//! the analysis behind `bench/src/bin/obs_report.rs`.

use crate::json::{self, Json};

/// Aggregated statistics for one span name ("phase").
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub name: String,
    pub count: u64,
    pub total_ns: f64,
    pub max_ns: f64,
    /// Share of the run's wall window (first span start → last span end)
    /// spent inside this phase. Nested phases overlap, so shares can sum
    /// past 100%.
    pub wall_share: f64,
}

impl PhaseRow {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}

/// Everything `obs_report` prints, parsed out of one JSONL log (or
/// several, via [`RunSummary::merge`]).
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Rendered run-metadata headers, one per aggregated log.
    pub metas: Vec<String>,
    /// Span phases sorted by total time, descending.
    pub phases: Vec<PhaseRow>,
    /// Event names with occurrence counts, sorted by count descending.
    pub events: Vec<(String, u64)>,
    pub counters: Vec<(String, f64)>,
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → (count, sum, min, max); `None` bounds collapse to
    /// NaN-free options.
    pub hists: Vec<(String, HistSummary)>,
    /// Wall window covered by spans/events, in nanoseconds. Merged
    /// summaries add windows (runs are sequential).
    pub wall_ns: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    pub count: f64,
    pub sum: f64,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

/// Parses a JSONL telemetry log into a [`RunSummary`]. Lines must already
/// be valid (run [`crate::export::validate_jsonl`] first for hard
/// validation); this aggregator still fails loudly on unparseable lines.
pub fn summarize(text: &str) -> Result<RunSummary, String> {
    let mut sum = RunSummary::default();
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let ty = v.get("type").and_then(Json::as_str).unwrap_or("");
        let name = v.get("name").and_then(Json::as_str).unwrap_or("?");
        match ty {
            "meta" => {
                let ver = v
                    .get("schema_version")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let seed = v.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
                let scheme = v.get("scheme").and_then(Json::as_str).unwrap_or("?");
                let quick = match v.get("quick") {
                    Some(Json::Bool(true)) => "quick",
                    _ => "full",
                };
                sum.metas.push(format!(
                    "schema v{ver:.0}, seed {seed:.0}, scheme {scheme}, {quick}"
                ));
            }
            "span" => {
                let ts = v.get("ts_ns").and_then(Json::as_f64).unwrap_or(0.0);
                let dur = v.get("dur_ns").and_then(Json::as_f64).unwrap_or(0.0);
                t_min = t_min.min(ts);
                t_max = t_max.max(ts + dur);
                match sum.phases.iter_mut().find(|p| p.name == name) {
                    Some(p) => {
                        p.count += 1;
                        p.total_ns += dur;
                        p.max_ns = p.max_ns.max(dur);
                    }
                    None => sum.phases.push(PhaseRow {
                        name: name.to_string(),
                        count: 1,
                        total_ns: dur,
                        max_ns: dur,
                        wall_share: 0.0,
                    }),
                }
            }
            "event" => {
                let ts = v.get("ts_ns").and_then(Json::as_f64).unwrap_or(0.0);
                t_min = t_min.min(ts);
                t_max = t_max.max(ts);
                match sum.events.iter_mut().find(|(n, _)| n == name) {
                    Some((_, c)) => *c += 1,
                    None => sum.events.push((name.to_string(), 1)),
                }
            }
            "counter" => {
                let total = v.get("total").and_then(Json::as_f64).unwrap_or(0.0);
                sum.counters.push((name.to_string(), total));
            }
            "gauge" => {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                sum.gauges.push((name.to_string(), value));
            }
            "hist" => {
                sum.hists.push((
                    name.to_string(),
                    HistSummary {
                        count: v.get("count").and_then(Json::as_f64).unwrap_or(0.0),
                        sum: v.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                        min: v.get("min").and_then(Json::as_f64),
                        max: v.get("max").and_then(Json::as_f64),
                    },
                ));
            }
            _ => return Err(format!("line {}: unknown record type {ty:?}", i + 1)),
        }
    }
    sum.wall_ns = if t_max > t_min { t_max - t_min } else { 0.0 };
    if sum.wall_ns > 0.0 {
        for p in &mut sum.phases {
            p.wall_share = p.total_ns / sum.wall_ns;
        }
    }
    sum.phases.sort_by(|a, b| {
        b.total_ns
            .partial_cmp(&a.total_ns)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    sum.events.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(sum)
}

impl RunSummary {
    /// Folds another log's summary into this one, so several JSONL inputs
    /// (fig-family runs, campaign cells) render as a single aggregate:
    /// phase/event counts and totals add, counters add, gauges keep the
    /// most recent value, histogram aggregates combine losslessly, and
    /// wall windows add (runs are sequential, not concurrent).
    pub fn merge(&mut self, other: RunSummary) {
        self.metas.extend(other.metas);
        for p in other.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.count += p.count;
                    q.total_ns += p.total_ns;
                    q.max_ns = q.max_ns.max(p.max_ns);
                }
                None => self.phases.push(p),
            }
        }
        for (name, c) in other.events {
            match self.events.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine += c,
                None => self.events.push((name, c)),
            }
        }
        for (name, total) in other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine += total,
                None => self.counters.push((name, total)),
            }
        }
        for (name, value) in other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine = value,
                None => self.gauges.push((name, value)),
            }
        }
        for (name, h) in other.hists {
            match self.hists.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => {
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = match (mine.min, h.min) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    mine.max = match (mine.max, h.max) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => self.hists.push((name, h)),
            }
        }
        self.wall_ns += other.wall_ns;
        if self.wall_ns > 0.0 {
            for p in &mut self.phases {
                p.wall_share = p.total_ns / self.wall_ns;
            }
        }
        self.phases.sort_by(|a, b| {
            b.total_ns
                .partial_cmp(&a.total_ns)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.events
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }
}

/// One entry of the loop-health timeline (`obs_report --phases health`):
/// a non-healthy verdict, an online refit, or a hot-swap, in step order.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRow {
    /// Controller invocation index the entry refers to.
    pub step: u64,
    /// Entry kind: `drifting`, `phase_change`, `refit`, or `resynth`.
    pub kind: String,
    /// Detail: drift score, refit residual, or 1/0 bumpless flag.
    pub detail: f64,
}

/// Extracts the loop-health timeline from a JSONL telemetry log: the
/// `health.verdict` events the runtime emits for non-healthy verdicts,
/// `health.refit` re-identification events, and `runtime.resynth`
/// hot-swap events. A health event without a `step` field is an error
/// (the emitter always attaches one).
pub fn health_breakdown(text: &str) -> Result<Vec<HealthRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("type").and_then(Json::as_str) != Some("event") {
            continue;
        }
        let name = v.get("name").and_then(Json::as_str).unwrap_or("");
        if !matches!(name, "health.verdict" | "health.refit" | "runtime.resynth") {
            continue;
        }
        let fields = v.get("fields");
        let field = |key: &str| fields.and_then(|f| f.get(key)).and_then(Json::as_f64);
        let step = field("step")
            .ok_or_else(|| format!("line {}: {name:?} event without step field", i + 1))?
            as u64;
        let (kind, detail) = match name {
            "health.verdict" => {
                let kind = fields
                    .and_then(|f| f.get("verdict"))
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                (kind, field("score").unwrap_or(0.0))
            }
            "health.refit" => ("refit".to_string(), field("fit_residual").unwrap_or(0.0)),
            _ => {
                let bumpless = fields
                    .and_then(|f| f.get("bumpless"))
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                ("resynth".to_string(), if bumpless { 1.0 } else { 0.0 })
            }
        };
        rows.push(HealthRow { step, kind, detail });
    }
    rows.sort_by_key(|r| r.step);
    Ok(rows)
}

/// Renders the health timeline plus the `health.*` aggregate gauges as an
/// aligned text section.
pub fn render_health(rows: &[HealthRow], sum: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<8} {:<14} {:>12}\n", "step", "entry", "detail"));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<14} {:>12.4}\n",
            r.step, r.kind, r.detail
        ));
    }
    if rows.is_empty() {
        out.push_str("(no health timeline events)\n");
    }
    let health_gauges: Vec<_> = sum
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("health."))
        .collect();
    if !health_gauges.is_empty() {
        out.push_str(&format!("\n{:<28} {:>12}\n", "health gauge", "value"));
        for (name, value) in health_gauges {
            out.push_str(&format!("{name:<28} {value:>12.4}\n"));
        }
    }
    out
}

/// Wall-time breakdown of one D–K iteration, aggregated from the
/// `dk.iteration` / `dk.k_step` / `dk.gamma_bisect` / `dk.d_step` spans
/// that `yukta_control::dk::synthesize_ssv_obs` emits (obs_report
/// `--phases dk`). When one log holds several syntheses, same-numbered
/// iterations aggregate into one row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DkIterRow {
    pub iter: u64,
    /// Total H∞ K-step time (contains the γ-bisection).
    pub k_step_ns: f64,
    /// γ-bisection time inside the K-step.
    pub gamma_bisect_ns: f64,
    /// H∞ syntheses the γ-bisection started (its span's `probes`).
    pub probes: u64,
    /// Of those, the ones abandoned as moot (its span's `cancelled`).
    pub cancelled: u64,
    /// γ-searches that started from a hint (a finite `hint`).
    pub hinted: u64,
    /// Of those, the ones whose hint verified a lattice leaf, so the
    /// cold search never ran (`hint_hit`).
    pub hint_hits: u64,
    /// Lattice leaves the hinted searches walked (`walk`).
    pub walk: u64,
    /// D-step time: µ sweep plus scaling update.
    pub d_step_ns: f64,
    /// Whole-iteration wall time.
    pub iteration_ns: f64,
}

/// The rational-D K-steps of a log (its `dk.rational_step` spans),
/// summed over every synthesis in it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DkRationalRow {
    /// Rational steps recorded.
    pub steps: u64,
    /// Their total wall time: D(s) fit, K-step and µ sweep.
    pub ns: f64,
    /// The slowest step's wall time.
    pub max_ns: f64,
    /// H∞ syntheses their γ-searches started (the spans' `probes`).
    pub probes: u64,
    /// Steps that ran a γ-search (nonzero `probes`); each starts from
    /// the last constant-D γ.
    pub searched: u64,
    /// Steps whose hint verified a lattice leaf (the spans' `warm_hit`).
    pub warm_hits: u64,
    /// Lattice leaves their hinted searches walked (the spans' `walk`).
    pub walk: u64,
}

/// Extracts the per-iteration D–K phase breakdown and the rational-D
/// step summary from a JSONL telemetry log. Non-dk records are ignored;
/// an iteration's dk span without an `iter` field is an error (the
/// emitter always attaches one).
pub fn dk_phase_breakdown(text: &str) -> Result<(Vec<DkIterRow>, DkRationalRow), String> {
    let mut rows: Vec<DkIterRow> = Vec::new();
    let mut rational = DkRationalRow::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("type").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let name = v.get("name").and_then(Json::as_str).unwrap_or("");
        let field = |key: &str| v.get("fields").and_then(|f| f.get(key));
        let num = |key: &str| field(key).and_then(Json::as_f64);
        let flag = |key: &str| field(key).and_then(Json::as_bool) == Some(true);
        let dur = v.get("dur_ns").and_then(Json::as_f64).unwrap_or(0.0);
        if name == "dk.rational_step" {
            rational.steps += 1;
            rational.ns += dur;
            rational.max_ns = rational.max_ns.max(dur);
            let probes = num("probes").unwrap_or(0.0) as u64;
            rational.probes += probes;
            rational.searched += u64::from(probes > 0);
            rational.warm_hits += u64::from(flag("warm_hit"));
            rational.walk += num("walk").unwrap_or(0.0) as u64;
            continue;
        }
        if !matches!(
            name,
            "dk.iteration" | "dk.k_step" | "dk.gamma_bisect" | "dk.d_step"
        ) {
            continue;
        }
        let iter = num("iter")
            .ok_or_else(|| format!("line {}: dk span {name:?} without iter field", i + 1))?
            as u64;
        let row = match rows.iter_mut().find(|r| r.iter == iter) {
            Some(r) => r,
            None => {
                rows.push(DkIterRow {
                    iter,
                    ..Default::default()
                });
                rows.last_mut().expect("just pushed")
            }
        };
        match name {
            "dk.iteration" => row.iteration_ns += dur,
            "dk.k_step" => row.k_step_ns += dur,
            "dk.gamma_bisect" => {
                row.gamma_bisect_ns += dur;
                row.probes += num("probes").unwrap_or(0.0) as u64;
                row.cancelled += num("cancelled").unwrap_or(0.0) as u64;
                // A cold search's NaN hint is written as `null`.
                row.hinted += u64::from(num("hint").is_some());
                row.hint_hits += u64::from(flag("hint_hit"));
                row.walk += num("walk").unwrap_or(0.0) as u64;
            }
            _ => row.d_step_ns += dur,
        }
    }
    rows.sort_by_key(|r| r.iter);
    Ok((rows, rational))
}

/// Renders the D–K breakdown as an aligned text table (its `hits`
/// column is hint hits over hinted γ-searches), with the rational-D
/// steps on a line of their own below it and a last line summing every
/// hinted K-step: hits, leaves walked and cold fallbacks.
pub fn render_dk(rows: &[DkIterRow], rational: &DkRationalRow) -> String {
    let line = |iter: &dyn std::fmt::Display, r: &DkIterRow| {
        format!(
            "{:<6} {:>12} {:>14} {:>7} {:>9} {:>7} {:>5} {:>12} {:>12}\n",
            iter,
            fmt_ns(r.k_step_ns),
            fmt_ns(r.gamma_bisect_ns),
            r.probes,
            r.cancelled,
            format!("{}/{}", r.hint_hits, r.hinted),
            r.walk,
            fmt_ns(r.d_step_ns),
            fmt_ns(r.iteration_ns)
        )
    };
    let mut out = format!(
        "{:<6} {:>12} {:>14} {:>7} {:>9} {:>7} {:>5} {:>12} {:>12}\n",
        "iter",
        "k_step",
        "gamma_bisect",
        "probes",
        "cancelled",
        "hits",
        "walk",
        "d_step",
        "iteration"
    );
    let mut total = DkIterRow::default();
    for r in rows {
        out.push_str(&line(&r.iter, r));
        total.k_step_ns += r.k_step_ns;
        total.gamma_bisect_ns += r.gamma_bisect_ns;
        total.probes += r.probes;
        total.cancelled += r.cancelled;
        total.hinted += r.hinted;
        total.hint_hits += r.hint_hits;
        total.walk += r.walk;
        total.d_step_ns += r.d_step_ns;
        total.iteration_ns += r.iteration_ns;
    }
    out.push_str(&line(&"total", &total));
    if rational.steps > 0 {
        out.push_str(&format!(
            "rational-D K-step: {} step(s), {} total, {} max, {} probes, {}/{} warm hits, {} leaf steps\n",
            rational.steps,
            fmt_ns(rational.ns),
            fmt_ns(rational.max_ns),
            rational.probes,
            rational.warm_hits,
            rational.searched,
            rational.walk
        ));
    }
    let hinted = total.hinted + rational.searched;
    let hits = total.hint_hits + rational.warm_hits;
    out.push_str(&format!(
        "hinted K-steps: {hits}/{hinted} hits, {} leaf steps, {} cold fallbacks\n",
        total.walk + rational.walk,
        hinted - hits
    ));
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders the per-phase breakdown as an aligned text table.
pub fn render(sum: &RunSummary) -> String {
    let mut out = String::new();
    for meta in &sum.metas {
        out.push_str(&format!("run: {meta}\n"));
    }
    out.push_str(&format!(
        "wall window: {} across {} span phase(s), {} event name(s)\n\n",
        fmt_ns(sum.wall_ns),
        sum.phases.len(),
        sum.events.len()
    ));
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12} {:>7}\n",
        "phase", "count", "total", "mean", "max", "wall%"
    ));
    for p in &sum.phases {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12} {:>12} {:>12} {:>6.1}%\n",
            p.name,
            p.count,
            fmt_ns(p.total_ns),
            fmt_ns(p.mean_ns()),
            fmt_ns(p.max_ns),
            p.wall_share * 100.0
        ));
    }
    if !sum.events.is_empty() {
        out.push_str(&format!("\n{:<28} {:>8}\n", "event", "count"));
        for (name, count) in &sum.events {
            out.push_str(&format!("{name:<28} {count:>8}\n"));
        }
    }
    if !sum.counters.is_empty() {
        out.push_str(&format!("\n{:<28} {:>12}\n", "counter", "total"));
        for (name, total) in &sum.counters {
            out.push_str(&format!("{name:<28} {total:>12.0}\n"));
        }
    }
    if !sum.gauges.is_empty() {
        out.push_str(&format!("\n{:<28} {:>12}\n", "gauge", "value"));
        for (name, value) in &sum.gauges {
            out.push_str(&format!("{name:<28} {value:>12.4}\n"));
        }
    }
    if !sum.hists.is_empty() {
        out.push_str(&format!(
            "\n{:<28} {:>8} {:>12} {:>12} {:>12}\n",
            "histogram", "count", "mean", "min", "max"
        ));
        for (name, h) in &sum.hists {
            let mean = if h.count > 0.0 { h.sum / h.count } else { 0.0 };
            out.push_str(&format!(
                "{:<28} {:>8.0} {:>12} {:>12} {:>12}\n",
                name,
                h.count,
                fmt_ns(mean),
                h.min.map_or_else(|| "-".into(), fmt_ns),
                h.max.map_or_else(|| "-".into(), fmt_ns),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_jsonl;
    use crate::mem::MemRecorder;
    use crate::{Recorder, Value, span};

    #[test]
    fn summarize_aggregates_per_phase() {
        let rec = MemRecorder::manual();
        for i in 0..3u64 {
            let s = span(&rec, "runtime.invoke");
            rec.advance_ns(100 * (i + 1));
            s.end_with(&[]);
        }
        rec.event("board.fault", &[("kind", Value::Str("spike"))]);
        rec.event("board.fault", &[("kind", Value::Str("bias"))]);
        rec.counter_add("optimizer.hw_steps", 4);
        rec.hist_record("runtime.invoke_ns", 100.0);
        let sum = summarize(&to_jsonl(&rec.snapshot())).unwrap();
        assert_eq!(sum.phases.len(), 1);
        assert_eq!(sum.phases[0].count, 3);
        assert_eq!(sum.phases[0].total_ns, 600.0);
        assert_eq!(sum.phases[0].max_ns, 300.0);
        assert_eq!(sum.events, vec![("board.fault".to_string(), 2)]);
        assert_eq!(sum.counters, vec![("optimizer.hw_steps".to_string(), 4.0)]);
        let text = render(&sum);
        assert!(text.contains("runtime.invoke"));
        assert!(text.contains("board.fault"));
    }

    #[test]
    fn render_handles_empty_logs() {
        let sum = summarize("").unwrap();
        assert!(render(&sum).contains("0 span phase(s)"));
    }

    #[test]
    fn dk_breakdown_groups_by_iteration() {
        let rec = MemRecorder::manual();
        for iter in 0..2u64 {
            let it = span(&rec, "dk.iteration");
            let k = span(&rec, "dk.k_step");
            let g = span(&rec, "dk.gamma_bisect");
            rec.advance_ns(300);
            g.end_with(&[
                ("iter", Value::U64(iter)),
                ("gamma", Value::F64(2.0)),
                ("probes", Value::U64(7 + iter)),
                ("cancelled", Value::U64(iter)),
                // Iteration 0 starts cold, iteration 1 walks two leaves.
                ("hint", Value::F64(if iter == 0 { f64::NAN } else { 2.1 })),
                ("hint_hit", Value::Bool(iter == 1)),
                ("walk", Value::U64(2 * iter)),
            ]);
            rec.advance_ns(100);
            k.end_with(&[("iter", Value::U64(iter)), ("gamma", Value::F64(2.0))]);
            let d = span(&rec, "dk.d_step");
            rec.advance_ns(50);
            d.end_with(&[("iter", Value::U64(iter)), ("mu", Value::F64(0.5))]);
            it.end_with(&[("iter", Value::U64(iter))]);
        }
        // Unrelated spans and events are ignored.
        let s = span(&rec, "runtime.invoke");
        rec.advance_ns(10);
        s.end_with(&[]);
        rec.event("board.fault", &[]);
        // The rational step carries no `iter`: it sums on a line of its own.
        for (ns, hit) in [(40, true), (60, false)] {
            let r = span(&rec, "dk.rational_step");
            rec.advance_ns(ns);
            r.end_with(&[
                ("sections", Value::U64(1)),
                ("probes", Value::U64(ns / 10)),
                ("warm_hit", Value::Bool(hit)),
                ("walk", Value::U64(if hit { 0 } else { 4 })),
            ]);
        }
        let (rows, rational) = dk_phase_breakdown(&to_jsonl(&rec.snapshot())).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rational,
            DkRationalRow {
                steps: 2,
                ns: 100.0,
                max_ns: 60.0,
                probes: 10,
                searched: 2,
                warm_hits: 1,
                walk: 4,
            }
        );
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.iter, i as u64);
            assert_eq!(r.gamma_bisect_ns, 300.0);
            assert_eq!((r.probes, r.cancelled), (7 + i as u64, i as u64));
            let i = i as u64;
            assert_eq!((r.hinted, r.hint_hits, r.walk), (i, i, 2 * i));
            assert_eq!(r.k_step_ns, 400.0);
            assert_eq!(r.d_step_ns, 50.0);
            assert_eq!(r.iteration_ns, 450.0);
        }
        let text = render_dk(&rows, &rational);
        assert!(text.contains("gamma_bisect"));
        assert!(text.contains("cancelled"));
        let last = text.lines().last().unwrap();
        assert_eq!(
            last, "hinted K-steps: 2/3 hits, 6 leaf steps, 1 cold fallbacks",
            "{text}"
        );
        let rat = text.lines().nth_back(1).unwrap();
        assert!(
            rat.contains("2 step(s)") && rat.contains("1/2 warm hits, 4 leaf steps"),
            "{text}"
        );
        let total = text.lines().nth_back(2).unwrap();
        assert!(total.starts_with("total"), "{text}");
        assert!(total.contains(" 15 ") && total.contains(" 1 "), "{text}");
        assert!(total.contains(" 1/1 ") && total.contains(" 2 "), "{text}");
    }

    #[test]
    fn summarize_parses_meta_header() {
        let rec = MemRecorder::manual();
        rec.counter_add("c", 1);
        let meta = crate::export::RunMeta::new(42, "yukta_hw_ssv+os_heur", true);
        let text = crate::export::to_jsonl_with_meta(&rec.snapshot(), &meta);
        let sum = summarize(&text).unwrap();
        assert_eq!(sum.metas.len(), 1);
        assert!(sum.metas[0].contains("seed 42"), "{}", sum.metas[0]);
        assert!(render(&sum).contains("run: schema v1"));
    }

    #[test]
    fn merge_aggregates_two_logs() {
        let make = |spans: u64, counter: f64, gauge: f64| {
            let rec = MemRecorder::manual();
            for _ in 0..spans {
                let s = span(&rec, "runtime.invoke");
                rec.advance_ns(100);
                s.end_with(&[]);
            }
            rec.counter_add("steps", counter as u64);
            rec.gauge_set("ema", gauge);
            rec.hist_record("lat", 10.0 * gauge);
            summarize(&to_jsonl(&rec.snapshot())).unwrap()
        };
        let mut a = make(2, 3.0, 1.0);
        let b = make(3, 4.0, 2.0);
        let wall = a.wall_ns + b.wall_ns;
        a.merge(b);
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].count, 5);
        assert_eq!(a.phases[0].total_ns, 500.0);
        assert_eq!(a.counters, vec![("steps".to_string(), 7.0)]);
        assert_eq!(a.gauges, vec![("ema".to_string(), 2.0)]); // last wins
        assert_eq!(a.wall_ns, wall);
        let (_, h) = &a.hists[0];
        assert_eq!(h.count, 2.0);
        assert_eq!(h.sum, 30.0);
        assert_eq!(h.min, Some(10.0));
        assert_eq!(h.max, Some(20.0));
    }

    #[test]
    fn health_breakdown_builds_step_ordered_timeline() {
        let rec = MemRecorder::manual();
        rec.event(
            "health.verdict",
            &[
                ("step", Value::U64(40)),
                ("verdict", Value::Str("phase_change")),
                ("score", Value::F64(1.0)),
            ],
        );
        rec.event(
            "health.refit",
            &[("step", Value::U64(41)), ("fit_residual", Value::F64(0.12))],
        );
        rec.event(
            "runtime.resynth",
            &[("step", Value::U64(42)), ("bumpless", Value::Bool(true))],
        );
        rec.event(
            "health.verdict",
            &[
                ("step", Value::U64(30)),
                ("verdict", Value::Str("drifting")),
                ("score", Value::F64(0.7)),
            ],
        );
        rec.event("board.fault", &[]); // ignored
        rec.gauge_set("health.margin_recent", 0.9);
        let text = to_jsonl(&rec.snapshot());
        let rows = health_breakdown(&text).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].step, 30);
        assert_eq!(rows[0].kind, "drifting");
        assert_eq!(rows[3].kind, "resynth");
        assert_eq!(rows[3].detail, 1.0);
        let sum = summarize(&text).unwrap();
        let rendered = render_health(&rows, &sum);
        assert!(rendered.contains("phase_change"));
        assert!(rendered.contains("health.margin_recent"));
    }

    #[test]
    fn health_breakdown_rejects_event_without_step() {
        let rec = MemRecorder::manual();
        rec.event("health.verdict", &[("verdict", Value::Str("drifting"))]);
        let err = health_breakdown(&to_jsonl(&rec.snapshot())).unwrap_err();
        assert!(err.contains("without step field"), "{err}");
    }

    #[test]
    fn dk_breakdown_rejects_dk_span_without_iter() {
        let rec = MemRecorder::manual();
        let s = span(&rec, "dk.k_step");
        rec.advance_ns(10);
        s.end_with(&[]);
        let err = dk_phase_breakdown(&to_jsonl(&rec.snapshot())).unwrap_err();
        assert!(err.contains("without iter field"), "{err}");
    }
}
