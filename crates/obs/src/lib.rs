//! `yukta-obs` — zero-dependency tracing, metrics, and profiling substrate.
//!
//! The paper evaluates Yukta entirely through post-hoc traces; this crate adds
//! the in-run telemetry a production controller needs (cf. ControlPULP's
//! in-loop jitter accounting): hierarchical spans with monotonic timing,
//! counters / gauges / fixed-bucket histograms, and structured events, all
//! behind a [`Recorder`] trait whose no-op default has measurably negligible
//! overhead (gated < 2% in `bench_sweep --quick`).
//!
//! Design constraints, in order:
//! 1. **Off means off.** Every instrumentation site is guarded by
//!    [`Recorder::enabled`]; the [`NoopRecorder`] answers `false` without
//!    touching a clock, so uninstrumented runs stay bit-identical and nearly
//!    cycle-identical.
//! 2. **Allocation-free hot path.** Field lists are stack slices of borrowed
//!    [`Value`]s; histograms use fixed bucket bounds with linear-scan
//!    increment. The in-memory sink ([`mem::MemRecorder`]) copies an entry
//!    under its lock into append-only storage shared by all entries (one
//!    entry list, one field arena), and interns string values once per
//!    recorder, so a recorded span or event allocates no `Vec` or `String`
//!    of its own.
//! 3. **Offline-safe.** No dependencies at all — exporters ([`export`]) and
//!    the validating JSON parser ([`json`]) are hand-rolled, matching the
//!    `third_party/` vendored-stub policy.

pub mod export;
pub mod health;
pub mod hist;
pub mod json;
pub mod mem;
pub mod report;

use std::fmt;
use std::sync::{Arc, OnceLock};

/// A telemetry field value. Borrowed where possible so call sites build
/// field lists on the stack without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
}

/// A borrowed field list, e.g. `&[("iter", Value::U64(2))]`.
pub type Fields<'a> = &'a [(&'static str, Value<'a>)];

/// Sink for spans, events, and metrics. Implementations must be cheap when
/// disabled: every method on a disabled recorder should be a few predictable
/// branches at most.
pub trait Recorder: Send + Sync {
    /// Whether this recorder captures anything. Instrumentation sites use
    /// this to skip field construction entirely when telemetry is off.
    fn enabled(&self) -> bool;

    /// Marks the start of a named span and returns an opaque token that must
    /// be passed back to [`Recorder::span_end`]. Disabled recorders return 0
    /// without reading a clock.
    fn span_begin(&self, name: &'static str) -> u64;

    /// Closes a span opened by [`Recorder::span_begin`].
    fn span_end(&self, name: &'static str, token: u64, fields: Fields<'_>);

    /// Records a point-in-time structured event.
    fn event(&self, name: &'static str, fields: Fields<'_>);

    /// Adds `delta` to a monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Sets a last-value-wins gauge.
    fn gauge_set(&self, name: &'static str, value: f64);

    /// Records one observation into a fixed-bucket histogram.
    fn hist_record(&self, name: &'static str, value: f64);
}

/// Recorder that drops everything. This is the default wired through the
/// runtime; its cost per instrumentation site is one virtual call returning
/// a constant.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn span_begin(&self, _name: &'static str) -> u64 {
        0
    }
    fn span_end(&self, _name: &'static str, _token: u64, _fields: Fields<'_>) {}
    fn event(&self, _name: &'static str, _fields: Fields<'_>) {}
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: f64) {}
    fn hist_record(&self, _name: &'static str, _value: f64) {}
}

static NOOP: NoopRecorder = NoopRecorder;
static GLOBAL: OnceLock<&'static dyn Recorder> = OnceLock::new();

/// Installs a process-global recorder. Returns `false` if one was already
/// installed (the first installation wins, so telemetry streams stay
/// coherent). Must be called before the instrumented work starts — notably
/// before `yukta_core::design::default_design()` caches its synthesis.
pub fn install(rec: &'static dyn Recorder) -> bool {
    GLOBAL.set(rec).is_ok()
}

/// The process-global recorder; the shared no-op when none was installed.
pub fn handle() -> &'static dyn Recorder {
    GLOBAL.get().copied().unwrap_or(&NOOP)
}

/// A shared recorder slot for value types that need `Clone + Debug` (e.g.
/// `yukta_board::Board` derives both). Empty handles fall back to the
/// process-global recorder, so board-level telemetry works without plumbing
/// when a global recorder is installed.
#[derive(Clone, Default)]
pub struct ObsHandle {
    rec: Option<Arc<dyn Recorder>>,
}

impl ObsHandle {
    /// A handle bound to a specific recorder (does not follow the global).
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        Self { rec: Some(rec) }
    }

    /// The bound recorder, or the process-global one for default handles.
    pub fn get(&self) -> &dyn Recorder {
        match &self.rec {
            Some(rec) => rec.as_ref(),
            None => handle(),
        }
    }
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHandle")
            .field("bound", &self.rec.is_some())
            .finish()
    }
}

/// RAII span guard: ends the span on drop, or with fields via
/// [`Span::end_with`]. Holding one across `?` keeps error paths timed.
pub struct Span<'a> {
    rec: &'a dyn Recorder,
    name: &'static str,
    token: u64,
    live: bool,
}

impl<'a> Span<'a> {
    /// Ends the span now, attaching `fields` to it.
    pub fn end_with(mut self, fields: Fields<'_>) {
        self.live = false;
        self.rec.span_end(self.name, self.token, fields);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.live {
            self.rec.span_end(self.name, self.token, &[]);
        }
    }
}

/// Opens a span on `rec`. The no-op recorder makes this two virtual calls
/// total (begin + end) with no clock reads.
pub fn span<'a>(rec: &'a dyn Recorder, name: &'static str) -> Span<'a> {
    Span {
        rec,
        name,
        token: rec.span_begin(name),
        live: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_tokenless() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        assert_eq!(rec.span_begin("x"), 0);
        // All sinks accept input without effect.
        rec.span_end("x", 0, &[("k", Value::U64(1))]);
        rec.event("e", &[]);
        rec.counter_add("c", 3);
        rec.gauge_set("g", 1.5);
        rec.hist_record("h", 2.0);
    }

    #[test]
    fn default_obs_handle_falls_back_to_global_noop() {
        let h = ObsHandle::default();
        assert!(!h.get().enabled());
        assert_eq!(format!("{h:?}"), "ObsHandle { bound: false }");
    }

    #[test]
    fn bound_obs_handle_uses_its_recorder() {
        let rec = Arc::new(mem::MemRecorder::manual());
        let h = ObsHandle::new(rec.clone());
        assert!(h.get().enabled());
        h.get().event("e", &[]);
        assert_eq!(rec.snapshot().entries.len(), 1);
    }

    #[test]
    fn span_guard_ends_on_drop_and_on_end_with() {
        let rec = mem::MemRecorder::manual();
        {
            let _s = span(&rec, "a");
        }
        span(&rec, "b").end_with(&[("ok", Value::Bool(true))]);
        let snap = rec.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].name, "a");
        assert_eq!(snap.entries[1].name, "b");
        assert_eq!(snap.fields_of(&snap.entries[1]).len(), 1);
    }
}
