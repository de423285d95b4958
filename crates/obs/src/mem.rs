//! In-memory recorder: the concrete sink behind `--obs` runs.
//!
//! A recorded span or event allocates nothing of its own: its fields are
//! appended to one field arena shared by every entry of the recorder, and
//! string values are interned once per recorder, so repeated labels (mode,
//! level, cluster, verdict, fault kind) share one allocation.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::FixedHistogram;
use crate::{Fields, Recorder, Value};

/// An owned field value, produced when an entry is copied into the sink.
/// Strings are the recorder's interned copies.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(Arc<str>),
    Bool(bool),
}

/// One recorded field: its name and owned value.
pub type Field = (&'static str, OwnedValue);

/// One recorded span or event.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Start time, nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// `Some(duration)` for spans, `None` for point events.
    pub dur_ns: Option<u64>,
    /// Small dense thread index (0 = first thread seen by this recorder).
    pub tid: u32,
    pub name: &'static str,
    /// This entry's slice of the field arena; read it through
    /// [`Snapshot::fields_of`].
    pub fields: Range<usize>,
}

/// A consistent copy of everything a [`MemRecorder`] has captured.
/// `entries` are sorted by `ts_ns` (stable, so same-timestamp entries keep
/// their recording order); their fields live in the shared `fields` arena,
/// which the sort leaves in recording order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub entries: Vec<Entry>,
    /// Every entry's fields, back to back in recording order.
    pub fields: Vec<Field>,
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, f64)>,
    pub hists: Vec<(&'static str, FixedHistogram)>,
}

impl Snapshot {
    /// The fields recorded with `entry`, in call-site order.
    pub fn fields_of(&self, entry: &Entry) -> &[Field] {
        &self.fields[entry.fields.clone()]
    }
}

enum Clock {
    /// Monotonic wall clock relative to recorder construction.
    Monotonic(Instant),
    /// Test clock advanced explicitly; makes wire formats fully
    /// deterministic for golden tests.
    Manual(AtomicU64),
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    fields: Vec<Field>,
    strings: HashSet<Arc<str>>,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    hists: Vec<(&'static str, FixedHistogram)>,
    threads: Vec<std::thread::ThreadId>,
}

impl Inner {
    fn tid(&mut self) -> u32 {
        let id = std::thread::current().id();
        match self.threads.iter().position(|t| *t == id) {
            Some(i) => i as u32,
            None => {
                self.threads.push(id);
                (self.threads.len() - 1) as u32
            }
        }
    }

    /// The recorder's shared copy of `s`, made on first sight.
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.strings.get(s) {
            return shared.clone();
        }
        let shared: Arc<str> = Arc::from(s);
        self.strings.insert(shared.clone());
        shared
    }
}

/// Captures telemetry into memory for export at end of run. Span begin is
/// lock-free (one clock read); every completed span/event takes the mutex
/// once to append its entry and fields.
pub struct MemRecorder {
    clock: Clock,
    inner: Mutex<Inner>,
}

impl Default for MemRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MemRecorder {
    /// A recorder timing against the process monotonic clock.
    pub fn new() -> Self {
        Self {
            clock: Clock::Monotonic(Instant::now()),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A recorder with a manually driven clock starting at 0 ns. Time only
    /// moves via [`MemRecorder::advance_ns`] / [`MemRecorder::set_time_ns`],
    /// so captured timestamps are exactly reproducible.
    pub fn manual() -> Self {
        Self {
            clock: Clock::Manual(AtomicU64::new(0)),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Advances a manual clock; no effect on a monotonic recorder.
    pub fn advance_ns(&self, delta: u64) {
        if let Clock::Manual(t) = &self.clock {
            t.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets a manual clock; no effect on a monotonic recorder.
    pub fn set_time_ns(&self, ns: u64) {
        if let Clock::Manual(t) = &self.clock {
            t.store(ns, Ordering::Relaxed);
        }
    }

    fn now_ns(&self) -> u64 {
        match &self.clock {
            Clock::Monotonic(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    /// Pre-registers a histogram with custom bucket bounds; later
    /// `hist_record` calls reuse it. Histograms recorded without
    /// registration get the default nanosecond ladder.
    pub fn register_hist(&self, name: &'static str, bounds: &[f64]) {
        let mut inner = self.lock();
        if !inner.hists.iter().any(|(n, _)| *n == name) {
            inner.hists.push((name, FixedHistogram::new(bounds)));
        }
    }

    /// A sorted, consistent copy of everything captured so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut entries = inner.entries.clone();
        entries.sort_by_key(|e| e.ts_ns);
        Snapshot {
            entries,
            fields: inner.fields.clone(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            hists: inner.hists.clone(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned telemetry mutex must not take the run down with it:
        // the captured data is still structurally sound.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push(&self, ts_ns: u64, dur_ns: Option<u64>, name: &'static str, fields: Fields<'_>) {
        let mut inner = self.lock();
        let tid = inner.tid();
        let start = inner.fields.len();
        for &(k, v) in fields {
            let v = match v {
                Value::U64(x) => OwnedValue::U64(x),
                Value::I64(x) => OwnedValue::I64(x),
                Value::F64(x) => OwnedValue::F64(x),
                Value::Str(s) => OwnedValue::Str(inner.intern(s)),
                Value::Bool(b) => OwnedValue::Bool(b),
            };
            inner.fields.push((k, v));
        }
        let fields = start..inner.fields.len();
        inner.entries.push(Entry {
            ts_ns,
            dur_ns,
            tid,
            name,
            fields,
        });
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_begin(&self, _name: &'static str) -> u64 {
        self.now_ns()
    }

    fn span_end(&self, name: &'static str, token: u64, fields: Fields<'_>) {
        let now = self.now_ns();
        self.push(token, Some(now.saturating_sub(token)), name, fields);
    }

    fn event(&self, name: &'static str, fields: Fields<'_>) {
        self.push(self.now_ns(), None, name, fields);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += delta,
            None => inner.counters.push((name, delta)),
        }
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        let mut inner = self.lock();
        match inner.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => inner.gauges.push((name, value)),
        }
    }

    fn hist_record(&self, name: &'static str, value: f64) {
        let mut inner = self.lock();
        match inner.hists.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(value),
            None => {
                let mut h = FixedHistogram::new_ns();
                h.record(value);
                inner.hists.push((name, h));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn manual_clock_produces_exact_timestamps() {
        let rec = MemRecorder::manual();
        rec.set_time_ns(100);
        let s = span(&rec, "work");
        rec.advance_ns(50);
        s.end_with(&[("n", Value::U64(7))]);
        rec.event("tick", &[]);
        let snap = rec.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].ts_ns, 100);
        assert_eq!(snap.entries[0].dur_ns, Some(50));
        assert_eq!(snap.entries[1].ts_ns, 150);
        assert_eq!(snap.entries[1].dur_ns, None);
        assert_eq!(snap.entries[0].tid, 0);
    }

    #[test]
    fn counters_gauges_hists_aggregate() {
        let rec = MemRecorder::manual();
        rec.counter_add("c", 2);
        rec.counter_add("c", 3);
        rec.gauge_set("g", 1.0);
        rec.gauge_set("g", 2.5);
        rec.hist_record("h", 2000.0);
        rec.hist_record("h", 5000.0);
        let snap = rec.snapshot();
        assert_eq!(snap.counters, vec![("c", 5)]);
        assert_eq!(snap.gauges, vec![("g", 2.5)]);
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].1.count(), 2);
        assert_eq!(snap.hists[0].1.sum(), 7000.0);
    }

    #[test]
    fn snapshot_entries_are_sorted_by_start_time() {
        let rec = MemRecorder::manual();
        rec.set_time_ns(10);
        let outer = rec.span_begin("outer");
        rec.advance_ns(5);
        let inner = rec.span_begin("inner");
        rec.advance_ns(5);
        rec.span_end("inner", inner, &[]);
        rec.advance_ns(5);
        rec.span_end("outer", outer, &[]);
        let snap = rec.snapshot();
        // inner *completes* first but outer *starts* first.
        assert_eq!(snap.entries[0].name, "outer");
        assert_eq!(snap.entries[1].name, "inner");
    }

    #[test]
    fn fields_follow_their_entries_through_the_sort() {
        let rec = MemRecorder::manual();
        rec.set_time_ns(10);
        let outer = rec.span_begin("outer");
        rec.advance_ns(5);
        rec.event(
            "tick",
            &[("n", Value::U64(1)), ("mode", Value::Str("safe"))],
        );
        rec.event("bare", &[]);
        rec.span_end("outer", outer, &[("mode", Value::Str("safe"))]);
        let snap = rec.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|e| e.name).collect();
        assert_eq!(names, ["outer", "tick", "bare"]);
        let safe = OwnedValue::Str(Arc::from("safe"));
        assert_eq!(snap.fields_of(&snap.entries[0]), [("mode", safe.clone())]);
        assert_eq!(
            snap.fields_of(&snap.entries[1]),
            [("n", OwnedValue::U64(1)), ("mode", safe)]
        );
        assert!(snap.fields_of(&snap.entries[2]).is_empty());
    }

    #[test]
    fn string_values_are_interned_per_recorder() {
        let rec = MemRecorder::manual();
        let label = String::from("drifting");
        rec.event("a", &[("verdict", Value::Str(&label))]);
        rec.event("b", &[("verdict", Value::Str("drifting"))]);
        let snap = rec.snapshot();
        let [(_, OwnedValue::Str(a)), (_, OwnedValue::Str(b))] = &snap.fields[..] else {
            panic!("expected two string fields, got {:?}", snap.fields);
        };
        assert!(Arc::ptr_eq(a, b), "equal labels must share one copy");
    }

    #[test]
    fn threads_get_dense_ids() {
        let rec = std::sync::Arc::new(MemRecorder::new());
        rec.event("main", &[]);
        let r2 = rec.clone();
        std::thread::spawn(move || r2.event("worker", &[]))
            .join()
            .ok();
        let snap = rec.snapshot();
        let tids: Vec<u32> = snap.entries.iter().map(|e| e.tid).collect();
        assert!(tids.contains(&0) && tids.contains(&1));
    }
}
