//! The benchmark's span recorder. Spans are opened around calls into the
//! program's layers, from the benchmark's own files; the program itself
//! carries no extra tracing.
//!
//! A layer's self time is its span minus the spans nested inside it,
//! computed online from a span stack, so per-substep spans (about 1.2
//! million board steps per Fig 9 pass) cost two clock reads each and no
//! allocation. Spans at the cell level and above, and the invocation-level
//! spans of each cell's first [`DETAIL_STEPS`] invocations, also go to a
//! [`MemRecorder`] that is written out as a Chrome trace at exit.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use yukta_obs::Recorder;
use yukta_obs::Value;
use yukta_obs::mem::{MemRecorder, Snapshot};

/// Invocations per cell whose spans go to the Chrome trace.
pub const DETAIL_STEPS: u64 = 8;

/// Samples kept per span for its median; later spans still count toward
/// the totals.
const MAX_SAMPLES: usize = 1 << 20;

/// The program's layers, as its crates divide it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `yukta-board`: plant, sensors, TMU, request queue.
    Board,
    /// `yukta-workloads`: phase models and open-loop traffic.
    Workloads,
    /// `yukta-core`: design pipeline, run loop, controllers, supervisor,
    /// health tap, journal.
    Core,
    /// `yukta-control` over `yukta-linalg`: sysid, H∞, D–K, µ.
    Control,
    /// `yukta-obs`: recorder, histograms, export.
    Obs,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 5] = [
        Layer::Board,
        Layer::Workloads,
        Layer::Core,
        Layer::Control,
        Layer::Obs,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Board => "board",
            Layer::Workloads => "workloads",
            Layer::Core => "core",
            Layer::Control => "control",
            Layer::Obs => "obs",
        }
    }
}

/// Where a span's entries go besides the self-time accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Detail {
    /// Always written to the Chrome trace.
    Always,
    /// Written for the first [`DETAIL_STEPS`] invocations of each cell.
    Sampled,
    /// Never written (per-substep spans).
    Never,
}

macro_rules! spans {
    ($($variant:ident => $name:literal, $layer:ident, $detail:ident;)*) => {
        /// A span the benchmark opens around a call into the program.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span { $($variant),* }

        impl Span {
            const ALL: &'static [Span] = &[$(Span::$variant),*];

            /// The span's name in the Chrome trace.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name),* }
            }

            /// The layer the span's self time is charged to.
            pub fn layer(self) -> Layer {
                match self { $(Span::$variant => Layer::$layer),* }
            }

            fn detail(self) -> Detail {
                match self { $(Span::$variant => Detail::$detail),* }
            }
        }
    };
}

spans! {
    Run => "core.run", Core, Always;
    Invocation => "core.invocation", Core, Sampled;
    Checkpoint => "core.checkpoint", Core, Sampled;
    Engine => "core.engine", Core, Sampled;
    Supervisor => "core.supervisor", Core, Sampled;
    HwInvoke => "core.hw_invoke", Core, Sampled;
    OsInvoke => "core.os_invoke", Core, Sampled;
    SsvHwInvoke => "core.hw_invoke.ssv", Core, Sampled;
    SsvOsInvoke => "core.os_invoke.ssv", Core, Sampled;
    Health => "core.health", Core, Sampled;
    Excitation => "core.design.excitation", Core, Always;
    DcGains => "core.design.dc_gains", Core, Always;
    BoardStep => "board.step", Board, Never;
    Sense => "board.sense", Board, Never;
    Queue => "board.queue", Board, Never;
    Actuate => "board.actuate", Board, Never;
    App => "workloads.app", Workloads, Never;
    Traffic => "workloads.traffic", Workloads, Never;
    Sysid => "control.sysid", Control, Always;
    Synthesize => "control.synthesize", Control, Always;
    Emit => "obs.emit", Obs, Sampled;
    Export => "obs.export", Obs, Always;
}

/// Per-span accounts.
#[derive(Debug, Clone, Default)]
struct Account {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    /// Self times (ns) of the first [`MAX_SAMPLES`] spans.
    samples: Vec<u32>,
}

struct Frame {
    span: Span,
    start: u64,
    child: u64,
}

/// Records spans into self-time accounts and a bounded Chrome trace.
pub struct Tracer {
    epoch: Instant,
    frames: RefCell<Vec<Frame>>,
    accounts: RefCell<Vec<Account>>,
    cell: Cell<u64>,
    step: Cell<u64>,
    chrome: MemRecorder,
}

/// Ends its span when dropped.
pub struct Guard<'a>(&'a Tracer);

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            frames: RefCell::new(Vec::new()),
            accounts: RefCell::new(vec![Account::default(); Span::ALL.len()]),
            cell: Cell::new(0),
            step: Cell::new(0),
            chrome: MemRecorder::manual(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the `cell` field of the spans that follow.
    pub fn set_cell(&self, cell: u64) {
        self.cell.set(cell);
        self.step.set(0);
    }

    /// Sets the `step` field of the spans that follow.
    pub fn set_step(&self, step: u64) {
        self.step.set(step);
    }

    /// Opens `span`; it ends when the guard drops.
    pub fn span(&self, span: Span) -> Guard<'_> {
        let start = self.now();
        self.frames.borrow_mut().push(Frame {
            span,
            start,
            child: 0,
        });
        Guard(self)
    }

    /// Charges a finished leaf span of `dur_ns` (timed by the caller, for
    /// calls too small to afford a guard) to `span` and its parent.
    pub fn leaf(&self, span: Span, dur_ns: u64) {
        self.charge(span, dur_ns, dur_ns);
        if let Some(parent) = self.frames.borrow_mut().last_mut() {
            parent.child += dur_ns;
        }
    }

    fn exit(&self) {
        let end = self.now();
        let frame = self
            .frames
            .borrow_mut()
            .pop()
            .expect("span guard without an open frame");
        let dur = end.saturating_sub(frame.start);
        self.charge(frame.span, dur, dur.saturating_sub(frame.child));
        if let Some(parent) = self.frames.borrow_mut().last_mut() {
            parent.child += dur;
        }
        let keep = match frame.span.detail() {
            Detail::Always => true,
            Detail::Sampled => self.step.get() < DETAIL_STEPS,
            Detail::Never => false,
        };
        if keep {
            let name = frame.span.name();
            self.chrome.set_time_ns(frame.start);
            let token = self.chrome.span_begin(name);
            self.chrome.set_time_ns(end);
            self.chrome.span_end(
                name,
                token,
                &[
                    ("cell", Value::U64(self.cell.get())),
                    ("step", Value::U64(self.step.get())),
                ],
            );
        }
    }

    fn charge(&self, span: Span, total_ns: u64, self_ns: u64) {
        let mut accounts = self.accounts.borrow_mut();
        let a = &mut accounts[span as usize];
        a.count += 1;
        a.total_ns += total_ns;
        a.self_ns += self_ns;
        if a.samples.len() < MAX_SAMPLES {
            a.samples.push(u32::try_from(self_ns).unwrap_or(u32::MAX));
        }
    }

    /// How many times `span` was recorded.
    pub fn count(&self, span: Span) -> u64 {
        self.accounts.borrow()[span as usize].count
    }

    /// Summed duration of `span`, nested spans included (ns).
    pub fn total_ns(&self, span: Span) -> u64 {
        self.accounts.borrow()[span as usize].total_ns
    }

    /// Self-time samples of `span` (ns).
    pub fn samples(&self, span: Span) -> Vec<f64> {
        self.accounts.borrow()[span as usize]
            .samples
            .iter()
            .map(|&v| f64::from(v))
            .collect()
    }

    /// Summed self time of every span charged to `layer` (ns).
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        let accounts = self.accounts.borrow();
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| accounts[s as usize].self_ns)
            .sum()
    }

    /// The spans kept for the Chrome trace.
    pub fn chrome_snapshot(&self) -> Snapshot {
        self.chrome.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_nested_spans_and_leaves() {
        let t = Tracer::new();
        {
            let _run = t.span(Span::Run);
            spin(200_000);
            {
                let _inv = t.span(Span::Invocation);
                spin(200_000);
            }
            t.leaf(Span::BoardStep, 100_000);
        }
        let run_self = t.samples(Span::Run)[0];
        let inv_total = t.total_ns(Span::Invocation) as f64;
        let run_total = t.total_ns(Span::Run) as f64;
        assert!((run_self - (run_total - inv_total - 100_000.0)).abs() < 1.0);
        assert_eq!(t.layer_self_ns(Layer::Board), 100_000);
        // Every nanosecond of the root span is charged to exactly one span.
        let charged: u64 = Layer::ALL.iter().map(|&l| t.layer_self_ns(l)).sum();
        assert_eq!(charged, t.total_ns(Span::Run));
    }

    #[test]
    fn chrome_trace_samples_only_early_invocations() {
        let t = Tracer::new();
        t.set_cell(3);
        for step in 0..DETAIL_STEPS + 4 {
            t.set_step(step);
            let _inv = t.span(Span::Invocation);
            t.leaf(Span::BoardStep, 10);
        }
        let snap = t.chrome_snapshot();
        assert_eq!(snap.entries.len() as u64, DETAIL_STEPS);
        assert!(snap.entries.iter().all(|e| e.name == "core.invocation"));
        assert_eq!(t.count(Span::Invocation), DETAIL_STEPS + 4);
        assert_eq!(t.count(Span::BoardStep), DETAIL_STEPS + 4);
    }
}
