//! Application models and their runtime engine.
//!
//! A [`Workload`] is one or more applications, each a sequence of
//! [`PhaseSpec`]s: a thread count, an amount of work in giga-instructions,
//! and execution characteristics (memory-boundedness and per-cluster IPC
//! factors). The [`WorkloadRun`] engine turns these into per-step
//! [`ThreadLoad`]s for the board and consumes the board's progress report,
//! exactly the role the real binaries played on the XU3.

use yukta_board::{Slots, ThreadLoad};

/// Which benchmark suite an application models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// PARSEC multithreaded benchmarks (native inputs in the paper).
    Parsec,
    /// SPEC CPU2006 integer codes (8 copies, train inputs).
    SpecInt,
    /// SPEC CPU2006 floating-point codes.
    SpecFp,
    /// The disjoint training set used for system identification.
    Training,
    /// Heterogeneous mixes (Section VI-C).
    Mix,
}

/// One phase of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Human-readable phase name ("serial", "parallel", …).
    pub name: String,
    /// Active threads during the phase.
    pub threads: usize,
    /// Total work in giga-instructions, shared by the phase's threads.
    pub work_gi: f64,
    /// Memory-boundedness in `[0, 1]`.
    pub mem_intensity: f64,
    /// IPC multiplier on a big core (captures exploitable ILP).
    pub ipc_big: f64,
    /// IPC multiplier on a little core.
    pub ipc_little: f64,
}

/// One modeled application.
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    /// Benchmark name ("blackscholes", "mcf", …).
    pub name: String,
    /// Suite the benchmark belongs to.
    pub suite: Suite,
    /// Thread slots the application owns (its maximum parallelism).
    pub slots: usize,
    /// Phase sequence.
    pub phases: Vec<PhaseSpec>,
}

impl App {
    /// Total work across all phases (giga-instructions).
    pub fn total_work(&self) -> f64 {
        self.phases.iter().map(|p| p.work_gi).sum()
    }

    /// A copy scaled to `threads` parallelism with proportionally reduced
    /// work — how the paper builds 4-thread mix components from 8-thread
    /// benchmarks.
    pub fn scaled_to(&self, threads: usize) -> App {
        assert!(threads >= 1, "an app needs at least one thread");
        let ratio = threads as f64 / self.slots as f64;
        App {
            name: self.name.clone(),
            suite: self.suite,
            slots: threads,
            phases: self
                .phases
                .iter()
                .map(|p| PhaseSpec {
                    name: p.name.clone(),
                    threads: p.threads.min(threads).max(1),
                    work_gi: p.work_gi * ratio,
                    mem_intensity: p.mem_intensity,
                    ipc_big: p.ipc_big,
                    ipc_little: p.ipc_little,
                })
                .collect(),
        }
    }
}

/// A runnable workload: one application, or several side by side (a mix).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (the label used in the paper's figures).
    pub name: String,
    /// Component applications.
    pub apps: Vec<App>,
}

impl Workload {
    /// A workload consisting of a single application.
    pub fn single(app: App) -> Self {
        Workload {
            name: app.name.clone(),
            apps: vec![app],
        }
    }

    /// A named mix of applications.
    pub fn mix(name: &str, apps: Vec<App>) -> Self {
        Workload {
            name: name.to_string(),
            apps,
        }
    }

    /// Total thread slots across all components.
    pub fn n_slots(&self) -> usize {
        self.apps.iter().map(|a| a.slots).sum()
    }

    /// Total work across all components (giga-instructions).
    pub fn total_work(&self) -> f64 {
        self.apps.iter().map(App::total_work).sum()
    }
}

/// Execution state of one component application.
#[derive(Debug, Clone, PartialEq)]
struct AppRun {
    phase: usize,
    remaining_gi: f64,
}

impl AppRun {
    /// Everything the app's slot loads depend on besides the app itself.
    fn loads_key(&self) -> (usize, bool) {
        (self.phase, self.remaining_gi > 0.0)
    }

    /// Writes the app's per-slot loads: the current phase's
    /// characteristics on its first `threads` slots while the phase has
    /// work left, idle everywhere else.
    fn write_loads(&self, app: &App, out: &mut [ThreadLoad]) {
        let phase = app
            .phases
            .get(self.phase)
            .filter(|_| self.remaining_gi > 0.0);
        for (slot, load) in out.iter_mut().enumerate() {
            *load = match phase {
                Some(p) if slot < p.threads => ThreadLoad {
                    active: true,
                    mem_intensity: p.mem_intensity,
                    ipc_factor_big: p.ipc_big,
                    ipc_factor_little: p.ipc_little,
                },
                _ => ThreadLoad::idle(),
            };
        }
    }
}

/// The runtime engine driving a [`Workload`] against the board.
///
/// # Examples
///
/// ```
/// use yukta_workloads::app::{App, PhaseSpec, Suite, Workload, WorkloadRun};
///
/// let app = App {
///     name: "toy".into(),
///     suite: Suite::Training,
///     slots: 2,
///     phases: vec![PhaseSpec {
///         name: "parallel".into(),
///         threads: 2,
///         work_gi: 1.0,
///         mem_intensity: 0.2,
///         ipc_big: 1.0,
///         ipc_little: 1.0,
///     }],
/// };
/// let mut run = WorkloadRun::new(&Workload::single(app));
/// assert_eq!(run.loads().len(), 2);
/// run.advance(&[0.6, 0.6]); // 1.2 GI retired ≥ 1.0 GI of work
/// assert!(run.is_done());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    workload: Workload,
    runs: Vec<AppRun>,
    /// Per-slot loads of the current phases. An app's slots are rewritten
    /// only when its [`AppRun::loads_key`] changes.
    loads: Vec<ThreadLoad>,
}

impl WorkloadRun {
    /// Starts the workload from its first phase.
    pub fn new(workload: &Workload) -> Self {
        let runs: Vec<AppRun> = workload
            .apps
            .iter()
            .map(|a| AppRun {
                phase: 0,
                remaining_gi: a.phases.first().map_or(0.0, |p| p.work_gi),
            })
            .collect();
        let mut loads = vec![ThreadLoad::idle(); workload.n_slots()];
        let mut base = 0;
        for (app, run) in workload.apps.iter().zip(&runs) {
            run.write_loads(app, &mut loads[base..base + app.slots]);
            base += app.slots;
        }
        WorkloadRun {
            workload: workload.clone(),
            runs,
            loads,
        }
    }

    /// The workload being run.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Current per-slot thread loads, one entry per slot across all
    /// components (component order, then slot order).
    ///
    /// The view borrows a cache that [`WorkloadRun::advance`] rewrites
    /// only where an app changes phase or drains its phase's work, so
    /// reading the loads allocates nothing. Copy them out (`to_vec`) to
    /// keep them across an `advance`.
    pub fn loads(&self) -> Slots<'_, ThreadLoad> {
        Slots(&self.loads)
    }

    /// Consumes the board's per-slot progress (giga-instructions retired)
    /// and advances phases as their work pools drain.
    ///
    /// # Panics
    ///
    /// Panics if `progress` does not have one entry per slot.
    pub fn advance(&mut self, progress: &[f64]) {
        assert_eq!(progress.len(), self.workload.n_slots(), "slot count");
        let mut base = 0;
        for (app, run) in self.workload.apps.iter().zip(self.runs.iter_mut()) {
            let slots = base..base + app.slots;
            base += app.slots;
            let done: f64 = progress[slots.clone()].iter().sum();
            if run.phase >= app.phases.len() {
                continue;
            }
            let key = run.loads_key();
            run.remaining_gi -= done;
            while run.remaining_gi <= 0.0 && run.phase < app.phases.len() {
                let carry = -run.remaining_gi;
                run.phase += 1;
                run.remaining_gi = app
                    .phases
                    .get(run.phase)
                    .map_or(0.0, |p| (p.work_gi - carry).max(0.0));
            }
            if run.loads_key() != key {
                run.write_loads(app, &mut self.loads[slots]);
            }
        }
    }

    /// Whether every component has exhausted all its phases.
    pub fn is_done(&self) -> bool {
        self.workload.apps.iter().zip(&self.runs).all(|(a, r)| {
            r.phase >= a.phases.len() || (r.phase == a.phases.len() - 1 && r.remaining_gi <= 0.0)
        })
    }

    /// Fraction of total work completed, in `[0, 1]`.
    pub fn progress_fraction(&self) -> f64 {
        let total = self.workload.total_work();
        if total <= 0.0 {
            return 1.0;
        }
        let remaining: f64 = self
            .workload
            .apps
            .iter()
            .zip(&self.runs)
            .map(|(a, r)| {
                let future: f64 = a.phases.iter().skip(r.phase + 1).map(|p| p.work_gi).sum();
                future + r.remaining_gi.max(0.0)
            })
            .sum();
        (1.0 - remaining / total).clamp(0.0, 1.0)
    }

    /// Number of currently active threads across all components — the
    /// signal the OS layer watches.
    pub fn active_threads(&self) -> usize {
        self.loads.iter().filter(|l| l.active).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-call builder the loads cache replaced: every slot's load
    /// recomputed from the phase tables.
    fn reference_loads(run: &WorkloadRun) -> Vec<ThreadLoad> {
        let mut out = Vec::with_capacity(run.workload.n_slots());
        for (app, r) in run.workload.apps.iter().zip(&run.runs) {
            let phase = app.phases.get(r.phase);
            for slot in 0..app.slots {
                match phase {
                    Some(p) if slot < p.threads && r.remaining_gi > 0.0 => out.push(ThreadLoad {
                        active: true,
                        mem_intensity: p.mem_intensity,
                        ipc_factor_big: p.ipc_big,
                        ipc_factor_little: p.ipc_little,
                    }),
                    _ => out.push(ThreadLoad::idle()),
                }
            }
        }
        out
    }

    fn app_strategy() -> impl Strategy<Value = App> {
        let work = prop_oneof![1 => Just(0.0), 4 => 0.5..20.0f64];
        (
            1usize..=8,
            prop::collection::vec((1usize..=8, work, 0.0..1.0f64, 0.5..2.0f64), 1..=4),
        )
            .prop_map(|(slots, specs)| App {
                name: "prop".into(),
                suite: Suite::Training,
                slots,
                phases: specs
                    .into_iter()
                    .map(|(threads, work_gi, mem_intensity, ipc)| PhaseSpec {
                        name: "p".into(),
                        threads: threads.min(slots),
                        work_gi,
                        mem_intensity,
                        ipc_big: ipc,
                        ipc_little: 0.5 * ipc,
                    })
                    .collect(),
            })
    }

    /// Per-slot progress values: zero, tiny, ordinary, huge, negative, NaN.
    fn chunk_strategy() -> impl Strategy<Value = f64> {
        prop_oneof![
            2 => Just(0.0),
            1 => 1e-12..1e-9f64,
            6 => 0.01..2.0f64,
            1 => 1e3..1e6f64,
            1 => -2.0..-1e-6f64,
            1 => Just(f64::NAN),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn cached_loads_match_reference(
            apps in prop::collection::vec(app_strategy(), 1..=3),
            chunks in prop::collection::vec(chunk_strategy(), 1..=64),
            steps in 1usize..=80,
        ) {
            let wl = Workload::mix("prop", apps);
            let mut run = WorkloadRun::new(&wl);
            let slots = wl.n_slots();
            let check = |run: &WorkloadRun| {
                let want = reference_loads(run);
                assert_eq!(&run.loads()[..], &want[..]);
                assert_eq!(
                    run.active_threads(),
                    want.iter().filter(|l| l.active).count()
                );
            };
            check(&run);
            let mut next = chunks.iter().cycle();
            for _ in 0..steps {
                let progress: Vec<f64> = next.by_ref().take(slots).copied().collect();
                run.advance(&progress);
                check(&run);
            }
        }
    }

    fn two_phase_app() -> App {
        App {
            name: "t".into(),
            suite: Suite::Parsec,
            slots: 4,
            phases: vec![
                PhaseSpec {
                    name: "serial".into(),
                    threads: 1,
                    work_gi: 1.0,
                    mem_intensity: 0.1,
                    ipc_big: 1.0,
                    ipc_little: 1.0,
                },
                PhaseSpec {
                    name: "parallel".into(),
                    threads: 4,
                    work_gi: 4.0,
                    mem_intensity: 0.3,
                    ipc_big: 1.0,
                    ipc_little: 1.0,
                },
            ],
        }
    }

    #[test]
    fn serial_phase_activates_one_thread() {
        let run = WorkloadRun::new(&Workload::single(two_phase_app()));
        let loads = run.loads();
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().filter(|l| l.active).count(), 1);
    }

    #[test]
    fn phase_transition_with_carryover() {
        let mut run = WorkloadRun::new(&Workload::single(two_phase_app()));
        // Retire 1.5 GI on thread 0: finishes serial (1.0) and carries 0.5
        // into the parallel phase.
        run.advance(&[1.5, 0.0, 0.0, 0.0]);
        assert_eq!(run.active_threads(), 4);
        assert!((run.progress_fraction() - 1.5 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn completion() {
        let mut run = WorkloadRun::new(&Workload::single(two_phase_app()));
        run.advance(&[1.0, 0.0, 0.0, 0.0]);
        assert!(!run.is_done());
        run.advance(&[1.0, 1.0, 1.0, 1.0]);
        assert!(run.is_done());
        assert_eq!(run.active_threads(), 0);
        assert!((run.progress_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mix_components_progress_independently() {
        let a = two_phase_app();
        let mut b = two_phase_app();
        b.name = "u".into();
        let mix = Workload::mix("ab", vec![a, b]);
        let mut run = WorkloadRun::new(&mix);
        assert_eq!(run.loads().len(), 8);
        // Finish only component a.
        run.advance(&[5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(!run.is_done());
        let loads = run.loads();
        assert!(loads[..4].iter().all(|l| !l.active));
        assert_eq!(loads[4..].iter().filter(|l| l.active).count(), 1);
    }

    #[test]
    fn scaled_app_preserves_rate_shape() {
        let app = two_phase_app();
        let half = app.scaled_to(2);
        assert_eq!(half.slots, 2);
        assert!((half.total_work() - app.total_work() / 2.0).abs() < 1e-9);
        assert_eq!(half.phases[1].threads, 2);
        assert_eq!(half.phases[0].threads, 1);
    }

    #[test]
    fn loads_reflect_phase_characteristics() {
        let mut run = WorkloadRun::new(&Workload::single(two_phase_app()));
        assert!((run.loads()[0].mem_intensity - 0.1).abs() < 1e-12);
        run.advance(&[1.0, 0.0, 0.0, 0.0]);
        assert!((run.loads()[0].mem_intensity - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "slot count")]
    fn wrong_progress_length_panics() {
        let mut run = WorkloadRun::new(&Workload::single(two_phase_app()));
        run.advance(&[1.0]);
    }
}
