//! Execution metrics and time-series traces — the raw material of every
//! figure in the paper's evaluation.

use yukta_board::{ActuationAudit, FaultEvent, FaultStats};

use crate::supervisor::SupervisorStats;

/// Energy/delay metrics of one workload execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Cluster energy consumed (J).
    pub energy_joules: f64,
    /// Execution time (s).
    pub delay_seconds: f64,
    /// Whether the workload ran to completion (false = timeout).
    pub completed: bool,
}

impl Metrics {
    /// The paper's primary figure of merit: Energy × Delay (J·s).
    pub fn exd(&self) -> f64 {
        self.energy_joules * self.delay_seconds
    }
}

/// Wall-clock controller compute cost of one run: how much *real* time the
/// controller stack spent inside `invoke` across the run (the simulated
/// trace only carries simulated time). This is the control-law jitter
/// budget a production deployment cares about — the paper's prototype ran
/// as privileged processes every 500 ms, so `max_ns` must stay far below
/// that period.
///
/// Wall-clock times are inherently nondeterministic, so this struct is
/// deliberately **excluded** from [`Report::bit_identical`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComputeStats {
    /// Controller invocations measured.
    pub invocations: u64,
    /// Total wall-clock time inside `invoke` (ns).
    pub total_ns: u64,
    /// Worst single invocation (ns).
    pub max_ns: u64,
}

impl ComputeStats {
    /// Mean wall-clock time per invocation (ns); 0 when nothing ran.
    pub fn mean_ns(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.invocations as f64
        }
    }

    /// Total wall-clock compute time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// One sampled point of an execution trace (taken at each controller
/// invocation, every 500 ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulated time (s).
    pub time: f64,
    /// Big-cluster power from the sensor (W).
    pub p_big: f64,
    /// Little-cluster power from the sensor (W).
    pub p_little: f64,
    /// Hotspot temperature (°C).
    pub temp: f64,
    /// Total BIPS over the last controller period.
    pub bips: f64,
    /// Big-cluster BIPS over the last period.
    pub bips_big: f64,
    /// Little-cluster BIPS over the last period.
    pub bips_little: f64,
    /// Effective big-cluster frequency (GHz).
    pub f_big: f64,
    /// Effective little-cluster frequency (GHz).
    pub f_little: f64,
    /// Powered big cores.
    pub big_cores: usize,
    /// Powered little cores.
    pub little_cores: usize,
    /// Threads currently assigned to the big cluster.
    pub threads_big: usize,
    /// Active threads in the workload.
    pub active_threads: usize,
}

/// A full execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Samples in time order.
    pub samples: Vec<TraceSample>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, s: TraceSample) {
        self.samples.push(s);
    }

    /// Mean of an arbitrary per-sample quantity over the trace.
    pub fn mean_of(&self, f: impl Fn(&TraceSample) -> f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(&f).sum::<f64>() / self.samples.len() as f64
    }

    /// Counts threshold crossings (rising edges) of a quantity — used to
    /// quantify the power oscillations of Figure 10.
    pub fn crossings_above(&self, f: impl Fn(&TraceSample) -> f64, threshold: f64) -> usize {
        let mut count = 0;
        let mut above = false;
        for s in &self.samples {
            let v = f(s);
            if v > threshold && !above {
                count += 1;
                above = true;
            } else if v <= threshold {
                above = false;
            }
        }
        count
    }
}

/// What the fault injector did during one run (attached to supervised
/// executions that carried a fault plan).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Fault-plan RNG seed.
    pub seed: u64,
    /// Fault-plan severity knob in `[0, 1]`.
    pub severity: f64,
    /// Per-kind injection counters.
    pub stats: FaultStats,
    /// Every injected fault in time order.
    pub trace: Vec<FaultEvent>,
}

/// Request-serving outcome of one run (attached when the run carried a
/// [`crate::runtime::ServingSpec`]). All fields are deterministic and part
/// of [`Report::bit_identical`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloReport {
    /// Requests offered by the open-loop arrival process.
    pub offered: u64,
    /// Requests admitted past shedding and the backlog cap.
    pub admitted: u64,
    /// Requests dropped by admission control (load shedding).
    pub shed: u64,
    /// Requests rejected at the full backlog.
    pub rejected: u64,
    /// Admitted requests dropped after exceeding the queue timeout.
    pub timed_out: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Run-lifetime p95 latency (s); 0 when nothing completed.
    pub p95_s: f64,
    /// Run-lifetime p99 latency (s); 0 when nothing completed.
    pub p99_s: f64,
    /// Controller invocations whose windowed p99 exceeded the SLO bound,
    /// as a fraction of serving invocations.
    pub violation_frac: f64,
    /// Highest admission shed fraction commanded during the run.
    pub max_shed_frac: f64,
}

impl SloReport {
    /// All requests dropped for any reason (shed + rejected + timed out).
    pub fn dropped(&self) -> u64 {
        self.shed + self.rejected + self.timed_out
    }

    /// Fraction of offered requests that were served to completion.
    pub fn goodput_frac(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }
}

/// The outcome of running one scheme on one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Aggregate metrics.
    pub metrics: Metrics,
    /// Full 500 ms-resolution trace.
    pub trace: Trace,
    /// Supervisor counters (`None` for unsupervised runs).
    pub supervisor: Option<SupervisorStats>,
    /// Fault-injection record (`None` when no faults were planned).
    pub faults: Option<FaultReport>,
    /// Request-serving outcome (`None` for batch runs).
    pub slo: Option<SloReport>,
    /// Actuation-protocol audit from the board boundary: single writer
    /// per step window, TMU strictly a capper. Deterministic, so it *is*
    /// part of [`Report::bit_identical`].
    pub actuation: ActuationAudit,
    /// Wall-clock controller compute cost (excluded from
    /// [`Report::bit_identical`] — real time is nondeterministic).
    pub compute: ComputeStats,
}

impl Report {
    /// Whether two reports are *bit-identical*: every `f64` compared via
    /// [`f64::to_bits`] (so `-0.0 ≠ 0.0` and NaN payloads matter), all
    /// discrete fields via equality. This is the crash-recovery
    /// acceptance predicate: a recovered run must reproduce the
    /// uninterrupted run's report exactly, not approximately.
    ///
    /// [`Report::compute`] is deliberately not compared: it carries
    /// wall-clock (real-time) measurements, which legitimately differ
    /// between two otherwise identical runs.
    pub fn bit_identical(&self, other: &Report) -> bool {
        let metrics_ok = self.metrics.energy_joules.to_bits()
            == other.metrics.energy_joules.to_bits()
            && self.metrics.delay_seconds.to_bits() == other.metrics.delay_seconds.to_bits()
            && self.metrics.completed == other.metrics.completed;
        let trace_ok = self.trace.samples.len() == other.trace.samples.len()
            && self
                .trace
                .samples
                .iter()
                .zip(&other.trace.samples)
                .all(|(a, b)| {
                    a.time.to_bits() == b.time.to_bits()
                        && a.p_big.to_bits() == b.p_big.to_bits()
                        && a.p_little.to_bits() == b.p_little.to_bits()
                        && a.temp.to_bits() == b.temp.to_bits()
                        && a.bips.to_bits() == b.bips.to_bits()
                        && a.bips_big.to_bits() == b.bips_big.to_bits()
                        && a.bips_little.to_bits() == b.bips_little.to_bits()
                        && a.f_big.to_bits() == b.f_big.to_bits()
                        && a.f_little.to_bits() == b.f_little.to_bits()
                        && a.big_cores == b.big_cores
                        && a.little_cores == b.little_cores
                        && a.threads_big == b.threads_big
                        && a.active_threads == b.active_threads
                });
        let faults_ok = match (&self.faults, &other.faults) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.seed == b.seed
                    && a.severity.to_bits() == b.severity.to_bits()
                    && a.stats == b.stats
                    && a.trace.len() == b.trace.len()
                    && a.trace.iter().zip(&b.trace).all(|(x, y)| {
                        x.time.to_bits() == y.time.to_bits()
                            && x.kind == y.kind
                            && x.channel == y.channel
                            && x.value.to_bits() == y.value.to_bits()
                    })
            }
            _ => false,
        };
        let slo_ok = match (&self.slo, &other.slo) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.offered == b.offered
                    && a.admitted == b.admitted
                    && a.shed == b.shed
                    && a.rejected == b.rejected
                    && a.timed_out == b.timed_out
                    && a.completed == b.completed
                    && a.p95_s.to_bits() == b.p95_s.to_bits()
                    && a.p99_s.to_bits() == b.p99_s.to_bits()
                    && a.violation_frac.to_bits() == b.violation_frac.to_bits()
                    && a.max_shed_frac.to_bits() == b.max_shed_frac.to_bits()
            }
            _ => false,
        };
        metrics_ok
            && trace_ok
            && faults_ok
            && slo_ok
            && self.supervisor == other.supervisor
            && self.actuation == other.actuation
            && self.workload == other.workload
            && self.scheme == other.scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, p: f64) -> TraceSample {
        TraceSample {
            time: t,
            p_big: p,
            p_little: 0.0,
            temp: 50.0,
            bips: 1.0,
            bips_big: 0.8,
            bips_little: 0.2,
            f_big: 1.0,
            f_little: 1.0,
            big_cores: 4,
            little_cores: 4,
            threads_big: 4,
            active_threads: 8,
        }
    }

    #[test]
    fn exd_is_product() {
        let m = Metrics {
            energy_joules: 100.0,
            delay_seconds: 20.0,
            completed: true,
        };
        assert_eq!(m.exd(), 2000.0);
    }

    #[test]
    fn trace_mean() {
        let mut t = Trace::new();
        t.push(sample(0.0, 1.0));
        t.push(sample(0.5, 3.0));
        assert_eq!(t.mean_of(|s| s.p_big), 2.0);
        assert_eq!(Trace::new().mean_of(|s| s.p_big), 0.0);
    }

    #[test]
    fn crossings_count_rising_edges() {
        let mut t = Trace::new();
        for &p in &[1.0, 4.0, 4.5, 2.0, 4.2, 1.0, 3.9, 4.1] {
            t.push(sample(0.0, p));
        }
        assert_eq!(t.crossings_above(|s| s.p_big, 4.0), 3);
        assert_eq!(t.crossings_above(|s| s.p_big, 10.0), 0);
    }
}
