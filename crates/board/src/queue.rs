//! Deterministic request queue: converts the board's retired
//! instructions into request completions and per-request latency.
//!
//! This is the serving-side complement of the batch workload model. An
//! open-loop arrival stream (`yukta_workloads::traffic` upstream)
//! offers requests; the queue admits them subject to load shedding and
//! a bounded backlog, serves them FIFO at whatever instruction
//! throughput the board actually delivered over each control window,
//! and drops requests that outlive their timeout. Tail latency over a
//! sliding window is estimated with [`yukta_obs::hist::FixedHistogram`]
//! quantiles — the same estimator the SLO gate uses.
//!
//! Everything here is plain arithmetic over the inputs: no RNG, no
//! clocks. Same offered stream + same capacity series ⇒ bit-identical
//! completions, which is what lets serving runs live inside the
//! crash-recovery and replay machinery.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use yukta_obs::hist::FixedHistogram;

/// Latency histogram ladder (seconds): ×2 geometric from 2 ms to 65 s.
/// The documented quantile error is one bucket width, i.e. a factor-2
/// band at the resolution SLO bounds are specified in.
pub const LATENCY_BOUNDS_S: [f64; 16] = [
    0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1.024, 2.048, 4.096, 8.192,
    16.384, 32.768, 65.536,
];

/// Static configuration of the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Maximum queued (admitted but unfinished) requests; arrivals
    /// beyond this are rejected at the door.
    pub backlog_cap: usize,
    /// Queueing time after which a request is dropped unserved (s).
    pub timeout_s: f64,
    /// Sliding window over which tail latency is estimated (s).
    pub window_s: f64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            backlog_cap: 512,
            timeout_s: 10.0,
            window_s: 5.0,
        }
    }
}

impl QueueConfig {
    /// Rejects non-finite/non-positive parameters; the runtime's serving
    /// spec wraps the message into its typed error.
    pub fn validate(&self) -> Result<(), String> {
        if self.backlog_cap == 0 {
            return Err("backlog_cap must be >= 1".to_string());
        }
        if !(self.timeout_s.is_finite() && self.timeout_s > 0.0) {
            return Err(format!(
                "timeout_s must be finite and > 0, got {}",
                self.timeout_s
            ));
        }
        if !(self.window_s.is_finite() && self.window_s > 0.0) {
            return Err(format!(
                "window_s must be finite and > 0, got {}",
                self.window_s
            ));
        }
        Ok(())
    }
}

/// Cumulative request accounting over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueueStats {
    /// Requests offered by the arrival process.
    pub offered: u64,
    /// Requests admitted into the backlog.
    pub admitted: u64,
    /// Requests dropped by admission control (load shedding).
    pub shed: u64,
    /// Requests rejected because the backlog was full.
    pub rejected: u64,
    /// Admitted requests dropped after exceeding the timeout.
    pub timed_out: u64,
    /// Requests served to completion.
    pub completed: u64,
}

impl QueueStats {
    /// All requests dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.shed + self.rejected + self.timed_out
    }
}

/// Windowed latency/drop snapshot — the raw material of the SLO signal.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// p50 latency over the window (s); 0 when nothing completed.
    pub p50_s: f64,
    /// p95 latency over the window (s).
    pub p95_s: f64,
    /// p99 latency over the window (s).
    pub p99_s: f64,
    /// Completions inside the window.
    pub completed: u64,
    /// Drops (timeout + rejection + shed) inside the window.
    pub dropped: u64,
    /// Current backlog as a fraction of `backlog_cap`.
    pub backlog_frac: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Queued {
    arrival_s: f64,
    remaining_gi: f64,
}

/// FIFO admission queue with bounded backlog, timeout drops, and
/// windowed tail-latency estimation.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    cfg: QueueConfig,
    queue: VecDeque<Queued>,
    /// `(completion_time_s, latency_s)` inside the stats window.
    completions: VecDeque<(f64, f64)>,
    /// Drop timestamps inside the stats window.
    drops: VecDeque<f64>,
    /// Run-lifetime latency histogram (never aged out), for end-of-run
    /// quantiles next to the windowed SLO signal.
    lifetime: FixedHistogram,
    /// Fractional-shed accumulator: deterministic thinning without RNG.
    shed_acc: f64,
    stats: QueueStats,
}

impl RequestQueue {
    /// An empty queue.
    pub fn new(cfg: QueueConfig) -> Self {
        RequestQueue {
            cfg,
            queue: VecDeque::new(),
            completions: VecDeque::new(),
            drops: VecDeque::new(),
            lifetime: FixedHistogram::new(&LATENCY_BOUNDS_S),
            shed_acc: 0.0,
            stats: QueueStats::default(),
        }
    }

    /// The queue's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Cumulative counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Admitted-but-unfinished requests.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Offers one request. `shed_frac ∈ [0, 1]` is the admission
    /// controller's current drop fraction, applied as deterministic
    /// accumulator thinning (every `1/shed_frac`-th request is shed) so
    /// the decision consumes no randomness. Returns `true` iff admitted.
    pub fn offer(&mut self, arrival_s: f64, demand_gi: f64, shed_frac: f64) -> bool {
        self.stats.offered += 1;
        let shed_frac = if shed_frac.is_finite() {
            shed_frac.clamp(0.0, 1.0)
        } else {
            1.0
        };
        self.shed_acc += shed_frac;
        if self.shed_acc >= 1.0 {
            self.shed_acc -= 1.0;
            self.stats.shed += 1;
            self.drops.push_back(arrival_s);
            return false;
        }
        if self.queue.len() >= self.cfg.backlog_cap {
            self.stats.rejected += 1;
            self.drops.push_back(arrival_s);
            return false;
        }
        self.stats.admitted += 1;
        self.queue.push_back(Queued {
            arrival_s,
            remaining_gi: demand_gi.max(0.0),
        });
        true
    }

    /// Serves the backlog over `[from_s, to_s]` with `capacity_gi`
    /// giga-instructions of delivered throughput, spread uniformly over
    /// the interval. Requests whose queueing time exceeded the timeout
    /// at `from_s` are dropped first (FIFO order makes the head check
    /// sufficient). Completion times interpolate linearly inside the
    /// interval, so latency is exact to the capacity model, not to the
    /// tick.
    pub fn advance(&mut self, from_s: f64, to_s: f64, capacity_gi: f64) {
        // Timeout reaping at the window boundary.
        while let Some(head) = self.queue.front() {
            if from_s - head.arrival_s > self.cfg.timeout_s {
                self.queue.pop_front();
                self.stats.timed_out += 1;
                self.drops.push_back(from_s);
            } else {
                break;
            }
        }
        let span = (to_s - from_s).max(0.0);
        let capacity = capacity_gi.max(0.0);
        if capacity > 0.0 {
            let mut used = 0.0;
            while let Some(head) = self.queue.front_mut() {
                if used + head.remaining_gi <= capacity {
                    used += head.remaining_gi;
                    let finish = from_s + span * (used / capacity);
                    let latency = (finish - head.arrival_s).max(0.0);
                    self.queue.pop_front();
                    self.stats.completed += 1;
                    self.completions.push_back((finish, latency));
                    self.lifetime.record(latency);
                } else {
                    head.remaining_gi -= capacity - used;
                    break;
                }
            }
        }
        // Age out the stats window.
        let horizon = to_s - self.cfg.window_s;
        while self.completions.front().is_some_and(|&(t, _)| t < horizon) {
            self.completions.pop_front();
        }
        while self.drops.front().is_some_and(|&t| t < horizon) {
            self.drops.pop_front();
        }
    }

    /// Run-lifetime latency quantile across every completion so far (s);
    /// `None` until something completed. Unlike [`Self::latency_snapshot`]
    /// this never ages out, so it is the end-of-run verdict, not the
    /// control signal.
    pub fn lifetime_quantile(&self, q: f64) -> Option<f64> {
        self.lifetime.quantile(q)
    }

    /// Tail latency and drop pressure over the sliding window.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        let mut hist = FixedHistogram::new(&LATENCY_BOUNDS_S);
        for &(_, lat) in &self.completions {
            hist.record(lat);
        }
        LatencySnapshot {
            p50_s: hist.quantile(0.50).unwrap_or(0.0),
            p95_s: hist.quantile(0.95).unwrap_or(0.0),
            p99_s: hist.quantile(0.99).unwrap_or(0.0),
            completed: self.completions.len() as u64,
            dropped: self.drops.len() as u64,
            backlog_frac: self.queue.len() as f64 / self.cfg.backlog_cap as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(cap: usize, timeout: f64) -> RequestQueue {
        RequestQueue::new(QueueConfig {
            backlog_cap: cap,
            timeout_s: timeout,
            window_s: 5.0,
        })
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert!(QueueConfig::default().validate().is_ok());
        assert!(
            QueueConfig {
                backlog_cap: 0,
                ..Default::default()
            }
            .validate()
            .is_err()
        );
        assert!(
            QueueConfig {
                timeout_s: f64::NAN,
                ..Default::default()
            }
            .validate()
            .is_err()
        );
        assert!(
            QueueConfig {
                window_s: -1.0,
                ..Default::default()
            }
            .validate()
            .is_err()
        );
    }

    #[test]
    fn fifo_service_completes_in_order_with_interpolated_times() {
        let mut queue = q(16, 100.0);
        queue.offer(0.0, 1.0, 0.0);
        queue.offer(0.1, 1.0, 0.0);
        queue.offer(0.2, 2.0, 0.0);
        // Capacity 4 Gi over [0.5, 1.0]: all three finish inside.
        queue.advance(0.5, 1.0, 4.0);
        let stats = queue.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(queue.backlog(), 0);
        let snap = queue.latency_snapshot();
        // First request: 1 Gi of 4 Gi capacity → finishes at 0.625.
        assert!(snap.p50_s > 0.0 && snap.p99_s <= 1.0);
    }

    #[test]
    fn partial_service_carries_remaining_work_across_windows() {
        let mut queue = q(16, 100.0);
        queue.offer(0.0, 3.0, 0.0);
        queue.advance(0.0, 0.5, 1.0);
        assert_eq!(queue.stats().completed, 0);
        assert_eq!(queue.backlog(), 1);
        queue.advance(0.5, 1.0, 1.0);
        queue.advance(1.0, 1.5, 1.0);
        assert_eq!(queue.stats().completed, 1);
        // 3 Gi at 2 Gi/s: finishes exactly at the end of the third window.
        let (finish, latency) = queue.completions[0];
        assert!((finish - 1.5).abs() < 1e-12);
        assert!((latency - 1.5).abs() < 1e-12);
    }

    #[test]
    fn backlog_cap_rejects_and_timeout_reaps() {
        let mut queue = q(2, 1.0);
        assert!(queue.offer(0.0, 1.0, 0.0));
        assert!(queue.offer(0.0, 1.0, 0.0));
        assert!(!queue.offer(0.0, 1.0, 0.0), "third must bounce off the cap");
        // No capacity: both queued requests outlive the 1 s timeout.
        queue.advance(2.0, 2.5, 0.0);
        let stats = queue.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.timed_out, 2);
        assert_eq!(queue.backlog(), 0);
        assert_eq!(stats.dropped(), 3);
    }

    #[test]
    fn shedding_is_deterministic_accumulator_thinning() {
        let mut queue = q(1024, 100.0);
        let mut admitted = 0;
        for i in 0..1000 {
            if queue.offer(i as f64 * 0.001, 0.01, 0.25) {
                admitted += 1;
            }
        }
        // Exactly every fourth request is shed: 250 drops, no randomness.
        assert_eq!(admitted, 750);
        assert_eq!(queue.stats().shed, 250);
        // Replay is bit-identical.
        let mut twin = q(1024, 100.0);
        for i in 0..1000 {
            twin.offer(i as f64 * 0.001, 0.01, 0.25);
        }
        assert_eq!(twin.stats(), queue.stats());
    }

    #[test]
    fn full_shed_drops_everything() {
        let mut queue = q(16, 100.0);
        for i in 0..10 {
            assert!(!queue.offer(i as f64, 0.01, 1.0));
        }
        assert_eq!(queue.stats().shed, 10);
        assert_eq!(queue.backlog(), 0);
    }

    #[test]
    fn window_ages_out_old_completions() {
        let mut queue = q(16, 100.0);
        queue.offer(0.0, 0.1, 0.0);
        queue.advance(0.0, 0.5, 1.0);
        assert_eq!(queue.latency_snapshot().completed, 1);
        // 10 s later (window is 5 s): the completion has aged out.
        queue.advance(10.0, 10.5, 1.0);
        assert_eq!(queue.latency_snapshot().completed, 0);
        assert_eq!(queue.stats().completed, 1, "cumulative stats persist");
        // The lifetime histogram never ages out.
        assert!(queue.lifetime_quantile(0.99).is_some());
    }

    #[test]
    fn tail_latency_grows_when_capacity_shrinks() {
        let run = |capacity: f64| {
            let mut queue = q(4096, 100.0);
            for step in 0..40 {
                let t = step as f64 * 0.5;
                for k in 0..20 {
                    queue.offer(t + k as f64 * 0.025, 0.02, 0.0);
                }
                queue.advance(t, t + 0.5, capacity);
            }
            queue.latency_snapshot()
        };
        let fast = run(1.0); // 2 GIPS vs 0.8 GIPS offered
        let slow = run(0.25); // 0.5 GIPS vs 0.8 GIPS offered: overload
        assert!(
            slow.p99_s > 4.0 * fast.p99_s.max(0.01),
            "p99 fast {} slow {}",
            fast.p99_s,
            slow.p99_s
        );
        assert!(slow.backlog_frac > 0.0);
    }
}
