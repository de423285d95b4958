//! # yukta-board
//!
//! A faithful software model of the paper's experimental platform: the
//! ODROID XU3 board with a Samsung Exynos 5422 (ARM big.LITTLE — four
//! Cortex-A15 "big" cores plus four Cortex-A7 "little" cores).
//!
//! The paper's controllers never touch microarchitecture; they see the
//! board through this exact interface:
//!
//! * **Actuation** — per-cluster DVFS (0.2–2.0 GHz big / 0.2–1.4 GHz
//!   little, 0.1 GHz steps), CPU hotplug (1–4 cores per cluster), and
//!   thread placement ([`board::Placement`]) — with realistic transition
//!   stalls.
//! * **Sensing** — INA231-style power sensors that refresh every 260 ms
//!   ([`sensors::PowerSensor`]), a noisy hotspot temperature sensor, and
//!   cumulative instruction counters read as BIPS.
//! * **Plant behaviour** — CV²f dynamic power with temperature-dependent
//!   leakage ([`power`]), a two-node RC thermal network ([`thermal`]),
//!   memory-bound frequency rolloff and time multiplexing ([`perf`]), the
//!   HMP scheduler's occasional bad packing (seeded noise), and the
//!   Exynos-style emergency thermal/power heuristics ([`tmu`]) that fire
//!   when controllers misbehave.
//!
//! ```
//! use yukta_board::board::{Actuation, Board, Placement};
//! use yukta_board::config::BoardConfig;
//! use yukta_board::perf::ThreadLoad;
//!
//! let mut board = Board::new(BoardConfig::odroid_xu3());
//! board.actuate(&Actuation {
//!     f_big: Some(1.4),
//!     placement: Some(Placement { threads_big: 8, packing_big: 2.0, packing_little: 1.0 }),
//!     ..Default::default()
//! });
//! let loads = vec![ThreadLoad::nominal(); 8];
//! for _ in 0..100 {
//!     board.step(&loads);
//! }
//! assert!(board.total_instructions() > 0.0);
//! ```

// Runtime-reachable paths must report failures as typed values, never
// panic: the crash-tolerant runtime (`yukta_core::runtime`) treats any
// panic that is not an injected crash as a real bug and re-raises it.
// Tests keep their unwraps; non-test code is denied them outright.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod board;
pub mod config;
pub mod faults;
pub mod perf;
pub mod power;
pub mod queue;
pub mod sensors;
pub mod thermal;
pub mod tmu;

pub use board::{Actuation, ActuationAudit, Board, BoardState, Placement, Slots, StepReport};
pub use config::{BoardConfig, Cluster};
pub use faults::{
    FaultChannel, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultStats, ScheduledFault,
};
pub use perf::ThreadLoad;
pub use queue::{LatencySnapshot, QueueConfig, QueueStats, RequestQueue};
