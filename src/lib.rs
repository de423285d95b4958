//! # Yukta
//!
//! Facade crate for the Yukta reproduction: coordinated multilayer
//! Structured-Singular-Value (SSV) resource controllers for computer systems
//! (Pothukuchi et al., ISCA 2018), together with every substrate the paper
//! depends on — a big.LITTLE board simulator, a robust-control synthesis
//! stack, and phase-structured workload models.
//!
//! Most users want [`core`] (controllers, schemes, runtime), backed by
//! [`board`] (the simulated ODROID XU3) and [`workloads`].
//!
//! ```
//! use yukta::core::schemes::Scheme;
//! use yukta::core::runtime::Experiment;
//! use yukta::workloads::catalog;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = catalog::parsec::blackscholes();
//! let report = Experiment::new(Scheme::CoordinatedHeuristic).run(&app)?;
//! assert!(report.metrics.energy_joules > 0.0);
//! # Ok(())
//! # }
//! ```
pub use yukta_board as board;
pub use yukta_control as control;
pub use yukta_core as core;
pub use yukta_linalg as linalg;
pub use yukta_workloads as workloads;
