//! # yukta-control
//!
//! The robust-control synthesis stack behind Yukta — the Rust replacement
//! for the MATLAB Robust Control + System Identification toolchain the
//! paper's prototype relied on.
//!
//! The pipeline mirrors the paper's Figure 3 design flow:
//!
//! 1. **Identify** — [`sysid`] fits a black-box MIMO ARX model from
//!    excitation data collected on the (simulated) board, in normalized
//!    units ([`quant::SignalScaler`]).
//! 2. **Specify** — [`plant::SsvSpec`] carries the designer knobs from
//!    Tables II/III: output deviation bounds `B`, input weights `W`, the
//!    uncertainty guardband `Δ`, and the external-signal channels.
//! 3. **Assemble** — [`plant::build_ssv_plant`] produces a continuous
//!    generalized plant satisfying the DGKF assumptions by construction.
//! 4. **Synthesize** — [`dk::synthesize_ssv`] runs D–K iteration:
//!    [`hinf`] central-controller synthesis (two Riccati equations via the
//!    matrix sign function) alternating with [`mu`] upper-bound D-scaling.
//! 5. **Deploy** — [`runtime::ObsAwController`] executes the resulting
//!    discrete state machine (Equations 3–4 of the paper), propagating the
//!    input actually applied after [`quant::InputGrid`] snaps its commands
//!    onto the legal actuator values.
//!
//! The LQG baseline of Section VI-B lives in [`lqg`].
//!
//! ```
//! use yukta_control::dk::{synthesize_ssv, DkOptions};
//! use yukta_control::plant::SsvSpec;
//! use yukta_control::runtime::ObsAwController;
//! use yukta_control::ss::StateSpace;
//! use yukta_linalg::Mat;
//!
//! # fn main() -> Result<(), yukta_linalg::Error> {
//! // A one-output model driven by one actuator and one external signal.
//! let model = StateSpace::new(
//!     Mat::filled(1, 1, 0.6),
//!     Mat::from_rows(&[&[0.4, 0.1]]),
//!     Mat::identity(1),
//!     Mat::zeros(1, 2),
//!     Some(0.5),
//! )?;
//! let syn = synthesize_ssv(&model, &SsvSpec::new(0.5, 1, 1, 1), DkOptions::default())?;
//! let mut k = ObsAwController::new(&syn.controller)?;
//! // Δy = 0.3, external = 0; actuator snaps to tenths in [-1, 1]. The
//! // quantizer pushes the applied input onto the controller's buffer.
//! let snap = |u: &[f64], out: &mut Vec<f64>| out.push((u[0].clamp(-1.0, 1.0) * 10.0).round() / 10.0);
//! let (_, applied) = k.step(&[0.3, 0.0], &snap)?;
//! assert_eq!(applied.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod c2d;
pub mod dk;
pub mod hinf;
pub mod lqg;
pub mod mu;
pub mod plant;
pub mod quant;
pub mod reduce;
pub mod runtime;
pub mod ss;
pub mod sweep;
pub mod sysid;

pub use ss::StateSpace;
