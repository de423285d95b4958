//! The controller schemes of the evaluation (Table IV plus the LQG
//! arrangements of Section VI-B).

use yukta_control::lqg::{LqgTracker, LqgWeights};
use yukta_linalg::Result;

use crate::controllers::heuristic::{
    CoordinatedHeuristicHw, CoordinatedHeuristicOs, DecoupledHeuristicHw, DecoupledHeuristicOs,
};
use crate::controllers::lqg_ctl::{LqgHwController, LqgOsController, MonolithicLqg};
use crate::controllers::ssv::{SsvHwController, SsvOsController};
use crate::controllers::{ControllerState, HwPolicy, HwSense, OsPolicy, OsSense};
use crate::design::Design;
use crate::optimizer::{HwOptimizer, OsOptimizer};
use crate::signals::{HwInputs, Limits, OsInputs};

/// The two-layer controller schemes compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Table IV(a): HMP-style E×D-aware scheduler + safe-climb governor,
    /// coordinated through the shared interface. The paper's baseline.
    CoordinatedHeuristic,
    /// Table IV(b): round-robin scheduler + performance-governor hardware,
    /// no coordination.
    DecoupledHeuristic,
    /// Table IV(c): SSV hardware controller + the coordinated heuristic OS.
    YuktaHwSsvOsHeuristic,
    /// Table IV(d): SSV controllers in both layers — full Yukta.
    YuktaHwSsvOsSsv,
    /// Section VI-B: independent LQG controllers per layer (no external
    /// signals possible).
    DecoupledLqg,
    /// Section VI-B: a single LQG controller spanning both layers.
    MonolithicLqg,
}

impl Scheme {
    /// The paper's figure label for this scheme.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::CoordinatedHeuristic => "Coordinated heuristic",
            Scheme::DecoupledHeuristic => "Decoupled heuristic",
            Scheme::YuktaHwSsvOsHeuristic => "Yukta: HW SSV+OS heuristic",
            Scheme::YuktaHwSsvOsSsv => "Yukta: HW SSV+OS SSV",
            Scheme::DecoupledLqg => "Decoupled HW LQG+OS LQG",
            Scheme::MonolithicLqg => "Monolithic LQG",
        }
    }

    /// The Table IV / Section VI-B description.
    pub fn description(&self) -> &'static str {
        match self {
            Scheme::CoordinatedHeuristic => {
                "OS: scheduler with power and performance heuristics, using the number, \
                 type, and frequency of cores. HW: increases frequency and #cores while \
                 operation is safe, using the thread distribution to make decisions."
            }
            Scheme::DecoupledHeuristic => {
                "OS: round-robin assignment of threads to cores. HW: sets frequency and \
                 #cores to the maximum value; on a violation it reduces frequency first, \
                 then #cores."
            }
            Scheme::YuktaHwSsvOsHeuristic => {
                "OS: like the OS controller in Coordinated heuristic. HW: SSV design \
                 from Section IV-A."
            }
            Scheme::YuktaHwSsvOsSsv => {
                "OS: SSV design from Section IV-B. HW: SSV design from Section IV-A."
            }
            Scheme::DecoupledLqg => {
                "Independent LQG controllers in the hardware and OS layers; LQG cannot \
                 take external signals, so no coordination is possible."
            }
            Scheme::MonolithicLqg => {
                "A single LQG controller that manages both layers (the configuration of \
                 the ISCA'16 MIMO controller)."
            }
        }
    }

    /// The four schemes of Figure 9, in bar order.
    pub fn figure9() -> [Scheme; 4] {
        [
            Scheme::CoordinatedHeuristic,
            Scheme::DecoupledHeuristic,
            Scheme::YuktaHwSsvOsHeuristic,
            Scheme::YuktaHwSsvOsSsv,
        ]
    }

    /// The four schemes of Figures 12/13, in bar order.
    pub fn figure12() -> [Scheme; 4] {
        [
            Scheme::CoordinatedHeuristic,
            Scheme::DecoupledLqg,
            Scheme::MonolithicLqg,
            Scheme::YuktaHwSsvOsSsv,
        ]
    }

    /// Every scheme implemented.
    pub fn all() -> [Scheme; 6] {
        [
            Scheme::CoordinatedHeuristic,
            Scheme::DecoupledHeuristic,
            Scheme::YuktaHwSsvOsHeuristic,
            Scheme::YuktaHwSsvOsSsv,
            Scheme::DecoupledLqg,
            Scheme::MonolithicLqg,
        ]
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Instantiated controllers for one execution.
pub enum Controllers {
    /// Independent per-layer controllers (all schemes except monolithic).
    Split {
        /// Hardware-layer policy.
        hw: Box<dyn HwPolicy>,
        /// Software-layer policy.
        os: Box<dyn OsPolicy>,
    },
    /// One cross-layer controller.
    Monolithic(Box<MonolithicLqg>),
}

impl Controllers {
    /// A short label combining the layer controller names.
    pub fn label(&self) -> String {
        match self {
            Controllers::Split { hw, os } => format!("{}+{}", hw.name(), os.name()),
            Controllers::Monolithic(_) => "monolithic-lqg".to_string(),
        }
    }

    /// Invokes both layers on their sensor views. A split pair runs both
    /// layers even when one fails, and the first error is returned.
    ///
    /// # Errors
    ///
    /// The first typed error of the layers, HW before OS.
    pub fn invoke(
        &mut self,
        hw_sense: &HwSense,
        os_sense: &OsSense,
    ) -> Result<(HwInputs, OsInputs)> {
        match self {
            Controllers::Split { hw, os } => {
                let (hw_u, os_u) = (hw.invoke(hw_sense), os.invoke(os_sense));
                Ok((hw_u?, os_u?))
            }
            Controllers::Monolithic(m) => m.invoke(hw_sense, os_sense),
        }
    }

    /// Clears all internal controller state in both layers (used by the
    /// supervisor when re-engaging after a faulty episode).
    pub fn reset(&mut self) {
        match self {
            Controllers::Split { hw, os } => {
                hw.reset();
                os.reset();
            }
            Controllers::Monolithic(m) => m.reset(),
        }
    }

    /// Snapshots both layers' controller state for a checkpoint.
    pub fn save_state(&self) -> ControllersState {
        match self {
            Controllers::Split { hw, os } => ControllersState::Split {
                hw: hw.save_state(),
                os: os.save_state(),
            },
            Controllers::Monolithic(m) => ControllersState::Monolithic(m.save_state()),
        }
    }

    /// Restores a snapshot taken by [`Controllers::save_state`] into a
    /// freshly instantiated copy of the same scheme. After a restore the
    /// controllers reproduce subsequent invocations bit-identically.
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::NoSolution`] if the snapshot's shape does
    /// not match this scheme's controllers.
    pub fn restore_state(&mut self, state: &ControllersState) -> Result<()> {
        match (self, state) {
            (Controllers::Split { hw, os }, ControllersState::Split { hw: sh, os: so }) => {
                hw.restore_state(sh)?;
                os.restore_state(so)
            }
            (Controllers::Monolithic(m), ControllersState::Monolithic(sm)) => m.restore_state(sm),
            _ => Err(yukta_linalg::Error::NoSolution {
                op: "controllers_restore_state",
                why: "split/monolithic shape mismatch",
            }),
        }
    }
}

/// A snapshot of a [`Controllers`] instance, mirroring its shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllersState {
    /// Snapshots of independent per-layer controllers.
    Split {
        /// Hardware-layer snapshot.
        hw: ControllerState,
        /// Software-layer snapshot.
        os: ControllerState,
    },
    /// Snapshot of one cross-layer controller.
    Monolithic(ControllerState),
}

impl Scheme {
    /// Builds fresh controller instances for one run.
    ///
    /// # Errors
    ///
    /// [`yukta_linalg::Error::DimensionMismatch`] if a part of the design
    /// has the wrong widths ([`Design::check_widths`]); propagates LQG
    /// design failures (Riccati infeasibility on the identified models).
    pub fn instantiate(&self, design: &Design, limits: Limits) -> Result<Controllers> {
        design.check_widths()?;
        let lqg_hw_weights = LqgWeights {
            qy: 1.0,
            qi: 0.5,
            ru: 1.0, // comparable to the SSV hardware input weights
            qw: 0.1,
            rv: 0.01,
        };
        let lqg_os_weights = LqgWeights {
            ru: 2.0, // comparable to the SSV software input weights
            ..lqg_hw_weights
        };
        let hw_ssv = || SsvHwController::new(&design.hw_ssv, HwOptimizer::new(limits));
        Ok(match self {
            Scheme::CoordinatedHeuristic => Controllers::Split {
                hw: Box::new(CoordinatedHeuristicHw::new()),
                os: Box::new(CoordinatedHeuristicOs::new()),
            },
            Scheme::DecoupledHeuristic => Controllers::Split {
                hw: Box::new(DecoupledHeuristicHw::new()),
                os: Box::new(DecoupledHeuristicOs::new()),
            },
            Scheme::YuktaHwSsvOsHeuristic => Controllers::Split {
                hw: Box::new(hw_ssv()?),
                os: Box::new(CoordinatedHeuristicOs::new()),
            },
            Scheme::YuktaHwSsvOsSsv => Controllers::Split {
                hw: Box::new(hw_ssv()?),
                os: Box::new(SsvOsController::new(&design.os_ssv, OsOptimizer::new())?),
            },
            Scheme::DecoupledLqg => Controllers::Split {
                hw: Box::new(LqgHwController::new(
                    LqgTracker::design(&design.hw_model_solo, lqg_hw_weights)?,
                    HwOptimizer::new(limits),
                )?),
                os: Box::new(LqgOsController::new(
                    LqgTracker::design(&design.os_model_solo, lqg_os_weights)?,
                    OsOptimizer::new(),
                )?),
            },
            Scheme::MonolithicLqg => Controllers::Monolithic(Box::new(MonolithicLqg::new(
                LqgTracker::design(&design.mono_model, lqg_hw_weights)?,
                HwOptimizer::new(limits),
                OsOptimizer::new(),
            )?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(
            Scheme::CoordinatedHeuristic.label(),
            "Coordinated heuristic"
        );
        assert_eq!(Scheme::YuktaHwSsvOsSsv.label(), "Yukta: HW SSV+OS SSV");
        assert_eq!(Scheme::MonolithicLqg.label(), "Monolithic LQG");
    }

    #[test]
    fn figure_orders() {
        assert_eq!(Scheme::figure9()[0], Scheme::CoordinatedHeuristic);
        assert_eq!(Scheme::figure9()[3], Scheme::YuktaHwSsvOsSsv);
        assert_eq!(Scheme::figure12()[2], Scheme::MonolithicLqg);
        assert_eq!(Scheme::all().len(), 6);
    }

    #[test]
    fn descriptions_mention_key_mechanisms() {
        assert!(
            Scheme::DecoupledHeuristic
                .description()
                .contains("round-robin")
        );
        assert!(Scheme::CoordinatedHeuristic.description().contains("safe"));
        assert!(Scheme::YuktaHwSsvOsSsv.description().contains("SSV"));
    }
}
