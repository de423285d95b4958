#![recursion_limit = "1024"]
//! Property-based tests for the fault-containment supervisor: whatever the
//! sensor view contains — bounded noise, wild out-of-range values, NaN,
//! infinities, or a stuck repeating pattern — every scheme's supervised
//! step must return finite, in-range actuations and never panic.

use proptest::prelude::*;
use yukta_control::dk::SsvSynthesis;
use yukta_control::lqg::{LqgTracker, LqgWeights};
use yukta_control::ss::StateSpace;
use yukta_core::controllers::heuristic::{
    CoordinatedHeuristicHw, CoordinatedHeuristicOs, DecoupledHeuristicHw, DecoupledHeuristicOs,
};
use yukta_core::controllers::lqg_ctl::{LqgHwController, LqgOsController, MonolithicLqg};
use yukta_core::controllers::ssv::{SsvHwController, SsvOsController};
use yukta_core::controllers::{HwSense, OsSense};
use yukta_core::optimizer::{HwOptimizer, OsOptimizer};
use yukta_core::schemes::Controllers;
use yukta_core::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs};
use yukta_core::supervisor::{Supervisor, SupervisorConfig};
use yukta_linalg::Mat;

/// A stand-in SSV synthesis with the right I/O shape: a small static gain.
fn dummy_synthesis(n_out: usize, n_in: usize) -> SsvSynthesis {
    let mut d = Mat::zeros(n_out, n_in);
    for i in 0..n_out {
        d[(i, i)] = 0.5;
    }
    SsvSynthesis {
        controller: StateSpace::from_gain(d, Some(0.5)),
        gamma: 1.0,
        mu_peak: 1.0,
        scalings: vec![1.0],
        d_sections: Vec::new(),
        iterations: 1,
        guaranteed_bounds: vec![0.2; n_out],
    }
}

/// A stable normalized test model with n inputs and n outputs (cheap to
/// design LQG trackers on, unlike the full identified models).
fn model(n: usize) -> StateSpace {
    let mut a = Mat::zeros(n, n);
    let mut b = Mat::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = 0.6;
        b[(i, i)] = 0.3;
        if i + 1 < n {
            a[(i, i + 1)] = 0.05;
            b[(i, (i + 1) % n)] = 0.05;
        }
    }
    StateSpace::new(a, b, Mat::identity(n), Mat::zeros(n, n), Some(0.5)).unwrap()
}

/// One representative controller pair per scheme family.
fn all_controller_families() -> Vec<(&'static str, Controllers)> {
    let limits = Limits::default();
    vec![
        (
            "coordinated-heuristic",
            Controllers::Split {
                hw: Box::new(CoordinatedHeuristicHw::new()),
                os: Box::new(CoordinatedHeuristicOs::new()),
            },
        ),
        (
            "decoupled-heuristic",
            Controllers::Split {
                hw: Box::new(DecoupledHeuristicHw::new()),
                os: Box::new(DecoupledHeuristicOs::new()),
            },
        ),
        (
            "ssv-ssv",
            Controllers::Split {
                hw: Box::new(
                    SsvHwController::new(&dummy_synthesis(4, 11), HwOptimizer::new(limits))
                        .unwrap(),
                ),
                os: Box::new(
                    SsvOsController::new(&dummy_synthesis(3, 10), OsOptimizer::new()).unwrap(),
                ),
            },
        ),
        (
            "decoupled-lqg",
            Controllers::Split {
                hw: Box::new(
                    LqgHwController::new(
                        LqgTracker::design(&model(4), LqgWeights::default()).unwrap(),
                        HwOptimizer::new(limits),
                    )
                    .unwrap(),
                ),
                os: Box::new(
                    LqgOsController::new(
                        LqgTracker::design(&model(3), LqgWeights::default()).unwrap(),
                        OsOptimizer::new(),
                    )
                    .unwrap(),
                ),
            },
        ),
        (
            "monolithic-lqg",
            Controllers::Monolithic(Box::new(
                MonolithicLqg::new(
                    LqgTracker::design(&model(7), LqgWeights::default()).unwrap(),
                    HwOptimizer::new(limits),
                    OsOptimizer::new(),
                )
                .unwrap(),
            )),
        ),
    ]
}

/// A sensor value that may be in-range, wildly out of range, or non-finite.
fn wild(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => lo..hi,
        2 => -1e12..1e12f64,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

fn hw_outputs_strategy() -> impl Strategy<Value = HwOutputs> {
    (
        wild(0.0, 15.0),
        wild(0.0, 8.0),
        wild(0.0, 1.0),
        wild(25.0, 110.0),
    )
        .prop_map(|(perf, p_big, p_little, temp)| HwOutputs {
            perf,
            p_big,
            p_little,
            temp,
        })
}

fn os_outputs_strategy() -> impl Strategy<Value = OsOutputs> {
    (wild(0.0, 4.0), wild(0.0, 12.0), wild(-8.0, 8.0)).prop_map(
        |(perf_little, perf_big, spare_diff)| OsOutputs {
            perf_little,
            perf_big,
            spare_diff,
        },
    )
}

fn senses_strategy() -> impl Strategy<Value = (HwSense, OsSense)> {
    (
        hw_outputs_strategy(),
        os_outputs_strategy(),
        1usize..=8,
        1.0..4.0f64,
        1.0..4.0f64,
        0.2..2.0f64,
        0.2..1.4f64,
    )
        .prop_map(|(hw_y, os_y, n_active, bc, lc, fb, fl)| {
            let current_hw = HwInputs {
                big_cores: bc.round(),
                little_cores: lc.round(),
                f_big: fb,
                f_little: fl,
            };
            let current_os = OsInputs {
                threads_big: (n_active / 2) as f64,
                packing_big: 1.0,
                packing_little: 1.0,
            };
            let limits = Limits::default();
            (
                HwSense {
                    outputs: hw_y,
                    ext: current_os,
                    current: current_hw,
                    active_threads: n_active,
                    slo: Default::default(),
                    limits,
                },
                OsSense {
                    outputs: os_y,
                    ext: current_hw,
                    current: current_os,
                    active_threads: n_active,
                    system: hw_y,
                    slo: Default::default(),
                    limits,
                },
            )
        })
}

fn assert_legal(name: &str, k: usize, hu: &HwInputs, ou: &OsInputs, n_active: usize) {
    for v in hu.to_vec().iter().chain(ou.to_vec().iter()) {
        assert!(v.is_finite(), "{name} step {k}: non-finite actuation {v}");
    }
    assert!(
        (1.0..=4.0).contains(&hu.big_cores),
        "{name} step {k}: big_cores {}",
        hu.big_cores
    );
    assert!(
        (1.0..=4.0).contains(&hu.little_cores),
        "{name} step {k}: little_cores {}",
        hu.little_cores
    );
    assert!(
        (0.2..=2.0).contains(&hu.f_big),
        "{name} step {k}: f_big {}",
        hu.f_big
    );
    assert!(
        (0.2..=1.4).contains(&hu.f_little),
        "{name} step {k}: f_little {}",
        hu.f_little
    );
    assert!(
        ou.threads_big >= 0.0 && ou.threads_big <= n_active as f64,
        "{name} step {k}: threads_big {} of {n_active}",
        ou.threads_big
    );
    assert!(
        (1.0..=4.0).contains(&ou.packing_big),
        "{name} step {k}: packing_big {}",
        ou.packing_big
    );
    assert!(
        (1.0..=4.0).contains(&ou.packing_little),
        "{name} step {k}: packing_little {}",
        ou.packing_little
    );
}

/// Feeding the same (possibly poisoned) sense repeatedly also walks the
/// stuck-sensor watchdog and hysteresis paths.
fn check_arbitrary_senses(hw: &HwSense, os: &OsSense, steps: usize) {
    for (name, controllers) in all_controller_families() {
        let mut sup = Supervisor::new(controllers, SupervisorConfig::default());
        for k in 0..steps {
            let (hu, ou) = sup.step(hw, os);
            assert_legal(name, k, &hu, &ou, os.active_threads);
        }
        // Whatever happened, the counters stayed coherent.
        let st = sup.stats();
        assert_eq!(st.invocations, steps as u64);
        assert!(st.degraded_invocations <= st.invocations);
        assert!(st.fallback_exits <= st.fallback_entries);
    }
}

/// Alternating clean and poisoned samples exercises demotion and
/// re-engagement repeatedly; the legality guarantee must hold across
/// every transition.
fn check_mode_transitions(bad: &(HwSense, OsSense), clean: &(HwSense, OsSense), period: usize) {
    let (bad_hw, bad_os) = bad;
    // Force the "clean" pair to actually be finite and in range.
    let mut clean_hw = clean.0;
    let mut clean_os = clean.1;
    clean_hw.outputs = HwOutputs {
        perf: 3.0,
        p_big: 2.0,
        p_little: 0.2,
        temp: 60.0,
    };
    clean_os.outputs = OsOutputs {
        perf_little: 0.3,
        perf_big: 2.0,
        spare_diff: 0.0,
    };
    clean_os.system = clean_hw.outputs;
    for (name, controllers) in all_controller_families() {
        let mut sup = Supervisor::new(controllers, SupervisorConfig::default());
        for k in 0..24 {
            let poisoned = (k / period).is_multiple_of(2);
            let (hu, ou) = if poisoned {
                sup.step(bad_hw, bad_os)
            } else {
                // Jitter the clean readings so they never look stuck.
                let mut h = clean_hw;
                let mut o = clean_os;
                h.outputs.p_big += 1e-9 * k as f64;
                h.outputs.temp += 1e-9 * k as f64;
                o.system = h.outputs;
                sup.step(&h, &o)
            };
            let n = if poisoned {
                bad_os.active_threads
            } else {
                clean_os.active_threads
            };
            assert_legal(name, k, &hu, &ou, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_scheme_survives_arbitrary_senses(
        senses in senses_strategy(),
        steps in 2usize..10,
    ) {
        check_arbitrary_senses(&senses.0, &senses.1, steps);
    }

    #[test]
    fn mode_transitions_never_emit_illegal_actuations(
        bad in senses_strategy(),
        clean in senses_strategy(),
        period in 1usize..6,
    ) {
        check_mode_transitions(&bad, &clean, period);
    }
}
