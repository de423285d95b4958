//! Cross-crate integration tests: the full pipeline from workload models
//! through the board simulator to the controllers and metrics.

use yukta::board::{Actuation, Board, BoardConfig, Cluster, Placement, ThreadLoad};
use yukta::core::design::default_design;
use yukta::core::runtime::{Experiment, RunOptions};
use yukta::core::schemes::Scheme;
use yukta::workloads::{WorkloadRun, catalog};

fn quick() -> RunOptions {
    RunOptions {
        timeout_s: 700.0,
        ..Default::default()
    }
}

#[test]
fn design_pipeline_produces_deployable_controllers() {
    let d = default_design();
    // Shapes: the deployed observer-form controllers carry an
    // applied-input port: 4+3+4 = 11 inputs for HW, 3+4+3 = 10 for OS.
    assert_eq!(d.hw_ssv.controller.n_inputs(), 11);
    assert_eq!(d.hw_ssv.controller.n_outputs(), 4);
    assert_eq!(d.os_ssv.controller.n_inputs(), 10);
    assert_eq!(d.os_ssv.controller.n_outputs(), 3);
    // Deployable = internally stable even under saturation.
    assert!(d.hw_ssv.controller.is_stable().unwrap());
    assert!(d.os_ssv.controller.is_stable().unwrap());
    // The identification was meaningful.
    assert!(d.hw_fit.iter().all(|f| *f > 0.2), "hw fits {:?}", d.hw_fit);
}

#[test]
fn every_scheme_completes_blackscholes() {
    let wl = catalog::parsec::blackscholes();
    for scheme in Scheme::all() {
        let rep = Experiment::new(scheme)
            .with_options(quick())
            .run(&wl)
            .unwrap();
        assert!(
            rep.metrics.completed,
            "{} timed out at {:.0}s",
            scheme, rep.metrics.delay_seconds
        );
        assert!(rep.metrics.energy_joules > 10.0);
        assert!(!rep.trace.samples.is_empty());
    }
}

#[test]
fn ssv_respects_constraints_on_average() {
    let rep = Experiment::new(Scheme::YuktaHwSsvOsSsv)
        .with_options(quick())
        .run(&catalog::spec::gamess())
        .unwrap();
    // Constraint limits hold in sustained operation (transients may peak).
    let n = rep.trace.samples.len();
    let steady = &rep.trace.samples[n / 5..];
    let mean_p: f64 = steady.iter().map(|s| s.p_big).sum::<f64>() / steady.len() as f64;
    let mean_t: f64 = steady.iter().map(|s| s.temp).sum::<f64>() / steady.len() as f64;
    assert!(mean_p < 3.3 * 1.1, "mean big power {mean_p}");
    assert!(mean_t < 79.0 + 2.0, "mean temperature {mean_t}");
}

#[test]
fn decoupled_heuristic_oscillates_more_than_coordinated() {
    // The Figure 10 qualitative claim: decoupling produces more
    // limit-crossing power peaks.
    let wl = catalog::parsec::blackscholes();
    let coord = Experiment::new(Scheme::CoordinatedHeuristic)
        .with_options(quick())
        .run(&wl)
        .unwrap();
    let dec = Experiment::new(Scheme::DecoupledHeuristic)
        .with_options(quick())
        .run(&wl)
        .unwrap();
    let peaks_coord = coord.trace.crossings_above(|s| s.p_big, 3.6);
    let peaks_dec = dec.trace.crossings_above(|s| s.p_big, 3.6);
    assert!(
        peaks_dec >= peaks_coord,
        "decoupled {peaks_dec} vs coordinated {peaks_coord}"
    );
}

#[test]
fn workload_engine_drives_the_board_to_completion() {
    // No controllers at all: fixed operating point, run bodytrack through
    // its phase structure.
    let wl = catalog::parsec::bodytrack();
    let mut board = Board::new(BoardConfig::odroid_xu3());
    board.actuate(&Actuation {
        f_big: Some(1.4),
        f_little: Some(0.9),
        placement: Some(Placement {
            threads_big: 4,
            packing_big: 1.0,
            packing_little: 1.0,
        }),
        ..Default::default()
    });
    let mut run = WorkloadRun::new(&wl);
    let mut phase_thread_counts = std::collections::BTreeSet::new();
    for _ in 0..200_000 {
        let loads = run.loads();
        phase_thread_counts.insert(run.active_threads());
        let rep = board.step(&loads);
        run.advance(&rep.thread_progress);
        if run.is_done() {
            break;
        }
    }
    assert!(run.is_done(), "bodytrack did not complete");
    // The phase structure was exercised (8-thread track + 2-thread reduce).
    assert!(phase_thread_counts.contains(&8));
    assert!(phase_thread_counts.contains(&2));
    assert!(board.instructions(Cluster::Big) > 0.0);
}

#[test]
fn mixes_run_under_yukta() {
    let rep = Experiment::new(Scheme::YuktaHwSsvOsSsv)
        .with_options(quick())
        .run(&catalog::mixes::blst())
        .unwrap();
    assert!(rep.metrics.completed);
}

#[test]
fn idle_board_sanity() {
    // Zero threads: energy accrues only from idle power, no instructions.
    let mut board = Board::new(BoardConfig::odroid_xu3());
    let loads: Vec<ThreadLoad> = vec![ThreadLoad::idle(); 8];
    for _ in 0..500 {
        board.step(&loads);
    }
    assert_eq!(board.total_instructions(), 0.0);
    assert!(board.energy() > 0.0);
    assert!(board.state().t_hot < 45.0);
}
