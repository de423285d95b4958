//! Ablation: quantization/saturation awareness. Runs the hardware SSV
//! controller with its observer tracking the *applied* (snapped) inputs —
//! the Yukta deployment — against a naive deployment whose observer
//! believes its raw commands were applied. The paper argues
//! quantization-aware design is a key advantage of SSV over LQG
//! (Section VI-B discusses LQG wasting time pushing inputs past their
//! limits).

use yukta_bench::{eval_options, geomean};
use yukta_core::controllers::heuristic::CoordinatedHeuristicOs;
use yukta_core::controllers::ssv::SsvHwController;
use yukta_core::design::default_design;
use yukta_core::optimizer::HwOptimizer;
use yukta_core::runtime::Experiment;
use yukta_core::schemes::{Controllers, Scheme};
use yukta_core::signals::Limits;
use yukta_workloads::catalog;

fn controllers(aware: bool) -> Controllers {
    let d = default_design();
    let hw = SsvHwController::new(&d.hw_ssv, HwOptimizer::new(Limits::default()))
        .expect("hw SSV deployment");
    let hw = if aware {
        hw
    } else {
        hw.with_naive_quantization()
    };
    Controllers::Split {
        hw: Box::new(hw),
        os: Box::new(CoordinatedHeuristicOs::new()),
    }
}

fn main() {
    let _obs = yukta_bench::obs::capture("ablation_quant");
    let workloads = vec![
        catalog::spec::gamess(),
        catalog::parsec::blackscholes(),
        catalog::parsec::canneal(),
    ];
    println!("Ablation: quantization-aware vs naive deployment (HW SSV + OS heuristic)\n");
    println!(
        "{:<14} | {:>14} | {:>14} | {:>8}",
        "workload", "E x D aware", "E x D naive", "ratio"
    );
    let mut ratios = Vec::new();
    for wl in &workloads {
        let exp = Experiment::new(Scheme::YuktaHwSsvOsHeuristic)
            .unwrap()
            .with_options(eval_options());
        let aware = exp
            .run_with_controllers(wl, controllers(true))
            .expect("aware run");
        let naive = exp
            .run_with_controllers(wl, controllers(false))
            .expect("naive run");
        let ratio = naive.metrics.exd() / aware.metrics.exd();
        ratios.push(ratio);
        println!(
            "{:<14} | {:>14.0} | {:>14.0} | {:>8.3}",
            wl.name,
            aware.metrics.exd(),
            naive.metrics.exd(),
            ratio
        );
    }
    println!(
        "\nGeomean E x D penalty from quantization-blind deployment: {:.3}x",
        geomean(&ratios)
    );
}
