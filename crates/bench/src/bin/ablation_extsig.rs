//! Ablation: the value of the external-signal channels (the coordination
//! mechanism itself). Runs Yukta: HW SSV+OS SSV normally and with the
//! external signals zeroed at runtime, over a representative workload
//! subset. The paper's thesis predicts the coordinated variant wins.

use yukta_bench::{eval_options, geomean};
use yukta_core::controllers::ssv::{SsvHwController, SsvOsController};
use yukta_core::design::default_design;
use yukta_core::optimizer::{HwOptimizer, OsOptimizer};
use yukta_core::runtime::Experiment;
use yukta_core::schemes::{Controllers, Scheme};
use yukta_core::signals::Limits;
use yukta_workloads::catalog;

fn controllers(coordinated: bool) -> Controllers {
    let d = default_design();
    let hw = SsvHwController::new(&d.hw_ssv, HwOptimizer::new(Limits::default()))
        .expect("hw SSV deployment");
    let os = SsvOsController::new(&d.os_ssv, OsOptimizer::new()).expect("os SSV deployment");
    if coordinated {
        Controllers::Split {
            hw: Box::new(hw),
            os: Box::new(os),
        }
    } else {
        Controllers::Split {
            hw: Box::new(hw.without_external_signals()),
            os: Box::new(os.without_external_signals()),
        }
    }
}

fn main() {
    let _obs = yukta_bench::obs::capture("ablation_extsig");
    let workloads = vec![
        catalog::spec::mcf(),
        catalog::spec::gamess(),
        catalog::parsec::blackscholes(),
        catalog::parsec::streamcluster(),
        catalog::mixes::blmc(),
    ];
    println!("Ablation: external signals (coordination) on vs off\n");
    println!(
        "{:<14} | {:>16} | {:>16} | {:>8}",
        "workload", "E x D with ext", "E x D without", "ratio"
    );
    let mut ratios = Vec::new();
    for wl in &workloads {
        let exp = Experiment::new(Scheme::YuktaHwSsvOsSsv)
            .unwrap()
            .with_options(eval_options());
        let with_ext = exp
            .run_with_controllers(wl, controllers(true))
            .expect("coordinated run");
        let without = exp
            .run_with_controllers(wl, controllers(false))
            .expect("uncoordinated run");
        let ratio = without.metrics.exd() / with_ext.metrics.exd();
        ratios.push(ratio);
        println!(
            "{:<14} | {:>16.0} | {:>16.0} | {:>8.3}",
            wl.name,
            with_ext.metrics.exd(),
            without.metrics.exd(),
            ratio
        );
    }
    println!(
        "\nGeomean E x D penalty from removing the external signals: {:.3}x",
        geomean(&ratios)
    );
}
