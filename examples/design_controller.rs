//! Design your own SSV controller, end to end, on a custom plant.
//!
//! This walks the paper's Figure 3 flow on a small synthetic system
//! instead of the full board: pick signals and bounds, identify a
//! black-box model from excitation data, synthesize the controller by
//! D-K iteration, and deploy it with the anti-windup runtime.
//!
//! ```sh
//! cargo run --release --example design_controller
//! ```

use yukta::control::dk::{DkOptions, synthesize_ssv};
use yukta::control::plant::SsvSpec;
use yukta::control::quant::InputGrid;
use yukta::control::runtime::ObsAwController;
use yukta::control::sysid::{SysIdConfig, fit_arx};

/// The "true" plant we pretend not to know: a 2-output system driven by
/// one control input and one external signal, with a little nonlinearity.
fn plant_step(state: &mut [f64; 2], u: f64, e: f64) -> [f64; 2] {
    state[0] = 0.7 * state[0] + 0.35 * u + 0.1 * e + 0.03 * u * u;
    state[1] = 0.5 * state[1] + 0.25 * u - 0.05 * e;
    [state[0], state[1]]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Characterize: excite the plant with a seeded random staircase.
    let mut state = [0.0f64; 2];
    let mut u_log = Vec::new();
    let mut y_log = vec![vec![0.0, 0.0]];
    let mut seed = 42u64;
    let mut rng = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    let mut u = 0.0;
    let mut e = 0.0;
    for t in 0..400 {
        if t % 3 == 0 {
            u = (u + rng()).clamp(-1.0, 1.0);
            e = (e + 0.5 * rng()).clamp(-1.0, 1.0);
        }
        let y = plant_step(&mut state, u, e);
        u_log.push(vec![u, e]);
        y_log.push(vec![y[0], y[1]]);
    }
    y_log.pop();

    // 2. Identify a black-box ARX model (the paper's System Identification
    //    step).
    let model = fit_arx(
        &u_log,
        &y_log,
        SysIdConfig {
            na: 2,
            nb: 2,
            nc: 0,
            plr_iters: 0,
            // The synthetic plant's second output is exactly first-order,
            // so the over-parameterized ARX(2,2) regressor is singular
            // without a whiff of regularization.
            ridge: 1e-6,
        },
    )?
    .stabilized(0.97)?
    .with_sample_period(0.5)?;
    println!("identified model fit per output: {:?}", model.fit);

    // 3. Specify the designer knobs (Table II style): bounds, weights,
    //    guardband, external signals.
    let mut spec = SsvSpec::new(0.5, 2, 1, 1);
    spec.output_bounds = vec![0.15, 0.25]; // tighter on output 0
    spec.input_weights = vec![1.0];
    spec.uncertainty = 0.4;

    // 4. Synthesize by D-K iteration.
    let syn = synthesize_ssv(&model.sys, &spec, DkOptions::default())?;
    println!(
        "synthesized controller: {} states, gamma = {:.2}, mu upper bound = {:.2}",
        syn.controller.order(),
        syn.gamma,
        syn.mu_peak
    );
    println!("guaranteed bounds: {:?}", syn.guaranteed_bounds);

    // 5. Deploy with the anti-windup runtime against the *true* nonlinear
    //    plant, with a quantized actuator (21 levels in [-1, 1]).
    let grid = InputGrid::stepped(-1.0, 1.0, 0.1);
    let mut rt = ObsAwController::new(&syn.controller)?;
    let mut state = [0.0f64; 2];
    let mut y = [0.0f64; 2];
    let target = [0.4, 0.2];
    let ext = 0.3; // external signal the controller can see but not change
    for step in 0..60 {
        let meas = [target[0] - y[0], target[1] - y[1], ext];
        let quantize = |u: &[f64], out: &mut Vec<f64>| out.push(grid.quantize(u[0]));
        let applied = rt.step(&meas, &quantize)?.1[0];
        y = plant_step(&mut state, applied, ext);
        if step % 10 == 0 {
            println!(
                "step {step:2}: u = {:+.1}, y = [{:+.3} {:+.3}] (targets [{:+.1} {:+.1}])",
                applied, y[0], y[1], target[0], target[1]
            );
        }
    }
    let err0 = (target[0] - y[0]).abs();
    println!("\nfinal |error| on the tightly-bounded output: {err0:.3}");
    Ok(())
}
