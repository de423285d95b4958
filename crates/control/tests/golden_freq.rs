//! Golden-vector regression tests for the frequency-sweep stack.
//!
//! Two fixed plants pin the sweep stack bit-for-bit: every constant
//! below is an `f64` bit pattern, and every assertion is exact, so any
//! change to the elimination, back-substitution, µ fold, or D-scale
//! search that moves even the last ulp fails here. The stack has one
//! arithmetic path, so the same bits hold on every host.
//!
//! A third fixed model pins the synthesis stack the same way: the
//! multi-candidate γ-bisection (γ and the central controller's A/B/C)
//! and a full SSV D–K synthesis (γ and µ̂).
//!
//! Regenerate after an *intentional* numerical change with:
//!
//! ```text
//! cargo test -p yukta-control --test golden_freq -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants over the ones below.

use yukta_control::dk::{DkOptions, synthesize_ssv};
use yukta_control::hinf::{DgkfFactors, hinf_bisect};
use yukta_control::mu::{MuBlock, MuPeak, log_grid, mu_peak_serial};
use yukta_control::plant::{SsvSpec, build_ssv_plant};
use yukta_control::ss::StateSpace;
use yukta_linalg::freq::FreqSystem;
use yukta_linalg::{C64, Mat};

/// Plant A: order-4 discrete 2×2 system (ts = 0.5), spectral radius
/// well inside the unit disk, nonzero feedthrough.
fn plant_a() -> StateSpace {
    StateSpace::new(
        Mat::from_rows(&[
            &[0.35, 0.20, -0.10, 0.05],
            &[-0.15, 0.40, 0.25, 0.00],
            &[0.10, -0.20, 0.30, 0.15],
            &[0.05, 0.10, -0.25, 0.45],
        ]),
        Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, -0.5], &[-0.25, 0.75]]),
        Mat::from_rows(&[&[1.0, 0.0, 0.5, -0.5], &[0.0, 1.0, -0.25, 0.25]]),
        Mat::from_rows(&[&[0.1, 0.0], &[-0.05, 0.2]]),
        Some(0.5),
    )
    .unwrap()
}

/// Plant B: order-6 continuous 2×2 system, comfortably Hurwitz.
fn plant_b() -> StateSpace {
    StateSpace::new(
        Mat::from_rows(&[
            &[-1.2, 0.4, 0.0, 0.1, -0.3, 0.2],
            &[0.2, -0.9, 0.5, 0.0, 0.1, -0.1],
            &[-0.1, 0.3, -1.5, 0.4, 0.0, 0.2],
            &[0.0, -0.2, 0.3, -0.8, 0.5, 0.1],
            &[0.3, 0.0, -0.1, 0.2, -1.1, 0.4],
            &[-0.2, 0.1, 0.2, -0.3, 0.1, -1.4],
        ]),
        Mat::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[0.5, 0.5],
            &[-0.5, 0.25],
            &[0.25, -0.75],
            &[0.1, 0.9],
        ]),
        Mat::from_rows(&[
            &[1.0, 0.0, 0.25, 0.0, -0.5, 0.1],
            &[0.0, 1.0, 0.0, -0.25, 0.3, 0.0],
        ]),
        Mat::from_rows(&[&[0.05, 0.0], &[0.0, -0.1]]),
        None,
    )
    .unwrap()
}

/// Probe points: unit-circle angles θ for plant A (λ = e^{iθ}), radian
/// frequencies ω for plant B (λ = iω).
const PROBES_A: [f64; 3] = [0.3, 1.1, 2.6];
const PROBES_B: [f64; 3] = [0.05, 0.7, 4.0];

const MU_BLOCKS: [MuBlock; 2] = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];

/// Scalar-path response bits: `[probe][entry]` with each 2×2 response
/// flattened row-major as re, im, re, im, …
#[rustfmt::skip]
const GOLDEN_RESP_A: [[u64; 8]; 3] = [
    [4611398888476805078, 13829371112341464891, 13827576232221081018, 4594273939542824562, 13823576921999472112, 4595767795583856292, 4611204342407014204, 13828163292615897294],
    [4598582577082038386, 13832981539580656235, 13820513695736161682, 4604464316796813097, 13800778769034536248, 4598175358992621803, 4601034067853545712, 13833070489170723440],
    [13829287659255821704, 13824342301675830953, 4602254265263109252, 4597148960217882503, 4588067450463274289, 4583031758439113742, 13827863924898825158, 13823448086339792284],
];
#[rustfmt::skip]
const GOLDEN_RESP_B: [[u64; 8]; 3] = [
    [4605096036226431874, 13807832098320140984, 4607628906154901433, 13813981628875244866, 4603399134949252212, 13810828359478543610, 4608719362550181298, 13817304943489740712],
    [4603543449116361815, 13822054347299090368, 4602960427997830278, 13826739496948479032, 4597432637943342766, 13822727291777753489, 4601211136467959442, 13828212467225258542],
    [4593944828635133960, 13820481323269762324, 4571736269035476906, 13818311245677223930, 13800278706875408919, 13812445286826004463, 13813937352969156713, 13818842335720556706],
];

/// Scalar-path µ sweep results: (peak bits, w_peak bits).
const GOLDEN_MU_A: (u64, u64) = (4613171715169446510, 4576918229304087675);
const GOLDEN_MU_B: (u64, u64) = (4611307296173852098, 4576918229304087675);

/// Scalar-path H∞ norm estimates over the grids in `hinf_value`.
const GOLDEN_HINF_A: u64 = 4613194778772981479;
const GOLDEN_HINF_B: u64 = 4611624100277332589;

/// Synthesis model: order-3 discrete (ts = 0.5) with two outputs, two
/// actuators and one external signal, inputs ordered `[u; e]`.
fn synth_model() -> StateSpace {
    StateSpace::new(
        Mat::from_rows(&[
            &[0.62, 0.10, -0.05],
            &[-0.08, 0.45, 0.12],
            &[0.04, -0.10, 0.30],
        ]),
        Mat::from_rows(&[
            &[0.40, 0.05, 0.10],
            &[0.10, 0.35, -0.05],
            &[-0.05, 0.20, 0.15],
        ]),
        Mat::from_rows(&[&[1.0, 0.2, 0.0], &[0.0, 1.0, 0.3]]),
        Mat::zeros(2, 3),
        Some(0.5),
    )
    .unwrap()
}

fn synth_spec() -> SsvSpec {
    SsvSpec::new(0.5, 2, 2, 1)
}

/// The production D–K settings the deployed controllers are built with.
fn synth_opts() -> DkOptions {
    DkOptions {
        max_iters: 2,
        gamma_iters: 14,
        n_freq: 25,
        ..DkOptions::default()
    }
}

/// Synthesis goldens: bisection γ bits, an FNV-1a
/// digest of the bisected controller's A, B, C bits (row-major, in that
/// order), then the D–K γ and µ̂ bits.
#[derive(Debug, PartialEq)]
struct SynthBits {
    bisect_gamma: u64,
    bisect_abc: u64,
    dk_gamma: u64,
    dk_mu: u64,
}

const GOLDEN_SYNTH: SynthBits = SynthBits {
    bisect_gamma: 4613793967730044645,
    bisect_abc: 460527468485002808,
    dk_gamma: 4609350056269375623,
    dk_mu: 4609341432889998683,
};
fn fnv_bits(mats: &[&Mat]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in mats.iter().flat_map(|m| m.as_slice()) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn synth_bits() -> SynthBits {
    let plant = build_ssv_plant(&synth_model(), &synth_spec()).unwrap();
    let fac = DgkfFactors::new(&plant.gen).unwrap();
    let (design, gamma) = hinf_bisect(&plant.gen, &fac, 0.1, 100.0, 14).unwrap();
    let k = &design.k;
    let syn = synthesize_ssv(&synth_model(), &synth_spec(), synth_opts()).unwrap();
    SynthBits {
        bisect_gamma: gamma.to_bits(),
        bisect_abc: fnv_bits(&[k.a(), k.b(), k.c()]),
        dk_gamma: syn.gamma.to_bits(),
        dk_mu: syn.mu_peak.to_bits(),
    }
}

fn lambda_a(theta: f64) -> C64 {
    C64::cis(theta)
}

fn lambda_b(w: f64) -> C64 {
    C64::new(0.0, w)
}

fn responses(fs: &FreqSystem, probes: &[f64], mk: fn(f64) -> C64) -> Vec<[f64; 8]> {
    let mut ev = fs.evaluator();
    probes
        .iter()
        .map(|&p| {
            let g = ev.eval(mk(p)).unwrap();
            let mut flat = [0.0; 8];
            for i in 0..2 {
                for j in 0..2 {
                    let z = g.get(i, j);
                    flat[4 * i + 2 * j] = z.re;
                    flat[4 * i + 2 * j + 1] = z.im;
                }
            }
            flat
        })
        .collect()
}

fn mu_grid_a() -> Vec<f64> {
    log_grid(1e-2, 0.98 * std::f64::consts::PI / 0.5, 80)
}

fn mu_grid_b() -> Vec<f64> {
    log_grid(1e-2, 1e2, 80)
}

fn mu_value(sys: &StateSpace, grid: &[f64]) -> MuPeak {
    mu_peak_serial(sys, &MU_BLOCKS, grid).unwrap()
}

fn hinf_value(sys: &StateSpace) -> f64 {
    if sys.ts().is_some() {
        sys.hinf_norm_estimate(1e-2, 0.98 * std::f64::consts::PI / 0.5, 160)
    } else {
        sys.hinf_norm_estimate(1e-2, 1e2, 160)
    }
}

#[test]
fn responses_match_golden_bits() {
    for (sys, probes, mk, golden) in [
        (
            plant_a(),
            &PROBES_A,
            lambda_a as fn(f64) -> C64,
            &GOLDEN_RESP_A,
        ),
        (
            plant_b(),
            &PROBES_B,
            lambda_b as fn(f64) -> C64,
            &GOLDEN_RESP_B,
        ),
    ] {
        let got = responses(sys.freq_system(), probes, mk);
        for (flat, want) in got.iter().zip(golden) {
            for (v, &w) in flat.iter().zip(want) {
                assert_eq!(
                    v.to_bits(),
                    w,
                    "response drifted: {v} vs {}",
                    f64::from_bits(w)
                );
            }
        }
    }
}

#[test]
fn mu_matches_golden_bits() {
    for (sys, grid, (peak, w_peak)) in [
        (plant_a(), mu_grid_a(), GOLDEN_MU_A),
        (plant_b(), mu_grid_b(), GOLDEN_MU_B),
    ] {
        let got = mu_value(&sys, &grid);
        assert_eq!(got.peak.to_bits(), peak, "µ peak drifted: {}", got.peak);
        assert_eq!(
            got.w_peak.to_bits(),
            w_peak,
            "µ peak frequency drifted: {}",
            got.w_peak
        );
    }
}

#[test]
fn hinf_estimate_matches_golden() {
    for (sys, golden) in [(plant_a(), GOLDEN_HINF_A), (plant_b(), GOLDEN_HINF_B)] {
        let got = hinf_value(&sys);
        let want = f64::from_bits(golden);
        assert_eq!(got.to_bits(), golden, "H∞ drifted: {got} vs {want}");
    }
}

#[test]
fn synthesis_matches_golden_bits() {
    assert_eq!(synth_bits(), GOLDEN_SYNTH, "synthesis drifted");
}

/// Prints the golden constants. Run with `-- --ignored --nocapture` (see
/// the module docs) and paste the output over the constants above.
#[test]
#[ignore]
fn regenerate_golden_vectors() {
    println!("const GOLDEN_SYNTH: SynthBits = {:?};", synth_bits());
    let print_resp = |name: &str, sys: &StateSpace, probes: &[f64], mk: fn(f64) -> C64| {
        println!("const GOLDEN_RESP_{name}: [[u64; 8]; 3] = [");
        for flat in responses(sys.freq_system(), probes, mk) {
            let bits: Vec<String> = flat.iter().map(|v| v.to_bits().to_string()).collect();
            println!("    [{}],", bits.join(", "));
        }
        println!("];");
    };
    let a = plant_a();
    let b = plant_b();
    print_resp("A", &a, &PROBES_A, lambda_a);
    print_resp("B", &b, &PROBES_B, lambda_b);
    let mu_a = mu_value(&a, &mu_grid_a());
    let mu_b = mu_value(&b, &mu_grid_b());
    println!(
        "const GOLDEN_MU_A: (u64, u64) = ({}, {});",
        mu_a.peak.to_bits(),
        mu_a.w_peak.to_bits()
    );
    println!(
        "const GOLDEN_MU_B: (u64, u64) = ({}, {});",
        mu_b.peak.to_bits(),
        mu_b.w_peak.to_bits()
    );
    println!("const GOLDEN_HINF_A: u64 = {};", hinf_value(&a).to_bits());
    println!("const GOLDEN_HINF_B: u64 = {};", hinf_value(&b).to_bits());
}
