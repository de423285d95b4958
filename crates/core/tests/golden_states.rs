//! Golden-digest regression test for the controllers' internal state.
//!
//! `golden_runs` pins whole runs, but the board snaps every actuation to
//! its core and DVFS grids first, so a last-bit change inside a controller
//! (an estimator update re-associated, one state entry off by an ulp) can
//! leave every run bit-identical while the controller has drifted. Here
//! every [`Scheme`], instantiated on the default design, is driven open
//! loop through one fixed synthetic sensor sequence of [`PERIODS`]
//! controller periods, and an FNV-1a digest is folded over the bits of
//! `save_state()`'s floats and ints after each period: the estimator
//! states, integrators, trackers and optimizer targets themselves. The
//! quantization-blind SSV deployment rides along: its observer propagates
//! the raw command, so it also pins the last bits of what the SSV
//! controller commands, which a snapped actuation hides from every other
//! state.
//!
//! The sequence is built from integer arithmetic only (no `sin`, no libm),
//! so the digests do not depend on the host. Regenerate after an
//! *intentional* numerical change with:
//!
//! ```text
//! cargo test -p yukta-core --test golden_states -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over [`GOLDEN`].

use yukta_core::controllers::heuristic::CoordinatedHeuristicOs;
use yukta_core::controllers::ssv::SsvHwController;
use yukta_core::controllers::{ControllerState, HwSense, OsSense};
use yukta_core::design::default_design;
use yukta_core::optimizer::HwOptimizer;
use yukta_core::schemes::{Controllers, ControllersState, Scheme};
use yukta_core::signals::{HwInputs, HwOutputs, Limits, OsInputs, OsOutputs, SloSense};

/// One digest per scheme, in [`Scheme::all`] order, then the
/// quantization-blind deployment.
const GOLDEN: &[(&str, u64)] = &[
    ("CoordinatedHeuristic", 0x205a0227b2f78265),
    ("DecoupledHeuristic", 0x7320f581ded20e14),
    ("YuktaHwSsvOsHeuristic", 0x220458a144e2b3a7),
    ("YuktaHwSsvOsSsv", 0xdf4ad13dd64d2bdf),
    ("DecoupledLqg", 0x8109e49607c189c5),
    ("MonolithicLqg", 0xdc983a667dc5b63b),
    ("naive_quantization", 0x48c178ae43e3f06f),
];

/// Controller periods driven per scheme.
const PERIODS: usize = 240;

/// FNV-1a over the little-endian bytes of each value, in order.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed tag, floats by their bits, then ints.
    fn state(&mut self, s: &ControllerState) {
        assert!(s.floats.iter().all(|f| f.is_finite()), "{} diverged", s.tag);
        self.u64(s.tag.len() as u64);
        self.bytes(s.tag.as_bytes());
        self.u64(s.floats.len() as u64);
        for f in &s.floats {
            self.u64(f.to_bits());
        }
        self.u64(s.ints.len() as u64);
        for &i in &s.ints {
            self.u64(i as u64);
        }
    }
}

/// A deterministic stream of values in `[lo, hi)`: a 64-bit LCG whose top
/// 53 bits scale exactly into the unit interval.
struct Stream(u64);

impl Stream {
    fn next(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The sensor views of one period: outputs, external signals and the
/// operating point in force, spread over the board's ranges.
fn sense(s: &mut Stream) -> (HwSense, OsSense) {
    let outputs = HwOutputs {
        perf: s.next(2.0, 10.0),
        p_big: s.next(1.0, 4.0),
        p_little: s.next(0.1, 0.4),
        temp: s.next(50.0, 85.0),
    };
    let placement = OsInputs {
        threads_big: s.next(0.0, 8.0).round(),
        packing_big: s.next(1.0, 2.0),
        packing_little: s.next(1.0, 2.0),
    };
    let point = HwInputs {
        big_cores: s.next(1.0, 4.0).round(),
        little_cores: s.next(1.0, 4.0).round(),
        f_big: s.next(0.2, 2.0),
        f_little: s.next(0.2, 1.4),
    };
    let os_outputs = OsOutputs {
        perf_little: s.next(0.5, 3.0),
        perf_big: s.next(2.0, 8.0),
        spare_diff: s.next(-2.0, 2.0),
    };
    let (slo, limits, active_threads) = (SloSense::default(), Limits::default(), 8);
    let hw = HwSense {
        outputs,
        ext: placement,
        current: point,
        active_threads,
        slo,
        limits,
    };
    let os = OsSense {
        outputs: os_outputs,
        ext: point,
        current: placement,
        active_threads,
        system: outputs,
        slo,
        limits,
    };
    (hw, os)
}

/// Every scheme through [`Scheme::instantiate`], then HW SSV with naive
/// quantization + OS heuristic, each named.
fn deployments() -> Vec<(String, Controllers)> {
    let (d, limits) = (default_design(), Limits::default());
    let mut all: Vec<_> = Scheme::all()
        .into_iter()
        .map(|s| (format!("{s:?}"), s.instantiate(d, limits).unwrap()))
        .collect();
    let hw = SsvHwController::new(&d.hw_ssv, HwOptimizer::new(limits)).unwrap();
    let naive = Controllers::Split {
        hw: Box::new(hw.with_naive_quantization()),
        os: Box::new(CoordinatedHeuristicOs::new()),
    };
    all.push(("naive_quantization".to_string(), naive));
    all
}

/// The state digest of `controllers` over [`PERIODS`] synthetic periods.
fn digest(mut controllers: Controllers) -> u64 {
    let (mut h, mut s) = (Fnv(0xcbf2_9ce4_8422_2325), Stream(0x5EED_0001));
    for _ in 0..PERIODS {
        let (hw, os) = sense(&mut s);
        controllers.invoke(&hw, &os).unwrap();
        match controllers.save_state() {
            ControllersState::Split { hw, os } => {
                h.state(&hw);
                h.state(&os);
            }
            ControllersState::Monolithic(m) => h.state(&m),
        }
    }
    h.0
}

#[test]
fn every_deployment_state_matches_golden_digest() {
    for (name, controllers) in deployments() {
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden digest for {name}"))
            .1;
        assert_eq!(digest(controllers), want, "{name} state drifted");
    }
}

/// Prints the golden table. Run with `-- --ignored --nocapture` (see the
/// module docs) and paste the output over [`GOLDEN`].
#[test]
#[ignore]
fn regenerate_golden_digests() {
    println!("const GOLDEN: &[(&str, u64)] = &[");
    for (name, controllers) in deployments() {
        println!("    ({name:?}, {:#018x}),", digest(controllers));
    }
    println!("];");
}
