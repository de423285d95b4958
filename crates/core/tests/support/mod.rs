//! The design digest the design-pipeline tests share: one FNV-1a digest
//! over every `f64` a [`Design`] carries, and its golden value for
//! [`default_design`](yukta_core::design::default_design).

use yukta_control::dk::SsvSynthesis;
use yukta_control::ss::StateSpace;
use yukta_core::design::Design;

/// Digest of `default_design()` (guardband auto-tuning on).
pub const GOLDEN_DEFAULT: u64 = 0x0005b1eb736b1aa2;

/// FNV-1a over the little-endian bytes of each value, in order.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    fn ss(&mut self, s: &StateSpace) {
        for m in [s.a(), s.b(), s.c(), s.d()] {
            self.u64(m.rows() as u64);
            self.u64(m.cols() as u64);
            self.f64s(m.as_slice());
        }
        self.f64s(&[s.ts().unwrap_or(f64::NAN)]);
    }

    pub fn ssv(&mut self, s: &SsvSynthesis) {
        self.ss(&s.controller);
        self.f64s(&[s.gamma, s.mu_peak]);
        self.f64s(&s.scalings);
        for sec in &s.d_sections {
            self.f64s(&[sec.k, sec.z, sec.p]);
        }
        self.u64(s.iterations as u64);
        self.f64s(&s.guaranteed_bounds);
    }
}

pub fn digest(d: &Design) -> u64 {
    let mut h = Fnv::new();
    h.ssv(&d.hw_ssv);
    h.ssv(&d.os_ssv);
    for m in [
        &d.hw_model_full,
        &d.os_model_full,
        &d.hw_model_solo,
        &d.os_model_solo,
        &d.mono_model,
    ] {
        h.ss(m);
    }
    h.f64s(&d.hw_fit);
    h.f64s(&d.os_fit);
    h.f64s(&[
        d.hw_uncertainty_used,
        d.os_uncertainty_used,
        d.hw_residual,
        d.os_residual,
    ]);
    h.0
}
