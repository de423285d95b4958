//! Runtime-dispatched SIMD: policy, feature detection, and the AVX2/FMA
//! slice kernels shared by the vectorized hot loops.
//!
//! Every vectorized kernel in this crate ([`crate::freq`]'s Hessenberg
//! solve, the matmul micro-kernels in [`crate::mat`]/[`crate::cmat`], the
//! closed-form σ̄ column reductions in [`crate::svd`]) keeps its scalar
//! twin as the always-available reference path and selects between the two
//! at **runtime**:
//!
//! * [`SimdPolicy`] is the caller-facing knob: `Auto` (use SIMD iff the
//!   host supports AVX2+FMA), `ForceScalar` (reference path, always
//!   available), `ForceSimd` (error out rather than silently degrade).
//! * [`resolve`] turns a policy plus a detection result into a concrete
//!   [`SimdPath`]. It is a pure function of its inputs so tests can mock
//!   the detector: `resolve(policy, false)` behaves exactly like running
//!   on a host without AVX2/FMA.
//! * The process-wide default policy comes from the `YUKTA_SIMD`
//!   environment variable (`auto` | `force_scalar` | `force_simd`, read
//!   once) so the whole stack — including every test — can be flipped
//!   between paths without code changes. CI runs the suite under both
//!   forced settings.
//!
//! Infallible call sites (operators, `FreqSystem::evaluator`) resolve the
//! global policy *leniently* — `ForceSimd` on unsupported hardware
//! degrades to scalar there — while the fallible sweep entry points
//! (`yukta_control::sweep::sweep_with`, `FreqSystem::evaluator_with`)
//! resolve *strictly* and surface [`Error::SimdUnsupported`] instead of
//! ever executing illegal instructions.

use std::sync::OnceLock;

use crate::{Error, Result};

/// How a kernel should choose between its scalar and SIMD paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use the SIMD path iff the host supports AVX2+FMA (the default).
    #[default]
    Auto,
    /// Always run the scalar reference path.
    ForceScalar,
    /// Require the SIMD path; strict resolvers return
    /// [`Error::SimdUnsupported`] when the host cannot run it.
    ForceSimd,
}

impl SimdPolicy {
    /// Parses the `YUKTA_SIMD` spelling of a policy.
    ///
    /// Accepted values: `auto`, `force_scalar`/`scalar`,
    /// `force_simd`/`simd` (case-insensitive). Anything else is `None`.
    pub fn parse(s: &str) -> Option<SimdPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(SimdPolicy::Auto),
            "force_scalar" | "scalar" => Some(SimdPolicy::ForceScalar),
            "force_simd" | "simd" => Some(SimdPolicy::ForceSimd),
            _ => None,
        }
    }
}

/// A concrete, runnable kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// The scalar reference path (always available).
    Scalar,
    /// 4-lane `f64` AVX2 with fused multiply-add (x86_64 only).
    Avx2Fma,
}

impl SimdPath {
    /// Stable lowercase name used in telemetry and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2Fma => "avx2_fma",
        }
    }
}

/// Whether this host can run the AVX2+FMA path. Detected once, cached.
pub fn detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Strictly resolves a policy against a detection result.
///
/// Pure in both arguments so tests can mock the detector by passing
/// `avx2_fma_available: false`.
///
/// # Errors
///
/// Returns [`Error::SimdUnsupported`] for [`SimdPolicy::ForceSimd`] when
/// the features are unavailable — the caller must not fall back silently.
pub fn resolve(policy: SimdPolicy, avx2_fma_available: bool) -> Result<SimdPath> {
    match policy {
        SimdPolicy::ForceScalar => Ok(SimdPath::Scalar),
        SimdPolicy::Auto => Ok(if avx2_fma_available {
            SimdPath::Avx2Fma
        } else {
            SimdPath::Scalar
        }),
        SimdPolicy::ForceSimd => {
            if avx2_fma_available {
                Ok(SimdPath::Avx2Fma)
            } else {
                Err(Error::SimdUnsupported {
                    required: "avx2+fma",
                })
            }
        }
    }
}

/// Lenient resolution: like [`resolve`] but `ForceSimd` on unsupported
/// hardware degrades to [`SimdPath::Scalar`] instead of erroring. Used by
/// infallible call sites (operator impls, cached evaluators); the sweep
/// entry points use the strict [`resolve`].
pub fn resolve_lenient(policy: SimdPolicy, avx2_fma_available: bool) -> SimdPath {
    resolve(policy, avx2_fma_available).unwrap_or(SimdPath::Scalar)
}

/// The process-wide default policy, read once from `YUKTA_SIMD`.
///
/// Unset or unparseable values mean [`SimdPolicy::Auto`].
pub fn global_policy() -> SimdPolicy {
    static POLICY: OnceLock<SimdPolicy> = OnceLock::new();
    *POLICY.get_or_init(|| {
        std::env::var("YUKTA_SIMD")
            .ok()
            .and_then(|s| SimdPolicy::parse(&s))
            .unwrap_or_default()
    })
}

/// The globally selected path: [`global_policy`] leniently resolved
/// against the real detector, cached. This is what the infallible kernels
/// ([`crate::Mat::matmul`], [`crate::svd::sigma_max`], …) dispatch on.
pub fn global_path() -> SimdPath {
    static PATH: OnceLock<SimdPath> = OnceLock::new();
    *PATH.get_or_init(|| resolve_lenient(global_policy(), detected()))
}

/// AVX2+FMA slice kernels. Everything here is `unsafe` to call: the
/// caller must guarantee the features are available (i.e. it obtained
/// [`SimdPath::Avx2Fma`] from [`resolve`]/[`global_path`], which imply a
/// positive [`detected`]).
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::*;

    use crate::C64;

    /// Reinterprets a complex slice as its interleaved `[re, im, …]`
    /// scalars. Sound because [`C64`] is `repr(C)` with two `f64` fields.
    pub(crate) fn c64_as_f64(x: &[C64]) -> &[f64] {
        // SAFETY: C64 is repr(C) { re: f64, im: f64 }, so a slice of n
        // C64s is layout-identical to a slice of 2n f64s.
        unsafe { std::slice::from_raw_parts(x.as_ptr().cast::<f64>(), 2 * x.len()) }
    }

    /// `dst[j] += a * src[j]` over `f64` slices (4-lane FMA, scalar tail
    /// also fused so the whole path rounds identically every run).
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2+FMA; `dst.len() <= src.len()` required.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn axpy(dst: &mut [f64], src: &[f64], a: f64) {
        debug_assert!(dst.len() <= src.len());
        let n = dst.len();
        let va = _mm256_set1_pd(a);
        let mut j = 0;
        while j + 4 <= n {
            let d = _mm256_loadu_pd(dst.as_ptr().add(j));
            let s = _mm256_loadu_pd(src.as_ptr().add(j));
            _mm256_storeu_pd(dst.as_mut_ptr().add(j), _mm256_fmadd_pd(va, s, d));
            j += 4;
        }
        while j < n {
            dst[j] = a.mul_add(src[j], dst[j]);
            j += 1;
        }
    }

    /// Interleaved complex `dst[j] += a * src[j]` (two `C64`s per vector:
    /// one splat-FMA for the real part of `a`, one sign-flipped
    /// swapped-lane FMA for the imaginary part).
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2+FMA; `dst.len() <= src.len()` required.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn caxpy(dst: &mut [C64], src: &[C64], a: C64) {
        debug_assert!(dst.len() <= src.len());
        let n = dst.len();
        let dp = dst.as_mut_ptr().cast::<f64>();
        let sp = src.as_ptr().cast::<f64>();
        let var = _mm256_set1_pd(a.re);
        let vai = _mm256_setr_pd(-a.im, a.im, -a.im, a.im);
        let mut j = 0;
        while j + 2 <= n {
            let d = _mm256_loadu_pd(dp.add(2 * j));
            let s = _mm256_loadu_pd(sp.add(2 * j));
            let acc = _mm256_fmadd_pd(var, s, d);
            // [im0, re0, im1, re1] · [-ai, ai, -ai, ai] adds the
            // cross terms of the complex product.
            let sw = _mm256_permute_pd(s, 0b0101);
            _mm256_storeu_pd(dp.add(2 * j), _mm256_fmadd_pd(vai, sw, acc));
            j += 2;
        }
        while j < n {
            let s = src[j];
            let d = &mut dst[j];
            let re = a.re.mul_add(s.re, d.re);
            let im = a.re.mul_add(s.im, d.im);
            d.re = (-a.im).mul_add(s.im, re);
            d.im = a.im.mul_add(s.re, im);
            j += 1;
        }
    }

    /// `dst[j] -= c[t] * src[t·stride + j]` for `t = 0, 1, …` in turn,
    /// skipping zero `c[t]`, with a separate multiply and subtract (no
    /// FMA): every element sees the same operations in the same order as
    /// the scalar row-by-row loop, so the result is bit-identical to it.
    /// `dst` is held in registers 16 columns at a time across all terms.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2, and
    /// `src.len() >= (c.len() − 1)·stride + dst.len()` when `c` is not
    /// empty.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn sub_rows(dst: &mut [f64], c: &[f64], src: &[f64], stride: usize) {
        debug_assert!(c.is_empty() || src.len() >= (c.len() - 1) * stride + dst.len());
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let mut a0 = _mm256_loadu_pd(dp.add(j));
            let mut a1 = _mm256_loadu_pd(dp.add(j + 4));
            let mut a2 = _mm256_loadu_pd(dp.add(j + 8));
            let mut a3 = _mm256_loadu_pd(dp.add(j + 12));
            for (t, &ct) in c.iter().enumerate() {
                if ct == 0.0 {
                    continue;
                }
                let vc = _mm256_set1_pd(ct);
                let s = sp.add(t * stride + j);
                a0 = _mm256_sub_pd(a0, _mm256_mul_pd(vc, _mm256_loadu_pd(s)));
                a1 = _mm256_sub_pd(a1, _mm256_mul_pd(vc, _mm256_loadu_pd(s.add(4))));
                a2 = _mm256_sub_pd(a2, _mm256_mul_pd(vc, _mm256_loadu_pd(s.add(8))));
                a3 = _mm256_sub_pd(a3, _mm256_mul_pd(vc, _mm256_loadu_pd(s.add(12))));
            }
            _mm256_storeu_pd(dp.add(j), a0);
            _mm256_storeu_pd(dp.add(j + 4), a1);
            _mm256_storeu_pd(dp.add(j + 8), a2);
            _mm256_storeu_pd(dp.add(j + 12), a3);
            j += 16;
        }
        while j + 4 <= n {
            let mut a = _mm256_loadu_pd(dp.add(j));
            for (t, &ct) in c.iter().enumerate() {
                if ct != 0.0 {
                    let s = _mm256_loadu_pd(sp.add(t * stride + j));
                    a = _mm256_sub_pd(a, _mm256_mul_pd(_mm256_set1_pd(ct), s));
                }
            }
            _mm256_storeu_pd(dp.add(j), a);
            j += 4;
        }
        while j < n {
            let mut a = dst[j];
            for (t, &ct) in c.iter().enumerate() {
                if ct != 0.0 {
                    a -= ct * src[t * stride + j];
                }
            }
            dst[j] = a;
            j += 1;
        }
    }

    /// Sum of squares of an `f64` slice (4-lane FMA accumulation).
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn sum_sq(x: &[f64]) -> f64 {
        let mut acc = _mm256_setzero_pd();
        let mut j = 0;
        while j + 4 <= x.len() {
            let v = _mm256_loadu_pd(x.as_ptr().add(j));
            acc = _mm256_fmadd_pd(v, v, acc);
            j += 4;
        }
        let mut total = hsum(acc);
        while j < x.len() {
            total = x[j].mul_add(x[j], total);
            j += 1;
        }
        total
    }

    /// Horizontal sum of the four lanes.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_spellings() {
        assert_eq!(SimdPolicy::parse("auto"), Some(SimdPolicy::Auto));
        assert_eq!(SimdPolicy::parse("AUTO"), Some(SimdPolicy::Auto));
        assert_eq!(
            SimdPolicy::parse("force_scalar"),
            Some(SimdPolicy::ForceScalar)
        );
        assert_eq!(SimdPolicy::parse("scalar"), Some(SimdPolicy::ForceScalar));
        assert_eq!(SimdPolicy::parse("force_simd"), Some(SimdPolicy::ForceSimd));
        assert_eq!(SimdPolicy::parse("simd"), Some(SimdPolicy::ForceSimd));
        assert_eq!(SimdPolicy::parse("avx512"), None);
        assert_eq!(SimdPolicy::parse(""), None);
    }

    // The detector is mocked by passing the availability flag explicitly:
    // `resolve` is pure, so `false` is exactly the no-AVX2/FMA host.

    #[test]
    fn auto_falls_back_to_scalar_without_features() {
        assert_eq!(
            resolve(SimdPolicy::Auto, false).unwrap(),
            SimdPath::Scalar,
            "Auto must degrade to the scalar path when AVX2/FMA is absent"
        );
    }

    #[test]
    fn auto_selects_simd_with_features() {
        assert_eq!(resolve(SimdPolicy::Auto, true).unwrap(), SimdPath::Avx2Fma);
    }

    #[test]
    fn force_scalar_ignores_features() {
        assert_eq!(
            resolve(SimdPolicy::ForceScalar, true).unwrap(),
            SimdPath::Scalar
        );
        assert_eq!(
            resolve(SimdPolicy::ForceScalar, false).unwrap(),
            SimdPath::Scalar
        );
    }

    #[test]
    fn force_simd_on_unsupported_hardware_is_a_typed_error() {
        assert!(matches!(
            resolve(SimdPolicy::ForceSimd, false),
            Err(Error::SimdUnsupported {
                required: "avx2+fma"
            })
        ));
        assert_eq!(
            resolve(SimdPolicy::ForceSimd, true).unwrap(),
            SimdPath::Avx2Fma
        );
    }

    #[test]
    fn lenient_resolution_never_errors() {
        assert_eq!(
            resolve_lenient(SimdPolicy::ForceSimd, false),
            SimdPath::Scalar
        );
        assert_eq!(
            resolve_lenient(SimdPolicy::ForceSimd, true),
            SimdPath::Avx2Fma
        );
    }

    #[test]
    fn global_path_is_consistent_with_policy_and_detector() {
        assert_eq!(
            global_path(),
            resolve_lenient(global_policy(), detected()),
            "cached global path must equal a fresh lenient resolution"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar_math() {
        if !detected() {
            return;
        }
        let src: Vec<f64> = (0..11).map(|i| 0.3 * i as f64 - 1.1).collect();
        let mut dst: Vec<f64> = (0..11).map(|i| 0.7 - 0.2 * i as f64).collect();
        let mut expect = dst.clone();
        for (d, s) in expect.iter_mut().zip(&src) {
            *d += 1.37 * s;
        }
        // SAFETY: detected() confirmed AVX2+FMA above.
        unsafe { avx2::axpy(&mut dst, &src, 1.37) };
        for (a, b) in dst.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }

        let csrc: Vec<crate::C64> = (0..7)
            .map(|i| crate::C64::new(0.1 * i as f64, 1.0 - 0.3 * i as f64))
            .collect();
        let mut cdst: Vec<crate::C64> = (0..7)
            .map(|i| crate::C64::new(-0.4 * i as f64, 0.25 * i as f64))
            .collect();
        let a = crate::C64::new(0.8, -1.2);
        let mut cexpect = cdst.clone();
        for (d, s) in cexpect.iter_mut().zip(&csrc) {
            *d += a * *s;
        }
        // SAFETY: detected() confirmed AVX2+FMA above.
        unsafe { avx2::caxpy(&mut cdst, &csrc, a) };
        for (x, y) in cdst.iter().zip(&cexpect) {
            assert!((*x - *y).abs() < 1e-12);
        }

        let xs: Vec<f64> = (0..9).map(|i| 0.5 * i as f64 - 2.0).collect();
        let want: f64 = xs.iter().map(|v| v * v).sum();
        // SAFETY: detected() confirmed AVX2+FMA above.
        let got = unsafe { avx2::sum_sq(&xs) };
        assert!((got - want).abs() < 1e-12);
    }
}
