//! Fast repeated evaluation of `C (λI − A)⁻¹ B + D` over a frequency grid.
//!
//! Frequency sweeps (µ upper-bound peaks, H∞ norm estimates, D-scale
//! fitting) evaluate the same state-space realization at hundreds of grid
//! points. Doing that naively costs a fresh complex LU — O(n³) and several
//! heap allocations — per point.
//!
//! [`FreqSystem`] pays the O(n³) once: it reduces `A = Q H Qᵀ` to upper
//! Hessenberg form with the Householder machinery in [`crate::eig`] and
//! stores `H`, `QᵀB`, `CQ`, and `D`. Because
//!
//! ```text
//! C (λI − A)⁻¹ B + D  =  (CQ) (λI − H)⁻¹ (QᵀB) + D
//! ```
//!
//! each grid point then needs only a *Hessenberg* solve: Gaussian
//! elimination with adjacent-row partial pivoting touches a single
//! subdiagonal per column, so the factorization is O(n²) instead of O(n³).
//!
//! [`FreqEvaluator`] owns the per-point complex scratch and reuses it
//! across calls, so a sweep's steady state performs one small `p × m`
//! output allocation per point and nothing else. `FreqSystem` is `Sync`;
//! parallel sweeps share one system and give each worker thread its own
//! evaluator.

#[cfg(target_arch = "x86_64")]
use crate::cmat::mul_lanes;
use crate::cmat::{parts, parts_mut};
use crate::eig::hessenberg_q;
use crate::lu::sub_rows;
use crate::{C64, CMat, Error, Mat, Result};

/// A state-space realization `(A, B, C, D)` preprocessed for repeated
/// transfer-function evaluation.
///
/// Construction costs one Hessenberg reduction (O(n³)); every subsequent
/// [`FreqEvaluator::eval`] costs O(n²) + O(n·m·p).
///
/// ```
/// use yukta_linalg::freq::FreqSystem;
/// use yukta_linalg::{C64, Mat};
///
/// let a = Mat::from_rows(&[&[0.0, 1.0], &[-2.0, -3.0]]);
/// let b = Mat::col(&[0.0, 1.0]);
/// let c = Mat::row(&[1.0, 0.0]);
/// let d = Mat::zeros(1, 1);
/// let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
/// let mut ev = sys.evaluator();
/// // DC gain of s/(s^2+3s+2) shaped plant: C (−A)⁻¹ B = 0.5.
/// let g = ev.eval(C64::ZERO).unwrap();
/// assert!((g.get(0, 0).re - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FreqSystem {
    /// Upper Hessenberg `H = Qᵀ A Q`, row-major `n × n`.
    h: Vec<f64>,
    /// `Qᵀ B`, row-major `n × m`.
    qtb: Vec<f64>,
    /// `−C Q`, row-major `p × n`: negated so that the output product
    /// runs on [`sub_rows`] as `D − (−CQ)·X`.
    neg_cq: Vec<f64>,
    /// Feedthrough `D`, row-major `p × m`.
    d: Vec<f64>,
    n: usize,
    m: usize,
    p: usize,
}

impl FreqSystem {
    /// Builds the preprocessed system from a realization `(A, B, C, D)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `A` is not square or
    /// `B`/`C`/`D` do not conform to it.
    pub fn new(a: &Mat, b: &Mat, c: &Mat, d: &Mat) -> Result<FreqSystem> {
        let n = a.rows();
        if !a.is_square() {
            return Err(Error::DimensionMismatch {
                op: "freq_system",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        if b.rows() != n || c.cols() != n {
            return Err(Error::DimensionMismatch {
                op: "freq_system",
                lhs: b.shape(),
                rhs: c.shape(),
            });
        }
        let (m, p) = (b.cols(), c.rows());
        if d.shape() != (p, m) {
            return Err(Error::DimensionMismatch {
                op: "freq_system",
                lhs: d.shape(),
                rhs: (p, m),
            });
        }
        if n == 0 {
            return Ok(FreqSystem {
                h: Vec::new(),
                qtb: Vec::new(),
                neg_cq: Vec::new(),
                d: d.as_slice().to_vec(),
                n,
                m,
                p,
            });
        }
        let (h, q) = hessenberg_q(a);
        let qtb = q.t().matmul(b)?;
        let neg_cq = c.matmul(&q)?.scale(-1.0);
        Ok(FreqSystem {
            h: h.into_vec(),
            qtb: qtb.into_vec(),
            neg_cq: neg_cq.into_vec(),
            d: d.as_slice().to_vec(),
            n,
            m,
            p,
        })
    }

    /// State dimension `n`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Input count `m`.
    pub fn inputs(&self) -> usize {
        self.m
    }

    /// Output count `p`.
    pub fn outputs(&self) -> usize {
        self.p
    }

    /// Creates an evaluator with its own scratch buffers.
    ///
    /// Evaluators are cheap (two `n·max(n, m)` complex buffers); give each
    /// worker thread its own rather than sharing one behind a lock.
    pub fn evaluator(&self) -> FreqEvaluator<'_> {
        FreqEvaluator {
            sys: self,
            lu: vec![C64::ZERO; self.n * self.n],
            x: vec![C64::ZERO; self.n * self.m],
        }
    }

    /// Bytes one evaluation streams over, as a chunk-sizing estimate.
    ///
    /// `yukta_control::sweep` sizes its per-worker grid chunks from this
    /// so a chunk's working set stays inside the L2 budget. The formula
    /// still counts the 4-padded split-plane scratch of an earlier vector
    /// evaluator; it is kept as it was so the chunk sizes, and with them
    /// the Osborne batch shapes, do not move.
    pub fn working_set_bytes(&self) -> usize {
        let (n, m, p) = (self.n, self.m, self.p);
        let np = n.next_multiple_of(4);
        let mp = m.next_multiple_of(4);
        // Split-plane scratch (re+im for LU and RHS), the H/QᵀB/CQ/D
        // tables every solve reads, and the p×m complex output.
        2 * 8 * (n * np + n * mp) + 8 * (n * n + n * m + p * n + p * m) + 16 * p * m
    }
}

/// Reusable scratch for evaluating one [`FreqSystem`] at many points.
///
/// Not `Sync`: clone one per thread via [`FreqSystem::evaluator`].
#[derive(Debug)]
pub struct FreqEvaluator<'a> {
    sys: &'a FreqSystem,
    /// Working copy of `λI − H`, row-major `n × n`.
    lu: Vec<C64>,
    /// Right-hand side, overwritten with the solution `X`, row-major
    /// `n × m`.
    x: Vec<C64>,
}

impl FreqEvaluator<'_> {
    /// Evaluates `G(λ) = C (λI − A)⁻¹ B + D` at one point of the complex
    /// plane (`λ = jω` for continuous time, `λ = e^{jωT}` for discrete).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if `λ` is (numerically) an eigenvalue
    /// of `A`.
    pub fn eval(&mut self, lambda: C64) -> Result<CMat> {
        let (n, m, p) = (self.sys.n, self.sys.m, self.sys.p);
        let mut out = CMat::zeros(p, m);
        for i in 0..p {
            for j in 0..m {
                out.set(i, j, C64::real(self.sys.d[i * m + j]));
            }
        }
        if n == 0 {
            return Ok(out);
        }

        // Assemble λI − H and the right-hand side QᵀB in the scratch.
        for i in 0..n {
            let row = &self.sys.h[i * n..(i + 1) * n];
            let dst = &mut self.lu[i * n..(i + 1) * n];
            for (d, &h) in dst.iter_mut().zip(row) {
                *d = C64::new(-h, 0.0);
            }
            dst[i] += lambda;
        }
        for (d, &b) in self.x.iter_mut().zip(&self.sys.qtb) {
            *d = C64::real(b);
        }

        // Hessenberg Gaussian elimination: column k has a single
        // subdiagonal entry at row k+1, so each step is one adjacent-row
        // pivot comparison and one row update — O(n) per column, O(n²)
        // total.
        for k in 0..n.saturating_sub(1) {
            if self.lu[(k + 1) * n + k].abs_sq() > self.lu[k * n + k].abs_sq() {
                let (top, bottom) = self.lu.split_at_mut((k + 1) * n);
                top[k * n + k..k * n + n].swap_with_slice(&mut bottom[k..n]);
                let (xt, xb) = self.x.split_at_mut((k + 1) * m);
                xt[k * m..(k + 1) * m].swap_with_slice(&mut xb[..m]);
            }
            let pivot = self.lu[k * n + k];
            if pivot.abs() < 1e-300 {
                return Err(Error::Singular { op: "freq_eval" });
            }
            let factor = self.lu[(k + 1) * n + k] / pivot;
            if factor != C64::ZERO {
                let (top, bottom) = self.lu.split_at_mut((k + 1) * n);
                sub_scaled(
                    &mut bottom[k + 1..n],
                    factor,
                    &top[k * n + k + 1..(k + 1) * n],
                );
                let (xt, xb) = self.x.split_at_mut((k + 1) * m);
                sub_scaled(&mut xb[..m], factor, &xt[k * m..(k + 1) * m]);
            }
        }
        if self.lu[(n - 1) * n + (n - 1)].abs() < 1e-300 {
            return Err(Error::Singular { op: "freq_eval" });
        }

        // Back substitution, all m right-hand sides at once. Dividing by
        // the pivot is multiplying by its reciprocal (`C64`'s `Div`), so
        // the reciprocal is taken once per row.
        for k in (0..n).rev() {
            let recip = self.lu[k * n + k].recip();
            let (head, below) = self.x.split_at_mut((k + 1) * m);
            back_row(
                &mut head[k * m..],
                &self.lu[k * n + k + 1..(k + 1) * n],
                below,
                recip,
            );
        }

        // out = CQ · X + D (D already loaded above), as D − (−CQ)·X on
        // the interleaved parts: a real coefficient scales both parts of
        // a complex entry, `o − (−c)·v` is exactly `o + v·c`, and each
        // entry still takes its nonzero terms in `k` order.
        if m > 0 {
            let x = parts(&self.x);
            for (row, neg_c) in out
                .as_mut_slice()
                .chunks_exact_mut(m)
                .zip(self.sys.neg_cq.chunks_exact(n))
            {
                sub_rows(parts_mut(row), neg_c, x, 2 * m);
            }
        }
        Ok(out)
    }
}

/// `dst[j] = dst[j] − f·src[j]` for every `j`: the elimination's row
/// update. On hosts with AVX2 it runs [`sub_scaled_avx2`], which gives
/// the same bits.
fn sub_scaled(dst: &mut [C64], f: C64, src: &[C64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_eq!(dst.len(), src.len());
        // SAFETY: AVX2 was detected on this host; the lengths are
        // asserted equal above.
        unsafe { sub_scaled_avx2(dst, f, src) };
        return;
    }
    sub_scaled_scalar(dst, f, src);
}

/// The portable loop of [`sub_scaled`].
fn sub_scaled_scalar(dst: &mut [C64], f: C64, src: &[C64]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = *d - f * v;
    }
}

/// The AVX2 loop of [`sub_scaled`]: two elements per register, the
/// product on complex lanes ([`mul_lanes`]) and a separate subtract.
///
/// # Safety
///
/// Caller must guarantee AVX2 and `src.len() == dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sub_scaled_avx2(dst: &mut [C64], f: C64, src: &[C64]) {
    use core::arch::x86_64::*;

    let (f_re, f_im) = (_mm256_set1_pd(f.re), _mm256_set1_pd(f.im));
    let dp = dst.as_mut_ptr().cast::<f64>();
    let sp = src.as_ptr().cast::<f64>();
    let mut j = 0;
    while j + 2 <= dst.len() {
        let d = _mm256_loadu_pd(dp.add(2 * j));
        let v = _mm256_loadu_pd(sp.add(2 * j));
        _mm256_storeu_pd(dp.add(2 * j), _mm256_sub_pd(d, mul_lanes(v, f_re, f_im)));
        j += 2;
    }
    sub_scaled_scalar(&mut dst[j..], f, &src[j..]);
}

/// One row `k` of the back substitution, for all `m = xk.len()`
/// right-hand sides: `xₖⱼ ← (xₖⱼ − Σₜ cₜ·x₍ₖ₊₁₊ₜ₎ⱼ)·recip`, the terms
/// subtracted in `t` order, where `coef` is row `k` of `U` right of the
/// diagonal and `below` the solved rows under `k`. On hosts with AVX2 it
/// runs [`back_row_avx2`], which gives the same bits.
fn back_row(xk: &mut [C64], coef: &[C64], below: &[C64], recip: C64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert!(below.len() >= coef.len() * xk.len());
        // SAFETY: AVX2 was detected on this host; `below` holds a row of
        // `xk.len()` values per coefficient, asserted above.
        unsafe { back_row_avx2(xk, coef, below, recip) };
        return;
    }
    back_row_scalar(xk, coef, below, recip);
}

/// The portable loop of [`back_row`].
fn back_row_scalar(xk: &mut [C64], coef: &[C64], below: &[C64], recip: C64) {
    let m = xk.len();
    for (j, x) in xk.iter_mut().enumerate() {
        let mut acc = *x;
        for (t, &c) in coef.iter().enumerate() {
            acc = acc - c * below[t * m + j];
        }
        *x = acc * recip;
    }
}

/// The AVX2 loop of [`back_row`]: each register holds two right-hand
/// sides, eight per pass down all the terms, each product on complex
/// lanes ([`mul_lanes`]) followed by a separate subtract, so every
/// element sees [`back_row_scalar`]'s operations in its order. An odd
/// last column runs the scalar terms.
///
/// # Safety
///
/// Caller must guarantee AVX2 and `below.len() >= coef.len()·xk.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn back_row_avx2(xk: &mut [C64], coef: &[C64], below: &[C64], recip: C64) {
    let m = xk.len();
    let mut j = 0;
    while j + 8 <= m {
        back_cols_avx2::<4>(xk, j, coef, below, recip);
        j += 8;
    }
    while j + 2 <= m {
        back_cols_avx2::<1>(xk, j, coef, below, recip);
        j += 2;
    }
    if j < m {
        let mut acc = xk[j];
        for (t, &c) in coef.iter().enumerate() {
            acc = acc - c * below[t * m + j];
        }
        xk[j] = acc * recip;
    }
}

/// Columns `j .. j + 2P` of [`back_row_avx2`], one register per column
/// pair.
///
/// # Safety
///
/// As [`back_row_avx2`], with `j + 2P <= xk.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn back_cols_avx2<const P: usize>(
    xk: &mut [C64],
    j: usize,
    coef: &[C64],
    below: &[C64],
    recip: C64,
) {
    use core::arch::x86_64::*;

    let m = xk.len();
    let xp = xk.as_mut_ptr().add(j).cast::<f64>();
    let bp = below.as_ptr().add(j).cast::<f64>();
    let mut acc = [_mm256_setzero_pd(); P];
    for (p, v) in acc.iter_mut().enumerate() {
        *v = _mm256_loadu_pd(xp.add(4 * p));
    }
    for (t, c) in coef.iter().enumerate() {
        let (c_re, c_im) = (_mm256_set1_pd(c.re), _mm256_set1_pd(c.im));
        let row = bp.add(2 * t * m);
        for (p, v) in acc.iter_mut().enumerate() {
            *v = _mm256_sub_pd(*v, mul_lanes(_mm256_loadu_pd(row.add(4 * p)), c_re, c_im));
        }
    }
    let (r_re, r_im) = (_mm256_set1_pd(recip.re), _mm256_set1_pd(recip.im));
    for (p, &v) in acc.iter().enumerate() {
        _mm256_storeu_pd(xp.add(4 * p), mul_lanes(v, r_re, r_im));
    }
}

/// The evaluation loops [`FreqEvaluator::eval`] replaced, kept as the
/// reference its kernels are pinned to bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::FreqSystem;
    use crate::{C64, CMat, Error, Result};

    pub(crate) fn eval(sys: &FreqSystem, lambda: C64) -> Result<CMat> {
        let (n, m, p) = (sys.n, sys.m, sys.p);
        let mut out = CMat::zeros(p, m);
        for i in 0..p {
            for j in 0..m {
                out.set(i, j, C64::real(sys.d[i * m + j]));
            }
        }
        if n == 0 {
            return Ok(out);
        }
        let mut lu = vec![C64::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                lu[i * n + j] = C64::new(-sys.h[i * n + j], 0.0);
            }
            lu[i * n + i] += lambda;
        }
        let mut x: Vec<C64> = sys.qtb.iter().map(|&b| C64::real(b)).collect();
        for k in 0..n - 1 {
            if lu[(k + 1) * n + k].abs_sq() > lu[k * n + k].abs_sq() {
                for j in k..n {
                    lu.swap(k * n + j, (k + 1) * n + j);
                }
                for j in 0..m {
                    x.swap(k * m + j, (k + 1) * m + j);
                }
            }
            let pivot = lu[k * n + k];
            if pivot.abs() < 1e-300 {
                return Err(Error::Singular { op: "freq_eval" });
            }
            let factor = lu[(k + 1) * n + k] / pivot;
            if factor != C64::ZERO {
                for j in (k + 1)..n {
                    lu[(k + 1) * n + j] = lu[(k + 1) * n + j] - factor * lu[k * n + j];
                }
                for j in 0..m {
                    x[(k + 1) * m + j] = x[(k + 1) * m + j] - factor * x[k * m + j];
                }
            }
        }
        if lu[(n - 1) * n + (n - 1)].abs() < 1e-300 {
            return Err(Error::Singular { op: "freq_eval" });
        }
        for k in (0..n).rev() {
            let pivot = lu[k * n + k];
            for j in 0..m {
                let mut acc = x[k * m + j];
                for i in (k + 1)..n {
                    acc = acc - lu[k * n + i] * x[i * m + j];
                }
                x[k * m + j] = acc / pivot;
            }
        }
        for i in 0..p {
            for j in 0..m {
                let mut acc = out.get(i, j);
                for k in 0..n {
                    let c = -sys.neg_cq[i * n + k];
                    if c != 0.0 {
                        acc += x[k * m + j] * c;
                    }
                }
                out.set(i, j, acc);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmat::lane_inputs::{draws, lane_bits, values};
    use proptest::prelude::*;

    /// Both AVX2 loops give the portable loops' bits: every length up to
    /// 21 (the 8-wide blocks, the pairs and the odd tail), up to six
    /// terms, with plain entries and with NaN, ±∞, ±0 and subnormals.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_solve_kernels_match_scalar_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for len in 0..=21usize {
            for terms in 0..=6usize {
                for special_every in [0, 4, 19] {
                    let seed = 0xf5e9 + 97 * (len * 7 + terms) as u64;
                    let dst = values(len, seed, special_every);
                    let src = values(len, seed ^ 0xa1, special_every);
                    let coef = values(terms, seed ^ 0xb2, special_every);
                    let below = values(terms * len, seed ^ 0xc3, special_every);
                    let f = values(2, seed ^ 0xd4, special_every);
                    let case = format!("len {len}, terms {terms}, specials every {special_every}");

                    let (mut want, mut got) = (dst.clone(), dst.clone());
                    sub_scaled_scalar(&mut want, f[0], &src);
                    // SAFETY: AVX2 was detected above; `src` and `dst`
                    // have the same length.
                    unsafe { sub_scaled_avx2(&mut got, f[0], &src) };
                    assert_eq!(lane_bits(&got), lane_bits(&want), "sub_scaled, {case}");

                    let (mut want, mut got) = (dst.clone(), dst);
                    back_row_scalar(&mut want, &coef, &below, f[1]);
                    // SAFETY: AVX2 was detected above; `below` holds
                    // `terms·len` values.
                    unsafe { back_row_avx2(&mut got, &coef, &below, f[1]) };
                    assert_eq!(lane_bits(&got), lane_bits(&want), "back_row, {case}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The evaluator gives the old loops' bits: orders up to 40, up to
        /// 20 inputs and 12 outputs (the deployed µ shapes included), at
        /// points on the imaginary axis and the unit circle, with plain
        /// `B`, `C`, `D` and with NaN, ±∞, ±0 and subnormal entries; a
        /// singular point fails on both.
        #[test]
        fn eval_matches_old_loop_bits(
            n in 0usize..=40,
            m in 0usize..=20,
            p in 0usize..=12,
            seed in 0u64..u64::MAX,
            special in 0u64..3,
            w in -3.0f64..3.0,
            circle in 0u32..2,
        ) {
            let mut plain = draws(seed, 0);
            let mut next = draws(seed ^ 0x5eed, [0, 7, 31][special as usize]);
            let mut a = Mat::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = 0.5 * plain();
                }
                a[(i, i)] -= 1.5;
            }
            let mut fill = |r: usize, c: usize| {
                let mut out = Mat::zeros(r, c);
                for i in 0..r {
                    for j in 0..c {
                        // Sparse enough that the zero skip is exercised.
                        let v = next();
                        out[(i, j)] = if v.abs() < 0.3 { 0.0 } else { v };
                    }
                }
                out
            };
            let (b, c, d) = (fill(n, m), fill(p, n), fill(p, m));
            let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
            let lambda = if circle == 1 { C64::cis(w) } else { C64::new(0.0, 10f64.powf(w)) };
            match (sys.evaluator().eval(lambda), reference::eval(&sys, lambda)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(lane_bits(got.as_slice()), lane_bits(want.as_slice()));
                }
                (got, want) => prop_assert!(got.is_err() && want.is_err(), "{got:?} vs {want:?}"),
            }
        }
    }

    /// Reference evaluation: dense complex LU on the original realization.
    fn eval_naive(a: &Mat, b: &Mat, c: &Mat, d: &Mat, lambda: C64) -> CMat {
        let n = a.rows();
        let mut lhs = CMat::from_real(&a.scale(-1.0));
        for i in 0..n {
            let v = lhs.get(i, i);
            lhs.set(i, i, v + lambda);
        }
        let x = lhs.solve(&CMat::from_real(b)).unwrap();
        CMat::from_real(c)
            .matmul(&x)
            .unwrap()
            .add(&CMat::from_real(d))
    }

    fn test_system() -> (Mat, Mat, Mat, Mat) {
        let a = Mat::from_rows(&[
            &[-0.8, 0.4, 0.1, 0.0],
            &[0.2, -1.3, 0.5, 0.3],
            &[-0.1, 0.7, -0.9, 0.2],
            &[0.3, -0.2, 0.6, -1.1],
        ]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, -0.5], &[0.2, 0.8]]);
        let c = Mat::from_rows(&[
            &[1.0, 0.0, 0.3, 0.0],
            &[0.0, 1.0, 0.0, -0.4],
            &[0.2, 0.2, 0.2, 0.2],
        ]);
        let d = Mat::from_rows(&[&[0.1, 0.0], &[0.0, -0.2], &[0.0, 0.0]]);
        (a, b, c, d)
    }

    #[test]
    fn matches_dense_lu_on_imaginary_axis() {
        let (a, b, c, d) = test_system();
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        let mut ev = sys.evaluator();
        for k in 0..40 {
            let w = 0.01 * 1.3f64.powi(k);
            let lambda = C64::new(0.0, w);
            let fast = ev.eval(lambda).unwrap();
            let slow = eval_naive(&a, &b, &c, &d, lambda);
            assert!(
                fast.sub(&slow).max_abs() < 1e-11,
                "mismatch at w = {w}: {}",
                fast.sub(&slow).max_abs()
            );
        }
    }

    #[test]
    fn matches_dense_lu_on_unit_circle() {
        let (a, b, c, d) = test_system();
        // Scale A inside the unit disk so e^{jωT} never hits an eigenvalue.
        let a = a.scale(0.4);
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        let mut ev = sys.evaluator();
        for k in 0..64 {
            let theta = k as f64 * std::f64::consts::PI / 32.0;
            let lambda = C64::cis(theta);
            let fast = ev.eval(lambda).unwrap();
            let slow = eval_naive(&a, &b, &c, &d, lambda);
            assert!(fast.sub(&slow).max_abs() < 1e-11);
        }
    }

    #[test]
    fn evaluator_reuse_is_stateless() {
        let (a, b, c, d) = test_system();
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        let mut ev = sys.evaluator();
        let lambda = C64::new(0.0, 2.0);
        let first = ev.eval(lambda).unwrap();
        // Interleave other points, then re-evaluate: must be bit-identical.
        ev.eval(C64::new(0.0, 0.5)).unwrap();
        ev.eval(C64::cis(1.0)).unwrap();
        let again = ev.eval(lambda).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn static_gain_system() {
        let d = Mat::from_rows(&[&[2.0, -1.0]]);
        let sys =
            FreqSystem::new(&Mat::zeros(0, 0), &Mat::zeros(0, 2), &Mat::zeros(1, 0), &d).unwrap();
        let g = sys.evaluator().eval(C64::new(0.0, 3.0)).unwrap();
        assert_eq!(g.get(0, 0), C64::real(2.0));
        assert_eq!(g.get(0, 1), C64::real(-1.0));
    }

    #[test]
    fn eigenvalue_hit_reports_singular() {
        // A = diag(1, 2): λ = 1 makes λI − A singular.
        let a = Mat::diag(&[1.0, 2.0]);
        let b = Mat::col(&[1.0, 1.0]);
        let c = Mat::row(&[1.0, 1.0]);
        let d = Mat::zeros(1, 1);
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        assert!(matches!(
            sys.evaluator().eval(C64::ONE),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn working_set_bytes_is_positive_and_monotone() {
        let (a, b, c, d) = test_system();
        let small = FreqSystem::new(&a, &b, &c, &d).unwrap();
        assert!(small.working_set_bytes() > 0);
        let n = 16;
        let big = FreqSystem::new(
            &Mat::diag(&vec![-1.0; n]),
            &Mat::zeros(n, 2),
            &Mat::zeros(3, n),
            &Mat::zeros(3, 2),
        )
        .unwrap();
        assert!(big.working_set_bytes() > small.working_set_bytes());
    }

    #[test]
    fn dimension_checks() {
        let a = Mat::zeros(2, 3);
        assert!(
            FreqSystem::new(&a, &Mat::zeros(2, 1), &Mat::zeros(1, 2), &Mat::zeros(1, 1)).is_err()
        );
        let a = Mat::zeros(2, 2);
        assert!(
            FreqSystem::new(&a, &Mat::zeros(3, 1), &Mat::zeros(1, 2), &Mat::zeros(1, 1)).is_err()
        );
        assert!(
            FreqSystem::new(&a, &Mat::zeros(2, 1), &Mat::zeros(1, 2), &Mat::zeros(2, 2)).is_err()
        );
    }
}
