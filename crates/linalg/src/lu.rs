//! LU factorization with partial pivoting, and the solve/inverse/determinant
//! operations built on it.
//!
//! These are the only dense direct solvers in the stack; everything from
//! Riccati doubling to frequency responses funnels through them.

use crate::{Error, Mat, Result};

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// ```
/// use yukta_linalg::{Mat, lu::Lu};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let a = Mat::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
/// let f = Lu::new(&a)?;
/// let x = f.solve(&Mat::col(&[2.0, 3.0]))?;
/// assert!((x[(0, 0)] - 2.0).abs() < 1e-12);
/// assert!((x[(1, 0)] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors: unit-lower-triangular L below the diagonal, U on
    /// and above it.
    lu: Mat,
    /// Row permutation: row `i` of the factored matrix is row `perm[i]` of
    /// the original.
    perm: Vec<usize>,
    /// Sign of the permutation, used by the determinant.
    sign: f64,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `a` is not square.
    /// * [`Error::Singular`] if a pivot underflows.
    pub fn new(a: &Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::DimensionMismatch {
                op: "lu",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let data = lu.as_mut_slice();
        // Blocked right-looking elimination. Each element still receives
        // its updates `aᵢⱼ −= lᵢₖ·uₖⱼ` in ascending `k` with the same
        // operands and zero-multiplier skips as the unblocked loop; the
        // blocking only delays the updates of the columns right of the
        // panel so they can be applied `PANEL` at a time.
        for k0 in (0..n).step_by(PANEL) {
            let k1 = (k0 + PANEL).min(n);
            // Panel: unblocked elimination restricted to columns k0..k1.
            // Its row segments are under 16 wide, where an inline loop
            // beats a call into the kernel.
            for k in k0..k1 {
                // Partial pivot: largest magnitude in column k at or below row k.
                let mut p = k;
                let mut best = data[k * n + k].abs();
                for i in (k + 1)..n {
                    let v = data[i * n + k].abs();
                    if v > best {
                        best = v;
                        p = i;
                    }
                }
                if best < 1e-300 {
                    return Err(Error::Singular { op: "lu" });
                }
                if p != k {
                    let (upper, lower) = data.split_at_mut(p * n);
                    upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                    perm.swap(k, p);
                    sign = -sign;
                }
                let (upper, below) = data.split_at_mut((k + 1) * n);
                let pivot_row = &upper[k * n + k..k * n + k1];
                let pivot = pivot_row[0];
                for row in below.chunks_exact_mut(n) {
                    let factor = row[k] / pivot;
                    row[k] = factor;
                    if factor == 0.0 {
                        continue;
                    }
                    for (d, &u) in row[k + 1..k1].iter_mut().zip(&pivot_row[1..]) {
                        *d -= factor * u;
                    }
                }
            }
            // The panel's U rows right of the panel, then every row below.
            for i in (k0 + 1)..n {
                let (upper, rest) = data.split_at_mut(i * n);
                let (left, right) = rest[..n].split_at_mut(k1);
                let l = &left[k0..i.min(k1)];
                sub_rows(right, l, &upper[k0 * n + k1..], n);
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·X = B` for (possibly multi-column) `B`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `B` has the wrong row count.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let m = b.cols();
        let mut x = Mat::zeros(n, m);
        // Apply permutation.
        let xd = x.as_mut_slice();
        for (i, &p) in self.perm.iter().enumerate() {
            xd[i * m..(i + 1) * m].copy_from_slice(&b.as_slice()[p * m..(p + 1) * m]);
        }
        self.forward(&mut x, false);
        self.backward(&mut x);
        Ok(x)
    }

    /// Forward substitution with the unit-lower `L`, in place on the rows
    /// of `x`: `xᵢ ← xᵢ − lᵢₖ·xₖ` for `k < i`. With `from_identity`, `x`
    /// must start as `I`: then row `k` is `+0` right of column `k`, so
    /// column `c` only takes the updates from rows `k ≥ c` (see
    /// [`Lu::inverse`]).
    fn forward(&self, x: &mut Mat, from_identity: bool) {
        let n = self.dim();
        let m = x.cols();
        let lu = self.lu.as_slice();
        let xd = x.as_mut_slice();
        for i in 1..n {
            let (done, rest) = xd.split_at_mut(i * m);
            let xi = &mut rest[..m];
            let li = &lu[i * n..i * n + i];
            if from_identity {
                for c0 in (0..i).step_by(PANEL) {
                    let c1 = (c0 + PANEL).min(i);
                    sub_rows(&mut xi[c0..c1], &li[c0..], &done[c0 * m + c0..], m);
                }
            } else {
                sub_rows(xi, li, done, m);
            }
        }
    }

    /// Back substitution with `U`, in place on the rows of `x`.
    fn backward(&self, x: &mut Mat) {
        let n = self.dim();
        let m = x.cols();
        let lu = self.lu.as_slice();
        let xd = x.as_mut_slice();
        for i in (0..n).rev() {
            let (head, solved) = xd.split_at_mut((i + 1) * m);
            let xi = &mut head[i * m..];
            let urow = &lu[i * n..(i + 1) * n];
            sub_rows(xi, &urow[i + 1..], solved, m);
            let d = urow[i];
            for v in xi {
                *v /= d;
            }
        }
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve failures (should not occur once factored).
    pub fn inverse(&self) -> Result<Mat> {
        let n = self.dim();
        // Same result as `solve(&I)`, column by column, with the work on
        // structural zeros skipped. `solve` would start from `P·I`, whose
        // column `perm[c]` is `e_c`; forward substitution keeps rows
        // `k < c` of that column at `+0` (`+0 − lᵢₖ·0` is `+0` for finite
        // `lᵢₖ`), so starting from `I` and updating only columns `0..=k`
        // with row `k` gives the same bits, and column `c` lands in
        // column `perm[c]`. A non-finite `L` would make `lᵢₖ·0` a NaN, so
        // it takes the plain solve.
        if !self.lu.is_finite() {
            return self.solve(&Mat::identity(n));
        }
        let mut y = Mat::identity(n);
        self.forward(&mut y, true);
        self.backward(&mut y);
        let mut inv = Mat::zeros(n, n);
        for r in 0..n {
            for (c, &p) in self.perm.iter().enumerate() {
                inv[(r, p)] = y[(r, c)];
            }
        }
        Ok(inv)
    }
}

/// Columns per elimination panel and per column block of the inverse's
/// forward substitution (the AVX2 kernel's register tile is 16 wide).
const PANEL: usize = 16;

/// `dst[j] −= c[t]·src[t·stride + j]` for `t = 0, 1, …` in turn, skipping
/// zero `c[t]`: the row update `xᵢ −= Σₜ cₜ·xₜ` of every kernel here and,
/// with negated coefficients, of [`Mat::matmul`] and of the output
/// product in [`crate::freq::FreqEvaluator::eval`]. On hosts with AVX2 it
/// runs [`sub_rows_avx2`]; neither loop fuses the multiply-add, and both
/// give each element its terms in `t` order, so they round as the scalar
/// expression does and give the same bits.
pub(crate) fn sub_rows(dst: &mut [f64], c: &[f64], src: &[f64], stride: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert!(c.is_empty() || src.len() >= (c.len() - 1) * stride + dst.len());
        // SAFETY: AVX2 was detected on this host; the bound on `src` is
        // asserted above.
        unsafe { sub_rows_avx2(dst, c, src, stride) };
        return;
    }
    sub_rows_scalar(dst, c, src, stride);
}

/// The portable loop of [`sub_rows`].
fn sub_rows_scalar(dst: &mut [f64], c: &[f64], src: &[f64], stride: usize) {
    for (t, &ct) in c.iter().enumerate() {
        if ct == 0.0 {
            continue;
        }
        for (d, &v) in dst.iter_mut().zip(&src[t * stride..]) {
            *d -= ct * v;
        }
    }
}

/// The AVX2 loop of [`sub_rows`]: a separate multiply and subtract (no
/// FMA), so every element sees the same operations in the same order as
/// [`sub_rows_scalar`] and gets the same bits. `dst` is held in registers
/// 16 columns at a time across all terms.
///
/// # Safety
///
/// Caller must guarantee AVX2, and
/// `src.len() >= (c.len() − 1)·stride + dst.len()` when `c` is not
/// empty.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sub_rows_avx2(dst: &mut [f64], c: &[f64], src: &[f64], stride: usize) {
    use core::arch::x86_64::*;

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

impl Mat {
    /// Solves `self · X = b` via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `self` is not square or `b` does
    ///   not conform.
    /// * [`Error::Singular`] if `self` is singular.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        Lu::new(self)?.solve(b)
    }

    /// Matrix inverse via LU.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if not invertible.
    pub fn inverse(&self) -> Result<Mat> {
        Lu::new(self)?.inverse()
    }

    /// Determinant via LU. Returns `0.0` for singular matrices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if not square.
    pub fn det(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(Error::DimensionMismatch {
                op: "det",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        match Lu::new(self) {
            Ok(f) => Ok(f.det()),
            Err(Error::Singular { .. }) => Ok(0.0),
            Err(e) => Err(e),
        }
    }
}

/// The index-loop kernels `Lu::new` / `Lu::solve` replaced, kept as the
/// reference the row-slice kernels are pinned to bit for bit.
#[cfg(test)]
mod reference {
    use crate::{Error, Mat, Result};

    /// Packed factors, permutation and its sign, as `Lu` holds them.
    pub(super) fn factor(a: &Mat) -> Result<(Mat, Vec<usize>, f64)> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(Error::Singular { op: "lu" });
            }
            if p != k {
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    lu[(i, j)] -= factor * lu[(k, j)];
                }
            }
        }
        Ok((lu, perm, sign))
    }

    pub(super) fn solve(lu: &Mat, perm: &[usize], b: &Mat) -> Mat {
        let n = lu.rows();
        let m = b.cols();
        let mut x = Mat::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                x[(i, j)] = b[(perm[i], j)];
            }
        }
        for i in 0..n {
            for k in 0..i {
                let lik = lu[(i, k)];
                if lik == 0.0 {
                    continue;
                }
                for j in 0..m {
                    let v = x[(k, j)];
                    x[(i, j)] -= lik * v;
                }
            }
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let uik = lu[(i, k)];
                if uik == 0.0 {
                    continue;
                }
                for j in 0..m {
                    let v = x[(k, j)];
                    x[(i, j)] -= uik * v;
                }
            }
            let d = lu[(i, i)];
            for j in 0..m {
                x[(i, j)] /= d;
            }
        }
        x
    }

    pub(super) fn det(lu: &Mat, sign: f64) -> f64 {
        let mut d = sign;
        for i in 0..lu.rows() {
            d *= lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// An `n×n` matrix drawn from `seed`. `shape` picks the hard cases:
    /// 0 dense, 1 half exact zeros (zero multipliers and zero entries in
    /// `U`), 2 rows of wildly different scale (a row swap at most
    /// steps), 3 a zero column (singular), 4 lower-triangular with a
    /// small diagonal (every step swaps).
    fn draw(n: usize, seed: u64, shape: u32) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            let row_scale = if shape == 2 {
                10f64.powi(rng.gen_range(-6i32..7))
            } else {
                1.0
            };
            for j in 0..n {
                let v: f64 = rng.gen_range(-1.0..1.0);
                a[(i, j)] = match shape {
                    1 if rng.gen_range(0.0..1.0) < 0.5 => 0.0,
                    3 if j == n / 2 => 0.0,
                    4 if j > i => 0.0,
                    4 if j == i => 1e-3 * v,
                    _ => v * row_scale,
                };
            }
        }
        a
    }

    /// The AVX2 row kernel against the portable loop, bit for bit: every
    /// `dst` length up to 40 (the 16-wide blocks, the 4-wide blocks and
    /// the scalar tail), zero and non-zero coefficients, no terms at all,
    /// and source rows longer than `dst`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_sub_rows_matches_scalar_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x5ab_0ef5);
        for len in 0..=40usize {
            for terms in 0..=5usize {
                for stride in [len, len + 3, 2 * len + 7] {
                    let c: Vec<f64> = (0..terms)
                        .map(|t| match t % 3 {
                            1 => 0.0,
                            _ => rng.gen_range(-2.0..2.0),
                        })
                        .collect();
                    let src_len = terms.saturating_sub(1) * stride + len;
                    let src: Vec<f64> = (0..src_len).map(|_| rng.gen_range(-1e3..1e3)).collect();
                    let dst: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut want = dst.clone();
                    sub_rows_scalar(&mut want, &c, &src, stride);
                    let mut got = dst;
                    // SAFETY: AVX2 was detected above; `src` holds
                    // `(terms − 1)·stride + len` values.
                    unsafe { sub_rows_avx2(&mut got, &c, &src, stride) };
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "len {len}, c {c:?}, stride {stride}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sliced_kernels_match_index_loop_reference_bits(
            n in 1usize..=96,
            seed in 0u64..u64::MAX,
            shape in 0u32..5,
            m in 1usize..4,
        ) {
            let a = draw(n, seed, shape);
            match (Lu::new(&a), reference::factor(&a)) {
                (Ok(f), Ok((lu, perm, sign))) => {
                    prop_assert_eq!(bits(&f.lu), bits(&lu));
                    prop_assert_eq!(&f.perm, &perm);
                    prop_assert_eq!(f.sign.to_bits(), sign.to_bits());
                    prop_assert_eq!(f.det().to_bits(), reference::det(&lu, sign).to_bits());
                    let b = draw(n, seed ^ 0x9E37_79B9, 0);
                    let b = b.block(0, n, 0, m.min(n));
                    prop_assert_eq!(bits(&f.solve(&b).unwrap()), bits(&reference::solve(&lu, &perm, &b)));
                    let id = Mat::identity(n);
                    prop_assert_eq!(bits(&f.inverse().unwrap()), bits(&reference::solve(&lu, &perm, &id)));
                }
                (Err(Error::Singular { .. }), Err(Error::Singular { .. })) => {}
                (got, want) => prop_assert!(false, "outcomes differ: {:?} vs {:?}", got.err(), want.err()),
            }
        }
    }

    #[test]
    fn empty_shapes_pass_through() {
        let f = Lu::new(&Mat::zeros(0, 0)).unwrap();
        assert_eq!(f.inverse().unwrap().shape(), (0, 0));
        assert_eq!(f.det(), 1.0);
        let g = Lu::new(&Mat::identity(2)).unwrap();
        assert_eq!(g.solve(&Mat::zeros(2, 0)).unwrap().shape(), (2, 0));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Mat::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let x_true = Mat::col(&[1.0, -2.0, 3.0]);
        let b = &a * &x_true;
        let x = a.solve(&b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Mat::col(&[3.0, 4.0]);
        let x = a.solve(&b).unwrap();
        assert!(x.approx_eq(&Mat::col(&[4.0, 3.0]), 1e-14));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Mat::from_rows(&[&[3.0, 0.5, -1.0], &[0.2, 2.0, 0.1], &[-0.4, 0.3, 1.5]]);
        let inv = a.inverse().unwrap();
        assert!((&a * &inv).approx_eq(&Mat::identity(3), 1e-12));
        assert!((&inv * &a).approx_eq(&Mat::identity(3), 1e-12));
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.det().unwrap() - (-2.0)).abs() < 1e-14);
        // Permutation sign: swapping rows negates determinant.
        let b = Mat::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]);
        assert!((b.det().unwrap() - 2.0).abs() < 1e-14);
    }

    #[test]
    fn determinant_of_singular_is_zero() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.det().unwrap(), 0.0);
    }

    #[test]
    fn singular_solve_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            a.solve(&Mat::col(&[1.0, 1.0])),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            a.solve(&Mat::col(&[1.0, 1.0])),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(a.det().is_err());
    }

    #[test]
    fn multi_rhs_solve() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = a.solve(&b).unwrap();
        assert!((&a * &x).approx_eq(&Mat::identity(2), 1e-13));
    }

    #[test]
    fn hilbert_solve_moderate_accuracy() {
        // 6x6 Hilbert matrix: classic ill-conditioned test.
        let n = 6;
        let mut h = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        let x_true = Mat::col(&vec![1.0; n]);
        let b = &h * &x_true;
        let x = h.solve(&b).unwrap();
        // cond(H6) ~ 1.5e7, so expect ~1e-9 accuracy.
        assert!(x.approx_eq(&x_true, 1e-6));
    }
}
