//! Complex scalars and dense complex matrices.
//!
//! Frequency-domain analysis — evaluating a closed loop `N(e^{jωT})`,
//! computing singular values of a complex response, scaling by diagonal
//! `D` matrices — all happens on [`CMat`]. The scalar type [`C64`] is a
//! minimal complex double; we implement it ourselves because the stack is
//! dependency-free by design.

use crate::{Error, Mat, Result};

/// A complex number with `f64` components.
///
/// ```
/// use yukta_linalg::C64;
///
/// let i = C64::new(0.0, 1.0);
/// assert_eq!(i * i, C64::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    pub fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// `e^{iθ}` — a point on the unit circle.
    pub fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²`, cheaper than [`C64::abs`].
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns an infinite value if `z == 0`, mirroring `f64` semantics.
    pub fn recip(self) -> Self {
        let d = self.abs_sq();
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Whether both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Div for C64 {
    type Output = C64;
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-reciprocal
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl std::ops::Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl std::ops::Mul<f64> for C64 {
    type Output = C64;
    fn mul(self, rhs: f64) -> C64 {
        C64::new(self.re * rhs, self.im * rhs)
    }
}

impl std::ops::AddAssign for C64 {
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for C64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// The interleaved parts `[re₀, im₀, re₁, im₁, …]` of complex values.
pub(crate) fn parts(v: &[C64]) -> &[f64] {
    // SAFETY: `C64` is `repr(C)` with two `f64` fields and no padding, so
    // `v` is `2·len` initialized, contiguous and aligned `f64`s.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), 2 * v.len()) }
}

/// [`parts`], mutably.
pub(crate) fn parts_mut(v: &mut [C64]) -> &mut [f64] {
    // SAFETY: as in `parts`; the borrow of `v` is exclusive for the
    // lifetime of the result.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast(), 2 * v.len()) }
}

/// The [`C64`] product `aₖ·b` of each complex lane `aₖ` of `a` (two per
/// 256-bit register, real part first) with one scalar `b`, given as its
/// broadcast parts `b_re` and `b_im`: a separate multiply per lane, then
/// `addsub`, no FMA. Lane for lane that is
/// `(aᵣ·bᵣ − aᵢ·bᵢ, aᵢ·bᵣ + aᵣ·bᵢ)`: the scalar product's four
/// products, its subtraction, and its addition with the two terms in
/// the other order, which is exact (a sum does not depend on the order
/// of its terms; only the payload of a NaN can). The AVX2 kernels build
/// on it to give the portable loops' bits.
///
/// # Safety
///
/// Caller must guarantee AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn mul_lanes(
    a: core::arch::x86_64::__m256d,
    b_re: core::arch::x86_64::__m256d,
    b_im: core::arch::x86_64::__m256d,
) -> core::arch::x86_64::__m256d {
    use core::arch::x86_64::*;
    let swapped = _mm256_permute_pd::<0b0101>(a);
    _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(swapped, b_im))
}

/// A dense, row-major complex matrix.
///
/// ```
/// use yukta_linalg::{C64, CMat, Mat};
///
/// let m = CMat::from_real(&Mat::identity(2));
/// assert_eq!(m.get(0, 0), C64::ONE);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Creates a `rows × cols` complex matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` complex identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, C64::ONE);
        }
        m
    }

    /// Lifts a real matrix to a complex one.
    pub fn from_real(m: &Mat) -> Self {
        let mut out = CMat::zeros(m.rows(), m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                out.set(i, j, C64::real(m[(i, j)]));
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying entries in row-major order (length `rows · cols`).
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// The underlying entries in row-major order, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if out of range.
    pub fn get(&self, i: usize, j: usize) -> C64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if out of range.
    pub fn set(&mut self, i: usize, j: usize, v: C64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Conjugate transpose `Mᴴ`.
    pub fn h(&self) -> CMat {
        let mut out = CMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j).conj());
            }
        }
        out
    }

    /// Matrix product, checked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &CMat) -> Result<CMat> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                op: "cmatmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = CMat::zeros(self.rows, rhs.cols);
        cmatmul_kernel(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(out)
    }

    /// Entry-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "CMat add shape mismatch");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
        out
    }

    /// Entry-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "CMat sub shape mismatch");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a = *a - *b;
        }
        out
    }

    /// Scales every entry by a complex scalar.
    pub fn scale(&self, s: C64) -> CMat {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = *v * s;
        }
        out
    }

    /// Multiplies the matrix by a complex vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on length mismatch.
    pub fn matvec(&self, x: &[C64]) -> Result<Vec<C64>> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                op: "cmatvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![C64::ZERO; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for (j, xj) in x.iter().enumerate() {
                acc += self.get(i, j) * *xj;
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt()
    }

    /// Maximum entry modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
    }

    /// Whether every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Solves `self * X = B` via complex LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if the matrix is singular and
    /// [`Error::DimensionMismatch`] if shapes do not conform.
    pub fn solve(&self, b: &CMat) -> Result<CMat> {
        if !self.is_square() {
            return Err(Error::DimensionMismatch {
                op: "csolve",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        if self.rows != b.rows {
            return Err(Error::DimensionMismatch {
                op: "csolve",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.clone();
        // Forward elimination with partial pivoting.
        for k in 0..n {
            let mut p = k;
            let mut best = a.get(k, k).abs();
            for i in (k + 1)..n {
                let v = a.get(i, k).abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(Error::Singular { op: "csolve" });
            }
            if p != k {
                for j in 0..n {
                    let t = a.get(k, j);
                    a.set(k, j, a.get(p, j));
                    a.set(p, j, t);
                }
                for j in 0..x.cols {
                    let t = x.get(k, j);
                    x.set(k, j, x.get(p, j));
                    x.set(p, j, t);
                }
            }
            let pivot = a.get(k, k);
            for i in (k + 1)..n {
                let factor = a.get(i, k) / pivot;
                if factor == C64::ZERO {
                    continue;
                }
                for j in k..n {
                    let v = a.get(i, j) - factor * a.get(k, j);
                    a.set(i, j, v);
                }
                for j in 0..x.cols {
                    let v = x.get(i, j) - factor * x.get(k, j);
                    x.set(i, j, v);
                }
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let pivot = a.get(k, k);
            for j in 0..x.cols {
                let mut acc = x.get(k, j);
                for m in (k + 1)..n {
                    acc = acc - a.get(k, m) * x.get(m, j);
                }
                x.set(k, j, acc / pivot);
            }
        }
        Ok(x)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Inverse via [`CMat::solve`] against the identity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if not invertible.
    pub fn inverse(&self) -> Result<CMat> {
        self.solve(&CMat::identity(self.rows))
    }
}

/// Cache-blocked complex product accumulating `out += a · b` (`a` is
/// `m × k`, `b` is `k × n`, `out` is `m × n`, all row-major).
///
/// Same tiling as the real kernel in [`crate::mat`]: each output entry
/// accumulates its `k`-terms in ascending order with exact zeros in `a`
/// skipped — bit-identical to the naive triple loop.
fn cmatmul_kernel(a: &[C64], b: &[C64], out: &mut [C64], m: usize, k: usize, n: usize) {
    const BK: usize = 48;
    const BN: usize = 64;
    for k0 in (0..k).step_by(BK) {
        let k1 = (k0 + BK).min(k);
        for j0 in (0..n).step_by(BN) {
            let j1 = (j0 + BN).min(n);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n + j0..i * n + j1];
                for kk in k0..k1 {
                    let aik = arow[kk];
                    if aik == C64::ZERO {
                        continue;
                    }
                    let brow = &b[kk * n + j0..kk * n + j1];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_field_axioms() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-0.5, 3.0);
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        let inv = a.recip();
        let prod = a * inv;
        assert!((prod.re - 1.0).abs() < 1e-15 && prod.im.abs() < 1e-15);
    }

    #[test]
    fn cis_on_unit_circle() {
        for k in 0..8 {
            let theta = k as f64 * std::f64::consts::PI / 4.0;
            assert!((C64::cis(theta).abs() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn conjugate_transpose() {
        let mut m = CMat::zeros(1, 2);
        m.set(0, 0, C64::new(1.0, 2.0));
        m.set(0, 1, C64::new(3.0, -4.0));
        let h = m.h();
        assert_eq!(h.shape(), (2, 1));
        assert_eq!(h.get(0, 0), C64::new(1.0, -2.0));
        assert_eq!(h.get(1, 0), C64::new(3.0, 4.0));
    }

    #[test]
    fn blocked_cmatmul_bit_identical_to_naive() {
        let mut s = 7u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for &(m, k, n) in &[(1, 1, 1), (5, 9, 4), (48, 48, 64), (49, 97, 65)] {
            let mut a = CMat::zeros(m, k);
            let mut b = CMat::zeros(k, n);
            for v in &mut a.data {
                *v = C64::new(next(), next());
            }
            for v in &mut b.data {
                *v = C64::new(next(), next());
            }
            let mut blocked = CMat::zeros(m, n);
            cmatmul_kernel(&a.data, &b.data, &mut blocked.data, m, k, n);
            let mut naive = CMat::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    let aik = a.get(i, kk);
                    for j in 0..n {
                        let cur = naive.get(i, j);
                        naive.set(i, j, cur + aik * b.get(kk, j));
                    }
                }
            }
            assert_eq!(blocked, naive, "({m},{k},{n})");
            assert_eq!(a.matmul(&b).unwrap(), naive, "({m},{k},{n})");
        }
    }

    #[test]
    fn complex_solve_roundtrip() {
        let mut a = CMat::identity(3);
        a.set(0, 1, C64::new(2.0, 1.0));
        a.set(1, 2, C64::new(-1.0, 0.5));
        a.set(2, 0, C64::new(0.3, -0.7));
        let mut b = CMat::zeros(3, 1);
        b.set(0, 0, C64::new(1.0, 0.0));
        b.set(1, 0, C64::new(0.0, 1.0));
        b.set(2, 0, C64::new(2.0, -1.0));
        let x = a.solve(&b).unwrap();
        let r = a.matmul(&x).unwrap().sub(&b);
        assert!(r.fro_norm() < 1e-12);
    }

    #[test]
    fn inverse_of_identity() {
        let i = CMat::identity(4);
        let inv = i.inverse().unwrap();
        assert!(inv.sub(&CMat::identity(4)).fro_norm() < 1e-14);
    }

    #[test]
    fn singular_matrix_rejected() {
        let z = CMat::zeros(2, 2);
        assert!(matches!(
            z.solve(&CMat::identity(2)),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn from_real_preserves_entries() {
        let r = Mat::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let c = CMat::from_real(&r);
        assert_eq!(c.get(1, 0), C64::real(0.5));
        assert_eq!(c.get(0, 1), C64::real(-2.0));
    }

    #[test]
    fn matvec_linear() {
        let m = CMat::identity(2).scale(C64::new(0.0, 1.0));
        let y = m.matvec(&[C64::ONE, C64::real(2.0)]).unwrap();
        assert_eq!(y[0], C64::I);
        assert_eq!(y[1], C64::new(0.0, 2.0));
    }
}

/// Inputs and a bit comparison for the tests of the kernels that run on
/// complex lanes.
#[cfg(test)]
pub(crate) mod lane_inputs {
    use super::C64;

    /// Values an entry is drawn from besides plain ones: NaN, ±∞, ±0
    /// and subnormals.
    const SPECIAL: [f64; 7] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        4.9e-324,
        -1.5e-310,
    ];

    /// A deterministic stream of `f64`s in [-2, 2), about one in
    /// `special_every` taken from [`SPECIAL`] (none when it is 0).
    pub(crate) fn draws(seed: u64, special_every: u64) -> impl FnMut() -> f64 {
        let mut s = seed | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = s >> 11;
            if special_every > 0 && r.is_multiple_of(special_every) {
                SPECIAL[(r / special_every) as usize % SPECIAL.len()]
            } else {
                4.0 * ((r >> 11) as f64 / (1u64 << 42) as f64) - 2.0
            }
        }
    }

    /// `len` complex values from [`draws`].
    pub(crate) fn values(len: usize, seed: u64, special_every: u64) -> Vec<C64> {
        let mut next = draws(seed, special_every);
        (0..len).map(|_| C64::new(next(), next())).collect()
    }

    /// The bits of complex values, every NaN read as the same NaN: the
    /// lanes may carry another NaN payload than the scalar loop.
    pub(crate) fn lane_bits(v: &[C64]) -> Vec<[u64; 2]> {
        let bits = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
        v.iter().map(|z| [bits(z.re), bits(z.im)]).collect()
    }
}
