//! Dense, row-major real matrices.
//!
//! [`Mat`] is the fundamental value type of the whole Yukta stack: plant
//! models, controller realizations, Riccati solutions, and sensor batches
//! are all `Mat`s. The type is deliberately simple — a `Vec<f64>` plus a
//! shape — and all the numerical sophistication lives in the factorization
//! modules.

use crate::{Error, Result};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use yukta_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// assert_eq!(&a * &b, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Mat::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length in Mat::from_rows");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length mismatch in Mat::from_vec"
        );
        Mat { rows, cols, data }
    }

    /// Creates a single-column matrix (a column vector).
    pub fn col(entries: &[f64]) -> Self {
        Mat {
            rows: entries.len(),
            cols: 1,
            data: entries.to_vec(),
        }
    }

    /// Creates a single-row matrix (a row vector).
    pub fn row(entries: &[f64]) -> Self {
        Mat {
            rows: 1,
            cols: entries.len(),
            data: entries.to_vec(),
        }
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

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The transpose of the matrix.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`, checked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, rhs.cols);
        matmul_kernel(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(out)
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// Returns a sub-matrix: rows `r0..r1`, columns `c0..c1` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or reversed.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Mat {
        assert!(
            r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols,
            "block out of range"
        );
        let mut out = Mat::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            for j in c0..c1 {
                out[(i - r0, j - c0)] = self[(i, j)];
            }
        }
        out
    }

    /// Copies `src` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Mat) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "set_block out of range"
        );
        for i in 0..src.rows {
            for j in 0..src.cols {
                self[(r0 + i, c0 + j)] = src[(i, j)];
            }
        }
    }

    /// Stacks `top` above `bottom`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the column counts differ.
    pub fn vstack(top: &Mat, bottom: &Mat) -> Result<Mat> {
        if top.cols != bottom.cols {
            return Err(Error::DimensionMismatch {
                op: "vstack",
                lhs: top.shape(),
                rhs: bottom.shape(),
            });
        }
        let mut out = Mat::zeros(top.rows + bottom.rows, top.cols);
        out.set_block(0, 0, top);
        out.set_block(top.rows, 0, bottom);
        Ok(out)
    }

    /// Places `left` beside `right`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the row counts differ.
    pub fn hstack(left: &Mat, right: &Mat) -> Result<Mat> {
        if left.rows != right.rows {
            return Err(Error::DimensionMismatch {
                op: "hstack",
                lhs: left.shape(),
                rhs: right.shape(),
            });
        }
        let mut out = Mat::zeros(left.rows, left.cols + right.cols);
        out.set_block(0, 0, left);
        out.set_block(0, left.cols, right);
        Ok(out)
    }

    /// Assembles a 2×2 block matrix `[a b; c d]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the blocks do not conform.
    pub fn block2x2(a: &Mat, b: &Mat, c: &Mat, d: &Mat) -> Result<Mat> {
        let top = Mat::hstack(a, b)?;
        let bottom = Mat::hstack(c, d)?;
        Mat::vstack(&top, &bottom)
    }

    /// The block-diagonal matrix `diag(self, other)`.
    pub fn block_diag(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows + other.rows, self.cols + other.cols);
        out.set_block(0, 0, self);
        out.set_block(self.rows, self.cols, other);
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
    }

    /// Induced infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// The symmetric part `(M + Mᵀ)/2`, useful for cleaning up Riccati
    /// solutions that should be symmetric but have drifted numerically.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&self) -> Mat {
        assert!(self.is_square(), "symmetrize of a non-square matrix");
        let mut out = self.clone();
        for i in 0..self.rows {
            for j in 0..i {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                out[(i, j)] = v;
                out[(j, i)] = v;
            }
        }
        out
    }

    /// Whether every entry is finite (no NaN/inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Entry-wise approximate equality within `tol` (absolute).
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Multiplies the matrix by a vector, returning a vector (an
    /// allocating wrapper over [`Mat::matvec_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// `y = A·x` into a caller-owned buffer, four rows per pass over `x`.
    ///
    /// Each `yᵢ` starts from `0.0` and adds `aᵢⱼ·xⱼ` for `j = 0, 1, …`
    /// (a separate multiply and add, never fused), so every element has
    /// the bits of the one-row-at-a-time loop; the four rows of a pass
    /// only run as four independent accumulation chains instead of one.
    /// The `rows % 4` remainder rows run one at a time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] (op `matvec`) unless
    /// `x.len() == self.cols()` and `y.len() == self.rows()`; `y` is
    /// untouched on error.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        let n = self.cols;
        if x.len() != n || y.len() != self.rows {
            return Err(Error::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), y.len()),
            });
        }
        if n == 0 {
            y.fill(0.0);
            return Ok(());
        }
        let mut rows = self.data.chunks_exact(4 * n);
        let mut out = y.chunks_exact_mut(4);
        for (quad, yq) in (&mut rows).zip(&mut out) {
            let (r0, rest) = quad.split_at(n);
            let (r1, rest) = rest.split_at(n);
            let (r2, r3) = rest.split_at(n);
            let mut acc = [0.0f64; 4];
            for ((((&a0, &a1), &a2), &a3), &xj) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
                acc[0] += a0 * xj;
                acc[1] += a1 * xj;
                acc[2] += a2 * xj;
                acc[3] += a3 * xj;
            }
            yq.copy_from_slice(&acc);
        }
        for (row, yi) in rows.remainder().chunks_exact(n).zip(out.into_remainder()) {
            let mut acc = 0.0;
            for (&aij, &xj) in row.iter().zip(x) {
                acc += aij * xj;
            }
            *yi = acc;
        }
        Ok(())
    }
}

/// The one-row-at-a-time matrix–vector loop [`Mat::matvec_into`] is
/// pinned to bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::Mat;

    pub(crate) fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; a.rows()];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += a[(i, j)] * xj;
            }
            *yi = acc;
        }
        y
    }
}

/// Cache-blocked row-major product accumulating `out += a · b`, where `a`
/// is `m × k`, `b` is `k × n`, and `out` is `m × n`.
///
/// Tiles over the `k` and `n` dimensions so a `BK × BN` panel of `b`
/// stays resident in cache while every row of `a` streams past it. Each
/// output row takes its `k`-terms through LU's row kernel
/// [`crate::lu::sub_rows`] as `o −= (−aᵢₖ)·bₖ`: negation is exact and
/// `o − (−p)` is `o + p`, the terms arrive in ascending `k` and exact
/// zeros in `a` are skipped, so the product is bit-identical to the
/// textbook triple loop.
fn matmul_kernel(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    const BK: usize = 64;
    const BN: usize = 128;
    let mut neg = [0.0f64; BK];
    for k0 in (0..k).step_by(BK) {
        let k1 = (k0 + BK).min(k);
        for j0 in (0..n).step_by(BN) {
            let j1 = (j0 + BN).min(n);
            for i in 0..m {
                for (c, &v) in neg.iter_mut().zip(&a[i * k + k0..i * k + k1]) {
                    *c = -v;
                }
                crate::lu::sub_rows(
                    &mut out[i * n + j0..i * n + j1],
                    &neg[..k1 - k0],
                    &b[k0 * n + j0..],
                    n,
                );
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "Mat index out of range");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "Mat index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Debug for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl std::fmt::Display for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

impl std::ops::Add for &Mat {
    type Output = Mat;

    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "Mat add shape mismatch");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }
}

impl std::ops::Sub for &Mat {
    type Output = Mat;

    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "Mat sub shape mismatch");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }
}

impl std::ops::Mul for &Mat {
    type Output = Mat;

    fn mul(self, rhs: &Mat) -> Mat {
        self.matmul(rhs).expect("Mat mul shape mismatch")
    }
}

impl std::ops::Mul<f64> for &Mat {
    type Output = Mat;

    fn mul(self, rhs: f64) -> Mat {
        self.scale(rhs)
    }
}

impl std::ops::Neg for &Mat {
    type Output = Mat;

    fn neg(self) -> Mat {
        self.scale(-1.0)
    }
}

impl std::ops::Add for Mat {
    type Output = Mat;
    fn add(self, rhs: Mat) -> Mat {
        &self + &rhs
    }
}

impl std::ops::Sub for Mat {
    type Output = Mat;
    fn sub(self, rhs: Mat) -> Mat {
        &self - &rhs
    }
}

impl std::ops::Mul for Mat {
    type Output = Mat;
    fn mul(self, rhs: Mat) -> Mat {
        &self * &rhs
    }
}

impl Default for Mat {
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Mat::identity(3);
        let i2 = Mat::identity(2);
        assert_eq!(&a * &i3, a);
        assert_eq!(&i2 * &a, a);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().shape(), (3, 2));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn blocked_matmul_bit_identical_to_naive() {
        // Sizes straddling the tile boundaries, pseudo-random entries.
        let mut s = 42u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 5, 9),
            (64, 64, 64),
            (65, 130, 129),
            (33, 3, 200),
        ] {
            let a = Mat::from_vec(m, k, (0..m * k).map(|_| next()).collect());
            let b = Mat::from_vec(k, n, (0..k * n).map(|_| next()).collect());
            let mut blocked = Mat::zeros(m, n);
            matmul_kernel(a.as_slice(), b.as_slice(), &mut blocked.data, m, k, n);
            let mut naive = Mat::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[(i, kk)];
                    for j in 0..n {
                        naive[(i, j)] += aik * b[(kk, j)];
                    }
                }
            }
            assert_eq!(blocked, naive, "({m},{k},{n})");
            assert_eq!(a.matmul(&b).unwrap(), naive, "({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(Error::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn block_and_set_block_roundtrip() {
        let mut a = Mat::zeros(4, 4);
        let b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.set_block(1, 2, &b);
        assert_eq!(a.block(1, 3, 2, 4), b);
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a[(1, 2)], 1.0);
    }

    #[test]
    fn stacking() {
        let a = Mat::row(&[1.0, 2.0]);
        let b = Mat::row(&[3.0, 4.0]);
        let v = Mat::vstack(&a, &b).unwrap();
        assert_eq!(v, Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let h = Mat::hstack(&a, &b).unwrap();
        assert_eq!(h, Mat::row(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn block2x2_assembles() {
        let a = Mat::identity(2);
        let z = Mat::zeros(2, 2);
        let m = Mat::block2x2(&a, &z, &z, &a).unwrap();
        assert_eq!(m, Mat::identity(4));
    }

    #[test]
    fn block_diag_assembles() {
        let a = Mat::filled(1, 1, 2.0);
        let b = Mat::filled(2, 2, 3.0);
        let d = a.block_diag(&b);
        assert_eq!(d.shape(), (3, 3));
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.inf_norm(), 7.0);
    }

    #[test]
    fn trace_and_symmetrize() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        assert_eq!(a.trace(), 4.0);
        let s = a.symmetrize();
        assert_eq!(s[(0, 1)], 3.0);
        assert_eq!(s[(1, 0)], 3.0);
    }

    #[test]
    fn matvec_works() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_into_checks_both_lengths_and_leaves_y_on_error() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut y = [9.0; 3];
        a.matvec_into(&[1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, [3.0, 7.0, 11.0]);
        let mut y = [9.0; 3];
        assert!(matches!(
            a.matvec_into(&[1.0], &mut y),
            Err(Error::DimensionMismatch { op: "matvec", .. })
        ));
        assert!(a.matvec_into(&[1.0, 1.0], &mut y[..2]).is_err());
        assert_eq!(y, [9.0; 3]);
        // No columns: every row is the empty sum, +0.0.
        let mut y = [-1.0; 5];
        Mat::zeros(5, 0).matvec_into(&[], &mut y).unwrap();
        assert!(y.iter().all(|v| v.to_bits() == 0));
    }

    /// A matrix–vector input entry: mostly plain draws, with ±0, NaN, ±∞
    /// and subnormals mixed in at rate `special`/8.
    fn kernel_entry(next: &mut impl FnMut() -> f64, special: u32) -> f64 {
        const ODD: [f64; 8] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE * 0.75,
            5e-324,
        ];
        let u = next() + 0.5;
        if u * 8.0 < special as f64 {
            ODD[((next() + 0.5) * 8.0) as usize % 8]
        } else {
            // Mixed magnitudes so the summation order shows in the bits.
            next() * 10f64.powi(((next() + 0.5) * 12.0) as i32 - 6)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The four-row kernel gives the one-row loop's bits on every
        /// shape up to 48×48 (row counts off a multiple of four, empty
        /// rows and columns included) and on ±0, NaN, ±∞ and subnormal
        /// entries in the matrix and the vector (NaN results: NaN-ness).
        #[test]
        fn matvec_into_matches_reference_bits(
            m in 0usize..=48,
            n in 0usize..=48,
            special in 0u32..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut s = seed | 1;
            let mut next = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            };
            let a = Mat::from_vec(m, n, (0..m * n).map(|_| kernel_entry(&mut next, special)).collect());
            let x: Vec<f64> = (0..n).map(|_| kernel_entry(&mut next, special)).collect();
            let want = reference::matvec(&a, &x);
            let mut y = vec![f64::NAN; m];
            a.matvec_into(&x, &mut y).unwrap();
            let wrapped = a.matvec(&x).unwrap();
            // A NaN result only has to be NaN: Rust leaves the sign and
            // payload of an arithmetic NaN unspecified, and they follow the
            // operand order codegen picks for the add, in the reference too.
            let same = |v: f64, w: f64| v.to_bits() == w.to_bits() || (v.is_nan() && w.is_nan());
            for (i, w) in want.iter().enumerate() {
                proptest::prop_assert!(
                    same(y[i], *w) && same(wrapped[i], *w),
                    "{m}x{n} row {i}: kernel {:e} ({:#x}), matvec {:e}, reference {:e} ({:#x})",
                    y[i], y[i].to_bits(), wrapped[i], w, w.to_bits()
                );
            }
        }
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Mat::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-9;
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Mat::zeros(1, 1));
        assert!(!s.is_empty());
    }
}
