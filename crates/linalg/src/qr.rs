//! Householder QR factorization, plain and column-pivoted.
//!
//! The plain variant backs least-squares system identification; the
//! column-pivoted variant extracts well-conditioned bases for invariant
//! subspaces in the Riccati sign-function solver.

use crate::{Error, Mat, Result};

/// A Householder QR factorization `A = Q·R`.
///
/// ```
/// use yukta_linalg::{Mat, qr::Qr};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
/// let f = Qr::new(&a);
/// let qr = &f.q() * &f.r();
/// assert!(qr.approx_eq(&a, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    q: Mat,
    r: Mat,
}

impl Qr {
    /// Factors an `m × n` matrix with `m >= n` (thin factorization is not
    /// used; `Q` is full `m × m`).
    pub fn new(a: &Mat) -> Self {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut q = Mat::identity(m);
        for k in 0..n.min(m.saturating_sub(1)) {
            // Householder vector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            for i in k..m {
                v[i] = r[(i, k)];
            }
            v[k] -= alpha;
            let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to R (left) and accumulate into Q.
            for j in 0..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * r[(i, j)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    r[(i, j)] -= s * v[i];
                }
            }
            for j in 0..m {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * q[(j, i)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    q[(j, i)] -= s * v[i];
                }
            }
        }
        // Zero the strictly-lower part of R that should be exactly zero.
        for i in 0..m {
            for j in 0..n.min(i) {
                r[(i, j)] = 0.0;
            }
        }
        Qr { q, r }
    }

    /// The orthogonal factor `Q` (`m × m`).
    pub fn q(&self) -> Mat {
        self.q.clone()
    }

    /// The upper-triangular factor `R` (`m × n`).
    pub fn r(&self) -> Mat {
        self.r.clone()
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` for full-column-rank
    /// `A` via back substitution on `R·x = Qᵀ·b`.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `b` does not conform.
    /// * [`Error::Singular`] if `A` is column-rank-deficient.
    pub fn solve_least_squares(&self, b: &Mat) -> Result<Mat> {
        let (m, n) = self.r.shape();
        if b.rows() != m {
            return Err(Error::DimensionMismatch {
                op: "qr_lstsq",
                lhs: (m, n),
                rhs: b.shape(),
            });
        }
        let qtb = &self.q.t() * b;
        let mut x = Mat::zeros(n, b.cols());
        for i in (0..n).rev() {
            let d = self.r[(i, i)];
            if d.abs() < 1e-12 * self.r.max_abs().max(1e-30) {
                return Err(Error::Singular { op: "qr_lstsq" });
            }
            for j in 0..b.cols() {
                let mut acc = qtb[(i, j)];
                for k in (i + 1)..n {
                    acc -= self.r[(i, k)] * x[(k, j)];
                }
                x[(i, j)] = acc / d;
            }
        }
        Ok(x)
    }
}

/// Column-pivoted QR: `A·Π = Q·R` with diagonal of `R` non-increasing in
/// magnitude. Used to pick a well-conditioned set of `rank` columns.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    q: Mat,
    r: Mat,
    /// `piv[j]` is the original column index that ended up in position `j`.
    piv: Vec<usize>,
}

impl PivotedQr {
    /// Factors `a` with greedy column pivoting on residual column norms.
    ///
    /// Every sum runs down a column in row order, as a column-at-a-time
    /// loop would add it, but all columns advance together along
    /// contiguous rows; `Q` is accumulated transposed for the same reason.
    pub fn new(a: &Mat) -> Self {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut qt = Mat::identity(m);
        let mut piv: Vec<usize> = (0..n).collect();
        let mut sums = vec![0.0; n.max(m)];
        let mut v = vec![0.0; m];
        for k in 0..n.min(m) {
            // Pick the column with the largest residual norm.
            let norms = &mut sums[k..n];
            norms.fill(0.0);
            for row in r.as_slice().chunks_exact(n).skip(k) {
                for (s, &x) in norms.iter_mut().zip(&row[k..]) {
                    *s += x * x;
                }
            }
            let mut best_j = k;
            let mut best = -1.0;
            for (j, &norm) in (k..n).zip(norms.iter()) {
                if norm > best {
                    best = norm;
                    best_j = j;
                }
            }
            if best_j != k {
                for row in r.as_mut_slice().chunks_exact_mut(n) {
                    row.swap(k, best_j);
                }
                piv.swap(k, best_j);
            }
            if best.sqrt() < 1e-300 {
                break;
            }
            // Householder on column k.
            let norm = best.sqrt();
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            for (i, vi) in v.iter_mut().enumerate().skip(k) {
                *vi = r[(i, k)];
            }
            v[k] -= alpha;
            let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            reflect_rows(&mut r, &v, k, vnorm_sq, &mut sums);
            reflect_rows(&mut qt, &v, k, vnorm_sq, &mut sums);
        }
        for i in 0..m {
            for j in 0..n.min(i) {
                r[(i, j)] = 0.0;
            }
        }
        PivotedQr { q: qt.t(), r, piv }
    }

    /// The orthogonal factor.
    pub fn q(&self) -> &Mat {
        &self.q
    }

    /// The upper-triangular factor (with permuted columns).
    pub fn r(&self) -> &Mat {
        &self.r
    }

    /// The column permutation: position `j` holds original column `piv[j]`.
    pub fn pivots(&self) -> &[usize] {
        &self.piv
    }

    /// Numerical rank with relative tolerance `tol` on `|R[k,k]| / |R[0,0]|`.
    pub fn rank(&self, tol: f64) -> usize {
        let steps = self.r.rows().min(self.r.cols());
        let r00 = self.r[(0, 0)].abs();
        if r00 < 1e-300 {
            return 0;
        }
        (0..steps)
            .take_while(|&k| self.r[(k, k)].abs() > tol * r00)
            .count()
    }

    /// An orthonormal basis for the column space of the factored matrix:
    /// the first `rank` columns of `Q`.
    pub fn range_basis(&self, rank: usize) -> Mat {
        self.q.block(0, self.q.rows(), 0, rank)
    }
}

/// Applies `H = I − 2vvᵀ/(vᵀv)` from the left to rows `k..` of `x`:
/// `dⱼ = Σᵢ vᵢ·xᵢⱼ` accumulated in row order from `+0`, then
/// `xᵢⱼ −= (2dⱼ/vᵀv)·vᵢ`. `scratch` must hold `x.cols()` values.
pub(crate) fn reflect_rows(x: &mut Mat, v: &[f64], k: usize, vnorm_sq: f64, scratch: &mut [f64]) {
    let cols = x.cols();
    let d = &mut scratch[..cols];
    d.fill(0.0);
    for (row, &vi) in x.as_slice().chunks_exact(cols).zip(v).skip(k) {
        for (dj, &xij) in d.iter_mut().zip(row) {
            *dj += vi * xij;
        }
    }
    for dj in d.iter_mut() {
        *dj = 2.0 * *dj / vnorm_sq;
    }
    for (row, &vi) in x.as_mut_slice().chunks_exact_mut(cols).zip(v).skip(k) {
        for (xij, &sj) in row.iter_mut().zip(d.iter()) {
            *xij -= sj * vi;
        }
    }
}

/// The column-at-a-time loops `PivotedQr::new` replaced, kept as the
/// reference the row-oriented version is pinned to bit for bit.
#[cfg(test)]
mod reference {
    use super::PivotedQr;
    use crate::Mat;

    /// `PivotedQr::new` as the column-at-a-time loops wrote it.
    pub(super) fn pivoted(a: &Mat) -> PivotedQr {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut q = Mat::identity(m);
        let mut piv: Vec<usize> = (0..n).collect();
        let steps = n.min(m);
        for k in 0..steps {
            // Pick the column with the largest residual norm.
            let mut best_j = k;
            let mut best = -1.0;
            for j in k..n {
                let norm: f64 = (k..m).map(|i| r[(i, j)] * r[(i, j)]).sum();
                if norm > best {
                    best = norm;
                    best_j = j;
                }
            }
            if best_j != k {
                for i in 0..m {
                    let t = r[(i, k)];
                    r[(i, k)] = r[(i, best_j)];
                    r[(i, best_j)] = t;
                }
                piv.swap(k, best_j);
            }
            if best.sqrt() < 1e-300 {
                break;
            }
            // Householder on column k.
            let norm = best.sqrt();
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            for i in k..m {
                v[i] = r[(i, k)];
            }
            v[k] -= alpha;
            let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            for j in 0..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * r[(i, j)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    r[(i, j)] -= s * v[i];
                }
            }
            for j in 0..m {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * q[(j, i)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in k..m {
                    q[(j, i)] -= s * v[i];
                }
            }
        }
        for i in 0..m {
            for j in 0..n.min(i) {
                r[(i, j)] = 0.0;
            }
        }
        PivotedQr { q, r, piv }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn orthonormal(q: &Mat, tol: f64) -> bool {
        (&q.t() * q).approx_eq(&Mat::identity(q.cols()), tol)
    }

    #[test]
    fn qr_reconstructs() {
        let a = Mat::from_rows(&[
            &[12.0, -51.0, 4.0],
            &[6.0, 167.0, -68.0],
            &[-4.0, 24.0, -41.0],
        ]);
        let f = Qr::new(&a);
        assert!(orthonormal(&f.q(), 1e-12));
        assert!((&f.q() * &f.r()).approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_tall_matrix() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let f = Qr::new(&a);
        assert!((&f.q() * &f.r()).approx_eq(&a, 1e-12));
    }

    #[test]
    fn least_squares_line_fit() {
        // Fit y = 2 + 3x over x = 0..4 exactly.
        let a = Mat::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[1.0, 2.0],
            &[1.0, 3.0],
            &[1.0, 4.0],
        ]);
        let b = Mat::col(&[2.0, 5.0, 8.0, 11.0, 14.0]);
        let x = Qr::new(&a).solve_least_squares(&b).unwrap();
        assert!(x.approx_eq(&Mat::col(&[2.0, 3.0]), 1e-12));
    }

    #[test]
    fn least_squares_overdetermined_residual_orthogonal() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = Mat::col(&[1.0, 2.0, 2.0]);
        let x = Qr::new(&a).solve_least_squares(&b).unwrap();
        let resid = &(&a * &x) - &b;
        // Residual must be orthogonal to the column space.
        let proj = &a.t() * &resid;
        assert!(proj.max_abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_least_squares_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let b = Mat::col(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            Qr::new(&a).solve_least_squares(&b),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn pivoted_qr_rank_detection() {
        // Rank-2 matrix of size 4x4.
        let u = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[3.0, -1.0], &[0.5, 2.0]]);
        let v = Mat::from_rows(&[&[1.0, 1.0, 0.0, 2.0], &[0.0, 1.0, 1.0, -1.0]]);
        let a = &u * &v;
        let f = PivotedQr::new(&a);
        assert_eq!(f.rank(1e-10), 2);
        // Basis reconstructs the column space: A = Q1 Q1ᵀ A.
        let q1 = f.range_basis(2);
        let proj = &(&q1 * &q1.t()) * &a;
        assert!(proj.approx_eq(&a, 1e-10));
    }

    #[test]
    fn pivoted_qr_full_rank() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let f = PivotedQr::new(&a);
        assert_eq!(f.rank(1e-12), 2);
        assert!(orthonormal(f.q(), 1e-12));
    }

    /// A `rows × cols` matrix of rank at most `rank` drawn from `seed`;
    /// with `zeros`, about a third of the entries of each factor are
    /// exact zeros (exact-zero dot products and ties in the pivoting).
    fn low_rank(rows: usize, cols: usize, rank: usize, seed: u64, zeros: bool) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |r: usize, c: usize| {
            let mut f = Mat::zeros(r, c);
            for i in 0..r {
                for j in 0..c {
                    if !(zeros && rng.gen_range(0.0..1.0) < 0.33) {
                        f[(i, j)] = rng.gen_range(-1.0..1.0);
                    }
                }
            }
            f
        };
        let u = draw(rows, rank);
        let v = draw(rank, cols);
        &u * &v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pivoted_qr_matches_column_loop_reference_bits(
            rows in 1usize..=100,
            cols in 1usize..=100,
            rank_pct in 0usize..=100,
            seed in 0u64..u64::MAX,
            zeros in 0u32..2,
        ) {
            let rank = (rows.min(cols) * rank_pct).div_ceil(100);
            let a = low_rank(rows, cols, rank, seed, zeros == 1);
            let got = PivotedQr::new(&a);
            let want = reference::pivoted(&a);
            prop_assert_eq!(bits(got.q()), bits(want.q()));
            prop_assert_eq!(bits(got.r()), bits(want.r()));
            prop_assert_eq!(got.pivots(), want.pivots());
        }
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn pivoted_qr_zero_matrix() {
        let a = Mat::zeros(3, 3);
        let f = PivotedQr::new(&a);
        assert_eq!(f.rank(1e-12), 0);
    }
}
