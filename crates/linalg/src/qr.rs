//! Householder QR factorization, plain and column-pivoted.
//!
//! [`lstsq`] backs least-squares system identification;
//! [`leading_basis`], a truncated column-pivoted factorization, extracts
//! well-conditioned bases for invariant subspaces in the Riccati
//! sign-function solver.

use crate::{Error, Mat, Result};

/// Solves the least-squares problem `min ‖A·x − b‖₂` for a
/// full-column-rank `m × n` matrix `A` (`m ≥ n`) by Householder QR and
/// back substitution on `R·x = Qᵀ·b`, without forming `Q`.
///
/// `R` is factored in place and the Householder vectors are kept. The
/// rows of `Q = H₀·H₁·…` are then rebuilt sixteen at a time, in one lane
/// block of `m` rows: each starts as a row of the identity and takes every
/// reflection in turn. One sweep down the block applies reflection `h`
/// (`q −= s·v`) and, from the first row reflection `h + 1` touches,
/// accumulates that reflection's dot products from the values it has just
/// written, so the block is read once per reflection, not twice. Each
/// finished row `t` adds its terms to `Qᵀb` in ascending `t` as
/// `acc −= (−q)·b`, skipping `q == 0`, the order [`Mat::matmul`] uses.
///
/// The result is bit for bit that of an explicit `m × m` `Q` multiplied
/// out, in O(m·n) memory: every dot product still starts from `+0` and
/// sums in ascending row order over the values the previous reflection
/// left, and `s = 2d/vᵀv` and the update are the same expressions. Fusing
/// the passes and widening the block only interleave work on different
/// elements; the AVX2 kernel does separate multiplies and adds, as the
/// portable loop does.
///
/// ```
/// use yukta_linalg::{Mat, qr::lstsq};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// // Fit y = 2 + 3x over x = 0..4 exactly.
/// let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0], &[1.0, 4.0]]);
/// let b = Mat::col(&[2.0, 5.0, 8.0, 11.0, 14.0]);
/// let x = lstsq(&a, &b)?;
/// assert!(x.approx_eq(&Mat::col(&[2.0, 3.0]), 1e-12));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if `b` does not conform or `m < n`.
/// * [`Error::Singular`] if `A` is column-rank-deficient.
pub fn lstsq(a: &Mat, b: &Mat) -> Result<Mat> {
    let (m, n) = a.shape();
    if b.rows() != m || m < n {
        return Err(Error::DimensionMismatch {
            op: "qr_lstsq",
            lhs: (m, n),
            rhs: b.shape(),
        });
    }
    let (r, reflectors) = householder_r(a);
    let tol = 1e-12 * r.max_abs().max(1e-30);
    if (0..n).any(|i| r[(i, i)].abs() < tol) {
        return Err(Error::Singular { op: "qr_lstsq" });
    }
    let qtb = qt_times(&reflectors, b, n);
    let p = b.cols();
    let mut x = Mat::zeros(n, p);
    for i in (0..n).rev() {
        let d = r[(i, i)];
        for j in 0..p {
            let mut acc = qtb[(i, j)];
            for k in (i + 1)..n {
                acc -= r[(i, k)] * x[(k, j)];
            }
            x[(i, j)] = acc / d;
        }
    }
    Ok(x)
}

/// One Householder reflection `H = I − 2vvᵀ/(vᵀv)` acting on rows and
/// columns `k..`: `v` holds its entries `k..m`.
struct Reflector {
    k: usize,
    v: Vec<f64>,
    vnorm_sq: f64,
}

/// Reduces `a` (`m × n`) to upper-triangular `R` by Householder
/// reflections from the left, returning `R` and the reflections taken.
/// Column `k` is skipped when its residual norm or its reflector is
/// below `1e-300`, and the last column of a square matrix is never
/// reflected.
fn householder_r(a: &Mat) -> (Mat, Vec<Reflector>) {
    let (m, n) = a.shape();
    let mut r = a.clone();
    let mut reflectors = Vec::with_capacity(n);
    let mut scratch = vec![0.0; n];
    let mut v = vec![0.0; m];
    for k in 0..n.min(m.saturating_sub(1)) {
        let mut norm = 0.0;
        for row in r.as_slice().chunks_exact(n).skip(k) {
            norm += row[k] * row[k];
        }
        let norm = norm.sqrt();
        if norm < 1e-300 {
            continue;
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        for (vi, row) in v.iter_mut().zip(r.as_slice().chunks_exact(n)).skip(k) {
            *vi = row[k];
        }
        v[k] -= alpha;
        let vnorm_sq: f64 = v[k..].iter().map(|x| x * x).sum();
        if vnorm_sq < 1e-300 {
            continue;
        }
        // Columns left of `k` are not read again and are zeroed below.
        reflect_rows(&mut r, &v, k, k, vnorm_sq, &mut scratch);
        reflectors.push(Reflector {
            k,
            v: v[k..].to_vec(),
            vnorm_sq,
        });
    }
    // Zero the strictly-lower part of R that should be exactly zero.
    for i in 1..m {
        for j in 0..n.min(i) {
            r[(i, j)] = 0.0;
        }
    }
    (r, reflectors)
}

/// Rows of `Q` one lane block of [`qt_times`] rebuilds together: one
/// block row fills the AVX2 kernel's four registers.
const LANES: usize = 16;

/// One row of a lane block: lane `l` holds the entry of row `t + l` of `Q`.
type Lanes = [f64; LANES];

/// The first `rows` rows of `Qᵀ·b`, where `Q = H₀·H₁·…` is the product of
/// `reflectors` (each of order `b.rows()`). `Q` is rebuilt one block of
/// [`LANES`] rows at a time, lane `l` of `block[i]` holding `Q[t + l, i]`:
/// each sweep of [`reflect_lanes`] applies one reflection and sums the
/// next one's dot products from the values it has just written.
fn qt_times(reflectors: &[Reflector], b: &Mat, rows: usize) -> Mat {
    let (m, p) = b.shape();
    let mut qtb = Mat::zeros(rows, p);
    if p == 0 {
        return qtb;
    }
    let mut block = vec![[0.0f64; LANES]; m];
    for t in (0..m).step_by(LANES) {
        block.fill([0.0; LANES]);
        for (l, q) in block[t..].iter_mut().take(LANES).enumerate() {
            q[l] = 1.0;
        }
        if let Some(first) = reflectors.first() {
            let mut dot = [0.0f64; LANES];
            for (q, &vi) in block[first.k..].iter().zip(&first.v) {
                for l in 0..LANES {
                    dot[l] += vi * q[l];
                }
            }
            for (j, h) in reflectors.iter().enumerate() {
                let s = dot.map(|d| 2.0 * d / h.vnorm_sq);
                // The last reflection is needed only in the rows read below.
                let (end, next) = match reflectors.get(j + 1) {
                    Some(next) => (m, &next.v[..]),
                    None => (rows.clamp(h.k, m), &[][..]),
                };
                dot = reflect_lanes(&mut block[h.k..end], &h.v, &s, next);
            }
        }
        for (l, brow) in b.as_slice().chunks_exact(p).skip(t).take(LANES).enumerate() {
            for (i, out) in qtb.as_mut_slice().chunks_exact_mut(p).enumerate() {
                let c = -block[i][l];
                if c == 0.0 {
                    continue;
                }
                for (o, &bv) in out.iter_mut().zip(brow) {
                    *o -= c * bv;
                }
            }
        }
    }
    qtb
}

/// One fused sweep of [`qt_times`]: `q −= s·vᵢ` on every row of `block`,
/// and, over its last `next.len()` rows (where the next reflection's
/// vector starts), `dot += nextᵢ·q` from the updated `q`, summed in row
/// order from `+0`. Returns the next reflection's dot products. On hosts
/// with AVX2 it runs [`reflect_lanes_avx2`]; neither loop fuses the
/// multiply-add, and both give each lane its operations in row order, so
/// they give the same bits.
fn reflect_lanes(block: &mut [Lanes], v: &[f64], s: &Lanes, next: &[f64]) -> Lanes {
    assert!(v.len() >= block.len() && next.len() <= block.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this host; the lengths are
        // asserted above.
        return unsafe { reflect_lanes_avx2(block, v, s, next) };
    }
    reflect_lanes_scalar(block, v, s, next)
}

/// The portable loop of [`reflect_lanes`].
fn reflect_lanes_scalar(block: &mut [Lanes], v: &[f64], s: &Lanes, next: &[f64]) -> Lanes {
    let (head, tail) = block.split_at_mut(block.len() - next.len());
    for (q, &vi) in head.iter_mut().zip(v) {
        for l in 0..LANES {
            q[l] -= s[l] * vi;
        }
    }
    let mut dot = [0.0f64; LANES];
    for ((q, &vi), &wi) in tail.iter_mut().zip(&v[head.len()..]).zip(next) {
        for l in 0..LANES {
            q[l] -= s[l] * vi;
            dot[l] += wi * q[l];
        }
    }
    dot
}

/// The AVX2 loop of [`reflect_lanes`]: a separate multiply and add (no
/// FMA), so every lane sees the same operations in the same order as
/// [`reflect_lanes_scalar`] and gets the same bits. `s` and the dot
/// products stay in registers across the sweep.
///
/// # Safety
///
/// Caller must guarantee AVX2, `v.len() >= block.len()` and
/// `next.len() <= block.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn reflect_lanes_avx2(block: &mut [Lanes], v: &[f64], s: &Lanes, next: &[f64]) -> Lanes {
    use core::arch::x86_64::*;

    let split = block.len() - next.len();
    let sp = s.as_ptr();
    let s: [__m256d; LANES / 4] = core::array::from_fn(|j| _mm256_loadu_pd(sp.add(4 * j)));
    let bp = block.as_mut_ptr().cast::<f64>();
    for i in 0..split {
        let vi = _mm256_set1_pd(*v.get_unchecked(i));
        let q = bp.add(i * LANES);
        for (j, &sj) in s.iter().enumerate() {
            let qj = _mm256_sub_pd(_mm256_loadu_pd(q.add(4 * j)), _mm256_mul_pd(sj, vi));
            _mm256_storeu_pd(q.add(4 * j), qj);
        }
    }
    let mut dot = [_mm256_setzero_pd(); LANES / 4];
    for (i, &wi) in (split..block.len()).zip(next) {
        let vi = _mm256_set1_pd(*v.get_unchecked(i));
        let wi = _mm256_set1_pd(wi);
        let q = bp.add(i * LANES);
        for (j, (&sj, d)) in s.iter().zip(&mut dot).enumerate() {
            let qj = _mm256_sub_pd(_mm256_loadu_pd(q.add(4 * j)), _mm256_mul_pd(sj, vi));
            _mm256_storeu_pd(q.add(4 * j), qj);
            *d = _mm256_add_pd(*d, _mm256_mul_pd(wi, qj));
        }
    }
    let mut out = [0.0f64; LANES];
    for (j, d) in dot.into_iter().enumerate() {
        _mm256_storeu_pd(out.as_mut_ptr().add(4 * j), d);
    }
    out
}

/// The first `rank` columns of `Q` in the column-pivoted QR `A·Π = Q·R`
/// (greedy pivoting on residual column norms): an orthonormal basis for
/// the column space of a matrix of that rank.
///
/// The factorization stops after `rank` Householder steps: reflection
/// `k` touches only rows `k..` of `Qᵀ`, so its first `rank` rows are final
/// by then. Step `k` reflects `R` from column `k`, since the pivot search
/// and the reflectors read no column left of it again. Every sum runs
/// down a column in row order, as a column-at-a-time loop would add it,
/// but all columns advance together along contiguous rows; `Q` is
/// accumulated transposed for the same reason. So the basis is bit for
/// bit the leading columns of the full factorization's `Q`. `rank` must
/// not exceed `a.rows()`.
pub fn leading_basis(a: &Mat, rank: usize) -> Mat {
    let (m, n) = a.shape();
    let mut r = a.clone();
    let mut qt = Mat::identity(m);
    let mut sums = vec![0.0; n.max(m)];
    let mut v = vec![0.0; m];
    for k in 0..rank.min(n) {
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
            for row in r.as_mut_slice().chunks_exact_mut(n).skip(k) {
                row.swap(k, best_j);
            }
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
        reflect_rows(&mut r, &v, k, k, vnorm_sq, &mut sums);
        reflect_rows(&mut qt, &v, k, 0, vnorm_sq, &mut sums);
    }
    qt.block(0, rank, 0, m).t()
}

/// Applies `H = I − 2vvᵀ/(vᵀv)` from the left to rows `k..` of `x`,
/// columns `col0..`: `dⱼ = Σᵢ vᵢ·xᵢⱼ` accumulated in row order from
/// `+0`, then `xᵢⱼ −= (2dⱼ/vᵀv)·vᵢ`. `scratch` must hold `x.cols()`
/// values. Skipping columns is exact only where rows `k..` hold `+0.0`
/// and `v` is finite: such a column's `dⱼ` is `+0` and `+0 − (+0)·vᵢ`
/// is `+0`.
pub(crate) fn reflect_rows(
    x: &mut Mat,
    v: &[f64],
    k: usize,
    col0: usize,
    vnorm_sq: f64,
    scratch: &mut [f64],
) {
    let cols = x.cols();
    let d = &mut scratch[col0..cols];
    d.fill(0.0);
    for (row, &vi) in x.as_slice().chunks_exact(cols).zip(v).skip(k) {
        for (dj, &xij) in d.iter_mut().zip(&row[col0..]) {
            *dj += vi * xij;
        }
    }
    for dj in d.iter_mut() {
        *dj = 2.0 * *dj / vnorm_sq;
    }
    for (row, &vi) in x.as_mut_slice().chunks_exact_mut(cols).zip(v).skip(k) {
        for (xij, &sj) in row[col0..].iter_mut().zip(d.iter()) {
            *xij -= sj * vi;
        }
    }
}

/// The full column-pivoted factorization [`leading_basis`] truncates and
/// the full-`Q` factorization [`lstsq`] replaced, as column-at-a-time
/// loops, and the two-pass four-lane `Qᵀb` rebuild the fused one
/// replaced: the references the current versions are pinned to bit for
/// bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::Reflector;
    use crate::{Error, Mat, Result};

    /// A Householder QR factorization `A = Q·R` with `Q` full `m × m`.
    #[derive(Debug, Clone)]
    pub(crate) struct Qr {
        q: Mat,
        r: Mat,
    }

    impl Qr {
        /// Factors an `m × n` matrix with `m >= n`.
        pub(crate) fn new(a: &Mat) -> Self {
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
        pub(crate) fn q(&self) -> &Mat {
            &self.q
        }

        /// The upper-triangular factor `R` (`m × n`).
        pub(crate) fn r(&self) -> &Mat {
            &self.r
        }

        /// Back substitution on `R·x = Qᵀ·b`.
        pub(crate) fn solve_least_squares(&self, b: &Mat) -> Result<Mat> {
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

    /// The first `rows` rows of `Qᵀ·b`, where `Q = H₀·H₁·…` is the product of
    /// `reflectors` (each of order `b.rows()`). `Q` is rebuilt one block of
    /// four rows at a time, lane `l` of `block[i]` holding `Q[t + l, i]`.
    pub(super) fn qt_times(reflectors: &[Reflector], b: &Mat, rows: usize) -> Mat {
        const LANES: usize = 4;
        let (m, p) = b.shape();
        let mut qtb = Mat::zeros(rows, p);
        if p == 0 {
            return qtb;
        }
        let mut block = vec![[0.0f64; LANES]; m];
        for t in (0..m).step_by(LANES) {
            block.fill([0.0; LANES]);
            for (l, q) in block[t..].iter_mut().take(LANES).enumerate() {
                q[l] = 1.0;
            }
            for h in reflectors {
                let tail = &mut block[h.k..];
                let mut dot = [0.0f64; LANES];
                for (q, &vi) in tail.iter().zip(&h.v) {
                    for l in 0..LANES {
                        dot[l] += vi * q[l];
                    }
                }
                let s = dot.map(|d| 2.0 * d / h.vnorm_sq);
                for (q, &vi) in tail.iter_mut().zip(&h.v) {
                    for l in 0..LANES {
                        q[l] -= s[l] * vi;
                    }
                }
            }
            for (l, brow) in b.as_slice().chunks_exact(p).skip(t).take(LANES).enumerate() {
                for (i, out) in qtb.as_mut_slice().chunks_exact_mut(p).enumerate() {
                    let c = -block[i][l];
                    if c == 0.0 {
                        continue;
                    }
                    for (o, &bv) in out.iter_mut().zip(brow) {
                        *o -= c * bv;
                    }
                }
            }
        }
        qtb
    }

    /// The orthogonal factor `Q` (`m × m`) of the column-pivoted QR,
    /// pivoting greedily on residual column norms.
    pub(super) fn pivoted(a: &Mat) -> Mat {
        let (m, n) = a.shape();
        let mut r = a.clone();
        let mut q = Mat::identity(m);
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
        q
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
    fn reference_qr_reconstructs() {
        let a = Mat::from_rows(&[
            &[12.0, -51.0, 4.0],
            &[6.0, 167.0, -68.0],
            &[-4.0, 24.0, -41.0],
        ]);
        let f = reference::Qr::new(&a);
        assert!(orthonormal(f.q(), 1e-12));
        assert!((f.q() * f.r()).approx_eq(&a, 1e-10));
        let tall = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let f = reference::Qr::new(&tall);
        assert!((f.q() * f.r()).approx_eq(&tall, 1e-12));
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
        let x = lstsq(&a, &b).unwrap();
        assert!(x.approx_eq(&Mat::col(&[2.0, 3.0]), 1e-12));
    }

    #[test]
    fn least_squares_overdetermined_residual_orthogonal() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = Mat::col(&[1.0, 2.0, 2.0]);
        let x = lstsq(&a, &b).unwrap();
        let resid = &(&a * &x) - &b;
        // Residual must be orthogonal to the column space.
        let proj = &a.t() * &resid;
        assert!(proj.max_abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_least_squares_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let b = Mat::col(&[1.0, 2.0, 3.0]);
        assert!(matches!(lstsq(&a, &b), Err(Error::Singular { .. })));
    }

    #[test]
    fn least_squares_shape_errors_and_empty_shapes() {
        let a = Mat::zeros(3, 2);
        assert!(matches!(
            lstsq(&a, &Mat::zeros(2, 1)),
            Err(Error::DimensionMismatch { op: "qr_lstsq", .. })
        ));
        assert!(matches!(
            lstsq(&Mat::zeros(2, 3), &Mat::zeros(2, 1)),
            Err(Error::DimensionMismatch { op: "qr_lstsq", .. })
        ));
        let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        assert_eq!(lstsq(&a, &Mat::zeros(3, 0)).unwrap().shape(), (2, 0));
        assert_eq!(
            lstsq(&Mat::zeros(3, 0), &Mat::zeros(3, 2)).unwrap().shape(),
            (0, 2)
        );
    }

    #[test]
    fn leading_basis_spans_the_column_space() {
        // Rank-2 matrix of size 4x4.
        let u = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[3.0, -1.0], &[0.5, 2.0]]);
        let v = Mat::from_rows(&[&[1.0, 1.0, 0.0, 2.0], &[0.0, 1.0, 1.0, -1.0]]);
        let a = &u * &v;
        // Basis reconstructs the column space: A = Q1 Q1ᵀ A.
        let q1 = leading_basis(&a, 2);
        assert_eq!(q1.shape(), (4, 2));
        assert!(orthonormal(&q1, 1e-12));
        let proj = &(&q1 * &q1.t()) * &a;
        assert!(proj.approx_eq(&a, 1e-10));
    }

    #[test]
    fn leading_basis_of_full_rank_is_orthonormal() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        assert!(orthonormal(&leading_basis(&a, 2), 1e-12));
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

        /// The truncated factorization's basis is bit for bit the leading
        /// columns of the full column-loop factorization's `Q`, for any
        /// basis width, on full-rank and rank-deficient matrices (and on
        /// the square `2n × 2n` projector shape with width `n` that `care`
        /// passes, among the random shapes).
        #[test]
        fn leading_basis_matches_column_loop_reference_bits(
            rows in 1usize..=100,
            cols in 1usize..=100,
            rank_pct in 0usize..=100,
            width_pct in 0usize..=100,
            seed in 0u64..u64::MAX,
            zeros in 0u32..2,
        ) {
            let rank = (rows.min(cols) * rank_pct).div_ceil(100);
            let width = (rows * width_pct).div_ceil(100);
            let a = low_rank(rows, cols, rank, seed, zeros == 1);
            let want = reference::pivoted(&a).block(0, rows, 0, width);
            prop_assert_eq!(bits(&leading_basis(&a, width)), bits(&want));
        }
    }

    /// How a least-squares input is shaped beyond its random draw.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// The draw as is.
        Plain,
        /// `[A; √λ·I]`, the ridge-stacked regression of `fit_arx`.
        Ridge,
        /// One column set to zero: its reflection is skipped
        /// (`norm < 1e-300`) and the solve is `Singular`.
        ZeroColumn,
    }

    fn lstsq_input(
        rows: usize,
        cols: usize,
        rank: usize,
        seed: u64,
        zeros: bool,
        shape: Shape,
    ) -> (Mat, Mat) {
        let mut a = low_rank(rows, cols, rank, seed, zeros);
        match shape {
            Shape::Plain => {}
            Shape::Ridge => {
                let reg = Mat::identity(cols).scale(1e-4f64.sqrt());
                a = Mat::vstack(&a, &reg).unwrap();
            }
            Shape::ZeroColumn => {
                let j = (seed % cols as u64) as usize;
                for i in 0..rows {
                    a[(i, j)] = 0.0;
                }
            }
        }
        let b = low_rank(a.rows(), 1 + (seed % 4) as usize, 4, seed ^ 0x9e37, zeros);
        (a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lstsq_matches_full_q_reference_bits(
            rows in 1usize..=100,
            cols_pct in 1usize..=100,
            rank_pct in 0usize..=100,
            seed in 0u64..u64::MAX,
            zeros in 0u32..2,
            shape in 0u32..3,
        ) {
            let shape = [Shape::Plain, Shape::Ridge, Shape::ZeroColumn][shape as usize];
            let cols = (rows * cols_pct).div_ceil(100);
            let rank = if rank_pct >= 50 { cols } else { (cols * rank_pct).div_ceil(100) };
            let (a, b) = lstsq_input(rows, cols, rank, seed, zeros == 1, shape);
            let want_f = reference::Qr::new(&a);
            let (r, reflectors) = householder_r(&a);
            prop_assert_eq!(bits(&r), bits(want_f.r()));
            let want_qtb = &want_f.q().t() * &b;
            prop_assert_eq!(bits(&qt_times(&reflectors, &b, cols)), bits(&want_qtb.block(0, cols, 0, b.cols())));
            let got = lstsq(&a, &b);
            let want = want_f.solve_least_squares(&b);
            match (got, want) {
                (Ok(x), Ok(y)) => prop_assert_eq!(bits(&x), bits(&y)),
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
            if matches!(shape, Shape::ZeroColumn) {
                prop_assert_eq!(lstsq(&a, &b).err(), Some(Error::Singular { op: "qr_lstsq" }));
            }
        }
    }

    #[test]
    fn lstsq_skip_and_rank_deficient_paths_are_exercised() {
        // A zero first column: its reflection is skipped, the solve is
        // Singular in both.
        let (a, b) = lstsq_input(40, 7, 7, 14, false, Shape::ZeroColumn);
        assert!(householder_r(&a).1.iter().all(|h| h.k != 0));
        assert_eq!(
            lstsq(&a, &b).err(),
            Some(Error::Singular { op: "qr_lstsq" })
        );
        assert_eq!(
            reference::Qr::new(&a).solve_least_squares(&b).err(),
            Some(Error::Singular { op: "qr_lstsq" })
        );
        // Rank deficiency without a zero column: the same Singular error.
        let (a, b) = lstsq_input(60, 9, 4, 12, true, Shape::Plain);
        assert_eq!(householder_r(&a).1.len(), 9);
        assert_eq!(
            lstsq(&a, &b).err(),
            Some(Error::Singular { op: "qr_lstsq" })
        );
        assert_eq!(
            reference::Qr::new(&a).solve_least_squares(&b).err(),
            Some(Error::Singular { op: "qr_lstsq" })
        );
    }

    /// Full-length identification regressions: 717 rows of 22
    /// regressors plus 22 ridge rows, the shape of the deployed HW
    /// layer's `fit_arx`, and 718 rows of 28 plus 28, the monolithic
    /// model's.
    #[test]
    fn lstsq_matches_reference_at_identification_size() {
        for (rows, cols) in [(717, 22), (718, 28)] {
            let (a, b) = lstsq_input(rows, cols, cols, 5, false, Shape::Ridge);
            assert_eq!(a.shape(), (rows + cols, cols));
            let want = reference::Qr::new(&a).solve_least_squares(&b).unwrap();
            assert_eq!(bits(&lstsq(&a, &b).unwrap()), bits(&want));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fused sixteen-lane rebuild against the two-pass four-lane
        /// one, bit for bit, for any number of output rows: every lane
        /// block count and partial last block, ridge-stacked inputs, zero
        /// columns (skipped reflections) and exact zeros in `A` and `b`.
        #[test]
        fn qt_times_matches_two_pass_reference_bits(
            rows in 1usize..=100,
            cols_pct in 1usize..=100,
            rank_pct in 0usize..=100,
            out_pct in 0usize..=100,
            seed in 0u64..u64::MAX,
            zeros in 0u32..2,
            shape in 0u32..3,
        ) {
            let shape = [Shape::Plain, Shape::Ridge, Shape::ZeroColumn][shape as usize];
            let cols = (rows * cols_pct).div_ceil(100);
            let rank = (cols * rank_pct).div_ceil(100);
            let (a, b) = lstsq_input(rows, cols, rank, seed, zeros == 1, shape);
            let out = (a.rows() * out_pct).div_ceil(100);
            let (_, reflectors) = householder_r(&a);
            prop_assert_eq!(
                bits(&qt_times(&reflectors, &b, out)),
                bits(&reference::qt_times(&reflectors, &b, out))
            );
        }
    }

    /// The AVX2 sweep against the portable loop, bit for bit: every block
    /// length up to 40, the next reflection starting anywhere in the
    /// block or absent, vectors longer than the block, and exact and
    /// signed zeros in the block, the vectors and the scale factors.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_reflect_lanes_matches_scalar_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x0f05_ed16);
        let draw = |rng: &mut StdRng| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        };
        for len in 0..=40usize {
            for next_len in [0, 1, len / 2, len.saturating_sub(1), len] {
                let next_len = next_len.min(len);
                let block: Vec<Lanes> = (0..len)
                    .map(|_| std::array::from_fn(|_| draw(&mut rng)))
                    .collect();
                let v: Vec<f64> = (0..len + 3).map(|_| draw(&mut rng)).collect();
                let next: Vec<f64> = (0..next_len).map(|_| draw(&mut rng)).collect();
                let s: Lanes = std::array::from_fn(|_| draw(&mut rng));
                let mut want = block.clone();
                let want_dot = reflect_lanes_scalar(&mut want, &v, &s, &next);
                let mut got = block;
                // SAFETY: AVX2 was detected above; `v` is longer than the
                // block and `next` no longer.
                let got_dot = unsafe { reflect_lanes_avx2(&mut got, &v, &s, &next) };
                let bits =
                    |q: &[Lanes]| q.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "len {len}, next {next_len}");
                assert_eq!(
                    bits(&[got_dot]),
                    bits(&[want_dot]),
                    "len {len}, next {next_len}"
                );
            }
        }
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn leading_basis_of_zero_matrix_is_the_identity_block() {
        // No column has a residual norm: nothing is reflected.
        let basis = leading_basis(&Mat::zeros(3, 3), 2);
        assert_eq!(bits(&basis), bits(&Mat::identity(3).block(0, 3, 0, 2)));
    }
}
