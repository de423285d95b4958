//! Eigenvalues of real matrices via Hessenberg reduction and the Francis
//! implicit double-shift QR iteration.
//!
//! The control stack uses eigenvalues for three things: discrete-time
//! stability checks (spectral radius), continuous-time stability checks
//! (maximum real part), and validating Riccati solutions (closed-loop
//! stability). Eigen*vectors* are never needed, which keeps this module
//! compact.

use crate::qr::reflect_rows;
use crate::{C64, Error, Mat, Result};

/// Reduces a square matrix to upper Hessenberg form by Householder
/// similarity transforms. Returns the Hessenberg matrix (the orthogonal
/// factor is not accumulated — eigenvalues are similarity-invariant).
pub fn hessenberg(a: &Mat) -> Mat {
    hessenberg_impl(a, None)
}

/// Like [`hessenberg`] but also accumulates the orthogonal factor:
/// returns `(H, Q)` with `A = Q·H·Qᵀ` and `QᵀQ = I`.
///
/// The frequency-sweep fast path ([`crate::freq`]) uses `Q` to transform
/// the input/output matrices of a state-space system once, after which
/// every transfer-matrix evaluation costs one O(n²) Hessenberg solve
/// instead of an O(n³) dense LU.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn hessenberg_q(a: &Mat) -> (Mat, Mat) {
    assert!(a.is_square(), "hessenberg_q requires a square matrix");
    let mut q = Mat::identity(a.rows());
    let h = hessenberg_impl(a, Some(&mut q));
    (h, q)
}

/// The one Householder reduction behind [`hessenberg`] and
/// [`hessenberg_q`]. Every dot product keeps the order of the textbook
/// index loops (rows for the left reflection, columns for the right), so
/// the bits are those of `reference::hessenberg`; only the traversal
/// changed.
fn hessenberg_impl(a: &Mat, mut q: Option<&mut Mat>) -> Mat {
    let n = a.rows();
    let mut h = a.clone();
    let mut scratch = vec![0.0; n];
    let mut v = vec![0.0; n];
    // Columns `..zeroed` hold exact `+0.0` below their subdiagonal: each
    // was zeroed by its own step, and a later left reflection with a
    // finite `v` keeps it `+0.0`, so that reflection may skip them. A
    // skipped step stops the prefix; a non-finite `v` ends it for good.
    let mut zeroed = Some(0);
    for k in 0..n.saturating_sub(2) {
        let mut norm = 0.0;
        for i in (k + 1)..n {
            norm += h[(i, k)] * h[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-300 {
            continue;
        }
        let alpha = if h[(k + 1, k)] >= 0.0 { -norm } else { norm };
        for i in (k + 1)..n {
            v[i] = h[(i, k)];
        }
        v[k + 1] -= alpha;
        let vnorm_sq: f64 = v[(k + 1)..].iter().map(|x| x * x).sum();
        if vnorm_sq < 1e-300 {
            continue;
        }
        if !vnorm_sq.is_finite() {
            zeroed = None;
        }
        // H ← P H P with P = I − 2vvᵀ/(vᵀv): apply from the left…
        let col0 = zeroed.unwrap_or(0);
        reflect_rows(&mut h, &v, k + 1, col0, vnorm_sq, &mut scratch);
        // …and from the right.
        reflect_cols(&mut h, &v, k + 1, vnorm_sq);
        // Entries below the first subdiagonal in column k are now zero.
        for i in (k + 2)..n {
            h[(i, k)] = 0.0;
        }
        if zeroed == Some(k) {
            zeroed = Some(k + 1);
        }
        // Accumulate Q ← Q·P (P symmetric), so that A = Q·H·Qᵀ.
        if let Some(q) = q.as_deref_mut() {
            reflect_cols(q, &v, k + 1, vnorm_sq);
        }
    }
    h
}

/// Applies `P = I − 2vvᵀ/(vᵀv)` from the right to columns `k..` of
/// every row of `x`: `dᵢ = Σⱼ xᵢⱼ·vⱼ` accumulated in column order from
/// `+0`, then `xᵢⱼ −= (2dᵢ/vᵀv)·vⱼ`. Rows go four at a time so their
/// independent dot products overlap.
fn reflect_cols(x: &mut Mat, v: &[f64], k: usize, vnorm_sq: f64) {
    let cols = x.cols();
    let v = &v[k..cols];
    let mut blocks = x.as_mut_slice().chunks_exact_mut(4 * cols);
    for block in &mut blocks {
        let (r0, rest) = block.split_at_mut(cols);
        let (r1, rest) = rest.split_at_mut(cols);
        let (r2, r3) = rest.split_at_mut(cols);
        let (r0, r1, r2, r3) = (&mut r0[k..], &mut r1[k..], &mut r2[k..], &mut r3[k..]);
        let mut d = [0.0f64; 4];
        for ((((&a0, &a1), &a2), &a3), &vj) in r0.iter().zip(&*r1).zip(&*r2).zip(&*r3).zip(v) {
            d[0] += a0 * vj;
            d[1] += a1 * vj;
            d[2] += a2 * vj;
            d[3] += a3 * vj;
        }
        let s = d.map(|d| 2.0 * d / vnorm_sq);
        for ((((a0, a1), a2), a3), &vj) in r0
            .iter_mut()
            .zip(r1.iter_mut())
            .zip(r2.iter_mut())
            .zip(r3.iter_mut())
            .zip(v)
        {
            *a0 -= s[0] * vj;
            *a1 -= s[1] * vj;
            *a2 -= s[2] * vj;
            *a3 -= s[3] * vj;
        }
    }
    for row in blocks.into_remainder().chunks_exact_mut(cols) {
        let row = &mut row[k..];
        let mut d = 0.0;
        for (&a, &vj) in row.iter().zip(v) {
            d += a * vj;
        }
        let s = 2.0 * d / vnorm_sq;
        for (a, &vj) in row.iter_mut().zip(v) {
            *a -= s * vj;
        }
    }
}

/// Computes all eigenvalues of a real square matrix.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if `a` is not square.
/// * [`Error::NoConvergence`] if QR iteration stalls (rare; pathological
///   matrices only).
///
/// # Examples
///
/// ```
/// use yukta_linalg::{Mat, eig::eigenvalues};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// // Rotation by 90° has eigenvalues ±i.
/// let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
/// let mut eigs = eigenvalues(&a)?;
/// eigs.sort_by(|x, y| x.im.partial_cmp(&y.im).unwrap());
/// assert!((eigs[0].im + 1.0).abs() < 1e-12);
/// assert!((eigs[1].im - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Mat) -> Result<Vec<C64>> {
    if !a.is_square() {
        return Err(Error::DimensionMismatch {
            op: "eigenvalues",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    francis(hessenberg(a))
}

/// Eigenvalues of an upper Hessenberg matrix by the Francis implicit
/// double-shift QR iteration with deflation. The 3-term reflections and
/// the closing Givens rotation work on row slices; every entry sees the
/// operations of `reference::francis` in the same order.
fn francis(mut h: Mat) -> Result<Vec<C64>> {
    let n = h.rows();
    let cols = h.cols();
    let mut eigs = Vec::with_capacity(n);
    let mut hi = n; // active block is h[0..hi, 0..hi]
    let mut iter_budget = 80 * n.max(1);
    let mut iters_since_deflation = 0usize;

    while hi > 0 {
        if iter_budget == 0 {
            return Err(Error::NoConvergence {
                op: "eigenvalues",
                iters: 80 * n,
            });
        }
        iter_budget -= 1;

        // Find the start `lo` of the trailing unreduced block: scan up from
        // hi-1 for a negligible subdiagonal.
        let mut lo = hi - 1;
        while lo > 0 {
            let s = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            let s = if s == 0.0 { 1.0 } else { s };
            if h[(lo, lo - 1)].abs() <= 1e-14 * s {
                h[(lo, lo - 1)] = 0.0;
                break;
            }
            lo -= 1;
        }

        if lo == hi - 1 {
            // 1x1 block: real eigenvalue.
            eigs.push(C64::real(h[(hi - 1, hi - 1)]));
            hi -= 1;
            iters_since_deflation = 0;
            continue;
        }
        if lo == hi - 2 {
            // 2x2 block: solve its characteristic quadratic.
            let (e1, e2) = eig2x2(
                h[(hi - 2, hi - 2)],
                h[(hi - 2, hi - 1)],
                h[(hi - 1, hi - 2)],
                h[(hi - 1, hi - 1)],
            );
            eigs.push(e1);
            eigs.push(e2);
            hi -= 2;
            iters_since_deflation = 0;
            continue;
        }

        // Francis implicit double shift on h[lo..hi, lo..hi].
        iters_since_deflation += 1;
        let m = hi - 1;
        let (s, t); // trace and determinant of trailing 2x2
        if iters_since_deflation.is_multiple_of(12) {
            // Exceptional ad-hoc shift to break symmetry-induced cycles.
            let x = h[(m, m - 1)].abs() + h[(m - 1, m - 2)].abs();
            s = 1.5 * x;
            t = x * x;
        } else {
            s = h[(m - 1, m - 1)] + h[(m, m)];
            t = h[(m - 1, m - 1)] * h[(m, m)] - h[(m - 1, m)] * h[(m, m - 1)];
        }

        // First column of (H−aI)(H−bI) where a+b=s, ab=t.
        let mut x =
            h[(lo, lo)] * h[(lo, lo)] + h[(lo, lo + 1)] * h[(lo + 1, lo)] - s * h[(lo, lo)] + t;
        let mut y = h[(lo + 1, lo)] * (h[(lo, lo)] + h[(lo + 1, lo + 1)] - s);
        let mut z = h[(lo + 2, lo + 1)] * h[(lo + 1, lo)];

        // Every bulge step has k + 2 < hi, so each reflection spans three
        // rows and three columns.
        for k in lo..(hi - 2) {
            // Householder on (x, y, z) to zero y, z.
            let scale = x.abs() + y.abs() + z.abs();
            if scale > 1e-300 {
                let (xs, ys, zs) = (x / scale, y / scale, z / scale);
                let norm = (xs * xs + ys * ys + zs * zs).sqrt();
                let alpha = if xs >= 0.0 { -norm } else { norm };
                let v0 = xs - alpha;
                let vnorm_sq = v0 * v0 + ys * ys + zs * zs;
                if vnorm_sq > 1e-300 {
                    let v = [v0, ys, zs];
                    let data = h.as_mut_slice();
                    // Apply from the left to rows k..k+3.
                    let jstart = k.saturating_sub(1).max(lo);
                    let jend = hi.max(k + 4).min(cols);
                    let (r0, rest) = data[k * cols..(k + 3) * cols].split_at_mut(cols);
                    let (r1, r2) = rest.split_at_mut(cols);
                    for ((a0, a1), a2) in r0[jstart..jend]
                        .iter_mut()
                        .zip(&mut r1[jstart..jend])
                        .zip(&mut r2[jstart..jend])
                    {
                        let mut dot = 0.0;
                        dot += v[0] * *a0;
                        dot += v[1] * *a1;
                        dot += v[2] * *a2;
                        let sfac = 2.0 * dot / vnorm_sq;
                        *a0 -= sfac * v[0];
                        *a1 -= sfac * v[1];
                        *a2 -= sfac * v[2];
                    }
                    // Apply from the right to columns k..k+3.
                    let iend = (k + 4).min(hi);
                    for row in data[lo * cols..iend * cols].chunks_exact_mut(cols) {
                        let c = &mut row[k..k + 3];
                        let mut dot = 0.0;
                        dot += c[0] * v[0];
                        dot += c[1] * v[1];
                        dot += c[2] * v[2];
                        let sfac = 2.0 * dot / vnorm_sq;
                        c[0] -= sfac * v[0];
                        c[1] -= sfac * v[1];
                        c[2] -= sfac * v[2];
                    }
                }
            }
            // Next bulge column.
            x = h[(k + 1, k)];
            y = h[(k + 2, k)];
            z = if k + 3 < hi { h[(k + 3, k)] } else { 0.0 };
            if k > lo {
                h[(k + 1, k - 1)] = 0.0;
                h[(k + 2, k - 1)] = 0.0;
                if k + 3 < hi {
                    h[(k + 3, k - 1)] = 0.0;
                }
            }
        }
        // Final 2-element Givens to restore Hessenberg in the last column.
        let k = hi - 2;
        let (x, y) = (h[(k, k - 1)], h[(k + 1, k - 1)]);
        let r = x.hypot(y);
        if r > 1e-300 {
            let (c, sn) = (x / r, y / r);
            let data = h.as_mut_slice();
            let jend = cols.min(hi.max(k + 2));
            let (r0, r1) = data[k * cols..(k + 2) * cols].split_at_mut(cols);
            for (a1, a2) in r0[k - 1..jend].iter_mut().zip(&mut r1[k - 1..jend]) {
                let (b1, b2) = (*a1, *a2);
                *a1 = c * b1 + sn * b2;
                *a2 = -sn * b1 + c * b2;
            }
            for row in data[lo * cols..hi * cols].chunks_exact_mut(cols) {
                let (b1, b2) = (row[k], row[k + 1]);
                row[k] = c * b1 + sn * b2;
                row[k + 1] = -sn * b1 + c * b2;
            }
        }
    }
    Ok(eigs)
}

/// Eigenvalues of a 2x2 block `[a b; c d]`.
fn eig2x2(a: f64, b: f64, c: f64, d: f64) -> (C64, C64) {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        // Stable: compute the larger root first, derive the other from det.
        let r1 = tr / 2.0 + if tr >= 0.0 { sq } else { -sq };
        let r2 = if r1.abs() > 1e-300 { det / r1 } else { tr - r1 };
        (C64::real(r1), C64::real(r2))
    } else {
        let sq = (-disc).sqrt();
        (C64::new(tr / 2.0, sq), C64::new(tr / 2.0, -sq))
    }
}

/// Spectral radius `max |λᵢ|` of a real square matrix.
///
/// # Errors
///
/// Propagates eigenvalue failures.
pub fn spectral_radius(a: &Mat) -> Result<f64> {
    Ok(eigenvalues(a)?
        .into_iter()
        .fold(0.0f64, |acc, e| acc.max(e.abs())))
}

/// Maximum real part of the spectrum (continuous-time stability margin).
///
/// # Errors
///
/// Propagates eigenvalue failures.
pub fn max_real_part(a: &Mat) -> Result<f64> {
    Ok(eigenvalues(a)?
        .into_iter()
        .fold(f64::NEG_INFINITY, |acc, e| acc.max(e.re)))
}

/// The index loops the Hessenberg reduction and the Francis sweep
/// replaced, kept as the references the row-slice versions are pinned to
/// bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::eig2x2;
    use crate::{C64, Error, Mat, Result};

    /// The Hessenberg reduction (with `Q` when given) as the index loops
    /// wrote it.
    pub(crate) fn hessenberg(a: &Mat, mut q: Option<&mut Mat>) -> Mat {
        let n = a.rows();
        let mut h = a.clone();
        for k in 0..n.saturating_sub(2) {
            let mut norm = 0.0;
            for i in (k + 1)..n {
                norm += h[(i, k)] * h[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue;
            }
            let alpha = if h[(k + 1, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; n];
            for i in (k + 1)..n {
                v[i] = h[(i, k)];
            }
            v[k + 1] -= alpha;
            let vnorm_sq: f64 = v[(k + 1)..].iter().map(|x| x * x).sum();
            if vnorm_sq < 1e-300 {
                continue;
            }
            for j in 0..n {
                let mut dot = 0.0;
                for i in (k + 1)..n {
                    dot += v[i] * h[(i, j)];
                }
                let s = 2.0 * dot / vnorm_sq;
                for i in (k + 1)..n {
                    h[(i, j)] -= s * v[i];
                }
            }
            for i in 0..n {
                let mut dot = 0.0;
                for j in (k + 1)..n {
                    dot += h[(i, j)] * v[j];
                }
                let s = 2.0 * dot / vnorm_sq;
                for j in (k + 1)..n {
                    h[(i, j)] -= s * v[j];
                }
            }
            for i in (k + 2)..n {
                h[(i, k)] = 0.0;
            }
            if let Some(q) = q.as_deref_mut() {
                for i in 0..n {
                    let mut dot = 0.0;
                    for j in (k + 1)..n {
                        dot += q[(i, j)] * v[j];
                    }
                    let s = 2.0 * dot / vnorm_sq;
                    for j in (k + 1)..n {
                        q[(i, j)] -= s * v[j];
                    }
                }
            }
        }
        h
    }

    /// The Francis sweep as the index loops wrote it.
    pub(crate) fn francis(mut h: Mat) -> Result<Vec<C64>> {
        let n = h.rows();
        let mut eigs = Vec::with_capacity(n);
        let mut hi = n; // active block is h[0..hi, 0..hi]
        let mut iter_budget = 80 * n.max(1);
        let mut iters_since_deflation = 0usize;

        while hi > 0 {
            if iter_budget == 0 {
                return Err(Error::NoConvergence {
                    op: "eigenvalues",
                    iters: 80 * n,
                });
            }
            iter_budget -= 1;

            // Find the start `lo` of the trailing unreduced block: scan up from
            // hi-1 for a negligible subdiagonal.
            let mut lo = hi - 1;
            while lo > 0 {
                let s = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
                let s = if s == 0.0 { 1.0 } else { s };
                if h[(lo, lo - 1)].abs() <= 1e-14 * s {
                    h[(lo, lo - 1)] = 0.0;
                    break;
                }
                lo -= 1;
            }

            if lo == hi - 1 {
                // 1x1 block: real eigenvalue.
                eigs.push(C64::real(h[(hi - 1, hi - 1)]));
                hi -= 1;
                iters_since_deflation = 0;
                continue;
            }
            if lo == hi - 2 {
                // 2x2 block: solve its characteristic quadratic.
                let (e1, e2) = eig2x2(
                    h[(hi - 2, hi - 2)],
                    h[(hi - 2, hi - 1)],
                    h[(hi - 1, hi - 2)],
                    h[(hi - 1, hi - 1)],
                );
                eigs.push(e1);
                eigs.push(e2);
                hi -= 2;
                iters_since_deflation = 0;
                continue;
            }

            // Francis implicit double shift on h[lo..hi, lo..hi].
            iters_since_deflation += 1;
            let m = hi - 1;
            let (s, t); // trace and determinant of trailing 2x2
            if iters_since_deflation.is_multiple_of(12) {
                // Exceptional ad-hoc shift to break symmetry-induced cycles.
                let x = h[(m, m - 1)].abs() + h[(m - 1, m - 2)].abs();
                s = 1.5 * x;
                t = x * x;
            } else {
                s = h[(m - 1, m - 1)] + h[(m, m)];
                t = h[(m - 1, m - 1)] * h[(m, m)] - h[(m - 1, m)] * h[(m, m - 1)];
            }

            // First column of (H−aI)(H−bI) where a+b=s, ab=t.
            let mut x =
                h[(lo, lo)] * h[(lo, lo)] + h[(lo, lo + 1)] * h[(lo + 1, lo)] - s * h[(lo, lo)] + t;
            let mut y = h[(lo + 1, lo)] * (h[(lo, lo)] + h[(lo + 1, lo + 1)] - s);
            let mut z = if lo + 2 < hi {
                h[(lo + 2, lo + 1)] * h[(lo + 1, lo)]
            } else {
                0.0
            };

            for k in lo..(hi - 2) {
                // Householder on (x, y, z) to zero y, z.
                let scale = x.abs() + y.abs() + z.abs();
                if scale > 1e-300 {
                    let (xs, ys, zs) = (x / scale, y / scale, z / scale);
                    let norm = (xs * xs + ys * ys + zs * zs).sqrt();
                    let alpha = if xs >= 0.0 { -norm } else { norm };
                    let v0 = xs - alpha;
                    let vnorm_sq = v0 * v0 + ys * ys + zs * zs;
                    if vnorm_sq > 1e-300 {
                        let v = [v0, ys, zs];
                        let rows = [k, k + 1, (k + 2).min(hi - 1)];
                        let nrot = if k + 2 < hi { 3 } else { 2 };
                        // Apply from the left to rows k..k+3.
                        let jstart = k.saturating_sub(1).max(lo);
                        for j in jstart..hi.max(k + 4).min(h.cols()) {
                            let mut dot = 0.0;
                            for (idx, &r) in rows.iter().enumerate().take(nrot) {
                                dot += v[idx] * h[(r, j)];
                            }
                            let sfac = 2.0 * dot / vnorm_sq;
                            for (idx, &r) in rows.iter().enumerate().take(nrot) {
                                h[(r, j)] -= sfac * v[idx];
                            }
                        }
                        // Apply from the right to columns.
                        let iend = (k + 4).min(hi);
                        for i in lo..iend {
                            let mut dot = 0.0;
                            for (idx, &c) in rows.iter().enumerate().take(nrot) {
                                dot += h[(i, c)] * v[idx];
                            }
                            let sfac = 2.0 * dot / vnorm_sq;
                            for (idx, &c) in rows.iter().enumerate().take(nrot) {
                                h[(i, c)] -= sfac * v[idx];
                            }
                        }
                    }
                }
                // Next bulge column.
                x = h[(k + 1, k)];
                y = h[(k + 2, k)];
                z = if k + 3 < hi { h[(k + 3, k)] } else { 0.0 };
                if k > lo {
                    h[(k + 1, k - 1)] = 0.0;
                    h[(k + 2, k - 1)] = 0.0;
                    if k + 3 < hi {
                        h[(k + 3, k - 1)] = 0.0;
                    }
                }
            }
            // Final 2-element Givens to restore Hessenberg in the last column.
            let k = hi - 2;
            let (x, y) = (h[(k, k - 1)], h[(k + 1, k - 1)]);
            let r = x.hypot(y);
            if r > 1e-300 {
                let (c, sn) = (x / r, y / r);
                for j in (k - 1)..h.cols().min(hi.max(k + 2)) {
                    let (a1, a2) = (h[(k, j)], h[(k + 1, j)]);
                    h[(k, j)] = c * a1 + sn * a2;
                    h[(k + 1, j)] = -sn * a1 + c * a2;
                }
                for i in lo..hi {
                    let (a1, a2) = (h[(i, k)], h[(i, k + 1)]);
                    h[(i, k)] = c * a1 + sn * a2;
                    h[(i, k + 1)] = -sn * a1 + c * a2;
                }
            }
        }
        Ok(eigs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Test inputs for the bit-identity pins.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        /// Uniform entries in [-1, 1).
        Dense,
        /// About a third of the entries exactly zero.
        Sparse,
        /// Block upper-triangular `[A₁₁ A₁₂; Z A₂₂]` with `Z` all `zero`
        /// (`+0.0` or `-0.0`): the reduction skips the step of the last
        /// column of `A₁₁` (`norm < 1e-300`).
        ZeroBlock(f64),
        /// As `ZeroBlock(0.0)` but the last column of `Z` holds
        /// subnormals: skipped although not zero.
        TinyBlock,
        /// A Hamiltonian `[−S I; −S²−K S]` (`K ≻ 0`, `S = Sᵀ`), similar
        /// to `[0 I; −K 0]`: every eigenvalue is `±jω`.
        Hamiltonian,
    }

    const KINDS: [Kind; 6] = [
        Kind::Dense,
        Kind::Sparse,
        Kind::ZeroBlock(0.0),
        Kind::ZeroBlock(-0.0),
        Kind::TinyBlock,
        Kind::Hamiltonian,
    ];

    fn draw(rows: usize, cols: usize, rng: &mut StdRng, zeros: bool) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if !(zeros && rng.gen_range(0.0..1.0) < 0.33) {
                    m[(i, j)] = rng.gen_range(-1.0..1.0);
                }
            }
        }
        m
    }

    fn input(n: usize, seed: u64, kind: Kind) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            Kind::Dense => draw(n, n, &mut rng, false),
            Kind::Sparse => draw(n, n, &mut rng, true),
            Kind::ZeroBlock(_) | Kind::TinyBlock => {
                let mut a = draw(n, n, &mut rng, false);
                let c = rng.gen_range(0..n);
                for i in (c + 1)..n {
                    for j in 0..=c {
                        a[(i, j)] = match kind {
                            Kind::ZeroBlock(zero) => zero,
                            _ if j == c => 1e-310 * rng.gen_range(-1.0..1.0),
                            _ => 0.0,
                        };
                    }
                }
                a
            }
            Kind::Hamiltonian => {
                let half = (n / 2).max(1);
                let g = draw(half, half, &mut rng, false);
                let k = &(&g.t() * &g) + &Mat::identity(half).scale(0.1);
                let s = draw(half, half, &mut rng, false).symmetrize();
                let q = &(-&(&s * &s)) - &k;
                Mat::block2x2(&(-&s), &Mat::identity(half), &q, &s).unwrap()
            }
        }
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn eig_bits(e: &[C64]) -> Vec<(u64, u64)> {
        e.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn hessenberg_and_francis_match_index_loop_reference_bits(
            n in 1usize..=100,
            seed in 0u64..u64::MAX,
            kind in 0usize..KINDS.len(),
        ) {
            let a = input(n, seed, KINDS[kind]);
            let n = a.rows();
            let mut q_ref = Mat::identity(n);
            let h_ref = reference::hessenberg(&a, Some(&mut q_ref));
            let (h, q) = hessenberg_q(&a);
            prop_assert_eq!(bits(&h), bits(&h_ref));
            prop_assert_eq!(bits(&q), bits(&q_ref));
            prop_assert_eq!(bits(&hessenberg(&a)), bits(&reference::hessenberg(&a, None)));
            match (francis(h), reference::francis(h_ref)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(eig_bits(&got), eig_bits(&want)),
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }
    }

    #[test]
    fn bit_pin_inputs_reach_their_paths() {
        // The Hamiltonian input has its spectrum on the imaginary axis.
        let a = input(40, 3, Kind::Hamiltonian);
        let eigs = eigenvalues(&a).unwrap();
        assert!(eigs.iter().all(|e| e.re.abs() < 1e-6 * e.abs().max(1.0)));
        assert!(eigs.iter().all(|e| e.im.abs() > 1e-3));
        // The tiny block survives to its step as nonzero subnormals,
        // which the reduction skips, and still matches the reference.
        let a = input(37, 4, Kind::TinyBlock);
        assert!(a.as_slice().iter().any(|v| *v != 0.0 && v.abs() < 1e-300));
        assert_eq!(
            bits(&hessenberg(&a)),
            bits(&reference::hessenberg(&a, None))
        );
    }

    fn sorted_real(mut eigs: Vec<C64>) -> Vec<f64> {
        eigs.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        eigs.iter().map(|e| e.re).collect()
    }

    #[test]
    fn diagonal_matrix_eigs() {
        let a = Mat::diag(&[3.0, -1.0, 0.5]);
        let eigs = eigenvalues(&a).unwrap();
        let re = sorted_real(eigs.clone());
        assert!((re[0] + 1.0).abs() < 1e-12);
        assert!((re[1] - 0.5).abs() < 1e-12);
        assert!((re[2] - 3.0).abs() < 1e-12);
        assert!(eigs.iter().all(|e| e.im.abs() < 1e-12));
    }

    #[test]
    fn symmetric_matrix_real_eigs() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let re = sorted_real(eigenvalues(&a).unwrap());
        assert!((re[0] - 1.0).abs() < 1e-10);
        assert!((re[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn complex_pair() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[2.0, 1.0]]);
        let eigs = eigenvalues(&a).unwrap();
        for e in &eigs {
            assert!((e.re - 1.0).abs() < 1e-10);
            assert!((e.im.abs() - 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn companion_matrix_of_known_polynomial() {
        // x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        let a = Mat::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let re = sorted_real(eigenvalues(&a).unwrap());
        assert!((re[0] - 1.0).abs() < 1e-8);
        assert!((re[1] - 2.0).abs() < 1e-8);
        assert!((re[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn trace_and_det_invariants_random() {
        // Eigenvalue sum = trace, product = det, for a fixed pseudo-random matrix.
        let a = Mat::from_rows(&[
            &[0.2, -1.3, 0.7, 0.1],
            &[1.1, 0.4, -0.2, 0.9],
            &[-0.5, 0.8, 0.3, -1.0],
            &[0.6, -0.1, 1.2, -0.7],
        ]);
        let eigs = eigenvalues(&a).unwrap();
        let sum: C64 = eigs.iter().fold(C64::ZERO, |acc, &e| acc + e);
        assert!((sum.re - a.trace()).abs() < 1e-8);
        assert!(sum.im.abs() < 1e-8);
        let prod = eigs.iter().fold(C64::ONE, |acc, &e| acc * e);
        assert!((prod.re - a.det().unwrap()).abs() < 1e-8);
    }

    #[test]
    fn larger_matrix_20x20_converges() {
        // Deterministic pseudo-random 20x20; checks only invariants.
        let n = 20;
        let mut a = Mat::zeros(n, n);
        let mut seed = 42u64;
        for i in 0..n {
            for j in 0..n {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                a[(i, j)] = ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            }
        }
        let eigs = eigenvalues(&a).unwrap();
        assert_eq!(eigs.len(), n);
        let sum: C64 = eigs.iter().fold(C64::ZERO, |acc, &e| acc + e);
        assert!((sum.re - a.trace()).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_stable_system() {
        let a = Mat::from_rows(&[&[0.5, 0.1], &[0.0, -0.3]]);
        let r = spectral_radius(&a).unwrap();
        assert!((r - 0.5).abs() < 1e-10);
    }

    #[test]
    fn max_real_part_continuous() {
        let a = Mat::from_rows(&[&[-1.0, 5.0], &[0.0, -2.0]]);
        assert!((max_real_part(&a).unwrap() + 1.0).abs() < 1e-10);
    }

    #[test]
    fn hessenberg_preserves_eigenvalues_structure() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &[9.0, 1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0, 7.0],
        ]);
        let h = hessenberg(&a);
        // Zero below first subdiagonal.
        for i in 2..4 {
            for j in 0..(i - 1) {
                assert!(h[(i, j)].abs() < 1e-12);
            }
        }
        // Similarity preserves trace.
        assert!((h.trace() - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn hessenberg_q_reconstructs() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &[9.0, 1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0, 7.0],
        ]);
        let (h, q) = hessenberg_q(&a);
        // Q orthogonal.
        assert!((&q.t() * &q).approx_eq(&Mat::identity(4), 1e-12));
        // A = Q H Qᵀ.
        let recon = &(&q * &h) * &q.t();
        assert!(recon.approx_eq(&a, 1e-10));
        // H matches the plain reduction.
        assert!(h.approx_eq(&hessenberg(&a), 1e-12));
    }

    #[test]
    fn empty_matrix() {
        assert!(eigenvalues(&Mat::zeros(0, 0)).unwrap().is_empty());
    }

    #[test]
    fn one_by_one() {
        let eigs = eigenvalues(&Mat::filled(1, 1, 7.0)).unwrap();
        assert_eq!(eigs.len(), 1);
        assert!((eigs[0].re - 7.0).abs() < 1e-15);
    }
}
