//! Largest singular values of complex matrices: closed forms for vectors
//! and rank-2 Gram matrices, power iteration otherwise.
//!
//! `sigma_max` on complex frequency responses is the inner loop of the
//! structured-singular-value upper bound, so it gets a dedicated fast path.

#[cfg(target_arch = "x86_64")]
use crate::cmat::mul_lanes;
use crate::{C64, CMat};

/// Largest singular value of a complex matrix.
///
/// Shapes with a rank-2-or-less Gram matrix — vectors and anything with
/// two rows or two columns — are solved in closed form (exact up to
/// rounding, allocation-free). This matters because SSV frequency sweeps
/// call `sigma_max` on small response matrices hundreds of times per
/// grid point inside the D-scaling optimization. Larger matrices fall
/// back to the iterative [`sigma_max_power`].
///
/// # Examples
///
/// ```
/// use yukta_linalg::{C64, CMat, svd::sigma_max};
///
/// let mut a = CMat::zeros(2, 2);
/// a.set(0, 0, C64::new(0.0, 3.0));
/// a.set(1, 1, C64::real(1.0));
/// assert!((sigma_max(&a) - 3.0).abs() < 1e-9);
/// ```
pub fn sigma_max(a: &CMat) -> f64 {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return 0.0;
    }
    // A vector's largest singular value is its 2-norm.
    if m == 1 || n == 1 {
        return a.fro_norm();
    }
    // With two rows (columns), the Gram matrix A·Aᴴ (AᴴA) is Hermitian
    // 2×2; σ₁² is its largest eigenvalue, available in closed form.
    if m == 2 || n == 2 {
        let (mut g00, mut g11) = (0.0f64, 0.0f64);
        let mut g01 = C64::ZERO;
        if m == 2 {
            for j in 0..n {
                let (x, y) = (a.get(0, j), a.get(1, j));
                g00 += x.abs_sq();
                g11 += y.abs_sq();
                g01 += x * y.conj();
            }
        } else {
            for i in 0..m {
                let (x, y) = (a.get(i, 0), a.get(i, 1));
                g00 += x.abs_sq();
                g11 += y.abs_sq();
                g01 += x.conj() * y;
            }
        }
        return gram2_sigma(g00, g11, g01.abs_sq());
    }
    sigma_max_power(a)
}

/// σ₁ of a Hermitian 2×2 Gram matrix `[[g00, g01], [ḡ01, g11]]` given
/// `|g01|²`: the square root of its largest eigenvalue.
fn gram2_sigma(g00: f64, g11: f64, g01_abs_sq: f64) -> f64 {
    let mid = 0.5 * (g00 + g11);
    let half_gap = 0.5 * (g00 - g11);
    let disc = (half_gap * half_gap + g01_abs_sq).sqrt();
    (mid + disc).max(0.0).sqrt()
}

/// Largest singular value of `diag(row_w) · A · diag(col_w)` without
/// materializing the scaled matrix — the D-apply and the σ̄ reduction are
/// fused into one pass over `A`.
///
/// This is the inner evaluation of the µ D-scaling search: the weights are
/// the (strictly positive) per-row and per-column expansions of a
/// block-diagonal scaling, and the search evaluates dozens of candidate
/// weight vectors against the *same* response matrix. The fused form does
/// no allocation for the closed-form shapes (vectors and rank-2 Grams,
/// i.e. every `two_1x1` sweep); general shapes scale into the caller's
/// `scratch` (resized only on shape change) and fall back to
/// [`sigma_max_power`].
///
/// # Panics
///
/// Debug-asserts `row_w.len() == m` and `col_w.len() == n`.
pub fn sigma_max_scaled(a: &CMat, row_w: &[f64], col_w: &[f64], scratch: &mut CMat) -> f64 {
    let (m, n) = a.shape();
    debug_assert_eq!(row_w.len(), m);
    debug_assert_eq!(col_w.len(), n);
    if m == 0 || n == 0 {
        return 0.0;
    }
    if m == 1 {
        let mut acc = 0.0f64;
        for (z, &w) in a.as_slice().iter().zip(col_w) {
            acc += (w * w) * z.abs_sq();
        }
        return row_w[0] * acc.sqrt();
    }
    if n == 1 {
        let mut acc = 0.0f64;
        for (z, &w) in a.as_slice().iter().zip(row_w) {
            acc += (w * w) * z.abs_sq();
        }
        return col_w[0] * acc.sqrt();
    }
    if m == 2 {
        // Row weights factor out of the Gram sums; only the column
        // weights ride along inside the reduction.
        let (mut g00, mut g11) = (0.0f64, 0.0f64);
        let mut g01 = C64::ZERO;
        for (j, &cw) in col_w.iter().enumerate().take(n) {
            let w = cw * cw;
            let (x, y) = (a.get(0, j), a.get(1, j));
            g00 += w * x.abs_sq();
            g11 += w * y.abs_sq();
            g01 += (x * y.conj()) * w;
        }
        let (r0, r1) = (row_w[0], row_w[1]);
        return gram2_sigma(
            r0 * r0 * g00,
            r1 * r1 * g11,
            (r0 * r1) * (r0 * r1) * g01.abs_sq(),
        );
    }
    if n == 2 {
        let (mut g00, mut g11) = (0.0f64, 0.0f64);
        let mut g01 = C64::ZERO;
        for (i, &rw) in row_w.iter().enumerate().take(m) {
            let w = rw * rw;
            let (x, y) = (a.get(i, 0), a.get(i, 1));
            g00 += w * x.abs_sq();
            g11 += w * y.abs_sq();
            g01 += (x.conj() * y) * w;
        }
        let (c0, c1) = (col_w[0], col_w[1]);
        return gram2_sigma(
            c0 * c0 * g00,
            c1 * c1 * g11,
            (c0 * c1) * (c0 * c1) * g01.abs_sq(),
        );
    }
    scale_into(a, row_w, col_w, scratch);
    sigma_max_power(scratch)
}

/// Writes `diag(row_w) · A · diag(col_w)` into `scratch`, reallocating
/// only when the shape changes.
fn scale_into(a: &CMat, row_w: &[f64], col_w: &[f64], scratch: &mut CMat) {
    let (m, n) = a.shape();
    if scratch.shape() != (m, n) {
        *scratch = CMat::zeros(m, n);
    }
    for (i, &r) in row_w.iter().enumerate().take(m) {
        for (j, &c) in col_w.iter().enumerate().take(n) {
            scratch.set(i, j, a.get(i, j) * (r * c));
        }
    }
}

/// Largest singular value via power iteration on `AᴴA`, with
/// deterministic multi-start to avoid orthogonal-start stalls. This is
/// the general-shape workhorse behind [`sigma_max`] and the iterative
/// reference its closed-form small-shape paths are tested against.
///
/// Each start iterates `x ← AᴴA·x/‖AᴴA·x‖` and reads the estimate
/// `‖A·x‖/‖x‖`. A start stops when the estimate changes by at most 1e-12
/// relative between two steps, or after 200 steps; the result is the
/// larger of the two starts' last estimates. There is no residual check
/// and no safety margin: `‖A·x‖/‖x‖ ≤ σ̄(A)` for every `x`, so the result
/// can only underestimate σ̄. It is accurate to ~1e-10 relative when the
/// two leading singular values are well separated; when they are close,
/// the iteration converges slowly and stops low. A µ upper bound built
/// on it can therefore sit slightly below the true bound at the final
/// scalings.
///
/// The two starts run in lockstep, so each pass over `A` serves both
/// until one stops; each start still performs exactly the operations it
/// would alone. The iteration allocates one buffer per call and reuses
/// it for every step. Each output element of `A·x` and `Aᴴ·y` sums its
/// terms in index order from zero, as [`CMat::matvec`] on `A` and on
/// `Aᴴ` would; on hosts with AVX2 the products run on complex lanes
/// (two rows, or two columns, per 256-bit register) and give the same
/// bits as the portable loops.
pub fn sigma_max_power(a: &CMat) -> f64 {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return 0.0;
    }
    // Deterministic start seeded from the matrix itself: x₀ = Aᴴ eᵣ (the
    // conjugated largest-2-norm row). A data-independent start such as a
    // fixed ones-vector can be made exactly orthogonal to the leading
    // right-singular subspace by an adversarial fixture, in which case the
    // 1e-12 early-convergence break latches onto a smaller singular value
    // before rounding contamination can pull the iterate back; Aᴴeᵣ can
    // only be orthogonal to that subspace if the row itself is.
    let mut seed_row = 0usize;
    let mut seed_norm = -1.0f64;
    for i in 0..m {
        let norm: f64 = (0..n).map(|j| a.get(i, j).abs_sq()).sum();
        if norm > seed_norm {
            seed_norm = norm;
            seed_row = i;
        }
    }
    if seed_norm <= 0.0 {
        return 0.0;
    }
    let data = a.as_slice();
    let mut buf = vec![C64::ZERO; 4 * n + 2 * m];
    let (x0, rest) = buf.split_at_mut(n);
    let (x1, rest) = rest.split_at_mut(n);
    let (z0, rest) = rest.split_at_mut(n);
    let (z1, rest) = rest.split_at_mut(n);
    let (y0, y1) = rest.split_at_mut(m);
    // Two deterministic starts: matrix-seeded, and alternating-phase.
    for (j, (x0j, x1j)) in x0.iter_mut().zip(x1.iter_mut()).enumerate() {
        *x0j = a.get(seed_row, j).conj();
        *x1j = C64::cis(1.7 * j as f64 + 0.3);
    }
    let mut prev = [0.0f64; 2];
    let mut live = [true; 2];
    for _ in 0..200 {
        // y = A x ; z = Aᴴ y for every live start.
        match live {
            [true, true] => products(
                data,
                n,
                [&*x0, &*x1],
                [&mut *y0, &mut *y1],
                [&mut *z0, &mut *z1],
            ),
            [true, false] => products(data, n, [&*x0], [&mut *y0], [&mut *z0]),
            [false, true] => products(data, n, [&*x1], [&mut *y1], [&mut *z1]),
            [false, false] => break,
        }
        if live[0] {
            live[0] = advance(x0, y0, z0, &mut prev[0]);
        }
        if live[1] {
            live[1] = advance(x1, y1, z1, &mut prev[1]);
        }
    }
    0.0f64.max(prev[0]).max(prev[1])
}

/// One step of a start after its products: reads the estimate
/// `‖y‖/‖x‖` into `prev` and renormalizes `x ← z/‖z‖`. Returns whether
/// the start goes on: it stops on a vanishing `x` or `z` (keeping the
/// previous estimate) and when the estimate has converged.
fn advance(x: &mut [C64], y: &[C64], z: &[C64], prev: &mut f64) -> bool {
    let xn: f64 = x.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
    let yn: f64 = y.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
    if xn < 1e-300 {
        return false;
    }
    let est = yn / xn;
    let zn: f64 = z.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
    if zn < 1e-300 {
        return false;
    }
    for (xj, &zj) in x.iter_mut().zip(z) {
        *xj = zj * (1.0 / zn);
    }
    let converged = (est - *prev).abs() <= 1e-12 * est.max(1e-300);
    *prev = est;
    !converged
}

/// `yₛ = A·xₛ`, then `zₛ = Aᴴ·yₛ`, for each of the `S` starts. On hosts
/// with AVX2 each product is one pass over `A` for all the starts
/// ([`mul_avx2`], [`mul_h_avx2`]); otherwise the portable [`mul_into`]
/// and [`mul_h_into`] run once per start. Both give the same bits.
fn products<const S: usize>(
    a: &[C64],
    n: usize,
    x: [&[C64]; S],
    y: [&mut [C64]; S],
    z: [&mut [C64]; S],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let mut y = y;
        assert!(x.iter().all(|v| v.len() == n) && z.iter().all(|v| v.len() == n));
        assert!(y.iter().all(|v| a.len() == v.len() * n));
        // SAFETY: AVX2 was detected on this host; every `x`/`z` holds `n`
        // values and `A` holds `n` per element of every `y`, asserted
        // above.
        unsafe {
            mul_avx2(a, n, x, y.each_mut().map(|v| &mut **v));
            mul_h_avx2(a, n, y.map(|v| &*v), z);
        }
        return;
    }
    for ((x, y), z) in x.into_iter().zip(y).zip(z) {
        mul_into(a, n, x, y);
        mul_h_into(a, n, y, z);
    }
}

/// `y = A·x` for a row-major `A` with `n` columns, four rows per pass
/// over `x`. Each `yᵢ` starts from zero and adds `aᵢⱼ·xⱼ` for `j = 0, 1, …`.
fn mul_into(a: &[C64], n: usize, x: &[C64], y: &mut [C64]) {
    let mut rows = a.chunks_exact(4 * n);
    let mut out = y.chunks_exact_mut(4);
    for (quad, yq) in (&mut rows).zip(&mut out) {
        let (r0, rest) = quad.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let mut acc = [C64::ZERO; 4];
        for ((((&a0, &a1), &a2), &a3), &xj) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
            acc[0] += a0 * xj;
            acc[1] += a1 * xj;
            acc[2] += a2 * xj;
            acc[3] += a3 * xj;
        }
        yq.copy_from_slice(&acc);
    }
    for (row, yi) in rows.remainder().chunks_exact(n).zip(out.into_remainder()) {
        *yi = dot_row(row, x);
    }
}

/// `Σⱼ aⱼ·xⱼ` from zero in index order: one element of [`mul_into`].
fn dot_row(row: &[C64], x: &[C64]) -> C64 {
    let mut acc = C64::ZERO;
    for (&aij, &xj) in row.iter().zip(x) {
        acc += aij * xj;
    }
    acc
}

/// `z = Aᴴ·y` for a row-major `A` with `n` columns, one row of `A` at a
/// time into every `zⱼ`. Each `zⱼ` starts from zero and adds `āᵢⱼ·yᵢ`
/// for `i = 0, 1, …`.
fn mul_h_into(a: &[C64], n: usize, y: &[C64], z: &mut [C64]) {
    z.fill(C64::ZERO);
    for (row, &yi) in a.chunks_exact(n).zip(y) {
        for (zj, &aij) in z.iter_mut().zip(row) {
            *zj += aij.conj() * yi;
        }
    }
}

/// The AVX2 form of [`mul_into`] for `S` starts at once: each register
/// holds one element of a row pair (`aᵢⱼ`, `aᵢ₊₁ⱼ`) and its two partial
/// sums, four rows per pass, so each element of `A` is loaded once for
/// all the starts. Every `yᵢ` gets [`dot_row`]'s terms in its order, so
/// the bits are the same as the scalar loop's; an odd last row runs
/// [`dot_row`] itself.
///
/// # Safety
///
/// Caller must guarantee AVX2, `x[s].len() >= n` and
/// `a.len() >= y[s].len()·n` for every start `s`, and equal lengths of
/// all the `y[s]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2<const S: usize>(a: &[C64], n: usize, x: [&[C64]; S], mut y: [&mut [C64]; S]) {
    let m = y.first().map_or(0, |v| v.len());
    let mut i = 0;
    while i + 4 <= m {
        mul_rows_avx2::<2, S>(a, n, i, &x, &mut y);
        i += 4;
    }
    if i + 2 <= m {
        mul_rows_avx2::<1, S>(a, n, i, &x, &mut y);
        i += 2;
    }
    if i < m {
        for (xs, ys) in x.iter().zip(y) {
            ys[i] = dot_row(&a[i * n..(i + 1) * n], xs);
        }
    }
}

/// Rows `i .. i + 2P` of [`mul_avx2`]: `P` row pairs, one register per
/// pair and start.
///
/// # Safety
///
/// As [`mul_avx2`], with `i + 2P <= y[s].len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mul_rows_avx2<const P: usize, const S: usize>(
    a: &[C64],
    n: usize,
    i: usize,
    x: &[&[C64]; S],
    y: &mut [&mut [C64]; S],
) {
    use core::arch::x86_64::*;

    let ap = a.as_ptr().cast::<f64>();
    let mut acc = [[_mm256_setzero_pd(); P]; S];
    for j in 0..n {
        let mut pair = [_mm256_setzero_pd(); P];
        for (p, v) in pair.iter_mut().enumerate() {
            let lo = ap.add(2 * ((i + 2 * p) * n + j));
            let hi = lo.add(2 * n);
            *v = _mm256_insertf128_pd::<1>(
                _mm256_castpd128_pd256(_mm_loadu_pd(lo)),
                _mm_loadu_pd(hi),
            );
        }
        for (acc_s, xs) in acc.iter_mut().zip(x) {
            let xj = xs.as_ptr().add(j).cast::<f64>();
            let re = _mm256_broadcast_sd(&*xj);
            let im = _mm256_broadcast_sd(&*xj.add(1));
            for (acc_p, &v) in acc_s.iter_mut().zip(&pair) {
                *acc_p = _mm256_add_pd(*acc_p, mul_lanes(v, re, im));
            }
        }
    }
    for (acc_s, ys) in acc.iter().zip(y.iter_mut()) {
        let out = ys.as_mut_ptr().add(i).cast::<f64>();
        for (p, &v) in acc_s.iter().enumerate() {
            _mm256_storeu_pd(out.add(4 * p), v);
        }
    }
}

/// The AVX2 form of [`mul_h_into`] for `S` starts at once: each register
/// holds a column pair (`aᵢⱼ`, `aᵢⱼ₊₁`) of one row, conjugated by a sign
/// flip (exact), and the two partial sums, four columns per pass down
/// all the rows. Every `zⱼ` starts from zero and gets the scalar loop's
/// terms in its order, so the bits are the same; an odd last column runs
/// the scalar terms itself.
///
/// # Safety
///
/// Caller must guarantee AVX2, `z[s].len() == n` and
/// `a.len() >= y[s].len()·n` for every start `s`, and equal lengths of
/// all the `y[s]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_h_avx2<const S: usize>(a: &[C64], n: usize, y: [&[C64]; S], mut z: [&mut [C64]; S]) {
    let mut j = 0;
    while j + 4 <= n {
        mul_h_cols_avx2::<2, S>(a, n, j, &y, &mut z);
        j += 4;
    }
    if j + 2 <= n {
        mul_h_cols_avx2::<1, S>(a, n, j, &y, &mut z);
        j += 2;
    }
    if j < n {
        for (ys, zs) in y.iter().zip(z) {
            let mut acc = C64::ZERO;
            for (row, &yi) in a.chunks_exact(n).zip(*ys) {
                acc += row[j].conj() * yi;
            }
            zs[j] = acc;
        }
    }
}

/// Columns `j .. j + 2P` of [`mul_h_avx2`]: `P` column pairs, one
/// register per pair and start.
///
/// # Safety
///
/// As [`mul_h_avx2`], with `j + 2P <= n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mul_h_cols_avx2<const P: usize, const S: usize>(
    a: &[C64],
    n: usize,
    j: usize,
    y: &[&[C64]; S],
    z: &mut [&mut [C64]; S],
) {
    use core::arch::x86_64::*;

    let m = y.first().map_or(0, |v| v.len());
    let ap = a.as_ptr().cast::<f64>();
    let conj = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
    let mut acc = [[_mm256_setzero_pd(); P]; S];
    for i in 0..m {
        let mut pair = [_mm256_setzero_pd(); P];
        for (p, v) in pair.iter_mut().enumerate() {
            let row = ap.add(2 * (i * n + j + 2 * p));
            *v = _mm256_xor_pd(_mm256_loadu_pd(row), conj);
        }
        for (acc_s, ys) in acc.iter_mut().zip(y) {
            let yi = ys.as_ptr().add(i).cast::<f64>();
            let re = _mm256_broadcast_sd(&*yi);
            let im = _mm256_broadcast_sd(&*yi.add(1));
            for (acc_p, &v) in acc_s.iter_mut().zip(&pair) {
                *acc_p = _mm256_add_pd(*acc_p, mul_lanes(v, re, im));
            }
        }
    }
    for (acc_s, zs) in acc.iter().zip(z.iter_mut()) {
        let out = zs.as_mut_ptr().add(j).cast::<f64>();
        for (p, &v) in acc_s.iter().enumerate() {
            _mm256_storeu_pd(out.add(4 * p), v);
        }
    }
}

/// The power iteration [`sigma_max_power`] replaced, allocating its
/// products every step, kept as the reference the buffered kernel is
/// pinned to bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::{C64, CMat};

    pub(crate) fn sigma_max_power(a: &CMat) -> f64 {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return 0.0;
        }
        let ah = a.h();
        let mut seed_row = 0usize;
        let mut seed_norm = -1.0f64;
        for i in 0..m {
            let norm: f64 = (0..n).map(|j| a.get(i, j).abs_sq()).sum();
            if norm > seed_norm {
                seed_norm = norm;
                seed_row = i;
            }
        }
        if seed_norm <= 0.0 {
            return 0.0;
        }
        let mut best = 0.0f64;
        for start in 0..2 {
            let mut x: Vec<C64> = (0..n)
                .map(|j| {
                    if start == 0 {
                        a.get(seed_row, j).conj()
                    } else {
                        C64::cis(1.7 * j as f64 + 0.3)
                    }
                })
                .collect();
            let mut prev = 0.0f64;
            for _ in 0..200 {
                let y = a.matvec(&x).expect("shape checked");
                let z = ah.matvec(&y).expect("shape checked");
                let xn: f64 = x.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
                let yn: f64 = y.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
                if xn < 1e-300 {
                    break;
                }
                let est = yn / xn;
                let zn: f64 = z.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
                if zn < 1e-300 {
                    break;
                }
                x = z.iter().map(|&v| v * (1.0 / zn)).collect();
                if (est - prev).abs() <= 1e-12 * est.max(1e-300) {
                    prev = est;
                    break;
                }
                prev = est;
            }
            best = best.max(prev);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;
    use crate::cmat::lane_inputs::{lane_bits, values};
    use crate::symeig::symmetric_eigen;
    use proptest::prelude::*;

    #[test]
    fn complex_sigma_max_matches_real_case() {
        let r = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let c = CMat::from_real(&r);
        // σ̄(R) = √λmax(RᵀR).
        let s_real = symmetric_eigen(&(&r.t() * &r)).unwrap().values[0].sqrt();
        assert!((sigma_max(&c) - s_real).abs() < 1e-8);
    }

    #[test]
    fn complex_sigma_max_unitary_invariance() {
        // Multiplying by a diagonal unitary leaves singular values unchanged.
        let r = Mat::from_rows(&[&[2.0, -1.0], &[0.5, 1.5]]);
        let c = CMat::from_real(&r);
        let mut d = CMat::zeros(2, 2);
        d.set(0, 0, C64::cis(0.9));
        d.set(1, 1, C64::cis(-2.1));
        let dc = d.matmul(&c).unwrap();
        assert!((sigma_max(&dc) - sigma_max(&c)).abs() < 1e-8);
    }

    #[test]
    fn sigma_max_zero_matrix() {
        assert_eq!(sigma_max(&CMat::zeros(3, 3)), 0.0);
        assert_eq!(sigma_max(&CMat::zeros(0, 0)), 0.0);
    }

    #[test]
    fn closed_form_matches_power_iteration() {
        // Every closed-form shape class, pseudo-random entries.
        let mut s = 11u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for &(m, n) in &[(1, 1), (1, 6), (5, 1), (2, 2), (2, 9), (7, 2)] {
            for _ in 0..20 {
                let mut a = CMat::zeros(m, n);
                for i in 0..m {
                    for j in 0..n {
                        a.set(i, j, C64::new(next(), next()));
                    }
                }
                let exact = sigma_max(&a);
                let iterative = sigma_max_power(&a);
                assert!(
                    (exact - iterative).abs() < 1e-8 * exact.max(1.0),
                    "({m},{n}): closed form {exact} vs power {iterative}"
                );
            }
        }
    }

    #[test]
    fn power_iteration_escapes_adversarial_orthogonal_starts() {
        // Rank-2 matrix with σ₁ = 1, σ₂ = 0.1 whose leading right-singular
        // vector is orthogonal to BOTH data-independent starts a fixed
        // multi-start scheme would use (the ones-vector and the
        // alternating-phase vector). A ones-vector start then sits exactly
        // on the σ₂ eigenvector of AᴴA, the 1e-12 early-convergence break
        // fires before rounding contamination can rotate the iterate, and
        // the result stalls at ≈ 0.1. The matrix-seeded start (conjugated
        // dominant row = the leading right-singular vector itself)
        // recovers σ₁ = 1.
        fn dot(u: &[C64], w: &[C64]) -> C64 {
            u.iter()
                .zip(w)
                .fold(C64::ZERO, |s, (a, b)| s + a.conj() * *b)
        }
        fn normalize(u: &[C64]) -> Vec<C64> {
            let norm = u.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt();
            u.iter().map(|&v| v * (1.0 / norm)).collect()
        }
        fn orth(u: &[C64], basis: &[Vec<C64>]) -> Vec<C64> {
            let mut out = u.to_vec();
            for b in basis {
                let c = dot(b, &out);
                for (o, &bv) in out.iter_mut().zip(b) {
                    *o = *o - c * bv;
                }
            }
            out
        }

        let n = 4;
        let s0: Vec<C64> = vec![C64::ONE; n];
        let s1: Vec<C64> = (0..n).map(|j| C64::cis(1.7 * j as f64 + 0.3)).collect();
        let w: Vec<C64> = vec![
            C64::new(1.0, 0.0),
            C64::new(0.0, 2.0),
            C64::new(-1.0, 0.5),
            C64::new(3.0, 0.0),
        ];
        let mut basis = vec![normalize(&s0)];
        basis.push(normalize(&orth(&s1, &basis)));
        let v1 = normalize(&orth(&w, &basis));
        assert!(dot(&s0, &v1).abs() < 1e-12 && dot(&s1, &v1).abs() < 1e-12);
        let v2 = normalize(&s0);
        // A = u₁ v₁ᴴ + 0.1 u₂ v₂ᴴ with u₁ = e₀, u₂ = e₁.
        let mut a = CMat::zeros(n, n);
        for j in 0..n {
            a.set(0, j, v1[j].conj());
            a.set(1, j, v2[j].conj() * 0.1);
        }
        let got = sigma_max_power(&a);
        assert!(
            (got - 1.0).abs() < 1e-6,
            "power iteration stalled below σ₁: got {got}"
        );
    }

    /// How a σ̄ kernel input is shaped beyond its random draw.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// The draw as is.
        Plain,
        /// Two dominant diagonal entries 1e-9 apart over 1e-3 noise:
        /// near-equal top singular values, the slow case.
        NearTie,
        /// Some rows zeroed (all of them when the draw says so).
        ZeroRows,
        /// One entry NaN or ±∞.
        NonFinite,
    }

    fn kernel_input(m: usize, n: usize, seed: u64, shape: Shape) -> CMat {
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = CMat::zeros(m, n);
        let noise = if matches!(shape, Shape::NearTie) {
            2e-3
        } else {
            2.0
        };
        for i in 0..m {
            for j in 0..n {
                a.set(i, j, C64::new(next() * noise, next() * noise));
            }
        }
        match shape {
            Shape::Plain => {}
            Shape::NearTie => {
                a.set(0, 0, a.get(0, 0) + C64::real(1.0));
                a.set(1, 1, a.get(1, 1) + C64::new(0.0, 1.0 + 1e-9));
            }
            Shape::ZeroRows => {
                let every = 1 + ((next() + 0.5) * 4.0) as usize;
                for i in (0..m).step_by(every) {
                    for j in 0..n {
                        a.set(i, j, C64::ZERO);
                    }
                }
            }
            Shape::NonFinite => {
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                let mut draw = |k: usize| ((next() + 0.5) * k as f64) as usize % k;
                let (pick, i, j) = (draw(3), draw(m), draw(n));
                a.set(i, j, C64::new(bad[pick], 0.5));
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The buffered σ̄ kernel gives the old allocating loop's bits on
        /// every general shape up to 24×24, the deployed HW µ shape
        /// (12×18) included, and on near-ties, zero rows and non-finite
        /// entries.
        #[test]
        fn power_kernel_matches_allocating_reference_bits(
            m in 3usize..=24,
            n in 3usize..=24,
            hw in 0u32..4,
            seed in 0u64..u64::MAX,
            shape in 0u32..4,
        ) {
            let (m, n) = if hw == 0 { (12, 18) } else { (m, n) };
            let shape = [Shape::Plain, Shape::NearTie, Shape::ZeroRows, Shape::NonFinite][shape as usize];
            let a = kernel_input(m, n, seed, shape);
            prop_assert_eq!(sigma_max_power(&a).to_bits(), reference::sigma_max_power(&a).to_bits());
        }
    }

    /// Both AVX2 products give the portable loops' bits, for one start
    /// and for two in lockstep: every shape up to 9×9 (odd `n`, `m < 4`,
    /// `m % 4 ≠ 0`, single rows and columns), the HW (12×18) and OS
    /// (9×17) µ shapes and two larger ones, with plain entries and with
    /// NaN, ±∞, ±0 and subnormal entries.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_power_kernels_match_scalar_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let shapes = (1..=9).flat_map(|m| (1..=9).map(move |n| (m, n))).chain([
            (12, 18),
            (9, 17),
            (13, 7),
            (24, 23),
        ]);
        for (k, (m, n)) in shapes.enumerate() {
            for special_every in [0, 5, 23] {
                let seed = 0x51_6a + 7919 * k as u64 + special_every;
                let a = values(m * n, seed, special_every);
                let x = [
                    values(n, seed ^ 0xa1, special_every),
                    values(n, seed ^ 0xb2, special_every),
                ];
                let y = [
                    values(m, seed ^ 0xc3, special_every),
                    values(m, seed ^ 0xd4, special_every),
                ];
                let mut want = [vec![C64::ZERO; m], vec![C64::ZERO; m]];
                let mut want_h = [vec![C64::ZERO; n], vec![C64::ZERO; n]];
                for s in 0..2 {
                    mul_into(&a, n, &x[s], &mut want[s]);
                    mul_h_into(&a, n, &y[s], &mut want_h[s]);
                }
                let mut one = vec![C64::ONE; m];
                let mut one_h = vec![C64::ONE; n];
                let [mut g0, mut g1] = [vec![C64::ONE; m], vec![C64::ONE; m]];
                let [mut h0, mut h1] = [vec![C64::ONE; n], vec![C64::ONE; n]];
                // SAFETY: AVX2 was detected above; every `x`/`z` holds `n`
                // values, every `y` holds `m` and `A` holds `m·n`.
                unsafe {
                    mul_avx2(&a, n, [&x[1]], [&mut one]);
                    mul_h_avx2(&a, n, [&y[1]], [&mut one_h]);
                    mul_avx2(&a, n, [&x[0], &x[1]], [&mut g0, &mut g1]);
                    mul_h_avx2(&a, n, [&y[0], &y[1]], [&mut h0, &mut h1]);
                }
                let case = format!("{m}×{n}, specials every {special_every}");
                assert_eq!(lane_bits(&one), lane_bits(&want[1]), "A·x, {case}");
                assert_eq!(lane_bits(&one_h), lane_bits(&want_h[1]), "Aᴴ·y, {case}");
                assert_eq!(lane_bits(&g0), lane_bits(&want[0]), "A·x₀, {case}");
                assert_eq!(lane_bits(&g1), lane_bits(&want[1]), "A·x₁, {case}");
                assert_eq!(lane_bits(&h0), lane_bits(&want_h[0]), "Aᴴ·y₀, {case}");
                assert_eq!(lane_bits(&h1), lane_bits(&want_h[1]), "Aᴴ·y₁, {case}");
            }
        }
    }

    /// Lockstep with one start stopping early: the matrix-seeded start
    /// sits on an exact singular vector (σ = 1, the largest-norm row)
    /// and stops after two steps; the alternating-phase start climbs a
    /// near-tie (σ₁/σ₂ = 1 + 1e-4, σ₁ ≈ 1.21) whose estimate still moves
    /// by ~1e-5 per step at step 200, so it runs to the cap alone. The
    /// result is the second start's, with the sequential loop's bits.
    #[test]
    fn lockstep_start_stopping_early_keeps_reference_bits() {
        let mut a = CMat::zeros(7, 3);
        a.set(0, 0, C64::real(1.0));
        for i in 1..7 {
            if i % 2 == 1 {
                a.set(i, 1, C64::new(0.0, 0.7));
            } else {
                a.set(i, 2, C64::real(0.7 * (1.0 - 1e-4)));
            }
        }
        let sigma_1 = 0.7 * 3f64.sqrt();
        let got = sigma_max_power(&a);
        assert_eq!(got.to_bits(), reference::sigma_max_power(&a).to_bits());
        assert!(got > 1.2, "the slow start's estimate is the result: {got}");
        assert!(
            sigma_1 - got > 1e-9,
            "the slow start converged before the cap: {got} vs σ₁ {sigma_1}"
        );
    }

    #[test]
    fn power_iteration_zero_matrix() {
        assert_eq!(sigma_max_power(&CMat::zeros(4, 5)), 0.0);
    }

    #[test]
    fn closed_form_known_values() {
        // Column vector: 2-norm.
        let mut v = CMat::zeros(3, 1);
        v.set(0, 0, C64::real(3.0));
        v.set(2, 0, C64::new(0.0, 4.0));
        assert!((sigma_max(&v) - 5.0).abs() < 1e-14);
        // 2×2 diagonal.
        let mut d = CMat::zeros(2, 2);
        d.set(0, 0, C64::real(-7.0));
        d.set(1, 1, C64::new(0.0, 2.0));
        assert!((sigma_max(&d) - 7.0).abs() < 1e-14);
    }

    /// Reference: materialize `diag(row_w)·A·diag(col_w)` and take the
    /// plain σ̄.
    fn scaled_reference(a: &CMat, row_w: &[f64], col_w: &[f64]) -> f64 {
        let (m, n) = a.shape();
        let mut s = CMat::zeros(m, n);
        for (i, &rw) in row_w.iter().enumerate() {
            for (j, &cw) in col_w.iter().enumerate() {
                s.set(i, j, a.get(i, j) * (rw * cw));
            }
        }
        sigma_max(&s)
    }

    #[test]
    fn fused_scaled_sigma_matches_materialized_scaling() {
        let mut state = 0x5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut scratch = CMat::zeros(1, 1);
        for &(m, n) in &[
            (1usize, 1usize),
            (1, 7),
            (6, 1),
            (2, 2),
            (2, 9),
            (8, 2),
            (5, 5),
        ] {
            for _ in 0..8 {
                let mut a = CMat::zeros(m, n);
                for i in 0..m {
                    for j in 0..n {
                        a.set(i, j, C64::new(next(), next()));
                    }
                }
                let row_w: Vec<f64> = (0..m).map(|_| (2.0 * next()).exp()).collect();
                let col_w: Vec<f64> = (0..n).map(|_| (2.0 * next()).exp()).collect();
                let want = scaled_reference(&a, &row_w, &col_w);
                let got = sigma_max_scaled(&a, &row_w, &col_w, &mut scratch);
                assert!(
                    (want - got).abs() <= 1e-10 * want.max(1.0),
                    "({m},{n}): {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn fused_scaled_sigma_with_unit_weights_matches_sigma_max() {
        let mut a = CMat::zeros(2, 4);
        for j in 0..4 {
            a.set(0, j, C64::new(j as f64 + 0.5, -(j as f64)));
            a.set(1, j, C64::new(1.0 - j as f64, 0.25 * j as f64));
        }
        let ones_r = [1.0, 1.0];
        let ones_c = [1.0; 4];
        let mut scratch = CMat::zeros(1, 1);
        let got = sigma_max_scaled(&a, &ones_r, &ones_c, &mut scratch);
        assert!((got - sigma_max(&a)).abs() < 1e-13);
    }

    #[test]
    fn scratch_reshapes_across_general_shapes() {
        let mut scratch = CMat::zeros(1, 1);
        for &(m, n) in &[(4usize, 5usize), (6, 3), (4, 5)] {
            let mut a = CMat::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    a.set(i, j, C64::new((i + 2 * j) as f64, (i as f64) - (j as f64)));
                }
            }
            let row_w: Vec<f64> = (0..m).map(|i| 0.5 + i as f64).collect();
            let col_w: Vec<f64> = (0..n).map(|j| 1.5 / (1.0 + j as f64)).collect();
            let want = scaled_reference(&a, &row_w, &col_w);
            let got = sigma_max_scaled(&a, &row_w, &col_w, &mut scratch);
            assert!((want - got).abs() <= 1e-9 * want.max(1.0), "({m},{n})");
        }
    }
}
