//! Largest singular values of complex matrices: closed forms for vectors
//! and rank-2 Gram matrices, power iteration otherwise.
//!
//! `sigma_max` on complex frequency responses is the inner loop of the
//! structured-singular-value upper bound, so it gets a dedicated fast path.

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
/// The iteration allocates one buffer per call and reuses it for every
/// step of both starts. `A·x` runs four rows per pass over `x`, `Aᴴ·y`
/// one row of `A` at a time into every output, and each output element
/// sums its terms in index order from zero, as [`CMat::matvec`] on `A`
/// and on `Aᴴ` would.
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
    let mut buf = vec![C64::ZERO; 2 * n + m];
    let (x, rest) = buf.split_at_mut(n);
    let (y, z) = rest.split_at_mut(m);
    let mut best = 0.0f64;
    // Two deterministic starts: matrix-seeded, and alternating-phase.
    for start in 0..2 {
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = if start == 0 {
                a.get(seed_row, j).conj()
            } else {
                C64::cis(1.7 * j as f64 + 0.3)
            };
        }
        let mut prev = 0.0f64;
        for _ in 0..200 {
            // y = A x ; z = Aᴴ y ; σ² estimate = ‖y‖² / ‖x‖²
            mul_into(data, n, x, y);
            mul_h_into(data, n, y, z);
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
            for (xj, &zj) in x.iter_mut().zip(z.iter()) {
                *xj = zj * (1.0 / zn);
            }
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
        let mut acc = C64::ZERO;
        for (&aij, &xj) in row.iter().zip(x) {
            acc += aij * xj;
        }
        *yi = acc;
    }
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
