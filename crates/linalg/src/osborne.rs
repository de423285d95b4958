//! Osborne block balancing for the structured-singular-value D-search.
//!
//! The µ upper bound minimizes `σ̄(D N D⁻¹)` over positive block-diagonal
//! scalings `D`. The classical way to get within a short refinement of the
//! optimum is Osborne's balancing iteration applied to the **block-norm
//! matrix** `M[i][j] = ‖N_ij‖_F`: cyclically pick `d_i` so that the scaled
//! row and column norms of block `i` agree, which for the 2-norm variant
//! used here is the closed form `d_i = (c_i / r_i)^{1/4}` with
//! `r_i = Σ_{j≠i} (M_ij / d_j)²` and `c_i = Σ_{j≠i} (M_ji · d_j)²`.
//!
//! Two-block structures (the D-search-dominated `two_1x1` µ sweeps) reach
//! the exact balancing fixpoint `d₀ = √(M₁₀/M₀₁)` after a single update.
//! The last block is pinned at `d = 1` (D-scalings are defined up to a
//! global factor), and any zero row/column norm keeps `d_i = 1` — that is
//! both the safe and the correct choice: a block with no off-diagonal
//! coupling cannot be improved by scaling.
//!
//! The µ sweep calls these kernels through [`osborne_batch`], which runs
//! the elimination across a whole chunk of grid points in one pass over
//! shared caller-owned buffers — no per-point allocation — with the
//! dominant two-block update in closed form. [`osborne_point`] is the
//! per-point reference the batch is property-tested against
//! (`crates/control/tests`).

use crate::CMat;

/// Writes the Frobenius norm of every `(i, j)` block of `n` into `out`
/// (row-major, `out[i * nb + j] = ‖N_ij‖_F`), where the block partition is
/// given by the per-block row and column counts.
///
/// # Panics
///
/// Debug-asserts that the partition tiles the matrix exactly and that
/// `out` holds `nb²` entries.
pub fn block_norms_into(n: &CMat, row_sizes: &[usize], col_sizes: &[usize], out: &mut [f64]) {
    let nb = row_sizes.len();
    debug_assert_eq!(col_sizes.len(), nb);
    debug_assert_eq!(out.len(), nb * nb);
    debug_assert_eq!(row_sizes.iter().sum::<usize>(), n.rows());
    debug_assert_eq!(col_sizes.iter().sum::<usize>(), n.cols());
    let cols = n.cols();
    let data = n.as_slice();
    let mut r0 = 0;
    for (bi, &nr) in row_sizes.iter().enumerate() {
        let mut c0 = 0;
        for (bj, &nc) in col_sizes.iter().enumerate() {
            let mut acc = 0.0f64;
            for i in r0..r0 + nr {
                let row = &data[i * cols..i * cols + cols];
                for z in &row[c0..c0 + nc] {
                    acc = z.re.mul_add(z.re, acc);
                    acc = z.im.mul_add(z.im, acc);
                }
            }
            out[bi * nb + bj] = acc.sqrt();
            c0 += nc;
        }
        r0 += nr;
    }
}

/// One Osborne update for block `i` of a single point: the closed-form
/// balance `d_i = (c/r)^{1/4}`, or `1` when either side vanishes (no
/// coupling to balance) or the norms are non-finite.
fn balance_one(norms: &[f64], nb: usize, d: &[f64], i: usize) -> f64 {
    let mut r = 0.0f64;
    let mut c = 0.0f64;
    for j in 0..nb {
        if j == i {
            continue;
        }
        let rij = norms[i * nb + j] / d[j];
        let cji = norms[j * nb + i] * d[j];
        r = rij.mul_add(rij, r);
        c = cji.mul_add(cji, c);
    }
    let upd = (c / r).sqrt().sqrt();
    if upd.is_finite() && upd > 0.0 {
        upd
    } else {
        1.0
    }
}

/// Osborne balancing of one `nb × nb` block-norm matrix (row-major
/// `norms`), writing the scalings into `d` (length `nb`, last entry pinned
/// at 1). `sweeps` bounds the cyclic passes; two-block structures converge
/// in one.
pub fn osborne_point(norms: &[f64], nb: usize, sweeps: usize, d: &mut [f64]) {
    debug_assert_eq!(norms.len(), nb * nb);
    debug_assert_eq!(d.len(), nb);
    d.fill(1.0);
    if nb < 2 {
        return;
    }
    for _ in 0..sweeps {
        let mut moved = false;
        for i in 0..nb - 1 {
            let upd = balance_one(norms, nb, d, i);
            if (upd - d[i]).abs() > 1e-12 * d[i] {
                moved = true;
            }
            d[i] = upd;
        }
        if !moved {
            break;
        }
    }
}

/// Osborne balancing of `points` block-norm matrices in one pass.
///
/// `norms` is point-major (`points × nb × nb`), `d` point-major
/// (`points × nb`). Results are identical to calling [`osborne_point`] on
/// every point — the batch exists so the µ sweep's D-initialization runs
/// over a whole grid chunk with zero per-point allocation, and so the
/// dominant two-block case can take the closed form below.
pub fn osborne_batch(norms: &[f64], nb: usize, points: usize, sweeps: usize, d: &mut [f64]) {
    debug_assert_eq!(norms.len(), points * nb * nb);
    debug_assert_eq!(d.len(), points * nb);
    if nb == 2 {
        two_block_batch(norms, points, d);
        return;
    }
    for p in 0..points {
        osborne_point(
            &norms[p * nb * nb..(p + 1) * nb * nb],
            nb,
            sweeps,
            &mut d[p * nb..(p + 1) * nb],
        );
    }
}

/// Two-block closed form per point: `r = M₀₁²`, `c = M₁₀²`,
/// `d₀ = √(√(c/r))`, guarded to 1. Written to round exactly like
/// [`balance_one`] so batch and per-point results are bit-identical.
fn two_block_batch(norms: &[f64], points: usize, d: &mut [f64]) {
    for p in 0..points {
        let m01 = norms[4 * p + 1];
        let m10 = norms[4 * p + 2];
        let r = m01 * m01;
        let c = m10 * m10;
        let upd = (c / r).sqrt().sqrt();
        d[2 * p] = if upd.is_finite() && upd > 0.0 {
            upd
        } else {
            1.0
        };
        d[2 * p + 1] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn cmat_from_abs(rows: usize, cols: usize, vals: &[f64]) -> CMat {
        let mut m = CMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, C64::new(vals[i * cols + j], 0.0));
            }
        }
        m
    }

    #[test]
    fn block_norms_cover_the_partition() {
        let n = cmat_from_abs(2, 2, &[0.0, 100.0, 0.01, 0.0]);
        let mut out = [0.0; 4];
        block_norms_into(&n, &[1, 1], &[1, 1], &mut out);
        assert_eq!(out, [0.0, 100.0, 0.01, 0.0]);

        // One 2×1 block over a 3×2 matrix: Frobenius norms per tile.
        let n = cmat_from_abs(3, 2, &[3.0, 0.0, 4.0, 0.0, 0.0, 2.0]);
        let mut out = [0.0; 4];
        block_norms_into(&n, &[2, 1], &[1, 1], &mut out);
        assert!((out[0] - 5.0).abs() < 1e-12); // √(3²+4²)
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], 2.0);
    }

    #[test]
    fn two_block_balance_is_exact() {
        // The classic off-diagonal structure [[0, 100], [0.01, 0]]:
        // d₀ = √(0.01/100) = 0.01 balances it to [[0, 1], [1, 0]].
        let norms = [0.0, 100.0, 0.01, 0.0];
        let mut d = [0.0; 2];
        osborne_point(&norms, 2, 4, &mut d);
        assert!((d[0] - 0.01).abs() < 1e-14);
        assert_eq!(d[1], 1.0);
    }

    #[test]
    fn zero_coupling_keeps_unit_scaling() {
        // Diagonal structure: nothing to balance, d must stay 1.
        let norms = [3.0, 0.0, 0.0, 0.2];
        let mut d = [0.0; 2];
        osborne_point(&norms, 2, 4, &mut d);
        assert_eq!(d, [1.0, 1.0]);
    }

    #[test]
    fn three_block_sweep_balances_rows_and_columns() {
        // A cyclically coupled 3-block structure; after balancing, each
        // free block's scaled row and column norms must agree.
        let norms = [0.0, 8.0, 0.5, 0.25, 0.0, 4.0, 16.0, 0.125, 0.0];
        let nb = 3;
        let mut d = [0.0; 3];
        osborne_point(&norms, nb, 24, &mut d);
        assert_eq!(d[2], 1.0);
        for i in 0..nb - 1 {
            let mut r = 0.0f64;
            let mut c = 0.0f64;
            for j in 0..nb {
                if j == i {
                    continue;
                }
                r += (d[i] * norms[i * nb + j] / d[j]).powi(2);
                c += (d[j] * norms[j * nb + i] / d[i]).powi(2);
            }
            assert!(
                (r.sqrt() - c.sqrt()).abs() < 1e-6 * r.sqrt().max(1.0),
                "block {i} unbalanced: row {} col {}",
                r.sqrt(),
                c.sqrt()
            );
        }
    }

    #[test]
    fn batch_matches_per_point() {
        let mut norms = Vec::new();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let points = 13;
        for _ in 0..points * 4 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            norms.push(((seed >> 33) as f64 / (1u64 << 31) as f64) * 50.0);
        }
        // Sprinkle in the degenerate cases.
        norms[1] = 0.0;
        norms[4 * 5 + 2] = 0.0;
        let mut per_point = vec![0.0; points * 2];
        for p in 0..points {
            osborne_point(
                &norms[4 * p..4 * (p + 1)],
                2,
                4,
                &mut per_point[2 * p..2 * (p + 1)],
            );
        }
        let mut batch = vec![0.0; points * 2];
        osborne_batch(&norms, 2, points, 4, &mut batch);
        assert_eq!(per_point, batch, "batch drifted");
    }

    #[test]
    fn general_block_count_batch_delegates_to_per_point() {
        let norms = [
            0.0, 8.0, 0.5, 0.25, 0.0, 4.0, 16.0, 0.125, 0.0, // point 0
            0.0, 1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0, // point 1
        ];
        let mut batch = vec![0.0; 6];
        osborne_batch(&norms, 3, 2, 24, &mut batch);
        for p in 0..2 {
            let mut d = [0.0; 3];
            osborne_point(&norms[9 * p..9 * (p + 1)], 3, 24, &mut d);
            assert_eq!(&batch[3 * p..3 * (p + 1)], &d);
        }
    }
}
