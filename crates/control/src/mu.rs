//! The Structured Singular Value (SSV, µ): upper bounds via diagonal
//! D-scalings.
//!
//! For a block structure Δ = diag(Δ₁, …, Δ_b) of full complex blocks, the
//! classic bound is
//!
//! ```text
//! µ_Δ(N) ≤ min_{D ∈ 𝒟} σ̄(D_L · N · D_R⁻¹)
//! ```
//!
//! where `𝒟` holds positive block-scalar scalings commuting with Δ. Any
//! positive `D` gives a *valid* upper bound, so the optimization below can
//! stop early without ever compromising soundness — it only costs
//! conservatism. This mirrors the paper's use of MATLAB's `mussv` bounds
//! inside controller synthesis (Section II-C, Equation 1).
//!
//! The D-search runs in two stages. First, [Osborne
//! balancing](yukta_linalg::osborne) of the block-norm matrix gives a
//! near-optimal starting scaling in closed form — batched across a whole
//! frequency-grid chunk with shared workspaces and a closed form for the
//! dominant two-block structure. Second, a short golden-section
//! refinement polishes each free scaling within ±1 decade of the Osborne
//! point, evaluating candidates through the fused scale-and-reduce kernel
//! [`sigma_max_scaled`] so no scaled copy of the response is ever
//! materialized.

use std::cell::RefCell;

use yukta_linalg::freq::FreqEvaluator;
use yukta_linalg::osborne;
use yukta_linalg::svd::{sigma_max, sigma_max_scaled};
use yukta_linalg::{C64, CMat, Error, Result};
use yukta_obs::{Recorder, Value};

use crate::ss::StateSpace;
use crate::sweep;

/// Osborne balancing sweeps used to initialize the D-search. Two blocks
/// (the common SSV-plant structure) reach their fixpoint in one sweep;
/// two sweeps cover general block counts well enough for the golden
/// refinement to finish the job.
const OSBORNE_SWEEPS: usize = 2;

/// Golden-section iterations per free block when polishing the Osborne
/// initialization.
const REFINE_ITERS: usize = 20;

/// Half-width (in decades of `d`) of the golden-section bracket around
/// the Osborne scaling.
const REFINE_HALF_DECADES: f64 = 1.0;

/// One full complex uncertainty block: `w_i = Δ_i · z_i` with
/// `Δ_i ∈ ℂ^{n_in × n_out}` and `σ̄(Δ_i) ≤ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuBlock {
    /// Rows of `z` (perturbation outputs) owned by this block.
    pub n_out: usize,
    /// Columns of `w` (perturbation inputs) owned by this block.
    pub n_in: usize,
}

/// Result of a µ upper-bound computation at one matrix.
#[derive(Debug, Clone)]
pub struct MuInfo {
    /// The upper bound on µ.
    pub value: f64,
    /// The block scalings that achieved it (one per block, last = 1).
    pub scalings: Vec<f64>,
}

/// Result of a µ sweep over a frequency grid.
#[derive(Debug, Clone)]
pub struct MuPeak {
    /// Peak upper bound across the grid.
    pub peak: f64,
    /// Frequency (rad/s) where the peak occurred.
    pub w_peak: f64,
    /// Scalings at the peak.
    pub scalings: Vec<f64>,
    /// The whole curve as `(ω, µ̄(ω))` pairs.
    pub curve: Vec<(f64, f64)>,
    /// Optimized per-block scalings at every curve point (parallel to
    /// `curve`): the `d(ω)` data a frequency-dependent D-scaling fit
    /// consumes.
    pub point_scalings: Vec<Vec<f64>>,
}

/// Validates that a block structure tiles an `rows × cols` matrix.
fn check_blocks(rows: usize, cols: usize, blocks: &[MuBlock]) -> Result<()> {
    let zr: usize = blocks.iter().map(|b| b.n_out).sum();
    let wc: usize = blocks.iter().map(|b| b.n_in).sum();
    if zr != rows || wc != cols || blocks.is_empty() {
        return Err(Error::DimensionMismatch {
            op: "mu_blocks",
            lhs: (rows, cols),
            rhs: (zr, wc),
        });
    }
    Ok(())
}

/// Applies block scalings: returns `D_L · N · D_R⁻¹` where block `i`'s rows
/// are multiplied by `d_i` and its columns divided by `d_i`.
///
/// This materializes the scaled matrix and is kept public as the slow
/// reference for the fused evaluation path
/// ([`sigma_max_scaled`]) used by the optimizer; differential
/// tests and benchmarks pin the fused kernel against
/// `sigma_max(&apply_scalings(…))`.
pub fn apply_scalings(n: &CMat, blocks: &[MuBlock], d: &[f64]) -> CMat {
    let mut out = n.clone();
    let mut r0 = 0;
    for (bi, b) in blocks.iter().enumerate() {
        for i in r0..r0 + b.n_out {
            for j in 0..out.cols() {
                out.set(i, j, out.get(i, j) * d[bi]);
            }
        }
        r0 += b.n_out;
    }
    let mut c0 = 0;
    for (bi, b) in blocks.iter().enumerate() {
        let inv = 1.0 / d[bi];
        for j in c0..c0 + b.n_in {
            for i in 0..out.rows() {
                out.set(i, j, out.get(i, j) * inv);
            }
        }
        c0 += b.n_in;
    }
    out
}

/// Expands per-block scalings into per-row (`d_i`) and per-column
/// (`1/d_i`) weight vectors for the fused σ̄ kernel.
fn fill_weights(blocks: &[MuBlock], d: &[f64], row_w: &mut [f64], col_w: &mut [f64]) {
    let (mut r, mut c) = (0, 0);
    for (bi, b) in blocks.iter().enumerate() {
        row_w[r..r + b.n_out].fill(d[bi]);
        col_w[c..c + b.n_in].fill(1.0 / d[bi]);
        r += b.n_out;
        c += b.n_in;
    }
}

/// Evaluates σ̄ of the scaled response with block `b`'s scaling set to
/// `10^ld`, writing the block's weights in place (the other blocks'
/// weights are already current).
#[allow(clippy::too_many_arguments)]
fn probe(
    n: &CMat,
    b: &MuBlock,
    r0: usize,
    c0: usize,
    ld: f64,
    row_w: &mut [f64],
    col_w: &mut [f64],
    scratch: &mut CMat,
) -> f64 {
    let dv = 10f64.powf(ld);
    row_w[r0..r0 + b.n_out].fill(dv);
    col_w[c0..c0 + b.n_in].fill(1.0 / dv);
    sigma_max_scaled(n, row_w, col_w, scratch)
}

/// Polishes an Osborne-initialized scaling `d` by golden-section search
/// within ±[`REFINE_HALF_DECADES`] of each free block (last block pinned
/// at 1), evaluating through the fused scale-and-reduce kernel. Returns
/// the µ upper bound at the final scalings, never above the unscaled σ̄.
fn refine_point(
    n: &CMat,
    blocks: &[MuBlock],
    d: &mut [f64],
    row_w: &mut Vec<f64>,
    col_w: &mut Vec<f64>,
    scratch: &mut CMat,
) -> MuInfo {
    let (rows, cols) = n.shape();
    row_w.clear();
    row_w.resize(rows, 1.0);
    col_w.clear();
    col_w.resize(cols, 1.0);
    let nb = blocks.len();
    if nb == 1 {
        // Single block: D cancels, µ upper bound is just σ̄.
        d[0] = 1.0;
        let value = sigma_max_scaled(n, row_w, col_w, scratch);
        return MuInfo {
            value,
            scalings: vec![1.0],
        };
    }
    d[nb - 1] = 1.0;
    fill_weights(blocks, d, row_w, col_w);
    let phi = 0.5 * (5f64.sqrt() - 1.0);
    let (mut r0, mut c0) = (0, 0);
    for (bi, b) in blocks.iter().enumerate().take(nb - 1) {
        let ld0 = d[bi].log10();
        let (mut lo, mut hi) = (ld0 - REFINE_HALF_DECADES, ld0 + REFINE_HALF_DECADES);
        let mut x1 = hi - phi * (hi - lo);
        let mut x2 = lo + phi * (hi - lo);
        let mut f1 = probe(n, b, r0, c0, x1, row_w, col_w, scratch);
        let mut f2 = probe(n, b, r0, c0, x2, row_w, col_w, scratch);
        for _ in 0..REFINE_ITERS {
            if f1 < f2 {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - phi * (hi - lo);
                f1 = probe(n, b, r0, c0, x1, row_w, col_w, scratch);
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + phi * (hi - lo);
                f2 = probe(n, b, r0, c0, x2, row_w, col_w, scratch);
            }
        }
        let ld = if f1 < f2 { x1 } else { x2 };
        d[bi] = 10f64.powf(ld);
        row_w[r0..r0 + b.n_out].fill(d[bi]);
        col_w[c0..c0 + b.n_in].fill(1.0 / d[bi]);
        r0 += b.n_out;
        c0 += b.n_in;
    }
    // Final consistency: report the value at the final scalings, never
    // above the unscaled bound (D = I is always admissible).
    let final_sig = sigma_max_scaled(n, row_w, col_w, scratch);
    row_w.fill(1.0);
    col_w.fill(1.0);
    let unscaled = sigma_max_scaled(n, row_w, col_w, scratch);
    MuInfo {
        value: final_sig.min(unscaled),
        scalings: d.to_vec(),
    }
}

/// Computes the µ upper bound of a complex matrix for the given block
/// structure: Osborne balancing of the block-norm matrix initializes the
/// scalings, then a short golden-section refinement in log-space polishes
/// each free block through the fused scale-and-reduce σ̄ kernel.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the blocks do not tile `n`.
///
/// # Examples
///
/// ```
/// use yukta_control::mu::{mu_upper_bound, MuBlock};
/// use yukta_linalg::{C64, CMat};
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// // For a single full block, µ = σ̄.
/// let mut n = CMat::zeros(2, 2);
/// n.set(0, 0, C64::real(2.0));
/// n.set(1, 1, C64::real(0.5));
/// let info = mu_upper_bound(&n, &[MuBlock { n_out: 2, n_in: 2 }])?;
/// assert!((info.value - 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn mu_upper_bound(n: &CMat, blocks: &[MuBlock]) -> Result<MuInfo> {
    check_blocks(n.rows(), n.cols(), blocks)?;
    let nb = blocks.len();
    if nb == 1 {
        return Ok(MuInfo {
            value: sigma_max(n),
            scalings: vec![1.0],
        });
    }
    let row_sizes: Vec<usize> = blocks.iter().map(|b| b.n_out).collect();
    let col_sizes: Vec<usize> = blocks.iter().map(|b| b.n_in).collect();
    let mut norms = vec![0.0; nb * nb];
    osborne::block_norms_into(n, &row_sizes, &col_sizes, &mut norms);
    let mut d = vec![1.0; nb];
    osborne::osborne_point(&norms, nb, OSBORNE_SWEEPS, &mut d);
    let mut row_w = Vec::new();
    let mut col_w = Vec::new();
    let mut scratch = CMat::zeros(1, 1);
    Ok(refine_point(
        n,
        blocks,
        &mut d,
        &mut row_w,
        &mut col_w,
        &mut scratch,
    ))
}

/// A µ *lower* bound via a power-iteration construction: align every
/// uncertainty block with the loop's principal direction and report the
/// weakest block gain — a destabilizing `Δ` of that size exists, so the
/// value is a certified lower bound. Together with [`mu_upper_bound`] this
/// brackets the true structured singular value (the quantity Equation 1 of
/// the paper defines). The construction keeps *all* blocks active, so it
/// is conservative when µ is achieved by a strict subset of the blocks.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the blocks do not tile `n`.
pub fn mu_lower_bound(n: &CMat, blocks: &[MuBlock]) -> Result<f64> {
    check_blocks(n.rows(), n.cols(), blocks)?;
    let nz = n.rows();
    let nw = n.cols();
    if nz == 0 || nw == 0 {
        return Ok(0.0);
    }
    let mut best = 0.0f64;
    // Deterministic multi-start power iteration on w → z = N·w → w' with
    // per-block renormalization (each block of Δ acts with unit gain).
    for start in 0..3 {
        let mut w: Vec<yukta_linalg::C64> = (0..nw)
            .map(|j| yukta_linalg::C64::cis(0.7 * start as f64 + 1.3 * j as f64))
            .collect();
        let mut gain = 0.0f64;
        for _ in 0..60 {
            let z = n.matvec(&w).expect("shape checked");
            // Per-block gains: |z_block| / |w_block|.
            let mut r0 = 0;
            let mut c0 = 0;
            let mut min_gain = f64::INFINITY;
            let mut w_next = vec![yukta_linalg::C64::ZERO; nw];
            for b in blocks {
                let zn: f64 = z[r0..r0 + b.n_out]
                    .iter()
                    .map(|v| v.abs_sq())
                    .sum::<f64>()
                    .sqrt();
                let wn: f64 = w[c0..c0 + b.n_in]
                    .iter()
                    .map(|v| v.abs_sq())
                    .sum::<f64>()
                    .sqrt();
                if wn > 1e-300 {
                    min_gain = min_gain.min(zn / wn);
                }
                // The worst-case block maps z_block back onto w_block with
                // unit norm gain: take w'_block ∝ alignment of the output.
                // For non-square blocks, redistribute the output energy
                // uniformly onto the input width.
                for (k, slot) in w_next[c0..c0 + b.n_in].iter_mut().enumerate() {
                    let src = z[r0 + (k % b.n_out.max(1))];
                    *slot = src;
                }
                let nn: f64 = w_next[c0..c0 + b.n_in]
                    .iter()
                    .map(|v| v.abs_sq())
                    .sum::<f64>()
                    .sqrt();
                if nn > 1e-300 {
                    for slot in w_next[c0..c0 + b.n_in].iter_mut() {
                        *slot = *slot * (1.0 / nn);
                    }
                }
                r0 += b.n_out;
                c0 += b.n_in;
            }
            if !min_gain.is_finite() {
                break;
            }
            let prev = gain;
            gain = min_gain;
            w = w_next;
            if (gain - prev).abs() < 1e-10 * gain.max(1e-300) {
                break;
            }
        }
        best = best.max(gain);
    }
    Ok(best)
}

/// A log-spaced frequency grid of `n` points in `[w_min, w_max]` rad/s.
pub fn log_grid(w_min: f64, w_max: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let t = k as f64 / (n - 1).max(1) as f64;
            w_min * (w_max / w_min).powf(t)
        })
        .collect()
}

/// Reusable per-thread buffers for the batched µ chunk worker: block-norm
/// matrices and Osborne scalings for a whole chunk of grid points, weight
/// expansions and the σ̄ scratch for the refinement, and the chunk's
/// stored responses. Thread-local because the sweep driver shares one
/// `Fn` closure across workers.
struct MuWorkspace {
    norms: Vec<f64>,
    d: Vec<f64>,
    row_w: Vec<f64>,
    col_w: Vec<f64>,
    row_sizes: Vec<usize>,
    col_sizes: Vec<usize>,
    resp: Vec<Option<CMat>>,
    scratch: CMat,
}

thread_local! {
    static MU_WS: RefCell<MuWorkspace> = RefCell::new(MuWorkspace {
        norms: Vec::new(),
        d: Vec::new(),
        row_w: Vec::new(),
        col_w: Vec::new(),
        row_sizes: Vec::new(),
        col_sizes: Vec::new(),
        resp: Vec::new(),
        scratch: CMat::zeros(1, 1),
    });
}

/// Per-chunk work shared by all sweep entry points: evaluate the loop at
/// every ω of the chunk through the Hessenberg fast path, initialize all
/// D-scalings with one batched Osborne pass over the chunk, then polish
/// each point through the fused σ̄ kernel. Frequencies where the response
/// is singular yield `None`.
fn mu_chunk(
    blocks: &[MuBlock],
    ts: Option<f64>,
    freqs: &[f64],
    ev: &mut FreqEvaluator<'_>,
) -> Vec<Option<MuInfo>> {
    MU_WS.with(|cell| {
        let ws = &mut *cell.borrow_mut();
        let nb = blocks.len();
        let pts = freqs.len();
        ws.row_sizes.clear();
        ws.row_sizes.extend(blocks.iter().map(|b| b.n_out));
        ws.col_sizes.clear();
        ws.col_sizes.extend(blocks.iter().map(|b| b.n_in));
        ws.resp.clear();
        for &w in freqs {
            let lambda = match ts {
                Some(t) => C64::cis(w * t),
                None => C64::new(0.0, w),
            };
            ws.resp.push(ev.eval(lambda).ok());
        }
        ws.norms.clear();
        ws.norms.resize(pts * nb * nb, 0.0);
        ws.d.clear();
        ws.d.resize(pts * nb, 1.0);
        for (p, r) in ws.resp.iter().enumerate() {
            if let Some(n) = r {
                osborne::block_norms_into(
                    n,
                    &ws.row_sizes,
                    &ws.col_sizes,
                    &mut ws.norms[p * nb * nb..(p + 1) * nb * nb],
                );
            }
            // Singular points keep zero norms; the batched update's
            // finiteness guard pins their scalings at 1.
        }
        osborne::osborne_batch(&ws.norms, nb, pts, OSBORNE_SWEEPS, &mut ws.d);
        let MuWorkspace {
            d,
            row_w,
            col_w,
            resp,
            scratch,
            ..
        } = ws;
        resp.iter()
            .enumerate()
            .map(|(p, r)| {
                let n = r.as_ref()?;
                Some(refine_point(
                    n,
                    blocks,
                    &mut d[p * nb..(p + 1) * nb],
                    row_w,
                    col_w,
                    scratch,
                ))
            })
            .collect()
    })
}

/// Folds per-frequency results (in grid order) into the peak record.
fn fold_peak(grid: &[f64], results: Vec<Option<MuInfo>>, blocks: &[MuBlock]) -> MuPeak {
    let mut peak = MuPeak {
        peak: 0.0,
        w_peak: grid.first().copied().unwrap_or(1.0),
        scalings: vec![1.0; blocks.len()],
        curve: Vec::with_capacity(grid.len()),
        point_scalings: Vec::with_capacity(grid.len()),
    };
    for (&w, info) in grid.iter().zip(results) {
        let Some(info) = info else {
            continue;
        };
        peak.curve.push((w, info.value));
        if info.value > peak.peak {
            peak.peak = info.value;
            peak.w_peak = w;
            peak.scalings = info.scalings.clone();
        }
        peak.point_scalings.push(info.scalings);
    }
    peak
}

/// Sweeps the µ upper bound of a closed-loop system over a frequency grid
/// and returns the peak.
///
/// The sweep runs on the system's cached Hessenberg form (one O(n²)
/// solve per point) and fans out across cores on multi-core hosts;
/// results are bit-identical to [`mu_peak_serial`].
///
/// # Errors
///
/// Returns block-structure mismatches; frequencies where the response is
/// singular are skipped.
pub fn mu_peak(sys: &StateSpace, blocks: &[MuBlock], grid: &[f64]) -> Result<MuPeak> {
    mu_peak_obs(sys, blocks, grid, yukta_obs::handle())
}

/// [`mu_peak`] reporting telemetry to an explicit [`Recorder`] (one
/// `mu.sweep` span per call; the sweep driver adds fan-out events to the
/// process-global recorder). Results are identical to [`mu_peak`] —
/// telemetry never influences the computation.
///
/// # Errors
///
/// Same as [`mu_peak`].
pub fn mu_peak_obs(
    sys: &StateSpace,
    blocks: &[MuBlock],
    grid: &[f64],
    rec: &dyn Recorder,
) -> Result<MuPeak> {
    peak_sweep(sys, blocks, grid, false, Some(rec))
}

/// Single-threaded reference for [`mu_peak`]: the same sweep driver on
/// one worker. Exists so differential tests can pin the parallel sweep
/// to the serial semantics.
///
/// # Errors
///
/// Same as [`mu_peak`].
pub fn mu_peak_serial(sys: &StateSpace, blocks: &[MuBlock], grid: &[f64]) -> Result<MuPeak> {
    peak_sweep(sys, blocks, grid, true, Some(yukta_obs::handle()))
}

/// [`mu_peak_serial`] with **no instrumentation at all** — not even the
/// disabled-recorder virtual calls. This is the honest baseline the
/// `bench_sweep --quick` overhead gate compares the no-op-instrumented
/// path against.
///
/// # Errors
///
/// Same as [`mu_peak_serial`].
pub fn mu_peak_serial_raw(sys: &StateSpace, blocks: &[MuBlock], grid: &[f64]) -> Result<MuPeak> {
    peak_sweep(sys, blocks, grid, true, None)
}

/// The µ sweep behind every `mu_peak*` entry point: batched chunks
/// ([`mu_chunk`]) on the fan-out driver, on one worker when `serial`,
/// folded into the peak record. With a recorder, one `mu.sweep` span
/// carries the sweep's shape and result.
fn peak_sweep(
    sys: &StateSpace,
    blocks: &[MuBlock],
    grid: &[f64],
    serial: bool,
    rec: Option<&dyn Recorder>,
) -> Result<MuPeak> {
    check_blocks(sys.n_outputs(), sys.n_inputs(), blocks)?;
    let span = rec.map(|r| yukta_obs::span(r, "mu.sweep"));
    let ts = sys.ts();
    let chunk = |_, ws: &[f64], ev: &mut FreqEvaluator<'_>| mu_chunk(blocks, ts, ws, ev);
    let results = if serial {
        sweep::sweep_chunks_on(sys.freq_system(), grid, 1, chunk)
    } else {
        sweep::sweep_chunks(sys.freq_system(), grid, chunk)
    };
    let peak = fold_peak(grid, results, blocks);
    if let Some(span) = span.filter(|_| rec.is_some_and(|r| r.enabled())) {
        span.end_with(&[
            (
                "mode",
                Value::Str(if serial { "serial" } else { "parallel" }),
            ),
            ("points", Value::U64(grid.len() as u64)),
            ("order", Value::U64(sys.order() as u64)),
            ("mu", Value::F64(peak.peak)),
            ("w_peak", Value::F64(peak.w_peak)),
        ]);
    }
    Ok(peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yukta_linalg::{C64, Mat};

    #[test]
    fn single_block_equals_sigma_max() {
        let m = CMat::from_real(&Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let info = mu_upper_bound(&m, &[MuBlock { n_out: 2, n_in: 2 }]).unwrap();
        let s = sigma_max(&m);
        assert!((info.value - s).abs() < 1e-9);
    }

    #[test]
    fn scaling_helps_off_diagonal_structure() {
        // N = [0 big; small 0] with two 1x1 blocks: µ = sqrt(big·small),
        // far below σ̄ = big.
        let mut n = CMat::zeros(2, 2);
        n.set(0, 1, C64::real(100.0));
        n.set(1, 0, C64::real(0.01));
        let blocks = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];
        let info = mu_upper_bound(&n, &blocks).unwrap();
        assert!(
            (info.value - 1.0).abs() < 1e-3,
            "µ upper bound {} should approach 1",
            info.value
        );
        assert!(info.value <= sigma_max(&n) + 1e-9);
    }

    #[test]
    fn upper_bound_dominates_diagonal_spectral_bound() {
        // For block-diagonal N, µ = max over blocks of σ̄(N_ii).
        let mut n = CMat::zeros(2, 2);
        n.set(0, 0, C64::real(3.0));
        n.set(1, 1, C64::real(0.2));
        let blocks = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];
        let info = mu_upper_bound(&n, &blocks).unwrap();
        assert!((info.value - 3.0).abs() < 1e-6);
    }

    #[test]
    fn bad_block_tiling_rejected() {
        let n = CMat::zeros(3, 3);
        assert!(mu_upper_bound(&n, &[MuBlock { n_out: 2, n_in: 2 }]).is_err());
    }

    #[test]
    fn log_grid_endpoints() {
        let g = log_grid(0.01, 100.0, 9);
        assert_eq!(g.len(), 9);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[8] - 100.0).abs() < 1e-9);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn mu_peak_of_lowpass() {
        // SISO low-pass with DC gain 2, one full block: peak µ = 2 at DC.
        let sys = StateSpace::new(
            Mat::filled(1, 1, -1.0),
            Mat::filled(1, 1, 2.0),
            Mat::identity(1),
            Mat::zeros(1, 1),
            None,
        )
        .unwrap();
        let p = mu_peak(
            &sys,
            &[MuBlock { n_out: 1, n_in: 1 }],
            &log_grid(1e-3, 1e2, 60),
        )
        .unwrap();
        assert!((p.peak - 2.0).abs() < 1e-2);
        assert!(p.w_peak < 0.1);
        assert_eq!(p.curve.len(), 60);
    }

    #[test]
    fn lower_bound_never_exceeds_upper_bound() {
        let m = CMat::from_real(&Mat::from_rows(&[
            &[0.5, 1.2, -0.3],
            &[0.1, -0.7, 0.9],
            &[0.8, 0.2, 0.4],
        ]));
        let blocks = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 2, n_in: 2 }];
        let lb = mu_lower_bound(&m, &blocks).unwrap();
        let ub = mu_upper_bound(&m, &blocks).unwrap().value;
        assert!(lb <= ub + 1e-9, "lb {lb} vs ub {ub}");
        assert!(lb > 0.0);
    }

    #[test]
    fn bounds_tight_for_single_block() {
        // With one full block mu = sigma_max, and the bounds should agree.
        let m = CMat::from_real(&Mat::from_rows(&[&[2.0, 0.5], &[0.1, 1.0]]));
        let blocks = [MuBlock { n_out: 2, n_in: 2 }];
        let lb = mu_lower_bound(&m, &blocks).unwrap();
        let ub = mu_upper_bound(&m, &blocks).unwrap().value;
        assert!((ub - lb) / ub < 0.05, "lb {lb} vs ub {ub}");
    }

    #[test]
    fn bounds_bracket_diagonal_matrix() {
        let mut m = CMat::zeros(2, 2);
        m.set(0, 0, C64::real(3.0));
        m.set(1, 1, C64::real(1.0));
        let blocks = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];
        let lb = mu_lower_bound(&m, &blocks).unwrap();
        let ub = mu_upper_bound(&m, &blocks).unwrap().value;
        // µ = 3 exactly here. The upper bound is tight; the simple
        // all-blocks-active power construction is conservative from below
        // (it cannot zero a block), so it certifies the weakest block.
        assert!((ub - 3.0).abs() < 0.1, "ub {ub}");
        assert!(lb >= 1.0 - 1e-9 && lb <= ub + 1e-9, "lb {lb} ub {ub}");
    }

    #[test]
    fn mu_monotone_under_gain_scaling() {
        // Doubling the system gain doubles the µ upper bound.
        let mk = |g: f64| {
            StateSpace::new(
                Mat::from_rows(&[&[-1.0, 0.3], &[0.0, -2.0]]),
                Mat::from_rows(&[&[g, 0.0], &[0.0, g]]),
                Mat::identity(2),
                Mat::zeros(2, 2),
                None,
            )
            .unwrap()
        };
        let blocks = [MuBlock { n_out: 1, n_in: 1 }, MuBlock { n_out: 1, n_in: 1 }];
        let grid = log_grid(1e-2, 1e2, 30);
        let p1 = mu_peak(&mk(1.0), &blocks, &grid).unwrap();
        let p2 = mu_peak(&mk(2.0), &blocks, &grid).unwrap();
        assert!((p2.peak / p1.peak - 2.0).abs() < 0.05);
    }
}
