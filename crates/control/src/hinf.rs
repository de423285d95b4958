//! H∞ output-feedback synthesis via the DGKF two-Riccati central
//! controller, plus the linear-fractional machinery around it.
//!
//! This is the K-step of D–K iteration: given a continuous generalized
//! plant `P` partitioned as
//!
//! ```text
//!        ┌ z ┐   ┌ P11 P12 ┐ ┌ w ┐
//!        │   │ = │         │ │   │
//!        └ y ┘   └ P21 P22 ┘ └ u ┘
//! ```
//!
//! find `K` (with `u = K·y`) such that `‖F_l(P, K)‖∞ < γ`. The plant must
//! satisfy the standard regularity assumptions (`D11 = 0`, `D22 = 0`,
//! `D12ᵀD12 = I`, `D21D21ᵀ = I`, `D12ᵀC1 = 0`, `B1D21ᵀ = 0`); the plant
//! builder in [`crate::plant`] constructs plants in exactly this form.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use yukta_linalg::eig::{eigenvalues, spectral_radius};
use yukta_linalg::riccati::care_unless;
use yukta_linalg::{Error, Mat, Moot, Result};

use crate::ss::StateSpace;

/// A generalized plant: a state-space system whose inputs are
/// `[w (exogenous); u (control)]` and outputs `[z (regulated); y (measured)]`.
#[derive(Debug, Clone)]
pub struct GenPlant {
    /// The underlying realization.
    pub sys: StateSpace,
    /// Number of exogenous inputs `w`.
    pub n_w: usize,
    /// Number of control inputs `u`.
    pub n_u: usize,
    /// Number of regulated outputs `z`.
    pub n_z: usize,
    /// Number of measured outputs `y`.
    pub n_y: usize,
}

/// The partition blocks of a generalized plant.
#[derive(Debug, Clone)]
pub struct PlantBlocks {
    /// State matrix.
    pub a: Mat,
    /// Exogenous input matrix.
    pub b1: Mat,
    /// Control input matrix.
    pub b2: Mat,
    /// Regulated output matrix.
    pub c1: Mat,
    /// Measured output matrix.
    pub c2: Mat,
    /// Feedthrough w→z.
    pub d11: Mat,
    /// Feedthrough u→z.
    pub d12: Mat,
    /// Feedthrough w→y.
    pub d21: Mat,
    /// Feedthrough u→y.
    pub d22: Mat,
}

impl GenPlant {
    /// Creates a generalized plant, checking that the channel counts add up.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `n_w + n_u` or `n_z + n_y`
    /// disagree with the realization.
    pub fn new(sys: StateSpace, n_w: usize, n_u: usize, n_z: usize, n_y: usize) -> Result<Self> {
        if sys.n_inputs() != n_w + n_u || sys.n_outputs() != n_z + n_y {
            return Err(Error::DimensionMismatch {
                op: "gen_plant",
                lhs: (sys.n_outputs(), sys.n_inputs()),
                rhs: (n_z + n_y, n_w + n_u),
            });
        }
        Ok(GenPlant {
            sys,
            n_w,
            n_u,
            n_z,
            n_y,
        })
    }

    /// Splits the realization into its nine partition blocks.
    pub fn blocks(&self) -> PlantBlocks {
        let n = self.sys.order();
        let b = self.sys.b();
        let c = self.sys.c();
        let d = self.sys.d();
        PlantBlocks {
            a: self.sys.a().clone(),
            b1: b.block(0, n, 0, self.n_w),
            b2: b.block(0, n, self.n_w, self.n_w + self.n_u),
            c1: c.block(0, self.n_z, 0, n),
            c2: c.block(self.n_z, self.n_z + self.n_y, 0, n),
            d11: d.block(0, self.n_z, 0, self.n_w),
            d12: d.block(0, self.n_z, self.n_w, self.n_w + self.n_u),
            d21: d.block(self.n_z, self.n_z + self.n_y, 0, self.n_w),
            d22: d.block(self.n_z, self.n_z + self.n_y, self.n_w, self.n_w + self.n_u),
        }
    }

    /// Closes the lower loop with controller `k` (`u = K·y`) and returns
    /// the closed-loop system from `w` to `z`.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `k` does not fit `(n_y → n_u)`.
    /// * [`Error::Singular`] if the algebraic loop `I − D_k·D22` is
    ///   singular.
    pub fn lft(&self, k: &StateSpace) -> Result<StateSpace> {
        self.lft_with(&self.blocks(), k)
    }

    /// [`GenPlant::lft`] against pre-extracted partition blocks, so
    /// γ-searches that close the loop once per candidate don't re-slice
    /// the realization every time. `pb` must be this plant's own
    /// [`GenPlant::blocks`] output.
    ///
    /// # Errors
    ///
    /// Same as [`GenPlant::lft`].
    pub fn lft_with(&self, pb: &PlantBlocks, k: &StateSpace) -> Result<StateSpace> {
        if k.n_inputs() != self.n_y || k.n_outputs() != self.n_u {
            return Err(Error::DimensionMismatch {
                op: "lft",
                lhs: (self.n_u, self.n_y),
                rhs: (k.n_outputs(), k.n_inputs()),
            });
        }
        let (np, nk) = (self.sys.order(), k.order());
        // u = (I − Dk D22)⁻¹ (Ck xk + Dk C2 xp + Dk D21 w)
        let loop_m = &Mat::identity(self.n_u) - &(k.d() * &pb.d22);
        let li = loop_m
            .inverse()
            .map_err(|_| Error::Singular { op: "lft" })?;
        let u_xk = &li * k.c();
        let u_xp = &li * &(k.d() * &pb.c2);
        let u_w = &li * &(k.d() * &pb.d21);
        // y = C2 xp + D21 w + D22 u
        let y_xp = &pb.c2 + &(&pb.d22 * &u_xp);
        let y_xk = &pb.d22 * &u_xk;
        let y_w = &pb.d21 + &(&pb.d22 * &u_w);
        // State dynamics.
        let a = Mat::block2x2(
            &(&pb.a + &(&pb.b2 * &u_xp)),
            &(&pb.b2 * &u_xk),
            &(k.b() * &y_xp),
            &(k.a() + &(k.b() * &y_xk)),
        )?;
        let b = Mat::vstack(&(&pb.b1 + &(&pb.b2 * &u_w)), &(k.b() * &y_w))?;
        // z = C1 xp + D11 w + D12 u
        let c = Mat::hstack(&(&pb.c1 + &(&pb.d12 * &u_xp)), &(&pb.d12 * &u_xk))?;
        let d = &pb.d11 + &(&pb.d12 * &u_w);
        debug_assert_eq!(a.rows(), np + nk);
        StateSpace::new(a, b, c, d, self.sys.ts())
    }
}

/// Verifies the DGKF regularity assumptions within tolerance `tol`.
///
/// # Errors
///
/// Returns [`Error::NoSolution`] naming the violated assumption.
pub fn check_dgkf_assumptions(p: &GenPlant, tol: f64) -> Result<()> {
    let pb = p.blocks();
    let fail = |why: &'static str| Error::NoSolution {
        op: "dgkf_assumptions",
        why,
    };
    if pb.d11.max_abs() > tol {
        return Err(fail(
            "D11 must be zero (use prefilters on exogenous inputs)",
        ));
    }
    if pb.d22.max_abs() > tol {
        return Err(fail(
            "D22 must be zero (strictly proper plant→measurement path)",
        ));
    }
    let dtd = &pb.d12.t() * &pb.d12;
    if !dtd.approx_eq(&Mat::identity(p.n_u), tol) {
        return Err(fail(
            "D12ᵀD12 must be the identity (normalize control weights)",
        ));
    }
    let ddt = &pb.d21 * &pb.d21.t();
    if !ddt.approx_eq(&Mat::identity(p.n_y), tol) {
        return Err(fail(
            "D21D21ᵀ must be the identity (normalize measurement noise)",
        ));
    }
    if (&pb.d12.t() * &pb.c1).max_abs() > tol {
        return Err(fail("D12ᵀC1 must be zero (no cross penalty)"));
    }
    if (&pb.b1 * &pb.d21.t()).max_abs() > tol {
        return Err(fail("B1D21ᵀ must be zero (independent noise channels)"));
    }
    Ok(())
}

/// An H∞ central-controller design, exposing the observer structure so
/// deployments can add anti-windup (propagate the observer with the
/// *applied*, possibly saturated/quantized input instead of the commanded
/// one).
#[derive(Debug, Clone)]
pub struct HinfDesign {
    /// The controller as a plain LTI system (`u = K·y`).
    pub k: StateSpace,
    /// Observer state matrix `Â∞`.
    pub a_hat: Mat,
    /// Measurement injection `B_k = −Z∞L∞`.
    pub bk: Mat,
    /// State feedback `F∞` (`u = F∞·x̂`).
    pub f: Mat,
    /// The plant's control-input matrix `B2` (for anti-windup rewiring).
    pub b2: Mat,
}

impl HinfDesign {
    /// The controller rewired for anti-windup: a system with inputs
    /// `[y (n_y); u_applied (n_u)]` and output `u_cmd`, whose observer
    /// propagates with the applied input:
    ///
    /// ```text
    /// x̂˙ = (Â − B2·F)·x̂ + B2·u_applied + B_k·y
    /// u_cmd = F·x̂
    /// ```
    ///
    /// When `u_applied == u_cmd` this is exactly the central controller.
    ///
    /// # Errors
    ///
    /// Propagates realization failures (should not occur).
    pub fn anti_windup(&self) -> Result<StateSpace> {
        let a = &self.a_hat - &(&self.b2 * &self.f);
        let b = Mat::hstack(&self.bk, &self.b2)?;
        let n_u = self.f.rows();
        let n_y = self.bk.cols();
        StateSpace::new(a, b, self.f.clone(), Mat::zeros(n_u, n_y + n_u), None)
    }
}

/// γ-independent products of the DGKF synthesis, computed once per plant
/// and shared by every γ candidate of a bisection. Everything here
/// depends only on the plant, not on γ: the partition blocks, the four
/// Gram products entering the two Riccati equations, and `Aᵀ`. Only
/// [`DgkfFactors::new`] builds one, and it checks the plant first, so
/// holding factors means the plant passed the synthesis assumptions.
#[derive(Debug, Clone)]
pub struct DgkfFactors {
    /// The plant's partition blocks.
    pb: PlantBlocks,
    /// `B2·B2ᵀ` (X-Riccati quadratic term).
    b2b2t: Mat,
    /// `B1·B1ᵀ` (X-Riccati γ-correction and Y-Riccati constant term).
    b1b1t: Mat,
    /// `C1ᵀ·C1` (X-Riccati constant term and Y-Riccati γ-correction).
    c1tc1: Mat,
    /// `C2ᵀ·C2` (Y-Riccati quadratic term).
    c2tc2: Mat,
    /// `Aᵀ` (Y-Riccati state matrix).
    at: Mat,
}

impl DgkfFactors {
    /// Checks that `p` is continuous and satisfies the DGKF assumptions
    /// (within `1e-6`), then extracts its γ-independent synthesis
    /// products.
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] if the plant is discrete or violates an
    /// assumption (see [`check_dgkf_assumptions`]).
    pub fn new(p: &GenPlant) -> Result<Self> {
        if p.sys.is_discrete() {
            return Err(Error::NoSolution {
                op: "hinf_syn",
                why: "generalized plant must be continuous (use d2c_tustin first)",
            });
        }
        check_dgkf_assumptions(p, 1e-6)?;
        let pb = p.blocks();
        let b2b2t = &pb.b2 * &pb.b2.t();
        let b1b1t = &pb.b1 * &pb.b1.t();
        let c1tc1 = &pb.c1.t() * &pb.c1;
        let c2tc2 = &pb.c2.t() * &pb.c2;
        let at = pb.a.t();
        Ok(DgkfFactors {
            pb,
            b2b2t,
            b1b1t,
            c1tc1,
            c2tc2,
            at,
        })
    }
}

/// Synthesizes the H∞ central controller at performance level `gamma`:
/// only the γ-dependent Riccati corrections, solves, and the controller
/// assembly run per call. `fac` must be `p`'s own [`DgkfFactors`].
///
/// # Errors
///
/// [`Error::NoSolution`] if `gamma` is infeasible (Riccati failure,
/// indefinite solution, or spectral-radius coupling violation).
pub fn hinf_syn(p: &GenPlant, fac: &DgkfFactors, gamma: f64) -> Result<HinfDesign> {
    syn_unless(p, fac, gamma, Moot::NEVER)
}

/// [`hinf_syn`] that gives up once `moot` is set: the two Riccati solves
/// poll it between Newton steps, and the synthesis between its stages.
fn syn_unless(p: &GenPlant, fac: &DgkfFactors, gamma: f64, moot: Moot<'_>) -> Result<HinfDesign> {
    let pb = &fac.pb;
    let n = pb.a.rows();
    let g2 = gamma * gamma;
    // X∞: AᵀX + XA − X(B2B2ᵀ − γ⁻²B1B1ᵀ)X + C1ᵀC1 = 0
    let gx = &fac.b2b2t - &fac.b1b1t.scale(1.0 / g2);
    let x = care_unless(&pb.a, &gx, &fac.c1tc1, moot).map_err(|_| Error::NoSolution {
        op: "hinf_syn",
        why: "X Riccati infeasible at this gamma",
    })?;
    // Y∞: AY + YAᵀ − Y(C2ᵀC2 − γ⁻²C1ᵀC1)Y + B1B1ᵀ = 0
    let gy = &fac.c2tc2 - &fac.c1tc1.scale(1.0 / g2);
    let y = care_unless(&fac.at, &gy, &fac.b1b1t, moot).map_err(|_| Error::NoSolution {
        op: "hinf_syn",
        why: "Y Riccati infeasible at this gamma",
    })?;
    moot.check("hinf_syn")?;
    // Positive semidefiniteness of both solutions.
    if !is_psd(&x) || !is_psd(&y) {
        return Err(Error::NoSolution {
            op: "hinf_syn",
            why: "Riccati solution indefinite at this gamma",
        });
    }
    // Coupling condition ρ(XY) < γ².
    let rho = spectral_radius(&(&x * &y)).unwrap_or(f64::INFINITY);
    if rho >= g2 * (1.0 - 1e-9) {
        return Err(Error::NoSolution {
            op: "hinf_syn",
            why: "spectral-radius coupling condition violated",
        });
    }
    // Central controller.
    let f = -&(&pb.b2.t() * &x);
    let l = -&(&y * &pb.c2.t());
    let z = (&Mat::identity(n) - &(&y * &x).scale(1.0 / g2))
        .inverse()
        .map_err(|_| Error::NoSolution {
            op: "hinf_syn",
            why: "Z∞ singular at this gamma",
        })?;
    let zl = &z * &l;
    let a_hat = &(&(&pb.a + &(&fac.b1b1t * &x).scale(1.0 / g2)) + &(&pb.b2 * &f)) + &(&zl * &pb.c2);
    let bk = -&zl;
    let ck = f;
    let dk = Mat::zeros(p.n_u, p.n_y);
    let k = StateSpace::new(a_hat.clone(), bk.clone(), ck.clone(), dk, None)?;
    // Sanity: the closed loop must be internally stable.
    moot.check("hinf_syn")?;
    let cl = p.lft_with(pb, &k)?;
    if !cl.is_stable()? {
        return Err(Error::NoSolution {
            op: "hinf_syn",
            why: "central controller failed internal stability check",
        });
    }
    Ok(HinfDesign {
        k,
        a_hat,
        bk,
        f: ck,
        b2: pb.b2.clone(),
    })
}

/// Expands an infeasible ceiling `g_hi` upward ×4 up to six times and
/// returns the first feasible level with its design.
fn expand_ceiling(
    syn: impl Fn(f64, Moot<'_>) -> Option<HinfDesign>,
    g_hi: f64,
) -> Result<(HinfDesign, f64)> {
    let mut g = g_hi;
    for _ in 0..6 {
        g *= 4.0;
        if let Some(k) = syn(g, Moot::NEVER) {
            return Ok((k, g));
        }
    }
    Err(Error::NoSolution {
        op: "hinf_bisect",
        why: "no feasible gamma found in the search range",
    })
}

/// Interior candidates per round of the γ-bisection: the bracket
/// `[lo, hi]` is split at the geometric quartiles, so one round shrinks
/// the bracket to a quarter of its (geometric) width — the resolution of
/// two halvings. A round probes the candidates in index order and stops
/// at the first feasible one.
const GAMMA_CANDIDATES: usize = 3;

/// A round's candidates: the geometric quartiles of `[lo, hi]`.
fn candidates(lo: f64, hi: f64) -> [f64; GAMMA_CANDIDATES] {
    let ratio = hi / lo;
    std::array::from_fn(|k| lo * ratio.powf((k + 1) as f64 / (GAMMA_CANDIDATES + 1) as f64))
}

/// What a γ-search spent and where it ended: the H∞ syntheses it
/// started, how many of them gave up because their result became moot
/// (a feasible candidate left of theirs, or a failed ceiling under a
/// speculative round), whether a warm bracket was confirmed, and the
/// final bracket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GammaSearch {
    /// Syntheses started.
    pub probes: u64,
    /// Syntheses that returned early, their result moot.
    pub cancelled: u64,
    /// Whether the warm bracket was confirmed, skipping the cold search.
    pub warm_hit: bool,
    /// The final bracket `(lo, hi)`: `hi` is the returned level, and `lo`
    /// is the last infeasible level probed (or the start's floor, if no
    /// candidate failed).
    pub bracket: (f64, f64),
}

/// Bisects γ between `g_lo` and `g_hi` (expanding `g_hi` upward if it is
/// infeasible) and returns the best controller found with its achieved
/// level. Each round probes up to three (`GAMMA_CANDIDATES`) interior γ
/// on parallel workers in index order, skipping any candidate right of
/// one found feasible and abandoning any such candidate in flight, so a
/// budget of `iters` halvings takes half as many rounds. The ceiling
/// probe shares its fan-out with round one. The result is bit-identical
/// on any number of workers. `fac` must be `p`'s own [`DgkfFactors`].
///
/// # Errors
///
/// Returns [`Error::NoSolution`] if even the (expanded) `g_hi` is
/// infeasible.
pub fn hinf_bisect(
    p: &GenPlant,
    fac: &DgkfFactors,
    g_lo: f64,
    g_hi: f64,
    iters: usize,
) -> Result<(HinfDesign, f64)> {
    hinf_bisect_counted(p, fac, g_lo, g_hi, iters, None).map(|(k, g, _)| (k, g))
}

/// [`hinf_bisect`] that reports what the search spent and its final
/// bracket, and first tries the `warm` bracket if one is given (see
/// [`bisect_on`]).
pub(crate) fn hinf_bisect_counted(
    p: &GenPlant,
    fac: &DgkfFactors,
    g_lo: f64,
    g_hi: f64,
    iters: usize,
    warm: Option<(f64, f64)>,
) -> Result<(HinfDesign, f64, GammaSearch)> {
    bisect_on(
        p,
        fac,
        g_lo,
        g_hi,
        iters,
        warm,
        crate::sweep::workers(1 + GAMMA_CANDIDATES),
    )
}

/// [`hinf_bisect`] probing on `workers` workers. A round reads nothing
/// right of its first feasible candidate, so every worker count makes the
/// same bracket decisions.
///
/// The ceiling `g_hi` is probed in one fan-out with the candidates round
/// one takes if it is feasible: the ceiling first (it always runs to the
/// end), then the three candidates, which stop at the first feasible one
/// and give up if the ceiling fails. A failed ceiling discards them and
/// expands as before. One worker runs the ceiling then the candidates in
/// order, the serial search.
///
/// # Warm bracket
///
/// `warm` is the final bracket `(lo, hi)` of a search with the same
/// `g_lo`, `g_hi` and `iters` on a nearby plant. One fan-out probes `lo`
/// then `hi` on this plant (a feasible `lo` makes `hi` moot, a failed `hi`
/// makes `lo` moot). If `hi` is feasible and `lo` is not, `hi` and its
/// design are returned at once; otherwise the cold search below runs,
/// unchanged. The two probes are then spent for nothing.
///
/// A confirmed warm bracket returns what the cold search would. The cold
/// search's path depends only on which of its candidates are feasible,
/// and every level it reads lies outside the open final cell `(lo, hi)`:
/// each infeasible one it reads is at most its final `lo`, each feasible
/// one at least its final `hi`. If feasibility is monotone in γ, an
/// infeasible `lo` and a feasible `hi` give every such level the same
/// answer on this plant, so the cold search here computes the same γ
/// floats, takes the same path and ends in the same cell, returning `hi`
/// with the design [`hinf_syn`] computes at `hi`. That synthesis is pure,
/// so the warm design is the cold one bit for bit. Where monotonicity
/// fails, the result is still a bracket verified on this plant at the
/// same resolution: `hi` feasible, `lo` infeasible.
fn bisect_on(
    p: &GenPlant,
    fac: &DgkfFactors,
    g_lo: f64,
    g_hi: f64,
    iters: usize,
    warm: Option<(f64, f64)>,
    workers: usize,
) -> Result<(HinfDesign, f64, GammaSearch)> {
    let (probes, cancelled) = (AtomicU64::new(0), AtomicU64::new(0));
    let syn = |gamma: f64, moot: Moot<'_>| {
        probes.fetch_add(1, Ordering::Relaxed);
        let k = syn_unless(p, fac, gamma, moot);
        if k.is_err() && moot.is_set() {
            cancelled.fetch_add(1, Ordering::Relaxed);
        }
        k.ok()
    };
    let spent = |warm_hit: bool, bracket: (f64, f64)| GammaSearch {
        probes: probes.load(Ordering::Relaxed),
        cancelled: cancelled.load(Ordering::Relaxed),
        warm_hit,
        bracket,
    };
    if let Some((lo, hi)) = warm {
        // `lo` gives up once `hi` has failed. Like the ceiling's, the flag
        // publishes no other data: a stale read only lets `lo` run longer.
        let hi_failed = AtomicBool::new(false);
        let mut ends = crate::sweep::first_feasible(2, workers, 0, |i, moot| {
            if i == 1 {
                let k = syn(hi, moot);
                hi_failed.store(k.is_none(), Ordering::Relaxed);
                return k;
            }
            let dropped = || hi_failed.load(Ordering::Relaxed);
            syn(lo, Moot::new(&dropped))
        });
        if let (None, Some(design)) = (ends[0].take(), ends[1].take()) {
            return Ok((design, hi, spent(true, (lo, hi))));
        }
    }
    let rounds = iters.div_ceil(2);
    let spec = candidates(g_lo.min(g_hi * 0.5), g_hi);
    // A hint for the speculative candidates, publishing no other data:
    // a stale read only lets a discarded candidate run a little longer.
    let ceiling_failed = AtomicBool::new(false);
    let speculative = if rounds > 0 { GAMMA_CANDIDATES } else { 0 };
    let mut first = crate::sweep::first_feasible(1 + speculative, workers, 1, |i, moot| {
        if i == 0 {
            let k = syn(g_hi, moot);
            ceiling_failed.store(k.is_none(), Ordering::Relaxed);
            return k;
        }
        let dropped = || moot.is_set() || ceiling_failed.load(Ordering::Relaxed);
        syn(spec[i - 1], Moot::new(&dropped))
    });
    let mut round_one = None;
    let mut best = match first.remove(0) {
        Some(k) => {
            round_one = Some(first);
            (k, g_hi)
        }
        None => expand_ceiling(syn, g_hi)?,
    };
    let mut hi = best.1;
    let mut lo = g_lo.min(hi * 0.5);
    for _ in 0..rounds {
        let cands = candidates(lo, hi);
        let results = round_one.take().unwrap_or_else(|| {
            crate::sweep::first_feasible(GAMMA_CANDIDATES, workers, 0, |i, moot| {
                syn(cands[i], moot)
            })
        });
        // The smallest feasible candidate becomes the new ceiling; its
        // infeasible left neighbour (if any) raises the floor.
        match results
            .into_iter()
            .enumerate()
            .find_map(|(j, r)| Some((j, r?)))
        {
            Some((j, design)) => {
                best = (design, cands[j]);
                hi = cands[j];
                if j > 0 {
                    lo = cands[j - 1];
                }
            }
            None => {
                lo = cands[GAMMA_CANDIDATES - 1];
            }
        }
        if hi / lo < 1.02 {
            break;
        }
    }
    Ok((best.0, best.1, spent(false, (lo, hi))))
}

/// Whether a symmetric matrix is positive semidefinite (within tolerance),
/// decided by its eigenvalues.
fn is_psd(m: &Mat) -> bool {
    let scale = m.fro_norm().max(1.0);
    match eigenvalues(&m.symmetrize()) {
        Ok(eigs) => eigs.iter().all(|e| e.re > -1e-7 * scale),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A textbook mixed-sensitivity problem:
    /// plant g(s) = 1/(s+1); z = [we·(w − g·u + noise-free); u]; y = w − g·u + ε n.
    /// Constructed to satisfy the DGKF assumptions exactly.
    fn simple_plant(we: f64) -> GenPlant {
        // States: xg (plant), xr (reference prefilter).
        // w = [r_raw; n], u = control.
        // ẋg = −xg + u          y_g = xg
        // ẋr = −2xr + 2r_raw    r_f = xr
        // z1 = we (xr − xg); z2 = u
        // y  = (xr − xg) + n
        let a = Mat::from_rows(&[&[-1.0, 0.0], &[0.0, -2.0]]);
        let b = Mat::from_rows(&[
            // w: r_raw, n     u
            &[0.0, 0.0, 1.0],
            &[2.0, 0.0, 0.0],
        ]);
        let c = Mat::from_rows(&[
            &[-we, we],   // z1
            &[0.0, 0.0],  // z2 = u via D12
            &[-1.0, 1.0], // y
        ]);
        let d = Mat::from_rows(&[&[0.0, 0.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let sys = StateSpace::new(a, b, c, d, None).unwrap();
        GenPlant::new(sys, 2, 1, 2, 1).unwrap()
    }

    #[test]
    fn assumptions_hold_for_test_plant() {
        check_dgkf_assumptions(&simple_plant(1.0), 1e-9).unwrap();
    }

    fn bisect(p: &GenPlant, iters: usize) -> (HinfDesign, f64) {
        hinf_bisect(p, &DgkfFactors::new(p).unwrap(), 0.1, 100.0, iters).unwrap()
    }

    #[test]
    fn synthesis_achieves_gamma_bound() {
        let p = simple_plant(1.0);
        let (k, gamma) = bisect(&p, 25);
        let cl = p.lft(&k.k).unwrap();
        assert!(cl.is_stable().unwrap());
        let norm = cl.hinf_norm_estimate(1e-3, 1e3, 400);
        assert!(norm <= gamma * 1.05, "‖Tzw‖∞ = {norm} exceeds γ = {gamma}");
    }

    #[test]
    fn tighter_weight_needs_larger_gamma() {
        let (_, g1) = bisect(&simple_plant(1.0), 25);
        let (_, g2) = bisect(&simple_plant(10.0), 25);
        assert!(g2 > g1, "γ(we=10) = {g2} should exceed γ(we=1) = {g1}");
    }

    #[test]
    fn infeasible_gamma_rejected() {
        let p = simple_plant(1.0);
        // γ far below the achievable optimum must fail.
        assert!(hinf_syn(&p, &DgkfFactors::new(&p).unwrap(), 1e-4).is_err());
    }

    #[test]
    fn controller_tracks_in_time_domain() {
        // Close the loop and verify the actual tracking behaviour: step the
        // reference and watch the plant output approach it.
        let p = simple_plant(5.0);
        let (k, gamma) = bisect(&p, 25);
        let kd = crate::c2d::c2d_tustin(&k.k, 0.01).unwrap();
        // Simulate: plant ẋg = −xg + u (Euler at 10 ms), y_meas = r − xg.
        let mut xg = 0.0f64;
        let mut kstate = vec![0.0; kd.order()];
        let r = 1.0;
        for _ in 0..5000 {
            let y_meas = r - xg;
            // controller step
            let mut u = 0.0;
            for (i, s) in kstate.iter().enumerate() {
                u += kd.c()[(0, i)] * s;
            }
            u += kd.d()[(0, 0)] * y_meas;
            let mut next = kd.a().matvec(&kstate).unwrap();
            for (i, n) in next.iter_mut().enumerate() {
                *n += kd.b()[(i, 0)] * y_meas;
            }
            kstate = next;
            xg += 0.01 * (-xg + u);
        }
        // Constant weights give no integral action: the guaranteed
        // steady-state error is ‖We·S‖∞ ≤ γ → |e| ≤ γ/we (plus prefilter
        // dynamics already settled). Check the synthesis delivers it.
        let max_err = gamma / 5.0;
        assert!(
            (xg - r).abs() <= max_err + 0.05,
            "tracked to {xg}, γ/we bound {max_err}"
        );
        assert!(xg > 0.3, "controller should move the plant toward r");
    }

    fn assert_mat_bits_eq(a: &Mat, b: &Mat, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what} shape");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} bits");
        }
    }

    fn assert_designs_bit_identical(a: &HinfDesign, b: &HinfDesign) {
        assert_mat_bits_eq(a.k.a(), b.k.a(), "A");
        assert_mat_bits_eq(a.k.b(), b.k.b(), "B");
        assert_mat_bits_eq(a.k.c(), b.k.c(), "C");
        assert_mat_bits_eq(a.k.d(), b.k.d(), "D");
        assert_mat_bits_eq(&a.a_hat, &b.a_hat, "a_hat");
        assert_mat_bits_eq(&a.bk, &b.bk, "bk");
        assert_mat_bits_eq(&a.f, &b.f, "f");
    }

    #[test]
    fn multi_bisect_bit_identical_to_serial_twin() {
        let p = simple_plant(1.0);
        let fac = DgkfFactors::new(&p).unwrap();
        let (ks, gs, _) = bisect_on(&p, &fac, 0.1, 100.0, 20, None, 1).unwrap();
        for workers in 2..=4 {
            let (kp, gp, _) = bisect_on(&p, &fac, 0.1, 100.0, 20, None, workers).unwrap();
            assert_eq!(gp.to_bits(), gs.to_bits(), "{workers} workers");
            assert_designs_bit_identical(&kp, &ks);
        }
    }

    #[test]
    fn failed_ceiling_discards_the_speculative_round() {
        // γ = 0.06 is far below what the plant achieves: the ceiling
        // fails, so round one's three speculative candidates are moot
        // before they start (one worker runs them after the ceiling),
        // and the search expands ×4 to 0.24, 0.96, … as the serial
        // search always has.
        let p = simple_plant(1.0);
        let fac = DgkfFactors::new(&p).unwrap();
        let (_, gamma, spent) = bisect_on(&p, &fac, 0.05, 0.06, 20, None, 1).unwrap();
        assert!(gamma > 0.06);
        assert_eq!(spent.cancelled, GAMMA_CANDIDATES as u64, "{spent:?}");
        // A feasible ceiling on one worker abandons nothing.
        let (_, _, spent) = bisect_on(&p, &fac, 0.05, 64.0, 20, None, 1).unwrap();
        assert_eq!(spent.cancelled, 0, "{spent:?}");
    }

    proptest! {
        /// The γ-bisection on 2–4 workers and on the host's workers is
        /// bit-identical to the same search on one worker: same γ, same
        /// controller realization, for any error weight (i.e. any
        /// achievable γ level) and for ceilings above the achievable
        /// level and below it (where the speculative round one is
        /// discarded and the ceiling expands).
        #[test]
        fn parallel_gamma_bisection_bit_identical_to_serial(
            we in 0.5..15.0f64,
            g_hi in prop_oneof![Just(64.0), 0.06..64.0f64],
        ) {
            let p = simple_plant(we);
            let fac = DgkfFactors::new(&p).unwrap();
            let (ks, gs, _) = bisect_on(&p, &fac, 0.05, g_hi, 20, None, 1).unwrap();
            let (kp, gp) = hinf_bisect(&p, &fac, 0.05, g_hi, 20).unwrap();
            prop_assert_eq!(gp.to_bits(), gs.to_bits());
            assert_designs_bit_identical(&kp, &ks);
            for workers in 2..=4 {
                let (kp, gp, _) = bisect_on(&p, &fac, 0.05, g_hi, 20, None, workers).unwrap();
                prop_assert_eq!(gp.to_bits(), gs.to_bits(), "{} workers", workers);
                assert_designs_bit_identical(&kp, &ks);
            }
        }
    }

    proptest! {
        /// A warm search given the cold search's own final bracket
        /// confirms it with two probes and returns the cold `(K, γ)` bit
        /// for bit, on any number of workers; a bracket one lattice cell
        /// above or below it misses, and one taken from another weight's
        /// plant may hit or miss, and all of them return the cold result.
        /// Ceilings below the achievable level (`0.06`) make the cold
        /// search expand before it bisects.
        #[test]
        fn warm_bracket_returns_the_cold_result(
            we in 0.5..15.0f64,
            other in 0.5..15.0f64,
            g_hi in prop_oneof![Just(64.0), Just(0.06), 0.06..64.0f64],
        ) {
            let p = simple_plant(we);
            let fac = DgkfFactors::new(&p).unwrap();
            let (kc, gc, cold) = bisect_on(&p, &fac, 0.05, g_hi, 20, None, 1).unwrap();
            prop_assert!(!cold.warm_hit);
            let (lo, hi) = cold.bracket;
            prop_assert_eq!(hi.to_bits(), gc.to_bits());
            prop_assert!(cold.probes > 2, "{:?}", cold);
            for workers in 1..=4 {
                let (kw, gw, warm) =
                    bisect_on(&p, &fac, 0.05, g_hi, 20, Some((lo, hi)), workers).unwrap();
                prop_assert!(warm.warm_hit, "{} workers: {:?}", workers, warm);
                prop_assert_eq!(warm.probes, 2);
                prop_assert_eq!(warm.bracket, (lo, hi));
                prop_assert_eq!(gw.to_bits(), gc.to_bits(), "{} workers", workers);
                assert_designs_bit_identical(&kw, &kc);
            }
            let donor = simple_plant(other);
            let donor_fac = DgkfFactors::new(&donor).unwrap();
            let (_, _, from_donor) = bisect_on(&donor, &donor_fac, 0.05, g_hi, 20, None, 1).unwrap();
            let cell = hi / lo;
            for (bracket, misses) in [
                ((hi, hi * cell), true),
                ((lo / cell, lo), true),
                (from_donor.bracket, false),
            ] {
                let (kw, gw, warm) = bisect_on(&p, &fac, 0.05, g_hi, 20, Some(bracket), 2).unwrap();
                prop_assert!(!(misses && warm.warm_hit), "{:?} hit", bracket);
                prop_assert_eq!(gw.to_bits(), gc.to_bits(), "{:?}", bracket);
                assert_designs_bit_identical(&kw, &kc);
            }
        }
    }

    #[test]
    fn multi_bisect_achieves_gamma_bound() {
        let p = simple_plant(1.0);
        let (k, gamma) = bisect(&p, 20);
        let cl = p.lft(&k.k).unwrap();
        assert!(cl.is_stable().unwrap());
        let norm = cl.hinf_norm_estimate(1e-3, 1e3, 400);
        assert!(norm <= gamma * 1.05, "‖Tzw‖∞ = {norm} exceeds γ = {gamma}");
    }

    #[test]
    fn factors_reject_plants_outside_the_assumptions() {
        let ok = simple_plant(2.0);
        let op = |p: GenPlant| match DgkfFactors::new(&p) {
            Err(Error::NoSolution { op, .. }) => op,
            other => panic!("expected a typed rejection, got {other:?}"),
        };
        let discrete = crate::c2d::c2d_tustin(&ok.sys, 0.1).unwrap();
        assert_eq!(op(GenPlant::new(discrete, 2, 1, 2, 1).unwrap()), "hinf_syn");
        let mut d = ok.sys.d().clone();
        d[(0, 0)] = 0.5; // D11 ≠ 0
        let (a, b, c) = (ok.sys.a().clone(), ok.sys.b().clone(), ok.sys.c().clone());
        let d11 = StateSpace::new(a, b, c, d, None).unwrap();
        assert_eq!(
            op(GenPlant::new(d11, 2, 1, 2, 1).unwrap()),
            "dgkf_assumptions"
        );
        assert!(DgkfFactors::new(&ok).is_ok());
    }

    #[test]
    fn lft_dimensions_and_static_case() {
        // Static P: z = w + u; y = w. K = static gain −0.5 → z = w − 0.5w.
        let d = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 0.0]]);
        let sys = StateSpace::from_gain(d, None);
        let p = GenPlant::new(sys, 1, 1, 1, 1).unwrap();
        let k = StateSpace::from_gain(Mat::filled(1, 1, -0.5), None);
        let cl = p.lft(&k).unwrap();
        assert!((cl.d()[(0, 0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lft_rejects_mismatched_controller() {
        let p = simple_plant(1.0);
        let k = StateSpace::from_gain(Mat::zeros(2, 2), None);
        assert!(p.lft(&k).is_err());
    }

    #[test]
    fn gen_plant_validates_partition() {
        let sys = StateSpace::from_gain(Mat::zeros(2, 2), None);
        assert!(GenPlant::new(sys, 3, 1, 1, 1).is_err());
    }
}
