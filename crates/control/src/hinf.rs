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
/// returns the first feasible level with what `feasible` found there.
fn expand_ceiling<T>(feasible: impl Fn(f64) -> Option<T>, g_hi: f64) -> Result<(T, f64)> {
    let mut g = g_hi;
    for _ in 0..6 {
        g *= 4.0;
        if let Some(k) = feasible(g) {
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

/// Most lattice leaves a hinted γ-search walks before it gives up and
/// runs the cold search. The longest walk on the deployed designs and
/// the `figures` designs is 3 leaves.
pub(crate) const HINT_WALK_CAP: u64 = 4;

/// A round's candidates: the geometric quartiles of `[lo, hi]`.
fn candidates(lo: f64, hi: f64) -> [f64; GAMMA_CANDIDATES] {
    let ratio = hi / lo;
    std::array::from_fn(|k| lo * ratio.powf((k + 1) as f64 / (GAMMA_CANDIDATES + 1) as f64))
}

/// The bisection rounds from the bracket `(lo, hi]`, whose `hi` carries
/// `best`: `round` returns the first feasible of a round's candidates
/// (its index and what was found there), or `None` if all of them fail.
/// The search and its replay ([`leaf`]) both run this loop, so they
/// compute the same candidate floats. Returns the last feasible find
/// and the final bracket.
fn descend<T>(
    mut lo: f64,
    mut hi: f64,
    rounds: usize,
    mut best: T,
    mut round: impl FnMut([f64; GAMMA_CANDIDATES]) -> Option<(usize, T)>,
) -> (T, (f64, f64)) {
    for _ in 0..rounds {
        let cands = candidates(lo, hi);
        // The smallest feasible candidate becomes the new ceiling; its
        // infeasible left neighbour (if any) raises the floor.
        match round(cands) {
            Some((j, found)) => {
                best = found;
                hi = cands[j];
                if j > 0 {
                    lo = cands[j - 1];
                }
            }
            None => lo = cands[GAMMA_CANDIDATES - 1],
        }
        if hi / lo < 1.02 {
            break;
        }
    }
    (best, (lo, hi))
}

/// The final bracket `(lo, hi]` of the cold search from `[g_lo, g_hi]`
/// with `iters` halvings on a plant where exactly the levels `γ ≥ t` are
/// feasible: the lattice leaf that contains `t`. It replays the search's
/// ceiling, expansion and rounds with that threshold in place of
/// synthesis, so it costs no H∞ probe. `None` if `t` lies above every
/// expanded ceiling.
fn leaf(g_lo: f64, g_hi: f64, iters: usize, t: f64) -> Option<(f64, f64)> {
    let feasible = |g: f64| (g >= t).then_some(());
    let hi = match feasible(g_hi) {
        Some(()) => g_hi,
        None => expand_ceiling(feasible, g_hi).ok()?.1,
    };
    let ((), bracket) = descend(g_lo.min(hi * 0.5), hi, iters.div_ceil(2), (), |cands| {
        cands.iter().position(|&g| g >= t).map(|j| (j, ()))
    });
    Some(bracket)
}

/// What a γ-search spent and how its hint fared: the H∞ syntheses it
/// started, how many of them gave up because their result became moot
/// (a feasible candidate left of theirs, or a failed ceiling under a
/// speculative round), whether the hint verified a leaf so the cold
/// search never ran, and how many leaves the hint walked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GammaSearch {
    /// Syntheses started.
    pub probes: u64,
    /// Syntheses that returned early, their result moot.
    pub cancelled: u64,
    /// Whether the hint verified a leaf, skipping the cold search.
    pub hint_hit: bool,
    /// Leaf steps the hint walked past its own leaf.
    pub walk: u64,
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

/// [`hinf_bisect`] that reports what the search spent, and first walks
/// the lattice from the `hint` γ if one is given (see [`bisect_on`]).
pub(crate) fn hinf_bisect_counted(
    p: &GenPlant,
    fac: &DgkfFactors,
    g_lo: f64,
    g_hi: f64,
    iters: usize,
    hint: Option<f64>,
) -> Result<(HinfDesign, f64, GammaSearch)> {
    let workers = crate::sweep::workers(1 + GAMMA_CANDIDATES);
    bisect_on(p, fac, g_lo, g_hi, iters, hint, workers).map(|(k, g, spent, _)| (k, g, spent))
}

/// [`hinf_bisect`] probing on `workers` workers, returning also what it
/// spent and its final bracket `(lo, hi)`: `hi` is the returned level,
/// and `lo` the last infeasible level probed (or the start's floor, if no
/// candidate failed). A round reads nothing right of its first feasible
/// candidate, so every worker count makes the same bracket decisions.
///
/// The ceiling `g_hi` is probed in one fan-out with the candidates round
/// one takes if it is feasible: the ceiling first (it always runs to the
/// end), then the three candidates, which stop at the first feasible one
/// and give up if the ceiling fails. A failed ceiling discards them and
/// expands as before. One worker runs the ceiling then the candidates in
/// order, the serial search.
///
/// # γ hint
///
/// `hint` is an estimate γ̂ of the level this search will return, for a
/// search with the same `g_lo`, `g_hi` and `iters`. [`leaf`] computes the
/// lattice leaf `(lo, hi]` that holds γ̂ without probing, and one fan-out
/// probes `lo` then `hi` on this plant (a feasible `lo` makes `hi` moot,
/// a failed `hi` makes `lo` moot; a `lo` that is the unprobed floor is
/// not probed). If `hi` is feasible and `lo` is not, `hi` and its design
/// are returned. Otherwise the search walks one leaf at a time, one probe
/// per step: down to the leaf below (`leaf` at `lo`, whose `hi` is the
/// feasible `lo`) when `lo` was feasible, probing its `lo`; up to the
/// leaf above (`leaf` at the float after `hi`, whose `lo` is the failed
/// `hi`) when `hi` failed, probing its `hi`. After [`HINT_WALK_CAP`]
/// steps, or when γ̂ or a step's threshold is not below `g_hi`, or γ̂ is
/// not finite, the cold search below runs, unchanged, and the probes
/// were spent for nothing.
///
/// A verified leaf returns what the cold search would. The cold search's
/// path depends only on which levels it reads are feasible, and every
/// level it reads lies outside the open leaf `(lo, hi)` it ends in:
/// each infeasible one it reads is at most its final `lo`, each feasible
/// one at least its final `hi`, and a floor `lo` is never read. Below
/// `g_hi` the replay reads the ceiling as feasible, as this plant does
/// once `hi` is. If feasibility is monotone in γ, an infeasible `lo` and
/// a feasible `hi` give every level the replayed path reads the same
/// answer on this plant, so the cold search here computes the same γ
/// floats, takes the same path and ends in the same leaf, returning `hi`
/// with the design [`hinf_syn`] computes at `hi`. That synthesis is pure,
/// so the hinted design is the cold one bit for bit. Where monotonicity
/// fails, the result is still a leaf verified on this plant at the same
/// resolution: `hi` feasible, `lo` infeasible.
fn bisect_on(
    p: &GenPlant,
    fac: &DgkfFactors,
    g_lo: f64,
    g_hi: f64,
    iters: usize,
    hint: Option<f64>,
    workers: usize,
) -> Result<(HinfDesign, f64, GammaSearch, (f64, f64))> {
    let (probes, cancelled) = (AtomicU64::new(0), AtomicU64::new(0));
    let syn = |gamma: f64, moot: Moot<'_>| {
        probes.fetch_add(1, Ordering::Relaxed);
        let k = syn_unless(p, fac, gamma, moot);
        if k.is_err() && moot.is_set() {
            cancelled.fetch_add(1, Ordering::Relaxed);
        }
        k.ok()
    };
    let mut walk = 0;
    let spent = |hint_hit: bool, walk: u64| GammaSearch {
        probes: probes.load(Ordering::Relaxed),
        cancelled: cancelled.load(Ordering::Relaxed),
        hint_hit,
        walk,
    };
    let floor = g_lo.min(g_hi * 0.5);
    if let Some(t) = hint.filter(|t| t.is_finite() && *t < g_hi) {
        let replay =
            |t: f64| leaf(g_lo, g_hi, iters, t).expect("a threshold below g_hi has a leaf");
        let start = replay(t);
        if let Some((design, bracket)) =
            walk_leaves(&syn, replay, start, floor, g_hi, workers, &mut walk)
        {
            return Ok((design, bracket.1, spent(true, walk), bracket));
        }
    }
    let rounds = iters.div_ceil(2);
    let spec = candidates(floor, g_hi);
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
    let (start, hi) = match first.remove(0) {
        Some(k) => {
            round_one = Some(first);
            (k, g_hi)
        }
        None => expand_ceiling(|g| syn(g, Moot::NEVER), g_hi)?,
    };
    let (design, bracket) = descend(g_lo.min(hi * 0.5), hi, rounds, start, |cands| {
        let results = round_one.take().unwrap_or_else(|| {
            crate::sweep::first_feasible(GAMMA_CANDIDATES, workers, 0, |i, moot| {
                syn(cands[i], moot)
            })
        });
        results
            .into_iter()
            .enumerate()
            .find_map(|(j, r)| Some((j, r?)))
    });
    Ok((design, bracket.1, spent(false, walk), bracket))
}

/// The leaf walk of a hinted search (see [`bisect_on`]) from the hint's
/// leaf `(lo, hi)`: `replay` gives the leaf at a threshold below
/// `g_hi`, `floor` is the start's unprobed floor, and `walk` counts the
/// leaf steps. Returns the design at the verified leaf's `hi` with the
/// leaf, or `None` when the cold search must run.
fn walk_leaves(
    syn: &(impl Fn(f64, Moot<'_>) -> Option<HinfDesign> + Sync),
    replay: impl Fn(f64) -> (f64, f64),
    (mut lo, mut hi): (f64, f64),
    floor: f64,
    g_hi: f64,
    workers: usize,
    walk: &mut u64,
) -> Option<(HinfDesign, (f64, f64))> {
    // Where the hint's own leaf points: `Some` with the design at a
    // feasible `lo` (walk down), `None` when `hi` failed (walk up).
    let mut below = if lo == floor {
        match syn(hi, Moot::NEVER) {
            Some(design) => return Some((design, (lo, hi))),
            None => None,
        }
    } else {
        // `lo` gives up once `hi` has failed. Like the ceiling's, the
        // flag publishes no other data: a stale read only lets `lo` run
        // longer.
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
        match (ends[0].take(), ends[1].take()) {
            (None, Some(design)) => return Some((design, (lo, hi))),
            (feasible_lo, _) => feasible_lo,
        }
    };
    while *walk < HINT_WALK_CAP {
        *walk += 1;
        below = match below {
            // The leaf below ends at the feasible `lo`.
            Some(design) => {
                let next = replay(lo);
                debug_assert_eq!(next.1, lo);
                (lo, hi) = next;
                if lo == floor {
                    return Some((design, (lo, hi)));
                }
                match syn(lo, Moot::NEVER) {
                    None => return Some((design, (lo, hi))),
                    feasible_lo => feasible_lo,
                }
            }
            // The leaf above starts at the failed `hi`.
            None => {
                let t = hi.next_up();
                if t >= g_hi {
                    return None;
                }
                let next = replay(t);
                debug_assert_eq!(next.0, hi);
                (lo, hi) = next;
                match syn(hi, Moot::NEVER) {
                    Some(design) => return Some((design, (lo, hi))),
                    None => None,
                }
            }
        };
    }
    None
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
        let (ks, gs, ..) = bisect_on(&p, &fac, 0.1, 100.0, 20, None, 1).unwrap();
        for workers in 2..=4 {
            let (kp, gp, ..) = bisect_on(&p, &fac, 0.1, 100.0, 20, None, workers).unwrap();
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
        let (_, gamma, spent, _) = bisect_on(&p, &fac, 0.05, 0.06, 20, None, 1).unwrap();
        assert!(gamma > 0.06);
        assert_eq!(spent.cancelled, GAMMA_CANDIDATES as u64, "{spent:?}");
        // A feasible ceiling on one worker abandons nothing.
        let (_, _, spent, _) = bisect_on(&p, &fac, 0.05, 64.0, 20, None, 1).unwrap();
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
            let (ks, gs, ..) = bisect_on(&p, &fac, 0.05, g_hi, 20, None, 1).unwrap();
            let (kp, gp) = hinf_bisect(&p, &fac, 0.05, g_hi, 20).unwrap();
            prop_assert_eq!(gp.to_bits(), gs.to_bits());
            assert_designs_bit_identical(&kp, &ks);
            for workers in 2..=4 {
                let (kp, gp, ..) = bisect_on(&p, &fac, 0.05, g_hi, 20, None, workers).unwrap();
                prop_assert_eq!(gp.to_bits(), gs.to_bits(), "{} workers", workers);
                assert_designs_bit_identical(&kp, &ks);
            }
        }
    }

    proptest! {
        /// A search hinted anywhere returns the cold `(K, γ)` bit for bit
        /// on 1–4 workers: random hints, the cold leaf's bounds and their
        /// neighbouring floats, a hint below the floor, hints at or above
        /// the ceiling and non-finite ones. A hint inside the cold leaf
        /// hits with at most two probes; one just past either bound walks
        /// one leaf back; any hit verifies the cold leaf at no more than
        /// two probes per walked leaf plus two, and hints the walk cannot
        /// use run the cold search alone. Ceilings below the achievable
        /// level (`0.06`) make the cold search expand, so every hint
        /// below them walks up to the ceiling and falls back.
        #[test]
        fn hinted_search_returns_the_cold_result(
            we in 0.5..15.0f64,
            g_hi in prop_oneof![Just(64.0), Just(0.06), 0.06..64.0f64],
            random in 0.01..200.0f64,
        ) {
            let p = simple_plant(we);
            let fac = DgkfFactors::new(&p).unwrap();
            let (kc, gc, cold, (lo, hi)) = bisect_on(&p, &fac, 0.05, g_hi, 20, None, 1).unwrap();
            prop_assert!(!cold.hint_hit && cold.walk == 0, "{:?}", cold);
            prop_assert_eq!(hi.to_bits(), gc.to_bits());
            prop_assert!(cold.probes > 2, "{:?}", cold);
            let floor = 0.05f64.min(g_hi * 0.5);
            let hints = [
                random,
                lo,
                lo.next_down(),
                lo.next_up(),
                hi,
                hi.next_down(),
                hi.next_up(),
                floor * 0.5,
                g_hi,
                g_hi * 2.0,
                f64::NAN,
                f64::INFINITY,
            ];
            for hint in hints {
                for workers in 1..=4 {
                    let (kw, gw, warm, bracket) =
                        bisect_on(&p, &fac, 0.05, g_hi, 20, Some(hint), workers).unwrap();
                    let at = format!("hint {hint}, {workers} workers: {warm:?}");
                    prop_assert_eq!(gw.to_bits(), gc.to_bits(), "{}", at);
                    assert_designs_bit_identical(&kw, &kc);
                    prop_assert!(warm.walk <= HINT_WALK_CAP, "{}", at);
                    if warm.hint_hit {
                        prop_assert!(warm.probes <= 2 + warm.walk, "{}", at);
                        prop_assert_eq!(bracket.0.to_bits(), lo.to_bits(), "{}", at);
                    }
                    if hint.is_nan() || hint >= g_hi {
                        prop_assert!(!warm.hint_hit && warm.walk == 0, "{}", at);
                    } else if lo < hint && hint <= hi {
                        prop_assert!(warm.hint_hit && warm.walk == 0, "{}", at);
                        prop_assert!(warm.probes <= 2, "{}", at);
                    } else if hint == hi.next_up() || (hint == lo && lo != floor) {
                        prop_assert!(warm.hint_hit && warm.walk == 1, "{}", at);
                    }
                }
            }
        }
    }

    proptest! {
        /// The replay at the cold search's own γ ends in the cold
        /// search's final bracket, bit for bit, for any number of
        /// halvings and also where the ceiling expands.
        #[test]
        fn replay_at_the_cold_gamma_reproduces_the_cold_bracket(
            we in 0.5..15.0f64,
            g_hi in prop_oneof![Just(64.0), Just(0.06), 0.06..64.0f64],
            iters in 0..24usize,
        ) {
            let p = simple_plant(we);
            let fac = DgkfFactors::new(&p).unwrap();
            let (_, gc, _, (lo, hi)) = bisect_on(&p, &fac, 0.05, g_hi, iters, None, 1).unwrap();
            let (rlo, rhi) = leaf(0.05, g_hi, iters, gc).unwrap();
            prop_assert_eq!((rlo.to_bits(), rhi.to_bits()), (lo.to_bits(), hi.to_bits()));
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
