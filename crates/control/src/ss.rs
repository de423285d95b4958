//! Linear time-invariant systems in state-space form.
//!
//! [`StateSpace`] carries the `(A, B, C, D)` realization plus a time domain
//! tag: `ts = Some(T)` for discrete systems sampled at `T` seconds, `None`
//! for continuous systems. All of Yukta's plants, weights, and controllers
//! are `StateSpace` values; synthesis is a pipeline of compositions on them.

use std::sync::{Arc, OnceLock};

use yukta_linalg::eig::{eigenvalues, max_real_part, spectral_radius};
use yukta_linalg::freq::FreqSystem;
use yukta_linalg::{C64, CMat, Error, Mat, Result};

/// A (possibly non-minimal) state-space realization
///
/// ```text
/// x⁺ = A·x + B·u        (or ẋ = A·x + B·u when continuous)
/// y  = C·x + D·u
/// ```
///
/// # Examples
///
/// ```
/// use yukta_control::ss::StateSpace;
/// use yukta_linalg::Mat;
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// // A discrete one-pole low-pass filter.
/// let sys = StateSpace::new(
///     Mat::filled(1, 1, 0.9),
///     Mat::filled(1, 1, 0.1),
///     Mat::identity(1),
///     Mat::zeros(1, 1),
///     Some(0.5),
/// )?;
/// assert!(sys.is_stable()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StateSpace {
    a: Mat,
    b: Mat,
    c: Mat,
    d: Mat,
    ts: Option<f64>,
    /// Lazily built Hessenberg preprocessing for fast frequency sweeps.
    /// Derived entirely from `(a, b, c, d)`, so it is excluded from
    /// equality; clones share the built value.
    freq_cache: OnceLock<Arc<FreqSystem>>,
}

impl PartialEq for StateSpace {
    fn eq(&self, other: &Self) -> bool {
        self.a == other.a
            && self.b == other.b
            && self.c == other.c
            && self.d == other.d
            && self.ts == other.ts
    }
}

impl StateSpace {
    /// Creates a system from its matrices, validating dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the matrices do not conform
    /// (`A` square `n×n`, `B` `n×m`, `C` `p×n`, `D` `p×m`).
    pub fn new(a: Mat, b: Mat, c: Mat, d: Mat, ts: Option<f64>) -> Result<Self> {
        let n = a.rows();
        if !a.is_square() || b.rows() != n || c.cols() != n || d.shape() != (c.rows(), b.cols()) {
            return Err(Error::DimensionMismatch {
                op: "statespace_new",
                lhs: a.shape(),
                rhs: (c.rows(), b.cols()),
            });
        }
        Ok(StateSpace {
            a,
            b,
            c,
            d,
            ts,
            freq_cache: OnceLock::new(),
        })
    }

    /// A static (memoryless) gain `y = D·u`.
    pub fn from_gain(d: Mat, ts: Option<f64>) -> Self {
        let m = d.cols();
        let p = d.rows();
        StateSpace {
            a: Mat::zeros(0, 0),
            b: Mat::zeros(0, m),
            c: Mat::zeros(p, 0),
            d,
            ts,
            freq_cache: OnceLock::new(),
        }
    }

    /// The state matrix `A`.
    pub fn a(&self) -> &Mat {
        &self.a
    }

    /// The input matrix `B`.
    pub fn b(&self) -> &Mat {
        &self.b
    }

    /// The output matrix `C`.
    pub fn c(&self) -> &Mat {
        &self.c
    }

    /// The feedthrough matrix `D`.
    pub fn d(&self) -> &Mat {
        &self.d
    }

    /// Sample period for discrete systems; `None` when continuous.
    pub fn ts(&self) -> Option<f64> {
        self.ts
    }

    /// Whether this is a discrete-time system.
    pub fn is_discrete(&self) -> bool {
        self.ts.is_some()
    }

    /// State dimension.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// Number of inputs.
    pub fn n_inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.c.rows()
    }

    /// Stability: spectral radius < 1 for discrete, max real part < 0 for
    /// continuous. Zero-order (static) systems are trivially stable.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue failures.
    pub fn is_stable(&self) -> Result<bool> {
        if self.order() == 0 {
            return Ok(true);
        }
        if self.is_discrete() {
            Ok(spectral_radius(&self.a)? < 1.0)
        } else {
            Ok(max_real_part(&self.a)? < 0.0)
        }
    }

    /// Poles (eigenvalues of `A`).
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue failures.
    pub fn poles(&self) -> Result<Vec<C64>> {
        eigenvalues(&self.a)
    }

    /// Frequency response `G(λ) = C·(λI − A)⁻¹·B + D` where `λ = e^{jωT}`
    /// for discrete systems and `λ = jω` for continuous ones.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if `λ` is a pole of the system.
    pub fn freq_response(&self, omega: f64) -> Result<CMat> {
        let lambda = match self.ts {
            Some(t) => C64::cis(omega * t),
            None => C64::new(0.0, omega),
        };
        self.eval_at(lambda)
    }

    /// The Hessenberg-preconditioned form of this realization, built
    /// lazily on first use and cached (clones made after that share it).
    ///
    /// Sweep loops should grab this once and evaluate through
    /// [`yukta_linalg::freq::FreqEvaluator`]s; one-shot evaluations can
    /// just call [`StateSpace::eval_at`].
    pub fn freq_system(&self) -> &Arc<FreqSystem> {
        self.freq_cache.get_or_init(|| {
            Arc::new(
                FreqSystem::new(&self.a, &self.b, &self.c, &self.d)
                    .expect("StateSpace dimensions are validated on construction"),
            )
        })
    }

    /// Evaluates the transfer matrix at an arbitrary complex point `λ`.
    ///
    /// Uses the cached Hessenberg form ([`StateSpace::freq_system`]):
    /// after the first call on a realization, each evaluation costs one
    /// O(n²) structured solve instead of an O(n³) dense LU.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if `λI − A` is singular.
    pub fn eval_at(&self, lambda: C64) -> Result<CMat> {
        if self.order() == 0 {
            return Ok(CMat::from_real(&self.d));
        }
        self.freq_system().evaluator().eval(lambda)
    }

    /// Reference implementation of [`StateSpace::eval_at`]: a dense
    /// complex LU on the original `(A, B, C, D)`, one fresh factorization
    /// per call. Kept as the ground truth the Hessenberg fast path is
    /// differentially tested against; prefer `eval_at` everywhere else.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if `λI − A` is singular.
    pub fn eval_at_reference(&self, lambda: C64) -> Result<CMat> {
        let n = self.order();
        if n == 0 {
            return Ok(CMat::from_real(&self.d));
        }
        let mut li_a = CMat::from_real(&self.a.scale(-1.0));
        for i in 0..n {
            let v = li_a.get(i, i);
            li_a.set(i, i, v + lambda);
        }
        let x = li_a.solve(&CMat::from_real(&self.b))?;
        let g = CMat::from_real(&self.c).matmul(&x)?;
        Ok(g.add(&CMat::from_real(&self.d)))
    }

    /// DC gain: `G(1)` for discrete, `G(0)` for continuous systems.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if the system has a pole at DC.
    pub fn dc_gain(&self) -> Result<Mat> {
        let g = match self.ts {
            Some(_) => self.eval_at(C64::ONE)?,
            None => self.eval_at(C64::ZERO)?,
        };
        let mut out = Mat::zeros(g.rows(), g.cols());
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                out[(i, j)] = g.get(i, j).re;
            }
        }
        Ok(out)
    }

    /// Series composition: the signal flows through `self` first, then
    /// through `next` (i.e. the result is `next ∘ self`, transfer matrix
    /// `G_next · G_self`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if output/input counts differ
    /// or the time domains are incompatible.
    pub fn series(&self, next: &StateSpace) -> Result<StateSpace> {
        if self.n_outputs() != next.n_inputs() {
            return Err(Error::DimensionMismatch {
                op: "series",
                lhs: (self.n_outputs(), 0),
                rhs: (next.n_inputs(), 0),
            });
        }
        check_domains("series", self, next)?;
        // x = [x_self; x_next]
        let a = Mat::block2x2(
            &self.a,
            &Mat::zeros(self.order(), next.order()),
            &(&next.b * &self.c),
            &next.a,
        )?;
        let b = Mat::vstack(&self.b, &(&next.b * &self.d))?;
        let c = Mat::hstack(&(&next.d * &self.c), &next.c)?;
        let d = &next.d * &self.d;
        StateSpace::new(a, b, c, d, self.ts.or(next.ts))
    }

    /// Parallel composition: same input drives both; outputs add.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on incompatible I/O counts or
    /// time domains.
    pub fn parallel(&self, other: &StateSpace) -> Result<StateSpace> {
        if self.n_inputs() != other.n_inputs() || self.n_outputs() != other.n_outputs() {
            return Err(Error::DimensionMismatch {
                op: "parallel",
                lhs: (self.n_outputs(), self.n_inputs()),
                rhs: (other.n_outputs(), other.n_inputs()),
            });
        }
        check_domains("parallel", self, other)?;
        let a = self.a.block_diag(&other.a);
        let b = Mat::vstack(&self.b, &other.b)?;
        let c = Mat::hstack(&self.c, &other.c)?;
        let d = &self.d + &other.d;
        StateSpace::new(a, b, c, d, self.ts.or(other.ts))
    }

    /// Diagonal (append) composition: stacks two systems that act on
    /// independent input/output groups.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on incompatible time domains.
    pub fn append(&self, other: &StateSpace) -> Result<StateSpace> {
        check_domains("append", self, other)?;
        let a = self.a.block_diag(&other.a);
        let b = self.b.block_diag(&other.b);
        let c = self.c.block_diag(&other.c);
        let d = self.d.block_diag(&other.d);
        StateSpace::new(a, b, c, d, self.ts.or(other.ts))
    }

    /// Negative feedback interconnection of plant `self` with controller
    /// `k`: returns the closed loop from plant reference to plant output,
    /// `G(I + KG)⁻¹` with `u = K(r − y)` wait — specifically:
    /// `y = G·K·(r − y)`, i.e. the complementary sensitivity `T = GK(I+GK)⁻¹`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if the algebraic loop `I + D_g·D_k` is
    /// singular, and dimension errors on mismatch.
    pub fn feedback(&self, k: &StateSpace) -> Result<StateSpace> {
        if self.n_inputs() != k.n_outputs() || self.n_outputs() != k.n_inputs() {
            return Err(Error::DimensionMismatch {
                op: "feedback",
                lhs: (self.n_outputs(), self.n_inputs()),
                rhs: (k.n_outputs(), k.n_inputs()),
            });
        }
        check_domains("feedback", self, k)?;
        let (ng, nk) = (self.order(), k.order());
        // Signals: u = K(r − y), y = G u.
        // Algebraic loop on y: y = Cg xg + Dg(Ck xk + Dk (r − y)).
        let p = self.n_outputs();
        let dgdk = &self.d * &k.d;
        let m_loop = &Mat::identity(p) + &dgdk;
        let minv = m_loop
            .inverse()
            .map_err(|_| Error::Singular { op: "feedback" })?;
        // y = Minv (Cg xg + Dg Ck xk + Dg Dk r)
        let y_xg = &minv * &self.c;
        let y_xk = &minv * &(&self.d * &k.c);
        let y_r = &minv * &dgdk;
        // e = r − y
        let e_xg = -&y_xg;
        let e_xk = -&y_xk;
        let e_r = &Mat::identity(p) - &y_r;
        // u = Ck xk + Dk e
        let u_xg = &k.d * &e_xg;
        let u_xk = &k.c + &(&k.d * &e_xk);
        let u_r = &k.d * &e_r;
        // ẋg = Ag xg + Bg u ; ẋk = Ak xk + Bk e
        let a = Mat::block2x2(
            &(&self.a + &(&self.b * &u_xg)),
            &(&self.b * &u_xk),
            &(&k.b * &e_xg),
            &(&k.a + &(&k.b * &e_xk)),
        )?;
        let b = Mat::vstack(&(&self.b * &u_r), &(&k.b * &e_r))?;
        let c = Mat::hstack(&y_xg, &y_xk)?;
        let d = y_r;
        debug_assert_eq!(a.rows(), ng + nk);
        StateSpace::new(a, b, c, d, self.ts.or(k.ts))
    }

    /// Simulates the discrete system from initial state zero over the given
    /// input sequence (one row per time step). Returns one output row per
    /// step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if input rows have the wrong
    /// width or the system is not discrete.
    pub fn simulate(&self, inputs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        if !self.is_discrete() {
            return Err(Error::NoSolution {
                op: "simulate",
                why: "simulation requires a discrete-time system",
            });
        }
        let n = self.order();
        let (mut x, mut xn, mut bu) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut du = vec![0.0; self.n_outputs()];
        let mut out = Vec::with_capacity(inputs.len());
        for u in inputs {
            if u.len() != self.n_inputs() {
                return Err(Error::DimensionMismatch {
                    op: "simulate",
                    lhs: (self.n_inputs(), 1),
                    rhs: (u.len(), 1),
                });
            }
            let mut y = vec![0.0; self.n_outputs()];
            self.c.matvec_into(&x, &mut y)?;
            self.d.matvec_into(u, &mut du)?;
            for (yi, di) in y.iter_mut().zip(&du) {
                *yi += di;
            }
            out.push(y);
            self.a.matvec_into(&x, &mut xn)?;
            self.b.matvec_into(u, &mut bu)?;
            for (xi, bi) in xn.iter_mut().zip(&bu) {
                *xi += bi;
            }
            std::mem::swap(&mut x, &mut xn);
        }
        Ok(out)
    }

    /// An upper estimate of the H∞ norm: the peak of `σ̄(G(jω))` (or
    /// `σ̄(G(e^{jωT}))`) over a log-spaced frequency grid of `n_grid`
    /// points between `w_min` and `w_max` rad/s.
    pub fn hinf_norm_estimate(&self, w_min: f64, w_max: f64, n_grid: usize) -> f64 {
        let grid: Vec<f64> = (0..n_grid)
            .map(|k| {
                let t = k as f64 / (n_grid - 1).max(1) as f64;
                w_min * (w_max / w_min).powf(t)
            })
            .collect();
        let ts = self.ts;
        let gains = crate::sweep::sweep(self.freq_system(), &grid, |_, w, ev| {
            let lambda = match ts {
                Some(t) => C64::cis(w * t),
                None => C64::new(0.0, w),
            };
            ev.eval(lambda)
                .map(|g| yukta_linalg::svd::sigma_max(&g))
                .ok()
        });
        gains.into_iter().flatten().fold(0.0f64, f64::max)
    }
}

fn check_domains(op: &'static str, a: &StateSpace, b: &StateSpace) -> Result<()> {
    match (a.ts, b.ts) {
        (Some(t1), Some(t2)) if (t1 - t2).abs() > 1e-12 => Err(Error::DimensionMismatch {
            op,
            lhs: (0, 0),
            rhs: (0, 0),
        }),
        (Some(_), None) | (None, Some(_)) => Err(Error::DimensionMismatch {
            op,
            lhs: (0, 0),
            rhs: (1, 1),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(pole: f64, ts: f64) -> StateSpace {
        // y⁺ = pole·y + (1−pole)·u : DC gain 1.
        StateSpace::new(
            Mat::filled(1, 1, pole),
            Mat::filled(1, 1, 1.0 - pole),
            Mat::identity(1),
            Mat::zeros(1, 1),
            Some(ts),
        )
        .unwrap()
    }

    #[test]
    fn dimensions_validated() {
        let bad = StateSpace::new(
            Mat::identity(2),
            Mat::zeros(3, 1),
            Mat::zeros(1, 2),
            Mat::zeros(1, 1),
            None,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn stability_checks() {
        assert!(lp(0.5, 1.0).is_stable().unwrap());
        assert!(!lp(1.5, 1.0).is_stable().unwrap());
        let cont = StateSpace::new(
            Mat::filled(1, 1, -2.0),
            Mat::identity(1),
            Mat::identity(1),
            Mat::zeros(1, 1),
            None,
        )
        .unwrap();
        assert!(cont.is_stable().unwrap());
    }

    #[test]
    fn dc_gain_of_lowpass_is_one() {
        let g = lp(0.7, 0.5).dc_gain().unwrap();
        assert!((g[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn freq_response_magnitude_rolls_off() {
        let sys = lp(0.9, 1.0);
        let g_low = sys.freq_response(0.01).unwrap().get(0, 0).abs();
        let g_high = sys.freq_response(3.0).unwrap().get(0, 0).abs();
        assert!(g_low > 0.99);
        assert!(g_high < g_low);
    }

    #[test]
    fn series_transfer_multiplies() {
        let g1 = lp(0.5, 1.0);
        let g2 = lp(0.8, 1.0);
        let s = g1.series(&g2).unwrap();
        let w = 0.7;
        let expect =
            g1.freq_response(w).unwrap().get(0, 0) * g2.freq_response(w).unwrap().get(0, 0);
        let got = s.freq_response(w).unwrap().get(0, 0);
        assert!((expect - got).abs() < 1e-12);
    }

    #[test]
    fn parallel_transfer_adds() {
        let g1 = lp(0.5, 1.0);
        let g2 = lp(0.8, 1.0);
        let p = g1.parallel(&g2).unwrap();
        let w = 1.3;
        let expect =
            g1.freq_response(w).unwrap().get(0, 0) + g2.freq_response(w).unwrap().get(0, 0);
        let got = p.freq_response(w).unwrap().get(0, 0);
        assert!((expect - got).abs() < 1e-12);
    }

    #[test]
    fn append_is_block_diagonal() {
        let g1 = lp(0.5, 1.0);
        let g2 = lp(0.8, 1.0);
        let d = g1.append(&g2).unwrap();
        assert_eq!(d.n_inputs(), 2);
        assert_eq!(d.n_outputs(), 2);
        let g = d.freq_response(0.4).unwrap();
        assert!(g.get(0, 1).abs() < 1e-14);
        assert!(g.get(1, 0).abs() < 1e-14);
    }

    #[test]
    fn feedback_closed_loop_transfer() {
        // Static plant g, static controller k: T = gk/(1+gk).
        let g = StateSpace::from_gain(Mat::filled(1, 1, 2.0), Some(1.0));
        let k = StateSpace::from_gain(Mat::filled(1, 1, 3.0), Some(1.0));
        let t = g.feedback(&k).unwrap();
        let dc = t.dc_gain().unwrap();
        assert!((dc[(0, 0)] - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn feedback_stabilizes_integrator() {
        // Discrete integrator with unit feedback gives a stable loop.
        let g = StateSpace::new(
            Mat::identity(1),
            Mat::identity(1),
            Mat::identity(1),
            Mat::zeros(1, 1),
            Some(1.0),
        )
        .unwrap();
        let k = StateSpace::from_gain(Mat::filled(1, 1, 0.5), Some(1.0));
        let t = g.feedback(&k).unwrap();
        assert!(t.is_stable().unwrap());
        // Tracking: DC gain of T is 1 (integrator kills steady-state error).
        assert!((t.dc_gain().unwrap()[(0, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_domains_rejected() {
        let d = lp(0.5, 1.0);
        let c = StateSpace::from_gain(Mat::identity(1), None);
        assert!(d.series(&c).is_err());
        let d2 = lp(0.5, 2.0);
        assert!(d.parallel(&d2).is_err());
    }

    #[test]
    fn simulate_step_response() {
        let sys = lp(0.5, 1.0);
        let inputs = vec![vec![1.0]; 20];
        let ys = sys.simulate(&inputs).unwrap();
        // Converges to DC gain 1.
        assert!(ys[0][0].abs() < 1e-12); // strictly proper: first output 0
        assert!((ys[19][0] - 1.0).abs() < 1e-4);
        // Monotone rising for a single positive-pole low-pass.
        for w in ys.windows(2) {
            assert!(w[1][0] >= w[0][0] - 1e-12);
        }
    }

    #[test]
    fn static_gain_system() {
        let g = StateSpace::from_gain(Mat::from_rows(&[&[1.0, 2.0]]), Some(1.0));
        assert_eq!(g.order(), 0);
        assert_eq!(g.n_inputs(), 2);
        let y = g.simulate(&[vec![3.0, 4.0]]).unwrap();
        assert!((y[0][0] - 11.0).abs() < 1e-14);
    }

    #[test]
    fn hinf_norm_estimate_of_lowpass() {
        // Peak gain of a DC-gain-1 low-pass is 1 at DC.
        let sys = lp(0.9, 1.0);
        let n = sys.hinf_norm_estimate(1e-3, std::f64::consts::PI, 200);
        assert!((n - 1.0).abs() < 1e-3);
    }
}
