//! Fast repeated evaluation of `C (λI − A)⁻¹ B + D` over a frequency grid.
//!
//! Frequency sweeps (µ upper-bound peaks, H∞ norm estimates, D-scale
//! fitting) evaluate the same state-space realization at hundreds of grid
//! points. Doing that naively costs a fresh complex LU — O(n³) and several
//! heap allocations — per point.
//!
//! [`FreqSystem`] pays the O(n³) once: it reduces `A = Q H Qᵀ` to upper
//! Hessenberg form with the Householder machinery in [`crate::eig`] and
//! stores `H`, `QᵀB`, `CQ`, and `D`. Because
//!
//! ```text
//! C (λI − A)⁻¹ B + D  =  (CQ) (λI − H)⁻¹ (QᵀB) + D
//! ```
//!
//! each grid point then needs only a *Hessenberg* solve: Gaussian
//! elimination with adjacent-row partial pivoting touches a single
//! subdiagonal per column, so the factorization is O(n²) instead of O(n³).
//!
//! [`FreqEvaluator`] owns the per-point complex scratch and reuses it
//! across calls, so a sweep's steady state performs one small `p × m`
//! output allocation per point and nothing else. `FreqSystem` is `Sync`;
//! parallel sweeps share one system and give each worker thread its own
//! evaluator.

use crate::eig::hessenberg_q;
use crate::{C64, CMat, Error, Mat, Result};

/// A state-space realization `(A, B, C, D)` preprocessed for repeated
/// transfer-function evaluation.
///
/// Construction costs one Hessenberg reduction (O(n³)); every subsequent
/// [`FreqEvaluator::eval`] costs O(n²) + O(n·m·p).
///
/// ```
/// use yukta_linalg::freq::FreqSystem;
/// use yukta_linalg::{C64, Mat};
///
/// let a = Mat::from_rows(&[&[0.0, 1.0], &[-2.0, -3.0]]);
/// let b = Mat::col(&[0.0, 1.0]);
/// let c = Mat::row(&[1.0, 0.0]);
/// let d = Mat::zeros(1, 1);
/// let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
/// let mut ev = sys.evaluator();
/// // DC gain of s/(s^2+3s+2) shaped plant: C (−A)⁻¹ B = 0.5.
/// let g = ev.eval(C64::ZERO).unwrap();
/// assert!((g.get(0, 0).re - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FreqSystem {
    /// Upper Hessenberg `H = Qᵀ A Q`, row-major `n × n`.
    h: Vec<f64>,
    /// `Qᵀ B`, row-major `n × m`.
    qtb: Vec<f64>,
    /// `C Q`, row-major `p × n`.
    cq: Vec<f64>,
    /// Feedthrough `D`, row-major `p × m`.
    d: Vec<f64>,
    n: usize,
    m: usize,
    p: usize,
}

impl FreqSystem {
    /// Builds the preprocessed system from a realization `(A, B, C, D)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `A` is not square or
    /// `B`/`C`/`D` do not conform to it.
    pub fn new(a: &Mat, b: &Mat, c: &Mat, d: &Mat) -> Result<FreqSystem> {
        let n = a.rows();
        if !a.is_square() {
            return Err(Error::DimensionMismatch {
                op: "freq_system",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        if b.rows() != n || c.cols() != n {
            return Err(Error::DimensionMismatch {
                op: "freq_system",
                lhs: b.shape(),
                rhs: c.shape(),
            });
        }
        let (m, p) = (b.cols(), c.rows());
        if d.shape() != (p, m) {
            return Err(Error::DimensionMismatch {
                op: "freq_system",
                lhs: d.shape(),
                rhs: (p, m),
            });
        }
        if n == 0 {
            return Ok(FreqSystem {
                h: Vec::new(),
                qtb: Vec::new(),
                cq: Vec::new(),
                d: d.as_slice().to_vec(),
                n,
                m,
                p,
            });
        }
        let (h, q) = hessenberg_q(a);
        let qtb = q.t().matmul(b)?;
        let cq = c.matmul(&q)?;
        Ok(FreqSystem {
            h: h.into_vec(),
            qtb: qtb.into_vec(),
            cq: cq.into_vec(),
            d: d.as_slice().to_vec(),
            n,
            m,
            p,
        })
    }

    /// State dimension `n`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Input count `m`.
    pub fn inputs(&self) -> usize {
        self.m
    }

    /// Output count `p`.
    pub fn outputs(&self) -> usize {
        self.p
    }

    /// Creates an evaluator with its own scratch buffers.
    ///
    /// Evaluators are cheap (two `n·max(n, m)` complex buffers); give each
    /// worker thread its own rather than sharing one behind a lock.
    pub fn evaluator(&self) -> FreqEvaluator<'_> {
        FreqEvaluator {
            sys: self,
            lu: vec![C64::ZERO; self.n * self.n],
            x: vec![C64::ZERO; self.n * self.m],
        }
    }

    /// Bytes one evaluation streams over, as a chunk-sizing estimate.
    ///
    /// `yukta_control::sweep` sizes its per-worker grid chunks from this
    /// so a chunk's working set stays inside the L2 budget. The formula
    /// still counts the 4-padded split-plane scratch of an earlier vector
    /// evaluator; it is kept as it was so the chunk sizes, and with them
    /// the Osborne batch shapes, do not move.
    pub fn working_set_bytes(&self) -> usize {
        let (n, m, p) = (self.n, self.m, self.p);
        let np = n.next_multiple_of(4);
        let mp = m.next_multiple_of(4);
        // Split-plane scratch (re+im for LU and RHS), the H/QᵀB/CQ/D
        // tables every solve reads, and the p×m complex output.
        2 * 8 * (n * np + n * mp) + 8 * (n * n + n * m + p * n + p * m) + 16 * p * m
    }
}

/// Reusable scratch for evaluating one [`FreqSystem`] at many points.
///
/// Not `Sync`: clone one per thread via [`FreqSystem::evaluator`].
#[derive(Debug)]
pub struct FreqEvaluator<'a> {
    sys: &'a FreqSystem,
    /// Working copy of `λI − H`, row-major `n × n`.
    lu: Vec<C64>,
    /// Right-hand side, overwritten with the solution `X`, row-major
    /// `n × m`.
    x: Vec<C64>,
}

impl FreqEvaluator<'_> {
    /// Evaluates `G(λ) = C (λI − A)⁻¹ B + D` at one point of the complex
    /// plane (`λ = jω` for continuous time, `λ = e^{jωT}` for discrete).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if `λ` is (numerically) an eigenvalue
    /// of `A`.
    pub fn eval(&mut self, lambda: C64) -> Result<CMat> {
        let (n, m, p) = (self.sys.n, self.sys.m, self.sys.p);
        let mut out = CMat::zeros(p, m);
        for i in 0..p {
            for j in 0..m {
                out.set(i, j, C64::real(self.sys.d[i * m + j]));
            }
        }
        if n == 0 {
            return Ok(out);
        }

        // Assemble λI − H and the right-hand side QᵀB in the scratch.
        for i in 0..n {
            let row = &self.sys.h[i * n..(i + 1) * n];
            let dst = &mut self.lu[i * n..(i + 1) * n];
            for (d, &h) in dst.iter_mut().zip(row) {
                *d = C64::new(-h, 0.0);
            }
            dst[i] += lambda;
        }
        for (d, &b) in self.x.iter_mut().zip(&self.sys.qtb) {
            *d = C64::real(b);
        }

        // Hessenberg Gaussian elimination: column k has a single
        // subdiagonal entry at row k+1, so each step is one adjacent-row
        // pivot comparison and one row update — O(n) per column, O(n²)
        // total.
        for k in 0..n.saturating_sub(1) {
            if self.lu[(k + 1) * n + k].abs_sq() > self.lu[k * n + k].abs_sq() {
                let (top, bottom) = self.lu.split_at_mut((k + 1) * n);
                top[k * n + k..k * n + n].swap_with_slice(&mut bottom[k..n]);
                let (xt, xb) = self.x.split_at_mut((k + 1) * m);
                xt[k * m..(k + 1) * m].swap_with_slice(&mut xb[..m]);
            }
            let pivot = self.lu[k * n + k];
            if pivot.abs() < 1e-300 {
                return Err(Error::Singular { op: "freq_eval" });
            }
            let factor = self.lu[(k + 1) * n + k] / pivot;
            if factor != C64::ZERO {
                let (top, bottom) = self.lu.split_at_mut((k + 1) * n);
                let src = &top[k * n..(k + 1) * n];
                for j in (k + 1)..n {
                    bottom[j] = bottom[j] - factor * src[j];
                }
                let (xt, xb) = self.x.split_at_mut((k + 1) * m);
                let xsrc = &xt[k * m..(k + 1) * m];
                for j in 0..m {
                    xb[j] = xb[j] - factor * xsrc[j];
                }
            }
        }
        if self.lu[(n - 1) * n + (n - 1)].abs() < 1e-300 {
            return Err(Error::Singular { op: "freq_eval" });
        }

        // Back substitution, all m right-hand sides at once.
        for k in (0..n).rev() {
            let pivot = self.lu[k * n + k];
            for j in 0..m {
                let mut acc = self.x[k * m + j];
                for i in (k + 1)..n {
                    acc = acc - self.lu[k * n + i] * self.x[i * m + j];
                }
                self.x[k * m + j] = acc / pivot;
            }
        }

        // out = CQ · X + D (D already loaded above).
        for i in 0..p {
            let crow = &self.sys.cq[i * n..(i + 1) * n];
            for j in 0..m {
                let mut acc = out.get(i, j);
                for (k, &c) in crow.iter().enumerate() {
                    if c != 0.0 {
                        acc += self.x[k * m + j] * c;
                    }
                }
                out.set(i, j, acc);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference evaluation: dense complex LU on the original realization.
    fn eval_naive(a: &Mat, b: &Mat, c: &Mat, d: &Mat, lambda: C64) -> CMat {
        let n = a.rows();
        let mut lhs = CMat::from_real(&a.scale(-1.0));
        for i in 0..n {
            let v = lhs.get(i, i);
            lhs.set(i, i, v + lambda);
        }
        let x = lhs.solve(&CMat::from_real(b)).unwrap();
        CMat::from_real(c)
            .matmul(&x)
            .unwrap()
            .add(&CMat::from_real(d))
    }

    fn test_system() -> (Mat, Mat, Mat, Mat) {
        let a = Mat::from_rows(&[
            &[-0.8, 0.4, 0.1, 0.0],
            &[0.2, -1.3, 0.5, 0.3],
            &[-0.1, 0.7, -0.9, 0.2],
            &[0.3, -0.2, 0.6, -1.1],
        ]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, -0.5], &[0.2, 0.8]]);
        let c = Mat::from_rows(&[
            &[1.0, 0.0, 0.3, 0.0],
            &[0.0, 1.0, 0.0, -0.4],
            &[0.2, 0.2, 0.2, 0.2],
        ]);
        let d = Mat::from_rows(&[&[0.1, 0.0], &[0.0, -0.2], &[0.0, 0.0]]);
        (a, b, c, d)
    }

    #[test]
    fn matches_dense_lu_on_imaginary_axis() {
        let (a, b, c, d) = test_system();
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        let mut ev = sys.evaluator();
        for k in 0..40 {
            let w = 0.01 * 1.3f64.powi(k);
            let lambda = C64::new(0.0, w);
            let fast = ev.eval(lambda).unwrap();
            let slow = eval_naive(&a, &b, &c, &d, lambda);
            assert!(
                fast.sub(&slow).max_abs() < 1e-11,
                "mismatch at w = {w}: {}",
                fast.sub(&slow).max_abs()
            );
        }
    }

    #[test]
    fn matches_dense_lu_on_unit_circle() {
        let (a, b, c, d) = test_system();
        // Scale A inside the unit disk so e^{jωT} never hits an eigenvalue.
        let a = a.scale(0.4);
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        let mut ev = sys.evaluator();
        for k in 0..64 {
            let theta = k as f64 * std::f64::consts::PI / 32.0;
            let lambda = C64::cis(theta);
            let fast = ev.eval(lambda).unwrap();
            let slow = eval_naive(&a, &b, &c, &d, lambda);
            assert!(fast.sub(&slow).max_abs() < 1e-11);
        }
    }

    #[test]
    fn evaluator_reuse_is_stateless() {
        let (a, b, c, d) = test_system();
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        let mut ev = sys.evaluator();
        let lambda = C64::new(0.0, 2.0);
        let first = ev.eval(lambda).unwrap();
        // Interleave other points, then re-evaluate: must be bit-identical.
        ev.eval(C64::new(0.0, 0.5)).unwrap();
        ev.eval(C64::cis(1.0)).unwrap();
        let again = ev.eval(lambda).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn static_gain_system() {
        let d = Mat::from_rows(&[&[2.0, -1.0]]);
        let sys =
            FreqSystem::new(&Mat::zeros(0, 0), &Mat::zeros(0, 2), &Mat::zeros(1, 0), &d).unwrap();
        let g = sys.evaluator().eval(C64::new(0.0, 3.0)).unwrap();
        assert_eq!(g.get(0, 0), C64::real(2.0));
        assert_eq!(g.get(0, 1), C64::real(-1.0));
    }

    #[test]
    fn eigenvalue_hit_reports_singular() {
        // A = diag(1, 2): λ = 1 makes λI − A singular.
        let a = Mat::diag(&[1.0, 2.0]);
        let b = Mat::col(&[1.0, 1.0]);
        let c = Mat::row(&[1.0, 1.0]);
        let d = Mat::zeros(1, 1);
        let sys = FreqSystem::new(&a, &b, &c, &d).unwrap();
        assert!(matches!(
            sys.evaluator().eval(C64::ONE),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn working_set_bytes_is_positive_and_monotone() {
        let (a, b, c, d) = test_system();
        let small = FreqSystem::new(&a, &b, &c, &d).unwrap();
        assert!(small.working_set_bytes() > 0);
        let n = 16;
        let big = FreqSystem::new(
            &Mat::diag(&vec![-1.0; n]),
            &Mat::zeros(n, 2),
            &Mat::zeros(3, n),
            &Mat::zeros(3, 2),
        )
        .unwrap();
        assert!(big.working_set_bytes() > small.working_set_bytes());
    }

    #[test]
    fn dimension_checks() {
        let a = Mat::zeros(2, 3);
        assert!(
            FreqSystem::new(&a, &Mat::zeros(2, 1), &Mat::zeros(1, 2), &Mat::zeros(1, 1)).is_err()
        );
        let a = Mat::zeros(2, 2);
        assert!(
            FreqSystem::new(&a, &Mat::zeros(3, 1), &Mat::zeros(1, 2), &Mat::zeros(1, 1)).is_err()
        );
        assert!(
            FreqSystem::new(&a, &Mat::zeros(2, 1), &Mat::zeros(1, 2), &Mat::zeros(2, 2)).is_err()
        );
    }
}
