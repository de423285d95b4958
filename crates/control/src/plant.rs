//! Generalized-plant construction for SSV controller synthesis.
//!
//! This module turns an identified board model plus the designer-facing
//! knobs of the paper — output deviation bounds `B`, input weights `W`,
//! uncertainty guardband `Δ`, and external-signal channels — into a
//! continuous generalized plant that satisfies the DGKF regularity
//! assumptions *exactly by construction*:
//!
//! * Exogenous inputs (references, external signals, and the uncertainty
//!   perturbation) enter through first-order prefilters, so `D11 = 0`.
//! * The model output path is made strictly proper with a fast sensor-lag
//!   filter, so `D22 = 0`.
//! * Control effort is normalized by the input weights (`D12 = [0;0;I]`)
//!   and measurements by the fictitious noise level (`D21 = [0 … I]`).
//!
//! Channel layout of the produced [`GenPlant`]:
//!
//! ```text
//! w = [w_unc(ny) | r(ny) | e(ne) | n1(ny) | n2(ne)]      z = [z_unc(ny) | z_perf(ny) | z_u(nu)]
//! u = [u'(nu)]                                           y = [err'(ny) | ext'(ne)]
//! ```

use yukta_linalg::ratfit::RatSection;
use yukta_linalg::{Error, Mat, Result};

use crate::c2d::d2c_tustin;
use crate::hinf::GenPlant;
use crate::mu::MuBlock;
use crate::ss::StateSpace;

/// Designer-facing specification of an SSV controller (Tables II/III of
/// the paper, minus the signal names).
#[derive(Debug, Clone, PartialEq)]
pub struct SsvSpec {
    /// Controller sample period in seconds (0.5 in the prototype).
    pub ts: f64,
    /// Per-output deviation bounds as a fraction of the signal range
    /// (e.g. 0.10 for ±10%). Length = number of outputs.
    pub output_bounds: Vec<f64>,
    /// Per-input weights (the paper's `W`; higher = more reluctant).
    pub input_weights: Vec<f64>,
    /// Number of external signals the controller reads.
    pub n_ext: usize,
    /// Uncertainty guardband as a fraction (0.40 for ±40%).
    pub uncertainty: f64,
    /// Fictitious measurement-noise level in normalized units.
    pub noise_eps: f64,
    /// Reference/external prefilter time constant; defaults to `2·ts`.
    pub prefilter_tau: Option<f64>,
    /// Uncertainty-channel filter time constant; defaults to `ts/4`.
    pub unc_tau: Option<f64>,
    /// Sensor-lag time constant making the plant strictly proper;
    /// defaults to `ts/20`.
    pub sensor_tau: Option<f64>,
    /// DC boost of the performance weight: the tracking-error weight is a
    /// first-order low-pass whose DC gain is `boost × (1/(2·bound))` and
    /// whose high-frequency gain is `1/(2·bound)`. A boost > 1 buys tight
    /// steady-state tracking (near-integral action) while the designed
    /// bounds still govern transients. Default 8.
    pub perf_dc_boost: f64,
    /// Corner frequency (rad/s) of the shaped performance weight.
    /// Default 0.25.
    pub perf_corner: f64,
    /// Calibration factor mapping the designer's input weights onto the
    /// normalized plant: the effective effort penalty is
    /// `weight × effort_scale`. The paper's weight = 1 corresponds to a
    /// moderately eager controller, which on this plant needs an absolute
    /// penalty well below 1. Default 0.3.
    pub effort_scale: f64,
}

impl SsvSpec {
    /// A spec with sensible defaults for the given dimensions.
    pub fn new(ts: f64, n_outputs: usize, n_inputs: usize, n_ext: usize) -> Self {
        SsvSpec {
            ts,
            output_bounds: vec![0.2; n_outputs],
            input_weights: vec![1.0; n_inputs],
            n_ext,
            uncertainty: 0.4,
            noise_eps: 0.05,
            prefilter_tau: None,
            unc_tau: None,
            sensor_tau: None,
            perf_dc_boost: 8.0,
            perf_corner: 0.25,
            effort_scale: 0.3,
        }
    }

    /// Number of controlled outputs.
    pub fn n_outputs(&self) -> usize {
        self.output_bounds.len()
    }

    /// Number of actuated inputs.
    pub fn n_inputs(&self) -> usize {
        self.input_weights.len()
    }
}

/// A generalized plant annotated with the bookkeeping needed to scale the
/// uncertainty channel (D-step) and to undo the synthesis normalizations.
#[derive(Debug, Clone)]
pub struct SsvPlant {
    /// The assembled continuous generalized plant.
    pub gen: GenPlant,
    /// Output count of the controlled system.
    pub ny: usize,
    /// External-signal count.
    pub ne: usize,
    /// Actuated-input count.
    pub nu: usize,
    /// Input weights (to unscale the controller output).
    pub input_weights: Vec<f64>,
    /// Noise normalization (to unscale the controller input).
    pub noise_eps: f64,
    /// Sample period for the final discretization.
    pub ts: f64,
}

impl SsvPlant {
    /// The µ block structure of the closed loop: one full block for the
    /// uncertainty channel, one for performance.
    pub fn mu_blocks(&self) -> Vec<MuBlock> {
        vec![
            MuBlock {
                n_out: self.ny,
                n_in: self.ny,
            },
            MuBlock {
                n_out: self.ny + self.nu,
                n_in: self.ny + self.ne + self.ny + self.ne,
            },
        ]
    }

    /// Returns a copy of the generalized plant with the uncertainty channel
    /// scaled by `d` (rows of `z_unc` × d, columns of `w_unc` × 1/d) — the
    /// constant-D scaling step of D–K iteration. The DGKF assumptions are
    /// preserved because those rows/columns carry no feedthrough.
    ///
    /// # Errors
    ///
    /// Never fails for plants built by [`build_ssv_plant`]; the `Result`
    /// guards reconstruction.
    pub fn scaled(&self, d: f64) -> Result<GenPlant> {
        let sys = &self.gen.sys;
        let mut b = sys.b().clone();
        let mut c = sys.c().clone();
        // w_unc are the first ny input columns.
        for j in 0..self.ny {
            for i in 0..b.rows() {
                b[(i, j)] /= d;
            }
        }
        // z_unc are the first ny output rows.
        for i in 0..self.ny {
            for j in 0..c.cols() {
                c[(i, j)] *= d;
            }
        }
        let scaled = StateSpace::new(sys.a().clone(), b, c, sys.d().clone(), sys.ts())?;
        GenPlant::new(
            scaled,
            self.gen.n_w,
            self.gen.n_u,
            self.gen.n_z,
            self.gen.n_y,
        )
    }

    /// Returns the generalized plant with a *frequency-dependent* scaling
    /// `D(s) = Π k_i (s + z_i)/(s + p_i)` absorbed into the uncertainty
    /// channel: the `z_unc` rows are filtered by `D(s)` and the `w_unc`
    /// columns by `D(s)⁻¹` — the dynamic-D K-step of D–K iteration, which
    /// lets the scaling follow the per-frequency Osborne optimum instead
    /// of one constant compromise.
    ///
    /// Each section adds `2·ny` states (one filter bank per side). The
    /// DGKF regularity structure is preserved exactly: `z_unc` is a pure
    /// state output and `w_unc` enters only through prefilter states, so
    /// filtering either leaves every feedthrough block untouched. Every
    /// section must be minimum phase ([`RatSection::is_minimum_phase`])
    /// so both filter banks are stable.
    ///
    /// An empty cascade returns the unscaled plant.
    ///
    /// # Errors
    ///
    /// [`Error::NoSolution`] if a section is not minimum phase or the
    /// uncertainty channel unexpectedly carries feedthrough.
    pub fn scaled_rational(&self, sections: &[RatSection]) -> Result<GenPlant> {
        if sections.is_empty() {
            return self.scaled(1.0);
        }
        if sections.iter().any(|s| !s.is_minimum_phase()) {
            return Err(Error::NoSolution {
                op: "scaled_rational",
                why: "D(s) section must be stable and stably invertible (k, z, p > 0)",
            });
        }
        let sys = &self.gen.sys;
        let ny = self.ny;
        let d = sys.d().clone();
        // The construction below relies on the uncertainty channel being
        // feedthrough-free (true for build_ssv_plant outputs).
        if d.block(0, ny, 0, d.cols()).max_abs() > 1e-12
            || d.block(0, d.rows(), 0, ny).max_abs() > 1e-12
        {
            return Err(Error::NoSolution {
                op: "scaled_rational",
                why: "uncertainty channel must be feedthrough-free",
            });
        }
        let mut a = sys.a().clone();
        let mut b = sys.b().clone();
        let mut c = sys.c().clone();
        for sec in sections {
            let (k, z, p) = (sec.k, sec.z, sec.p);
            // --- z-side: z_unc' = D(s)·z_unc with D = k + k(z−p)/(s+p).
            let n0 = a.rows();
            let c_unc = c.block(0, ny, 0, n0);
            let mut a2 = Mat::zeros(n0 + ny, n0 + ny);
            a2.set_block(0, 0, &a);
            a2.set_block(n0, 0, &c_unc);
            for j in 0..ny {
                a2[(n0 + j, n0 + j)] = -p;
            }
            let mut b2 = Mat::zeros(n0 + ny, b.cols());
            b2.set_block(0, 0, &b);
            let mut c2 = Mat::zeros(c.rows(), n0 + ny);
            c2.set_block(0, 0, &c);
            for i in 0..ny {
                for j in 0..n0 {
                    c2[(i, j)] *= k;
                }
                c2[(i, n0 + i)] = k * (z - p);
            }
            a = a2;
            b = b2;
            c = c2;
            // --- w-side: w_unc through D(s)⁻¹ = 1/k + ((p−z)/k)/(s+z).
            let n1 = a.rows();
            let b_unc = b.block(0, n1, 0, ny);
            let mut a3 = Mat::zeros(n1 + ny, n1 + ny);
            a3.set_block(0, 0, &a);
            a3.set_block(0, n1, &b_unc.scale((p - z) / k));
            for j in 0..ny {
                a3[(n1 + j, n1 + j)] = -z;
            }
            let mut b3 = Mat::zeros(n1 + ny, b.cols());
            b3.set_block(0, 0, &b);
            for j in 0..ny {
                for i in 0..n1 {
                    b3[(i, j)] = b_unc[(i, j)] / k;
                }
                b3[(n1 + j, j)] = 1.0;
            }
            let mut c3 = Mat::zeros(c.rows(), n1 + ny);
            c3.set_block(0, 0, &c);
            a = a3;
            b = b3;
            c = c3;
        }
        // D keeps its shape (only states were added), so it carries over.
        let scaled = StateSpace::new(a, b, c, d, sys.ts())?;
        GenPlant::new(
            scaled,
            self.gen.n_w,
            self.gen.n_u,
            self.gen.n_z,
            self.gen.n_y,
        )
    }

    /// Wraps an H∞ design into the *deployable observer-form controller*:
    /// a discrete system with inputs
    /// `[target − y (ny); ext (ne); u_applied (nu)]` and output `u_cmd`,
    /// all in normalized physical units. The observer propagates with the
    /// input the plant actually received, so deep saturation or
    /// quantization cannot wind the state up — essential because the H∞
    /// central controller is frequently *internally* unstable even though
    /// the closed loop is stable.
    ///
    /// The feedthrough from the `u_applied` columns introduced by the
    /// Tustin transform is zeroed to break the algebraic loop; the caller
    /// computes `u_cmd` from the current measurements, quantizes it, and
    /// feeds the result back in the same invocation's state update (see
    /// `yukta_control::runtime::ObsAwController`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSolution`] if the observer form is unstable
    /// (cannot be deployed safely under saturation).
    pub fn deploy_anti_windup(&self, design: &crate::hinf::HinfDesign) -> Result<StateSpace> {
        let aw = design.anti_windup()?;
        if !aw.is_stable()? {
            return Err(Error::NoSolution {
                op: "deploy_anti_windup",
                why: "observer-form controller is unstable",
            });
        }
        let n = aw.order();
        let n_y = self.ny + self.ne;
        let winv = Mat::diag(
            &self
                .input_weights
                .iter()
                .map(|w| 1.0 / w)
                .collect::<Vec<_>>(),
        );
        let weff = Mat::diag(&self.input_weights);
        // Input scaling: measurements ×(1/ε), applied input ×W_eff;
        // output ×W_eff⁻¹.
        let b_y = aw.b().block(0, n, 0, n_y).scale(1.0 / self.noise_eps);
        let b_u = &aw.b().block(0, n, n_y, n_y + self.nu) * &weff;
        let b = Mat::hstack(&b_y, &b_u)?;
        let c = &winv * aw.c();
        let cont = StateSpace::new(
            aw.a().clone(),
            b,
            c,
            Mat::zeros(self.nu, n_y + self.nu),
            None,
        )?;
        let kd = crate::c2d::c2d_tustin(&cont, self.ts)?;
        // The Tustin transform introduces feedthrough, including from the
        // applied-input port — an algebraic loop when u_applied = u_cmd.
        // Solve it exactly: with D = [D_y D_u], the unsaturated command is
        // u = (I − D_u)⁻¹(C·x + D_y·y), which makes the deployed system
        // *identical* to the discretized central controller whenever the
        // quantizer is transparent (bilinear substitution commutes with
        // feedback interconnection). Fold (I − D_u)⁻¹ into C and D_y and
        // zero the solved-out D_u block.
        let d_full = kd.d();
        let d_y = d_full.block(0, self.nu, 0, n_y);
        let d_u = d_full.block(0, self.nu, n_y, n_y + self.nu);
        let loop_inv = (&Mat::identity(self.nu) - &d_u)
            .inverse()
            .map_err(|_| Error::Singular {
                op: "deploy_anti_windup",
            })?;
        let c_solved = &loop_inv * kd.c();
        let dy_solved = &loop_inv * &d_y;
        let d_out = Mat::hstack(&dy_solved, &Mat::zeros(self.nu, self.nu))?;
        StateSpace::new(
            kd.a().clone(),
            kd.b().clone(),
            c_solved,
            d_out,
            Some(self.ts),
        )
    }
}

/// Builds the SSV generalized plant from an identified model.
///
/// `model` must be a *discrete*, strictly proper system whose inputs are
/// `[u (nu); e (ne)]` in that order and whose outputs are the controlled
/// signals, all in normalized (±1) units.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] if the spec disagrees with the model.
/// * [`Error::NoSolution`] if the model is continuous or has feedthrough.
/// * [`Error::Singular`] if the Tustin conversion fails.
pub fn build_ssv_plant(model: &StateSpace, spec: &SsvSpec) -> Result<SsvPlant> {
    let ny = spec.n_outputs();
    let nu = spec.n_inputs();
    let ne = spec.n_ext;
    if model.n_inputs() != nu + ne || model.n_outputs() != ny {
        return Err(Error::DimensionMismatch {
            op: "build_ssv_plant",
            lhs: (model.n_outputs(), model.n_inputs()),
            rhs: (ny, nu + ne),
        });
    }
    if !model.is_discrete() {
        return Err(Error::NoSolution {
            op: "build_ssv_plant",
            why: "model must be discrete (identified at the controller period)",
        });
    }
    if model.d().max_abs() > 1e-9 {
        return Err(Error::NoSolution {
            op: "build_ssv_plant",
            why: "model must be strictly proper",
        });
    }
    if spec.output_bounds.iter().any(|&b| b <= 0.0)
        || spec.input_weights.iter().any(|&w| w <= 0.0)
        || spec.uncertainty <= 0.0
        || spec.noise_eps <= 0.0
    {
        return Err(Error::NoSolution {
            op: "build_ssv_plant",
            why: "bounds, weights, uncertainty and noise level must be positive",
        });
    }
    let ts = spec.ts;
    let tau = spec.prefilter_tau.unwrap_or(2.0 * ts);
    let tau_d = spec.unc_tau.unwrap_or(ts / 4.0);
    let tau_f = spec.sensor_tau.unwrap_or(ts / 20.0);

    // Continuous model, made strictly proper with a fast sensor-lag bank.
    let g_cont = d2c_tustin(model)?;
    let lag = StateSpace::new(
        Mat::identity(ny).scale(-1.0 / tau_f),
        Mat::identity(ny).scale(1.0 / tau_f),
        Mat::identity(ny),
        Mat::zeros(ny, ny),
        None,
    )?;
    let gs = g_cont.series(&lag)?; // inputs [u;e] → strictly proper y
    debug_assert!(gs.d().max_abs() < 1e-12);
    let ng = gs.order();
    let bg = gs.b();
    let bgu = bg.block(0, ng, 0, nu);
    let bge = bg.block(0, ng, nu, nu + ne);
    let cg = gs.c().clone();

    // Shaped performance weight: We(s) = (khf·s + kdc·wc)/(s + wc) per
    // output, with khf = 1/(2·bound) and kdc = boost·khf. Realized with
    // one state per output driven by the tracking error.
    let khf: Vec<f64> = spec
        .output_bounds
        .iter()
        .map(|bf| 1.0 / (2.0 * bf))
        .collect();
    let kdc: Vec<f64> = khf
        .iter()
        .map(|k| k * spec.perf_dc_boost.max(1.0))
        .collect();
    let wc = spec.perf_corner.max(1e-3);

    // State layout: [xg(ng) | xr(ny) | xe(ne) | xd(ny) | xw(ny)].
    let ntot = ng + ny + ne + ny + ny;
    let (ixr, ixe, ixd) = (ng, ng + ny, ng + ny + ne);
    let ixw = ixd + ny;
    let mut a = Mat::zeros(ntot, ntot);
    a.set_block(0, 0, gs.a());
    a.set_block(0, ixe, &bge); // model driven by filtered external signals
    for j in 0..ny {
        a[(ixr + j, ixr + j)] = -1.0 / tau;
        a[(ixd + j, ixd + j)] = -1.0 / tau_d;
    }
    for j in 0..ne {
        a[(ixe + j, ixe + j)] = -1.0 / tau;
    }
    // Weight states: ẋw = −wc·xw + (kdc − khf)·wc·(xr − Cg·xg − xd).
    for j in 0..ny {
        let gain = (kdc[j] - khf[j]) * wc;
        a[(ixw + j, ixw + j)] = -wc;
        a[(ixw + j, ixr + j)] = gain;
        a[(ixw + j, ixd + j)] = -gain;
        for k in 0..ng {
            a[(ixw + j, k)] = -gain * cg[(j, k)];
        }
    }

    // Inputs: [w_unc(ny) | r(ny) | e(ne) | n1(ny) | n2(ne) | u'(nu)].
    let nw = ny + ny + ne + ny + ne;
    let (iw_r, iw_e) = (ny, 2 * ny);
    let mut b = Mat::zeros(ntot, nw + nu);
    for j in 0..ny {
        b[(ixd + j, j)] = 1.0 / tau_d; // w_unc → xd
        b[(ixr + j, iw_r + j)] = 1.0 / tau; // r → xr
    }
    for j in 0..ne {
        b[(ixe + j, iw_e + j)] = 1.0 / tau; // e → xe
    }
    let w_eff: Vec<f64> = spec
        .input_weights
        .iter()
        .map(|w| w * spec.effort_scale.max(1e-6))
        .collect();
    let winv = Mat::diag(&w_eff.iter().map(|w| 1.0 / w).collect::<Vec<_>>());
    b.set_block(0, nw, &(&bgu * &winv)); // u' = W_eff·u drives the model

    // Outputs: [z_unc(ny) | z_perf(ny) | z_u(nu) | err'(ny) | ext'(ne)].
    let nz = ny + ny + nu;
    let nmeas = ny + ne;
    let (iz_perf, iz_u, iy_err, iy_ext) = (ny, 2 * ny, nz, nz + ny);
    let mut c = Mat::zeros(nz + nmeas, ntot);
    let mut d = Mat::zeros(nz + nmeas, nw + nu);
    // z_unc = δ·Cg·xg  (perturbation proportional to the modeled response)
    c.set_block(0, 0, &cg.scale(spec.uncertainty));
    // z_perf = xw + khf·(xr − Cg·xg − xd): the shaped-weight output.
    for j in 0..ny {
        c[(iz_perf + j, ixw + j)] = 1.0;
        c[(iz_perf + j, ixr + j)] = khf[j];
        c[(iz_perf + j, ixd + j)] = -khf[j];
    }
    let wecg = &Mat::diag(&khf) * &cg;
    for i in 0..ny {
        for j in 0..ng {
            c[(iz_perf + i, j)] = -wecg[(i, j)];
        }
    }
    // z_u = u' (already weight-normalized).
    for j in 0..nu {
        d[(iz_u + j, nw + j)] = 1.0;
    }
    // err' = (xr − Cg·xg − xd)/ε + n1.
    let eps = spec.noise_eps;
    let iw_n1 = 2 * ny + ne;
    let iw_n2 = iw_n1 + ny;
    for j in 0..ny {
        c[(iy_err + j, ixr + j)] = 1.0 / eps;
        c[(iy_err + j, ixd + j)] = -1.0 / eps;
        d[(iy_err + j, iw_n1 + j)] = 1.0;
    }
    for i in 0..ny {
        for j in 0..ng {
            c[(iy_err + i, j)] = -cg[(i, j)] / eps;
        }
    }
    // ext' = xe/ε + n2.
    for j in 0..ne {
        c[(iy_ext + j, ixe + j)] = 1.0 / eps;
        d[(iy_ext + j, iw_n2 + j)] = 1.0;
    }

    let sys = StateSpace::new(a, b, c, d, None)?;
    let gen = GenPlant::new(sys, nw, nu, nz, nmeas)?;
    Ok(SsvPlant {
        gen,
        ny,
        ne,
        nu,
        input_weights: w_eff,
        noise_eps: eps,
        ts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hinf::check_dgkf_assumptions;

    /// A small stable 2-output, 1-control, 1-external discrete model.
    fn toy_model() -> StateSpace {
        StateSpace::new(
            Mat::from_rows(&[&[0.7, 0.1], &[0.0, 0.5]]),
            Mat::from_rows(&[&[0.3, 0.1], &[0.1, 0.4]]), // [u, e]
            Mat::identity(2),
            Mat::zeros(2, 2),
            Some(0.5),
        )
        .unwrap()
    }

    fn toy_spec() -> SsvSpec {
        let mut s = SsvSpec::new(0.5, 2, 1, 1);
        s.output_bounds = vec![0.2, 0.1];
        s.input_weights = vec![1.0];
        s
    }

    #[test]
    fn built_plant_satisfies_dgkf() {
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        check_dgkf_assumptions(&p.gen, 1e-9).unwrap();
    }

    #[test]
    fn channel_counts() {
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        // ny=2, ne=1, nu=1 → nw = 2+2+1+2+1 = 8, nz = 2+2+1 = 5, nmeas = 3.
        assert_eq!(p.gen.n_w, 8);
        assert_eq!(p.gen.n_z, 5);
        assert_eq!(p.gen.n_y, 3);
        assert_eq!(p.gen.n_u, 1);
        let blocks = p.mu_blocks();
        assert_eq!(blocks[0].n_out + blocks[1].n_out, p.gen.n_z);
        assert_eq!(blocks[0].n_in + blocks[1].n_in, p.gen.n_w);
    }

    #[test]
    fn plant_is_stable_open_loop() {
        // Stable model + stable filters → stable generalized plant.
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        assert!(p.gen.sys.is_stable().unwrap());
    }

    #[test]
    fn scaling_preserves_assumptions_and_changes_gains() {
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        let scaled = p.scaled(3.0).unwrap();
        check_dgkf_assumptions(&scaled, 1e-9).unwrap();
        // z_unc rows grew, w_unc columns shrank.
        let g0 = p.gen.sys.freq_response(0.1).unwrap();
        let g1 = scaled.sys.freq_response(0.1).unwrap();
        // (z_unc row, e column): the external signal reaches the model and
        // hence z_unc, and is not a w_unc column → only row scaling applies.
        let e_col = 2 * p.ny; // w layout: [w_unc(ny) | r(ny) | e(ne) | …]
        assert!(g0.get(0, e_col).abs() > 1e-9, "e must reach z_unc");
        assert!((g1.get(0, e_col).abs() / g0.get(0, e_col).abs() - 3.0).abs() < 1e-6);
        // (z_perf row, w_unc column): only the 1/d column scaling applies.
        let zp_row = p.ny;
        assert!(g0.get(zp_row, 0).abs() > 1e-9, "w_unc must reach z_perf");
        assert!((g1.get(zp_row, 0).abs() / g0.get(zp_row, 0).abs() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn rational_scaling_with_flat_section_matches_constant_d() {
        // A zero-pole-coincident section of gain d is exactly the
        // constant-D scaling: responses must agree at every frequency.
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        let flat = RatSection {
            k: 2.5,
            z: 0.7,
            p: 0.7,
        };
        let rat = p.scaled_rational(&[flat]).unwrap();
        let con = p.scaled(2.5).unwrap();
        for &w in &[0.01, 0.1, 1.0, 3.0] {
            let gr = rat.sys.freq_response(w).unwrap();
            let gc = con.sys.freq_response(w).unwrap();
            for i in 0..gr.rows() {
                for j in 0..gr.cols() {
                    let (a, b) = (gr.get(i, j), gc.get(i, j));
                    assert!(
                        (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                        "mismatch at w={w} ({i},{j}): {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rational_scaling_preserves_dgkf_and_shapes_by_frequency() {
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        let sec = RatSection {
            k: 1.0,
            z: 0.05,
            p: 2.0,
        };
        let rat = p.scaled_rational(&[sec]).unwrap();
        check_dgkf_assumptions(&rat, 1e-9).unwrap();
        // |D(jω)| at low vs high frequency differs; the (z_unc row,
        // e column) gain must follow it while (z_perf, w_unc) follows the
        // inverse.
        let e_col = 2 * p.ny;
        for &w in &[0.01, 3.0] {
            let g0 = p.gen.sys.freq_response(w).unwrap();
            let g1 = rat.sys.freq_response(w).unwrap();
            let dmag = sec.magnitude(w);
            let ratio = g1.get(0, e_col).abs() / g0.get(0, e_col).abs();
            assert!(
                (ratio - dmag).abs() < 1e-4 * (1.0 + dmag),
                "w={w}: row ratio {ratio} vs |D| {dmag}"
            );
            let zp_row = p.ny;
            let ratio_inv = g1.get(zp_row, 0).abs() / g0.get(zp_row, 0).abs();
            assert!(
                (ratio_inv - 1.0 / dmag).abs() < 1e-4 * (1.0 + 1.0 / dmag),
                "w={w}: col ratio {ratio_inv} vs 1/|D| {}",
                1.0 / dmag
            );
        }
    }

    #[test]
    fn rational_scaling_rejects_non_minimum_phase_sections() {
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        for bad in [
            RatSection {
                k: -1.0,
                z: 1.0,
                p: 1.0,
            },
            RatSection {
                k: 1.0,
                z: -0.2,
                p: 1.0,
            },
            RatSection {
                k: 1.0,
                z: 1.0,
                p: 0.0,
            },
        ] {
            assert!(p.scaled_rational(&[bad]).is_err());
        }
    }

    #[test]
    fn rational_scaling_empty_cascade_is_identity() {
        let p = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        let rat = p.scaled_rational(&[]).unwrap();
        assert_eq!(rat.sys.order(), p.gen.sys.order());
        let g0 = p.gen.sys.freq_response(0.3).unwrap();
        let g1 = rat.sys.freq_response(0.3).unwrap();
        assert!((g0.get(0, 0) - g1.get(0, 0)).abs() < 1e-12);
    }

    #[test]
    fn tighter_bounds_raise_performance_weight() {
        let spec_tight = SsvSpec {
            output_bounds: vec![0.05, 0.05],
            ..toy_spec()
        };
        let p1 = build_ssv_plant(&toy_model(), &toy_spec()).unwrap();
        let p2 = build_ssv_plant(&toy_model(), &spec_tight).unwrap();
        // The z_perf rows should be larger for tighter bounds.
        let w = 0.05;
        let g1 = p1.gen.sys.freq_response(w).unwrap();
        let g2 = p2.gen.sys.freq_response(w).unwrap();
        let r_col = 2; // first reference column (ny=2)
        assert!(g2.get(2, r_col).abs() > g1.get(2, r_col).abs());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let spec = SsvSpec::new(0.5, 3, 1, 1); // model has 2 outputs
        assert!(build_ssv_plant(&toy_model(), &spec).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut spec = toy_spec();
        spec.uncertainty = 0.0;
        assert!(build_ssv_plant(&toy_model(), &spec).is_err());
        let mut spec2 = toy_spec();
        spec2.output_bounds[0] = -0.1;
        assert!(build_ssv_plant(&toy_model(), &spec2).is_err());
    }
}
