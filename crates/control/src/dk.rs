//! D–K iteration: SSV controller synthesis.
//!
//! Alternates an H∞ synthesis step (K-step, on the D-scaled generalized
//! plant) with a scaling-optimization step (D-step, at the µ-peak
//! frequency of the unscaled closed loop), using constant block scalings.
//! The result is the discrete controller state machine of Equations 3–4 in
//! the paper, together with the achieved robust-performance level µ̂ that
//! determines the guaranteed output deviation bounds.

use yukta_linalg::ratfit::{self, RatSection};
use yukta_linalg::{Error, Result};
use yukta_obs::{NoopRecorder, Recorder, Value};

use crate::hinf::{DgkfFactors, GammaSearch, GenPlant, HinfDesign, hinf_bisect_counted};
use crate::mu::{MuPeak, log_grid, mu_peak_obs};
use crate::plant::{SsvSpec, build_ssv_plant};
use crate::ss::StateSpace;

/// Result of an SSV synthesis.
#[derive(Debug, Clone)]
pub struct SsvSynthesis {
    /// The deployable discrete observer-form controller: inputs are
    /// `[target − y (normalized, ny); external signals (normalized, ne);
    /// applied inputs (normalized, nu)]`, output is the commanded input
    /// vector. Deploy through [`crate::runtime::ObsAwController`], which
    /// quantizes each command and feeds the applied value back into the
    /// same invocation's state update.
    pub controller: StateSpace,
    /// H∞ level achieved on the final scaled plant.
    pub gamma: f64,
    /// Peak of the µ upper bound across frequency for the final design.
    pub mu_peak: f64,
    /// Final constant D-scalings (per µ block).
    pub scalings: Vec<f64>,
    /// The fitted rational `D(s)` sections of the winning design, empty
    /// when a constant-D iteration won. Minimum phase by construction.
    pub d_sections: Vec<RatSection>,
    /// D–K iterations performed.
    pub iterations: usize,
    /// Per-output deviation bounds the design *guarantees*, as a fraction
    /// of the signal range: the requested bounds hold when `µ ≤ 1`;
    /// otherwise they inflate proportionally (the paper's "deviations at
    /// least proportional to their relative bounds").
    pub guaranteed_bounds: Vec<f64>,
}

/// Options for [`synthesize_ssv`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DkOptions {
    /// Maximum D–K iterations.
    pub max_iters: usize,
    /// γ-bisection iterations per K-step (the multi-candidate search
    /// reaches the same bracket resolution in half as many rounds).
    pub gamma_iters: usize,
    /// Frequency-grid points for the µ sweep, from [`W_MIN`] up to
    /// [`W_MAX_FRAC`] of the Nyquist rate.
    pub n_freq: usize,
    /// Holds nothing. The `benchmark` package writes
    /// `..DkOptions::default()` after the three fields above, which clippy
    /// rejects as a needless update when no other field is left.
    pub reserved: (),
}

/// Lower edge of the µ frequency grid, rad/s.
pub const W_MIN: f64 = 1e-3;

/// Upper edge of the µ grid as a fraction of the Nyquist rate π/ts.
pub const W_MAX_FRAC: f64 = 0.98;

/// Relative D-scaling change below which the iteration is converged.
pub const D_CONVERGE_TOL: f64 = 0.05;

/// First-order sections of the rational `D(s)` fitted to the
/// per-grid-point Osborne scalings for one final frequency-dependent
/// K-step.
pub const D_FIT_SECTIONS: usize = 1;

const _: () = assert!(W_MIN > 0.0 && 0.0 < W_MAX_FRAC && W_MAX_FRAC <= 1.0);
const _: () = assert!(D_CONVERGE_TOL > 0.0);
// More sections would balloon the scaled plant's order.
const _: () = assert!(D_FIT_SECTIONS <= 4);

impl Default for DkOptions {
    fn default() -> Self {
        DkOptions {
            max_iters: 3,
            gamma_iters: 20,
            n_freq: 40,
            reserved: (),
        }
    }
}

impl DkOptions {
    /// Checks the options against the sample time `ts` before any
    /// synthesis work starts: a degenerate frequency grid would otherwise
    /// produce a silently meaningless µ sweep.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSolution`] (op `dk_options`) naming the first
    /// violated constraint.
    pub fn validate(&self, ts: f64) -> Result<()> {
        let fail = |why: &'static str| Error::NoSolution {
            op: "dk_options",
            why,
        };
        if self.n_freq == 0 {
            return Err(fail("empty frequency grid (n_freq must be at least 1)"));
        }
        if self.n_freq > 1 && W_MIN >= W_MAX_FRAC * std::f64::consts::PI / ts {
            return Err(fail(
                "frequency grid not monotone: W_MIN reaches the Nyquist cap",
            ));
        }
        Ok(())
    }

    /// The µ sweep grid these options define for sample time `ts`.
    fn grid(&self, ts: f64) -> Vec<f64> {
        let w_nyquist = std::f64::consts::PI / ts;
        log_grid(W_MIN, W_MAX_FRAC * w_nyquist, self.n_freq)
    }
}

/// Synthesizes an SSV controller for an identified (normalized, discrete,
/// strictly proper) model with inputs `[u; e]` and the given spec.
///
/// # Errors
///
/// * Plant-construction errors (see [`build_ssv_plant`]).
/// * [`Error::NoSolution`] if no feasible H∞ level exists even on the
///   unscaled plant — typically the bounds are too tight for the
///   requested guardband (the paper's "MATLAB routines will fail to build
///   the controller").
///
/// # Examples
///
/// ```
/// use yukta_control::dk::{synthesize_ssv, DkOptions};
/// use yukta_control::plant::SsvSpec;
/// use yukta_control::ss::StateSpace;
/// use yukta_linalg::Mat;
///
/// # fn main() -> Result<(), yukta_linalg::Error> {
/// let model = StateSpace::new(
///     Mat::filled(1, 1, 0.6),
///     Mat::from_rows(&[&[0.4, 0.1]]), // one control input, one external
///     Mat::identity(1),
///     Mat::zeros(1, 2),
///     Some(0.5),
/// )?;
/// let spec = SsvSpec::new(0.5, 1, 1, 1);
/// let syn = synthesize_ssv(&model, &spec, DkOptions::default())?;
/// assert!(syn.controller.is_stable()?);
/// # Ok(())
/// # }
/// ```
pub fn synthesize_ssv(model: &StateSpace, spec: &SsvSpec, opts: DkOptions) -> Result<SsvSynthesis> {
    synthesize_ssv_obs(model, spec, opts, yukta_obs::handle())
}

/// [`synthesize_ssv`] reporting per-phase telemetry to an explicit
/// [`Recorder`]: one `dk.synthesize` span over the whole synthesis, a
/// `dk.iteration` span per D–K iteration containing a `dk.k_step` span
/// (plant scaling + factor extraction + synthesis) with a nested
/// `dk.gamma_bisect` span around the multi-candidate γ-search, and a
/// `dk.d_step` span around the µ sweep and scaling update (with a nested
/// `mu.sweep` span). Every per-iteration span carries an `iter` field so
/// `obs_report --phases dk` can attribute wall time per iteration. A
/// `dk.rational_step` span times the rational-D step (fit, K-step and µ
/// sweep) and carries its µ, its γ-search's `probes`, whether the hint
/// from the last constant-D γ verified a leaf (`warm_hit`) and the
/// leaves its walk stepped (`walk`).
/// Telemetry never influences the computation — results are identical to
/// [`synthesize_ssv`].
///
/// # Errors
///
/// Same as [`synthesize_ssv`], plus [`Error::NoSolution`] (op
/// `dk_options`) for invalid options.
pub fn synthesize_ssv_obs(
    model: &StateSpace,
    spec: &SsvSpec,
    opts: DkOptions,
    rec: &dyn Recorder,
) -> Result<SsvSynthesis> {
    opts.validate(spec.ts)?;
    let total_span = yukta_obs::span(rec, "dk.synthesize");
    let plant = build_ssv_plant(model, spec)?;
    let blocks = plant.mu_blocks();
    let grid = opts.grid(spec.ts);
    // The D-step's measurement of a K-step design: µ on the *unscaled*
    // closed loop. The µ sweep optimizes the scalings at every grid
    // point, so the ones at the peak are exactly what re-evaluating the
    // loop there would produce: the next constant D reuses them.
    let measure = |design: HinfDesign, gamma: f64, sections: Vec<RatSection>| {
        let cl = plant.gen.lft(&design.k)?;
        let peak = mu_peak_obs(&cl, &blocks, &grid, rec)?;
        Ok::<_, Error>(DkCandidate {
            design,
            gamma,
            peak,
            sections,
        })
    };

    let mut d_scale = 1.0f64;
    let mut best_design: Option<DkCandidate> = None;
    // The γ hint of the next K-step. A constant-D K-step after the first
    // starts from the µ the D-step before it measured: that D-step's
    // scalings are the ones this K-step runs on, and its γ lands within
    // a few lattice leaves of that µ. The rational step starts from the
    // last constant-D γ, whose leaf it usually ends in.
    let mut hint = None;
    let mut last_gamma = None;
    let mut iters = 0;
    for _ in 0..opts.max_iters.max(1) {
        iters += 1;
        let iter_span = yukta_obs::span(rec, "dk.iteration");
        let k_span = yukta_obs::span(rec, "dk.k_step");
        let scaled = plant.scaled(d_scale)?;
        let (design, gamma) = match k_step(&scaled, opts.gamma_iters, rec, iters, hint) {
            Ok((design, gamma, _)) => {
                last_gamma = Some(gamma);
                (design, gamma)
            }
            Err(e) => {
                if best_design.is_some() {
                    break; // keep the best design found so far
                }
                return Err(e);
            }
        };
        if rec.enabled() {
            k_span.end_with(&[
                ("iter", Value::U64(iters as u64)),
                ("gamma", Value::F64(gamma)),
                ("gamma_iters", Value::U64(opts.gamma_iters as u64)),
            ]);
        }
        let d_span = yukta_obs::span(rec, "dk.d_step");
        let candidate = measure(design, gamma, Vec::new())?;
        let new_d = candidate.peak.scalings[0].clamp(1e-3, 1e3);
        let mu_here = candidate.peak.peak;
        if best_design.as_ref().is_none_or(|c| mu_here < c.peak.peak) {
            best_design = Some(candidate);
        }
        if rec.enabled() {
            d_span.end_with(&[
                ("iter", Value::U64(iters as u64)),
                ("d_scale", Value::F64(new_d)),
                ("mu", Value::F64(mu_here)),
            ]);
            iter_span.end_with(&[("iter", Value::U64(iters as u64))]);
        }
        if (new_d / d_scale - 1.0).abs() < D_CONVERGE_TOL {
            break; // scalings converged
        }
        d_scale = new_d;
        hint = Some(mu_here);
    }
    // Rational-D refinement: fit a low-order minimum-phase D(s) to the
    // per-grid-point Osborne scalings of the best constant-D design and
    // run one frequency-dependent K-step on the dynamically scaled plant.
    // µ is still evaluated on the *unscaled* closed loop and the winner
    // is chosen by minimum µ, so this step can only improve on the
    // constant-D bound, never fall below it.
    let fit_data = best_design.as_ref().map(|c| {
        let omega: Vec<f64> = c.peak.curve.iter().map(|&(w, _)| w).collect();
        let mags: Vec<f64> = c
            .peak
            .point_scalings
            .iter()
            .map(|s| s[0].clamp(1e-3, 1e3))
            .collect();
        (omega, mags, c.peak.peak)
    });
    if let Some((omega, mags, best_mu)) = fit_data {
        let spread = mags.iter().cloned().fold(0.0f64, f64::max)
            / mags
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
                .max(1e-300);
        // A near-constant d(ω) has nothing to gain over the constant
        // step the loop already took.
        if omega.len() >= 3 && spread > 1.05 {
            let rat_span = yukta_obs::span(rec, "dk.rational_step");
            // `dk.rational_step` times this K-step, so it reports no
            // `dk.gamma_bisect` span of its own: its γ-search's probes,
            // whether the hint verified a leaf and the walk are the
            // span's fields.
            let mut search = None;
            let rational = ratfit::fit_sections(&omega, &mags, D_FIT_SECTIONS)
                .ok()
                .filter(|fitted| fitted.iter().any(|s| s.z != s.p))
                .and_then(|fitted| {
                    let scaled = plant.scaled_rational(&fitted).ok()?;
                    let (design, gamma, spent) =
                        k_step(&scaled, opts.gamma_iters, &NoopRecorder, iters, last_gamma).ok()?;
                    search = Some(spent);
                    measure(design, gamma, fitted).ok()
                });
            let rat_mu = rational.as_ref().map_or(f64::NAN, |c| c.peak.peak);
            if let Some(candidate) = rational {
                iters += 1;
                if candidate.peak.peak < best_mu {
                    best_design = Some(candidate);
                }
            }
            if rec.enabled() {
                rat_span.end_with(&[
                    ("sections", Value::U64(D_FIT_SECTIONS as u64)),
                    ("mu", Value::F64(rat_mu)),
                    ("probes", Value::U64(search.map_or(0, |s| s.probes))),
                    ("warm_hit", Value::Bool(search.is_some_and(|s| s.hint_hit))),
                    ("walk", Value::U64(search.map_or(0, |s| s.walk))),
                ]);
            }
        }
    }
    let DkCandidate {
        design,
        gamma,
        peak,
        sections,
    } = best_design.ok_or(Error::NoSolution {
        op: "synthesize_ssv",
        why: "D-K iteration found no feasible controller",
    })?;
    let mu = peak.peak;
    // Deploy the observer form (anti-windup), all scalings baked in.
    let controller = plant.deploy_anti_windup(&design)?;
    let scale = mu.max(1.0);
    let guaranteed_bounds = spec.output_bounds.iter().map(|b| b * scale).collect();
    if rec.enabled() {
        total_span.end_with(&[
            ("iterations", Value::U64(iters as u64)),
            ("gamma", Value::F64(gamma)),
            ("mu", Value::F64(mu)),
        ]);
    }
    Ok(SsvSynthesis {
        controller,
        gamma,
        mu_peak: mu,
        scalings: peak.scalings,
        d_sections: sections,
        iterations: iters,
        guaranteed_bounds,
    })
}

/// The K-step shared by the constant-D iterations and the rational-D
/// step: factor the D-scaled plant (which checks the synthesis
/// assumptions) and run the γ-search on it inside a `dk.gamma_bisect`
/// span tagged with `iter`, the H∞ syntheses the search started
/// (`probes`), how many of those it abandoned as moot (`cancelled`), the
/// γ `hint` (NaN when the search starts cold), whether the hint verified
/// a lattice leaf (`hint_hit`) and how many leaves it walked (`walk`).
/// A hint from earlier in the same synthesis is verified on this plant
/// before it is used (see [`hinf_bisect_counted`]).
fn k_step(
    scaled: &GenPlant,
    gamma_iters: usize,
    rec: &dyn Recorder,
    iter: usize,
    hint: Option<f64>,
) -> Result<(HinfDesign, f64, GammaSearch)> {
    let fac = DgkfFactors::new(scaled)?;
    let span = yukta_obs::span(rec, "dk.gamma_bisect");
    let (design, gamma, spent) = hinf_bisect_counted(scaled, &fac, 0.05, 64.0, gamma_iters, hint)?;
    if rec.enabled() {
        span.end_with(&[
            ("iter", Value::U64(iter as u64)),
            ("gamma", Value::F64(gamma)),
            ("probes", Value::U64(spent.probes)),
            ("cancelled", Value::U64(spent.cancelled)),
            ("hint", Value::F64(hint.unwrap_or(f64::NAN))),
            ("hint_hit", Value::Bool(spent.hint_hit)),
            ("walk", Value::U64(spent.walk)),
        ]);
    }
    Ok((design, gamma, spent))
}

/// One D–K candidate: the H∞ design, its achieved γ, the µ sweep of its
/// unscaled closed loop, and the rational D(s) sections that produced it
/// (empty for constant-D iterations).
struct DkCandidate {
    design: HinfDesign,
    gamma: f64,
    peak: MuPeak,
    sections: Vec<RatSection>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use yukta_linalg::Mat;
    use yukta_obs::mem::OwnedValue;

    /// 2-output, 1-control, 1-external stable model at 0.5 s.
    fn toy_model() -> StateSpace {
        StateSpace::new(
            Mat::from_rows(&[&[0.7, 0.1], &[0.0, 0.5]]),
            Mat::from_rows(&[&[0.3, 0.1], &[0.1, 0.4]]),
            Mat::identity(2),
            Mat::zeros(2, 2),
            Some(0.5),
        )
        .unwrap()
    }

    fn toy_spec() -> SsvSpec {
        let mut s = SsvSpec::new(0.5, 2, 1, 1);
        s.output_bounds = vec![0.2, 0.2];
        s
    }

    #[test]
    fn synthesis_produces_stable_discrete_controller() {
        let syn = synthesize_ssv(&toy_model(), &toy_spec(), DkOptions::default()).unwrap();
        assert!(syn.controller.is_discrete());
        assert_eq!(syn.controller.ts(), Some(0.5));
        assert!(syn.controller.is_stable().unwrap());
        assert_eq!(syn.controller.n_inputs(), 4); // 2 errors + 1 external + 1 applied
        assert_eq!(syn.controller.n_outputs(), 1);
        assert!(syn.gamma > 0.0);
        assert!(syn.mu_peak > 0.0);
    }

    #[test]
    fn closed_loop_tracks_target_in_simulation() {
        // Wire the synthesized controller to the *original* discrete model
        // through the anti-windup runtime and check that the first output
        // converges near a feasible target.
        let model = toy_model();
        let syn = synthesize_ssv(&toy_model(), &toy_spec(), DkOptions::default()).unwrap();
        let mut aw = crate::runtime::ObsAwController::new(&syn.controller).unwrap();
        let mut xg = vec![0.0; model.order()];
        let mut y = vec![0.0; 2];
        // Feasible target: DC output for a constant u=0.5, e=0.
        let dc = model.dc_gain().unwrap();
        let target = [dc[(0, 0)] * 0.5, dc[(1, 0)] * 0.5];
        for _ in 0..400 {
            let meas = vec![target[0] - y[0], target[1] - y[1], 0.0];
            let clamp = |u: &[f64], out: &mut Vec<f64>| out.push(u[0].clamp(-1.5, 1.5));
            let u = aw.step(&meas, &clamp).unwrap().1[0];
            // plant step with [u, e=0]
            let uin = vec![u, 0.0];
            let mut xgn = model.a().matvec(&xg).unwrap();
            let bg = model.b().matvec(&uin).unwrap();
            for (xi, bi) in xgn.iter_mut().zip(&bg) {
                *xi += bi;
            }
            xg = xgn;
            y = model.c().matvec(&xg).unwrap();
        }
        // With one actuator and two outputs the controller balances both
        // errors; each should land within the design bounds scaled by the
        // achieved mu.
        let tol = 0.4 * syn.mu_peak.max(1.0) + 0.05;
        assert!(
            (y[0] - target[0]).abs() < tol,
            "y0 {} vs target {}",
            y[0],
            target[0]
        );
        assert!(
            (y[1] - target[1]).abs() < tol,
            "y1 {} vs target {}",
            y[1],
            target[1]
        );
    }

    #[test]
    fn larger_guardband_degrades_mu() {
        let mut wide = toy_spec();
        wide.uncertainty = 2.5; // ±250%
        let tight = toy_spec(); // ±40%
        let s_tight = synthesize_ssv(&toy_model(), &tight, DkOptions::default()).unwrap();
        let s_wide = synthesize_ssv(&toy_model(), &wide, DkOptions::default()).unwrap();
        assert!(
            s_wide.mu_peak >= s_tight.mu_peak * 0.9,
            "wide {} vs tight {}",
            s_wide.mu_peak,
            s_tight.mu_peak
        );
    }

    #[test]
    fn guaranteed_bounds_scale_with_mu() {
        let syn = synthesize_ssv(&toy_model(), &toy_spec(), DkOptions::default()).unwrap();
        let scale = syn.mu_peak.max(1.0);
        for (g, b) in syn.guaranteed_bounds.iter().zip(&toy_spec().output_bounds) {
            assert!((g - b * scale).abs() < 1e-12);
        }
    }

    #[test]
    fn instrumented_synthesis_is_bit_identical_and_captures_phases() {
        let base = synthesize_ssv(&toy_model(), &toy_spec(), DkOptions::default()).unwrap();
        let rec = yukta_obs::mem::MemRecorder::new();
        let obs =
            synthesize_ssv_obs(&toy_model(), &toy_spec(), DkOptions::default(), &rec).unwrap();
        assert_eq!(base.gamma.to_bits(), obs.gamma.to_bits());
        assert_eq!(base.mu_peak.to_bits(), obs.mu_peak.to_bits());
        assert_eq!(base.iterations, obs.iterations);
        assert_eq!(base.scalings, obs.scalings);
        let snap = rec.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name).collect();
        for phase in [
            "dk.synthesize",
            "dk.iteration",
            "dk.k_step",
            "dk.gamma_bisect",
            "mu.sweep",
            "dk.d_step",
        ] {
            assert!(names.contains(&phase), "missing phase {phase} in {names:?}");
        }
        // Every γ-search reports what it spent: at least the ceiling
        // probe, and never more abandoned probes than started ones.
        for e in snap.entries.iter().filter(|e| e.name == "dk.gamma_bisect") {
            let count = |key: &str| {
                snap.fields_of(e).iter().find_map(|(k, v)| match v {
                    OwnedValue::U64(n) if *k == key => Some(*n),
                    _ => None,
                })
            };
            let (probes, cancelled) = (count("probes"), count("cancelled"));
            assert!(
                probes.is_some_and(|p| p >= 1),
                "probes in {:?}",
                snap.fields_of(e)
            );
            assert!(cancelled.is_some_and(|c| c <= probes.unwrap()));
        }
    }

    /// Each invalid option must be rejected with the typed `dk_options`
    /// error before any synthesis work runs.
    fn assert_rejected(spec: &SsvSpec, opts: DkOptions) {
        match synthesize_ssv(&toy_model(), spec, opts) {
            Err(Error::NoSolution { op, .. }) => assert_eq!(op, "dk_options"),
            other => panic!("expected dk_options rejection, got {other:?}"),
        }
    }

    #[test]
    fn empty_grid_rejected() {
        assert_rejected(
            &toy_spec(),
            DkOptions {
                n_freq: 0,
                ..DkOptions::default()
            },
        );
    }

    #[test]
    fn non_monotone_grid_rejected() {
        // A sample time so long that the Nyquist cap falls below W_MIN:
        // the log grid would collapse.
        let mut spec = toy_spec();
        spec.ts = 2.0 * W_MAX_FRAC * std::f64::consts::PI / W_MIN;
        assert_rejected(&spec, DkOptions::default());
    }

    #[test]
    fn default_options_validate() {
        DkOptions::default().validate(0.5).unwrap();
    }

    #[test]
    fn rational_step_never_degrades_mu() {
        // The rational-D candidate is adopted only when its µ beats the
        // best constant-D iterate, so the reported bound is the minimum
        // over every D-step and the rational step.
        let rec = yukta_obs::mem::MemRecorder::new();
        let syn =
            synthesize_ssv_obs(&toy_model(), &toy_spec(), DkOptions::default(), &rec).unwrap();
        let snap = rec.snapshot();
        let mu_of = |name: &str| -> Vec<f64> {
            snap.entries
                .iter()
                .filter(|e| e.name == name)
                .filter_map(|e| {
                    snap.fields_of(e).iter().find_map(|(k, v)| match v {
                        OwnedValue::F64(mu) if *k == "mu" => Some(*mu),
                        _ => None,
                    })
                })
                .collect()
        };
        let d_steps = mu_of("dk.d_step");
        let rational = mu_of("dk.rational_step");
        assert!(!d_steps.is_empty());
        assert_eq!(
            rational.len(),
            1,
            "the toy plant exercises the rational step"
        );
        // `f64::min` skips the NaN a failed rational candidate reports.
        let best = d_steps
            .iter()
            .chain(&rational)
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(
            syn.mu_peak.to_bits(),
            best.to_bits(),
            "{d_steps:?} {rational:?}"
        );
        // Any adopted sections must be realizable minimum-phase filters.
        assert!(syn.d_sections.iter().all(|s| s.is_minimum_phase()));
    }

    #[test]
    fn rational_step_confirms_the_last_constant_d_bracket() {
        // The toy model's rational step lands in the lattice leaf of its
        // last constant-D γ: two probes confirm the leaf, no walk, and
        // the cold search never runs.
        let rec = yukta_obs::mem::MemRecorder::new();
        synthesize_ssv_obs(&toy_model(), &toy_spec(), DkOptions::default(), &rec).unwrap();
        let snap = rec.snapshot();
        let rational: Vec<_> = snap
            .entries
            .iter()
            .filter(|e| e.name == "dk.rational_step")
            .collect();
        assert_eq!(rational.len(), 1);
        let fields = snap.fields_of(rational[0]);
        let warm_hit = fields.iter().find_map(|(k, v)| match v {
            OwnedValue::Bool(b) if *k == "warm_hit" => Some(*b),
            _ => None,
        });
        let probes = fields.iter().find_map(|(k, v)| match v {
            OwnedValue::U64(n) if *k == "probes" => Some(*n),
            _ => None,
        });
        let walk = fields.iter().find_map(|(k, v)| match v {
            OwnedValue::U64(n) if *k == "walk" => Some(*n),
            _ => None,
        });
        assert_eq!(
            (warm_hit, probes, walk),
            (Some(true), Some(2), Some(0)),
            "{fields:?}"
        );
    }

    #[test]
    fn second_k_step_takes_the_d_step_mu_as_its_hint() {
        // Iteration 1 starts cold; iteration 2 starts from the µ that
        // iteration 1's D-step measured and verifies a lattice leaf
        // without the cold search, walking at most the cap.
        let rec = yukta_obs::mem::MemRecorder::new();
        synthesize_ssv_obs(&toy_model(), &toy_spec(), DkOptions::default(), &rec).unwrap();
        let snap = rec.snapshot();
        let field = |name: &str, iter: u64, key: &str| {
            let e = snap
                .entries
                .iter()
                .find(|e| {
                    e.name == name && snap.fields_of(e).contains(&("iter", OwnedValue::U64(iter)))
                })
                .unwrap_or_else(|| panic!("no {name} span for iteration {iter}"));
            let fields = snap.fields_of(e);
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("no {key} in {fields:?}"))
        };
        let f64_of = |v: OwnedValue| match v {
            OwnedValue::F64(x) => x,
            other => panic!("not an f64: {other:?}"),
        };
        assert!(f64_of(field("dk.gamma_bisect", 1, "hint")).is_nan());
        assert_eq!(
            field("dk.gamma_bisect", 1, "hint_hit"),
            OwnedValue::Bool(false)
        );
        let mu_1 = f64_of(field("dk.d_step", 1, "mu"));
        assert_eq!(
            f64_of(field("dk.gamma_bisect", 2, "hint")).to_bits(),
            mu_1.to_bits()
        );
        assert_eq!(
            field("dk.gamma_bisect", 2, "hint_hit"),
            OwnedValue::Bool(true)
        );
        match field("dk.gamma_bisect", 2, "walk") {
            OwnedValue::U64(walk) => assert!(walk <= crate::hinf::HINT_WALK_CAP),
            other => panic!("walk {other:?}"),
        }
    }

    #[test]
    fn impossible_bounds_fail_cleanly() {
        let mut spec = toy_spec();
        // Absurdly tight bounds with huge uncertainty: either synthesis
        // fails outright or reports µ ≫ 1 (bounds not guaranteed).
        spec.output_bounds = vec![1e-5, 1e-5];
        spec.uncertainty = 4.0;
        match synthesize_ssv(&toy_model(), &spec, DkOptions::default()) {
            Err(_) => {}
            Ok(s) => assert!(s.mu_peak > 1.0, "µ = {}", s.mu_peak),
        }
    }
}
