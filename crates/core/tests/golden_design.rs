//! Golden-digest regression test for the controller design pipeline.
//!
//! Characterize → identify → synthesize is deterministic, so every
//! `f64` a [`Design`] carries is pinned here by one FNV-1a digest over
//! its bit patterns: both SSV syntheses (controller, γ, µ̂, scalings, the
//! rational D sections, guaranteed bounds), all five identified models,
//! the fits, the uncertainty radii used and the validation residuals.
//! A refactor of the pipeline is correct when these digests do not move.
//!
//! It also pins the γ hints of the deployed syntheses: every hinted
//! K-step verifies a lattice leaf without the cold γ-search, a property
//! that moves no bit but guards the synthesis time the hints save.
//!
//! Regenerate after an *intentional* numerical change with:
//!
//! ```text
//! cargo test -p yukta-core --test golden_design -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants over `GOLDEN_DEFAULT` (in
//! `support/mod.rs`, which the identification-telemetry test shares) and
//! `GOLDEN_FIXED_GUARDBAND` below.

mod support;

use support::{Fnv, GOLDEN_DEFAULT, digest};
use yukta_control::dk::synthesize_ssv_obs;
use yukta_core::design::{
    DesignOptions, Layer, build_design, default_design, dk_options, layer_spec,
};
use yukta_obs::mem::{MemRecorder, OwnedValue};

/// Digest of the design built with `auto_guardband = false`.
const GOLDEN_FIXED_GUARDBAND: u64 = 0x40dce451b41ce487;

fn fixed_guardband_options() -> DesignOptions {
    DesignOptions {
        auto_guardband: false,
        ..Default::default()
    }
}

#[test]
fn default_design_matches_golden_digest() {
    assert_eq!(
        digest(default_design()),
        GOLDEN_DEFAULT,
        "default design drifted"
    );
}

#[test]
fn fixed_guardband_design_matches_golden_digest() {
    let opts = fixed_guardband_options();
    let d = build_design(&opts).unwrap();
    // With auto-tuning off the synthesis uses the configured radii as-is.
    assert_eq!(d.hw_uncertainty_used, opts.hw_uncertainty);
    assert_eq!(d.os_uncertainty_used, opts.os_uncertainty);
    assert_eq!(
        digest(&d),
        GOLDEN_FIXED_GUARDBAND,
        "fixed-guardband design drifted"
    );
}

/// Resynthesizes both deployed layers and checks every hinted K-step: the
/// second constant-D K-step (hinted by the first D-step's µ) and the
/// rational-D step (hinted by the last constant-D γ) each verify a
/// lattice leaf, so neither runs the cold 15-probe γ-search. A fallback
/// would cost time but no bits, so the digests above cannot see it; this
/// count is deterministic, so host speed cannot flake it.
#[test]
fn deployed_resynthesis_takes_every_gamma_hint() {
    let d = default_design();
    let layers = [
        (
            Layer::Hw,
            &d.hw_model_full,
            &d.hw_ssv,
            d.hw_uncertainty_used,
        ),
        (
            Layer::Os,
            &d.os_model_full,
            &d.os_ssv,
            d.os_uncertainty_used,
        ),
    ];
    for (layer, model, deployed, uncertainty) in layers {
        let rec = MemRecorder::new();
        let spec = layer_spec(&d.options, layer, uncertainty);
        let syn = synthesize_ssv_obs(model, &spec, dk_options(), &rec).unwrap();
        let (mut again, mut before) = (Fnv::new(), Fnv::new());
        again.ssv(&syn);
        before.ssv(deployed);
        assert_eq!(again.0, before.0, "{layer:?} resynthesis drifted");
        let snap = rec.snapshot();
        let mut hinted = 0;
        for e in &snap.entries {
            let fields = snap.fields_of(e);
            let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            let hit = match e.name {
                "dk.gamma_bisect" => match get("hint") {
                    Some(OwnedValue::F64(h)) if h.is_finite() => get("hint_hit"),
                    _ => continue,
                },
                "dk.rational_step" => get("warm_hit"),
                _ => continue,
            };
            hinted += 1;
            assert_eq!(
                hit,
                Some(&OwnedValue::Bool(true)),
                "{layer:?} {} fell back to the cold search: {fields:?}",
                e.name
            );
        }
        assert_eq!(hinted, 2, "{layer:?}: K-step 2 and the rational step");
    }
}

/// Prints the golden constants. Run with `-- --ignored --nocapture` (see
/// the module docs) and paste the output over the constants.
#[test]
#[ignore]
fn regenerate_golden_digests() {
    println!(
        "const GOLDEN_DEFAULT: u64 = {:#018x};",
        digest(default_design())
    );
    let d = build_design(&fixed_guardband_options()).unwrap();
    println!("const GOLDEN_FIXED_GUARDBAND: u64 = {:#018x};", digest(&d));
}
