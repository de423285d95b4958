//! Identification telemetry of the design build, in a process of its own:
//! it installs a process-global [`MemRecorder`], which would capture the
//! spans of every other test sharing the process.
//!
//! [`default_design`] fits seven ARX models (the HW and OS layer models,
//! their two guardband fits on the leading part of the record, the two
//! layer-solo models and the monolithic one), each inside a
//! `design.identify` span with the shape of its least-squares problem.
//! Recording them moves no bit of the design.

mod support;

use support::{GOLDEN_DEFAULT, digest};
use yukta_core::design::default_design;
use yukta_obs::mem::{MemRecorder, OwnedValue};

#[test]
fn design_build_records_one_identify_span_per_fit() {
    let rec: &'static MemRecorder = Box::leak(Box::new(MemRecorder::new()));
    assert!(
        yukta_obs::install(rec),
        "a global recorder was already installed"
    );
    assert_eq!(
        digest(default_design()),
        GOLDEN_DEFAULT,
        "default design drifted"
    );
    let snap = rec.snapshot();
    let mut shapes = Vec::new();
    for e in snap.entries.iter().filter(|e| e.name == "design.identify") {
        let fields = snap.fields_of(e);
        let get = |key: &str| match fields.iter().find(|(k, _)| *k == key) {
            Some((_, OwnedValue::U64(n))) => *n,
            other => panic!("design.identify field {key}: {other:?}"),
        };
        shapes.push((get("rows"), get("cols"), get("outputs")));
    }
    // In build order: the HW and OS layer models (on all seven inputs),
    // their guardband fits on the leading 75% of the record, the two
    // layer-solo models and the monolithic one; each regression carries
    // one ridge row per regressor.
    assert_eq!(
        shapes,
        [
            (739, 22, 4),
            (737, 20, 3),
            (559, 22, 4),
            (557, 20, 3),
            (733, 16, 4),
            (729, 12, 3),
            (745, 28, 7),
        ]
    );
    assert!(snap.entries.iter().any(|e| e.name == "dk.synthesize"));
}
