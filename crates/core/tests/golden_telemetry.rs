//! Golden test pinning the JSONL writer on real run traffic.
//!
//! `yukta-obs`'s own `golden_wire` test pins a handful of hand-made
//! entries. This one pins what a deployed run actually records: one
//! monitored Fig 9 cell (Yukta SSV+SSV on bodytrack, supervisor and health
//! monitor attached) on a manual-clock recorder, so every timestamp and
//! duration is 0 and the span and event lines are fully deterministic.
//! The aggregate lines are excluded: the `runtime.invoke_ns` histogram
//! holds wall-clock times.
//!
//! Regenerate after an *intentional* change to the recorded traffic or the
//! wire format with:
//!
//! ```text
//! cargo test -p yukta-core --test golden_telemetry -- --ignored --nocapture
//! ```
//!
//! and paste the printed constant over [`GOLDEN`].

use std::sync::Arc;

use yukta_core::runtime::{Experiment, RunOptions};
use yukta_core::schemes::Scheme;
use yukta_core::supervisor::SupervisorConfig;
use yukta_obs::export::to_jsonl;
use yukta_obs::health::HealthConfig;
use yukta_obs::mem::MemRecorder;
use yukta_workloads::catalog;

/// `(lines, bytes, FNV-1a digest)` of the exported span and event lines.
const GOLDEN: (usize, usize, u64) = (1631, 218220, 0xd0d45a77c4bfb853);

/// The span and event lines of one monitored Fig 9 cell's JSONL export,
/// newline-terminated.
fn entry_lines() -> (usize, String) {
    let rec = Arc::new(MemRecorder::manual());
    Experiment::new(Scheme::YuktaHwSsvOsSsv)
        .with_options(RunOptions {
            timeout_s: 700.0,
            ..Default::default()
        })
        .with_recorder(rec.clone())
        .run_monitored(
            &catalog::parsec::bodytrack(),
            SupervisorConfig::default(),
            None,
            HealthConfig::default(),
        )
        .unwrap();
    let snap = rec.snapshot();
    let n = snap.entries.len();
    // Spans and events come first, one line per entry.
    let lines = to_jsonl(&snap).split_inclusive('\n').take(n).collect();
    (n, lines)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn monitored_cell_span_and_event_lines_are_pinned() {
    let (n, text) = entry_lines();
    assert!(n > 0, "the monitored run recorded nothing");
    assert!(
        text.lines()
            .all(|l| l.starts_with("{\"type\":\"span\"") || l.starts_with("{\"type\":\"event\"")),
        "an aggregate line leaked into the pinned prefix"
    );
    assert_eq!((n, text.len(), fnv(text.as_bytes())), GOLDEN);
}

/// Prints the golden constant. Run with `-- --ignored --nocapture` (see
/// the module docs) and paste the output over [`GOLDEN`].
#[test]
#[ignore]
fn regenerate_golden_telemetry() {
    let (n, text) = entry_lines();
    println!(
        "const GOLDEN: (usize, usize, u64) = ({n}, {}, {:#018x});",
        text.len(),
        fnv(text.as_bytes())
    );
}
