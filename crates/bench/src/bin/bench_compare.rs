//! Diffs fresh campaign envelopes (`BENCH_*.json`) against committed
//! baselines with per-metric tolerance bands, exiting non-zero on any
//! regression — the CI gate that catches a campaign silently drifting
//! from its recorded results.
//!
//! ```text
//! bench_compare --baseline results_baseline --fresh results
//! bench_compare --baseline old --fresh new --tol 0.25 --atol 0.05
//! ```
//!
//! Every `BENCH_*.json` present in the baseline directory and also in the
//! fresh directory is compared:
//!
//! * The fresh envelope's `panics` and `failures` must both be zero.
//! * Rows are matched by identity — the concatenation of their
//!   string-valued fields (`cell`, `scheme`, `workload`, …) plus the
//!   numeric grid coordinates of [`GRID_KEYS`] (`severity`, `load`,
//!   `seed`, …), with any residual collisions paired by occurrence
//!   order. Baseline rows missing from a fresh `--quick` envelope are
//!   skipped (the smoke grid is a subset); missing from a fresh *full*
//!   envelope is a failure. A fresh row that matches no baseline row is
//!   a failure too: its metrics would otherwise go unchecked, so a new
//!   cell gates only once its baseline is committed.
//! * Within a matched row, simulated metrics are compared field by
//!   field: integer-valued numbers and booleans exactly (the simulation
//!   is deterministic), floats within `atol + tol·max(|a|,|b|)`.
//!   Wall-clock fields (names ending `_s`, `_ms`, or `_ns`, or containing
//!   `speedup` or `overhead`) are machine-dependent and only gate when
//!   the values disagree by more than `--time-ratio` (default 4×).
//!
//! Missing baselines are not an error — a campaign gains its baseline the
//! first time its envelope is committed.

use yukta_obs::json::{self, Json};

struct Args {
    baseline: String,
    fresh: String,
    tol: f64,
    atol: f64,
    time_ratio: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: String::new(),
        fresh: String::new(),
        tol: 0.25,
        atol: 0.05,
        time_ratio: 4.0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut take = |dst: &mut String| {
            if let Some(v) = it.next() {
                *dst = v.clone();
            }
        };
        match a.as_str() {
            "--baseline" => take(&mut args.baseline),
            "--fresh" => take(&mut args.fresh),
            "--tol" => {
                args.tol = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.tol);
            }
            "--atol" => {
                args.atol = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.atol);
            }
            "--time-ratio" => {
                args.time_ratio = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.time_ratio);
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if args.baseline.is_empty() || args.fresh.is_empty() {
        eprintln!(
            "usage: bench_compare --baseline <dir> --fresh <dir> \
             [--tol 0.25] [--atol 0.05] [--time-ratio 4.0]"
        );
        std::process::exit(2);
    }
    args
}

/// Non-string fields that are grid coordinates rather than measured
/// metrics: they join the row identity so that, e.g., the severity-0 and
/// severity-0.5 rows of one chaos cell never match each other. Metric
/// fields must stay out — a changed metric should *diff* inside a matched
/// row, not orphan it.
const GRID_KEYS: &[&str] = &[
    "severity",
    "delay_s",
    "load",
    "seed",
    "order",
    "grid_points",
    "swap_at",
    "onset_step",
    "crash_steps",
    "reps",
];

/// Canonical rendering of a grid-coordinate value for the identity key.
fn grid_value(v: &Json) -> String {
    match v {
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        Json::Bool(b) => format!("{b}"),
        Json::Null => "null".into(),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(grid_value).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(_) => String::new(),
    }
}

/// A row's identity: its string-valued fields plus the grid-coordinate
/// fields of [`GRID_KEYS`], in key order. Rows that still collide (a
/// campaign repeating the exact same cell) are paired by occurrence
/// order in [`compare_file`].
fn row_identity(row: &Json) -> String {
    let Json::Obj(pairs) = row else {
        return String::new();
    };
    pairs
        .iter()
        .filter_map(|(k, v)| match v {
            Json::Str(s) => Some(format!("{k}={s}")),
            _ if GRID_KEYS.contains(&k.as_str()) => Some(format!("{k}={}", grid_value(v))),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Whether a field carries machine-dependent wall-clock data.
fn is_timing_field(key: &str) -> bool {
    key.ends_with("_s")
        || key.ends_with("_ms")
        || key.ends_with("_ns")
        || key.contains("speedup")
        || key.contains("overhead")
}

/// Compares one matched row; returns the list of per-field mismatches.
fn diff_row(base: &Json, fresh: &Json, args: &Args) -> Vec<String> {
    let mut diffs = Vec::new();
    let Json::Obj(pairs) = base else {
        return diffs;
    };
    for (key, bval) in pairs {
        let Some(fval) = fresh.get(key) else {
            diffs.push(format!("{key}: missing in fresh row"));
            continue;
        };
        match (bval, fval) {
            (Json::Num(b), Json::Num(f)) => {
                if is_timing_field(key) {
                    let (lo, hi) = (b.abs().min(f.abs()), b.abs().max(f.abs()));
                    // Sub-millisecond timings are all noise, and absolute
                    // agreement within `atol` covers near-zero quantities
                    // (overhead fractions straddle zero, where a ratio
                    // band is meaningless); otherwise the two machines
                    // must land within the ratio band.
                    if hi > 1e-3
                        && (b - f).abs() > args.atol
                        && (lo <= 0.0 || hi / lo > args.time_ratio)
                    {
                        diffs.push(format!(
                            "{key}: timing {f} vs baseline {b} outside {}x band",
                            args.time_ratio
                        ));
                    }
                } else if b.fract() == 0.0 && f.fract() == 0.0 {
                    if b != f {
                        diffs.push(format!("{key}: count {f} vs baseline {b}"));
                    }
                } else if (b - f).abs() > args.atol + args.tol * b.abs().max(f.abs()) {
                    diffs.push(format!(
                        "{key}: {f} vs baseline {b} outside tol {} (atol {})",
                        args.tol, args.atol
                    ));
                }
            }
            (Json::Bool(b), Json::Bool(f)) => {
                if b != f {
                    diffs.push(format!("{key}: {f} vs baseline {b}"));
                }
            }
            // Strings are the row identity (already matched); nulls and
            // mixed types fall through to a type check.
            (Json::Str(_), Json::Str(_)) | (Json::Null, Json::Null) => {}
            (b, f) => {
                if std::mem::discriminant(b) != std::mem::discriminant(f) {
                    diffs.push(format!("{key}: type changed ({b:?} vs {f:?})"));
                }
            }
        }
    }
    diffs
}

/// Compares one envelope pair; returns the number of failures.
fn compare_file(name: &str, base: &Json, fresh: &Json, args: &Args) -> usize {
    let mut failures = 0;
    let mut fail = |msg: String| {
        eprintln!("FAIL {name}: {msg}");
        failures += 1;
    };
    // Campaign envelopes carry panic/failure accounting; envelopes from
    // the non-campaign benches (no such keys) skip the check.
    for key in ["panics", "failures"] {
        if let Some(v) = fresh.get(key).and_then(Json::as_f64) {
            if v != 0.0 {
                fail(format!("fresh envelope reports {key} = {v}"));
            }
        }
    }
    let fresh_quick = fresh.get("quick").and_then(Json::as_bool).unwrap_or(false);
    let empty = Vec::new();
    let base_rows = base.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    let fresh_rows = fresh.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    // Pair the i-th baseline occurrence of an identity with the i-th
    // fresh occurrence — identical identities only arise when a campaign
    // repeats the exact same cell, and those repeats are emitted in a
    // deterministic order.
    let occurrences = |rows: &'_ [Json]| -> Vec<(String, usize)> {
        let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        rows.iter()
            .map(|r| {
                let id = row_identity(r);
                let n = seen.entry(id.clone()).or_insert(0);
                let occ = *n;
                *n += 1;
                (id, occ)
            })
            .collect()
    };
    let base_ids = occurrences(base_rows);
    let fresh_ids = occurrences(fresh_rows);
    let mut matched = 0usize;
    for (brow, bid) in base_rows.iter().zip(&base_ids) {
        let frow = fresh_ids
            .iter()
            .position(|fid| fid == bid)
            .map(|i| &fresh_rows[i]);
        match frow {
            Some(frow) => {
                matched += 1;
                for d in diff_row(brow, frow, args) {
                    fail(format!("row [{}] {d}", bid.0));
                }
            }
            None if fresh_quick => {} // smoke grids are subsets
            None => fail(format!("row [{}] missing from fresh full run", bid.0)),
        }
    }
    for fid in &fresh_ids {
        if !base_ids.contains(fid) {
            fail(format!("fresh row [{}] matches no baseline row", fid.0));
        }
    }
    println!(
        "{name}: {matched}/{} baseline rows matched ({} fresh rows, quick={fresh_quick}), \
         {failures} failure(s)",
        base_rows.len(),
        fresh_rows.len()
    );
    failures
}

fn main() {
    let args = parse_args();
    let entries = match std::fs::read_dir(&args.baseline) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{}: read_dir failed: {e}", args.baseline);
            std::process::exit(2);
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!("{}: no BENCH_*.json baselines found", args.baseline);
        std::process::exit(2);
    }
    let mut failures = 0usize;
    let mut compared = 0usize;
    for name in &names {
        let bpath = format!("{}/{name}", args.baseline);
        let fpath = format!("{}/{name}", args.fresh);
        let btext = match std::fs::read_to_string(&bpath) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {name}: baseline unreadable: {e}");
                failures += 1;
                continue;
            }
        };
        let ftext = match std::fs::read_to_string(&fpath) {
            Ok(t) => t,
            Err(_) => {
                println!("  skip {name}: no fresh envelope (campaign not run)");
                continue;
            }
        };
        let (base, fresh) = match (json::parse(&btext), json::parse(&ftext)) {
            (Ok(b), Ok(f)) => (b, f),
            (Err(e), _) => {
                eprintln!("FAIL {name}: baseline JSON invalid: {e}");
                failures += 1;
                continue;
            }
            (_, Err(e)) => {
                eprintln!("FAIL {name}: fresh JSON invalid: {e}");
                failures += 1;
                continue;
            }
        };
        compared += 1;
        failures += compare_file(name, &base, &fresh, &args);
    }
    if compared == 0 {
        eprintln!("no envelope pairs compared — nothing was gated");
        std::process::exit(1);
    }
    if failures > 0 {
        eprintln!("bench_compare FAILED: {failures} regression(s) across {compared} envelope(s)");
        std::process::exit(1);
    }
    println!("bench_compare OK: {compared} envelope(s) within tolerance");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args() -> Args {
        Args {
            baseline: String::new(),
            fresh: String::new(),
            tol: 0.25,
            atol: 0.05,
            time_ratio: 4.0,
        }
    }

    fn envelope(quick: bool, rows: &str) -> Json {
        json::parse(&format!(
            "{{\"quick\": {quick}, \"panics\": 0, \"failures\": 0, \"rows\": [{rows}]}}"
        ))
        .unwrap()
    }

    const ROW_A: &str = "{\"cell\": \"a\", \"reps\": 40, \"bit_identical\": true}";
    const ROW_B: &str = "{\"cell\": \"b\", \"reps\": 40, \"bit_identical\": true}";

    #[test]
    fn orphaned_fresh_row_fails() {
        let base = envelope(false, ROW_A);
        // Same cell at another grid coordinate: matches no baseline row.
        let orphan = "{\"cell\": \"a\", \"reps\": 25, \"bit_identical\": false}";
        let fresh = envelope(true, &format!("{ROW_A}, {orphan}"));
        assert_eq!(compare_file("BENCH_t.json", &base, &fresh, &args()), 1);
    }

    #[test]
    fn baseline_row_absent_from_quick_run_is_skipped() {
        let base = envelope(false, &format!("{ROW_A}, {ROW_B}"));
        let fresh = envelope(true, ROW_A);
        assert_eq!(compare_file("BENCH_t.json", &base, &fresh, &args()), 0);
        // The same subset from a full run is a failure.
        let full = envelope(false, ROW_A);
        assert_eq!(compare_file("BENCH_t.json", &base, &full, &args()), 1);
    }
}
