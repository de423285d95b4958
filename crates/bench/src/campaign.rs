//! Shared campaign scaffolding for the robustness benches
//! (`bench_faults`, `bench_crash`, `bench_chaos`, `bench_slo`,
//! `bench_health`): the `catch_unwind` cell runner, panic/failure
//! accounting, and the standard JSON envelope written under `results/`.
//! Injected controller crashes are values the runtime recovers from, never
//! panics, so any panic a cell raises is a real failure. Every campaign
//! gates CI the same way — any panic or gate violation exits non-zero from
//! [`Campaign::finish`] — and its envelope is deterministic, so CI also
//! fails on any byte of it that differs from the committed one.

use std::panic::{AssertUnwindSafe, catch_unwind};

use crate::write_results;

/// One robustness campaign: counts cells, catches panics, collects JSON
/// rows, and writes the standard envelope at the end.
pub struct Campaign {
    name: &'static str,
    rows: Vec<String>,
    cells: usize,
    panics: usize,
    failures: usize,
}

impl Campaign {
    /// Starts a campaign.
    pub fn new(name: &'static str) -> Campaign {
        Campaign {
            name,
            rows: Vec::new(),
            cells: 0,
            panics: 0,
            failures: 0,
        }
    }

    /// Cells run so far (including panicked ones).
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Gate violations recorded so far (panics included).
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Runs one campaign cell under `catch_unwind`. Returns the cell's
    /// value, or `None` after recording an escaped panic as a failure.
    pub fn cell<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.cells += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.panics += 1;
                self.failures += 1;
                eprintln!("PANIC: {} cell {label}", self.name);
                None
            }
        }
    }

    /// Records a gate violation.
    pub fn fail(&mut self, msg: &str) {
        self.failures += 1;
        eprintln!("FAIL: {msg}");
    }

    /// Appends one pre-formatted JSON row object.
    pub fn push_row(&mut self, row: String) {
        self.rows.push(row);
    }

    /// The standard result envelope: campaign accounting, any
    /// campaign-specific header fields (pre-rendered JSON values), then
    /// the rows.
    fn envelope_json(&self, extra: &[(&str, String)]) -> String {
        let mut head = format!(
            "  \"campaign\": \"{}\",\n  \"cells\": {},\n  \"panics\": {},\n  \
             \"failures\": {}",
            self.name, self.cells, self.panics, self.failures
        );
        for (k, v) in extra {
            head.push_str(&format!(",\n  \"{k}\": {v}"));
        }
        format!(
            "{{\n{head},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.rows.join(",\n")
        )
    }

    /// Writes `results/<file>` and gates CI: exits non-zero when any cell
    /// panicked or violated a gate.
    pub fn finish(self, file: &str, extra: &[(&str, String)]) {
        write_results(file, &self.envelope_json(extra));
        if self.failures > 0 {
            eprintln!(
                "campaign FAILED: {}/{} cells violated a gate ({} panics)",
                self.failures, self.cells, self.panics
            );
            std::process::exit(1);
        }
        println!(
            "campaign complete: {} cells, 0 panics, 0 gate violations",
            self.cells
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_count_and_panics_become_failures() {
        let mut c = Campaign::new("test");
        assert_eq!(c.cell("ok", || 7), Some(7));
        assert_eq!(c.cells(), 1);
        assert_eq!(c.failures(), 0);
        let got: Option<()> = c.cell("boom", || panic!("cell panic"));
        assert!(got.is_none());
        assert_eq!(c.cells(), 2);
        assert_eq!(c.failures(), 1);
        c.fail("explicit gate violation");
        assert_eq!(c.failures(), 2);
    }

    #[test]
    fn envelope_carries_accounting_extra_fields_and_rows() {
        let mut c = Campaign::new("unit");
        c.cell("a", || ());
        c.push_row("    {\"k\": 1}".to_string());
        c.push_row("    {\"k\": 2}".to_string());
        let json = c.envelope_json(&[("severity", "0.5".to_string())]);
        assert!(json.contains("\"campaign\": \"unit\""));
        assert!(!json.contains("quick"));
        assert!(json.contains("\"cells\": 1"));
        assert!(json.contains("\"panics\": 0"));
        assert!(json.contains("\"severity\": 0.5"));
        assert!(json.contains("{\"k\": 1},\n    {\"k\": 2}"));
    }
}
