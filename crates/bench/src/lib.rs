//! # yukta-bench
//!
//! The experiment harness: everything needed to regenerate the tables and
//! figures of the paper's evaluation section. Each figure has a dedicated
//! binary under `src/bin/` (see `DESIGN.md` for the experiment index);
//! this library holds the shared machinery — parallel scheme×workload
//! sweeps, normalized-table formatting, and CSV emission under `results/`.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use yukta_core::metrics::Report;

pub mod campaign;
pub mod obs;
use yukta_core::runtime::{Experiment, RunOptions};
use yukta_core::schemes::Scheme;
use yukta_workloads::Workload;

/// Default run options for evaluation executions.
pub fn eval_options() -> RunOptions {
    RunOptions {
        timeout_s: 1200.0,
        keep_trace: true,
        ..Default::default()
    }
}

/// Runs one scheme on one workload against the cached default design.
///
/// # Panics
///
/// Panics on design/instantiation failures — the harness treats those as
/// build-breaking.
pub fn run_one(scheme: Scheme, wl: &Workload) -> Report {
    Experiment::new(scheme)
        .expect("experiment construction")
        .with_options(eval_options())
        .run(wl)
        .expect("experiment run")
}

/// A full sweep result: `results[w][s]` is workload `w` under scheme `s`.
pub struct Sweep {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// Scheme labels, in order.
    pub schemes: Vec<&'static str>,
    /// Reports, indexed `[workload][scheme]`.
    pub results: Vec<Vec<Report>>,
}

/// Runs every scheme on every workload, parallelizing across workloads.
pub fn sweep(schemes: &[Scheme], workloads: &[Workload]) -> Sweep {
    // Force the (expensive, process-wide) design to build once before
    // fanning out.
    let _ = yukta_core::design::default_design();
    let results = yukta_control::sweep::parallel_map(workloads.len(), |wi| {
        schemes
            .iter()
            .map(|s| run_one(*s, &workloads[wi]))
            .collect()
    });
    Sweep {
        workloads: workloads.iter().map(|w| w.name.clone()).collect(),
        schemes: schemes.iter().map(|s| s.label()).collect(),
        results,
    }
}

/// Geometric means used for the paper's SAv/PAv/Avg bars (geomean is the
/// right average for normalized ratios).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

impl Sweep {
    /// Extracts a metric for every cell.
    pub fn metric(&self, f: impl Fn(&Report) -> f64) -> Vec<Vec<f64>> {
        self.results
            .iter()
            .map(|row| row.iter().map(&f).collect())
            .collect()
    }

    /// Normalizes a metric matrix to scheme column `base` (the paper
    /// normalizes to *Coordinated heuristic*).
    pub fn normalized(&self, f: impl Fn(&Report) -> f64, base: usize) -> Vec<Vec<f64>> {
        self.metric(f)
            .into_iter()
            .map(|row| {
                let b = row[base];
                row.into_iter().map(|v| v / b).collect()
            })
            .collect()
    }

    /// Prints the paper-style table: one row per workload plus SAv (first
    /// `n_spec` rows), PAv (rest), and Avg geomeans.
    pub fn print_normalized(
        &self,
        title: &str,
        f: impl Fn(&Report) -> f64,
        base: usize,
        n_spec: usize,
    ) {
        let norm = self.normalized(&f, base);
        println!("\n## {title} (normalized to {})", self.schemes[base]);
        print!("{:<14}", "workload");
        for s in &self.schemes {
            print!(" | {s:>26}");
        }
        println!();
        for (w, row) in self.workloads.iter().zip(&norm) {
            print!("{w:<14}");
            for v in row {
                print!(" | {v:>26.3}");
            }
            println!();
        }
        let n_schemes = self.schemes.len();
        let col = |rows: &[Vec<f64>], j: usize| rows.iter().map(|r| r[j]).collect::<Vec<f64>>();
        if n_spec > 0 && n_spec < norm.len() {
            let (spec, parsec) = norm.split_at(n_spec);
            print!("{:<14}", "SAv");
            for j in 0..n_schemes {
                print!(" | {:>26.3}", geomean(&col(spec, j)));
            }
            println!();
            print!("{:<14}", "PAv");
            for j in 0..n_schemes {
                print!(" | {:>26.3}", geomean(&col(parsec, j)));
            }
            println!();
        }
        print!("{:<14}", "Avg");
        for j in 0..n_schemes {
            print!(" | {:>26.3}", geomean(&col(&norm, j)));
        }
        println!();
    }

    /// Writes the normalized metric as CSV under `results/`.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (harness-fatal).
    pub fn write_csv(&self, path: &str, f: impl Fn(&Report) -> f64, base: usize) {
        let norm = self.normalized(&f, base);
        let mut out = String::new();
        out.push_str("workload");
        for s in &self.schemes {
            out.push(',');
            out.push_str(s);
        }
        out.push('\n');
        for (w, row) in self.workloads.iter().zip(&norm) {
            out.push_str(w);
            for v in row {
                out.push_str(&format!(",{v:.4}"));
            }
            out.push('\n');
        }
        write_results(path, &out);
    }
}

/// Best (minimum) wall time over `reps` runs after one untimed warmup,
/// in seconds, with the value `f` returned on the last run. Scheduler
/// interference and frequency ramps only ever add time, so the minimum
/// is the robust location estimator at the millisecond scale of the sweep
/// and synthesis kernels; the warmup keeps one-time costs (lazy
/// construction, cold caches) out of every rep.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut last = f(); // warmup, untimed
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, last)
}

/// Deterministic pseudo-random value in `[-0.5, 0.5)`: the generator
/// behind every synthetic plant in the benches, so plant families are
/// comparable across them.
pub fn splitmix(s: &mut u64) -> f64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
}

/// Reads a recorded number from a committed results file: the value at
/// `keys` (a path of nested object keys) in the JSON at `path`. `None`
/// when the file is missing, is not valid JSON, or lacks the key — the
/// `--quick` regression gates then have no baseline to compare against.
pub fn recorded(path: &str, keys: &[&str]) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    let root = yukta_obs::json::parse(&text).ok()?;
    keys.iter()
        .try_fold(&root, |node, key| node.get(key))?
        .as_f64()
}

/// Writes a file under `results/`, creating the directory if needed.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_results(path: &str, contents: &str) {
    let full = Path::new("results").join(path);
    if let Some(dir) = full.parent() {
        fs::create_dir_all(dir).expect("create results dir");
    }
    let mut f = fs::File::create(&full).expect("create results file");
    f.write_all(contents.as_bytes()).expect("write results");
    println!("[wrote {}]", full.display());
}

/// Formats a numeric table as CSV with fixed decimals — the shared writer
/// behind every figure's scalar table (trace time series go through
/// [`trace_csv`], normalized sweeps through [`Sweep::write_csv`]).
///
/// # Panics
///
/// Panics (debug) when a row's width differs from the header's.
pub fn table_csv(columns: &[&str], rows: &[Vec<f64>], decimals: usize) -> String {
    let mut out = columns.join(",");
    out.push('\n');
    for row in rows {
        debug_assert_eq!(row.len(), columns.len(), "ragged CSV row");
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{v:.decimals$}"));
        }
        out.push('\n');
    }
    out
}

/// A named trace-sample projection used as a CSV column.
pub type TraceColumn<'a> = (&'a str, fn(&yukta_core::metrics::TraceSample) -> f64);

/// Formats a trace time series as CSV text (`time` plus named columns).
pub fn trace_csv(report: &Report, columns: &[TraceColumn<'_>]) -> String {
    let mut out = String::from("time");
    for (name, _) in columns {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for s in &report.trace.samples {
        out.push_str(&format!("{:.2}", s.time));
        for (_, f) in columns {
            out.push_str(&format!(",{:.4}", f(s)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn recorded_reads_nested_keys() {
        let path = std::env::temp_dir().join(format!("yukta_recorded_{}.json", std::process::id()));
        fs::write(
            &path,
            r#"{"worst_mu": 1.5, "resynth": {"total_ms": 167.768}}"#,
        )
        .unwrap();
        let path_str = path.to_str().unwrap();
        assert_eq!(recorded(path_str, &["worst_mu"]), Some(1.5));
        assert_eq!(recorded(path_str, &["resynth", "total_ms"]), Some(167.768));
        assert_eq!(recorded(path_str, &["total_ms"]), None);
        assert_eq!(recorded(path_str, &["resynth", "mu_peak"]), None);
        fs::remove_file(&path).unwrap();
        assert_eq!(recorded(path_str, &["worst_mu"]), None);
    }

    #[test]
    fn table_csv_formats_rows() {
        let csv = table_csv(&["a", "b"], &[vec![1.0, 2.5], vec![0.25, 10.0]], 2);
        assert_eq!(csv, "a,b\n1.00,2.50\n0.25,10.00\n");
    }
}
