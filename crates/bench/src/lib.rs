//! # yukta-bench
//!
//! The experiment harness: everything needed to regenerate the tables and
//! figures of the paper's evaluation section. One binary, `figures`,
//! regenerates every figure and table (see `DESIGN.md` for the experiment
//! index); the other binaries are the campaigns and benches. This library
//! holds their shared machinery — timing, the synthetic plant
//! generator, recorded-baseline lookup, and output under `results/`.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub mod campaign;
pub mod obs;

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

/// Times two variants alternately: each of `reps` reps runs `a` then `b`,
/// `inner` times over (a, b, a, b, …), and yields the pair of summed wall
/// times in seconds. Both sides sample the same moment's machine state,
/// so drift that is linear across a rep (frequency ramp-up, thermal
/// throttle, a noisy neighbour winding down) lands on both alike instead
/// of on whichever variant is timed last. Each call's value is dropped
/// inside its timing; callers choose the statistic over the pairs.
pub fn time_interleaved<A, B>(
    reps: usize,
    inner: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Vec<(f64, f64)> {
    (0..reps)
        .map(|_| {
            let (mut t_a, mut t_b) = (0.0, 0.0);
            for _ in 0..inner {
                let t0 = Instant::now();
                a();
                t_a += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                b();
                t_b += t0.elapsed().as_secs_f64();
            }
            (t_a, t_b)
        })
        .collect()
}

/// The upper median of `v` (the larger middle value when `v.len()` is
/// even), ordered by [`f64::total_cmp`]: the statistic every bench takes
/// over its paired timing ratios.
///
/// # Panics
///
/// Panics when `v` is empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
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
/// when the file is missing, is not valid JSON, or lacks the key — a
/// recording run then writes the first baseline.
pub fn recorded(path: &str, keys: &[&str]) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    let root = yukta_obs::json::parse(&text).ok()?;
    keys.iter()
        .try_fold(&root, |node, key| node.get(key))?
        .as_f64()
}

/// The committed baseline a check-only (`--quick`) regression gate
/// compares against: [`recorded`], but a missing file or key is an error,
/// so a writer that renames a key fails the gate instead of switching it
/// off.
///
/// # Panics
///
/// Panics when `path` holds no number at `keys`.
pub fn required(path: &str, keys: &[&str]) -> f64 {
    recorded(path, keys).unwrap_or_else(|| {
        panic!(
            "no recorded baseline `{}` in {path}: a check-only run gates against the \
             committed one (a full run records it)",
            keys.join(".")
        )
    })
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

/// `v` with each entry rounded to `decimals` places, for printing short
/// `Debug` vectors.
pub fn rounded(v: &[f64], decimals: i32) -> Vec<f64> {
    let scale = 10f64.powi(decimals);
    v.iter().map(|x| (x * scale).round() / scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_reads_nested_keys() {
        let path = std::env::temp_dir().join(format!("yukta_recorded_{}.json", std::process::id()));
        fs::write(
            &path,
            r#"{"worst_mu": 1.5, "resynth": {"total_ms": 167.768}}"#,
        )
        .unwrap();
        let path_str = path.to_str().unwrap();
        // What a check-only gate's `required` panics with.
        let missing = |keys: &[&str]| {
            let err = std::panic::catch_unwind(|| required(path_str, keys)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        assert_eq!(recorded(path_str, &["worst_mu"]), Some(1.5));
        assert_eq!(recorded(path_str, &["resynth", "total_ms"]), Some(167.768));
        assert_eq!(required(path_str, &["resynth", "total_ms"]), 167.768);
        assert_eq!(recorded(path_str, &["total_ms"]), None);
        assert_eq!(recorded(path_str, &["resynth", "mu_peak"]), None);
        // A writer that renamed the key.
        assert!(
            missing(&["resynth", "mu_peak"]).starts_with("no recorded baseline `resynth.mu_peak`")
        );
        fs::remove_file(&path).unwrap();
        assert_eq!(recorded(path_str, &["worst_mu"]), None);
        // No committed file at all.
        assert!(missing(&["worst_mu"]).starts_with("no recorded baseline `worst_mu` in "));
    }

    #[test]
    fn median_is_the_upper_middle_value() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(vec![0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(median(vec![5.0]), 5.0);
    }

    #[test]
    fn rounded_keeps_the_given_places() {
        assert_eq!(rounded(&[0.12345, 1.0], 3), vec![0.123, 1.0]);
        assert_eq!(rounded(&[1.026], 2), vec![1.03]);
    }
}
