//! Order statistics for host timings, and their one-line rendering.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, with the sample
//! count, so a reader can see how far the tail estimate can be trusted.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for even lengths); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(v, n=4)`); `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |q: f64| {
        // Position q·(n+1) on the 1-based ranks, clamped to the ends.
        let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    Some((at(0.25), at(0.75)))
}

/// The highest whole percentile with at least [`TAIL_SAMPLES`] of `n`
/// samples beyond it (n = 60 → 83, n = 20 → 50); `None` below 20 samples,
/// where even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    Some((100 * (n - TAIL_SAMPLES) / n) as u32)
}

/// Nearest-rank percentile `p` of `v`; NaN when empty.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((f64::from(p) / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean (the right average for normalized ratios); NaN when
/// empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `<name> <median> <unit> n=<count> [q1=… q3=…] [p<k>=…]`: the median
/// of a timing with its sample count, quartiles and best-supported tail
/// percentile.
pub fn timing_line(name: &str, unit: &str, samples: &[f64]) -> String {
    let mut line = format!("{name} {:.4} {unit} n={}", median(samples), samples.len());
    if let Some((q1, q3)) = quartiles(samples) {
        line.push_str(&format!(" q1={q1:.4} q3={q3:.4}"));
    }
    if let Some(p) = tail_percentile(samples.len()).filter(|&p| p > 50) {
        line.push_str(&format!(" p{p}={:.4}", percentile(samples, p)));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(60), Some(83));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(19), None);
        for n in 20..500 {
            let p = tail_percentile(n).unwrap() as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= TAIL_SAMPLES, "n={n} p{p} leaves {}", n - rank);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(percentile(&v, 83), 50.0);
        assert_eq!(percentile(&v, 100), 60.0);
        assert_eq!(percentile(&v, 0), 1.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn timing_line_prints_count_and_supported_tail() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(
            timing_line("op_ms", "ms", &v),
            "op_ms 30.5000 ms n=60 q1=15.2500 q3=45.7500 p83=50.0000"
        );
        // n = 20 supports only the median, so no tail is printed.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            timing_line("op_ms", "ms", &v),
            "op_ms 10.5000 ms n=20 q1=5.2500 q3=15.7500"
        );
    }
}
