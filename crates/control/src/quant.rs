//! Actuator saturation/quantization and signal normalization.
//!
//! SSV controllers are designed against *realistic* inputs (Section II-B of
//! the paper): every actuator takes a bounded, discrete set of values. The
//! [`InputGrid`] type carries that set and snaps continuous controller
//! commands onto it; [`SignalScaler`] maps raw physical signals into the
//! normalized ±1 space in which models are identified and controllers run.

/// The legal discrete values of one actuator, sorted ascending.
///
/// ```
/// use yukta_control::quant::InputGrid;
///
/// let freq = InputGrid::stepped(0.2, 2.0, 0.1);
/// assert_eq!(freq.quantize(1.234), 1.2);
/// assert_eq!(freq.quantize(9.0), 2.0); // saturates
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InputGrid {
    values: Vec<f64>,
}

impl InputGrid {
    /// Builds a grid from an explicit list of allowed values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "InputGrid requires at least one value");
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in InputGrid"));
        values.dedup();
        InputGrid { values }
    }

    /// Builds an evenly stepped grid `lo, lo+step, …, hi` (inclusive, with
    /// floating-point-tolerant endpoint handling).
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0` or `hi < lo`.
    pub fn stepped(lo: f64, hi: f64, step: f64) -> Self {
        assert!(step > 0.0 && hi >= lo, "invalid InputGrid::stepped range");
        let n = ((hi - lo) / step + 0.5).floor() as usize;
        let values = (0..=n).map(|k| lo + k as f64 * step).collect();
        InputGrid::new(values)
    }

    /// The allowed values, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Smallest allowed value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest allowed value.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty by construction")
    }

    /// Nearest allowed value to `x` (ties resolve downward).
    pub fn quantize(&self, x: f64) -> f64 {
        let mut best = self.values[0];
        let mut best_d = (x - best).abs();
        for &v in &self.values[1..] {
            let d = (x - v).abs();
            if d < best_d {
                best = v;
                best_d = d;
            }
        }
        best
    }

    /// The index of the nearest allowed value.
    pub fn quantize_index(&self, x: f64) -> usize {
        let q = self.quantize(x);
        self.values
            .iter()
            .position(|&v| v == q)
            .expect("quantize returns a grid member")
    }

    /// The largest gap between adjacent allowed values.
    pub fn max_gap(&self) -> f64 {
        self.values
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0f64, f64::max)
    }

    /// Number of allowed values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: every constructor yields at least one value (kept
    /// beside [`InputGrid::len`] by convention).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// An affine normalization of one physical signal onto ±1.
///
/// ```
/// use yukta_control::quant::SignalScaler;
///
/// let s = SignalScaler::from_range(0.0, 4.0);
/// assert_eq!(s.normalize(4.0), 1.0);
/// assert_eq!(s.denormalize(-1.0), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalScaler {
    center: f64,
    half_range: f64,
}

impl SignalScaler {
    /// A scaler mapping `[lo, hi]` onto `[−1, 1]`.
    ///
    /// Degenerate ranges (hi ≈ lo) fall back to a unit half-range so the
    /// map stays invertible.
    pub fn from_range(lo: f64, hi: f64) -> Self {
        let center = 0.5 * (lo + hi);
        let half = 0.5 * (hi - lo);
        SignalScaler {
            center,
            half_range: if half.abs() < 1e-12 { 1.0 } else { half },
        }
    }

    /// The identity scaler.
    pub fn identity() -> Self {
        SignalScaler {
            center: 0.0,
            half_range: 1.0,
        }
    }

    /// Physical → normalized.
    pub fn normalize(&self, x: f64) -> f64 {
        (x - self.center) / self.half_range
    }

    /// Normalized → physical.
    pub fn denormalize(&self, x: f64) -> f64 {
        x * self.half_range + self.center
    }

    /// The center of the physical range.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Half of the physical range width.
    pub fn half_range(&self) -> f64 {
        self.half_range
    }

    /// Converts a physical *difference* to normalized units (no offset).
    pub fn normalize_delta(&self, dx: f64) -> f64 {
        dx / self.half_range
    }
}

impl Default for SignalScaler {
    fn default() -> Self {
        SignalScaler::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepped_grid_matches_paper_frequencies() {
        // Big cluster: 0.2 to 2.0 GHz in 0.1 steps → 19 values.
        let g = InputGrid::stepped(0.2, 2.0, 0.1);
        assert_eq!(g.len(), 19);
        assert!((g.min() - 0.2).abs() < 1e-12);
        assert!((g.max() - 2.0).abs() < 1e-12);
        // Little cluster: 0.2 to 1.4 GHz → 13 values.
        assert_eq!(InputGrid::stepped(0.2, 1.4, 0.1).len(), 13);
        // Core counts: 1..4.
        assert_eq!(InputGrid::stepped(1.0, 4.0, 1.0).len(), 4);
    }

    #[test]
    fn quantize_snaps_to_nearest() {
        let g = InputGrid::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(g.quantize(1.4), 1.0);
        assert_eq!(g.quantize(1.6), 2.0);
        assert_eq!(g.quantize(3.5), 4.0);
        assert_eq!(g.quantize(-10.0), 1.0);
        assert_eq!(g.quantize(100.0), 4.0);
    }

    #[test]
    fn quantize_is_idempotent() {
        let g = InputGrid::stepped(0.2, 2.0, 0.1);
        for &v in g.values() {
            assert_eq!(g.quantize(v), v);
        }
    }

    #[test]
    fn quantize_index_roundtrip() {
        let g = InputGrid::new(vec![0.5, 1.5, 2.5]);
        assert_eq!(g.quantize_index(1.4), 1);
        assert_eq!(g.values()[g.quantize_index(2.9)], 2.5);
    }

    #[test]
    fn max_gap() {
        let g = InputGrid::new(vec![0.0, 0.1, 0.5, 0.6]);
        assert!((g.max_gap() - 0.4).abs() < 1e-12);
        assert_eq!(InputGrid::new(vec![3.0]).max_gap(), 0.0);
    }

    #[test]
    fn grid_sorts_and_dedups() {
        let g = InputGrid::new(vec![2.0, 1.0, 2.0, 3.0]);
        assert_eq!(g.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn scaler_roundtrip() {
        let s = SignalScaler::from_range(2.0, 10.0);
        for &x in &[2.0, 3.7, 10.0, -1.0, 12.0] {
            assert!((s.denormalize(s.normalize(x)) - x).abs() < 1e-12);
        }
        assert_eq!(s.normalize(6.0), 0.0);
    }

    #[test]
    fn degenerate_range_stays_invertible() {
        let s = SignalScaler::from_range(3.0, 3.0);
        assert_eq!(s.denormalize(s.normalize(3.0)), 3.0);
        assert_eq!(s.half_range(), 1.0);
    }

    #[test]
    fn normalize_delta_has_no_offset() {
        let s = SignalScaler::from_range(10.0, 20.0);
        assert_eq!(s.normalize_delta(5.0), 1.0);
        assert_eq!(s.normalize_delta(0.0), 0.0);
    }
}
