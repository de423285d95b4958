//! Signal definitions shared by every controller: the inputs, outputs, and
//! external signals of Tables II and III, their physical ranges, and the
//! constraint limits of the evaluation (Section V-A).

use yukta_control::quant::{InputGrid, SignalScaler};

/// The constraint limits used throughout the evaluation: 3.3 W big-cluster
/// power, 0.33 W little-cluster power, 79 °C hotspot — plus, for serving
/// runs, the tail-latency SLO that joins them in the B specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Sustained big-cluster power limit (W).
    pub p_big_max: f64,
    /// Sustained little-cluster power limit (W).
    pub p_little_max: f64,
    /// Hotspot temperature limit (°C).
    pub temp_max: f64,
    /// p99 request-latency SLO (s). Like the power/thermal limits this
    /// is a B-specification bound: the controllers treat it as a
    /// constraint, the supervisor treats sustained excursions as
    /// overload. Only meaningful when a serving layer is attached.
    pub latency_slo_s: f64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            p_big_max: 3.3,
            p_little_max: 0.33,
            temp_max: 79.0,
            latency_slo_s: 1.0,
        }
    }
}

/// The serving layer's SLO observation, attached to both controllers'
/// sense vectors. `active` is false on batch runs (every field zero),
/// which keeps non-serving executions bit-identical to the pre-serving
/// code path — controllers must gate any SLO-aware behavior on it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSense {
    /// A serving layer is attached and the fields below are live.
    pub active: bool,
    /// p95 request latency over the stats window (s).
    pub p95_s: f64,
    /// p99 request latency over the stats window (s).
    pub p99_s: f64,
    /// Admission-queue backlog as a fraction of its cap.
    pub backlog_frac: f64,
    /// Requests dropped (shed + rejected + timed out) over the window,
    /// as a fraction of completions + drops.
    pub drop_frac: f64,
}

/// The hardware controller's measured outputs (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HwOutputs {
    /// Total committed BIPS across both clusters.
    pub perf: f64,
    /// Big-cluster power (W), from the 260 ms sensor.
    pub p_big: f64,
    /// Little-cluster power (W).
    pub p_little: f64,
    /// Hotspot temperature (°C).
    pub temp: f64,
}

impl HwOutputs {
    /// Outputs as a vector in Table II order.
    pub fn to_vec(self) -> [f64; 4] {
        [self.perf, self.p_big, self.p_little, self.temp]
    }

    /// Outputs from the first four values of `v`, in Table II order (the
    /// inverse of [`HwOutputs::to_vec`]).
    pub fn from_slice(v: &[f64]) -> Self {
        HwOutputs {
            perf: v[0],
            p_big: v[1],
            p_little: v[2],
            temp: v[3],
        }
    }
}

/// The hardware controller's actuated inputs (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwInputs {
    /// Powered big cores (1–4).
    pub big_cores: f64,
    /// Powered little cores (1–4).
    pub little_cores: f64,
    /// Big-cluster frequency (GHz).
    pub f_big: f64,
    /// Little-cluster frequency (GHz).
    pub f_little: f64,
}

impl HwInputs {
    /// Inputs as a vector in Table II order.
    pub fn to_vec(self) -> [f64; 4] {
        [self.big_cores, self.little_cores, self.f_big, self.f_little]
    }
}

/// The software controller's actuated inputs (Table III) — also the
/// hardware controller's external signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsInputs {
    /// Threads assigned to the big cluster.
    pub threads_big: f64,
    /// Average threads per non-idle big core.
    pub packing_big: f64,
    /// Average threads per non-idle little core.
    pub packing_little: f64,
}

impl OsInputs {
    /// Inputs as a vector in Table III order.
    pub fn to_vec(self) -> [f64; 3] {
        [self.threads_big, self.packing_big, self.packing_little]
    }
}

/// The software controller's measured outputs (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OsOutputs {
    /// Little-cluster committed BIPS.
    pub perf_little: f64,
    /// Big-cluster committed BIPS.
    pub perf_big: f64,
    /// Difference in spare compute capacity, big − little (Equation 2).
    pub spare_diff: f64,
}

impl OsOutputs {
    /// Outputs as a vector in Table III order.
    pub fn to_vec(self) -> [f64; 3] {
        [self.perf_little, self.perf_big, self.spare_diff]
    }

    /// Outputs from the first three values of `v`, in Table III order (the
    /// inverse of [`OsOutputs::to_vec`]).
    pub fn from_slice(v: &[f64]) -> Self {
        OsOutputs {
            perf_little: v[0],
            perf_big: v[1],
            spare_diff: v[2],
        }
    }
}

/// Spare compute capacity of a cluster (Equation 2 of the paper):
/// `SC = #idle_cores_on − (#threads − #cores_on)`.
pub fn spare_capacity(cores_on: usize, threads: usize) -> f64 {
    let idle_on = cores_on.saturating_sub(threads) as f64;
    idle_on - (threads as f64 - cores_on as f64)
}

/// Fixed normalization ranges for every signal, set once from the board's
/// physical envelope (the paper derives them from the training
/// characterization).
#[derive(Debug, Clone)]
pub struct SignalRanges {
    /// Total performance (BIPS).
    pub perf: SignalScaler,
    /// Big-cluster power (W).
    pub p_big: SignalScaler,
    /// Little-cluster power (W).
    pub p_little: SignalScaler,
    /// Temperature (°C).
    pub temp: SignalScaler,
    /// Core counts (shared by both clusters).
    pub cores: SignalScaler,
    /// Big frequency (GHz).
    pub f_big: SignalScaler,
    /// Little frequency (GHz).
    pub f_little: SignalScaler,
    /// Threads on big (0–8).
    pub threads_big: SignalScaler,
    /// Packing density (1–4).
    pub packing: SignalScaler,
    /// Big-cluster performance (BIPS).
    pub perf_big: SignalScaler,
    /// Little-cluster performance (BIPS).
    pub perf_little: SignalScaler,
    /// Spare-capacity difference (−8..8).
    pub spare_diff: SignalScaler,
}

impl SignalRanges {
    /// The ranges for the XU3 envelope.
    pub fn xu3() -> Self {
        SignalRanges {
            perf: SignalScaler::from_range(0.0, 10.0),
            p_big: SignalScaler::from_range(0.0, 6.0),
            p_little: SignalScaler::from_range(0.0, 0.7),
            temp: SignalScaler::from_range(25.0, 95.0),
            cores: SignalScaler::from_range(1.0, 4.0),
            f_big: SignalScaler::from_range(0.2, 2.0),
            f_little: SignalScaler::from_range(0.2, 1.4),
            threads_big: SignalScaler::from_range(0.0, 8.0),
            packing: SignalScaler::from_range(1.0, 4.0),
            perf_big: SignalScaler::from_range(0.0, 9.0),
            perf_little: SignalScaler::from_range(0.0, 3.0),
            spare_diff: SignalScaler::from_range(-8.0, 8.0),
        }
    }

    /// Normalizes the hardware output vector.
    pub fn norm_hw_outputs(&self, y: &HwOutputs) -> [f64; 4] {
        [
            self.perf.normalize(y.perf),
            self.p_big.normalize(y.p_big),
            self.p_little.normalize(y.p_little),
            self.temp.normalize(y.temp),
        ]
    }

    /// Normalizes the hardware input vector.
    pub fn norm_hw_inputs(&self, u: &HwInputs) -> [f64; 4] {
        [
            self.cores.normalize(u.big_cores),
            self.cores.normalize(u.little_cores),
            self.f_big.normalize(u.f_big),
            self.f_little.normalize(u.f_little),
        ]
    }

    /// Normalizes the software input vector.
    pub fn norm_os_inputs(&self, u: &OsInputs) -> [f64; 3] {
        [
            self.threads_big.normalize(u.threads_big),
            self.packing.normalize(u.packing_big),
            self.packing.normalize(u.packing_little),
        ]
    }

    /// Normalizes the software output vector.
    pub fn norm_os_outputs(&self, y: &OsOutputs) -> [f64; 3] {
        [
            self.perf_little.normalize(y.perf_little),
            self.perf_big.normalize(y.perf_big),
            self.spare_diff.normalize(y.spare_diff),
        ]
    }

    /// Denormalizes a hardware input vector (the inverse of
    /// [`SignalRanges::norm_hw_inputs`]).
    pub fn denorm_hw_inputs(&self, u: &[f64]) -> HwInputs {
        HwInputs {
            big_cores: self.cores.denormalize(u[0]),
            little_cores: self.cores.denormalize(u[1]),
            f_big: self.f_big.denormalize(u[2]),
            f_little: self.f_little.denormalize(u[3]),
        }
    }

    /// Denormalizes a software input vector (the inverse of
    /// [`SignalRanges::norm_os_inputs`]).
    pub fn denorm_os_inputs(&self, u: &[f64]) -> OsInputs {
        OsInputs {
            threads_big: self.threads_big.denormalize(u[0]),
            packing_big: self.packing.denormalize(u[1]),
            packing_little: self.packing.denormalize(u[2]),
        }
    }

    /// The hardware actuation a normalized command lands on: denormalized,
    /// then snapped onto the actuator grids.
    pub fn snap_hw(&self, grids: &ActuatorGrids, u: &[f64]) -> HwInputs {
        HwInputs {
            big_cores: grids.big_cores.quantize(self.cores.denormalize(u[0])),
            little_cores: grids.little_cores.quantize(self.cores.denormalize(u[1])),
            f_big: grids.f_big.quantize(self.f_big.denormalize(u[2])),
            f_little: grids.f_little.quantize(self.f_little.denormalize(u[3])),
        }
    }

    /// The software actuation a normalized command lands on: denormalized,
    /// snapped onto the actuator grids, and with no more threads on the
    /// big cluster than `active_threads`.
    pub fn snap_os(&self, grids: &ActuatorGrids, u: &[f64], active_threads: usize) -> OsInputs {
        OsInputs {
            threads_big: grids
                .threads_big
                .quantize(self.threads_big.denormalize(u[0]))
                .min(active_threads as f64),
            packing_big: grids.packing.quantize(self.packing.denormalize(u[1])),
            packing_little: grids.packing.quantize(self.packing.denormalize(u[2])),
        }
    }
}

/// The discrete actuator grids of the prototype (Table II/III): core
/// counts 1–4, big frequency 0.2–2.0 GHz and little 0.2–1.4 GHz in 0.1
/// steps, threads-on-big 0–8, packing 1–4 in half-thread steps.
#[derive(Debug, Clone)]
pub struct ActuatorGrids {
    /// Big core count.
    pub big_cores: InputGrid,
    /// Little core count.
    pub little_cores: InputGrid,
    /// Big-cluster frequency.
    pub f_big: InputGrid,
    /// Little-cluster frequency.
    pub f_little: InputGrid,
    /// Threads on the big cluster.
    pub threads_big: InputGrid,
    /// Packing density.
    pub packing: InputGrid,
}

impl ActuatorGrids {
    /// The XU3 prototype grids.
    pub fn xu3() -> Self {
        ActuatorGrids {
            big_cores: InputGrid::stepped(1.0, 4.0, 1.0),
            little_cores: InputGrid::stepped(1.0, 4.0, 1.0),
            f_big: InputGrid::stepped(0.2, 2.0, 0.1),
            f_little: InputGrid::stepped(0.2, 1.4, 0.1),
            threads_big: InputGrid::stepped(0.0, 8.0, 1.0),
            packing: InputGrid::stepped(1.0, 4.0, 0.5),
        }
    }

    /// The grid of each of the seven knobs, in actuation order `[#big,
    /// #little, f_big, f_little, threads_big, packing_big,
    /// packing_little]` (Table II's inputs, then Table III's).
    pub fn knobs(&self) -> [&InputGrid; 7] {
        [
            &self.big_cores,
            &self.little_cores,
            &self.f_big,
            &self.f_little,
            &self.threads_big,
            &self.packing,
            &self.packing,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_match_paper() {
        let l = Limits::default();
        assert_eq!(l.p_big_max, 3.3);
        assert_eq!(l.p_little_max, 0.33);
        assert_eq!(l.temp_max, 79.0);
        assert_eq!(l.latency_slo_s, 1.0);
    }

    #[test]
    fn slo_sense_default_is_inactive() {
        assert!(!SloSense::default().active, "batch default is inactive");
    }

    #[test]
    fn spare_capacity_examples() {
        // 4 cores on, 2 threads: 2 idle cores, surplus 2 → SC = 2 − (−2) = 4.
        assert_eq!(spare_capacity(4, 2), 4.0);
        // 4 cores on, 4 threads: no idle, balanced → SC = 0.
        assert_eq!(spare_capacity(4, 4), 0.0);
        // 2 cores on, 6 threads: oversubscribed → SC = 0 − 4 = −4.
        assert_eq!(spare_capacity(2, 6), -4.0);
    }

    #[test]
    fn ranges_normalize_to_unit_interval() {
        let r = SignalRanges::xu3();
        assert!((r.f_big.normalize(0.2) + 1.0).abs() < 1e-12);
        assert!((r.f_big.normalize(2.0) - 1.0).abs() < 1e-12);
        assert!(r.perf.normalize(5.0).abs() < 1e-12);
        let y = HwOutputs {
            perf: 10.0,
            p_big: 6.0,
            p_little: 0.0,
            temp: 25.0,
        };
        let n = r.norm_hw_outputs(&y);
        for (got, want) in n.iter().zip([1.0, 1.0, -1.0, -1.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn grids_match_paper_cardinality() {
        let g = ActuatorGrids::xu3();
        assert_eq!(g.f_big.len(), 19);
        assert_eq!(g.f_little.len(), 13);
        assert_eq!(g.big_cores.len(), 4);
        assert_eq!(g.threads_big.len(), 9);
    }

    #[test]
    fn snaps_land_on_grids_and_invert_normalization() {
        let (r, g) = (SignalRanges::xu3(), ActuatorGrids::xu3());
        let hw = r.snap_hw(&g, &[0.13, -2.0, 0.41, 0.07]);
        assert_eq!(hw.little_cores, 1.0, "saturates at the rail");
        for (v, grid) in hw.to_vec().iter().zip(g.knobs()) {
            assert_eq!(grid.quantize(*v), *v);
        }
        let back = r.denorm_hw_inputs(&r.norm_hw_inputs(&hw));
        for (a, b) in back.to_vec().iter().zip(hw.to_vec()) {
            assert!((a - b).abs() < 1e-12);
        }
        let os = r.snap_os(&g, &[1.0, 0.3, -0.3], 3);
        assert_eq!(os.threads_big, 3.0, "capped at the active threads");
        assert_eq!(g.packing.quantize(os.packing_big), os.packing_big);
        let back = r.denorm_os_inputs(&r.norm_os_inputs(&os));
        assert!((back.packing_little - os.packing_little).abs() < 1e-12);
    }

    #[test]
    fn from_slice_inverts_to_vec() {
        let y = HwOutputs {
            perf: 1.0,
            p_big: 2.0,
            p_little: 3.0,
            temp: 4.0,
        };
        assert_eq!(HwOutputs::from_slice(&y.to_vec()), y);
        let o = OsOutputs {
            perf_little: 0.5,
            perf_big: 2.5,
            spare_diff: -1.0,
        };
        assert_eq!(OsOutputs::from_slice(&o.to_vec()), o);
    }

    #[test]
    fn vector_orders_match_tables() {
        let y = HwOutputs {
            perf: 1.0,
            p_big: 2.0,
            p_little: 3.0,
            temp: 4.0,
        };
        assert_eq!(y.to_vec(), [1.0, 2.0, 3.0, 4.0]);
        let u = OsInputs {
            threads_big: 5.0,
            packing_big: 1.5,
            packing_little: 2.0,
        };
        assert_eq!(u.to_vec(), [5.0, 1.5, 2.0]);
    }
}
