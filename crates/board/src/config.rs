//! Physical configuration of the simulated board.
//!
//! The defaults model an ODROID XU3 (Samsung Exynos 5422): a cluster of
//! four out-of-order Cortex-A15 "big" cores and four in-order Cortex-A7
//! "little" cores, with the DVFS ranges, sensor update periods, and
//! emergency limits reported in the paper. The constants are calibrated so
//! the published operating envelope holds: ~3.3 W sustainable on the big
//! cluster near 1.3–1.4 GHz with all four cores, ~0.33 W on the little
//! cluster near 1.0 GHz, and a hotspot that approaches 79 °C at sustained
//! full power.

/// Which cluster a core belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cluster {
    /// The high-performance out-of-order cluster (Cortex-A15).
    Big,
    /// The low-power in-order cluster (Cortex-A7).
    Little,
}

impl Cluster {
    /// Both clusters, big first.
    pub const ALL: [Cluster; 2] = [Cluster::Big, Cluster::Little];
}

impl std::fmt::Display for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cluster::Big => write!(f, "big"),
            Cluster::Little => write!(f, "little"),
        }
    }
}

/// Per-cluster electrical and microarchitectural constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of physical cores.
    pub n_cores: usize,
    /// Minimum DVFS frequency in GHz.
    pub f_min: f64,
    /// Maximum DVFS frequency in GHz.
    pub f_max: f64,
    /// DVFS step in GHz.
    pub f_step: f64,
    /// Supply voltage at `f_min` (V).
    pub v_min: f64,
    /// Voltage slope in V per GHz above `f_min`.
    pub v_slope: f64,
    /// Effective switching capacitance per core, W / (V²·GHz).
    pub c_eff: f64,
    /// Leakage coefficient per powered core at the reference temperature (W/V).
    pub k_leak: f64,
    /// Cluster uncore power when any core is on (W).
    pub p_uncore: f64,
    /// Fraction of dynamic power burned by a powered-but-idle core.
    pub idle_activity: f64,
    /// Base in-order/out-of-order throughput in instructions per cycle for
    /// a nominal integer workload (scaled by the workload's own factors).
    pub ipc_base: f64,
    /// Frequency (GHz) at which memory stalls halve the throughput of a
    /// fully memory-bound thread.
    pub f_mem_sat: f64,
}

/// Thermal RC network constants (two nodes: hotspot and board).
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Ambient temperature (°C).
    pub t_ambient: f64,
    /// Hotspot thermal resistance above the board node (°C/W of big power).
    pub r_hot: f64,
    /// Hotspot thermal capacitance (J/°C).
    pub c_hot: f64,
    /// Board resistance to ambient (°C/W of total power).
    pub r_board: f64,
    /// Board capacitance (J/°C).
    pub c_board: f64,
    /// Temperature at which the leakage reference is taken (°C).
    pub t_leak_ref: f64,
    /// Exponential leakage scale (°C per e-fold).
    pub t_leak_scale: f64,
}

/// Trip points and timings of the emergency thermal/power heuristics
/// (modeled on the Exynos TMU driver the paper cites).
#[derive(Debug, Clone, PartialEq)]
pub struct TmuConfig {
    /// First thermal trip (°C): clamp the big-cluster frequency.
    pub t_throttle: f64,
    /// Second thermal trip (°C): additionally unplug big cores.
    pub t_hotplug: f64,
    /// Release threshold (°C) with hysteresis.
    pub t_release: f64,
    /// Frequency forced while thermally throttled (GHz).
    pub f_throttle: f64,
    /// Sustained big-cluster power (W) that triggers the power emergency.
    pub p_big_emergency: f64,
    /// Sustained little-cluster power (W) that triggers it for little.
    pub p_little_emergency: f64,
    /// How long (s) power must exceed the trip before acting.
    pub sustain_window: f64,
    /// TMU evaluation period (s).
    pub period: f64,
    /// How much a frequency cap rises per period while releasing (GHz).
    pub release_step: f64,
    /// How far below the current frequency a power emergency caps (GHz).
    pub power_backoff: f64,
    /// Big cores left powered by the hotplug trip.
    pub hotplug_cores: usize,
}

/// Sensor timing constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfig {
    /// Power-sensor update period in seconds (260 ms on the XU3's INA231s).
    pub power_period: f64,
    /// Temperature-sensor noise standard deviation (°C).
    pub temp_noise: f64,
}

/// Full board configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardConfig {
    /// Big-cluster constants.
    pub big: ClusterConfig,
    /// Little-cluster constants.
    pub little: ClusterConfig,
    /// Thermal network constants.
    pub thermal: ThermalConfig,
    /// Emergency-heuristic constants.
    pub tmu: TmuConfig,
    /// Sensor constants.
    pub sensors: SensorConfig,
    /// Simulation timestep (s).
    pub dt: f64,
    /// DVFS transition stall (s) applied to a cluster on frequency change.
    pub dvfs_stall: f64,
    /// Hotplug stall (s) applied per core turned on/off.
    pub hotplug_stall: f64,
    /// Migration stall (s) applied to threads whose placement changed.
    pub migration_stall: f64,
    /// Magnitude of the HMP packing noise (fractional throughput loss).
    pub hmp_noise: f64,
    /// RNG seed for the board's stochastic effects.
    pub seed: u64,
}

impl BoardConfig {
    /// The ODROID XU3 model used throughout the reproduction.
    pub fn odroid_xu3() -> Self {
        BoardConfig {
            big: ClusterConfig {
                n_cores: 4,
                f_min: 0.2,
                f_max: 2.0,
                f_step: 0.1,
                v_min: 0.90,
                v_slope: 0.18,
                c_eff: 0.42,
                k_leak: 0.05,
                p_uncore: 0.10,
                idle_activity: 0.05,
                ipc_base: 1.6,
                f_mem_sat: 1.5,
            },
            little: ClusterConfig {
                n_cores: 4,
                f_min: 0.2,
                f_max: 1.4,
                f_step: 0.1,
                v_min: 0.90,
                v_slope: 0.125,
                c_eff: 0.075,
                k_leak: 0.008,
                p_uncore: 0.02,
                idle_activity: 0.05,
                ipc_base: 0.7,
                f_mem_sat: 1.2,
            },
            thermal: ThermalConfig {
                t_ambient: 25.0,
                r_hot: 12.0,
                c_hot: 0.45,
                r_board: 3.0,
                c_board: 30.0,
                t_leak_ref: 45.0,
                t_leak_scale: 30.0,
            },
            tmu: TmuConfig {
                t_throttle: 85.0,
                t_hotplug: 92.0,
                t_release: 80.0,
                f_throttle: 0.9,
                p_big_emergency: 3.8,
                p_little_emergency: 0.40,
                sustain_window: 1.0,
                period: 0.1,
                release_step: 0.1,
                power_backoff: 0.4,
                hotplug_cores: 2,
            },
            sensors: SensorConfig {
                power_period: 0.26,
                temp_noise: 0.2,
            },
            dt: 0.01,
            dvfs_stall: 0.010,
            hotplug_stall: 0.050,
            migration_stall: 0.030,
            hmp_noise: 0.08,
            seed: 0x0DE0_1D5E_ED00_0001,
        }
    }

    /// The cluster constants for `c`.
    pub fn cluster(&self, c: Cluster) -> &ClusterConfig {
        match c {
            Cluster::Big => &self.big,
            Cluster::Little => &self.little,
        }
    }
}

impl ClusterConfig {
    /// Supply voltage at frequency `f` (GHz), clamped to the DVFS range.
    pub fn voltage(&self, f: f64) -> f64 {
        let fc = f.clamp(self.f_min, self.f_max);
        self.v_min + self.v_slope * (fc - self.f_min)
    }
}

impl Default for BoardConfig {
    fn default() -> Self {
        BoardConfig::odroid_xu3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xu3_matches_paper_actuation_space() {
        let cfg = BoardConfig::odroid_xu3();
        // Paper: big 0.2–2.0 GHz, little 0.2–1.4 GHz, steps of 0.1, 4 cores each.
        assert_eq!(cfg.big.n_cores, 4);
        assert_eq!(cfg.little.n_cores, 4);
        let levels = |c: &ClusterConfig| ((c.f_max - c.f_min) / c.f_step).round() as usize + 1;
        assert_eq!(levels(&cfg.big), 19);
        assert_eq!(levels(&cfg.little), 13);
    }

    #[test]
    fn voltage_curve_monotone_and_in_range() {
        let cfg = BoardConfig::odroid_xu3();
        let mut prev = 0.0;
        let levels = ((cfg.big.f_max - cfg.big.f_min) / cfg.big.f_step).round() as usize + 1;
        for k in 0..levels {
            let f = cfg.big.f_min + k as f64 * cfg.big.f_step;
            let v = cfg.big.voltage(f);
            assert!(v >= prev);
            assert!((0.8..1.4).contains(&v));
            prev = v;
        }
        // Clamps outside the range.
        assert_eq!(cfg.big.voltage(10.0), cfg.big.voltage(cfg.big.f_max));
    }

    #[test]
    fn cluster_lookup() {
        let cfg = BoardConfig::odroid_xu3();
        assert_eq!(cfg.cluster(Cluster::Big).n_cores, 4);
        assert!((cfg.cluster(Cluster::Little).f_max - 1.4).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert_eq!(Cluster::Big.to_string(), "big");
        assert_eq!(Cluster::Little.to_string(), "little");
    }
}
