//! Physical constants of the simulated board, and the little a caller may
//! vary about it ([`BoardConfig`]).
//!
//! The constants model an ODROID XU3 (Samsung Exynos 5422): a cluster of
//! four out-of-order Cortex-A15 "big" cores ([`BIG`]) and four in-order
//! Cortex-A7 "little" cores ([`LITTLE`]), with the DVFS ranges reported in
//! the paper. [`BIG`], [`LITTLE`] and [`MIN_CORES`] are the actuation
//! envelope every layer reads. The thermal, sensor and emergency-limit
//! constants sit beside the code that reads them. They are calibrated so
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

/// The Cortex-A15 cluster: four cores, 0.2–2.0 GHz in 0.1 GHz steps.
pub const BIG: ClusterConfig = ClusterConfig {
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
};

/// The Cortex-A7 cluster: four cores, 0.2–1.4 GHz in 0.1 GHz steps.
pub const LITTLE: ClusterConfig = ClusterConfig {
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
};

/// Fewest powered cores per cluster: hotplug never takes a cluster's last
/// core offline.
pub const MIN_CORES: usize = 1;

/// The cluster constants for `c`.
pub fn cluster(c: Cluster) -> &'static ClusterConfig {
    match c {
        Cluster::Big => &BIG,
        Cluster::Little => &LITTLE,
    }
}

/// What a caller may vary about the simulated board. Everything physical
/// is a constant beside the code that reads it: the clusters ([`BIG`],
/// [`LITTLE`]), the thermal network, the TMU trips, the sensor timings and
/// the transition stalls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardConfig {
    /// Simulation timestep (s).
    pub dt: f64,
    /// Magnitude of the HMP packing noise (fractional throughput loss).
    pub hmp_noise: f64,
    /// RNG seed for the board's stochastic effects.
    pub seed: u64,
}

impl BoardConfig {
    /// The ODROID XU3 model used throughout the reproduction.
    pub fn odroid_xu3() -> Self {
        BoardConfig {
            dt: 0.01,
            hmp_noise: 0.08,
            seed: 0x0DE0_1D5E_ED00_0001,
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
        // Paper: big 0.2–2.0 GHz, little 0.2–1.4 GHz, steps of 0.1, 4 cores each.
        assert_eq!(BIG.n_cores, 4);
        assert_eq!(LITTLE.n_cores, 4);
        let levels = |c: &ClusterConfig| ((c.f_max - c.f_min) / c.f_step).round() as usize + 1;
        assert_eq!(levels(&BIG), 19);
        assert_eq!(levels(&LITTLE), 13);
    }

    #[test]
    fn voltage_curve_monotone_and_in_range() {
        let mut prev = 0.0;
        let levels = ((BIG.f_max - BIG.f_min) / BIG.f_step).round() as usize + 1;
        for k in 0..levels {
            let f = BIG.f_min + k as f64 * BIG.f_step;
            let v = BIG.voltage(f);
            assert!(v >= prev);
            assert!((0.8..1.4).contains(&v));
            prev = v;
        }
        // Clamps outside the range.
        assert_eq!(BIG.voltage(10.0), BIG.voltage(BIG.f_max));
    }

    #[test]
    fn cluster_lookup() {
        assert_eq!(cluster(Cluster::Big).n_cores, 4);
        assert!((cluster(Cluster::Little).f_max - 1.4).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert_eq!(Cluster::Big.to_string(), "big");
        assert_eq!(Cluster::Little.to_string(), "little");
    }
}
