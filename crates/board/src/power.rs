//! The cluster power model: dynamic CV²f switching power, temperature-
//! dependent leakage, and uncore overhead.

use crate::config::{ClusterConfig, ThermalConfig};

/// Instantaneous power draw of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterPower {
    /// Switching power of busy cores (W).
    pub dynamic: f64,
    /// Leakage of all powered cores (W).
    pub leakage: f64,
    /// Uncore/interconnect share (W).
    pub uncore: f64,
}

impl ClusterPower {
    /// Total cluster power (W).
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage + self.uncore
    }
}

/// The temperature-independent part of a cluster's power at one operating
/// point: everything [`ClusterPower`] holds except the leakage exponent.
///
/// A board computes the rates once per operating point and applies the
/// current temperature on every substep with [`ClusterRates::total_at`];
/// [`cluster_power`] is the same two steps back to back, so both give the
/// same bits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ClusterRates {
    /// Switching power of busy cores (W).
    dynamic: f64,
    /// Leakage of all powered cores at `t_leak_ref` (W): `k_leak·v·cores_on`.
    leak_ref: f64,
    /// Uncore/interconnect share (W).
    uncore: f64,
    /// False when every core is hotplugged off: the cluster draws nothing.
    powered: bool,
}

impl ClusterRates {
    /// The rates of a cluster with `cores_on` powered cores, `busy_cores`
    /// equivalent busy cores, at `freq` GHz (see [`cluster_power`]).
    pub(crate) fn new(cfg: &ClusterConfig, cores_on: usize, busy_cores: f64, freq: f64) -> Self {
        if cores_on == 0 {
            return ClusterRates::default();
        }
        let v = cfg.voltage(freq);
        let busy = busy_cores.clamp(0.0, cores_on as f64);
        let idle = cores_on as f64 - busy;
        let per_core_dyn = cfg.c_eff * v * v * freq;
        ClusterRates {
            dynamic: per_core_dyn * (busy + idle * cfg.idle_activity),
            leak_ref: cfg.k_leak * v * cores_on as f64,
            uncore: cfg.p_uncore,
            powered: true,
        }
    }

    /// The cluster's power with its leakage at `temp` (°C).
    pub(crate) fn at(&self, thermal: &ThermalConfig, temp: f64) -> ClusterPower {
        if !self.powered {
            return ClusterPower::default();
        }
        let leak_scale = ((temp - thermal.t_leak_ref) / thermal.t_leak_scale).exp();
        ClusterPower {
            dynamic: self.dynamic,
            leakage: self.leak_ref * leak_scale,
            uncore: self.uncore,
        }
    }

    /// Total cluster power (W) with its leakage at `temp` (°C).
    pub(crate) fn total_at(&self, thermal: &ThermalConfig, temp: f64) -> f64 {
        self.at(thermal, temp).total()
    }
}

/// Computes the power of a cluster given its operating point.
///
/// * `cores_on` — powered cores (the rest are hotplugged off and draw
///   nothing).
/// * `busy_cores` — equivalent number of fully busy cores (fractional:
///   2.5 means two cores fully busy plus one half-utilized).
/// * `freq` — cluster frequency in GHz.
/// * `temp` — hotspot temperature for the leakage exponent (°C).
pub fn cluster_power(
    cfg: &ClusterConfig,
    thermal: &ThermalConfig,
    cores_on: usize,
    busy_cores: f64,
    freq: f64,
    temp: f64,
) -> ClusterPower {
    ClusterRates::new(cfg, cores_on, busy_cores, freq).at(thermal, temp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoardConfig;

    fn cfg() -> BoardConfig {
        BoardConfig::odroid_xu3()
    }

    #[test]
    fn big_cluster_envelope_matches_paper_limits() {
        let c = cfg();
        // Four busy big cores at max frequency must exceed the 3.3 W limit
        // (that is why control is needed)…
        let p_max = cluster_power(&c.big, &c.thermal, 4, 4.0, 2.0, 70.0).total();
        assert!(p_max > 4.5, "max big power {p_max}");
        // …while ~1.3 GHz with four cores stays near the limit.
        let p_sus = cluster_power(&c.big, &c.thermal, 4, 4.0, 1.3, 70.0).total();
        assert!((2.7..3.6).contains(&p_sus), "sustainable big power {p_sus}");
    }

    #[test]
    fn little_cluster_envelope() {
        let c = cfg();
        // Four busy little cores at max frequency exceed 0.33 W…
        let p_max = cluster_power(&c.little, &c.thermal, 4, 4.0, 1.4, 60.0).total();
        assert!(p_max > 0.42, "max little power {p_max}");
        // …but ~0.9–1.0 GHz is sustainable.
        let p_sus = cluster_power(&c.little, &c.thermal, 4, 4.0, 0.9, 60.0).total();
        assert!(
            (0.2..0.37).contains(&p_sus),
            "sustainable little power {p_sus}"
        );
    }

    #[test]
    fn power_monotone_in_frequency_and_cores() {
        let c = cfg();
        let mut prev = 0.0;
        let levels = ((c.big.f_max - c.big.f_min) / c.big.f_step).round() as usize + 1;
        for k in 0..levels {
            let f = c.big.f_min + k as f64 * c.big.f_step;
            let p = cluster_power(&c.big, &c.thermal, 4, 4.0, f, 60.0).total();
            assert!(p > prev);
            prev = p;
        }
        let p2 = cluster_power(&c.big, &c.thermal, 2, 2.0, 1.5, 60.0).total();
        let p4 = cluster_power(&c.big, &c.thermal, 4, 4.0, 1.5, 60.0).total();
        assert!(p4 > p2);
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let c = cfg();
        let cold = cluster_power(&c.big, &c.thermal, 4, 0.0, 1.0, 40.0);
        let hot = cluster_power(&c.big, &c.thermal, 4, 0.0, 1.0, 90.0);
        assert!(hot.leakage > cold.leakage * 2.0);
        assert_eq!(hot.dynamic, cold.dynamic);
    }

    #[test]
    fn idle_cores_draw_little_dynamic_power() {
        let c = cfg();
        let busy = cluster_power(&c.big, &c.thermal, 4, 4.0, 1.5, 60.0);
        let idle = cluster_power(&c.big, &c.thermal, 4, 0.0, 1.5, 60.0);
        assert!(idle.dynamic < 0.1 * busy.dynamic);
    }

    #[test]
    fn powered_off_cluster_draws_nothing() {
        let c = cfg();
        let p = cluster_power(&c.big, &c.thermal, 0, 0.0, 2.0, 90.0);
        assert_eq!(p.total(), 0.0);
    }

    #[test]
    fn busy_cores_clamped_to_cores_on() {
        let c = cfg();
        let p_over = cluster_power(&c.big, &c.thermal, 2, 10.0, 1.0, 60.0);
        let p_full = cluster_power(&c.big, &c.thermal, 2, 2.0, 1.0, 60.0);
        assert!((p_over.total() - p_full.total()).abs() < 1e-12);
    }
}
