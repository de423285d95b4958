//! Two-node RC thermal model: a fast hotspot node above the big cluster
//! and a slow board node coupling everything to ambient.

use crate::config::ThermalConfig;

/// Thermal state of the board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    /// Hotspot temperature above the big cluster (°C) — what the paper's
    /// controllers limit to 79 °C.
    pub t_hot: f64,
    /// Bulk board temperature (°C).
    pub t_board: f64,
}

impl ThermalState {
    /// Initial state at thermal equilibrium with ambient.
    pub fn at_ambient(cfg: &ThermalConfig) -> Self {
        ThermalState {
            t_hot: cfg.t_ambient,
            t_board: cfg.t_ambient,
        }
    }

    /// Advances the RC network by `dt` seconds given the current big-cluster
    /// power and total power (W). Uses forward Euler, which is stable for
    /// the configured time constants at the 10 ms simulation step.
    pub fn step(&mut self, cfg: &ThermalConfig, p_big: f64, p_total: f64, dt: f64) {
        // Hotspot: heated by big-cluster power, relaxes toward the board.
        let dhot = (p_big - (self.t_hot - self.t_board) / cfg.r_hot) / cfg.c_hot;
        // Board: heated by everything, relaxes toward ambient.
        let dboard = (p_total - (self.t_board - cfg.t_ambient) / cfg.r_board) / cfg.c_board;
        self.t_hot += dhot * dt;
        self.t_board += dboard * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoardConfig;

    fn cfg() -> ThermalConfig {
        BoardConfig::odroid_xu3().thermal
    }

    /// The steady-state hotspot temperature for constant powers.
    fn steady_hot(cfg: &ThermalConfig, p_big: f64, p_total: f64) -> f64 {
        cfg.t_ambient + p_total * cfg.r_board + p_big * cfg.r_hot
    }

    fn settle(state: &mut ThermalState, cfg: &ThermalConfig, p_big: f64, p_total: f64, secs: f64) {
        let dt = 0.01;
        let steps = (secs / dt) as usize;
        for _ in 0..steps {
            state.step(cfg, p_big, p_total, dt);
        }
    }

    #[test]
    fn converges_to_steady_state() {
        let c = cfg();
        let mut s = ThermalState::at_ambient(&c);
        settle(&mut s, &c, 3.3, 3.8, 600.0);
        let expect = steady_hot(&c, 3.3, 3.8);
        assert!(
            (s.t_hot - expect).abs() < 0.5,
            "t_hot {} vs {}",
            s.t_hot,
            expect
        );
    }

    #[test]
    fn sustained_limit_power_sits_near_79c() {
        // The paper's temperature limit (79 °C) should be in play exactly
        // when the big cluster runs near its 3.3 W power limit.
        let c = cfg();
        let t = steady_hot(&c, 3.3, 3.7);
        assert!((70.0..80.0).contains(&t), "steady hotspot {t}");
        // Max power clearly overshoots the limit.
        let t_max = steady_hot(&c, 5.5, 6.0);
        assert!(t_max > 85.0, "max-power hotspot {t_max}");
    }

    #[test]
    fn hotspot_leads_board() {
        let c = cfg();
        let mut s = ThermalState::at_ambient(&c);
        settle(&mut s, &c, 3.0, 3.3, 5.0);
        assert!(s.t_hot > s.t_board);
        assert!(s.t_board > c.t_ambient);
    }

    #[test]
    fn cooling_when_power_removed() {
        let c = cfg();
        let mut s = ThermalState::at_ambient(&c);
        settle(&mut s, &c, 4.0, 4.5, 100.0);
        let hot = s.t_hot;
        settle(&mut s, &c, 0.0, 0.0, 100.0);
        assert!(s.t_hot < hot);
        settle(&mut s, &c, 0.0, 0.0, 2000.0);
        assert!((s.t_hot - c.t_ambient).abs() < 0.5);
    }

    #[test]
    fn hotspot_time_constant_is_seconds_scale() {
        // Apply a power step and measure the time to 63% of the hotspot rise.
        let c = cfg();
        let mut s = ThermalState::at_ambient(&c);
        // Pre-settle the board node so we isolate the hotspot dynamics.
        settle(&mut s, &c, 0.0, 0.5, 2000.0);
        let t0 = s.t_hot;
        let target = steady_hot(&c, 3.0, 3.5);
        let dt = 0.01;
        let mut elapsed = 0.0;
        while s.t_hot < t0 + 0.63 * (target - t0) && elapsed < 100.0 {
            s.step(&c, 3.0, 3.5, dt);
            elapsed += dt;
        }
        assert!(
            (1.0..30.0).contains(&elapsed),
            "hotspot τ ≈ {elapsed}s out of expected range"
        );
    }
}
