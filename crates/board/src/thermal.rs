//! Two-node RC thermal model: a fast hotspot node above the big cluster
//! and a slow board node coupling everything to ambient.

/// Ambient temperature (°C).
const T_AMBIENT: f64 = 25.0;
/// Hotspot thermal resistance above the board node (°C/W of big power).
const R_HOT: f64 = 12.0;
/// Hotspot thermal capacitance (J/°C).
const C_HOT: f64 = 0.45;
/// Board resistance to ambient (°C/W of total power).
const R_BOARD: f64 = 3.0;
/// Board capacitance (J/°C).
const C_BOARD: f64 = 30.0;

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
    pub fn at_ambient() -> Self {
        ThermalState {
            t_hot: T_AMBIENT,
            t_board: T_AMBIENT,
        }
    }

    /// Advances the RC network by `dt` seconds given the current big-cluster
    /// power and total power (W). Uses forward Euler, which is stable for
    /// the configured time constants at the 10 ms simulation step.
    pub fn step(&mut self, p_big: f64, p_total: f64, dt: f64) {
        // Hotspot: heated by big-cluster power, relaxes toward the board.
        let dhot = (p_big - (self.t_hot - self.t_board) / R_HOT) / C_HOT;
        // Board: heated by everything, relaxes toward ambient.
        let dboard = (p_total - (self.t_board - T_AMBIENT) / R_BOARD) / C_BOARD;
        self.t_hot += dhot * dt;
        self.t_board += dboard * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The steady-state hotspot temperature for constant powers.
    fn steady_hot(p_big: f64, p_total: f64) -> f64 {
        T_AMBIENT + p_total * R_BOARD + p_big * R_HOT
    }

    fn settle(state: &mut ThermalState, p_big: f64, p_total: f64, secs: f64) {
        let dt = 0.01;
        let steps = (secs / dt) as usize;
        for _ in 0..steps {
            state.step(p_big, p_total, dt);
        }
    }

    #[test]
    fn converges_to_steady_state() {
        let mut s = ThermalState::at_ambient();
        settle(&mut s, 3.3, 3.8, 600.0);
        let expect = steady_hot(3.3, 3.8);
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
        let t = steady_hot(3.3, 3.7);
        assert!((70.0..80.0).contains(&t), "steady hotspot {t}");
        // Max power clearly overshoots the limit.
        let t_max = steady_hot(5.5, 6.0);
        assert!(t_max > 85.0, "max-power hotspot {t_max}");
    }

    #[test]
    fn hotspot_leads_board() {
        let mut s = ThermalState::at_ambient();
        settle(&mut s, 3.0, 3.3, 5.0);
        assert!(s.t_hot > s.t_board);
        assert!(s.t_board > T_AMBIENT);
    }

    #[test]
    fn cooling_when_power_removed() {
        let mut s = ThermalState::at_ambient();
        settle(&mut s, 4.0, 4.5, 100.0);
        let hot = s.t_hot;
        settle(&mut s, 0.0, 0.0, 100.0);
        assert!(s.t_hot < hot);
        settle(&mut s, 0.0, 0.0, 2000.0);
        assert!((s.t_hot - T_AMBIENT).abs() < 0.5);
    }

    #[test]
    fn hotspot_time_constant_is_seconds_scale() {
        // Apply a power step and measure the time to 63% of the hotspot rise.
        let mut s = ThermalState::at_ambient();
        // Pre-settle the board node so we isolate the hotspot dynamics.
        settle(&mut s, 0.0, 0.5, 2000.0);
        let t0 = s.t_hot;
        let target = steady_hot(3.0, 3.5);
        let dt = 0.01;
        let mut elapsed = 0.0;
        while s.t_hot < t0 + 0.63 * (target - t0) && elapsed < 100.0 {
            s.step(3.0, 3.5, dt);
            elapsed += dt;
        }
        assert!(
            (1.0..30.0).contains(&elapsed),
            "hotspot τ ≈ {elapsed}s out of expected range"
        );
    }
}
