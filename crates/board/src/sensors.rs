//! On-board sensors with realistic update behaviour.
//!
//! The XU3's INA231 power monitors refresh roughly every 260 ms, which is
//! what pins the paper's 500 ms controller period; readers between
//! refreshes see the last completed window. Performance counters are
//! cumulative and windowed by the reader, like Linux `perf`.

/// A windowed-average power sensor.
///
/// ```
/// use yukta_board::sensors::PowerSensor;
///
/// let mut s = PowerSensor::new(0.26);
/// for _ in 0..26 {
///     s.integrate(2.0, 0.01); // 260 ms at 2 W
/// }
/// assert!((s.read() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PowerSensor {
    period: f64,
    acc_energy: f64,
    acc_time: f64,
    last: f64,
    windows_completed: u64,
}

impl PowerSensor {
    /// A sensor that publishes a new average every `period` seconds.
    pub fn new(period: f64) -> Self {
        PowerSensor {
            period,
            acc_energy: 0.0,
            acc_time: 0.0,
            last: 0.0,
            windows_completed: 0,
        }
    }

    /// Accumulates `power` watts over `dt` seconds of simulated time,
    /// publishing a new reading whenever a window completes.
    pub fn integrate(&mut self, power: f64, dt: f64) {
        self.acc_energy += power * dt;
        self.acc_time += dt;
        if self.acc_time + 1e-12 >= self.period {
            self.last = self.acc_energy / self.acc_time;
            self.acc_energy = 0.0;
            self.acc_time = 0.0;
            self.windows_completed += 1;
        }
    }

    /// The most recent completed-window average (W). Zero before the first
    /// window completes.
    pub fn read(&self) -> f64 {
        self.last
    }

    /// Whether at least one window has completed — i.e. whether [`read`]
    /// returns a measurement rather than the startup zero. Watchdogs must
    /// not treat the startup zero as a stuck sensor.
    ///
    /// [`read`]: PowerSensor::read
    pub fn has_reading(&self) -> bool {
        self.windows_completed > 0
    }
}

/// A cumulative instruction counter (`perf`-style).
#[derive(Debug, Clone, Default)]
pub struct PerfCounter {
    total_giga: f64,
}

impl PerfCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        PerfCounter::default()
    }

    /// Adds retired giga-instructions.
    pub fn add(&mut self, giga: f64) {
        self.total_giga += giga;
    }

    /// Cumulative retired giga-instructions.
    pub fn total(&self) -> f64 {
        self.total_giga
    }
}

/// A reader that converts two counter samples into BIPS over the interval.
#[derive(Debug, Clone, Default)]
pub struct BipsReader {
    last_total: f64,
    last_time: f64,
}

impl BipsReader {
    /// A reader anchored at time zero.
    pub fn new() -> Self {
        BipsReader::default()
    }

    /// Samples the counter at simulated time `now` and returns the average
    /// BIPS since the previous sample (0 for a zero-length interval).
    pub fn sample(&mut self, counter: &PerfCounter, now: f64) -> f64 {
        let dt = now - self.last_time;
        let di = counter.total() - self.last_total;
        self.last_total = counter.total();
        self.last_time = now;
        if dt > 1e-12 { di / dt } else { 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_sensor_reports_zero_before_first_window() {
        let mut s = PowerSensor::new(0.26);
        s.integrate(5.0, 0.1);
        assert_eq!(s.read(), 0.0);
        assert!(!s.has_reading());
        for _ in 0..20 {
            s.integrate(5.0, 0.01);
        }
        assert!(s.has_reading());
    }

    #[test]
    fn power_sensor_reports_window_average() {
        let mut s = PowerSensor::new(0.2);
        // First half at 1 W, second at 3 W → average 2 W.
        for _ in 0..10 {
            s.integrate(1.0, 0.01);
        }
        for _ in 0..10 {
            s.integrate(3.0, 0.01);
        }
        assert!((s.read() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn power_sensor_is_stale_between_windows() {
        let mut s = PowerSensor::new(0.2);
        for _ in 0..20 {
            s.integrate(2.0, 0.01);
        }
        let reading = s.read();
        // New partial window with very different power: reading unchanged.
        for _ in 0..10 {
            s.integrate(10.0, 0.01);
        }
        assert_eq!(s.read(), reading);
    }

    #[test]
    fn perf_counter_accumulates() {
        let mut c = PerfCounter::new();
        c.add(1.5);
        c.add(0.5);
        assert!((c.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bips_reader_windows_correctly() {
        let mut c = PerfCounter::new();
        let mut r = BipsReader::new();
        c.add(2.0);
        let b1 = r.sample(&c, 0.5);
        assert!((b1 - 4.0).abs() < 1e-9, "2 G over 0.5 s = 4 BIPS");
        c.add(1.0);
        let b2 = r.sample(&c, 1.0);
        assert!((b2 - 2.0).abs() < 1e-9, "1 G over 0.5 s = 2 BIPS");
    }

    #[test]
    fn bips_reader_zero_interval() {
        let mut c = PerfCounter::new();
        let mut r = BipsReader::new();
        c.add(1.0);
        r.sample(&c, 1.0);
        assert_eq!(r.sample(&c, 1.0), 0.0);
    }
}
