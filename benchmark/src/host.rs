//! Host-speed reference: a fixed slice of work timed between the
//! program's cells, so the timings can be read at one nominal host speed.
//!
//! On a shared VM the same pass over the same cells takes 1.5× longer
//! when the host is busy, and the host switches between its fast and slow
//! states within seconds. A reference slice run between every two cells
//! slows down with it: its time says how fast the host ran during the
//! operation around it. Each operation's time is divided by that slowdown
//! raised to the workload's sensitivity, so a change in the program moves
//! the result and a change in the host mostly does not.
//!
//! The slice sorts pseudo-random doubles in a buffer of its own. It calls
//! nothing in the program and allocates nothing, so no change to the
//! program changes the slice's work. Of eight candidate kernels (a libm
//! chain, a bytecode interpreter, hash-map updates, allocation churn, a
//! streaming triad, strided buffer fills, and this sort on 16 KiB and on
//! 256 KiB) its time followed the Fig 9 pass time most closely
//! (correlation 0.94–0.97 over about 150 passes).

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

/// Doubles sorted per round.
const SORT_LEN: usize = 2048;

/// Rounds per slice. The buffer's first touch after a cell depends on
/// what the cell left in the caches; more rounds keep that share small.
const ROUNDS: usize = 4;

/// A slice's time (ms) on the baseline host in its fast state. A timing
/// divided by the slowdown reads as if the host had run at this speed.
pub const NOMINAL_SLICE_MS: f64 = 0.30;

/// How strongly a simulator pass (`fig09`, `serving`, `recorded`)
/// follows the host's speed, as the exponent on the slowdown. Its passes
/// slow down more than the slice: over 414 passes on eight seeds, the log
/// of the pass time against the log of the slowdown had slope 1.25–1.48
/// (correlation 0.94–0.98).
pub const SIMULATION: f64 = 1.3;

/// The same for synthesis (`resynth` operations and design builds): dense
/// linear algebra, partly on two threads, which the host's slow state
/// hurts less. Across ten runs its time rose 19% where the slowdown rose
/// 38% (correlation 0.54–0.62), and between two sets of runs the
/// resynthesis median rose 9.9% with the slowdown up 11%; at this
/// exponent the two sets' medians agree within 1.4%.
pub const SYNTHESIS: f64 = 0.5;

/// Runs reference slices and keeps their count and time until taken.
pub struct Pace {
    buf: RefCell<Vec<f64>>,
    state: Cell<u64>,
    slices: Cell<u32>,
    ms: Cell<f64>,
}

/// The time a piece of work took, and how slow the host ran meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// Wall time of the work itself, reference slices excluded (ms).
    pub wall_ms: f64,
    /// Measured slice time over its nominal time.
    pub slowdown: f64,
}

impl Paced {
    /// The work's time at the nominal host speed (ms), for work whose
    /// time grows as the slowdown to the power `sensitivity` (0: the
    /// wall time as measured).
    pub fn ms(self, sensitivity: f64) -> f64 {
        self.wall_ms / self.slowdown.powf(sensitivity)
    }
}

impl Pace {
    /// A reference with nothing timed yet.
    pub fn new() -> Self {
        Pace {
            buf: RefCell::new(vec![0.0; SORT_LEN]),
            state: Cell::new(0x9E37_79B9_7F4A_7C15),
            slices: Cell::new(0),
            ms: Cell::new(0.0),
        }
    }

    /// Runs one slice and adds its time.
    pub fn sample(&self) {
        let mut buf = self.buf.borrow_mut();
        let mut x = self.state.get();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for v in buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x >> 11) as f64;
            }
            buf.sort_unstable_by(f64::total_cmp);
            black_box(&buf[SORT_LEN / 2]);
        }
        self.ms.set(self.ms.get() + t.elapsed().as_secs_f64() * 1e3);
        self.slices.set(self.slices.get() + 1);
        self.state.set(x);
    }

    /// Slice time (ms) added since the last slowdown was taken.
    pub fn spent_ms(&self) -> f64 {
        self.ms.get()
    }

    /// The slowdown since the last call, and forgets those slices. With
    /// no slice run, the host is taken to be at nominal speed.
    fn take_slowdown(&self) -> f64 {
        let (n, ms) = (self.slices.replace(0), self.ms.replace(0.0));
        if n == 0 {
            1.0
        } else {
            ms / (f64::from(n) * NOMINAL_SLICE_MS)
        }
    }

    /// Times `work`, which calls [`Pace::sample`] between its parts, and
    /// reads its slowdown from those slices and one more on each side.
    pub fn time<T>(&self, work: impl FnOnce() -> T) -> (T, Paced) {
        self.take_slowdown();
        self.sample();
        let before = self.spent_ms();
        let t = Instant::now();
        let r = work();
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        let inside = self.spent_ms() - before;
        self.sample();
        let paced = Paced {
            wall_ms: elapsed - inside,
            slowdown: self.take_slowdown(),
        };
        (r, paced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_inside_the_work_are_not_charged_to_it() {
        let pace = Pace::new();
        let ((), p) = pace.time(|| {
            for _ in 0..20 {
                pace.sample();
            }
        });
        // The work did nothing but run slices.
        assert!(p.wall_ms < 0.05 * 20.0 * NOMINAL_SLICE_MS, "{p:?}");
        assert!(p.slowdown.is_finite() && p.slowdown > 0.0);
        assert_eq!(pace.slices.get(), 0);
    }

    #[test]
    fn nominal_time_divides_by_the_slowdown() {
        let p = Paced {
            wall_ms: 300.0,
            slowdown: 1.5,
        };
        assert_eq!(p.ms(1.0), 200.0);
        assert_eq!(p.ms(0.0), 300.0);
        assert!((p.ms(2.0) - 300.0 / 2.25).abs() < 1e-12);
    }
}
