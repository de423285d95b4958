//! Throughput model: how fast threads retire instructions given core type,
//! frequency, memory-boundedness, and time multiplexing.

use crate::config::ClusterConfig;

/// The execution characteristics of one software thread, supplied by the
/// workload model each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadLoad {
    /// Whether the thread currently has work (blocked threads consume no
    /// core time).
    pub active: bool,
    /// Memory-boundedness in `[0, 1]`: 0 = pure compute, 1 = fully
    /// memory-bound (frequency scaling saturates).
    pub mem_intensity: f64,
    /// Multiplier on the big cluster's base IPC for this thread (captures
    /// ILP that the out-of-order core can exploit).
    pub ipc_factor_big: f64,
    /// Multiplier on the little cluster's base IPC.
    pub ipc_factor_little: f64,
}

impl ThreadLoad {
    /// A fully active thread with nominal characteristics.
    pub fn nominal() -> Self {
        ThreadLoad {
            active: true,
            mem_intensity: 0.3,
            ipc_factor_big: 1.0,
            ipc_factor_little: 1.0,
        }
    }

    /// An inactive (blocked/finished) thread.
    pub fn idle() -> Self {
        ThreadLoad {
            active: false,
            mem_intensity: 0.0,
            ipc_factor_big: 1.0,
            ipc_factor_little: 1.0,
        }
    }
}

/// Instruction throughput (giga-instructions per second) of one thread
/// that owns the fraction `share` of a core of the given cluster running
/// at `freq` GHz.
///
/// The model is linear in frequency for compute-bound threads and
/// saturates for memory-bound ones: effective GIPS =
/// `ipc·f / (1 + mi·f/f_sat)`, the standard first-order roofline rolloff.
pub fn thread_gips(
    cfg: &ClusterConfig,
    ipc_factor: f64,
    mem_intensity: f64,
    freq: f64,
    share: f64,
) -> f64 {
    let ipc = cfg.ipc_base * ipc_factor;
    let rolloff = 1.0 + mem_intensity.clamp(0.0, 1.0) * freq / cfg.f_mem_sat;
    (ipc * freq / rolloff) * share.clamp(0.0, 1.0)
}

/// How a cluster's threads map onto its powered cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multiplexing {
    /// Cores actually running threads.
    pub cores_used: usize,
    /// Threads per used core (≥ 1 when any thread runs).
    pub threads_per_core: f64,
    /// Per-thread core share after the context-switch penalty.
    pub share_per_thread: f64,
}

/// Computes the multiplexing of `n_threads` active threads over
/// `cores_on` powered cores, with the OS-requested packing density
/// (average threads per non-idle core — input #2/#3 of the paper's
/// software controller).
pub fn multiplex(n_threads: usize, cores_on: usize, packing: f64) -> Multiplexing {
    if n_threads == 0 || cores_on == 0 {
        return Multiplexing {
            cores_used: 0,
            threads_per_core: 0.0,
            share_per_thread: 0.0,
        };
    }
    let packing = packing.max(1.0);
    let want = (n_threads as f64 / packing).ceil() as usize;
    let cores_used = want.clamp(1, cores_on);
    let tpc = n_threads as f64 / cores_used as f64;
    // Time slicing divides the core; context switches tax it ~5% per extra
    // thread sharing the core.
    let switch_penalty = 1.0 / (1.0 + 0.05 * (tpc - 1.0).max(0.0));
    let share = (1.0 / tpc).min(1.0) * switch_penalty;
    Multiplexing {
        cores_used,
        threads_per_core: tpc,
        share_per_thread: share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BIG, LITTLE};

    #[test]
    fn compute_bound_scales_linearly() {
        let c = BIG;
        let g1 = thread_gips(&c, 1.0, 0.0, 1.0, 1.0);
        let g2 = thread_gips(&c, 1.0, 0.0, 2.0, 1.0);
        assert!((g2 / g1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_saturates() {
        let c = BIG;
        let g1 = thread_gips(&c, 1.0, 1.0, 1.0, 1.0);
        let g2 = thread_gips(&c, 1.0, 1.0, 2.0, 1.0);
        // Doubling frequency gains well under 2x for a memory-bound thread.
        assert!(g2 / g1 < 1.5, "ratio {}", g2 / g1);
        assert!(g2 > g1, "still monotone");
    }

    #[test]
    fn big_core_outperforms_little_at_same_frequency() {
        let gb = thread_gips(&BIG, 1.0, 0.3, 1.0, 1.0);
        let gl = thread_gips(&LITTLE, 1.0, 0.3, 1.0, 1.0);
        assert!(gb > 1.8 * gl, "big {gb} vs little {gl}");
    }

    #[test]
    fn peak_system_bips_is_several() {
        // 4 big at 2.0 + 4 little at 1.4, nominal mix → a few BIPS total,
        // consistent with the paper's ~5.5 BIPS targets.
        let gb = thread_gips(&BIG, 1.0, 0.3, 2.0, 1.0) * 4.0;
        let gl = thread_gips(&LITTLE, 1.0, 0.3, 1.4, 1.0) * 4.0;
        let total = gb + gl;
        assert!((5.0..14.0).contains(&total), "peak BIPS {total}");
    }

    #[test]
    fn share_scales_throughput() {
        let c = BIG;
        let full = thread_gips(&c, 1.0, 0.2, 1.5, 1.0);
        let half = thread_gips(&c, 1.0, 0.2, 1.5, 0.5);
        assert!((half / full - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multiplex_one_thread_per_core() {
        let m = multiplex(4, 4, 1.0);
        assert_eq!(m.cores_used, 4);
        assert!((m.share_per_thread - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiplex_packing_two_frees_cores() {
        let m = multiplex(4, 4, 2.0);
        assert_eq!(m.cores_used, 2);
        assert!((m.threads_per_core - 2.0).abs() < 1e-12);
        // Each thread gets slightly under half a core (switch penalty).
        assert!(m.share_per_thread < 0.5);
        assert!(m.share_per_thread > 0.45);
    }

    #[test]
    fn multiplex_more_threads_than_cores() {
        let m = multiplex(8, 4, 1.0);
        assert_eq!(m.cores_used, 4);
        assert!((m.threads_per_core - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multiplex_degenerate_cases() {
        assert_eq!(multiplex(0, 4, 1.0).cores_used, 0);
        assert_eq!(multiplex(4, 0, 1.0).cores_used, 0);
        // Packing below 1 is clamped.
        assert_eq!(multiplex(4, 4, 0.1).cores_used, 4);
    }

    #[test]
    fn thread_load_constructors() {
        assert!(ThreadLoad::nominal().active);
        assert!(!ThreadLoad::idle().active);
    }
}
