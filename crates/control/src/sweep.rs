//! Parallel frequency-sweep driver.
//!
//! Every frequency-domain analysis in this crate — µ upper-bound peaks
//! ([`crate::mu::mu_peak`]), H∞ norm estimates, D-scale fitting inside
//! D–K iteration — is a map over a frequency grid where each point is
//! independent: evaluate the transfer matrix, reduce it to a scalar or a
//! small record. This module provides that map once, with four
//! guarantees:
//!
//! 1. **One Hessenberg reduction per sweep.** The caller supplies a
//!    [`FreqSystem`] (built once, O(n³)); each grid point costs an O(n²)
//!    solve through a per-worker [`FreqEvaluator`] whose scratch buffers
//!    are reused across the whole chunk.
//! 2. **Deterministic results.** The grid is split into contiguous
//!    chunks, workers claim chunks round-robin, and chunk outputs are
//!    reassembled in grid order. Each point's computation is identical in
//!    serial and parallel mode, so [`sweep`] is *bit-identical* to
//!    [`sweep_serial`].
//! 3. **Cache-footprint chunking.** Chunk sizes come from the
//!    evaluator's working-set bytes against a 256 KiB L2 budget
//!    ([`FreqSystem::working_set_bytes`]) rather than `len / workers`:
//!    big systems get short chunks that keep their scratch hot, small
//!    systems get long chunks that amortize thread handoff.
//! 4. **One arithmetic path.** Every evaluator runs the same scalar
//!    kernels on every host (`yukta-linalg` has no vector variant that
//!    rounds differently), so a sweep's bits depend only on its inputs,
//!    never on the CPU it runs on.

use yukta_linalg::freq::{FreqEvaluator, FreqSystem};
use yukta_obs::Value;

/// Fewest grid points a worker must receive before thread fan-out pays
/// for itself; shorter sweeps run serially. Also the floor on
/// [`chunk_points`], so chunking never degenerates to per-point handoff.
const MIN_POINTS_PER_WORKER: usize = 8;

/// Per-sweep L2 working-set budget used to size grid chunks.
const L2_BUDGET_BYTES: usize = 256 * 1024;

/// Ceiling on [`chunk_points`] so tiny systems still split a long grid
/// into enough chunks to occupy every worker.
const MAX_CHUNK_POINTS: usize = 256;

/// Number of workers a sweep of `len` points should use on this host.
fn worker_count(len: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(len / MIN_POINTS_PER_WORKER).max(1)
}

/// Grid points per chunk for `sys`: how many evaluations fit the L2
/// budget given the evaluator's working set, clamped to
/// `[MIN_POINTS_PER_WORKER, MAX_CHUNK_POINTS]`.
///
/// The working set is what one evaluation streams over (scratch planes +
/// system tables + output); a chunk whose point count times its handoff
/// overhead stays small relative to that keeps each worker's scratch
/// resident for the whole chunk.
fn chunk_points(sys: &FreqSystem) -> usize {
    let ws = sys.working_set_bytes().max(1);
    (L2_BUDGET_BYTES / ws).clamp(MIN_POINTS_PER_WORKER, MAX_CHUNK_POINTS)
}

/// Maps `f` over every grid point in order, single-threaded, reusing one
/// evaluator. `f` receives the point's index in `grid`, its value, and
/// the evaluator.
///
/// This is the reference semantics for [`sweep`]; the two are
/// bit-identical by construction.
pub fn sweep_serial<T, F>(sys: &FreqSystem, grid: &[f64], f: F) -> Vec<T>
where
    F: Fn(usize, f64, &mut FreqEvaluator<'_>) -> T,
{
    let mut ev = sys.evaluator();
    grid.iter()
        .enumerate()
        .map(|(k, &w)| f(k, w, &mut ev))
        .collect()
}

/// Chunk-granular variant of [`sweep_serial`]: `f` receives a whole
/// contiguous grid chunk (its start index, its frequencies, and the
/// evaluator) and returns one result per point. Chunk boundaries are the
/// same cache-sized partition the parallel driver uses, so batched
/// kernels (e.g. the Osborne D-scaling initializer) see identical batch
/// shapes in serial and parallel mode.
pub fn sweep_serial_chunks<T, F>(sys: &FreqSystem, grid: &[f64], f: F) -> Vec<T>
where
    F: Fn(usize, &[f64], &mut FreqEvaluator<'_>) -> Vec<T>,
{
    let chunk = chunk_points(sys);
    let mut ev = sys.evaluator();
    let mut out = Vec::with_capacity(grid.len());
    let mut start = 0;
    while start < grid.len() {
        let end = (start + chunk).min(grid.len());
        let vals = f(start, &grid[start..end], &mut ev);
        debug_assert_eq!(vals.len(), end - start, "chunk closure must map 1:1");
        out.extend(vals);
        start = end;
    }
    out
}

/// Chunk-granular variant of [`sweep`]: like [`sweep_serial_chunks`] but
/// fanning chunks out across cores. Chunk partition, per-chunk inputs,
/// and reassembly order are identical to the serial variant, so results
/// are bit-identical to [`sweep_serial_chunks`].
pub fn sweep_chunks<T, F>(sys: &FreqSystem, grid: &[f64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f64], &mut FreqEvaluator<'_>) -> Vec<T> + Sync,
{
    let workers = worker_count(grid.len());
    let chunk = chunk_points(sys);
    let nchunks = grid.len().div_ceil(chunk);
    let workers = workers.min(nchunks);
    if workers <= 1 {
        return sweep_serial_chunks(sys, grid, f);
    }
    let rec = yukta_obs::handle();
    if rec.enabled() {
        rec.event(
            "sweep.fanout",
            &[
                ("points", Value::U64(grid.len() as u64)),
                ("workers", Value::U64(workers as u64)),
                ("chunk_points", Value::U64(chunk as u64)),
            ],
        );
    }
    // Worker t claims chunks t, t + workers, t + 2·workers, … — a static
    // round-robin that needs no work queue and keeps assignment (hence
    // evaluator state per point) deterministic.
    let mut tagged: Vec<(usize, Vec<T>)> = crossbeam::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                scope.spawn(move |_| {
                    let mut ev = sys.evaluator();
                    let mut parts: Vec<(usize, Vec<T>)> = Vec::new();
                    let mut ci = t;
                    while ci * chunk < grid.len() {
                        let start = ci * chunk;
                        let end = (start + chunk).min(grid.len());
                        let token = rec.enabled().then(|| rec.span_begin("sweep.chunk"));
                        let vals = f(start, &grid[start..end], &mut ev);
                        debug_assert_eq!(vals.len(), end - start, "chunk closure must map 1:1");
                        if let Some(token) = token {
                            rec.span_end(
                                "sweep.chunk",
                                token,
                                &[
                                    ("chunk", Value::U64(ci as u64)),
                                    ("start", Value::U64(start as u64)),
                                    ("len", Value::U64((end - start) as u64)),
                                ],
                            );
                        }
                        parts.push((ci, vals));
                        ci += workers;
                    }
                    parts
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope");
    tagged.sort_by_key(|&(ci, _)| ci);
    let mut out = Vec::with_capacity(grid.len());
    for (_, mut part) in tagged {
        out.append(&mut part);
    }
    out
}

/// Deterministic parallel map over `0..n`: `f(i)` runs once per index on
/// a round-robin worker assignment and results come back in index order,
/// bit-identical to `(0..n).map(f)`. The figure sweeps of `yukta-bench`
/// fan their per-workload runs out through it.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let workers = cores.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut tagged: Vec<(usize, T)> = crossbeam::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                scope.spawn(move |_| {
                    let mut out = Vec::new();
                    let mut i = t;
                    while i < n {
                        out.push((i, f(i)));
                        i += workers;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    })
    .expect("parallel_map scope");
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// Probes candidates `0..n` in index order and stops at the first
/// feasible one: `probe(i)` returns `Some` when candidate `i` is
/// feasible. Entry `i` of the result is `probe(i)` for every `i` up to
/// and including the first feasible index and `None` after it. This is
/// the serial twin of [`first_feasible`] and its reference semantics.
pub(crate) fn first_feasible_serial<T, F>(n: usize, probe: F) -> Vec<Option<T>>
where
    F: Fn(usize) -> Option<T>,
{
    let mut out = Vec::with_capacity(n);
    let mut found = false;
    for i in 0..n {
        let r = if found { None } else { probe(i) };
        found |= r.is_some();
        out.push(r);
    }
    out
}

/// [`first_feasible_serial`] on up to `available_parallelism` workers.
/// Workers claim candidates in index order and skip any candidate to the
/// right of one already found feasible. Every index left of the first
/// feasible one is probed, so the results agree with the serial twin up
/// to and including the first `Some`; to its right they may hold extra
/// `Some`s that were in flight when it was found. Callers read only up
/// to the first `Some`. This is the fan-out behind γ-bisection, where
/// each candidate is a full H∞ synthesis and a feasible γ makes every
/// larger one moot.
pub(crate) fn first_feasible<T, F>(n: usize, probe: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    first_feasible_on(n, cores.min(n), probe, |_| {})
}

/// A step of the [`first_feasible`] driver, reported to its observer in
/// the order the steps took effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// A worker took the candidate and will probe it.
    Probed(usize),
    /// A worker passed over the candidate: a feasible one lies left of it.
    Skipped(usize),
    /// The candidate's probe came back feasible.
    Found(usize),
}

/// The shared claim state: the next unclaimed index and the smallest
/// feasible index found so far (`n` while there is none).
struct Claims {
    next: usize,
    first_found: usize,
}

/// [`first_feasible`] on `workers` threads (one of them the caller's),
/// reporting each claim, skip and find to `observe` under the claim lock.
fn first_feasible_on<T, F, O>(n: usize, workers: usize, probe: F, observe: O) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
    O: Fn(Claim) + Sync,
{
    if workers <= 1 {
        return first_feasible_serial(n, probe);
    }
    let claims = std::sync::Mutex::new(Claims {
        next: 0,
        first_found: n,
    });
    let lock = || claims.lock().expect("first_feasible claims poisoned");
    let work = || {
        let mut out = Vec::new();
        loop {
            let claimed = {
                let mut c = lock();
                let mut claimed = None;
                while claimed.is_none() && c.next < n {
                    let i = c.next;
                    c.next += 1;
                    if i > c.first_found {
                        observe(Claim::Skipped(i));
                        out.push((i, None));
                    } else {
                        observe(Claim::Probed(i));
                        claimed = Some(i);
                    }
                }
                claimed
            };
            let Some(i) = claimed else { break };
            let r = probe(i);
            if r.is_some() {
                let mut c = lock();
                c.first_found = c.first_found.min(i);
                observe(Claim::Found(i));
            }
            out.push((i, r));
        }
        out
    };
    let mut tagged: Vec<(usize, Option<T>)> = crossbeam::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(move |_| work())).collect();
        let mut all = work();
        for h in handles {
            all.extend(h.join().expect("first_feasible worker panicked"));
        }
        all
    })
    .expect("first_feasible scope");
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over every grid point, fanning out across cache-sized
/// contiguous chunks on multi-core hosts. Results come back in grid order
/// and are bit-identical to [`sweep_serial`] with the same arguments.
pub fn sweep<T, F>(sys: &FreqSystem, grid: &[f64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, f64, &mut FreqEvaluator<'_>) -> T + Sync,
{
    if worker_count(grid.len()) <= 1 {
        return sweep_serial(sys, grid, f);
    }
    // Per-point sweeps are the chunked driver with a 1:1 adapter.
    sweep_chunks(sys, grid, |start, ws, ev| {
        ws.iter()
            .enumerate()
            .map(|(k, &w)| f(start + k, w, ev))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yukta_linalg::{C64, Mat};

    fn sys() -> FreqSystem {
        let a = Mat::from_rows(&[&[-0.5, 0.2, 0.0], &[0.1, -1.0, 0.3], &[0.0, 0.4, -2.0]]);
        let b = Mat::col(&[1.0, 0.5, -0.2]);
        let c = Mat::from_rows(&[&[1.0, 0.0, 0.5]]);
        let d = Mat::zeros(1, 1);
        FreqSystem::new(&a, &b, &c, &d).unwrap()
    }

    fn gain(_: usize, w: f64, ev: &mut FreqEvaluator<'_>) -> f64 {
        ev.eval(C64::new(0.0, w)).unwrap().get(0, 0).abs()
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        let s = sys();
        let grid: Vec<f64> = (0..200).map(|k| 0.01 * 1.05f64.powi(k)).collect();
        let serial = sweep_serial(&s, &grid, gain);
        let parallel = sweep(&s, &grid, gain);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn indices_arrive_in_grid_order() {
        let s = sys();
        let grid: Vec<f64> = (1..=100).map(|k| k as f64).collect();
        let idx = sweep(&s, &grid, |k, _, _| k);
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn indices_arrive_in_grid_order_across_many_chunks() {
        // A grid much longer than one chunk exercises the round-robin
        // reassembly even when chunk_points clamps low.
        let s = sys();
        let grid: Vec<f64> = (1..=1000).map(|k| k as f64 * 0.01).collect();
        let idx = sweep(&s, &grid, |k, _, _| k);
        assert_eq!(idx, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_grid() {
        let s = sys();
        let out = sweep(&s, &[], |k, _, _| k);
        assert!(out.is_empty());
    }

    fn gain_chunk(start: usize, ws: &[f64], ev: &mut FreqEvaluator<'_>) -> Vec<f64> {
        ws.iter()
            .enumerate()
            .map(|(k, &w)| gain(start + k, w, ev))
            .collect()
    }

    #[test]
    fn chunked_parallel_bit_identical_to_chunked_serial() {
        let s = sys();
        let grid: Vec<f64> = (0..300).map(|k| 0.01 * 1.04f64.powi(k)).collect();
        let serial = sweep_serial_chunks(&s, &grid, gain_chunk);
        let parallel = sweep_chunks(&s, &grid, gain_chunk);
        assert_eq!(serial.len(), grid.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunked_matches_per_point_sweep() {
        let s = sys();
        let grid: Vec<f64> = (0..150).map(|k| 0.02 * 1.05f64.powi(k)).collect();
        let per_point = sweep_serial(&s, &grid, gain);
        let chunked = sweep_serial_chunks(&s, &grid, gain_chunk);
        for (a, b) in per_point.iter().zip(&chunked) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_map_is_index_ordered_and_complete() {
        let vals = parallel_map(37, |i| 3 * i + 1);
        assert_eq!(vals, (0..37).map(|i| 3 * i + 1).collect::<Vec<_>>());
        let empty = parallel_map(0, |i| i);
        assert!(empty.is_empty());
    }

    /// A distinct "design" per candidate, so a wrong pick shows in the bits.
    fn design(i: usize) -> Mat {
        Mat::filled(2, 2, 0.1 + i as f64)
    }

    /// The round decision `bisect_multi_core` takes: the first feasible
    /// index and its design.
    fn decision(results: Vec<Option<Mat>>) -> Option<(usize, Vec<u64>)> {
        let j = results.iter().position(|r| r.is_some())?;
        let d = results.into_iter().nth(j).flatten()?;
        Some((j, d.as_slice().iter().map(|v| v.to_bits()).collect()))
    }

    fn feasible(pattern: u32, i: usize) -> bool {
        pattern >> i & 1 == 1
    }

    #[test]
    fn first_feasible_decides_like_the_serial_twin_on_every_pattern() {
        for pattern in 0..8u32 {
            let probe = |i: usize| feasible(pattern, i).then(|| design(i));
            let want = decision(first_feasible_serial(3, probe));
            for workers in 1..=4 {
                for _ in 0..10 {
                    let got = decision(first_feasible_on(3, workers, probe, |_| {}));
                    assert_eq!(got, want, "pattern {pattern:03b}, {workers} workers");
                }
            }
            assert_eq!(decision(first_feasible(3, probe)), want);
        }
        assert!(first_feasible(0, |_| Some(1)).is_empty());
    }

    #[test]
    fn first_feasible_skips_the_candidate_right_of_a_found_one() {
        // Two workers, only candidate 0 feasible. Candidate 1's probe is
        // held until candidate 0 has been found, so whichever worker
        // claims candidate 2 does so after the find and must skip it.
        let found = (std::sync::Mutex::new(false), std::sync::Condvar::new());
        let probed = std::sync::Mutex::new(Vec::new());
        let probe = |i: usize| {
            probed.lock().unwrap().push(i);
            if i == 1 {
                let (flag, cv) = &found;
                let _held = cv.wait_while(flag.lock().unwrap(), |f| !*f).unwrap();
            }
            (i == 0).then(|| design(0))
        };
        let log = std::sync::Mutex::new(Vec::new());
        let got = first_feasible_on(3, 2, probe, |c| {
            if c == Claim::Found(0) {
                *found.0.lock().unwrap() = true;
                found.1.notify_all();
            }
            log.lock().unwrap().push(c);
        });
        let log = log.into_inner().unwrap();
        assert!(log.contains(&Claim::Skipped(2)), "{log:?}");
        assert!(!probed.into_inner().unwrap().contains(&2));
        let want = first_feasible_serial(3, |i| (i == 0).then(|| design(i)));
        assert_eq!(decision(got), decision(want));
    }

    #[test]
    fn first_feasible_claims_nothing_right_of_a_found_candidate() {
        for pattern in 0..8u32 {
            for workers in 2..=4 {
                for rep in 0..6u64 {
                    let log = std::sync::Mutex::new(Vec::new());
                    let probed = std::sync::Mutex::new(Vec::new());
                    // Uneven probe times vary the interleavings.
                    let probe = |i: usize| {
                        probed.lock().unwrap().push(i);
                        let ms = (i as u64 * 3 + rep) % 4;
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                        feasible(pattern, i).then(|| design(i))
                    };
                    let got = first_feasible_on(3, workers, probe, |c| log.lock().unwrap().push(c));
                    let log = log.into_inner().unwrap();
                    let mut probed = probed.into_inner().unwrap();
                    for (at, c) in log.iter().enumerate() {
                        if let Claim::Found(i) = *c {
                            assert!(
                                !log[at..]
                                    .iter()
                                    .any(|c| matches!(*c, Claim::Probed(j) if j > i)),
                                "pattern {pattern:03b}: probed right of {i} after finding it: {log:?}"
                            );
                        }
                    }
                    // Every index is claimed exactly once, probed or skipped.
                    let mut seen: Vec<usize> = log
                        .iter()
                        .filter_map(|c| match *c {
                            Claim::Probed(i) | Claim::Skipped(i) => Some(i),
                            Claim::Found(_) => None,
                        })
                        .collect();
                    seen.sort_unstable();
                    assert_eq!(seen, vec![0, 1, 2], "{log:?}");
                    probed.sort_unstable();
                    let want: Vec<usize> = log
                        .iter()
                        .filter_map(|c| match *c {
                            Claim::Probed(i) => Some(i),
                            _ => None,
                        })
                        .collect();
                    let mut want = want;
                    want.sort_unstable();
                    assert_eq!(probed, want);
                    assert_eq!(
                        decision(got),
                        decision(
                            first_feasible_serial(3, |i| feasible(pattern, i).then(|| design(i)))
                        )
                    );
                    // With candidates 0 and 1 both feasible, two workers
                    // never reach candidate 2: whichever finishes first
                    // has found a feasible one before it claims again.
                    if workers == 2 && pattern & 0b011 == 0b011 {
                        assert!(log.contains(&Claim::Skipped(2)), "{log:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_points_is_clamped() {
        let c = chunk_points(&sys());
        assert!((MIN_POINTS_PER_WORKER..=MAX_CHUNK_POINTS).contains(&c));
        // A large system must get a chunk at the floor, not zero.
        let n = 64;
        let big = FreqSystem::new(
            &Mat::diag(&vec![-1.0; n]),
            &Mat::zeros(n, 8),
            &Mat::zeros(8, n),
            &Mat::zeros(8, 8),
        )
        .unwrap();
        assert!(big.working_set_bytes() > L2_BUDGET_BYTES / MIN_POINTS_PER_WORKER);
        assert_eq!(chunk_points(&big), MIN_POINTS_PER_WORKER);
    }
}
