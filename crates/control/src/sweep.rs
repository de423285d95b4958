//! Deterministic fan-out driver.
//!
//! Every frequency-domain analysis in this crate — µ upper-bound peaks
//! ([`crate::mu::mu_peak`]), H∞ norm estimates, D-scale fitting inside
//! D–K iteration — is a map over a frequency grid where each point is
//! independent: evaluate the transfer matrix, reduce it to a scalar or a
//! small record. The γ-bisection probes its candidates the same way, and
//! the figure binaries fan their runs out through [`parallel_map`]. All
//! of them run on one private claim driver, with four guarantees:
//!
//! 1. **One Hessenberg reduction per sweep.** The caller supplies a
//!    [`FreqSystem`] (built once, O(n³)); each grid point costs an O(n²)
//!    solve through a per-worker [`FreqEvaluator`] whose scratch buffers
//!    are reused across every chunk the worker claims.
//! 2. **Deterministic results.** Workers claim indices (grid chunks,
//!    map items, γ candidates) in order under one lock and results are
//!    reassembled in index order. Each index's computation is the same
//!    on any worker, so every fan-out is *bit-identical* to the same
//!    driver on one worker, which is how the serial forms run.
//! 3. **Cache-footprint chunking.** Chunk sizes come from the
//!    evaluator's working-set bytes against a 256 KiB L2 budget
//!    ([`FreqSystem::working_set_bytes`]) rather than `len / workers`:
//!    big systems get short chunks that keep their scratch hot, small
//!    systems get long chunks that amortize the claim handoff.
//! 4. **One arithmetic path.** Every evaluator runs the same scalar
//!    kernels on every host (`yukta-linalg` has no vector variant that
//!    rounds differently), so a sweep's bits depend only on its inputs,
//!    never on the CPU it runs on.

use std::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

use yukta_linalg::Moot;
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

/// Workers for `n` independent jobs on this host: one per core, at most
/// one per job, at least one.
pub(crate) fn workers(n: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .min(n)
        .max(1)
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

/// A step of the claim driver, reported to its observer in the order the
/// steps took effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// A worker took the index and will run its job.
    Probed(usize),
    /// A worker passed over the index: a `Some` lies left of it.
    Skipped(usize),
    /// The index's job returned `Some` on a stopping run.
    Found(usize),
}

/// The shared claim state: the next unclaimed index and the smallest
/// stopping index whose job returned `Some` (`n` while there is none).
struct Claims {
    next: usize,
    first_found: usize,
}

/// The one fan-out driver. `workers` workers (the caller's thread and
/// `workers − 1` scoped threads) claim the indices `0..n` in order under
/// one lock. Each worker builds its own state with `init` and runs
/// `job(&mut state, i, moot)` on every index it claims. Indices at or
/// right of `stop_from` are stopping ones (none when `stop_from >= n`):
/// a worker skips any index right of the first stopping index whose job
/// returned `Some`, leaving `None` there, and no index left of it is
/// skipped. A job's `moot` is set once such a `Some` lies left of its
/// index, so a job in flight can give up early: its entry is never read.
/// Results come back in index order; each claim, skip and find is
/// reported to `observe` under the claim lock.
///
/// One worker runs every job in index order on the caller's thread: that
/// is the serial form, and more workers give the same results wherever a
/// job's output depends only on its index. On a stopping run, entries
/// right of the first `Some` may hold extra `Some`s that were in flight
/// when it was found; callers read only up to the first `Some`.
fn claim<S, T>(
    n: usize,
    workers: usize,
    stop_from: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize, Moot<'_>) -> Option<T> + Sync,
    observe: impl Fn(Claim) + Sync,
) -> Vec<Option<T>>
where
    T: Send,
{
    let claims = Mutex::new(Claims {
        next: 0,
        first_found: n,
    });
    // `first_found` again, outside the lock, for the jobs' moot checks:
    // written under the lock, read with one load per poll. It publishes
    // no other data (results travel through the join), so `Relaxed`
    // suffices: a stale read only lets a moot job run a little longer.
    let found = AtomicUsize::new(n);
    let lock = || claims.lock().expect("claim state poisoned");
    let work = || {
        let mut state = init();
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
            let moot = || i > found.load(Ordering::Relaxed);
            let r = job(&mut state, i, Moot::new(&moot));
            if i >= stop_from && r.is_some() {
                let mut c = lock();
                c.first_found = c.first_found.min(i);
                found.store(c.first_found, Ordering::Relaxed);
                observe(Claim::Found(i));
            }
            out.push((i, r));
        }
        out
    };
    let workers = workers.min(n);
    let mut tagged = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut all = work();
            for h in handles {
                all.extend(h.join().expect("fan-out worker panicked"));
            }
            all
        })
    };
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over every grid point, fanning out across cache-sized
/// contiguous chunks on multi-core hosts. `f` receives the point's index
/// in `grid`, its value, and the worker's evaluator. Results come back
/// in grid order and are bit-identical on any number of workers.
pub fn sweep<T, F>(sys: &FreqSystem, grid: &[f64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, f64, &mut FreqEvaluator<'_>) -> T + Sync,
{
    // Per-point sweeps are the chunked driver with a 1:1 adapter.
    sweep_chunks(sys, grid, |start, ws, ev| {
        ws.iter()
            .enumerate()
            .map(|(k, &w)| f(start + k, w, ev))
            .collect()
    })
}

/// Chunk-granular variant of [`sweep`]: `f` receives a whole contiguous
/// grid chunk (its start index, its frequencies, and the worker's
/// evaluator) and returns one result per point, so batched kernels (e.g.
/// the Osborne D-scaling initializer) see the same cache-sized batch
/// shapes on any number of workers.
pub fn sweep_chunks<T, F>(sys: &FreqSystem, grid: &[f64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f64], &mut FreqEvaluator<'_>) -> Vec<T> + Sync,
{
    let workers = workers(grid.len() / MIN_POINTS_PER_WORKER);
    sweep_chunks_on(sys, grid, workers, f)
}

/// [`sweep_chunks`] on at most `workers` workers; one worker is the
/// serial form. The fan-out is traced (a `sweep.fanout` event and one
/// `sweep.chunk` span per chunk) only when more than one worker runs.
pub(crate) fn sweep_chunks_on<T, F>(sys: &FreqSystem, grid: &[f64], workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f64], &mut FreqEvaluator<'_>) -> Vec<T> + Sync,
{
    let chunk = chunk_points(sys);
    let nchunks = grid.len().div_ceil(chunk);
    let workers = workers.min(nchunks);
    let rec = yukta_obs::handle();
    let traced = workers > 1 && rec.enabled();
    if traced {
        rec.event(
            "sweep.fanout",
            &[
                ("points", Value::U64(grid.len() as u64)),
                ("workers", Value::U64(workers as u64)),
                ("chunk_points", Value::U64(chunk as u64)),
            ],
        );
    }
    let job = |ev: &mut FreqEvaluator<'_>, ci: usize, _: Moot<'_>| {
        let start = ci * chunk;
        let end = (start + chunk).min(grid.len());
        let token = traced.then(|| rec.span_begin("sweep.chunk"));
        let vals = f(start, &grid[start..end], ev);
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
        Some(vals)
    };
    claim(nchunks, workers, nchunks, || sys.evaluator(), job, |_| {})
        .into_iter()
        .flatten()
        .flatten()
        .collect()
}

/// Deterministic parallel map over `0..n`: `f(i)` runs once per index on
/// up to one worker per core and results come back in index order,
/// bit-identical to `(0..n).map(f)`. The figure sweeps of `yukta-bench`
/// fan their per-workload runs out through it.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    claim(n, workers(n), n, || (), |_, i, _| Some(f(i)), |_| {})
        .into_iter()
        .flatten()
        .collect()
}

/// Probes candidates `0..n` on `workers` workers and stops at the first
/// feasible one at or right of `lead`: `probe(i, moot)` returns `Some`
/// when candidate `i` is feasible. Candidates below `lead` are always
/// probed to the end and never stop the search. Entry `i` of the result
/// is `probe(i)` for every `i` up to and including the first feasible
/// index at or right of `lead`; to its right it is `None`, or on more
/// than one worker possibly a `Some` that was in flight when the first
/// was found. `moot` is set once such a feasible candidate lies left of
/// `i`: the probe may then give up, since its entry is never read.
/// Callers read only up to the first `Some`. This is the fan-out behind
/// γ-bisection, where each candidate is a full H∞ synthesis and a
/// feasible γ makes every larger one moot.
pub(crate) fn first_feasible<T, F>(
    n: usize,
    workers: usize,
    lead: usize,
    probe: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, Moot<'_>) -> Option<T> + Sync,
{
    claim(n, workers, lead, || (), |_, i, moot| probe(i, moot), |_| {})
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

    fn gain_chunk(start: usize, ws: &[f64], ev: &mut FreqEvaluator<'_>) -> Vec<f64> {
        ws.iter()
            .enumerate()
            .map(|(k, &w)| gain(start + k, w, ev))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        let s = sys();
        let grid: Vec<f64> = (0..200).map(|k| 0.01 * 1.05f64.powi(k)).collect();
        let serial = sweep_chunks_on(&s, &grid, 1, gain_chunk);
        let parallel = sweep(&s, &grid, gain);
        assert_eq!(bits(&serial), bits(&parallel));
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
        // A grid much longer than one chunk exercises the claim-order
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

    #[test]
    fn chunked_parallel_bit_identical_to_chunked_serial() {
        let s = sys();
        let grid: Vec<f64> = (0..300).map(|k| 0.01 * 1.04f64.powi(k)).collect();
        let serial = sweep_chunks_on(&s, &grid, 1, gain_chunk);
        let parallel = sweep_chunks(&s, &grid, gain_chunk);
        assert_eq!(serial.len(), grid.len());
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn chunked_matches_per_point_sweep() {
        let s = sys();
        let grid: Vec<f64> = (0..150).map(|k| 0.02 * 1.05f64.powi(k)).collect();
        let mut ev = s.evaluator();
        let per_point: Vec<f64> = grid
            .iter()
            .enumerate()
            .map(|(k, &w)| gain(k, w, &mut ev))
            .collect();
        let chunked = sweep_chunks_on(&s, &grid, 1, gain_chunk);
        assert_eq!(bits(&per_point), bits(&chunked));
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

    /// The round decision the γ-bisection takes: the first feasible
    /// index and its design.
    fn decision(results: Vec<Option<Mat>>) -> Option<(usize, Vec<u64>)> {
        let j = results.iter().position(|r| r.is_some())?;
        let d = results.into_iter().nth(j).flatten()?;
        Some((j, bits(d.as_slice())))
    }

    fn feasible(pattern: u32, i: usize) -> bool {
        pattern >> i & 1 == 1
    }

    /// The stopping driver on `workers` workers with an observer.
    fn first_feasible_on<T: Send>(
        n: usize,
        workers: usize,
        probe: impl Fn(usize) -> Option<T> + Sync,
        observe: impl Fn(Claim) + Sync,
    ) -> Vec<Option<T>> {
        claim(n, workers, 0, || (), |_, i, _| probe(i), observe)
    }

    /// The driver's three uses (a chunked sweep with a per-worker
    /// evaluator, a plain map, a stop at the first feasible candidate)
    /// give the one-worker result bit for bit on 1–4 workers.
    #[test]
    fn driver_at_one_to_four_workers_matches_one_worker_for_every_use() {
        let s = sys();
        let grid: Vec<f64> = (0..400).map(|k| 0.01 * 1.03f64.powi(k)).collect();
        let chunked = sweep_chunks_on(&s, &grid, 1, gain_chunk);
        let map = |workers| {
            claim(
                37,
                workers,
                37,
                || (),
                |_, i, _| Some((i as f64).ln_1p()),
                |_| {},
            )
            .into_iter()
            .map(|v| v.map(f64::to_bits))
            .collect::<Vec<_>>()
        };
        for workers in 1..=4 {
            for _ in 0..5 {
                let got = sweep_chunks_on(&s, &grid, workers, gain_chunk);
                assert_eq!(bits(&got), bits(&chunked), "sweep, {workers} workers");
                assert_eq!(map(workers), map(1), "map, {workers} workers");
                for pattern in 0..8u32 {
                    let probe = |i: usize| feasible(pattern, i).then(|| design(i));
                    assert_eq!(
                        decision(first_feasible(3, workers, 0, |i, _| probe(i))),
                        decision(first_feasible(3, 1, 0, |i, _| probe(i))),
                        "first feasible, pattern {pattern:03b}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn first_feasible_decides_like_the_serial_twin_on_every_pattern() {
        for pattern in 0..8u32 {
            let probe = |i: usize| feasible(pattern, i).then(|| design(i));
            let want = decision(first_feasible(3, 1, 0, |i, _| probe(i)));
            for workers in 1..=4 {
                for _ in 0..10 {
                    let got = decision(first_feasible_on(3, workers, probe, |_| {}));
                    assert_eq!(got, want, "pattern {pattern:03b}, {workers} workers");
                }
            }
            assert_eq!(
                decision(first_feasible(3, workers(3), 0, |i, _| probe(i))),
                want
            );
        }
        assert!(first_feasible(0, workers(0), 0, |_, _| Some(1)).is_empty());
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
        let want = first_feasible(3, 1, 0, |i, _| (i == 0).then(|| design(i)));
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
                            first_feasible(3, 1, 0, |i, _| feasible(pattern, i).then(|| design(i)))
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

    /// Spins until `done` holds, or panics after a generous deadline.
    fn spin_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "waited for {what}");
            std::thread::yield_now();
        }
    }

    /// A probe in flight right of a found candidate sees its `moot` set
    /// and gives up; the lead candidates (the γ-search's ceiling) are
    /// never moot, and nothing up to the first `Some` changes.
    #[test]
    fn probes_right_of_a_found_candidate_are_abandoned_in_flight() {
        for lead in 0..=1usize {
            // Candidates 0..=lead + 1 must all be in flight at once.
            for workers in lead + 2..=4 {
                // Candidate `lead` is feasible. It answers only once
                // candidate `lead + 1` is running (so that one is in
                // flight when the find lands); every candidate right of
                // it spins until moot. A lead candidate left of it waits
                // for the find, checks it is not moot, and is feasible
                // too.
                let running = std::sync::atomic::AtomicBool::new(false);
                let found = std::sync::atomic::AtomicBool::new(false);
                let abandoned = std::sync::Mutex::new(Vec::new());
                let probe = |i: usize, moot: Moot<'_>| {
                    if i < lead {
                        spin_until("the find", || found.load(Ordering::Relaxed));
                        assert!(!moot.is_set(), "lead candidate {i} went moot");
                        return Some(design(i));
                    }
                    if i == lead {
                        spin_until("a probe in flight", || running.load(Ordering::Relaxed));
                        return Some(design(i));
                    }
                    running.store(true, Ordering::Relaxed);
                    spin_until("moot", || moot.is_set());
                    abandoned.lock().unwrap().push(i);
                    None
                };
                let got = claim(
                    5,
                    workers,
                    lead,
                    || (),
                    |_, i, moot| probe(i, moot),
                    |c| {
                        if c == Claim::Found(lead) {
                            found.store(true, Ordering::Relaxed);
                        }
                    },
                );
                assert!(
                    abandoned.into_inner().unwrap().contains(&(lead + 1)),
                    "lead {lead}, {workers} workers"
                );
                let want: Vec<Option<Vec<u64>>> = (0..=lead)
                    .map(|i| Some(bits(design(i).as_slice())))
                    .collect();
                let got: Vec<Option<Vec<u64>>> = got
                    .into_iter()
                    .take(lead + 1)
                    .map(|d| d.map(|d| bits(d.as_slice())))
                    .collect();
                assert_eq!(got, want, "lead {lead}, {workers} workers");
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
