//! # unicache-exec
//!
//! A work-stealing thread-pool executor for the experiment sweeps, built
//! on `std::thread::scope` — no external dependencies, so the workspace
//! still builds fully offline.
//!
//! ## Job model
//!
//! [`Executor::map`] takes a slice of job descriptions and a pure worker
//! function, runs the jobs across up to `jobs` scoped worker threads, and
//! returns the results **in input order**. Every job is identified by its
//! input index — the *canonical order* — and its result is written into
//! the slot of that index, so the returned `Vec` is byte-for-byte the
//! same whatever schedule the workers happened to follow. Combined with
//! the two other pillars below, this is what makes `xp all --jobs N`
//! byte-identical to `--jobs 1`:
//!
//! 1. **Canonical collection order** — results are placed by input index,
//!    never by completion order (this module).
//! 2. **Exactly-once simulation** — the `SimStore`/`TraceStore` memoize
//!    each (workload, scheme, geometry) job behind per-key `OnceLock`
//!    cells, so racing workers can never compute a key twice or observe
//!    a partial result (`unicache-experiments`).
//! 3. **Commutative metric merges** — observability counters accumulate
//!    in per-thread shards merged with the property-tested commutative
//!    `CounterSet`/`Histogram` merge, so `--metrics-json` totals cannot
//!    depend on which worker ran which job (`unicache-obs`).
//!
//! ## Scheduling
//!
//! Jobs are dealt round-robin into one deque per worker; a worker pops
//! its own deque from the front and, when empty, *steals* from the back
//! of the other workers' deques. For the coarse jobs the experiment
//! runners submit (one whole trace simulation or generation per job) the
//! steal path only matters when job costs are skewed — exactly the case
//! in `xp all`, where one workload's trace dwarfs another's.
//!
//! The natural task granularity for simulation is the **fuse-group**:
//! `SimStore::prefetch_groups` submits one job per `(workload,
//! geometry)` group, and the fused kernel simulates every member scheme
//! inside that single job (one stream decode, lanes stepped side by
//! side — see DESIGN.md §11). Submitting per *scheme* instead would
//! split a group across workers and forfeit the shared decode: the
//! group mutex would serialize the workers anyway, so finer granularity
//! buys no parallelism — it only adds steal traffic.
//!
//! ## Configuration
//!
//! The worker count comes from [`set_global_jobs`] (the `xp --jobs N`
//! flag) and defaults to [`std::thread::available_parallelism`]. With
//! `jobs = 1` — or a single-job input — [`map`] runs inline on the
//! caller's thread and spawns nothing.
//!
//! Per-job wall-clock totals are accumulated globally (via
//! [`unicache_timing::Stopwatch`]; this crate is subject to the
//! `wallclock` determinism lint and never reads `Instant` directly) and
//! reported by [`stats`] — the source of `xp --timing-json`'s parallel
//! section. Timings are *reported only*; they never influence scheduling
//! or results.

pub mod model;
mod sys;

pub use sys::tune_allocator;

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use unicache_timing::Stopwatch;

/// Worker count override set by [`set_global_jobs`]; 0 means "default to
/// the machine's available parallelism". Config, not output: the whole
/// point of the executor is that the job count cannot change a byte of
/// the results, so a relaxed read here is sanctioned by `uca conc`.
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Cumulative per-job accounting, in nanoseconds.
///
/// A single mutex — not three independent atomics — so that
/// [`stats`]/[`reset_stats`] can never interleave with a completing job
/// and report a *torn* snapshot (e.g. a `max_task` from a job whose
/// `busy` contribution was just reset away, making `max > busy`). Every
/// completing job takes the lock once; the jobs the experiment runners
/// submit are whole trace simulations, so the critical section is noise
/// next to the job body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Telemetry {
    /// Jobs executed across all [`Executor::map`] calls.
    tasks: u64,
    /// Total busy nanoseconds across all jobs (sum over workers).
    busy_nanos: u64,
    /// Longest single job, nanoseconds.
    max_task_nanos: u64,
}

static TELEMETRY: Mutex<Telemetry> = Mutex::new(Telemetry {
    tasks: 0,
    busy_nanos: 0,
    max_task_nanos: 0,
});

/// The machine default: `available_parallelism`, or 1 if unknown.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the worker count used by the free [`map`] function (the `xp
/// --jobs N` flag). Clamped to at least 1.
pub fn set_global_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The worker count the free [`map`] function will use: the value set by
/// [`set_global_jobs`], or [`default_jobs`] if never set.
pub fn global_jobs() -> usize {
    match GLOBAL_JOBS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

/// Cumulative executor accounting, for timing reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// Jobs executed (one per input item across all `map` calls).
    pub tasks: u64,
    /// Total per-job busy time, summed across workers.
    pub busy_seconds: f64,
    /// Duration of the single longest job.
    pub max_task_seconds: f64,
}

/// Snapshot of the cumulative executor accounting. The three fields are
/// read under one lock, so they are always mutually consistent: in
/// particular `max_task_seconds <= busy_seconds`, and a reset can never
/// be observed half-applied.
pub fn stats() -> ExecStats {
    let t = *TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    ExecStats {
        tasks: t.tasks,
        busy_seconds: t.busy_nanos as f64 / 1e9,
        max_task_seconds: t.max_task_nanos as f64 / 1e9,
    }
}

/// Zeroes the cumulative accounting (test isolation). Atomic with
/// respect to completing jobs: a job finishing concurrently either lands
/// entirely before the reset or entirely after it.
pub fn reset_stats() {
    *TELEMETRY.lock().unwrap_or_else(|p| p.into_inner()) = Telemetry::default();
}

/// Runs one job with timing accounting.
fn run_timed<T, R, F: Fn(&T) -> R>(f: &F, item: &T) -> R {
    let sw = Stopwatch::start();
    let out = f(item);
    let nanos = sw.elapsed_nanos();
    let mut t = TELEMETRY.lock().unwrap_or_else(|p| p.into_inner());
    t.tasks += 1;
    t.busy_nanos += nanos;
    t.max_task_nanos = t.max_task_nanos.max(nanos);
    out
}

/// A work-stealing executor with a fixed worker count.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor running at most `jobs` workers (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps every item through `f` on the worker pool, returning results
    /// in input order (the canonical job order) regardless of schedule.
    ///
    /// Each `map` call builds its own scoped pool, so nested calls cannot
    /// deadlock (they merely oversubscribe); the experiment runners only
    /// fan out at one level. A panic in any job propagates to the caller
    /// once the scope joins.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().map(|item| run_timed(&f, item)).collect();
        }

        // One deque of job indices per worker, dealt round-robin; the
        // canonical order lives in the indices, not the deques.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                Mutex::new(
                    (0..items.len())
                        .filter(|i| i % workers == w)
                        .collect::<VecDeque<usize>>(),
                )
            })
            .collect();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        let results: Mutex<Vec<Option<R>>> = Mutex::new(slots);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let results = &results;
                let f = &f;
                scope.spawn(move || {
                    loop {
                        // Own queue first (front), then steal from the
                        // *back* of the others — the classic deque split
                        // that keeps stolen jobs far from the victim's
                        // working set.
                        let mut job = queues[w]
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .pop_front();
                        if job.is_none() {
                            for v in 1..workers {
                                let victim = (w + v) % workers;
                                job = queues[victim]
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .pop_back();
                                if job.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some(idx) = job else { break };
                        let out = run_timed(f, &items[idx]);
                        results.lock().unwrap_or_else(|p| p.into_inner())[idx] = Some(out);
                    }
                });
            }
        });

        results
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .into_iter()
            .map(|slot| slot.expect("every job index was executed exactly once"))
            .collect()
    }
}

/// Maps `items` through `f` on the globally configured executor (see
/// [`set_global_jobs`] / [`global_jobs`]), results in input order.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Executor::new(global_jobs()).map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    /// Tests that reset the global telemetry serialize on this lock so
    /// they cannot clobber each other's accumulation windows.
    static STATS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_arrive_in_canonical_order_for_every_jobs_count() {
        // Miri executes real threads but ~1000x slower; shrink the sweep.
        let (n, max_jobs) = if cfg!(miri) { (13, 4) } else { (97, 16) };
        let items: Vec<u64> = (0..n).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for jobs in 1..=max_jobs {
            let got = Executor::new(jobs).map(&items, |&x| x * 3 + 1);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        let none: Vec<u32> = Vec::new();
        let out: Vec<u32> = Executor::new(8).map(&none, |&x| x);
        assert!(out.is_empty());
        let one = [41u32];
        assert_eq!(Executor::new(8).map(&one, |&x| x + 1), vec![42]);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spin loops are ~1000x slower under miri; covered by TSan"
    )]
    fn stealing_balances_skewed_job_costs() {
        // One worker's deque gets all the heavy jobs; the others must
        // steal them or this takes ~workers× longer than the busy sum.
        let executed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let got = Executor::new(8).map(&items, |&i| {
            executed.fetch_add(1, Ordering::Relaxed);
            // Skew: multiples of 8 (all dealt to worker 0) spin longest.
            let spin = if i % 8 == 0 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i as u64, acc & 1)
        });
        assert_eq!(executed.load(Ordering::Relaxed), 64);
        for (i, (idx, _)) in got.iter().enumerate() {
            assert_eq!(*idx, i as u64, "slot {i} holds job {idx}");
        }
    }

    #[test]
    fn workers_actually_run_in_parallel() {
        let seen = Mutex::new(HashSet::new());
        let distinct = || seen.lock().unwrap_or_else(|p| p.into_inner()).len();
        // Job 0 (worker 0's first) holds its worker until another worker
        // has taken a job, so one worker cannot drain every queue before
        // the rest start. The wait is bounded, so a serial executor still
        // finishes and then fails the assertion.
        let spins = if cfg!(miri) { 10_000 } else { 10_000_000 };
        let items: Vec<usize> = (0..256).collect();
        let _ = Executor::new(4).map(&items, |&x| {
            seen.lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(std::thread::current().id());
            if x == 0 {
                for _ in 0..spins {
                    if distinct() > 1 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            x
        });
        if default_jobs() > 1 {
            assert!(distinct() > 1, "no parallelism observed");
        }
    }

    #[test]
    fn global_jobs_roundtrip_and_stats_accumulate() {
        let _guard = STATS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let before = stats().tasks;
        set_global_jobs(3);
        assert_eq!(global_jobs(), 3);
        let out = map(&[1u64, 2, 3, 4, 5], |&x| x * x);
        assert_eq!(out, vec![1, 4, 9, 16, 25]);
        let after = stats();
        assert!(after.tasks >= before + 5);
        assert!(after.busy_seconds >= 0.0);
        assert!(after.max_task_seconds <= after.busy_seconds + 1e-9);
        set_global_jobs(1);
        assert_eq!(global_jobs(), 1);
    }

    /// Regression for the torn-snapshot race: with the old three-atomic
    /// telemetry, `reset_stats()` could land *between* a finishing job's
    /// `busy` and `max_task` updates, leaving a snapshot where the
    /// longest task outlasted the entire recorded busy time. Hammer
    /// readers and resetters against a stream of completing jobs and
    /// assert every snapshot is internally consistent.
    #[test]
    fn telemetry_snapshots_are_never_torn() {
        let _guard = STATS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset_stats();
        let rounds = if cfg!(miri) { 4 } else { 200 };
        let items: Vec<u64> = (0..8).collect();
        std::thread::scope(|scope| {
            let work = scope.spawn(|| {
                for _ in 0..rounds {
                    let _ = Executor::new(2).map(&items, |&x| {
                        let mut acc = x;
                        for k in 0..500u64 {
                            acc = acc.wrapping_mul(31).wrapping_add(k);
                        }
                        acc
                    });
                }
            });
            while !work.is_finished() {
                let s = stats();
                assert!(
                    s.max_task_seconds <= s.busy_seconds + 1e-12,
                    "torn snapshot: max_task {} > busy {}",
                    s.max_task_seconds,
                    s.busy_seconds
                );
                if s.tasks == 0 {
                    assert_eq!(s.busy_seconds, 0.0, "tasks reset but busy survived");
                    assert_eq!(s.max_task_seconds, 0.0, "tasks reset but max survived");
                }
                reset_stats();
            }
            work.join().expect("worker panicked");
        });
        reset_stats();
    }
}
