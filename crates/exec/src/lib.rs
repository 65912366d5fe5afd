//! # unicache-exec
//!
//! A thread-pool executor for the experiment sweeps, built on
//! `std::thread::scope` — no external dependencies, so the workspace
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
//! Workers take job indices from one shared atomic cursor
//! (`fetch_add`), so each index is handed out exactly once and a worker
//! that finishes a cheap job simply takes the next one. That balances
//! skewed job costs — in `xp all` one workload's trace dwarfs
//! another's — without per-worker queues: the jobs the experiment
//! runners submit are coarse (one whole trace simulation or generation
//! each) and all known up front, so one cursor increment per job is
//! noise. Each worker keeps its `(index, result)` pairs locally; the
//! caller sorts them into slot order after the scope joins.
//!
//! The natural task granularity for simulation is the **fuse-group**:
//! `SimStore::prefetch_groups` submits one job per `(workload,
//! geometry)` group, and the fused kernel simulates every member scheme
//! inside that single job (one traversal, each chunk decoded once and
//! lanes stepped side by side — see DESIGN.md §11). Submitting per
//! *scheme* instead would split a group across workers and forfeit the
//! shared decode: the group mutex would serialize the workers anyway,
//! so finer granularity buys no parallelism — it only adds scheduling
//! traffic.
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

/// A scoped-thread executor with a fixed worker count.
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

        // One shared cursor hands out each job index exactly once. The
        // canonical order lives in the indices, so each worker keeps its
        // `(index, result)` pairs to itself and the caller puts them in
        // slot order once the scope has joined.
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            out.push((i, run_timed(&f, item)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
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

    /// The cursor hands out every index exactly once: per-index run
    /// counters must all read 1, for every worker count, including the
    /// empty and single-item inputs that take the inline path.
    #[test]
    fn every_job_runs_exactly_once_under_contention() {
        // Miri executes real threads but ~1000x slower; shrink the sweep.
        let (n, max_jobs) = if cfg!(miri) { (13, 4) } else { (97, 16) };
        for len in [0, 1, n] {
            let items: Vec<usize> = (0..len).collect();
            for jobs in 1..=max_jobs {
                let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let got = Executor::new(jobs).map(&items, |&i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i
                });
                assert_eq!(got, items, "len={len} jobs={jobs}");
                for (i, r) in runs.iter().enumerate() {
                    let r = r.load(Ordering::Relaxed);
                    assert_eq!(r, 1, "len={len} jobs={jobs}: job {i} ran {r} times");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_propagates_to_the_caller() {
        let items: Vec<usize> = (0..8).collect();
        let _ = Executor::new(4).map(&items, |&i| {
            assert!(i != 5, "job {i} failed");
            i
        });
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
    fn skewed_job_costs_keep_canonical_slots() {
        // Every eighth job spins far longer than the rest, so workers
        // finish out of input order; each result must still land in the
        // slot of its own index.
        let executed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let got = Executor::new(8).map(&items, |&i| {
            executed.fetch_add(1, Ordering::Relaxed);
            // Skew: multiples of 8 spin longest.
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
        // Job 0 holds its worker until another worker has taken a job,
        // so one worker cannot drain the cursor before the rest start. The wait is bounded, so a serial executor still
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
