//! `unicache-obs`: deterministic observability for the unicache
//! simulators.
//!
//! Three primitives, all with fixed, closed registries declared in
//! [`event`]:
//!
//! * **Counters** — one [`u64`] per [`Event`], bumped with relaxed
//!   atomics in a **per-thread shard** (registered on a thread's first
//!   recording call, drained into a global accumulator when the thread
//!   exits; see `shard`). Reads fold every shard with the commutative
//!   [`CounterSet::merge`]. Because the simulation layer memoizes each
//!   (workload, scheme, geometry) run to execute exactly once, and the
//!   shard merge commutes, the final totals are deterministic however
//!   the parallel executor spreads the simulations across workers.
//! * **Histograms** — power-of-two buckets per [`HistEvent`] for
//!   distributions (cluster-walk lengths, relocation search distances).
//! * **Spans** — logical-tick phase brackets recorded by RAII guards
//!   from [`span()`]. Per-name *counts* are deterministic; tick values and
//!   thread lanes are scheduling-dependent and therefore only appear in
//!   the Chrome trace export, never in metrics JSON.
//!
//! # Feature gating
//!
//! The whole recording layer sits behind the **`enabled`** cargo feature
//! (off by default). The public API is always present; without the
//! feature every recording function is an empty `#[inline(always)]`
//! stub and [`snapshot()`] returns an empty [`Snapshot`], so instrumented
//! hot paths compile to exactly the uninstrumented code in release
//! benchmark builds. No wall-clock types are used anywhere: the
//! workspace determinism lint (`uca lint`) confines `Instant` /
//! `SystemTime` to `crates/timing`, and this crate keeps to logical
//! ticks.

pub mod counter;
pub mod event;
pub mod hist;
#[cfg(feature = "enabled")]
mod shard;
pub mod snapshot;
pub mod span;

pub use counter::CounterSet;
pub use event::{Event, HistEvent};
pub use hist::{bucket_bounds, bucket_index, Histogram, BUCKETS};
pub use snapshot::{HistBucket, Snapshot};
pub use span::{SpanEvent, SpanLog};

/// True when the `enabled` feature compiled the recording layer in.
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod global {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// The global logical clock: advances once per span open/close.
    static TICK: AtomicU64 = AtomicU64::new(0);
    static SPANS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);

    std::thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to the calling thread's counter shard for `e`.
    #[inline(always)]
    pub fn count_by(e: Event, n: u64) {
        crate::shard::add(e, n);
    }

    /// Current value of the counter for `e`, folded across every shard.
    pub fn counter_value(e: Event) -> u64 {
        crate::shard::merged_counters().get(e)
    }

    /// Records one histogram sample in the calling thread's shard.
    #[inline(always)]
    pub fn observe(h: HistEvent, v: u64) {
        crate::shard::observe(h, v);
    }

    /// Current count in bucket `i` of series `h`, folded across every
    /// shard.
    pub fn hist_bucket(h: HistEvent, i: usize) -> u64 {
        crate::shard::merged_hist(h).count(i)
    }

    /// Number of live (registered, not yet drained) per-thread counter
    /// shards — lets tests observe registration/drain.
    pub fn live_shards() -> usize {
        crate::shard::live_shards()
    }

    /// An open span; records a [`SpanEvent`] when dropped.
    pub struct SpanGuard {
        name: &'static str,
        begin: u64,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            // Allowed Relaxed fetch: span ticks feed only the Chrome
            // trace diagnostic, which is documented as scheduling-dependent
            // and never compared byte-for-byte.
            let end = TICK.fetch_add(1, Ordering::Relaxed) + 1; // uca:allow(relaxed-output)
            let tid = TID.with(|t| *t);
            // Poison-safe: a panicking recorder loses its span rather
            // than cascading the panic through every later drop.
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(SpanEvent {
                    name: self.name,
                    begin: self.begin,
                    end,
                    tid,
                });
            }
        }
    }

    /// Opens a span closed when the returned guard drops.
    pub fn span(name: &'static str) -> SpanGuard {
        // Allowed Relaxed fetch: see `SpanGuard::drop` — trace ticks are a
        // diagnostic stream, not program output.
        let begin = TICK.fetch_add(1, Ordering::Relaxed) + 1; // uca:allow(relaxed-output)
        SpanGuard { name, begin }
    }

    /// Zeroes every counter shard, histogram shard and recorded span
    /// (test isolation).
    pub fn reset() {
        crate::shard::reset();
        TICK.store(0, Ordering::Relaxed);
        if let Ok(mut spans) = SPANS.lock() {
            spans.clear();
        }
    }

    /// Captures all sinks into a [`Snapshot`], folding the per-thread
    /// shards with the commutative counter/histogram merges.
    pub fn snapshot() -> Snapshot {
        let merged = crate::shard::merged_counters();
        let mut counters: Vec<(&'static str, u64)> = Event::ALL
            .iter()
            .map(|&e| (e.name(), merged.get(e)))
            .collect();
        counters.sort_by_key(|(name, _)| *name);

        let raw: Vec<(&'static str, [u64; BUCKETS])> = HistEvent::ALL
            .iter()
            .map(|&h| (h.name(), *crate::shard::merged_hist(h).buckets()))
            .collect();
        let histograms = Snapshot::hist_section(raw);

        let span_events: Vec<SpanEvent> = match SPANS.lock() {
            Ok(spans) => spans.clone(),
            Err(_) => Vec::new(),
        };
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in &span_events {
            *by_name.entry(ev.name).or_insert(0) += 1;
        }
        let spans = by_name
            .into_iter()
            .map(|(name, count)| (name.to_string(), count))
            .collect();

        Snapshot {
            enabled: true,
            counters,
            histograms,
            spans,
            span_events,
        }
    }
}

#[cfg(feature = "enabled")]
pub use global::{
    count_by, counter_value, hist_bucket, live_shards, observe, reset, snapshot, span, SpanGuard,
};

/// Adds `n` to the counter for `e` (no-op: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn count_by(_e: Event, _n: u64) {}

/// Current value of the counter for `e` (always 0: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn counter_value(_e: Event) -> u64 {
    0
}

/// Records one histogram sample (no-op: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn observe(_h: HistEvent, _v: u64) {}

/// Current count in bucket `i` of series `h` (always 0: `enabled`
/// feature off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn hist_bucket(_h: HistEvent, _i: usize) -> u64 {
    0
}

/// An open span (inert: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
pub struct SpanGuard;

/// Opens a span (no-op: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard
}

/// Number of live per-thread counter shards (always 0: `enabled` feature
/// off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn live_shards() -> usize {
    0
}

/// Zeroes every sink (no-op: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn reset() {}

/// Captures all sinks (always empty: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
pub fn snapshot() -> Snapshot {
    Snapshot::empty(false)
}

/// Bumps the counter for `e` by one.
#[inline(always)]
pub fn count(e: Event) {
    count_by(e, 1);
}

#[cfg(all(test, feature = "enabled"))]
mod global_tests {
    use super::*;
    use std::sync::Mutex;

    /// The sinks are process-global; serialize tests that touch them.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `body` under [`GLOBAL_LOCK`] on a fresh thread and joins it
    /// before releasing the lock. A test thread drains its shard only as
    /// it exits, after its test returns; the join makes that drain land
    /// inside the critical section rather than in the next test's.
    fn with_global_sinks(body: impl FnOnce() + Send) {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        std::thread::scope(|s| s.spawn(body).join())
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
    }

    #[test]
    fn count_observe_snapshot_reset_roundtrip() {
        with_global_sinks(|| {
            reset();
            count(Event::ColumnProbe);
            count_by(Event::ColumnProbe, 4);
            observe(HistEvent::BcacheWalk, 3);
            {
                let _s = span("phase-a");
            }
            let snap = snapshot();
            assert!(snap.enabled);
            assert_eq!(counter_value(Event::ColumnProbe), 5);
            assert!(snap.counters.contains(&("column.probe", 5)));
            assert_eq!(snap.counters.len(), Event::COUNT, "all events present");
            let (_, walk) = snap
                .histograms
                .iter()
                .find(|(n, _)| *n == "bcache.walk")
                .expect("walk series present");
            assert_eq!(
                walk,
                &vec![HistBucket {
                    lo: 2,
                    hi: 3,
                    count: 1
                }]
            );
            assert_eq!(snap.spans, vec![("phase-a".to_string(), 1)]);
            assert_eq!(snap.span_events.len(), 1);
            assert!(snap.span_events[0].begin < snap.span_events[0].end);
            reset();
            let snap = snapshot();
            assert!(snap.counters.iter().all(|&(_, v)| v == 0));
            assert!(snap.histograms.iter().all(|(_, b)| b.is_empty()));
            assert!(snap.spans.is_empty());
        });
    }

    #[test]
    fn shards_register_drain_and_merge_across_threads() {
        with_global_sinks(|| {
            reset();
            count_by(Event::ColumnProbe, 1); // registers this thread's shard
            let live_before = live_shards();
            // Joining each handle waits for the thread to exit, and so for
            // its shard to drain; the scope's implicit wait only waits for
            // the closures to return.
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            count_by(Event::ColumnProbe, 10);
                            observe(HistEvent::BcacheWalk, 5);
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().expect("worker panicked");
                }
            });
            // The four worker shards drained on exit; their totals survive.
            assert_eq!(live_shards(), live_before, "worker shards drained");
            assert_eq!(counter_value(Event::ColumnProbe), 41);
            let snap = snapshot();
            assert!(snap.counters.contains(&("column.probe", 41)));
            let (_, walk) = snap
                .histograms
                .iter()
                .find(|(n, _)| *n == "bcache.walk")
                .expect("walk series present");
            assert_eq!(walk.iter().map(|b| b.count).sum::<u64>(), 4);
            reset();
            assert_eq!(counter_value(Event::ColumnProbe), 0);
        });
    }

    #[test]
    fn nested_spans_record_laminar_ticks() {
        with_global_sinks(|| {
            reset();
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            let snap = snapshot();
            let inner = snap.span_events.iter().find(|e| e.name == "inner").unwrap();
            let outer = snap.span_events.iter().find(|e| e.name == "outer").unwrap();
            assert!(outer.begin < inner.begin && inner.end < outer.end);
            reset();
        });
    }
}
