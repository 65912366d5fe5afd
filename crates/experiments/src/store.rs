//! A memoizing workload-trace store shared across figure runners.
//!
//! Generating 21 instrumented workload traces is the dominant setup cost
//! of `xp all`; the store generates each `(workload, scale)` trace once —
//! in parallel across cores on the `unicache-exec` executor
//! (so `xp --jobs N` governs it) — and hands out shared references
//! afterwards.
//!
//! Exactly-once generation is enforced with a per-workload `OnceLock`
//! cell: the map lock is only held long enough to fetch or insert the
//! cell, and the (expensive) generation runs inside `get_or_init` outside
//! that lock. Two threads racing on the same workload therefore cannot
//! both generate it — one generates, the other blocks on the cell — and
//! racing on *different* workloads never serializes their generation.

use std::sync::{Arc, Mutex, OnceLock};
use unicache_core::hasher::det_map;
use unicache_core::DetHashMap;
use unicache_trace::Trace;
use unicache_workloads::{Scale, Workload};

/// Memoized trace generation.
pub struct TraceStore {
    scale: Scale,
    cells: Mutex<DetHashMap<Workload, Arc<OnceLock<Arc<Trace>>>>>,
}

impl TraceStore {
    /// A store generating at the given scale.
    pub fn new(scale: Scale) -> Self {
        TraceStore {
            scale,
            cells: Mutex::new(det_map()),
        }
    }

    /// The scale this store generates at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The once-cell for `w`, creating it if absent (brief lock).
    fn cell(&self, w: Workload) -> Arc<OnceLock<Arc<Trace>>> {
        let mut guard = self.cells.lock().unwrap();
        Arc::clone(guard.entry(w).or_default())
    }

    /// Returns the (possibly cached) trace of `w`, generating it at most
    /// once across all threads.
    pub fn get(&self, w: Workload) -> Arc<Trace> {
        let cell = self.cell(w);
        Arc::clone(cell.get_or_init(|| {
            let _span = unicache_obs::span("trace-gen");
            Arc::new(w.generate(self.scale))
        }))
    }

    /// Pre-generates a set of workloads in parallel.
    pub fn prefetch(&self, workloads: &[Workload]) {
        let _: Vec<()> = unicache_exec::map(workloads, |&w| {
            self.get(w);
        });
    }

    /// Number of traces currently cached.
    pub fn cached(&self) -> usize {
        let guard = self.cells.lock().unwrap();
        guard.values().filter(|c| c.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_memoizes() {
        let store = TraceStore::new(Scale::Tiny);
        assert_eq!(store.cached(), 0);
        let a = store.get(Workload::Crc);
        assert_eq!(store.cached(), 1);
        let b = store.get(Workload::Crc);
        assert!(Arc::ptr_eq(&a, &b), "second get returns the cached arc");
        assert_eq!(store.scale(), Scale::Tiny);
    }

    #[test]
    fn prefetch_generates_in_parallel_and_is_idempotent() {
        let store = TraceStore::new(Scale::Tiny);
        let set = [Workload::Crc, Workload::Bitcount, Workload::Sha];
        store.prefetch(&set);
        assert_eq!(store.cached(), 3);
        let before = store.get(Workload::Sha);
        store.prefetch(&set);
        assert_eq!(store.cached(), 3);
        assert!(Arc::ptr_eq(&before, &store.get(Workload::Sha)));
    }

    #[test]
    fn prefetched_equals_directly_generated() {
        let store = TraceStore::new(Scale::Tiny);
        store.prefetch(&[Workload::Qsort]);
        let cached = store.get(Workload::Qsort);
        let fresh = Workload::Qsort.generate(Scale::Tiny);
        assert_eq!(*cached, fresh);
    }

    #[test]
    fn concurrent_gets_generate_exactly_once() {
        let store = TraceStore::new(Scale::Tiny);
        let arcs: Vec<Arc<Trace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| store.get(Workload::Fft)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every caller observed the same allocation — nobody generated a
        // duplicate trace and dropped it (the old double-checked-lock bug).
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
        assert_eq!(store.cached(), 1);
    }
}
