//! The determinism laws the parallel executor rests on, as properties and
//! stress tests.
//!
//! `xp --jobs N` is byte-identical for every `N` because of three facts,
//! each pinned here:
//!
//! 1. **canonical collection** — [`unicache_exec::Executor::map`] places
//!    results by input index, so its output equals the sequential map for
//!    any worker count and any schedule;
//! 2. **exactly-once simulation** — [`TraceStore`]/[`SimStore`] run each
//!    distinct key's work once no matter how many threads race on it;
//! 3. **order-invariant merges** — [`CacheStats::merge`] and the obs
//!    [`CounterSet`]/[`Histogram`] merges give the same total under any
//!    permutation of the per-job / per-thread contributions, so the fold
//!    order (which *is* scheduling-dependent) can never leak into output.
//!
//! Permutations are derived from proptest-supplied seeds via a
//! Fisher–Yates shuffle over a local xorshift generator — no host
//! randomness, so failures replay exactly.

use proptest::prelude::*;
use std::sync::Arc;
use unicache_core::{CacheStats, HitWhere};
use unicache_experiments::{SchemeId, SimStore, TraceStore};
use unicache_obs::{CounterSet, Event, Histogram};
use unicache_workloads::{Scale, Workload};

/// Deterministic xorshift64* stream for seed-derived shuffles.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A seed-determined permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = XorShift(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

const OUTCOMES: [HitWhere; 4] = [
    HitWhere::Primary,
    HitWhere::Secondary,
    HitWhere::MissDirect,
    HitWhere::MissAfterProbe,
];

/// One job's worth of stats over `sets` sets, driven by an op list.
fn stats_from_ops(sets: usize, ops: &[(usize, usize)]) -> CacheStats {
    let mut st = CacheStats::new(sets);
    for &(set, outcome) in ops {
        st.record(set % sets, OUTCOMES[outcome % OUTCOMES.len()]);
        if outcome % 3 == 0 {
            st.record_eviction(set % sets);
        }
        if outcome % 5 == 0 {
            st.record_write();
            st.record_relocation();
        }
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Folding per-job [`CacheStats`] in any permutation gives the same
    /// aggregate — completion order cannot change a merged figure.
    #[test]
    fn cache_stats_merge_is_order_invariant(
        jobs in proptest::collection::vec(
            proptest::collection::vec((0usize..8, 0usize..20), 0..12),
            1..8,
        ),
        seed in proptest::num::u64::ANY,
    ) {
        let parts: Vec<CacheStats> = jobs.iter().map(|ops| stats_from_ops(8, ops)).collect();
        let fold = |order: &[usize]| {
            let mut acc = CacheStats::new(8);
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let canonical: Vec<usize> = (0..parts.len()).collect();
        let shuffled = permutation(parts.len(), seed);
        prop_assert_eq!(fold(&canonical), fold(&shuffled));
    }

    /// Folding per-thread obs shards in any permutation gives the same
    /// counters and histograms — the shard registry's (scheduling-
    /// dependent) registration order cannot leak into metrics JSON.
    #[test]
    fn obs_shard_folds_are_permutation_invariant(
        shards in proptest::collection::vec(
            proptest::collection::vec((0usize..Event::COUNT, 0u64..1 << 40), 0..10),
            1..10,
        ),
        seed in proptest::num::u64::ANY,
    ) {
        let counters: Vec<CounterSet> = shards
            .iter()
            .map(|adds| {
                let mut c = CounterSet::new();
                for &(i, n) in adds {
                    c.add(Event::ALL[i % Event::COUNT], n);
                }
                c
            })
            .collect();
        let hists: Vec<Histogram> = shards
            .iter()
            .map(|adds| {
                let mut h = Histogram::new();
                for &(_, n) in adds {
                    h.observe(n);
                }
                h
            })
            .collect();
        let order = permutation(shards.len(), seed);
        let fold_c = |ord: &[usize]| {
            ord.iter().fold(CounterSet::new(), |acc, &i| acc.merge(&counters[i]))
        };
        let fold_h = |ord: &[usize]| {
            ord.iter().fold(Histogram::new(), |acc, &i| acc.merge(&hists[i]))
        };
        let canonical: Vec<usize> = (0..shards.len()).collect();
        prop_assert_eq!(fold_c(&canonical), fold_c(&order));
        prop_assert_eq!(fold_h(&canonical), fold_h(&order));
    }

    /// The executor's map equals the sequential map for every worker
    /// count — results are slotted by input index, never completion order.
    #[test]
    fn executor_map_equals_sequential_for_any_job_count(
        items in proptest::collection::vec(0u64..1 << 32, 0..64),
        jobs in 1usize..9,
    ) {
        let f = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(13);
        let sequential: Vec<u64> = items.iter().map(f).collect();
        let parallel = unicache_exec::Executor::new(jobs).map(&items, f);
        prop_assert_eq!(sequential, parallel);
    }
}

/// 8 threads hammer one [`TraceStore`] over per-thread permutations of
/// the same key list: every caller gets the same `Arc`, and each trace
/// generates exactly once.
#[test]
fn trace_store_survives_an_eight_thread_hammer() {
    let store = TraceStore::new(Scale::Tiny);
    let keys = [
        Workload::Crc,
        Workload::Bitcount,
        Workload::Sha,
        Workload::Fft,
        Workload::Qsort,
    ];
    let per_thread: Vec<Vec<Arc<unicache_trace::Trace>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let store = &store;
                s.spawn(move || {
                    permutation(keys.len(), 0xdead_beef + t)
                        .into_iter()
                        .map(|i| store.get(keys[i]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hammer thread"))
            .collect()
    });
    assert_eq!(
        store.cached(),
        keys.len(),
        "each key generated exactly once"
    );
    for got in &per_thread {
        assert_eq!(got.len(), keys.len());
    }
    // Every thread saw the same allocation per key, whatever its order.
    for (t, got) in per_thread.iter().enumerate() {
        let order = permutation(keys.len(), 0xdead_beef + t as u64);
        for (slot, &i) in order.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&got[slot], &store.get(keys[i])),
                "thread {t} slot {slot} returned a duplicate generation"
            );
        }
    }
}

/// 8 threads hammer one [`SimStore`] over per-thread permutations of a
/// (workload, scheme) grid: `sims_run` lands on exactly the number of
/// distinct keys, and every caller observed the same result `Arc`.
#[test]
fn sim_store_simulates_each_key_exactly_once_under_contention() {
    let store = SimStore::new(Scale::Tiny);
    let geom = unicache_core::CacheGeometry::paper_l1();
    let keys: Vec<(Workload, SchemeId)> = [Workload::Crc, Workload::Sha, Workload::Qsort]
        .iter()
        .flat_map(|&w| {
            [SchemeId::Baseline, SchemeId::ColumnAssoc, SchemeId::Skewed]
                .iter()
                .map(move |&s| (w, s))
        })
        .collect();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let store = &store;
            let keys = &keys;
            s.spawn(move || {
                for i in permutation(keys.len(), 0xfeed_f00d + t) {
                    let (w, scheme) = keys[i];
                    let stats = store.stats(w, scheme, geom);
                    assert!(stats.accesses() > 0);
                }
            });
        }
    });
    assert_eq!(
        store.sims_run(),
        keys.len() as u64,
        "contended requests must collapse onto one simulation per key"
    );
    assert_eq!(store.cached_results(), keys.len());
    // A quiesced re-read is all hits and changes nothing.
    let before = store.hits();
    for &(w, scheme) in &keys {
        store.stats(w, scheme, geom);
    }
    assert_eq!(store.sims_run(), keys.len() as u64);
    assert_eq!(store.hits(), before + keys.len() as u64);
}
