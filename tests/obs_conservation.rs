//! Conservation laws tying the `unicache-obs` hot-path counters to the
//! `CacheStats` every model already keeps. The two are maintained by
//! independent code paths (the stats by each model's bookkeeping, the
//! counters by the instrumentation calls), so agreement here means the
//! instrumentation is measuring what it claims to measure — and, because
//! the counter reads are exact equalities, that it is not perturbing or
//! double-counting the hot path.
//!
//! Under `cargo test` the root dev-dependency turns the obs `enabled`
//! feature on, so the counters are live; if this binary is ever built
//! without it, the tests skip rather than fail.
//!
//! The analysis crate runs the same class of invariants over its own LCG
//! stream (`uca check`, counter-conservation group); this suite drives a
//! different trace source (`trace::synth`) through the public facade.

use std::sync::Mutex;
use unicache::assoc::ChainConfig;
use unicache::prelude::*;
use unicache::trace::synth;

/// The global counter sinks are process-wide; serialize every test that
/// resets and reads them. Lock, reset, run, read — all inside the guard.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn geom() -> CacheGeometry {
    CacheGeometry::from_sets(64, 32, 1).unwrap()
}

/// Resets the counters and drives a fresh synthetic trace through the
/// model, returning its final stats. Callers must hold [`OBS_LOCK`].
fn drive(model: &mut dyn CacheModel, seed: u64) -> CacheStats {
    unicache_obs::reset();
    let trace = synth::uniform_rw(seed, 12_000, 0x4000, 1 << 15, 0.25);
    model.run(trace.records());
    model.stats().clone()
}

/// Resets the counters and drives `trace` through the model with its
/// records dealt round-robin to `threads` thread ids, returning the
/// final stats. Callers must hold [`OBS_LOCK`].
fn drive_threads(model: &mut dyn CacheModel, trace: &Trace, threads: u8) -> CacheStats {
    unicache_obs::reset();
    for (rec, tid) in trace.records().iter().zip((0..threads).cycle()) {
        model.access(rec.with_tid(tid));
    }
    model.stats().clone()
}

fn outcome_sum(s: &CacheStats) -> u64 {
    s.primary_hits + s.secondary_hits + s.misses_direct + s.misses_after_probe
}

macro_rules! obs_guard {
    () => {{
        if !unicache_obs::enabled() {
            eprintln!("unicache-obs built without `enabled`; skipping");
            return;
        }
        OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }};
}

#[test]
fn baseline_probes_once_per_access() {
    use unicache_obs::Event;
    let _guard = obs_guard!();
    let mut c = CacheBuilder::new(geom()).build().unwrap();
    let s = drive(&mut c, 101);
    assert_eq!(unicache_obs::counter_value(Event::CacheProbe), s.accesses());
    assert_eq!(outcome_sum(&s), s.accesses());
    assert_eq!(s.accesses(), 12_000);
}

#[test]
fn column_associative_swap_and_reclaim_accounting() {
    use unicache_obs::Event;
    let _guard = obs_guard!();
    let mut c = ColumnAssociativeCache::new(geom()).unwrap();
    let s = drive(&mut c, 202);
    assert_eq!(
        unicache_obs::counter_value(Event::ColumnProbe),
        s.accesses()
    );
    // The alternate set is probed exactly when the first probe misses and
    // the access doesn't end as a direct (rehash-bit) miss.
    assert_eq!(
        unicache_obs::counter_value(Event::ColumnSecondProbe),
        s.secondary_hits + s.misses_after_probe
    );
    // Every secondary hit swaps the pair; every direct miss reclaims a
    // rehashed line; together swaps and displacements are the relocations.
    assert_eq!(
        unicache_obs::counter_value(Event::ColumnSwap),
        s.secondary_hits
    );
    assert_eq!(
        unicache_obs::counter_value(Event::ColumnReclaim),
        s.misses_direct
    );
    assert_eq!(
        unicache_obs::counter_value(Event::ColumnSwap)
            + unicache_obs::counter_value(Event::ColumnDisplace),
        s.relocations
    );
}

#[test]
fn bcache_walk_histogram_totals_accesses() {
    use unicache_obs::{Event, HistEvent, BUCKETS};
    let _guard = obs_guard!();
    let mut c = BCache::new(geom()).unwrap();
    let s = drive(&mut c, 303);
    assert_eq!(
        unicache_obs::counter_value(Event::BcacheProbe),
        s.accesses()
    );
    // One walk-length sample per access, and the decoder reprograms on
    // exactly the misses.
    let walk_total: u64 = (0..BUCKETS)
        .map(|i| unicache_obs::hist_bucket(HistEvent::BcacheWalk, i))
        .sum();
    assert_eq!(walk_total, s.accesses());
    assert_eq!(
        unicache_obs::counter_value(Event::BcacheDecoderReprogram),
        s.misses()
    );
    assert!(unicache_obs::counter_value(Event::BcacheLineCompare) >= s.accesses());
}

/// The adaptive engine's counters after a run: probes, OUT hits, SHT
/// hits, relocations, and the host-search histogram's total.
fn adaptive_counters() -> [u64; 5] {
    use unicache_obs::{Event, HistEvent, BUCKETS};
    [
        unicache_obs::counter_value(Event::AdaptiveProbe),
        unicache_obs::counter_value(Event::AdaptiveOutHit),
        unicache_obs::counter_value(Event::AdaptiveShtHit),
        unicache_obs::counter_value(Event::AdaptiveRelocation),
        (0..BUCKETS)
            .map(|i| unicache_obs::hist_bucket(HistEvent::AdaptiveRelocSearch, i))
            .sum(),
    ]
}

/// Per record, the adaptive counters agree with the stats; chunked (the
/// solo cache under `run_fused`, the partitioned cache under
/// `run_interleaved`, each with a ragged last chunk), every counter
/// equals its per-record value.
#[test]
fn adaptive_directory_accounting() {
    let _guard = obs_guard!();
    let n = 12_000 + 4 * 111;
    for (seed, threads) in [(404u64, 1u8), (405, 4)] {
        let trace = synth::uniform_rw(seed, n, 0x4000, 1 << 15, 0.25);
        let solo = || AdaptiveGroupCache::new(geom()).unwrap();
        let partitioned = || AdaptivePartitionedCache::new(geom(), usize::from(threads)).unwrap();
        let mut c: Box<dyn CacheModel> = if threads == 1 {
            Box::new(solo())
        } else {
            Box::new(partitioned())
        };
        let s = drive_threads(&mut *c, &trace, threads);
        let [probes, out_hits, sht_hits, relocations, searches] = adaptive_counters();
        assert_eq!(probes, s.accesses());
        // OUT-directory hits are the secondary hits; SHT lookups that
        // still miss are the probed misses; relocation events match the
        // stats.
        assert_eq!(out_hits, s.secondary_hits);
        assert_eq!(sht_hits, s.misses_after_probe);
        assert_eq!(relocations, s.relocations);
        // A relocation is a swap-back (one per secondary hit) or a spill,
        // and each spill records its host search distance once.
        assert_eq!(searches, s.relocations - s.secondary_hits, "{}", c.name());
        assert!(searches > 0, "{}: stream never spilled", c.name());

        unicache_obs::reset();
        let chunked_stats = if threads == 1 {
            let mut fused = solo();
            let stream = BlockStream::from_records(trace.records(), geom().line_bytes());
            run_fused(&mut [&mut fused as &mut dyn FusedLane], &stream);
            fused.stats().clone()
        } else {
            // Thread t issues records t, t + threads, ...: the round-robin
            // merge replays the per-record order above.
            let per_thread: Vec<Trace> = (0..threads)
                .map(|t| {
                    let mine = trace.records().iter().skip(usize::from(t));
                    mine.step_by(usize::from(threads)).copied().collect()
                })
                .collect();
            let refs: Vec<&Trace> = per_thread.iter().collect();
            let mut lane = partitioned();
            run_interleaved(&refs, InterleavePolicy::RoundRobin, &mut [&mut lane]);
            lane.stats().clone()
        };
        assert_eq!(chunked_stats, s, "{}: chunked stats", c.name());
        assert_eq!(
            adaptive_counters(),
            [probes, out_hits, sht_hits, relocations, searches],
            "{}: chunked counters",
            c.name()
        );
    }
}

#[test]
fn partner_epoch_accounting() {
    use unicache_obs::{Event, HistEvent, BUCKETS};
    let _guard = obs_guard!();
    let chain = |chain_len| ChainConfig {
        epoch: 1024,
        max_chains: 16,
        chain_len,
    };
    // Synthetic traffic at one and three links per chain, then the
    // partner-index cache (epoch 8192) on tiny susan.
    let cases = [
        (
            chain(1),
            PartnerChainCache::with_config(geom(), chain(1)),
            None,
        ),
        (
            chain(3),
            PartnerChainCache::with_config(geom(), chain(3)),
            None,
        ),
        (
            ChainConfig {
                epoch: 8192,
                max_chains: 64,
                chain_len: 1,
            },
            PartnerIndexCache::new(CacheGeometry::paper_l1()),
            Some(Workload::Susan.generate(Scale::Tiny)),
        ),
    ];
    for (cfg, c, trace) in cases {
        let mut c = c.unwrap();
        let s = match &trace {
            None => drive(&mut c, 505),
            Some(t) => {
                unicache_obs::reset();
                c.run(t.records());
                c.stats().clone()
            }
        };
        let name = c.name().to_string();
        assert_eq!(
            unicache_obs::counter_value(Event::PartnerProbe),
            s.accesses(),
            "{name}"
        );
        assert_eq!(
            unicache_obs::counter_value(Event::PartnerSecondProbe),
            s.secondary_hits + s.misses_after_probe,
            "{name}"
        );
        // Every relocation is a promotion (secondary hit) or a lend; a
        // probed miss into an empty primary lends nothing.
        let lend = unicache_obs::counter_value(Event::PartnerLend);
        assert!(lend <= s.misses_after_probe, "{name}");
        assert_eq!(s.secondary_hits + lend, s.relocations, "{name}");
        // Re-chaining fires once per completed epoch, no more, no less,
        // and records one chain-count sample each time.
        let rechains = s.accesses() / cfg.epoch;
        assert_eq!(
            unicache_obs::counter_value(Event::PartnerRepartner),
            rechains,
            "{name}"
        );
        let samples: u64 = (0..BUCKETS)
            .map(|i| unicache_obs::hist_bucket(HistEvent::PartnerEpochPairs, i))
            .sum();
        assert_eq!(samples, rechains, "{name}");
        assert!(
            unicache_obs::counter_value(Event::PartnerPairFormed) > 0,
            "{name}: no chain formed"
        );
        assert!(s.secondary_hits > 0, "{name}: no chain hit");
        if trace.is_some() {
            // Pinned: the totals the former standalone partner-index
            // engine produced on this trace.
            assert_eq!(
                (s.misses(), s.secondary_hits, s.relocations, s.evictions),
                (2045, 4036, 4227, 1824),
                "{name}"
            );
        }
    }
}

#[test]
fn skewed_probes_once_per_access() {
    use unicache_obs::Event;
    let _guard = obs_guard!();
    let mut c = SkewedCache::new(geom()).unwrap();
    let s = drive(&mut c, 606);
    assert_eq!(
        unicache_obs::counter_value(Event::SkewedProbe),
        s.accesses()
    );
    assert_eq!(outcome_sum(&s), s.accesses());
}

#[test]
fn reset_zeroes_every_counter() {
    use unicache_obs::Event;
    let _guard = obs_guard!();
    let mut c = CacheBuilder::new(geom()).build().unwrap();
    drive(&mut c, 707);
    assert!(unicache_obs::counter_value(Event::CacheProbe) > 0);
    unicache_obs::reset();
    for e in Event::ALL {
        assert_eq!(
            unicache_obs::counter_value(e),
            0,
            "{} survived reset",
            e.name()
        );
    }
    let snap = unicache_obs::snapshot();
    assert!(snap.counters.iter().all(|&(_, v)| v == 0));
    // Each histogram keeps its name in the snapshot (stable JSON shape)
    // but loses every bucket.
    assert!(snap
        .histograms
        .iter()
        .all(|(_, buckets)| buckets.is_empty()));
}

/// `Cache`'s commit loop (DESIGN §12) counts one
/// `count_by(CacheProbe, chunk_len)` per chunk; it must attribute exactly
/// as the per-record path's per-access `count(CacheProbe)` does, with the
/// same `CacheStats`, for every store shape the loop picks: direct-mapped
/// and 4-way `PackedSets` and per-set Random `CacheSet`s. A chunk loop
/// that drops or double-counts a probe, or a chunk total, fails here.
#[test]
fn fused_commit_attributes_counters_like_per_record_replay() {
    use unicache_obs::Event;
    let _guard = obs_guard!();
    // 12_003 records: the last chunk is ragged.
    let trace = synth::hotspot(77, 12_003, 0, 128, 1 << 14, 0.75);
    let shapes = [
        (1, ReplacementPolicy::Lru),
        (4, ReplacementPolicy::Lru),
        (4, ReplacementPolicy::Random),
    ];
    for (ways, policy) in shapes {
        let g = CacheGeometry::from_sets(64, 32, ways).unwrap();
        let mk = || CacheBuilder::new(g).replacement(policy).build().unwrap();
        unicache_obs::reset();
        let mut per_record = mk();
        per_record.run(trace.records());
        let probes_per_record = unicache_obs::counter_value(Event::CacheProbe);
        unicache_obs::reset();
        let mut fused = mk();
        let stream = BlockStream::from_records(trace.records(), g.line_bytes());
        run_fused(&mut [&mut fused as &mut dyn FusedLane], &stream);
        let probes_fused = unicache_obs::counter_value(Event::CacheProbe);
        let s = fused.stats();
        assert_eq!(
            s,
            per_record.stats(),
            "{ways}-way {policy:?}: stats diverged"
        );
        assert_eq!(
            probes_fused,
            s.accesses(),
            "{ways}-way {policy:?}: fused probes"
        );
        assert_eq!(probes_per_record, s.accesses(), "{ways}-way {policy:?}");
        assert_eq!(s.accesses(), 12_003);
        assert_eq!(outcome_sum(s), s.accesses());
    }
}

/// One `xp coherent` render on a fresh store runs its six (cores,
/// victim depth) groups once each: one `coh.fused_pass` per group, and
/// one `coh.group_lanes` sample of 3 per group, its three schemes'
/// hierarchies — 18 in all, each replaying the whole mix stream once.
#[test]
fn coherent_render_counts_one_pass_per_group() {
    use unicache::experiments::figures::coherent::{coherent, coherent_mix};
    use unicache_obs::{Event, HistEvent, BUCKETS};
    let _guard = obs_guard!();
    unicache_obs::reset();
    let store = SimStore::new(Scale::Tiny);
    coherent(&store);
    assert_eq!(unicache_obs::counter_value(Event::CohFusedPass), 6);
    let lanes: Vec<u64> = (0..BUCKETS)
        .map(|i| unicache_obs::hist_bucket(HistEvent::CohGroupLanes, i))
        .collect();
    let three = unicache_obs::bucket_index(3);
    assert_eq!(lanes[three], 6, "six samples in 3's bucket: {lanes:?}");
    assert_eq!(lanes.iter().sum::<u64>(), 6, "{lanes:?}");
    let stream = store.coherent_stream(&coherent_mix(), InterleavePolicy::RoundRobin, 32);
    assert_eq!(store.records_simulated(), 18 * stream.len() as u64);
}
