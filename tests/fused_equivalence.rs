//! The fused kernel must be a pure optimisation: driving any group of
//! lanes through [`run_fused`] (decode each chunk once, step every lane
//! over it) must leave *identical* statistics to running each scheme
//! alone through the per-record `run` — same aggregate counters, same
//! per-set histograms, same hit-location split — for every registered
//! indexing scheme, every fusable associativity scheme, both reference
//! geometries, read/write and hotspot mixes, and any permutation of the
//! lane order. `SimStore` relies on this equivalence: fuse-groups are
//! its unit of scheduling, and the figures it feeds are read by code
//! written against the record-at-a-time semantics. The SMT caches of
//! Figs. 13/14 are held to the same bar: stepping tagged chunks through
//! [`run_interleaved`] must equal per-record `access` over the merge.

use proptest::prelude::*;
use std::sync::Arc;
use unicache::assoc::ChainConfig;
use unicache::prelude::*;
use unicache::trace::synth;

/// Partner chains that re-chain within these short traces, at one link
/// (the partner-index cache) and at three.
fn partner_chain(geom: CacheGeometry, chain_len: usize) -> PartnerChainCache {
    let cfg = ChainConfig {
        epoch: 256,
        max_chains: 16,
        chain_len,
    };
    PartnerChainCache::with_config(geom, cfg).unwrap()
}

/// Builders for one fused/solo pair per fusable scheme family (the
/// associativity organisations plus a conventional cache under each
/// supplied index function).
fn lane_builders(geom: CacheGeometry) -> Vec<Box<dyn Fn() -> Box<dyn FusedLane>>> {
    let sets = geom.num_sets();
    vec![
        Box::new(move || Box::new(CacheBuilder::new(geom).build().unwrap())),
        Box::new(move || {
            Box::new(
                CacheBuilder::new(geom)
                    .index(Arc::new(XorIndex::new(sets).unwrap()))
                    .build()
                    .unwrap(),
            )
        }),
        Box::new(move || Box::new(ColumnAssociativeCache::new(geom).unwrap())),
        Box::new(move || Box::new(AdaptiveGroupCache::new(geom).unwrap())),
        Box::new(move || Box::new(BCache::new(geom).unwrap())),
        Box::new(move || Box::new(partner_chain(geom, 1))),
        Box::new(move || Box::new(partner_chain(geom, 3))),
        Box::new(move || Box::new(SkewedCache::new(geom).unwrap())),
        Box::new(move || Box::new(VictimCache::new(CacheBuilder::new(geom), 8).unwrap())),
    ]
}

/// Drives `lanes` through one fused pass.
fn fuse(lanes: &mut [Box<dyn FusedLane>], stream: &BlockStream) {
    let mut refs: Vec<&mut dyn FusedLane> = lanes
        .iter_mut()
        .map(|l| l.as_mut() as &mut dyn FusedLane)
        .collect();
    run_fused(&mut refs, stream);
}

/// Builders for every SMT cache of Figs. 13/14 at `threads` threads:
/// static partitions, per-thread indexing (all conventional, and the
/// Fig. 13 per-thread odd multipliers) and the adaptive partitioned
/// cache.
fn tagged_builders(
    geom: CacheGeometry,
    threads: usize,
) -> Vec<Box<dyn Fn() -> Box<dyn TaggedLane>>> {
    let sets = geom.num_sets();
    vec![
        Box::new(move || Box::new(PartitionedCache::new(geom, threads).unwrap())),
        Box::new(move || {
            let fns = (0..threads)
                .map(|_| Arc::new(ModuloIndex::new(sets).unwrap()) as Arc<dyn IndexFunction>)
                .collect();
            Box::new(PerThreadIndexCache::new(geom, fns).unwrap())
        }),
        Box::new(move || {
            let fns = (0..threads)
                .map(|t| {
                    let m = [9, 21, 31, 61][t % 4];
                    Arc::new(OddMultiplierIndex::new(sets, m).unwrap()) as Arc<dyn IndexFunction>
                })
                .collect();
            Box::new(PerThreadIndexCache::new(geom, fns).unwrap())
        }),
        Box::new(move || Box::new(AdaptivePartitionedCache::new(geom, threads).unwrap())),
    ]
}

/// Records replayed per record on both sides after a chunked run:
/// hot and uniform traffic from every thread id up to one past the
/// caches' thread count, overlapping the chunked mix's addresses.
fn tagged_suffix(seed: u64, threads: usize) -> Vec<MemRecord> {
    let hot = synth::hotspot(seed ^ 0x5eed, SUFFIX / 2, 0, 64, 1 << 13, 0.8);
    let wide = synth::uniform_rw(seed ^ 0xfeed, SUFFIX / 2, 0x1000, 1 << 14, 0.3);
    hot.records()
        .iter()
        .chain(wide.records())
        .zip((0..=threads as u8).cycle())
        .map(|(r, tid)| r.with_tid(tid))
        .collect()
}

/// Length of the per-record suffix replayed after a chunked run.
const SUFFIX: usize = 2048;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tagged chunk steps == per-record `access` over the merged mix for
    /// every SMT cache, at 1, 2 and 4 threads, under round-robin and
    /// stochastic interleaving. Thread lengths are ragged, so the last
    /// chunk is partial, and one extra thread beyond the caches' thread
    /// count exercises the tid clamp (index and partition of the last
    /// thread, tag of its own). Both sides then replay one shared suffix
    /// per record, so a line, SHT order or OUT entry that diverged
    /// without moving a counter still shows in the stats.
    #[test]
    fn tagged_chunk_step_matches_per_record_access(seed in 0u64..4000) {
        for geom in [
            CacheGeometry::from_sets(64, 32, 1).unwrap(),
            CacheGeometry::paper_l1(),
        ] {
            for threads in [1usize, 2, 4] {
                let traces: Vec<Trace> = (0..=threads as u64)
                    .map(|t| {
                        let n = 1000 + 37 * t as usize;
                        if t % 2 == 0 {
                            synth::uniform_rw(seed + t, n, 0x1000 * t, 1 << 14, 0.3)
                        } else {
                            synth::hotspot(seed + t, n, 0x40 * t, 64, 1 << 13, 0.8)
                        }
                    })
                    .collect();
                let refs: Vec<&Trace> = traces.iter().collect();
                for policy in [
                    InterleavePolicy::RoundRobin,
                    InterleavePolicy::Stochastic { seed },
                ] {
                    let merged = unicache::smt::interleave_refs(&refs, policy);
                    let builders = tagged_builders(geom, threads);
                    let mut chunked: Vec<Box<dyn TaggedLane>> =
                        builders.iter().map(|mk| mk()).collect();
                    let n = run_interleaved(&refs, policy, geom.line_bytes(), |b, w, t| {
                        for lane in &mut chunked {
                            lane.step_tagged(b, w, t);
                        }
                    });
                    prop_assert_eq!(n, merged.len());
                    prop_assert!(!n.is_multiple_of(FUSE_CHUNK), "last chunk must be ragged");
                    let suffix = tagged_suffix(seed, threads);
                    for (mk, lane) in builders.iter().zip(&mut chunked) {
                        let mut solo = mk();
                        for &r in merged.records() {
                            solo.access(r);
                        }
                        prop_assert_eq!(
                            solo.stats(),
                            lane.stats(),
                            "{} diverged under chunking ({} threads, {:?})",
                            lane.name(),
                            threads,
                            policy
                        );
                        for &r in &suffix {
                            solo.access(r);
                            lane.access(r);
                        }
                        prop_assert_eq!(
                            solo.stats(),
                            lane.stats(),
                            "{} left different state after chunking ({} threads, {:?})",
                            lane.name(),
                            threads,
                            policy
                        );
                    }
                }
            }
        }
    }

    /// Fused == solo for every registered indexing scheme
    /// (`IndexScheme::all()`), on both reference geometries. The whole
    /// registry rides one fused pass per geometry, exactly as a SimStore
    /// fuse-group would schedule it.
    #[test]
    fn fused_matches_solo_for_every_index_scheme(seed in 0u64..4000) {
        for geom in [
            CacheGeometry::from_sets(64, 32, 1).unwrap(),
            CacheGeometry::paper_l1(),
        ] {
            let trace = synth::uniform_rw(seed, 4000, 0x1000, 1 << 18, 0.3);
            let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
            let training = trace.unique_blocks(geom.line_bytes());
            let schemes = IndexScheme::all();
            let mut fused: Vec<Box<dyn FusedLane>> = schemes
                .iter()
                .map(|s| {
                    Box::new(
                        CacheBuilder::new(geom)
                            .index(s.build(geom, Some(&training)).unwrap())
                            .build()
                            .unwrap(),
                    ) as Box<dyn FusedLane>
                })
                .collect();
            fuse(&mut fused, &stream);
            for (scheme, lane) in schemes.iter().zip(&fused) {
                let mut solo = CacheBuilder::new(geom)
                    .index(scheme.build(geom, Some(&training)).unwrap())
                    .build()
                    .unwrap();
                solo.run(trace.records());
                prop_assert_eq!(
                    solo.stats(),
                    lane.stats(),
                    "{} diverged under fusion at {} sets",
                    scheme.label(),
                    geom.num_sets()
                );
            }
        }
    }

    /// Fused == solo for every fusable associativity scheme, on a
    /// uniform read/write mix and on a hotspot-heavy mix that exercises
    /// the relocation machinery (SHT/OUT state, rehash bits, partner
    /// links, decoder reprogramming).
    #[test]
    fn fused_matches_solo_for_every_assoc_scheme(seed in 0u64..4000) {
        for geom in [
            CacheGeometry::from_sets(64, 32, 1).unwrap(),
            CacheGeometry::paper_l1(),
        ] {
            for trace in [
                synth::uniform_rw(seed, 4000, 0x1000, 1 << 18, 0.3),
                synth::hotspot(seed, 3000, 0, 128, 1 << 14, 0.8),
            ] {
                let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
                let builders = lane_builders(geom);
                let mut fused: Vec<Box<dyn FusedLane>> =
                    builders.iter().map(|mk| mk()).collect();
                fuse(&mut fused, &stream);
                for (mk, lane) in builders.iter().zip(&fused) {
                    let mut solo = mk();
                    solo.run(trace.records());
                    prop_assert_eq!(
                        solo.stats(),
                        lane.stats(),
                        "{} diverged under fusion at {} sets",
                        lane.name(),
                        geom.num_sets()
                    );
                }
            }
        }
    }

    /// Lane order inside a fuse-group is irrelevant: every rotation of
    /// the group leaves every member with identical statistics (the
    /// fused traversal gives lanes no way to observe each other).
    #[test]
    fn fuse_group_is_permutation_invariant(seed in 0u64..2000, rot in 1usize..8) {
        let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let trace = synth::zipfian(seed, 2500, 0x8000, 1024, 32, 1.1);
        let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
        let builders = lane_builders(geom);
        let n = builders.len();
        let mut forward: Vec<Box<dyn FusedLane>> = builders.iter().map(|mk| mk()).collect();
        fuse(&mut forward, &stream);
        let mut rotated: Vec<Box<dyn FusedLane>> =
            (0..n).map(|i| builders[(i + rot) % n]()).collect();
        fuse(&mut rotated, &stream);
        for i in 0..n {
            prop_assert_eq!(
                forward[(i + rot) % n].stats(),
                rotated[i].stats(),
                "{} depends on its position in the group",
                rotated[i].name()
            );
        }
    }
}

/// The solo adaptive cache under `run_fused` == per-record `access`, at
/// the paper geometry and a small one, over traces whose last chunk is
/// ragged; then both replay one shared suffix per record and must still
/// agree, so diverged lines, SHT order or OUT entries fail too.
#[test]
fn adaptive_fused_chunks_leave_the_per_record_state() {
    for geom in [
        CacheGeometry::from_sets(64, 32, 1).unwrap(),
        CacheGeometry::paper_l1(),
    ] {
        // Hot and uniform traffic over several times the cache, so the
        // hot sets' victims relocate; read-only and read/write.
        let make = |seed: u64, n: usize| {
            if seed.is_multiple_of(2) {
                synth::hotspot(seed, n, 0, 1 << 12, 1 << 18, 0.8)
            } else {
                synth::uniform_rw(seed, n, 0x1000, 1 << 17, 0.3)
            }
        };
        for seed in 0..4u64 {
            let trace = make(seed, 2 * FUSE_CHUNK + 333 + seed as usize);
            let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
            let mut fused = AdaptiveGroupCache::new(geom).unwrap();
            run_fused(&mut [&mut fused], &stream);
            let mut solo = AdaptiveGroupCache::new(geom).unwrap();
            solo.run(trace.records());
            assert_eq!(solo.stats(), fused.stats(), "chunked run, seed {seed}");
            assert!(solo.stats().relocations > 0, "seed {seed} never relocated");
            for &r in make(seed + 2, SUFFIX).records() {
                solo.access(r);
                fused.access(r);
            }
            assert_eq!(
                solo.stats(),
                fused.stats(),
                "suffix after chunking, seed {seed}"
            );
        }
    }
}
