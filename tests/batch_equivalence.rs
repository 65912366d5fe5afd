//! The stream engine must be a pure optimisation: for every scheme
//! family, driving a model through [`BlockStream`]/[`run_fused`] — as a
//! one-lane group or as one member of a whole fleet — must leave
//! *identical* statistics to the per-record `run` — same aggregate
//! counters, same per-set histograms, same hit-location split. The figure
//! runners rely on this equivalence: `SimStore` memoizes results produced
//! by the stream path and serves them to code written against the
//! record-at-a-time semantics.

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

/// One representative per scheme family: conventional direct-mapped,
/// the indexing schemes (Section II), and each programmable-associativity
/// organisation (Section III).
fn model_pairs(geom: CacheGeometry) -> Vec<(Box<dyn FusedLane>, Box<dyn FusedLane>)> {
    let sets = geom.num_sets();
    let fresh: Vec<Box<dyn Fn() -> Box<dyn FusedLane>>> = vec![
        Box::new(move || Box::new(CacheBuilder::new(geom).build().unwrap())),
        Box::new(move || {
            Box::new(
                CacheBuilder::new(geom)
                    .index(Arc::new(XorIndex::new(sets).unwrap()))
                    .build()
                    .unwrap(),
            )
        }),
        Box::new(move || {
            Box::new(
                CacheBuilder::new(geom)
                    .index(Arc::new(OddMultiplierIndex::new(sets, 21).unwrap()))
                    .build()
                    .unwrap(),
            )
        }),
        Box::new(move || {
            Box::new(
                CacheBuilder::new(geom)
                    .index(Arc::new(PrimeModuloIndex::new(sets).unwrap()))
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
    ];
    fresh.iter().map(|mk| (mk(), mk())).collect()
}

/// Drives one model alone over `stream` (a one-lane fused group).
fn run_alone(model: &mut dyn FusedLane, stream: &BlockStream) {
    run_fused(&mut [model], stream);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A one-lane `run_fused` == `run`, record for record, for every
    /// scheme family, across read/write mixes.
    #[test]
    fn run_batch_matches_per_record_run(seed in 0u64..4000) {
        let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let trace = synth::uniform_rw(seed, 4000, 0x1000, 1 << 18, 0.3);
        let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
        for (mut legacy, mut streamed) in model_pairs(geom) {
            for rec in trace.records() {
                legacy.access(*rec);
            }
            run_alone(streamed.as_mut(), &stream);
            prop_assert_eq!(
                legacy.stats(),
                streamed.stats(),
                "stream engine diverged for {}",
                legacy.name()
            );
        }
    }

    /// Same equivalence on a skewed (hot-set-heavy) reference pattern,
    /// which exercises the adaptive schemes' SHT/OUT machinery far more
    /// than a uniform mix does.
    #[test]
    fn run_batch_matches_on_hotspot_traces(seed in 0u64..4000) {
        let geom = CacheGeometry::from_sets(32, 32, 1).unwrap();
        let trace = synth::hotspot(seed, 3000, 0, 128, 1 << 14, 0.8);
        let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
        for (mut legacy, mut streamed) in model_pairs(geom) {
            legacy.run(trace.records());
            run_alone(streamed.as_mut(), &stream);
            prop_assert_eq!(
                legacy.stats(),
                streamed.stats(),
                "stream engine diverged for {}",
                legacy.name()
            );
        }
    }

    /// `run_fused` over the whole fleet (the SimStore driver: one stream,
    /// many models) leaves every model exactly as if it had run alone.
    #[test]
    fn run_batch_many_is_isolation_preserving(seed in 0u64..2000) {
        let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let trace = synth::zipfian(seed, 2500, 0x8000, 1024, 32, 1.1);
        let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
        let pairs = model_pairs(geom);
        let (mut solo, mut fleet): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        for m in &mut solo {
            m.run(trace.records());
        }
        {
            let mut refs: Vec<&mut dyn FusedLane> =
                fleet.iter_mut().map(|m| m.as_mut() as &mut dyn FusedLane).collect();
            run_fused(&mut refs, &stream);
        }
        for (s, f) in solo.iter().zip(&fleet) {
            prop_assert_eq!(s.stats(), f.stats(), "{} diverged in fleet", s.name());
        }
    }

    /// `Cache`'s commit loop == per-record `access` in stats and in final
    /// contents, for every set-store shape it picks per chunk: 1/2/4/8
    /// ways under LRU and FIFO (direct-mapped and N-way `PackedSets`),
    /// Random and TreePlru (per-set `CacheSet`s). The trace ends on a
    /// ragged chunk.
    #[test]
    fn cache_commit_loop_matches_per_record_access_for_every_store_shape(seed in 0u64..4000) {
        let trace = synth::uniform_rw(seed, 2 * FUSE_CHUNK + 459, 0x1000, 1 << 14, 0.3);
        let policies = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
            ReplacementPolicy::TreePlru,
        ];
        for ways in [1u32, 2, 4, 8] {
            let geom = CacheGeometry::from_sets(32, 32, ways).unwrap();
            let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
            for policy in policies {
                let mk = || {
                    CacheBuilder::new(geom)
                        .replacement(policy)
                        .seed(seed)
                        .build()
                        .unwrap()
                };
                let (mut legacy, mut streamed) = (mk(), mk());
                for rec in trace.records() {
                    legacy.access(*rec);
                }
                run_alone(&mut streamed, &stream);
                let shape = format!("{ways}-way {policy:?}");
                prop_assert_eq!(legacy.stats(), streamed.stats(), "{}", shape);
                for rec in trace.records() {
                    let b = geom.block_addr(rec.addr);
                    prop_assert_eq!(
                        legacy.contains_block(b),
                        streamed.contains_block(b),
                        "{} contents diverged at block {}", shape, b
                    );
                }
            }
        }
    }
}
