//! Cross-model invariants: every cache organisation in the workspace must
//! agree on conservation laws and ordering relations, whatever the trace.

use proptest::prelude::*;
use std::sync::Arc;
use unicache::assoc::ChainConfig;
use unicache::prelude::*;
use unicache::sim::belady;
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

fn all_models(geom: CacheGeometry) -> Vec<Box<dyn CacheModel>> {
    let sets = geom.num_sets();
    vec![
        Box::new(CacheBuilder::new(geom).build().unwrap()),
        Box::new(
            CacheBuilder::new(geom)
                .index(Arc::new(XorIndex::new(sets).unwrap()))
                .build()
                .unwrap(),
        ),
        Box::new(
            CacheBuilder::new(geom)
                .index(Arc::new(OddMultiplierIndex::new(sets, 21).unwrap()))
                .build()
                .unwrap(),
        ),
        Box::new(
            CacheBuilder::new(geom)
                .index(Arc::new(PrimeModuloIndex::new(sets).unwrap()))
                .build()
                .unwrap(),
        ),
        Box::new(ColumnAssociativeCache::new(geom).unwrap()),
        Box::new(AdaptiveGroupCache::new(geom).unwrap()),
        Box::new(BCache::new(geom).unwrap()),
        Box::new(partner_chain(geom, 1)),
        Box::new(partner_chain(geom, 3)),
        Box::new(SkewedCache::new(geom).unwrap()),
        Box::new(VictimCache::new(CacheBuilder::new(geom), 8).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_laws_hold_for_every_model(seed in 0u64..5000) {
        let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let trace = synth::uniform_rw(seed, 3000, 0x1000, 1 << 16, 0.3);
        for mut model in all_models(geom) {
            model.run(trace.records());
            let s = model.stats().clone();
            // Accesses conserved.
            prop_assert_eq!(s.accesses(), 3000, "{}", model.name());
            // Aggregate counters equal per-set sums.
            let per_set_acc: u64 = s.per_set().iter().map(|x| x.accesses).sum();
            let per_set_hits: u64 = s.per_set().iter().map(|x| x.hits).sum();
            let per_set_misses: u64 = s.per_set().iter().map(|x| x.misses).sum();
            prop_assert_eq!(per_set_acc, s.accesses(), "{}", model.name());
            prop_assert_eq!(per_set_hits, s.hits(), "{}", model.name());
            prop_assert_eq!(per_set_misses, s.misses(), "{}", model.name());
            // Writes counted once per store.
            prop_assert_eq!(s.writes as usize, trace.write_count(), "{}", model.name());
            // Rates well-formed.
            prop_assert!((0.0..=1.0).contains(&s.miss_rate()));
            prop_assert!((s.miss_rate() + s.hit_rate() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rerun_after_flush_is_deterministic(seed in 0u64..2000) {
        let geom = CacheGeometry::from_sets(32, 32, 1).unwrap();
        let trace = synth::zipfian(seed, 2000, 0x8000, 256, 32, 1.1);
        for mut model in all_models(geom) {
            model.run(trace.records());
            let first = model.stats().clone();
            model.flush();
            model.run(trace.records());
            prop_assert_eq!(&first, model.stats(), "{} diverged after flush", model.name());
        }
    }

    #[test]
    fn belady_lower_bounds_every_model(seed in 0u64..2000) {
        let geom = CacheGeometry::from_sets(16, 32, 1).unwrap();
        let trace = synth::hotspot(seed, 1500, 0, 256, 1 << 12, 0.7);
        let min = belady::min_misses(trace.records(), geom.num_lines(), geom.line_bytes());
        for mut model in all_models(geom) {
            model.run(trace.records());
            prop_assert!(
                model.stats().misses() >= min,
                "{} beat Belady: {} < {min}",
                model.name(),
                model.stats().misses()
            );
        }
    }

    #[test]
    fn higher_associativity_never_loses_to_direct_mapped_with_lru_on_loops(
        span_lines in 8u64..64
    ) {
        // For cyclic loops within capacity, LRU set-associative caches are
        // monotone in associativity (stack property per set).
        let geom1 = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let geom4 = CacheGeometry::from_sets(16, 32, 4).unwrap();
        let trace = synth::strided(4000, 0, 32, span_lines * 32);
        let mut dm = CacheBuilder::new(geom1).build().unwrap();
        let mut sa = CacheBuilder::new(geom4).build().unwrap();
        dm.run(trace.records());
        sa.run(trace.records());
        // Working set fits both caches: both see only cold misses.
        prop_assert_eq!(dm.stats().misses(), span_lines);
        prop_assert_eq!(sa.stats().misses(), span_lines);
    }
}

#[test]
fn amat_formula_matches_hierarchy_measurement_for_conventional_cache() {
    // The closed-form conventional AMAT must equal the cycle-accounting
    // hierarchy when the L2 never misses after warm-up; compare on a
    // trace whose working set fits L2.
    let lat = LatencyModel {
        l1_hit: 1.0,
        l2_hit: 18.0,
        memory: 200.0,
        ..Default::default()
    };
    let trace = synth::zipfian(7, 30_000, 0x10000, 2048, 32, 1.0);
    let l1 = Box::new(
        CacheBuilder::new(CacheGeometry::paper_l1())
            .build()
            .unwrap(),
    );
    let mut h = Hierarchy::paper(l1, 2.0, lat);
    // Warm up L2 fully, then measure.
    h.run(trace.records());
    h.reset_stats();
    h.run(trace.records());
    let measured = h.amat();
    let formula = amat_conventional(h.l1d().stats(), &lat);
    assert!(
        (measured - formula).abs() < 0.05 * formula,
        "measured {measured:.3} vs formula {formula:.3}"
    );
}

#[test]
fn column_associative_at_least_halves_the_two_way_gap_on_mibench_sample() {
    // Sanity link between models: on a conflict-heavy real workload the
    // column-associative cache lands between direct-mapped and 2-way.
    let trace = Workload::Fft.generate(Scale::Tiny);
    let g1 = CacheGeometry::paper_l1();
    let g2 = CacheGeometry::new(32 * 1024, 32, 2).unwrap();
    let mut dm = CacheBuilder::new(g1).build().unwrap();
    let mut two_way = CacheBuilder::new(g2).build().unwrap();
    let mut col = ColumnAssociativeCache::new(g1).unwrap();
    dm.run(trace.records());
    two_way.run(trace.records());
    col.run(trace.records());
    let (dm_m, tw_m, col_m) = (
        dm.stats().miss_rate(),
        two_way.stats().miss_rate(),
        col.stats().miss_rate(),
    );
    assert!(col_m <= dm_m, "column {col_m} worse than DM {dm_m}");
    assert!(
        col_m <= tw_m * 1.5 + 0.01,
        "column {col_m} far above 2-way {tw_m}"
    );
}
