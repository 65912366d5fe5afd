//! The batched paths must be pure optimisations: every scheme's
//! whole-slice `index_many` must agree element-for-element with its
//! per-element `index_block`, on every registered scheme, both reference
//! geometries, and ragged lengths, and a fused `Cache` run must leave the
//! same stats and contents as per-record `Cache::run`.

use proptest::prelude::*;
use std::sync::Arc;
use unicache::prelude::*;
use unicache::trace::synth;

/// The check-matrix geometries: the small 64-set shape and the paper's
/// 1024-set L1.
fn geometries() -> [CacheGeometry; 2] {
    [
        CacheGeometry::from_sets(64, 32, 1).unwrap(),
        CacheGeometry::paper_l1(),
    ]
}

/// Deterministic training blocks for the Givargis variants.
fn training_blocks() -> Vec<u64> {
    (0..4096u64)
        .map(|i| i.wrapping_mul(2654435761) >> 7)
        .collect()
}

/// Lengths straddling small, chunk-sized and past-chunk boundaries.
const RAGGED_LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, 63, 1024, 1025, 2500 + 3];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `index_many` == `index_block` element-for-element for every
    /// registry scheme: the whole-slice loop and the per-element method
    /// must be two spellings of the same function.
    #[test]
    fn index_many_matches_index_block_for_every_scheme(seed in proptest::num::u64::ANY) {
        let training = training_blocks();
        for geom in geometries() {
            for scheme in IndexScheme::all() {
                let f = scheme.build(geom, Some(&training)).unwrap();
                for &len in &RAGGED_LENGTHS {
                    let blocks: Vec<u64> = (0..len as u64)
                        .map(|i| seed.wrapping_mul(i.wrapping_add(0x9E3779B97F4A7C15)) >> 5)
                        .collect();
                    let mut out = vec![usize::MAX; len];
                    f.index_many(&blocks, &mut out);
                    for (i, &b) in blocks.iter().enumerate() {
                        prop_assert_eq!(
                            out[i], f.index_block(b),
                            "{} slot {} of {} diverged at {} sets",
                            scheme.label(), i, len, geom.num_sets()
                        );
                    }
                }
            }
        }
    }

    /// A fused run leaves the same stats and contents as per-record
    /// `Cache::run` for every registry scheme on a conflict-heavy mix —
    /// fills landing in sets revisited later in the same chunk included.
    #[test]
    fn batched_classify_matches_scalar_path_for_every_scheme(seed in 0u64..4000) {
        let training = training_blocks();
        for geom in geometries() {
            // 2507 records: ragged final chunk (2507 % 1024 = 459).
            let trace = synth::hotspot(seed, 2507, 0, 96, 1 << 14, 0.7);
            let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
            for scheme in IndexScheme::all() {
                let mk = || {
                    CacheBuilder::new(geom)
                        .index(scheme.build(geom, Some(&training)).unwrap())
                        .build()
                        .unwrap()
                };
                let mut fused = mk();
                let mut per_record = mk();
                run_fused(&mut [&mut fused as &mut dyn FusedLane], &stream);
                per_record.run(trace.records());
                prop_assert_eq!(
                    fused.stats(), per_record.stats(),
                    "{} batched path diverged at {} sets",
                    scheme.label(), geom.num_sets()
                );
                // Final contents must agree too, not only the counters.
                for rec in trace.records().iter().take(200) {
                    let b = geom.block_addr(rec.addr);
                    prop_assert_eq!(fused.contains_block(b), per_record.contains_block(b));
                }
            }
        }
    }
}

/// Deterministic worst case for the commit loop: conflicting blocks
/// revisited inside a single chunk, in every hit/miss interleaving the
/// 4-set cache can express — with writes mixed in — against per-record
/// `access`.
#[test]
fn intra_chunk_conflicts_match_scalar_path_exactly() {
    let geom = CacheGeometry::from_sets(4, 32, 1).unwrap();
    // Blocks 0,4,8 all land in set 0 under conventional indexing; the
    // pattern revisits each within one FUSE_CHUNK, so a fill decides the
    // next probe of its set in both directions (new fill hits, displaced
    // block misses).
    let mut addrs = Vec::new();
    for round in 0..300u64 {
        for &b in &[0u64, 4, 0, 8, 4, 0, 8, 8, 1, 5, 0] {
            addrs.push((b + (round % 3)) * 32);
        }
    }
    let records: Vec<MemRecord> = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| MemRecord {
            addr: a,
            kind: if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            tid: 0,
        })
        .collect();
    let stream = BlockStream::from_records(&records, geom.line_bytes());
    let mut fused = CacheBuilder::new(geom).build().unwrap();
    let mut per_record = CacheBuilder::new(geom).build().unwrap();
    run_fused(&mut [&mut fused as &mut dyn FusedLane], &stream);
    per_record.run(&records);
    assert_eq!(
        fused.stats(),
        per_record.stats(),
        "commit loop diverged from per-record access"
    );
}

/// `Arc`-wrapped functions forward `index_many` to the concrete batched
/// body (the fused kernel always calls through `Arc<dyn IndexFunction>`).
#[test]
fn arc_wrapper_forwards_batched_body() {
    let f: Arc<dyn IndexFunction> = Arc::new(PrimeModuloIndex::new(1024).unwrap());
    let blocks: Vec<u64> = (0..100u64).map(|i| i * 977).collect();
    let mut out = vec![0usize; blocks.len()];
    f.index_many(&blocks, &mut out);
    for (i, &b) in blocks.iter().enumerate() {
        assert_eq!(out[i], f.index_block(b));
    }
}
