//! Sweep studies backing the paper's Section I framing:
//!
//! * [`associativity`] — "higher associativities mitigate the
//!   non-uniformity of accesses, but do not eliminate them", and Zhang's
//!   claim (quoted in Section IV.B) that the B-cache matches an 8-way
//!   cache's miss rate;
//! * [`hierarchy_cycles`] — end-to-end cycles behind the paper's 256 KB
//!   unified L2, checking that L1 miss-rate wins survive a real backing
//!   hierarchy (the paper reports AMAT from closed-form formulas only).

use crate::figures::paper_geom;
use crate::{ExperimentTable, SchemeId, SimStore};
use std::sync::Arc;
use unicache_core::{CacheGeometry, CacheModel, FusedLane, IndexFunction, FUSE_CHUNK};
use unicache_indexing::{ModuloIndex, OddMultiplierIndex, PrimeModuloIndex, XorIndex};
use unicache_sim::{Cache, CacheBuilder};
use unicache_stats::Moments;
use unicache_timing::{EgressL2, LatencyModel};
use unicache_trace::synth;
use unicache_workloads::Workload;

/// Miss rate and miss-kurtosis for 1/2/4/8-way conventional caches (same
/// 32 KB capacity) next to the B-cache, per workload.
pub fn associativity(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::mibench();
    let way_geoms: Vec<CacheGeometry> = [1u32, 2, 4, 8]
        .iter()
        .map(|&ways| CacheGeometry::new(32 * 1024, 32, ways).expect("pow2"))
        .collect();
    for &g in &way_geoms {
        store.prefetch(&workloads, &[SchemeId::Baseline], g);
    }
    store.prefetch(
        &workloads,
        &[SchemeId::BCache, SchemeId::Skewed],
        paper_geom(),
    );
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let cols: Vec<String> = vec![
        "1way_miss%".into(),
        "2way_miss%".into(),
        "4way_miss%".into(),
        "8way_miss%".into(),
        "BCache_miss%".into(),
        "Skewed2_miss%".into(),
        "1way_kurt".into(),
        "8way_kurt".into(),
        "BCache_kurt".into(),
    ];
    let values: Vec<Vec<f64>> = workloads
        .iter()
        .map(|&w| {
            let mut rates = Vec::new();
            let mut kurts = Vec::new();
            for &geom in &way_geoms {
                let s = store.stats(w, SchemeId::Baseline, geom);
                rates.push(100.0 * s.miss_rate());
                if geom.ways() == 1 || geom.ways() == 8 {
                    kurts.push(Moments::from_counts(&s.misses_per_set()).kurtosis);
                }
            }
            let s = store.stats(w, SchemeId::BCache, paper_geom());
            let b_rate = 100.0 * s.miss_rate();
            let b_kurt = Moments::from_counts(&s.misses_per_set()).kurtosis;
            let s = store.stats(w, SchemeId::Skewed, paper_geom());
            let sk_rate = 100.0 * s.miss_rate();
            vec![
                rates[0], rates[1], rates[2], rates[3], b_rate, sk_rate, kurts[0], kurts[1], b_kurt,
            ]
        })
        .collect();
    ExperimentTable::new(
        "Associativity sweep vs B-cache and 2-way skewed (32 KB, 32 B lines)",
        "miss rate % by ways; kurtosis of per-set misses (1-way vs 8-way vs B-cache)",
        rows,
        cols,
        values,
    )
}

/// The L1s of [`hierarchy_cycles`], in its column order, with the cycles
/// each charges for a secondary hit.
pub fn hierarchy_l1s(lat: &LatencyModel) -> [(SchemeId, f64); 4] {
    [
        (SchemeId::Baseline, lat.rehash_hit),
        (SchemeId::Adaptive, lat.out_hit),
        (SchemeId::BCache, lat.rehash_hit),
        (SchemeId::ColumnAssoc, lat.rehash_hit),
    ]
}

/// The AMAT of `w` through the paper's hierarchy behind each of the
/// [`hierarchy_l1s`], in their order. Each L1 runs as a lane that logs
/// its egress ([`SimStore::run_egress`], which fills the store's result
/// cell for it), the egress is replayed chunk by chunk through the L2,
/// and the AMAT comes from counts ([`EgressL2::finish`]). The L1s run
/// one at a time, so one L1 and one L2 are alive at once.
pub fn hierarchy_amats(store: &SimStore, w: Workload, lat: &LatencyModel) -> [f64; 4] {
    let geom = paper_geom();
    hierarchy_l1s(lat).map(|(scheme, secondary)| {
        let mut l2 = EgressL2::paper(geom);
        let l1 = store.run_egress(w, scheme, geom, |egress| l2.replay(egress));
        l2.finish(&l1, secondary, lat)
    })
}

/// End-to-end cycles through the paper's two-level hierarchy for the
/// baseline and the three Section III schemes, per workload
/// ([`hierarchy_amats`]). Each L1 lane counts the trace's length as
/// simulated records.
pub fn hierarchy_cycles(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::mibench();
    store.prefetch_traces(&workloads);
    let lat = LatencyModel::default();
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&workloads, |&w| {
        let [base, adaptive, bcache, column] = hierarchy_amats(store, w, &lat);
        vec![
            base,
            adaptive,
            bcache,
            column,
            100.0 * (base - adaptive) / base,
            100.0 * (base - bcache) / base,
            100.0 * (base - column) / base,
        ]
    });
    ExperimentTable::new(
        "Measured hierarchy cycles (L1 + unified 256 KB L2 + memory)",
        "AMAT in cycles: baseline / adaptive / b-cache / column; then % reduction each",
        rows,
        vec![
            "Base_cy".into(),
            "Adaptive_cy".into(),
            "BCache_cy".into(),
            "Column_cy".into(),
            "Adaptive_%".into(),
            "BCache_%".into(),
            "Column_%".into(),
        ],
        values,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn associativity_mitigates_but_does_not_eliminate_nonuniformity() {
        let store = SimStore::new(Scale::Tiny);
        let t = associativity(&store);
        // Miss rates are monotone non-increasing in ways for nearly every
        // workload (LRU inclusion makes true violations rare; allow small
        // numerical slack).
        for (w, row) in t.rows.iter().zip(&t.values) {
            assert!(
                row[3] <= row[0] + 0.5,
                "{w}: 8-way {:.2}% vs 1-way {:.2}%",
                row[3],
                row[0]
            );
        }
        // The paper's Section I claim: even at 8 ways the miss
        // distribution of conflict-heavy workloads stays non-uniform
        // (kurtosis well above 0 somewhere).
        let max_8way_kurt = t
            .values
            .iter()
            .map(|r| r[7])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max_8way_kurt > 3.0,
            "8-way already uniform everywhere ({max_8way_kurt:.1})"
        );
    }

    #[test]
    fn bcache_matches_8way_miss_rate() {
        // Zhang's claim, quoted in the paper's Section IV.B.
        let store = SimStore::new(Scale::Tiny);
        let t = associativity(&store);
        for (w, row) in t.rows.iter().zip(&t.values) {
            let (eight, bc) = (row[3], row[4]);
            assert!(
                (eight - bc).abs() <= 0.3 + 0.1 * eight,
                "{w}: 8-way {eight:.2}% vs b-cache {bc:.2}%"
            );
        }
    }

    #[test]
    fn hierarchy_gains_survive_the_l2() {
        let store = SimStore::new(Scale::Tiny);
        let t = hierarchy_cycles(&store);
        // On fft (conflict-dominated) every scheme cuts measured cycles.
        for col in ["Adaptive_%", "BCache_%", "Column_%"] {
            let v = t.get("fft", col).unwrap();
            assert!(v > 10.0, "fft {col}: {v:.1}%");
        }
        // All AMATs are at least one cycle.
        for row in &t.values {
            for &v in &row[..4] {
                assert!(v >= 1.0);
            }
        }
    }
}

/// Seed, length and (row name, functions, bytes per function) of the
/// L1I study's synthetic instruction streams.
const ICACHE_SEED: u64 = 0x1CACE;
const ICACHE_FETCHES: usize = 400_000;
const ICACHE_CONFIGS: [(&str, usize, u64); 4] = [
    ("16f_x_2KB", 16, 2048),   // 32 KB of code: fits L1I
    ("64f_x_2KB", 64, 2048),   // 128 KB: 4x over capacity
    ("32f_x_8KB", 32, 8192),   // 256 KB, long functions
    ("256f_x_1KB", 256, 1024), // many small functions
];

/// The L1I study's indexing schemes, by column name.
fn icache_schemes(sets: usize) -> Vec<(&'static str, Arc<dyn IndexFunction>)> {
    vec![
        (
            "conventional",
            Arc::new(ModuloIndex::new(sets).expect("pow2")),
        ),
        ("XOR", Arc::new(XorIndex::new(sets).expect("pow2"))),
        (
            "Odd_Multiplier",
            Arc::new(OddMultiplierIndex::paper_default(sets).expect("pow2")),
        ),
        (
            "Prime_Modulo",
            Arc::new(PrimeModuloIndex::new(sets).expect("pow2")),
        ),
    ]
}

/// Miss rate % of a `geom` cache under each scheme over one synthetic
/// instruction stream. Each `FUSE_CHUNK` of fetches is generated straight
/// into block scratch and every cache steps that chunk before the next is
/// drawn, so the stream is never held whole, not even as records.
fn icache_miss_rates(
    geom: CacheGeometry,
    schemes: &[(&str, Arc<dyn IndexFunction>)],
    functions: usize,
    func_bytes: u64,
    fetches: usize,
) -> Vec<f64> {
    let mut caches: Vec<Cache> = schemes
        .iter()
        .map(|(_, f)| {
            CacheBuilder::new(geom)
                .index(Arc::clone(f))
                .build()
                .expect("cache")
        })
        .collect();
    let mut stream = synth::instruction_fetches(ICACHE_SEED, fetches, functions, func_bytes);
    let mut blocks = [0; FUSE_CHUNK];
    // Instruction fetches are reads.
    let writes = [false; FUSE_CHUNK];
    loop {
        let n = stream.fill_blocks(geom.offset_bits(), &mut blocks);
        if n == 0 {
            break;
        }
        for cache in &mut caches {
            cache.step_chunk(&blocks[..n], &writes[..n]);
        }
    }
    caches
        .iter()
        .map(|c| 100.0 * c.stats().miss_rate())
        .collect()
}

/// L1I study: the paper simulates a split 32 KB instruction cache but
/// reports only data-side figures. This sweep runs synthetic instruction
/// streams (mostly-sequential fetch with loops and calls) of growing code
/// footprint through the L1I under each indexing scheme.
pub fn icache(store: &SimStore) -> ExperimentTable {
    let geom = paper_geom();
    let schemes = icache_schemes(geom.num_sets());
    // The streams are synthetic, so nothing comes from the memo.
    store.count_records((ICACHE_CONFIGS.len() * schemes.len() * ICACHE_FETCHES) as u64);
    let values: Vec<Vec<f64>> = ICACHE_CONFIGS
        .iter()
        .map(|&(_, funcs, fbytes)| icache_miss_rates(geom, &schemes, funcs, fbytes, ICACHE_FETCHES))
        .collect();
    ExperimentTable::new(
        "L1I indexing study (synthetic instruction streams)",
        "miss rate % of the 32 KB direct-mapped I-cache per indexing scheme",
        ICACHE_CONFIGS
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect(),
        schemes.iter().map(|(n, _)| n.to_string()).collect(),
        values,
    )
}

#[cfg(test)]
mod icache_tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn icache_study_shapes() {
        let store = SimStore::new(Scale::Tiny);
        let t = icache(&store);
        assert_eq!(t.cols.len(), 4);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(store.records_simulated(), 4 * 4 * ICACHE_FETCHES as u64);
        // Code that fits the 32 KB I-cache must be a near-zero miss rate
        // under conventional indexing.
        assert!(
            t.values[0][0] < 1.0,
            "in-capacity code misses {:.2}%",
            t.values[0][0]
        );
        // Over-capacity configurations miss more.
        assert!(t.values[1][0] > t.values[0][0]);
    }

    #[test]
    fn streamed_icache_matches_the_materialised_trace() {
        let geom = paper_geom();
        let schemes = icache_schemes(geom.num_sets());
        // Not a multiple of FUSE_CHUNK, so the last block is ragged.
        let n = 3 * FUSE_CHUNK + 517;
        for (_, funcs, fbytes) in ICACHE_CONFIGS {
            let trace = synth::instruction_stream(ICACHE_SEED, n, funcs, fbytes);
            let materialised: Vec<f64> = schemes
                .iter()
                .map(|(_, f)| {
                    let mut cache = CacheBuilder::new(geom)
                        .index(Arc::clone(f))
                        .build()
                        .unwrap();
                    cache.run(trace.records());
                    100.0 * cache.stats().miss_rate()
                })
                .collect();
            assert_eq!(
                icache_miss_rates(geom, &schemes, funcs, fbytes, n),
                materialised
            );
        }
    }
}
