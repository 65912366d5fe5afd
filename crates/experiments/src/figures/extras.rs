//! Beyond-the-figures studies the paper describes in prose:
//!
//! * Zhang's FHS/FMS/LAS set classification (§IV.C);
//! * a bounded run of Patel's optimal index search (§II.F — excluded from
//!   the paper's evaluation as intractable; tractable here on truncated
//!   traces);
//! * the fully-associative Belady bound (§III's "theoretical lower
//!   bound");
//! * the per-application scheme-selection table realizing Fig. 5, and
//!   three checks of its premises: off-line profiling generalizes
//!   ([`givargis_generalization`]), profile-then-commit pays off online
//!   ([`online_selection`]), and one choice lasts the run
//!   ([`phase_stability`]).
//!
//! Studies that re-simulate outside the [`SimStore`] memo replay trace
//! views (sub-slices of a workload's records) with
//! [`unicache_core::run_fused`] and add the lane-records they replay to
//! [`SimStore::records_simulated`].

use crate::figures::paper_geom;
use crate::{ExperimentTable, SchemeId, SimStore};
use unicache_core::{run_fused, BlockStream, CacheGeometry, FusedLane, MemRecord};
use unicache_indexing::{IndexScheme, PatelSearch};
use unicache_sim::belady;
use unicache_stats::SetClassification;
use unicache_workloads::Workload;

/// §IV.C — FHS/FMS/LAS percentages for the baseline cache, per workload.
pub fn classification(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::mibench();
    let geom = paper_geom();
    store.prefetch(&workloads, &[SchemeId::Baseline], geom);
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = workloads
        .iter()
        .map(|&w| {
            let stats = store.stats(w, SchemeId::Baseline, geom);
            let c = SetClassification::from_stats(&stats);
            vec![c.fhs_pct, c.fms_pct, c.las_pct, c.hot_pct]
        })
        .collect();
    ExperimentTable::new(
        "Set classification (Zhang): baseline direct-mapped cache",
        "% of sets: FHS (>=2x avg hits), FMS (>=2x avg misses), LAS (<1/2 avg accesses), HOT (>=2x avg accesses)",
        rows,
        vec!["FHS".into(), "FMS".into(), "LAS".into(), "HOT".into()],
        values,
    )
}

/// §II.F — bounded Patel search on truncated traces: misses of the found
/// index vs the conventional low bits on the same truncated trace. The
/// references the search replayed count as simulated records.
pub fn patel(store: &SimStore, trace_cap: usize, index_bits: usize) -> ExperimentTable {
    let workloads = Workload::mibench();
    store.prefetch_traces(&workloads);
    let geom = paper_geom();
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&workloads, |&w| {
        let trace = store.get(w);
        let records = trace.records();
        let blocks: Vec<u64> = records[..trace_cap.min(records.len())]
            .iter()
            .map(|r| geom.block_addr(r.addr))
            .collect();
        // Candidates: the low 2m+4 block-address bits.
        let candidates: Vec<u32> = (0..(2 * index_bits as u32 + 4)).collect();
        let search = PatelSearch::new(index_bits, candidates, 200_000).expect("valid search");
        let outcome = search.search(&blocks);
        store.count_records(outcome.replayed);
        // Reference costs under the same (truncated) trace and small
        // cache: the conventional low bits.
        let conventional: Vec<u32> = (0..index_bits as u32).collect();
        let conv_cost = PatelSearch::cost(&conventional, &blocks);
        vec![
            conv_cost as f64,
            outcome.cost as f64,
            100.0 * (conv_cost as f64 - outcome.cost as f64) / conv_cost.max(1) as f64,
            if outcome.exhaustive { 1.0 } else { 0.0 },
        ]
    });
    ExperimentTable::new(
        format!(
            "Patel optimal-index search (bounded): {index_bits}-bit index, first {trace_cap} refs"
        ),
        "misses: conventional vs searched index; % improvement; exhaustive?",
        rows,
        vec![
            "Conventional_Misses".into(),
            "Patel_Misses".into(),
            "Improvement_%".into(),
            "Exhaustive".into(),
        ],
        values,
    )
}

/// §III — the fully-associative MIN (Belady) lower bound vs the baseline
/// and the best Section III scheme, per workload.
pub fn belady_bound(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::mibench();
    let geom = paper_geom();
    store.prefetch(
        &workloads,
        &[SchemeId::Baseline, SchemeId::ColumnAssoc],
        geom,
    );
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&workloads, |&w| {
        let trace = store.get(w);
        let base = store.stats(w, SchemeId::Baseline, geom);
        let col = store.stats(w, SchemeId::ColumnAssoc, geom);
        let min_rate = belady::min_miss_rate(trace.records(), geom.num_lines(), geom.line_bytes());
        store.count_records(trace.len() as u64);
        vec![
            100.0 * base.miss_rate(),
            100.0 * col.miss_rate(),
            100.0 * min_rate,
        ]
    });
    ExperimentTable::new(
        "Belady MIN lower bound (fully associative, perfect replacement)",
        "miss rate %: baseline DM vs column-associative vs MIN",
        rows,
        vec![
            "Direct_Mapped".into(),
            "Column_Assoc".into(),
            "Belady_MIN".into(),
        ],
        values,
    )
}

/// Fig. 5 realization — for each workload, which technique (indexing *or*
/// programmable associativity) minimizes the miss rate; the table an
/// OS/loader would consult in the paper's proposed design.
pub fn scheme_selection(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::mibench();
    let geom = paper_geom();
    // Every candidate lives in the shared pool — this whole table costs
    // nothing after Figs. 4 and 6 have run.
    let mut candidates: Vec<SchemeId> = IndexScheme::figure4_set()
        .into_iter()
        .map(SchemeId::Index)
        .collect();
    candidates.extend([SchemeId::Adaptive, SchemeId::BCache, SchemeId::ColumnAssoc]);
    let mut all: Vec<SchemeId> = vec![SchemeId::Baseline];
    all.extend(&candidates);
    store.prefetch(&workloads, &all, geom);
    let rows: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
    // Columns: all candidate techniques; cells: % reduction vs baseline.
    let mut cols: Vec<String> = IndexScheme::figure4_set()
        .iter()
        .map(|s| s.label())
        .collect();
    cols.extend(
        ["Adaptive_Cache", "B_Cache", "Column_associative"]
            .iter()
            .map(|s| s.to_string()),
    );
    let values: Vec<Vec<f64>> = workloads
        .iter()
        .map(|&w| {
            let base = store.stats(w, SchemeId::Baseline, geom);
            candidates
                .iter()
                .map(|&c| {
                    let s = store.stats(w, c, geom);
                    unicache_stats::percent_reduction(base.miss_rate(), s.miss_rate())
                })
                .collect()
        })
        .collect();
    ExperimentTable::new(
        "Per-application technique selection (Fig. 5 realization)",
        "% reduction in miss-rate vs baseline; argmax per row = selected technique",
        rows,
        cols,
        values,
    )
}

/// The winning technique per workload from a [`scheme_selection`] table.
pub fn winners(table: &ExperimentTable) -> Vec<(String, String, f64)> {
    table
        .rows
        .iter()
        .zip(&table.values)
        .map(|(w, row)| {
            let (ci, &v) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite reductions"))
                .expect("non-empty row");
            (w.clone(), table.cols[ci].clone(), v)
        })
        .collect()
}

/// `per_trace(len)` summed over the MiBench trace lengths: the
/// lane-records a study replays, for tests to pin.
#[cfg(test)]
fn over_mibench(store: &SimStore, per_trace: impl Fn(u64) -> u64) -> u64 {
    Workload::mibench()
        .iter()
        .map(|&w| per_trace(store.get(w).len() as u64))
        .sum()
}

/// Replays `stream` through every lane in one fused pass and adds the
/// lane-records to [`SimStore::records_simulated`].
fn replay(store: &SimStore, lanes: &mut [Box<dyn FusedLane>], stream: &BlockStream) {
    let mut refs: Vec<&mut dyn FusedLane> = lanes
        .iter_mut()
        .map(|l| l.as_mut() as &mut dyn FusedLane)
        .collect();
    run_fused(&mut refs, stream);
    store.count_records(stream.len() as u64 * refs.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_workloads::Scale;

    fn store() -> SimStore {
        SimStore::new(Scale::Tiny)
    }

    #[test]
    fn classification_shape() {
        let t = classification(&store());
        assert_eq!(t.cols.len(), 4);
        assert_eq!(t.rows.len(), 11);
        for row in &t.values {
            for &v in row {
                assert!((0.0..=100.0).contains(&v));
            }
        }
    }

    #[test]
    fn patel_beats_or_matches_conventional() {
        let t = patel(&store(), 3_000, 6);
        for (w, row) in t.rows.iter().zip(&t.values) {
            assert!(
                row[1] <= row[0],
                "{w}: searched index ({}) worse than conventional ({})",
                row[1],
                row[0]
            );
        }
    }

    #[test]
    fn belady_is_a_lower_bound() {
        let store = store();
        let t = belady_bound(&store);
        // Two memoized schemes, then one MIN replay, per record.
        assert_eq!(store.records_simulated(), over_mibench(&store, |n| 3 * n));
        for (w, row) in t.rows.iter().zip(&t.values) {
            assert!(row[2] <= row[0] + 1e-9, "{w}: MIN above baseline");
            assert!(row[2] <= row[1] + 1e-9, "{w}: MIN above column-assoc");
        }
    }

    #[test]
    fn selection_finds_a_winner_per_workload() {
        let t = scheme_selection(&store());
        assert_eq!(t.cols.len(), 8);
        let w = winners(&t);
        assert_eq!(w.len(), 11);
        // The paper's core claim: no single technique wins for every
        // application. (At Tiny scale ties are possible but a clean sweep
        // by one technique would be suspicious.)
        let distinct: std::collections::HashSet<&str> =
            w.iter().map(|(_, s, _)| s.as_str()).collect();
        assert!(
            distinct.len() >= 2,
            "a single technique won everywhere: {w:?}"
        );
    }
}

/// Profiling-generalization study (supports the Fig. 5 design): train the
/// Givargis index on the *first half* of each workload's trace, evaluate on
/// the *second half*, and compare with the oracle variant trained on the
/// evaluation half itself. Small gaps mean off-line profiling (as the
/// paper's proposed OS/loader flow assumes) is viable.
pub fn givargis_generalization(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::mibench();
    store.prefetch_traces(&workloads);
    let geom = paper_geom();
    let line = geom.line_bytes();
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&workloads, |&w| {
        let trace = store.get(w);
        let (train, eval) = trace.records().split_at(trace.len() / 2);
        let eval = BlockStream::from_records(eval, line);
        let givargis =
            |blocks: &[u64]| SchemeId::Index(IndexScheme::Givargis).build_lane(geom, Some(blocks));
        let mut lanes = [
            SchemeId::Baseline.build_lane(geom, None),
            givargis(&BlockStream::from_records(train, line).unique_blocks()),
            givargis(&eval.unique_blocks()),
        ];
        replay(store, &mut lanes, &eval);
        let [base, held_out, oracle] = lanes.map(|l| l.stats().miss_rate());
        vec![
            100.0 * base,
            100.0 * held_out,
            100.0 * oracle,
            100.0 * (held_out - oracle),
        ]
    });
    ExperimentTable::new(
        "Givargis profiling generalization (train on 1st half, evaluate on 2nd half)",
        "miss rate %: baseline / trained-on-profile / trained-on-eval (oracle) / generalization gap",
        rows,
        vec![
            "Baseline".into(),
            "Profiled".into(),
            "Oracle".into(),
            "Gap".into(),
        ],
        values,
    )
}

#[cfg(test)]
mod generalization_tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn profiled_index_generalizes() {
        let store = SimStore::new(Scale::Tiny);
        let t = givargis_generalization(&store);
        assert_eq!(t.cols.len(), 4);
        // Nothing through the memo: three lanes over each eval half.
        let records = over_mibench(&store, |n| 3 * (n - n / 2));
        assert_eq!(store.records_simulated(), records);
        for (w, row) in t.rows.iter().zip(&t.values) {
            // Profiled training must not be catastrophically worse than
            // oracle training — kernels have stable phase behaviour.
            assert!(
                row[3].abs() < 60.0,
                "{w}: generalization gap {:.1} points",
                row[3]
            );
        }
    }
}

/// Indexing-latency extension: the paper's Fig. 7 compares AMAT only for
/// the programmable-associativity schemes; Section II notes that
/// prime-modulo indexing is "likely to take several cycles" but never
/// quantifies the AMAT consequence. This table does: each indexing scheme's
/// AMAT with its index-computation latency charged per access
/// (conventional/XOR/odd-multiplier ≈ free; prime-modulo pays
/// `LatencyModel::prime_modulo_extra`).
pub fn indexing_amat(store: &SimStore) -> ExperimentTable {
    use unicache_timing::{amat_conventional, LatencyModel};
    let workloads = Workload::mibench();
    let geom = paper_geom();
    let lat = LatencyModel::default();
    let schemes = IndexScheme::figure4_set();
    let mut ids: Vec<SchemeId> = vec![SchemeId::Baseline];
    ids.extend(schemes.iter().map(|&s| SchemeId::Index(s)));
    store.prefetch(&workloads, &ids, geom);
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = workloads
        .iter()
        .map(|&w| {
            let base = store.stats(w, SchemeId::Baseline, geom);
            let base_amat = amat_conventional(&base, &lat);
            schemes
                .iter()
                .map(|scheme| {
                    let s = store.stats(w, SchemeId::Index(*scheme), geom);
                    let extra = match scheme {
                        IndexScheme::PrimeModulo => lat.prime_modulo_extra,
                        _ => 0.0,
                    };
                    let amat = amat_conventional(&s, &lat) + extra;
                    unicache_stats::percent_reduction(base_amat, amat)
                })
                .collect()
        })
        .collect();
    ExperimentTable::new(
        "Indexing AMAT with index-computation latency (extension of Fig. 7)",
        "% reduction in AMAT vs conventional; prime-modulo charged its modulo latency",
        rows,
        schemes.iter().map(|s| s.label()).collect(),
        values,
    )
    .with_average()
}

#[cfg(test)]
mod indexing_amat_tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn prime_modulo_pays_its_latency() {
        let store = SimStore::new(Scale::Tiny);
        let t = indexing_amat(&store);
        assert_eq!(t.rows.len(), 12);
        // On the uniform workloads (crc), prime-modulo cannot win once its
        // modulo latency is charged: the reduction must be negative there.
        let v = t.get("crc", "Prime_Modulo").unwrap();
        assert!(
            v < 0.0,
            "crc prime-modulo AMAT reduction {v:.2} should be negative"
        );
    }
}

/// The online selector's menu: the paper's techniques on the standard
/// L1. Lane 0, conventional, serves while the others profile.
const ONLINE_MENU: [SchemeId; 7] = [
    SchemeId::Baseline,
    SchemeId::Index(IndexScheme::Xor),
    SchemeId::Index(IndexScheme::OddMultiplier(21)),
    SchemeId::Index(IndexScheme::PrimeModulo),
    SchemeId::ColumnAssoc,
    SchemeId::Adaptive,
    SchemeId::BCache,
];

/// Fig. 5's profile-then-commit flow over one trace. Every
/// [`ONLINE_MENU`] lane replays the first `profile` records while lane 0
/// serves them; the lane with the lowest profile miss rate (the first on
/// ties) is committed and serves the rest alone. Committing to any lane
/// but 0 flushes it first: an index function cannot change under live
/// contents. A trace no longer than `profile` is served by lane 0
/// throughout, and commits only if it ends exactly at the boundary.
///
/// Returns the serving scheme at the end of the trace and the overall
/// miss rate.
fn online_run(
    store: &SimStore,
    records: &[MemRecord],
    geom: CacheGeometry,
    profile: usize,
) -> (SchemeId, f64) {
    let line = geom.line_bytes();
    let (head, tail) = records.split_at(profile.min(records.len()));
    let mut lanes: Vec<Box<dyn FusedLane>> = ONLINE_MENU
        .iter()
        .map(|s| s.build_lane(geom, None))
        .collect();
    replay(store, &mut lanes, &BlockStream::from_records(head, line));
    let head_misses = lanes[0].stats().misses();
    let best = if records.len() < profile {
        0
    } else {
        // `min_by` keeps the first of equal rates: ties stay on lane 0.
        (0..lanes.len())
            .min_by(|&a, &b| {
                let rate = |i: usize| lanes[i].stats().miss_rate();
                rate(a).total_cmp(&rate(b))
            })
            .unwrap_or(0)
    };
    let mut winner = lanes.swap_remove(best);
    if best != 0 {
        winner.flush();
    }
    let before = winner.stats().misses();
    let tail = BlockStream::from_records(tail, line);
    replay(store, std::slice::from_mut(&mut winner), &tail);
    let misses = head_misses + winner.stats().misses() - before;
    (
        ONLINE_MENU[best],
        misses as f64 / records.len().max(1) as f64,
    )
}

/// Online-selection study: the Fig. 5 flow end to end. Per workload:
/// conventional fixed, the online selector (`online_run`, profiling
/// the first 10% of the trace, max 100k refs), and the off-line oracle
/// (best fixed technique from [`scheme_selection`]), all as overall
/// miss rates.
pub fn online_selection(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::mibench();
    let geom = paper_geom();
    // Fixed baseline and the oracle's candidates come from the shared
    // pool (the oracle re-uses Fig. 6's runs); only the online selector
    // itself — stateful reconfiguration mid-trace — simulates here.
    let oracle_ids = [SchemeId::ColumnAssoc, SchemeId::Adaptive, SchemeId::BCache];
    let mut ids = vec![SchemeId::Baseline];
    ids.extend(oracle_ids);
    store.prefetch(&workloads, &ids, geom);
    let rows: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&workloads, |&w| {
        let trace = store.get(w);
        let profile = (trace.len() / 10).clamp(1, 100_000);
        let fixed_stats = store.stats(w, SchemeId::Baseline, geom);
        let (_, online) = online_run(store, trace.records(), geom, profile);
        // Oracle: best single technique over the whole trace.
        let mut oracle = fixed_stats.miss_rate();
        for &c in &oracle_ids {
            oracle = oracle.min(store.stats(w, c, geom).miss_rate());
        }
        vec![
            100.0 * fixed_stats.miss_rate(),
            100.0 * online,
            100.0 * oracle,
        ]
    });
    ExperimentTable::new(
        "Online technique selection (Fig. 5 flow: profile 10%, commit, run)",
        "miss rate %: fixed conventional / online selector / off-line oracle",
        rows,
        vec!["Conventional".into(), "Online".into(), "Oracle".into()],
        values,
    )
}

#[cfg(test)]
mod online_tests {
    use super::*;
    use unicache_core::{CacheModel, FUSE_CHUNK};
    use unicache_trace::synth;
    use unicache_workloads::Scale;

    #[test]
    fn online_lands_between_fixed_and_oracle() {
        let store = SimStore::new(Scale::Tiny);
        let t = online_selection(&store);
        let mut wins = 0;
        for (w, row) in t.rows.iter().zip(&t.values) {
            let (fixed, online, oracle) = (row[0], row[1], row[2]);
            assert!(oracle <= fixed + 1e-9, "{w}: oracle above fixed");
            // The online selector pays profiling + reconfiguration, so it
            // may trail the oracle, but must not be grossly worse than
            // always-conventional.
            assert!(
                online <= fixed * 1.3 + 0.5,
                "{w}: online {online:.2}% vs fixed {fixed:.2}%"
            );
            if online < fixed - 0.05 {
                wins += 1;
            }
        }
        assert!(wins >= 3, "online selection never pays off ({wins} wins)");
        // Four memoized schemes per record, then the whole menu over the
        // profile and one lane over the rest.
        let records = over_mibench(&store, |n| {
            let profile = (n / 10).clamp(1, 100_000);
            4 * n + 7 * profile + (n - profile)
        });
        assert_eq!(store.records_simulated(), records);
    }

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(64, 32, 1).unwrap()
    }

    /// The per-record reference for [`online_run`]: every menu model
    /// `access`es each record until the profile closes, the committed
    /// one alone after that.
    fn per_record(records: &[MemRecord], geom: CacheGeometry, profile: usize) -> (SchemeId, f64) {
        let mut models: Vec<Box<dyn CacheModel>> = ONLINE_MENU
            .iter()
            .map(|s| s.build_model(geom, None))
            .collect();
        let mut committed: Option<usize> = None;
        let mut misses = 0;
        for (i, &r) in records.iter().enumerate() {
            misses += u64::from(!models[committed.unwrap_or(0)].access(r).is_hit());
            if committed.is_none() {
                for m in &mut models[1..] {
                    m.access(r);
                }
                if i + 1 == profile {
                    let rate = |j: usize| models[j].stats().miss_rate();
                    let best =
                        (1..models.len()).fold(0, |b, j| if rate(j) < rate(b) { j } else { b });
                    if best != 0 {
                        models[best].flush();
                    }
                    committed = Some(best);
                }
            }
        }
        let rate = misses as f64 / records.len().max(1) as f64;
        (ONLINE_MENU[committed.unwrap_or(0)], rate)
    }

    #[test]
    fn online_run_matches_the_per_record_reference() {
        let store = SimStore::new(Scale::Tiny);
        // Conflict traffic that conventional indexing loses, then a
        // uniform phase, so some profiles commit away from lane 0.
        let mut records = synth::strided(2 * FUSE_CHUNK, 0, 64 * 32, 64 * 32 * 32).into_records();
        records.extend(synth::uniform(5, FUSE_CHUNK + 333, 0, 1 << 14).into_records());
        let len = records.len();
        let mut committed = Vec::new();
        for profile in [FUSE_CHUNK / 2 + 7, FUSE_CHUNK, 2 * FUSE_CHUNK, len, len + 5] {
            let got = online_run(&store, &records, geom(), profile);
            assert_eq!(
                got,
                per_record(&records, geom(), profile),
                "profile {profile}"
            );
            committed.push(got.0);
        }
        assert!(
            committed.iter().any(|&s| s != SchemeId::Baseline),
            "no profile committed away from conventional: {committed:?}"
        );
        assert_eq!(committed[4], SchemeId::Baseline, "profile never closed");
        assert_eq!(
            online_run(&store, &[], geom(), 10),
            (SchemeId::Baseline, 0.0)
        );
        assert_eq!(per_record(&[], geom(), 10), (SchemeId::Baseline, 0.0));
    }

    #[test]
    fn picks_a_conflict_killer_on_stride_traffic() {
        // Power-of-two stride slams conventional indexing (32 blocks, all
        // landing in set 0) while fitting comfortably in the 64-line
        // capacity — a pure conflict problem the selector must escape.
        let store = SimStore::new(Scale::Tiny);
        let trace = synth::strided(6000, 0, 64 * 32, 64 * 32 * 32);
        let (chosen, rate) = online_run(&store, trace.records(), geom(), 2000);
        assert_ne!(
            chosen,
            SchemeId::Baseline,
            "stayed on the thrashing default"
        );
        // And the overall miss rate beats pure-conventional end to end.
        let mut conventional = SchemeId::Baseline.build_model(geom(), None);
        conventional.run(trace.records());
        assert!(
            rate < conventional.stats().miss_rate(),
            "selector {rate} vs conventional {}",
            conventional.stats().miss_rate()
        );
    }

    #[test]
    fn stays_on_default_when_it_already_wins() {
        // Uniform traffic with a tiny footprint: everything hits after
        // warm-up; the default is never beaten *strictly*, and ties go to
        // the lowest lane (the default).
        let store = SimStore::new(Scale::Tiny);
        let trace = synth::uniform(9, 2000, 0, 512);
        let (chosen, _) = online_run(&store, trace.records(), geom(), 500);
        assert_eq!(chosen, SchemeId::Baseline);
    }
}

/// Workload characterization: trace length, unique blocks (footprint),
/// write ratio, and baseline cache behaviour for all 21 kernels — the
/// substrate documentation for DESIGN.md's substitution argument.
pub fn workload_characterization(store: &SimStore) -> ExperimentTable {
    let workloads = Workload::all();
    let geom = paper_geom();
    store.prefetch(&workloads, &[SchemeId::Baseline], geom);
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&workloads, |&w| {
        // One memoized summary supplies length, footprint and write mix —
        // the same pass the analytical model and Givargis training share,
        // instead of one trace traversal per statistic.
        let summary = store.summary(w, geom.line_bytes());
        let stats = store.stats(w, SchemeId::Baseline, geom);
        let accesses = stats.accesses_per_set();
        vec![
            summary.total_refs as f64,
            summary.footprint_blocks() as f64,
            (summary.footprint_blocks() as u64 * geom.line_bytes()) as f64 / 1024.0,
            100.0 * summary.mix.writes as f64 / summary.total_refs.max(1) as f64,
            100.0 * stats.miss_rate(),
            unicache_stats::gini(&accesses),
        ]
    });
    ExperimentTable::new(
        "Workload characterization (instrumented kernels)",
        "references / unique 32B blocks / footprint KiB / write % / baseline miss % / access gini",
        rows,
        vec![
            "Refs".into(),
            "Blocks".into(),
            "KiB".into(),
            "Write%".into(),
            "Miss%".into(),
            "Gini".into(),
        ],
        values,
    )
}

#[cfg(test)]
mod characterization_tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn all_21_workloads_characterized() {
        let store = SimStore::new(Scale::Tiny);
        let t = workload_characterization(&store);
        assert_eq!(t.rows.len(), 21);
        for (w, row) in t.rows.iter().zip(&t.values) {
            assert!(row[0] > 1000.0, "{w}: too few references");
            assert!(row[1] > 64.0, "{w}: footprint too small");
            assert!((0.0..=100.0).contains(&row[3]), "{w}: write ratio");
            assert!((0.0..=100.0).contains(&row[4]), "{w}: miss rate");
            assert!((0.0..=1.0).contains(&row[5]), "{w}: gini");
        }
        // Some workloads must exceed the 32 KB L1 (capacity pressure) and
        // some must fit (conflict-only pressure) — diversity the study
        // depends on. At Tiny scale footprints shrink, so the thresholds
        // are modest; `xp workloads --scale small` shows the full spread.
        let fits = t.values.iter().filter(|r| r[2] < 32.0).count();
        let exceeds = t.values.iter().filter(|r| r[2] > 32.0).count();
        assert!(fits >= 2, "no small-footprint workloads ({fits})");
        assert!(exceeds >= 2, "no capacity-pressure workloads ({exceeds})");
    }
}

/// Phase-stability study: windowed miss-rate series per workload on the
/// baseline cache. High stability justifies the paper's Fig. 5 assumption
/// that one per-application technique choice holds for the whole run.
pub fn phase_stability(store: &SimStore) -> ExperimentTable {
    use unicache_stats::PhaseSeries;
    let workloads = Workload::mibench();
    store.prefetch_traces(&workloads);
    let geom = paper_geom();
    let rows = workloads.iter().map(|w| w.name().to_string()).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&workloads, |&w| {
        let trace = store.get(w);
        let window = (trace.len() / 50).max(1_000);
        let mut cache = [SchemeId::Baseline.build_lane(geom, None)];
        let mut misses = Vec::new();
        let mut before = 0;
        // The ragged tail window is replayed too, so the cache does the
        // same work as one whole-trace pass; only its rate is dropped.
        for chunk in trace.records().chunks(window) {
            replay(
                store,
                &mut cache,
                &BlockStream::from_records(chunk, geom.line_bytes()),
            );
            let now = cache[0].stats().misses();
            if chunk.len() == window {
                misses.push(now - before);
            }
            before = now;
        }
        let series = PhaseSeries::from_window_counts(&misses, window);
        let cps = series.change_points(0.05).len() as f64;
        vec![
            series.len() as f64,
            100.0 * series.mean(),
            cps,
            100.0 * series.stability(0.05),
        ]
    });
    ExperimentTable::new(
        "Phase stability of baseline miss rate (sliding windows)",
        "windows / mean windowed miss % / change points (>=5pt jumps) / stability %",
        rows,
        vec![
            "Windows".into(),
            "Miss%".into(),
            "Changes".into(),
            "Stability%".into(),
        ],
        values,
    )
}

#[cfg(test)]
mod phase_tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn most_workloads_are_phase_stable() {
        let store = SimStore::new(Scale::Tiny);
        let t = phase_stability(&store);
        assert_eq!(t.rows.len(), 11);
        // Nothing through the memo: one lane over every record.
        assert_eq!(store.records_simulated(), over_mibench(&store, |n| n));
        let stable = t.values.iter().filter(|r| r[3] >= 80.0).count();
        assert!(
            stable >= 7,
            "only {stable}/11 workloads phase-stable — Fig. 5's premise would fail"
        );
    }
}
