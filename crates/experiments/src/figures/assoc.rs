//! Figures 6, 7, 11 and 12 — the programmable-associativity comparison.

use crate::figures::paper_geom;
use crate::{ExperimentTable, SchemeId, SimStore};
use std::sync::Arc;
use unicache_core::CacheStats;
use unicache_stats::{percent_change, percent_reduction, Moments};
use unicache_timing::{amat_adaptive, amat_column_associative, amat_conventional, LatencyModel};
use unicache_workloads::Workload;

/// The three schemes of the paper's Section III, in figure legend order.
pub const SCHEMES: [&str; 3] = ["Adaptive_Cache", "B_Cache", "Column_associative"];

struct Run {
    workload: Workload,
    base: Arc<CacheStats>,
    adaptive: Arc<CacheStats>,
    bcache: Arc<CacheStats>,
    column: Arc<CacheStats>,
}

fn all_runs(store: &SimStore) -> Vec<Run> {
    let geom = paper_geom();
    let workloads = Workload::mibench();
    store.prefetch(
        &workloads,
        &[
            SchemeId::Baseline,
            SchemeId::Adaptive,
            SchemeId::BCache,
            SchemeId::ColumnAssoc,
        ],
        geom,
    );
    workloads
        .iter()
        .map(|&w| Run {
            workload: w,
            base: store.stats(w, SchemeId::Baseline, geom),
            adaptive: store.stats(w, SchemeId::Adaptive, geom),
            bcache: store.stats(w, SchemeId::BCache, geom),
            column: store.stats(w, SchemeId::ColumnAssoc, geom),
        })
        .collect()
}

fn labels() -> Vec<String> {
    SCHEMES.iter().map(|s| s.to_string()).collect()
}

/// **Figure 6** — % reduction in miss rate for the adaptive cache,
/// B-cache and column-associative cache vs the direct-mapped baseline.
pub fn fig6(store: &SimStore) -> ExperimentTable {
    let runs = all_runs(store);
    let rows = runs.iter().map(|r| r.workload.name().to_string()).collect();
    let values = runs
        .iter()
        .map(|r| {
            [&r.adaptive, &r.bcache, &r.column]
                .iter()
                .map(|s| percent_reduction(r.base.miss_rate(), s.miss_rate()))
                .collect()
        })
        .collect();
    ExperimentTable::new(
        "Fig. 6: miss rates for programmable associativity techniques",
        "% reduction in miss-rate vs conventional direct-mapped",
        rows,
        labels(),
        values,
    )
    .with_average()
}

/// **Figure 7** — % reduction in AMAT using the paper's Eq. 8 (adaptive)
/// and Eq. 9 (column-associative); the B-cache keeps a direct-mapped
/// access path, so the conventional formula applies.
pub fn fig7(store: &SimStore) -> ExperimentTable {
    let lat = LatencyModel::default();
    let runs = all_runs(store);
    let rows = runs.iter().map(|r| r.workload.name().to_string()).collect();
    let values = runs
        .iter()
        .map(|r| {
            let base = amat_conventional(&r.base, &lat);
            vec![
                percent_reduction(base, amat_adaptive(&r.adaptive, &lat)),
                percent_reduction(base, amat_conventional(&r.bcache, &lat)),
                percent_reduction(base, amat_column_associative(&r.column, &lat)),
            ]
        })
        .collect();
    ExperimentTable::new(
        "Fig. 7: average memory access times (Eq. 8 / Eq. 9)",
        "% reduction in AMAT vs conventional direct-mapped",
        rows,
        labels(),
        values,
    )
    .with_average()
}

fn moment_increase_table(
    store: &SimStore,
    title: &str,
    metric: &str,
    pick: fn(&Moments) -> f64,
) -> ExperimentTable {
    let runs = all_runs(store);
    let rows = runs.iter().map(|r| r.workload.name().to_string()).collect();
    let values = runs
        .iter()
        .map(|r| {
            let base_m = pick(&Moments::from_counts(&r.base.misses_per_set()));
            [&r.adaptive, &r.bcache, &r.column]
                .iter()
                .map(|s| percent_change(base_m, pick(&Moments::from_counts(&s.misses_per_set()))))
                .collect()
        })
        .collect();
    ExperimentTable::new(title, metric, rows, labels(), values).with_average()
}

/// **Figure 11** — % increase in kurtosis of per-set misses for the
/// programmable-associativity schemes (the paper finds solid reductions).
pub fn fig11(store: &SimStore) -> ExperimentTable {
    moment_increase_table(
        store,
        "Fig. 11: kurtosis of misses for programmable associativities",
        "% increase in kurtosis (misses); negative = more uniform",
        |m| m.kurtosis,
    )
}

/// **Figure 12** — % increase in skewness of per-set misses for the
/// programmable-associativity schemes.
pub fn fig12(store: &SimStore) -> ExperimentTable {
    moment_increase_table(
        store,
        "Fig. 12: skewness of misses for programmable associativities",
        "% increase in skewness (misses); negative = more uniform",
        |m| m.skewness,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_workloads::Scale;

    fn store() -> SimStore {
        SimStore::new(Scale::Tiny)
    }

    #[test]
    fn fig6_all_schemes_reduce_misses_on_average() {
        let s = store();
        let t = fig6(&s);
        assert_eq!(t.rows.len(), 12);
        // Paper headline: all three techniques show reductions on average.
        for col in &t.cols {
            let avg = t.get("Average", col).unwrap();
            assert!(avg > 0.0, "{col} average {avg:.2} not positive");
        }
        // And uniform workloads (crc, bitcount) barely move.
        for w in ["crc", "bitcount"] {
            for col in &t.cols {
                let v = t.get(w, col).unwrap();
                assert!(v.abs() < 60.0, "{w}/{col}: {v:.1}% — should be modest");
            }
        }
    }

    #[test]
    fn fig7_amat_reductions_exist() {
        let s = store();
        let t = fig7(&s);
        assert_eq!(t.rows.len(), 12);
        let col_avg = t.get("Average", "Column_associative").unwrap();
        assert!(col_avg > 0.0, "column-associative average {col_avg:.2}");
    }

    #[test]
    fn fig11_programmable_assoc_improves_uniformity() {
        let s = store();
        let t = fig11(&s);
        // Paper: adaptive and B-cache show significant kurtosis
        // *reductions*. The arithmetic mean is dominated by blow-ups on
        // near-zero baselines (visible as the paper's own pathological
        // bars), so assert on robust statistics: the median change is
        // non-positive and several workloads show strong reductions.
        for col in ["Adaptive_Cache", "B_Cache"] {
            let c = t.cols.iter().position(|x| x == col).unwrap();
            let mut vals: Vec<f64> = t
                .values
                .iter()
                .take(11)
                .map(|r| r[c])
                .filter(|v| v.is_finite())
                .collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = vals[vals.len() / 2];
            assert!(median <= 0.0, "{col} median kurtosis change {median:.1}");
            let strong = vals.iter().filter(|&&v| v < -50.0).count();
            assert!(strong >= 3, "{col}: only {strong} strong reductions");
        }
    }

    #[test]
    fn fig12_shape() {
        let s = store();
        let t = fig12(&s);
        assert_eq!(t.cols.len(), 3);
        assert_eq!(t.rows.len(), 12);
    }
}
