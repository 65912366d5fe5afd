//! Figures 13 and 14 — the multithreaded (SMT) experiments.

use crate::figures::paper_geom;
use crate::{ExperimentTable, SimStore};
use std::sync::Arc;
use unicache_core::{CacheModel, IndexFunction, TaggedLane};
use unicache_indexing::{ModuloIndex, OddMultiplierIndex, RECOMMENDED_MULTIPLIERS};
use unicache_smt::{
    run_interleaved, AdaptivePartitionedCache, InterleavePolicy, PartitionedCache,
    PerThreadIndexCache,
};
use unicache_stats::percent_reduction;
use unicache_timing::{amat_adaptive, amat_conventional, LatencyModel};
use unicache_workloads::Workload;

/// The multithreaded mixes of Fig. 13, exactly as labelled in the paper.
pub fn fig13_mixes() -> Vec<Vec<Workload>> {
    use Workload::*;
    vec![
        vec![Bitcount, Adpcm],
        vec![Bzip2, Libquantum],
        vec![Fft, Susan],
        vec![Gromacs, Namd],
        vec![Milc, Namd],
        vec![Qsort, Basicmath],
        vec![Qsort, Patricia],
        vec![Fft, Basicmath, Patricia, Susan],
        vec![Susan, Bitcount, Adpcm, Patricia],
    ]
}

/// The multithreaded mixes of Fig. 14.
pub fn fig14_mixes() -> Vec<Vec<Workload>> {
    use Workload::*;
    vec![
        vec![Bitcount, Adpcm],
        vec![Fft, Susan],
        vec![Qsort, Basicmath],
        vec![Qsort, Fft],
        vec![Qsort, Patricia],
        vec![Libquantum, Milc],
        vec![Milc, Namd],
        vec![Gromacs, Namd],
        vec![Bzip2, Libquantum],
        vec![Fft, Basicmath, Patricia, Susan],
        vec![Susan, Bitcount, Adpcm, Patricia],
    ]
}

fn mix_label(mix: &[Workload]) -> String {
    mix.iter().map(|w| w.name()).collect::<Vec<_>>().join("_")
}

/// Replays the interleaved `mix` through every lane in one chunked
/// traversal ([`run_interleaved`]: the merge streams straight into
/// tagged chunk scratch, so no merged or decoded copy is allocated) and
/// counts the replayed lane-records into the store.
fn replay_mix(
    store: &SimStore,
    mix: &[Workload],
    policy: InterleavePolicy,
    lanes: &mut [&mut dyn TaggedLane],
) {
    let traces: Vec<Arc<unicache_trace::Trace>> = mix.iter().map(|&w| store.get(w)).collect();
    let refs: Vec<&unicache_trace::Trace> = traces.iter().map(|t| &**t).collect();
    let records = run_interleaved(&refs, policy, lanes);
    store.count_records(records as u64 * lanes.len() as u64);
}

/// **Figure 13** — % reduction in misses when each thread of a shared
/// direct-mapped L1 uses a *different odd multiplier* for its index,
/// relative to every thread using the conventional index.
pub fn fig13(store: &SimStore) -> ExperimentTable {
    fig13_with(store, InterleavePolicy::RoundRobin)
}

/// [`fig13`] with an explicit interleaving policy (the ablation DESIGN.md
/// calls out: stochastic fetch interleaving vs the round-robin default).
pub fn fig13_with(store: &SimStore, policy: InterleavePolicy) -> ExperimentTable {
    let mixes = fig13_mixes();
    let all: Vec<Workload> = mixes.iter().flatten().copied().collect();
    store.prefetch_traces(&all);
    let geom = paper_geom();
    let sets = geom.num_sets();
    let rows: Vec<String> = mixes.iter().map(|m| mix_label(m)).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&mixes, |mix| {
        // Baseline: every thread conventional.
        let conventional: Vec<Arc<dyn IndexFunction>> = (0..mix.len())
            .map(|_| Arc::new(ModuloIndex::new(sets).expect("pow2")) as Arc<dyn IndexFunction>)
            .collect();
        let mut base = PerThreadIndexCache::new(geom, conventional).expect("valid shared cache");
        // Treatment: per-thread odd multipliers (9, 21, 31, 61, ...).
        let per_thread: Vec<Arc<dyn IndexFunction>> = (0..mix.len())
            .map(|t| {
                let m = RECOMMENDED_MULTIPLIERS[t % RECOMMENDED_MULTIPLIERS.len()];
                Arc::new(OddMultiplierIndex::new(sets, m).expect("odd")) as Arc<dyn IndexFunction>
            })
            .collect();
        let mut treat = PerThreadIndexCache::new(geom, per_thread).expect("valid shared cache");
        replay_mix(store, mix, policy, &mut [&mut base, &mut treat]);
        vec![percent_reduction(
            base.stats().miss_rate(),
            treat.stats().miss_rate(),
        )]
    });
    ExperimentTable::new(
        "Fig. 13: multiple indexing schemes in multithreaded systems",
        "% reduction in miss-rate vs shared conventional indexing",
        rows,
        vec!["PerThread_Odd_Multiplier".to_string()],
        values,
    )
    .with_average()
}

/// **Figure 14** — % improvement in AMAT of the adaptive *partitioned*
/// cache (equal partitions + shared SHT/OUT spill) over plain equal
/// partitioning.
pub fn fig14(store: &SimStore) -> ExperimentTable {
    let mixes = fig14_mixes();
    let all: Vec<Workload> = mixes.iter().flatten().copied().collect();
    store.prefetch_traces(&all);
    let geom = paper_geom();
    let lat = LatencyModel::default();
    let rows: Vec<String> = mixes.iter().map(|m| mix_label(m)).collect();
    let values: Vec<Vec<f64>> = unicache_exec::map(&mixes, |mix| {
        let mut stat = PartitionedCache::new(geom, mix.len()).expect("divisible");
        let mut adpt = AdaptivePartitionedCache::new(geom, mix.len()).expect("divisible");
        replay_mix(
            store,
            mix,
            InterleavePolicy::RoundRobin,
            &mut [&mut stat, &mut adpt],
        );
        let base_amat = amat_conventional(stat.stats(), &lat);
        let adpt_amat = amat_adaptive(adpt.stats(), &lat);
        vec![percent_reduction(base_amat, adpt_amat)]
    });
    ExperimentTable::new(
        "Fig. 14: adaptive partitioned scheme for multithreaded applications",
        "% improvement in AMAT vs statically partitioned cache (Eq. 8)",
        rows,
        vec!["Adaptive_Partitioned".to_string()],
        values,
    )
    .with_average()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn mix_labels_match_paper() {
        let labels: Vec<String> = fig13_mixes().iter().map(|m| mix_label(m)).collect();
        assert_eq!(labels[0], "bitcount_adpcm");
        assert_eq!(labels[7], "fft_basicmath_patricia_susan");
        assert_eq!(fig13_mixes().len(), 9);
        assert_eq!(fig14_mixes().len(), 11);
    }

    #[test]
    fn fig13_reduces_misses_on_average() {
        let store = SimStore::new(Scale::Tiny);
        let t = fig13(&store);
        assert_eq!(t.rows.len(), 10); // 9 mixes + Average
        let avg = t.get("Average", "PerThread_Odd_Multiplier").unwrap();
        assert!(
            avg > 0.0,
            "per-thread indexing should reduce misses on average: {avg:.2}"
        );
    }

    #[test]
    fn fig14_improves_amat_on_average() {
        let store = SimStore::new(Scale::Tiny);
        let t = fig14(&store);
        assert_eq!(t.rows.len(), 12); // 11 mixes + Average
        let avg = t.get("Average", "Adaptive_Partitioned").unwrap();
        assert!(
            avg > 0.0,
            "adaptive partitioning should improve AMAT on average: {avg:.2}"
        );
    }
}

#[cfg(test)]
mod interleave_policy_tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn stochastic_interleaving_preserves_the_fig13_story() {
        let store = SimStore::new(Scale::Tiny);
        let rr = fig13_with(&store, InterleavePolicy::RoundRobin);
        let st = fig13_with(&store, InterleavePolicy::Stochastic { seed: 17 });
        // The headline (positive average reduction) must be robust to the
        // interleaving policy — it reflects address structure, not fetch
        // order.
        let rr_avg = rr.get("Average", "PerThread_Odd_Multiplier").unwrap();
        let st_avg = st.get("Average", "PerThread_Odd_Multiplier").unwrap();
        assert!(
            rr_avg > 0.0 && st_avg > 0.0,
            "rr {rr_avg:.1} st {st_avg:.1}"
        );
        // And they must not be wildly different.
        assert!(
            (rr_avg - st_avg).abs() < 25.0,
            "policy changed the story: rr {rr_avg:.1} vs stochastic {st_avg:.1}"
        );
    }
}
