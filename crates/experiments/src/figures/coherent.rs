//! `xp coherent` — the paper's uniformity questions re-asked under
//! multi-core coherence.
//!
//! Figures 3/7 ask how flat the per-set access/miss distributions are for
//! a solo L1. This experiment asks the same question where modern misses
//! actually happen: private L1s disturbed by invalidation traffic, and a
//! shared inclusive L2 fed by several cores' conflict evictions. It
//! sweeps indexing scheme x core count x victim-buffer depth over one
//! four-thread mix and reports, per configuration:
//!
//! * the merged L1 demand miss rate and the shared-L2 local miss rate;
//! * coherence traffic density (invalidations / interventions per 1k
//!   accesses);
//! * kurtosis of the per-set miss distribution (the paper's Fig. 9
//!   lens, now summed across cores);
//! * the dead-time fraction and MRU-hit ratio — the two line-level
//!   uniformity lenses from `unicache-stats`.
//!
//! Everything is deterministic: the bus is serialized in trace order and
//! timestamps come from the logical clock.
//!
//! Scheduling is *fused*: the three schemes of each (cores, victim
//! depth) cell form one [`CoherentGroup`], so the sweep runs 6 chunked
//! groups instead of 18 per-record replays — groups fanned out through
//! `unicache_exec::map` (order-preserving). All 18 hierarchies read the
//! [`SimStore`]'s one packed coherent stream of the mix, built once
//! straight from the interleave; each hierarchy decodes it per chunk.
//! The hierarchies themselves are replayed directly, like the SMT
//! figures' mixes: no other figure reads their outcomes, so the store
//! memoizes only the stream.

use crate::{ExperimentTable, SimStore};
use unicache_core::{CacheGeometry, CoherentModel};
use unicache_hierarchy::{run_coherent_stream, CoherentHierarchy, HierarchyBuilder, L2Mode};
use unicache_indexing::IndexScheme;
use unicache_smt::InterleavePolicy;
use unicache_stats::Moments;
use unicache_workloads::Workload;

/// The four-thread mix the coherent hierarchy replays (one of the
/// paper's Fig. 13 mixes, so results line up with the SMT experiments).
pub fn coherent_mix() -> Vec<Workload> {
    use Workload::*;
    vec![Fft, Basicmath, Patricia, Susan]
}

/// The schemes the sweep compares: the conventional baseline plus the
/// two training-free families the paper finds most effective.
fn sweep_schemes() -> Vec<IndexScheme> {
    vec![
        IndexScheme::Conventional,
        IndexScheme::Xor,
        IndexScheme::PrimeModulo,
    ]
}

const CORE_COUNTS: [usize; 3] = [1, 2, 4];
const VICTIM_DEPTHS: [usize; 2] = [0, 4];

/// The per-core L1 of the sweep: 8 KB 2-way (128 sets x 32 B). Smaller
/// than the paper's 32 KB evaluation L1 so conflict misses — the thing
/// victim buffers exist to absorb — stay visible at tiny/small scales,
/// and 2-way so the MRU-hit lens has a recency axis to measure (a
/// direct-mapped cache hits at rank 0 by construction).
fn sweep_l1_geom() -> CacheGeometry {
    CacheGeometry::from_sets(128, 32, 2).expect("valid L1 geometry")
}

/// The shared L2 behind the private L1s: 8x the sets, 4-way, same line
/// size (64 KB for the 8 KB L1) — large enough that inclusion
/// back-invalidations stay rare even with four cores' aggregate
/// footprint above it.
fn l2_geom(l1: CacheGeometry) -> CacheGeometry {
    CacheGeometry::from_sets(l1.num_sets() * 8, l1.line_bytes(), 4).expect("valid L2 geometry")
}

/// One schedulable unit of fused coherent simulation: every scheme in
/// `schemes` shares one hierarchy configuration and the store's one
/// [`unicache_core::CoherentStream`] of the mix. The members run one at
/// a time over the stream ([`run_coherent_stream`]), each decoding it
/// per chunk — a shift, a mask and a core-table lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherentGroup {
    /// The workload mix of the shared stream.
    pub mix: Vec<Workload>,
    /// How the mix is interleaved.
    pub policy: InterleavePolicy,
    /// Per-core L1 geometry.
    pub geom: CacheGeometry,
    /// Core count.
    pub cores: usize,
    /// Per-core victim-buffer depth.
    pub victim_depth: usize,
    /// Shared-L2 geometry, or `None` for pass-through.
    pub l2: Option<CacheGeometry>,
    /// The member schemes (training-free: the merged mix has no
    /// single-workload training list).
    pub schemes: Vec<IndexScheme>,
}

impl CoherentGroup {
    /// The hierarchy of member `scheme`: this group's geometry, cores,
    /// victim depth and L2, with the chunked kernel on.
    pub fn hierarchy(&self, scheme: IndexScheme) -> HierarchyBuilder {
        let index = scheme
            .build(self.geom, None)
            .expect("coherent sweep schemes are training-free");
        HierarchyBuilder::new(self.geom, index)
            .cores(self.cores)
            .victim_depth(self.victim_depth)
            .l2(match self.l2 {
                Some(l2) => L2Mode::Shared(l2),
                None => L2Mode::PassThrough,
            })
    }

    /// Replays every member over the store's stream of the mix, one
    /// hierarchy at a time, and returns each member's row in `schemes`
    /// order.
    fn run(&self, store: &SimStore) -> Vec<Vec<f64>> {
        let _span = unicache_obs::span("simulate-coherent");
        // One pass event per group: independent of `--jobs` and of
        // `HierarchyBuilder::chunked`, so the metrics artifact stays
        // byte-identical across worker counts.
        unicache_obs::count(unicache_obs::Event::CohFusedPass);
        unicache_obs::observe(
            unicache_obs::HistEvent::CohGroupLanes,
            self.schemes.len() as u64,
        );
        let stream = store.coherent_stream(&self.mix, self.policy, self.geom.line_bytes());
        // One lane at a time: each hierarchy's working set (3 L1s + L2
        // + lenses) is small enough to stay host-cache-resident for a
        // whole stream pass, which is worth more than sharing each
        // chunk's decode (a shift and a table lookup per record) across
        // lanes would save. The chunked kernel still batch-indexes
        // within the lane.
        let rows = self
            .schemes
            .iter()
            .map(|&s| {
                let mut h = self.hierarchy(s).build().expect("valid hierarchy");
                run_coherent_stream(&mut [&mut h], &stream);
                row(&h)
            })
            .collect();
        store.count_records(stream.len() as u64 * self.schemes.len() as u64);
        rows
    }
}

/// The sweep's seven columns for one replayed hierarchy.
fn row(h: &CoherentHierarchy) -> Vec<f64> {
    let merged = h.merged_core_stats();
    let coh = h.coherence_stats();
    let accesses = merged.accesses() as f64;
    let per_k = 1000.0 / accesses.max(1.0);
    let l2_lookups = coh.l2_demand_hits + coh.memory_fetches;
    let l2_miss_pct = if l2_lookups == 0 {
        0.0
    } else {
        100.0 * coh.memory_fetches as f64 / l2_lookups as f64
    };
    vec![
        100.0 * merged.miss_rate(),
        l2_miss_pct,
        coh.invalidations as f64 * per_k,
        coh.interventions as f64 * per_k,
        Moments::from_counts(&merged.misses_per_set()).kurtosis,
        100.0 * h.merged_lifetime().dead_fraction(),
        100.0 * h.merged_recency().mru_ratio(),
    ]
}

/// The sweep's cells: one fuse-group per (cores, victim depth), in
/// sweep order, each holding the three schemes over the mix's
/// round-robin interleave on the sweep's L1 and shared L2.
pub fn coherent_groups() -> Vec<CoherentGroup> {
    let mix = coherent_mix();
    let geom = sweep_l1_geom();
    let schemes = sweep_schemes();
    CORE_COUNTS
        .iter()
        .flat_map(|&c| {
            let mix = &mix;
            let schemes = &schemes;
            VICTIM_DEPTHS.iter().map(move |&v| CoherentGroup {
                mix: mix.clone(),
                policy: InterleavePolicy::RoundRobin,
                geom,
                cores: c,
                victim_depth: v,
                l2: Some(l2_geom(geom)),
                schemes: schemes.clone(),
            })
        })
        .collect()
}

/// **`xp coherent`** — scheme x cores x victim-depth sweep of the
/// MESI-coherent hierarchy over the shared four-thread mix.
pub fn coherent(store: &SimStore) -> ExperimentTable {
    let schemes = sweep_schemes();
    let groups = coherent_groups();
    store.prefetch_traces(&coherent_mix());
    // One task per (cores, victim depth) group; rows come back per group
    // in scheme order.
    let per_group: Vec<Vec<Vec<f64>>> = unicache_exec::map(&groups, |g| g.run(store));
    // Rows are scheme-outer: each scheme, then the groups in their
    // (cores, victim depth) order.
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for (si, s) in schemes.iter().enumerate() {
        for (g, group_rows) in groups.iter().zip(&per_group) {
            rows.push(format!("{}_c{}_v{}", s.label(), g.cores, g.victim_depth));
            values.push(group_rows[si].clone());
        }
    }
    ExperimentTable::new(
        "Coherent hierarchy: uniformity under MESI traffic (scheme x cores x victim depth)",
        "L1 miss % | L2 miss % | invalidations/1k | interventions/1k | miss kurtosis | dead time % | MRU hits %",
        rows,
        vec![
            "L1_miss_pct".to_string(),
            "L2_miss_pct".to_string(),
            "inval_per_1k".to_string(),
            "interv_per_1k".to_string(),
            "miss_kurtosis".to_string(),
            "dead_time_pct".to_string(),
            "mru_hit_pct".to_string(),
        ],
        values,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn coherent_sweep_has_expected_shape() {
        let store = SimStore::new(Scale::Tiny);
        let t = coherent(&store);
        assert_eq!(t.rows.len(), 18); // 3 schemes x 3 core counts x 2 depths
        assert_eq!(t.cols.len(), 7);
        assert!(t.rows[0].ends_with("_c1_v0"), "got {}", t.rows[0]);
    }

    #[test]
    fn coherent_sweep_replays_one_shared_stream() {
        let store = SimStore::new(Scale::Tiny);
        let t1 = coherent(&store);
        // All 18 hierarchies read one coherent stream, and the trace
        // store holds only the mix's per-thread traces: no merged trace.
        assert_eq!(
            store.streams_decoded(),
            1,
            "one stream per (mix, policy, line)"
        );
        assert_eq!(store.traces().cached(), coherent_mix().len());
        let stream = store.coherent_stream(&coherent_mix(), InterleavePolicy::RoundRobin, 32);
        let per_render = 18 * stream.len() as u64;
        assert_eq!(store.records_simulated(), per_render, "18 replays");
        // The hierarchies are replayed, not memoized: a second render
        // re-runs all 18 over the same stream, with the same values.
        let t2 = coherent(&store);
        assert_eq!(store.streams_decoded(), 1);
        assert_eq!(store.records_simulated(), 2 * per_render);
        assert_eq!((store.sims_run(), store.hits()), (0, 0));
        assert_eq!(t1.values, t2.values, "re-render must be identical");
    }

    #[test]
    fn single_core_rows_have_no_coherence_traffic() {
        let store = SimStore::new(Scale::Tiny);
        let t = coherent(&store);
        for (r, row) in t.rows.iter().enumerate() {
            if row.contains("_c1_") {
                assert_eq!(t.values[r][2], 0.0, "{row}: invalidations on 1 core");
                assert_eq!(t.values[r][3], 0.0, "{row}: interventions on 1 core");
            }
        }
    }

    #[test]
    fn more_cores_do_not_reduce_bus_invalidations() {
        let store = SimStore::new(Scale::Tiny);
        let t = coherent(&store);
        // Conventional scheme, depth 0: invalidations/1k must be
        // monotone non-decreasing in core count (more sharers = more
        // write-invalidate targets).
        let get = |c: usize| {
            let row = format!("conventional_c{c}_v0");
            let r = t.rows.iter().position(|x| *x == row).expect("row exists");
            t.values[r][2]
        };
        assert!(get(2) >= get(1));
        assert!(get(4) > 0.0, "4 cores on a shared mix must invalidate");
    }
}
