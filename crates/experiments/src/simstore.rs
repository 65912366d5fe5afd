//! A memoizing *simulation-result* store shared across figure runners.
//!
//! The paper's figures overlap heavily: Fig. 4 and Figs. 9/10 run the
//! same five indexing schemes; the scheme-selection table re-runs all of
//! Fig. 4 *and* Fig. 6; the online-selection oracle re-runs Fig. 6's
//! three caches; nearly everything re-runs the direct-mapped baseline.
//! Before this store existed, `xp all` simulated each of those
//! combinations once *per figure*.
//!
//! [`SimStore`] memoizes final [`CacheStats`] under the key
//! `(workload, scheme, geometry)` — the scale is fixed per store, like
//! [`crate::TraceStore`] — so every figure that needs "fft under XOR
//! indexing at the paper L1" shares one simulation. One further level is
//! memoized beneath the results because it is a shared *input* to the
//! simulations: the one-pass [`WorkloadSummary`] per `(workload, line
//! size)`, whose sorted unique block list trains the Givargis schemes.
//! The traces themselves are not re-encoded: each traversal views
//! `trace.records()` as a [`BlockStream`] and decodes one chunk at a
//! time (see `unicache_core::batch`), so no decoded copy of a solo trace
//! outlives its chunk.
//!
//! Exactly-once simulation is enforced the same way [`crate::TraceStore`]
//! enforces exactly-once generation: results live in per-key `OnceLock`
//! cells, and all simulation for a `(workload, geometry)` group runs
//! under that group's mutex, re-checking cell emptiness after acquiring
//! it. Requests that differ *only in scheme* therefore land in one
//! [`FuseGroup`] — the schedulable unit — and every still-missing scheme
//! of the group runs in one *fused* traversal of the stream
//! ([`run_fused`]): the records are decoded once per chunk and each
//! member scheme's cache ("lane") is stepped over the decoded chunk,
//! giving one virtual dispatch per (lane, chunk) instead of per
//! (model, record). [`SimStore::prefetch_groups`] schedules one
//! `unicache-exec` task per group (`xp --jobs N` sets the worker count;
//! results are collected in canonical order, so output is
//! schedule-independent), and pre-generates traces only for groups that
//! still have pending work — fully-cached groups touch neither the trace
//! store nor the executor. [`SimStore::run_egress`] runs one scheme as
//! a lane that also logs its L2 traffic for the AMAT hierarchy; that
//! traffic is not memoized, so the pass always runs, and it fills the
//! key's result cell if still empty, like any other pass.
//!
//! The multi-thread figures — Figs. 13/14 and the coherent sweep —
//! memoize nothing here: `SimStore::replay_mix` streams each mix's
//! interleave straight into tagged chunks (the merged `MemRecord` trace
//! is never materialised) and only counts the replayed records, as no
//! other figure reads their outcomes.
//!
//! The [`SimStore::hits`]/[`SimStore::sims_run`] counters make the
//! exactly-once property observable (and testable): after any sequence
//! of figure runs, `sims_run` equals the number of *distinct* keys ever
//! requested.

use crate::TraceStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use unicache_assoc::{AdaptiveGroupCache, BCache, ColumnAssociativeCache, SkewedCache};
use unicache_core::hasher::det_map;
use unicache_core::DetHashMap;
use unicache_core::{
    run_fused, run_fused_egress, BlockAddr, BlockStream, CacheGeometry, CacheModel, CacheStats,
    Egress, FusedLane, ThreadId,
};
use unicache_indexing::IndexScheme;
use unicache_sim::CacheBuilder;
use unicache_smt::{run_interleaved, InterleavePolicy};
use unicache_trace::{Trace, WorkloadSummary};
use unicache_workloads::{Scale, Workload};

/// Identity of one simulated cache organisation — the scheme axis of the
/// [`SimStore`] key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// Conventional direct-mapped baseline (modulo index, LRU).
    Baseline,
    /// Conventional cache with a Section II indexing scheme attached.
    Index(IndexScheme),
    /// Column-associative cache, conventional primary index.
    ColumnAssoc,
    /// Column-associative cache with a custom primary index (Fig. 8).
    ColumnAssocWith(IndexScheme),
    /// Adaptive group-associative cache.
    Adaptive,
    /// Balanced cache (programmable decoders).
    BCache,
    /// Two-way skewed-associative cache.
    Skewed,
}

impl SchemeId {
    /// Does building this scheme require the workload's unique-block
    /// training list (the Givargis family)?
    fn needs_training(self) -> bool {
        matches!(
            self,
            SchemeId::Index(IndexScheme::Givargis)
                | SchemeId::Index(IndexScheme::GivargisXor)
                | SchemeId::ColumnAssocWith(IndexScheme::Givargis)
                | SchemeId::ColumnAssocWith(IndexScheme::GivargisXor)
        )
    }

    /// Instantiates the model this id names.
    ///
    /// `training` must be `Some` for the Givargis schemes (callers go
    /// through [`SimStore`], which supplies it automatically).
    pub fn build_model(
        self,
        geom: CacheGeometry,
        training: Option<&[BlockAddr]>,
    ) -> Box<dyn CacheModel> {
        // Every registered scheme is a fused lane; upcast to the plain
        // model interface for per-record callers.
        self.build_lane(geom, training)
    }

    /// Instantiates the model as a fused-kernel lane (the chunk-stepping
    /// interface [`run_fused`] drives). Same constructors as
    /// [`SchemeId::build_model`] — every registered scheme is fusable.
    pub fn build_lane(
        self,
        geom: CacheGeometry,
        training: Option<&[BlockAddr]>,
    ) -> Box<dyn FusedLane> {
        match self {
            SchemeId::Baseline => Box::new(
                CacheBuilder::new(geom)
                    .name("baseline")
                    .build()
                    .expect("baseline geometry is valid"),
            ),
            SchemeId::Index(scheme) => {
                let f = scheme.build(geom, training).expect("scheme construction");
                Box::new(
                    CacheBuilder::new(geom)
                        .index(f)
                        .build()
                        .expect("valid cache"),
                )
            }
            SchemeId::ColumnAssoc => {
                Box::new(ColumnAssociativeCache::new(geom).expect("valid column cache"))
            }
            SchemeId::ColumnAssocWith(scheme) => {
                let f = scheme.build(geom, training).expect("scheme construction");
                Box::new(ColumnAssociativeCache::with_index(geom, f).expect("valid hybrid cache"))
            }
            SchemeId::Adaptive => Box::new(AdaptiveGroupCache::new(geom).expect("valid adaptive")),
            SchemeId::BCache => Box::new(BCache::new(geom).expect("valid b-cache")),
            SchemeId::Skewed => Box::new(SkewedCache::new(geom).expect("valid skewed cache")),
        }
    }
}

type Cell<T> = Arc<OnceLock<Arc<T>>>;
type SummaryKey = (Workload, u64);
type ResultKey = (Workload, SchemeId, CacheGeometry);
type GroupKey = (Workload, CacheGeometry);
/// Memoized simulation results (plus their shared inputs), one scale per
/// store.
pub struct SimStore {
    traces: Arc<TraceStore>,
    summaries: Mutex<DetHashMap<SummaryKey, Cell<WorkloadSummary>>>,
    results: Mutex<DetHashMap<ResultKey, Cell<CacheStats>>>,
    groups: Mutex<DetHashMap<GroupKey, Arc<Mutex<()>>>>,
    hits: AtomicU64,
    sims_run: AtomicU64,
    records_simulated: AtomicU64,
    summaries_built: AtomicU64,
    /// Fused traversals run: one per fuse group with pending work.
    fused_passes: AtomicU64,
}

/// One schedulable unit of fused simulation: every scheme in `schemes`
/// shares a single traversal of `workload`'s trace at `geom`'s line
/// size, each chunk decoded once for all of them. Requests that differ
/// only in scheme belong in the *same* group — building one group per
/// scheme would re-register the trace work per scheme and forfeit the
/// fusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuseGroup {
    /// The workload whose stream the group traverses.
    pub workload: Workload,
    /// The shared cache geometry (fuse-groups never mix line sizes or
    /// set counts — every lane consumes the same decoded blocks).
    pub geom: CacheGeometry,
    /// The member schemes, in the order results are returned.
    pub schemes: Vec<SchemeId>,
}

impl FuseGroup {
    /// A group over one workload and geometry.
    pub fn new(workload: Workload, geom: CacheGeometry, schemes: &[SchemeId]) -> Self {
        FuseGroup {
            workload,
            geom,
            schemes: schemes.to_vec(),
        }
    }
}

impl SimStore {
    /// A store simulating workloads generated at `scale`.
    pub fn new(scale: Scale) -> Self {
        SimStore {
            traces: Arc::new(TraceStore::new(scale)),
            summaries: Mutex::new(det_map()),
            results: Mutex::new(det_map()),
            groups: Mutex::new(det_map()),
            hits: AtomicU64::new(0),
            sims_run: AtomicU64::new(0),
            records_simulated: AtomicU64::new(0),
            summaries_built: AtomicU64::new(0),
            fused_passes: AtomicU64::new(0),
        }
    }

    /// The scale this store generates and simulates at.
    pub fn scale(&self) -> Scale {
        self.traces.scale()
    }

    /// The underlying trace store (for runners that consume raw records:
    /// Belady, Patel, phase analysis, SMT mixes, hierarchies).
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// The (possibly cached) trace of `w` — delegates to the trace store.
    pub fn get(&self, w: Workload) -> Arc<Trace> {
        self.traces.get(w)
    }

    /// Pre-generates traces in parallel — delegates to the trace store.
    pub fn prefetch_traces(&self, workloads: &[Workload]) {
        self.traces.prefetch(workloads);
    }

    fn cell_of<K: std::hash::Hash + Eq, T>(map: &Mutex<DetHashMap<K, Cell<T>>>, key: K) -> Cell<T> {
        let mut guard = map.lock().unwrap();
        Arc::clone(guard.entry(key).or_default())
    }

    fn group_lock(&self, key: GroupKey) -> Arc<Mutex<()>> {
        let mut guard = self.groups.lock().unwrap();
        Arc::clone(guard.entry(key).or_default())
    }

    /// The one-pass workload summary of `w` at `line_bytes` (footprint
    /// with per-block reference counts, access mix, stride profile —
    /// see [`WorkloadSummary`]), computed at most once per trace-store
    /// entry. Both the analytical model and the access-mix statistics of
    /// the characterization figure draw from this single pass.
    pub fn summary(&self, w: Workload, line_bytes: u64) -> Arc<WorkloadSummary> {
        let cell = Self::cell_of(&self.summaries, (w, line_bytes));
        Arc::clone(cell.get_or_init(|| {
            let _span = unicache_obs::span("summarize");
            unicache_obs::count(unicache_obs::Event::ModelSummaryBuild);
            self.summaries_built.fetch_add(1, Ordering::Relaxed);
            let trace = self.traces.get(w);
            Arc::new(trace.summarize(line_bytes))
        }))
    }

    /// The sorted unique block list of `w` at `line_bytes` (Givargis
    /// training input) — the footprint slice of [`SimStore::summary`],
    /// shared with it rather than recomputed (the summary's footprint
    /// count produces exactly this list).
    pub fn unique_blocks(&self, w: Workload, line_bytes: u64) -> Arc<Vec<BlockAddr>> {
        Arc::clone(&self.summary(w, line_bytes).blocks)
    }

    /// Streams the interleave of `mix` under `policy` to `step` in
    /// tagged chunks at `line_bytes`-byte lines ([`run_interleaved`]: no
    /// merged or decoded copy of the mix is allocated), and counts
    /// `lanes` replays of every merged record into
    /// [`SimStore::records_simulated`]. The SMT figures and the coherent
    /// sweep replay their mixes this way, outside the result cells, as
    /// no other figure reads their outcomes.
    pub(crate) fn replay_mix(
        &self,
        mix: &[Workload],
        policy: InterleavePolicy,
        line_bytes: u64,
        lanes: usize,
        step: impl FnMut(&[BlockAddr], &[bool], &[ThreadId]),
    ) {
        let traces: Vec<Arc<Trace>> = mix.iter().map(|&w| self.traces.get(w)).collect();
        let refs: Vec<&Trace> = traces.iter().map(|t| &**t).collect();
        let records = run_interleaved(&refs, policy, line_bytes, step);
        self.count_records(records as u64 * lanes as u64);
    }

    /// Simulates every scheme of the `(w, geom)` group whose result cell
    /// is still empty, in one fused traversal, under the group lock.
    fn simulate_group(&self, w: Workload, schemes: &[SchemeId], geom: CacheGeometry) {
        let cells: Vec<(SchemeId, Cell<CacheStats>)> = schemes
            .iter()
            .map(|&s| (s, Self::cell_of(&self.results, (w, s, geom))))
            .collect();
        let lock = self.group_lock((w, geom));
        let _guard = lock.lock().unwrap();
        let pending: Vec<&(SchemeId, Cell<CacheStats>)> = cells
            .iter()
            .filter(|(_, cell)| cell.get().is_none())
            .collect();
        if pending.is_empty() {
            return;
        }
        let _span = unicache_obs::span("simulate");
        let schemes: Vec<SchemeId> = pending.iter().map(|(s, _)| *s).collect();
        let lanes = self.fused_pass(w, &schemes, geom, |refs, stream| run_fused(refs, stream));
        for ((_, cell), lane) in pending.iter().zip(&lanes) {
            // set() can only fail if someone else initialized the cell,
            // which the group lock rules out.
            cell.set(Arc::new(lane.stats().clone()))
                .expect("group lock guarantees sole initializer");
        }
        self.sims_run
            .fetch_add(pending.len() as u64, Ordering::Relaxed);
    }

    /// One fused pass of `schemes` over `w`'s trace at `geom`: builds a
    /// lane per scheme (with the training list if any scheme needs it),
    /// lets `drive` step them over the trace's block stream, counts the
    /// pass and its records, and returns the lanes.
    fn fused_pass(
        &self,
        w: Workload,
        schemes: &[SchemeId],
        geom: CacheGeometry,
        drive: impl FnOnce(&mut [&mut dyn FusedLane], &BlockStream),
    ) -> Vec<Box<dyn FusedLane>> {
        let training = if schemes.iter().any(|s| s.needs_training()) {
            Some(self.unique_blocks(w, geom.line_bytes()))
        } else {
            None
        };
        let trace = self.traces.get(w);
        let stream = BlockStream::from_records(trace.records(), geom.line_bytes());
        let mut lanes: Vec<Box<dyn FusedLane>> = schemes
            .iter()
            .map(|s| s.build_lane(geom, training.as_ref().map(|u| u.as_slice())))
            .collect();
        {
            let mut refs: Vec<&mut dyn FusedLane> = lanes
                .iter_mut()
                .map(|m| m.as_mut() as &mut dyn FusedLane)
                .collect();
            unicache_obs::count(unicache_obs::Event::FusedPass);
            unicache_obs::observe(unicache_obs::HistEvent::FusedGroupLanes, refs.len() as u64);
            drive(&mut refs, &stream);
        }
        self.fused_passes.fetch_add(1, Ordering::Relaxed);
        self.records_simulated
            .fetch_add(stream.len() as u64 * lanes.len() as u64, Ordering::Relaxed);
        lanes
    }

    /// Runs `scheme` over `w`'s trace at `geom` as a lane that also logs
    /// its [`Egress`], chunk by chunk, to `drain` (see
    /// [`run_fused_egress`]), and returns its stats. The egress is not
    /// memoized, so the pass runs even when the result is cached; it
    /// fills the result cell if still empty, under the group lock, so
    /// later `stats`/`prefetch` requests for the key are memo hits.
    pub fn run_egress(
        &self,
        w: Workload,
        scheme: SchemeId,
        geom: CacheGeometry,
        mut drain: impl FnMut(&Egress),
    ) -> Arc<CacheStats> {
        let cell = Self::cell_of(&self.results, (w, scheme, geom));
        let lock = self.group_lock((w, geom));
        let _guard = lock.lock().unwrap();
        let lanes = self.fused_pass(w, &[scheme], geom, |refs, stream| {
            run_fused_egress(refs, stream, |_, egress| drain(egress))
        });
        let mut filled = false;
        let stats = Arc::clone(cell.get_or_init(|| {
            filled = true;
            Arc::new(lanes[0].stats().clone())
        }));
        self.sims_run
            .fetch_add(u64::from(filled), Ordering::Relaxed);
        stats
    }

    /// The final statistics of `w` simulated under `scheme` at `geom`,
    /// simulating at most once per distinct key across all threads and
    /// figures.
    pub fn stats(&self, w: Workload, scheme: SchemeId, geom: CacheGeometry) -> Arc<CacheStats> {
        let cell = Self::cell_of(&self.results, (w, scheme, geom));
        if let Some(v) = cell.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(v);
        }
        self.simulate_group(w, &[scheme], geom);
        Arc::clone(cell.get().expect("simulate_group filled the cell"))
    }

    /// Runs one fuse-group to completion and returns its members' stats
    /// in `group.schemes` order. Already-cached members are served from
    /// their cells; the rest share a single fused traversal.
    pub fn run_fused(&self, group: &FuseGroup) -> Vec<Arc<CacheStats>> {
        self.simulate_group(group.workload, &group.schemes, group.geom);
        group
            .schemes
            .iter()
            .map(|&s| {
                let cell = Self::cell_of(&self.results, (group.workload, s, group.geom));
                Arc::clone(cell.get().expect("simulate_group filled every member cell"))
            })
            .collect()
    }

    /// Pre-simulates a set of fuse-groups, one executor task per group.
    ///
    /// Groups whose members are all cached are dropped up front, and
    /// trace pre-generation covers only the remaining groups' workloads —
    /// a fully-warm prefetch touches neither the trace store nor the
    /// executor.
    pub fn prefetch_groups(&self, groups: &[FuseGroup]) {
        let pending: Vec<&FuseGroup> = groups
            .iter()
            .filter(|g| {
                g.schemes.iter().any(|&s| {
                    Self::cell_of(&self.results, (g.workload, s, g.geom))
                        .get()
                        .is_none()
                })
            })
            .collect();
        if pending.is_empty() {
            return;
        }
        let mut workloads: Vec<Workload> = Vec::new();
        for g in &pending {
            if !workloads.contains(&g.workload) {
                workloads.push(g.workload);
            }
        }
        self.traces.prefetch(&workloads);
        let _: Vec<()> = unicache_exec::map(&pending, |g| {
            self.simulate_group(g.workload, &g.schemes, g.geom)
        });
    }

    /// Pre-simulates `workloads × schemes` at `geom`: one fuse-group per
    /// workload (schemes differing only in scheme share the group — and
    /// its single traversal), groups in parallel across cores.
    pub fn prefetch(&self, workloads: &[Workload], schemes: &[SchemeId], geom: CacheGeometry) {
        let groups: Vec<FuseGroup> = workloads
            .iter()
            .map(|&w| FuseGroup::new(w, geom, schemes))
            .collect();
        self.prefetch_groups(&groups);
    }

    /// Result-cache hits: `stats` calls served from an already-populated
    /// cell.
    pub fn hits(&self) -> u64 {
        // Allowed Relaxed read: monotone counter, only rendered by
        // `xp --timing` after the worker scope has joined (a happens-before
        // edge), and timing output is explicitly host-dependent.
        self.hits.load(Ordering::Relaxed) // uca:allow(relaxed-output)
    }

    /// Number of simulations actually executed (one per distinct key).
    pub fn sims_run(&self) -> u64 {
        // Allowed Relaxed read: monotone counter, only rendered by
        // `xp --timing` after the worker scope has joined (a happens-before
        // edge), and timing output is explicitly host-dependent.
        self.sims_run.load(Ordering::Relaxed) // uca:allow(relaxed-output)
    }

    /// Adds `records` lane-records replayed outside the result cells
    /// (the SMT figures) to [`SimStore::records_simulated`].
    pub(crate) fn count_records(&self, records: u64) {
        self.records_simulated.fetch_add(records, Ordering::Relaxed);
    }

    /// Total references driven through models (`Σ stream length × models
    /// simulated`, the SMT figures' replays included) — the denominator
    /// of `--timing`'s records/sec.
    pub fn records_simulated(&self) -> u64 {
        // Allowed Relaxed read: monotone counter, only rendered by
        // `xp --timing` after the worker scope has joined (a happens-before
        // edge), and timing output is explicitly host-dependent.
        self.records_simulated.load(Ordering::Relaxed) // uca:allow(relaxed-output)
    }

    /// Always 0: no traversal materialises a decoded stream. Solo
    /// traversals decode per chunk, and the multi-thread figures stream
    /// their mixes in tagged chunks (`SimStore::replay_mix`). Kept only
    /// for the `benchmark/` package, whose `experiments.streams_decoded`
    /// metric reads it.
    pub fn streams_decoded(&self) -> u64 {
        0
    }

    /// Number of workload summaries actually computed (one per distinct
    /// `(workload, line size)` pair, shared by the analytical model, the
    /// Givargis training lists and the characterization stats).
    pub fn summaries_built(&self) -> u64 {
        // Allowed Relaxed read: monotone counter, only rendered by
        // `xp --timing` after the worker scope has joined (a happens-before
        // edge), and timing output is explicitly host-dependent.
        self.summaries_built.load(Ordering::Relaxed) // uca:allow(relaxed-output)
    }

    /// Number of distinct results currently cached.
    pub fn cached_results(&self) -> usize {
        let guard = self.results.lock().unwrap();
        guard.values().filter(|c| c.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::CacheGeometry;

    fn paper() -> CacheGeometry {
        CacheGeometry::paper_l1()
    }

    #[test]
    fn stats_memoizes_and_counts() {
        let store = SimStore::new(Scale::Tiny);
        let a = store.stats(Workload::Crc, SchemeId::Baseline, paper());
        assert_eq!(store.sims_run(), 1);
        assert_eq!(store.hits(), 0);
        let b = store.stats(Workload::Crc, SchemeId::Baseline, paper());
        assert!(Arc::ptr_eq(&a, &b), "second request returns the cached arc");
        assert_eq!(store.sims_run(), 1, "no re-simulation");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.records_simulated(), a.accesses());
    }

    #[test]
    fn batched_result_equals_legacy_run() {
        let store = SimStore::new(Scale::Tiny);
        let geom = paper();
        let batched = store.stats(Workload::Fft, SchemeId::Baseline, geom);
        let trace = store.get(Workload::Fft);
        let mut legacy = SchemeId::Baseline.build_model(geom, None);
        legacy.run(trace.records());
        assert_eq!(
            *batched,
            *legacy.stats(),
            "batched engine must be bit-identical"
        );
    }

    #[test]
    fn prefetch_is_exactly_once_and_shared_with_stats() {
        let store = SimStore::new(Scale::Tiny);
        let geom = paper();
        let ws = [Workload::Crc, Workload::Sha];
        let schemes = [
            SchemeId::Baseline,
            SchemeId::ColumnAssoc,
            SchemeId::Adaptive,
        ];
        store.prefetch(&ws, &schemes, geom);
        assert_eq!(store.sims_run(), 6);
        assert_eq!(store.cached_results(), 6);
        // Re-prefetching (any overlap) simulates nothing new.
        store.prefetch(&ws, &schemes[..2], geom);
        assert_eq!(store.sims_run(), 6);
        // And stats() serves from the pool.
        for &w in &ws {
            for &s in &schemes {
                store.stats(w, s, geom);
            }
        }
        assert_eq!(store.sims_run(), 6, "every stats call was a cache hit");
        assert_eq!(store.hits(), 6);
    }

    #[test]
    fn concurrent_stats_simulate_exactly_once() {
        let store = SimStore::new(Scale::Tiny);
        let geom = paper();
        let arcs: Vec<Arc<CacheStats>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| store.stats(Workload::Fft, SchemeId::BCache, geom)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
        assert_eq!(store.sims_run(), 1);
    }

    #[test]
    fn givargis_training_is_supplied_and_memoized() {
        let store = SimStore::new(Scale::Tiny);
        let geom = paper();
        let s = store.stats(
            Workload::Qsort,
            SchemeId::Index(IndexScheme::Givargis),
            geom,
        );
        assert!(s.accesses() > 0);
        let u1 = store.unique_blocks(Workload::Qsort, geom.line_bytes());
        let u2 = store.unique_blocks(Workload::Qsort, geom.line_bytes());
        assert!(Arc::ptr_eq(&u1, &u2));
    }

    fn passes(store: &SimStore) -> u64 {
        store.fused_passes.load(Ordering::Relaxed)
    }

    #[test]
    fn fused_group_runs_all_members_on_one_decode() {
        let store = SimStore::new(Scale::Tiny);
        let geom = paper();
        let schemes = [
            SchemeId::Baseline,
            SchemeId::Index(IndexScheme::Xor),
            SchemeId::ColumnAssoc,
            SchemeId::Skewed,
        ];
        let group = FuseGroup::new(Workload::Crc, geom, &schemes);
        let stats = store.run_fused(&group);
        assert_eq!(stats.len(), schemes.len());
        assert_eq!(store.sims_run(), schemes.len() as u64);
        assert_eq!(passes(&store), 1, "one traversal for the group");
        // Members are the same cells stats() serves.
        for (i, &s) in schemes.iter().enumerate() {
            let solo = store.stats(Workload::Crc, s, geom);
            assert!(Arc::ptr_eq(&stats[i], &solo));
        }
        assert_eq!(store.sims_run(), schemes.len() as u64);
    }

    #[test]
    fn fused_group_stats_equal_solo_simulation() {
        let fused = SimStore::new(Scale::Tiny);
        let solo = SimStore::new(Scale::Tiny);
        let geom = paper();
        let schemes = [
            SchemeId::Baseline,
            SchemeId::Index(IndexScheme::Givargis),
            SchemeId::ColumnAssocWith(IndexScheme::Xor),
            SchemeId::Adaptive,
            SchemeId::BCache,
        ];
        let group = FuseGroup::new(Workload::Fft, geom, &schemes);
        let fused_stats = fused.run_fused(&group);
        for (i, &s) in schemes.iter().enumerate() {
            // Each solo run is its own single-member group — a separate
            // traversal per scheme.
            let lone = solo.stats(Workload::Fft, s, geom);
            assert_eq!(*fused_stats[i], *lone, "{s:?} diverged under fusion");
        }
        assert_eq!(solo.sims_run(), schemes.len() as u64);
    }

    #[test]
    fn scheme_only_differences_share_one_group_decode_under_threads() {
        // Regression: requests differing only in scheme must land in one
        // fuse-group entry (one group lock, one trace), not re-register
        // the trace per scheme — even when eight threads race on the
        // group. Each request is a group of one: one traversal apiece.
        let store = SimStore::new(Scale::Tiny);
        let geom = paper();
        let schemes = [
            SchemeId::Baseline,
            SchemeId::Index(IndexScheme::Xor),
            SchemeId::Index(IndexScheme::PrimeModulo),
            SchemeId::ColumnAssoc,
            SchemeId::Adaptive,
            SchemeId::BCache,
            SchemeId::Skewed,
            SchemeId::Index(IndexScheme::OddMultiplier(21)),
        ];
        let store = &store;
        std::thread::scope(|s| {
            let handles: Vec<_> = schemes
                .iter()
                .map(|&scheme| s.spawn(move || store.stats(Workload::Sha, scheme, geom)))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(store.groups.lock().unwrap().len(), 1, "one group entry");
        assert_eq!(store.traces().cached(), 1, "one trace for the group");
        assert_eq!(passes(store), schemes.len() as u64, "one pass per request");
        assert_eq!(store.sims_run(), schemes.len() as u64);
    }

    #[test]
    fn warm_prefetch_touches_nothing() {
        let store = SimStore::new(Scale::Tiny);
        let geom = paper();
        let ws = [Workload::Crc];
        let schemes = [SchemeId::Baseline, SchemeId::Skewed];
        store.prefetch(&ws, &schemes, geom);
        let traces_after = store.traces().cached();
        assert_eq!(passes(&store), 1, "one traversal for the cold group");
        // A fully-warm prefetch must not generate further traces or
        // traverse them again (it used to re-run trace prefetch
        // unconditionally).
        store.prefetch(&ws, &schemes, geom);
        assert_eq!(store.traces().cached(), traces_after);
        assert_eq!(passes(&store), 1, "no traversal when warm");
        assert_eq!(store.sims_run(), 2);
    }

    #[test]
    fn distinct_geometries_are_distinct_keys() {
        let store = SimStore::new(Scale::Tiny);
        let g1 = CacheGeometry::from_sets(8, 32, 1).unwrap();
        let g2 = CacheGeometry::from_sets(8, 32, 2).unwrap();
        let a = store.stats(Workload::Crc, SchemeId::Baseline, g1);
        let b = store.stats(Workload::Crc, SchemeId::Baseline, g2);
        assert_eq!(store.sims_run(), 2);
        assert!(b.misses() <= a.misses(), "2-way no worse than 1-way here");
    }
}
