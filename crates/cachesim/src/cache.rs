//! The conventional set-associative cache with a pluggable index function.
//!
//! This single type instantiates, depending on its parameters:
//! * the paper's **baseline** (direct-mapped, conventional modulo index),
//! * every Section II indexing variant (attach a different
//!   [`IndexFunction`]),
//! * the higher-associativity comparison points (2/4/8-way), and
//! * the L2 of the simulated hierarchy.
//!
//! Every access, one at a time or a fused chunk at a time, runs the same
//! per-record body, generic over the shape of the set store (DESIGN §12).
//! A fused chunk picks that shape once — a direct-mapped [`PackedSets`],
//! an N-way one, or one [`CacheSet`] per set — and replays every record
//! through the body. Per-set counters move on every record; the
//! aggregate totals are added into [`CacheStats`] once per chunk through
//! [`CacheStats::tally`].

use crate::packed::PackedSets;
use crate::set::{CacheSet, ReplacementPolicy};
use std::sync::Arc;
use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, Egress,
    EgressSink, FusedLane, HitWhere, IndexFunction, MemRecord, Result, StatsSink,
};

/// Set storage backing a [`Cache`].
///
/// LRU and FIFO caches use [`PackedSets`]; `Random` needs a per-set
/// seeded RNG and `TreePlru` a per-set bit tree, so those keep one
/// [`CacheSet`] per set. Both stores implement identical LRU/FIFO
/// semantics — see the lockstep tests in [`crate::packed`].
enum SetStore {
    Packed(PackedSets),
    PerSet(Vec<CacheSet>),
}

impl SetStore {
    fn probe(&self, set: usize, block: u64) -> bool {
        match self {
            SetStore::Packed(s) => s.probe(set, block).is_some(),
            SetStore::PerSet(sets) => sets[set].probe(block).is_some(),
        }
    }

    fn flush(&mut self) {
        match self {
            SetStore::Packed(s) => s.flush(),
            SetStore::PerSet(sets) => sets.iter_mut().for_each(CacheSet::flush),
        }
    }
}

/// One shape of set store, as the commit loop sees it.
trait Lines {
    /// Looks `block` up in `set`; a hit updates the replacement metadata
    /// and, on a write, the dirty bit.
    fn lookup(&mut self, set: usize, block: BlockAddr, is_write: bool) -> bool;
    /// Fills `block` into `set` and returns the valid block it evicted.
    fn fill(&mut self, set: usize, block: BlockAddr, is_write: bool) -> Option<BlockAddr>;
}

/// A direct-mapped [`PackedSets`]: the same store, without its `ways`
/// test on the hit path.
struct DirectMapped<'a>(&'a mut PackedSets);

impl Lines for DirectMapped<'_> {
    #[inline(always)]
    fn lookup(&mut self, set: usize, block: BlockAddr, is_write: bool) -> bool {
        self.0.lookup_dm(set, block, is_write)
    }
    #[inline(always)]
    fn fill(&mut self, set: usize, block: BlockAddr, is_write: bool) -> Option<BlockAddr> {
        self.0.fill(set, block, is_write).evicted
    }
}

impl Lines for PackedSets {
    #[inline(always)]
    fn lookup(&mut self, set: usize, block: BlockAddr, is_write: bool) -> bool {
        PackedSets::lookup(self, set, block, is_write)
    }
    #[inline(always)]
    fn fill(&mut self, set: usize, block: BlockAddr, is_write: bool) -> Option<BlockAddr> {
        PackedSets::fill(self, set, block, is_write).evicted
    }
}

impl Lines for [CacheSet] {
    #[inline(always)]
    fn lookup(&mut self, set: usize, block: BlockAddr, is_write: bool) -> bool {
        self[set].lookup(block, is_write).is_some()
    }
    #[inline(always)]
    fn fill(&mut self, set: usize, block: BlockAddr, is_write: bool) -> Option<BlockAddr> {
        self[set].fill(block, is_write).evicted
    }
}

/// The per-record body of the commit loop: one access with its set index
/// already computed, its counters written to `sink`.
#[inline(always)]
fn commit<L: Lines + ?Sized, S: StatsSink>(
    lines: &mut L,
    sink: &mut S,
    set: usize,
    block: BlockAddr,
    is_write: bool,
) -> AccessResult {
    sink.write(is_write);
    if lines.lookup(set, block, is_write) {
        sink.record(set, HitWhere::Primary);
        return AccessResult {
            where_hit: HitWhere::Primary,
            set,
            evicted: None,
        };
    }
    sink.record(set, HitWhere::MissDirect);
    let evicted = lines.fill(set, block, is_write);
    if evicted.is_some() {
        sink.eviction(set);
    }
    AccessResult {
        where_hit: HitWhere::MissDirect,
        set,
        evicted,
    }
}

/// Replays a chunk through [`commit`] on one store shape, each outcome
/// sent to `egress`; the aggregate totals reach `stats` once, at the end.
#[inline(always)]
fn replay<L: Lines + ?Sized, E: EgressSink>(
    lines: &mut L,
    stats: &mut CacheStats,
    sets: &[usize],
    blocks: &[BlockAddr],
    writes: &[bool],
    egress: &mut E,
) {
    stats.tally(|t| {
        for ((&set, &block), &w) in sets.iter().zip(blocks).zip(writes) {
            let r = commit(lines, t, set, block, w);
            egress.access(block, &r);
        }
    });
}

/// A set-associative cache.
pub struct Cache {
    geom: CacheGeometry,
    index: Arc<dyn IndexFunction>,
    store: SetStore,
    stats: CacheStats,
    name: String,
    /// Chunk-sized set-index scratch reused across fused steps.
    idx_buf: Vec<usize>,
}

/// Builder for [`Cache`].
///
/// ```
/// use unicache_sim::CacheBuilder;
/// use unicache_core::{CacheGeometry, CacheModel};
///
/// let cache = CacheBuilder::new(CacheGeometry::paper_l1()).build().unwrap();
/// assert_eq!(cache.geometry().num_sets(), 1024);
/// ```
pub struct CacheBuilder {
    geom: CacheGeometry,
    index: Option<Arc<dyn IndexFunction>>,
    policy: ReplacementPolicy,
    seed: u64,
    name: Option<String>,
}

impl CacheBuilder {
    /// A builder with the paper's defaults: conventional indexing, LRU.
    /// Every store miss allocates (write-allocate).
    pub fn new(geom: CacheGeometry) -> Self {
        CacheBuilder {
            geom,
            index: None,
            policy: ReplacementPolicy::Lru,
            seed: 0x5EED,
            name: None,
        }
    }

    /// Attaches a non-conventional index function.
    pub fn index(mut self, f: Arc<dyn IndexFunction>) -> Self {
        self.index = Some(f);
        self
    }

    /// Selects the replacement policy (default LRU).
    pub fn replacement(mut self, p: ReplacementPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Seed for the `Random` replacement policy.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the report name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Builds the cache.
    ///
    /// # Errors
    /// [`ConfigError::Mismatch`] if the index function produces more sets
    /// than the geometry has.
    pub fn build(self) -> Result<Cache> {
        let geom = self.geom;
        let index: Arc<dyn IndexFunction> = match self.index {
            Some(f) => f,
            None => Arc::new(unicache_indexing::ModuloIndex::new(geom.num_sets())?),
        };
        if index.num_sets() > geom.num_sets() {
            return Err(ConfigError::Mismatch {
                what: format!(
                    "index function '{}' covers {} sets but cache has {}",
                    index.name(),
                    index.num_sets(),
                    geom.num_sets()
                ),
            });
        }
        let name = self
            .name
            .unwrap_or_else(|| format!("cache({}, {}-way)", index.name(), geom.ways()));
        let stamp_based = matches!(
            self.policy,
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo
        );
        let store = if stamp_based {
            SetStore::Packed(PackedSets::new(
                geom.num_sets(),
                geom.ways() as usize,
                self.policy == ReplacementPolicy::Lru,
            ))
        } else {
            SetStore::PerSet(
                (0..geom.num_sets())
                    .map(|i| CacheSet::new(geom.ways() as usize, self.policy, self.seed ^ i as u64))
                    .collect(),
            )
        };
        Ok(Cache {
            geom,
            index,
            store,
            stats: CacheStats::new(geom.num_sets()),
            name,
            idx_buf: Vec::new(),
        })
    }
}

impl Cache {
    /// Shorthand: the paper's baseline L1 (32 KB direct-mapped,
    /// conventional index, 32 B lines).
    pub fn paper_baseline() -> Self {
        match CacheBuilder::new(CacheGeometry::paper_l1())
            .name("baseline_direct_mapped")
            .build()
        {
            Ok(cache) => cache,
            // paper_l1 is a power-of-two shape and the default builder
            // attaches no index function, so build cannot fail.
            Err(e) => unreachable!("baseline configuration is valid: {e}"),
        }
    }

    /// The attached index function.
    pub fn index_fn(&self) -> &Arc<dyn IndexFunction> {
        &self.index
    }

    /// Probes for a block without disturbing state (for tests/inspection).
    pub fn contains_block(&self, block: u64) -> bool {
        let set = self.index.index_block(block);
        self.store.probe(set, block)
    }

    /// One access with its set index computed: [`commit`] for a single
    /// record, with the store's shape picked per record and the counters
    /// written straight into the stats.
    #[inline]
    fn access_at(&mut self, set: usize, block: BlockAddr, is_write: bool) -> AccessResult {
        unicache_obs::count(unicache_obs::Event::CacheProbe);
        let stats = &mut self.stats;
        match &mut self.store {
            SetStore::Packed(s) => commit(s, stats, set, block, is_write),
            SetStore::PerSet(s) => commit(s.as_mut_slice(), stats, set, block, is_write),
        }
    }
}

impl CacheModel for Cache {
    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn access(&mut self, rec: MemRecord) -> AccessResult {
        self.access_block(self.geom.block_addr(rec.addr), rec.kind.is_write())
    }

    fn access_block(&mut self, block: u64, is_write: bool) -> AccessResult {
        let set = self.index.index_block(block);
        self.access_at(set, block, is_write)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn flush(&mut self) {
        self.store.flush();
        self.stats.reset();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl Cache {
    /// The chunk body: one virtual `index_many` computes the whole
    /// chunk's set indices (its monomorphized body inlines the concrete
    /// hash), then the commit loop replays the chunk with zero virtual
    /// dispatch, sending each outcome to `egress`.
    #[inline(always)]
    fn step<E: EgressSink>(&mut self, blocks: &[BlockAddr], writes: &[bool], egress: &mut E) {
        let mut sets = std::mem::take(&mut self.idx_buf);
        sets.resize(blocks.len(), 0);
        self.index.index_many(blocks, &mut sets);
        unicache_obs::count_by(unicache_obs::Event::CacheProbe, blocks.len() as u64);
        // The commit loop: the store's shape is picked once per chunk.
        let stats = &mut self.stats;
        match &mut self.store {
            SetStore::Packed(s) if self.geom.ways() == 1 => {
                replay(&mut DirectMapped(s), stats, &sets, blocks, writes, egress)
            }
            SetStore::Packed(s) => replay(s, stats, &sets, blocks, writes, egress),
            SetStore::PerSet(s) => replay(s.as_mut_slice(), stats, &sets, blocks, writes, egress),
        }
        self.idx_buf = sets;
    }
}

impl FusedLane for Cache {
    fn step_chunk(&mut self, blocks: &[BlockAddr], writes: &[bool]) {
        self.step(blocks, writes, &mut ());
    }

    fn step_chunk_egress(&mut self, blocks: &[BlockAddr], writes: &[bool], egress: &mut Egress) {
        self.step(blocks, writes, egress);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unicache_core::MemRecord;
    use unicache_indexing::{OddMultiplierIndex, PrimeModuloIndex, XorIndex};

    fn small_geom() -> CacheGeometry {
        CacheGeometry::from_sets(8, 32, 1).unwrap()
    }

    #[test]
    fn builder_defaults() {
        let c = Cache::paper_baseline();
        assert_eq!(c.geometry().num_sets(), 1024);
        assert_eq!(c.name(), "baseline_direct_mapped");
        assert_eq!(c.index_fn().name(), "conventional");
    }

    #[test]
    fn cold_then_hit() {
        let mut c = CacheBuilder::new(small_geom()).build().unwrap();
        let r1 = c.access(MemRecord::read(0x100));
        assert!(!r1.is_hit());
        let r2 = c.access(MemRecord::read(0x100));
        assert!(r2.is_hit());
        // Same line, different byte: still a hit.
        let r3 = c.access(MemRecord::read(0x11F));
        assert!(r3.is_hit());
        // Next line: miss.
        let r4 = c.access(MemRecord::read(0x120));
        assert!(!r4.is_hit());
        assert_eq!(c.stats().hits(), 2);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn direct_mapped_conflict_ping_pong() {
        let mut c = CacheBuilder::new(small_geom()).build().unwrap();
        // Two addresses 8 lines apart share set 0 under modulo-8.
        let a = 0x000u64;
        let b = 0x100u64; // 8 * 32
        for _ in 0..10 {
            c.access(MemRecord::read(a));
            c.access(MemRecord::read(b));
        }
        assert_eq!(c.stats().misses(), 20, "every access conflicts");
        assert_eq!(c.stats().per_set()[0].misses, 20);
    }

    #[test]
    fn two_way_absorbs_the_ping_pong() {
        let geom = CacheGeometry::from_sets(8, 32, 2).unwrap();
        let mut c = CacheBuilder::new(geom).build().unwrap();
        let a = 0x000u64;
        let b = 0x200u64; // same set modulo 8 lines (8*32*2? -> block 16 % 8 = 0)
        for _ in 0..10 {
            c.access(MemRecord::read(a));
            c.access(MemRecord::read(b));
        }
        assert_eq!(c.stats().misses(), 2, "only the two cold misses remain");
    }

    #[test]
    fn xor_index_separates_the_conflict() {
        let mut c = CacheBuilder::new(small_geom())
            .index(Arc::new(XorIndex::new(8).unwrap()))
            .build()
            .unwrap();
        // Blocks 0 and 8: same modulo-8 set, different tag -> XOR separates.
        let a = 0u64;
        let b = 8 * 32u64;
        for _ in 0..10 {
            c.access(MemRecord::read(a));
            c.access(MemRecord::read(b));
        }
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn prime_modulo_leaves_top_sets_cold() {
        let geom = CacheGeometry::from_sets(8, 32, 1).unwrap();
        let mut c = CacheBuilder::new(geom)
            .index(Arc::new(PrimeModuloIndex::new(8).unwrap())) // prime 7
            .build()
            .unwrap();
        for i in 0..1000u64 {
            c.access(MemRecord::read(i * 32));
        }
        assert_eq!(c.stats().per_set()[7].accesses, 0, "fragmented set");
    }

    #[test]
    fn eviction_reporting_for_writeback() {
        let mut c = CacheBuilder::new(small_geom()).build().unwrap();
        c.access(MemRecord::write(0x000));
        let r = c.access(MemRecord::read(0x100)); // conflicts in set 0
        assert_eq!(r.evicted, Some(0));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn flush_and_reset() {
        let mut c = CacheBuilder::new(small_geom()).build().unwrap();
        c.access(MemRecord::read(0x40));
        assert!(c.contains_block(2));
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.contains_block(2), "reset_stats keeps contents");
        c.flush();
        assert!(!c.contains_block(2));
    }

    #[test]
    fn index_function_with_more_sets_is_rejected() {
        let err = CacheBuilder::new(small_geom())
            .index(Arc::new(OddMultiplierIndex::new(16, 9).unwrap()))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn index_function_with_fewer_sets_is_allowed() {
        // A 4-set index on an 8-set cache just never touches sets 4..8
        // (deliberate, e.g. Patel indexes trained for a smaller space).
        let c = CacheBuilder::new(small_geom())
            .index(Arc::new(unicache_indexing::ModuloIndex::new(4).unwrap()))
            .build();
        assert!(c.is_ok());
    }

    #[test]
    fn random_policy_keeps_per_set_storage_and_stays_deterministic() {
        let geom = CacheGeometry::from_sets(8, 32, 4).unwrap();
        let run = |seed: u64| {
            let mut c = CacheBuilder::new(geom)
                .replacement(ReplacementPolicy::Random)
                .seed(seed)
                .build()
                .unwrap();
            for i in 0..2000u64 {
                c.access(MemRecord::read((i * 37 % 512) * 32));
            }
            c.stats().clone()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn fused_step_chunk_equals_run() {
        use unicache_core::{run_fused, BlockStream, FusedLane};
        let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let recs: Vec<MemRecord> = (0..9000u64)
            .map(|i| MemRecord::read(((i * 131) % 4096) * 32))
            .collect();
        let stream = BlockStream::from_records(&recs, 32);
        let mut solo = CacheBuilder::new(geom)
            .index(Arc::new(XorIndex::new(64).unwrap()))
            .build()
            .unwrap();
        let mut fused = CacheBuilder::new(geom)
            .index(Arc::new(XorIndex::new(64).unwrap()))
            .build()
            .unwrap();
        solo.run(&recs);
        {
            let mut lanes: Vec<&mut dyn FusedLane> = vec![&mut fused];
            run_fused(&mut lanes, &stream);
        }
        assert_eq!(solo.stats(), fused.stats());
    }

    #[test]
    fn run_whole_trace() {
        let mut c = Cache::paper_baseline();
        let trace: Vec<MemRecord> = (0..10_000u64).map(|i| MemRecord::read(i * 32)).collect();
        c.run(&trace);
        assert_eq!(c.stats().accesses(), 10_000);
        // Sequential sweep larger than the cache: all cold/capacity misses.
        assert_eq!(c.stats().misses(), 10_000);
    }
}

#[cfg(test)]
mod inclusion_tests {
    use super::*;
    use proptest::prelude::*;
    use unicache_core::MemRecord;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// LRU is a stack algorithm: per set, every hit in a k-way cache is
        /// also a hit in a 2k-way cache with the same set count (inclusion
        /// property). Verified end-to-end through the simulator.
        #[test]
        fn lru_inclusion_property(
            blocks in proptest::collection::vec(0u64..512, 50..400)
        ) {
            let g_small = CacheGeometry::from_sets(8, 32, 2).unwrap();
            let g_big = CacheGeometry::from_sets(8, 32, 4).unwrap();
            let mut small = CacheBuilder::new(g_small).build().unwrap();
            let mut big = CacheBuilder::new(g_big).build().unwrap();
            for &b in &blocks {
                let rec = MemRecord::read(b * 32);
                let rs = small.access(rec);
                let rb = big.access(rec);
                if rs.is_hit() {
                    prop_assert!(rb.is_hit(), "inclusion violated at block {b}");
                }
            }
            prop_assert!(big.stats().misses() <= small.stats().misses());
        }

        /// FIFO is NOT a stack algorithm in general, but miss counts still
        /// respect cold-miss lower bounds.
        #[test]
        fn any_policy_pays_cold_misses(
            blocks in proptest::collection::vec(0u64..256, 1..300),
            policy in prop_oneof![
                Just(crate::set::ReplacementPolicy::Lru),
                Just(crate::set::ReplacementPolicy::Fifo),
                Just(crate::set::ReplacementPolicy::Random),
                Just(crate::set::ReplacementPolicy::TreePlru),
            ]
        ) {
            let g = CacheGeometry::from_sets(16, 32, 2).unwrap();
            let mut c = CacheBuilder::new(g).replacement(policy).build().unwrap();
            for &b in &blocks {
                c.access(MemRecord::read(b * 32));
            }
            let unique = blocks.iter().collect::<std::collections::HashSet<_>>().len() as u64;
            prop_assert!(c.stats().misses() >= unique);
            prop_assert!(c.stats().misses() <= blocks.len() as u64);
        }
    }
}
