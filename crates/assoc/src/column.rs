//! Column-associative cache (paper Section III.A; Agarwal & Pudar, paper reference 2).
//!
//! A direct-mapped cache that, on a first-probe miss, re-probes the set
//! whose index has the most-significant index bit flipped ("column" of the
//! other half). A **rehash bit** per set records whether the resident line
//! was placed via the flipped index:
//!
//! * first-probe hit → 1-cycle hit;
//! * first-probe miss in a set whose rehash bit is **set** → replace in
//!   place, clear the rehash bit (no second probe — the resident was
//!   somebody's secondary copy, so the conventional owner wins the set
//!   back);
//! * otherwise probe the alternate set: hit there → 2-cycle hit **and the
//!   two lines swap** so the next access hits first-probe;
//! * miss in both → the primary resident is *moved* to the alternate set
//!   (rehash bit of the alternate set := 1) instead of being evicted, and
//!   the new block fills the primary set.
//!
//! The primary index is pluggable — the paper's Fig. 8 attaches XOR,
//! odd-multiplier and prime-modulo primaries to exactly this structure.

use std::sync::Arc;
use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, Egress,
    EgressSink, FusedLane, HitWhere, IndexFunction, MemRecord, Result,
};
use unicache_indexing::ModuloIndex;

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    /// True if this line was filled via the flipped (rehash) index.
    rehash: bool,
}

impl Line {
    fn empty() -> Self {
        Line {
            block: 0,
            valid: false,
            dirty: false,
            rehash: false,
        }
    }
}

/// A column-associative (pseudo-associative) cache.
pub struct ColumnAssociativeCache {
    geom: CacheGeometry,
    index: Arc<dyn IndexFunction>,
    lines: Vec<Line>,
    stats: CacheStats,
    flip_mask: usize,
    name: String,
    /// Chunk-sized primary-index scratch reused across fused steps.
    idx_buf: Vec<usize>,
}

impl ColumnAssociativeCache {
    /// Column-associative cache with the conventional primary index.
    pub fn new(geom: CacheGeometry) -> Result<Self> {
        let idx: Arc<dyn IndexFunction> = Arc::new(ModuloIndex::new(geom.num_sets())?);
        Self::with_index(geom, idx)
    }

    /// Column-associative cache with a custom primary index (Fig. 8).
    pub fn with_index(geom: CacheGeometry, index: Arc<dyn IndexFunction>) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "column-associative cache is built from a direct-mapped cache".into(),
            });
        }
        if geom.num_sets() < 2 {
            return Err(ConfigError::OutOfRange {
                what: "column-associative sets",
                expected: ">= 2".into(),
                got: geom.num_sets() as u64,
            });
        }
        if index.num_sets() > geom.num_sets() {
            return Err(ConfigError::Mismatch {
                what: format!(
                    "index '{}' covers {} sets, cache has {}",
                    index.name(),
                    index.num_sets(),
                    geom.num_sets()
                ),
            });
        }
        let name = format!("column_associative({})", index.name());
        Ok(ColumnAssociativeCache {
            geom,
            index,
            lines: vec![Line::empty(); geom.num_sets()],
            stats: CacheStats::new(geom.num_sets()),
            flip_mask: geom.num_sets() / 2,
            name,
            idx_buf: Vec::new(),
        })
    }

    /// The alternate ("column") set: most-significant index bit flipped.
    #[inline]
    pub fn alternate_of(&self, set: usize) -> usize {
        set ^ self.flip_mask
    }

    /// The primary set of a block under the attached index.
    #[inline]
    pub fn primary_of(&self, block: BlockAddr) -> usize {
        self.index.index_block(block)
    }

    /// True if `block` is resident (either location).
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        let p = self.primary_of(block);
        let a = self.alternate_of(p);
        (self.lines[p].valid && self.lines[p].block == block)
            || (self.lines[a].valid && self.lines[a].block == block)
    }

    /// Rehash bit of a set (for tests).
    pub fn rehash_bit(&self, set: usize) -> bool {
        self.lines[set].rehash
    }

    /// One access with the primary set already computed — the shared tail
    /// of [`CacheModel::access_block`] and the fused chunk step (which
    /// vectorizes the primary-index computation and replays this per
    /// record). The first-probe → reclaim → second-probe+swap → displace
    /// sequence and its obs events are identical in both paths.
    #[inline]
    fn access_with_primary(&mut self, p: usize, block: u64, is_write: bool) -> AccessResult {
        if is_write {
            self.stats.record_write();
        }
        unicache_obs::count(unicache_obs::Event::ColumnProbe);
        let a = self.alternate_of(p);

        // First probe.
        if self.lines[p].valid && self.lines[p].block == block {
            if is_write {
                self.lines[p].dirty = true;
            }
            self.stats.record(p, HitWhere::Primary);
            return AccessResult {
                where_hit: HitWhere::Primary,
                set: p,
                evicted: None,
            };
        }

        // Direct miss into a rehashed set: reclaim without a second probe.
        if self.lines[p].valid && self.lines[p].rehash {
            unicache_obs::count(unicache_obs::Event::ColumnReclaim);
            let evicted = Some(self.lines[p].block);
            self.stats.record(p, HitWhere::MissDirect);
            self.stats.record_eviction(p);
            self.lines[p] = Line {
                block,
                valid: true,
                dirty: is_write,
                rehash: false,
            };
            return AccessResult {
                where_hit: HitWhere::MissDirect,
                set: p,
                evicted,
            };
        }

        // Second probe (the alternate column).
        unicache_obs::count(unicache_obs::Event::ColumnSecondProbe);
        if self.lines[a].valid && self.lines[a].block == block {
            unicache_obs::count(unicache_obs::Event::ColumnSwap);
            // Swap so the next reference first-probe hits.
            let mut incoming = self.lines[a];
            if is_write {
                incoming.dirty = true;
            }
            let outgoing = self.lines[p];
            self.lines[p] = Line {
                rehash: false,
                ..incoming
            };
            self.lines[a] = if outgoing.valid {
                Line {
                    rehash: true,
                    ..outgoing
                }
            } else {
                Line::empty()
            };
            self.stats.record(p, HitWhere::Secondary);
            self.stats.record_relocation();
            return AccessResult {
                where_hit: HitWhere::Secondary,
                set: p,
                evicted: None,
            };
        }

        // Miss in both: displace the primary resident into the alternate
        // set (rehash := 1) rather than evicting it; the alternate's old
        // resident is the true victim.
        let displaced = self.lines[p];
        let evicted = if self.lines[a].valid {
            self.stats.record_eviction(a);
            Some(self.lines[a].block)
        } else {
            None
        };
        self.lines[a] = if displaced.valid {
            unicache_obs::count(unicache_obs::Event::ColumnDisplace);
            self.stats.record_relocation();
            Line {
                rehash: true,
                ..displaced
            }
        } else {
            Line::empty()
        };
        self.lines[p] = Line {
            block,
            valid: true,
            dirty: is_write,
            rehash: false,
        };
        self.stats.record(p, HitWhere::MissAfterProbe);
        AccessResult {
            where_hit: HitWhere::MissAfterProbe,
            set: p,
            evicted,
        }
    }
}

impl CacheModel for ColumnAssociativeCache {
    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn access(&mut self, rec: MemRecord) -> AccessResult {
        self.access_block(self.geom.block_addr(rec.addr), rec.kind.is_write())
    }

    fn access_block(&mut self, block: u64, is_write: bool) -> AccessResult {
        let p = self.primary_of(block);
        self.access_with_primary(p, block, is_write)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::empty();
        }
        self.stats.reset();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl ColumnAssociativeCache {
    /// The chunk body: the pluggable primary index (the only virtual
    /// call on the per-record path) is vectorized with one `index_many`
    /// per chunk; the probe/reclaim/swap/displace state machine then runs
    /// per record with zero virtual dispatch, each outcome sent to
    /// `egress`.
    #[inline(always)]
    fn step<E: EgressSink>(&mut self, blocks: &[u64], writes: &[bool], egress: &mut E) {
        let mut primaries = std::mem::take(&mut self.idx_buf);
        primaries.resize(blocks.len(), 0);
        let index = Arc::clone(&self.index);
        index.index_many(blocks, &mut primaries);
        for ((&p, &block), &is_write) in primaries.iter().zip(blocks).zip(writes) {
            let r = self.access_with_primary(p, block, is_write);
            egress.access(block, &r);
        }
        self.idx_buf = primaries;
    }
}

impl FusedLane for ColumnAssociativeCache {
    fn step_chunk(&mut self, blocks: &[u64], writes: &[bool]) {
        self.step(blocks, writes, &mut ());
    }

    fn step_chunk_egress(&mut self, blocks: &[u64], writes: &[bool], egress: &mut Egress) {
        self.step(blocks, writes, egress);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_indexing::XorIndex;

    fn geom8() -> CacheGeometry {
        CacheGeometry::from_sets(8, 32, 1).unwrap()
    }

    fn read_block(b: u64) -> MemRecord {
        MemRecord::read(b * 32)
    }

    #[test]
    fn construction_validation() {
        assert!(ColumnAssociativeCache::new(geom8()).is_ok());
        let assoc_geom = CacheGeometry::from_sets(8, 32, 2).unwrap();
        assert!(ColumnAssociativeCache::new(assoc_geom).is_err());
        let tiny = CacheGeometry::from_sets(1, 32, 1).unwrap();
        assert!(ColumnAssociativeCache::new(tiny).is_err());
    }

    #[test]
    fn alternate_flips_msb() {
        let c = ColumnAssociativeCache::new(geom8()).unwrap();
        assert_eq!(c.alternate_of(0), 4);
        assert_eq!(c.alternate_of(3), 7);
        assert_eq!(c.alternate_of(5), 1);
    }

    #[test]
    fn conflicting_pair_is_absorbed() {
        // Blocks 0 and 8 both map to set 0 conventionally. A direct-mapped
        // cache ping-pongs; column-associative keeps both (one at set 0,
        // one rehashed at set 4).
        let mut c = ColumnAssociativeCache::new(geom8()).unwrap();
        c.access(read_block(0));
        c.access(read_block(8));
        assert!(c.contains_block(0));
        assert!(c.contains_block(8));
        // Steady state: alternating accesses are secondary hits w/ swap.
        let before = c.stats().misses();
        for _ in 0..10 {
            assert!(c.access(read_block(0)).is_hit());
            assert!(c.access(read_block(8)).is_hit());
        }
        assert_eq!(c.stats().misses(), before);
        assert!(c.stats().secondary_hits > 0);
    }

    #[test]
    fn swap_promotes_secondary_to_primary() {
        let mut c = ColumnAssociativeCache::new(geom8()).unwrap();
        c.access(read_block(0));
        c.access(read_block(8)); // displaces 0 -> set 4 (rehash)
        assert!(c.rehash_bit(4));
        let r = c.access(read_block(0)); // secondary hit + swap
        assert_eq!(r.where_hit, HitWhere::Secondary);
        // Now 0 is primary at set 0, 8 rehashed at set 4.
        let r = c.access(read_block(0));
        assert_eq!(r.where_hit, HitWhere::Primary);
        let r = c.access(read_block(8));
        assert_eq!(r.where_hit, HitWhere::Secondary);
    }

    #[test]
    fn rehash_set_reclaimed_by_conventional_owner() {
        let mut c = ColumnAssociativeCache::new(geom8()).unwrap();
        c.access(read_block(0)); // set 0
        c.access(read_block(8)); // set 0; 0 rehashed to set 4
        assert!(c.rehash_bit(4));
        // Block 4 conventionally owns set 4; its miss must replace the
        // rehashed line *without* a second probe.
        let r = c.access(read_block(4));
        assert_eq!(r.where_hit, HitWhere::MissDirect);
        assert_eq!(r.evicted, Some(0));
        assert!(!c.rehash_bit(4));
        assert!(!c.contains_block(0));
        assert!(c.contains_block(4));
    }

    #[test]
    fn three_way_conflict_still_thrashes_partially() {
        let mut c = ColumnAssociativeCache::new(geom8()).unwrap();
        // Three blocks on set 0 exceed the two available columns.
        let blocks = [0u64, 8, 16];
        for _ in 0..20 {
            for &b in &blocks {
                c.access(read_block(b));
            }
        }
        assert!(c.stats().misses() > 3, "cannot hold a 3-way conflict");
    }

    #[test]
    fn dirty_bit_survives_displacement_and_swap() {
        let mut c = ColumnAssociativeCache::new(geom8()).unwrap();
        c.access(MemRecord::write(0)); // block 0 dirty at set 0
        c.access(read_block(8)); // displace dirty 0 to set 4
        let r = c.access(read_block(16)); // displaces 8 to set 4, evicting 0
        assert_eq!(r.evicted, Some(0), "dirty block is the write-back victim");
        // (Eviction of block 0 must be visible for write-back modeling.)
    }

    #[test]
    fn custom_primary_index_changes_conflicts() {
        let xor: Arc<dyn IndexFunction> = Arc::new(XorIndex::new(8).unwrap());
        let mut c = ColumnAssociativeCache::with_index(geom8(), xor).unwrap();
        assert_eq!(c.name(), "column_associative(xor)");
        // Blocks 0 and 8: xor maps them to different sets already.
        c.access(read_block(0));
        c.access(read_block(8));
        assert_eq!(c.stats().secondary_hits, 0);
        assert!(c.access(read_block(0)).where_hit == HitWhere::Primary);
    }

    #[test]
    fn block_never_resident_twice() {
        let mut c = ColumnAssociativeCache::new(geom8()).unwrap();
        // Adversarial interleaving over one conflict pair + the alternates'
        // own blocks.
        let pattern = [0u64, 8, 0, 4, 8, 12, 0, 8, 4, 0, 12, 8];
        for &b in pattern.iter().cycle().take(200) {
            c.access(read_block(b));
            // Count residencies of each block.
            for &blk in &pattern {
                let p = c.primary_of(blk);
                let a = c.alternate_of(p);
                let copies = [p, a]
                    .iter()
                    .filter(|&&s| {
                        let l = &c.lines[s];
                        l.valid && l.block == blk
                    })
                    .count();
                assert!(copies <= 1, "block {blk} resident {copies} times");
            }
        }
    }

    #[test]
    fn flush_and_reset() {
        let mut c = ColumnAssociativeCache::new(geom8()).unwrap();
        c.access(read_block(0));
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.contains_block(0));
        c.flush();
        assert!(!c.contains_block(0));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Single residency and rehash-bit consistency under arbitrary
        /// block streams: a block never occupies both its locations, and a
        /// line marked rehashed must be reachable as somebody's alternate.
        #[test]
        fn residency_and_rehash_invariants(
            blocks in proptest::collection::vec(0u64..64, 1..400)
        ) {
            let geom = CacheGeometry::from_sets(8, 32, 1).unwrap();
            let mut c = ColumnAssociativeCache::new(geom).unwrap();
            for &b in &blocks {
                c.access(MemRecord::read(b * 32));
                // No block appears twice.
                for probe in 0..64u64 {
                    let p = c.primary_of(probe);
                    let a = c.alternate_of(p);
                    let at_p = c.lines[p].valid && c.lines[p].block == probe;
                    let at_a = c.lines[a].valid && c.lines[a].block == probe;
                    prop_assert!(!(at_p && at_a), "block {probe} resident twice");
                }
                // A valid rehashed line holds a block whose primary set is
                // the *alternate* of where it sits.
                for (set, line) in c.lines.iter().enumerate() {
                    if line.valid && line.rehash {
                        let home = c.primary_of(line.block);
                        prop_assert_eq!(
                            c.alternate_of(home), set,
                            "rehash bit set on a conventionally-placed line"
                        );
                    }
                }
            }
        }

        /// Accesses are conserved and every access outcome is one of the
        /// four taxonomy cases with coherent counters.
        #[test]
        fn outcome_taxonomy_is_complete(
            blocks in proptest::collection::vec(0u64..256, 1..300)
        ) {
            let geom = CacheGeometry::from_sets(16, 32, 1).unwrap();
            let mut c = ColumnAssociativeCache::new(geom).unwrap();
            for &b in &blocks {
                c.access(MemRecord::read(b * 32));
            }
            let s = c.stats();
            prop_assert_eq!(s.accesses() as usize, blocks.len());
            prop_assert_eq!(
                s.primary_hits + s.secondary_hits + s.misses_direct + s.misses_after_probe,
                blocks.len() as u64
            );
        }
    }
}
