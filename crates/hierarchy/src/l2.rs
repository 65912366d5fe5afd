//! The hierarchy's shared inclusive L2.
//!
//! Behaviourally this is the solo engine's shared-L2 configuration —
//! `CacheBuilder::new(geom)` defaults: modulo index, LRU, write-allocate
//! — over the same [`PackedSets`] store, so the lines, the clock ticks
//! and the victim rule are the solo cache's by construction. What the
//! L2 adds is only what a solo `Cache` would route through its index
//! function and fused-lane scratch: the set is `block & mask`, and the
//! stats protocol of `Cache::access_at` is replayed inline —
//! `record_write` on stores, `Primary` on hit, `MissDirect` + fill
//! (+ `record_eviction` when a valid line leaves) on miss — with one
//! `CacheProbe` obs event per access, so obs-lane metrics match a
//! solo-`Cache` L2.

use unicache_core::{is_pow2, BlockAddr, CacheGeometry, CacheStats, ConfigError, HitWhere, Result};
use unicache_obs as obs;
use unicache_sim::PackedSets;

/// What one L2 access did: hit or miss, and the block the fill evicted
/// (the hierarchy back-invalidates its private copies for inclusion).
pub(crate) struct L2Access {
    pub hit: bool,
    pub evicted: Option<BlockAddr>,
}

/// The hierarchy's shared inclusive L2 (see the module docs).
pub(crate) struct SharedL2 {
    mask: u64,
    sets: PackedSets,
    stats: CacheStats,
}

impl SharedL2 {
    /// An empty L2 of shape `geom` (modulo-indexed: sets must be a
    /// power of two, the same constraint `ModuloIndex::new` enforces
    /// for a solo `Cache`).
    pub(crate) fn new(geom: CacheGeometry) -> Result<Self> {
        let sets = geom.num_sets();
        if !is_pow2(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "modulo index sets",
                value: sets as u64,
            });
        }
        Ok(SharedL2 {
            mask: sets as u64 - 1,
            sets: PackedSets::new(sets, geom.ways() as usize, true),
            stats: CacheStats::new(sets),
        })
    }

    /// Per-set hit/miss counters (the report's `L2_miss_pct` column and
    /// the conservation checks read these).
    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// One demand access: lookup, then write-allocate fill on a miss.
    pub(crate) fn access_block(&mut self, block: BlockAddr, is_write: bool) -> L2Access {
        let set = (block & self.mask) as usize;
        if is_write {
            self.stats.record_write();
        }
        obs::count(obs::Event::CacheProbe);
        if self.sets.lookup(set, block, is_write) {
            self.stats.record(set, HitWhere::Primary);
            return L2Access {
                hit: true,
                evicted: None,
            };
        }
        self.stats.record(set, HitWhere::MissDirect);
        let evicted = self.sets.fill(set, block, is_write).evicted;
        if evicted.is_some() {
            self.stats.record_eviction(set);
        }
        L2Access {
            hit: false,
            evicted,
        }
    }

    /// Invalidates everything and clears the counters.
    pub(crate) fn flush(&mut self) {
        self.sets.flush();
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::CacheModel;
    use unicache_sim::CacheBuilder;

    /// The L2 must be bit-identical to a solo default `Cache`, stats
    /// included, under an adversarial access mix. The 8-way shape (the
    /// assoc sweep's widest) spreads one set's slots over two host lines.
    #[test]
    fn matches_solo_cache_differentially() {
        for (sets, ways) in [(8usize, 4u32), (16, 1), (4, 2), (8, 8)] {
            let geom = CacheGeometry::from_sets(sets, 32, ways).unwrap();
            let mut l2 = SharedL2::new(geom).unwrap();
            let mut solo = CacheBuilder::new(geom).name("shared-L2").build().unwrap();
            let mut x = 0x9e3779b97f4a7c15u64;
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let block = (x >> 33) % (sets as u64 * ways as u64 * 3);
                let is_write = i % 3 == 0;
                let p = l2.access_block(block, is_write);
                let s = solo.access_block(block, is_write);
                assert_eq!(p.hit, s.is_hit(), "hit divergence at access {i}");
                assert_eq!(p.evicted, s.evicted, "evict divergence at access {i}");
            }
            assert_eq!(l2.stats(), solo.stats());
        }
    }

    #[test]
    fn rejects_non_pow2_sets() {
        let geom = CacheGeometry::from_sets(12, 32, 2);
        // Geometry construction may itself reject non-pow2 set counts;
        // when it doesn't, SharedL2 must (the modulo mask needs it).
        if let Ok(g) = geom {
            assert!(SharedL2::new(g).is_err());
        }
    }

    #[test]
    fn flush_empties_lines_and_stats() {
        let geom = CacheGeometry::from_sets(4, 32, 2).unwrap();
        let mut l2 = SharedL2::new(geom).unwrap();
        l2.access_block(1, true);
        l2.access_block(1, false);
        l2.flush();
        assert_eq!(l2.stats().accesses(), 0);
        let miss = l2.access_block(1, false);
        assert!(!miss.hit, "flush left a resident line");
    }
}
