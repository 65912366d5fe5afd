//! Cache partitioning for multiprogrammed threads (the Fig. 14 baseline).
//! The adaptive variant, which lets a partition's victims spill into
//! other partitions' cold sets, is
//! [`AdaptivePartitionedCache`](crate::AdaptivePartitionedCache), built on
//! the adaptive group-associative engine of `unicache-assoc`.

use crate::shared::PerThreadIndexCache;
use std::sync::Arc;
use unicache_core::{BlockAddr, CacheGeometry, ConfigError, IndexFunction, Result};

/// Statically partitioned direct-mapped cache: thread `t` owns an equal
/// contiguous slice of the sets ("thread isolation" in the paper's
/// conclusion). It is a [`PerThreadIndexCache`] whose thread `t` indexes
/// conventionally into its own slice, so lines are tagged by thread and
/// no thread can evict another's.
pub enum PartitionedCache {}

impl PartitionedCache {
    /// Splits `geom.num_sets()` evenly across `threads` (must divide).
    #[allow(clippy::new_ret_no_self)] // a constructor for PerThreadIndexCache
    pub fn new(geom: CacheGeometry, threads: usize) -> Result<PerThreadIndexCache> {
        let sets = geom.num_sets();
        if threads == 0 || !sets.is_multiple_of(threads) {
            return Err(ConfigError::InvalidParameter {
                what: format!("{sets} sets cannot be split across {threads} threads"),
            });
        }
        let part_sets = sets / threads;
        let fns = (0..threads)
            .map(|t| {
                Arc::new(PartitionSlice {
                    base: t * part_sets,
                    mask: part_sets - 1,
                    sets,
                    name: format!("partition({t}/{threads})"),
                }) as Arc<dyn IndexFunction>
            })
            .collect();
        PerThreadIndexCache::new(geom, fns)
    }
}

/// Conventional indexing into the `mask + 1` sets starting at `base`.
/// Set counts are powers of two and the thread count divides them, so
/// every partition size is a power of two too.
struct PartitionSlice {
    base: usize,
    mask: usize,
    /// Sets of the whole cache (the range the slice lies in).
    sets: usize,
    name: String,
}

impl IndexFunction for PartitionSlice {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        self.base + (block as usize & self.mask)
    }

    fn num_sets(&self) -> usize {
        self.sets
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_assoc::AdaptivePartitionedCache;
    use unicache_core::{CacheModel, MemRecord};

    fn geom(sets: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, 32, 1).unwrap()
    }

    fn read(b: u64, tid: u8) -> MemRecord {
        MemRecord::read(b * 32).with_tid(tid)
    }

    #[test]
    fn partition_isolation() {
        let mut c = PartitionedCache::new(geom(16), 2).unwrap();
        // Same block, two threads: lands in different halves.
        let s0 = c.access(read(3, 0)).set;
        let s1 = c.access(read(3, 1)).set;
        assert_eq!((s0, s1), (3, 8 + 3));
        // Thread 0 can never evict thread 1's line.
        for b in 0..100u64 {
            assert!(c.access(read(b, 0)).set < 8);
        }
        assert!(c.access(read(3, 1)).is_hit());
    }

    #[test]
    fn partition_validation() {
        assert!(PartitionedCache::new(geom(16), 0).is_err());
        assert!(PartitionedCache::new(geom(16), 3).is_err());
        assert!(PartitionedCache::new(CacheGeometry::from_sets(16, 32, 2).unwrap(), 2).is_err());
        assert!(PartitionedCache::new(geom(1), 1).is_ok());
    }

    #[test]
    fn adaptive_beats_static_partitioning_for_asymmetric_threads() {
        let g = geom(64);
        let mut stat = PartitionedCache::new(g, 2).unwrap();
        let mut adpt = AdaptivePartitionedCache::new(g, 2).unwrap();
        // Thread 0: a hot conflicting pair (blocks 0 and 32 share its
        // partition set 0) plus background reuse; thread 1: tiny working
        // set, leaving its partition cold — the exact asymmetry the paper's
        // scheme exploits (a cyclic over-capacity sweep, by contrast, is
        // LRU-adversarial and defeats any retention scheme).
        let mut refs = Vec::new();
        for _rep in 0..400 {
            refs.push(read(0, 0));
            refs.push(read(32, 0));
            for b in 1..6u64 {
                refs.push(read(b, 0));
            }
            for b in 0..4u64 {
                refs.push(read(1000 + b, 1));
            }
        }
        for &r in &refs {
            stat.access(r);
            adpt.access(r);
        }
        assert!(
            adpt.stats().miss_rate() < stat.stats().miss_rate(),
            "adaptive {} vs static {}",
            adpt.stats().miss_rate(),
            stat.stats().miss_rate()
        );
    }
}
