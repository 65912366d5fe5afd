//! The shared L2's packed store.
//!
//! Behaviourally this is exactly the solo engine's shared-L2
//! configuration — `CacheBuilder::new(geom)` defaults: modulo index,
//! LRU stamps, write-allocate, SoA storage — but with the line state
//! packed for the coherent hierarchy's access pattern. The solo
//! [`SoaSets`](unicache_sim) store spreads one L2 probe over five
//! parallel arrays (`blocks`, `valid`, `dirty`, `stamps`, `clocks`);
//! every L1 miss pays a host-cache touch per array. Here a way is one
//! 16-byte [`L2Slot`] — tag, 32-bit LRU stamp, valid/dirty flags — so
//! the sweep's 4-way L2 set is a single 64-byte scan plus the per-set
//! clock, and the demand-fetch path of DESIGN §16's chunked kernel
//! stops being L2-array bound.
//!
//! Semantics replicated from `SoaSets` bit for bit (the differential
//! suite compares `shared_stats()` across kernels and knobs):
//! * `ways == 1`: no clock or stamp traffic at all, way 0
//!   unconditionally.
//! * `ways > 1`: the set clock ticks on **every** lookup and **every**
//!   fill (hit or miss), hits refresh the stamp (LRU), the fill victim
//!   is the first invalid way, else the minimum stamp with the lowest
//!   way winning ties.
//! * Stats protocol of `Cache::access_at`: `record_write` on stores,
//!   `Primary` on hit, `MissDirect` + fill (+ `record_eviction` when a
//!   valid line leaves) on miss — and one `CacheProbe` obs event per
//!   access, so obs-lane metrics stay identical to the solo-`Cache` L2
//!   this replaced.
//!
//! The 32-bit stamps bound per-set activity at 2^32 touches; a trace
//! long enough to wrap them would need more records than any in-memory
//! `Vec<MemRecord>` can hold, and the debug assertion below pins the
//! invariant in test builds.

use unicache_core::{is_pow2, BlockAddr, CacheGeometry, CacheStats, ConfigError, HitWhere, Result};
use unicache_obs as obs;

/// One L2 way: tag, LRU stamp and flags in 16 bytes, so a 4-way set is
/// one host cache line.
#[derive(Debug, Clone, Copy)]
struct L2Slot {
    block: BlockAddr,
    stamp: u32,
    valid: bool,
    dirty: bool,
}

impl L2Slot {
    const EMPTY: L2Slot = L2Slot {
        block: 0,
        stamp: 0,
        valid: false,
        dirty: false,
    };
}

// Four slots per 64-byte host line; a field change that grows the slot
// fails the build.
const _: () = assert!(std::mem::size_of::<L2Slot>() == 16);

/// What one L2 access did: hit or miss, and the block the fill evicted
/// (the hierarchy back-invalidates its private copies for inclusion).
pub(crate) struct L2Access {
    pub hit: bool,
    pub evicted: Option<BlockAddr>,
}

/// The hierarchy's shared inclusive L2 (see the module docs).
pub(crate) struct PackedL2 {
    mask: u64,
    ways: usize,
    slots: Vec<L2Slot>,
    clocks: Vec<u32>,
    stats: CacheStats,
}

impl PackedL2 {
    /// An empty L2 of shape `geom` (modulo-indexed: sets must be a
    /// power of two, the same constraint `ModuloIndex::new` enforced
    /// when the L2 was a solo `Cache`).
    pub(crate) fn new(geom: CacheGeometry) -> Result<Self> {
        let sets = geom.num_sets();
        if !is_pow2(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "modulo index sets",
                value: sets as u64,
            });
        }
        let ways = geom.ways() as usize;
        Ok(PackedL2 {
            mask: sets as u64 - 1,
            ways,
            slots: vec![L2Slot::EMPTY; sets * ways],
            clocks: vec![0; sets],
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
        let base = set * self.ways;
        if self.ways == 1 {
            // Direct-mapped: no clock or stamp traffic (solo fast path).
            let s = &mut self.slots[set];
            if s.valid && s.block == block {
                s.dirty |= is_write;
                self.stats.record(set, HitWhere::Primary);
                return L2Access {
                    hit: true,
                    evicted: None,
                };
            }
            self.stats.record(set, HitWhere::MissDirect);
            let evicted = s.valid.then_some(s.block);
            *s = L2Slot {
                block,
                stamp: 0,
                valid: true,
                dirty: is_write,
            };
            if evicted.is_some() {
                self.stats.record_eviction(set);
            }
            return L2Access {
                hit: false,
                evicted,
            };
        }
        // Lookup bumps the set clock whether or not it hits.
        self.clocks[set] += 1;
        let clock = self.clocks[set];
        for w in 0..self.ways {
            let s = &mut self.slots[base + w];
            if s.valid && s.block == block {
                s.dirty |= is_write;
                s.stamp = clock;
                self.stats.record(set, HitWhere::Primary);
                return L2Access {
                    hit: true,
                    evicted: None,
                };
            }
        }
        self.stats.record(set, HitWhere::MissDirect);
        // Write-allocate fill: its own clock tick, first invalid way,
        // else minimum stamp (lowest way wins ties).
        self.clocks[set] += 1;
        debug_assert!(self.clocks[set] != 0, "32-bit L2 set clock wrapped");
        let clock = self.clocks[set];
        let mut way = self.ways;
        for w in 0..self.ways {
            if !self.slots[base + w].valid {
                way = w;
                break;
            }
        }
        if way == self.ways {
            way = 0;
            for w in 1..self.ways {
                if self.slots[base + w].stamp < self.slots[base + way].stamp {
                    way = w;
                }
            }
        }
        let s = &mut self.slots[base + way];
        let evicted = s.valid.then_some(s.block);
        *s = L2Slot {
            block,
            stamp: clock,
            valid: true,
            dirty: is_write,
        };
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
        self.slots.iter_mut().for_each(|s| *s = L2Slot::EMPTY);
        self.clocks.iter_mut().for_each(|c| *c = 0);
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::CacheModel;
    use unicache_sim::CacheBuilder;

    /// The packed L2 must be bit-identical to the solo `Cache` it
    /// replaced, stats included, under an adversarial access mix.
    #[test]
    fn matches_solo_cache_differentially() {
        for (sets, ways) in [(8usize, 4u32), (16, 1), (4, 2)] {
            let geom = CacheGeometry::from_sets(sets, 32, ways).unwrap();
            let mut packed = PackedL2::new(geom).unwrap();
            let mut solo = CacheBuilder::new(geom).name("shared-L2").build().unwrap();
            let mut x = 0x9e3779b97f4a7c15u64;
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let block = (x >> 33) % (sets as u64 * ways as u64 * 3);
                let is_write = i % 3 == 0;
                let p = packed.access_block(block, is_write);
                let s = solo.access_block(block, is_write);
                assert_eq!(p.hit, s.is_hit(), "hit divergence at access {i}");
                assert_eq!(p.evicted, s.evicted, "evict divergence at access {i}");
            }
            assert_eq!(packed.stats(), solo.stats());
        }
    }

    #[test]
    fn rejects_non_pow2_sets() {
        let geom = CacheGeometry::from_sets(12, 32, 2);
        // Geometry construction may itself reject non-pow2 set counts;
        // when it doesn't, PackedL2 must (the modulo mask needs it).
        if let Ok(g) = geom {
            assert!(PackedL2::new(g).is_err());
        }
    }

    #[test]
    fn flush_empties_lines_and_stats() {
        let geom = CacheGeometry::from_sets(4, 32, 2).unwrap();
        let mut l2 = PackedL2::new(geom).unwrap();
        l2.access_block(1, true);
        l2.access_block(1, false);
        l2.flush();
        assert_eq!(l2.stats().accesses(), 0);
        let miss = l2.access_block(1, false);
        assert!(!miss.hit, "flush left a resident line");
    }
}
