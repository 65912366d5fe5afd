//! The one set store for LRU/FIFO caches.
//!
//! Every stamp-based cache in the workspace keeps its lines here: solo
//! [`crate::cache::Cache`]s under LRU or FIFO — the paper's baseline
//! direct-mapped L1, the 2/4/8-way comparison points, every indexing
//! variant — and the coherent hierarchy's shared L2. A way is one
//! 16-byte slot holding its block address, 32-bit stamp and valid/dirty
//! flags, so a direct-mapped probe reads one slot, a 4-way set is one
//! 64-byte host line and an 8-way set spans two; each set adds one
//! 32-bit clock. Slots are indexed `set * ways + way` in one flat
//! allocation.
//!
//! Only the stamp-based policies live here: LRU (stamps refreshed on hit
//! and fill) and FIFO (stamps written on fill only). `Random` needs a
//! per-set seeded RNG and `TreePlru` a per-set bit tree, so caches under
//! those policies use [`crate::set::CacheSet`] instead
//! ([`crate::cache::CacheBuilder`] picks the store from the policy).
//! The replacement rule is `CacheSet`'s exactly — first invalid way
//! fills first, else the minimum stamp with the lowest way winning ties
//! — and the lockstep tests below drive both stores side by side.
//!
//! * `ways == 1`: no clock or stamp traffic at all; way 0 always.
//!   [`crate::cache::Cache`]'s commit loop, which picks the store's
//!   shape once per chunk, probes such a store through `lookup_dm`,
//!   which skips the `ways` test.
//! * `ways > 1`: the set clock ticks on **every** lookup and **every**
//!   fill, hit or miss, as `CacheSet`'s does.
//!
//! The 32-bit stamps bound per-set activity at 2^32 touches; a trace
//! long enough to wrap them would need more records than any in-memory
//! `Vec<MemRecord>` can hold, and a debug assertion pins the invariant
//! in test builds.

use crate::set::FillOutcome;
use unicache_core::BlockAddr;

/// One way: block address, stamp and flags in 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    block: BlockAddr,
    stamp: u32,
    valid: bool,
    dirty: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        block: 0,
        stamp: 0,
        valid: false,
        dirty: false,
    };

    #[inline]
    fn holds(&self, block: BlockAddr) -> bool {
        self.valid && self.block == block
    }
}

// Four slots per 64-byte host line; a field change that grows the slot
// fails the build.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// All sets of one LRU or FIFO cache (see the module docs).
#[derive(Debug, Clone)]
pub struct PackedSets {
    ways: usize,
    /// True for LRU (refresh stamp on hit), false for FIFO.
    lru: bool,
    slots: Vec<Slot>,
    clocks: Vec<u32>,
}

impl PackedSets {
    /// Empty storage for `num_sets` sets of `ways` lines; `lru` selects
    /// LRU over FIFO stamping.
    ///
    /// # Panics
    /// If `ways` is zero.
    pub fn new(num_sets: usize, ways: usize, lru: bool) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        PackedSets {
            ways,
            lru,
            slots: vec![Slot::EMPTY; num_sets * ways],
            clocks: vec![0; num_sets],
        }
    }

    /// Advances `set`'s clock and returns the new time.
    #[inline]
    fn tick(&mut self, set: usize) -> u32 {
        let clock = &mut self.clocks[set];
        *clock = clock.wrapping_add(1);
        debug_assert!(*clock != 0, "32-bit set clock wrapped");
        *clock
    }

    /// Looks up `block` in `set`; on a hit refreshes the LRU stamp and
    /// sets the dirty bit if `is_write`, as `CacheSet::lookup` does.
    #[inline(always)]
    pub fn lookup(&mut self, set: usize, block: BlockAddr, is_write: bool) -> bool {
        if self.ways == 1 {
            return self.lookup_dm(set, block, is_write);
        }
        let clock = self.tick(set);
        let base = set * self.ways;
        for s in &mut self.slots[base..base + self.ways] {
            if s.holds(block) {
                s.dirty |= is_write;
                if self.lru {
                    s.stamp = clock;
                }
                return true;
            }
        }
        false
    }

    /// Peeks for `block` in `set` without updating any metadata.
    pub(crate) fn probe(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let base = set * self.ways;
        self.slots[base..base + self.ways]
            .iter()
            .position(|s| s.holds(block))
    }

    /// Fills `block` into `set`, evicting per policy if full — first
    /// invalid way, else minimum stamp (lowest way wins ties), exactly as
    /// `CacheSet::fill` / `victim_way` decide.
    #[inline]
    pub fn fill(&mut self, set: usize, block: BlockAddr, is_write: bool) -> FillOutcome {
        let (way, stamp) = if self.ways == 1 {
            (0, 0)
        } else {
            let clock = self.tick(set);
            let ways = &self.slots[set * self.ways..(set + 1) * self.ways];
            let way = match ways.iter().position(|s| !s.valid) {
                Some(w) => w,
                None => {
                    let mut best = 0usize;
                    for w in 1..ways.len() {
                        if ways[w].stamp < ways[best].stamp {
                            best = w;
                        }
                    }
                    best
                }
            };
            (way, clock)
        };
        let s = &mut self.slots[set * self.ways + way];
        let old = *s;
        *s = Slot {
            block,
            stamp,
            valid: true,
            dirty: is_write,
        };
        FillOutcome {
            way,
            evicted: old.valid.then_some(old.block),
            evicted_dirty: old.valid && old.dirty,
        }
    }

    /// [`PackedSets::lookup`] for a direct-mapped store, without the
    /// `ways` test: one slot per set and no recency metadata, so a hit
    /// only sets the dirty bit on a write.
    #[inline]
    pub(crate) fn lookup_dm(&mut self, set: usize, block: BlockAddr, is_write: bool) -> bool {
        debug_assert_eq!(self.ways, 1);
        let s = &mut self.slots[set];
        let hit = s.holds(block);
        if hit {
            s.dirty |= is_write;
        }
        hit
    }

    /// Invalidates every line and resets all metadata.
    pub fn flush(&mut self) {
        self.slots.fill(Slot::EMPTY);
        self.clocks.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{CacheSet, ReplacementPolicy};

    /// Drives the same operation sequence through `PackedSets` and one
    /// `CacheSet` per set (`set = block % num_sets`), asserting identical
    /// hits, fill ways, victims and victim dirtiness step by step — which
    /// fixes every counter of the caches built on either store.
    fn lockstep(num_sets: usize, ways: usize, lru: bool, ops: &[(u64, bool)]) {
        let policy = if lru {
            ReplacementPolicy::Lru
        } else {
            ReplacementPolicy::Fifo
        };
        let mut packed = PackedSets::new(num_sets, ways, lru);
        let mut reference: Vec<CacheSet> = (0..num_sets)
            .map(|_| CacheSet::new(ways, policy, 0))
            .collect();
        for &(block, is_write) in ops {
            let set = (block % num_sets as u64) as usize;
            let h_packed = packed.lookup(set, block, is_write);
            let h_ref = reference[set].lookup(block, is_write).is_some();
            assert_eq!(h_packed, h_ref, "{ways}-way: hit/miss diverged on {block}");
            if !h_packed {
                let f_packed = packed.fill(set, block, is_write);
                let f_ref = reference[set].fill(block, is_write);
                assert_eq!(f_packed, f_ref, "{ways}-way: fill diverged on {block}");
            }
        }
    }

    /// The mix of a 16-set cache over 800 blocks with 25% writes.
    fn cache_mix() -> Vec<(u64, bool)> {
        let mut x = 77u64;
        (0..6000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 30) % 800, x.is_multiple_of(4))
            })
            .collect()
    }

    #[test]
    fn lru_matches_per_set_storage_in_lockstep() {
        // Conflict-heavy pseudo-random mix over a small block space.
        let mut x = 12345u64;
        let ops: Vec<(u64, bool)> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 24, x.is_multiple_of(5))
            })
            .collect();
        for ways in [1, 2, 3, 4, 8] {
            lockstep(4, ways, true, &ops);
        }
        // 50 blocks per set, so even the 8-way shape evicts.
        let mix = cache_mix();
        for ways in [1, 2, 4, 8] {
            lockstep(16, ways, true, &mix);
        }
    }

    #[test]
    fn fifo_matches_per_set_storage_in_lockstep() {
        let mut x = 999u64;
        let ops: Vec<(u64, bool)> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((x >> 33) % 24, x.is_multiple_of(7))
            })
            .collect();
        let mix = cache_mix();
        for ways in [1, 2, 4] {
            lockstep(4, ways, false, &ops);
        }
        for ways in [1, 2, 4, 8] {
            lockstep(16, ways, false, &mix);
        }
    }

    #[test]
    fn probe_and_flush() {
        let mut s = PackedSets::new(2, 2, true);
        assert_eq!(s.probe(0, 8), None);
        s.fill(0, 8, true);
        assert_eq!(s.probe(0, 8), Some(0));
        assert_eq!(s.probe(1, 8), None);
        s.flush();
        assert_eq!(s.probe(0, 8), None);
        // After a flush the clock restarts like a fresh CacheSet's.
        let f = s.fill(0, 4, false);
        assert_eq!(f.way, 0);
        assert_eq!(f.evicted, None);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        PackedSets::new(4, 0, true);
    }
}
