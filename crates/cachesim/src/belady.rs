//! Offline MIN (Belady) replacement on a fully-associative cache.
//!
//! The paper's Section III opens by noting that "a fully associative cache
//! with a perfect replacement policy will access all cache lines uniformly
//! … and only serves as a theoretical lower bound for cache miss rates."
//! This module computes that bound for any trace, so experiment reports can
//! show how much headroom each technique leaves.

use std::num::NonZeroU64;
use unicache_core::{BlockAddr, BlockMap, MemRecord};

/// Miss count of a fully-associative cache of `capacity_lines` lines with
/// clairvoyant (Belady MIN) replacement, over the block stream induced by
/// `trace` and `line_bytes`.
///
/// The records are decoded once, into next-use positions (see
/// [`min_misses_blocks`]); no block vector is built.
///
/// # Panics
/// If `capacity_lines` is 0, `line_bytes` is not a power of two, or the
/// trace holds `u32::MAX` or more records.
pub fn min_misses(trace: &[MemRecord], capacity_lines: usize, line_bytes: u64) -> u64 {
    assert!(capacity_lines > 0, "cache must hold at least one line");
    assert!(
        line_bytes.is_power_of_two(),
        "line size must be a power of two"
    );
    let shift = line_bytes.trailing_zeros();
    replay(
        &next_uses(trace.iter().map(|r| r.addr >> shift)),
        capacity_lines,
    )
}

/// Same as [`min_misses`] over a pre-computed block stream.
///
/// Runs in `O(n)`. One pass finds each reference's next use through a
/// [`BlockMap`] of last positions. The replay then keeps the resident
/// blocks as a bitset over their next-use positions. The block
/// referenced at position `i` is resident exactly when some resident
/// block is next used at `i`, so bit `i` is the hit test, and the
/// highest set bit is the block MIN evicts. Resident blocks that are
/// never used again are only counted: they are evicted first, and which
/// of them goes changes no later hit.
///
/// # Panics
/// If `capacity_lines` is 0 or the stream holds `u32::MAX` or more blocks.
pub fn min_misses_blocks(blocks: &[BlockAddr], capacity_lines: usize) -> u64 {
    assert!(capacity_lines > 0, "cache must hold at least one line");
    replay(&next_uses(blocks.iter().copied()), capacity_lines)
}

/// `next[i]`: the position of the first reference after `i` to the
/// block referenced at `i`, or `n` (the stream's length) if there is
/// none.
fn next_uses(blocks: impl ExactSizeIterator<Item = BlockAddr>) -> Vec<u32> {
    let n = blocks.len();
    assert!(
        n < u32::MAX as usize,
        "Belady MIN positions are 32-bit: {n} references"
    );
    let mut next = vec![n as u32; n];
    // Each block's last position so far, plus one (0 marks a new block).
    let mut last = BlockMap::new();
    for (i, block) in blocks.enumerate() {
        last.update(block, |prev| {
            if let Some(p) = (prev as usize).checked_sub(1) {
                next[p] = i as u32;
            }
            NonZeroU64::MIN.saturating_add(i as u64)
        });
    }
    next
}

/// The MIN replay over next-use positions: the miss count of a
/// `capacity`-line fully-associative cache.
fn replay(next: &[u32], capacity: usize) -> u64 {
    let end = next.len() as u32;
    let mut live = NextUses::new(next.len());
    // Resident blocks never used again.
    let mut dead = 0usize;
    let mut resident = 0usize;
    let mut misses = 0u64;
    for (i, &nu) in next.iter().enumerate() {
        if !live.remove(i) {
            misses += 1;
            if resident == capacity {
                unicache_obs::count(unicache_obs::Event::BeladyEvict);
                if dead > 0 {
                    dead -= 1;
                } else {
                    live.remove_last();
                }
            } else {
                resident += 1;
            }
        }
        if nu == end {
            dead += 1;
        } else {
            live.insert(nu as usize);
        }
    }
    misses
}

/// A set of positions in `0..n` as a bitset with two levels of summary
/// words: bit `w` of `mid` says `bits[w] != 0`, and bit `s` of `top`
/// says `mid[s] != 0`. So one word covers 64 positions, one `mid` word
/// 4096 and one `top` word 2^18, and the highest member is found with
/// three leading-zero counts below the highest nonzero `top` word.
struct NextUses {
    bits: Vec<u64>,
    mid: Vec<u64>,
    top: Vec<u64>,
    /// No `top` word above this index is nonzero.
    hi: usize,
}

impl NextUses {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        let mids = words.div_ceil(64);
        NextUses {
            bits: vec![0; words],
            mid: vec![0; mids],
            top: vec![0; mids.div_ceil(64)],
            hi: 0,
        }
    }

    #[inline]
    fn insert(&mut self, j: usize) {
        self.bits[j >> 6] |= 1 << (j & 63);
        self.mid[j >> 12] |= 1 << ((j >> 6) & 63);
        self.top[j >> 18] |= 1 << ((j >> 12) & 63);
        self.hi = self.hi.max(j >> 18);
    }

    /// Removes `j`; returns whether it was a member.
    #[inline]
    fn remove(&mut self, j: usize) -> bool {
        let word = &mut self.bits[j >> 6];
        let bit = 1 << (j & 63);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        if *word == 0 {
            let mid = &mut self.mid[j >> 12];
            *mid &= !(1 << ((j >> 6) & 63));
            if *mid == 0 {
                self.top[j >> 18] &= !(1 << ((j >> 12) & 63));
            }
        }
        true
    }

    /// Removes the highest member. The set must not be empty.
    fn remove_last(&mut self) {
        while self.top[self.hi] == 0 {
            self.hi -= 1;
        }
        let s = (self.hi << 6) | highest_bit(self.top[self.hi]);
        let w = (s << 6) | highest_bit(self.mid[s]);
        let j = (w << 6) | highest_bit(self.bits[w]);
        self.remove(j);
    }
}

/// The index of the highest set bit of a nonzero word.
#[inline]
fn highest_bit(word: u64) -> usize {
    63 - word.leading_zeros() as usize
}

/// The MIN miss *rate* for a trace and cache capacity.
pub fn min_miss_rate(trace: &[MemRecord], capacity_lines: usize, line_bytes: u64) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    min_misses(trace, capacity_lines, line_bytes) as f64 / trace.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn textbook_example() {
        // Classic Belady demo: 3 frames, page string
        // 2,3,2,1,5,2,4,5,3,2,5,2 -> 7 faults (well-known result is 7
        // with FIFO 9 / LRU 8; MIN achieves 7? verify by construction
        // below against brute force).
        let blocks = [2u64, 3, 2, 1, 5, 2, 4, 5, 3, 2, 5, 2];
        let got = min_misses_blocks(&blocks, 3);
        assert_eq!(got, brute_force_min(&blocks, 3));
    }

    #[test]
    fn cache_larger_than_working_set_gives_cold_misses_only() {
        let blocks = [1u64, 2, 3, 1, 2, 3, 1, 2, 3];
        assert_eq!(min_misses_blocks(&blocks, 8), 3);
    }

    #[test]
    fn single_line_cache() {
        let blocks = [1u64, 1, 2, 2, 1];
        assert_eq!(min_misses_blocks(&blocks, 1), 3);
    }

    #[test]
    fn empty_trace() {
        assert_eq!(min_misses_blocks(&[], 4), 0);
        assert_eq!(min_miss_rate(&[], 4, 32), 0.0);
    }

    #[test]
    fn byte_addresses_collapse_to_lines() {
        // Four byte addresses within one 64-byte line: one cold miss.
        let trace: Vec<MemRecord> = [0u64, 8, 16, 63]
            .iter()
            .map(|&a| MemRecord::read(a))
            .collect();
        assert_eq!(min_misses(&trace, 4, 64), 1);
        // With 8-byte lines they are four distinct blocks.
        assert_eq!(min_misses(&trace, 4, 8), 4);
    }

    #[test]
    fn min_is_a_lower_bound_for_lru() {
        // Simulate LRU fully-associative by hand and compare.
        let mut rng = StdRng::seed_from_u64(11);
        let blocks: Vec<u64> = (0..3000).map(|_| rng.gen_range(0u64..64)).collect();
        let cap = 16;
        // LRU.
        let mut lru: Vec<u64> = Vec::new();
        let mut lru_misses = 0u64;
        for &b in &blocks {
            if let Some(pos) = lru.iter().position(|&x| x == b) {
                lru.remove(pos);
                lru.push(b);
            } else {
                lru_misses += 1;
                if lru.len() == cap {
                    lru.remove(0);
                }
                lru.push(b);
            }
        }
        let min = min_misses_blocks(&blocks, cap);
        assert!(min <= lru_misses, "MIN {min} > LRU {lru_misses}");
    }

    /// The lazily compacted max-heap MIN that the next-use bitset
    /// replaced, kept as its oracle.
    fn min_misses_heap(blocks: &[BlockAddr], capacity_lines: usize) -> u64 {
        use std::collections::BinaryHeap;
        use unicache_core::hasher::det_map;
        use unicache_core::DetHashMap;
        let n = blocks.len();
        let mut id_of: DetHashMap<BlockAddr, u32> = det_map();
        let mut ids: Vec<u32> = Vec::with_capacity(n);
        for &b in blocks {
            let next = id_of.len() as u32;
            ids.push(*id_of.entry(b).or_insert(next));
        }
        let unique = id_of.len();
        let mut next_use = vec![n; n];
        let mut last_pos = vec![usize::MAX; unique];
        for (i, &id) in ids.iter().enumerate().rev() {
            let p = last_pos[id as usize];
            if p != usize::MAX {
                next_use[i] = p;
            }
            last_pos[id as usize] = i;
        }
        // (next use, id) entries; a hit strands its old entry, which the
        // stamp check skips and compaction drops.
        let mut heap: BinaryHeap<(usize, u32)> = BinaryHeap::new();
        let mut stamp = vec![usize::MAX; unique];
        let compact_above = 2 * capacity_lines.max(64);
        let mut resident = 0usize;
        let mut misses = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            let nu = next_use[i];
            if stamp[id as usize] != usize::MAX {
                stamp[id as usize] = nu;
                heap.push((nu, id));
                if heap.len() > compact_above {
                    heap.retain(|&(st, cand)| stamp[cand as usize] == st);
                }
                continue;
            }
            misses += 1;
            if resident == capacity_lines {
                while let Some((st, cand)) = heap.pop() {
                    if stamp[cand as usize] == st {
                        stamp[cand as usize] = usize::MAX;
                        resident -= 1;
                        break;
                    }
                }
            }
            stamp[id as usize] = nu;
            resident += 1;
            heap.push((nu, id));
        }
        misses
    }

    /// O(n^2) reference implementation for cross-checking.
    fn brute_force_min(blocks: &[u64], cap: usize) -> u64 {
        let mut resident: Vec<u64> = Vec::new();
        let mut misses = 0u64;
        for i in 0..blocks.len() {
            let b = blocks[i];
            if resident.contains(&b) {
                continue;
            }
            misses += 1;
            if resident.len() == cap {
                // Farthest next use.
                let victim = resident
                    .iter()
                    .copied()
                    .max_by_key(|&r| {
                        blocks[i + 1..]
                            .iter()
                            .position(|&x| x == r)
                            .map(|p| p as i64)
                            .unwrap_or(i64::MAX)
                    })
                    .unwrap();
                resident.retain(|&x| x != victim);
            }
            resident.push(b);
        }
        misses
    }

    #[test]
    fn hit_heavy_streams_match_brute_force() {
        // Eight blocks over 3000 references: almost every reference hits,
        // so the heap oracle compacts many times.
        let mut rng = StdRng::seed_from_u64(7);
        for cap in [1usize, 3, 5] {
            let blocks: Vec<u64> = (0..3000).map(|_| rng.gen_range(0u64..8)).collect();
            let min = min_misses_blocks(&blocks, cap);
            assert_eq!(min, brute_force_min(&blocks, cap), "capacity {cap}");
            assert_eq!(min, min_misses_heap(&blocks, cap), "capacity {cap}");
        }
    }

    /// Random streams over `span` blocks, at lengths on each side of the
    /// bitset's word (64) and summary-word (4096) boundaries.
    #[test]
    fn bitset_matches_heap_and_brute_force_across_word_boundaries() {
        let mut rng = StdRng::seed_from_u64(0xBE1A);
        for n in [1usize, 63, 64, 65, 127, 4095, 4096, 4097, 8193] {
            for span in [2u64, 16, 300] {
                let blocks: Vec<u64> = (0..n).map(|_| rng.gen_range(0..span)).collect();
                let footprint = blocks
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len();
                for cap in (1..=8).chain([footprint, footprint + 1]) {
                    let min = min_misses_blocks(&blocks, cap);
                    assert_eq!(
                        min,
                        min_misses_heap(&blocks, cap),
                        "n {n} span {span} cap {cap}"
                    );
                    if n <= 4097 {
                        assert_eq!(
                            min,
                            brute_force_min(&blocks, cap),
                            "n {n} span {span} cap {cap}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bitset_matches_heap_past_one_top_summary_word() {
        // More than 2^18 positions, so eviction searches cross `top`
        // words; a wide span keeps far next uses in the set.
        let mut rng = StdRng::seed_from_u64(0x2_0000);
        let n = (1 << 18) + 5000;
        let blocks: Vec<u64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    rng.gen_range(0..100_000)
                } else {
                    rng.gen_range(0..200)
                }
            })
            .collect();
        for cap in [1usize, 8, 150, 4096] {
            assert_eq!(
                min_misses_blocks(&blocks, cap),
                min_misses_heap(&blocks, cap),
                "capacity {cap}"
            );
        }
    }

    proptest! {
        #[test]
        fn matches_brute_force(
            blocks in proptest::collection::vec(0u64..24, 1..120),
            cap in 1usize..8
        ) {
            let min = min_misses_blocks(&blocks, cap);
            prop_assert_eq!(min, brute_force_min(&blocks, cap));
            prop_assert_eq!(min, min_misses_heap(&blocks, cap));
        }

        #[test]
        fn monotone_in_capacity(
            blocks in proptest::collection::vec(0u64..40, 1..150),
            cap in 1usize..10
        ) {
            // MIN is a stack algorithm: more capacity never hurts.
            prop_assert!(
                min_misses_blocks(&blocks, cap + 1) <= min_misses_blocks(&blocks, cap)
            );
        }

        #[test]
        fn bounded_by_unique_and_total(
            blocks in proptest::collection::vec(0u64..40, 1..150),
            cap in 1usize..10
        ) {
            let m = min_misses_blocks(&blocks, cap);
            let unique = blocks.iter().collect::<std::collections::HashSet<_>>().len() as u64;
            prop_assert!(m >= unique, "must pay every cold miss");
            prop_assert!(m <= blocks.len() as u64);
        }
    }
}
