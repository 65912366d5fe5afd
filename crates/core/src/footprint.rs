//! Footprint counting: the distinct blocks of a block sequence, sorted,
//! with the number of references each received.
//!
//! Both the Givargis training list ([`crate::BlockStream::unique_blocks`])
//! and the analytical model's workload summary need the sorted footprint
//! of a trace. [`BlockCounter`] builds it at footprint cost: every
//! reference bumps a counter in a flat open-addressed table, and only the
//! U distinct blocks are sorted at the end — never an n-sized block
//! vector. The hash is a fixed multiplicative one, so the table (and
//! anything derived from it) is the same on every run; the output is
//! sorted, so it does not depend on the hash at all.

use crate::cast::usize_from_u64;
use crate::BlockAddr;
use std::num::NonZeroU64;

/// Fibonacci hashing multiplier (2^64 / φ, odd): the top bits of
/// `block * MUL` spread strided and sequential block runs over the table.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slots in a fresh table (a power of two). 4096 slots (64 KiB) hold the
/// footprint of every tiny-scale paper trace (at most ~1,300 blocks)
/// without growing. Freeing a chunk of 64 KiB or more also makes glibc
/// merge its cached small free chunks; with 1024-slot tables only the
/// largest footprints grew that far, and the `paper-bypass` benchmark's
/// peak RSS read up to 11% higher on some command lines.
const INITIAL_SLOTS: usize = 4096;

/// A flat open-addressed map from block addresses to nonzero `u64`
/// values: the table behind [`BlockCounter`], and behind any pass that
/// keeps one word per distinct block (Belady MIN keeps each block's last
/// position).
///
/// A slot is `(block, value)`, and `value == 0` marks it empty, so every
/// block value — 0 and `u64::MAX` included — is a valid key. The table
/// doubles whenever it would become more than half full.
#[derive(Debug, Clone)]
pub struct BlockMap {
    slots: Vec<(BlockAddr, u64)>,
    /// `64 - log2(slots.len())`: the home slot is the hash's top bits.
    shift: u32,
    distinct: usize,
    /// Slot of the most recently updated block (`usize::MAX` if none), so
    /// a run of references to one block skips the hash and probe.
    last: usize,
}

impl Default for BlockMap {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockMap {
    /// An empty map.
    pub fn new() -> Self {
        BlockMap {
            slots: vec![(0, 0); INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            distinct: 0,
            last: usize::MAX,
        }
    }

    /// Replaces `block`'s value `v` with `f(v)`, where `v` is 0 if
    /// `block` has no value yet.
    #[inline]
    pub fn update(&mut self, block: BlockAddr, f: impl FnOnce(u64) -> NonZeroU64) {
        if let Some(slot) = self.slots.get_mut(self.last) {
            if slot.0 == block {
                slot.1 = f(slot.1).get();
                return;
            }
        }
        self.last = self.probe(block, f);
    }

    /// The home slot of `block` in a table of `2^(64 - shift)` slots.
    #[inline]
    fn home(block: BlockAddr, shift: u32) -> usize {
        usize_from_u64(block.wrapping_mul(MUL) >> shift)
    }

    /// Finds or claims `block`'s slot, applies `f` to its value, and
    /// returns the slot.
    fn probe(&mut self, block: BlockAddr, f: impl FnOnce(u64) -> NonZeroU64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(block, self.shift);
        loop {
            let slot = &mut self.slots[i];
            if slot.1 == 0 {
                break;
            }
            if slot.0 == block {
                slot.1 = f(slot.1).get();
                return i;
            }
            i = (i + 1) & mask;
        }
        // A new block: claim the empty slot, growing first if that would
        // take the table past half full.
        if 2 * (self.distinct + 1) > self.slots.len() {
            self.grow();
            i = self.free_slot(block);
        }
        self.slots[i] = (block, f(0).get());
        self.distinct += 1;
        i
    }

    /// The first empty slot on `block`'s probe path (`block` absent).
    fn free_slot(&self, block: BlockAddr) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(block, self.shift);
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the table and reinserts every occupied slot.
    fn grow(&mut self) {
        let grown = vec![(0, 0); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        self.shift -= 1;
        for (block, value) in old.into_iter().filter(|s| s.1 != 0) {
            let i = self.free_slot(block);
            self.slots[i] = (block, value);
        }
        self.last = usize::MAX;
    }
}

/// Per-block reference counts over a stream of block addresses, in a
/// [`BlockMap`] whose values are the counts.
#[derive(Debug, Clone, Default)]
pub struct BlockCounter(BlockMap);

impl BlockCounter {
    /// An empty counter.
    pub fn new() -> Self {
        BlockCounter(BlockMap::new())
    }

    /// Counts one reference to `block`.
    #[inline]
    pub fn add(&mut self, block: BlockAddr) {
        self.0
            .update(block, |count| NonZeroU64::MIN.saturating_add(count));
    }

    /// The distinct blocks, ascending, and `counts[i]` — the references
    /// to `blocks[i]`.
    pub fn into_blocks_and_counts(self) -> (Vec<BlockAddr>, Vec<u64>) {
        let mut slots = self.0.slots;
        slots.retain(|s| s.1 != 0);
        slots.sort_unstable_by_key(|s| s.0);
        slots.into_iter().unzip()
    }

    /// The distinct blocks, ascending.
    pub fn into_blocks(self) -> Vec<BlockAddr> {
        let mut blocks: Vec<BlockAddr> = Vec::with_capacity(self.0.distinct);
        blocks.extend(self.0.slots.iter().filter(|s| s.1 != 0).map(|s| s.0));
        blocks.sort_unstable();
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The footprint by sort, dedup and run lengths — the algorithm the
    /// counter replaced, kept as its oracle.
    fn sort_dedup(blocks: &[BlockAddr]) -> (Vec<BlockAddr>, Vec<u64>) {
        let mut all = blocks.to_vec();
        all.sort_unstable();
        let mut uniq: Vec<BlockAddr> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for b in all {
            if uniq.last() == Some(&b) {
                *counts.last_mut().unwrap() += 1;
            } else {
                uniq.push(b);
                counts.push(1);
            }
        }
        (uniq, counts)
    }

    fn check(blocks: &[BlockAddr]) {
        let mut c = BlockCounter::new();
        for &b in blocks {
            c.add(b);
        }
        let expect = sort_dedup(blocks);
        assert_eq!(c.clone().into_blocks(), expect.0);
        assert_eq!(c.into_blocks_and_counts(), expect);
    }

    /// A small xorshift stream, so the cases need no RNG dependency.
    fn xorshift(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    #[test]
    fn empty_and_single_reference() {
        check(&[]);
        check(&[0]);
        check(&[42]);
        check(&[u64::MAX]);
    }

    #[test]
    fn long_same_block_runs() {
        let mut v = vec![7u64; 5000];
        v.extend(std::iter::repeat_n(3, 3000));
        v.extend(std::iter::repeat_n(7, 10));
        v.push(0);
        v.extend(std::iter::repeat_n(3, 2));
        check(&v);
    }

    #[test]
    fn the_empty_slot_marker_hides_no_block() {
        // Block 0 matches an empty slot's key and u64::MAX is the block of
        // the top address at one-byte lines; both must count normally.
        check(&[0, u64::MAX, 0, 1, u64::MAX, u64::MAX, 0]);
        let mut v: Vec<u64> = (0..3000).collect();
        v.extend((0..3000).map(|i| u64::MAX - i));
        v.extend([0, u64::MAX]);
        check(&v);
    }

    #[test]
    fn strided_blocks_that_share_a_home_slot() {
        // Blocks whose home is the table's last slot, so every probe run
        // wraps to slot 0, then enough of them to force growth mid-run.
        let shift = 64 - INITIAL_SLOTS.trailing_zeros();
        for stride in [1u64, 64, 4096, 1 << 32] {
            let colliding: Vec<u64> = (0..1u64 << 22)
                .map(|i| i * stride)
                .filter(|&b| BlockMap::home(b, shift) == INITIAL_SLOTS - 1)
                .take(12)
                .collect();
            assert!(colliding.len() >= 4, "stride {stride}: too few collisions");
            let mut v = colliding.clone();
            v.extend(colliding.iter().rev());
            v.extend((0..4 * INITIAL_SLOTS as u64).map(|i| i * stride));
            v.extend(&colliding);
            check(&v);
        }
    }

    #[test]
    fn random_streams_match_the_oracle() {
        for (seed, n, span) in [
            (1u64, 10, 4),
            (2, 1000, 64),
            (3, 20_000, 5000),
            (4, 50_000, 0),
        ] {
            let v: Vec<u64> = xorshift(seed, n)
                .into_iter()
                .map(|x| if span == 0 { x } else { x % span })
                .collect();
            check(&v);
        }
    }
}
