//! Exclusive-OR hashing (paper Section II.D, Eq. 5).
//!
//! `index = (t_i XOR I_i) mod s`, where `I_i` are the conventional index
//! bits and `t_i` is an equally wide slice of the tag. Two addresses that
//! collide under conventional indexing differ somewhere in the tag; XOR-ing
//! tag bits into the index separates them — at the risk of creating new
//! collisions elsewhere, which is why the paper finds XOR helps some
//! programs and hurts others.

use unicache_core::{is_pow2, log2, BlockAddr, ConfigError, IndexFunction, Result};

/// Tag-XOR-index hashing.
#[derive(Debug, Clone)]
pub struct XorIndex {
    sets: usize,
    index_bits: u32,
    mask: u64,
    /// How many bit positions above the index the tag slice starts
    /// (0 = the lowest tag bits, the classic choice).
    tag_skip: u32,
}

impl XorIndex {
    /// XOR of the conventional index with the lowest tag bits.
    pub fn new(sets: usize) -> Result<Self> {
        Self::with_tag_skip(sets, 0)
    }

    /// XOR with a tag slice starting `tag_skip` bits above the index field
    /// (an ablation knob: higher slices decorrelate differently).
    pub fn with_tag_skip(sets: usize, tag_skip: u32) -> Result<Self> {
        if !is_pow2(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "xor index sets",
                value: sets as u64,
            });
        }
        let index_bits = log2(sets as u64);
        Ok(XorIndex {
            sets,
            index_bits,
            mask: sets as u64 - 1,
            tag_skip,
        })
    }

    /// Number of index bits (`m` = log2 of the set count).
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// How many bit positions above the index field the XORed tag slice
    /// starts.
    pub fn tag_skip(&self) -> u32 {
        self.tag_skip
    }

    /// The hash as a GF(2) linear map: one row per output index bit, each
    /// row a mask over block-address bits whose parity gives that output
    /// bit. Here output bit `j` has exactly two taps —
    /// `block[j] XOR block[m + tag_skip + j]`. `uca check` runs Gaussian
    /// elimination over these rows to prove the map has full rank (so,
    /// restricted to any tag group, it permutes the sets) — the same
    /// analysis applied to real hardware in "Cracking Intel Sandy
    /// Bridge's Cache Hash Function".
    pub fn gf2_rows(&self) -> Vec<u64> {
        (0..self.index_bits)
            .map(|j| (1u64 << j) | (1u64 << (self.index_bits + self.tag_skip + j)))
            .collect()
    }
}

impl IndexFunction for XorIndex {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        // index ^ tag_slice, i.e. (b & m) ^ ((b >> s) & m), written as
        // (b ^ (b >> s)) & m: AND distributes over XOR, saving one mask.
        let tag_shift = self.index_bits + self.tag_skip;
        ((block ^ (block >> tag_shift)) & self.mask) as usize
    }

    fn num_sets(&self) -> usize {
        self.sets
    }

    fn name(&self) -> &str {
        "xor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_tag_is_identity() {
        // Blocks below `sets` have an all-zero tag: XOR leaves the
        // conventional index untouched.
        let f = XorIndex::new(1024).unwrap();
        for b in [0u64, 1, 511, 1023] {
            assert_eq!(f.index_block(b), b as usize);
        }
    }

    #[test]
    fn conflicting_addresses_separate() {
        let f = XorIndex::new(1024).unwrap();
        // Same conventional index (0x155), different tags 1 and 2.
        let a = (1 << 10) | 0x155;
        let b = (2 << 10) | 0x155;
        assert_ne!(f.index_block(a), f.index_block(b));
        // Conventional indexing would have collided:
        assert_eq!(a & 1023, b & 1023);
    }

    #[test]
    fn tag_skip_changes_the_hash() {
        let f0 = XorIndex::new(256).unwrap();
        let f8 = XorIndex::with_tag_skip(256, 8).unwrap();
        // A block whose low tag slice is zero but higher slice is not.
        let block = (0xAB << 16) | 0x12;
        assert_eq!(f0.index_block(block), 0x12_usize);
        assert_ne!(f0.index_block(block), f8.index_block(block));
    }

    #[test]
    fn rejects_non_pow2() {
        assert!(XorIndex::new(100).is_err());
    }

    proptest! {
        #[test]
        fn always_in_range(block in proptest::num::u64::ANY, log_sets in 0u32..15) {
            let f = XorIndex::new(1usize << log_sets).unwrap();
            prop_assert!(f.index_block(block) < f.num_sets());
        }

        #[test]
        fn xor_is_a_permutation_within_a_tag_group(tag in 0u64..4096, log_sets in 1u32..12) {
            // For a fixed tag, index -> xor index is a bijection: all sets
            // remain reachable (no fragmentation, unlike prime-modulo).
            let sets = 1usize << log_sets;
            let f = XorIndex::new(sets).unwrap();
            let mut seen = vec![false; sets];
            for i in 0..sets as u64 {
                let block = (tag << log_sets) | i;
                let s = f.index_block(block);
                prop_assert!(!seen[s], "duplicate set {s}");
                seen[s] = true;
            }
        }
    }
}
