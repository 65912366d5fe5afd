//! Odd-multiplier displacement (paper Section II.C, Eq. 4).
//!
//! `index = (p * T_i + I_i) mod s` — a multiple of the tag displaces the
//! conventional index. Based on Ghose & Kamble's hashing and related to
//! Raghavan & Hayes' RANDOM-H functions. The multiplier must be odd so the
//! displacement `p * T mod s` is a bijection of the tag modulo the
//! power-of-two set count. Kharbutli et al. recommend p ∈ {9, 21, 31, 61}.

use unicache_core::{is_pow2, log2, BlockAddr, ConfigError, IndexFunction, Result};

/// Multipliers recommended by the original authors (paper Section II.C).
pub const RECOMMENDED_MULTIPLIERS: [u64; 4] = [9, 21, 31, 61];

/// Odd-multiplier displacement hashing.
#[derive(Debug, Clone)]
pub struct OddMultiplierIndex {
    sets: usize,
    index_bits: u32,
    mask: u64,
    multiplier: u64,
    name: String,
}

impl OddMultiplierIndex {
    /// Displacement hashing with the given odd `multiplier`.
    pub fn new(sets: usize, multiplier: u64) -> Result<Self> {
        if !is_pow2(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "odd-multiplier index sets",
                value: sets as u64,
            });
        }
        if multiplier.is_multiple_of(2) {
            return Err(ConfigError::InvalidParameter {
                what: format!("odd-multiplier requires an odd multiplier, got {multiplier}"),
            });
        }
        Ok(OddMultiplierIndex {
            sets,
            index_bits: log2(sets as u64),
            mask: sets as u64 - 1,
            multiplier,
            name: format!("odd_multiplier({multiplier})"),
        })
    }

    /// The default multiplier used in the paper-wide comparisons (21).
    pub fn paper_default(sets: usize) -> Result<Self> {
        Self::new(sets, 21)
    }

    /// The configured multiplier.
    pub fn multiplier(&self) -> u64 {
        self.multiplier
    }

    /// Number of index bits (`m` = log2 of the set count).
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }
}

impl IndexFunction for OddMultiplierIndex {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        // (p*T + I) mod s with I = b & mask, written as (p*T + b) & mask:
        // the dropped high bits of b are multiples of s, invisible mod s.
        let tag = block >> self.index_bits;
        (self.multiplier.wrapping_mul(tag).wrapping_add(block) & self.mask) as usize
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
    use proptest::prelude::*;

    #[test]
    fn formula_matches_equation_4() {
        let f = OddMultiplierIndex::new(1024, 9).unwrap();
        let tag = 0x3Fu64;
        let index = 0x155u64;
        let block = (tag << 10) | index;
        assert_eq!(f.index_block(block), ((9 * tag + index) % 1024) as usize);
    }

    #[test]
    fn zero_tag_is_identity() {
        let f = OddMultiplierIndex::new(512, 21).unwrap();
        for b in [0u64, 100, 511] {
            assert_eq!(f.index_block(b), b as usize);
        }
    }

    #[test]
    fn rejects_even_multiplier_and_bad_sets() {
        assert!(OddMultiplierIndex::new(1024, 8).is_err());
        assert!(OddMultiplierIndex::new(1000, 9).is_err());
        assert!(OddMultiplierIndex::new(1024, 1).is_ok()); // odd, if silly
    }

    #[test]
    fn recommended_multipliers_are_odd() {
        for m in RECOMMENDED_MULTIPLIERS {
            assert_eq!(m % 2, 1);
            assert!(OddMultiplierIndex::new(1024, m).is_ok());
        }
    }

    #[test]
    fn name_carries_multiplier() {
        let f = OddMultiplierIndex::new(64, 61).unwrap();
        assert_eq!(f.name(), "odd_multiplier(61)");
        assert_eq!(f.multiplier(), 61);
    }

    #[test]
    fn different_multipliers_hash_differently() {
        let a = OddMultiplierIndex::new(1024, 9).unwrap();
        let b = OddMultiplierIndex::new(1024, 21).unwrap();
        let block = (7 << 10) | 3;
        assert_ne!(a.index_block(block), b.index_block(block));
    }

    proptest! {
        #[test]
        fn always_in_range(block in proptest::num::u64::ANY, mult_half in 0u64..1000) {
            let f = OddMultiplierIndex::new(1024, 2 * mult_half + 1).unwrap();
            prop_assert!(f.index_block(block) < 1024);
        }

        #[test]
        fn displacement_is_bijective_over_tags(log_sets in 1u32..10) {
            // For fixed index bits, tag -> (p * tag) mod 2^m cycles through
            // residues without collapsing (p odd => invertible mod 2^m):
            // blocks sharing an index but with tags 0..sets map to all
            // distinct sets.
            let sets = 1usize << log_sets;
            let f = OddMultiplierIndex::new(sets, 21).unwrap();
            let mut seen = vec![false; sets];
            for tag in 0..sets as u64 {
                let block = tag << log_sets; // index bits zero
                let s = f.index_block(block);
                prop_assert!(!seen[s]);
                seen[s] = true;
            }
        }
    }
}
