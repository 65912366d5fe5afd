//! Generic bit-selection indexing: gather `m` arbitrary block-address bits
//! into a set index. The building block under both the Givargis index and
//! Patel's optimal search.

use unicache_core::{BlockAddr, ConfigError, IndexFunction, Result};

/// An index formed by concatenating chosen block-address bits.
///
/// `bits[0]` supplies the least-significant index bit. Positions are in
/// *block address* bit space (bit 0 = lowest bit above the byte offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSelectIndex {
    bits: Vec<u32>,
    sets: usize,
    name: String,
}

impl BitSelectIndex {
    /// Builds an index from distinct bit positions (≤ 63 each).
    pub fn new(bits: Vec<u32>) -> Result<Self> {
        Self::named(bits, "bit_select")
    }

    /// Same, with a custom scheme name for reports.
    pub fn named(bits: Vec<u32>, scheme: &str) -> Result<Self> {
        if bits.is_empty() {
            return Err(ConfigError::InvalidParameter {
                what: "bit selection needs at least one bit".into(),
            });
        }
        if bits.len() > 30 {
            return Err(ConfigError::OutOfRange {
                what: "selected bits",
                expected: "<= 30".into(),
                got: bits.len() as u64,
            });
        }
        let mut sorted = bits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != bits.len() {
            return Err(ConfigError::InvalidParameter {
                what: format!("duplicate bit positions in {bits:?}"),
            });
        }
        if let Some(&max) = sorted.last() {
            if max > 63 {
                return Err(ConfigError::OutOfRange {
                    what: "bit position",
                    expected: "<= 63".into(),
                    got: max as u64,
                });
            }
        }
        let sets = 1usize << bits.len();
        let name = format!("{scheme}{bits:?}");
        Ok(BitSelectIndex { bits, sets, name })
    }

    /// The selected bit positions, LSB of the index first.
    pub fn bits(&self) -> &[u32] {
        &self.bits
    }
}

impl IndexFunction for BitSelectIndex {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        let mut idx = 0usize;
        for (out_pos, &bit) in self.bits.iter().enumerate() {
            idx |= (((block >> bit) & 1) as usize) << out_pos;
        }
        idx
    }

    fn num_sets(&self) -> usize {
        self.sets
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        // Bits outer, blocks inner: each pass over the slice moves one
        // block bit to its index position with one shift and one mask,
        // so the gather vectorizes even though the bit positions
        // themselves are data-dependent.
        let out = &mut out[..blocks.len()];
        out.fill(0);
        for (out_pos, &bit) in (0u32..).zip(&self.bits) {
            let mask = 1usize << out_pos;
            if bit >= out_pos {
                let shift = bit - out_pos;
                for (slot, &b) in out.iter_mut().zip(blocks) {
                    *slot |= (b >> shift) as usize & mask;
                }
            } else {
                let shift = out_pos - bit;
                for (slot, &b) in out.iter_mut().zip(blocks) {
                    *slot |= (b << shift) as usize & mask;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn selecting_low_bits_reproduces_modulo() {
        let f = BitSelectIndex::new(vec![0, 1, 2, 3]).unwrap();
        for block in 0..64u64 {
            assert_eq!(f.index_block(block), (block & 15) as usize);
        }
        assert_eq!(f.num_sets(), 16);
    }

    #[test]
    fn gathers_scattered_bits() {
        let f = BitSelectIndex::new(vec![1, 4, 9]).unwrap();
        // block with bits 1 and 9 set, bit 4 clear -> index 0b101
        let block = (1 << 1) | (1 << 9);
        assert_eq!(f.index_block(block), 0b101);
        assert_eq!(f.num_sets(), 8);
    }

    #[test]
    fn validation() {
        assert!(BitSelectIndex::new(vec![]).is_err());
        assert!(BitSelectIndex::new(vec![3, 3]).is_err());
        assert!(BitSelectIndex::new(vec![64]).is_err());
        assert!(BitSelectIndex::new((0..31).collect()).is_err());
        assert!(BitSelectIndex::new(vec![63]).is_ok());
    }

    #[test]
    fn name_carries_positions() {
        let f = BitSelectIndex::named(vec![2, 7], "givargis").unwrap();
        assert!(f.name().starts_with("givargis"));
        assert!(f.name().contains('7'));
        assert_eq!(f.bits(), &[2, 7]);
    }

    proptest! {
        #[test]
        fn always_in_range(
            block in proptest::num::u64::ANY,
            bits in proptest::collection::hash_set(0u32..40, 1..12)
        ) {
            let bits: Vec<u32> = bits.into_iter().collect();
            let f = BitSelectIndex::new(bits).unwrap();
            prop_assert!(f.index_block(block) < f.num_sets());
        }

        /// The batched gather agrees with `index_block` whatever the bit
        /// order, so both shift directions of `index_many` are exercised
        /// (a bit below its index position moves left).
        #[test]
        fn index_many_matches_index_block_in_any_bit_order(
            seed in proptest::num::u64::ANY,
            bits in proptest::collection::hash_set(0u32..40, 1..12)
        ) {
            let f = BitSelectIndex::new(bits.into_iter().collect()).unwrap();
            let blocks: Vec<u64> = (0..37u64).map(|i| seed.rotate_left(i as u32) ^ i).collect();
            let mut out = vec![usize::MAX; blocks.len()];
            f.index_many(&blocks, &mut out);
            for (&b, &s) in blocks.iter().zip(&out) {
                prop_assert_eq!(s, f.index_block(b));
            }
        }

        #[test]
        fn index_depends_only_on_selected_bits(
            block in proptest::num::u64::ANY,
            noise in proptest::num::u64::ANY
        ) {
            let f = BitSelectIndex::new(vec![0, 5, 12]).unwrap();
            let mask = (1u64) | (1 << 5) | (1 << 12);
            // Perturb only unselected bits: index must not change.
            let perturbed = (block & mask) | (noise & !mask);
            prop_assert_eq!(f.index_block(block & mask), f.index_block(perturbed));
        }
    }
}
