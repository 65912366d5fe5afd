//! Conventional modulo-2^m indexing — the paper's Figure 2 baseline.

use unicache_core::{is_pow2, BlockAddr, ConfigError, IndexFunction, Result};

/// The traditional index: the low `m` bits of the block address.
///
/// Every percentage in the paper's Figs. 4 and 6 is a reduction *relative
/// to this function* on a direct-mapped cache.
#[derive(Debug, Clone)]
pub struct ModuloIndex {
    sets: usize,
    mask: u64,
}

impl ModuloIndex {
    /// A modulo index over `sets` sets (must be a power of two).
    pub fn new(sets: usize) -> Result<Self> {
        if !is_pow2(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "modulo index sets",
                value: sets as u64,
            });
        }
        Ok(ModuloIndex {
            sets,
            mask: sets as u64 - 1,
        })
    }
}

impl IndexFunction for ModuloIndex {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        (block & self.mask) as usize
    }

    fn num_sets(&self) -> usize {
        self.sets
    }

    fn name(&self) -> &str {
        "conventional"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn low_bits_are_the_index() {
        let f = ModuloIndex::new(1024).unwrap();
        assert_eq!(f.index_block(0), 0);
        assert_eq!(f.index_block(1023), 1023);
        assert_eq!(f.index_block(1024), 0);
        assert_eq!(f.index_block(0xABCDE), 0xABCDE & 1023);
        assert_eq!(f.num_sets(), 1024);
        assert_eq!(f.name(), "conventional");
    }

    #[test]
    fn single_set_cache() {
        let f = ModuloIndex::new(1).unwrap();
        assert_eq!(f.index_block(0xFFFF_FFFF), 0);
    }

    #[test]
    fn rejects_non_pow2() {
        assert!(ModuloIndex::new(0).is_err());
        assert!(ModuloIndex::new(1000).is_err());
    }

    proptest! {
        #[test]
        fn always_in_range(block in proptest::num::u64::ANY, log_sets in 0u32..16) {
            let sets = 1usize << log_sets;
            let f = ModuloIndex::new(sets).unwrap();
            prop_assert!(f.index_block(block) < sets);
        }

        #[test]
        fn consecutive_blocks_map_to_consecutive_sets(block in 0u64..u64::MAX - 1) {
            let f = ModuloIndex::new(1024).unwrap();
            let a = f.index_block(block);
            let b = f.index_block(block + 1);
            prop_assert_eq!((a + 1) % 1024, b);
        }
    }
}
