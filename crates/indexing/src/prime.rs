//! Prime-modulo indexing (paper Section II.B, Eq. 3).
//!
//! `index = block_address mod p`, with `p` the largest prime not exceeding
//! the set count. Prime moduli spread regular strides that power-of-two
//! moduli fold onto a few sets. Costs: `p < sets` leaves `sets - p` sets
//! unused (*cache fragmentation*, per the paper), and real hardware needs
//! multi-cycle modulo units — both faithfully modeled here (fragmentation in
//! the mapping, latency in `unicache-timing`).

use crate::primes::largest_prime_leq;
use unicache_core::{is_pow2, BlockAddr, ConfigError, IndexFunction, Result};

/// Prime-modulo hashing.
#[derive(Debug, Clone)]
pub struct PrimeModuloIndex {
    sets: usize,
    prime: u64,
    /// Lemire fastmod constant `ceil(2^128 / prime)`, precomputed so the
    /// batched kernel replaces the hardware divide with two multiplies.
    magic: u128,
    name: String,
}

/// `ceil(2^128 / d)` for `d >= 2` (Lemire, "Faster remainder by direct
/// computation", 2019). With `M = magic`, `n mod d` is the high 64 bits of
/// `(M * n mod 2^128) * d` — exact for every 64-bit `n`.
fn fastmod_magic(d: u64) -> u128 {
    u128::MAX / u128::from(d) + 1
}

/// `n mod d` via the precomputed fastmod constant.
#[inline]
fn fastmod(n: u64, magic: u128, d: u64) -> u64 {
    // `magic * n mod 2^128`, as the 64x64-bit product of `n` and the low
    // word of `magic` plus the wrapped product with its high word.
    let (magic_lo, magic_hi) = (magic as u64, (magic >> 64) as u64);
    let lowbits = (u128::from(magic_lo) * u128::from(n))
        .wrapping_add(u128::from(magic_hi.wrapping_mul(n)) << 64);
    // High 64 bits of the 128x64-bit product `lowbits * d`, computed in
    // two 64x64 halves (no native u192).
    let d = u128::from(d);
    let bottom = ((lowbits & u128::from(u64::MAX)) * d) >> 64;
    let top = (lowbits >> 64) * d;
    (((bottom + top) >> 64) & u128::from(u64::MAX)) as u64
}

impl PrimeModuloIndex {
    /// Uses the largest prime `<= sets`.
    pub fn new(sets: usize) -> Result<Self> {
        if !is_pow2(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "prime-modulo cache sets",
                value: sets as u64,
            });
        }
        let prime = largest_prime_leq(sets as u64).ok_or(ConfigError::OutOfRange {
            what: "prime-modulo sets",
            expected: ">= 2".into(),
            got: sets as u64,
        })?;
        Ok(PrimeModuloIndex {
            sets,
            prime,
            magic: fastmod_magic(prime),
            name: format!("prime_modulo({prime})"),
        })
    }

    /// Uses an explicit prime `p <= sets` (for ablations with smaller
    /// primes and more fragmentation).
    pub fn with_prime(sets: usize, p: u64) -> Result<Self> {
        if !is_pow2(sets as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "prime-modulo cache sets",
                value: sets as u64,
            });
        }
        if !crate::primes::is_prime(p) {
            return Err(ConfigError::InvalidParameter {
                what: format!("{p} is not prime"),
            });
        }
        if p > sets as u64 {
            return Err(ConfigError::OutOfRange {
                what: "prime modulus",
                expected: format!("<= {sets}"),
                got: p,
            });
        }
        Ok(PrimeModuloIndex {
            sets,
            prime: p,
            magic: fastmod_magic(p),
            name: format!("prime_modulo({p})"),
        })
    }

    /// The modulus in use.
    pub fn prime(&self) -> u64 {
        self.prime
    }

    /// Number of sets this function can never produce (`sets - p`).
    pub fn fragmented_sets(&self) -> usize {
        self.sets - self.prime as usize
    }
}

impl IndexFunction for PrimeModuloIndex {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        (block % self.prime) as usize
    }

    fn num_sets(&self) -> usize {
        self.sets
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        // `index_block` stays `% prime`, so the equivalence tests
        // cross-validate the fastmod constant against the hardware divide.
        for (slot, &b) in out[..blocks.len()].iter_mut().zip(blocks) {
            *slot = fastmod(b, self.magic, self.prime) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_cache_uses_1021() {
        let f = PrimeModuloIndex::new(1024).unwrap();
        assert_eq!(f.prime(), 1021);
        assert_eq!(f.fragmented_sets(), 3);
        assert_eq!(f.name(), "prime_modulo(1021)");
        assert_eq!(f.num_sets(), 1024);
    }

    #[test]
    fn mapping_is_block_mod_p() {
        let f = PrimeModuloIndex::new(1024).unwrap();
        assert_eq!(f.index_block(0), 0);
        assert_eq!(f.index_block(1021), 0);
        assert_eq!(f.index_block(1022), 1);
        assert_eq!(f.index_block(123_456_789), (123_456_789u64 % 1021) as usize);
    }

    #[test]
    fn top_sets_are_never_used() {
        let f = PrimeModuloIndex::new(1024).unwrap();
        for block in 0..100_000u64 {
            assert!(f.index_block(block) < 1021);
        }
    }

    #[test]
    fn explicit_prime_validation() {
        assert!(PrimeModuloIndex::with_prime(1024, 509).is_ok());
        assert!(PrimeModuloIndex::with_prime(1024, 1021).is_ok());
        assert!(PrimeModuloIndex::with_prime(1024, 1022).is_err()); // composite
        assert!(PrimeModuloIndex::with_prime(1024, 2039).is_err()); // > sets
        assert!(PrimeModuloIndex::with_prime(1000, 509).is_err()); // sets not pow2
    }

    #[test]
    fn spreads_power_of_two_strides() {
        // Stride of exactly `sets` blocks: conventional indexing maps every
        // reference to set 0; prime modulo spreads them.
        let f = PrimeModuloIndex::new(1024).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100u64 {
            seen.insert(f.index_block(i * 1024));
        }
        assert!(seen.len() > 90, "only {} distinct sets", seen.len());
    }

    proptest! {
        #[test]
        fn always_below_prime(block in proptest::num::u64::ANY) {
            let f = PrimeModuloIndex::new(1024).unwrap();
            prop_assert!(f.index_block(block) < 1021);
        }

        /// The fastmod constant is exact for any divisor (not only primes)
        /// over the full 64-bit input range.
        #[test]
        fn fastmod_matches_hardware_modulo(n in proptest::num::u64::ANY, d in 2u64..u64::MAX) {
            prop_assert_eq!(fastmod(n, fastmod_magic(d), d), n % d);
        }

        /// The batched kernel agrees with `% prime` element-for-element,
        /// including the ragged tail.
        #[test]
        fn index_many_matches_scalar(seed in proptest::num::u64::ANY, len in 0usize..40) {
            let f = PrimeModuloIndex::new(1024).unwrap();
            let blocks: Vec<u64> = (0..len as u64)
                .map(|i| seed.wrapping_mul(i.wrapping_add(0x9E3779B97F4A7C15)))
                .collect();
            let mut out = vec![0usize; len];
            f.index_many(&blocks, &mut out);
            for (i, &b) in blocks.iter().enumerate() {
                prop_assert_eq!(out[i], f.index_block(b));
            }
        }
    }
}
