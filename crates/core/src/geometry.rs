//! Cache geometry: capacity, line size, associativity and the address-bit
//! layout they induce.
//!
//! Mirrors the paper's Section 1.1: an address space of `2^N` bytes, a cache
//! of `2^n` lines of `2^b` bytes; `m = n - log2(k)` index bits for a k-way
//! cache, `b` offset bits, and `N - m - b` tag bits (paper Figure 2).

use crate::cast;
use crate::error::{ConfigError, Result};
use crate::{is_pow2, log2, Addr, BlockAddr};

/// Static shape of a cache: number of sets, ways per set and line size.
///
/// The paper's baseline is a 32 KB direct-mapped L1 with 32-byte lines,
/// i.e. 1024 sets × 1 way × 32 B — available as
/// [`CacheGeometry::paper_l1`].
///
/// ```
/// use unicache_core::CacheGeometry;
/// let g = CacheGeometry::new(32 * 1024, 32, 1).unwrap();
/// assert_eq!(g.num_sets(), 1024);
/// assert_eq!(g.index_bits(), 10);
/// assert_eq!(g.offset_bits(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    capacity_bytes: u64,
    line_bytes: u64,
    ways: u32,
    num_sets: usize,
    offset_bits: u32,
    index_bits: u32,
}

impl CacheGeometry {
    /// Builds a geometry from total capacity, line size and associativity.
    ///
    /// # Errors
    ///
    /// * capacity or line size not a power of two,
    /// * `ways == 0`, or
    /// * `capacity / (line * ways)` not a positive power of two (the set
    ///   count must be a power of two so that a conventional index is a bit
    ///   slice).
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: u32) -> Result<Self> {
        if !is_pow2(capacity_bytes) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache capacity",
                value: capacity_bytes,
            });
        }
        if !is_pow2(line_bytes) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                value: line_bytes,
            });
        }
        if ways == 0 {
            return Err(ConfigError::OutOfRange {
                what: "ways",
                expected: ">= 1".into(),
                got: 0,
            });
        }
        let lines = capacity_bytes / line_bytes;
        if lines == 0 || !lines.is_multiple_of(cast::u64_from_u32(ways)) {
            return Err(ConfigError::Mismatch {
                what: format!(
                    "capacity {capacity_bytes} B / line {line_bytes} B = {lines} lines \
                     is not divisible by {ways} ways"
                ),
            });
        }
        let num_sets = lines / cast::u64_from_u32(ways);
        if !is_pow2(num_sets) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "number of sets",
                value: num_sets,
            });
        }
        Ok(CacheGeometry {
            capacity_bytes,
            line_bytes,
            ways,
            num_sets: cast::usize_from_u64(num_sets),
            offset_bits: log2(line_bytes),
            index_bits: log2(num_sets),
        })
    }

    /// Builds a geometry directly from a set count (must be a power of two).
    pub fn from_sets(num_sets: usize, line_bytes: u64, ways: u32) -> Result<Self> {
        let sets = cast::u64_from_usize(num_sets);
        if !is_pow2(sets) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "number of sets",
                value: sets,
            });
        }
        Self::new(
            sets * line_bytes * cast::u64_from_u32(ways),
            line_bytes,
            ways,
        )
    }

    /// The paper's L1 baseline: 32 KB, direct-mapped, 32 B lines (1024 sets,
    /// 10 index bits, 5 offset bits).
    ///
    /// Written as a literal (rather than `Self::new(...).expect(...)`) so
    /// construction is infallible and `const`; `paper_shapes_agree_with_new`
    /// in this module's tests pins it to what `new` would compute.
    pub const fn paper_l1() -> Self {
        CacheGeometry {
            capacity_bytes: 32 * 1024,
            line_bytes: 32,
            ways: 1,
            num_sets: 1024,
            offset_bits: 5,
            index_bits: 10,
        }
    }

    /// The paper's unified L2: 256 KB, 32 B lines. The paper does not state
    /// the L2 associativity; we follow common SimpleScalar configurations and
    /// use 4-way with LRU (the replacement policy the paper does state).
    pub const fn paper_l2() -> Self {
        CacheGeometry {
            capacity_bytes: 256 * 1024,
            line_bytes: 32,
            ways: 4,
            num_sets: 2048,
            offset_bits: 5,
            index_bits: 11,
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Line (block) size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Associativity (lines per set).
    #[inline]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Total number of lines (`num_sets * ways`).
    #[inline]
    pub fn num_lines(&self) -> usize {
        self.num_sets * cast::usize_from_u32(self.ways)
    }

    /// Byte-offset bits (`b` in the paper).
    #[inline]
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Index bits (`m` in the paper).
    #[inline]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Converts a byte address to a block address by dropping offset bits.
    #[inline]
    pub fn block_addr(&self, addr: Addr) -> BlockAddr {
        addr >> self.offset_bits
    }

    /// The conventional (modulo `2^m`) set index of an address — the paper's
    /// Figure 2 mapping and the baseline every scheme is compared against.
    #[inline]
    pub fn conventional_index(&self, addr: Addr) -> usize {
        cast::usize_from_u64(self.block_addr(addr) & (cast::u64_from_usize(self.num_sets) - 1))
    }

    /// The tag of an address under conventional indexing: block address with
    /// the index bits shifted out.
    #[inline]
    pub fn tag(&self, addr: Addr) -> u64 {
        self.block_addr(addr) >> self.index_bits
    }

    /// Splits a block address into `(tag, conventional index)`.
    #[inline]
    pub fn split_block(&self, block: BlockAddr) -> (u64, usize) {
        (
            block >> self.index_bits,
            cast::usize_from_u64(block & (cast::u64_from_usize(self.num_sets) - 1)),
        )
    }

    /// Reassembles a block address from `(tag, index)` — the inverse of
    /// [`CacheGeometry::split_block`].
    #[inline]
    pub fn join_block(&self, tag: u64, index: usize) -> BlockAddr {
        (tag << self.index_bits) | cast::u64_from_usize(index)
    }

    /// First byte address of a block.
    #[inline]
    pub fn block_base(&self, block: BlockAddr) -> Addr {
        block << self.offset_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_shape() {
        let g = CacheGeometry::paper_l1();
        assert_eq!(g.capacity_bytes(), 32 * 1024);
        assert_eq!(g.line_bytes(), 32);
        assert_eq!(g.ways(), 1);
        assert_eq!(g.num_sets(), 1024);
        assert_eq!(g.num_lines(), 1024);
        assert_eq!(g.offset_bits(), 5);
        assert_eq!(g.index_bits(), 10);
    }

    #[test]
    fn paper_l2_shape() {
        let g = CacheGeometry::paper_l2();
        assert_eq!(g.capacity_bytes(), 256 * 1024);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.num_sets(), 2048);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(CacheGeometry::new(1000, 32, 1).is_err()); // capacity not pow2
        assert!(CacheGeometry::new(1024, 33, 1).is_err()); // line not pow2
        assert!(CacheGeometry::new(1024, 32, 0).is_err()); // zero ways
        assert!(CacheGeometry::new(1024, 32, 3).is_err()); // 32 lines % 3 != 0
                                                           // 8 lines 8-way fully associative: 1 set — allowed.
        assert!(CacheGeometry::new(256, 32, 8).is_ok());
    }

    #[test]
    fn paper_shapes_agree_with_new() {
        assert_eq!(
            CacheGeometry::paper_l1(),
            CacheGeometry::new(32 * 1024, 32, 1).unwrap()
        );
        assert_eq!(
            CacheGeometry::paper_l2(),
            CacheGeometry::new(256 * 1024, 32, 4).unwrap()
        );
    }

    #[test]
    fn from_sets_round_trips() {
        let g = CacheGeometry::from_sets(1024, 32, 1).unwrap();
        assert_eq!(g, CacheGeometry::paper_l1());
        assert!(CacheGeometry::from_sets(1000, 32, 1).is_err());
    }

    #[test]
    fn address_decomposition() {
        let g = CacheGeometry::paper_l1();
        // addr = tag 0x3 | index 0x155 | offset 0x11
        let addr: Addr = (0x3 << 15) | (0x155 << 5) | 0x11;
        assert_eq!(g.conventional_index(addr), 0x155);
        assert_eq!(g.tag(addr), 0x3);
        assert_eq!(g.block_addr(addr), (0x3 << 10) | 0x155);
        let (t, i) = g.split_block(g.block_addr(addr));
        assert_eq!((t, i), (0x3, 0x155));
        assert_eq!(g.join_block(t, i), g.block_addr(addr));
    }

    #[test]
    fn block_base_inverts_block_addr_on_aligned() {
        let g = CacheGeometry::paper_l1();
        let aligned = 0xABCD00 & !(g.line_bytes() - 1);
        assert_eq!(g.block_base(g.block_addr(aligned)), aligned);
    }

    #[test]
    fn fully_associative_has_zero_index_bits() {
        let g = CacheGeometry::new(1024, 32, 32).unwrap();
        assert_eq!(g.num_sets(), 1);
        assert_eq!(g.index_bits(), 0);
        assert_eq!(g.conventional_index(0xDEADBEEF), 0);
        assert_eq!(g.tag(0xDEADBEEF), 0xDEADBEEF >> 5);
    }

    #[test]
    fn debug_output_carries_fields() {
        let g = CacheGeometry::paper_l1();
        let s = format!("{g:?}");
        assert!(s.contains("1024"));
        assert!(s.contains("32"));
    }
}
