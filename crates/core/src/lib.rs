//! # unicache-core
//!
//! Vocabulary types shared by every crate in the *unicache* workspace — the
//! reproduction of *"Evaluation of Techniques to Improve Cache Access
//! Uniformities"* (Nwachukwu, Kavi, Fawibe, Yan — ICPP 2011).
//!
//! This crate deliberately contains **no policy**: it defines
//!
//! * address arithmetic ([`Addr`], [`geometry::CacheGeometry`]),
//! * the memory-reference record that traces are made of
//!   ([`record::MemRecord`]),
//! * the two extension points every technique in the paper plugs into —
//!   [`index::IndexFunction`] (Section II of the paper: cache indexing
//!   schemes) and [`model::CacheModel`] (Section III: programmable
//!   associativity), and
//! * the per-set statistics counters ([`stats::CacheStats`]) from which all
//!   of the paper's figures (miss-rate reductions, AMAT, kurtosis/skewness
//!   of per-set misses) are derived.
//!
//! Concrete indexing functions live in `unicache-indexing`, concrete cache
//! organisations in `unicache-sim` and `unicache-assoc`.

pub mod batch;
pub mod cast;
pub mod error;
pub mod footprint;
pub mod geometry;
pub mod hasher;
pub mod index;
pub mod lru;
pub mod model;
pub mod record;
pub mod stats;

pub use batch::{
    core_routes, pack_coherent_chunk, run_fused, run_fused_egress, unpack_blocks, BlockStream,
    CoherentStream, Egress, EgressSink, FusedLane, TaggedLane, FUSE_CHUNK,
};
pub use error::{ConfigError, Result};
pub use footprint::{BlockCounter, BlockMap};
pub use geometry::CacheGeometry;
pub use hasher::{DetHashMap, DetHashSet, DetState};
pub use index::{set_histogram, IndexFunction};
pub use lru::{LruDir, LruSet};
pub use model::{AccessResult, CacheModel, CoherentModel, HitWhere};
pub use record::{AccessKind, MemRecord, ThreadId};
pub use stats::{CacheStats, SetStats, StatsSink, Tally};

/// A physical/virtual memory address. The paper's experiments use 32-bit
/// Alpha addresses; we use 64 bits so synthetic address spaces can place
/// heap, stack and global regions far apart like a real process image.
pub type Addr = u64;

/// A *block address*: the memory address with the byte-offset bits shifted
/// out (`addr >> geometry.offset_bits()`). All index functions operate on
/// block addresses, mirroring how a cache drops offset bits before decoding.
pub type BlockAddr = u64;

/// Compile-time Send/Sync audit of the types the parallel executor moves
/// or shares across worker threads (`unicache-exec`): shared inputs
/// ([`BlockStream`], [`MemRecord`] slices, [`CacheGeometry`]) must be
/// `Sync`, and per-job outputs ([`CacheStats`]) plus boxed models must be
/// `Send`. [`CacheModel`] itself carries a `Send` supertrait bound, so a
/// scheme implementation that smuggles in an `Rc`/raw pointer fails to
/// compile at its `impl`, not at a distant spawn site; these assertions
/// pin the concrete vocabulary types the same way.
const _: () = {
    const fn sendable<T: Send + ?Sized>() {}
    const fn shareable<T: Sync + ?Sized>() {}
    sendable::<CacheStats>();
    sendable::<SetStats>();
    sendable::<Box<dyn CacheModel>>();
    sendable::<Box<dyn CoherentModel>>();
    shareable::<BlockStream<'static>>();
    shareable::<CoherentStream>();
    shareable::<CacheStats>();
    shareable::<CacheGeometry>();
    shareable::<MemRecord>();
    shareable::<[MemRecord]>();
    shareable::<dyn IndexFunction>();
};

/// Returns `true` if `x` is a power of two (and non-zero).
#[inline]
pub const fn is_pow2(x: u64) -> bool {
    x != 0 && (x & (x - 1)) == 0
}

/// log2 of a power of two. Panics in debug builds if `x` is not a power of
/// two; in release it returns the floor.
#[inline]
pub const fn log2(x: u64) -> u32 {
    debug_assert!(is_pow2(x));
    x.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_detection() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(1024));
        assert!(is_pow2(1 << 40));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(1023));
        assert!(!is_pow2(u64::MAX));
    }

    #[test]
    fn log2_of_pow2() {
        assert_eq!(log2(1), 0);
        assert_eq!(log2(2), 1);
        assert_eq!(log2(32), 5);
        assert_eq!(log2(1024), 10);
    }
}
