//! The [`IndexFunction`] extension point — Section II of the paper.
//!
//! An index function maps a *block address* (byte address with offset bits
//! removed) to a set number. The conventional cache uses the low `m` bits
//! (modulo hashing, paper Figure 2); the schemes evaluated in the paper
//! replace this mapping while leaving the rest of the cache unchanged.

use crate::BlockAddr;

/// A cache set-index function.
///
/// Implementations must be cheap (`index_block` sits in the innermost
/// simulation loop) and deterministic. They are `Send + Sync` so experiment
/// sweeps can evaluate many workloads in parallel against shared, immutable
/// function instances.
pub trait IndexFunction: Send + Sync {
    /// Maps a block address to a set in `0..self.num_sets()`.
    fn index_block(&self, block: BlockAddr) -> usize;

    /// Number of sets this function indexes into.
    ///
    /// Note: a function may deliberately use *fewer* sets than the cache has
    /// (prime-modulo leaves `sets - p` sets unused — the paper's "cache
    /// fragmentation"); it must never return an index `>= num_sets()` of the
    /// attached cache.
    fn num_sets(&self) -> usize;

    /// Human-readable name, e.g. `"odd_multiplier(21)"`, used in reports.
    fn name(&self) -> &str;

    /// Maps a whole slice of block addresses at once, writing the set of
    /// `blocks[i]` into `out[i]`.
    ///
    /// This is the fused kernel's chunk entry point: calling it through
    /// `&dyn IndexFunction` costs one virtual dispatch per *chunk*, after
    /// which the default body below is the monomorphized one compiled for
    /// the concrete function, so its `index_block` calls inline. The
    /// wrapper impls (`&T`/`Box`/`Arc`) forward to the inner type for the
    /// same reason — without the forward they would re-dispatch
    /// `index_block` per element.
    ///
    /// # Panics
    /// If `out` is shorter than `blocks`.
    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        assert!(
            out.len() >= blocks.len(),
            "index_many: out buffer holds {} slots for {} blocks",
            out.len(),
            blocks.len()
        );
        for (slot, &b) in out.iter_mut().zip(blocks) {
            *slot = self.index_block(b);
        }
    }
}

/// Set-occupancy histogram of an index function over a block list:
/// slot `s` of the result counts how many of `blocks` map to set `s`
/// (length [`IndexFunction::num_sets`]).
///
/// Routed through [`IndexFunction::index_many`] in fixed-size chunks so
/// the schemes' whole-slice overrides (bit gathers, `fastmod`) are used
/// and the scratch buffer stays L1-resident. This is shared plumbing
/// between the analytical model's placement evaluation (per-set
/// footprint without simulating the trace) and invariant checks that
/// need set coverage witnesses.
pub fn set_histogram(f: &dyn IndexFunction, blocks: &[BlockAddr]) -> Vec<u64> {
    const CHUNK: usize = 1024;
    let mut hist = vec![0u64; f.num_sets()];
    let mut out = [0usize; CHUNK];
    for chunk in blocks.chunks(CHUNK) {
        f.index_many(chunk, &mut out[..chunk.len()]);
        for &s in &out[..chunk.len()] {
            hist[s] += 1;
        }
    }
    hist
}

// Allow passing boxed/shared functions wherever a function is expected.
impl<T: IndexFunction + ?Sized> IndexFunction for &T {
    fn index_block(&self, block: BlockAddr) -> usize {
        (**self).index_block(block)
    }
    fn num_sets(&self) -> usize {
        (**self).num_sets()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        (**self).index_many(blocks, out)
    }
}

impl<T: IndexFunction + ?Sized> IndexFunction for Box<T> {
    fn index_block(&self, block: BlockAddr) -> usize {
        (**self).index_block(block)
    }
    fn num_sets(&self) -> usize {
        (**self).num_sets()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        (**self).index_many(blocks, out)
    }
}

impl<T: IndexFunction + ?Sized> IndexFunction for std::sync::Arc<T> {
    fn index_block(&self, block: BlockAddr) -> usize {
        (**self).index_block(block)
    }
    fn num_sets(&self) -> usize {
        (**self).num_sets()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        (**self).index_many(blocks, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Mod8;
    impl IndexFunction for Mod8 {
        fn index_block(&self, block: BlockAddr) -> usize {
            (block % 8) as usize
        }
        fn num_sets(&self) -> usize {
            8
        }
        fn name(&self) -> &str {
            "mod8"
        }
    }

    fn takes_dyn(f: &dyn IndexFunction) -> usize {
        f.index_block(13)
    }

    #[test]
    fn trait_objects_and_wrappers_delegate() {
        let f = Mod8;
        assert_eq!(takes_dyn(&f), 5);
        let b: Box<dyn IndexFunction> = Box::new(Mod8);
        assert_eq!(b.index_block(13), 5);
        assert_eq!(b.num_sets(), 8);
        assert_eq!(b.name(), "mod8");
        let a: std::sync::Arc<dyn IndexFunction> = std::sync::Arc::new(Mod8);
        assert_eq!(a.index_block(9), 1);
        let r: &dyn IndexFunction = &f;
        assert_eq!(IndexFunction::index_block(&r, 16), 0);
    }

    #[test]
    fn index_many_matches_index_block_through_every_wrapper() {
        let blocks: Vec<u64> = (0..50).map(|i| i * 13).collect();
        let expect: Vec<usize> = blocks.iter().map(|&b| Mod8.index_block(b)).collect();
        let a: std::sync::Arc<dyn IndexFunction> = std::sync::Arc::new(Mod8);
        let b: Box<dyn IndexFunction> = Box::new(Mod8);
        let r: &dyn IndexFunction = &Mod8;
        for f in [&a as &dyn IndexFunction, &b, &r] {
            let mut out = vec![usize::MAX; blocks.len()];
            f.index_many(&blocks, &mut out);
            assert_eq!(out, expect);
        }
    }

    #[test]
    #[should_panic(expected = "out buffer")]
    fn index_many_rejects_short_out_buffer() {
        let mut out = vec![0usize; 2];
        Mod8.index_many(&[1, 2, 3], &mut out);
    }
}
