//! The [`IndexFunction`] extension point — Section II of the paper.
//!
//! An index function maps a *block address* (byte address with offset bits
//! removed) to a set number. The conventional cache uses the low `m` bits
//! (modulo hashing, paper Figure 2); the schemes evaluated in the paper
//! replace this mapping while leaving the rest of the cache unchanged.

use crate::BlockAddr;
use std::sync::atomic::{AtomicBool, Ordering};

/// Width of the batched (SIMD) tier: every vectorized kernel in the
/// workspace processes this many elements per iteration. Eight `u64`
/// lanes fill one AVX-512 register, two AVX2 registers, or four NEON
/// registers — and, more importantly for this portable-Rust codebase,
/// give the autovectorizer a fixed-trip-count inner loop with no
/// cross-iteration dependencies.
pub const SIMD_LANES: usize = 8;

/// Whether the SIMD tier is active (ablation knob, default on).
// Allowed shared static: process-wide ablation knob, set once before any
// simulation runs; both settings produce byte-identical results (DESIGN §12).
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true); // uca:allow(shared-static)

/// The workspace's single SIMD abstraction (DESIGN §12).
///
/// There are no intrinsics and no `std::simd` anywhere in the tree: the
/// "SIMD tier" is hand-unrolled 8-wide array kernels whose shape the
/// autovectorizer reliably turns into vector code. `SimdLanes` is the
/// one place that shape lives — index functions express their batched
/// bodies as a kernel over `[T; SIMD_LANES]` chunks plus a scalar
/// fallback, and `SimdLanes` handles chunking, the ragged tail, and the
/// global ablation knob.
///
/// The knob ([`SimdLanes::set_enabled`]) exists so `xp --no-simd` can
/// force every batched path onto its scalar fallback; byte-identical
/// experiment output across the two settings is a CI gate. The knob is
/// process-global and `Relaxed`: both paths must produce identical
/// results, so a racing toggle can change *speed*, never *answers*.
pub enum SimdLanes {}

impl SimdLanes {
    /// True when batched kernels should run 8-wide (the default).
    #[inline]
    pub fn enabled() -> bool {
        // Allowed Relaxed read: the knob is written only during startup
        // (single-threaded), and the SIMD and scalar tiers are proven
        // byte-identical, so the read cannot steer output bytes.
        SIMD_ENABLED.load(Ordering::Relaxed) // uca:allow(relaxed-output)
    }

    /// Turns the SIMD tier on or off process-wide (ablation knob;
    /// `xp --no-simd` and the equivalence tests use this).
    pub fn set_enabled(on: bool) {
        SIMD_ENABLED.store(on, Ordering::Relaxed);
    }

    /// Maps `blocks[i]` to `out[i]` through an 8-wide kernel, with a
    /// scalar fallback for the ragged tail (and for the whole slice when
    /// the tier is disabled). `kernel` and `scalar` must agree exactly.
    ///
    /// # Panics
    /// If `out` is shorter than `blocks` (same contract as
    /// [`IndexFunction::index_many`]).
    #[inline]
    pub fn map<T: Copy>(
        blocks: &[BlockAddr],
        out: &mut [T],
        mut kernel: impl FnMut(&[BlockAddr; SIMD_LANES], &mut [T; SIMD_LANES]),
        mut scalar: impl FnMut(BlockAddr) -> T,
    ) {
        assert!(
            out.len() >= blocks.len(),
            "index_many: out buffer holds {} slots for {} blocks",
            out.len(),
            blocks.len()
        );
        let out = &mut out[..blocks.len()];
        if !Self::enabled() {
            for (slot, &b) in out.iter_mut().zip(blocks) {
                *slot = scalar(b);
            }
            return;
        }
        let (in_bodies, in_tail) = blocks.as_chunks::<SIMD_LANES>();
        let (out_bodies, out_tail) = out.as_chunks_mut::<SIMD_LANES>();
        for (b8, o8) in in_bodies.iter().zip(out_bodies) {
            kernel(b8, o8);
        }
        for (slot, &b) in out_tail.iter_mut().zip(in_tail) {
            *slot = scalar(b);
        }
    }
}

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
/// the batched (SIMD-tier) kernels are used and the scratch buffer stays
/// L1-resident. This is shared plumbing between the analytical model's
/// placement evaluation (per-set footprint without simulating the trace)
/// and invariant checks that need set coverage witnesses.
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

    #[test]
    fn simd_map_handles_ragged_tails() {
        // Lengths straddling the 8-lane boundary, including empty.
        for n in [0usize, 1, 7, 8, 9, 16, 17, 1023, 1024] {
            let blocks: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
            let mut out = vec![usize::MAX; n + 3]; // oversize: only n slots written
            SimdLanes::map(
                &blocks,
                &mut out,
                |b8, o8| {
                    for l in 0..SIMD_LANES {
                        o8[l] = (b8[l] % 8) as usize;
                    }
                },
                |b| (b % 8) as usize,
            );
            for (i, &b) in blocks.iter().enumerate() {
                assert_eq!(out[i], (b % 8) as usize, "lane {i} of {n}");
            }
            assert!(out[n..].iter().all(|&x| x == usize::MAX));
        }
    }

    #[test]
    fn ablation_knob_switches_paths_without_changing_results() {
        let blocks: Vec<u64> = (0..100).map(|i| i * 31).collect();
        let run = || {
            let mut out = vec![0usize; blocks.len()];
            Mod8.index_many(&blocks, &mut out);
            out
        };
        let wide = run();
        SimdLanes::set_enabled(false);
        assert!(!SimdLanes::enabled());
        let narrow = run();
        SimdLanes::set_enabled(true);
        assert!(SimdLanes::enabled());
        assert_eq!(wide, narrow);
    }
}
