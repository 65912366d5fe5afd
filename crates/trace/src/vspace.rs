//! A simulated process virtual address space.
//!
//! MiBench programs compiled for Alpha and run under SimpleScalar touch
//! addresses spread over a process image: code low, globals above it, a
//! heap growing upward and a stack growing downward from high addresses.
//! The *relative placement* of these regions is what creates realistic
//! tag/index bit patterns, so our instrumented kernels allocate from this
//! simulated image instead of using host pointers (which would change from
//! run to run and machine to machine — traces must be deterministic).

use unicache_core::Addr;

/// The classic four program regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Program text (instruction fetches).
    Text,
    /// Globals / static data.
    Global,
    /// Heap (grows upward).
    Heap,
    /// Stack (grows downward).
    Stack,
}

/// Base addresses follow a conventional 32-bit-ish layout (the paper's
/// Alpha binaries are 64-bit ISA with 32-bit-range user images; what
/// matters for cache indexing is the low ~28 bits).
const TEXT_BASE: Addr = 0x0040_0000;
const GLOBAL_BASE: Addr = 0x1000_0000;
const HEAP_BASE: Addr = 0x2000_0000;
const STACK_BASE: Addr = 0x7FFF_F000; // grows down from here

/// Bump allocator over the four regions of a simulated process image.
///
/// Allocation never frees (workload kernels are single-shot); `reset`
/// restores the pristine image for a fresh run.
#[derive(Debug, Clone)]
pub struct VirtualSpace {
    text_cursor: Addr,
    global_cursor: Addr,
    heap_cursor: Addr,
    stack_cursor: Addr,
}

impl Default for VirtualSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualSpace {
    /// A pristine process image.
    pub fn new() -> Self {
        VirtualSpace {
            text_cursor: TEXT_BASE,
            global_cursor: GLOBAL_BASE,
            heap_cursor: HEAP_BASE,
            stack_cursor: STACK_BASE,
        }
    }

    /// Restores the pristine image.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Allocates `bytes` bytes aligned to `align` (a power of two) in
    /// `region`; returns the base address of the allocation.
    ///
    /// Stack allocations grow downward (the returned base is *below* the
    /// previous cursor), mirroring how locals are laid out in a frame.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two or `bytes == 0` allocations
    /// are permitted but aligned as requested.
    pub fn alloc(&mut self, region: Region, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mask = align - 1;
        match region {
            Region::Text => {
                let base = (self.text_cursor + mask) & !mask;
                self.text_cursor = base + bytes;
                base
            }
            Region::Global => {
                let base = (self.global_cursor + mask) & !mask;
                self.global_cursor = base + bytes;
                base
            }
            Region::Heap => {
                let base = (self.heap_cursor + mask) & !mask;
                self.heap_cursor = base + bytes;
                base
            }
            Region::Stack => {
                let top = self.stack_cursor - bytes;
                let base = top & !mask;
                self.stack_cursor = base;
                base
            }
        }
    }

    /// Heap allocation helper with natural 16-byte malloc-style alignment
    /// plus an 16-byte "header" gap between consecutive allocations, like a
    /// real allocator leaves.
    pub fn malloc(&mut self, bytes: u64) -> Addr {
        let base = self.alloc(Region::Heap, bytes + 16, 16);
        base + 16
    }

    /// Current top of the heap (next unaligned heap address).
    pub fn heap_top(&self) -> Addr {
        self.heap_cursor
    }

    /// Current bottom of the stack region (lowest allocated stack address).
    pub fn stack_bottom(&self) -> Addr {
        self.stack_cursor
    }

    /// Total bytes allocated in `region` so far.
    pub fn allocated(&self, region: Region) -> u64 {
        match region {
            Region::Text => self.text_cursor - TEXT_BASE,
            Region::Global => self.global_cursor - GLOBAL_BASE,
            Region::Heap => self.heap_cursor - HEAP_BASE,
            Region::Stack => STACK_BASE - self.stack_cursor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn regions_do_not_overlap_initially() {
        let mut vs = VirtualSpace::new();
        let t = vs.alloc(Region::Text, 4096, 4);
        let g = vs.alloc(Region::Global, 4096, 8);
        let h = vs.alloc(Region::Heap, 4096, 16);
        let s = vs.alloc(Region::Stack, 4096, 16);
        assert!(t < g && g < h && h < s);
    }

    #[test]
    fn alignment_respected() {
        let mut vs = VirtualSpace::new();
        vs.alloc(Region::Heap, 3, 1); // misalign the cursor
        let a = vs.alloc(Region::Heap, 100, 64);
        assert_eq!(a % 64, 0);
        let b = vs.alloc(Region::Stack, 100, 32);
        assert_eq!(b % 32, 0);
    }

    #[test]
    fn heap_grows_up_stack_grows_down() {
        let mut vs = VirtualSpace::new();
        let h1 = vs.alloc(Region::Heap, 64, 8);
        let h2 = vs.alloc(Region::Heap, 64, 8);
        assert!(h2 >= h1 + 64);
        let s1 = vs.alloc(Region::Stack, 64, 8);
        let s2 = vs.alloc(Region::Stack, 64, 8);
        assert!(s2 + 64 <= s1);
    }

    #[test]
    fn malloc_leaves_header_gap() {
        let mut vs = VirtualSpace::new();
        let a = vs.malloc(40);
        let b = vs.malloc(40);
        assert!(b >= a + 40 + 16);
        assert_eq!(a % 16, 0);
        assert_eq!(b % 16, 0);
    }

    #[test]
    fn reset_restores_cursors() {
        let mut vs = VirtualSpace::new();
        let first = vs.alloc(Region::Heap, 128, 8);
        vs.alloc(Region::Stack, 128, 8);
        assert!(vs.allocated(Region::Heap) >= 128);
        vs.reset();
        assert_eq!(vs.allocated(Region::Heap), 0);
        assert_eq!(vs.allocated(Region::Stack), 0);
        assert_eq!(vs.alloc(Region::Heap, 128, 8), first);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_alignment_panics() {
        VirtualSpace::new().alloc(Region::Heap, 8, 3);
    }

    proptest! {
        #[test]
        fn allocations_never_overlap(
            sizes in proptest::collection::vec((1u64..10_000, 0u32..7), 1..100)
        ) {
            let mut vs = VirtualSpace::new();
            let mut heap_spans: Vec<(Addr, Addr)> = Vec::new();
            for (sz, align_log) in sizes {
                let a = vs.alloc(Region::Heap, sz, 1 << align_log);
                for &(lo, hi) in &heap_spans {
                    prop_assert!(a >= hi || a + sz <= lo,
                        "overlap: [{a:#x},{:#x}) vs [{lo:#x},{hi:#x})", a + sz);
                }
                heap_spans.push((a, a + sz));
            }
        }

        #[test]
        fn stack_allocations_never_overlap(
            sizes in proptest::collection::vec((1u64..10_000, 0u32..7), 1..100)
        ) {
            let mut vs = VirtualSpace::new();
            let mut spans: Vec<(Addr, Addr)> = Vec::new();
            for (sz, align_log) in sizes {
                let a = vs.alloc(Region::Stack, sz, 1 << align_log);
                for &(lo, hi) in &spans {
                    prop_assert!(a >= hi || a + sz <= lo);
                }
                spans.push((a, a + sz));
            }
        }
    }
}
