//! Process-tuning syscalls — the one audited home for `unsafe`.
//!
//! The workspace's `unsafe-outside-simd` lint confines `unsafe` blocks to
//! this file: anything that has to poke the process environment through
//! FFI (allocator knobs today; `madvise` or scheduler hints tomorrow)
//! lives here, so the audit surface for unsafe stays a single screenful.

/// Tunes glibc's allocator for the experiment drivers' allocation
/// pattern: multi-hundred-megabyte trace and stream buffers, allocated
/// and released phase after phase.
///
/// By default glibc serves each of those large buffers with a fresh
/// `mmap` and gives it straight back with `munmap`, so every phase
/// re-faults its working set page by page. On bare metal that is noise;
/// under the micro-VMs CI runs in, a minor fault costs tens of
/// microseconds and the fault storm dominates end-to-end wall time
/// (observed: over half of `xp all`). Raising the mmap and trim
/// thresholds keeps the memory in the heap, where freed buffers are
/// reused without a round trip through the kernel.
///
/// Call once at program start, before spawning threads. A no-op on
/// non-glibc targets.
pub fn tune_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only adjusts allocator parameters; called
        // single-threaded at startup, with constants glibc documents.
        unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) };
        unsafe { mallopt(M_MMAP_THRESHOLD, i32::MAX) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_allocator_is_callable_and_idempotent() {
        // The knobs only affect allocation performance, never behavior;
        // calling twice must be as safe as calling once.
        tune_allocator();
        tune_allocator();
        let v: Vec<u64> = (0..4096).collect();
        assert_eq!(v.len(), 4096);
    }
}
