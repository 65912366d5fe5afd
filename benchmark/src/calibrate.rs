//! The host-speed yardstick that `wall_cal` divides by.
//!
//! On a shared host the same work runs at different speeds from one
//! second to the next, mostly through contention for the memory system
//! (system time and page faults stay near zero): on a 2-vCPU VM in a busy
//! hour, ten interleaved 20-second runs of each workload spread
//! (interquartile range over median of the run medians) by 23–33% in
//! iteration time, and the benchmark's set-up, a different piece of code,
//! slowed and sped up with it. A fixed piece of memory-bound work timed
//! right after each iteration slows with it, so the median of
//! iteration ÷ yardstick spread by 3–10% over the same runs. Yardsticks
//! of the same shape over 64 KiB, 1, 16 or 64 MiB, a loop with no memory
//! traffic, and a sequential fill of 16 MiB all tracked the drift less
//! well.
//!
//! The work is the benchmark's own and never changes: xorshift addresses
//! into a 4 MiB table, read-modify-write plus a second read, with no
//! data-dependent branch, so its time hangs on the memory system, not on
//! how a branch predictor or code placement treats it.

use std::hint::black_box;
use unicache_timing::Stopwatch;

/// Table entries: 4 MiB of `u64`.
const TABLE: usize = 1 << 19;
/// Steps per call: about 8 ms on a 2-vCPU Xeon VM.
const STEPS: usize = 1 << 20;

/// The calibration work; returns a checksum so it cannot be elided.
fn work(seed: u64) -> u64 {
    let mut table = vec![0u64; TABLE];
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (TABLE - 1);
        table[i] = table[i].wrapping_add(x);
        acc = acc.wrapping_add(table[(x >> 40) as usize & (TABLE - 1)]);
    }
    acc
}

/// Seconds one call of [`work`] takes now.
pub(crate) fn seconds() -> f64 {
    let sw = Stopwatch::start();
    black_box(work(black_box(0x9e37_79b9_7f4a_7c15)));
    sw.elapsed_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_deterministic_and_takes_time() {
        assert_eq!(work(7), work(7));
        assert_ne!(work(7), work(9));
        assert!(seconds() > 0.0);
    }
}
