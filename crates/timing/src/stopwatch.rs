//! A minimal monotonic stopwatch — the one wall-clock primitive the rest
//! of the workspace is allowed to consume.
//!
//! The determinism lint (`uca lint`, rule `wallclock`) confines
//! `Instant`/`SystemTime` to this crate so simulated *results* can never
//! depend on the host clock. Code that legitimately measures elapsed real
//! time — the `xp --timing` report, the parallel executor's per-job
//! accounting — goes through [`Stopwatch`] instead of importing `Instant`
//! directly, which keeps the exemption surface to a single module.
//!
//! Wall-clock readings taken through this type must never feed back into
//! simulation state or experiment tables; they are only ever reported
//! (stderr timing summaries, `--timing-json`).
//!
//! [`yardstick_secs`] times a fixed piece of memory-bound work, so that
//! a phase's seconds divided by the yardstick's compare across runs on a
//! host whose speed drifts (the perf gate's calibrated time).

use std::hint::black_box;
use std::time::Instant;

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX` (584 years — unreachable in practice, but the cast is
    /// checked anyway).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Yardstick table entries: 4 MiB of `u64`.
const YARDSTICK_TABLE: usize = 1 << 19;
/// Yardstick steps per call: 3–5 ms on a 2-vCPU Xeon VM.
const YARDSTICK_STEPS: usize = 1 << 20;

/// The yardstick's work: xorshift addresses into a 4 MiB table,
/// read-modify-write plus a second read, with no data-dependent branch,
/// so its time hangs on the memory system rather than on branch
/// prediction or code placement. The same work as the `benchmark/`
/// package's `wall_cal` divisor. Returns a checksum so it cannot be
/// elided.
fn yardstick_work(seed: u64) -> u64 {
    let mut table = vec![0u64; YARDSTICK_TABLE];
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..YARDSTICK_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (YARDSTICK_TABLE - 1);
        table[i] = table[i].wrapping_add(x);
        acc = acc.wrapping_add(table[(x >> 40) as usize & (YARDSTICK_TABLE - 1)]);
    }
    acc
}

/// Seconds one call of the yardstick takes now. Time it while nothing
/// else runs: sharing the CPU slows it more than it slows the work it
/// calibrates.
pub fn yardstick_secs() -> f64 {
    let sw = Stopwatch::start();
    black_box(yardstick_work(black_box(0x9e37_79b9_7f4a_7c15)));
    sw.elapsed_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_is_deterministic_and_takes_time() {
        assert_eq!(yardstick_work(7), yardstick_work(7));
        assert_ne!(yardstick_work(7), yardstick_work(9));
        assert!(yardstick_secs() > 0.0);
    }

    #[test]
    fn elapsed_is_monotone_and_consistent() {
        let sw = Stopwatch::start();
        let n1 = sw.elapsed_nanos();
        let s1 = sw.elapsed_secs();
        let n2 = sw.elapsed_nanos();
        assert!(s1 >= 0.0);
        assert!(n2 >= n1, "nanos must not go backwards");
    }
}
