//! Logical time for coherent hierarchies.
//!
//! The snooping-bus model must be deterministic under the parallel
//! executor, so it cannot order events by wallclock (which `uca lint`
//! confines to this crate anyway, and which would differ run to run).
//! Instead every hierarchy access advances a [`LogicalClock`]: a plain
//! monotone counter whose ticks *are* the event order. Because one
//! hierarchy is driven by exactly one task, the tick sequence is a pure
//! function of the input trace — byte-identical across `--jobs 1/2/8`.
//!
//! The tick values feed the dead-time/live-time lens (the
//! `unicache_stats::LifetimeTotals` that the hierarchy's L1 keeps slot
//! by slot): a line's residency is measured in
//! accesses observed by its cache, the standard trace-driven notion of
//! time.

/// A monotone logical counter (no wallclock, no atomics — one owner).
#[derive(Debug, Clone, Default)]
pub struct LogicalClock {
    now: u64,
}

impl LogicalClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        LogicalClock { now: 0 }
    }

    /// Advances time by one event and returns the new tick (first call
    /// returns 1; tick 0 is "before anything happened").
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }

    /// Advances time by `n` events at once: the chunked coherent kernel
    /// hands record `i` of a chunk tick `now() + i + 1` itself and
    /// settles the clock once per chunk.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.now += n;
    }

    /// The current tick without advancing.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Rewinds to tick 0 (hierarchy flush).
    pub fn reset(&mut self) {
        self.now = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotone_and_dense() {
        let mut c = LogicalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
        c.advance(3);
        assert_eq!(c.now(), 5);
        assert_eq!(c.tick(), 6);
        c.reset();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
    }
}
