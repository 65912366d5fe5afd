//! Dead-time / live-time uniformity lens.
//!
//! A cache line's *generation* runs from the fill that installs a block
//! to the eviction (or invalidation) that removes it. Within a
//! generation, the **live time** is the span from fill to last touch —
//! while the line is still earning hits — and the **dead time** is the
//! tail from last touch to eviction, where the line occupies capacity
//! without serving anyone. A cache whose sets are accessed non-uniformly
//! shows long dead tails in cold sets; index schemes that flatten the
//! per-set distribution should shrink them. Time is logical (one tick
//! per access observed by the owning cache — see
//! `unicache_timing::LogicalClock`).
//!
//! The per-slot bookkeeping lives with the line state it describes: the
//! hierarchy's `CoherentL1` keeps each open generation's fill and
//! last-touch ticks in the way slot and reports [`LifetimeTotals`]. A
//! hierarchy property test (`one_set_lifetimes_match_naive_generation_replay`
//! in `tests/hierarchy_equivalence.rs`) holds those totals to a
//! brute-force replay of every generation.

/// Aggregated dead/live totals (ticks) over generations; a report may
/// include generations still open, closed as if evicted at the report's
/// tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifetimeTotals {
    /// Ticks from fill to last touch, summed over generations.
    pub live: u64,
    /// Ticks from last touch to eviction, summed over generations.
    pub dead: u64,
    /// Number of generations.
    pub generations: u64,
}

impl LifetimeTotals {
    /// Total residency in ticks (`live + dead`).
    pub fn resident(&self) -> u64 {
        self.live + self.dead
    }

    /// Fraction of residency spent dead (0 when nothing was resident).
    pub fn dead_fraction(&self) -> f64 {
        let resident = self.resident();
        if resident == 0 {
            0.0
        } else {
            self.dead as f64 / resident as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_fraction_splits_residency() {
        let t = LifetimeTotals {
            live: 7,
            dead: 8,
            generations: 1,
        };
        assert_eq!(t.resident(), 15);
        assert!((t.dead_fraction() - 8.0 / 15.0).abs() < 1e-12);
        assert_eq!(LifetimeTotals::default().dead_fraction(), 0.0);
    }
}
