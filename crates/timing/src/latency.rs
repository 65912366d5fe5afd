//! Cycle-latency parameters.

/// Latency parameters for AMAT computation and hierarchy timing.
///
/// Defaults follow the paper's formulas and era-typical SimpleScalar
/// settings: 1-cycle L1 hit, 2-cycle column-associative rehash hit,
/// 3-cycle adaptive OUT hit (Eq. 8), and an L1 miss penalty equal to an
/// L2 round trip (the paper leaves the absolute penalty unstated; 18
/// cycles is the common `sim-outorder` default for L1→L2, and the figures
/// report *percent* reductions, which are insensitive to the constant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Primary-location hit (cycles).
    pub l1_hit: f64,
    /// Column-associative second-probe hit (cycles).
    pub rehash_hit: f64,
    /// Adaptive-cache OUT-directory hit (cycles).
    pub out_hit: f64,
    /// L1 miss penalty when the L2 hits (cycles).
    pub l1_miss_penalty: f64,
    /// Extra penalty cycles for a miss that also probed a secondary
    /// location (Eq. 9 charges +1).
    pub probed_miss_extra: f64,
    /// L2 hit latency (hierarchy timing).
    pub l2_hit: f64,
    /// Main-memory latency (hierarchy timing).
    pub memory: f64,
    /// Extra cycles for computing a prime-modulo index (the paper notes the
    /// modulo "computation is likely to take several cycles"; used by the
    /// indexing-latency ablation, not by the paper's Fig. 7 formulas).
    pub prime_modulo_extra: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l1_hit: 1.0,
            rehash_hit: 2.0,
            out_hit: 3.0,
            l1_miss_penalty: 18.0,
            probed_miss_extra: 1.0,
            l2_hit: 18.0,
            memory: 200.0,
            prime_modulo_extra: 2.0,
        }
    }
}

impl LatencyModel {
    /// The paper's formula constants (1/2/3-cycle hits, +1 rehash-miss
    /// cycle) with a custom miss penalty.
    pub fn with_miss_penalty(penalty: f64) -> Self {
        LatencyModel {
            l1_miss_penalty: penalty,
            l2_hit: penalty,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let m = LatencyModel::default();
        assert_eq!(m.l1_hit, 1.0);
        assert_eq!(m.rehash_hit, 2.0);
        assert_eq!(m.out_hit, 3.0);
        assert_eq!(m.probed_miss_extra, 1.0);
    }

    #[test]
    fn custom_penalty() {
        let m = LatencyModel::with_miss_penalty(40.0);
        assert_eq!(m.l1_miss_penalty, 40.0);
        assert_eq!(m.l2_hit, 40.0);
        assert_eq!(m.l1_hit, 1.0);
    }
}
