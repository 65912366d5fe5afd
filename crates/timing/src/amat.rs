//! AMAT formulas — paper Eq. 8 (adaptive cache), Eq. 9 (column-associative)
//! and companions.

use crate::latency::LatencyModel;
use unicache_core::CacheStats;

/// Conventional cache AMAT: `hit_time + miss_rate × miss_penalty`.
pub fn amat_conventional(stats: &CacheStats, lat: &LatencyModel) -> f64 {
    lat.l1_hit + stats.miss_rate() * lat.l1_miss_penalty
}

/// Paper Eq. 8 — adaptive group-associative cache:
///
/// ```text
/// AMAT = FracDirectHits × 1cy + (1 − FracDirectHits) × 3cy
///      + MissRate × MissPenalty
/// ```
///
/// `FracDirectHits` is the fraction of *hits* served by the primary
/// location; the remainder went through the OUT directory.
pub fn amat_adaptive(stats: &CacheStats, lat: &LatencyModel) -> f64 {
    let fd = stats.fraction_direct_hits();
    fd * lat.l1_hit + (1.0 - fd) * lat.out_hit + stats.miss_rate() * lat.l1_miss_penalty
}

/// Paper Eq. 9 — column-associative cache:
///
/// ```text
/// AMAT = FracRehashHits × 2cy + (1 − FracRehashHits) × 1cy
///      + FracRehashMisses × MissRate × (MissPenalty + 1)
///      + (1 − FracRehashMisses) × MissRate × MissPenalty
/// ```
///
/// `FracRehashHits` is the fraction of hits found at the second probe;
/// `FracRehashMisses` the fraction of misses that performed (and lost)
/// the second probe.
pub fn amat_column_associative(stats: &CacheStats, lat: &LatencyModel) -> f64 {
    let fr_hit = stats.fraction_secondary_hits();
    let fr_miss = stats.fraction_probed_misses();
    let mr = stats.miss_rate();
    fr_hit * lat.rehash_hit
        + (1.0 - fr_hit) * lat.l1_hit
        + fr_miss * mr * (lat.l1_miss_penalty + lat.probed_miss_extra)
        + (1.0 - fr_miss) * mr * lat.l1_miss_penalty
}

/// Exact per-access accounting over the full `HitWhere` taxonomy:
///
/// * primary hit → `l1_hit`
/// * secondary hit → `secondary_cost` (2 cy for column/partner, 3 cy for
///   OUT hits — pass the right constant)
/// * direct miss → `l1_hit + penalty`
/// * probed miss → `secondary_cost + penalty`
///
/// Unlike the paper's formulas (which average hit time over all accesses,
/// including misses), this charges each access its own path: it is the
/// per-path reference the formula tests compare the paper's formulas
/// against. No figure reports it.
pub fn amat_exact(stats: &CacheStats, secondary_cost: f64, lat: &LatencyModel) -> f64 {
    let total = stats.accesses();
    if total == 0 {
        return 0.0;
    }
    let cycles = stats.primary_hits as f64 * lat.l1_hit
        + stats.secondary_hits as f64 * secondary_cost
        + stats.misses_direct as f64 * (lat.l1_hit + lat.l1_miss_penalty)
        + stats.misses_after_probe as f64 * (secondary_cost + lat.l1_miss_penalty);
    cycles / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::HitWhere;

    fn lat() -> LatencyModel {
        LatencyModel::with_miss_penalty(10.0)
    }

    fn stats_with(primary: u64, secondary: u64, miss_direct: u64, miss_probed: u64) -> CacheStats {
        let mut s = CacheStats::new(4);
        for _ in 0..primary {
            s.record(0, HitWhere::Primary);
        }
        for _ in 0..secondary {
            s.record(1, HitWhere::Secondary);
        }
        for _ in 0..miss_direct {
            s.record(2, HitWhere::MissDirect);
        }
        for _ in 0..miss_probed {
            s.record(3, HitWhere::MissAfterProbe);
        }
        s
    }

    #[test]
    fn conventional_formula() {
        // 90% hit: 1 + 0.1 * 10 = 2.0
        let s = stats_with(90, 0, 10, 0);
        assert!((amat_conventional(&s, &lat()) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn all_hits_amat_is_hit_time() {
        let s = stats_with(100, 0, 0, 0);
        assert_eq!(amat_conventional(&s, &lat()), 1.0);
        assert_eq!(amat_adaptive(&s, &lat()), 1.0);
        assert_eq!(amat_column_associative(&s, &lat()), 1.0);
        assert_eq!(amat_exact(&s, 2.0, &lat()), 1.0);
    }

    #[test]
    fn eq8_adaptive() {
        // 60 direct hits, 20 OUT hits, 20 misses.
        // FracDirect = 0.75; miss rate 0.2.
        // AMAT = 0.75*1 + 0.25*3 + 0.2*10 = 0.75 + 0.75 + 2 = 3.5
        let s = stats_with(60, 20, 20, 0);
        assert!((amat_adaptive(&s, &lat()) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn eq9_column() {
        // 60 direct hits, 20 rehash hits, 10 direct misses, 10 rehash
        // misses. FracRehashHits = 0.25; FracRehashMisses = 0.5; mr = 0.2.
        // AMAT = 0.25*2 + 0.75*1 + 0.5*0.2*11 + 0.5*0.2*10
        //      = 0.5 + 0.75 + 1.1 + 1.0 = 3.35
        let s = stats_with(60, 20, 10, 10);
        assert!((amat_column_associative(&s, &lat()) - 3.35).abs() < 1e-12);
    }

    #[test]
    fn exact_accounting() {
        // Same mix, secondary cost 2:
        // (60*1 + 20*2 + 10*(1+10) + 10*(2+10)) / 100 = (60+40+110+120)/100
        let s = stats_with(60, 20, 10, 10);
        assert!((amat_exact(&s, 2.0, &lat()) - 3.3).abs() < 1e-12);
    }

    #[test]
    fn empty_stats() {
        let s = CacheStats::new(4);
        assert_eq!(amat_exact(&s, 2.0, &lat()), 0.0);
        // Formula versions degrade to the hit-time constants.
        assert_eq!(amat_conventional(&s, &lat()), 1.0);
    }

    #[test]
    fn secondary_hits_raise_amat_relative_to_all_primary() {
        let all_primary = stats_with(100, 0, 0, 0);
        let some_secondary = stats_with(80, 20, 0, 0);
        assert!(
            amat_column_associative(&some_secondary, &lat())
                > amat_column_associative(&all_primary, &lat())
        );
        assert!(amat_adaptive(&some_secondary, &lat()) > amat_adaptive(&all_primary, &lat()));
    }

    #[test]
    fn formula_close_to_exact_for_column() {
        // The paper's Eq. 9 averages hit-time over all accesses; the exact
        // model charges per path. For hit-dominated mixes they agree
        // closely.
        let s = stats_with(900, 50, 30, 20);
        let f = amat_column_associative(&s, &lat());
        let e = amat_exact(&s, 2.0, &lat());
        assert!((f - e).abs() < 0.15, "formula {f} vs exact {e}");
    }
}
