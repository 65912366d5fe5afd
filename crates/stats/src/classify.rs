//! Zhang's uniformity set-classification (paper Section IV.C).
//!
//! A set is
//! * **FHS** — *frequently hit* — if it received at least **2×** the average
//!   number of hits,
//! * **FMS** — *frequently missed* — if it received at least **2×** the
//!   average number of misses,
//! * **LAS** — *least accessed* — if it received **less than half** the
//!   average number of accesses.
//!
//! The same thresholds reproduce the paper's Figure 1 commentary: for FFT,
//! "about 90.43% of the cache sets get less than half of the average
//! accesses while 6.641% get twice the average accesses".

use unicache_core::CacheStats;

/// Percentages of sets in each of Zhang's classes, plus the Figure-1 style
/// access-concentration percentages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetClassification {
    /// Total number of sets classified.
    pub num_sets: usize,
    /// % of sets with hits ≥ 2 × average hits.
    pub fhs_pct: f64,
    /// % of sets with misses ≥ 2 × average misses.
    pub fms_pct: f64,
    /// % of sets with accesses < ½ × average accesses.
    pub las_pct: f64,
    /// % of sets with accesses ≥ 2 × average accesses (the "hot" sets in
    /// Figure 1's commentary).
    pub hot_pct: f64,
}

impl SetClassification {
    /// Classifies per-set counters from a finished run.
    pub fn from_stats(stats: &CacheStats) -> Self {
        let per_set = stats.per_set();
        let n = per_set.len();
        if n == 0 {
            return SetClassification {
                num_sets: 0,
                fhs_pct: 0.0,
                fms_pct: 0.0,
                las_pct: 0.0,
                hot_pct: 0.0,
            };
        }
        let nf = n as f64;
        let avg_hits = per_set.iter().map(|s| s.hits).sum::<u64>() as f64 / nf;
        let avg_misses = per_set.iter().map(|s| s.misses).sum::<u64>() as f64 / nf;
        let avg_accesses = per_set.iter().map(|s| s.accesses).sum::<u64>() as f64 / nf;

        let mut fhs = 0usize;
        let mut fms = 0usize;
        let mut las = 0usize;
        let mut hot = 0usize;
        for s in per_set {
            if avg_hits > 0.0 && s.hits as f64 >= 2.0 * avg_hits {
                fhs += 1;
            }
            if avg_misses > 0.0 && s.misses as f64 >= 2.0 * avg_misses {
                fms += 1;
            }
            if s.accesses as f64 - 2.0 * avg_accesses >= 0.0 && avg_accesses > 0.0 {
                hot += 1;
            }
            if (s.accesses as f64) < 0.5 * avg_accesses {
                las += 1;
            }
        }
        SetClassification {
            num_sets: n,
            fhs_pct: 100.0 * fhs as f64 / nf,
            fms_pct: 100.0 * fms as f64 / nf,
            las_pct: 100.0 * las as f64 / nf,
            hot_pct: 100.0 * hot as f64 / nf,
        }
    }

    /// Classifies a raw per-set access-count vector (hits/misses unknown).
    /// Only `las_pct` and `hot_pct` are meaningful; FHS/FMS are 0.
    pub fn from_accesses(accesses: &[u64]) -> Self {
        let n = accesses.len();
        if n == 0 {
            return SetClassification {
                num_sets: 0,
                fhs_pct: 0.0,
                fms_pct: 0.0,
                las_pct: 0.0,
                hot_pct: 0.0,
            };
        }
        let nf = n as f64;
        let avg = accesses.iter().sum::<u64>() as f64 / nf;
        let las = accesses.iter().filter(|&&a| (a as f64) < 0.5 * avg).count();
        let hot = if avg > 0.0 {
            accesses.iter().filter(|&&a| a as f64 >= 2.0 * avg).count()
        } else {
            0
        };
        SetClassification {
            num_sets: n,
            fhs_pct: 0.0,
            fms_pct: 0.0,
            las_pct: 100.0 * las as f64 / nf,
            hot_pct: 100.0 * hot as f64 / nf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::HitWhere;

    #[test]
    fn uniform_accesses_have_no_extreme_sets() {
        let c = SetClassification::from_accesses(&[10, 10, 10, 10]);
        assert_eq!(c.las_pct, 0.0);
        assert_eq!(c.hot_pct, 0.0);
        assert_eq!(c.num_sets, 4);
    }

    #[test]
    fn one_hot_set_dominates() {
        // 9 sets with 1 access, 1 set with 991: avg = 100.
        let mut v = vec![1u64; 9];
        v.push(991);
        let c = SetClassification::from_accesses(&v);
        assert_eq!(c.hot_pct, 10.0); // only the hot set ≥ 200
        assert_eq!(c.las_pct, 90.0); // the nine cold sets < 50
    }

    #[test]
    fn empty_and_all_zero() {
        let c = SetClassification::from_accesses(&[]);
        assert_eq!(c.num_sets, 0);
        let c = SetClassification::from_accesses(&[0, 0, 0]);
        // avg = 0: nothing is "< half of 0", nothing is hot.
        assert_eq!(c.las_pct, 0.0);
        assert_eq!(c.hot_pct, 0.0);
    }

    #[test]
    fn fhs_fms_from_full_stats() {
        let mut st = CacheStats::new(4);
        // set 0: 8 hits; sets 1-3: 0 or 1 hits → avg hits = 10/4 = 2.5,
        // threshold 5 → only set 0 is FHS.
        for _ in 0..8 {
            st.record(0, HitWhere::Primary);
        }
        st.record(1, HitWhere::Primary);
        st.record(2, HitWhere::Primary);
        // misses: set 3 takes 6, set 2 takes 2 → avg 2, threshold 4 → set 3
        // is FMS.
        for _ in 0..6 {
            st.record(3, HitWhere::MissDirect);
        }
        st.record(2, HitWhere::MissDirect);
        st.record(2, HitWhere::MissAfterProbe);
        let c = SetClassification::from_stats(&st);
        assert_eq!(c.fhs_pct, 25.0);
        assert_eq!(c.fms_pct, 25.0);
        assert_eq!(c.num_sets, 4);
    }

    #[test]
    fn from_stats_on_empty_cache() {
        let st = CacheStats::new(0);
        let c = SetClassification::from_stats(&st);
        assert_eq!(c.num_sets, 0);
    }
}
