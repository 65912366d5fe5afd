//! Per-set and aggregate access statistics.
//!
//! Everything the paper measures — miss-rate reductions (Figs. 4, 6, 8, 13),
//! AMAT (Figs. 7, 14) and miss-distribution uniformity (Figs. 1, 9–12) — is
//! derived from these counters after a trace-driven run.

use crate::model::HitWhere;

/// Counters for one cache set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetStats {
    /// References that probed or filled into this set.
    pub accesses: u64,
    /// References satisfied by this set.
    pub hits: u64,
    /// References that missed and filled into this set.
    pub misses: u64,
    /// Valid lines evicted from this set.
    pub evictions: u64,
}

/// Where one access's counters go. The per-record paths write straight
/// into [`CacheStats`], each call moving only the counters it names; a
/// chunk commit writes into a [`Tally`], whose aggregate totals reach the
/// stats once per chunk. Each method is the named `CacheStats` call.
pub trait StatsSink {
    /// [`CacheStats::record`].
    fn record(&mut self, set: usize, outcome: HitWhere);
    /// [`CacheStats::record_eviction`].
    fn eviction(&mut self, set: usize);
    /// [`CacheStats::record_write`] if `is_write`, without a branch on it.
    fn write(&mut self, is_write: bool);
    /// [`CacheStats::record_relocation`].
    fn relocation(&mut self);
}

/// A run of accesses recorded against one [`CacheStats`] (see
/// [`CacheStats::tally`]): per-set counters move on every call, the
/// aggregate counters build up here and reach the stats once, when the
/// run ends.
pub struct Tally<'a> {
    per_set: &'a mut [SetStats],
    primary_hits: u64,
    secondary_hits: u64,
    misses_direct: u64,
    misses_after_probe: u64,
    writes: u64,
    evictions: u64,
    relocations: u64,
}

impl StatsSink for Tally<'_> {
    #[inline(always)]
    fn record(&mut self, set: usize, outcome: HitWhere) {
        let s = &mut self.per_set[set];
        s.accesses += 1;
        match outcome {
            HitWhere::Primary => {
                s.hits += 1;
                self.primary_hits += 1;
            }
            HitWhere::Secondary => {
                s.hits += 1;
                self.secondary_hits += 1;
            }
            HitWhere::MissDirect => {
                s.misses += 1;
                self.misses_direct += 1;
            }
            HitWhere::MissAfterProbe => {
                s.misses += 1;
                self.misses_after_probe += 1;
            }
        }
    }

    #[inline(always)]
    fn eviction(&mut self, set: usize) {
        self.per_set[set].evictions += 1;
        self.evictions += 1;
    }

    #[inline(always)]
    fn write(&mut self, is_write: bool) {
        self.writes += u64::from(is_write);
    }

    #[inline(always)]
    fn relocation(&mut self) {
        self.relocations += 1;
    }
}

/// Aggregate and per-set statistics for one cache model.
///
/// The `HitWhere` taxonomy separates primary hits, secondary hits and the
/// two miss flavours so the paper's AMAT formulas (Eq. 8, Eq. 9) can be
/// evaluated exactly:
///
/// * *fraction of direct hits* (Eq. 8) = `primary_hits / hits`
/// * *fraction of rehash hits* (Eq. 9) = `secondary_hits / hits`
/// * *fraction of rehash misses* (Eq. 9) = `misses_after_probe / misses`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    per_set: Vec<SetStats>,
    /// Hits in the primary probe location.
    pub primary_hits: u64,
    /// Hits in a secondary location (rehash set / partner / OUT directory).
    pub secondary_hits: u64,
    /// Misses that did not probe a secondary location.
    pub misses_direct: u64,
    /// Misses that also probed (and missed in) a secondary location.
    pub misses_after_probe: u64,
    /// Store references observed.
    pub writes: u64,
    /// Lines evicted (replacements of valid lines).
    pub evictions: u64,
    /// Block relocations performed by programmable-associativity schemes
    /// (column-associative swaps, adaptive-cache moves to alternate sets).
    pub relocations: u64,
}

impl CacheStats {
    /// Fresh counters for a cache with `num_sets` sets.
    pub fn new(num_sets: usize) -> Self {
        CacheStats {
            per_set: vec![SetStats::default(); num_sets],
            primary_hits: 0,
            secondary_hits: 0,
            misses_direct: 0,
            misses_after_probe: 0,
            writes: 0,
            evictions: 0,
            relocations: 0,
        }
    }

    /// Records one access outcome, charging set `set`.
    ///
    /// Charging convention: an access is charged to the set that satisfied
    /// it (on a hit) or the set the block is filled into (on a miss). This
    /// matches how per-set miss histograms are read off hardware-style
    /// event counters and is the distribution the paper's kurtosis/skewness
    /// figures are computed over.
    #[inline]
    pub fn record(&mut self, set: usize, outcome: HitWhere) {
        let s = &mut self.per_set[set];
        s.accesses += 1;
        match outcome {
            HitWhere::Primary => {
                s.hits += 1;
                self.primary_hits += 1;
            }
            HitWhere::Secondary => {
                s.hits += 1;
                self.secondary_hits += 1;
            }
            HitWhere::MissDirect => {
                s.misses += 1;
                self.misses_direct += 1;
            }
            HitWhere::MissAfterProbe => {
                s.misses += 1;
                self.misses_after_probe += 1;
            }
        }
    }

    /// Records an eviction from `set`.
    #[inline]
    pub fn record_eviction(&mut self, set: usize) {
        self.per_set[set].evictions += 1;
        self.evictions += 1;
    }

    /// Records a store (in addition to [`CacheStats::record`]).
    #[inline]
    pub fn record_write(&mut self) {
        self.writes += 1;
    }

    /// Records `n` stores in one call. Equivalent to `n` calls of
    /// [`CacheStats::record_write`].
    #[inline]
    pub fn record_writes(&mut self, n: u64) {
        self.writes += n;
    }

    /// Runs `f` over a [`Tally`] of these counters, then adds the tally's
    /// aggregate totals in once: the chunk commit. Per-set counters move
    /// on every tally call; the aggregates wait for `f` to return.
    #[inline(always)]
    pub fn tally<R>(&mut self, f: impl FnOnce(&mut Tally<'_>) -> R) -> R {
        let mut t = Tally {
            per_set: &mut self.per_set,
            primary_hits: 0,
            secondary_hits: 0,
            misses_direct: 0,
            misses_after_probe: 0,
            writes: 0,
            evictions: 0,
            relocations: 0,
        };
        let r = f(&mut t);
        self.primary_hits += t.primary_hits;
        self.secondary_hits += t.secondary_hits;
        self.misses_direct += t.misses_direct;
        self.misses_after_probe += t.misses_after_probe;
        self.writes += t.writes;
        self.evictions += t.evictions;
        self.relocations += t.relocations;
        r
    }

    /// Records a block relocation (swap / move to alternate location).
    #[inline]
    pub fn record_relocation(&mut self) {
        self.relocations += 1;
    }

    /// Zeroes every counter, keeping the set count.
    pub fn reset(&mut self) {
        for s in &mut self.per_set {
            *s = SetStats::default();
        }
        self.primary_hits = 0;
        self.secondary_hits = 0;
        self.misses_direct = 0;
        self.misses_after_probe = 0;
        self.writes = 0;
        self.evictions = 0;
        self.relocations = 0;
    }

    /// Number of sets tracked.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.per_set.len()
    }

    /// Per-set counters.
    #[inline]
    pub fn per_set(&self) -> &[SetStats] {
        &self.per_set
    }

    /// Total hits.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.primary_hits + self.secondary_hits
    }

    /// Total misses.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses_direct + self.misses_after_probe
    }

    /// Total accesses.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Miss rate in `[0, 1]`; 0 for an empty run.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }

    /// Hit rate in `[0, 1]`; 0 for an empty run.
    pub fn hit_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.hits() as f64 / a as f64
        }
    }

    /// Fraction of hits that were primary-location hits (Eq. 8's
    /// *FractionOfDirectHits*). 1.0 when there were no hits.
    pub fn fraction_direct_hits(&self) -> f64 {
        let h = self.hits();
        if h == 0 {
            1.0
        } else {
            self.primary_hits as f64 / h as f64
        }
    }

    /// Fraction of hits satisfied by a secondary location (Eq. 9's
    /// *FractionOfRehashHits*). 0.0 when there were no hits.
    pub fn fraction_secondary_hits(&self) -> f64 {
        let h = self.hits();
        if h == 0 {
            0.0
        } else {
            self.secondary_hits as f64 / h as f64
        }
    }

    /// Fraction of misses that paid for a secondary probe (Eq. 9's
    /// *FractionOfRehashMisses*). 0.0 when there were no misses.
    pub fn fraction_probed_misses(&self) -> f64 {
        let m = self.misses();
        if m == 0 {
            0.0
        } else {
            self.misses_after_probe as f64 / m as f64
        }
    }

    /// Per-set access counts (the paper's Figure 1 histogram).
    pub fn accesses_per_set(&self) -> Vec<u64> {
        self.per_set.iter().map(|s| s.accesses).collect()
    }

    /// Per-set hit counts.
    pub fn hits_per_set(&self) -> Vec<u64> {
        self.per_set.iter().map(|s| s.hits).collect()
    }

    /// Per-set miss counts (input to the kurtosis/skewness figures 9–12).
    pub fn misses_per_set(&self) -> Vec<u64> {
        self.per_set.iter().map(|s| s.misses).collect()
    }

    /// Folds another run's counters into this one (used when a logical run
    /// is split across shards).
    pub fn merge(&mut self, other: &CacheStats) {
        assert_eq!(
            self.per_set.len(),
            other.per_set.len(),
            "cannot merge stats with different set counts"
        );
        for (a, b) in self.per_set.iter_mut().zip(&other.per_set) {
            a.accesses += b.accesses;
            a.hits += b.hits;
            a.misses += b.misses;
            a.evictions += b.evictions;
        }
        self.primary_hits += other.primary_hits;
        self.secondary_hits += other.secondary_hits;
        self.misses_direct += other.misses_direct;
        self.misses_after_probe += other.misses_after_probe;
        self.writes += other.writes;
        self.evictions += other.evictions;
        self.relocations += other.relocations;
    }
}

impl StatsSink for CacheStats {
    #[inline(always)]
    fn record(&mut self, set: usize, outcome: HitWhere) {
        CacheStats::record(self, set, outcome);
    }

    #[inline(always)]
    fn eviction(&mut self, set: usize) {
        self.record_eviction(set);
    }

    #[inline(always)]
    fn write(&mut self, is_write: bool) {
        self.writes += u64::from(is_write);
    }

    #[inline(always)]
    fn relocation(&mut self) {
        self.record_relocation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheStats {
        let mut st = CacheStats::new(4);
        st.record(0, HitWhere::Primary);
        st.record(0, HitWhere::Primary);
        st.record(1, HitWhere::Secondary);
        st.record(2, HitWhere::MissDirect);
        st.record(3, HitWhere::MissAfterProbe);
        st.record(3, HitWhere::MissAfterProbe);
        st.record_eviction(3);
        st.record_write();
        st.record_relocation();
        st
    }

    /// Every outcome through a [`Tally`] and straight into the stats, the
    /// two [`StatsSink`]s, leaves the same counters.
    #[test]
    fn tally_and_direct_sinks_agree() {
        fn replay(sink: &mut impl StatsSink) {
            let outcomes = [
                HitWhere::Primary,
                HitWhere::Secondary,
                HitWhere::MissDirect,
                HitWhere::MissAfterProbe,
            ];
            for i in 0..40 {
                sink.record(i % 4, outcomes[i / 4 % 4]);
                sink.write(i % 3 == 0);
                if i % 5 == 0 {
                    sink.eviction(i % 4);
                }
                if i % 7 == 0 {
                    sink.relocation();
                }
            }
        }
        let mut direct = CacheStats::new(4);
        replay(&mut direct);
        let mut tallied = CacheStats::new(4);
        tallied.tally(|t| replay(t));
        assert_eq!(direct, tallied);
        assert_eq!(direct.accesses(), 40);
        assert_eq!(
            (direct.writes, direct.evictions, direct.relocations),
            (14, 8, 6)
        );
        assert_eq!(direct.secondary_hits, 12);
        assert_eq!(direct.misses_after_probe, 8);
    }

    #[test]
    fn aggregates_are_consistent() {
        let st = sample();
        assert_eq!(st.hits(), 3);
        assert_eq!(st.misses(), 3);
        assert_eq!(st.accesses(), 6);
        assert_eq!(st.miss_rate(), 0.5);
        assert_eq!(st.hit_rate(), 0.5);
        assert_eq!(st.evictions, 1);
        assert_eq!(st.writes, 1);
        assert_eq!(st.relocations, 1);
    }

    #[test]
    fn amat_fractions() {
        let st = sample();
        assert!((st.fraction_direct_hits() - 2.0 / 3.0).abs() < 1e-12);
        assert!((st.fraction_secondary_hits() - 1.0 / 3.0).abs() < 1e-12);
        assert!((st.fraction_probed_misses() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_set_vectors() {
        let st = sample();
        assert_eq!(st.accesses_per_set(), vec![2, 1, 1, 2]);
        assert_eq!(st.hits_per_set(), vec![2, 1, 0, 0]);
        assert_eq!(st.misses_per_set(), vec![0, 0, 1, 2]);
        assert_eq!(st.per_set()[3].evictions, 1);
    }

    #[test]
    fn empty_run_edge_cases() {
        let st = CacheStats::new(8);
        assert_eq!(st.miss_rate(), 0.0);
        assert_eq!(st.hit_rate(), 0.0);
        assert_eq!(st.fraction_direct_hits(), 1.0);
        assert_eq!(st.fraction_secondary_hits(), 0.0);
        assert_eq!(st.fraction_probed_misses(), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut st = sample();
        st.reset();
        assert_eq!(st.accesses(), 0);
        assert_eq!(st.num_sets(), 4);
        assert!(st.per_set().iter().all(|s| *s == SetStats::default()));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.accesses(), 12);
        assert_eq!(a.per_set()[0].hits, 4);
        assert_eq!(a.relocations, 2);
    }

    #[test]
    #[should_panic(expected = "different set counts")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = CacheStats::new(4);
        let b = CacheStats::new(8);
        a.merge(&b);
    }
}
