//! Partner-index cache — the paper's illustrative programmable-associativity
//! design (Section 1.2, Figure 3).
//!
//! Each line carries an **L** bit ("linked") and a **partner index**. Hot
//! sets (those collecting the most misses) are dynamically linked to cold
//! sets (those seeing the fewest accesses); a linked pair behaves like a
//! 2-entry set: the partner is probed after a primary miss, and a displaced
//! primary resident spills into the partner instead of being evicted.
//!
//! The paper sketches both profiling-based and dynamic matching; we
//! implement the dynamic variant: every `epoch` accesses, the per-set
//! access/miss counters from the finished epoch are ranked and the top
//! `max_pairs` missing sets are paired with the least-accessed sets.

use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, HitWhere,
    MemRecord, Result,
};

/// Dynamic-pairing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartnerConfig {
    /// Accesses between re-pairing decisions.
    pub epoch: u64,
    /// Maximum number of hot/cold pairs maintained.
    pub max_pairs: usize,
}

impl Default for PartnerConfig {
    fn default() -> Self {
        PartnerConfig {
            epoch: 8192,
            max_pairs: 64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    /// L bit: this set has a partner.
    linked: bool,
    /// Partner set index (meaningful when `linked`).
    partner: usize,
    /// True if this set is serving as someone's partner (cold side).
    lent: bool,
}

impl Line {
    fn empty() -> Self {
        Line {
            block: 0,
            valid: false,
            dirty: false,
            linked: false,
            partner: 0,
            lent: false,
        }
    }
}

/// The partner-index cache.
pub struct PartnerIndexCache {
    geom: CacheGeometry,
    lines: Vec<Line>,
    stats: CacheStats,
    cfg: PartnerConfig,
    // Epoch counters (reset at each re-pairing).
    epoch_accesses: Vec<u64>,
    epoch_misses: Vec<u64>,
    since_repair: u64,
    name: String,
}

impl PartnerIndexCache {
    /// Default pairing policy.
    pub fn new(geom: CacheGeometry) -> Result<Self> {
        Self::with_config(geom, PartnerConfig::default())
    }

    /// Custom epoch/pair-count.
    pub fn with_config(geom: CacheGeometry, cfg: PartnerConfig) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "partner-index cache extends a direct-mapped cache".into(),
            });
        }
        if cfg.epoch == 0 {
            return Err(ConfigError::OutOfRange {
                what: "partner epoch",
                expected: ">= 1".into(),
                got: 0,
            });
        }
        let n = geom.num_sets();
        Ok(PartnerIndexCache {
            geom,
            lines: vec![Line::empty(); n],
            stats: CacheStats::new(n),
            cfg,
            epoch_accesses: vec![0; n],
            epoch_misses: vec![0; n],
            since_repair: 0,
            name: format!("partner_index(epoch={},pairs={})", cfg.epoch, cfg.max_pairs),
        })
    }

    /// Current partner of a set, if linked.
    pub fn partner_of(&self, set: usize) -> Option<usize> {
        let l = &self.lines[set];
        if l.linked {
            Some(l.partner)
        } else {
            None
        }
    }

    /// Number of linked pairs currently active.
    pub fn active_pairs(&self) -> usize {
        self.lines.iter().filter(|l| l.linked).count()
    }

    /// The current `(hot, cold)` pairs, hot set ascending. `uca check`
    /// drives a cache and then verifies these form a fixed-point-free
    /// partial matching: no set paired with itself, no set on both sides,
    /// no cold set lent to two hot sets.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.linked)
            .map(|(s, l)| (s, l.partner))
            .collect()
    }

    /// True if `set` is currently lent out as some hot set's partner.
    pub fn is_lent(&self, set: usize) -> bool {
        self.lines[set].lent
    }

    /// True if `block` is resident at its primary set or its partner.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        let p = (block & (self.lines.len() as u64 - 1)) as usize;
        if self.lines[p].valid && self.lines[p].block == block {
            return true;
        }
        if self.lines[p].linked {
            let q = self.lines[p].partner;
            return self.lines[q].valid && self.lines[q].block == block;
        }
        false
    }

    /// Re-computes hot/cold pairings from the finished epoch's counters.
    fn repartner(&mut self) {
        let n = self.lines.len();
        // Dissolve existing links. A lent set may hold a block spilled from
        // its hot partner; once the link is gone that copy is unreachable
        // and — worse — the block could be refilled at its primary set,
        // creating a second copy. Invalidate foreign residents first.
        let mask = n as u64 - 1;
        for (set, l) in self.lines.iter_mut().enumerate() {
            if l.valid && (l.block & mask) as usize != set {
                *l = Line::empty();
            } else {
                l.linked = false;
                l.lent = false;
            }
        }
        // Hot sets: most epoch misses (must have at least one miss).
        let mut by_misses: Vec<usize> = (0..n).collect();
        by_misses.sort_by_key(|&s| std::cmp::Reverse(self.epoch_misses[s]));
        // Cold sets: fewest epoch accesses.
        let mut by_accesses: Vec<usize> = (0..n).collect();
        by_accesses.sort_by_key(|&s| self.epoch_accesses[s]);

        let mut taken = vec![false; n];
        let mut cold_iter = by_accesses.into_iter();
        let mut pairs = 0usize;
        for &hot in by_misses.iter() {
            if pairs >= self.cfg.max_pairs || self.epoch_misses[hot] == 0 {
                break;
            }
            if taken[hot] {
                continue;
            }
            // First untaken cold set that isn't the hot set itself and is
            // genuinely colder than the hot set.
            let cold = cold_iter.by_ref().find(|&c| {
                !taken[c] && c != hot && self.epoch_accesses[c] < self.epoch_misses[hot]
            });
            let Some(cold) = cold else { break };
            taken[hot] = true;
            taken[cold] = true;
            self.lines[hot].linked = true;
            self.lines[hot].partner = cold;
            self.lines[cold].lent = true;
            pairs += 1;
        }
        unicache_obs::count(unicache_obs::Event::PartnerRepartner);
        unicache_obs::count_by(unicache_obs::Event::PartnerPairFormed, pairs as u64);
        unicache_obs::observe(unicache_obs::HistEvent::PartnerEpochPairs, pairs as u64);
        self.epoch_accesses.iter_mut().for_each(|c| *c = 0);
        self.epoch_misses.iter_mut().for_each(|c| *c = 0);
    }
}

impl CacheModel for PartnerIndexCache {
    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn access(&mut self, rec: MemRecord) -> AccessResult {
        self.access_block(self.geom.block_addr(rec.addr), rec.kind.is_write())
    }

    fn access_block(&mut self, block: u64, is_write: bool) -> AccessResult {
        if is_write {
            self.stats.record_write();
        }
        unicache_obs::count(unicache_obs::Event::PartnerProbe);
        let p = (block & (self.lines.len() as u64 - 1)) as usize;
        self.epoch_accesses[p] += 1;
        self.since_repair += 1;

        let mut outcome;
        let mut evicted = None;

        if self.lines[p].valid && self.lines[p].block == block {
            if is_write {
                self.lines[p].dirty = true;
            }
            outcome = HitWhere::Primary;
        } else if self.lines[p].linked {
            unicache_obs::count(unicache_obs::Event::PartnerSecondProbe);
            let q = self.lines[p].partner;
            if self.lines[q].valid && self.lines[q].block == block {
                // Partner hit: swap so the hot block moves to the primary
                // slot (same promotion idea as column-associative).
                let mut incoming = self.lines[q];
                if is_write {
                    incoming.dirty = true;
                }
                let outgoing = self.lines[p];
                self.lines[p].block = incoming.block;
                self.lines[p].valid = true;
                self.lines[p].dirty = incoming.dirty;
                if outgoing.valid {
                    self.lines[q].block = outgoing.block;
                    self.lines[q].valid = true;
                    self.lines[q].dirty = outgoing.dirty;
                } else {
                    self.lines[q].valid = false;
                    self.lines[q].dirty = false;
                }
                self.stats.record_relocation();
                outcome = HitWhere::Secondary;
            } else {
                // Miss in both: spill the primary resident to the partner.
                outcome = HitWhere::MissAfterProbe;
                self.epoch_misses[p] += 1;
                let displaced = self.lines[p];
                if displaced.valid {
                    unicache_obs::count(unicache_obs::Event::PartnerLend);
                    if self.lines[q].valid {
                        evicted = Some(self.lines[q].block);
                        self.stats.record_eviction(q);
                    }
                    self.lines[q].block = displaced.block;
                    self.lines[q].valid = true;
                    self.lines[q].dirty = displaced.dirty;
                    self.stats.record_relocation();
                }
                self.lines[p].block = block;
                self.lines[p].valid = true;
                self.lines[p].dirty = is_write;
            }
        } else {
            // Unlinked set: plain direct-mapped replacement.
            outcome = HitWhere::MissDirect;
            self.epoch_misses[p] += 1;
            if self.lines[p].valid {
                evicted = Some(self.lines[p].block);
                self.stats.record_eviction(p);
            }
            self.lines[p].block = block;
            self.lines[p].valid = true;
            self.lines[p].dirty = is_write;
        }

        // On a partner hit the primary slot was filled by the swap even if
        // previously invalid; normalize outcome bookkeeping.
        if outcome == HitWhere::Secondary && !self.lines[p].valid {
            outcome = HitWhere::Primary; // unreachable, defensive
        }
        self.stats.record(p, outcome);

        if self.since_repair >= self.cfg.epoch {
            self.since_repair = 0;
            self.repartner();
        }
        AccessResult {
            where_hit: outcome,
            set: p,
            evicted,
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::empty();
        }
        self.epoch_accesses.iter_mut().for_each(|c| *c = 0);
        self.epoch_misses.iter_mut().for_each(|c| *c = 0);
        self.since_repair = 0;
        self.stats.reset();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Fused fast path via the default (monomorphized) chunk loop: the
/// primary index is a plain mask (`block & (sets-1)`), already inline in
/// `access_block`, so there is no separate index phase to vectorize —
/// fusing removes the per-record virtual dispatch, which is the entire
/// overhead of this scheme's batched path.
impl unicache_core::FusedLane for PartnerIndexCache {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geom(sets: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, 32, 1).unwrap()
    }

    fn read_block(b: u64) -> MemRecord {
        MemRecord::read(b * 32)
    }

    fn cfg(epoch: u64, pairs: usize) -> PartnerConfig {
        PartnerConfig {
            epoch,
            max_pairs: pairs,
        }
    }

    #[test]
    fn validation() {
        assert!(PartnerIndexCache::new(geom(16)).is_ok());
        assert!(PartnerIndexCache::new(CacheGeometry::from_sets(16, 32, 2).unwrap()).is_err());
        assert!(PartnerIndexCache::with_config(geom(16), cfg(0, 4)).is_err());
    }

    #[test]
    fn behaves_direct_mapped_before_first_epoch() {
        let mut c = PartnerIndexCache::with_config(geom(8), cfg(1_000_000, 4)).unwrap();
        c.access(read_block(0));
        let r = c.access(read_block(8)); // conflict, no partner yet
        assert_eq!(r.where_hit, HitWhere::MissDirect);
        assert_eq!(r.evicted, Some(0));
        assert_eq!(c.active_pairs(), 0);
    }

    #[test]
    fn hot_set_gets_a_partner_and_conflict_is_absorbed() {
        let mut c = PartnerIndexCache::with_config(geom(8), cfg(64, 4)).unwrap();
        // Epoch 1: hammer the 0/8 conflict so set 0 accumulates misses.
        for _ in 0..32 {
            c.access(read_block(0));
            c.access(read_block(8));
        }
        assert!(c.active_pairs() >= 1, "set 0 should be linked");
        assert!(c.partner_of(0).is_some());
        // Steady state after pairing: the pair coexists.
        c.access(read_block(0));
        c.access(read_block(8));
        let m0 = c.stats().misses();
        for _ in 0..20 {
            assert!(c.access(read_block(0)).is_hit());
            assert!(c.access(read_block(8)).is_hit());
        }
        assert_eq!(c.stats().misses(), m0, "no further conflict misses");
        assert!(c.stats().secondary_hits > 0);
    }

    #[test]
    fn partner_is_a_cold_set() {
        let mut c = PartnerIndexCache::with_config(geom(16), cfg(128, 2)).unwrap();
        // Heat sets 0 (conflicts) and 1..4 (plain hits); sets 8..16 cold.
        for _ in 0..48 {
            c.access(read_block(0));
            c.access(read_block(16));
            for b in 1..5u64 {
                c.access(read_block(b));
            }
        }
        let p = c.partner_of(0).expect("set 0 linked");
        assert!(p >= 5, "partner {p} should be one of the cold sets");
    }

    #[test]
    fn repartnering_dissolves_old_links() {
        let mut c = PartnerIndexCache::with_config(geom(8), cfg(32, 4)).unwrap();
        for _ in 0..16 {
            c.access(read_block(0));
            c.access(read_block(8));
        }
        assert!(c.active_pairs() >= 1);
        // Next epoch: uniform traffic, no misses to speak of -> links
        // dissolve at the next boundary.
        for i in 0..64u64 {
            c.access(read_block(i % 8));
        }
        assert_eq!(c.active_pairs(), 0);
    }

    #[test]
    fn single_residency_under_random_traffic() {
        let mut c = PartnerIndexCache::with_config(geom(16), cfg(100, 8)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for step in 0..4000 {
            c.access(read_block(rng.gen_range(0u64..96)));
            if step % 131 == 0 {
                for probe in 0..96u64 {
                    let copies = c
                        .lines
                        .iter()
                        .filter(|l| l.valid && l.block == probe)
                        .count();
                    assert!(copies <= 1, "block {probe}: {copies} copies @ {step}");
                }
            }
        }
    }

    #[test]
    fn flush_dissolves_everything() {
        let mut c = PartnerIndexCache::with_config(geom(8), cfg(16, 4)).unwrap();
        for _ in 0..20 {
            c.access(read_block(0));
            c.access(read_block(8));
        }
        c.flush();
        assert_eq!(c.active_pairs(), 0);
        assert!(!c.contains_block(0));
        assert_eq!(c.stats().accesses(), 0);
    }
}
