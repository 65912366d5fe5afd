//! Partner chains — the paper's partner-index cache (§1.2, Fig. 3) and its
//! §1.2 extension on one engine: "In principle we can extend the 'partner
//! index' idea to create a linked list of cache lines, effectively
//! increasing the set-associativity for selected 'hot' sets. Of course,
//! the longer the list, the more cycles are expended in finding the
//! desired object."
//!
//! Hot sets (those collecting the most misses) are dynamically linked to
//! cold sets (those seeing the fewest accesses): every `epoch` accesses,
//! the finished epoch's per-set access/miss counters are ranked and each
//! of the top `max_chains` missing sets receives an ordered chain of up to
//! `chain_len` of the least-accessed sets. A one-link chain is the paper's
//! partner-index pair ([`PartnerIndexCache`]).
//!
//! A primary miss walks the chain (each hop costs a probe — recorded so
//! the timing model can charge depth-proportional latency); a chain hit
//! promotes the block to the primary slot; a miss everywhere cascades the
//! valid primary resident one hop down the chain and evicts from the
//! tail. An invalid primary is filled in place and the chain is left
//! untouched.

use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, HitWhere,
    MemRecord, Result,
};
use unicache_obs::{Event, HistEvent};

/// Chain-building knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Accesses between re-chaining decisions.
    pub epoch: u64,
    /// Maximum number of hot sets that receive chains.
    pub max_chains: usize,
    /// Links per chain (1 is the partner-index cache).
    pub chain_len: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            epoch: 8192,
            max_chains: 32,
            chain_len: 3,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
}

impl Line {
    fn empty() -> Self {
        Line {
            block: 0,
            valid: false,
            dirty: false,
        }
    }
}

/// The paper's partner-index cache (§1.2, Fig. 3): each hot set is
/// linked to one cold partner set, and a linked pair behaves like a
/// 2-entry set. It is a [`PartnerChainCache`] whose chains have one link.
pub enum PartnerIndexCache {}

impl PartnerIndexCache {
    /// Re-pairs every 8192 accesses, at most 64 hot/cold pairs.
    #[allow(clippy::new_ret_no_self)] // a constructor for PartnerChainCache
    pub fn new(geom: CacheGeometry) -> Result<PartnerChainCache> {
        PartnerChainCache::with_config(
            geom,
            ChainConfig {
                epoch: 8192,
                max_chains: 64,
                chain_len: 1,
            },
        )
    }
}

/// Direct-mapped cache with dynamically assigned partner chains.
pub struct PartnerChainCache {
    geom: CacheGeometry,
    lines: Vec<Line>,
    /// Flat chain storage: set `s` owns the `chain_len` slots starting at
    /// `s * chain_len`, of which the first `lens[s]` are its links.
    links: Vec<usize>,
    lens: Vec<usize>,
    /// True if the set is serving inside someone's chain.
    lent: Vec<bool>,
    stats: CacheStats,
    cfg: ChainConfig,
    epoch_accesses: Vec<u64>,
    epoch_misses: Vec<u64>,
    since_rechain: u64,
    /// Histogram of chain-hit depths (index 0 = first link).
    depth_hits: Vec<u64>,
    name: String,
}

impl PartnerChainCache {
    /// Default chaining policy.
    pub fn new(geom: CacheGeometry) -> Result<Self> {
        Self::with_config(geom, ChainConfig::default())
    }

    /// Custom chaining policy.
    pub fn with_config(geom: CacheGeometry, cfg: ChainConfig) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "partner-chain cache extends a direct-mapped cache".into(),
            });
        }
        if cfg.epoch == 0 || cfg.chain_len == 0 {
            return Err(ConfigError::InvalidParameter {
                what: "epoch and chain_len must be positive".into(),
            });
        }
        let n = geom.num_sets();
        Ok(PartnerChainCache {
            geom,
            lines: vec![Line::empty(); n],
            links: vec![0; n * cfg.chain_len],
            lens: vec![0; n],
            lent: vec![false; n],
            stats: CacheStats::new(n),
            cfg,
            epoch_accesses: vec![0; n],
            epoch_misses: vec![0; n],
            since_rechain: 0,
            depth_hits: vec![0; cfg.chain_len],
            name: format!(
                "partner_chain(epoch={},chains={},len={})",
                cfg.epoch, cfg.max_chains, cfg.chain_len
            ),
        })
    }

    /// Chain assigned to a set, first link first (empty if unchained).
    pub fn chain_of(&self, set: usize) -> &[usize] {
        &self.links[set * self.cfg.chain_len..][..self.lens[set]]
    }

    /// The current `(hot set, chain)` pairs, hot set ascending. `uca
    /// check` drives a cache and then verifies these form disjoint chains:
    /// no set linked to itself, no set in two chains, no hot set lent.
    pub fn chains(&self) -> impl Iterator<Item = (usize, &[usize])> {
        (0..self.lens.len())
            .filter(|&s| self.lens[s] > 0)
            .map(|s| (s, self.chain_of(s)))
    }

    /// Number of sets currently owning a chain.
    pub fn active_chains(&self) -> usize {
        self.lens.iter().filter(|&&l| l > 0).count()
    }

    /// True if `set` is currently serving as a link in some hot set's
    /// chain.
    pub fn is_lent(&self, set: usize) -> bool {
        self.lent[set]
    }

    /// Hits at each chain depth (index 0 = first link).
    pub fn depth_hits(&self) -> &[u64] {
        &self.depth_hits
    }

    fn rechain(&mut self) {
        let n = self.lines.len();
        let mask = n as u64 - 1;
        // Dissolve existing chains. A lent set may hold a block spilled
        // from its hot set; once the link is gone that copy is unreachable
        // and — worse — the block could be refilled at its primary set,
        // creating a second copy. Invalidate foreign residents first.
        for (set, l) in self.lines.iter_mut().enumerate() {
            if l.valid && (l.block & mask) as usize != set {
                *l = Line::empty();
            }
        }
        self.lens.fill(0);
        self.lent.fill(false);

        // Hot sets: most epoch misses (must have at least one miss).
        let mut by_misses: Vec<usize> = (0..n).collect();
        by_misses.sort_by_key(|&s| std::cmp::Reverse(self.epoch_misses[s]));
        // Cold sets: fewest epoch accesses.
        let mut by_accesses: Vec<usize> = (0..n).collect();
        by_accesses.sort_by_key(|&s| self.epoch_accesses[s]);
        let mut cold_iter = by_accesses.into_iter();

        let mut taken = vec![false; n];
        let mut built = 0usize;
        for &hot in &by_misses {
            if built >= self.cfg.max_chains || self.epoch_misses[hot] == 0 {
                break;
            }
            if taken[hot] {
                continue;
            }
            taken[hot] = true;
            let base = hot * self.cfg.chain_len;
            let mut len = 0;
            while len < self.cfg.chain_len {
                // Next untaken set that is genuinely colder than the hot
                // set.
                let Some(cold) = cold_iter
                    .by_ref()
                    .find(|&c| !taken[c] && self.epoch_accesses[c] < self.epoch_misses[hot])
                else {
                    break;
                };
                taken[cold] = true;
                self.lent[cold] = true;
                self.links[base + len] = cold;
                len += 1;
            }
            if len == 0 {
                break; // no cold sets left at all
            }
            self.lens[hot] = len;
            built += 1;
        }
        unicache_obs::count(Event::PartnerRepartner);
        unicache_obs::count_by(Event::PartnerPairFormed, built as u64);
        unicache_obs::observe(HistEvent::PartnerEpochPairs, built as u64);
        self.epoch_accesses.fill(0);
        self.epoch_misses.fill(0);
    }
}

impl CacheModel for PartnerChainCache {
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
        unicache_obs::count(Event::PartnerProbe);
        let mask = self.lines.len() as u64 - 1;
        let p = (block & mask) as usize;
        self.epoch_accesses[p] += 1;
        self.since_rechain += 1;

        let base = p * self.cfg.chain_len;
        let len = self.lens[p];
        let mut evicted = None;

        let outcome = if self.lines[p].valid && self.lines[p].block == block {
            if is_write {
                self.lines[p].dirty = true;
            }
            HitWhere::Primary
        } else if len == 0 {
            // Unchained set: plain direct-mapped replacement.
            self.epoch_misses[p] += 1;
            if self.lines[p].valid {
                evicted = Some(self.lines[p].block);
                self.stats.record_eviction(p);
            }
            self.lines[p] = Line {
                block,
                valid: true,
                dirty: is_write,
            };
            HitWhere::MissDirect
        } else {
            unicache_obs::count(Event::PartnerSecondProbe);
            let chain = &self.links[base..base + len];
            let lines = &self.lines;
            match chain
                .iter()
                .position(|&s| lines[s].valid && lines[s].block == block)
            {
                Some(depth) => {
                    // Promote to primary; the displaced primary (valid or
                    // not) takes the hit link's slot.
                    self.depth_hits[depth] += 1;
                    let s = chain[depth];
                    let mut incoming = self.lines[s];
                    incoming.dirty |= is_write;
                    self.lines[s] = self.lines[p];
                    self.lines[p] = incoming;
                    self.stats.record_relocation();
                    HitWhere::Secondary
                }
                None => {
                    self.epoch_misses[p] += 1;
                    if self.lines[p].valid {
                        // Lend the primary resident to the chain: cascade
                        // one hop down, evicting the tail.
                        //
                        // Only blocks homed at `p` may ride the chain: a
                        // lent set's *own* resident (filled by its home
                        // set's direct miss) must never be shifted into a
                        // third set, where a later home-set fill would
                        // create a second copy. Foreign residents are
                        // dropped in place instead, each an eviction of
                        // its set.
                        unicache_obs::count(Event::PartnerLend);
                        let homed = |l: Line| l.valid && (l.block & mask) as usize == p;
                        let tail = len - 1;
                        for i in (0..len).rev() {
                            let s = chain[i];
                            let cur = self.lines[s];
                            if i == tail && cur.valid {
                                evicted = Some(cur.block);
                                self.stats.record_eviction(s);
                            } else if cur.valid && !homed(cur) {
                                self.stats.record_eviction(s);
                            }
                            self.lines[s] = match i {
                                0 => self.lines[p],
                                _ if homed(self.lines[chain[i - 1]]) => self.lines[chain[i - 1]],
                                _ => Line::empty(),
                            };
                        }
                        self.stats.record_relocation();
                    }
                    self.lines[p] = Line {
                        block,
                        valid: true,
                        dirty: is_write,
                    };
                    HitWhere::MissAfterProbe
                }
            }
        };
        self.stats.record(p, outcome);
        if self.since_rechain >= self.cfg.epoch {
            self.since_rechain = 0;
            self.rechain();
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
        self.depth_hits.fill(0);
    }

    fn flush(&mut self) {
        self.lines.fill(Line::empty());
        self.lens.fill(0);
        self.lent.fill(false);
        self.epoch_accesses.fill(0);
        self.epoch_misses.fill(0);
        self.since_rechain = 0;
        self.reset_stats();
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
impl unicache_core::FusedLane for PartnerChainCache {}

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

    fn cfg(epoch: u64, chains: usize, len: usize) -> ChainConfig {
        ChainConfig {
            epoch,
            max_chains: chains,
            chain_len: len,
        }
    }

    #[test]
    fn validation() {
        assert!(PartnerChainCache::new(geom(16)).is_ok());
        assert!(PartnerIndexCache::new(geom(16)).is_ok());
        assert!(PartnerChainCache::new(CacheGeometry::from_sets(16, 32, 2).unwrap()).is_err());
        assert!(PartnerIndexCache::new(CacheGeometry::from_sets(16, 32, 2).unwrap()).is_err());
        assert!(PartnerChainCache::with_config(geom(16), cfg(0, 4, 2)).is_err());
        assert!(PartnerChainCache::with_config(geom(16), cfg(8, 4, 0)).is_err());
    }

    #[test]
    fn behaves_direct_mapped_before_first_epoch() {
        let mut c = PartnerChainCache::with_config(geom(8), cfg(1_000_000, 4, 1)).unwrap();
        c.access(read_block(0));
        let r = c.access(read_block(8)); // conflict, no partner yet
        assert_eq!(r.where_hit, HitWhere::MissDirect);
        assert_eq!(r.evicted, Some(0));
        assert_eq!(c.active_chains(), 0);
    }

    #[test]
    fn hot_set_gets_a_cold_partner_and_conflict_is_absorbed() {
        let mut c = PartnerChainCache::with_config(geom(16), cfg(128, 2, 1)).unwrap();
        // Heat sets 0 (conflicts) and 1..4 (plain hits); sets 5..16 cold.
        for _ in 0..48 {
            c.access(read_block(0));
            c.access(read_block(16));
            for b in 1..5u64 {
                c.access(read_block(b));
            }
        }
        let partner = c.chain_of(0);
        assert_eq!(partner.len(), 1, "set 0 linked");
        assert!(partner[0] >= 5, "partner {partner:?} should be a cold set");
        assert!(c.is_lent(partner[0]) && !c.is_lent(0));
        // Steady state after pairing: the pair coexists.
        c.access(read_block(0));
        c.access(read_block(16));
        let m0 = c.stats().misses();
        for _ in 0..20 {
            assert!(c.access(read_block(0)).is_hit());
            assert!(c.access(read_block(16)).is_hit());
        }
        assert_eq!(c.stats().misses(), m0, "no further conflict misses");
        assert!(c.stats().secondary_hits > 0);
    }

    #[test]
    fn chain_absorbs_four_way_conflict() {
        // Four blocks conflict on set 0 of a 16-set cache. A chain of
        // length 3 gives set 0 effective associativity 4.
        let mut c = PartnerChainCache::with_config(geom(16), cfg(128, 4, 3)).unwrap();
        let blocks = [0u64, 16, 32, 48];
        for _ in 0..64 {
            for &b in &blocks {
                c.access(read_block(b));
            }
        }
        assert!(c.active_chains() >= 1);
        assert_eq!(c.chain_of(0).len(), 3);
        // Steady state after chaining: all four coexist.
        for &b in &blocks {
            c.access(read_block(b));
        }
        let before = c.stats().misses();
        for _ in 0..20 {
            for &b in &blocks {
                assert!(c.access(read_block(b)).is_hit(), "block {b}");
            }
        }
        assert_eq!(c.stats().misses(), before);
        assert!(c.depth_hits().iter().sum::<u64>() > 0);
    }

    #[test]
    fn empty_primary_fills_in_place_and_keeps_the_link_resident() {
        // 4 sets, one chain, epoch 16.
        // Epoch 1: set 0 conflicts (0/4) and is chained to set 1 first.
        // Epoch 2: set 1 conflicts (1/5); set 0 then misses twice,
        // lending its resident into set 1; sets 2 and 3 take one block
        // each. Re-chaining gives set 1 (most misses) a chain headed by
        // set 2 (coldest) and drops set 1's foreign resident, so the hot
        // set's primary is empty while its first link holds block 2.
        for len in [1, 3] {
            let mut c = PartnerChainCache::with_config(geom(4), cfg(16, 1, len)).unwrap();
            for i in 0..16u64 {
                c.access(read_block(4 * (i % 2)));
            }
            assert_eq!(c.chain_of(0)[0], 1, "len {len}");
            for i in 0..12u64 {
                c.access(read_block(1 + 4 * (i % 2)));
            }
            for b in [12, 16, 2, 3] {
                c.access(read_block(b));
            }
            assert_eq!(c.chain_of(1)[0], 2, "len {len}");
            let relocations = c.stats().relocations;
            let r = c.access(read_block(9));
            assert_eq!(r.where_hit, HitWhere::MissAfterProbe, "len {len}");
            assert_eq!(r.evicted, None, "len {len}");
            assert_eq!(c.stats().relocations, relocations, "len {len}");
            assert_eq!(
                c.access(read_block(2)).where_hit,
                HitWhere::Primary,
                "len {len}: the link lost its resident"
            );
        }
    }

    #[test]
    fn longer_chains_hit_deeper() {
        let mut c = PartnerChainCache::with_config(geom(32), cfg(256, 2, 3)).unwrap();
        let blocks = [0u64, 32, 64, 96];
        for _ in 0..256 {
            for &b in &blocks {
                c.access(read_block(b));
            }
        }
        // Depth histogram has entries beyond depth 0 (a 4-way conflict
        // cycling through promotion pushes blocks deep).
        let depths = c.depth_hits();
        assert!(depths.iter().skip(1).any(|&d| d > 0), "{depths:?}");
    }

    #[test]
    fn rechaining_dissolves_old_links() {
        let mut c = PartnerChainCache::with_config(geom(8), cfg(32, 4, 1)).unwrap();
        for _ in 0..16 {
            c.access(read_block(0));
            c.access(read_block(8));
        }
        assert!(c.active_chains() >= 1);
        // Next epoch: uniform traffic, no misses to speak of -> links
        // dissolve at the next boundary.
        for i in 0..64u64 {
            c.access(read_block(i % 8));
        }
        assert_eq!(c.active_chains(), 0);
        assert!((0..8).all(|s| !c.is_lent(s)));
    }

    #[test]
    fn single_residency_under_random_traffic() {
        for len in [1, 2] {
            let mut c = PartnerChainCache::with_config(geom(16), cfg(100, 4, len)).unwrap();
            let mut rng = StdRng::seed_from_u64(21);
            for step in 0..4000 {
                c.access(read_block(rng.gen_range(0u64..96)));
                if step % 127 == 0 {
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
    }

    #[test]
    fn flush_dissolves_chains() {
        let mut c = PartnerChainCache::with_config(geom(8), cfg(16, 4, 2)).unwrap();
        for _ in 0..40 {
            c.access(read_block(0));
            c.access(read_block(8));
        }
        c.flush();
        assert_eq!(c.active_chains(), 0);
        assert!((0..8).all(|s| !c.is_lent(s)));
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.depth_hits().iter().sum::<u64>(), 0);
    }
}
