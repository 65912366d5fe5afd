//! Partner *chains* — the paper's §1.2 extension of the partner-index
//! idea: "In principle we can extend the 'partner index' idea to create a
//! linked list of cache lines, effectively increasing the set-associativity
//! for selected 'hot' sets. Of course, the longer the list, the more
//! cycles are expended in finding the desired object."
//!
//! Each hot set may own an ordered chain of cold sets. A primary miss
//! walks the chain (each hop costs a probe — recorded so the timing model
//! can charge depth-proportional latency); a chain hit promotes the block
//! to the primary slot; a miss everywhere cascades the displaced lines one
//! hop down the chain and evicts from the tail.

use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, HitWhere,
    MemRecord, Result,
};

/// Chain-building knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Accesses between re-chaining decisions.
    pub epoch: u64,
    /// Maximum number of hot sets that receive chains.
    pub max_chains: usize,
    /// Links per chain (1 reproduces the partner-index cache).
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

/// Direct-mapped cache with dynamically assigned partner chains.
pub struct PartnerChainCache {
    geom: CacheGeometry,
    lines: Vec<Line>,
    /// `chains[s]` = ordered chain of partner sets for hot set `s` (empty
    /// for unchained sets).
    chains: Vec<Vec<usize>>,
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
            chains: vec![Vec::new(); n],
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

    /// Chain assigned to a set (tests/inspection).
    pub fn chain_of(&self, set: usize) -> &[usize] {
        &self.chains[set]
    }

    /// Number of sets currently owning a chain.
    pub fn active_chains(&self) -> usize {
        self.chains.iter().filter(|c| !c.is_empty()).count()
    }

    /// Hits at each chain depth (index 0 = first link).
    pub fn depth_hits(&self) -> &[u64] {
        &self.depth_hits
    }

    fn rechain(&mut self) {
        let n = self.lines.len();
        let mask = n as u64 - 1;
        // Invalidate foreign residents before dissolving (single-residency;
        // see PartnerIndexCache::repartner for the failure mode).
        for (set, l) in self.lines.iter_mut().enumerate() {
            if l.valid && (l.block & mask) as usize != set {
                *l = Line::empty();
            }
        }
        for c in &mut self.chains {
            c.clear();
        }
        self.lent.iter_mut().for_each(|b| *b = false);

        let mut by_misses: Vec<usize> = (0..n).collect();
        by_misses.sort_by_key(|&s| std::cmp::Reverse(self.epoch_misses[s]));
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
            let mut chain = Vec::with_capacity(self.cfg.chain_len);
            while chain.len() < self.cfg.chain_len {
                let Some(cold) = cold_iter
                    .by_ref()
                    .find(|&c| !taken[c] && self.epoch_accesses[c] < self.epoch_misses[hot])
                else {
                    break;
                };
                taken[cold] = true;
                self.lent[cold] = true;
                chain.push(cold);
            }
            if chain.is_empty() {
                taken[hot] = false;
                break; // no cold sets left at all
            }
            self.chains[hot] = chain;
            built += 1;
        }
        self.epoch_accesses.iter_mut().for_each(|c| *c = 0);
        self.epoch_misses.iter_mut().for_each(|c| *c = 0);
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
        let p = (block & (self.lines.len() as u64 - 1)) as usize;
        self.epoch_accesses[p] += 1;
        self.since_rechain += 1;

        let mut outcome = HitWhere::MissDirect;
        let mut evicted = None;

        if self.lines[p].valid && self.lines[p].block == block {
            if is_write {
                self.lines[p].dirty = true;
            }
            outcome = HitWhere::Primary;
        } else {
            // Walk the chain.
            let chain = self.chains[p].clone();
            let mut found: Option<usize> = None;
            for (depth, &s) in chain.iter().enumerate() {
                if self.lines[s].valid && self.lines[s].block == block {
                    found = Some(depth);
                    break;
                }
            }
            match found {
                Some(depth) => {
                    // Promote to primary; displaced primary takes the hit
                    // link's slot.
                    self.depth_hits[depth] += 1;
                    let s = chain[depth];
                    let mut incoming = self.lines[s];
                    if is_write {
                        incoming.dirty = true;
                    }
                    let outgoing = self.lines[p];
                    self.lines[p] = incoming;
                    self.lines[s] = outgoing; // may be invalid; fine
                    self.stats.record_relocation();
                    outcome = HitWhere::Secondary;
                }
                None => {
                    self.epoch_misses[p] += 1;
                    if chain.is_empty() {
                        // Plain direct-mapped replacement.
                        if self.lines[p].valid {
                            evicted = Some(self.lines[p].block);
                            self.stats.record_eviction(p);
                        }
                    } else {
                        // Cascade one hop down the chain; evict the tail.
                        //
                        // Only blocks homed at `p` may ride the chain: a
                        // lent set's *own* resident (filled by its home
                        // set's direct miss) must never be shifted into a
                        // third set, where a later home-set fill would
                        // create a second copy. Foreign residents are
                        // dropped in place instead.
                        outcome = HitWhere::MissAfterProbe;
                        let mask = self.lines.len() as u64 - 1;
                        let homed = |l: &Line| l.valid && (l.block & mask) as usize == p;
                        // In-range: this branch requires `!chain.is_empty()`.
                        let tail = chain[chain.len() - 1];
                        if self.lines[tail].valid {
                            evicted = Some(self.lines[tail].block);
                            self.stats.record_eviction(tail);
                        }
                        for i in (1..chain.len()).rev() {
                            let prev = self.lines[chain[i - 1]];
                            // A foreign resident about to be overwritten is
                            // an eviction of that set.
                            let cur = self.lines[chain[i]];
                            if i != chain.len() - 1 && cur.valid && !homed(&cur) {
                                self.stats.record_eviction(chain[i]);
                            }
                            self.lines[chain[i]] = if homed(&prev) { prev } else { Line::empty() };
                        }
                        let head_old = self.lines[chain[0]];
                        if head_old.valid && !homed(&head_old) && chain.len() == 1 {
                            // length-1 chain: head is also the tail,
                            // already recorded above.
                        } else if head_old.valid && !homed(&head_old) {
                            self.stats.record_eviction(chain[0]);
                        }
                        self.lines[chain[0]] = self.lines[p];
                        if self.lines[chain[0]].valid {
                            self.stats.record_relocation();
                        }
                    }
                    self.lines[p] = Line {
                        block,
                        valid: true,
                        dirty: is_write,
                    };
                }
            }
        }
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
        self.depth_hits.iter_mut().for_each(|d| *d = 0);
    }

    fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::empty();
        }
        for c in &mut self.chains {
            c.clear();
        }
        self.lent.iter_mut().for_each(|b| *b = false);
        self.epoch_accesses.iter_mut().for_each(|c| *c = 0);
        self.epoch_misses.iter_mut().for_each(|c| *c = 0);
        self.since_rechain = 0;
        self.reset_stats();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Fusable via the default (monomorphized) chunk loop, like
/// [`crate::PartnerIndexCache`]: the primary index is a plain mask, so
/// fusing's win here is eliminating the per-record virtual dispatch.
impl unicache_core::FusedLane for PartnerChainCache {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partner::{PartnerConfig, PartnerIndexCache};
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
        assert!(PartnerChainCache::new(CacheGeometry::from_sets(16, 32, 2).unwrap()).is_err());
        assert!(PartnerChainCache::with_config(geom(16), cfg(0, 4, 2)).is_err());
        assert!(PartnerChainCache::with_config(geom(16), cfg(8, 4, 0)).is_err());
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
    fn chain_len_one_matches_partner_index_semantics() {
        // With identical epochs/limits, a 1-link chain and the partner
        // cache absorb the same 2-way conflict.
        let mut chain = PartnerChainCache::with_config(geom(8), cfg(64, 4, 1)).unwrap();
        let mut partner = PartnerIndexCache::with_config(
            geom(8),
            PartnerConfig {
                epoch: 64,
                max_pairs: 4,
            },
        )
        .unwrap();
        for _ in 0..200 {
            for b in [0u64, 8] {
                chain.access(read_block(b));
                partner.access(read_block(b));
            }
        }
        // Both settle into zero steady-state misses.
        let (c0, p0) = (chain.stats().misses(), partner.stats().misses());
        for _ in 0..20 {
            for b in [0u64, 8] {
                chain.access(read_block(b));
                partner.access(read_block(b));
            }
        }
        assert_eq!(chain.stats().misses(), c0);
        assert_eq!(partner.stats().misses(), p0);
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
    fn single_residency_under_random_traffic() {
        let mut c = PartnerChainCache::with_config(geom(16), cfg(100, 4, 2)).unwrap();
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

    #[test]
    fn flush_dissolves_chains() {
        let mut c = PartnerChainCache::with_config(geom(8), cfg(16, 4, 2)).unwrap();
        for _ in 0..40 {
            c.access(read_block(0));
            c.access(read_block(8));
        }
        c.flush();
        assert_eq!(c.active_chains(), 0);
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.depth_hits().iter().sum::<u64>(), 0);
    }
}
