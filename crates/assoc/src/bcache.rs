//! B-cache — Zhang's *balanced cache* (paper Section III.C; ISCA 2006).
//!
//! The combined index is split into **NPI** (non-programmable index) bits,
//! decoded conventionally, and **PI** (programmable index) bits, matched by
//! per-line programmable decoders. The paper's two parameters:
//!
//! * mapping factor `MF = 2^(PI+NPI) / 2^OI` (Eq. 6) — how many *logical*
//!   indexes share the cache's physical lines;
//! * B-cache associativity `BAS = 2^OI / 2^NPI` (Eq. 7) — lines per
//!   cluster (the paper's configuration: `MF = 2`, `BAS = 8`, so a 1024-line
//!   direct-mapped cache decodes 11 index bits into 128 clusters of 8).
//!
//! Behaviourally, a lookup selects the cluster via the NPI bits; the PI
//! bits must match a line's programmable decoder; on a miss the
//! cluster-wide LRU line is refilled and its decoder reprogrammed. Since a
//! resident block's decoder always equals its own PI bits, hit/miss
//! behaviour equals a `BAS`-way associative cache over the NPI index — the
//! basis for Zhang's observation (quoted in the paper) that this B-cache
//! "achieves the same miss rate as an 8-way set associative cache" while
//! keeping a direct-mapped access path (hence `HitWhere::Primary` for all
//! hits and `MissDirect` for all misses: there is no second probe).
//!
//! Per-set statistics are charged to **physical lines** (cluster × way), so
//! the uniformity figures (kurtosis/skewness, Figs. 11–12) compare directly
//! against the baseline's 1024 per-set counters.

use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, HitWhere,
    MemRecord, Result,
};

/// B-cache shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BCacheConfig {
    /// Mapping factor `MF` (power of two ≥ 1). The paper/Zhang use 2.
    pub mapping_factor: u32,
    /// Cluster associativity `BAS` (power of two ≥ 1, ≤ line count).
    /// The paper/Zhang use 8.
    pub bas: u32,
}

impl Default for BCacheConfig {
    fn default() -> Self {
        BCacheConfig {
            mapping_factor: 2,
            bas: 8,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    /// Programmable-decoder contents (the PI value this line answers to).
    pi: u64,
    stamp: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            block: 0,
            valid: false,
            dirty: false,
            pi: 0,
            stamp: 0,
        }
    }
}

/// Zhang's balanced cache over a direct-mapped line array.
pub struct BCache {
    geom: CacheGeometry,
    lines: Vec<Line>,
    stats: CacheStats,
    clusters: usize,
    bas: usize,
    npi_bits: u32,
    pi_bits: u32,
    clock: u64,
    name: String,
}

impl BCache {
    /// Paper configuration: `MF = 2`, `BAS = 8`.
    pub fn new(geom: CacheGeometry) -> Result<Self> {
        Self::with_config(geom, BCacheConfig::default())
    }

    /// Custom shape (ablation `ablation_bcache_mf`).
    pub fn with_config(geom: CacheGeometry, cfg: BCacheConfig) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "B-cache reorganises a direct-mapped cache".into(),
            });
        }
        if !cfg.mapping_factor.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "mapping factor",
                value: cfg.mapping_factor as u64,
            });
        }
        if !cfg.bas.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "B-cache associativity",
                value: cfg.bas as u64,
            });
        }
        let lines = geom.num_sets();
        if cfg.bas as usize > lines {
            return Err(ConfigError::OutOfRange {
                what: "B-cache associativity",
                expected: format!("<= {lines}"),
                got: cfg.bas as u64,
            });
        }
        let oi = unicache_core::log2(lines as u64);
        let npi_bits = oi - unicache_core::log2(cfg.bas as u64);
        let pi_bits =
            unicache_core::log2(cfg.mapping_factor as u64) + unicache_core::log2(cfg.bas as u64);
        let clusters = lines / cfg.bas as usize;
        Ok(BCache {
            geom,
            lines: vec![Line::empty(); lines],
            stats: CacheStats::new(lines),
            clusters,
            bas: cfg.bas as usize,
            npi_bits,
            pi_bits,
            clock: 0,
            name: format!("b_cache(MF={},BAS={})", cfg.mapping_factor, cfg.bas),
        })
    }

    /// Number of clusters (`2^NPI`).
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Index bits decoded conventionally.
    pub fn npi_bits(&self) -> u32 {
        self.npi_bits
    }

    /// Programmable index bits.
    pub fn pi_bits(&self) -> u32 {
        self.pi_bits
    }

    /// Lines per cluster (`BAS`).
    pub fn bas(&self) -> usize {
        self.bas
    }

    /// The cluster a block's NPI bits decode to.
    pub fn cluster_of(&self, block: BlockAddr) -> usize {
        self.split(block).0
    }

    /// The PI value a block's programmable-decoder match uses.
    pub fn pi_of(&self, block: BlockAddr) -> u64 {
        self.split(block).1
    }

    #[inline]
    fn split(&self, block: BlockAddr) -> (usize, u64) {
        let cluster = (block & (self.clusters as u64 - 1)) as usize;
        let pi = (block >> self.npi_bits) & ((1u64 << self.pi_bits) - 1);
        (cluster, pi)
    }

    /// True if the block is resident.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        let (cluster, _) = self.split(block);
        let base = cluster * self.bas;
        self.lines[base..base + self.bas]
            .iter()
            .any(|l| l.valid && l.block == block)
    }
}

impl CacheModel for BCache {
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
        self.clock += 1;
        unicache_obs::count(unicache_obs::Event::BcacheProbe);
        let (cluster, pi) = self.split(block);
        let base = cluster * self.bas;

        // The programmable decoders select matching lines; a hit also
        // matches the stored block (tag).
        for w in 0..self.bas {
            let l = &mut self.lines[base + w];
            if l.valid && l.pi == pi && l.block == block {
                l.stamp = self.clock;
                if is_write {
                    l.dirty = true;
                }
                unicache_obs::count_by(unicache_obs::Event::BcacheLineCompare, (w + 1) as u64);
                unicache_obs::observe(unicache_obs::HistEvent::BcacheWalk, (w + 1) as u64);
                self.stats.record(base + w, HitWhere::Primary);
                return AccessResult {
                    where_hit: HitWhere::Primary,
                    set: base + w,
                    evicted: None,
                };
            }
        }

        // Miss: victim = invalid line, else cluster-wide LRU (this is what
        // lets hot PI values borrow lines from cold ones — the balancing).
        unicache_obs::count_by(unicache_obs::Event::BcacheLineCompare, self.bas as u64);
        unicache_obs::observe(unicache_obs::HistEvent::BcacheWalk, self.bas as u64);
        unicache_obs::count(unicache_obs::Event::BcacheDecoderReprogram);
        // Manual first-minimum scan (same tie-break as `min_by_key`),
        // infallible since `bas >= 1` by construction.
        let mut victim = 0usize;
        let mut victim_key = (1u8, u64::MAX);
        for w in 0..self.bas {
            let l = &self.lines[base + w];
            let key = if l.valid { (1u8, l.stamp) } else { (0u8, 0) };
            if key < victim_key {
                victim = w;
                victim_key = key;
            }
        }
        let slot = base + victim;
        let old = self.lines[slot];
        if old.valid {
            self.stats.record_eviction(slot);
        }
        self.lines[slot] = Line {
            block,
            valid: true,
            dirty: is_write,
            pi,
            stamp: self.clock,
        };
        self.stats.record(slot, HitWhere::MissDirect);
        AccessResult {
            where_hit: HitWhere::MissDirect,
            set: slot,
            evicted: if old.valid { Some(old.block) } else { None },
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
        self.clock = 0;
        self.stats.reset();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Fusable only through the default (monomorphized) chunk loop: the
/// programmable decoders make each lookup a cluster walk whose result
/// feeds the next decoder reprogramming, so there is no precomputable
/// index vector. Fusing still removes the per-record virtual dispatch.
impl unicache_core::FusedLane for BCache {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use unicache_sim::CacheBuilder;

    fn geom(sets: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, 32, 1).unwrap()
    }

    fn read_block(b: u64) -> MemRecord {
        MemRecord::read(b * 32)
    }

    #[test]
    fn paper_shape() {
        let b = BCache::new(geom(1024)).unwrap();
        assert_eq!(b.clusters(), 128);
        assert_eq!(b.npi_bits(), 7);
        assert_eq!(b.pi_bits(), 4); // log2(2) + log2(8)
        assert_eq!(b.name(), "b_cache(MF=2,BAS=8)");
    }

    #[test]
    fn validation() {
        assert!(BCache::with_config(
            geom(1024),
            BCacheConfig {
                mapping_factor: 3,
                bas: 8
            }
        )
        .is_err());
        assert!(BCache::with_config(
            geom(1024),
            BCacheConfig {
                mapping_factor: 2,
                bas: 7
            }
        )
        .is_err());
        assert!(BCache::with_config(
            geom(8),
            BCacheConfig {
                mapping_factor: 2,
                bas: 16
            }
        )
        .is_err());
        assert!(BCache::new(CacheGeometry::from_sets(64, 32, 2).unwrap()).is_err());
    }

    #[test]
    fn absorbs_direct_mapped_conflicts() {
        // Blocks 0 and 64 conflict in a 64-line direct-mapped cache; with
        // BAS=8 they share a cluster and coexist.
        let mut b = BCache::with_config(geom(64), BCacheConfig::default()).unwrap();
        b.access(read_block(0));
        b.access(read_block(64));
        assert!(b.contains_block(0));
        assert!(b.contains_block(64));
        for _ in 0..5 {
            assert!(b.access(read_block(0)).is_hit());
            assert!(b.access(read_block(64)).is_hit());
        }
        assert_eq!(b.stats().misses(), 2);
    }

    #[test]
    fn matches_equivalent_set_associative_miss_rate() {
        // Miss behaviour must equal an 8-way LRU cache with 2^NPI sets.
        let g = geom(256);
        let mut bc = BCache::new(g).unwrap();
        let eq_geom = CacheGeometry::from_sets(32, 32, 8).unwrap();
        let mut sa = CacheBuilder::new(eq_geom).build().unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20_000 {
            let r = read_block(rng.gen_range(0u64..1200));
            bc.access(r);
            sa.access(r);
        }
        assert_eq!(bc.stats().misses(), sa.stats().misses());
        assert_eq!(bc.stats().hits(), sa.stats().hits());
    }

    #[test]
    fn spreads_accesses_across_cluster_lines() {
        let mut b = BCache::with_config(geom(64), BCacheConfig::default()).unwrap();
        // Hammer 8 conflicting blocks (same cluster, different PI).
        for i in 0..8u64 {
            for _ in 0..100 {
                b.access(read_block(i * 64));
            }
        }
        let touched = b
            .stats()
            .per_set()
            .iter()
            .filter(|s| s.accesses > 0)
            .count();
        assert_eq!(touched, 8, "each conflicting block gets its own line");
    }

    #[test]
    fn lru_within_cluster() {
        let cfg = BCacheConfig {
            mapping_factor: 2,
            bas: 2,
        };
        let mut b = BCache::with_config(geom(4), cfg).unwrap();
        // Cluster 0 (even blocks of low bit 0): blocks 0, 2, 4 map there
        // (clusters = 2 -> cluster = block & 1).
        b.access(read_block(0));
        b.access(read_block(2));
        b.access(read_block(0)); // refresh 0
        let r = b.access(read_block(4)); // evicts LRU = 2
        assert_eq!(r.evicted, Some(2));
        assert!(b.contains_block(0));
        assert!(!b.contains_block(2));
    }

    #[test]
    fn all_outcomes_are_single_probe() {
        let mut b = BCache::new(geom(64)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let r = b.access(read_block(rng.gen_range(0u64..512)));
            assert!(matches!(
                r.where_hit,
                HitWhere::Primary | HitWhere::MissDirect
            ));
        }
        assert_eq!(b.stats().secondary_hits, 0);
        assert_eq!(b.stats().misses_after_probe, 0);
    }

    #[test]
    fn flush_resets() {
        let mut b = BCache::new(geom(64)).unwrap();
        b.access(read_block(1));
        b.flush();
        assert!(!b.contains_block(1));
        assert_eq!(b.stats().accesses(), 0);
    }
}
