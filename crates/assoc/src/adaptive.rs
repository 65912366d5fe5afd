//! Adaptive group-associative cache (paper Section III.B; Peir, Lee & Hsu,
//! ASPLOS 1998).
//!
//! A direct-mapped cache augmented with two tables:
//!
//! * **SHT** (set-reference history table) — the indexes of the most
//!   recently used sets. A line whose set is in the SHT is considered
//!   *non-disposable*: worth keeping in an alternate location when
//!   displaced. Paper sizing: `3/8` of the line count.
//! * **OUT** (out-of-position directory) — maps a displaced block to the
//!   set currently holding it. Probed in parallel with the cache, but a
//!   hit through OUT costs 3 extra cycles (paper Eq. 8). Paper sizing:
//!   `4/16` of the line count.
//!
//! Behaviour implemented from the paper's own description:
//!
//! * primary hit → update SHT (MRU);
//! * primary miss, resident's **disposable** bit set (its set is not in
//!   the SHT) → replace in place, *without consulting OUT*;
//! * primary miss, non-disposable resident → probe OUT: a match whose
//!   alternate set still holds the block is a **Secondary** hit and the
//!   block is swapped back to its primary set; otherwise the displaced
//!   resident is moved to a *nearby disposable line* and registered in OUT
//!   (evicting the LRU OUT entry — and its now-unreachable line — when the
//!   directory is full).
//!
//! Invariant maintained throughout (and property-tested): a block is
//! resident in at most one location, and every OUT entry points at a set
//! that actually holds its block.

use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, HitWhere, LruDir,
    LruSet, MemRecord, Result,
};

/// Sizing knobs for the SHT and OUT tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// SHT capacity as a fraction of the line count (paper: 3/8).
    pub sht_fraction: f64,
    /// OUT capacity as a fraction of the line count (paper: 4/16 = 1/4).
    pub out_fraction: f64,
    /// Search window (sets on each side of the primary set) when looking
    /// for a nearby disposable line to host a displaced block.
    pub relocation_window: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            sht_fraction: 3.0 / 8.0,
            out_fraction: 4.0 / 16.0,
            relocation_window: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Line {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    /// True if this line holds a block *out of position* (reachable only
    /// through the OUT directory).
    out_of_position: bool,
}

impl Line {
    fn empty() -> Self {
        Line {
            block: 0,
            valid: false,
            dirty: false,
            out_of_position: false,
        }
    }
}

/// LRU set-reference history table, with O(1) touch (see [`LruSet`]).
type Sht = LruSet;

/// LRU out-of-position directory: block -> set, with O(1) lookup,
/// insert and eviction (see [`LruDir`]).
type OutDir = LruDir<BlockAddr>;

/// One bit per cache set, set iff that set's line may host a relocated
/// block: the line is invalid, or its set is outside the SHT and it is
/// not already hosting an out-of-position block. The cache keeps it
/// exact after every line write and SHT touch, so the nearest host on
/// either side of a set is a word-wise bit scan instead of a walk over
/// up to `2 × relocation_window` lines.
struct HostMap {
    words: Vec<u64>,
}

impl HostMap {
    /// A map over `n` sets, all hosts (every line starts invalid).
    fn all_hosts(n: usize) -> Self {
        let mut m = HostMap {
            words: vec![0; n.div_ceil(64)],
        };
        for set in 0..n {
            m.put(set, true);
        }
        m
    }

    #[inline]
    fn put(&mut self, set: usize, host: bool) {
        let (w, bit) = (set / 64, 1u64 << (set % 64));
        if host {
            self.words[w] |= bit;
        } else {
            self.words[w] &= !bit;
        }
    }

    #[cfg(test)]
    fn get(&self, set: usize) -> bool {
        self.words[set / 64] >> (set % 64) & 1 == 1
    }

    /// Lowest set bit in `lo..hi` (`lo < hi`).
    fn first_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut w = lo / 64;
        let mut bits = self.words[w] & (!0u64 << (lo % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                return (i < hi).then_some(i);
            }
            w += 1;
            if w * 64 >= hi {
                return None;
            }
            bits = self.words[w];
        }
    }

    /// Highest set bit in `lo..hi` (`lo < hi`).
    fn last_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut w = (hi - 1) / 64;
        let mut bits = self.words[w] & (!0u64 >> (63 - (hi - 1) % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + 63 - bits.leading_zeros() as usize;
                return (i >= lo).then_some(i);
            }
            if w == lo / 64 {
                return None;
            }
            w -= 1;
            bits = self.words[w];
        }
    }

    /// Distance to the nearest host clockwise of `around` (sets
    /// `around + 1, around + 2, …` modulo `n`), looking at most `len`
    /// sets (`len < n`) away.
    fn right(&self, around: usize, n: usize, len: usize) -> Option<usize> {
        let start = (around + 1) % n;
        let hit = if start + len <= n {
            self.first_in(start, start + len)
        } else {
            self.first_in(start, n)
                .or_else(|| self.first_in(0, start + len - n))
        };
        hit.map(|i| (i + n - around) % n)
    }

    /// Distance to the nearest host counter-clockwise of `around`,
    /// looking at most `len` sets (`len < n`) away.
    fn left(&self, around: usize, n: usize, len: usize) -> Option<usize> {
        // Exclusive upper end of the scan, unwrapped for `around == 0`.
        let end = if around == 0 { n } else { around };
        let hit = if len <= end {
            self.last_in(end - len, end)
        } else {
            self.last_in(0, end)
                .or_else(|| self.last_in(n - (len - end), n))
        };
        hit.map(|i| (around + n - i) % n)
    }

    /// The host the outward scan from `around` (distance 1, 2, … up to
    /// `window`; clockwise before counter-clockwise at each distance,
    /// `around` itself never) meets first, with its distance.
    fn nearest(&self, around: usize, n: usize, window: usize) -> Option<(usize, usize)> {
        // Distances past n - 1 only revisit sets already scanned.
        let len = window.min(n - 1);
        if len == 0 {
            return None;
        }
        let r = self.right(around, n, len);
        let l = self.left(around, n, len);
        match (r, l) {
            (Some(dr), Some(dl)) if dl < dr => Some(((around + n - dl) % n, dl)),
            (Some(dr), _) => Some(((around + dr) % n, dr)),
            (None, Some(dl)) => Some(((around + n - dl) % n, dl)),
            (None, None) => None,
        }
    }
}

/// The adaptive group-associative cache.
pub struct AdaptiveGroupCache {
    geom: CacheGeometry,
    lines: Vec<Line>,
    sht: Sht,
    out: OutDir,
    hosts: HostMap,
    stats: CacheStats,
    window: usize,
    name: String,
    /// Test builds only: answer relocation searches with the scalar scan
    /// the host bitmap replaced, as the reference it is checked against.
    #[cfg(test)]
    scalar_search: bool,
}

impl AdaptiveGroupCache {
    /// Paper-sized tables (SHT 3/8, OUT 1/4 of the line count).
    pub fn new(geom: CacheGeometry) -> Result<Self> {
        Self::with_config(geom, AdaptiveConfig::default())
    }

    /// Custom table sizing (ablation `ablation_adaptive_tables`).
    pub fn with_config(geom: CacheGeometry, cfg: AdaptiveConfig) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "adaptive group-associative cache extends a direct-mapped cache".into(),
            });
        }
        if !(0.0..=1.0).contains(&cfg.sht_fraction) || !(0.0..=1.0).contains(&cfg.out_fraction) {
            return Err(ConfigError::InvalidParameter {
                what: "table fractions must lie in [0, 1]".into(),
            });
        }
        let n = geom.num_sets();
        let sht_cap = ((n as f64 * cfg.sht_fraction).round() as usize).max(1);
        let out_cap = ((n as f64 * cfg.out_fraction).round() as usize).max(1);
        Ok(AdaptiveGroupCache {
            geom,
            lines: vec![Line::empty(); n],
            sht: Sht::new(n, sht_cap),
            out: OutDir::new(out_cap),
            hosts: HostMap::all_hosts(n),
            stats: CacheStats::new(n),
            window: cfg.relocation_window.max(1),
            name: format!("adaptive_cache(sht={sht_cap},out={out_cap})"),
            #[cfg(test)]
            scalar_search: false,
        })
    }

    #[inline]
    fn primary_of(&self, block: BlockAddr) -> usize {
        self.geom.conventional_index(self.geom.block_base(block))
    }

    /// True if `block` is resident anywhere (primary or out-of-position).
    pub fn contains_block(&mut self, block: BlockAddr) -> bool {
        let p = self.primary_of(block);
        if self.lines[p].valid && self.lines[p].block == block {
            return true;
        }
        if let Some(s) = self.out.get(block) {
            return self.lines[s].valid && self.lines[s].block == block;
        }
        false
    }

    /// Current number of OUT entries (tests/introspection).
    pub fn out_len(&self) -> usize {
        self.out.len()
    }

    /// May `set`'s line host a relocated block? It may if it is
    /// invalid, or valid with its set outside the SHT and not already
    /// hosting an out-of-position block.
    #[inline]
    fn is_host(&self, set: usize) -> bool {
        let l = &self.lines[set];
        !l.valid || (!self.sht.contains(set) && !l.out_of_position)
    }

    /// Writes `line` into `set`, keeping the host bitmap exact.
    #[inline]
    fn put_line(&mut self, set: usize, line: Line) {
        self.lines[set] = line;
        self.hosts.put(set, self.is_host(set));
    }

    /// Marks `set` MRU in the SHT, keeping the host bitmap exact for it
    /// and for the set the touch pushed out of the table.
    #[inline]
    fn touch_sht(&mut self, set: usize) {
        let dropped = self.sht.touch(set);
        self.hosts.put(set, self.is_host(set));
        if let Some(d) = dropped {
            self.hosts.put(d, self.is_host(d));
        }
    }

    /// Finds the disposable line nearest `around` (see [`Self::is_host`];
    /// never `around` itself): the outward scan up to the configured
    /// window, clockwise first at each distance, answered from the host
    /// bitmap.
    fn find_disposable_near(&self, around: usize) -> Option<usize> {
        let (host, d) = self.nearest_host(around)?;
        unicache_obs::observe(unicache_obs::HistEvent::AdaptiveRelocSearch, d as u64);
        Some(host)
    }

    #[cfg(not(test))]
    #[inline]
    fn nearest_host(&self, around: usize) -> Option<(usize, usize)> {
        self.hosts.nearest(around, self.lines.len(), self.window)
    }

    #[cfg(test)]
    fn nearest_host(&self, around: usize) -> Option<(usize, usize)> {
        let n = self.lines.len();
        if self.scalar_search {
            tests::scan_nearest(|s| self.is_host(s), around, n, self.window)
        } else {
            self.hosts.nearest(around, n, self.window)
        }
    }

    /// Drops the block hosted out-of-position at `set` (when its OUT entry
    /// is evicted, the line becomes unreachable and must be invalidated to
    /// preserve the single-residency invariant).
    fn invalidate_out_line(&mut self, block: BlockAddr, set: usize) {
        let l = &self.lines[set];
        if l.valid && l.block == block && l.out_of_position {
            self.put_line(set, Line::empty());
        }
    }
}

impl CacheModel for AdaptiveGroupCache {
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
        unicache_obs::count(unicache_obs::Event::AdaptiveProbe);
        let p = self.primary_of(block);

        // Primary probe (OUT is probed in parallel in hardware; a primary
        // hit never waits on it).
        if self.lines[p].valid && self.lines[p].block == block {
            if is_write {
                self.lines[p].dirty = true;
            }
            self.touch_sht(p);
            self.stats.record(p, HitWhere::Primary);
            return AccessResult {
                where_hit: HitWhere::Primary,
                set: p,
                evicted: None,
            };
        }

        // OUT probe: the block may live out of position.
        if let Some(alt) = self.out.get(block) {
            if self.lines[alt].valid && self.lines[alt].block == block {
                unicache_obs::count(unicache_obs::Event::AdaptiveOutHit);
                // Swap back toward the primary position to shorten future
                // hits; the displaced primary resident takes the alternate
                // slot (its OUT entry replaces ours).
                let mut incoming = self.lines[alt];
                incoming.out_of_position = false;
                if is_write {
                    incoming.dirty = true;
                }
                let outgoing = self.lines[p];
                self.out.remove(block);
                self.put_line(p, incoming);
                if outgoing.valid {
                    self.put_line(
                        alt,
                        Line {
                            out_of_position: true,
                            ..outgoing
                        },
                    );
                    if let Some((evb, evs)) = self.out.insert(outgoing.block, alt) {
                        self.invalidate_out_line(evb, evs);
                    }
                } else {
                    self.put_line(alt, Line::empty());
                }
                self.touch_sht(p);
                self.stats.record(p, HitWhere::Secondary);
                unicache_obs::count(unicache_obs::Event::AdaptiveRelocation);
                self.stats.record_relocation();
                return AccessResult {
                    where_hit: HitWhere::Secondary,
                    set: p,
                    evicted: None,
                };
            }
            // Stale entry: the alternate line was reclaimed. Clean up.
            unicache_obs::count(unicache_obs::Event::AdaptiveOutStale);
            self.out.remove(block);
        }

        // Miss. Decide the fate of the primary resident.
        let resident = self.lines[p];
        let disposable = !resident.valid || !self.sht.contains(p) || resident.out_of_position;
        let mut evicted = None;
        let mut where_hit = HitWhere::MissDirect;

        if resident.valid {
            if disposable {
                // Replace in place; OUT untouched (the paper: "the OUT
                // table is not consulted when the disposable bit is set").
                if resident.out_of_position {
                    self.out.remove(resident.block);
                }
                evicted = Some(resident.block);
                self.stats.record_eviction(p);
            } else {
                // Keep the MRU-set victim: move it to a nearby disposable
                // line and register it in OUT.
                unicache_obs::count(unicache_obs::Event::AdaptiveShtHit);
                where_hit = HitWhere::MissAfterProbe;
                if let Some(host) = self.find_disposable_near(p) {
                    let hosted = self.lines[host];
                    if hosted.valid {
                        if hosted.out_of_position {
                            self.out.remove(hosted.block);
                        }
                        evicted = Some(hosted.block);
                        self.stats.record_eviction(host);
                    }
                    self.put_line(
                        host,
                        Line {
                            out_of_position: true,
                            ..resident
                        },
                    );
                    if let Some((evb, evs)) = self.out.insert(resident.block, host) {
                        self.invalidate_out_line(evb, evs);
                    }
                    unicache_obs::count(unicache_obs::Event::AdaptiveRelocation);
                    self.stats.record_relocation();
                } else {
                    // No disposable line in the window: fall back to plain
                    // eviction.
                    evicted = Some(resident.block);
                    self.stats.record_eviction(p);
                }
            }
        }

        // Fill the primary slot. Any stale out-of-position copy of the
        // incoming block was already cleaned above.
        self.put_line(
            p,
            Line {
                block,
                valid: true,
                dirty: is_write,
                out_of_position: false,
            },
        );
        self.touch_sht(p);
        self.stats.record(p, where_hit);
        AccessResult {
            where_hit,
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
        self.sht.clear();
        self.out.clear();
        self.hosts = HostMap::all_hosts(self.lines.len());
        self.stats.reset();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Fusable only through the default (monomorphized) chunk loop: every
/// access consults and updates the SHT/OUT directories, so the per-record
/// state machine has no separable index phase to vectorize. The fused
/// pass still removes the per-record virtual dispatch and shares the
/// decoded stream with the other lanes.
impl unicache_core::FusedLane for AdaptiveGroupCache {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geom(sets: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, 32, 1).unwrap()
    }

    fn read_block(b: u64) -> MemRecord {
        MemRecord::read(b * 32)
    }

    #[test]
    fn construction() {
        let c = AdaptiveGroupCache::new(geom(1024)).unwrap();
        assert_eq!(c.name(), "adaptive_cache(sht=384,out=256)");
        assert!(AdaptiveGroupCache::new(CacheGeometry::from_sets(8, 32, 2).unwrap()).is_err());
        let bad = AdaptiveConfig {
            sht_fraction: 1.5,
            ..Default::default()
        };
        assert!(AdaptiveGroupCache::with_config(geom(8), bad).is_err());
    }

    #[test]
    fn hot_conflict_pair_is_rescued() {
        let mut c = AdaptiveGroupCache::new(geom(64)).unwrap();
        // Make set 0 MRU-hot, then conflict: 0 and 64 share set 0.
        c.access(read_block(0));
        c.access(read_block(0));
        let r = c.access(read_block(64));
        // Set 0 is in SHT -> resident 0 is non-disposable -> relocated.
        assert_eq!(r.where_hit, HitWhere::MissAfterProbe);
        assert!(c.contains_block(0), "victim kept out of position");
        assert!(c.contains_block(64));
        // Access to 0 now hits through OUT (secondary).
        let r = c.access(read_block(0));
        assert_eq!(r.where_hit, HitWhere::Secondary);
        // After the swap-back, 0 is primary again.
        let r = c.access(read_block(0));
        assert_eq!(r.where_hit, HitWhere::Primary);
    }

    #[test]
    fn cold_set_victim_is_just_replaced() {
        let mut c = AdaptiveGroupCache::new(geom(64)).unwrap();
        // Touch block 5 once, then flood the SHT with other sets so set 5
        // falls out of the MRU table.
        c.access(read_block(5));
        for b in 6..48u64 {
            c.access(read_block(b));
        }
        assert!(!c.sht.contains(5));
        let before = c.out_len();
        let r = c.access(read_block(64 + 5)); // conflicts with block 5
        assert_eq!(r.where_hit, HitWhere::MissDirect);
        assert_eq!(r.evicted, Some(5));
        assert_eq!(c.out_len(), before, "OUT untouched for disposable victim");
        assert!(!c.contains_block(5));
    }

    #[test]
    fn out_directory_capacity_is_bounded() {
        let cfg = AdaptiveConfig {
            sht_fraction: 1.0, // everything MRU -> every victim relocates
            out_fraction: 4.0 / 64.0,
            relocation_window: 64,
        };
        let mut c = AdaptiveGroupCache::with_config(geom(64), cfg).unwrap();
        // Generate many conflicting fills.
        for i in 0..200u64 {
            c.access(read_block(i % 8 + 64 * (i / 8)));
        }
        assert!(c.out_len() <= 4, "OUT grew to {}", c.out_len());
    }

    #[test]
    fn single_residency_invariant_under_random_traffic() {
        let mut c = AdaptiveGroupCache::new(geom(32)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let blocks: Vec<u64> = (0..5000).map(|_| rng.gen_range(0u64..256)).collect();
        for (i, &b) in blocks.iter().enumerate() {
            c.access(read_block(b));
            if i % 97 == 0 {
                // Count copies of a sample of blocks.
                for probe in 0..256u64 {
                    let copies = c
                        .lines
                        .iter()
                        .filter(|l| l.valid && l.block == probe)
                        .count();
                    assert!(copies <= 1, "block {probe} resident {copies}x at step {i}");
                }
            }
        }
        // Every OUT entry points at a line holding its block.
        let entries: Vec<(u64, usize)> = c.out.entries().collect();
        for (b, s) in entries {
            assert!(c.lines[s].valid && c.lines[s].block == b && c.lines[s].out_of_position);
        }
    }

    #[test]
    fn beats_direct_mapped_on_hot_conflicts() {
        use unicache_sim::CacheBuilder;
        let g = geom(64);
        let mut adaptive = AdaptiveGroupCache::new(g).unwrap();
        let mut dm = CacheBuilder::new(g).build().unwrap();
        // Two hot blocks in the same set, plus background traffic.
        let mut rng = StdRng::seed_from_u64(5);
        let mut trace = Vec::new();
        for _ in 0..4000 {
            trace.push(read_block(0));
            trace.push(read_block(64));
            if rng.gen_bool(0.3) {
                trace.push(read_block(rng.gen_range(1u64..40)));
            }
        }
        for &r in &trace {
            adaptive.access(r);
            dm.access(r);
        }
        assert!(
            adaptive.stats().miss_rate() < dm.stats().miss_rate() * 0.5,
            "adaptive {} vs dm {}",
            adaptive.stats().miss_rate(),
            dm.stats().miss_rate()
        );
    }

    #[test]
    fn flush_clears_tables() {
        let mut c = AdaptiveGroupCache::new(geom(32)).unwrap();
        c.access(read_block(0));
        c.access(read_block(0));
        c.access(read_block(32));
        c.flush();
        assert_eq!(c.out_len(), 0);
        assert!(!c.contains_block(0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn sht_lru_behaviour() {
        let mut sht = Sht::new(8, 3);
        sht.touch(0);
        sht.touch(1);
        sht.touch(2);
        assert!(sht.contains(0) && sht.contains(1) && sht.contains(2));
        sht.touch(0); // refresh 0
        sht.touch(3); // evicts 1 (LRU)
        assert!(sht.contains(0) && !sht.contains(1) && sht.contains(2) && sht.contains(3));
    }

    /// The outward scan the host bitmap replaced: distance 1, 2, … up to
    /// `window`, clockwise before counter-clockwise, `around` skipped.
    pub(super) fn scan_nearest(
        is_host: impl Fn(usize) -> bool,
        around: usize,
        n: usize,
        window: usize,
    ) -> Option<(usize, usize)> {
        for d in 1..=window {
            for cand in [(around + d) % n, (around + n - d % n) % n] {
                if cand != around && is_host(cand) {
                    return Some((cand, d));
                }
            }
        }
        None
    }

    fn host_map_of(bits: &[bool]) -> HostMap {
        let mut m = HostMap::all_hosts(bits.len());
        for (s, &b) in bits.iter().enumerate() {
            m.put(s, b);
        }
        m
    }

    /// Set counts for the bitmap property: the cache sizes the crate
    /// builds, plus counts that leave the last word partly used.
    const HOST_MAP_SETS: [usize; 8] = [8, 32, 64, 1024, 1, 2, 3, 100];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn bitmap_search_matches_scalar_scan(
            k in 0..HOST_MAP_SETS.len(),
            sparsity in 0u32..8,
            seed in proptest::num::u64::ANY
        ) {
            // Density 1 / 2^sparsity, so both short hits and long misses
            // (every candidate scanned) are common.
            let n = HOST_MAP_SETS[k];
            let mut rng = StdRng::seed_from_u64(seed);
            let bits: Vec<bool> = (0..n)
                .map(|_| rng.gen_range(0u64..1 << sparsity) == 0)
                .collect();
            // Windows from 1 up to past the set count, so the scan wraps
            // (2 × window + 1 > n) and revisits sets.
            let window = rng.gen_range(1..=n + 3);
            let around = rng.gen_range(0..n);
            let m = host_map_of(&bits);
            prop_assert_eq!(
                m.nearest(around, n, window),
                scan_nearest(|s| bits[s], around, n, window)
            );
        }
    }

    /// Asserts the host bitmap agrees with the line/SHT state it caches.
    fn assert_host_map_exact(c: &AdaptiveGroupCache) {
        for s in 0..c.lines.len() {
            assert_eq!(c.hosts.get(s), c.is_host(s), "host bit of set {s}");
        }
    }

    /// Replays `blocks` (every third one a store) through the bitmap
    /// cache and a scalar-scan reference of the same configuration, and
    /// requires identical results, statistics, OUT occupancy and lines.
    fn assert_matches_scalar_reference(sets: usize, cfg: AdaptiveConfig, blocks: &[u64]) {
        let mut fast = AdaptiveGroupCache::with_config(geom(sets), cfg).unwrap();
        let mut slow = AdaptiveGroupCache::with_config(geom(sets), cfg).unwrap();
        slow.scalar_search = true;
        for (i, &b) in blocks.iter().enumerate() {
            let is_write = i % 3 == 0;
            assert_eq!(
                fast.access_block(b, is_write),
                slow.access_block(b, is_write),
                "access {i} (block {b})"
            );
            if i % 101 == 0 {
                assert_host_map_exact(&fast);
            }
        }
        assert_host_map_exact(&fast);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.out_len(), slow.out_len());
        assert_eq!(fast.lines, slow.lines);
        assert!(fast.stats().relocations > 0, "stream never relocated");
        fast.flush();
        assert_host_map_exact(&fast);
    }

    #[test]
    fn bitmap_cache_matches_scalar_reference_on_random_traffic() {
        let mut rng = StdRng::seed_from_u64(13);
        for (sets, window, sht) in [
            (8, 2, 3.0 / 8.0),
            (32, 64, 1.0),
            (64, 5, 0.5),
            (1024, 64, 3.0 / 8.0),
        ] {
            let cfg = AdaptiveConfig {
                sht_fraction: sht,
                relocation_window: window,
                ..Default::default()
            };
            let span = 4 * sets as u64;
            let blocks: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..span)).collect();
            assert_matches_scalar_reference(sets, cfg, &blocks);
        }
    }

    #[test]
    fn bitmap_cache_matches_scalar_reference_on_a_hot_run_wider_than_the_window() {
        // Hot sets 100..400 (300 sets, window 64 on either side): victims
        // near the middle of the run find no host, those near its edges
        // find one; plus cold traffic over the whole cache.
        let mut rng = StdRng::seed_from_u64(21);
        let sets = 1024u64;
        let blocks: Vec<u64> = (0..60_000)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    rng.gen_range(100..400) + sets * rng.gen_range(0..3)
                } else {
                    rng.gen_range(0..64 * sets)
                }
            })
            .collect();
        assert_matches_scalar_reference(1024, AdaptiveConfig::default(), &blocks);
    }

    #[test]
    fn out_dir_lru_behaviour() {
        let mut out = OutDir::new(2);
        assert_eq!(out.insert(10, 1), None);
        assert_eq!(out.insert(20, 2), None);
        assert_eq!(out.get(10), Some(1)); // refresh 10
        let ev = out.insert(30, 3);
        assert_eq!(ev, Some((20, 2)), "20 was LRU");
        assert_eq!(out.get(20), None);
        assert_eq!(out.remove(10), Some(1));
        assert_eq!(out.len(), 1);
    }
}
