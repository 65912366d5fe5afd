//! Adaptive group-associative cache (paper Section III.B; Peir, Lee & Hsu,
//! ASPLOS 1998), and the adaptive partitioned cache built on the same
//! engine (Section IV.E, Fig. 14).
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
//! The partitioned cache splits the sets into equal contiguous per-thread
//! partitions: thread `t` maps a block into partition `t` and tags its
//! lines and OUT entries with `t`, so two threads cache the same address
//! privately. SHT and OUT stay shared, and a displaced block may spill
//! into a cold set of *any* partition — "thus increasing the cache sizes
//! available to each thread adaptively". The solo cache is the
//! one-partition case: every line carries tag 0.
//!
//! Invariant maintained throughout (and property-tested): a (tag, block)
//! pair is resident in at most one location, and every OUT entry points
//! at a set that actually holds its block.

use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, Egress,
    EgressSink, HitWhere, LruDir, LruSet, MemRecord, Result, StatsSink, ThreadId,
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
    /// Partition (thread) tag of the block; always 0 in the solo cache.
    tid: u8,
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
            tid: 0,
            valid: false,
            dirty: false,
            out_of_position: false,
        }
    }
}

/// How a displaced block looks for a host line, fixed by the constructor.
#[derive(Debug, Clone, Copy)]
enum HostSearch {
    /// Outward from the primary set, up to `window` sets on each side,
    /// clockwise first at each distance (the solo cache: a *nearby*
    /// disposable line).
    Nearest { window: usize },
    /// Clockwise over every other set of the cache (the partitioned
    /// cache: a cold set in any partition).
    Clockwise,
}

/// LRU set-reference history table, with O(1) touch (see [`LruSet`]).
type Sht = LruSet;

/// LRU out-of-position directory: (tag, block) -> set, with O(1) lookup,
/// insert and eviction (see [`LruDir`]).
type OutDir = LruDir<(u8, BlockAddr)>;

/// One bit per cache set, set iff that set's line may host a relocated
/// block: the line is invalid, or its set is outside the SHT and it is
/// not already hosting an out-of-position block. The cache keeps it
/// exact between accesses, so a host search is a word-wise bit scan
/// instead of a walk over up to `2 × relocation_window` lines (or, in the
/// partitioned cache, the whole cache).
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
        let (w, b) = (set / 64, set % 64);
        self.words[w] = self.words[w] & !(1 << b) | u64::from(host) << b;
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

    /// The first host clockwise of `around` over the whole cache
    /// (`around` itself never), with its distance.
    fn clockwise(&self, around: usize, n: usize) -> Option<(usize, usize)> {
        if n == 1 {
            return None;
        }
        let d = self.right(around, n, n - 1)?;
        Some(((around + d) % n, d))
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

/// The SHT/OUT engine: the lines, both directories and the host bitmap
/// behind [`AdaptiveGroupCache`] and [`AdaptivePartitionedCache`]. It
/// keeps no counters: each access writes them to the [`StatsSink`] it is
/// handed, so the cache's [`CacheStats`] can be borrowed beside it.
struct Engine {
    lines: Vec<Line>,
    sht: Sht,
    out: OutDir,
    hosts: HostMap,
    search: HostSearch,
    /// Sets per partition (all of them in the solo cache).
    part_sets: usize,
    /// Highest partition tag; larger thread ids share its partition.
    top_tid: u8,
    /// Test builds only: answer relocation searches with the scalar scan
    /// the host bitmap replaced, as the reference it is checked against.
    #[cfg(test)]
    scalar_search: bool,
}

/// The adaptive group-associative cache: the SHT/OUT engine behind both
/// this solo cache and [`AdaptivePartitionedCache`].
pub struct AdaptiveGroupCache {
    geom: CacheGeometry,
    engine: Engine,
    stats: CacheStats,
    name: String,
}

impl AdaptiveGroupCache {
    /// Paper-sized tables (SHT 3/8, OUT 1/4 of the line count).
    pub fn new(geom: CacheGeometry) -> Result<Self> {
        Self::with_config(geom, AdaptiveConfig::default())
    }

    /// Custom table sizing (ablation `ablation_adaptive_tables`).
    pub fn with_config(geom: CacheGeometry, cfg: AdaptiveConfig) -> Result<Self> {
        if !(0.0..=1.0).contains(&cfg.sht_fraction) || !(0.0..=1.0).contains(&cfg.out_fraction) {
            return Err(ConfigError::InvalidParameter {
                what: "table fractions must lie in [0, 1]".into(),
            });
        }
        let n = geom.num_sets();
        let sht_cap = ((n as f64 * cfg.sht_fraction).round() as usize).max(1);
        let out_cap = ((n as f64 * cfg.out_fraction).round() as usize).max(1);
        Self::build(
            geom,
            1,
            (sht_cap, out_cap),
            HostSearch::Nearest {
                window: cfg.relocation_window.max(1),
            },
            format!("adaptive_cache(sht={sht_cap},out={out_cap})"),
        )
    }

    /// The engine over `threads` equal partitions with SHT and OUT
    /// capacities `caps`.
    fn build(
        geom: CacheGeometry,
        threads: usize,
        (sht_cap, out_cap): (usize, usize),
        search: HostSearch,
        name: String,
    ) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "adaptive caches extend a direct-mapped cache".into(),
            });
        }
        let n = geom.num_sets();
        if threads == 0 || !n.is_multiple_of(threads) {
            return Err(ConfigError::InvalidParameter {
                what: format!("{n} sets cannot be split across {threads} threads"),
            });
        }
        Ok(AdaptiveGroupCache {
            geom,
            engine: Engine {
                lines: vec![Line::empty(); n],
                sht: Sht::new(n, sht_cap),
                out: OutDir::new(out_cap),
                hosts: HostMap::all_hosts(n),
                search,
                part_sets: n / threads,
                top_tid: u8::try_from(threads - 1).unwrap_or(u8::MAX),
                #[cfg(test)]
                scalar_search: false,
            },
            stats: CacheStats::new(n),
            name,
        })
    }

    /// True if `block` is resident anywhere (primary or out-of-position).
    pub fn contains_block(&mut self, block: BlockAddr) -> bool {
        let e = &mut self.engine;
        let (tag, p) = e.primary_of(0, block);
        let holds = |l: &Line| l.valid && l.block == block && l.tid == tag;
        if holds(&e.lines[p]) {
            return true;
        }
        match e.out.get((tag, block)) {
            Some(s) => holds(&e.lines[s]),
            None => false,
        }
    }

    /// Current number of OUT entries (tests/introspection).
    pub fn out_len(&self) -> usize {
        self.engine.out.len()
    }

    /// Simulates one reference by thread `tid` on the per-record path:
    /// the engine's access body with its counters written straight into
    /// the stats.
    #[inline]
    fn access_tid(&mut self, tid: u8, block: BlockAddr, is_write: bool) -> AccessResult {
        unicache_obs::count(unicache_obs::Event::AdaptiveProbe);
        self.engine.access(&mut self.stats, tid, block, is_write)
    }

    /// Steps one chunk through the engine's access body, record by record
    /// in trace order (every access reads the SHT/OUT state the previous
    /// one left), each record run as the thread `tids` yields for it and
    /// its outcome sent to `egress`. The aggregate counters reach the
    /// stats once, through [`CacheStats::tally`].
    #[inline(always)]
    fn step<E: EgressSink>(
        &mut self,
        blocks: &[BlockAddr],
        writes: &[bool],
        tids: impl Iterator<Item = u8>,
        egress: &mut E,
    ) {
        unicache_obs::count_by(unicache_obs::Event::AdaptiveProbe, blocks.len() as u64);
        let engine = &mut self.engine;
        self.stats.tally(|t| {
            for ((&block, &is_write), tid) in blocks.iter().zip(writes).zip(tids) {
                let r = engine.access(t, tid, block, is_write);
                egress.access(block, &r);
            }
        });
    }
}

impl Engine {
    /// The partition tag of thread `tid` and the primary set it maps
    /// `block` to: slot `block mod part_sets` of partition `tag`. Sets
    /// are a power of two and the partition count divides them, so the
    /// modulo is a mask.
    #[inline(always)]
    fn primary_of(&self, tid: u8, block: BlockAddr) -> (u8, usize) {
        let tag = tid.min(self.top_tid);
        let slot = block as usize & (self.part_sets - 1);
        (tag, usize::from(tag) * self.part_sets + slot)
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

    /// Marks the accessed set `p` MRU in the SHT, keeping the host bitmap
    /// exact for it and for the set the touch pushed out of the table.
    /// Every access ends here with a valid line at `p`, and a valid line
    /// in an SHT set never hosts, so `p`'s own line write may skip the
    /// bitmap. Outside the SHT, only an out-of-position line keeps the
    /// dropped set from hosting.
    #[inline(always)]
    fn touch_sht(&mut self, p: usize) {
        let dropped = self.sht.touch(p);
        self.hosts.put(p, false);
        if let Some(d) = dropped {
            let l = &self.lines[d];
            self.hosts.put(d, !(l.valid && l.out_of_position));
        }
    }

    /// Finds a disposable line to host a block displaced from `around`
    /// (see [`Self::is_host`]; never `around` itself) in the order of the
    /// configured [`HostSearch`], answered from the host bitmap.
    fn find_host(&self, around: usize) -> Option<usize> {
        let (host, d) = self.search_hosts(around)?;
        unicache_obs::observe(unicache_obs::HistEvent::AdaptiveRelocSearch, d as u64);
        Some(host)
    }

    #[inline]
    fn search_hosts(&self, around: usize) -> Option<(usize, usize)> {
        let n = self.lines.len();
        #[cfg(test)]
        if self.scalar_search {
            let is_host = |s| self.is_host(s);
            return match self.search {
                HostSearch::Nearest { window } => tests::scan_nearest(is_host, around, n, window),
                HostSearch::Clockwise => tests::scan_clockwise(is_host, around, n),
            };
        }
        match self.search {
            HostSearch::Nearest { window } => self.hosts.nearest(around, n, window),
            HostSearch::Clockwise => self.hosts.clockwise(around, n),
        }
    }

    /// Registers the out-of-position line at `set` in OUT. When that
    /// evicts another entry, the line it pointed at becomes unreachable
    /// and is invalidated to preserve the single-residency invariant.
    fn out_insert(&mut self, key: (u8, BlockAddr), set: usize) {
        if let Some(((tid, block), s)) = self.out.insert(key, set) {
            let l = &self.lines[s];
            if l.valid && l.block == block && l.tid == tid && l.out_of_position {
                self.put_line(s, Line::empty());
            }
        }
    }

    /// One reference by thread `tid` (clamped to the last partition, tag
    /// included), its counters written to `sink`: the per-record body of
    /// every path, per record and per chunk. A primary hit commits here,
    /// inline; every other outcome is [`Self::miss`]'s.
    #[inline(always)]
    fn access<S: StatsSink>(
        &mut self,
        sink: &mut S,
        tid: u8,
        block: BlockAddr,
        is_write: bool,
    ) -> AccessResult {
        sink.write(is_write);
        let (tag, p) = self.primary_of(tid, block);
        // Primary probe (OUT is probed in parallel in hardware; a primary
        // hit never waits on it).
        let l = &mut self.lines[p];
        if l.valid && l.block == block && l.tid == tag {
            l.dirty |= is_write;
            self.touch_sht(p);
            sink.record(p, HitWhere::Primary);
            return AccessResult {
                where_hit: HitWhere::Primary,
                set: p,
                evicted: None,
            };
        }
        self.miss(sink, tag, p, block, is_write)
    }

    /// [`Self::access`] past a primary miss: the OUT probe and swap-back,
    /// or the fill with its relocation or eviction.
    #[inline(never)]
    fn miss<S: StatsSink>(
        &mut self,
        sink: &mut S,
        tag: u8,
        p: usize,
        block: BlockAddr,
        is_write: bool,
    ) -> AccessResult {
        let holds = |l: &Line| l.valid && l.block == block && l.tid == tag;

        // OUT probe: the block may live out of position. OUT is kept
        // consistent on every fill, relocation and eviction, so an entry
        // always points at its out-of-position line.
        if let Some(alt) = self.out.get((tag, block)) {
            debug_assert!(
                holds(&self.lines[alt]),
                "stale OUT entry for block {block:#x} at line {alt}"
            );
            unicache_obs::count(unicache_obs::Event::AdaptiveOutHit);
            // Swap back toward the primary position to shorten future
            // hits; the displaced primary resident takes the alternate
            // slot (its OUT entry replaces ours).
            let mut incoming = self.lines[alt];
            incoming.out_of_position = false;
            incoming.dirty |= is_write;
            let outgoing = self.lines[p];
            self.out.remove((tag, block));
            self.lines[p] = incoming;
            if outgoing.valid {
                self.put_line(
                    alt,
                    Line {
                        out_of_position: true,
                        ..outgoing
                    },
                );
                self.out_insert((outgoing.tid, outgoing.block), alt);
            } else {
                self.put_line(alt, Line::empty());
            }
            self.touch_sht(p);
            sink.record(p, HitWhere::Secondary);
            unicache_obs::count(unicache_obs::Event::AdaptiveRelocation);
            sink.relocation();
            return AccessResult {
                where_hit: HitWhere::Secondary,
                set: p,
                evicted: None,
            };
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
                    self.out.remove((resident.tid, resident.block));
                }
                evicted = Some(resident.block);
                sink.eviction(p);
            } else {
                // Keep the MRU-set victim: move it to a disposable line
                // and register it in OUT.
                unicache_obs::count(unicache_obs::Event::AdaptiveShtHit);
                where_hit = HitWhere::MissAfterProbe;
                if let Some(host) = self.find_host(p) {
                    let hosted = self.lines[host];
                    if hosted.valid {
                        if hosted.out_of_position {
                            self.out.remove((hosted.tid, hosted.block));
                        }
                        evicted = Some(hosted.block);
                        sink.eviction(host);
                    }
                    self.put_line(
                        host,
                        Line {
                            out_of_position: true,
                            ..resident
                        },
                    );
                    self.out_insert((resident.tid, resident.block), host);
                    unicache_obs::count(unicache_obs::Event::AdaptiveRelocation);
                    sink.relocation();
                } else {
                    // No disposable line within reach: fall back to plain
                    // eviction.
                    evicted = Some(resident.block);
                    sink.eviction(p);
                }
            }
        }

        // Fill the primary slot. Any stale out-of-position copy of the
        // incoming block was already cleaned above.
        self.lines[p] = Line {
            block,
            tid: tag,
            valid: true,
            dirty: is_write,
            out_of_position: false,
        };
        self.touch_sht(p);
        sink.record(p, where_hit);
        AccessResult {
            where_hit,
            set: p,
            evicted,
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
        self.access_tid(0, block, is_write)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn flush(&mut self) {
        let e = &mut self.engine;
        for l in &mut e.lines {
            *l = Line::empty();
        }
        e.sht.clear();
        e.out.clear();
        e.hosts = HostMap::all_hosts(e.lines.len());
        self.stats.reset();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The chunk commit loop: every record runs the engine's access body as
/// thread 0, in trace order, since each access reads the SHT/OUT state
/// the previous one left. Primary hits commit inline; the aggregate
/// counters reach the stats once per chunk.
impl unicache_core::FusedLane for AdaptiveGroupCache {
    fn step_chunk(&mut self, blocks: &[BlockAddr], writes: &[bool]) {
        self.step(blocks, writes, std::iter::repeat(0), &mut ());
    }

    fn step_chunk_egress(&mut self, blocks: &[BlockAddr], writes: &[bool], egress: &mut Egress) {
        self.step(blocks, writes, std::iter::repeat(0), egress);
    }
}

/// The paper's **adaptive partitioned** cache (Section IV.E, Fig. 14):
/// equal static per-thread partitions for isolation, plus shared SHT/OUT
/// tables, so that a non-disposable victim from one thread's partition
/// is kept in a cold set anywhere in the cache — including the other
/// threads' partitions.
///
/// Thread ids come from [`MemRecord::tid`], so the cache is driven
/// through [`CacheModel::access`] or, chunk by chunk, as a
/// [`unicache_core::TaggedLane`]. It is deliberately not a
/// [`unicache_core::FusedLane`]: the untagged `access_block` form has no
/// thread id and would fold every thread into partition 0.
pub struct AdaptivePartitionedCache(AdaptiveGroupCache);

impl AdaptivePartitionedCache {
    /// Splits `geom.num_sets()` evenly across `threads` (must divide).
    /// SHT = 3/8 and OUT = 1/4 of the line count, rounded down (the solo
    /// cache rounds to nearest; the two differ at 4 sets).
    pub fn new(geom: CacheGeometry, threads: usize) -> Result<Self> {
        let n = geom.num_sets();
        AdaptiveGroupCache::build(
            geom,
            threads,
            ((n * 3 / 8).max(1), (n / 4).max(1)),
            HostSearch::Clockwise,
            format!("adaptive_partitioned({threads} threads)"),
        )
        .map(AdaptivePartitionedCache)
    }

    /// Current number of OUT entries (tests/introspection).
    pub fn out_len(&self) -> usize {
        self.0.out_len()
    }
}

impl CacheModel for AdaptivePartitionedCache {
    fn geometry(&self) -> CacheGeometry {
        self.0.geom
    }

    fn access(&mut self, rec: MemRecord) -> AccessResult {
        let block = self.0.geom.block_addr(rec.addr);
        self.0.access_tid(rec.tid, block, rec.kind.is_write())
    }

    fn stats(&self) -> &CacheStats {
        self.0.stats()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }

    fn flush(&mut self) {
        self.0.flush();
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The solo cache's chunk commit loop with record `i` run as thread
/// `tids[i]`: the same engine body, primary hits inline, aggregate
/// counters once per chunk.
impl unicache_core::TaggedLane for AdaptivePartitionedCache {
    fn step_tagged(&mut self, blocks: &[BlockAddr], writes: &[bool], tids: &[ThreadId]) {
        assert!(
            writes.len() == blocks.len() && tids.len() == blocks.len(),
            "step_tagged: chunk slices differ in length"
        );
        self.0.step(blocks, writes, tids.iter().copied(), &mut ());
    }
}

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

    fn read(b: u64, tid: u8) -> MemRecord {
        read_block(b).with_tid(tid)
    }

    /// Every OUT entry points at an out-of-position line holding its
    /// (tag, block).
    fn assert_out_points_at_its_lines(c: &AdaptiveGroupCache) {
        for ((tid, b), s) in c.engine.out.entries() {
            let l = &c.engine.lines[s];
            assert!(l.valid && l.block == b && l.tid == tid && l.out_of_position);
        }
    }

    /// OUT is always consistent: after every access, on solo traffic
    /// under a narrow relocation window and on partitioned traffic with
    /// clockwise spills (plus a thread id past the last partition), each
    /// OUT entry points at its out-of-position line, as the miss path's
    /// OUT probe debug-asserts.
    #[test]
    fn out_points_at_its_lines_after_every_access() {
        let mut rng = StdRng::seed_from_u64(55);
        let cfg = AdaptiveConfig {
            sht_fraction: 0.5,
            out_fraction: 1.0 / 8.0,
            relocation_window: 4,
        };
        let solo = AdaptiveGroupCache::with_config(geom(64), cfg).unwrap();
        let partitioned = AdaptivePartitionedCache::new(geom(64), 4).unwrap().0;
        for (mut c, threads) in [(solo, 1u8), (partitioned, 5)] {
            for i in 0..20_000 {
                let tid = rng.gen_range(0..threads);
                let b = if rng.gen_bool(0.7) {
                    rng.gen_range(0..24) + 64 * rng.gen_range(0..3)
                } else {
                    rng.gen_range(0..1024)
                };
                c.access_tid(tid, b, i % 3 == 0);
                assert_out_points_at_its_lines(&c);
            }
            let s = c.stats();
            assert!(s.secondary_hits > 0 && s.relocations > s.secondary_hits);
        }
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
        assert!(!c.engine.sht.contains(5));
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
                        .engine
                        .lines
                        .iter()
                        .filter(|l| l.valid && l.block == probe)
                        .count();
                    assert!(copies <= 1, "block {probe} resident {copies}x at step {i}");
                }
            }
        }
        assert_out_points_at_its_lines(&c);
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

    /// The clockwise walk the partitioned cache's bitmap search replaced:
    /// sets `around + 1, around + 2, …` modulo `n`, `around` skipped.
    pub(super) fn scan_clockwise(
        is_host: impl Fn(usize) -> bool,
        around: usize,
        n: usize,
    ) -> Option<(usize, usize)> {
        for d in 1..n {
            let cand = (around + d) % n;
            if is_host(cand) {
                return Some((cand, d));
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
            prop_assert_eq!(m.clockwise(around, n), scan_clockwise(|s| bits[s], around, n));
        }
    }

    /// Asserts the host bitmap agrees with the line/SHT state it caches.
    fn assert_host_map_exact(c: &AdaptiveGroupCache) {
        for s in 0..c.engine.lines.len() {
            assert_eq!(
                c.engine.hosts.get(s),
                c.engine.is_host(s),
                "host bit of set {s}"
            );
        }
    }

    /// Replays `refs` (thread, block; every third one a store) through a
    /// bitmap cache from `make` and a scalar-scan reference of the same
    /// configuration, and requires identical results, statistics, OUT
    /// occupancy and lines.
    fn assert_matches_scalar_reference(make: impl Fn() -> AdaptiveGroupCache, refs: &[(u8, u64)]) {
        let mut fast = make();
        let mut slow = make();
        slow.engine.scalar_search = true;
        for (i, &(tid, b)) in refs.iter().enumerate() {
            let is_write = i % 3 == 0;
            assert_eq!(
                fast.access_tid(tid, b, is_write),
                slow.access_tid(tid, b, is_write),
                "access {i} (thread {tid}, block {b})"
            );
            if i % 101 == 0 {
                assert_host_map_exact(&fast);
            }
        }
        assert_host_map_exact(&fast);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.out_len(), slow.out_len());
        assert_eq!(fast.engine.lines, slow.engine.lines);
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
            let refs: Vec<(u8, u64)> = (0..20_000).map(|_| (0, rng.gen_range(0..span))).collect();
            assert_matches_scalar_reference(
                || AdaptiveGroupCache::with_config(geom(sets), cfg).unwrap(),
                &refs,
            );
        }
    }

    #[test]
    fn bitmap_cache_matches_scalar_reference_on_a_hot_run_wider_than_the_window() {
        // Hot sets 100..400 (300 sets, window 64 on either side): victims
        // near the middle of the run find no host, those near its edges
        // find one; plus cold traffic over the whole cache.
        let mut rng = StdRng::seed_from_u64(21);
        let sets = 1024u64;
        let refs: Vec<(u8, u64)> = (0..60_000)
            .map(|_| {
                let b = if rng.gen_bool(0.8) {
                    rng.gen_range(100..400) + sets * rng.gen_range(0..3)
                } else {
                    rng.gen_range(0..64 * sets)
                };
                (0, b)
            })
            .collect();
        assert_matches_scalar_reference(|| AdaptiveGroupCache::new(geom(1024)).unwrap(), &refs);
    }

    #[test]
    fn partitioned_bitmap_cache_matches_scalar_reference_on_mixed_threads() {
        let mut rng = StdRng::seed_from_u64(34);
        for (sets, threads) in [(16, 2), (16, 4), (1024, 2), (1024, 4)] {
            // Thread 0 cycles three conflicting blocks over a run of hot
            // slots as long as the SHT (its victims spill, those from the
            // middle of the run far away); the others stream over a wide
            // span, leaving cold sets to host the spills.
            let part_sets = (sets / threads) as u64;
            let hot = part_sets.min(3 * sets as u64 / 8);
            let refs: Vec<(u8, u64)> = (0..40_000)
                .map(|_| {
                    let tid = rng.gen_range(0..threads as u8);
                    let b = if tid == 0 {
                        rng.gen_range(0..hot) + part_sets * rng.gen_range(0..3)
                    } else {
                        rng.gen_range(0..64 * sets as u64)
                    };
                    (tid, b)
                })
                .collect();
            assert_matches_scalar_reference(
                || {
                    AdaptivePartitionedCache::new(geom(sets), threads)
                        .unwrap()
                        .0
                },
                &refs,
            );
        }
    }

    #[test]
    fn single_residency_per_thread_block() {
        let mut c = AdaptivePartitionedCache::new(geom(16), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for step in 0..3000 {
            let tid = rng.gen_range(0..2u8);
            c.access(read(rng.gen_range(0u64..64), tid));
            if step % 101 == 0 {
                for tid in 0..2u8 {
                    for b in 0..64u64 {
                        let copies =
                            c.0.engine
                                .lines
                                .iter()
                                .filter(|l| l.valid && l.block == b && l.tid == tid)
                                .count();
                        assert!(copies <= 1, "({tid},{b}): {copies} copies @ {step}");
                    }
                }
            }
        }
        assert_out_points_at_its_lines(&c.0);
    }

    /// SHT and OUT capacities: fill both tables past the line count and
    /// read back their sizes.
    fn table_capacities(c: &mut AdaptiveGroupCache) -> (usize, usize) {
        let n = c.engine.lines.len();
        for s in 0..n {
            c.engine.sht.touch(s);
        }
        for b in 0..=n as u64 {
            c.engine.out.insert((0, b), 0);
        }
        (c.engine.sht.len(), c.engine.out.len())
    }

    #[test]
    fn table_capacities_per_constructor() {
        // The solo cache rounds n × 3/8 and n / 4 to nearest, the
        // partitioned cache rounds down; both keep at least one entry.
        for (n, solo, partitioned) in [
            (1, (1, 1), (1, 1)),
            (2, (1, 1), (1, 1)),
            (4, (2, 1), (1, 1)),
            (8, (3, 2), (3, 2)),
            (1024, (384, 256), (384, 256)),
        ] {
            let mut c = AdaptiveGroupCache::new(geom(n)).unwrap();
            assert_eq!(table_capacities(&mut c), solo, "solo, {n} sets");
            let threads = n.min(2);
            let mut c = AdaptivePartitionedCache::new(geom(n), threads).unwrap().0;
            assert_eq!(
                table_capacities(&mut c),
                partitioned,
                "partitioned, {n} sets"
            );
        }
    }

    #[test]
    fn partitioned_construction() {
        let c = AdaptivePartitionedCache::new(geom(16), 2).unwrap();
        assert_eq!(c.name(), "adaptive_partitioned(2 threads)");
        assert!(AdaptivePartitionedCache::new(geom(16), 0).is_err());
        assert!(AdaptivePartitionedCache::new(geom(16), 3).is_err());
        let two_way = CacheGeometry::from_sets(16, 32, 2).unwrap();
        assert!(AdaptivePartitionedCache::new(two_way, 2).is_err());
    }

    #[test]
    fn partitioned_spills_into_other_partition() {
        let mut c = AdaptivePartitionedCache::new(geom(16), 2).unwrap();
        // Thread 0 hammers two conflicting blocks (both map to its set 0);
        // thread 1 is idle, so its partition is cold.
        c.access(read(0, 0));
        c.access(read(0, 0)); // set 0 hot in SHT
        let r = c.access(read(8, 0)); // conflicts (8 % 8 == 0)
        assert_eq!(r.where_hit, HitWhere::MissAfterProbe);
        assert_eq!(c.out_len(), 1, "victim kept via OUT");
        // The displaced block is recoverable.
        let r = c.access(read(0, 0));
        assert_eq!(r.where_hit, HitWhere::Secondary);
    }

    #[test]
    fn partitioned_threads_cache_the_same_block_privately() {
        let mut c = AdaptivePartitionedCache::new(geom(16), 2).unwrap();
        let s0 = c.access(read(3, 0)).set;
        let s1 = c.access(read(3, 1)).set;
        assert!(s0 < 8 && s1 >= 8);
        assert!(c.access(read(3, 0)).is_hit() && c.access(read(3, 1)).is_hit());
    }

    #[test]
    fn out_of_range_tid_takes_the_last_partition_and_its_tag() {
        let mut c = AdaptivePartitionedCache::new(geom(16), 2).unwrap();
        let r = c.access(read(3, 7));
        assert_eq!((r.where_hit, r.set), (HitWhere::MissDirect, 8 + 3));
        // Thread 1 finds the line thread 7 placed: the tag is clamped too.
        let r = c.access(read(3, 1));
        assert_eq!((r.where_hit, r.set), (HitWhere::Primary, 8 + 3));
    }

    #[test]
    fn partitioned_out_capacity_bounded() {
        let mut c = AdaptivePartitionedCache::new(geom(16), 2).unwrap();
        for b in 0..500u64 {
            c.access(read(b, 0));
            c.access(read(b, 0));
            c.access(read(b + 8, 0));
        }
        assert!(c.out_len() <= 4, "out {}", c.out_len());
    }

    #[test]
    fn partitioned_flush_resets_everything() {
        let mut c = AdaptivePartitionedCache::new(geom(16), 2).unwrap();
        c.access(read(0, 0));
        c.access(read(0, 0));
        c.access(read(8, 0));
        c.flush();
        assert_eq!(c.out_len(), 0);
        assert!(!c.access(read(0, 0)).is_hit());
    }

    #[test]
    fn out_dir_lru_behaviour() {
        let mut out = OutDir::new(2);
        assert_eq!(out.insert((0, 10), 1), None);
        assert_eq!(out.insert((0, 20), 2), None);
        assert_eq!(out.get((0, 10)), Some(1)); // refresh 10
        assert_eq!(out.get((1, 10)), None, "keys are per tag");
        let ev = out.insert((0, 30), 3);
        assert_eq!(ev, Some(((0, 20), 2)), "20 was LRU");
        assert_eq!(out.get((0, 20)), None);
        assert_eq!(out.remove((0, 10)), Some(1));
        assert_eq!(out.len(), 1);
    }
}
