//! The multi-core coherent hierarchy: per-core MESI L1s + write-back
//! victim buffers over a snooping bus, backed by an optional shared
//! inclusive L2.
//!
//! # Determinism
//!
//! The bus serializes transactions in *trace order*: one hierarchy is
//! driven by exactly one executor task, each access runs to completion
//! (snoop -> data source -> fill) before the next record is consumed,
//! and snoops visit cores in ascending index order. Timestamps come from
//! a [`LogicalClock`] — one tick per access, no wallclock — so
//! transcripts are byte-identical across `--jobs 1/2/8` (parallelism
//! only ever spans *different* hierarchy configurations via
//! `unicache_exec::map`). The bounded model checker in [`crate::model`]
//! explores the orderings a real weakly-ordered bus could exhibit and
//! proves the protocol invariants hold on all of them, so fixing one
//! canonical order here loses no correctness.
//!
//! # Counter conservation
//!
//! Every L1 miss is attributed to exactly one data source: a modified
//! owner's intervention, a shared-L2 demand hit, or a memory fetch —
//! `uca check` asserts `misses == interventions + l2_demand_hits +
//! memory_fetches` over replayed traces, in both L2 modes.

use crate::l1::CoherentL1;
use crate::l2::SharedL2;
use crate::mesi::{fill_state, transition, LineEvent, Mesi};
use std::sync::Arc;
use unicache_core::{
    core_routes, AccessResult, BlockAddr, CacheGeometry, CacheStats, CoherentModel, ConfigError,
    HitWhere, IndexFunction, MemRecord, Result, ThreadId,
};
use unicache_obs as obs;
use unicache_sim::VictimBuffer;
use unicache_stats::{LifetimeTotals, RecencyLens};
use unicache_timing::LogicalClock;

/// What backs the per-core L1s.
#[derive(Debug, Clone, Copy)]
pub enum L2Mode {
    /// No shared level: misses fetch straight from memory and dirty
    /// lines are written back to memory. The degenerate shape the
    /// differential suites compare against a solo `Cache`.
    PassThrough,
    /// A shared inclusive L2 of this geometry (modulo-indexed, LRU).
    /// L2 evictions back-invalidate private copies to keep inclusion.
    Shared(CacheGeometry),
}

/// Bus and coherence counters (monotone, deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// BusRd transactions (read misses reaching the bus).
    pub bus_reads: u64,
    /// BusRdX transactions (write misses reaching the bus).
    pub bus_read_x: u64,
    /// BusUpgr transactions (S -> M stores, no data transfer).
    pub bus_upgrades: u64,
    /// Remote copies invalidated by snoops (L1 and victim buffers).
    pub invalidations: u64,
    /// Misses served by a modified owner's flush (cache-to-cache).
    pub interventions: u64,
    /// Modified lines written downstream (snoop flushes, victim-buffer
    /// spills, back-invalidation flushes).
    pub writebacks: u64,
    /// Private copies dropped because the L2 evicted their block.
    pub back_invalidations: u64,
    /// Misses served by the shared L2.
    pub l2_demand_hits: u64,
    /// Misses that went all the way to memory.
    pub memory_fetches: u64,
    /// L1 misses rescued by the core's own victim buffer (no bus
    /// transaction).
    pub victim_hits: u64,
}

impl CoherenceStats {
    /// Total bus transactions.
    pub fn bus_transactions(&self) -> u64 {
        self.bus_reads + self.bus_read_x + self.bus_upgrades
    }

    /// Misses attributed to a data source — conservation demands this
    /// equals the summed per-core miss count.
    pub fn data_sources(&self) -> u64 {
        self.interventions + self.l2_demand_hits + self.memory_fetches
    }
}

struct Core {
    l1: CoherentL1,
    victim: VictimBuffer<Mesi>,
}

/// Builder for a [`CoherentHierarchy`].
pub struct HierarchyBuilder {
    geom: CacheGeometry,
    index: Arc<dyn IndexFunction>,
    cores: usize,
    victim_depth: usize,
    l2: L2Mode,
    name: Option<String>,
    chunked: bool,
}

impl HierarchyBuilder {
    /// All cores use L1s of shape `geom` indexed by `index` (any
    /// registry scheme). Defaults: 1 core, depth-0 victim buffers,
    /// pass-through L2, chunked kernel on.
    pub fn new(geom: CacheGeometry, index: Arc<dyn IndexFunction>) -> Self {
        HierarchyBuilder {
            geom,
            index,
            cores: 1,
            victim_depth: 0,
            l2: L2Mode::PassThrough,
            name: None,
            chunked: true,
        }
    }

    /// Number of cores (>= 1, checked by [`HierarchyBuilder::build`]).
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Victim-buffer depth per core (0 disables the buffers).
    pub fn victim_depth(mut self, depth: usize) -> Self {
        self.victim_depth = depth;
        self
    }

    /// The shared level behind the L1s.
    pub fn l2(mut self, mode: L2Mode) -> Self {
        self.l2 = mode;
        self
    }

    /// Report name override.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Whether `step_chunk` runs the chunked classify/commit kernel
    /// (default) or the per-record MESI walk, the reference that the
    /// differential tests and `uca check` compare the kernel against.
    pub fn chunked(mut self, on: bool) -> Self {
        self.chunked = on;
        self
    }

    /// Builds the hierarchy.
    ///
    /// # Errors
    /// [`ConfigError::OutOfRange`] for zero cores;
    /// [`ConfigError::Mismatch`] if the index function produces more
    /// sets than the L1 has, or a shared L2's line size differs from the
    /// L1's; the L2's own geometry errors.
    pub fn build(self) -> Result<CoherentHierarchy> {
        if self.cores == 0 {
            return Err(ConfigError::OutOfRange {
                what: "cores",
                expected: ">= 1".into(),
                got: 0,
            });
        }
        if self.index.num_sets() > self.geom.num_sets() {
            return Err(ConfigError::Mismatch {
                what: format!(
                    "index function '{}' covers {} sets but the L1 has {}",
                    self.index.name(),
                    self.index.num_sets(),
                    self.geom.num_sets()
                ),
            });
        }
        let l2 = match self.l2 {
            L2Mode::PassThrough => None,
            L2Mode::Shared(g) if g.line_bytes() != self.geom.line_bytes() => {
                return Err(ConfigError::Mismatch {
                    what: format!(
                        "shared L2 line of {} B but the L1's is {} B",
                        g.line_bytes(),
                        self.geom.line_bytes()
                    ),
                });
            }
            L2Mode::Shared(g) => Some(SharedL2::new(g)?),
        };
        let cores = (0..self.cores)
            .map(|_| Core {
                l1: CoherentL1::new(self.geom, Arc::clone(&self.index)),
                victim: VictimBuffer::new(self.victim_depth),
            })
            .collect();
        let name = self.name.unwrap_or_else(|| {
            format!(
                "coherent({} cores, victim {}, {})",
                self.cores,
                self.victim_depth,
                if l2.is_some() {
                    "shared L2"
                } else {
                    "pass-through"
                }
            )
        });
        Ok(CoherentHierarchy {
            cores,
            l2,
            victim_depth: self.victim_depth,
            clock: LogicalClock::new(),
            coh: CoherenceStats::default(),
            name,
            index: self.index,
            routes: core_routes(self.cores),
            sets: Vec::new(),
            chunked: self.chunked,
            fast_commits: 0,
            serial_commits: 0,
        })
    }
}

/// See the module docs for the protocol and determinism story.
pub struct CoherentHierarchy {
    cores: Vec<Core>,
    l2: Option<SharedL2>,
    victim_depth: usize,
    clock: LogicalClock,
    coh: CoherenceStats,
    name: String,
    /// The (shared) index function, kept for the chunked kernel's
    /// batched `index_many` — every core's L1 holds a clone of it, so a
    /// block's set number is core-independent.
    index: Arc<dyn IndexFunction>,
    /// Serving core of each thread id (`tid % cores`), built once so the
    /// chunk kernel routes a record with a load instead of a division.
    routes: [u8; 256],
    /// The chunk kernel's set-index scratch: one chunk's `index_many`
    /// output, reused by every chunk of the hierarchy's life.
    sets: Vec<usize>,
    /// Whether `step_chunk` runs the classify/commit kernel (see
    /// [`HierarchyBuilder::chunked`]).
    chunked: bool,
    fast_commits: u64,
    serial_commits: u64,
}

struct SnoopOutcome {
    /// A modified copy was found (and flushed): it supplies the data.
    had_owner: bool,
    /// At least one remote valid copy survives the snoop.
    sharers_remain: bool,
}

impl CoherentHierarchy {
    /// Coherence and bus counters.
    pub fn coherence_stats(&self) -> &CoherenceStats {
        &self.coh
    }

    /// One core's private L1 (invariant checks and lenses).
    pub fn l1(&self, core: usize) -> &CoherentL1 {
        &self.cores[core].l1
    }

    /// One core's victim buffer.
    pub fn victim_buffer(&self, core: usize) -> &VictimBuffer<Mesi> {
        &self.cores[core].victim
    }

    /// Configured per-core victim-buffer depth.
    pub fn victim_depth(&self) -> usize {
        self.victim_depth
    }

    /// Hits committed by the chunked private-line fast path (zero bus
    /// bookkeeping). `fast_path_commits + serial_path_commits` equals
    /// total accesses — `uca check` pins this conservation down.
    pub fn fast_path_commits(&self) -> u64 {
        self.fast_commits
    }

    /// Accesses that took the exact serial MESI path (misses, shared or
    /// unclassified state, and every access when chunking is off).
    pub fn serial_path_commits(&self) -> u64 {
        self.serial_commits
    }

    /// Current logical tick (== accesses simulated since flush).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Dead-time/live-time totals summed over every core's L1, with
    /// still-open generations closed at the current tick.
    pub fn merged_lifetime(&self) -> LifetimeTotals {
        let now = self.clock.now();
        let mut t = LifetimeTotals::default();
        for c in &self.cores {
            let ct = c.l1.lifetime(now);
            t.live += ct.live;
            t.dead += ct.dead;
            t.generations += ct.generations;
        }
        t
    }

    /// MRU-hit lens merged over every core's L1 (commutative merge).
    pub fn merged_recency(&self) -> RecencyLens {
        let mut merged = RecencyLens::new(self.geometry().ways() as usize);
        for c in &self.cores {
            merged.merge(c.l1.recency());
        }
        merged
    }

    /// Broadcasts `block` on the bus: every other core downgrades
    /// (BusRd) or invalidates (BusRdX/BusUpgr) its copy; a modified
    /// owner flushes first. Cores are visited in ascending index order —
    /// the canonical event order the determinism argument relies on.
    fn snoop(
        &mut self,
        requester: usize,
        block: BlockAddr,
        set: usize,
        exclusive: bool,
        now: u64,
    ) -> SnoopOutcome {
        let mut out = SnoopOutcome {
            had_owner: false,
            sharers_remain: false,
        };
        for c in 0..self.cores.len() {
            if c == requester {
                continue;
            }
            // The index function is shared, so the requester's set
            // number is every peer's set number — no per-core index
            // recomputation on the bus.
            if let Some((way, st)) = self.cores[c].l1.peek(set, block) {
                let ev = if exclusive {
                    LineEvent::SnoopWrite
                } else {
                    LineEvent::SnoopRead
                };
                if let Some(t) = transition(st, ev) {
                    if t.flush {
                        out.had_owner = true;
                        self.l2_writeback(block, now);
                    }
                    if t.next.is_valid() {
                        self.cores[c].l1.set_state(set, way, t.next);
                        out.sharers_remain = true;
                    } else {
                        self.cores[c].l1.invalidate_at(set, block, now);
                        self.coh.invalidations += 1;
                        obs::count(obs::Event::CohInvalidation);
                    }
                }
            } else if let Some(&st) = self.cores[c].victim.payload(block) {
                // Victim buffers snoop too — a buffered copy is still a
                // coherent copy.
                if exclusive {
                    self.cores[c].victim.take(block);
                    self.coh.invalidations += 1;
                    obs::count(obs::Event::CohInvalidation);
                    if st.is_dirty() {
                        out.had_owner = true;
                        self.l2_writeback(block, now);
                    }
                } else {
                    if st.is_dirty() {
                        out.had_owner = true;
                        self.l2_writeback(block, now);
                    }
                    if let Some(p) = self.cores[c].victim.payload_mut(block) {
                        *p = Mesi::Shared;
                    }
                    out.sharers_remain = true;
                }
            }
        }
        out
    }

    /// Writes a modified line downstream: into the shared L2 (which may
    /// evict and back-invalidate) or, pass-through, straight to memory.
    fn l2_writeback(&mut self, block: BlockAddr, now: u64) {
        self.coh.writebacks += 1;
        obs::count(obs::Event::CohWriteback);
        if let Some(l2) = self.l2.as_mut() {
            let r = l2.access_block(block, true);
            if let Some(evicted) = r.evicted {
                self.back_invalidate(evicted, now);
            }
        }
    }

    /// Fetches demand data for a miss no owner supplied: shared-L2 hit
    /// or memory. The L2 fill enforcing inclusion may evict another
    /// block, whose private copies are then back-invalidated.
    fn demand_fetch(&mut self, block: BlockAddr, now: u64) {
        if let Some(l2) = self.l2.as_mut() {
            let r = l2.access_block(block, false);
            if r.hit {
                self.coh.l2_demand_hits += 1;
            } else {
                self.coh.memory_fetches += 1;
                if let Some(evicted) = r.evicted {
                    self.back_invalidate(evicted, now);
                }
            }
        } else {
            self.coh.memory_fetches += 1;
        }
    }

    /// Inclusion enforcement: the L2 evicted `block`, so no private
    /// cache may keep it. Dirty copies go straight to memory (the line
    /// just left the L2).
    fn back_invalidate(&mut self, block: BlockAddr, now: u64) {
        let set = self.index.index_block(block);
        for c in 0..self.cores.len() {
            if let Some(st) = self.cores[c].l1.invalidate_at(set, block, now) {
                self.coh.back_invalidations += 1;
                obs::count(obs::Event::CohBackInvalidation);
                if st.is_dirty() {
                    self.coh.writebacks += 1;
                    obs::count(obs::Event::CohWriteback);
                }
            }
            if let Some(st) = self.cores[c].victim.take(block) {
                self.coh.back_invalidations += 1;
                obs::count(obs::Event::CohBackInvalidation);
                if st.is_dirty() {
                    self.coh.writebacks += 1;
                    obs::count(obs::Event::CohWriteback);
                }
            }
        }
    }

    /// An L1 evictee enters the core's victim buffer; whatever the
    /// buffer spills (the evictee itself at depth 0) is written back if
    /// modified, silently dropped if clean.
    fn stash_victim(&mut self, core: usize, block: BlockAddr, state: Mesi, now: u64) {
        if let Some((spilled, st)) = self.cores[core].victim.insert(block, state) {
            if st.is_dirty() {
                self.l2_writeback(spilled, now);
            }
        }
    }

    /// Processes one tagged chunk: `blocks[i]`, `writes[i]` and `tids[i]`
    /// describe record `i`, in the form `unicache_smt::run_interleaved`
    /// streams, and the thread-to-core table routes each thread id to
    /// its core. With chunking off this is the plain per-record loop;
    /// with it on, the single-pass fused kernel of DESIGN §16 runs: one
    /// batched `index_many` for the whole chunk into the hierarchy's set
    /// scratch, then one commit loop, picked once per chunk by the L1's
    /// associativity (`commit_chunk`), and the clock advanced once by
    /// the chunk's length. Byte-identical either way.
    ///
    /// # Panics
    /// If `writes` or `tids` differ in length from `blocks`.
    pub fn step_chunk(&mut self, blocks: &[BlockAddr], writes: &[bool], tids: &[ThreadId]) {
        let n = blocks.len();
        assert!(
            writes.len() == n && tids.len() == n,
            "step_chunk: chunk slices differ in length"
        );
        if !self.chunked {
            for ((&block, &is_write), &t) in blocks.iter().zip(writes).zip(tids) {
                self.access(usize::from(self.routes[usize::from(t)]), block, is_write);
            }
            return;
        }
        let mut sets = std::mem::take(&mut self.sets);
        sets.resize(n, 0);
        // One batched index computation serves every core: the index
        // function is shared, so set numbers are core-independent.
        self.index.index_many(blocks, &mut sets);
        // Every coherent L1 the sweep and the benchmarks build is 2-way;
        // any other associativity takes the runtime-ways instance.
        let fast = match self.geometry().ways() {
            2 => self.commit_chunk::<2>(blocks, writes, tids, &sets),
            _ => self.commit_chunk::<0>(blocks, writes, tids, &sets),
        };
        self.sets = sets;
        self.clock.advance(n as u64);
        self.fast_commits += fast;
    }

    /// The chunk's commit loop for `W`-way L1s (`W = 0`: read the
    /// ways at run time). Record `i` runs at tick `start + i + 1`, the
    /// tick the per-record path's `clock.tick()` would hand it; nothing
    /// below reads the clock, so the caller advances it once afterwards.
    /// Every record, in trace order, tries the serving L1's fast path
    /// ([`CoherentL1::try_fast_commit`], classified *inline, against
    /// current state*), and anything it refuses takes the exact serial
    /// MESI walk with its set already computed. Because classification
    /// happens at commit time there is no stale verdict and nothing to
    /// track between records. Returns the fast-path commits.
    fn commit_chunk<const W: usize>(
        &mut self,
        blocks: &[BlockAddr],
        writes: &[bool],
        tids: &[ThreadId],
        sets: &[usize],
    ) -> u64 {
        let start = self.clock.now();
        let mut fast = 0;
        for (i, (((&block, &is_write), &t), &set)) in
            blocks.iter().zip(writes).zip(tids).zip(sets).enumerate()
        {
            let core = usize::from(self.routes[usize::from(t)]);
            let now = start + i as u64 + 1;
            if self.cores[core]
                .l1
                .try_fast_commit::<W>(set, block, is_write, now)
            {
                fast += 1;
            } else {
                self.access_at(core, set, block, is_write, now);
            }
        }
        fast
    }

    /// The exact serial MESI walk at tick `now` with the L1 set already
    /// computed — the shared tail of [`CoherentModel::access`] and the
    /// chunked kernel's fallback (which batch-computes sets via
    /// `index_many`).
    fn access_at(
        &mut self,
        core: usize,
        set: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
    ) -> AccessResult {
        self.serial_commits += 1;
        if is_write {
            self.cores[core].l1.stats_mut().record_write();
        }

        // L1 hit: local transition; a store to a Shared copy needs a
        // BusUpgr to kill the other copies first.
        if let Some(way) = self.cores[core].l1.lookup(set, block, now) {
            let st = self.cores[core].l1.state(set, way);
            let ev = if is_write {
                LineEvent::StoreHit
            } else {
                LineEvent::LoadHit
            };
            if let Some(t) = transition(st, ev) {
                if t.bus_upgrade {
                    self.coh.bus_upgrades += 1;
                    obs::count(obs::Event::CohBusUpgrade);
                    self.snoop(core, block, set, true, now);
                }
                if t.next != st {
                    self.cores[core].l1.set_state(set, way, t.next);
                }
            }
            self.cores[core]
                .l1
                .stats_mut()
                .record(set, HitWhere::Primary);
            return AccessResult {
                where_hit: HitWhere::Primary,
                set,
                evicted: None,
            };
        }

        // Own victim buffer: swap the line back without bus traffic
        // (a store still upgrades a Shared rescue over the bus). The
        // is_empty pre-check skips the probe outright for depth-0
        // hierarchies — the common case on the chunked serial tail.
        let rescued = if self.cores[core].victim.is_empty() {
            None
        } else {
            self.cores[core].victim.take(block)
        };
        if let Some(st) = rescued {
            self.coh.victim_hits += 1;
            obs::count(obs::Event::CohVictimHit);
            let st = if is_write {
                if st == Mesi::Shared {
                    self.coh.bus_upgrades += 1;
                    obs::count(obs::Event::CohBusUpgrade);
                    self.snoop(core, block, set, true, now);
                }
                Mesi::Modified
            } else {
                st
            };
            if let Some((evb, evst)) = self.cores[core].l1.fill(set, block, st, now) {
                self.stash_victim(core, evb, evst, now);
            }
            let stats = self.cores[core].l1.stats_mut();
            stats.record(set, HitWhere::Secondary);
            stats.record_relocation();
            return AccessResult {
                where_hit: HitWhere::Secondary,
                set,
                evicted: None,
            };
        }

        // Full miss: one bus transaction, one data source.
        if is_write {
            self.coh.bus_read_x += 1;
            obs::count(obs::Event::CohBusReadX);
        } else {
            self.coh.bus_reads += 1;
            obs::count(obs::Event::CohBusRead);
        }
        let outcome = self.snoop(core, block, set, is_write, now);
        if outcome.had_owner {
            self.coh.interventions += 1;
            obs::count(obs::Event::CohIntervention);
        } else {
            self.demand_fetch(block, now);
        }
        let state = if is_write {
            Mesi::Modified
        } else {
            fill_state(false, outcome.sharers_remain)
        };
        // With victim buffers the miss also probed the buffer (extra
        // latency class, mirroring `VictimCache`); without, it is the
        // plain direct miss a solo cache records.
        let kind = if self.victim_depth > 0 {
            HitWhere::MissAfterProbe
        } else {
            HitWhere::MissDirect
        };
        self.cores[core].l1.stats_mut().record(set, kind);
        let mut evicted_block = None;
        if let Some((evb, evst)) = self.cores[core].l1.fill(set, block, state, now) {
            self.cores[core].l1.stats_mut().record_eviction(set);
            evicted_block = Some(evb);
            self.stash_victim(core, evb, evst, now);
        }
        AccessResult {
            where_hit: kind,
            set,
            evicted: evicted_block,
        }
    }
}

impl CoherentModel for CoherentHierarchy {
    fn cores(&self) -> usize {
        self.cores.len()
    }

    fn geometry(&self) -> CacheGeometry {
        self.cores[0].l1.geometry()
    }

    fn access(&mut self, core: usize, block: BlockAddr, is_write: bool) -> AccessResult {
        let set = self.cores[core].l1.set_of(block);
        let now = self.clock.tick();
        self.access_at(core, set, block, is_write, now)
    }

    /// Routes the whole trace through the chunked kernel (decode each
    /// chunk, classify, commit) — or, with chunking resolved off,
    /// through a loop byte-identical to the trait's per-record default.
    fn run(&mut self, trace: &[MemRecord]) {
        crate::chunk::run_coherent_fused(&mut [self], trace);
    }

    fn core_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1.stats()
    }

    fn shared_stats(&self) -> Option<&CacheStats> {
        self.l2.as_ref().map(|c| c.stats())
    }

    fn flush(&mut self) {
        for c in &mut self.cores {
            c.l1.flush();
            c.victim.flush();
        }
        if let Some(l2) = self.l2.as_mut() {
            l2.flush();
        }
        self.clock.reset();
        self.coh = CoherenceStats::default();
        self.fast_commits = 0;
        self.serial_commits = 0;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::MemRecord;
    use unicache_indexing::ModuloIndex;

    fn geom() -> CacheGeometry {
        CacheGeometry::from_sets(8, 32, 1).unwrap()
    }

    fn build(cores: usize, victim: usize, l2: L2Mode) -> CoherentHierarchy {
        let idx = Arc::new(ModuloIndex::new(8).unwrap());
        HierarchyBuilder::new(geom(), idx)
            .cores(cores)
            .victim_depth(victim)
            .l2(l2)
            .build()
            .unwrap()
    }

    #[test]
    fn read_sharing_then_write_invalidates() {
        let mut h = build(2, 0, L2Mode::PassThrough);
        // Both cores read block 0: first E, second downgrades to S.
        h.access(0, 0, false);
        h.access(1, 0, false);
        assert_eq!(h.l1(0).peek(0, 0).unwrap().1, Mesi::Shared);
        assert_eq!(h.l1(1).peek(0, 0).unwrap().1, Mesi::Shared);
        // Core 0 writes: BusUpgr kills core 1's copy.
        h.access(0, 0, true);
        assert_eq!(h.l1(0).peek(0, 0).unwrap().1, Mesi::Modified);
        assert!(h.l1(1).peek(0, 0).is_none());
        let c = h.coherence_stats();
        assert_eq!(c.bus_upgrades, 1);
        assert_eq!(c.invalidations, 1);
    }

    #[test]
    fn modified_owner_intervenes_on_remote_read() {
        let mut h = build(2, 0, L2Mode::PassThrough);
        h.access(0, 0, true); // core 0 owns M
        let r = h.access(1, 0, false); // core 1 read: owner flushes, both S
        assert!(!r.is_hit());
        assert_eq!(h.l1(0).peek(0, 0).unwrap().1, Mesi::Shared);
        assert_eq!(h.l1(1).peek(0, 0).unwrap().1, Mesi::Shared);
        let c = h.coherence_stats();
        assert_eq!(c.interventions, 1);
        assert_eq!(c.writebacks, 1);
        // The intervention, not memory, supplied the data.
        assert_eq!(c.memory_fetches, 1); // only core 0's original miss
    }

    #[test]
    fn miss_attribution_is_conserved() {
        let mut h = build(
            4,
            2,
            L2Mode::Shared(CacheGeometry::from_sets(32, 32, 4).unwrap()),
        );
        let recs: Vec<MemRecord> = (0..2000u64)
            .map(|i| {
                let addr = (i * 7919) % 4096 * 32;
                let r = MemRecord::read(addr).with_tid((i % 4) as u8);
                if i % 3 == 0 {
                    MemRecord::write(addr).with_tid((i % 4) as u8)
                } else {
                    r
                }
            })
            .collect();
        h.run(&recs);
        let misses: u64 = (0..4).map(|c| h.core_stats(c).misses()).sum();
        let coh = h.coherence_stats();
        assert_eq!(misses, coh.data_sources(), "every miss has one source");
        assert_eq!(misses, coh.bus_reads + coh.bus_read_x);
        let secondary: u64 = (0..4).map(|c| h.core_stats(c).secondary_hits).sum();
        assert_eq!(secondary, coh.victim_hits);
    }

    #[test]
    fn victim_buffer_rescues_conflicts() {
        let mut h = build(1, 4, L2Mode::PassThrough);
        // Two blocks conflicting in set 0 of a direct-mapped L1.
        h.access(0, 0, false);
        h.access(0, 8, false);
        let r = h.access(0, 0, false);
        assert_eq!(r.where_hit, HitWhere::Secondary);
        assert_eq!(h.coherence_stats().victim_hits, 1);
    }

    #[test]
    fn dirty_victim_spill_writes_back() {
        let mut h = build(1, 1, L2Mode::PassThrough);
        h.access(0, 0, true); // M
        h.access(0, 8, false); // evicts 0 (M) into buffer
        h.access(0, 16, false); // evicts 8 into buffer, spills 0 -> writeback
        assert_eq!(h.coherence_stats().writebacks, 1);
    }

    #[test]
    fn inclusion_back_invalidates_on_l2_eviction() {
        // Tiny L2: 1 set, 1 way — any second distinct block evicts the first.
        let l2 = CacheGeometry::from_sets(1, 32, 1).unwrap();
        let mut h = build(2, 0, L2Mode::Shared(l2));
        h.access(0, 0, false); // L2 now holds 0
        h.access(1, 8, false); // L2 fill of 8 evicts 0 -> core 0 loses it
        assert!(h.l1(0).peek(0, 0).is_none(), "inclusion must drop the copy");
        assert!(h.coherence_stats().back_invalidations >= 1);
    }

    #[test]
    fn merged_stats_and_lenses_accumulate() {
        let mut h = build(2, 1, L2Mode::PassThrough);
        for i in 0..100u64 {
            h.access((i % 2) as usize, i % 16, i % 5 == 0);
        }
        let merged = h.merged_core_stats();
        assert_eq!(merged.accesses(), 100);
        let lt = h.merged_lifetime();
        assert!(lt.generations > 0);
        assert_eq!(lt.resident(), lt.live + lt.dead);
        let rec = h.merged_recency();
        let hits: u64 = (0..2).map(|c| h.core_stats(c).primary_hits).sum();
        assert_eq!(rec.hits(), hits);
    }

    #[test]
    fn flush_resets_all_levels() {
        let mut h = build(
            2,
            2,
            L2Mode::Shared(CacheGeometry::from_sets(16, 32, 2).unwrap()),
        );
        for i in 0..50u64 {
            h.access((i % 2) as usize, i % 12, true);
        }
        h.flush();
        assert_eq!(h.now(), 0);
        assert_eq!(h.coherence_stats(), &CoherenceStats::default());
        assert_eq!(h.merged_core_stats().accesses(), 0);
        assert!(h.shared_stats().unwrap().accesses() == 0);
    }

    #[test]
    fn build_rejects_index_wider_than_l1() {
        let idx = Arc::new(unicache_indexing::XorIndex::new(1024).unwrap());
        let r = HierarchyBuilder::new(geom(), idx).build();
        assert!(matches!(r, Err(ConfigError::Mismatch { .. })));
    }

    #[test]
    fn build_rejects_l2_line_size_mismatch() {
        let idx = Arc::new(ModuloIndex::new(8).unwrap());
        let l2 = CacheGeometry::from_sets(64, 64, 4).unwrap();
        let r = HierarchyBuilder::new(geom(), idx)
            .l2(L2Mode::Shared(l2))
            .build();
        assert!(matches!(r, Err(ConfigError::Mismatch { .. })));
    }

    #[test]
    fn build_rejects_zero_cores() {
        let idx = Arc::new(ModuloIndex::new(8).unwrap());
        let r = HierarchyBuilder::new(geom(), idx).cores(0).build();
        assert!(matches!(
            r,
            Err(ConfigError::OutOfRange {
                what: "cores",
                got: 0,
                ..
            })
        ));
    }

    #[test]
    fn run_routes_by_tid() {
        let mut h = build(2, 0, L2Mode::PassThrough);
        let recs = vec![
            MemRecord::read(0).with_tid(0),
            MemRecord::read(0).with_tid(1),
            MemRecord::read(0).with_tid(2), // wraps to core 0
        ];
        h.run(&recs);
        assert_eq!(h.core_stats(0).accesses(), 2);
        assert_eq!(h.core_stats(1).accesses(), 1);
    }
}
