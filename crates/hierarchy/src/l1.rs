//! A per-core private L1 with MESI state per line.
//!
//! Replacement is LRU with the exact victim-selection rule of
//! `unicache_sim::CacheSet` (first invalid way, else the least recently
//! touched way), so a 1-core hierarchy with a pass-through L2 and a
//! depth-0 victim buffer reproduces the solo `Cache` hit/miss sequence
//! byte for byte — the differential suite in
//! `tests/hierarchy_equivalence.rs` pins this down across every registry
//! index scheme.
//!
//! Line state is packed per way: tag, MESI state *and* the open
//! dead-time generation live in one 32-byte `WaySlot`, so a 2-way set —
//! the coherent sweep's geometry — spans a single host cache line. A hit
//! (the chunked kernel's fast path, DESIGN §16) touches that line and
//! two small histograms, and nothing else; the SoA split this replaced
//! scattered the same state over five arrays and cost a host-cache
//! touch per array.
//!
//! LRU order is read from the hierarchy's logical tick: every touch
//! (fill, serial hit, fast-path commit) sets the slot's `last_touch` to
//! the access's tick, and ticks strictly increase from one access to the
//! next, so ordering a set's valid ways by `last_touch` is the order a
//! per-set LRU clock would give. The same tick closes the dead-time
//! lens, so recency costs no field of its own.
//!
//! The L1 also feeds the two hierarchy uniformity lenses: every fill /
//! touch / eviction updates the dead-time/live-time accounting
//! (reported as [`LifetimeTotals`], embedded here slot-by-slot), and
//! every hit records the recency rank of the serving way
//! ([`RecencyLens`]).

use crate::mesi::Mesi;
use std::sync::Arc;
use unicache_core::{BlockAddr, CacheGeometry, CacheStats, HitWhere, IndexFunction};
use unicache_stats::{LifetimeTotals, RecencyLens};

/// One way's complete hot state in 32 bytes. `repr(align(32))` keeps a
/// slot inside one host cache line and a 2-way set inside one line
/// whenever the slot array is line-aligned; the lifetime-generation
/// fields ride along so a touch costs no extra line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct WaySlot {
    block: BlockAddr,
    /// Tick of the fill that opened the current generation
    /// (meaningful only while `state` is valid).
    fill_at: u64,
    /// Tick of the generation's last touch; also the LRU key.
    last_touch: u64,
    state: Mesi,
}

impl WaySlot {
    const EMPTY: WaySlot = WaySlot {
        block: 0,
        fill_at: 0,
        last_touch: 0,
        state: Mesi::Invalid,
    };
}

// Two slots per 64-byte host line; a field change that grows the slot
// fails the build.
const _: () =
    assert!(std::mem::size_of::<WaySlot>() == 32 && std::mem::align_of::<WaySlot>() == 32);

/// Recency rank of `way` among one set's slots: how many valid ways
/// were used more recently (0 = MRU). The slots were just scanned by
/// the probe that found `way`, so this re-walk stays in host cache.
#[inline]
fn rank_in(set_slots: &[WaySlot], way: usize) -> usize {
    let mine = set_slots[way].last_touch;
    set_slots
        .iter()
        .filter(|s| s.state.is_valid() & (s.last_touch > mine))
        .count()
}

/// One core's private cache: `num_sets x ways` MESI lines indexed by any
/// registry [`IndexFunction`]. Storage is one array of packed 32-byte
/// way slots (`set * ways + way`).
pub struct CoherentL1 {
    geom: CacheGeometry,
    index: Arc<dyn IndexFunction>,
    ways: usize,
    slots: Vec<WaySlot>,
    stats: CacheStats,
    /// Dead/live totals over *closed* generations; open ones live in
    /// the slots and are folded in by [`CoherentL1::lifetime`]. A slot's
    /// generation is open iff its state is valid — fills open (closing
    /// the victim's), evictions and invalidations close.
    closed: LifetimeTotals,
    recency: RecencyLens,
}

impl CoherentL1 {
    /// An empty L1 of the given shape.
    pub fn new(geom: CacheGeometry, index: Arc<dyn IndexFunction>) -> Self {
        let sets = geom.num_sets();
        let ways = geom.ways() as usize;
        CoherentL1 {
            geom,
            index,
            ways,
            slots: vec![WaySlot::EMPTY; sets * ways],
            stats: CacheStats::new(sets),
            closed: LifetimeTotals::default(),
            recency: RecencyLens::new(ways),
        }
    }

    /// The cache shape.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The set `block` maps to under this core's index scheme.
    #[inline]
    pub fn set_of(&self, block: BlockAddr) -> usize {
        self.index.index_block(block)
    }

    /// Closes `slot`'s open generation at tick `now` (caller guarantees
    /// the slot is valid, i.e. a generation is open).
    #[inline]
    fn close_generation(&mut self, slot: usize, now: u64) {
        let s = &self.slots[slot];
        self.closed.live += s.last_touch - s.fill_at;
        self.closed.dead += now.saturating_sub(s.last_touch);
        self.closed.generations += 1;
    }

    /// Non-mutating probe: the way and state of `block` if resident.
    pub fn peek(&self, set: usize, block: BlockAddr) -> Option<(usize, Mesi)> {
        let base = set * self.ways;
        (0..self.ways).find_map(|w| {
            let s = &self.slots[base + w];
            (s.state.is_valid() && s.block == block).then_some((w, s.state))
        })
    }

    /// The chunked kernel's fast path (DESIGN §16): commits the access
    /// in place and returns `true` if `block` is resident *and* the
    /// access provably needs no bus traffic; otherwise changes nothing
    /// and returns `false`, and the access takes the serial MESI walk.
    /// A load hits in any valid state (LoadHit MESI transitions are the
    /// identity); a store needs the line core-private (Exclusive or
    /// Modified — SWMR guarantees no other copy), because a store hit on
    /// Shared raises BusUpgr.
    ///
    /// `W` is the associativity the caller resolved once per chunk, or
    /// 0 for "read `self.ways`": with `W > 0` the set is a fixed-length
    /// `[WaySlot; W]` view, so the hit select and the recency rank
    /// unroll. The set is probed once: the hit way is picked by a
    /// branch-free select over the set's slots (a block is resident in
    /// at most one way), and the commit reproduces the serial hit
    /// exactly — recency rank before refresh, `last_touch`, the silent
    /// Exclusive → Modified upgrade, and the per-set Primary record.
    /// Byte-identical to `lookup` + `transition` + `set_state` + the
    /// hierarchy's stats record on the serial path. Emits no obs events
    /// — neither does the serial hit path, so metrics stay identical.
    #[inline(always)]
    pub(crate) fn try_fast_commit<const W: usize>(
        &mut self,
        set: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
    ) -> bool {
        debug_assert!(W == 0 || W == self.ways, "kernel resolved the wrong ways");
        let slots: &mut [WaySlot] = if W == 0 {
            let base = set * self.ways;
            &mut self.slots[base..base + self.ways]
        } else {
            let Some(view) = self.slots[set * W..].first_chunk_mut::<W>() else {
                return false;
            };
            view
        };
        // A block sits in at most one way, so OR-ing in `way + 1` of the
        // matching way selects it (0: none) with no branch on which way
        // matched; one bounds check then tells a hit from a miss.
        let mut hit = 0;
        for (w, s) in slots.iter().enumerate() {
            let matches = s.state.is_valid() & (s.block == block);
            hit |= (w + 1) * usize::from(matches);
        }
        let hit = hit.wrapping_sub(1);
        let Some(s) = slots.get(hit) else {
            return false;
        };
        if is_write && !matches!(s.state, Mesi::Exclusive | Mesi::Modified) {
            return false;
        }
        self.recency.record(rank_in(slots, hit));
        let s = &mut slots[hit];
        debug_assert!(s.last_touch < now, "ticks must strictly increase");
        s.last_touch = now;
        if is_write {
            s.state = Mesi::Modified;
        }
        self.stats.record_writes(u64::from(is_write));
        self.stats.record(set, HitWhere::Primary);
        true
    }

    /// A demand lookup at tick `now` (greater than every earlier touch):
    /// on a hit, records the serving way's recency rank and makes it the
    /// set's MRU way, extending the line's live time. Returns the hit
    /// way.
    pub fn lookup(&mut self, set: usize, block: BlockAddr, now: u64) -> Option<usize> {
        let (way, _) = self.peek(set, block)?;
        // Rank before refresh: how many valid ways of the set were used
        // more recently than the serving one (0 = MRU).
        let base = set * self.ways;
        let rank = rank_in(&self.slots[base..base + self.ways], way);
        self.recency.record(rank);
        let s = &mut self.slots[base + way];
        debug_assert!(s.last_touch < now, "ticks must strictly increase");
        s.last_touch = now;
        Some(way)
    }

    /// The MESI state of a resident way.
    pub fn state(&self, set: usize, way: usize) -> Mesi {
        self.slots[set * self.ways + way].state
    }

    /// Rewrites the MESI state of a resident way (local upgrades and
    /// snoop downgrades; invalidation goes through
    /// [`CoherentL1::invalidate`] so the lifetime lens sees the removal).
    pub fn set_state(&mut self, set: usize, way: usize, state: Mesi) {
        debug_assert!(state.is_valid(), "use invalidate() to drop a line");
        let slot = set * self.ways + way;
        debug_assert!(self.slots[slot].state.is_valid());
        self.slots[slot].state = state;
    }

    /// Installs `block` in `state` at tick `now`, evicting the LRU way
    /// if the set is full. Returns the evicted line, if any.
    pub fn fill(
        &mut self,
        set: usize,
        block: BlockAddr,
        state: Mesi,
        now: u64,
    ) -> Option<(BlockAddr, Mesi)> {
        let base = set * self.ways;
        // CacheSet::victim_way(): first invalid way, else the least
        // recently touched (first index on the unreachable tie).
        let mut way = 0;
        let mut evicted = None;
        let mut found_invalid = false;
        for w in 0..self.ways {
            if !self.slots[base + w].state.is_valid() {
                way = w;
                found_invalid = true;
                break;
            }
        }
        if !found_invalid {
            for w in 1..self.ways {
                if self.slots[base + w].last_touch < self.slots[base + way].last_touch {
                    way = w;
                }
            }
            let v = &self.slots[base + way];
            evicted = Some((v.block, v.state));
            self.close_generation(base + way, now);
        }
        self.slots[base + way] = WaySlot {
            block,
            fill_at: now,
            last_touch: now,
            state,
        };
        evicted
    }

    /// Drops `block` if resident (snoop invalidation / back-invalidation),
    /// returning the state it held.
    pub fn invalidate(&mut self, block: BlockAddr, now: u64) -> Option<Mesi> {
        let set = self.set_of(block);
        self.invalidate_at(set, block, now)
    }

    /// [`invalidate`](Self::invalidate) with the set already computed —
    /// the index function is shared across cores, so a snoop initiator's
    /// set number is valid for every peer and need not be re-derived.
    pub(crate) fn invalidate_at(&mut self, set: usize, block: BlockAddr, now: u64) -> Option<Mesi> {
        let (way, state) = self.peek(set, block)?;
        let slot = set * self.ways + way;
        self.close_generation(slot, now);
        self.slots[slot].state = Mesi::Invalid;
        Some(state)
    }

    /// Every resident line as `(block, state)` (invariant checks).
    pub fn resident(&self) -> impl Iterator<Item = (BlockAddr, Mesi)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.state.is_valid())
            .map(|s| (s.block, s.state))
    }

    /// Per-set hit/miss counters (recorded by the hierarchy, which knows
    /// where each access was ultimately satisfied).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable counters for the owning hierarchy.
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// The dead-time/live-time lens, closed at tick `now`: totals over
    /// closed generations plus every open one (valid slot) as if it
    /// were evicted at `now`.
    pub fn lifetime(&self, now: u64) -> LifetimeTotals {
        let mut t = self.closed;
        for s in self.slots.iter().filter(|s| s.state.is_valid()) {
            t.live += s.last_touch - s.fill_at;
            t.dead += now.saturating_sub(s.last_touch);
            t.generations += 1;
        }
        t
    }

    /// The MRU-hit lens.
    pub fn recency(&self) -> &RecencyLens {
        &self.recency
    }

    /// Invalidates everything and clears stats and lenses.
    pub fn flush(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = WaySlot::EMPTY);
        self.stats.reset();
        self.closed = LifetimeTotals::default();
        self.recency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_indexing::ModuloIndex;

    fn l1(sets: usize, ways: u32) -> CoherentL1 {
        let geom = CacheGeometry::from_sets(sets, 32, ways).unwrap();
        CoherentL1::new(geom, Arc::new(ModuloIndex::new(sets).unwrap()))
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut c = l1(4, 2);
        let set = c.set_of(5);
        assert_eq!(set, 1);
        assert!(c.lookup(set, 5, 1).is_none());
        assert_eq!(c.fill(set, 5, Mesi::Exclusive, 2), None);
        assert_eq!(c.lookup(set, 5, 3), Some(0));
        assert_eq!(c.state(set, 0), Mesi::Exclusive);
    }

    #[test]
    fn lru_eviction_matches_cacheset_rule() {
        let mut c = l1(1, 2);
        c.fill(0, 10, Mesi::Exclusive, 1);
        c.fill(0, 20, Mesi::Exclusive, 2);
        // Touch 10 so 20 becomes LRU.
        c.lookup(0, 10, 3);
        let ev = c.fill(0, 30, Mesi::Modified, 4);
        assert_eq!(ev, Some((20, Mesi::Exclusive)));
        assert!(c.peek(0, 10).is_some());
        assert!(c.peek(0, 30).is_some());
    }

    #[test]
    fn invalidate_removes_and_reports_state() {
        let mut c = l1(2, 1);
        let set = c.set_of(6);
        c.fill(set, 6, Mesi::Modified, 1);
        assert_eq!(c.invalidate(6, 2), Some(Mesi::Modified));
        assert_eq!(c.invalidate(6, 3), None);
        assert!(c.lookup(set, 6, 4).is_none());
    }

    #[test]
    fn recency_ranks_distinguish_mru_from_lru() {
        let mut c = l1(1, 2);
        c.fill(0, 1, Mesi::Exclusive, 1);
        c.fill(0, 2, Mesi::Exclusive, 2);
        c.lookup(0, 2, 3); // 2 is MRU: rank 0
        c.lookup(0, 1, 4); // 1 was LRU: rank 1
        assert_eq!(c.recency().ranks(), &[1, 1]);
    }

    #[test]
    fn lifetime_tracks_generations() {
        let mut c = l1(1, 1);
        c.fill(0, 1, Mesi::Exclusive, 1);
        c.lookup(0, 1, 5);
        c.fill(0, 2, Mesi::Exclusive, 9); // evicts 1 (live 4, dead 4)
        let t = c.lifetime(9);
        assert_eq!(t.generations, 2);
        assert_eq!(t.live, 4);
        assert_eq!(t.dead, 4);
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = l1(2, 2);
        c.fill(0, 0, Mesi::Modified, 1);
        c.flush();
        assert_eq!(c.resident().count(), 0);
        assert_eq!(c.recency().hits(), 0);
        assert_eq!(c.lifetime(10).generations, 0);
    }

    #[test]
    fn fast_commit_gates_on_write_privacy() {
        let mut c = l1(4, 2);
        let set = c.set_of(5);
        c.fill(set, 5, Mesi::Shared, 1);
        // Loads are fast in any valid state; stores only when private.
        assert!(c.try_fast_commit::<2>(set, 5, false, 2));
        let before = c.stats().clone();
        assert!(!c.try_fast_commit::<2>(set, 5, true, 3));
        assert_eq!(c.stats(), &before, "a refused store changes nothing");
        assert_eq!(c.state(set, 0), Mesi::Shared);
        c.set_state(set, 0, Mesi::Exclusive);
        assert!(c.try_fast_commit::<2>(set, 5, true, 4));
        assert_eq!(c.state(set, 0), Mesi::Modified, "silent E->M upgrade");
        assert!(!c.try_fast_commit::<2>(set, 7, false, 5), "absent block");
    }

    #[test]
    fn fast_commit_matches_lookup_bookkeeping() {
        let mut a = l1(1, 2);
        let mut b = l1(1, 2);
        for c in [&mut a, &mut b] {
            c.fill(0, 1, Mesi::Exclusive, 1);
            c.fill(0, 2, Mesi::Exclusive, 2);
        }
        // Store hit on the LRU private line: fast commit vs serial
        // lookup + upgrade + stats must leave identical state and lenses.
        assert!(a.try_fast_commit::<2>(0, 1, true, 3));
        let w = b.lookup(0, 1, 3).unwrap();
        b.set_state(0, w, Mesi::Modified);
        b.stats_mut().record_write();
        b.stats_mut().record(0, HitWhere::Primary);
        assert_eq!(a.peek(0, 1), Some((w, Mesi::Modified)));
        assert_eq!(a.recency().ranks(), b.recency().ranks());
        assert_eq!(a.lifetime(4), b.lifetime(4));
        assert_eq!(a.stats(), b.stats());
        let touches = |c: &CoherentL1| c.slots.iter().map(|s| s.last_touch).collect::<Vec<_>>();
        assert_eq!(touches(&a), touches(&b));
    }

    #[test]
    fn fast_commit_finds_every_way() {
        // Wider than the sweep's 2 ways: the branch-free select must
        // land on the one resident way wherever it sits.
        let mut c = l1(1, 8);
        for b in 0..8u64 {
            c.fill(0, b, Mesi::Exclusive, b + 1);
        }
        for b in (0..8u64).rev() {
            assert!(c.try_fast_commit::<0>(0, b, b % 2 == 0, 10 + b));
        }
        assert_eq!(c.stats().primary_hits, 8);
        assert_eq!(c.stats().writes, 4);
        assert!(!c.try_fast_commit::<0>(0, 8, false, 30));
    }
}
