//! One cache set: lines plus replacement metadata.
//!
//! Because non-conventional index functions are not invertible bit slices,
//! lines store the **full block address** rather than a tag remainder; a
//! hit is a block-address match. This costs 8 bytes per line in the
//! simulator and nothing in fidelity (hardware would store whatever
//! tag the decoder requires).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unicache_core::BlockAddr;

/// Replacement policies available to [`crate::cache::Cache`] sets.
///
/// The paper's configuration uses LRU (for the L2 and for B-cache clusters);
/// the others are ablation options (`ablation_replacement` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way.
    Lru,
    /// Evict the oldest-filled way.
    Fifo,
    /// Evict a uniformly random way (deterministically seeded).
    Random,
    /// Tree pseudo-LRU (the common hardware approximation).
    TreePlru,
}

/// One line: resident block plus state bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Resident block address (valid only if `valid`).
    pub block: BlockAddr,
    /// Valid bit.
    pub valid: bool,
    /// Dirty bit (set by stores under write-back).
    pub dirty: bool,
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

/// A `k`-way set with replacement metadata.
#[derive(Debug, Clone)]
pub struct CacheSet {
    lines: Vec<Line>,
    /// LRU/FIFO ordering stamps (lower = older); reused as fill order for
    /// FIFO.
    stamps: Vec<u64>,
    /// Tree-PLRU direction bits (ways-1 internal nodes).
    plru_bits: Vec<bool>,
    clock: u64,
    policy: ReplacementPolicy,
    rng: StdRng,
}

/// What a lookup/fill did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Way the block now occupies.
    pub way: usize,
    /// Block evicted to make room (valid victim only).
    pub evicted: Option<BlockAddr>,
    /// Whether the evicted block was dirty.
    pub evicted_dirty: bool,
}

impl CacheSet {
    /// An empty set of `ways` lines under `policy`. `seed` feeds the
    /// deterministic RNG used only by [`ReplacementPolicy::Random`].
    pub fn new(ways: usize, policy: ReplacementPolicy, seed: u64) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        CacheSet {
            lines: vec![Line::empty(); ways],
            stamps: vec![0; ways],
            plru_bits: vec![false; ways.saturating_sub(1)],
            clock: 0,
            policy,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of ways.
    #[inline]
    pub fn ways(&self) -> usize {
        self.lines.len()
    }

    /// Immutable view of the lines (for inspection/tests).
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// Looks up a block; on hit updates recency metadata and the dirty bit
    /// (if `is_write`), returning the way.
    #[inline]
    pub fn lookup(&mut self, block: BlockAddr, is_write: bool) -> Option<usize> {
        self.clock += 1;
        for (w, line) in self.lines.iter_mut().enumerate() {
            if line.valid && line.block == block {
                if is_write {
                    line.dirty = true;
                }
                match self.policy {
                    ReplacementPolicy::Lru => self.stamps[w] = self.clock,
                    ReplacementPolicy::TreePlru => self.touch_plru(w),
                    ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
                }
                return Some(w);
            }
        }
        None
    }

    /// Peeks for a block without updating any metadata.
    pub fn probe(&self, block: BlockAddr) -> Option<usize> {
        self.lines.iter().position(|l| l.valid && l.block == block)
    }

    /// Fills `block` into the set, evicting per policy if full.
    #[inline]
    pub fn fill(&mut self, block: BlockAddr, is_write: bool) -> FillOutcome {
        self.clock += 1;
        let way = match self.lines.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => self.victim_way(),
        };
        let old = self.lines[way];
        self.lines[way] = Line {
            block,
            valid: true,
            dirty: is_write,
        };
        self.stamps[way] = self.clock;
        if self.policy == ReplacementPolicy::TreePlru {
            self.touch_plru(way);
        }
        FillOutcome {
            way,
            evicted: if old.valid { Some(old.block) } else { None },
            evicted_dirty: old.valid && old.dirty,
        }
    }

    /// The way the policy would evict next (set must be full for this to be
    /// meaningful; invalid ways win regardless).
    pub fn victim_way(&mut self) -> usize {
        if let Some(w) = self.lines.iter().position(|l| !l.valid) {
            return w;
        }
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                // LRU: stamps updated on hit + fill. FIFO: stamps updated on
                // fill only — so min-stamp is the right victim for both.
                let mut best = 0usize;
                for w in 1..self.stamps.len() {
                    if self.stamps[w] < self.stamps[best] {
                        best = w;
                    }
                }
                best
            }
            ReplacementPolicy::Random => self.rng.gen_range(0..self.lines.len()),
            ReplacementPolicy::TreePlru => self.plru_victim(),
        }
    }

    /// Invalidates the whole set.
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::empty();
        }
        for s in &mut self.stamps {
            *s = 0;
        }
        for b in &mut self.plru_bits {
            *b = false;
        }
        self.clock = 0;
    }

    // --- tree-PLRU helpers -------------------------------------------------
    //
    // Classic binary-tree PLRU over the next power of two of `ways`; extra
    // leaves map onto real ways modulo `ways`, which preserves the
    // "approximately LRU" property for non-power-of-two associativities.

    fn touch_plru(&mut self, way: usize) {
        if self.plru_bits.is_empty() {
            return;
        }
        let leaves = self.lines.len().next_power_of_two();
        let mut node = 1usize; // 1-based heap index
        let mut lo = 0usize;
        let mut hi = leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            // Point away from the touched way.
            if node - 1 < self.plru_bits.len() {
                self.plru_bits[node - 1] = !go_right;
            }
            node = node * 2 + usize::from(go_right);
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    fn plru_victim(&self) -> usize {
        let leaves = self.lines.len().next_power_of_two();
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let bit = self.plru_bits.get(node - 1).copied().unwrap_or(false);
            // Follow the pointer (true = right).
            node = node * 2 + usize::from(bit);
            if bit {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo % self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_use_invalid_ways_first() {
        let mut s = CacheSet::new(2, ReplacementPolicy::Lru, 0);
        let f = s.fill(10, false);
        assert_eq!(f.way, 0);
        assert_eq!(f.evicted, None);
        let f = s.fill(20, false);
        assert_eq!(f.way, 1);
        assert_eq!(f.evicted, None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = CacheSet::new(2, ReplacementPolicy::Lru, 0);
        s.fill(10, false);
        s.fill(20, false);
        assert!(s.lookup(10, false).is_some()); // 20 is now LRU
        let f = s.fill(30, false);
        assert_eq!(f.evicted, Some(20));
        assert!(s.probe(10).is_some());
        assert!(s.probe(30).is_some());
        assert!(s.probe(20).is_none());
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut s = CacheSet::new(2, ReplacementPolicy::Fifo, 0);
        s.fill(10, false);
        s.fill(20, false);
        assert!(s.lookup(10, false).is_some()); // does NOT refresh FIFO age
        let f = s.fill(30, false);
        assert_eq!(f.evicted, Some(10), "FIFO evicts the oldest fill");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut s = CacheSet::new(4, ReplacementPolicy::Random, seed);
            for b in 0..4 {
                s.fill(b, false);
            }
            let mut evs = Vec::new();
            for b in 10..30 {
                evs.push(s.fill(b, false).evicted.unwrap());
            }
            evs
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn plru_behaves_lru_like_for_two_ways() {
        // For 2 ways tree-PLRU *is* LRU.
        let mut a = CacheSet::new(2, ReplacementPolicy::TreePlru, 0);
        let mut b = CacheSet::new(2, ReplacementPolicy::Lru, 0);
        let pattern = [1u64, 2, 1, 3, 2, 4, 1, 5, 5, 2];
        for &blk in &pattern {
            let (ha, hb) = (
                a.lookup(blk, false).is_some(),
                b.lookup(blk, false).is_some(),
            );
            assert_eq!(ha, hb, "divergence at block {blk}");
            if !ha {
                let (ea, eb) = (a.fill(blk, false).evicted, b.fill(blk, false).evicted);
                assert_eq!(ea, eb);
            }
        }
    }

    #[test]
    fn plru_victim_is_a_valid_way_for_odd_associativity() {
        let mut s = CacheSet::new(3, ReplacementPolicy::TreePlru, 0);
        for b in 0..3 {
            s.fill(b, false);
        }
        for b in 100..140 {
            let w = s.victim_way();
            assert!(w < 3);
            s.fill(b, false);
        }
    }

    #[test]
    fn dirty_bit_lifecycle() {
        let mut s = CacheSet::new(1, ReplacementPolicy::Lru, 0);
        s.fill(5, false);
        assert!(!s.lines()[0].dirty);
        s.lookup(5, true);
        assert!(s.lines()[0].dirty);
        let f = s.fill(6, false);
        assert_eq!(f.evicted, Some(5));
        assert!(f.evicted_dirty, "write-back of dirty victim");
        let f = s.fill(7, true);
        assert_eq!(f.evicted, Some(6));
        assert!(!f.evicted_dirty);
        assert!(s.lines()[0].dirty, "fill-for-write starts dirty");
    }

    #[test]
    fn flush_empties_the_set() {
        let mut s = CacheSet::new(2, ReplacementPolicy::Lru, 0);
        s.fill(1, true);
        s.fill(2, false);
        s.flush();
        assert!(s.probe(1).is_none());
        assert!(s.probe(2).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        CacheSet::new(0, ReplacementPolicy::Lru, 0);
    }
}
