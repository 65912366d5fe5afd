//! Patel's application-specific optimal index search (paper Section II.F).
//!
//! Patel et al. exhaustively search bit combinations for the one whose
//! direct-mapped mapping yields the fewest conflict misses over a trace
//! (Eqs. 6–7 express this cost as a sum of pairwise conflict patterns; for
//! a direct-mapped cache it equals the miss count of replaying the trace,
//! which is how we evaluate it — exactly, in one linear pass per
//! candidate combination).
//!
//! The paper *describes* the scheme but excludes it from evaluation
//! "because of the intractability of the computations". We implement it
//! with an explicit combination budget: below the budget a pruned
//! depth-first search is exhaustive (provably optimal over the candidate
//! set); above it, it degrades to greedy forward selection. The `xp patel`
//! experiment runs it on truncated traces as the extension study DESIGN.md
//! calls out.

use crate::bitselect::BitSelectIndex;
use unicache_core::hasher::det_map;
use unicache_core::{BlockAddr, ConfigError, DetHashMap, Result};

/// Most index bits a search may choose: keeps the `2^m`-entry resident
/// table of one replay at 64 MiB and the `u32` set index from overflowing.
const MAX_INDEX_BITS: usize = 24;

/// Widest bound set the exhaustive search replays (a 4 MiB `2^bits`
/// table); nodes whose bound set is wider are descended without pruning.
const PRUNE_MAX_BITS: usize = 20;

/// Configurable optimal-index search.
#[derive(Debug, Clone)]
pub struct PatelSearch {
    /// Number of index bits to choose.
    pub m: usize,
    /// Candidate block-address bit positions.
    pub candidates: Vec<u32>,
    /// Maximum number of combinations to evaluate exhaustively before
    /// falling back to greedy forward selection.
    pub max_combinations: u64,
}

/// Result of a search: the chosen bits, the trace cost (direct-mapped
/// misses) they achieve, and whether the search was exhaustive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Selected bit positions (ascending).
    pub bits: Vec<u32>,
    /// Misses incurred replaying the trace through a direct-mapped cache
    /// indexed by `bits`.
    pub cost: u64,
    /// True if every combination was evaluated (optimal over candidates).
    pub exhaustive: bool,
    /// Compacted references the search replayed (aborted replays up to the abort).
    pub replayed: u64,
}

/// A trace compiled against a candidate set, shared by every combination
/// the search evaluates: consecutive duplicate blocks are collapsed (the
/// second reference hits under *every* bit selection, so it can never
/// change a combination's cost), blocks are renamed to dense ids, and each
/// unique block's candidate bits are packed into one signature word.
/// Evaluating a combination then costs one small table build over the
/// unique blocks plus a linear pass over the compacted sequence, instead
/// of re-extracting `m` bits from every raw reference.
#[derive(Default)]
struct CompiledTrace {
    /// Per unique block: bit `j` holds the value of candidate bit `j`.
    sigs: Vec<u64>,
    /// The reference stream as unique-block ids, consecutive duplicates
    /// removed.
    seq: Vec<u32>,
    /// Replay buffers reused by every combination, and the compacted
    /// references replayed so far.
    idx_of: Vec<u32>,
    resident: Vec<u32>,
    replayed: u64,
}

impl CompiledTrace {
    fn new(candidates: &[u32], blocks: &[BlockAddr]) -> Self {
        let mut ids: DetHashMap<BlockAddr, u32> = det_map();
        let mut ct = CompiledTrace::default();
        ct.seq.reserve(blocks.len());
        let mut prev: Option<BlockAddr> = None;
        for &b in blocks {
            if prev == Some(b) {
                continue;
            }
            prev = Some(b);
            let next = ct.sigs.len() as u32;
            let id = *ids.entry(b).or_insert_with(|| {
                let sig = candidates
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (j, &bit)| acc | (((b >> bit) & 1) << j));
                ct.sigs.push(sig);
                next
            });
            ct.seq.push(id);
        }
        ct
    }

    /// Misses of the direct-mapped cache indexed by the candidate
    /// *positions* `pos` — exactly [`PatelSearch::cost`] of the
    /// corresponding bit set over the original trace — with a
    /// branch-and-bound cutoff: once the running miss count reaches
    /// `bound` the replay aborts and returns the partial count. Misses
    /// only accumulate, so an aborted combination's true cost is
    /// `>= bound` as well; a caller that keeps its winner under a strict
    /// `<` comparison against `bound` selects exactly the combination an
    /// unbounded evaluation would. Pass `u64::MAX` for an exact count.
    fn cost(&mut self, pos: &[usize], bound: u64) -> u64 {
        // Position-outer, signatures-inner: each pass is one contiguous
        // shift/mask/or sweep over the signature array, which the
        // compiler vectorizes; the per-signature fold over `pos` did not.
        self.idx_of.clear();
        self.idx_of.resize(self.sigs.len(), 0);
        for (out, &p) in pos.iter().enumerate() {
            for (acc, &sig) in self.idx_of.iter_mut().zip(&self.sigs) {
                *acc |= (((sig >> p) & 1) as u32) << out;
            }
        }
        self.resident.clear();
        self.resident.resize(1usize << pos.len(), u32::MAX);
        let mut misses = 0u64;
        for (i, &id) in self.seq.iter().enumerate() {
            let slot = self.idx_of[id as usize] as usize;
            if self.resident[slot] != id {
                misses += 1;
                if misses >= bound {
                    self.replayed += i as u64 + 1;
                    return misses;
                }
                self.resident[slot] = id;
            }
        }
        self.replayed += self.seq.len() as u64;
        misses
    }
}

impl PatelSearch {
    /// A search for `m` bits among `candidates`, exhaustive up to
    /// `max_combinations` evaluated combinations.
    ///
    /// # Errors
    /// [`ConfigError`] unless `1 <= m <= 24`, there are between `m` and 64
    /// distinct candidates, and every candidate bit is below 64.
    pub fn new(m: usize, candidates: Vec<u32>, max_combinations: u64) -> Result<Self> {
        if m == 0 || m > MAX_INDEX_BITS {
            return Err(ConfigError::OutOfRange {
                what: "index bits",
                expected: format!("1..={MAX_INDEX_BITS}"),
                got: m as u64,
            });
        }
        if candidates.len() < m {
            return Err(ConfigError::InvalidParameter {
                what: format!("need at least {m} candidate bits, got {}", candidates.len()),
            });
        }
        if candidates.len() > 64 {
            return Err(ConfigError::OutOfRange {
                what: "candidate bit count",
                expected: "<= 64".into(),
                got: candidates.len() as u64,
            });
        }
        if let Some(&bit) = candidates.iter().find(|&&bit| bit >= 64) {
            return Err(ConfigError::OutOfRange {
                what: "candidate bit",
                expected: "< 64".into(),
                got: u64::from(bit),
            });
        }
        let mut sorted = candidates.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != candidates.len() {
            return Err(ConfigError::InvalidParameter {
                what: "duplicate candidate bits".into(),
            });
        }
        Ok(PatelSearch {
            m,
            candidates: sorted,
            max_combinations,
        })
    }

    /// Cost of one bit combination: misses of a direct-mapped, 2^bits.len()
    /// set cache replaying `blocks` in order.
    pub fn cost(bits: &[u32], blocks: &[BlockAddr]) -> u64 {
        let sets = 1usize << bits.len();
        // Sentinel: no block address is u64::MAX in practice (would imply a
        // byte address beyond the 64-bit space).
        let mut resident: Vec<u64> = vec![u64::MAX; sets];
        let mut misses = 0u64;
        for &b in blocks {
            let mut idx = 0usize;
            for (out, &bit) in bits.iter().enumerate() {
                idx |= (((b >> bit) & 1) as usize) << out;
            }
            if resident[idx] != b {
                misses += 1;
                resident[idx] = b;
            }
        }
        misses
    }

    /// Number of combinations `C(n, m)` the exhaustive search would visit,
    /// saturating at `u64::MAX`.
    pub fn combination_count(&self) -> u64 {
        let n = self.candidates.len() as u64;
        let m = self.m as u64;
        let mut acc: u128 = 1;
        for i in 0..m {
            acc = acc * (n - i) as u128 / (i + 1) as u128;
            if acc > u64::MAX as u128 {
                return u64::MAX;
            }
        }
        acc as u64
    }

    /// Runs the search over an ordered block-address trace.
    pub fn search(&self, blocks: &[BlockAddr]) -> SearchOutcome {
        let mut compiled = CompiledTrace::new(&self.candidates, blocks);
        if self.combination_count() <= self.max_combinations {
            self.search_exhaustive(&mut compiled)
        } else {
            self.search_greedy(&mut compiled)
        }
    }

    /// The lexicographically first minimizer over every `m`-combination of
    /// candidate positions.
    fn search_exhaustive(&self, ct: &mut CompiledTrace) -> SearchOutcome {
        let mut pos = Vec::with_capacity(self.candidates.len());
        let mut best = (u64::MAX, Vec::new());
        self.descend(ct, &mut pos, &mut best);
        SearchOutcome {
            bits: best.1.iter().map(|&i| self.candidates[i]).collect(),
            cost: best.0,
            exhaustive: true,
            replayed: ct.replayed,
        }
    }

    /// Lexicographic DFS (its first leaf is the conventional low bits) that
    /// extends the prefix `pos` and keeps the cheapest leaf in `best`, only
    /// on a strict `<`. Adding a bit refines the set partition, and a finer
    /// direct-mapped partition only turns misses into hits, so the cost of
    /// `pos ∪ {p+1, …, n−1}` bounds every completion of a prefix ending at
    /// `p`; a bound that reaches the incumbent prunes the subtree and all
    /// later siblings, whose bound sets are subsets.
    fn descend(&self, ct: &mut CompiledTrace, pos: &mut Vec<usize>, best: &mut (u64, Vec<usize>)) {
        let n = self.candidates.len();
        let depth = pos.len();
        let from = pos.last().map_or(0, |&p| p + 1);
        for p in from..=n - (self.m - depth) {
            pos.push(p);
            if depth + 1 == self.m {
                let cost = ct.cost(pos, best.0);
                if cost < best.0 {
                    *best = (cost, pos.clone());
                }
            } else {
                pos.extend(p + 1..n);
                if pos.len() <= PRUNE_MAX_BITS && ct.cost(pos, best.0) >= best.0 {
                    return;
                }
                pos.truncate(depth + 1);
                self.descend(ct, pos, best);
            }
            pos.truncate(depth);
        }
    }

    fn search_greedy(&self, ct: &mut CompiledTrace) -> SearchOutcome {
        let mut selected: Vec<usize> = Vec::with_capacity(self.m);
        let mut remaining: Vec<usize> = (0..self.candidates.len()).collect();
        while selected.len() < self.m {
            let mut best: Option<(usize, u64)> = None;
            for (pos, &cand) in remaining.iter().enumerate() {
                let mut trial = selected.clone();
                trial.push(cand);
                trial.sort_unstable();
                let bound = best.map_or(u64::MAX, |(_, c)| c);
                let cost = ct.cost(&trial, bound);
                match best {
                    None => best = Some((pos, cost)),
                    Some((_, c)) if cost < c => best = Some((pos, cost)),
                    _ => {}
                }
            }
            // `remaining` stays non-empty while `selected.len() < m`
            // (candidates.len() >= m is validated in `new`), so the
            // `break` is unreachable but keeps the argmin infallible.
            let Some((pos, _)) = best else { break };
            selected.push(remaining.remove(pos));
            selected.sort_unstable();
        }
        // Exact (unbounded) cost for the reported outcome.
        let cost = ct.cost(&selected, u64::MAX);
        SearchOutcome {
            bits: selected.iter().map(|&i| self.candidates[i]).collect(),
            cost,
            exhaustive: false,
            replayed: ct.replayed,
        }
    }

    /// Convenience: runs the search and wraps the winner as an index
    /// function.
    ///
    /// # Errors
    /// Propagates [`BitSelectIndex`] validation — unreachable for outcomes
    /// of [`PatelSearch::search`], whose bit sets are distinct and within
    /// range by construction, but surfaced as a `Result` rather than a
    /// panic.
    pub fn search_index(&self, blocks: &[BlockAddr]) -> Result<(BitSelectIndex, SearchOutcome)> {
        let outcome = self.search(blocks);
        let f = BitSelectIndex::named(outcome.bits.clone(), "patel")?;
        Ok((f, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use unicache_core::IndexFunction;

    /// The reference the DFS must match: every `m`-combination of
    /// `candidates` in lexicographic order, each costed exactly by
    /// [`PatelSearch::cost`], the first strict minimum winning.
    fn lexicographic_oracle(m: usize, candidates: &[u32], blocks: &[u64]) -> (Vec<u32>, u64) {
        let n = candidates.len();
        let mut idx: Vec<usize> = (0..m).collect();
        let mut best = (Vec::new(), u64::MAX);
        loop {
            let bits: Vec<u32> = idx.iter().map(|&i| candidates[i]).collect();
            let cost = PatelSearch::cost(&bits, blocks);
            if cost < best.1 {
                best = (bits, cost);
            }
            let Some(i) = (0..m).rev().find(|&i| idx[i] != i + n - m) else {
                return best;
            };
            idx[i] += 1;
            for j in i + 1..m {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }

    #[test]
    fn validation() {
        assert!(PatelSearch::new(0, vec![0, 1], 100).is_err());
        assert!(PatelSearch::new(3, vec![0, 1], 100).is_err());
        assert!(PatelSearch::new(2, vec![0, 0, 1], 100).is_err());
        assert!(PatelSearch::new(2, vec![0, 1, 2], 100).is_ok());
    }

    #[test]
    fn candidate_bit_beyond_the_block_word_is_rejected() {
        assert!(matches!(
            PatelSearch::new(1, vec![0, 64], 100),
            Err(ConfigError::OutOfRange { got: 64, .. })
        ));
        assert!(PatelSearch::new(1, vec![0, 63], 100).is_ok());
    }

    #[test]
    fn more_than_64_candidates_are_rejected() {
        assert!(matches!(
            PatelSearch::new(1, (0..65).collect(), 100),
            Err(ConfigError::OutOfRange { got: 65, .. })
        ));
        assert!(PatelSearch::new(1, (0..64).collect(), 100).is_ok());
    }

    #[test]
    fn more_than_24_index_bits_are_rejected() {
        assert!(matches!(
            PatelSearch::new(25, (0..32).collect(), 100),
            Err(ConfigError::OutOfRange { got: 25, .. })
        ));
        assert!(PatelSearch::new(24, (0..32).collect(), 100).is_ok());
    }

    #[test]
    fn dfs_matches_the_lexicographic_oracle_on_tie_heavy_traces() {
        // Few distinct blocks and short traces make many combinations tie,
        // so the DFS must also pick the oracle's lexicographically first
        // minimizer, not just its cost.
        let mut rng = StdRng::seed_from_u64(22);
        for case in 0..400 {
            let n = rng.gen_range(1usize..=10);
            let m = rng.gen_range(1usize..=n.min(4));
            let mut candidates: Vec<u32> = Vec::new();
            while candidates.len() < n {
                let bit = rng.gen_range(0u32..16);
                if !candidates.contains(&bit) {
                    candidates.push(bit);
                }
            }
            candidates.sort_unstable();
            let pool: Vec<u64> = (0..rng.gen_range(1usize..=12))
                .map(|_| rng.gen_range(0u64..1 << 16))
                .collect();
            let blocks: Vec<u64> = (0..rng.gen_range(0usize..80))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let out = PatelSearch::new(m, candidates.clone(), u64::MAX)
                .unwrap()
                .search(&blocks);
            assert!(out.exhaustive);
            let (bits, cost) = lexicographic_oracle(m, &candidates, &blocks);
            assert_eq!(
                (&out.bits, out.cost),
                (&bits, cost),
                "case {case}: m={m} candidates={candidates:?} blocks={blocks:?}"
            );
        }
    }

    #[test]
    fn dfs_descends_unpruned_above_the_bound_width_cap() {
        // 24 candidates: the first nodes' bound sets exceed
        // `PRUNE_MAX_BITS` and are descended without a bound replay.
        let mut rng = StdRng::seed_from_u64(5);
        let blocks: Vec<u64> = (0..600).map(|_| rng.gen_range(0u64..1 << 24)).collect();
        let candidates: Vec<u32> = (0..24).collect();
        assert!(candidates.len() > PRUNE_MAX_BITS);
        let out = PatelSearch::new(2, candidates.clone(), u64::MAX)
            .unwrap()
            .search(&blocks);
        assert!(out.exhaustive);
        assert_eq!(
            (out.bits, out.cost),
            lexicographic_oracle(2, &candidates, &blocks)
        );
    }

    #[test]
    fn replayed_counts_compacted_references() {
        // One combination, no pruning possible: exactly one full replay of
        // the compacted trace (the repeated 5 collapses).
        let blocks = [1u64, 5, 5, 2, 1];
        let out = PatelSearch::new(1, vec![0], 100).unwrap().search(&blocks);
        assert_eq!(out.replayed, 4);
        let greedy = PatelSearch::new(1, vec![0, 1], 1).unwrap().search(&blocks);
        assert!(!greedy.exhaustive);
        assert!(greedy.replayed >= 4);
    }

    #[test]
    fn combination_counting() {
        let s = PatelSearch::new(2, vec![0, 1, 2, 3], 100).unwrap();
        assert_eq!(s.combination_count(), 6);
        let s = PatelSearch::new(5, (0..20).collect(), 100).unwrap();
        assert_eq!(s.combination_count(), 15_504);
    }

    #[test]
    fn cost_counts_direct_mapped_misses() {
        // Two blocks, same low bit, different bit 1. Index on bit 0: both
        // land in set 0, ping-pong forever. Index on bit 1: no conflicts.
        let blocks = vec![0b00u64, 0b10, 0b00, 0b10, 0b00, 0b10];
        assert_eq!(PatelSearch::cost(&[0], &blocks), 6);
        assert_eq!(PatelSearch::cost(&[1], &blocks), 2); // two cold misses
    }

    #[test]
    fn exhaustive_search_finds_the_conflict_free_bit() {
        let blocks: Vec<u64> = (0..100)
            .flat_map(|_| [0b000u64, 0b100]) // differ only in bit 2
            .collect();
        let s = PatelSearch::new(1, vec![0, 1, 2], 1000).unwrap();
        let out = s.search(&blocks);
        assert!(out.exhaustive);
        assert_eq!(out.bits, vec![2]);
        assert_eq!(out.cost, 2);
    }

    #[test]
    fn exhaustive_matches_brute_force_on_small_case() {
        let blocks: Vec<u64> = vec![3, 9, 3, 12, 9, 3, 5, 12, 9, 5, 3, 7, 9];
        let s = PatelSearch::new(2, vec![0, 1, 2, 3], 1_000).unwrap();
        let out = s.search(&blocks);
        assert!(out.exhaustive);
        // Brute-force all 6 pairs independently.
        let mut best = u64::MAX;
        for a in 0..4u32 {
            for b in a + 1..4 {
                best = best.min(PatelSearch::cost(&[a, b], &blocks));
            }
        }
        assert_eq!(out.cost, best);
    }

    #[test]
    fn branch_and_bound_matches_unpruned_brute_force() {
        // The bounded replay aborts most combinations early; the selected
        // bits and reported cost must still equal an exact evaluation of
        // every combination (the pre-pruning behaviour).
        let blocks: Vec<u64> = (0..2000u64)
            .map(|i| (i * 193 + (i >> 3) * 7) % 611)
            .collect();
        let s = PatelSearch::new(3, (0..10).collect(), u64::MAX).unwrap();
        let out = s.search(&blocks);
        assert!(out.exhaustive);
        let mut best = u64::MAX;
        let mut best_bits = Vec::new();
        for a in 0..10u32 {
            for b in a + 1..10 {
                for c in b + 1..10 {
                    let cost = PatelSearch::cost(&[a, b, c], &blocks);
                    if cost < best {
                        best = cost;
                        best_bits = vec![a, b, c];
                    }
                }
            }
        }
        assert_eq!(out.cost, best);
        assert_eq!(out.bits, best_bits);
        assert_eq!(PatelSearch::cost(&out.bits, &blocks), out.cost);
    }

    #[test]
    fn greedy_fallback_triggers_and_is_reasonable() {
        let blocks: Vec<u64> = (0..500u64).map(|i| (i * 37) % 257).collect();
        let s = PatelSearch::new(3, (0..12).collect(), 5).unwrap(); // budget 5 < C(12,3)
        let out = s.search(&blocks);
        assert!(!out.exhaustive);
        assert_eq!(out.bits.len(), 3);
        // Greedy must never beat exhaustive but must be sane: cost bounded
        // by the trace length.
        assert!(out.cost <= blocks.len() as u64);
        let ex = PatelSearch::new(3, (0..12).collect(), u64::MAX)
            .unwrap()
            .search(&blocks);
        assert!(ex.exhaustive);
        assert!(ex.cost <= out.cost);
    }

    #[test]
    fn search_index_wraps_winner() {
        let blocks: Vec<u64> = (0..64u64).collect();
        let s = PatelSearch::new(3, (0..8).collect(), u64::MAX).unwrap();
        let (f, out) = s.search_index(&blocks).unwrap();
        assert_eq!(f.num_sets(), 8);
        assert_eq!(f.bits(), &out.bits[..]);
        for &b in &blocks {
            assert!(f.index_block(b) < 8);
        }
    }

    #[test]
    fn empty_trace_costs_zero() {
        assert_eq!(PatelSearch::cost(&[0, 1], &[]), 0);
        let s = PatelSearch::new(2, vec![0, 1, 2], 100).unwrap();
        let out = s.search(&[]);
        assert_eq!(out.cost, 0);
    }
}
