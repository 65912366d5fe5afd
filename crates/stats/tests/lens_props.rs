//! Property tests for the [`RecencyLens`]: its rank histogram must
//! conserve hits against the driving trace. (The dead-time lens is held
//! to a brute-force oracle where it is kept, in the hierarchy's L1: see
//! `tests/hierarchy_equivalence.rs`.)

use proptest::prelude::*;
use unicache_stats::RecencyLens;

/// Drives a tiny fully-associative LRU cache over a random trace, feeding
/// the lens, and returns it with the hit count.
fn lru_sim(ways: usize, trace: &[u64]) -> (RecencyLens, u64) {
    // The simulated cache: per-slot (block, last-use stamp).
    let mut slots: Vec<Option<(u64, u64)>> = vec![None; ways];
    let mut recency = RecencyLens::new(ways);
    let (mut hits, mut now) = (0u64, 0u64);
    for &block in trace {
        now += 1;
        if let Some(slot) = slots
            .iter()
            .position(|s| s.is_some_and(|(b, _)| b == block))
        {
            // Rank = how many resident lines were used more recently.
            let stamp = slots[slot].unwrap().1;
            let rank = slots.iter().flatten().filter(|&&(_, s)| s > stamp).count();
            recency.record(rank);
            slots[slot] = Some((block, now));
            hits += 1;
        } else {
            // Miss: fill the first empty slot, else evict the LRU one.
            let slot = slots.iter().position(Option::is_none).unwrap_or_else(|| {
                (0..ways)
                    .min_by_key(|&i| slots[i].map(|(_, s)| s).unwrap_or(0))
                    .unwrap()
            });
            slots[slot] = Some((block, now));
        }
    }
    (recency, hits)
}

proptest! {
    /// Rank-histogram conservation on tiny LRU traces: every hit lands in
    /// exactly one rank bucket, ranks stay below the associativity, and
    /// hits + misses account for the whole trace.
    #[test]
    fn recency_lens_conserves_hits(
        ways in 1usize..5,
        trace in proptest::collection::vec(0u64..8, 0..300),
    ) {
        let (recency, hits) = lru_sim(ways, &trace);
        prop_assert_eq!(recency.hits(), hits);
        prop_assert_eq!(recency.ranks().len(), ways);
        prop_assert!(hits <= trace.len() as u64);
        // Rank buckets beyond the resident count stay empty: with W ways
        // a rank can never reach W (checked structurally by lens size).
        let sum: u64 = recency.ranks().iter().sum();
        prop_assert_eq!(sum, hits);
    }

    /// A direct-mapped (1-way) simulation serves every hit at rank 0.
    #[test]
    fn direct_mapped_hits_are_all_mru(
        trace in proptest::collection::vec(0u64..4, 1..200),
    ) {
        let (recency, hits) = lru_sim(1, &trace);
        prop_assert_eq!(recency.mru_hits(), hits);
        if hits > 0 {
            prop_assert!((recency.mru_ratio() - 1.0).abs() < 1e-12);
        }
    }
}
