//! Steady-state LRU hit rate under the independent reference model.
//!
//! Within one cache set holding A ways and D distinct blocks with
//! empirical popularities p₁..p_D (reference counts normalized by the
//! set's total references), the Che approximation replaces LRU's coupled
//! eviction dynamics with a single *characteristic time* t_C, the unique
//! root of
//!
//! ```text
//!     Σᵢ (1 − e^{−pᵢ·t_C}) = A
//! ```
//!
//! A block is resident iff it was referenced within the last t_C
//! references, so the steady-state hit probability of a random reference
//! is
//!
//! ```text
//!     h = Σᵢ pᵢ·(1 − e^{−pᵢ·t_C})
//! ```
//!
//! (Che, Tung, Wang 2002; the analytical-utilization framing follows
//! Majumdar-Radhakrishnan, cond-mat/0001090.) For *uniform* popularities
//! the fixed point is exact: `1 − e^{−t/D'}` is the same for every
//! block, the root condition forces it to `A/D`, and `h = A/D` — which
//! is also the exact IRM answer, so the uniform path below is both a
//! fast path and an accuracy anchor. For A ≥ D every block fits and
//! h = 1.
//!
//! Determinism: the root is found by doubling to bracket, then by at
//! most 96 bisection steps with no tolerance test. The loop stops only at
//! its fixed point — when the midpoint rounds to `lo` or `hi`, which no
//! later step can move — so the result is a pure function of the inputs
//! down to the last bit, and the same bits the full 96 steps give.

/// Steady-state LRU hit probability for one set: `counts[i]` references
/// to block `i` (zeros are ignored), `ways` lines. Returns a value in
/// `[0, 1]`; an empty / all-zero set reports 1.0 (nothing to miss).
pub fn lru_hit_rate(counts: &[u64], ways: u32) -> f64 {
    let total: u64 = counts.iter().sum();
    let live = counts.iter().filter(|&&c| c > 0).count();
    if total == 0 || live == 0 {
        return 1.0;
    }
    if (ways as usize) >= live {
        return 1.0; // every distinct block fits in the set
    }
    debug_assert!(ways >= 1);
    let a = ways as f64;
    let n = total as f64;
    // Uniform fast path (exact, and the common case for synthetic
    // uniform workloads): all live counts equal.
    let first = counts.iter().copied().find(|&c| c > 0).unwrap_or(0);
    if counts.iter().all(|&c| c == 0 || c == first) {
        return a / live as f64;
    }
    // General case: bracket then bisect the characteristic time. Each
    // live block's popularity is divided out once, not per evaluation.
    let popularity: Vec<f64> = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| c as f64 / n)
        .collect();
    let occupancy = |t: f64| -> f64 { popularity.iter().map(|&p| 1.0 - (-p * t).exp()).sum() };
    // Double t until the expected occupancy reaches A. g(t) → live > A
    // as t → ∞, so the bracket always closes; 200 doublings overshoot
    // any representable t.
    let mut hi = 1.0f64;
    let mut steps = 0;
    while occupancy(hi) < a && steps < 200 {
        hi *= 2.0;
        steps += 1;
    }
    // Invariant: occupancy(lo) < A ≤ occupancy(hi). Once the midpoint
    // rounds to an endpoint, the step re-assigns that endpoint to itself,
    // and so would every remaining step.
    let mut lo = 0.0f64;
    for _ in 0..96 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if occupancy(mid) < a {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t_c = 0.5 * (lo + hi);
    let h: f64 = popularity
        .iter()
        .map(|&p| p * (1.0 - (-p * t_c).exp()))
        .sum();
    h.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitting_sets_always_hit() {
        assert_eq!(lru_hit_rate(&[], 1), 1.0);
        assert_eq!(lru_hit_rate(&[0, 0], 1), 1.0);
        assert_eq!(lru_hit_rate(&[5], 1), 1.0);
        assert_eq!(lru_hit_rate(&[5, 3], 2), 1.0);
        assert_eq!(lru_hit_rate(&[5, 3, 9, 1], 8), 1.0);
    }

    #[test]
    fn uniform_direct_mapped_is_exact() {
        // D equally popular blocks, one way: exact IRM hit rate is
        // Σ pᵢ² = 1/D.
        for d in [2usize, 3, 8, 100] {
            let counts = vec![7u64; d];
            let h = lru_hit_rate(&counts, 1);
            assert!((h - 1.0 / d as f64).abs() < 1e-12, "D={d} h={h}");
        }
    }

    #[test]
    fn uniform_a_way_is_a_over_d() {
        let counts = vec![3u64; 10];
        for a in 1..10u32 {
            let h = lru_hit_rate(&counts, a);
            assert!((h - a as f64 / 10.0).abs() < 1e-12, "A={a} h={h}");
        }
    }

    #[test]
    fn zeros_are_ignored() {
        let h_dense = lru_hit_rate(&[4, 9, 2], 1);
        let h_sparse = lru_hit_rate(&[4, 0, 9, 0, 0, 2], 1);
        assert!((h_dense - h_sparse).abs() < 1e-15);
    }

    #[test]
    fn skewed_popularity_beats_uniform() {
        // A hot block should push the hit rate above the uniform 1/D.
        let h_skew = lru_hit_rate(&[100, 1, 1, 1], 1);
        let h_unif = lru_hit_rate(&[26, 26, 26, 25], 1);
        assert!(h_skew > h_unif, "skew {h_skew} vs uniform {h_unif}");
        // And stays a probability.
        assert!(h_skew < 1.0);
    }

    #[test]
    fn monotone_in_ways() {
        let counts: Vec<u64> = (1..=12).map(|i| i * i).collect();
        let mut prev = 0.0;
        for a in 1..=12u32 {
            let h = lru_hit_rate(&counts, a);
            assert!(h >= prev - 1e-12, "A={a}: {h} < {prev}");
            prev = h;
        }
        assert_eq!(lru_hit_rate(&counts, 12), 1.0);
    }

    /// The solver before the fixed-point exit: all 96 bisection steps,
    /// popularity divided out per evaluation — kept as the oracle.
    fn fixed_96_step(counts: &[u64], ways: u32) -> f64 {
        let total: u64 = counts.iter().sum();
        let live = counts.iter().filter(|&&c| c > 0).count();
        if total == 0 || live == 0 || (ways as usize) >= live {
            return 1.0;
        }
        let a = ways as f64;
        let n = total as f64;
        let first = counts.iter().copied().find(|&c| c > 0).unwrap_or(0);
        if counts.iter().all(|&c| c == 0 || c == first) {
            return a / live as f64;
        }
        let occupancy = |t: f64| -> f64 {
            counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| 1.0 - (-(c as f64 / n) * t).exp())
                .sum()
        };
        let mut hi = 1.0f64;
        let mut steps = 0;
        while occupancy(hi) < a && steps < 200 {
            hi *= 2.0;
            steps += 1;
        }
        let mut lo = 0.0f64;
        for _ in 0..96 {
            let mid = 0.5 * (lo + hi);
            if occupancy(mid) < a {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t_c = 0.5 * (lo + hi);
        let h: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                p * (1.0 - (-p * t_c).exp())
            })
            .sum();
        h.clamp(0.0, 1.0)
    }

    #[test]
    fn early_exit_matches_the_fixed_96_step_solver_bit_for_bit() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..400 {
            let len = 1 + (next() % 200) as usize;
            // Mix flat, skewed and zero-laden count vectors, including
            // counts large enough that popularities span many decades.
            let range = [3u64, 100, 1 << 20, 1 << 40][case % 4];
            let counts: Vec<u64> = (0..len)
                .map(|_| {
                    let c = next() % range;
                    if case % 5 == 0 && c.is_multiple_of(3) {
                        0
                    } else {
                        c
                    }
                })
                .collect();
            for ways in [1u32, 2, 4, 8, 16, 64] {
                assert_eq!(
                    lru_hit_rate(&counts, ways).to_bits(),
                    fixed_96_step(&counts, ways).to_bits(),
                    "case {case} ways {ways}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_bit_for_bit() {
        let counts: Vec<u64> = (1..=50).map(|i| (i * 13) % 97 + 1).collect();
        let a = lru_hit_rate(&counts, 3);
        let b = lru_hit_rate(&counts, 3);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
