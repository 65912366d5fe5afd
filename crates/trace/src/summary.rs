//! One-pass workload summaries — the analytical model's input.
//!
//! [`WorkloadSummary`] condenses a [`Trace`] into the statistics the
//! closed-form predictors in `unicache-model` consume: the footprint
//! (sorted unique blocks), per-block reference counts (the empirical
//! popularity distribution of the independent-reference model), the
//! read/write/fetch mix, and a coarse stride profile. It is computed in
//! one traversal that feeds a [`BlockCounter`], plus a sort of the U
//! distinct blocks — the same cost as [`Trace::unique_blocks`], which it
//! strictly subsumes, so callers that need both the footprint and the
//! mix should take one summary instead of paying one pass per statistic
//! (the experiments layer memoizes one per (workload, line size)).

use crate::trace::{AccessMix, Trace};
use std::sync::Arc;
use unicache_core::{AccessKind, BlockAddr, BlockCounter};

/// Coarse classification of successive block-address deltas.
///
/// Buckets are over the *signed block delta* between consecutive
/// references (first reference contributes nothing): `0` (same block),
/// `+1` (next block — unit-stride streaming), `+2..=+8` (small forward
/// stride), `< 0` (backward), everything else (large forward jumps —
/// pointer chasing, hashing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideProfile {
    /// Consecutive references to the same block.
    pub same_block: usize,
    /// Block delta exactly +1.
    pub next_block: usize,
    /// Block delta in +2..=+8.
    pub small_forward: usize,
    /// Negative block delta.
    pub backward: usize,
    /// Forward delta larger than 8 blocks.
    pub large: usize,
}

impl StrideProfile {
    /// Total classified transitions (`trace.len() - 1` for non-empty
    /// traces, 0 otherwise).
    pub fn transitions(&self) -> usize {
        self.same_block + self.next_block + self.small_forward + self.backward + self.large
    }

    /// Fraction of transitions that are sequential (same or next block);
    /// 0 for traces with fewer than two references.
    pub fn sequential_fraction(&self) -> f64 {
        let t = self.transitions();
        if t == 0 {
            return 0.0;
        }
        (self.same_block + self.next_block) as f64 / t as f64
    }
}

/// One-pass summary of a workload trace at a fixed line size.
///
/// `blocks` and `counts` are parallel: `counts[i]` is the number of
/// references that fell in block `blocks[i]`, and `blocks` is sorted
/// ascending with no duplicates (so it is exactly
/// [`Trace::unique_blocks`], shareable with Givargis training). The
/// counts normalized by [`WorkloadSummary::total_refs`] are the
/// empirical popularity vector of the independent-reference model.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Line size the blocks were formed at (power of two).
    pub line_bytes: u64,
    /// Total references in the trace.
    pub total_refs: usize,
    /// Read/write/fetch split.
    pub mix: AccessMix,
    /// Sorted unique block addresses (the footprint). Shared so the
    /// training paths that need the raw footprint can hold it without
    /// copying.
    pub blocks: Arc<Vec<BlockAddr>>,
    /// References per unique block, parallel to `blocks`.
    pub counts: Vec<u64>,
    /// Coarse spatial-locality profile.
    pub stride: StrideProfile,
}

impl WorkloadSummary {
    /// Number of unique blocks touched.
    pub fn footprint_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Footprint in bytes (unique blocks × line size).
    pub fn footprint_bytes(&self) -> u64 {
        self.blocks.len() as u64 * self.line_bytes
    }

    /// Fraction of references that are stores; 0 for empty traces.
    pub fn write_fraction(&self) -> f64 {
        if self.total_refs == 0 {
            return 0.0;
        }
        self.mix.writes as f64 / self.total_refs as f64
    }
}

/// Computes the summary for a trace at `line_bytes` (one traversal plus
/// one sort of the distinct blocks).
///
/// # Panics
/// If `line_bytes` is not a power of two.
pub fn summarize(trace: &Trace, line_bytes: u64) -> WorkloadSummary {
    assert!(
        line_bytes.is_power_of_two(),
        "summarize: line size {line_bytes} is not a power of two"
    );
    let shift = line_bytes.trailing_zeros();
    let mut mix = AccessMix::default();
    let mut stride = StrideProfile::default();
    let mut counter = BlockCounter::new();
    let mut prev: Option<BlockAddr> = None;
    for r in trace.records() {
        match r.kind {
            AccessKind::Read => mix.reads += 1,
            AccessKind::Write => mix.writes += 1,
            AccessKind::InstFetch => mix.fetches += 1,
        }
        let block = r.addr >> shift;
        if let Some(p) = prev {
            if block == p {
                stride.same_block += 1;
            } else if block == p.wrapping_add(1) {
                stride.next_block += 1;
            } else if block > p && block - p <= 8 {
                stride.small_forward += 1;
            } else if block < p {
                stride.backward += 1;
            } else {
                stride.large += 1;
            }
        }
        prev = Some(block);
        counter.add(block);
    }
    let (blocks, counts) = counter.into_blocks_and_counts();
    WorkloadSummary {
        line_bytes,
        total_refs: trace.len(),
        mix,
        blocks: Arc::new(blocks),
        counts,
        stride,
    }
}

impl Trace {
    /// One-pass summary at `line_bytes` — see [`summarize`].
    pub fn summarize(&self, line_bytes: u64) -> WorkloadSummary {
        summarize(self, line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::MemRecord;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(MemRecord::read(0x1000)); // block 0x80
        t.push(MemRecord::write(0x1004)); // same block
        t.push(MemRecord::read(0x1020)); // next block
        t.push(MemRecord::read(0x10a0)); // +4 blocks
        t.push(MemRecord::fetch(0x400000)); // large forward
        t.push(MemRecord::read(0x1000)); // backward
        t
    }

    #[test]
    fn summary_matches_piecewise_queries() {
        let t = sample();
        let s = t.summarize(32);
        assert_eq!(s.total_refs, t.len());
        assert_eq!(s.mix, t.access_mix());
        assert_eq!(*s.blocks, t.unique_blocks(32));
        assert_eq!(s.counts.iter().sum::<u64>() as usize, t.len());
        assert_eq!(s.footprint_bytes(), s.blocks.len() as u64 * 32);
    }

    #[test]
    fn per_block_counts_follow_the_sorted_footprint() {
        let t = sample();
        let s = t.summarize(32);
        // Block 0x80 (addresses 0x1000/0x1004 twice + return) has 3 refs.
        let i = s.blocks.iter().position(|&b| b == 0x1000 >> 5);
        let i = i.expect("block 0x80 in footprint");
        assert_eq!(s.counts[i], 3);
        assert_eq!(s.blocks.len(), s.counts.len());
        assert!(s.blocks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stride_profile_buckets_each_transition_once() {
        let s = sample().summarize(32);
        assert_eq!(
            s.stride,
            StrideProfile {
                same_block: 1,
                next_block: 1,
                small_forward: 1,
                backward: 1,
                large: 1,
            }
        );
        assert_eq!(s.stride.transitions(), sample().len() - 1);
        let f = s.stride.sequential_fraction();
        assert!((f - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_summary() {
        let s = Trace::new().summarize(64);
        assert_eq!(s.total_refs, 0);
        assert!(s.blocks.is_empty());
        assert!(s.counts.is_empty());
        assert_eq!(s.stride.transitions(), 0);
        assert_eq!(s.write_fraction(), 0.0);
        assert_eq!(s.stride.sequential_fraction(), 0.0);
    }

    /// The summary by sorting every block and run-length counting — the
    /// algorithm the footprint counter replaced, kept as its oracle.
    fn sort_dedup_summary(trace: &Trace, line_bytes: u64) -> WorkloadSummary {
        let shift = line_bytes.trailing_zeros();
        let mut mix = AccessMix::default();
        let mut stride = StrideProfile::default();
        let mut all_blocks: Vec<BlockAddr> = Vec::new();
        let mut prev: Option<BlockAddr> = None;
        for r in trace.records() {
            match r.kind {
                AccessKind::Read => mix.reads += 1,
                AccessKind::Write => mix.writes += 1,
                AccessKind::InstFetch => mix.fetches += 1,
            }
            let block = r.addr >> shift;
            if let Some(p) = prev {
                if block == p {
                    stride.same_block += 1;
                } else if block == p.wrapping_add(1) {
                    stride.next_block += 1;
                } else if block > p && block - p <= 8 {
                    stride.small_forward += 1;
                } else if block < p {
                    stride.backward += 1;
                } else {
                    stride.large += 1;
                }
            }
            prev = Some(block);
            all_blocks.push(block);
        }
        all_blocks.sort_unstable();
        let mut blocks: Vec<BlockAddr> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for b in all_blocks {
            if blocks.last() == Some(&b) {
                *counts.last_mut().unwrap() += 1;
            } else {
                blocks.push(b);
                counts.push(1);
            }
        }
        WorkloadSummary {
            line_bytes,
            total_refs: trace.len(),
            mix,
            blocks: Arc::new(blocks),
            counts,
            stride,
        }
    }

    fn trace_of(addrs: impl IntoIterator<Item = u64>) -> Trace {
        let mut t = Trace::new();
        for (i, a) in addrs.into_iter().enumerate() {
            t.push(match i % 3 {
                0 => MemRecord::read(a),
                1 => MemRecord::write(a),
                _ => MemRecord::fetch(a),
            });
        }
        t
    }

    #[test]
    fn summary_matches_the_sort_dedup_oracle() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let random: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % (1 << 20)
            })
            .collect();
        let cases: Vec<Trace> = vec![
            Trace::new(),
            trace_of([0x1234]),
            sample(),
            // Long same-block runs, then a return to the first block.
            trace_of(
                std::iter::repeat_n(0x40, 3000)
                    .chain(std::iter::repeat_n(0x8000, 2000))
                    .chain([0x41, 0x40]),
            ),
            // Power-of-two strides: blocks that pile onto few table slots
            // under a weak hash, wrapping several times.
            trace_of((0..5000u64).map(|i| (i * 4096) % (1 << 24))),
            trace_of((0..5000u64).map(|i| i << 40)),
            trace_of(random),
            // The top address and address 0 at every line size, including
            // one-byte lines where block u64::MAX is reachable.
            trace_of([u64::MAX, 0, u64::MAX, 1, u64::MAX - 1, 0, u64::MAX]),
        ];
        for t in &cases {
            for line in [1u64, 32, 64, 4096] {
                assert_eq!(
                    t.summarize(line),
                    sort_dedup_summary(t, line),
                    "line {line}"
                );
            }
        }
        let top = trace_of([u64::MAX, 0, u64::MAX]);
        let s = top.summarize(1);
        assert_eq!(*s.blocks, vec![0, u64::MAX]);
        assert_eq!(s.counts, vec![1, 2]);
        assert_eq!(top.unique_blocks(1), vec![0, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        let _ = Trace::new().summarize(48);
    }
}
