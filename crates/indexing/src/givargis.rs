//! Givargis' trace-trained index-bit selection (paper Section II.A) and the
//! paper's own Givargis-XOR hybrid (Section II.E).
//!
//! From the unique addresses of a profiling trace:
//!
//! * each candidate bit `i` gets a **quality** `Q_i = min(Z_i, O_i) /
//!   max(Z_i, O_i)` (Eq. 1) — how evenly the bit splits the address set;
//! * each bit pair gets a **correlation** `C_{i,j} = min(E_{i,j}, D_{i,j}) /
//!   max(E_{i,j}, D_{i,j})` (Eq. 2) — *low* `C` means the pair is strongly
//!   dependent (mostly-equal or mostly-complementary), *high* `C` means the
//!   bits are independent;
//! * bits are selected greedily: pick the highest-scoring bit, then damp
//!   every remaining bit's score by its correlation with the pick (the
//!   paper's "dot product between the quality value vector and the
//!   correlation vector for the selected bit"), repeat until `m` bits are
//!   chosen.
//!
//! Following the paper's methodology note, byte-offset bits are **not**
//! candidates: training operates on *block* addresses. (The paper blames
//! exactly this exclusion for Givargis' poor showing at 32-byte lines, and
//! our Fig. 4 reproduction shows the same effect; the
//! `ablation_givargis_linesize` bench sweeps it.)

use crate::bitselect::BitSelectIndex;
use unicache_core::{is_pow2, BlockAddr, CacheGeometry, ConfigError, IndexFunction, Result};

/// Per-bit quality and pairwise correlation measured over unique addresses.
#[derive(Debug, Clone)]
pub struct GivargisTrainer {
    /// Candidate bit positions (block-address bit space), ascending.
    candidates: Vec<u32>,
    /// `quality[k]` = Q of `candidates[k]` (Eq. 1).
    quality: Vec<f64>,
    /// `correlation[a][b]` = C of `(candidates[a], candidates[b])` (Eq. 2).
    correlation: Vec<Vec<f64>>,
}

impl GivargisTrainer {
    /// Measures bit statistics over `unique_blocks` for candidate bits
    /// `0..max_bits` of the block address.
    ///
    /// The counts come from bit columns: column `i` holds bit `i` of every
    /// block, 64 blocks to a word, so a bit's ones are the column's
    /// popcount and a pair's equal count is `n − popcount(col_a ^ col_c)`
    /// (the padding past the last block is zero in every column).
    ///
    /// # Errors
    /// [`ConfigError::OutOfRange`] if `max_bits` exceeds 64, the width of
    /// a block address; [`ConfigError::EmptyTrainingTrace`] if no
    /// addresses are supplied.
    pub fn measure(unique_blocks: &[BlockAddr], max_bits: u32) -> Result<Self> {
        if max_bits > 64 {
            return Err(ConfigError::OutOfRange {
                what: "givargis candidate bits",
                expected: "0..=64".to_string(),
                got: u64::from(max_bits),
            });
        }
        if unique_blocks.is_empty() {
            return Err(ConfigError::EmptyTrainingTrace);
        }
        let n = unique_blocks.len() as u64;
        let bits = max_bits as usize;
        let words = unique_blocks.len().div_ceil(64);
        // columns[i * words + w]: bit i of blocks 64w..64w+63.
        let mut columns = vec![0u64; bits * words];
        for (w, group) in unique_blocks.chunks(64).enumerate() {
            let mut acc = [0u64; 64];
            for (j, &b) in group.iter().enumerate() {
                for (i, a) in acc[..bits].iter_mut().enumerate() {
                    *a |= ((b >> i) & 1) << j;
                }
            }
            for (i, &a) in acc[..bits].iter().enumerate() {
                columns[i * words + w] = a;
            }
        }
        let column = |i: u32| &columns[i as usize * words..][..words];
        let ones = |i: u32| -> u64 { column(i).iter().map(|w| u64::from(w.count_ones())).sum() };
        // Candidates: every bit that actually varies. Constant bits carry
        // zero information (Q = 0) and would fragment the cache.
        let candidates: Vec<u32> = (0..max_bits)
            .filter(|&i| {
                let o = ones(i);
                o != 0 && o != n
            })
            .collect();
        let quality: Vec<f64> = candidates
            .iter()
            .map(|&i| {
                let o = ones(i);
                let z = n - o;
                o.min(z) as f64 / o.max(z) as f64
            })
            .collect();
        let k = candidates.len();
        let mut correlation = vec![vec![1.0f64; k]; k];
        for a in 0..k {
            let col_a = column(candidates[a]);
            for c in (a + 1)..k {
                let differ: u64 = col_a
                    .iter()
                    .zip(column(candidates[c]))
                    .map(|(x, y)| u64::from((x ^ y).count_ones()))
                    .sum();
                let (e, d) = (n - differ, differ);
                let corr = if e.max(d) == 0 {
                    1.0
                } else {
                    e.min(d) as f64 / e.max(d) as f64
                };
                correlation[a][c] = corr;
                correlation[c][a] = corr;
            }
        }
        Ok(GivargisTrainer {
            candidates,
            quality,
            correlation,
        })
    }

    /// Candidate bit positions that vary over the training set.
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Quality of candidate `k` (parallel to [`Self::candidates`]).
    pub fn quality(&self) -> &[f64] {
        &self.quality
    }

    /// Greedily selects `m` bit positions: highest score first, damping the
    /// remaining scores by their correlation with each pick.
    ///
    /// Falls back to constant bits only if fewer than `m` candidates vary
    /// (degenerate traces); in that case the remaining positions are filled
    /// with the lowest unused block-address bits so the function still
    /// produces a full-width index.
    pub fn select(&self, m: usize) -> Vec<u32> {
        let k = self.candidates.len();
        let mut score = self.quality.clone();
        let mut picked: Vec<usize> = Vec::with_capacity(m);
        let mut used = vec![false; k];
        while picked.len() < m.min(k) {
            // argmax over unused candidates; ties broken toward the lowest
            // bit position for determinism.
            let mut best: Option<usize> = None;
            for i in 0..k {
                if used[i] {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) if score[i] > score[b] => best = Some(i),
                    _ => {}
                }
            }
            // The loop guard keeps `picked.len() < k`, so an unused
            // candidate always exists; the `break` is unreachable but
            // keeps the argmax infallible.
            let Some(b) = best else { break };
            used[b] = true;
            picked.push(b);
            // Damp remaining scores: a bit strongly dependent on the pick
            // (low C means mostly-equal or mostly-complementary — it adds
            // no new separation power) is penalized toward zero.
            for i in 0..k {
                if !used[i] {
                    score[i] *= self.correlation[i][b];
                }
            }
        }
        let mut bits: Vec<u32> = picked.into_iter().map(|i| self.candidates[i]).collect();
        // Degenerate fallback: pad with unused low bits.
        let mut next = 0u32;
        while bits.len() < m {
            if !bits.contains(&next) {
                bits.push(next);
            }
            next += 1;
        }
        bits.sort_unstable();
        bits
    }
}

/// The Givargis index: `m` trained bit positions gathered into a set index.
#[derive(Debug, Clone)]
pub struct GivargisIndex {
    inner: BitSelectIndex,
}

impl GivargisIndex {
    /// Trains an index for `geom.num_sets()` sets from the unique block
    /// addresses of a profiling trace.
    ///
    /// `max_bits` bounds the candidate bit range (address bits above
    /// `geom.offset_bits() + max_bits` are ignored); 32 covers 4 GiB images.
    pub fn train(unique_blocks: &[BlockAddr], geom: CacheGeometry, max_bits: u32) -> Result<Self> {
        let trainer = GivargisTrainer::measure(unique_blocks, max_bits)?;
        let bits = trainer.select(geom.index_bits() as usize);
        Ok(GivargisIndex {
            inner: BitSelectIndex::named(bits, "givargis")?,
        })
    }

    /// The trained bit positions.
    pub fn bits(&self) -> &[u32] {
        self.inner.bits()
    }
}

impl IndexFunction for GivargisIndex {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        self.inner.index_block(block)
    }
    fn num_sets(&self) -> usize {
        self.inner.num_sets()
    }
    fn name(&self) -> &str {
        "givargis"
    }
    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        // Forward to the bit-select gather kernel; the default body would
        // fall back to per-element `index_block`.
        self.inner.index_many(blocks, out);
    }
}

/// The paper's hybrid (Section II.E): gather `m` high-quality, low-mutual-
/// correlation **tag** bits with the Givargis method, then XOR them with
/// the conventional index bits.
#[derive(Debug, Clone)]
pub struct GivargisXorIndex {
    tag_bits: BitSelectIndex,
    mask: u64,
    sets: usize,
}

impl GivargisXorIndex {
    /// Trains the tag-bit selection from unique block addresses.
    ///
    /// Candidates are restricted to tag positions (block-address bits at or
    /// above `geom.index_bits()`), so the XOR mixes *new* information into
    /// the index rather than permuting the index bits themselves.
    pub fn train(unique_blocks: &[BlockAddr], geom: CacheGeometry, max_bits: u32) -> Result<Self> {
        if !is_pow2(geom.num_sets() as u64) {
            return Err(ConfigError::NotPowerOfTwo {
                what: "givargis-xor sets",
                value: geom.num_sets() as u64,
            });
        }
        let m = geom.index_bits();
        let trainer = GivargisTrainer::measure(unique_blocks, max_bits.max(m * 2))?;
        // Keep only tag-region candidates, preserving their scores by
        // re-measuring on the shifted addresses (equivalent and simpler:
        // filter selections).
        let all = trainer.select_from_tag_region(m as usize, m);
        let tag_bits = BitSelectIndex::named(all, "givargis_xor_tag")?;
        Ok(GivargisXorIndex {
            tag_bits,
            mask: geom.num_sets() as u64 - 1,
            sets: geom.num_sets(),
        })
    }

    /// The trained tag-bit positions.
    pub fn tag_bit_positions(&self) -> &[u32] {
        self.tag_bits.bits()
    }
}

impl GivargisTrainer {
    /// Like [`GivargisTrainer::select`], but only candidates at or above
    /// bit `floor` participate; pads from the tag region when necessary.
    pub fn select_from_tag_region(&self, m: usize, floor: u32) -> Vec<u32> {
        let k = self.candidates.len();
        let mut score: Vec<f64> = self
            .quality
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                if self.candidates[i] >= floor {
                    q
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        let eligible = score.iter().filter(|s| s.is_finite()).count();
        let mut picked: Vec<usize> = Vec::with_capacity(m);
        let mut used = vec![false; k];
        while picked.len() < m.min(eligible) {
            let mut best: Option<usize> = None;
            for i in 0..k {
                if used[i] || !score[i].is_finite() {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) if score[i] > score[b] => best = Some(i),
                    _ => {}
                }
            }
            let Some(b) = best else { break };
            used[b] = true;
            picked.push(b);
            for i in 0..k {
                if !used[i] && score[i].is_finite() {
                    score[i] *= self.correlation[i][b];
                }
            }
        }
        let mut bits: Vec<u32> = picked.into_iter().map(|i| self.candidates[i]).collect();
        let mut next = floor;
        while bits.len() < m {
            if !bits.contains(&next) {
                bits.push(next);
            }
            next += 1;
        }
        bits.sort_unstable();
        bits
    }
}

impl IndexFunction for GivargisXorIndex {
    #[inline]
    fn index_block(&self, block: BlockAddr) -> usize {
        let conventional = block & self.mask;
        let gathered = self.tag_bits.index_block(block) as u64;
        ((conventional ^ gathered) & self.mask) as usize
    }
    fn num_sets(&self) -> usize {
        self.sets
    }
    fn name(&self) -> &str {
        "givargis_xor"
    }
    fn index_many(&self, blocks: &[BlockAddr], out: &mut [usize]) {
        // Gather the trained tag bits (bits outer, as in BitSelectIndex),
        // then fold in the conventional index bits with one XOR per block.
        let out = &mut out[..blocks.len()];
        self.tag_bits.index_many(blocks, out);
        for (slot, &b) in out.iter_mut().zip(blocks) {
            *slot = ((b ^ *slot as u64) & self.mask) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geom_64() -> CacheGeometry {
        CacheGeometry::from_sets(64, 32, 1).unwrap()
    }

    #[test]
    fn quality_formula_matches_eq1() {
        // Addresses chosen so bit 0 is balanced (Q=1), bit 1 is 3:1
        // (Q=1/3), bit 2 constant (dropped from candidates).
        let blocks = [0b001u64, 0b000, 0b011, 0b010];
        let t = GivargisTrainer::measure(&blocks, 3).unwrap();
        assert_eq!(t.candidates(), &[0, 1]);
        assert!((t.quality()[0] - 1.0).abs() < 1e-12);
        assert!((t.quality()[1] - 1.0).abs() < 1e-12);

        let blocks = [0b01u64, 0b00, 0b00, 0b00];
        let t = GivargisTrainer::measure(&blocks, 2).unwrap();
        assert_eq!(t.candidates(), &[0]);
        assert!((t.quality()[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_correlated_bits_are_not_both_picked() {
        // bit1 == bit0 always (E = n, D = 0 -> C = 0): after picking one,
        // the other's score collapses; bit 2 is independent and balanced.
        let blocks: Vec<u64> = vec![0b000, 0b011, 0b100, 0b111, 0b011, 0b100];
        let t = GivargisTrainer::measure(&blocks, 3).unwrap();
        let sel = t.select(2);
        assert!(sel.contains(&2), "independent bit must be chosen: {sel:?}");
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn empty_training_trace_is_rejected() {
        assert!(matches!(
            GivargisTrainer::measure(&[], 8),
            Err(ConfigError::EmptyTrainingTrace)
        ));
    }

    /// The per-block, per-pair counting loop the bit columns replaced,
    /// kept as their oracle: `(candidates, quality, correlation)`.
    fn naive_measure(blocks: &[u64], max_bits: u32) -> (Vec<u32>, Vec<f64>, Vec<Vec<f64>>) {
        let n = blocks.len() as u64;
        let mut ones = vec![0u64; max_bits as usize];
        for &b in blocks {
            for (i, o) in ones.iter_mut().enumerate() {
                *o += (b >> i) & 1;
            }
        }
        let candidates: Vec<u32> = (0..max_bits)
            .filter(|&i| ones[i as usize] != 0 && ones[i as usize] != n)
            .collect();
        let quality: Vec<f64> = candidates
            .iter()
            .map(|&i| {
                let o = ones[i as usize];
                let z = n - o;
                o.min(z) as f64 / o.max(z) as f64
            })
            .collect();
        let k = candidates.len();
        let mut equal = vec![vec![0u64; k]; k];
        for &b in blocks {
            for a in 0..k {
                let ba = (b >> candidates[a]) & 1;
                for c in (a + 1)..k {
                    if ba == (b >> candidates[c]) & 1 {
                        equal[a][c] += 1;
                    }
                }
            }
        }
        let mut correlation = vec![vec![1.0f64; k]; k];
        for a in 0..k {
            for c in (a + 1)..k {
                let (e, d) = (equal[a][c], n - equal[a][c]);
                let corr = e.min(d) as f64 / e.max(d) as f64;
                correlation[a][c] = corr;
                correlation[c][a] = corr;
            }
        }
        (candidates, quality, correlation)
    }

    #[test]
    fn bit_columns_match_the_pair_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        for u in [1usize, 63, 64, 65, 1000] {
            // Full-width random blocks, plus a correlated set where bit 3
            // copies bit 0 and bit 5 complements it.
            let random: Vec<u64> = (0..u).map(|_| rng.gen::<u64>()).collect();
            let correlated: Vec<u64> = (0..u as u64)
                .map(|i| {
                    let b0 = i & 1;
                    ((i * 0x9e37) & !0b10_1000) | (b0 << 3) | ((b0 ^ 1) << 5)
                })
                .collect();
            for blocks in [&random, &correlated] {
                for max_bits in [1u32, 28, 64] {
                    let t = GivargisTrainer::measure(blocks, max_bits).unwrap();
                    let (candidates, quality, correlation) = naive_measure(blocks, max_bits);
                    assert_eq!(t.candidates, candidates, "U={u} bits={max_bits}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&t.quality), bits(&quality), "U={u} bits={max_bits}");
                    assert_eq!(t.correlation.len(), correlation.len());
                    for (row, want) in t.correlation.iter().zip(&correlation) {
                        assert_eq!(bits(row), bits(want), "U={u} bits={max_bits}");
                    }
                }
            }
        }
    }

    #[test]
    fn more_candidate_bits_than_a_block_has_are_rejected() {
        let blocks = [1u64, 2, 3, u64::MAX];
        assert!(GivargisTrainer::measure(&blocks, 64).is_ok());
        let out_of_range =
            |r: Result<()>| matches!(r, Err(ConfigError::OutOfRange { got: 65, .. }));
        assert!(out_of_range(
            GivargisTrainer::measure(&blocks, 65).map(drop)
        ));
        assert!(out_of_range(
            GivargisIndex::train(&blocks, geom_64(), 65).map(drop)
        ));
        assert!(out_of_range(
            GivargisXorIndex::train(&blocks, geom_64(), 65).map(drop)
        ));
        // The range check comes before the training-set check.
        assert!(out_of_range(GivargisTrainer::measure(&[], 65).map(drop)));
    }

    #[test]
    fn select_pads_degenerate_traces() {
        // One unique address: no bit varies, candidates empty.
        let t = GivargisTrainer::measure(&[0x42], 8).unwrap();
        assert!(t.candidates().is_empty());
        let bits = t.select(4);
        assert_eq!(bits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn trained_index_stays_in_range_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let blocks: Vec<u64> = (0..2000).map(|_| rng.gen_range(0u64..1 << 20)).collect();
        let g = geom_64();
        let f1 = GivargisIndex::train(&blocks, g, 24).unwrap();
        let f2 = GivargisIndex::train(&blocks, g, 24).unwrap();
        assert_eq!(f1.bits(), f2.bits());
        assert_eq!(f1.num_sets(), 64);
        for &b in &blocks {
            assert!(f1.index_block(b) < 64);
        }
        assert_eq!(f1.name(), "givargis");
    }

    #[test]
    fn givargis_spreads_a_uniform_unique_set_evenly() {
        // For uniformly distributed unique addresses, the trained index
        // should spread them across most sets.
        let mut rng = StdRng::seed_from_u64(7);
        let blocks: Vec<u64> = (0..4096).map(|_| rng.gen_range(0u64..1 << 22)).collect();
        let f = GivargisIndex::train(&blocks, geom_64(), 22).unwrap();
        let mut counts = vec![0u32; 64];
        for &b in &blocks {
            counts[f.index_block(b)] += 1;
        }
        let used = counts.iter().filter(|&&c| c > 0).count();
        assert!(used >= 60, "only {used} sets used");
    }

    #[test]
    fn givargis_xor_uses_tag_bits_only() {
        let mut rng = StdRng::seed_from_u64(3);
        let blocks: Vec<u64> = (0..2000).map(|_| rng.gen_range(0u64..1 << 24)).collect();
        let g = geom_64(); // 6 index bits
        let f = GivargisXorIndex::train(&blocks, g, 24).unwrap();
        for &p in f.tag_bit_positions() {
            assert!(p >= 6, "tag bit {p} is inside the index field");
        }
        assert_eq!(f.tag_bit_positions().len(), 6);
        for &b in &blocks {
            assert!(f.index_block(b) < 64);
        }
        assert_eq!(f.name(), "givargis_xor");
    }

    #[test]
    fn givargis_xor_differs_from_conventional_when_tags_vary() {
        let mut rng = StdRng::seed_from_u64(9);
        let blocks: Vec<u64> = (0..2000).map(|_| rng.gen_range(0u64..1 << 24)).collect();
        let g = geom_64();
        let f = GivargisXorIndex::train(&blocks, g, 24).unwrap();
        let diffs = blocks
            .iter()
            .filter(|&&b| f.index_block(b) != (b & 63) as usize)
            .count();
        assert!(diffs > blocks.len() / 2, "only {diffs} differ");
    }

    #[test]
    fn tag_region_selection_pads_when_no_tag_bits_vary() {
        // All variation in the low 3 bits; tag region constant.
        let blocks: Vec<u64> = (0..8u64).collect();
        let t = GivargisTrainer::measure(&blocks, 16).unwrap();
        let bits = t.select_from_tag_region(4, 6);
        assert_eq!(bits, vec![6, 7, 8, 9]);
    }
}
