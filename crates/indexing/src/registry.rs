//! A factory enumeration of the paper's indexing schemes, used by the
//! experiment runners (Fig. 4, 8, 9, 10) to sweep all schemes uniformly.

use crate::givargis::{GivargisIndex, GivargisXorIndex};
use crate::modulo::ModuloIndex;
use crate::oddmul::OddMultiplierIndex;
use crate::prime::PrimeModuloIndex;
use crate::xor::XorIndex;
use std::sync::Arc;
use unicache_core::{BlockAddr, CacheGeometry, ConfigError, IndexFunction, Result};

/// Default candidate-bit ceiling for trace-trained schemes: 28 block-address
/// bits cover the whole simulated process image.
pub const DEFAULT_TRAIN_BITS: u32 = 28;

/// One of the paper's Section II indexing schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexScheme {
    /// Conventional modulo-2^m (the baseline).
    Conventional,
    /// Exclusive-OR hashing (II.D).
    Xor,
    /// Odd-multiplier displacement with this multiplier (II.C).
    OddMultiplier(u64),
    /// Prime-modulo (II.B).
    PrimeModulo,
    /// Givargis bit selection (II.A) — needs a training trace.
    Givargis,
    /// Givargis-XOR hybrid (II.E) — needs a training trace.
    GivargisXor,
}

impl IndexScheme {
    /// The five non-baseline schemes in the order of the paper's Figure 4
    /// legend: XOR, Odd-multiplier, Prime-modulo, Givargis, Givargis-XOR.
    pub fn figure4_set() -> Vec<IndexScheme> {
        vec![
            IndexScheme::Xor,
            IndexScheme::OddMultiplier(21),
            IndexScheme::PrimeModulo,
            IndexScheme::Givargis,
            IndexScheme::GivargisXor,
        ]
    }

    /// Every registered scheme, baseline included — the enumeration `uca
    /// check` verifies. Covers each recommended odd multiplier, not just
    /// the paper-default 21, so the invariant proof extends to the whole
    /// ablation space the runners can sweep.
    pub fn all() -> Vec<IndexScheme> {
        let mut schemes = vec![IndexScheme::Conventional];
        for p in crate::oddmul::RECOMMENDED_MULTIPLIERS {
            schemes.push(IndexScheme::OddMultiplier(p));
        }
        schemes.extend([
            IndexScheme::Xor,
            IndexScheme::PrimeModulo,
            IndexScheme::Givargis,
            IndexScheme::GivargisXor,
        ]);
        schemes
    }

    /// Short label used in result tables (matches the paper's legends).
    pub fn label(&self) -> String {
        match self {
            IndexScheme::Conventional => "conventional".into(),
            IndexScheme::Xor => "XOR".into(),
            IndexScheme::OddMultiplier(p) => format!("Odd_Multiplier({p})"),
            IndexScheme::PrimeModulo => "Prime_Modulo".into(),
            IndexScheme::Givargis => "Givargis".into(),
            IndexScheme::GivargisXor => "Givargis_Xor".into(),
        }
    }

    /// True if building the scheme requires a profiling trace.
    pub fn needs_training(&self) -> bool {
        matches!(self, IndexScheme::Givargis | IndexScheme::GivargisXor)
    }

    /// Builds the scheme for a cache of the given geometry.
    ///
    /// `training` must be `Some(unique block addresses)` for the Givargis
    /// variants and may be `None` otherwise.
    pub fn build(
        &self,
        geom: CacheGeometry,
        training: Option<&[BlockAddr]>,
    ) -> Result<Arc<dyn IndexFunction>> {
        let sets = geom.num_sets();
        match self {
            IndexScheme::Conventional => Ok(Arc::new(ModuloIndex::new(sets)?)),
            IndexScheme::Xor => Ok(Arc::new(XorIndex::new(sets)?)),
            IndexScheme::OddMultiplier(p) => Ok(Arc::new(OddMultiplierIndex::new(sets, *p)?)),
            IndexScheme::PrimeModulo => Ok(Arc::new(PrimeModuloIndex::new(sets)?)),
            IndexScheme::Givargis => {
                let blocks = training.ok_or_else(|| ConfigError::InvalidParameter {
                    what: "Givargis scheme requires a training trace".into(),
                })?;
                Ok(Arc::new(GivargisIndex::train(
                    blocks,
                    geom,
                    DEFAULT_TRAIN_BITS,
                )?))
            }
            IndexScheme::GivargisXor => {
                let blocks = training.ok_or_else(|| ConfigError::InvalidParameter {
                    what: "Givargis-XOR scheme requires a training trace".into(),
                })?;
                Ok(Arc::new(GivargisXorIndex::train(
                    blocks,
                    geom,
                    DEFAULT_TRAIN_BITS,
                )?))
            }
        }
    }

    /// Builds the scheme and maps a whole block slice to set indices in one
    /// call — the index-vector entry point the fused kernel's chunk loop is
    /// built on. Semantically identical to calling [`IndexFunction::index_block`]
    /// per element, but routed through [`IndexFunction::index_many`] so the
    /// scheme's monomorphized batch body runs (one virtual dispatch per slice
    /// instead of one per block).
    pub fn compute_many(
        &self,
        geom: CacheGeometry,
        training: Option<&[BlockAddr]>,
        blocks: &[BlockAddr],
    ) -> Result<Vec<usize>> {
        let f = self.build(geom, training)?;
        let mut out = vec![0usize; blocks.len()];
        f.index_many(blocks, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_order_matches_paper_legend() {
        let set = IndexScheme::figure4_set();
        assert_eq!(set.len(), 5);
        assert_eq!(set[0].label(), "XOR");
        assert_eq!(set[1].label(), "Odd_Multiplier(21)");
        assert_eq!(set[2].label(), "Prime_Modulo");
        assert_eq!(set[3].label(), "Givargis");
        assert_eq!(set[4].label(), "Givargis_Xor");
    }

    #[test]
    fn training_requirements() {
        assert!(!IndexScheme::Conventional.needs_training());
        assert!(!IndexScheme::Xor.needs_training());
        assert!(!IndexScheme::OddMultiplier(9).needs_training());
        assert!(!IndexScheme::PrimeModulo.needs_training());
        assert!(IndexScheme::Givargis.needs_training());
        assert!(IndexScheme::GivargisXor.needs_training());
    }

    #[test]
    fn build_all_schemes() {
        let geom = CacheGeometry::paper_l1();
        let blocks: Vec<u64> = (0..4096u64).map(|i| i * 97 % 65536).collect();
        for scheme in IndexScheme::figure4_set() {
            let f = scheme.build(geom, Some(&blocks)).unwrap();
            assert_eq!(f.num_sets(), 1024);
            for &b in blocks.iter().take(200) {
                assert!(f.index_block(b) < 1024);
            }
        }
        let base = IndexScheme::Conventional.build(geom, None).unwrap();
        assert_eq!(base.name(), "conventional");
    }

    #[test]
    fn compute_many_matches_per_block_indexing() {
        let geom = CacheGeometry::paper_l1();
        let training: Vec<u64> = (0..4096u64).map(|i| i * 97 % 65536).collect();
        let blocks: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(2654435761) >> 8)
            .collect();
        for scheme in IndexScheme::all() {
            let f = scheme.build(geom, Some(&training)).unwrap();
            let many = scheme.compute_many(geom, Some(&training), &blocks).unwrap();
            assert_eq!(many.len(), blocks.len());
            for (i, &b) in blocks.iter().enumerate() {
                assert_eq!(many[i], f.index_block(b), "{} block {b}", scheme.label());
            }
        }
    }

    #[test]
    fn givargis_without_training_fails() {
        let geom = CacheGeometry::paper_l1();
        assert!(IndexScheme::Givargis.build(geom, None).is_err());
        assert!(IndexScheme::GivargisXor.build(geom, None).is_err());
    }
}
