//! # unicache-assoc
//!
//! Programmable-associativity cache organisations — the paper's Section III.
//!
//! | Paper § | Scheme | Type |
//! |---------|--------|------|
//! | III.A   | column-associative cache (Agarwal & Pudar) | [`column::ColumnAssociativeCache`] |
//! | III.B   | adaptive group-associative cache (Peir et al.) | [`adaptive::AdaptiveGroupCache`] |
//! | IV.E, Fig. 14 | adaptive partitioned cache: per-thread partitions on the same SHT/OUT engine | [`adaptive::AdaptivePartitionedCache`] |
//! | III.C   | B-cache / balanced cache (Zhang) | [`bcache::BCache`] |
//! | §1.2, Fig. 3 | partner-index cache (the paper's illustrative scheme): a one-link partner chain | [`chain::PartnerIndexCache`] |
//! | §1.2 (extension) | partner *chains* — linked lists of partner lines, on the same engine | [`chain::PartnerChainCache`] |
//! | extension | 2-way skewed-associative cache (Seznec) | [`skewed::SkewedCache`] |
//!
//! All implement [`unicache_core::CacheModel`] and record the hit-location
//! taxonomy ([`unicache_core::HitWhere`]) that the AMAT formulas in
//! `unicache-timing` consume. The column-associative cache is generic over
//! its primary [`unicache_core::IndexFunction`], enabling the paper's
//! Fig. 8 hybrid study (column-associative + XOR / odd-multiplier /
//! prime-modulo).

pub mod adaptive;
pub mod bcache;
pub mod chain;
pub mod column;
pub mod skewed;

pub use adaptive::{AdaptiveConfig, AdaptiveGroupCache, AdaptivePartitionedCache};
pub use bcache::{BCache, BCacheConfig};
pub use chain::{ChainConfig, PartnerChainCache, PartnerIndexCache};
pub use column::ColumnAssociativeCache;
pub use skewed::SkewedCache;
