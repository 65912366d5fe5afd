//! # unicache-timing
//!
//! Latency models and average-memory-access-time (AMAT) computation.
//!
//! The paper compares programmable-associativity schemes by AMAT using
//! closed-form formulas over simulation counters:
//!
//! * Eq. 8 — adaptive cache: direct hits cost 1 cycle, OUT-directory hits
//!   cost 3 cycles (extra OUT search + second lookup);
//! * Eq. 9 — column-associative cache: rehash hits cost 2 cycles, and a
//!   miss that probed the rehash location pays one extra cycle of miss
//!   penalty.
//!
//! [`amat`] implements those formulas verbatim plus a generic exact
//! accounting over the [`unicache_core::HitWhere`] taxonomy;
//! [`hierarchy::Hierarchy`] composes an L1 (any [`unicache_core::CacheModel`],
//! including the programmable-associativity schemes) with the paper's
//! unified L2 and a flat memory, accumulating real cycles reference by
//! reference; [`hierarchy::EgressL2`] reaches the same AMAT from an L1
//! lane's egress and final counts.

pub mod amat;
pub mod hierarchy;
pub mod latency;
pub mod logical;
pub mod stopwatch;

pub use amat::{amat_adaptive, amat_column_associative, amat_conventional, amat_exact};
pub use hierarchy::{EgressL2, Hierarchy};
pub use latency::LatencyModel;
pub use logical::LogicalClock;
pub use stopwatch::Stopwatch;
