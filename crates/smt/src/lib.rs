//! # unicache-smt
//!
//! SMT-style shared-cache simulation — the substrate behind the paper's
//! Section IV.E (Figs. 13 and 14), replacing M-Sim (see `DESIGN.md`).
//!
//! * [`interleave()`] — merges per-thread traces into one shared-cache
//!   reference stream (round-robin fetch like an SMT front end, or
//!   stochastically); [`run_interleaved`] streams that merge in tagged
//!   chunks through the caches below, which are all
//!   [`unicache_core::TaggedLane`]s;
//! * [`shared::PerThreadIndexCache`] — one shared direct-mapped L1 where
//!   *each hardware thread applies its own index function* (the paper's
//!   Fig. 5 design and the Fig. 13 experiment);
//! * [`partition::PartitionedCache`] — static equal division of the sets
//!   among threads (the Fig. 14 baseline): a `PerThreadIndexCache` whose
//!   threads each index into their own slice;
//! * [`AdaptivePartitionedCache`] — the paper's proposal, re-exported
//!   from `unicache-assoc`: static partitions plus shared Peir-style
//!   SHT/OUT tables, letting a thread's displaced blocks borrow *cold sets
//!   from any partition*.

pub mod interleave;
pub mod partition;
pub mod shared;

pub use interleave::{
    for_each_interleaved, interleave, interleave_refs, run_interleaved, InterleavePolicy,
};
pub use partition::PartitionedCache;
pub use shared::PerThreadIndexCache;
pub use unicache_assoc::AdaptivePartitionedCache;
