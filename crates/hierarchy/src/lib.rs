//! # unicache-hierarchy
//!
//! The multi-core coherent hierarchy: per-core L1s (any registry
//! `IndexFunction`) with write-back victim buffers, kept consistent by a
//! MESI snooping bus in front of an optional shared inclusive L2.
//!
//! The paper's uniformity questions (Figs. 3/7: how flat are the per-set
//! access/miss distributions?) are re-asked here at two new places — the
//! L1 *under coherence traffic* and the shared L2 — by the `xp coherent`
//! experiment; the dead-time/live-time and MRU-hit lenses
//! (`unicache-stats`) add line-level uniformity views.
//!
//! Because coherence protocols are where simulators silently rot, the
//! crate carries its own bounded model checker ([`model`]): a seeded DFS
//! over load/store/evict/writeback races that checks SWMR, data-value
//! and inclusion invariants at *every* step, plus seeded mutations
//! proving each checker actually catches the bug class it claims to.
//!
//! * [`mesi`] — the MESI state machine (one closed transition table
//!   shared by simulator and checker, closure-verified by `uca check`);
//! * [`l1::CoherentL1`] — a per-core MESI L1 whose replacement matches
//!   `unicache_sim::CacheSet` exactly (the differential suites rely on
//!   it);
//! * [`coherent::CoherentHierarchy`] — the bus + victim buffers + L2
//!   composition implementing `unicache_core::CoherentModel`;
//! * [`chunk`] — the chunked fused kernel (DESIGN §16): chunk replay of
//!   a packed coherent stream with a private-line fast path (the
//!   per-record MESI walk, `HierarchyBuilder::chunked(false)`, is its
//!   reference);
//! * [`model`] — the litmus/model-check suite.

pub mod chunk;
pub mod coherent;
pub mod l1;
mod l2;
pub mod mesi;
pub mod model;

pub use chunk::{run_coherent_fused, run_coherent_stream};
pub use coherent::{CoherenceStats, CoherentHierarchy, HierarchyBuilder, L2Mode};
pub use l1::CoherentL1;
pub use mesi::{fill_state, transition, LineEvent, Mesi, Transition};
pub use model::{check_coherence_protocol, CoherenceConfig, CoherenceMutation};
