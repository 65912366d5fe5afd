//! # unicache-model
//!
//! Analytical ("predict before you simulate") tier: closed-form
//! predictions of per-scheme miss rate, expected conflict count, and the
//! associativity threshold α, computed from a one-pass
//! [`WorkloadSummary`] in O(footprint)
//! time instead of O(trace) simulation.
//!
//! The model composes three pieces (DESIGN §15):
//!
//! * **Placement** ([`placement`]) — a scheme with a closed form
//!   (modulo, XOR, odd-multiplier, prime-modulo) maps each of the U
//!   unique blocks of the footprint to its set without replaying the
//!   trace, via the batched
//!   [`IndexFunction::index_many`](unicache_core::IndexFunction::index_many)
//!   path. Schemes trained on a trace (Givargis, Givargis-XOR) have no
//!   closed form and report [`Prediction::Unsupported`] — never a guess.
//! * **Per-set steady state** ([`irm`]) — within each set, the
//!   independent-reference model with the empirical per-block popularity
//!   vector; steady-state LRU hit probability from the Che
//!   characteristic-time approximation (exact for uniform popularities).
//! * **Birthday bound** ([`birthday`]) — for random-style placement of U
//!   blocks into S sets, the exact Binomial-occupancy expectation of
//!   overflow blocks `S·E[(K−A)⁺]`, the pairwise collision count
//!   `U(U−1)/2S`, and the associativity threshold α (smallest A with
//!   expected overflow < 1 block).
//!
//! Every function here is deterministic: pure `f64` arithmetic with
//! fixed iteration counts, no randomness, no wallclock. The prediction
//! error against full simulation is itself a CI-gated quantity — see the
//! `uca check` model group and the `xp model` figure.

pub mod birthday;
pub mod budget;
pub mod irm;
pub mod placement;
pub mod predict;

pub use birthday::{
    alpha_threshold, conflict_bound, expected_colliding_pairs, expected_overflow, OccupancyDist,
};
pub use budget::{error_budget, ErrorBudget};
pub use irm::lru_hit_rate;
pub use placement::{measured_overflow, set_partition};
pub use predict::{predict, supports, ModelOutput, Prediction};

// Re-exported so downstream users of the model see the input type
// without a separate unicache-trace import.
pub use unicache_trace::{StrideProfile, WorkloadSummary};
