//! # unicache-sim
//!
//! Trace-driven set-associative cache simulation — the substrate standing in
//! for SimpleScalar's cache model (see `DESIGN.md`, substitution table).
//!
//! * [`cache::Cache`] — an `n`-set, `k`-way cache with a pluggable
//!   [`unicache_core::IndexFunction`] (so every Section II indexing scheme
//!   attaches unchanged), pluggable [`set::ReplacementPolicy`] and
//!   write-allocation control;
//! * [`PackedSets`] — the LRU/FIFO set store behind every such
//!   cache and behind the coherent hierarchy's shared L2;
//! * [`victim::VictimCache`] — Jouppi-style victim buffer (paper reference 14;
//!   the adaptive cache is "selective victim caching", so the plain victim
//!   cache is the natural ablation baseline);
//! * [`belady`] — offline MIN replacement on a fully-associative cache: the
//!   paper's "theoretical lower bound" for miss rates (Section III).

pub mod belady;
pub mod cache;
mod packed;
pub mod set;
pub mod victim;

pub use cache::{Cache, CacheBuilder};
pub use packed::PackedSets;
pub use set::{CacheSet, ReplacementPolicy};
pub use victim::{VictimBuffer, VictimCache};
