//! Figure runners. Every public function regenerates one of the paper's
//! figures as an [`crate::ExperimentTable`] (or, for Fig. 1, a histogram
//! report).

pub mod assoc;
pub mod coherent;
pub mod extras;
pub mod fig1;
pub mod hybrid;
pub mod indexing;
pub mod model;
pub mod smt;
pub mod sweeps;

use unicache_core::CacheGeometry;

/// The paper's evaluation L1: 32 KB direct-mapped, 32 B lines, 1024 sets.
pub fn paper_geom() -> CacheGeometry {
    CacheGeometry::paper_l1()
}
