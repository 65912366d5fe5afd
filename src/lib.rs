//! # unicache
//!
//! A side-by-side evaluation framework for techniques that improve **cache
//! access uniformity** — a from-scratch Rust reproduction of
//! *"Evaluation of Techniques to Improve Cache Access Uniformities"*
//! (Nwachukwu, Kavi, Fawibe, Yan — ICPP 2011).
//!
//! Low-associativity L1 caches suffer from non-uniform set utilization: a
//! few sets absorb most accesses (and conflict misses) while the majority
//! sit idle. The paper — and this crate — compares the two families of
//! published fixes head-to-head on one simulator and one workload suite:
//!
//! * **Indexing functions** ([`indexing`]): XOR, odd-multiplier
//!   displacement, prime-modulo, Givargis' trace-trained bit selection and
//!   the Givargis-XOR hybrid, plus Patel's optimal-index search;
//! * **Programmable associativity** ([`assoc`]): column-associative cache,
//!   adaptive group-associative cache (SHT + OUT directory), Zhang's
//!   B-cache, and the partner-index cache with its partner-chain
//!   extension (one engine; a partner-index pair is a one-link chain).
//!
//! ## Quick start
//!
//! ```
//! use unicache::prelude::*;
//! use std::sync::Arc;
//!
//! // A paper-configuration L1 (32 KB direct-mapped, 32 B lines)…
//! let geom = CacheGeometry::paper_l1();
//! // …with XOR indexing instead of the conventional modulo index.
//! let mut cache = CacheBuilder::new(geom)
//!     .index(Arc::new(XorIndex::new(geom.num_sets()).unwrap()))
//!     .build()
//!     .unwrap();
//!
//! // Drive it with the instrumented FFT workload (the paper's Figure 1).
//! let trace = Workload::Fft.generate(Scale::Tiny);
//! cache.run(trace.records());
//! println!("miss rate: {:.2}%", 100.0 * cache.stats().miss_rate());
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `unicache-core` | geometry, records, `IndexFunction`/`CacheModel` traits, per-set stats |
//! | [`indexing`] | `unicache-indexing` | Section II index functions |
//! | [`sim`] | `unicache-sim` | set-associative cache, victim cache, Belady bound |
//! | [`assoc`] | `unicache-assoc` | Section III programmable-associativity caches |
//! | [`timing`] | `unicache-timing` | AMAT (paper Eq. 8/9), 2-level hierarchy |
//! | [`smt`] | `unicache-smt` | SMT interleaving, per-thread indexing, partitioned caches |
//! | [`hierarchy`] | `unicache-hierarchy` | multi-core MESI hierarchy, victim buffers, coherence model checker |
//! | [`trace`] | `unicache-trace` | simulated address space, instrumented memory, trace I/O |
//! | [`workloads`] | `unicache-workloads` | 11 MiBench-like + 10 SPEC-like instrumented kernels |
//! | [`stats`] | `unicache-stats` | kurtosis/skewness, FHS/FMS/LAS, Gini/entropy |
//! | [`obs`] | `unicache-obs` | deterministic event counters, histograms, span tracing |
//! | [`experiments`] | `unicache-experiments` | one runner per paper figure (`xp` binary) |

pub use unicache_assoc as assoc;
pub use unicache_core as core;
pub use unicache_exec as exec;
pub use unicache_experiments as experiments;
pub use unicache_hierarchy as hierarchy;
pub use unicache_indexing as indexing;
pub use unicache_model as model;
pub use unicache_obs as obs;
pub use unicache_sim as sim;
pub use unicache_smt as smt;
pub use unicache_stats as stats;
pub use unicache_timing as timing;
pub use unicache_trace as trace;
pub use unicache_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use unicache_assoc::{
        AdaptiveGroupCache, BCache, ColumnAssociativeCache, PartnerChainCache, PartnerIndexCache,
        SkewedCache,
    };
    pub use unicache_core::CoherentModel;
    pub use unicache_core::{
        run_fused, BlockStream, CoherentStream, FusedLane, TaggedLane, FUSE_CHUNK,
    };
    pub use unicache_core::{
        AccessKind, AccessResult, Addr, CacheGeometry, CacheModel, CacheStats, HitWhere,
        IndexFunction, MemRecord,
    };
    pub use unicache_experiments::{ExperimentTable, FuseGroup, SchemeId, SimStore, TraceStore};
    pub use unicache_hierarchy::{
        check_coherence_protocol, run_coherent_fused, run_coherent_stream, CoherenceConfig,
        CoherenceMutation, CoherentHierarchy, CoherentL1, HierarchyBuilder, L2Mode, Mesi,
    };
    pub use unicache_indexing::{
        GivargisIndex, GivargisXorIndex, IndexScheme, ModuloIndex, OddMultiplierIndex, PatelSearch,
        PrimeModuloIndex, XorIndex,
    };
    pub use unicache_sim::{Cache, CacheBuilder, ReplacementPolicy, VictimBuffer, VictimCache};
    pub use unicache_smt::{
        interleave, run_interleaved, AdaptivePartitionedCache, InterleavePolicy, PartitionedCache,
        PerThreadIndexCache,
    };
    pub use unicache_stats::{LifetimeTotals, Moments, RecencyLens, SetClassification};
    pub use unicache_timing::{
        amat_adaptive, amat_column_associative, amat_conventional, Hierarchy, LatencyModel,
        LogicalClock,
    };
    pub use unicache_trace::{Trace, TracedMat, TracedVec, Tracer};
    pub use unicache_workloads::{Scale, Workload};
}
