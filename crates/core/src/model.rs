//! The [`CacheModel`] extension point — the interface every cache
//! organisation in the workspace implements, from the conventional
//! direct-mapped baseline to the programmable-associativity schemes of the
//! paper's Section III.

use crate::geometry::CacheGeometry;
use crate::record::{AccessKind, MemRecord};
use crate::stats::CacheStats;
use crate::BlockAddr;

/// Where a reference was satisfied.
///
/// The distinction matters for timing: the paper's AMAT formulas (Eq. 8 and
/// Eq. 9) charge different cycle counts for direct hits, hits found in a
/// secondary location (rehash location, partner line, OUT-directory entry)
/// and misses with/without a secondary probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitWhere {
    /// Hit in the primary (first-probe) location.
    Primary,
    /// Hit in a secondary location: rehash set (column-associative), partner
    /// line (partner-index), programmable decoder match (B-cache), or the
    /// alternate location named by the OUT directory (adaptive cache).
    Secondary,
    /// Miss; no secondary location was probed (e.g. column-associative miss
    /// in a set whose rehash bit is already set).
    MissDirect,
    /// Miss after also probing a secondary location (pays extra latency).
    MissAfterProbe,
}

impl HitWhere {
    /// True for `Primary` and `Secondary`.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, HitWhere::Primary | HitWhere::Secondary)
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Where the reference was satisfied (or how it missed).
    pub where_hit: HitWhere,
    /// Set that ultimately holds (or will hold, after fill) the block.
    pub set: usize,
    /// Block evicted to make room, if any (used by hierarchies to model
    /// write-backs and by victim-cache extensions).
    pub evicted: Option<BlockAddr>,
}

impl AccessResult {
    /// Convenience: did the access hit (in either location)?
    #[inline]
    pub fn is_hit(&self) -> bool {
        self.where_hit.is_hit()
    }
}

/// A trace-driven cache organisation.
///
/// Models are driven record-by-record; they update their [`CacheStats`]
/// internally so that after a run the per-set access/hit/miss distributions
/// needed for the paper's uniformity figures (kurtosis, skewness, FHS/FMS/
/// LAS) can be read back without re-simulating.
pub trait CacheModel: Send {
    /// The cache's shape.
    fn geometry(&self) -> CacheGeometry;

    /// Simulates one reference and returns its outcome.
    fn access(&mut self, rec: MemRecord) -> AccessResult;

    /// Simulates one *pre-decoded* reference: `block` is the line address
    /// (`addr >> offset_bits`) and `is_write` the store flag.
    ///
    /// The default reconstructs a `MemRecord` and forwards to
    /// [`CacheModel::access`]; models on the batched hot path override
    /// this with their real implementation (and implement `access` as the
    /// decode + delegate) so the fused kernel ([`crate::run_fused`])
    /// never re-decodes.
    ///
    /// The pre-decoded form has no thread id (`tid` 0) and folds
    /// instruction fetches into reads; models sensitive to either — the
    /// SMT caches — must be driven through `access`/`run` instead.
    fn access_block(&mut self, block: BlockAddr, is_write: bool) -> AccessResult {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.access(MemRecord {
            addr: block << self.geometry().offset_bits(),
            kind,
            tid: 0,
        })
    }

    /// Statistics accumulated since construction or the last
    /// [`CacheModel::reset_stats`].
    fn stats(&self) -> &CacheStats;

    /// Clears counters without touching cache contents (used to skip warm-up
    /// transients, as trace-driven methodology prescribes).
    fn reset_stats(&mut self);

    /// Invalidates all contents and clears statistics.
    fn flush(&mut self);

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &str;

    /// Drives an entire slice of records through the cache.
    fn run(&mut self, trace: &[MemRecord]) {
        for &rec in trace {
            self.access(rec);
        }
    }
}

/// A multi-core cache organisation driven by per-core reference streams.
///
/// Where [`CacheModel`] simulates one cache fed by one stream, a
/// `CoherentModel` owns several per-core caches kept consistent by a
/// coherence protocol (MESI over a snooping bus in `unicache-hierarchy`).
/// References are routed to cores by thread id, so the multi-threaded
/// traces produced by the SMT interleaver (`unicache-smt`) drive it
/// directly through [`CoherentModel::run`].
///
/// Statistics are split: each core accumulates its own per-set
/// [`CacheStats`] (so the paper's uniformity lenses apply *per L1*), and
/// the shared next level — when the model has one — reports separately.
pub trait CoherentModel: Send {
    /// Number of cores (private caches) in the organisation.
    fn cores(&self) -> usize;

    /// The per-core private-cache shape (all cores are homogeneous).
    fn geometry(&self) -> CacheGeometry;

    /// Simulates one pre-decoded reference issued by `core` and returns
    /// its outcome at the private (L1) level.
    fn access(&mut self, core: usize, block: BlockAddr, is_write: bool) -> AccessResult;

    /// Statistics of one core's private cache.
    fn core_stats(&self, core: usize) -> &CacheStats;

    /// Statistics of the shared level, if the organisation has one
    /// (`None` for a pass-through hierarchy that fetches straight from
    /// memory — the degenerate shape the differential suites compare
    /// against a solo [`CacheModel`]).
    fn shared_stats(&self) -> Option<&CacheStats>;

    /// Every core's per-set stats merged into one distribution. The merge
    /// is commutative, so the result is independent of core order.
    fn merged_core_stats(&self) -> CacheStats {
        let mut merged = CacheStats::new(self.geometry().num_sets());
        for c in 0..self.cores() {
            merged.merge(self.core_stats(c));
        }
        merged
    }

    /// Invalidates all contents and clears statistics.
    fn flush(&mut self);

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &str;

    /// Drives a whole trace, routing each record to core
    /// `tid % cores()` — the canonical thread-to-core pinning used by the
    /// experiments (deterministic, independent of executor scheduling).
    fn run(&mut self, trace: &[MemRecord]) {
        let cores = self.cores();
        let offset = self.geometry().offset_bits();
        for &rec in trace {
            let core = rec.tid as usize % cores;
            self.access(core, rec.addr >> offset, rec.kind.is_write());
        }
    }
}

/// Blanket impl so `Box<dyn CacheModel>` is itself usable as a model — the
/// experiment runners hold heterogeneous scheme collections this way.
impl<T: CacheModel + ?Sized> CacheModel for Box<T> {
    fn geometry(&self) -> CacheGeometry {
        (**self).geometry()
    }
    fn access(&mut self, rec: MemRecord) -> AccessResult {
        (**self).access(rec)
    }
    fn access_block(&mut self, block: BlockAddr, is_write: bool) -> AccessResult {
        (**self).access_block(block, is_write)
    }
    fn stats(&self) -> &CacheStats {
        (**self).stats()
    }
    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }
    fn flush(&mut self) {
        (**self).flush()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemRecord;

    #[test]
    fn hit_where_classification() {
        assert!(HitWhere::Primary.is_hit());
        assert!(HitWhere::Secondary.is_hit());
        assert!(!HitWhere::MissDirect.is_hit());
        assert!(!HitWhere::MissAfterProbe.is_hit());
    }

    /// A trivially correct model: everything misses into set 0.
    struct AlwaysMiss {
        geom: CacheGeometry,
        stats: CacheStats,
    }

    impl CacheModel for AlwaysMiss {
        fn geometry(&self) -> CacheGeometry {
            self.geom
        }
        fn access(&mut self, _rec: MemRecord) -> AccessResult {
            self.stats.record(0, HitWhere::MissDirect);
            AccessResult {
                where_hit: HitWhere::MissDirect,
                set: 0,
                evicted: None,
            }
        }
        fn stats(&self) -> &CacheStats {
            &self.stats
        }
        fn reset_stats(&mut self) {
            self.stats.reset();
        }
        fn flush(&mut self) {
            self.stats.reset();
        }
        fn name(&self) -> &str {
            "always-miss"
        }
    }

    #[test]
    fn run_drives_whole_trace_and_boxes_delegate() {
        let geom = CacheGeometry::paper_l1();
        let mut m: Box<dyn CacheModel> = Box::new(AlwaysMiss {
            geom,
            stats: CacheStats::new(geom.num_sets()),
        });
        let trace: Vec<MemRecord> = (0..100u64).map(|i| MemRecord::read(i * 64)).collect();
        m.run(&trace);
        assert_eq!(m.stats().accesses(), 100);
        assert_eq!(m.stats().misses(), 100);
        assert_eq!(m.name(), "always-miss");
        assert_eq!(m.geometry(), geom);
        m.reset_stats();
        assert_eq!(m.stats().accesses(), 0);
        let r = m.access(MemRecord::read(0));
        assert!(!r.is_hit());
        m.flush();
        assert_eq!(m.stats().accesses(), 0);
    }
}
