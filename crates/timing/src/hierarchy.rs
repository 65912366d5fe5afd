//! Two-level hierarchy: pluggable L1 + the paper's unified L2 + memory.
//!
//! Mirrors the paper's simulated configuration: a 32 KB L1 backed by a
//! 256 KB unified LRU L2. Any [`CacheModel`] — including every
//! programmable-associativity scheme — slots in as the L1D, which serves
//! instruction fetches and data references alike. Cycle accounting per
//! reference:
//!
//! * L1 primary hit → `l1_hit`;
//! * L1 secondary hit → `secondary_cost` (set per scheme);
//! * L1 miss → add an L2 access (`l2_hit`); an L2 miss adds `memory`;
//! * every L1 victim the model reports, clean or dirty, is written back
//!   into the L2 (an L2 store): [`AccessResult::evicted`] names any valid
//!   victim, not only dirty ones.
//!
//! Two drivers implement it. [`Hierarchy`] runs it one record at a time
//! through a boxed L1 and sums each reference's cycles; it is the
//! per-record reference, and the facade the benchmark's
//! `timing.hierarchy_ns_per_ref` probe times. [`EgressL2`] is the fast
//! path: the L1 runs as a fused lane that logs its [`Egress`] (the L2
//! traffic above, in the same order), only that egress is replayed
//! through the L2, and the AMAT comes from counts. The two agree bit for
//! bit whenever the latency costs are integers (see [`EgressL2::finish`]).

use crate::latency::LatencyModel;
use unicache_core::{
    AccessKind, AccessResult, CacheModel, CacheStats, Egress, HitWhere, MemRecord,
};
use unicache_sim::{Cache, CacheBuilder};

/// A pluggable-L1 + unified-L2 memory hierarchy with cycle accounting.
pub struct Hierarchy {
    l1d: Box<dyn CacheModel>,
    l2: Cache,
    lat: LatencyModel,
    /// Cycle charged for an L1 secondary hit (2 for column/partner-style
    /// second probes, 3 for OUT-directory hits).
    secondary_cost: f64,
    cycles: f64,
    refs: u64,
}

impl Hierarchy {
    /// Builds the paper's configuration around the provided L1D model:
    /// 256 KB 4-way LRU unified L2.
    pub fn paper(l1d: Box<dyn CacheModel>, secondary_cost: f64, lat: LatencyModel) -> Self {
        Hierarchy {
            l1d,
            l2: paper_l2(),
            lat,
            secondary_cost,
            cycles: 0.0,
            refs: 0,
        }
    }

    /// Simulates one reference, returning the cycles it cost.
    pub fn access(&mut self, rec: MemRecord) -> f64 {
        self.refs += 1;
        let mut cost;
        let AccessResult {
            where_hit, evicted, ..
        } = self.l1d.access(rec);
        match where_hit {
            HitWhere::Primary => {
                unicache_obs::count(unicache_obs::Event::HierL1Hit);
                cost = self.lat.l1_hit;
            }
            HitWhere::Secondary => {
                unicache_obs::count(unicache_obs::Event::HierL1SecondaryHit);
                cost = self.secondary_cost;
            }
            HitWhere::MissDirect | HitWhere::MissAfterProbe => {
                cost = if where_hit == HitWhere::MissDirect {
                    self.lat.l1_hit
                } else {
                    self.secondary_cost
                };
                // Fetch the line from L2.
                unicache_obs::count(unicache_obs::Event::HierL2Access);
                let l2r = self.l2.access(MemRecord {
                    kind: AccessKind::Read,
                    ..rec
                });
                cost += self.lat.l2_hit;
                if l2r.is_hit() {
                    unicache_obs::count(unicache_obs::Event::HierL2Hit);
                } else {
                    unicache_obs::count(unicache_obs::Event::HierMemoryAccess);
                    cost += self.lat.memory;
                }
                // Write back the victim, clean or dirty (an L2 store, off
                // the critical path for latency but it perturbs L2
                // contents).
                if let Some(victim_block) = evicted {
                    unicache_obs::count(unicache_obs::Event::HierWriteback);
                    let victim_addr = self.l1d.geometry().block_base(victim_block);
                    self.l2
                        .access(MemRecord::write(victim_addr).with_tid(rec.tid));
                }
            }
        }
        self.cycles += cost;
        cost
    }

    /// Runs a whole trace.
    pub fn run(&mut self, trace: &[MemRecord]) {
        for &r in trace {
            self.access(r);
        }
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Measured AMAT: cycles per reference.
    pub fn amat(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.cycles / self.refs as f64
        }
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &dyn CacheModel {
        self.l1d.as_ref()
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Resets statistics and cycle counters (contents preserved).
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.cycles = 0.0;
        self.refs = 0;
    }
}

/// The paper's unified L2 fed by one L1's [`Egress`], which turns the
/// L1's final stats into the AMAT [`Hierarchy`] measures without a
/// per-record pass over the trace.
pub struct EgressL2 {
    l2: Cache,
    /// L2 hits and misses of the fill reads (write-backs cost no cycles).
    fill_hits: u64,
    fill_misses: u64,
    writebacks: u64,
}

impl EgressL2 {
    /// The paper's 256 KB 4-way LRU L2, empty, behind an L1 of geometry
    /// `l1`.
    ///
    /// # Panics
    /// If `l1`'s line size differs from the L2's: the egress carries L1
    /// block addresses, which are L2 block addresses only at equal line
    /// sizes.
    pub fn paper(l1: unicache_core::CacheGeometry) -> Self {
        let l2 = unicache_core::CacheGeometry::paper_l2();
        assert_eq!(
            l1.line_bytes(),
            l2.line_bytes(),
            "the L1's egress must use the L2's line size"
        );
        EgressL2 {
            l2: paper_l2(),
            fill_hits: 0,
            fill_misses: 0,
            writebacks: 0,
        }
    }

    /// Replays the next part of the L1's egress through the L2, in order.
    pub fn replay(&mut self, egress: &Egress) {
        for (&block, &is_write) in egress.blocks().iter().zip(egress.writes()) {
            let hit = self.l2.access_block(block, is_write).is_hit();
            if is_write {
                self.writebacks += 1;
            } else if hit {
                self.fill_hits += 1;
            } else {
                self.fill_misses += 1;
            }
        }
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The AMAT of the hierarchy whose L1 ended with stats `l1` and sent
    /// this L2 its egress: with `P`/`S` primary/secondary hits, `MD`/`MP`
    /// direct/probed misses and `F` fills that missed the L2,
    ///
    /// ```text
    /// cycles = P·l1 + S·sec + MD·(l1 + l2) + MP·(sec + l2) + F·mem
    /// AMAT   = cycles / (P + S + MD + MP)
    /// ```
    ///
    /// [`Hierarchy`] adds the same costs one reference at a time. With
    /// integer costs (the default [`LatencyModel`]) every partial sum is
    /// an integer below 2^53, so both sums are exact and the AMATs are
    /// the same `f64`; with fractional costs the rounding of the two
    /// sums differs, so such a model must use [`Hierarchy`].
    ///
    /// Also counts the hierarchy's observability events, which
    /// [`Hierarchy::access`] counts one reference at a time.
    ///
    /// # Panics
    /// If any cost used is not an integer.
    pub fn finish(self, l1: &CacheStats, secondary_cost: f64, lat: &LatencyModel) -> f64 {
        let costs = [secondary_cost, lat.l1_hit, lat.l2_hit, lat.memory];
        assert!(
            costs.iter().all(|c| c.fract() == 0.0),
            "AMAT from counts is exact only for integer costs: {costs:?}"
        );
        use unicache_obs::{count_by, Event};
        count_by(Event::HierL1Hit, l1.primary_hits);
        count_by(Event::HierL1SecondaryHit, l1.secondary_hits);
        count_by(Event::HierL2Access, self.fill_hits + self.fill_misses);
        count_by(Event::HierL2Hit, self.fill_hits);
        count_by(Event::HierMemoryAccess, self.fill_misses);
        count_by(Event::HierWriteback, self.writebacks);
        let refs = l1.accesses();
        if refs == 0 {
            return 0.0;
        }
        let cycles = l1.primary_hits as f64 * lat.l1_hit
            + l1.secondary_hits as f64 * secondary_cost
            + l1.misses_direct as f64 * (lat.l1_hit + lat.l2_hit)
            + l1.misses_after_probe as f64 * (secondary_cost + lat.l2_hit)
            + self.fill_misses as f64 * lat.memory;
        cycles / refs as f64
    }
}

/// The paper's 256 KB 4-way LRU unified L2.
fn paper_l2() -> Cache {
    CacheBuilder::new(unicache_core::CacheGeometry::paper_l2())
        .name("unified_l2")
        .build()
        .expect("paper L2 geometry is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::CacheGeometry;
    use unicache_sim::CacheBuilder;

    fn dm_l1() -> Box<dyn CacheModel> {
        Box::new(
            CacheBuilder::new(CacheGeometry::paper_l1())
                .build()
                .unwrap(),
        )
    }

    fn lat() -> LatencyModel {
        LatencyModel {
            l1_hit: 1.0,
            l2_hit: 10.0,
            memory: 100.0,
            ..Default::default()
        }
    }

    #[test]
    fn cold_miss_pays_l2_and_memory() {
        let mut h = Hierarchy::paper(dm_l1(), 2.0, lat());
        let c = h.access(MemRecord::read(0x1000));
        assert_eq!(c, 1.0 + 10.0 + 100.0);
        // Second touch: L1 hit.
        let c = h.access(MemRecord::read(0x1000));
        assert_eq!(c, 1.0);
        // L1-conflicting line (32 KB apart) is an L2 hit on the refetch? It
        // was never fetched -> L2 miss; but after that, ping-ponging
        // between the two is L1 miss + L2 hit.
        let c = h.access(MemRecord::read(0x1000 + 32 * 1024));
        assert_eq!(c, 1.0 + 10.0 + 100.0);
        let c = h.access(MemRecord::read(0x1000));
        assert_eq!(c, 1.0 + 10.0, "L2 still holds the line");
        assert_eq!(h.amat(), h.cycles() / 4.0);
    }

    #[test]
    fn dirty_writeback_lands_in_l2() {
        let mut h = Hierarchy::paper(dm_l1(), 2.0, lat());
        h.access(MemRecord::write(0x0));
        // Evict the dirty line with an L1 conflict.
        h.access(MemRecord::read(32 * 1024));
        // The L2 should have seen: read 0x0 (fill), read 32K (fill),
        // write 0x0 (write-back) = 3 accesses.
        assert_eq!(h.l2().stats().accesses(), 3);
        assert_eq!(h.l2().stats().writes, 1);
    }

    #[test]
    fn secondary_hits_use_secondary_cost() {
        use unicache_assoc::ColumnAssociativeCache;
        let l1 = Box::new(ColumnAssociativeCache::new(CacheGeometry::paper_l1()).unwrap());
        let mut h = Hierarchy::paper(l1, 2.0, lat());
        // Conflict pair: 0 and 32K map to set 0.
        h.access(MemRecord::read(0));
        h.access(MemRecord::read(32 * 1024));
        // Next access to 0 is a rehash (secondary) hit: 2 cycles.
        let c = h.access(MemRecord::read(0));
        assert_eq!(c, 2.0);
    }

    #[test]
    fn run_and_reset() {
        let mut h = Hierarchy::paper(dm_l1(), 2.0, lat());
        let trace: Vec<MemRecord> = (0..100u64).map(|i| MemRecord::read(i * 32)).collect();
        h.run(&trace);
        assert!(h.cycles() > 0.0);
        assert!(h.amat() > 1.0);
        h.reset_stats();
        assert_eq!(h.cycles(), 0.0);
        assert_eq!(h.amat(), 0.0);
        assert_eq!(h.l1d().stats().accesses(), 0);
    }
}
