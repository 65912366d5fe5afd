//! The chunked coherent kernel: FUSE_CHUNK-sized batches through the
//! MESI hierarchy, with a private-line fast path (DESIGN §16).
//!
//! The solo engine's fused kernel decodes each trace chunk once and
//! replays it through every lane; this module brings the same execution
//! shape to [`CoherentHierarchy`]. The kernel consumes the tagged chunk
//! the SMT figures' lanes step — one block, one write flag and one
//! thread-id byte per record. The coherent sweep streams its mix's
//! interleave straight into such chunks (`unicache_smt::run_interleaved`)
//! and steps each group's hierarchies chunk by chunk;
//! [`run_coherent_fused`] decodes each chunk of raw `MemRecord`s into the
//! same form first, so there is one kernel. Each hierarchy then runs its
//! single-pass chunk step ([`CoherentHierarchy::step_chunk`]):
//!
//! * The set of every record comes from one
//!   [`IndexFunction::index_many`] call into the hierarchy's own set
//!   scratch (all cores of a hierarchy share the index function, so a
//!   block's set is core-independent). The serving core is a lookup in
//!   the hierarchy's thread-to-core table.
//! * Each record, in trace order, is classified *inline against current
//!   state* for a *provably bus-free* hit: resident in the packed L1,
//!   and either a load (hits in any valid state) or a store to a
//!   core-private line (Exclusive/Modified — SWMR guarantees no other
//!   copy exists, so the store upgrade is silent). Such records commit
//!   on the spot, in one probe of the set, with zero bus/snoop
//!   bookkeeping; everything else falls back to the exact serial MESI
//!   walk of [`CoherentModel::access`]. Because classification happens
//!   at commit time, there is no stale verdict to defend against —
//!   serial side effects (snoops, fills, evictions, back-invalidations)
//!   are already visible to every later record in the chunk.
//! * The commit loop is picked once per chunk by the L1's associativity
//!   (a fixed 2-way instance, the sweep's L1, and one runtime-ways
//!   instance for the rest); the logical clock advances once per chunk.
//!
//! Byte-identity with the per-record path (`HierarchyBuilder::chunked(false)`)
//! is pinned by the `chunked_hierarchy_matches_per_record` property suite
//! and by a replay of the coherent sweep's real interleave through every
//! sweep cell both ways (`tests/hierarchy_equivalence.rs`).
//!
//! [`IndexFunction::index_many`]: unicache_core::IndexFunction::index_many
//! [`CoherentModel::access`]: unicache_core::CoherentModel::access

use crate::coherent::CoherentHierarchy;
use unicache_core::{BlockAddr, CoherentModel, MemRecord, ThreadId, FUSE_CHUNK};

/// Drives every hierarchy in `hiers` over `records` in one fused
/// traversal (chunk-outer, hierarchy-inner): each chunk is decoded once
/// into tagged scratch (block, write flag, thread id) shared by every
/// hierarchy of the group, then each hierarchy steps it. Statistically
/// equivalent to calling [`CoherentModel::run`] on each hierarchy alone
/// — every hierarchy sees the same records in the same order and they
/// never observe each other. Each hierarchy routes thread ids to cores
/// by its own core count, so the group may mix core counts.
///
/// # Panics
/// If the hierarchies disagree on line size (the shared decoded chunk
/// would be wrong for them).
pub fn run_coherent_fused(hiers: &mut [&mut CoherentHierarchy], records: &[MemRecord]) {
    let Some(first) = hiers.first() else { return };
    let line = first.geometry().line_bytes();
    for h in hiers.iter() {
        assert_eq!(
            h.geometry().line_bytes(),
            line,
            "hierarchy '{}' line size does not match the fuse group",
            h.name()
        );
    }
    let shift = line.trailing_zeros();
    let mut blocks = [0 as BlockAddr; FUSE_CHUNK];
    let mut writes = [false; FUSE_CHUNK];
    let mut tids = [0 as ThreadId; FUSE_CHUNK];
    for chunk in records.chunks(FUSE_CHUNK) {
        let n = chunk.len();
        for (((b, w), t), r) in blocks.iter_mut().zip(&mut writes).zip(&mut tids).zip(chunk) {
            *b = r.addr >> shift;
            *w = r.kind.is_write();
            *t = r.tid;
        }
        for h in hiers.iter_mut() {
            h.step_chunk(&blocks[..n], &writes[..n], &tids[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherent::{HierarchyBuilder, L2Mode};
    use std::sync::Arc;
    use unicache_core::CacheGeometry;
    use unicache_indexing::XorIndex;

    fn trace(n: u64) -> Vec<MemRecord> {
        (0..n)
            .map(|i| {
                let tid = i % 4;
                // Mostly per-core-private hot blocks (fast-path food)
                // with a shared region and a streaming tail (serial
                // food: S-state stores, misses, evictions).
                let block = if i % 7 == 0 {
                    i % 8
                } else if i % 11 == 0 {
                    1024 + (i * 7919) % 1024
                } else {
                    64 + tid * 64 + (i / 4) % 8
                };
                let addr = block * 32;
                let rec = if i % 5 == 0 {
                    MemRecord::write(addr)
                } else {
                    MemRecord::read(addr)
                };
                rec.with_tid(tid as u8)
            })
            .collect()
    }

    fn build(chunked: bool) -> CoherentHierarchy {
        let geom = CacheGeometry::from_sets(16, 32, 2).unwrap();
        HierarchyBuilder::new(geom, Arc::new(XorIndex::new(16).unwrap()))
            .cores(4)
            .victim_depth(2)
            .l2(L2Mode::Shared(CacheGeometry::from_sets(64, 32, 4).unwrap()))
            .chunked(chunked)
            .build()
            .unwrap()
    }

    #[test]
    fn fused_group_matches_individual_runs() {
        let recs = trace(FUSE_CHUNK as u64 + 700); // ragged second chunk
        let mut solo_a = build(true);
        let mut solo_b = build(true);
        solo_a.run(&recs);
        solo_b.run(&recs);
        let mut a = build(true);
        let mut b = build(true);
        run_coherent_fused(&mut [&mut a, &mut b], &recs);
        for (fused, solo) in [(&a, &solo_a), (&b, &solo_b)] {
            assert_eq!(fused.merged_core_stats(), solo.merged_core_stats());
            assert_eq!(fused.coherence_stats(), solo.coherence_stats());
            assert_eq!(fused.now(), solo.now());
        }
    }

    #[test]
    fn chunked_equals_per_record_on_mixed_traffic() {
        let recs = trace(3 * FUSE_CHUNK as u64 + 11);
        let mut chunked = build(true);
        let mut serial = build(false);
        chunked.run(&recs);
        serial.run(&recs);
        assert_eq!(chunked.merged_core_stats(), serial.merged_core_stats());
        assert_eq!(chunked.coherence_stats(), serial.coherence_stats());
        assert_eq!(chunked.merged_lifetime(), serial.merged_lifetime());
        assert_eq!(chunked.merged_recency(), serial.merged_recency());
        assert!(chunked.fast_path_commits() > 0, "fast path never engaged");
        assert_eq!(
            chunked.fast_path_commits() + chunked.serial_path_commits(),
            chunked.merged_core_stats().accesses()
        );
    }

    #[test]
    fn fused_group_mixes_core_counts() {
        let recs = trace(2 * FUSE_CHUNK as u64 + 301);
        let build_cores = |cores: usize| {
            let geom = CacheGeometry::from_sets(16, 32, 2).unwrap();
            HierarchyBuilder::new(geom, Arc::new(XorIndex::new(16).unwrap()))
                .cores(cores)
                .victim_depth(2)
                .l2(L2Mode::Shared(CacheGeometry::from_sets(64, 32, 4).unwrap()))
                .build()
                .unwrap()
        };
        // One decoded chunk drives a group mixing 1, 3 and 4 cores.
        let mut group: Vec<CoherentHierarchy> = [1, 3, 4].map(build_cores).into();
        {
            let mut refs: Vec<&mut CoherentHierarchy> = group.iter_mut().collect();
            run_coherent_fused(&mut refs, &recs);
        }
        for (h, cores) in group.iter().zip([1, 3, 4]) {
            let mut solo = build_cores(cores);
            solo.run(&recs);
            assert_eq!(h.merged_core_stats(), solo.merged_core_stats());
            assert_eq!(h.coherence_stats(), solo.coherence_stats());
            assert_eq!(h.shared_stats(), solo.shared_stats());
            assert_eq!(h.fast_path_commits(), solo.fast_path_commits());
            assert_eq!(h.now(), recs.len() as u64);
        }
    }

    #[test]
    fn run_decodes_a_full_64_bit_block_at_one_byte_lines() {
        // The top address bit survives decode: `u64::MAX` and
        // `u64::MAX >> 1` are distinct blocks, so the second read misses.
        let records = [
            MemRecord::write(u64::MAX),
            MemRecord::read(u64::MAX >> 1).with_tid(1),
            MemRecord::read(u64::MAX).with_tid(1),
            MemRecord::read(0),
        ];
        let build_line1 = |chunked: bool| {
            let geom = CacheGeometry::from_sets(16, 1, 2).unwrap();
            HierarchyBuilder::new(geom, Arc::new(XorIndex::new(16).unwrap()))
                .cores(2)
                .l2(L2Mode::Shared(CacheGeometry::from_sets(64, 1, 4).unwrap()))
                .chunked(chunked)
                .build()
                .unwrap()
        };
        let mut walk = build_line1(false);
        for r in &records {
            walk.access(usize::from(r.tid) % 2, r.addr, r.kind.is_write());
        }
        assert_eq!(walk.merged_core_stats().misses(), 4);
        for chunked in [true, false] {
            let mut h = build_line1(chunked);
            h.run(&records);
            assert_eq!(h.merged_core_stats(), walk.merged_core_stats());
            assert_eq!(h.coherence_stats(), walk.coherence_stats());
            assert_eq!(h.shared_stats(), walk.shared_stats());
            assert_eq!(h.now(), walk.now());
        }
    }

    #[test]
    #[should_panic(expected = "line size does not match")]
    fn fused_group_rejects_line_size_mismatch() {
        let geom = CacheGeometry::from_sets(16, 64, 2).unwrap();
        let mut wide = HierarchyBuilder::new(geom, Arc::new(XorIndex::new(16).unwrap()))
            .build()
            .unwrap();
        run_coherent_fused(&mut [&mut build(true), &mut wide], &trace(10));
    }
}
