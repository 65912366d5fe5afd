//! The chunked coherent kernel: FUSE_CHUNK-sized batches through the
//! MESI hierarchy, with a private-line fast path (DESIGN §16).
//!
//! The solo engine's fused kernel decodes each trace chunk once and
//! replays it through every lane; this module brings the same execution
//! shape to [`CoherentHierarchy`]. The kernel consumes the packed form
//! of a [`CoherentStream`] — one `(block << 1) | is_write` word and one
//! thread-id byte per record. [`run_coherent_stream`] reads a stream
//! built once (the `SimStore` memoizes one per mix, policy and line
//! size); [`run_coherent_fused`] packs each chunk of raw `MemRecord`s
//! into the same form first, so there is one kernel and one decoder.
//! Each hierarchy then runs its single-pass chunk step:
//!
//! * The chunk's blocks are unpacked (a shift) into scratch allocated
//!   once per run, and the set of every record comes from one
//!   [`IndexFunction::index_many`] call (all cores of a hierarchy share
//!   the index function, so a block's set is core-independent). The
//!   serving core is a lookup in the hierarchy's thread-to-core table.
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
use unicache_core::{
    pack_coherent_chunk, BlockAddr, CoherentModel, CoherentStream, MemRecord, ThreadId, FUSE_CHUNK,
};

/// Per-run scratch of the chunk kernel: the unpacked blocks and the
/// `index_many` output of one chunk, allocated once per run and reused
/// by every chunk and every hierarchy of the run.
pub(crate) struct ChunkScratch {
    pub(crate) blocks: Vec<BlockAddr>,
    pub(crate) sets: Vec<usize>,
}

impl ChunkScratch {
    fn new() -> Self {
        ChunkScratch {
            blocks: vec![0; FUSE_CHUNK],
            sets: vec![0; FUSE_CHUNK],
        }
    }
}

/// Checks that every hierarchy decodes blocks at `line_bytes`.
fn assert_line_size(hiers: &[&mut CoherentHierarchy], line_bytes: u64) {
    for h in hiers {
        assert_eq!(
            h.geometry().line_bytes(),
            line_bytes,
            "hierarchy '{}' line size does not match the fuse group",
            h.name()
        );
    }
}

/// Drives every hierarchy in `hiers` over `stream` in one fused
/// traversal (chunk-outer, hierarchy-inner). Statistically equivalent
/// to calling [`CoherentModel::run`] on each hierarchy alone with the
/// records the stream was built from — every hierarchy sees the same
/// records in the same order and they never observe each other. Each
/// hierarchy routes thread ids to cores by its own core count, so the
/// group may mix core counts.
///
/// # Panics
/// If a hierarchy's line size differs from the stream's.
pub fn run_coherent_stream(hiers: &mut [&mut CoherentHierarchy], stream: &CoherentStream) {
    assert_line_size(hiers, stream.line_bytes());
    let mut scratch = ChunkScratch::new();
    for (packed, tids) in stream.chunks() {
        for h in hiers.iter_mut() {
            h.step_chunk(packed, tids, &mut scratch);
        }
    }
}

/// [`run_coherent_stream`] over raw `records`: each chunk is packed
/// once into the stream's form (shared by every hierarchy of the
/// group), then the same chunk kernel runs.
///
/// # Panics
/// If the hierarchies disagree on line size (the shared packed chunk
/// would be wrong for them).
pub fn run_coherent_fused(hiers: &mut [&mut CoherentHierarchy], records: &[MemRecord]) {
    let Some(first) = hiers.first() else { return };
    let line = first.geometry().line_bytes();
    assert_line_size(hiers, line);
    let mut scratch = ChunkScratch::new();
    let mut packed = vec![0u64; FUSE_CHUNK];
    let mut tids: Vec<ThreadId> = vec![0; FUSE_CHUNK];
    for chunk in records.chunks(FUSE_CHUNK) {
        let n = chunk.len();
        pack_coherent_chunk(chunk, line, &mut packed[..n], &mut tids[..n]);
        for h in hiers.iter_mut() {
            h.step_chunk(&packed[..n], &tids[..n], &mut scratch);
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
    fn stream_entry_matches_record_entry_across_core_counts() {
        let recs = trace(2 * FUSE_CHUNK as u64 + 301);
        let stream = CoherentStream::from_records(&recs, 32);
        let build_cores = |cores: usize| {
            let geom = CacheGeometry::from_sets(16, 32, 2).unwrap();
            HierarchyBuilder::new(geom, Arc::new(XorIndex::new(16).unwrap()))
                .cores(cores)
                .victim_depth(2)
                .l2(L2Mode::Shared(CacheGeometry::from_sets(64, 32, 4).unwrap()))
                .build()
                .unwrap()
        };
        // One stream drives a group mixing 1, 3 and 4 cores.
        let mut group: Vec<CoherentHierarchy> = [1, 3, 4].map(build_cores).into();
        {
            let mut refs: Vec<&mut CoherentHierarchy> = group.iter_mut().collect();
            run_coherent_stream(&mut refs, &stream);
        }
        for (h, cores) in group.iter().zip([1, 3, 4]) {
            let mut solo = build_cores(cores);
            run_coherent_fused(&mut [&mut solo], &recs);
            assert_eq!(h.merged_core_stats(), solo.merged_core_stats());
            assert_eq!(h.coherence_stats(), solo.coherence_stats());
            assert_eq!(h.shared_l2_stats(), solo.shared_l2_stats());
            assert_eq!(h.fast_path_commits(), solo.fast_path_commits());
            assert_eq!(h.now(), recs.len() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "line size does not match")]
    fn stream_entry_rejects_line_size_mismatch() {
        let stream = CoherentStream::from_records(&trace(10), 64);
        run_coherent_stream(&mut [&mut build(true)], &stream);
    }
}
