//! A shared direct-mapped cache where each thread uses its own index
//! function — the realization of the paper's Fig. 5 proposal, evaluated in
//! Fig. 13 with per-thread odd-multiplier indexing.

use std::sync::Arc;
use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, HitWhere,
    IndexFunction, MemRecord, Result, StatsSink, TaggedLane, ThreadId, FUSE_CHUNK,
};

#[derive(Debug, Clone, Copy)]
struct Line {
    block: u64,
    /// Thread whose index function placed this block (needed so a hit by a
    /// different thread does not silently alias: a block is looked up only
    /// under the placing thread's mapping).
    tid: u8,
    valid: bool,
    dirty: bool,
}

/// Shared L1 with per-thread index functions.
///
/// Threads in an SMT core share the physical cache; here thread `t`'s
/// references are mapped by `index_fns[t]`. Because different functions
/// map the same block to different sets, the directory records which
/// thread placed each line; cross-thread sharing of data is rare in the
/// paper's multiprogrammed mixes, so, like the paper, we treat each
/// thread's working set as private.
pub struct PerThreadIndexCache {
    geom: CacheGeometry,
    index_fns: Vec<Arc<dyn IndexFunction>>,
    lines: Vec<Line>,
    stats: CacheStats,
    name: String,
    /// Chunk-step scratch: two [`FUSE_CHUNK`]-slot buffers, read as one
    /// run of `2 × FUSE_CHUNK` slots holding a row per index function
    /// (see the [`TaggedLane`] impl). Its size does not grow with the
    /// thread count.
    rows: [Vec<usize>; 2],
}

impl PerThreadIndexCache {
    /// A shared direct-mapped cache; `index_fns[t]` maps thread `t`.
    pub fn new(geom: CacheGeometry, index_fns: Vec<Arc<dyn IndexFunction>>) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "per-thread-index cache is direct-mapped".into(),
            });
        }
        if index_fns.is_empty() || index_fns.len() > 256 {
            return Err(ConfigError::InvalidParameter {
                what: format!(
                    "need 1 to 256 thread index functions (thread ids are 8-bit), got {}",
                    index_fns.len()
                ),
            });
        }
        for f in &index_fns {
            if f.num_sets() > geom.num_sets() {
                return Err(ConfigError::Mismatch {
                    what: format!(
                        "index '{}' covers {} sets; cache has {}",
                        f.name(),
                        f.num_sets(),
                        geom.num_sets()
                    ),
                });
            }
        }
        let names: Vec<&str> = index_fns.iter().map(|f| f.name()).collect();
        let name = format!("per_thread_index[{}]", names.join(","));
        Ok(PerThreadIndexCache {
            geom,
            lines: vec![
                Line {
                    block: 0,
                    tid: 0,
                    valid: false,
                    dirty: false
                };
                geom.num_sets()
            ],
            stats: CacheStats::new(geom.num_sets()),
            rows: [vec![0; FUSE_CHUNK], vec![0; FUSE_CHUNK]],
            index_fns,
            name,
        })
    }
}

/// Looks up and fills `set` for one reference, its counters written to
/// `sink`. The line is tagged with the unclamped `tid`, so two ids
/// sharing an index function still keep distinct copies of a block.
#[inline(always)]
fn commit<S: StatsSink>(
    lines: &mut [Line],
    sink: &mut S,
    set: usize,
    block: BlockAddr,
    is_write: bool,
    tid: ThreadId,
) -> AccessResult {
    sink.write(is_write);
    let line = &mut lines[set];
    if line.valid && line.block == block && line.tid == tid {
        line.dirty |= is_write;
        sink.record(set, HitWhere::Primary);
        return AccessResult {
            where_hit: HitWhere::Primary,
            set,
            evicted: None,
        };
    }
    // Miss: replace whatever lives here (possibly another thread's
    // line — the inter-thread conflict the experiment measures).
    let evicted = if line.valid { Some(line.block) } else { None };
    if line.valid {
        sink.eviction(set);
    }
    *line = Line {
        block,
        tid,
        valid: true,
        dirty: is_write,
    };
    sink.record(set, HitWhere::MissDirect);
    AccessResult {
        where_hit: HitWhere::MissDirect,
        set,
        evicted,
    }
}

impl CacheModel for PerThreadIndexCache {
    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn access(&mut self, rec: MemRecord) -> AccessResult {
        let block = self.geom.block_addr(rec.addr);
        // Ids past the last thread take the last thread's function.
        let t = usize::from(rec.tid).min(self.index_fns.len() - 1);
        let set = self.index_fns[t].index_block(block);
        commit(
            &mut self.lines,
            &mut self.stats,
            set,
            block,
            rec.kind.is_write(),
            rec.tid,
        )
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
        self.reset_stats();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Each thread's index function maps the chunk into its own row of the
/// scratch with one [`IndexFunction::index_many`] call; then every
/// record commits in trace order, reading its set from the row of its
/// thread, with the aggregate counters added once per chunk through
/// [`CacheStats::tally`]. Indexing the whole chunk per thread costs less
/// than gathering each thread's run first: the gather's write cursor is
/// a serial dependency through every record, once per thread. Up to two
/// threads, a row holds a whole [`FUSE_CHUNK`]-record chunk; more
/// threads step the chunk in shorter runs, a power-of-two fraction of
/// it, so that no row straddles the two scratch buffers.
impl TaggedLane for PerThreadIndexCache {
    fn step_tagged(&mut self, blocks: &[BlockAddr], writes: &[bool], tids: &[ThreadId]) {
        assert!(
            writes.len() == blocks.len() && tids.len() == blocks.len(),
            "step_tagged: chunk slices differ in length"
        );
        let threads = self.index_fns.len();
        let top = threads - 1;
        let run = FUSE_CHUNK / threads.div_ceil(2).next_power_of_two();
        for ((blocks, writes), tids) in blocks
            .chunks(run)
            .zip(writes.chunks(run))
            .zip(tids.chunks(run))
        {
            let n = blocks.len();
            let [first, second] = &mut self.rows;
            let rows = first.chunks_mut(run).chain(second.chunks_mut(run));
            for (f, row) in self.index_fns.iter().zip(rows) {
                f.index_many(blocks, &mut row[..n]);
            }
            let (lines, rows) = (&mut self.lines, &self.rows);
            self.stats.tally(|t| {
                for (i, ((&block, &is_write), &tid)) in
                    blocks.iter().zip(writes).zip(tids).enumerate()
                {
                    let slot = usize::from(tid).min(top) * run + i;
                    let set = rows[slot / FUSE_CHUNK][slot % FUSE_CHUNK];
                    commit(lines, t, set, block, is_write, tid);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_indexing::{ModuloIndex, OddMultiplierIndex};

    fn geom(sets: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, 32, 1).unwrap()
    }

    fn conventional(sets: usize) -> Arc<dyn IndexFunction> {
        Arc::new(ModuloIndex::new(sets).unwrap())
    }

    fn oddmul(sets: usize, p: u64) -> Arc<dyn IndexFunction> {
        Arc::new(OddMultiplierIndex::new(sets, p).unwrap())
    }

    fn read(b: u64, tid: u8) -> MemRecord {
        MemRecord::read(b * 32).with_tid(tid)
    }

    #[test]
    fn validation() {
        assert!(PerThreadIndexCache::new(geom(8), vec![]).is_err());
        assert!(PerThreadIndexCache::new(geom(8), vec![conventional(8); 256]).is_ok());
        assert!(
            PerThreadIndexCache::new(geom(8), vec![conventional(8); 257]).is_err(),
            "more index functions than 8-bit thread ids"
        );
        assert!(
            PerThreadIndexCache::new(geom(8), vec![conventional(16)]).is_err(),
            "oversized index rejected"
        );
        assert!(PerThreadIndexCache::new(
            CacheGeometry::from_sets(8, 32, 2).unwrap(),
            vec![conventional(8)]
        )
        .is_err());
    }

    #[test]
    fn same_index_same_behaviour_as_plain_cache() {
        let mut c =
            PerThreadIndexCache::new(geom(8), vec![conventional(8), conventional(8)]).unwrap();
        // Threads 0 and 1 both touch block 5 — with identical index
        // functions they conflict on the same set but tid-tagging keeps
        // them distinct lines logically (the second evicts the first).
        c.access(read(5, 0));
        let r = c.access(read(5, 1));
        assert!(!r.is_hit(), "tid tag distinguishes the copies");
        let r = c.access(read(5, 1));
        assert!(r.is_hit());
    }

    #[test]
    fn different_multipliers_separate_conflicting_threads() {
        // Two threads hammer the same two conflicting blocks. With a
        // shared conventional index they thrash; with distinct odd
        // multipliers the paper's Fig. 13 effect appears.
        let mixes: Vec<(Vec<Arc<dyn IndexFunction>>, &str)> = vec![
            (vec![conventional(64), conventional(64)], "same"),
            (vec![oddmul(64, 9), oddmul(64, 21)], "different"),
        ];
        let mut results = Vec::new();
        for (fns, label) in mixes {
            let mut c = PerThreadIndexCache::new(geom(64), fns).unwrap();
            for _ in 0..500 {
                // Thread 0 and thread 1 both cycle blocks that collide
                // under conventional indexing (same low bits).
                c.access(read(0, 0));
                c.access(read(64, 0));
                c.access(read(128, 1));
                c.access(read(192, 1));
            }
            results.push((label, c.stats().miss_rate()));
        }
        let same = results[0].1;
        let diff = results[1].1;
        assert!(
            diff < same,
            "per-thread multipliers should reduce misses: {diff} vs {same}"
        );
    }

    #[test]
    fn out_of_range_tid_clamps() {
        // tid 7 > threads - 1 is mapped by the last thread's function.
        let last = oddmul(64, 9);
        let mut c =
            PerThreadIndexCache::new(geom(64), vec![conventional(64), last.clone()]).unwrap();
        let block = (0..64 * 64u64)
            .find(|&b| last.index_block(b) != b as usize % 64)
            .unwrap();
        let set = last.index_block(block);
        assert!(!c.access(read(block, 7)).is_hit());
        assert!(c.access(read(block, 7)).is_hit());
        let s = &c.stats().per_set()[set];
        assert_eq!((s.accesses, s.hits, s.misses), (2, 1, 1));
        assert_eq!(c.stats().accesses(), 2);
    }

    /// Chunk steps == per-record `access` at every run length the
    /// scratch splits a chunk into: whole chunks (1 and 2 threads), half
    /// chunks (3 threads, the fourth row unused) and quarter chunks (5),
    /// with ids past the last thread and a ragged last chunk.
    #[test]
    fn tagged_steps_match_per_record_access_for_any_thread_count() {
        for threads in [1, 2, 3, 5] {
            let fns = || {
                (0..threads)
                    .map(|t| oddmul(64, [9, 21, 31, 61, 3][t]))
                    .collect::<Vec<_>>()
            };
            let mut chunked = PerThreadIndexCache::new(geom(64), fns()).unwrap();
            let mut solo = PerThreadIndexCache::new(geom(64), fns()).unwrap();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let recs: Vec<MemRecord> = (0..2 * FUSE_CHUNK + 77)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let r = read((x >> 33) % 512, (i % (threads + 1)) as u8);
                    if x >> 60 == 0 {
                        MemRecord::write(r.addr).with_tid(r.tid)
                    } else {
                        r
                    }
                })
                .collect();
            for chunk in recs.chunks(FUSE_CHUNK) {
                let blocks: Vec<u64> = chunk.iter().map(|r| r.addr / 32).collect();
                let writes: Vec<bool> = chunk.iter().map(|r| r.kind.is_write()).collect();
                let tids: Vec<u8> = chunk.iter().map(|r| r.tid).collect();
                chunked.step_tagged(&blocks, &writes, &tids);
            }
            for &r in &recs {
                solo.access(r);
            }
            assert_eq!(chunked.stats(), solo.stats(), "{threads} threads");
            assert!(solo.stats().writes > 0 && solo.stats().hits() > 0);
        }
    }

    #[test]
    fn flush_clears() {
        let mut c = PerThreadIndexCache::new(geom(8), vec![conventional(8)]).unwrap();
        c.access(read(1, 0));
        c.flush();
        assert!(!c.access(read(1, 0)).is_hit());
    }
}
