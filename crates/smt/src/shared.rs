//! A shared direct-mapped cache where each thread uses its own index
//! function — the realization of the paper's Fig. 5 proposal, evaluated in
//! Fig. 13 with per-thread odd-multiplier indexing.

use std::sync::Arc;
use unicache_core::{
    AccessResult, BlockAddr, CacheGeometry, CacheModel, CacheStats, ConfigError, HitWhere,
    IndexFunction, MemRecord, Result, TaggedLane, ThreadId, FUSE_CHUNK,
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
    /// Chunk-step scratch, [`FUSE_CHUNK`] slots each: the chunk's sets,
    /// and the chunk indexed under one thread's function.
    sets: Vec<usize>,
    thread_sets: Vec<usize>,
}

impl PerThreadIndexCache {
    /// A shared direct-mapped cache; `index_fns[t]` maps thread `t`.
    pub fn new(geom: CacheGeometry, index_fns: Vec<Arc<dyn IndexFunction>>) -> Result<Self> {
        if geom.ways() != 1 {
            return Err(ConfigError::Mismatch {
                what: "per-thread-index cache is direct-mapped".into(),
            });
        }
        if index_fns.is_empty() {
            return Err(ConfigError::InvalidParameter {
                what: "need at least one thread index function".into(),
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
            index_fns,
            name,
            sets: vec![0; FUSE_CHUNK],
            thread_sets: vec![0; FUSE_CHUNK],
        })
    }

    /// Looks up and fills `set` for one reference. The line is tagged
    /// with the unclamped `tid`, so two ids sharing an index function
    /// still keep distinct copies of a block.
    #[inline]
    fn commit(
        &mut self,
        set: usize,
        block: BlockAddr,
        is_write: bool,
        tid: ThreadId,
    ) -> AccessResult {
        if is_write {
            self.stats.record_write();
        }
        let line = &mut self.lines[set];
        if line.valid && line.block == block && line.tid == tid {
            if is_write {
                line.dirty = true;
            }
            self.stats.record(set, HitWhere::Primary);
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
            self.stats.record_eviction(set);
        }
        *line = Line {
            block,
            tid,
            valid: true,
            dirty: is_write,
        };
        self.stats.record(set, HitWhere::MissDirect);
        AccessResult {
            where_hit: HitWhere::MissDirect,
            set,
            evicted,
        }
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
        self.commit(set, block, rec.kind.is_write(), rec.tid)
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

/// Each thread's index function maps the whole chunk with one
/// [`IndexFunction::index_many`] call, and a branch-free select keeps
/// the sets of that thread's records; then every record commits in
/// trace order. Indexing the whole chunk per thread costs less than
/// gathering each thread's run first: the gather's write cursor is a
/// serial dependency through every record, once per thread.
impl TaggedLane for PerThreadIndexCache {
    fn step_tagged(&mut self, blocks: &[BlockAddr], writes: &[bool], tids: &[ThreadId]) {
        assert!(
            writes.len() == blocks.len() && tids.len() == blocks.len(),
            "step_tagged: chunk slices differ in length"
        );
        let top = self.index_fns.len() - 1;
        let mut sets = std::mem::take(&mut self.sets);
        for ((blocks, writes), tids) in blocks
            .chunks(FUSE_CHUNK)
            .zip(writes.chunks(FUSE_CHUNK))
            .zip(tids.chunks(FUSE_CHUNK))
        {
            let n = blocks.len();
            for (t, f) in self.index_fns.iter().enumerate() {
                f.index_many(blocks, &mut self.thread_sets[..n]);
                for ((s, &tid), &set) in sets.iter_mut().zip(tids).zip(&self.thread_sets) {
                    if usize::from(tid).min(top) == t {
                        *s = set;
                    }
                }
            }
            for (((&block, &is_write), &tid), &set) in
                blocks.iter().zip(writes).zip(tids).zip(&sets)
            {
                self.commit(set, block, is_write, tid);
            }
        }
        self.sets = sets;
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

    #[test]
    fn flush_clears() {
        let mut c = PerThreadIndexCache::new(geom(8), vec![conventional(8)]).unwrap();
        c.access(read(1, 0));
        c.flush();
        assert!(!c.access(read(1, 0)).is_hit());
    }
}
