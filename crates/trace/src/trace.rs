//! The [`Trace`] container: an in-memory sequence of memory references.

use unicache_core::{AccessKind, Addr, BlockStream, MemRecord, ThreadId};

/// Per-kind reference counts, computed in one traversal (see
/// [`Trace::access_mix`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessMix {
    /// Load references.
    pub reads: usize,
    /// Store references.
    pub writes: usize,
    /// Instruction fetches.
    pub fetches: usize,
}

/// An ordered memory-reference trace.
///
/// Thin, transparent wrapper over `Vec<MemRecord>` with the query helpers
/// the experiments need (unique block addresses for Givargis training,
/// read/write splits, per-thread views).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<MemRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
        }
    }

    /// Wraps an existing record vector.
    pub fn from_records(records: Vec<MemRecord>) -> Self {
        Trace { records }
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, rec: MemRecord) {
        self.records.push(rec);
    }

    /// Number of references.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace holds no references.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Borrow the raw records (the hot path: models run over `&[MemRecord]`).
    #[inline]
    pub fn records(&self) -> &[MemRecord] {
        &self.records
    }

    /// Consumes the trace, yielding the raw record vector.
    pub fn into_records(self) -> Vec<MemRecord> {
        self.records
    }

    /// Iterator over records.
    pub fn iter(&self) -> std::slice::Iter<'_, MemRecord> {
        self.records.iter()
    }

    /// Read/write/fetch counts in a single traversal. Callers needing
    /// more than one of the counts should take the mix once instead of
    /// paying one pass per counter.
    pub fn access_mix(&self) -> AccessMix {
        let mut mix = AccessMix::default();
        for r in &self.records {
            match r.kind {
                AccessKind::Read => mix.reads += 1,
                AccessKind::Write => mix.writes += 1,
                AccessKind::InstFetch => mix.fetches += 1,
            }
        }
        mix
    }

    /// Number of store references.
    pub fn write_count(&self) -> usize {
        self.access_mix().writes
    }

    /// Number of load references.
    pub fn read_count(&self) -> usize {
        self.access_mix().reads
    }

    /// The set of unique byte addresses touched. Givargis' algorithm is
    /// defined over the *unique* addresses of a program (paper Section
    /// II.A).
    ///
    /// Sort-dedup rather than a hash set: the output must be sorted
    /// anyway, and sorting a dense `Vec<u64>` then deduping in place
    /// avoids the per-insert hashing and the scattered heap of a
    /// `HashSet` (multi-million-record traces make this a measurable
    /// part of Givargis training setup).
    pub fn unique_addrs(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.records.iter().map(|r| r.addr).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The set of unique *block* addresses for a given line size
    /// ([`BlockStream::unique_blocks`] over the whole trace).
    ///
    /// # Panics
    /// If `line_bytes` is not a power of two.
    pub fn unique_blocks(&self, line_bytes: u64) -> Vec<Addr> {
        BlockStream::from_records(&self.records, line_bytes).unique_blocks()
    }

    /// A new trace containing only this thread's references.
    pub fn filter_tid(&self, tid: ThreadId) -> Trace {
        Trace {
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| r.tid == tid)
                .collect(),
        }
    }

    /// A new trace containing only data references (loads + stores).
    pub fn data_only(&self) -> Trace {
        Trace {
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| r.kind.is_data())
                .collect(),
        }
    }

    /// A new trace with every record re-attributed to `tid` (used when
    /// single-threaded workload traces are combined into SMT mixes).
    pub fn with_tid(&self, tid: ThreadId) -> Trace {
        Trace {
            records: self.records.iter().map(|r| r.with_tid(tid)).collect(),
        }
    }

    /// Appends all records of `other`.
    pub fn extend(&mut self, other: &Trace) {
        self.records.extend_from_slice(&other.records);
    }
}

impl FromIterator<MemRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = MemRecord>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemRecord;
    type IntoIter = std::slice::Iter<'a, MemRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MemRecord;
    type IntoIter = std::vec::IntoIter<MemRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(MemRecord::read(0x1000));
        t.push(MemRecord::write(0x1000));
        t.push(MemRecord::read(0x1020));
        t.push(MemRecord::fetch(0x400000));
        t.push(MemRecord::read(0x2000).with_tid(1));
        t
    }

    #[test]
    fn counting_and_views() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.read_count(), 3);
        assert_eq!(t.write_count(), 1);
        let mix = t.access_mix();
        assert_eq!(
            mix,
            AccessMix {
                reads: 3,
                writes: 1,
                fetches: 1
            }
        );
        assert_eq!(mix.reads + mix.writes + mix.fetches, t.len());
        assert_eq!(t.data_only().len(), 4);
        assert_eq!(t.filter_tid(1).len(), 1);
        assert_eq!(t.filter_tid(0).len(), 4);
    }

    #[test]
    fn unique_addresses_are_sorted_and_deduped() {
        let t = sample();
        assert_eq!(t.unique_addrs(), vec![0x1000, 0x1020, 0x2000, 0x400000]);
        // 32-byte blocks: 0x1000 and 0x1020 are distinct; 0x1000 repeated
        // collapses.
        assert_eq!(
            t.unique_blocks(32),
            vec![0x1000 >> 5, 0x1020 >> 5, 0x2000 >> 5, 0x400000 >> 5]
        );
    }

    #[test]
    fn with_tid_relabels_everything() {
        let t = sample().with_tid(7);
        assert!(t.iter().all(|r| r.tid == 7));
    }

    #[test]
    fn extend_and_from_iter() {
        let mut a = sample();
        let b = sample();
        a.extend(&b);
        assert_eq!(a.len(), 10);
        let c: Trace = b.iter().copied().collect();
        assert_eq!(c.len(), 5);
        let d: Vec<MemRecord> = c.clone().into_iter().collect();
        assert_eq!(d.len(), 5);
        assert_eq!(c.into_records().len(), 5);
    }

    #[test]
    fn empty_trace_queries() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert!(t.unique_addrs().is_empty());
        assert!(t.unique_blocks(64).is_empty());
        assert_eq!(t.data_only().len(), 0);
    }
}
