//! Memory-reference records — the unit every trace is made of.

use crate::Addr;

/// Identifier of the hardware thread/context that issued a reference.
/// The paper's SMT experiments run 2- and 4-thread mixes, so `u8` suffices.
pub type ThreadId = u8;

/// What kind of memory reference a record is.
///
/// The paper's cache configuration splits L1 into instruction and data
/// caches; instruction fetches go to L1I, loads/stores to L1D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    InstFetch,
}

impl AccessKind {
    /// True for loads and stores (references served by the L1 data cache).
    #[inline]
    pub fn is_data(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Write)
    }

    /// True for stores.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One memory reference: address, kind and issuing thread.
///
/// `MemRecord` is `Copy` and 16 bytes, so traces of tens of millions of
/// references stay cheap to store and iterate (the hot path of every
/// experiment is a linear scan over `&[MemRecord]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRecord {
    /// Byte address referenced.
    pub addr: Addr,
    /// Load / store / instruction fetch.
    pub kind: AccessKind,
    /// Issuing thread (0 for single-threaded traces).
    pub tid: ThreadId,
}

impl MemRecord {
    /// A data load by thread 0.
    #[inline]
    pub fn read(addr: Addr) -> Self {
        MemRecord {
            addr,
            kind: AccessKind::Read,
            tid: 0,
        }
    }

    /// A data store by thread 0.
    #[inline]
    pub fn write(addr: Addr) -> Self {
        MemRecord {
            addr,
            kind: AccessKind::Write,
            tid: 0,
        }
    }

    /// An instruction fetch by thread 0.
    #[inline]
    pub fn fetch(addr: Addr) -> Self {
        MemRecord {
            addr,
            kind: AccessKind::InstFetch,
            tid: 0,
        }
    }

    /// Returns the same record re-attributed to thread `tid`.
    #[inline]
    pub fn with_tid(mut self, tid: ThreadId) -> Self {
        self.tid = tid;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let r = MemRecord::read(0x1000);
        assert_eq!(r.addr, 0x1000);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.tid, 0);
        assert!(r.kind.is_data());
        assert!(!r.kind.is_write());

        let w = MemRecord::write(0x2000).with_tid(3);
        assert_eq!(w.tid, 3);
        assert!(w.kind.is_write());
        assert!(w.kind.is_data());

        let f = MemRecord::fetch(0x400000);
        assert!(!f.kind.is_data());
        assert!(!f.kind.is_write());
    }

    #[test]
    fn record_is_compact() {
        // The hot loops scan hundreds of millions of these; keep them at
        // 16 bytes (8 addr + 1 kind + 1 tid + padding).
        assert!(std::mem::size_of::<MemRecord>() <= 16);
    }
}
