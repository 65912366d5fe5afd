//! Batched single-pass simulation: chunk-decoded block streams.
//!
//! Every cache model in the workspace begins its `access` with the same
//! two decodes — `geom.block_addr(rec.addr)` (a shift by the line-offset
//! bits) and `rec.kind.is_write()`. When the same trace is replayed
//! through many models at the same line size — which is exactly what the
//! figure runners do — that decode is repeated per (model × record).
//!
//! [`BlockStream`] is a view of a trace at one line size: the records
//! plus the shift, nothing decoded up front. Models are driven with
//! [`run_fused`], the one stream driver: it decodes each
//! [`FUSE_CHUNK`]-record chunk once into L1-resident scratch and hands it
//! to every [`FusedLane`], so per-record work starts directly at the
//! index function, and driving a `&mut dyn FusedLane` costs one virtual
//! call per *chunk*, after which the lane's monomorphized `step_chunk`
//! body runs with its `access_block` calls inlined. A group of one lane
//! is the solo case. No decoded copy of a trace outlives its chunk.
//!
//! Shared caches that route by thread id — the SMT models of Figs. 13/14
//! — are [`TaggedLane`]s: they step the same decoded chunk plus one
//! thread id per record, filled straight from the streaming interleave
//! (`unicache_smt::run_interleaved`). Coherent hierarchies, which also
//! route by thread id, read [`CoherentStream`]: packed
//! `(block << 1) | is_write` words plus one thread-id byte per record.

use crate::footprint::BlockCounter;
use crate::model::{AccessResult, CacheModel};
use crate::record::{MemRecord, ThreadId};
use crate::BlockAddr;

/// A trace viewed as `(block address, is_write)` pairs for one line
/// size: the borrowed records plus the line-offset shift. The decode
/// happens per chunk inside [`run_fused`] (or per item in
/// [`iter`](Self::iter)), so the view costs no memory of its own.
#[derive(Debug, Clone, Copy)]
pub struct BlockStream<'a> {
    records: &'a [MemRecord],
    shift: u32,
}

impl<'a> BlockStream<'a> {
    /// Views `records` for caches with `line_bytes`-byte lines.
    ///
    /// # Panics
    /// If `line_bytes` is not a power of two.
    pub fn from_records(records: &'a [MemRecord], line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size {line_bytes} not a power of two"
        );
        BlockStream {
            records,
            shift: line_bytes.trailing_zeros(),
        }
    }

    /// The line size this stream decodes for.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        1 << self.shift
    }

    /// Number of references.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the stream holds no references.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates `(block, is_write)` pairs in trace order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, bool)> + 'a {
        let shift = self.shift;
        self.records
            .iter()
            .map(move |r| (r.addr >> shift, r.kind.is_write()))
    }

    /// The sorted set of distinct block addresses in the view (the
    /// Givargis training input), counted in a [`BlockCounter`] so only
    /// the U distinct blocks are sorted, not all n references.
    pub fn unique_blocks(&self) -> Vec<BlockAddr> {
        let mut counter = BlockCounter::new();
        for (block, _) in self.iter() {
            counter.add(block);
        }
        counter.into_blocks()
    }
}

/// Records per fused chunk: big enough to amortize the per-chunk virtual
/// dispatches (one `step_chunk` per lane, one `index_many` inside it),
/// small enough that the decoded scratch (`blocks` + `writes` + each
/// lane's set buffer, ~17 bytes/record — ~17 KB per chunk) stays
/// resident in a 32 KB L1D alongside the hot set arrays.
pub const FUSE_CHUNK: usize = 1024;

/// One lane's traffic to the next cache level, in the order a two-level
/// hierarchy sends it: for every miss, the missed block (a fill read),
/// then the victim the miss reported, if any (a write-back, clean
/// victims included). Hits send nothing. `blocks()[i]` pairs with
/// `writes()[i]`, `true` for a write-back.
#[derive(Debug, Default)]
pub struct Egress {
    blocks: Vec<BlockAddr>,
    writes: Vec<bool>,
}

impl Egress {
    /// The logged block addresses, in order.
    #[inline]
    pub fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }

    /// `writes()[i]`: whether `blocks()[i]` is a write-back rather than a
    /// fill.
    #[inline]
    pub fn writes(&self) -> &[bool] {
        &self.writes
    }

    /// Empties the log, keeping its capacity.
    fn clear(&mut self) {
        self.blocks.clear();
        self.writes.clear();
    }

    #[inline]
    fn push(&mut self, block: BlockAddr, is_write: bool) {
        self.blocks.push(block);
        self.writes.push(is_write);
    }
}

/// Where a chunk body sends each access's outcome: nowhere (`()`, which
/// the plain [`FusedLane::step_chunk`] passes and which compiles to
/// nothing) or an [`Egress`] log. Lanes with their own chunk body make it
/// generic over this, so [`FusedLane::step_chunk_egress`] runs the same
/// body as `step_chunk`.
pub trait EgressSink {
    /// Sees the outcome `r` of one access to `block`.
    fn access(&mut self, block: BlockAddr, r: &AccessResult);
}

impl EgressSink for () {
    #[inline(always)]
    fn access(&mut self, _block: BlockAddr, _r: &AccessResult) {}
}

impl EgressSink for Egress {
    #[inline(always)]
    fn access(&mut self, block: BlockAddr, r: &AccessResult) {
        if !r.is_hit() {
            self.push(block, false);
            if let Some(victim) = r.evicted {
                self.push(victim, true);
            }
        }
    }
}

/// A cache model that can ride in a fused multi-scheme pass.
///
/// The fused kernel decodes a [`BlockStream`] chunk once into plain
/// `(blocks, writes)` slices and then hands the *same* decoded chunk to
/// every lane. Calling [`FusedLane::step_chunk`] through
/// `&mut dyn FusedLane` costs one virtual dispatch per (lane × chunk);
/// the default body below is monomorphized per concrete model, so its
/// `access_block` calls statically dispatch and inline — this default is
/// the documented fallback for stateful schemes with no cheaper chunk
/// form (adaptive, B-cache, skewed). Models with a separable index
/// computation (the conventional cache, column-associative) override
/// `step_chunk` to vectorize the index with
/// [`crate::IndexFunction::index_many`] first.
///
/// The chunk carries no thread id; caches that route by thread step
/// the same chunk plus thread ids as a [`TaggedLane`].
pub trait FusedLane: CacheModel {
    /// Processes one decoded chunk; `blocks[i]` pairs with `writes[i]`.
    fn step_chunk(&mut self, blocks: &[BlockAddr], writes: &[bool]) {
        for (&block, &is_write) in blocks.iter().zip(writes) {
            let _r = self.access_block(block, is_write);
            #[cfg(feature = "checked")]
            debug_assert!(
                _r.set < self.geometry().num_sets(),
                "model '{}' returned out-of-range set {}",
                self.name(),
                _r.set
            );
        }
    }

    /// [`step_chunk`](Self::step_chunk), also appending the chunk's
    /// [`Egress`] to `egress`. It leaves the lane exactly as `step_chunk`
    /// would. The default runs [`CacheModel::access_block`] per record;
    /// lanes with their own chunk body override it to run that body.
    fn step_chunk_egress(&mut self, blocks: &[BlockAddr], writes: &[bool], egress: &mut Egress) {
        for (&block, &is_write) in blocks.iter().zip(writes) {
            let r = self.access_block(block, is_write);
            egress.access(block, &r);
        }
    }
}

/// Blanket impl so `Box<dyn FusedLane>` is itself a lane — the fuse-group
/// scheduler holds heterogeneous scheme collections this way.
impl<T: FusedLane + ?Sized> FusedLane for Box<T> {
    fn step_chunk(&mut self, blocks: &[BlockAddr], writes: &[bool]) {
        (**self).step_chunk(blocks, writes)
    }

    fn step_chunk_egress(&mut self, blocks: &[BlockAddr], writes: &[bool], egress: &mut Egress) {
        (**self).step_chunk_egress(blocks, writes, egress)
    }
}

/// A shared cache that routes each reference by its issuing thread (the
/// SMT models of Figs. 13/14), stepped one decoded chunk at a time: the
/// [`FusedLane`] chunk plus `tids[i]`, the [`MemRecord::tid`] of record
/// `i`. Stepping a chunk must leave the model exactly as calling
/// [`CacheModel::access`] on each record in order would.
pub trait TaggedLane: CacheModel {
    /// Processes one decoded chunk; `blocks[i]`, `writes[i]` and
    /// `tids[i]` describe record `i`.
    fn step_tagged(&mut self, blocks: &[BlockAddr], writes: &[bool], tids: &[ThreadId]);
}

/// Drives all `lanes` over `stream` in one fused traversal: each chunk of
/// records is decoded exactly once into shared scratch and then
/// replayed through every lane (chunk-outer, lane-inner). Statistically
/// equivalent to running each lane alone over the records with
/// [`CacheModel::run`] — every lane sees the same references in the same
/// order, and lanes never observe each other — but the trace is decoded
/// and streamed from memory once per *group* instead of once per scheme,
/// and virtual dispatch costs one call per (lane × chunk), not per record.
///
/// # Panics
/// If any lane's line size differs from the stream's (the decoded block
/// addresses would be wrong for it).
pub fn run_fused(lanes: &mut [&mut dyn FusedLane], stream: &BlockStream) {
    for_each_lane_chunk(lanes, stream, |_, lane, blocks, writes| {
        lane.step_chunk(blocks, writes)
    });
}

/// [`run_fused`], with every lane also logging its [`Egress`]: after lane
/// `i` steps a chunk, `drain(i, egress)` sees lane `i`'s egress of that
/// chunk, so a next level replays it chunk by chunk and no egress is held
/// for the whole stream.
///
/// # Panics
/// As [`run_fused`].
pub fn run_fused_egress(
    lanes: &mut [&mut dyn FusedLane],
    stream: &BlockStream,
    mut drain: impl FnMut(usize, &Egress),
) {
    let mut egress = Egress::default();
    for_each_lane_chunk(lanes, stream, |i, lane, blocks, writes| {
        egress.clear();
        lane.step_chunk_egress(blocks, writes, &mut egress);
        drain(i, &egress);
    });
}

/// The fused traversal: decodes each chunk of `stream` once into shared
/// scratch, then calls `step(i, lane, blocks, writes)` for every lane in
/// order (chunk-outer, lane-inner).
#[inline(always)]
fn for_each_lane_chunk(
    lanes: &mut [&mut dyn FusedLane],
    stream: &BlockStream,
    mut step: impl FnMut(usize, &mut dyn FusedLane, &[BlockAddr], &[bool]),
) {
    for l in lanes.iter() {
        assert_eq!(
            l.geometry().line_bytes(),
            stream.line_bytes(),
            "lane '{}' line size does not match stream",
            l.name()
        );
    }
    let mut blocks = [0u64; FUSE_CHUNK];
    let mut writes = [false; FUSE_CHUNK];
    for chunk in stream.records.chunks(FUSE_CHUNK) {
        let n = chunk.len();
        for ((b, w), r) in blocks.iter_mut().zip(&mut writes).zip(chunk) {
            *b = r.addr >> stream.shift;
            *w = r.kind.is_write();
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            step(i, &mut **lane, &blocks[..n], &writes[..n]);
        }
    }
}

/// A merged multi-thread trace pre-decoded for coherent hierarchies:
/// `(block << 1) | is_write`, one `u64` per record, plus one thread-id
/// byte per record, which coherent models need to route each reference
/// to its serving core.
///
/// At 9 bytes per record (against 16 for a [`MemRecord`]) one stream
/// serves every hierarchy replaying the mix at its line size. Each
/// hierarchy then decodes a chunk with a shift ([`unpack_blocks`]), a
/// mask (the write flag) and its own thread-to-core table
/// ([`core_routes`]), so differing core counts share one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherentStream {
    line_bytes: u64,
    packed: Vec<u64>,
    tids: Vec<ThreadId>,
}

impl CoherentStream {
    /// An empty stream for `line_bytes`-byte lines with room for
    /// `capacity` records — the streaming builder: [`push`](Self::push)
    /// each record of a merge as it is produced, so the merged
    /// `MemRecord` sequence is never materialised.
    ///
    /// # Panics
    /// If `line_bytes` is not a power of two.
    pub fn with_capacity(line_bytes: u64, capacity: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size {line_bytes} not a power of two"
        );
        CoherentStream {
            line_bytes,
            packed: Vec::with_capacity(capacity),
            tids: Vec::with_capacity(capacity),
        }
    }

    /// Decodes `records` for caches with `line_bytes`-byte lines.
    ///
    /// # Panics
    /// As [`with_capacity`](Self::with_capacity) and [`push`](Self::push).
    pub fn from_records(records: &[MemRecord], line_bytes: u64) -> Self {
        let mut s = Self::with_capacity(line_bytes, records.len());
        for &r in records {
            s.push(r);
        }
        s
    }

    /// Appends one record.
    ///
    /// # Panics
    /// If the record's block number needs all 64 bits (no room for the
    /// write flag).
    #[inline]
    pub fn push(&mut self, rec: MemRecord) {
        self.packed
            .push(pack_coherent(&rec, self.line_bytes.trailing_zeros()));
        self.tids.push(rec.tid);
    }

    /// The line size this stream was decoded for.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of references.
    #[inline]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when the stream holds no references.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The stream in [`FUSE_CHUNK`]-record chunks of `(packed words,
    /// thread ids)` — the form the coherent chunk kernel consumes.
    pub fn chunks(&self) -> impl Iterator<Item = (&[u64], &[ThreadId])> + '_ {
        self.packed
            .chunks(FUSE_CHUNK)
            .zip(self.tids.chunks(FUSE_CHUNK))
    }
}

/// The coherent stream's encoder: `(block << 1) | is_write` for a line
/// offset of `shift` bits.
#[inline]
fn pack_coherent(rec: &MemRecord, shift: u32) -> u64 {
    let block = rec.addr >> shift;
    assert!(
        block < 1 << 63,
        "block addresses exceed 63 bits; cannot pack write flag"
    );
    (block << 1) | u64::from(rec.kind.is_write())
}

/// Packs one chunk of raw records into [`CoherentStream`] form — the
/// same words and thread ids [`CoherentStream::from_records`] stores —
/// so a caller holding a `&[MemRecord]` drives the same chunk kernel
/// as one holding a stream.
///
/// # Panics
/// As [`CoherentStream::with_capacity`] and [`CoherentStream::push`],
/// or if the scratch slices are not exactly `records.len()` long.
pub fn pack_coherent_chunk(
    records: &[MemRecord],
    line_bytes: u64,
    packed: &mut [u64],
    tids: &mut [ThreadId],
) {
    assert!(
        line_bytes.is_power_of_two(),
        "line size {line_bytes} not a power of two"
    );
    assert!(
        packed.len() == records.len() && tids.len() == records.len(),
        "pack_coherent_chunk: scratch length differs from the record chunk"
    );
    let shift = line_bytes.trailing_zeros();
    for ((p, t), r) in packed.iter_mut().zip(tids.iter_mut()).zip(records) {
        *p = pack_coherent(r, shift);
        *t = r.tid;
    }
}

/// The block numbers of a chunk of packed `(block << 1) | is_write`
/// words (the shift half of the decode; the write flag is `word & 1`).
#[inline]
pub fn unpack_blocks(packed: &[u64], blocks: &mut [BlockAddr]) {
    debug_assert_eq!(packed.len(), blocks.len());
    for (b, &p) in blocks.iter_mut().zip(packed) {
        *b = p >> 1;
    }
}

/// The serving core of every thread id on a `cores`-core model:
/// `routes[tid] == tid % cores`, the routing rule of
/// [`crate::CoherentModel::run`], as a table built once per model so
/// the per-record route is a load, not a division.
///
/// # Panics
/// If `cores` is 0.
pub fn core_routes(cores: usize) -> [u8; 256] {
    assert!(cores >= 1, "a coherent model needs at least one core");
    // tid < 256, so tid % cores < 256 for any core count.
    std::array::from_fn(|tid| (tid % cores) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessKind;

    fn recs() -> Vec<MemRecord> {
        vec![
            MemRecord::read(0x1000),
            MemRecord::write(0x101F),
            MemRecord::fetch(0x2040),
        ]
    }

    #[test]
    fn decodes_blocks_and_write_flags() {
        let records = recs();
        let s = BlockStream::from_records(&records, 32);
        assert_eq!(s.len(), 3);
        assert_eq!(s.line_bytes(), 32);
        let v: Vec<(u64, bool)> = s.iter().collect();
        assert_eq!(
            v,
            vec![
                (0x1000 >> 5, false),
                (0x101F >> 5, true),
                (0x2040 >> 5, false),
            ]
        );
        // 0x1000 and 0x101F share a 32-byte line.
        assert_eq!(v[0].0, v[1].0);
        assert_eq!(s.unique_blocks(), vec![0x1000 >> 5, 0x2040 >> 5]);
        // A sub-slice is a view of its own records only.
        let tail = BlockStream::from_records(&records[2..], 32);
        assert_eq!(tail.unique_blocks(), vec![0x2040 >> 5]);
    }

    #[test]
    fn kind_maps_to_write_flag_only_for_stores() {
        for (kind, expect) in [
            (AccessKind::Read, false),
            (AccessKind::Write, true),
            (AccessKind::InstFetch, false),
        ] {
            let r = MemRecord {
                addr: 0x40,
                kind,
                tid: 0,
            };
            let records = [r];
            let s = BlockStream::from_records(&records, 32);
            assert_eq!(s.iter().next().unwrap().1, expect);
        }
    }

    #[test]
    fn empty_stream() {
        let s = BlockStream::from_records(&[], 64);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(s.unique_blocks().is_empty());
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_bad_line_size() {
        let _ = BlockStream::from_records(&recs(), 48);
    }

    /// Records with every access kind, a thread-id sweep over all 256
    /// values and addresses spread over many lines.
    fn mixed_records(n: usize) -> Vec<MemRecord> {
        (0..n as u64)
            .map(|i| MemRecord {
                addr: i.wrapping_mul(0x9e37_79b9) % (1 << 40),
                kind: [AccessKind::Read, AccessKind::Write, AccessKind::InstFetch]
                    [(i % 3) as usize],
                tid: (i * 7 % 256) as u8,
            })
            .collect()
    }

    #[test]
    fn coherent_stream_round_trips_the_per_record_decode() {
        let ragged = [
            0,
            1,
            7,
            FUSE_CHUNK - 1,
            FUSE_CHUNK,
            FUSE_CHUNK + 1,
            2 * FUSE_CHUNK + 333,
        ];
        for len in ragged {
            let records = mixed_records(len);
            for line in [1u64, 32, 64] {
                let stream = CoherentStream::from_records(&records, line);
                assert_eq!(stream.len(), len);
                assert_eq!(stream.line_bytes(), line);
                let shift = line.trailing_zeros();
                // The chunk kernel's decode: shift, mask, route table.
                for cores in 1..=8usize {
                    let routes = core_routes(cores);
                    let mut at = 0;
                    for (packed, tids) in stream.chunks() {
                        assert!(packed.len() <= FUSE_CHUNK && packed.len() == tids.len());
                        let mut blocks = vec![0; packed.len()];
                        unpack_blocks(packed, &mut blocks);
                        for i in 0..packed.len() {
                            let r = &records[at + i];
                            assert_eq!(blocks[i], r.addr >> shift);
                            assert_eq!(packed[i] & 1 == 1, r.kind.is_write());
                            assert_eq!(tids[i], r.tid);
                            assert_eq!(
                                usize::from(routes[usize::from(tids[i])]),
                                usize::from(r.tid) % cores,
                                "cores {cores}"
                            );
                        }
                        at += packed.len();
                    }
                    assert_eq!(at, len);
                }
            }
        }
    }

    #[test]
    fn packed_record_chunks_equal_stream_chunks() {
        let records = mixed_records(2 * FUSE_CHUNK + 77);
        let stream = CoherentStream::from_records(&records, 32);
        let mut pushed = CoherentStream::with_capacity(32, 0);
        records.iter().for_each(|&r| pushed.push(r));
        assert_eq!(pushed, stream, "streaming build equals from_records");
        for (chunk, (packed, tids)) in records.chunks(FUSE_CHUNK).zip(stream.chunks()) {
            let mut p = vec![0; chunk.len()];
            let mut t = vec![0; chunk.len()];
            pack_coherent_chunk(chunk, 32, &mut p, &mut t);
            assert_eq!(p, packed);
            assert_eq!(t, tids);
        }
    }

    #[test]
    #[should_panic(expected = "exceed 63 bits")]
    fn coherent_stream_rejects_64_bit_blocks() {
        let _ = CoherentStream::from_records(&[MemRecord::read(u64::MAX)], 1);
    }

    /// A minimal model that remembers exactly what it was driven with, to
    /// verify the fused driver's decode and ordering without a real cache.
    struct Recorder {
        geom: crate::CacheGeometry,
        stats: crate::CacheStats,
        seen: Vec<(u64, bool)>,
    }

    impl Recorder {
        fn new() -> Self {
            Self::with_line(32)
        }

        fn with_line(line_bytes: u64) -> Self {
            let geom = crate::CacheGeometry::from_sets(8, line_bytes, 1).expect("valid geometry");
            Recorder {
                geom,
                stats: crate::CacheStats::new(8),
                seen: Vec::new(),
            }
        }
    }

    impl CacheModel for Recorder {
        fn geometry(&self) -> crate::CacheGeometry {
            self.geom
        }
        fn access(&mut self, rec: MemRecord) -> crate::AccessResult {
            self.access_block(self.geom.block_addr(rec.addr), rec.kind.is_write())
        }
        fn access_block(&mut self, block: u64, is_write: bool) -> crate::AccessResult {
            self.seen.push((block, is_write));
            self.stats.record(0, crate::HitWhere::MissDirect);
            crate::AccessResult {
                where_hit: crate::HitWhere::MissDirect,
                set: 0,
                evicted: None,
            }
        }
        fn stats(&self) -> &crate::CacheStats {
            &self.stats
        }
        fn reset_stats(&mut self) {
            self.stats.reset();
        }
        fn flush(&mut self) {
            self.stats.reset();
        }
        fn name(&self) -> &str {
            "recorder"
        }
    }

    impl FusedLane for Recorder {}

    #[test]
    fn run_fused_replays_the_stream_to_every_lane_in_order() {
        // Longer than one chunk so the chunk boundary is exercised.
        let records: Vec<MemRecord> = (0..(FUSE_CHUNK as u64 + 100))
            .map(|i| {
                if i % 3 == 0 {
                    MemRecord::write(i * 32)
                } else {
                    MemRecord::read(i * 32)
                }
            })
            .collect();
        let stream = BlockStream::from_records(&records, 32);
        let expect: Vec<(u64, bool)> = stream.iter().collect();
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        {
            let mut lanes: Vec<&mut dyn FusedLane> = vec![&mut a, &mut b];
            run_fused(&mut lanes, &stream);
        }
        assert_eq!(a.seen, expect, "lane 0 saw the exact decoded stream");
        assert_eq!(b.seen, expect, "lane 1 saw the exact decoded stream");
        assert_eq!(a.stats.accesses(), stream.len() as u64);
    }

    #[test]
    fn run_fused_decodes_a_full_64_bit_block_at_one_byte_lines() {
        // No packed word to fit, so the top address bit survives decode.
        let records = [MemRecord::write(u64::MAX), MemRecord::read(0)];
        let stream = BlockStream::from_records(&records, 1);
        let mut a = Recorder::with_line(1);
        run_fused(&mut [&mut a], &stream);
        assert_eq!(a.seen, vec![(u64::MAX, true), (0, false)]);
    }

    #[test]
    fn run_fused_on_empty_stream_is_a_no_op() {
        let stream = BlockStream::from_records(&[], 32);
        let mut a = Recorder::new();
        {
            let mut lanes: Vec<&mut dyn FusedLane> = vec![&mut a];
            run_fused(&mut lanes, &stream);
        }
        assert!(a.seen.is_empty());
    }

    #[test]
    #[should_panic(expected = "line size does not match")]
    fn run_fused_rejects_line_size_mismatch() {
        let records = recs();
        let stream = BlockStream::from_records(&records, 64);
        let mut a = Recorder::new(); // 32-byte lines
        let mut lanes: Vec<&mut dyn FusedLane> = vec![&mut a];
        run_fused(&mut lanes, &stream);
    }
}
