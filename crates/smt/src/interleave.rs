//! Merging per-thread traces into one shared-cache reference stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unicache_core::{BlockAddr, MemRecord, TaggedLane, ThreadId, FUSE_CHUNK};
use unicache_trace::Trace;

/// How per-thread streams are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterleavePolicy {
    /// One reference per thread per cycle (an idealized SMT fetch rotate).
    RoundRobin,
    /// Each step picks a random still-active thread — models bursty,
    /// stall-driven interleaving.
    Stochastic {
        /// RNG seed (interleavings are deterministic per seed).
        seed: u64,
    },
}

/// Merges `traces` into a single stream, stamping records with the thread
/// index (`0..traces.len()`). All references of every thread are preserved
/// in per-thread program order; only the global order varies by policy.
///
/// # Panics
/// Panics if more than 256 threads are supplied (`ThreadId` is a `u8`).
pub fn interleave(traces: &[Trace], policy: InterleavePolicy) -> Trace {
    let refs: Vec<&Trace> = traces.iter().collect();
    interleave_refs(&refs, policy)
}

/// Feeds the interleaving of `traces` under `policy` to `f` record by
/// record, stamping each with its thread index — the order
/// [`interleave`] materializes, but without allocating the merged
/// stream. The figure runners replay multi-hundred-megabyte mixes
/// through several models at once, and the coherent sweep packs the
/// merge straight into a `CoherentStream`; streaming keeps that working
/// set at zero extra bytes.
///
/// # Panics
/// Panics if more than 256 threads are supplied (`ThreadId` is a `u8`).
pub fn for_each_interleaved(
    traces: &[&Trace],
    policy: InterleavePolicy,
    mut f: impl FnMut(MemRecord),
) {
    assert!(traces.len() <= 256, "ThreadId is u8");
    match policy {
        InterleavePolicy::RoundRobin => {
            // The threads still issuing, in tid order. Every round takes
            // one record from each, so they all sit at the same cursor:
            // run whole rounds up to the shortest one's end, then drop it.
            let mut live: Vec<(u8, &[MemRecord])> = traces
                .iter()
                .enumerate()
                .map(|(tid, t)| (tid as u8, t.records()))
                .collect();
            let mut round = 0;
            while let Some(end) = live.iter().map(|(_, r)| r.len()).min() {
                for i in round..end {
                    for &(tid, records) in &live {
                        f(records[i].with_tid(tid));
                    }
                }
                round = end;
                live.retain(|(_, r)| r.len() > end);
            }
        }
        InterleavePolicy::Stochastic { seed } => {
            let mut cursors = vec![0usize; traces.len()];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut active: Vec<usize> = (0..traces.len())
                .filter(|&t| !traces[t].is_empty())
                .collect();
            while !active.is_empty() {
                let pick = rng.gen_range(0..active.len());
                let tid = active[pick];
                let c = cursors[tid];
                f(traces[tid].records()[c].with_tid(tid as u8));
                cursors[tid] += 1;
                if cursors[tid] == traces[tid].len() {
                    active.swap_remove(pick);
                }
            }
        }
    }
}

/// Replays the interleaving of `traces` under `policy` through every
/// lane in one chunked traversal and returns the number of merged
/// records. Each record is decoded once, as the merge produces it, into
/// [`FUSE_CHUNK`]-record tagged scratch (block, write flag, thread id);
/// every full chunk, and the ragged last one, is then stepped through
/// each lane in turn. Neither the merged trace nor a decoded copy of it
/// is ever materialised, and each lane ends exactly as a per-record
/// [`unicache_core::CacheModel::access`] replay would leave it.
///
/// # Panics
/// If the lanes' line sizes differ, or as [`for_each_interleaved`].
pub fn run_interleaved(
    traces: &[&Trace],
    policy: InterleavePolicy,
    lanes: &mut [&mut dyn TaggedLane],
) -> usize {
    let line = lanes.first().map_or(1, |l| l.geometry().line_bytes());
    for l in lanes.iter() {
        assert_eq!(
            l.geometry().line_bytes(),
            line,
            "lane '{}' line size differs from the first lane's",
            l.name()
        );
    }
    let shift = line.trailing_zeros();
    let mut blocks = [0 as BlockAddr; FUSE_CHUNK];
    let mut writes = [false; FUSE_CHUNK];
    let mut tids = [0 as ThreadId; FUSE_CHUNK];
    let mut n = 0;
    for_each_interleaved(traces, policy, |r| {
        blocks[n] = r.addr >> shift;
        writes[n] = r.kind.is_write();
        tids[n] = r.tid;
        n += 1;
        if n == FUSE_CHUNK {
            step(lanes, &blocks, &writes, &tids);
            n = 0;
        }
    });
    step(lanes, &blocks[..n], &writes[..n], &tids[..n]);
    traces.iter().map(|t| t.len()).sum()
}

/// Steps every lane over one tagged chunk.
fn step(
    lanes: &mut [&mut dyn TaggedLane],
    blocks: &[BlockAddr],
    writes: &[bool],
    tids: &[ThreadId],
) {
    for lane in lanes.iter_mut() {
        lane.step_tagged(blocks, writes, tids);
    }
}

/// [`interleave`] over borrowed traces — callers holding `Arc<Trace>`s
/// (e.g. a trace store) can merge without cloning the input streams.
/// The `collect` of [`for_each_interleaved`].
pub fn interleave_refs(traces: &[&Trace], policy: InterleavePolicy) -> Trace {
    let total: usize = traces.iter().map(|t| t.len()).sum();
    let mut out = Vec::with_capacity(total);
    for_each_interleaved(traces, policy, |r| out.push(r));
    Trace::from_records(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_core::MemRecord;

    fn mk(addrs: &[u64]) -> Trace {
        addrs.iter().map(|&a| MemRecord::read(a)).collect()
    }

    #[test]
    fn round_robin_alternates() {
        let a = mk(&[1, 2, 3]);
        let b = mk(&[10, 20]);
        let m = interleave(&[a, b], InterleavePolicy::RoundRobin);
        let addrs: Vec<u64> = m.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![1, 10, 2, 20, 3]);
        let tids: Vec<u8> = m.iter().map(|r| r.tid).collect();
        assert_eq!(tids, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn preserves_per_thread_order_and_counts() {
        let a = mk(&[1, 2, 3, 4, 5]);
        let b = mk(&[10, 20, 30]);
        let c = mk(&[100]);
        for policy in [
            InterleavePolicy::RoundRobin,
            InterleavePolicy::Stochastic { seed: 5 },
        ] {
            let m = interleave(&[a.clone(), b.clone(), c.clone()], policy);
            assert_eq!(m.len(), 9);
            for (tid, src) in [(0u8, &a), (1u8, &b), (2u8, &c)] {
                let got: Vec<u64> = m.filter_tid(tid).iter().map(|r| r.addr).collect();
                let expect: Vec<u64> = src.iter().map(|r| r.addr).collect();
                assert_eq!(got, expect, "thread {tid} reordered under {policy:?}");
            }
        }
    }

    #[test]
    fn stochastic_is_seed_deterministic() {
        let a = mk(&(0..50).collect::<Vec<u64>>());
        let b = mk(&(100..150).collect::<Vec<u64>>());
        let one = interleave(
            &[a.clone(), b.clone()],
            InterleavePolicy::Stochastic { seed: 1 },
        );
        let two = interleave(
            &[a.clone(), b.clone()],
            InterleavePolicy::Stochastic { seed: 1 },
        );
        let other = interleave(&[a, b], InterleavePolicy::Stochastic { seed: 2 });
        assert_eq!(one, two);
        assert_ne!(one, other);
    }

    #[test]
    fn empty_and_unequal_inputs() {
        let m = interleave(&[], InterleavePolicy::RoundRobin);
        assert!(m.is_empty());
        let m = interleave(
            &[mk(&[]), mk(&[7])],
            InterleavePolicy::Stochastic { seed: 3 },
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m.records()[0].tid, 1);
    }
}
