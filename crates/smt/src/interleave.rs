//! Merging per-thread traces into one shared-cache reference stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    mut f: impl FnMut(unicache_core::MemRecord),
) {
    assert!(traces.len() <= 256, "ThreadId is u8");
    let mut cursors = vec![0usize; traces.len()];
    match policy {
        InterleavePolicy::RoundRobin => loop {
            let mut progressed = false;
            for (tid, t) in traces.iter().enumerate() {
                let c = cursors[tid];
                if c < t.len() {
                    f(t.records()[c].with_tid(tid as u8));
                    cursors[tid] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        },
        InterleavePolicy::Stochastic { seed } => {
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
