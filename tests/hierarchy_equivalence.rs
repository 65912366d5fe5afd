//! The coherent hierarchy must be a pure *generalization*: with one
//! core, a pass-through L2 and a depth-0 victim buffer there is no peer
//! to snoop, nothing to rescue and nothing behind the bus, so the
//! hierarchy must reproduce the solo [`Cache`]'s per-set statistics
//! *exactly* — for every registered indexing scheme, on both reference
//! geometries. The MESI machinery, the logical clock and the lens
//! bookkeeping ride along on every access; this suite proves they never
//! perturb the underlying replacement behavior.
//!
//! A second property pins down merge order: the merged per-core view of
//! a multi-core run must not depend on the order the cores are merged
//! in (stat merging is commutative), and per-core totals must conserve
//! the trace.
//!
//! A third property pins the chunked kernel (DESIGN §16): the
//! classify/commit fast path is a pure execution-order optimization, so
//! a chunked hierarchy must match its per-record twin *exactly* — stats,
//! coherence counters, lenses, shared L2, logical clock, and the
//! transcript-level cache state (resident lines, victim-buffer
//! contents) — across every registry scheme, core count, victim depth,
//! L1 associativity (the fixed 2-way commit loop and the runtime-ways
//! one) and ragged trace lengths straddling the FUSE_CHUNK
//! boundary.
//!
//! A fourth property pins the kernel's two entries: per-thread traces
//! streamed through `run_interleaved` into a group of hierarchies, as
//! the coherent sweep replays its mix, must equal `run_coherent_fused`
//! over the materialised merge, commit-path counts included, under
//! either interleave policy.
//!
//! A fifth check streams the coherent sweep's real interleave through
//! every sweep cell with the chunked kernel on and off.
//!
//! A sixth property pins the AMAT hierarchy's fast path: each `hierarchy`
//! L1 run as a fused lane that logs its egress, that egress replayed
//! through the paper's L2 and the AMAT taken from counts must equal
//! `timing::Hierarchy`'s per-record walk bit for bit, L2 stats included;
//! and the store's egress lanes must fill exactly the result cells a
//! plain prefetch would, so the `online` table that follows simulates
//! nothing.

use proptest::prelude::*;
use std::sync::Arc;
use unicache::core::{run_fused_egress, Egress};
use unicache::experiments::figures::coherent::coherent_groups;
use unicache::experiments::figures::extras::online_selection;
use unicache::experiments::figures::sweeps::{self, hierarchy_amats, hierarchy_cycles};
use unicache::prelude::*;
use unicache::smt::interleave_refs;
use unicache::timing::EgressL2;
use unicache::trace::synth;

fn reference_geometries() -> [CacheGeometry; 5] {
    [
        CacheGeometry::from_sets(64, 32, 1).unwrap(),
        CacheGeometry::paper_l1(),
        CacheGeometry::from_sets(64, 32, 2).unwrap(),
        CacheGeometry::from_sets(16, 32, 8).unwrap(),
        CacheGeometry::from_sets(8, 32, 16).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 1-core hierarchy == solo cache, for every registry scheme and
    /// every reference geometry, on a read/write mix (writes exercise
    /// the E->M silent upgrade path, which must stay invisible).
    #[test]
    fn one_core_hierarchy_matches_solo_cache(seed in 0u64..4000) {
        for geom in reference_geometries() {
            let trace = synth::uniform_rw(seed, 4000, 0x1000, 1 << 18, 0.3);
            let training = trace.unique_blocks(geom.line_bytes());
            for scheme in IndexScheme::all() {
                let index = scheme.build(geom, Some(&training)).unwrap();
                let mut solo = CacheBuilder::new(geom)
                    .index(index.clone())
                    .build()
                    .unwrap();
                solo.run(trace.records());
                let mut hier = HierarchyBuilder::new(geom, index)
                    .cores(1)
                    .victim_depth(0)
                    .l2(L2Mode::PassThrough)
                    .build()
                    .unwrap();
                hier.run(trace.records());
                prop_assert_eq!(
                    hier.core_stats(0),
                    solo.stats(),
                    "{} diverged from the solo cache at {} sets",
                    scheme.label(),
                    geom.num_sets()
                );
                // No phantom coherence traffic on one core.
                let coh = hier.coherence_stats();
                prop_assert_eq!(coh.invalidations, 0);
                prop_assert_eq!(coh.interventions, 0);
                prop_assert_eq!(coh.victim_hits, 0);
            }
        }
    }

    /// A 1-core hierarchy with a *victim buffer* must likewise match the
    /// solo victim cache of the same depth: same primary/secondary hit
    /// split, same relocations, same per-set misses.
    #[test]
    fn one_core_victim_hierarchy_matches_victim_cache(
        seed in 0u64..4000,
        depth in 1usize..9,
    ) {
        let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let trace = synth::hotspot(seed, 3000, 0, 128, 1 << 14, 0.8);
        let mut solo = VictimCache::new(CacheBuilder::new(geom), depth).unwrap();
        solo.run(trace.records());
        let sets = geom.num_sets();
        let mut hier = HierarchyBuilder::new(
            geom,
            std::sync::Arc::new(ModuloIndex::new(sets).unwrap()),
        )
        .cores(1)
        .victim_depth(depth)
        .l2(L2Mode::PassThrough)
        .build()
        .unwrap();
        hier.run(trace.records());
        prop_assert_eq!(
            hier.core_stats(0),
            solo.stats(),
            "depth-{} victim hierarchy diverged from the solo victim cache",
            depth
        );
    }

    /// Merging per-core stats is order-invariant, and the merged view
    /// conserves the trace: every record lands on exactly one core and
    /// in exactly one outcome bucket.
    #[test]
    fn merged_core_stats_are_permutation_invariant(
        seed in 0u64..4000,
        cores in 2usize..5,
    ) {
        let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
        let trace = synth::uniform_rw(seed, 3000, 0, 1 << 16, 0.25);
        let sets = geom.num_sets();
        let mut hier = HierarchyBuilder::new(
            geom,
            std::sync::Arc::new(ModuloIndex::new(sets).unwrap()),
        )
        .cores(cores)
        .victim_depth(2)
        .l2(L2Mode::Shared(CacheGeometry::from_sets(sets, 32, 4).unwrap()))
        .build()
        .unwrap();
        hier.run(trace.records());

        let forward = hier.merged_core_stats();
        // Reverse-order merge must agree field for field.
        let mut reversed = CacheStats::new(geom.num_sets());
        for c in (0..cores).rev() {
            reversed.merge(hier.core_stats(c));
        }
        prop_assert_eq!(&forward, &reversed, "stat merging is order-sensitive");

        let outcomes = forward.primary_hits
            + forward.secondary_hits
            + forward.misses_direct
            + forward.misses_after_probe;
        prop_assert_eq!(forward.accesses(), trace.records().len() as u64);
        prop_assert_eq!(outcomes, forward.accesses());
        // Miss attribution: one bus fetch and one data source per miss.
        let coh = hier.coherence_stats();
        prop_assert_eq!(coh.bus_reads + coh.bus_read_x, forward.misses());
        prop_assert_eq!(coh.data_sources(), forward.misses());
    }

    /// Chunked hierarchy == per-record hierarchy, exactly, for every
    /// registry scheme × L1 ways {1,2,4,8,16} (the fixed 2-way commit
    /// loop and the runtime-ways one) × {1,2,4} cores × victim depth
    /// {0,4} × ragged chunk lengths (the `len` range crosses the
    /// FUSE_CHUNK boundary). Every case runs every associativity, at
    /// 128 L1 lines each.
    #[test]
    fn chunked_hierarchy_matches_per_record(
        seed in 0u64..4000,
        cores_ix in 0usize..3,
        depth_ix in 0usize..2,
        len in 1usize..2600,
    ) {
        let cores = [1usize, 2, 4][cores_ix];
        let depth = [0usize, 4][depth_ix];
        let l2 = CacheGeometry::from_sets(256, 32, 4).unwrap();
        // Narrow span so cores genuinely share lines (S-state stores,
        // snoop invalidations — the serial-fallback cases).
        let base = synth::uniform_rw(seed, len, 0, 1 << 13, 0.3);
        let records: Vec<MemRecord> = base
            .records()
            .iter()
            .enumerate()
            .map(|(i, &r)| r.with_tid((i % cores) as u8))
            .collect();
        let training = base.unique_blocks(32);
        for ways in [1u32, 2, 4, 8, 16] {
            let geom = CacheGeometry::from_sets(128 / ways as usize, 32, ways).unwrap();
            for scheme in IndexScheme::all() {
                let index = scheme.build(geom, Some(&training)).unwrap();
                let build = |chunked: bool| {
                    HierarchyBuilder::new(geom, index.clone())
                        .cores(cores)
                        .victim_depth(depth)
                        .l2(L2Mode::Shared(l2))
                        .chunked(chunked)
                        .build()
                        .unwrap()
                };
                let mut fast = build(true);
                let mut slow = build(false);
                fast.run(&records);
                slow.run(&records);
                for c in 0..cores {
                    prop_assert_eq!(
                        fast.core_stats(c),
                        slow.core_stats(c),
                        "{}: core {} stats diverged (cores={}, depth={}, ways={})",
                        scheme.label(), c, cores, depth, ways
                    );
                    let lines_fast: Vec<_> = fast.l1(c).resident().collect();
                    let lines_slow: Vec<_> = slow.l1(c).resident().collect();
                    prop_assert_eq!(lines_fast, lines_slow, "{}: L1 transcript", scheme.label());
                    let vb_fast: Vec<_> =
                        fast.victim_buffer(c).iter().map(|(b, &s)| (b, s)).collect();
                    let vb_slow: Vec<_> =
                        slow.victim_buffer(c).iter().map(|(b, &s)| (b, s)).collect();
                    prop_assert_eq!(vb_fast, vb_slow, "{}: victim transcript", scheme.label());
                }
                prop_assert_eq!(fast.coherence_stats(), slow.coherence_stats());
                prop_assert_eq!(fast.merged_lifetime(), slow.merged_lifetime());
                prop_assert_eq!(&fast.merged_recency(), &slow.merged_recency());
                prop_assert_eq!(fast.now(), slow.now());
                prop_assert_eq!(fast.shared_stats(), slow.shared_stats());
                // Conservation: every access committed on exactly one path.
                prop_assert_eq!(
                    fast.fast_path_commits() + fast.serial_path_commits(),
                    fast.merged_core_stats().accesses()
                );
                prop_assert_eq!(slow.fast_path_commits(), 0);
            }
        }
    }

    /// Streamed merge == `&[MemRecord]` entry over the materialised
    /// merge, exactly, for every registry scheme × {1,2,4} cores ×
    /// victim depth {0,4}, with thread counts beyond the core count
    /// (routing wraps), ragged lengths and either interleave policy.
    /// Each scheme's six hierarchies step the stream as one group.
    #[test]
    fn stream_entry_matches_record_entry(
        seed in 0u64..4000,
        len in 1usize..2600,
        threads in 1u8..7,
    ) {
        let geom = CacheGeometry::from_sets(64, 32, 2).unwrap();
        let l2 = CacheGeometry::from_sets(256, 32, 4).unwrap();
        let base = synth::uniform_rw(seed, len, 0, 1 << 13, 0.3);
        let per_thread: Vec<Trace> = (0..usize::from(threads))
            .map(|t| base.records().iter().skip(t).step_by(usize::from(threads)).copied().collect())
            .collect();
        let refs: Vec<&Trace> = per_thread.iter().collect();
        let policy = if seed % 2 == 0 {
            InterleavePolicy::RoundRobin
        } else {
            InterleavePolicy::Stochastic { seed }
        };
        let records = interleave_refs(&refs, policy);
        let training = base.unique_blocks(geom.line_bytes());
        let cells: Vec<(usize, usize)> = [1usize, 2, 4]
            .into_iter()
            .flat_map(|c| [0usize, 4].map(|d| (c, d)))
            .collect();
        for scheme in IndexScheme::all() {
            let index = scheme.build(geom, Some(&training)).unwrap();
            let build = |(cores, depth): (usize, usize)| {
                HierarchyBuilder::new(geom, index.clone())
                    .cores(cores)
                    .victim_depth(depth)
                    .l2(L2Mode::Shared(l2))
                    .build()
                    .unwrap()
            };
            let mut streamed: Vec<CoherentHierarchy> = cells.iter().map(|&c| build(c)).collect();
            let n = run_interleaved(&refs, policy, geom.line_bytes(), |b, w, t| {
                for h in &mut streamed {
                    h.step_chunk(b, w, t);
                }
            });
            prop_assert_eq!(n, records.len());
            for (&(cores, depth), streamed) in cells.iter().zip(&streamed) {
                let mut raw = build((cores, depth));
                run_coherent_fused(&mut [&mut raw], records.records());
                let what = format!("{} cores={cores} depth={depth}", scheme.label());
                prop_assert_eq!(streamed.merged_core_stats(), raw.merged_core_stats(), "{}", &what);
                prop_assert_eq!(streamed.coherence_stats(), raw.coherence_stats(), "{}", &what);
                prop_assert_eq!(streamed.merged_lifetime(), raw.merged_lifetime(), "{}", &what);
                prop_assert_eq!(&streamed.merged_recency(), &raw.merged_recency(), "{}", &what);
                prop_assert_eq!(streamed.shared_stats(), raw.shared_stats(), "{}", &what);
                prop_assert_eq!(streamed.fast_path_commits(), raw.fast_path_commits(), "{}", &what);
                prop_assert_eq!(streamed.serial_path_commits(), raw.serial_path_commits(), "{}", &what);
                prop_assert_eq!(streamed.now(), records.len() as u64);
            }
        }
    }
}

/// Brute-force lifetime accounting: every generation kept explicitly as
/// `(fill, last touch, end)` and summed only at the end.
struct NaiveLifetimes {
    open: Vec<Option<(u64, u64)>>, // (fill, last_touch) per slot
    closed: Vec<(u64, u64, u64)>,  // (fill, last_touch, evict)
}

impl NaiveLifetimes {
    fn new(slots: usize) -> Self {
        NaiveLifetimes {
            open: vec![None; slots],
            closed: Vec::new(),
        }
    }

    /// Fills `slot` at `now`, first closing the generation it held.
    fn fill(&mut self, slot: usize, now: u64) {
        if let Some((f, l)) = self.open[slot].take() {
            self.closed.push((f, l, now));
        }
        self.open[slot] = Some((now, now));
    }

    fn touch(&mut self, slot: usize, now: u64) {
        if let Some((_, l)) = self.open[slot].as_mut() {
            *l = (*l).max(now);
        }
    }

    /// Totals with every open generation closed at `now`.
    fn totals(&self, now: u64) -> LifetimeTotals {
        let mut t = LifetimeTotals::default();
        let all = self
            .closed
            .iter()
            .copied()
            .chain(self.open.iter().flatten().map(|&(f, l)| (f, l, now)));
        for (fill, last, end) in all {
            t.live += last - fill;
            t.dead += end.saturating_sub(last);
            t.generations += 1;
        }
        t
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dead-time lens `CoherentL1` keeps slot by slot equals the
    /// brute-force generation replay: one core, a pass-through L2, no
    /// victim buffer, and a read/write trace whose blocks all map to one
    /// set, replayed by the chunked kernel and, independently, by a
    /// fully-associative LRU over the set's ways feeding the oracle.
    #[test]
    fn one_set_lifetimes_match_naive_generation_replay(
        ways_log2 in 0u32..4,
        refs in proptest::collection::vec((0u64..12, 0u8..3), 0..2600),
    ) {
        let ways = 1usize << ways_log2;
        let geom = CacheGeometry::from_sets(8, 32, ways as u32).unwrap();
        let sets = geom.num_sets();
        let stride = sets as u64 * geom.line_bytes();
        let records: Vec<MemRecord> = refs
            .iter()
            .map(|&(k, w)| {
                let addr = k * stride;
                if w == 0 { MemRecord::write(addr) } else { MemRecord::read(addr) }
            })
            .collect();
        let mut hier = HierarchyBuilder::new(geom, Arc::new(ModuloIndex::new(sets).unwrap()))
            .cores(1)
            .victim_depth(0)
            .l2(L2Mode::PassThrough)
            .build()
            .unwrap();
        hier.run(&records);
        // (block, last use) per way: first empty way, else the LRU one.
        let mut lines: Vec<Option<(u64, u64)>> = vec![None; ways];
        let mut naive = NaiveLifetimes::new(ways);
        for (i, &(block, _)) in refs.iter().enumerate() {
            let now = i as u64 + 1;
            let slot = match lines.iter().position(|l| l.is_some_and(|(b, _)| b == block)) {
                Some(hit) => {
                    naive.touch(hit, now);
                    hit
                }
                None => {
                    let victim = lines.iter().position(Option::is_none).unwrap_or_else(|| {
                        (0..ways).min_by_key(|&w| lines[w].map_or(0, |(_, t)| t)).unwrap()
                    });
                    naive.fill(victim, now);
                    victim
                }
            };
            lines[slot] = Some((block, now));
        }
        prop_assert_eq!(hier.now(), refs.len() as u64);
        prop_assert_eq!(hier.merged_lifetime(), naive.totals(hier.now()), "{}-way", ways);
    }
}

/// The materialised merge of `mix` — the reference the streamed builds
/// are compared against.
fn merged(store: &SimStore, mix: &[Workload], policy: InterleavePolicy) -> Trace {
    let traces: Vec<Arc<Trace>> = mix.iter().map(|&w| store.get(w)).collect();
    let refs: Vec<&Trace> = traces.iter().map(|t| &**t).collect();
    interleave_refs(&refs, policy)
}

/// Streams the interleave of `mix` under `policy` through every
/// hierarchy of `group`, chunk-outer, as the coherent sweep's groups
/// replay their mix; returns the merged length.
fn stream_group(
    store: &SimStore,
    mix: &[Workload],
    policy: InterleavePolicy,
    group: &mut [CoherentHierarchy],
) -> usize {
    let traces: Vec<Arc<Trace>> = mix.iter().map(|&w| store.get(w)).collect();
    let refs: Vec<&Trace> = traces.iter().map(|t| &**t).collect();
    let line = group[0].geometry().line_bytes();
    run_interleaved(&refs, policy, line, |b, w, t| {
        for h in group.iter_mut() {
            h.step_chunk(b, w, t);
        }
    })
}

#[test]
fn stochastic_coherent_group_equals_record_replay() {
    let store = SimStore::new(Scale::Tiny);
    let policy = InterleavePolicy::Stochastic { seed: 11 };
    let geom = CacheGeometry::from_sets(64, 32, 2).unwrap();
    let l2 = CacheGeometry::from_sets(256, 32, 4).unwrap();
    let mix = [Workload::Crc, Workload::Sha];
    let hierarchy = |chunked: bool| {
        HierarchyBuilder::new(geom, IndexScheme::Xor.build(geom, None).unwrap())
            .cores(2)
            .victim_depth(4)
            .l2(L2Mode::Shared(l2))
            .chunked(chunked)
            .build()
            .unwrap()
    };
    let mut group = [hierarchy(true), hierarchy(false)];
    stream_group(&store, &mix, policy, &mut group);
    let mut h = hierarchy(false);
    h.run(merged(&store, &mix, policy).records());
    for streamed in &group {
        assert_eq!(streamed.merged_core_stats(), h.merged_core_stats());
        assert_eq!(streamed.coherence_stats(), h.coherence_stats());
        assert_eq!(streamed.merged_lifetime(), h.merged_lifetime());
        assert_eq!(streamed.merged_recency(), h.merged_recency());
    }
}

/// The `xp coherent` sweep, cell by cell: its real four-thread
/// interleave at tiny scale through every scheme × {1,2,4} cores ×
/// victim depth {0,4} on the sweep's L1 and shared L2, chunked kernel
/// against the per-record MESI walk, each group streamed once.
#[test]
fn coherent_sweep_cells_match_per_record_walk() {
    let store = SimStore::new(Scale::Tiny);
    let groups = coherent_groups();
    assert_eq!(groups.len(), 6);
    for g in &groups {
        // Each scheme's chunked and per-record hierarchies, side by side.
        let mut group: Vec<CoherentHierarchy> = g
            .schemes
            .iter()
            .flat_map(|&s| [true, false].map(|on| g.hierarchy(s).chunked(on).build().unwrap()))
            .collect();
        let n = stream_group(&store, &g.mix, g.policy, &mut group);
        for (&scheme, pair) in g.schemes.iter().zip(group.chunks(2)) {
            let [fast, slow] = pair else { unreachable!() };
            let what = format!(
                "{} cores={} depth={}",
                scheme.label(),
                g.cores,
                g.victim_depth
            );
            assert!(fast.fast_path_commits() > 0, "{what}: no fast-path commit");
            for c in 0..g.cores {
                assert_eq!(fast.core_stats(c), slow.core_stats(c), "{what} core {c}");
            }
            assert_eq!(fast.coherence_stats(), slow.coherence_stats(), "{what}");
            assert_eq!(fast.shared_stats(), slow.shared_stats(), "{what}");
            assert_eq!(fast.merged_lifetime(), slow.merged_lifetime(), "{what}");
            assert_eq!(fast.merged_recency(), slow.merged_recency(), "{what}");
            assert_eq!(fast.now(), slow.now(), "{what}");
            assert_eq!(fast.now(), n as u64, "{what}");
        }
    }
}

/// The `hierarchy` table's L1s at the default latencies.
fn hierarchy_l1s() -> [(SchemeId, f64); 4] {
    sweeps::hierarchy_l1s(&LatencyModel::default())
}

/// The AMAT and L2 stats of `records` through the paper's hierarchy
/// behind `l1`: per record through `timing::Hierarchy`, and through the
/// egress path (a fused lane logging its egress, the egress replayed
/// through `EgressL2`, the AMAT from counts).
fn both_paths(l1: SchemeId, secondary: f64, records: &[MemRecord]) -> [(u64, CacheStats); 2] {
    let geom = CacheGeometry::paper_l1();
    let lat = LatencyModel::default();
    let mut walk = Hierarchy::paper(l1.build_model(geom, None), secondary, lat);
    walk.run(records);
    let mut lane = l1.build_lane(geom, None);
    let mut l2 = EgressL2::paper(geom);
    let mut logged = 0;
    run_fused_egress(
        &mut [&mut lane],
        &BlockStream::from_records(records, geom.line_bytes()),
        |i, egress: &Egress| {
            assert_eq!(i, 0);
            logged += egress.blocks().len();
            l2.replay(egress);
        },
    );
    let l2_stats = l2.l2().stats().clone();
    assert_eq!(l2_stats.accesses(), logged as u64);
    let amat = l2.finish(lane.stats(), secondary, &lat);
    assert_eq!(lane.stats(), walk.l1d().stats(), "{l1:?} L1 stats");
    [
        (walk.amat().to_bits(), walk.l2().stats().clone()),
        (amat.to_bits(), l2_stats),
    ]
}

#[test]
fn egress_hierarchy_matches_the_per_record_walk_on_every_mibench_trace() {
    let store = SimStore::new(Scale::Tiny);
    let lat = LatencyModel::default();
    for w in Workload::mibench() {
        let trace = store.get(w);
        let mut walked = Vec::new();
        for (l1, secondary) in hierarchy_l1s() {
            let [walk, egress] = both_paths(l1, secondary, trace.records());
            assert_eq!(walk, egress, "{w:?} behind {l1:?}");
            walked.push(f64::from_bits(walk.0));
        }
        // The store's group reaches the same AMATs.
        let amats: Vec<u64> = hierarchy_amats(&store, w, &lat)
            .iter()
            .map(|a| a.to_bits())
            .collect();
        let walked: Vec<u64> = walked.iter().map(|a| a.to_bits()).collect();
        assert_eq!(amats, walked, "{w:?} through the store");
    }
}

#[test]
fn egress_hierarchy_matches_the_per_record_walk_on_a_ragged_conflict_trace() {
    // Writes over 4x the L1, plus a 32 KB-strided sweep that every
    // direct-mapped set conflicts on; the length leaves a ragged last
    // chunk.
    let n = 3 * FUSE_CHUNK + 517;
    let mut records = synth::uniform_rw(5, n, 0, 4 * 32 * 1024, 0.3).into_records();
    records.extend(synth::strided(n, 0x40, 32 * 1024, 8 * 32 * 1024).into_records());
    assert_ne!(records.len() % FUSE_CHUNK, 0);
    for (l1, secondary) in hierarchy_l1s() {
        let [walk, egress] = both_paths(l1, secondary, &records);
        assert!(walk.1.writes > 0, "{l1:?}: no write-back reached the L2");
        assert_eq!(walk, egress, "{l1:?}");
    }
}

#[test]
fn hierarchy_group_fills_the_cells_online_reads() {
    let store = SimStore::new(Scale::Tiny);
    hierarchy_cycles(&store);
    let workloads = Workload::mibench();
    let l1s: Vec<SchemeId> = hierarchy_l1s().iter().map(|&(s, _)| s).collect();
    assert_eq!(store.sims_run(), (workloads.len() * l1s.len()) as u64);
    online_selection(&store);
    assert_eq!(
        store.sims_run(),
        (workloads.len() * l1s.len()) as u64,
        "online simulated"
    );
    // A second egress pass re-runs the lanes but fills nothing.
    hierarchy_cycles(&store);
    assert_eq!(store.sims_run(), (workloads.len() * l1s.len()) as u64);
    let plain = SimStore::new(Scale::Tiny);
    plain.prefetch(&workloads, &l1s, CacheGeometry::paper_l1());
    for &w in &workloads {
        for &s in &l1s {
            let geom = CacheGeometry::paper_l1();
            assert_eq!(
                *store.stats(w, s, geom),
                *plain.stats(w, s, geom),
                "{w:?} {s:?}"
            );
        }
    }
}
