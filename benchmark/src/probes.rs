//! Per-layer probes of a traced run: each one calls a single layer's
//! public entry point on the workload's own streams and reports host time
//! per reference (or per call), plus the ratios that say how much of the
//! layer's work was useful.
//!
//! The paper workloads probe on fft (the Fig. 1 subject) for solo caches
//! and on the four-thread `xp coherent` mix for the multi-thread layers;
//! the synthetic workload probes on its own merged and per-thread
//! streams, so the same probe shows how a layer behaves on the miss-heavy
//! shared read/write stream.

use crate::runner::Metric;
use crate::synth::{self, HierConfig};
use crate::tracer::Tracer;
use crate::workload::{Config, Input};
use std::sync::Arc;
use unicache_core::{
    run_fused, BlockStream, CacheGeometry, CacheModel, IndexFunction, MemRecord, FUSE_CHUNK,
};
use unicache_experiments::figures::coherent::coherent_mix;
use unicache_experiments::{SchemeId, TraceStore};
use unicache_hierarchy::run_coherent_fused;
use unicache_indexing::{IndexScheme, OddMultiplierIndex, PatelSearch, RECOMMENDED_MULTIPLIERS};
use unicache_sim::belady;
use unicache_smt::{
    interleave_refs, AdaptivePartitionedCache, InterleavePolicy, PartitionedCache,
    PerThreadIndexCache,
};
use unicache_timing::{Hierarchy, LatencyModel, Stopwatch};
use unicache_trace::Trace;
use unicache_workloads::Workload as Kernel;

/// Repetitions per timed probe; the median is reported.
const REPS: usize = 3;

/// Index bits and trace prefix of the Patel probe (the `xp patel` shape).
const PATEL_BITS: usize = 7;
const PATEL_REFS: usize = 10_000;

/// Median seconds of `REPS` calls of `f` on fresh state from `prep`;
/// only `f` is timed, each call inside a span named `name`. `f` hands its
/// state back so that freeing it stays outside the timed region.
fn time<S, R>(
    tracer: &mut Tracer,
    name: &str,
    mut prep: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> (f64, R) {
    let mut secs = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let state = prep();
        let sw = Stopwatch::start();
        let out = tracer.span(name, |_| f(state));
        secs.push(sw.elapsed_secs());
        last = Some(out);
    }
    let median = crate::stats::median(&secs).expect("REPS > 0");
    (median, last.expect("REPS > 0"))
}

/// Median seconds of a per-record `CacheModel::run` over `records`.
fn per_record<C: CacheModel>(
    tracer: &mut Tracer,
    name: &str,
    records: &[MemRecord],
    build: impl FnMut() -> C,
) -> f64 {
    time(tracer, name, build, |mut c| {
        c.run(records);
        c
    })
    .0
}

fn ns_per(secs: f64, refs: usize) -> f64 {
    secs * 1e9 / refs.max(1) as f64
}

/// The streams the probes run on.
struct Streams<'a> {
    solo: &'a Trace,
    threads: Vec<&'a Trace>,
}

/// Runs every probe and returns its metrics.
pub fn run(cfg: &Config, input: &Input, tracer: &mut Tracer) -> Vec<Metric> {
    let held: Vec<Arc<Trace>>;
    let fft;
    let streams = match input {
        Input::Synth(s) => Streams {
            solo: &s.merged,
            threads: s.threads.iter().collect(),
        },
        Input::Paper(store) => {
            fft = store.get(Kernel::Fft);
            held = coherent_mix().iter().map(|&k| store.get(k)).collect();
            Streams {
                solo: &fft,
                threads: held.iter().map(|t| &**t).collect(),
            }
        }
    };
    tracer.span("probes", |t| probe_all(cfg, &streams, t))
}

fn probe_all(cfg: &Config, s: &Streams, t: &mut Tracer) -> Vec<Metric> {
    let mut m = Vec::new();
    let geom = CacheGeometry::paper_l1();
    let line = geom.line_bytes();
    let solo = s.solo.records();
    let n = solo.len();

    // Set-up layers.
    let (secs, _) = time(
        t,
        "workloads.TraceStore::prefetch",
        || TraceStore::new(cfg.scale),
        |store| {
            store.prefetch(&Kernel::all());
            store
        },
    );
    m.push(Metric::new("workloads.generate_s", secs, "s"));
    let (secs, _) = time(
        t,
        "trace.synth",
        || (),
        |()| synth::generate(cfg.seed, synth::refs_per_thread(cfg.scale)),
    );
    m.push(Metric::new("trace.synth_s", secs, "s"));
    let (secs, summary) = time(t, "trace.summarize", || (), |()| s.solo.summarize(line));
    m.push(Metric::new(
        "trace.summarize_ns_per_ref",
        ns_per(secs, n),
        "ns/ref",
    ));

    // Core: decode and the full fused group.
    let (secs, stream) = time(
        t,
        "core.BlockStream::from_records",
        || (),
        |()| BlockStream::from_records(solo, line),
    );
    m.push(Metric::new(
        "core.decode_ns_per_ref",
        ns_per(secs, n),
        "ns/ref",
    ));
    let lanes = synth::fused_lanes();
    let (secs, _) = time(
        t,
        "core.run_fused",
        || {
            lanes
                .iter()
                .map(|l| l.build_lane(geom, None))
                .collect::<Vec<_>>()
        },
        |mut group| {
            synth::run_lanes(&mut group, &stream);
            group
        },
    );
    m.push(Metric::new(
        "core.fused_ns_per_lane_ref",
        ns_per(secs, n * lanes.len()),
        "ns/ref",
    ));

    // Indexing: batch index every block under each scheme, and the Patel search.
    let blocks: Vec<u64> = solo.iter().map(|r| geom.block_addr(r.addr)).collect();
    for (label, scheme) in [
        ("conventional", IndexScheme::Conventional),
        ("xor", IndexScheme::Xor),
        ("odd_multiplier", IndexScheme::OddMultiplier(21)),
        ("prime_modulo", IndexScheme::PrimeModulo),
        ("givargis", IndexScheme::Givargis),
        ("givargis_xor", IndexScheme::GivargisXor),
    ] {
        let f = scheme
            .build(geom, Some(&summary.blocks))
            .expect("registry schemes build at the paper geometry");
        let mut sets = vec![0usize; FUSE_CHUNK];
        let (secs, _) = time(
            t,
            &format!("indexing.index_many:{label}"),
            || (),
            |()| {
                for chunk in blocks.chunks(FUSE_CHUNK) {
                    f.index_many(chunk, &mut sets);
                    std::hint::black_box(&sets);
                }
            },
        );
        m.push(Metric::new(
            &format!("indexing.index_many_ns_per_ref.{label}"),
            ns_per(secs, n),
            "ns/ref",
        ));
    }
    let patel_blocks = &blocks[..blocks.len().min(PATEL_REFS)];
    let (secs, _) = time(
        t,
        "indexing.PatelSearch::search",
        || {
            let candidates: Vec<u32> = (0..(2 * PATEL_BITS as u32 + 4)).collect();
            PatelSearch::new(PATEL_BITS, candidates, 200_000).expect("valid Patel search")
        },
        |search| search.search(patel_blocks),
    );
    m.push(Metric::new("indexing.patel_search_s", secs, "s"));

    // Cache simulator: the solo baseline and the Belady bound.
    let single = |t: &mut Tracer, span: &str, id: SchemeId| {
        time(
            t,
            span,
            || id.build_lane(geom, None),
            |mut lane| {
                run_fused(&mut [lane.as_mut()], &stream);
                lane.stats().clone()
            },
        )
    };
    let (secs, base) = single(t, "cachesim.baseline", SchemeId::Baseline);
    m.push(Metric::new(
        "cachesim.cache_ns_per_ref",
        ns_per(secs, n),
        "ns/ref",
    ));
    m.push(Metric::new("cachesim.hit_ratio", base.hit_rate(), "ratio"));
    let (secs, _) = time(
        t,
        "cachesim.belady::min_miss_rate",
        || (),
        |()| belady::min_miss_rate(solo, geom.num_lines(), line),
    );
    m.push(Metric::new(
        "cachesim.belady_ns_per_ref",
        ns_per(secs, n),
        "ns/ref",
    ));

    // Programmable associativity, one lane at a time.
    for (label, id) in [
        ("column", SchemeId::ColumnAssoc),
        ("adaptive", SchemeId::Adaptive),
        ("bcache", SchemeId::BCache),
        ("skewed", SchemeId::Skewed),
    ] {
        let (secs, stats) = single(t, &format!("assoc.{label}"), id);
        m.push(Metric::new(
            &format!("assoc.{label}_ns_per_ref"),
            ns_per(secs, n),
            "ns/ref",
        ));
        if id == SchemeId::ColumnAssoc {
            m.push(Metric::new(
                "assoc.secondary_hit_ratio",
                stats.fraction_secondary_hits(),
                "ratio",
            ));
            m.push(Metric::new(
                "assoc.probed_miss_ratio",
                stats.fraction_probed_misses(),
                "ratio",
            ));
        }
    }

    // SMT: the merge, then each shared-cache organisation per record.
    let (secs, merged) = time(
        t,
        "smt.interleave_refs",
        || (),
        |()| interleave_refs(&s.threads, InterleavePolicy::RoundRobin),
    );
    let mixed = merged.records();
    let threads = s.threads.len();
    m.push(Metric::new(
        "smt.interleave_ns_per_ref",
        ns_per(secs, mixed.len()),
        "ns/ref",
    ));
    let secs = per_record(t, "smt.PartitionedCache::run", mixed, || {
        PartitionedCache::new(geom, threads).expect("sets divide among threads")
    });
    m.push(Metric::new(
        "smt.partitioned_ns_per_ref",
        ns_per(secs, mixed.len()),
        "ns/ref",
    ));
    let secs = per_record(t, "smt.AdaptivePartitionedCache::run", mixed, || {
        AdaptivePartitionedCache::new(geom, threads).expect("sets divide among threads")
    });
    m.push(Metric::new(
        "smt.adaptive_partitioned_ns_per_ref",
        ns_per(secs, mixed.len()),
        "ns/ref",
    ));
    let secs = per_record(t, "smt.PerThreadIndexCache::run", mixed, || {
        let fns = (0..threads)
            .map(|i| {
                let mul = RECOMMENDED_MULTIPLIERS[i % RECOMMENDED_MULTIPLIERS.len()];
                Arc::new(OddMultiplierIndex::new(geom.num_sets(), mul).expect("odd multiplier"))
                    as Arc<dyn IndexFunction>
            })
            .collect();
        PerThreadIndexCache::new(geom, fns).expect("valid shared cache")
    });
    m.push(Metric::new(
        "smt.per_thread_index_ns_per_ref",
        ns_per(secs, mixed.len()),
        "ns/ref",
    ));

    // Timing: the paper's two-level AMAT hierarchy.
    let lat = LatencyModel::default();
    let (secs, _) = time(
        t,
        "timing.Hierarchy::run",
        || {
            Hierarchy::paper(
                SchemeId::Baseline.build_model(geom, None),
                lat.rehash_hit,
                lat,
            )
        },
        |mut h| {
            h.run(solo);
            h
        },
    );
    m.push(Metric::new(
        "timing.hierarchy_ns_per_ref",
        ns_per(secs, n),
        "ns/ref",
    ));

    // Coherent hierarchy: the busiest `xp coherent` shape, 4 cores with
    // victim buffers, over the merged stream.
    let cfg4 = HierConfig {
        scheme: IndexScheme::Xor,
        cores: 4,
        victim_depth: 4,
    };
    let (secs, h) = time(
        t,
        "hierarchy.run_coherent_fused",
        || cfg4.build(true),
        |mut h| {
            run_coherent_fused(&mut [&mut h], mixed);
            h
        },
    );
    let refs = mixed.len().max(1) as f64;
    m.push(Metric::new(
        "hierarchy.coherent_ns_per_ref",
        ns_per(secs, mixed.len()),
        "ns/ref",
    ));
    m.push(Metric::new(
        "hierarchy.fast_path_ratio",
        h.fast_path_commits() as f64 / refs,
        "ratio",
    ));
    m.push(Metric::new(
        "hierarchy.bus_tx_per_kref",
        h.coherence_stats().bus_transactions() as f64 * 1000.0 / refs,
        "tx/kref",
    ));

    // Analytical model: every supported scheme's prediction from the summary.
    let (secs, _) = time(
        t,
        "model.predict",
        || (),
        |()| {
            IndexScheme::all()
                .into_iter()
                .filter(|&sc| unicache_model::supports(sc))
                .map(|sc| unicache_model::predict(sc, geom, &summary))
                .collect::<Vec<_>>()
        },
    );
    m.push(Metric::new("model.predict_s", secs, "s"));
    m
}
