//! `innerloop` — microbenchmark of the simulation inner loop, isolating
//! the mechanisms behind the fused kernel's speedup:
//!
//! 1. **Fused vs unfused multi-model traversal** — the same lane group
//!    driven by one `run_fused` pass (decode each chunk once, step every
//!    lane over it) and by one single-lane `run_fused` pass per lane
//!    (the stream decoded and streamed once per lane).
//! 2. **Chunked vs per-record coherent traversal** (DESIGN §16) — the
//!    same 4-core MESI hierarchy driven through `step_chunk` (batched
//!    index, private-line fast path) and record-at-a-time `access`, in
//!    ns/record, plus the fraction of accesses the fast path committed.
//! 3. **Chunked vs per-record SMT and adaptive lanes** — ns/record for
//!    `PerThreadIndexCache` (2 threads, odd multipliers) and
//!    `AdaptivePartitionedCache` (2 threads) stepped as tagged chunks
//!    against per-record `access`, and for the solo
//!    `AdaptiveGroupCache` under `run_fused` against per-record `access`.
//! 4. **Per-phase ns/record** for a direct-mapped lane — index
//!    (`index_many` alone) and commit (the full fused pass minus index)
//!    — so a perf regression localizes to a phase instead of one
//!    aggregate number.
//! 5. **A roofline** — records/sec of section 1's fused pass against
//!    measured memory bandwidth (streaming-copy probe), placing the
//!    inner loop relative to the machine ceiling; `--roofline-out`
//!    writes it as its own artifact.
//!
//! Emits a single JSON document on stdout (and optionally to `--out`)
//! so CI can archive the numbers as an artifact next to the perfgate
//! diff. Wall-clock goes through `unicache_timing::Stopwatch`, the one
//! sanctioned timing primitive (`uca lint`, rule `wallclock`).
//!
//! Usage: `innerloop [--records N] [--reps R] [--block-mask HEX]
//!                   [--out FILE]
//!                   [--roofline-out FILE]`
//!
//! A bad flag, or an `--out`/`--roofline-out` that cannot be written,
//! prints a message and exits 2 (an unwritable artifact only after the
//! report is printed).
//!
//! Timing methodology: each section runs `R` repetitions per variant,
//! interleaved (A, B, A, B, ...) so neither variant systematically
//! enjoys a warmer cache, and reports the *minimum* elapsed time — the
//! standard microbenchmark estimator for the noise-free cost.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use unicache_assoc::AdaptiveGroupCache;
use unicache_core::{
    run_fused, BlockStream, CacheGeometry, CacheModel, CoherentModel, FusedLane, IndexFunction,
    MemRecord, TaggedLane, FUSE_CHUNK,
};
use unicache_hierarchy::{HierarchyBuilder, L2Mode};
use unicache_indexing::{OddMultiplierIndex, XorIndex};
use unicache_sim::CacheBuilder;
use unicache_smt::{AdaptivePartitionedCache, PerThreadIndexCache};
use unicache_timing::Stopwatch;

/// Deterministic LCG access stream over a block space of `block_mask +
/// 1` blocks. The default mask (0xFFFF) overflows the cache — conflicts
/// and capacity misses, like a cold trace; a small mask (e.g. 0x3FF on
/// the 1024-set L1) produces the hit-dominated steady state real
/// workloads spend most of their records in.
fn synth_records(count: usize, block_mask: u64) -> Vec<MemRecord> {
    let mut x = 0x243f6a8885a308d3u64;
    (0..count)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let block = (x >> 33) & block_mask;
            let addr = block * 32;
            if x & 0x7 == 0 {
                MemRecord::write(addr)
            } else {
                MemRecord::read(addr)
            }
        })
        .collect()
}

/// Minimum elapsed nanoseconds over `reps` runs of `f`, interleaved with
/// the caller's other variant by taking a closure per call.
fn min_nanos(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let sw = Stopwatch::start();
        f();
        best = best.min(sw.elapsed_nanos());
    }
    best
}

/// Measured host memory bandwidth in GB/s: best-of-reps streaming copy
/// of a 32 MiB `u64` buffer (far beyond any host L2), counting both the
/// bytes read and the bytes written. This is the roofline ceiling the
/// simulation's stream throughput is compared against.
fn memory_bandwidth_gbps(reps: usize) -> f64 {
    const WORDS: usize = 4 << 20; // 32 MiB source + 32 MiB destination
    let src: Vec<u64> = (0..WORDS as u64).collect();
    let mut dst = vec![0u64; WORDS];
    dst.copy_from_slice(&src); // touch both buffers before timing
    let mut best = u64::MAX;
    for _ in 0..reps.max(3) {
        let sw = Stopwatch::start();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(sw.elapsed_nanos());
    }
    // 16 bytes move per word (8 in, 8 out); bytes/ns == GB/s.
    (WORDS * 16) as f64 / best.max(1) as f64
}

/// One `*_chunk_vs_record/*` section: the best chunked and per-record
/// passes of fresh lanes from `build` over `records`, in ns/record.
/// `chunked` drives a lane over the decoded stream; the per-record pass
/// calls `access` on every record.
fn chunk_vs_record<L: CacheModel>(
    name: &str,
    records: &[MemRecord],
    reps: usize,
    build: impl Fn() -> L,
    chunked: impl Fn(&mut L),
) -> String {
    let (mut chunk_best, mut record_best) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        let mut lane = build();
        let sw = Stopwatch::start();
        chunked(&mut lane);
        chunk_best = chunk_best.min(sw.elapsed_nanos());
        black_box(lane.stats());

        let mut lane = build();
        let sw = Stopwatch::start();
        for &r in records {
            lane.access(r);
        }
        record_best = record_best.min(sw.elapsed_nanos());
        black_box(lane.stats());
    }
    let per_record = |ns: u64| ns as f64 / records.len().max(1) as f64;
    format!(
        "    \"{name}\": {{\n      \"chunk_ns_per_record\": {:.4},\n      \
         \"per_record_ns_per_record\": {:.4},\n      \"speedup\": {:.4}\n    }},\n",
        per_record(chunk_best),
        per_record(record_best),
        record_best as f64 / chunk_best.max(1) as f64
    )
}

struct Args {
    records: usize,
    reps: usize,
    block_mask: u64,
    out: Option<String>,
    roofline_out: Option<String>,
}

const USAGE: &str = "usage: innerloop [--records N] [--reps R] [--block-mask HEX] \
                     [--out FILE] [--roofline-out FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        records: 2_000_000,
        reps: 5,
        block_mask: 0xFFFF,
        out: None,
        roofline_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--records" => {
                args.records = grab()?
                    .parse()
                    .map_err(|_| "--records: expected an integer".to_string())?
            }
            "--reps" => {
                args.reps = grab()?
                    .parse()
                    .map_err(|_| "--reps: expected an integer".to_string())?
            }
            "--block-mask" => {
                let v = grab()?;
                let v = v.strip_prefix("0x").unwrap_or(&v);
                args.block_mask = u64::from_str_radix(v, 16)
                    .map_err(|_| "--block-mask: expected a hex integer".to_string())?;
            }
            "--out" => args.out = Some(grab()?),
            "--roofline-out" => args.roofline_out = Some(grab()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Writes `text` to `path`, reporting a failure on stderr.
fn write_artifact(path: &str, text: &str) -> bool {
    std::fs::write(path, text)
        .map_err(|e| eprintln!("innerloop: cannot write {path}: {e}"))
        .is_ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("innerloop: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let records = synth_records(args.records, args.block_mask);
    let mut sections = String::new();

    // Section 1: fused vs unfused traversal of a 4-lane group (the shape
    // SimStore schedules: baseline + an indexing scheme + two relocation
    // caches over one stream).
    let geom = CacheGeometry::paper_l1();
    let stream = BlockStream::from_records(&records, geom.line_bytes());
    let build_lanes = || -> Vec<Box<dyn FusedLane>> {
        vec![
            Box::new(CacheBuilder::new(geom).build().expect("valid cache")),
            Box::new(
                CacheBuilder::new(geom)
                    .index(Arc::new(
                        XorIndex::new(geom.num_sets()).expect("valid xor index"),
                    ))
                    .build()
                    .expect("valid cache"),
            ),
            Box::new(
                unicache_assoc::ColumnAssociativeCache::new(geom).expect("valid column cache"),
            ),
            Box::new(unicache_assoc::SkewedCache::new(geom).expect("valid skewed cache")),
        ]
    };
    let mut fused_best = u64::MAX;
    let mut unfused_best = u64::MAX;
    for _ in 0..args.reps {
        let mut lanes = build_lanes();
        let mut refs: Vec<&mut dyn FusedLane> = lanes
            .iter_mut()
            .map(|l| l.as_mut() as &mut dyn FusedLane)
            .collect();
        let sw = Stopwatch::start();
        run_fused(&mut refs, &stream);
        fused_best = fused_best.min(sw.elapsed_nanos());

        let mut lanes = build_lanes();
        let sw = Stopwatch::start();
        for lane in &mut lanes {
            run_fused(&mut [lane.as_mut()], &stream);
        }
        unfused_best = unfused_best.min(sw.elapsed_nanos());
    }
    let _ = write!(
        sections,
        "    \"fused_vs_unfused/4lanes\": {{\n      \"fused_ns\": {fused_best},\n      \
         \"unfused_ns\": {unfused_best},\n      \"speedup\": {:.4}\n    }},\n",
        unfused_best as f64 / fused_best as f64
    );

    // Section 2: chunked vs per-record traversal of the coherent
    // hierarchy (the `xp coherent` engine, DESIGN §16). The stream has
    // the locality shape of the sweep's real mixes — each core loops
    // over a private hot footprint (fast-path food), with a shared
    // region and a streaming tail mixed in so snoops, upgrades and
    // misses exercise the serial fallback. Both variants produce
    // byte-identical stats; only the clock and the fast/serial commit
    // split may differ.
    let coh_records: Vec<MemRecord> = synth_records(args.records, u64::MAX)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let tid = (i % 4) as u64;
            let block = if i % 13 == 0 {
                (r.addr >> 5) & 0x1F // shared front region: S-state traffic
            } else if i % 11 == 0 {
                0x1000 + ((r.addr >> 5) & 0x7FF) // streaming tail: misses
            } else {
                // Private per-core hot set, well inside a 128x2 L1.
                0x100 + tid * 0x100 + ((r.addr >> 5) & 0x7F)
            };
            MemRecord {
                addr: block * 32,
                ..r.with_tid(tid as u8)
            }
        })
        .collect();
    let l1 = CacheGeometry::from_sets(128, 32, 2).expect("valid L1 geometry");
    let l2 = CacheGeometry::from_sets(1024, 32, 4).expect("valid L2 geometry");
    let coh_index: Arc<dyn IndexFunction> =
        Arc::new(XorIndex::new(l1.num_sets()).expect("valid xor index"));
    let build_hier = |chunked: bool| {
        HierarchyBuilder::new(l1, Arc::clone(&coh_index))
            .cores(4)
            .victim_depth(4)
            .l2(L2Mode::Shared(l2))
            .chunked(chunked)
            .build()
            .expect("valid hierarchy")
    };
    let mut chunked_best = u64::MAX;
    let mut per_record_best = u64::MAX;
    let mut fast_fraction = 0.0;
    for _ in 0..args.reps {
        let mut fast = build_hier(true);
        let sw = Stopwatch::start();
        fast.run(&coh_records);
        chunked_best = chunked_best.min(sw.elapsed_nanos());
        fast_fraction = fast.fast_path_commits() as f64 / coh_records.len().max(1) as f64;

        let mut slow = build_hier(false);
        let sw = Stopwatch::start();
        slow.run(&coh_records);
        per_record_best = per_record_best.min(sw.elapsed_nanos());
    }
    let per_record = |ns: u64| ns as f64 / args.records as f64;
    let _ = write!(
        sections,
        "    \"coherent_chunk_vs_record/4c_v4\": {{\n      \
         \"chunked_ns_per_record\": {:.4},\n      \
         \"per_record_ns_per_record\": {:.4},\n      \"speedup\": {:.4},\n      \
         \"fast_path_fraction\": {fast_fraction:.4}\n    }},\n",
        per_record(chunked_best),
        per_record(per_record_best),
        per_record_best as f64 / chunked_best as f64
    );

    // Section 3: chunked vs per-record SMT and adaptive lanes at the paper
    // L1. Each of two threads loops over its own 512-block hot footprint
    // (the two side by side fill the cache) and strays into a wide span
    // one time in eight, so, like the Fig. 13/14 mixes, most references
    // hit and the rest exercise eviction, relocation and OUT.
    let smt_records: Vec<MemRecord> = synth_records(args.records, u64::MAX)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let tid = (i % 2) as u64;
            let x = r.addr >> 5;
            let block = if x % 32 == 0 {
                x & 0xFFFF
            } else {
                tid << 9 | (x & 0x1FF)
            };
            MemRecord {
                addr: block * 32,
                ..r.with_tid(tid as u8)
            }
        })
        .collect();
    let smt_blocks: Vec<u64> = smt_records.iter().map(|r| r.addr >> 5).collect();
    let smt_writes: Vec<bool> = smt_records.iter().map(|r| r.kind.is_write()).collect();
    let smt_tids: Vec<u8> = smt_records.iter().map(|r| r.tid).collect();
    let tagged = |lane: &mut dyn TaggedLane| {
        for ((b, w), t) in smt_blocks
            .chunks(FUSE_CHUNK)
            .zip(smt_writes.chunks(FUSE_CHUNK))
            .zip(smt_tids.chunks(FUSE_CHUNK))
        {
            lane.step_tagged(b, w, t);
        }
    };
    sections.push_str(&chunk_vs_record(
        "smt_chunk_vs_record/per_thread_oddmul_2t",
        &smt_records,
        args.reps,
        || {
            let fns = [9, 21]
                .map(|m| {
                    Arc::new(OddMultiplierIndex::new(geom.num_sets(), m).expect("odd multiplier"))
                        as Arc<dyn IndexFunction>
                })
                .to_vec();
            PerThreadIndexCache::new(geom, fns).expect("valid shared cache")
        },
        |lane| tagged(lane),
    ));
    sections.push_str(&chunk_vs_record(
        "smt_chunk_vs_record/adaptive_partitioned_2t",
        &smt_records,
        args.reps,
        || AdaptivePartitionedCache::new(geom, 2).expect("sets divide among threads"),
        |lane| tagged(lane),
    ));
    let solo_stream = BlockStream::from_records(&smt_records, geom.line_bytes());
    sections.push_str(&chunk_vs_record(
        "assoc_chunk_vs_record/adaptive_solo",
        &smt_records,
        args.reps,
        || AdaptiveGroupCache::new(geom).expect("valid adaptive cache"),
        |lane| run_fused(&mut [lane], &solo_stream),
    ));

    // Section 4: per-phase ns/record for a direct-mapped lane. index =
    // `index_many` alone over 1024-record chunks; commit = a full fused
    // pass (index plus the commit loop) minus index. Each phase regresses
    // independently, so an aggregate slowdown localizes here.
    let index: Arc<dyn IndexFunction> =
        Arc::new(XorIndex::new(geom.num_sets()).expect("valid xor index"));
    let blocks: Vec<u64> = records.iter().map(|r| geom.block_addr(r.addr)).collect();
    let mut sets = vec![0usize; FUSE_CHUNK];
    let index_ns = min_nanos(args.reps, || {
        for chunk in blocks.chunks(FUSE_CHUNK) {
            index.index_many(chunk, &mut sets);
            black_box(&sets);
        }
    });
    let mut single_total_ns = u64::MAX;
    for _ in 0..args.reps {
        let mut lane = CacheBuilder::new(geom)
            .index(Arc::clone(&index))
            .build()
            .expect("valid cache");
        let sw = Stopwatch::start();
        run_fused(&mut [&mut lane as &mut dyn FusedLane], &stream);
        single_total_ns = single_total_ns.min(sw.elapsed_nanos());
    }
    let commit_ns = single_total_ns.saturating_sub(index_ns);
    let per_record = |ns: u64| ns as f64 / args.records as f64;
    let _ = write!(
        sections,
        "    \"phases/dm_1024x1_xor\": {{\n      \"index_ns_per_record\": {:.4},\n      \
         \"commit_ns_per_record\": {:.4},\n      \"total_ns_per_record\": {:.4}\n    }}\n",
        per_record(index_ns),
        per_record(commit_ns),
        per_record(single_total_ns)
    );

    // Section 5, the roofline: where section 1's fused pass sits
    // relative to the memory ceiling. The kernel reads each `MemRecord`
    // once per chunk and decodes it for all 4 lanes, so `stream_gbps` is
    // the *decode* traffic, while `lane_records_per_sec` is the useful
    // simulation throughput it buys.
    let mem_gbps = memory_bandwidth_gbps(args.reps);
    let lanes_in_group = 4.0;
    let lane_records_per_sec = args.records as f64 * lanes_in_group / (fused_best as f64 / 1e9);
    let bytes_per_record = std::mem::size_of::<MemRecord>();
    let stream_gbps = (args.records * bytes_per_record) as f64 / fused_best as f64;
    let roofline = format!(
        "{{\n  \"mem_bandwidth_gbps\": {mem_gbps:.3},\n  \"stream_gbps\": {stream_gbps:.3},\n  \
         \"fraction_of_bandwidth\": {:.4},\n  \"lane_records_per_sec\": {lane_records_per_sec:.0},\n  \
         \"fused_lanes\": 4,\n  \"bytes_per_record\": {bytes_per_record},\n  \
         \"probe\": \"32MiB streaming copy, best of reps, read+write bytes\"\n}}\n",
        stream_gbps / mem_gbps
    );

    let json = format!(
        "{{\n  \"records\": {},\n  \"reps\": {},\n  \"sections\": {{\n{sections}  }},\n  \
         \"roofline\": {}\n}}\n",
        args.records,
        args.reps,
        roofline.trim_end()
    );
    print!("{json}");
    let mut written = true;
    if let Some(path) = &args.out {
        written &= write_artifact(path, &json);
    }
    if let Some(path) = &args.roofline_out {
        written &= write_artifact(path, &roofline);
    }
    if written {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
