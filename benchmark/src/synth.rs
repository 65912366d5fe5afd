//! The `synth-shared-rw` workload: four threads that each loop over a
//! private hot spot and share a small read/write region, merged into one
//! stream that drives the coherent hierarchy and a fused group of solo
//! caches. It is the reads-vs-writes counterpart of the paper workloads:
//! the shared writes keep lines migrating between cores, so far fewer
//! records take the hierarchy's bus-free fast path and the serial MESI
//! walk and the miss tail dominate.

use unicache_core::{run_fused, BlockStream, CacheGeometry, CacheStats, CoherentModel, FusedLane};
use unicache_experiments::SchemeId;
use unicache_hierarchy::{
    run_coherent_fused, CoherenceStats, CoherentHierarchy, HierarchyBuilder, L2Mode,
};
use unicache_indexing::IndexScheme;
use unicache_smt::{interleave_refs, InterleavePolicy};
use unicache_trace::{synth, Trace};
use unicache_workloads::Scale;

pub const THREADS: usize = 4;
/// Share of each thread's references that go to the shared region.
const SHARED_FRACTION: f64 = 0.3;
const SHARED_BASE: u64 = 0x0100_0000;
const SHARED_BYTES: u64 = 8 << 10;
const SHARED_WRITE_RATIO: f64 = 0.5;
const HOT_BYTES: u64 = 4 << 10;
const COLD_BYTES: u64 = 1 << 20;
const HOT_FRACTION: f64 = 0.9;

/// References per thread: 25k at `Tiny`, the scale the benchmark
/// measures, and half a million at `Small`.
pub fn refs_per_thread(scale: Scale) -> usize {
    scale.pick(25_000, 500_000, 2_000_000)
}

/// The generated input: each thread's stream (tid-stamped) and their
/// round-robin merge, which is what the operations replay.
pub struct SynthInput {
    pub threads: Vec<Trace>,
    pub merged: Trace,
}

/// SplitMix64: decorrelates the per-thread seeds and drives the
/// private-vs-shared choice.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the workload's input for `seed`: the same seed always gives
/// the same streams.
pub fn generate(seed: u64, n: usize) -> SynthInput {
    let mut state = seed;
    let threads: Vec<Trace> = (0..THREADS)
        .map(|t| {
            let mut pick = splitmix(&mut state);
            let shared_of: Vec<bool> = (0..n)
                .map(|_| {
                    ((splitmix(&mut pick) >> 11) as f64) < SHARED_FRACTION * (1u64 << 53) as f64
                })
                .collect();
            let n_shared = shared_of.iter().filter(|&&s| s).count();
            let base = 0x1000_0000 * (t as u64 + 1);
            let private = synth::hotspot(
                splitmix(&mut state),
                n - n_shared,
                base,
                HOT_BYTES,
                COLD_BYTES,
                HOT_FRACTION,
            );
            let shared = synth::uniform_rw(
                splitmix(&mut state),
                n_shared,
                SHARED_BASE,
                SHARED_BYTES,
                SHARED_WRITE_RATIO,
            );
            let (mut p, mut s) = (private.iter(), shared.iter());
            let records = shared_of
                .iter()
                .map(|&is_shared| {
                    *if is_shared { s.next() } else { p.next() }.expect("counted above")
                })
                .collect::<Trace>();
            records.with_tid(t as u8)
        })
        .collect();
    let refs: Vec<&Trace> = threads.iter().collect();
    let merged = interleave_refs(&refs, InterleavePolicy::RoundRobin);
    SynthInput { threads, merged }
}

/// One hierarchy configuration of part (a): the `xp coherent` L1/L2
/// shapes under a training-free index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierConfig {
    pub scheme: IndexScheme,
    pub cores: usize,
    pub victim_depth: usize,
}

impl HierConfig {
    pub fn label(&self) -> String {
        format!(
            "{}_c{}_v{}",
            self.scheme.label(),
            self.cores,
            self.victim_depth
        )
    }

    /// Builds the hierarchy; `chunked` false selects the per-record
    /// reference path.
    pub fn build(&self, chunked: bool) -> CoherentHierarchy {
        let l1 = CacheGeometry::from_sets(128, 32, 2).expect("8 KiB 2-way L1 is valid");
        let l2 = CacheGeometry::from_sets(1024, 32, 4).expect("64 KiB 4-way L2 is valid");
        let index = self.scheme.build(l1, None).expect("training-free scheme");
        HierarchyBuilder::new(l1, index)
            .cores(self.cores)
            .victim_depth(self.victim_depth)
            .l2(L2Mode::Shared(l2))
            .chunked(chunked)
            .build()
            .expect("valid hierarchy")
    }
}

/// The twelve hierarchies of part (a).
pub fn hier_configs() -> Vec<HierConfig> {
    let mut out = Vec::new();
    for scheme in [
        IndexScheme::Conventional,
        IndexScheme::Xor,
        IndexScheme::PrimeModulo,
    ] {
        for cores in [2, 4] {
            for victim_depth in [0, 4] {
                out.push(HierConfig {
                    scheme,
                    cores,
                    victim_depth,
                });
            }
        }
    }
    out
}

/// The training-free solo organisations of part (b), at the paper's
/// 32 KiB direct-mapped L1.
pub fn fused_lanes() -> Vec<SchemeId> {
    vec![
        SchemeId::Baseline,
        SchemeId::Index(IndexScheme::Xor),
        SchemeId::Index(IndexScheme::OddMultiplier(21)),
        SchemeId::Index(IndexScheme::PrimeModulo),
        SchemeId::ColumnAssoc,
        SchemeId::Adaptive,
        SchemeId::BCache,
        SchemeId::Skewed,
    ]
}

/// Everything a hierarchy run produces that a figure could read.
#[derive(Debug, Clone, PartialEq)]
pub struct HierOutcome {
    pub cores: Vec<CacheStats>,
    pub coherence: CoherenceStats,
    pub l2: Option<CacheStats>,
}

impl HierOutcome {
    fn of(h: &CoherentHierarchy) -> Self {
        HierOutcome {
            cores: (0..h.cores()).map(|c| h.core_stats(c).clone()).collect(),
            coherence: *h.coherence_stats(),
            l2: h.shared_stats().cloned(),
        }
    }
}

/// Output of one operation of the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthOutput {
    Hierarchy(HierOutcome),
    Fused(Vec<CacheStats>),
}

/// Operation (a): one hierarchy over the merged stream through the
/// chunked kernel, the way `SimStore` runs each coherent lane.
fn run_hierarchy(cfg: &HierConfig, input: &SynthInput) -> SynthOutput {
    let mut h = cfg.build(true);
    run_coherent_fused(&mut [&mut h], input.merged.records());
    SynthOutput::Hierarchy(HierOutcome::of(&h))
}

/// Operation (b): decode the merged stream once and step every solo lane
/// over it in one fused traversal.
fn run_fused_group(input: &SynthInput) -> SynthOutput {
    let geom = CacheGeometry::paper_l1();
    let stream = BlockStream::from_records(input.merged.records(), geom.line_bytes());
    let mut lanes: Vec<Box<dyn FusedLane>> = fused_lanes()
        .iter()
        .map(|s| s.build_lane(geom, None))
        .collect();
    run_lanes(&mut lanes, &stream);
    SynthOutput::Fused(lanes.iter().map(|l| l.stats().clone()).collect())
}

/// One fused traversal of `stream` stepping every lane.
pub fn run_lanes(lanes: &mut [Box<dyn FusedLane>], stream: &BlockStream) {
    let mut refs: Vec<&mut dyn FusedLane> = lanes
        .iter_mut()
        .map(|l| l.as_mut() as &mut dyn FusedLane)
        .collect();
    run_fused(&mut refs, stream);
}

/// The per-record reference results of every operation, in operation
/// order: each hierarchy with the chunked kernel off, and each lane as a
/// solo `CacheModel::run`.
pub fn reference_outputs(input: &SynthInput) -> Vec<SynthOutput> {
    let mut out: Vec<SynthOutput> = hier_configs()
        .iter()
        .map(|cfg| {
            let mut h = cfg.build(false);
            h.run(input.merged.records());
            SynthOutput::Hierarchy(HierOutcome::of(&h))
        })
        .collect();
    let geom = CacheGeometry::paper_l1();
    out.push(SynthOutput::Fused(
        fused_lanes()
            .iter()
            .map(|s| {
                let mut m = s.build_model(geom, None);
                m.run(input.merged.records());
                m.stats().clone()
            })
            .collect(),
    ));
    out
}

/// Operation names, in the order [`reference_outputs`] lists them.
pub fn op_names() -> Vec<String> {
    let mut names: Vec<String> = hier_configs()
        .iter()
        .map(|c| format!("hierarchy.{}", c.label()))
        .collect();
    names.push("core.run_fused".to_string());
    names
}

/// Runs operation `i` of [`op_names`].
pub fn run_op(i: usize, input: &SynthInput) -> SynthOutput {
    let configs = hier_configs();
    match configs.get(i) {
        Some(cfg) => run_hierarchy(cfg, input),
        None => run_fused_group(input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        let a = generate(1, 2_000);
        let b = generate(1, 2_000);
        let c = generate(2, 2_000);
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.threads, b.threads);
        assert_ne!(a.merged, c.merged);
        assert_eq!(a.merged.len(), THREADS * 2_000);
        for (t, trace) in a.threads.iter().enumerate() {
            assert!(trace.iter().all(|r| r.tid as usize == t));
        }
    }

    #[test]
    fn shared_region_takes_about_thirty_percent_with_half_writes() {
        let input = generate(7, 20_000);
        let shared: Vec<_> = input
            .merged
            .iter()
            .filter(|r| (SHARED_BASE..SHARED_BASE + SHARED_BYTES).contains(&r.addr))
            .collect();
        let frac = shared.len() as f64 / input.merged.len() as f64;
        assert!((0.28..0.32).contains(&frac), "shared fraction {frac}");
        let writes =
            shared.iter().filter(|r| r.kind.is_write()).count() as f64 / shared.len() as f64;
        assert!(
            (0.47..0.53).contains(&writes),
            "shared write ratio {writes}"
        );
    }

    #[test]
    fn operations_match_the_per_record_reference() {
        let input = generate(3, 4_000);
        let reference = reference_outputs(&input);
        assert_eq!(reference.len(), op_names().len());
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&run_op(i, &input), want, "{}", op_names()[i]);
        }
    }
}
