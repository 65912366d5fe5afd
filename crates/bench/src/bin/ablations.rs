//! `ablations` — the design-choice sweeps DESIGN.md calls out. Each
//! sweep varies one knob and prints one `[ablation]` line of miss rates
//! (the scientific observable) to stderr; nothing is timed.
//!
//! Usage: `ablations` (no options).

use std::sync::Arc;
use unicache_assoc::{
    AdaptiveConfig, AdaptiveGroupCache, BCache, BCacheConfig, ChainConfig, PartnerChainCache,
};
use unicache_core::{CacheGeometry, CacheModel};
use unicache_indexing::{GivargisIndex, OddMultiplierIndex, RECOMMENDED_MULTIPLIERS};
use unicache_sim::{CacheBuilder, ReplacementPolicy};
use unicache_trace::Trace;
use unicache_workloads::{Scale, Workload};

/// Replays a trace from a cold cache and returns the model's miss rate.
fn miss_rate(trace: &Trace, model: &mut dyn CacheModel) -> f64 {
    model.flush();
    model.run(trace.records());
    model.stats().miss_rate()
}

/// Formats a labelled miss-rate sweep as one `[ablation]` line.
fn sweep_line(label: &str, pairs: &[(String, f64)]) -> String {
    let cells: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}={:.3}%", 100.0 * v))
        .collect();
    format!("[ablation] {label}: {}", cells.join("  "))
}

fn main() {
    let fft = Workload::Fft.generate(Scale::Small);
    let qsort = Workload::Qsort.generate(Scale::Small);
    for line in [
        ablation_replacement(&fft),
        ablation_multiplier(&fft),
        ablation_adaptive_tables(&fft),
        ablation_bcache_shape(&qsort),
        ablation_givargis_linesize(&fft),
        ablation_chain_length(&fft),
    ] {
        eprintln!("{line}");
    }
}

/// Replacement policy in a 4-way cache (paper uses LRU for L2/B-cache).
fn ablation_replacement(trace: &Trace) -> String {
    let g = CacheGeometry::new(32 * 1024, 32, 4).unwrap();
    let policies = [
        ("LRU", ReplacementPolicy::Lru),
        ("FIFO", ReplacementPolicy::Fifo),
        ("Random", ReplacementPolicy::Random),
        ("TreePLRU", ReplacementPolicy::TreePlru),
    ];
    let results: Vec<(String, f64)> = policies
        .iter()
        .map(|(name, p)| {
            let mut cache = CacheBuilder::new(g).replacement(*p).build().unwrap();
            (name.to_string(), miss_rate(trace, &mut cache))
        })
        .collect();
    sweep_line("replacement policy (fft, 4-way)", &results)
}

/// The odd-multiplier choice (paper recommends 9, 21, 31, 61).
fn ablation_multiplier(trace: &Trace) -> String {
    let g = CacheGeometry::paper_l1();
    let mut results = Vec::new();
    for &m in RECOMMENDED_MULTIPLIERS.iter().chain([7u64, 127].iter()) {
        let mut cache = CacheBuilder::new(g)
            .index(Arc::new(OddMultiplierIndex::new(g.num_sets(), m).unwrap()))
            .build()
            .unwrap();
        results.push((format!("p{m}"), miss_rate(trace, &mut cache)));
    }
    sweep_line("odd multiplier (fft)", &results)
}

/// SHT/OUT sizing of the adaptive cache (paper: 3/8 and 4/16).
fn ablation_adaptive_tables(trace: &Trace) -> String {
    let g = CacheGeometry::paper_l1();
    let sizes = [
        ("sht1/8,out1/8", 0.125, 0.125),
        ("sht3/8,out1/4", 0.375, 0.25), // paper configuration
        ("sht1/2,out1/2", 0.5, 0.5),
        ("sht1,out1", 1.0, 1.0),
    ];
    let results: Vec<(String, f64)> = sizes
        .iter()
        .map(|(name, sht, out)| {
            let cfg = AdaptiveConfig {
                sht_fraction: *sht,
                out_fraction: *out,
                relocation_window: 64,
            };
            let mut cache = AdaptiveGroupCache::with_config(g, cfg).unwrap();
            (name.to_string(), miss_rate(trace, &mut cache))
        })
        .collect();
    sweep_line("adaptive SHT/OUT sizing (fft)", &results)
}

/// B-cache mapping factor and associativity (paper: MF=2, BAS=8).
fn ablation_bcache_shape(trace: &Trace) -> String {
    let g = CacheGeometry::paper_l1();
    let shapes = [(1u32, 2u32), (2, 2), (2, 4), (2, 8), (4, 8), (2, 16)];
    let results: Vec<(String, f64)> = shapes
        .iter()
        .map(|&(mf, bas)| {
            let mut cache = BCache::with_config(
                g,
                BCacheConfig {
                    mapping_factor: mf,
                    bas,
                },
            )
            .unwrap();
            (format!("MF{mf}/BAS{bas}"), miss_rate(trace, &mut cache))
        })
        .collect();
    sweep_line("b-cache shape (qsort)", &results)
}

/// Givargis sensitivity to line size — the paper attributes its poor
/// showing at 32 B lines to byte-offset bits being excluded from the
/// candidate pool; smaller lines exclude fewer bits.
fn ablation_givargis_linesize(trace: &Trace) -> String {
    let mut results = Vec::new();
    for line in [8u64, 16, 32, 64] {
        let g = CacheGeometry::new(32 * 1024, line, 1).unwrap();
        let unique = trace.unique_blocks(line);
        let idx = GivargisIndex::train(&unique, g, 28).unwrap();
        let mut givargis = CacheBuilder::new(g).index(Arc::new(idx)).build().unwrap();
        let mut base = CacheBuilder::new(g).build().unwrap();
        let gv = miss_rate(trace, &mut givargis);
        let bs = miss_rate(trace, &mut base);
        let red = if bs > 0.0 {
            100.0 * (bs - gv) / bs
        } else {
            0.0
        };
        results.push((format!("{line}B:reduction"), red / 100.0));
    }
    sweep_line("givargis % miss reduction by line size (fft)", &results)
}

/// Partner-chain length (the paper's §1.2 "linked list" extension:
/// longer chains = more effective associativity for hot sets, more probe
/// cycles).
fn ablation_chain_length(trace: &Trace) -> String {
    let g = CacheGeometry::paper_l1();
    let mut results = Vec::new();
    for len in [1usize, 2, 3, 4, 6] {
        let cfg = ChainConfig {
            epoch: 8192,
            max_chains: 64,
            chain_len: len,
        };
        let mut cache = PartnerChainCache::with_config(g, cfg).unwrap();
        results.push((format!("len{len}"), miss_rate(trace, &mut cache)));
    }
    sweep_line("partner-chain length (fft)", &results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_measure_from_a_cold_cache_and_format_percentages() {
        let t = unicache_trace::synth::uniform(1, 2000, 0, 1 << 16);
        let mut c = CacheBuilder::new(CacheGeometry::paper_l1())
            .build()
            .unwrap();
        let r1 = miss_rate(&t, &mut c);
        let r2 = miss_rate(&t, &mut c);
        assert_eq!(r1, r2, "flush makes repeated measurement deterministic");
        let line = sweep_line("x", &[("a".into(), 0.5), ("b".into(), 0.00125)]);
        assert_eq!(line, "[ablation] x: a=50.000%  b=0.125%");
    }
}
