//! Layer 1 — the scheme verifier behind `uca check`.
//!
//! Every indexing scheme in `unicache_indexing::IndexScheme::all()` and
//! every `unicache-assoc` relocation policy is checked against the
//! algebraic invariant the paper's argument rests on:
//!
//! * **XOR** — the index is a GF(2) linear map of the block address; full
//!   rank (verified by Gaussian elimination over the tap-mask rows) means
//!   each tag group is permuted across all sets, the analysis "Cracking
//!   Intel Sandy Bridge's Cache Hash Function" applies to hardware hashes.
//! * **Odd multiplier** — `p` odd implies `p` is invertible mod `2^m`
//!   (inverse computed by Newton iteration and verified by multiplication),
//!   so tag displacement is a bijection.
//! * **Prime modulo** — surjective onto `0..p` with exactly `sets - p`
//!   dead (fragmented) sets, the paper's stated cost of the scheme.
//! * **Givargis / bit-select** — chosen bit positions are distinct and the
//!   gather is surjective (a witness block is constructed per target set).
//! * **Column-associative** — the rehash mapping is a fixed-point-free
//!   involution (hence a permutation) of the sets.
//! * **Partner-index / partner chains** — after adversarial traffic, at
//!   one and three links per chain, the chains are disjoint: no set linked
//!   to itself, no set in two chains, no hot set lent, and exactly the
//!   linked sets flagged lent.
//! * **B-cache** — the NPI/PI split covers every physical line
//!   (`clusters × BAS == lines`) and a dense drive makes each cluster hold
//!   `BAS` simultaneously-resident blocks.
//! * **Skewed** — both bank hashes are surjective within every tag group.
//! * **Patel search** — adding a bit to a bit-selection index never adds
//!   direct-mapped misses (refinement monotonicity), the fact the exact
//!   search's pruning bound rests on.
//!
//! Checks run on the paper geometry (1024 sets × 32 B) plus a small
//! 64-set geometry, and are pure computation: no trace files, no I/O.

use crate::report::Report;
use unicache_assoc::{
    AdaptiveGroupCache, BCache, ChainConfig, ColumnAssociativeCache, PartnerChainCache, SkewedCache,
};
use unicache_core::{CacheGeometry, CacheModel, IndexFunction};
use unicache_indexing::{
    GivargisIndex, GivargisXorIndex, IndexScheme, OddMultiplierIndex, PrimeModuloIndex, XorIndex,
};

/// Rank of a GF(2) matrix given as row bitmasks, by Gaussian elimination.
pub fn gf2_rank(rows: &[u64]) -> usize {
    let mut pivots: Vec<u64> = Vec::new();
    for &row in rows {
        let mut x = row;
        for &p in &pivots {
            let high = 63 - p.leading_zeros();
            if (x >> high) & 1 == 1 {
                x ^= p;
            }
        }
        if x != 0 {
            pivots.push(x);
            pivots.sort_unstable_by(|a, b| b.cmp(a));
        }
    }
    pivots.len()
}

/// The inverse of `p` modulo `2^m` (`None` if `p` is even, which has no
/// inverse). Newton iteration doubles the number of correct low bits each
/// step: `inv = p` is correct mod 2^3 for odd `p`, so five steps reach 64
/// bits.
pub fn inverse_mod_pow2(p: u64, m: u32) -> Option<u64> {
    if p & 1 == 0 || m == 0 || m > 64 {
        return None;
    }
    let mut inv = p;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
    }
    let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
    Some(inv & mask)
}

fn geometry_label(geom: CacheGeometry) -> String {
    format!(
        "{} sets x {} way x {} B",
        geom.num_sets(),
        geom.ways(),
        geom.line_bytes()
    )
}

/// Deterministic pseudo-random training blocks for the trace-trained
/// schemes (an LCG over a 24-bit block space — no RNG dependency, same
/// sequence every run).
pub fn training_blocks(count: usize) -> Vec<u64> {
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut blocks: Vec<u64> = (0..count)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) & 0xFF_FFFF
        })
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

/// The named invariant groups `uca check --group NAME` can run in
/// isolation (in `run_all` order).
pub const GROUPS: &[&str] = &[
    "schemes",
    "assoc",
    "conservation",
    "fused",
    "coherence",
    "model",
    "patel",
];

/// Runs one named invariant group, or `None` for an unknown name.
pub fn run_group(name: &str) -> Option<Report> {
    let mut report = Report::default();
    match name {
        "schemes" => {
            for geom in [CacheGeometry::paper_l1(), small_geometry()] {
                check_index_schemes(&mut report, geom);
            }
        }
        "assoc" => check_assoc_schemes(&mut report),
        "conservation" => check_counter_conservation(&mut report),
        "fused" => check_fused_conservation(&mut report),
        "coherence" => check_coherence(&mut report),
        "model" => crate::model_check::check_model(&mut report),
        "patel" => check_patel(&mut report),
        _ => return None,
    }
    Some(report)
}

/// Runs every check and returns the combined report.
pub fn run_all() -> Report {
    let mut report = Report::default();
    for geom in [
        CacheGeometry::paper_l1(),
        small_geometry(), // cross-validates on a brute-forceable size
    ] {
        check_index_schemes(&mut report, geom);
    }
    check_assoc_schemes(&mut report);
    check_counter_conservation(&mut report);
    check_fused_conservation(&mut report);
    check_coherence(&mut report);
    crate::model_check::check_model(&mut report);
    check_patel(&mut report);
    report
}

/// The small geometry used for brute-force cross-validation (64 sets).
pub fn small_geometry() -> CacheGeometry {
    match CacheGeometry::from_sets(64, 32, 1) {
        Ok(g) => g,
        Err(e) => unreachable!("64-set geometry is valid: {e}"),
    }
}

/// Checks every registered indexing scheme at one geometry.
pub fn check_index_schemes(report: &mut Report, geom: CacheGeometry) {
    let glabel = geometry_label(geom);
    let sets = geom.num_sets();
    let m = geom.index_bits();
    let training = training_blocks(16 * sets);

    for scheme in IndexScheme::all() {
        let label = scheme.label();
        let built = scheme.build(geom, Some(&training));
        let f = match built {
            Ok(f) => f,
            Err(e) => {
                report.push(&label, &glabel, "constructible", false, format!("{e}"));
                continue;
            }
        };
        report.push(
            &label,
            &glabel,
            "constructible",
            true,
            format!("built '{}'", f.name()),
        );

        // Universal invariant: indexes stay in range over a dense sweep
        // and over the (high-entropy) training blocks.
        let sweep = 16 * sets as u64;
        let in_range = (0..sweep)
            .chain(training.iter().copied())
            .all(|block| f.index_block(block) < sets);
        report.push(
            &label,
            &glabel,
            "in-range",
            in_range,
            format!("dense sweep of {sweep} blocks plus training blocks stayed below {sets}"),
        );
        // Set coverage for the untrained schemes: a dense sweep must reach
        // every set (exactly `p` of them for prime-modulo). The trained
        // schemes pick arbitrary address bits, so their surjectivity is
        // proven by the dedicated witness-based checks below instead.
        if !scheme.needs_training() {
            let expected_coverage = match scheme {
                IndexScheme::PrimeModulo => match PrimeModuloIndex::new(sets) {
                    Ok(p) => sets - p.fragmented_sets(),
                    Err(_) => sets,
                },
                _ => sets,
            };
            let mut seen = vec![false; sets];
            for block in 0..sweep {
                let s = f.index_block(block);
                if s < sets {
                    seen[s] = true;
                }
            }
            let covered = seen.iter().filter(|&&s| s).count();
            report.push(
                &label,
                &glabel,
                "set-coverage",
                covered == expected_coverage,
                format!("covered {covered} of {sets} sets, expected {expected_coverage}"),
            );
        }

        match scheme {
            IndexScheme::Conventional => {
                // Dense identity: blocks 0..sets hit each set exactly once.
                let bijective = (0..sets as u64).all(|b| f.index_block(b) == b as usize);
                report.push(
                    &label,
                    &glabel,
                    "dense-bijection",
                    bijective,
                    format!("blocks 0..{sets} map to their own set"),
                );
            }
            IndexScheme::Xor => check_xor(report, &label, &glabel, sets, m),
            IndexScheme::OddMultiplier(p) => {
                check_oddmul(report, &label, &glabel, sets, m, p);
            }
            IndexScheme::PrimeModulo => check_prime(report, &label, &glabel, sets),
            IndexScheme::Givargis => check_givargis(report, &label, &glabel, geom, &training),
            IndexScheme::GivargisXor => {
                check_givargis_xor(report, &label, &glabel, geom, &training);
            }
        }
    }
}

fn check_xor(report: &mut Report, label: &str, glabel: &str, sets: usize, m: u32) {
    let f = match XorIndex::new(sets) {
        Ok(f) => f,
        Err(e) => {
            report.push(label, glabel, "gf2-full-rank", false, format!("{e}"));
            return;
        }
    };
    // Restricted to the bits that can influence the index (the index field
    // plus the XORed tag slice), the map must have rank m *in its output
    // space*: eliminate over the m output rows directly.
    let rows = f.gf2_rows();
    let rank = gf2_rank(&rows);
    report.push(
        label,
        glabel,
        "gf2-full-rank",
        rank == m as usize,
        format!("GF(2) rank {rank}, need {m} (rows = per-output-bit tap masks)"),
    );
    // Cross-validate the algebra against the implementation: within a tag
    // group the map must permute the sets.
    let mut ok = true;
    for tag in [0u64, 1, 3, 0xAB] {
        let mut seen = vec![false; sets];
        for i in 0..sets as u64 {
            let s = f.index_block((tag << (m + f.tag_skip())) | i);
            if seen[s] {
                ok = false;
            }
            seen[s] = true;
        }
        if !seen.iter().all(|&s| s) {
            ok = false;
        }
    }
    report.push(
        label,
        glabel,
        "tag-group-permutation",
        ok,
        "each sampled tag group permutes all sets".to_string(),
    );
}

fn check_oddmul(report: &mut Report, label: &str, glabel: &str, sets: usize, m: u32, p: u64) {
    report.push(
        label,
        glabel,
        "odd-multiplier",
        p & 1 == 1,
        format!("multiplier {p} is odd"),
    );
    match inverse_mod_pow2(p, m) {
        Some(inv) => {
            let mask = sets as u64 - 1;
            let product = p.wrapping_mul(inv) & mask;
            report.push(
                label,
                glabel,
                "invertible-mod-2m",
                product == 1,
                format!("p * p^-1 = {p} * {inv} = {product} (mod 2^{m})"),
            );
        }
        None => {
            report.push(
                label,
                glabel,
                "invertible-mod-2m",
                false,
                format!("{p} has no inverse mod 2^{m}"),
            );
        }
    }
    // Cross-validate: the displacement tag -> p*tag (mod 2^m) is a
    // bijection, so index-0 blocks with tags 0..sets land in all sets.
    match OddMultiplierIndex::new(sets, p) {
        Ok(f) => {
            let mut seen = vec![false; sets];
            for tag in 0..sets as u64 {
                seen[f.index_block(tag << f.index_bits())] = true;
            }
            let covered = seen.iter().filter(|&&s| s).count();
            report.push(
                label,
                glabel,
                "tag-displacement-bijective",
                covered == sets,
                format!("tags 0..{sets} displaced onto {covered} distinct sets"),
            );
        }
        Err(e) => {
            report.push(
                label,
                glabel,
                "tag-displacement-bijective",
                false,
                format!("{e}"),
            );
        }
    }
}

fn check_prime(report: &mut Report, label: &str, glabel: &str, sets: usize) {
    let f = match PrimeModuloIndex::new(sets) {
        Ok(f) => f,
        Err(e) => {
            report.push(label, glabel, "prime-surjective", false, format!("{e}"));
            return;
        }
    };
    let p = f.prime() as usize;
    // Surjective onto 0..p (blocks 0..p are their own residues) and the
    // top `sets - p` sets are dead: no block in a full residue cycle ever
    // reaches them.
    let surjective = (0..p as u64).all(|b| f.index_block(b) == b as usize);
    report.push(
        label,
        glabel,
        "prime-surjective",
        surjective,
        format!("residues 0..{p} all reachable"),
    );
    let mut dead = vec![true; sets];
    for b in 0..(4 * sets as u64) {
        dead[f.index_block(b)] = false;
    }
    let dead_count = dead.iter().filter(|&&d| d).count();
    report.push(
        label,
        glabel,
        "dead-set-count",
        dead_count == f.fragmented_sets() && dead[p..].iter().all(|&d| d),
        format!(
            "{dead_count} dead sets (all at indexes >= {p}), fragmented_sets() = {}",
            f.fragmented_sets()
        ),
    );
}

fn bits_distinct(bits: &[u32]) -> bool {
    let mut sorted = bits.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == bits.len()
}

fn check_givargis(
    report: &mut Report,
    label: &str,
    glabel: &str,
    geom: CacheGeometry,
    training: &[u64],
) {
    let f = match GivargisIndex::train(training, geom, 28) {
        Ok(f) => f,
        Err(e) => {
            report.push(label, glabel, "bits-distinct", false, format!("{e}"));
            return;
        }
    };
    let bits = f.bits();
    let m = geom.index_bits() as usize;
    report.push(
        label,
        glabel,
        "bits-distinct",
        bits.len() == m && bits_distinct(bits),
        format!("selected {:?} ({} of {m} needed)", bits, bits.len()),
    );
    // Exact surjectivity: for every target set, scattering its bits into
    // the selected positions yields a block that indexes to it.
    let sets = geom.num_sets();
    let surjective = (0..sets).all(|t| {
        let block = bits
            .iter()
            .enumerate()
            .fold(0u64, |acc, (j, &b)| acc | ((((t >> j) & 1) as u64) << b));
        f.index_block(block) == t
    });
    report.push(
        label,
        glabel,
        "gather-surjective",
        surjective,
        format!("witness block found for each of {sets} sets"),
    );
}

fn check_givargis_xor(
    report: &mut Report,
    label: &str,
    glabel: &str,
    geom: CacheGeometry,
    training: &[u64],
) {
    let f = match GivargisXorIndex::train(training, geom, 28) {
        Ok(f) => f,
        Err(e) => {
            report.push(label, glabel, "tag-bits-distinct", false, format!("{e}"));
            return;
        }
    };
    let m = geom.index_bits();
    let bits = f.tag_bit_positions();
    report.push(
        label,
        glabel,
        "tag-bits-distinct",
        bits.len() == m as usize && bits_distinct(bits) && bits.iter().all(|&b| b >= m),
        format!("tag bits {:?} (need {m} distinct positions >= {m})", bits),
    );
    // With an all-zero tag region the gathered value is 0 and the hybrid
    // reduces to the conventional index, so blocks 0..sets witness
    // surjectivity directly.
    let sets = geom.num_sets();
    let surjective = (0..sets as u64).all(|b| f.index_block(b) == b as usize);
    report.push(
        label,
        glabel,
        "zero-tag-identity",
        surjective,
        format!("blocks 0..{sets} (zero tag) map to their own set"),
    );
}

/// Checks every associativity policy at the paper L1 shape.
pub fn check_assoc_schemes(report: &mut Report) {
    let geom = CacheGeometry::paper_l1();
    let glabel = geometry_label(geom);

    check_column(report, &glabel, geom);
    check_partner(report, &glabel, geom);
    check_bcache(report, &glabel, geom);
    check_skewed(report, &glabel, geom);
}

fn check_column(report: &mut Report, glabel: &str, geom: CacheGeometry) {
    let label = "column_associative";
    let c = match ColumnAssociativeCache::new(geom) {
        Ok(c) => c,
        Err(e) => {
            report.push(label, glabel, "rehash-involution", false, format!("{e}"));
            return;
        }
    };
    let sets = geom.num_sets();
    let mut fixed_point_free = true;
    let mut involution = true;
    let mut seen = vec![false; sets];
    for s in 0..sets {
        let a = c.alternate_of(s);
        if a == s {
            fixed_point_free = false;
        }
        if c.alternate_of(a) != s {
            involution = false;
        }
        seen[a] = true;
    }
    let permutation = seen.iter().all(|&s| s);
    report.push(
        label,
        glabel,
        "rehash-involution",
        fixed_point_free && involution && permutation,
        format!(
            "alternate_of over {sets} sets: fixed-point-free={fixed_point_free}, \
             involution={involution}, permutation={permutation}"
        ),
    );
}

/// Scheme label of a partner engine with `chain_len` links per chain.
fn partner_label(chain_len: usize) -> String {
    if chain_len == 1 {
        "partner_index".to_string()
    } else {
        format!("partner_chain(len={chain_len})")
    }
}

fn check_partner(report: &mut Report, glabel: &str, geom: CacheGeometry) {
    for chain_len in [1, 3] {
        let label = partner_label(chain_len);
        let cfg = ChainConfig {
            epoch: 2048,
            max_chains: 64,
            chain_len,
        };
        let mut c = match PartnerChainCache::with_config(geom, cfg) {
            Ok(c) => c,
            Err(e) => {
                report.push(&label, glabel, "partner-matching", false, format!("{e}"));
                continue;
            }
        };
        // Adversarial traffic: hammer a few sets with conflicting tags
        // (hot, all misses), leave the upper half untouched (cold) so
        // re-chaining has material to link.
        let sets = geom.num_sets();
        for round in 0..3 * cfg.epoch {
            let hot_set = round % 8;
            let tag = round % 7;
            c.access_block((tag << 10) | hot_set, false);
        }
        let chains: Vec<(usize, &[usize])> = c.chains().collect();
        let links: usize = chains.iter().map(|(_, chain)| chain.len()).sum();
        report.push(
            &label,
            glabel,
            "chains-formed",
            !chains.is_empty(),
            format!(
                "{} hot sets chained ({links} links) after adversarial epochs",
                chains.len()
            ),
        );
        let mut used = vec![0u32; sets];
        let mut no_self_link = true;
        let mut hot_not_lent = true;
        let mut links_lent = true;
        for &(hot, chain) in &chains {
            used[hot] += 1;
            hot_not_lent &= !c.is_lent(hot);
            for &link in chain {
                no_self_link &= link != hot;
                used[link] += 1;
                links_lent &= c.is_lent(link);
            }
        }
        let disjoint = used.iter().all(|&u| u <= 1);
        // Every lent set is some chain's link, and vice versa.
        let lent_count = (0..sets).filter(|&s| c.is_lent(s)).count();
        let lent_consistent = links_lent && lent_count == links;
        report.push(
            &label,
            glabel,
            "partner-matching",
            no_self_link && disjoint && hot_not_lent && lent_consistent,
            format!(
                "no self-link={no_self_link}, each set in at most one chain={disjoint}, \
                 no hot set lent={hot_not_lent}, lent flags consistent={lent_consistent}"
            ),
        );
    }
}

fn check_bcache(report: &mut Report, glabel: &str, geom: CacheGeometry) {
    let label = "b_cache";
    let mut b = match BCache::new(geom) {
        Ok(b) => b,
        Err(e) => {
            report.push(label, glabel, "npi-pi-split", false, format!("{e}"));
            return;
        }
    };
    let lines = geom.num_lines();
    let oi = unicache_core::log2(lines as u64);
    let shape_ok =
        b.clusters() * b.bas() == lines && b.npi_bits() + unicache_core::log2(b.bas() as u64) == oi;
    report.push(
        label,
        glabel,
        "npi-pi-split",
        shape_ok,
        format!(
            "{} clusters x BAS {} = {} lines; NPI {} + log2(BAS {}) = OI {oi}",
            b.clusters(),
            b.bas(),
            lines,
            b.npi_bits(),
            b.bas(),
        ),
    );
    // Coverage: for every cluster, BAS blocks sharing the NPI bits but
    // with distinct PI values must be simultaneously resident — i.e. the
    // programmable decoders let the cluster's full line complement hold
    // them (all physical lines reachable).
    let clusters = b.clusters() as u64;
    let mut covered = true;
    for cluster in 0..clusters {
        let blocks: Vec<u64> = (0..b.bas() as u64)
            .map(|k| cluster | (k << b.npi_bits()))
            .collect();
        for &blk in &blocks {
            if b.cluster_of(blk) != cluster as usize {
                covered = false;
            }
            b.access_block(blk, false);
        }
        if !blocks.iter().all(|&blk| b.contains_block(blk)) {
            covered = false;
        }
        let distinct_pi: std::collections::BTreeSet<u64> =
            blocks.iter().map(|&blk| b.pi_of(blk)).collect();
        if distinct_pi.len() != b.bas() {
            covered = false;
        }
    }
    report.push(
        label,
        glabel,
        "cluster-coverage",
        covered,
        format!(
            "every cluster holds {} blocks with distinct PI simultaneously",
            b.bas()
        ),
    );
}

fn check_skewed(report: &mut Report, glabel: &str, geom: CacheGeometry) {
    let label = "skewed_2way";
    let c = match SkewedCache::new(geom) {
        Ok(c) => c,
        Err(e) => {
            report.push(label, glabel, "bank-hash-surjective", false, format!("{e}"));
            return;
        }
    };
    let bank_sets = geom.num_sets() / 2;
    let bank_bits = unicache_core::log2(bank_sets as u64);
    let mut ok = true;
    for tag in [0u64, 1, 5] {
        let mut seen0 = vec![false; bank_sets];
        let mut seen1 = vec![false; bank_sets];
        for i in 0..bank_sets as u64 {
            let block = (tag << bank_bits) | i;
            seen0[c.f0(block)] = true;
            seen1[c.f1(block)] = true;
        }
        if !seen0.iter().all(|&s| s) || !seen1.iter().all(|&s| s) {
            ok = false;
        }
    }
    report.push(
        label,
        glabel,
        "bank-hash-surjective",
        ok,
        format!("f0 and f1 cover all {bank_sets} bank sets in each sampled tag group"),
    );
}

/// A deterministic access stream with enough locality to produce hits,
/// secondary hits and misses in every scheme (LCG over a small block
/// space — no RNG dependency, same sequence every run).
fn conservation_stream(count: usize) -> Vec<u64> {
    let mut x = 0x2545f4914f6cdd1du64;
    (0..count)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Skew toward low blocks so conflict sets get re-referenced.
            let v = (x >> 33) & 0x3FF;
            v % 600
        })
        .collect()
}

/// Layer 1b — counter conservation: the `unicache-obs` event counters a
/// model emits must reconcile exactly with the [`unicache_core::CacheStats`]
/// it reports. Every access is probed exactly once; second probes account
/// for every secondary hit and probed miss; swaps/relocations match the
/// stats' relocation counter. A drifting counter means instrumentation
/// was added, moved or removed without keeping the books balanced.
///
/// The obs sinks are process-global, so the pass serializes itself (and
/// any concurrent caller of [`run_all`]) behind a lock, and resets the
/// sinks around each scheme.
pub fn check_counter_conservation(report: &mut Report) {
    use unicache_obs::Event;

    let glabel = "counter-conservation (64 sets x 1 way x 32 B)";
    if !unicache_obs::enabled() {
        report.push(
            "obs",
            glabel,
            "obs-enabled",
            false,
            "unicache-obs compiled without the `enabled` feature".to_string(),
        );
        return;
    }

    // Allowed shared static: serializes this tool's own obs probes; never
    // touched by simulation code.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(()); // uca:allow(shared-static)
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());

    let geom = small_geometry();
    let stream = conservation_stream(20_000);

    let run = |model: &mut dyn CacheModel| {
        unicache_obs::reset();
        for &b in &stream {
            model.access_block(b, b % 7 == 0);
        }
    };
    let outcome_sum = |s: &unicache_core::CacheStats| {
        s.primary_hits + s.secondary_hits + s.misses_direct + s.misses_after_probe
    };

    // Conventional cache (the baseline every figure normalizes against).
    if let Ok(mut c) = unicache_sim::CacheBuilder::new(geom).build() {
        run(&mut c);
        let s = c.stats().clone();
        let probes = unicache_obs::counter_value(Event::CacheProbe);
        report.push(
            "baseline",
            glabel,
            "probe-per-access",
            probes == s.accesses() && outcome_sum(&s) == s.accesses(),
            format!("{probes} probes, {} accesses", s.accesses()),
        );
    }

    if let Ok(mut c) = ColumnAssociativeCache::new(geom) {
        run(&mut c);
        let s = c.stats().clone();
        let probe = unicache_obs::counter_value(Event::ColumnProbe);
        let second = unicache_obs::counter_value(Event::ColumnSecondProbe);
        let swap = unicache_obs::counter_value(Event::ColumnSwap);
        let reclaim = unicache_obs::counter_value(Event::ColumnReclaim);
        let displace = unicache_obs::counter_value(Event::ColumnDisplace);
        report.push(
            "column_associative",
            glabel,
            "probe-per-access",
            probe == s.accesses() && outcome_sum(&s) == s.accesses(),
            format!("{probe} probes, {} accesses", s.accesses()),
        );
        report.push(
            "column_associative",
            glabel,
            "second-probe-accounting",
            second == s.secondary_hits + s.misses_after_probe,
            format!(
                "{second} second probes vs {} secondary hits + {} probed misses",
                s.secondary_hits, s.misses_after_probe
            ),
        );
        report.push(
            "column_associative",
            glabel,
            "swap-equals-secondary",
            swap == s.secondary_hits && reclaim == s.misses_direct,
            format!(
                "{swap} swaps vs {} secondary hits; {reclaim} reclaims vs {} direct misses",
                s.secondary_hits, s.misses_direct
            ),
        );
        report.push(
            "column_associative",
            glabel,
            "relocation-accounting",
            swap + displace == s.relocations,
            format!(
                "{swap} swaps + {displace} displacements vs {} relocations",
                s.relocations
            ),
        );
    }

    for chain_len in [1, 3] {
        let label = partner_label(chain_len);
        let cfg = ChainConfig {
            epoch: 2048,
            max_chains: 16,
            chain_len,
        };
        let Ok(mut c) = PartnerChainCache::with_config(geom, cfg) else {
            continue;
        };
        run(&mut c);
        let s = c.stats().clone();
        let probe = unicache_obs::counter_value(Event::PartnerProbe);
        let second = unicache_obs::counter_value(Event::PartnerSecondProbe);
        let lend = unicache_obs::counter_value(Event::PartnerLend);
        let repartner = unicache_obs::counter_value(Event::PartnerRepartner);
        report.push(
            &label,
            glabel,
            "probe-per-access",
            probe == s.accesses() && outcome_sum(&s) == s.accesses(),
            format!("{probe} probes, {} accesses", s.accesses()),
        );
        // A chain walk ends in a secondary hit or a probed miss; a probed
        // miss lends the primary resident unless the primary was empty.
        report.push(
            &label,
            glabel,
            "second-probe-accounting",
            second == s.secondary_hits + s.misses_after_probe
                && lend <= s.misses_after_probe
                && s.secondary_hits + lend == s.relocations,
            format!(
                "{second} chain walks vs {} secondary hits + {} probed misses; \
                 {lend} lends + secondary hits vs {} relocations",
                s.secondary_hits, s.misses_after_probe, s.relocations
            ),
        );
        let expected_epochs = s.accesses() / cfg.epoch;
        report.push(
            &label,
            glabel,
            "epoch-accounting",
            repartner == expected_epochs,
            format!(
                "{repartner} re-chainings over {} accesses at epoch {}",
                s.accesses(),
                cfg.epoch
            ),
        );
    }

    if let Ok(mut c) = BCache::new(geom) {
        run(&mut c);
        let s = c.stats().clone();
        let probe = unicache_obs::counter_value(Event::BcacheProbe);
        let compares = unicache_obs::counter_value(Event::BcacheLineCompare);
        let reprog = unicache_obs::counter_value(Event::BcacheDecoderReprogram);
        report.push(
            "b_cache",
            glabel,
            "probe-per-access",
            probe == s.accesses() && outcome_sum(&s) == s.accesses(),
            format!("{probe} probes, {} accesses", s.accesses()),
        );
        report.push(
            "b_cache",
            glabel,
            "walk-accounting",
            compares >= s.accesses() && reprog == s.misses(),
            format!(
                "{compares} line compares over {} accesses; {reprog} reprograms vs {} misses",
                s.accesses(),
                s.misses()
            ),
        );
        let walk_total: u64 = (0..unicache_obs::BUCKETS)
            .map(|i| unicache_obs::hist_bucket(unicache_obs::HistEvent::BcacheWalk, i))
            .sum();
        report.push(
            "b_cache",
            glabel,
            "walk-histogram-total",
            walk_total == s.accesses(),
            format!("{walk_total} walk samples vs {} accesses", s.accesses()),
        );
    }

    if let Ok(mut c) = AdaptiveGroupCache::new(geom) {
        run(&mut c);
        let s = c.stats().clone();
        let probe = unicache_obs::counter_value(Event::AdaptiveProbe);
        let out_hit = unicache_obs::counter_value(Event::AdaptiveOutHit);
        let sht_hit = unicache_obs::counter_value(Event::AdaptiveShtHit);
        let reloc = unicache_obs::counter_value(Event::AdaptiveRelocation);
        report.push(
            "adaptive_cache",
            glabel,
            "probe-per-access",
            probe == s.accesses() && outcome_sum(&s) == s.accesses(),
            format!("{probe} probes, {} accesses", s.accesses()),
        );
        report.push(
            "adaptive_cache",
            glabel,
            "directory-accounting",
            out_hit == s.secondary_hits && sht_hit == s.misses_after_probe,
            format!(
                "{out_hit} OUT hits vs {} secondary hits; {sht_hit} protected victims vs {} \
                 probed misses",
                s.secondary_hits, s.misses_after_probe
            ),
        );
        report.push(
            "adaptive_cache",
            glabel,
            "relocation-accounting",
            reloc == s.relocations,
            format!("{reloc} counted vs {} in stats", s.relocations),
        );
    }

    if let Ok(mut c) = SkewedCache::new(geom) {
        run(&mut c);
        let s = c.stats().clone();
        let probe = unicache_obs::counter_value(Event::SkewedProbe);
        report.push(
            "skewed_2way",
            glabel,
            "probe-per-access",
            probe == s.accesses() && outcome_sum(&s) == s.accesses(),
            format!("{probe} probes, {} accesses", s.accesses()),
        );
    }

    unicache_obs::reset();
}

/// Layer 1c — fused-kernel counter conservation: when one fused pass
/// drives several schemes ("lanes") over a single decoded stream, every
/// lane's hits + misses must sum to the group's decoded record count,
/// every lane's per-scheme probe counter must equal its own access count
/// (no events leak between lanes sharing the pass), and every lane's
/// final statistics must be bit-identical to the same model run solo
/// through the per-record path.
///
/// Like [`check_counter_conservation`], the pass serializes on the global
/// obs sinks and resets them around the run.
pub fn check_fused_conservation(report: &mut Report) {
    use unicache_core::{run_fused, BlockStream, FusedLane, MemRecord};
    use unicache_obs::Event;

    let glabel = "fused-conservation (64 sets x 1 way x 32 B)";
    if !unicache_obs::enabled() {
        report.push(
            "obs",
            glabel,
            "obs-enabled",
            false,
            "unicache-obs compiled without the `enabled` feature".to_string(),
        );
        return;
    }

    // Allowed shared static: serializes this tool's own obs probes; never
    // touched by simulation code.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(()); // uca:allow(shared-static)
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());

    let geom = small_geometry();
    let line = geom.line_bytes();
    let records: Vec<MemRecord> = conservation_stream(20_000)
        .iter()
        .map(|&b| {
            if b % 7 == 0 {
                MemRecord::write(b * line)
            } else {
                MemRecord::read(b * line)
            }
        })
        .collect();
    let stream = BlockStream::from_records(&records, line);

    // One lane per fusable scheme family; the index-scheme lanes share
    // the group with the relocation caches, exactly as SimStore groups
    // them.
    let xor = match XorIndex::new(geom.num_sets()) {
        Ok(f) => f,
        Err(e) => {
            report.push("fused", glabel, "lane-construction", false, e.to_string());
            return;
        }
    };
    let built: Result<Vec<Box<dyn FusedLane>>, unicache_core::ConfigError> = (|| {
        Ok(vec![
            Box::new(unicache_sim::CacheBuilder::new(geom).build()?) as Box<dyn FusedLane>,
            Box::new(
                unicache_sim::CacheBuilder::new(geom)
                    .index(std::sync::Arc::new(xor))
                    .build()?,
            ),
            Box::new(ColumnAssociativeCache::new(geom)?),
            Box::new(SkewedCache::new(geom)?),
            Box::new(AdaptiveGroupCache::new(geom)?),
            Box::new(BCache::new(geom)?),
        ])
    })();
    let mut lanes = match built {
        Ok(l) => l,
        Err(e) => {
            report.push("fused", glabel, "lane-construction", false, e.to_string());
            return;
        }
    };

    unicache_obs::reset();
    {
        let mut refs: Vec<&mut dyn FusedLane> = lanes
            .iter_mut()
            .map(|l| l.as_mut() as &mut dyn FusedLane)
            .collect();
        run_fused(&mut refs, &stream);
    }

    let decoded = stream.len() as u64;
    let outcome_sum = |s: &unicache_core::CacheStats| {
        s.primary_hits + s.secondary_hits + s.misses_direct + s.misses_after_probe
    };
    for lane in &lanes {
        let s = lane.stats();
        report.push(
            lane.name(),
            glabel,
            "fused-record-conservation",
            s.accesses() == decoded && outcome_sum(s) == decoded,
            format!(
                "{} hits + {} misses vs {decoded} decoded records",
                s.hits(),
                s.misses()
            ),
        );
    }

    // Per-scheme probe counters attribute to the right lane: both
    // conventional caches bump CacheProbe; each relocation cache bumps
    // only its own family counter.
    let probes = [
        ("cache-probe", Event::CacheProbe, 2 * decoded),
        ("column-probe", Event::ColumnProbe, decoded),
        ("skewed-probe", Event::SkewedProbe, decoded),
        ("adaptive-probe", Event::AdaptiveProbe, decoded),
        ("bcache-probe", Event::BcacheProbe, decoded),
        ("partner-probe", Event::PartnerProbe, 0),
    ];
    for (invariant, event, expected) in probes {
        let got = unicache_obs::counter_value(event);
        report.push(
            "fused",
            glabel,
            invariant,
            got == expected,
            format!("{got} {} events vs {expected} expected", event.name()),
        );
    }
    unicache_obs::reset();

    // Fused results are bit-identical to the per-record solo path.
    type SoloBuilder = fn(CacheGeometry) -> Option<Box<dyn CacheModel>>;
    let solo_pairs: [(&str, SoloBuilder); 3] = [
        ("baseline", |g| {
            unicache_sim::CacheBuilder::new(g)
                .build()
                .ok()
                .map(|c| Box::new(c) as Box<dyn CacheModel>)
        }),
        ("column_associative", |g| {
            ColumnAssociativeCache::new(g)
                .ok()
                .map(|c| Box::new(c) as Box<dyn CacheModel>)
        }),
        ("adaptive_cache", |g| {
            AdaptiveGroupCache::new(g)
                .ok()
                .map(|c| Box::new(c) as Box<dyn CacheModel>)
        }),
    ];
    let fused_by_name: Vec<(&str, &unicache_core::CacheStats)> =
        lanes.iter().map(|l| (l.name(), l.stats())).collect();
    for (name, build) in solo_pairs {
        let Some(mut solo) = build(geom) else {
            report.push(
                "fused",
                glabel,
                "solo-construction",
                false,
                name.to_string(),
            );
            continue;
        };
        for rec in &records {
            solo.access(*rec);
        }
        let matched = fused_by_name
            .iter()
            .find(|(n, _)| *n == solo.name())
            .map(|(_, s)| *s == solo.stats());
        report.push(
            name,
            glabel,
            "fused-equals-solo",
            matched == Some(true),
            match matched {
                Some(true) => "identical stats".to_string(),
                Some(false) => "fused and solo stats diverged".to_string(),
                None => format!("no fused lane named {}", solo.name()),
            },
        );
    }
}

/// Layer 1d — coherence invariants: the multi-core hierarchy's books
/// must balance the same way the solo models' do, plus the obligations
/// unique to coherence:
///
/// * **miss attribution** — every L1 miss is satisfied by exactly one
///   data source (peer intervention, L2 demand hit, or memory fetch) and
///   issues exactly one BusRd/BusRdX transaction;
/// * **victim-buffer bounds** — per-core occupancy (current and
///   high-water) never exceeds the configured depth, and every victim
///   rescue is accounted as a secondary hit;
/// * **MESI closure** — the transition table defines a successor for
///   every (valid state, event) pair, rejects events on invalid lines,
///   and places flush/upgrade side-conditions only where MESI requires;
/// * **protocol model check** — a bounded DFS over interleaved
///   load/store/evict/writeback races holds SWMR, data-value, inclusion
///   and victim-no-alias at every step;
/// * **solo equivalence** — a 1-core hierarchy with a pass-through L2
///   and a depth-0 victim buffer reproduces the solo cache's stats
///   exactly (the trait boundary adds no behavior).
pub fn check_coherence(report: &mut Report) {
    use unicache_core::{CoherentModel, MemRecord};
    use unicache_hierarchy::{
        check_coherence_protocol, transition, CoherenceConfig, HierarchyBuilder, L2Mode, LineEvent,
        Mesi,
    };

    let glabel = "coherence (64 sets x 1 way x 32 B, 2 cores)";
    let geom = small_geometry();
    let line = geom.line_bytes();
    let records: Vec<MemRecord> = conservation_stream(20_000)
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let rec = if b % 7 == 0 {
                MemRecord::write(b * line)
            } else {
                MemRecord::read(b * line)
            };
            rec.with_tid((i % 2) as u8)
        })
        .collect();

    let l2 = match CacheGeometry::from_sets(geom.num_sets(), line, 4) {
        Ok(g) => g,
        Err(e) => {
            report.push("coherent", glabel, "l2-geometry", false, e.to_string());
            return;
        }
    };
    let built = unicache_indexing::ModuloIndex::new(geom.num_sets())
        .map_err(|e| e.to_string())
        .and_then(|index| {
            HierarchyBuilder::new(geom, std::sync::Arc::new(index))
                .cores(2)
                .victim_depth(2)
                .l2(L2Mode::Shared(l2))
                .build()
                .map_err(|e| e.to_string())
        });
    let mut hier = match built {
        Ok(h) => h,
        Err(e) => {
            report.push("coherent", glabel, "construction", false, e);
            return;
        }
    };
    hier.run(&records);
    let merged = hier.merged_core_stats();
    let coh = hier.coherence_stats();

    let outcome_sum = merged.primary_hits
        + merged.secondary_hits
        + merged.misses_direct
        + merged.misses_after_probe;
    report.push(
        "coherent",
        glabel,
        "outcome-conservation",
        outcome_sum == merged.accesses() && merged.accesses() == records.len() as u64,
        format!("{} outcomes, {} accesses", outcome_sum, merged.accesses()),
    );
    let issued = coh.bus_reads + coh.bus_read_x;
    report.push(
        "coherent",
        glabel,
        "miss-attribution",
        merged.misses() == issued && merged.misses() == coh.data_sources(),
        format!(
            "{} misses = {} bus fetches = {} + {} + {} data sources",
            merged.misses(),
            issued,
            coh.interventions,
            coh.l2_demand_hits,
            coh.memory_fetches
        ),
    );
    report.push(
        "coherent",
        glabel,
        "victim-hit-accounting",
        coh.victim_hits == merged.secondary_hits,
        format!(
            "{} victim hits vs {} secondary hits",
            coh.victim_hits, merged.secondary_hits
        ),
    );
    let occupancy_ok = (0..2).all(|c| {
        let v = hier.victim_buffer(c);
        v.occupancy() <= hier.victim_depth() && v.max_occupancy() <= hier.victim_depth()
    });
    report.push(
        "coherent",
        glabel,
        "victim-occupancy-bounds",
        occupancy_ok,
        format!(
            "high-water {:?} within depth {}",
            (0..2)
                .map(|c| hier.victim_buffer(c).max_occupancy())
                .collect::<Vec<_>>(),
            hier.victim_depth()
        ),
    );

    // Chunked-kernel conservation (DESIGN §16): every access commits on
    // exactly one of the two paths, so the fast-path and serial-path
    // counters must partition the access total.
    let fast = hier.fast_path_commits();
    let serial = hier.serial_path_commits();
    report.push(
        "coherent",
        glabel,
        "chunk-commit-conservation",
        fast + serial == merged.accesses(),
        format!(
            "{fast} fast + {serial} serial commits vs {} accesses",
            merged.accesses()
        ),
    );

    // Chunk-replay equivalence: the chunked kernel's fast path skips bus
    // bookkeeping only for accesses that provably generate none, so a
    // per-record replay of the same stream must produce byte-identical
    // coherence traffic and core stats.
    let replay = unicache_indexing::ModuloIndex::new(geom.num_sets())
        .map_err(|e| e.to_string())
        .and_then(|index| {
            HierarchyBuilder::new(geom, std::sync::Arc::new(index))
                .cores(2)
                .victim_depth(2)
                .l2(L2Mode::Shared(l2))
                .chunked(false)
                .build()
                .map_err(|e| e.to_string())
        });
    match replay {
        Ok(mut slow) => {
            slow.run(&records);
            let same = slow.coherence_stats() == coh
                && slow.merged_core_stats() == merged
                && slow.shared_stats() == hier.shared_stats();
            report.push(
                "coherent",
                glabel,
                "chunk-replay-equivalence",
                same,
                if same {
                    format!(
                        "per-record replay identical ({} bus fetches)",
                        coh.bus_reads + coh.bus_read_x
                    )
                } else {
                    "chunked and per-record runs diverged".to_string()
                },
            );
        }
        Err(e) => report.push("coherent", glabel, "chunk-replay-equivalence", false, e),
    }

    // MESI transition-table closure.
    let mut closed = true;
    let mut detail = String::from("closed");
    for &s in &Mesi::ALL {
        for &e in &LineEvent::ALL {
            let t = transition(s, e);
            let ok = match (s, t) {
                (Mesi::Invalid, None) => true,
                (Mesi::Invalid, Some(_)) => false,
                (_, None) => false,
                (_, Some(t)) => {
                    (e != LineEvent::SnoopWrite || t.next == Mesi::Invalid)
                        && (e != LineEvent::StoreHit || t.next == Mesi::Modified)
                        && (t.flush == (s == Mesi::Modified && t.next != Mesi::Modified))
                        && (t.bus_upgrade == (s == Mesi::Shared && e == LineEvent::StoreHit))
                }
            };
            if !ok {
                closed = false;
                detail = format!("({s:?}, {e:?}) -> {t:?}");
            }
        }
    }
    report.push("coherent", glabel, "mesi-table-closure", closed, detail);

    // Bounded model check (a fast slice of the full suite the hierarchy
    // crate's tests run; `uca check` re-proves it on every invocation).
    let mut cfg = CoherenceConfig::racing();
    cfg.bounds.max_interleavings = 3_000;
    cfg.bounds.max_depth = 128;
    match check_coherence_protocol(&cfg) {
        Ok(explored) => report.push(
            "coherent",
            glabel,
            "protocol-model-check",
            explored.interleavings > 0,
            format!("{} interleavings clean", explored.interleavings),
        ),
        Err(v) => report.push(
            "coherent",
            glabel,
            "protocol-model-check",
            false,
            format!("{} violated: {}", v.invariant, v.detail),
        ),
    }

    // Solo equivalence: 1 core, pass-through L2, depth-0 victim buffer.
    let solo_pair = unicache_indexing::ModuloIndex::new(geom.num_sets())
        .map_err(|e| e.to_string())
        .and_then(|index| {
            let index = std::sync::Arc::new(index);
            let h = HierarchyBuilder::new(geom, index.clone())
                .cores(1)
                .victim_depth(0)
                .l2(L2Mode::PassThrough)
                .build()
                .map_err(|e| e.to_string())?;
            let c = unicache_sim::CacheBuilder::new(geom)
                .index(index)
                .build()
                .map_err(|e| e.to_string())?;
            Ok((h, c))
        });
    match solo_pair {
        Ok((mut h, mut c)) => {
            h.run(&records);
            for rec in &records {
                c.access(*rec);
            }
            let same = h.core_stats(0) == c.stats();
            report.push(
                "coherent",
                glabel,
                "solo-equivalence",
                same,
                if same {
                    "1-core hierarchy stats identical to solo cache".to_string()
                } else {
                    "1-core hierarchy diverged from solo cache".to_string()
                },
            );
        }
        Err(e) => report.push("coherent", glabel, "solo-equivalence", false, e),
    }
}

/// Layer 1f — refinement monotonicity of Patel's search cost: for seeded
/// bit sets `S` and every bit `b ∉ S`, `cost(S ∪ {b}) <= cost(S)`. Adding a
/// bit splits sets without merging any, and a direct-mapped replay under a
/// finer partition only turns misses into hits; the exact search prunes a
/// subtree on exactly this bound. Runs on the conservation stream and on
/// two passes over the trace-trained schemes' training blocks (one pass of
/// unique blocks misses under every bit set).
pub fn check_patel(report: &mut Report) {
    use unicache_indexing::PatelSearch;

    const BITS: u32 = 24;
    let streams = [
        (
            "conservation stream (20000 refs)",
            conservation_stream(20_000),
        ),
        (
            "training blocks x 2 passes",
            training_blocks(4096).repeat(2),
        ),
    ];
    for (glabel, blocks) in &streams {
        let mut x = 0x853c49e6748fea9bu64;
        let (mut checked, mut violation) = (0usize, None);
        for size in 0..12 {
            // A seeded `size`-bit subset of the low `BITS` block bits.
            let mut set: Vec<u32> = Vec::new();
            while set.len() < size {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bit = ((x >> 33) % u64::from(BITS)) as u32;
                if !set.contains(&bit) {
                    set.push(bit);
                }
            }
            set.sort_unstable();
            let base = PatelSearch::cost(&set, blocks);
            for b in (0..BITS).filter(|b| !set.contains(b)) {
                let mut finer = set.clone();
                finer.push(b);
                let cost = PatelSearch::cost(&finer, blocks);
                checked += 1;
                if cost > base && violation.is_none() {
                    violation = Some(format!("{set:?} + bit {b}: {base} -> {cost} misses"));
                }
            }
        }
        report.push(
            "patel",
            *glabel,
            "refinement-monotone",
            violation.is_none(),
            violation.unwrap_or_else(|| {
                format!("{checked} one-bit refinements of 12 seeded bit sets never add a miss")
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf2_rank_basics() {
        assert_eq!(gf2_rank(&[]), 0);
        assert_eq!(gf2_rank(&[0]), 0);
        assert_eq!(gf2_rank(&[1, 2, 4]), 3);
        // Third row is the XOR of the first two: rank 2.
        assert_eq!(gf2_rank(&[0b011, 0b101, 0b110]), 2);
        assert_eq!(gf2_rank(&[u64::MAX, 1]), 2);
    }

    #[test]
    fn newton_inverse_matches_brute_force() {
        for m in 1..=12u32 {
            let modulus = 1u64 << m;
            for p in (1..64u64).step_by(2) {
                let inv = inverse_mod_pow2(p, m).unwrap();
                assert_eq!(
                    p.wrapping_mul(inv) % modulus,
                    1 % modulus,
                    "p={p} m={m} inv={inv}"
                );
            }
        }
        assert!(inverse_mod_pow2(4, 10).is_none());
        assert!(inverse_mod_pow2(3, 0).is_none());
    }

    #[test]
    fn full_run_passes_every_invariant() {
        let report = run_all();
        let failed: Vec<String> = report
            .entries
            .iter()
            .filter(|e| !e.passed)
            .map(|e| format!("{}/{}/{}: {}", e.scheme, e.geometry, e.invariant, e.details))
            .collect();
        assert!(failed.is_empty(), "failing invariants: {failed:#?}");
        // Sanity: the run actually covered the registry and the assoc set.
        assert!(report.entries.len() > 40, "unexpectedly few checks");
        for needle in [
            "XOR",
            "Prime_Modulo",
            "column_associative",
            "b_cache",
            "patel",
        ] {
            assert!(
                report.entries.iter().any(|e| e.scheme == needle),
                "missing {needle}"
            );
        }
    }

    #[test]
    fn training_blocks_are_unique_and_deterministic() {
        let a = training_blocks(4096);
        let b = training_blocks(4096);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }
}
