//! Walks through the programmable-associativity schemes on a single hot
//! conflict, showing *where* each one finds the data (primary, secondary,
//! miss) and what that costs in cycles — the mechanics behind the paper's
//! Figures 6 and 7.
//!
//! ```sh
//! cargo run --release --example programmable_associativity
//! ```

use unicache::prelude::*;

fn describe(model: &mut dyn CacheModel, refs: &[MemRecord], lat: &LatencyModel) {
    println!("--- {} ---", model.name());
    for (i, &r) in refs.iter().enumerate() {
        let out = model.access(r);
        println!(
            "  ref {:>2}: block {:>4} -> set {:>4} {:?}",
            i,
            r.addr / 32,
            out.set,
            out.where_hit
        );
    }
    let s = model.stats();
    println!(
        "  totals: {} accesses, {} primary hits, {} secondary hits, {} misses",
        s.accesses(),
        s.primary_hits,
        s.secondary_hits,
        s.misses()
    );
    let amat = match model.name() {
        n if n.starts_with("adaptive") => amat_adaptive(s, lat),
        n if n.starts_with("column") => amat_column_associative(s, lat),
        _ => amat_conventional(s, lat),
    };
    println!("  AMAT: {amat:.3} cycles\n");
}

fn main() {
    let geom = CacheGeometry::from_sets(64, 32, 1).unwrap();
    let lat = LatencyModel::default();

    // Two blocks that collide in every conventional direct-mapped cache
    // (same low index bits), accessed alternately — the worst case the
    // Section III schemes were designed for.
    let a = 0u64;
    let b = 64 * 32; // one full cache of lines away
    let mut refs = Vec::new();
    for _ in 0..6 {
        refs.push(MemRecord::read(a));
        refs.push(MemRecord::read(b));
    }

    let mut conventional = CacheBuilder::new(geom)
        .name("conventional")
        .build()
        .unwrap();
    describe(&mut conventional, &refs, &lat);

    let mut column = ColumnAssociativeCache::new(geom).unwrap();
    describe(&mut column, &refs, &lat);

    let mut adaptive = AdaptiveGroupCache::new(geom).unwrap();
    describe(&mut adaptive, &refs, &lat);

    let mut bcache = BCache::new(geom).unwrap();
    describe(&mut bcache, &refs, &lat);

    // The partner-index cache is a one-link partner chain.
    let mut partner = PartnerChainCache::with_config(
        geom,
        unicache::assoc::ChainConfig {
            epoch: 6,
            max_chains: 8,
            chain_len: 1,
        },
    )
    .unwrap();
    describe(&mut partner, &refs, &lat);

    println!(
        "takeaway: the conventional cache misses on every reference;\n\
         each programmable-associativity scheme converts the ping-pong into\n\
         hits at slightly different cycle costs — the paper's Fig. 6/7 story."
    );
}
