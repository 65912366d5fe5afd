//! Golden-trace regression: `xp all --scale tiny` must reproduce the
//! committed transcript byte for byte.
//!
//! The entire workspace is deterministic — synthetic workloads, seeded
//! RNG shims, fixed-point rendering — so any byte of drift in this
//! transcript is a behaviour change, not noise. The test renders
//! in-process through [`unicache::experiments::render_all`], which is
//! exactly what the `xp` binary prints (see `crates/experiments/src/
//! runner.rs`), so no subprocess or binary path is involved.
//!
//! To refresh after an *intentional* change:
//!
//! ```text
//! cargo run --release --bin xp -- all --scale tiny > tests/golden_tiny.txt
//! ```
//!
//! and explain the drift in the commit message.

use unicache::prelude::*;

const GOLDEN: &str = include_str!("golden_tiny.txt");

/// Reports the first differing line with context, so a drift failure
/// shows *where* the transcript changed rather than two 24 kB blobs.
fn first_diff(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!(
                "first diff at line {}:\n  got:  {g:?}\n  want: {w:?}",
                i + 1
            );
        }
    }
    format!(
        "one transcript is a prefix of the other (got {} lines, want {})",
        got.lines().count(),
        want.lines().count()
    )
}

#[test]
fn xp_all_tiny_matches_committed_golden() {
    let store = SimStore::new(Scale::Tiny);
    let got = unicache::experiments::render_all(&store, false, Workload::Fft);
    assert!(
        got == GOLDEN,
        "tiny-scale transcript drifted from tests/golden_tiny.txt\n{}",
        first_diff(&got, GOLDEN)
    );
}

#[test]
fn golden_covers_every_registered_experiment() {
    // The transcript stays honest: every experiment in the registry has
    // its banner in the golden file, so nobody can add a figure without
    // extending the regression surface.
    assert_eq!(unicache::experiments::ALL_EXPERIMENTS.len(), 25);
    for name in [
        "Fig. 1",
        "Fig. 4",
        "Fig. 6",
        "Fig. 7",
        "Fig. 13",
        "Fig. 14",
        "Coherent hierarchy",
        "Model: analytical miss-rate predictions",
    ] {
        assert!(GOLDEN.contains(name), "golden transcript lost {name}");
    }
    assert!(GOLDEN.contains("selected technique per application"));
}

/// Renders `experiment` under every execution knob the `xp` binary
/// exposes — worker count (`--jobs 1/2/8`) — and twice from one
/// process, and asserts each variant is byte-identical and carries
/// `banner`.
fn assert_execution_invariant(experiment: &str, banner: &str) {
    let render = || {
        let store = SimStore::new(Scale::Tiny);
        unicache::experiments::render_experiment(&store, experiment, false, Workload::Fft)
            .expect("experiment is registered")
    };
    unicache::exec::set_global_jobs(1);
    let jobs1 = render();
    unicache::exec::set_global_jobs(2);
    let jobs2 = render();
    unicache::exec::set_global_jobs(8);
    let jobs8 = render();
    unicache::exec::set_global_jobs(1);
    let again = render();
    assert_eq!(jobs1, jobs2, "--jobs 2 changed the {experiment} transcript");
    assert_eq!(jobs1, jobs8, "--jobs 8 changed the {experiment} transcript");
    assert_eq!(
        jobs1, again,
        "re-rendering changed the {experiment} transcript"
    );
    assert!(jobs1.contains(banner), "{experiment} banner missing");
}

/// The interleaved-mix experiments — the coherent sweep and the SMT
/// figures 13/14, whose chunked replay fills tagged scratch from the
/// streaming merge — are deterministic under every execution knob.
#[test]
fn coherent_transcript_is_execution_invariant() {
    for (experiment, banner) in [
        ("coherent", "Coherent hierarchy"),
        ("fig13", "Fig. 13"),
        ("fig14", "Fig. 14"),
    ] {
        assert_execution_invariant(experiment, banner);
    }
}

/// The model table (and its predictions fan out over the executor like
/// any other figure) is deterministic under the same execution knobs.
#[test]
fn model_transcript_is_execution_invariant() {
    assert_execution_invariant("model", "Model: analytical miss-rate predictions");
}
