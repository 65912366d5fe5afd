//! In-process experiment rendering — the library behind the `xp` binary.
//!
//! [`render_experiment`] returns exactly the bytes `xp <name>` prints to
//! stdout for that experiment, so the golden-trace regression test (and
//! anything else embedding the runners) can compare output without
//! spawning a subprocess. The `xp` binary is a thin argument-parsing
//! wrapper over this module.
//!
//! Each experiment renders inside an observability span named after it
//! (see `unicache-obs`), which is what gives `xp --trace-out` its
//! per-figure phase structure.

use crate::figures;
use crate::{ExperimentTable, SimStore};
use std::fmt::Write as _;
use unicache_workloads::Workload;

/// Every experiment name, in the order `xp all` runs them.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "classify",
    "patel",
    "belady",
    "generalize",
    "idx-amat",
    "assoc-sweep",
    "hierarchy",
    "icache",
    "online",
    "workloads",
    "phases",
    "select",
    "coherent",
    "model",
];

/// Renders a table the way `xp` emits it: CSV exactly, text with the
/// trailing blank line `println!` used to add.
fn emit(table: ExperimentTable, csv: bool) -> String {
    if csv {
        table.to_csv()
    } else {
        format!("{}\n", table.render())
    }
}

/// Renders one experiment to the exact bytes `xp <name>` prints to
/// stdout, or `None` for an unknown name. `fig1_workload` selects the
/// workload of the Fig. 1 per-set profile (ignored by every other
/// experiment).
pub fn render_experiment(
    store: &SimStore,
    name: &str,
    csv: bool,
    fig1_workload: Workload,
) -> Option<String> {
    // Span names must be 'static; resolve the caller's string to the
    // registry entry (which also rejects unknown names up front).
    let static_name = ALL_EXPERIMENTS.iter().copied().find(|&n| n == name)?;
    let _span = unicache_obs::span(static_name);
    let out = match name {
        "fig1" => figures::fig1::report(store, fig1_workload).render(),
        "fig4" => emit(figures::indexing::fig4(store), csv),
        "fig6" => emit(figures::assoc::fig6(store), csv),
        "fig7" => emit(figures::assoc::fig7(store), csv),
        "fig8" => emit(figures::hybrid::fig8(store), csv),
        "fig9" => emit(figures::indexing::fig9(store), csv),
        "fig10" => emit(figures::indexing::fig10(store), csv),
        "fig11" => emit(figures::assoc::fig11(store), csv),
        "fig12" => emit(figures::assoc::fig12(store), csv),
        "fig13" => emit(figures::smt::fig13(store), csv),
        "fig14" => emit(figures::smt::fig14(store), csv),
        "classify" => emit(figures::extras::classification(store), csv),
        "patel" => emit(figures::extras::patel(store, 10_000, 7), csv),
        "belady" => emit(figures::extras::belady_bound(store), csv),
        "generalize" => emit(figures::extras::givargis_generalization(store), csv),
        "idx-amat" => emit(figures::extras::indexing_amat(store), csv),
        "assoc-sweep" => emit(figures::sweeps::associativity(store), csv),
        "hierarchy" => emit(figures::sweeps::hierarchy_cycles(store), csv),
        "icache" => emit(figures::sweeps::icache(store), csv),
        "online" => emit(figures::extras::online_selection(store), csv),
        "workloads" => emit(figures::extras::workload_characterization(store), csv),
        "phases" => emit(figures::extras::phase_stability(store), csv),
        "coherent" => emit(figures::coherent::coherent(store), csv),
        "model" => emit(figures::model::model(store), csv),
        "select" => {
            let t = figures::extras::scheme_selection(store);
            let mut out = emit(t.clone(), csv);
            if !csv {
                out.push_str("selected technique per application:\n");
                for (w, s, v) in figures::extras::winners(&t) {
                    let _ = writeln!(out, "  {w:12} -> {s} ({v:+.2}%)");
                }
            }
            out
        }
        _ => unreachable!("registry membership checked above"),
    };
    Some(out)
}

/// Renders `xp all`: every experiment in registry order, each followed by
/// the blank separator line.
pub fn render_all(store: &SimStore, csv: bool, fig1_workload: Workload) -> String {
    let mut out = String::new();
    for name in ALL_EXPERIMENTS {
        out.push_str(
            &render_experiment(store, name, csv, fig1_workload)
                .expect("registry names always render"),
        );
        out.push('\n');
    }
    out
}

/// The deterministic `--metrics-json` document: the obs snapshot
/// (counters, histograms, per-name span counts — no ticks, no wall-clock)
/// plus the store's exactly-once simulation counters. Two runs of the
/// same figures at the same scale produce byte-identical output.
pub fn metrics_json(store: &SimStore) -> String {
    let snap = unicache_obs::snapshot();
    let mut out = snap.to_json();
    // Splice the simstore section before the closing brace: drop the
    // trailing `}` and newline, terminate the last section with a comma.
    out.truncate(out.trim_end().len() - 1);
    out.truncate(out.trim_end().len());
    let _ = write!(
        out,
        ",\n  \"simstore\": {{\n    \"sims_run\": {},\n    \"cache_hits\": {},\n    \
         \"records_simulated\": {},\n    \"summaries_built\": {}\n  }}\n}}\n",
        store.sims_run(),
        store.hits(),
        store.records_simulated(),
        store.summaries_built()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicache_workloads::Scale;

    #[test]
    fn unknown_experiment_is_none() {
        let store = SimStore::new(Scale::Tiny);
        assert!(render_experiment(&store, "fig99", false, Workload::Fft).is_none());
    }

    #[test]
    fn fig4_renders_both_formats() {
        let store = SimStore::new(Scale::Tiny);
        let text = render_experiment(&store, "fig4", false, Workload::Fft).unwrap();
        assert!(text.contains("reduction in miss-rate"), "got: {text}");
        assert!(text.ends_with("\n\n"), "text mode keeps the blank line");
        let csv = render_experiment(&store, "fig4", true, Workload::Fft).unwrap();
        assert!(csv.starts_with("# "), "csv mode emits the comment header");
    }
}
