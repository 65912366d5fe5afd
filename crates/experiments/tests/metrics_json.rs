//! `--metrics-json` stability. The document reads the process-wide obs
//! counters, so this test lives alone in its own test binary: no sibling
//! test can simulate (and bump those counters) between its two reads.

use unicache_experiments::{metrics_json, render_experiment, SimStore};
use unicache_workloads::{Scale, Workload};

#[test]
fn metrics_json_is_valid_and_stable() {
    let store = SimStore::new(Scale::Tiny);
    render_experiment(&store, "fig6", false, Workload::Fft).unwrap();
    let a = metrics_json(&store);
    let b = metrics_json(&store);
    assert_eq!(a, b, "rendering twice changes nothing");
    assert!(a.contains("\"simstore\""));
    assert!(a.contains("\"sims_run\""));
    assert!(a.trim_end().ends_with('}'));
}
