//! `xp` — regenerate any figure of the paper.
//!
//! ```text
//! xp <fig1|fig4|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|
//!     classify|patel|belady|select|model|all> [--scale tiny|small|large] [--csv]
//!    [--jobs N] [--timing] [--timing-json FILE]
//!    [--metrics-json FILE] [--model-json FILE] [--trace-out FILE]
//! ```
//!
//! Rendering lives in [`unicache_experiments::runner`]; this binary only
//! parses arguments, prints, and writes the report artifacts:
//!
//! * `--jobs N` sets the worker count of the `unicache-exec` executor
//!   that fans trace generation and simulation across cores (default:
//!   all available cores). Output is byte-identical for every `N` —
//!   results are collected in canonical job order and the memoized
//!   SimStore runs each simulation exactly once — so the flag only
//!   changes wall-clock, never figures or metrics.
//! * `--timing` prints per-experiment wall-clock to stderr plus a summary
//!   of the [`SimStore`]'s work: simulations run vs served from cache,
//!   aggregate records/sec through the batched engine, and the seconds
//!   spent in phases that simulated no records. `--timing-json`
//!   additionally writes the same numbers as JSON (the CI perf artifact),
//!   including per-phase records/sec (the per-phase perfgate's input) and
//!   a `parallel` section with per-job and wall-clock figures.
//! * `--metrics-json` writes the deterministic observability metrics
//!   (event counters, histograms, span counts — no wall-clock, byte-
//!   identical across runs). Meaningful with the `obs` feature; without
//!   it the counters section is all zeros and `obs_enabled` is false.
//! * `--model-json` writes the analytical-model error sweep (the data
//!   behind `xp model`) as deterministic JSON — the CI `MODEL_error.json`
//!   artifact the model job uploads.
//! * `--trace-out` writes completed spans in Chrome trace-event format
//!   (load into `chrome://tracing` / Perfetto; timestamps are logical
//!   ticks, not wall time).
//!
//! An artifact that cannot be written is reported on stderr and makes
//! `xp` exit 1 once every other output is done.

use std::env;
use std::process::ExitCode;
use unicache_experiments::{
    render_experiment, tune_allocator_for_traces, SimStore, ALL_EXPERIMENTS,
};
use unicache_timing::Stopwatch;
use unicache_workloads::{Scale, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: xp <experiment> [--scale tiny|small|large] [--csv] [--jobs N]\n\
         \x20         [--timing] [--timing-json FILE] [--metrics-json FILE] [--model-json FILE]\n\
         \x20         [--trace-out FILE]\n\
         (fig1 also takes an optional workload name, e.g. `xp fig1 susan`)\n\
         experiments: fig1 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14\n\
                      classify patel belady generalize idx-amat assoc-sweep\n\
                      hierarchy icache online workloads phases select coherent model all"
    );
    ExitCode::from(2)
}

/// One `--timing` sample: an experiment name, its wall-clock seconds,
/// and the records the SimStore simulated during it (the per-phase
/// records/sec numerator the perfgate gates on).
struct Phase {
    name: String,
    secs: f64,
    records: u64,
}

/// Renders the timing report (stderr text + optional JSON file);
/// returns `false` if the JSON file could not be written.
fn report_timing(
    store: &SimStore,
    phases: &[Phase],
    total_secs: f64,
    json_path: Option<&str>,
) -> bool {
    let records = store.records_simulated();
    let sims = store.sims_run();
    let hits = store.hits();
    let decodes = store.streams_decoded();
    let summaries = store.summaries_built();
    let rps = if total_secs > 0.0 {
        records as f64 / total_secs
    } else {
        0.0
    };
    // Wall-clock no phase accounts for with simulated records. A fold
    // from +0.0: an empty f64 `sum` is -0.0, which would print "-0.000".
    let unaccounted = phases
        .iter()
        .filter(|p| p.records == 0)
        .fold(0.0, |acc, p| acc + p.secs);
    let unaccounted_pct = if total_secs > 0.0 {
        100.0 * unaccounted / total_secs
    } else {
        0.0
    };
    let jobs = unicache_exec::global_jobs();
    let exec = unicache_exec::stats();
    eprintln!("-- timing --");
    for p in phases {
        let prps = if p.secs > 0.0 {
            p.records as f64 / p.secs
        } else {
            0.0
        };
        eprintln!(
            "{:>24}  {:8.3}s  ({} records, {prps:.0} rec/s)",
            p.name, p.secs, p.records
        );
    }
    eprintln!("{:>24}  {total_secs:8.3}s", "total");
    eprintln!(
        "unaccounted: {unaccounted:.3}s ({unaccounted_pct:.1}% of wall-clock) in phases \
         reporting 0 records"
    );
    eprintln!(
        "simulations: {sims} run, {hits} served from cache; \
         {records} records simulated ({rps:.0} records/sec overall); \
         {decodes} streams decoded, {summaries} summaries built"
    );
    eprintln!(
        "parallel: {jobs} jobs, {} tasks, busy {:.3}s (max task {:.3}s, wall {total_secs:.3}s)",
        exec.tasks, exec.busy_seconds, exec.max_task_seconds
    );
    if let Some(path) = json_path {
        // Hand-rolled JSON: there is no JSON crate in the offline workspace.
        let mut out = String::from("{\n  \"phases\": [\n");
        for (i, p) in phases.iter().enumerate() {
            let comma = if i + 1 < phases.len() { "," } else { "" };
            // "seconds" must stay directly after "name": the perfgate
            // phase parser anchors on that exact byte sequence.
            let prps = if p.secs > 0.0 {
                p.records as f64 / p.secs
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"records\": {}, \
                 \"records_per_sec\": {prps:.0}}}{comma}\n",
                p.name, p.secs, p.records
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total_seconds\": {total_secs:.6},\n  \
             \"unaccounted_seconds\": {unaccounted:.6},\n  \"sims_run\": {sims},\n  \
             \"cache_hits\": {hits},\n  \"records_simulated\": {records},\n  \
             \"streams_decoded\": {decodes},\n  \"summaries_built\": {summaries},\n  \
             \"records_per_sec\": {rps:.0},\n  \"jobs\": {jobs},\n  \
             \"parallel\": {{\"tasks\": {}, \"busy_seconds\": {:.6}, \
             \"max_task_seconds\": {:.6}}}\n}}\n",
            exec.tasks, exec.busy_seconds, exec.max_task_seconds
        ));
        return write_artifact(path, &out);
    }
    true
}

/// Writes one report artifact; returns `false` (after saying why on
/// stderr) if the write failed.
fn write_artifact(path: &str, contents: &str) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("xp: cannot write {path}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    tune_allocator_for_traces();
    let args: Vec<String> = env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut fig1_workload = Workload::Fft;
    let mut scale = Scale::Small;
    let mut csv = false;
    let mut timing = false;
    let mut timing_json: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut model_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("large") => Scale::Large,
                    _ => return usage(),
                };
            }
            "--csv" => csv = true,
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|a| a.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => unicache_exec::set_global_jobs(n),
                    _ => return usage(),
                }
            }
            "--timing" => timing = true,
            "--timing-json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => timing_json = Some(p.clone()),
                    None => return usage(),
                }
            }
            "--metrics-json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => metrics_json = Some(p.clone()),
                    None => return usage(),
                }
            }
            "--model-json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => model_json = Some(p.clone()),
                    None => return usage(),
                }
            }
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_out = Some(p.clone()),
                    None => return usage(),
                }
            }
            a if which.is_none() && !a.starts_with('-') => which = Some(a.to_string()),
            a if which.as_deref() == Some("fig1") && Workload::from_name(a).is_some() => {
                fig1_workload = Workload::from_name(a).expect("checked above");
            }
            _ => return usage(),
        }
        i += 1;
    }
    let Some(which) = which else { return usage() };
    let store = SimStore::new(scale);

    let started = Stopwatch::start();
    let mut phases: Vec<Phase> = Vec::new();
    let mut timed_run = |name: &str| -> bool {
        let t0 = Stopwatch::start();
        let records_before = store.records_simulated();
        let Some(out) = render_experiment(&store, name, csv, fig1_workload) else {
            return false;
        };
        print!("{out}");
        phases.push(Phase {
            name: name.to_string(),
            secs: t0.elapsed_secs(),
            records: store.records_simulated() - records_before,
        });
        true
    };

    if which == "all" {
        for name in ALL_EXPERIMENTS {
            if !timed_run(name) {
                return usage();
            }
            println!();
        }
    } else if !timed_run(&which) {
        return usage();
    }
    let mut written = true;
    if timing || timing_json.is_some() {
        written &= report_timing(
            &store,
            &phases,
            started.elapsed_secs(),
            timing_json.as_deref(),
        );
    }
    if let Some(path) = metrics_json.as_deref() {
        written &= write_artifact(path, &unicache_experiments::metrics_json(&store));
    }
    if let Some(path) = model_json.as_deref() {
        // Served from the same store: after `xp model` (or `xp all`) the
        // sweep is fully cached and this only re-reads results.
        written &= write_artifact(
            path,
            &unicache_experiments::figures::model::model_error_json(&store),
        );
    }
    if let Some(path) = trace_out.as_deref() {
        written &= write_artifact(path, &unicache_obs::snapshot().to_chrome_trace());
    }
    if written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
