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
//!   spent in phases that simulated no records. It also times
//!   [`unicache_timing::yardstick_secs`] before the first phase and after
//!   each one, never alongside other work; that time counts toward no
//!   phase and not toward the total, and each phase's seconds over the
//!   yardstick's lower median is its calibrated time (the perfgate's
//!   metric). `--timing-json` additionally writes the same numbers as
//!   JSON (the CI perf artifact), with a `parallel` section of per-job
//!   and wall-clock figures.
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
use unicache_experiments::{render_experiment, SimStore, ALL_EXPERIMENTS};
use unicache_timing::{yardstick_secs, Stopwatch};
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
/// and the records the SimStore simulated during it.
struct Phase {
    name: String,
    secs: f64,
    records: u64,
}

/// Renders the timing report (stderr text + optional JSON file) from
/// the phases, the yardstick calls timed between them and the
/// wall-clock of the whole run; returns `false` if the JSON file could
/// not be written.
fn report_timing(
    store: &SimStore,
    phases: &[Phase],
    yardsticks: &[f64],
    wall_secs: f64,
    json_path: Option<&str>,
) -> bool {
    let records = store.records_simulated();
    let sims = store.sims_run();
    let hits = store.hits();
    let summaries = store.summaries_built();
    let yardstick_total: f64 = yardsticks.iter().sum();
    let total_secs = wall_secs - yardstick_total;
    // The lower median, so that of two calls the faster counts: the
    // first call also pays the page faults of a fresh 4 MiB table.
    let mut sorted = yardsticks.to_vec();
    sorted.sort_by(f64::total_cmp);
    let yardstick = sorted[(sorted.len() - 1) / 2];
    let per_sec = |n: f64, secs: f64| if secs > 0.0 { n / secs } else { 0.0 };
    let rps = per_sec(records as f64, total_secs);
    // Wall-clock no phase accounts for with simulated records. A fold
    // from +0.0: an empty f64 `sum` is -0.0, which would print "-0.000".
    let unaccounted = phases
        .iter()
        .filter(|p| p.records == 0)
        .fold(0.0, |acc, p| acc + p.secs);
    let unaccounted_pct = 100.0 * per_sec(unaccounted, total_secs);
    let jobs = unicache_exec::global_jobs();
    let exec = unicache_exec::stats();
    eprintln!("-- timing --");
    for p in phases {
        eprintln!(
            "{:>24}  {:8.3}s  {:9.2} cal  ({} records, {:.0} rec/s)",
            p.name,
            p.secs,
            p.secs / yardstick,
            p.records,
            per_sec(p.records as f64, p.secs)
        );
    }
    eprintln!(
        "{:>24}  {total_secs:8.3}s  {:9.2} cal",
        "total",
        total_secs / yardstick
    );
    eprintln!(
        "yardstick: {:.3} ms per call (median of {}); {yardstick_total:.3}s outside every phase",
        1e3 * yardstick,
        yardsticks.len()
    );
    eprintln!(
        "unaccounted: {unaccounted:.3}s ({unaccounted_pct:.1}% of wall-clock) in phases \
         reporting 0 records"
    );
    eprintln!(
        "simulations: {sims} run, {hits} served from cache; \
         {records} records simulated ({rps:.0} records/sec overall); \
         {summaries} summaries built"
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
            // "name" must stay the first key: the perfgate's phase scanner
            // splits the list on `{"name": "`.
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"records\": {}, \
                 \"records_per_sec\": {:.0}, \"calibrated\": {:.4}}}{comma}\n",
                p.name,
                p.secs,
                p.records,
                per_sec(p.records as f64, p.secs),
                p.secs / yardstick
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total_seconds\": {total_secs:.6},\n  \
             \"yardstick_seconds\": {yardstick:.9},\n  \
             \"total_calibrated\": {:.4},\n  \
             \"unaccounted_seconds\": {unaccounted:.6},\n  \"sims_run\": {sims},\n  \
             \"cache_hits\": {hits},\n  \"records_simulated\": {records},\n  \
             \"summaries_built\": {summaries},\n  \
             \"records_per_sec\": {rps:.0},\n  \"jobs\": {jobs},\n  \
             \"parallel\": {{\"tasks\": {}, \"busy_seconds\": {:.6}, \
             \"max_task_seconds\": {:.6}}}\n}}\n",
            total_secs / yardstick,
            exec.tasks,
            exec.busy_seconds,
            exec.max_task_seconds
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
    unicache_exec::tune_allocator();
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
            flag @ ("--timing-json" | "--metrics-json" | "--model-json" | "--trace-out") => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return usage();
                };
                let slot = match flag {
                    "--timing-json" => &mut timing_json,
                    "--metrics-json" => &mut metrics_json,
                    "--model-json" => &mut model_json,
                    _ => &mut trace_out,
                };
                *slot = Some(path.clone());
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

    let timed = timing || timing_json.is_some();
    let started = Stopwatch::start();
    let mut phases: Vec<Phase> = Vec::new();
    let mut yardsticks: Vec<f64> = Vec::new();
    if timed {
        yardsticks.push(yardstick_secs());
    }
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
        if timed {
            yardsticks.push(yardstick_secs());
        }
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
    if timed {
        written &= report_timing(
            &store,
            &phases,
            &yardsticks,
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
